//! Error paths across every hb-io surface: malformed `.hum` headers,
//! truncated BLIF, and the daemon protocol codec under both random and
//! hostile inputs. Each failure must be a structured [`ParseError`] or
//! [`ProtoError`] carrying a useful position — never a panic, never a
//! silent partial parse.

use std::io::BufReader;

use hb_cells::sc89;
use hb_io::{parse_blif, parse_hum, write_frame, Frame, FrameReader, ProtoError};
use hb_rng::SmallRng;

#[test]
fn malformed_hum_headers_report_the_line() {
    let lib = sc89();
    let cases: &[(&str, &str, usize)] = &[
        ("design\n", "design needs a name", 1),
        ("design d\nmodule\n", "module needs a name", 2),
        ("design d\nmodule a\nmodule b\n", "nested module", 3),
        ("design d\nend\n", "outside a module", 2),
        ("design d\nmodule t\nport sideways x\nend\n", "direction", 3),
        ("design d\nmodule t\n", "unterminated module", 0),
        // A `design` line rebuilds the design, so it must come first.
        (
            "module top\nport in a\ndesign foo\ninst u1 INV_X1 A=a Y=y\n",
            "`design` after a module",
            3,
        ),
        (
            "module sub\nend\ndesign foo\nmodule top\ninst s0 sub\nend\n",
            "`design` after a module",
            3,
        ),
        ("design a\ndesign b\n", "second `design`", 2),
        (
            "design d\nmodule t\nport in a\ninst u1 INV_X1 A=a A=b Y=y\nend\n",
            "connected twice",
            4,
        ),
    ];
    for &(text, needle, line) in cases {
        let e = parse_hum(text, &lib).unwrap_err();
        assert!(
            e.message().contains(needle),
            "{text:?}: expected {needle:?} in {:?}",
            e.message()
        );
        assert_eq!(e.line(), line, "{text:?}: wrong line in {e}");
    }
}

/// Seeded line-level mutations of real `.hum` texts: the sample
/// designs and a small generated design of each family. Whatever the
/// mutation, `parse_hum` returns rather than panics, and a text it
/// accepts is byte-stable through write → parse → write.
#[test]
fn mutated_hum_never_panics_and_accepted_text_round_trips() {
    use hb_workloads::{generate, GenKind, GenParams};

    let lib = sc89();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hum"))
        .collect();
    paths.sort();
    let mut sources: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    for kind in [GenKind::Pipeline, GenKind::Sbox, GenKind::Sram] {
        sources.push(generate(&lib, &GenParams::new(kind, 1000, 17)).to_hum());
    }

    let write = |file: &hb_io::HumFile| {
        hb_io::write_hum_with_timing(&file.design, &file.clocks, &file.timing)
    };
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..240u64 {
        let mut rng = SmallRng::seed_from_u64(0x0C7_1989 + seed);
        let source = &sources[seed as usize % sources.len()];
        let mut lines: Vec<String> = source.lines().map(str::to_owned).collect();
        for _ in 0..rng.gen_range(1..4) {
            mutate_lines(&mut rng, &mut lines);
        }
        let text = lines.join("\n");
        let parsed = std::panic::catch_unwind(|| parse_hum(&text, &lib));
        let Ok(parsed) = parsed else {
            panic!("seed {seed}: parse_hum panicked on:\n{text}");
        };
        let Ok(file) = parsed else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        let once = write(&file);
        let again = parse_hum(&once, &lib)
            .unwrap_or_else(|e| panic!("seed {seed}: written text fails to parse: {e}"));
        assert_eq!(
            write(&again),
            once,
            "seed {seed}: write → parse → write moved bytes"
        );
    }
    assert!(
        accepted > 20 && rejected > 20,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// One random line-level edit: drop, duplicate or swap lines, cut a
/// line short, repeat a `pin=net` token, or move the `design` line.
fn mutate_lines(rng: &mut SmallRng, lines: &mut Vec<String>) {
    if lines.is_empty() {
        return;
    }
    let i = rng.gen_range(0..lines.len());
    match rng.gen_range(0..6) {
        0 => {
            lines.remove(i);
        }
        1 => lines.insert(i, lines[i].clone()),
        2 => {
            let j = rng.gen_range(0..lines.len());
            lines.swap(i, j);
        }
        3 => {
            let line = &mut lines[i];
            let mut cut = rng.gen_range(0..line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line.truncate(cut);
        }
        4 => {
            let insts: Vec<usize> = (0..lines.len())
                .filter(|&k| lines[k].trim_start().starts_with("inst "))
                .collect();
            if insts.is_empty() {
                return;
            }
            let line = &mut lines[insts[rng.gen_range(0..insts.len())]];
            let mut tokens: Vec<&str> = line.split_whitespace().collect();
            let conns: Vec<usize> = (3..tokens.len())
                .filter(|&k| tokens[k].contains('='))
                .collect();
            if conns.is_empty() {
                return;
            }
            let token = tokens[conns[rng.gen_range(0..conns.len())]];
            tokens.insert(rng.gen_range(3..tokens.len() + 1), token);
            *line = format!("  {}", tokens.join(" "));
        }
        _ => {
            let Some(at) = lines.iter().position(|l| l.starts_with("design")) else {
                return;
            };
            let line = lines.remove(at);
            let to = rng.gen_range(0..lines.len() + 1);
            lines.insert(to, line);
        }
    }
}

#[test]
fn malformed_hum_clock_and_timing_lines() {
    let lib = sc89();
    let prefix = "design d\nmodule top\n  port in a\nend\ntop top\n";
    for bad in [
        "clock ck\n",
        "clock ck period banana rise 0ns fall 5ns\n",
        "clock ck period 10ns rise 0ns fall 5ns stretch 1ns\n",
        "clockport onlyaport\n",
        "arrive a ck sideways 1ns\n",
        "arrive a ck rise\n",
    ] {
        let text = format!("{prefix}{bad}");
        assert!(parse_hum(&text, &lib).is_err(), "{bad:?} must be rejected");
    }
    // The prefix alone is fine — failures above are the suffix's fault.
    assert!(parse_hum(prefix, &lib).is_ok());
}

#[test]
fn truncated_blif_is_rejected() {
    let lib = sc89();
    let e = parse_blif("", &lib).unwrap_err();
    assert!(e.message().contains("no .model"), "{e}");
    let e = parse_blif(".model t\n.inputs a\n.outputs y\n", &lib).unwrap_err();
    assert!(e.message().contains("unterminated model"), "{e}");
    let e = parse_blif(".model a\n.model b\n.end\n", &lib).unwrap_err();
    assert!(e.message().contains("nested .model"), "{e}");
    // A continuation backslash at end-of-input must not lose the line.
    let e = parse_blif(".model t\n.inputs a \\\n", &lib).unwrap_err();
    assert!(e.message().contains("unterminated"), "{e}");
}

/// Random frames survive an encode → decode round trip even when the
/// transport hands the decoder tiny buffers (frames split mid-header
/// and mid-payload).
#[test]
fn codec_round_trip_fuzz_with_split_reads() {
    let mut rng = SmallRng::seed_from_u64(0x1989_0625);
    let token = |rng: &mut SmallRng| -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-.:";
        let len = rng.gen_range(1..12);
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect()
    };
    for round in 0..50 {
        let mut frames = Vec::new();
        for _ in 0..rng.gen_range(1..8) {
            let mut frame = Frame::new(token(&mut rng));
            for _ in 0..rng.gen_range(0..4) {
                frame = frame.arg(token(&mut rng), token(&mut rng));
            }
            if rng.gen_bool(0.5) {
                // Payloads may hold anything printable, including the
                // header's own delimiters.
                let mut payload = String::new();
                for _ in 0..rng.gen_range(0..120) {
                    payload.push(match rng.gen_range(0..8) {
                        0 => ' ',
                        1 => '\n',
                        2 => '=',
                        3 => 'λ', // multi-byte UTF-8
                        _ => ALPHANUM(rng.gen_range(0..36)),
                    });
                }
                frame = frame.with_payload(payload);
            }
            frames.push(frame);
        }
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        // A 3-byte transport buffer forces every split-read path.
        let cursor = std::io::Cursor::new(wire);
        let mut reader = FrameReader::new(BufReader::with_capacity(3, cursor));
        let mut decoded = Vec::new();
        while let Some(frame) = reader.read_frame().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames, "round {round} mangled the frames");
    }
}

#[allow(non_snake_case)]
fn ALPHANUM(i: usize) -> char {
    (b"abcdefghijklmnopqrstuvwxyz0123456789"[i]) as char
}

fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, ProtoError> {
    FrameReader::new(std::io::Cursor::new(bytes.to_vec())).read_frame()
}

#[test]
fn hostile_frames_fail_closed() {
    // Oversized header: rejected before the line is buffered whole.
    let mut huge = vec![b'x'; hb_io::proto::MAX_HEADER + 1];
    huge.push(b'\n');
    assert!(matches!(
        decode_one(&huge),
        Err(ProtoError::Oversized { what: "header", .. })
    ));
    // ...even with no newline at all (a peer streaming garbage forever
    // must not grow the buffer unboundedly).
    let unending = vec![b'x'; hb_io::proto::MAX_HEADER + 1];
    assert!(matches!(
        decode_one(&unending),
        Err(ProtoError::Oversized { what: "header", .. })
    ));

    // A 16 MiB+1 declared payload is refused without allocating it.
    let decl = format!("load payload={}\n", hb_io::proto::MAX_PAYLOAD + 1);
    assert!(matches!(
        decode_one(decl.as_bytes()),
        Err(ProtoError::Oversized {
            what: "payload",
            ..
        })
    ));

    // Embedded NUL: recoverable (the line was consumed), but rejected.
    let err = decode_one(b"sta\0ts\n").unwrap_err();
    assert!(matches!(err, ProtoError::Nul) && err.recoverable());
    let err = decode_one(b"load payload=3\na\0b\n").unwrap_err();
    assert!(matches!(err, ProtoError::Nul));

    // Truncations at every stage.
    assert!(matches!(decode_one(b"stats"), Err(ProtoError::Truncated)));
    assert!(matches!(
        decode_one(b"load payload=10\nabc"),
        Err(ProtoError::Truncated)
    ));
    // Declared length shorter than the actual body: the reader must
    // notice the missing terminator rather than resync mid-payload.
    let err = decode_one(b"load payload=2\nabcd\n").unwrap_err();
    assert!(matches!(err, ProtoError::Malformed(_)), "{err}");

    // Bad UTF-8 in header and payload.
    assert!(matches!(
        decode_one(b"st\xffats\n"),
        Err(ProtoError::Encoding)
    ));
    assert!(matches!(
        decode_one(b"load payload=2\n\xff\xfe\n"),
        Err(ProtoError::Encoding)
    ));

    // Arguments without `=` stay recoverable: the server answers with
    // a structured error and keeps the connection.
    let err = decode_one(b"slack node\n").unwrap_err();
    assert!(err.recoverable(), "{err}");
}

/// The fleet and replication verbs ride the same codec: hostile
/// `design=` keys, oversized `open` headers, and truncated replication
/// pages fail closed with the same classifications as any other frame.
#[test]
fn hostile_fleet_and_replication_frames() {
    // A design id with whitespace splits into a dangling token: the
    // codec rejects the line recoverably and the daemon answers with a
    // structured error instead of routing to a half-named session.
    let err = decode_one(b"open design=has space\n").unwrap_err();
    assert!(
        matches!(err, ProtoError::Malformed(_)) && err.recoverable(),
        "{err}"
    );

    // An *empty* id is the router's problem, not the codec's: the
    // frame decodes with the empty value intact so the server can
    // reject it as `usage` rather than the codec dropping the line.
    let frame = decode_one(b"open design=\n").unwrap().unwrap();
    assert_eq!(frame.verb, "open");
    assert_eq!(frame.get("design"), Some(""));

    // An `open` padded past the header bound is refused before the id
    // is ever buffered whole.
    let mut huge = b"open design=".to_vec();
    huge.resize(hb_io::proto::MAX_HEADER + 1, b'x');
    huge.push(b'\n');
    assert!(matches!(
        decode_one(&huge),
        Err(ProtoError::Oversized { what: "header", .. })
    ));

    // A replication page cut off mid-entry is a truncation, never a
    // silently short frame the standby could replay as-is.
    assert!(matches!(
        decode_one(b"entry expect=eco payload=50\nshort"),
        Err(ProtoError::Truncated)
    ));
    // ...and a cursor carrying bad UTF-8 is an encoding error.
    assert!(matches!(
        decode_one(b"repl-pull design=d epoch=\xff\n"),
        Err(ProtoError::Encoding)
    ));
}

/// A realistic daemon transcript over `text`: the fleet lifecycle —
/// open, load, query, replicate — with the design as a bulky payload
/// and a nested replication `entry` carrying a frame *as* a payload.
fn transcript(text: &str) -> Vec<Frame> {
    vec![
        Frame::new("hello"),
        Frame::new("open").arg("design", "soc_v2.rev-3"),
        Frame::new("load")
            .arg("format", "hum")
            .arg("design", "soc_v2.rev-3")
            .with_payload(text),
        Frame::new("analyze").arg("latch", "transparent"),
        Frame::new("slack").arg("node", "mid"),
        Frame::new("worst-paths").arg("k", 9),
        Frame::new("eco")
            .arg("op", "resize")
            .arg("inst", "a0")
            .arg("steps", 1),
        Frame::new("designs"),
        Frame::new("repl-state"),
        Frame::new("repl-pull")
            .arg("design", "soc_v2.rev-3")
            .arg("epoch", 0)
            .arg("since", 0),
        Frame::new("entry")
            .arg("expect", "ok")
            .with_payload(Frame::new("analyze").encode()),
        Frame::new("dump"),
        Frame::new("stats"),
        Frame::new("close").arg("design", "soc_v2.rev-3"),
        Frame::new("shutdown"),
    ]
}

/// The seeded fault matrix: every `io.*` fault point, alone and all
/// together, against two workload-sized transcripts. The invariants:
/// a faulted *writer* emits byte-identical wire (callers retry
/// `Interrupted` and loop short writes), and a faulted *reader*
/// decodes byte-identical frames — injected `WouldBlock`/`TimedOut`
/// surface as resumable errors, never as misclassified frame damage.
#[test]
fn faulted_transport_matrix_round_trips_transcripts() {
    use hb_fault::{Fault, FaultPlan, FaultStream};
    use std::io::Write as _;
    use std::time::Duration;

    let lib = sc89();
    let pipe = hb_workloads::random_pipeline(
        &lib,
        hb_workloads::PipelineParams {
            stages: 6,
            width: 8,
            gates_per_stage: 120,
            transparent: true,
            period_ns: 30,
            seed: 1203,
            imbalance_pct: 40,
        },
    );
    let fsm = hb_workloads::fsm12(&lib, true);
    let texts = [
        hb_io::write_hum_with_timing(&pipe.design, &pipe.clocks, &[]),
        hb_io::write_hum_with_timing(&fsm.design, &fsm.clocks, &[]),
    ];

    const POINTS: &[&str] = &[
        hb_fault::IO_READ_SHORT,
        hb_fault::IO_READ_ERR,
        hb_fault::IO_READ_STALL,
        hb_fault::IO_WRITE_SHORT,
        hb_fault::IO_WRITE_ERR,
        hb_fault::IO_WRITE_STALL,
    ];
    // Each single point plus the everything-at-once plan.
    let arms: Vec<Vec<&str>> = POINTS
        .iter()
        .map(|&p| vec![p])
        .chain(std::iter::once(POINTS.to_vec()))
        .collect();
    let plan_for = |seed: u64, arm: &[&str]| -> FaultPlan {
        let mut plan = FaultPlan::seeded(seed).with_stall(Duration::from_millis(1));
        for &point in arm {
            // Stalls are rare and budgeted to keep the matrix fast;
            // everything else fires often.
            let fault = if point.ends_with(".stall") {
                Fault::with_rate(2).budget(10)
            } else {
                Fault::with_rate(25)
            };
            plan = plan.armed(point, fault);
        }
        plan
    };

    for (t, text) in texts.iter().enumerate() {
        let frames = transcript(text);
        let mut clean_wire = Vec::new();
        for frame in &frames {
            write_frame(&mut clean_wire, frame).unwrap();
        }
        for seed in [0xDAC89u64, 11, 12] {
            for arm in &arms {
                let tag = format!("transcript {t}, seed {seed:#x}, arm {arm:?}");

                // Faulted writer → byte-identical wire. `write_all`
                // retries Interrupted and loops over short writes.
                let mut sink = FaultStream::new(std::io::empty(), Vec::new(), plan_for(seed, arm));
                for frame in &frames {
                    sink.write_all(frame.encode().as_bytes()).unwrap();
                }
                assert_eq!(
                    sink.into_inner().1,
                    clean_wire,
                    "{tag}: writer corrupted wire"
                );

                // Faulted reader → identical frames, resumably. Small
                // buffer capacity multiplies the split points.
                let cursor = std::io::Cursor::new(clean_wire.clone());
                let mut reader = FrameReader::new(BufReader::with_capacity(
                    256,
                    FaultStream::reader(cursor, plan_for(seed, arm)),
                ));
                let mut decoded = Vec::new();
                loop {
                    match reader.read_frame() {
                        Ok(Some(frame)) => decoded.push(frame),
                        Ok(None) => break,
                        Err(ProtoError::Io(e))
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            continue; // injected; partial frame retained
                        }
                        Err(e) => panic!("{tag}: misclassified fault as {e}"),
                    }
                }
                assert!(!reader.mid_frame(), "{tag}: trailing partial frame");
                assert_eq!(decoded, frames, "{tag}: reader mangled frames");
            }
        }
    }
}
