//! Fuzz suite for [`FrameDecoder`], the protocol's one decoder: the
//! reactor feeds it whatever the kernel hands over, so frames arrive
//! split at arbitrary byte boundaries, glued back-to-back, or hostile.
//! The decoder must produce the exact frame sequence regardless of the
//! feed schedule, classify garbage the same way under every schedule
//! (a whole-stream pull through [`FrameReader`] included), and never
//! panic.

use hb_io::proto::{MAX_HEADER, MAX_PAYLOAD};
use hb_io::{Frame, FrameDecoder, FrameReader, ProtoError};
use hb_rng::SmallRng;

/// A deterministic mixed workload: empty frames, args, payloads of
/// awkward sizes (0, 1, around the decoder's compaction threshold).
fn corpus() -> Vec<Frame> {
    let mut frames = vec![
        Frame::new("hello"),
        Frame::new("slack").arg("node", "a1y").arg("node", "dout"),
        Frame::new("load").with_payload(""),
        Frame::new("eco")
            .arg("op", "resize")
            .arg("inst", "b0")
            .arg("steps", 1),
        // Fleet and replication verbs, including a nested `entry`
        // whose payload is itself an encoded frame (the replication
        // stream's on-wire shape).
        Frame::new("open").arg("design", "soc_v2.rev-3"),
        Frame::new("repl-pull")
            .arg("design", "default")
            .arg("epoch", 4)
            .arg("since", 17),
        Frame::new("entry")
            .arg("expect", "error")
            .with_payload(Frame::new("load").with_payload("design broken\n").encode()),
        Frame::new("close").arg("design", "soc_v2.rev-3"),
    ];
    for size in [1usize, 63, 64, 65, 4095, 4096, 8192, 20_000] {
        frames.push(
            Frame::new("load")
                .arg("tag", size)
                .with_payload("x".repeat(size)),
        );
    }
    frames
}

fn wire_of(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        wire.extend_from_slice(f.encode().as_bytes());
    }
    wire
}

/// Decodes everything currently decodable, asserting no errors.
fn drain(decoder: &mut FrameDecoder, out: &mut Vec<Frame>) {
    while let Some(frame) = decoder.next_frame().expect("clean corpus") {
        out.push(frame);
    }
}

/// Every single byte boundary: feeding `wire[..i]` then `wire[i..]`
/// yields the identical frame sequence — no split can lose progress.
#[test]
fn every_split_boundary_round_trips() {
    let frames = corpus();
    // Keep the quadratic sweep affordable: the small frames cover the
    // header/payload boundaries, one mid-size payload covers the rest.
    let small: Vec<Frame> = frames
        .iter()
        .filter(|f| f.payload.as_ref().is_none_or(|p| p.len() <= 128))
        .cloned()
        .collect();
    let wire = wire_of(&small);
    for split in 0..=wire.len() {
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        decoder.feed(&wire[..split]);
        drain(&mut decoder, &mut got);
        decoder.feed(&wire[split..]);
        drain(&mut decoder, &mut got);
        decoder.finish().expect("no partial frame at the end");
        assert_eq!(got, small, "split at byte {split} diverged");
    }
}

/// Seeded chaos: the full corpus (pipelined back-to-back, shuffled
/// order) fed in random-size slices — including empty feeds and
/// single bytes — always decodes to the exact sequence.
#[test]
fn random_feed_schedules_decode_identically() {
    for seed in [0xDAC89u64, 1, 2, 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for round in 0..50 {
            // A shuffled multi-copy of the corpus, glued end to end.
            let mut frames = Vec::new();
            let corpus = corpus();
            for _ in 0..3 {
                for f in &corpus {
                    if rng.gen_bool(0.7) {
                        frames.push(f.clone());
                    }
                }
            }
            let wire = wire_of(&frames);
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            let mut fed = 0usize;
            while fed < wire.len() {
                let n = match rng.gen_range(0..10) {
                    0 => 0,                                      // spurious empty feed
                    1 => 1,                                      // single byte
                    2..=5 => rng.gen_range(1..64),               // small slices
                    _ => rng.gen_range(1..wire.len() - fed + 1), // big gulps
                };
                let n = n.min(wire.len() - fed);
                decoder.feed(&wire[fed..fed + n]);
                fed += n;
                if rng.gen_bool(0.5) {
                    drain(&mut decoder, &mut got);
                }
            }
            drain(&mut decoder, &mut got);
            decoder
                .finish()
                .unwrap_or_else(|e| panic!("seed {seed:#x} round {round}: {e}"));
            assert_eq!(got, frames, "seed {seed:#x} round {round} diverged");
        }
    }
}

/// Hostile inputs classify alike whatever the feed schedule: a
/// whole-stream pull through [`FrameReader`] is the reference, and
/// random feed schedules must agree with it. Fatal errors stay fatal,
/// recoverable ones leave the buffer aligned on the next frame.
#[test]
fn hostile_inputs_classify_like_the_blocking_reader() {
    let oversized_header = format!("verb {}\n", "k=v ".repeat(MAX_HEADER / 4));
    let hostile: Vec<Vec<u8>> = vec![
        b"no_newline_and_garbage \xff\xfe\n".to_vec(), // bad UTF-8
        b"nul\0byte\n".to_vec(),                       // NUL in header
        b"arg without equals\n".to_vec(),              // malformed arg
        b"\n".to_vec(),                                // empty header
        format!("load payload={}\n", MAX_PAYLOAD + 1).into_bytes(), // oversized payload
        oversized_header.into_bytes(),                 // oversized header
        b"load payload=5\nab\xffcd".to_vec(),          // payload bad UTF-8
        b"load payload=2\nab?".to_vec(),               // missing terminator
        b"load payload=2\na\0\n".to_vec(),             // NUL in payload
        b"open design=has space\n".to_vec(),           // fleet id with whitespace
        b"entry expect=eco payload=50\nshort".to_vec(), // truncated replication page
        {
            // An `open` padded past the header bound.
            let mut huge = b"open design=".to_vec();
            huge.resize(MAX_HEADER + 1, b'x');
            huge.push(b'\n');
            huge
        },
    ];
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for case in &hostile {
        // Reference classification: the whole stream, pulled.
        let mut reader = FrameReader::new(std::io::Cursor::new(case.clone()));
        let want = reader.read_frame().expect_err("hostile by construction");

        // The decoder must agree for any feed schedule.
        for _ in 0..20 {
            let mut decoder = FrameDecoder::new();
            let mut fed = 0usize;
            let got = 'decode: {
                while fed < case.len() {
                    let n = rng.gen_range(1..case.len() + 1).min(case.len() - fed);
                    decoder.feed(&case[fed..fed + n]);
                    fed += n;
                    match decoder.next_frame() {
                        Ok(Some(f)) => panic!("hostile input decoded: {f:?}"),
                        Ok(None) => {}
                        Err(e) => break 'decode e,
                    }
                }
                // Undetectable before EOF (e.g. a truncated payload).
                decoder.finish().expect_err("hostile by construction")
            };
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{case:?}: decoder said `{got}`, reader said `{want}`"
            );
        }
    }

    // After a recoverable rejection the very next frame decodes.
    let mut decoder = FrameDecoder::new();
    decoder.feed(b"bogus arg\nhello\n");
    assert!(matches!(
        decoder.next_frame(),
        Err(ProtoError::Malformed(_))
    ));
    let frame = decoder.next_frame().unwrap().expect("aligned on `hello`");
    assert_eq!(frame.verb, "hello");
    decoder.finish().unwrap();
}
