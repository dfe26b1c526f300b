//! End-to-end driver tests against real `.hum` files on disk.

use std::fs;

const DESIGN: &str = "\
design demo
module top
  port in a ck
  port out y
  inst u1 INV_X1 A=a Y=w
  inst u2 NAND2_X1 A=w B=a Y=v
  inst ff DFF D=v CK=ck Q=y
end
top top
clock ck period 20ns rise 0ns fall 10ns
";

const SLOW_DESIGN: &str = "\
design slow
module top
  port in a ck
  port out y
  inst u1 XOR2_X1 A=a B=a Y=w1
  inst u2 XOR2_X1 A=w1 B=a Y=w2
  inst u3 XOR2_X1 A=w2 B=w1 Y=v
  inst ff DFF D=v CK=ck Q=y
end
top top
clock ck period 1ns rise 0ns fall 500ps
";

fn write_temp(name: &str, contents: &str) -> String {
    let dir = std::env::temp_dir().join("hb_cli_tests");
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write fixture");
    path.to_string_lossy().into_owned()
}

fn run_capture(args: &[&str]) -> (u8, String) {
    let mut buf = Vec::new();
    let code = hb_cli::run(args, &mut buf).expect("driver runs");
    (code, String::from_utf8(buf).expect("utf8 output"))
}

#[test]
fn check_reports_stats() {
    let path = write_temp("check.hum", DESIGN);
    let (code, out) = run_capture(&["check", &path]);
    assert_eq!(code, 0);
    assert!(out.contains("3 cells"), "{out}");
}

#[test]
fn analyze_passing_design() {
    let path = write_temp("analyze.hum", DESIGN);
    let (code, out) = run_capture(&["analyze", &path]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("timing OK"), "{out}");
}

#[test]
fn analyze_failing_design_exits_one_and_prints_paths() {
    let path = write_temp("slow.hum", SLOW_DESIGN);
    let (code, out) = run_capture(&["analyze", &path]);
    assert_eq!(code, 1);
    assert!(out.contains("VIOLATED"), "{out}");
    assert!(out.contains("slow path into ff"), "{out}");
    assert!(out.contains("via"), "{out}");
}

#[test]
fn constraints_lists_net_budgets() {
    let path = write_temp("constraints.hum", DESIGN);
    let (code, out) = run_capture(&["constraints", &path]);
    assert_eq!(code, 0);
    assert!(out.contains("net constraints"), "{out}");
    assert!(
        out.contains(" v "),
        "the flop input net is constrained: {out}"
    );
}

#[test]
fn passes_summarizes_preprocessing() {
    let path = write_temp("passes.hum", DESIGN);
    let (code, out) = run_capture(&["passes", &path]);
    assert_eq!(code, 0);
    assert!(out.contains("global windows"), "{out}");
    assert!(out.contains("pass 0"), "{out}");
}

#[test]
fn resynth_writes_output_file() {
    let path = write_temp("resynth_in.hum", SLOW_DESIGN);
    let out_path = write_temp("resynth_out.hum", "");
    let (_, out) = run_capture(&["resynth", &path, "-o", &out_path]);
    assert!(out.contains("resynthesis: met="), "{out}");
    assert!(out.contains(&format!("wrote {out_path}")), "{out}");
    let written = fs::read_to_string(&out_path).expect("written file");
    assert!(written.contains("module top"));
}

#[test]
fn explicit_clock_port_and_edge_triggered() {
    let path = write_temp("flags.hum", DESIGN);
    let (code, out) = run_capture(&[
        "analyze",
        &path,
        "--clock-port",
        "ck=ck",
        "--edge-triggered",
        "--min-delays",
        "--paths",
        "2",
    ]);
    assert_eq!(code, 0, "{out}");
}

/// A port named like a clock, beside the port that carries it.
const CLOCK_NAMED_DATA_DESIGN: &str = "\
design portnames
module top
  port in ck clk
  port out y
  inst u1 INV_X1 A=ck Y=w1
  inst u2 XOR2_X1 A=w1 B=ck Y=w2
  inst u3 XOR2_X1 A=w2 B=w1 Y=v
  inst ff DFF D=v CK=clk Q=y
end
top top
clock ck period 1ns rise 0ns fall 500ps
";

#[test]
fn clock_port_flag_turns_the_default_clock_port_rule_off() {
    let path = write_temp("clock_named_data.hum", CLOCK_NAMED_DATA_DESIGN);
    // By default the clock binds the port carrying its name, which
    // leaves the flop's clock pin on `clk` unclocked.
    let mut buf = Vec::new();
    let err = hb_cli::run(&["analyze", &path], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 5, "{err}");
    // With `--clock-port`, `ck` stays a data input: a primary-input
    // terminal asserted at the first edge, launching the slow path.
    let (code, out) = run_capture(&["analyze", &path, "--clock-port", "clk=ck"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("slow path into ff"), "{out}");
    assert!(out.contains("    from ck at 0ns\n"), "{out}");
}

#[test]
fn arrive_offsets_shift_slack() {
    let path = write_temp("arrive.hum", DESIGN);
    let (_, relaxed) = run_capture(&["analyze", &path, "--arrive", "a=0ps"]);
    let (_, squeezed) = run_capture(&["analyze", &path, "--arrive", "a=21ns"]);
    let slack = |s: &str| {
        s.lines()
            .next()
            .and_then(|l| l.split("worst slack ").nth(1))
            .map(|l| l.split(' ').next().unwrap_or("").to_owned())
            .unwrap_or_default()
    };
    assert_ne!(slack(&relaxed), slack(&squeezed));
    assert!(squeezed.contains("VIOLATED"), "{squeezed}");
}

const TIMED_DESIGN: &str = "\
design timed
module top
  port in a ck
  port out y
  inst u1 INV_X1 A=a Y=w
  inst ff DFF D=w CK=ck Q=y
end
top top
clock ck period 4ns rise 0ns fall 2ns
clockport ck ck
arrive a ck rise 1ns
require y ck rise 0ps
";

#[test]
fn file_directives_drive_the_analysis() {
    let path = write_temp("timed.hum", TIMED_DESIGN);
    let (code, out) = run_capture(&["analyze", &path]);
    assert_eq!(code, 0, "{out}");
    // CLI overrides beat the file: a late arrival breaks it.
    let (code, out) = run_capture(&["analyze", &path, "--arrive", "a=5ns"]);
    assert_eq!(code, 1, "{out}");
}

#[test]
fn sweep_shows_the_feasibility_boundary() {
    let path = write_temp("sweep.hum", TIMED_DESIGN);
    let (code, out) = run_capture(&["sweep", &path, "--scales", "25,50,100,400"]);
    // Worst point wins: the sweep crosses the boundary, so at least
    // one scale is infeasible and the whole run exits 1.
    assert_eq!(code, 1);
    assert!(out.contains("25%"), "{out}");
    assert!(out.contains("400%"), "{out}");
    let yes = out.matches(" yes").count();
    let no = out.matches(" no").count();
    assert!(yes >= 1 && no >= 1, "boundary visible in:\n{out}");
    // Verdicts are monotone down the scale column.
    let verdicts: Vec<bool> = out
        .lines()
        .skip(1)
        .filter_map(|l| {
            if l.ends_with("yes") {
                Some(true)
            } else if l.ends_with("no") {
                Some(false)
            } else {
                None
            }
        })
        .collect();
    for pair in verdicts.windows(2) {
        assert!(!pair[0] || pair[1], "monotone: {out}");
    }
}

#[test]
fn sweep_exits_zero_when_every_scale_is_feasible() {
    let path = write_temp("sweep_easy.hum", TIMED_DESIGN);
    let (code, out) = run_capture(&["sweep", &path, "--scales", "100,200,400"]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(out.matches(" yes").count(), 3, "{out}");
}

/// A 1250 ps clock scaled by 33% is 412.5 ps; the old truncating
/// arithmetic printed 0.412ns, the rational rule rounds half up.
const FINE_DESIGN: &str = "\
design fine
module top
  port in a ck
  port out y
  inst u1 INV_X1 A=a Y=w
  inst ff DFF D=w CK=ck Q=y
end
top top
clock ck period 1250ps rise 0ps fall 625ps
";

#[test]
fn scaling_rounds_half_up_instead_of_truncating() {
    let path = write_temp("fine.hum", FINE_DESIGN);
    let (_, out) = run_capture(&["sweep", &path, "--scales", "33"]);
    assert!(out.contains("0.413ns"), "rounded, not truncated:\n{out}");
    assert!(!out.contains("0.412ns"), "{out}");
}

/// Clocks at 1250 ps and 3750 ps hold an exact 1:3 ratio. At 33% the
/// rounded periods are 413 ps and 1238 ps — no longer 1:3 — so the
/// scale must refuse rather than silently analyze a detuned pair.
const DUO_DESIGN: &str = "\
design duo
module top
  port in a ck1 ck2
  port out y
  inst u1 INV_X1 A=a Y=w
  inst f1 DFF D=w CK=ck1 Q=v
  inst f2 DFF D=v CK=ck2 Q=y
end
top top
clock ck1 period 1250ps rise 0ps fall 625ps
clock ck2 period 3750ps rise 0ps fall 1875ps
clockport ck1 ck1
clockport ck2 ck2
";

#[test]
fn scaling_that_cannot_preserve_harmonics_errors_cleanly() {
    let path = write_temp("duo.hum", DUO_DESIGN);
    // Scales that keep the ratio exact sweep normally...
    let mut buf = Vec::new();
    hb_cli::run(&["sweep", &path, "--scales", "100,200"], &mut buf).expect("exact scales sweep");
    // ...but one that cannot is an analysis refusal, exit 5.
    let err = hb_cli::run(&["sweep", &path, "--scales", "33"], &mut buf).unwrap_err();
    assert_eq!(
        (err.kind(), err.exit_code()),
        (hb_cli::ErrorKind::Analysis, 5)
    );
    assert!(err.to_string().contains("harmonic"), "{err}");
}

#[test]
fn analyze_min_period_reports_the_boundary() {
    let path = write_temp("minperiod.hum", TIMED_DESIGN);
    let (code, out) = run_capture(&["analyze", &path, "--min-period"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("parametric table:"), "{out}");
    assert!(out.contains("min feasible period:"), "{out}");
    assert!(out.contains("(nominal 4ns)"), "{out}");
}

#[test]
fn passes_renders_waveforms() {
    let path = write_temp("waves.hum", TIMED_DESIGN);
    let (code, out) = run_capture(&["passes", &path]);
    assert_eq!(code, 0);
    assert!(out.contains('▔'), "{out}");
    assert!(out.contains("window starts"), "{out}");
}

#[test]
fn exit_codes_distinguish_failure_classes() {
    let mut buf = Vec::new();
    // Timing verdicts are return values, not errors.
    let pass = write_temp("codes_pass.hum", DESIGN);
    assert_eq!(run_capture(&["analyze", &pass]).0, 0);
    let fail = write_temp("codes_fail.hum", SLOW_DESIGN);
    assert_eq!(run_capture(&["analyze", &fail]).0, 1);
    // Usage mistakes: exit 2.
    let err = hb_cli::run(&[], &mut buf).unwrap_err();
    assert_eq!((err.kind(), err.exit_code()), (hb_cli::ErrorKind::Usage, 2));
    let err = hb_cli::run(&["analyze", &pass, "--paths", "NaN"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    // Unreadable input: exit 3.
    let err = hb_cli::run(&["analyze", "/nonexistent/x.hum"], &mut buf).unwrap_err();
    assert_eq!((err.kind(), err.exit_code()), (hb_cli::ErrorKind::Io, 3));
    // Parse failure: exit 4, distinct from both.
    let garbage = write_temp(
        "codes_garbage.hum",
        "design broken\nmodule top\n  inst ???\n",
    );
    let err = hb_cli::run(&["analyze", &garbage], &mut buf).unwrap_err();
    assert_eq!((err.kind(), err.exit_code()), (hb_cli::ErrorKind::Parse, 4));
    // Analyzable-but-refused (no clocks declared): exit 5.
    let unclocked = write_temp(
        "codes_unclocked.hum",
        "design unclocked\nmodule top\n  port in a\n  port out y\n  inst u1 INV_X1 A=a Y=y\nend\ntop top\n",
    );
    let err = hb_cli::run(&["analyze", &unclocked], &mut buf).unwrap_err();
    assert_eq!(
        (err.kind(), err.exit_code()),
        (hb_cli::ErrorKind::Analysis, 5)
    );
}

/// Captures the `listening on ADDR` announcement so the test can
/// connect to a daemon serving an ephemeral port on another thread.
struct Announce {
    sent: Option<std::sync::mpsc::Sender<String>>,
    line: String,
}

impl std::io::Write for Announce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.line.push_str(&String::from_utf8_lossy(buf));
        // One writeln! may arrive as several writes; wait for the
        // complete line before scraping the address out of it.
        if self.line.contains('\n') {
            if let Some(rest) = self.line.strip_prefix("listening on ") {
                if let Some(addr) = rest.split_whitespace().next() {
                    if let Some(sent) = self.sent.take() {
                        let _ = sent.send(addr.to_owned());
                    }
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn serve_and_query_round_trip() {
    let (sent, announced) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let mut out = Announce {
            sent: Some(sent),
            line: String::new(),
        };
        hb_cli::run(&["serve", "--listen", "127.0.0.1:0"], &mut out).expect("serve runs")
    });
    let addr = announced
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("serve announces its port");

    let path = write_temp("served.hum", DESIGN);
    let (code, out) = run_capture(&["query", &addr, "load", &path]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run_capture(&["query", &addr, "analyze"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("timing OK"), "{out}");
    let (code, out) = run_capture(&["query", &addr, "eco", "resize", "u1"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("desc=u1:INV_X1->INV_X2"), "{out}");
    let (code, out) = run_capture(&["query", &addr, "slack", "v"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("kind=net"), "{out}");
    // A refused request surfaces as an Analysis error, exit 5.
    let mut buf = Vec::new();
    let err = hb_cli::run(&["query", &addr, "slack", "nosuch"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 5);
    let (code, _) = run_capture(&["query", &addr, "shutdown"]);
    assert_eq!(code, 0);
    assert_eq!(server.join().unwrap(), 0);
}

#[test]
fn daemon_what_if_verbs_round_trip() {
    let (sent, announced) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let mut out = Announce {
            sent: Some(sent),
            line: String::new(),
        };
        hb_cli::run(&["serve", "--listen", "127.0.0.1:0"], &mut out).expect("serve runs")
    });
    let addr = announced
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("serve announces its port");

    let path = write_temp("whatif_served.hum", TIMED_DESIGN);
    let (code, out) = run_capture(&["query", &addr, "load", &path]);
    assert_eq!(code, 0, "{out}");

    // min-period: answered from the symbolic table, no numeric search.
    let (code, out) = run_capture(&["query", &addr, "min-period"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("feasible=1"), "{out}");
    assert!(out.contains("period="), "{out}");
    assert!(out.contains("regions="), "{out}");
    assert!(out.contains("nominal=4ns"), "{out}");

    // slack-at: O(1) whole-design verdict at an arbitrary grid period.
    let (code, out) = run_capture(&["query", &addr, "slack-at", "period=4ns"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("worst="), "{out}");
    assert!(out.contains("ok=1"), "{out}");

    // slack-at with a net node and with a terminal node.
    let (code, out) = run_capture(&["query", &addr, "slack-at", "period=4ns", "node=w"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("kind=net"), "{out}");
    let (code, out) = run_capture(&["query", &addr, "slack-at", "period=4ns", "node=ff"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("kind=terminal"), "{out}");
    assert!(out.contains("pulse"), "{out}");

    // Off-grid periods are a refusal, not a silent snap.
    let mut buf = Vec::new();
    let err = hb_cli::run(&["query", &addr, "slack-at", "period=3ps"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 5);

    // period-sweep: one frame, one line per distinct grid period.
    let (code, out) = run_capture(&[
        "query",
        &addr,
        "period-sweep",
        "lo=4ns",
        "hi=8ns",
        "step=1ns",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("count=5"), "{out}");
    assert!(out.contains("period 4ns"), "{out}");

    let (code, _) = run_capture(&["query", &addr, "shutdown"]);
    assert_eq!(code, 0);
    assert_eq!(server.join().unwrap(), 0);
}

#[test]
fn reactor_serve_pipeline_and_batched_slack() {
    let (sent, announced) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let mut out = Announce {
            sent: Some(sent),
            line: String::new(),
        };
        hb_cli::run(&["serve", "--listen", "127.0.0.1:0"], &mut out).expect("reactor serves")
    });
    let addr = announced
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("serve announces its port");

    let path = write_temp("reactor_served.hum", DESIGN);
    let (code, out) = run_capture(&["query", &addr, "load", &path]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run_capture(&["query", &addr, "analyze"]);
    assert_eq!(code, 0, "{out}");

    // Batched slack: several nodes, one request, one worst= summary.
    let (code, out) = run_capture(&["query", &addr, "slack", "w", "v", "y"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("count=3"), "{out}");
    assert!(out.contains("worst="), "{out}");
    assert!(out.contains("w net "), "{out}");

    // Pipelined file mode: N requests, one connection, replies in
    // order; a bad node makes the whole run exit nonzero.
    let reqs = write_temp(
        "reactor_reqs.txt",
        "# pipelined transcript\nslack w\nslack v\nworst-paths 2\nstats\n",
    );
    let (code, out) = run_capture(&["query", &addr, "--pipeline", &reqs]);
    assert_eq!(code, 0, "{out}");
    assert!(out.matches("ok").count() >= 4, "{out}");
    let bad = write_temp("reactor_bad_reqs.txt", "slack w\nslack nosuch\n");
    let (code, out) = run_capture(&["query", &addr, "--pipeline", &bad]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("error code=unknown-node"), "{out}");

    let (code, _) = run_capture(&["query", &addr, "shutdown"]);
    assert_eq!(code, 0);
    assert_eq!(server.join().unwrap(), 0);
}

#[test]
fn fleet_query_routing_and_flow_driver() {
    let (sent, announced) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let mut out = Announce {
            sent: Some(sent),
            line: String::new(),
        };
        hb_cli::run(
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--max-designs",
                "8",
                "--mem-budget",
                "8000000",
            ],
            &mut out,
        )
        .expect("fleet serve runs")
    });
    let addr = announced
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("serve announces its port");
    let path = write_temp("fleet_served.hum", DESIGN);

    // open / per-design routing / designs listing round trip.
    let (code, out) = run_capture(&["query", &addr, "open", "d1"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("created=1"), "{out}");
    let (code, out) = run_capture(&["query", &addr, "--design", "d1", "load", &path]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run_capture(&[
        "query",
        &addr,
        "--design",
        "d1",
        "--timeout",
        "10000",
        "analyze",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("timing OK"), "{out}");
    let (code, out) = run_capture(&["query", &addr, "designs"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("d1 resident=1"), "{out}");

    // The exit-code table, fleet row: a request routed to a design
    // nobody opened is a daemon refusal — exit 5, like other refusals.
    let mut buf = Vec::new();
    let err = hb_cli::run(&["query", &addr, "--design", "ghost", "analyze"], &mut buf).unwrap_err();
    assert_eq!(
        (err.kind(), err.exit_code()),
        (hb_cli::ErrorKind::Analysis, 5)
    );
    // An unreachable daemon under --timeout is exit 3 (io), not a hang.
    let err = hb_cli::run(
        &["query", "127.0.0.1:1", "--timeout", "200", "hello"],
        &mut buf,
    )
    .unwrap_err();
    assert_eq!((err.kind(), err.exit_code()), (hb_cli::ErrorKind::Io, 3));
    // Flag typos stay exit 2.
    let err = hb_cli::run(&["query", &addr, "--design"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    let err = hb_cli::run(&["query", &addr, "--timeout", "soon", "hello"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 2);

    // close: the design goes away, further routing refuses.
    let (code, out) = run_capture(&["query", &addr, "close", "d1"]);
    assert_eq!(code, 0, "{out}");
    let err = hb_cli::run(&["query", &addr, "--design", "d1", "stats"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 5);

    // The flow driver: three concurrent design flows, reports printed
    // in design order regardless of the two-job interleaving.
    let (code, out) = run_capture(&[
        "flow",
        &addr,
        &path,
        "--designs",
        "3",
        "--ecos",
        "2",
        "--jobs",
        "2",
    ]);
    assert_eq!(code, 0, "{out}");
    let i0 = out.find("== flow0:").expect("flow0 bundle");
    let i1 = out.find("== flow1:").expect("flow1 bundle");
    let i2 = out.find("== flow2:").expect("flow2 bundle");
    assert!(i0 < i1 && i1 < i2, "bundles out of order:\n{out}");
    assert_eq!(out.matches("worst paths:").count(), 3, "{out}");
    let (code, out) = run_capture(&["query", &addr, "designs"]);
    assert_eq!(code, 0);
    assert!(out.contains("flow2"), "{out}");

    let (code, _) = run_capture(&["query", &addr, "shutdown"]);
    assert_eq!(code, 0);
    assert_eq!(server.join().unwrap(), 0);
}

#[test]
fn serve_stdio_round_trip_via_subprocess_free_path() {
    // `--stdio` is exercised through hb_server::serve_stream in its own
    // crate; here just check the flag parses and rejects junk.
    let mut buf = Vec::new();
    let err = hb_cli::run(&["serve", "--port", "99"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    let err = hb_cli::run(&["query"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    let err = hb_cli::run(&["query", "127.0.0.1:1", "teleport"], &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn custom_library_via_flag() {
    // A minimal library whose inverter is wildly slow: the same design
    // that passes with sc89 must fail with it.
    let lib_text = "\
library sluggish
wireload 2 3
cell INV_X1 family INV drive 1 area 2
  pin A in cap 4
  pin Y out
  arc A Y negative intrinsic 30000 30000 slope 6 5 minscale 50
cell NAND2_X1 family NAND2 drive 1 area 3
  pin A in cap 5
  pin B in cap 5
  pin Y out
  arc A Y negative intrinsic 90 65 slope 8 6 minscale 50
  arc B Y negative intrinsic 90 65 slope 8 6 minscale 50
cell DFF family DFF drive 1 area 10
  pin D in cap 5
  pin CK in cap 3
  pin Q out
  sync trailing data D control CK out Q setup 300 hold 100 dcx 450 ddx 0 sense neg outslope 7 7
";
    let lib_path = write_temp("sluggish.lib", lib_text);
    let design_path = write_temp("custom_lib.hum", DESIGN);
    let (code, out) = run_capture(&["analyze", &design_path]);
    assert_eq!(code, 0, "sc89 passes: {out}");
    let (code, out) = run_capture(&["analyze", &design_path, "--library", &lib_path]);
    assert_eq!(code, 1, "a 30 ns inverter misses 20 ns: {out}");
}
