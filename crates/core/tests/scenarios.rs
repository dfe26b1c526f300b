//! End-to-end analyzer scenarios with hand-checkable arithmetic.

mod common;

use common::{exact_lib, Builder};
use hb_clock::ClockSet;
use hb_units::{Time, Transition};
use hummingbird::{AnalysisOptions, Analyzer, EdgeSpec, LatchModel, Spec, TerminalKind};

/// `in -> DEL(d) -> FF(ck) -> out`, 10 ns clock. The flip-flop captures
/// on the rising edge; the input is asserted at the rising edge, so the
/// path budget is exactly one period.
fn ff_pipeline(delay_ns: i64) -> (Builder, ClockSet, Spec) {
    let lib = exact_lib(&[delay_ns]);
    let mut b = Builder::new(&lib);
    let input = b.input("in");
    let ck = b.input("ck");
    let q = b.output("q");
    let d = b.net("d");
    b.delay_chain(input, d, &[delay_ns]);
    b.inst("FF", &[("D", d), ("C", ck), ("Q", q)]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("ck", Time::from_ns(10), Time::ZERO, Time::from_ns(5))
        .unwrap();
    let spec = Spec::new().clock_port("ck", "ck").input_arrival(
        "in",
        EdgeSpec::new("ck", Transition::Rise),
        Time::ZERO,
    );
    (b, clocks, spec)
}

#[test]
fn ff_pipeline_meets_timing() {
    let (b, clocks, spec) = ff_pipeline(6);
    let lib = exact_lib(&[6]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    assert!(report.ok(), "6 ns through a 10 ns budget: {report}");
    // Slack is exactly 10 − 6 = 4 ns at the capture flop.
    let ff_in = report
        .terminal_slacks()
        .iter()
        .find(|t| t.kind == TerminalKind::SyncInput)
        .expect("one sync input");
    assert_eq!(ff_in.slack, Time::from_ns(4));
    assert!(report.slow_paths().is_empty());
    assert_eq!(report.overall_period(), Time::from_ns(10));
}

#[test]
fn ff_pipeline_violates_and_reports_path() {
    let (mut b, clocks, spec) = ff_pipeline(11);
    let lib = exact_lib(&[11]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    assert!(!report.ok());
    assert_eq!(report.worst_slack(), Time::from_ns(-1), "10 − 11 = −1 ns");
    let path = &report.slow_paths()[0];
    assert_eq!(path.slack, Time::from_ns(-1));
    assert!(path.endpoint.contains("ff"), "endpoint is the capture flop");
    assert!(path.steps.len() >= 2, "origin plus the delay cell");
    assert_eq!(path.steps.first().unwrap().net, "in");
    assert_eq!(path.steps.last().unwrap().net, "d");
    // OCT-style flagging.
    assert!(!report.slow_nets().is_empty());
    report.annotate(&mut b.design);
    let module = b.design.module(b.module);
    let d = module.net_by_name("d").unwrap();
    assert_eq!(module.net(d).attr("hb.slow"), Some("1"));
}

/// Two-phase borrowing: `in --70ns--> LAT(phi2: high 50..90) --25ns--> FF
/// (phi1 rising, captures at 100)`. A trailing-edge latch model fails
/// (90 + 25 > 100); the transparent model borrows through the latch
/// window and passes (needs assertion in [70, 75] ⊂ [50, 90]).
fn borrowing() -> (Builder, ClockSet, Spec) {
    let lib = exact_lib(&[70, 25]);
    let mut b = Builder::new(&lib);
    let input = b.input("in");
    let phi1 = b.input("phi1");
    let phi2 = b.input("phi2");
    let q = b.output("q");
    let mid = b.net("mid");
    let lat_q = b.net("lat_q");
    let ff_d = b.net("ff_d");
    b.delay_chain(input, mid, &[70]);
    b.inst("LAT", &[("D", mid), ("C", phi2), ("Q", lat_q)]);
    b.delay_chain(lat_q, ff_d, &[25]);
    b.inst("FF", &[("D", ff_d), ("C", phi1), ("Q", q)]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("phi1", Time::from_ns(100), Time::ZERO, Time::from_ns(40))
        .unwrap();
    clocks
        .add_clock(
            "phi2",
            Time::from_ns(100),
            Time::from_ns(50),
            Time::from_ns(90),
        )
        .unwrap();
    let spec = Spec::new()
        .clock_port("phi1", "phi1")
        .clock_port("phi2", "phi2")
        .input_arrival("in", EdgeSpec::new("phi1", Transition::Rise), Time::ZERO);
    (b, clocks, spec)
}

#[test]
fn transparent_latch_borrows_time() {
    let (b, clocks, spec) = borrowing();
    let lib = exact_lib(&[70, 25]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    assert!(
        report.ok(),
        "the transparent model must borrow through the latch: {report}"
    );
    // Borrowing requires actual slack transfer, not just the initial
    // offsets.
    let stats = report.algorithm1_stats();
    assert!(
        stats.forward_cycles + stats.backward_cycles > 0,
        "expected at least one complete transfer cycle: {stats:?}"
    );
}

#[test]
fn edge_triggered_baseline_is_pessimistic_here() {
    let (b, clocks, spec) = borrowing();
    let lib = exact_lib(&[70, 25]);
    let options = AnalysisOptions {
        latch_model: LatchModel::EdgeTriggered,
        ..AnalysisOptions::default()
    };
    let a = Analyzer::with_options(&b.design, b.module, &lib, &clocks, spec, options).unwrap();
    let report = a.analyze();
    assert!(!report.ok(), "McWilliams-style model cannot borrow");
    // 90 (trailing-edge assertion) + 25 − 100 = 15 ns violation.
    assert_eq!(report.worst_slack(), Time::from_ns(-15));
}

#[test]
fn borrowing_fails_when_total_exceeds_budget() {
    // 80 + 40 = 120 > 100: infeasible for any latch position.
    let lib = exact_lib(&[80, 40]);
    let mut b = Builder::new(&lib);
    let input = b.input("in");
    let phi1 = b.input("phi1");
    let phi2 = b.input("phi2");
    let q = b.output("q");
    let mid = b.net("mid");
    let lat_q = b.net("lat_q");
    let ff_d = b.net("ff_d");
    b.delay_chain(input, mid, &[80]);
    b.inst("LAT", &[("D", mid), ("C", phi2), ("Q", lat_q)]);
    b.delay_chain(lat_q, ff_d, &[40]);
    b.inst("FF", &[("D", ff_d), ("C", phi1), ("Q", q)]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("phi1", Time::from_ns(100), Time::ZERO, Time::from_ns(40))
        .unwrap();
    clocks
        .add_clock(
            "phi2",
            Time::from_ns(100),
            Time::from_ns(50),
            Time::from_ns(90),
        )
        .unwrap();
    let spec = Spec::new()
        .clock_port("phi1", "phi1")
        .clock_port("phi2", "phi2")
        .input_arrival("in", EdgeSpec::new("phi1", Transition::Rise), Time::ZERO);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    assert!(!report.ok());
    // Both the latch and the flop paths are implicated (proposition in
    // Section 4: both paths are too slow).
    let slow_inputs: Vec<&str> = report
        .terminal_slacks()
        .iter()
        .filter(|t| t.kind == TerminalKind::SyncInput && t.slack <= Time::ZERO)
        .map(|t| t.name.as_str())
        .collect();
    assert_eq!(
        slow_inputs.len(),
        2,
        "latch and flop inputs: {slow_inputs:?}"
    );
}

/// The Figure 1 configuration: a gate fed by latches on phases 1 and 3,
/// feeding latches on phases 2 and 4 — time-multiplexed within the
/// period, so its cluster needs two analysis passes.
#[test]
fn figure1_needs_two_passes() {
    let lib = exact_lib(&[2]);
    let mut b = Builder::new(&lib);
    let mut clocks = ClockSet::new();
    let mut clk_nets = Vec::new();
    for i in 0..4 {
        let name = format!("p{}", i + 1);
        let start = Time::from_ns(25 * i);
        clocks
            .add_clock(&name, Time::from_ns(100), start, start + Time::from_ns(10))
            .unwrap();
        clk_nets.push(b.input(&name));
    }
    let a_in = b.input("a");
    let c_in = b.input("c");
    let l1q = b.net("l1q");
    let l3q = b.net("l3q");
    let gate_out = b.net("gate_out");
    let joined = b.net("joined");
    b.inst("LAT", &[("D", a_in), ("C", clk_nets[0]), ("Q", l1q)]);
    b.inst("LAT", &[("D", c_in), ("C", clk_nets[2]), ("Q", l3q)]);
    b.inst("JOIN2", &[("A", l1q), ("B", l3q), ("Y", joined)]);
    b.delay_chain(joined, gate_out, &[2]);
    let q2 = b.output("q2");
    let q4 = b.output("q4");
    b.inst("LAT", &[("D", gate_out), ("C", clk_nets[1]), ("Q", q2)]);
    b.inst("LAT", &[("D", gate_out), ("C", clk_nets[3]), ("Q", q4)]);

    let mut spec = Spec::new();
    for i in 0..4 {
        let name = format!("p{}", i + 1);
        spec = spec.clock_port(&name, &name);
    }
    spec = spec
        .input_arrival("a", EdgeSpec::new("p1", Transition::Rise), Time::ZERO)
        .input_arrival("c", EdgeSpec::new("p3", Transition::Rise), Time::ZERO);

    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let stats = a.prep_stats();
    assert_eq!(
        stats.max_cluster_passes, 2,
        "the time-multiplexed cluster needs exactly two settling times: {stats:?}"
    );
    let report = a.analyze();
    assert!(report.ok(), "3 ns of logic fits either phase gap: {report}");
}

/// An element clocked at 4× the overall rate is replicated once per
/// pulse, and the binding constraint is the *next* closure.
#[test]
fn multirate_capture_uses_next_pulse() {
    for (delay, expect_ok) in [(3i64, true), (7, false)] {
        let lib = exact_lib(&[delay]);
        let mut b = Builder::new(&lib);
        let input = b.input("in");
        let slow_ck = b.input("slow");
        let fast_ck = b.input("fast");
        let q = b.output("q");
        let launch_q = b.net("launch_q");
        let ff_d = b.net("ff_d");
        b.inst("FF", &[("D", input), ("C", slow_ck), ("Q", launch_q)]);
        b.delay_chain(launch_q, ff_d, &[delay]);
        b.inst("FF", &[("D", ff_d), ("C", fast_ck), ("Q", q)]);
        let mut clocks = ClockSet::new();
        clocks
            .add_clock("slow", Time::from_ns(100), Time::ZERO, Time::from_ns(50))
            .unwrap();
        // Fast rises at 5, 30, 55, 80.
        clocks
            .add_clock(
                "fast",
                Time::from_ns(25),
                Time::from_ns(5),
                Time::from_ns(15),
            )
            .unwrap();
        let spec = Spec::new()
            .clock_port("slow", "slow")
            .clock_port("fast", "fast")
            .input_arrival("in", EdgeSpec::new("slow", Transition::Rise), Time::ZERO);
        let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
        // 1 slow replica + 4 fast replicas.
        assert_eq!(a.replica_count(), 5);
        let report = a.analyze();
        assert_eq!(
            report.ok(),
            expect_ok,
            "launch at 0, next fast capture at 5, delay {delay}: {report}"
        );
        if !expect_ok {
            assert_eq!(report.worst_slack(), Time::from_ns(-2), "5 − 7 = −2");
        }
    }
}

/// A directed cycle through two transparent latches (the paper notes
/// "too slow" can apply to such cycles).
fn latch_loop(d_ab: i64, d_ba: i64) -> (Builder, ClockSet, Spec) {
    let lib = exact_lib(&[d_ab, d_ba]);
    let mut b = Builder::new(&lib);
    let phi_a = b.input("phiA");
    let phi_b = b.input("phiB");
    let aq = b.net("aq");
    let bd = b.net("bd");
    let bq = b.net("bq");
    let ad = b.net("ad");
    b.inst("LAT", &[("D", ad), ("C", phi_a), ("Q", aq)]);
    b.delay_chain(aq, bd, &[d_ab]);
    b.inst("LAT", &[("D", bd), ("C", phi_b), ("Q", bq)]);
    b.delay_chain(bq, ad, &[d_ba]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("phiA", Time::from_ns(100), Time::ZERO, Time::from_ns(40))
        .unwrap();
    clocks
        .add_clock(
            "phiB",
            Time::from_ns(100),
            Time::from_ns(50),
            Time::from_ns(90),
        )
        .unwrap();
    let spec = Spec::new()
        .clock_port("phiA", "phiA")
        .clock_port("phiB", "phiB");
    (b, clocks, spec)
}

#[test]
fn latch_loop_feasible() {
    let (b, clocks, spec) = latch_loop(60, 30);
    let lib = exact_lib(&[60, 30]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    assert!(report.ok(), "60 + 30 < 100 with feasible windows: {report}");
}

#[test]
fn latch_loop_too_slow_implicates_both() {
    let (b, clocks, spec) = latch_loop(80, 40);
    let lib = exact_lib(&[80, 40]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    assert!(!report.ok(), "80 + 40 > 100: the loop cannot settle");
    let slow: Vec<&str> = report
        .terminal_slacks()
        .iter()
        .filter(|t| t.slack <= Time::ZERO)
        .map(|t| t.name.as_str())
        .collect();
    assert!(slow.len() >= 2, "both latches implicated: {slow:?}");
}

#[test]
fn constraints_bound_ready_before_required() {
    let (b, clocks, spec) = borrowing();
    let lib = exact_lib(&[70, 25]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.generate_constraints();
    assert!(report.ok());
    assert!(report.algorithm2_stats().is_some());
    let constraints = report.constraints().expect("generated");
    let module = b.design.module(b.module);
    for name in ["mid", "ff_d", "in", "lat_q"] {
        let net = module.net_by_name(name).unwrap();
        let ready = constraints.ready_at(net);
        let required = constraints.required_at(net);
        let slack = constraints.net_slack(net);
        assert!(ready.is_some(), "net {name} must have a ready time");
        assert!(required.is_some(), "net {name} must have a required time");
        assert!(
            slack.unwrap() >= Time::ZERO,
            "fast-enough design: ready precedes required at {name} ({:?} vs {:?})",
            ready,
            required
        );
    }
}

#[test]
fn constraints_settle_actual_times_on_slow_paths() {
    let (b, clocks, spec) = latch_loop(80, 40);
    let lib = exact_lib(&[80, 40]);
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.generate_constraints();
    assert!(!report.ok());
    let constraints = report.constraints().expect("generated");
    let module = b.design.module(b.module);
    let bd = module.net_by_name("bd").unwrap();
    let slack = constraints.net_slack(bd).expect("constrained net");
    assert!(
        slack < Time::ZERO,
        "slow net keeps a negative budget: {slack}"
    );
}

#[test]
fn min_delay_skew_race_detected() {
    // FF1 and FF2 on the same clock; FF2's clock arrives 5 ns late
    // (through DEL5), the data path is a fast DEL3 (min delay 1.5 ns):
    // a classic skew race.
    for (skew_ns, expect_violation) in [(5i64, true), (0, false)] {
        let lib = exact_lib(&[3, 5]);
        let mut b = Builder::new(&lib);
        let input = b.input("in");
        let ck = b.input("ck");
        let q = b.output("q");
        let q1 = b.net("q1");
        let d2 = b.net("d2");
        b.inst("FF", &[("D", input), ("C", ck), ("Q", q1)]);
        b.delay_chain(q1, d2, &[3]);
        let ck2 = if skew_ns > 0 {
            let ck2 = b.net("ck2");
            b.delay_chain(ck, ck2, &[skew_ns]);
            ck2
        } else {
            ck
        };
        b.inst("FF", &[("D", d2), ("C", ck2), ("Q", q)]);
        let mut clocks = ClockSet::new();
        clocks
            .add_clock("ck", Time::from_ns(50), Time::ZERO, Time::from_ns(25))
            .unwrap();
        let spec = Spec::new().clock_port("ck", "ck").input_arrival(
            "in",
            EdgeSpec::new("ck", Transition::Rise),
            Time::from_ns(1),
        );
        let options = AnalysisOptions {
            check_min_delays: true,
            ..AnalysisOptions::default()
        };
        let a = Analyzer::with_options(&b.design, b.module, &lib, &clocks, spec, options).unwrap();
        let report = a.analyze();
        assert!(report.ok(), "max-delay constraints are easy here");
        assert_eq!(
            !report.min_delay_violations().is_empty(),
            expect_violation,
            "skew {skew_ns}: {:?}",
            report.min_delay_violations()
        );
    }
}

#[test]
fn widening_the_clock_fixes_violations_monotonically() {
    let mut was_ok = false;
    for period_ns in [8i64, 10, 12, 16] {
        let lib = exact_lib(&[9]);
        let mut b = Builder::new(&lib);
        let input = b.input("in");
        let ck = b.input("ck");
        let q = b.output("q");
        let d = b.net("d");
        b.delay_chain(input, d, &[9]);
        b.inst("FF", &[("D", d), ("C", ck), ("Q", q)]);
        let mut clocks = ClockSet::new();
        clocks
            .add_clock(
                "ck",
                Time::from_ns(period_ns),
                Time::ZERO,
                Time::from_ns(period_ns / 2),
            )
            .unwrap();
        let spec = Spec::new().clock_port("ck", "ck").input_arrival(
            "in",
            EdgeSpec::new("ck", Transition::Rise),
            Time::ZERO,
        );
        let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
        let ok = a.analyze().ok();
        assert!(
            !was_ok || ok,
            "once fast enough, a slower clock stays fast (period {period_ns})"
        );
        was_ok |= ok;
    }
    assert!(was_ok, "16 ns must be enough for 9 ns of logic");
}

#[test]
fn structural_assumption_errors() {
    use hummingbird::AnalyzeError;
    // Unclocked control: latch control tied to a data input.
    let lib = exact_lib(&[1]);
    let mut b = Builder::new(&lib);
    let input = b.input("in");
    let fake_ck = b.input("fake");
    let q = b.output("q");
    b.inst("FF", &[("D", input), ("C", fake_ck), ("Q", q)]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("ck", Time::from_ns(10), Time::ZERO, Time::from_ns(5))
        .unwrap();
    // "fake" is not declared as a clock port.
    let spec = Spec::new();
    let err = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap_err();
    assert!(
        matches!(err, AnalyzeError::UnclockedControl { .. }),
        "{err}"
    );

    // Unknown clock port in the spec.
    let spec = Spec::new().clock_port("nonexistent", "ck");
    let err = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap_err();
    assert!(matches!(err, AnalyzeError::UnknownPort { .. }), "{err}");

    // Empty clock set.
    let spec = Spec::new().clock_port("fake", "ck");
    let err = Analyzer::new(&b.design, b.module, &lib, &ClockSet::new(), spec).unwrap_err();
    assert!(matches!(err, AnalyzeError::NoClocks), "{err}");
}

#[test]
fn enable_path_rejected() {
    use hummingbird::AnalyzeError;
    let lib = exact_lib(&[1]);
    let mut b = Builder::new(&lib);
    let input = b.input("in");
    let ck = b.input("ck");
    let q1 = b.net("q1");
    let gated = b.net("gated");
    let q = b.output("q");
    b.inst("FF", &[("D", input), ("C", ck), ("Q", q1)]);
    // q1 gates the clock of the second flop: an enable path.
    b.inst("JOIN2", &[("A", ck), ("B", q1), ("Y", gated)]);
    b.inst("FF", &[("D", input), ("C", gated), ("Q", q)]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("ck", Time::from_ns(10), Time::ZERO, Time::from_ns(5))
        .unwrap();
    let spec = Spec::new().clock_port("ck", "ck").input_arrival(
        "in",
        EdgeSpec::new("ck", Transition::Rise),
        Time::ZERO,
    );
    let err = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap_err();
    assert!(matches!(err, AnalyzeError::EnablePath { .. }), "{err}");
}

#[test]
fn clock_skew_tightens_paths() {
    // The capture flop's control path delay floors its output assertion
    // but does not relax its closure (the simplified model keeps the
    // closure lower bound): a launch-side skew eats into the next
    // stage's budget.
    let lib = exact_lib(&[4, 8]);
    let mut b = Builder::new(&lib);
    let input = b.input("in");
    let ck = b.input("ck");
    let ck_late = b.net("ck_late");
    let q1 = b.net("q1");
    let d2 = b.net("d2");
    let q = b.output("q");
    b.delay_chain(ck, ck_late, &[4]);
    b.inst("FF", &[("D", input), ("C", ck_late), ("Q", q1)]);
    b.delay_chain(q1, d2, &[8]);
    b.inst("FF", &[("D", d2), ("C", ck), ("Q", q)]);
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("ck", Time::from_ns(10), Time::ZERO, Time::from_ns(5))
        .unwrap();
    let spec = Spec::new().clock_port("ck", "ck").input_arrival(
        "in",
        EdgeSpec::new("ck", Transition::Rise),
        Time::ZERO,
    );
    let a = Analyzer::new(&b.design, b.module, &lib, &clocks, spec).unwrap();
    let report = a.analyze();
    // Launch asserts at 4 (skew) and the capture closes at 10:
    // 4 + 8 = 12 > 10 → −2 ns.
    assert!(!report.ok());
    assert_eq!(report.worst_slack(), Time::from_ns(-2));
}

/// Algorithm 2 says when a snatch loop was cut off by the cycle cap
/// rather than settling: the violating latch loop still moves time
/// after one cycle, while under the default cap its snatching settles.
#[test]
fn algorithm2_flags_its_cycle_cap() {
    let (b, clocks, spec) = latch_loop(80, 40);
    let lib = exact_lib(&[80, 40]);
    let run = |max_cycles: usize| {
        let options = AnalysisOptions {
            max_cycles,
            ..AnalysisOptions::default()
        };
        Analyzer::with_options(&b.design, b.module, &lib, &clocks, spec.clone(), options)
            .unwrap()
            .generate_constraints()
            .algorithm2_stats()
            .expect("Algorithm 2 ran")
    };
    let capped = run(1);
    assert!(capped.cycle_cap_hit, "one cycle cannot settle: {capped:?}");
    let settled = run(AnalysisOptions::default().max_cycles);
    assert!(!settled.cycle_cap_hit, "{settled:?}");
    assert!(settled.backward_snatch_cycles + settled.forward_snatch_cycles > 2);
}

/// A capped answer says so: the report's footer names the algorithm the
/// cap stopped and `hb_alg_cap_hits_total` counts it, while an uncapped
/// report carries no such line.
#[test]
fn cycle_cap_is_named_in_the_footer_and_counted() {
    let (b, clocks, spec) = latch_loop(80, 40);
    let lib = exact_lib(&[80, 40]);
    let run = |max_cycles: usize| {
        let options = AnalysisOptions {
            max_cycles,
            ..AnalysisOptions::default()
        };
        Analyzer::with_options(&b.design, b.module, &lib, &clocks, spec.clone(), options)
            .unwrap()
            .generate_constraints()
    };
    let hits = || {
        let text = hb_obs::global().render();
        text.lines()
            .find_map(|l| l.strip_prefix("hb_alg_cap_hits_total{algorithm=\"2\"} "))
            .map_or(0, |v| v.trim().parse::<u64>().unwrap())
    };
    let before = hits();
    let capped = run(1);
    assert!(capped.capped().contains(&2), "{:?}", capped.capped());
    let footer = capped.to_string();
    let line = footer
        .lines()
        .find(|l| l.trim_start().starts_with("capped:"))
        .unwrap_or_else(|| panic!("no cap line in\n{footer}"));
    assert!(line.contains("algorithm") && line.contains('2'), "{line}");
    // Other tests may cap concurrently; the counter only grows.
    assert!(
        hits() > before,
        "hb_alg_cap_hits_total{{algorithm=\"2\"}} not counted"
    );

    let settled = run(AnalysisOptions::default().max_cycles);
    assert!(settled.capped().is_empty());
    assert!(!settled.to_string().contains("capped"), "{settled}");
}
