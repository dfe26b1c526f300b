//! End-to-end parity: an ECO applied through a resident session must
//! yield **bit-identical** slacks and constraints to a cold one-shot
//! analysis of the identically edited design.
//!
//! This is the soundness contract of the content-addressed
//! [`SlackCache`](hummingbird::SlackCache): reuse across edits is only
//! legitimate if a warm re-analysis is indistinguishable from a cold
//! one. All timing values are integer picoseconds, so there is no
//! tolerance — every net slack, every terminal slack and every
//! generated constraint must match exactly. On top of parity, the
//! transparent-latch pipeline must demonstrate the daemon's point:
//! a nonzero `items_reused` count on the warm ECO re-analysis.

use hb_cells::{sc89, Library};
use hb_io::Frame;
use hb_netlist::{Design, ModuleId};
use hb_resynth::{apply_eco, EcoOp};
use hb_server::Session;
use hb_workloads::{counter, fsm12, generate, GenKind, GenParams, Workload};
use hummingbird::{AnalysisOptions, Analyzer, EngineKind, TimingReport};

mod common;
use common::{hum_text, latch_pipeline, resizable_instance, resizable_instances};

/// A transparent-latch pipeline small enough for a debug-profile test
/// yet clustered enough for partial cache reuse to show.
fn pipeline() -> Workload {
    latch_pipeline(4, 8, 60)
}

fn assert_identical_slacks(
    warm: &TimingReport,
    cold: &TimingReport,
    design: &Design,
    top: ModuleId,
    what: &str,
) {
    assert_eq!(warm.ok(), cold.ok(), "{what}: verdict differs");
    assert_eq!(
        warm.worst_slack(),
        cold.worst_slack(),
        "{what}: worst slack differs"
    );
    let (tw, tc) = (warm.terminal_slacks(), cold.terminal_slacks());
    assert_eq!(tw.len(), tc.len(), "{what}: terminal count differs");
    for (a, b) in tw.iter().zip(tc) {
        assert_eq!(a.kind, b.kind, "{what}: terminal kind");
        assert_eq!(a.name, b.name, "{what}: terminal name");
        assert_eq!(a.slack, b.slack, "{what}: slack at {} {:?}", a.name, a.kind);
    }
    let module = design.module(top);
    for (net, n) in module.nets() {
        assert_eq!(
            warm.net_slack(net),
            cold.net_slack(net),
            "{what}: net slack at {}",
            n.name()
        );
    }
    match (warm.constraints(), cold.constraints()) {
        (None, None) => {}
        (Some(cw), Some(cc)) => {
            for (net, n) in module.nets() {
                assert_eq!(
                    cw.ready_at(net),
                    cc.ready_at(net),
                    "{what}: ready at {}",
                    n.name()
                );
                assert_eq!(
                    cw.required_at(net),
                    cc.required_at(net),
                    "{what}: required at {}",
                    n.name()
                );
            }
        }
        _ => panic!("{what}: constraint presence differs"),
    }
}

/// The wire form of an ECO.
fn eco_frame(op: &EcoOp) -> Frame {
    match op {
        EcoOp::RetargetDrive { inst, steps } => Frame::new("eco")
            .arg("op", "resize")
            .arg("inst", inst.clone())
            .arg("steps", *steps),
        EcoOp::ScaleNetLoad { net, percent } => Frame::new("eco")
            .arg("op", "scale-net")
            .arg("net", net.clone())
            .arg("percent", *percent),
    }
}

/// Drives one workload through the daemon session: load → analyze (or
/// constraints) → each ECO of `ops` in turn, mirroring every edit on a
/// cold copy. After every ECO the session's report must equal a cold
/// analysis of the identically edited design by both engines. Returns
/// each ECO reply's reused count.
fn run_parity(w: &Workload, lib: &Library, ops: &[EcoOp], constraints: bool) -> Vec<u64> {
    let text = hum_text(w);

    // Warm path: resident session with a persistent cache.
    let mut session = Session::new(lib.clone());
    let reply = session.handle(&Frame::new("load").with_payload(text.clone()));
    assert_eq!(
        reply.verb, "ok",
        "{}: load failed: {:?}",
        w.name, reply.payload
    );
    let verb = if constraints {
        "constraints"
    } else {
        "analyze"
    };
    let reply = session.handle(&Frame::new(verb));
    assert_eq!(
        reply.verb, "ok",
        "{}: {verb} failed: {:?}",
        w.name, reply.payload
    );

    // Cold path: parse the same text and apply the same edits, each
    // analysis from scratch with a fresh cache.
    let file = hb_io::parse_hum(&text, lib).unwrap();
    let mut design = file.design;
    let top = design.top().unwrap();

    let mut reused = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        let what = format!("{} after ECO {k} ({op:?})", w.name);
        let reply = session.handle(&eco_frame(op));
        assert_eq!(reply.verb, "ok", "{what}: eco failed: {:?}", reply.payload);
        let swept: u64 = reply.get("items_swept").unwrap().parse().unwrap();
        assert!(swept > 0, "{what}: an ECO must dirty at least one cluster");
        reused.push(reply.get("items_reused").unwrap().parse().unwrap());

        apply_eco(&mut design, top, lib, op).unwrap();
        let spec =
            hb_server::spec_from_directives(&design, top, &file.clocks, &file.timing).unwrap();
        let warm = session.last_report().expect("analyzed through the session");
        for engine in [EngineKind::Sharded, EngineKind::Reference] {
            let options = AnalysisOptions {
                engine,
                ..AnalysisOptions::default()
            };
            let analyzer =
                Analyzer::with_options(&design, top, lib, &file.clocks, spec.clone(), options)
                    .unwrap();
            let cold = if constraints {
                analyzer.generate_constraints()
            } else {
                analyzer.analyze()
            };
            assert_identical_slacks(warm, &cold, &design, top, &format!("{what}, {engine:?}"));
        }
    }
    reused
}

/// The report text without its engine line, whose reuse counters are
/// the only part allowed to differ between equal analyses.
fn report_text(report: &TimingReport) -> String {
    let text = report.to_string();
    let lines = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("engine:"));
    lines.collect::<Vec<_>>().join("\n")
}

/// Analyzes `text` twice per verb through one session: the repeat
/// sweeps nothing (`items_swept=0`) and reports identically.
fn assert_repeat_sweeps_nothing(name: &str, text: String, lib: &Library) {
    let mut session = Session::new(lib.clone());
    let reply = session.handle(&Frame::new("load").with_payload(text.clone()));
    assert_eq!(reply.verb, "ok", "{name}: {:?}", reply.payload);
    let file = hb_io::parse_hum(&text, lib).unwrap();
    let top = file.design.top().unwrap();
    for verb in ["analyze", "constraints"] {
        let first = session.handle(&Frame::new(verb));
        assert_eq!(first.verb, "ok", "{name}: {verb}: {:?}", first.payload);
        let before = session.last_report().unwrap().clone();
        let again = session.handle(&Frame::new(verb));
        assert_eq!(again.verb, "ok", "{name}: {verb}: {:?}", again.payload);
        assert_eq!(
            again.get("items_swept"),
            Some("0"),
            "{name}: a repeated {verb} of an unchanged design re-swept items"
        );
        let after = session.last_report().unwrap();
        let what = format!("{name}: repeated {verb}");
        assert_identical_slacks(after, &before, &file.design, top, &what);
        assert_eq!(report_text(after), report_text(&before), "{what}");
        for key in ["ok", "worst", "period"] {
            assert_eq!(first.get(key), again.get(key), "{what}: {key}");
        }
        if verb == "constraints" {
            assert_eq!(first.payload, again.payload, "{what}: constraint lines");
        }
    }
}

#[test]
fn repeated_analysis_of_an_unchanged_design_sweeps_nothing() {
    let lib = sc89();
    let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
    assert_repeat_sweeps_nothing("two_phase_pipeline", text, &lib);
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 20_000, 1));
    assert_repeat_sweeps_nothing("gen_pipeline_20k", w.to_hum(), &lib);
}

/// A ten-ECO sequence on a generated latch pipeline — resizes up and
/// down, net load rescales, and ECOs undone by their inverse — matches
/// a cold analysis by both engines after every step.
#[test]
fn eco_sequences_match_cold_analysis_after_every_step() {
    let lib = sc89();
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 1_500, 3));
    let insts = resizable_instances(&w.design, w.module, &lib);
    assert!(insts.len() >= 3, "too few resizable instances");
    let module = w.design.module(w.module);
    let nets: Vec<String> = module.nets().map(|(_, n)| n.name().to_owned()).collect();
    let resize = |i: usize, steps: i32| EcoOp::RetargetDrive {
        inst: insts[i * insts.len() / 3].clone(),
        steps,
    };
    let scale = |k: usize, percent: u32| EcoOp::ScaleNetLoad {
        net: nets[k * nets.len() / 4].clone(),
        percent,
    };
    let ops = [
        resize(0, 1),
        resize(1, 1),
        scale(1, 150),
        resize(0, -1), // undoes the first ECO
        resize(2, 1),
        resize(2, -1), // undoes the one before
        scale(2, 70),
        resize(1, -1),
        resize(0, 1),
        scale(3, 130),
    ];
    for constraints in [false, true] {
        run_parity(&w, &lib, &ops, constraints);
    }
}

#[test]
fn eco_resize_matches_cold_analysis_everywhere() {
    let lib = sc89();
    for w in [fsm12(&lib, true), counter(&lib, 8, 10), pipeline()] {
        let inst = resizable_instance(&w.design, w.module, &lib);
        run_parity(&w, &lib, &[EcoOp::RetargetDrive { inst, steps: 1 }], false);
    }
}

#[test]
fn eco_scale_net_matches_cold_analysis() {
    let lib = sc89();
    let w = pipeline();
    // Scale the first stage-internal net the resizable instance drives.
    let module = w.design.module(w.module);
    let net = module
        .nets()
        .map(|(_, n)| n.name().to_owned())
        .find(|n| n.contains("s0"))
        .unwrap_or_else(|| module.nets().next().unwrap().1.name().to_owned());
    run_parity(
        &w,
        &lib,
        &[EcoOp::ScaleNetLoad { net, percent: 180 }],
        false,
    );
}

#[test]
fn warm_eco_reuses_cache_on_latch_pipeline() {
    let lib = sc89();
    let w = pipeline();
    let inst = resizable_instance(&w.design, w.module, &lib);
    let reused = run_parity(&w, &lib, &[EcoOp::RetargetDrive { inst, steps: 1 }], false)[0];
    assert!(
        reused > 0,
        "a one-instance ECO on the transparent-latch pipeline must reuse \
         untouched cluster sweeps (got items_reused = {reused})"
    );
}

#[test]
fn eco_constraints_match_cold_generation() {
    let lib = sc89();
    let w = fsm12(&lib, true);
    let inst = resizable_instance(&w.design, w.module, &lib);
    run_parity(&w, &lib, &[EcoOp::RetargetDrive { inst, steps: 1 }], true);
}

/// The daemon's `min-delays=1` path. The supplementary check runs when
/// an analysis is prepared, so the session's re-preparation after an
/// ECO must carry the edited design's violations, equal to a cold
/// analysis of it, and `min-delays=0` must drop them.
#[test]
fn min_delay_violations_follow_the_session_through_an_eco() {
    let lib = sc89();
    let text = std::fs::read_to_string("../../designs/skew_race.hum").unwrap();
    let file = hb_io::parse_hum(&text, &lib).unwrap();
    let mut design = file.design;
    let top = design.top().unwrap();
    let cold = |design: &Design| {
        let spec =
            hb_server::spec_from_directives(design, top, &file.clocks, &file.timing).unwrap();
        let options = AnalysisOptions {
            check_min_delays: true,
            ..AnalysisOptions::default()
        };
        let analyzer =
            Analyzer::with_options(design, top, &lib, &file.clocks, spec, options).unwrap();
        analyzer.analyze().min_delay_violations().to_vec()
    };
    let mut session = Session::new(lib.clone());
    let reply = session.handle(&Frame::new("load").with_payload(text));
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let warm = |session: &Session| {
        session
            .last_report()
            .unwrap()
            .min_delay_violations()
            .to_vec()
    };
    let counted = |reply: &Frame| {
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        let payload = reply.payload.as_deref().unwrap_or("");
        (payload.lines())
            .find_map(|l| {
                l.trim()
                    .strip_suffix(" supplementary (min-delay) violations")
            })
            .map_or(0, |n| n.parse::<usize>().unwrap())
    };

    let reply = session.handle(&Frame::new("analyze").arg("min-delays", 1));
    assert_eq!(counted(&reply), 1);
    let before = warm(&session);
    assert_eq!(before, cold(&design));

    // A faster race-path inverter deepens the violation: the edited
    // design's answer, not a stale one, must come back.
    let op = EcoOp::RetargetDrive {
        inst: "d0".into(),
        steps: 1,
    };
    let reply = session.handle(&eco_frame(&op));
    assert_eq!(counted(&reply), 1);
    apply_eco(&mut design, top, &lib, &op).unwrap();
    let after = warm(&session);
    assert_eq!(after, cold(&design));
    assert_ne!(after, before, "the ECO moves the violation's shortfall");

    let reply = session.handle(&Frame::new("analyze").arg("min-delays", 0));
    assert_eq!(counted(&reply), 0);
    assert!(warm(&session).is_empty());
}
