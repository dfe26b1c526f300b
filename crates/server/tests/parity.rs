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
use hb_workloads::{counter, fsm12, Workload};
use hummingbird::{Analyzer, TimingReport};

mod common;
use common::{hum_text, latch_pipeline, resizable_instance};

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

/// Drives one workload through the daemon session: load → analyze →
/// eco → (optionally constraints), mirroring every edit on a cold
/// copy. Returns the ECO reply's reused count.
fn run_parity(w: &Workload, lib: &Library, op: &EcoOp, constraints: bool) -> u64 {
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

    let eco_req = match op {
        EcoOp::RetargetDrive { inst, steps } => Frame::new("eco")
            .arg("op", "resize")
            .arg("inst", inst.clone())
            .arg("steps", *steps),
        EcoOp::ScaleNetLoad { net, percent } => Frame::new("eco")
            .arg("op", "scale-net")
            .arg("net", net.clone())
            .arg("percent", *percent),
    };
    let reply = session.handle(&eco_req);
    assert_eq!(
        reply.verb, "ok",
        "{}: eco failed: {:?}",
        w.name, reply.payload
    );
    let reused: u64 = reply.get("items_reused").unwrap().parse().unwrap();
    let swept: u64 = reply.get("items_swept").unwrap().parse().unwrap();
    assert!(
        swept > 0,
        "{}: an ECO must dirty at least one cluster",
        w.name
    );

    // Cold path: parse the same text, apply the same edit, analyze
    // from scratch with a fresh cache.
    let file = hb_io::parse_hum(&text, lib).unwrap();
    let mut design = file.design;
    let top = design.top().unwrap();
    apply_eco(&mut design, top, lib, op).unwrap();
    let spec = hb_server::spec_from_directives(&design, top, &file.clocks, &file.timing).unwrap();
    let analyzer = Analyzer::new(&design, top, lib, &file.clocks, spec).unwrap();
    let cold = if constraints {
        analyzer.generate_constraints()
    } else {
        analyzer.analyze()
    };

    let warm = session.last_report().expect("analyzed through the session");
    assert_identical_slacks(warm, &cold, &design, top, w.name.as_str());
    reused
}

#[test]
fn eco_resize_matches_cold_analysis_everywhere() {
    let lib = sc89();
    for w in [fsm12(&lib, true), counter(&lib, 8, 10), pipeline()] {
        let inst = resizable_instance(&w.design, w.module, &lib);
        run_parity(&w, &lib, &EcoOp::RetargetDrive { inst, steps: 1 }, false);
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
    run_parity(&w, &lib, &EcoOp::ScaleNetLoad { net, percent: 180 }, false);
}

#[test]
fn warm_eco_reuses_cache_on_latch_pipeline() {
    let lib = sc89();
    let w = pipeline();
    let inst = resizable_instance(&w.design, w.module, &lib);
    let reused = run_parity(&w, &lib, &EcoOp::RetargetDrive { inst, steps: 1 }, false);
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
    run_parity(&w, &lib, &EcoOp::RetargetDrive { inst, steps: 1 }, true);
}
