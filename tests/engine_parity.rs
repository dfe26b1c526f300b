//! The sharded parallel slack engine must be bit-identical to the
//! dense sequential reference engine — at any thread count.
//!
//! All timing values are integer picoseconds and every merge is an
//! exact max/min, so there is no tolerance here: worst slack, every
//! terminal slack, every per-net slack, every traced slow path and
//! every generated constraint must match exactly.

use hb_cells::sc89;
use hb_workloads::{
    alu, fsm12, generate, random_pipeline, GenKind, GenParams, PipelineParams, Workload,
};
use hummingbird::{AnalysisOptions, Analyzer, EngineKind, TimingReport};

fn workloads(lib: &hb_cells::Library) -> Vec<Workload> {
    vec![
        fsm12(lib, true),
        alu(lib, 7),
        random_pipeline(
            lib,
            PipelineParams {
                stages: 4,
                width: 8,
                gates_per_stage: 60,
                transparent: true,
                period_ns: 14,
                seed: 21,
                imbalance_pct: 30,
            },
        ),
    ]
}

fn run(w: &Workload, lib: &hb_cells::Library, options: AnalysisOptions) -> TimingReport {
    Analyzer::with_options(&w.design, w.module, lib, &w.clocks, w.spec.clone(), options)
        .expect("conforming workload")
        .generate_constraints()
}

fn assert_identical(w: &Workload, a: &TimingReport, b: &TimingReport, what: &str) {
    assert_eq!(a.ok(), b.ok(), "{}: ok() differs ({what})", w.name);
    // A stale terminal in an intermediate cycle shows as another cycle
    // count even where the final slacks agree.
    assert_eq!(
        a.algorithm1_stats(),
        b.algorithm1_stats(),
        "{}: Algorithm 1 cycles differ ({what})",
        w.name
    );
    assert_eq!(
        a.algorithm2_stats(),
        b.algorithm2_stats(),
        "{}: Algorithm 2 cycles differ ({what})",
        w.name
    );
    assert_eq!(
        a.worst_slack(),
        b.worst_slack(),
        "{}: worst slack differs ({what})",
        w.name
    );
    let (ta, tb) = (a.terminal_slacks(), b.terminal_slacks());
    assert_eq!(ta.len(), tb.len(), "{}: terminal count ({what})", w.name);
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.kind, y.kind, "{}: terminal kind ({what})", w.name);
        assert_eq!(x.name, y.name, "{}: terminal name ({what})", w.name);
        assert_eq!(
            x.slack, y.slack,
            "{}: slack at {} {:?} ({what})",
            w.name, x.name, x.kind
        );
    }
    let module = w.design.module(w.module);
    for (net, _) in module.nets() {
        assert_eq!(
            a.net_slack(net),
            b.net_slack(net),
            "{}: net slack at net {net} ({what})",
            w.name
        );
    }
    assert_eq!(
        a.slow_nets(),
        b.slow_nets(),
        "{}: slow nets ({what})",
        w.name
    );
    assert_eq!(
        a.slow_paths().len(),
        b.slow_paths().len(),
        "{}: slow path count ({what})",
        w.name
    );
    for (p, q) in a.slow_paths().iter().zip(b.slow_paths()) {
        assert_eq!(p.slack, q.slack, "{}: path slack ({what})", w.name);
        assert_eq!(p.endpoint, q.endpoint, "{}: path endpoint ({what})", w.name);
        assert_eq!(
            p.steps.len(),
            q.steps.len(),
            "{}: path steps ({what})",
            w.name
        );
        for (s, t) in p.steps.iter().zip(&q.steps) {
            assert_eq!(
                (&s.net, &s.through, s.time),
                (&t.net, &t.through, t.time),
                "{}: path step ({what})",
                w.name
            );
        }
    }
    let (ca, cb) = (
        a.constraints().expect("constraints generated"),
        b.constraints().expect("constraints generated"),
    );
    assert_eq!(
        ca.pass_starts(),
        cb.pass_starts(),
        "{}: passes ({what})",
        w.name
    );
    for p in 0..ca.pass_count() {
        for (net, _) in module.nets() {
            assert_eq!(
                ca.ready_in_pass(p, net),
                cb.ready_in_pass(p, net),
                "{}: ready pass {p} net {net} ({what})",
                w.name
            );
            assert_eq!(
                ca.required_in_pass(p, net),
                cb.required_in_pass(p, net),
                "{}: required pass {p} net {net} ({what})",
                w.name
            );
        }
    }
}

/// The property the whole engine rests on: sharded evaluation at 1, 2
/// and 8 threads reproduces the reference engine's output bit for bit.
#[test]
fn sharded_engine_matches_reference_at_any_thread_count() {
    let lib = sc89();
    for w in workloads(&lib) {
        let reference = run(
            &w,
            &lib,
            AnalysisOptions {
                engine: EngineKind::Reference,
                ..AnalysisOptions::default()
            },
        );
        for threads in [1usize, 2, 8] {
            let sharded = run(
                &w,
                &lib,
                AnalysisOptions {
                    engine: EngineKind::Sharded,
                    threads,
                    ..AnalysisOptions::default()
                },
            );
            assert_identical(&w, &sharded, &reference, &format!("{threads} threads"));
        }
    }
}

/// The same bit-for-bit property on at-scale generated designs: a
/// 10k-cell design of each family gets the full comparison (every net,
/// path and constraint), and a 50k-cell design gets the report-level
/// comparison, at 1, 2 and 8 threads. The pipeline and sbox designs
/// violate, so their slow paths, traced on the shards and on the
/// reference engine's own graph, are compared step by step.
#[test]
fn sharded_engine_matches_reference_on_generated_designs() {
    let lib = sc89();
    for kind in [GenKind::Pipeline, GenKind::Sbox, GenKind::Sram] {
        let w = generate(&lib, &GenParams::new(kind, 10_000, 11));
        let reference = run(
            &w,
            &lib,
            AnalysisOptions {
                engine: EngineKind::Reference,
                ..AnalysisOptions::default()
            },
        );
        if kind != GenKind::Sram {
            assert!(
                !reference.slow_paths().is_empty(),
                "{}: the path comparison must not be vacuous",
                w.name
            );
        }
        for threads in [1usize, 2, 8] {
            let sharded = run(
                &w,
                &lib,
                AnalysisOptions {
                    engine: EngineKind::Sharded,
                    threads,
                    ..AnalysisOptions::default()
                },
            );
            assert_identical(&w, &sharded, &reference, &format!("{threads} threads"));
        }
    }
    // At 50k the per-net full sweep is too slow for a default test run;
    // compare the report surface only.
    let w = generate(&lib, &GenParams::new(GenKind::Sram, 50_000, 11));
    let reference = run(
        &w,
        &lib,
        AnalysisOptions {
            engine: EngineKind::Reference,
            ..AnalysisOptions::default()
        },
    );
    for threads in [1usize, 2, 8] {
        let sharded = run(
            &w,
            &lib,
            AnalysisOptions {
                engine: EngineKind::Sharded,
                threads,
                ..AnalysisOptions::default()
            },
        );
        assert_eq!(sharded.ok(), reference.ok(), "50k: ok at {threads} threads");
        assert_eq!(
            sharded.worst_slack(),
            reference.worst_slack(),
            "50k: worst slack at {threads} threads"
        );
        let (ta, tb) = (sharded.terminal_slacks(), reference.terminal_slacks());
        assert_eq!(
            ta.len(),
            tb.len(),
            "50k: terminal count at {threads} threads"
        );
        for (x, y) in ta.iter().zip(tb) {
            assert_eq!(
                (&x.name, x.kind, x.slack),
                (&y.name, y.kind, y.slack),
                "50k: terminal at {threads} threads"
            );
        }
    }
}

/// The incremental cache must never change results: a second analyze()
/// on the same analyzer (warm cache inside each call, fresh cache
/// across calls) returns identical reports, and the sharded engine
/// reports non-trivial reuse on workloads whose offsets settle.
#[test]
fn repeated_analysis_is_deterministic_and_reuses_clean_clusters() {
    let lib = sc89();
    let w = fsm12(&lib, true);
    let analyzer = Analyzer::new(&w.design, w.module, &lib, &w.clocks, w.spec.clone())
        .expect("conforming workload");
    let first = analyzer.analyze();
    let second = analyzer.analyze();
    assert_eq!(first.worst_slack(), second.worst_slack());
    assert_eq!(first.ok(), second.ok());
    let stats = first.engine_stats();
    assert!(
        stats.items_scheduled > 0,
        "sharded engine should schedule work items"
    );
    assert_eq!(stats.items_scheduled, second.engine_stats().items_scheduled);
    assert_eq!(stats.items_reused, second.engine_stats().items_reused);
}
