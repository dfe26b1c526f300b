//! The public call chain from design text to a report, one span per
//! layer: `hb_io::parse_hum` → `Design::validate` →
//! `hb_server::spec_from_directives` → `Analyzer::with_options` →
//! `analyze` / `generate_constraints_with_cache`. This is the same
//! sequence `hummingbird analyze` and the daemon's `load` + `analyze`
//! run; the benchmark drives it from outside so that every layer is
//! timed without instrumenting the program.

use hb_cells::{Binding, Library};
use hb_clock::ClockSet;
use hb_io::TimingDirective;
use hb_netlist::{Design, ModuleId};
use hb_sta::{ShardedGraph, TimingGraph};
use hummingbird::{AnalysisOptions, Analyzer, SlackCache, TimingReport};

use crate::trace::Tracer;

/// A parsed and validated design.
pub struct Loaded {
    pub design: Design,
    pub top: ModuleId,
    pub clocks: ClockSet,
    pub timing: Vec<TimingDirective>,
}

/// `parse_hum` then `validate`.
pub fn load(tr: &mut Tracer, req: u64, text: &str, lib: &Library) -> Result<Loaded, String> {
    let file = tr
        .span("io.parse", req, || hb_io::parse_hum(text, lib))
        .map_err(|e| format!("parse: {e}"))?;
    tr.span("netlist.validate", req, || file.design.validate())
        .map_err(|e| format!("validate: {e}"))?;
    let top = file.design.top().ok_or("the design has no top")?;
    Ok(Loaded {
        design: file.design,
        top,
        clocks: file.clocks,
        timing: file.timing,
    })
}

/// `spec_from_directives` then `Analyzer::with_options` (the paper's
/// pre-processing).
pub fn prepare<'a>(
    tr: &mut Tracer,
    req: u64,
    l: &'a Loaded,
    lib: &'a Library,
    options: AnalysisOptions,
) -> Result<Analyzer<'a>, String> {
    let spec = tr.span("server.spec", req, || {
        hb_server::spec_from_directives(&l.design, l.top, &l.clocks, &l.timing)
    })?;
    tr.span("core.prepare", req, || {
        Analyzer::with_options(&l.design, l.top, lib, &l.clocks, spec, options)
    })
    .map_err(|e| format!("prepare: {e}"))
}

/// Algorithm 1 from a cold cache.
pub fn analyze(tr: &mut Tracer, req: u64, analyzer: &Analyzer) -> TimingReport {
    tr.span("core.analyze", req, || analyzer.analyze())
}

/// Algorithms 1 and 2 through a resident cache.
pub fn constraints(
    tr: &mut Tracer,
    req: u64,
    analyzer: &Analyzer,
    cache: &mut SlackCache,
) -> TimingReport {
    tr.span("core.analyze", req, || {
        analyzer.generate_constraints_with_cache(cache)
    })
}

/// The text-to-report chain of one sign-off verdict.
pub fn verdict(
    tr: &mut Tracer,
    req: u64,
    text: &str,
    lib: &Library,
) -> Result<(Loaded, TimingReport), String> {
    let l = load(tr, req, text, lib)?;
    let report = {
        let analyzer = prepare(tr, req, &l, lib, AnalysisOptions::default())?;
        analyze(tr, req, &analyzer)
    };
    Ok((l, report))
}

/// Sizes of the intermediate representation, from the graph probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphSize {
    pub cells: usize,
    pub arcs: usize,
    pub clusters: usize,
}

/// Rebuilds the timing graph and its cluster shards standalone, as
/// `Analyzer::with_options` does internally, so that pre-processing
/// splits into graph build, shard build and the rest. Traced runs call
/// it after each measured operation, outside the operation's span.
pub fn probe_graph(tr: &mut Tracer, req: u64, l: &Loaded, lib: &Library) -> GraphSize {
    tr.begin("sta.graph_build", req);
    let binding = Binding::new(&l.design, lib);
    let graph = TimingGraph::build(&l.design, l.top, &binding, lib);
    tr.end();
    let graph = graph.expect("the design prepared, so its graph builds");
    let shards = tr.span("sta.shard_build", req, || ShardedGraph::new(&graph));
    drop(shards);
    GraphSize {
        cells: l.design.stats(l.top).cells,
        arcs: graph.arc_count(),
        clusters: graph.clusters().count(),
    }
}

/// A fingerprint of a report's answers: the verdict, the worst slack,
/// and a hash of every net slack (in net order) and terminal slack.
pub fn fingerprint(l: &Loaded, report: &TimingReport) -> (bool, i64, u64) {
    let mut h = 0x0068_6262_656e_6368_u64;
    for (net, _) in l.design.module(l.top).nets() {
        h = hb_rng::mix64(h, report.net_slack(net).as_ps() as u64);
    }
    for t in report.terminal_slacks() {
        h = hb_rng::mix64(h, t.slack.as_ps() as u64);
    }
    (report.ok(), report.worst_slack().as_ps(), h)
}
