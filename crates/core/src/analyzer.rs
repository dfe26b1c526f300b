//! The top-level analyzer facade.

use std::time::Instant;

use hb_cells::Library;
use hb_clock::ClockSet;
use hb_netlist::{Design, ModuleId, NetId};
use hb_sta::Numeric;
use hb_units::Time;

use crate::algorithms::{algorithm1, algorithm2};
use crate::analysis::{prepare, Evaluator, PrepStats, Prepared, SlackView};
use crate::engine::SlackCache;
use crate::error::AnalyzeError;
use crate::report::{NameIndex, SlowPath, SlowStep, TerminalSlack, TimingReport};
use crate::spec::{AnalysisOptions, Spec};
use crate::sync::Replica;

/// At most this many slow paths are traced and reported.
const MAX_SLOW_PATHS: usize = 50;

/// Tallies one analysis run into the process-global registry: run
/// counts per kind, slack-transfer cycle counts per iteration, and the
/// algorithms a cycle cap stopped. Purely observational — the report
/// keeps its own authoritative copy.
fn record_analysis_obs(report: &TimingReport, kind: &str) {
    let (alg1, alg2) = (report.alg1, report.alg2);
    let g = hb_obs::global();
    g.counter_with(
        "hb_analyses_total",
        "analysis runs completed",
        &[("kind", kind)],
    )
    .inc();
    let cycles = |iteration: &str, n: usize| {
        g.counter_with(
            "hb_alg_cycles_total",
            "slack-transfer cycles performed, by algorithm iteration",
            &[("iteration", iteration)],
        )
        .add(n as u64);
    };
    cycles("forward", alg1.forward_cycles);
    cycles("backward", alg1.backward_cycles);
    cycles("partial_forward", alg1.partial_forward_cycles);
    cycles("partial_backward", alg1.partial_backward_cycles);
    if let Some(alg2) = alg2 {
        cycles("backward_snatch", alg2.backward_snatch_cycles);
        cycles("forward_snatch", alg2.forward_snatch_cycles);
    }
    for algorithm in report.capped() {
        g.counter_with(
            "hb_alg_cap_hits_total",
            "analyses in which a cycle cap stopped an algorithm before it settled",
            &[("algorithm", &algorithm.to_string())],
        )
        .inc();
    }
}

/// A prepared system-level timing analysis.
///
/// Construction performs the paper's *pre-processing*: timing-graph and
/// cluster generation, clock binding of every synchronising element,
/// per-pulse replication, and the Section 7 minimal-pass planning.
/// [`Analyzer::analyze`] then runs Algorithm 1 (slow-path
/// identification) and [`Analyzer::generate_constraints`] additionally
/// runs Algorithm 2 (constraint generation for re-synthesis).
///
/// The pre-processing result is a [`Prepared`] state that borrows
/// nothing: [`Analyzer::into_prepared`] hands it back and
/// [`Analyzer::from_prepared`] rebuilds an analyzer around it, so a
/// caller that owns the design can keep it across edits.
///
/// See the [crate-level documentation](crate) for a worked example.
pub struct Analyzer<'a> {
    design: &'a Design,
    library: &'a Library,
    prep: Prepared,
}

impl std::fmt::Debug for Analyzer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("module", &self.design.module(self.prep.module).name())
            .field("replicas", &self.prep.replicas.len())
            .field("passes", &self.prep.passes.len())
            .field("prep_seconds", &self.prep.seconds)
            .finish()
    }
}

impl<'a> Analyzer<'a> {
    /// Prepares an analysis with default [`AnalysisOptions`].
    ///
    /// # Errors
    ///
    /// Fails when the design violates the paper's structural assumptions
    /// (combinational cycles, unclocked or non-monotonic controls,
    /// enable paths), when a spec entry does not resolve, or when the
    /// clock set is empty.
    pub fn new(
        design: &'a Design,
        module: ModuleId,
        library: &'a Library,
        clocks: &ClockSet,
        spec: Spec,
    ) -> Result<Analyzer<'a>, AnalyzeError> {
        Analyzer::with_options(
            design,
            module,
            library,
            clocks,
            spec,
            AnalysisOptions::default(),
        )
    }

    /// Prepares an analysis with explicit options (latch model,
    /// min-delay checking, engine).
    ///
    /// # Errors
    ///
    /// As for [`Analyzer::new`].
    pub fn with_options(
        design: &'a Design,
        module: ModuleId,
        library: &'a Library,
        clocks: &ClockSet,
        spec: Spec,
        options: AnalysisOptions,
    ) -> Result<Analyzer<'a>, AnalyzeError> {
        let prep = prepare(design, module, library, clocks, &spec, options)?;
        Ok(Analyzer::from_prepared(design, library, prep))
    }

    /// An analyzer around a prepared state of `design` — one this
    /// design and library were prepared into, or one patched in place
    /// ([`Prepared::patch`]) to the design's current revision. A state
    /// of another design is a caller error that the analysis cannot
    /// detect in general.
    ///
    /// # Panics
    ///
    /// Panics if the state's net count is not the design's.
    pub fn from_prepared(design: &'a Design, library: &'a Library, prep: Prepared) -> Analyzer<'a> {
        assert_eq!(
            design.module(prep.module).net_count(),
            prep.engine.sharded.node_count(),
            "a prepared state analyzed with another design"
        );
        Analyzer {
            design,
            library,
            prep,
        }
    }

    /// The prepared state, for a caller that keeps it across analyses.
    pub fn into_prepared(self) -> Prepared {
        self.prep
    }

    /// Pre-processing statistics: clusters, requirements, pass counts.
    pub fn prep_stats(&self) -> PrepStats {
        self.prep.stats
    }

    /// Wall-clock seconds spent preparing (or patching) the state.
    pub fn prep_seconds(&self) -> f64 {
        self.prep.seconds
    }

    /// The overall clock period.
    pub fn overall_period(&self) -> Time {
        self.prep.timeline.overall_period()
    }

    /// The distinct analysis-window start times.
    pub fn pass_starts(&self) -> &[Time] {
        &self.prep.passes
    }

    /// The number of synchronising-element replicas under analysis.
    pub fn replica_count(&self) -> usize {
        self.prep.replicas.len()
    }

    /// Runs Algorithm 1 and reports all paths that are too slow.
    pub fn analyze(&self) -> TimingReport {
        self.analyze_with_cache(&mut SlackCache::new())
    }

    /// Runs Algorithm 1 through a caller-owned [`SlackCache`].
    ///
    /// The cache is content-addressed, so it may come from an earlier
    /// analysis of this design — or of an *edited* revision of it: only
    /// the `(cluster, pass)` sweeps whose shard fingerprint or seed
    /// signature moved are recomputed. The report's engine counters
    /// cover this call only, not the cache's lifetime.
    pub fn analyze_with_cache(&self, cache: &mut SlackCache) -> TimingReport {
        let start = Instant::now();
        let before = cache.stats();
        let mut replicas = self.prep.replicas.clone();
        let mut ev = Evaluator::new(&self.prep, self.design, self.library, cache);
        let Ok(alg1) = algorithm1(&self.prep, &mut Numeric, &mut replicas, &mut ev);
        let view = ev.view();
        ev.finish();
        let mut report = self.build_report(&replicas, &view);
        report.alg1 = alg1;
        report.engine = cache.stats().since(before);
        report.prep_seconds = self.prep.seconds;
        report.analysis_seconds = start.elapsed().as_secs_f64();
        record_analysis_obs(&report, "analyze");
        report
    }

    /// Runs Algorithm 1 symbolically in the overall clock period and
    /// returns the resulting piecewise-linear
    /// [`ParametricSlack`](crate::ParametricSlack) table: O(1) slack
    /// evaluation at any grid period (bit-identical to a cold numeric
    /// run there) and direct min-period solving, with no further sweeps.
    ///
    /// # Errors
    ///
    /// Fails when the design's seed positions fall off the clock
    /// lattice or the piecewise region budget is exceeded — both
    /// indicate the symbolic parametrization cannot represent the
    /// design, never a numeric mismatch.
    pub fn parametric(&self) -> Result<crate::symbolic::ParametricSlack, AnalyzeError> {
        crate::symbolic::parametric(&self.prep, self.design)
            .map_err(|reason| AnalyzeError::Parametric { reason })
    }

    /// Runs Algorithm 1 followed by Algorithm 2 and attaches the
    /// generated ready/required-time constraints to the report.
    pub fn generate_constraints(&self) -> TimingReport {
        self.generate_constraints_with_cache(&mut SlackCache::new())
    }

    /// Runs Algorithms 1 and 2 through a caller-owned [`SlackCache`];
    /// see [`Analyzer::analyze_with_cache`] for the reuse contract.
    pub fn generate_constraints_with_cache(&self, cache: &mut SlackCache) -> TimingReport {
        let start = Instant::now();
        let before = cache.stats();
        let mut replicas = self.prep.replicas.clone();
        let mut ev = Evaluator::new(&self.prep, self.design, self.library, cache);
        let Ok(alg1) = algorithm1(&self.prep, &mut Numeric, &mut replicas, &mut ev);
        let view = ev.view();
        let mut report = self.build_report(&replicas, &view);
        drop(view);
        let (ready_view, required_view, alg2) = algorithm2(&self.prep, &mut replicas, &mut ev);
        ev.finish();
        report.alg1 = alg1;
        report.alg2 = Some(alg2);
        report.engine = cache.stats().since(before);
        report.constraints = Some(self.prep.constraints(ready_view, required_view));
        report.prep_seconds = self.prep.seconds;
        report.analysis_seconds = start.elapsed().as_secs_f64();
        record_analysis_obs(&report, "constraints");
        report
    }

    fn build_report(&self, replicas: &[Replica], view: &SlackView) -> TimingReport {
        let prep = &self.prep;
        let module = self.design.module(prep.module);

        let slacks: Vec<Time> = view.terms.iter().copied().collect();
        let terminal_slacks = prep
            .terminals(self.design)
            .into_iter()
            .map(|(kind, name, pulse, i)| TerminalSlack {
                kind,
                name,
                pulse,
                slack: slacks[i],
            })
            .collect();

        // The slow endpoints traced, worst first: replica inputs before
        // primary outputs, each in index order, among equal slacks. Only
        // the traced ones are sorted.
        let mut endpoints: Vec<(Time, bool, usize)> = Vec::new(); // (slack, is_output, index)
        for (k, s) in view.terms.replica_in.iter().enumerate() {
            if *s <= Time::ZERO {
                endpoints.push((*s, false, k));
            }
        }
        for (k, s) in view.terms.po_slack.iter().enumerate() {
            if *s <= Time::ZERO {
                endpoints.push((*s, true, k));
            }
        }
        if endpoints.len() > MAX_SLOW_PATHS {
            endpoints.select_nth_unstable(MAX_SLOW_PATHS);
            endpoints.truncate(MAX_SLOW_PATHS);
        }
        endpoints.sort_unstable();

        let mut slow_paths = Vec::new();
        for &(slack, is_output, k) in &endpoints {
            let (net, pass, endpoint) = if !is_output {
                let r = &replicas[k];
                (
                    r.data_net,
                    prep.replica_pass[k],
                    module.instance(r.inst).name().to_owned(),
                )
            } else {
                (prep.pos[k].net, prep.po_pass[k], prep.pos[k].port.clone())
            };
            if let Some(path) = view.critical_path(prep, pass, net) {
                let steps = path
                    .steps
                    .iter()
                    .map(|s| SlowStep {
                        net: module.net(s.net).name().to_owned(),
                        through: s.inst.map(|i| module.instance(i).name().to_owned()),
                        time: s.time,
                    })
                    .collect();
                slow_paths.push(SlowPath {
                    slack,
                    endpoint,
                    steps,
                });
            }
        }

        let net_slacks = view.net_slacks(prep);
        let slow_nets = (net_slacks.iter().enumerate())
            .filter(|&(_, &s)| s <= Time::ZERO && s.is_finite())
            .map(|(i, _)| NetId::from_raw(i as u32))
            .collect();

        TimingReport {
            module: prep.module,
            ok: view.terms.all_positive(&mut Numeric),
            worst_slack: view.terms.worst(),
            overall_period: prep.timeline.overall_period(),
            terminal_slacks,
            terminals_by_name: NameIndex::default(),
            slow_paths,
            slow_nets,
            net_slacks,
            prep_stats: prep.stats,
            alg1: Default::default(),
            alg2: None,
            engine: Default::default(),
            constraints: None,
            min_delay_violations: prep.min_delays.clone(),
            prep_seconds: self.prep.seconds,
            analysis_seconds: 0.0,
        }
    }
}
