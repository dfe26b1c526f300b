//! Analysis preparation and multi-pass slack evaluation.
//!
//! Preparation (the paper's "pre-processing": cluster generation plus the
//! Section 7 pass-minimisation algorithm) resolves the clock binding of
//! every synchronising element, replicates elements per control pulse,
//! derives the cluster ordering requirements, and plans the minimal set
//! of analysis passes per cluster.
//!
//! Slack evaluation then runs, for each distinct "broken open" window,
//! one forward ready sweep and one backward required sweep over the
//! whole graph (paper Section 7), assigning each cluster output to the
//! pass that places its ideal closure time closest to the window end.

use std::collections::HashMap;
use std::sync::Arc;

use hb_cells::{Binding, Library};
use hb_clock::{ClockId, ClockSet, EdgeGraph, EdgeId, PassPlan, Requirement, Timeline};
use hb_netlist::{Design, ModuleId, NetId, PinDir};
use hb_sta::analysis::{
    propagate_ready_max, propagate_required, scalar_slack, slack_table, table, TimeTable,
};
use hb_sta::paths::{critical_path, Path};
use hb_sta::{Algebra, Numeric, TimingGraph};
use hb_units::{RiseFall, Sense, Time, Transition};

use crate::algorithms::Evaluate;
use crate::engine::{pos_assert, pos_close, Cycles, Engine, ItemTables, SlackCache};
use crate::error::AnalyzeError;
use crate::mindelay::{check_min_delays, MinDelayViolation};
use crate::report::{ConstraintTables, TerminalKind, TimingConstraints};
use crate::spec::{AnalysisOptions, EdgeSpec, EngineKind, LatchModel, Spec};
use crate::sync::{offsets, Replica, ReplicaTiming};

/// A boundary timing point: a primary input (source) or primary output
/// (sink) with its reference edge and offset.
#[derive(Clone, Debug)]
pub(crate) struct Boundary {
    pub port: String,
    pub net: NetId,
    pub edge: EdgeId,
    pub offset: Time,
}

/// Pre-processing statistics (the paper's Table 1 "pre-processing"
/// column covers exactly this work).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepStats {
    /// Number of combinational clusters carrying sources or sinks.
    pub active_clusters: usize,
    /// Total ordering requirements across all clusters (deduplicated).
    pub requirements: usize,
    /// Total analysis passes summed over clusters.
    pub total_cluster_passes: usize,
    /// The largest per-cluster pass count — the maximum number of
    /// settling times any node needs.
    pub max_cluster_passes: usize,
    /// Distinct global windows actually swept.
    pub global_passes: usize,
}

/// Everything derived from the design before any offsets move. Its only
/// graph is the engine's shards: [`prepare`] drops the whole graph.
pub(crate) struct Prepared<'a> {
    pub design: &'a Design,
    pub module: ModuleId,
    pub library: &'a Library,
    pub timeline: Timeline,
    pub options: AnalysisOptions,
    /// Initial replicas (offsets at the late end of their windows).
    pub replicas: Vec<Replica>,
    pub pis: Vec<Boundary>,
    pub pos: Vec<Boundary>,
    /// Distinct global window starts.
    pub passes: Vec<Time>,
    /// Per cluster: the global pass indices it participates in (empty
    /// for clusters with no sources or sinks, e.g. clock trees).
    pub cluster_passes: Vec<Vec<usize>>,
    /// Per replica: assigned global pass (for its data input).
    pub replica_pass: Vec<usize>,
    /// Per primary output: assigned global pass.
    pub po_pass: Vec<usize>,
    /// The sharded engine schedule (shards + `(cluster, pass)` items).
    pub engine: Engine,
    pub stats: PrepStats,
    /// The supplementary (min-delay) violations, found at preparation
    /// when `options.check_min_delays` is set (empty otherwise).
    pub min_delays: Vec<MinDelayViolation>,
}

/// The backing storage of a [`SlackView`]'s ready/required tables.
pub(crate) enum SlackStorage<V> {
    /// Dense whole-graph tables, one pair per global pass, plus the
    /// per-net slacks (the reference engine's native format; numeric
    /// only), and the reference engine's own graph they index.
    Dense {
        graph: Arc<TimingGraph>,
        ready: Vec<TimeTable>,
        required: Vec<TimeTable>,
        net_slack: Vec<Time>,
    },
    /// Per-work-item local tables (the sharded engine's native format),
    /// positionally parallel to `Prepared::engine.items`. Nets outside
    /// an item keep their sentinel values, exactly as in the dense
    /// format.
    Sharded { items: Vec<Arc<ItemTables<V>>> },
}

/// The terminal slacks of one evaluation, by kind. In this order —
/// replica inputs, replica outputs, primary inputs, primary outputs —
/// they are the report's terminals ([`Prepared::terminals`]).
#[derive(Clone)]
pub(crate) struct Terminals<V = Time> {
    /// Per replica: node slack at the data-input terminal.
    pub replica_in: Vec<V>,
    /// Per replica: node slack at the output terminal (`INF` when the
    /// output is unconnected).
    pub replica_out: Vec<V>,
    /// Per primary input: node slack at the source terminal.
    pub pi_slack: Vec<V>,
    /// Per primary output: node slack at the sink terminal.
    pub po_slack: Vec<V>,
}

impl<V: Copy> Terminals<V> {
    /// Every terminal at `fill`.
    pub fn unset(replicas: usize, pis: usize, pos: usize, fill: V) -> Terminals<V> {
        Terminals {
            replica_in: vec![fill; replicas],
            replica_out: vec![fill; replicas],
            pi_slack: vec![fill; pis],
            po_slack: vec![fill; pos],
        }
    }

    /// Every terminal slack, in report order.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.replica_in
            .iter()
            .chain(&self.replica_out)
            .chain(&self.pi_slack)
            .chain(&self.po_slack)
    }

    /// The slack of terminal `t`, in report order.
    pub fn slot_mut(&mut self, t: usize) -> &mut V {
        let n = self.replica_in.len();
        let n_pi = self.pi_slack.len();
        match t {
            t if t < n => &mut self.replica_in[t],
            t if t < 2 * n => &mut self.replica_out[t - n],
            t if t < 2 * n + n_pi => &mut self.pi_slack[t - 2 * n],
            t => &mut self.po_slack[t - 2 * n - n_pi],
        }
    }

    /// The paper's global stop condition: every terminal slack strictly
    /// positive (decided in terminal order, short-circuiting).
    pub fn all_positive<A: Algebra<Val = V>>(&self, alg: &mut A) -> bool {
        self.iter().all(|&s| alg.gt_zero(s))
    }
}

impl Terminals {
    /// The worst terminal slack.
    pub fn worst(&self) -> Time {
        self.iter().copied().min().unwrap_or(Time::INF)
    }
}

/// The result of one full multi-pass slack evaluation at fixed offsets,
/// in the value algebra `V` (numeric unless stated): the terminal
/// slacks plus the tables a report reads.
pub(crate) struct SlackView<V = Time> {
    /// Ready/required tables, in engine-native form.
    pub storage: SlackStorage<V>,
    /// The terminal slacks.
    pub terms: Terminals<V>,
}

impl SlackView {
    /// Per net: the smallest scalar slack over all passes.
    pub fn net_slacks(&self, prep: &Prepared<'_>) -> Vec<Time> {
        match &self.storage {
            SlackStorage::Dense { net_slack, .. } => net_slack.clone(),
            SlackStorage::Sharded { items } => prep.net_slacks(&mut Numeric, items),
        }
    }

    /// The worst path into `net` in global pass `pass`, ending in the
    /// net's later transition. The reference engine traces it on its
    /// own graph and the pass's dense table; the sharded engine on the
    /// shard of the net's `(cluster, pass)` item and the item's local
    /// table. `None` when the net is not reached in the pass.
    pub fn critical_path(&self, prep: &Prepared<'_>, pass: usize, net: NetId) -> Option<Path> {
        let later = |at: RiseFall<Time>| match at.rise >= at.fall {
            true => Transition::Rise,
            false => Transition::Fall,
        };
        match &self.storage {
            SlackStorage::Dense { graph, ready, .. } => {
                let ready = &ready[pass];
                critical_path(graph, ready, net, later(ready[net.as_raw() as usize]))
            }
            SlackStorage::Sharded { items } => {
                let sharded = &prep.engine.sharded;
                let cluster = sharded.cluster_of(net);
                let i = (prep.engine.items.iter())
                    .position(|it| it.cluster == cluster.as_raw() && it.pass == pass)?;
                let ready = &items[i].ready;
                let local = sharded.local_of(net);
                let tr = later(ready[local as usize]);
                sharded.shard(cluster).critical_path(ready, local, tr)
            }
        }
    }
}

/// Forward reachability with accumulated max delay and path sense.
fn forward_reach(
    graph: &TimingGraph,
    seeds: &[NetId],
) -> (Vec<RiseFall<Time>>, Vec<Option<Sense>>) {
    let mut delay = vec![RiseFall::splat(Time::NEG_INF); graph.node_count()];
    let mut sense: Vec<Option<Sense>> = vec![None; graph.node_count()];
    for &net in seeds {
        delay[net.as_raw() as usize] = RiseFall::ZERO;
        sense[net.as_raw() as usize] = Some(Sense::Positive);
    }
    for &net in graph.topo() {
        let u = net.as_raw() as usize;
        let Some(su) = sense[u] else { continue };
        for &ai in graph.fanout_arcs(net) {
            let arc = graph.arc(ai);
            let v = arc.to.as_raw() as usize;
            let out = arc.sense.propagate(delay[u], arc.delay.max);
            delay[v] = delay[v].max(out);
            let through = su.then(arc.sense);
            sense[v] = Some(match sense[v] {
                None => through,
                Some(s) => s.merge(through),
            });
        }
    }
    (delay, sense)
}

/// Resolves an [`EdgeSpec`] against the clock set and timeline.
fn resolve_edge(
    clocks: &ClockSet,
    timeline: &Timeline,
    spec: &EdgeSpec,
) -> Result<EdgeId, AnalyzeError> {
    let clock = clocks
        .clock_by_name(&spec.clock)
        .ok_or_else(|| AnalyzeError::UnknownClock {
            clock: spec.clock.clone(),
        })?;
    let mut matching: Vec<EdgeId> = timeline
        .edges()
        .filter(|(_, e)| e.clock == clock && e.polarity == spec.transition)
        .map(|(id, _)| id)
        .collect();
    matching.sort_by_key(|id| timeline.edge_time(*id));
    matching
        .get(spec.occurrence as usize)
        .copied()
        .ok_or_else(|| AnalyzeError::EdgeOccurrenceOutOfRange {
            clock: spec.clock.clone(),
            occurrence: spec.occurrence,
        })
}

pub(crate) fn prepare<'a>(
    design: &'a Design,
    module: ModuleId,
    library: &'a Library,
    clocks: &ClockSet,
    spec: &Spec,
    options: AnalysisOptions,
) -> Result<Prepared<'a>, AnalyzeError> {
    if clocks.is_empty() {
        return Err(AnalyzeError::NoClocks);
    }
    // Wall time per preprocessing phase, visible on the daemon's
    // metrics endpoint. Spans are inert unless hb-obs is armed.
    let prep_phase = |phase: &'static str| {
        hb_obs::global()
            .histogram_with(
                "hb_prep_nanoseconds",
                "preprocessing wall time, by phase",
                &[("phase", phase)],
            )
            .span()
    };
    let graph_span = prep_phase("graph-build");
    let binding = Binding::new(design, library);
    let graph = TimingGraph::build(design, module, &binding, library)?;
    let timeline = clocks.timeline();
    let m = design.module(module);
    drop(graph_span);
    let control_span = prep_phase("controls-and-replicas");

    // --- clock ports -----------------------------------------------------
    let mut clock_sources: Vec<(NetId, ClockId)> = Vec::new();
    for (port, clock_name) in spec.clock_ports() {
        let pid = m
            .port_by_name(port)
            .ok_or_else(|| AnalyzeError::UnknownPort { port: port.into() })?;
        let clock = clocks
            .clock_by_name(clock_name)
            .ok_or_else(|| AnalyzeError::UnknownClock {
                clock: clock_name.into(),
            })?;
        clock_sources.push((m.port(pid).net(), clock));
    }

    // --- control path resolution ------------------------------------------
    // One reach per clock source; then each sync element must see exactly
    // one clock, monotonically.
    type Reach = (ClockId, Vec<RiseFall<Time>>, Vec<Option<Sense>>);
    let reaches: Vec<Reach> = clock_sources
        .iter()
        .map(|&(net, clock)| {
            let (d, s) = forward_reach(&graph, &[net]);
            (clock, d, s)
        })
        .collect();

    // Enable-path detection: control nets must not be reachable from
    // synchronising element outputs.
    let sync_outputs: Vec<NetId> = graph
        .syncs()
        .iter()
        .flat_map(|s| [s.output_net, s.output_bar_net])
        .flatten()
        .collect();
    let (_, from_sync_sense) = forward_reach(&graph, &sync_outputs);

    struct ControlInfo {
        clock: ClockId,
        cdel: Time,
        sense: Sense,
    }
    let mut controls: Vec<ControlInfo> = Vec::with_capacity(graph.syncs().len());
    for sync in graph.syncs() {
        let inst_name = || m.instance(sync.inst).name().to_owned();
        let cn = sync.control_net.as_raw() as usize;
        if from_sync_sense[cn].is_some() {
            return Err(AnalyzeError::EnablePath { inst: inst_name() });
        }
        let mut hit: Option<ControlInfo> = None;
        for (clock, delays, senses) in &reaches {
            if let Some(s) = senses[cn] {
                if hit.is_some() {
                    return Err(AnalyzeError::MultiClockControl { inst: inst_name() });
                }
                if s == Sense::NonUnate {
                    return Err(AnalyzeError::NonMonotonicControl { inst: inst_name() });
                }
                hit = Some(ControlInfo {
                    clock: *clock,
                    cdel: delays[cn].worst().max(Time::ZERO),
                    sense: s,
                });
            }
        }
        controls.push(hit.ok_or_else(|| AnalyzeError::UnclockedControl { inst: inst_name() })?);
    }

    // --- boundary points ---------------------------------------------------
    let clock_port_nets: Vec<NetId> = clock_sources.iter().map(|&(n, _)| n).collect();
    let default_edge = timeline
        .edges()
        .next()
        .map(|(id, _)| id)
        .expect("non-empty clock set has edges");
    let mut pis: Vec<Boundary> = Vec::new();
    let mut pos: Vec<Boundary> = Vec::new();
    for (_, port) in m.ports() {
        match port.dir() {
            PinDir::Input => {
                if clock_port_nets.contains(&port.net()) {
                    continue;
                }
                let (edge, offset) = match spec.arrival_for_port(port.name()) {
                    Some((es, off)) => (resolve_edge(clocks, &timeline, es)?, off),
                    None => (default_edge, Time::ZERO),
                };
                pis.push(Boundary {
                    port: port.name().to_owned(),
                    net: port.net(),
                    edge,
                    offset,
                });
            }
            PinDir::Output => {
                if let Some((es, off)) = spec.required_for_port(port.name()) {
                    pos.push(Boundary {
                        port: port.name().to_owned(),
                        net: port.net(),
                        edge: resolve_edge(clocks, &timeline, es)?,
                        offset: off,
                    });
                }
            }
        }
    }
    // Unknown port names in the spec are errors even when unused.
    for (port, _, _) in spec.input_arrivals() {
        if m.port_by_name(port).is_none() {
            return Err(AnalyzeError::UnknownPort { port: port.into() });
        }
    }
    for (port, _, _) in spec.output_requireds() {
        if m.port_by_name(port).is_none() {
            return Err(AnalyzeError::UnknownPort { port: port.into() });
        }
    }

    // --- replicas -----------------------------------------------------------
    let mut replicas: Vec<Replica> = Vec::new();
    let mut replica_period: Vec<Time> = Vec::new();
    for (sync_index, sync) in graph.syncs().iter().enumerate() {
        let ctrl = &controls[sync_index];
        let cell = library.cell(sync.cell);
        let cspec = cell.sync_spec().expect("sync instances have sync cells");
        let effective = ctrl.sense.then(cspec.control_sense);
        let transparent =
            cspec.kind.is_transparent() && options.latch_model == LatchModel::Transparent;
        // One output driver stage serves both outputs; evaluate it at the
        // heavier of the two loads (pessimistic-safe).
        let out_extra = cspec
            .output_delay
            .eval(sync.output_load_ff.max(sync.output_bar_load_ff))
            .max
            .worst();
        for pulse in timeline.pulses(ctrl.clock, effective) {
            let assert_edge = if transparent { pulse.lead } else { pulse.trail };
            let mut replica = Replica::new(
                sync.inst,
                sync_index,
                pulse.index,
                cspec.kind,
                assert_edge,
                pulse.trail,
                sync.data_net,
                sync.output_net,
                ReplicaTiming {
                    width: pulse.width,
                    setup: cspec.setup,
                    hold: cspec.hold,
                    d_cx: cspec.d_cx,
                    d_dx: cspec.d_dx,
                    cdel: ctrl.cdel,
                    out_extra,
                },
                transparent,
            );
            if let Some(bar) = sync.output_bar_net {
                replica = replica.with_output_bar(bar);
            }
            replicas.push(replica);
            replica_period.push(clocks.clock(ctrl.clock).period());
        }
    }

    drop(control_span);
    let plan_span = prep_phase("pass-planning");

    // --- ordering requirements per cluster ----------------------------------
    // Distinct assertion edges get bit positions; bitmasks flow forward.
    let mut edge_bits: HashMap<EdgeId, usize> = HashMap::new();
    let mut bit_edges: Vec<EdgeId> = Vec::new();
    let mut seeds: Vec<(NetId, EdgeId)> = Vec::new();
    for r in &replicas {
        for out in [r.output_net, r.output_bar_net].into_iter().flatten() {
            seeds.push((out, r.assert_edge));
        }
    }
    for pi in &pis {
        seeds.push((pi.net, pi.edge));
    }
    for &(_, edge) in &seeds {
        edge_bits.entry(edge).or_insert_with(|| {
            bit_edges.push(edge);
            bit_edges.len() - 1
        });
    }
    let blocks = bit_edges.len().div_ceil(64).max(1);
    let mut masks: Vec<u64> = vec![0; graph.node_count() * blocks];
    for &(net, edge) in &seeds {
        let bit = edge_bits[&edge];
        masks[net.as_raw() as usize * blocks + bit / 64] |= 1 << (bit % 64);
    }
    for &net in graph.topo() {
        let u = net.as_raw() as usize;
        for &ai in graph.fanout_arcs(net) {
            let v = graph.arc(ai).to.as_raw() as usize;
            for b in 0..blocks {
                let bits = masks[u * blocks + b];
                masks[v * blocks + b] |= bits;
            }
        }
    }
    let reaching_edges = |net: NetId| -> Vec<EdgeId> {
        let u = net.as_raw() as usize;
        let mut edges = Vec::new();
        for b in 0..blocks {
            let mut bits = masks[u * blocks + b];
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                edges.push(bit_edges[b * 64 + i]);
                bits &= bits - 1;
            }
        }
        edges
    };

    let cluster_count = graph.clusters().count();
    let mut cluster_reqs: Vec<Vec<Requirement>> = vec![Vec::new(); cluster_count];
    let mut cluster_active = vec![false; cluster_count];
    for &(net, _) in &seeds {
        cluster_active[graph.cluster_of(net).as_raw() as usize] = true;
    }
    let mut add_reqs = |net: NetId, close_edge: EdgeId| {
        let c = graph.cluster_of(net).as_raw() as usize;
        cluster_active[c] = true;
        for assert_edge in reaching_edges(net) {
            cluster_reqs[c].push(Requirement {
                assert_edge,
                close_edge,
            });
        }
    };
    for r in &replicas {
        add_reqs(r.data_net, r.close_edge);
    }
    for po in &pos {
        add_reqs(po.net, po.edge);
    }

    // --- pass plans ----------------------------------------------------------
    let egraph = EdgeGraph::new(&timeline);
    let mut plans: Vec<Option<PassPlan>> = Vec::with_capacity(cluster_count);
    let mut requirements = 0usize;
    for c in 0..cluster_count {
        if cluster_active[c] {
            requirements += cluster_reqs[c].len();
            plans.push(Some(egraph.minimal_passes(&cluster_reqs[c])));
        } else {
            plans.push(None);
        }
    }
    let mut passes: Vec<Time> = Vec::new();
    let mut pass_index: HashMap<Time, usize> = HashMap::new();
    let mut cluster_passes: Vec<Vec<usize>> = vec![Vec::new(); cluster_count];
    for (c, plan) in plans.iter().enumerate() {
        if let Some(plan) = plan {
            for &s in plan.starts() {
                let idx = *pass_index.entry(s).or_insert_with(|| {
                    passes.push(s);
                    passes.len() - 1
                });
                cluster_passes[c].push(idx);
            }
        }
    }
    let assigned_pass = |net: NetId, close_edge: EdgeId| -> usize {
        let c = graph.cluster_of(net).as_raw() as usize;
        let plan = plans[c].as_ref().expect("sink clusters are active");
        let local = plan.pass_for_closure(timeline.edge_time(close_edge));
        pass_index[&plan.starts()[local]]
    };
    let replica_pass: Vec<usize> = replicas
        .iter()
        .map(|r| assigned_pass(r.data_net, r.close_edge))
        .collect();
    let po_pass: Vec<usize> = pos.iter().map(|p| assigned_pass(p.net, p.edge)).collect();

    let stats = PrepStats {
        active_clusters: cluster_active.iter().filter(|&&a| a).count(),
        requirements,
        total_cluster_passes: plans.iter().flatten().map(|p| p.pass_count()).sum(),
        max_cluster_passes: plans
            .iter()
            .flatten()
            .map(|p| p.pass_count())
            .max()
            .unwrap_or(0),
        global_passes: passes.len(),
    };

    let engine = Engine::new(
        &graph,
        &timeline,
        &passes,
        &cluster_passes,
        &replicas,
        &replica_pass,
        &pis,
        &pos,
        &po_pass,
    );
    drop(plan_span);

    let mut prep = Prepared {
        design,
        module,
        library,
        timeline,
        options,
        replicas,
        pis,
        pos,
        passes,
        cluster_passes,
        replica_pass,
        po_pass,
        engine,
        stats,
        min_delays: Vec::new(),
    };
    // The check reads no offset: on the initial replicas it gives the
    // answer it would after Algorithm 1. The graph is dropped on return.
    if options.check_min_delays {
        prep.min_delays = check_min_delays(&prep, &graph, &replica_period);
    }
    Ok(prep)
}

impl Prepared<'_> {
    /// Every reported terminal in report order — each replica's data
    /// input, then its output when Q or QN is connected; primary
    /// inputs; primary outputs — as `(kind, name, pulse, index)`,
    /// `index` being the terminal's position in [`Terminals::iter`].
    pub fn terminals(&self) -> Vec<(TerminalKind, String, u32, usize)> {
        let module = self.design.module(self.module);
        let (n, n_pi) = (self.replicas.len(), self.pis.len());
        let mut out = Vec::new();
        let mut push =
            |kind, name: &str, pulse, index| out.push((kind, name.to_owned(), pulse, index));
        for (k, r) in self.replicas.iter().enumerate() {
            let name = module.instance(r.inst).name();
            push(TerminalKind::SyncInput, name, r.pulse_index, k);
            if r.output_net.is_some() || r.output_bar_net.is_some() {
                push(TerminalKind::SyncOutput, name, r.pulse_index, n + k);
            }
        }
        for (k, pi) in self.pis.iter().enumerate() {
            push(TerminalKind::PrimaryInput, &pi.port, 0, 2 * n + k);
        }
        for (k, po) in self.pos.iter().enumerate() {
            push(TerminalKind::PrimaryOutput, &po.port, 0, 2 * n + n_pi + k);
        }
        out
    }

    /// Whether `net`'s cluster in `graph` participates in global pass
    /// `p`. Clusters are numbered deterministically, so the shards'
    /// numbering indexes the reference engine's own graph too.
    fn in_pass(&self, graph: &TimingGraph, net: NetId, p: usize) -> bool {
        self.cluster_passes[graph.cluster_of(net).as_raw() as usize].contains(&p)
    }

    /// Algorithm 2's constraints: the settled ready times of the
    /// backward-snatch view and the settled required times of the
    /// forward-snatch view. The sharded engine's tables are shared, not
    /// copied into dense per-pass tables.
    pub fn constraints(&self, ready: SlackView, required: SlackView) -> TimingConstraints {
        let tables = match (ready.storage, required.storage) {
            (SlackStorage::Sharded { items: r }, SlackStorage::Sharded { items: q }) => {
                ConstraintTables::Sharded {
                    nets: Arc::new(self.engine.net_items()),
                    ready: r,
                    required: q,
                }
            }
            (SlackStorage::Dense { ready: r, .. }, SlackStorage::Dense { required: q, .. }) => {
                ConstraintTables::Dense {
                    ready: r,
                    required: q,
                }
            }
            _ => unreachable!("both views come from one engine"),
        };
        TimingConstraints::new(self.passes.clone(), tables)
    }

    /// Per net: the smallest scalar slack `required − ready` over every
    /// item (pass) the net's cluster takes part in. Assembled once, from
    /// the final view — no intermediate view of Algorithm 1 reads it.
    pub fn net_slacks<A: Algebra>(
        &self,
        alg: &mut A,
        items: &[Arc<ItemTables<A::Val>>],
    ) -> Vec<A::Val> {
        let mut out = vec![A::INF; self.engine.sharded.node_count()];
        for (item, t) in self.engine.items.iter().zip(items) {
            let shard = self
                .engine
                .sharded
                .shard(hb_sta::ClusterId::from_raw(item.cluster));
            for (l, &net) in shard.nets().iter().enumerate() {
                let s = alg.slack(t.required[l], t.ready[l]);
                let slot = &mut out[net.as_raw() as usize];
                *slot = alg.min(*slot, s);
            }
        }
        out
    }

    /// The reference evaluation on the reference engine's own `graph`:
    /// dense whole-graph sweeps per pass, single-threaded. Kept verbatim
    /// for differential testing and as the benchmark baseline.
    pub fn compute_slacks_reference(
        &self,
        graph: &Arc<TimingGraph>,
        replicas: &[Replica],
    ) -> SlackView {
        let pass_count = self.passes.len();
        let mut ready_tables: Vec<TimeTable> = Vec::with_capacity(pass_count);
        let mut required_tables: Vec<TimeTable> = Vec::with_capacity(pass_count);
        let mut net_slack = vec![Time::INF; graph.node_count()];
        let mut terms = Terminals::unset(replicas.len(), self.pis.len(), self.pos.len(), Time::INF);
        for (p, &start) in self.passes.iter().enumerate() {
            let mut ready = table(graph, Time::NEG_INF);
            for r in replicas {
                for out in [r.output_net, r.output_bar_net].into_iter().flatten() {
                    if self.in_pass(graph, out, p) {
                        let at = pos_assert(&self.timeline, start, r.assert_edge)
                            + r.output_assert_offset();
                        let slot = &mut ready[out.as_raw() as usize];
                        *slot = (*slot).max(RiseFall::splat(at));
                    }
                }
            }
            for pi in &self.pis {
                if self.in_pass(graph, pi.net, p) {
                    let at = pos_assert(&self.timeline, start, pi.edge) + pi.offset;
                    let slot = &mut ready[pi.net.as_raw() as usize];
                    *slot = (*slot).max(RiseFall::splat(at));
                }
            }
            propagate_ready_max(graph, &mut ready);

            let mut required = table(graph, Time::INF);
            for (k, r) in replicas.iter().enumerate() {
                if self.replica_pass[k] == p {
                    let at =
                        pos_close(&self.timeline, start, r.close_edge) + r.input_close_offset();
                    let slot = &mut required[r.data_net.as_raw() as usize];
                    *slot = (*slot).min(RiseFall::splat(at));
                }
            }
            for (k, po) in self.pos.iter().enumerate() {
                if self.po_pass[k] == p {
                    let at = pos_close(&self.timeline, start, po.edge) + po.offset;
                    let slot = &mut required[po.net.as_raw() as usize];
                    *slot = (*slot).min(RiseFall::splat(at));
                }
            }
            propagate_required(graph, &mut required);

            let slacks = slack_table(&ready, &required);
            for (i, s) in slacks.iter().enumerate() {
                let sc = scalar_slack(*s);
                if sc < net_slack[i] {
                    net_slack[i] = sc;
                }
            }
            // Terminal slacks: sinks use their own closure seed against
            // the pass arrival; sources read the net slack at their
            // output in participating passes.
            for (k, r) in replicas.iter().enumerate() {
                if self.replica_pass[k] == p {
                    let close =
                        pos_close(&self.timeline, start, r.close_edge) + r.input_close_offset();
                    let arrive = ready[r.data_net.as_raw() as usize].worst();
                    let s = close.saturating_sub(arrive);
                    terms.replica_in[k] = terms.replica_in[k].min(s);
                }
                for out in [r.output_net, r.output_bar_net].into_iter().flatten() {
                    if self.in_pass(graph, out, p) {
                        let s = scalar_slack(slacks[out.as_raw() as usize]);
                        terms.replica_out[k] = terms.replica_out[k].min(s);
                    }
                }
            }
            for (k, pi) in self.pis.iter().enumerate() {
                if self.in_pass(graph, pi.net, p) {
                    let s = scalar_slack(slacks[pi.net.as_raw() as usize]);
                    terms.pi_slack[k] = terms.pi_slack[k].min(s);
                }
            }
            for (k, po) in self.pos.iter().enumerate() {
                if self.po_pass[k] == p {
                    let close = pos_close(&self.timeline, start, po.edge) + po.offset;
                    let arrive = ready[po.net.as_raw() as usize].worst();
                    terms.po_slack[k] = terms.po_slack[k].min(close.saturating_sub(arrive));
                }
            }

            ready_tables.push(ready);
            required_tables.push(required);
        }
        SlackView {
            storage: SlackStorage::Dense {
                graph: graph.clone(),
                ready: ready_tables,
                required: required_tables,
                net_slack,
            },
            terms,
        }
    }
}

/// The numeric slack evaluations of one analysis call, by the
/// configured engine: the sharded engine incrementally on the prepared
/// shards, each evaluation starting from the previous one and going
/// through the caller's cache; the reference engine densely, from
/// scratch, on a whole graph of its own that it builds from the design
/// when the analysis opens, so the oracle shares no structure with the
/// shards.
pub(crate) struct Evaluator<'e, 'a> {
    prep: &'e Prepared<'a>,
    cache: &'e mut SlackCache,
    cycles: Cycles,
    /// The reference engine's own graph.
    graph: Option<Arc<TimingGraph>>,
    /// The reference engine's last view.
    dense: Option<SlackView>,
}

impl<'e, 'a> Evaluator<'e, 'a> {
    /// Opens an analysis of `prep` through `cache`.
    pub fn new(prep: &'e Prepared<'a>, cache: &'e mut SlackCache) -> Evaluator<'e, 'a> {
        let graph = match prep.options.engine {
            EngineKind::Reference => {
                let (design, library) = (prep.design, prep.library);
                let binding = Binding::new(design, library);
                let graph = TimingGraph::build(design, prep.module, &binding, library)
                    .expect("preparation built this design's graph");
                Some(Arc::new(graph))
            }
            EngineKind::Sharded => {
                cache.begin();
                None
            }
        };
        Evaluator {
            prep,
            cache,
            cycles: Cycles::new::<Numeric>(&prep.engine),
            graph,
            dense: None,
        }
    }

    /// The report view of the last evaluation, full tables included.
    pub fn view(&mut self) -> SlackView {
        match self.prep.options.engine {
            EngineKind::Reference => self.dense.take().expect("a view follows an evaluation"),
            EngineKind::Sharded => {
                let threads = self.prep.options.effective_threads();
                let items = (self.prep.engine).materialise(&self.cycles, self.cache, threads);
                SlackView {
                    storage: SlackStorage::Sharded { items },
                    terms: self.cycles.terms.clone(),
                }
            }
        }
    }

    /// Closes the analysis on the cache.
    pub fn finish(self) {
        if self.prep.options.engine == EngineKind::Sharded {
            self.cache.finish();
        }
    }
}

impl Evaluate<Numeric> for Evaluator<'_, '_> {
    fn evaluate(&mut self, _: &mut Numeric, replicas: &[Replica]) -> &Terminals {
        match self.prep.options.engine {
            EngineKind::Reference => {
                let graph = self.graph.as_ref().expect("built when the analysis opened");
                let view = self.prep.compute_slacks_reference(graph, replicas);
                &self.dense.insert(view).terms
            }
            EngineKind::Sharded => {
                // Every participating `(cluster, pass)` pair whose seeds
                // moved is swept over its compact shard — in parallel
                // when `AnalysisOptions::threads` allows, and skipped
                // entirely when `cache` still holds it.
                let offs = offsets(&mut Numeric, replicas);
                let threads = self.prep.options.effective_threads();
                (self.prep.engine).evaluate(offs, &mut self.cycles, self.cache, threads);
                &self.cycles.terms
            }
        }
    }
}
