//! Path extraction and the path-enumeration baseline.
//!
//! The block method reports node slacks without materializing paths; for
//! re-synthesis guidance and for reporting, the analyzer still needs the
//! actual worst path through a violating endpoint: [`critical_path`]
//! traces it over the whole graph and a dense ready table, and
//! [`ClusterShard::critical_path`](crate::ClusterShard::critical_path)
//! over one cluster's shard and its local table, both by one walk. For
//! the ablation study, [`enumerate_max_arrival`] reproduces the naive
//! path-enumeration procedure that the paper calls "computationally
//! expensive" and rejects in favour of the block method.

use hb_netlist::{InstId, NetId};
use hb_units::{RiseFall, Sense, Time, Transition};

use crate::analysis::TimeTable;
use crate::graph::TimingGraph;

/// One step of an extracted path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The net reached.
    pub net: NetId,
    /// The instance whose arc produced this step (`None` at the path
    /// origin).
    pub inst: Option<InstId>,
    /// The transition direction at the net.
    pub transition: Transition,
    /// The arrival time at the net.
    pub time: Time,
}

/// A source-to-sink combinational path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Path {
    /// The steps from source to sink, inclusive.
    pub steps: Vec<PathStep>,
}

impl Path {
    /// The total path delay (sink arrival minus source arrival).
    ///
    /// # Panics
    ///
    /// Panics on an empty path.
    pub fn delay(&self) -> Time {
        let first = self.steps.first().expect("non-empty path");
        let last = self.steps.last().expect("non-empty path");
        last.time - first.time
    }

    /// The source net.
    ///
    /// # Panics
    ///
    /// Panics on an empty path.
    pub fn source(&self) -> NetId {
        self.steps.first().expect("non-empty path").net
    }

    /// The sink net.
    ///
    /// # Panics
    ///
    /// Panics on an empty path.
    pub fn sink(&self) -> NetId {
        self.steps.last().expect("non-empty path").net
    }
}

/// Traces the worst path that establishes `ready[sink][transition]`,
/// walking backwards over arcs whose delays exactly explain the arrival
/// times (the standard block-method path recovery).
///
/// Returns `None` if the sink was never reached (sentinel arrival).
pub fn critical_path(
    graph: &TimingGraph,
    ready: &TimeTable,
    sink: NetId,
    transition: Transition,
) -> Option<Path> {
    let fanin = |net: NetId| {
        graph.fanin_arcs(net).iter().map(|&ai| {
            let arc = graph.arc(ai);
            (arc.from, arc.sense, arc.delay.max, arc.inst)
        })
    };
    trace(
        sink,
        transition,
        |net: NetId| ready[net.as_raw() as usize],
        fanin,
        |net| net,
    )
}

/// The walk behind [`critical_path`] and
/// [`ClusterShard::critical_path`](crate::ClusterShard::critical_path),
/// over any node numbering: `ready` reads a node's arrivals, `fanin`
/// lists its incoming arcs as `(from, sense, max delay, instance)`, and
/// `net` names its net. At each node the first arc in fanin order that
/// explains the arrival is taken, so two numberings that list each
/// net's fanin in the same order trace the same path.
pub(crate) fn trace<N, I>(
    sink: N,
    transition: Transition,
    ready: impl Fn(N) -> RiseFall<Time>,
    fanin: impl Fn(N) -> I,
    net: impl Fn(N) -> NetId,
) -> Option<Path>
where
    N: Copy,
    I: Iterator<Item = (N, Sense, RiseFall<Time>, InstId)>,
{
    let mut time = ready(sink)[transition];
    if !time.is_finite() {
        return None;
    }
    let mut steps = vec![PathStep {
        net: net(sink),
        inst: None,
        transition,
        time,
    }];
    let (mut node, mut tr) = (sink, transition);
    let explaining = |node: N, tr: Transition, time: Time| {
        fanin(node).find_map(|(from, sense, delay, inst)| {
            paired(sense, tr).iter().find_map(|&tr_in| {
                let at_in = ready(from)[tr_in];
                let explains = at_in.is_finite() && at_in.saturating_add(delay[tr]) == time;
                explains.then_some((from, tr_in, at_in, inst))
            })
        })
    };
    while let Some((from, tr_in, at_in, inst)) = explaining(node, tr, time) {
        // Attribute the traversed instance to the step already recorded
        // at `node`.
        steps.last_mut().expect("at least the sink").inst = Some(inst);
        steps.push(PathStep {
            net: net(from),
            inst: None,
            transition: tr_in,
            time: at_in,
        });
        (node, tr, time) = (from, tr_in, at_in);
    }
    steps.reverse();
    Some(Path { steps })
}

/// The transitions at one end of an arc of unateness `sense` that pair
/// with `tr` at its other end (the relation is symmetric).
fn paired(sense: Sense, tr: Transition) -> &'static [Transition] {
    match (sense, tr) {
        (Sense::NonUnate, _) => &Transition::BOTH,
        (Sense::Positive, Transition::Rise) | (Sense::Negative, Transition::Fall) => {
            &[Transition::Rise]
        }
        _ => &[Transition::Fall],
    }
}

/// Statistics from a path enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Source-to-endpoint paths visited (per transition direction).
    pub paths: u64,
    /// Whether the run stopped at the path limit.
    pub truncated: bool,
}

/// Computes maximum arrival times by *enumerating every path* from the
/// seeded nets — the expensive baseline the paper's block method
/// replaces. Arrivals match [`crate::analysis::propagate_ready_max`]
/// exactly (when not truncated); only the cost differs.
///
/// Stops after visiting `limit` paths and sets
/// [`EnumerationStats::truncated`].
pub fn enumerate_max_arrival(
    graph: &TimingGraph,
    seeds: &[(NetId, RiseFall<Time>)],
    limit: u64,
) -> (TimeTable, EnumerationStats) {
    let mut ready = vec![RiseFall::splat(Time::NEG_INF); graph.node_count()];
    let mut stats = EnumerationStats::default();
    for &(net, at) in seeds {
        let slot = &mut ready[net.as_raw() as usize];
        *slot = (*slot).max(at);
    }
    for &(net, at) in seeds {
        for tr in Transition::BOTH {
            if at[tr].is_finite() {
                dfs(graph, net, tr, at[tr], &mut ready, &mut stats, limit);
            }
        }
    }
    (ready, stats)
}

fn dfs(
    graph: &TimingGraph,
    net: NetId,
    tr: Transition,
    time: Time,
    ready: &mut TimeTable,
    stats: &mut EnumerationStats,
    limit: u64,
) {
    if stats.paths >= limit {
        stats.truncated = true;
        return;
    }
    let slot = &mut ready[net.as_raw() as usize][tr];
    if time > *slot {
        *slot = time;
    }
    let mut extended = false;
    for &ai in graph.fanout_arcs(net) {
        let arc = graph.arc(ai);
        for &tr_out in paired(arc.sense, tr) {
            extended = true;
            dfs(
                graph,
                arc.to,
                tr_out,
                time.saturating_add(arc.delay.max[tr_out]),
                ready,
                stats,
                limit,
            );
        }
    }
    if !extended {
        stats.paths += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{propagate_ready_max, table};
    use hb_cells::{sc89, Binding, Library};
    use hb_netlist::{Design, ModuleId, PinDir};

    /// A 3-deep reconvergent ladder with mixed senses.
    fn ladder() -> (Design, ModuleId, Library) {
        let lib = sc89();
        let mut d = Design::new("ladder");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let nand = d.leaf_by_name("NAND2_X1").unwrap();
        let xor = d.leaf_by_name("XOR2_X1").unwrap();
        // Give the first stage two distinct inputs so no gate ever sees
        // the same net on both pins (parallel same-pin-pair arcs would
        // make legitimately duplicate-looking paths).
        let a2 = d.add_net(m, "a2").unwrap();
        let pre = d.add_leaf_instance(m, "pre", inv).unwrap();
        d.connect(m, pre, "A", a).unwrap();
        d.connect(m, pre, "Y", a2).unwrap();
        let mut prev = (a, a2);
        for i in 0..3 {
            let n1 = d.add_net(m, format!("l{i}a")).unwrap();
            let n2 = d.add_net(m, format!("l{i}b")).unwrap();
            let u1 = d.add_leaf_instance(m, format!("inv{i}"), inv).unwrap();
            d.connect(m, u1, "A", prev.0).unwrap();
            d.connect(m, u1, "Y", n1).unwrap();
            let u2 = d
                .add_leaf_instance(m, format!("mix{i}"), if i == 1 { xor } else { nand })
                .unwrap();
            d.connect(m, u2, "A", prev.0).unwrap();
            d.connect(m, u2, "B", prev.1).unwrap();
            d.connect(m, u2, "Y", n2).unwrap();
            prev = (n1, n2);
        }
        d.set_top(m).unwrap();
        (d, m, lib)
    }

    #[test]
    fn enumeration_matches_block_method() {
        let (d, m, lib) = ladder();
        let binding = Binding::new(&d, &lib);
        let g = crate::TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let a = d.module(m).net_by_name("a").unwrap();

        let mut block = table(&g, Time::NEG_INF);
        block[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut block);

        let (enumerated, stats) = enumerate_max_arrival(&g, &[(a, RiseFall::ZERO)], u64::MAX);
        assert!(!stats.truncated);
        assert!(stats.paths > 1);
        assert_eq!(enumerated, block, "both methods agree on arrivals");
    }

    #[test]
    fn enumeration_truncates_at_limit() {
        let (d, m, lib) = ladder();
        let binding = Binding::new(&d, &lib);
        let g = crate::TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let a = d.module(m).net_by_name("a").unwrap();
        let (_, stats) = enumerate_max_arrival(&g, &[(a, RiseFall::ZERO)], 1);
        assert!(stats.truncated);
    }

    #[test]
    fn critical_path_walks_to_a_seed() {
        let (d, m, lib) = ladder();
        let binding = Binding::new(&d, &lib);
        let g = crate::TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let module = d.module(m);
        let a = module.net_by_name("a").unwrap();
        let sink = module.net_by_name("l2b").unwrap();

        let mut ready = table(&g, Time::NEG_INF);
        ready[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut ready);

        let path = critical_path(&g, &ready, sink, Transition::Rise).expect("reached");
        assert_eq!(path.source(), a);
        assert_eq!(path.sink(), sink);
        assert_eq!(path.delay(), ready[sink.as_raw() as usize].rise);
        // Arrival times increase monotonically along the path, and every
        // step after the origin names the instance that produced it.
        for pair in path.steps.windows(2) {
            assert!(pair[0].time <= pair[1].time);
            assert!(
                pair[1].inst.is_some(),
                "non-origin steps name their instance"
            );
        }
        assert!(path.steps.first().unwrap().inst.is_none());
    }

    #[test]
    fn critical_path_none_for_unreached() {
        let (d, m, lib) = ladder();
        let binding = Binding::new(&d, &lib);
        let g = crate::TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let sink = d.module(m).net_by_name("l2b").unwrap();
        let ready = table(&g, Time::NEG_INF);
        assert_eq!(critical_path(&g, &ready, sink, Transition::Rise), None);
    }
}
