//! Cluster-sharded CSR subgraphs for per-`(cluster, pass)` sweeps.
//!
//! The dense tables in [`crate::analysis`] span the whole graph even
//! though every sweep only ever moves values *within* one cluster (arcs
//! never cross cluster boundaries by construction). A [`ShardedGraph`]
//! re-packs each cluster into a compact subgraph with local node
//! indices in topological order and CSR fanin/fanout arc arrays, so a
//! per-cluster sweep touches `O(cluster)` memory instead of
//! `O(graph)` — and independent `(cluster, pass)` sweeps can run on
//! different threads without sharing mutable state.
//!
//! The local sweeps are written once over an [`Algebra`]. In the
//! [`Numeric`](crate::Numeric) instance they perform exactly the
//! operations of [`crate::analysis::propagate_ready_max`] and
//! [`crate::analysis::propagate_required`]; because all merges are
//! exact `i64` max/min, a local sweep scattered back into a dense table
//! is bit-identical to the whole-graph sweep.
//!
//! A [`ShardedGraph`] stands alone once built: it knows each net's
//! cluster and local index, and each shard keeps its arcs in the whole
//! graph's arc order, so [`ClusterShard::critical_path`] traces in a
//! local ready table the path [`crate::paths::critical_path`] traces in
//! the dense one. A prepared analysis holds the shards and drops the
//! [`TimingGraph`] they came from.

use hb_netlist::{InstId, NetId};
use hb_units::{RiseFall, Time, Transition};

use crate::algebra::Algebra;
use crate::graph::{ClusterId, TimingGraph};
use crate::paths::{trace, Path};

/// One arc of a [`ClusterShard`], with endpoints as local indices, the
/// max-delay half and the contributing instance. The min-delay half is
/// left out: only the supplementary (min-delay) check reads it, on the
/// whole graph, while preparation still holds that.
#[derive(Clone, Copy, Debug)]
pub struct LocalArc {
    /// Local index of the driving net.
    pub from: u32,
    /// Local index of the driven net.
    pub to: u32,
    /// The contributing instance.
    pub inst: InstId,
    /// The arc's unateness.
    pub sense: hb_units::Sense,
    /// The arc's maximum rise/fall delay.
    pub delay_max: RiseFall<Time>,
}

/// A compact per-cluster subgraph: nets renumbered to `0..len` in
/// topological order, arcs in CSR form.
#[derive(Clone, Debug)]
pub struct ClusterShard {
    cluster: ClusterId,
    /// Local index → global net, in topological order.
    nets: Vec<NetId>,
    arcs: Vec<LocalArc>,
    /// CSR heads over local nodes into `fanout_arcs` (len `len + 1`).
    fanout_heads: Vec<u32>,
    fanout_arcs: Vec<u32>,
    /// CSR heads over local nodes into `fanin_arcs` (len `len + 1`).
    fanin_heads: Vec<u32>,
    fanin_arcs: Vec<u32>,
}

impl ClusterShard {
    /// The cluster this shard packs.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The number of member nets.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Whether the cluster has no member nets.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// The number of member arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Member nets in topological order; position is the local index.
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// A local table filled with the given sentinel.
    pub fn table<V: Clone>(&self, fill: V) -> Vec<RiseFall<V>> {
        vec![RiseFall::splat(fill); self.nets.len()]
    }

    /// Forward maximum-arrival sweep over the shard — the local
    /// equivalent of [`crate::analysis::propagate_ready_max`]. Seeds
    /// must already be placed; unreached nodes keep `A::NEG_INF`.
    pub fn sweep_ready_max<A: Algebra>(&self, alg: &mut A, ready: &mut [RiseFall<A::Val>]) {
        debug_assert_eq!(ready.len(), self.nets.len());
        for u in 0..self.nets.len() {
            let at = ready[u];
            if at.rise == A::NEG_INF && at.fall == A::NEG_INF {
                continue;
            }
            let arcs =
                &self.fanout_arcs[self.fanout_heads[u] as usize..self.fanout_heads[u + 1] as usize];
            for &ai in arcs {
                let arc = &self.arcs[ai as usize];
                let out = alg.propagate(arc.sense, at, arc.delay_max);
                let slot = &mut ready[arc.to as usize];
                *slot = alg.max_rf(*slot, out);
            }
        }
    }

    /// A structural fingerprint of the shard's timing content: member
    /// nets, arc topology, arc senses and max delays. Two shards with
    /// equal fingerprints sweep seeded tables identically, so a cached
    /// sweep result is reusable across design edits iff the fingerprint
    /// (and the dynamic seed values) did not change. An ECO that
    /// retargets a drive or rescales a net load changes the affected
    /// arc delays and therefore this hash; untouched clusters keep
    /// theirs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = hb_rng::mix64(0x6875_6d6d_6269_7264, self.nets.len() as u64);
        for &net in &self.nets {
            h = hb_rng::mix64(h, net.as_raw() as u64);
        }
        h = hb_rng::mix64(h, self.arcs.len() as u64);
        for arc in &self.arcs {
            h = hb_rng::mix64(h, (arc.from as u64) << 32 | arc.to as u64);
            h = hb_rng::mix64(h, arc.sense as u64);
            h = hb_rng::mix64(h, arc.delay_max.rise.as_ps() as u64);
            h = hb_rng::mix64(h, arc.delay_max.fall.as_ps() as u64);
        }
        h
    }

    /// Backward required-time sweep over the shard — the local
    /// equivalent of [`crate::analysis::propagate_required`].
    /// Unconstrained nodes keep `A::INF`.
    pub fn sweep_required<A: Algebra>(&self, alg: &mut A, required: &mut [RiseFall<A::Val>]) {
        debug_assert_eq!(required.len(), self.nets.len());
        for v in (0..self.nets.len()).rev() {
            let req_out = required[v];
            if req_out.rise == A::INF && req_out.fall == A::INF {
                continue;
            }
            for arc in self.fanin(v) {
                let req_in = alg.required_backward(arc.sense, req_out, arc.delay_max);
                let slot = &mut required[arc.from as usize];
                *slot = alg.min_rf(*slot, req_in);
            }
        }
    }

    /// The arcs driving local node `v`, in the whole graph's arc order.
    fn fanin(&self, v: usize) -> impl Iterator<Item = &LocalArc> {
        let arcs = &self.fanin_arcs[self.fanin_heads[v] as usize..self.fanin_heads[v + 1] as usize];
        arcs.iter().map(|&ai| &self.arcs[ai as usize])
    }

    /// Traces the worst path that establishes `ready[sink][transition]`
    /// in a swept local ready table — [`crate::paths::critical_path`]
    /// on the shard, with `sink` a local index. Each net's fanin keeps
    /// the whole graph's order, so the path is the one the dense tracer
    /// finds in a dense table holding the same values.
    ///
    /// Returns `None` if the sink was never reached (sentinel arrival).
    pub fn critical_path(
        &self,
        ready: &[RiseFall<Time>],
        sink: u32,
        transition: Transition,
    ) -> Option<Path> {
        let fanin = |v: u32| {
            (self.fanin(v as usize)).map(|arc| (arc.from, arc.sense, arc.delay_max, arc.inst))
        };
        trace(
            sink,
            transition,
            |v: u32| ready[v as usize],
            fanin,
            |v| self.nets[v as usize],
        )
    }
}

/// The whole graph partitioned into per-cluster shards.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    shards: Vec<ClusterShard>,
    /// Global net raw index → its cluster.
    cluster_of: Vec<ClusterId>,
    /// Global net raw index → local index within its cluster.
    local_of: Vec<u32>,
}

impl ShardedGraph {
    /// Partitions `graph` into one shard per cluster, numbered as the
    /// graph numbers its clusters. Every net appears in exactly one
    /// shard; every arc stays within its shard, and a shard keeps its
    /// arcs in the graph's arc order.
    pub fn new(graph: &TimingGraph) -> ShardedGraph {
        let cluster_count = graph.clusters().count();
        // Count per-cluster arcs up front so each shard's vectors are
        // sized exactly once — at a million cells the repeated doubling
        // of push-grown shards dominates the build otherwise.
        let mut arc_counts = vec![0usize; cluster_count];
        for arc in graph.arcs() {
            arc_counts[graph.cluster_of(arc.from).as_raw() as usize] += 1;
        }
        let mut shards: Vec<ClusterShard> = (0..cluster_count as u32)
            .map(|c| ClusterShard {
                cluster: ClusterId(c),
                nets: Vec::with_capacity(graph.cluster(ClusterId(c)).nets.len()),
                arcs: Vec::with_capacity(arc_counts[c as usize]),
                fanout_heads: Vec::new(),
                fanout_arcs: Vec::new(),
                fanin_heads: Vec::new(),
                fanin_arcs: Vec::new(),
            })
            .collect();
        // Local indices follow the global topological order, so each
        // shard's net list is a topological order of its subgraph.
        let mut local_of = vec![0u32; graph.node_count()];
        for &net in graph.topo() {
            let c = graph.cluster_of(net).as_raw() as usize;
            local_of[net.as_raw() as usize] = shards[c].nets.len() as u32;
            shards[c].nets.push(net);
        }
        for arc in graph.arcs() {
            let c = graph.cluster_of(arc.from).as_raw() as usize;
            debug_assert_eq!(c, graph.cluster_of(arc.to).as_raw() as usize);
            shards[c].arcs.push(LocalArc {
                from: local_of[arc.from.as_raw() as usize],
                to: local_of[arc.to.as_raw() as usize],
                inst: arc.inst,
                sense: arc.sense,
                delay_max: arc.delay.max,
            });
        }
        for shard in &mut shards {
            let n = shard.nets.len();
            let mut out_deg = vec![0u32; n + 1];
            let mut in_deg = vec![0u32; n + 1];
            for arc in &shard.arcs {
                out_deg[arc.from as usize + 1] += 1;
                in_deg[arc.to as usize + 1] += 1;
            }
            for i in 0..n {
                out_deg[i + 1] += out_deg[i];
                in_deg[i + 1] += in_deg[i];
            }
            let mut out_next = out_deg.clone();
            let mut in_next = in_deg.clone();
            shard.fanout_arcs = vec![0u32; shard.arcs.len()];
            shard.fanin_arcs = vec![0u32; shard.arcs.len()];
            for (ai, arc) in shard.arcs.iter().enumerate() {
                let o = &mut out_next[arc.from as usize];
                shard.fanout_arcs[*o as usize] = ai as u32;
                *o += 1;
                let i = &mut in_next[arc.to as usize];
                shard.fanin_arcs[*i as usize] = ai as u32;
                *i += 1;
            }
            shard.fanout_heads = out_deg;
            shard.fanin_heads = in_deg;
        }
        let cluster_of = (0..graph.node_count() as u32)
            .map(|n| graph.cluster_of(NetId::from_raw(n)))
            .collect();
        ShardedGraph {
            shards,
            cluster_of,
            local_of,
        }
    }

    /// The number of shards (= clusters).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The number of nets over all shards.
    pub fn node_count(&self) -> usize {
        self.cluster_of.len()
    }

    /// The cluster containing `net`.
    pub fn cluster_of(&self, net: NetId) -> ClusterId {
        self.cluster_of[net.as_raw() as usize]
    }

    /// The shard of a cluster.
    pub fn shard(&self, cluster: ClusterId) -> &ClusterShard {
        &self.shards[cluster.as_raw() as usize]
    }

    /// The local index of `net` within its cluster's shard.
    pub fn local_of(&self, net: NetId) -> u32 {
        self.local_of[net.as_raw() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{propagate_ready_max, propagate_required, table};
    use crate::Numeric;
    use hb_cells::{sc89, Binding};
    use hb_netlist::Design;

    /// Two independent INV chains: two clusters, and the sharded sweeps
    /// must agree bit-for-bit with the dense whole-graph sweeps.
    #[test]
    fn sharded_sweeps_match_dense() {
        let lib = sc89();
        let mut d = Design::new("s");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let nand = d.leaf_by_name("NAND2_X1").unwrap();
        let mut heads = Vec::new();
        let mut tails = Vec::new();
        for c in 0..2 {
            let a = d.add_net(m, format!("a{c}")).unwrap();
            let b = d.add_net(m, format!("b{c}")).unwrap();
            let y = d.add_net(m, format!("y{c}")).unwrap();
            d.add_port(m, format!("a{c}"), hb_netlist::PinDir::Input, a)
                .unwrap();
            d.add_port(m, format!("y{c}"), hb_netlist::PinDir::Output, y)
                .unwrap();
            let u1 = d.add_leaf_instance(m, format!("u{c}_1"), inv).unwrap();
            let u2 = d.add_leaf_instance(m, format!("u{c}_2"), nand).unwrap();
            d.connect(m, u1, "A", a).unwrap();
            d.connect(m, u1, "Y", b).unwrap();
            d.connect(m, u2, "A", a).unwrap();
            d.connect(m, u2, "B", b).unwrap();
            d.connect(m, u2, "Y", y).unwrap();
            heads.push(a);
            tails.push(y);
        }
        d.set_top(m).unwrap();
        let binding = Binding::new(&d, &lib);
        let graph = TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let sharded = ShardedGraph::new(&graph);

        // Dense reference.
        let mut ready = table(&graph, Time::NEG_INF);
        for (i, &a) in heads.iter().enumerate() {
            ready[a.as_raw() as usize] = RiseFall::splat(Time::from_ns(i as i64));
        }
        propagate_ready_max(&graph, &mut ready);
        let mut required = table(&graph, Time::INF);
        for &y in &tails {
            required[y.as_raw() as usize] = RiseFall::splat(Time::from_ns(10));
        }
        propagate_required(&graph, &mut required);

        // Sharded: seed the same values at local indices, sweep each
        // shard, scatter back, compare.
        let mut ready2 = table(&graph, Time::NEG_INF);
        let mut required2 = table(&graph, Time::INF);
        for c in 0..sharded.shard_count() {
            let shard = &sharded.shards[c];
            let mut r = shard.table(Time::NEG_INF);
            let mut q = shard.table(Time::INF);
            for (i, &a) in heads.iter().enumerate() {
                if graph.cluster_of(a) == shard.cluster() {
                    r[sharded.local_of(a) as usize] = RiseFall::splat(Time::from_ns(i as i64));
                }
            }
            for &y in &tails {
                if graph.cluster_of(y) == shard.cluster() {
                    q[sharded.local_of(y) as usize] = RiseFall::splat(Time::from_ns(10));
                }
            }
            shard.sweep_ready_max(&mut Numeric, &mut r);
            shard.sweep_required(&mut Numeric, &mut q);
            for (local, &net) in shard.nets().iter().enumerate() {
                ready2[net.as_raw() as usize] = r[local];
                required2[net.as_raw() as usize] = q[local];
            }
        }
        assert_eq!(ready, ready2);
        assert_eq!(required, required2);
    }

    /// Every net lands in exactly one shard, at a consistent local
    /// index, and arcs never cross shards.
    #[test]
    fn partition_is_total_and_consistent() {
        let lib = sc89();
        let mut d = Design::new("p");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let y = d.add_net(m, "y").unwrap();
        let lone = d.add_net(m, "lone").unwrap();
        d.add_port(m, "a", hb_netlist::PinDir::Input, a).unwrap();
        d.add_port(m, "y", hb_netlist::PinDir::Output, y).unwrap();
        d.add_port(m, "lone", hb_netlist::PinDir::Input, lone)
            .unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", a).unwrap();
        d.connect(m, u, "Y", y).unwrap();
        d.set_top(m).unwrap();
        let binding = Binding::new(&d, &lib);
        let graph = TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let sharded = ShardedGraph::new(&graph);

        let total: usize = (0..sharded.shard_count())
            .map(|c| sharded.shards[c].len())
            .sum();
        assert_eq!(total, graph.node_count());
        assert_eq!(sharded.node_count(), graph.node_count());
        for (c, cluster) in graph.clusters() {
            let shard = sharded.shard(c);
            assert_eq!(shard.len(), cluster.nets.len());
            for &net in &cluster.nets {
                assert_eq!(sharded.cluster_of(net), c);
                assert_eq!(shard.nets()[sharded.local_of(net) as usize], net);
            }
        }
        let arc_total: usize = (0..sharded.shard_count())
            .map(|c| sharded.shards[c].arc_count())
            .sum();
        assert_eq!(arc_total, graph.arc_count());
    }

    /// Two equal paths reconverge on a NAND2 whose pins time alike, so
    /// both of its arcs explain the output's arrival. Both tracers take
    /// the first in the whole graph's fanin order: the same path.
    #[test]
    fn tracers_break_ties_alike() {
        let lib = sc89();
        let mut d = Design::new("tie");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let [a, b, c, y] = ["a", "b", "c", "y"].map(|n| d.add_net(m, n).unwrap());
        d.add_port(m, "a", hb_netlist::PinDir::Input, a).unwrap();
        let buf = d.leaf_by_name("BUF_X1").unwrap();
        let nand = d.leaf_by_name("NAND2_X1").unwrap();
        for (name, to) in [("u1", b), ("u2", c)] {
            let u = d.add_leaf_instance(m, name, buf).unwrap();
            d.connect(m, u, "A", a).unwrap();
            d.connect(m, u, "Y", to).unwrap();
        }
        let u3 = d.add_leaf_instance(m, "u3", nand).unwrap();
        d.connect(m, u3, "A", b).unwrap();
        d.connect(m, u3, "B", c).unwrap();
        d.connect(m, u3, "Y", y).unwrap();
        d.set_top(m).unwrap();
        let binding = Binding::new(&d, &lib);
        let graph = TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let sharded = ShardedGraph::new(&graph);

        let mut ready = table(&graph, Time::NEG_INF);
        ready[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&graph, &mut ready);
        assert_eq!(ready[b.as_raw() as usize], ready[c.as_raw() as usize]);
        let shard = sharded.shard(sharded.cluster_of(y));
        let mut local = shard.table(Time::NEG_INF);
        local[sharded.local_of(a) as usize] = RiseFall::ZERO;
        shard.sweep_ready_max(&mut Numeric, &mut local);
        for tr in Transition::BOTH {
            let dense = crate::paths::critical_path(&graph, &ready, y, tr).expect("reached");
            assert_eq!(dense.steps[1].net, b, "the first fanin arc wins");
            let traced = shard.critical_path(&local, sharded.local_of(y), tr);
            assert_eq!(traced, Some(dense));
        }
    }

    /// The arc's instance rides in what was its padding.
    #[test]
    fn local_arc_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<LocalArc>(), 32);
    }
}
