//! Net-level timing graphs.

use std::collections::HashMap;
use std::fmt;

use hb_cells::{Binding, CellId, Function, Library};
use hb_netlist::{Design, InstId, InstRef, ModuleId, NetId, PinSlot};
use hb_units::{MinMax, RiseFall, Sense, Time};

use crate::error::StaError;

/// One weighted timing arc between two nets, contributed by an instance.
#[derive(Clone, Copy, Debug)]
pub struct GraphArc {
    /// The source net (an input pin of the instance connects here).
    pub from: NetId,
    /// The destination net (driven by the instance).
    pub to: NetId,
    /// Arc unateness.
    pub sense: Sense,
    /// Min/max delay, rise/fall split, already evaluated at the
    /// estimated load of the destination net.
    pub delay: MinMax<RiseFall<Time>>,
    /// The contributing instance.
    pub inst: InstId,
}

/// A synchronising element found in the module, with its pin bindings.
///
/// Sync elements contribute no combinational arcs; the system-level
/// analyzer assigns assertion/closure offsets to these records.
#[derive(Clone, Copy, Debug)]
pub struct SyncInst {
    /// The instance.
    pub inst: InstId,
    /// The library cell (query [`hb_cells::Cell::sync_spec`] for timing).
    pub cell: CellId,
    /// The net feeding the data input.
    pub data_net: NetId,
    /// The net feeding the control input.
    pub control_net: NetId,
    /// The net driven by the output, if connected.
    pub output_net: Option<NetId>,
    /// Estimated capacitive load on the output net, in femtofarads.
    pub output_load_ff: i64,
    /// The net driven by the complementary output (output-bar), if the
    /// cell has one and it is connected.
    pub output_bar_net: Option<NetId>,
    /// Estimated capacitive load on the output-bar net, in femtofarads.
    pub output_bar_load_ff: i64,
}

/// Handle to a [`Cluster`] of a [`TimingGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub(crate) u32);

impl ClusterId {
    /// Returns the raw index.
    pub fn as_raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a handle from a raw index (as returned by
    /// [`ClusterId::as_raw`]).
    pub fn from_raw(raw: u32) -> ClusterId {
        ClusterId(raw)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// A maximal connected network of combinational logic — the paper's
/// *cluster*, the unit at which analysis passes are planned.
#[derive(Clone, Debug, Default)]
pub struct Cluster {
    /// The member nets.
    pub nets: Vec<NetId>,
}

/// A net-level timing graph for one module.
///
/// Nodes are the module's nets (indexed by [`NetId`]); arcs are cell (or
/// abstracted child-module) timing arcs with load-evaluated delays.
/// Synchronising elements appear as [`SyncInst`] records instead of arcs,
/// so the combinational part is a DAG by construction (enforced at build
/// time).
#[derive(Clone, Debug)]
pub struct TimingGraph {
    node_count: usize,
    arcs: Vec<GraphArc>,
    // Fanin/fanout adjacency in CSR form: `*_heads` holds
    // `node_count + 1` prefix sums into `*_idx`, which lists arc
    // indices grouped by endpoint. Two flat arrays per direction
    // instead of a Vec-of-Vecs keeps million-net graphs cache-dense
    // and allocation-free to traverse.
    fanin_heads: Vec<u32>,
    fanin_idx: Vec<u32>,
    fanout_heads: Vec<u32>,
    fanout_idx: Vec<u32>,
    topo: Vec<NetId>,
    syncs: Vec<SyncInst>,
    cluster_of: Vec<ClusterId>,
    clusters: Vec<Cluster>,
}

/// Builds one CSR direction: arc indices grouped by `key(arc)`, in
/// arc order within each group (matching the order a push-based
/// adjacency list would produce).
fn csr_adjacency(
    node_count: usize,
    arcs: &[GraphArc],
    key: impl Fn(&GraphArc) -> NetId,
) -> (Vec<u32>, Vec<u32>) {
    let mut heads = vec![0u32; node_count + 1];
    for arc in arcs {
        heads[key(arc).as_raw() as usize + 1] += 1;
    }
    for i in 0..node_count {
        heads[i + 1] += heads[i];
    }
    let mut cursor = heads.clone();
    let mut idx = vec![0u32; arcs.len()];
    for (i, arc) in arcs.iter().enumerate() {
        let k = key(arc).as_raw() as usize;
        idx[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (heads, idx)
}

impl TimingGraph {
    /// Builds the timing graph of `module`.
    ///
    /// Hierarchical instances are abstracted into pin-to-pin arcs by
    /// recursive block analysis of the child module (which must be purely
    /// combinational) — the SM1H analysis mode of the paper.
    ///
    /// # Errors
    ///
    /// Fails on unbound leaf instances, dangling sync pins, combinational
    /// cycles, and sync elements inside abstracted child modules.
    pub fn build(
        design: &Design,
        module: ModuleId,
        binding: &Binding,
        library: &Library,
    ) -> Result<TimingGraph, StaError> {
        let mut cache: HashMap<ModuleId, Vec<AbsArc>> = HashMap::new();
        Self::build_with_cache(design, module, binding, library, &mut cache, true)
    }

    fn build_with_cache(
        design: &Design,
        module: ModuleId,
        binding: &Binding,
        library: &Library,
        cache: &mut HashMap<ModuleId, Vec<AbsArc>>,
        allow_sync: bool,
    ) -> Result<TimingGraph, StaError> {
        let m = design.module(module);
        let node_count = m.net_count();
        let net_loads: Vec<i64> = m
            .nets()
            .map(|(id, _)| binding.net_load_ff(design, library, module, id))
            .collect();

        // Most leaf cells contribute one or two arcs; reserving up
        // front avoids repeated doubling on million-cell flat modules.
        let mut arcs: Vec<GraphArc> = Vec::with_capacity(m.instance_count() * 2);
        let mut syncs: Vec<SyncInst> = Vec::new();

        for (inst_id, inst) in m.instances() {
            match inst.target() {
                InstRef::Leaf(_) => {
                    let load = |net: NetId| net_loads[net.as_raw() as usize];
                    let timing =
                        leaf_timing(design, module, inst_id, binding, library, load, &mut arcs);
                    // Inside an abstracted module any synchronising
                    // element is the error, connected or not.
                    let sync =
                        matches!(timing, Ok(Some(_)) | Err(StaError::DanglingSyncPin { .. }));
                    if sync && !allow_sync {
                        return Err(StaError::SyncInsideAbstractedModule {
                            module: m.name().to_owned(),
                            inst: inst.name().to_owned(),
                        });
                    }
                    syncs.extend(timing?);
                }
                InstRef::Module(child) => {
                    let abs = match cache.get(&child) {
                        Some(abs) => abs.clone(),
                        None => {
                            let abs = abstract_module(design, child, binding, library, cache)?;
                            cache.insert(child, abs.clone());
                            abs
                        }
                    };
                    for a in &abs {
                        let (Some(from), Some(to)) = (
                            inst.conn(PinSlot::from_raw(a.from_port)),
                            inst.conn(PinSlot::from_raw(a.to_port)),
                        ) else {
                            continue;
                        };
                        arcs.push(GraphArc {
                            from,
                            to,
                            sense: a.sense,
                            delay: a.delay,
                            inst: inst_id,
                        });
                    }
                }
            }
        }

        assert!(
            arcs.len() <= u32::MAX as usize,
            "timing graph exceeds the u32 arc index space"
        );
        let (fanin_heads, fanin_idx) = csr_adjacency(node_count, &arcs, |a| a.to);
        let (fanout_heads, fanout_idx) = csr_adjacency(node_count, &arcs, |a| a.from);

        let topo = topo_sort(
            design,
            module,
            node_count,
            &fanin_heads,
            &fanout_heads,
            &fanout_idx,
            &arcs,
        )?;
        let (cluster_of, clusters) = find_clusters(node_count, &arcs);

        Ok(TimingGraph {
            node_count,
            arcs,
            fanin_heads,
            fanin_idx,
            fanout_heads,
            fanout_idx,
            topo,
            syncs,
            cluster_of,
            clusters,
        })
    }

    /// The number of nodes (nets).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The number of combinational arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// All arcs.
    pub fn arcs(&self) -> &[GraphArc] {
        &self.arcs
    }

    /// One arc by index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn arc(&self, index: u32) -> &GraphArc {
        &self.arcs[index as usize]
    }

    /// Indices of arcs terminating at `net`.
    pub fn fanin_arcs(&self, net: NetId) -> &[u32] {
        let u = net.as_raw() as usize;
        &self.fanin_idx[self.fanin_heads[u] as usize..self.fanin_heads[u + 1] as usize]
    }

    /// Indices of arcs departing from `net`.
    pub fn fanout_arcs(&self, net: NetId) -> &[u32] {
        let u = net.as_raw() as usize;
        &self.fanout_idx[self.fanout_heads[u] as usize..self.fanout_heads[u + 1] as usize]
    }

    /// Nets in a topological order of the combinational arcs.
    pub fn topo(&self) -> &[NetId] {
        &self.topo
    }

    /// The synchronising elements of the module.
    pub fn syncs(&self) -> &[SyncInst] {
        &self.syncs
    }

    /// The cluster containing `net`.
    pub fn cluster_of(&self, net: NetId) -> ClusterId {
        self.cluster_of[net.as_raw() as usize]
    }

    /// One cluster.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// All clusters (singleton nets included).
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (ClusterId(i as u32), c))
    }
}

/// Evaluates one leaf instance of `module` at the net loads `load`
/// gives: a combinational cell appends one arc per connected cell arc to
/// `arcs`, in the cell's arc order, and returns `None`; a synchronising
/// element appends nothing and returns its [`SyncInst`] record.
/// [`TimingGraph::build`] evaluates every leaf instance this way, so an
/// edit that moves loads or retargets a cell can re-evaluate just the
/// instances it touched and get the arcs a rebuild would.
///
/// # Errors
///
/// Fails on an unbound leaf and on a dangling sync data or control pin.
///
/// # Panics
///
/// Panics if `inst` is a module instance.
pub fn leaf_timing(
    design: &Design,
    module: ModuleId,
    inst_id: InstId,
    binding: &Binding,
    library: &Library,
    load: impl Fn(NetId) -> i64,
    arcs: &mut Vec<GraphArc>,
) -> Result<Option<SyncInst>, StaError> {
    let inst = design.module(module).instance(inst_id);
    let InstRef::Leaf(leaf) = inst.target() else {
        panic!("`{}` is a module instance", inst.name());
    };
    let cell_id = binding
        .cell_for_leaf(leaf)
        .ok_or_else(|| StaError::UnboundLeaf {
            inst: inst.name().to_owned(),
        })?;
    let cell = library.cell(cell_id);
    let spec = match cell.function() {
        Function::Combinational(cell_arcs) => {
            for arc in cell_arcs {
                let (Some(from), Some(to)) = (inst.conn(arc.from), inst.conn(arc.to)) else {
                    continue;
                };
                arcs.push(GraphArc {
                    from,
                    to,
                    sense: arc.sense,
                    delay: arc.delay.eval(load(to)),
                    inst: inst_id,
                });
            }
            return Ok(None);
        }
        Function::Sync(spec) => spec,
    };
    let dangling = |pin| StaError::DanglingSyncPin {
        inst: inst.name().to_owned(),
        pin,
    };
    let data_net = inst.conn(spec.data).ok_or_else(|| dangling("data"))?;
    let control_net = inst.conn(spec.control).ok_or_else(|| dangling("control"))?;
    let output_net = inst.conn(spec.output);
    let output_bar_net = spec.output_bar.and_then(|p| inst.conn(p));
    Ok(Some(SyncInst {
        inst: inst_id,
        cell: cell_id,
        data_net,
        control_net,
        output_net,
        output_load_ff: output_net.map_or(0, &load),
        output_bar_net,
        output_bar_load_ff: output_bar_net.map_or(0, &load),
    }))
}

/// An abstracted child-module arc: input port to output port.
#[derive(Clone, Copy, Debug)]
struct AbsArc {
    from_port: u32,
    to_port: u32,
    sense: Sense,
    delay: MinMax<RiseFall<Time>>,
}

/// Computes pin-to-pin delay arcs for a purely combinational module by
/// per-input-port block analysis ("the delays have been combined to
/// generate estimates of the module propagation delays").
fn abstract_module(
    design: &Design,
    child: ModuleId,
    binding: &Binding,
    library: &Library,
    cache: &mut HashMap<ModuleId, Vec<AbsArc>>,
) -> Result<Vec<AbsArc>, StaError> {
    let graph = TimingGraph::build_with_cache(design, child, binding, library, cache, false)?;
    let m = design.module(child);
    let in_ports: Vec<(u32, NetId)> = m
        .ports()
        .filter(|(_, p)| p.dir() == hb_netlist::PinDir::Input)
        .map(|(id, p)| (id.as_raw(), p.net()))
        .collect();
    let out_ports: Vec<(u32, NetId)> = m
        .ports()
        .filter(|(_, p)| p.dir() == hb_netlist::PinDir::Output)
        .map(|(id, p)| (id.as_raw(), p.net()))
        .collect();

    let mut abs = Vec::new();
    for &(from_port, src) in &in_ports {
        // Forward max and min delays plus path sense from this source.
        let mut dmax = vec![RiseFall::splat(Time::NEG_INF); graph.node_count()];
        let mut dmin = vec![RiseFall::splat(Time::INF); graph.node_count()];
        let mut sense = vec![None::<Sense>; graph.node_count()];
        dmax[src.as_raw() as usize] = RiseFall::ZERO;
        dmin[src.as_raw() as usize] = RiseFall::ZERO;
        sense[src.as_raw() as usize] = Some(Sense::Positive);
        for &net in graph.topo() {
            let u = net.as_raw() as usize;
            if sense[u].is_none() {
                continue;
            }
            for &ai in graph.fanout_arcs(net) {
                let arc = graph.arc(ai);
                let v = arc.to.as_raw() as usize;
                let new_max = arc.sense.propagate(dmax[u], arc.delay.max);
                dmax[v] = dmax[v].max(new_max);
                let new_min = propagate_min(arc.sense, dmin[u], arc.delay.min);
                dmin[v] = dmin[v].min(new_min);
                let through = sense[u].expect("checked").then(arc.sense);
                sense[v] = Some(match sense[v] {
                    None => through,
                    Some(s) => s.merge(through),
                });
            }
        }
        for &(to_port, dst) in &out_ports {
            let v = dst.as_raw() as usize;
            if let Some(s) = sense[v] {
                abs.push(AbsArc {
                    from_port,
                    to_port,
                    sense: s,
                    delay: MinMax::new(dmin[v], dmax[v]),
                });
            }
        }
    }
    Ok(abs)
}

/// Minimum-arrival propagation through one arc (the dual of
/// [`Sense::propagate`]): earliest output transition given earliest
/// input transitions.
pub(crate) fn propagate_min(
    sense: Sense,
    input: RiseFall<Time>,
    delay: RiseFall<Time>,
) -> RiseFall<Time> {
    match sense {
        Sense::Positive => input.saturating_add(delay),
        Sense::Negative => input.swapped().saturating_add(delay),
        Sense::NonUnate => {
            let best = input.rise.min(input.fall);
            RiseFall::splat(best).saturating_add(delay)
        }
    }
}

fn topo_sort(
    design: &Design,
    module: ModuleId,
    node_count: usize,
    fanin_heads: &[u32],
    fanout_heads: &[u32],
    fanout_idx: &[u32],
    arcs: &[GraphArc],
) -> Result<Vec<NetId>, StaError> {
    let mut indeg: Vec<u32> = (0..node_count)
        .map(|i| fanin_heads[i + 1] - fanin_heads[i])
        .collect();
    let mut queue: Vec<NetId> = (0..node_count as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .map(NetId::from_raw)
        .collect();
    let mut order = Vec::with_capacity(node_count);
    let mut head = 0;
    while head < queue.len() {
        let net = queue[head];
        head += 1;
        order.push(net);
        let u = net.as_raw() as usize;
        for &ai in &fanout_idx[fanout_heads[u] as usize..fanout_heads[u + 1] as usize] {
            let to = arcs[ai as usize].to;
            let d = &mut indeg[to.as_raw() as usize];
            *d -= 1;
            if *d == 0 {
                queue.push(to);
            }
        }
    }
    if order.len() != node_count {
        let on_cycle = (0..node_count)
            .find(|&i| indeg[i] > 0)
            .expect("cycle implies a positive in-degree");
        return Err(StaError::CombinationalCycle {
            net: design
                .module(module)
                .net(NetId::from_raw(on_cycle as u32))
                .name()
                .to_owned(),
        });
    }
    Ok(order)
}

fn find_clusters(node_count: usize, arcs: &[GraphArc]) -> (Vec<ClusterId>, Vec<Cluster>) {
    // Union–find over nets connected by combinational arcs.
    let mut parent: Vec<u32> = (0..node_count as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for arc in arcs {
        let a = find(&mut parent, arc.from.as_raw());
        let b = find(&mut parent, arc.to.as_raw());
        if a != b {
            parent[a as usize] = b;
        }
    }
    // Root → cluster index, as a flat array rather than a hash map:
    // roots are net indices, so a sentinel-initialised Vec is direct.
    let mut cluster_index: Vec<u32> = vec![u32::MAX; node_count];
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cluster_of = Vec::with_capacity(node_count);
    for i in 0..node_count as u32 {
        let root = find(&mut parent, i) as usize;
        let idx = if cluster_index[root] == u32::MAX {
            clusters.push(Cluster::default());
            let idx = (clusters.len() - 1) as u32;
            cluster_index[root] = idx;
            idx
        } else {
            cluster_index[root]
        };
        clusters[idx as usize].nets.push(NetId::from_raw(i));
        cluster_of.push(ClusterId(idx));
    }
    (cluster_of, clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;
    use hb_netlist::{Design, PinDir};
    use hb_units::Transition;

    /// a --INV--> b --INV--> y, with a DFF from y to q.
    fn small() -> (Design, ModuleId, Library) {
        let lib = sc89();
        let mut d = Design::new("t");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let b = d.add_net(m, "b").unwrap();
        let y = d.add_net(m, "y").unwrap();
        let ck = d.add_net(m, "ck").unwrap();
        let q = d.add_net(m, "q").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        d.add_port(m, "ck", PinDir::Input, ck).unwrap();
        d.add_port(m, "q", PinDir::Output, q).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let dff = d.leaf_by_name("DFF").unwrap();
        let u1 = d.add_leaf_instance(m, "u1", inv).unwrap();
        let u2 = d.add_leaf_instance(m, "u2", inv).unwrap();
        let ff = d.add_leaf_instance(m, "ff", dff).unwrap();
        d.connect(m, u1, "A", a).unwrap();
        d.connect(m, u1, "Y", b).unwrap();
        d.connect(m, u2, "A", b).unwrap();
        d.connect(m, u2, "Y", y).unwrap();
        d.connect(m, ff, "D", y).unwrap();
        d.connect(m, ff, "CK", ck).unwrap();
        d.connect(m, ff, "Q", q).unwrap();
        d.set_top(m).unwrap();
        (d, m, lib)
    }

    #[test]
    fn build_collects_arcs_and_syncs() {
        let (d, m, lib) = small();
        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, m, &binding, &lib).unwrap();
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.syncs().len(), 1);
        let sync = g.syncs()[0];
        assert_eq!(d.module(m).net(sync.data_net).name(), "y");
        assert_eq!(d.module(m).net(sync.control_net).name(), "ck");
        assert_eq!(
            d.module(m).net(sync.output_net.expect("connected")).name(),
            "q"
        );
    }

    #[test]
    fn arc_delays_grow_with_fanout() {
        let lib = sc89();
        let mut d = Design::new("fan");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let y1 = d.add_net(m, "y1").unwrap();
        let y2 = d.add_net(m, "y2").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let u1 = d.add_leaf_instance(m, "u1", inv).unwrap();
        let u2 = d.add_leaf_instance(m, "u2", inv).unwrap();
        d.connect(m, u1, "A", a).unwrap();
        d.connect(m, u1, "Y", y1).unwrap();
        d.connect(m, u2, "A", a).unwrap();
        d.connect(m, u2, "Y", y2).unwrap();
        // Load y1 with three extra inverters.
        for i in 0..3 {
            let s = d.add_leaf_instance(m, format!("s{i}"), inv).unwrap();
            d.connect(m, s, "A", y1).unwrap();
        }
        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let d1 = g.arcs().iter().find(|arc| arc.to == y1).unwrap().delay.max[Transition::Rise];
        let d2 = g.arcs().iter().find(|arc| arc.to == y2).unwrap().delay.max[Transition::Rise];
        assert!(d1 > d2, "heavier load means longer delay: {d1} vs {d2}");
    }

    #[test]
    fn cycle_detection() {
        let lib = sc89();
        let mut d = Design::new("c");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let b = d.add_net(m, "b").unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let u1 = d.add_leaf_instance(m, "u1", inv).unwrap();
        let u2 = d.add_leaf_instance(m, "u2", inv).unwrap();
        d.connect(m, u1, "A", a).unwrap();
        d.connect(m, u1, "Y", b).unwrap();
        d.connect(m, u2, "A", b).unwrap();
        d.connect(m, u2, "Y", a).unwrap();
        let binding = Binding::new(&d, &lib);
        assert!(matches!(
            TimingGraph::build(&d, m, &binding, &lib),
            Err(StaError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn clusters_split_at_sync_elements() {
        let (d, m, lib) = small();
        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, m, &binding, &lib).unwrap();
        let module = d.module(m);
        let y = module.net_by_name("y").unwrap();
        let a = module.net_by_name("a").unwrap();
        let q = module.net_by_name("q").unwrap();
        assert_eq!(g.cluster_of(a), g.cluster_of(y), "same comb cluster");
        assert_ne!(g.cluster_of(y), g.cluster_of(q), "split by the DFF");
        assert!(g.clusters().count() >= 2);
        assert!(g
            .cluster(g.cluster_of(a))
            .nets
            .contains(&module.net_by_name("b").unwrap()));
    }

    #[test]
    fn dangling_sync_pin_rejected() {
        let lib = sc89();
        let mut d = Design::new("s");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "y", PinDir::Input, y).unwrap();
        let dff = d.leaf_by_name("DFF").unwrap();
        let ff = d.add_leaf_instance(m, "ff", dff).unwrap();
        d.connect(m, ff, "D", y).unwrap();
        let binding = Binding::new(&d, &lib);
        assert!(matches!(
            TimingGraph::build(&d, m, &binding, &lib),
            Err(StaError::DanglingSyncPin { pin: "control", .. })
        ));
    }

    #[test]
    fn module_abstraction_matches_flat_depth() {
        // Hierarchical: top contains child with 2 inverters in series.
        let lib = sc89();
        let mut d = Design::new("h");
        lib.declare_into(&mut d).unwrap();
        let child = d.add_module("pair").unwrap();
        let ci = d.add_net(child, "in").unwrap();
        let cm = d.add_net(child, "mid").unwrap();
        let co = d.add_net(child, "out").unwrap();
        d.add_port(child, "in", PinDir::Input, ci).unwrap();
        d.add_port(child, "out", PinDir::Output, co).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let g1 = d.add_leaf_instance(child, "g1", inv).unwrap();
        let g2 = d.add_leaf_instance(child, "g2", inv).unwrap();
        d.connect(child, g1, "A", ci).unwrap();
        d.connect(child, g1, "Y", cm).unwrap();
        d.connect(child, g2, "A", cm).unwrap();
        d.connect(child, g2, "Y", co).unwrap();

        let top = d.add_module("top").unwrap();
        let a = d.add_net(top, "a").unwrap();
        let y = d.add_net(top, "y").unwrap();
        d.add_port(top, "a", PinDir::Input, a).unwrap();
        d.add_port(top, "y", PinDir::Output, y).unwrap();
        let p = d.add_module_instance(top, "p0", child).unwrap();
        d.connect(top, p, "in", a).unwrap();
        d.connect(top, p, "out", y).unwrap();
        d.set_top(top).unwrap();

        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, top, &binding, &lib).unwrap();
        assert_eq!(g.arc_count(), 1, "one abstracted arc");
        let arc = &g.arcs()[0];
        assert_eq!(arc.sense, Sense::Positive, "two inversions compose");
        // The abstracted delay covers two gate delays.
        assert!(arc.delay.max.worst() > Time::from_ps(100));
        assert!(arc.delay.min.best() > Time::ZERO);
        assert!(arc.delay.min.best() <= arc.delay.max.worst());
    }

    #[test]
    fn sync_inside_abstracted_module_rejected() {
        let lib = sc89();
        let mut d = Design::new("bad");
        lib.declare_into(&mut d).unwrap();
        let child = d.add_module("seq").unwrap();
        let ci = d.add_net(child, "in").unwrap();
        let ck = d.add_net(child, "ck").unwrap();
        let co = d.add_net(child, "out").unwrap();
        d.add_port(child, "in", PinDir::Input, ci).unwrap();
        d.add_port(child, "ck", PinDir::Input, ck).unwrap();
        d.add_port(child, "out", PinDir::Output, co).unwrap();
        let dff = d.leaf_by_name("DFF").unwrap();
        let ff = d.add_leaf_instance(child, "ff", dff).unwrap();
        d.connect(child, ff, "D", ci).unwrap();
        d.connect(child, ff, "CK", ck).unwrap();
        d.connect(child, ff, "Q", co).unwrap();

        let top = d.add_module("top").unwrap();
        let a = d.add_net(top, "a").unwrap();
        let k = d.add_net(top, "k").unwrap();
        let y = d.add_net(top, "y").unwrap();
        d.add_port(top, "a", PinDir::Input, a).unwrap();
        d.add_port(top, "k", PinDir::Input, k).unwrap();
        d.add_port(top, "y", PinDir::Output, y).unwrap();
        let s = d.add_module_instance(top, "s0", child).unwrap();
        d.connect(top, s, "in", a).unwrap();
        d.connect(top, s, "ck", k).unwrap();
        d.connect(top, s, "out", y).unwrap();

        let binding = Binding::new(&d, &lib);
        assert!(matches!(
            TimingGraph::build(&d, top, &binding, &lib),
            Err(StaError::SyncInsideAbstractedModule { .. })
        ));
    }
}
