//! Patching a prepared analysis in place after a delay-only edit.
//!
//! Both edits a resident session takes — retargeting an instance to
//! another cell of its family, and rescaling a net's modelled load —
//! keep connectivity: nets, instances, clusters, pass plans and work
//! items stay as they were, and only arc delays and element timing
//! move. [`Prepared::patch`] moves exactly those:
//!
//! * the loads of the nets the edit touched are recomputed, and the
//!   resized instance plus every driver of those nets is re-evaluated
//!   through [`hb_sta::leaf_timing`], the per-instance evaluation
//!   [`TimingGraph::build`] uses; the new delays are written over the
//!   shard arcs (`LocalArc::delay_max`), found through the shard's
//!   fanin rows, and only the items of clusters whose arcs changed are
//!   re-fingerprinted;
//! * replicas are re-derived, by the code preparation uses, for a
//!   resized synchronising element, for one whose output load changed,
//!   and for every element clocked through a cluster with a changed arc
//!   (its control-path delay may have moved);
//! * with `check_min_delays`, the supplementary check runs again on a
//!   freshly built whole graph, as preparation runs it.
//!
//! A patch that meets anything else — an instance whose arcs no longer
//! pair up one to one with its shard arcs, or an element whose pulses
//! changed — gives up, and the caller prepares cold.

use std::time::Instant;

use hb_cells::{Binding, Library};
use hb_clock::ClockSet;
use hb_netlist::{Design, InstId, InstRef, NetId};
use hb_sta::{leaf_timing, ClusterId, GraphArc, TimingGraph};

use crate::analysis::{
    count_preparation, prep_phase, push_replicas, resolve_control, ClockReach, Prepared,
};
use crate::mindelay::check_min_delays;

/// A delay-only design edit, as the ids it touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// The instance now binds another cell of its family.
    Resized(InstId),
    /// The net's modelled load scale (`hb.load_pct`) changed.
    Rescaled(NetId),
}

impl Prepared {
    /// Patches this state, prepared (or patched) for the design as it
    /// was before `edit`, to the edited `design`, so that it equals a
    /// cold preparation of the edited design with the same options.
    /// `library` and `clocks` must be the ones it was prepared with.
    ///
    /// Returns `None`, dropping the state, when the edit changed what a
    /// patch does not: the arcs of an instance no longer pair up one to
    /// one with its shard arcs (endpoints and senses), or a
    /// synchronising element's pulses changed. The caller then
    /// prepares the design cold.
    pub fn patch(
        mut self,
        design: &Design,
        library: &Library,
        clocks: &ClockSet,
        edit: Edit,
    ) -> Option<Prepared> {
        let start = Instant::now();
        let span = prep_phase("patch");
        let (module, m) = (self.module, design.module(self.module));
        let binding = Binding::new(design, library);
        let load = |net: NetId| binding.net_load_ff(design, library, module, net);
        let evaluate = |inst: InstId, arcs: &mut Vec<GraphArc>| {
            leaf_timing(design, module, inst, &binding, library, load, arcs).ok()
        };

        // The nets whose loads the edit may have moved, and the
        // instances whose arcs may have: the resized one and every
        // driver of those nets.
        let (resized, nets): (Option<InstId>, Vec<NetId>) = match edit {
            Edit::Resized(inst) => {
                if !matches!(m.instance(inst).target(), InstRef::Leaf(_)) {
                    return None;
                }
                (
                    Some(inst),
                    m.instance(inst).conns().map(|(_, n)| n).collect(),
                )
            }
            Edit::Rescaled(net) => (None, vec![net]),
        };
        let sharded = &self.engine.sharded;
        let mut insts: Vec<InstId> = resized.into_iter().collect();
        for &net in &nets {
            let shard = sharded.shard(sharded.cluster_of(net));
            insts.extend(shard.fanin(sharded.local_of(net) as usize).map(|a| a.inst));
        }
        insts.sort_unstable();
        insts.dedup();

        // Rewrite their arcs; a module instance's arcs are the
        // abstraction of its insides, which no load outside moves.
        let mut changed: Vec<u32> = Vec::new();
        let mut arcs = Vec::new();
        for inst in insts {
            if !matches!(m.instance(inst).target(), InstRef::Leaf(_)) {
                continue;
            }
            arcs.clear();
            evaluate(inst, &mut arcs)?;
            self.rewrite_arcs(design, inst, &arcs, &mut changed)?;
        }
        changed.sort_unstable();
        changed.dedup();

        // Clusters with a changed arc that a clock port drives: every
        // element clocked through one may have a new control delay.
        let sharded = &self.engine.sharded;
        let clock_clusters: Vec<ClusterId> = (self.clock_sources.iter())
            .map(|&(net, _)| sharded.cluster_of(net))
            .filter(|c| changed.binary_search(&c.as_raw()).is_ok())
            .collect();
        let mut reaches: Vec<ClockReach> = Vec::new();
        let mut reached: Vec<ClusterId> = Vec::new();
        let mut start_of = 0;
        while start_of < self.replicas.len() {
            let first = &self.replicas[start_of];
            let (inst, sync_index) = (first.inst, first.sync_index);
            let end = start_of
                + (self.replicas[start_of..].iter())
                    .take_while(|r| r.inst == inst)
                    .count();
            let run = start_of..end;
            start_of = end;
            let reloaded = self.replicas[run.clone()].iter().any(|r| {
                let drives = |n: Option<NetId>| n.is_some_and(|n| nets.contains(&n));
                drives(r.output_net) || drives(r.output_bar_net)
            });
            if !(resized == Some(inst) || reloaded || !clock_clusters.is_empty()) {
                continue;
            }
            let sync = evaluate(inst, &mut Vec::new())??;
            let sharded = &self.engine.sharded;
            let control_cluster = sharded.cluster_of(sync.control_net);
            let reclocked = clock_clusters.contains(&control_cluster);
            if !(resized == Some(inst) || reloaded || reclocked) {
                continue;
            }
            if !reached.contains(&control_cluster) {
                reached.push(control_cluster);
                reaches.extend(
                    (self.clock_sources.iter())
                        .filter(|&&(net, _)| sharded.cluster_of(net) == control_cluster)
                        .map(|&(net, clock)| ClockReach::new(sharded, net, clock)),
                );
            }
            let name = || m.instance(inst).name().to_owned();
            let control = resolve_control(sharded, &reaches, &sync, name).ok()?;
            let mut fresh = Vec::with_capacity(run.len());
            let timeline = &self.timeline;
            push_replicas(
                &mut fresh,
                &sync,
                sync_index,
                &control,
                library,
                timeline,
                self.options,
            );
            let old = &mut self.replicas[run];
            if fresh.len() != old.len() || !fresh.iter().zip(&*old).all(|(a, b)| a.same_binding(b))
            {
                return None;
            }
            old.clone_from_slice(&fresh);
        }

        self.engine.refingerprint(&changed);
        if self.options.check_min_delays {
            let graph = TimingGraph::build(design, module, &binding, library).ok()?;
            self.min_delays = check_min_delays(&self, design, &graph, clocks);
        }
        drop(span);
        count_preparation("patched");
        self.seconds = start.elapsed().as_secs_f64();
        Some(self)
    }

    /// Writes `arcs`, the re-evaluated arcs of `inst` in its cell's arc
    /// order, over the instance's shard arcs, and records the clusters
    /// whose delays changed. The shard arcs into a net are its fanin
    /// row, in the whole graph's arc order, so an instance's arcs into
    /// one net appear there in the order the evaluation yields them.
    /// `None` when the two do not pair up one to one with equal
    /// endpoints and senses.
    fn rewrite_arcs(
        &mut self,
        design: &Design,
        inst: InstId,
        arcs: &[GraphArc],
        changed: &mut Vec<u32>,
    ) -> Option<()> {
        let sharded = &mut self.engine.sharded;
        let mut pins: Vec<NetId> = (design.module(self.module).instance(inst).conns())
            .map(|(_, n)| n)
            .collect();
        pins.sort_unstable();
        pins.dedup();
        let mut paired = 0;
        for to in pins {
            let cluster = sharded.cluster_of(to);
            let local = sharded.local_of(to) as usize;
            let shard = sharded.shard(cluster);
            let old: Vec<u32> = (shard.fanin_indices(local).iter().copied())
                .filter(|&i| shard.arc(i).inst == inst)
                .collect();
            let new: Vec<&GraphArc> = arcs.iter().filter(|a| a.to == to).collect();
            if old.len() != new.len() {
                return None;
            }
            paired += old.len();
            for (&i, arc) in old.iter().zip(new) {
                let was = *sharded.shard(cluster).arc(i);
                let from_local = sharded.local_of(arc.from);
                if sharded.cluster_of(arc.from) != cluster
                    || was.from != from_local
                    || was.sense != arc.sense
                {
                    return None;
                }
                if was.delay_max != arc.delay.max {
                    sharded.shard_mut(cluster).set_delay_max(i, arc.delay.max);
                    changed.push(cluster.as_raw());
                }
            }
        }
        (paired == arcs.len()).then_some(())
    }
}
