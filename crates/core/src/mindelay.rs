//! Supplementary (minimum-delay) path constraint checking.
//!
//! Section 4 of the paper defines, for every combinational path ending
//! at a data input `y` of an element clocked with period `T_β`, the
//! *supplementary path constraint* `dmin_p > D_p − O_x + O_y − T_β`: the
//! signal must not be updated more than one clock period of `β` before
//! its closure, or `β` would capture a value from the wrong cycle. The
//! paper notes that its algorithms *do not* detect violations of these
//! constraints (they manifest as clock-skew style races); this module is
//! the natural extension that checks them.
//!
//! The check is conservative in the safe direction: the early launch
//! bound assumes a source can assert as soon as its ideal assertion edge
//! (offset zero, no control-path or element delay), so every real race
//! is flagged, at the cost of possible false positives on designs with
//! generous contamination delays. A violation is reported when the
//! earliest arrival at a data input falls inside the hold window of the
//! element's *previous* capture — the previous closure time plus the
//! capture control-path delay (clock skew) plus the element hold time.
//!
//! The check reads no offset: its seeds sit at ideal edges, and its
//! bound uses only what preparation fixes (nets, passes, control-path
//! delay, hold time, clock period). Algorithm 1 cannot change its
//! answer, so it runs once, at preparation, on the whole graph's
//! minimum delays while preparation still holds that graph.

use std::fmt;

use hb_clock::ClockSet;
use hb_netlist::Design;
use hb_sta::analysis::{propagate_ready_min, table};
use hb_sta::TimingGraph;
use hb_units::{RiseFall, Time};

use crate::analysis::Prepared;

/// One violated supplementary (minimum-delay) constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinDelayViolation {
    /// The capturing instance name.
    pub inst: String,
    /// The control pulse index of the capturing replica.
    pub pulse: u32,
    /// By how much the earliest arrival undercuts the bound (positive
    /// values are the violation depth).
    pub shortfall: Time,
}

impl fmt::Display for MinDelayViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min-delay violation at {} (pulse {}): data may arrive {} too early",
            self.inst, self.pulse, self.shortfall
        )
    }
}

/// Checks every replica's supplementary constraint on `graph`, the
/// whole graph of `design` that `prep` holds the shards of. A replica's
/// period is that of the clock its closure edge belongs to.
pub(crate) fn check_min_delays(
    prep: &Prepared,
    design: &Design,
    graph: &TimingGraph,
    clocks: &ClockSet,
) -> Vec<MinDelayViolation> {
    let mut violations = Vec::new();
    let overall = prep.timeline.overall_period();
    for (p, &start) in prep.passes.iter().enumerate() {
        // Earliest arrivals: seed sources at their ideal assertion edges
        // with zero offset (conservative early bound), propagate minimum
        // delays.
        let mut early = table(graph, Time::INF);
        let seed = |early: &mut Vec<RiseFall<Time>>, net: hb_netlist::NetId, at: Time| {
            let slot = &mut early[net.as_raw() as usize];
            *slot = (*slot).min(RiseFall::splat(at));
        };
        let mut seeded = false;
        for r in &prep.replicas {
            for out in [r.output_net, r.output_bar_net].into_iter().flatten() {
                if prep.cluster_passes[graph.cluster_of(out).as_raw() as usize].contains(&p) {
                    let at = (prep.timeline.edge_time(r.assert_edge) - start).rem_euclid(overall);
                    seed(&mut early, out, at);
                    seeded = true;
                }
            }
        }
        for pi in &prep.pis {
            if prep.cluster_passes[graph.cluster_of(pi.net).as_raw() as usize].contains(&p) {
                let at = (prep.timeline.edge_time(pi.edge) - start).rem_euclid(overall) + pi.offset;
                seed(&mut early, pi.net, at);
                seeded = true;
            }
        }
        if !seeded {
            continue;
        }
        propagate_ready_min(graph, &mut early);

        for (k, r) in prep.replicas.iter().enumerate() {
            if prep.replica_pass[k] != p {
                continue;
            }
            let arrive = early[r.data_net.as_raw() as usize].best();
            if !arrive.is_finite() {
                continue;
            }
            // The element captures at `close`; the capture one period
            // earlier (this replica's predecessor, possibly the previous
            // overall cycle) happened at `close − T_β` *plus* the
            // control-path delay. New data arriving within the hold
            // window after that earlier capture races it.
            let close = (prep.timeline.edge_time(r.close_edge) - start).rem_euclid_end(overall);
            let period = clocks
                .clock(prep.timeline.edge(r.close_edge).clock)
                .period();
            let prev_close = close - period;
            if arrive < close && arrive >= prev_close {
                let bound = prev_close + r.cdel() + r.hold();
                if arrive < bound {
                    violations.push(MinDelayViolation {
                        inst: design
                            .module(prep.module)
                            .instance(r.inst)
                            .name()
                            .to_owned(),
                        pulse: r.pulse_index,
                        shortfall: bound - arrive,
                    });
                }
            }
        }
    }
    violations
}
