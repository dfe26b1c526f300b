//! Block-oriented ready/required/slack propagation.
//!
//! This is the paper's Section 7 machinery (equations 1 and 2): within a
//! cluster, ready times are traced forward from the inputs and slacks are
//! traced backward from the outputs in a single topological sweep each —
//! the fast *block method* of Hitchcock, chosen over path enumeration
//! because "speed is an important issue".
//!
//! All functions operate on dense per-net vectors indexed by
//! [`NetId::as_raw`](hb_netlist::NetId::as_raw); the caller seeds the
//! vectors (cluster input assertion times forward, cluster output
//! closure times backward) and sentinel values ([`Time::NEG_INF`] /
//! [`Time::INF`]) mark unreached nodes.

use hb_units::{RiseFall, Sense, Time};

use crate::graph::TimingGraph;

/// A dense per-net rise/fall time table.
pub type TimeTable = Vec<RiseFall<Time>>;

/// Creates a table of the given sentinel value for `graph`.
pub fn table(graph: &TimingGraph, fill: Time) -> TimeTable {
    vec![RiseFall::splat(fill); graph.node_count()]
}

/// Forward maximum (latest) arrival propagation — paper equation 1:
/// `R_z = max_i (R_i + P_iz)`, rise/fall split with arc unateness.
///
/// Seeds must already be placed in `ready`; unreached nets keep
/// [`Time::NEG_INF`].
pub fn propagate_ready_max(graph: &TimingGraph, ready: &mut TimeTable) {
    for &net in graph.topo() {
        let at = ready[net.as_raw() as usize];
        if at.rise <= Time::NEG_INF && at.fall <= Time::NEG_INF {
            continue;
        }
        for &ai in graph.fanout_arcs(net) {
            let arc = graph.arc(ai);
            let out = arc.sense.propagate(at, arc.delay.max);
            let slot = &mut ready[arc.to.as_raw() as usize];
            *slot = (*slot).max(out);
        }
    }
}

/// Forward minimum (earliest) arrival propagation, used by the
/// supplementary (short-path) constraints. Unreached nets keep
/// [`Time::INF`].
pub fn propagate_ready_min(graph: &TimingGraph, ready: &mut TimeTable) {
    for &net in graph.topo() {
        let at = ready[net.as_raw() as usize];
        if at.rise >= Time::INF && at.fall >= Time::INF {
            continue;
        }
        for &ai in graph.fanout_arcs(net) {
            let arc = graph.arc(ai);
            let out = crate::graph::propagate_min(arc.sense, at, arc.delay.min);
            let slot = &mut ready[arc.to.as_raw() as usize];
            *slot = (*slot).min(out);
        }
    }
}

/// Backward required-time propagation for maximum-delay constraints:
/// `Q_i = min_z (Q_z − P_iz)`. Seeds are closure times at cluster
/// outputs; unconstrained nets keep [`Time::INF`].
pub fn propagate_required(graph: &TimingGraph, required: &mut TimeTable) {
    for &net in graph.topo().iter().rev() {
        for &ai in graph.fanin_arcs(net) {
            let arc = graph.arc(ai);
            let req_out = required[arc.to.as_raw() as usize];
            if req_out.rise >= Time::INF && req_out.fall >= Time::INF {
                continue;
            }
            let req_in = required_backward(arc.sense, req_out, arc.delay.max);
            let slot = &mut required[arc.from.as_raw() as usize];
            *slot = (*slot).min(req_in);
        }
    }
}

/// Maps a required time at an arc's output back to the arc's input: the
/// input transition `tr` must arrive by
/// `min over reachable output transitions (required_out − delay)`.
fn required_backward(
    sense: Sense,
    required_out: RiseFall<Time>,
    delay: RiseFall<Time>,
) -> RiseFall<Time> {
    let minus = required_out.zip_with(delay, Time::saturating_sub);
    match sense {
        Sense::Positive => minus,
        Sense::Negative => minus.swapped(),
        Sense::NonUnate => RiseFall::splat(minus.rise.min(minus.fall)),
    }
}

/// Per-net slack: `required − ready` (saturating), rise/fall split.
pub fn slack_table(ready: &TimeTable, required: &TimeTable) -> TimeTable {
    ready
        .iter()
        .zip(required)
        .map(|(r, q)| q.zip_with(*r, Time::saturating_sub))
        .collect()
}

/// The scalar node slack: the minimum of the rise and fall slacks.
pub fn scalar_slack(slack: RiseFall<Time>) -> Time {
    slack.rise.min(slack.fall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::{sc89, Binding};
    use hb_netlist::{Design, ModuleId, PinDir};
    use hb_units::Transition;

    /// Builds `a -> INV(u1) -> b -> INV(u2) -> y` and `c -> NAND2 ... `:
    /// a reconvergent two-level network:
    ///
    /// ```text
    /// a --INV--> b --+
    ///                NAND2 --> y
    /// a --BUF--> c --+
    /// ```
    fn reconvergent() -> (Design, ModuleId, hb_cells::Library) {
        let lib = sc89();
        let mut d = Design::new("r");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let b = d.add_net(m, "b").unwrap();
        let c = d.add_net(m, "c").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        d.add_port(m, "y", PinDir::Output, y).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let buf = d.leaf_by_name("BUF_X1").unwrap();
        let nand = d.leaf_by_name("NAND2_X1").unwrap();
        let u1 = d.add_leaf_instance(m, "u1", inv).unwrap();
        let u2 = d.add_leaf_instance(m, "u2", buf).unwrap();
        let u3 = d.add_leaf_instance(m, "u3", nand).unwrap();
        d.connect(m, u1, "A", a).unwrap();
        d.connect(m, u1, "Y", b).unwrap();
        d.connect(m, u2, "A", a).unwrap();
        d.connect(m, u2, "Y", c).unwrap();
        d.connect(m, u3, "A", b).unwrap();
        d.connect(m, u3, "B", c).unwrap();
        d.connect(m, u3, "Y", y).unwrap();
        d.set_top(m).unwrap();
        (d, m, lib)
    }

    fn graph_of(d: &Design, m: ModuleId, lib: &hb_cells::Library) -> TimingGraph {
        let binding = Binding::new(d, lib);
        TimingGraph::build(d, m, &binding, lib).unwrap()
    }

    #[test]
    fn forward_takes_worst_input() {
        let (d, m, lib) = reconvergent();
        let g = graph_of(&d, m, &lib);
        let module = d.module(m);
        let a = module.net_by_name("a").unwrap();
        let b = module.net_by_name("b").unwrap();
        let c = module.net_by_name("c").unwrap();
        let y = module.net_by_name("y").unwrap();

        let mut ready = table(&g, Time::NEG_INF);
        ready[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut ready);

        let rb = ready[b.as_raw() as usize];
        let rc = ready[c.as_raw() as usize];
        let ry = ready[y.as_raw() as usize];
        assert!(rb.worst() > Time::ZERO && rc.worst() > Time::ZERO);
        // The buffer path is slower than the inverter path in sc89.
        assert!(rc.worst() > rb.worst());
        // NAND output must be later than both inputs.
        assert!(ry.worst() > rc.worst());
        // Unseeded nets untouched:
        let ck_like = table(&g, Time::NEG_INF);
        assert_eq!(ck_like[y.as_raw() as usize], RiseFall::splat(Time::NEG_INF));
    }

    #[test]
    fn min_arrival_is_never_later_than_max() {
        let (d, m, lib) = reconvergent();
        let g = graph_of(&d, m, &lib);
        let module = d.module(m);
        let a = module.net_by_name("a").unwrap();

        let mut rmax = table(&g, Time::NEG_INF);
        let mut rmin = table(&g, Time::INF);
        rmax[a.as_raw() as usize] = RiseFall::ZERO;
        rmin[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut rmax);
        propagate_ready_min(&g, &mut rmin);
        for (id, _) in module.nets() {
            let i = id.as_raw() as usize;
            if rmax[i].worst().is_finite() {
                for tr in Transition::BOTH {
                    assert!(
                        rmin[i][tr] <= rmax[i][tr],
                        "net {id}: min {} > max {}",
                        rmin[i][tr],
                        rmax[i][tr]
                    );
                }
            }
        }
    }

    #[test]
    fn backward_slack_agrees_with_forward() {
        let (d, m, lib) = reconvergent();
        let g = graph_of(&d, m, &lib);
        let module = d.module(m);
        let a = module.net_by_name("a").unwrap();
        let y = module.net_by_name("y").unwrap();

        let mut ready = table(&g, Time::NEG_INF);
        ready[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut ready);
        let closure = Time::from_ns(10);
        let mut required = table(&g, Time::INF);
        required[y.as_raw() as usize] = RiseFall::splat(closure);
        propagate_required(&g, &mut required);

        let slacks = slack_table(&ready, &required);
        // Slack at the endpoint equals closure − arrival.
        let end = slacks[y.as_raw() as usize];
        assert_eq!(
            scalar_slack(end),
            closure - ready[y.as_raw() as usize].worst()
        );
        // Source slack equals the worst endpoint slack through the
        // critical path (block method invariant: the minimum node slack
        // along a critical path is constant).
        let start = scalar_slack(slacks[a.as_raw() as usize]);
        assert_eq!(start, scalar_slack(end));
    }

    #[test]
    fn required_tightens_through_nonunate() {
        // XOR: backward required time must take the minimum over both
        // output transitions.
        let lib = sc89();
        let mut d = Design::new("x");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let b = d.add_net(m, "b").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        d.add_port(m, "b", PinDir::Input, b).unwrap();
        d.add_port(m, "y", PinDir::Output, y).unwrap();
        let xor = d.leaf_by_name("XOR2_X1").unwrap();
        let u = d.add_leaf_instance(m, "u", xor).unwrap();
        d.connect(m, u, "A", a).unwrap();
        d.connect(m, u, "B", b).unwrap();
        d.connect(m, u, "Y", y).unwrap();
        d.set_top(m).unwrap();
        let g = graph_of(&d, m, &lib);

        let mut required = table(&g, Time::INF);
        required[y.as_raw() as usize] = RiseFall::new(Time::from_ns(8), Time::from_ns(5));
        propagate_required(&g, &mut required);
        let ra = required[a.as_raw() as usize];
        // Both input transitions see the tighter (5 ns) output bound.
        assert_eq!(ra.rise, ra.fall);
        assert!(ra.rise < Time::from_ns(5));
    }

    #[test]
    fn sentinel_tables() {
        let (d, m, lib) = reconvergent();
        let g = graph_of(&d, m, &lib);
        let t = table(&g, Time::NEG_INF);
        assert_eq!(t.len(), d.module(m).net_count());
        assert!(t.iter().all(|v| v.rise == Time::NEG_INF));
    }
}
