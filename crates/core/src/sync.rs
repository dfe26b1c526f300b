//! The synchronising-element analysis model (paper Section 5).
//!
//! Each synchronising element is analyzed through one [`Replica`] per
//! control pulse within the overall period (an element clocked at `n×`
//! the overall frequency becomes `n` parallel replicas — paper
//! Section 4). A replica carries the paper's *terminal offsets* in their
//! simplified form (Figure 2b):
//!
//! * `O_cc = 0` (fixed lower bound on the closure control time);
//! * `O_dc = −D_setup` (fixed lower bound on input closure);
//! * `O_ac` — assertion control time, lower-bounded by the control-path
//!   delay; held at that bound (asserting as early as the control
//!   allows);
//! * `O_dx` / `O_zd` — the adjustable data-side pair, coupled for
//!   transparent latches by `O_zd = W + O_dx + D_dx` (Figure 3) and
//!   pinned to zero for trailing-edge elements.
//!
//! The *effective* output assertion offset is `max(O_xc, O_zd)` (plus the
//! load-dependent output delay) and the effective input closure offset is
//! `min(O_dc, O_dx)`. Slack transfer moves the `(O_dx, O_zd)` pair within
//! the transparency window; trailing-edge elements have a zero-width
//! window and never move — which is exactly why they decouple adjacent
//! clusters.

use hb_cells::SyncKind;
use hb_clock::EdgeId;
use hb_netlist::{InstId, NetId};
use hb_sta::{Algebra, Numeric};
use hb_units::Time;

/// One per-pulse analysis replica of a synchronising element.
///
/// The movable data-side offset `O_dx` is a value of the analysis
/// algebra: a plain [`Time`] in the numeric analysis, an affine
/// expression in the clock period in the parametric one. The offset
/// model (`*_in` methods) is written once over [`Algebra`]; the
/// numeric accessors evaluate it in the [`Numeric`] instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replica<V = Time> {
    /// The instance this replica models.
    pub inst: InstId,
    /// Index into the timing graph's sync list.
    pub sync_index: usize,
    /// Which control pulse of the overall period this replica owns.
    pub pulse_index: u32,
    /// The element kind.
    pub kind: SyncKind,
    /// The ideal output assertion edge (leading edge for transparent
    /// kinds, trailing edge for edge-triggered ones).
    pub assert_edge: EdgeId,
    /// The ideal input closure edge (always the trailing edge).
    pub close_edge: EdgeId,
    /// The net at the data input.
    pub data_net: NetId,
    /// The net at the output, when connected.
    pub output_net: Option<NetId>,
    /// The net at the complementary output (output-bar), when present.
    pub output_bar_net: Option<NetId>,
    timing: ReplicaTiming,
    transparent: bool,
    /// The pulse width `W`, lifted into the algebra once.
    width: V,
    o_dx: V,
}

/// The constructor parameters that are pure element timing (everything
/// except the structural bindings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaTiming {
    /// Control pulse width `W`.
    pub width: Time,
    /// Set-up time `D_setup`.
    pub setup: Time,
    /// Hold time after input closure (supplementary checks only).
    pub hold: Time,
    /// Control-to-output delay `D_cx`.
    pub d_cx: Time,
    /// Data-to-output delay `D_dx` (transparent kinds).
    pub d_dx: Time,
    /// Control-path delay from the clock source (lower bound on `O_ac`).
    pub cdel: Time,
    /// Load-dependent output delay added to every assertion.
    pub out_extra: Time,
}

impl Replica {
    /// Creates a replica with the paper's initial offsets: `O_ac` at its
    /// control-path lower bound and, for transparent kinds, the data pair
    /// at the *late* end of the window (`O_zd = W`, i.e. behaving like a
    /// trailing-edge latch until slack transfer moves it).
    ///
    /// `transparent` selects the analysis model: pass `false` to force
    /// the McWilliams-style edge-triggered baseline even for transparent
    /// cells.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        inst: InstId,
        sync_index: usize,
        pulse_index: u32,
        kind: SyncKind,
        assert_edge: EdgeId,
        close_edge: EdgeId,
        data_net: NetId,
        output_net: Option<NetId>,
        timing: ReplicaTiming,
        transparent: bool,
    ) -> Replica {
        let mut replica = Replica {
            inst,
            sync_index,
            pulse_index,
            kind,
            assert_edge,
            close_edge,
            data_net,
            output_net,
            output_bar_net: None,
            timing,
            transparent,
            width: timing.width,
            o_dx: Time::ZERO,
        };
        replica.reset_offsets();
        replica
    }

    /// Attaches a complementary (output-bar) net: it asserts at the same
    /// offsets as the main output.
    pub fn with_output_bar(mut self, net: NetId) -> Replica {
        self.output_bar_net = Some(net);
        self
    }

    /// This replica with its offsets lifted into another algebra.
    pub(crate) fn lift<A: Algebra>(&self, alg: &A) -> Replica<A::Val> {
        Replica {
            inst: self.inst,
            sync_index: self.sync_index,
            pulse_index: self.pulse_index,
            kind: self.kind,
            assert_edge: self.assert_edge,
            close_edge: self.close_edge,
            data_net: self.data_net,
            output_net: self.output_net,
            output_bar_net: self.output_bar_net,
            timing: self.timing,
            transparent: self.transparent,
            width: alg.lift(self.width),
            o_dx: alg.cst(self.o_dx),
        }
    }

    /// Whether `other` models the same element pulse with the same
    /// edges, nets and transparency — everything but its timing.
    pub(crate) fn same_binding(&self, other: &Replica) -> bool {
        (self.inst, self.sync_index, self.pulse_index, self.kind)
            == (other.inst, other.sync_index, other.pulse_index, other.kind)
            && (self.assert_edge, self.close_edge) == (other.assert_edge, other.close_edge)
            && (self.data_net, self.output_net, self.output_bar_net)
                == (other.data_net, other.output_net, other.output_bar_net)
            && (self.transparent, self.timing.width) == (other.transparent, other.timing.width)
    }

    /// Whether this replica has an adjustable transparency window.
    pub fn is_transparent(&self) -> bool {
        self.transparent
    }

    /// The control-path delay from the clock source (the lower bound on
    /// `O_ac`, and the skew term of the supplementary checks).
    pub fn cdel(&self) -> Time {
        self.timing.cdel
    }

    /// The element's hold requirement (supplementary checks only).
    pub fn hold(&self) -> Time {
        self.timing.hold
    }

    /// The control pulse width `W`.
    pub fn width(&self) -> Time {
        self.timing.width
    }

    /// The current `O_dx` offset (input closure implied by the output
    /// assertion requirement, relative to the ideal closure time).
    pub fn o_dx(&self) -> Time {
        self.o_dx
    }

    /// The current `O_zd` offset (output assertion implied by input
    /// timing, relative to the ideal assertion time):
    /// `O_zd = W + O_dx + D_dx` for transparent kinds, zero otherwise.
    pub fn o_zd(&self) -> Time {
        self.o_zd_in(&Numeric)
    }

    /// The assertion-control offset `O_xc = O_ac + D_cx`; `O_ac` is
    /// held at its control-path lower bound.
    pub fn o_xc(&self) -> Time {
        self.timing.cdel + self.timing.d_cx
    }

    /// The effective output assertion offset relative to the ideal
    /// assertion time: `max(O_xc, O_zd)` plus the load-dependent output
    /// delay.
    pub fn output_assert_offset(&self) -> Time {
        self.output_assert_offset_in(&mut Numeric)
    }

    /// The effective input closure offset relative to the ideal closure
    /// time: `min(O_dc, O_dx)` with `O_dc = −D_setup`.
    pub fn input_close_offset(&self) -> Time {
        self.input_close_offset_in(&mut Numeric)
    }

    /// The maximum amount by which the data pair may still be decreased
    /// (moved earlier): the element constraint `O_zd ≥ 0`.
    pub fn forward_room(&self) -> Time {
        self.o_zd()
    }

    /// The maximum amount by which the data pair may still be increased
    /// (moved later): the element constraint `O_dx ≤ −D_dx`
    /// (equivalently `O_zd ≤ W`).
    pub fn backward_room(&self) -> Time {
        self.backward_room_in(&Numeric)
    }

    /// Decreases `O_dx` (and the derived `O_zd`) by
    /// `min(amount, forward_room)`, returning the amount actually moved.
    /// Non-positive requests move nothing.
    pub fn transfer_forward(&mut self, amount: Time) -> Time {
        self.transfer_forward_in(&mut Numeric, amount)
    }

    /// Increases `O_dx` (and the derived `O_zd`) by
    /// `min(amount, backward_room)`, returning the amount actually moved.
    /// Non-positive requests move nothing.
    pub fn transfer_backward(&mut self, amount: Time) -> Time {
        self.transfer_backward_in(&mut Numeric, amount)
    }

    /// Resets the data pair to the initial (late) position.
    pub fn reset_offsets(&mut self) {
        self.o_dx = if self.transparent {
            -self.timing.d_dx
        } else {
            Time::ZERO
        };
    }
}

/// The offset model, once, over any value algebra.
impl<V: Copy> Replica<V> {
    pub(crate) fn o_zd_in<A: Algebra<Val = V>>(&self, alg: &A) -> V {
        if self.transparent {
            let w = alg.add(self.width, self.o_dx);
            alg.add_c(w, self.timing.d_dx)
        } else {
            alg.cst(Time::ZERO)
        }
    }

    pub(crate) fn output_assert_offset_in<A: Algebra<Val = V>>(&self, alg: &mut A) -> V {
        let o_xc = alg.cst(self.timing.cdel + self.timing.d_cx);
        let o_zd = self.o_zd_in(alg);
        let m = alg.max(o_xc, o_zd);
        alg.add_c(m, self.timing.out_extra)
    }

    pub(crate) fn input_close_offset_in<A: Algebra<Val = V>>(&self, alg: &mut A) -> V {
        let alt = if self.transparent {
            self.o_dx
        } else {
            alg.cst(Time::ZERO)
        };
        alg.min(alg.cst(-self.timing.setup), alt)
    }

    pub(crate) fn backward_room_in<A: Algebra<Val = V>>(&self, alg: &A) -> V {
        if self.transparent {
            alg.sub(alg.cst(-self.timing.d_dx), self.o_dx)
        } else {
            alg.cst(Time::ZERO)
        }
    }

    pub(crate) fn transfer_forward_in<A: Algebra<Val = V>>(&mut self, alg: &mut A, amount: V) -> V {
        // The forward room is `O_zd` itself (`O_zd ≥ 0`).
        let room = self.o_zd_in(alg);
        let moved = clamp_move(alg, amount, room);
        self.o_dx = alg.sub(self.o_dx, moved);
        moved
    }

    pub(crate) fn transfer_backward_in<A: Algebra<Val = V>>(
        &mut self,
        alg: &mut A,
        amount: V,
    ) -> V {
        let room = self.backward_room_in(alg);
        let moved = clamp_move(alg, amount, room);
        self.o_dx = alg.add(self.o_dx, moved);
        moved
    }
}

/// `max(min(amount, room), 0)`: the part of a transfer request the
/// window admits.
fn clamp_move<A: Algebra>(alg: &mut A, amount: A::Val, room: A::Val) -> A::Val {
    let clamped = alg.min(amount, room);
    alg.max(clamped, alg.cst(Time::ZERO))
}

/// The effective `(output assertion, input closure)` offsets of every
/// replica — the only replica state a slack evaluation reads.
pub(crate) fn offsets<A: Algebra>(
    alg: &mut A,
    replicas: &[Replica<A::Val>],
) -> Vec<(A::Val, A::Val)> {
    replicas
        .iter()
        .map(|r| (r.output_assert_offset_in(alg), r.input_close_offset_in(alg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(
        width_ns: i64,
        setup_ps: i64,
        d_cx_ps: i64,
        d_dx_ps: i64,
        cdel_ps: i64,
    ) -> ReplicaTiming {
        ReplicaTiming {
            width: Time::from_ns(width_ns),
            setup: Time::from_ps(setup_ps),
            hold: Time::from_ps(100),
            d_cx: Time::from_ps(d_cx_ps),
            d_dx: Time::from_ps(d_dx_ps),
            cdel: Time::from_ps(cdel_ps),
            out_extra: Time::ZERO,
        }
    }

    fn replica(t: ReplicaTiming, transparent: bool) -> Replica {
        Replica::new(
            InstId::from_raw(0),
            0,
            0,
            if transparent {
                SyncKind::Transparent
            } else {
                SyncKind::TrailingEdge
            },
            EdgeId::from_raw(0),
            EdgeId::from_raw(1),
            NetId::from_raw(0),
            Some(NetId::from_raw(1)),
            t,
            transparent,
        )
    }

    /// The worked example of Section 5 / Figure 3: a transparent latch
    /// with no internal delays, a 20 ns control pulse, output asserted
    /// 5 ns after the pulse begins, and a 2 ns clock-to-control delay.
    #[test]
    fn figure3_worked_example() {
        let mut r = replica(timing(20, 0, 0, 0, 2_000), true);
        // Move the pair so that O_zd = 5 ns: from the initial O_zd = W,
        // transfer (W − 5) forward.
        let moved = r.transfer_forward(Time::from_ns(15));
        assert_eq!(moved, Time::from_ns(15));
        assert_eq!(r.o_zd(), Time::from_ns(5));
        assert_eq!(r.o_dx(), Time::from_ns(-15));
        assert_eq!(r.o_xc(), Time::from_ns(2));
        // Output asserts at max(O_xc, O_zd) = 5 ns after the leading edge.
        assert_eq!(r.output_assert_offset(), Time::from_ns(5));
        // Input closes 15 ns before the trailing edge.
        assert_eq!(r.input_close_offset(), Time::from_ns(-15));
    }

    #[test]
    fn trailing_edge_constraints() {
        // Edge-triggered: O_dx = O_zd = 0, input closes at −setup,
        // output asserts at O_ac + D_cx.
        let mut r = replica(timing(10, 300, 450, 0, 100), false);
        assert_eq!(r.o_zd(), Time::ZERO);
        assert_eq!(r.input_close_offset(), Time::from_ps(-300));
        assert_eq!(r.output_assert_offset(), Time::from_ps(550));
        assert_eq!(r.forward_room(), Time::ZERO);
        assert_eq!(r.backward_room(), Time::ZERO);
        assert_eq!(r.transfer_forward(Time::from_ns(1)), Time::ZERO);
        assert_eq!(r.transfer_backward(Time::from_ns(1)), Time::ZERO);
        assert!(!r.is_transparent());
    }

    #[test]
    fn transparent_window_bounds() {
        let mut r = replica(timing(20, 250, 400, 350, 0), true);
        // Initial: late end of the window.
        assert_eq!(r.o_zd(), r.width());
        assert_eq!(r.backward_room(), Time::ZERO);
        assert_eq!(r.forward_room(), Time::from_ns(20));
        // Walk to the early end.
        let moved = r.transfer_forward(Time::from_ns(100));
        assert_eq!(moved, Time::from_ns(20), "clamped to the window");
        assert_eq!(r.o_zd(), Time::ZERO);
        assert_eq!(r.forward_room(), Time::ZERO);
        assert_eq!(r.backward_room(), Time::from_ns(20));
        // O_zd never leaves [0, W].
        r.transfer_backward(Time::from_ns(7));
        assert_eq!(r.o_zd(), Time::from_ns(7));
        assert!(r.o_zd() >= Time::ZERO && r.o_zd() <= r.width());
    }

    #[test]
    fn negative_requests_move_nothing() {
        let mut r = replica(timing(20, 0, 0, 0, 0), true);
        assert_eq!(r.transfer_forward(Time::from_ns(-3)), Time::ZERO);
        assert_eq!(r.transfer_backward(Time::from_ns(-3)), Time::ZERO);
        assert_eq!(r.o_zd(), r.width());
    }

    #[test]
    fn setup_dominates_when_pair_is_late() {
        // With O_dx = −D_dx = −350 ps and setup 250 ps, the effective
        // closure is min(−250, −350) = −350 ps (pessimistic-safe).
        let r = replica(timing(20, 250, 400, 350, 0), true);
        assert_eq!(r.input_close_offset(), Time::from_ps(-350));
    }

    #[test]
    fn control_path_floors_assertion() {
        // A slow control path keeps the output from asserting early even
        // when the data pair is at the leading edge.
        let mut r = replica(timing(20, 0, 400, 0, 3_000), true);
        r.transfer_forward(Time::from_ns(100));
        assert_eq!(r.o_zd(), Time::ZERO);
        assert_eq!(r.output_assert_offset(), Time::from_ps(3_400));
    }

    #[test]
    fn reset_restores_initial_position() {
        let mut r = replica(timing(20, 0, 0, 0, 0), true);
        r.transfer_forward(Time::from_ns(9));
        r.reset_offsets();
        assert_eq!(r.o_zd(), r.width());
    }

    #[test]
    fn output_load_adds_to_assertion() {
        let mut t = timing(10, 0, 100, 0, 0);
        t.out_extra = Time::from_ps(70);
        let r = replica(t, false);
        assert_eq!(r.output_assert_offset(), Time::from_ps(170));
    }
}
