//! The value algebra the slack sweeps are written over.
//!
//! A sweep, the replica offset model and the slack-transfer loop of
//! the system-level analyzer only ever combine time values with a
//! handful of operations: lifting clock-derived times and cell
//! constants, saturating addition and subtraction, `max`/`min`, two
//! sign tests and one positive division. [`Algebra`] names exactly
//! those, so each piece of analysis is written once and instantiated
//! per value representation:
//!
//! * [`Numeric`] — plain [`Time`], a zero-sized instance that
//!   monomorphizes to the ordinary integer code;
//! * the symbolic instance of the parametric analysis (in
//!   `hummingbird`), whose values are affine in the clock period and
//!   whose comparisons may split the period domain they are decided on.
//!
//! Every instance must agree with [`Numeric`] value for value: the
//! symbolic result evaluated at any period is the numeric result at
//! that period. In particular `max`/`min` keep the *left* operand on
//! ties, exactly as [`Time::max`]/[`Time::min`] do.

use std::convert::Infallible;

use hb_units::{RiseFall, Sense, Time};

/// The operations slack analysis applies to time values.
pub trait Algebra {
    /// A time value.
    type Val: Copy + PartialEq;
    /// Raised by [`Algebra::div_pos`] when the quotient is not
    /// representable on the current domain.
    type Split;
    /// "No signal yet" — the arrival sentinel.
    const NEG_INF: Self::Val;
    /// "Unconstrained" — the required-time sentinel.
    const INF: Self::Val;

    /// Lifts a clock-derived time (an edge position or pulse width),
    /// which scales with the clocks.
    fn lift(&self, t: Time) -> Self::Val;
    /// Lifts a cell constant (a delay, set-up time or boundary offset),
    /// which does not.
    fn cst(&self, c: Time) -> Self::Val;
    /// Addition with absorbing sentinels, as [`Time::saturating_add`].
    fn add(&self, x: Self::Val, y: Self::Val) -> Self::Val;
    /// Subtraction with absorbing sentinels, as [`Time::saturating_sub`].
    fn sub(&self, x: Self::Val, y: Self::Val) -> Self::Val;
    /// The larger value; `x` on ties.
    fn max(&mut self, x: Self::Val, y: Self::Val) -> Self::Val;
    /// The smaller value; `x` on ties.
    fn min(&mut self, x: Self::Val, y: Self::Val) -> Self::Val;
    /// Whether `x > 0`.
    fn gt_zero(&mut self, x: Self::Val) -> bool;
    /// Whether `x` is not a sentinel.
    fn is_finite(&self, x: Self::Val) -> bool;
    /// `x / d` for `x` finite and positive and `d ≥ 2`, truncating
    /// (equivalently flooring) as `Time / i64` does.
    fn div_pos(&mut self, x: Self::Val, d: i64) -> Result<Self::Val, Self::Split>;

    /// Adds a cell constant.
    fn add_c(&self, x: Self::Val, c: Time) -> Self::Val {
        self.add(x, self.cst(c))
    }

    /// Subtracts a cell constant.
    fn sub_c(&self, x: Self::Val, c: Time) -> Self::Val {
        self.sub(x, self.cst(c))
    }

    /// Component-wise [`Algebra::max`], rise first.
    fn max_rf(&mut self, x: RiseFall<Self::Val>, y: RiseFall<Self::Val>) -> RiseFall<Self::Val> {
        x.zip_with(y, |a, b| self.max(a, b))
    }

    /// Component-wise [`Algebra::min`], rise first.
    fn min_rf(&mut self, x: RiseFall<Self::Val>, y: RiseFall<Self::Val>) -> RiseFall<Self::Val> {
        x.zip_with(y, |a, b| self.min(a, b))
    }

    /// The later of the two components, as `RiseFall::worst`.
    fn worst(&mut self, rf: RiseFall<Self::Val>) -> Self::Val {
        self.max(rf.rise, rf.fall)
    }

    /// The scalar node slack `min(required − ready)` over rise and fall.
    fn slack(&mut self, required: RiseFall<Self::Val>, ready: RiseFall<Self::Val>) -> Self::Val {
        let d = required.zip_with(ready, |q, r| self.sub(q, r));
        self.min(d.rise, d.fall)
    }

    /// Forward propagation through an arc, as [`Sense::propagate`].
    fn propagate(
        &mut self,
        sense: Sense,
        input: RiseFall<Self::Val>,
        delay: RiseFall<Time>,
    ) -> RiseFall<Self::Val> {
        let input = match sense {
            Sense::Positive => input,
            Sense::Negative => input.swapped(),
            Sense::NonUnate => RiseFall::splat(self.worst(input)),
        };
        input.zip_with(delay, |v, d| self.add_c(v, d))
    }

    /// Backward propagation of a required time through an arc, as
    /// [`crate::analysis::propagate_required`] does per arc.
    fn required_backward(
        &mut self,
        sense: Sense,
        required_out: RiseFall<Self::Val>,
        delay: RiseFall<Time>,
    ) -> RiseFall<Self::Val> {
        let minus = required_out.zip_with(delay, |v, d| self.sub_c(v, d));
        match sense {
            Sense::Positive => minus,
            Sense::Negative => minus.swapped(),
            Sense::NonUnate => RiseFall::splat(self.min(minus.rise, minus.fall)),
        }
    }
}

/// The numeric instance: values are plain [`Time`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Numeric;

impl Algebra for Numeric {
    type Val = Time;
    type Split = Infallible;
    const NEG_INF: Time = Time::NEG_INF;
    const INF: Time = Time::INF;

    #[inline]
    fn lift(&self, t: Time) -> Time {
        t
    }

    #[inline]
    fn cst(&self, c: Time) -> Time {
        c
    }

    #[inline]
    fn add(&self, x: Time, y: Time) -> Time {
        x.saturating_add(y)
    }

    #[inline]
    fn sub(&self, x: Time, y: Time) -> Time {
        x.saturating_sub(y)
    }

    #[inline]
    fn max(&mut self, x: Time, y: Time) -> Time {
        x.max(y)
    }

    #[inline]
    fn min(&mut self, x: Time, y: Time) -> Time {
        x.min(y)
    }

    #[inline]
    fn gt_zero(&mut self, x: Time) -> bool {
        x > Time::ZERO
    }

    #[inline]
    fn is_finite(&self, x: Time) -> bool {
        x.is_finite()
    }

    #[inline]
    fn div_pos(&mut self, x: Time, d: i64) -> Result<Time, Infallible> {
        Ok(x / d)
    }
}
