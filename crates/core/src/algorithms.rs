//! Algorithms 1 and 2 of the paper.
//!
//! **Algorithm 1 (identification of slow paths)** iterates *complete
//! slack transfer* — first forward until a fixpoint, then backward —
//! followed by *partial* transfers that return some time to every path
//! that is fast enough, so that fast paths end with strictly positive
//! slacks and every node on a too-slow path ends with a non-positive
//! slack. Because the simplified synchronising-element model is used,
//! marginally-fast-enough paths may be reported slow (pessimistic-safe).
//!
//! **Algorithm 2 (timing-constraint generation)** starts from
//! Algorithm 1's offsets and *snatches* time — moving latch offsets even
//! when the donating side cannot spare the time — backward to settle the
//! actual ready times of nodes on slow paths, then forward to settle the
//! actual required times.
//!
//! Algorithm 1 is written once over the value [`Algebra`]: the numeric
//! analyzer runs it over [`Time`](hb_units::Time), the parametric
//! analysis over affine values in the clock period, where a positive
//! partial division may split the period region (`A::Split`).

use hb_sta::{Algebra, Numeric};
use hb_units::Time;

use crate::analysis::{Evaluator, Prepared, SlackView, Terminals};
use crate::sync::Replica;

/// The divisor `n > 1` for *partial* slack transfer in iterations 3
/// and 4 of Algorithm 1 (the paper's `n`): each partial cycle moves an
/// `n`-th of a node's positive, finite slack.
pub(crate) const PARTIAL_DIVISOR: i64 = 2;

/// A slack evaluation as the algorithms consume it. Successive calls
/// within one analysis may build on each other, so the last call is
/// the analysis's current view.
pub(crate) trait Evaluate<A: Algebra> {
    /// Evaluates every slack at the replicas' current offsets and
    /// returns the terminal slacks.
    fn evaluate(&mut self, alg: &mut A, replicas: &[Replica<A::Val>]) -> &Terminals<A::Val>;
}

/// Iteration counters from Algorithm 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Algorithm1Stats {
    /// Complete forward slack-transfer cycles performed (iteration 1).
    pub forward_cycles: usize,
    /// Complete backward cycles (iteration 2).
    pub backward_cycles: usize,
    /// Partial forward cycles (iteration 3).
    pub partial_forward_cycles: usize,
    /// Partial backward cycles (iteration 4).
    pub partial_backward_cycles: usize,
    /// Whether the early-out fired (all slacks strictly positive).
    pub converged_early: bool,
    /// Whether the safety cap on cycles was hit.
    pub cycle_cap_hit: bool,
}

/// Iteration counters from Algorithm 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Algorithm2Stats {
    /// Backward snatch cycles (iteration 1).
    pub backward_snatch_cycles: usize,
    /// Forward snatch cycles (iteration 2).
    pub forward_snatch_cycles: usize,
    /// Whether either snatch loop stopped at the cycle cap
    /// ([`AnalysisOptions::max_cycles`](crate::AnalysisOptions)) while
    /// still moving time, so its settled times are not a fixpoint.
    pub cycle_cap_hit: bool,
}

/// One slack-transfer cycle: `request` turns each replica's terminal
/// slack in `slack` into a transfer amount (`None`: no transfer), which
/// `transfer` applies. Returns whether any time moved.
fn transfer_cycle<A: Algebra>(
    alg: &mut A,
    replicas: &mut [Replica<A::Val>],
    slack: &[A::Val],
    mut request: impl FnMut(&mut A, A::Val) -> Result<Option<A::Val>, A::Split>,
    transfer: impl Fn(&mut Replica<A::Val>, &mut A, A::Val) -> A::Val,
) -> Result<bool, A::Split> {
    let mut any = false;
    for (r, &s) in replicas.iter_mut().zip(slack) {
        if let Some(amount) = request(alg, s)? {
            let moved = transfer(r, alg, amount);
            if alg.gt_zero(moved) {
                any = true;
            }
        }
    }
    Ok(any)
}

/// Runs Algorithm 1, mutating `replicas` in place, and returns its
/// statistics; the final view is `ev`'s last evaluation. Fails only
/// when the algebra cannot represent a partial transfer on its current
/// domain.
pub(crate) fn algorithm1<A: Algebra>(
    prep: &Prepared,
    alg: &mut A,
    replicas: &mut [Replica<A::Val>],
    ev: &mut impl Evaluate<A>,
) -> Result<Algorithm1Stats, A::Split> {
    let mut stats = Algorithm1Stats::default();
    let cap = prep.options.max_cycles;
    // Only strictly positive, finite slack is transferred: all of it in
    // the complete iterations, a `PARTIAL_DIVISOR`-th of it in the
    // partial ones.
    let complete = |a: &mut A, s: A::Val| Ok((a.gt_zero(s) && a.is_finite(s)).then_some(s));
    let partial = |a: &mut A, s: A::Val| match a.gt_zero(s) && a.is_finite(s) {
        true => a.div_pos(s, PARTIAL_DIVISOR).map(Some),
        false => Ok(None),
    };
    let forward = Replica::transfer_forward_in;
    let backward = Replica::transfer_backward_in;

    // Iteration 1: complete forward slack transfer to a fixpoint.
    loop {
        let view = ev.evaluate(alg, replicas);
        if view.all_positive(alg) {
            stats.converged_early = true;
            return Ok(stats);
        }
        if !transfer_cycle(alg, replicas, &view.replica_in, complete, forward)? {
            break;
        }
        stats.forward_cycles += 1;
        if stats.forward_cycles >= cap {
            stats.cycle_cap_hit = true;
            break;
        }
    }

    // Iteration 2: complete backward slack transfer to a fixpoint.
    loop {
        let view = ev.evaluate(alg, replicas);
        if view.all_positive(alg) {
            stats.converged_early = true;
            return Ok(stats);
        }
        if !transfer_cycle(alg, replicas, &view.replica_out, complete, backward)? {
            break;
        }
        stats.backward_cycles += 1;
        if stats.backward_cycles >= cap {
            stats.cycle_cap_hit = true;
            break;
        }
    }

    // Iteration 3: partial forward transfer, once per complete backward
    // cycle made — returns time to paths that are fast enough so they
    // finish with strictly positive slack.
    for _ in 0..stats.backward_cycles {
        let view = ev.evaluate(alg, replicas);
        let any = transfer_cycle(alg, replicas, &view.replica_in, partial, forward)?;
        stats.partial_forward_cycles += 1;
        if !any {
            break;
        }
    }

    // Iteration 4: partial backward transfer, once per complete forward
    // cycle made.
    for _ in 0..stats.forward_cycles {
        let view = ev.evaluate(alg, replicas);
        let any = transfer_cycle(alg, replicas, &view.replica_out, partial, backward)?;
        stats.partial_backward_cycles += 1;
        if !any {
            break;
        }
    }

    // Final step: find all node slacks.
    ev.evaluate(alg, replicas);
    Ok(stats)
}

/// Runs Algorithm 2 starting from Algorithm-1 offsets. Returns the slack
/// view whose `ready` tables hold the settled ready times (recorded
/// after backward snatching), the view whose `required` tables hold the
/// settled required times (recorded after forward snatching), and
/// statistics.
pub(crate) fn algorithm2(
    prep: &Prepared,
    replicas: &mut [Replica],
    ev: &mut Evaluator<'_>,
) -> (SlackView, SlackView, Algorithm2Stats) {
    let mut stats = Algorithm2Stats::default();
    let cap = prep.options.max_cycles;
    // Snatching moves a too-slow terminal (negative, finite slack) by
    // up to its deficit, whether or not the other side can spare it.
    let snatch = |_: &mut Numeric, s: Time| Ok((s < Time::ZERO && s.is_finite()).then_some(-s));

    // Iteration 1: snatch time backward until no time is snatched, then
    // record ready times at all cell inputs: a replica whose *input*
    // terminal is too slow moves its closure later.
    loop {
        let view = ev.evaluate(&mut Numeric, replicas);
        let backward = Replica::transfer_backward_in;
        let Ok(any) = transfer_cycle(&mut Numeric, replicas, &view.replica_in, snatch, backward);
        stats.backward_snatch_cycles += 1;
        if !any {
            break;
        }
        if stats.backward_snatch_cycles >= cap {
            stats.cycle_cap_hit = true;
            break;
        }
    }
    // Only its settled ready times are read, and only by the
    // constraints; the forward-snatch loop runs without the rest.
    let ready_view = ev.view().ready_only();

    // Iteration 2: snatch time forward until no time is snatched, then
    // record required times at all cell outputs: a replica whose
    // *output* terminal is too slow moves its assertion earlier.
    loop {
        let view = ev.evaluate(&mut Numeric, replicas);
        let forward = Replica::transfer_forward_in;
        let Ok(any) = transfer_cycle(&mut Numeric, replicas, &view.replica_out, snatch, forward);
        stats.forward_snatch_cycles += 1;
        if !any {
            break;
        }
        if stats.forward_snatch_cycles >= cap {
            stats.cycle_cap_hit = true;
            break;
        }
    }
    let required_view = ev.view();

    (ready_view, required_view, stats)
}
