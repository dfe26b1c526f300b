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
///
/// Two lists make a cycle cost what the previous cycle moved (DESIGN
/// §5a): the *moved-replica list* an evaluation receives names the
/// replicas whose offsets the transfer cycle since the last call moved,
/// so only their offsets need recomputing; the *refold list* it hands
/// back names the terminals whose slacks it recomputed, so the next
/// cycle of a phase need visit only their replicas.
pub(crate) trait Evaluate<A: Algebra> {
    /// Evaluates every slack at the replicas' current offsets. `moved`
    /// lists, ascending, the replicas the last transfer cycle moved;
    /// the first call of an analysis reads every replica's offsets.
    fn evaluate(
        &mut self,
        alg: &mut A,
        replicas: &[Replica<A::Val>],
        moved: &[u32],
    ) -> Evaluation<'_, A::Val>;
}

/// What one evaluation hands back: the terminal slacks, and the
/// terminals (report order, ascending) whose slacks it recomputed —
/// `None` when every slack may have changed.
pub(crate) struct Evaluation<'e, V> {
    pub terms: &'e Terminals<V>,
    pub refolded: Option<&'e [u32]>,
}

impl<'e, V> Evaluation<'e, V> {
    /// The replica input slacks.
    fn replica_in(&self) -> Slacks<'e, V> {
        self.replicas_at(&self.terms.replica_in, 0)
    }

    /// The replica output slacks.
    fn replica_out(&self) -> Slacks<'e, V> {
        self.replicas_at(&self.terms.replica_out, self.terms.replica_in.len() as u32)
    }

    /// One slack per replica, `values`, at the terminals from `base` on.
    fn replicas_at(&self, values: &'e [V], base: u32) -> Slacks<'e, V> {
        let end = base + values.len() as u32;
        let within =
            |r: &'e [u32]| &r[r.partition_point(|&t| t < base)..r.partition_point(|&t| t < end)];
        Slacks {
            values,
            refolded: self.refolded.map(within),
            base,
        }
    }
}

/// One terminal slack per replica, as a transfer cycle reads them.
struct Slacks<'e, V> {
    values: &'e [V],
    /// The refolded terminals among them, ascending, as terminal
    /// indices (`base + replica`); `None`: every one may have changed.
    refolded: Option<&'e [u32]>,
    base: u32,
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

/// What the slack-transfer cycles of one analysis carry from one
/// evaluation to the next. A *phase* is one transfer loop: Algorithm
/// 1's four iterations, Algorithm 2's two snatch loops.
#[derive(Default)]
struct Transfers {
    /// The replicas the last cycle moved, ascending: the offsets the
    /// next evaluation recomputes, and candidates of the phase's next
    /// cycle.
    moved: Vec<u32>,
    /// Whether the next cycle continues a phase rather than opening one.
    continuing: bool,
    /// The replicas the cycle in progress visits.
    visit: Vec<u32>,
}

impl Transfers {
    /// Opens a phase: its first cycle visits every replica.
    fn open(&mut self) {
        self.continuing = false;
    }

    /// One slack-transfer cycle: `request` turns a replica's terminal
    /// slack into a transfer amount (`None`: no transfer), which
    /// `transfer` applies. Returns whether any time moved.
    ///
    /// The first cycle of a phase visits every replica. A later one
    /// visits, in ascending order, only the replicas whose terminal the
    /// last evaluation refolded and those the previous cycle moved: any
    /// other replica would request the same amount against the same
    /// room as when it last moved nothing. An evaluation that does not
    /// say what it refolded has every replica visited.
    fn cycle<A: Algebra>(
        &mut self,
        alg: &mut A,
        replicas: &mut [Replica<A::Val>],
        slack: Slacks<'_, A::Val>,
        mut request: impl FnMut(&mut A, A::Val) -> Result<Option<A::Val>, A::Split>,
        transfer: impl Fn(&mut Replica<A::Val>, &mut A, A::Val) -> A::Val,
    ) -> Result<bool, A::Split> {
        self.visit.clear();
        match slack.refolded.filter(|_| self.continuing) {
            Some(refolded) => {
                let base = slack.base;
                self.visit.extend(refolded.iter().map(|&t| t - base));
                self.visit.extend_from_slice(&self.moved);
                self.visit.sort_unstable();
                self.visit.dedup();
            }
            None => self.visit.extend(0..replicas.len() as u32),
        }
        self.continuing = true;
        self.moved.clear();
        for &k in &self.visit {
            let k = k as usize;
            if let Some(amount) = request(alg, slack.values[k])? {
                let moved = transfer(&mut replicas[k], alg, amount);
                if alg.gt_zero(moved) {
                    self.moved.push(k as u32);
                }
            }
        }
        Ok(!self.moved.is_empty())
    }
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
    let mut t = Transfers::default();

    // Iteration 1: complete forward slack transfer to a fixpoint.
    t.open();
    loop {
        let view = ev.evaluate(alg, replicas, &t.moved);
        if view.terms.all_positive(alg) {
            stats.converged_early = true;
            return Ok(stats);
        }
        if !t.cycle(alg, replicas, view.replica_in(), complete, forward)? {
            break;
        }
        stats.forward_cycles += 1;
        if stats.forward_cycles >= cap {
            stats.cycle_cap_hit = true;
            break;
        }
    }

    // Iteration 2: complete backward slack transfer to a fixpoint.
    t.open();
    loop {
        let view = ev.evaluate(alg, replicas, &t.moved);
        if view.terms.all_positive(alg) {
            stats.converged_early = true;
            return Ok(stats);
        }
        if !t.cycle(alg, replicas, view.replica_out(), complete, backward)? {
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
    t.open();
    for _ in 0..stats.backward_cycles {
        let view = ev.evaluate(alg, replicas, &t.moved);
        let any = t.cycle(alg, replicas, view.replica_in(), partial, forward)?;
        stats.partial_forward_cycles += 1;
        if !any {
            break;
        }
    }

    // Iteration 4: partial backward transfer, once per complete forward
    // cycle made.
    t.open();
    for _ in 0..stats.forward_cycles {
        let view = ev.evaluate(alg, replicas, &t.moved);
        let any = t.cycle(alg, replicas, view.replica_out(), partial, backward)?;
        stats.partial_backward_cycles += 1;
        if !any {
            break;
        }
    }

    // Final step: find all node slacks.
    ev.evaluate(alg, replicas, &t.moved);
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
    // Algorithm 1 ended on an evaluation, so no move is pending.
    let mut t = Transfers::default();

    // Iteration 1: snatch time backward until no time is snatched, then
    // record ready times at all cell inputs: a replica whose *input*
    // terminal is too slow moves its closure later.
    t.open();
    loop {
        let view = ev.evaluate(&mut Numeric, replicas, &t.moved);
        let backward = Replica::transfer_backward_in;
        let Ok(any) = t.cycle(&mut Numeric, replicas, view.replica_in(), snatch, backward);
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
    t.open();
    loop {
        let view = ev.evaluate(&mut Numeric, replicas, &t.moved);
        let forward = Replica::transfer_forward_in;
        let Ok(any) = t.cycle(&mut Numeric, replicas, view.replica_out(), snatch, forward);
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
