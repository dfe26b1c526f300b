//! Parametric (what-if) slack analysis: slack as a piecewise-linear
//! function of the base clock period.
//!
//! Every quantity the analysis manipulates is either a *cell constant*
//! (arc delays, setup/hold, control-path delays, boundary offsets) or a
//! *clock-derived time* (edge positions, pulse widths, pass-window
//! positions), and every clock-derived time scales *linearly* when the
//! whole waveform set is stretched. So this module does not re-run the
//! analysis per candidate period: it runs the one analysis — the shard
//! sweeps, the item cache, the replica offset model and Algorithm 1,
//! all written once over [`Algebra`] — in a second, symbolic instance
//! whose values are affine expressions `a + b·t` in a grid parameter:
//!
//! * the scaling lattice: with `g = gcd(overall period, edge times)`,
//!   any uniform scale that keeps the waveforms integral maps the
//!   overall period `T₀` to `stride·k` where `stride = T₀/g` and
//!   `k ∈ [1, k_max]` (nominal at `k = g`). Pass planning is scale
//!   invariant, so the nominal `(cluster, pass)` schedule is reused;
//! * the decision context [`Ctx`] is the algebra instance: each
//!   comparison is decided on the current span of grid points, and when
//!   the outcome is not uniform the span is split at the switch point
//!   and the far side deferred. A partial division splits the span into
//!   residue classes (on each of which the floored quotient is affine)
//!   and restarts the region. Decisions shrink one shared span, so items
//!   are swept sequentially, in item order;
//! * the result is a [`ParametricSlack`]: a partition of a served
//!   period window into regions, each carrying exact affine slack
//!   expressions for every terminal and net. Evaluating them at a grid
//!   period is **bit-identical** to a cold numeric analysis there, and
//!   the minimum feasible period drops out of the breakpoints.
//!
//! Carving is *budgeted and nominal-anchored*: feasible stretches of the
//! grid settle in a few wide regions, infeasible ones fragment, so the
//! served domain is whatever contiguous run of grid points around the
//! nominal period fits the work budgets (a top probe, a top-down carve
//! or a narrow anchor window, then the floor pushed down until the
//! feasibility boundary is sharp). Queries outside it are refused.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use hb_netlist::NetId;
use hb_obs::{Counter, Histogram};
use hb_sta::Algebra;
use hb_units::Time;

use crate::algorithms::{algorithm1, Evaluate};
use crate::analysis::{Prepared, Terminals};
use crate::engine::{Cycles, SlackCache};
use crate::report::TerminalKind;
use crate::sync::{offsets, Replica};

/// Work budget for the main top-down carve, in item-evaluations (one
/// unit = one `(cluster, pass)` item visited by one symbolic slack
/// view). Exhausting a budget shrinks the served domain rather than
/// failing the build.
const CARVE_WORK: u64 = 3_000_000;

/// Additional budget for the nominal anchor window, entered when the
/// top-down carve could not connect the window top to the nominal
/// period (the final singleton run at the nominal point itself is
/// budget-exempt, so a table is always produced).
const ANCHOR_WORK: u64 = 600_000;

/// Grid points above the nominal period carved in anchor mode.
const ANCHOR_SPAN: i64 = 63;

/// Additional budget for the downward extension walking the domain
/// floor in widening chunks until the feasibility boundary is interior
/// to the served domain.
const PROBE_WORK: u64 = 1_200_000;

/// Largest downward-extension chunk, bounding how far past the
/// feasibility boundary a single chunk can overshoot.
const CHUNK_CAP: i64 = 1_024;

/// Hard cap on stored regions — a memory guard (each region stores a
/// slack expression per net), not a failure mode: carving simply stops
/// and the served domain shrinks.
const REGION_CAP: usize = 4_096;

/// Largest number of grid points in the analysis window. Designs whose
/// scaling lattice is finer than this get a window ending at `k_max`
/// rather than starting at `k = 1`.
const POINT_CAP: i64 = 1 << 20;

/// The largest representable overall period, mirroring the clock-set
/// builder's cap (`Time::from_us(1000)`).
const MAX_OVERALL_PS: i64 = 1_000_000_000;

struct SymObs {
    build: Histogram,
    builds: Counter,
    regions: Counter,
}

fn sym_obs() -> &'static SymObs {
    static OBS: OnceLock<SymObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let g = hb_obs::global();
        SymObs {
            build: g.histogram(
                "hb_symbolic_build_nanoseconds",
                "wall time of one parametric (symbolic) slack build",
            ),
            builds: g.counter(
                "hb_symbolic_builds_total",
                "parametric slack builds completed",
            ),
            regions: g.counter(
                "hb_symbolic_regions_total",
                "parameter regions produced across all parametric builds",
            ),
        }
    })
}

// ---------------------------------------------------------------------------
// Affine expressions and symbolic times
// ---------------------------------------------------------------------------

/// An affine time expression: `a + b·t` picoseconds, `t` the grid
/// parameter of the enclosing region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Aff {
    a: i64,
    b: i64,
}

impl Aff {
    /// A constant expression.
    fn cst(ps: i64) -> Aff {
        Aff { a: ps, b: 0 }
    }

    /// The value at parameter `t`.
    fn eval(self, t: i64) -> i64 {
        self.a + self.b * t
    }
}

impl std::ops::Add for Aff {
    type Output = Aff;
    fn add(self, rhs: Aff) -> Aff {
        Aff {
            a: self.a + rhs.a,
            b: self.b + rhs.b,
        }
    }
}

impl std::ops::Sub for Aff {
    type Output = Aff;
    fn sub(self, rhs: Aff) -> Aff {
        Aff {
            a: self.a - rhs.a,
            b: self.b - rhs.b,
        }
    }
}

/// A symbolic time: the two saturation sentinels are kept out-of-band
/// so finite arithmetic stays exact affine arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sym {
    NegInf,
    Fin(Aff),
    Inf,
}

/// The concrete time of a symbolic time at parameter `t`.
fn eval_sym(s: Sym, t: i64) -> Time {
    match s {
        Sym::NegInf => Time::NEG_INF,
        Sym::Inf => Time::INF,
        Sym::Fin(f) => Time::from_ps(f.eval(t)),
    }
}

// ---------------------------------------------------------------------------
// Parameter regions and the decision context
// ---------------------------------------------------------------------------

/// A contiguous arithmetic progression of grid points: the multipliers
/// `k = r + m·t` for `t ∈ [t_lo, t_hi]` (period `= stride·k`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Span {
    r: i64,
    m: i64,
    t_lo: i64,
    t_hi: i64,
}

/// Raised when an integer division forces a residue-class split: the
/// current region has been re-queued in finer pieces and the analysis
/// of this region must be abandoned.
struct Restart;

/// The decision context of one region run — the symbolic instance of
/// [`Algebra`]: the (shrinking) parameter span plus the queue that
/// receives split-off remainders.
struct Ctx<'w> {
    /// Grid granularity: every clock-derived time is `u·g` ps nominal.
    g: i64,
    span: Span,
    deferred: &'w mut Vec<Span>,
}

impl Ctx<'_> {
    /// Lifts a clock-derived (lattice) time to its affine form:
    /// `q = u·g` nominal becomes `u·k = u·r + u·m·t`.
    fn lin(&self, q: Time) -> Aff {
        let ps = q.as_ps();
        debug_assert_eq!(ps % self.g, 0, "time {ps} ps is off the clock lattice");
        let u = ps / self.g;
        Aff {
            a: u * self.span.r,
            b: u * self.span.m,
        }
    }

    /// Decides a threshold predicate of the affine value `d` uniformly
    /// over the span: if the predicate flips inside the span, the span
    /// is split at the (unique, by monotonicity) switch point and the
    /// far side deferred.
    fn holds(&mut self, d: Aff, pred: impl Fn(i64) -> bool) -> bool {
        let (lo, hi) = (self.span.t_lo, self.span.t_hi);
        let first = pred(d.eval(lo));
        if lo == hi || pred(d.eval(hi)) == first {
            return first;
        }
        let (mut good, mut bad) = (lo, hi);
        while bad - good > 1 {
            let mid = good + (bad - good) / 2;
            if pred(d.eval(mid)) == first {
                good = mid;
            } else {
                bad = mid;
            }
        }
        self.deferred.push(Span {
            t_lo: bad,
            ..self.span
        });
        self.span.t_hi = good;
        first
    }
}

impl Algebra for Ctx<'_> {
    type Val = Sym;
    type Split = Restart;
    const NEG_INF: Sym = Sym::NegInf;
    const INF: Sym = Sym::Inf;

    #[inline]
    fn lift(&self, t: Time) -> Sym {
        Sym::Fin(self.lin(t))
    }

    #[inline]
    fn cst(&self, c: Time) -> Sym {
        if c <= Time::NEG_INF {
            Sym::NegInf
        } else if c >= Time::INF {
            Sym::Inf
        } else {
            Sym::Fin(Aff::cst(c.as_ps()))
        }
    }

    #[inline]
    fn add(&self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::NegInf, _) | (_, Sym::NegInf) => Sym::NegInf,
            (Sym::Inf, _) | (_, Sym::Inf) => Sym::Inf,
            (Sym::Fin(f), Sym::Fin(g)) => Sym::Fin(f + g),
        }
    }

    #[inline]
    fn sub(&self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (_, Sym::Inf) => Sym::NegInf,
            (_, Sym::NegInf) => Sym::Inf,
            (Sym::Fin(f), Sym::Fin(g)) => Sym::Fin(f - g),
            (sentinel, Sym::Fin(_)) => sentinel,
        }
    }

    #[inline]
    fn max(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::Inf, _) | (_, Sym::Inf) => Sym::Inf,
            (Sym::NegInf, o) | (o, Sym::NegInf) => o,
            (Sym::Fin(a), Sym::Fin(b)) => {
                if a == b || self.holds(a - b, |v| v >= 0) {
                    x
                } else {
                    y
                }
            }
        }
    }

    #[inline]
    fn min(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::NegInf, _) | (_, Sym::NegInf) => Sym::NegInf,
            (Sym::Inf, o) | (o, Sym::Inf) => o,
            (Sym::Fin(a), Sym::Fin(b)) => {
                if a == b || self.holds(a - b, |v| v <= 0) {
                    x
                } else {
                    y
                }
            }
        }
    }

    #[inline]
    fn gt_zero(&mut self, x: Sym) -> bool {
        match x {
            Sym::NegInf => false,
            Sym::Inf => true,
            Sym::Fin(f) => self.holds(f, |v| v > 0),
        }
    }

    #[inline]
    fn is_finite(&self, x: Sym) -> bool {
        matches!(x, Sym::Fin(_))
    }

    /// Floors a value known positive on the span (so truncation equals
    /// floor). When the quotient is not affine on the span, the span is
    /// split into `d` residue classes (on each of which it is) and the
    /// run restarts.
    #[inline]
    fn div_pos(&mut self, x: Sym, d: i64) -> Result<Sym, Restart> {
        debug_assert!(d >= 2);
        let Sym::Fin(x) = x else {
            unreachable!("positive division of a sentinel");
        };
        if x.b % d == 0 {
            return Ok(Sym::Fin(Aff {
                a: x.a.div_euclid(d),
                b: x.b / d,
            }));
        }
        let span = self.span;
        if span.t_lo == span.t_hi {
            return Ok(Sym::Fin(Aff::cst(x.eval(span.t_lo).div_euclid(d))));
        }
        for off in 0..d {
            let t0 = span.t_lo + off;
            if t0 > span.t_hi {
                break;
            }
            self.deferred.push(Span {
                r: span.r + span.m * t0,
                m: span.m * d,
                t_lo: 0,
                t_hi: (span.t_hi - t0) / d,
            });
        }
        Err(Restart)
    }
}

// ---------------------------------------------------------------------------
// One parameter region: the shared Algorithm 1 in the symbolic instance
// ---------------------------------------------------------------------------

/// The settled slack expressions of one parameter region.
#[derive(Clone, Debug)]
struct RegionSlack {
    span: Span,
    net_slack: Vec<Sym>,
    /// Every terminal slack, in `Terminals::iter` order.
    terminals: Vec<Sym>,
}

/// The symbolic evaluations of one region run: the shared incremental
/// engine over a per-region memo, counting item-evaluations (items plus
/// one per slack view) against the carve budget.
struct RegionEval<'e, 'a> {
    prep: &'e Prepared<'a>,
    /// The memo stays valid as the span shrinks: an affine identity on
    /// a region restricts to any subregion.
    memo: SlackCache<Sym>,
    cycles: Cycles<Sym>,
    work: &'e mut u64,
}

impl Evaluate<Ctx<'_>> for RegionEval<'_, '_> {
    fn evaluate(&mut self, ctx: &mut Ctx<'_>, reps: &[Replica<Sym>]) -> &Terminals<Sym> {
        let engine = &self.prep.engine;
        *self.work += engine.items.len() as u64 + 1;
        let offs = offsets(ctx, reps);
        // Every decision may shrink the span, so items are swept one at
        // a time, in item order.
        engine.evaluate_with(ctx, offs, &mut self.cycles, &mut self.memo, None);
        &self.cycles.terms
    }
}

/// Runs Algorithm 1 over `span` in the symbolic instance. Returns
/// `None` when a residue-class split restarted the region (its
/// refinement is already queued on `deferred`); otherwise the surviving
/// (possibly shrunk) region with its settled expressions. `work`
/// counts item-evaluations (items plus one per slack view).
fn run_region(
    prep: &Prepared<'_>,
    g: i64,
    span: Span,
    deferred: &mut Vec<Span>,
    work: &mut u64,
) -> Option<RegionSlack> {
    let mut ctx = Ctx { g, span, deferred };
    let mut reps: Vec<Replica<Sym>> = prep.replicas.iter().map(|r| r.lift(&ctx)).collect();
    let mut memo = SlackCache::default();
    memo.begin();
    let mut ev = RegionEval {
        prep,
        memo,
        cycles: Cycles::new::<Ctx<'_>>(&prep.engine),
        work,
    };
    algorithm1(prep, &mut ctx, &mut reps, &mut ev).ok()?;

    let items = (prep.engine).materialise_with(&mut ctx, &ev.cycles, &mut ev.memo, None);
    let net_slack = prep.net_slacks(&mut ctx, &items);
    // Record the span only after every decision has shrunk it.
    Some(RegionSlack {
        span: ctx.span,
        net_slack,
        terminals: ev.cycles.terms.iter().copied().collect(),
    })
}

// ---------------------------------------------------------------------------
// The public parametric table
// ---------------------------------------------------------------------------

/// A period query outside the parametric table's domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeriodError {
    /// The period is not a multiple of the parametric grid stride.
    OffGrid {
        /// The requested period.
        period: Time,
        /// The grid stride: valid periods are its multiples.
        stride: Time,
    },
    /// The period falls outside the analysed domain.
    OutOfRange {
        /// The requested period.
        period: Time,
        /// The smallest analysed period.
        lo: Time,
        /// The largest analysed period.
        hi: Time,
    },
}

impl fmt::Display for PeriodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeriodError::OffGrid { period, stride } => write!(
                f,
                "period {} ps is not a multiple of the parametric stride {} ps",
                period.as_ps(),
                stride.as_ps()
            ),
            PeriodError::OutOfRange { period, lo, hi } => write!(
                f,
                "period {} ps is outside the analysed domain [{}, {}] ps",
                period.as_ps(),
                lo.as_ps(),
                hi.as_ps()
            ),
        }
    }
}

impl std::error::Error for PeriodError {}

/// One terminal of the parametric table, in the exact order
/// `TimingReport::terminal_slacks` reports them.
#[derive(Clone, Debug)]
pub struct ParametricTerminal {
    /// The terminal kind.
    pub kind: TerminalKind,
    /// The instance or port name.
    pub name: String,
    /// The control pulse index (0 for boundary terminals).
    pub pulse: u32,
}

/// The result of one symbolic analysis: per-terminal and per-net slack
/// as an exact piecewise-linear function of the overall clock period.
///
/// The domain is the *period grid*: multiples of [`stride`] from
/// `stride·k_lo` up to `stride·k_max` (the nominal period always sits
/// inside the domain, and the feasibility boundary is interior to it
/// whenever one exists). Evaluations at grid periods are bit-identical
/// to cold numeric analyses of the correspondingly scaled clock set;
/// queries outside the served domain are refused with [`PeriodError`].
///
/// [`stride`]: ParametricSlack::stride
#[derive(Clone, Debug)]
pub struct ParametricSlack {
    stride: i64,
    nominal_k: i64,
    k_lo: i64,
    k_max: i64,
    node_count: usize,
    terminals: Vec<ParametricTerminal>,
    /// Per reported terminal: its index into `RegionSlack::terminals`.
    slots: Vec<usize>,
    regions: Vec<RegionSlack>,
}

impl ParametricSlack {
    /// The period grid stride: valid what-if periods are its positive
    /// multiples.
    pub fn stride(&self) -> Time {
        Time::from_ps(self.stride)
    }

    /// The nominal overall period the table was built at.
    pub fn nominal_period(&self) -> Time {
        Time::from_ps(self.stride * self.nominal_k)
    }

    /// The analysed period domain `[lo, hi]` (inclusive, on-grid).
    pub fn domain(&self) -> (Time, Time) {
        (
            Time::from_ps(self.stride * self.k_lo),
            Time::from_ps(self.stride * self.k_max),
        )
    }

    /// The number of linear regions in the piecewise table.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The terminals, in report order.
    pub fn terminals(&self) -> &[ParametricTerminal] {
        &self.terminals
    }

    /// Snaps an arbitrary period to the nearest grid point within the
    /// domain (round half up).
    pub fn snap(&self, period: Time) -> Time {
        let p = period.as_ps();
        let k = (p + self.stride / 2)
            .div_euclid(self.stride)
            .clamp(self.k_lo, self.k_max);
        Time::from_ps(k * self.stride)
    }

    fn locate(&self, period: Time) -> Result<(usize, i64), PeriodError> {
        let p = period.as_ps();
        if p % self.stride != 0 {
            return Err(PeriodError::OffGrid {
                period,
                stride: Time::from_ps(self.stride),
            });
        }
        let k = p / self.stride;
        if !(self.k_lo..=self.k_max).contains(&k) {
            let (lo, hi) = self.domain();
            return Err(PeriodError::OutOfRange { period, lo, hi });
        }
        for (i, reg) in self.regions.iter().enumerate() {
            let s = reg.span;
            if k - s.r >= 0 && (k - s.r) % s.m == 0 {
                let t = (k - s.r) / s.m;
                if t >= s.t_lo && t <= s.t_hi {
                    return Ok((i, t));
                }
            }
        }
        panic!("parametric regions do not cover grid point k = {k}");
    }

    /// The worst terminal slack at the given grid period — exactly
    /// `TimingReport::worst_slack` of a cold analysis there.
    pub fn worst_at(&self, period: Time) -> Result<Time, PeriodError> {
        let (i, t) = self.locate(period)?;
        let reg = &self.regions[i];
        let mut w = Time::INF;
        for &s in &reg.terminals {
            w = w.min(eval_sym(s, t));
        }
        Ok(w)
    }

    /// Whether every terminal slack is strictly positive at the given
    /// grid period — exactly `TimingReport::ok` of a cold analysis.
    pub fn ok_at(&self, period: Time) -> Result<bool, PeriodError> {
        let (i, t) = self.locate(period)?;
        let reg = &self.regions[i];
        Ok(reg.terminals.iter().all(|&s| eval_sym(s, t) > Time::ZERO))
    }

    /// The slack of one terminal (by index into [`terminals`]) at the
    /// given grid period.
    ///
    /// [`terminals`]: ParametricSlack::terminals
    pub fn terminal_slack_at(&self, period: Time, idx: usize) -> Result<Time, PeriodError> {
        let (i, t) = self.locate(period)?;
        let reg = &self.regions[i];
        Ok(eval_sym(reg.terminals[self.slots[idx]], t))
    }

    /// Every terminal slack at the given grid period, in report order.
    pub fn terminal_slacks_at(&self, period: Time) -> Result<Vec<Time>, PeriodError> {
        let (i, t) = self.locate(period)?;
        let reg = &self.regions[i];
        Ok(self
            .slots
            .iter()
            .map(|&slot| eval_sym(reg.terminals[slot], t))
            .collect())
    }

    /// The minimum slack of one net at the given grid period — exactly
    /// `TimingReport::net_slack` of a cold analysis.
    pub fn net_slack_at(&self, period: Time, net: NetId) -> Result<Time, PeriodError> {
        let (i, t) = self.locate(period)?;
        let raw = net.as_raw() as usize;
        assert!(raw < self.node_count, "net index out of range");
        Ok(eval_sym(self.regions[i].net_slack[raw], t))
    }

    /// The smallest grid period in the served domain at which every
    /// terminal slack is strictly positive, solved directly from the
    /// piecewise-linear breakpoints — no sweeps, no search.
    pub fn min_feasible_period(&self) -> Option<Time> {
        self.regions
            .iter()
            .filter_map(|reg| region_min_feasible_k(reg, self.k_lo, self.k_max))
            .min()
            .map(|k| Time::from_ps(k * self.stride))
    }
}

/// The smallest grid multiplier `k ∈ [k_floor, k_ceil]` inside `reg`
/// at which every terminal slack is strictly positive, by intersecting
/// the half-lines `a + b·t > 0` of the region's affine expressions.
fn region_min_feasible_k(reg: &RegionSlack, k_floor: i64, k_ceil: i64) -> Option<i64> {
    let span = reg.span;
    let mut lo = span.t_lo.max(div_ceil_i(k_floor - span.r, span.m));
    let mut hi = span.t_hi.min(div_floor_i(k_ceil - span.r, span.m));
    if lo > hi {
        return None;
    }
    for &s in &reg.terminals {
        match s {
            Sym::Inf => {}
            Sym::NegInf => return None,
            Sym::Fin(f) => {
                // Solve a + b·t > 0 over integers.
                if f.b == 0 {
                    if f.a <= 0 {
                        return None;
                    }
                } else if f.b > 0 {
                    lo = lo.max(div_ceil_i(1 - f.a, f.b));
                } else {
                    hi = hi.min(div_floor_i(f.a - 1, -f.b));
                }
            }
        }
        if lo > hi {
            return None;
        }
    }
    Some(span.r + span.m * lo)
}

/// Floor division for positive divisors.
fn div_floor_i(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Ceiling division for positive divisors.
fn div_ceil_i(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Shared state of the carving phases: the coverage bitmap over the
/// analysis window, the settled regions, and the cumulative work spent.
struct CarveState {
    floor_k: i64,
    k_cap: i64,
    covered: Vec<bool>,
    regions: Vec<RegionSlack>,
    /// Smallest covered multiplier (anywhere in the window) with every
    /// terminal slack positive.
    m_k: Option<i64>,
    /// Lowest multiplier of the contiguously covered suffix ending at
    /// `k_cap` (`k_cap + 1` when the top is uncovered).
    suffix_lo: i64,
    work: u64,
    scratch: Vec<Span>,
}

impl CarveState {
    fn covered_at(&self, k: i64) -> bool {
        self.covered[(k - self.floor_k) as usize]
    }

    /// Records a settled region: coverage, the running minimum feasible
    /// multiplier, and the top-suffix pointer.
    fn mark(&mut self, region: &RegionSlack) {
        let s = region.span;
        for t in s.t_lo..=s.t_hi {
            let k = s.r + s.m * t;
            debug_assert!((self.floor_k..=self.k_cap).contains(&k));
            self.covered[(k - self.floor_k) as usize] = true;
        }
        if let Some(k) = region_min_feasible_k(region, self.floor_k, self.k_cap) {
            self.m_k = Some(self.m_k.map_or(k, |b| b.min(k)));
        }
        while self.suffix_lo > self.floor_k && self.covered_at(self.suffix_lo - 1) {
            self.suffix_lo -= 1;
        }
    }

    /// Runs one singleton region (which can neither split nor restart)
    /// regardless of budget.
    fn run_singleton(&mut self, prep: &Prepared<'_>, g_ps: i64, k: i64) {
        let span = Span {
            r: k,
            m: 1,
            t_lo: 0,
            t_hi: 0,
        };
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        let region = run_region(prep, g_ps, span, &mut scratch, &mut self.work)
            .expect("singleton regions cannot restart");
        debug_assert!(scratch.is_empty(), "singleton regions cannot split");
        self.scratch = scratch;
        self.mark(&region);
        self.regions.push(region);
    }

    /// Carves `[lo_k, hi_k]` largest-multiplier-first until the window
    /// is fully carved, `stop` holds, cumulative work reaches `limit`,
    /// or the region cap is hit.
    fn carve_window(
        &mut self,
        prep: &Prepared<'_>,
        g_ps: i64,
        lo_k: i64,
        hi_k: i64,
        limit: u64,
        mut stop: impl FnMut(&CarveState) -> bool,
    ) {
        // A max-heap on each span's largest grid multiplier, tie-broken
        // on the span itself so rebuilds pop spans in a reproducible order.
        let keyed = |s: Span| (s.r + s.m * s.t_hi, s);
        let mut heap = BinaryHeap::from([keyed(Span {
            r: 0,
            m: 1,
            t_lo: lo_k,
            t_hi: hi_k,
        })]);
        let mut deferred = std::mem::take(&mut self.scratch);
        while let Some((_, span)) = heap.pop() {
            if span.t_lo > span.t_hi {
                continue;
            }
            if stop(self) || self.work >= limit || self.regions.len() >= REGION_CAP {
                break;
            }
            deferred.clear();
            let region = run_region(prep, g_ps, span, &mut deferred, &mut self.work);
            heap.extend(deferred.drain(..).map(keyed));
            if let Some(region) = region {
                self.mark(&region);
                self.regions.push(region);
            }
        }
        deferred.clear();
        self.scratch = deferred;
    }

    /// The end of the contiguously covered run containing `anchor`
    /// (which must be covered) in direction `step`: `-1` for its lowest
    /// multiplier, `1` for its highest.
    fn run_end(&self, anchor: i64, step: i64) -> i64 {
        debug_assert!(self.covered_at(anchor));
        let mut k = anchor;
        while (self.floor_k..=self.k_cap).contains(&(k + step)) && self.covered_at(k + step) {
            k += step;
        }
        k
    }
}

/// Builds the full parametric slack table from a prepared analysis.
pub(crate) fn parametric(prep: &Prepared<'_>) -> Result<ParametricSlack, String> {
    let obs = sym_obs();
    let _span = obs.build.span();

    let timeline = &prep.timeline;
    let overall = timeline.overall_period();
    let mut g = overall;
    for (id, _) in timeline.edges() {
        let t = timeline.edge_time(id);
        if t > Time::ZERO {
            g = g.gcd(t);
        }
    }
    let g_ps = g.as_ps();
    debug_assert!(g_ps > 0);
    let stride = overall.as_ps() / g_ps;
    let nominal_k = g_ps;
    // Scan up to 4× the nominal period (or the clock builder's overall
    // cap, whichever is smaller) — comfortably past any min-period or
    // sweep question while keeping the region count bounded. Designs
    // with pathologically fine lattices are additionally clipped to the
    // analysis window around the nominal point.
    let k_max = (4 * g_ps)
        .min(MAX_OVERALL_PS / stride)
        .min(nominal_k + POINT_CAP / 2)
        .max(nominal_k);

    // Every clock-derived seed position must sit on the `g` lattice;
    // the construction guarantees it, but a violation here would
    // silently break the parametrization, so verify once up front.
    let seed_bases = prep.engine.items.iter().flat_map(|item| {
        let replica = item
            .ready_replica_seeds
            .iter()
            .chain(&item.close_replica_seeds);
        let boundary = item.ready_pi_seeds.iter().chain(&item.close_po_seeds);
        replica.map(|s| s.base).chain(boundary.map(|s| s.base))
    });
    let widths = prep.replicas.iter().map(|r| r.width());
    if let Some(t) = seed_bases.chain(widths).find(|t| t.as_ps() % g_ps != 0) {
        return Err(format!("clock-derived time {} ps off lattice", t.as_ps()));
    }

    // The carve is budgeted and nominal-anchored: the served domain is
    // whatever contiguous run of grid points around the nominal period
    // the work budgets manage to cover, so an expensive design shrinks
    // its domain instead of failing the build or going quadratic.
    let k_cap = k_max;
    let floor_k = (k_cap - (POINT_CAP - 1)).max(1);
    let window = (k_cap - floor_k + 1) as usize;
    let mut st = CarveState {
        floor_k,
        k_cap,
        covered: vec![false; window],
        regions: Vec::new(),
        m_k: None,
        suffix_lo: k_cap + 1,
        work: 0,
        scratch: Vec::new(),
    };

    // Phase A: probe the window top. Designs that are feasible there
    // settle in wide regions all the way down to the feasibility
    // boundary, so the full top-down carve is worth attempting; designs
    // that are infeasible even at the top (every grid point forces the
    // full transfer schedule) get a narrow window instead.
    st.run_singleton(prep, g_ps, k_cap);
    let top_feasible = st.m_k.is_some();

    // Phase B: top-down carve of the whole window, stopping early once
    // the nominal period and the sharp feasibility boundary are both
    // interior to the contiguously covered suffix.
    if top_feasible && k_cap > floor_k {
        st.carve_window(prep, g_ps, floor_k, k_cap - 1, CARVE_WORK, |st| {
            st.m_k
                .is_some_and(|m| st.suffix_lo <= (m - 1).min(nominal_k))
        });
    }

    // Phase C: when the top-down carve did not connect the top to the
    // nominal period, carve a small anchor window just above it. The
    // final singleton guarantees the nominal point itself is always
    // served.
    if st.suffix_lo > nominal_k {
        let top_c = (nominal_k + ANCHOR_SPAN).min(k_cap);
        let limit = st.work.saturating_add(ANCHOR_WORK);
        st.carve_window(prep, g_ps, nominal_k, top_c, limit, |_| false);
        if !st.covered_at(nominal_k) {
            st.run_singleton(prep, g_ps, nominal_k);
        }
    }

    // The served domain: the contiguous covered run around nominal.
    let mut k_lo = st.run_end(nominal_k, -1);
    let k_max = st.run_end(nominal_k, 1);
    let min_in = |st: &CarveState, k_lo: i64| {
        st.regions
            .iter()
            .filter_map(|reg| region_min_feasible_k(reg, k_lo, k_max))
            .min()
    };
    let mut m_k = min_in(&st, k_lo);

    // Phase D: extend the domain floor downward in widening chunks
    // until the point just below the minimum feasible period is served
    // (and hence known infeasible — the boundary is sharp), the window
    // floor is reached, or the budget runs out.
    let limit = st.work.saturating_add(PROBE_WORK);
    let mut chunk = 64i64;
    while k_lo > floor_k
        && m_k.is_none_or(|m| k_lo >= m)
        && st.work < limit
        && st.regions.len() < REGION_CAP
    {
        let lo_w = (k_lo - chunk).max(floor_k);
        st.carve_window(prep, g_ps, lo_w, k_lo - 1, limit, |_| false);
        let new_lo = st.run_end(k_lo, -1);
        if new_lo == k_lo {
            break; // no progress: the chunk's top point did not settle
        }
        k_lo = new_lo;
        m_k = min_in(&st, k_lo);
        chunk = (chunk * 2).min(CHUNK_CAP);
    }

    // Regions that do not intersect the served domain answer no query.
    let mut regions = st.regions;
    regions.retain(|reg| {
        reg.span.r + reg.span.m * reg.span.t_hi >= k_lo
            && reg.span.r + reg.span.m * reg.span.t_lo <= k_max
    });

    obs.builds.inc();
    obs.regions.add(regions.len() as u64);

    let (terminals, slots) = prep
        .terminals()
        .into_iter()
        .map(|(kind, name, pulse, i)| (ParametricTerminal { kind, name, pulse }, i))
        .unzip();
    Ok(ParametricSlack {
        stride,
        nominal_k,
        k_lo,
        k_max,
        node_count: prep.engine.sharded.node_count(),
        terminals,
        slots,
        regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::{
        Cell, DelayModel, DriveStrength, Function, Library, SyncKind, SyncSpec, TimingArc, WireLoad,
    };
    use hb_clock::ClockSet;
    use hb_netlist::{Design, LeafDef, ModuleId, PinDir};
    use hb_sta::Numeric;
    use hb_units::{Sense, Transition};

    use crate::{Analyzer, Spec};

    // --- Ctx machinery -----------------------------------------------------

    fn span(r: i64, m: i64, t_lo: i64, t_hi: i64) -> Span {
        Span { r, m, t_lo, t_hi }
    }

    #[test]
    fn holds_is_uniform_without_a_flip() {
        let mut deferred = Vec::new();
        let mut ctx = Ctx {
            g: 1,
            span: span(0, 1, 1, 100),
            deferred: &mut deferred,
        };
        assert!(ctx.holds(Aff { a: 0, b: 1 }, |v| v >= 0));
        assert!(ctx.holds(Aff { a: -200, b: 1 }, |v| v <= 0));
        assert!(ctx.deferred.is_empty());
        assert_eq!(ctx.span, span(0, 1, 1, 100));
    }

    #[test]
    fn holds_splits_at_the_switch_point() {
        let mut deferred = Vec::new();
        let mut ctx = Ctx {
            g: 1,
            span: span(0, 1, 1, 100),
            deferred: &mut deferred,
        };
        // value = t − 50: negative on [1, 49], non-negative on [50, 100].
        assert!(!ctx.holds(Aff { a: -50, b: 1 }, |v| v >= 0));
        assert_eq!(ctx.span, span(0, 1, 1, 49));
        assert_eq!(*ctx.deferred, vec![span(0, 1, 50, 100)]);
        // A repeat decision on the shrunk span is uniform.
        assert!(!ctx.holds(Aff { a: -50, b: 1 }, |v| v >= 0));
        assert_eq!(ctx.deferred.len(), 1);
    }

    #[test]
    fn div_pos_is_exact_when_divisible_and_splits_otherwise() {
        let fin = |a, b| Sym::Fin(Aff { a, b });
        let mut deferred = Vec::new();
        let mut ctx = Ctx {
            g: 1,
            span: span(0, 1, 0, 10),
            deferred: &mut deferred,
        };
        let q = ctx.div_pos(fin(3, 4), 2).ok().unwrap();
        assert_eq!(q, fin(1, 2));
        assert!(ctx.deferred.is_empty());

        assert!(ctx.div_pos(fin(1, 1), 2).is_err());
        assert_eq!(
            *ctx.deferred,
            vec![span(0, 2, 0, 5), span(1, 2, 0, 4)],
            "residue classes must partition the span"
        );

        // A single-point span folds to a constant instead of splitting.
        deferred.clear();
        let mut ctx = Ctx {
            g: 1,
            span: span(0, 1, 7, 7),
            deferred: &mut deferred,
        };
        let q = ctx.div_pos(fin(1, 1), 2).ok().unwrap();
        assert_eq!(q, fin(4, 0));
        assert!(deferred.is_empty());
    }

    #[test]
    fn symbolic_min_max_mirror_sentinels() {
        let mut deferred = Vec::new();
        let mut ctx = Ctx {
            g: 1,
            span: span(0, 1, 1, 10),
            deferred: &mut deferred,
        };
        let f = Sym::Fin(Aff { a: 5, b: 0 });
        assert_eq!(ctx.max(Sym::NegInf, f), f);
        assert_eq!(ctx.max(Sym::Inf, f), Sym::Inf);
        assert_eq!(ctx.min(Sym::Inf, f), f);
        assert_eq!(ctx.min(Sym::NegInf, f), Sym::NegInf);
        assert_eq!(ctx.sub(f, Sym::NegInf), Sym::Inf);
        assert_eq!(ctx.sub(f, Sym::Inf), Sym::NegInf);
        assert_eq!(ctx.add_c(Sym::NegInf, Time::from_ps(3)), Sym::NegInf);
    }

    // --- algebra laws --------------------------------------------------------

    /// A law-test operand: affine in the grid multiplier `k`
    /// (`α + β·k` ps), or a sentinel.
    #[derive(Clone, Copy, Debug)]
    enum Operand {
        NegInf,
        Lin(i64, i64),
        Inf,
    }

    impl Operand {
        /// The symbolic value on `span` (`k = r + m·t`).
        fn sym(self, s: Span) -> Sym {
            match self {
                Operand::NegInf => Sym::NegInf,
                Operand::Lin(al, be) => Sym::Fin(Aff {
                    a: al + be * s.r,
                    b: be * s.m,
                }),
                Operand::Inf => Sym::Inf,
            }
        }

        /// The numeric value at grid point `k`.
        fn at(self, k: i64) -> Time {
            match self {
                Operand::NegInf => Time::NEG_INF,
                Operand::Lin(al, be) => Time::from_ps(al + be * k),
                Operand::Inf => Time::INF,
            }
        }
    }

    /// Runs the symbolic operation `sym` on `start` and on every span it
    /// defers, and checks at every grid point of every surviving span
    /// that the evaluated result equals the [`Numeric`] instance `num`
    /// applied at that point. The surviving spans must cover `start`.
    fn check_law<T, U: PartialEq + fmt::Debug>(
        what: &str,
        start: Span,
        mut sym: impl FnMut(&mut Ctx<'_>) -> Result<T, Restart>,
        eval: impl Fn(&T, i64) -> U,
        num: impl Fn(i64) -> U,
    ) {
        let mut queue = vec![start];
        let mut covered = Vec::new();
        while let Some(span) = queue.pop() {
            let mut deferred = Vec::new();
            let mut ctx = Ctx {
                g: 1,
                span,
                deferred: &mut deferred,
            };
            let out = sym(&mut ctx);
            let kept = ctx.span;
            if let Ok(out) = out {
                for t in kept.t_lo..=kept.t_hi {
                    let k = kept.r + kept.m * t;
                    assert_eq!(eval(&out, t), num(k), "{what} at k = {k}, span {kept:?}");
                    covered.push(k);
                }
            } else {
                assert!(
                    !deferred.is_empty(),
                    "{what}: a restart must defer its span"
                );
            }
            queue.extend(deferred);
        }
        covered.sort_unstable();
        let all: Vec<i64> = (start.t_lo..=start.t_hi)
            .map(|t| start.r + start.m * t)
            .collect();
        assert_eq!(
            covered, all,
            "{what}: surviving spans must partition {start:?}"
        );
    }

    /// Every operation of the symbolic [`Algebra`] instance agrees with
    /// the numeric one point for point: seeded operands (sentinels,
    /// constants, slopes, crossings placed exactly on a grid point so
    /// ties are decided), on spans with `t_lo < t_hi`. The provided
    /// methods (`propagate`, `slack`, …) are compositions of these.
    #[test]
    fn symbolic_algebra_agrees_with_numeric_pointwise() {
        let mut rng = hb_rng::SmallRng::seed_from_u64(0x5EED_A16E);
        let draw_span = |rng: &mut hb_rng::SmallRng| {
            let r = rng.gen_range(0..50) as i64;
            let m = 1 + rng.gen_range(0..3) as i64;
            let t_lo = rng.gen_range(0..20) as i64;
            let t_hi = t_lo + 1 + rng.gen_range(0..40) as i64;
            span(r, m, t_lo, t_hi)
        };
        let draw = |rng: &mut hb_rng::SmallRng| match rng.gen_range(0..10) {
            0 => Operand::NegInf,
            1 => Operand::Inf,
            _ => Operand::Lin(
                rng.gen_range(0..4_001) as i64 - 2_000,
                rng.gen_range(0..41) as i64 - 20,
            ),
        };
        let num = || Numeric;
        for _ in 0..400 {
            let s = draw_span(&mut rng);
            let x = draw(&mut rng);
            // `y` ties `x` everywhere, crosses it on a grid point of
            // the span, or is independent.
            let y = match (x, rng.gen_range(0..3)) {
                (Operand::Lin(..), 0) => x,
                (Operand::Lin(al, be), 1) => {
                    let k_star = s.r
                        + s.m * (s.t_lo + rng.gen_range(0..(s.t_hi - s.t_lo + 1) as usize) as i64);
                    let be2 = rng.gen_range(0..41) as i64 - 20;
                    Operand::Lin(al + (be - be2) * k_star, be2)
                }
                _ => draw(&mut rng),
            };
            let c = match rng.gen_range(0..8) {
                0 => Time::NEG_INF,
                1 => Time::INF,
                _ => Time::from_ps(rng.gen_range(0..2_001) as i64 - 1_000),
            };
            let q = Time::from_ps(rng.gen_range(0..200) as i64);
            let val = |v: &Sym, t: i64| eval_sym(*v, t);

            check_law("lift", s, |ctx| Ok(ctx.lift(q)), val, |k| q * k);
            check_law("cst", s, |ctx| Ok(ctx.cst(c)), val, |_| num().cst(c));
            check_law(
                "add",
                s,
                |ctx| Ok(ctx.add(x.sym(ctx.span), y.sym(ctx.span))),
                val,
                |k| num().add(x.at(k), y.at(k)),
            );
            check_law(
                "sub",
                s,
                |ctx| Ok(ctx.sub(x.sym(ctx.span), y.sym(ctx.span))),
                val,
                |k| num().sub(x.at(k), y.at(k)),
            );
            check_law(
                "add_c",
                s,
                |ctx| Ok(ctx.add_c(x.sym(ctx.span), c)),
                val,
                |k| num().add_c(x.at(k), c),
            );
            check_law(
                "sub_c",
                s,
                |ctx| Ok(ctx.sub_c(x.sym(ctx.span), c)),
                val,
                |k| num().sub_c(x.at(k), c),
            );
            check_law(
                "max",
                s,
                |ctx| {
                    let (a, b) = (x.sym(ctx.span), y.sym(ctx.span));
                    Ok(ctx.max(a, b))
                },
                val,
                |k| num().max(x.at(k), y.at(k)),
            );
            check_law(
                "min",
                s,
                |ctx| {
                    let (a, b) = (x.sym(ctx.span), y.sym(ctx.span));
                    Ok(ctx.min(a, b))
                },
                val,
                |k| num().min(x.at(k), y.at(k)),
            );
            check_law(
                "gt_zero",
                s,
                |ctx| {
                    let a = x.sym(ctx.span);
                    Ok(ctx.gt_zero(a))
                },
                |&b, _| b,
                |k| num().gt_zero(x.at(k)),
            );
            check_law(
                "is_finite",
                s,
                |ctx| Ok(ctx.is_finite(x.sym(ctx.span))),
                |&b, _| b,
                |k| num().is_finite(x.at(k)),
            );

            // Division: operands positive on the span (`k ≥ 0`), with
            // slopes that are and are not multiples of the divisor.
            let d = 2 + rng.gen_range(0..3) as i64;
            let pos = Operand::Lin(
                1 + rng.gen_range(0..500) as i64,
                rng.gen_range(0..12) as i64,
            );
            check_law(
                "div_pos",
                s,
                |ctx| {
                    let a = pos.sym(ctx.span);
                    ctx.div_pos(a, d)
                },
                val,
                |k| num().div_pos(pos.at(k), d).unwrap(),
            );
        }
    }

    #[test]
    fn integer_interval_helpers() {
        assert_eq!(div_ceil_i(7, 2), 4);
        assert_eq!(div_ceil_i(-7, 2), -3);
        assert_eq!(div_floor_i(7, 2), 3);
        assert_eq!(div_floor_i(-7, 2), -4);
    }

    // --- fixtures ----------------------------------------------------------

    /// A zero-capacitance library with exact delays: `DEL{n}` buffers,
    /// a `NEG7` inverting buffer, a `MIX3` non-unate buffer, `JOIN2`,
    /// and ideal FF / transparent-latch elements.
    fn fixture_lib() -> Library {
        let mut lib = Library::new("symfix");
        lib.set_wire_load(WireLoad::new(0, 0));
        let buf = |lib: &mut Library, name: &str, sense: Sense, ns: i64| {
            let iface = LeafDef::new(name)
                .pin("A", PinDir::Input)
                .pin("Y", PinDir::Output);
            let arc = TimingArc {
                from: iface.pin_by_name("A").unwrap(),
                to: iface.pin_by_name("Y").unwrap(),
                sense,
                delay: DelayModel::symmetric(Time::from_ns(ns), 0),
            };
            lib.add_cell(Cell::new(
                iface,
                Function::Combinational(vec![arc]),
                vec![0, 0],
                DriveStrength::X1,
                name,
                1,
            ));
        };
        for n in [5, 15, 25] {
            buf(&mut lib, &format!("DEL{n}"), Sense::Positive, n);
        }
        buf(&mut lib, "NEG7", Sense::Negative, 7);
        buf(&mut lib, "MIX3", Sense::NonUnate, 3);

        let iface = LeafDef::new("JOIN2")
            .pin("A", PinDir::Input)
            .pin("B", PinDir::Input)
            .pin("Y", PinDir::Output);
        let arcs = ["A", "B"]
            .iter()
            .map(|p| TimingArc {
                from: iface.pin_by_name(p).unwrap(),
                to: iface.pin_by_name("Y").unwrap(),
                sense: Sense::Positive,
                delay: DelayModel::symmetric(Time::from_ns(1), 0),
            })
            .collect();
        lib.add_cell(Cell::new(
            iface,
            Function::Combinational(arcs),
            vec![0, 0, 0],
            DriveStrength::X1,
            "JOIN2",
            1,
        ));

        for (name, kind, sense) in [
            ("FF", SyncKind::TrailingEdge, Sense::Negative),
            ("LAT", SyncKind::Transparent, Sense::Positive),
        ] {
            let iface = LeafDef::new(name)
                .pin("D", PinDir::Input)
                .pin("C", PinDir::Input)
                .pin("Q", PinDir::Output);
            let spec = SyncSpec {
                kind,
                data: iface.pin_by_name("D").unwrap(),
                control: iface.pin_by_name("C").unwrap(),
                output: iface.pin_by_name("Q").unwrap(),
                output_bar: None,
                setup: Time::ZERO,
                hold: Time::from_ps(500),
                d_cx: Time::ZERO,
                d_dx: Time::ZERO,
                control_sense: sense,
                output_delay: DelayModel::zero(),
            };
            lib.add_cell(Cell::new(
                iface,
                Function::Sync(spec),
                vec![0, 0, 0],
                DriveStrength::X1,
                name,
                4,
            ));
        }
        lib
    }

    struct Fixture {
        design: Design,
        module: ModuleId,
        nets: Vec<NetId>,
    }

    impl Fixture {
        fn new(lib: &Library) -> Fixture {
            let mut design = Design::new("symtest");
            lib.declare_into(&mut design).unwrap();
            let module = design.add_module("top").unwrap();
            design.set_top(module).unwrap();
            Fixture {
                design,
                module,
                nets: Vec::new(),
            }
        }

        fn net(&mut self, name: &str) -> NetId {
            let n = self.design.add_net(self.module, name).unwrap();
            self.nets.push(n);
            n
        }

        fn input(&mut self, name: &str) -> NetId {
            let n = self.net(name);
            self.design
                .add_port(self.module, name, PinDir::Input, n)
                .unwrap();
            n
        }

        fn output(&mut self, name: &str) -> NetId {
            let n = self.net(name);
            self.design
                .add_port(self.module, name, PinDir::Output, n)
                .unwrap();
            n
        }

        fn inst(&mut self, name: &str, cell: &str, conns: &[(&str, NetId)]) {
            let leaf = self.design.leaf_by_name(cell).unwrap();
            let id = self
                .design
                .add_leaf_instance(self.module, name, leaf)
                .unwrap();
            for (pin, net) in conns {
                self.design.connect(self.module, id, pin, *net).unwrap();
            }
        }
    }

    /// Two-phase transparent-latch pipeline with negative and non-unate
    /// side arcs:
    /// `in → LAT(c1) → {DEL25, NEG7} → JOIN2 → MIX3 → LAT(c2) → DEL15
    /// → FF(c1) → out`. Nominal clocks: c1 = 40 ns (high 0..20 ns),
    /// c2 = 40 ns (high 20..30 ns) ⇒ g = 10 000, stride = 4 ps.
    fn latch_pipeline() -> Fixture {
        let lib = fixture_lib();
        let mut f = Fixture::new(&lib);
        let input = f.input("in");
        let c1 = f.input("c1");
        let c2 = f.input("c2");
        let n1 = f.net("n1");
        let n2 = f.net("n2");
        let n3 = f.net("n3");
        let n4 = f.net("n4");
        let n5 = f.net("n5");
        let n6 = f.net("n6");
        let n7 = f.net("n7");
        let out = f.output("out");
        f.inst("l1", "LAT", &[("D", input), ("C", c1), ("Q", n1)]);
        f.inst("d25", "DEL25", &[("A", n1), ("Y", n2)]);
        f.inst("g7", "NEG7", &[("A", n1), ("Y", n3)]);
        f.inst("j1", "JOIN2", &[("A", n2), ("B", n3), ("Y", n4)]);
        f.inst("m3", "MIX3", &[("A", n4), ("Y", n5)]);
        f.inst("l2", "LAT", &[("D", n5), ("C", c2), ("Q", n6)]);
        f.inst("d15", "DEL15", &[("A", n6), ("Y", n7)]);
        f.inst("f1", "FF", &[("D", n7), ("C", c1), ("Q", out)]);
        f
    }

    fn pipeline_spec() -> Spec {
        Spec::new()
            .clock_port("c1", "c1")
            .clock_port("c2", "c2")
            .output_required(
                "out",
                crate::EdgeSpec::new("c1", Transition::Rise),
                Time::ZERO,
            )
    }

    /// The latch-pipeline clock set scaled to grid point `k`
    /// (nominal at k = 10 000; stride 4 ps).
    fn pipeline_clocks(k: i64) -> ClockSet {
        let mut cs = ClockSet::new();
        cs.add_clock("c1", Time::from_ps(4 * k), Time::ZERO, Time::from_ps(2 * k))
            .unwrap();
        cs.add_clock(
            "c2",
            Time::from_ps(4 * k),
            Time::from_ps(2 * k),
            Time::from_ps(3 * k),
        )
        .unwrap();
        cs
    }

    // --- parity ------------------------------------------------------------

    /// The core contract: at every probed grid point, the symbolic
    /// table evaluates bit-identically to a cold numeric analysis of
    /// the correspondingly scaled clock set — terminal slacks, worst
    /// slack, feasibility, and every net slack.
    #[test]
    fn parity_with_cold_numeric_runs_at_region_boundaries() {
        let lib = fixture_lib();
        let f = latch_pipeline();
        let nominal = pipeline_clocks(10_000);
        let analyzer = Analyzer::new(&f.design, f.module, &lib, &nominal, pipeline_spec()).unwrap();
        let param = analyzer.parametric().unwrap();
        assert_eq!(param.stride(), Time::from_ps(4));
        assert_eq!(param.nominal_period(), Time::from_ns(40));
        assert!(param.region_count() >= 1);

        // Probe every region's boundary grid points plus fixed spots.
        let mut ks: Vec<i64> = vec![
            param.k_lo,
            param.k_lo + 1,
            9_999,
            10_000,
            10_001,
            param.k_max,
        ];
        for reg in &param.regions {
            ks.push(reg.span.r + reg.span.m * reg.span.t_lo);
            ks.push(reg.span.r + reg.span.m * reg.span.t_hi);
            if reg.span.t_hi > reg.span.t_lo {
                ks.push(reg.span.r + reg.span.m * (reg.span.t_lo + 1));
            }
        }
        // A retained region may straddle the served floor; only probe
        // in-domain points.
        ks.retain(|&k| (param.k_lo..=param.k_max).contains(&k));
        ks.sort_unstable();
        ks.dedup();
        // Keep the test fast if splitting ever produces many regions.
        while ks.len() > 400 {
            let step = ks.len().div_ceil(400);
            ks = ks.into_iter().step_by(step).collect();
        }

        for &k in &ks {
            let period = Time::from_ps(4 * k);
            let clocks = pipeline_clocks(k);
            let cold = Analyzer::new(&f.design, f.module, &lib, &clocks, pipeline_spec()).unwrap();
            let report = cold.analyze();

            assert_eq!(
                param.worst_at(period).unwrap(),
                report.worst_slack(),
                "worst slack diverges at k = {k}"
            );
            assert_eq!(
                param.ok_at(period).unwrap(),
                report.ok(),
                "feasibility diverges at k = {k}"
            );
            let sym = param.terminal_slacks_at(period).unwrap();
            let num = report.terminal_slacks();
            assert_eq!(sym.len(), num.len());
            for (i, (s, n)) in sym.iter().zip(num).enumerate() {
                assert_eq!(param.terminals()[i].name, n.name);
                assert_eq!(param.terminals()[i].kind, n.kind);
                assert_eq!(*s, n.slack, "terminal {} slack diverges at k = {k}", n.name);
            }
            for &net in &f.nets {
                assert_eq!(
                    param.net_slack_at(period, net).unwrap(),
                    report.net_slack(net),
                    "net slack diverges at k = {k}"
                );
            }
        }
    }

    /// `min_feasible_period` must agree with an exhaustive grid scan of
    /// `ok_at` — and with cold numeric runs at the boundary.
    #[test]
    fn min_feasible_period_matches_grid_scan_and_numeric_boundary() {
        let lib = fixture_lib();
        let f = latch_pipeline();
        let nominal = pipeline_clocks(10_000);
        let analyzer = Analyzer::new(&f.design, f.module, &lib, &nominal, pipeline_spec()).unwrap();
        let param = analyzer.parametric().unwrap();

        // Exhaustive scan over the served domain (also proves the
        // regions cover it: locate() panics on any uncovered point).
        let mut scan_min = None;
        for k in param.k_lo..=param.k_max {
            if param.ok_at(Time::from_ps(4 * k)).unwrap() {
                scan_min = Some(Time::from_ps(4 * k));
                break;
            }
        }
        assert_eq!(param.min_feasible_period(), scan_min);
        // The nominal period is always served, and the boundary is
        // interior to the domain (sharpness is checkable below).
        assert!(param.k_lo <= 10_000 && param.k_max >= 10_000);

        let min = param.min_feasible_period().expect("fixture is feasible");
        let kmin = min.as_ps() / 4;
        assert!(kmin > param.k_lo, "boundary must be interior to the domain");
        let ok = Analyzer::new(
            &f.design,
            f.module,
            &lib,
            &pipeline_clocks(kmin),
            pipeline_spec(),
        )
        .unwrap()
        .analyze();
        assert!(ok.ok(), "numeric run at the min period must be feasible");
        if kmin > 1 {
            let bad = Analyzer::new(
                &f.design,
                f.module,
                &lib,
                &pipeline_clocks(kmin - 1),
                pipeline_spec(),
            )
            .unwrap()
            .analyze();
            assert!(!bad.ok(), "one grid step below must be infeasible");
        }
    }

    #[test]
    fn period_queries_reject_off_grid_and_out_of_range() {
        let lib = fixture_lib();
        let f = latch_pipeline();
        let nominal = pipeline_clocks(10_000);
        let analyzer = Analyzer::new(&f.design, f.module, &lib, &nominal, pipeline_spec()).unwrap();
        let param = analyzer.parametric().unwrap();

        assert!(matches!(
            param.worst_at(Time::from_ps(41)),
            Err(PeriodError::OffGrid { .. })
        ));
        assert!(matches!(
            param.worst_at(Time::ZERO),
            Err(PeriodError::OutOfRange { .. })
        ));
        let (lo, hi) = param.domain();
        assert!(param.worst_at(lo).is_ok());
        assert!(param.worst_at(hi).is_ok());
        assert!(matches!(
            param.worst_at(hi + param.stride()),
            Err(PeriodError::OutOfRange { .. })
        ));
        // Snapping lands on-grid and inside the domain.
        let snapped = param.snap(lo + Time::from_ps(1));
        assert_eq!(snapped, lo, "just past the floor rounds back down");
        assert!(param.worst_at(snapped).is_ok());
        let snapped = param.snap(lo + Time::from_ps(3));
        assert_eq!(snapped, lo + param.stride(), "round half up");
        assert_eq!(param.snap(Time::ZERO), lo);
        assert_eq!(param.snap(hi + Time::from_ns(1)), hi);
    }
}
