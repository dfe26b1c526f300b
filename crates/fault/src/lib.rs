//! Deterministic fault injection for chaos testing.
//!
//! Production code is sprinkled with *named fault points* — places
//! where an I/O operation, a sweep, or a session mutation can be made
//! to fail on purpose. A [`FaultPlan`] decides, deterministically from
//! an [`hb_rng`] seed, which checks of which points fire. The empty
//! plan ([`FaultPlan::none`]) is the production configuration: every
//! check is a single `Option` test on an unshared pointer, so the
//! hooks cost nothing when disarmed and need no `#[cfg]` gating —
//! the chaos suite exercises the *same* binary the daemon ships.
//!
//! Three ways faults reach the code under test:
//!
//! * [`FaultStream`] wraps any `Read`/`Write` pair and injects short
//!   reads/writes, [`ErrorKind::Interrupted`]/[`ErrorKind::WouldBlock`]
//!   errors, and bounded stalls (see the `stream` module);
//! * explicit plans threaded through constructors (`hb-server`'s
//!   `ServerOptions::faults`, `Session::with_faults`);
//! * the process-global plan ([`install_global`]) for hooks too deep
//!   to thread a plan into (the sharded engine's sweep loop).
//!
//! Every decision is reproducible: a plan seeded with the same value
//! and armed with the same points fires on exactly the same checks.
//!
//! [`ErrorKind::Interrupted`]: std::io::ErrorKind::Interrupted
//! [`ErrorKind::WouldBlock`]: std::io::ErrorKind::WouldBlock

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hb_rng::SmallRng;

mod stream;

pub use stream::FaultStream;

/// Short read: `read` hands back at most a few bytes per call.
pub const IO_READ_SHORT: &str = "io.read.short";
/// Read error: `read` fails with `Interrupted` or `WouldBlock`.
pub const IO_READ_ERR: &str = "io.read.err";
/// Read stall: `read` sleeps the plan's bounded stall first.
pub const IO_READ_STALL: &str = "io.read.stall";
/// Short write: `write` accepts at most a few bytes per call.
pub const IO_WRITE_SHORT: &str = "io.write.short";
/// Write error: `write` fails with `Interrupted`.
pub const IO_WRITE_ERR: &str = "io.write.err";
/// Write stall: `write` sleeps the plan's bounded stall first.
pub const IO_WRITE_STALL: &str = "io.write.stall";
/// The sharded engine panics at the top of a sweep evaluation
/// (checked against the *global* plan; see [`install_global`]).
pub const ENGINE_SWEEP_PANIC: &str = "engine.sweep.panic";
/// The session panics mid-`load`, after the design was installed.
pub const SESSION_LOAD_PANIC: &str = "session.load.panic";
/// The session panics mid-`eco`, after the design was mutated but
/// before it was re-analyzed — the worst case for state consistency.
pub const SESSION_ECO_PANIC: &str = "session.eco.panic";
/// The server's write path skips its `catch_unwind` so an injected
/// panic escapes the session guard and genuinely poisons the session
/// lock. The design worker catches it at the job boundary and closes
/// that request's connection without a reply — exercising the
/// poison-recovery path rather than the panic-isolation path.
pub const NET_UNWIND_ESCAPE: &str = "net.unwind.escape";
/// The replication control plane is cut: the node drops every
/// outbound replication exchange (sync, probe, gossip, vote request)
/// and rejects every inbound `repl-state`/`repl-pull`/`vote`, while
/// ordinary client verbs keep flowing. Armed at runtime with
/// [`FaultPlan::arm`] / healed with [`FaultPlan::disarm`], this
/// simulates a network partition isolating the node from its peers —
/// the zombie-primary scenario — without killing its process.
pub const REPL_LINK_DROP: &str = "repl.link.drop";

/// How one armed fault point behaves across successive checks.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Checks to let pass before the point may fire.
    pub skip: u32,
    /// Maximum number of fires (`u32::MAX` = unlimited).
    pub budget: u32,
    /// Fire probability per eligible check, in percent (100 = always).
    /// Probabilities draw from the plan's seeded generator, so the
    /// fire pattern is a pure function of the seed.
    pub rate_pct: u8,
}

impl Fault {
    /// Fires on every check, forever.
    pub fn always() -> Fault {
        Fault {
            skip: 0,
            budget: u32::MAX,
            rate_pct: 100,
        }
    }

    /// Fires exactly once, on the first check.
    pub fn once() -> Fault {
        Fault {
            skip: 0,
            budget: 1,
            rate_pct: 100,
        }
    }

    /// Fires exactly once, on the `n`-th check (1-based).
    pub fn nth(n: u32) -> Fault {
        Fault {
            skip: n.saturating_sub(1),
            budget: 1,
            rate_pct: 100,
        }
    }

    /// Fires on roughly `pct` percent of checks, seeded-deterministic.
    pub fn with_rate(pct: u8) -> Fault {
        Fault {
            skip: 0,
            budget: u32::MAX,
            rate_pct: pct.min(100),
        }
    }

    /// Caps the total number of fires (builder style).
    pub fn budget(mut self, budget: u32) -> Fault {
        self.budget = budget;
        self
    }
}

#[derive(Clone)]
struct PointState {
    fault: Fault,
    checks: u64,
    fired: u64,
}

struct Inner {
    points: Mutex<HashMap<String, PointState>>,
    rng: Mutex<SmallRng>,
    stall: Duration,
}

/// A seeded, shareable fault schedule. Cloning is cheap (`Arc`), and
/// every clone shares the same counters, so a plan handed to a server
/// and inspected by a test observes one consistent fire history.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultPlan::none"),
            Some(inner) => {
                let points = lock(&inner.points);
                let names: Vec<&str> = points.keys().map(String::as_str).collect();
                write!(f, "FaultPlan{names:?}")
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FaultPlan {
    /// The disarmed plan: every check is a no-op. This is the default
    /// everywhere a plan is accepted.
    pub fn none() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// An armed plan with no points yet; arm them with
    /// [`FaultPlan::armed`]. `seed` drives every probabilistic
    /// decision the plan will ever make.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(Inner {
                points: Mutex::new(HashMap::new()),
                rng: Mutex::new(SmallRng::seed_from_u64(seed)),
                stall: Duration::from_millis(20),
            })),
        }
    }

    /// Arms `point` with `fault` (builder style).
    ///
    /// # Panics
    ///
    /// Panics when called on the disarmed plan — arming order must be
    /// explicit about the seed.
    pub fn armed(self, point: &str, fault: Fault) -> FaultPlan {
        let inner = self.inner.as_ref().expect("arm a seeded plan");
        lock(&inner.points).insert(
            point.to_owned(),
            PointState {
                fault,
                checks: 0,
                fired: 0,
            },
        );
        self
    }

    /// Arms `point` with `fault` at runtime, through a shared plan.
    /// Unlike the builder-style [`FaultPlan::armed`], this mutates the
    /// plan in place, so every clone — including one already threaded
    /// into a running server — sees the point fire from the next
    /// check on. Chaos tests use this to *start* a partition
    /// mid-flight ([`REPL_LINK_DROP`]) and [`FaultPlan::disarm`] to
    /// heal it.
    ///
    /// # Panics
    ///
    /// Panics when called on the disarmed plan, like [`FaultPlan::armed`].
    pub fn arm(&self, point: &str, fault: Fault) {
        let inner = self.inner.as_ref().expect("arm a seeded plan");
        lock(&inner.points).insert(
            point.to_owned(),
            PointState {
                fault,
                checks: 0,
                fired: 0,
            },
        );
    }

    /// Disarms `point` at runtime: subsequent checks no longer fire,
    /// on this plan and every clone of it. Returns how many times the
    /// point had fired. No-op (returning 0) when the point was never
    /// armed or the plan is disarmed.
    pub fn disarm(&self, point: &str) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            lock(&inner.points).remove(point).map_or(0, |s| s.fired)
        })
    }

    /// Overrides the bounded stall duration used by the `*.stall`
    /// points (builder style; no-op on the disarmed plan).
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        if let Some(inner) = self.inner.take() {
            // Plans are built before they are shared; a sole owner can
            // rewrite the stall in place, a shared one gets a copy.
            let inner = match Arc::try_unwrap(inner) {
                Ok(mut sole) => {
                    sole.stall = stall;
                    sole
                }
                Err(shared) => Inner {
                    points: Mutex::new(lock(&shared.points).clone()),
                    rng: Mutex::new(lock(&shared.rng).clone()),
                    stall,
                },
            };
            self.inner = Some(Arc::new(inner));
        }
        self
    }

    /// Whether any point is (or ever was) armed. The disarmed plan
    /// short-circuits every check through this.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The bounded stall duration for `*.stall` points.
    pub fn stall(&self) -> Duration {
        self.inner
            .as_ref()
            .map_or(Duration::ZERO, |inner| inner.stall)
    }

    /// Whether `point` fires on this check. Counts the check either
    /// way; deterministic in the seed and the check sequence.
    pub fn fires(&self, point: &str) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut points = lock(&inner.points);
        let Some(state) = points.get_mut(point) else {
            return false;
        };
        state.checks += 1;
        if state.checks <= u64::from(state.fault.skip)
            || state.fired >= u64::from(state.fault.budget)
        {
            return false;
        }
        let fire = state.fault.rate_pct >= 100 || {
            let roll = lock(&inner.rng).gen_range(0..100);
            roll < usize::from(state.fault.rate_pct)
        };
        if fire {
            state.fired += 1;
            hb_obs::global()
                .counter_with(
                    "hb_fault_fired_total",
                    "injected fault-point firings, by point",
                    &[("point", point)],
                )
                .inc();
        }
        fire
    }

    /// Panics with `injected fault: {point}` when `point` fires.
    pub fn maybe_panic(&self, point: &str) {
        if self.fires(point) {
            panic!("injected fault: {point}");
        }
    }

    /// How many times `point` has fired so far.
    pub fn fired(&self, point: &str) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            lock(&inner.points).get(point).map_or(0, |s| s.fired)
        })
    }

    /// How many times `point` has been checked so far.
    pub fn checked(&self, point: &str) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            lock(&inner.points).get(point).map_or(0, |s| s.checks)
        })
    }
}

/// `true` iff a global plan with at least one armed point is
/// installed; lets [`global_fires`] stay a single relaxed load in
/// production.
static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<FaultPlan> = Mutex::new(FaultPlan { inner: None });

/// Installs `plan` as the process-global plan consulted by hooks too
/// deep to thread a plan into (e.g. [`ENGINE_SWEEP_PANIC`] inside the
/// sharded sweep engine). Install [`FaultPlan::none`] to disarm.
/// Intended for chaos tests only; tests sharing a process must
/// serialise around it.
pub fn install_global(plan: FaultPlan) {
    let armed = plan.is_armed();
    *lock(&GLOBAL) = plan;
    GLOBAL_ARMED.store(armed, Ordering::Release);
}

/// Whether `point` fires on the process-global plan. Compiles down to
/// one relaxed atomic load when nothing is installed.
pub fn global_fires(point: &str) -> bool {
    if !GLOBAL_ARMED.load(Ordering::Acquire) {
        return false;
    }
    let plan = lock(&GLOBAL).clone();
    plan.fires(point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_armed());
        for _ in 0..100 {
            assert!(!plan.fires(IO_READ_ERR));
        }
        assert_eq!(plan.fired(IO_READ_ERR), 0);
    }

    #[test]
    fn nth_and_budget_schedules() {
        let plan = FaultPlan::seeded(7).armed("p", Fault::nth(3));
        assert!(!plan.fires("p"));
        assert!(!plan.fires("p"));
        assert!(plan.fires("p"));
        assert!(!plan.fires("p"), "budget of one is spent");
        assert_eq!(plan.fired("p"), 1);
        assert_eq!(plan.checked("p"), 4);

        let plan = FaultPlan::seeded(7).armed("q", Fault::always().budget(2));
        assert_eq!((0..10).filter(|_| plan.fires("q")).count(), 2);
    }

    #[test]
    fn rates_are_seed_deterministic() {
        let pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).armed("r", Fault::with_rate(30));
            (0..200).map(|_| plan.fires("r")).collect()
        };
        assert_eq!(pattern(11), pattern(11), "same seed, same fires");
        assert_ne!(pattern(11), pattern(12), "different seed differs");
        let fires = pattern(11).iter().filter(|&&b| b).count();
        assert!((30..90).contains(&fires), "rate ~30%: {fires}/200");
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan::seeded(5).armed("s", Fault::always());
        let clone = plan.clone();
        assert!(clone.fires("s"));
        assert_eq!(plan.fired("s"), 1);
    }

    #[test]
    fn runtime_arm_and_disarm_reach_every_clone() {
        let plan = FaultPlan::seeded(9);
        let server_side = plan.clone();
        assert!(!server_side.fires(REPL_LINK_DROP), "not armed yet");
        plan.arm(REPL_LINK_DROP, Fault::always());
        assert!(server_side.fires(REPL_LINK_DROP), "partition starts");
        assert!(server_side.fires(REPL_LINK_DROP));
        assert_eq!(plan.disarm(REPL_LINK_DROP), 2, "heal reports fires");
        assert!(!server_side.fires(REPL_LINK_DROP), "partition healed");
        assert_eq!(plan.disarm(REPL_LINK_DROP), 0, "disarm is idempotent");
    }

    #[test]
    fn global_plan_round_trips() {
        assert!(!global_fires("t"));
        install_global(FaultPlan::seeded(1).armed("t", Fault::once()));
        assert!(global_fires("t"));
        assert!(!global_fires("t"));
        install_global(FaultPlan::none());
        assert!(!global_fires("t"));
    }
}
