//! `hb-obs` — lock-free observability for the hummingbird stack.
//!
//! Every subsystem of the resident analyzer (transport, session,
//! sweep engine, fault harness) tallies what it does into metric
//! handles from this crate: [`Counter`]s, [`Gauge`]s with peak
//! tracking, fixed-bucket power-of-two latency [`Histogram`]s with
//! p50/p95/max readout, and [`Span`] timers. A [`Registry`] names the
//! metrics and renders them as Prometheus-style text exposition (the
//! daemon's `metrics` verb); [`parse_exposition`] validates that text
//! for tests and CI smokes.
//!
//! # Design rules
//!
//! * **Lock-free on the hot path.** Registration takes a mutex once
//!   per series; the returned handle is an `Arc` over atomics, and
//!   every update is a relaxed atomic op. Hot call sites resolve
//!   handles at construction (or through `OnceLock`) and never touch
//!   the registry again.
//! * **Zero cost when disarmed.** Counters and gauges always tally
//!   (one relaxed `fetch_add`; unmeasurable next to any request).
//!   Anything that must read the clock — [`Histogram::span`] and
//!   explicit timing blocks gated on [`armed`] — compiles down to one
//!   relaxed load when the process-wide flag is off, which is the
//!   default. `perf_summary` measures the armed-vs-disarmed delta and
//!   records it in `BENCH_perf.json`.
//! * **Metrics never perturb results.** Instrumentation only observes;
//!   the metrics-parity test asserts analysis reports are bit-identical
//!   with the process armed and disarmed, at 1 and 8 threads.
//! * **Deterministic exposition.** [`Registry::render`] sorts by name
//!   and labels so snapshots diff cleanly.
//!
//! Two registries matter in practice: the process-wide [`global()`]
//! one (engine and fault-injection counters, too deep to thread a
//! handle into) and per-instance registries owned by whoever needs
//! isolated counts (each `hb-server` session owns one, so two daemons
//! in one test process do not bleed request counts into each other).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

mod metrics;
mod registry;

pub use metrics::{bucket_bound, Counter, Gauge, Histogram, Span, BUCKETS};
pub use registry::{parse_exposition, Registry};

/// Whether timing instrumentation is armed, process-wide.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Arms timing instrumentation: spans and `armed()`-gated timing
/// blocks start reading the clock. The daemon arms on startup; the
/// one-shot CLI arms under `--profile`; benches toggle it to measure
/// overhead.
pub fn arm() {
    ARMED.store(true, Ordering::Release);
}

/// Disarms timing instrumentation (the default): spans become inert.
/// Counters and gauges keep tallying either way.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Whether timing instrumentation is armed. One relaxed-ish load —
/// cheap enough for any hot path.
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// The process-wide registry, for instrumentation points too deep to
/// thread a registry handle into (the sweep engine, fault points).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
