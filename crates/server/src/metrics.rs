//! Per-daemon request metrics.
//!
//! Each daemon instance (TCP server or stdio loop) owns one
//! [`Metrics`] over its own [`Registry`], so two servers in one test
//! process never bleed counts into each other. Request counters are
//! pre-registered per verb at construction, making the hot path one
//! relaxed atomic increment with no registry lookup; only rare events
//! (error replies) register lazily.
//!
//! This is also where the historical `stats` undercount is fixed at
//! the root: both the read-lock path (`Session::handle_readonly`) and
//! the write path (`Session::handle`) tally into the *same* atomics
//! through a shared reference, so a request is counted no matter which
//! lock served it. Journal replay bypasses the counting wrapper
//! entirely — recovery must not inflate history.

use std::sync::Arc;

use hb_obs::{Counter, Gauge, Histogram, Registry, Span};

/// Every wire verb with a dedicated counter slot; anything else lands
/// in `other` (still counted — unknown verbs are requests too).
pub const VERBS: [&str; 22] = [
    "hello",
    "stats",
    "metrics",
    "shutdown",
    "slack",
    "worst-paths",
    "dump",
    "min-period",
    "slack-at",
    "period-sweep",
    "load",
    "analyze",
    "constraints",
    "eco",
    "batch",
    "open",
    "close",
    "designs",
    "repl-state",
    "repl-pull",
    "vote",
    "other",
];

/// The counter slot of `verb` (the `other` slot for unknown verbs).
fn verb_index(verb: &str) -> usize {
    VERBS
        .iter()
        .position(|v| *v == verb)
        .unwrap_or(VERBS.len() - 1)
}

/// One daemon instance's metrics: per-verb request counters split by
/// lock path, per-verb latency histograms split lock-wait vs handle,
/// wire byte counters, connection gauge, shed/recovery counters.
pub struct Metrics {
    registry: Arc<Registry>,
    /// `hb_requests_total{verb=..., path="read"}` — served under the
    /// shared read lock.
    read: Vec<Counter>,
    /// `hb_requests_total{verb=..., path="write"}` — served under the
    /// exclusive write lock (every mutating verb, plus read-only verbs
    /// that found the analysis stale).
    write: Vec<Counter>,
    /// Time a request waited for the session lock, by verb.
    lock_wait: Vec<Histogram>,
    /// Time the session spent handling, by verb.
    handle: Vec<Histogram>,
    /// Bytes read off accepted sockets.
    pub bytes_in: Counter,
    /// Bytes written to accepted sockets.
    pub bytes_out: Counter,
    /// Live connections (peak tracked as the gauge watermark).
    pub conns: Gauge,
    /// Bytes of reusable per-connection codec buffers currently
    /// retained (decode scratch plus reply queues) — the daemon's
    /// bounded-memory claim, measurable. Peak tracks the high-water
    /// mark across the connection population.
    pub buffer_bytes: Gauge,
    /// Connections shed at accept by the connection cap.
    pub shed: Counter,
    /// Session rebuilds from the write-ahead journal.
    pub recoveries: Counter,
    /// Resident (non-evicted) design sessions in the fleet table.
    pub sessions_live: Gauge,
    /// Approximate bytes held by resident design sessions (peak is the
    /// watermark the memory budget is judged against).
    pub session_bytes: Gauge,
    /// Design sessions evicted by the LRU policy to stay inside the
    /// fleet's memory budget.
    pub evictions: Counter,
    /// The node's current fencing term (bumped by every promotion,
    /// adopted from any higher term seen on the wire).
    pub term: Gauge,
    /// Promotions to primary this process has performed (unilateral or
    /// quorum-elected).
    pub promotions: Counter,
    /// Mutating requests rejected with `error code=fenced` because
    /// this node is not the primary (or the issuer's term was stale).
    pub fenced_writes: Counter,
    /// `repl-pull` pages this node has applied as a standby.
    pub repl_pages: Counter,
    /// Bytes of `repl-pull` page payload applied as a standby.
    pub repl_bytes: Counter,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// A fresh instance over its own registry, with every per-verb
    /// series pre-registered so counting never touches the registry.
    pub fn new() -> Metrics {
        let registry = Arc::new(Registry::new());
        let requests = |path: &str| -> Vec<Counter> {
            VERBS
                .iter()
                .map(|verb| {
                    registry.counter_with(
                        "hb_requests_total",
                        "requests served, by verb and lock path",
                        &[("verb", verb), ("path", path)],
                    )
                })
                .collect()
        };
        let stages = |stage: &str| -> Vec<Histogram> {
            VERBS
                .iter()
                .map(|verb| {
                    registry.histogram_with(
                        "hb_request_nanoseconds",
                        "request latency, by verb, split lock-wait vs handle",
                        &[("verb", verb), ("stage", stage)],
                    )
                })
                .collect()
        };
        Metrics {
            read: requests("read"),
            write: requests("write"),
            lock_wait: stages("lock_wait"),
            handle: stages("handle"),
            bytes_in: registry.counter("hb_bytes_read_total", "bytes read off client sockets"),
            bytes_out: registry
                .counter("hb_bytes_written_total", "bytes written to client sockets"),
            conns: registry.gauge("hb_connections", "live client connections"),
            buffer_bytes: registry.gauge(
                "hb_conn_buffer_bytes",
                "bytes of per-connection codec buffers currently retained",
            ),
            shed: registry.counter(
                "hb_connections_shed_total",
                "connections refused at accept by the connection cap",
            ),
            recoveries: registry.counter(
                "hb_recoveries_total",
                "session rebuilds from the write-ahead journal",
            ),
            sessions_live: registry.gauge(
                "hb_sessions_live",
                "resident design sessions in the fleet table",
            ),
            session_bytes: registry.gauge(
                "hb_session_bytes",
                "approximate bytes held by resident design sessions",
            ),
            evictions: registry.counter(
                "hb_evictions_total",
                "design sessions evicted by the LRU memory-budget policy",
            ),
            term: registry.gauge("hb_term", "current fencing term of this node"),
            promotions: registry
                .counter("hb_promotions_total", "promotions of this node to primary"),
            fenced_writes: registry.counter(
                "hb_fenced_writes_total",
                "mutating requests rejected because this node is fenced",
            ),
            repl_pages: registry.counter(
                "hb_repl_pages_total",
                "repl-pull pages applied while standing by",
            ),
            repl_bytes: registry.counter(
                "hb_repl_bytes_total",
                "bytes of repl-pull page payload applied while standing by",
            ),
            registry,
        }
    }

    /// The backing registry (rendered by the `metrics` verb).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Counts one request served under the read lock.
    pub fn count_read(&self, verb: &str) {
        self.read[verb_index(verb)].inc();
    }

    /// Counts one request served under the write lock.
    pub fn count_write(&self, verb: &str) {
        self.write[verb_index(verb)].inc();
    }

    /// Total requests served over both lock paths.
    pub fn requests_total(&self) -> u64 {
        self.read.iter().chain(&self.write).map(Counter::get).sum()
    }

    /// Requests served under the read lock.
    pub fn read_total(&self) -> u64 {
        self.read.iter().map(Counter::get).sum()
    }

    /// Requests served under the write lock.
    pub fn write_total(&self) -> u64 {
        self.write.iter().map(Counter::get).sum()
    }

    /// Requests of one verb, both paths combined.
    pub fn requests_of(&self, verb: &str) -> u64 {
        let i = verb_index(verb);
        self.read[i].get() + self.write[i].get()
    }

    /// Counts one `error`-verb reply by its `code` argument. Error
    /// replies are rare, so lazy registration here is fine.
    pub fn error(&self, code: &str) {
        self.registry
            .counter_with(
                "hb_errors_total",
                "error replies, by code",
                &[("code", code)],
            )
            .inc();
    }

    /// Counts one routed request against its design id. Designs come
    /// and go at runtime, so — like [`Metrics::error`] — this
    /// registers lazily; the registry interns the series after the
    /// first request, and per-design traffic is one lookup thereafter.
    pub fn design_request(&self, design: &str) {
        self.registry
            .counter_with(
                "hb_design_requests_total",
                "requests routed, by design id",
                &[("design", design)],
            )
            .inc();
    }

    /// A span over `verb`'s lock-wait histogram (inert when disarmed).
    pub fn lock_wait_span(&self, verb: &str) -> Span {
        self.lock_wait[verb_index(verb)].span()
    }

    /// A span over `verb`'s handle histogram (inert when disarmed).
    pub fn handle_span(&self, verb: &str) -> Span {
        self.handle[verb_index(verb)].span()
    }

    /// The `metrics`-verb payload: this instance's registry followed by
    /// the process-global one (engine, algorithm and fault counters).
    pub fn render_with_global(&self) -> String {
        let mut out = self.registry.render();
        out.push_str(&hb_obs::global().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_route_to_their_slot() {
        let m = Metrics::new();
        m.count_read("slack");
        m.count_read("slack");
        m.count_write("eco");
        m.count_write("nonsense");
        assert_eq!(m.requests_of("slack"), 2);
        assert_eq!(m.requests_of("eco"), 1);
        assert_eq!(m.requests_of("other"), 1);
        assert_eq!(m.requests_total(), 4);
        assert_eq!(m.read_total(), 2);
        assert_eq!(m.write_total(), 2);
        // The what-if verbs have slots of their own, not `other`'s.
        for verb in ["min-period", "slack-at", "period-sweep"] {
            m.count_read(verb);
            assert_eq!(m.requests_of(verb), 1, "{verb}");
        }
        assert_eq!(m.requests_of("other"), 1);
    }

    #[test]
    fn exposition_carries_both_registries() {
        let m = Metrics::new();
        m.count_read("hello");
        m.error("busy");
        let text = m.render_with_global();
        assert!(text.contains("hb_requests_total{path=\"read\",verb=\"hello\"} 1"));
        assert!(text.contains("hb_errors_total{code=\"busy\"} 1"));
        hb_obs::parse_exposition(&text).expect("well-formed exposition");
    }

    #[test]
    fn two_instances_are_isolated() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.count_write("load");
        assert_eq!(a.requests_total(), 1);
        assert_eq!(b.requests_total(), 0);
    }
}
