//! The resident analysis session: one loaded design, one persistent
//! slack cache, and the request handlers that operate on them.
//!
//! A [`Session`] is transport-agnostic — it maps request
//! [`Frame`]s to response frames and can therefore be driven by the
//! TCP server, the `--stdio` loop, or a test directly. All state a
//! request can observe lives here; the transport layer only adds
//! locking and deadlines.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hb_cells::Library;
use hb_clock::ClockSet;
use hb_fault::FaultPlan;
use hb_io::{Frame, TimingDirective};
use hb_netlist::{Design, ModuleId};
use hb_resynth::{apply_eco, EcoOp};
use hb_rng::mix64;
use hb_units::Time;
use hummingbird::{
    AnalysisOptions, Analyzer, EdgeSpec, LatchModel, ParametricSlack, Prepared, SlackCache, Spec,
    TerminalKind, TimingReport,
};

use crate::metrics::Metrics;

/// Largest accepted `worst-paths` `k`. A hostile `k` beyond this is
/// answered with `error code=limit` instead of being trusted to size
/// result enumeration.
pub const MAX_WORST_PATHS: usize = 10_000;

/// Largest accepted `load` payload in bytes. Below the codec's
/// [`hb_io::proto::MAX_PAYLOAD`] on purpose: the transport limit
/// bounds a single frame, this bounds what a session will *parse and
/// retain*.
pub const MAX_LOAD_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted number of sub-requests in one `batch` frame.
pub const MAX_BATCH: usize = 1024;

/// Largest accepted number of evaluation points in one `period-sweep`.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// The sub-verbs a `batch` frame may carry — the read-only query set.
/// Restricting batches to queries keeps them out of the write-ahead
/// journal by construction: a batch can never mutate the session, so
/// recovery never needs to replay one.
const BATCH_VERBS: [&str; 9] = [
    "hello",
    "stats",
    "metrics",
    "slack",
    "worst-paths",
    "dump",
    "min-period",
    "slack-at",
    "period-sweep",
];

/// The state a `load` request installs.
struct Loaded {
    design: Design,
    top: ModuleId,
    clocks: ClockSet,
    timing: Vec<TimingDirective>,
    options: AnalysisOptions,
    /// The content-addressed sweep cache. Survives ECO edits — that is
    /// the point of the daemon.
    cache: SlackCache,
    report: Option<TimingReport>,
    /// Bumped on every mutation of the design.
    generation: u64,
    /// Generation `report` was computed for (`None` = never analyzed).
    analyzed: Option<u64>,
    /// Whether `report` carries Algorithm 2 constraints.
    with_constraints: bool,
    /// The parametric (what-if) table and the generation it was built
    /// for. Built lazily by the first `min-period` / `slack-at` /
    /// `period-sweep`; every later what-if query on the same
    /// generation is answered from it with zero engine sweeps.
    parametric: Option<(u64, ParametricSlack)>,
    /// The prepared state of the last `eco`'s analysis and the
    /// generation it matches. Only `eco` keeps one: the next ECO
    /// patches it in place instead of preparing the design again, and
    /// `analyze`/`constraints` and the what-if builds reuse it while
    /// its generation is current. `load` and an options change drop it.
    prepared: Option<(u64, Prepared)>,
}

impl Loaded {
    /// Takes the resident prepared state out, if it matches the
    /// current design and options.
    fn take_prepared(&mut self) -> Option<Prepared> {
        let (generation, prep) = self.prepared.take()?;
        (generation == self.generation && prep.options() == self.options).then_some(prep)
    }

    /// The prepared state an analysis of the current design runs on,
    /// and whether it is the resident one: that state when it is
    /// current (taken out, for the caller to put back), a cold
    /// preparation otherwise.
    fn open(&mut self, library: &Library) -> Result<(Prepared, bool), Frame> {
        if let Some(prep) = self.take_prepared() {
            return Ok((prep, true));
        }
        let (design, top, clocks) = (&self.design, self.top, &self.clocks);
        let spec = spec_from_directives(design, top, clocks, &self.timing)
            .map_err(|e| err("analysis", e))?;
        let analyzer = Analyzer::with_options(design, top, library, clocks, spec, self.options)
            .map_err(|e| err("analysis", e))?;
        Ok((analyzer.into_prepared(), false))
    }
}

/// A resident analysis session: library, loaded design, persistent
/// cache and counters.
pub struct Session {
    library: Library,
    loaded: Option<Loaded>,
    started: Instant,
    loads: u64,
    ecos: u64,
    /// Request counters and latency histograms. Counting goes through
    /// shared atomics so the read-lock path (`&self`) and the write
    /// path tally into the same series — the historical `stats`
    /// undercount (read-served requests never counted) is structurally
    /// impossible here.
    metrics: Arc<Metrics>,
    /// Chaos-test injection schedule; [`FaultPlan::none`] in
    /// production, where every check is a no-op.
    faults: FaultPlan,
}

fn ok() -> Frame {
    Frame::new("ok")
}

fn err(code: &str, message: impl std::fmt::Display) -> Frame {
    Frame::new("error")
        .arg("code", code)
        .with_payload(message.to_string())
}

fn kind_str(kind: TerminalKind) -> &'static str {
    match kind {
        TerminalKind::SyncInput => "sync-input",
        TerminalKind::SyncOutput => "sync-output",
        TerminalKind::PrimaryInput => "primary-input",
        TerminalKind::PrimaryOutput => "primary-output",
    }
}

/// The payload of a terminal read — one `KIND pulse P slack S` line
/// per `(kind, pulse, slack)` row, in the order given — and the worst
/// of the slacks; `None` when there are no rows.
fn terminal_lines(rows: impl Iterator<Item = (TerminalKind, u32, Time)>) -> Option<(Time, String)> {
    let mut body = String::new();
    let mut worst: Option<Time> = None;
    for (kind, pulse, slack) in rows {
        let _ = writeln!(body, "{} pulse {pulse} slack {slack}", kind_str(kind));
        worst = Some(worst.map_or(slack, |w| w.min(slack)));
    }
    worst.map(|w| (w, body))
}

/// Builds the boundary [`Spec`] from a design's timing directives,
/// with the CLI's default rule: absent explicit `clockport`
/// directives, every clock binds the module port carrying its own
/// name.
pub fn spec_from_directives(
    design: &Design,
    top: ModuleId,
    clocks: &ClockSet,
    directives: &[TimingDirective],
) -> Result<Spec, String> {
    if clocks.is_empty() {
        return Err("the design declares no clocks".into());
    }
    let mut spec = Spec::new();
    let mut has_clock_ports = false;
    for d in directives {
        match d {
            TimingDirective::ClockPort { port, clock } => {
                spec = spec.clock_port(port, clock);
                has_clock_ports = true;
            }
            TimingDirective::Arrive { port, edge, offset } => {
                spec = spec.input_arrival(
                    port,
                    EdgeSpec::new(&edge.0, edge.1).at_occurrence(edge.2),
                    *offset,
                );
            }
            TimingDirective::Require { port, edge, offset } => {
                spec = spec.output_required(
                    port,
                    EdgeSpec::new(&edge.0, edge.1).at_occurrence(edge.2),
                    *offset,
                );
            }
        }
    }
    if !has_clock_ports {
        for (_, clock) in clocks.clocks() {
            if design.module(top).port_by_name(clock.name()).is_some() {
                spec = spec.clock_port(clock.name(), clock.name());
            }
        }
    }
    Ok(spec)
}

/// Serialises a [`Spec`] into the equivalent `.hum` timing directives
/// (sorted by port so the output is deterministic). This is how a
/// programmatically built workload travels to a daemon through `load`.
pub fn directives_from_spec(spec: &Spec) -> Vec<TimingDirective> {
    let mut out = Vec::new();
    let mut clock_ports: Vec<_> = spec.clock_ports().collect();
    clock_ports.sort_unstable();
    for (port, clock) in clock_ports {
        out.push(TimingDirective::ClockPort {
            port: port.to_owned(),
            clock: clock.to_owned(),
        });
    }
    let mut arrivals: Vec<_> = spec.input_arrivals().collect();
    arrivals.sort_unstable_by_key(|(p, _, _)| p.to_owned());
    for (port, edge, offset) in arrivals {
        out.push(TimingDirective::Arrive {
            port: port.to_owned(),
            edge: (edge.clock.clone(), edge.transition, edge.occurrence),
            offset,
        });
    }
    let mut requireds: Vec<_> = spec.output_requireds().collect();
    requireds.sort_unstable_by_key(|(p, _, _)| p.to_owned());
    for (port, edge, offset) in requireds {
        out.push(TimingDirective::Require {
            port: port.to_owned(),
            edge: (edge.clock.clone(), edge.transition, edge.occurrence),
            offset,
        });
    }
    out
}

impl Session {
    /// A session resolving cells against `library`, with nothing
    /// loaded.
    pub fn new(library: Library) -> Session {
        Session::with_faults(library, FaultPlan::none())
    }

    /// A session with a fault-injection schedule — the chaos suite's
    /// entry point. With [`FaultPlan::none`] this is [`Session::new`].
    pub fn with_faults(library: Library, faults: FaultPlan) -> Session {
        Session {
            library,
            loaded: None,
            started: Instant::now(),
            loads: 0,
            ecos: 0,
            metrics: Arc::new(Metrics::new()),
            faults,
        }
    }

    /// The session's fault schedule.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Replaces the fault schedule (used when a rebuilt session must
    /// keep honouring the transport's plan).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The session's metrics instance, shared with the transport.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Replaces the metrics instance — the transport installs its own
    /// at bind time, and recovery re-installs it into a rebuilt
    /// session so counter history survives a journal replay.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = metrics;
    }

    /// A content fingerprint of everything a journal replay must
    /// reproduce: the loaded design/clocks/timing (via the canonical
    /// `.hum` dump), the analysis options, and the constraints mode.
    /// Deliberately excludes volatile counters (uptime, request
    /// totals, generation) and the derived report — queries rebuild
    /// the latter deterministically on demand.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix64(0x4855_4d4d_4249_5244, 0x1989_0625);
        let Some(l) = &self.loaded else {
            return mix64(h, 0);
        };
        let text = hb_io::write_hum_with_timing(&l.design, &l.clocks, &l.timing);
        h = mix64(h, text.len() as u64);
        for chunk in text.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix64(h, u64::from_le_bytes(word));
        }
        h = mix64(h, l.options.latch_model as u64);
        h = mix64(h, l.options.max_cycles as u64);
        h = mix64(h, u64::from(l.options.check_min_delays));
        h = mix64(h, l.options.threads as u64);
        h = mix64(h, l.options.engine as u64);
        mix64(h, u64::from(l.with_constraints))
    }

    /// Salvages the content-addressed sweep cache out of a (possibly
    /// half-mutated) session. Sound after a panic, even one in the
    /// middle of an analysis: every version is keyed by shard content
    /// and an exact seed signature and inserted only once fully swept,
    /// so whatever is present is correct for any design that matches
    /// its key. The cache holds nothing positional — the incremental
    /// state of an analysis (previous offsets, item results, terminal
    /// view) lives in the analysis call and dies with it — and the
    /// versions an interrupted analysis added are dropped when the next
    /// analysis through the cache ends without using them.
    pub fn take_cache(&mut self) -> Option<SlackCache> {
        self.loaded
            .as_mut()
            .map(|l| std::mem::replace(&mut l.cache, SlackCache::new()))
    }

    /// Installs a salvaged cache into the loaded design (journal
    /// replay does this right after its `load` entry so the replayed
    /// analyses run warm).
    pub fn install_cache(&mut self, cache: SlackCache) {
        if let Some(l) = self.loaded.as_mut() {
            l.cache = cache;
        }
    }

    /// A deterministic approximation of the session's resident
    /// footprint in bytes — what the fleet's memory budget accounts
    /// against. Not a malloc measurement: a stable formula over the
    /// loaded design's cell/net counts plus the cache's content
    /// ([`SlackCache::approx_bytes`]) and the resident prepared state an
    /// `eco` keeps ([`Prepared::approx_bytes`]), so eviction decisions
    /// reproduce across runs and platforms.
    pub fn approx_resident_bytes(&self) -> usize {
        let Some(l) = &self.loaded else {
            return 256;
        };
        let stats = l.design.stats(l.top);
        let prepared = l.prepared.as_ref().map_or(0, |(_, p)| p.approx_bytes());
        256 + stats.cells * 160 + stats.nets * 96 + l.cache.approx_bytes() + prepared
    }

    /// The loaded state as synthetic journal frames: one `load` of the
    /// canonical dump text plus, if an analysis has succeeded, one
    /// options-bearing re-analysis. `None` when nothing is loaded.
    pub(crate) fn snapshot_frames(&self) -> Option<Vec<Frame>> {
        let l = self.loaded.as_ref()?;
        let text = hb_io::write_hum_with_timing(&l.design, &l.clocks, &l.timing);
        let mut frames = vec![Frame::new("load").with_payload(text)];
        if l.analyzed.is_some() {
            let verb = if l.with_constraints {
                "constraints"
            } else {
                "analyze"
            };
            frames.push(
                Frame::new(verb)
                    .arg("threads", l.options.threads)
                    .arg(
                        "latch",
                        match l.options.latch_model {
                            LatchModel::Transparent => "transparent",
                            LatchModel::EdgeTriggered => "edge",
                        },
                    )
                    .arg("min-delays", u8::from(l.options.check_min_delays)),
            );
        }
        Some(frames)
    }

    /// The last computed report, if the loaded design has been
    /// analyzed. Exposed for parity testing against one-shot runs.
    pub fn last_report(&self) -> Option<&TimingReport> {
        self.loaded.as_ref().and_then(|l| l.report.as_ref())
    }

    /// The last built what-if table, if one was built for the loaded
    /// design. Exposed for parity testing, like [`Session::last_report`].
    pub fn last_parametric(&self) -> Option<&ParametricSlack> {
        self.loaded
            .as_ref()
            .and_then(|l| l.parametric.as_ref())
            .map(|(_, table)| table)
    }

    /// Answers `req` without mutating the session, or `None` when the
    /// request needs (or may need) the write path. The transport uses
    /// this under a read lock so concurrent queries of a settled
    /// analysis never serialise.
    pub fn handle_readonly(&self, req: &Frame) -> Option<Frame> {
        if !self.serves_readonly(req) {
            return None;
        }
        // This is the fix for the historical `stats` undercount: the
        // read path counts through the shared atomics too, so requests
        // served under the read lock no longer vanish from `requests`.
        self.metrics.count_read(&req.verb);
        let _handle = self.metrics.handle_span(&req.verb);
        let reply = self.dispatch_readonly(req);
        if reply.verb == "error" {
            self.metrics.error(reply.get("code").unwrap_or("unknown"));
        }
        Some(reply)
    }

    /// Whether [`Session::handle_readonly`] would answer `req` in the
    /// session's current state.
    pub(crate) fn serves_readonly(&self, req: &Frame) -> bool {
        match req.verb.as_str() {
            "hello" | "stats" | "metrics" | "shutdown" => true,
            "slack" | "worst-paths" | "dump" => self.settled(),
            "min-period" | "slack-at" | "period-sweep" => self.param_settled(),
            "batch" => self.batch_serveable(req),
            _ => false,
        }
    }

    fn dispatch_readonly(&self, req: &Frame) -> Frame {
        match req.verb.as_str() {
            "hello" => ok().arg("server", "hummingbird").arg("proto", 1),
            "shutdown" => ok().arg("draining", 1),
            "stats" => self.stats(),
            "metrics" => ok()
                .arg("format", "prometheus-text")
                .with_payload(self.metrics.render_with_global()),
            "slack" => self.slack(req),
            "worst-paths" => self.worst_paths(req),
            "min-period" => self.min_period(),
            "slack-at" => self.slack_at(req),
            "period-sweep" => self.period_sweep(req),
            "dump" => self.dump(),
            "batch" => self.batch(req),
            _ => unreachable!("gated by handle_readonly"),
        }
    }

    /// Whether the loaded design has a settled (current-generation)
    /// analysis the read path may serve from.
    fn settled(&self) -> bool {
        self.loaded
            .as_ref()
            .is_some_and(|l| l.analyzed == Some(l.generation))
    }

    /// Whether the loaded design has a current-generation parametric
    /// table the read path may serve what-if queries from.
    fn param_settled(&self) -> bool {
        self.loaded
            .as_ref()
            .is_some_and(|l| matches!(&l.parametric, Some((g, _)) if *g == l.generation))
    }

    /// Whether a `batch` request can be answered under the read lock:
    /// every sub-request must be answerable without (re)analysis. A
    /// batch that fails to decode is also serveable — its error reply
    /// mutates nothing.
    fn batch_serveable(&self, req: &Frame) -> bool {
        match Self::decode_batch(req) {
            Err(_) => true,
            Ok(subs) => {
                let needs_report = subs
                    .iter()
                    .any(|f| matches!(f.verb.as_str(), "slack" | "worst-paths" | "dump"));
                let needs_param = subs
                    .iter()
                    .any(|f| matches!(f.verb.as_str(), "min-period" | "slack-at" | "period-sweep"));
                (!needs_report || self.settled()) && (!needs_param || self.param_settled())
            }
        }
    }

    /// Answers one request, mutating the session as needed. Every verb
    /// returns a structured reply; unknown or ill-formed requests earn
    /// an `error` frame, never a dropped connection.
    pub fn handle(&mut self, req: &Frame) -> Frame {
        self.metrics.count_write(&req.verb);
        let _handle = self.metrics.handle_span(&req.verb);
        let reply = self.dispatch(req);
        if reply.verb == "error" {
            self.metrics.error(reply.get("code").unwrap_or("unknown"));
        }
        reply
    }

    /// [`Session::handle`] without the request counting — journal
    /// replay rebuilds state through this so recovery does not inflate
    /// the request history it is restoring.
    pub(crate) fn handle_replay(&mut self, req: &Frame) -> Frame {
        self.dispatch(req)
    }

    fn dispatch(&mut self, req: &Frame) -> Frame {
        match req.verb.as_str() {
            "hello" | "stats" | "metrics" | "shutdown" | "dump" => self.dispatch_readonly(req),
            "load" => self.load(req),
            "analyze" => self.analyze(req),
            "constraints" => self.constraints(req),
            "slack" => {
                if let Some(reply) = self.ensure_analyzed().err() {
                    return reply;
                }
                self.slack(req)
            }
            "worst-paths" => {
                if let Some(reply) = self.ensure_analyzed().err() {
                    return reply;
                }
                self.worst_paths(req)
            }
            "eco" => self.eco(req),
            "min-period" | "slack-at" | "period-sweep" => {
                if let Some(reply) = self.ensure_parametric().err() {
                    return reply;
                }
                self.dispatch_readonly(req)
            }
            "batch" => self.batch_write(req),
            verb => err("unknown-verb", format!("unknown request verb `{verb}`")),
        }
    }

    /// The write-path `batch` entry: runs the implicit re-analysis any
    /// report-dependent sub-request needs, then serves the batch
    /// read-only. Batches stay out of the journal — the re-analysis is
    /// reconstructible from the journaled `load`/`analyze` history.
    fn batch_write(&mut self, req: &Frame) -> Frame {
        let (needs_report, needs_param) = match Self::decode_batch(req) {
            Err(reply) => return reply,
            Ok(subs) => (
                subs.iter()
                    .any(|f| matches!(f.verb.as_str(), "slack" | "worst-paths")),
                subs.iter()
                    .any(|f| matches!(f.verb.as_str(), "min-period" | "slack-at" | "period-sweep")),
            ),
        };
        if needs_report {
            if let Some(reply) = self.ensure_analyzed().err() {
                return reply;
            }
        }
        if needs_param {
            if let Some(reply) = self.ensure_parametric().err() {
                return reply;
            }
        }
        self.batch(req)
    }

    /// Decodes a batch payload into its sub-requests, enforcing the
    /// read-only verb set and [`MAX_BATCH`].
    fn decode_batch(req: &Frame) -> Result<Vec<Frame>, Frame> {
        let Some(payload) = req.payload.as_deref() else {
            return Err(err(
                "usage",
                "batch needs encoded sub-requests as its payload",
            ));
        };
        let mut decoder = hb_io::FrameDecoder::new();
        decoder.feed(payload.as_bytes());
        let mut subs = Vec::new();
        loop {
            match decoder.next_frame() {
                Ok(Some(sub)) => {
                    if subs.len() == MAX_BATCH {
                        return Err(err(
                            "limit",
                            format!("batch exceeds {MAX_BATCH} sub-requests"),
                        ));
                    }
                    subs.push(sub);
                }
                Ok(None) => break,
                Err(e) => return Err(err("usage", format!("bad batch sub-request: {e}"))),
            }
        }
        if decoder.finish().is_err() {
            return Err(err("usage", "batch payload ends inside a sub-request"));
        }
        if subs.is_empty() {
            return Err(err("usage", "batch carries no sub-requests"));
        }
        if let Some(sub) = subs
            .iter()
            .find(|f| !BATCH_VERBS.contains(&f.verb.as_str()))
        {
            return Err(err(
                "usage",
                format!("batch sub-request `{}` is not a read-only query", sub.verb),
            ));
        }
        Ok(subs)
    }

    /// Serves a decoded batch: each sub-request is answered in order
    /// and the encoded sub-replies ride back concatenated in one
    /// payload — one syscall round-trip for N queries. Sub-requests
    /// are tallied individually so batched traffic stays visible in
    /// the per-verb counters.
    fn batch(&self, req: &Frame) -> Frame {
        let subs = match Self::decode_batch(req) {
            Ok(subs) => subs,
            Err(reply) => return reply,
        };
        let mut body = String::new();
        let mut errors = 0usize;
        for sub in &subs {
            self.metrics.count_read(&sub.verb);
            let reply = self.dispatch_readonly(sub);
            if reply.verb == "error" {
                self.metrics.error(reply.get("code").unwrap_or("unknown"));
                errors += 1;
            }
            body.push_str(&reply.encode());
        }
        ok().arg("count", subs.len())
            .arg("errors", errors)
            .with_payload(body)
    }

    fn stats(&self) -> Frame {
        let mut reply = ok()
            .arg(
                "uptime_seconds",
                format!("{:.3}", self.started.elapsed().as_secs_f64()),
            )
            .arg("requests", self.metrics.requests_total())
            .arg("read_requests", self.metrics.read_total())
            .arg("write_requests", self.metrics.write_total())
            .arg("recoveries", self.metrics.recoveries.get())
            .arg("loads", self.loads)
            .arg("ecos", self.ecos)
            .arg("conn_buffer_bytes", self.metrics.buffer_bytes.get())
            .arg("conn_buffer_peak_bytes", self.metrics.buffer_bytes.peak());
        if let Some(l) = &self.loaded {
            let stats = l.cache.stats();
            reply = reply
                .arg("design", l.design.name())
                .arg("cached_items", l.cache.len())
                .arg("items_scheduled_total", stats.items_scheduled)
                .arg("items_reused_total", stats.items_reused)
                .arg("generation", l.generation)
                .arg("analyzed", u8::from(l.analyzed == Some(l.generation)));
        }
        reply
    }

    fn load(&mut self, req: &Frame) -> Frame {
        let Some(text) = req.payload.as_deref() else {
            return err("usage", "load needs the design text as payload");
        };
        if text.len() > MAX_LOAD_BYTES {
            return err(
                "limit",
                format!(
                    "design text is {} bytes; the session accepts at most {MAX_LOAD_BYTES}",
                    text.len()
                ),
            );
        }
        let format = req.get("format").unwrap_or("hum");
        let (design, clocks, timing) = match format {
            "hum" => match hb_io::parse_hum(text, &self.library) {
                Ok(file) => (file.design, file.clocks, file.timing),
                Err(e) => return err("parse", e),
            },
            "blif" => {
                let design = match hb_io::parse_blif(text, &self.library) {
                    Ok(d) => d,
                    Err(e) => return err("parse", e),
                };
                // BLIF carries no waveforms: clocks arrive as repeated
                // `clock=NAME:PERIOD:RISE:FALL` arguments.
                let mut clocks = ClockSet::new();
                for spec in req.get_all("clock") {
                    let parts: Vec<&str> = spec.split(':').collect();
                    let parsed = match parts.as_slice() {
                        [name, period, rise, fall] => {
                            match (period.parse(), rise.parse(), fall.parse()) {
                                (Ok(p), Ok(r), Ok(f)) => Some((*name, p, r, f)),
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    let Some((name, period, rise, fall)) = parsed else {
                        return err(
                            "usage",
                            format!("bad clock spec `{spec}` (want NAME:PERIOD:RISE:FALL)"),
                        );
                    };
                    if let Err(e) = clocks.add_clock(name, period, rise, fall) {
                        return err("usage", format!("bad clock `{spec}`: {e}"));
                    }
                }
                (design, clocks, Vec::new())
            }
            other => return err("usage", format!("unknown design format `{other}`")),
        };
        let Some(top) = design.top() else {
            return err("analysis", "the design has no `top` directive");
        };
        if let Err(e) = design.validate() {
            return err("analysis", format!("invalid design: {e}"));
        }
        let stats = design.stats(top);
        let reply = ok()
            .arg("design", design.name())
            .arg("cells", stats.cells)
            .arg("nets", stats.nets)
            .arg("clocks", clocks.len());
        self.loads += 1;
        self.loaded = Some(Loaded {
            design,
            top,
            clocks,
            timing,
            options: AnalysisOptions::default(),
            cache: SlackCache::new(),
            report: None,
            generation: 0,
            analyzed: None,
            with_constraints: false,
            parametric: None,
            prepared: None,
        });
        // Chaos hook: a panic here leaves the new design installed but
        // unacknowledged — recovery must roll back to the previous one.
        self.faults.maybe_panic(hb_fault::SESSION_LOAD_PANIC);
        reply
    }

    /// Applies `threads=` / `latch=` / `min-delays=` arguments to the
    /// loaded design's analysis options.
    fn apply_options(loaded: &mut Loaded, req: &Frame) -> Result<(), Frame> {
        let before = loaded.options;
        if let Some(v) = req.get("threads") {
            loaded.options.threads = v
                .parse()
                .map_err(|_| err("usage", format!("bad threads value `{v}`")))?;
        }
        if let Some(v) = req.get("latch") {
            loaded.options.latch_model = match v {
                "transparent" => LatchModel::Transparent,
                "edge" => LatchModel::EdgeTriggered,
                _ => return Err(err("usage", format!("bad latch model `{v}`"))),
            };
        }
        if let Some(v) = req.get("min-delays") {
            loaded.options.check_min_delays = match v {
                "0" => false,
                "1" => true,
                _ => return Err(err("usage", format!("bad min-delays flag `{v}`"))),
            };
        }
        if loaded.options != before {
            // The parametric table and the prepared state were built
            // under the old options.
            loaded.parametric = None;
            loaded.prepared = None;
        }
        Ok(())
    }

    /// Re-runs the analysis through the session cache. `constraints`
    /// selects Algorithm 2 on top of Algorithm 1. The analysis runs on
    /// the resident prepared state when it is current (an ECO leaves its
    /// patched state there), and on a cold preparation otherwise; the
    /// state stays resident afterward, tagged with the generation, when
    /// it was resident or with `keep`.
    fn reanalyze(&mut self, constraints: bool, keep: bool) -> Result<(), Frame> {
        let Some(loaded) = self.loaded.as_mut() else {
            return Err(err("no-design", "no design loaded"));
        };
        let (prep, resident) = loaded.open(&self.library)?;
        let analyzer = Analyzer::from_prepared(&loaded.design, &self.library, prep);
        let report = if constraints {
            analyzer.generate_constraints_with_cache(&mut loaded.cache)
        } else {
            analyzer.analyze_with_cache(&mut loaded.cache)
        };
        if resident || keep {
            loaded.prepared = Some((loaded.generation, analyzer.into_prepared()));
        }
        loaded.report = Some(report);
        loaded.analyzed = Some(loaded.generation);
        loaded.with_constraints = constraints;
        Ok(())
    }

    /// Makes sure a current report exists, running Algorithm 1 if the
    /// design changed since the last analysis.
    fn ensure_analyzed(&mut self) -> Result<(), Frame> {
        let stale = match &self.loaded {
            None => return Err(err("no-design", "no design loaded")),
            Some(l) => l.analyzed != Some(l.generation),
        };
        if stale {
            self.reanalyze(false, false)?;
        }
        Ok(())
    }

    /// Makes sure a current-generation parametric (what-if) table
    /// exists, running one symbolic analysis if the design changed
    /// since the last build. Once built, every `min-period` /
    /// `slack-at` / `period-sweep` on this generation is answered
    /// straight from the table — no engine sweeps. The build runs on
    /// the resident prepared state when it is current, and puts it
    /// back; otherwise on a cold preparation, which is not kept.
    fn ensure_parametric(&mut self) -> Result<(), Frame> {
        if self.param_settled() {
            return Ok(());
        }
        let Some(loaded) = self.loaded.as_mut() else {
            return Err(err("no-design", "no design loaded"));
        };
        let (prep, resident) = loaded.open(&self.library)?;
        let analyzer = Analyzer::from_prepared(&loaded.design, &self.library, prep);
        let table = analyzer.parametric();
        if resident {
            loaded.prepared = Some((loaded.generation, analyzer.into_prepared()));
        }
        let table = table.map_err(|e| err("analysis", e))?;
        loaded.parametric = Some((loaded.generation, table));
        Ok(())
    }

    /// The settled parametric table; callable only after
    /// `ensure_parametric` (write path) or `param_settled` (read path).
    fn parametric_table(&self) -> (&Loaded, &ParametricSlack) {
        let loaded = self.loaded.as_ref().expect("parametric before dispatch");
        let (_, table) = loaded
            .parametric
            .as_ref()
            .expect("parametric before dispatch");
        (loaded, table)
    }

    /// `min-period`: the smallest feasible overall period, solved
    /// directly from the piecewise-linear breakpoints of the symbolic
    /// table — no search, no sweeps.
    fn min_period(&self) -> Frame {
        let (_, param) = self.parametric_table();
        let (lo, hi) = param.domain();
        // `ok=` mirrors `feasible=` so `hummingbird query` maps an
        // infeasible design to exit code 1, like `analyze` does.
        let base = match param.min_feasible_period() {
            Some(p) => ok().arg("period", p).arg("feasible", 1).arg("ok", 1),
            None => ok().arg("feasible", 0).arg("ok", 0),
        };
        base.arg("stride", param.stride())
            .arg("lo", lo)
            .arg("hi", hi)
            .arg("regions", param.region_count())
            .arg("nominal", param.nominal_period())
    }

    /// `slack-at period=P [node=N]`: O(1) slack evaluation at an
    /// arbitrary grid period — bit-identical to a cold numeric
    /// analysis at that period, without running one.
    fn slack_at(&self, req: &Frame) -> Frame {
        let (loaded, param) = self.parametric_table();
        let Some(pstr) = req.get("period") else {
            return err(
                "usage",
                "slack-at needs period=P (e.g. 12ns, 12.5ns or 12500)",
            );
        };
        let Ok(period) = pstr.parse::<Time>() else {
            return err("usage", format!("bad period `{pstr}`"));
        };
        let worst = match param.worst_at(period) {
            Ok(w) => w,
            Err(e) => return err("period", e),
        };
        let Some(name) = req.get("node") else {
            let feasible = param.ok_at(period).expect("located above");
            return ok()
                .arg("period", period)
                .arg("worst", worst)
                .arg("ok", u8::from(feasible));
        };
        let module = loaded.design.module(loaded.top);
        if let Some(net) = module.net_by_name(name) {
            let slack = param.net_slack_at(period, net).expect("located above");
            return ok()
                .arg("node", name)
                .arg("kind", "net")
                .arg("period", period)
                .arg("slack", slack);
        }
        // Terminal slacks of a synchronising instance or boundary
        // port, mirroring the `slack` reply shape plus the period.
        let terminals = param.terminals();
        let rows = param.terminal_rows(name).iter().map(|&row| {
            let t = &terminals[row as usize];
            let slack = param
                .terminal_slack_at(period, row as usize)
                .expect("located above");
            (t.kind, t.pulse, slack)
        });
        let Some((slack, body)) = terminal_lines(rows) else {
            return err("unknown-node", format!("no net or terminal named `{name}`"));
        };
        ok().arg("node", name)
            .arg("kind", "terminal")
            .arg("period", period)
            .arg("slack", slack)
            .with_payload(body)
    }

    /// `period-sweep lo=A hi=B step=S`: batch-evaluates feasibility
    /// and worst slack across a period range in one frame. Each point
    /// is snapped to the parametric grid; consecutive points snapping
    /// to the same grid period collapse into one line.
    fn period_sweep(&self, req: &Frame) -> Frame {
        let (_, param) = self.parametric_table();
        let get_time = |key: &str| -> Result<Time, Frame> {
            let Some(v) = req.get(key) else {
                return Err(err("usage", "period-sweep needs lo=A hi=B step=S"));
            };
            v.parse::<Time>()
                .map_err(|_| err("usage", format!("bad {key} value `{v}`")))
        };
        let (lo, hi, step) = match (get_time("lo"), get_time("hi"), get_time("step")) {
            (Ok(lo), Ok(hi), Ok(step)) => (lo, hi, step),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return e,
        };
        if step <= Time::ZERO {
            return err("usage", "period-sweep step must be positive");
        }
        if lo > hi {
            return err("usage", "period-sweep needs lo <= hi");
        }
        let mut body = String::new();
        let mut count = 0usize;
        let mut worst_overall = Time::INF;
        let mut all_ok = true;
        let mut last = None;
        let mut p = lo;
        while p <= hi {
            let snapped = param.snap(p);
            if last != Some(snapped) {
                count += 1;
                if count > MAX_SWEEP_POINTS {
                    return err(
                        "limit",
                        format!("period-sweep exceeds {MAX_SWEEP_POINTS} grid points"),
                    );
                }
                let worst = param.worst_at(snapped).expect("snapped onto the grid");
                let feasible = param.ok_at(snapped).expect("snapped onto the grid");
                worst_overall = worst_overall.min(worst);
                all_ok &= feasible;
                body.push_str(&format!(
                    "period {snapped} worst {worst} ok {}\n",
                    u8::from(feasible)
                ));
                last = Some(snapped);
            }
            p = p.saturating_add(step);
        }
        ok().arg("count", count)
            .arg("ok", u8::from(all_ok))
            .arg("worst", worst_overall)
            .with_payload(body)
    }

    /// A reply summarising the current report: verdict, worst slack,
    /// cache reuse of the producing run, `capped=1` when a cycle cap
    /// stopped an algorithm (so the answer is not exact), and the
    /// human-readable report as payload.
    fn report_reply(&self) -> Frame {
        let report = self.last_report().expect("reanalyze succeeded");
        let stats = report.engine_stats();
        let mut reply = ok()
            .arg("ok", u8::from(report.ok()))
            .arg("worst", report.worst_slack())
            .arg("period", report.overall_period())
            .arg("items_reused", stats.items_reused)
            .arg("items_swept", stats.items_swept())
            .arg("seconds", format!("{:.6}", report.analysis_seconds()));
        if !report.capped().is_empty() {
            reply = reply.arg("capped", 1);
        }
        reply.with_payload(report.to_string())
    }

    fn analyze(&mut self, req: &Frame) -> Frame {
        if let Some(loaded) = self.loaded.as_mut() {
            if let Err(reply) = Self::apply_options(loaded, req) {
                return reply;
            }
        }
        if let Err(reply) = self.reanalyze(false, false) {
            return reply;
        }
        self.report_reply()
    }

    fn constraints(&mut self, req: &Frame) -> Frame {
        if let Some(loaded) = self.loaded.as_mut() {
            if let Err(reply) = Self::apply_options(loaded, req) {
                return reply;
            }
        }
        if let Err(reply) = self.reanalyze(true, false) {
            return reply;
        }
        let loaded = self.loaded.as_ref().expect("reanalyze succeeded");
        let report = loaded.report.as_ref().expect("reanalyze succeeded");
        let constraints = report.constraints().expect("generated with constraints");
        let module = loaded.design.module(loaded.top);
        let mut body = String::new();
        for (net, n) in module.nets() {
            if let (Some(r), Some(q)) = (constraints.ready_at(net), constraints.required_at(net)) {
                body.push_str(&format!("{} {} {}\n", n.name(), r, q));
            }
        }
        self.report_reply().with_payload(body)
    }

    fn slack(&self, req: &Frame) -> Frame {
        let Some(loaded) = &self.loaded else {
            return err("no-design", "no design loaded");
        };
        let report = loaded.report.as_ref().expect("analyzed before dispatch");
        let nodes: Vec<&str> = req.get_all("node").collect();
        match nodes.as_slice() {
            [] => err(
                "usage",
                "slack needs node=NAME (repeatable for a batched query)",
            ),
            [name] => Self::slack_one(loaded, report, name),
            names => {
                // Batched form: `slack node=A node=B ...` answers every
                // node in one frame — count, worst across the set, and
                // one `NAME kind SLACK` payload line per node, in
                // request order. Duplicate `node=` keys collapse to
                // their first occurrence, so `count` is the number of
                // *distinct* nodes answered and no payload line
                // repeats. One unresolvable name fails the whole
                // request; a partial answer would be ambiguous.
                let mut seen = HashSet::with_capacity(names.len());
                let unique: Vec<&str> = names
                    .iter()
                    .copied()
                    .filter(|name| seen.insert(*name))
                    .collect();
                let module = loaded.design.module(loaded.top);
                let terminals = report.terminal_slacks();
                let mut body = String::with_capacity(unique.len() * 24);
                let mut worst = None;
                for name in &unique {
                    let (kind, slack) = if let Some(net) = module.net_by_name(name) {
                        ("net", report.net_slack(net))
                    } else if let Some(s) = report
                        .terminal_rows(name)
                        .iter()
                        .map(|&row| terminals[row as usize].slack)
                        .min()
                    {
                        ("terminal", s)
                    } else {
                        return err("unknown-node", format!("no net or terminal named `{name}`"));
                    };
                    worst = Some(match worst {
                        None => slack,
                        Some(w) => slack.min(w),
                    });
                    let _ = writeln!(body, "{name} {kind} {slack}");
                }
                ok().arg("count", unique.len())
                    .arg("worst", worst.expect("names is non-empty"))
                    .with_payload(body)
            }
        }
    }

    /// The single-node `slack` reply — the original wire shape, kept
    /// bit-for-bit stable for existing clients and transcripts.
    fn slack_one(loaded: &Loaded, report: &TimingReport, name: &str) -> Frame {
        let module = loaded.design.module(loaded.top);
        if let Some(net) = module.net_by_name(name) {
            return ok()
                .arg("node", name)
                .arg("kind", "net")
                .arg("slack", report.net_slack(net));
        }
        // Terminal slacks of a synchronising instance or boundary port:
        // report the most critical one, list all in the payload.
        let terminals = report.terminal_slacks();
        let rows = report.terminal_rows(name).iter().map(|&row| {
            let t = &terminals[row as usize];
            (t.kind, t.pulse, t.slack)
        });
        let Some((slack, body)) = terminal_lines(rows) else {
            return err("unknown-node", format!("no net or terminal named `{name}`"));
        };
        ok().arg("node", name)
            .arg("kind", "terminal")
            .arg("slack", slack)
            .with_payload(body)
    }

    fn worst_paths(&self, req: &Frame) -> Frame {
        let Some(loaded) = &self.loaded else {
            return err("no-design", "no design loaded");
        };
        let report = loaded.report.as_ref().expect("analyzed before dispatch");
        let k: usize = match req.get("k").map(str::parse) {
            None => 5,
            Some(Ok(k)) => k,
            Some(Err(_)) => return err("usage", "bad k value"),
        };
        if k > MAX_WORST_PATHS {
            return err(
                "limit",
                format!("k={k} exceeds the worst-paths limit of {MAX_WORST_PATHS}"),
            );
        }
        let mut body = String::new();
        let mut count = 0usize;
        for path in report.slow_paths().iter().take(k) {
            count += 1;
            body.push_str(&format!(
                "path into {} slack {} ({} steps)\n",
                path.endpoint,
                path.slack,
                path.steps.len()
            ));
            for step in &path.steps {
                match &step.through {
                    Some(inst) => body.push_str(&format!(
                        "  -> {} via {} at {}\n",
                        step.net, inst, step.time
                    )),
                    None => body.push_str(&format!("  from {} at {}\n", step.net, step.time)),
                }
            }
        }
        ok().arg("count", count).with_payload(body)
    }

    fn eco(&mut self, req: &Frame) -> Frame {
        let op = match Self::parse_eco(req) {
            Ok(op) => op,
            Err(reply) => return reply,
        };
        let Some(loaded) = self.loaded.as_mut() else {
            return err("no-design", "no design loaded");
        };
        // The resident state leaves the session before the design
        // changes, and comes back only once the re-analysis succeeded:
        // an error or a panic anywhere in this ECO drops it, and the
        // next ECO prepares cold.
        let resident = loaded.take_prepared();
        let outcome = match apply_eco(&mut loaded.design, loaded.top, &self.library, &op) {
            Ok(outcome) => outcome,
            Err(e) => return err("eco", e),
        };
        loaded.generation += 1;
        self.ecos += 1;
        // Chaos hook: the worst place to die — the design is mutated
        // but not re-analyzed and the client never hears `ok`.
        self.faults.maybe_panic(hb_fault::SESSION_ECO_PANIC);
        // Patch the resident state to the edited design (the first ECO
        // after a load has none and prepares cold), then re-analyze
        // through the persistent cache: the reply's reuse counters are
        // the incremental-value measurement.
        let loaded = self.loaded.as_mut().expect("loaded above");
        let constraints = loaded.with_constraints;
        let patched = resident.and_then(|prep| {
            prep.patch(&loaded.design, &self.library, &loaded.clocks, outcome.edit)
        });
        loaded.prepared = patched.map(|prep| (loaded.generation, prep));
        if let Err(reply) = self.reanalyze(constraints, true) {
            return reply;
        }
        self.report_reply().arg("desc", outcome.description)
    }

    /// Decodes an `eco` request: `op=resize inst=I steps=N` or
    /// `op=scale-net net=X percent=P`.
    fn parse_eco(req: &Frame) -> Result<EcoOp, Frame> {
        match req.get("op") {
            Some("resize") => {
                let inst = req
                    .get("inst")
                    .ok_or_else(|| err("usage", "eco resize needs inst=NAME"))?;
                let steps = match req.get("steps").map(str::parse) {
                    None => 1,
                    Some(Ok(s)) => s,
                    Some(Err(_)) => return Err(err("usage", "bad steps value")),
                };
                Ok(EcoOp::RetargetDrive {
                    inst: inst.to_owned(),
                    steps,
                })
            }
            Some("scale-net") => {
                let net = req
                    .get("net")
                    .ok_or_else(|| err("usage", "eco scale-net needs net=NAME"))?;
                let percent = match req.get("percent").map(str::parse) {
                    None => return Err(err("usage", "eco scale-net needs percent=P")),
                    Some(Ok(p)) => p,
                    Some(Err(_)) => return Err(err("usage", "bad percent value")),
                };
                Ok(EcoOp::ScaleNetLoad {
                    net: net.to_owned(),
                    percent,
                })
            }
            Some(other) => Err(err("usage", format!("unknown eco op `{other}`"))),
            None => Err(err("usage", "eco needs op=resize|scale-net")),
        }
    }

    fn dump(&self) -> Frame {
        let Some(loaded) = &self.loaded else {
            return err("no-design", "no design loaded");
        };
        let text = hb_io::write_hum_with_timing(&loaded.design, &loaded.clocks, &loaded.timing);
        ok().arg("design", loaded.design.name()).with_payload(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;

    /// The resident prepared state is priced: `approx_resident_bytes`
    /// rises by its estimate after the first ECO (`analyze` keeps none)
    /// and falls back after `load`.
    #[test]
    fn resident_state_is_priced_from_the_first_eco_until_a_load() {
        let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
        let mut session = Session::new(sc89());
        let load = Frame::new("load").with_payload(text);
        assert_eq!(session.handle(&load).verb, "ok");
        let loaded = session.approx_resident_bytes();
        // Everything but the cache, whose content an analysis changes.
        let uncached = |s: &Session| {
            let cache = s.loaded.as_ref().unwrap().cache.approx_bytes();
            s.approx_resident_bytes() - cache
        };
        assert_eq!(session.handle(&Frame::new("analyze")).verb, "ok");
        assert!(session.loaded.as_ref().unwrap().prepared.is_none());
        let analyzed = uncached(&session);
        assert_eq!(analyzed, loaded);

        let eco = Frame::new("eco").arg("op", "resize").arg("inst", "b0");
        let reply = session.handle(&eco.clone().arg("steps", 1));
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        let (_, prep) = session.loaded.as_ref().unwrap().prepared.as_ref().unwrap();
        assert!(prep.approx_bytes() > 0);
        assert_eq!(uncached(&session), analyzed + prep.approx_bytes());
        // A patched state is priced alike.
        let reply = session.handle(&eco.arg("steps", -1));
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        assert!(uncached(&session) > analyzed);

        assert_eq!(session.handle(&load).verb, "ok");
        assert_eq!(session.approx_resident_bytes(), loaded);
    }

    /// A what-if build after ECOs runs on the resident prepared state
    /// and puts it back: the session's price does not move, and the
    /// table is a fresh session's table for the edited design.
    #[test]
    fn what_if_after_ecos_runs_on_the_resident_state() {
        let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
        let mut session = Session::new(sc89());
        assert_eq!(
            session.handle(&Frame::new("load").with_payload(text)).verb,
            "ok"
        );
        let ecos = [
            Frame::new("eco").arg("op", "resize").arg("inst", "b0"),
            (Frame::new("eco").arg("op", "scale-net"))
                .arg("net", "b0y")
                .arg("percent", 150),
        ];
        for eco in &ecos {
            let reply = session.handle(eco);
            assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        }
        let priced = session.approx_resident_bytes();
        let warm = session.handle(&Frame::new("min-period"));
        assert_eq!(warm.verb, "ok", "{:?}", warm.payload);
        assert_eq!(session.approx_resident_bytes(), priced);
        let loaded = session.loaded.as_ref().unwrap();
        let (generation, _) = loaded.prepared.as_ref().expect("the state went back");
        assert_eq!(*generation, loaded.generation);

        let dump = session.handle(&Frame::new("dump")).payload.unwrap();
        let mut fresh = Session::new(sc89());
        assert_eq!(
            fresh.handle(&Frame::new("load").with_payload(dump)).verb,
            "ok"
        );
        assert_eq!(fresh.handle(&Frame::new("min-period")), warm);
        let ((_, warm), (_, cold)) = (session.parametric_table(), fresh.parametric_table());
        assert_eq!(warm.domain(), cold.domain());
        assert_eq!(warm.region_count(), cold.region_count());
        let nominal = warm.nominal_period();
        assert_eq!(warm.terminals().len(), cold.terminals().len());
        for (row, (w, c)) in warm.terminals().iter().zip(cold.terminals()).enumerate() {
            assert_eq!((w.kind, &w.name, w.pulse), (c.kind, &c.name, c.pulse));
            let slack = |t: &ParametricSlack| t.terminal_slack_at(nominal, row).unwrap();
            assert_eq!(slack(warm), slack(cold), "terminal {}", w.name);
        }
    }

    /// `capped=1` appears on a reply exactly when a cycle cap stopped
    /// an algorithm, so uncapped replies keep their old bytes.
    #[test]
    fn replies_say_capped_only_when_a_cap_fired() {
        let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
        let mut session = Session::new(sc89());
        let load = session.handle(&Frame::new("load").with_payload(text));
        assert_eq!(load.verb, "ok", "{:?}", load.payload);
        let exact = session.handle(&Frame::new("constraints"));
        assert_eq!(exact.verb, "ok", "{:?}", exact.payload);
        assert_eq!(exact.get("capped"), None);
        let exact = session.handle(&Frame::new("analyze"));
        assert_eq!(exact.get("capped"), None);
        assert!(!exact.payload.unwrap().contains("capped"));

        // One complete transfer cycle is all this design's Algorithm 1
        // makes; a cap of one stops it there.
        session.loaded.as_mut().unwrap().options.max_cycles = 1;
        for verb in ["analyze", "constraints"] {
            let reply = session.handle(&Frame::new(verb));
            assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
            assert_eq!(reply.get("capped"), Some("1"), "{verb}: {:?}", reply.args);
        }
        // The report footer (the `analyze` payload) names the algorithm.
        let reply = session.handle(&Frame::new("analyze"));
        let payload = reply.payload.unwrap();
        assert!(payload.contains("capped: algorithm 1"), "{payload}");
    }
}
