//! The daemon's shared state and request routing, the stdio loop for
//! test harnesses, and a small blocking client. The TCP transport
//! itself is the `poll(2)` event loop in [`reactor`](crate::reactor).
//!
//! Requests route over a keyed [`Fleet`](crate::fleet) of design
//! sessions, each behind its own `RwLock`, on their `design=`
//! argument. [`route`] answers on the spot whatever needs no write
//! lock: fleet-management and replication verbs, fenced writes, and
//! read-only queries of a settled analysis whose read lock is free.
//! Everything else is a [`WriteJob`] for that design's write path,
//! [`serve_write`]: the event loop hands it to the design's worker
//! thread, the stdio loop runs it inline. A job still queued when its
//! `lock_deadline` expires is answered `error code=busy` and never
//! run.
//!
//! The write path is panic-isolated: a request that panics mid-mutation
//! is answered with `error code=internal` and the session is rebuilt
//! from the write-ahead [`Journal`](crate::Journal) (see
//! [`journal`](crate::journal)), warm through the salvaged slack cache.
//! Should a panic nonetheless escape and poison the lock, the next
//! writer claims the guard ([`PoisonError::into_inner`]), clears the
//! poison, and runs the same recovery — the daemon never answers
//! `poisoned` and never bricks.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hb_cells::Library;
use hb_fault::FaultPlan;
use hb_io::{write_frame, Frame, FrameReader, ProtoError};
use hb_obs::Span;
use hb_rng::SmallRng;

use crate::fleet::{DesignSlot, Fleet, DEFAULT_DESIGN};
use crate::journal;
use crate::metrics::Metrics;
use crate::replica;

/// Transport tuning. The defaults suit an interactive daemon; tests
/// shrink the deadlines to keep the chaos suite fast.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// How long one request may wait for the session lock before it is
    /// answered with `error code=busy`.
    pub lock_deadline: Duration,
    /// How long a started frame may take to arrive in full before the
    /// connection is cut off (anti-slowloris).
    pub frame_deadline: Duration,
    /// How long a connection may sit between frames before it is
    /// reaped.
    pub idle_timeout: Duration,
    /// How long pending replies may sit unwritten before the
    /// connection is cut off.
    pub write_timeout: Duration,
    /// Concurrent-connection cap; excess clients are shed at accept
    /// with `error code=busy retry_after_ms=N`.
    pub max_connections: usize,
    /// The retry hint (milliseconds) carried by shed and lock-deadline
    /// `busy` errors.
    pub retry_after_ms: u64,
    /// Fault-injection schedule threaded into the session and every
    /// accepted socket's reads and writes. [`FaultPlan::none`] (the
    /// default) makes every hook a no-op.
    pub faults: FaultPlan,
    /// How many design sessions may stay resident at once; the
    /// least-recently-used one past this is evicted to its journal.
    pub max_designs: usize,
    /// Combined approximate resident-session footprint the LRU policy
    /// keeps the fleet under, in bytes. 0 = unlimited.
    pub mem_budget: usize,
    /// When set, this daemon runs as a warm standby of the node at the
    /// given address (primary or another standby — standbys serve the
    /// replication verbs too, so chains work): the node loop streams
    /// every design's journal over `repl-state`/`repl-pull` and
    /// replays it into shadow sessions. After
    /// [`ServerOptions::promote_after`] consecutive sync failures the
    /// standby either promotes unilaterally (no
    /// [`ServerOptions::peers`]) or runs a ranked quorum election.
    pub standby_of: Option<String>,
    /// How long the node loop waits between sync rounds (and between
    /// a clustered primary's gossip probes).
    pub sync_interval: Duration,
    /// Consecutive failed sync rounds after which a standby declares
    /// its upstream dead and seeks promotion.
    pub promote_after: u32,
    /// The other nodes of this replication cluster, as `host:port`
    /// listen addresses (exclude this node's own). Empty (the default)
    /// keeps the PR-7 behaviour: a lone standby promotes unilaterally.
    /// Non-empty arms the quorum machinery: promotion requires `vote`
    /// grants from a majority of `peers.len() + 1` nodes, a primary
    /// gossips its term to peers and demotes when it sees a higher
    /// one, and a standby that loses its upstream probes the peers for
    /// the new primary instead of promoting on its own.
    pub peers: Vec<String>,
    /// Page-size bound (bytes of entry-frame payload) a standby
    /// requests per `repl-pull`, and the bound this node applies when
    /// serving a pull with no explicit `max=`. Clamped to
    /// [`crate::replica::MAX_STREAM_BYTES`].
    pub repl_page_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            lock_deadline: Duration::from_secs(30),
            frame_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(600),
            write_timeout: Duration::from_secs(10),
            max_connections: 64,
            retry_after_ms: 100,
            faults: FaultPlan::none(),
            max_designs: 64,
            mem_budget: 0,
            standby_of: None,
            sync_interval: Duration::from_millis(200),
            promote_after: 3,
            peers: Vec::new(),
            repl_page_bytes: replica::MAX_STREAM_BYTES,
        }
    }
}

impl ServerOptions {
    /// The event loop's poll timeout: deadlines are enforced by a
    /// sweep once per tick, so the grain is a fraction of the tightest
    /// deadline, bounded to stay responsive without spinning.
    pub(crate) fn poll_grain(&self) -> Duration {
        (self.frame_deadline.min(self.idle_timeout) / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(250))
    }
}

/// Poison-tolerant mutex lock: the daemon's auxiliary state (journal,
/// node control, worker queues) stays usable even if a holder
/// panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the event loop, the design workers and the stdio loop
/// share: the design fleet, the metrics, and the node control state.
pub(crate) struct Shared {
    /// The keyed design-session table every request routes through.
    pub(crate) fleet: Fleet,
    /// The fleet-wide metrics instance, shared so the transport can
    /// record lock-wait/handle latency, wire bytes and connection
    /// churn without taking any session lock.
    pub(crate) metrics: Arc<Metrics>,
    /// The library recoveries and reloads replay against.
    pub(crate) library: Library,
    pub(crate) options: ServerOptions,
    /// Role, fencing term, upstream and vote ledger — the node's
    /// replication control state (see [`crate::replica`]).
    pub(crate) node: Mutex<replica::NodeCtl>,
}

impl Shared {
    /// The transport-independent daemon state: a fleet with the
    /// default design open, fresh metrics, and `options` applied.
    pub(crate) fn new(library: Library, options: ServerOptions) -> Shared {
        let metrics = Arc::new(Metrics::new());
        let fleet = Fleet::new(
            library.clone(),
            Arc::clone(&metrics),
            options.faults.clone(),
            options.max_designs,
            options.mem_budget,
        );
        let node = replica::NodeCtl::new(&options);
        metrics.term.set(node.term as i64);
        Shared {
            fleet,
            metrics,
            library,
            options,
            node: Mutex::new(node),
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] consumes it and
/// blocks until a client requests `shutdown`.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares a
    /// fresh session over `library`, wired to `options.faults`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        library: Library,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut shared = Shared::new(library, options);
        if let Ok(addr) = listener.local_addr() {
            // The listen address doubles as the node id: peers address
            // a node by it, and elections tiebreak on it.
            shared
                .node
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .id = addr.to_string();
        }
        Ok(Server {
            listener,
            shared: Arc::new(shared),
        })
    }

    /// Mutable access to the options of a bound, not-yet-running
    /// server — `None` once `run` has started (the state is shared
    /// with the design workers from then on). Tests use this to bind a
    /// whole cluster on ephemeral ports first and wire each node's
    /// `peers`/`standby_of` to the resulting addresses afterwards.
    pub fn options_mut(&mut self) -> Option<&mut ServerOptions> {
        Arc::get_mut(&mut self.shared).map(|shared| &mut shared.options)
    }

    /// The bound address — needed when binding port 0.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

/// Where [`route`] sent a request.
pub(crate) enum Routed {
    /// Answered on the spot.
    Reply(Frame),
    /// Needs its design's write path ([`serve_write`]).
    Write(WriteJob),
}

/// A request bound for one design's write path.
pub(crate) struct WriteJob {
    pub(crate) slot: Arc<DesignSlot>,
    req: Frame,
    /// Past this instant the job is answered `busy` instead of run.
    deadline: Instant,
    /// The lock-wait span, still open unless the read path already
    /// held (and stopped) it.
    lock_wait: Option<Span>,
}

impl WriteJob {
    /// Whether the job's lock deadline has passed.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        now >= self.deadline
    }
}

/// The reply to a job whose lock deadline passed before it ran.
pub(crate) fn busy(shared: &Shared) -> Frame {
    Frame::new("error")
        .arg("code", "busy")
        .arg("retry_after_ms", shared.options.retry_after_ms)
        .with_payload("session lock deadline exceeded")
}

/// Routes a request: the fleet-management and replication verbs are
/// answered at the transport itself, anything else goes to its design
/// slot (the `design=` argument, the default design when absent),
/// where a read-only query of a settled analysis is answered under
/// the read lock if that lock is free. Whatever remains — writes,
/// unsettled reads, a held, poisoned or evicted slot — becomes a
/// [`WriteJob`].
///
/// Mutations are fenced first: a node that is not the primary of its
/// term rejects every state-changing verb with `error code=fenced
/// term=N`, so a zombie ex-primary can never accept a write its
/// cluster did not agree to. `stats` and `designs` replies are
/// annotated with the node's `role=`/`term=` on the way out.
pub(crate) fn route(shared: &Shared, req: Frame) -> Routed {
    if let Some(denied) = replica::fence(shared, &req) {
        shared.metrics.count_write(&req.verb);
        shared.metrics.fenced_writes.inc();
        shared.metrics.error(denied.get("code").unwrap_or("fenced"));
        return Routed::Reply(denied);
    }
    let reply = match req.verb.as_str() {
        "open" | "close" => counted(shared, &req, false, || shared.fleet.manage(&req)),
        "designs" => replica::annotate(
            shared,
            counted(shared, &req, true, || shared.fleet.manage(&req)),
        ),
        "repl-state" => counted(shared, &req, true, || replica::repl_state(shared, &req)),
        "repl-pull" => counted(shared, &req, true, || replica::repl_pull(shared, &req)),
        "vote" => counted(shared, &req, false, || replica::vote(shared, &req)),
        _ => return route_to_slot(shared, req),
    };
    Routed::Reply(reply)
}

fn route_to_slot(shared: &Shared, req: Frame) -> Routed {
    let id = req.get("design").unwrap_or(DEFAULT_DESIGN);
    let slot = match shared.fleet.route(id) {
        Ok(slot) => slot,
        Err(reply) => {
            // The session never sees this request; count it here so
            // the per-verb totals stay complete.
            shared.metrics.count_write(&req.verb);
            shared.metrics.error(reply.get("code").unwrap_or("unknown"));
            return Routed::Reply(reply);
        }
    };
    shared.metrics.design_request(&slot.id);
    // The latency split: lock-wait runs from here until whichever lock
    // actually serves the request is held (a `busy` reply records the
    // full wait it burned), and records exactly one sample; the
    // session records handle time itself. The span is inert unless the
    // process is armed.
    let mut lock_wait = Some(shared.metrics.lock_wait_span(&req.verb));
    // An evicted design has nothing to serve read-only, and suspect
    // (poisoned) state is never served read-only: the write path
    // reloads or recovers either first.
    if slot.resident.load(Ordering::Acquire) {
        if let Ok(session) = slot.session.try_read() {
            if session.serves_readonly(&req) {
                drop(lock_wait.take());
                // A read-path panic falls through: the write path re-runs
                // the request with recovery armed.
                if let Ok(Some(reply)) =
                    catch_unwind(AssertUnwindSafe(|| session.handle_readonly(&req)))
                {
                    return Routed::Reply(annotate_stats(shared, &req, reply));
                }
            }
        }
    }
    Routed::Write(WriteJob {
        slot,
        req,
        deadline: Instant::now() + shared.options.lock_deadline,
        lock_wait,
    })
}

/// `stats` replies carry the node's `role=`/`term=`.
fn annotate_stats(shared: &Shared, req: &Frame, reply: Frame) -> Frame {
    if req.verb == "stats" {
        replica::annotate(shared, reply)
    } else {
        reply
    }
}

/// Counts and times a verb the transport answers without a session —
/// the fleet-management and replication verbs — mirroring the
/// counting [`Session::handle`](crate::Session::handle) does for
/// session verbs.
fn counted(shared: &Shared, req: &Frame, read: bool, f: impl FnOnce() -> Frame) -> Frame {
    if read {
        shared.metrics.count_read(&req.verb);
    } else {
        shared.metrics.count_write(&req.verb);
    }
    let _span = shared.metrics.handle_span(&req.verb);
    let reply = f();
    if reply.verb == "error" {
        shared.metrics.error(reply.get("code").unwrap_or("unknown"));
    }
    reply
}

/// Serves one job on its design's write lock. The request is
/// panic-isolated and journal-recovered; an evicted design is first
/// reloaded from its journal, and a poisoned lock is reclaimed,
/// cleared and recovered — never surfaced to the client. Blocks only
/// on locks whose holders finish promptly: the design's writes are
/// serialised by its one worker, so the write lock is free but for
/// the event loop's read path and replication replay.
pub(crate) fn serve_write(shared: &Shared, job: WriteJob) -> Frame {
    if job.expired(Instant::now()) {
        return busy(shared);
    }
    let WriteJob {
        slot,
        req,
        lock_wait,
        ..
    } = job;
    let (mut session, poisoned) = match slot.session.write() {
        Ok(session) => (session, false),
        Err(e) => (e.into_inner(), true),
    };
    drop(lock_wait);
    if poisoned {
        // A panic escaped a previous writer: clear the poison and
        // rebuild the session from the journal before serving.
        slot.session.clear_poison();
        let _ = journal::recover(&mut session, &lock(&slot.journal), &shared.library);
    } else {
        if !slot.resident.load(Ordering::Acquire) {
            shared
                .fleet
                .reload(&slot, &mut session, &lock(&slot.journal));
        }
        if session.faults().fires(hb_fault::NET_UNWIND_ESCAPE) {
            // Deliberately unguarded: the chaos suite uses this to let
            // an injected panic escape the session guard and genuinely
            // poison the lock.
            return session.handle(&req);
        }
    }
    let reply = journal::handle_recovering(&mut session, &slot.journal, &shared.library, &req);
    drop(session);
    shared.fleet.settle(&slot);
    annotate_stats(shared, &req, reply)
}

/// Serves a design fleet over arbitrary byte streams — the `--stdio`
/// mode test harnesses drive. Single-threaded: requests are answered
/// in order until `shutdown`, end-of-input, or an unrecoverable
/// protocol error. Routing, panic isolation and journal recovery
/// match the TCP path exactly — both go through `route` and
/// `serve_write`, this loop simply running write jobs inline — so
/// a stdio transcript and a TCP transcript answer byte-identically.
///
/// # Errors
///
/// Propagates write failures on `output`; read-side protocol errors
/// are answered in-band and only unrecoverable ones end the loop.
pub fn serve_stream(
    library: Library,
    input: impl io::BufRead,
    output: &mut impl io::Write,
) -> io::Result<()> {
    let shared = Shared::new(library, ServerOptions::default());
    let mut requests = FrameReader::new(input);
    loop {
        match requests.read_frame() {
            Ok(Some(req)) => {
                let stop = req.verb == "shutdown";
                let reply = match route(&shared, req) {
                    Routed::Reply(reply) => reply,
                    Routed::Write(job) => serve_write(&shared, job),
                };
                write_frame(output, &reply)?;
                if stop && reply.verb == "ok" {
                    return Ok(());
                }
            }
            Ok(None) => return Ok(()),
            Err(ProtoError::Io(e)) => return Err(e),
            Err(e) => {
                let reply = Frame::new("error")
                    .arg("code", "proto")
                    .with_payload(e.to_string());
                write_frame(output, &reply)?;
                if !e.recoverable() {
                    return Ok(());
                }
            }
        }
    }
}

/// A blocking request/reply client for the daemon protocol.
pub struct Client {
    requests: TcpStream,
    replies: FrameReader<BufReader<TcpStream>>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Ok(Client {
            requests: stream,
            replies: FrameReader::new(BufReader::new(read_half)),
        })
    }

    /// Wraps an already-connected stream (the replication control
    /// plane connects with a bounded `connect_timeout` first).
    pub(crate) fn from_stream(stream: TcpStream) -> io::Result<Client> {
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Ok(Client {
            requests: stream,
            replies: FrameReader::new(BufReader::new(read_half)),
        })
    }

    /// Applies a read/write deadline to the connection (`None` blocks
    /// forever, the default). With a deadline set, [`Client::request`]
    /// fails with a `WouldBlock`/`TimedOut` I/O error instead of
    /// hanging on a stalled daemon.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.requests.set_read_timeout(timeout)?;
        self.requests.set_write_timeout(timeout)
    }

    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] on transport failure or a malformed
    /// reply; [`ProtoError::Truncated`] when the server closed without
    /// replying.
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, ProtoError> {
        write_frame(&mut self.requests, frame)?;
        self.replies.read_frame()?.ok_or(ProtoError::Truncated)
    }

    /// Sends every request back to back in one write, then collects
    /// the replies in order — request pipelining. One syscall round
    /// trip carries the whole window, which is where the daemon's
    /// throughput headroom lives (see `server_bench`).
    ///
    /// Callers bound the window: replies to a window larger than the
    /// combined socket buffers can deadlock a server that stops
    /// reading while its reply queue is full. A few hundred small
    /// requests per window is safely under that on every platform.
    ///
    /// # Errors
    ///
    /// The first transport or decode failure; [`ProtoError::Truncated`]
    /// when the server closed before answering the full window.
    pub fn request_pipelined(&mut self, frames: &[Frame]) -> Result<Vec<Frame>, ProtoError> {
        use std::io::Write;
        let mut wire = String::new();
        for f in frames {
            wire.push_str(&f.encode());
        }
        self.requests
            .write_all(wire.as_bytes())
            .map_err(ProtoError::Io)?;
        self.requests.flush().map_err(ProtoError::Io)?;
        frames
            .iter()
            .map(|_| self.replies.read_frame()?.ok_or(ProtoError::Truncated))
            .collect()
    }

    /// One request with overload-aware retry: reconnects per attempt,
    /// honours the server's `retry_after_ms` hint on `busy` replies,
    /// and backs off with seeded decorrelated jitter (see `Backoff`)
    /// on connect or transport failures. Returns the first conclusive
    /// reply; the last attempt's outcome — even `busy` — is returned
    /// as-is.
    ///
    /// The jitter seed is drawn from the clock and the process id, so
    /// a fleet of clients shed with the same `retry_after_ms` hint
    /// desynchronises instead of stampeding back in lockstep. Use
    /// [`Client::request_with_backoff_seeded`] when a test needs the
    /// retry schedule to be reproducible.
    ///
    /// # Errors
    ///
    /// The last attempt's transport error, when every attempt failed.
    pub fn request_with_backoff(
        addr: impl ToSocketAddrs + Clone,
        frame: &Frame,
        attempts: u32,
    ) -> Result<Frame, ProtoError> {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let seed = clock ^ (u64::from(std::process::id()) << 32);
        Client::request_with_backoff_seeded(addr, frame, attempts, seed)
    }

    /// [`Client::request_with_backoff`] with an explicit jitter seed.
    /// Two clients with different seeds retry on diverging schedules;
    /// the same seed reproduces the schedule exactly.
    ///
    /// # Errors
    ///
    /// The last attempt's transport error, when every attempt failed.
    pub fn request_with_backoff_seeded(
        addr: impl ToSocketAddrs + Clone,
        frame: &Frame,
        attempts: u32,
        seed: u64,
    ) -> Result<Frame, ProtoError> {
        let attempts = attempts.max(1);
        let mut backoff = Backoff::new(seed);
        for attempt in 1..=attempts {
            let last = attempt == attempts;
            let outcome = Client::connect(addr.clone())
                .map_err(ProtoError::Io)
                .and_then(|mut client| client.request(frame));
            match outcome {
                Ok(reply)
                    if !last && reply.verb == "error" && reply.get("code") == Some("busy") =>
                {
                    let hint = reply
                        .get("retry_after_ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_millis);
                    thread::sleep(backoff.next_wait(hint));
                }
                Ok(reply) => return Ok(reply),
                Err(e) if last => return Err(e),
                Err(_) => thread::sleep(backoff.next_wait(None)),
            }
        }
        unreachable!("the final attempt returns")
    }
}

/// Decorrelated-jitter retry delays.
///
/// The old schedule — 50 ms doubling, capped at 2 s — was fully
/// deterministic, so every client shed with the same `retry_after_ms`
/// hint slept the same delay and stampeded back into the same accept
/// queue together, re-shedding each other indefinitely. Each wait here
/// is instead drawn uniformly from `[base, 3 × previous]` (clamped to
/// `[base, cap]`, the "decorrelated jitter" scheme): the expected wait
/// still grows geometrically under repeated failure, but two clients
/// with different seeds spread out instead of colliding. A server
/// `retry_after_ms` hint acts as a floor for that wait, never a fixed
/// value every client obeys identically.
///
/// The standby reconnect loop reuses the same walk with its own
/// bounds ([`Backoff::with_bounds`]): a standby whose upstream died
/// retries on a jittered, growing schedule instead of hammering the
/// dead address every sync interval, and two standbys with different
/// seeds probe on diverging schedules.
pub(crate) struct Backoff {
    rng: SmallRng,
    prev: Duration,
    base: Duration,
    cap: Duration,
}

impl Backoff {
    pub(crate) fn new(seed: u64) -> Backoff {
        Backoff::with_bounds(seed, Duration::from_millis(50), Duration::from_secs(2))
    }

    /// A walk over `[base, cap]` — the reconnect flavour, where the
    /// base is the sync interval rather than the client retry floor.
    pub(crate) fn with_bounds(seed: u64, base: Duration, cap: Duration) -> Backoff {
        let base = base.max(Duration::from_millis(1));
        Backoff {
            rng: SmallRng::seed_from_u64(seed),
            prev: base,
            base,
            cap: cap.max(base),
        }
    }

    /// Forgets accumulated growth: the next wait draws from the first
    /// step's range again. Called after a success so one blip does not
    /// leave the reconnect loop crawling.
    pub(crate) fn reset(&mut self) {
        self.prev = self.base;
    }

    /// The next wait: jittered off the previous one, floored by the
    /// server's retry hint when present.
    pub(crate) fn next_wait(&mut self, hint: Option<Duration>) -> Duration {
        let lo = self.base.as_millis() as usize;
        let hi = (self.prev.as_millis() as usize)
            .saturating_mul(3)
            .clamp(lo + 1, self.cap.as_millis() as usize);
        self.prev = Duration::from_millis(self.rng.gen_range(lo..hi) as u64);
        self.prev.max(hint.unwrap_or(Duration::ZERO)).min(self.cap)
    }
}

/// The exact reconnect-wait schedule a standby with `sync_interval`
/// draws from `seed` — the first `rounds` waits of the decorrelated
/// jitter walk the node loop waits out between failed sync rounds. Exposed so tests can pin that two seeds diverge (two
/// standbys must not retry a dead primary in lockstep) and that every
/// wait stays within `[interval, 8 × interval]`.
pub fn standby_backoff_schedule(seed: u64, interval: Duration, rounds: usize) -> Vec<Duration> {
    let mut backoff = Backoff::with_bounds(seed, interval, interval.saturating_mul(8));
    (0..rounds).map(|_| backoff.next_wait(None)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_desynchronises_seeds() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed);
            (0..8)
                .map(|_| b.next_wait(Some(Duration::from_millis(100))))
                .collect()
        };
        assert_eq!(schedule(1), schedule(1), "same seed, same schedule");
        assert_ne!(
            schedule(1),
            schedule(2),
            "different seeds must diverge or shed clients stampede together"
        );
        for wait in schedule(7) {
            assert!(wait >= Duration::from_millis(100), "hint is a floor");
            assert!(wait <= Duration::from_secs(2), "cap bounds every wait");
        }
    }

    #[test]
    fn backoff_grows_toward_the_cap() {
        let mut b = Backoff::new(42);
        let first = b.next_wait(None);
        assert!(first >= Duration::from_millis(50));
        // Drive it hard: the jittered walk must stay within [base, cap]
        // forever and reach beyond the first step's range eventually.
        let mut seen_growth = false;
        for _ in 0..200 {
            let w = b.next_wait(None);
            assert!((Duration::from_millis(50)..=Duration::from_secs(2)).contains(&w));
            if w > Duration::from_millis(150) {
                seen_growth = true;
            }
        }
        assert!(seen_growth, "expected waits beyond 3x base over 200 draws");
    }
}
