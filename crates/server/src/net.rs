//! Transports for the resident session: a concurrent TCP daemon, a
//! single-threaded stdio loop for test harnesses, and a small blocking
//! client.
//!
//! The TCP server is thread-per-connection over a keyed
//! [`Fleet`](crate::fleet) of design sessions, each behind its own
//! `RwLock`: requests route on their `design=` argument, read-only
//! queries of a settled analysis run concurrently, and anything that
//! may mutate (load, analyze, eco) serialises on that design's write
//! lock only — tenants never contend with each other. Lock
//! acquisition polls with a per-request deadline so a long-running
//! analysis degrades concurrent requests into structured `busy`
//! errors instead of unbounded stalls.
//!
//! The write path is panic-isolated: a request that panics mid-mutation
//! is answered with `error code=internal` and the session is rebuilt
//! from the write-ahead [`Journal`](crate::Journal) (see
//! [`journal`](crate::journal)), warm through the salvaged slack cache.
//! Should a panic nonetheless escape and poison the lock, the next
//! writer claims the guard ([`PoisonError::into_inner`]), clears the
//! poison, and runs the same recovery — the daemon never answers
//! `poisoned` and never bricks.
//!
//! Sockets carry deadlines. Reads poll on a short grain so a
//! connection trickling a frame one byte at a time (slowloris) is cut
//! off at `frame_deadline`, a silent one is reaped at `idle_timeout`,
//! and writes give up after `write_timeout`. An accept-side connection
//! cap sheds excess clients with `error code=busy retry_after_ms=N`;
//! [`Client::request_with_backoff`] honours that hint.
//!
//! Teardown is cooperative: `shutdown` flips a flag, closes the read
//! half of every connection (idle readers see EOF; in-flight replies
//! still flush over the untouched write halves), pokes the listener
//! loose with a loopback connection, and `run` then joins every
//! connection thread before returning — requests that were already
//! being served complete and their replies are flushed.
//! Peers that vanish mid-reply surface as ordinary write errors (Rust
//! ignores `SIGPIPE`), which close that connection only.

use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread;
use std::time::{Duration, Instant};

use hb_cells::Library;
use hb_fault::{FaultPlan, FaultStream};
use hb_io::{write_frame, Frame, FrameReader, ProtoError};
use hb_obs::{CountingReader, CountingWriter};
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
    /// Socket write timeout for replies.
    pub write_timeout: Duration,
    /// Concurrent-connection cap; excess clients are shed at accept
    /// with `error code=busy retry_after_ms=N`.
    pub max_connections: usize,
    /// The retry hint (milliseconds) carried by shed and lock-deadline
    /// `busy` errors.
    pub retry_after_ms: u64,
    /// Fault-injection schedule threaded into the session and both
    /// halves of every accepted socket. [`FaultPlan::none`] (the
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
    /// How long the standby sync thread sleeps between sync rounds.
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
    /// The socket read timeout: deadlines are enforced by polling, so
    /// the grain is a fraction of the tightest deadline, bounded to
    /// stay responsive without spinning.
    pub(crate) fn poll_grain(&self) -> Duration {
        (self.frame_deadline.min(self.idle_timeout) / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(250))
    }
}

/// Poison-tolerant mutex lock: the daemon's auxiliary state (journal,
/// connection registry) stays usable even if a holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything both transports (thread-per-connection and the reactor)
/// share: the design fleet, the metrics, and the shutdown/shedding
/// state.
pub(crate) struct Shared {
    /// The keyed design-session table every request routes through.
    pub(crate) fleet: Fleet,
    /// The fleet-wide metrics instance, shared so the transport can
    /// record lock-wait/handle latency, wire bytes and connection
    /// churn without taking any session lock.
    pub(crate) metrics: Arc<Metrics>,
    /// The library recoveries and reloads replay against.
    pub(crate) library: Library,
    pub(crate) shutdown: AtomicBool,
    pub(crate) options: ServerOptions,
    /// Live connections, for the cap.
    pub(crate) active: AtomicUsize,
    /// Read-half handles of every accepted connection, keyed by
    /// connection id so `shutdown` can unblock idle readers without
    /// cutting in-flight replies, and closed connections can
    /// deregister.
    pub(crate) conns: Mutex<Vec<(u64, TcpStream)>>,
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
            shutdown: AtomicBool::new(false),
            options,
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            node: Mutex::new(node),
        }
    }
}

/// Decrements the live-connection count and deregisters the read-half
/// handle when a connection thread exits — including by panic, so an
/// escaped injected panic cannot leak a connection slot.
struct ConnGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        self.shared.metrics.conns.sub(1);
        lock(&self.shared.conns).retain(|(id, _)| *id != self.id);
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
    /// with connection threads from then on). Tests use this to bind a
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

    /// Serves connections until a `shutdown` request, then drains
    /// in-flight connection threads and returns. Connections past
    /// `max_connections` are shed with a `busy` frame instead of being
    /// queued.
    ///
    /// # Errors
    ///
    /// Propagates listener failures; per-connection errors only close
    /// that connection.
    pub fn run(self) -> io::Result<()> {
        // A resident daemon always times its requests: the histograms
        // are the point of running one, and the parity suite plus the
        // perf harness bound the cost.
        hb_obs::arm();
        // Options may have been rewired after bind (tests set peers to
        // addresses they only learned by binding); recompute the node
        // control state from the final options before serving.
        replica::refresh_node(&self.shared);
        let node_loop = spawn_node(&self.shared);
        let addr = self.listener.local_addr()?;
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut next_id: u64 = 0;
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if self.shared.active.load(Ordering::Acquire) >= self.shared.options.max_connections {
                self.shared.metrics.shed.inc();
                shed(stream, &self.shared.options);
                continue;
            }
            self.shared.active.fetch_add(1, Ordering::AcqRel);
            self.shared.metrics.conns.add(1);
            let id = next_id;
            next_id += 1;
            let shared = Arc::clone(&self.shared);
            workers.push(thread::spawn(move || {
                let _guard = ConnGuard {
                    shared: &shared,
                    id,
                };
                serve_connection(stream, &shared, addr, id);
            }));
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
        if let Some(sync) = node_loop {
            let _ = sync.join();
        }
        Ok(())
    }
}

/// Starts the node control thread when this daemon takes part in
/// replication at all — as a standby (`--standby-of`), as a clustered
/// primary (`--peers`), or both. The thread syncs, probes, gossips and
/// elects (see [`replica::run_node`]); it exits on shutdown, or once
/// it promotes with no peers to gossip to (the legacy lone-standby
/// mode, where nothing remains to do). The blocking transport joins it
/// on the way out; the reactor runs the same duties inline instead.
pub(crate) fn spawn_node(shared: &Arc<Shared>) -> Option<thread::JoinHandle<()>> {
    if shared.options.standby_of.is_none() && shared.options.peers.is_empty() {
        return None;
    }
    let shared = Arc::clone(shared);
    Some(thread::spawn(move || {
        replica::run_node(&shared);
    }))
}

/// Overload shedding: answer an over-cap connection with a structured
/// `busy` carrying the retry hint, then close. Bounded by the write
/// timeout so a non-reading client cannot stall the accept loop.
fn shed(stream: TcpStream, options: &ServerOptions) {
    let _ = stream.set_write_timeout(Some(options.write_timeout));
    let reply = Frame::new("error")
        .arg("code", "busy")
        .arg("retry_after_ms", options.retry_after_ms)
        .with_payload("connection limit reached; retry shortly");
    let _ = write_frame(&mut &stream, &reply);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection's framing and teardown; the request loop proper is
/// [`serve_requests`]. Whatever ends the loop, the socket is shut down
/// on exit so the peer sees EOF rather than a half-dead connection.
fn serve_connection(stream: TcpStream, shared: &Shared, addr: SocketAddr, id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.options.poll_grain()));
    let _ = stream.set_write_timeout(Some(shared.options.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).push((id, clone));
    }
    // Both halves run under the server's fault plan (with the default
    // disarmed plan the wrappers are transparent) and count their wire
    // bytes into the daemon's metrics.
    let faults = shared.options.faults.clone();
    let mut requests = FrameReader::new(BufReader::new(CountingReader::new(
        FaultStream::reader(read_half, faults.clone()),
        shared.metrics.bytes_in.clone(),
    )));
    // Enforced inside the decoder too, so a drip arriving faster than
    // the poll grain cannot dodge the deadline.
    requests.set_frame_timeout(Some(shared.options.frame_deadline));
    let mut replies = BufWriter::new(CountingWriter::new(
        FaultStream::new(io::empty(), &stream, faults),
        shared.metrics.bytes_out.clone(),
    ));
    serve_requests(&mut requests, &mut replies, shared, addr);
    drop(replies);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Whether an I/O error is a socket-timeout tick rather than a real
/// failure (the kind differs by platform).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One connection's read/reply loop, with the frame and idle deadlines
/// enforced on every poll tick.
fn serve_requests<R: io::BufRead>(
    requests: &mut FrameReader<R>,
    replies: &mut impl io::Write,
    shared: &Shared,
    addr: SocketAddr,
) {
    let options = &shared.options;
    let mut idle_since = Instant::now();
    loop {
        match requests.read_frame() {
            Ok(Some(req)) => {
                idle_since = Instant::now();
                let stop = req.verb == "shutdown";
                let reply = handle_with_deadline(shared, &req);
                let sent_ok = write_frame(replies, &reply).is_ok();
                if stop && reply.verb == "ok" {
                    shared.shutdown.store(true, Ordering::Release);
                    // Stop the intake everywhere: idle readers see EOF
                    // while in-flight replies still flush over the
                    // untouched write halves...
                    for (_, conn) in lock(&shared.conns).iter() {
                        let _ = conn.shutdown(Shutdown::Read);
                    }
                    // ...and unblock the accept loop so `run` can join.
                    let _ = TcpStream::connect(addr);
                    return;
                }
                if !sent_ok {
                    return; // peer closed mid-reply
                }
            }
            Ok(None) => return, // clean disconnect
            Err(ProtoError::Io(e)) if is_timeout(&e) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if requests.mid_frame() {
                    // The decoder's clock started at the frame's first
                    // byte — the slowloris measure.
                    if requests.frame_age().unwrap_or(Duration::ZERO) >= options.frame_deadline {
                        let reply = Frame::new("error")
                            .arg("code", "timeout")
                            .with_payload("frame deadline exceeded: request arrived too slowly");
                        let _ = write_frame(replies, &reply);
                        return;
                    }
                } else if idle_since.elapsed() >= options.idle_timeout {
                    return; // idle reaper
                }
            }
            Err(ProtoError::Io(_)) => return,
            Err(e) => {
                idle_since = Instant::now();
                let reply = Frame::new("error")
                    .arg("code", "proto")
                    .with_payload(e.to_string());
                if write_frame(replies, &reply).is_err() || !e.recoverable() {
                    return;
                }
            }
        }
    }
}

/// Routes a request to its design slot (the `design=` argument, the
/// default design when absent), handling the fleet-management and
/// replication verbs at the transport itself. Everything else runs
/// the per-slot lock dance in [`handle_on_slot`].
///
/// Mutations are fenced first: a node that is not the primary of its
/// term rejects every state-changing verb with `error code=fenced
/// term=N`, so a zombie ex-primary can never accept a write its
/// cluster did not agree to. `stats` and `designs` replies are
/// annotated with the node's `role=`/`term=` on the way out.
pub(crate) fn handle_with_deadline(shared: &Shared, req: &Frame) -> Frame {
    if let Some(denied) = replica::fence(shared, req) {
        shared.metrics.count_write(&req.verb);
        shared.metrics.fenced_writes.inc();
        shared.metrics.error(denied.get("code").unwrap_or("fenced"));
        return denied;
    }
    match req.verb.as_str() {
        "open" | "close" => return counted(shared, req, false, || shared.fleet.manage(req)),
        "designs" => {
            return replica::annotate(
                shared,
                counted(shared, req, true, || shared.fleet.manage(req)),
            )
        }
        "repl-state" => return counted(shared, req, true, || replica::repl_state(shared, req)),
        "repl-pull" => return counted(shared, req, true, || replica::repl_pull(shared, req)),
        "vote" => return counted(shared, req, false, || replica::vote(shared, req)),
        _ => {}
    }
    let id = req.get("design").unwrap_or(DEFAULT_DESIGN);
    let slot = match shared.fleet.route(id) {
        Ok(slot) => slot,
        Err(reply) => {
            // The session never sees this request; count it here so
            // the per-verb totals stay complete.
            shared.metrics.count_write(&req.verb);
            shared.metrics.error(reply.get("code").unwrap_or("unknown"));
            return reply;
        }
    };
    shared.metrics.design_request(&slot.id);
    let reply = handle_on_slot(shared, &slot, req);
    if req.verb == "stats" {
        return replica::annotate(shared, reply);
    }
    reply
}

/// Counts and times a verb the transport answers without a session —
/// the fleet-management and replication verbs — mirroring the
/// counting [`Session::handle`] does for session verbs.
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

/// Serves one request on one design slot, degrading to `busy` after
/// the configured lock deadline. Read-only requests of a settled
/// analysis take the shared path and run concurrently; the write path
/// is panic-isolated and journal-recovered, and transparently reloads
/// an evicted design from its journal first. A poisoned lock is
/// reclaimed, cleared and recovered — never surfaced to the client.
fn handle_on_slot(shared: &Shared, slot: &DesignSlot, req: &Frame) -> Frame {
    let deadline = Instant::now() + shared.options.lock_deadline;
    // The latency split: lock-wait runs from here until whichever lock
    // actually serves the request is held (a `busy` reply records the
    // full deadline it burned), and records exactly one sample; the
    // session records handle time itself. The span is inert unless the
    // process is armed.
    let mut lock_wait = Some(shared.metrics.lock_wait_span(&req.verb));
    let busy = || {
        Frame::new("error")
            .arg("code", "busy")
            .arg("retry_after_ms", shared.options.retry_after_ms)
            .with_payload("session lock deadline exceeded")
    };
    // An evicted design has nothing to serve read-only; the write
    // path below reloads it from its journal first.
    while slot.resident.load(Ordering::Acquire) {
        match slot.session.try_read() {
            Ok(session) => {
                // Requests the read path cannot serve wait on for the
                // write lock.
                if !session.serves_readonly(req) {
                    break;
                }
                drop(lock_wait.take());
                // A read-path panic falls through: the write path re-runs
                // the request with recovery armed.
                if let Ok(Some(reply)) =
                    catch_unwind(AssertUnwindSafe(|| session.handle_readonly(req)))
                {
                    return reply;
                }
                break;
            }
            // Never serve suspect state read-only; the write path
            // below recovers it first.
            Err(TryLockError::Poisoned(_)) => break,
            Err(TryLockError::WouldBlock) => {
                if Instant::now() >= deadline {
                    return busy();
                }
                thread::sleep(Duration::from_micros(250));
            }
        }
    }
    loop {
        match slot.session.try_write() {
            Ok(mut session) => {
                drop(lock_wait.take());
                if !slot.resident.load(Ordering::Acquire) {
                    let journal = lock(&slot.journal);
                    shared.fleet.reload(slot, &mut session, &journal);
                }
                if session.faults().fires(hb_fault::NET_UNWIND_ESCAPE) {
                    // Deliberately unguarded: the chaos suite uses this
                    // to let an injected panic escape and genuinely
                    // poison the lock.
                    return session.handle(req);
                }
                let reply = {
                    let mut journal = lock(&slot.journal);
                    journal::handle_recovering(&mut session, &mut journal, &shared.library, req)
                };
                drop(session);
                shared.fleet.settle(slot);
                return reply;
            }
            Err(TryLockError::Poisoned(e)) => {
                // A panic escaped a previous writer. Claim the guard
                // anyway, clear the poison, rebuild the session from
                // the journal, then serve this request normally.
                drop(lock_wait.take());
                let mut session = e.into_inner();
                slot.session.clear_poison();
                let reply = {
                    let mut journal = lock(&slot.journal);
                    let _ = journal::recover(&mut session, &journal, &shared.library);
                    journal::handle_recovering(&mut session, &mut journal, &shared.library, req)
                };
                drop(session);
                shared.fleet.settle(slot);
                return reply;
            }
            Err(TryLockError::WouldBlock) => {
                if Instant::now() >= deadline {
                    return busy();
                }
                thread::sleep(Duration::from_micros(250));
            }
        }
    }
}

/// Serves a design fleet over arbitrary byte streams — the `--stdio`
/// mode test harnesses drive. Single-threaded: requests are answered
/// in order until `shutdown`, end-of-input, or an unrecoverable
/// protocol error. Routing, panic isolation and journal recovery
/// match the TCP path exactly — both go through
/// [`handle_with_deadline`] — so a stdio transcript and a TCP
/// transcript answer byte-identically.
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
                let reply = handle_with_deadline(&shared, &req);
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
    /// and backs off with seeded decorrelated jitter (see [`Backoff`])
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
/// jitter walk [`run_node`](crate::replica) sleeps between failed
/// sync rounds. Exposed so tests can pin that two seeds diverge (two
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
