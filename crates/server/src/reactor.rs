//! The TCP transport: one `poll(2)` event loop for every connection,
//! plus one worker thread per design that has write-path work queued.
//!
//! All sockets are nonblocking, the loop polls them for readiness, and
//! each connection is a small state machine — a [`FrameDecoder`] on
//! the read side, a reply queue on the write side. The loop answers a
//! request inline when [`route`] can: fleet and replication verbs, and
//! read-only queries of a settled analysis whose read lock is free.
//! Everything else — writes, unsettled reads, a design whose lock a
//! worker holds, an evicted or poisoned design — is a [`WriteJob`] on
//! that design's FIFO queue. The queue is drained by one worker thread
//! that starts when the queue becomes non-empty and exits when it
//! empties, so one tenant's build never waits behind another's, and
//! reads of other tenants never wait behind either. The worker runs
//! [`serve_write`] — the very code the stdio loop runs inline — sends
//! the reply back over a channel, and wakes the loop through a socket
//! pair in the poll set.
//!
//! While a connection has a job outstanding, the loop stops decoding
//! (and reading) that connection's frames, so its replies stay in
//! request order. A connection therefore has at most one job
//! outstanding, and there are never more workers than open
//! connections or designs. An escaped panic ends its job, not the
//! worker: the connection that sent it is closed without a reply, and
//! the poisoned lock is recovered by the design's next writer.
//!
//! Pipelining falls out of the design: a readiness event feeds
//! whatever arrived into the decoder, and every complete frame in the
//! buffer is dispatched and answered in order before the loop moves
//! on. Replies are flushed geometrically — one nonblocking write after
//! the 1st, 2nd, 4th, 8th, … frame of a pass, and one at its end — so
//! a lone request's reply never waits for the frames behind it, while
//! a pipelined window still shares a few writes. Backpressure is the
//! dual: a connection whose reply queue passes [`WRITE_HIGH_WATER`]
//! stops being polled for reads until the queue drains, so a peer that
//! pipelines without reading cannot balloon the daemon.
//!
//! A job still waiting behind another when its `lock_deadline` passes
//! is answered `busy retry_after_ms=N` by the loop and never run. A
//! started frame must complete within `frame_deadline` (anti-
//! slowloris), a silent connection is reaped at `idle_timeout`, a peer
//! that stops reading its replies is cut off after `write_timeout`,
//! and connections past `max_connections` are shed at accept with
//! `busy retry_after_ms=N`; a connection waiting on a job is exempt
//! from the frame and idle clocks. Every socket read and write goes
//! through [`FaultPlan::read`]/[`FaultPlan::write`], the `io.*` fault
//! rules [`FaultStream`](hb_fault::FaultStream) applies too, so the
//! chaos suite drives this loop with the same seeded matrix.
//!
//! Per-connection memory is bounded and measured: the decoder buffer
//! is capped by the protocol limits, the reply queue by the high-water
//! mark plus one frame, and both report into the
//! `hb_conn_buffer_bytes` gauge surfaced by `stats`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hb_fault::FaultPlan;
use hb_io::{Frame, FrameDecoder};

use crate::net::{busy, lock, route, serve_write, Routed, Server, Shared, WriteJob};
use crate::replica::{self, NodeDriver};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// Read granularity. One readiness event reads at most
/// [`READ_BUDGET`] of these before yielding to the rest of the loop.
const READ_CHUNK: usize = 64 * 1024;

/// Chunks one readiness event may read before other connections get a
/// turn — fairness under a firehose peer.
const READ_BUDGET: usize = 4;

/// Reply-queue depth past which a connection stops being polled for
/// reads until the queue drains. Bounds per-connection memory against
/// a peer that pipelines requests without reading replies.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Reply-queue capacity retained after a full drain. One oversized
/// reply (a `dump` of a big design) must not pin its buffer forever.
const OUT_RETAIN: usize = 16 * 1024;

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Distinguishes this connection from a later one reusing its slot
    /// when a worker's reply comes back.
    id: u64,
    /// Incremental request decoder; owns the read buffer.
    decoder: FrameDecoder,
    /// Encoded replies not yet written; `out_start..` is pending.
    out: Vec<u8>,
    out_start: usize,
    /// Last byte-level activity, for the idle reaper.
    idle_since: Instant,
    /// When the currently-partial frame started arriving.
    frame_started: Option<Instant>,
    /// When the pending output first failed to make progress.
    write_stalled: Option<Instant>,
    /// A job for this connection is queued or running on a worker.
    waiting: bool,
    /// The peer has finished sending.
    eof: bool,
    /// Flush pending output, then close (fatal error or shutdown).
    closing: bool,
    /// This socket's injected-read-error toggle (see [`FaultPlan::read`]).
    flip: bool,
    /// Bytes currently contributed to the buffer gauge.
    reported: usize,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Conn {
        let fd = stream.as_raw_fd();
        Conn {
            stream,
            fd,
            id,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_start: 0,
            idle_since: Instant::now(),
            frame_started: None,
            write_stalled: None,
            waiting: false,
            eof: false,
            closing: false,
            flip: false,
            reported: 0,
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_start
    }

    /// Queues one encoded reply.
    fn push_reply(&mut self, reply: &Frame) {
        self.out.extend_from_slice(reply.encode().as_bytes());
    }

    /// One nonblocking write of the pending output.
    fn write_once(&mut self, plan: &FaultPlan) -> io::Result<usize> {
        let n = plan.write(&mut self.stream, &self.out[self.out_start..])?;
        self.out_start += n;
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
            self.out.shrink_to(OUT_RETAIN);
        }
        Ok(n)
    }

    /// The bytes this connection holds in reusable buffers right now.
    fn buffer_bytes(&self) -> usize {
        self.decoder.buffer_capacity() + self.out.capacity()
    }
}

fn proto_error(e: impl std::fmt::Display) -> Frame {
    Frame::new("error")
        .arg("code", "proto")
        .with_payload(e.to_string())
}

/// A write job plus the connection waiting on it.
struct Job {
    slot: usize,
    conn: u64,
    stop: bool,
    write: WriteJob,
}

/// A finished job; `reply` is `None` when a panic escaped it.
struct Done {
    slot: usize,
    conn: u64,
    stop: bool,
    reply: Option<Frame>,
    /// The worker that ran the job, when this was its last one.
    exited: Option<u64>,
}

/// One design's FIFO queue. It exists exactly while a worker drains
/// it; `started` is set once that worker has taken its first job, so
/// every job left in `jobs` is waiting behind a running one.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    started: bool,
}

/// The per-design queues, keyed by design id.
type Queues = Mutex<HashMap<String, Queue>>;

/// What the workers share with the loop: the queues, the reply
/// channel, and the write end of the wake-up pair.
#[derive(Clone)]
struct Workers {
    shared: Arc<Shared>,
    queues: Arc<Queues>,
    done: Sender<Done>,
    wake: Arc<UnixStream>,
}

impl Workers {
    /// One design's worker: runs its queue's jobs in order and exits
    /// when the queue is empty. Its last reply says so, and the loop
    /// joins the thread before delivering that reply: the next worker
    /// then reuses this one's allocator arena instead of growing
    /// another.
    fn drain(&self, key: &str, worker: u64) {
        let mut next = self.pop(key);
        while let Some(job) = next {
            // The job boundary, outside the session guard: a panic that
            // escaped the write path has already poisoned the lock.
            let reply =
                catch_unwind(AssertUnwindSafe(|| serve_write(&self.shared, job.write))).ok();
            next = self.pop(key);
            let _ = self.done.send(Done {
                slot: job.slot,
                conn: job.conn,
                stop: job.stop,
                reply,
                exited: next.is_none().then_some(worker),
            });
            let _ = (&*self.wake).write(&[1]);
        }
    }

    /// The design's next job, or `None` once its queue is empty — which
    /// retires the queue.
    fn pop(&self, key: &str) -> Option<Job> {
        let mut queues = lock(&self.queues);
        let job = queues.get_mut(key).and_then(|queue| {
            queue.started = true;
            queue.jobs.pop_front()
        });
        if job.is_none() {
            queues.remove(key);
        }
        job
    }
}

/// What the deadline sweep decided for one connection.
enum Sweep {
    Keep,
    /// Queue a timeout error, flush, then close.
    CutSlowFrame,
    Close,
}

struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Connection slots; `None` is free (indices are stable because
    /// poll interest is rebuilt every iteration anyway).
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_id: u64,
    /// Scratch read buffer shared by every connection.
    chunk: Vec<u8>,
    /// Set by a successful `shutdown` request: stop accepting and
    /// reading, wait for outstanding jobs, flush every queued reply,
    /// then return.
    draining: bool,
    workers: Workers,
    /// Running workers by id.
    threads: HashMap<u64, JoinHandle<()>>,
    next_worker: u64,
    /// Finished jobs, announced by a byte on `wake`.
    done: Receiver<Done>,
    wake: UnixStream,
    /// Jobs submitted and not yet delivered.
    outstanding: usize,
    /// The replication control plane, when this daemon replicates: a
    /// nonblocking state machine whose in-flight exchange socket joins
    /// the poll set.
    node: Option<NodeDriver>,
}

impl Server {
    /// Serves connections until a client requests `shutdown`, then
    /// waits for outstanding jobs, flushes every queued reply and
    /// returns. Connections past `max_connections` are shed with a
    /// `busy` frame instead of being queued.
    ///
    /// # Errors
    ///
    /// Propagates listener, wake-up pair or `poll` failures;
    /// per-connection errors only close that connection.
    pub fn run(self) -> io::Result<()> {
        // A resident daemon always times its requests: the histograms
        // are the point of running one, and the parity suite plus the
        // perf harness bound the cost.
        hb_obs::arm();
        // Options may have been rewired after bind (tests set peers to
        // addresses they only learned by binding); recompute the node
        // control state from the final options before serving.
        replica::refresh_node(&self.shared);
        let node = NodeDriver::new(&self.shared);
        self.listener.set_nonblocking(true)?;
        // Budget descriptors for the configured cap (each connection
        // is exactly one fd) plus slack for the listener, stdio and
        // whatever the embedding process holds.
        let want = self.shared.options.max_connections as u64 + 64;
        let _ = sys::raise_nofile_limit(want);
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let (done_tx, done) = mpsc::channel();
        Reactor {
            workers: Workers {
                shared: Arc::clone(&self.shared),
                queues: Arc::default(),
                done: done_tx,
                wake: Arc::new(wake_tx),
            },
            listener: self.listener,
            shared: self.shared,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_id: 0,
            chunk: vec![0u8; READ_CHUNK],
            draining: false,
            threads: HashMap::new(),
            next_worker: 0,
            done,
            wake,
            outstanding: 0,
            node,
        }
        .run()
    }
}

impl Reactor {
    fn run(mut self) -> io::Result<()> {
        let grain = self.shared.options.poll_grain();
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut slots: Vec<(usize, u64)> = Vec::new();
        loop {
            if self.draining && self.live == 0 && self.outstanding == 0 {
                return Ok(());
            }
            pollfds.clear();
            slots.clear();
            pollfds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
            let poll_listener = !self.draining;
            if poll_listener {
                pollfds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if c.pending_out() > 0 {
                    events |= POLLOUT;
                }
                if !(c.closing || c.waiting || c.eof) && c.pending_out() < WRITE_HIGH_WATER {
                    events |= POLLIN;
                }
                // Nothing to do until its job returns: a negative fd
                // keeps `poll` from reporting a hangup over and over.
                pollfds.push(PollFd::new(if events == 0 { -1 } else { c.fd }, events));
                slots.push((slot, c.id));
            }
            // The node driver's exchange fd joins the set (its revents
            // are not inspected — tick() advances nonblocking either
            // way; the fd is here so bytes wake the loop early), and
            // its next-round deadline caps the poll timeout.
            let mut timeout = grain;
            if let Some(node) = &self.node {
                if let Some(fd) = node.pollfd() {
                    pollfds.push(fd);
                }
                if let Some(hint) = node.timeout_hint(Instant::now()) {
                    timeout = timeout.min(hint.max(Duration::from_millis(1)));
                }
            }
            match sys::poll(&mut pollfds, timeout) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            if let Some(node) = &mut self.node {
                node.tick(&self.shared, Instant::now());
            }
            if pollfds[0].revents != 0 {
                self.jobs_done();
            }
            let base = 1 + usize::from(poll_listener);
            if poll_listener && pollfds[1].revents != 0 {
                self.accept_ready();
            }
            for (i, &(slot, id)) in slots.iter().enumerate() {
                let revents = pollfds[base + i].revents;
                // Skip a connection closed (and its slot perhaps reused)
                // since the poll.
                if revents == 0 || self.conns[slot].as_ref().is_none_or(|c| c.id != id) {
                    continue;
                }
                if revents & (POLLERR | POLLNVAL) != 0 {
                    self.close(slot);
                    continue;
                }
                if revents & POLLOUT != 0 {
                    self.write_ready(slot);
                }
                if self.conns[slot].is_some() && revents & (POLLIN | POLLHUP) != 0 {
                    self.read_ready(slot);
                }
            }
            self.sweep();
        }
    }

    /// Drains the accept queue, registering or shedding each pending
    /// connection.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.live >= self.shared.options.max_connections {
                self.shed(stream);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let conn = Conn::new(stream, self.next_id);
            self.next_id += 1;
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            self.conns[slot] = Some(conn);
            self.live += 1;
            self.shared.metrics.conns.add(1);
        }
    }

    /// Overload shedding, nonblocking flavour: one write attempt of
    /// the structured `busy` frame (a fresh socket's empty send buffer
    /// always takes these few bytes), then close.
    fn shed(&self, stream: TcpStream) {
        self.shared.metrics.shed.inc();
        let reply = Frame::new("error")
            .arg("code", "busy")
            .arg("retry_after_ms", self.shared.options.retry_after_ms)
            .with_payload("connection limit reached; retry shortly");
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write(reply.encode().as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Reads whatever the socket has (up to the fairness budget),
    /// then decodes and dispatches every complete frame.
    fn read_ready(&mut self, slot: usize) {
        let plan = self.shared.options.faults.clone();
        for _ in 0..READ_BUDGET {
            let conn = self.conns[slot].as_mut().expect("checked by caller");
            match plan.read(&mut conn.flip, &mut conn.stream, &mut self.chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.feed(&self.chunk[..n]);
                    conn.idle_since = Instant::now();
                    self.shared.metrics.bytes_in.add(n as u64);
                    if n < READ_CHUNK {
                        break; // drained the socket
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.process(slot);
    }

    /// One pass over the connection's buffered frames: decodes and
    /// dispatches each, stopping at a job handed to a worker or at the
    /// backpressure mark, and flushes replies geometrically. Called
    /// after reads, after a job's reply arrives, and after a
    /// below-high-water drain (frames decoded under backpressure wait
    /// in the decoder, not on the socket).
    fn process(&mut self, slot: usize) {
        let mut handled = 0u32;
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(c) if !(c.closing || c.waiting) && c.pending_out() < WRITE_HIGH_WATER => c,
                _ => break,
            };
            match conn.decoder.next_frame() {
                Ok(Some(req)) => {
                    conn.idle_since = Instant::now();
                    let stop = req.verb == "shutdown";
                    match route(&self.shared, req) {
                        Routed::Reply(reply) => self.deliver(slot, stop, &reply),
                        Routed::Write(write) => {
                            conn.waiting = true;
                            self.outstanding += 1;
                            let conn = conn.id;
                            self.submit(Job {
                                slot,
                                conn,
                                stop,
                                write,
                            });
                            break;
                        }
                    }
                    handled += 1;
                    if handled.is_power_of_two() && !self.flush(slot) {
                        return;
                    }
                }
                Ok(None) => {
                    if conn.eof {
                        // The peer is done: answer a truncated frame,
                        // then close once the replies are out.
                        if let Err(e) = conn.decoder.finish() {
                            conn.push_reply(&proto_error(e));
                        }
                        conn.closing = true;
                    }
                    break;
                }
                Err(e) => {
                    conn.push_reply(&proto_error(&e));
                    if !e.recoverable() {
                        conn.closing = true;
                    }
                }
            }
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        // The frame clock runs while a partial frame is buffered and
        // the connection is not waiting on a job.
        if conn.waiting || !conn.decoder.mid_frame() {
            conn.frame_started = None;
        } else if conn.frame_started.is_none() {
            conn.frame_started = Some(Instant::now());
        }
        self.flush(slot);
    }

    /// Queues a job on its design, starting that design's worker when
    /// the queue was empty.
    fn submit(&mut self, job: Job) {
        let key = job.write.slot.id.clone();
        {
            let mut queues = lock(&self.workers.queues);
            let queue = queues.entry(key.clone()).or_default();
            queue.jobs.push_back(job);
            if queue.started || queue.jobs.len() > 1 {
                return; // the design's worker will get to it
            }
        }
        let id = self.next_worker;
        self.next_worker += 1;
        let workers = self.workers.clone();
        let design = key.clone();
        match thread::Builder::new()
            .name(format!("hb-design-{key}"))
            .spawn(move || workers.drain(&design, id))
        {
            Ok(thread) => {
                self.threads.insert(id, thread);
            }
            Err(_) => self.workers.drain(&key, id), // no thread to be had: serve it here
        }
    }

    /// Queues a reply; a successful `shutdown` starts the drain.
    fn deliver(&mut self, slot: usize, stop: bool, reply: &Frame) {
        let conn = self.conns[slot]
            .as_mut()
            .expect("delivering to a live slot");
        conn.push_reply(reply);
        if stop && reply.verb == "ok" {
            self.draining = true;
        }
        if self.draining {
            conn.closing = true;
        }
    }

    /// Delivers every finished job's reply to its connection.
    fn jobs_done(&mut self) {
        let mut drained = [0u8; 64];
        while matches!((&self.wake).read(&mut drained), Ok(n) if n > 0) {}
        while let Ok(done) = self.done.try_recv() {
            if let Some(thread) = done.exited.and_then(|id| self.threads.remove(&id)) {
                let _ = thread.join(); // already past its last send
            }
            self.finish(done.slot, done.conn, done.stop, done.reply);
        }
    }

    /// Answers `busy` at its deadline to every job still waiting
    /// behind a running one, rather than when its worker would reach
    /// it. A worker's first job is left to the worker, which checks
    /// the deadline too. Jobs queue in routing order under one
    /// deadline, so the expired ones are a prefix.
    fn expire_queued(&mut self, now: Instant) {
        if self.outstanding == 0 {
            return;
        }
        let mut expired = Vec::new();
        for queue in lock(&self.workers.queues).values_mut() {
            let first = usize::from(!queue.started);
            while queue.jobs.get(first).is_some_and(|j| j.write.expired(now)) {
                expired.extend(queue.jobs.remove(first));
            }
        }
        for job in expired {
            let reply = busy(&self.shared);
            self.finish(job.slot, job.conn, job.stop, Some(reply));
        }
    }

    /// Ends one job: delivers its reply and resumes decoding — or, when
    /// a panic escaped the job (`None`), closes the connection once its
    /// earlier replies are flushed.
    fn finish(&mut self, slot: usize, id: u64, stop: bool, reply: Option<Frame>) {
        self.outstanding -= 1;
        let Some(conn) = self.conns[slot].as_mut().filter(|c| c.id == id) else {
            return; // closed while its job waited or ran
        };
        conn.waiting = false;
        conn.idle_since = Instant::now();
        let Some(reply) = reply else {
            conn.closing = true;
            self.flush(slot);
            return;
        };
        self.deliver(slot, stop, &reply);
        self.process(slot);
    }

    /// Writes as much pending output as the socket takes. Returns
    /// false when the connection was closed: a write error, or a
    /// closing connection with everything flushed.
    fn flush(&mut self, slot: usize) -> bool {
        let plan = self.shared.options.faults.clone();
        loop {
            let conn = self.conns[slot].as_mut().expect("checked by caller");
            if conn.pending_out() == 0 {
                conn.write_stalled = None;
                if conn.closing {
                    self.close(slot);
                    return false;
                }
                return true;
            }
            match conn.write_once(&plan) {
                Ok(0) => break,
                Ok(n) => {
                    conn.write_stalled = None;
                    self.shared.metrics.bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.write_stalled.get_or_insert_with(Instant::now);
                    return true;
                }
                Err(_) => break,
            }
        }
        self.close(slot);
        false
    }

    /// The socket drained: flush, and resume decoding once the queue
    /// drops below the high-water mark.
    fn write_ready(&mut self, slot: usize) {
        let was_blocked = self.conns[slot]
            .as_ref()
            .is_some_and(|c| c.pending_out() >= WRITE_HIGH_WATER);
        if self.flush(slot)
            && was_blocked
            && self.conns[slot]
                .as_ref()
                .is_some_and(|c| c.pending_out() < WRITE_HIGH_WATER)
        {
            self.process(slot);
        }
    }

    /// Enforces the lock, frame, idle and write deadlines, drives
    /// draining, and refreshes the buffer gauge.
    fn sweep(&mut self) {
        let shared = Arc::clone(&self.shared);
        let options = &shared.options;
        let now = Instant::now();
        self.expire_queued(now);
        for slot in 0..self.conns.len() {
            let decision = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                // Keep the buffer gauge current while we are here.
                let bytes = conn.buffer_bytes();
                if bytes != conn.reported {
                    let delta = bytes as i64 - conn.reported as i64;
                    conn.reported = bytes;
                    shared.metrics.buffer_bytes.add(delta);
                }
                if conn
                    .write_stalled
                    .is_some_and(|since| now - since >= options.write_timeout)
                {
                    Sweep::Close
                } else if conn.waiting {
                    Sweep::Keep
                } else if self.draining || conn.closing {
                    conn.closing = true;
                    if conn.pending_out() == 0 {
                        Sweep::Close
                    } else {
                        Sweep::Keep
                    }
                } else if conn
                    .frame_started
                    .is_some_and(|started| now - started >= options.frame_deadline)
                {
                    Sweep::CutSlowFrame
                } else if conn.frame_started.is_none()
                    && now - conn.idle_since >= options.idle_timeout
                {
                    Sweep::Close
                } else {
                    Sweep::Keep
                }
            };
            match decision {
                Sweep::Keep => {}
                Sweep::Close => self.close(slot),
                Sweep::CutSlowFrame => {
                    let conn = self.conns[slot].as_mut().expect("present above");
                    let reply = Frame::new("error")
                        .arg("code", "timeout")
                        .with_payload("frame deadline exceeded: request arrived too slowly");
                    conn.push_reply(&reply);
                    conn.closing = true;
                    self.flush(slot);
                }
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let metrics = &self.shared.metrics;
            metrics.buffer_bytes.sub(conn.reported as i64);
            metrics.conns.sub(1);
            self.live -= 1;
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(slot);
        }
    }
}
