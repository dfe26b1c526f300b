//! The daemon workloads, `fleet-reads` and `tenant-stall`.
//!
//! The daemon runs in a child process — this binary re-executed with
//! `--daemon`, which runs `hummingbird serve --listen 127.0.0.1:0`
//! through the same `hb_cli::run` entry point as the `hummingbird`
//! binary, with the default transport and options. Only generated load
//! lives in this process: one connection per load stream, reads paced
//! open-loop in 1 ms ticks.
//!
//! Eight hot tenants `hot0..7`, each a 20k-cell latch pipeline, are
//! loaded and analyzed during set-up, so reads never trigger an
//! analysis: every reply comes from a settled report. Each read is
//! timed from when it was due, not from when it was sent. The daemon's
//! `metrics` exposition is scraped before and after the measured
//! window, outside it.

use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

use hb_cells::{sc89, Library};
use hb_io::{Frame, FrameDecoder};
use hb_rng::{mix64, SmallRng};
use hb_server::{Client, Session};
use hb_workloads::{generate, GenKind, GenParams, Workload};

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{layers, peak_rss_mb, Config, Ledger, Outcome};

const HOT_TENANTS: usize = 8;
const TENANT_CELLS: usize = 20_000;
/// The bulk tenant's design is the same for every seed: its analysis
/// and min-period cost vary several-fold across generator seeds (see
/// `closure::DESIGN_SEED`). The hot tenants are drawn from the seed —
/// reads never analyze, so their cost does not depend on it.
const BULK_SEED: u64 = 1;
const QUICK_TENANT_CELLS: usize = 2_000;
const QUICK_SECONDS: f64 = 1.0;
/// `fleet-reads` base rate, reads per second.
const FLEET_RATE: f64 = 5_000.0;
/// `tenant-stall` read rate on `hot0`.
const STALL_RATE: f64 = 5_000.0;
/// The read latency limit; a slower read is a miss.
const LIMIT_MS: f64 = 25.0;
/// How long to wait for stragglers after the last due time before a
/// read counts as failed.
const DRAIN: Duration = Duration::from_secs(5);
/// Nodes per batched `slack` read; one read in `BATCH_EVERY` is one.
const BATCH_NODES: usize = 64;
const BATCH_EVERY: usize = 10;
/// Distinct pre-encoded reads, cycled through by the load streams.
const DECK: usize = 4096;
/// Nodes per tenant that reads draw from.
const POOL: usize = 256;
/// One reply in this many is kept for the oracle check.
const KEEP_EVERY: u64 = 16;

/// The `--daemon` child: `hummingbird serve` on an ephemeral port.
pub fn serve() -> ExitCode {
    let mut stdout = std::io::stdout();
    match hb_cli::run(&["serve", "--listen", "127.0.0.1:0"], &mut stdout) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("hbbench daemon: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// A running daemon child. Dropping it kills the child and waits.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    control: Client,
}

impl Daemon {
    fn spawn() -> Daemon {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn the daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read the daemon's banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner {line:?}"))
            .to_owned();
        let control = Client::connect(&addr).expect("connect to the daemon");
        Daemon {
            child,
            stdout,
            addr,
            control,
        }
    }

    fn request(&mut self, frame: &Frame) -> Frame {
        let reply = self.control.request(frame).expect("daemon control request");
        assert_eq!(
            reply.verb, "ok",
            "{} refused: {:?}",
            frame.verb, reply.payload
        );
        reply
    }

    fn scrape(&mut self) -> Exposition {
        let text = self
            .request(&Frame::new("metrics"))
            .payload
            .unwrap_or_default();
        Exposition(hb_obs::parse_exposition(&text).expect("well-formed exposition"))
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// CPU seconds (user + system) the daemon has used, including
    /// threads that have exited, from `/proc/PID/stat` in ticks of
    /// 1/100 s. (Per-thread `schedstat` is finer but forgets a
    /// connection's thread once the connection closes.)
    fn cpu_seconds(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .expect("read the daemon's /proc stat");
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
        (ticks(11) + ticks(12)) / 100.0
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) {
        self.request(&Frame::new("shutdown"));
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scraped `metrics` exposition.
struct Exposition(Vec<(String, f64)>);

impl Exposition {
    /// Sum over the series of `name` carrying every `key="value"` label.
    fn sum(&self, name: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (n, rest) = series.split_once('{').unwrap_or((series, ""));
                n == name && labels.iter().all(|l| rest.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// One tenant's design.
struct Tenant {
    id: String,
    text: String,
    workload: Workload,
}

fn tenant(lib: &Library, id: &str, cells: usize, seed: u64) -> Tenant {
    let workload = generate(lib, &GenParams::new(GenKind::Pipeline, cells, seed));
    Tenant {
        id: id.to_owned(),
        text: workload.to_hum(),
        workload,
    }
}

fn tenant_cells(cfg: &Config) -> usize {
    if cfg.quick {
        QUICK_TENANT_CELLS
    } else {
        TENANT_CELLS
    }
}

/// The hot tenants, each from its own seed.
fn hot_tenants(lib: &Library, cfg: &Config) -> Vec<Tenant> {
    (0..HOT_TENANTS)
        .map(|i| {
            let seed = mix64(cfg.seed, i as u64 + 1);
            tenant(lib, &format!("hot{i}"), tenant_cells(cfg), seed)
        })
        .collect()
}

/// Spawns a daemon and loads and analyzes every tenant in it.
fn prime(tenants: &[Tenant]) -> Daemon {
    let mut d = Daemon::spawn();
    for t in tenants {
        d.request(&Frame::new("open").arg("design", &t.id));
        d.request(
            &Frame::new("load")
                .arg("design", &t.id)
                .with_payload(t.text.clone()),
        );
        d.request(&Frame::new("analyze").arg("design", &t.id));
    }
    d
}

/// Pre-encoded reads with the answers an in-process `Session` gives.
struct Deck {
    wire: Vec<Vec<u8>>,
    expected: Vec<Frame>,
}

impl Deck {
    fn entry(&self, i: u64) -> usize {
        (i % self.wire.len() as u64) as usize
    }
}

/// Draws the read mix over `tenants` by seed — 90% single-node
/// `slack`, 10% batched 64-node `slack` — and answers each read
/// through an in-process `Session` holding the same design.
fn deck(lib: &Library, tenants: &[&Tenant], seed: u64) -> Deck {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_decc);
    let mut sessions = Vec::new();
    let mut pools = Vec::new();
    for t in tenants {
        let mut s = Session::new(lib.clone());
        for req in [
            Frame::new("load").with_payload(t.text.clone()),
            Frame::new("analyze"),
        ] {
            assert_eq!(s.handle(&req).verb, "ok", "oracle session {}", req.verb);
        }
        // Every name a `slack` read can resolve, once each: the nets and
        // the terminals. The pool draws from them uniformly, so the
        // share of terminal reads is the design's own.
        let module = t.workload.design.module(t.workload.module);
        let terms = s.last_report().expect("analyzed").terminal_slacks();
        let nodes: Vec<String> = module
            .nets()
            .map(|(_, n)| n.name().to_owned())
            .chain(terms.iter().map(|ts| ts.name.clone()))
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        let pool: Vec<String> = (0..POOL)
            .map(|_| nodes[rng.gen_range(0..nodes.len())].clone())
            .collect();
        sessions.push(s);
        pools.push(pool);
    }
    let mut wire = Vec::with_capacity(DECK);
    let mut expected = Vec::with_capacity(DECK);
    for i in 0..DECK {
        let k = rng.gen_range(0..tenants.len());
        let nodes = if i % BATCH_EVERY == BATCH_EVERY - 1 {
            BATCH_NODES
        } else {
            1
        };
        let mut req = Frame::new("slack").arg("design", &tenants[k].id);
        for _ in 0..nodes {
            req = req.arg("node", &pools[k][rng.gen_range(0..POOL)]);
        }
        expected.push(
            sessions[k]
                .handle_readonly(&req)
                .expect("a settled session answers reads"),
        );
        wire.push(req.encode().into_bytes());
    }
    Deck { wire, expected }
}

/// What one load stream saw.
#[derive(Default)]
struct Reads {
    /// Latency of each read from its due time, ms.
    due_ms: Samples,
    /// Summed latency from the moment each read was sent, ms.
    sent_ms_sum: f64,
    sent: u64,
    received: u64,
    failed: u64,
    /// Reads that failed or took longer than the limit.
    misses: u64,
    late_ms_max: f64,
    /// Bytes sent and received.
    bytes: u64,
    /// Kept replies, by read index, for the oracle check.
    kept: Vec<(u64, Frame)>,
}

impl Reads {
    /// Counts the replies that differ from the deck's answers.
    fn mismatches(&self, deck: &Deck) -> u64 {
        self.kept
            .iter()
            .filter(|(i, f)| *f != deck.expected[deck.entry(*i)])
            .count() as u64
    }
}

/// Reads announced by the pacer, one message per tick: the first read
/// index, how many, when they were due and when they were sent.
type Tick = (u64, u64, Instant, Instant);

/// The reply side of an open loop. Blocks on the socket, decodes the
/// replies — they come back in request order — and settles each
/// against the read it answers, as the pacer announced it. Returns once
/// the pacer is done and every read is answered, or `drain` after that.
/// Reads still unanswered then have failed, and their latency is the
/// time from their due time to the end of the drain: a lower bound, but
/// one that keeps a stall from dropping the slowest reads from the
/// latency quantiles.
fn read_replies(
    mut tcp: TcpStream,
    announced: mpsc::Receiver<Tick>,
    drain: Duration,
    tr: &mut Tracer,
) -> Reads {
    // Only bounds how long a quiet socket blocks the reader before it
    // re-checks whether the pacer is done.
    tcp.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set the read timeout");
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0; 1 << 16];
    // (read index, due, sent) of every read awaiting its reply.
    let mut inflight: VecDeque<(u64, Instant, Instant)> = VecDeque::new();
    let announce = |inflight: &mut VecDeque<_>, (first, count, due, sent): Tick| {
        inflight.extend((first..first + count).map(|i| (i, due, sent)));
    };
    let mut r = Reads::default();
    let mut paced_until: Option<Instant> = None;
    loop {
        loop {
            match announced.try_recv() {
                Ok(tick) => announce(&mut inflight, tick),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    paced_until.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        if paced_until.is_some_and(|t| inflight.is_empty() || t.elapsed() >= drain) {
            break;
        }
        let n = match tcp.read(&mut buf) {
            Ok(0) => panic!("the daemon closed a read stream"),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => panic!("read stream: {e}"),
        };
        let at = Instant::now();
        r.bytes += n as u64;
        decoder.feed(&buf[..n]);
        while let Some(reply) = decoder.next_frame().expect("well-formed replies") {
            if inflight.is_empty() {
                // The pacer announces a read before sending it.
                let tick = announced
                    .recv()
                    .expect("every reply answers an announced read");
                announce(&mut inflight, tick);
            }
            let (i, due, sent) = inflight.pop_front().expect("announced above");
            let ms = (at - due).as_secs_f64() * 1e3;
            r.due_ms.push(ms);
            r.sent_ms_sum += (at - sent).as_secs_f64() * 1e3;
            r.received += 1;
            if reply.verb != "ok" {
                r.failed += 1;
                r.misses += 1;
            } else if ms > LIMIT_MS {
                r.misses += 1;
            }
            if i % KEEP_EVERY == 0 {
                tr.record("read", i, due, at);
                r.kept.push((i, reply));
            }
        }
    }
    let end = Instant::now();
    for (_, due, _) in &inflight {
        r.due_ms.push((end - *due).as_secs_f64() * 1e3);
    }
    let lost = inflight.len() as u64;
    r.failed += lost;
    r.misses += lost;
    r
}

/// Open loop: `rate` reads per second for `seconds`, released in 1 ms
/// ticks whatever the replies do. The pacer sleeps until each tick; a
/// second thread blocks on the socket for replies and timestamps them
/// as they arrive. (A socket read timeout cannot pace the ticks: the
/// kernel rounds it up to a scheduler tick of several milliseconds.)
fn open_loop(
    addr: &str,
    deck: &Deck,
    rate: f64,
    seconds: f64,
    first: u64,
    tr: &mut Tracer,
) -> Reads {
    let tcp = TcpStream::connect(addr).expect("connect a read stream");
    tcp.set_nodelay(true).expect("set TCP_NODELAY");
    let reply_side = tcp.try_clone().expect("clone the read stream");
    let (announce, announced) = mpsc::channel::<Tick>();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || read_replies(reply_side, announced, DRAIN, tr));
        let t0 = Instant::now();
        let mut sent = 0;
        let mut late_ms_max: f64 = 0.0;
        let mut bytes = 0;
        let mut wire = Vec::new();
        for tick in 0..(seconds * 1e3).round() as u64 {
            let due = t0 + Duration::from_millis(tick);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            late_ms_max = late_ms_max.max((now - due).as_secs_f64() * 1e3);
            let target = ((tick + 1) as f64 * rate / 1e3) as u64;
            if target == sent {
                continue;
            }
            wire.clear();
            for i in first + sent..first + target {
                wire.extend_from_slice(&deck.wire[deck.entry(i)]);
            }
            announce
                .send((first + sent, target - sent, due, now))
                .expect("the reply reader outlives the pacer");
            (&tcp).write_all(&wire).expect("send reads");
            bytes += wire.len() as u64;
            sent = target;
        }
        drop(announce);
        let mut reads = reader.join().expect("reply reader");
        reads.sent = sent;
        reads.late_ms_max = late_ms_max;
        reads.bytes += bytes;
        reads
    })
}

/// Client-side per-layer numbers of one read stream.
fn generator_layers(ledger: &mut Ledger, r: &Reads) {
    ledger.set("gen.late_ms_max", r.late_ms_max);
    ledger.set("gen.sent", r.sent as f64);
    ledger.set("gen.received", r.received as f64);
    ledger.set("gen.read_miss_frac", r.misses as f64 / r.sent.max(1) as f64);
    ledger.set(
        "server.bytes_per_read",
        r.bytes as f64 / r.received.max(1) as f64,
    );
}

/// The daemon's share of each read, from its `slack` latency
/// histograms over the window, against the client's mean latency from
/// sending. The two stages are reported as the daemon records them:
/// on the read path its `lock_wait` span closes only after the
/// request is handled, so it contains `handle` rather than adding to
/// it, and the remainder of the client's latency cannot be split off.
fn wire_layers(ledger: &mut Ledger, before: &Exposition, after: &Exposition, r: &Reads) {
    let d = |name: &str, labels: &[&str]| after.sum(name, labels) - before.sum(name, labels);
    let mean_ms = |stage: &str| {
        let labels = ["verb=\"slack\"", stage];
        d("hb_request_nanoseconds_sum", &labels)
            / 1e6
            / d("hb_request_nanoseconds_count", &labels).max(1.0)
    };
    let client_ms = r.sent_ms_sum / r.received.max(1) as f64;
    let handle = mean_ms("stage=\"handle\"") / client_ms;
    ledger.set("server.handle_share", handle);
    ledger.set(
        "server.lock_wait_share",
        mean_ms("stage=\"lock_wait\"") / client_ms,
    );
    ledger.set("bench.coverage", handle);
    ledger.set("server.errors", d("hb_errors_total", &[]));
    ledger.set(
        "server.session_mb",
        after.sum("hb_session_bytes", &[]) / 1e6,
    );
}

/// The load path of every tenant design, traced in-process: the work
/// the daemon does for each `load` + `analyze` during set-up.
fn load_path_layers(ledger: &mut Ledger, tr: &mut Tracer, lib: &Library, tenants: &[&Tenant]) {
    for (i, t) in tenants.iter().enumerate() {
        let req = i as u64;
        let (l, report) = layers::verdict(tr, req, &t.text, lib).expect("tenant designs conform");
        let size = layers::probe_graph(tr, req, &l, lib);
        ledger.report(&report, size);
    }
    let bytes = tenants.iter().map(|t| t.text.len()).sum::<usize>() / tenants.len();
    ledger.spans(tr, None, bytes);
}

fn seconds(cfg: &Config) -> f64 {
    if cfg.quick {
        QUICK_SECONDS
    } else {
        cfg.seconds
    }
}

/// Sets the open-loop operation metrics.
fn read_latency(out: &mut Outcome, r: &mut Reads) {
    out.metrics.insert("op_p50_ms", r.due_ms.median());
    out.metrics.insert("op.p90_ms", r.due_ms.quantile(0.9));
}

fn tally(out: &mut Outcome, r: &Reads, deck: &Deck) {
    out.attempted += r.sent;
    out.failed += r.failed;
    out.mismatches += r.mismatches(deck);
    if r.misses > 0 {
        eprintln!(
            "hbbench: {} of {} reads failed or exceeded {LIMIT_MS} ms",
            r.misses, r.sent
        );
    }
}

pub fn fleet_reads(cfg: &Config) -> Outcome {
    let lib = sc89();
    let mut out = Outcome::default();
    let mut state = None;
    out.setup(|| {
        state = None;
        let tenants = hot_tenants(&lib, cfg);
        let daemon = prime(&tenants);
        state = Some((tenants, daemon));
    });
    let (tenants, mut daemon) = state.expect("set up");
    let all: Vec<&Tenant> = tenants.iter().collect();
    let deck = deck(&lib, &all, cfg.seed);
    let secs = seconds(cfg);

    if !cfg.trace {
        let cpu = daemon.cpu_seconds();
        let mut reads = open_loop(
            &daemon.addr,
            &deck,
            FLEET_RATE,
            secs,
            0,
            &mut Tracer::new(false),
        );
        let busy = daemon.cpu_seconds() - cpu;
        read_latency(&mut out, &mut reads);
        out.metrics
            .insert("throughput_per_s", reads.received as f64 / busy);
        tally(&mut out, &reads, &deck);
    } else {
        let mut ledger = Ledger::default();
        let mut tr = Tracer::new(true);
        load_path_layers(&mut ledger, &mut tr, &lib, &all);
        let mut untraced = open_loop(
            &daemon.addr,
            &deck,
            FLEET_RATE,
            secs / 2.0,
            0,
            &mut Tracer::new(false),
        );
        let before = daemon.scrape();
        let mut traced = open_loop(
            &daemon.addr,
            &deck,
            FLEET_RATE,
            secs / 2.0,
            untraced.sent,
            &mut tr,
        );
        let after = daemon.scrape();
        wire_layers(&mut ledger, &before, &after, &traced);
        generator_layers(&mut ledger, &traced);
        ledger.overhead = traced.due_ms.median() / untraced.due_ms.median();
        read_latency(&mut out, &mut untraced);
        tally(&mut out, &untraced, &deck);
        tally(&mut out, &traced, &deck);
        out.layers(ledger);
        out.tracer = Some(tr);
    }
    out.metrics.insert("peak_rss_mb", daemon.peak_rss_mb());
    daemon.shutdown();
    out
}

/// The `tenant-stall` load: open-loop reads on `hot0` beside a
/// closed-loop writer cycling `load` → `analyze` → `min-period` on the
/// `bulk` tenant over its own connection.
struct Stall<'a> {
    addr: &'a str,
    deck: &'a Deck,
    text: &'a str,
    /// The bulk tenant's `analyze` `worst=`/`ok=` and its `min-period`
    /// reply, from an in-process `Session` on the same text.
    analyze: (String, String),
    min_period: Vec<(String, String)>,
    quick: bool,
}

/// What the bulk writer saw.
#[derive(Default)]
struct Bulk {
    cycles_s: Samples,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl<'a> Stall<'a> {
    fn new(lib: &Library, addr: &'a str, deck: &'a Deck, text: &'a str, quick: bool) -> Self {
        let mut s = Session::new(lib.clone());
        let mut ask = |req: Frame| {
            let reply = s.handle(&req);
            assert_eq!(reply.verb, "ok", "oracle bulk {}", req.verb);
            reply
        };
        ask(Frame::new("load").with_payload(text.to_owned()));
        let a = ask(Frame::new("analyze"));
        let m = ask(Frame::new("min-period"));
        let arg = |k| a.get(k).unwrap_or_default().to_owned();
        Stall {
            addr,
            deck,
            text,
            analyze: (arg("worst"), arg("ok")),
            min_period: m.args,
            quick,
        }
    }

    /// The writer, until `seconds` have passed (one cycle when quick).
    fn bulk_cycles(&self, seconds: f64) -> Bulk {
        let mut c = Client::connect(self.addr).expect("connect the bulk writer");
        let requests = [
            Frame::new("load")
                .arg("design", "bulk")
                .with_payload(self.text.to_owned()),
            Frame::new("analyze").arg("design", "bulk"),
            Frame::new("min-period").arg("design", "bulk"),
        ];
        let mut bulk = Bulk::default();
        let t0 = Instant::now();
        while bulk.cycles_s.is_empty() || (!self.quick && t0.elapsed().as_secs_f64() < seconds) {
            let t = Instant::now();
            let replies: Vec<Frame> = requests
                .iter()
                .map(|req| c.request(req).expect("bulk request"))
                .collect();
            bulk.cycles_s.push(t.elapsed().as_secs_f64());
            bulk.attempted += replies.len() as u64;
            bulk.failed += replies.iter().filter(|r| r.verb != "ok").count() as u64;
            let a = &replies[1];
            let want = (Some(self.analyze.0.as_str()), Some(self.analyze.1.as_str()));
            if (a.get("worst"), a.get("ok")) != want || replies[2].args != self.min_period {
                bulk.mismatches += 1;
            }
        }
        bulk
    }

    /// Reads and writer side by side for `seconds`.
    fn window(&self, seconds: f64, first: u64, tr: &mut Tracer) -> (Reads, Bulk) {
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| self.bulk_cycles(seconds));
            let reads = open_loop(self.addr, self.deck, STALL_RATE, seconds, first, tr);
            (reads, writer.join().expect("bulk writer"))
        })
    }
}

fn tally_bulk(out: &mut Outcome, b: &Bulk) {
    out.attempted += b.attempted;
    out.failed += b.failed;
    out.mismatches += b.mismatches;
}

pub fn tenant_stall(cfg: &Config) -> Outcome {
    let lib = sc89();
    let mut out = Outcome::default();
    let mut state = None;
    out.setup(|| {
        state = None;
        let tenants = hot_tenants(&lib, cfg);
        let bulk = tenant(&lib, "bulk", tenant_cells(cfg), BULK_SEED);
        let mut daemon = prime(&tenants);
        daemon.request(&Frame::new("open").arg("design", "bulk"));
        state = Some((tenants, bulk, daemon));
    });
    let (tenants, bulk, mut daemon) = state.expect("set up");
    let deck = deck(&lib, &[&tenants[0]], cfg.seed);
    let addr = daemon.addr.clone();
    let stall = Stall::new(&lib, &addr, &deck, &bulk.text, cfg.quick);
    let secs = seconds(cfg);

    if !cfg.trace {
        let (mut reads, mut b) = stall.window(secs, 0, &mut Tracer::new(false));
        read_latency(&mut out, &mut reads);
        out.metrics
            .insert("throughput_per_s", 1.0 / b.cycles_s.median());
        tally(&mut out, &reads, &deck);
        tally_bulk(&mut out, &b);
    } else {
        let mut ledger = Ledger::default();
        let mut tr = Tracer::new(true);
        let mut designs: Vec<&Tenant> = tenants.iter().collect();
        designs.push(&bulk);
        load_path_layers(&mut ledger, &mut tr, &lib, &designs);
        let (mut untraced, b1) = stall.window(secs / 2.0, 0, &mut Tracer::new(false));
        let before = daemon.scrape();
        let (mut traced, b2) = stall.window(secs / 2.0, untraced.sent, &mut tr);
        let after = daemon.scrape();
        wire_layers(&mut ledger, &before, &after, &traced);
        generator_layers(&mut ledger, &traced);
        let d = |name: &str, labels: &[&str]| after.sum(name, labels) - before.sum(name, labels);
        let cycle_s = b2.cycles_s.sum();
        let handle_share = |verb: &str| {
            let verb = format!("verb=\"{verb}\"");
            d("hb_request_nanoseconds_sum", &[&verb, "stage=\"handle\""]) / 1e9 / cycle_s
        };
        ledger.set("server.load_share", handle_share("load"));
        ledger.set("server.analyze_share", handle_share("analyze"));
        ledger.set(
            "core.symbolic_share",
            d("hb_symbolic_build_nanoseconds_sum", &[]) / 1e9 / cycle_s,
        );
        ledger.set(
            "core.symbolic_regions",
            d("hb_symbolic_regions_total", &[]) / d("hb_symbolic_builds_total", &[]).max(1.0),
        );
        ledger.overhead = traced.due_ms.median() / untraced.due_ms.median();
        read_latency(&mut out, &mut untraced);
        tally(&mut out, &untraced, &deck);
        tally(&mut out, &traced, &deck);
        tally_bulk(&mut out, &b1);
        tally_bulk(&mut out, &b2);
        out.layers(ledger);
        out.tracer = Some(tr);
    }
    out.metrics.insert("peak_rss_mb", daemon.peak_rss_mb());
    drop(stall);
    daemon.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Three reads are announced and only the first is answered: the two
    /// lost ones fail, miss, and enter the latency samples no faster
    /// than the drain.
    #[test]
    fn reads_lost_in_the_drain_fail_and_count_as_slow() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        let (announce, announced) = mpsc::channel::<Tick>();
        let due = Instant::now();
        announce.send((0, 3, due, due)).expect("announce");
        drop(announce);
        server
            .write_all(Frame::new("ok").encode().as_bytes())
            .expect("answer the first read");
        let drain = Duration::from_millis(100);
        let mut r = read_replies(client, announced, drain, &mut Tracer::new(false));
        assert_eq!((r.received, r.failed, r.misses), (1, 2, 2));
        assert_eq!(r.due_ms.len(), 3);
        assert!(r.due_ms.median() >= 100.0, "{:?}", r.due_ms);
        // Open until here: a closed socket would end the reader early.
        drop(server);
    }
}
