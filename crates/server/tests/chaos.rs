//! Chaos suite: the daemon under injected faults.
//!
//! Three invariants, per ISSUE and DESIGN.md §7:
//!
//! 1. the daemon never hangs past its deadlines (slowloris frames are
//!    cut off, idle connections reaped, overload shed with `busy`);
//! 2. it never answers `poisoned` — panics are isolated or, when one
//!    escapes and genuinely poisons the session lock, the next writer
//!    clears the poison and recovers;
//! 3. after a recovery, analyze/slack answers are **bit-identical** to
//!    a cold run over the identically edited design.
//!
//! Fault plans are seeded, so every failure here reproduces from its
//! seed. `check.sh` runs the suite under three fixed seeds plus one
//! fresh `HB_CHAOS_SEED` and prints the seed on failure.
//!
//! Several tests install process-global fault plans or depend on fault
//! budgets shared through a server; everything serialises on one
//! static mutex so parallel test threads cannot cross-fire.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hb_cells::{sc89, Library};
use hb_fault::{install_global, Fault, FaultPlan, FaultStream};
use hb_io::{Frame, FrameReader, ProtoError};
use hb_server::{serve_stream, Client, ServerOptions, Session, MAX_LOAD_BYTES, MAX_WORST_PATHS};
use hb_workloads::{generate, GenKind, GenParams};

mod common;
use common::{
    design_text, hum_text, latch_pipeline, resizable_instance, resizable_instances, seeds, serve,
};

static CHAOS: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    // The whole suite runs with metrics armed: fault paths must hold
    // their invariants while the observability layer is live, not just
    // in the quiet disarmed configuration. (TCP tests arm anyway via
    // `Server::run`; this covers the Session/serve_stream tests too.)
    hb_obs::arm();
    // A panicking chaos test must not wedge the rest of the suite.
    CHAOS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A transparent-latch pipeline with a known resizable instance.
fn pipeline() -> (Library, String, String) {
    let lib = sc89();
    let w = latch_pipeline(4, 8, 60);
    let inst = resizable_instance(&w.design, w.module, &lib);
    (lib, hum_text(&w), inst)
}

fn eco_resize(inst: &str) -> Frame {
    Frame::new("eco")
        .arg("op", "resize")
        .arg("inst", inst)
        .arg("steps", 1)
}

/// Invariant 3: a warm session that recovered from an ECO panic and
/// re-applied the resize answers bit-identically to a cold session
/// over the same text and the same single ECO.
fn assert_matches_cold(
    lib: Library,
    text: String,
    inst: &str,
    warm_eco: &Frame,
    warm_paths: &Frame,
    warm_dump: &Frame,
) {
    let mut cold = Session::new(lib);
    assert_eq!(
        cold.handle(&Frame::new("load").with_payload(text)).verb,
        "ok"
    );
    assert_eq!(cold.handle(&Frame::new("analyze")).verb, "ok");
    let cold_eco = cold.handle(&eco_resize(inst));
    assert_eq!(cold_eco.verb, "ok", "{:?}", cold_eco.payload);
    let cold_paths = cold.handle(&Frame::new("worst-paths").arg("k", 20));
    let cold_dump = cold.handle(&Frame::new("dump"));

    // Bit-identical: design text, verdict, worst slack, period, paths.
    assert_eq!(warm_dump.payload, cold_dump.payload, "designs diverged");
    for key in ["ok", "worst", "period"] {
        assert_eq!(warm_eco.get(key), cold_eco.get(key), "eco {key} diverged");
    }
    assert_eq!(warm_paths.payload, cold_paths.payload, "paths diverged");
}

/// The transport fault matrix: short reads and writes, `Interrupted`
/// and `WouldBlock`, on `seed`'s schedule.
fn io_faults(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .armed(hb_fault::IO_READ_SHORT, Fault::with_rate(40))
        .armed(hb_fault::IO_READ_ERR, Fault::with_rate(25))
        .armed(hb_fault::IO_WRITE_SHORT, Fault::with_rate(40))
        .armed(hb_fault::IO_WRITE_ERR, Fault::with_rate(20))
}

/// A raw client connection whose both halves misbehave on a fault
/// plan's schedule.
struct FaultedClient {
    seed: u64,
    writes: FaultStream<std::io::Empty, TcpStream>,
    reads: FrameReader<std::io::BufReader<FaultStream<TcpStream, std::io::Sink>>>,
}

impl FaultedClient {
    fn connect(addr: SocketAddr, seed: u64) -> FaultedClient {
        let plan = io_faults(seed);
        let stream = TcpStream::connect(addr).unwrap();
        FaultedClient {
            seed,
            writes: FaultStream::new(std::io::empty(), stream.try_clone().unwrap(), plan.clone()),
            reads: FrameReader::new(std::io::BufReader::new(FaultStream::reader(stream, plan))),
        }
    }

    fn send(&mut self, req: &Frame) {
        // `write_all` retries Interrupted and loops short writes.
        self.writes.write_all(req.encode().as_bytes()).unwrap();
        self.writes.flush().unwrap();
    }

    fn request(&mut self, req: &Frame) -> Frame {
        self.send(req);
        let seed = self.seed;
        loop {
            match self.reads.read_frame() {
                Ok(Some(frame)) => return frame,
                Ok(None) => panic!("seed {seed:#x}: connection closed mid-matrix"),
                Err(ProtoError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // injected; partial frame is retained
                }
                Err(e) => panic!("seed {seed:#x}: {e}"),
            }
        }
    }
}

/// Invariant 2 + 3, panic-isolation flavour: an `eco` that panics
/// mid-mutation is answered with a structured `internal` error, the
/// session is rebuilt from the journal, and after re-issuing the ECO
/// every answer is bit-identical to a cold session over the same edit.
#[test]
fn eco_panic_recovers_bit_identical_to_cold() {
    let _guard = serialised();
    let (lib, text, inst) = pipeline();
    let faults = FaultPlan::seeded(0xDAC89).armed(hb_fault::SESSION_ECO_PANIC, Fault::once());
    let options = ServerOptions {
        faults,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);
    let mut client = Client::connect(addr).unwrap();

    let reply = client
        .request(&Frame::new("load").with_payload(text.clone()))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let reply = client.request(&Frame::new("analyze")).unwrap();
    assert_eq!(reply.verb, "ok");

    // The injected panic: isolated, recovered, never `poisoned`.
    let reply = client.request(&eco_resize(&inst)).unwrap();
    assert_eq!(reply.verb, "error", "{:?}", reply.payload);
    assert_eq!(reply.get("code"), Some("internal"));
    assert_eq!(reply.get("recovered"), Some("1"), "{:?}", reply.payload);

    // The session survived on the same connection and the rolled-back
    // ECO can be re-issued; the fault budget is spent so it applies.
    let warm_eco = client.request(&eco_resize(&inst)).unwrap();
    assert_eq!(warm_eco.verb, "ok", "{:?}", warm_eco.payload);
    let warm_paths = client
        .request(&Frame::new("worst-paths").arg("k", 20))
        .unwrap();
    assert_eq!(warm_paths.verb, "ok");
    let warm_dump = client.request(&Frame::new("dump")).unwrap();
    assert_eq!(warm_dump.verb, "ok");

    assert_matches_cold(lib, text, &inst, &warm_eco, &warm_paths, &warm_dump);

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Invariant 2+3 with a bystander tenant: the panicking ECO runs on
/// its design's worker thread, handed off by the event loop, and the
/// panic stays there — another tenant's connection, open on the same
/// loop throughout, answers identically before and after, and the
/// recovered session still matches its cold twin.
#[test]
fn reactor_eco_panic_recovers_bit_identical_to_cold() {
    let _guard = serialised();
    let (lib, text, inst) = pipeline();
    let faults = FaultPlan::seeded(0xDAC89).armed(hb_fault::SESSION_ECO_PANIC, Fault::once());
    let options = ServerOptions {
        faults,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    let side = |f: Frame| f.arg("design", "side");
    let mut bystander = Client::connect(addr).unwrap();
    let opened = bystander
        .request(&Frame::new("open").arg("design", "side"))
        .unwrap();
    assert_eq!(opened.verb, "ok", "{:?}", opened.payload);
    let loaded = bystander
        .request(&side(Frame::new("load").with_payload(design_text("side"))))
        .unwrap();
    assert_eq!(loaded.verb, "ok", "{:?}", loaded.payload);
    assert_eq!(
        bystander
            .request(&side(Frame::new("analyze")))
            .unwrap()
            .verb,
        "ok"
    );
    let side_reads = [
        side(Frame::new("slack").arg("node", "n1")),
        side(Frame::new("worst-paths").arg("k", 5)),
        side(Frame::new("dump")),
    ];
    let side_before: Vec<Frame> = side_reads
        .iter()
        .map(|f| bystander.request(f).unwrap())
        .collect();

    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&Frame::new("load").with_payload(text.clone()))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");

    // The injected panic: isolated on the worker, recovered, the loop
    // and every other connection survive.
    let reply = client.request(&eco_resize(&inst)).unwrap();
    assert_eq!(reply.verb, "error", "{:?}", reply.payload);
    assert_eq!(reply.get("code"), Some("internal"));
    assert_eq!(reply.get("recovered"), Some("1"), "{:?}", reply.payload);

    // The bystander's connection and tenant are untouched.
    for (req, before) in side_reads.iter().zip(&side_before) {
        let after = bystander.request(req).unwrap();
        assert_eq!(&after, before, "bystander's `{}` changed", req.verb);
    }

    // Same connection, fault budget spent: the ECO re-applies.
    let warm_eco = client.request(&eco_resize(&inst)).unwrap();
    assert_eq!(warm_eco.verb, "ok", "{:?}", warm_eco.payload);
    let warm_paths = client
        .request(&Frame::new("worst-paths").arg("k", 20))
        .unwrap();
    let warm_dump = client.request(&Frame::new("dump")).unwrap();
    assert_matches_cold(lib, text, &inst, &warm_eco, &warm_paths, &warm_dump);

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Panic isolation deep in the engine (global fault plan), through the
/// stdio transport: the analyze that panics mid-sweep earns a
/// recovered `internal` error and the next analyze matches a clean
/// session's answer.
#[test]
fn engine_sweep_panic_is_isolated_and_recovered() {
    let _guard = serialised();
    let (lib, text, _) = pipeline();

    install_global(FaultPlan::seeded(7).armed(hb_fault::ENGINE_SWEEP_PANIC, Fault::once()));
    let mut wire = Vec::new();
    for f in [
        Frame::new("load").with_payload(text.clone()),
        Frame::new("analyze"),
        Frame::new("analyze"),
        Frame::new("shutdown"),
    ] {
        wire.extend_from_slice(f.encode().as_bytes());
    }
    let mut out = Vec::new();
    let served = serve_stream(lib.clone(), std::io::Cursor::new(wire), &mut out);
    install_global(FaultPlan::none());
    served.unwrap();

    let mut replies = FrameReader::new(std::io::Cursor::new(out));
    let load = replies.read_frame().unwrap().unwrap();
    assert_eq!(load.verb, "ok", "{:?}", load.payload);
    let crashed = replies.read_frame().unwrap().unwrap();
    assert_eq!(crashed.verb, "error");
    assert_eq!(crashed.get("code"), Some("internal"));
    assert_eq!(crashed.get("recovered"), Some("1"), "{:?}", crashed.payload);
    let retried = replies.read_frame().unwrap().unwrap();
    assert_eq!(retried.verb, "ok", "{:?}", retried.payload);

    let mut clean = Session::new(lib);
    clean.handle(&Frame::new("load").with_payload(text));
    let baseline = clean.handle(&Frame::new("analyze"));
    assert_eq!(retried.get("worst"), baseline.get("worst"));
    assert_eq!(retried.get("period"), baseline.get("period"));
}

/// The report text of a reply without its engine line, whose reuse
/// counters are the only part a warm and a cold analysis may differ in.
fn report_text(reply: &Frame) -> String {
    let payload = reply.payload.as_deref().unwrap_or("");
    let lines = payload
        .lines()
        .filter(|l| !l.trim_start().starts_with("engine:"));
    lines.collect::<Vec<_>>().join("\n")
}

/// A sweep panic in the middle of an `eco`'s Algorithm 1 leaves nothing
/// behind that a later analysis could misread: the cache salvaged from
/// the half-finished analysis (holding the versions it had swept) warms
/// the journal replay, the client re-sends the rolled-back ECO, and a
/// second ECO's full report — verdict, report text, every traced path
/// and every net slack — is bit-identical to a cold analysis of the
/// twice-edited design.
#[test]
fn engine_panic_mid_eco_leaves_no_stale_state() {
    let _guard = serialised();
    let lib = sc89();
    // A violating latch pipeline: its Algorithm 1 runs every iteration.
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 1_000, 3));
    let text = w.to_hum();
    let insts = resizable_instances(&w.design, w.module, &lib);
    let (first, second) = (eco_resize(&insts[0]), eco_resize(&insts[insts.len() - 1]));
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&Frame::new("load").with_payload(text))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");

    // The third engine evaluation from here is the third cycle of the
    // ECO's Algorithm 1.
    install_global(FaultPlan::seeded(7).armed(hb_fault::ENGINE_SWEEP_PANIC, Fault::nth(3)));
    let crashed = client.request(&first).unwrap();
    install_global(FaultPlan::none());
    assert_eq!(crashed.verb, "error", "{:?}", crashed.payload);
    assert_eq!(crashed.get("code"), Some("internal"));
    assert_eq!(crashed.get("recovered"), Some("1"), "{:?}", crashed.payload);

    let retried = client.request(&first).unwrap();
    assert_eq!(retried.verb, "ok", "{:?}", retried.payload);
    assert_ne!(retried.get("ok"), Some("1"), "the design must violate");
    let warm = client.request(&second).unwrap();
    assert_eq!(warm.verb, "ok", "{:?}", warm.payload);
    let module = w.design.module(w.module);
    let mut slack = Frame::new("slack");
    for (_, net) in module.nets() {
        slack = slack.arg("node", net.name());
    }
    let paths = Frame::new("worst-paths").arg("k", 50);
    let warm_paths = client.request(&paths).unwrap();
    let warm_slacks = client.request(&slack).unwrap();
    let dump = client.request(&Frame::new("dump")).unwrap();
    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();

    let mut cold = Session::new(lib);
    let reply = cold.handle(&Frame::new("load").with_payload(dump.payload.unwrap()));
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let cold_report = cold.handle(&Frame::new("analyze"));
    assert_eq!(cold_report.verb, "ok", "{:?}", cold_report.payload);
    for key in ["ok", "worst", "period"] {
        assert_eq!(warm.get(key), cold_report.get(key), "{key} diverged");
    }
    assert_eq!(
        report_text(&warm),
        report_text(&cold_report),
        "reports diverged"
    );
    assert_eq!(
        warm_paths.payload,
        cold.handle(&paths).payload,
        "paths diverged"
    );
    let cold_slacks = cold.handle(&slack);
    assert_eq!(warm_slacks.verb, "ok", "{:?}", warm_slacks.payload);
    assert_eq!(
        warm_slacks.payload, cold_slacks.payload,
        "net slacks diverged"
    );
}

/// Three resize ECOs through a daemon on `options`, the second of which
/// panics (`arm` sets up the fault just before it is sent, `disarm`
/// clears it after) and is re-sent. The first ECO prepares cold and
/// keeps its prepared state; the panic strikes the ECO that would patch
/// it. After recovery the third ECO, which patches the recovered
/// session's state, must match a cold twin of the twice-edited design
/// in verdict, report text, every traced path and every net slack.
fn patched_eco_panic_matches_cold(options: ServerOptions, arm: impl Fn(), disarm: impl Fn()) {
    let lib = sc89();
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 1_000, 3));
    let insts = resizable_instances(&w.design, w.module, &lib);
    let n = insts.len();
    let ecos = [&insts[0], &insts[n / 2], &insts[n - 1]].map(|i| eco_resize(i));
    let (addr, server) = serve(options);
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&Frame::new("load").with_payload(w.to_hum()))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");
    let first = client.request(&ecos[0]).unwrap();
    assert_eq!(first.verb, "ok", "{:?}", first.payload);

    arm();
    let crashed = client.request(&ecos[1]).unwrap();
    disarm();
    assert_eq!(crashed.verb, "error", "{:?}", crashed.payload);
    assert_eq!(crashed.get("code"), Some("internal"));
    assert_eq!(crashed.get("recovered"), Some("1"), "{:?}", crashed.payload);
    let retried = client.request(&ecos[1]).unwrap();
    assert_eq!(retried.verb, "ok", "{:?}", retried.payload);

    let patched = || {
        let g = hb_obs::global();
        let help = "prepared analyses, by kind: cold from the design or patched in place";
        (g.counter_with("hb_prepare_total", help, &[("kind", "patched")])).get()
    };
    let before = patched();
    let warm = client.request(&ecos[2]).unwrap();
    assert_eq!(warm.verb, "ok", "{:?}", warm.payload);
    assert_eq!(
        patched(),
        before + 1,
        "the third ECO patches the resident state"
    );
    let mut slack = Frame::new("slack");
    for (_, net) in w.design.module(w.module).nets() {
        slack = slack.arg("node", net.name());
    }
    let paths = Frame::new("worst-paths").arg("k", 50);
    let warm_paths = client.request(&paths).unwrap();
    let warm_slacks = client.request(&slack).unwrap();
    let dump = client.request(&Frame::new("dump")).unwrap();
    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();

    let mut cold = Session::new(lib);
    let reply = cold.handle(&Frame::new("load").with_payload(dump.payload.unwrap()));
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let cold_report = cold.handle(&Frame::new("analyze"));
    assert_eq!(cold_report.verb, "ok", "{:?}", cold_report.payload);
    for key in ["ok", "worst", "period"] {
        assert_eq!(warm.get(key), cold_report.get(key), "{key} diverged");
    }
    assert_eq!(report_text(&warm), report_text(&cold_report));
    assert_eq!(warm_paths.payload, cold.handle(&paths).payload);
    let cold_slacks = cold.handle(&slack);
    assert_eq!(warm_slacks.verb, "ok", "{:?}", warm_slacks.payload);
    assert_eq!(warm_slacks.payload, cold_slacks.payload);
}

/// `session.eco.panic` in the second ECO — after its edit, before the
/// patch of the state the first ECO kept — drops that state with the
/// session, and the recovered session matches a cold twin.
#[test]
fn eco_panic_in_a_patching_eco_leaves_no_stale_state() {
    let _guard = serialised();
    let faults = FaultPlan::seeded(0xDAC89).armed(hb_fault::SESSION_ECO_PANIC, Fault::nth(2));
    let options = ServerOptions {
        faults,
        ..ServerOptions::default()
    };
    patched_eco_panic_matches_cold(options, || {}, || {});
}

/// `engine.sweep.panic` in the third engine evaluation of the second
/// ECO — its Algorithm 1, running on the just-patched state — leaves no
/// stale state either.
#[test]
fn engine_panic_in_a_patched_eco_leaves_no_stale_state() {
    let _guard = serialised();
    let arm =
        || install_global(FaultPlan::seeded(7).armed(hb_fault::ENGINE_SWEEP_PANIC, Fault::nth(3)));
    let disarm = || install_global(FaultPlan::none());
    patched_eco_panic_matches_cold(ServerOptions::default(), arm, disarm);
}

/// Invariant 1+codec: a client whose transport misbehaves on a seeded
/// schedule (short reads/writes, `Interrupted`, `WouldBlock`) still
/// gets byte-identical answers — the resumable frame reader loses no
/// partial progress over a real socket.
#[test]
fn faulted_client_transport_decodes_identically() {
    let _guard = serialised();
    let (_, text, _) = pipeline();
    let (addr, server) = serve(ServerOptions::default());

    // Baseline from a clean client.
    let mut clean = Client::connect(addr).unwrap();
    let requests = [
        Frame::new("hello"),
        Frame::new("load").with_payload(text),
        Frame::new("analyze"),
        Frame::new("worst-paths").arg("k", 5),
        Frame::new("stats"),
    ];
    let baseline: Vec<Frame> = requests.iter().map(|f| clean.request(f).unwrap()).collect();

    for seed in seeds() {
        let mut faulted = FaultedClient::connect(addr, seed);
        for (req, want) in requests.iter().zip(&baseline) {
            let got = faulted.request(req);
            assert_eq!(got.verb, want.verb, "seed {seed:#x}: verb diverged");
            assert_eq!(
                got.payload, want.payload,
                "seed {seed:#x}: payload diverged on `{}`",
                req.verb
            );
            for key in ["ok", "worst", "period", "clocks", "server"] {
                assert_eq!(got.get(key), want.get(key), "seed {seed:#x}: {key}");
            }
        }
    }

    clean.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Invariant 1+codec, event-loop side: the fault matrix fires on
/// *both* sides — the client's `FaultStream` and the loop's inline
/// injection points (`options.faults`) — and every reply is still
/// byte-identical to a clean baseline. Short reads and `WouldBlock`
/// mid-frame land in the push decoder's buffer, not on the floor.
#[test]
fn reactor_faulted_both_sides_decodes_identically() {
    let _guard = serialised();
    let (_, text, _) = pipeline();

    // Clean baseline from an unfaulted server.
    let requests = [
        Frame::new("hello"),
        Frame::new("load").with_payload(text),
        Frame::new("analyze"),
        Frame::new("worst-paths").arg("k", 5),
        Frame::new("slack")
            .arg("node", "s0b0")
            .arg("node", "s1b0")
            .arg("node", "s2b0"),
    ];
    let (addr, server) = serve(ServerOptions::default());
    let mut clean = Client::connect(addr).unwrap();
    let baseline: Vec<Frame> = requests.iter().map(|f| clean.request(f).unwrap()).collect();
    clean.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();

    for seed in seeds() {
        let options = ServerOptions {
            faults: io_faults(seed),
            ..ServerOptions::default()
        };
        let (addr, server) = serve(options);
        let mut faulted = FaultedClient::connect(addr, seed);
        for (req, want) in requests.iter().zip(&baseline) {
            let got = faulted.request(req);
            // Everything but the wall-clock `seconds` arg must match.
            let strip = |f: &Frame| {
                let mut f = f.clone();
                f.args.retain(|(k, _)| k != "seconds");
                f
            };
            assert_eq!(
                strip(&got),
                strip(want),
                "seed {seed:#x}: reply to `{}` diverged",
                req.verb
            );
        }
        faulted.send(&Frame::new("shutdown"));
        server.join().unwrap().unwrap();
    }
}

/// Invariant 1: a slowloris peer dripping a frame one byte at a time
/// is answered `error code=timeout` and cut off at the frame deadline;
/// a silent peer is reaped at the idle timeout. Neither stalls the
/// daemon for other clients.
#[test]
fn slowloris_and_idle_connections_are_reaped() {
    let _guard = serialised();
    let options = ServerOptions {
        frame_deadline: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(1200),
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    // Slowloris: drip an unterminated header forever.
    let start = Instant::now();
    let drip = TcpStream::connect(addr).unwrap();
    let mut replies = FrameReader::new(std::io::BufReader::new(drip.try_clone().unwrap()));
    let feeder = thread::spawn(move || {
        let mut drip = &drip;
        for byte in std::iter::repeat_n(b'a', 200) {
            if drip.write_all(&[byte]).is_err() {
                return; // server cut us off
            }
            thread::sleep(Duration::from_millis(40));
        }
    });
    let reply = replies.read_frame().unwrap().expect("a timeout reply");
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("timeout"));
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "frame deadline not enforced: {:?}",
        start.elapsed()
    );
    assert!(replies.read_frame().unwrap().is_none(), "must be cut off");
    feeder.join().unwrap();

    // Idle: connect, say nothing, get reaped.
    let start = Instant::now();
    let idle = TcpStream::connect(addr).unwrap();
    let mut replies = FrameReader::new(std::io::BufReader::new(idle));
    assert!(replies.read_frame().unwrap().is_none(), "reaped with EOF");
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(1000) && elapsed < Duration::from_secs(5),
        "idle reaper fired at {elapsed:?}, expected ~1.2s"
    );

    // The daemon itself never stalled.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request(&Frame::new("hello")).unwrap().verb, "ok");
    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Invariant 1, event-loop flavour: the loop's sweep keeps a clock per
/// connection, with no watchdog thread. A slowloris drip, a silent
/// peer and a steadily active client, all connected at once, are each
/// judged on their own clock: the drip is cut at the frame deadline,
/// the silent peer reaped at the idle timeout, and the active client,
/// whose requests keep resetting its idle clock, is never reaped.
#[test]
fn reactor_reaps_slowloris_and_idle_connections() {
    let _guard = serialised();
    let options = ServerOptions {
        frame_deadline: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(1200),
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    let start = Instant::now();
    let idle = TcpStream::connect(addr).unwrap();
    let drip = TcpStream::connect(addr).unwrap();
    let mut active = Client::connect(addr).unwrap();

    // Active: a request every 200 ms for twice the idle timeout.
    let pinger = thread::spawn(move || {
        for _ in 0..12 {
            let reply = active.request(&Frame::new("hello")).unwrap();
            assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
            thread::sleep(Duration::from_millis(200));
        }
        active
    });

    // Slowloris: drip an unterminated header forever.
    let mut replies = FrameReader::new(std::io::BufReader::new(drip.try_clone().unwrap()));
    let feeder = thread::spawn(move || {
        let mut drip = &drip;
        for byte in std::iter::repeat_n(b'a', 200) {
            if drip.write_all(&[byte]).is_err() {
                return; // the loop cut us off
            }
            thread::sleep(Duration::from_millis(40));
        }
    });
    let reply = replies.read_frame().unwrap().expect("a timeout reply");
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("timeout"));
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "frame deadline not enforced: {:?}",
        start.elapsed()
    );
    assert!(replies.read_frame().unwrap().is_none(), "must be cut off");
    feeder.join().unwrap();

    // Idle: said nothing since `start`, reaped on its own clock.
    let mut replies = FrameReader::new(std::io::BufReader::new(idle));
    assert!(replies.read_frame().unwrap().is_none(), "reaped with EOF");
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(1000) && elapsed < Duration::from_secs(5),
        "idle reaper fired at {elapsed:?}, expected ~1.2s"
    );

    // The active client outlived both and is still served.
    let mut active = pinger.join().unwrap();
    assert_eq!(active.request(&Frame::new("hello")).unwrap().verb, "ok");
    active.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Invariant 1, overload flavour: connections past the cap are shed
/// with `busy retry_after_ms=N` instead of queueing, and the client
/// backoff turns the shed into a delayed success once a slot frees.
#[test]
fn overload_is_shed_and_backoff_recovers() {
    let _guard = serialised();
    let options = ServerOptions {
        max_connections: 1,
        retry_after_ms: 50,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    let mut holder = Client::connect(addr).unwrap();
    assert_eq!(holder.request(&Frame::new("hello")).unwrap().verb, "ok");

    // Over the cap: an immediate structured shed, then EOF.
    let shed = TcpStream::connect(addr).unwrap();
    let mut replies = FrameReader::new(std::io::BufReader::new(shed));
    let reply = replies.read_frame().unwrap().expect("a shed reply");
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("busy"));
    assert_eq!(reply.get("retry_after_ms"), Some("50"));
    assert!(replies.read_frame().unwrap().is_none());

    // Free the slot shortly; the backoff client must get through.
    let release = thread::spawn(move || {
        thread::sleep(Duration::from_millis(300));
        drop(holder);
    });
    let reply = Client::request_with_backoff(addr, &Frame::new("stats"), 8).unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    release.join().unwrap();

    let reply = Client::request_with_backoff(addr, &Frame::new("shutdown"), 8).unwrap();
    assert_eq!(reply.verb, "ok");
    server.join().unwrap().unwrap();
}

/// Invariant 2, poisoned-lock flavour: `net.unwind.escape` lets an
/// injected ECO panic escape the isolation, ending its job and
/// genuinely poisoning the session lock. The next writer claims the
/// guard, clears the poison and recovers from the journal — the
/// daemon never answers `poisoned` and is not bricked.
#[test]
fn escaped_panic_poisons_lock_then_recovers() {
    let _guard = serialised();
    let (_, text, inst) = pipeline();
    // Write-path requests run load(1), analyze(2), eco(3): let the
    // third skip `catch_unwind` and panic inside the ECO.
    let faults = FaultPlan::seeded(3)
        .armed(hb_fault::NET_UNWIND_ESCAPE, Fault::nth(3))
        .armed(hb_fault::SESSION_ECO_PANIC, Fault::once());
    let options = ServerOptions {
        faults,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client
            .request(&Frame::new("load").with_payload(text))
            .unwrap()
            .verb,
        "ok"
    );
    let before = client.request(&Frame::new("analyze")).unwrap();
    assert_eq!(before.verb, "ok");

    // The escaped panic kills this connection without a reply.
    assert!(
        client.request(&eco_resize(&inst)).is_err(),
        "the unguarded panic must kill the connection"
    );

    // A fresh connection finds a recovered session, never `poisoned`.
    let mut fresh = Client::connect(addr).unwrap();
    let stats = fresh.request(&Frame::new("stats")).unwrap();
    assert_eq!(stats.verb, "ok", "{:?}", stats.payload);
    let after = fresh.request(&Frame::new("analyze")).unwrap();
    assert_eq!(after.verb, "ok", "{:?}", after.payload);
    // The half-applied ECO was rolled back to the journaled state.
    assert_eq!(after.get("worst"), before.get("worst"));
    assert_eq!(after.get("period"), before.get("period"));

    fresh.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Satellite: hostile request sizes earn `error code=limit`, not
/// unbounded allocation or formatting work.
#[test]
fn oversized_requests_hit_structured_limits() {
    let (lib, text, _) = pipeline();
    let mut session = Session::new(lib);
    assert_eq!(
        session.handle(&Frame::new("load").with_payload(text)).verb,
        "ok"
    );
    assert_eq!(session.handle(&Frame::new("analyze")).verb, "ok");

    let reply = session.handle(&Frame::new("worst-paths").arg("k", 4_000_000_000u64));
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("limit"), "{:?}", reply.payload);
    const { assert!(MAX_WORST_PATHS < 4_000_000_000) };

    let huge = "x".repeat(MAX_LOAD_BYTES + 1);
    let reply = session.handle(&Frame::new("load").with_payload(huge));
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("limit"), "{:?}", reply.payload);

    // The resident design survived the rejected load.
    assert_eq!(session.handle(&Frame::new("stats")).get("loads"), Some("1"));
}

/// Invariant 2+3, failover flavour: a primary takes an injected ECO
/// panic mid-flight (rolled back, recovered, never journaled), a warm
/// standby shadows it over journal-streaming replication, the primary
/// is then killed outright, and the promoted standby continues the
/// flow — with every answer bit-identical to one uninterrupted
/// session over the same edits, masking only the wall-clock
/// `seconds=` argument.
#[test]
fn failover_mid_eco_matches_uninterrupted_run() {
    let _guard = serialised();
    let (lib, text, inst) = pipeline();
    let faults = FaultPlan::seeded(0xDAC89).armed(hb_fault::SESSION_ECO_PANIC, Fault::once());
    let (primary, primary_handle) = serve(ServerOptions {
        faults,
        ..ServerOptions::default()
    });
    let (standby, standby_handle) = serve(ServerOptions {
        standby_of: Some(primary.to_string()),
        sync_interval: Duration::from_millis(25),
        promote_after: 3,
        ..ServerOptions::default()
    });
    let dut = |f: Frame| f.arg("design", "dut");
    // A real net of the workload, picked deterministically, for the
    // post-failover scale-net edit.
    let parsed = hb_io::parse_hum(&text, &lib).unwrap();
    let net = parsed
        .design
        .module(parsed.design.top().unwrap())
        .nets()
        .map(|(_, n)| n.name().to_owned())
        .next()
        .unwrap();
    let scale = || {
        Frame::new("eco")
            .arg("op", "scale-net")
            .arg("net", &net)
            .arg("percent", 120)
    };

    let mut client = Client::connect(primary).unwrap();
    assert_eq!(
        client
            .request(&Frame::new("open").arg("design", "dut"))
            .unwrap()
            .verb,
        "ok"
    );
    assert_eq!(
        client
            .request(&dut(Frame::new("load").with_payload(text.clone())))
            .unwrap()
            .verb,
        "ok"
    );
    assert_eq!(
        client.request(&dut(Frame::new("analyze"))).unwrap().verb,
        "ok"
    );

    // The chaos: the ECO panics mid-mutation on the primary. It is
    // rolled back and — crucially for the standby — never journaled,
    // so the shadow only ever sees acknowledged state.
    let reply = client.request(&dut(eco_resize(&inst))).unwrap();
    assert_eq!(reply.verb, "error", "{:?}", reply.payload);
    assert_eq!(reply.get("code"), Some("internal"));
    assert_eq!(reply.get("recovered"), Some("1"), "{:?}", reply.payload);
    // Re-issued with the fault budget spent, it applies.
    assert_eq!(client.request(&dut(eco_resize(&inst))).unwrap().verb, "ok");

    // Wait for the standby to report the primary's exact fingerprint.
    let fp_of = |client: &mut Client| {
        let reply = client.request(&Frame::new("designs")).unwrap();
        reply
            .payload
            .as_deref()
            .unwrap_or("")
            .lines()
            .find_map(|l| {
                let mut parts = l.split_whitespace();
                (parts.next() == Some("dut")).then(|| {
                    parts
                        .find_map(|p| p.strip_prefix("fp="))
                        .unwrap()
                        .to_owned()
                })
            })
    };
    let want_fp = fp_of(&mut client).expect("dut on the primary");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut shadow = Client::connect(standby).unwrap();
        if fp_of(&mut shadow).as_deref() == Some(want_fp.as_str()) {
            break;
        }
        assert!(Instant::now() < deadline, "standby never caught up");
        thread::sleep(Duration::from_millis(25));
    }

    // Kill the primary outright and let the standby promote (until it
    // does, its own writes stay fenced).
    client.request(&Frame::new("shutdown")).unwrap();
    primary_handle.join().unwrap().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut shadow = Client::connect(standby).unwrap();
        if shadow.request(&Frame::new("stats")).unwrap().get("role") == Some("primary") {
            break;
        }
        assert!(Instant::now() < deadline, "standby never promoted");
        thread::sleep(Duration::from_millis(25));
    }

    // The flow continues against the promoted standby.
    let mut shadow = Client::connect(standby).unwrap();
    let warm_eco = shadow.request(&dut(scale())).unwrap();
    assert_eq!(warm_eco.verb, "ok", "{:?}", warm_eco.payload);
    let warm_analyze = shadow.request(&dut(Frame::new("analyze"))).unwrap();
    let warm_slack = shadow
        .request(&dut(Frame::new("slack").arg("node", &net)))
        .unwrap();
    let warm_paths = shadow
        .request(&dut(Frame::new("worst-paths").arg("k", 10)))
        .unwrap();
    let warm_dump = shadow.request(&dut(Frame::new("dump"))).unwrap();

    // Uninterrupted twin: one session, the same edits, no panic, no
    // replication, no failover.
    let mut cold = Session::new(lib);
    assert_eq!(
        cold.handle(&Frame::new("load").with_payload(text)).verb,
        "ok"
    );
    assert_eq!(cold.handle(&Frame::new("analyze")).verb, "ok");
    assert_eq!(cold.handle(&eco_resize(&inst)).verb, "ok");
    let cold_eco = cold.handle(&scale());
    let cold_analyze = cold.handle(&Frame::new("analyze"));
    let cold_slack = cold.handle(&Frame::new("slack").arg("node", &net));
    let cold_paths = cold.handle(&Frame::new("worst-paths").arg("k", 10));
    let cold_dump = cold.handle(&Frame::new("dump"));

    // Bit-identical, masking only the wall-clock `seconds` argument
    // (and the routing `design` argument the twin never had).
    let strip = |f: &Frame| {
        let mut f = f.clone();
        f.args.retain(|(k, _)| k != "seconds" && k != "design");
        f
    };
    assert_eq!(strip(&warm_eco), strip(&cold_eco), "eco diverged");
    assert_eq!(
        strip(&warm_analyze),
        strip(&cold_analyze),
        "analyze diverged"
    );
    assert_eq!(strip(&warm_slack), strip(&cold_slack), "slack diverged");
    assert_eq!(strip(&warm_paths), strip(&cold_paths), "paths diverged");
    assert_eq!(strip(&warm_dump), strip(&cold_dump), "dump diverged");

    shadow.request(&Frame::new("shutdown")).unwrap();
    standby_handle.join().unwrap().unwrap();
}
