//! The TCP transport suite: the `poll(2)` event loop and its design
//! workers.
//!
//! The load-bearing test is parity: one wire transcript — load,
//! analyze, ECO, single/multi-node slack, a batch frame, a malformed
//! header — is replayed through `serve_stream` and through the event
//! loop, and the reply streams must be byte-identical (after masking
//! the one volatile token, `seconds=`); the stdio loop must also
//! answer that transcript identically when it arrives in short and
//! stalled reads. The rest covers request pipelining, batched verbs, a
//! thousand concurrent connections on one thread, accept-side
//! shedding, the bounded per-connection buffer gauge, and the handoff
//! of write-path work to per-design workers: tenant isolation, reply
//! order, and `busy` past the lock deadline.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hb_cells::sc89;
use hb_fault::{Fault, FaultPlan, FaultStream, IO_READ_SHORT, IO_READ_STALL};
use hb_io::{Frame, FrameDecoder, FrameReader, ProtoError};
use hb_server::{serve_stream, Client, ServerOptions, Session};

mod common;
use common::{hum_text, latch_pipeline, serve};

/// Every net in the two-phase pipeline design — multi-node slack
/// targets.
const NETS: [&str; 15] = [
    "a0y", "a1y", "a2y", "a3y", "a4y", "a5y", "a6y", "a7y", "midq", "b0y", "b1y", "b2y", "b3y",
    "b4y", "dout",
];

fn design() -> String {
    std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap()
}

/// A latch pipeline whose `min-period` build, on the write path, takes
/// over half a second in a debug build.
fn slow_design() -> String {
    hum_text(&latch_pipeline(5, 12, 80))
}

/// A loaded, analyzed session over the pipeline design.
fn warm_client(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&Frame::new("load").with_payload(design()))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let reply = client.request(&Frame::new("analyze")).unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    client
}

/// A `batch` frame wrapping the given sub-requests.
fn batch_of(subs: &[Frame]) -> Frame {
    let mut body = String::new();
    for sub in subs {
        body.push_str(&sub.encode());
    }
    Frame::new("batch").with_payload(body)
}

/// Masks the value of every ` seconds=` argument — the only volatile
/// token in any reply — so transcripts from different runs compare
/// byte-for-byte.
/// Parses a wire slack value (`-1.250ns`) to nanoseconds.
fn ns(s: &str) -> f64 {
    s.trim_end_matches("ns").parse().unwrap()
}

fn mask_seconds(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find(" seconds=") {
        out.push_str(&rest[..pos]);
        out.push_str(" seconds=X");
        let after = &rest[pos + " seconds=".len()..];
        let end = after.find([' ', '\n']).unwrap_or(after.len());
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

/// The parity transcript: load, analyze, ECO, single/multi-node
/// slack, a batch frame, a malformed header, then `shutdown` — 14
/// requests.
fn parity_wire() -> Vec<u8> {
    let text = design();
    let subs = [
        Frame::new("hello"),
        Frame::new("slack").arg("node", "midq"),
        Frame::new("slack").arg("node", "a1y").arg("node", "dout"),
        Frame::new("worst-paths").arg("k", 2),
        Frame::new("dump"),
    ];
    let mut wire = Vec::new();
    for f in [
        Frame::new("hello"),
        Frame::new("load").with_payload(text),
        Frame::new("analyze"),
        Frame::new("slack").arg("node", "midq"),
        Frame::new("slack").arg("node", "mid"),
        Frame::new("eco")
            .arg("op", "resize")
            .arg("inst", "b0")
            .arg("steps", 1),
        Frame::new("analyze"),
        Frame::new("slack")
            .arg("node", "a3y")
            .arg("node", "b1y")
            .arg("node", "dout"),
        batch_of(&subs),
    ] {
        wire.extend_from_slice(f.encode().as_bytes());
    }
    // A recoverable protocol error mid-stream: both transports must
    // answer it and keep serving.
    wire.extend_from_slice(b"slack bogus\n");
    for f in [
        Frame::new("worst-paths").arg("k", 3),
        Frame::new("slack").arg("node", "nosuch"),
        Frame::new("dump"),
        Frame::new("shutdown"),
    ] {
        wire.extend_from_slice(f.encode().as_bytes());
    }
    wire
}

/// The parity satellite: the same wire transcript through the
/// blocking stream loop and through the reactor produces
/// byte-identical reply streams.
#[test]
fn reactor_replies_match_serve_stream_byte_for_byte() {
    let wire = parity_wire();
    let mut blocking = Vec::new();
    serve_stream(sc89(), std::io::Cursor::new(wire.clone()), &mut blocking).unwrap();

    let (addr, server) = serve(ServerOptions::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&wire).unwrap();
    let mut reacted = Vec::new();
    stream.read_to_end(&mut reacted).unwrap();
    server.join().unwrap().unwrap();

    let blocking = mask_seconds(&String::from_utf8(blocking).unwrap());
    let reacted = mask_seconds(&String::from_utf8(reacted).unwrap());
    assert_eq!(blocking, reacted, "transports diverged");

    // Sanity: one reply per request, including the malformed line.
    let mut replies = FrameReader::new(std::io::Cursor::new(reacted.into_bytes()));
    let mut count = 0usize;
    while replies.read_frame().unwrap().is_some() {
        count += 1;
    }
    assert_eq!(count, 14);
}

/// The stdio transport under what a pipe can do: the parity transcript
/// arrives through a 3-byte buffer in short and stalled reads, and the
/// replies match a whole-buffer run byte for byte. (`io.read.err` is
/// left out: its `WouldBlock` ends a stdio loop by design.)
#[test]
fn serve_stream_replies_survive_split_and_stalled_reads() {
    let wire = parity_wire();
    let mut whole = Vec::new();
    serve_stream(sc89(), std::io::Cursor::new(wire.clone()), &mut whole).unwrap();

    let plan = FaultPlan::seeded(0xDAC89)
        .with_stall(Duration::from_millis(1))
        .armed(IO_READ_SHORT, Fault::with_rate(50))
        .armed(IO_READ_STALL, Fault::with_rate(2).budget(10));
    let input = BufReader::with_capacity(
        3,
        FaultStream::reader(std::io::Cursor::new(wire), plan.clone()),
    );
    let mut split = Vec::new();
    serve_stream(sc89(), input, &mut split).unwrap();
    assert!(plan.fired(IO_READ_SHORT) > 0, "no short read fired");
    assert!(plan.fired(IO_READ_STALL) > 0, "no stall fired");

    let whole = mask_seconds(&String::from_utf8(whole).unwrap());
    let split = mask_seconds(&String::from_utf8(split).unwrap());
    assert_eq!(whole, split, "split reads changed the replies");
}

/// Pipelining: a window of requests written in one burst comes back
/// as in-order replies identical to their sequential twins.
#[test]
fn pipelined_window_replies_in_order() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = warm_client(addr);

    let sequential: Vec<Frame> = NETS
        .iter()
        .map(|net| {
            client
                .request(&Frame::new("slack").arg("node", *net))
                .unwrap()
        })
        .collect();

    let window: Vec<Frame> = (0..600)
        .map(|i| Frame::new("slack").arg("node", NETS[i % NETS.len()]))
        .collect();
    let replies = client.request_pipelined(&window).unwrap();
    assert_eq!(replies.len(), window.len());
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply, &sequential[i % NETS.len()], "reply {i} diverged");
    }

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Batched slack: the multi-node form reports every node and a
/// `worst` equal to the minimum of the individual slacks.
#[test]
fn multi_node_slack_aggregates_individuals() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = warm_client(addr);

    let mut multi = Frame::new("slack");
    for net in NETS {
        multi = multi.arg("node", net);
    }
    let reply = client.request(&multi).unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(reply.get("count"), Some(format!("{}", NETS.len()).as_str()));

    let body = reply.payload.clone().unwrap();
    let mut worst: Option<f64> = None;
    for net in NETS {
        let single = client
            .request(&Frame::new("slack").arg("node", net))
            .unwrap();
        let slack = single.get("slack").unwrap();
        let line = body
            .lines()
            .find(|l| l.starts_with(&format!("{net} ")))
            .unwrap_or_else(|| panic!("no line for {net}"));
        assert_eq!(
            line,
            format!("{net} {} {slack}", single.get("kind").unwrap()),
            "batched line diverged from the single-node reply"
        );
        let v = ns(slack);
        worst = Some(worst.map_or(v, |w: f64| w.min(v)));
    }
    let min = worst.unwrap();
    assert_eq!(
        ns(reply.get("worst").unwrap()),
        min,
        "worst= must be the minimum of the per-node slacks"
    );

    // An unknown node fails the whole multi-node request.
    let reply = client
        .request(&Frame::new("slack").arg("node", "a1y").arg("node", "nosuch"))
        .unwrap();
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("unknown-node"));

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// The `batch` frame: N sub-requests in one payload come back as one
/// reply whose payload decodes into exactly the sub-replies the verbs
/// would earn individually.
#[test]
fn batch_frame_matches_individual_replies() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = warm_client(addr);

    let mut subs = vec![Frame::new("hello"), Frame::new("worst-paths").arg("k", 2)];
    for net in NETS {
        subs.push(Frame::new("slack").arg("node", net));
    }
    subs.push(Frame::new("slack").arg("node", "nosuch")); // errors ride along

    let reply = client.request(&batch_of(&subs)).unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(reply.get("count"), Some(format!("{}", subs.len()).as_str()));
    assert_eq!(reply.get("errors"), Some("1"));

    let mut decoder = FrameDecoder::new();
    decoder.feed(reply.payload.clone().unwrap().as_bytes());
    let mut batched = Vec::new();
    while let Some(frame) = decoder.next_frame().unwrap() {
        batched.push(frame);
    }
    decoder.finish().unwrap();
    assert_eq!(batched.len(), subs.len());
    for (sub, got) in subs.iter().zip(&batched) {
        let want = client.request(sub).unwrap();
        assert_eq!(got, &want, "sub-reply for `{}` diverged", sub.verb);
    }

    // A mutating verb may not hide inside a batch.
    let reply = client.request(&batch_of(&[Frame::new("analyze")])).unwrap();
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("usage"), "{:?}", reply.payload);

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// One reactor thread holds a thousand live connections and still
/// answers every one of them.
#[test]
fn thousand_concurrent_connections_on_one_thread() {
    let options = ServerOptions {
        max_connections: 1200,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    let mut clients: Vec<Client> = (0..1000)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let reply = client.request(&Frame::new("hello")).unwrap();
        assert_eq!(reply.verb, "ok", "client {i}");
    }

    // The gauge sees them all at once.
    let reply = clients[0].request(&Frame::new("metrics")).unwrap();
    let exposition = reply.payload.unwrap();
    let live: i64 = exposition
        .lines()
        .find_map(|l| l.strip_prefix("hb_connections "))
        .expect("hb_connections in the exposition")
        .trim()
        .parse()
        .unwrap();
    assert!(live >= 1000, "gauge says {live} live connections");

    // Still responsive across the whole set after the burst.
    for client in clients.iter_mut().step_by(97) {
        assert_eq!(client.request(&Frame::new("hello")).unwrap().verb, "ok");
    }

    assert_eq!(
        clients[0].request(&Frame::new("shutdown")).unwrap().verb,
        "ok"
    );
    server.join().unwrap().unwrap();
}

/// Accept-side shedding: connections past the cap get the structured
/// `busy` frame and EOF, and a freed slot readmits new clients.
#[test]
fn over_cap_connections_are_shed_with_busy() {
    let options = ServerOptions {
        max_connections: 2,
        retry_after_ms: 7,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert_eq!(a.request(&Frame::new("hello")).unwrap().verb, "ok");
    assert_eq!(b.request(&Frame::new("hello")).unwrap().verb, "ok");

    let shed = TcpStream::connect(addr).unwrap();
    let mut replies = FrameReader::new(std::io::BufReader::new(shed));
    let reply = replies.read_frame().unwrap().expect("a shed reply");
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("busy"));
    assert_eq!(reply.get("retry_after_ms"), Some("7"));
    assert!(replies.read_frame().unwrap().is_none(), "then EOF");

    // Freeing a slot readmits; the backoff client gets through.
    drop(b);
    let reply = Client::request_with_backoff(addr, &Frame::new("hello"), 8).unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);

    assert_eq!(a.request(&Frame::new("shutdown")).unwrap().verb, "ok");
    server.join().unwrap().unwrap();
}

/// The buffer-bytes gauge satellite: sustained pipelined load settles
/// into a bounded per-connection footprint instead of growing with
/// request count.
#[test]
fn conn_buffers_reach_steady_state() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = warm_client(addr);

    let window: Vec<Frame> = (0..100)
        .map(|i| Frame::new("slack").arg("node", NETS[i % NETS.len()]))
        .collect();
    let gauge = |client: &mut Client| -> (i64, i64) {
        let stats = client.request(&Frame::new("stats")).unwrap();
        (
            stats.get("conn_buffer_bytes").unwrap().parse().unwrap(),
            stats
                .get("conn_buffer_peak_bytes")
                .unwrap()
                .parse()
                .unwrap(),
        )
    };

    for _ in 0..3 {
        client.request_pipelined(&window).unwrap();
    }
    let (warm, _) = gauge(&mut client);
    for _ in 0..20 {
        client.request_pipelined(&window).unwrap();
    }
    let (settled, peak) = gauge(&mut client);

    assert!(warm > 0, "the gauge must see live buffers");
    assert!(
        settled <= warm + 16 * 1024,
        "buffers grew under steady load: {warm} -> {settled}"
    );
    assert!(peak >= settled);
    assert!(
        peak < 4 * 1024 * 1024,
        "per-connection memory unbounded: peak {peak}"
    );

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Tenant isolation: while tenant `a` loads, analyzes and solves
/// `min-period` for a slow design on one connection, every read of the
/// default tenant on another connection is answered before `a`'s last
/// reply arrives. Judged by arrival order, not by the clock.
#[test]
fn one_tenants_build_never_stalls_anothers_reads() {
    let (addr, server) = serve(ServerOptions::default());
    let mut reader = warm_client(addr);
    let open = Frame::new("open").arg("design", "a");
    assert_eq!(reader.request(&open).unwrap().verb, "ok");

    let mut builder = TcpStream::connect(addr).unwrap();
    for f in [
        Frame::new("load").with_payload(slow_design()),
        Frame::new("analyze"),
        Frame::new("min-period"),
    ] {
        builder
            .write_all(f.arg("design", "a").encode().as_bytes())
            .unwrap();
    }
    let (arrived, order) = mpsc::channel();
    let built = {
        let arrived = arrived.clone();
        thread::spawn(move || {
            let mut replies = FrameReader::new(BufReader::new(builder));
            let got: Vec<Frame> = (0..3)
                .map(|_| replies.read_frame().unwrap().unwrap())
                .collect();
            arrived.send("build").unwrap();
            got
        })
    };
    for _ in 0..20 {
        let reply = reader
            .request(&Frame::new("slack").arg("node", "a1y"))
            .unwrap();
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        arrived.send("read").unwrap();
    }
    for reply in built.join().unwrap() {
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    }
    drop(arrived);
    let order: Vec<&str> = order.iter().collect();
    assert_eq!(
        order.last(),
        Some(&"build"),
        "a read waited behind the other tenant's build: {order:?}"
    );

    reader.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// Reply order across the handoff: one write carrying writes (run by
/// the design's worker) and reads (answered by the loop) gets every
/// reply in request order, and the read after the ECO sees it.
#[test]
fn pipelined_writes_and_reads_reply_in_order() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let slack = Frame::new("slack").arg("node", "a1y");
    let window = [
        Frame::new("load").with_payload(design()),
        Frame::new("analyze"),
        slack.clone(),
        Frame::new("eco")
            .arg("op", "scale-net")
            .arg("net", "a1y")
            .arg("percent", 300),
        slack,
    ];
    let replies = client.request_pipelined(&window).unwrap();

    let mut twin = Session::new(sc89());
    let strip = |f: &Frame| {
        let mut f = f.clone();
        f.args.retain(|(k, _)| k != "seconds");
        f
    };
    for (req, got) in window.iter().zip(&replies) {
        assert_eq!(strip(got), strip(&twin.handle(req)), "`{}`", req.verb);
    }
    assert_ne!(
        replies[2].get("slack"),
        replies[4].get("slack"),
        "the second slack must reflect the ECO"
    );

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// A write queued behind a long one on the same design is answered
/// `busy` at its lock deadline — while the long one still runs — and
/// never runs: the journal holds only the `load`.
#[test]
fn write_queued_past_the_lock_deadline_is_busy() {
    let options = ServerOptions {
        lock_deadline: Duration::from_millis(50),
        retry_after_ms: 9,
        // A 50 ms sweep tick, so the deadline is enforced on time.
        frame_deadline: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);
    let mut long = TcpStream::connect(addr).unwrap();
    let mut long_replies = FrameReader::new(BufReader::new(long.try_clone().unwrap()));
    let load = Frame::new("load").with_payload(slow_design());
    long.write_all(load.encode().as_bytes()).unwrap();
    assert_eq!(long_replies.read_frame().unwrap().unwrap().verb, "ok");

    long.write_all(Frame::new("min-period").encode().as_bytes())
        .unwrap();
    let mut queued = Client::connect(addr).unwrap();
    let reply = queued.request(&Frame::new("analyze")).unwrap();
    assert_eq!(reply.verb, "error", "{:?}", reply.payload);
    assert_eq!(reply.get("code"), Some("busy"));
    assert_eq!(reply.get("retry_after_ms"), Some("9"));
    long.set_nonblocking(true).unwrap();
    assert!(
        matches!(long_replies.read_frame(), Err(ProtoError::Io(e)) if e.kind() == ErrorKind::WouldBlock),
        "`busy` must not wait for the long write to finish"
    );
    long.set_nonblocking(false).unwrap();
    let reply = long_replies.read_frame().unwrap().unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);

    let designs = queued.request(&Frame::new("designs")).unwrap();
    let line = designs.payload.unwrap();
    assert!(line.contains(" journal=1 "), "{line}");

    queued.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}
