//! The TCP transport end to end: concurrent clients over loopback,
//! shared-session semantics, structured errors for hostile frames,
//! and a clean shutdown that drains in-flight connections.

use std::io::Write;
use std::net::TcpStream;
use std::thread;

use hb_cells::sc89;
use hb_io::{Frame, FrameReader};
use hb_server::{Client, ServerOptions};
use hb_workloads::fsm12;

mod common;
use common::{hum_text, serve};

#[test]
fn loopback_load_analyze_eco_query_shutdown() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();

    let reply = client.request(&Frame::new("hello")).unwrap();
    assert_eq!(reply.get("server"), Some("hummingbird"));

    let reply = client
        .request(&Frame::new("load").with_payload(hum_text(&fsm12(&sc89(), true))))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);

    let reply = client.request(&Frame::new("analyze")).unwrap();
    assert_eq!(reply.verb, "ok");
    let worst_before = reply.get("worst").unwrap().to_owned();

    // A second client sees the same resident session.
    let mut other = Client::connect(addr).unwrap();
    let reply = other.request(&Frame::new("stats")).unwrap();
    assert_eq!(reply.get("loads"), Some("1"));
    let reply = other
        .request(&Frame::new("worst-paths").arg("k", 3))
        .unwrap();
    assert_eq!(reply.verb, "ok");

    // ECO through one client; the other observes the new generation.
    let reply = client
        .request(
            &Frame::new("eco")
                .arg("op", "scale-net")
                .arg("net", "st0")
                .arg("percent", 150),
        )
        .unwrap();
    if reply.verb == "ok" {
        assert!(reply.get("items_reused").is_some());
    } else {
        // Net name is generator-dependent; unknown-node is the only
        // acceptable failure and must not kill the connection.
        assert_eq!(reply.get("code"), Some("eco"));
    }
    let reply = client.request(&Frame::new("analyze")).unwrap();
    assert_eq!(reply.verb, "ok");
    let _ = worst_before;

    // Malformed frame: structured error, connection survives.
    let reply = client.request(&Frame::new("slack")).unwrap();
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("usage"));
    let reply = client.request(&Frame::new("stats")).unwrap();
    assert_eq!(reply.verb, "ok");

    let reply = client.request(&Frame::new("shutdown")).unwrap();
    assert_eq!(reply.verb, "ok");
    server.join().unwrap().unwrap();
}

#[test]
fn hostile_bytes_get_structured_errors() {
    let (addr, server) = serve(ServerOptions::default());

    // Raw socket speaking garbage: malformed header → error frame,
    // connection stays up for a well-formed follow-up.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"slack node\n").unwrap();
    let mut replies = FrameReader::new(std::io::BufReader::new(raw.try_clone().unwrap()));
    let reply = replies.read_frame().unwrap().unwrap();
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("proto"));
    raw.write_all(b"hello\n").unwrap();
    let reply = replies.read_frame().unwrap().unwrap();
    assert_eq!(reply.verb, "ok");

    // An oversized payload declaration closes the connection after the
    // error reply (stream position is undefined past it)...
    raw.write_all(b"load payload=999999999999\n").unwrap();
    let reply = replies.read_frame().unwrap().unwrap();
    assert_eq!(reply.get("code"), Some("proto"));
    assert!(replies.read_frame().unwrap().is_none(), "connection closed");

    // ...but the server itself is unharmed.
    let mut client = Client::connect(addr).unwrap();
    let reply = client.request(&Frame::new("shutdown")).unwrap();
    assert_eq!(reply.verb, "ok");
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_slack_queries_share_the_session() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();
    client
        .request(&Frame::new("load").with_payload(hum_text(&fsm12(&sc89(), true))))
        .unwrap();
    let reply = client.request(&Frame::new("analyze")).unwrap();
    assert_eq!(reply.verb, "ok");

    // Hammer the settled analysis from several clients at once; every
    // query must answer consistently (read path, no serialisation
    // hazards).
    let workers: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut worsts = Vec::new();
                for _ in 0..25 {
                    let r = c.request(&Frame::new("worst-paths").arg("k", 1)).unwrap();
                    assert_eq!(r.verb, "ok");
                    let s = c.request(&Frame::new("stats")).unwrap();
                    assert_eq!(s.verb, "ok");
                    worsts.push(r.payload.unwrap_or_default());
                }
                worsts
            })
        })
        .collect();
    let mut all: Vec<String> = Vec::new();
    for w in workers {
        all.extend(w.join().unwrap());
    }
    assert!(all.windows(2).all(|p| p[0] == p[1]), "answers must agree");

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}
