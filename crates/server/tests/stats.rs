//! `stats` accuracy: every request — read-lock-served or write-path —
//! lands in the counters. This pins the fix for the historical
//! undercount where queries answered under the read lock never
//! incremented `requests`.

use hb_cells::sc89;
use hb_io::Frame;
use hb_obs::parse_exposition;
use hb_server::{Client, ServerOptions};
use hb_workloads::fsm12;

mod common;
use common::{hum_text, serve};

#[test]
fn every_request_is_counted() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();

    let reply = client
        .request(&Frame::new("load").with_payload(hum_text(&fsm12(&sc89(), true))))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");

    const READS: u64 = 5; // worst-paths on a settled analysis: read lock
    const WRITES: u64 = 3; // analyze re-runs: write lock
    for _ in 0..READS {
        let reply = client
            .request(&Frame::new("worst-paths").arg("k", 2))
            .unwrap();
        assert_eq!(reply.verb, "ok");
    }
    for _ in 0..WRITES {
        assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");
    }

    // The ledger: load + (1 + WRITES) analyzes on the write path, READS
    // worst-paths on the read path, plus the stats request itself —
    // counted before it is answered, so it sees itself.
    let stats = client.request(&Frame::new("stats")).unwrap();
    assert_eq!(stats.verb, "ok");
    let get = |key: &str| stats.get(key).unwrap().parse::<u64>().unwrap();
    assert_eq!(get("read_requests"), READS + 1);
    assert_eq!(get("write_requests"), 2 + WRITES);
    assert_eq!(
        get("requests"),
        get("read_requests") + get("write_requests")
    );

    // The exposition parses and agrees with `stats` per verb.
    let reply = client.request(&Frame::new("metrics")).unwrap();
    assert_eq!(reply.verb, "ok");
    assert_eq!(reply.get("format"), Some("prometheus-text"));
    let samples = parse_exposition(reply.payload.as_deref().unwrap()).unwrap();
    let sample = |series: &str| {
        samples
            .iter()
            .find(|(name, _)| name == series)
            .map(|(_, value)| *value)
    };
    assert_eq!(
        sample(r#"hb_requests_total{path="read",verb="worst-paths"}"#),
        Some(READS as f64)
    );
    assert_eq!(
        sample(r#"hb_requests_total{path="write",verb="analyze"}"#),
        Some(1.0 + WRITES as f64)
    );
    assert_eq!(
        sample(r#"hb_requests_total{path="write",verb="load"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(r#"hb_requests_total{path="read",verb="stats"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(r#"hb_requests_total{path="read",verb="metrics"}"#),
        Some(1.0)
    );
    // Transport-level series: one live connection (which is also the
    // peak), and the byte meters have seen traffic.
    assert_eq!(sample("hb_connections"), Some(1.0));
    assert_eq!(sample(r#"hb_connections{watermark="peak"}"#), Some(1.0));
    assert!(sample("hb_bytes_read_total").unwrap() > 0.0);
    assert!(sample("hb_bytes_written_total").unwrap() > 0.0);

    assert_eq!(client.request(&Frame::new("shutdown")).unwrap().verb, "ok");
    drop(client);
    server.join().unwrap().unwrap();
}

/// The read path's lock-wait span ends once the read lock is held, so
/// it never contains the handling it precedes: `N` armed `slack` reads
/// record exactly `N` lock-wait samples, and their summed wait stays
/// below their summed handle time.
#[test]
fn read_path_lock_wait_excludes_handle() {
    hb_obs::arm();
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&Frame::new("load").with_payload(hum_text(&fsm12(&sc89(), true))))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");

    const READS: u64 = 40;
    for _ in 0..READS {
        let reply = client
            .request(&Frame::new("slack").arg("node", "next0"))
            .unwrap();
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    }

    let reply = client.request(&Frame::new("metrics")).unwrap();
    let samples = parse_exposition(reply.payload.as_deref().unwrap()).unwrap();
    let sample = |series: &str| {
        samples
            .iter()
            .find(|(name, _)| name == series)
            .map(|(_, value)| *value)
            .unwrap_or_else(|| panic!("missing series {series}"))
    };
    let wait = |what: &str| {
        sample(&format!(
            r#"hb_request_nanoseconds_{what}{{stage="lock_wait",verb="slack"}}"#
        ))
    };
    let handle = |what: &str| {
        sample(&format!(
            r#"hb_request_nanoseconds_{what}{{stage="handle",verb="slack"}}"#
        ))
    };
    assert_eq!(wait("count"), READS as f64, "one lock-wait sample per read");
    assert_eq!(handle("count"), READS as f64);
    assert!(
        wait("sum") < handle("sum"),
        "lock wait {} ns must exclude handle {} ns",
        wait("sum"),
        handle("sum")
    );

    assert_eq!(client.request(&Frame::new("shutdown")).unwrap().verb, "ok");
    drop(client);
    server.join().unwrap().unwrap();
}
