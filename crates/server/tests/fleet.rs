//! The multi-tenant fleet end to end: `design=` routing, the
//! `open`/`close`/`designs` management verbs, tenant isolation, and
//! LRU eviction under both bounds (`max_designs`, `mem_budget`) with
//! transparent journal reload.

use std::collections::HashMap;

use hb_cells::sc89;
use hb_io::Frame;
use hb_server::{Client, ServerOptions, DEFAULT_DESIGN, MAX_DESIGN_ID, MAX_LOAD_BYTES};
use hb_workloads::{generate, GenKind, GenParams};

mod common;
use common::serve;

/// A tiny self-contained design whose module name doubles as its
/// identity, so every tenant's dump and fingerprint differ.
fn design_text(name: &str) -> String {
    format!(
        "design {name}\n\
         module top\n\
         \x20 port in din clk\n\
         \x20 port out dout\n\
         \x20 inst g0 BUF_X1 A=din Y=n0\n\
         \x20 inst g1 INV_X1 A=n0 Y=n1\n\
         \x20 inst g2 XOR2_X1 A=n1 B=din Y=n2\n\
         \x20 inst cap DFF D=n2 CK=clk Q=dout\n\
         end\n\
         top top\n\
         clock clk period 10ns rise 0ns fall 5ns\n\
         clockport clk clk\n\
         arrive din clk rise 1ns\n"
    )
}

/// One line of a `designs` reply payload, parsed.
#[derive(Debug)]
struct DesignLine {
    resident: bool,
    bytes: usize,
    fp: String,
}

fn parse_designs(reply: &Frame) -> HashMap<String, DesignLine> {
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    reply
        .payload
        .as_deref()
        .unwrap_or("")
        .lines()
        .map(|line| {
            let mut parts = line.split_whitespace();
            let id = parts.next().unwrap().to_owned();
            let mut kv: HashMap<&str, &str> = parts.map(|p| p.split_once('=').unwrap()).collect();
            let line = DesignLine {
                resident: kv.remove("resident") == Some("1"),
                bytes: kv.remove("bytes").unwrap().parse().unwrap(),
                fp: kv.remove("fp").unwrap().to_owned(),
            };
            (id, line)
        })
        .collect()
}

#[test]
fn open_close_designs_lifecycle_and_isolation() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();

    // Open two tenants; re-opening is idempotent.
    let reply = client
        .request(&Frame::new("open").arg("design", "a"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(reply.get("created"), Some("1"));
    let reply = client
        .request(&Frame::new("open").arg("design", "b"))
        .unwrap();
    assert_eq!(reply.get("created"), Some("1"));
    let reply = client
        .request(&Frame::new("open").arg("design", "a"))
        .unwrap();
    assert_eq!(reply.get("created"), Some("0"));

    // Load different designs into each; the default stays empty.
    for id in ["a", "b"] {
        let reply = client
            .request(
                &Frame::new("load")
                    .arg("design", id)
                    .with_payload(design_text(id)),
            )
            .unwrap();
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        let reply = client
            .request(&Frame::new("analyze").arg("design", id))
            .unwrap();
        assert_eq!(reply.verb, "ok");
    }

    // Isolation: each tenant's stats and dump are its own.
    let stats_a = client
        .request(&Frame::new("stats").arg("design", "a"))
        .unwrap();
    assert_eq!(stats_a.get("design"), Some("a"));
    assert_eq!(stats_a.get("loads"), Some("1"));
    let dump_a = client
        .request(&Frame::new("dump").arg("design", "a"))
        .unwrap();
    let dump_b = client
        .request(&Frame::new("dump").arg("design", "b"))
        .unwrap();
    assert_ne!(dump_a.payload, dump_b.payload, "tenants must not share");
    // A request without design= still routes to the (empty) default.
    let reply = client.request(&Frame::new("dump")).unwrap();
    assert_eq!(reply.get("code"), Some("no-design"));

    // The table lists every design with its accounting.
    let reply = client.request(&Frame::new("designs")).unwrap();
    assert_eq!(reply.get("count"), Some("3"));
    let table = parse_designs(&reply);
    assert!(table.contains_key(DEFAULT_DESIGN));
    assert!(table["a"].resident && table["b"].resident);
    assert!(table["a"].bytes > table[DEFAULT_DESIGN].bytes);
    assert_ne!(table["a"].fp, "-", "a mutated design has a fingerprint");

    // Close: b goes away, the default is not closeable.
    let reply = client
        .request(&Frame::new("close").arg("design", "b"))
        .unwrap();
    assert_eq!(reply.verb, "ok");
    let reply = client
        .request(&Frame::new("stats").arg("design", "b"))
        .unwrap();
    assert_eq!(reply.get("code"), Some("unknown-design"));
    let reply = client
        .request(&Frame::new("close").arg("design", "b"))
        .unwrap();
    assert_eq!(reply.get("code"), Some("unknown-design"));
    let reply = client
        .request(&Frame::new("close").arg("design", DEFAULT_DESIGN))
        .unwrap();
    assert_eq!(reply.get("code"), Some("usage"));

    // a survived its sibling's close.
    let reply = client
        .request(&Frame::new("dump").arg("design", "a"))
        .unwrap();
    assert_eq!(reply.payload, dump_a.payload);

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn hostile_and_unknown_design_ids_get_structured_errors() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();

    // Routing to a design nobody opened: structured error, connection
    // survives.
    let reply = client
        .request(&Frame::new("analyze").arg("design", "nope"))
        .unwrap();
    assert_eq!(reply.verb, "error");
    assert_eq!(reply.get("code"), Some("unknown-design"));

    // Hostile ids are rejected at `open`, with the id sanitised in the
    // error payload rather than echoed raw. (Ids with whitespace,
    // NULs, or nothing at all cannot even be encoded as header tokens
    // — those raw-socket cases live in hb-io's error_paths suite.)
    for bad in ["semi;colon", "slash/id", &"x".repeat(MAX_DESIGN_ID + 1)] {
        let reply = client
            .request(&Frame::new("open").arg("design", bad))
            .unwrap();
        assert_eq!(reply.verb, "error", "id {bad:?}");
        assert_eq!(reply.get("code"), Some("usage"), "id {bad:?}");
    }
    // Dots, dashes, underscores are all fine.
    let reply = client
        .request(&Frame::new("open").arg("design", "soc_v2.rev-3"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);

    let reply = client.request(&Frame::new("hello")).unwrap();
    assert_eq!(reply.verb, "ok");
    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// The acceptance bound: under a 64-design storm with a small memory
/// budget, the resident set's combined footprint stays inside the
/// budget (the LRU tail is evicted), and an evicted design answers its
/// next request transparently — same dump, same fingerprint — via
/// journal reload.
#[test]
fn lru_eviction_respects_mem_budget_and_reloads_transparently() {
    const STORM: usize = 64;
    const BUDGET: usize = 24 * 1024;
    let options = ServerOptions {
        mem_budget: BUDGET,
        max_designs: STORM + 1,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);
    let mut client = Client::connect(addr).unwrap();

    for i in 0..STORM {
        let id = format!("d{i}");
        let reply = client
            .request(&Frame::new("open").arg("design", &id))
            .unwrap();
        assert_eq!(reply.verb, "ok");
        let reply = client
            .request(
                &Frame::new("load")
                    .arg("design", &id)
                    .with_payload(design_text(&id)),
            )
            .unwrap();
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        let reply = client
            .request(&Frame::new("analyze").arg("design", &id))
            .unwrap();
        assert_eq!(reply.verb, "ok");
    }

    let reply = client.request(&Frame::new("designs")).unwrap();
    assert_eq!(reply.get("count"), Some(format!("{}", STORM + 1).as_str()));
    let table = parse_designs(&reply);
    let resident_bytes: usize = table.values().filter(|l| l.resident).map(|l| l.bytes).sum();
    assert!(
        resident_bytes <= BUDGET,
        "resident set {resident_bytes}B exceeds the {BUDGET}B budget"
    );
    let evicted = table.values().filter(|l| !l.resident).count();
    assert!(evicted > 0, "a 64-design storm must evict something");
    // d0 is the coldest tenant; the storm must have evicted it.
    assert!(!table["d0"].resident, "LRU must evict the coldest design");
    let fp_before = table["d0"].fp.clone();
    assert_ne!(fp_before, "-");

    // The evictions were observed by the metrics layer.
    let metrics = client.request(&Frame::new("metrics")).unwrap();
    let body = metrics.payload.unwrap_or_default();
    let evictions: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("hb_evictions_total "))
        .expect("hb_evictions_total exported")
        .trim()
        .parse()
        .unwrap();
    assert!(evictions as usize >= evicted);

    // Touching the evicted design reloads it from its journal — the
    // reply is built from a session replay whose fingerprint is
    // verified against the journal's, so a non-error answer here *is*
    // the exactness proof.
    let reply = client
        .request(&Frame::new("dump").arg("design", "d0"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert!(reply.payload.unwrap().contains("design d0"));
    let reply = client
        .request(&Frame::new("slack").arg("design", "d0").arg("node", "n1"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);

    // The reload preserved the journal fingerprint verbatim.
    let table = parse_designs(&client.request(&Frame::new("designs")).unwrap());
    assert_eq!(table["d0"].fp, fp_before, "reload changed the fingerprint");

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// A generated 100k-cell tenant in a budgeted fleet: its `.hum` text
/// fits the load cap, its accounted footprint stays inside a stated
/// bound (and inside the budget), and after the LRU evicts it in
/// favour of small tenants, a journal replay reproduces the identical
/// fingerprint.
#[test]
fn big_generated_tenant_survives_eviction_with_identical_fingerprint() {
    const CELLS: usize = 100_000;
    const BUDGET: usize = 48 * 1024 * 1024;
    // approx_resident_bytes is a stable formula over cell/net counts;
    // at 100k cells (and ~100k nets) it lands between these bounds.
    const BYTES_LOW: usize = 20 * 1024 * 1024;
    const BYTES_HIGH: usize = 40 * 1024 * 1024;

    let lib = sc89();
    let w = generate(&lib, &GenParams::new(GenKind::Sram, CELLS, 1));
    let text = w.to_hum();
    assert!(
        text.len() <= MAX_LOAD_BYTES,
        "compact naming keeps a 100k-cell .hum ({} bytes) under the {MAX_LOAD_BYTES}-byte load cap",
        text.len()
    );

    let options = ServerOptions {
        mem_budget: BUDGET,
        max_designs: 2,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);
    let mut client = Client::connect(addr).unwrap();

    let reply = client
        .request(&Frame::new("open").arg("design", "big"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let reply = client
        .request(
            &Frame::new("load")
                .arg("design", "big")
                .with_payload(text.clone()),
        )
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let reply = client
        .request(&Frame::new("analyze").arg("design", "big"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);

    let table = parse_designs(&client.request(&Frame::new("designs")).unwrap());
    assert!(table["big"].resident);
    let bytes = table["big"].bytes;
    assert!(
        (BYTES_LOW..=BYTES_HIGH).contains(&bytes),
        "100k-cell session accounts {bytes} bytes, outside [{BYTES_LOW}, {BYTES_HIGH}]"
    );
    assert!(bytes <= BUDGET, "the big tenant must fit the budget alone");
    let fp_before = table["big"].fp.clone();
    assert_ne!(fp_before, "-");

    // The observability gauge agrees with the fleet table: everything
    // resident is the big tenant plus near-empty sessions.
    let metrics = client.request(&Frame::new("metrics")).unwrap();
    let gauge: usize = metrics
        .payload
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("hb_session_bytes "))
        .expect("hb_session_bytes exported")
        .trim()
        .parse()
        .unwrap();
    assert!(
        gauge >= bytes && gauge <= bytes + 64 * 1024,
        "hb_session_bytes {gauge} strays from the fleet table's {bytes}"
    );

    // Two small tenants push the big one off the 2-session LRU.
    for id in ["s0", "s1"] {
        client
            .request(&Frame::new("open").arg("design", id))
            .unwrap();
        let reply = client
            .request(
                &Frame::new("load")
                    .arg("design", id)
                    .with_payload(design_text(id)),
            )
            .unwrap();
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    }
    let table = parse_designs(&client.request(&Frame::new("designs")).unwrap());
    assert!(!table["big"].resident, "the big tenant must be evicted");
    assert_eq!(table["big"].fp, fp_before, "eviction must not lose state");

    // Touching it replays the journal; the replayed session must carry
    // the identical fingerprint and answer with the identical design.
    let reply = client
        .request(&Frame::new("stats").arg("design", "big"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    assert_eq!(reply.get("design"), Some("gen_sram"));
    let table = parse_designs(&client.request(&Frame::new("designs")).unwrap());
    assert!(table["big"].resident, "a touched design is resident again");
    assert_eq!(table["big"].fp, fp_before, "replay changed the fingerprint");
    assert_eq!(table["big"].bytes, bytes, "replay changed the footprint");

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// `max_designs` alone (no byte budget) also bounds the resident set.
#[test]
fn max_designs_bounds_the_resident_set() {
    let options = ServerOptions {
        max_designs: 2,
        ..ServerOptions::default()
    };
    let (addr, server) = serve(options);
    let mut client = Client::connect(addr).unwrap();

    for id in ["a", "b", "c", "d"] {
        client
            .request(&Frame::new("open").arg("design", id))
            .unwrap();
        let reply = client
            .request(
                &Frame::new("load")
                    .arg("design", id)
                    .with_payload(design_text(id)),
            )
            .unwrap();
        assert_eq!(reply.verb, "ok");
    }
    let reply = client.request(&Frame::new("designs")).unwrap();
    let live: usize = reply.get("live").unwrap().parse().unwrap();
    assert!(live <= 2, "resident set {live} exceeds max_designs=2");
    assert_eq!(reply.get("count"), Some("5"), "evicted designs stay open");

    // Every design still answers, resident or not.
    for id in ["a", "b", "c", "d"] {
        let reply = client
            .request(&Frame::new("stats").arg("design", id))
            .unwrap();
        assert_eq!(reply.verb, "ok", "{id}: {:?}", reply.payload);
        assert_eq!(reply.get("design"), Some(id));
    }

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}
