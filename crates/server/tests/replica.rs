//! Journal-streaming replication end to end: the `repl-state` /
//! `repl-pull` wire verbs, the warm-standby sync loop mirroring a
//! primary's fleet, epoch-driven resync after history rewrites, and
//! promotion after the primary dies.

use std::thread;
use std::time::{Duration, Instant};

use hb_cells::sc89;
use hb_io::{Frame, FrameDecoder};
use hb_server::{Client, Server, ServerOptions};

mod common;
use common::{design_text, scale_eco, serve};

fn standby_options(primary: std::net::SocketAddr) -> ServerOptions {
    ServerOptions {
        standby_of: Some(primary.to_string()),
        sync_interval: Duration::from_millis(25),
        promote_after: 3,
        ..ServerOptions::default()
    }
}

/// The fingerprint column of one design's `designs` line, or None if
/// the design is missing.
fn design_fp(client: &mut Client, id: &str) -> Option<String> {
    let reply = client.request(&Frame::new("designs")).unwrap();
    reply
        .payload
        .as_deref()
        .unwrap_or("")
        .lines()
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(id)).then(|| {
                parts
                    .find_map(|p| p.strip_prefix("fp="))
                    .unwrap()
                    .to_owned()
            })
        })
}

/// Polls `standby` until `id`'s fingerprint there equals `want`.
fn await_fp(standby: std::net::SocketAddr, id: &str, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(standby).unwrap();
        if design_fp(&mut client, id).as_deref() == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "standby never reached fp={want} for `{id}`"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// Polls `addr` until its `stats` reply reports `role=want`.
fn await_role(addr: std::net::SocketAddr, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = Client::connect(addr) {
            if let Ok(reply) = client.request(&Frame::new("stats")) {
                if reply.get("role") == Some(want) {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "node at {addr} never reported role={want}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// The pull protocol over the wire: entries stream as nested frames,
/// cursors advance, stale epochs force a resync from zero.
#[test]
fn repl_pull_streams_the_journal_with_epoch_resync() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();

    let text = design_text("alpha");
    for req in [
        Frame::new("load").with_payload(text),
        Frame::new("analyze"),
        scale_eco("n0", 120),
    ] {
        assert_eq!(client.request(&req).unwrap().verb, "ok");
    }

    // repl-state reports the default design's cursor.
    let state = client.request(&Frame::new("repl-state")).unwrap();
    assert_eq!(state.verb, "ok");
    assert_eq!(state.get("count"), Some("1"));
    let line = state.payload.as_deref().unwrap().lines().next().unwrap();
    let cols: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(cols[0], "default");
    let epoch = cols[1];
    assert_eq!(cols[2], "3", "load+analyze+eco journal");
    assert_ne!(cols[3], "-", "a mutated design has a fingerprint");

    // A cold replica (epoch 0, since 0) gets flagged resync and the
    // full history: three nested `entry` frames carrying the original
    // requests verbatim.
    let pull = client
        .request(
            &Frame::new("repl-pull")
                .arg("design", "default")
                .arg("epoch", 0)
                .arg("since", 0),
        )
        .unwrap();
    assert_eq!(pull.verb, "ok", "{:?}", pull.payload);
    assert_eq!(pull.get("resync"), Some("1"), "cold epoch must resync");
    assert_eq!(pull.get("count"), Some("3"));
    assert_eq!(pull.get("more"), Some("0"));
    assert_eq!(pull.get("fp"), Some(cols[3]), "complete page carries fp");
    let mut decoder = FrameDecoder::new();
    decoder.feed(pull.payload.as_deref().unwrap().as_bytes());
    let mut verbs = Vec::new();
    while let Some(entry) = decoder.next_frame().unwrap() {
        assert_eq!(entry.verb, "entry");
        assert_eq!(entry.get("expect"), Some("ok"));
        let mut inner = FrameDecoder::new();
        inner.feed(entry.payload.as_deref().unwrap().as_bytes());
        verbs.push(inner.next_frame().unwrap().unwrap().verb);
    }
    decoder.finish().unwrap();
    assert_eq!(verbs, ["load", "analyze", "eco"]);

    // A level replica pulling from its cursor gets an empty page.
    let pull = client
        .request(
            &Frame::new("repl-pull")
                .arg("design", "default")
                .arg("epoch", epoch)
                .arg("since", 3),
        )
        .unwrap();
    assert_eq!(pull.get("resync"), Some("0"));
    assert_eq!(pull.get("count"), Some("0"));

    // A fresh load rewrites history: the epoch moves and the stale
    // cursor is told to start over.
    let reply = client
        .request(&Frame::new("load").with_payload(design_text("beta")))
        .unwrap();
    assert_eq!(reply.verb, "ok");
    let pull = client
        .request(
            &Frame::new("repl-pull")
                .arg("design", "default")
                .arg("epoch", epoch)
                .arg("since", 3),
        )
        .unwrap();
    assert_eq!(pull.get("resync"), Some("1"));
    assert_eq!(pull.get("since"), Some("0"));
    assert_ne!(pull.get("epoch"), Some(epoch));

    // Errors are structured: unknown design, unparseable cursor.
    let reply = client
        .request(&Frame::new("repl-pull").arg("design", "ghost"))
        .unwrap();
    assert_eq!(reply.get("code"), Some("unknown-design"));
    let reply = client
        .request(
            &Frame::new("repl-pull")
                .arg("design", "default")
                .arg("epoch", "soon"),
        )
        .unwrap();
    assert_eq!(reply.get("code"), Some("usage"));

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// The full standby lifecycle: shadow the primary's designs (including
/// ones opened, mutated, re-loaded, and closed mid-stream), answer
/// queries from the warm shadow, and keep serving after the primary
/// dies — with the exact state the primary last acknowledged.
#[test]
fn standby_mirrors_mutations_and_survives_primary_death() {
    let (primary, primary_handle) = serve(ServerOptions::default());
    let (standby, standby_handle) = serve(standby_options(primary));
    let mut client = Client::connect(primary).unwrap();

    // Two tenants on the primary, each mutated past its load.
    for id in ["left", "right"] {
        assert_eq!(
            client
                .request(&Frame::new("open").arg("design", id))
                .unwrap()
                .verb,
            "ok"
        );
        for req in [
            Frame::new("load").with_payload(design_text(id)),
            Frame::new("analyze"),
            scale_eco("n0", 130),
        ] {
            let reply = client.request(&req.arg("design", id)).unwrap();
            assert_eq!(reply.verb, "ok", "{id}: {:?}", reply.payload);
        }
    }
    // One short-lived tenant the standby must prune again.
    client
        .request(&Frame::new("open").arg("design", "doomed"))
        .unwrap();

    // The standby catches up to the primary's exact fingerprints.
    let left_fp = design_fp(&mut client, "left").unwrap();
    let right_fp = design_fp(&mut client, "right").unwrap();
    await_fp(standby, "left", &left_fp);
    await_fp(standby, "right", &right_fp);

    // Shadows are warm and queryable, and byte-identical to the
    // primary's sessions.
    let mut shadow = Client::connect(standby).unwrap();
    for id in ["left", "right"] {
        let want = client
            .request(&Frame::new("dump").arg("design", id))
            .unwrap();
        let got = shadow
            .request(&Frame::new("dump").arg("design", id))
            .unwrap();
        assert_eq!(got.payload, want.payload, "{id}: shadow dump diverged");
        let got = shadow
            .request(&Frame::new("slack").arg("design", id).arg("node", "n1"))
            .unwrap();
        assert_eq!(got.verb, "ok", "{id}: {:?}", got.payload);
    }

    // A history rewrite (fresh load) and a close both propagate.
    client
        .request(&Frame::new("close").arg("design", "doomed"))
        .unwrap();
    let reply = client
        .request(
            &Frame::new("load")
                .arg("design", "left")
                .with_payload(design_text("left_v2")),
        )
        .unwrap();
    assert_eq!(reply.verb, "ok");
    let left_fp = design_fp(&mut client, "left").unwrap();
    await_fp(standby, "left", &left_fp);
    let deadline = Instant::now() + Duration::from_secs(10);
    while design_fp(&mut shadow, "doomed").is_some() {
        assert!(Instant::now() < deadline, "standby never pruned `doomed`");
        thread::sleep(Duration::from_millis(25));
    }
    let want_dump = client
        .request(&Frame::new("dump").arg("design", "left"))
        .unwrap();

    // Kill the primary mid-flight. After `promote_after` missed syncs
    // the standby promotes itself: same designs, same state, now
    // accepting writes of its own (until then its writes are fenced).
    client.request(&Frame::new("shutdown")).unwrap();
    primary_handle.join().unwrap().unwrap();
    await_role(standby, "primary");

    let got = shadow
        .request(&Frame::new("dump").arg("design", "left"))
        .unwrap();
    assert_eq!(
        got.payload, want_dump.payload,
        "failover lost acknowledged state"
    );
    let reply = shadow
        .request(&scale_eco("n0", 80).arg("design", "right"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    let reply = shadow
        .request(&Frame::new("analyze").arg("design", "right"))
        .unwrap();
    assert_eq!(reply.verb, "ok");

    // The post-failover write sticks: no zombie sync thread resets it.
    thread::sleep(Duration::from_millis(150));
    let stats = shadow
        .request(&Frame::new("stats").arg("design", "right"))
        .unwrap();
    assert_eq!(stats.get("ecos"), Some("2"), "{:?}", stats.payload);

    shadow.request(&Frame::new("shutdown")).unwrap();
    standby_handle.join().unwrap().unwrap();
}

/// A deeper design whose `load` entry dwarfs the page-bound floor, so
/// paging tests exercise real boundaries.
fn long_design(name: &str, stages: usize) -> String {
    let mut text = format!("design {name}\nmodule top\n\x20 port in din clk\n\x20 port out dout\n");
    let mut prev = "din".to_owned();
    for i in 0..stages {
        text.push_str(&format!("\x20 inst g{i} BUF_X1 A={prev} Y=n{i}\n"));
        prev = format!("n{i}");
    }
    text.push_str(&format!(
        "\x20 inst cap DFF D={prev} CK=clk Q=dout\nend\ntop top\n\
         clock clk period 10ns rise 0ns fall 5ns\nclockport clk clk\n\
         arrive din clk rise 1ns\n"
    ));
    text
}

/// The page bound is judged on the encoded `entry` wrapper frame that
/// actually lands in the payload: an entry fitting *exactly* at the
/// bound is included (not dropped, not shipped twice), one byte less
/// splits the page before it, and pages concatenate to the full
/// stream. Pins the off-by-one at the `max=` boundary.
#[test]
fn repl_pull_page_boundary_is_exact() {
    let (addr, server) = serve(ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();
    for req in [
        Frame::new("load").with_payload(long_design("paged", 80)),
        Frame::new("analyze"),
        scale_eco("n0", 120),
    ] {
        assert_eq!(client.request(&req).unwrap().verb, "ok");
    }

    let mut pull = |epoch: &str, since: usize, max: usize| {
        client
            .request(
                &Frame::new("repl-pull")
                    .arg("design", "default")
                    .arg("epoch", epoch)
                    .arg("since", since)
                    .arg("max", max),
            )
            .unwrap()
    };
    let full = pull("0", 0, hb_server::MAX_STREAM_BYTES);
    assert_eq!(full.get("count"), Some("3"));
    assert_eq!(full.get("more"), Some("0"));
    let epoch = full.get("epoch").unwrap().to_owned();
    let payload = full.payload.as_deref().unwrap().to_owned();

    // Measure each wrapped entry frame by re-encoding the decoded
    // stream; the codec is canonical, asserted by reassembly.
    let mut sizes = Vec::new();
    let mut decoder = FrameDecoder::new();
    decoder.feed(payload.as_bytes());
    let mut reassembled = String::new();
    while let Some(entry) = decoder.next_frame().unwrap() {
        let encoded = entry.encode();
        sizes.push(encoded.len());
        reassembled.push_str(&encoded);
    }
    assert_eq!(reassembled, payload, "entry re-encoding is canonical");
    assert!(sizes[0] > 1024, "load entry must exceed the min page bound");

    // Exactly the first two entries' bytes: both ship, third waits.
    let fit = sizes[0] + sizes[1];
    let page = pull(&epoch, 0, fit);
    assert_eq!(page.get("count"), Some("2"), "exact fit is included");
    assert_eq!(page.get("more"), Some("1"));
    assert_eq!(page.get("fp"), None, "partial page carries no fp");
    assert_eq!(page.payload.as_deref().unwrap().len(), fit);

    // One byte under: the second entry no longer fits.
    let page_short = pull(&epoch, 0, fit - 1);
    assert_eq!(page_short.get("count"), Some("1"), "one byte under splits");
    assert_eq!(page_short.get("more"), Some("1"));

    // The continuation cursor picks up precisely where the page ended:
    // no drop, no duplicate, pages concatenate to the full stream.
    let rest = pull(&epoch, 2, hb_server::MAX_STREAM_BYTES);
    assert_eq!(rest.get("count"), Some("1"));
    assert_eq!(rest.get("more"), Some("0"));
    assert!(rest.get("fp").is_some(), "complete page carries fp");
    let mut joined = page.payload.as_deref().unwrap().to_owned();
    joined.push_str(rest.payload.as_deref().unwrap());
    assert_eq!(joined, payload, "pages must concatenate losslessly");

    // A first entry bigger than the bound still ships whole (clamped
    // to the floor, the page can never starve).
    let oversized = pull(&epoch, 0, 1);
    assert_eq!(oversized.get("count"), Some("1"));
    assert_eq!(oversized.get("more"), Some("1"));

    client.request(&Frame::new("shutdown")).unwrap();
    server.join().unwrap().unwrap();
}

/// A standby configured with a small page bound resyncs a long journal
/// in many bounded pages — one page per `repl-pull` round trip — and
/// still converges to the primary's exact fingerprint.
#[test]
fn standby_resync_ships_bounded_pages() {
    let (primary, primary_handle) = serve(ServerOptions::default());
    let mut client = Client::connect(primary).unwrap();
    assert_eq!(
        client
            .request(&Frame::new("load").with_payload(long_design("paged", 60)))
            .unwrap()
            .verb,
        "ok"
    );
    assert_eq!(client.request(&Frame::new("analyze")).unwrap().verb, "ok");
    for i in 0..200 {
        let net = format!("n{}", i % 50);
        let reply = client.request(&scale_eco(&net, 102)).unwrap();
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    }

    let page_bytes = 2048usize;
    let (standby, standby_handle) = serve(ServerOptions {
        repl_page_bytes: page_bytes,
        ..standby_options(primary)
    });
    let want = design_fp(&mut client, "default").unwrap();
    await_fp(standby, "default", &want);

    // The standby's own counters show the resync was paged: several
    // round trips, each bounded (average page ≤ the configured bound
    // plus the one oversized `load` entry head page).
    let mut shadow = Client::connect(standby).unwrap();
    let metrics = shadow.request(&Frame::new("metrics")).unwrap();
    let text = metrics.payload.as_deref().unwrap();
    let scrape = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
    };
    let pages = scrape("hb_repl_pages_total");
    let bytes = scrape("hb_repl_bytes_total");
    assert!(pages >= 3, "a long journal must page: got {pages} pages");
    assert!(bytes > 0);
    assert!(
        bytes / pages <= 2 * page_bytes as u64,
        "pages must stay near the bound: {bytes} bytes over {pages} pages"
    );

    client.request(&Frame::new("shutdown")).unwrap();
    primary_handle.join().unwrap().unwrap();
    await_role(standby, "primary");
    shadow.request(&Frame::new("shutdown")).unwrap();
    standby_handle.join().unwrap().unwrap();
}

/// The standby reconnect schedule is the client's seeded decorrelated
/// jitter rebased to the sync interval: deterministic per seed, two
/// seeds diverge, and every wait stays inside [interval, 8×interval].
#[test]
fn standby_backoff_schedules_diverge_by_seed() {
    let interval = Duration::from_millis(25);
    let a = hb_server::standby_backoff_schedule(0xA11CE, interval, 16);
    let b = hb_server::standby_backoff_schedule(0xB0B, interval, 16);
    assert_eq!(
        a,
        hb_server::standby_backoff_schedule(0xA11CE, interval, 16),
        "same seed, same schedule"
    );
    assert_ne!(a, b, "different seeds must diverge");
    for wait in a.iter().chain(&b) {
        assert!(*wait >= interval, "wait below the sync interval: {wait:?}");
        assert!(*wait <= interval * 8, "wait past the cap: {wait:?}");
    }
}

/// While its primary lives, a standby fences every mutating verb with
/// a structured `error code=fenced term=N role=standby`, and both
/// nodes report their role and term on `stats` and `designs`.
#[test]
fn standby_fences_writes_and_reports_role() {
    let (primary, primary_handle) = serve(ServerOptions::default());
    let (standby, standby_handle) = serve(standby_options(primary));
    let mut client = Client::connect(primary).unwrap();
    assert_eq!(
        client
            .request(&Frame::new("load").with_payload(design_text("fenced")))
            .unwrap()
            .verb,
        "ok"
    );
    let want = design_fp(&mut client, "default").unwrap();
    await_fp(standby, "default", &want);

    let stats = client.request(&Frame::new("stats")).unwrap();
    assert_eq!(stats.get("role"), Some("primary"));
    assert_eq!(stats.get("term"), Some("1"));
    let designs = client.request(&Frame::new("designs")).unwrap();
    assert_eq!(designs.get("role"), Some("primary"));

    let mut shadow = Client::connect(standby).unwrap();
    let stats = shadow.request(&Frame::new("stats")).unwrap();
    assert_eq!(stats.get("role"), Some("standby"));
    assert_eq!(stats.get("term"), Some("1"), "adopted from the primary");

    // Every mutating verb is fenced; reads keep answering.
    for req in [
        Frame::new("load").with_payload(design_text("nope")),
        Frame::new("analyze"),
        scale_eco("n0", 120),
        Frame::new("open").arg("design", "side"),
    ] {
        let reply = shadow.request(&req).unwrap();
        assert_eq!(reply.verb, "error", "{:?}", reply.payload);
        assert_eq!(reply.get("code"), Some("fenced"));
        assert_eq!(reply.get("role"), Some("standby"));
        assert!(reply.get("term").is_some());
    }
    let reply = shadow
        .request(&Frame::new("slack").arg("node", "n1"))
        .unwrap();
    assert_eq!(reply.verb, "ok", "reads flow on a standby");

    // The fence shows up in the standby's counters.
    let metrics = shadow.request(&Frame::new("metrics")).unwrap();
    let text = metrics.payload.as_deref().unwrap();
    let fenced = text
        .lines()
        .find(|l| l.starts_with("hb_fenced_writes_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert_eq!(fenced, 4);

    client.request(&Frame::new("shutdown")).unwrap();
    primary_handle.join().unwrap().unwrap();
    await_role(standby, "primary");
    shadow.request(&Frame::new("shutdown")).unwrap();
    standby_handle.join().unwrap().unwrap();
}

/// Chained standbys: a standby serves the replication verbs itself, so
/// a second-tier standby syncing *from the first standby* converges to
/// the primary's exact state (primary → standby → standby).
#[test]
fn chained_standby_mirrors_through_intermediate() {
    let (primary, primary_handle) = serve(ServerOptions::default());
    let (mid, mid_handle) = serve(standby_options(primary));
    let (tail, tail_handle) = serve(ServerOptions {
        standby_of: Some(mid.to_string()),
        sync_interval: Duration::from_millis(25),
        promote_after: 3,
        ..ServerOptions::default()
    });

    let mut client = Client::connect(primary).unwrap();
    for req in [
        Frame::new("load").with_payload(design_text("chained")),
        Frame::new("analyze"),
        scale_eco("n0", 130),
        scale_eco("n1", 85),
    ] {
        assert_eq!(client.request(&req).unwrap().verb, "ok");
    }
    let want = design_fp(&mut client, "default").unwrap();
    await_fp(mid, "default", &want);
    await_fp(tail, "default", &want);

    // The tail's shadow is byte-identical to the primary's session.
    let want_dump = client.request(&Frame::new("dump")).unwrap();
    let mut tail_client = Client::connect(tail).unwrap();
    let got_dump = tail_client.request(&Frame::new("dump")).unwrap();
    assert_eq!(got_dump.payload, want_dump.payload, "chained dump diverged");

    // Both tiers are fenced.
    for node in [mid, tail] {
        let mut shadow = Client::connect(node).unwrap();
        let reply = shadow.request(&scale_eco("n0", 120)).unwrap();
        assert_eq!(reply.get("code"), Some("fenced"));
    }

    client.request(&Frame::new("shutdown")).unwrap();
    primary_handle.join().unwrap().unwrap();
    await_role(mid, "primary");
    Client::connect(mid)
        .unwrap()
        .request(&Frame::new("shutdown"))
        .unwrap();
    mid_handle.join().unwrap().unwrap();
    await_role(tail, "primary");
    tail_client.request(&Frame::new("shutdown")).unwrap();
    tail_handle.join().unwrap().unwrap();
}

/// The dual-standby kill: with peers configured, losing the primary
/// makes *exactly one* of two standbys promote (majority-acked ranked
/// election), the loser chains behind the winner, writes to the loser
/// stay fenced, and the winner's post-failover replies are
/// bit-identical to an uninterrupted single-session run.
#[test]
fn dual_standby_quorum_promotes_exactly_one() {
    let bind = |options: ServerOptions| Server::bind("127.0.0.1:0", sc89(), options).unwrap();
    let mut a = bind(ServerOptions::default());
    let mut b = bind(standby_options(a.local_addr().unwrap()));
    let mut c = bind(standby_options(a.local_addr().unwrap()));
    let (a_addr, b_addr, c_addr) = (
        a.local_addr().unwrap(),
        b.local_addr().unwrap(),
        c.local_addr().unwrap(),
    );
    a.options_mut().unwrap().peers = vec![b_addr.to_string(), c_addr.to_string()];
    b.options_mut().unwrap().peers = vec![a_addr.to_string(), c_addr.to_string()];
    c.options_mut().unwrap().peers = vec![a_addr.to_string(), b_addr.to_string()];
    let a_handle = thread::spawn(move || a.run());
    let b_handle = thread::spawn(move || b.run());
    let c_handle = thread::spawn(move || c.run());

    let mut client = Client::connect(a_addr).unwrap();
    let workload = [
        Frame::new("load").with_payload(design_text("quorum")),
        Frame::new("analyze"),
        scale_eco("n0", 130),
    ];
    for req in &workload {
        assert_eq!(client.request(req).unwrap().verb, "ok");
    }
    let want = design_fp(&mut client, "default").unwrap();
    await_fp(b_addr, "default", &want);
    await_fp(c_addr, "default", &want);

    // Kill the primary; poll until exactly one standby promotes.
    client.request(&Frame::new("shutdown")).unwrap();
    a_handle.join().unwrap().unwrap();
    let role_of = |addr: std::net::SocketAddr| -> String {
        let mut c = Client::connect(addr).unwrap();
        c.request(&Frame::new("stats"))
            .unwrap()
            .get("role")
            .unwrap()
            .to_owned()
    };
    let deadline = Instant::now() + Duration::from_secs(15);
    let (winner, loser) = loop {
        let (rb, rc) = (role_of(b_addr), role_of(c_addr));
        match (rb.as_str(), rc.as_str()) {
            ("primary", "primary") => panic!("split brain: both standbys promoted"),
            ("primary", _) => break (b_addr, c_addr),
            (_, "primary") => break (c_addr, b_addr),
            _ => {
                assert!(Instant::now() < deadline, "no standby promoted");
                thread::sleep(Duration::from_millis(25));
            }
        }
    };

    // The winner's term moved past the dead primary's; the loser stays
    // fenced and never co-promotes, even given extra time.
    let mut promoted = Client::connect(winner).unwrap();
    let stats = promoted.request(&Frame::new("stats")).unwrap();
    assert!(stats.get("term").unwrap().parse::<u64>().unwrap() >= 2);
    thread::sleep(Duration::from_millis(300));
    assert_eq!(role_of(loser), "standby", "exactly one node may promote");
    let mut fenced = Client::connect(loser).unwrap();
    let reply = fenced.request(&scale_eco("n1", 80)).unwrap();
    assert_eq!(reply.get("code"), Some("fenced"), "{:?}", reply.payload);

    // The flow continues on the winner; the loser chains behind it.
    let post = scale_eco("n1", 80);
    assert_eq!(promoted.request(&post).unwrap().verb, "ok");
    let want = design_fp(&mut promoted, "default").unwrap();
    await_fp(loser, "default", &want);

    // Bit-identical to one uninterrupted session over the same edits.
    let warm_dump = promoted.request(&Frame::new("dump")).unwrap();
    let mut cold = hb_server::Session::new(sc89());
    for req in workload.iter().chain([&post]) {
        assert_eq!(cold.handle(req).verb, "ok");
    }
    let cold_dump = cold.handle(&Frame::new("dump"));
    assert_eq!(
        warm_dump.payload, cold_dump.payload,
        "post-failover state diverged from the uninterrupted run"
    );

    // Tear down. Note the loser must NOT promote once the winner dies
    // too: a lone survivor of a three-node cluster can never reach a
    // majority — that asymmetry is the split-brain protection.
    promoted.request(&Frame::new("shutdown")).unwrap();
    thread::sleep(Duration::from_millis(300));
    assert_eq!(
        role_of(loser),
        "standby",
        "a lone survivor must stay fenced without a quorum"
    );
    let mut last = Client::connect(loser).unwrap();
    last.request(&Frame::new("shutdown")).unwrap();
    for handle in [b_handle, c_handle] {
        handle.join().unwrap().unwrap();
    }
}
