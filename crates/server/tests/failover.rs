//! Three-node failover chaos: seeded partition / kill / heal schedules
//! over a quorum cluster (one primary, two standbys, full peer wiring).
//!
//! The invariants, per ISSUE:
//!
//! 1. losing the primary — killed outright or cut off by an injected
//!    `repl.link.drop` partition — promotes **exactly one** standby,
//!    by majority-acked ranked election;
//! 2. a partitioned ex-primary is a *zombie*: the healed cluster
//!    rejects its stale term, and the moment it hears the new term it
//!    demotes, fences its own writes, and resyncs;
//! 3. after the schedule settles, every surviving node converges to
//!    the same design fingerprint — the new primary's.
//!
//! Schedules are seeded like the rest of the chaos suite: three fixed
//! seeds plus an optional fresh `HB_CHAOS_SEED` from check.sh, the
//! seed printed on failure. Seed parity picks kill vs partition, so
//! the fixed matrix exercises both.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use hb_cells::sc89;
use hb_fault::{Fault, FaultPlan};
use hb_io::Frame;
use hb_server::{Client, Server, ServerOptions};

mod common;
use common::{design_text, scale_eco, seeds};

fn request(addr: SocketAddr, req: &Frame) -> Frame {
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.request(req).unwrap()
}

fn design_fp(addr: SocketAddr) -> Option<String> {
    request(addr, &Frame::new("designs"))
        .payload
        .as_deref()
        .unwrap_or("")
        .lines()
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some("default")).then(|| {
                parts
                    .find_map(|p| p.strip_prefix("fp="))
                    .unwrap()
                    .to_owned()
            })
        })
}

fn role_of(addr: SocketAddr) -> String {
    request(addr, &Frame::new("stats"))
        .get("role")
        .expect("stats carries role=")
        .to_owned()
}

fn await_fp(addr: SocketAddr, want: &str, what: &str, seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while design_fp(addr).as_deref() != Some(want) {
        assert!(
            Instant::now() < deadline,
            "[seed {seed:#x}] {what}: node never converged to fp={want}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

fn await_role(addr: SocketAddr, want: &str, what: &str, seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while role_of(addr) != want {
        assert!(
            Instant::now() < deadline,
            "[seed {seed:#x}] {what}: node never reported role={want}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

struct Node {
    addr: SocketAddr,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

/// Binds and wires a full three-node cluster — A primary, B and C
/// standbys of A, every node carrying the other two as peers — then
/// serves each.
fn start_cluster(faults_on_primary: FaultPlan) -> (Node, Node, Node) {
    let standby = |primary: SocketAddr| ServerOptions {
        standby_of: Some(primary.to_string()),
        sync_interval: Duration::from_millis(25),
        promote_after: 3,
        ..ServerOptions::default()
    };
    let mut a = Server::bind(
        "127.0.0.1:0",
        sc89(),
        ServerOptions {
            faults: faults_on_primary,
            sync_interval: Duration::from_millis(25),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let a_addr = a.local_addr().unwrap();
    let mut b = Server::bind("127.0.0.1:0", sc89(), standby(a_addr)).unwrap();
    let b_addr = b.local_addr().unwrap();
    let mut c = Server::bind("127.0.0.1:0", sc89(), standby(a_addr)).unwrap();
    let c_addr = c.local_addr().unwrap();
    a.options_mut().unwrap().peers = vec![b_addr.to_string(), c_addr.to_string()];
    b.options_mut().unwrap().peers = vec![a_addr.to_string(), c_addr.to_string()];
    c.options_mut().unwrap().peers = vec![a_addr.to_string(), b_addr.to_string()];
    let spawn = |server: Server| thread::spawn(move || server.run());
    (
        Node {
            addr: a_addr,
            handle: spawn(a),
        },
        Node {
            addr: b_addr,
            handle: spawn(b),
        },
        Node {
            addr: c_addr,
            handle: spawn(c),
        },
    )
}

/// Polls both standbys until exactly one promotes; panics loudly on a
/// split brain. Returns `(winner, loser)`.
fn await_single_promotion(b: SocketAddr, c: SocketAddr, seed: u64) -> (SocketAddr, SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (rb, rc) = (role_of(b), role_of(c));
        match (rb.as_str(), rc.as_str()) {
            ("primary", "primary") => {
                panic!("[seed {seed:#x}] split brain: both standbys promoted")
            }
            ("primary", _) => return (b, c),
            (_, "primary") => return (c, b),
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "[seed {seed:#x}] no standby promoted"
                );
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// One seeded schedule: build the cluster, run a write workload, fail
/// the primary (kill or partition by seed parity), assert single
/// promotion, continue the flow on the winner, heal, and assert
/// convergence plus zombie fencing.
fn run_schedule(seed: u64) {
    let plan = FaultPlan::seeded(seed);
    let (a, b, c) = start_cluster(plan.clone());

    // Seeded workload on the primary.
    assert_eq!(
        request(a.addr, &Frame::new("load").with_payload(design_text("dut"))).verb,
        "ok"
    );
    assert_eq!(request(a.addr, &Frame::new("analyze")).verb, "ok");
    let pct = 90 + seed % 40;
    let reply = request(a.addr, &scale_eco("n0", pct));
    assert_eq!(reply.verb, "ok", "[seed {seed:#x}] {:?}", reply.payload);
    let want = design_fp(a.addr).unwrap();
    await_fp(b.addr, &want, "pre-fault catch-up (b)", seed);
    await_fp(c.addr, &want, "pre-fault catch-up (c)", seed);

    // The fault: even seeds partition the primary off its cluster
    // (client traffic still flows — the zombie case); odd seeds kill
    // it outright, mid-ECO-flow.
    let partition = seed.is_multiple_of(2);
    if partition {
        plan.arm(hb_fault::REPL_LINK_DROP, Fault::always());
        // The zombie keeps accepting writes it can no longer
        // replicate; they must die with its term.
        let reply = request(a.addr, &scale_eco("n1", 70));
        assert_eq!(reply.verb, "ok", "[seed {seed:#x}] zombie write");
    } else {
        request(a.addr, &Frame::new("shutdown"));
    }

    // Exactly one standby wins the election; the flow continues there.
    let (winner, loser) = await_single_promotion(b.addr, c.addr, seed);
    let reply = request(winner, &scale_eco("n1", 120));
    assert_eq!(
        reply.verb, "ok",
        "[seed {seed:#x}] post-failover write: {:?}",
        reply.payload
    );
    let stats = request(winner, &Frame::new("stats"));
    assert!(
        stats.get("term").unwrap().parse::<u64>().unwrap() >= 2,
        "[seed {seed:#x}] promotion must bump the term"
    );
    let want = design_fp(winner).unwrap();
    await_fp(loser, &want, "loser chains behind winner", seed);
    let reply = request(loser, &scale_eco("n1", 50));
    assert_eq!(
        reply.get("code"),
        Some("fenced"),
        "[seed {seed:#x}] the losing standby must stay fenced"
    );

    if partition {
        // Heal. The zombie gossips into the new term, demotes, drops
        // its divergent write, and resyncs behind the winner — its
        // fingerprint converges to the cluster's, and its writes are
        // now fenced with the new term.
        plan.disarm(hb_fault::REPL_LINK_DROP);
        await_role(a.addr, "standby", "zombie demotes on heal", seed);
        let reply = request(a.addr, &scale_eco("n0", 75));
        assert_eq!(
            reply.get("code"),
            Some("fenced"),
            "[seed {seed:#x}] healed zombie must reject writes: {:?}",
            reply.payload
        );
        assert!(
            reply.get("term").unwrap().parse::<u64>().unwrap() >= 2,
            "[seed {seed:#x}] fence must carry the new term"
        );
        await_fp(a.addr, &want, "zombie resyncs behind winner", seed);
    }

    // Teardown: winner first, then the rest (the survivors cannot
    // reach a majority and must stay standbys — no further probing).
    request(winner, &Frame::new("shutdown"));
    request(loser, &Frame::new("shutdown"));
    if partition {
        request(a.addr, &Frame::new("shutdown"));
    }
    for node in [a, b, c] {
        node.handle.join().unwrap().unwrap();
    }
}

#[test]
fn seeded_failover_schedules_reactor() {
    for seed in seeds() {
        run_schedule(seed);
    }
}
