//! Daemon-mode benchmark: queries/sec and request latency through the
//! `hummingbird serve` TCP loop, plus the cost of a warm ECO
//! re-analysis against a cold one-shot analysis of the same design.
//!
//! Runs an in-process server on a loopback socket, drives it with the
//! blocking [`Client`], and writes `BENCH_server.json`. Run with
//! `cargo run --release -p hb-bench --bin server_bench`. Every section
//! runs the one TCP transport, the `poll(2)` event loop: sequential
//! request/reply (`slack_query`, the `fleet` sweep), and in the
//! `reactor` section pipelined windows, batched multi-node `slack`
//! requests (the ≥1M-queries/sec path), and a concurrent-connection
//! sweep with thousands of idle peers polling alongside the hot
//! connection.
//!
//! Flags: `--quick` shrinks every iteration count and caps the sweep
//! (for smoke tests and the qps regression gate), `--out PATH`
//! redirects the JSON (default `BENCH_server.json`).

use std::fmt::Write as _;
use std::net::TcpStream;
use std::time::Instant;

use hb_cells::{sc89, Binding, Library};
use hb_io::Frame;
use hb_netlist::InstRef;
use hb_server::{directives_from_spec, raise_nofile_limit, Client, Server, ServerOptions};
use hb_workloads::{des_like, random_pipeline, PipelineParams, Workload};

const COLD_ITERS: usize = 5;
const SLACK_ITERS: usize = 200;
const ECO_ITERS: usize = 40;

/// Single-node slack frames per pipelined window.
const PIPELINE_WINDOW: usize = 512;
/// Nodes per batched multi-node slack request.
const BATCH_NODES: usize = 256;
/// Batched requests per pipelined window.
const BATCH_WINDOW: usize = 16;

struct Latencies(Vec<f64>);

impl Latencies {
    fn measure(n: usize, mut f: impl FnMut()) -> Latencies {
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_secs_f64());
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        Latencies(samples)
    }

    fn p50(&self) -> f64 {
        self.0[self.0.len() / 2]
    }

    fn p99(&self) -> f64 {
        self.0[(self.0.len() * 99 / 100).min(self.0.len() - 1)]
    }

    fn qps(&self) -> f64 {
        self.0.len() as f64 / self.0.iter().sum::<f64>()
    }
}

/// The first leaf instance with drive headroom — the resize target.
fn resizable_instance(w: &Workload, lib: &Library) -> String {
    let binding = Binding::new(&w.design, lib);
    let module = w.design.module(w.module);
    for (_, inst) in module.instances() {
        let InstRef::Leaf(leaf) = inst.target() else {
            continue;
        };
        let Some(cell) = binding.cell_for_leaf(leaf) else {
            continue;
        };
        let variants = lib.family_variants(lib.cell(cell).family());
        let pos = variants.iter().position(|&v| v == cell).expect("bound");
        if pos + 1 < variants.len() {
            return inst.name().to_owned();
        }
    }
    panic!("workload has no resizable instance");
}

fn expect_ok(reply: &Frame, what: &str) {
    assert_eq!(
        reply.verb,
        "ok",
        "{what} failed: {:?}",
        reply.payload.as_deref().unwrap_or("")
    );
}

/// One reactor measurement: `requests` served over `elapsed` seconds
/// with per-request latency percentiles derived from window round
/// trips.
struct Throughput {
    requests: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives `windows` pipelined windows of `frames` down the client and
/// reports per-request throughput (each window is one write + one
/// in-order reply burst, so per-request latency is the window round
/// trip divided by its frame count).
fn pipelined(
    client: &mut Client,
    frames: &[Frame],
    windows: usize,
    per_frame: usize,
) -> Throughput {
    let lat = Latencies::measure(windows, || {
        let replies = client.request_pipelined(frames).expect("pipelined replies");
        assert_eq!(replies.len(), frames.len());
        for reply in &replies {
            assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        }
    });
    let requests = windows * frames.len() * per_frame;
    let total: f64 = lat.0.iter().sum();
    let scale = (frames.len() * per_frame) as f64;
    Throughput {
        requests,
        qps: requests as f64 / total,
        p50_ms: lat.p50() * 1e3 / scale,
        p99_ms: lat.p99() * 1e3 / scale,
    }
}

/// The multi-tenant fleet section: mixed slack queries striped across
/// N resident designs (the session-table routing and per-design lock
/// cost), then an eviction storm where 64 designs share 8 resident
/// slots and queries transparently reload evicted designs from their
/// journals.
fn bench_fleet(lib: &Library, quick: bool, json: &mut String) {
    // A small per-design workload keeps the 256-design level
    // affordable: the cost under test is routing, locking, and
    // eviction, not the analysis itself.
    let w = random_pipeline(
        lib,
        PipelineParams {
            stages: 3,
            width: 4,
            gates_per_stage: 40,
            transparent: false,
            period_ns: 20,
            seed: 707,
            imbalance_pct: 25,
        },
    );
    let text = hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec));
    let probe = w
        .design
        .module(w.module)
        .nets()
        .next()
        .expect("nets")
        .1
        .name()
        .to_owned();

    // Opens `fleet{i}`, loads the shared design, settles its analysis.
    let prime = |client: &mut Client, i: usize| {
        let id = format!("fleet{i}");
        expect_ok(
            &client
                .request(&Frame::new("open").arg("design", id.clone()))
                .expect("open reply"),
            "open",
        );
        for req in [
            Frame::new("load").with_payload(text.clone()),
            Frame::new("analyze"),
        ] {
            expect_ok(
                &client
                    .request(&req.arg("design", id.clone()))
                    .expect("fleet reply"),
                "fleet prime",
            );
        }
    };

    // -- The sweep: the same query striped over a growing fleet. --
    let options = ServerOptions {
        max_designs: 512,
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", lib.clone(), options).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");

    let levels: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64, 256] };
    let iters = if quick { 150 } else { 1500 };
    let mut opened = 0usize;
    let mut sweep: Vec<(usize, Latencies)> = Vec::new();
    for &level in levels {
        while opened < level {
            prime(&mut client, opened);
            opened += 1;
        }
        let mut turn = 0usize;
        let lat = Latencies::measure(iters, || {
            let req = Frame::new("slack")
                .arg("design", format!("fleet{}", turn % level))
                .arg("node", probe.clone());
            expect_ok(&client.request(&req).expect("slack reply"), "fleet slack");
            turn += 1;
        });
        eprintln!(
            "fleet sweep {level:>3} designs: {:.0} qps (p50 {:.4} ms)",
            lat.qps(),
            lat.p50() * 1e3
        );
        sweep.push((level, lat));
    }
    expect_ok(
        &client
            .request(&Frame::new("shutdown"))
            .expect("shutdown reply"),
        "shutdown",
    );
    daemon.join().expect("fleet thread").expect("fleet exit");

    // -- Eviction storm: 64 tenants, 8 resident slots. --
    let storm_designs = if quick { 16 } else { 64 };
    let options = ServerOptions {
        max_designs: 8,
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", lib.clone(), options).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..storm_designs {
        prime(&mut client, i);
    }
    let storm_iters = if quick { 48 } else { 192 };
    let mut turn = 0usize;
    // Stride co-prime with the fleet so consecutive queries never hit
    // the same residency window — every query risks a reload.
    let storm = Latencies::measure(storm_iters, || {
        let req = Frame::new("slack")
            .arg("design", format!("fleet{}", (turn * 13) % storm_designs))
            .arg("node", probe.clone());
        expect_ok(&client.request(&req).expect("slack reply"), "storm slack");
        turn += 1;
    });
    let metrics = client.request(&Frame::new("metrics")).expect("metrics");
    let evictions: u64 = metrics
        .payload
        .as_deref()
        .unwrap_or("")
        .lines()
        .find_map(|l| l.strip_prefix("hb_evictions_total "))
        .expect("eviction counter")
        .trim()
        .parse()
        .expect("counter value");
    expect_ok(
        &client
            .request(&Frame::new("shutdown"))
            .expect("shutdown reply"),
        "shutdown",
    );
    daemon.join().expect("storm thread").expect("storm exit");

    let _ = writeln!(json, "  \"fleet\": {{");
    let _ = writeln!(json, "    \"workload\": \"{}\",", w.name);
    let _ = writeln!(json, "    \"designs_sweep\": [");
    for (i, (level, lat)) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"designs\": {level}, \"queries_per_second\": {:.1}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}{}",
            lat.qps(),
            lat.p50() * 1e3,
            lat.p99() * 1e3,
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ],");
    // The gated number: routing qps with 8 resident tenants (present
    // in both quick and full runs, so check.sh can compare them).
    let fleet8 = &sweep.iter().find(|(l, _)| *l == 8).expect("level 8").1;
    let _ = writeln!(json, "    \"fleet8\": {{");
    let _ = writeln!(json, "      \"requests\": {iters},");
    let _ = writeln!(json, "      \"queries_per_second\": {:.1},", fleet8.qps());
    let _ = writeln!(json, "      \"p50_ms\": {:.4},", fleet8.p50() * 1e3);
    let _ = writeln!(json, "      \"p99_ms\": {:.4}", fleet8.p99() * 1e3);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"eviction_storm\": {{");
    let _ = writeln!(json, "      \"designs\": {storm_designs},");
    let _ = writeln!(json, "      \"max_designs\": 8,");
    let _ = writeln!(json, "      \"evictions\": {evictions},");
    let _ = writeln!(json, "      \"requests\": {storm_iters},");
    let _ = writeln!(json, "      \"queries_per_second\": {:.1},", storm.qps());
    let _ = writeln!(json, "      \"p50_ms\": {:.4},", storm.p50() * 1e3);
    let _ = writeln!(json, "      \"p99_ms\": {:.4}", storm.p99() * 1e3);
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    eprintln!(
        "fleet: 8 designs {:.0} qps | storm ({storm_designs} designs / 8 slots) \
         {:.0} qps, {evictions} evictions",
        fleet8.qps(),
        storm.qps()
    );
}

/// The what-if section: parametric (symbolic) min-period against the
/// numeric equivalent — a binary search of cold analyses over the same
/// period grid — plus the `slack-at` read path (O(1) table lookups,
/// no sweeps) and a whole-domain `period-sweep` in one frame.
fn bench_whatif(lib: &Library, quick: bool, json: &mut String) {
    use hb_clock::ClockSet;
    use hb_units::Time;
    use hummingbird::Analyzer;

    // An edge-triggered pipeline with slack at its nominal period, so
    // the feasibility boundary is interior to the domain and the
    // numeric baseline has a real search to do.
    let w = random_pipeline(
        lib,
        PipelineParams {
            stages: 6,
            width: 8,
            gates_per_stage: 100,
            transparent: false,
            period_ns: 30,
            seed: 1203,
            imbalance_pct: 25,
        },
    );
    let w = &w;

    let server =
        Server::bind("127.0.0.1:0", lib.clone(), ServerOptions::default()).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let text = hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec));
    expect_ok(
        &client
            .request(&Frame::new("load").with_payload(text))
            .expect("load reply"),
        "load",
    );
    expect_ok(
        &client
            .request(&Frame::new("analyze"))
            .expect("analyze reply"),
        "analyze",
    );

    // First call: builds the symbolic table and solves the breakpoint
    // structure in one go.
    let t0 = Instant::now();
    let first = client
        .request(&Frame::new("min-period"))
        .expect("min-period reply");
    let build_seconds = t0.elapsed().as_secs_f64();
    expect_ok(&first, "min-period");
    let time_arg = |f: &Frame, key: &str| -> Time {
        f.get(key)
            .unwrap_or_else(|| panic!("min-period reply carries {key}="))
            .parse()
            .expect("time value")
    };
    let stride = time_arg(&first, "stride");
    let (lo, hi) = (time_arg(&first, "lo"), time_arg(&first, "hi"));
    let nominal = time_arg(&first, "nominal");
    let symbolic = first
        .get("period")
        .map(|p| p.parse::<Time>().expect("period"));

    // Warm calls: the table is resident, so every solve is pure
    // breakpoint arithmetic.
    let warm_iters = if quick { 20 } else { 200 };
    let warm = Latencies::measure(warm_iters, || {
        expect_ok(
            &client.request(&Frame::new("min-period")).expect("reply"),
            "warm min-period",
        );
    });

    // The `slack-at` read path: one O(1) evaluation per request.
    let probe = w
        .design
        .module(w.module)
        .nets()
        .next()
        .expect("nets")
        .1
        .name()
        .to_owned();
    let slack_iters = if quick { 100 } else { 1000 };
    let at_req = Frame::new("slack-at")
        .arg("period", nominal)
        .arg("node", probe);
    let slack_at = Latencies::measure(slack_iters, || {
        expect_ok(&client.request(&at_req).expect("reply"), "slack-at");
    });

    // One whole-domain sweep in a single frame (~33 grid points).
    let step = Time::from_ps(((hi.as_ps() - lo.as_ps()) / 32).max(stride.as_ps()));
    let t1 = Instant::now();
    let sweep = client
        .request(
            &Frame::new("period-sweep")
                .arg("lo", lo)
                .arg("hi", hi)
                .arg("step", step),
        )
        .expect("period-sweep reply");
    let sweep_seconds = t1.elapsed().as_secs_f64();
    expect_ok(&sweep, "period-sweep");
    let sweep_points: usize = sweep.get("count").expect("count=").parse().expect("count");

    expect_ok(
        &client
            .request(&Frame::new("shutdown"))
            .expect("shutdown reply"),
        "shutdown",
    );
    daemon.join().expect("whatif thread").expect("whatif exit");

    // The numeric equivalent: binary search of cold analyses over the
    // same grid — what `analyze --min-period` had to do before the
    // symbolic table existed.
    let g = nominal.as_ps() / stride.as_ps();
    let clocks_at = |k: i64| -> ClockSet {
        let mut out = ClockSet::new();
        let scale = |t: Time| Time::from_ps(t.as_ps() * k / g);
        for (_, c) in w.clocks.clocks() {
            out.add_clock(
                c.name(),
                scale(c.period()),
                scale(c.rise()),
                scale(c.fall()),
            )
            .expect("scaled clocks stay valid");
        }
        out
    };
    let mut numeric_probes = 0usize;
    let t2 = Instant::now();
    let mut feasible_at = |k: i64| -> bool {
        numeric_probes += 1;
        Analyzer::new(&w.design, w.module, lib, &clocks_at(k), w.spec.clone())
            .expect("scaled design conforms")
            .analyze()
            .ok()
    };
    let (mut lo_k, mut hi_k) = (lo.as_ps() / stride.as_ps(), hi.as_ps() / stride.as_ps());
    let numeric = if feasible_at(hi_k) {
        while lo_k < hi_k {
            let mid = lo_k + (hi_k - lo_k) / 2;
            if feasible_at(mid) {
                hi_k = mid;
            } else {
                lo_k = mid + 1;
            }
        }
        Some(Time::from_ps(hi_k * stride.as_ps()))
    } else {
        None
    };
    let numeric_seconds = t2.elapsed().as_secs_f64();
    assert_eq!(symbolic, numeric, "symbolic and numeric min-period agree");

    let _ = writeln!(json, "  \"whatif\": {{");
    let _ = writeln!(json, "    \"workload\": \"{}\",", w.name);
    let _ = writeln!(json, "    \"domain\": \"[{lo}, {hi}]\",");
    let _ = writeln!(json, "    \"min_period\": {{");
    let _ = writeln!(
        json,
        "      \"period\": {},",
        symbolic.map_or("null".to_owned(), |p| format!("\"{p}\""))
    );
    let _ = writeln!(
        json,
        "      \"symbolic_build_and_solve_seconds\": {build_seconds:.6},"
    );
    let _ = writeln!(json, "      \"warm_solve_seconds_p50\": {:.6},", warm.p50());
    let _ = writeln!(
        json,
        "      \"numeric_binary_search_seconds\": {numeric_seconds:.6},"
    );
    let _ = writeln!(json, "      \"numeric_probes\": {numeric_probes},");
    let _ = writeln!(
        json,
        "      \"warm_speedup_vs_binary_search\": {:.1}",
        numeric_seconds / warm.p50()
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"slack_at\": {{");
    let _ = writeln!(json, "      \"requests\": {slack_iters},");
    let _ = writeln!(json, "      \"queries_per_second\": {:.1},", slack_at.qps());
    let _ = writeln!(json, "      \"p50_ms\": {:.4},", slack_at.p50() * 1e3);
    let _ = writeln!(json, "      \"p99_ms\": {:.4}", slack_at.p99() * 1e3);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"period_sweep\": {{");
    let _ = writeln!(json, "      \"points\": {sweep_points},");
    let _ = writeln!(json, "      \"seconds\": {sweep_seconds:.6}");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    eprintln!(
        "whatif: build+solve {:.1} ms | warm min-period {:.3} ms vs numeric search {:.1} ms \
         ({numeric_probes} probes) | slack-at {:.0}/s",
        build_seconds * 1e3,
        warm.p50() * 1e3,
        numeric_seconds * 1e3,
        slack_at.qps()
    );
}

/// The quorum-failover section: a primary builds a journal, two
/// ranked standbys attach and resync it through the bounded pager,
/// then the primary is killed and the cluster elects a successor.
/// Reports the standby resync paging volume and the promotion
/// downtime — kill acknowledged to a survivor serving `role=primary`.
fn bench_failover(lib: &Library, quick: bool, json: &mut String) {
    use std::net::SocketAddr;
    use std::time::Duration;

    let page_bytes = 2048usize;
    let journal_ecos = if quick { 40 } else { 200 };

    let request = |addr: SocketAddr, frame: &Frame| -> Frame {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        client.request(frame).expect("reply")
    };
    let design_fp = |addr: SocketAddr| -> Option<String> {
        request(addr, &Frame::new("designs"))
            .payload
            .as_deref()
            .unwrap_or("")
            .lines()
            .find_map(|l| {
                let mut parts = l.split_whitespace();
                (parts.next() == Some("default"))
                    .then(|| parts.find_map(|p| p.strip_prefix("fp=")).map(str::to_owned))
                    .flatten()
            })
    };
    let counter = |addr: SocketAddr, name: &str| -> u64 {
        request(addr, &Frame::new("metrics"))
            .payload
            .as_deref()
            .unwrap_or("")
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .expect("counter present")
            .trim()
            .parse()
            .expect("counter value")
    };

    // The primary, alone at first so the journal exists before any
    // standby attaches: the attach is then a true paged resync.
    let server = Server::bind(
        "127.0.0.1:0",
        lib.clone(),
        ServerOptions {
            sync_interval: Duration::from_millis(25),
            ..ServerOptions::default()
        },
    )
    .expect("bind primary");
    let a_addr = server.local_addr().expect("bound address");
    let a = std::thread::spawn(move || server.run());

    let w = random_pipeline(
        lib,
        PipelineParams {
            stages: 3,
            width: 4,
            gates_per_stage: 40,
            transparent: false,
            period_ns: 20,
            seed: 1989,
            imbalance_pct: 25,
        },
    );
    let text = hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec));
    let probe = w
        .design
        .module(w.module)
        .nets()
        .next()
        .expect("nets")
        .1
        .name()
        .to_owned();
    expect_ok(
        &request(a_addr, &Frame::new("load").with_payload(text)),
        "load",
    );
    expect_ok(&request(a_addr, &Frame::new("analyze")), "analyze");
    for i in 0..journal_ecos {
        let reply = request(
            a_addr,
            &Frame::new("eco")
                .arg("op", "scale-net")
                .arg("net", probe.clone())
                .arg("percent", 90 + (i % 40) as u64),
        );
        expect_ok(&reply, "journal eco");
    }
    let want = design_fp(a_addr).expect("primary fingerprint");

    // Two ranked standbys, wired as each other's peers so the pair
    // holds a quorum once the primary dies.
    let standby = |upstream: SocketAddr| ServerOptions {
        standby_of: Some(upstream.to_string()),
        sync_interval: Duration::from_millis(25),
        promote_after: 3,
        repl_page_bytes: page_bytes,
        ..ServerOptions::default()
    };
    let mut b = Server::bind("127.0.0.1:0", lib.clone(), standby(a_addr)).expect("bind standby");
    let b_addr = b.local_addr().expect("bound address");
    let mut c = Server::bind("127.0.0.1:0", lib.clone(), standby(a_addr)).expect("bind standby");
    let c_addr = c.local_addr().expect("bound address");
    b.options_mut().expect("pre-run options").peers = vec![a_addr.to_string(), c_addr.to_string()];
    c.options_mut().expect("pre-run options").peers = vec![a_addr.to_string(), b_addr.to_string()];
    let b = std::thread::spawn(move || b.run());
    let c = std::thread::spawn(move || c.run());

    // The paged resync: both standbys pull the whole journal in
    // `page_bytes`-bounded pages.
    let sync_deadline = Instant::now() + Duration::from_secs(30);
    for addr in [b_addr, c_addr] {
        while design_fp(addr).as_deref() != Some(want.as_str()) {
            assert!(
                Instant::now() < sync_deadline,
                "standby never caught up with the primary"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let resync_pages = counter(b_addr, "hb_repl_pages_total ");
    let resync_bytes = counter(b_addr, "hb_repl_bytes_total ");

    // The kill: stamp the clock once the primary has acknowledged its
    // shutdown, then poll the survivors until one serves as primary.
    request(a_addr, &Frame::new("shutdown"));
    let killed = Instant::now();
    let deadline = killed + Duration::from_secs(30);
    let winner = loop {
        assert!(Instant::now() < deadline, "no standby promoted");
        let promoted = [b_addr, c_addr]
            .into_iter()
            .find(|&addr| request(addr, &Frame::new("stats")).get("role") == Some("primary"));
        if let Some(addr) = promoted {
            break addr;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let downtime = killed.elapsed();
    let term: u64 = request(winner, &Frame::new("stats"))
        .get("term")
        .expect("stats carries term=")
        .parse()
        .expect("term value");

    for addr in [winner, if winner == b_addr { c_addr } else { b_addr }] {
        request(addr, &Frame::new("shutdown"));
    }
    for (name, node) in [("primary", a), ("standby", b), ("standby2", c)] {
        node.join().expect(name).expect("clean exit");
    }

    let _ = writeln!(json, "  \"failover\": {{");
    let _ = writeln!(json, "    \"nodes\": 3,");
    let _ = writeln!(json, "    \"journal_ecos\": {journal_ecos},");
    let _ = writeln!(json, "    \"page_bytes\": {page_bytes},");
    let _ = writeln!(json, "    \"resync_pages\": {resync_pages},");
    let _ = writeln!(json, "    \"resync_bytes_paged\": {resync_bytes},");
    let _ = writeln!(
        json,
        "    \"promotion_downtime_ms\": {:.1},",
        downtime.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "    \"promoted_term\": {term}");
    let _ = writeln!(json, "  }},");
    eprintln!(
        "failover: resync {resync_pages} pages / {resync_bytes} B (page {page_bytes} B) | \
         promotion downtime {:.0} ms (term {term})",
        downtime.as_secs_f64() * 1e3
    );
}

/// The `reactor` section: sequential vs pipelined vs batched slack
/// throughput, then the same pipelined measurement with a crowd of
/// idle connections sharing the event loop.
fn bench_reactor(lib: &Library, w: &Workload, quick: bool, json: &mut String) {
    let max_conns = if quick { 300 } else { 12_000 };
    // One fd per server-side connection, one per bench-side stream,
    // plus the two Client clones and slack for the process.
    let _ = raise_nofile_limit(2 * max_conns as u64 + 256);
    let options = ServerOptions {
        max_connections: max_conns,
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", lib.clone(), options).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let text = hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec));
    expect_ok(
        &client
            .request(&Frame::new("load").with_payload(text))
            .expect("load reply"),
        "load",
    );
    expect_ok(
        &client
            .request(&Frame::new("analyze"))
            .expect("analyze reply"),
        "analyze",
    );

    let nets: Vec<String> = w
        .design
        .module(w.module)
        .nets()
        .map(|(_, n)| n.name().to_owned())
        .take(BATCH_NODES)
        .collect();

    // Sequential baseline: one request, one reply, one round trip.
    let seq_iters = if quick { SLACK_ITERS } else { 2000 };
    let seq_req = Frame::new("slack").arg("node", nets[0].clone());
    let seq_lat = Latencies::measure(seq_iters, || {
        expect_ok(&client.request(&seq_req).expect("slack reply"), "slack");
    });
    let sequential = Throughput {
        requests: seq_iters,
        qps: seq_lat.qps(),
        p50_ms: seq_lat.p50() * 1e3,
        p99_ms: seq_lat.p99() * 1e3,
    };

    // Pipelined: a window of single-node requests per round trip.
    let window: Vec<Frame> = (0..PIPELINE_WINDOW)
        .map(|i| Frame::new("slack").arg("node", nets[i % nets.len()].clone()))
        .collect();
    let pipe_windows = if quick { 5 } else { 60 };
    let piped = pipelined(&mut client, &window, pipe_windows, 1);

    // Batched: every request carries `BATCH_NODES` nodes, and a window
    // of those requests rides one round trip — per-*node* throughput.
    let mut batched_req = Frame::new("slack");
    for net in &nets {
        batched_req = batched_req.arg("node", net.clone());
    }
    let batch_window: Vec<Frame> = (0..BATCH_WINDOW).map(|_| batched_req.clone()).collect();
    let batch_windows = if quick { 3 } else { 30 };
    let batched = pipelined(&mut client, &batch_window, batch_windows, nets.len());

    // The sweep: the same pipelined window with N-1 idle connections
    // registered in the poll set. Every idle peer costs a poll slot
    // and a sweep visit per loop turn; the hot path must survive the
    // crowd.
    let levels: &[usize] = if quick {
        &[1, 100]
    } else {
        &[1, 100, 1000, 10_000]
    };
    let mut sweep = Vec::new();
    let mut idle: Vec<TcpStream> = Vec::new();
    for &level in levels {
        while idle.len() + 1 < level {
            idle.push(TcpStream::connect(addr).expect("idle connect"));
        }
        let windows = if quick { 3 } else { 20 };
        let t = pipelined(&mut client, &window, windows, 1);
        eprintln!(
            "reactor sweep {level:>6} conns: {:.0} qps (p50 {:.4} ms)",
            t.qps, t.p50_ms
        );
        sweep.push((level, t));
    }
    drop(idle);

    // Bounded per-connection memory, as the daemon itself reports it.
    let stats = client.request(&Frame::new("stats")).expect("stats reply");
    let buffer_peak: u64 = stats
        .get("conn_buffer_peak_bytes")
        .expect("buffer gauge in stats")
        .parse()
        .expect("gauge value");

    expect_ok(
        &client
            .request(&Frame::new("shutdown"))
            .expect("shutdown reply"),
        "shutdown",
    );
    daemon
        .join()
        .expect("reactor thread")
        .expect("reactor exit");

    let _ = writeln!(json, "  \"reactor\": {{");
    let _ = writeln!(json, "    \"workload\": \"{}\",", w.name);
    let _ = writeln!(json, "    \"max_connections\": {max_conns},");
    for (label, t, extra) in [
        ("slack_sequential", &sequential, String::new()),
        (
            "slack_pipelined",
            &piped,
            format!("      \"window\": {PIPELINE_WINDOW},\n"),
        ),
        (
            "slack_batched",
            &batched,
            format!(
                "      \"nodes_per_request\": {},\n      \"window\": {BATCH_WINDOW},\n",
                nets.len()
            ),
        ),
    ] {
        let _ = writeln!(json, "    \"{label}\": {{");
        json.push_str(&extra);
        let _ = writeln!(json, "      \"requests\": {},", t.requests);
        let _ = writeln!(json, "      \"queries_per_second\": {:.1},", t.qps);
        let _ = writeln!(json, "      \"p50_ms\": {:.4},", t.p50_ms);
        let _ = writeln!(json, "      \"p99_ms\": {:.4}", t.p99_ms);
        let _ = writeln!(json, "    }},");
    }
    let _ = writeln!(
        json,
        "    \"pipelined_speedup_vs_sequential\": {:.2},",
        piped.qps / sequential.qps
    );
    let _ = writeln!(
        json,
        "    \"batched_speedup_vs_sequential\": {:.2},",
        batched.qps / sequential.qps
    );
    let _ = writeln!(json, "    \"connection_sweep\": [");
    for (i, (level, t)) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"connections\": {level}, \"queries_per_second\": {:.1}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}{}",
            t.qps,
            t.p50_ms,
            t.p99_ms,
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"conn_buffer_peak_bytes\": {buffer_peak}");
    let _ = writeln!(json, "  }}");
    eprintln!(
        "reactor: sequential {:.0}/s | pipelined {:.0}/s ({:.1}x) | batched {:.0} nodes/s ({:.1}x)",
        sequential.qps,
        piped.qps,
        piped.qps / sequential.qps,
        batched.qps,
        batched.qps / sequential.qps,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_server.json".to_owned());

    let lib = sc89();
    let workloads = [
        random_pipeline(
            &lib,
            PipelineParams {
                stages: 6,
                width: 16,
                gates_per_stage: 600,
                transparent: true,
                period_ns: 30,
                seed: 1203,
                imbalance_pct: 40,
            },
        ),
        des_like(&lib, 1989),
    ];

    let (cold_iters, slack_iters, eco_iters) = if quick {
        (2, 100, 8)
    } else {
        (COLD_ITERS, SLACK_ITERS, ECO_ITERS)
    };

    let server =
        Server::bind("127.0.0.1:0", lib.clone(), ServerOptions::default()).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let mut request = |frame: &Frame| client.request(frame).expect("daemon reply");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"transport\": \"tcp-loopback\",");
    json.push_str("  \"workloads\": [\n");

    for (wi, w) in workloads.iter().enumerate() {
        let text =
            hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec));
        let cells = w.stats().cells;
        let inst = resizable_instance(w, &lib);
        let probe_net = w
            .design
            .module(w.module)
            .nets()
            .next()
            .expect("nets")
            .1
            .name()
            .to_owned();

        // Cold analysis: a fresh load resets the resident cache, so
        // each timed analyze sweeps every cluster from scratch.
        let cold = Latencies::measure(cold_iters, || {
            expect_ok(
                &request(&Frame::new("load").with_payload(text.clone())),
                "load",
            );
            expect_ok(&request(&Frame::new("analyze")), "cold analyze");
        });

        // Settled-analysis slack queries: the server's read path.
        let slack_req = Frame::new("slack").arg("node", probe_net.clone());
        let slack = Latencies::measure(slack_iters, || {
            expect_ok(&request(&slack_req), "slack");
        });

        // Warm ECOs: alternate the resize direction so the design keeps
        // changing; every request re-analyzes through the warm cache.
        let mut reused = 0u64;
        let mut swept = 0u64;
        let mut step = 1i64;
        let eco = Latencies::measure(eco_iters, || {
            let reply = request(
                &Frame::new("eco")
                    .arg("op", "resize")
                    .arg("inst", inst.clone())
                    .arg("steps", step),
            );
            expect_ok(&reply, "eco");
            reused = reply.get("items_reused").unwrap().parse().expect("count");
            swept = reply.get("items_swept").unwrap().parse().expect("count");
            step = -step;
        });

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workload\": \"{}\",", w.name);
        let _ = writeln!(json, "      \"cells\": {cells},");
        let _ = writeln!(
            json,
            "      \"cold_analyze_seconds_p50\": {:.6},",
            cold.p50()
        );
        let _ = writeln!(json, "      \"slack_query\": {{");
        let _ = writeln!(json, "        \"requests\": {slack_iters},");
        let _ = writeln!(json, "        \"queries_per_second\": {:.1},", slack.qps());
        let _ = writeln!(json, "        \"p50_ms\": {:.4},", slack.p50() * 1e3);
        let _ = writeln!(json, "        \"p99_ms\": {:.4}", slack.p99() * 1e3);
        let _ = writeln!(json, "      }},");
        let _ = writeln!(json, "      \"eco_resize\": {{");
        let _ = writeln!(json, "        \"requests\": {eco_iters},");
        let _ = writeln!(json, "        \"queries_per_second\": {:.1},", eco.qps());
        let _ = writeln!(json, "        \"p50_ms\": {:.4},", eco.p50() * 1e3);
        let _ = writeln!(json, "        \"p99_ms\": {:.4},", eco.p99() * 1e3);
        let _ = writeln!(json, "        \"items_reused_last\": {reused},");
        let _ = writeln!(json, "        \"items_swept_last\": {swept},");
        let _ = writeln!(
            json,
            "        \"warm_eco_speedup_vs_cold_analyze\": {:.3}",
            cold.p50() / eco.p50()
        );
        let _ = writeln!(json, "      }}");
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
        eprintln!(
            "{}: cold {:.1} ms | slack p50 {:.3} ms ({:.0}/s) | eco p50 {:.1} ms, \
             {}/{} sweeps reused",
            w.name,
            cold.p50() * 1e3,
            slack.p50() * 1e3,
            slack.qps(),
            eco.p50() * 1e3,
            reused,
            reused + swept
        );
    }
    json.push_str("  ],\n");

    expect_ok(&request(&Frame::new("shutdown")), "shutdown");
    daemon.join().expect("server thread").expect("server exit");

    // Parametric what-if verbs vs the numeric binary-search baseline.
    bench_whatif(&lib, quick, &mut json);

    // The session-fleet routing and eviction costs.
    bench_fleet(&lib, quick, &mut json);

    // Quorum failover: standby resync paging and promotion downtime.
    bench_failover(&lib, quick, &mut json);

    // Pipelining, batching and idle crowds over the first (pipeline)
    // workload.
    bench_reactor(&lib, &workloads[0], quick, &mut json);
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("{json}");
}
