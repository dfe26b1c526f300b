//! `hbbench`: the repository's end-to-end benchmark, with per-layer
//! timings.
//!
//! ```text
//! hbbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!         [--quick] [--repeat N] [--out FILE]
//! ```
//!
//! With `--workload`, runs that one workload in this process and prints
//! its metrics, ending with one JSON result line. Without it, runs every
//! workload in a child process of its own (so each peak RSS is that
//! workload's alone), `--repeat N` times in alternating order, and
//! prints each metric's median and quartiles and whether the first and
//! second halves of the run sets agree within the metric's bound.
//! `--trace 1` reruns the measured work with spans around each layer's
//! public calls and reports the per-layer metrics instead of the
//! end-to-end ones; the spans go to `target/hbbench/trace-NAME.json`.
//!
//! The seed drives every generator; the program under test only ever
//! receives generated design text and wire requests. Every answer is
//! checked against an oracle outside the measured window, and the
//! process exits non-zero if any differs. See README.md.

mod catalog;
mod closure;
mod daemon;
mod layers;
mod signoff;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hummingbird::TimingReport;

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::layers::GraphSize;
use crate::stats::{quartiles, Samples};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest operations a measured phase completes, however short.
const MIN_OPS: usize = 3;
const DEFAULT_SECONDS: f64 = 20.0;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced rerun.
    pub trace: bool,
    /// Small designs and fixed operation counts (the unit test).
    pub quick: bool,
}

/// A measured phase: time-bounded, or count-bounded in quick mode.
pub struct Window {
    start: Instant,
    seconds: f64,
    min: usize,
    max: usize,
}

impl Window {
    /// A window over `1/phases` of the run's seconds; `quick_ops`
    /// operations in quick mode.
    pub fn new(cfg: &Config, phases: usize, quick_ops: usize) -> Window {
        let (seconds, min, max) = if cfg.quick {
            (0.0, quick_ops, quick_ops)
        } else {
            (cfg.seconds / phases as f64, MIN_OPS, usize::MAX)
        };
        Window {
            start: Instant::now(),
            seconds,
            min,
            max,
        }
    }

    /// Whether to start another operation after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min || (done < self.max && self.start.elapsed().as_secs_f64() < self.seconds)
    }

    /// Wall time since the window opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differ from the oracle.
    pub mismatches: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
    max_gap_ms: f64,
}

impl Outcome {
    /// Runs the workload's set-up `SETUPS` times; `setup_s` is the
    /// median.
    pub fn setup(&mut self, mut f: impl FnMut()) {
        let mut s = Samples::new();
        for _ in 0..SETUPS {
            let t = Instant::now();
            f();
            s.push(t.elapsed().as_secs_f64());
        }
        self.metrics.insert("setup_s", s.median());
    }

    /// Notes the caller's pause between one reply and the next request
    /// of a closed loop.
    pub fn gap(&mut self, d: Duration) {
        self.max_gap_ms = self.max_gap_ms.max(d.as_secs_f64() * 1e3);
    }

    /// The closed-loop operation metrics from the latencies (ms) of the
    /// completed operations and the window's wall time. Throughput
    /// counts the caller's gaps and the teardown between operations,
    /// which the latencies leave out.
    pub fn latency(&mut self, ms: &mut Samples, wall: Duration) {
        self.metrics.insert("op_p50_ms", ms.median());
        self.metrics.insert("op.p90_ms", ms.quantile(0.9));
        self.metrics
            .insert("throughput_per_s", ms.len() as f64 / wall.as_secs_f64());
    }

    /// Adds the per-layer metrics. Unless an open-loop stream set
    /// them, the generator numbers are those of the closed loop.
    pub fn layers(&mut self, mut ledger: Ledger) {
        let gen = [
            ("gen.late_ms_max", self.max_gap_ms),
            ("gen.sent", self.attempted as f64),
            ("gen.received", (self.attempted - self.failed) as f64),
        ];
        for (name, value) in gen {
            ledger.values.entry(name).or_insert(value);
        }
        self.metrics.extend(ledger.into_metrics());
    }
}

/// Span name → (per-call metric, share-of-operation metric).
const SPAN_LAYERS: [(&str, Option<&str>, &str); 6] = [
    ("io.parse", Some("io.parse_s"), "io.parse_share"),
    (
        "netlist.validate",
        Some("netlist.validate_s"),
        "netlist.validate_share",
    ),
    ("server.spec", Some("server.spec_s"), "server.spec_share"),
    ("core.prepare", Some("core.prepare_s"), "core.prepare_share"),
    ("core.analyze", Some("core.analyze_s"), "core.analyze_share"),
    ("resynth.apply_eco", None, "resynth.apply_eco_share"),
];

/// Accumulates the per-layer metrics of a traced run.
#[derive(Default)]
pub struct Ledger {
    /// Traced ÷ untraced median operation latency.
    pub overhead: f64,
    reports: u64,
    items_scheduled: u64,
    items_reused: u64,
    alg1: u64,
    alg2: u64,
    passes: u64,
    size: GraphSize,
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Counts from one analysis report and its graph probe.
    pub fn report(&mut self, r: &TimingReport, size: GraphSize) {
        let e = r.engine_stats();
        let a1 = r.algorithm1_stats();
        self.reports += 1;
        self.items_scheduled += e.items_scheduled;
        self.items_reused += e.items_reused;
        self.alg1 += (a1.forward_cycles
            + a1.backward_cycles
            + a1.partial_forward_cycles
            + a1.partial_backward_cycles) as u64;
        if let Some(a2) = r.algorithm2_stats() {
            self.alg2 += (a2.backward_snatch_cycles + a2.forward_snatch_cycles) as u64;
        }
        self.passes += r.prep_stats().global_passes as u64;
        self.size = size;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Per-call means of every traced layer; with `op`, also each
    /// layer's share of the `op` spans and the coverage of those spans
    /// by their children. `bytes_per_parse` is the design text size.
    pub fn spans(&mut self, tr: &Tracer, op: Option<&str>, bytes_per_parse: usize) {
        for (span, per_call, _) in SPAN_LAYERS {
            if let Some(metric) = per_call {
                self.set(metric, tr.mean_seconds(span).0);
            }
        }
        let (graph, _) = tr.mean_seconds("sta.graph_build");
        let (shard, _) = tr.mean_seconds("sta.shard_build");
        self.set("sta.graph_build_s", graph);
        self.set("sta.shard_build_s", shard);
        self.set(
            "core.prepare_other_s",
            tr.mean_seconds("core.prepare").0 - graph - shard,
        );
        self.set(
            "io.parse_mb_per_s",
            bytes_per_parse as f64 / 1e6 / tr.mean_seconds("io.parse").0,
        );
        if let Some(op) = op {
            let (total, own) = tr.self_seconds_within(op);
            for (span, _, share) in SPAN_LAYERS {
                self.set(share, own.get(span).copied().unwrap_or(0.0) / total);
            }
            self.set("bench.coverage", 1.0 - own[op] / total);
        }
    }

    /// The per-layer metrics. Counts and shares of layers the workload
    /// never reaches read 0; a missing time is left out, so that the
    /// completeness check catches it.
    fn into_metrics(self) -> BTreeMap<&'static str, f64> {
        let mut m = self.values;
        let n = self.reports.max(1) as f64;
        m.insert("bench.trace_overhead", self.overhead);
        m.insert("netlist.cells", self.size.cells as f64);
        m.insert("sta.arcs", self.size.arcs as f64);
        m.insert("sta.clusters", self.size.clusters as f64);
        m.insert("core.global_passes", self.passes as f64 / n);
        m.insert("core.items_scheduled", self.items_scheduled as f64 / n);
        m.insert("core.items_reused", self.items_reused as f64 / n);
        m.insert(
            "core.reuse_ratio",
            self.items_reused as f64 / self.items_scheduled.max(1) as f64,
        );
        m.insert("core.alg1_cycles", self.alg1 as f64 / n);
        m.insert("core.alg2_cycles", self.alg2 as f64 / n);
        for l in &PER_LAYER {
            if !matches!(l.unit, "s" | "ms") {
                m.entry(l.name).or_insert(0.0);
            }
        }
        m
    }
}

/// Peak resident set of a process in MB, from `/proc/PID/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(name: &str, cfg: &Config) -> Outcome {
    let mut out = match name {
        "sram-signoff" => signoff::run(cfg),
        "pipeline-closure" => closure::run(cfg),
        "fleet-reads" => daemon::fleet_reads(cfg),
        "tenant-stall" => daemon::tenant_stall(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    };
    out.metrics
        .entry("peak_rss_mb")
        .or_insert_with(|| peak_rss_mb("self"));
    out
}

/// The metrics a run must report — the end-to-end ones, or with
/// `trace` the per-layer ones — as name, unit and a note for the
/// table.
fn required(trace: bool) -> Vec<(&'static str, &'static str, String)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let note = format!("{} · moves {} on {}", m.better.as_str(), m.moves, m.on);
                (m.name, m.unit, note)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let note = format!("{} · bound {}", m.better.as_str(), m.bound);
                (m.name, m.unit, note)
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every
/// required metric with its unit.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.mismatches == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, unit, _)) in required(trace).into_iter().enumerate() {
        let v = *out
            .metrics
            .get(name)
            .ok_or_else(|| format!("the run did not measure `{name}`"))?;
        if !v.is_finite() {
            return Err(format!("`{name}` is not a finite number: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// Runs one workload here and prints its table and result line.
fn run_one(name: &str, cfg: &Config) -> ExitCode {
    eprintln!(
        "hbbench: {name} seed={} seconds={} trace={}{}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick { " quick" } else { "" }
    );
    let out = run_workload(name, cfg);
    // `metric NAME VALUE UNIT NOTE`, with every digit of the value: the
    // lines `run_child` reads back.
    for (metric, unit, note) in required(cfg.trace) {
        if let Some(v) = out.metrics.get(metric) {
            println!("metric {metric:<26} {v:<22} {unit:<6} {note}");
        }
    }
    println!(
        "  mismatches {} · failed {} of {} operations",
        out.mismatches, out.failed, out.attempted
    );
    if let Some(tr) = out.tracer.as_ref().filter(|_| cfg.trace) {
        let path = format!("target/hbbench/trace-{name}.json");
        let written = std::fs::create_dir_all("target/hbbench")
            .and_then(|()| std::fs::write(&path, tr.to_chrome_json(name, cfg.seed)));
        match written {
            Ok(()) => eprintln!("hbbench: {} spans written to {path}", tr.spans().len()),
            Err(e) => eprintln!("hbbench: cannot write {path}: {e}"),
        }
    }
    match result_json(&out, cfg.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("hbbench: {name}: {e}");
            return ExitCode::from(3);
        }
    }
    if out.mismatches > 0 {
        eprintln!(
            "hbbench: {name}: {} answers differ from the oracle",
            out.mismatches
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// One child run's result: whether it exited 0 (every answer matched
/// its oracle and every metric was measured), and its metrics.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_child(name: &str, cfg: &Config) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let metrics = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            match (words.next(), words.next(), words.next()) {
                (Some("metric"), Some(k), Some(v)) => Some((k.to_owned(), v.parse().ok()?)),
                _ => None,
            }
        })
        .collect();
    Ok(ChildResult {
        correct: output.status.success(),
        metrics,
    })
}

/// Runs every workload `repeat` times in child processes, alternating
/// the workload order between run sets.
fn run_sets(cfg: &Config, repeat: usize, out_file: Option<&str>) -> ExitCode {
    let mut results: BTreeMap<&str, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..repeat {
        let mut order: Vec<&catalog::Workload> = WORKLOADS.iter().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let name = w.name;
            println!("== run set {} · {name}: {}", set + 1, w.why);
            match run_child(name, cfg) {
                Ok(r) => {
                    all_correct &= r.correct;
                    results.entry(name).or_default().push(r.metrics);
                }
                Err(e) => {
                    eprintln!("hbbench: {e}");
                    all_correct = false;
                }
            }
        }
    }
    if repeat > 1 {
        print_agreement(&results);
    }
    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(path, sets_json(cfg, &results)) {
            eprintln!("hbbench: cannot write {path}: {e}");
            return ExitCode::from(3);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Median, quartiles and spread of each metric over the run sets, and
/// whether the medians of the first and second half of the sets agree
/// within the metric's bound.
fn print_agreement(results: &BTreeMap<&str, Vec<BTreeMap<String, f64>>>) {
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>14} {:>8}  agree",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for (workload, sets) in results {
        let names: Vec<&String> = sets.first().map(|m| m.keys().collect()).unwrap_or_default();
        for name in names {
            let values: Vec<f64> = sets.iter().filter_map(|m| m.get(name).copied()).collect();
            let (q1, med, q3) = quartiles(&values);
            let half = values.len() / 2;
            let agree = match catalog::end_to_end(name) {
                Some(m) if half > 0 => {
                    let a = quartiles(&values[..half]).1;
                    let b = quartiles(&values[half..]).1;
                    if (a / b).max(b / a) - 1.0 <= m.bound {
                        "yes"
                    } else {
                        "NO"
                    }
                }
                _ => "-",
            };
            println!(
                "{workload:<18} {name:<24} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.4}  {agree}",
                if med == 0.0 { 0.0 } else { (q3 - q1) / med }
            );
        }
    }
}

/// The run sets as a JSON document, with the machine they ran on.
fn sets_json(cfg: &Config, results: &BTreeMap<&str, Vec<BTreeMap<String, f64>>>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_default();
    let tool = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_default()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {nproc},\n  \
         \"cpu\": \"{cpu}\",\n  \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n  \"workloads\": {{",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    );
    for (i, (workload, sets)) in results.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{workload}\": [",
            if i == 0 { "" } else { "," }
        );
        for (j, m) in sets.iter().enumerate() {
            let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v:?}")).collect();
            let _ = write!(
                s,
                "{}\n      {{{}}}",
                if j == 0 { "" } else { "," },
                body.join(", ")
            );
        }
        s.push_str("\n    ]");
    }
    s.push_str("\n  }\n}\n");
    s
}

const USAGE: &str = "usage: hbbench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--repeat N] [--out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        return daemon::serve();
    }
    let mut cfg = Config {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut workload = None;
    let mut repeat = 1usize;
    let mut out_file = None;
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let parsed = match arg {
            "--workload" => it
                .next()
                .filter(|w| WORKLOADS.iter().any(|k| k.name == *w))
                .map(|w| workload = Some(w.to_owned())),
            "--seed" => it.next().and_then(|v| v.parse().ok()).map(|v| cfg.seed = v),
            "--seconds" => it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|v: &f64| *v > 0.0)
                .map(|v| cfg.seconds = v),
            "--trace" => {
                cfg.trace = it.peek() != Some(&"0");
                if matches!(it.peek(), Some(&("0" | "1"))) {
                    it.next();
                }
                Some(())
            }
            "--quick" => {
                cfg.quick = true;
                Some(())
            }
            "--repeat" => it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .map(|n| repeat = n),
            "--out" => it.next().map(|f| out_file = Some(f.to_owned())),
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("hbbench: bad argument `{arg}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    match workload {
        Some(_) if repeat > 1 || out_file.is_some() => {
            eprintln!("hbbench: --repeat and --out apply to run sets, not to one --workload");
            ExitCode::from(2)
        }
        Some(name) => run_one(&name, &cfg),
        None => run_sets(&cfg, repeat, out_file.as_deref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process workloads at quick size, untraced and traced:
    /// every answer matches its oracle, nothing fails, the result line
    /// carries every metric, and the traced ledger covers its
    /// operations.
    #[test]
    fn quick_runs_answer_correctly_and_report_every_metric() {
        for name in ["sram-signoff", "pipeline-closure"] {
            for trace in [false, true] {
                let cfg = Config {
                    seed: 1,
                    seconds: 1.0,
                    trace,
                    quick: true,
                };
                let out = run_workload(name, &cfg);
                assert_eq!((out.mismatches, out.failed), (0, 0), "{name} trace={trace}");
                result_json(&out, trace).unwrap_or_else(|e| panic!("{name}: {e}"));
                if trace {
                    let coverage = out.metrics["bench.coverage"];
                    assert!(coverage >= 0.95, "{name}: coverage {coverage}");
                }
            }
        }
    }

    /// `BENCHMARK.json` restates the catalog: the same workloads and
    /// metrics, with the same units, directions and bounds, within the
    /// limits the file format sets; and every per-layer metric names an
    /// end-to-end metric and a workload it should move. The file keeps
    /// one entry per line, so each entry is checked as text.
    #[test]
    fn benchmark_json_restates_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");

        // Each catalog entry, in the one-line form the file uses.
        let mut entries: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why))
            .collect();
        entries.extend(END_TO_END.iter().map(|m| {
            format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        }));
        entries.extend(PER_LAYER.iter().map(|m| {
            format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name,
                m.unit,
                m.better.as_str()
            )
        }));
        for entry in &entries {
            assert!(
                text.contains(entry.as_str()),
                "BENCHMARK.json lacks {entry}"
            );
        }
        assert_eq!(
            text.matches(r#"{"name": "#).count(),
            entries.len(),
            "BENCHMARK.json lists nothing the catalog does not"
        );

        for m in &END_TO_END {
            assert!(m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(catalog::end_to_end(m.moves).is_some(), "{}", m.name);
            assert!(WORKLOADS.iter().any(|w| w.name == m.on), "{}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric or workload name `{name}`"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
    }
}
