//! What the benchmark measures: its workloads, its end-to-end metrics
//! with their regression bounds, and its per-layer metrics with the
//! end-to-end metric and workload each one should move.
//!
//! `BENCHMARK.json` at the repository root restates these tables; a
//! unit test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sram-signoff",
        why: "250k-cell SRAM from text to verdict: parse and graph/shard build dominate; no \
              latch transfer cycles and no slack-cache reuse",
    },
    Workload {
        name: "pipeline-closure",
        why: "ECO loop on a violating 100k-cell latch pipeline: re-preparation plus incremental \
              Algorithms 1+2 through the resident slack cache",
    },
    Workload {
        name: "fleet-reads",
        why: "open-loop slack reads on 8 analyzed daemon tenants: codec, routing, locks and \
              sockets only, no analysis",
    },
    Workload {
        name: "tenant-stall",
        why: "open-loop reads on one tenant while another loads, analyzes and solves min-period: \
              tenant isolation and the symbolic build",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The same four metrics on every workload, each about that workload's
/// operation: a verdict (`sram-signoff`), an ECO (`pipeline-closure`)
/// or a read timed from when it was due (`fleet-reads`,
/// `tenant-stall`).
///
/// A bound is the share of the parent's median by which a metric may
/// worsen before a change counts as a regression. The spread of a
/// metric (IQR ÷ median over ten seeds) reached 0.17 on a 2-vCPU box
/// in its noisier hours, so the latency and throughput bounds sit at
/// the 0.25 cap.
pub const END_TO_END: [EndToEnd; 4] = [
    // Median of five set-ups: generating the designs, and loading the
    // session or spawning the daemon and priming its tenants.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // Work completed per second: verdicts or ECOs per second of the
    // window's wall time, caller gaps and teardown included, bulk
    // load + analyze + min-period cycles per second (tenant-stall), or
    // reads per second of daemon CPU time (fleet-reads).
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Peak resident memory of the process doing the analysis: the
    // workload process, or the daemon.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric a change to this layer should move...
    pub moves: &'static str,
    /// ...and the workload where it should move it.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

const SIGNOFF: &str = "sram-signoff";
const CLOSURE: &str = "pipeline-closure";
const FLEET: &str = "fleet-reads";
const STALL: &str = "tenant-stall";

pub const PER_LAYER: [PerLayer; 41] = [
    // Load path, mean seconds per call, measured on every workload's
    // own designs.
    layer("io.parse_s", "s", Lower, "op_p50_ms", SIGNOFF),
    layer("io.parse_mb_per_s", "MB/s", Higher, "op_p50_ms", SIGNOFF),
    layer("netlist.validate_s", "s", Lower, "op_p50_ms", SIGNOFF),
    layer("server.spec_s", "s", Lower, "op_p50_ms", CLOSURE),
    layer("sta.graph_build_s", "s", Lower, "op_p50_ms", SIGNOFF),
    layer("sta.shard_build_s", "s", Lower, "op_p50_ms", SIGNOFF),
    layer("core.prepare_s", "s", Lower, "op_p50_ms", CLOSURE),
    layer("core.prepare_other_s", "s", Lower, "op_p50_ms", CLOSURE),
    layer("core.analyze_s", "s", Lower, "op_p50_ms", CLOSURE),
    // The operation's ledger: each layer's self time as a share of the
    // operation's wall time (0 where the layer is not on its path).
    layer("io.parse_share", "ratio", Lower, "op_p50_ms", SIGNOFF),
    layer(
        "netlist.validate_share",
        "ratio",
        Lower,
        "op_p50_ms",
        SIGNOFF,
    ),
    layer("server.spec_share", "ratio", Lower, "op_p50_ms", CLOSURE),
    layer("core.prepare_share", "ratio", Lower, "op_p50_ms", CLOSURE),
    layer("core.analyze_share", "ratio", Lower, "op_p50_ms", CLOSURE),
    layer(
        "resynth.apply_eco_share",
        "ratio",
        Lower,
        "op_p50_ms",
        CLOSURE,
    ),
    layer("server.session_share", "ratio", Lower, "op_p50_ms", CLOSURE),
    layer("server.handle_share", "ratio", Lower, "op_p50_ms", FLEET),
    layer("server.lock_wait_share", "ratio", Lower, "op_p50_ms", STALL),
    // Sizes of the intermediate representation and of the work done.
    layer("netlist.cells", "count", Lower, "peak_rss_mb", SIGNOFF),
    layer("sta.arcs", "count", Lower, "peak_rss_mb", SIGNOFF),
    layer("sta.clusters", "count", Lower, "op_p50_ms", SIGNOFF),
    layer("core.global_passes", "count", Lower, "op_p50_ms", CLOSURE),
    layer("core.items_scheduled", "count", Lower, "op_p50_ms", CLOSURE),
    layer("core.items_reused", "count", Higher, "op_p50_ms", CLOSURE),
    layer("core.reuse_ratio", "ratio", Higher, "op_p50_ms", CLOSURE),
    layer("core.alg1_cycles", "count", Lower, "op_p50_ms", CLOSURE),
    layer("core.alg2_cycles", "count", Lower, "op_p50_ms", CLOSURE),
    // The daemon, from its `metrics` exposition before and after the
    // measured window.
    layer(
        "server.bytes_per_read",
        "B",
        Lower,
        "throughput_per_s",
        FLEET,
    ),
    layer("server.errors", "count", Lower, "throughput_per_s", STALL),
    layer("server.session_mb", "MB", Lower, "peak_rss_mb", FLEET),
    layer(
        "server.load_share",
        "ratio",
        Lower,
        "throughput_per_s",
        STALL,
    ),
    layer(
        "server.analyze_share",
        "ratio",
        Lower,
        "throughput_per_s",
        STALL,
    ),
    layer(
        "core.symbolic_share",
        "ratio",
        Lower,
        "throughput_per_s",
        STALL,
    ),
    layer(
        "core.symbolic_regions",
        "count",
        Lower,
        "throughput_per_s",
        STALL,
    ),
    // The operation's tail, and the benchmark's own load generator.
    layer("op.p90_ms", "ms", Lower, "throughput_per_s", CLOSURE),
    layer("gen.late_ms_max", "ms", Lower, "op_p50_ms", FLEET),
    layer("gen.sent", "count", Higher, "throughput_per_s", FLEET),
    layer("gen.received", "count", Higher, "throughput_per_s", FLEET),
    layer("gen.read_miss_frac", "ratio", Lower, "op_p50_ms", STALL),
    // Ledger health.
    layer("bench.coverage", "ratio", Higher, "op_p50_ms", SIGNOFF),
    layer("bench.trace_overhead", "ratio", Lower, "op_p50_ms", CLOSURE),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
