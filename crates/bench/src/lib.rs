//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each evaluation artifact of the DAC'89 paper has a runnable binary in
//! this crate (`cargo run -p hb-bench --bin <name> --release`):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — run times for DES / ALU / SM1F / SM1H |
//! | `figure1` | Figure 1 — four-phase time-multiplexed logic |
//! | `figure3` | Figure 3 / Section 5 — transparent-latch offsets |
//! | `figure4` | Figure 4 — clock-edge graph and break-open choice |
//! | `iteration_sweep` | §8 — iteration count vs clock speed |
//! | `latch_baseline` | §2/§4 — transparent vs edge-triggered modelling |
//!
//! Micro-benchmarks (`cargo bench -p hb-bench`) cover the same
//! workloads plus the ablations (block method vs path enumeration,
//! minimal pass cover vs naive); they use the dependency-free
//! [`microbench`] harness so offline builds work. The `perf_summary`
//! binary emits `BENCH_perf.json` for tracking the perf curve across
//! PRs.

use std::time::Instant;

pub mod microbench;

use hb_cells::Library;
use hb_workloads::Workload;
use hummingbird::{AnalysisOptions, Analyzer};

/// One row of the Table 1 reproduction.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// The workload name.
    pub example: String,
    /// Leaf-cell instances.
    pub cells: usize,
    /// Nets (hierarchically deduplicated).
    pub nets: usize,
    /// Pre-processing wall-clock seconds (graph + clusters + pass plan).
    pub prep_seconds: f64,
    /// Algorithm 1 wall-clock seconds.
    pub analysis_seconds: f64,
    /// Whether the design met timing (informational; the paper reports
    /// run times only).
    pub ok: bool,
    /// Maximum settling times per node (pass count).
    pub max_passes: usize,
}

/// Runs pre-processing and Algorithm 1 on a workload and measures both
/// phases, mirroring the paper's Table 1 columns.
///
/// # Panics
///
/// Panics if the workload violates the analyzer's structural
/// assumptions — benchmark workloads are constructed to conform.
pub fn table1_row(library: &Library, workload: &Workload) -> Table1Row {
    table1_row_with(library, workload, AnalysisOptions::default())
}

/// [`table1_row`] with explicit analysis options (for baselines).
pub fn table1_row_with(
    library: &Library,
    workload: &Workload,
    options: AnalysisOptions,
) -> Table1Row {
    let stats = workload.stats();
    let analyzer = Analyzer::with_options(
        &workload.design,
        workload.module,
        library,
        &workload.clocks,
        workload.spec.clone(),
        options,
    )
    .expect("benchmark workloads satisfy the analyzer's assumptions");
    let start = Instant::now();
    let report = analyzer.analyze();
    let analysis_seconds = start.elapsed().as_secs_f64();
    Table1Row {
        example: workload.name.clone(),
        cells: stats.cells,
        nets: stats.nets,
        prep_seconds: analyzer.prep_seconds(),
        analysis_seconds,
        ok: report.ok(),
        max_passes: report.prep_stats().max_cluster_passes,
    }
}

/// Formats rows in the style of the paper's Table 1.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>7} {:>7} {:>12} {:>10} {:>7} {:>6}\n",
        "Example", "Cells", "Nets", "Pre-proc(s)", "Anal.(s)", "Passes", "OK"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>7} {:>7} {:>12.4} {:>10.4} {:>7} {:>6}\n",
            r.example,
            r.cells,
            r.nets,
            r.prep_seconds,
            r.analysis_seconds,
            r.max_passes,
            if r.ok { "yes" } else { "no" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;
    use hb_workloads::fsm12;

    #[test]
    fn table1_row_measures_both_phases() {
        let lib = sc89();
        let w = fsm12(&lib, true);
        let row = table1_row(&lib, &w);
        assert_eq!(row.example, "SM1F");
        assert!(row.cells > 200);
        assert!(row.prep_seconds >= 0.0 && row.analysis_seconds >= 0.0);
        assert!(row.max_passes >= 1);
        let text = format_table1(&[row]);
        assert!(text.contains("SM1F"));
        assert!(text.lines().count() == 2);
    }
}
