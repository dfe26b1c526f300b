//! `sram-signoff`: a 250k-cell SRAM design from text to verdict.
//!
//! One caller, closed loop: each rep parses the in-memory `.hum` text,
//! validates it, builds the spec, prepares and runs Algorithm 1. The
//! design is feasible and its latches never borrow, so the load path
//! (parse, graph and shard build) dominates and the slack cache is
//! never reused — the workload that bypasses Algorithm 1's transfer
//! cycles and `SlackCache`.
//!
//! 250k cells rather than a million: a million-cell rep takes 2–3 s and
//! its time is bimodal (allocator state), so the median of the five or
//! six reps a run fits flips between the modes from run to run.

use std::time::{Duration, Instant};

use hb_cells::sc89;
use hb_workloads::{generate, GenKind, GenParams};
use hummingbird::{AnalysisOptions, EngineKind};

use crate::layers;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Ledger, Outcome, Window};

const CELLS: usize = 250_000;
const QUICK_CELLS: usize = 10_000;
const QUICK_REPS: usize = 2;

pub fn run(cfg: &Config) -> Outcome {
    let lib = sc89();
    let cells = if cfg.quick { QUICK_CELLS } else { CELLS };
    let mut out = Outcome::default();

    let mut text = String::new();
    out.setup(|| {
        text = generate(&lib, &GenParams::new(GenKind::Sram, cells, cfg.seed)).to_hum();
    });

    // The oracle: the dense reference engine on the same text, once,
    // outside the measured window.
    let reference = {
        let mut off = Tracer::new(false);
        let l = layers::load(&mut off, 0, &text, &lib).expect("generated text parses");
        let options = AnalysisOptions {
            engine: EngineKind::Reference,
            ..AnalysisOptions::default()
        };
        let analyzer =
            layers::prepare(&mut off, 0, &l, &lib, options).expect("generated designs conform");
        layers::fingerprint(&l, &analyzer.analyze())
    };

    let mut ledger = Ledger::default();
    let phases: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let mut medians = Vec::new();
    for &traced in phases {
        let mut tr = Tracer::new(traced);
        let mut verdicts = Samples::new();
        let window = Window::new(cfg, phases.len(), QUICK_REPS);
        let mut last_end = Instant::now();
        // Time spent checking answers, which is not the caller's.
        let mut checking = Duration::ZERO;
        let mut reps = 0;
        while window.more(reps) {
            reps += 1;
            let rep = out.attempted;
            out.attempted += 1;
            let t = Instant::now();
            out.gap(t - last_end);
            tr.begin("signoff.verdict", rep);
            let result = layers::verdict(&mut tr, rep, &text, &lib);
            tr.end();
            let took = t.elapsed();
            match result {
                Err(e) => {
                    eprintln!("sram-signoff: verdict failed: {e}");
                    out.failed += 1;
                }
                Ok((l, report)) => {
                    verdicts.push_ms(took);
                    let check = Instant::now();
                    if layers::fingerprint(&l, &report) != reference {
                        out.mismatches += 1;
                    }
                    checking += check.elapsed();
                    if traced {
                        let size = layers::probe_graph(&mut tr, rep, &l, &lib);
                        ledger.report(&report, size);
                    }
                }
            }
            last_end = Instant::now();
        }
        let wall = window.elapsed() - checking;
        medians.push(verdicts.median());
        if traced {
            ledger.spans(&tr, Some("signoff.verdict"), text.len());
            out.tracer = Some(tr);
        } else {
            out.latency(&mut verdicts, wall);
        }
    }
    if cfg.trace {
        ledger.overhead = medians[1] / medians[0];
        out.layers(ledger);
    }
    out
}
