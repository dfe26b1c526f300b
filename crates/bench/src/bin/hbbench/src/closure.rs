//! `pipeline-closure`: the paper's analysis-redesign loop.
//!
//! A synthesis tool holds a 100k-cell transparent-latch pipeline that
//! violates timing in an in-process `hb_server::Session`. It asks for
//! constraints once, reads the 20 worst paths, then sends ECOs and
//! waits for each reply (closed loop): resizes by alternating ±1 drive
//! steps on instances of those paths, and every fifth request a net
//! load rescale to 120% / 83%. Each ECO re-prepares the design and
//! re-runs Algorithms 1+2 through the session's resident slack cache,
//! so this workload exercises the transfer cycles and the cache reuse
//! that `sram-signoff` bypasses.
//!
//! The traced run replays the same ECO sequence through the public
//! calls `Session::eco` makes — `apply_eco` → `spec_from_directives` →
//! `Analyzer::with_options` → `generate_constraints_with_cache` — on
//! its own design and cache.

use std::collections::HashMap;
use std::time::Instant;

use hb_cells::{sc89, Binding, Library};
use hb_io::Frame;
use hb_netlist::InstRef;
use hb_resynth::{apply_eco, EcoOp};
use hb_rng::SmallRng;
use hb_server::Session;
use hb_workloads::{generate, GenKind, GenParams, Workload};
use hummingbird::{AnalysisOptions, EngineKind, SlackCache};

use crate::layers::{self, Loaded};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Ledger, Outcome, Window};

const CELLS: usize = 100_000;
/// The design is the same for every seed; the seed draws the ECO
/// sequence. Across generator seeds a 100k-cell latch pipeline needs
/// anywhere from 6 to the 64-cycle cap of Algorithm 2 snatch cycles,
/// so a seed-drawn design would let the seed, not the code, set the
/// ECO time. Generator seed 7 needs 13 Algorithm 1 and 22 Algorithm 2
/// cycles, neither capped.
const DESIGN_SEED: u64 = 7;
const QUICK_CELLS: usize = 5_000;
const QUICK_ECOS: usize = 5;
/// The tool picks ECO targets from this many worst paths.
const WORST_PATHS: usize = 20;
/// Every this-many-th request is a net load rescale.
const SCALE_EVERY: usize = 5;
/// ECOs planned up front; more than any measured window completes.
const PLANNED: usize = 20_000;

fn frame(op: &EcoOp) -> Frame {
    match op {
        EcoOp::RetargetDrive { inst, steps } => Frame::new("eco")
            .arg("op", "resize")
            .arg("inst", inst)
            .arg("steps", steps),
        EcoOp::ScaleNetLoad { net, percent } => Frame::new("eco")
            .arg("op", "scale-net")
            .arg("net", net)
            .arg("percent", percent),
    }
}

/// The ECO sequence, drawn by seed from the nets and resizable
/// instances of the worst paths. Each resize steps in the direction
/// the alternation asks for unless the cell is already at that end of
/// its drive family, so that every ECO applies.
fn plan(paths: &Frame, w: &Workload, lib: &Library, seed: u64, count: usize) -> Vec<EcoOp> {
    let mut nets: Vec<String> = Vec::new();
    let mut insts: Vec<String> = Vec::new();
    for line in paths.payload.as_deref().unwrap_or("").lines() {
        // "  -> NET via INST at TIME"
        let mut words = line.split_whitespace();
        if let (Some("->"), Some(net), Some("via"), Some(inst)) =
            (words.next(), words.next(), words.next(), words.next())
        {
            if !nets.iter().any(|n| n == net) {
                nets.push(net.to_owned());
            }
            if !insts.iter().any(|i| i == inst) {
                insts.push(inst.to_owned());
            }
        }
    }
    let module = w.design.module(w.module);
    let binding = Binding::new(&w.design, lib);
    // Drive position and family size of each resizable instance.
    let mut drive: HashMap<String, (usize, usize)> = HashMap::new();
    for name in &insts {
        let Some(id) = module.instance_by_name(name) else {
            continue;
        };
        let InstRef::Leaf(leaf) = module.instance(id).target() else {
            continue;
        };
        let Some(cell) = binding.cell_for_leaf(leaf) else {
            continue;
        };
        let variants = lib.family_variants(lib.cell(cell).family());
        if variants.len() > 1 {
            let at = variants
                .iter()
                .position(|&v| v == cell)
                .expect("own family");
            drive.insert(name.clone(), (at, variants.len()));
        }
    }
    insts.retain(|i| drive.contains_key(i));
    assert!(
        !insts.is_empty() && !nets.is_empty(),
        "the worst paths name resizable instances and nets"
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xec0_c105e);
    let mut up = true;
    (0..count)
        .map(|i| {
            if i % SCALE_EVERY == SCALE_EVERY - 1 {
                EcoOp::ScaleNetLoad {
                    net: nets[rng.gen_range(0..nets.len())].clone(),
                    percent: if (i / SCALE_EVERY).is_multiple_of(2) {
                        120
                    } else {
                        83
                    },
                }
            } else {
                let inst = insts[rng.gen_range(0..insts.len())].clone();
                let (at, len) = drive[&inst];
                let want = if up { 1 } else { -1 };
                up = !up;
                let steps = if (at as i64 + want) < 0 || (at as i64 + want) >= len as i64 {
                    -want
                } else {
                    want
                };
                drive.insert(inst.clone(), ((at as i64 + steps) as usize, len));
                EcoOp::RetargetDrive {
                    inst,
                    steps: steps as i32,
                }
            }
        })
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let lib = sc89();
    let cells = if cfg.quick { QUICK_CELLS } else { CELLS };
    let planned = if cfg.quick { QUICK_ECOS } else { PLANNED };
    let mut out = Outcome::default();

    let mut state = None;
    out.setup(|| {
        let w = generate(&lib, &GenParams::new(GenKind::Pipeline, cells, DESIGN_SEED));
        let text = w.to_hum();
        let mut session = Session::new(lib.clone());
        for req in [
            Frame::new("load").with_payload(text.clone()),
            Frame::new("constraints"),
        ] {
            let reply = session.handle(&req);
            assert_eq!(reply.verb, "ok", "{} failed: {:?}", req.verb, reply.payload);
        }
        let paths = session.handle(&Frame::new("worst-paths").arg("k", WORST_PATHS));
        state = Some((w, text, session, paths));
    });
    let (w, text, mut session, paths) = state.expect("set up");
    let ops = plan(&paths, &w, &lib, cfg.seed, planned);
    drop(w);

    // The tool's loop through the session: the end-to-end numbers.
    let phases = if cfg.trace { 3 } else { 1 };
    let mut ecos = Samples::new();
    let mut last = None;
    let mut applied = Vec::new();
    let window = Window::new(cfg, phases, QUICK_ECOS);
    let mut last_end = Instant::now();
    for op in &ops {
        if !window.more(out.attempted as usize) {
            break;
        }
        let req = frame(op);
        out.attempted += 1;
        let t = Instant::now();
        out.gap(t - last_end);
        let reply = session.handle(&req);
        let took = t.elapsed();
        last_end = Instant::now();
        if reply.verb == "ok" {
            ecos.push_ms(took);
            last = Some(reply);
            applied.push(op.clone());
        } else {
            eprintln!(
                "pipeline-closure: {} refused: {:?}",
                req.encode().trim(),
                reply
            );
            out.failed += 1;
        }
    }
    let wall = window.elapsed();
    out.mismatches += check_against_cold(&text, &applied, last.as_ref(), &lib);
    let session_p50 = ecos.median();
    out.latency(&mut ecos, wall);

    if cfg.trace {
        let mut ledger = Ledger::default();
        let (untraced, _) = replay(&text, &ops, &lib, Tracer::new(false), cfg, None);
        let (traced, tr) = replay(&text, &ops, &lib, Tracer::new(true), cfg, Some(&mut ledger));
        ledger.spans(&tr, Some("closure.eco"), text.len());
        ledger.overhead = traced / untraced;
        ledger.set("server.session_share", 1.0 - untraced / session_p50);
        out.layers(ledger);
        out.tracer = Some(tr);
    }
    out
}

/// Replays the ECO sequence through the public calls on a fresh copy
/// of the design; returns the median step in ms and the tracer.
fn replay(
    text: &str,
    ops: &[EcoOp],
    lib: &Library,
    mut tr: Tracer,
    cfg: &Config,
    mut ledger: Option<&mut Ledger>,
) -> (f64, Tracer) {
    let options = AnalysisOptions::default();
    let mut l = layers::load(&mut tr, 0, text, lib).expect("generated text parses");
    let mut cache = SlackCache::new();
    {
        let analyzer = layers::prepare(&mut tr, 0, &l, lib, options).expect("conforming design");
        layers::constraints(&mut tr, 0, &analyzer, &mut cache);
    }
    let mut steps = Samples::new();
    let window = Window::new(cfg, 3, QUICK_ECOS);
    for (k, op) in ops.iter().enumerate() {
        if !window.more(steps.len()) {
            break;
        }
        let req = k as u64 + 1;
        let t = Instant::now();
        tr.begin("closure.eco", req);
        let report = step(&mut tr, req, &mut l, op, lib, &mut cache, options);
        tr.end();
        steps.push_ms(t.elapsed());
        if let Some(ledger) = ledger.as_deref_mut() {
            let size = layers::probe_graph(&mut tr, req, &l, lib);
            ledger.report(&report, size);
        }
    }
    (steps.median(), tr)
}

/// One ECO as `Session::eco` performs it.
fn step(
    tr: &mut Tracer,
    req: u64,
    l: &mut Loaded,
    op: &EcoOp,
    lib: &Library,
    cache: &mut SlackCache,
    options: AnalysisOptions,
) -> hummingbird::TimingReport {
    tr.span("resynth.apply_eco", req, || {
        apply_eco(&mut l.design, l.top, lib, op)
    })
    .expect("planned ECOs apply");
    let analyzer = layers::prepare(tr, req, l, lib, options).expect("ECOs keep the design valid");
    layers::constraints(tr, req, &analyzer, cache)
}

/// The oracle: the last ECO's `worst=` / `ok=` must equal a cold
/// analysis, by both the sharded and the reference engine, of the
/// original text with the applied ECOs replayed on a fresh parse.
/// (Not of the session's `dump`: `.hum` text does not carry the
/// `hb.load_pct` net attribute that `scale-net` sets, so a dump loses
/// those ECOs.) Returns the number of disagreements.
fn check_against_cold(text: &str, applied: &[EcoOp], last: Option<&Frame>, lib: &Library) -> u64 {
    let Some(last) = last else {
        return 0;
    };
    let mut off = Tracer::new(false);
    let mut l = layers::load(&mut off, 0, text, lib).expect("generated text parses");
    for op in applied {
        apply_eco(&mut l.design, l.top, lib, op).expect("planned ECOs apply");
    }
    let mut wrong = 0;
    for engine in [EngineKind::Sharded, EngineKind::Reference] {
        let options = AnalysisOptions {
            engine,
            ..AnalysisOptions::default()
        };
        let analyzer = layers::prepare(&mut off, 0, &l, lib, options).expect("the dump conforms");
        let cold = analyzer.generate_constraints();
        let worst = cold.worst_slack().to_string();
        let ok = u8::from(cold.ok()).to_string();
        if last.get("worst") != Some(worst.as_str()) || last.get("ok") != Some(ok.as_str()) {
            eprintln!(
                "pipeline-closure: {engine:?} cold analysis says worst={worst} ok={ok}, \
                 the session said {:?}",
                last.args
            );
            wrong += 1;
        }
    }
    wrong
}
