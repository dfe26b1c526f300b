//! A prepared state patched in place after a delay-only ECO must equal
//! a cold preparation of the identically edited design, part for part:
//! every shard arc's delay, every work item's fingerprint and seeds in
//! item order, every replica with all its timing and initial offsets,
//! the pass plans and the min-delay violations
//! ([`Prepared::first_difference`]).
//!
//! Each design family runs a seeded ECO sequence — resizes up and down
//! and net load rescales drawn by seed — plus, where the design has
//! them, the steps a patch handles beyond moving arc delays: a latch
//! resize, a clock-buffer resize, a rescale of a clock net and of a
//! latch's output net, and an ECO followed by its inverse. The state is
//! compared after every step.

use hb_cells::{Binding, Library};
use hb_io::HumFile;
use hb_netlist::{Design, InstRef, ModuleId};
use hb_resynth::{apply_eco, EcoOp};
use hb_rng::SmallRng;
use hb_workloads::{counter, fsm12, generate, GenKind, GenParams};
use hummingbird::{AnalysisOptions, Analyzer, LatchModel, Prepared};

mod common;
use common::{hum_text, sized_sync_library};

/// A cold preparation of `design`, with the clocks and boundary timing
/// of `file`.
fn cold(file: &HumFile, design: &Design, lib: &Library, options: AnalysisOptions) -> Prepared {
    let top = design.top().unwrap();
    let spec = hb_server::spec_from_directives(design, top, &file.clocks, &file.timing).unwrap();
    Analyzer::with_options(design, top, lib, &file.clocks, spec, options)
        .unwrap()
        .into_prepared()
}

/// The drive-variant position and family size of a leaf instance, if
/// its family has more than one variant.
fn drive(design: &Design, top: ModuleId, lib: &Library, name: &str) -> Option<(usize, usize)> {
    let module = design.module(top);
    let InstRef::Leaf(leaf) = module.instance(module.instance_by_name(name)?).target() else {
        return None;
    };
    let cell = Binding::new(design, lib).cell_for_leaf(leaf)?;
    let variants = lib.family_variants(lib.cell(cell).family());
    let at = variants.iter().position(|&v| v == cell)?;
    (variants.len() > 1).then_some((at, variants.len()))
}

/// A one-step resize of `name`, up when `up` and there is room, down
/// otherwise.
fn resize(design: &Design, top: ModuleId, lib: &Library, name: &str, up: bool) -> EcoOp {
    let (at, len) = drive(design, top, lib, name).expect("a resizable instance");
    let steps = if (up && at + 1 < len) || at == 0 {
        1
    } else {
        -1
    };
    EcoOp::RetargetDrive {
        inst: name.to_owned(),
        steps,
    }
}

fn scale(net: &str, percent: u32) -> EcoOp {
    EcoOp::ScaleNetLoad {
        net: net.to_owned(),
        percent,
    }
}

/// The inverse of a resize.
fn inverse(op: &EcoOp) -> EcoOp {
    match op {
        EcoOp::RetargetDrive { inst, steps } => EcoOp::RetargetDrive {
            inst: inst.clone(),
            steps: -steps,
        },
        EcoOp::ScaleNetLoad { net, .. } => scale(net, 100),
    }
}

/// Applies the ops `next` yields one by one to a fresh parse of `text`,
/// patching one resident state through every step, and compares it
/// after each step with a cold preparation of the edited design. `next`
/// computes each op from the design as edited so far. Returns the
/// number of steps.
fn check(
    what: &str,
    text: &str,
    lib: &Library,
    options: AnalysisOptions,
    next: &mut dyn FnMut(&Design, usize) -> Option<EcoOp>,
) -> usize {
    let mut file = hb_io::parse_hum(text, lib).unwrap();
    let mut design = std::mem::replace(&mut file.design, Design::new("moved"));
    let top = design.top().unwrap();
    let mut state = cold(&file, &design, lib, options);
    let mut k = 0;
    while let Some(op) = next(&design, k) {
        let outcome = apply_eco(&mut design, top, lib, &op)
            .unwrap_or_else(|e| panic!("{what}: step {k} ({op:?}) does not apply: {e}"));
        state = state
            .patch(&design, lib, &file.clocks, outcome.edit)
            .unwrap_or_else(|| panic!("{what}: step {k} ({op:?}) did not patch"));
        let fresh = cold(&file, &design, lib, options);
        assert_eq!(
            state.first_difference(&fresh),
            None,
            "{what}: the patched state differs from a cold one after step {k} ({op:?})"
        );
        k += 1;
    }
    k
}

/// The special steps on `text`'s design (those it has the objects for)
/// followed by ten steps drawn by `seed`, every fourth undoing the one
/// before.
fn sequence(what: &str, text: &str, lib: &Library, options: AnalysisOptions, seed: u64) {
    let file = hb_io::parse_hum(text, lib).unwrap();
    let (design, top) = (&file.design, file.design.top().unwrap());
    let module = design.module(top);
    let binding = Binding::new(design, lib);
    let cell_of = |name: &str| {
        let InstRef::Leaf(leaf) = module.instance(module.instance_by_name(name)?).target() else {
            return None;
        };
        Some(lib.cell(binding.cell_for_leaf(leaf)?))
    };
    let names: Vec<String> = module
        .instances()
        .map(|(_, i)| i.name().to_owned())
        .collect();
    let resizable: Vec<String> = (names.iter())
        .filter(|n| drive(design, top, lib, n).is_some())
        .cloned()
        .collect();
    let nets: Vec<String> = module.nets().map(|(_, n)| n.name().to_owned()).collect();
    let find = |sync: bool| {
        (names.iter()).find(|n| {
            cell_of(n).is_some_and(|c| match sync {
                true => c.sync_spec().is_some() && drive(design, top, lib, n).is_some(),
                false => c.family() == "CLKBUF",
            })
        })
    };
    let net_on = |inst: &str, pin: &str| {
        let id = module.instance_by_name(inst)?;
        let slot = cell_of(inst)?.interface().pin_by_name(pin)?;
        Some(
            module
                .net(module.instance(id).conn(slot)?)
                .name()
                .to_owned(),
        )
    };

    // The special steps, planned on the unedited design: a latch resize
    // and its inverse, a clock-buffer resize, then rescales of a clock
    // net and of a latch's output net.
    let mut plan: Vec<EcoOp> = Vec::new();
    if let Some(latch) = find(true) {
        let up = resize(design, top, lib, latch, true);
        plan.push(up.clone());
        plan.push(inverse(&up));
        plan.extend(net_on(latch, "Q").map(|q| scale(&q, 250)));
    }
    if let Some(buffer) = find(false) {
        plan.push(resize(design, top, lib, buffer, false));
        plan.extend(net_on(buffer, "Y").map(|y| scale(&y, 180)));
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let total = plan.len() + 10;
    let mut last: Option<EcoOp> = None;
    let ran = check(what, text, lib, options, &mut |d: &Design, k: usize| {
        if k >= total {
            return None;
        }
        let op = if k < plan.len() {
            plan[k].clone()
        } else if k % 4 == 3 {
            inverse(last.as_ref().expect("a step ran before"))
        } else if rng.gen_range(0..3) == 0 || resizable.is_empty() {
            let net = &nets[rng.gen_range(0..nets.len())];
            scale(net, [40, 75, 130, 300][rng.gen_range(0..4)])
        } else {
            let name = &resizable[rng.gen_range(0..resizable.len())];
            resize(d, top, lib, name, rng.gen_range(0..2) == 0)
        };
        last = Some(op.clone());
        Some(op)
    });
    assert_eq!(ran, total, "{what}");
}

fn text_of(path: &str) -> String {
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn patched_state_equals_cold_on_generated_families() {
    let lib = sized_sync_library();
    for (kind, seed) in [
        (GenKind::Pipeline, 3),
        (GenKind::Sbox, 5),
        (GenKind::Sram, 7),
    ] {
        let w = generate(&lib, &GenParams::new(kind, 2_000, seed));
        let what = format!("{kind:?} 2k");
        sequence(&what, &hum_text(&w), &lib, AnalysisOptions::default(), seed);
    }
}

#[test]
fn patched_state_equals_cold_on_small_designs() {
    let lib = sized_sync_library();
    let defaults = AnalysisOptions::default();
    sequence("fsm12", &hum_text(&fsm12(&lib, true)), &lib, defaults, 11);
    sequence(
        "counter",
        &hum_text(&counter(&lib, 8, 10)),
        &lib,
        defaults,
        12,
    );
    let two_phase = text_of("../../designs/two_phase_pipeline.hum");
    sequence("two_phase_pipeline", &two_phase, &lib, defaults, 13);
    let multi = text_of("../../designs/multifrequency.hum");
    sequence("multifrequency", &multi, &lib, defaults, 14);
}

#[test]
fn patched_state_equals_cold_under_other_options() {
    let lib = sized_sync_library();
    let edge = AnalysisOptions {
        latch_model: LatchModel::EdgeTriggered,
        ..AnalysisOptions::default()
    };
    let two_phase = text_of("../../designs/two_phase_pipeline.hum");
    sequence("two_phase_pipeline, latch=edge", &two_phase, &lib, edge, 21);
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 2_000, 4));
    sequence("Pipeline 2k, latch=edge", &hum_text(&w), &lib, edge, 22);
    // The min-delay check reruns on a freshly built whole graph.
    let min_delays = AnalysisOptions {
        check_min_delays: true,
        ..AnalysisOptions::default()
    };
    let race = text_of("../../designs/skew_race.hum");
    sequence("skew_race, min-delays=1", &race, &lib, min_delays, 23);
}
