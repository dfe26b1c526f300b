//! The analysis/redesign loop — Algorithm 3 of the paper.
//!
//! ```text
//! Synthesise initial area-optimised combinational logic modules.
//! Until all paths are fast enough:
//!     Perform timing analysis to identify all paths that are too slow;
//!     Provide input data ready times and output required times for all
//!     combinational logic modules traversed by paths that are too slow;
//!     Select one such module and speed up slow paths.
//! ```
//!
//! The paper delegates "speed up slow paths" to the timing-optimization
//! program of Singh et al. (ICCAD'88). This crate implements the classic
//! minimal speed-up operators that such a program applies, driven by the
//! ready/required constraints that Algorithm 2 generates:
//!
//! * **gate resizing** — retarget an instance to a higher-drive variant
//!   of the same cell family ([`hb_netlist::Design::replace_instance_ref`]);
//! * **load isolation** — when the driver is already at maximum drive,
//!   insert a buffer and move the *non-critical* sinks (those whose
//!   required-minus-ready budget can absorb the buffer delay) onto it,
//!   unloading the critical net.
//!
//! Each outer iteration re-runs the full analysis, exactly as the
//! analysis-redesign loop of the original system round-tripped through
//! OCT.
//!
//! # Examples
//!
//! ```no_run
//! use hb_cells::sc89;
//! use hb_clock::ClockSet;
//! use hb_resynth::{optimize, ResynthOptions};
//! # fn get_design() -> (hb_netlist::Design, hb_netlist::ModuleId, ClockSet, hummingbird::Spec) { unimplemented!() }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = sc89();
//! let (mut design, module, clocks, spec) = get_design();
//! let outcome = optimize(&mut design, module, &lib, &clocks, &spec, ResynthOptions::default())?;
//! println!("met timing: {} after {} edits", outcome.met, outcome.edits);
//! # Ok(())
//! # }
//! ```

mod eco;

pub use eco::{apply_eco, EcoError, EcoOp, EcoOutcome};

use hb_cells::{Binding, Library};
use hb_clock::ClockSet;
use hb_netlist::{Design, Endpoint, InstId, InstRef, ModuleId, NetId};
use hb_units::Time;
use hummingbird::{AnalyzeError, Analyzer, Spec, TimingConstraints};

/// Tuning for the redesign loop.
#[derive(Clone, Copy, Debug)]
pub struct ResynthOptions {
    /// Maximum analysis/redesign iterations.
    pub max_iterations: usize,
    /// Maximum edits applied per iteration (between re-analyses).
    pub max_edits_per_iteration: usize,
    /// Estimated delay cost of an inserted isolation buffer, used to
    /// decide which sinks can afford to move behind one.
    pub buffer_cost: Time,
}

impl Default for ResynthOptions {
    fn default() -> ResynthOptions {
        ResynthOptions {
            max_iterations: 24,
            max_edits_per_iteration: 16,
            buffer_cost: Time::from_ps(400),
        }
    }
}

/// The result of a redesign run.
#[derive(Clone, Debug, Default)]
pub struct ResynthOutcome {
    /// Whether all paths ended fast enough.
    pub met: bool,
    /// Analysis/redesign iterations performed.
    pub iterations: usize,
    /// Total structural edits applied (resizes plus buffer insertions).
    pub edits: usize,
    /// Gate resizes applied.
    pub resizes: usize,
    /// Isolation buffers inserted.
    pub buffers: usize,
    /// The worst terminal slack after each analysis (first entry is the
    /// initial design).
    pub worst_slack_history: Vec<Time>,
    /// Total cell area before the loop ran.
    pub area_before: u64,
    /// Total cell area after the loop ran — the price paid for speed
    /// (the paper's premise: logic is initially *area*-optimised, and
    /// the redesign loop spends area to meet timing).
    pub area_after: u64,
}

/// Runs the analysis/redesign loop on `module` until timing is met, no
/// further edit applies, or the iteration cap is reached.
///
/// # Errors
///
/// Propagates analyzer preparation failures (structural assumption
/// violations, bad specs). The design is left in its most-optimised
/// state even when timing is not met.
pub fn optimize(
    design: &mut Design,
    module: ModuleId,
    library: &Library,
    clocks: &ClockSet,
    spec: &Spec,
    options: ResynthOptions,
) -> Result<ResynthOutcome, AnalyzeError> {
    let mut outcome = ResynthOutcome {
        area_before: total_area(design, module, library),
        ..ResynthOutcome::default()
    };
    for _ in 0..options.max_iterations {
        outcome.iterations += 1;
        let report = {
            let analyzer = Analyzer::new(design, module, library, clocks, spec.clone())?;
            analyzer.generate_constraints()
        };
        outcome.worst_slack_history.push(report.worst_slack());
        if report.ok() {
            outcome.met = true;
            outcome.area_after = total_area(design, module, library);
            return Ok(outcome);
        }
        let constraints = report.constraints().expect("generated above");

        // Slow nets, most negative first — the per-net budgets Algorithm 2
        // settled.
        let mut slow: Vec<(Time, NetId)> = design
            .module(module)
            .nets()
            .filter_map(|(id, _)| {
                let s = constraints.net_slack(id)?;
                (s <= Time::ZERO).then_some((s, id))
            })
            .collect();
        slow.sort();

        let mut edits_this_round = 0;
        for &(_, net) in &slow {
            if edits_this_round >= options.max_edits_per_iteration {
                break;
            }
            let driver = match design.module(module).driver(net) {
                Some(Endpoint::Pin { inst, .. }) => inst,
                _ => continue, // driven by a port: nothing to resize
            };
            if try_resize(design, module, driver, library) {
                outcome.resizes += 1;
                edits_this_round += 1;
                continue;
            }
            if try_isolate(
                design,
                module,
                net,
                library,
                constraints,
                options.buffer_cost,
            ) {
                outcome.buffers += 1;
                edits_this_round += 1;
            }
        }
        outcome.edits += edits_this_round;
        if edits_this_round == 0 {
            // No applicable edit: the loop cannot make progress.
            outcome.area_after = total_area(design, module, library);
            return Ok(outcome);
        }
    }
    // Cap reached: record the final state.
    let report = {
        let analyzer = Analyzer::new(design, module, library, clocks, spec.clone())?;
        analyzer.analyze()
    };
    outcome.worst_slack_history.push(report.worst_slack());
    outcome.met = report.ok();
    outcome.area_after = total_area(design, module, library);
    Ok(outcome)
}

/// Sums the area of every library-bound leaf instance in `module`.
fn total_area(design: &Design, module: ModuleId, library: &Library) -> u64 {
    let binding = Binding::new(design, library);
    design
        .module(module)
        .instances()
        .filter_map(|(id, _)| binding.cell_for_instance(design, module, id))
        .map(|cell| u64::from(library.cell(cell).area()))
        .sum()
}

/// Retargets `inst` to the next-larger drive variant of its family.
/// Returns `false` when the instance is not a library cell or is already
/// at maximum drive.
fn try_resize(design: &mut Design, module: ModuleId, inst: InstId, library: &Library) -> bool {
    let leaf = match design.module(module).instance(inst).target() {
        InstRef::Leaf(l) => l,
        InstRef::Module(_) => return false,
    };
    let binding = Binding::new(design, library);
    let Some(cell_id) = binding.cell_for_leaf(leaf) else {
        return false;
    };
    let cell = library.cell(cell_id);
    let variants = library.family_variants(cell.family());
    let position = variants.iter().position(|&v| v == cell_id).unwrap_or(0);
    for &bigger in &variants[position + 1..] {
        let name = library.cell(bigger).name();
        let Some(new_leaf) = design.leaf_by_name(name) else {
            continue;
        };
        if design.replace_instance_ref(module, inst, new_leaf).is_ok() {
            return true;
        }
    }
    false
}

/// Inserts an isolation buffer on `net` and moves every sink that can
/// afford `buffer_cost` of extra delay onto it. Returns `false` when no
/// sink can move (all critical) or fewer than two sinks exist.
fn try_isolate(
    design: &mut Design,
    module: ModuleId,
    net: NetId,
    library: &Library,
    constraints: &TimingConstraints,
    buffer_cost: Time,
) -> bool {
    let loads: Vec<(InstId, hb_netlist::PinSlot)> = design
        .module(module)
        .loads(net)
        .filter_map(|ep| match ep {
            Endpoint::Pin { inst, slot, .. } => Some((inst, slot)),
            Endpoint::Port(_) => None,
        })
        .collect();
    if loads.len() < 2 {
        return false;
    }
    // A sink can move if every net its instance drives has enough
    // settled budget to absorb the buffer.
    let mut movable: Vec<(InstId, hb_netlist::PinSlot)> = Vec::new();
    for &(inst, slot) in &loads {
        let mut budget = Time::INF;
        for (_, out_net) in design.module(module).instance(inst).conns() {
            if let Some(Endpoint::Pin { inst: d, .. }) = design.module(module).driver(out_net) {
                if d == inst {
                    if let Some(s) = constraints.net_slack(out_net) {
                        budget = budget.min(s);
                    }
                }
            }
        }
        if budget.is_finite() && budget > buffer_cost {
            movable.push((inst, slot));
        }
    }
    if movable.is_empty() || movable.len() == loads.len() {
        // Nothing movable, or everything is uncritical (buffering would
        // not help the critical sink because there is none).
        return false;
    }
    let Some(buf_leaf) = design.leaf_by_name("BUF_X4").or_else(|| {
        library
            .family_variants("BUF")
            .last()
            .and_then(|&c| design.leaf_by_name(library.cell(c).name()))
    }) else {
        return false;
    };
    let net_name = design.module(module).net(net).name().to_owned();
    let new_net = match design.add_net(module, format!("{net_name}__iso")) {
        Ok(n) => n,
        Err(_) => return false, // already isolated once
    };
    let buf = design
        .add_leaf_instance(module, format!("{net_name}__isobuf"), buf_leaf)
        .expect("name is fresh with the net");
    design
        .connect(module, buf, "A", net)
        .expect("library buffer has pin A");
    design
        .connect(module, buf, "Y", new_net)
        .expect("library buffer has pin Y");
    for (inst, slot) in movable {
        design.connect_slot(module, inst, slot, new_net);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;
    use hb_units::Transition;
    use hummingbird::EdgeSpec;

    /// A flop-to-flop stage whose middle inverter drives a heavy fanout:
    /// resizing (and possibly buffering) must rescue it at a period that
    /// the X1 drive misses.
    fn heavy_fanout_design() -> (Design, ModuleId, ClockSet, Spec) {
        let lib = sc89();
        let mut d = Design::new("rs");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let ck = d.add_net(m, "ck").unwrap();
        d.add_port(m, "ck", hb_netlist::PinDir::Input, ck).unwrap();
        let input = d.add_net(m, "in").unwrap();
        d.add_port(m, "in", hb_netlist::PinDir::Input, input)
            .unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let dff = d.leaf_by_name("DFF").unwrap();

        let q0 = d.add_net(m, "q0").unwrap();
        let ff0 = d.add_leaf_instance(m, "ff0", dff).unwrap();
        d.connect(m, ff0, "D", input).unwrap();
        d.connect(m, ff0, "CK", ck).unwrap();
        d.connect(m, ff0, "Q", q0).unwrap();

        // A 4-deep chain where every stage also drives 12 side loads.
        let mut prev = q0;
        for stage in 0..4 {
            let next = d.add_net(m, format!("c{stage}")).unwrap();
            let u = d.add_leaf_instance(m, format!("drv{stage}"), inv).unwrap();
            d.connect(m, u, "A", prev).unwrap();
            d.connect(m, u, "Y", next).unwrap();
            for k in 0..12 {
                let side = d.add_net(m, format!("side{stage}_{k}")).unwrap();
                let s = d
                    .add_leaf_instance(m, format!("load{stage}_{k}"), inv)
                    .unwrap();
                d.connect(m, s, "A", next).unwrap();
                d.connect(m, s, "Y", side).unwrap();
                // Terminate each side branch in a flop so it is observed.
                let sq = d.add_net(m, format!("sideq{stage}_{k}")).unwrap();
                let sf = d
                    .add_leaf_instance(m, format!("sideff{stage}_{k}"), dff)
                    .unwrap();
                d.connect(m, sf, "D", side).unwrap();
                d.connect(m, sf, "CK", ck).unwrap();
                d.connect(m, sf, "Q", sq).unwrap();
            }
            prev = next;
        }
        let qn = d.add_net(m, "qn").unwrap();
        let ffn = d.add_leaf_instance(m, "ffn", dff).unwrap();
        d.connect(m, ffn, "D", prev).unwrap();
        d.connect(m, ffn, "CK", ck).unwrap();
        d.connect(m, ffn, "Q", qn).unwrap();
        d.set_top(m).unwrap();

        let mut clocks = ClockSet::new();
        clocks
            .add_clock("ck", Time::from_ps(2_900), Time::ZERO, Time::from_ps(1_450))
            .unwrap();
        let spec = Spec::new().clock_port("ck", "ck").input_arrival(
            "in",
            EdgeSpec::new("ck", Transition::Rise),
            Time::ZERO,
        );
        (d, m, clocks, spec)
    }

    #[test]
    fn loop_fixes_heavy_fanout() {
        let lib = sc89();
        let (mut design, module, clocks, spec) = heavy_fanout_design();
        // Confirm the initial design fails.
        {
            let a = Analyzer::new(&design, module, &lib, &clocks, spec.clone()).unwrap();
            assert!(!a.analyze().ok(), "X1 drive into 13 loads must miss 2.9 ns");
        }
        let outcome = optimize(
            &mut design,
            module,
            &lib,
            &clocks,
            &spec,
            ResynthOptions::default(),
        )
        .unwrap();
        assert!(outcome.met, "redesign must close timing: {outcome:?}");
        assert!(outcome.resizes > 0, "expected at least one resize");
        assert!(
            outcome.area_after > outcome.area_before,
            "speed is bought with area: {outcome:?}"
        );
        assert!(outcome.edits >= outcome.resizes);
        // Slack history is non-trivial and ends no worse than it began.
        let first = outcome.worst_slack_history.first().unwrap();
        let last = outcome.worst_slack_history.last().unwrap();
        assert!(last > first, "timing improved: {outcome:?}");
        design.validate().unwrap();
    }

    #[test]
    fn loop_reports_failure_when_hopeless() {
        // A single inverter cannot meet a 100 ps clock no matter the
        // drive: the loop must terminate and report failure.
        let lib = sc89();
        let mut d = Design::new("hopeless");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let ck = d.add_net(m, "ck").unwrap();
        let input = d.add_net(m, "in").unwrap();
        let w = d.add_net(m, "w").unwrap();
        let q = d.add_net(m, "q").unwrap();
        d.add_port(m, "ck", hb_netlist::PinDir::Input, ck).unwrap();
        d.add_port(m, "in", hb_netlist::PinDir::Input, input)
            .unwrap();
        d.add_port(m, "q", hb_netlist::PinDir::Output, q).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let dff = d.leaf_by_name("DFF").unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", input).unwrap();
        d.connect(m, u, "Y", w).unwrap();
        let ff = d.add_leaf_instance(m, "ff", dff).unwrap();
        d.connect(m, ff, "D", w).unwrap();
        d.connect(m, ff, "CK", ck).unwrap();
        d.connect(m, ff, "Q", q).unwrap();
        d.set_top(m).unwrap();
        let mut clocks = ClockSet::new();
        clocks
            .add_clock("ck", Time::from_ps(100), Time::ZERO, Time::from_ps(50))
            .unwrap();
        let spec = Spec::new().clock_port("ck", "ck").input_arrival(
            "in",
            EdgeSpec::new("ck", Transition::Rise),
            Time::ZERO,
        );

        let outcome = optimize(&mut d, m, &lib, &clocks, &spec, ResynthOptions::default()).unwrap();
        assert!(!outcome.met);
        assert!(outcome.iterations <= ResynthOptions::default().max_iterations);
        d.validate().unwrap();
    }
}
