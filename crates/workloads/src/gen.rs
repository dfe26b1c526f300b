//! The at-scale design generator: parameterized, hb-rng-seeded
//! netlists from 10k to 1M cells across 2–8 harmonically related
//! clocks.
//!
//! Three structural families cover the shapes that stress different
//! parts of the analyzer:
//!
//! * [`GenKind::Pipeline`] — a deep multi-phase transparent-latch
//!   pipeline: hundreds of latch banks on rotating clock phases with
//!   random logic between them. Exercises time borrowing and the
//!   multi-pass engine across many small clusters in series.
//! * [`GenKind::Sbox`] — a DES-like S-box mesh: rounds of eight
//!   8-lane random-logic boxes whose outputs are permuted before the
//!   next round's register bank. Exercises wide, interleaved clusters
//!   with heavy cross-lane fanout.
//! * [`GenKind::Sram`] — SRAM-style macro banks: address registers,
//!   an AND-chain row decoder, a wordline × data AND array, and
//!   per-column OR reduction trees into output registers. Exercises
//!   many independent mid-size clusters — the sharded engine's best
//!   case — mirroring the programmatic macro generation of `sramgen`.
//!
//! Every emitted design is well-formed by construction: no floating
//! inputs, no combinational cycles, every sync element's control pin
//! reachable from exactly one clock port through a tree-shaped buffer
//! network, and every sync element's data cone reachable from a
//! primary input. The same [`GenParams`] always produce a
//! byte-identical [`Workload::to_hum`] dump.

use hb_cells::Library;
use hb_clock::ClockSet;
use hb_io::{write_hum_with_timing, TimingDirective};
use hb_netlist::{NetId, PinDir};
use hb_rng::SmallRng;
use hb_units::{Time, Transition};
use hummingbird::{EdgeSpec, Spec};

use crate::build::NetlistBuilder;
use crate::designs::Workload;

/// The generator family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenKind {
    /// Deep multi-phase transparent-latch pipeline.
    Pipeline,
    /// DES-like S-box mesh with inter-round permutations.
    Sbox,
    /// SRAM-style address/decode/array/mux banks.
    Sram,
}

impl GenKind {
    /// Parses a CLI-style kind name.
    pub fn parse(s: &str) -> Option<GenKind> {
        match s {
            "pipeline" => Some(GenKind::Pipeline),
            "sbox" => Some(GenKind::Sbox),
            "sram" => Some(GenKind::Sram),
            _ => None,
        }
    }

    /// The CLI-style kind name.
    pub fn name(&self) -> &'static str {
        match self {
            GenKind::Pipeline => "pipeline",
            GenKind::Sbox => "sbox",
            GenKind::Sram => "sram",
        }
    }
}

/// Parameters for [`generate`]. The tuple (`kind`, `cells`, `seed`,
/// `clocks`) fully determines the output, byte for byte.
#[derive(Clone, Copy, Debug)]
pub struct GenParams {
    /// The structural family.
    pub kind: GenKind,
    /// The exact standard-cell count of the emitted design.
    pub cells: usize,
    /// The hb-rng seed; part of the design's identity.
    pub seed: u64,
    /// How many harmonically related clocks to spread sync elements
    /// across (clamped to 2–8).
    pub clocks: usize,
}

impl GenParams {
    /// Parameters with the default clock count (4).
    pub fn new(kind: GenKind, cells: usize, seed: u64) -> GenParams {
        GenParams {
            kind,
            cells,
            seed,
            clocks: 4,
        }
    }
}

/// The smallest cell budget every family can hit exactly.
pub const MIN_GEN_CELLS: usize = 1000;

/// Max sync control pins per clock-tree leaf buffer.
const LEAF_FANOUT: usize = 48;
/// Internal clock-tree buffer fanout.
const TREE_FANOUT: usize = 8;

/// Round-robin taps over each clock's leaf buffer nets, so no leaf
/// drives more than `LEAF_FANOUT` control pins.
struct ClockTaps {
    leaves: Vec<Vec<NetId>>,
    cursor: Vec<usize>,
}

impl ClockTaps {
    fn tap(&mut self, clock: usize) -> NetId {
        let leaves = &self.leaves[clock];
        let c = self.cursor[clock];
        self.cursor[clock] = (c + 1) % leaves.len();
        leaves[c]
    }
}

/// Builds a tree of `CLKBUF_X4` from `root` with `leaves` leaf nets:
/// every buffer has exactly one driver (tree-shaped, so clock reach
/// stays monotonic) and at most `TREE_FANOUT` buffer loads.
fn fanout_tree(b: &mut NetlistBuilder, root: NetId, leaves: usize) -> Vec<NetId> {
    let mut sizes = vec![leaves.max(1)];
    while *sizes.last().unwrap() > 1 {
        let up = sizes.last().unwrap().div_ceil(TREE_FANOUT);
        sizes.push(up);
    }
    sizes.reverse();
    let mut current = vec![root];
    for &size in &sizes {
        let mut next = Vec::with_capacity(size);
        for i in 0..size {
            let parent = current[i * current.len() / size];
            let y = b.fresh_net("ck");
            b.inst("CLKBUF_X4", &[("A", parent), ("Y", y)]);
            next.push(y);
        }
        current = next;
    }
    current
}

/// Declares `count` clocks `gck0..` with harmonically related periods
/// (40ns and 80ns against an 80ns overall period) and staggered
/// pulses, one input port and one buffer tree each, sized for
/// `sinks_per_clock[j]` control pins.
fn build_clocks(
    b: &mut NetlistBuilder,
    mut spec: Spec,
    count: usize,
    sinks_per_clock: &[usize],
) -> (ClockSet, Spec, ClockTaps) {
    assert_eq!(sinks_per_clock.len(), count);
    let base = Time::from_ns(40);
    let mut clocks = ClockSet::new();
    let mut leaves = Vec::with_capacity(count);
    for (j, &sinks) in sinks_per_clock.iter().enumerate() {
        let name = format!("gck{j}");
        // Even clocks run at the overall period, odd ones at half of
        // it, so every period divides the 80ns overall period.
        let period = if j % 2 == 0 { base * 2 } else { base };
        let rise = period * (j % 4) as i64 / 8;
        let fall = rise + period * 3 / 8;
        clocks
            .add_clock(&name, period, rise, fall)
            .expect("staggered 3/8-duty waveforms are valid");
        let root = b.input(&name);
        spec = spec.clock_port(&name, &name);
        leaves.push(fanout_tree(b, root, sinks.div_ceil(LEAF_FANOUT)));
    }
    let cursor = vec![0; count];
    (clocks, spec, ClockTaps { leaves, cursor })
}

/// A bank of `DFF`s whose clock pins round-robin over the clock's
/// leaf buffers.
fn dff_bank(
    b: &mut NetlistBuilder,
    taps: &mut ClockTaps,
    clock: usize,
    data: &[NetId],
    hint: &str,
) -> Vec<NetId> {
    data.iter()
        .map(|&d| {
            let ck = taps.tap(clock);
            let q = b.fresh_net(hint);
            b.inst("DFF", &[("D", d), ("CK", ck), ("Q", q)]);
            q
        })
        .collect()
}

/// A bank of transparent `DLATCH`es, gates round-robined likewise.
fn latch_bank(
    b: &mut NetlistBuilder,
    taps: &mut ClockTaps,
    clock: usize,
    data: &[NetId],
    hint: &str,
) -> Vec<NetId> {
    data.iter()
        .map(|&d| {
            let g = taps.tap(clock);
            let q = b.fresh_net(hint);
            b.inst("DLATCH", &[("D", d), ("G", g), ("Q", q)]);
            q
        })
        .collect()
}

/// Splits `budget` into `parts` near-equal shares (remainder spread
/// over the leading shares), preserving the exact total.
fn share(budget: usize, parts: usize, index: usize) -> usize {
    budget / parts + usize::from(index < budget % parts)
}

/// Generates a well-formed design of exactly `params.cells` standard
/// cells. Panics if `params.cells < MIN_GEN_CELLS` — generators are
/// deterministic, so a bad budget is a programming error upstream
/// (the CLI validates user input first).
pub fn generate(lib: &Library, params: &GenParams) -> Workload {
    assert!(
        params.cells >= MIN_GEN_CELLS,
        "generator needs at least {MIN_GEN_CELLS} cells, got {}",
        params.cells
    );
    let clocks = params.clocks.clamp(2, 8);
    let mut w = match params.kind {
        GenKind::Pipeline => gen_pipeline(lib, params.cells, params.seed, clocks),
        GenKind::Sbox => gen_sbox(lib, params.cells, params.seed, clocks),
        GenKind::Sram => gen_sram(lib, params.cells, params.seed, clocks),
    };
    debug_assert_eq!(w.design.module(w.module).instance_count(), params.cells);
    w.design.shrink_to_fit();
    w
}

/// Deep multi-phase latch pipeline: `stages` transparent-latch banks
/// on rotating phases with random logic between them, capped by a
/// DFF output bank.
fn gen_pipeline(lib: &Library, cells: usize, seed: u64, clocks: usize) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new_compact("gen_pipeline", lib);
    b.design.reserve(b.module, cells, cells + 128);

    let width = (cells / 64).clamp(8, 256);
    // ~12% of the budget goes to sync elements.
    let stages = ((cells * 12 / 100) / width).max(clocks);
    let mut sinks = vec![0usize; clocks];
    for s in 0..stages {
        sinks[s % clocks] += width;
    }
    sinks[clocks - 1] += width; // the output DFF bank
    let (clockset, mut spec, mut taps) = build_clocks(&mut b, Spec::new(), clocks, &sinks);

    let pis: Vec<NetId> = (0..width).map(|i| b.input(&format!("pi{i}"))).collect();
    for i in 0..width {
        // Valid slightly before the launch edge, as a registered
        // external interface would provide them.
        spec = spec.input_arrival(
            format!("pi{i}"),
            EdgeSpec::new("gck0", Transition::Rise),
            Time::from_ps(-500),
        );
    }

    let syncs = stages * width + width;
    let fixed = b.design.module(b.module).instance_count();
    let logic_budget = cells
        .checked_sub(fixed + syncs)
        .expect("cell budget covers clock trees and sync banks");
    assert!(
        logic_budget / stages >= width,
        "every stage needs at least `width` gates"
    );

    let mut bus = pis;
    for s in 0..stages {
        let gates = share(logic_budget, stages, s);
        bus = b.random_logic(&mut rng, &bus, gates, width);
        bus = latch_bank(&mut b, &mut taps, s % clocks, &bus, "l");
    }
    let outs = dff_bank(&mut b, &mut taps, clocks - 1, &bus, "q");
    let final_clock = format!("gck{}", clocks - 1);
    for (i, q) in outs.iter().enumerate() {
        b.output(&format!("po{i}"), *q);
        spec = spec.output_required(
            format!("po{i}"),
            EdgeSpec::new(final_clock.as_str(), Transition::Rise),
            Time::ZERO,
        );
    }

    Workload {
        name: format!("GEN-PIPE{cells}"),
        design: b.design,
        module: b.module,
        clocks: clockset,
        spec,
    }
}

/// DES-like S-box mesh: rounds of eight 8-lane boxes, outputs
/// permuted between rounds, register bank per round.
fn gen_sbox(lib: &Library, cells: usize, seed: u64, clocks: usize) -> Workload {
    const LANES: usize = 64;
    const BOXES: usize = 8;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new_compact("gen_sbox", lib);
    b.design.reserve(b.module, cells, cells + 128);

    let rounds = (cells / 1500).clamp(2, 1024);
    let mut sinks = vec![0usize; clocks];
    for r in 0..rounds {
        sinks[r % clocks] += LANES;
    }
    sinks[clocks - 1] += LANES; // the output bank
    let (clockset, mut spec, mut taps) = build_clocks(&mut b, Spec::new(), clocks, &sinks);

    let pis: Vec<NetId> = (0..LANES).map(|i| b.input(&format!("pi{i}"))).collect();
    for i in 0..LANES {
        spec = spec.input_arrival(
            format!("pi{i}"),
            EdgeSpec::new("gck0", Transition::Rise),
            Time::ZERO,
        );
    }

    let syncs = (rounds + 1) * LANES;
    let fixed = b.design.module(b.module).instance_count();
    let logic_budget = cells
        .checked_sub(fixed + syncs)
        .expect("cell budget covers clock trees and round registers");

    let mut bus = pis;
    for r in 0..rounds {
        bus = dff_bank(&mut b, &mut taps, r % clocks, &bus, "r");
        let round_gates = share(logic_budget, rounds, r);
        let mut next = Vec::with_capacity(LANES);
        for sbox in 0..BOXES {
            let gates = share(round_gates, BOXES, sbox);
            let lanes = LANES / BOXES;
            let ins = &bus[sbox * lanes..(sbox + 1) * lanes];
            assert!(gates >= lanes, "every S-box needs at least its lane count");
            next.extend(b.random_logic(&mut rng, ins, gates, lanes));
        }
        // Inter-round permutation (Fisher–Yates), the mesh's cross-box
        // diffusion.
        for i in (1..next.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            next.swap(i, j);
        }
        bus = next;
    }
    let outs = dff_bank(&mut b, &mut taps, clocks - 1, &bus, "q");
    let final_clock = format!("gck{}", clocks - 1);
    for (i, q) in outs.iter().enumerate() {
        b.output(&format!("po{i}"), *q);
        spec = spec.output_required(
            format!("po{i}"),
            EdgeSpec::new(final_clock.as_str(), Transition::Rise),
            Time::ZERO,
        );
    }

    Workload {
        name: format!("GEN-SBOX{cells}"),
        design: b.design,
        module: b.module,
        clocks: clockset,
        spec,
    }
}

/// SRAM-style macro banks: address registers, AND-chain row decode,
/// wordline × data AND array, per-column OR reduction trees, output
/// registers. Bank geometry scales with the budget; the remainder is
/// padded with observable-free random logic off the address inputs so
/// the stated cell count is exact.
fn gen_sram(lib: &Library, cells: usize, seed: u64, clocks: usize) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new_compact("gen_sram", lib);
    b.design.reserve(b.module, cells, cells + 128);

    // Geometry: (address bits, columns). Rows = 1 << abits. Small
    // budgets get a small bank so at least one whole bank always fits.
    let (abits, cols) = if cells >= 4800 { (6, 16) } else { (4, 8) };
    let rows = 1usize << abits;
    let bank_cost = 2 * abits + rows * (abits - 1) + rows * cols + cols * (rows - 1) + 2 * cols;
    let bank_syncs = abits + 2 * cols;
    let banks = ((cells * 95 / 100) / bank_cost).max(1);

    let mut sinks = vec![0usize; clocks];
    for bank in 0..banks {
        sinks[bank % clocks] += bank_syncs;
    }
    let (clockset, mut spec, mut taps) = build_clocks(&mut b, Spec::new(), clocks, &sinks);

    let addr: Vec<NetId> = (0..abits).map(|i| b.input(&format!("ad{i}"))).collect();
    let din: Vec<NetId> = (0..cols).map(|i| b.input(&format!("di{i}"))).collect();
    for name in (0..abits)
        .map(|i| format!("ad{i}"))
        .chain((0..cols).map(|i| format!("di{i}")))
    {
        spec = spec.input_arrival(name, EdgeSpec::new("gck0", Transition::Rise), Time::ZERO);
    }

    for bank in 0..banks {
        let clock = bank % clocks;
        let aq = dff_bank(&mut b, &mut taps, clock, &addr, "aq");
        let an: Vec<NetId> = aq
            .iter()
            .map(|&q| {
                let n = b.fresh_net("an");
                b.inst("INV_X1", &[("A", q), ("Y", n)]);
                n
            })
            .collect();
        // Row decode: AND chain over one literal per address bit.
        let wordlines: Vec<NetId> = (0..rows)
            .map(|row| {
                let lit = |k: usize| if row >> k & 1 == 1 { aq[k] } else { an[k] };
                let mut term = lit(0);
                for k in 1..abits {
                    let y = b.fresh_net("wl");
                    b.inst("AND2_X1", &[("A", term), ("B", lit(k)), ("Y", y)]);
                    term = y;
                }
                term
            })
            .collect();
        let dq = dff_bank(&mut b, &mut taps, clock, &din, "dq");
        // Array + column OR reduction into the output registers.
        let douts: Vec<NetId> = (0..cols)
            .map(|col| {
                let mut bits: Vec<NetId> = wordlines
                    .iter()
                    .map(|&wl| {
                        let y = b.fresh_net("b");
                        b.inst("AND2_X1", &[("A", wl), ("B", dq[col]), ("Y", y)]);
                        y
                    })
                    .collect();
                while bits.len() > 1 {
                    let mut up = Vec::with_capacity(bits.len().div_ceil(2));
                    for pair in bits.chunks(2) {
                        if let [a, b2] = *pair {
                            let y = b.fresh_net("o");
                            b.inst("OR2_X1", &[("A", a), ("B", b2), ("Y", y)]);
                            up.push(y);
                        } else {
                            up.push(pair[0]);
                        }
                    }
                    bits = up;
                }
                bits[0]
            })
            .collect();
        let oq = dff_bank(&mut b, &mut taps, clock, &douts, "oq");
        if bank == 0 {
            for (i, q) in oq.iter().enumerate() {
                b.output(&format!("do{i}"), *q);
                spec = spec.output_required(
                    format!("do{i}"),
                    EdgeSpec::new("gck0", Transition::Rise),
                    Time::ZERO,
                );
            }
        }
    }

    // Pad to the exact budget with random logic off the inputs; its
    // outputs are deliberately unobserved.
    let built = b.design.module(b.module).instance_count();
    let pad = cells
        .checked_sub(built)
        .expect("bank sizing stays under the cell budget");
    if pad > 0 {
        let mut ins = addr.clone();
        ins.extend(&din);
        b.random_logic(&mut rng, &ins, pad, 0);
    }

    Workload {
        name: format!("GEN-SRAM{cells}"),
        design: b.design,
        module: b.module,
        clocks: clockset,
        spec,
    }
}

impl Workload {
    /// Serializes the workload — design, clocks, and boundary spec —
    /// as a self-contained `.hum` file.
    ///
    /// Directives are emitted in module-port creation order (the
    /// [`Spec`] itself hashes its maps), so the text is deterministic:
    /// the same `GenParams` always produce byte-identical output.
    pub fn to_hum(&self) -> String {
        let m = self.design.module(self.module);
        let edge_ref = |e: &EdgeSpec| (e.clock.clone(), e.transition, e.occurrence);
        let mut timing = Vec::new();
        for (_, port) in m.ports() {
            let name = port.name();
            match port.dir() {
                PinDir::Input => {
                    if let Some(clock) = self.spec.clock_for_port(name) {
                        timing.push(TimingDirective::ClockPort {
                            port: name.to_owned(),
                            clock: clock.to_owned(),
                        });
                    } else if let Some((edge, offset)) = self.spec.arrival_for_port(name) {
                        timing.push(TimingDirective::Arrive {
                            port: name.to_owned(),
                            edge: edge_ref(edge),
                            offset,
                        });
                    }
                }
                PinDir::Output => {
                    if let Some((edge, offset)) = self.spec.required_for_port(name) {
                        timing.push(TimingDirective::Require {
                            port: name.to_owned(),
                            edge: edge_ref(edge),
                            offset,
                        });
                    }
                }
            }
        }
        write_hum_with_timing(&self.design, &self.clocks, &timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;
    use hummingbird::Analyzer;

    #[test]
    fn every_family_hits_the_exact_cell_count_and_analyzes() {
        let lib = sc89();
        for kind in [GenKind::Pipeline, GenKind::Sbox, GenKind::Sram] {
            let params = GenParams::new(kind, 3000, 42);
            let w = generate(&lib, &params);
            w.design
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(w.stats().cells, 3000, "{}", w.name);
            let analyzer = Analyzer::new(&w.design, w.module, &lib, &w.clocks, w.spec.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let report = analyzer.analyze();
            assert!(report.worst_slack().is_finite(), "{}", w.name);
        }
    }

    #[test]
    fn clock_periods_divide_the_overall_period() {
        let lib = sc89();
        let w = generate(&lib, &GenParams::new(GenKind::Sram, 2000, 7));
        let overall = w.clocks.overall_period();
        for (_, clock) in w.clocks.clocks() {
            assert_eq!(
                overall.rem_euclid(clock.period()),
                Time::ZERO,
                "clock {} not harmonic",
                clock.name()
            );
        }
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let lib = sc89();
        let p = GenParams::new(GenKind::Sbox, 2500, 9);
        let a = generate(&lib, &p).to_hum();
        let b = generate(&lib, &p).to_hum();
        assert_eq!(a, b, "same params must be byte-identical");
        let c = generate(&lib, &GenParams { seed: 10, ..p }).to_hum();
        assert_ne!(a, c, "different seeds must diverge");
    }
}
