//! `hummingbird` — system-level timing analysis for latch-based,
//! multi-phase, multi-frequency synchronous designs.
//!
//! A from-scratch reproduction of
//! *N. Weiner and A. Sangiovanni-Vincentelli, "Timing Analysis in a Logic
//! Synthesis Environment", 26th Design Automation Conference (DAC), 1989*
//! — the Hummingbird timing analyzer of the Berkeley Synthesis System.
//!
//! # What it does
//!
//! Given a gate-level (or hierarchical) design, a standard-cell library
//! and a set of harmonically related clock waveforms, the analyzer:
//!
//! 1. models every synchronising element — edge-triggered and
//!    level-sensitive ("transparent") latches, clocked tristate drivers —
//!    with the paper's terminal-offset model (Section 5), replicating
//!    elements clocked faster than the overall period once per control
//!    pulse;
//! 2. pre-processes each combinational *cluster*: plans the **minimum
//!    number of analysis passes** ("broken open" clock periods) so that
//!    every input→output combination sees its assertion before its
//!    closure (Section 7), which also minimises the number of settling
//!    times evaluated per node;
//! 3. runs **Algorithm 1** — iterated complete/partial *slack transfer*
//!    across transparent latches — to find *all paths that are too slow*;
//! 4. optionally runs **Algorithm 2** — *time snatching* — to generate
//!    ready/required-time constraints that guide combinational
//!    re-synthesis (the `hb-resynth` crate consumes these);
//! 5. optionally checks the supplementary (minimum-delay) path
//!    constraints, an extension the paper defines but does not implement.
//!
//! # Quick start
//!
//! ```
//! use hb_cells::sc89;
//! use hb_clock::ClockSet;
//! use hb_netlist::{Design, PinDir};
//! use hb_units::Time;
//! use hummingbird::{Analyzer, Spec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A one-flop design: in -> INV -> DFF(ck) -> out
//! let lib = sc89();
//! let mut d = Design::new("demo");
//! lib.declare_into(&mut d)?;
//! let m = d.add_module("top")?;
//! let input = d.add_net(m, "in")?;
//! let mid = d.add_net(m, "mid")?;
//! let ck = d.add_net(m, "ck")?;
//! let q = d.add_net(m, "q")?;
//! d.add_port(m, "in", PinDir::Input, input)?;
//! d.add_port(m, "ck", PinDir::Input, ck)?;
//! d.add_port(m, "q", PinDir::Output, q)?;
//! let inv = d.leaf_by_name("INV_X1").expect("library cell");
//! let dff = d.leaf_by_name("DFF").expect("library cell");
//! let u = d.add_leaf_instance(m, "u", inv)?;
//! let ff = d.add_leaf_instance(m, "ff", dff)?;
//! d.connect(m, u, "A", input)?;
//! d.connect(m, u, "Y", mid)?;
//! d.connect(m, ff, "D", mid)?;
//! d.connect(m, ff, "CK", ck)?;
//! d.connect(m, ff, "Q", q)?;
//! d.set_top(m)?;
//!
//! let mut clocks = ClockSet::new();
//! clocks.add_clock("ck", Time::from_ns(20), Time::ZERO, Time::from_ns(10))?;
//!
//! let spec = Spec::new().clock_port("ck", "ck");
//! let analyzer = Analyzer::new(&d, m, &lib, &clocks, spec)?;
//! let report = analyzer.analyze();
//! assert!(report.ok(), "20 ns period is plenty for one inverter");
//! # Ok(())
//! # }
//! ```

mod algorithms;
mod analysis;
mod analyzer;
mod engine;
mod error;
mod mindelay;
mod patch;
mod report;
mod spec;
mod symbolic;
mod sync;

pub use algorithms::{Algorithm1Stats, Algorithm2Stats};
pub use analysis::{PrepStats, Prepared};
pub use analyzer::Analyzer;
pub use engine::{EngineStats, SlackCache};
pub use error::AnalyzeError;
pub use mindelay::MinDelayViolation;
pub use patch::Edit;
pub use report::{
    SlowPath, SlowStep, TerminalKind, TerminalSlack, TimingConstraints, TimingReport,
};
pub use spec::{AnalysisOptions, EdgeSpec, EngineKind, LatchModel, Spec};
pub use symbolic::{ParametricSlack, ParametricTerminal, PeriodError};
pub use sync::{Replica, ReplicaTiming};
