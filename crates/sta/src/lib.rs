//! Block-oriented static timing analysis over combinational clusters.
//!
//! This crate implements the *combinational* half of the paper's
//! analysis: Hitchcock's block method (DAC'82), which the paper adopts
//! for slack computation because "speed is an important issue for a
//! system timing analyser to be used in an analysis-redesign loop":
//!
//! * [`TimingGraph`] — a net-level timing graph built from an
//!   `hb-netlist` module, an `hb-cells` binding and a library: one node
//!   per net, one weighted arc per cell timing arc (evaluated at the
//!   estimated net load). Synchronising elements contribute no
//!   combinational arcs; their pins are collected into [`SyncInst`]
//!   records for the system-level analyzer (`hummingbird`) to consume.
//!   Hierarchical (module) instances are abstracted into pin-to-pin
//!   arcs by recursive block analysis — the paper's "hierarchical"
//!   analysis mode (SM1H);
//! * [`analysis`] — forward ready-time propagation (paper equation 1),
//!   backward required-time propagation, slack formation (equation 2),
//!   and the forward minimum-delay sweep of the supplementary path
//!   constraints;
//! * [`clusters`](TimingGraph::clusters) — the paper's *clusters*:
//!   maximal connected networks of combinational logic, the unit at
//!   which analysis passes are planned;
//! * [`shard`] — per-cluster CSR subgraphs whose sweeps are written
//!   once over the value [`algebra`] (numeric or symbolic), and which
//!   trace critical paths on their own;
//! * [`paths`] — critical-path extraction and the exhaustive
//!   path-enumeration baseline that the paper rejects on cost grounds
//!   (reproduced here for the ablation benchmark).
//!
//! # Examples
//!
//! ```
//! use hb_cells::{sc89, Binding};
//! use hb_netlist::Design;
//! use hb_sta::TimingGraph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = sc89();
//! let mut d = Design::new("demo");
//! lib.declare_into(&mut d)?;
//! let m = d.add_module("top")?;
//! let a = d.add_net(m, "a")?;
//! let y = d.add_net(m, "y")?;
//! d.add_port(m, "a", hb_netlist::PinDir::Input, a)?;
//! d.add_port(m, "y", hb_netlist::PinDir::Output, y)?;
//! let inv = d.leaf_by_name("INV_X1").expect("library cell");
//! let u = d.add_leaf_instance(m, "u", inv)?;
//! d.connect(m, u, "A", a)?;
//! d.connect(m, u, "Y", y)?;
//!
//! let binding = Binding::new(&d, &lib);
//! let graph = TimingGraph::build(&d, m, &binding, &lib)?;
//! assert_eq!(graph.arc_count(), 1);
//! # Ok(())
//! # }
//! ```

pub mod algebra;
pub mod analysis;
mod error;
mod graph;
pub mod paths;
pub mod shard;

pub use algebra::{Algebra, Numeric};
pub use error::StaError;
pub use graph::{Cluster, ClusterId, GraphArc, SyncInst, TimingGraph};
pub use shard::{ClusterShard, LocalArc, ShardedGraph};
