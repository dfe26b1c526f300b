//! In-memory hierarchical design database — the workspace's substitute for
//! the Berkeley OCT database that the original Hummingbird program used.
//!
//! The database stores a [`Design`]: a set of named leaf-cell interface
//! declarations ([`LeafDef`]) plus a set of [`Module`]s. A module contains
//! [`Instance`]s (of leaf cells or of other modules), [`Net`]s, and boundary
//! [`Port`]s. Connectivity is normalized: every net knows its endpoints, and
//! every instance knows the net bound to each of its pin slots.
//!
//! Design rules enforced by [`Design::validate`]:
//!
//! * every net has exactly one driver (an instance output pin or a module
//!   input port);
//! * every instance input pin slot is connected (dangling outputs are
//!   allowed);
//! * names are unique within their namespace.
//!
//! The timing analyzer never mutates a design; the re-synthesis loop
//! (Algorithm 3 of the paper) does, through [`Design::replace_instance_ref`]
//! and the net editing methods — this mirrors how the original program
//! round-tripped edits through OCT.
//!
//! # Examples
//!
//! Build an inverter chain and query connectivity:
//!
//! ```
//! use hb_netlist::{Design, LeafDef, PinDir};
//!
//! # fn main() -> Result<(), hb_netlist::NetlistError> {
//! let mut design = Design::new("demo");
//! let inv = design.declare_leaf(LeafDef::new("INV")
//!     .pin("A", PinDir::Input)
//!     .pin("Y", PinDir::Output))?;
//!
//! let m = design.add_module("top")?;
//! let a = design.add_net(m, "a")?;
//! let b = design.add_net(m, "b")?;
//! let y = design.add_net(m, "y")?;
//! design.add_port(m, "a", PinDir::Input, a)?;
//! design.add_port(m, "y", PinDir::Output, y)?;
//!
//! let u1 = design.add_leaf_instance(m, "u1", inv)?;
//! let u2 = design.add_leaf_instance(m, "u2", inv)?;
//! design.connect(m, u1, "A", a)?;
//! design.connect(m, u1, "Y", b)?;
//! design.connect(m, u2, "A", b)?;
//! design.connect(m, u2, "Y", y)?;
//!
//! design.set_top(m)?;
//! design.validate()?;
//! assert_eq!(design.module(m).instances().count(), 2);
//! # Ok(())
//! # }
//! ```

mod design;
mod error;
mod flatten;
mod ids;
mod leaf;
mod module;
mod names;
mod validate;

pub use design::{Design, DesignStats};
pub use error::NetlistError;
pub use ids::{InstId, LeafId, ModuleId, NetId, PinSlot, PortId};
pub use leaf::{LeafDef, PinDef, PinDir};
pub use module::{Endpoint, InstRef, Instance, Module, Net, Port};
