//! Named engineering-change operators.
//!
//! The redesign loop in [`crate::optimize`] picks its own edits; an
//! interactive flow (the `hummingbird serve` daemon, scripted ECO
//! replay) instead needs *addressable* edits: "retarget this instance",
//! "rescale that net". This module exposes the same structural
//! operators as first-class, deterministic operations so that an edit
//! applied through a resident session can be replayed verbatim on a
//! fresh copy of the design — the property the server's parity tests
//! rely on.
//!
//! Both operators are structure-preserving: they never add or remove
//! nets or instances, so net identities, cluster membership and pass
//! plans are unchanged and a content-addressed
//! [`SlackCache`](hummingbird::SlackCache) stays valid for every
//! cluster the edit does not touch. Each reports the id it touched as
//! an [`Edit`], which is all a resident
//! [`Prepared`](hummingbird::Prepared) state needs to patch itself.

use std::fmt;

use hb_cells::{Binding, Library, LOAD_SCALE_ATTR};
use hb_netlist::{Design, InstRef, ModuleId};
use hummingbird::Edit;

/// One addressable engineering-change operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EcoOp {
    /// Retarget `inst` to another drive variant of its cell family:
    /// `steps` moves up (positive) or down (negative) the family's
    /// drive-ordered variant list.
    RetargetDrive {
        /// Instance name within the module.
        inst: String,
        /// Signed displacement along the family's variant list.
        steps: i32,
    },
    /// Rescale the modelled capacitive load of `net` to `percent`% of
    /// its structural estimate (100 restores the unscaled model). The
    /// arcs driving the net see their delays re-evaluated at the scaled
    /// load.
    ScaleNetLoad {
        /// Net name within the module.
        net: String,
        /// New load percentage; must be in `1..=10_000`.
        percent: u32,
    },
}

/// Why an ECO could not be applied. The design is unchanged on error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EcoError {
    /// No instance of that name exists in the module.
    UnknownInstance(String),
    /// No net of that name exists in the module.
    UnknownNet(String),
    /// The instance is a hierarchical reference or an unbound leaf, so
    /// it has no cell family to move within.
    NotACell(String),
    /// The requested drive step leaves the family's variant list.
    DriveLimit {
        /// The instance whose family ran out of variants.
        inst: String,
        /// The cell it is currently bound to.
        cell: String,
    },
    /// The load percentage is outside `1..=10_000`.
    BadPercent(u32),
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::UnknownInstance(name) => write!(f, "no instance named `{name}`"),
            EcoError::UnknownNet(name) => write!(f, "no net named `{name}`"),
            EcoError::NotACell(name) => {
                write!(f, "instance `{name}` is not bound to a library cell")
            }
            EcoError::DriveLimit { inst, cell } => {
                write!(f, "no drive variant {cell} steps away for `{inst}`")
            }
            EcoError::BadPercent(p) => {
                write!(f, "load percentage {p} outside 1..=10000")
            }
        }
    }
}

impl std::error::Error for EcoError {}

/// What an applied ECO did, for reporting.
#[derive(Clone, Debug)]
pub struct EcoOutcome {
    /// Human-readable summary, e.g. `drv0:INV_X1->INV_X4`.
    pub description: String,
    /// The instance or net the edit touched.
    pub edit: Edit,
}

/// Applies one [`EcoOp`] to `module`. Deterministic: the same op on
/// the same design always produces the same edited design.
///
/// # Errors
///
/// Returns an [`EcoError`] (and leaves the design untouched) when the
/// named object does not exist or the edit is out of range.
pub fn apply_eco(
    design: &mut Design,
    module: ModuleId,
    library: &Library,
    op: &EcoOp,
) -> Result<EcoOutcome, EcoError> {
    match op {
        EcoOp::RetargetDrive { inst, steps } => {
            retarget_drive(design, module, library, inst, *steps)
        }
        EcoOp::ScaleNetLoad { net, percent } => scale_net_load(design, module, net, *percent),
    }
}

fn retarget_drive(
    design: &mut Design,
    module: ModuleId,
    library: &Library,
    inst_name: &str,
    steps: i32,
) -> Result<EcoOutcome, EcoError> {
    let inst = design
        .module(module)
        .instance_by_name(inst_name)
        .ok_or_else(|| EcoError::UnknownInstance(inst_name.to_owned()))?;
    let leaf = match design.module(module).instance(inst).target() {
        InstRef::Leaf(l) => l,
        InstRef::Module(_) => return Err(EcoError::NotACell(inst_name.to_owned())),
    };
    let binding = Binding::new(design, library);
    let cell_id = binding
        .cell_for_leaf(leaf)
        .ok_or_else(|| EcoError::NotACell(inst_name.to_owned()))?;
    let cell = library.cell(cell_id);
    let from_name = cell.name().to_owned();
    let variants = library.family_variants(cell.family());
    let position = variants
        .iter()
        .position(|&v| v == cell_id)
        .expect("cell is a member of its own family");
    let target = position as i64 + steps as i64;
    let out_of_range = || EcoError::DriveLimit {
        inst: inst_name.to_owned(),
        cell: from_name.clone(),
    };
    if target < 0 || target as usize >= variants.len() {
        return Err(out_of_range());
    }
    let to_cell = variants[target as usize];
    let to_name = library.cell(to_cell).name().to_owned();
    let new_leaf = design.leaf_by_name(&to_name).ok_or_else(out_of_range)?;
    design
        .replace_instance_ref(module, inst, new_leaf)
        .map_err(|_| out_of_range())?;
    Ok(EcoOutcome {
        description: format!("{inst_name}:{from_name}->{to_name}"),
        edit: Edit::Resized(inst),
    })
}

fn scale_net_load(
    design: &mut Design,
    module: ModuleId,
    net_name: &str,
    percent: u32,
) -> Result<EcoOutcome, EcoError> {
    if !(1..=10_000).contains(&percent) {
        return Err(EcoError::BadPercent(percent));
    }
    let net = design
        .module(module)
        .net_by_name(net_name)
        .ok_or_else(|| EcoError::UnknownNet(net_name.to_owned()))?;
    design
        .module_mut(module)
        .set_net_attr(net, LOAD_SCALE_ATTR, percent.to_string());
    Ok(EcoOutcome {
        description: format!("{net_name}:{LOAD_SCALE_ATTR}={percent}"),
        edit: Edit::Rescaled(net),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;
    use hb_netlist::PinDir;

    fn inv_stage() -> (Design, ModuleId) {
        let lib = sc89();
        let mut d = Design::new("eco");
        lib.declare_into(&mut d).unwrap();
        let m = d.add_module("top").unwrap();
        let a = d.add_net(m, "a").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        d.add_port(m, "y", PinDir::Output, y).unwrap();
        let inv = d.leaf_by_name("INV_X1").unwrap();
        let u = d.add_leaf_instance(m, "u0", inv).unwrap();
        d.connect(m, u, "A", a).unwrap();
        d.connect(m, u, "Y", y).unwrap();
        d.set_top(m).unwrap();
        (d, m)
    }

    #[test]
    fn retarget_moves_both_ways_and_clamps() {
        let lib = sc89();
        let (mut d, m) = inv_stage();
        let up = apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::RetargetDrive {
                inst: "u0".into(),
                steps: 1,
            },
        )
        .unwrap();
        assert_eq!(up.description, "u0:INV_X1->INV_X2");
        let down = apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::RetargetDrive {
                inst: "u0".into(),
                steps: -1,
            },
        )
        .unwrap();
        assert_eq!(down.description, "u0:INV_X2->INV_X1");
        let err = apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::RetargetDrive {
                inst: "u0".into(),
                steps: -1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, EcoError::DriveLimit { .. }));
        let err = apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::RetargetDrive {
                inst: "nosuch".into(),
                steps: 1,
            },
        )
        .unwrap_err();
        assert_eq!(err, EcoError::UnknownInstance("nosuch".into()));
    }

    #[test]
    fn scale_net_sets_attribute_and_validates() {
        let lib = sc89();
        let (mut d, m) = inv_stage();
        apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::ScaleNetLoad {
                net: "y".into(),
                percent: 250,
            },
        )
        .unwrap();
        let net = d.module(m).net_by_name("y").unwrap();
        assert_eq!(d.module(m).net(net).attr(LOAD_SCALE_ATTR), Some("250"));
        let err = apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::ScaleNetLoad {
                net: "y".into(),
                percent: 0,
            },
        )
        .unwrap_err();
        assert_eq!(err, EcoError::BadPercent(0));
    }

    /// The scaled load must actually change the driving arc delays seen
    /// by the binding, which is what invalidates the affected shard.
    #[test]
    fn scaled_load_changes_estimate() {
        let lib = sc89();
        let (mut d, m) = inv_stage();
        let binding = Binding::new(&d, &lib);
        let net = d.module(m).net_by_name("y").unwrap();
        let base = binding.net_load_ff(&d, &lib, m, net);
        apply_eco(
            &mut d,
            m,
            &lib,
            &EcoOp::ScaleNetLoad {
                net: "y".into(),
                percent: 300,
            },
        )
        .unwrap();
        let binding = Binding::new(&d, &lib);
        assert_eq!(binding.net_load_ff(&d, &lib, m, net), base * 3);
    }
}
