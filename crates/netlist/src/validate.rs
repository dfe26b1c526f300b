//! Design-rule validation.

use std::collections::HashSet;

use crate::design::Design;
use crate::error::NetlistError;
use crate::ids::ModuleId;
use crate::leaf::PinDir;
use crate::module::{Endpoint, InstRef};

impl Design {
    /// Checks the whole design against the database design rules.
    ///
    /// Rules:
    ///
    /// * a top module is set;
    /// * the module hierarchy is acyclic;
    /// * every net reachable from the top has exactly one driver;
    /// * every *input* pin of every instance is connected (unloaded
    ///   outputs are permitted — synthesis intermediates often have
    ///   them).
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let top = self.top().ok_or(NetlistError::NoTop)?;
        self.check_acyclic(top)?;
        let mut seen = HashSet::new();
        self.validate_module_rec(top, &mut seen)
    }

    fn check_acyclic(&self, root: ModuleId) -> Result<(), NetlistError> {
        // Colors: 0 = white, 1 = on stack, 2 = done.
        fn visit(design: &Design, m: ModuleId, colors: &mut Vec<u8>) -> Result<(), NetlistError> {
            match colors[m.as_raw() as usize] {
                1 => {
                    return Err(NetlistError::RecursiveHierarchy {
                        module: design.module(m).name().to_owned(),
                    })
                }
                2 => return Ok(()),
                _ => {}
            }
            colors[m.as_raw() as usize] = 1;
            for (_, inst) in design.module(m).instances() {
                if let InstRef::Module(child) = inst.target() {
                    visit(design, child, colors)?;
                }
            }
            colors[m.as_raw() as usize] = 2;
            Ok(())
        }
        let mut colors = vec![0u8; self.modules().count()];
        visit(self, root, &mut colors)
    }

    fn validate_module_rec(
        &self,
        id: ModuleId,
        seen: &mut HashSet<ModuleId>,
    ) -> Result<(), NetlistError> {
        if !seen.insert(id) {
            return Ok(());
        }
        let m = self.module(id);
        for (_, net) in m.nets() {
            let mut drivers = 0usize;
            for ep in net.endpoints() {
                let drives = match ep {
                    Endpoint::Pin { dir, .. } => *dir == PinDir::Output,
                    Endpoint::Port(p) => m.port(*p).dir() == PinDir::Input,
                };
                if drives {
                    drivers += 1;
                }
            }
            match drivers {
                0 => {
                    return Err(NetlistError::UndrivenNet {
                        module: m.name().to_owned(),
                        net: net.name().to_owned(),
                    })
                }
                1 => {}
                _ => {
                    return Err(NetlistError::MultipleDrivers {
                        module: m.name().to_owned(),
                        net: net.name().to_owned(),
                    })
                }
            }
        }
        for (inst_id, inst) in m.instances() {
            for slot in 0..inst.pin_count() {
                let slot = crate::ids::PinSlot::from_raw(slot as u32);
                if inst.conn(slot).is_none() && self.pin_dir(id, inst_id, slot) == PinDir::Input {
                    return Err(NetlistError::DanglingInput {
                        module: m.name().to_owned(),
                        inst: inst.name().to_owned(),
                        pin: self.pin_name(id, inst_id, slot).to_owned(),
                    });
                }
            }
            if let InstRef::Module(child) = inst.target() {
                self.validate_module_rec(child, seen)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::LeafDef;

    fn base() -> (Design, crate::LeafId, ModuleId) {
        let mut d = Design::new("v");
        let inv = d
            .declare_leaf(
                LeafDef::new("INV")
                    .pin("A", PinDir::Input)
                    .pin("Y", PinDir::Output),
            )
            .unwrap();
        let m = d.add_module("top").unwrap();
        d.set_top(m).unwrap();
        (d, inv, m)
    }

    #[test]
    fn valid_design_passes() {
        let (mut d, inv, m) = base();
        let a = d.add_net(m, "a").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        d.add_port(m, "y", PinDir::Output, y).unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", a).unwrap();
        d.connect(m, u, "Y", y).unwrap();
        d.validate().unwrap();
    }

    #[test]
    fn no_top_fails() {
        let d = Design::new("x");
        assert_eq!(d.validate(), Err(NetlistError::NoTop));
    }

    #[test]
    fn undriven_net_fails() {
        let (mut d, inv, m) = base();
        let a = d.add_net(m, "a").unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", a).unwrap();
        assert!(matches!(
            d.validate(),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn multiple_drivers_fail() {
        let (mut d, inv, m) = base();
        let a = d.add_net(m, "a").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        let u1 = d.add_leaf_instance(m, "u1", inv).unwrap();
        let u2 = d.add_leaf_instance(m, "u2", inv).unwrap();
        d.connect(m, u1, "A", a).unwrap();
        d.connect(m, u1, "Y", y).unwrap();
        d.connect(m, u2, "A", a).unwrap();
        d.connect(m, u2, "Y", y).unwrap();
        assert!(matches!(
            d.validate(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn dangling_input_fails_but_dangling_output_is_ok() {
        let (mut d, inv, m) = base();
        let a = d.add_net(m, "a").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", a).unwrap();
        // Y left dangling: allowed.
        d.validate().unwrap();
        let v = d.add_leaf_instance(m, "v", inv).unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.connect(m, v, "Y", y).unwrap();
        // A left dangling: rejected.
        assert!(matches!(
            d.validate(),
            Err(NetlistError::DanglingInput { .. })
        ));
    }

    #[test]
    fn recursive_hierarchy_fails() {
        let (mut d, _inv, m) = base();
        let child = d.add_module("child").unwrap();
        // child instantiates top, top instantiates child.
        d.add_module_instance(child, "t", m).unwrap();
        d.add_module_instance(m, "c", child).unwrap();
        assert!(matches!(
            d.validate(),
            Err(NetlistError::RecursiveHierarchy { .. })
        ));
    }
}
