//! The top-level design container and its editing API.

use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::ids::{InstId, LeafId, ModuleId, NetId, PinSlot, PortId};
use crate::leaf::{LeafDef, PinDir};
use crate::module::{InstRef, Module};

/// A complete design: leaf-cell interface declarations plus a module
/// hierarchy.
///
/// All structural edits go through `Design` so that the normalized
/// connectivity (net endpoint lists and instance connection tables) can
/// never drift apart. See the [crate-level documentation](crate) for a
/// worked example.
#[derive(Clone, Debug)]
pub struct Design {
    name: String,
    leaves: Vec<LeafDef>,
    leaf_by_name: HashMap<String, LeafId>,
    modules: Vec<Module>,
    module_by_name: HashMap<String, ModuleId>,
    top: Option<ModuleId>,
}

/// Aggregate size counts for a design, in the units of the paper's
/// Table 1 ("cells" and "nets").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesignStats {
    /// Leaf-cell instances, counted through the hierarchy.
    pub cells: usize,
    /// Nets, counted through the hierarchy (port-aliased nets are counted
    /// once, in the module that owns them).
    pub nets: usize,
    /// Module (hierarchical) instances.
    pub module_insts: usize,
    /// Maximum hierarchy depth below the counted module (0 for flat).
    pub depth: usize,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Design {
        Design {
            name: name.into(),
            leaves: Vec::new(),
            leaf_by_name: HashMap::new(),
            modules: Vec::new(),
            module_by_name: HashMap::new(),
            top: None,
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ---- leaf definitions -------------------------------------------------

    /// Registers a leaf-cell interface.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if a leaf with the same name
    /// exists.
    pub fn declare_leaf(&mut self, def: LeafDef) -> Result<LeafId, NetlistError> {
        if self.leaf_by_name.contains_key(def.name()) {
            return Err(NetlistError::DuplicateName {
                kind: "leaf",
                name: def.name().to_owned(),
            });
        }
        let id = LeafId::from_raw(self.leaves.len() as u32);
        self.leaf_by_name.insert(def.name().to_owned(), id);
        self.leaves.push(def);
        Ok(id)
    }

    /// Returns a leaf definition.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this design.
    pub fn leaf(&self, id: LeafId) -> &LeafDef {
        &self.leaves[id.idx()]
    }

    /// Looks up a leaf definition by cell name.
    pub fn leaf_by_name(&self, name: &str) -> Option<LeafId> {
        self.leaf_by_name.get(name).copied()
    }

    /// Iterates over `(id, definition)` pairs in declaration order.
    pub fn leaves(&self) -> impl Iterator<Item = (LeafId, &LeafDef)> {
        self.leaves
            .iter()
            .enumerate()
            .map(|(i, d)| (LeafId::from_raw(i as u32), d))
    }

    // ---- modules ----------------------------------------------------------

    /// Creates a new, empty module.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if a module with the same
    /// name exists.
    pub fn add_module(&mut self, name: impl Into<String>) -> Result<ModuleId, NetlistError> {
        let name = name.into();
        if self.module_by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName {
                kind: "module",
                name,
            });
        }
        let id = ModuleId::from_raw(self.modules.len() as u32);
        self.module_by_name.insert(name.clone(), id);
        self.modules.push(Module::new(name));
        Ok(id)
    }

    /// Returns a module.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this design.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.idx()]
    }

    /// Returns a module mutably (for attribute annotation; structural
    /// edits go through `Design` methods).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this design.
    pub fn module_mut(&mut self, id: ModuleId) -> &mut Module {
        &mut self.modules[id.idx()]
    }

    /// Looks up a module by name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.module_by_name.get(name).copied()
    }

    /// Iterates over `(id, module)` pairs in creation order.
    pub fn modules(&self) -> impl Iterator<Item = (ModuleId, &Module)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (ModuleId::from_raw(i as u32), m))
    }

    /// Marks `id` as the design's top module.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid ids; returns `Ok` for uniform call
    /// sites.
    pub fn set_top(&mut self, id: ModuleId) -> Result<(), NetlistError> {
        assert!(id.idx() < self.modules.len(), "module id out of range");
        self.top = Some(id);
        Ok(())
    }

    /// The design's top module, if set.
    pub fn top(&self) -> Option<ModuleId> {
        self.top
    }

    // ---- structural edits -------------------------------------------------

    /// Pre-sizes a module's instance and net arenas (and their name
    /// indexes) for at least `insts` / `nets` more entries.
    ///
    /// Bulk producers — the `.hum` parser, the design generator — know
    /// their counts up front; reserving once avoids rehashing the name
    /// indexes and the grow-and-copy cycles of the arena arrays.
    /// An over-estimate holds its memory until [`Design::shrink_to_fit`].
    pub fn reserve(&mut self, module: ModuleId, insts: usize, nets: usize) {
        self.modules[module.idx()].reserve(insts, nets);
    }

    /// Packs every module's endpoint ranges and releases spare arena
    /// capacity. Bulk producers call it once they are done; edits made
    /// afterwards keep working.
    pub fn shrink_to_fit(&mut self) {
        for m in &mut self.modules {
            m.shrink_to_fit();
        }
    }

    /// Adds a net to a module.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] on a name collision.
    pub fn add_net(
        &mut self,
        module: ModuleId,
        name: impl AsRef<str>,
    ) -> Result<NetId, NetlistError> {
        let name = name.as_ref();
        self.modules[module.idx()]
            .push_net(name)
            .map_err(|_| NetlistError::DuplicateName {
                kind: "net",
                name: name.to_owned(),
            })
    }

    /// Returns the net called `name` in a module, adding it if there is
    /// none — how readers create nets implicitly on first reference.
    pub fn net_or_add(&mut self, module: ModuleId, name: &str) -> NetId {
        match self.modules[module.idx()].push_net(name) {
            Ok(id) | Err(id) => id,
        }
    }

    /// Adds a boundary port bound to an existing internal net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] on a port-name collision.
    pub fn add_port(
        &mut self,
        module: ModuleId,
        name: impl Into<String>,
        dir: PinDir,
        net: NetId,
    ) -> Result<PortId, NetlistError> {
        self.modules[module.idx()]
            .push_port(name.into(), dir, net)
            .map_err(|name| NetlistError::DuplicateName { kind: "port", name })
    }

    /// Instantiates a leaf cell.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] on an instance-name
    /// collision.
    pub fn add_leaf_instance(
        &mut self,
        module: ModuleId,
        name: impl AsRef<str>,
        leaf: LeafId,
    ) -> Result<InstId, NetlistError> {
        let pin_count = self.leaves[leaf.idx()].pin_count();
        self.add_instance_raw(module, name.as_ref(), InstRef::Leaf(leaf), pin_count)
    }

    /// Instantiates a child module.
    ///
    /// Hierarchy cycles are detected by [`Design::validate`], not here.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] on an instance-name
    /// collision.
    pub fn add_module_instance(
        &mut self,
        module: ModuleId,
        name: impl AsRef<str>,
        child: ModuleId,
    ) -> Result<InstId, NetlistError> {
        let pin_count = self.modules[child.idx()].ports.len();
        self.add_instance_raw(module, name.as_ref(), InstRef::Module(child), pin_count)
    }

    fn add_instance_raw(
        &mut self,
        module: ModuleId,
        name: &str,
        target: InstRef,
        pin_count: usize,
    ) -> Result<InstId, NetlistError> {
        self.modules[module.idx()]
            .push_instance(name, target, pin_count)
            .map_err(|_| NetlistError::DuplicateName {
                kind: "instance",
                name: name.to_owned(),
            })
    }

    /// Resolves a pin name on an instance's interface to its slot.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPin`] if the interface has no such
    /// pin.
    pub fn pin_slot(
        &self,
        module: ModuleId,
        inst: InstId,
        pin: &str,
    ) -> Result<PinSlot, NetlistError> {
        let (slot, iface_name) = match self.modules[module.idx()].instance(inst).target() {
            InstRef::Leaf(l) => (
                self.leaves[l.idx()].pin_by_name(pin),
                self.leaves[l.idx()].name(),
            ),
            InstRef::Module(child) => {
                let cm = &self.modules[child.idx()];
                (
                    cm.port_by_name(pin).map(|p| PinSlot::from_raw(p.as_raw())),
                    cm.name(),
                )
            }
        };
        slot.ok_or_else(|| NetlistError::UnknownPin {
            interface: iface_name.to_owned(),
            pin: pin.to_owned(),
        })
    }

    /// Returns the direction of pin `slot` on `inst`, as seen by the
    /// component.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn pin_dir(&self, module: ModuleId, inst: InstId, slot: PinSlot) -> PinDir {
        match self.modules[module.idx()].instance(inst).target() {
            InstRef::Leaf(l) => self.leaves[l.idx()].pin_def(slot).dir(),
            InstRef::Module(child) => self.modules[child.idx()].ports[slot.idx()].dir,
        }
    }

    /// Returns the name of pin `slot` on `inst`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn pin_name(&self, module: ModuleId, inst: InstId, slot: PinSlot) -> &str {
        match self.modules[module.idx()].instance(inst).target() {
            InstRef::Leaf(l) => self.leaves[l.idx()].pin_def(slot).name(),
            InstRef::Module(child) => &self.modules[child.idx()].ports[slot.idx()].name,
        }
    }

    /// Connects pin `pin` (by name) of `inst` to `net`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPin`] for a bad pin name. A pin that
    /// is already connected is silently reconnected (the old endpoint is
    /// removed), which is what the re-synthesis loop wants.
    pub fn connect(
        &mut self,
        module: ModuleId,
        inst: InstId,
        pin: &str,
        net: NetId,
    ) -> Result<(), NetlistError> {
        let slot = self.pin_slot(module, inst, pin)?;
        self.connect_slot(module, inst, slot, net);
        Ok(())
    }

    /// Connects pin `slot` of `inst` to `net`, replacing any existing
    /// connection.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn connect_slot(&mut self, module: ModuleId, inst: InstId, slot: PinSlot, net: NetId) {
        let dir = self.pin_dir(module, inst, slot);
        self.modules[module.idx()].connect_pin(inst, slot, net, dir);
    }

    /// Disconnects pin `slot` of `inst`, returning the net it was bound
    /// to.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn disconnect(&mut self, module: ModuleId, inst: InstId, slot: PinSlot) -> Option<NetId> {
        self.modules[module.idx()].disconnect_pin(inst, slot)
    }

    /// Retargets an instance to a different leaf definition with an
    /// identical interface (same pin names, directions and order).
    ///
    /// This is the "gate resizing" primitive of the re-synthesis loop: an
    /// `INV_X1` can be swapped for an `INV_X4` without touching
    /// connectivity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InterfaceMismatch`] if the new definition's
    /// interface differs in any way.
    pub fn replace_instance_ref(
        &mut self,
        module: ModuleId,
        inst: InstId,
        new_leaf: LeafId,
    ) -> Result<(), NetlistError> {
        let instance = self.modules[module.idx()].instance(inst);
        let old_leaf = match instance.target() {
            InstRef::Leaf(l) => l,
            InstRef::Module(_) => {
                return Err(NetlistError::InterfaceMismatch {
                    inst: instance.name().to_owned(),
                    detail: "instance targets a module, not a leaf".to_owned(),
                })
            }
        };
        let old = &self.leaves[old_leaf.idx()];
        let new = &self.leaves[new_leaf.idx()];
        if old.pin_count() != new.pin_count() {
            return Err(NetlistError::InterfaceMismatch {
                inst: instance.name().to_owned(),
                detail: format!("pin count {} vs {}", old.pin_count(), new.pin_count()),
            });
        }
        for (slot, pin) in old.pins() {
            let other = new.pin_def(slot);
            if other.name() != pin.name() || other.dir() != pin.dir() {
                return Err(NetlistError::InterfaceMismatch {
                    inst: instance.name().to_owned(),
                    detail: format!(
                        "pin {} is {}/{} vs {}/{}",
                        slot,
                        pin.name(),
                        pin.dir(),
                        other.name(),
                        other.dir()
                    ),
                });
            }
        }
        self.modules[module.idx()].set_target(inst, InstRef::Leaf(new_leaf));
        Ok(())
    }

    // ---- statistics ---------------------------------------------------

    /// Counts cells and nets through the hierarchy starting at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy under `root` is recursive (validate first).
    pub fn stats(&self, root: ModuleId) -> DesignStats {
        let m = &self.modules[root.idx()];
        let mut stats = DesignStats {
            cells: 0,
            nets: m.net_count(),
            module_insts: 0,
            depth: 0,
        };
        for (_, inst) in m.instances() {
            match inst.target() {
                InstRef::Leaf(_) => stats.cells += 1,
                InstRef::Module(child) => {
                    let sub = self.stats(child);
                    stats.cells += sub.cells;
                    // A child net bound to a connected port aliases a net
                    // of this module; count it once, here.
                    stats.nets += sub.nets - inst.conns().count();
                    stats.module_insts += 1 + sub.module_insts;
                    stats.depth = stats.depth.max(1 + sub.depth);
                }
            }
        }
        stats
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design {} ({} leaf defs, {} modules)",
            self.name,
            self.leaves.len(),
            self.modules.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Endpoint;

    fn inv_design() -> (Design, LeafId, ModuleId) {
        let mut d = Design::new("t");
        let inv = d
            .declare_leaf(
                LeafDef::new("INV")
                    .pin("A", PinDir::Input)
                    .pin("Y", PinDir::Output),
            )
            .unwrap();
        let m = d.add_module("top").unwrap();
        (d, inv, m)
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut d, _, m) = inv_design();
        assert!(matches!(
            d.declare_leaf(LeafDef::new("INV")),
            Err(NetlistError::DuplicateName { kind: "leaf", .. })
        ));
        assert!(d.add_module("top").is_err());
        d.add_net(m, "n").unwrap();
        assert!(d.add_net(m, "n").is_err());
    }

    #[test]
    fn connect_and_reconnect() {
        let (mut d, inv, m) = inv_design();
        let n1 = d.add_net(m, "n1").unwrap();
        let n2 = d.add_net(m, "n2").unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", n1).unwrap();
        assert_eq!(d.module(m).net(n1).endpoints().len(), 1);
        // Reconnect moves the endpoint.
        d.connect(m, u, "A", n2).unwrap();
        assert_eq!(d.module(m).net(n1).endpoints().len(), 0);
        assert_eq!(d.module(m).net(n2).endpoints().len(), 1);
        // Disconnect empties it again.
        let slot = d.pin_slot(m, u, "A").unwrap();
        assert_eq!(d.disconnect(m, u, slot), Some(n2));
        assert_eq!(d.module(m).net(n2).endpoints().len(), 0);
        assert_eq!(d.disconnect(m, u, slot), None);
    }

    #[test]
    fn unknown_pin() {
        let (mut d, inv, m) = inv_design();
        let n = d.add_net(m, "n").unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        assert!(matches!(
            d.connect(m, u, "Q", n),
            Err(NetlistError::UnknownPin { .. })
        ));
    }

    #[test]
    fn driver_and_loads() {
        let (mut d, inv, m) = inv_design();
        let n = d.add_net(m, "n").unwrap();
        let u1 = d.add_leaf_instance(m, "u1", inv).unwrap();
        let u2 = d.add_leaf_instance(m, "u2", inv).unwrap();
        d.connect(m, u1, "Y", n).unwrap();
        d.connect(m, u2, "A", n).unwrap();
        let module = d.module(m);
        match module.driver(n) {
            Some(Endpoint::Pin { inst, dir, .. }) => {
                assert_eq!(inst, u1);
                assert_eq!(dir, PinDir::Output);
            }
            other => panic!("unexpected driver {other:?}"),
        }
        assert_eq!(module.fanout(n), 1);
    }

    #[test]
    fn ports_source_and_sink() {
        let (mut d, inv, m) = inv_design();
        let a = d.add_net(m, "a").unwrap();
        let y = d.add_net(m, "y").unwrap();
        d.add_port(m, "a", PinDir::Input, a).unwrap();
        d.add_port(m, "y", PinDir::Output, y).unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.connect(m, u, "A", a).unwrap();
        d.connect(m, u, "Y", y).unwrap();
        let module = d.module(m);
        assert!(matches!(module.driver(a), Some(Endpoint::Port(_))));
        assert!(matches!(module.driver(y), Some(Endpoint::Pin { .. })));
        assert_eq!(module.fanout(y), 1, "output port counts as a load");
    }

    #[test]
    fn retarget_same_interface() {
        let (mut d, inv, m) = inv_design();
        let inv4 = d
            .declare_leaf(
                LeafDef::new("INV_X4")
                    .pin("A", PinDir::Input)
                    .pin("Y", PinDir::Output),
            )
            .unwrap();
        let nand = d
            .declare_leaf(
                LeafDef::new("NAND2")
                    .pin("A", PinDir::Input)
                    .pin("B", PinDir::Input)
                    .pin("Y", PinDir::Output),
            )
            .unwrap();
        let u = d.add_leaf_instance(m, "u", inv).unwrap();
        d.replace_instance_ref(m, u, inv4).unwrap();
        assert_eq!(d.module(m).instance(u).target(), InstRef::Leaf(inv4));
        assert!(matches!(
            d.replace_instance_ref(m, u, nand),
            Err(NetlistError::InterfaceMismatch { .. })
        ));
    }

    #[test]
    fn hierarchy_stats() {
        let (mut d, inv, top) = inv_design();
        let child = d.add_module("child").unwrap();
        let cn = d.add_net(child, "x").unwrap();
        d.add_port(child, "x", PinDir::Input, cn).unwrap();
        let _u = d.add_leaf_instance(child, "u", inv).unwrap();
        let n = d.add_net(top, "n").unwrap();
        let ci = d.add_module_instance(top, "c0", child).unwrap();
        d.connect(top, ci, "x", n).unwrap();
        let _v = d.add_leaf_instance(top, "v", inv).unwrap();
        let stats = d.stats(top);
        assert_eq!(stats.cells, 2);
        // child's "x" net aliases top's "n" through the connected port.
        assert_eq!(stats.nets, 1);
        assert_eq!(stats.module_insts, 1);
        assert_eq!(stats.depth, 1);
    }

    #[test]
    fn module_instance_pins_use_port_names() {
        let (mut d, _inv, top) = inv_design();
        let child = d.add_module("child").unwrap();
        let cn = d.add_net(child, "in").unwrap();
        let co = d.add_net(child, "out").unwrap();
        d.add_port(child, "in", PinDir::Input, cn).unwrap();
        d.add_port(child, "out", PinDir::Output, co).unwrap();
        let n = d.add_net(top, "n").unwrap();
        let ci = d.add_module_instance(top, "c0", child).unwrap();
        d.connect(top, ci, "out", n).unwrap();
        let slot = d.pin_slot(top, ci, "out").unwrap();
        assert_eq!(d.pin_dir(top, ci, slot), PinDir::Output);
        assert_eq!(d.pin_name(top, ci, slot), "out");
        assert!(matches!(
            d.module(top).driver(n),
            Some(Endpoint::Pin { .. })
        ));
    }
}
