//! Modules and their contents: instances, nets and boundary ports.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::ids::{InstId, LeafId, ModuleId, NetId, PinSlot, PortId};
use crate::leaf::PinDir;

/// What an [`Instance`] instantiates: a primitive cell or another module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstRef {
    /// A primitive component described by a [`crate::LeafDef`].
    Leaf(LeafId),
    /// A child module (hierarchy).
    Module(ModuleId),
}

/// One endpoint of a net.
///
/// The resolved pin direction is stored alongside the structural reference
/// so that driver/load queries need no interface lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A pin of an instance inside the module.
    Pin {
        /// The instance.
        inst: InstId,
        /// The pin slot within the instance's interface.
        slot: PinSlot,
        /// The direction of that pin, as seen by the component.
        dir: PinDir,
    },
    /// A boundary port of the module itself.
    Port(PortId),
}

/// An instantiation of a leaf cell or child module.
///
/// Names and pin tables are boxed (not growable): at the million-cell
/// scale the arena's per-element overhead is what bounds the resident
/// set, and neither field ever grows after creation.
#[derive(Clone, Debug)]
pub struct Instance {
    pub(crate) name: Box<str>,
    pub(crate) target: InstRef,
    pub(crate) conns: Box<[Option<NetId>]>,
    pub(crate) attrs: BTreeMap<String, String>,
}

impl Instance {
    /// The instance name, unique within its module.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What this instance instantiates.
    pub fn target(&self) -> InstRef {
        self.target
    }

    /// The net bound to pin `slot`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the instance's interface.
    pub fn conn(&self, slot: PinSlot) -> Option<NetId> {
        self.conns[slot.idx()]
    }

    /// Iterates over `(slot, net)` pairs for connected pins.
    pub fn conns(&self) -> impl Iterator<Item = (PinSlot, NetId)> + '_ {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|net| (PinSlot::from_raw(i as u32), net)))
    }

    /// The number of pin slots in the instance's interface.
    pub fn pin_count(&self) -> usize {
        self.conns.len()
    }

    /// Reads a string attribute (annotation), if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Iterates over all attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// A wire connecting endpoints within one module.
#[derive(Clone, Debug)]
pub struct Net {
    pub(crate) name: Box<str>,
    pub(crate) endpoints: Vec<Endpoint>,
    pub(crate) attrs: BTreeMap<String, String>,
}

impl Net {
    /// The net name, unique within its module.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All endpoints attached to the net.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Reads a string attribute (annotation), if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Iterates over all attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// A boundary port of a module.
#[derive(Clone, Debug)]
pub struct Port {
    pub(crate) name: String,
    pub(crate) dir: PinDir,
    pub(crate) net: NetId,
}

impl Port {
    /// The port name, unique within its module.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The port direction, from the module's point of view.
    pub fn dir(&self) -> PinDir {
        self.dir
    }

    /// The internal net bound to the port.
    pub fn net(&self) -> NetId {
        self.net
    }
}

/// A named collection of instances, nets and boundary ports.
///
/// Modules are created and mutated through [`crate::Design`]; this type
/// exposes the read API.
#[derive(Clone, Debug)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) insts: Vec<Instance>,
    pub(crate) nets: Vec<Net>,
    pub(crate) ports: Vec<Port>,
    pub(crate) inst_by_name: HashMap<String, InstId>,
    pub(crate) net_by_name: HashMap<String, NetId>,
    pub(crate) port_by_name: HashMap<String, PortId>,
    pub(crate) attrs: BTreeMap<String, String>,
}

impl Module {
    pub(crate) fn new(name: String) -> Module {
        Module {
            name,
            insts: Vec::new(),
            nets: Vec::new(),
            ports: Vec::new(),
            inst_by_name: HashMap::new(),
            net_by_name: HashMap::new(),
            port_by_name: HashMap::new(),
            attrs: BTreeMap::new(),
        }
    }

    /// The module name, unique within its design.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the instance with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.insts[id.idx()]
    }

    /// Returns the net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.idx()]
    }

    /// Returns the port with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.idx()]
    }

    /// Iterates over `(id, instance)` pairs in creation order.
    pub fn instances(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId::from_raw(i as u32), inst))
    }

    /// Iterates over `(id, net)` pairs in creation order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, net)| (NetId::from_raw(i as u32), net))
    }

    /// Iterates over `(id, port)` pairs in creation order.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId::from_raw(i as u32), p))
    }

    /// Looks up an instance by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstId> {
        self.inst_by_name.get(name).copied()
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_by_name.get(name).copied()
    }

    /// Looks up a port by name.
    pub fn port_by_name(&self, name: &str) -> Option<PortId> {
        self.port_by_name.get(name).copied()
    }

    /// The number of instances.
    pub fn instance_count(&self) -> usize {
        self.insts.len()
    }

    /// The number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The endpoint that drives `net`: an instance output pin or a module
    /// input port. `None` for undriven nets (a validation error, but
    /// queries stay total).
    pub fn driver(&self, net: NetId) -> Option<Endpoint> {
        self.nets[net.idx()].endpoints.iter().copied().find(|ep| {
            match ep {
                Endpoint::Pin { dir, .. } => *dir == PinDir::Output,
                // A module *input* port sources data into the module.
                Endpoint::Port(p) => self.ports[p.idx()].dir == PinDir::Input,
            }
        })
    }

    /// Iterates over the endpoints that *load* `net` (everything except
    /// drivers).
    pub fn loads(&self, net: NetId) -> impl Iterator<Item = Endpoint> + '_ {
        self.nets[net.idx()]
            .endpoints
            .iter()
            .copied()
            .filter(move |ep| match ep {
                Endpoint::Pin { dir, .. } => *dir == PinDir::Input,
                Endpoint::Port(p) => self.ports[p.idx()].dir == PinDir::Output,
            })
    }

    /// The number of load endpoints on `net` — the fanout used by the
    /// delay estimator.
    pub fn fanout(&self, net: NetId) -> usize {
        self.loads(net).count()
    }

    /// Reads a string attribute (annotation), if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Sets a string attribute (annotation); returns the previous value.
    ///
    /// Attributes stand in for OCT "flags": the original program could flag
    /// slow paths in the database for later viewing in VEM.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) -> Option<String> {
        self.attrs.insert(key.into(), value.into())
    }

    /// Sets an attribute on an instance; returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn set_instance_attr(
        &mut self,
        inst: InstId,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Option<String> {
        self.insts[inst.idx()]
            .attrs
            .insert(key.into(), value.into())
    }

    /// Sets an attribute on a net; returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn set_net_attr(
        &mut self,
        net: NetId,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Option<String> {
        self.nets[net.idx()].attrs.insert(key.into(), value.into())
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} ({} instances, {} nets, {} ports)",
            self.name,
            self.insts.len(),
            self.nets.len(),
            self.ports.len()
        )
    }
}
