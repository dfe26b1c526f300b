//! Modules and their contents: instances, nets and boundary ports.
//!
//! A module keeps its instances and nets in one flat arena, not one
//! heap object per element; at the million-cell scale per-element
//! overhead is what bounds the resident set and the load time.
//!
//! * Names live in one byte buffer per kind, found through a keyed
//!   open-addressing index of `u32` ids.
//! * Pin tables are ranges of one flat per-module array: instance `i`
//!   owns `pins[pin_start[i]..pin_start[i + 1]]`.
//! * Endpoints are ranges of one flat per-module array, so a net costs
//!   no allocation of its own. A full range doubles, in place when it
//!   ends the array and otherwise moved to the end; the array is packed
//!   once abandoned ranges make up half of it, and by
//!   [`crate::Design::shrink_to_fit`].
//! * Attributes are sparse maps keyed by id.
//!
//! A net's endpoints stay in the order its pins were connected. A
//! re-pointed pin leaves its old net, which keeps its other endpoints
//! in order, and joins the end of the new one. Timing-graph
//! construction reads this order, so arc order and everything derived
//! from it depend on it.
//!
//! [`Instance`] and [`Net`] are borrowed views of one arena entry.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::ids::{InstId, LeafId, ModuleId, NetId, PinSlot, PortId};
use crate::leaf::PinDir;
use crate::names::Names;

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

/// An unconnected pin in the flat pin table. Net ids stay below
/// `u32::MAX` (`add_net` asserts it).
const NO_NET: u32 = u32::MAX;

/// Fills endpoint slots that belong to no net's live range.
const VACANT: Endpoint = Endpoint::Port(PortId(u32::MAX));

type Attrs = BTreeMap<String, String>;

/// A net's range of the flat endpoint array.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// An instantiation of a leaf cell or child module: a view of one
/// entry of its module's arena.
#[derive(Clone, Copy)]
pub struct Instance<'a> {
    module: &'a Module,
    id: InstId,
}

impl<'a> Instance<'a> {
    /// The instance name, unique within its module.
    pub fn name(&self) -> &'a str {
        self.module.inst_names.get(self.id.0)
    }

    /// What this instance instantiates.
    pub fn target(&self) -> InstRef {
        self.module.targets[self.id.idx()]
    }

    fn pins(&self) -> &'a [u32] {
        let m = self.module;
        let i = self.id.idx();
        &m.pins[m.pin_start[i] as usize..m.pin_start[i + 1] as usize]
    }

    /// The net bound to pin `slot`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the instance's interface.
    pub fn conn(&self, slot: PinSlot) -> Option<NetId> {
        match self.pins()[slot.idx()] {
            NO_NET => None,
            net => Some(NetId(net)),
        }
    }

    /// Iterates over `(slot, net)` pairs for connected pins.
    pub fn conns(&self) -> impl Iterator<Item = (PinSlot, NetId)> + 'a {
        self.pins()
            .iter()
            .enumerate()
            .filter(|&(_, &net)| net != NO_NET)
            .map(|(i, &net)| (PinSlot(i as u32), NetId(net)))
    }

    /// The number of pin slots in the instance's interface.
    pub fn pin_count(&self) -> usize {
        self.pins().len()
    }

    /// Reads a string attribute (annotation), if set.
    pub fn attr(&self, key: &str) -> Option<&'a str> {
        attr(self.module.inst_attrs.get(&self.id), key)
    }

    /// Iterates over all attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        attrs(self.module.inst_attrs.get(&self.id))
    }
}

impl fmt::Debug for Instance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("name", &self.name())
            .field("target", &self.target())
            .field("conns", &self.conns().collect::<Vec<_>>())
            .finish()
    }
}

/// A wire connecting endpoints within one module: a view of one entry
/// of its module's arena.
#[derive(Clone, Copy)]
pub struct Net<'a> {
    module: &'a Module,
    id: NetId,
}

impl<'a> Net<'a> {
    /// The net name, unique within its module.
    pub fn name(&self) -> &'a str {
        self.module.net_names.get(self.id.0)
    }

    /// All endpoints attached to the net, in the order they were
    /// connected.
    pub fn endpoints(&self) -> &'a [Endpoint] {
        self.module.endpoints(self.id)
    }

    /// Reads a string attribute (annotation), if set.
    pub fn attr(&self, key: &str) -> Option<&'a str> {
        attr(self.module.net_attrs.get(&self.id), key)
    }

    /// Iterates over all attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        attrs(self.module.net_attrs.get(&self.id))
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("endpoints", &self.endpoints())
            .finish()
    }
}

fn attr<'a>(attrs: Option<&'a Attrs>, key: &str) -> Option<&'a str> {
    attrs?.get(key).map(String::as_str)
}

fn attrs(attrs: Option<&Attrs>) -> impl Iterator<Item = (&str, &str)> {
    attrs
        .into_iter()
        .flatten()
        .map(|(k, v)| (k.as_str(), v.as_str()))
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
/// exposes the read API. Instances and nets live in one flat arena per
/// module, with names in one buffer per kind; a net's endpoints keep
/// the order in which its pins were connected.
#[derive(Clone, Debug)]
pub struct Module {
    pub(crate) name: String,
    inst_names: Names,
    targets: Vec<InstRef>,
    /// `instance_count() + 1` offsets into `pins`.
    pin_start: Vec<u32>,
    /// Net id per pin slot, `NO_NET` when unconnected.
    pins: Vec<u32>,
    inst_attrs: BTreeMap<InstId, Attrs>,
    net_names: Names,
    spans: Vec<Span>,
    endpoints: Vec<Endpoint>,
    /// Slots of `endpoints` outside every live span.
    abandoned: usize,
    net_attrs: BTreeMap<NetId, Attrs>,
    pub(crate) ports: Vec<Port>,
    port_by_name: HashMap<String, PortId>,
}

impl Module {
    pub(crate) fn new(name: String) -> Module {
        Module {
            name,
            inst_names: Names::new(),
            targets: Vec::new(),
            pin_start: vec![0],
            pins: Vec::new(),
            inst_attrs: BTreeMap::new(),
            net_names: Names::new(),
            spans: Vec::new(),
            endpoints: Vec::new(),
            abandoned: 0,
            net_attrs: BTreeMap::new(),
            ports: Vec::new(),
            port_by_name: HashMap::new(),
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
    pub fn instance(&self, id: InstId) -> Instance<'_> {
        assert!(id.idx() < self.targets.len(), "instance {id} out of range");
        Instance { module: self, id }
    }

    /// Returns the net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn net(&self, id: NetId) -> Net<'_> {
        assert!(id.idx() < self.spans.len(), "net {id} out of range");
        Net { module: self, id }
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
    pub fn instances(&self) -> impl Iterator<Item = (InstId, Instance<'_>)> {
        (0..self.targets.len() as u32)
            .map(InstId)
            .map(move |id| (id, Instance { module: self, id }))
    }

    /// Iterates over `(id, net)` pairs in creation order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, Net<'_>)> {
        (0..self.spans.len() as u32)
            .map(NetId)
            .map(move |id| (id, Net { module: self, id }))
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
        self.inst_names.find(name).map(InstId)
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.find(name).map(NetId)
    }

    /// Looks up a port by name.
    pub fn port_by_name(&self, name: &str) -> Option<PortId> {
        self.port_by_name.get(name).copied()
    }

    /// The number of instances.
    pub fn instance_count(&self) -> usize {
        self.targets.len()
    }

    /// The number of nets.
    pub fn net_count(&self) -> usize {
        self.spans.len()
    }

    fn endpoints(&self, net: NetId) -> &[Endpoint] {
        let s = self.spans[net.idx()];
        &self.endpoints[s.start as usize..(s.start + s.len) as usize]
    }

    /// The endpoint that drives `net`: an instance output pin or a module
    /// input port. `None` for undriven nets (a validation error, but
    /// queries stay total).
    pub fn driver(&self, net: NetId) -> Option<Endpoint> {
        self.endpoints(net).iter().copied().find(|ep| {
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
        self.endpoints(net)
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
        assert!(
            inst.idx() < self.targets.len(),
            "instance {inst} out of range"
        );
        self.inst_attrs
            .entry(inst)
            .or_default()
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
        assert!(net.idx() < self.spans.len(), "net {net} out of range");
        self.net_attrs
            .entry(net)
            .or_default()
            .insert(key.into(), value.into())
    }

    // ---- arena edits, called by `Design` ----------------------------------

    pub(crate) fn reserve(&mut self, insts: usize, nets: usize) {
        // Name bytes, pins and endpoints are per-element estimates. On
        // the generated `sram`, `pipeline` and `sbox` designs (20k-250k
        // cells) a name averages 5.7-6.9 bytes, an instance 3.0 pins and
        // a net 3.0 endpoints, and no sc89 cell has more than four pins.
        // The estimates round up: an over-estimate holds memory until
        // `shrink_to_fit`, while an under-estimate regrows the arrays,
        // and across repeated loads that regrowth fragments the heap
        // (`sram-signoff`'s `peak_rss_mb` reads 227 MB without the
        // estimates, 186 MB with them).
        self.inst_names.reserve(insts, insts * 8);
        self.targets.reserve(insts);
        self.pin_start.reserve(insts);
        self.pins.reserve(insts * 4);
        self.net_names.reserve(nets, nets * 8);
        self.spans.reserve(nets);
        self.endpoints.reserve(nets * 4);
    }

    /// Adds a net; `Err` carries the id of the net already so named.
    pub(crate) fn push_net(&mut self, name: &str) -> Result<NetId, NetId> {
        assert!(
            self.spans.len() < NO_NET as usize,
            "net arena exceeds the u32 id space"
        );
        let id = self.net_names.insert(name).map_err(NetId)?;
        // An empty range at the end: the first endpoint grows it in
        // place if nothing else was attached in between.
        let start = self.endpoints.len() as u32;
        self.spans.push(Span {
            start,
            len: 0,
            cap: 0,
        });
        Ok(NetId(id))
    }

    /// Adds an instance with `pin_count` unconnected pins; `Err` carries
    /// the id of the instance already so named.
    pub(crate) fn push_instance(
        &mut self,
        name: &str,
        target: InstRef,
        pin_count: usize,
    ) -> Result<InstId, InstId> {
        assert!(
            self.targets.len() < u32::MAX as usize,
            "instance arena exceeds the u32 id space"
        );
        let id = self.inst_names.insert(name).map_err(InstId)?;
        self.targets.push(target);
        self.pins.resize(self.pins.len() + pin_count, NO_NET);
        let end = u32::try_from(self.pins.len()).expect("pin table exceeds the u32 space");
        self.pin_start.push(end);
        Ok(InstId(id))
    }

    /// Adds a port bound to `net` and attaches it as the net's newest
    /// endpoint.
    pub(crate) fn push_port(
        &mut self,
        name: String,
        dir: PinDir,
        net: NetId,
    ) -> Result<PortId, String> {
        if self.port_by_name.contains_key(&name) {
            return Err(name);
        }
        assert!(
            self.ports.len() < u32::MAX as usize,
            "port arena exceeds the u32 id space"
        );
        let id = PortId::from_raw(self.ports.len() as u32);
        self.port_by_name.insert(name.clone(), id);
        self.ports.push(Port { name, dir, net });
        self.attach(net, Endpoint::Port(id));
        Ok(id)
    }

    pub(crate) fn set_target(&mut self, inst: InstId, target: InstRef) {
        self.targets[inst.idx()] = target;
    }

    /// Binds pin `slot` of `inst` to `net` as the net's newest
    /// endpoint; returns the net the pin was bound to.
    pub(crate) fn connect_pin(
        &mut self,
        inst: InstId,
        slot: PinSlot,
        net: NetId,
        dir: PinDir,
    ) -> Option<NetId> {
        let old = self.swap_pin(inst, slot, net.0);
        self.attach(net, Endpoint::Pin { inst, slot, dir });
        old
    }

    /// Unbinds pin `slot` of `inst`; returns the net it was bound to.
    pub(crate) fn disconnect_pin(&mut self, inst: InstId, slot: PinSlot) -> Option<NetId> {
        self.swap_pin(inst, slot, NO_NET)
    }

    fn swap_pin(&mut self, inst: InstId, slot: PinSlot, raw: u32) -> Option<NetId> {
        let i = inst.idx();
        let pins = &mut self.pins[self.pin_start[i] as usize..self.pin_start[i + 1] as usize];
        let old = std::mem::replace(&mut pins[slot.idx()], raw);
        if old == NO_NET {
            return None;
        }
        self.detach(NetId(old), inst, slot);
        Some(NetId(old))
    }

    /// Appends `ep` to `net`'s endpoints, doubling a full range (to at
    /// least four slots).
    fn attach(&mut self, net: NetId, ep: Endpoint) {
        let s = self.spans[net.idx()];
        if s.len == s.cap {
            self.regrow(net, (2 * s.len as usize).max(4));
        }
        let s = &mut self.spans[net.idx()];
        self.endpoints[(s.start + s.len) as usize] = ep;
        s.len += 1;
    }

    /// Gives `net`'s range room for `cap` endpoints: in place when it
    /// ends the array, otherwise moved to the end.
    fn regrow(&mut self, net: NetId, cap: usize) {
        // A pack copies the whole array, so it waits until abandoned
        // slots are over half of it: each pack is then paid for by the
        // moves that abandoned them, and waste never outgrows the rest
        // of the array. The 1024-slot (12 KB) floor spares small
        // modules a copy per handful of edits.
        if self.abandoned > 1024 && self.abandoned > self.endpoints.len() / 2 {
            self.pack_endpoints();
        }
        let mut s = self.spans[net.idx()];
        let end = self.endpoints.len();
        if (s.start + s.cap) as usize != end {
            let live = s.start as usize..(s.start + s.len) as usize;
            self.endpoints.extend_from_within(live);
            self.abandoned += s.cap as usize;
            s.start = end as u32;
        }
        // Every range ends inside the `u32` offset space.
        let new_end = s.start as usize + cap;
        assert!(
            new_end <= u32::MAX as usize,
            "endpoint array exceeds the u32 space"
        );
        self.endpoints.resize(new_end, VACANT);
        s.cap = cap as u32;
        self.spans[net.idx()] = s;
    }

    /// Removes pin `slot` of `inst` from `net`'s endpoints, keeping the
    /// others in order.
    fn detach(&mut self, net: NetId, inst: InstId, slot: PinSlot) {
        let s = &mut self.spans[net.idx()];
        let live = s.start as usize..(s.start + s.len) as usize;
        let at = self.endpoints[live.clone()]
            .iter()
            .position(|ep| matches!(ep, Endpoint::Pin { inst: i, slot: p, .. } if *i == inst && *p == slot))
            .expect("a bound pin is an endpoint of its net");
        self.endpoints
            .copy_within(live.start + at + 1..live.end, live.start + at);
        s.len -= 1;
    }

    /// Rewrites the endpoint array with every net's range packed in id
    /// order and no spare room.
    fn pack_endpoints(&mut self) {
        let live: usize = self.spans.iter().map(|s| s.len as usize).sum();
        let mut packed = Vec::with_capacity(live);
        for s in &mut self.spans {
            let start = packed.len() as u32;
            packed.extend_from_slice(&self.endpoints[s.start as usize..(s.start + s.len) as usize]);
            *s = Span {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.endpoints = packed;
        self.abandoned = 0;
    }

    /// Packs the endpoint array if any slot is spare, and releases
    /// spare capacity everywhere.
    pub(crate) fn shrink_to_fit(&mut self) {
        let live: usize = self.spans.iter().map(|s| s.len as usize).sum();
        if live < self.endpoints.len() {
            self.pack_endpoints();
        }
        self.endpoints.shrink_to_fit();
        self.targets.shrink_to_fit();
        self.pin_start.shrink_to_fit();
        self.pins.shrink_to_fit();
        self.spans.shrink_to_fit();
        self.inst_names.shrink_to_fit();
        self.net_names.shrink_to_fit();
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} ({} instances, {} nets, {} ports)",
            self.name,
            self.targets.len(),
            self.spans.len(),
            self.ports.len()
        )
    }
}
