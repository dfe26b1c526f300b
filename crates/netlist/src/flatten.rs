//! Hierarchy elaboration: producing a flat, single-module design.
//!
//! The paper analyzes both flattened networks of standard cells (SM1F)
//! and hierarchical descriptions (SM1H). Flattening lets the test-suite
//! check that hierarchical analysis is a conservative abstraction of the
//! flat analysis, and gives the workload generators a single code path.

use crate::design::Design;
use crate::error::NetlistError;
use crate::ids::{ModuleId, NetId, PinSlot};
use crate::module::InstRef;

impl Design {
    /// Produces a new single-module design in which every hierarchical
    /// instance under `root` has been inlined.
    ///
    /// Instance and net names are joined with `/` (`"u3/add/carry"`), the
    /// convention the Berkeley tools used for hierarchical paths. Leaf
    /// definitions are copied verbatim, so [`crate::LeafId`]s remain
    /// valid across the flattening.
    ///
    /// # Errors
    ///
    /// Returns an error if a child-module net is bound to more than one
    /// port (net aliasing through feed-throughs is not supported) or if
    /// the hierarchy is recursive.
    pub fn flatten(&self, root: ModuleId) -> Result<Design, NetlistError> {
        let mut out = Design::new(format!("{}_flat", self.module(root).name()));
        for (_, def) in self.leaves() {
            out.declare_leaf(def.clone())?;
        }
        let flat = out.add_module(self.module(root).name().to_owned())?;
        // Root nets are created without a prefix; ports re-attach to them.
        let no_binding: Vec<Option<NetId>> = vec![None; self.module(root).ports().count()];
        let root_nets = inline(self, &mut out, flat, root, "", &no_binding)?;
        for (_, port) in self.module(root).ports() {
            let net =
                root_nets[port.net().as_raw() as usize].expect("root nets are always materialized");
            out.add_port(flat, port.name().to_owned(), port.dir(), net)?;
        }
        out.set_top(flat)?;
        out.shrink_to_fit();
        Ok(out)
    }
}

/// Inlines `src_m` (from `src`) into `out_m` (in `out`), with `prefix`
/// prepended to every created name. `port_binding[slot]` gives the parent
/// net already materialized for the child's port `slot`, if any.
///
/// Returns the mapping from `src_m` net ids to materialized net ids.
fn inline(
    src: &Design,
    out: &mut Design,
    out_m: ModuleId,
    src_m: ModuleId,
    prefix: &str,
    port_binding: &[Option<NetId>],
) -> Result<Vec<Option<NetId>>, NetlistError> {
    let module = src.module(src_m);

    // Map each net: through a port when bound, otherwise a fresh net.
    let mut net_map: Vec<Option<NetId>> = vec![None; module.net_count()];
    for (port_id, port) in module.ports() {
        if let Some(parent_net) = port_binding[port_id.as_raw() as usize] {
            let slot = port.net().as_raw() as usize;
            match net_map[slot] {
                None => net_map[slot] = Some(parent_net),
                Some(existing) if existing == parent_net => {}
                Some(_) => {
                    return Err(NetlistError::InterfaceMismatch {
                        inst: format!("{prefix}{}", module.name()),
                        detail: format!(
                            "net {:?} is bound to multiple ports (feed-through aliasing)",
                            module.net(port.net()).name()
                        ),
                    })
                }
            }
        }
    }
    // One buffer for every prefixed name: the arena copies the bytes.
    let mut name = String::from(prefix);
    fn prefixed<'a>(name: &'a mut String, prefix: &str, base: &str) -> &'a str {
        name.truncate(prefix.len());
        name.push_str(base);
        name
    }
    for (net_id, net) in module.nets() {
        if net_map[net_id.as_raw() as usize].is_none() {
            let id = out.add_net(out_m, prefixed(&mut name, prefix, net.name()))?;
            net_map[net_id.as_raw() as usize] = Some(id);
        }
    }

    for (_, inst) in module.instances() {
        match inst.target() {
            InstRef::Leaf(leaf) => {
                let new_id =
                    out.add_leaf_instance(out_m, prefixed(&mut name, prefix, inst.name()), leaf)?;
                for (slot, net) in inst.conns() {
                    let mapped = net_map[net.as_raw() as usize].expect("all nets mapped");
                    out.connect_slot(out_m, new_id, slot, mapped);
                }
                for (k, v) in inst.attrs() {
                    out.module_mut(out_m).set_instance_attr(new_id, k, v);
                }
            }
            InstRef::Module(child) => {
                let child_ports = src.module(child).ports().count();
                let binding: Vec<Option<NetId>> = (0..child_ports)
                    .map(|slot| {
                        inst.conn(PinSlot::from_raw(slot as u32))
                            .map(|net| net_map[net.as_raw() as usize].expect("mapped"))
                    })
                    .collect();
                let child_prefix = format!("{prefix}{}/", inst.name());
                inline(src, out, out_m, child, &child_prefix, &binding)?;
            }
        }
    }
    Ok(net_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::{LeafDef, PinDir};

    /// Two-level hierarchy: top has an INV and two instances of `pair`,
    /// each containing two INVs in series.
    fn hierarchical() -> (Design, ModuleId) {
        let mut d = Design::new("h");
        let inv = d
            .declare_leaf(
                LeafDef::new("INV")
                    .pin("A", PinDir::Input)
                    .pin("Y", PinDir::Output),
            )
            .unwrap();

        let pair = d.add_module("pair").unwrap();
        let pi = d.add_net(pair, "in").unwrap();
        let mid = d.add_net(pair, "mid").unwrap();
        let po = d.add_net(pair, "out").unwrap();
        d.add_port(pair, "in", PinDir::Input, pi).unwrap();
        d.add_port(pair, "out", PinDir::Output, po).unwrap();
        let g1 = d.add_leaf_instance(pair, "g1", inv).unwrap();
        let g2 = d.add_leaf_instance(pair, "g2", inv).unwrap();
        d.connect(pair, g1, "A", pi).unwrap();
        d.connect(pair, g1, "Y", mid).unwrap();
        d.connect(pair, g2, "A", mid).unwrap();
        d.connect(pair, g2, "Y", po).unwrap();

        let top = d.add_module("top").unwrap();
        let a = d.add_net(top, "a").unwrap();
        let b = d.add_net(top, "b").unwrap();
        let c = d.add_net(top, "c").unwrap();
        let y = d.add_net(top, "y").unwrap();
        d.add_port(top, "a", PinDir::Input, a).unwrap();
        d.add_port(top, "y", PinDir::Output, y).unwrap();
        let p0 = d.add_module_instance(top, "p0", pair).unwrap();
        let p1 = d.add_module_instance(top, "p1", pair).unwrap();
        let u = d.add_leaf_instance(top, "u", inv).unwrap();
        d.connect(top, p0, "in", a).unwrap();
        d.connect(top, p0, "out", b).unwrap();
        d.connect(top, u, "A", b).unwrap();
        d.connect(top, u, "Y", c).unwrap();
        d.connect(top, p1, "in", c).unwrap();
        d.connect(top, p1, "out", y).unwrap();
        d.set_top(top).unwrap();
        (d, top)
    }

    #[test]
    fn flatten_counts_match_stats() {
        let (d, top) = hierarchical();
        d.validate().unwrap();
        let stats = d.stats(top);
        let flat = d.flatten(top).unwrap();
        flat.validate().unwrap();
        let ftop = flat.top().unwrap();
        assert_eq!(flat.module(ftop).instance_count(), stats.cells);
        assert_eq!(flat.module(ftop).net_count(), stats.nets);
        assert_eq!(flat.stats(ftop).depth, 0);
    }

    #[test]
    fn flatten_uses_hierarchical_names() {
        let (d, top) = hierarchical();
        let flat = d.flatten(top).unwrap();
        let m = flat.module(flat.top().unwrap());
        assert!(m.instance_by_name("p0/g1").is_some());
        assert!(m.instance_by_name("p1/g2").is_some());
        assert!(m.instance_by_name("u").is_some());
        assert!(m.net_by_name("p0/mid").is_some());
        // Port-bound child nets alias parent nets; no "p0/in" is created.
        assert!(m.net_by_name("p0/in").is_none());
    }

    #[test]
    fn flatten_preserves_connectivity() {
        let (d, top) = hierarchical();
        let flat = d.flatten(top).unwrap();
        let mid = flat.top().unwrap();
        let m = flat.module(mid);
        // Chain: a -> p0/g1 -> p0/mid -> p0/g2 -> b -> u -> c -> p1/g1 ...
        let b = m.net_by_name("b").unwrap();
        let driver = m.driver(b).unwrap();
        match driver {
            crate::module::Endpoint::Pin { inst, .. } => {
                assert_eq!(m.instance(inst).name(), "p0/g2");
            }
            other => panic!("unexpected driver {other:?}"),
        }
        assert_eq!(m.fanout(b), 1);
    }

    #[test]
    fn flatten_preserves_ports() {
        let (d, top) = hierarchical();
        let flat = d.flatten(top).unwrap();
        let m = flat.module(flat.top().unwrap());
        assert_eq!(m.ports().count(), 2);
        assert!(m.port_by_name("a").is_some());
        assert_eq!(m.port(m.port_by_name("y").unwrap()).dir(), PinDir::Output);
    }
}
