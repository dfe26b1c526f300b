//! The netlist arena under edits, against a naive model: names in
//! maps and one endpoint list per net. Seeded random sequences of the
//! editing API run on both, from an empty module and from a parsed
//! generated design, and after every step the arena must answer every
//! read exactly as the model does — endpoint order included, since
//! timing-graph construction reads it — and survive a `.hum` round
//! trip with the model's counts.

use std::collections::{BTreeMap, HashMap};

use hb_cells::sc89;
use hb_io::{parse_hum, write_hum};
use hb_netlist::{Design, Endpoint, InstId, InstRef, LeafId, ModuleId, NetId, PinDir, PinSlot};
use hb_rng::SmallRng;
use hb_workloads::{generate, GenKind, GenParams};

/// Cells the edits draw from: same-interface pairs for resizing, and
/// a different interface for a rejected one.
const CELLS: &[&str] = &["INV_X1", "INV_X2", "NAND2_X1", "NAND2_X2", "DFF", "BUF_X1"];

#[derive(Default)]
struct Model {
    insts: Vec<(String, LeafId, Vec<Option<NetId>>)>,
    inst_by_name: HashMap<String, InstId>,
    nets: Vec<(String, Vec<Endpoint>, BTreeMap<String, String>)>,
    net_by_name: HashMap<String, NetId>,
    port_dirs: Vec<PinDir>,
}

impl Model {
    /// The model of `module` as it stands.
    fn of(design: &Design, module: ModuleId) -> Model {
        let m = design.module(module);
        let mut model = Model::default();
        for (id, inst) in m.instances() {
            let InstRef::Leaf(leaf) = inst.target() else {
                panic!("flat designs only");
            };
            let conns = (0..inst.pin_count())
                .map(|s| inst.conn(PinSlot::from_raw(s as u32)))
                .collect();
            model.inst_by_name.insert(inst.name().to_owned(), id);
            model.insts.push((inst.name().to_owned(), leaf, conns));
        }
        for (id, net) in m.nets() {
            let attrs = net
                .attrs()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            model.net_by_name.insert(net.name().to_owned(), id);
            model
                .nets
                .push((net.name().to_owned(), net.endpoints().to_vec(), attrs));
        }
        model.port_dirs = m.ports().map(|(_, p)| p.dir()).collect();
        model
    }

    fn drives(&self, ep: &Endpoint) -> bool {
        match ep {
            Endpoint::Pin { dir, .. } => *dir == PinDir::Output,
            Endpoint::Port(p) => self.port_dirs[p.as_raw() as usize] == PinDir::Input,
        }
    }

    fn bind(&mut self, inst: InstId, slot: PinSlot, net: Option<NetId>, dir: PinDir) {
        let old = std::mem::replace(
            &mut self.insts[inst.as_raw() as usize].2[slot.as_raw() as usize],
            net,
        );
        if let Some(old) = old {
            self.nets[old.as_raw() as usize].1.retain(
                |ep| !matches!(ep, Endpoint::Pin { inst: i, slot: s, .. } if *i == inst && *s == slot),
            );
        }
        if let Some(net) = net {
            self.nets[net.as_raw() as usize]
                .1
                .push(Endpoint::Pin { inst, slot, dir });
        }
    }
}

/// One random edit, applied to the design and the model alike.
fn step(rng: &mut SmallRng, design: &mut Design, module: ModuleId, model: &mut Model, k: usize) {
    let pick_net = |rng: &mut SmallRng, model: &Model| {
        NetId::from_raw(rng.gen_range(0..model.nets.len()) as u32)
    };
    let pick_inst = |rng: &mut SmallRng, model: &Model| {
        InstId::from_raw(rng.gen_range(0..model.insts.len()) as u32)
    };
    match rng.gen_range(0..8) {
        0 => {
            // A fresh name, or now and then one that is taken.
            let name = if rng.gen_bool(0.2) && !model.nets.is_empty() {
                model.nets[pick_net(rng, model).as_raw() as usize].0.clone()
            } else {
                format!("mn{k}")
            };
            let got = design.add_net(module, &name);
            match model.net_by_name.get(&name) {
                Some(_) => assert!(got.is_err(), "duplicate net {name} accepted"),
                None => {
                    let id = got.unwrap();
                    assert_eq!(id.as_raw() as usize, model.nets.len());
                    model.net_by_name.insert(name.clone(), id);
                    model.nets.push((name, Vec::new(), BTreeMap::new()));
                }
            }
        }
        1 => {
            let name = if rng.gen_bool(0.2) && !model.insts.is_empty() {
                model.insts[pick_inst(rng, model).as_raw() as usize]
                    .0
                    .clone()
            } else {
                format!("mu{k}")
            };
            let leaf = design
                .leaf_by_name(CELLS[rng.gen_range(0..CELLS.len())])
                .unwrap();
            let got = design.add_leaf_instance(module, &name, leaf);
            match model.inst_by_name.get(&name) {
                Some(_) => assert!(got.is_err(), "duplicate instance {name} accepted"),
                None => {
                    let id = got.unwrap();
                    assert_eq!(id.as_raw() as usize, model.insts.len());
                    model.inst_by_name.insert(name.clone(), id);
                    let pins = design.leaf(leaf).pin_count();
                    model.insts.push((name, leaf, vec![None; pins]));
                }
            }
        }
        2 | 3 if !model.insts.is_empty() && !model.nets.is_empty() => {
            let inst = pick_inst(rng, model);
            let leaf = design.leaf(model.insts[inst.as_raw() as usize].1);
            let slot = PinSlot::from_raw(rng.gen_range(0..leaf.pin_count()) as u32);
            let (pin, dir) = (
                leaf.pin_def(slot).name().to_owned(),
                leaf.pin_def(slot).dir(),
            );
            let net = pick_net(rng, model);
            if rng.gen_bool(0.5) {
                design.connect_slot(module, inst, slot, net);
            } else {
                design.connect(module, inst, &pin, net).unwrap();
                assert!(design.connect(module, inst, "NO_SUCH_PIN", net).is_err());
            }
            model.bind(inst, slot, Some(net), dir);
        }
        4 if !model.insts.is_empty() => {
            let inst = pick_inst(rng, model);
            let pins = model.insts[inst.as_raw() as usize].2.len();
            let slot = PinSlot::from_raw(rng.gen_range(0..pins) as u32);
            let expected = model.insts[inst.as_raw() as usize].2[slot.as_raw() as usize];
            assert_eq!(design.disconnect(module, inst, slot), expected);
            model.bind(inst, slot, None, PinDir::Input);
        }
        5 if !model.insts.is_empty() => {
            let inst = pick_inst(rng, model);
            let to = design
                .leaf_by_name(CELLS[rng.gen_range(0..CELLS.len())])
                .unwrap();
            let from = design.leaf(model.insts[inst.as_raw() as usize].1);
            let same = {
                let to = design.leaf(to);
                from.pin_count() == to.pin_count()
                    && from
                        .pins()
                        .zip(to.pins())
                        .all(|((_, a), (_, b))| a.name() == b.name() && a.dir() == b.dir())
            };
            let got = design.replace_instance_ref(module, inst, to);
            assert_eq!(got.is_ok(), same, "retarget to {}", design.leaf(to).name());
            if same {
                model.insts[inst.as_raw() as usize].1 = to;
            }
        }
        6 if !model.nets.is_empty() => {
            let net = pick_net(rng, model);
            let key = ["hb.load_pct", "hb.slow"][rng.gen_range(0..2)];
            let value = rng.gen_range(1..400).to_string();
            let previous = design
                .module_mut(module)
                .set_net_attr(net, key, value.clone());
            let expected = model.nets[net.as_raw() as usize]
                .2
                .insert(key.to_owned(), value);
            assert_eq!(previous, expected);
        }
        _ => {}
    }
}

/// Every read the arena answers, against the model.
fn check(design: &Design, module: ModuleId, model: &Model, what: &str) {
    let m = design.module(module);
    assert_eq!(m.instance_count(), model.insts.len(), "{what}: instances");
    assert_eq!(m.net_count(), model.nets.len(), "{what}: nets");
    for (i, (name, leaf, conns)) in model.insts.iter().enumerate() {
        let id = InstId::from_raw(i as u32);
        let inst = m.instance(id);
        assert_eq!(inst.name(), name, "{what}");
        assert_eq!(inst.target(), InstRef::Leaf(*leaf), "{what}: {name}");
        assert_eq!(inst.pin_count(), conns.len(), "{what}: {name}");
        for (s, conn) in conns.iter().enumerate() {
            assert_eq!(
                inst.conn(PinSlot::from_raw(s as u32)),
                *conn,
                "{what}: {name} pin {s}"
            );
        }
        assert_eq!(m.instance_by_name(name), Some(id), "{what}: lookup {name}");
    }
    for (n, (name, endpoints, attrs)) in model.nets.iter().enumerate() {
        let id = NetId::from_raw(n as u32);
        let net = m.net(id);
        assert_eq!(net.name(), name, "{what}");
        assert_eq!(
            net.endpoints(),
            &endpoints[..],
            "{what}: endpoints of {name}"
        );
        let driver = endpoints.iter().copied().find(|ep| model.drives(ep));
        assert_eq!(m.driver(id), driver, "{what}: driver of {name}");
        let loads: Vec<Endpoint> = endpoints
            .iter()
            .copied()
            .filter(|ep| !model.drives(ep))
            .collect();
        assert_eq!(
            m.loads(id).collect::<Vec<_>>(),
            loads,
            "{what}: loads of {name}"
        );
        for (k, v) in attrs {
            assert_eq!(net.attr(k), Some(v.as_str()), "{what}: {name}.{k}");
        }
        assert_eq!(net.attrs().count(), attrs.len(), "{what}: attrs of {name}");
        assert_eq!(m.net_by_name(name), Some(id), "{what}: lookup {name}");
    }
    assert_eq!(m.instance_by_name("no such instance"), None);
    assert_eq!(m.net_by_name("no such net"), None);

    // The text keeps every instance, and every net that has an
    // endpoint or an attribute to be written with.
    let text = write_hum(design, &hb_clock::ClockSet::new());
    let again = parse_hum(&text, &sc89()).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    let stats = again.design.stats(again.design.top().unwrap());
    assert_eq!(
        stats.cells,
        model.insts.len(),
        "{what}: cells after a round trip"
    );
    let written = model
        .nets
        .iter()
        .filter(|(_, eps, attrs)| !eps.is_empty() || !attrs.is_empty())
        .count();
    assert_eq!(stats.nets, written, "{what}: nets after a round trip");
}

fn run(design: &mut Design, module: ModuleId, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Model::of(design, module);
    check(design, module, &model, "start");
    for k in 0..steps {
        step(&mut rng, design, module, &mut model, k);
        check(design, module, &model, &format!("seed {seed:#x} step {k}"));
    }
}

#[test]
fn edits_on_an_empty_module_match_the_model() {
    let lib = sc89();
    for seed in 0..4u64 {
        let mut design = Design::new("model");
        lib.declare_into(&mut design).unwrap();
        let top = design.add_module("top").unwrap();
        design.set_top(top).unwrap();
        for name in ["a", "b"] {
            let net = design.add_net(top, name).unwrap();
            design.add_port(top, name, PinDir::Input, net).unwrap();
        }
        let y = design.add_net(top, "y").unwrap();
        design.add_port(top, "y", PinDir::Output, y).unwrap();
        run(&mut design, top, 0xA7E4A + seed, 150);
    }
}

#[test]
fn edits_on_a_parsed_generated_design_match_the_model() {
    let lib = sc89();
    for (kind, seed) in [(GenKind::Pipeline, 3u64), (GenKind::Sram, 4)] {
        let text = generate(&lib, &GenParams::new(kind, 1000, seed)).to_hum();
        let mut file = parse_hum(&text, &lib).unwrap();
        let top = file.design.top().unwrap();
        run(&mut file.design, top, 0x5EED + seed, 40);
    }
}
