//! The native `.hum` structural format.
//!
//! ```text
//! # comment
//! design <name>
//! module <name>
//!   port in <net>...
//!   port out <net>...
//!   inst <inst-name> <cell-or-module> <pin>=<net>...
//!   netattr <net> <key> <value>
//! end
//! top <name>
//! clock <name> period <time> rise <time> fall <time>
//! clockport <port> <clock>
//! arrive <port> <clock> <rise|fall>[@<occurrence>] <offset>
//! require <port> <clock> <rise|fall>[@<occurrence>] <offset>
//! ```
//!
//! Nets are created implicitly on first reference. `netattr` carries a
//! net attribute (such as the `hb.load_pct` a `scale-net` ECO sets);
//! key and value are single tokens. Child modules must be
//! defined before they are instantiated (the writer emits them in
//! dependency order). The optional `design` line comes at most once,
//! before the first module, and an `inst` line names each pin at most
//! once. A net's endpoints keep file order. Times accept the
//! `hb-units` syntax (`40ns`, `2.5ns`, `250ps`).

use std::fmt::Write as _;

use hb_cells::Library;
use hb_clock::ClockSet;
use hb_netlist::{Design, InstRef, ModuleId, PinDir, PortId};
use hb_units::{Time, Transition};

use crate::error::ParseError;

/// A reference to a clock edge in a timing directive:
/// `(clock name, transition, occurrence)`.
pub type EdgeRef = (String, Transition, u32);

/// One boundary-timing directive from a `.hum` file.
///
/// The I/O layer stays below the analyzer, so directives are plain
/// data; drivers convert them into a [`hummingbird
/// Spec`](https://docs.rs) equivalent.
#[derive(Clone, Debug, PartialEq)]
pub enum TimingDirective {
    /// `clockport <port> <clock>` — the module port carrying a clock.
    ClockPort {
        /// The port name.
        port: String,
        /// The clock name.
        clock: String,
    },
    /// `arrive <port> <clock> <rise|fall>[@occ] <offset>`.
    Arrive {
        /// The input port.
        port: String,
        /// The reference edge.
        edge: EdgeRef,
        /// Offset after the edge.
        offset: Time,
    },
    /// `require <port> <clock> <rise|fall>[@occ] <offset>`.
    Require {
        /// The output port.
        port: String,
        /// The reference edge.
        edge: EdgeRef,
        /// Offset after the edge.
        offset: Time,
    },
}

/// A parsed `.hum` file: the design plus its clock waveforms and
/// boundary-timing directives.
#[derive(Debug)]
pub struct HumFile {
    /// The design, with the library interfaces declared.
    pub design: Design,
    /// The clock set (empty if the file declares no clocks).
    pub clocks: ClockSet,
    /// Boundary timing directives, in file order.
    pub timing: Vec<TimingDirective>,
}

/// Parses a `.hum` document against a cell library.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line for any syntax
/// error, unknown cell/module/pin, duplicate name, or malformed clock.
pub fn parse_hum(text: &str, library: &Library) -> Result<HumFile, ParseError> {
    let mut design = Design::new("unnamed");
    library
        .declare_into(&mut design)
        .map_err(|e| ParseError::new(0, e.to_string()))?;
    let mut clocks = ClockSet::new();
    let mut current: Option<ModuleId> = None;
    let mut timing: Vec<TimingDirective> = Vec::new();
    let mut named = false;

    // Pre-scan each module's size so its arena is reserved once
    // instead of grown through log2(n) copies. Every `inst` line
    // drives about one fresh net (its output) and every port token
    // binds one more.
    let mut sizes: Vec<(usize, usize)> = Vec::new();
    for raw in text.lines() {
        let mut tokens = code(raw).split_whitespace();
        match (tokens.next(), sizes.last_mut()) {
            (Some("module"), _) => sizes.push((0, 0)),
            (Some("inst"), Some((insts, nets))) => {
                *insts += 1;
                *nets += 1;
            }
            // The tokens after the direction.
            (Some("port"), Some((_, nets))) => *nets += tokens.count().saturating_sub(1),
            _ => {}
        }
    }
    let mut module_index = 0usize;

    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let mut tokens = code(raw).split_whitespace();
        let Some(keyword) = tokens.next() else {
            continue;
        };
        let err = |msg: String| ParseError::new(lineno, msg);
        match keyword {
            "design" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err("design needs a name".into()))?;
                if named {
                    return Err(err("a second `design` line".into()));
                }
                if module_index > 0 {
                    return Err(err("`design` after a module".into()));
                }
                // `Design` has no rename; rebuild with the right name.
                // Nothing is lost: no module exists yet.
                let mut renamed = Design::new(name);
                library
                    .declare_into(&mut renamed)
                    .map_err(|e| err(e.to_string()))?;
                design = renamed;
                named = true;
            }
            "module" => {
                if current.is_some() {
                    return Err(err("nested module (missing `end`?)".into()));
                }
                let name = tokens
                    .next()
                    .ok_or_else(|| err("module needs a name".into()))?;
                let id = design.add_module(name).map_err(|e| err(e.to_string()))?;
                let (insts, nets) = sizes.get(module_index).copied().unwrap_or_default();
                design.reserve(id, insts, nets);
                module_index += 1;
                current = Some(id);
            }
            "end" => {
                if current.take().is_none() {
                    return Err(err("`end` outside a module".into()));
                }
            }
            "port" => {
                let module = current.ok_or_else(|| err("`port` outside a module".into()))?;
                let dir = match tokens.next() {
                    Some("in") => PinDir::Input,
                    Some("out") => PinDir::Output,
                    other => {
                        return Err(err(format!(
                            "port direction must be `in` or `out`, got {other:?}"
                        )))
                    }
                };
                for token in tokens {
                    // `name` binds a same-named net; `name=net` binds an
                    // explicitly named one.
                    let (name, net_name) = match token.split_once('=') {
                        Some((p, n)) => (p, n),
                        None => (token, token),
                    };
                    let net = design.net_or_add(module, net_name);
                    design
                        .add_port(module, name, dir, net)
                        .map_err(|e| err(e.to_string()))?;
                }
            }
            "inst" => {
                let module = current.ok_or_else(|| err("`inst` outside a module".into()))?;
                let inst_name = tokens
                    .next()
                    .ok_or_else(|| err("inst needs a name".into()))?;
                let target = tokens
                    .next()
                    .ok_or_else(|| err("inst needs a cell or module name".into()))?;
                let inst = if let Some(leaf) = design.leaf_by_name(target) {
                    design.add_leaf_instance(module, inst_name, leaf)
                } else if let Some(child) = design.module_by_name(target) {
                    design.add_module_instance(module, inst_name, child)
                } else {
                    return Err(err(format!("unknown cell or module {target:?}")));
                }
                .map_err(|e| err(e.to_string()))?;
                for conn in tokens {
                    let (pin, net_name) = conn
                        .split_once('=')
                        .ok_or_else(|| err(format!("expected pin=net, got {conn:?}")))?;
                    let slot = design
                        .pin_slot(module, inst, pin)
                        .map_err(|e| err(e.to_string()))?;
                    // The instance is new, so a bound pin was named on this line.
                    if design.module(module).instance(inst).conn(slot).is_some() {
                        return Err(err(format!("pin {pin:?} is connected twice")));
                    }
                    let net = design.net_or_add(module, net_name);
                    design.connect_slot(module, inst, slot, net);
                }
            }
            "netattr" => {
                let module = current.ok_or_else(|| err("`netattr` outside a module".into()))?;
                let (Some(net_name), Some(key), Some(value), None) =
                    (tokens.next(), tokens.next(), tokens.next(), tokens.next())
                else {
                    return Err(err("netattr takes NET KEY VALUE".into()));
                };
                let net = design.net_or_add(module, net_name);
                design.module_mut(module).set_net_attr(net, key, value);
            }
            "top" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err("top needs a module name".into()))?;
                let id = design
                    .module_by_name(name)
                    .ok_or_else(|| err(format!("unknown module {name:?}")))?;
                design.set_top(id).map_err(|e| err(e.to_string()))?;
            }
            "clock" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err("clock needs a name".into()))?;
                let mut period = None;
                let mut rise = None;
                let mut fall = None;
                while let Some(key) = tokens.next() {
                    let value = tokens
                        .next()
                        .ok_or_else(|| err(format!("clock {key} needs a value")))?;
                    let t: Time = value
                        .parse()
                        .map_err(|e| err(format!("bad time {value:?}: {e}")))?;
                    match key {
                        "period" => period = Some(t),
                        "rise" => rise = Some(t),
                        "fall" => fall = Some(t),
                        other => return Err(err(format!("unknown clock field {other:?}"))),
                    }
                }
                let (Some(period), Some(rise), Some(fall)) = (period, rise, fall) else {
                    return Err(err("clock needs period, rise and fall".into()));
                };
                clocks
                    .add_clock(name, period, rise, fall)
                    .map_err(|e| err(e.to_string()))?;
            }
            "clockport" => {
                let port = tokens
                    .next()
                    .ok_or_else(|| err("clockport needs a port".into()))?;
                let clock = tokens
                    .next()
                    .ok_or_else(|| err("clockport needs a clock".into()))?;
                timing.push(TimingDirective::ClockPort {
                    port: port.to_owned(),
                    clock: clock.to_owned(),
                });
            }
            "arrive" | "require" => {
                let port = tokens
                    .next()
                    .ok_or_else(|| err(format!("{keyword} needs a port")))?;
                let clock = tokens
                    .next()
                    .ok_or_else(|| err(format!("{keyword} needs a clock")))?;
                let edge_tok = tokens
                    .next()
                    .ok_or_else(|| err(format!("{keyword} needs rise or fall")))?;
                let (dir, occ) = match edge_tok.split_once('@') {
                    Some((d, o)) => (
                        d,
                        o.parse::<u32>()
                            .map_err(|e| err(format!("bad occurrence {o:?}: {e}")))?,
                    ),
                    None => (edge_tok, 0),
                };
                let transition = match dir {
                    "rise" => Transition::Rise,
                    "fall" => Transition::Fall,
                    other => return Err(err(format!("expected rise or fall, got {other:?}"))),
                };
                let offset_tok = tokens
                    .next()
                    .ok_or_else(|| err(format!("{keyword} needs an offset")))?;
                let offset: Time = offset_tok
                    .parse()
                    .map_err(|e| err(format!("bad time {offset_tok:?}: {e}")))?;
                let edge = (clock.to_owned(), transition, occ);
                timing.push(if keyword == "arrive" {
                    TimingDirective::Arrive {
                        port: port.to_owned(),
                        edge,
                        offset,
                    }
                } else {
                    TimingDirective::Require {
                        port: port.to_owned(),
                        edge,
                        offset,
                    }
                });
            }
            other => return Err(err(format!("unknown keyword {other:?}"))),
        }
    }
    if current.is_some() {
        return Err(ParseError::new(0, "unterminated module (missing `end`)"));
    }
    design.shrink_to_fit();
    Ok(HumFile {
        design,
        clocks,
        timing,
    })
}

/// Serializes a design (and clocks) to `.hum` text. Child modules are
/// emitted before their parents so the output always re-parses, and a
/// port bound to a differently named net is written as `name=net`.
pub fn write_hum(design: &Design, clocks: &ClockSet) -> String {
    write_hum_with_timing(design, clocks, &[])
}

/// [`write_hum`] plus boundary-timing directives.
pub fn write_hum_with_timing(
    design: &Design,
    clocks: &ClockSet,
    timing: &[TimingDirective],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "design {}", design.name());
    let _ = writeln!(out);

    // Emit in dependency order.
    let mut emitted = vec![false; design.modules().count()];
    let mut order = Vec::new();
    fn visit(design: &Design, m: ModuleId, emitted: &mut [bool], order: &mut Vec<ModuleId>) {
        if emitted[m.as_raw() as usize] {
            return;
        }
        emitted[m.as_raw() as usize] = true;
        for (_, inst) in design.module(m).instances() {
            if let InstRef::Module(child) = inst.target() {
                visit(design, child, emitted, order);
            }
        }
        order.push(m);
    }
    for (id, _) in design.modules() {
        visit(design, id, &mut emitted, &mut order);
    }

    for id in order {
        write_module(&mut out, design, id);
    }

    if let Some(top) = design.top() {
        let _ = writeln!(out, "top {}", design.module(top).name());
    }
    for (_, clock) in clocks.clocks() {
        let _ = writeln!(
            out,
            "clock {} period {} rise {} fall {}",
            clock.name(),
            clock.period(),
            clock.rise(),
            clock.fall()
        );
    }
    for directive in timing {
        match directive {
            TimingDirective::ClockPort { port, clock } => {
                let _ = writeln!(out, "clockport {port} {clock}");
            }
            TimingDirective::Arrive { port, edge, offset }
            | TimingDirective::Require { port, edge, offset } => {
                let keyword = if matches!(directive, TimingDirective::Arrive { .. }) {
                    "arrive"
                } else {
                    "require"
                };
                let dir = match edge.1 {
                    Transition::Rise => "rise",
                    Transition::Fall => "fall",
                };
                let occ = if edge.2 == 0 {
                    String::new()
                } else {
                    format!("@{}", edge.2)
                };
                let _ = writeln!(out, "{keyword} {port} {} {dir}{occ} {offset}", edge.0);
            }
        }
    }
    out
}

/// A line without its comment.
fn code(raw: &str) -> &str {
    match raw.find('#') {
        Some(pos) => &raw[..pos],
        None => raw,
    }
}

/// Writes one `module … end` block, each line straight into `out`.
fn write_module(out: &mut String, design: &Design, id: ModuleId) {
    let module = design.module(id);
    out.push_str("module ");
    out.push_str(module.name());
    out.push('\n');
    for (dir, keyword) in [(PinDir::Input, "  port in"), (PinDir::Output, "  port out")] {
        let mut ports = module.ports().filter(|(_, p)| p.dir() == dir).peekable();
        if ports.peek().is_none() {
            continue;
        }
        out.push_str(keyword);
        for (_, port) in ports {
            // A port bound to a differently named net is `name=net`.
            let net = module.net(port.net()).name();
            out.push(' ');
            out.push_str(port.name());
            if net != port.name() {
                out.push('=');
                out.push_str(net);
            }
        }
        out.push('\n');
    }
    for (_, inst) in module.instances() {
        out.push_str("  inst ");
        out.push_str(inst.name());
        out.push(' ');
        let target = inst.target();
        out.push_str(match target {
            InstRef::Leaf(l) => design.leaf(l).name(),
            InstRef::Module(m) => design.module(m).name(),
        });
        for (slot, net) in inst.conns() {
            out.push(' ');
            out.push_str(match target {
                InstRef::Leaf(l) => design.leaf(l).pin_def(slot).name(),
                InstRef::Module(m) => design
                    .module(m)
                    .port(PortId::from_raw(slot.as_raw()))
                    .name(),
            });
            out.push('=');
            out.push_str(module.net(net).name());
        }
        out.push('\n');
    }
    for (_, net) in module.nets() {
        for (key, value) in net.attrs() {
            let _ = writeln!(out, "  netattr {} {key} {value}", net.name());
        }
    }
    out.push_str("end\n\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;

    const SAMPLE: &str = "\
# a small two-gate design
design demo

module top
  port in a ck
  port out y
  inst u1 INV_X1 A=a Y=w
  inst u2 INV_X2 A=w Y=v
  inst ff DFF D=v CK=ck Q=y
end

top top
clock ck period 20ns rise 0ns fall 10ns
";

    #[test]
    fn parse_sample() {
        let lib = sc89();
        let file = parse_hum(SAMPLE, &lib).unwrap();
        assert_eq!(file.design.name(), "demo");
        let top = file.design.top().unwrap();
        let m = file.design.module(top);
        assert_eq!(m.instance_count(), 3);
        assert_eq!(m.net_count(), 5);
        assert!(m.net_by_name("w").is_some(), "implicit net created");
        file.design.validate().unwrap();
        assert_eq!(file.clocks.len(), 1);
        let ck = file.clocks.clock_by_name("ck").unwrap();
        assert_eq!(file.clocks.clock(ck).period(), Time::from_ns(20));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let lib = sc89();
        let file = parse_hum(SAMPLE, &lib).unwrap();
        let text = write_hum(&file.design, &file.clocks);
        let again = parse_hum(&text, &lib).unwrap();
        let a = file.design.stats(file.design.top().unwrap());
        let b = again.design.stats(again.design.top().unwrap());
        assert_eq!(a, b);
        assert_eq!(again.clocks.len(), 1);
        again.design.validate().unwrap();
    }

    #[test]
    fn net_attributes_round_trip_after_the_instances() {
        let lib = sc89();
        let mut file = parse_hum(SAMPLE, &lib).unwrap();
        let top = file.design.top().unwrap();
        let plain = write_hum(&file.design, &file.clocks);
        assert!(!plain.contains("netattr"), "no attributes, no lines");
        let module = file.design.module_mut(top);
        let (v, w) = (
            module.net_by_name("v").unwrap(),
            module.net_by_name("w").unwrap(),
        );
        module.set_net_attr(w, "hb.load_pct", "300");
        module.set_net_attr(v, "hb.slow", "1");
        module.set_net_attr(v, "hb.load_pct", "50");
        let text = write_hum(&file.design, &file.clocks);
        let attrs: Vec<&str> = text.lines().filter(|l| l.contains("netattr")).collect();
        // Nets in module order (w before v), keys in order per net.
        assert_eq!(
            attrs,
            [
                "  netattr w hb.load_pct 300",
                "  netattr v hb.load_pct 50",
                "  netattr v hb.slow 1"
            ]
        );
        let again = parse_hum(&text, &lib).unwrap();
        let m = again.design.module(again.design.top().unwrap());
        let net = |n: &str| m.net(m.net_by_name(n).unwrap());
        assert_eq!(net("w").attr("hb.load_pct"), Some("300"));
        assert_eq!(net("v").attr("hb.slow"), Some("1"));
        assert_eq!(write_hum(&again.design, &again.clocks), text, "byte-stable");

        let bad = SAMPLE.replace("end\n", "  netattr w hb.load_pct\nend\n");
        assert!(parse_hum(&bad, &lib).is_err(), "netattr needs a value");
    }

    #[test]
    fn hierarchy_roundtrip() {
        let lib = sc89();
        let text = "\
design h
module pair
  port in a
  port out y
  inst g1 INV_X1 A=a Y=m
  inst g2 INV_X1 A=m Y=y
end
module top
  port in a
  port out y
  inst p0 pair a=a y=w
  inst p1 pair a=w y=y
end
top top
";
        let file = parse_hum(text, &lib).unwrap();
        file.design.validate().unwrap();
        assert_eq!(file.design.stats(file.design.top().unwrap()).cells, 4);
        let emitted = write_hum(&file.design, &file.clocks);
        let again = parse_hum(&emitted, &lib).unwrap();
        assert_eq!(again.design.stats(again.design.top().unwrap()).cells, 4);
    }

    #[test]
    fn error_reporting() {
        let lib = sc89();
        let bad = "module top\n  inst u1 NO_SUCH_CELL A=a\nend\n";
        let err = parse_hum(bad, &lib).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("NO_SUCH_CELL"));

        let bad = "inst u1 INV_X1 A=a\n";
        assert!(parse_hum(bad, &lib)
            .unwrap_err()
            .message()
            .contains("outside"));

        let bad = "module top\n";
        assert_eq!(parse_hum(bad, &lib).unwrap_err().line(), 0);

        let bad = "module top\nend\nclock c period 10ns rise 0ns\n";
        assert!(parse_hum(bad, &lib)
            .unwrap_err()
            .message()
            .contains("period, rise and fall"));

        let bad = "module top\n  port sideways a\nend\n";
        assert!(parse_hum(bad, &lib)
            .unwrap_err()
            .message()
            .contains("direction"));
    }

    #[test]
    fn endpoints_keep_file_order_across_port_lines() {
        use hb_netlist::{Endpoint, PinSlot};
        let lib = sc89();
        let text = "\
module top
  inst u1 INV_X1 A=a Y=y
  port in a
  inst u2 NAND2_X1 B=a A=a Y=z
  port out y z
end
top top
";
        let file = parse_hum(text, &lib).unwrap();
        let m = file.design.module(file.design.top().unwrap());
        let inst = |n: &str| m.instance_by_name(n).unwrap();
        let pin = |n: &str, slot: u32, dir| Endpoint::Pin {
            inst: inst(n),
            slot: PinSlot::from_raw(slot),
            dir,
        };
        let a = m.net(m.net_by_name("a").unwrap());
        assert_eq!(
            a.endpoints(),
            [
                pin("u1", 0, PinDir::Input),
                Endpoint::Port(m.port_by_name("a").unwrap()),
                pin("u2", 1, PinDir::Input),
                pin("u2", 0, PinDir::Input),
            ],
            "file order: u1.A, the port, then u2's pins in token order"
        );
        let y = m.net(m.net_by_name("y").unwrap());
        assert_eq!(
            y.endpoints(),
            [
                pin("u1", 1, PinDir::Output),
                Endpoint::Port(m.port_by_name("y").unwrap())
            ]
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let lib = sc89();
        let text = "\n\n# nothing\nmodule top # trailing\nend\ntop top\n";
        let file = parse_hum(text, &lib).unwrap();
        assert!(file.design.top().is_some());
    }
}
