//! By-name reads against the linear rule they replaced.
//!
//! `slack node=N` and `slack-at period=P node=N` resolve a name to a
//! net first and otherwise to every terminal row of that name, through
//! a per-report name index. The oracle here is the index-free rule,
//! written out: look the net up by name, else filter
//! `TimingReport::terminal_slacks` (or `ParametricSlack::terminals`)
//! by name in report order. Every reply must be byte-identical to the
//! oracle's.

use std::fmt::Write as _;

use hb_cells::{sc89, Library};
use hb_clock::ClockSet;
use hb_io::Frame;
use hb_netlist::{Design, ModuleId, PinDir};
use hb_rng::SmallRng;
use hb_server::{directives_from_spec, Session};
use hb_units::{Time, Transition};
use hb_workloads::{generate, GenKind, GenParams};
use hummingbird::{EdgeSpec, ParametricSlack, Spec, TerminalKind, TimingReport};

/// The design text as a session loads it, parsed back for the oracle.
struct Loaded {
    design: Design,
    top: ModuleId,
}

fn parse(lib: &Library, text: &str) -> Loaded {
    let file = hb_io::parse_hum(text, lib).unwrap();
    let top = file.design.top().unwrap();
    Loaded {
        design: file.design,
        top,
    }
}

/// A session holding `text`, analyzed and with its what-if table built.
fn session(lib: &Library, text: &str) -> Session {
    let mut s = Session::new(lib.clone());
    for req in [
        Frame::new("load").with_payload(text),
        Frame::new("analyze"),
        Frame::new("min-period"),
    ] {
        let reply = s.handle(&req);
        assert_eq!(reply.verb, "ok", "{}: {:?}", req.verb, reply.payload);
    }
    s
}

fn kind_str(kind: TerminalKind) -> &'static str {
    match kind {
        TerminalKind::SyncInput => "sync-input",
        TerminalKind::SyncOutput => "sync-output",
        TerminalKind::PrimaryInput => "primary-input",
        TerminalKind::PrimaryOutput => "primary-output",
    }
}

fn unknown(name: &str) -> Frame {
    Frame::new("error")
        .arg("code", "unknown-node")
        .with_payload(format!("no net or terminal named `{name}`"))
}

/// `(kind, pulse, slack)` rows → the terminal reply's worst slack and
/// payload lines.
fn lines(rows: &[(TerminalKind, u32, Time)]) -> (Time, String) {
    let mut body = String::new();
    for (kind, pulse, slack) in rows {
        writeln!(body, "{} pulse {pulse} slack {slack}", kind_str(*kind)).unwrap();
    }
    (rows.iter().map(|r| r.2).min().unwrap(), body)
}

/// The linear rule for one `slack node=NAME`.
fn oracle_slack(l: &Loaded, report: &TimingReport, name: &str) -> Frame {
    if let Some(net) = l.design.module(l.top).net_by_name(name) {
        return Frame::new("ok")
            .arg("node", name)
            .arg("kind", "net")
            .arg("slack", report.net_slack(net));
    }
    let rows: Vec<_> = report
        .terminal_slacks()
        .iter()
        .filter(|t| t.name == name)
        .map(|t| (t.kind, t.pulse, t.slack))
        .collect();
    if rows.is_empty() {
        return unknown(name);
    }
    let (worst, body) = lines(&rows);
    Frame::new("ok")
        .arg("node", name)
        .arg("kind", "terminal")
        .arg("slack", worst)
        .with_payload(body)
}

/// The linear rule for a batched `slack node=A node=B ...`.
fn oracle_batch(l: &Loaded, report: &TimingReport, names: &[&str]) -> Frame {
    let mut unique: Vec<&str> = Vec::new();
    for name in names {
        if !unique.contains(name) {
            unique.push(name);
        }
    }
    let mut body = String::new();
    let mut worst = Time::INF;
    for name in &unique {
        let (kind, slack) = if let Some(net) = l.design.module(l.top).net_by_name(name) {
            ("net", report.net_slack(net))
        } else {
            match report
                .terminal_slacks()
                .iter()
                .filter(|t| t.name == *name)
                .map(|t| t.slack)
                .min()
            {
                Some(s) => ("terminal", s),
                None => return unknown(name),
            }
        };
        worst = worst.min(slack);
        writeln!(body, "{name} {kind} {slack}").unwrap();
    }
    Frame::new("ok")
        .arg("count", unique.len())
        .arg("worst", worst)
        .with_payload(body)
}

/// The linear rule for `slack-at period=P node=NAME`.
fn oracle_slack_at(l: &Loaded, param: &ParametricSlack, period: Time, name: &str) -> Frame {
    if let Some(net) = l.design.module(l.top).net_by_name(name) {
        return Frame::new("ok")
            .arg("node", name)
            .arg("kind", "net")
            .arg("period", period)
            .arg("slack", param.net_slack_at(period, net).unwrap());
    }
    let rows: Vec<_> = param
        .terminals()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.name == name)
        .map(|(i, t)| (t.kind, t.pulse, param.terminal_slack_at(period, i).unwrap()))
        .collect();
    if rows.is_empty() {
        return unknown(name);
    }
    let (worst, body) = lines(&rows);
    Frame::new("ok")
        .arg("node", name)
        .arg("kind", "terminal")
        .arg("period", period)
        .arg("slack", worst)
        .with_payload(body)
}

/// Every name a read can resolve — nets, terminals and ports — plus
/// one that resolves to nothing, sorted and deduplicated.
fn names(l: &Loaded, report: &TimingReport) -> Vec<String> {
    let module = l.design.module(l.top);
    let mut names: Vec<String> = module
        .nets()
        .map(|(_, n)| n.name().to_owned())
        .chain(module.ports().map(|(_, p)| p.name().to_owned()))
        .chain(report.terminal_slacks().iter().map(|t| t.name.clone()))
        .chain(["no-such-node".to_owned()])
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn assert_same(reply: &Frame, want: &Frame, what: &str) {
    assert_eq!(reply.encode(), want.encode(), "{what}");
}

/// Checks every single read of every name against the oracle, and
/// `slack-at` at the nominal period and at `min-period` (at the
/// domain's floor when no period in it is feasible).
fn check_every_name(lib: &Library, text: &str) -> (Loaded, Session, Vec<String>) {
    let s = session(lib, text);
    let l = parse(lib, text);
    let report = s.last_report().unwrap();
    let param = s.last_parametric().unwrap();
    let names = names(&l, report);
    let min_period = s.handle_readonly(&Frame::new("min-period")).unwrap();
    let floor = min_period
        .get("period")
        .or_else(|| min_period.get("lo"))
        .unwrap()
        .parse::<Time>()
        .unwrap();
    for name in &names {
        let reply = s
            .handle_readonly(&Frame::new("slack").arg("node", name))
            .unwrap();
        assert_same(&reply, &oracle_slack(&l, report, name), name);
        for period in [param.nominal_period(), floor] {
            let req = Frame::new("slack-at")
                .arg("period", period)
                .arg("node", name);
            let reply = s.handle_readonly(&req).unwrap();
            let want = oracle_slack_at(&l, param, period, name);
            assert_same(&reply, &want, &format!("{name} at {period}"));
        }
    }
    (l, s, names)
}

#[test]
fn every_name_of_a_generated_pipeline_reads_as_the_linear_rule() {
    let lib = sc89();
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 2000, 11));
    let text = hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec));
    let (l, s, names) = check_every_name(&lib, &text);
    let report = s.last_report().unwrap();

    // The design exercises what the index must get right: names with
    // several rows, from replicas of elements clocked faster than the
    // overall period.
    let rows_of = |name: &str| {
        report
            .terminal_slacks()
            .iter()
            .filter(|t| t.name == name)
            .count()
    };
    assert!(
        report.terminal_slacks().iter().any(|t| t.pulse > 0),
        "no multi-pulse replica"
    );
    assert!(
        names.iter().any(|n| rows_of(n) > 2),
        "no name with > 2 rows"
    );

    // Batched reads: seeded draws with repeats; every fourth batch also
    // names one unknown node.
    let mut rng = SmallRng::seed_from_u64(22);
    for round in 0..40 {
        let size = 2 + rng.gen_range(0..96);
        let mut batch: Vec<&str> = (0..size)
            .map(|_| names[rng.gen_range(0..names.len())].as_str())
            .filter(|n| *n != "no-such-node")
            .collect();
        let repeat = batch[rng.gen_range(0..batch.len())];
        batch.push(repeat);
        if round % 4 == 3 {
            let at = rng.gen_range(0..batch.len());
            batch.insert(at, "no-such-node");
        }
        let mut req = Frame::new("slack");
        for name in &batch {
            req = req.arg("node", name);
        }
        let reply = s.handle_readonly(&req).unwrap();
        assert_same(
            &reply,
            &oracle_batch(&l, report, &batch),
            &format!("batch {round}"),
        );
    }
}

/// An input port whose name differs from its net's and equals a latch
/// instance's name, so one name carries both the latch's replica rows
/// and a boundary row; and an output port on a net named like the
/// capturing flop, so the net wins over that flop's terminals.
fn shared_name_design(lib: &Library) -> String {
    let mut d = Design::new("shared_names");
    lib.declare_into(&mut d).unwrap();
    let m = d.add_module("top").unwrap();
    let din = d.add_net(m, "din").unwrap();
    let ck = d.add_net(m, "ck").unwrap();
    let ck2 = d.add_net(m, "ck2").unwrap();
    let n0 = d.add_net(m, "n0").unwrap();
    let n1 = d.add_net(m, "n1").unwrap();
    let n2 = d.add_net(m, "n2").unwrap();
    let q = d.add_net(m, "cap").unwrap();
    d.add_port(m, "lat", PinDir::Input, din).unwrap();
    d.add_port(m, "ck", PinDir::Input, ck).unwrap();
    d.add_port(m, "ck2", PinDir::Input, ck2).unwrap();
    d.add_port(m, "q", PinDir::Output, q).unwrap();
    let cell = |name: &str| d.leaf_by_name(name).unwrap();
    let (inv, latch, dff) = (cell("INV_X1"), cell("DLATCH"), cell("DFF"));
    let g0 = d.add_leaf_instance(m, "g0", inv).unwrap();
    let lat = d.add_leaf_instance(m, "lat", latch).unwrap();
    let g1 = d.add_leaf_instance(m, "g1", inv).unwrap();
    let cap = d.add_leaf_instance(m, "cap", dff).unwrap();
    for (inst, pin, net) in [
        (g0, "A", din),
        (g0, "Y", n0),
        (lat, "D", n0),
        (lat, "G", ck),
        (lat, "Q", n1),
        (g1, "A", n1),
        (g1, "Y", n2),
        (cap, "D", n2),
        (cap, "CK", ck2),
        (cap, "Q", q),
    ] {
        d.connect(m, inst, pin, net).unwrap();
    }
    d.set_top(m).unwrap();
    // `ck` pulses twice per overall period, so `lat` has two replicas.
    let mut clocks = ClockSet::new();
    clocks
        .add_clock("ck", Time::from_ns(10), Time::ZERO, Time::from_ns(5))
        .unwrap();
    clocks
        .add_clock("ck2", Time::from_ns(20), Time::ZERO, Time::from_ns(10))
        .unwrap();
    let rise = |clock: &str| EdgeSpec::new(clock, Transition::Rise);
    let spec = Spec::new()
        .clock_port("ck", "ck")
        .clock_port("ck2", "ck2")
        .input_arrival("lat", rise("ck2"), Time::from_ns(1))
        .output_required("q", rise("ck2"), Time::ZERO);
    hb_io::write_hum_with_timing(&d, &clocks, &directives_from_spec(&spec))
}

#[test]
fn a_name_shared_by_replicas_and_a_port_reads_every_row_in_report_order() {
    let lib = sc89();
    let text = shared_name_design(&lib);
    assert!(text.contains("lat=din"), "{text}");
    let (l, s, _) = check_every_name(&lib, &text);
    let min_period = s.handle_readonly(&Frame::new("min-period")).unwrap();
    assert_eq!(min_period.get("feasible"), Some("1"));
    let report = s.last_report().unwrap();

    let kinds: Vec<(TerminalKind, u32)> = report
        .terminal_slacks()
        .iter()
        .filter(|t| t.name == "lat")
        .map(|t| (t.kind, t.pulse))
        .collect();
    use TerminalKind::*;
    assert_eq!(
        kinds,
        [
            (SyncInput, 0),
            (SyncOutput, 0),
            (SyncInput, 1),
            (SyncOutput, 1),
            (PrimaryInput, 0)
        ]
    );
    let lat = s
        .handle_readonly(&Frame::new("slack").arg("node", "lat"))
        .unwrap();
    assert_eq!(lat.get("kind"), Some("terminal"));
    assert_eq!(lat.payload.unwrap().lines().count(), 5);
    // The net named `cap` wins over the flop named `cap`.
    let cap = s
        .handle_readonly(&Frame::new("slack").arg("node", "cap"))
        .unwrap();
    assert_eq!(cap.get("kind"), Some("net"));

    let batch = ["q", "lat", "cap", "lat", "din", "ck"];
    let mut req = Frame::new("slack");
    for name in batch {
        req = req.arg("node", name);
    }
    let reply = s.handle_readonly(&req).unwrap();
    assert_same(&reply, &oracle_batch(&l, report, &batch), "batch");
    assert_eq!(reply.get("count"), Some("5"));
}
