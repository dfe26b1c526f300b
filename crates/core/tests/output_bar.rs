//! The "further terminals" extension: output-bar (QN) on synchronising
//! elements, analyzed with real sc89 cells.

use hb_cells::sc89;
use hb_clock::ClockSet;
use hb_netlist::{Design, ModuleId, PinDir};
use hb_units::{Time, Transition};
use hummingbird::{Analyzer, EdgeSpec, Spec, TerminalKind};

/// `in -> DFFQN -> {Q -> short chain -> DFF, QN -> long chain -> DFF}`;
/// with `q_chain` `None`, Q is left unconnected.
fn dffqn_design(q_chain: Option<usize>, qn_chain: usize) -> (Design, ModuleId, ClockSet, Spec) {
    let lib = sc89();
    let mut d = Design::new("qn");
    lib.declare_into(&mut d).unwrap();
    let m = d.add_module("top").unwrap();
    let ck = d.add_net(m, "ck").unwrap();
    let input = d.add_net(m, "in").unwrap();
    d.add_port(m, "ck", PinDir::Input, ck).unwrap();
    d.add_port(m, "in", PinDir::Input, input).unwrap();
    let dffqn = d.leaf_by_name("DFFQN").unwrap();
    let dff = d.leaf_by_name("DFF").unwrap();
    let buf = d.leaf_by_name("BUF_X1").unwrap();

    let qn = d.add_net(m, "qn").unwrap();
    let src = d.add_leaf_instance(m, "src", dffqn).unwrap();
    d.connect(m, src, "D", input).unwrap();
    d.connect(m, src, "CK", ck).unwrap();
    d.connect(m, src, "QN", qn).unwrap();

    let chain = |d: &mut Design, from, len: usize, tag: &str| {
        let mut prev = from;
        for i in 0..len {
            let next = d.add_net(m, format!("{tag}{i}")).unwrap();
            let u = d.add_leaf_instance(m, format!("u_{tag}{i}"), buf).unwrap();
            d.connect(m, u, "A", prev).unwrap();
            d.connect(m, u, "Y", next).unwrap();
            prev = next;
        }
        prev
    };
    let mut ends = Vec::new();
    if let Some(q_chain) = q_chain {
        let q = d.add_net(m, "q").unwrap();
        d.connect(m, src, "Q", q).unwrap();
        ends.push(("capq", chain(&mut d, q, q_chain, "cq")));
    }
    ends.push(("capn", chain(&mut d, qn, qn_chain, "cn")));
    for (name, net) in ends {
        let out = d.add_net(m, format!("{name}_q")).unwrap();
        let ff = d.add_leaf_instance(m, name, dff).unwrap();
        d.connect(m, ff, "D", net).unwrap();
        d.connect(m, ff, "CK", ck).unwrap();
        d.connect(m, ff, "Q", out).unwrap();
    }
    d.set_top(m).unwrap();

    let mut clocks = ClockSet::new();
    clocks
        .add_clock("ck", Time::from_ns(6), Time::ZERO, Time::from_ns(3))
        .unwrap();
    let spec = Spec::new().clock_port("ck", "ck").input_arrival(
        "in",
        EdgeSpec::new("ck", Transition::Rise),
        Time::ZERO,
    );
    (d, m, clocks, spec)
}

#[test]
fn qn_paths_are_timed() {
    let lib = sc89();
    // Short on both: meets.
    let (d, m, clocks, spec) = dffqn_design(Some(2), 2);
    let report = Analyzer::new(&d, m, &lib, &clocks, spec).unwrap().analyze();
    assert!(report.ok(), "{report}");

    // Long QN chain: the violation must be found *through the bar
    // output*, even though Q's path is fine.
    let (d, m, clocks, spec) = dffqn_design(Some(2), 40);
    let report = Analyzer::new(&d, m, &lib, &clocks, spec).unwrap().analyze();
    assert!(!report.ok(), "{report}");
    let path = &report.slow_paths()[0];
    assert_eq!(path.endpoint, "capn", "the QN-side capture flop fails");
    assert_eq!(path.steps.first().unwrap().net, "qn", "path starts at QN");
}

#[test]
fn qn_source_terminal_reports_worst_of_both_outputs() {
    let lib = sc89();
    let (d, m, clocks, spec) = dffqn_design(Some(2), 10);
    let report = Analyzer::new(&d, m, &lib, &clocks, spec).unwrap().analyze();
    let src_out = report
        .terminal_slacks()
        .iter()
        .find(|t| t.kind == TerminalKind::SyncOutput && t.name == "src")
        .expect("source flop has an output terminal");
    // The QN chain is longer, so the merged output slack must equal the
    // capn input slack (the QN side), not the relaxed Q side.
    let capn_in = report
        .terminal_slacks()
        .iter()
        .find(|t| t.kind == TerminalKind::SyncInput && t.name == "capn")
        .expect("capn input");
    assert_eq!(src_out.slack, capn_in.slack);
}

/// An element whose only connected output is QN still has an output
/// terminal row, carrying the QN side's slack.
#[test]
fn qn_only_element_has_an_output_terminal() {
    let lib = sc89();
    let (d, m, clocks, spec) = dffqn_design(None, 40);
    let report = Analyzer::new(&d, m, &lib, &clocks, spec).unwrap().analyze();
    assert!(!report.ok(), "{report}");
    let slack = |kind, name| {
        let mut rows = report.terminal_slacks().iter();
        rows.find(|t| t.kind == kind && t.name == name)
            .map(|t| t.slack)
    };
    let src_out = slack(TerminalKind::SyncOutput, "src")
        .expect("the QN-only source flop has an output terminal");
    assert_eq!(Some(src_out), slack(TerminalKind::SyncInput, "capn"));
}
