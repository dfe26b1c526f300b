//! Journal boundary behaviour: compaction triggers strictly *past*
//! [`Journal::MAX_ENTRIES`] (never at it), and a compacted journal
//! replays to the exact state the raw history produced.

use hb_cells::sc89;
use hb_io::Frame;
use hb_server::{Journal, Session};

fn design_text() -> String {
    "design edge\n\
     module top\n\
     \x20 port in din clk\n\
     \x20 port out dout\n\
     \x20 inst g0 BUF_X1 A=din Y=n0\n\
     \x20 inst g1 INV_X1 A=n0 Y=n1\n\
     \x20 inst cap DFF D=n1 CK=clk Q=dout\n\
     end\n\
     top top\n\
     clock clk period 10ns rise 0ns fall 5ns\n\
     clockport clk clk\n\
     arrive din clk rise 1ns\n"
        .to_owned()
}

/// Handles `req` and journals it the way the transports do.
fn step(session: &mut Session, journal: &mut Journal, req: &Frame) {
    let reply = session.handle(req);
    assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
    journal.record(req, &reply, session);
}

/// Scale ECOs alternating up/down so the journal grows without the
/// design drifting monotonically.
fn eco(i: usize) -> Frame {
    Frame::new("eco")
        .arg("op", "scale-net")
        .arg("net", if i.is_multiple_of(2) { "n0" } else { "n1" })
        .arg("percent", if i.is_multiple_of(2) { 110 } else { 91 })
}

#[test]
fn no_compaction_at_exactly_max_entries() {
    let mut session = Session::new(sc89());
    let mut journal = Journal::new();
    step(
        &mut session,
        &mut journal,
        &Frame::new("load").with_payload(design_text()),
    );
    let epoch_after_load = journal.epoch();

    // Fill to the bound exactly: 1 load + (MAX_ENTRIES - 1) ECOs.
    for i in 0..Journal::MAX_ENTRIES - 1 {
        step(&mut session, &mut journal, &eco(i));
    }
    assert_eq!(journal.len(), Journal::MAX_ENTRIES, "exactly at the bound");
    assert_eq!(
        journal.epoch(),
        epoch_after_load,
        "no compaction at the bound itself"
    );
    assert_eq!(journal.fingerprint(), Some(session.fingerprint()));

    // One entry more tips it over: the history collapses to the
    // snapshot (load + re-analysis) and the epoch moves.
    step(&mut session, &mut journal, &eco(Journal::MAX_ENTRIES));
    assert!(
        journal.len() <= 2,
        "compaction left {} entries",
        journal.len()
    );
    assert_eq!(
        journal.epoch(),
        epoch_after_load + 1,
        "compaction bumps the epoch"
    );
    assert_eq!(journal.fingerprint(), Some(session.fingerprint()));
}

#[test]
fn replay_after_compaction_rebuilds_the_exact_state() {
    let mut session = Session::new(sc89());
    let mut journal = Journal::new();
    step(
        &mut session,
        &mut journal,
        &Frame::new("load").with_payload(design_text()),
    );
    step(&mut session, &mut journal, &Frame::new("analyze"));
    for i in 0..Journal::MAX_ENTRIES + 3 {
        step(&mut session, &mut journal, &eco(i));
    }
    assert!(journal.len() < Journal::MAX_ENTRIES, "must have compacted");

    // `replay` verifies the fingerprint internally; a clean return
    // already proves the compacted history rebuilds the recorded
    // state. Cross-check the visible surfaces anyway.
    let mut rebuilt = journal.replay(sc89(), None).expect("compacted replay");
    assert_eq!(rebuilt.fingerprint(), session.fingerprint());
    for req in [
        Frame::new("analyze"),
        Frame::new("worst-paths").arg("k", 5),
        Frame::new("dump"),
    ] {
        let want = session.handle(&req);
        let got = rebuilt.handle(&req);
        assert_eq!(got.payload, want.payload, "`{}` payload diverged", req.verb);
        for key in ["ok", "worst", "period"] {
            assert_eq!(got.get(key), want.get(key), "`{}` {key} diverged", req.verb);
        }
    }
}

/// A `scale-net` edit survives compaction: the snapshot `load`
/// carries the net's `hb.load_pct`, so replay lands on the edited
/// worst slack.
#[test]
fn compaction_keeps_scale_net_edits() {
    let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
    let mut session = Session::new(sc89());
    let mut journal = Journal::new();
    step(
        &mut session,
        &mut journal,
        &Frame::new("load").with_payload(text),
    );
    let scale = Frame::new("eco")
        .arg("op", "scale-net")
        .arg("net", "a1y")
        .arg("percent", 300);
    step(&mut session, &mut journal, &scale);
    let epoch = journal.epoch();
    while journal.epoch() == epoch {
        step(&mut session, &mut journal, &Frame::new("analyze"));
    }
    let mut rebuilt = journal.replay(sc89(), None).expect("compacted replay");
    let analyze = Frame::new("analyze");
    assert_eq!(
        rebuilt.handle(&analyze).get("worst"),
        session.handle(&analyze).get("worst")
    );
}

/// A fresh successful `load` starts history over (and bumps the epoch
/// so replication cursors notice); a failed one does neither.
#[test]
fn load_clears_history_and_bumps_the_epoch() {
    let mut session = Session::new(sc89());
    let mut journal = Journal::new();
    step(
        &mut session,
        &mut journal,
        &Frame::new("load").with_payload(design_text()),
    );
    for i in 0..5 {
        step(&mut session, &mut journal, &eco(i));
    }
    assert_eq!(journal.len(), 6);
    let epoch = journal.epoch();

    let req = Frame::new("load").with_payload(design_text());
    let reply = session.handle(&req);
    assert_eq!(reply.verb, "ok");
    journal.record(&req, &reply, &session);
    assert_eq!(journal.len(), 1, "a fresh load starts history over");
    assert_eq!(journal.epoch(), epoch + 1);

    // A load that fails to parse is still recorded (it is a mutating
    // verb whose failure must replay identically) but does not clear
    // the good history before it.
    let req = Frame::new("load").with_payload("design broken\n".to_owned());
    let reply = session.handle(&req);
    assert_eq!(reply.verb, "error");
    journal.record(&req, &reply, &session);
    assert_eq!(journal.len(), 2, "failed load appends");
    assert_eq!(journal.epoch(), epoch + 1, "failed load keeps the epoch");
    let rebuilt = journal
        .replay(sc89(), None)
        .expect("replay with failed load");
    assert_eq!(rebuilt.fingerprint(), session.fingerprint());
}
