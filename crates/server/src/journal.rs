//! The session write-ahead journal and its replay recovery.
//!
//! Every request that actually changes resident state — `load`,
//! `analyze`/`constraints` (they can change analysis options), `eco` —
//! is recorded *after* it is handled, together with the reply verb it
//! earned and a fingerprint of the state it produced. When a later
//! request panics and leaves the session half-mutated (or a panic
//! escapes far enough to poison the lock), the transport rebuilds the
//! session by replaying the journal into a fresh [`Session`] and
//! verifying the rebuilt fingerprint against the last recorded one.
//! The panicking request itself was never journaled, so recovery rolls
//! the session back to the last state any client was told about.
//!
//! Replay is **warm**: the content-addressed
//! [`SlackCache`](hummingbird::SlackCache) salvaged from the broken
//! session is transplanted into the rebuilt one. Cache versions are
//! keyed by shard content fingerprint plus seed signature and inserted
//! only once fully computed, and the cache holds no per-analysis state,
//! so versions written before a panic are either complete and correct
//! or absent — a replayed analysis reuses every clean cluster and
//! re-sweeps only what the interrupted request dirtied. `fault_bench` measures this: replay comes out at least as
//! cheap as a cold `load` + `analyze`.
//!
//! The journal is bounded: past [`Journal::MAX_ENTRIES`] it compacts
//! itself into a synthetic `load` of the current design text (the
//! `dump` round-trip the parity suite already guarantees) plus one
//! options-bearing re-analysis, so replay cost cannot grow without
//! limit under an ECO-heavy client.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use hb_cells::Library;
use hb_io::Frame;
use hummingbird::SlackCache;

use crate::net::lock;
use crate::session::Session;

/// Verbs whose handling may change state a journal replay must
/// reproduce.
pub(crate) fn is_mutating(verb: &str) -> bool {
    matches!(verb, "load" | "analyze" | "constraints" | "eco")
}

/// One journaled request plus the reply verb it earned. Handling is
/// deterministic, so replay must reproduce the verb — including
/// requests that mutated state *and* failed (an `eco` whose
/// re-analysis errored still moved the design).
pub(crate) struct Entry {
    pub(crate) req: Frame,
    pub(crate) expect: String,
}

/// A write-ahead record of every state-changing request the session
/// handled, replayable into a fresh [`Session`].
#[derive(Default)]
pub struct Journal {
    entries: Vec<Entry>,
    /// [`Session::fingerprint`] after the last recorded entry.
    fingerprint: Option<u64>,
    /// Bumped whenever history is rewritten rather than appended to
    /// (a fresh `load` clears it, compaction collapses it). A replica
    /// streaming entries by index uses this to detect that its `since`
    /// cursor no longer means what it did and resync from zero.
    epoch: u64,
}

impl Journal {
    /// Entry-count bound past which [`Journal::record`] compacts the
    /// journal into a snapshot `load` plus one re-analysis.
    pub const MAX_ENTRIES: usize = 1024;

    /// An empty journal (nothing loaded yet).
    pub fn new() -> Journal {
        Journal::default()
    }

    /// The number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The history epoch: bumped whenever recorded entries are
    /// rewritten (clear-on-load, compaction) instead of appended.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// [`Session::fingerprint`] after the last recorded entry, if any.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// The replication cursor in one read: `(epoch, len, fingerprint)`.
    /// This is what `repl-state` advertises per design and what a
    /// standby's level check compares against its own journal.
    pub fn cursor(&self) -> (u64, usize, Option<u64>) {
        (self.epoch, self.entries.len(), self.fingerprint)
    }

    /// The recorded entries — the replication stream's source.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Starts a fresh history at `epoch` (a replica resyncing from its
    /// primary after the primary rewrote its own history).
    pub(crate) fn sync_reset(&mut self, epoch: u64) {
        self.entries.clear();
        self.fingerprint = None;
        self.epoch = epoch;
    }

    /// Appends one replicated entry verbatim. Replicas never compact on
    /// their own — the primary compacts, bumps its epoch, and the
    /// replica resyncs — so history stays an exact mirror.
    pub(crate) fn sync_push(&mut self, req: Frame, expect: String) {
        self.entries.push(Entry { req, expect });
    }

    /// Installs the fingerprint reported by the primary for the state
    /// after the last pushed entry.
    pub(crate) fn set_fingerprint(&mut self, fingerprint: Option<u64>) {
        self.fingerprint = fingerprint;
    }

    /// Records a handled request and the fingerprint of the state it
    /// produced. A successful `load` starts design history over;
    /// anything else appends. `session` is the session that just
    /// handled `req` (used for fingerprinting and for compaction
    /// snapshots).
    pub fn record(&mut self, req: &Frame, reply: &Frame, session: &Session) {
        if req.verb == "load" && reply.verb == "ok" {
            self.entries.clear();
            self.epoch += 1;
        }
        self.entries.push(Entry {
            req: req.clone(),
            expect: reply.verb.clone(),
        });
        self.fingerprint = Some(session.fingerprint());
        if self.entries.len() > Journal::MAX_ENTRIES {
            self.compact(session);
        }
    }

    /// Collapses the history into a snapshot: one synthetic `load` of
    /// the session's current design text plus one options-bearing
    /// re-analysis. Sound because the `.hum` dump round-trip is
    /// bit-exact (asserted by the parity suite and the check.sh smoke
    /// test).
    fn compact(&mut self, session: &Session) {
        let Some(snapshot) = session.snapshot_frames() else {
            return; // nothing loaded; keep the raw history
        };
        self.entries = snapshot
            .into_iter()
            .map(|req| Entry {
                req,
                expect: "ok".to_owned(),
            })
            .collect();
        self.fingerprint = Some(session.fingerprint());
        self.epoch += 1;
    }

    /// Rebuilds a session by replaying every recorded entry into a
    /// fresh one, transplanting `cache` (salvaged from the broken
    /// session) right after the `load` so the re-analyses run warm,
    /// and verifying the rebuilt fingerprint.
    ///
    /// # Errors
    ///
    /// Returns a description of the first entry that replayed to a
    /// different verb, panicked, or left a mismatched fingerprint.
    /// The caller should fall back to an empty session.
    pub fn replay(&self, library: Library, cache: Option<SlackCache>) -> Result<Session, String> {
        let mut session = Session::new(library);
        let mut cache = cache;
        for (i, entry) in self.entries.iter().enumerate() {
            let req = &entry.req;
            // `handle_replay` skips request counting: a recovery must
            // not inflate the request history it is restoring.
            let reply = catch_unwind(AssertUnwindSafe(|| session.handle_replay(req)))
                .map_err(|_| format!("journal entry {i} (`{}`) panicked on replay", req.verb))?;
            if reply.verb != entry.expect {
                return Err(format!(
                    "journal entry {i} (`{}`) replayed to `{}` (recorded `{}`): {}",
                    req.verb,
                    reply.verb,
                    entry.expect,
                    reply.payload.as_deref().unwrap_or("no detail")
                ));
            }
            if req.verb == "load" && reply.verb == "ok" {
                if let Some(cache) = cache.take() {
                    session.install_cache(cache);
                }
            }
        }
        if let Some(expected) = self.fingerprint {
            let got = session.fingerprint();
            if got != expected {
                return Err(format!(
                    "replayed fingerprint {got:#018x} != recorded {expected:#018x}"
                ));
            }
        }
        Ok(session)
    }
}

/// Answers `req` on `session` with panic isolation and journal-backed
/// recovery — the write-path core shared by the TCP transport and the
/// stdio loop. The caller holds the session's write lock; the journal
/// is locked only to record or recover, never across the handling, so
/// replication and `designs` readers on the event loop do not wait
/// out a long analysis.
///
/// Requests that changed state (successfully or not) are journaled.
/// On a panic the half-mutated session is rebuilt from the journal
/// (warm, salvaging its cache) and the client gets a structured
/// `error code=internal` describing what happened; the rebuilt state
/// is the last one any client was told about.
pub(crate) fn handle_recovering(
    session: &mut Session,
    journal: &Mutex<Journal>,
    library: &Library,
    req: &Frame,
) -> Frame {
    let mutating = is_mutating(&req.verb);
    let before = if mutating {
        Some(session.fingerprint())
    } else {
        None
    };
    let reply = match catch_unwind(AssertUnwindSafe(|| session.handle(req))) {
        Ok(reply) => reply,
        Err(panic) => {
            let what = panic_message(&panic);
            let recovery = recover(session, &lock(journal), library);
            let reply = Frame::new("error").arg("code", "internal");
            return match recovery {
                Ok(replayed) => reply
                    .arg("recovered", 1)
                    .arg("replayed", replayed)
                    .with_payload(format!(
                        "request `{}` panicked ({what}); session rebuilt from journal",
                        req.verb
                    )),
                Err(e) => reply.arg("recovered", 0).with_payload(format!(
                    "request `{}` panicked ({what}); journal replay failed ({e}); \
                     session reset — reload the design",
                    req.verb
                )),
            };
        }
    };
    if mutating && (reply.verb == "ok" || before != Some(session.fingerprint())) {
        lock(journal).record(req, &reply, session);
    }
    reply
}

/// Rebuilds `session` in place from `journal`, salvaging its cache so
/// the replay runs warm. On replay failure the session is reset to
/// empty (library and fault plan intact) and the cause is returned.
pub(crate) fn recover(
    session: &mut Session,
    journal: &Journal,
    library: &Library,
) -> Result<usize, String> {
    let cache = session.take_cache();
    let faults = session.faults().clone();
    let metrics = session.metrics();
    metrics.recoveries.inc();
    let (rebuilt, outcome) = match journal.replay(library.clone(), cache) {
        Ok(rebuilt) => (rebuilt, Ok(journal.len())),
        Err(e) => (Session::new(library.clone()), Err(e)),
    };
    *session = rebuilt;
    session.set_faults(faults);
    // Counter history survives the rebuild: the transport's handle and
    // the session's must stay the same atomics.
    session.set_metrics(metrics);
    outcome
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
