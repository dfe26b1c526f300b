//! Journal-streaming replication, fencing terms, and quorum failover.
//!
//! The unit of replication is the write-ahead [`Journal`]: it already
//! captures, in order, every request that changed a design's state,
//! and [`Journal::replay`] already rebuilds a bit-identical session
//! from it (panic recovery and LRU-eviction reload both rely on
//! that). Streaming the same entries to another process therefore
//! yields a warm shadow of the whole fleet for free — no second
//! serialisation format, no snapshot shipping.
//!
//! ## Wire protocol
//!
//! Three verbs, served by **any** node — primary or standby, which is
//! what makes chained primary→standby→standby topologies work:
//!
//! * `repl-state [term=T]` — one payload line per open design:
//!   `ID EPOCH LEN FINGERPRINT` (sorted by id, fingerprint in hex or
//!   `-` before the first mutation). The reply carries the serving
//!   node's `term=`/`role=`.
//! * `repl-pull design=ID epoch=E since=N [max=BYTES] [term=T]` —
//!   journal entries from index `N` on, each encoded as a nested
//!   `entry expect=VERB payload=K` frame whose payload is the
//!   original request frame verbatim. When the caller's `epoch` no
//!   longer matches (the upstream rewrote history: a fresh `load` or
//!   a compaction), the reply carries `resync=1` and restarts from
//!   index 0. Pages are bounded: entries are batched until the next
//!   *encoded entry frame* would push the payload past `max`
//!   (clamped to [`MAX_STREAM_BYTES`]), and the remainder is flagged
//!   `more=1` — the continuation cursor is simply `since=N+count`, so
//!   a resync under sustained write load streams fixed-size pages,
//!   one per round trip. A complete page (`more=0`) carries the
//!   upstream's fingerprint for the replica to verify its rebuilt
//!   session against.
//! * `vote term=T candidate=ID er=E lr=L` — a promotion ballot (see
//!   below). `granted=1|0` plus the voter's `term=` come back.
//!
//! Any replication request or reply carrying `term=` is an
//! observation: a node that sees a term higher than its own adopts
//! it, and a *primary* that does so demotes on the spot.
//!
//! ## Terms and fencing
//!
//! Every node carries a monotonically increasing **fencing term**; a
//! fresh primary starts at term 1, a fresh standby at 0 (it adopts
//! its upstream's term from the first sync reply). Every promotion
//! bumps the term. A node whose role is not primary answers every
//! mutating verb (`load`/`analyze`/`constraints`/`eco`, plus
//! `open`/`close`) with `error code=fenced term=N` — so a zombie
//! ex-primary that returns after a partition heals is rejected by the
//! cluster (its replication traffic carries a stale term) and, the
//! moment it hears the higher term over gossip or any reply, demotes
//! itself, resets its now-divergent shadows, and resyncs from the new
//! primary. Reads keep flowing on every node throughout: warm
//! queryable shadows are the point of a standby.
//!
//! ## Promotion
//!
//! Without [`peers`](crate::ServerOptions::peers) the PR-7 behaviour
//! stands: a lone standby promotes unilaterally after
//! `promote_after` consecutive sync failures (term += 1). That mode
//! cannot distinguish a dead primary from a partition — which is
//! exactly the split-brain hazard — so with `--peers A,B,...` a
//! standby that loses its upstream instead runs a **ranked quorum
//! election**: it bumps a candidate term, votes for itself, and asks
//! every peer for a `vote`. A voter grants when the candidate's
//! replication rank — `(Σ epochs, Σ journal lens)` over the fleet,
//! node id as tiebreak — is at least its own, refuses to vote twice
//! in one term (a competing candidate abandons its own candidacy only
//! for a *strictly* higher-ranked rival), and a sitting primary never
//! grants at its own term. Promotion requires grants from a majority
//! of `peers + 1` nodes, so two standbys can never both promote: the
//! most-caught-up one wins, deterministically. A failed candidate
//! probes the peers for whoever did win and chains behind it.
//!
//! ## The node loop
//!
//! A replicating daemon runs one control loop, the nonblocking
//! [`NodeDriver`] state machine inside the event loop (no dedicated
//! thread, no blocking client on the sync path). Each round it syncs
//! from its upstream (standby), probes for a primary when it has none,
//! or gossips its term to one peer (clustered primary, so partitions
//! heal). Failed rounds retry on the same seeded
//! decorrelated-jitter backoff the client uses
//! ([`standby_backoff_schedule`](crate::standby_backoff_schedule)),
//! bounded to `[sync_interval, 8 × sync_interval]` — two standbys
//! with different seeds probe a dead primary on diverging schedules.
//!
//! Because a panicked request is never journaled, a standby's state
//! after failover is exactly the last state any client was told
//! about.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use hb_io::{Frame, FrameDecoder};

use crate::fleet::{DesignSlot, DEFAULT_DESIGN};
use crate::journal::{self, Journal};
use crate::net::{lock, Backoff, Client, ServerOptions, Shared};
use crate::sys::{PollFd, POLLIN, POLLOUT};

/// Hard cap on one `repl-pull` page's payload. Entries are batched up
/// to the requested `max=` (clamped here) and the remainder flagged
/// with `more=1`; a single larger entry (a big `load`) still ships
/// whole, and stays inside the codec's 16 MiB frame limit because
/// session payloads are capped at 8 MiB.
pub const MAX_STREAM_BYTES: usize = 12 * 1024 * 1024;

/// Smallest page bound a pull may request; anything lower still ships
/// at least one entry per page, this just keeps the clamp sane.
pub(crate) const MIN_PAGE_BYTES: usize = 1024;

/// How long one outbound replication exchange (connect + request +
/// reply) may take before the round is declared failed.
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(5);

fn err(code: &str, message: impl std::fmt::Display) -> Frame {
    Frame::new("error")
        .arg("code", code)
        .with_payload(message.to_string())
}

fn fp_hex(fp: Option<u64>) -> String {
    match fp {
        Some(fp) => format!("{fp:016x}"),
        None => "-".to_owned(),
    }
}

// --- Node control state ----------------------------------------------

/// What this node is to its cluster right now.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Role {
    Primary,
    Standby,
}

impl Role {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
        }
    }
}

/// The node's replication control state, behind `Shared::node`.
pub(crate) struct NodeCtl {
    pub(crate) role: Role,
    /// The fencing term (see the module doc).
    pub(crate) term: u64,
    /// Where this node syncs from when standing by. `None` means the
    /// upstream is unknown (lost, or an election just failed) and the
    /// node loop is probing the peers for the current primary.
    pub(crate) upstream: Option<String>,
    /// The vote ledger: the one `(term, candidate)` ballot this node
    /// granted most recently. A node never votes twice in one term
    /// (the self-override in [`vote`] is the single, safe exception).
    pub(crate) voted: Option<(u64, String)>,
    /// This node's id — its listen address, set at bind. Peers address
    /// a node by it and elections tiebreak on it.
    pub(crate) id: String,
}

impl NodeCtl {
    pub(crate) fn new(options: &ServerOptions) -> NodeCtl {
        let standby = options.standby_of.is_some();
        NodeCtl {
            role: if standby {
                Role::Standby
            } else {
                Role::Primary
            },
            term: u64::from(!standby),
            upstream: options.standby_of.clone(),
            voted: None,
            id: String::new(),
        }
    }
}

/// Recomputes the control state from the (possibly rewired) options,
/// preserving the node id. Called by `Server::run` right before
/// serving: tests bind a whole cluster on ephemeral ports first and
/// only then know the addresses to put in `peers`/`standby_of`.
pub(crate) fn refresh_node(shared: &Shared) {
    let mut ctl = lock(&shared.node);
    let id = std::mem::take(&mut ctl.id);
    *ctl = NodeCtl::new(&shared.options);
    ctl.id = id;
    shared.metrics.term.set(ctl.term as i64);
}

/// The node's current role and term, in one lock.
pub(crate) fn role_term(shared: &Shared) -> (&'static str, u64) {
    let ctl = lock(&shared.node);
    (ctl.role.as_str(), ctl.term)
}

/// Appends `role=`/`term=` to an `ok` reply — the observability face
/// of the control state (`stats` and `designs` carry it).
pub(crate) fn annotate(shared: &Shared, reply: Frame) -> Frame {
    if reply.verb != "ok" {
        return reply;
    }
    let (role, term) = role_term(shared);
    reply.arg("role", role).arg("term", term)
}

/// Adopts `term` when it is newer than ours; a primary that learns of
/// a higher term demotes on the spot (it lost an election it never
/// saw) and resets its shadows — its journal may hold acknowledged
/// writes the quorum never saw, and silently serving them as a
/// standby would be divergence. Returns whether a demotion happened.
pub(crate) fn observe(shared: &Shared, term: u64) -> bool {
    let demoted = {
        let mut ctl = lock(&shared.node);
        if term <= ctl.term {
            return false;
        }
        ctl.term = term;
        shared.metrics.term.set(term as i64);
        if ctl.role == Role::Primary {
            ctl.role = Role::Standby;
            ctl.upstream = None;
            true
        } else {
            false
        }
    };
    if demoted {
        reset_shadows(shared);
    }
    demoted
}

fn observe_arg(shared: &Shared, frame: &Frame) -> Option<u64> {
    let term = frame.get("term").and_then(|v| v.parse::<u64>().ok())?;
    observe(shared, term);
    Some(term)
}

/// Wipes every design's shadow (journal and session) so the next sync
/// round resyncs from zero. The price of a demotion: whatever this
/// node journaled beyond the quorum's history is unrecoverable
/// anyway, and a wiped shadow is the only state a chained `repl-pull`
/// can serve without spreading the divergence.
fn reset_shadows(shared: &Shared) {
    for slot in shared.fleet.snapshot() {
        let mut session = slot.session.write().unwrap_or_else(PoisonError::into_inner);
        slot.session.clear_poison();
        let mut journal = lock(&slot.journal);
        journal.sync_reset(0);
        *session = shared.fleet.fresh_session();
        drop(journal);
        drop(session);
        shared.fleet.settle(&slot);
    }
}

/// The write fence. `None` lets the request through; `Some` is the
/// structured rejection. Mutating verbs (plus `open`/`close`) are
/// only accepted by the primary; a request carrying a `term=` below
/// ours is rejected even on a primary (a fenced ex-primary's write
/// relayed late). A request carrying a *higher* term is itself an
/// observation — a new primary's first write demotes a zombie on
/// contact.
pub(crate) fn fence(shared: &Shared, req: &Frame) -> Option<Frame> {
    if !(journal::is_mutating(&req.verb) || matches!(req.verb.as_str(), "open" | "close")) {
        return None;
    }
    let issuer = observe_arg(shared, req);
    let ctl = lock(&shared.node);
    let stale = issuer.is_some_and(|t| t < ctl.term);
    if ctl.role == Role::Standby || stale {
        return Some(
            Frame::new("error")
                .arg("code", "fenced")
                .arg("term", ctl.term)
                .arg("role", ctl.role.as_str())
                .with_payload(if stale {
                    "stale issuer term; this write was fenced"
                } else {
                    "this node is not the primary; writes are fenced"
                }),
        );
    }
    None
}

/// The node's replication rank: how much acknowledged history its
/// fleet holds, `(Σ journal epochs, Σ journal lens)`. Elections
/// compare ranks lexicographically (node id as final tiebreak) so the
/// most-caught-up standby wins. Ranks are stable while the primary is
/// down — standbys fence writes — which is what makes the comparison
/// meaningful.
pub(crate) fn rank(shared: &Shared) -> (u64, u64) {
    let mut epochs = 0u64;
    let mut lens = 0u64;
    for slot in shared.fleet.snapshot() {
        let journal = lock(&slot.journal);
        epochs += journal.epoch();
        lens += journal.len() as u64;
    }
    (epochs, lens)
}

// --- Serving side -----------------------------------------------------

/// Whether the injected-partition point cuts this exchange (serving
/// or initiating — the node is cut off from its cluster's control
/// plane either way, while ordinary client verbs keep flowing).
fn link_dropped(shared: &Shared) -> bool {
    shared.options.faults.fires(hb_fault::REPL_LINK_DROP)
}

/// Serves `repl-state`: every open design's replication cursor, plus
/// this node's term and role (a probe is just a `repl-state` whose
/// caller only reads the header).
pub(crate) fn repl_state(shared: &Shared, req: &Frame) -> Frame {
    if link_dropped(shared) {
        return err("io", "replication link dropped (injected partition)");
    }
    observe_arg(shared, req);
    let slots = shared.fleet.snapshot();
    let mut body = String::new();
    for slot in &slots {
        let journal = lock(&slot.journal);
        body.push_str(&format!(
            "{} {} {} {}\n",
            slot.id,
            journal.epoch(),
            journal.len(),
            fp_hex(journal.fingerprint())
        ));
    }
    let (role, term) = role_term(shared);
    Frame::new("ok")
        .arg("count", slots.len())
        .arg("term", term)
        .arg("role", role)
        .with_payload(body)
}

/// Serves `repl-pull`: one bounded page of a design's journal from
/// the caller's cursor on (or from zero with `resync=1` when the
/// cursor's epoch is stale).
pub(crate) fn repl_pull(shared: &Shared, req: &Frame) -> Frame {
    if link_dropped(shared) {
        return err("io", "replication link dropped (injected partition)");
    }
    observe_arg(shared, req);
    let Some(id) = req.get("design") else {
        return err("usage", "repl-pull needs design=ID");
    };
    let Some(slot) = shared.fleet.peek(id) else {
        return err("unknown-design", format!("no open design `{id}`"));
    };
    let epoch: u64 = match req.get("epoch").map(str::parse) {
        None => 0,
        Some(Ok(e)) => e,
        Some(Err(_)) => return err("usage", "bad epoch value"),
    };
    let since: usize = match req.get("since").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => return err("usage", "bad since value"),
    };
    let max: usize = match req.get("max").map(str::parse) {
        None => shared.options.repl_page_bytes,
        Some(Ok(n)) => n,
        Some(Err(_)) => return err("usage", "bad max value"),
    };
    let max = max.clamp(MIN_PAGE_BYTES, MAX_STREAM_BYTES);
    let journal = lock(&slot.journal);
    let (resync, start) = if epoch != journal.epoch() || since > journal.len() {
        (1u8, 0usize)
    } else {
        (0u8, since)
    };
    let mut body = String::new();
    let mut count = 0usize;
    let mut more = 0u8;
    for entry in &journal.entries()[start..] {
        // The bound is judged on the bytes that actually land in the
        // page — the full encoded `entry` wrapper frame, not just the
        // inner request — so an entry landing exactly on the boundary
        // fits exactly, and the continuation cursor `since+count`
        // neither drops nor duplicates it.
        let encoded = Frame::new("entry")
            .arg("expect", &entry.expect)
            .with_payload(entry.req.encode())
            .encode();
        if count > 0 && body.len() + encoded.len() > max {
            more = 1;
            break;
        }
        body.push_str(&encoded);
        count += 1;
    }
    let (role, term) = role_term(shared);
    let mut reply = Frame::new("ok")
        .arg("design", id)
        .arg("epoch", journal.epoch())
        .arg("since", start)
        .arg("count", count)
        .arg("resync", resync)
        .arg("more", more)
        .arg("term", term)
        .arg("role", role);
    if more == 0 {
        if let Some(fp) = journal.fingerprint() {
            reply = reply.arg("fp", format!("{fp:016x}"));
        }
    }
    reply.with_payload(body)
}

/// Serves `vote`: one promotion ballot. The grant rules (see the
/// module doc) make two simultaneous promotions impossible and the
/// most-caught-up candidate the deterministic winner.
pub(crate) fn vote(shared: &Shared, req: &Frame) -> Frame {
    if link_dropped(shared) {
        return err("io", "replication link dropped (injected partition)");
    }
    let Some(term) = req.get("term").and_then(|v| v.parse::<u64>().ok()) else {
        return err("usage", "vote needs term=N");
    };
    let Some(candidate) = req.get("candidate") else {
        return err("usage", "vote needs candidate=ID");
    };
    let er: u64 = req.get("er").and_then(|v| v.parse().ok()).unwrap_or(0);
    let lr: u64 = req.get("lr").and_then(|v| v.parse().ok()).unwrap_or(0);
    // Rank before control lock: both sides take journal locks and the
    // node lock, always in that order.
    let (my_er, my_lr) = rank(shared);
    let mut ctl = lock(&shared.node);
    let deny = |ctl: &NodeCtl| {
        Frame::new("ok")
            .arg("granted", 0)
            .arg("term", ctl.term)
            .arg("role", ctl.role.as_str())
    };
    if term < ctl.term || (ctl.role == Role::Primary && term == ctl.term) {
        // Stale ballot, or a ballot at the term this very node
        // already holds as primary.
        return deny(&ctl);
    }
    let cand_key = (er, lr, candidate);
    let my_key = (my_er, my_lr, ctl.id.as_str());
    let granted = match &ctl.voted {
        // One vote per term — but an identical re-ask is answered
        // consistently (elections retry).
        Some((t, prev)) if *t == term && prev == candidate => true,
        // A candidate abandons its own candidacy only for a strictly
        // higher-ranked rival: of two simultaneous candidates exactly
        // one outranks the other, so exactly one election survives.
        Some((t, prev)) if *t == term && *prev == ctl.id => cand_key > my_key,
        Some((t, _)) if *t == term => false,
        // First ballot this term: grant anyone at least as caught up.
        _ => (er, lr) >= (my_er, my_lr),
    };
    if !granted {
        return deny(&ctl);
    }
    let demote = term > ctl.term && ctl.role == Role::Primary;
    if term > ctl.term {
        ctl.term = term;
        shared.metrics.term.set(term as i64);
    }
    if demote {
        ctl.role = Role::Standby;
    }
    ctl.voted = Some((term, candidate.to_owned()));
    // Follow the likely winner; if it loses, the probe loop finds the
    // real primary (or this node chains behind the loser, which
    // itself chains on).
    ctl.upstream = Some(candidate.to_owned());
    let reply = Frame::new("ok")
        .arg("granted", 1)
        .arg("term", ctl.term)
        .arg("role", ctl.role.as_str());
    drop(ctl);
    if demote {
        reset_shadows(shared);
    }
    reply
}

// --- Sync (pulling) side ---------------------------------------------

/// One design's line in a `repl-state` payload.
struct RemoteCursor {
    id: String,
    epoch: u64,
    len: usize,
    fp: Option<u64>,
}

fn parse_state(payload: &str) -> Result<Vec<RemoteCursor>, String> {
    payload
        .lines()
        .map(|line| {
            let mut parts = line.split_whitespace();
            let mut parse = || {
                parts
                    .next()
                    .ok_or_else(|| format!("short state line `{line}`"))
            };
            let id = parse()?.to_owned();
            let epoch = parse()?
                .parse()
                .map_err(|_| format!("bad epoch in `{line}`"))?;
            let len = parse()?
                .parse()
                .map_err(|_| format!("bad len in `{line}`"))?;
            let fp = u64::from_str_radix(parse()?, 16).ok();
            Ok(RemoteCursor { id, epoch, len, fp })
        })
        .collect()
}

/// Whether the upstream's reply disqualifies it as a sync source:
/// anything but `ok`, or a term behind ours (we already follow a
/// newer cluster history). Observes the reply's term either way.
fn vet_reply(shared: &Shared, what: &str, reply: &Frame) -> Result<(), String> {
    if reply.verb != "ok" {
        return Err(format!(
            "{what} answered `{}`: {}",
            reply.verb,
            reply.payload.as_deref().unwrap_or("")
        ));
    }
    if let Some(term) = observe_arg(shared, reply) {
        let own = lock(&shared.node).term;
        if term < own {
            return Err(format!(
                "{what}: upstream term {term} is behind ours ({own})"
            ));
        }
    }
    Ok(())
}

/// The pull request that would advance one design's shadow toward
/// `cursor`, or `None` when the shadow is already level (same epoch
/// and either ahead of this — possibly stale — snapshot, or at it
/// with a matching fingerprint).
fn pull_request(shared: &Shared, slot: &DesignSlot, cursor: &RemoteCursor) -> Option<Frame> {
    let (epoch, len, fp) = lock(&slot.journal).cursor();
    if epoch == cursor.epoch && (len > cursor.len || (len == cursor.len && fp == cursor.fp)) {
        return None;
    }
    let page = shared
        .options
        .repl_page_bytes
        .clamp(MIN_PAGE_BYTES, MAX_STREAM_BYTES);
    let term = lock(&shared.node).term;
    Some(
        Frame::new("repl-pull")
            .arg("design", &cursor.id)
            .arg("epoch", epoch)
            .arg("since", len)
            .arg("max", page)
            .arg("term", term),
    )
}

/// Mirrors the upstream's design table: prunes local designs it no
/// longer lists (never the default one).
fn prune_absent(shared: &Shared, cursors: &[RemoteCursor]) {
    let present: HashSet<&str> = cursors.iter().map(|c| c.id.as_str()).collect();
    for slot in shared.fleet.snapshot() {
        if !present.contains(slot.id.as_str()) && slot.id != DEFAULT_DESIGN {
            shared.fleet.remove(&slot.id);
        }
    }
}

/// Applies one `repl-pull` page to a shadow slot: resync-reset when
/// flagged, replay every entry, verify the fingerprint on a complete
/// page. A partial page (`more=1`) clears the recorded fingerprint —
/// the shadow is mid-stream, and a chained puller must not mistake
/// the stale fingerprint for a settled one. Any divergence resets the
/// shadow so the next round resyncs from zero.
fn apply_pull(shared: &Shared, slot: &DesignSlot, reply: &Frame) -> Result<(), String> {
    let epoch: u64 = reply
        .get("epoch")
        .and_then(|v| v.parse().ok())
        .ok_or("repl-pull reply without epoch")?;
    let payload = reply.payload.as_deref().unwrap_or("");
    shared.metrics.repl_pages.inc();
    shared.metrics.repl_bytes.add(payload.len() as u64);
    let mut session = slot.session.write().unwrap_or_else(PoisonError::into_inner);
    slot.session.clear_poison();
    let mut journal = lock(&slot.journal);
    let reset = |journal: &mut Journal, session: &mut crate::session::Session, epoch: u64| {
        journal.sync_reset(epoch);
        *session = shared.fleet.fresh_session();
    };
    if reply.get("resync") == Some("1") {
        reset(&mut journal, &mut session, epoch);
    }
    let mut decoder = FrameDecoder::new();
    decoder.feed(payload.as_bytes());
    loop {
        let entry = match decoder.next_frame() {
            Ok(Some(entry)) => entry,
            Ok(None) => break,
            Err(e) => return Err(format!("bad replication stream: {e}")),
        };
        if entry.verb != "entry" {
            return Err(format!("unexpected `{}` in replication stream", entry.verb));
        }
        let expect = entry.get("expect").unwrap_or("ok").to_owned();
        let mut inner = FrameDecoder::new();
        inner.feed(entry.payload.as_deref().unwrap_or("").as_bytes());
        let req = match inner.next_frame() {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return Err("undecodable replication entry".into()),
        };
        let got = catch_unwind(AssertUnwindSafe(|| session.handle_replay(&req)));
        match got {
            Ok(got) if got.verb == expect => journal.sync_push(req, expect),
            outcome => {
                // The shadow diverged (or the replay panicked): throw
                // it away and resync from zero next round.
                reset(&mut journal, &mut session, 0);
                let got = match outcome {
                    Ok(got) => got.verb,
                    Err(_) => "panic".to_owned(),
                };
                return Err(format!(
                    "replicated `{}` replayed to `{got}` (expected `{expect}`)",
                    req.verb
                ));
            }
        }
    }
    decoder
        .finish()
        .map_err(|e| format!("truncated replication stream: {e}"))?;
    if reply.get("more") == Some("1") {
        journal.set_fingerprint(None);
    } else {
        let fp = reply
            .get("fp")
            .and_then(|v| u64::from_str_radix(v, 16).ok());
        journal.set_fingerprint(fp);
        if let Some(fp) = fp {
            if session.fingerprint() != fp {
                reset(&mut journal, &mut session, 0);
                return Err("replicated fingerprint mismatch; resyncing".into());
            }
        }
    }
    drop(journal);
    drop(session);
    shared.fleet.settle(slot);
    Ok(())
}

// --- Probes, gossip, elections ---------------------------------------

/// One bounded blocking request/reply exchange on a fresh connection —
/// election ballots use this instead of `Client::connect` so a
/// blackholed peer costs a bounded connect timeout, not a hang.
fn request_once(addr: &str, req: &Frame, timeout: Duration) -> Result<Frame, String> {
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("unresolvable peer `{addr}`"))?;
    let stream =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut client = Client::from_stream(stream).map_err(|e| format!("client {addr}: {e}"))?;
    client
        .set_timeout(Some(timeout))
        .map_err(|e| format!("timeout {addr}: {e}"))?;
    client.request(req).map_err(|e| format!("{addr}: {e}"))
}

/// The bounded timeout probes, gossip and votes run under: generous
/// against the sync interval but never a multi-second stall (the
/// event loop runs elections inline).
fn control_timeout(shared: &Shared) -> Duration {
    shared
        .options
        .sync_interval
        .clamp(Duration::from_millis(100), Duration::from_secs(1))
}

/// Promotes without a quorum — the legacy lone-standby mode, the only
/// option when no peers are configured.
fn promote_unilaterally(shared: &Shared) {
    let mut ctl = lock(&shared.node);
    ctl.role = Role::Primary;
    ctl.term += 1;
    ctl.upstream = None;
    shared.metrics.term.set(ctl.term as i64);
    shared.metrics.promotions.inc();
}

/// Seeks promotion: unilaterally without peers, otherwise by one
/// ranked quorum election. Returns whether this node promoted. On
/// failure the node goes back to probing (it must not retry at
/// ever-higher terms and depose whoever did win).
fn run_election(shared: &Shared) -> bool {
    let peers = shared.options.peers.clone();
    if peers.is_empty() {
        promote_unilaterally(shared);
        return true;
    }
    let (ballot_term, my_id) = {
        let mut ctl = lock(&shared.node);
        if ctl.role == Role::Primary {
            return true;
        }
        let term = ctl.term + 1;
        match &ctl.voted {
            // Already pledged this (or a later) term to someone else:
            // campaigning now could hand two candidates a majority.
            Some((t, c)) if *t >= term && *c != ctl.id => return false,
            _ => {}
        }
        ctl.voted = Some((term, ctl.id.clone()));
        (term, ctl.id.clone())
    };
    let (er, lr) = rank(shared);
    let ballot = Frame::new("vote")
        .arg("term", ballot_term)
        .arg("candidate", &my_id)
        .arg("er", er)
        .arg("lr", lr);
    let timeout = control_timeout(shared);
    let mut granted = 1usize; // self
    for peer in &peers {
        if link_dropped(shared) {
            continue;
        }
        let Ok(reply) = request_once(peer, &ballot, timeout) else {
            continue;
        };
        observe_arg(shared, &reply);
        if reply.verb == "ok" && reply.get("granted") == Some("1") {
            granted += 1;
        }
    }
    let majority = peers.len().div_ceil(2) + 1;
    let mut ctl = lock(&shared.node);
    let won = granted >= majority
        && ctl.term < ballot_term + 1
        && ctl.voted.as_ref() == Some(&(ballot_term, my_id.clone()));
    if won {
        ctl.role = Role::Primary;
        ctl.term = ballot_term;
        ctl.upstream = None;
        shared.metrics.term.set(ballot_term as i64);
        shared.metrics.promotions.inc();
    } else {
        // Lost (or overridden for a better candidate mid-count): find
        // whoever won instead of deposing them at term+2.
        ctl.upstream = None;
    }
    won
}

/// A deterministic-enough per-process seed for the reconnect backoff:
/// node id, clock and pid, so two standbys of one primary never walk
/// the same schedule.
fn loop_seed(shared: &Shared) -> u64 {
    let id_hash = lock(&shared.node)
        .id
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    clock ^ id_hash.rotate_left(17) ^ (u64::from(std::process::id()) << 32)
}

fn reconnect_backoff(shared: &Shared) -> Backoff {
    let interval = shared.options.sync_interval;
    Backoff::with_bounds(loop_seed(shared), interval, interval.saturating_mul(8))
}

// --- The node loop ---------------------------------------------------

/// How one in-flight exchange advanced.
enum Outcome {
    /// Mid-exchange; keep the fd in the poll set.
    Pending,
    /// The sync round completed: every design level, table pruned.
    SyncOk,
    /// A probe found the primary at `addr`.
    ProbePrimary(String),
    /// A probe completed but found no primary (the peer is a standby,
    /// or its term is stale).
    ProbeMiss,
    /// The exchange failed (connect, transport, vetting, or replay).
    Failed,
}

/// One nonblocking request/reply conversation with a peer: queued
/// request bytes flush as the socket drains, reply bytes feed the
/// push decoder, and each complete reply frame is stepped through the
/// operation — which may queue the next request on the same
/// connection (a multi-page pull never reconnects).
struct Exchange {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_start: usize,
    started: Instant,
    peer: String,
    op: Op,
}

enum Op {
    /// Awaiting the sync round's `repl-state` from the upstream.
    SyncState,
    /// Awaiting one design's `repl-pull` page.
    SyncPull {
        cursors: Vec<RemoteCursor>,
        idx: usize,
    },
    /// Awaiting a probe/gossip `repl-state` (header only).
    Probe,
}

impl Exchange {
    /// Opens the connection (bounded connect, then nonblocking) and
    /// queues the opening request.
    fn start(shared: &Shared, peer: &str, op: Op) -> Result<Exchange, ()> {
        if link_dropped(shared) {
            return Err(());
        }
        let sock = peer
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or(())?;
        // The one bounded blocking step: a dead loopback peer refuses
        // instantly, a blackholed one costs at most the control
        // timeout — never a poll-loop stall beyond it.
        let stream = TcpStream::connect_timeout(&sock, control_timeout(shared)).map_err(|_| ())?;
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).map_err(|_| ())?;
        let term = lock(&shared.node).term;
        let req = Frame::new("repl-state").arg("term", term);
        Ok(Exchange {
            stream,
            decoder: FrameDecoder::new(),
            out: req.encode().into_bytes(),
            out_start: 0,
            started: Instant::now(),
            peer: peer.to_owned(),
            op,
        })
    }

    /// Queues `req` as the next request on this connection.
    fn send(&mut self, req: &Frame) {
        self.out = req.encode().into_bytes();
        self.out_start = 0;
    }

    /// Flushes queued bytes, reads whatever arrived, and steps the
    /// operation once per complete reply frame — repeating while the
    /// socket keeps making progress so a fast peer streams pages
    /// without waiting out poll ticks.
    fn advance(&mut self, shared: &Shared) -> Outcome {
        loop {
            while self.out_start < self.out.len() {
                match (&self.stream).write(&self.out[self.out_start..]) {
                    Ok(0) => return Outcome::Failed,
                    Ok(n) => self.out_start += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Outcome::Pending
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return Outcome::Failed,
                }
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                match self.decoder.next_frame() {
                    Ok(Some(reply)) => match self.step(shared, reply) {
                        Some(outcome) => return outcome,
                        None => break, // next request queued; write it now
                    },
                    Ok(None) => {}
                    Err(_) => return Outcome::Failed,
                }
                match (&self.stream).read(&mut buf) {
                    Ok(0) => return Outcome::Failed, // EOF before the reply
                    Ok(n) => self.decoder.feed(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Outcome::Pending
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return Outcome::Failed,
                }
            }
        }
    }

    /// Handles one complete reply frame. `None` means a follow-up
    /// request was queued and the exchange continues.
    fn step(&mut self, shared: &Shared, reply: Frame) -> Option<Outcome> {
        match &mut self.op {
            Op::Probe => {
                observe_arg(shared, &reply);
                if reply.verb != "ok" {
                    return Some(Outcome::Failed);
                }
                let term = reply.get("term").and_then(|v| v.parse::<u64>().ok());
                let primary = reply.get("role") == Some("primary")
                    && term.is_some_and(|t| t >= lock(&shared.node).term);
                Some(if primary {
                    Outcome::ProbePrimary(self.peer.clone())
                } else {
                    Outcome::ProbeMiss
                })
            }
            Op::SyncState => {
                if vet_reply(shared, "repl-state", &reply).is_err() {
                    return Some(Outcome::Failed);
                }
                let Ok(cursors) = parse_state(reply.payload.as_deref().unwrap_or("")) else {
                    return Some(Outcome::Failed);
                };
                prune_absent(shared, &cursors);
                self.op = Op::SyncPull { cursors, idx: 0 };
                self.queue_next_pull(shared)
            }
            Op::SyncPull { cursors, idx } => {
                if vet_reply(shared, "repl-pull", &reply).is_err() {
                    return Some(Outcome::Failed);
                }
                let slot = shared.fleet.ensure(&cursors[*idx].id);
                if apply_pull(shared, &slot, &reply).is_err() {
                    return Some(Outcome::Failed);
                }
                if reply.get("more") == Some("1") {
                    // Same design, next page: the level check produces
                    // the continuation request off the advanced cursor.
                    if let Some(req) = pull_request(shared, &slot, &cursors[*idx]) {
                        self.send(&req);
                        return None;
                    }
                }
                *idx += 1;
                self.queue_next_pull(shared)
            }
        }
    }

    /// Queues the pull for the next design that is behind, or reports
    /// the round complete.
    fn queue_next_pull(&mut self, shared: &Shared) -> Option<Outcome> {
        let Op::SyncPull { cursors, idx } = &mut self.op else {
            return Some(Outcome::Failed);
        };
        while *idx < cursors.len() {
            let slot = shared.fleet.ensure(&cursors[*idx].id);
            if let Some(req) = pull_request(shared, &slot, &cursors[*idx]) {
                let req = req.clone();
                self.send(&req);
                return None;
            }
            *idx += 1;
        }
        Some(Outcome::SyncOk)
    }
}

/// The node control loop, driven from the event loop: sync from the
/// upstream while standing by, probe for a primary when the upstream
/// is unknown, gossip the term while primary-with-peers, and seek
/// promotion after `promote_after` consecutive misses. Sync rounds and
/// probes run as nonblocking [`Exchange`]s whose socket joins the
/// poll set; only the rare election path (the primary is already dead
/// and votes are due now) uses bounded blocking requests inline.
pub(crate) struct NodeDriver {
    backoff: Backoff,
    failures: u32,
    probe_rounds: u32,
    gossip_idx: usize,
    next_round: Instant,
    exchange: Option<Exchange>,
    /// Set once there is permanently nothing to do (a lone standby
    /// promoted with no peers).
    done: bool,
}

impl NodeDriver {
    /// `None` when this daemon takes no part in replication.
    pub(crate) fn new(shared: &Shared) -> Option<NodeDriver> {
        if shared.options.standby_of.is_none() && shared.options.peers.is_empty() {
            return None;
        }
        Some(NodeDriver {
            backoff: reconnect_backoff(shared),
            failures: 0,
            probe_rounds: 0,
            gossip_idx: 0,
            next_round: Instant::now(),
            exchange: None,
            done: false,
        })
    }

    /// The poll slot for the in-flight exchange, if any.
    pub(crate) fn pollfd(&self) -> Option<PollFd> {
        use std::os::fd::AsRawFd;
        self.exchange.as_ref().map(|ex| {
            let events = if ex.out_start < ex.out.len() {
                POLLOUT
            } else {
                POLLIN
            };
            PollFd::new(ex.stream.as_raw_fd(), events)
        })
    }

    /// How soon the driver needs the loop back, as a cap on the poll
    /// timeout (the exchange fd wakes it early when bytes arrive).
    pub(crate) fn timeout_hint(&self, now: Instant) -> Option<Duration> {
        if self.done {
            return None;
        }
        if self.exchange.is_some() {
            return Some(Duration::from_millis(50));
        }
        Some(self.next_round.saturating_duration_since(now))
    }

    /// One driver step: advance the in-flight exchange or start the
    /// next round when due.
    pub(crate) fn tick(&mut self, shared: &Shared, now: Instant) {
        if self.done {
            return;
        }
        if let Some(mut ex) = self.exchange.take() {
            match ex.advance(shared) {
                Outcome::Pending => {
                    if now.duration_since(ex.started) > EXCHANGE_DEADLINE {
                        self.round_failed(shared, now);
                    } else {
                        self.exchange = Some(ex);
                    }
                }
                Outcome::SyncOk => {
                    self.failures = 0;
                    self.probe_rounds = 0;
                    self.backoff.reset();
                    self.next_round = now + shared.options.sync_interval;
                }
                Outcome::ProbePrimary(addr) => {
                    let mut ctl = lock(&shared.node);
                    if ctl.role == Role::Standby {
                        ctl.upstream = Some(addr);
                    }
                    drop(ctl);
                    self.probe_rounds = 0;
                    self.backoff.reset();
                    self.next_round = now;
                }
                Outcome::ProbeMiss => {
                    let (role, _) = role_term(shared);
                    if role == "primary" {
                        // Gossip answered; nothing to adopt.
                        self.next_round = now + shared.options.sync_interval;
                    } else {
                        self.probe_missed(shared, now);
                    }
                }
                Outcome::Failed => self.round_failed(shared, now),
            }
            return;
        }
        if now < self.next_round {
            return;
        }
        self.start_round(shared, now);
    }

    fn start_round(&mut self, shared: &Shared, now: Instant) {
        let (role, upstream) = {
            let ctl = lock(&shared.node);
            (ctl.role, ctl.upstream.clone())
        };
        let target = match role {
            Role::Primary => {
                let peers = &shared.options.peers;
                if peers.is_empty() {
                    self.done = true;
                    return;
                }
                let peer = peers[self.gossip_idx % peers.len()].clone();
                self.gossip_idx = self.gossip_idx.wrapping_add(1);
                Some((peer, Op::Probe))
            }
            Role::Standby => match upstream {
                Some(addr) => Some((addr, Op::SyncState)),
                None => {
                    let peers = &shared.options.peers;
                    if peers.is_empty() {
                        None
                    } else {
                        let peer = peers[self.gossip_idx % peers.len()].clone();
                        self.gossip_idx = self.gossip_idx.wrapping_add(1);
                        Some((peer, Op::Probe))
                    }
                }
            },
        };
        let Some((peer, op)) = target else {
            self.next_round = now + shared.options.sync_interval;
            return;
        };
        match Exchange::start(shared, &peer, op) {
            Ok(ex) => self.exchange = Some(ex),
            Err(()) => {
                // Bind the role on its own statement: a `match` on
                // `lock(..).role` would keep the guard alive across the
                // arms, and `round_failed` re-locks the node control.
                let role = lock(&shared.node).role;
                match role {
                    Role::Primary => self.next_round = now + shared.options.sync_interval,
                    Role::Standby => self.round_failed(shared, now),
                }
            }
        }
    }

    /// A sync or probe round failed: count it toward promotion (sync
    /// misses) and back off.
    fn round_failed(&mut self, shared: &Shared, now: Instant) {
        let (role, upstream_known) = {
            let ctl = lock(&shared.node);
            (ctl.role, ctl.upstream.is_some())
        };
        if role == Role::Primary {
            self.next_round = now + shared.options.sync_interval;
            return;
        }
        if upstream_known {
            self.failures += 1;
            if self.failures >= shared.options.promote_after.max(1) {
                self.failures = 0;
                if !run_election(shared) {
                    self.probe_rounds = 0;
                }
            }
        } else {
            self.probe_missed(shared, now);
            return;
        }
        self.next_round = now + self.backoff.next_wait(None);
    }

    /// A probe completed without finding a primary.
    fn probe_missed(&mut self, shared: &Shared, now: Instant) {
        self.probe_rounds += 1;
        if self.probe_rounds >= shared.options.promote_after.max(1) {
            self.probe_rounds = 0;
            let _ = run_election(shared);
        }
        self.next_round = now + self.backoff.next_wait(None);
    }
}
