//! A persistent timing-analysis daemon for hummingbird.
//!
//! The original Hummingbird lived inside a synthesis loop and
//! round-tripped the whole design through the OCT database on every
//! redesign iteration; every run paid full preparation from cold
//! state. This crate keeps the analyzed state *resident* instead: a
//! long-running process owns the design, the library binding and —
//! crucially — the content-addressed
//! [`SlackCache`](hummingbird::SlackCache), so an engineering-change
//! edit pays only for the cluster shards it actually dirtied.
//!
//! The layers:
//!
//! * [`Session`] — transport-agnostic request handling over one loaded
//!   design ([`Frame`](hb_io::Frame) in, frame out): `load`,
//!   `analyze`, `slack`, `worst-paths`, `constraints`, `eco`, `dump`,
//!   `stats`, `metrics`, `shutdown`;
//! * [`Server`] — a TCP daemon multiplexing a keyed *fleet* of
//!   sessions (`design=ID` routing, `open`/`close`/`designs`
//!   management, LRU eviction under `--max-designs` / `--mem-budget`,
//!   journal-streaming replication to a `--standby-of` warm standby),
//!   each session behind its own `RwLock`. One `poll(2)` event loop
//!   serves every connection and answers settled reads inline; each
//!   design's writes run in order on a worker thread of their own, so
//!   one tenant's analysis never stalls another tenant. Requests carry
//!   lock deadlines, sockets frame/idle deadlines, and excess
//!   connections are shed. [`serve_stream`] runs the same routing over
//!   arbitrary byte streams (`hummingbird serve --stdio`);
//! * [`Journal`] — a write-ahead record of state-changing requests;
//!   when a request panics (or a panic poisons the session lock), the
//!   transports rebuild the session by replaying it, warm through the
//!   salvaged slack cache;
//! * [`Client`] — a small blocking request/reply client, used by
//!   `hummingbird query`, the benches, and the loopback smoke test.
//!
//! The wire protocol is the newline-delimited framed codec of
//! [`hb_io::proto`]. See DESIGN.md §6 for the frame grammar, the
//! session lifecycle, and the ECO invalidation flow.
//!
//! # Examples
//!
//! ```
//! use hb_cells::sc89;
//! use hb_io::Frame;
//! use hb_server::Session;
//!
//! let mut session = Session::new(sc89());
//! let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
//! let reply = session.handle(&Frame::new("load").with_payload(text));
//! assert_eq!(reply.verb, "ok");
//! let reply = session.handle(&Frame::new("analyze"));
//! assert_eq!(reply.verb, "ok");
//! // An ECO re-analysis through the resident cache reports its reuse.
//! let reply = session.handle(
//!     &Frame::new("eco").arg("op", "resize").arg("inst", "a0").arg("steps", 1),
//! );
//! assert_eq!(reply.verb, "ok");
//! assert!(reply.get("items_reused").is_some());
//! ```

mod fleet;
mod journal;
mod metrics;
mod net;
mod reactor;
mod replica;
mod session;
mod sys;

pub use fleet::{valid_design_id, DEFAULT_DESIGN, FLEET_MAX_DESIGNS, MAX_DESIGN_ID};
pub use journal::Journal;
pub use metrics::Metrics;
pub use net::{serve_stream, standby_backoff_schedule, Client, Server, ServerOptions};
pub use replica::MAX_STREAM_BYTES;
pub use session::{
    directives_from_spec, spec_from_directives, Session, MAX_BATCH, MAX_LOAD_BYTES, MAX_WORST_PATHS,
};
pub use sys::raise_nofile_limit;

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cells::sc89;
    use hb_io::Frame;

    const PIPE: &str = "\
design two_phase
module top
  port in din phi1 phi2
  port out dout
  inst a0 BUF_X1 A=din Y=a0y
  inst a1 XOR2_X1 A=a0y B=din Y=a1y
  inst mid DLATCH D=a1y G=phi2 Q=midq
  inst b0 INV_X1 A=midq Y=b0y
  inst cap DFF D=b0y CK=phi1 Q=dout
end
top top
clock phi1 period 12ns rise 0ns fall 5ns
clock phi2 period 12ns rise 6ns fall 11ns
clockport phi1 phi1
clockport phi2 phi2
arrive din phi1 rise 0.5ns
";

    #[test]
    fn session_lifecycle() {
        let mut s = Session::new(sc89());
        // Queries before a load are structured errors, not panics.
        let reply = s.handle(&Frame::new("slack").arg("node", "x"));
        assert_eq!(reply.verb, "error");
        assert_eq!(reply.get("code"), Some("no-design"));

        let reply = s.handle(&Frame::new("load").with_payload(PIPE));
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        assert_eq!(reply.get("clocks"), Some("2"));

        let reply = s.handle(&Frame::new("analyze"));
        assert_eq!(reply.verb, "ok");
        assert!(reply.get("worst").is_some());

        // A net query answers from the settled analysis (read-only).
        let reply = s
            .handle_readonly(&Frame::new("slack").arg("node", "a1y"))
            .expect("analysis is fresh");
        assert_eq!(reply.verb, "ok");
        assert_eq!(reply.get("kind"), Some("net"));

        // A terminal query aggregates the instance's replicas.
        let reply = s.handle(&Frame::new("slack").arg("node", "mid"));
        assert_eq!(reply.get("kind"), Some("terminal"));

        // The ECO dirties the analysis: read-only queries step aside...
        let reply = s.handle(
            &Frame::new("eco")
                .arg("op", "resize")
                .arg("inst", "b0")
                .arg("steps", 1),
        );
        assert_eq!(reply.verb, "ok", "{:?}", reply.payload);
        assert_eq!(reply.get("desc"), Some("b0:INV_X1->INV_X2"));

        // ...and a failed ECO leaves the design untouched.
        let reply = s.handle(&Frame::new("eco").arg("op", "resize").arg("inst", "nosuch"));
        assert_eq!(reply.get("code"), Some("eco"));

        let reply = s.handle(&Frame::new("stats"));
        assert_eq!(reply.get("ecos"), Some("1"));
        assert_eq!(reply.get("design"), Some("two_phase"));

        let reply = s.handle(&Frame::new("nonsense"));
        assert_eq!(reply.get("code"), Some("unknown-verb"));
    }

    /// Duplicate `node=` keys in a batched slack query collapse to
    /// their first occurrence: one payload line per distinct node,
    /// `count` reporting distinct nodes, `worst` unchanged by the
    /// repetition.
    #[test]
    fn slack_batch_dedupes_repeated_nodes() {
        let mut s = Session::new(sc89());
        assert_eq!(s.handle(&Frame::new("load").with_payload(PIPE)).verb, "ok");
        assert_eq!(s.handle(&Frame::new("analyze")).verb, "ok");

        let single = s.handle(&Frame::new("slack").arg("node", "a1y"));
        assert_eq!(single.verb, "ok");

        let doubled = s.handle(
            &Frame::new("slack")
                .arg("node", "a1y")
                .arg("node", "a1y")
                .arg("node", "a1y"),
        );
        assert_eq!(doubled.verb, "ok");
        assert_eq!(doubled.get("count"), Some("1"));
        assert_eq!(doubled.get("worst"), single.get("slack"));
        let want = format!("a1y net {}\n", single.get("slack").unwrap());
        assert_eq!(
            doubled.payload.as_deref(),
            Some(want.as_str()),
            "one line per distinct node"
        );

        // Mixed batch: distinct nodes keep first-occurrence order.
        let mixed = s.handle(
            &Frame::new("slack")
                .arg("node", "a1y")
                .arg("node", "a0y")
                .arg("node", "a1y"),
        );
        assert_eq!(mixed.get("count"), Some("2"));
        let lines: Vec<&str> = mixed.payload.as_deref().unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("a1y "), "{:?}", lines[0]);
        assert!(lines[1].starts_with("a0y "), "{:?}", lines[1]);
    }

    /// A `scale-net` edit survives `dump`: a fresh session loading the
    /// dump analyzes to the edited worst slack and fingerprint, which
    /// differs from the unedited design's.
    #[test]
    fn scale_net_survives_dump_and_reload() {
        let text = std::fs::read_to_string("../../designs/two_phase_pipeline.hum").unwrap();
        let load = Frame::new("load").with_payload(text);
        let mut unedited = Session::new(sc89());
        unedited.handle(&load);
        let mut s = Session::new(sc89());
        s.handle(&load);
        s.handle(&Frame::new("analyze"));
        let scale = Frame::new("eco")
            .arg("op", "scale-net")
            .arg("net", "a1y")
            .arg("percent", 300);
        let eco = s.handle(&scale);
        assert_eq!(eco.verb, "ok", "{:?}", eco.payload);
        let dump = s.handle(&Frame::new("dump")).payload.unwrap();

        let mut fresh = Session::new(sc89());
        assert_eq!(
            fresh.handle(&Frame::new("load").with_payload(dump)).verb,
            "ok"
        );
        let reloaded = fresh.handle(&Frame::new("analyze"));
        assert_eq!(reloaded.get("worst"), eco.get("worst"));
        assert_eq!(reloaded.get("worst"), Some("2.449ns"));
        assert_eq!(fresh.fingerprint(), s.fingerprint());
        assert_ne!(s.fingerprint(), unedited.fingerprint(), "the edit is state");
    }

    #[test]
    fn stdio_loop_round_trips() {
        let mut wire = Vec::new();
        for f in [
            Frame::new("hello"),
            Frame::new("load").with_payload(PIPE),
            Frame::new("analyze"),
            Frame::new("shutdown"),
        ] {
            wire.extend_from_slice(f.encode().as_bytes());
        }
        let mut out = Vec::new();
        serve_stream(sc89(), std::io::Cursor::new(wire), &mut out).unwrap();
        let mut replies = hb_io::FrameReader::new(std::io::Cursor::new(out));
        let mut verbs = Vec::new();
        while let Some(f) = replies.read_frame().unwrap() {
            verbs.push(f.verb);
        }
        assert_eq!(verbs, ["ok", "ok", "ok", "ok"]);
    }
}
