//! The `serve`, `query` and `flow` subcommands: the thin shell around
//! [`hb_server`].
//!
//! ```text
//! hummingbird serve [--listen ADDR] [--stdio]
//!                   [--library FILE] [--max-conns N]
//!                   [--max-designs N] [--mem-budget BYTES]
//!                   [--standby-of ADDR] [--peers ADDR,ADDR,...]
//! hummingbird query ADDR [--design ID] [--timeout MS]
//!                        <request> [args...] [key=value...]
//! hummingbird query ADDR [--design ID] --pipeline [FILE]
//! hummingbird flow ADDR FILE [--designs N] [--ecos K] [--jobs C]
//!                            [--library FILE]
//!
//! requests:
//!   load FILE                 send a .hum (or .blif) design to the daemon
//!   analyze | constraints     (re-)run the analysis on the resident design
//!   slack NODE [NODE...]      slack at nets or synchronizer instances;
//!                             several nodes batch into one request
//!   worst-paths [K]           the K slowest paths (default 5)
//!   min-period                smallest feasible clock period, solved from
//!                             the resident parametric (symbolic) table
//!   slack-at period=P [node=N]  slack at an arbitrary period, evaluated
//!                             from the parametric table (no re-analysis)
//!   period-sweep lo=A hi=B step=S  feasibility/worst-slack table across
//!                             a period range, one frame
//!   eco resize INST [STEPS]   retarget an instance's drive strength
//!   eco scale-net NET PCT     scale a net's load to PCT percent
//!   open ID | close ID        open or close a design slot in the fleet
//!   designs                   list open designs (residency, journal, fp)
//!   metrics                   Prometheus-style text exposition of the
//!                             daemon's counters and histograms
//!   dump | stats | shutdown
//! ```
//!
//! `serve` prints `listening on IP:PORT` once the socket is bound (bind
//! port 0 for an ephemeral port), then blocks until a client sends
//! `shutdown`. One `poll(2)` event loop serves every connection and
//! answers settled reads itself; each design's writes run in order on
//! a worker thread of their own, so one tenant's analysis never
//! stalls another tenant's queries. `--max-designs` and
//! `--mem-budget` bound the resident session fleet (LRU eviction,
//! transparent journal reload); `--standby-of ADDR` runs this daemon
//! as a warm standby replicating the primary at ADDR, promoting itself
//! when the primary dies. `--peers` names the other cluster members:
//! promotion then requires a ranked majority vote (fencing terms keep
//! a partitioned ex-primary from accepting writes), and standbys can
//! chain off other standbys.
//!
//! `query --design ID` routes the request to one design of a
//! multi-tenant daemon; `--timeout MS` bounds the whole request for
//! scripted flows (a slow daemon becomes exit code 3, not a hang).
//!
//! `query --pipeline` reads one request per line from FILE (stdin when
//! absent; blank lines and `#` comments skipped), writes them down the
//! connection in pipelined windows, and prints the replies in order —
//! N requests for one round trip. Any trailing `key=value` words on a
//! `query` are passed through verbatim as request arguments — e.g.
//! `clock=ck:20:0:10` when loading a BLIF netlist.
//!
//! `flow` is the batch driver mirroring a synthesis loop: for each of
//! `--designs N` concurrent flows it opens its own design, loads FILE,
//! generates constraints, applies `--ecos K` engineering changes, and
//! prints a slack / worst-paths report bundle per design — in design
//! order, whatever `--jobs` interleaving served them. It doubles as
//! the fleet load generator for `server_bench`.

use std::io::Write;
use std::time::Duration;

use hb_io::Frame;
use hb_server::{serve_stream, Client, Server, ServerOptions};

use crate::{load_library, CliError};

const SERVE_USAGE: &str = "usage: hummingbird serve [--listen ADDR] [--stdio] \
[--library LIB.txt] [--max-conns N] [--max-designs N] [--mem-budget BYTES] [--standby-of ADDR] \
[--peers ADDR,ADDR,...]";
const QUERY_USAGE: &str = "usage: hummingbird query ADDR [--design ID] [--timeout MS] \
<load FILE | analyze | constraints | slack NODE [NODE...] | worst-paths [K] | \
min-period | slack-at period=P [node=N] | period-sweep lo=A hi=B step=S | \
eco resize INST [STEPS] | eco scale-net NET PCT | open ID | close ID | designs | \
dump | stats | metrics | shutdown> \
[key=value...]\n       hummingbird query ADDR [--design ID] --pipeline [FILE]";
const FLOW_USAGE: &str = "usage: hummingbird flow ADDR DESIGN.hum \
[--designs N] [--ecos K] [--jobs C] [--library LIB.txt]";

/// Frames per pipelined window: enough to amortise the round trip,
/// small enough that neither side's socket buffer fills with requests
/// while replies wait unread (which would deadlock both peers).
const PIPELINE_WINDOW: usize = 128;

/// `hummingbird serve`: bind, announce, block until `shutdown`.
pub fn run_serve(args: &[&str], out: &mut impl Write) -> Result<u8, CliError> {
    let mut listen = "127.0.0.1:0".to_owned();
    let mut stdio = false;
    let mut library = None;
    let mut options = ServerOptions::default();
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--listen" => {
                listen = it
                    .next()
                    .ok_or_else(|| CliError::usage("--listen needs a value"))?
                    .to_string();
            }
            "--stdio" => stdio = true,
            "--library" => library = it.next().map(|s| s.to_string()),
            "--max-conns" => {
                options.max_connections = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--max-conns needs a positive count"))?;
            }
            "--max-designs" => {
                options.max_designs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--max-designs needs a positive count"))?;
            }
            "--mem-budget" => {
                options.mem_budget = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::usage("--mem-budget needs a byte count"))?;
            }
            "--standby-of" => {
                options.standby_of = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--standby-of needs an address"))?
                        .to_string(),
                );
            }
            "--peers" => {
                options.peers = it
                    .next()
                    .ok_or_else(|| CliError::usage("--peers needs a comma-separated address list"))?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            other => {
                return Err(CliError::usage(format!(
                    "unexpected argument {other:?}\n{SERVE_USAGE}"
                )))
            }
        }
    }
    let library = load_library(library.as_deref())?;

    if stdio {
        // The TCP server arms in `run`; the stdio daemon arms here so
        // `query metrics` histograms carry data in both modes.
        hb_obs::arm();
        let stdin = std::io::stdin();
        serve_stream(library, stdin.lock(), out)
            .map_err(|e| CliError::io(format!("serve --stdio: {e}")))?;
        return Ok(0);
    }

    let server = Server::bind(&listen, library, options)
        .map_err(|e| CliError::io(format!("cannot bind {listen}: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::io(format!("serve: {e}")))?;
    // Announce before blocking so wrappers can scrape the port.
    writeln!(out, "listening on {addr}").map_err(|e| CliError::io(e.to_string()))?;
    out.flush().map_err(|e| CliError::io(e.to_string()))?;
    server
        .run()
        .map_err(|e| CliError::io(format!("serve: {e}")))?;
    writeln!(out, "shutdown complete").map_err(|e| CliError::io(e.to_string()))?;
    Ok(0)
}

/// `hummingbird query`: one request, one reply, one exit code.
pub fn run_query(args: &[&str], out: &mut impl Write) -> Result<u8, CliError> {
    let (addr, mut rest) = args
        .split_first()
        .ok_or_else(|| CliError::usage(QUERY_USAGE))?;
    // Leading flags, before the request word.
    let mut design: Option<&str> = None;
    let mut timeout: Option<Duration> = None;
    loop {
        match rest.first().copied() {
            Some("--design") => {
                design = Some(
                    rest.get(1)
                        .copied()
                        .ok_or_else(|| CliError::usage("--design needs an id"))?,
                );
                rest = &rest[2..];
            }
            Some("--timeout") => {
                let ms: u64 = rest
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--timeout needs milliseconds"))?;
                timeout = Some(Duration::from_millis(ms));
                rest = &rest[2..];
            }
            _ => break,
        }
    }
    let (&cmd, rest) = rest
        .split_first()
        .ok_or_else(|| CliError::usage(QUERY_USAGE))?;
    if cmd == "--pipeline" {
        return run_query_pipeline(addr, rest.first().copied(), design, out);
    }
    let mut request = build_request(cmd, rest)?;
    if let Some(design) = design {
        request = request.arg("design", design);
    }

    let reply = match timeout {
        // A deadline means exactly one attempt: scripted flows want a
        // bounded answer, not a retry loop stretching past it.
        Some(timeout) => {
            let mut client =
                Client::connect(*addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
            client
                .set_timeout(Some(timeout))
                .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
            client
                .request(&request)
                .map_err(|e| CliError::io(format!("{addr}: {e}")))?
        }
        // Overload-aware: a daemon at its connection cap (or holding
        // the session lock past its deadline) answers `busy
        // retry_after_ms=N`; retry with backoff instead of failing the
        // first shed.
        None => Client::request_with_backoff(*addr, &request, 5)
            .map_err(|e| CliError::io(format!("{addr}: {e}")))?,
    };

    print_reply(&reply, out)?;

    if reply.verb == "error" {
        let code = reply.get("code").unwrap_or("unknown");
        return Err(CliError::analysis(format!(
            "daemon refused {cmd:?}: {code}"
        )));
    }
    // Analysis-bearing replies carry the one-shot driver's verdict.
    Ok(match reply.get("ok") {
        Some("0") => 1,
        _ => 0,
    })
}

/// `hummingbird query ADDR --pipeline [FILE]`: one request per line,
/// written down the connection in pipelined windows, replies printed
/// in order. Exit code 1 if any reply was an error or a failed-timing
/// verdict.
fn run_query_pipeline(
    addr: &str,
    file: Option<&str>,
    design: Option<&str>,
    out: &mut impl Write,
) -> Result<u8, CliError> {
    let text = match file {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?,
        None => std::io::read_to_string(std::io::stdin())
            .map_err(|e| CliError::io(format!("cannot read stdin: {e}")))?,
    };
    let mut requests = Vec::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.split_first() {
            None => continue,
            Some((cmd, _)) if cmd.starts_with('#') => continue,
            Some((cmd, rest)) => {
                let mut request = build_request(cmd, rest)?;
                if let Some(design) = design {
                    request = request.arg("design", design);
                }
                requests.push(request);
            }
        }
    }
    if requests.is_empty() {
        return Err(CliError::usage("query --pipeline: no requests to send"));
    }

    let mut client = Client::connect(addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let mut code = 0u8;
    for window in requests.chunks(PIPELINE_WINDOW) {
        let replies = client
            .request_pipelined(window)
            .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
        for reply in &replies {
            print_reply(reply, out)?;
            if reply.verb == "error" || reply.get("ok") == Some("0") {
                code = 1;
            }
        }
    }
    Ok(code)
}

/// `hummingbird flow`: N concurrent design flows against one daemon —
/// the multi-tenant batch driver and fleet load generator.
pub fn run_flow(args: &[&str], out: &mut impl Write) -> Result<u8, CliError> {
    let (addr, rest) = args
        .split_first()
        .ok_or_else(|| CliError::usage(FLOW_USAGE))?;
    let (&file, rest) = rest
        .split_first()
        .ok_or_else(|| CliError::usage(FLOW_USAGE))?;
    let mut designs = 4usize;
    let mut ecos = 4usize;
    let mut jobs = 0usize;
    let mut library = None;
    let mut it = rest.iter();
    while let Some(&arg) = it.next() {
        let mut count = |name: &str| -> Result<usize, CliError> {
            it.next()
                .and_then(|s| s.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| CliError::usage(format!("{name} needs a positive count")))
        };
        match arg {
            "--designs" => designs = count("--designs")?,
            "--ecos" => ecos = count("--ecos")?,
            "--jobs" => jobs = count("--jobs")?,
            "--library" => library = it.next().map(|s| s.to_string()),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected argument {other:?}\n{FLOW_USAGE}"
                )))
            }
        }
    }
    let jobs = if jobs == 0 { designs.min(8) } else { jobs };
    let library = load_library(library.as_deref())?;
    let text = std::fs::read_to_string(file)
        .map_err(|e| CliError::io(format!("cannot read {file}: {e}")))?;
    // Parse locally once: the ECO loop and the slack bundle target
    // real nets of this design, picked deterministically.
    let parsed =
        hb_io::parse_hum(&text, &library).map_err(|e| CliError::parse(format!("{file}: {e}")))?;
    let top = parsed
        .design
        .top()
        .ok_or_else(|| CliError::parse("the design has no `top` directive"))?;
    let nets: Vec<String> = parsed
        .design
        .module(top)
        .nets()
        .map(|(_, n)| n.name().to_owned())
        .collect();
    if nets.is_empty() {
        return Err(CliError::analysis("the design has no nets to flow over"));
    }

    // One worker per job, striding the design list; every worker keeps
    // its own connection, so `--jobs` is also the concurrency the
    // daemon sees.
    let outcomes: Vec<FlowOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for job in 0..jobs.min(designs) {
            let text = &text;
            let nets = &nets;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                for i in (job..designs).step_by(jobs) {
                    mine.push((i, run_one_flow(addr, i, text, nets, ecos)));
                }
                mine
            }));
        }
        let mut all: Vec<(usize, FlowOutcome)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("flow worker panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, outcome)| outcome).collect()
    });

    let io = |e: std::io::Error| CliError::io(format!("write failed: {e}"));
    let mut code = 0u8;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok((bundle, met)) => {
                write!(out, "{bundle}").map_err(io)?;
                if !met {
                    code = 1;
                }
            }
            Err(e) => {
                return Err(CliError::analysis(format!("flow{i}: {e}")));
            }
        }
    }
    Ok(code)
}

/// One flow's outcome: the printable report bundle and whether the
/// final timing was met (`Err` carries the failing request's reply).
type FlowOutcome = Result<(String, bool), String>;

/// One design's flow: open → load → constraints → ECO loop → slack /
/// worst-paths bundle.
fn run_one_flow(addr: &str, index: usize, text: &str, nets: &[String], ecos: usize) -> FlowOutcome {
    let design = format!("flow{index}");
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut send = |req: Frame| -> Result<Frame, String> {
        let req = req.arg("design", &design);
        let reply = client.request(&req).map_err(|e| e.to_string())?;
        if reply.verb != "ok" {
            return Err(format!(
                "`{}` answered {}: {}",
                req.verb,
                reply.get("code").unwrap_or(&reply.verb),
                reply.payload.as_deref().unwrap_or("").trim_end()
            ));
        }
        Ok(reply)
    };

    send(Frame::new("open"))?;
    send(Frame::new("load").with_payload(text.to_owned()))?;
    send(Frame::new("constraints"))?;
    // The ECO loop: deterministic load scaling round-robin over the
    // design's nets, nudging up and down so successive flows diverge
    // without drifting monotonically.
    for e in 0..ecos {
        let net = &nets[e % nets.len()];
        let percent = if e % 2 == 0 { 110 } else { 91 };
        send(
            Frame::new("eco")
                .arg("op", "scale-net")
                .arg("net", net)
                .arg("percent", percent),
        )?;
    }
    let report = send(Frame::new("analyze"))?;
    let met = report.get("ok") == Some("1");
    let mut slack = Frame::new("slack");
    for net in nets.iter().take(8) {
        slack = slack.arg("node", net);
    }
    let slacks = send(slack)?;
    let paths = send(Frame::new("worst-paths").arg("k", 3))?;

    let mut bundle = format!(
        "== {design}: ok={} worst={} period={} ==\n",
        report.get("ok").unwrap_or("?"),
        report.get("worst").unwrap_or("?"),
        report.get("period").unwrap_or("?"),
    );
    bundle.push_str("slack bundle:\n");
    bundle.push_str(slacks.payload.as_deref().unwrap_or(""));
    bundle.push_str("worst paths:\n");
    bundle.push_str(paths.payload.as_deref().unwrap_or(""));
    Ok((bundle, met))
}

/// Writes one reply: the header line, then the payload verbatim.
fn print_reply(reply: &Frame, out: &mut impl Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError::io(format!("write failed: {e}"));
    let mut line = reply.verb.clone();
    for (key, value) in &reply.args {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        line.push_str(value);
    }
    writeln!(out, "{line}").map_err(io)?;
    if let Some(payload) = &reply.payload {
        out.write_all(payload.as_bytes()).map_err(io)?;
        if !payload.ends_with('\n') {
            writeln!(out).map_err(io)?;
        }
    }
    Ok(())
}

/// Translates a query command line into a request frame. Trailing
/// `key=value` words pass through as arguments.
fn build_request(cmd: &str, rest: &[&str]) -> Result<Frame, CliError> {
    let need = |what: &str, value: Option<&&str>| -> Result<String, CliError> {
        value
            .map(|s| s.to_string())
            .ok_or_else(|| CliError::usage(format!("query {cmd} needs {what}\n{QUERY_USAGE}")))
    };
    let (mut frame, used) = match cmd {
        "hello" | "analyze" | "constraints" | "dump" | "stats" | "metrics" | "shutdown"
        | "designs" | "min-period" | "slack-at" | "period-sweep" => (Frame::new(cmd), 0),
        "open" | "close" => {
            let id = need("a design id", rest.first())?;
            (Frame::new(cmd).arg("design", id), 1)
        }
        "load" => {
            let path = need("a design file", rest.first())?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
            let mut frame = Frame::new("load").with_payload(text);
            if path.ends_with(".blif") {
                frame = frame.arg("format", "blif");
            }
            (frame, 1)
        }
        "slack" => {
            // Every leading non-`key=value` word is a node; several
            // nodes ride in one batched request.
            let nodes: Vec<&str> = rest
                .iter()
                .take_while(|s| !s.contains('='))
                .copied()
                .collect();
            need("a node name", nodes.first())?;
            let mut frame = Frame::new("slack");
            for node in &nodes {
                frame = frame.arg("node", *node);
            }
            (frame, nodes.len())
        }
        "worst-paths" => match rest.first().filter(|s| !s.contains('=')) {
            Some(&k) => (Frame::new("worst-paths").arg("k", k), 1),
            None => (Frame::new("worst-paths"), 0),
        },
        "eco" => match rest.first().copied() {
            Some("resize") => {
                let inst = need("an instance name", rest.get(1))?;
                let steps = rest.get(2).filter(|s| !s.contains('=')).copied();
                let frame = Frame::new("eco")
                    .arg("op", "resize")
                    .arg("inst", inst)
                    .arg("steps", steps.unwrap_or("1"));
                (frame, if steps.is_some() { 3 } else { 2 })
            }
            Some("scale-net") => (
                Frame::new("eco")
                    .arg("op", "scale-net")
                    .arg("net", need("a net name", rest.get(1))?)
                    .arg("percent", need("a percentage", rest.get(2))?),
                3,
            ),
            _ => {
                return Err(CliError::usage(format!(
                    "query eco needs resize or scale-net\n{QUERY_USAGE}"
                )))
            }
        },
        other => {
            return Err(CliError::usage(format!(
                "unknown request {other:?}\n{QUERY_USAGE}"
            )))
        }
    };
    for extra in &rest[used..] {
        let (key, value) = extra.split_once('=').ok_or_else(|| {
            CliError::usage(format!("expected key=value, got {extra:?}\n{QUERY_USAGE}"))
        })?;
        frame = frame.arg(key, value);
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_building() {
        let f = build_request("analyze", &["latch=edge"]).unwrap();
        assert_eq!(f.verb, "analyze");
        assert_eq!(f.get("latch"), Some("edge"));

        let f = build_request("slack", &["mid"]).unwrap();
        assert_eq!(f.get("node"), Some("mid"));

        // Multiple nodes batch into one request; key=value trailers
        // still pass through.
        let f = build_request("slack", &["a", "b", "c", "latch=edge"]).unwrap();
        assert_eq!(f.get_all("node").collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(f.get("latch"), Some("edge"));

        // The what-if verbs are zero-positional; their `key=value`
        // arguments ride through the trailer path.
        let f = build_request("min-period", &[]).unwrap();
        assert_eq!(f.verb, "min-period");
        let f = build_request("slack-at", &["period=12ns", "node=mid"]).unwrap();
        assert_eq!(f.get("period"), Some("12ns"));
        assert_eq!(f.get("node"), Some("mid"));
        let f = build_request("period-sweep", &["lo=8ns", "hi=20ns", "step=1ns"]).unwrap();
        assert_eq!(f.get("lo"), Some("8ns"));
        assert_eq!(f.get("step"), Some("1ns"));

        let f = build_request("worst-paths", &[]).unwrap();
        assert!(f.get("k").is_none());
        let f = build_request("worst-paths", &["7"]).unwrap();
        assert_eq!(f.get("k"), Some("7"));

        let f = build_request("eco", &["resize", "u1"]).unwrap();
        assert_eq!(f.get("steps"), Some("1"));
        let f = build_request("eco", &["resize", "u1", "-1"]).unwrap();
        assert_eq!(f.get("steps"), Some("-1"));
        let f = build_request("eco", &["scale-net", "w", "150"]).unwrap();
        assert_eq!(f.get("percent"), Some("150"));

        // Fleet management verbs: open/close take a positional design
        // id, designs takes nothing.
        let f = build_request("open", &["soc_a"]).unwrap();
        assert_eq!(f.get("design"), Some("soc_a"));
        let f = build_request("close", &["soc_a"]).unwrap();
        assert_eq!(f.get("design"), Some("soc_a"));
        let f = build_request("designs", &[]).unwrap();
        assert_eq!(f.verb, "designs");

        assert!(build_request("eco", &[]).is_err());
        assert!(build_request("slack", &[]).is_err());
        assert!(build_request("open", &[]).is_err());
        assert!(build_request("teleport", &[]).is_err());
        assert!(build_request("analyze", &["positional"]).is_err());
    }
}
