//! The `hummingbird` command-line driver, as a testable library.
//!
//! ```text
//! hummingbird check       <design.hum>
//! hummingbird analyze     <design.hum> [options]
//! hummingbird constraints <design.hum> [options]
//! hummingbird passes      <design.hum> [options]
//! hummingbird resynth     <design.hum> -o <out.hum> [options]
//! hummingbird sweep       <design.hum> [--scales 50,75,100,150] [options]
//! hummingbird serve       [--listen ADDR | --stdio] [--library FILE]
//! hummingbird query       [--design ID] [--timeout MS] <ADDR> <request> [args...]
//! hummingbird flow        <ADDR> <design.hum> [--designs N] [--ecos K] [--jobs C]
//! hummingbird gen         --kind <pipeline|sbox|sram> --cells N --seed S
//!                         [--clocks C] [-o OUT.hum]
//!
//! options:
//!   --clock-port PORT=CLOCK   bind a module port to a clock waveform
//!                             (default: every clock binds the port with
//!                             its own name, when one exists)
//!   --arrive PORT=TIME        data-input arrival offset after the first
//!                             timeline edge (e.g. --arrive din=2ns)
//!   --require PORT=TIME       output required offset, same reference
//!   --edge-triggered          use the McWilliams-style latch baseline
//!   --min-delays              also check supplementary (hold) constraints
//!   --min-period              analyze: report the smallest feasible clock
//!                             period, solved from one symbolic (parametric)
//!                             analysis instead of a binary search
//!   --profile                 arm timing instrumentation and print a
//!                             phase breakdown (parse / shard build /
//!                             sweep passes / report) after analyze
//!   --paths N                 print at most N slow paths (default 5)
//!   --scales LIST             sweep: comma-separated clock-scale percents
//!   --library FILE            liberty-lite cell library (default: built-in sc89)
//! ```
//!
//! Designs may carry their own boundary timing (`clockport`, `arrive`,
//! `require` directives in the `.hum` file); command-line options
//! override file directives.
//!
//! Designs are `.hum` files (see [`hb_io`]) carrying their clock
//! waveforms; cells resolve against the built-in `sc89` library.

use std::fmt;
use std::io::Write;

use hb_cells::{sc89, Library};
use hb_clock::ClockSet;
use hb_io::{HumFile, TimingDirective};
use hb_units::{Time, Transition};
use hummingbird::{AnalysisOptions, Analyzer, LatchModel, SlackCache};

mod daemon;

/// What went wrong, for exit-code purposes. Scripts driving the CLI
/// can tell a typo from a corrupt netlist from a full disk:
///
/// | exit | meaning                                         |
/// |------|-------------------------------------------------|
/// | 0    | success (timing met, where applicable)          |
/// | 1    | analysis ran; timing is infeasible              |
/// | 2    | bad command-line usage                          |
/// | 3    | the OS refused a read, write, bind, or connect  |
/// | 4    | an input file failed to parse                   |
/// | 5    | the design is invalid or outside the supported  |
/// |      | class, or a daemon request was refused          |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad command-line usage.
    Usage,
    /// A filesystem or network operation failed.
    Io,
    /// An input file (design, library, BLIF) failed to parse.
    Parse,
    /// The analyzer or daemon refused the request.
    Analysis,
}

/// A fatal driver error (bad usage, unreadable file, analysis refusal).
#[derive(Debug)]
pub struct CliError {
    kind: ErrorKind,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Usage,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Io,
            message: message.into(),
        }
    }

    fn parse(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Parse,
            message: message.into(),
        }
    }

    fn analysis(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Analysis,
            message: message.into(),
        }
    }

    /// The error's category.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The process exit code this error maps to (see [`ErrorKind`]).
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 2,
            ErrorKind::Io => 3,
            ErrorKind::Parse => 4,
            ErrorKind::Analysis => 5,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parsed command-line options.
struct Options {
    command: String,
    input: String,
    output: Option<String>,
    clock_ports: Vec<(String, String)>,
    arrivals: Vec<(String, Time)>,
    requireds: Vec<(String, Time)>,
    edge_triggered: bool,
    min_delays: bool,
    min_period: bool,
    profile: bool,
    max_paths: usize,
    scales: Vec<u32>,
    library: Option<String>,
    threads: usize,
}

fn parse_args(args: &[&str]) -> Result<Options, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| CliError::usage(USAGE))?.to_string();
    if ![
        "check",
        "analyze",
        "constraints",
        "passes",
        "resynth",
        "sweep",
    ]
    .contains(&command.as_str())
    {
        return Err(CliError::usage(format!(
            "unknown command {command:?}\n{USAGE}"
        )));
    }
    let mut opts = Options {
        command,
        input: String::new(),
        output: None,
        clock_ports: Vec::new(),
        arrivals: Vec::new(),
        requireds: Vec::new(),
        edge_triggered: false,
        min_delays: false,
        min_period: false,
        profile: false,
        max_paths: 5,
        scales: vec![50, 75, 100, 150, 200],
        library: None,
        threads: 0,
    };
    while let Some(&arg) = it.next() {
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| CliError::usage(format!("{name} needs a value")))
        };
        match arg {
            "--clock-port" => {
                let v = value("--clock-port")?;
                let (p, c) = v
                    .split_once('=')
                    .ok_or_else(|| CliError::usage("--clock-port expects PORT=CLOCK"))?;
                opts.clock_ports.push((p.to_owned(), c.to_owned()));
            }
            "--arrive" | "--require" => {
                let v = value(arg)?;
                let (p, t) = v
                    .split_once('=')
                    .ok_or_else(|| CliError::usage(format!("{arg} expects PORT=TIME")))?;
                let t: Time = t
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad time in {arg}: {e}")))?;
                if arg == "--arrive" {
                    opts.arrivals.push((p.to_owned(), t));
                } else {
                    opts.requireds.push((p.to_owned(), t));
                }
            }
            "--edge-triggered" => opts.edge_triggered = true,
            "--min-delays" => opts.min_delays = true,
            "--min-period" => opts.min_period = true,
            "--profile" => opts.profile = true,
            "--paths" => {
                opts.max_paths = value("--paths")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad --paths value: {e}")))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad --threads value: {e}")))?;
            }
            "--scales" => {
                let list = value("--scales")?;
                opts.scales = list
                    .split(',')
                    .map(|t| t.trim().parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| CliError::usage(format!("bad --scales value: {e}")))?;
                if opts.scales.is_empty() || opts.scales.contains(&0) {
                    return Err(CliError::usage("--scales needs positive percentages"));
                }
            }
            "--library" => opts.library = Some(value("--library")?),
            "-o" | "--output" => opts.output = Some(value(arg)?),
            other if !other.starts_with('-') && opts.input.is_empty() => {
                opts.input = other.to_owned();
            }
            other => {
                return Err(CliError::usage(format!(
                    "unexpected argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    if opts.input.is_empty() {
        return Err(CliError::usage(format!("missing input file\n{USAGE}")));
    }
    Ok(opts)
}

const USAGE: &str =
    "usage: hummingbird <check|analyze|constraints|passes|resynth|sweep|serve|query|flow|gen> \
<design.hum> [--clock-port PORT=CLOCK] [--arrive PORT=TIME] [--require PORT=TIME] \
[--edge-triggered] [--min-delays] [--min-period] [--profile] [--paths N] [--threads N] \
[--scales 50,100,150] [--library LIB.txt] [-o OUT.hum]
  --threads N   worker threads for the slack engine's per-cluster sweeps
                (0 = all available cores; results are identical at any count)
  --profile     arm timing instrumentation and print a phase breakdown
                (parse / shard build / sweep passes / report) after analyze
  gen           hummingbird gen --kind <pipeline|sbox|sram> --cells N \
--seed S [--clocks C] [-o OUT.hum]";

fn load_library(path: Option<&str>) -> Result<Library, CliError> {
    match path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
            hb_io::parse_lib(&text).map_err(|e| CliError::parse(format!("{path}: {e}")))
        }
        None => Ok(sc89()),
    }
}

fn load(path: &str, library: &Library) -> Result<HumFile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    hb_io::parse_hum(&text, library).map_err(|e| CliError::parse(format!("{path}: {e}")))
}

/// The file's timing directives followed by the command-line
/// overrides: each `--clock-port` as a `clockport` directive (so it
/// turns the default clock-port rule off), each `--arrive` and
/// `--require` on the first clock's rising edge. A design without
/// clocks gets none; `spec_from_directives` refuses it.
fn with_overrides(
    opts: &Options,
    clocks: &ClockSet,
    mut directives: Vec<TimingDirective>,
) -> Vec<TimingDirective> {
    directives.extend(
        opts.clock_ports
            .iter()
            .map(|(port, clock)| TimingDirective::ClockPort {
                port: port.clone(),
                clock: clock.clone(),
            }),
    );
    if let Some((_, first)) = clocks.clocks().next() {
        let edge = (first.name().to_owned(), Transition::Rise, 0);
        directives.extend(
            opts.arrivals
                .iter()
                .map(|(port, offset)| TimingDirective::Arrive {
                    port: port.clone(),
                    edge: edge.clone(),
                    offset: *offset,
                }),
        );
        directives.extend(
            opts.requireds
                .iter()
                .map(|(port, offset)| TimingDirective::Require {
                    port: port.clone(),
                    edge: edge.clone(),
                    offset: *offset,
                }),
        );
    }
    directives
}

/// Proportionally rescales every clock waveform to `pct` percent.
///
/// Every edge of every clock scales through one rational rounding rule
/// (round half up on `ps·pct/100`) — truncating here used to push
/// harmonically related clocks out of ratio and let rise/fall edges
/// land past the truncated period. Rounding keeps related waveforms
/// together whenever the arithmetic allows it; when a percent cannot
/// preserve the original period ratios at picosecond resolution the
/// sweep point is refused instead of silently analysing a different
/// clock system.
fn scale_clocks(clocks: &ClockSet, pct: u32) -> Result<ClockSet, CliError> {
    let scale = |t: Time| Time::from_ps((t.as_ps() * i64::from(pct) + 50) / 100);
    let mut scaled = ClockSet::new();
    let mut first: Option<(String, i64, i64)> = None; // (name, orig, scaled) periods
    for (_, clock) in clocks.clocks() {
        let period = scale(clock.period());
        // Cross-multiply against the first clock: one exact common
        // ratio means every pairwise harmonic ratio survived.
        match &first {
            None => {
                first = Some((
                    clock.name().to_owned(),
                    clock.period().as_ps(),
                    period.as_ps(),
                ))
            }
            Some((name0, orig0, new0)) => {
                let lhs = i128::from(*orig0) * i128::from(period.as_ps());
                let rhs = i128::from(*new0) * i128::from(clock.period().as_ps());
                if lhs != rhs {
                    return Err(CliError::analysis(format!(
                        "scale {pct}%: cannot preserve the harmonic ratio between clocks \
                         {name0:?} and {:?} at picosecond resolution",
                        clock.name()
                    )));
                }
            }
        }
        scaled
            .add_clock(
                clock.name(),
                period,
                scale(clock.rise()),
                scale(clock.fall()),
            )
            .map_err(|e| CliError::analysis(format!("scale {pct}%: {e}")))?;
    }
    Ok(scaled)
}

/// `hummingbird gen`: emit a generated at-scale design as `.hum`.
fn run_gen(args: &[&str], out: &mut impl Write) -> Result<u8, CliError> {
    let mut kind: Option<hb_workloads::GenKind> = None;
    let mut cells: Option<usize> = None;
    let mut seed = 1u64;
    let mut clocks = 4usize;
    let mut output: Option<String> = None;
    let mut library: Option<String> = None;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .copied()
                .ok_or_else(|| CliError::usage(format!("{what} needs a value\n{USAGE}")))
        };
        match arg {
            "--kind" | "-k" => {
                let v = value("--kind")?;
                kind = Some(hb_workloads::GenKind::parse(v).ok_or_else(|| {
                    CliError::usage(format!("unknown kind {v:?} (pipeline|sbox|sram)"))
                })?);
            }
            "--cells" | "-n" => {
                let v = value("--cells")?;
                cells = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("--cells wants a positive integer, got {v:?}"))
                })?);
            }
            "--seed" | "-s" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| {
                    CliError::usage(format!("--seed wants an unsigned integer, got {v:?}"))
                })?;
            }
            "--clocks" => {
                let v = value("--clocks")?;
                clocks = v.parse().map_err(|_| {
                    CliError::usage(format!("--clocks wants an integer, got {v:?}"))
                })?;
                if !(2..=8).contains(&clocks) {
                    return Err(CliError::usage("--clocks must be between 2 and 8"));
                }
            }
            "-o" | "--output" => output = Some(value("--output")?.to_owned()),
            "--library" => library = Some(value("--library")?.to_owned()),
            other => {
                return Err(CliError::usage(format!(
                    "unexpected argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    let kind = kind.ok_or_else(|| CliError::usage(format!("gen needs --kind\n{USAGE}")))?;
    let cells = cells.ok_or_else(|| CliError::usage(format!("gen needs --cells\n{USAGE}")))?;
    const MAX_GEN_CELLS: usize = 2_000_000;
    if !(hb_workloads::MIN_GEN_CELLS..=MAX_GEN_CELLS).contains(&cells) {
        return Err(CliError::usage(format!(
            "--cells must be between {} and {MAX_GEN_CELLS}",
            hb_workloads::MIN_GEN_CELLS
        )));
    }
    let lib = load_library(library.as_deref())?;
    let params = hb_workloads::GenParams {
        kind,
        cells,
        seed,
        clocks,
    };
    let start = std::time::Instant::now();
    let workload = hb_workloads::generate(&lib, &params);
    let text = workload.to_hum();
    let gen_seconds = start.elapsed().as_secs_f64();
    let io = |e: std::io::Error| CliError::io(format!("write failed: {e}"));
    match output {
        Some(path) => {
            std::fs::write(&path, &text)
                .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
            let stats = workload.stats();
            writeln!(
                out,
                "generated {} seed {} ({} cells, {} nets, {} clocks) in {:.2}s -> {path}",
                kind.name(),
                seed,
                stats.cells,
                stats.nets,
                clocks,
                gen_seconds,
            )
            .map_err(io)?;
        }
        None => out.write_all(text.as_bytes()).map_err(io)?,
    }
    Ok(0)
}

/// Runs the driver. Returns the process exit code: 0 on success (and
/// timing met, for `analyze`), 1 when the analysis found violations.
///
/// # Errors
///
/// Returns [`CliError`] for usage errors, unreadable or unparsable
/// inputs, and designs outside the analyzer's supported class.
pub fn run(args: &[&str], out: &mut impl Write) -> Result<u8, CliError> {
    match args.first() {
        Some(&"serve") => return daemon::run_serve(&args[1..], out),
        Some(&"query") => return daemon::run_query(&args[1..], out),
        Some(&"flow") => return daemon::run_flow(&args[1..], out),
        Some(&"gen") => return run_gen(&args[1..], out),
        _ => {}
    }
    let opts = parse_args(args)?;
    if opts.profile {
        // Arm before any analysis so spans read the clock; disarmed
        // (the default) they cost one relaxed load.
        hb_obs::arm();
    }
    let library = load_library(opts.library.as_deref())?;
    let parse_start = std::time::Instant::now();
    let file = load(&opts.input, &library)?;
    let parse_seconds = parse_start.elapsed().as_secs_f64();
    let design = file.design;
    let top = design
        .top()
        .ok_or_else(|| CliError::parse("the design has no `top` directive"))?;
    design
        .validate()
        .map_err(|e| CliError::analysis(format!("invalid design: {e}")))?;

    let io = |e: std::io::Error| CliError::io(format!("write failed: {e}"));

    if opts.command == "check" {
        let stats = design.stats(top);
        writeln!(
            out,
            "{}: ok ({} cells, {} nets, depth {})",
            opts.input, stats.cells, stats.nets, stats.depth
        )
        .map_err(io)?;
        return Ok(0);
    }

    let directives = with_overrides(&opts, &file.clocks, file.timing);
    let spec = hb_server::spec_from_directives(&design, top, &file.clocks, &directives)
        .map_err(CliError::analysis)?;
    let options = AnalysisOptions {
        latch_model: if opts.edge_triggered {
            LatchModel::EdgeTriggered
        } else {
            LatchModel::Transparent
        },
        check_min_delays: opts.min_delays,
        threads: opts.threads,
        ..AnalysisOptions::default()
    };

    if opts.command == "resynth" {
        let mut design = design;
        let outcome = hb_resynth::optimize(
            &mut design,
            top,
            &library,
            &file.clocks,
            &spec,
            hb_resynth::ResynthOptions::default(),
        )
        .map_err(|e| CliError::analysis(e.to_string()))?;
        writeln!(
            out,
            "resynthesis: met={} after {} iterations, {} resizes, {} buffers",
            outcome.met, outcome.iterations, outcome.resizes, outcome.buffers
        )
        .map_err(io)?;
        if let Some(path) = &opts.output {
            let text = hb_io::write_hum(&design, &file.clocks);
            std::fs::write(path, text)
                .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
            writeln!(out, "wrote {path}").map_err(io)?;
        }
        return Ok(u8::from(!outcome.met));
    }

    if opts.command == "sweep" {
        writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>6}",
            "scale", "overall", "worst", "ok"
        )
        .map_err(io)?;
        // One resident cache across the whole sweep: consecutive scale
        // points only move the clock-derived seed offsets, so every
        // cluster whose seed signature repeats is reused, not re-swept.
        let mut cache = SlackCache::new();
        let mut all_met = true;
        for &pct in &opts.scales {
            let scaled = scale_clocks(&file.clocks, pct)?;
            let analyzer =
                Analyzer::with_options(&design, top, &library, &scaled, spec.clone(), options)
                    .map_err(|e| CliError::analysis(e.to_string()))?;
            let report = analyzer.analyze_with_cache(&mut cache);
            all_met &= report.ok();
            writeln!(
                out,
                "{:>7}% {:>10} {:>12} {:>6}",
                pct,
                report.overall_period().to_string(),
                report.worst_slack().to_string(),
                if report.ok() { "yes" } else { "no" }
            )
            .map_err(io)?;
        }
        // Worst point wins: any infeasible scale fails the sweep.
        return Ok(u8::from(!all_met));
    }

    let analyzer = Analyzer::with_options(&design, top, &library, &file.clocks, spec, options)
        .map_err(|e| CliError::analysis(e.to_string()))?;

    if opts.command == "analyze" && opts.min_period {
        // One symbolic analysis answers the feasibility question for
        // every grid period at once — no binary search, no re-sweeps.
        let param = analyzer
            .parametric()
            .map_err(|e| CliError::analysis(e.to_string()))?;
        let (lo, hi) = param.domain();
        writeln!(
            out,
            "parametric table: stride {}, domain [{lo}, {hi}], {} regions",
            param.stride(),
            param.region_count()
        )
        .map_err(io)?;
        return match param.min_feasible_period() {
            Some(p) => {
                writeln!(
                    out,
                    "min feasible period: {p} (nominal {})",
                    param.nominal_period()
                )
                .map_err(io)?;
                Ok(0)
            }
            None => {
                writeln!(out, "no feasible period within [{lo}, {hi}]").map_err(io)?;
                Ok(1)
            }
        };
    }

    if opts.command == "passes" {
        write!(out, "{}", hb_clock::render_waveforms(&file.clocks, 64)).map_err(io)?;
        write!(
            out,
            "{}",
            hb_clock::render_markers(&file.clocks, 64, analyzer.pass_starts(), "window starts")
        )
        .map_err(io)?;
        let stats = analyzer.prep_stats();
        writeln!(
            out,
            "overall period {}: {} active clusters, {} requirements, \
             {} cluster passes total (max {} per cluster), {} global windows",
            analyzer.overall_period(),
            stats.active_clusters,
            stats.requirements,
            stats.total_cluster_passes,
            stats.max_cluster_passes,
            stats.global_passes
        )
        .map_err(io)?;
        for (i, start) in analyzer.pass_starts().iter().enumerate() {
            writeln!(out, "pass {i}: window opens at {start}").map_err(io)?;
        }
        return Ok(0);
    }

    let report = if opts.command == "constraints" {
        analyzer.generate_constraints()
    } else {
        analyzer.analyze()
    };
    let report_start = std::time::Instant::now();
    writeln!(out, "{report}").map_err(io)?;
    // Slack distribution: one bar per nanosecond bucket.
    writeln!(out, "terminal slack distribution:").map_err(io)?;
    for (lo, n) in report.slack_histogram(Time::from_ns(1), 12) {
        if n > 0 {
            writeln!(
                out,
                "  {:>10} .. | {}",
                lo.to_string(),
                "#".repeat(n.min(60))
            )
            .map_err(io)?;
        }
    }
    for path in report.slow_paths().iter().take(opts.max_paths) {
        writeln!(
            out,
            "slow path into {} (slack {}):",
            path.endpoint, path.slack
        )
        .map_err(io)?;
        for step in &path.steps {
            match &step.through {
                Some(inst) => writeln!(out, "    -> {} via {} at {}", step.net, inst, step.time)
                    .map_err(io)?,
                None => writeln!(out, "    from {} at {}", step.net, step.time).map_err(io)?,
            }
        }
    }
    for v in report.min_delay_violations() {
        writeln!(out, "{v}").map_err(io)?;
    }
    if opts.command == "constraints" {
        let constraints = report.constraints().expect("generated");
        writeln!(out, "net constraints (ready / required):").map_err(io)?;
        let module = design.module(top);
        for (net, n) in module.nets() {
            if let (Some(r), Some(q)) = (constraints.ready_at(net), constraints.required_at(net)) {
                writeln!(out, "  {:<24} {} / {}", n.name(), r, q).map_err(io)?;
            }
        }
    }
    if opts.profile {
        let report_seconds = report_start.elapsed().as_secs_f64();
        writeln!(out, "profile (wall seconds):").map_err(io)?;
        writeln!(out, "  parse        {parse_seconds:>10.6}").map_err(io)?;
        writeln!(out, "  shard build  {:>10.6}", report.prep_seconds()).map_err(io)?;
        writeln!(out, "  sweep passes {:>10.6}", report.analysis_seconds()).map_err(io)?;
        writeln!(out, "  report       {report_seconds:>10.6}").map_err(io)?;
        // Per-pass sweep-item latency, from the armed engine histograms
        // (registration is idempotent, so this reads the same series
        // the engine recorded into).
        for pass in 0..analyzer.pass_starts().len() {
            let h = hb_obs::global().histogram_with(
                "hb_engine_sweep_nanoseconds",
                "duration of one (cluster, pass) sweep item, by global pass",
                &[("pass", &pass.to_string())],
            );
            if h.count() > 0 {
                writeln!(
                    out,
                    "  pass {pass}: {} sweeps, p50 {} ns, p95 {} ns, max {} ns",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.max()
                )
                .map_err(io)?;
            }
        }
    }
    Ok(u8::from(!report.ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors() {
        let mut buf = Vec::new();
        assert!(run(&[], &mut buf).is_err());
        assert!(run(&["frobnicate", "x.hum"], &mut buf).is_err());
        assert!(run(&["analyze"], &mut buf).is_err());
        assert!(run(&["analyze", "x.hum", "--paths", "NaN"], &mut buf).is_err());
        assert!(run(&["analyze", "/nonexistent/x.hum"], &mut buf).is_err());
    }

    #[test]
    fn option_parsing() {
        let o = parse_args(&[
            "analyze",
            "d.hum",
            "--clock-port",
            "ck=phi1",
            "--arrive",
            "a=2ns",
            "--require",
            "y=0ps",
            "--edge-triggered",
            "--min-delays",
            "--paths",
            "9",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(o.command, "analyze");
        assert_eq!(o.input, "d.hum");
        assert_eq!(o.clock_ports, vec![("ck".into(), "phi1".into())]);
        assert_eq!(o.arrivals, vec![("a".into(), Time::from_ns(2))]);
        assert_eq!(o.threads, 4);
        assert_eq!(o.requireds, vec![("y".into(), Time::ZERO)]);
        assert!(o.edge_triggered && o.min_delays);
        assert_eq!(o.max_paths, 9);
    }

    /// A `--clock-port` flag turns the default clock-port rule off: the
    /// port named like the clock stays a data input, so the report lists
    /// it as a primary-input terminal.
    #[test]
    fn clock_port_flag_keeps_a_clock_named_port_a_primary_input() {
        let text = "\
design portnames
module top
  port in ck clk
  port out y
  inst u1 INV_X1 A=ck Y=w1
  inst ff DFF D=w1 CK=clk Q=y
end
top top
clock ck period 1ns rise 0ns fall 500ps
";
        let library = sc89();
        let file = hb_io::parse_hum(text, &library).unwrap();
        let top = file.design.top().unwrap();
        let spec = |args: &[&str]| {
            let opts = parse_args(args).unwrap();
            let directives = with_overrides(&opts, &file.clocks, file.timing.clone());
            hb_server::spec_from_directives(&file.design, top, &file.clocks, &directives).unwrap()
        };
        let default = spec(&["analyze", "d.hum"]);
        assert_eq!(default.clock_ports().collect::<Vec<_>>(), [("ck", "ck")]);

        let flagged = spec(&["analyze", "d.hum", "--clock-port", "clk=ck"]);
        assert_eq!(flagged.clock_ports().collect::<Vec<_>>(), [("clk", "ck")]);
        let report = Analyzer::new(&file.design, top, &library, &file.clocks, flagged)
            .unwrap()
            .analyze();
        let ck: Vec<_> = (report.terminal_slacks().iter())
            .filter(|t| t.name == "ck")
            .map(|t| t.kind)
            .collect();
        assert_eq!(ck, [hummingbird::TerminalKind::PrimaryInput]);
    }
}
