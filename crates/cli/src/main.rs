//! `sdfrs` — command-line driver for the resource-allocation flow.
//!
//! ```text
//! sdfrs [--trace <run.jsonl>] [--verbose]
//!       [--metrics-out <file>] [--metrics-format prom|json] <command> ...
//!
//! sdfrs analyze <app.sdfa>                   consistency, γ, HSDF size, deadlock
//! sdfrs throughput <app.sdfa>                best-case single-tile throughput
//! sdfrs flow <app.sdfa> <platform.sdfp>      run the full allocation strategy
//!       [--weights c1,c2,c3] [--pipelined-noc]
//!       [--policy greedy|best-fit|exact|portfolio] [--node-budget <n>]
//! sdfrs trace <app.sdfa> <platform.sdfp> <horizon>
//!                                            allocate, then print a Gantt chart
//! sdfrs buffers <app.sdfa>                   minimal storage distribution for λ
//! sdfrs multiapp <platform.sdfp> <app.sdfa>...
//!       [--policy <p>] [--node-budget <n>]   allocate applications in sequence
//! sdfrs verify <app.sdfa> <platform.sdfp>    allocate, then independently
//!                                            re-verify the result
//! sdfrs serve <platform.sdfp> [--input <req.jsonl>] [--batch <n>]
//!             [--regions <n>]                online admission service: read
//!             [--commit-log <f>]             JSONL requests (stdin or file),
//!             [--final-state <f>]            write one JSON response per line
//!             [--listen <host:port>]         …or serve them over TCP
//!             [--watermark <n>] [--deadline-ms <n>] [--max-requests <n>]
//!             [--flight-recorder <n>] [--slow-ms <n>] [--trace-dump <f>]
//!             [--policy <p>] [--node-budget <n>]
//! sdfrs generate <set> <seed> <count> [dir]  emit generated applications
//! sdfrs example <name>                       print a bundled model; names:
//!     paper h263 mp3 cd2dat satellite platform
//!     daytona eclipse hijdra stepnp
//! sdfrs dot <app.sdfa>                       Graphviz export
//! ```
//!
//! The `serve` requests are flat JSON objects, one per line:
//! `{"op":"admit","example":"paper"}` (or `"app_file":"x.sdfa"`),
//! `{"op":"depart","session":1}`, `{"op":"rebind","session":2}`,
//! `{"op":"status"}`. Responses carry the request's 0-based line number
//! as `"id"` and are deterministic (no timestamps). `--batch <n>` queues
//! `n` requests before each drain (default 1: each request is answered
//! before the next is read); the drain executes them one by one in
//! arrival order, so the batch size changes no outcome. `--regions <n>`
//! partitions the platform into `n` contiguous tile regions: admits run
//! region-locally (escalating to neighbors, then globally, when the home
//! region is full), so each flow ranks only its region's tiles.
//!
//! `serve --listen <host:port>` runs the same service as a concurrent
//! TCP server (JSONL in, JSONL out, one connection per client; see
//! `sdfrs_net`). `--watermark <n>` sheds requests with a typed
//! `overloaded` response once `n` are queued, `--deadline-ms <n>`
//! expires requests (and slow-loris connections) with a typed
//! `deadline` response. The server drains gracefully after
//! `--max-requests <n>` request lines, or on stdin EOF. `--commit-log
//! <file>` streams every *committed* mutation as replayable JSONL —
//! `serve --input <that file>` reproduces the residual platform state
//! byte-for-byte (conform oracle 8) — and `--final-state <file>` writes
//! the residual-state digest at drain for exactly that comparison.
//!
//! Every TCP request is traced: `--flight-recorder <n>` sizes the ring
//! of retained span trees (default 64), `--slow-ms <n>` additionally
//! pins any request slower than `n` milliseconds as anomalous, and
//! `--trace-dump <file>` writes the flight recorder's contents as JSONL
//! at shutdown. Clients may also ask the server directly with
//! `{"kind":"introspect","what":"metrics"|"health"|"sessions"|"traces"}`.
//!
//! The allocating commands `flow`, `multiapp` and `serve` share one
//! solver vocabulary: `--policy greedy|best-fit|exact|portfolio`
//! selects the admission backend (default `greedy`, the paper's
//! heuristic), and `--node-budget <n>` caps the branch-and-bound search
//! of `exact`/`portfolio`. Solver-backed runs print (or, for `serve`,
//! embed in each `admitted` JSONL response) the certified throughput
//! bound pair, the optimality gap, and proof-of-work node counts.
//!
//! The global `--trace <file>` option writes every flow event of the
//! allocating commands (`flow`, `trace`, `verify`, `multiapp`, `serve`)
//! as JSON Lines; `--verbose` streams the same events human-readably on
//! stderr.
//! `--metrics-out <file>` attaches a [`sdfrs_core::MetricsRegistry`] to
//! the allocator and writes its final snapshot — Prometheus text
//! exposition by default, or deterministic JSON with
//! `--metrics-format json`. Command results go to stdout; diagnostics
//! never do.

use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;

use sdfrs_appmodel::apps;
use sdfrs_core::admission::AdmissionPolicy;
use sdfrs_core::cost::CostWeights;
use sdfrs_core::flow::FlowConfig;
use sdfrs_core::{Allocator, EventSink, JsonlSink, LogSink, Metrics, MultiSink, NullSink};
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_platform::{PlatformState, ProcessorType};
use sdfrs_sdf::analysis::deadlock::check_deadlock_free;
use sdfrs_sdf::hsdf::hsdf_size;

use sdfrs_appmodel::textio as format;

/// `writeln!` to the command's output writer, mapping I/O failures into
/// the CLI's error channel (no direct `println!` anywhere: results flow
/// through the writer, diagnostics through the event sink).
macro_rules! outln {
    ($out:expr) => { writeln!($out).map_err(|e| format!("write failed: {e}"))? };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(|e| format!("write failed: {e}"))?
    };
}

/// `write!` counterpart of [`outln!`].
macro_rules! outp {
    ($out:expr, $($arg:tt)*) => {
        write!($out, $($arg)*).map_err(|e| format!("write failed: {e}"))?
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = io::stdout().lock();
    match run(&args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            let _ = writeln!(io::stderr(), "sdfrs: {message}");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_app(path: &str) -> Result<sdfrs_appmodel::ApplicationGraph, String> {
    format::parse_application(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Export format of `--metrics-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    /// Prometheus text exposition (the default).
    Prometheus,
    /// Deterministic JSON.
    Json,
}

/// Destination and format parsed from `--metrics-out` / `--metrics-format`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MetricsExport {
    path: String,
    format: MetricsFormat,
}

/// The parsed global options: remaining arguments, the event sink they
/// describe, and the optional metrics export destination.
type GlobalOptions = (Vec<String>, Box<dyn EventSink>, Option<MetricsExport>);

/// Splits the global observability options off the argument list and
/// builds the event sink (and optional metrics export) they describe.
fn global_options(args: &[String]) -> Result<GlobalOptions, String> {
    let mut trace_path: Option<String> = None;
    let mut verbose = false;
    let mut metrics_path: Option<String> = None;
    let mut metrics_format = MetricsFormat::Prometheus;
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--trace" {
            trace_path = Some(iter.next().ok_or("--trace needs a file path")?.clone());
        } else if let Some(p) = a.strip_prefix("--trace=") {
            trace_path = Some(p.to_string());
        } else if a == "--verbose" {
            verbose = true;
        } else if a == "--metrics-out" {
            metrics_path = Some(
                iter.next()
                    .ok_or("--metrics-out needs a file path")?
                    .clone(),
            );
        } else if let Some(p) = a.strip_prefix("--metrics-out=") {
            metrics_path = Some(p.to_string());
        } else if a == "--metrics-format" {
            let f = iter.next().ok_or("--metrics-format needs prom|json")?;
            metrics_format = parse_metrics_format(f)?;
        } else if let Some(f) = a.strip_prefix("--metrics-format=") {
            metrics_format = parse_metrics_format(f)?;
        } else {
            rest.push(a.clone());
        }
    }
    let mut multi = MultiSink::new();
    let mut any = false;
    if let Some(p) = &trace_path {
        let jsonl = JsonlSink::create(p).map_err(|e| format!("cannot create trace {p}: {e}"))?;
        multi = multi.with(jsonl);
        any = true;
    }
    if verbose {
        multi = multi.with(LogSink::stderr());
        any = true;
    }
    let sink: Box<dyn EventSink> = if any {
        Box::new(multi)
    } else {
        Box::new(NullSink)
    };
    let export = metrics_path.map(|path| MetricsExport {
        path,
        format: metrics_format,
    });
    Ok((rest, sink, export))
}

fn parse_metrics_format(spec: &str) -> Result<MetricsFormat, String> {
    match spec {
        "prom" | "prometheus" => Ok(MetricsFormat::Prometheus),
        "json" => Ok(MetricsFormat::Json),
        other => Err(format!("unknown metrics format {other:?} (prom|json)")),
    }
}

/// Writes the registry snapshot to the export destination.
fn write_metrics(export: &MetricsExport, metrics: &Metrics) -> Result<(), String> {
    let Some(snapshot) = metrics.snapshot() else {
        return Ok(());
    };
    let text = match export.format {
        MetricsFormat::Prometheus => snapshot.to_prometheus(),
        MetricsFormat::Json => {
            let mut json = snapshot.to_json();
            json.push('\n');
            json
        }
    };
    fs::write(&export.path, text).map_err(|e| format!("cannot write metrics {}: {e}", export.path))
}

fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let (args, sink, export) = global_options(args)?;
    // One registry for the whole invocation, attached to the allocator:
    // it folds every event and the cache records its probes into it.
    let metrics = if export.is_some() {
        Metrics::collecting()
    } else {
        Metrics::null()
    };
    let result = dispatch(&args, sink, &metrics, out);
    // Export even when the command fails: a failed allocation's counters
    // are exactly what a post-mortem wants to see.
    if let Some(export) = &export {
        write_metrics(export, &metrics)?;
    }
    result
}

fn dispatch(
    args: &[String],
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "analyze" => analyze(args.get(1).ok_or("analyze needs an application file")?, out),
        "throughput" => throughput(
            args.get(1).ok_or("throughput needs an application file")?,
            out,
        ),
        "flow" => flow(
            args.get(1).ok_or("flow needs an application file")?,
            args.get(2).ok_or("flow needs a platform file")?,
            &args[3..],
            sink,
            metrics,
            out,
        ),
        "trace" => trace(
            args.get(1).ok_or("trace needs an application file")?,
            args.get(2).ok_or("trace needs a platform file")?,
            args.get(3).map(String::as_str).unwrap_or("100"),
            sink,
            metrics,
            out,
        ),
        "buffers" => buffers(args.get(1).ok_or("buffers needs an application file")?, out),
        "verify" => verify(
            args.get(1).ok_or("verify needs an application file")?,
            args.get(2).ok_or("verify needs a platform file")?,
            sink,
            metrics,
            out,
        ),
        "multiapp" => multiapp(
            args.get(1).ok_or("multiapp needs a platform file")?,
            &args[2..],
            sink,
            metrics,
            out,
        ),
        "serve" => serve(
            args.get(1).ok_or("serve needs a platform file")?,
            &args[2..],
            sink,
            metrics,
            out,
        ),
        "generate" => generate(
            args.get(1).ok_or("generate needs a set name")?,
            args.get(2).ok_or("generate needs a seed")?,
            args.get(3).ok_or("generate needs a count")?,
            args.get(4).map(String::as_str),
            out,
        ),
        "example" => example(args.get(1).ok_or("example needs a model name")?, out),
        "dot" => dot(args.get(1).ok_or("dot needs an application file")?, out),
        "help" | "--help" | "-h" => {
            outln!(
                out,
                "commands: analyze, throughput, flow, trace, buffers, multiapp, verify, serve, generate, example, dot"
            );
            outln!(
                out,
                "global options: --trace <run.jsonl> (JSONL flow-event trace), --verbose (log events to stderr)"
            );
            outln!(
                out,
                "                --metrics-out <file> (export allocator metrics), --metrics-format prom|json"
            );
            outln!(
                out,
                "policy options (flow, multiapp, serve): --policy greedy|best-fit|exact|portfolio, --node-budget <n>"
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try help)")),
    }
}

fn analyze(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let app = load_app(path)?;
    let g = app.graph();
    outln!(out, "application {}", g.name());
    outln!(out, "  actors:   {}", g.actor_count());
    outln!(out, "  channels: {}", g.channel_count());
    let gamma = g.repetition_vector().map_err(|e| e.to_string())?;
    outp!(out, "  repetition vector:");
    for (a, actor) in g.actors() {
        outp!(out, " {}={}", actor.name(), gamma[a]);
    }
    outln!(out);
    outln!(
        out,
        "  HSDF equivalent:   {} actors",
        hsdf_size(g).map_err(|e| e.to_string())?
    );
    match check_deadlock_free(g) {
        Ok(()) => outln!(out, "  liveness:          deadlock-free"),
        Err(e) => outln!(out, "  liveness:          {e}"),
    }
    outln!(
        out,
        "  throughput constraint λ = {}",
        app.throughput_constraint()
    );
    match sdfrs_sdf::analysis::bounds::throughput_bounds(g, 10_000) {
        Ok(bounds) => match bounds.tightest() {
            Some(b) => outln!(out, "  structural throughput bound ≤ {b}"),
            None => outln!(out, "  structural throughput bound: unconstrained"),
        },
        Err(e) => outln!(out, "  structural throughput bound: {e}"),
    }
    Ok(())
}

fn throughput(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let app = load_app(path)?;
    let thr = sdfrs_gen::reference_throughput(&app);
    outln!(
        out,
        "best-case single-tile iteration throughput: {} ({:.6} iterations/time-unit)",
        thr,
        thr.to_f64()
    );
    outln!(
        out,
        "throughput constraint λ = {} ({:.1}% of best case)",
        app.throughput_constraint(),
        (app.throughput_constraint() / thr).to_f64() * 100.0
    );
    Ok(())
}

fn parse_weights(spec: &str) -> Result<CostWeights, String> {
    let spec = spec.strip_prefix("--weights=").unwrap_or(spec);
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("weights must be c1,c2,c3 (got {spec:?})"));
    }
    let mut vals = [0.0f64; 3];
    for (i, p) in parts.iter().enumerate() {
        vals[i] = p.trim().parse().map_err(|_| format!("bad weight {p:?}"))?;
    }
    Ok(CostWeights::new(vals[0], vals[1], vals[2]))
}

/// Splits the shared `--policy <greedy|best-fit|exact|portfolio>` and
/// `--node-budget <n>` options off an argument list — the one policy
/// vocabulary `flow`, `multiapp`, `serve` and `sdfrs-loadgen` agree on.
/// Returns `None` when no `--policy` was given (commands keep their
/// historical default path).
fn split_policy(options: &[String]) -> Result<(Option<AdmissionPolicy>, Vec<String>), String> {
    let mut policy: Option<AdmissionPolicy> = None;
    let mut node_budget: Option<u64> = None;
    let mut rest = Vec::new();
    let mut iter = options.iter();
    while let Some(a) = iter.next() {
        let parse = |spec: &str| -> Result<AdmissionPolicy, String> {
            spec.parse().map_err(|e| format!("--policy {spec:?}: {e}"))
        };
        if a == "--policy" {
            policy = Some(parse(iter.next().ok_or("--policy needs a name")?)?);
        } else if let Some(p) = a.strip_prefix("--policy=") {
            policy = Some(parse(p)?);
        } else if a == "--node-budget" {
            let n = iter.next().ok_or("--node-budget needs a count")?;
            node_budget = Some(n.parse().map_err(|_| format!("bad node budget {n:?}"))?);
        } else if let Some(n) = a.strip_prefix("--node-budget=") {
            node_budget = Some(n.parse().map_err(|_| format!("bad node budget {n:?}"))?);
        } else {
            rest.push(a.clone());
        }
    }
    if let Some(budget) = node_budget {
        match policy {
            Some(p) if p.exact_config().is_some() => policy = Some(p.with_node_budget(budget)),
            _ => return Err("--node-budget needs --policy exact or --policy portfolio".into()),
        }
    }
    Ok((policy, rest))
}

fn flow_config(options: &[String]) -> Result<FlowConfig, String> {
    let mut config = FlowConfig::with_weights(CostWeights::BALANCED);
    for opt in options {
        if opt.starts_with("--weights") {
            config.bind.weights = parse_weights(opt)?;
        } else if opt == "--pipelined-noc" {
            config.connection_model = sdfrs_core::ConnectionModel::PipelinedHops;
        } else {
            return Err(format!("unknown option {opt:?}"));
        }
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn flow(
    app_path: &str,
    platform_path: &str,
    options: &[String],
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    let app = load_app(app_path)?;
    let arch = format::parse_platform(&read(platform_path)?)
        .map_err(|e| format!("{platform_path}: {e}"))?;
    let (policy, options) = split_policy(options)?;
    let config = flow_config(&options)?;
    let state = PlatformState::new(&arch);
    let mut allocator = Allocator::from_config(config)
        .with_boxed_sink(sink)
        .with_metrics(metrics.clone());
    let result = allocator.solve(policy.unwrap_or_default(), &app, &arch, &state);
    allocator.flush();
    let outcome = result.map_err(|e| e.to_string())?;
    outp!(
        out,
        "{}",
        sdfrs_core::report::render_allocation(
            &app,
            &arch,
            &outcome.allocation,
            Some(&outcome.stats)
        )
    );
    if let Some(r) = &outcome.report {
        outln!(out, "solver {} certificate:", r.kind.name());
        outln!(
            out,
            "  throughput bounds [{}, {}] gap {}",
            r.lower,
            r.upper,
            r.gap
        );
        outln!(
            out,
            "  proven optimal: {} ({} nodes, {} LP pivots, {} leaves)",
            r.proven_optimal,
            r.nodes_expanded,
            r.lp_pivots,
            r.leaves_evaluated
        );
    }
    Ok(())
}

fn trace(
    app_path: &str,
    platform_path: &str,
    horizon: &str,
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    use sdfrs_core::binding_aware::BindingAwareGraph;
    use sdfrs_core::gantt;
    use sdfrs_core::ConstrainedExecutor;

    let app = load_app(app_path)?;
    let arch = format::parse_platform(&read(platform_path)?)
        .map_err(|e| format!("{platform_path}: {e}"))?;
    let horizon: u64 = horizon
        .parse()
        .map_err(|_| format!("bad horizon {horizon:?}"))?;
    let state = PlatformState::new(&arch);
    let mut allocator = Allocator::new()
        .with_boxed_sink(sink)
        .with_metrics(metrics.clone());
    let result = allocator.allocate(&app, &arch, &state);
    allocator.flush();
    let (alloc, _) = result.map_err(|e| e.to_string())?;
    let slices = alloc.slices.to_dense(arch.tile_count());
    let ba = BindingAwareGraph::build(&app, &arch, &alloc.binding, &slices)
        .map_err(|e| e.to_string())?;
    let trace = ConstrainedExecutor::new(&ba, &alloc.schedules)
        .trace(horizon)
        .map_err(|e| e.to_string())?;
    outp!(out, "{}", gantt::render(&ba, &trace, 0, horizon));
    outln!(
        out,
        "(guaranteed throughput {}; '#' compute, '/' interconnect, '·' idle)",
        alloc.guaranteed_throughput()
    );
    outln!(out);
    outp!(out, "{}", gantt::render_by_tile(&ba, &trace, 0, horizon));
    outln!(
        out,
        "(per tile: actor initials inside the TDMA slice, '▁' slice idle, '·' foreign slice)"
    );
    Ok(())
}

fn verify(
    app_path: &str,
    platform_path: &str,
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    use sdfrs_core::verify::verify_allocation;
    let app = load_app(app_path)?;
    let arch = format::parse_platform(&read(platform_path)?)
        .map_err(|e| format!("{platform_path}: {e}"))?;
    let state = PlatformState::new(&arch);
    let mut allocator = Allocator::new()
        .with_boxed_sink(sink)
        .with_metrics(metrics.clone());
    let result = allocator.allocate(&app, &arch, &state);
    allocator.flush();
    let (alloc, _) = result.map_err(|e| e.to_string())?;
    let violations = verify_allocation(&app, &arch, &state, &alloc)
        .map_err(|e| format!("verifier failed to run: {e}"))?;
    if violations.is_empty() {
        outln!(
            out,
            "allocation verified: guarantee {} ≥ λ {} and all Sec 7 constraints hold",
            alloc.guaranteed_throughput(),
            app.throughput_constraint()
        );
        Ok(())
    } else {
        let mut message = format!("{} violation(s) found", violations.len());
        for v in &violations {
            message.push_str(&format!("\n  violation: {v:?}"));
        }
        Err(message)
    }
}

fn multiapp(
    platform_path: &str,
    app_args: &[String],
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    let (policy, app_paths) = split_policy(app_args)?;
    if app_paths.is_empty() {
        return Err("multiapp needs at least one application file".into());
    }
    let arch = format::parse_platform(&read(platform_path)?)
        .map_err(|e| format!("{platform_path}: {e}"))?;
    // Each file may hold a single application or a bundle of them.
    let mut apps = Vec::new();
    for p in &app_paths {
        let parsed = format::parse_applications(&read(p)?).map_err(|e| format!("{p}: {e}"))?;
        apps.extend(parsed);
    }
    let mut allocator = Allocator::new()
        .with_boxed_sink(sink)
        .with_metrics(metrics.clone());
    // With an explicit `--policy`, admit through the unified solver
    // front-end (skip rejected applications, report certified bounds);
    // without one, keep the paper's stop-at-first-failure sequence.
    if let Some(policy) = policy {
        let result = allocator.admit_with(&apps, &arch, policy);
        allocator.flush();
        for (app_id, alloc, stats) in &result.admitted {
            let app = &apps[app_id.index()];
            outp!(
                out,
                "{}",
                sdfrs_core::report::render_allocation(app, &arch, alloc, Some(stats))
            );
            if let Some(report) = result.report_for(*app_id) {
                outln!(
                    out,
                    "  solver {}: bounds [{}, {}] gap {} ({} nodes)",
                    report.kind.name(),
                    report.lower,
                    report.upper,
                    report.gap,
                    report.nodes_expanded
                );
            }
            outln!(out);
        }
        for (app_id, e) in &result.rejected {
            outln!(out, "rejected {app_id}: {e}");
        }
        outln!(
            out,
            "policy {}: {} of {} applications admitted",
            policy.name(),
            result.admitted_count(),
            apps.len()
        );
        return Ok(());
    }
    let result = allocator.allocate_sequence(&apps, &arch);
    allocator.flush();
    for (i, alloc) in result.allocations.iter().enumerate() {
        outp!(
            out,
            "{}",
            sdfrs_core::report::render_allocation(&apps[i], &arch, alloc, Some(&result.stats[i]))
        );
        outln!(out);
    }
    match &result.failure {
        Some(e) => outln!(
            out,
            "stopped after {} of {} applications: {e}",
            result.bound_count(),
            apps.len()
        ),
        None => outln!(out, "all {} applications allocated", apps.len()),
    }
    let total = result.total_usage();
    outln!(
        out,
        "total claimed: wheel {} memory {} connections {} bw {}/{}",
        total.wheel,
        total.memory,
        total.connections,
        total.bandwidth_in,
        total.bandwidth_out
    );
    Ok(())
}

fn parse_batch(spec: &str) -> Result<usize, String> {
    let n: usize = spec
        .parse()
        .map_err(|_| format!("bad batch size {spec:?}"))?;
    if n == 0 {
        return Err("batch size must be at least 1".into());
    }
    Ok(n)
}

fn parse_regions(spec: &str) -> Result<usize, String> {
    let n: usize = spec
        .parse()
        .map_err(|_| format!("bad region count {spec:?}"))?;
    if n == 0 {
        return Err("region count must be at least 1".into());
    }
    Ok(n)
}

/// Options of the `serve` command, offline and networked.
struct ServeOptions {
    policy: AdmissionPolicy,
    input_path: Option<String>,
    batch: usize,
    regions: usize,
    listen: Option<String>,
    watermark: usize,
    deadline_ms: u64,
    max_requests: Option<u64>,
    commit_log_path: Option<String>,
    final_state_path: Option<String>,
    flight_recorder: usize,
    slow_ms: Option<u64>,
    trace_dump_path: Option<String>,
}

fn parse_serve_options(options: &[String]) -> Result<ServeOptions, String> {
    let (policy, options) = split_policy(options)?;
    let mut parsed = ServeOptions {
        policy: policy.unwrap_or_default(),
        input_path: None,
        batch: 1,
        regions: 1,
        listen: None,
        watermark: 256,
        deadline_ms: 10_000,
        max_requests: None,
        commit_log_path: None,
        final_state_path: None,
        flight_recorder: 64,
        slow_ms: None,
        trace_dump_path: None,
    };
    let parse_u64 = |what: &str, spec: &str| -> Result<u64, String> {
        spec.parse().map_err(|_| format!("bad {what} {spec:?}"))
    };
    let mut iter = options.iter();
    while let Some(a) = iter.next() {
        if a == "--input" {
            parsed.input_path = Some(iter.next().ok_or("--input needs a file path")?.clone());
        } else if let Some(p) = a.strip_prefix("--input=") {
            parsed.input_path = Some(p.to_string());
        } else if a == "--batch" {
            parsed.batch = parse_batch(iter.next().ok_or("--batch needs a count")?)?;
        } else if let Some(n) = a.strip_prefix("--batch=") {
            parsed.batch = parse_batch(n)?;
        } else if a == "--regions" {
            parsed.regions = parse_regions(iter.next().ok_or("--regions needs a count")?)?;
        } else if let Some(n) = a.strip_prefix("--regions=") {
            parsed.regions = parse_regions(n)?;
        } else if a == "--listen" {
            parsed.listen = Some(iter.next().ok_or("--listen needs host:port")?.clone());
        } else if let Some(addr) = a.strip_prefix("--listen=") {
            parsed.listen = Some(addr.to_string());
        } else if a == "--watermark" {
            parsed.watermark =
                parse_u64("watermark", iter.next().ok_or("--watermark needs a count")?)? as usize;
        } else if let Some(n) = a.strip_prefix("--watermark=") {
            parsed.watermark = parse_u64("watermark", n)? as usize;
        } else if a == "--deadline-ms" {
            parsed.deadline_ms = parse_u64(
                "deadline",
                iter.next().ok_or("--deadline-ms needs milliseconds")?,
            )?;
        } else if let Some(n) = a.strip_prefix("--deadline-ms=") {
            parsed.deadline_ms = parse_u64("deadline", n)?;
        } else if a == "--max-requests" {
            parsed.max_requests = Some(parse_u64(
                "request count",
                iter.next().ok_or("--max-requests needs a count")?,
            )?);
        } else if let Some(n) = a.strip_prefix("--max-requests=") {
            parsed.max_requests = Some(parse_u64("request count", n)?);
        } else if a == "--commit-log" {
            parsed.commit_log_path =
                Some(iter.next().ok_or("--commit-log needs a file path")?.clone());
        } else if let Some(p) = a.strip_prefix("--commit-log=") {
            parsed.commit_log_path = Some(p.to_string());
        } else if a == "--final-state" {
            parsed.final_state_path = Some(
                iter.next()
                    .ok_or("--final-state needs a file path")?
                    .clone(),
            );
        } else if let Some(p) = a.strip_prefix("--final-state=") {
            parsed.final_state_path = Some(p.to_string());
        } else if a == "--flight-recorder" {
            parsed.flight_recorder = parse_u64(
                "flight recorder capacity",
                iter.next().ok_or("--flight-recorder needs a capacity")?,
            )? as usize;
        } else if let Some(n) = a.strip_prefix("--flight-recorder=") {
            parsed.flight_recorder = parse_u64("flight recorder capacity", n)? as usize;
        } else if a == "--slow-ms" {
            parsed.slow_ms = Some(parse_u64(
                "slow threshold",
                iter.next().ok_or("--slow-ms needs milliseconds")?,
            )?);
        } else if let Some(n) = a.strip_prefix("--slow-ms=") {
            parsed.slow_ms = Some(parse_u64("slow threshold", n)?);
        } else if a == "--trace-dump" {
            parsed.trace_dump_path =
                Some(iter.next().ok_or("--trace-dump needs a file path")?.clone());
        } else if let Some(p) = a.strip_prefix("--trace-dump=") {
            parsed.trace_dump_path = Some(p.to_string());
        } else {
            return Err(format!("unknown option {a:?}"));
        }
    }
    if parsed.listen.is_some() && parsed.input_path.is_some() {
        return Err("--listen and --input are mutually exclusive".into());
    }
    Ok(parsed)
}

fn serve(
    platform_path: &str,
    options: &[String],
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    use sdfrs_core::service::{parse_request_line, AllocationService, CommitLog, ServiceConfig};

    let arch = format::parse_platform(&read(platform_path)?)
        .map_err(|e| format!("{platform_path}: {e}"))?;
    let opts = parse_serve_options(options)?;
    let mut config = ServiceConfig::default();
    config.policy = opts.policy;
    config.regions = opts.regions;

    let mut log = match &opts.commit_log_path {
        Some(p) => CommitLog::with_writer(
            fs::File::create(p).map_err(|e| format!("cannot create commit log {p}: {e}"))?,
        ),
        None => CommitLog::new(),
    };

    if opts.listen.is_some() {
        return serve_listen(&arch, config, &opts, log, sink, metrics, out);
    }

    let text = match &opts.input_path {
        Some(p) => read(p)?,
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            io::stdin()
                .lock()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    let mut requests = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        requests.push(parse_request_line(line).map_err(|e| e.at_line(no + 1).to_string())?);
    }
    let mut service = AllocationService::from_config(&arch, config)
        .with_boxed_sink(sink)
        .with_metrics(metrics.clone());
    // Responses always come out in request order: `drain` executes the
    // queue in arrival order.
    for chunk in requests.chunks(opts.batch) {
        for r in chunk {
            service.enqueue(r.clone());
        }
        let responses = service.drain();
        for ((seq, response), request) in responses.iter().zip(chunk) {
            if response.commits() {
                log.append(request);
            }
            outln!(out, "{}", response.to_json_line(*seq));
        }
    }
    service.flush();
    if let Some(p) = &opts.final_state_path {
        fs::write(p, format!("{}\n", service.residual_digest()))
            .map_err(|e| format!("cannot write final state {p}: {e}"))?;
    }
    if log.write_failures() > 0 {
        return Err(format!(
            "commit log: {} of {} records failed to write",
            log.write_failures(),
            log.len()
        ));
    }
    Ok(())
}

/// `serve --listen`: run the network front-end until the stop
/// condition, then drain gracefully and report.
///
/// With `--max-requests <n>` the server drains once `n` request lines
/// have been received (the CI smoke test's stop condition); without it,
/// the server drains when stdin reaches EOF — run it under a pipe and
/// close the pipe to stop.
fn serve_listen(
    arch: &sdfrs_platform::ArchitectureGraph,
    config: sdfrs_core::service::ServiceConfig,
    opts: &ServeOptions,
    log: sdfrs_core::service::CommitLog,
    sink: Box<dyn EventSink>,
    metrics: &Metrics,
    out: &mut dyn Write,
) -> Result<(), String> {
    use sdfrs_core::service::AllocationService;
    use sdfrs_net::{NetServer, ServerOptions};

    let addr = opts
        .listen
        .as_deref()
        .expect("listen address checked by caller");
    let server_options = ServerOptions {
        deadline: std::time::Duration::from_millis(opts.deadline_ms),
        queue_watermark: opts.watermark,
        metrics: metrics.enabled().then(|| metrics.clone()),
        flight_recorder: opts.flight_recorder,
        slow_threshold: opts.slow_ms.map(std::time::Duration::from_millis),
        ..ServerOptions::default()
    };
    let service = AllocationService::from_config(arch, config).with_boxed_sink(sink);
    let server = NetServer::spawn(service, log, server_options, addr)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    outln!(out, "listening on {}", server.local_addr());
    out.flush().map_err(|e| format!("write failed: {e}"))?;
    wait_for_stop(&server, opts.max_requests)?;
    let report = server.shutdown();
    if let Some(p) = &opts.final_state_path {
        fs::write(p, format!("{}\n", report.residual_digest()))
            .map_err(|e| format!("cannot write final state {p}: {e}"))?;
    }
    if let Some(p) = &opts.trace_dump_path {
        fs::write(p, report.flight_recorder.dump_jsonl())
            .map_err(|e| format!("cannot write trace dump {p}: {e}"))?;
    }
    outln!(out, "{}", report.stats.to_json_line());
    Ok(())
}

/// Blocks until the `serve --listen` stop condition (see
/// [`serve_listen`]): `n` requests received, or stdin EOF.
fn wait_for_stop(server: &sdfrs_net::NetServer, max_requests: Option<u64>) -> Result<(), String> {
    match max_requests {
        Some(target) => loop {
            let received = server
                .metrics()
                .snapshot()
                .and_then(|s| {
                    s.counters
                        .iter()
                        .find(|(n, _)| *n == "net_requests_received")
                        .map(|&(_, v)| v)
                })
                .unwrap_or(0);
            if received >= target {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        },
        None => {
            use std::io::Read as _;
            let mut buf = [0u8; 256];
            let mut stdin = io::stdin().lock();
            loop {
                match stdin.read(&mut buf) {
                    Ok(0) => return Ok(()),
                    Ok(_) => {} // ignore chatter; only EOF stops the server
                    Err(e) => return Err(format!("cannot read stdin: {e}")),
                }
            }
        }
    }
}

fn buffers(path: &str, out: &mut dyn Write) -> Result<(), String> {
    use sdfrs_core::buffers::minimal_storage_distribution;
    let app = load_app(path)?;
    let dist = minimal_storage_distribution(&app, app.throughput_constraint(), 500_000)
        .map_err(|e| e.to_string())?;
    outln!(
        out,
        "minimal single-tile storage distribution for λ = {}:",
        app.throughput_constraint()
    );
    for (d, ch) in app.graph().channels() {
        outln!(
            out,
            "  {:<12} {} → {}: {} tokens (Θ declares {})",
            ch.name(),
            app.graph().actor(ch.src()).name(),
            app.graph().actor(ch.dst()).name(),
            dist.capacities[d.index()],
            app.channel_requirements(d).buffer_tile
        );
    }
    outln!(
        out,
        "total {} tokens, achieved throughput {}",
        dist.total(),
        dist.throughput
    );
    Ok(())
}

fn generate(
    set: &str,
    seed: &str,
    count: &str,
    dir: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let config = match set {
        "processing" => GeneratorConfig::processing_intensive(),
        "memory" => GeneratorConfig::memory_intensive(),
        "communication" => GeneratorConfig::communication_intensive(),
        "mixed" => GeneratorConfig::mixed(),
        other => return Err(format!("unknown set {other:?}")),
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let count: usize = count.parse().map_err(|_| format!("bad count {count:?}"))?;
    let types = vec![
        ProcessorType::new("risc"),
        ProcessorType::new("dsp"),
        ProcessorType::new("acc"),
    ];
    let mut gen = AppGenerator::new(config, types, seed);
    for app in gen.generate_sequence(set, count) {
        let text = format::write_application(&app);
        match dir {
            Some(d) => {
                let path = format!("{d}/{}.sdfa", app.graph().name());
                fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
                outln!(out, "wrote {path}");
            }
            None => outln!(out, "{text}"),
        }
    }
    Ok(())
}

fn example(name: &str, out: &mut dyn Write) -> Result<(), String> {
    use sdfrs_platform::presets;
    if let Some(app) = apps::bundled(name) {
        outp!(out, "{}", format::write_application(&app));
        return Ok(());
    }
    match name {
        "platform" => outp!(out, "{}", format::write_platform(&apps::example_platform())),
        "daytona" => outp!(out, "{}", format::write_platform(&presets::daytona())),
        "eclipse" => outp!(out, "{}", format::write_platform(&presets::eclipse())),
        "hijdra" => outp!(out, "{}", format::write_platform(&presets::hijdra())),
        "stepnp" => outp!(out, "{}", format::write_platform(&presets::step_np())),
        other => {
            return Err(format!(
                "unknown example {other:?} (paper|h263|mp3|cd2dat|satellite|platform|daytona|eclipse|hijdra|stepnp)"
            ))
        }
    }
    Ok(())
}

fn dot(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let app = load_app(path)?;
    outp!(out, "{}", sdfrs_sdf::dot::to_dot(app.graph()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_parse() {
        let w = parse_weights("--weights=1,0,2").unwrap();
        assert_eq!(w, CostWeights::new(1.0, 0.0, 2.0));
        let w = parse_weights("0.5, 1.5, 0").unwrap();
        assert_eq!(w, CostWeights::new(0.5, 1.5, 0.0));
        assert!(parse_weights("1,2").is_err());
        assert!(parse_weights("a,b,c").is_err());
    }

    #[test]
    fn flow_config_options() {
        let c = flow_config(&[]).unwrap();
        assert_eq!(c.connection_model, sdfrs_core::ConnectionModel::Simple);
        let c = flow_config(&["--pipelined-noc".into()]).unwrap();
        assert_eq!(
            c.connection_model,
            sdfrs_core::ConnectionModel::PipelinedHops
        );
        let c = flow_config(&["--weights=2,0,1".into()]).unwrap();
        assert_eq!(c.bind.weights, CostWeights::new(2.0, 0.0, 1.0));
        assert!(flow_config(&["--bogus".into()]).is_err());
        // Degenerate weights are rejected by FlowConfig::validate.
        assert!(flow_config(&["--weights=0,0,0".into()]).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = Vec::new();
        assert!(run(&["nonsense".into()], &mut out).is_err());
        assert!(run(&["help".into()], &mut out).is_ok());
        let help = String::from_utf8(out).unwrap();
        assert!(help.contains("--trace"));
        assert!(help.contains("--policy greedy|best-fit|exact|portfolio"));
    }

    #[test]
    fn policy_options_split() {
        let (p, rest) =
            split_policy(&["--policy".into(), "exact".into(), "x.sdfa".into()]).unwrap();
        assert_eq!(p, Some(AdmissionPolicy::exact()));
        assert_eq!(rest, vec!["x.sdfa".to_string()]);

        let (p, rest) =
            split_policy(&["--policy=portfolio".into(), "--node-budget=9".into()]).unwrap();
        let p = p.unwrap();
        assert_eq!(p.name(), "portfolio");
        assert_eq!(p.exact_config().unwrap().node_budget, 9);
        assert!(rest.is_empty());

        let (p, _) = split_policy(&["--weights=1,1,1".into()]).unwrap();
        assert!(p.is_none());

        // The budget only means something to the searching backends.
        assert!(split_policy(&["--node-budget".into(), "5".into()]).is_err());
        assert!(split_policy(&["--policy=greedy".into(), "--node-budget=5".into()]).is_err());
        assert!(split_policy(&["--policy".into(), "simplex".into()]).is_err());
    }

    #[test]
    fn global_options_are_extracted_anywhere() {
        let (rest, sink, export) =
            global_options(&["flow".into(), "--verbose".into(), "x".into()]).unwrap();
        assert_eq!(rest, vec!["flow".to_string(), "x".to_string()]);
        assert!(sink.enabled());
        assert!(export.is_none());
        let (rest, sink, export) = global_options(&["flow".into(), "a".into()]).unwrap();
        assert_eq!(rest.len(), 2);
        assert!(!sink.enabled(), "no options ⇒ the zero-overhead NullSink");
        assert!(export.is_none());
        assert!(global_options(&["--trace".into()]).is_err());
    }

    #[test]
    fn metrics_options_are_parsed() {
        let (rest, _, export) = global_options(&[
            "flow".into(),
            "--metrics-out".into(),
            "m.prom".into(),
            "x".into(),
        ])
        .unwrap();
        assert_eq!(rest, vec!["flow".to_string(), "x".to_string()]);
        let export = export.unwrap();
        assert_eq!(export.path, "m.prom");
        assert_eq!(export.format, MetricsFormat::Prometheus);

        let (_, _, export) = global_options(&[
            "--metrics-out=m.json".into(),
            "--metrics-format=json".into(),
        ])
        .unwrap();
        assert_eq!(
            export,
            Some(MetricsExport {
                path: "m.json".into(),
                format: MetricsFormat::Json,
            })
        );

        assert!(global_options(&["--metrics-out".into()]).is_err());
        assert!(global_options(&["--metrics-format".into(), "xml".into()]).is_err());
        // A format without a destination is accepted and simply inert.
        let (_, _, export) = global_options(&["--metrics-format".into(), "prom".into()]).unwrap();
        assert!(export.is_none());
    }

    #[test]
    fn serve_requests_parse_via_shared_parser() {
        // The CLI defers request parsing to the shared
        // `sdfrs_core::service::parse_request_line`; pin that the shapes
        // the CLI documents keep parsing through it.
        use sdfrs_core::service::parse_request_line;
        use sdfrs_core::{ServiceRequest, SessionId};
        match parse_request_line(r#"{"op":"admit","example":"paper"}"#).unwrap() {
            ServiceRequest::Admit { app } => assert_eq!(app.graph().name(), "paper_example"),
            other => panic!("expected admit, got {other:?}"),
        }
        match parse_request_line(r#"{ "op" : "depart" , "session" : 42 }"#).unwrap() {
            ServiceRequest::Depart { session } => {
                assert_eq!(session, SessionId::from_raw(42));
            }
            other => panic!("expected depart, got {other:?}"),
        }
        assert!(matches!(
            parse_request_line(r#"{"op":"rebind","session":7}"#).unwrap(),
            ServiceRequest::Rebind { .. }
        ));
        assert!(matches!(
            parse_request_line(r#"{"op":"status"}"#).unwrap(),
            ServiceRequest::Status
        ));
        assert!(parse_request_line(r#"{"op":"admit"}"#).is_err());
        assert!(parse_request_line(r#"{"op":"admit","example":"nope"}"#).is_err());
        assert!(parse_request_line(r#"{"op":"depart"}"#).is_err());
        assert!(parse_request_line(r#"{"session":3}"#).is_err());
        assert!(parse_request_line(r#"{"op":"evict","session":3}"#).is_err());
    }

    #[test]
    fn batch_sizes_parse() {
        assert_eq!(parse_batch("4").unwrap(), 4);
        assert!(parse_batch("0").is_err());
        assert!(parse_batch("many").is_err());
    }

    #[test]
    fn serve_options_parse() {
        let opts = parse_serve_options(&[
            "--listen=127.0.0.1:0".into(),
            "--watermark=8".into(),
            "--deadline-ms=500".into(),
            "--max-requests=100".into(),
            "--commit-log=log.jsonl".into(),
            "--final-state=state.txt".into(),
            "--flight-recorder=128".into(),
            "--slow-ms".into(),
            "250".into(),
            "--trace-dump=traces.jsonl".into(),
        ])
        .unwrap();
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.watermark, 8);
        assert_eq!(opts.deadline_ms, 500);
        assert_eq!(opts.max_requests, Some(100));
        assert_eq!(opts.commit_log_path.as_deref(), Some("log.jsonl"));
        assert_eq!(opts.final_state_path.as_deref(), Some("state.txt"));
        assert_eq!(opts.flight_recorder, 128);
        assert_eq!(opts.slow_ms, Some(250));
        assert_eq!(opts.trace_dump_path.as_deref(), Some("traces.jsonl"));

        let defaults = parse_serve_options(&[]).unwrap();
        assert_eq!(defaults.listen, None);
        assert_eq!(defaults.watermark, 256);
        assert_eq!(defaults.deadline_ms, 10_000);
        assert_eq!(defaults.max_requests, None);
        assert_eq!(defaults.flight_recorder, 64);
        assert_eq!(defaults.slow_ms, None);
        assert_eq!(defaults.trace_dump_path, None);

        assert!(parse_serve_options(&["--listen".into()]).is_err());
        assert!(parse_serve_options(&["--watermark=lots".into()]).is_err());
        assert!(parse_serve_options(&["--slow-ms=soon".into()]).is_err());
        assert!(parse_serve_options(&["--trace-dump".into()]).is_err());
        assert!(
            parse_serve_options(&["--listen=127.0.0.1:0".into(), "--input=x".into()]).is_err(),
            "--listen and --input are mutually exclusive"
        );
    }

    #[test]
    fn examples_print() {
        for name in [
            "paper",
            "h263",
            "mp3",
            "cd2dat",
            "satellite",
            "platform",
            "daytona",
            "eclipse",
            "hijdra",
            "stepnp",
        ] {
            let mut out = Vec::new();
            assert!(example(name, &mut out).is_ok(), "{name}");
            assert!(!out.is_empty(), "{name}");
        }
        let mut out = Vec::new();
        assert!(example("nope", &mut out).is_err());
    }
}
