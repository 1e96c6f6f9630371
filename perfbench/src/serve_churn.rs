//! `serve_churn`: the online service as deployed (`serve --listen`).
//!
//! A [`NetServer`] on loopback serves `mesh3x3_medium` for the whole
//! pass. One closed-loop connection sends admits of a seeded catalog of
//! small applications (inline `"app"` text), departs, rebinds (~10%)
//! and status probes (~5%). The client tracks the claimed wheel from the
//! responses and admits below 60% occupancy, departs above 80%, and
//! tosses a coin in between, so admissions rather than rejections
//! dominate. Catalog applications are admitted again and again, which
//! is what lets the reuse layers hit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sdfrs_core::service::{
    parse_request_line, replay_commit_log, AllocationService, CommitLog, ServiceConfig,
    ServiceResponse,
};
use sdfrs_core::Metrics;
use sdfrs_fastutil::rng::SmallRng;
use sdfrs_net::wire::{response_kind, response_ok, response_str, response_u64};
use sdfrs_net::{FrameBuffer, NetServer, ServerOptions, ServerReport};
use sdfrs_platform::mesh::experiment_platforms;
use sdfrs_platform::ArchitectureGraph;

use crate::cpu::Stopwatch;
use crate::inputs::{self, derive, STATUS_LINE};
use crate::pass::{check_allocation, Batch, Mode, NetLayer, Op, Pass, Timed, TracedPass};
use crate::spans::Spans;
use crate::stats::ms_since;

/// Applications in the seeded catalog.
const CATALOG: usize = 16;
/// Timed requests per pass. The service's per-request cost grows with
/// its age, so the pass length is part of the workload's definition.
const REQUESTS: usize = 96;
/// Untimed status probes sent after connecting: the first response
/// waits for the acceptor's poll, which belongs to set-up.
const WARMUP: usize = 8;
/// Round trips per batch unit (the offline path's default batch).
const BATCH: usize = 16;

const OCCUPANCY_LOW: f64 = 0.6;
const OCCUPANCY_HIGH: f64 = 0.8;
const STATUS_SHARE: f64 = 0.05;
const REBIND_SHARE: f64 = 0.10;
/// A response slower than this is counted lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// The served platform.
fn platform() -> ArchitectureGraph {
    experiment_platforms()
        .into_iter()
        .find(|a| a.name() == "mesh3x3_medium")
        .expect("mesh3x3_medium is an experiment platform")
}

/// The catalog's admit lines for `seed`.
fn catalog_lines(arch: &ArchitectureGraph, seed: u64) -> Vec<String> {
    let config = inputs::small_app_config();
    inputs::catalog(
        config,
        arch.processor_types(),
        derive(seed, 1),
        CATALOG,
        "c",
    )
    .iter()
    .map(inputs::admit_line)
    .collect()
}

/// The closed-loop client's request policy: deterministic given the
/// seed and the responses it has seen.
struct Client {
    rng: SmallRng,
    live: Vec<u64>,
    claimed: u64,
    total_wheel: u64,
}

impl Client {
    fn new(seed: u64, arch: &ArchitectureGraph) -> Client {
        Client {
            rng: SmallRng::seed_from_u64(seed),
            live: Vec::new(),
            claimed: 0,
            total_wheel: arch.tiles().map(|(_, t)| t.wheel_size()).sum(),
        }
    }

    fn next(&mut self, catalog: &[String]) -> (Op, String) {
        let roll = self.rng.gen_f64();
        if self.live.is_empty() {
            return self.admit(catalog);
        }
        if roll < STATUS_SHARE {
            return (Op::Status, STATUS_LINE.to_string());
        }
        if roll < STATUS_SHARE + REBIND_SHARE {
            let session = self.live[self.rng.below(self.live.len() as u64) as usize];
            return (Op::Rebind, inputs::rebind_line(session));
        }
        let occupancy = self.claimed as f64 / self.total_wheel as f64;
        let admit = if occupancy < OCCUPANCY_LOW {
            true
        } else if occupancy > OCCUPANCY_HIGH {
            false
        } else {
            self.rng.gen_bool(0.5)
        };
        if admit {
            self.admit(catalog)
        } else {
            let at = self.rng.below(self.live.len() as u64) as usize;
            (Op::Depart, inputs::depart_line(self.live.swap_remove(at)))
        }
    }

    fn admit(&mut self, catalog: &[String]) -> (Op, String) {
        let pick = self.rng.below(catalog.len() as u64) as usize;
        (Op::Admit, catalog[pick].clone())
    }

    /// Reads one response; `Err` names why it counts as failed.
    fn observe(&mut self, op: Op, response: &str, pass: &mut Pass) -> Result<(), String> {
        if let Some(kind) = response_kind(response) {
            return Err(format!("{} answered {kind}", op.name()));
        }
        if response_str(response, "op").as_deref() != Some(op.name()) {
            return Err(format!("{} answered {response}", op.name()));
        }
        let ok = response_ok(response) == Some(true);
        match (op, ok) {
            (Op::Admit, true) => {
                let session = response_u64(response, "session").ok_or("admit without session")?;
                let wheel = response_u64(response, "wheel").ok_or("admit without wheel")?;
                self.live.push(session);
                self.claimed += wheel;
                pass.admitted += 1;
                pass.wheel_admitted += wheel;
            }
            (Op::Admit, false) => {}
            (Op::Depart, true) => {
                let wheel =
                    response_u64(response, "reclaimed_wheel").ok_or("depart without wheel")?;
                self.claimed = self.claimed.saturating_sub(wheel);
            }
            (Op::Status, true) => {
                self.claimed =
                    response_u64(response, "claimed_wheel").ok_or("status without wheel")?;
            }
            (Op::Rebind, true) => {}
            (_, false) => return Err(format!("{} failed: {response}", op.name())),
        }
        if op == Op::Admit {
            pass.admit_attempts += 1;
        }
        Ok(())
    }
}

/// One client connection speaking JSONL.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            stream,
            frames: FrameBuffer::default(),
            buf: Vec::new(),
        })
    }

    /// Sends one line and waits for its response; `None` when the
    /// connection broke or timed out.
    fn roundtrip(&mut self, line: &str) -> Option<String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream.write_all(&self.buf).ok()?;
        let mut read_buf = [0u8; 8192];
        loop {
            if let Ok(Some(response)) = self.frames.next_line() {
                return Some(response);
            }
            match self.stream.read(&mut read_buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.frames.push_bytes(&read_buf[..n]),
            }
        }
    }
}

/// A response line without the server's trailing `"trace"` echo.
fn strip_trace(line: &str) -> &str {
    match line.rfind(",\"trace\":\"") {
        Some(at) if line.ends_with("\"}") => &line[..at],
        _ => line.strip_suffix('}').unwrap_or(line),
    }
}

/// The wire id the server gives the `i`-th timed request on the
/// connection (ids count every line, warm-up included, from 1).
fn wire_id(i: usize) -> u64 {
    (WARMUP + i + 1) as u64
}

/// One in-process execution of the recorded request stream.
struct Replay {
    /// Responses without the closing brace, comparable to
    /// [`strip_trace`] of the TCP responses.
    responses: Vec<String>,
    /// Per request: decode, execute and encode time (ms).
    parts: Vec<(Op, f64, f64, f64)>,
    wall_ms: f64,
}

/// Replays `sent` through a fresh in-process service:
/// `parse_request_line` → `execute_request` → `to_json_line`, each
/// call timed. With `verify`, every admitted allocation is re-verified
/// against the residual it was admitted on.
fn replay(
    arch: &ArchitectureGraph,
    sent: &[(Op, String)],
    metrics: Metrics,
    spans: &mut Spans,
    verify: bool,
    failures: &mut Vec<String>,
) -> Replay {
    let mut service = AllocationService::new(arch).with_metrics(metrics);
    let mut out = Replay {
        responses: Vec::with_capacity(sent.len()),
        parts: Vec::with_capacity(sent.len()),
        wall_ms: 0.0,
    };
    let start = Instant::now();
    for (i, (op, line)) in sent.iter().enumerate() {
        let before = verify.then(|| service.residual().clone());
        let op_index = i as u64;
        let request_span = spans.begin("request", op_index);
        let t0 = Instant::now();
        let span = spans.begin("wire.decode", op_index);
        let request = parse_request_line(line);
        spans.end(span);
        let t1 = Instant::now();
        let Ok(request) = request else {
            spans.end(request_span);
            failures.push(format!("replay could not parse request {i}"));
            continue;
        };
        let span = spans.begin("service.execute", op_index);
        let response = service.execute_request(request);
        spans.end(span);
        let t2 = Instant::now();
        let span = spans.begin("wire.encode", op_index);
        let line = response.to_json_line(wire_id(i));
        spans.end(span);
        let t3 = Instant::now();
        spans.end(request_span);
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        out.parts.push((*op, ms(t0, t1), ms(t1, t2), ms(t2, t3)));
        out.responses
            .push(line.strip_suffix('}').unwrap_or(&line).to_string());
        if let (Some(before), ServiceResponse::Admitted { session, .. }) = (&before, &response) {
            let app = service
                .application(*session)
                .expect("admitted session is live");
            let allocation = service
                .allocation(*session)
                .expect("admitted session is live");
            check_allocation(app, arch, before, allocation, i, failures);
        }
    }
    out.wall_ms = ms_since(start);
    out
}

/// Runs one pass with the catalog and request stream of `seed`.
///
/// # Panics
///
/// When the loopback server cannot be started or reached.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let setup = Stopwatch::start();
    let arch = platform();
    let server = NetServer::spawn(
        AllocationService::new(&arch),
        CommitLog::new(),
        ServerOptions::default(),
        "127.0.0.1:0",
    )
    .expect("loopback server starts");
    // Generating the catalog between spawn and connect lets the
    // acceptor enter its poll sleep first, so the first request waits a
    // near-constant remainder of the poll interval instead of either
    // nothing or all of it.
    let catalog = catalog_lines(&arch, seed);
    let mut conn = Conn::connect(server.local_addr()).expect("loopback server accepts");
    for _ in 0..WARMUP {
        let response = conn.roundtrip(STATUS_LINE);
        if response.as_deref().and_then(response_ok) != Some(true) {
            pass.failures.push("warm-up status failed".into());
        }
    }
    pass.setup = setup.lap();
    for line in &catalog {
        pass.inputs.add(line);
    }

    let mut client = Client::new(derive(seed, 2), &arch);
    let mut sent: Vec<(Op, String)> = Vec::with_capacity(REQUESTS);
    let mut received: Vec<String> = Vec::with_capacity(REQUESTS);
    let mut chunk = Batch::default();
    for _ in 0..REQUESTS {
        let (op, line) = client.next(&catalog);
        let watch = Stopwatch::start();
        let response = conn.roundtrip(&line);
        let lap = watch.lap();
        sent.push((op, line));
        let Some(response) = response else {
            pass.failures.push(format!("{} response lost", op.name()));
            break;
        };
        pass.timed.push(Timed { op, lap });
        let admitted = pass.admitted;
        if let Err(why) = client.observe(op, &response, &mut pass) {
            pass.failures.push(why);
        }
        chunk.lap.add(lap);
        chunk.requests += 1;
        chunk.admitted += pass.admitted - admitted;
        if chunk.requests == BATCH as u64 {
            pass.batches.push(chunk);
            chunk = Batch::default();
        }
        let stripped = strip_trace(&response).to_string();
        pass.transcript.add(&stripped);
        received.push(stripped);
    }
    drop(conn);
    let ServerReport {
        service,
        commit_log,
        stats,
        ..
    } = server.shutdown();
    for (count, what) in [
        (stats.requests_shed, "shed"),
        (stats.deadlines_expired, "deadline"),
        (stats.parse_errors, "parse error"),
    ] {
        for _ in 0..count {
            pass.failures.push(format!("server answered {what}"));
        }
    }

    if mode.verify {
        for session in service.session_ids() {
            let app = service.application(session).expect("live");
            let allocation = service.allocation(session).expect("live");
            let mut others = service.residual().clone();
            allocation.claim_set().revert(&mut others);
            check_allocation(
                app,
                &arch,
                &others,
                allocation,
                session.raw() as usize,
                &mut pass.failures,
            );
        }
        // One service alive at a time keeps the verification out of the
        // peak-memory figure.
        let digest = service.residual_digest();
        drop(service);
        let lines = commit_log.lines().iter().map(String::as_str);
        match replay_commit_log(&arch, ServiceConfig::default(), lines) {
            Ok(replayed) if replayed.residual_digest() == digest => {}
            Ok(_) => pass
                .failures
                .push("commit-log replay digest differs from the server's".into()),
            Err(error) => pass
                .failures
                .push(format!("commit log does not replay: {error}")),
        }
        let mut off = Spans::new(false);
        let verified = replay(
            &arch,
            &sent,
            Metrics::null(),
            &mut off,
            true,
            &mut pass.failures,
        );
        compare(&received, &verified.responses, &mut pass.failures);
    }

    if mode.traced {
        let metrics = Metrics::collecting();
        let mut spans = Spans::new(true);
        let traced = replay(
            &arch,
            &sent,
            metrics.clone(),
            &mut spans,
            false,
            &mut pass.failures,
        );
        compare(&received, &traced.responses, &mut pass.failures);
        // Tracing overhead is measured on the in-process workload only:
        // an untraced replay here would add a third execution per pass.
        let mut layer = TracedPass::new(
            spans,
            &metrics.snapshot().expect("collecting metrics"),
            0.0,
            traced.wall_ms,
            traced.parts.iter().map(|p| (p.0, p.2)).collect(),
            traced.parts.iter().map(|p| p.2).sum(),
        );
        layer.decode_us = traced.parts.iter().map(|p| p.1 * 1e3).collect();
        layer.encode_us = traced.parts.iter().map(|p| p.3 * 1e3).collect();
        layer.admit_bytes = sent
            .iter()
            .filter(|(op, _)| *op == Op::Admit)
            .map(|(_, line)| line.len() + 1)
            .collect();
        layer.transport_ms = pass
            .timed
            .iter()
            .zip(&traced.parts)
            .map(|(t, p)| (t.op, t.lap.wall_ms - (p.1 + p.2 + p.3)))
            .collect();
        layer.net = NetLayer {
            queue_depth_max: max_bucket(&stats.queue_depth),
            shed: stats.requests_shed,
            deadlines: stats.deadlines_expired,
            parse_errors: stats.parse_errors,
        };
        pass.traced = Some(layer);
    }
    pass
}

/// Counts every TCP response that differs from the in-process one.
fn compare(tcp: &[String], in_process: &[String], failures: &mut Vec<String>) {
    if tcp.len() != in_process.len() {
        failures.push(format!(
            "{} TCP responses against {} in process",
            tcp.len(),
            in_process.len()
        ));
    }
    for (i, (a, b)) in tcp.iter().zip(in_process).enumerate() {
        if a != b {
            failures.push(format!(
                "request {i}: TCP answered {a}}} but in process {b}}}"
            ));
        }
    }
}

/// Upper bound of the highest non-empty histogram bucket.
fn max_bucket(h: &sdfrs_core::metrics::HistogramSnapshot) -> u64 {
    h.counts.iter().rposition(|&c| c > 0).map_or(0, |i| {
        h.bounds.get(i).or(h.bounds.last()).copied().unwrap_or(0)
    })
}
