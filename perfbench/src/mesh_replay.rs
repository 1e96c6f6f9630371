//! `mesh_replay`: the offline batch path (`serve --input --batch
//! --regions`), in process.
//!
//! A 64×64 `grid_mesh_platform` is served with 16 regions and the
//! default batch of 16. Request lines are parsed with
//! `parse_request_line`, queued with `enqueue` and executed per full
//! batch with `drain()`; every response is encoded with `to_json_line`.
//! Half the requests admit small catalog applications, the other half
//! depart sessions admitted in earlier batches (a status probe stands in
//! while none exists), so the live set stays steady. This is the only
//! workload with large-platform binding, masked residual views, region
//! escalation, speculation and region-parallel commit.

use std::collections::BTreeMap;
use std::time::Instant;

use sdfrs_core::service::{parse_request_line, AllocationService, ServiceConfig, ServiceResponse};
use sdfrs_core::Metrics;
use sdfrs_fastutil::rng::SmallRng;
use sdfrs_gen::GeneratorConfig;
use sdfrs_platform::mesh::{grid_mesh_platform, MeshConfig};
use sdfrs_platform::{ArchitectureGraph, ClaimSet, ProcessorType};

use crate::cpu::Stopwatch;
use crate::inputs::{self, derive, STATUS_LINE};
use crate::pass::{check_allocation, Batch, Mode, Op, Pass, Timed, TracedPass};
use crate::spans::Spans;
use crate::stats::{ms_since, Fnv};

/// Applications in the seeded catalog.
const CATALOG: usize = 16;
/// Requests per batch: the service's default `batch_capacity`.
const BATCH: usize = 16;
/// Batches per pass.
const BATCHES: usize = 6;
/// Regions the platform is partitioned into.
const REGIONS: usize = 16;

/// The 64×64 grid mesh (4096 tiles, 4-neighbour links).
fn platform() -> ArchitectureGraph {
    let config = MeshConfig {
        rows: 64,
        cols: 64,
        processor_types: vec![ProcessorType::new("p1"), ProcessorType::new("p2")],
        ..MeshConfig::default()
    };
    grid_mesh_platform("grid64", &config)
}

/// The service of `serve --regions 16` with the default batch.
fn new_service(arch: &ArchitectureGraph, metrics: &Metrics) -> AllocationService {
    let mut config = ServiceConfig::default();
    config.regions = REGIONS;
    AllocationService::from_config(arch, config).with_metrics(metrics.clone())
}

/// The request mix: admits and departs of earlier-batch sessions in
/// equal shares.
struct Client {
    rng: SmallRng,
    live: Vec<u64>,
}

impl Client {
    fn batch(&mut self, catalog: &[String]) -> Vec<(Op, String)> {
        (0..BATCH)
            .map(|_| {
                if self.rng.gen_bool(0.5) {
                    let pick = self.rng.below(catalog.len() as u64) as usize;
                    (Op::Admit, catalog[pick].clone())
                } else if self.live.is_empty() {
                    (Op::Status, STATUS_LINE.to_string())
                } else {
                    let at = self.rng.below(self.live.len() as u64) as usize;
                    (Op::Depart, inputs::depart_line(self.live.swap_remove(at)))
                }
            })
            .collect()
    }
}

/// What one execution of the request stream produced.
#[derive(Default)]
struct Replay {
    timed: Vec<Timed>,
    batches: Vec<Batch>,
    /// Per request: (op, drain time of its batch).
    service_ops: Vec<(Op, f64)>,
    service_ms: f64,
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    admit_bytes: Vec<usize>,
    wall_ms: f64,
    transcript: Fnv,
    /// (admit attempts, admitted, wheel admitted).
    quality: (u64, u64, u64),
}

/// Executes the pass's request stream against `service`.
fn run(
    arch: &ArchitectureGraph,
    mut service: AllocationService,
    catalog: &[String],
    seed: u64,
    spans: &mut Spans,
    verify: bool,
    pass: &mut Pass,
) -> Replay {
    let mut client = Client {
        rng: SmallRng::seed_from_u64(derive(seed, 2)),
        live: Vec::new(),
    };
    // Claims of the live sessions, to rebuild the residual each request
    // of a batch was answered on.
    let mut claims: BTreeMap<u64, ClaimSet> = BTreeMap::new();
    let mut out = Replay::default();
    let (mut attempts, mut admitted, mut wheel_admitted) = (0, 0, 0);
    let start = Instant::now();
    // Checking the answers is not part of the timed work: kept out of
    // `wall_ms`.
    let mut checks_ms = 0.0;
    for b in 0..BATCHES {
        let lines = client.batch(catalog);
        let checks = Instant::now();
        let before = verify.then(|| service.residual().clone());
        checks_ms += ms_since(checks);
        let batch_span = spans.begin("batch", b as u64);
        let batch_watch = Stopwatch::start();
        let mut ops = Vec::with_capacity(lines.len());
        for (i, (op, line)) in lines.iter().enumerate() {
            let index = (b * BATCH + i) as u64;
            let t = Instant::now();
            let span = spans.begin("wire.decode", index);
            let request = parse_request_line(line);
            spans.end(span);
            out.decode_us.push(ms_since(t) * 1e3);
            if *op == Op::Admit {
                out.admit_bytes.push(line.len() + 1);
            }
            let Ok(request) = request else {
                pass.failures
                    .push(format!("request {index} does not parse"));
                continue;
            };
            let t = Instant::now();
            let span = spans.begin("service.enqueue", index);
            let seq = service.enqueue(request);
            spans.end(span);
            out.service_ms += ms_since(t);
            ops.push((*op, seq));
        }
        let t = Instant::now();
        let span = spans.begin("service.drain", b as u64);
        let responses = service.drain();
        spans.end(span);
        let drain_ms = ms_since(t);
        out.service_ms += drain_ms;
        let mut encoded = Vec::with_capacity(responses.len());
        for (seq, response) in &responses {
            let t = Instant::now();
            let span = spans.begin("wire.encode", *seq);
            encoded.push(response.to_json_line(*seq));
            spans.end(span);
            out.encode_us.push(ms_since(t) * 1e3);
        }
        let batch = batch_watch.lap();
        spans.end(batch_span);

        if responses.len() != ops.len() {
            pass.failures.push(format!(
                "batch {b}: {} responses to {} requests",
                responses.len(),
                ops.len()
            ));
        }
        let checks = Instant::now();
        let admitted_before = admitted;
        let mut state = before;
        for ((op, seq), (answered, response)) in ops.iter().zip(&responses) {
            // A batch answers every request when its drain returns.
            out.timed.push(Timed {
                op: *op,
                lap: batch,
            });
            out.service_ops.push((*op, drain_ms));
            if seq != answered {
                pass.failures
                    .push(format!("batch {b}: response {answered} out of order"));
            }
            match (op, response) {
                (Op::Admit, ServiceResponse::Admitted { session, wheel, .. }) => {
                    attempts += 1;
                    admitted += 1;
                    wheel_admitted += wheel;
                    client.live.push(session.raw());
                    let allocation = service
                        .allocation(*session)
                        .expect("admitted session is live");
                    if let Some(state) = state.as_mut() {
                        let app = service.application(*session).expect("live");
                        check_allocation(
                            app,
                            arch,
                            state,
                            allocation,
                            *seq as usize,
                            &mut pass.failures,
                        );
                        allocation.claim_set().apply(state);
                    }
                    claims.insert(session.raw(), allocation.claim_set());
                }
                (Op::Admit, ServiceResponse::Rejected { .. }) => attempts += 1,
                (Op::Depart, ServiceResponse::Departed { session, .. }) => {
                    let claim = claims.remove(&session.raw());
                    if let (Some(state), Some(claim)) = (state.as_mut(), claim) {
                        claim.revert(state);
                    }
                }
                (Op::Status, ServiceResponse::Status(_)) => {}
                (_, other) => pass
                    .failures
                    .push(format!("request {seq}: unexpected answer {other:?}")),
            }
        }
        if let Some(state) = state {
            if state.digest() != service.residual_digest() {
                pass.failures.push(format!(
                    "batch {b}: residual differs from the replayed claims"
                ));
            }
        }
        out.batches.push(Batch {
            lap: batch,
            requests: responses.len() as u64,
            admitted: admitted - admitted_before,
        });
        for line in &encoded {
            out.transcript.add(line);
        }
        checks_ms += ms_since(checks);
    }
    out.wall_ms = ms_since(start) - checks_ms;
    out.quality = (attempts, admitted, wheel_admitted);
    out
}

/// Runs one pass with the catalog and request stream of `seed`.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let setup = Stopwatch::start();
    let arch = platform();
    let service = new_service(&arch, &Metrics::null());
    let types = vec![ProcessorType::new("p1"), ProcessorType::new("p2")];
    // Two-actor applications: every probe state on 4096 tiles carries
    // per-tile TDMA state, and 2–4-actor ones made single batches take
    // seconds and the process gigabytes.
    let config = GeneratorConfig {
        actors: 2..=2,
        extra_channels: 0..=0,
        repetition: 1..=2,
        ..inputs::small_app_config()
    };
    let catalog: Vec<String> = inputs::catalog(config, types, derive(seed, 1), CATALOG, "g")
        .iter()
        .map(inputs::admit_line)
        .collect();
    pass.setup = setup.lap();
    for line in &catalog {
        pass.inputs.add(line);
    }

    // A traced pass runs the stream twice. Whichever run goes first
    // pays for faulting in fresh memory, so odd seeds trace first.
    let metrics = if mode.traced {
        Metrics::collecting()
    } else {
        Metrics::null()
    };
    let mut spans = Spans::new(mode.traced);
    let traced_run = |spans: &mut Spans, pass: &mut Pass| {
        let service = new_service(&arch, &metrics);
        run(&arch, service, &catalog, seed, spans, false, pass)
    };
    let traced_first = (mode.traced && seed % 2 == 1).then(|| traced_run(&mut spans, &mut pass));
    let mut off = Spans::new(false);
    let timed = run(
        &arch,
        service,
        &catalog,
        seed,
        &mut off,
        mode.verify,
        &mut pass,
    );
    pass.transcript = timed.transcript;
    (pass.admit_attempts, pass.admitted, pass.wheel_admitted) = timed.quality;
    if mode.traced {
        let traced = traced_first.unwrap_or_else(|| traced_run(&mut spans, &mut pass));
        if (traced.transcript, traced.quality) != (timed.transcript, timed.quality) {
            pass.failures
                .push("traced replay answered differently".into());
        }
        let mut layer = TracedPass::new(
            spans,
            &metrics.snapshot().expect("collecting metrics"),
            timed.wall_ms,
            traced.wall_ms,
            traced.service_ops,
            traced.service_ms,
        );
        layer.decode_us = traced.decode_us;
        layer.encode_us = traced.encode_us;
        layer.admit_bytes = traced.admit_bytes;
        pass.traced = Some(layer);
    }
    pass.timed = timed.timed;
    pass.batches = timed.batches;
    pass
}
