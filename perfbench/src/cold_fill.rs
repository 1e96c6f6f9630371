//! `cold_fill`: the paper's Sec 10.1 protocol, in process.
//!
//! A pass fills one sequence of each of the four Sec 10.1 generator
//! profiles; each fills a fresh `AllocationService` on one of the three
//! 3×3 experiment platforms until its first rejection, one timed `admit`
//! per application. No application is admitted twice, so reuse across
//! admissions cannot help: the cold throughput probe dominates. After the rejection the
//! caller reads `status` and departs every session, which must return
//! the platform to empty.

use std::time::Instant;

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::service::AllocationService;
use sdfrs_core::{Metrics, SessionId};
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_platform::mesh::experiment_platforms;
use sdfrs_platform::{ArchitectureGraph, PlatformState};

use crate::cpu::{reference_ms, speed, Lap, Stopwatch};
use crate::inputs::derive;
use crate::pass::{check_allocation, Batch, Mode, Op, Pass, Timed, TracedPass};
use crate::spans::Spans;
use crate::stats::ms_since;

/// Applications generated per sequence: more than any 3×3 platform
/// holds, so every sequence ends in a rejection.
const SEQUENCE_LEN: usize = 24;

/// One generated sequence and the platform it fills.
struct Sequence {
    /// Index into [`experiment_platforms`].
    platform: usize,
    /// The applications, admission order.
    apps: Vec<ApplicationGraph>,
}

/// The pass's inputs for `seed`: one sequence per profile, on
/// platforms rotated by the seed.
fn sequences(archs: &[ArchitectureGraph], seed: u64) -> Vec<Sequence> {
    let rotation = (derive(seed, 3) % archs.len() as u64) as usize;
    GeneratorConfig::benchmark_sets()
        .into_iter()
        .enumerate()
        .map(|(p, (profile, config))| {
            let platform = (p + rotation) % archs.len();
            let types = archs[platform].processor_types();
            let mut generator = AppGenerator::new(config, types, derive(seed, 10 + p as u64));
            Sequence {
                platform,
                apps: generator.generate_sequence(profile, SEQUENCE_LEN),
            }
        })
        .collect()
}

/// What one execution of the sequences produced.
#[derive(Default)]
struct Fill {
    timed: Vec<Timed>,
    service: Lap,
    attempts: u64,
    admitted: u64,
    wheel: u64,
    wall_ms: f64,
}

/// Times `f` as one service call under a span named `name`.
fn call<R>(
    spans: &mut Spans,
    name: &'static str,
    op: Op,
    out: &mut Fill,
    f: impl FnOnce() -> R,
) -> R {
    let index = out.timed.len() as u64;
    let watch = Stopwatch::start();
    let span = spans.begin(name, index);
    let result = f();
    spans.end(span);
    out.timed.push(Timed {
        op,
        lap: watch.lap(),
    });
    result
}

fn fill(
    archs: &[ArchitectureGraph],
    sequences: &[Sequence],
    metrics: &Metrics,
    spans: &mut Spans,
    verify: bool,
    pass: &mut Pass,
) -> Fill {
    let mut out = Fill::default();
    let start = Instant::now();
    // Verification and the reference kernel are not part of the timed
    // work: kept out of `wall_ms`.
    let mut checks_ms = 0.0;
    // A sequence can take seconds, long enough for the host to change
    // speed within a pass, so the reference kernel runs between
    // sequences and each sequence is scaled by the speed around it.
    let reference = |checks_ms: &mut f64| {
        let t = Instant::now();
        let ms = reference_ms();
        *checks_ms += ms_since(t);
        ms
    };
    let mut references = vec![reference(&mut checks_ms)];
    let mut first_request = Vec::with_capacity(sequences.len());
    for (q, sequence) in sequences.iter().enumerate() {
        first_request.push(out.timed.len());
        let arch = &archs[sequence.platform];
        let seq_span = spans.begin("sequence", q as u64);
        let span = spans.begin("service.new", q as u64);
        let mut service = AllocationService::new(arch).with_metrics(metrics.clone());
        spans.end(span);
        let mut admitted: Vec<(SessionId, &ApplicationGraph)> = Vec::new();
        for app in &sequence.apps {
            let result = call(spans, "service.admit", Op::Admit, &mut out, || {
                service.admit(app)
            });
            out.attempts += 1;
            let Ok(session) = result else { break };
            let allocation = service
                .allocation(session)
                .expect("admitted session is live");
            out.wheel += allocation.usage.iter().map(|u| u.wheel).sum::<u64>();
            out.admitted += 1;
            admitted.push((session, app));
        }
        spans.end(seq_span);

        let checks = Instant::now();
        if verify {
            // Admissions never depart mid-sequence, so the residual an
            // allocation was admitted on is the sum of the earlier claims.
            let mut state = PlatformState::new(arch);
            for (k, &(session, app)) in admitted.iter().enumerate() {
                let allocation = service.allocation(session).expect("live");
                check_allocation(app, arch, &state, allocation, k, &mut pass.failures);
                allocation.claim_set().apply(&mut state);
            }
            if state.digest() != service.residual_digest() {
                pass.failures.push(format!(
                    "sequence {q}: residual is not the sum of the claims"
                ));
            }
        }
        checks_ms += ms_since(checks);

        let teardown = spans.begin("teardown", q as u64);
        let status = call(spans, "service.status", Op::Status, &mut out, || {
            service.status()
        });
        let session_wheel: u64 = status.sessions.iter().map(|s| s.wheel).sum();
        if status.sessions.len() != admitted.len() || session_wheel != status.claimed.wheel {
            pass.failures.push(format!(
                "sequence {q}: status disagrees with the admissions"
            ));
        }
        for &(session, _) in &admitted {
            let result = call(spans, "service.depart", Op::Depart, &mut out, || {
                service.depart(session)
            });
            if result.is_err() {
                pass.failures
                    .push(format!("sequence {q}: depart of live {session} failed"));
            }
        }
        spans.end(teardown);
        if service.residual_digest() != PlatformState::new(arch).digest() {
            pass.failures
                .push(format!("sequence {q}: departures left resources claimed"));
        }
        references.push(reference(&mut checks_ms));
    }
    out.wall_ms = ms_since(start) - checks_ms;
    first_request.push(out.timed.len());
    for (q, requests) in first_request.windows(2).enumerate() {
        let speed = speed(references[q], references[q + 1]);
        for t in &mut out.timed[requests[0]..requests[1]] {
            t.lap.scale(speed);
        }
    }
    for t in &out.timed {
        out.service.add(t.lap);
    }
    out
}

/// Runs one pass with the inputs of `seed`.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let setup = Stopwatch::start();
    let archs = experiment_platforms();
    let sequences = sequences(&archs, seed);
    pass.setup = setup.lap();
    for sequence in &sequences {
        for app in &sequence.apps {
            pass.inputs
                .add(&sdfrs_appmodel::textio::write_application(app));
        }
    }

    // A traced pass fills the sequences twice. Whichever fill runs first
    // pays for faulting in fresh memory, so odd seeds trace first.
    let metrics = if mode.traced {
        Metrics::collecting()
    } else {
        Metrics::null()
    };
    let mut spans = Spans::new(mode.traced);
    let traced_first = (mode.traced && seed % 2 == 1)
        .then(|| fill(&archs, &sequences, &metrics, &mut spans, false, &mut pass));
    let mut off = Spans::new(false);
    let timed = fill(
        &archs,
        &sequences,
        &Metrics::null(),
        &mut off,
        mode.verify,
        &mut pass,
    );
    let quality = format!("{}/{}/{}", timed.attempts, timed.admitted, timed.wheel);
    pass.transcript.add(&quality);
    pass.admit_attempts = timed.attempts;
    pass.admitted = timed.admitted;
    pass.wheel_admitted = timed.wheel;
    // The batch unit is the whole pass: one fill per profile. Profiles
    // differ by orders of magnitude in fill time, so a per-sequence
    // median would sit on the cliff between them.
    pass.batches.push(Batch {
        lap: timed.service,
        requests: timed.timed.len() as u64,
        admitted: timed.admitted,
    });

    if mode.traced {
        let traced = traced_first
            .unwrap_or_else(|| fill(&archs, &sequences, &metrics, &mut spans, false, &mut pass));
        if format!("{}/{}/{}", traced.attempts, traced.admitted, traced.wheel) != quality {
            pass.failures
                .push("traced fill differs from the untraced one".into());
        }
        pass.traced = Some(TracedPass::new(
            spans,
            &metrics.snapshot().expect("collecting metrics"),
            timed.wall_ms,
            traced.wall_ms,
            traced.timed.iter().map(|t| (t.op, t.lap.wall_ms)).collect(),
            traced.service.wall_ms,
        ));
    }
    pass.timed = timed.timed;
    pass
}
