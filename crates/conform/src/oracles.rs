//! The eleven-oracle panel (see the crate docs for the rationale).
//!
//! Every oracle is *differential*: it never needs to know the right
//! answer for a scenario, only that two independent routes to the answer
//! agree. Infeasible scenarios are first-class — the comparison oracles
//! then require both routes to reject with the same error.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::bind::{bind_actors_observed, BindConfig};
use sdfrs_core::dse::{self, DseResult};
use sdfrs_core::events::FlowObserver;
use sdfrs_core::exact::enumerate_exhaustive;
use sdfrs_core::flow::{Allocation, FlowStats};
use sdfrs_core::list_sched::{construct_schedules, ListScheduler};
use sdfrs_core::slice::ProcessingBound;
use sdfrs_core::verify::verify_allocation;
use sdfrs_core::{
    AdmissionPolicy, Allocator, Binding, BindingAwareGraph, ConstrainedExecutor, CostWeights,
    FlowEvent, MapError, Metrics, MetricsSnapshot, RecordingSink, SolveOutcome, SolveReport,
};
use sdfrs_gen::Scenario;
use sdfrs_platform::{ArchitectureGraph, PlatformState, RegionId, RegionMap, TileId};
use sdfrs_sdf::analysis::selftimed::{SelfTimedExecutor, ThroughputResult};
use sdfrs_sdf::error::SdfError;
use sdfrs_sdf::hsdf::{hsdf_reference_throughput, hsdf_size};
use sdfrs_sdf::rational::Rational;
use sdfrs_sdf::transform::weak_component;
use sdfrs_sdf::{ActorId, SdfGraph};

use crate::reference::{
    masked_state, reference_bind, reference_slice_search, ReferenceAttempt, ReferenceProbe,
    ScanExecutor, ScanListScheduler,
};
use crate::{FaultInjection, HarnessConfig, OracleFailure, OracleId, ScenarioReport};

type FlowOutcome = Result<(Allocation, FlowStats), MapError>;

/// Runs every oracle on one scenario and collects the verdicts.
pub(crate) fn run_panel(scenario: &Scenario, config: &HarnessConfig) -> ScenarioReport {
    let app = &scenario.app;
    let arch = &scenario.arch;
    let state = PlatformState::new(arch);

    let sink = RecordingSink::new();
    let metrics = Metrics::collecting();
    let base: FlowOutcome = Allocator::from_config(config.flow)
        .with_sink(sink.clone())
        .with_metrics(metrics.clone())
        .allocate(app, arch, &state);
    let events = sink.events();
    let snapshot = metrics.snapshot();

    let mut failures = Vec::new();
    let mut skipped = Vec::new();

    // Oracle 4 — invariants: the independent verifier re-derives every
    // validity condition of Definition 11 on the produced allocation.
    if let Ok((alloc, _)) = &base {
        match verify_allocation(app, arch, &state, alloc) {
            Ok(violations) if violations.is_empty() => {}
            Ok(violations) => failures.push(OracleFailure {
                oracle: OracleId::Invariants,
                detail: format!("verifier found violations: {violations:?}"),
            }),
            Err(e) => failures.push(OracleFailure {
                oracle: OracleId::Invariants,
                detail: format!("verifier itself failed: {e}"),
            }),
        }
    }

    // Oracle 5 — event reconciliation: the recorded stream must agree
    // with the counts the flow's steps returned, and the metrics registry
    // (the event fold plus the cache's own counters) with both.
    if let Ok((_, stats)) = &base {
        reconcile_events(&events, stats, snapshot.as_ref(), &mut failures);
    }

    // Oracle 2 — cache consistency: a cache-disabled run must land on the
    // same allocation (or the same rejection).
    let uncached: FlowOutcome = Allocator::from_config(config.flow)
        .with_cache_disabled()
        .allocate(app, arch, &state);
    compare_outcomes(
        OracleId::CacheConsistency,
        "cached",
        &base,
        "cache-disabled",
        &uncached,
        &mut failures,
    );
    // Oracle 3 — parallel consistency: the slice searches and the DSE
    // sweep advertise identical results regardless of thread count.
    let sequential: FlowOutcome = Allocator::from_config(config.flow)
        .with_parallelism(false)
        .allocate(app, arch, &state);
    let parallel: FlowOutcome = Allocator::from_config(config.flow)
        .with_parallelism(true)
        .allocate(app, arch, &state);
    compare_outcomes(
        OracleId::ParallelConsistency,
        "sequential",
        &sequential,
        "parallel",
        &parallel,
        &mut failures,
    );
    compare_dse(
        &dse::explore(app, arch, &state, &config.dse_weights),
        &dse::explore_parallel(app, arch, &state, &config.dse_weights),
        &mut failures,
    );

    // Oracle 6 — session reclamation: after an admit/depart/admit trace
    // through the admission service, its survivors must match a fresh
    // sequence allocation.
    reclamation_oracle(scenario, config, &mut failures);

    // Oracle 7 — regional admission validity: with the platform
    // partitioned into regions, every regional admission must be valid
    // on the residual it was admitted on, and the final residual must
    // hold exactly the live sessions' claims.
    regional_admission_oracle(scenario, config, &mut failures, &mut skipped);

    // Oracle 8 — network/replay equivalence: the same trace pushed
    // through a real loopback TCP server must leave a commit log whose
    // offline replay reproduces the live residual byte-for-byte.
    net_replay_oracle(scenario, config, &mut failures);

    // Oracle 9 — trace reconciliation: a traced service admit's probe
    // events must match the checks, hits and misses the throughput cache
    // counted, and trace ids must not influence the allocation.
    trace_reconciliation_oracle(scenario, config, &mut failures);

    // Oracle 1 — HSDF equivalence (the paper's own claim).
    hsdf_oracle(scenario, config, &base, &mut failures, &mut skipped);

    // Oracle 10 — exact optimality: on enumerable instances the
    // branch-and-bound solver must equal the exhaustive optimum
    // bit-for-bit and never trail the greedy heuristic.
    exact_optimality_oracle(scenario, config, &base, &mut failures, &mut skipped);

    // Oracle 11 — executor equivalence: the event-driven constrained
    // executor must return what the reference scan returns (up to where
    // it detects the recurrence) and stay within the processing bound.
    let mut bound_answered_errors = 0;
    executor_oracle(
        scenario,
        config,
        &base,
        &mut failures,
        &mut skipped,
        &mut bound_answered_errors,
    );

    ScenarioReport {
        seed: None,
        scenario: scenario.name.clone(),
        allocated: base.is_ok(),
        error: base.as_ref().err().map(|e| e.to_string()),
        failures,
        skipped,
        bound_answered_errors,
        events: if config.keep_events {
            events
        } else {
            Vec::new()
        },
        metrics: snapshot,
    }
}

/// Two allocator runs must agree on the allocation or on the rejection.
///
/// `achieved` is compared through [`Allocation::guaranteed_throughput`]
/// rather than structurally: a cache hit legitimately skips exploration,
/// so `states_explored` may differ while the throughput may not.
fn compare_outcomes(
    oracle: OracleId,
    left_label: &str,
    left: &FlowOutcome,
    right_label: &str,
    right: &FlowOutcome,
    failures: &mut Vec<OracleFailure>,
) {
    let fail = |detail: String| OracleFailure { oracle, detail };
    match (left, right) {
        (Ok((a, _)), Ok((b, _))) => {
            if let Some(diff) = diff_allocations(a, b) {
                failures.push(fail(format!("{left_label} vs {right_label}: {diff}")));
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                failures.push(fail(format!(
                    "{left_label} rejected with `{a}` but {right_label} with `{b}`"
                )));
            }
        }
        (Ok(_), Err(e)) => failures.push(fail(format!(
            "{left_label} allocated but {right_label} rejected with `{e}`"
        ))),
        (Err(e), Ok(_)) => failures.push(fail(format!(
            "{left_label} rejected with `{e}` but {right_label} allocated"
        ))),
    }
}

/// First structural difference between two allocations, if any.
fn diff_allocations(a: &Allocation, b: &Allocation) -> Option<String> {
    if a.binding != b.binding {
        return Some("bindings differ".into());
    }
    if a.schedules != b.schedules {
        return Some("static-order schedules differ".into());
    }
    if a.slices != b.slices {
        return Some(format!("slices differ ({:?} vs {:?})", a.slices, b.slices));
    }
    if a.usage != b.usage {
        return Some("claimed tile usage differs".into());
    }
    if a.guaranteed_throughput() != b.guaranteed_throughput() {
        return Some(format!(
            "guaranteed throughput differs ({} vs {})",
            a.guaranteed_throughput(),
            b.guaranteed_throughput()
        ));
    }
    None
}

/// Sequential and parallel DSE must produce identical point sets —
/// `explore_parallel` documents bit-identical output.
fn compare_dse(seq: &DseResult, par: &DseResult, failures: &mut Vec<OracleFailure>) {
    let fail = |detail: String| OracleFailure {
        oracle: OracleId::ParallelConsistency,
        detail,
    };
    if seq.points.len() != par.points.len() {
        failures.push(fail(format!(
            "DSE point counts differ ({} sequential vs {} parallel)",
            seq.points.len(),
            par.points.len()
        )));
        return;
    }
    for (i, (s, p)) in seq.points.iter().zip(&par.points).enumerate() {
        if s.weights != p.weights || s.connection_model != p.connection_model {
            failures.push(fail(format!("DSE point {i} configurations differ")));
        } else if let Some(diff) = diff_allocations(&s.allocation, &p.allocation) {
            failures.push(fail(format!("DSE point {i}: {diff}")));
        } else if s.wheel_claimed != p.wheel_claimed || s.tiles_used != p.tiles_used {
            failures.push(fail(format!("DSE point {i} resource claims differ")));
        }
    }
    if seq.failures.len() != par.failures.len() {
        failures.push(fail(format!(
            "DSE failure counts differ ({} sequential vs {} parallel)",
            seq.failures.len(),
            par.failures.len()
        )));
        return;
    }
    for ((sw, sm, se), (pw, pm, pe)) in seq.failures.iter().zip(&par.failures) {
        if sw != pw || sm != pm || se.to_string() != pe.to_string() {
            failures.push(fail("DSE failure lists differ".into()));
            return;
        }
    }
}

/// Oracle 5: the event stream and the [`FlowStats`] the steps return are
/// counted independently, and the metrics registry folds the events
/// beside the cache's own check/hit/miss/bound counters; any drift means
/// one of them lies.
fn reconcile_events(
    events: &[(std::time::Duration, FlowEvent)],
    stats: &FlowStats,
    snapshot: Option<&MetricsSnapshot>,
    failures: &mut Vec<OracleFailure>,
) {
    let fail = |detail: String| OracleFailure {
        oracle: OracleId::EventReconciliation,
        detail,
    };
    let kinds: Vec<&str> = events.iter().map(|(_, e)| e.kind()).collect();
    if kinds.first() != Some(&"flow_started") || kinds.last() != Some(&"flow_finished") {
        failures.push(fail(
            "stream is not bracketed by flow_started/flow_finished".into(),
        ));
    }
    let count = |k: &str| kinds.iter().filter(|&&x| x == k).count();

    let bind_attempts = count("bind_attempt");
    if bind_attempts != stats.bind_attempts {
        failures.push(fail(format!(
            "{bind_attempts} bind_attempt events but stats.bind_attempts = {}",
            stats.bind_attempts
        )));
    }

    let probes = count("slice_probe");
    if probes != stats.throughput_checks {
        failures.push(fail(format!(
            "{probes} slice_probe events but stats.throughput_checks = {}",
            stats.throughput_checks
        )));
    }
    let iterations = stats.global_slice_iterations + stats.refine_slice_iterations;
    if stats.throughput_checks != iterations {
        failures.push(fail(format!(
            "stats.throughput_checks = {} but slice iterations sum to {iterations}",
            stats.throughput_checks
        )));
    }
    // throughput_checks = cache_hits + cache_misses + bound_answers +
    // monotone_answers, with each term matched against the probe events'
    // flags.
    let answered =
        stats.cache_hits + stats.cache_misses + stats.bound_answers + stats.monotone_answers;
    if stats.throughput_checks != answered {
        failures.push(fail(format!(
            "stats.throughput_checks = {} but cache hits + misses + bound and monotone \
             answers = {answered}",
            stats.throughput_checks,
        )));
    }
    let flags = probe_flags(events.iter().map(|(_, e)| e));
    let explored_probes = probes.saturating_sub(flags.hits + flags.bounds + flags.monotone);
    for (what, from_events, from_stats) in [
        ("cache-hit", flags.hits, stats.cache_hits),
        ("bound-answered", flags.bounds, stats.bound_answers),
        ("monotone-answered", flags.monotone, stats.monotone_answers),
        ("explored", explored_probes, stats.cache_misses),
    ] {
        if from_events != from_stats {
            failures.push(fail(format!(
                "{from_events} {what} slice_probe events but stats say {from_stats}"
            )));
        }
    }

    let recurrence_states: usize = events
        .iter()
        .filter_map(|(_, e)| match e {
            FlowEvent::ScheduleRecurrence { states, .. } => Some(*states),
            _ => None,
        })
        .sum();
    if recurrence_states != stats.schedule_states {
        failures.push(fail(format!(
            "schedule_recurrence events sum to {recurrence_states} states but \
             stats.schedule_states = {}",
            stats.schedule_states
        )));
    }

    // A fresh single-run allocator's registry — the fold of its events
    // and the cache's counters — must agree exactly with the step counts.
    if let Some(m) = snapshot {
        for (name, expected) in work_counts(stats) {
            let got = m.counter(name);
            if got != expected as u64 {
                failures.push(fail(format!(
                    "metrics counter {name} = {got} but stats say {expected}"
                )));
            }
        }
        if m.counter("flows_started") != 1 || m.counter("flows_succeeded") != 1 {
            failures.push(fail(format!(
                "metrics saw {} flows started / {} succeeded on a single successful run",
                m.counter("flows_started"),
                m.counter("flows_succeeded")
            )));
        }
    }
}

/// How many slice probes the cache, the processing bound and
/// monotonicity answered.
#[derive(Debug, Default)]
struct ProbeFlags {
    hits: usize,
    bounds: usize,
    monotone: usize,
}

/// The [`ProbeFlags`] of the slice probes among `events`.
fn probe_flags<'a>(events: impl Iterator<Item = &'a FlowEvent>) -> ProbeFlags {
    let mut flags = ProbeFlags::default();
    for e in events {
        if let FlowEvent::SliceProbe {
            cache_hit,
            bound,
            monotone,
            ..
        } = e
        {
            flags.hits += usize::from(*cache_hit);
            flags.bounds += usize::from(*bound);
            flags.monotone += usize::from(*monotone);
        }
    }
    flags
}

/// Oracle 6: exact reclamation of the admission service.
///
/// Drives an admit → admit → depart-latest → depart-bogus → admit →
/// status trace through one [`AllocationService`]. Departing the *most
/// recently admitted* live session keeps the trace LIFO, so the surviving
/// sessions, re-allocated from scratch with `allocate_sequence`, must
/// reproduce the exact allocations and residual the service holds —
/// proving departures reclaim precisely what admissions claimed.
fn reclamation_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    failures: &mut Vec<OracleFailure>,
) {
    use sdfrs_core::service::{AllocationService, ServiceConfig, ServiceRequest};
    use sdfrs_core::SessionId;

    let oracle = OracleId::SessionReclamation;
    let app = &scenario.app;
    let arch = &scenario.arch;
    let bogus = SessionId::from_raw(u64::MAX);

    let mut svc_config = ServiceConfig::default();
    svc_config.flow = config.flow;
    let mut service = AllocationService::from_config(arch, svc_config);
    let admit = || ServiceRequest::Admit {
        app: Box::new(app.clone()),
    };
    service.execute_request(admit());
    service.execute_request(admit());
    let latest = service.session_ids().last().copied().unwrap_or(bogus);
    for request in [
        ServiceRequest::Depart { session: latest },
        ServiceRequest::Depart { session: bogus },
        admit(),
        ServiceRequest::Status,
    ] {
        service.execute_request(request);
    }

    // Because departures were LIFO, the live sessions were each admitted
    // on exactly the state a fresh sequence of their applications
    // reproduces.
    let survivors = service.session_ids();
    let final_apps: Vec<_> = survivors
        .iter()
        .filter_map(|&id| service.application(id).cloned())
        .collect();
    let replay = Allocator::from_config(config.flow).allocate_sequence(&final_apps, arch);
    if let Some(e) = &replay.failure {
        failures.push(OracleFailure {
            oracle,
            detail: format!("fresh sequence rejected a surviving session's application with `{e}`"),
        });
        return;
    }
    for (i, &id) in survivors.iter().enumerate() {
        let held = service.allocation(id).expect("survivor is live");
        if let Some(diff) = diff_allocations(held, &replay.allocations[i]) {
            failures.push(OracleFailure {
                oracle,
                detail: format!("surviving session {id} vs fresh replay: {diff}"),
            });
        }
    }
    if replay.final_state != *service.residual() {
        failures.push(OracleFailure {
            oracle,
            detail: "service residual differs from fresh-replay platform state \
                     (departure did not reclaim exactly its claim)"
                .into(),
        });
    }
}

/// Oracle 7: validity of region-local admission.
///
/// Partitions the scenario platform into regions — a coarse split (2
/// regions) and the finest split (one tile per region, which starves
/// most home regions and forces the escalation chain) — and drives an
/// admit/depart/status trace through one regional service. Every
/// admission must pass [`verify_allocation`] with zero violations
/// against the residual it was admitted on, and the final residual must
/// equal a fresh platform state with every live session's claim applied.
///
/// Two differential checks cover the region view. Before each admit, at
/// every escalation step up to the first that allocates, a flow on the
/// view of the step's regions must equal the whole-platform flow on the
/// [`masked_state`] clone: the same allocation and work counts, or the
/// same error. And under all five Table 4 weights, on the fresh platform
/// and on the residual the coarse trace leaves, the binding step must
/// try the same candidates at the same cost bits, with the same outcome,
/// as [`reference_bind`].
fn regional_admission_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    failures: &mut Vec<OracleFailure>,
    skipped: &mut Vec<(OracleId, String)>,
) {
    use sdfrs_core::service::{AllocationService, ServiceConfig, ServiceRequest, ServiceResponse};
    use sdfrs_core::SessionId;

    let oracle = OracleId::RegionalAdmissionValidity;
    let app = &scenario.app;
    let arch = &scenario.arch;
    if arch.tile_count() < 2 {
        skipped.push((oracle, "single-tile platform has only one region".into()));
        return;
    }

    let mut region_counts = vec![2usize, arch.tile_count()];
    region_counts.dedup();
    let mut residuals = vec![PlatformState::new(arch)];

    for regions in region_counts {
        let mut svc_config = ServiceConfig::default();
        svc_config.flow = config.flow;
        svc_config.regions = regions;
        let mut service = AllocationService::from_config(arch, svc_config);
        let admit = || ServiceRequest::Admit {
            app: Box::new(app.clone()),
        };
        // Commits so far: the home region of the next admit.
        let mut committed = 0usize;
        let mut run = |service: &mut AllocationService, requests: Vec<ServiceRequest>| {
            for request in requests {
                let before = service.residual().clone();
                if matches!(request, ServiceRequest::Admit { .. }) {
                    let map = service.region_map();
                    let home = RegionId::from_index(committed % map.region_count());
                    view_against_masked_clone(scenario, config, map, home, &before, failures);
                }
                let ServiceResponse::Admitted { session, .. } = service.execute_request(request)
                else {
                    continue;
                };
                committed += 1;
                let alloc = service
                    .allocation(session)
                    .expect("admitted session is live");
                match verify_allocation(app, arch, &before, alloc) {
                    Ok(violations) if violations.is_empty() => {}
                    Ok(violations) => failures.push(OracleFailure {
                        oracle,
                        detail: format!(
                            "regions={regions}: session {session} violates the residual it \
                             was admitted on: {violations:?}"
                        ),
                    }),
                    Err(e) => failures.push(OracleFailure {
                        oracle,
                        detail: format!("regions={regions}: verifier itself failed: {e}"),
                    }),
                }
            }
        };
        // Enough admits to spread over several homes, then a departure
        // of the first live session, two more admits against the freed
        // platform, and a status probe.
        run(&mut service, vec![admit(), admit(), admit(), admit()]);
        let target = service
            .session_ids()
            .first()
            .copied()
            .unwrap_or(SessionId::from_raw(u64::MAX));
        run(
            &mut service,
            vec![
                ServiceRequest::Depart { session: target },
                admit(),
                admit(),
                ServiceRequest::Status,
            ],
        );
        let mut expected = PlatformState::new(arch);
        for id in service.session_ids() {
            let alloc = service.allocation(id).expect("listed session is live");
            alloc.claim_set().apply(&mut expected);
        }
        if expected != *service.residual() {
            failures.push(OracleFailure {
                oracle,
                detail: format!(
                    "regions={regions}: the residual differs from a fresh platform with \
                     every live session's claim applied"
                ),
            });
        }
        if residuals.len() == 1 {
            residuals.push(expected);
        }
    }

    for state in &residuals {
        for weights in CostWeights::table4() {
            let bind = BindConfig {
                weights,
                ..config.flow.bind
            };
            if let Some(detail) = binding_against_reference(app, arch, state, &bind) {
                failures.push(OracleFailure {
                    oracle,
                    detail: format!("weights {weights}: {detail}"),
                });
            }
        }
    }
}

/// Oracle 7, region view: the escalation chain of an admit homed at
/// `home` on `state`, each step on the view of its regions and on the
/// masked clone, until a step allocates.
fn view_against_masked_clone(
    scenario: &Scenario,
    config: &HarnessConfig,
    map: &RegionMap,
    home: RegionId,
    state: &PlatformState,
    failures: &mut Vec<OracleFailure>,
) {
    use sdfrs_core::service::MAX_ESCALATION_NEIGHBORS;

    let (app, arch) = (&scenario.app, &scenario.arch);
    let neighbors = map.neighbors(home);
    for depth in 0..=neighbors.len().min(MAX_ESCALATION_NEIGHBORS) {
        let mut allowed = vec![home];
        allowed.extend_from_slice(&neighbors[..depth]);
        let tiles = map.tiles_in(&allowed);
        let view = Allocator::from_config(config.flow).allocate_within(app, arch, state, &tiles);
        let masked = Allocator::from_config(config.flow).allocate(
            app,
            arch,
            &masked_state(arch, state, &tiles),
        );
        let differs = match (&view, &masked) {
            (Ok((a, sa)), Ok((b, sb))) => diff_allocations(a, b)
                .or_else(|| (a.achieved != b.achieved).then(|| "achieved differs".into()))
                .or_else(|| {
                    (work_counts(sa) != work_counts(sb)).then(|| {
                        format!(
                            "work counts differ ({:?} vs {:?})",
                            work_counts(sa),
                            work_counts(sb)
                        )
                    })
                }),
            (Err(a), Err(b)) => (a.to_string() != b.to_string())
                .then(|| format!("the view rejects with `{a}`, the clone with `{b}`")),
            (Ok(_), Err(e)) => Some(format!("only the masked clone rejects, with `{e}`")),
            (Err(e), Ok(_)) => Some(format!("only the view rejects, with `{e}`")),
        };
        if let Some(detail) = differs {
            failures.push(OracleFailure {
                oracle: OracleId::RegionalAdmissionValidity,
                detail: format!(
                    "home {home}, escalation depth {depth}: region view vs masked clone: \
                     {detail}"
                ),
            });
        }
        if view.is_ok() {
            return;
        }
    }
}

/// The work counts of a flow, each under its metrics counter name:
/// every [`FlowStats`] field but the times.
fn work_counts(s: &FlowStats) -> [(&'static str, usize); 9] {
    [
        ("bind_attempts", s.bind_attempts),
        ("throughput_checks", s.throughput_checks),
        ("global_slice_iterations", s.global_slice_iterations),
        ("refine_slice_iterations", s.refine_slice_iterations),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("bound_answers", s.bound_answers),
        ("monotone_answers", s.monotone_answers),
        ("schedule_states", s.schedule_states),
    ]
}

/// Oracle 7, binding: the core binder on every tile of `arch` against
/// [`reference_bind`] — the binding or the error, and every candidate
/// tried (pass, actor, tile, cost bits, accepted).
fn binding_against_reference(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    bind: &BindConfig,
) -> Option<String> {
    let sink = RecordingSink::new();
    let mut recorder = sink.clone();
    let tiles: Vec<TileId> = arch.tile_ids().collect();
    let core = bind_actors_observed(
        app,
        arch,
        state,
        &tiles,
        bind,
        &mut FlowObserver::new(&mut recorder),
    )
    .map(|(binding, _)| binding);
    let attempts: Vec<ReferenceAttempt> = sink
        .events()
        .into_iter()
        .filter_map(|(_, event)| match event {
            FlowEvent::BindAttempt {
                pass,
                actor,
                tile,
                cost,
                accepted,
            } => Some((pass, actor, tile, cost.to_bits(), accepted)),
            _ => None,
        })
        .collect();
    let (reference, reference_attempts) = reference_bind(app, arch, state, bind);
    let outcome = |r: &Result<Binding, MapError>| r.as_ref().map_err(ToString::to_string).cloned();
    if outcome(&core) != outcome(&reference) {
        return Some(format!(
            "binder gives {:?}, the reference {:?}",
            outcome(&core),
            outcome(&reference)
        ));
    }
    let first = attempts
        .iter()
        .zip(&reference_attempts)
        .position(|(a, b)| a != b)
        .unwrap_or(attempts.len().min(reference_attempts.len()));
    (attempts != reference_attempts).then(|| {
        format!(
            "bind attempts differ from #{first}: binder {:?}, reference {:?} ({} vs {} attempts)",
            attempts.get(first),
            reference_attempts.get(first),
            attempts.len(),
            reference_attempts.len()
        )
    })
}

/// Oracle 8: network run vs. commit-log replay.
///
/// Spins up a real loopback [`sdfrs_net::NetServer`] around a fresh
/// service, drives the scenario's admit/depart trace through *two*
/// interleaved TCP connections (strict per-request lockstep, so the
/// global order is deterministic while still exercising the
/// multi-connection path), then shuts the server down and replays its
/// commit log offline through
/// [`replay_commit_log`](sdfrs_core::service::replay_commit_log). The
/// replayed service must hold the identical
/// residual digest and live-session count, and the number of committed
/// responses observed on the wire must equal the commit-log length —
/// the determinism contract of DESIGN.md §16.
fn net_replay_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    failures: &mut Vec<OracleFailure>,
) {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use sdfrs_core::service::{
        replay_commit_log, AllocationService, CommitLog, ServiceConfig, ServiceRequest,
    };
    use sdfrs_net::server::{NetServer, ServerOptions};
    use sdfrs_net::wire::{response_ok, response_u64, FrameBuffer};

    let oracle = OracleId::NetReplay;
    let app = &scenario.app;
    let arch = &scenario.arch;

    let mut svc_config = ServiceConfig::default();
    svc_config.flow = config.flow;

    // One lockstep JSONL client; io errors surface as oracle failures
    // rather than killing the whole sweep.
    struct Conn {
        stream: TcpStream,
        frames: FrameBuffer,
    }
    impl Conn {
        fn open(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_millis(20)))?;
            Ok(Conn {
                stream,
                frames: FrameBuffer::default(),
            })
        }
        fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
            self.stream.write_all(line.as_bytes())?;
            self.stream.write_all(b"\n")?;
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            let mut buf = [0u8; 4096];
            loop {
                if let Some(line) = self
                    .frames
                    .next_line()
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                {
                    return Ok(line);
                }
                if std::time::Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no response within 60s",
                    ));
                }
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ))
                    }
                    Ok(n) => self.frames.push_bytes(&buf[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }

    let run = || -> std::io::Result<Option<String>> {
        let options = ServerOptions {
            deadline: Duration::from_secs(120),
            queue_watermark: 4096,
            ..ServerOptions::default()
        };
        let server = NetServer::spawn(
            AllocationService::from_config(arch, svc_config),
            CommitLog::new(),
            options,
            "127.0.0.1:0",
        )?;
        let addr = server.local_addr();
        let mut first = Conn::open(addr)?;
        let mut second = Conn::open(addr)?;

        // The oracle-6 trace shape, alternated across the connections:
        // admit, admit, depart latest, depart bogus, admit, status.
        let admit_line = ServiceRequest::Admit {
            app: Box::new(app.clone()),
        }
        .to_json_line(0);
        let mut latest: Option<u64> = None;
        let mut commits = 0u64;
        fn observe(response: &str, commits: &mut u64, latest: &mut Option<u64>) {
            if response_ok(response) == Some(true)
                && response_u64(response, "id").is_some()
                && sdfrs_net::wire::response_str(response, "op").as_deref() != Some("status")
            {
                *commits += 1;
                if let Some(session) = response_u64(response, "session") {
                    *latest = Some(session);
                }
            }
        }
        observe(&first.round_trip(&admit_line)?, &mut commits, &mut latest);
        observe(&second.round_trip(&admit_line)?, &mut commits, &mut latest);
        let target = latest.unwrap_or(u64::MAX);
        observe(
            &first.round_trip(&format!("{{\"op\":\"depart\",\"session\":{target}}}"))?,
            &mut commits,
            &mut latest,
        );
        observe(
            &second.round_trip("{\"op\":\"depart\",\"session\":18446744073709551615}")?,
            &mut commits,
            &mut latest,
        );
        observe(&first.round_trip(&admit_line)?, &mut commits, &mut latest);
        observe(
            &second.round_trip("{\"op\":\"status\"}")?,
            &mut commits,
            &mut latest,
        );
        drop(first);
        drop(second);

        let report = server.shutdown();
        if report.stats.requests_shed != 0 {
            return Ok(Some(format!(
                "{} requests shed despite the relaxed watermark",
                report.stats.requests_shed
            )));
        }
        if report.commit_log.len() as u64 != commits {
            return Ok(Some(format!(
                "wire observed {commits} commits but the log holds {}",
                report.commit_log.len()
            )));
        }
        let lines = report.commit_log.lines().iter().map(String::as_str);
        let replayed = match replay_commit_log(arch, svc_config, lines) {
            Ok(replayed) => replayed,
            Err(e) => return Ok(Some(format!("commit log does not replay: {e}"))),
        };
        if replayed.residual_digest() != report.residual_digest() {
            return Ok(Some(
                "replayed residual digest differs from the live server's".into(),
            ));
        }
        if replayed.live_count() != report.service.live_count() {
            return Ok(Some(format!(
                "replay holds {} live sessions, the server {}",
                replayed.live_count(),
                report.service.live_count()
            )));
        }
        Ok(None)
    };

    match run() {
        Ok(None) => {}
        Ok(Some(detail)) => failures.push(OracleFailure { oracle, detail }),
        Err(e) => failures.push(OracleFailure {
            oracle,
            detail: format!("network round trip failed: {e}"),
        }),
    }
}

/// Oracle 1: on the binding-aware graph the allocation flow actually
/// analyzed (or a first-fit fallback binding when the flow rejected the
/// scenario), the self-timed state-space throughput must equal `γ(ref) /
/// MCM` of the HSDF conversion — Theorem-level equivalence the whole
/// fast path rests on.
///
/// Each weakly connected component runs at its own rate, and the MCM of
/// a whole multi-component graph is its slowest component's, so the two
/// sides are compared per component: at the reference in its own, and
/// at the lowest-index actor of every other.
fn hsdf_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    base: &FlowOutcome,
    failures: &mut Vec<OracleFailure>,
    skipped: &mut Vec<(OracleId, String)>,
) {
    let app = &scenario.app;
    let arch = &scenario.arch;
    let oracle = OracleId::HsdfEquivalence;
    let mut skip = |reason: String| skipped.push((oracle, reason));

    let (binding, slices) = match base {
        Ok((alloc, _)) => (
            alloc.binding.clone(),
            alloc.slices.to_dense(arch.tile_count()),
        ),
        // The equivalence holds for *any* complete binding, so an
        // infeasible scenario still exercises this oracle: bind first-fit
        // onto type-feasible tiles with full-wheel slices.
        Err(_) => match fallback_binding(scenario) {
            Some(pair) => pair,
            None => {
                skip("no type-feasible fallback binding".into());
                return;
            }
        },
    };

    let ba = match BindingAwareGraph::build_with_model(
        app,
        arch,
        &binding,
        &slices,
        config.flow.connection_model,
    ) {
        Ok(ba) => ba,
        Err(e) => {
            skip(format!("binding-aware graph construction failed: {e}"));
            return;
        }
    };
    let g = ba.graph();

    match hsdf_size(g) {
        Ok(n) if n <= config.hsdf_limit => {}
        Ok(n) => {
            skip(format!(
                "HSDF conversion has {n} actors (limit {})",
                config.hsdf_limit
            ));
            return;
        }
        // A binding-aware graph is consistent by construction; an
        // inconsistency here is a real defect, not a skip.
        Err(e) => {
            failures.push(OracleFailure {
                oracle,
                detail: format!("binding-aware graph is inconsistent: {e}"),
            });
            return;
        }
    }
    let reference = ba.ba_actor(app.output_actor());
    let (component, count) = g.weak_components();
    let mut designated = vec![None; count];
    designated[component[reference.index()]] = Some(reference);
    for a in g.actor_ids() {
        designated[component[a.index()]].get_or_insert(a);
    }
    for actor in designated.into_iter().flatten() {
        let (sub, sub_actor) = weak_component(g, actor);
        hsdf_component_oracle(&sub, sub_actor, config, failures, skipped);
    }
}

/// Oracle 1 on one weakly connected component `g`, at `reference`.
fn hsdf_component_oracle(
    g: &SdfGraph,
    reference: ActorId,
    config: &HarnessConfig,
    failures: &mut Vec<OracleFailure>,
    skipped: &mut Vec<(OracleId, String)>,
) {
    let oracle = OracleId::HsdfEquivalence;
    let mut skip = |reason: String| skipped.push((oracle, reason));
    // Sync actors carry no self-edge, but their auto-concurrency is still
    // bounded: every binding-aware channel sits on a buffer cycle, so the
    // state space stays finite and the budget skip below catches any
    // scenario where it does not stay *small*.
    let selftimed = SelfTimedExecutor::new(g)
        .with_state_budget(config.selftimed_budget)
        .throughput(reference);
    let mcr = hsdf_reference_throughput(g, reference);

    match (selftimed, mcr) {
        (Err(SdfError::BudgetExceeded { .. }), _) => {
            skip(format!(
                "self-timed exploration exceeded {} states",
                config.selftimed_budget
            ));
        }
        (_, Err(e)) => failures.push(OracleFailure {
            oracle,
            detail: format!("HSDF analysis failed on the binding-aware graph: {e}"),
        }),
        (Ok(_), Ok(None)) => {
            // No cycle through the reference bounds the rate; MCR sees an
            // acyclic (or zero-ratio) graph. With self-edges everywhere
            // this should be unreachable, so treat it as a skip with a
            // loud reason rather than silently passing.
            skip("HSDF MCR reports unbounded throughput".into());
        }
        (Ok(st), Ok(Some(hs))) => {
            let (actor_thr, iter_thr) = match config.fault {
                // The deliberate defect: a shim that misreports one extra
                // reference completion per period.
                Some(FaultInjection::SelfTimedOffByOne) => {
                    let gamma_ref = g
                        .repetition_vector()
                        .map(|gamma| gamma[reference])
                        .unwrap_or(1)
                        .max(1);
                    let actor =
                        Rational::new(st.firings_in_period as i128 + 1, st.period.max(1) as i128);
                    let iter = actor / Rational::from_integer(gamma_ref as i128);
                    (actor, iter)
                }
                None => (st.actor_throughput, st.iteration_throughput),
            };
            if iter_thr != hs.iteration_throughput || actor_thr != hs.actor_throughput {
                failures.push(OracleFailure {
                    oracle,
                    detail: format!(
                        "self-timed throughput {actor_thr} (iteration {iter_thr}) but HSDF \
                         MCR gives {} (iteration {}) on {} HSDF actors",
                        hs.actor_throughput, hs.iteration_throughput, hs.hsdf_actors
                    ),
                });
            }
        }
        (Err(SdfError::Deadlock { .. }), Ok(Some(hs))) => {
            if !hs.iteration_throughput.is_zero() {
                failures.push(OracleFailure {
                    oracle,
                    detail: format!(
                        "self-timed execution deadlocks but HSDF MCR gives throughput {}",
                        hs.iteration_throughput
                    ),
                });
            }
        }
        (Err(e), Ok(_)) => failures.push(OracleFailure {
            oracle,
            detail: format!("self-timed analysis failed on the binding-aware graph: {e}"),
        }),
    }
}

/// Oracle 10 — exact optimality.
///
/// Gated to instances small enough to enumerate every (binding,
/// static-order, slice) assignment outright (≤ 4 actors, ≤ 2 tiles);
/// everything larger is recorded as a skip. On enumerable instances:
///
/// * the branch-and-bound solver (default budget) must reproduce the
///   exhaustive enumeration's outcome **bit-for-bit** — identical
///   binding, schedules, slices, and achieved throughput, or the
///   identical rejection — which pins both the bound soundness (pruning
///   never removes the optimum) and the deterministic tie-breaking;
/// * when the greedy heuristic admits, the exact solver must admit too,
///   with a certified lower bound no worse than greedy's achieved
///   throughput;
/// * every admitting route must satisfy the throughput constraint λ.
fn exact_optimality_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    base: &FlowOutcome,
    failures: &mut Vec<OracleFailure>,
    skipped: &mut Vec<(OracleId, String)>,
) {
    let app = &scenario.app;
    let arch = &scenario.arch;
    let oracle = OracleId::ExactOptimality;
    let actors = app.graph().actor_count();
    let tiles = arch.tile_count();
    if actors > 4 || tiles > 2 {
        skipped.push((
            oracle,
            format!("{actors} actors × {tiles} tiles is beyond exhaustive enumeration"),
        ));
        return;
    }
    let state = PlatformState::new(arch);
    let fail = |failures: &mut Vec<OracleFailure>, detail: String| {
        failures.push(OracleFailure { oracle, detail });
    };

    let certified = |o: SolveOutcome| -> (Allocation, SolveReport) {
        let report = o.report.expect("both searches attach their certificate");
        (o.allocation, report)
    };
    let exact = Allocator::from_config(config.flow)
        .solve(AdmissionPolicy::exact(), app, arch, &state)
        .map(certified);
    let exhaustive =
        enumerate_exhaustive(&mut Allocator::from_config(config.flow), app, arch, &state)
            .map(certified);

    match (&exact, &exhaustive) {
        (Ok((e_alloc, e)), Ok((x_alloc, x))) => {
            if let Some(diff) = diff_allocations(e_alloc, x_alloc) {
                fail(
                    failures,
                    format!("exact vs exhaustive allocations diverge: {diff}"),
                );
            }
            if e.lower != x.lower {
                fail(
                    failures,
                    format!(
                        "exact lower bound {} but the exhaustive optimum is {}",
                        e.lower, x.lower
                    ),
                );
            }
            if !e.proven_optimal {
                fail(
                    failures,
                    "exact search left a gap on an enumerable instance".into(),
                );
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                fail(
                    failures,
                    format!("exact rejected with `{a}` but exhaustive with `{b}`"),
                );
            }
        }
        (Ok(_), Err(e)) => fail(
            failures,
            format!("exact admitted but exhaustive enumeration rejected with `{e}`"),
        ),
        (Err(e), Ok(_)) => fail(
            failures,
            format!("exhaustive enumeration admits but exact rejected with `{e}`"),
        ),
    }

    // Exact dominates greedy, and every admitting route satisfies λ.
    let lambda = app.throughput_constraint();
    if let Ok((alloc, _)) = base {
        let greedy_achieved = alloc.guaranteed_throughput();
        if greedy_achieved < lambda {
            fail(
                failures,
                format!("greedy admitted below λ: {greedy_achieved} < {lambda}"),
            );
        }
        match &exact {
            Ok((_, e)) => {
                if e.lower < greedy_achieved {
                    fail(
                        failures,
                        format!(
                            "exact lower bound {} trails greedy's achieved {}",
                            e.lower, greedy_achieved
                        ),
                    );
                }
            }
            Err(e) => fail(
                failures,
                format!("greedy admitted but exact rejected with `{e}`"),
            ),
        }
    }
    if let Ok((_, e)) = &exact {
        if e.lower < lambda {
            fail(
                failures,
                format!("exact admitted below λ: {} < {lambda}", e.lower),
            );
        }
        if e.upper < e.lower {
            fail(
                failures,
                format!("exact bound pair is inverted: [{}, {}]", e.lower, e.upper),
            );
        }
    }
}

/// First-fit type-feasible binding with full-wheel slices, for running
/// the HSDF oracle on scenarios the flow rejected.
fn fallback_binding(scenario: &Scenario) -> Option<(Binding, Vec<u64>)> {
    let app = &scenario.app;
    let arch = &scenario.arch;
    let mut binding = Binding::new(app.graph().actor_count());
    for (a, _) in app.graph().actors() {
        let tile = arch
            .tiles()
            .find(|(_, t)| app.actor_requirements(a).supports(t.processor_type()))
            .map(|(id, _)| id)?;
        binding.bind(a, tile);
    }
    let slices = arch.tiles().map(|(_, t)| t.wheel_size()).collect();
    Some((binding, slices))
}

/// Oracle 11 — executor equivalence.
///
/// First the list scheduler: on the scenario's binding — the base
/// allocation's, or for an infeasible scenario the first-fit fallback
/// binding — the core's [`ListScheduler`] (the executor's FIFO rule) and
/// the reference scan ([`ScanListScheduler`]) must return the same raw
/// schedules and state count, or the same error, at half wheels (the
/// flow's setting), at full wheels (the exact solver's, sync actors
/// taking no time) and at 1-unit slices.
///
/// Then the throughput: the core's event-driven [`ConstrainedExecutor`]
/// and the reference scan ([`ScanExecutor`]) run on the binding-aware
/// graph and static orders — the base allocation's, or the fallback
/// binding's list-scheduled orders — at the allocated slices, at full
/// wheels and at 1-unit slices. The core's result or error must equal
/// the scan's detection on iteration-end states exactly, and its period,
/// reference firings and throughputs those of the scan's detection on
/// every state: storing fewer states loses nothing.
///
/// At each setting an `Ok` exploration's iteration throughput must also
/// be at most the [`ProcessingBound`]. A setting whose bound lies below λ
/// while the exploration errs is counted into `bound_answered_errors`:
/// the slice search answers such a probe "infeasible" from the bound
/// instead of failing with the error.
fn executor_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    base: &FlowOutcome,
    failures: &mut Vec<OracleFailure>,
    skipped: &mut Vec<(OracleId, String)>,
    bound_answered_errors: &mut usize,
) {
    let app = &scenario.app;
    let arch = &scenario.arch;
    let oracle = OracleId::ExecutorEquivalence;
    let build = |binding: &Binding, slices: &[u64]| {
        BindingAwareGraph::build_with_model(
            app,
            arch,
            binding,
            slices,
            config.flow.connection_model,
        )
    };
    let wheels: Vec<u64> = arch.tiles().map(|(_, t)| t.wheel_size()).collect();
    let base_binding = match base {
        Ok((alloc, _)) => Some(alloc.binding.clone()),
        Err(_) => fallback_binding(scenario).map(|(binding, _)| binding),
    };
    let Some(binding) = base_binding else {
        skipped.push((oracle, "no type-feasible fallback binding".into()));
        return;
    };
    if let Ok(mut ba) = build(&binding, &wheels) {
        let budget = config.flow.schedule_state_budget;
        for (label, setting) in [
            (
                "half-wheel",
                wheels.iter().map(|w| (w / 2).max(1)).collect(),
            ),
            ("full-wheel", wheels.clone()),
            ("1-unit", vec![1; wheels.len()]),
        ] {
            ba.set_slices(&setting);
            let core = ListScheduler::new(&ba)
                .with_state_budget(budget)
                .construct_raw_observed(&mut FlowObserver::null());
            let scan = ScanListScheduler::new(&ba, budget).construct_raw();
            if core != scan {
                failures.push(OracleFailure {
                    oracle,
                    detail: format!(
                        "{label} slices {setting:?}: core list scheduler {core:?}, \
                         reference scan {scan:?}"
                    ),
                });
            }
        }
    }
    let (schedules, slices) = match base {
        Ok((alloc, _)) => (
            alloc.schedules.clone(),
            alloc.slices.to_dense(arch.tile_count()),
        ),
        // List-schedule the fallback binding at half wheels, the
        // assumption of Sec 9.2.
        Err(_) => {
            let half: Vec<u64> = wheels.iter().map(|w| w.div_ceil(2)).collect();
            let schedules = build(&binding, &half)
                .map_err(|e| e.to_string())
                .and_then(|ba| construct_schedules(&ba).map_err(|e| e.to_string()));
            match schedules {
                Ok(schedules) => (schedules, half),
                Err(e) => {
                    skipped.push((oracle, format!("no static orders: {e}")));
                    return;
                }
            }
        }
    };
    let mut ba = match build(&binding, &slices) {
        Ok(ba) => ba,
        Err(e) => {
            skipped.push((
                oracle,
                format!("binding-aware graph construction failed: {e}"),
            ));
            return;
        }
    };
    // On the fresh platform, and on the residual the base allocation
    // leaves, where the searches start from less wheel.
    let mut states = vec![PlatformState::new(arch)];
    if let Ok((alloc, _)) = base {
        let mut residual = PlatformState::new(arch);
        alloc.claim_set().apply(&mut residual);
        states.push(residual);
    }
    for state in &states {
        slice_search_against_reference(
            scenario, config, state, &binding, &schedules, &ba, failures,
        );
    }
    let reference = ba.ba_actor(app.output_actor());
    let bound = match ProcessingBound::new(&ba, reference) {
        Ok(bound) => bound,
        Err(e) => {
            failures.push(OracleFailure {
                oracle,
                detail: format!("no processing bound on the binding-aware graph: {e}"),
            });
            return;
        }
    };
    let lambda = app.throughput_constraint();
    let budget = config.flow.slice.state_budget;
    let cycle = |r: &Result<ThroughputResult, SdfError>| {
        r.as_ref().ok().map(|t| {
            (
                t.period,
                t.firings_in_period,
                t.actor_throughput,
                t.iteration_throughput,
            )
        })
    };
    let mut measured = Vec::new();
    for (label, setting) in [
        ("1-unit", vec![1; wheels.len()]),
        ("allocated", slices),
        ("full-wheel", wheels.clone()),
    ] {
        ba.set_slices(&setting);
        let core = ConstrainedExecutor::new(&ba, &schedules)
            .with_state_budget(budget)
            .throughput(reference);
        if let Ok(r) = &core {
            measured.push((label, r.iteration_throughput));
        }
        let scan = ScanExecutor::new(&ba, &schedules, budget).throughput(reference);
        if core != scan.iteration_ends || (core.is_ok() && cycle(&core) != cycle(&scan.every_state))
        {
            failures.push(OracleFailure {
                oracle,
                detail: format!(
                    "{label} slices {setting:?}: core executor {core:?}, reference scan \
                     {:?} (every state: {:?})",
                    scan.iteration_ends, scan.every_state
                ),
            });
        }
        let Some(cap) = bound.at(&ba) else {
            continue;
        };
        match &core {
            Ok(r) if r.iteration_throughput > cap => failures.push(OracleFailure {
                oracle,
                detail: format!(
                    "{label} slices {setting:?}: iteration throughput {} exceeds the \
                     processing bound {cap}",
                    r.iteration_throughput
                ),
            }),
            Err(_) if cap < lambda => *bound_answered_errors += 1,
            _ => {}
        }
    }
    // The settings are in slice order, each dominating the one before.
    for pair in measured.windows(2) {
        let ((below, low), (above, high)) = (pair[0], pair[1]);
        if low > high {
            failures.push(OracleFailure {
                oracle,
                detail: format!(
                    "iteration throughput {low} at {below} slices exceeds {high} at \
                     {above} slices"
                ),
            });
        }
    }
    monotone_on_dominated_pairs(scenario, config, &mut ba, &schedules, reference, failures);
}

/// Oracle 11, slice search: on `binding` and `schedules` over `state`,
/// the core's [`allocate_slices_observed`], which answers probes by
/// monotonicity and speculates, must report exactly the exact reference
/// search's checks (scope, slices, feasibility) and return its slices,
/// throughput and counts, or its error.
fn slice_search_against_reference(
    scenario: &Scenario,
    config: &HarnessConfig,
    state: &PlatformState,
    binding: &Binding,
    schedules: &sdfrs_core::TileSchedules,
    ba: &BindingAwareGraph,
    failures: &mut Vec<OracleFailure>,
) {
    use sdfrs_core::slice::{allocate_slices_observed, SliceAllocation};
    use sdfrs_core::ThroughputCache;

    let (app, arch) = (&scenario.app, &scenario.arch);
    let slice = &config.flow.slice;
    let remaining: Vec<u64> = ba
        .used_tiles()
        .into_iter()
        .map(|t| state.available_wheel(arch, t))
        .collect();
    let mut sink = RecordingSink::new();
    let core = allocate_slices_observed(
        &mut ba.clone(),
        schedules,
        app,
        arch,
        state,
        binding,
        slice,
        &mut ThroughputCache::new(),
        &mut FlowObserver::new(&mut sink),
    );
    let core_probes: Vec<ReferenceProbe> = sink
        .events()
        .into_iter()
        .filter_map(|(_, e)| match e {
            FlowEvent::SliceProbe {
                scope,
                slices,
                feasible,
                ..
            } => Some((scope, slices.to_vec(), feasible)),
            _ => None,
        })
        .collect();
    let (exact, exact_probes) =
        reference_slice_search(&mut ba.clone(), schedules, app, arch, state, binding, slice);
    let summary = |a: &SliceAllocation| {
        (
            a.slices.clone(),
            a.achieved.clone(),
            a.throughput_checks,
            a.global_iterations,
            a.refine_iterations,
        )
    };
    let same = match (&core, &exact) {
        (Ok(a), Ok(b)) => summary(a) == summary(b),
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    };
    if !same {
        failures.push(OracleFailure {
            oracle: OracleId::ExecutorEquivalence,
            detail: format!(
                "remaining wheels {remaining:?}: slice search {core:?}, exact reference \
                 search {exact:?}"
            ),
        });
    }
    if let Some(i) = (0..core_probes.len().max(exact_probes.len()))
        .find(|&i| core_probes.get(i) != exact_probes.get(i))
    {
        failures.push(OracleFailure {
            oracle: OracleId::ExecutorEquivalence,
            detail: format!(
                "remaining wheels {remaining:?}: slice search check {i} is {:?}, the exact \
                 reference search's {:?}",
                core_probes.get(i),
                exact_probes.get(i)
            ),
        });
    }
}

/// Oracle 11, monotonicity: under the scenario's static orders the
/// iteration throughput never falls when slices grow. Random pairs
/// ω ≤ ω′ over the used tiles, from a seed fixed by the scenario name;
/// pairs where either exploration errs are skipped.
fn monotone_on_dominated_pairs(
    scenario: &Scenario,
    config: &HarnessConfig,
    ba: &mut BindingAwareGraph,
    schedules: &sdfrs_core::TileSchedules,
    reference: ActorId,
    failures: &mut Vec<OracleFailure>,
) {
    const PAIRS: usize = 4;
    let seed = scenario
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    let mut rng = sdfrs_fastutil::rng::SmallRng::seed_from_u64(seed);
    let wheels: Vec<u64> = scenario.arch.tiles().map(|(_, t)| t.wheel_size()).collect();
    let used = ba.used_tiles();
    let throughput = |ba: &mut BindingAwareGraph, slices: &[u64]| {
        ba.set_slices(slices);
        ConstrainedExecutor::new(ba, schedules)
            .with_state_budget(config.flow.slice.state_budget)
            .throughput(reference)
            .ok()
            .map(|r| r.iteration_throughput)
    };
    for _ in 0..PAIRS {
        let mut low = wheels.clone();
        let mut high = wheels.clone();
        for t in &used {
            let w = wheels[t.index()];
            low[t.index()] = 1 + rng.below(w);
            high[t.index()] = low[t.index()] + rng.below(w - low[t.index()] + 1);
        }
        let (Some(thr_low), Some(thr_high)) = (throughput(ba, &low), throughput(ba, &high)) else {
            continue;
        };
        if thr_low > thr_high {
            failures.push(OracleFailure {
                oracle: OracleId::ExecutorEquivalence,
                detail: format!(
                    "iteration throughput {thr_low} at slices {low:?} exceeds {thr_high} at \
                     the dominating slices {high:?}"
                ),
            });
        }
    }
}

/// Oracle 9 — trace reconciliation.
///
/// Runs one traced admit through the service and checks three things:
///
/// * the per-request event capture (the span tree's `execute` events)
///   holds one `slice_probe` per throughput check the cache counted
///   into the service's registry, one `cache_hit` per cache hit, one
///   `bound` per processing-bound answer and one `monotone` per answer by
///   monotonicity, so that `throughput_checks = cache_hits +
///   cache_misses + bound_answers + monotone_answers` holds on both
///   sides —
///   the cache is the only writer of those counters, so this compares
///   two independent tallies (the registry's other flow counters are a
///   fold of the same events and are not compared with themselves);
/// * the trace id never influences the allocation — a second run under
///   a different id must produce the identical event stream (modulo
///   timestamps) and the identical response;
/// * the trace's annotations are complete: the outcome matches the
///   response, and a committed admit carries the warm-cache-hit flag.
fn trace_reconciliation_oracle(
    scenario: &Scenario,
    config: &HarnessConfig,
    failures: &mut Vec<OracleFailure>,
) {
    use sdfrs_core::service::{CommitLog, ServiceConfig, ServiceRequest, ServiceResponse};
    use sdfrs_core::trace::{RequestTrace, TraceId, TraceOutcome};
    use sdfrs_core::AllocationService;

    let oracle = OracleId::TraceReconciliation;
    let mut svc_config = ServiceConfig::default();
    svc_config.flow = config.flow;

    let traced_admit = |trace_id: u64| {
        let metrics = Metrics::collecting();
        let mut service = AllocationService::from_config(&scenario.arch, svc_config)
            .with_metrics(metrics.clone());
        let mut log = CommitLog::new();
        let mut trace = RequestTrace::begin(TraceId::from_raw(trace_id), "admit");
        trace.mark_parsed();
        trace.mark_dequeued(0);
        let request = ServiceRequest::Admit {
            app: Box::new(scenario.app.clone()),
        };
        let response = service.execute_traced(request, &mut log, &mut trace);
        let completed = trace.finish(TraceOutcome::from_response(&response));
        (response, completed, metrics.snapshot())
    };

    let (response, completed, snapshot) = traced_admit(0x0123_4567_89AB_CDEF);
    let (response_b, completed_b, _) = traced_admit(0xFEDC_BA98_7654_3210);

    // Trace-id independence: same scenario, different id, identical
    // allocation outcome and event stream.
    if response != response_b {
        failures.push(OracleFailure {
            oracle,
            detail: "response differs under a different trace id".into(),
        });
    }
    let kinds: Vec<&str> = completed.events.iter().map(|(_, e)| e.kind()).collect();
    let kinds_b: Vec<&str> = completed_b.events.iter().map(|(_, e)| e.kind()).collect();
    if kinds != kinds_b {
        failures.push(OracleFailure {
            oracle,
            detail: format!(
                "event stream differs under a different trace id ({} vs {} events)",
                kinds.len(),
                kinds_b.len()
            ),
        });
    }

    // Outcome annotation agrees with the response.
    let expected_label = match &response {
        ServiceResponse::Admitted { .. } => "admitted",
        ServiceResponse::Rejected { .. } => "rejected",
        other => {
            failures.push(OracleFailure {
                oracle,
                detail: format!("admit answered neither admitted nor rejected: {other:?}"),
            });
            return;
        }
    };
    if completed.outcome.label() != expected_label {
        failures.push(OracleFailure {
            oracle,
            detail: format!(
                "trace outcome {:?} but the response says {expected_label}",
                completed.outcome.label()
            ),
        });
    }
    if matches!(response, ServiceResponse::Admitted { .. }) && completed.warm_cache_hit.is_none() {
        failures.push(OracleFailure {
            oracle,
            detail: "committed admit is missing the warm_cache_hit annotation".into(),
        });
    }

    // The cache's counts against the probe events the trace captured.
    let Some(direct) = snapshot else {
        failures.push(OracleFailure {
            oracle,
            detail: "collecting metrics handle returned no snapshot".into(),
        });
        return;
    };
    let probes = completed
        .events
        .iter()
        .filter(|(_, e)| e.kind() == "slice_probe")
        .count() as u64;
    let flags = probe_flags(completed.events.iter().map(|(_, e)| e));
    let (hits, bounds, monotone) = (
        flags.hits as u64,
        flags.bounds as u64,
        flags.monotone as u64,
    );
    for (name, got) in [
        ("throughput_checks", probes),
        ("cache_hits", hits),
        ("bound_answers", bounds),
        ("monotone_answers", monotone),
        (
            "cache_misses",
            probes.saturating_sub(hits + bounds + monotone),
        ),
    ] {
        let want = direct.counter(name);
        if want != got {
            failures.push(OracleFailure {
                oracle,
                detail: format!(
                    "span-tree probe events give {name} = {got} but the cache counted {want}"
                ),
            });
        }
    }
}
