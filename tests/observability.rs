//! Integration tests for the event-sink instrumentation: ordering and
//! counting guarantees of the `FlowEvent` stream, agreement between the
//! emitted events and the aggregated `FlowStats`, observer-independence
//! of the allocation result, and a golden JSONL trace for the paper
//! example.

use std::time::Duration;

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::admission::AdmissionPolicy;
use sdfrs_core::flow::{Allocation, FlowStats};
use sdfrs_core::{Allocator, FlowEvent, Metrics, RecordingSink};
use sdfrs_platform::PlatformState;

fn run_recorded() -> (Allocation, FlowStats, Vec<(Duration, FlowEvent)>) {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let sink = RecordingSink::new();
    let (alloc, stats) = Allocator::new()
        .with_sink(sink.clone())
        .allocate(&app, &arch, &state)
        .expect("paper example allocates");
    (alloc, stats, sink.events())
}

#[test]
fn the_stream_is_bracketed_and_phased_in_flow_order() {
    let (_, _, events) = run_recorded();
    let kinds: Vec<&str> = events.iter().map(|(_, e)| e.kind()).collect();
    assert_eq!(kinds.first().copied(), Some("flow_started"));
    assert_eq!(kinds.last().copied(), Some("flow_finished"));
    assert_eq!(kinds.iter().filter(|k| **k == "flow_started").count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == "flow_finished").count(), 1);

    // The three Sec 9 phases open and close in order, without overlap.
    let mut phases = Vec::new();
    for (_, e) in &events {
        match e {
            FlowEvent::PhaseStarted { phase } => phases.push(format!("+{}", phase.name())),
            FlowEvent::PhaseFinished { phase, .. } => phases.push(format!("-{}", phase.name())),
            _ => {}
        }
    }
    assert_eq!(
        phases,
        [
            "+binding",
            "-binding",
            "+scheduling",
            "-scheduling",
            "+slice_allocation",
            "-slice_allocation",
        ]
    );
}

#[test]
fn timestamps_are_monotonic() {
    let (_, _, events) = run_recorded();
    for pair in events.windows(2) {
        assert!(
            pair[0].0 <= pair[1].0,
            "event timestamps must never go back: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn first_fit_accepts_exactly_one_bind_attempt_per_actor() {
    let app = paper_example();
    let (_, _, events) = run_recorded();
    let mut accepted_first_fit = Vec::new();
    let mut rejected_after_accept = false;
    for (_, e) in &events {
        if let FlowEvent::BindAttempt {
            pass,
            actor,
            accepted,
            ..
        } = e
        {
            if pass.name() == "first_fit" && *accepted {
                if accepted_first_fit.contains(actor) {
                    rejected_after_accept = true;
                }
                accepted_first_fit.push(actor.clone());
            }
        }
    }
    assert_eq!(
        accepted_first_fit.len(),
        app.graph().actor_count(),
        "exactly one accepted first-fit attempt per actor"
    );
    assert!(!rejected_after_accept, "no actor is placed twice");
    // The attempts follow the criticality order announced beforehand.
    let order = events.iter().find_map(|(_, e)| match e {
        FlowEvent::CriticalityOrder { actors } => Some(actors.clone()),
        _ => None,
    });
    assert_eq!(order.as_deref(), Some(&accepted_first_fit[..]));
}

#[test]
fn emitted_events_reconcile_with_flow_stats() {
    let (_, stats, events) = run_recorded();

    let bind_attempts = events
        .iter()
        .filter(|(_, e)| e.kind() == "bind_attempt")
        .count();
    assert_eq!(bind_attempts, stats.bind_attempts);

    let recurrence_states: usize = events
        .iter()
        .filter_map(|(_, e)| match e {
            FlowEvent::ScheduleRecurrence { states } => Some(*states),
            _ => None,
        })
        .sum();
    assert_eq!(recurrence_states, stats.schedule_states);

    // Every slice-search iteration appears as exactly one probe event.
    let probes: Vec<&FlowEvent> = events
        .iter()
        .filter(|(_, e)| e.kind() == "slice_probe")
        .map(|(_, e)| e)
        .collect();
    assert_eq!(probes.len(), stats.throughput_checks);
    assert_eq!(
        probes.len(),
        stats.global_slice_iterations + stats.refine_slice_iterations
    );
    let (mut global, mut cache_hits, mut bound_answers, mut monotone_answers) = (0, 0, 0, 0);
    for p in &probes {
        if let FlowEvent::SliceProbe {
            scope,
            cache_hit,
            bound,
            monotone,
            ..
        } = p
        {
            if matches!(scope, sdfrs_core::events::SliceScope::Global { .. }) {
                global += 1;
            }
            if *cache_hit {
                cache_hits += 1;
            }
            if *bound {
                bound_answers += 1;
            }
            if *monotone {
                monotone_answers += 1;
            }
        }
    }
    assert_eq!(global, stats.global_slice_iterations);
    assert_eq!(cache_hits, stats.cache_hits);
    assert_eq!(bound_answers, stats.bound_answers);
    assert_eq!(monotone_answers, stats.monotone_answers);
    assert_eq!(
        stats.throughput_checks,
        stats.cache_hits + stats.cache_misses + stats.bound_answers + stats.monotone_answers
    );
}

/// One emission path: each event is built once and delivered to the
/// sink, the registry and an open request tap alike.
#[test]
fn the_sink_the_registry_and_the_tap_receive_the_same_events() {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let sink = RecordingSink::new();
    let metrics = Metrics::collecting();
    let mut allocator = Allocator::new()
        .with_sink(sink.clone())
        .with_metrics(metrics.clone());
    allocator.begin_event_tap(std::time::Instant::now());
    allocator.allocate(&app, &arch, &state).unwrap();
    let tapped = allocator.end_event_tap();
    let recorded = sink.events();
    assert!(!recorded.is_empty());
    assert!(tapped
        .iter()
        .map(|(_, e)| e)
        .eq(recorded.iter().map(|(_, e)| e)));
    let attempts = recorded
        .iter()
        .filter(|(_, e)| e.kind() == "bind_attempt")
        .count() as u64;
    assert_eq!(
        metrics.snapshot().unwrap().counter("bind_attempts"),
        attempts
    );
    // A closed tap captures nothing more.
    allocator.allocate(&app, &arch, &state).unwrap();
    assert!(allocator.end_event_tap().is_empty());
}

#[test]
fn the_observer_never_changes_the_result() {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let (silent, silent_stats) = Allocator::new().allocate(&app, &arch, &state).unwrap();
    let (recorded, recorded_stats, _) = run_recorded();
    assert_eq!(silent.binding, recorded.binding);
    assert_eq!(silent.schedules, recorded.schedules);
    assert_eq!(silent.slices, recorded.slices);
    assert_eq!(silent.achieved, recorded.achieved);
    assert_eq!(
        silent_stats.throughput_checks,
        recorded_stats.throughput_checks
    );
    assert_eq!(silent_stats.bind_attempts, recorded_stats.bind_attempts);
    assert_eq!(silent_stats.schedule_states, recorded_stats.schedule_states);
    assert_eq!(
        silent_stats.global_slice_iterations,
        recorded_stats.global_slice_iterations
    );
    assert_eq!(
        silent_stats.refine_slice_iterations,
        recorded_stats.refine_slice_iterations
    );
}

/// Golden trace: the event stream of the paper example is fully
/// deterministic except for wall-clock durations, so its JSONL rendering
/// (with timestamps pinned to zero and duration-carrying lines dropped)
/// must match this transcript verbatim. If an intentional change to the
/// flow or the serialization breaks this test, update the transcript —
/// it documents the exact Sec 9 decision sequence for Figure 1's graph.
#[test]
fn golden_jsonl_trace_of_the_paper_example() {
    let (_, _, events) = run_recorded();
    let lines: Vec<String> = events
        .iter()
        .map(|(_, e)| e.to_json(Duration::ZERO))
        .filter(|l| !l.contains("\"duration_us\""))
        .collect();
    let golden = [
        r#"{"t_us":0,"event":"flow_started","app":"paper_example","actors":3,"channels":3,"tiles":2,"constraint":"1/30"}"#,
        r#"{"t_us":0,"event":"phase_started","phase":"binding"}"#,
        r#"{"t_us":0,"event":"criticality_order","actors":["a1","a2","a3"]}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"first_fit","actor":"a1","tile":0,"cost":0.09571428571428572,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"first_fit","actor":"a2","tile":0,"cost":0.19571428571428573,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"first_fit","actor":"a3","tile":1,"cost":0.580952380952381,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"rebind","actor":"a3","tile":1,"cost":0.5814285714285714,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"rebind","actor":"a2","tile":0,"cost":0.5814285714285714,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"rebind","actor":"a1","tile":0,"cost":0.5814285714285714,"accepted":true}"#,
        r#"{"t_us":0,"event":"phase_started","phase":"scheduling"}"#,
        r#"{"t_us":0,"event":"schedule_recurrence","states":15}"#,
        r#"{"t_us":0,"event":"schedule_constructed","tile":0,"prefix_len":0,"period_len":2}"#,
        r#"{"t_us":0,"event":"schedule_constructed","tile":1,"prefix_len":0,"period_len":1}"#,
        r#"{"t_us":0,"event":"phase_started","phase":"slice_allocation"}"#,
        // Answered by the feasible k = 5 probe below, which [10, 10]
        // dominates: the exploration measured 1/24.
        r#"{"t_us":0,"event":"slice_probe","scope":"global","k":10,"of":10,"slices":[10,10],"throughput":"1/30","feasible":true,"cache_hit":false,"monotone":true}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"global","k":5,"of":10,"slices":[5,5],"throughput":"1/30","feasible":true,"cache_hit":false}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"refine","pass":0,"tile":1,"slice":3,"slices":[5,3],"throughput":"3/100","feasible":false,"cache_hit":false}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"refine","pass":0,"tile":1,"slice":4,"slices":[5,4],"throughput":"1/30","feasible":true,"cache_hit":false}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"commit","pass":0,"tile":1,"slice":4,"slices":[5,4],"throughput":"1/30","feasible":true,"cache_hit":true}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"refine","pass":1,"tile":1,"slice":3,"slices":[5,3],"throughput":"3/100","feasible":false,"cache_hit":true}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"final","slices":[5,4],"throughput":"1/30","feasible":true,"cache_hit":true}"#,
    ];
    assert_eq!(
        lines.len(),
        golden.len(),
        "event count changed:\n{}",
        lines.join("\n")
    );
    for (got, want) in lines.iter().zip(golden.iter()) {
        assert_eq!(got, want);
    }
}

/// Buffered events must survive an early error return: the allocator is
/// dropped right after the failed `allocate`, without an explicit
/// `flush`, and the JSONL trace still holds the complete bracketed
/// stream (flush-on-drop through `JsonlSink`'s `Drop` impl).
#[test]
fn buffered_events_survive_an_early_allocator_error() {
    use sdfrs_core::JsonlSink;
    use sdfrs_sdf::Rational;

    let app = paper_example().with_throughput_constraint(Rational::new(1, 2));
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let path =
        std::env::temp_dir().join(format!("sdfrs_flush_on_drop_{}.jsonl", std::process::id()));
    {
        let sink = JsonlSink::create(path.to_str().unwrap()).expect("trace file creates");
        let mut allocator = Allocator::new().with_sink(sink);
        let result = allocator.allocate(&app, &arch, &state);
        assert!(result.is_err(), "1/2 is unsatisfiable on the example");
        // No flush() here: dropping the allocator (and with it the sink)
        // is all the caller did.
    }
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines
            .first()
            .is_some_and(|l| l.contains("\"flow_started\"")),
        "stream opens with flow_started: {text}"
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"flow_finished\"") && l.contains("\"ok\":false")),
        "the failure verdict reached the file without an explicit flush: {text}"
    );
}

#[test]
fn sequence_allocation_emits_one_admission_decision_per_app() {
    let arch = example_platform();
    let apps = vec![paper_example(), paper_example()];
    let sink = RecordingSink::new();
    let mut allocator = Allocator::new().with_sink(sink.clone());
    let result = allocator.allocate_sequence(&apps, &arch);
    assert!(result.failure.is_none());
    let events = sink.events();
    let decisions: Vec<(usize, bool)> = events
        .iter()
        .filter_map(|(_, e)| match e {
            FlowEvent::AdmissionDecision {
                index, admitted, ..
            } => Some((*index, *admitted)),
            _ => None,
        })
        .collect();
    assert_eq!(decisions, [(0, true), (1, true)]);
    let starts = events
        .iter()
        .filter(|(_, e)| e.kind() == "flow_started")
        .count();
    assert_eq!(starts, 2, "one full flow per application");
}

#[test]
fn best_fit_admission_emits_round_events() {
    let arch = example_platform();
    let apps = vec![paper_example(), paper_example()];
    let sink = RecordingSink::new();
    let mut allocator = Allocator::new().with_sink(sink.clone());
    let result = allocator.admit_with(&apps, &arch, AdmissionPolicy::best_fit());
    assert_eq!(result.admitted.len(), 2);
    let rounds: Vec<(usize, usize)> = sink
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            FlowEvent::MultiAppRound {
                round, candidates, ..
            } => Some((*round, *candidates)),
            _ => None,
        })
        .collect();
    assert_eq!(rounds, [(0, 2), (1, 1)], "shrinking candidate sets");
}

#[test]
fn skipping_admission_reports_each_application() {
    let arch = example_platform();
    let apps = vec![paper_example(), paper_example(), paper_example()];
    let sink = RecordingSink::new();
    let mut allocator = Allocator::new().with_sink(sink.clone());
    let result = allocator.admit_with(&apps, &arch, AdmissionPolicy::greedy());
    let decisions = sink
        .events()
        .iter()
        .filter(|(_, e)| e.kind() == "admission_decision")
        .count();
    assert_eq!(decisions, apps.len(), "every application gets a verdict");
    assert_eq!(
        result.admitted.len() + result.rejected.len(),
        apps.len(),
        "admitted and rejected partition the request list"
    );
}

/// Golden trace of a *second* admission: after the first paper example
/// claims slices [5, 4], the platform is partially loaded and the second
/// copy must squeeze onto tile 0's remaining wheel. The decision sequence
/// — everything binding to tile 0, a shorter schedule recurrence, the
/// global binary search bottoming out at k = 3 — is deterministic, so its
/// JSONL rendering is pinned verbatim like the single-app golden above.
#[test]
fn golden_jsonl_trace_of_a_second_admission() {
    let arch = example_platform();
    let apps = vec![paper_example(), paper_example()];
    let sink = RecordingSink::new();
    let mut allocator = Allocator::new().with_sink(sink.clone());
    let result = allocator.allocate_sequence(&apps, &arch);
    assert!(result.failure.is_none());

    let lines: Vec<String> = sink
        .events()
        .iter()
        .map(|(_, e)| e.to_json(Duration::ZERO))
        .filter(|l| !l.contains("\"duration_us\""))
        .collect();
    let second_flow = lines
        .iter()
        .position(|l| l.contains("\"event\":\"admission_decision\""))
        .map(|i| i + 1)
        .expect("first app gets a verdict before the second flow starts");

    let golden = [
        r#"{"t_us":0,"event":"flow_started","app":"paper_example","actors":3,"channels":3,"tiles":2,"constraint":"1/30"}"#,
        r#"{"t_us":0,"event":"phase_started","phase":"binding"}"#,
        r#"{"t_us":0,"event":"criticality_order","actors":["a1","a2","a3"]}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"first_fit","actor":"a1","tile":0,"cost":0.10315789473684212,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"first_fit","actor":"a2","tile":0,"cost":0.21263157894736842,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"first_fit","actor":"a3","tile":0,"cost":0.7810526315789474,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"rebind","actor":"a3","tile":0,"cost":0.7810526315789474,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"rebind","actor":"a2","tile":0,"cost":0.7810526315789474,"accepted":true}"#,
        r#"{"t_us":0,"event":"bind_attempt","pass":"rebind","actor":"a1","tile":0,"cost":0.7810526315789474,"accepted":true}"#,
        r#"{"t_us":0,"event":"phase_started","phase":"scheduling"}"#,
        r#"{"t_us":0,"event":"schedule_recurrence","states":12}"#,
        r#"{"t_us":0,"event":"schedule_constructed","tile":0,"prefix_len":1,"period_len":5}"#,
        r#"{"t_us":0,"event":"phase_started","phase":"slice_allocation"}"#,
        // Answered by the feasible k = 3 probe below; explored, the full
        // remaining wheel reaches 1/14.
        r#"{"t_us":0,"event":"slice_probe","scope":"global","k":5,"of":5,"slices":[5,0],"throughput":"3/70","feasible":true,"cache_hit":false,"monotone":true}"#,
        r#"{"t_us":0,"event":"slice_probe","scope":"global","k":3,"of":5,"slices":[3,0],"throughput":"3/70","feasible":true,"cache_hit":false}"#,
        // Answered by the processing bound, which here equals the
        // measured throughput: t1 runs a1, a2 and a3 on 2 of its 10 units.
        r#"{"t_us":0,"event":"slice_probe","scope":"global","k":2,"of":5,"slices":[2,0],"throughput":"1/35","feasible":false,"cache_hit":false,"bound":true}"#,
        r#"{"t_us":0,"event":"admission_decision","index":1,"app":"paper_example","admitted":true,"detail":""}"#,
    ];
    let got = &lines[second_flow..];
    assert_eq!(
        got.len(),
        golden.len(),
        "second-admission event count changed:\n{}",
        got.join("\n")
    );
    for (got, want) in got.iter().zip(golden.iter()) {
        assert_eq!(got, want);
    }
}
