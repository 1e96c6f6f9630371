//! Integration tests for the metrics registry: determinism of the
//! counters under parallel refinement, and exact reconciliation of the
//! event fold and the cache's counters with `FlowStats` and the event
//! stream.

use sdfrs_appmodel::apps::{example_platform, h263_decoder, paper_example};
use sdfrs_core::{Allocator, Metrics, MetricsSnapshot, RecordingSink};
use sdfrs_platform::PlatformState;
use sdfrs_sdf::Rational;

/// One full flow on the paper example with a fresh collecting registry.
fn run_paper_example(parallel: bool) -> MetricsSnapshot {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let metrics = Metrics::collecting();
    Allocator::new()
        .with_parallelism(parallel)
        .with_metrics(metrics.clone())
        .allocate(&app, &arch, &state)
        .expect("paper example allocates");
    metrics.snapshot().expect("collecting registry snapshots")
}

/// One full flow on the H.263 decoder (a workload with real refinement
/// work across the multimedia platform's tiles).
fn run_h263(parallel: bool) -> MetricsSnapshot {
    let app = h263_decoder(0, Rational::new(1, 200_000));
    let arch = sdfrs_platform::mesh::multimedia_platform();
    let state = PlatformState::new(&arch);
    let metrics = Metrics::collecting();
    Allocator::new()
        .with_parallelism(parallel)
        .with_metrics(metrics.clone())
        .allocate(&app, &arch, &state)
        .expect("H.263 fits the multimedia platform");
    metrics.snapshot().expect("collecting registry snapshots")
}

/// Two identical runs with parallel refinement enabled must produce
/// identical counter values: the forked caches and deterministic
/// per-tile binary searches make every count thread-schedule-independent
/// (only span nanos, which are wall clock, may vary).
#[test]
fn counters_are_deterministic_across_identical_parallel_runs() {
    for snapshots in [
        [run_paper_example(true), run_paper_example(true)],
        [run_h263(true), run_h263(true)],
    ] {
        let [a, b] = snapshots;
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.cache_entries, b.cache_entries);
        assert_eq!(a.bind_attempts_per_tile, b.bind_attempts_per_tile);
    }
}

/// Under sequential refinement the whole snapshot — histograms included —
/// is reproducible once wall-clock phase timings are zeroed out.
#[test]
fn full_snapshot_is_deterministic_under_sequential_refinement() {
    let a = run_h263(false);
    let b = run_h263(false);
    assert_eq!(a.without_timings(), b.without_timings());
}

/// Sequential and parallel runs agree on every counter: parallelism is
/// an implementation detail, not an observable one.
#[test]
fn parallel_and_sequential_runs_count_the_same_work() {
    let seq = run_h263(false);
    let par = run_h263(true);
    assert_eq!(seq.counters, par.counters);
    assert_eq!(seq.bind_attempts_per_tile, par.bind_attempts_per_tile);
}

/// The registry (the event fold plus the cache's own counters), the
/// `FlowStats` the steps return, and the recorded event stream must
/// agree exactly.
#[test]
fn snapshot_reconciles_with_stats_and_the_event_stream() {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let sink = RecordingSink::new();
    let metrics = Metrics::collecting();
    let (_, stats) = Allocator::new()
        .with_sink(sink.clone())
        .with_metrics(metrics.clone())
        .allocate(&app, &arch, &state)
        .expect("paper example allocates");
    let snapshot = metrics.snapshot().unwrap();
    let events = sink.events();

    assert_eq!(snapshot.counter("flows_started"), 1);
    assert_eq!(snapshot.counter("flows_succeeded"), 1);
    assert_eq!(snapshot.counter("flows_failed"), 0);
    assert_eq!(
        snapshot.counter("bind_attempts"),
        stats.bind_attempts as u64
    );
    assert_eq!(
        snapshot.counter("throughput_checks"),
        stats.throughput_checks as u64
    );
    assert_eq!(snapshot.counter("cache_hits"), stats.cache_hits as u64);
    assert_eq!(snapshot.counter("cache_misses"), stats.cache_misses as u64);
    assert_eq!(
        snapshot.counter("global_slice_iterations"),
        stats.global_slice_iterations as u64
    );
    assert_eq!(
        snapshot.counter("refine_slice_iterations"),
        stats.refine_slice_iterations as u64
    );
    assert_eq!(
        snapshot.counter("schedule_states"),
        stats.schedule_states as u64
    );
    assert_eq!(
        snapshot.counter("cache_hits")
            + snapshot.counter("cache_misses")
            + snapshot.counter("bound_answers")
            + snapshot.counter("monotone_answers"),
        snapshot.counter("throughput_checks"),
        "every probe is a hit, a miss, a bound or a monotone answer"
    );
    assert_eq!(
        snapshot.counter("monotone_answers"),
        stats.monotone_answers as u64
    );

    // Per-tile attempts sum to the total and match the event stream.
    assert_eq!(
        snapshot.bind_attempts_per_tile.iter().sum::<u64>(),
        snapshot.counter("bind_attempts")
    );
    let probe_events = events
        .iter()
        .filter(|(_, e)| e.kind() == "slice_probe")
        .count() as u64;
    assert_eq!(snapshot.counter("throughput_checks"), probe_events);

    // Phase spans: one flow, each phase entered once, child phases
    // within the flow span's wall time.
    let phase = |name: &str| {
        snapshot
            .phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("{name} phase present"))
    };
    assert_eq!(phase("flow").calls, 1);
    let mut child_nanos = 0;
    for name in ["bind", "schedule", "slice"] {
        let p = phase(name);
        assert_eq!(p.calls, 1, "{name} runs once per flow");
        assert_eq!(p.parent, Some("flow"));
        child_nanos += p.nanos;
    }
    assert!(
        child_nanos <= phase("flow").nanos,
        "phases nest inside the flow span"
    );
    // Probe spans nest inside the slice search and fire once per
    // exploration: one per miss, and one per exploration of a discarded
    // speculation.
    let probe = phase("probe");
    assert_eq!(probe.parent, Some("slice"));
    let explorations =
        snapshot.counter("cache_misses") + snapshot.counter("discarded_explorations");
    assert_eq!(probe.calls, explorations);

    // The probe-length histogram saw exactly those explorations, and its
    // total states agree with the states_explored counter.
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "probe_states")
        .expect("probe_states histogram present");
    assert_eq!(hist.count, explorations);
    assert_eq!(hist.sum, snapshot.counter("states_explored"));
}

/// Exporters stay in sync with the registry: every counter name appears
/// in both renderings with the right value.
#[test]
fn exporters_cover_every_counter() {
    let snapshot = run_paper_example(false);
    let prom = snapshot.to_prometheus();
    let json = snapshot.to_json();
    for (name, value) in &snapshot.counters {
        assert!(
            prom.contains(&format!("sdfrs_{name}_total {value}")),
            "{name} missing from Prometheus exposition"
        );
        assert!(
            json.contains(&format!("\"{name}\":{value}")),
            "{name} missing from JSON export"
        );
    }
}
