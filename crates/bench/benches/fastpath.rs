//! Criterion benches for the fast-path machinery: the state interner, the
//! memoized evaluation cache, and the parallel DSE sweep.

use std::time::Instant;

use sdfrs_fastutil::{crit::Criterion, criterion_group, criterion_main};

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::binding_aware::BindingAwareGraph;
use sdfrs_core::dse::{explore, explore_parallel};
use sdfrs_core::list_sched::construct_schedules;
use sdfrs_core::thru_cache::ThroughputCache;
use sdfrs_core::{Allocator, Binding, CostWeights, Metrics, RecordingSink};
use sdfrs_fastutil::crit::black_box;
use sdfrs_platform::{PlatformState, TileId};
use sdfrs_sdf::analysis::interner::StateInterner;

fn example_ba() -> BindingAwareGraph {
    let app = paper_example();
    let arch = example_platform();
    let g = app.graph();
    let mut binding = Binding::new(g.actor_count());
    binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
    BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap()
}

fn bench_interner(c: &mut Criterion) {
    let mut group = c.benchmark_group("interner");

    // Fresh insertions: 1000 distinct 8-word states.
    let states: Vec<Vec<u64>> = (0..1000u64)
        .map(|i| (0..8).map(|j| i.wrapping_mul(31).wrapping_add(j)).collect())
        .collect();
    group.bench_function("intern_1000_fresh", |b| {
        b.iter(|| {
            let mut it = StateInterner::new();
            for s in &states {
                black_box(it.intern(s));
            }
            it.len()
        })
    });

    // Recurrence lookups: every intern is a hit.
    let mut warm = StateInterner::new();
    for s in &states {
        warm.intern(s);
    }
    group.bench_function("intern_1000_hits", |b| {
        b.iter(|| {
            for s in &states {
                black_box(warm.intern(s));
            }
            warm.len()
        })
    });
    group.finish();
}

fn bench_thru_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("thru_cache");
    let ba = example_ba();
    let schedules = construct_schedules(&ba).unwrap();
    let reference = ba.graph().actor_by_name("a3").unwrap();

    // Baseline: memoization off — every call explores the state space.
    let mut off = ThroughputCache::disabled();
    group.bench_function("evaluate_cache_off", |b| {
        b.iter(|| off.throughput(&ba, &schedules, reference, 100_000).unwrap())
    });

    // Warm cache: every call is a fingerprint + lookup.
    let mut on = ThroughputCache::new();
    on.throughput(&ba, &schedules, reference, 100_000).unwrap();
    group.bench_function("evaluate_cache_hit", |b| {
        b.iter(|| on.throughput(&ba, &schedules, reference, 100_000).unwrap())
    });
    group.finish();
}

fn bench_dse(c: &mut Criterion) {
    let mut group = c.benchmark_group("dse_sweep");
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let weights = CostWeights::table4();
    group.sample_size(10);
    group.bench_function("explore_sequential", |b| {
        b.iter(|| explore(&app, &arch, &state, &weights).points.len())
    });
    group.bench_function("explore_parallel", |b| {
        b.iter(|| explore_parallel(&app, &arch, &state, &weights).points.len())
    });
    group.finish();
}

/// The observability overhead budget: with the default `NullSink`, a
/// null metrics handle and no request tap, events are never even
/// constructed, so the flow stays within noise of an uninstrumented one.
/// Any listening destination — a recording sink, a collecting registry
/// (which folds every event), a request tap — makes every event be built
/// once and pays for that.
fn bench_observer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer_overhead");
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);

    group.bench_function("flow_null_sink", |b| {
        b.iter(|| Allocator::new().allocate(&app, &arch, &state).unwrap())
    });

    group.bench_function("flow_recording_sink", |b| {
        b.iter(|| {
            let sink = RecordingSink::new();
            let out = Allocator::new()
                .with_sink(sink.clone())
                .allocate(&app, &arch, &state)
                .unwrap();
            black_box(sink.len());
            out
        })
    });

    // Metrics off: the `Metrics::null()` default. Its legs spread by
    // about ±10% on a 2-vCPU VM, too wide to resolve a 2% budget: judge
    // observer cost by perfbench's `trace.overhead_ratio` and by exact
    // counts.
    group.bench_function("flow_metrics_off", |b| {
        b.iter(|| {
            Allocator::new()
                .with_metrics(Metrics::null())
                .allocate(&app, &arch, &state)
                .unwrap()
        })
    });

    group.bench_function("flow_metrics_on", |b| {
        b.iter(|| {
            let metrics = Metrics::collecting();
            let out = Allocator::new()
                .with_metrics(metrics.clone())
                .allocate(&app, &arch, &state)
                .unwrap();
            black_box(metrics.snapshot());
            out
        })
    });

    // Request tracing off: a tap opened and closed around nothing, so
    // the flow itself runs with no destination and must stay within
    // noise of `flow_null_sink`.
    group.bench_function("flow_trace_off", |b| {
        b.iter(|| {
            let mut allocator = Allocator::new();
            allocator.begin_event_tap(Instant::now());
            black_box(allocator.end_event_tap());
            allocator.allocate(&app, &arch, &state).unwrap()
        })
    });

    // Request tracing on: a tap captures every event by move regardless
    // of the sink — the per-request price of a flight-recorder entry.
    group.bench_function("flow_trace_on", |b| {
        b.iter(|| {
            let mut allocator = Allocator::new();
            allocator.begin_event_tap(Instant::now());
            let out = allocator.allocate(&app, &arch, &state).unwrap();
            black_box(allocator.end_event_tap().len());
            out
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interner,
    bench_thru_cache,
    bench_dse,
    bench_observer_overhead
);
criterion_main!(benches);
