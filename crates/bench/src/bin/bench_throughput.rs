//! `bench_throughput` — trajectory harness for the fast-path throughput
//! machinery: interned state-space exploration, the memoized evaluation
//! cache, and the end-to-end flow built on both.
//!
//! ```text
//! bench_throughput [output.json]
//! ```
//!
//! Runs a fixed set of phases, prints a human-readable trajectory, and
//! writes a machine-readable report (default: `BENCH_throughput.json` in
//! the current directory). Each phase records wall-clock time plus the
//! phase's own counters: states explored for the explorations, throughput
//! checks and cache hit/miss counts for the flow phases. Two summary
//! ratios close the report: `cache_speedup` (repeated admission,
//! throughput cache off vs on) and `region_speedup` (the 64×64 drain,
//! global vs confined to 16 regions). Both compare phases measured in
//! the same run, so they stay meaningful across machines.

use std::env;
use std::time::Instant;

use sdfrs_appmodel::apps::{example_platform, h263_decoder, paper_example};
use sdfrs_bench::hsdf_cmp::timed_h263;
use sdfrs_core::binding_aware::BindingAwareGraph;
use sdfrs_core::constrained::constrained_throughput;
use sdfrs_core::list_sched::construct_schedules;
use sdfrs_core::service::{ServiceConfig, ServiceRequest, ServiceResponse};
use sdfrs_core::thru_cache::ThroughputCache;
use sdfrs_core::{AllocationService, Allocator, Binding, Metrics};
use sdfrs_platform::mesh::{grid_mesh_platform, multimedia_platform, MeshConfig};
use sdfrs_platform::{ArchitectureGraph, PlatformState, ProcessorType, TileId};
use sdfrs_sdf::analysis::selftimed::SelfTimedExecutor;
use sdfrs_sdf::Rational;

/// One measured phase of the trajectory.
#[derive(Debug, Default)]
struct Phase {
    name: &'static str,
    wall_ms: f64,
    states_explored: Option<usize>,
    throughput_checks: Option<usize>,
    cache_hits: Option<usize>,
    cache_misses: Option<usize>,
}

impl Phase {
    fn json(&self) -> String {
        let mut fields = vec![
            format!("\"name\": \"{}\"", self.name),
            format!("\"wall_ms\": {:.3}", self.wall_ms),
        ];
        if let Some(s) = self.states_explored {
            fields.push(format!("\"states_explored\": {s}"));
        }
        if let Some(c) = self.throughput_checks {
            fields.push(format!("\"throughput_checks\": {c}"));
        }
        if let Some(h) = self.cache_hits {
            fields.push(format!("\"cache_hits\": {h}"));
        }
        if let Some(m) = self.cache_misses {
            fields.push(format!("\"cache_misses\": {m}"));
        }
        format!("    {{ {} }}", fields.join(", "))
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The paper-example binding-aware graph (a1/a2 on t1, a3 on t2, 50%
/// slices) — the Fig 5(c) configuration.
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

/// Repeats the same end-to-end allocation `rounds` times against an
/// unchanged platform state — the admission re-check pattern of Sec 10.1.
/// Returns the phase plus the final cache counters.
fn admission_repeat(
    name: &'static str,
    rounds: usize,
    cache: ThroughputCache,
    metrics: &Metrics,
) -> Phase {
    let app = h263_decoder(0, Rational::new(1, 200_000));
    let arch = multimedia_platform();
    let state = PlatformState::new(&arch);
    let mut allocator = Allocator::new()
        .with_cache(cache)
        .with_metrics(metrics.clone());
    let mut checks = 0usize;
    let start = Instant::now();
    for round in 0..rounds {
        let r0 = Instant::now();
        let (_, stats) = allocator
            .allocate(&app, &arch, &state)
            .expect("the H.263 decoder fits an empty multimedia platform");
        if env::var_os("BENCH_ROUNDS_DEBUG").is_some() {
            eprintln!(
                "  {name} round {round}: {:.3} ms (bind {:?} sched {:?} slice {:?})",
                ms(r0),
                stats.binding_time,
                stats.scheduling_time,
                stats.slice_time
            );
        }
        checks += stats.throughput_checks;
    }
    let wall_ms = ms(start);
    Phase {
        name,
        wall_ms,
        throughput_checks: Some(checks),
        cache_hits: Some(allocator.cache().hits()),
        cache_misses: Some(allocator.cache().misses()),
        ..Phase::default()
    }
}

/// Service churn: one H.263 session repeatedly departs and re-admits
/// under a swept throughput constraint, so every round re-runs the slice
/// search against slightly different targets — the rebind pattern.
fn rebind_churn(rounds: usize, metrics: &Metrics) -> Phase {
    let arch = multimedia_platform();
    let mut service = AllocationService::new(&arch).with_metrics(metrics.clone());
    let mut session = service
        .admit(&h263_decoder(0, Rational::new(1, 200_000)))
        .expect("the H.263 decoder fits an empty multimedia platform");
    let start = Instant::now();
    for round in 0..rounds {
        service
            .rebind(session)
            .expect("the churned session is live");
        service
            .depart(session)
            .expect("the churned session is live");
        let constraint = Rational::new(1, 190_000 + 4_000 * round as i128);
        session = service
            .admit(&h263_decoder(0, constraint))
            .expect("the re-admitted H.263 decoder fits");
    }
    let wall_ms = ms(start);
    Phase {
        name: "rebind_churn",
        wall_ms,
        ..Phase::default()
    }
}

/// The 64×64 grid mesh (4096 tiles, 4-neighborhood links) whose
/// processor types match the grid workload below.
fn grid64() -> ArchitectureGraph {
    let config = MeshConfig {
        rows: 64,
        cols: 64,
        processor_types: vec![ProcessorType::new("p1"), ProcessorType::new("p2")],
        ..MeshConfig::default()
    };
    grid_mesh_platform("grid64", &config)
}

/// The workload one grid admission carries: a two-actor pipeline whose
/// memory footprint (150k of the 512k tile memory per actor) makes
/// occupied tiles rank strictly costlier than fresh ones, so successive
/// admissions spread deterministically across the mesh instead of
/// tie-breaking onto exhausted wheels.
fn grid_app() -> sdfrs_appmodel::ApplicationGraph {
    use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
    use sdfrs_sdf::SdfGraph;
    let p1 = ProcessorType::new("p1");
    let p2 = ProcessorType::new("p2");
    let mut g = SdfGraph::new("grid_pipeline");
    let a = g.add_actor("a", 0);
    let b = g.add_actor("b", 0);
    let d = g.add_channel("d", a, 1, b, 1, 0);
    ApplicationGraph::builder(g, Rational::new(1, 100_000))
        .actor(
            a,
            ActorRequirements::new()
                .on(p1.clone(), 10, 150_000)
                .on(p2.clone(), 10, 150_000),
        )
        .actor(
            b,
            ActorRequirements::new()
                .on(p1, 10, 150_000)
                .on(p2, 10, 150_000),
        )
        .channel(d, ChannelRequirements::new(16, 2, 2, 2, 50))
        .output_actor(b)
        .build()
        .expect("the grid pipeline is a valid application graph")
}

/// Drains one batch of `count` grid-pipeline admissions through a
/// service partitioned into `regions` regions. With `regions == 1` every
/// admit runs the global flow on every tile; with more, each admission
/// binds onto the tiles of its home region. Every admit must succeed.
fn region_admission(
    name: &'static str,
    arch: &ArchitectureGraph,
    regions: usize,
    count: usize,
    metrics: &Metrics,
) -> Phase {
    let mut config = ServiceConfig::default();
    config.regions = regions;
    let mut svc = AllocationService::from_config(arch, config).with_metrics(metrics.clone());
    let app = grid_app();
    for _ in 0..count {
        svc.enqueue(ServiceRequest::Admit {
            app: Box::new(app.clone()),
        });
    }
    let start = Instant::now();
    let responses = svc.drain();
    let wall_ms = ms(start);
    assert_eq!(responses.len(), count);
    for (seq, r) in &responses {
        assert!(
            matches!(r, ServiceResponse::Admitted { .. }),
            "{name}: admit {seq} was not admitted: {r:?}"
        );
    }
    Phase {
        name,
        wall_ms,
        ..Phase::default()
    }
}

fn main() {
    let out_path = env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    let mut phases: Vec<Phase> = Vec::new();
    // One registry across every allocator phase; its snapshot rides along
    // in the report so CI artifacts carry the full counter/histogram set.
    let metrics = Metrics::collecting();

    // --- Phase 1: plain self-timed exploration, paper example (Fig 5a).
    let app = paper_example();
    let mut plain = app.graph().clone();
    plain.set_execution_time(plain.actor_by_name("a1").unwrap(), 1);
    plain.set_execution_time(plain.actor_by_name("a2").unwrap(), 1);
    plain.set_execution_time(plain.actor_by_name("a3").unwrap(), 2);
    let a3_plain = plain.actor_by_name("a3").unwrap();
    let start = Instant::now();
    let mut result = None;
    for _ in 0..1000 {
        result = Some(SelfTimedExecutor::new(&plain).throughput(a3_plain).unwrap());
    }
    phases.push(Phase {
        name: "selftimed_fig5a_x1000",
        wall_ms: ms(start),
        states_explored: result.map(|r| r.states_explored),
        ..Phase::default()
    });

    // --- Phase 2: constrained execution, paper example (Fig 5c).
    let ba = example_ba();
    let schedules = construct_schedules(&ba).unwrap();
    let a3 = ba.graph().actor_by_name("a3").unwrap();
    let start = Instant::now();
    let mut result = None;
    for _ in 0..1000 {
        result = Some(constrained_throughput(&ba, &schedules, a3).unwrap());
    }
    phases.push(Phase {
        name: "constrained_fig5c_x1000",
        wall_ms: ms(start),
        states_explored: result.map(|r| r.states_explored),
        ..Phase::default()
    });

    // --- Phase 3: self-timed exploration of the H.263 decoder — the
    // Sec 1 workload whose HSDF equivalent has 4754 actors.
    let h263 = timed_h263();
    let mc = h263.actor_by_name("mc0").unwrap();
    let start = Instant::now();
    let result = SelfTimedExecutor::new(&h263).throughput(mc).unwrap();
    phases.push(Phase {
        name: "selftimed_h263",
        wall_ms: ms(start),
        states_explored: Some(result.states_explored),
        ..Phase::default()
    });

    // --- Phase 4: one end-to-end flow for the H.263 decoder.
    let h263_app = h263_decoder(0, Rational::new(1, 200_000));
    let arch = multimedia_platform();
    let state = PlatformState::new(&arch);
    let start = Instant::now();
    let (_, stats) = Allocator::new()
        .with_metrics(metrics.clone())
        .allocate(&h263_app, &arch, &state)
        .expect("the H.263 decoder fits an empty multimedia platform");
    phases.push(Phase {
        name: "flow_h263",
        wall_ms: ms(start),
        throughput_checks: Some(stats.throughput_checks),
        cache_hits: Some(stats.cache_hits),
        cache_misses: Some(stats.cache_misses),
        ..Phase::default()
    });

    // --- Phase 5: service depart/re-admit churn under a swept
    // constraint (the rebind pattern).
    phases.push(rebind_churn(8, &metrics));

    // --- Phases 6/7: repeated admission checks with the throughput
    // cache off and on; a cache miss runs the same cold exploration
    // either way.
    const ROUNDS: usize = 6;
    let off = admission_repeat(
        "admission_repeat_scratch",
        ROUNDS,
        ThroughputCache::disabled(),
        &metrics,
    );
    let on = admission_repeat(
        "admission_repeat_cache",
        ROUNDS,
        ThroughputCache::new(),
        &metrics,
    );
    let speedup = off.wall_ms / on.wall_ms.max(1e-9);
    phases.push(off);
    phases.push(on);

    // --- Phases 8/9/10: one batch of admissions onto the 64×64 grid
    // mesh, global vs confined to 4 and 16 regions. Region-local flows
    // only rank the home region's tiles, so the speedup is algorithmic
    // and holds on a single core; the ratio the CI regression gate
    // checks compares the 16-region drain (≥ 8 regions per the
    // acceptance bar) against the global one.
    const GRID_ADMITS: usize = 24;
    let grid = grid64();
    let grid_seq = region_admission("admission_64x64_seq", &grid, 1, GRID_ADMITS, &metrics);
    let grid_r4 = region_admission("admission_64x64_regions4", &grid, 4, GRID_ADMITS, &metrics);
    let grid_r16 = region_admission(
        "admission_64x64_regions16",
        &grid,
        16,
        GRID_ADMITS,
        &metrics,
    );
    let region_speedup = grid_seq.wall_ms / grid_r16.wall_ms.max(1e-9);
    phases.push(grid_seq);
    phases.push(grid_r4);
    phases.push(grid_r16);

    for p in &phases {
        let extras = [
            p.states_explored.map(|s| format!("states {s}")),
            p.throughput_checks.map(|c| format!("checks {c}")),
            p.cache_hits.map(|h| format!("hits {h}")),
            p.cache_misses.map(|m| format!("misses {m}")),
        ]
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
        .join(", ");
        eprintln!("{:<28} {:>10.3} ms   {}", p.name, p.wall_ms, extras);
    }
    eprintln!("cache speedup on repeated admission ({ROUNDS} rounds): {speedup:.2}x");
    eprintln!(
        "region-local speedup on the 64x64 drain ({GRID_ADMITS} admits, 16 regions): \
         {region_speedup:.2}x"
    );

    let snapshot = metrics
        .snapshot()
        .expect("the collecting registry snapshots");
    let json = format!(
        "{{\n  \"harness\": \"bench_throughput\",\n  \"rounds\": {ROUNDS},\n  \
         \"phases\": [\n{}\n  ],\n  \"cache_speedup\": {speedup:.2},\n  \
         \"region_speedup\": {region_speedup:.2},\n  \
         \"metrics\": {}\n}}\n",
        phases
            .iter()
            .map(Phase::json)
            .collect::<Vec<_>>()
            .join(",\n"),
        snapshot.to_json()
    );
    std::fs::write(&out_path, json).expect("report written");
    eprintln!("report written to {out_path}");
}
