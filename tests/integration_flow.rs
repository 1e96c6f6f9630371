//! Cross-crate integration tests of the full allocation flow: generated
//! applications, reference decoders, occupancy carry-over, and the
//! structural invariants every valid allocation must satisfy.

use sdfrs_appmodel::apps::{h263_decoder, mp3_decoder, paper_example};
use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::cost::CostWeights;
use sdfrs_core::flow::{Allocation, FlowConfig, FlowStats};
use sdfrs_core::multi_app::allocate_until_failure;
use sdfrs_core::resources::{binding_constraints_hold, tile_capacity};
use sdfrs_core::{Allocator, MapError};
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_platform::mesh::{mesh_platform, multimedia_platform, MeshConfig};
use sdfrs_platform::{ArchitectureGraph, PlatformState, ProcessorType};
use sdfrs_sdf::Rational;

/// One fresh-cache run through the [`Allocator`] front-end (the old
/// free-function call sites, kept shaped the same).
fn allocate(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: &FlowConfig,
) -> Result<(Allocation, FlowStats), MapError> {
    Allocator::from_config(*config).allocate(app, arch, state)
}

fn generator_types() -> Vec<ProcessorType> {
    vec![
        ProcessorType::new("risc"),
        ProcessorType::new("dsp"),
        ProcessorType::new("acc"),
    ]
}

/// Checks every invariant a valid allocation (Sec 7) must satisfy.
fn assert_valid(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    alloc: &Allocation,
) {
    // 1. Complete binding onto supported processor types.
    assert!(alloc.binding.is_complete());
    for (a, _) in app.graph().actors() {
        let tile = alloc.binding.tile_of(a).unwrap();
        assert!(app
            .actor_requirements(a)
            .supports(arch.tile(tile).processor_type()));
    }
    // 2. Section 7 resource constraints with the allocated slices.
    assert!(binding_constraints_hold(app, arch, state, &alloc.binding));
    for t in alloc.binding.used_tiles() {
        let cap = tile_capacity(arch, state, t);
        assert!(alloc.slices[t.index()] >= 1);
        assert!(alloc.slices[t.index()] <= cap.wheel);
        assert!(alloc.usage[t.index()].memory <= cap.memory);
        assert!(alloc.usage[t.index()].connections <= cap.connections);
        assert!(alloc.usage[t.index()].bandwidth_in <= cap.bandwidth_in);
        assert!(alloc.usage[t.index()].bandwidth_out <= cap.bandwidth_out);
    }
    // 3. Every used tile has a schedule covering exactly its actors.
    for t in alloc.binding.used_tiles() {
        let schedule = alloc.schedules.get(t).expect("schedule per used tile");
        let on_tile = alloc.binding.actors_on(t);
        for a in schedule.prefix().iter().chain(schedule.period()) {
            assert!(on_tile.contains(a), "schedule fires foreign actor");
        }
        for a in &on_tile {
            assert!(
                schedule.period().contains(a),
                "actor {a} missing from periodic schedule"
            );
        }
    }
    // 4. The guarantee meets the constraint.
    assert!(alloc.guaranteed_throughput() >= app.throughput_constraint());
}

#[test]
fn generated_allocations_are_valid() {
    let mesh = mesh_platform("mesh", &MeshConfig::default());
    let mut gen = AppGenerator::new(GeneratorConfig::mixed(), generator_types(), 11);
    let state = PlatformState::new(&mesh);
    let mut succeeded = 0;
    for i in 0..12 {
        let app = gen.generate(&format!("val{i}"));
        if let Ok((alloc, _)) = allocate(&app, &mesh, &state, &FlowConfig::default()) {
            assert_valid(&app, &mesh, &state, &alloc);
            succeeded += 1;
        }
    }
    assert!(
        succeeded >= 6,
        "most mixed apps should fit an empty mesh ({succeeded}/12)"
    );
}

#[test]
fn every_weight_setting_produces_valid_allocations() {
    let app = paper_example();
    let arch = sdfrs_appmodel::apps::example_platform();
    let state = PlatformState::new(&arch);
    for w in CostWeights::table4() {
        let (alloc, _) = allocate(&app, &arch, &state, &FlowConfig::with_weights(w)).unwrap();
        assert_valid(&app, &arch, &state, &alloc);
    }
}

#[test]
fn reference_decoders_allocate_on_the_multimedia_platform() {
    let arch = multimedia_platform();
    let state = PlatformState::new(&arch);
    let flow = FlowConfig::with_weights(CostWeights::MULTIMEDIA);
    for app in [
        h263_decoder(0, Rational::new(1, 150_000)),
        mp3_decoder(Rational::new(1, 3_000)),
    ] {
        let (alloc, stats) = allocate(&app, &arch, &state, &flow)
            .unwrap_or_else(|e| panic!("{} failed: {e}", app.graph().name()));
        assert_valid(&app, &arch, &state, &alloc);
        assert!(stats.throughput_checks > 0);
    }
}

#[test]
fn occupancy_is_respected_across_applications() {
    let arch = multimedia_platform();
    let apps: Vec<ApplicationGraph> = (0..3)
        .map(|i| h263_decoder(i, Rational::new(1, 150_000)))
        .collect();
    let result = allocate_until_failure(
        &apps,
        &arch,
        &FlowConfig::with_weights(CostWeights::MULTIMEDIA),
    );
    assert_eq!(result.bound_count(), 3, "failure: {:?}", result.failure);
    // Total claimed resources never exceed the platform.
    for (t, tile) in arch.tiles() {
        let u = result.final_state.usage(t);
        assert!(u.wheel <= tile.wheel_size());
        assert!(u.memory <= tile.memory());
        assert!(u.connections <= tile.max_connections());
        assert!(u.bandwidth_in <= tile.bandwidth_in());
        assert!(u.bandwidth_out <= tile.bandwidth_out());
    }
}

#[test]
fn tighter_constraints_need_larger_slices() {
    // Monotonicity of the allocator: a stricter λ never gets a smaller
    // total slice allocation.
    let arch = sdfrs_appmodel::apps::example_platform();
    let state = PlatformState::new(&arch);
    let mut last_total = 0u64;
    for period in [120i128, 60, 40, 30] {
        let app = paper_example().with_throughput_constraint(Rational::new(1, period));
        let (alloc, _) = allocate(&app, &arch, &state, &FlowConfig::default()).unwrap();
        let total: u64 = alloc.slices.iter().sum();
        assert!(
            total >= last_total,
            "period {period}: slices {total} < previous {last_total}"
        );
        last_total = total;
    }
}

#[test]
fn ablation_disabling_optimization_and_refinement_still_valid() {
    let app = paper_example();
    let arch = sdfrs_appmodel::apps::example_platform();
    let state = PlatformState::new(&arch);
    let mut flow = FlowConfig::default();
    flow.bind.optimize = false;
    flow.slice.refine = false;
    let (alloc, _) = allocate(&app, &arch, &state, &flow).unwrap();
    assert_valid(&app, &arch, &state, &alloc);

    // Refinement only ever removes slice time.
    let (refined, _) = allocate(&app, &arch, &state, &FlowConfig::default()).unwrap();
    if refined.binding == alloc.binding {
        assert!(refined.slices.iter().sum::<u64>() <= alloc.slices.iter().sum::<u64>());
    }
}

#[test]
fn infeasible_platform_fails_cleanly() {
    // One tile, unsupported processor type.
    let mut arch = ArchitectureGraph::new("wrong");
    arch.add_tile(sdfrs_platform::Tile::new(
        "t",
        ProcessorType::new("fpga"),
        100,
        1 << 20,
        8,
        4096,
        4096,
    ));
    let state = PlatformState::new(&arch);
    let err = allocate(&paper_example(), &arch, &state, &FlowConfig::default()).unwrap_err();
    assert!(matches!(err, sdfrs_core::MapError::NoFeasibleTile { .. }));
}

#[test]
fn sequences_fill_the_platform_monotonically() {
    let mesh = mesh_platform("mesh", &MeshConfig::default());
    let mut gen = AppGenerator::new(
        GeneratorConfig::processing_intensive(),
        generator_types(),
        7,
    );
    let apps = gen.generate_sequence("mono", 12);
    let result =
        allocate_until_failure(&apps, &mesh, &FlowConfig::with_weights(CostWeights::TUNED));
    // Wheel occupancy grows monotonically with each allocation by
    // construction; verify the final bookkeeping matches the sum of parts.
    let mut expected = 0u64;
    for alloc in &result.allocations {
        expected += alloc.usage.iter().map(|u| u.wheel).sum::<u64>();
    }
    assert_eq!(result.total_usage().wheel, expected);
}

/// An allocation made under the pipelined connection model verifies
/// clean: the verifier rebuilds the binding-aware graph with the model
/// the allocation records, not the simple one. These generated scenarios
/// all used to fail with `ThroughputMismatch` (some also `ThroughputMiss`)
/// because the recomputed throughput came from the simple model.
#[test]
fn pipelined_allocations_verify_under_their_own_model() {
    use sdfrs_core::binding_aware::ConnectionModel;
    use sdfrs_core::verify::verify_allocation;
    use sdfrs_gen::Scenario;

    let config = FlowConfig::builder()
        .schedule_state_budget(300_000)
        .slice_state_budget(300_000)
        .connection_model(ConnectionModel::PipelinedHops)
        .build()
        .unwrap();
    for seed in [5, 17, 24, 36, 93, 100, 111, 117] {
        let s = Scenario::sample(seed);
        let state = PlatformState::new(&s.arch);
        let (alloc, _) = allocate(&s.app, &s.arch, &state, &config)
            .unwrap_or_else(|e| panic!("seed {seed} allocates: {e}"));
        assert_eq!(alloc.connection_model, ConnectionModel::PipelinedHops);
        let violations = verify_allocation(&s.app, &s.arch, &state, &alloc).unwrap();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// Each weakly connected component runs at its own rate: with x alone
/// and the chain y → z, the flow binds x and y to t0 and z to t1, and
/// t0's periodic schedule fires x and y at different rates. The
/// verifier asks for one common γ-multiple per tile and component, so
/// this valid allocation verifies clean.
#[test]
fn multi_component_allocations_verify_clean() {
    use sdfrs_appmodel::textio::{parse_application, parse_platform};
    use sdfrs_core::verify::verify_allocation;

    let app = parse_application(
        "app appv lambda 1/1000\n\
         actor x pt risc tau 3 mu 1\n\
         actor y pt risc tau 2 mu 1\n\
         actor z pt risc tau 5 mu 1\n\
         channel yz y 1 z 1 tokens 0 sz 2 atile 2 asrc 2 adst 2 beta 1\n\
         output x\n",
    )
    .unwrap();
    let arch = parse_platform(
        "arch pltv\n\
         tile t0 pt risc wheel 100 mem 100000 conn 20 bwin 10000 bwout 10000\n\
         tile t1 pt risc wheel 100 mem 100000 conn 20 bwin 10000 bwout 10000\n\
         connection t0 t1 latency 1\n\
         connection t1 t0 latency 1\n",
    )
    .unwrap();
    let state = PlatformState::new(&arch);
    let (alloc, _) = allocate(&app, &arch, &state, &FlowConfig::default()).unwrap();
    let g = app.graph();
    let tile = |name: &str| alloc.binding.tile_of(g.actor_by_name(name).unwrap());
    assert_eq!(tile("x"), tile("y"), "x and y share a tile");
    assert_ne!(tile("y"), tile("z"));
    assert_eq!(
        verify_allocation(&app, &arch, &state, &alloc).unwrap(),
        vec![]
    );
}
