//! Design-space exploration: sweep the tile-cost weights (c1, c2, c3) of
//! Eqn 2 and observe how they steer the binding, the slice sizes, and the
//! number of applications a platform can host — the knob Sec 10.2 is all
//! about.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::cost::CostWeights;
use sdfrs_core::dse::explore;
use sdfrs_core::flow::FlowConfig;
use sdfrs_core::multi_app::allocate_until_failure;
use sdfrs_core::Allocator;
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_platform::mesh::{mesh_platform, MeshConfig};
use sdfrs_platform::{PlatformState, ProcessorType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the paper's running example under every weight setting
    // (Table 3, plus slices and the guarantee).
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    println!("paper example across weight settings:");
    println!("  weights     a1  a2  a3   slices      period");
    for w in CostWeights::table4() {
        let (alloc, _) = Allocator::new()
            .with_weights(w)
            .allocate(&app, &arch, &state)?;
        let tile = |n: &str| {
            let a = app.graph().actor_by_name(n).expect("actor");
            format!("t{}", alloc.binding.tile_of(a).expect("bound").index() + 1)
        };
        println!(
            "  {:<10}  {}  {}  {}   {:?}   {}",
            w.to_string(),
            tile("a1"),
            tile("a2"),
            tile("a3"),
            alloc.slices.to_dense(arch.tile_count()),
            alloc.guaranteed_throughput().recip()
        );
    }

    // Part 2: how many mixed-set applications fit a 2×3 mesh per weight
    // setting — a miniature Table 4 column.
    let mesh = mesh_platform(
        "mesh2x3",
        &MeshConfig {
            rows: 2,
            cols: 3,
            ..MeshConfig::default()
        },
    );
    let types = vec![
        ProcessorType::new("risc"),
        ProcessorType::new("dsp"),
        ProcessorType::new("acc"),
    ];
    let mut gen = AppGenerator::new(GeneratorConfig::mixed(), types, 42);
    let apps = gen.generate_sequence("ds", 20);
    println!("\nmixed applications bound to a 2×3 mesh:");
    for w in CostWeights::table4() {
        let result = allocate_until_failure(&apps, &mesh, &FlowConfig::with_weights(w));
        println!(
            "  weights {:<10} -> {:>2} applications, {:>4} throughput checks",
            w.to_string(),
            result.bound_count(),
            result.total_throughput_checks()
        );
    }
    // Part 3: the Pareto view — throughput vs claimed wheel time across
    // weights × connection models on the paper example.
    let state = PlatformState::new(&arch);
    let result = explore(&paper_example(), &arch, &state, &CostWeights::table4());
    println!("\nPareto frontier (wheel time ↓, guaranteed throughput ↑):");
    for p in result.pareto() {
        println!(
            "  wheel {:>2}  thr {:<8}  weights {:<10} model {:?}",
            p.wheel_claimed,
            p.throughput().to_string(),
            p.weights.to_string(),
            p.connection_model
        );
    }
    Ok(())
}
