//! Map the H.263 decoder of Fig 1 to the heterogeneous 2×2 platform and
//! demonstrate why the paper analyzes throughput on the SDFG directly:
//! the HSDF equivalent has 4754 actors and its analysis is orders of
//! magnitude slower.
//!
//! ```sh
//! cargo run --release --example h263_mapping
//! ```

use std::time::Instant;

use sdfrs_appmodel::apps::h263_decoder;
use sdfrs_core::cost::CostWeights;
use sdfrs_core::Allocator;
use sdfrs_platform::mesh::multimedia_platform;
use sdfrs_platform::PlatformState;
use sdfrs_sdf::hsdf::{convert_to_hsdf, hsdf_size};
use sdfrs_sdf::Rational;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lambda = Rational::new(1, 100_000);
    let app = h263_decoder(0, lambda);
    let arch = multimedia_platform();

    println!(
        "H.263 decoder: {} actors, {} channels",
        app.graph().actor_count(),
        app.graph().channel_count()
    );
    let gamma = app.graph().repetition_vector()?;
    print!("repetition vector:");
    for (a, actor) in app.graph().actors() {
        print!(" {}={}", actor.name(), gamma[a]);
    }
    println!();
    println!("HSDF equivalent: {} actors", hsdf_size(app.graph())?);

    // The size explosion the paper's technique avoids:
    let t0 = Instant::now();
    let h = convert_to_hsdf(app.graph())?;
    println!(
        "conversion alone: {} actors / {} channels in {:?}",
        h.graph.actor_count(),
        h.graph.channel_count(),
        t0.elapsed()
    );

    // Allocate with the multimedia weights (2, 0, 1).
    let state = PlatformState::new(&arch);
    let t0 = Instant::now();
    let (alloc, stats) = Allocator::new()
        .with_weights(CostWeights::MULTIMEDIA)
        .allocate(&app, &arch, &state)?;
    println!("\nallocation found in {:?}:", t0.elapsed());
    for (a, actor) in app.graph().actors() {
        let tile = alloc.binding.tile_of(a).expect("complete");
        println!(
            "  {:<7} -> {} ({})",
            actor.name(),
            arch.tile(tile).name(),
            arch.tile(tile).processor_type()
        );
    }
    for tile in alloc.binding.used_tiles() {
        println!(
            "  slice on {}: {}/{}",
            arch.tile(tile).name(),
            alloc.slices.at(tile),
            arch.tile(tile).wheel_size()
        );
    }
    println!(
        "guaranteed iteration period: {} (constraint {}); {} throughput checks",
        alloc.guaranteed_throughput().recip(),
        lambda.recip(),
        stats.throughput_checks
    );
    assert!(alloc.guaranteed_throughput() >= lambda);
    Ok(())
}
