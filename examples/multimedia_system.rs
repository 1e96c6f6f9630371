//! The Sec 10.3 use case: three H.263 decoders and an MP3 decoder share a
//! 2×2 MP-SoC, each with its own throughput guarantee, allocated one after
//! another with resources carried over.
//!
//! ```sh
//! cargo run --release --example multimedia_system
//! ```

use sdfrs_appmodel::apps::{h263_decoder, mp3_decoder};
use sdfrs_core::cost::CostWeights;
use sdfrs_core::Allocator;
use sdfrs_platform::mesh::multimedia_platform;
use sdfrs_platform::PlatformState;
use sdfrs_sdf::Rational;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lambda_h263 = Rational::new(1, 100_000);
    let lambda_mp3 = Rational::new(1, 3_000);
    let mut apps: Vec<_> = (0..3).map(|i| h263_decoder(i, lambda_h263)).collect();
    apps.push(mp3_decoder(lambda_mp3));

    let arch = multimedia_platform();
    // The paper's (2, 0, 1) weights: balance processing, limit
    // communication, ignore memory. One allocator serves the whole
    // sequence, so cached throughput evaluations carry over between the
    // identical decoder instances.
    let mut allocator = Allocator::new().with_weights(CostWeights::MULTIMEDIA);

    let mut state = PlatformState::new(&arch);
    for app in &apps {
        let (alloc, stats) = allocator.allocate(app, &arch, &state)?;
        println!("{}:", app.graph().name());
        for tile in alloc.binding.used_tiles() {
            let actors: Vec<String> = alloc
                .binding
                .actors_on(tile)
                .into_iter()
                .map(|a| app.graph().actor(a).name().to_string())
                .collect();
            println!(
                "  {} [{}]: {} slice {}/{}",
                arch.tile(tile).name(),
                arch.tile(tile).processor_type(),
                actors.join(" "),
                alloc.slices.at(tile),
                arch.tile(tile).wheel_size()
            );
        }
        println!(
            "  guaranteed period {} (λ period {}), {} throughput checks",
            alloc.guaranteed_throughput().recip(),
            app.throughput_constraint().recip(),
            stats.throughput_checks
        );
        alloc.claim_set().apply(&mut state);
    }

    println!("\nfinal platform occupancy:");
    for (t, tile) in arch.tiles() {
        let u = state.usage(t);
        println!(
            "  {}: wheel {}/{}  memory {}/{}  connections {}/{}",
            tile.name(),
            u.wheel,
            tile.wheel_size(),
            u.memory,
            tile.memory(),
            u.connections,
            tile.max_connections()
        );
    }
    Ok(())
}
