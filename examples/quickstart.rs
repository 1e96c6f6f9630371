//! Quickstart: define an application and a platform, run the allocation
//! strategy, inspect the guarantee.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
use sdfrs_core::Allocator;
use sdfrs_platform::{ArchitectureGraph, PlatformState, ProcessorType, Tile};
use sdfrs_sdf::{Rational, SdfGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The application: a three-stage video pipeline with a feedback
    // loop. `decode` produces four tiles of a frame per firing; `enhance`
    // processes them one by one; `display` consumes all four.
    let mut g = SdfGraph::new("pipeline");
    let decode = g.add_actor("decode", 0);
    let enhance = g.add_actor("enhance", 0);
    let display = g.add_actor("display", 0);
    let d0 = g.add_channel("frames", decode, 4, enhance, 1, 0);
    let d1 = g.add_channel("tiles", enhance, 1, display, 4, 0);
    // Rate control: display tells decode to proceed (one token in flight).
    let d2 = g.add_channel("ack", display, 1, decode, 1, 1);

    let risc = ProcessorType::new("risc");
    let dsp = ProcessorType::new("dsp");
    let app = ApplicationGraph::builder(g, Rational::new(1, 400))
        .actor(decode, ActorRequirements::new().on(risc.clone(), 30, 4_000))
        .actor(
            enhance,
            ActorRequirements::new()
                .on(risc.clone(), 20, 2_000)
                .on(dsp.clone(), 8, 1_000),
        )
        .actor(
            display,
            ActorRequirements::new().on(risc.clone(), 15, 3_000),
        )
        .channel(d0, ChannelRequirements::new(512, 8, 8, 8, 2_048))
        .channel(d1, ChannelRequirements::new(512, 8, 8, 8, 2_048))
        .channel(d2, ChannelRequirements::new(16, 2, 2, 2, 64))
        .output_actor(display)
        .build()?;

    // --- The platform: two tiles joined by a unit-latency link.
    let mut arch = ArchitectureGraph::new("duo");
    let t0 = arch.add_tile(Tile::new("cpu", risc, 100, 64_000, 8, 8_192, 8_192));
    let t1 = arch.add_tile(Tile::new("dsp", dsp, 100, 32_000, 8, 8_192, 8_192));
    arch.add_connection(t0, t1, 1);
    arch.add_connection(t1, t0, 1);

    // --- Allocate.
    let state = PlatformState::new(&arch);
    let (alloc, stats) = Allocator::new().allocate(&app, &arch, &state)?;

    println!("binding:");
    for (a, actor) in app.graph().actors() {
        let tile = alloc.binding.tile_of(a).expect("complete");
        println!("  {:<8} -> {}", actor.name(), arch.tile(tile).name());
    }
    println!("schedules and TDMA slices:");
    for tile in alloc.binding.used_tiles() {
        println!(
            "  {:<4} {}  slice {}/{}",
            arch.tile(tile).name(),
            alloc
                .schedules
                .get(tile)
                .expect("scheduled")
                .display(app.graph()),
            alloc.slices.at(tile),
            arch.tile(tile).wheel_size()
        );
    }
    println!(
        "guaranteed: one frame every {} time units (constraint: every {})",
        alloc.guaranteed_throughput().recip(),
        app.throughput_constraint().recip()
    );
    println!(
        "flow statistics: {} throughput checks, {:?} total",
        stats.throughput_checks,
        stats.total_time()
    );
    assert!(alloc.guaranteed_throughput() >= app.throughput_constraint());
    Ok(())
}
