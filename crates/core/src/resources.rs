//! Resource accounting and the validity constraints 1–4 of Section 7.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId, TileUsage};

use crate::binding::Binding;

pub use sdfrs_platform::TileCapacity;

/// Computes the remaining capacity of `tile`.
///
/// Thin convenience wrapper over
/// [`PlatformState::tile_capacity`]; the per-platform residual view that
/// used to live here as `platform_residual` is now
/// [`PlatformState::residual_capacities`].
pub fn tile_capacity(
    arch: &ArchitectureGraph,
    state: &PlatformState,
    tile: TileId,
) -> TileCapacity {
    state.tile_capacity(arch, tile)
}

/// The resources the current (partial) binding demands from one tile:
/// the left-hand sides of constraints 2–4 of Section 7, plus a provisional
/// wheel demand of zero (slices are allocated later).
pub fn tile_demand(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    binding: &Binding,
    tile: TileId,
) -> TileUsage {
    let pt = arch.tile(tile).processor_type();
    let part = binding.channel_partition(app, tile);
    let mut memory: u64 = 0;
    for a in binding.actors_on(tile) {
        memory += app
            .actor_memory(a, pt)
            .expect("bound actors support their tile's processor type");
    }
    for &d in &part.local {
        memory += app.channel_requirements(d).memory_tile();
    }
    let mut bandwidth_out = 0u64;
    for &d in &part.outgoing {
        let th = app.channel_requirements(d);
        memory += th.memory_src();
        bandwidth_out += th.bandwidth;
    }
    let mut bandwidth_in = 0u64;
    for &d in &part.incoming {
        let th = app.channel_requirements(d);
        memory += th.memory_dst();
        bandwidth_in += th.bandwidth;
    }
    TileUsage {
        wheel: 0,
        memory,
        connections: part.connection_count() as u32,
        bandwidth_in,
        bandwidth_out,
    }
}

/// Checks constraints 1–4 of Section 7 for `tile` under the (partial)
/// binding, against the remaining capacity. Constraint 1 (slice fits the
/// remaining wheel) degenerates to "at least one wheel unit remains" while
/// slices are still unallocated; pass the allocated slice via
/// `slice` once known.
pub fn tile_constraints_hold(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    tile: TileId,
    slice: Option<u64>,
) -> bool {
    let cap = tile_capacity(arch, state, tile);
    let demand = tile_demand(app, arch, binding, tile);
    let wheel_needed = match slice {
        Some(s) => s,
        None => {
            if binding.actors_on(tile).is_empty() {
                0
            } else {
                1
            }
        }
    };
    wheel_needed <= cap.wheel
        && demand.memory <= cap.memory
        && demand.connections <= cap.connections
        && demand.bandwidth_in <= cap.bandwidth_in
        && demand.bandwidth_out <= cap.bandwidth_out
}

/// Checks that every cross-tile channel of the binding has a platform
/// connection and positive bandwidth (a structural prerequisite of the
/// binding-aware construction).
pub fn cross_channels_routable(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    binding: &Binding,
) -> bool {
    app.graph().channels().all(|(d, ch)| {
        match (binding.tile_of(ch.src()), binding.tile_of(ch.dst())) {
            (Some(s), Some(t)) if s != t => {
                arch.connection_between(s, t).is_some() && app.channel_requirements(d).bandwidth > 0
            }
            _ => true,
        }
    })
}

/// Checks constraints for every tile the binding touches (binding an actor
/// affects its own tile and — through cross-tile channels — the tiles of
/// its neighbours).
pub fn binding_constraints_hold(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
) -> bool {
    cross_channels_routable(app, arch, binding)
        && binding
            .used_tiles()
            .into_iter()
            .all(|t| tile_constraints_hold(app, arch, state, binding, t, None))
}

/// The resources a *completed* allocation claims per tile: slice sizes plus
/// the demand of constraints 2–4. Indexed by tile index.
///
/// Only the used tiles are computed: a tile that hosts no actor has an
/// empty channel partition and demands nothing.
pub fn allocation_usage(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    binding: &Binding,
    slices: &[u64],
) -> Vec<TileUsage> {
    let mut usage = vec![TileUsage::default(); arch.tile_count()];
    for t in binding.used_tiles() {
        usage[t.index()] = TileUsage {
            wheel: slices[t.index()],
            ..tile_demand(app, arch, binding, t)
        };
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_sdf::ActorId;

    fn example_binding() -> (sdfrs_appmodel::ApplicationGraph, ArchitectureGraph, Binding) {
        let app = paper_example();
        let arch = example_platform();
        let mut b = Binding::new(3);
        b.bind(ActorId::from_index(0), TileId::from_index(0)); // a1
        b.bind(ActorId::from_index(1), TileId::from_index(0)); // a2
        b.bind(ActorId::from_index(2), TileId::from_index(1)); // a3
        (app, arch, b)
    }

    #[test]
    fn demand_matches_section7_formulas() {
        let (app, arch, b) = example_binding();
        let t1 = TileId::from_index(0);
        let t2 = TileId::from_index(1);
        // t1: μ(a1,p1)+μ(a2,p1) = 17; d1 local 1·7, d3 local 1·1, d2 src
        // 2·100 = 200 ⇒ memory 17+7+1+200 = 225; 1 connection out; β = 10.
        let d1 = tile_demand(&app, &arch, &b, t1);
        assert_eq!(d1.memory, 225);
        assert_eq!(d1.connections, 1);
        assert_eq!(d1.bandwidth_out, 10);
        assert_eq!(d1.bandwidth_in, 0);
        // t2: μ(a3,p2) = 10 + d2 dst 200 = 210; 1 connection in.
        let d2 = tile_demand(&app, &arch, &b, t2);
        assert_eq!(d2.memory, 210);
        assert_eq!(d2.connections, 1);
        assert_eq!(d2.bandwidth_in, 10);
        assert_eq!(d2.bandwidth_out, 0);
    }

    #[test]
    fn constraints_hold_on_example() {
        let (app, arch, b) = example_binding();
        let state = PlatformState::new(&arch);
        assert!(binding_constraints_hold(&app, &arch, &state, &b));
        for t in [TileId::from_index(0), TileId::from_index(1)] {
            assert!(tile_constraints_hold(&app, &arch, &state, &b, t, Some(5)));
        }
    }

    #[test]
    fn occupied_platform_can_reject() {
        let (app, arch, b) = example_binding();
        let mut state = PlatformState::new(&arch);
        // Occupy nearly all memory of t1: demand of 225 no longer fits.
        state.claim(
            TileId::from_index(0),
            TileUsage {
                memory: 600,
                ..TileUsage::default()
            },
        );
        assert!(!binding_constraints_hold(&app, &arch, &state, &b));
    }

    #[test]
    fn wheel_constraint_uses_slice_when_known() {
        let (app, arch, b) = example_binding();
        let mut state = PlatformState::new(&arch);
        state.claim(
            TileId::from_index(0),
            TileUsage {
                wheel: 8,
                ..TileUsage::default()
            },
        );
        let t1 = TileId::from_index(0);
        assert!(tile_constraints_hold(&app, &arch, &state, &b, t1, Some(2)));
        assert!(!tile_constraints_hold(&app, &arch, &state, &b, t1, Some(3)));
        // Without a slice: at least one unit must remain.
        assert!(tile_constraints_hold(&app, &arch, &state, &b, t1, None));
        state.claim(
            t1,
            TileUsage {
                wheel: 2,
                ..TileUsage::default()
            },
        );
        assert!(!tile_constraints_hold(&app, &arch, &state, &b, t1, None));
    }

    #[test]
    fn unroutable_cross_channel_detected() {
        let (app, _, b) = example_binding();
        let mut arch = ArchitectureGraph::new("disconnected");
        arch.add_tile(sdfrs_platform::Tile::new(
            "t1",
            "p1".into(),
            10,
            700,
            5,
            100,
            100,
        ));
        arch.add_tile(sdfrs_platform::Tile::new(
            "t2",
            "p2".into(),
            10,
            500,
            7,
            100,
            100,
        ));
        assert!(!cross_channels_routable(&app, &arch, &b));
    }

    #[test]
    fn usage_includes_slices() {
        let (app, arch, b) = example_binding();
        let usage = allocation_usage(&app, &arch, &b, &[4, 6]);
        assert_eq!(usage[0].wheel, 4);
        assert_eq!(usage[1].wheel, 6);
        assert_eq!(usage[0].memory, 225);
        assert_eq!(usage[1].memory, 210);
    }

    #[test]
    fn empty_tile_has_zero_demand() {
        let (app, arch, _) = example_binding();
        let b = Binding::new(3);
        let d = tile_demand(&app, &arch, &b, TileId::from_index(0));
        assert_eq!(d, TileUsage::default());
    }
}
