//! Integration tests for the region-composable platform API and the
//! region-local admission built on it: `ClaimSet` apply/revert
//! round-trips, partition/mask/neighbor properties of `RegionMap`,
//! forced escalation out of starved home regions, commit-log replay of
//! regional admissions, and placement-independent analysis of congruent
//! regions.

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
use sdfrs_core::service::{
    parse_request_line, replay_commit_log, AllocationService, CommitLog, ServiceConfig,
};
use sdfrs_core::{Allocator, Metrics};
use sdfrs_platform::mesh::{grid_mesh_platform, MeshConfig};
use sdfrs_platform::{
    ArchitectureGraph, PlatformState, ProcessorType, RegionId, RegionMap, TileId,
};
use sdfrs_sdf::{Rational, SdfGraph};

fn grid(rows: usize, cols: usize) -> ArchitectureGraph {
    let config = MeshConfig {
        rows,
        cols,
        ..MeshConfig::default()
    };
    grid_mesh_platform("grid", &config)
}

/// `ClaimSet::apply` followed by `revert` restores the platform state
/// exactly, and the regions of the set's tiles are precisely the regions
/// whose residual it moved.
#[test]
fn claim_set_apply_revert_round_trips_per_region() {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    let (alloc, _) = Allocator::new().allocate(&app, &arch, &state).unwrap();
    let map = RegionMap::contiguous(&arch, 2);

    let claim = alloc.claim_set();
    assert!(!claim.is_empty());
    assert!(claim.fits(&arch, &state));

    let mut working = state.clone();
    claim.apply(&mut working);
    let footprint: Vec<RegionId> = claim
        .entries()
        .iter()
        .map(|&(tile, _)| map.region_of(tile))
        .collect();
    for region in map.region_ids() {
        let residual = |s: &PlatformState| -> Vec<_> {
            map.tiles(region)
                .iter()
                .map(|&t| s.tile_capacity(&arch, t))
                .collect()
        };
        let (before, after) = (residual(&state), residual(&working));
        if footprint.contains(&region) {
            assert_ne!(before, after, "footprint region {region} must change");
        } else {
            assert_eq!(before, after, "untouched region {region} must not move");
        }
    }
    claim.revert(&mut working);
    assert_eq!(working, state, "revert must undo apply exactly");
}

/// `RegionMap::contiguous` covers every tile exactly once for any region
/// count, neighbor links are symmetric, and masking to a region set
/// zeroes the residual of every tile outside it.
#[test]
fn contiguous_partition_and_masking_properties() {
    let arch = grid(4, 4);
    for count in [1, 2, 3, 5, 8, 16] {
        let map = RegionMap::contiguous(&arch, count);
        assert_eq!(map.region_count(), count.min(arch.tile_count()));
        let mut seen = vec![0usize; arch.tile_count()];
        for region in map.region_ids() {
            for &tile in map.tiles(region) {
                assert_eq!(map.region_of(tile), region);
                seen[tile.index()] += 1;
            }
            for &n in map.neighbors(region) {
                assert_ne!(n, region, "a region never neighbors itself");
                assert!(
                    map.neighbors(n).contains(&region),
                    "grid links are bidirectional, so neighbor sets are symmetric"
                );
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each tile in exactly one region"
        );

        let state = PlatformState::new(&arch);
        let allowed = [RegionId::from_index(0)];
        let masked = map.masked_state(&arch, &state, &allowed);
        for (tile, _) in arch.tiles() {
            let cap = masked.tile_capacity(&arch, tile);
            if map.region_of(tile) == allowed[0] {
                assert!(cap.wheel > 0, "allowed tiles keep their capacity");
            } else {
                assert_eq!(
                    (
                        cap.wheel,
                        cap.memory,
                        cap.connections,
                        cap.bandwidth_in,
                        cap.bandwidth_out
                    ),
                    (0, 0, 0, 0, 0),
                    "masked-out tiles expose no residual capacity"
                );
            }
        }
    }
}

/// An application whose two actors each fit either paper-platform tile
/// alone but never share one (combined memory 800 exceeds both t1's 700
/// and t2's 500) — its binding is forced to span tiles.
fn split_app() -> ApplicationGraph {
    let p1 = ProcessorType::new("p1");
    let p2 = ProcessorType::new("p2");
    let mut g = SdfGraph::new("split");
    let a = g.add_actor("a", 0);
    let b = g.add_actor("b", 0);
    let d = g.add_channel("d", a, 1, b, 1, 0);
    ApplicationGraph::builder(g, Rational::new(1, 100))
        .actor(
            a,
            ActorRequirements::new()
                .on(p1.clone(), 1, 400)
                .on(p2.clone(), 1, 400),
        )
        .actor(b, ActorRequirements::new().on(p1, 1, 400).on(p2, 1, 400))
        .channel(d, ChannelRequirements::new(1, 1, 1, 1, 10))
        .output_actor(b)
        .build()
        .expect("the split app is a valid application graph")
}

/// With single-tile regions an application that cannot fit one tile
/// cannot fit its home region either, so the admission must walk the
/// escalation chain — and still succeed, with the metrics recording the
/// escalation.
#[test]
fn starved_home_regions_force_escalation() {
    let arch = example_platform();
    let metrics = Metrics::collecting();
    let mut config = ServiceConfig::default();
    config.regions = arch.tile_count(); // one tile per region
    let mut svc = AllocationService::from_config(&arch, config).with_metrics(metrics.clone());

    let session = svc.admit(&split_app()).expect("escalation finds room");
    assert!(svc.allocation(session).is_some());

    let snapshot = metrics.snapshot().unwrap();
    assert_eq!(snapshot.counter("sessions_admitted"), 1);
    assert_eq!(
        snapshot.counter("region_escalations"),
        1,
        "the admit cannot have been region-local"
    );
    assert_eq!(snapshot.counter("region_admits_local"), 0);
    assert_eq!(snapshot.regions_configured, arch.tile_count() as u64);
}

/// A rejected admit never enters the commit log, so it must not move the
/// round-robin home region either: otherwise a replay of the log places
/// every later admit in another region than the live run did.
#[test]
fn rejected_admits_keep_regional_replay_exact() {
    let arch = example_platform();
    let mut config = ServiceConfig::default();
    config.regions = 2;
    let mut live = AllocationService::from_config(&arch, config);
    let mut log = CommitLog::new();
    for (example, admitted) in [("h263", false), ("paper", true)] {
        let line = format!(r#"{{"op":"admit","example":"{example}"}}"#);
        let request = parse_request_line(&line).unwrap();
        let response = live.execute_logged(request, &mut log);
        assert_eq!(response.commits(), admitted, "admit {example}");
    }
    assert_eq!(log.len(), 1, "only the paper admission is logged");
    let replayed =
        replay_commit_log(&arch, config, log.lines().iter().map(String::as_str)).unwrap();
    assert_eq!(replayed.residual_digest(), live.residual_digest());
}

/// The same application admitted into two congruent regions — the first
/// and the last row band of a grid — is the same local problem: the flow
/// numbers the used tiles locally, so the second placement is answered
/// entirely from the throughput memo and yields the same guaranteed
/// throughput, slices and schedules up to the tile translation.
#[test]
fn congruent_regions_share_the_throughput_memo() {
    let config = MeshConfig {
        rows: 4,
        cols: 4,
        processor_types: vec![ProcessorType::new("p1"), ProcessorType::new("p2")],
        ..MeshConfig::default()
    };
    let arch = grid_mesh_platform("grid", &config);
    let map = RegionMap::contiguous(&arch, config.rows);
    let app = paper_example();
    let fresh = PlatformState::new(&arch);
    let mut allocator = Allocator::new();
    let first = RegionId::from_index(0);
    let last = RegionId::from_index(config.rows - 1);
    let (a, _) = allocator
        .allocate(&app, &arch, &map.masked_state(&arch, &fresh, &[first]))
        .unwrap();
    let (b, stats) = allocator
        .allocate(&app, &arch, &map.masked_state(&arch, &fresh, &[last]))
        .unwrap();

    let offset = (config.rows - 1) * config.cols;
    let moved = |t: TileId| TileId::from_index(t.index() + offset);
    let used = a.binding.used_tiles();
    assert!(used.iter().all(|&t| map.region_of(t) == first));
    assert_eq!(
        b.binding.used_tiles(),
        used.iter().copied().map(moved).collect::<Vec<_>>()
    );
    assert_eq!(a.achieved, b.achieved, "period, transient and states too");
    for t in arch.tile_ids() {
        if map.region_of(t) == first {
            assert_eq!(a.slices[t.index()], b.slices[moved(t).index()]);
            assert_eq!(a.schedules.get(t), b.schedules.get(moved(t)));
        }
    }
    assert!(stats.throughput_checks > 0);
    assert_eq!(
        stats.cache_misses, 0,
        "every probe of the second placement is a memo hit"
    );
}
