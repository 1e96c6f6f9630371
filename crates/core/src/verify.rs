//! Independent verification of a finished [`Allocation`] — a
//! trust-but-verify layer that re-derives every validity condition of
//! Section 7 plus the throughput guarantee from scratch, without reusing
//! any intermediate result of the flow that produced the allocation.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState};

use crate::binding_aware::BindingAwareGraph;
use crate::constrained::ConstrainedExecutor;
use crate::error::MapError;
use crate::flow::Allocation;
use crate::resources::{tile_capacity, tile_demand};

/// A violated validity condition, as produced by [`verify_allocation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An actor has no tile.
    IncompleteBinding,
    /// A tile's allocated slice exceeds its remaining wheel (Sec 7
    /// constraint 1).
    SliceExceedsWheel {
        /// Tile index.
        tile: usize,
    },
    /// Memory demand exceeds the remaining memory (constraint 2).
    MemoryOverflow {
        /// Tile index.
        tile: usize,
    },
    /// Connection demand exceeds the NI capacity (constraint 3).
    ConnectionOverflow {
        /// Tile index.
        tile: usize,
    },
    /// Bandwidth demand exceeds the NI capacity (constraint 4).
    BandwidthOverflow {
        /// Tile index.
        tile: usize,
    },
    /// A used tile is missing a static-order schedule, the schedule fires
    /// foreign actors, or its periodic firing counts are not proportional
    /// to the repetition vector within one weakly connected component
    /// (such a schedule cannot repeat).
    MalformedSchedule {
        /// Tile index.
        tile: usize,
    },
    /// The re-computed guaranteed throughput misses the constraint λ.
    ThroughputMiss,
    /// The re-computed throughput differs from the recorded one (the
    /// allocation object is internally inconsistent).
    ThroughputMismatch,
}

/// Re-verifies an allocation from first principles.
///
/// Returns the list of violations — empty for a valid allocation. The
/// throughput is re-computed by rebuilding the binding-aware graph at the
/// allocation's slices, under the connection model the allocation was
/// made with, and running the constrained analysis anew.
///
/// # Errors
///
/// Analysis failures (exploration budget, missing connections) propagate
/// as [`MapError`]; they indicate a malformed allocation rather than a
/// mere violation.
pub fn verify_allocation(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    allocation: &Allocation,
) -> Result<Vec<Violation>, MapError> {
    let mut violations = Vec::new();

    if !allocation.binding.is_complete() {
        violations.push(Violation::IncompleteBinding);
        return Ok(violations);
    }

    // Section 7 constraints against the remaining capacities.
    for t in arch.tile_ids() {
        let cap = tile_capacity(arch, state, t);
        let demand = tile_demand(app, arch, &allocation.binding, t);
        let used = !allocation.binding.actors_on(t).is_empty();
        let slice = allocation.slices.at(t);
        if used && (slice == 0 || slice > cap.wheel) {
            violations.push(Violation::SliceExceedsWheel { tile: t.index() });
        }
        if demand.memory > cap.memory {
            violations.push(Violation::MemoryOverflow { tile: t.index() });
        }
        if demand.connections > cap.connections {
            violations.push(Violation::ConnectionOverflow { tile: t.index() });
        }
        if demand.bandwidth_in > cap.bandwidth_in || demand.bandwidth_out > cap.bandwidth_out {
            violations.push(Violation::BandwidthOverflow { tile: t.index() });
        }
    }

    // Schedules exist for used tiles, only fire that tile's actors, and
    // fire them γ-proportionally within the period. Each weakly connected
    // component runs at its own rate, so the common factor is per
    // component.
    let gamma = app.graph().repetition_vector()?;
    let (component, components) = app.graph().weak_components();
    for t in allocation.binding.used_tiles() {
        match allocation.schedules.get(t) {
            None => violations.push(Violation::MalformedSchedule { tile: t.index() }),
            Some(schedule) => {
                let on_tile = allocation.binding.actors_on(t);
                let foreign = schedule
                    .prefix()
                    .iter()
                    .chain(schedule.period())
                    .any(|a| !on_tile.contains(a));
                let missing = on_tile.iter().any(|a| !schedule.period().contains(a));
                // Counts in the period must be k·γ(a) for one k per
                // component.
                let mut k = vec![None; components];
                let mut proportional = true;
                for &a in &on_tile {
                    let count = schedule.period().iter().filter(|&&x| x == a).count();
                    let ratio = sdfrs_sdf::Rational::new(count as i128, gamma[a] as i128);
                    proportional &= *k[component[a.index()]].get_or_insert(ratio) == ratio;
                }
                if foreign || missing || !proportional {
                    violations.push(Violation::MalformedSchedule { tile: t.index() });
                }
            }
        }
    }
    if !violations.is_empty() {
        return Ok(violations);
    }

    // Recompute the guarantee from scratch.
    let ba = BindingAwareGraph::build_with_model(
        app,
        arch,
        &allocation.binding,
        &allocation.slices.to_dense(arch.tile_count()),
        allocation.connection_model,
    )?;
    let reference = ba.ba_actor(app.output_actor());
    let recomputed = ConstrainedExecutor::new(&ba, &allocation.schedules)
        .throughput(reference)
        .map_err(MapError::from)?;
    if recomputed.iteration_throughput != allocation.achieved.iteration_throughput {
        violations.push(Violation::ThroughputMismatch);
    }
    if recomputed.iteration_throughput < app.throughput_constraint() {
        violations.push(Violation::ThroughputMiss);
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_sdf::Rational;

    fn valid_allocation() -> (
        ApplicationGraph,
        ArchitectureGraph,
        PlatformState,
        Allocation,
    ) {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let (alloc, _) = Allocator::new().allocate(&app, &arch, &state).unwrap();
        (app, arch, state, alloc)
    }

    #[test]
    fn flow_output_verifies_clean() {
        let (app, arch, state, alloc) = valid_allocation();
        assert_eq!(
            verify_allocation(&app, &arch, &state, &alloc).unwrap(),
            vec![]
        );
    }

    #[test]
    fn detects_oversized_slice() {
        let (app, arch, state, mut alloc) = valid_allocation();
        let t = alloc.binding.used_tiles()[0];
        alloc.slices = alloc.slices.map(|u, &s| if u == t { 99 } else { s });
        let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
        assert!(v.contains(&Violation::SliceExceedsWheel { tile: t.index() }));
    }

    #[test]
    fn detects_throughput_miss() {
        // Shrink the slices below what λ needs.
        let (app, arch, state, mut alloc) = valid_allocation();
        alloc.slices = alloc.slices.map(|_, _| 1);
        let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
        assert!(
            v.contains(&Violation::ThroughputMiss) || v.contains(&Violation::ThroughputMismatch),
            "shrunken slices must be caught: {v:?}"
        );
    }

    #[test]
    fn detects_incomplete_binding() {
        let (app, arch, state, mut alloc) = valid_allocation();
        alloc
            .binding
            .unbind(app.graph().actor_by_name("a2").unwrap());
        let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
        assert_eq!(v, vec![Violation::IncompleteBinding]);
    }

    #[test]
    fn detects_foreign_schedule() {
        let (app, arch, state, mut alloc) = valid_allocation();
        // Swap the two tiles' schedules (both non-trivial in the default
        // allocation of the example).
        let tiles = alloc.binding.used_tiles();
        if tiles.len() == 2 {
            let s0 = alloc.schedules.get(tiles[0]).unwrap().clone();
            let s1 = alloc.schedules.get(tiles[1]).unwrap().clone();
            alloc.schedules.set(tiles[0], s1);
            alloc.schedules.set(tiles[1], s0);
            let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
            assert!(v
                .iter()
                .any(|x| matches!(x, Violation::MalformedSchedule { .. })));
        }
    }

    #[test]
    fn detects_non_proportional_schedule() {
        use crate::schedule::StaticOrderSchedule;
        let (app, arch, state, mut alloc) = valid_allocation();
        // Find the tile hosting a1 and a2 (γ = 2 each) and fire a1 twice
        // as often as a2: proportionality breaks.
        let a1 = app.graph().actor_by_name("a1").unwrap();
        let a2 = app.graph().actor_by_name("a2").unwrap();
        let t = alloc.binding.tile_of(a1).unwrap();
        if alloc.binding.tile_of(a2) == Some(t) {
            alloc
                .schedules
                .set(t, StaticOrderSchedule::new(vec![], vec![a1, a1, a2]));
            let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
            assert!(v
                .iter()
                .any(|x| matches!(x, Violation::MalformedSchedule { .. })));
        }
    }

    #[test]
    fn detects_recorded_throughput_mismatch() {
        let (app, arch, state, mut alloc) = valid_allocation();
        alloc.achieved.iteration_throughput = Rational::new(1, 2);
        let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
        assert!(v.contains(&Violation::ThroughputMismatch));
    }

    #[test]
    fn occupied_state_is_respected() {
        use sdfrs_platform::TileUsage;
        let (app, arch, mut state, alloc) = valid_allocation();
        // Occupy the memory under the allocation's feet.
        for t in arch.tile_ids() {
            state.claim(
                t,
                TileUsage {
                    memory: arch.tile(t).memory(),
                    ..TileUsage::default()
                },
            );
        }
        let v = verify_allocation(&app, &arch, &state, &alloc).unwrap();
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MemoryOverflow { .. })));
    }
}
