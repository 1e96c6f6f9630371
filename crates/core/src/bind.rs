//! The resource-binding step (Section 9.1).
//!
//! Actors are considered in decreasing criticality (Eqn 1). Each actor is
//! tried on its candidate tiles in increasing tile cost (Eqn 2, evaluated
//! with the actor provisionally bound); the first candidate that satisfies
//! the Section 7 constraints wins. A reverse-order re-binding pass then
//! improves the load balance.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId};
use sdfrs_sdf::ActorId;

use crate::binding::Binding;
use crate::cost::{
    binding_order, tile_cost, tile_loads_with, AppWork, CostWeights, DEFAULT_CYCLE_CAP,
};
use crate::error::MapError;
use crate::events::{BindPass, FlowEvent, FlowObserver};
use crate::resources::binding_constraints_hold;

/// Configuration of the binding step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BindConfig {
    /// Weights of the tile cost function (Eqn 2).
    pub weights: CostWeights,
    /// Cap for the Eqn 1 cycle enumeration.
    pub max_cycles: usize,
    /// Run the reverse-order re-binding optimization (Sec 9.1, second
    /// paragraph). On by default; exposed for the ablation benches.
    pub optimize: bool,
}

impl Default for BindConfig {
    fn default() -> Self {
        BindConfig {
            weights: CostWeights::BALANCED,
            max_cycles: DEFAULT_CYCLE_CAP,
            optimize: true,
        }
    }
}

impl BindConfig {
    /// A configuration using the given Eqn 2 weights.
    pub fn with_weights(weights: CostWeights) -> Self {
        BindConfig {
            weights,
            ..BindConfig::default()
        }
    }
}

/// Candidate tiles for one actor: every tile whose processor type the
/// actor supports and which still has at least one free wheel unit, in
/// tile order. The wheel filter is exact: `tile_constraints_hold`
/// demands one remaining wheel unit for any tile that hosts an actor, so
/// a fully claimed tile can never be accepted in either pass (and in the
/// optimization pass the actor's original tile always retains its own
/// claimed-free unit, so the restore fallback is unaffected).
fn candidate_tiles(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    actor: ActorId,
) -> Vec<TileId> {
    arch.tiles()
        .filter(|&(id, tile)| {
            state.usage(id).wheel < tile.wheel_size()
                && app
                    .actor_requirements(actor)
                    .supports(tile.processor_type())
        })
        .map(|(id, _)| id)
        .collect()
}

/// How a candidate tile is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankScope {
    /// Cost of the candidate tile only (the first-fit pass: "the tile cost
    /// function based on the current partial binding with a bound to t").
    CandidateTile,
    /// Maximum of Eqn 2 over every tile (the optimization pass:
    /// "considering the load of all tiles when the whole application graph
    /// except actor a is bound" — the balance objective is to minimize the
    /// most loaded tile).
    AllTiles,
}

/// Ranks `tiles` by the Eqn 2 cost of binding `actor` there (given the
/// current partial `binding`), ascending; ties in tile order.
#[allow(clippy::too_many_arguments)]
fn rank_tiles(
    work: &AppWork,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &mut Binding,
    actor: ActorId,
    tiles: &[TileId],
    weights: CostWeights,
    scope: RankScope,
) -> Result<Vec<(TileId, f64)>, MapError> {
    let mut ranked = Vec::with_capacity(tiles.len());
    for &t in tiles {
        binding.bind(actor, t);
        let cost = match scope {
            RankScope::CandidateTile => tile_cost(
                weights,
                tile_loads_with(work, app, arch, state, binding, t)?,
            ),
            RankScope::AllTiles => {
                // Exact restriction of "max over every tile": a tile with
                // no bound actor has zero demand and zero processing share,
                // and `fraction` maps zero use to zero load even on
                // zero-capacity resources, so its Eqn 2 cost is exactly 0 —
                // the value `worst` starts from.
                let mut worst = 0.0f64;
                for u in binding.used_tiles() {
                    worst = worst.max(tile_cost(
                        weights,
                        tile_loads_with(work, app, arch, state, binding, u)?,
                    ));
                }
                worst
            }
        };
        binding.unbind(actor);
        ranked.push((t, cost));
    }
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    Ok(ranked)
}

/// Binds every actor of the application to a tile (Sec 9.1).
///
/// # Errors
///
/// [`MapError::NoFeasibleTile`] if some actor fits on no tile without
/// violating the Section 7 constraints.
///
/// # Examples
///
/// Reproduce row 1 of Table 3 — weights (1, 0, 0) bind a1, a2 to t1 and
/// a3 to t2:
///
/// ```
/// use sdfrs_appmodel::apps::{example_platform, paper_example};
/// use sdfrs_core::bind::{bind_actors, BindConfig};
/// use sdfrs_core::cost::CostWeights;
/// use sdfrs_platform::{PlatformState, TileId};
///
/// # fn main() -> Result<(), sdfrs_core::MapError> {
/// let app = paper_example();
/// let arch = example_platform();
/// let state = PlatformState::new(&arch);
/// let binding = bind_actors(&app, &arch, &state,
///     &BindConfig::with_weights(CostWeights::PROCESSING))?;
/// let g = app.graph();
/// let t1 = TileId::from_index(0);
/// let t2 = TileId::from_index(1);
/// assert_eq!(binding.tile_of(g.actor_by_name("a1").unwrap()), Some(t1));
/// assert_eq!(binding.tile_of(g.actor_by_name("a2").unwrap()), Some(t1));
/// assert_eq!(binding.tile_of(g.actor_by_name("a3").unwrap()), Some(t2));
/// # Ok(())
/// # }
/// ```
pub fn bind_actors(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: &BindConfig,
) -> Result<Binding, MapError> {
    bind_actors_observed(app, arch, state, config, &mut FlowObserver::null()).map(|(b, _)| b)
}

/// [`bind_actors`] reporting every decision through an observer: the
/// Eqn 1 criticality order, one
/// [`BindAttempt`](FlowEvent::BindAttempt) per candidate tile tried in
/// either pass, and an [`ActorRebound`](FlowEvent::ActorRebound) whenever
/// the optimization pass moves an actor. Returns the binding and the
/// number of candidate tiles tried in both passes.
///
/// # Errors
///
/// See [`bind_actors`].
pub fn bind_actors_observed(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: &BindConfig,
    obs: &mut FlowObserver<'_>,
) -> Result<(Binding, usize), MapError> {
    let order = binding_order(app, config.max_cycles)?;
    obs.emit(|| FlowEvent::CriticalityOrder {
        actors: order
            .iter()
            .map(|&a| app.graph().actor(a).name().to_string())
            .collect(),
    });
    let work = AppWork::of(app)?;
    let mut binding = Binding::new(app.graph().actor_count());
    let mut attempts = 0usize;

    // First-fit in criticality order.
    for &actor in &order {
        let tiles = candidate_tiles(app, arch, state, actor);
        let ranked = rank_tiles(
            &work,
            app,
            arch,
            state,
            &mut binding,
            actor,
            &tiles,
            config.weights,
            RankScope::CandidateTile,
        )?;
        let mut placed = false;
        for (tile, cost) in ranked {
            binding.bind(actor, tile);
            let accepted = binding_constraints_hold(app, arch, state, &binding);
            attempts += 1;
            obs.emit(|| FlowEvent::BindAttempt {
                pass: BindPass::FirstFit,
                actor: app.graph().actor(actor).name().to_string(),
                tile: tile.index(),
                cost,
                accepted,
            });
            if accepted {
                placed = true;
                break;
            }
            binding.unbind(actor);
        }
        if !placed {
            return Err(MapError::NoFeasibleTile { actor });
        }
    }

    // Reverse-order re-binding: always succeeds because the original tile
    // is among the candidates.
    if config.optimize {
        for &actor in order.iter().rev() {
            let original = binding.tile_of(actor).expect("first pass bound everything");
            binding.unbind(actor);
            let tiles = candidate_tiles(app, arch, state, actor);
            let ranked = rank_tiles(
                &work,
                app,
                arch,
                state,
                &mut binding,
                actor,
                &tiles,
                config.weights,
                RankScope::AllTiles,
            )?;
            let mut placed = false;
            for (tile, cost) in ranked {
                binding.bind(actor, tile);
                let accepted = binding_constraints_hold(app, arch, state, &binding);
                attempts += 1;
                obs.emit(|| FlowEvent::BindAttempt {
                    pass: BindPass::Rebind,
                    actor: app.graph().actor(actor).name().to_string(),
                    tile: tile.index(),
                    cost,
                    accepted,
                });
                if accepted {
                    placed = true;
                    break;
                }
                binding.unbind(actor);
            }
            if !placed {
                binding.bind(actor, original);
            }
            let landed = binding.tile_of(actor).expect("actor rebound or restored");
            if landed != original {
                obs.emit(|| FlowEvent::ActorRebound {
                    actor: app.graph().actor(actor).name().to_string(),
                    from: original.index(),
                    to: landed.index(),
                });
            }
        }
    }

    Ok((binding, attempts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_platform::Tile;

    fn bind_with(weights: CostWeights) -> (ApplicationGraph, Binding) {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let binding = bind_actors(&app, &arch, &state, &BindConfig::with_weights(weights)).unwrap();
        (app, binding)
    }

    fn tiles_of(app: &ApplicationGraph, b: &Binding) -> Vec<usize> {
        ["a1", "a2", "a3"]
            .iter()
            .map(|n| {
                b.tile_of(app.graph().actor_by_name(n).unwrap())
                    .unwrap()
                    .index()
            })
            .collect()
    }

    /// Table 3 row 1: (1, 0, 0) ⇒ t1, t1, t2.
    #[test]
    fn table3_processing_weights() {
        let (app, b) = bind_with(CostWeights::PROCESSING);
        assert_eq!(tiles_of(&app, &b), vec![0, 0, 1]);
    }

    /// Table 3 row 3: (0, 0, 1) ⇒ t1, t1, t1.
    #[test]
    fn table3_communication_weights() {
        let (app, b) = bind_with(CostWeights::COMMUNICATION);
        assert_eq!(tiles_of(&app, &b), vec![0, 0, 0]);
    }

    /// Table 3 row 4: (1, 1, 1) ⇒ t1, t1, t2.
    #[test]
    fn table3_balanced_weights() {
        let (app, b) = bind_with(CostWeights::BALANCED);
        assert_eq!(tiles_of(&app, &b), vec![0, 0, 1]);
    }

    #[test]
    fn binding_is_complete_and_constraint_clean() {
        for w in CostWeights::table4() {
            let app = paper_example();
            let arch = example_platform();
            let state = PlatformState::new(&arch);
            let b = bind_actors(&app, &arch, &state, &BindConfig::with_weights(w)).unwrap();
            assert!(b.is_complete());
            assert!(binding_constraints_hold(&app, &arch, &state, &b));
        }
    }

    #[test]
    fn optimization_can_be_disabled() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let cfg = BindConfig {
            optimize: false,
            ..BindConfig::with_weights(CostWeights::PROCESSING)
        };
        let b = bind_actors(&app, &arch, &state, &cfg).unwrap();
        assert!(b.is_complete());
    }

    #[test]
    fn infeasible_when_no_type_matches() {
        let app = paper_example();
        // Platform whose processors support nothing the app knows.
        let mut arch = ArchitectureGraph::new("alien");
        arch.add_tile(Tile::new("t", "alien".into(), 10, 1000, 4, 100, 100));
        let state = PlatformState::new(&arch);
        assert!(matches!(
            bind_actors(&app, &arch, &state, &BindConfig::default()),
            Err(MapError::NoFeasibleTile { .. })
        ));
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let app = paper_example();
        let mut arch = ArchitectureGraph::new("tiny");
        // Single tile with memory below the application's footprint.
        arch.add_tile(Tile::new("t", "p1".into(), 10, 50, 4, 100, 100));
        let state = PlatformState::new(&arch);
        assert!(matches!(
            bind_actors(&app, &arch, &state, &BindConfig::default()),
            Err(MapError::NoFeasibleTile { .. })
        ));
    }

    #[test]
    fn occupancy_steers_binding_away() {
        use sdfrs_platform::TileUsage;
        let app = paper_example();
        let arch = example_platform();
        let mut state = PlatformState::new(&arch);
        // Make t1's memory scarce: the big d2 buffer no longer fits
        // locally, pushing the binding apart or to t2.
        state.claim(
            TileId::from_index(0),
            TileUsage {
                memory: 680,
                ..TileUsage::default()
            },
        );
        let b = bind_actors(
            &app,
            &arch,
            &state,
            &BindConfig::with_weights(CostWeights::MEMORY),
        )
        .unwrap();
        assert!(binding_constraints_hold(&app, &arch, &state, &b));
        // t1 has only 20 bits left: nothing heavy can live there.
        let t1_actors = b.actors_on(TileId::from_index(0));
        let pt = arch.tile(TileId::from_index(0)).processor_type().clone();
        let demand: u64 = t1_actors
            .iter()
            .map(|&a| app.actor_memory(a, &pt).unwrap())
            .sum();
        assert!(demand <= 20);
    }
}
