//! The resource-binding step (Section 9.1).
//!
//! Actors are considered in decreasing criticality (Eqn 1). Each actor is
//! tried on its candidate tiles in increasing tile cost (Eqn 2, evaluated
//! with the actor provisionally bound); the first candidate that satisfies
//! the Section 7 constraints wins. A reverse-order re-binding pass then
//! improves the load balance.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId, TileUsage};
use sdfrs_sdf::ActorId;

use crate::binding::Binding;
use crate::cost::{
    binding_order, tile_cost, tile_loads_with, AppWork, CostWeights, DEFAULT_CYCLE_CAP,
};
use crate::error::MapError;
use crate::events::{BindPass, FlowEvent, FlowObserver};
use crate::resources::{binding_constraints_hold, tile_capacity};

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

/// Candidate tiles for one actor: the tiles of `tiles` whose processor
/// type the actor supports and which still have at least one free wheel
/// unit, in the order of `tiles`. The wheel filter is exact:
/// `tile_constraints_hold` demands one remaining wheel unit for any tile
/// that hosts an actor, so a fully claimed tile can never be accepted in
/// either pass (and in the optimization pass the actor's original tile
/// always retains its own claimed-free unit, so the restore fallback is
/// unaffected).
fn candidate_tiles(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    tiles: &[TileId],
    actor: ActorId,
) -> Vec<TileId> {
    let requirements = app.actor_requirements(actor);
    tiles
        .iter()
        .copied()
        .filter(|&t| {
            let tile = arch.tile(t);
            state.usage(t).wheel < tile.wheel_size() && requirements.supports(tile.processor_type())
        })
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

/// The Section 7 demand `actor` brings to a tile that hosts no other
/// actor of the application, apart from its own memory: its self-loops
/// are local there, each of its channels to a bound actor leaves or
/// enters the tile, and a channel to an unbound actor counts nowhere.
fn lone_demand(app: &ApplicationGraph, binding: &Binding, actor: ActorId) -> TileUsage {
    let g = app.graph();
    let mut demand = TileUsage::default();
    for &d in g.outgoing(actor) {
        let th = app.channel_requirements(d);
        let dst = g.channel(d).dst();
        if dst == actor {
            demand.memory += th.memory_tile();
        } else if binding.tile_of(dst).is_some() {
            demand.memory += th.memory_src();
            demand.bandwidth_out += th.bandwidth;
            demand.connections += 1;
        }
    }
    for &d in g.incoming(actor) {
        let src = g.channel(d).src();
        if src != actor && binding.tile_of(src).is_some() {
            let th = app.channel_requirements(d);
            demand.memory += th.memory_dst();
            demand.bandwidth_in += th.bandwidth;
            demand.connections += 1;
        }
    }
    demand
}

/// The largest Eqn 2 cost over `tiles` under `binding`, and 0 when they
/// are none.
fn max_cost(
    work: &AppWork,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    weights: CostWeights,
    tiles: &[TileId],
) -> Result<f64, MapError> {
    let mut worst = 0.0f64;
    for &u in tiles {
        worst = worst.max(tile_cost(
            weights,
            tile_loads_with(work, app, arch, state, binding, u)?,
        ));
    }
    Ok(worst)
}

/// Ranks `tiles` by the Eqn 2 cost of binding `actor` there (given the
/// current partial `binding`, which leaves `actor` unbound), ascending;
/// ties in tile order.
///
/// A candidate that hosts another actor is costed on the binding with
/// `actor` placed there. Every other candidate sees the same binding up
/// to its own tile: `actor` alone there, with the [`lone_demand`]
/// computed once. Its own cost needs only the actor's requirements on its
/// processor type and its remaining capacity. In the optimization pass
/// the other used tiles keep the same loads for every such candidate, so
/// their maximum is computed once, with `actor` on the first of them.
/// Both feed `tile_cost` the integers the full evaluation would, and a
/// maximum does not depend on its order, so every cost is bit-identical
/// to costing each candidate on the whole binding.
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
    let used = binding.used_tiles();
    let hosts_other = |t: TileId| used.binary_search(&t).is_ok();
    let lone = lone_demand(app, binding, actor);
    // The optimization pass's maximum over the other used tiles while
    // `actor` sits on a tile of its own. A tile with no bound actor has
    // zero demand and zero processing share, and `fraction` maps zero use
    // to zero load even on zero-capacity resources, so its Eqn 2 cost is
    // exactly 0 — the value the maximum starts from.
    let others = match (scope, tiles.iter().find(|&&t| !hosts_other(t))) {
        (RankScope::AllTiles, Some(&apart)) => {
            binding.bind(actor, apart);
            let worst = max_cost(work, app, arch, state, binding, weights, &used);
            binding.unbind(actor);
            worst?
        }
        _ => 0.0,
    };
    let mut ranked = Vec::with_capacity(tiles.len());
    for &t in tiles {
        let cost = if hosts_other(t) {
            binding.bind(actor, t);
            let cost = match scope {
                RankScope::CandidateTile => tile_loads_with(work, app, arch, state, binding, t)
                    .map(|loads| tile_cost(weights, loads)),
                RankScope::AllTiles => max_cost(work, app, arch, state, binding, weights, &used),
            };
            binding.unbind(actor);
            cost?
        } else {
            let pt = arch.tile(t).processor_type();
            let unsupported = || MapError::UnsupportedBinding { actor, tile: t };
            let tau = app.execution_time(actor, pt).ok_or_else(unsupported)?;
            let memory = app.actor_memory(actor, pt).ok_or_else(unsupported)?;
            let demand = TileUsage {
                memory: lone.memory + memory,
                ..lone
            };
            let own = tile_cost(
                weights,
                work.loads(
                    work.of_actor(actor, tau),
                    &demand,
                    &tile_capacity(arch, state, t),
                ),
            );
            match scope {
                RankScope::CandidateTile => own,
                RankScope::AllTiles => others.max(own),
            }
        };
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
    let tiles: Vec<TileId> = arch.tile_ids().collect();
    bind_actors_observed(app, arch, state, &tiles, config, &mut FlowObserver::null())
        .map(|(b, _)| b)
}

/// [`bind_actors`] onto the candidate `tiles` (ascending), reporting
/// every decision through an observer: the Eqn 1 criticality order, one
/// [`BindAttempt`](FlowEvent::BindAttempt) per candidate tile tried in
/// either pass, and an [`ActorRebound`](FlowEvent::ActorRebound) whenever
/// the optimization pass moves an actor. Returns the binding and the
/// number of candidate tiles tried in both passes.
///
/// Only the candidates and the tiles the binding uses are read from
/// `state`, so the cost follows `tiles`, not the platform.
///
/// # Errors
///
/// See [`bind_actors`].
pub fn bind_actors_observed(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    tiles: &[TileId],
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
        let candidates = candidate_tiles(app, arch, state, tiles, actor);
        let ranked = rank_tiles(
            &work,
            app,
            arch,
            state,
            &mut binding,
            actor,
            &candidates,
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
            let candidates = candidate_tiles(app, arch, state, tiles, actor);
            let ranked = rank_tiles(
                &work,
                app,
                arch,
                state,
                &mut binding,
                actor,
                &candidates,
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

    /// A candidate whose demanded memory is exhausted while memory
    /// weighs 0 costs its processing share alone: it must not come out
    /// NaN and leave the other candidates unsorted, which made the
    /// first-fit pass place the actor on t0 (share 0.5) ahead of t2
    /// (share 0.2).
    #[test]
    fn exhausted_zero_weighted_resource_keeps_the_ranking_sorted() {
        use sdfrs_appmodel::ActorRequirements;
        use sdfrs_platform::{ProcessorType, TileUsage};
        use sdfrs_sdf::{Rational, SdfGraph};
        let pt = ProcessorType::new;
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("a", 0);
        let app = ApplicationGraph::builder(g, Rational::new(1, 100))
            .actor(
                a,
                ActorRequirements::new()
                    .on(pt("p1"), 5, 1)
                    .on(pt("p2"), 3, 1)
                    .on(pt("p3"), 2, 1)
                    .on(pt("p4"), 10, 1),
            )
            .build()
            .unwrap();
        let mut arch = ArchitectureGraph::new("three");
        for (name, p) in [("t0", "p1"), ("t1", "p2"), ("t2", "p3")] {
            arch.add_tile(Tile::new(name, pt(p), 10, 100, 4, 100, 100));
        }
        let mut state = PlatformState::new(&arch);
        state.claim(
            TileId::from_index(1),
            TileUsage {
                memory: 100,
                ..TileUsage::default()
            },
        );
        let first_fit = BindConfig {
            optimize: false,
            ..BindConfig::with_weights(CostWeights::PROCESSING)
        };
        let b = bind_actors(&app, &arch, &state, &first_fit).unwrap();
        assert_eq!(b.tile_of(a), Some(TileId::from_index(2)));
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
