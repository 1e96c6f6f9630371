//! TDMA time-slice allocation (Section 9.3).
//!
//! Two binary searches:
//!
//! 1. A *global* search over a common fraction of each used tile's
//!    remaining wheel, between one time unit and the entire remaining
//!    wheel. It stops as soon as the guaranteed throughput lies within 10%
//!    above the constraint and fails if even the full remaining wheels are
//!    insufficient.
//! 2. A *per-tile refinement* that shrinks individual slices below the
//!    equal-fraction solution, using `⌊l_p(t)·ω_t / max_t' l_p(t')⌋` as a
//!    lower bound — imperfectly balanced load means lightly loaded tiles
//!    need less wheel time.
//!
//! Every probe goes through the [`ThroughputCache`]. Refinement tasks
//! read the pass-start cache by shared reference and memoize into a
//! task-local delta, absorbed in tile order once the pass joins.

use sdfrs_appmodel::ApplicationGraph;
#[cfg(test)]
use sdfrs_platform::TileId;
use sdfrs_platform::{ArchitectureGraph, PlatformState};
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::Rational;

use crate::binding::Binding;
use crate::binding_aware::BindingAwareGraph;
use crate::constrained::TileSchedules;
use crate::cost::{tile_loads_with, AppWork};
use crate::error::MapError;
use crate::events::{FlowEvent, FlowObserver, ProbeSlices, SliceScope};
use crate::thru_cache::ThroughputCache;

/// Configuration of the slice-allocation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceConfig {
    /// Early-stop tolerance of the global search: stop once
    /// `λ ≤ thr ≤ (1 + tolerance)·λ`. The paper uses 10%.
    pub tolerance: Rational,
    /// Maximum refinement passes over the tiles (each pass may shrink
    /// several slices; passes repeat until a fixpoint or this cap).
    pub max_refine_passes: usize,
    /// State budget per throughput evaluation.
    pub state_budget: usize,
    /// Skip the per-tile refinement (for the ablation benches).
    pub refine: bool,
    /// Run the per-tile refinement searches of each pass concurrently.
    /// The proposals are reassembled in tile order before being applied,
    /// so the resulting allocation is identical to the sequential path.
    pub parallel: bool,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            tolerance: Rational::new(1, 10),
            max_refine_passes: 3,
            state_budget: crate::constrained::DEFAULT_STATE_BUDGET,
            refine: true,
            parallel: false,
        }
    }
}

/// Result of the slice allocation.
#[derive(Debug, Clone)]
pub struct SliceAllocation {
    /// Allocated slice per tile index (0 for tiles without actors).
    pub slices: Vec<u64>,
    /// Guaranteed throughput under the final allocation.
    pub achieved: ThroughputResult,
    /// Throughput evaluations performed (the count reported in Sec 10).
    pub throughput_checks: usize,
    /// Probes of the global binary search (including the initial
    /// full-wheel probe).
    pub global_iterations: usize,
    /// Refinement probes, commit re-validations and the final
    /// re-evaluation.
    pub refine_iterations: usize,
}

/// Evaluates the guaranteed throughput under `slices` (one per local
/// tile of `ba`), at the output actor, through `cache` — consulting
/// `shared` first when a refinement task probes through its pass-start
/// cache.
///
/// Counted as a throughput check even when the cache answers: the paper's
/// metric is how often the search *consults* the analysis. The second
/// return value reports whether the cache answered.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    slices: &[u64],
    budget: usize,
    checks: &mut usize,
    cache: &mut ThroughputCache,
    shared: Option<&ThroughputCache>,
) -> Result<(ThroughputResult, bool), MapError> {
    *checks += 1;
    ba.set_local_slices(slices);
    let reference = ba.ba_actor(app.output_actor());
    let hits_before = cache.hits();
    let thr = cache
        .throughput_via(shared, ba, schedules, reference, budget)
        .map_err(MapError::from)?;
    Ok((thr, cache.hits() > hits_before))
}

/// Allocates TDMA slices meeting the application's throughput constraint
/// (Sec 9.3).
///
/// `binding` must be the binding the binding-aware graph was built from;
/// `state` provides the remaining wheel per tile.
///
/// # Errors
///
/// * [`MapError::ConstraintUnsatisfiable`] if even the full remaining
///   wheels cannot reach λ;
/// * analysis errors propagate as [`MapError::Sdf`].
pub fn allocate_slices(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    config: &SliceConfig,
) -> Result<SliceAllocation, MapError> {
    let mut cache = ThroughputCache::new();
    allocate_slices_cached(ba, schedules, app, arch, state, binding, config, &mut cache)
}

/// [`allocate_slices`] with a caller-provided evaluation cache.
///
/// The binary searches re-probe configurations the cache remembers (the
/// equal-fraction `slice_for` map collapses many `k` values to the same
/// slice vector on small wheels, and every refinement pass re-validates
/// its neighbours), and callers that allocate the same application
/// repeatedly against an unchanged platform — admission protocols, DSE
/// sweeps — reuse whole searches across calls.
#[allow(clippy::too_many_arguments)]
pub fn allocate_slices_cached(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    config: &SliceConfig,
    cache: &mut ThroughputCache,
) -> Result<SliceAllocation, MapError> {
    allocate_slices_observed(
        ba,
        schedules,
        app,
        arch,
        state,
        binding,
        config,
        cache,
        &mut FlowObserver::null(),
    )
}

/// A probe recorded inside a (possibly parallel) refinement task, replayed
/// through the observer in tile order after the tasks join so the event
/// stream stays deterministic.
type RefineProbe = (u64, Vec<u64>, Rational, bool, bool);

/// [`allocate_slices_cached`] reporting every throughput evaluation of
/// both binary searches as a
/// [`SliceProbe`](FlowEvent::SliceProbe) — the tested slice vector, the
/// measured throughput, feasibility, and whether the cache answered.
///
/// Probes from parallel refinement tasks are buffered per task and
/// emitted in tile order once the pass joins, so the event stream is
/// identical between the sequential and parallel paths.
///
/// # Errors
///
/// See [`allocate_slices`].
#[allow(clippy::too_many_arguments)]
pub fn allocate_slices_observed(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    config: &SliceConfig,
    cache: &mut ThroughputCache,
    obs: &mut FlowObserver<'_>,
) -> Result<SliceAllocation, MapError> {
    let lambda = app.throughput_constraint();
    let ceiling = lambda * (Rational::ONE + config.tolerance);
    let (mut checks, mut global_iterations, mut refine_iterations) = (0usize, 0usize, 0usize);

    // The search works on one slice per local tile of `ba`; probe events
    // name the global tiles, and the result expands to global indices.
    let tiles = ba.tiles().to_vec();
    let tile_count = arch.tile_count();
    let probe_slices = |local: &[u64]| ProbeSlices {
        used: tiles
            .iter()
            .map(|t| t.index())
            .zip(local.iter().copied())
            .collect(),
        tile_count,
    };
    let remaining: Vec<u64> = tiles
        .iter()
        .map(|&t| state.available_wheel(arch, t))
        .collect();
    let slice_for = |k: u64, big_k: u64| -> Vec<u64> {
        // Equal fractions of each tile's remaining wheel, at least 1 unit.
        remaining.iter().map(|&r| (r * k / big_k).max(1)).collect()
    };

    // --- Global binary search over the common fraction k / K.
    let big_k = remaining
        .iter()
        .copied()
        .max()
        .ok_or(MapError::ConstraintUnsatisfiable)?;
    if big_k == 0 {
        return Err(MapError::ConstraintUnsatisfiable);
    }
    let full = slice_for(big_k, big_k);
    let (thr_full, full_hit) = evaluate(
        ba,
        schedules,
        app,
        &full,
        config.state_budget,
        &mut checks,
        cache,
        None,
    )?;
    global_iterations += 1;
    let full_feasible = thr_full.iteration_throughput >= lambda;
    obs.emit(|| FlowEvent::SliceProbe {
        scope: SliceScope::Global {
            k: big_k,
            of: big_k,
        },
        slices: probe_slices(&full),
        throughput: thr_full.iteration_throughput,
        feasible: full_feasible,
        cache_hit: full_hit,
    });
    if !full_feasible {
        return Err(MapError::ConstraintUnsatisfiable);
    }

    let mut lo = 1u64;
    let mut hi = big_k;
    let mut best = full.clone();
    let mut best_thr = thr_full;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = slice_for(mid, big_k);
        if candidate == best && hi == mid {
            break;
        }
        let (thr, hit) = evaluate(
            ba,
            schedules,
            app,
            &candidate,
            config.state_budget,
            &mut checks,
            cache,
            None,
        )?;
        global_iterations += 1;
        obs.emit(|| FlowEvent::SliceProbe {
            scope: SliceScope::Global { k: mid, of: big_k },
            slices: probe_slices(&candidate),
            throughput: thr.iteration_throughput,
            feasible: thr.iteration_throughput >= lambda,
            cache_hit: hit,
        });
        if thr.iteration_throughput >= lambda {
            let within_tolerance = thr.iteration_throughput <= ceiling;
            hi = mid;
            best = candidate;
            best_thr = thr;
            if within_tolerance {
                break;
            }
        } else {
            lo = mid + 1;
        }
    }
    let mut slices = best;

    // --- Per-tile refinement.
    //
    // Each pass computes one *speculative* shrink proposal per tile: the
    // smallest feasible slice for that tile with every other tile frozen
    // at the pass-start allocation. The proposals are independent, so
    // `config.parallel` fans them out across threads; they are collected
    // in tile order either way. Proposals are then applied sequentially
    // (tile order), each commit re-validated against the *cumulative*
    // candidate — shrinking two tiles at once can violate λ even when
    // each shrink alone is feasible.
    if config.refine && tiles.len() > 1 {
        let work = AppWork::of(app)?;
        let loads: Vec<f64> = tiles
            .iter()
            .map(|&t| tile_loads_with(&work, app, arch, state, binding, t).map(|l| l.processing))
            .collect::<Result<_, _>>()?;
        let max_load = loads
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for pass in 0..config.max_refine_passes {
            let pass_start = slices.clone();
            let tile_indices: Vec<usize> = (0..tiles.len()).collect();
            let snapshot: &BindingAwareGraph = ba;
            let shared: &ThroughputCache = cache;
            let record = obs.enabled();
            let proposals = sdfrs_fastutil::par::maybe_par_map(
                config.parallel,
                &tile_indices,
                |&l| -> Result<(u64, usize, ThroughputCache, Vec<RefineProbe>), MapError> {
                    let upper = pass_start[l];
                    let lower = (((loads[l] / max_load) * upper as f64).floor() as u64).max(1);
                    let mut local_cache = shared.task_cache();
                    let mut probes = Vec::new();
                    if lower >= upper {
                        return Ok((upper, 0, local_cache, probes));
                    }
                    let mut local_ba = snapshot.clone();
                    let mut local_checks = 0usize;
                    let mut lo = lower;
                    let mut hi = upper;
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        let mut candidate = pass_start.clone();
                        candidate[l] = mid;
                        let (thr, hit) = evaluate(
                            &mut local_ba,
                            schedules,
                            app,
                            &candidate,
                            config.state_budget,
                            &mut local_checks,
                            &mut local_cache,
                            Some(shared),
                        )?;
                        let feasible = thr.iteration_throughput >= lambda;
                        if record {
                            probes.push((mid, candidate, thr.iteration_throughput, feasible, hit));
                        }
                        if feasible {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    Ok((hi, local_checks, local_cache, probes))
                },
            );
            let mut changed = false;
            for (l, proposal) in proposals.into_iter().enumerate() {
                let (proposed, local_checks, local_cache, probes) = proposal?;
                checks += local_checks;
                refine_iterations += local_checks;
                // Recorded in the (sequential) join so bucket counts never
                // depend on thread interleaving.
                if let Some(m) = obs.registry() {
                    m.refine_search_iters.observe(local_checks as u64);
                }
                cache.absorb(local_cache);
                let tile = tiles[l].index();
                for (tried, tried_slices, thr, feasible, hit) in probes {
                    obs.emit(|| FlowEvent::SliceProbe {
                        scope: SliceScope::Refine {
                            pass,
                            tile,
                            slice: tried,
                        },
                        slices: probe_slices(&tried_slices),
                        throughput: thr,
                        feasible,
                        cache_hit: hit,
                    });
                }
                if proposed >= slices[l] {
                    continue;
                }
                let mut candidate = slices.clone();
                candidate[l] = proposed;
                let (thr, hit) = evaluate(
                    ba,
                    schedules,
                    app,
                    &candidate,
                    config.state_budget,
                    &mut checks,
                    cache,
                    None,
                )?;
                refine_iterations += 1;
                let feasible = thr.iteration_throughput >= lambda;
                obs.emit(|| FlowEvent::SliceProbe {
                    scope: SliceScope::Commit {
                        pass,
                        tile,
                        slice: proposed,
                    },
                    slices: probe_slices(&candidate),
                    throughput: thr.iteration_throughput,
                    feasible,
                    cache_hit: hit,
                });
                if feasible {
                    slices = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Re-evaluate at the final allocation so `achieved` matches it.
        let (final_thr, final_hit) = evaluate(
            ba,
            schedules,
            app,
            &slices,
            config.state_budget,
            &mut checks,
            cache,
            None,
        )?;
        refine_iterations += 1;
        best_thr = final_thr;
        obs.emit(|| FlowEvent::SliceProbe {
            scope: SliceScope::Final,
            slices: probe_slices(&slices),
            throughput: best_thr.iteration_throughput,
            feasible: best_thr.iteration_throughput >= lambda,
            cache_hit: final_hit,
        });
        if best_thr.iteration_throughput < lambda {
            // Defensive: refinement never commits an infeasible slice, but
            // re-check because `best_thr` may come from a larger slice.
            return Err(MapError::ConstraintUnsatisfiable);
        }
    } else {
        ba.set_local_slices(&slices);
    }

    Ok(SliceAllocation {
        slices: ba.to_global(&slices, tile_count),
        achieved: best_thr,
        throughput_checks: checks,
        global_iterations,
        refine_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding_aware::BindingAwareGraph;
    use crate::list_sched::construct_schedules;
    use sdfrs_appmodel::apps::{example_platform, paper_example};

    fn setup(
        lambda: Rational,
    ) -> (
        ApplicationGraph,
        ArchitectureGraph,
        Binding,
        BindingAwareGraph,
        TileSchedules,
        PlatformState,
    ) {
        let app = paper_example().with_throughput_constraint(lambda);
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        let schedules = construct_schedules(&ba).unwrap();
        (app, arch, binding, ba, schedules, state)
    }

    #[test]
    fn paper_constraint_is_satisfiable() {
        // λ = 1/30: exactly the Fig 5(c) rate, reachable with 50% slices.
        let (app, arch, binding, mut ba, schedules, state) = setup(Rational::new(1, 30));
        let alloc = allocate_slices(
            &mut ba,
            &schedules,
            &app,
            &arch,
            &state,
            &binding,
            &SliceConfig::default(),
        )
        .unwrap();
        assert!(alloc.achieved.iteration_throughput >= Rational::new(1, 30));
        assert!(alloc.throughput_checks >= 1);
        for &t in &binding.used_tiles() {
            assert!(alloc.slices[t.index()] >= 1);
            assert!(alloc.slices[t.index()] <= 10);
        }
    }

    #[test]
    fn impossible_constraint_fails() {
        // λ = 1/2 is beyond even the unconstrained graph (period 29 with
        // full wheels: still ≥ 24 due to the connection actor).
        let (app, arch, binding, mut ba, schedules, state) = setup(Rational::new(1, 2));
        let err = allocate_slices(
            &mut ba,
            &schedules,
            &app,
            &arch,
            &state,
            &binding,
            &SliceConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, MapError::ConstraintUnsatisfiable);
    }

    #[test]
    fn looser_constraint_gets_smaller_slices() {
        let total = |lambda| {
            let (app, arch, binding, mut ba, schedules, state) = setup(lambda);
            let alloc = allocate_slices(
                &mut ba,
                &schedules,
                &app,
                &arch,
                &state,
                &binding,
                &SliceConfig::default(),
            )
            .unwrap();
            alloc.slices.iter().sum::<u64>()
        };
        let tight = total(Rational::new(1, 30));
        let loose = total(Rational::new(1, 200));
        assert!(
            loose <= tight,
            "looser λ must not need more wheel ({loose} vs {tight})"
        );
    }

    #[test]
    fn refinement_never_violates_constraint() {
        for num_den in [(1i128, 35i128), (1, 50), (1, 80), (1, 120)] {
            let lambda = Rational::new(num_den.0, num_den.1);
            let (app, arch, binding, mut ba, schedules, state) = setup(lambda);
            let alloc = allocate_slices(
                &mut ba,
                &schedules,
                &app,
                &arch,
                &state,
                &binding,
                &SliceConfig::default(),
            )
            .unwrap();
            assert!(
                alloc.achieved.iteration_throughput >= lambda,
                "λ = {lambda} violated"
            );
        }
    }

    #[test]
    fn refinement_disabled_allocates_equal_fractions() {
        let (app, arch, binding, mut ba, schedules, state) = setup(Rational::new(1, 60));
        let cfg = SliceConfig {
            refine: false,
            ..SliceConfig::default()
        };
        let alloc =
            allocate_slices(&mut ba, &schedules, &app, &arch, &state, &binding, &cfg).unwrap();
        // Equal wheels ⇒ equal slices without refinement.
        assert_eq!(alloc.slices[0], alloc.slices[1]);
    }

    #[test]
    fn parallel_refinement_matches_sequential() {
        for num_den in [(1i128, 30i128), (1, 50), (1, 80), (1, 120)] {
            let lambda = Rational::new(num_den.0, num_den.1);
            let (app, arch, binding, mut ba, schedules, state) = setup(lambda);
            let seq = allocate_slices(
                &mut ba,
                &schedules,
                &app,
                &arch,
                &state,
                &binding,
                &SliceConfig::default(),
            )
            .unwrap();
            let cfg = SliceConfig {
                parallel: true,
                ..SliceConfig::default()
            };
            let (app2, arch2, binding2, mut ba2, schedules2, state2) = setup(lambda);
            let par = allocate_slices(
                &mut ba2,
                &schedules2,
                &app2,
                &arch2,
                &state2,
                &binding2,
                &cfg,
            )
            .unwrap();
            assert_eq!(seq.slices, par.slices, "λ = {lambda}");
            assert_eq!(seq.achieved, par.achieved, "λ = {lambda}");
            assert_eq!(seq.throughput_checks, par.throughput_checks, "λ = {lambda}");
        }
    }

    #[test]
    fn shared_cache_replays_identical_searches() {
        use crate::thru_cache::ThroughputCache;
        let (app, arch, binding, mut ba, schedules, state) = setup(Rational::new(1, 30));
        let mut cache = ThroughputCache::new();
        let first = allocate_slices_cached(
            &mut ba,
            &schedules,
            &app,
            &arch,
            &state,
            &binding,
            &SliceConfig::default(),
            &mut cache,
        )
        .unwrap();
        let misses_after_first = cache.misses();
        assert!(misses_after_first > 0);
        let second = allocate_slices_cached(
            &mut ba,
            &schedules,
            &app,
            &arch,
            &state,
            &binding,
            &SliceConfig::default(),
            &mut cache,
        )
        .unwrap();
        assert_eq!(first.slices, second.slices);
        assert_eq!(first.achieved, second.achieved);
        assert_eq!(
            cache.misses(),
            misses_after_first,
            "the repeated search must be answered entirely from the cache"
        );
        assert!(cache.hits() >= second.throughput_checks);
    }

    #[test]
    fn occupied_wheel_limits_allocation() {
        use sdfrs_platform::TileUsage;
        let (app, arch, binding, mut ba, schedules, mut state) = setup(Rational::new(1, 30));
        // Occupy 80% of both wheels: only 2 units remain each; λ = 1/30
        // needs more.
        for t in arch.tile_ids() {
            state.claim(
                t,
                TileUsage {
                    wheel: 8,
                    ..TileUsage::default()
                },
            );
        }
        let err = allocate_slices(
            &mut ba,
            &schedules,
            &app,
            &arch,
            &state,
            &binding,
            &SliceConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, MapError::ConstraintUnsatisfiable);
    }
}
