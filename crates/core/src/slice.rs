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
//! Every probe first asks the exact [`ProcessingBound`]; a probe the
//! bound does not prove infeasible goes through the [`ThroughputCache`].
//! The bound only answers probes the exploration would find infeasible,
//! so both searches take the same steps as with every probe explored.
//! Refinement tasks read the pass-start cache by shared reference and
//! memoize into a task-local delta, absorbed in tile order once the pass
//! joins.

use sdfrs_appmodel::ApplicationGraph;
#[cfg(test)]
use sdfrs_platform::TileId;
use sdfrs_platform::{ArchitectureGraph, PlatformState};
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::{ActorId, Rational, SdfError};

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

/// An exact upper bound on the iteration throughput of a binding-aware
/// graph under its current slices, from processing load alone:
/// `min_l ω_l / (w_l·W_l)` over the local tiles `l`, where
/// `W_l = Σ γ(a)·τ(a)` over the actors of the reference's weakly connected
/// component bound to `l`.
///
/// A recurrent state of the constrained execution includes the wheels'
/// hyper-period phase, so a period `P` is a multiple of every wheel and
/// tile `l` offers exactly `P·ω_l/w_l` slice time in it. A tile runs one
/// firing at a time, a tile-bound firing progresses only inside the
/// slice, and in one period every actor of the reference's component
/// fires `k·γ(a)` times. So `k·W_l ≤ P·ω_l/w_l`, and the iteration
/// throughput `k/P` is at most `ω_l/(w_l·W_l)`. Other components are left
/// out: their load does not limit the reference.
///
/// # Examples
///
/// ```
/// use sdfrs_appmodel::apps::{example_platform, paper_example};
/// use sdfrs_core::slice::ProcessingBound;
/// use sdfrs_core::{Binding, BindingAwareGraph};
/// use sdfrs_platform::TileId;
/// use sdfrs_sdf::Rational;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch) = (paper_example(), example_platform());
/// let g = app.graph();
/// let mut binding = Binding::new(g.actor_count());
/// binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
/// binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
/// binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
/// let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5])?;
/// let bound = ProcessingBound::new(&ba, ba.ba_actor(app.output_actor()))?;
/// // t1 runs a1 twice and a2 twice per iteration (W = 4), half the time.
/// assert_eq!(bound.at(&ba), Some(Rational::new(1, 8)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProcessingBound {
    /// `W_l` per local tile; `None` where the sum overflows, and that
    /// tile then bounds nothing.
    work: Vec<Option<u128>>,
}

impl ProcessingBound {
    /// The bound on `reference`'s component (a binding-aware actor), with
    /// γ the graph's repetition vector: the one the constrained executor
    /// divides by.
    ///
    /// # Errors
    ///
    /// [`SdfError::Inconsistent`] if the graph has no repetition vector.
    pub fn new(ba: &BindingAwareGraph, reference: ActorId) -> Result<Self, SdfError> {
        let g = ba.graph();
        let gamma = g.repetition_vector()?;
        let (component, _) = g.weak_components();
        let mut work = vec![Some(0u128); ba.tiles().len()];
        for a in g.actor_ids() {
            if component[a.index()] != component[reference.index()] {
                continue;
            }
            if let Some(l) = ba.local_tile_of(a) {
                let firing = u128::from(gamma[a]) * u128::from(g.actor(a).execution_time());
                work[l] = work[l].and_then(|w| w.checked_add(firing));
            }
        }
        Ok(ProcessingBound { work })
    }

    /// `(ω_l, w_l·W_l)` of the tile with the smallest bound under `ba`'s
    /// current slices; `None` if no tile carries work. A comparison that
    /// overflows keeps the tile found so far, whose bound still holds.
    fn tightest(&self, ba: &BindingAwareGraph) -> Option<(u128, u128)> {
        let mut best: Option<(u128, u128)> = None;
        for (l, work) in self.work.iter().enumerate() {
            let Some(work) = work.filter(|&w| w > 0) else {
                continue;
            };
            let tdma = ba.local_tdma(l);
            let Some(den) = u128::from(tdma.wheel)
                .checked_mul(work)
                .filter(|&d| d <= i128::MAX as u128)
            else {
                continue;
            };
            let ratio = (u128::from(tdma.slice), den);
            if best.is_none_or(|b| less(ratio, b) == Some(true)) {
                best = Some(ratio);
            }
        }
        best
    }

    /// The bound under `ba`'s current slices; `None` if no tile of the
    /// reference's component carries work.
    pub fn at(&self, ba: &BindingAwareGraph) -> Option<Rational> {
        self.tightest(ba)
            .map(|(num, den)| Rational::new(num as i128, den as i128))
    }

    /// The bound under `ba`'s current slices if it proves them
    /// infeasible, i.e. lies below `lambda`. Compared by exact
    /// cross-multiplication: `None` when a product overflows, and the
    /// probe explores.
    fn refutes(&self, ba: &BindingAwareGraph, lambda: Rational) -> Option<Rational> {
        let bound = self.tightest(ba)?;
        let lambda = (
            u128::try_from(lambda.numer()).ok()?,
            u128::try_from(lambda.denom()).ok()?,
        );
        less(bound, lambda)?.then(|| Rational::new(bound.0 as i128, bound.1 as i128))
    }
}

/// `a.0 / a.1 < b.0 / b.1` for positive denominators; `None` when a
/// product overflows.
fn less(a: (u128, u128), b: (u128, u128)) -> Option<bool> {
    Some(a.0.checked_mul(b.1)? < b.0.checked_mul(a.1)?)
}

/// What one throughput check of the slice search answered.
#[derive(Debug, Clone)]
enum Answer {
    /// The throughput the exploration measured, and whether the cache
    /// recalled it.
    Measured(ThroughputResult, bool),
    /// The processing bound, below λ: the slices are infeasible.
    Bounded(Rational),
}

impl Answer {
    /// The measured iteration throughput, or the bound.
    fn throughput(&self) -> Rational {
        match self {
            Answer::Measured(r, _) => r.iteration_throughput,
            Answer::Bounded(bound) => *bound,
        }
    }

    /// The measured result, if it meets `lambda`.
    fn meeting(self, lambda: Rational) -> Option<ThroughputResult> {
        match self {
            Answer::Measured(r, _) if r.iteration_throughput >= lambda => Some(r),
            _ => None,
        }
    }

    /// The probe event reporting this answer.
    fn event(&self, scope: SliceScope, slices: ProbeSlices, lambda: Rational) -> FlowEvent {
        let throughput = self.throughput();
        FlowEvent::SliceProbe {
            scope,
            slices,
            throughput,
            feasible: throughput >= lambda,
            cache_hit: matches!(self, Answer::Measured(_, true)),
            bound: matches!(self, Answer::Bounded(_)),
        }
    }
}

/// Answers one throughput check under `slices` (one per local tile of
/// `ba`), at the output actor: from `bound` when it proves the slices
/// infeasible, otherwise through `cache`, consulting `shared` first when
/// a refinement task probes through its pass-start cache.
///
/// Counted as a throughput check whoever answers: the paper's metric is
/// how often the search *consults* the analysis.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    slices: &[u64],
    budget: usize,
    bound: Option<&ProcessingBound>,
    checks: &mut usize,
    cache: &mut ThroughputCache,
    shared: Option<&ThroughputCache>,
) -> Result<Answer, MapError> {
    *checks += 1;
    ba.set_local_slices(slices);
    if let Some(bound) = bound.and_then(|b| b.refutes(ba, app.throughput_constraint())) {
        cache.count_bound_answer();
        return Ok(Answer::Bounded(bound));
    }
    let reference = ba.ba_actor(app.output_actor());
    let hits_before = cache.hits();
    let thr = cache
        .throughput_via(shared, ba, schedules, reference, budget)
        .map_err(MapError::from)?;
    Ok(Answer::Measured(thr, cache.hits() > hits_before))
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
type RefineProbe = (u64, Vec<u64>, Answer);

/// [`allocate_slices_cached`] reporting every throughput check of both
/// binary searches as a [`SliceProbe`](FlowEvent::SliceProbe): the
/// tested slice vector, the measured throughput (or the processing bound
/// that answered), feasibility, and whether the cache answered.
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
    // W_l once per search: execution times of tile-bound actors do not
    // depend on the slices.
    let bound = ProcessingBound::new(ba, ba.ba_actor(app.output_actor()))?;
    let full = slice_for(big_k, big_k);
    let answer = evaluate(
        ba,
        schedules,
        app,
        &full,
        config.state_budget,
        Some(&bound),
        &mut checks,
        cache,
        None,
    )?;
    global_iterations += 1;
    obs.emit(|| {
        answer.event(
            SliceScope::Global {
                k: big_k,
                of: big_k,
            },
            probe_slices(&full),
            lambda,
        )
    });
    let Some(thr_full) = answer.meeting(lambda) else {
        return Err(MapError::ConstraintUnsatisfiable);
    };

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
        let answer = evaluate(
            ba,
            schedules,
            app,
            &candidate,
            config.state_budget,
            Some(&bound),
            &mut checks,
            cache,
            None,
        )?;
        global_iterations += 1;
        obs.emit(|| {
            answer.event(
                SliceScope::Global { k: mid, of: big_k },
                probe_slices(&candidate),
                lambda,
            )
        });
        if let Some(thr) = answer.meeting(lambda) {
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
                        let answer = evaluate(
                            &mut local_ba,
                            schedules,
                            app,
                            &candidate,
                            config.state_budget,
                            Some(&bound),
                            &mut local_checks,
                            &mut local_cache,
                            Some(shared),
                        )?;
                        let feasible = answer.throughput() >= lambda;
                        if record {
                            probes.push((mid, candidate, answer));
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
                for (tried, tried_slices, answer) in probes {
                    obs.emit(|| {
                        answer.event(
                            SliceScope::Refine {
                                pass,
                                tile,
                                slice: tried,
                            },
                            probe_slices(&tried_slices),
                            lambda,
                        )
                    });
                }
                if proposed >= slices[l] {
                    continue;
                }
                let mut candidate = slices.clone();
                candidate[l] = proposed;
                let answer = evaluate(
                    ba,
                    schedules,
                    app,
                    &candidate,
                    config.state_budget,
                    Some(&bound),
                    &mut checks,
                    cache,
                    None,
                )?;
                refine_iterations += 1;
                obs.emit(|| {
                    answer.event(
                        SliceScope::Commit {
                            pass,
                            tile,
                            slice: proposed,
                        },
                        probe_slices(&candidate),
                        lambda,
                    )
                });
                if answer.throughput() >= lambda {
                    slices = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Re-evaluate at the final allocation so `achieved` matches it,
        // always by exploring: no bound answer becomes a result.
        let answer = evaluate(
            ba,
            schedules,
            app,
            &slices,
            config.state_budget,
            None,
            &mut checks,
            cache,
            None,
        )?;
        refine_iterations += 1;
        obs.emit(|| answer.event(SliceScope::Final, probe_slices(&slices), lambda));
        // Defensive: refinement never commits an infeasible slice, but
        // re-check because `best_thr` may come from a larger slice.
        best_thr = answer
            .meeting(lambda)
            .ok_or(MapError::ConstraintUnsatisfiable)?;
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
