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
//! Every probe first asks the exact [`ProcessingBound`], then the
//! [`ThroughputCache`]'s memo. Under the fixed static orders of one
//! search the throughput is non-decreasing in every slice (DESIGN.md §9),
//! so a measured feasible vector answers every vector that dominates it,
//! and an infeasible one every vector it dominates. Beyond these answers
//! the search speculates and explores only the probes that confirm:
//!
//! * the full-wheel probe is answered by the first global probe found
//!   feasible, and explored only if the search ends on it or an explored
//!   global probe fails first;
//! * every other global probe is explored: the stop decision needs the
//!   measured throughput;
//! * a refinement sub-search takes what nothing answers as feasible and
//!   explores only its proposal, which every such probe dominates; if the
//!   proposal fails, the sub-search reruns, exploring;
//! * commit candidates nothing answers are taken as feasible and
//!   confirmed by the final probe, which always explores and which every
//!   accepted candidate dominates; if it fails, the refinement reruns
//!   with every commit answered exactly.
//!
//! Every answer, speculation included once confirmed, is the
//! exploration's feasibility, so both searches take the exact search's
//! steps, and the search reports the exact search's checks.
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
use crate::thru_cache::{Answered, ThroughputCache};

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

/// What answered one throughput check of the slice search.
#[derive(Debug, Clone)]
enum Answer {
    /// The throughput an exploration measured, and whether the memo
    /// recalled it.
    Measured(ThroughputResult, bool),
    /// The processing bound, below λ: the slices are infeasible.
    Bounded(Rational),
    /// Monotonicity: the measured throughput of an explored slice vector
    /// that decides this one (see [`Explored`]).
    Monotone(Rational),
}

impl Answer {
    /// The measured, bounding or deciding throughput.
    fn throughput(&self) -> Rational {
        match self {
            Answer::Measured(r, _) => r.iteration_throughput,
            Answer::Bounded(thr) | Answer::Monotone(thr) => *thr,
        }
    }

    /// `thr ≥ λ`: a bound answer is below λ, and a monotone answer has
    /// its witness's feasibility.
    fn feasible(&self, lambda: Rational) -> bool {
        self.throughput() >= lambda
    }

    /// The measured result, if an exploration or the memo gave one.
    fn measured(&self) -> Option<&ThroughputResult> {
        match self {
            Answer::Measured(r, _) => Some(r),
            _ => None,
        }
    }

    /// How the cache counts this answer.
    fn answered(&self) -> Answered {
        match self {
            Answer::Measured(_, true) => Answered::Hit,
            Answer::Measured(_, false) => Answered::Miss,
            Answer::Bounded(_) => Answered::Bound,
            Answer::Monotone(_) => Answered::Monotone,
        }
    }

    /// The probe event reporting this answer.
    fn event(&self, scope: SliceScope, slices: ProbeSlices, lambda: Rational) -> FlowEvent {
        FlowEvent::SliceProbe {
            scope,
            slices,
            throughput: self.throughput(),
            feasible: self.feasible(lambda),
            cache_hit: matches!(self, Answer::Measured(_, true)),
            bound: matches!(self, Answer::Bounded(_)),
            monotone: matches!(self, Answer::Monotone(_)),
        }
    }
}

/// One throughput check, in the exact search's order. A `None` answer is
/// a speculation: taken as feasible until an exploration confirms it.
#[derive(Debug, Clone)]
struct Check {
    scope: SliceScope,
    /// The tested slice per local tile.
    slices: Vec<u64>,
    answer: Option<Answer>,
}

impl Check {
    /// Feasible, or taken as feasible.
    fn feasible(&self, lambda: Rational) -> bool {
        self.answer.as_ref().is_none_or(|a| a.feasible(lambda))
    }
}

/// Confirms every speculation among `checks` with `witness`, the measured
/// throughput of a feasible vector each speculated vector dominates.
fn confirm(checks: &mut [Check], witness: Rational) {
    for check in checks {
        check.answer.get_or_insert(Answer::Monotone(witness));
    }
}

/// Explorations among `checks`: they answer no reported check once the
/// checks are discarded.
fn explorations(checks: &[Check]) -> usize {
    checks
        .iter()
        .filter(|c| matches!(c.answer, Some(Answer::Measured(_, false))))
        .count()
}

/// The slice vectors one search measured, by feasibility, with their
/// throughput. Under the fixed static orders of one search the
/// throughput is non-decreasing in every slice (DESIGN.md §9), so a
/// feasible vector proves every vector that dominates it feasible, and
/// an infeasible one proves every vector it dominates infeasible.
#[derive(Debug, Clone, Default)]
struct Explored {
    feasible: Vec<(Vec<u64>, Rational)>,
    infeasible: Vec<(Vec<u64>, Rational)>,
}

impl Explored {
    /// The throughput of a measured vector that decides `slices`, if any.
    fn witness(&self, slices: &[u64]) -> Option<Rational> {
        let dominates = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x >= y);
        self.feasible
            .iter()
            .find(|(u, _)| dominates(slices, u))
            .or_else(|| self.infeasible.iter().find(|(u, _)| dominates(u, slices)))
            .map(|&(_, thr)| thr)
    }

    /// Records a measured answer that no vector known so far implies.
    fn learn(&mut self, slices: &[u64], answer: &Answer, lambda: Rational) {
        let Some(r) = answer.measured() else {
            return;
        };
        if self.witness(slices).is_some() {
            return;
        }
        let thr = r.iteration_throughput;
        let side = if thr >= lambda {
            &mut self.feasible
        } else {
            &mut self.infeasible
        };
        side.push((slices.to_vec(), thr));
    }

    fn absorb(&mut self, other: Explored) {
        self.feasible.extend(other.feasible);
        self.infeasible.extend(other.infeasible);
    }
}

/// What every probe of one slice search reads.
struct Probes<'a> {
    schedules: &'a TileSchedules,
    /// The binding-aware output actor, where throughput is measured.
    reference: ActorId,
    bound: ProcessingBound,
    lambda: Rational,
    budget: usize,
}

impl Probes<'_> {
    /// The answer that needs no exploration: the processing bound, the
    /// memo (`shared` first, for a refinement task), or monotonicity over
    /// `facts`.
    fn known(
        &self,
        ba: &mut BindingAwareGraph,
        slices: &[u64],
        cache: &mut ThroughputCache,
        shared: Option<&ThroughputCache>,
        facts: &[&Explored],
    ) -> Result<Option<Answer>, MapError> {
        ba.set_local_slices(slices);
        if let Some(bound) = self.bound.refutes(ba, self.lambda) {
            return Ok(Some(Answer::Bounded(bound)));
        }
        if let Some(result) = cache.recall(shared, ba, self.schedules, self.reference, self.budget)
        {
            return Ok(Some(Answer::Measured(result?, true)));
        }
        Ok(facts
            .iter()
            .find_map(|f| f.witness(slices))
            .map(Answer::Monotone))
    }

    /// Measures `slices` through the memo, exploring unless it recalls
    /// them.
    fn explore(
        &self,
        ba: &mut BindingAwareGraph,
        slices: &[u64],
        cache: &mut ThroughputCache,
        shared: Option<&ThroughputCache>,
    ) -> Result<Answer, MapError> {
        ba.set_local_slices(slices);
        let (result, hit) = cache.measure(shared, ba, self.schedules, self.reference, self.budget);
        Ok(Answer::Measured(result?, hit))
    }
}

/// The checks one search reports and the work they leave behind.
#[derive(Debug, Default)]
struct Report {
    /// Final checks: no speculation among them can still fail.
    checks: Vec<Check>,
    /// Checks per refinement sub-search, for `refine_search_iters`.
    sub_searches: Vec<usize>,
    /// Explorations no reported check carries.
    discarded: usize,
}

impl Report {
    /// Emits every check as a probe event and counts how it was answered
    /// (the cache is the one writer of the check counters). Returns the
    /// global and the refinement iterations.
    fn flush(
        self,
        cache: &mut ThroughputCache,
        obs: &mut FlowObserver<'_>,
        probe_slices: impl Fn(&[u64]) -> ProbeSlices,
        lambda: Rational,
    ) -> (usize, usize) {
        let mut global = 0;
        for check in &self.checks {
            let answer = check
                .answer
                .as_ref()
                .expect("a speculation is confirmed before it is reported");
            obs.emit(|| answer.event(check.scope, probe_slices(&check.slices), lambda));
            cache.count_check(answer.answered());
            global += usize::from(matches!(check.scope, SliceScope::Global { .. }));
        }
        if let Some(m) = obs.registry() {
            for &n in &self.sub_searches {
                m.refine_search_iters.observe(n as u64);
            }
        }
        cache.count_discarded(self.discarded);
        (global, self.checks.len() - global)
    }
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

/// [`allocate_slices_cached`] reporting every throughput check of both
/// binary searches as a [`SliceProbe`](FlowEvent::SliceProbe): the
/// tested slice vector, the measured throughput (or the processing bound
/// or the explored vector that answered), feasibility, and whether the
/// cache answered.
///
/// The checks and their order are the exact search's, whatever was
/// speculated: the probes of the (possibly parallel) refinement tasks are
/// reported in tile order once the pass joins, and every check once no
/// speculation among them can still fail, so the event stream is
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
    let mut report = Report::default();
    let result = search(
        ba,
        schedules,
        app,
        arch,
        state,
        binding,
        config,
        cache,
        &mut report,
    );
    let (global_iterations, refine_iterations) =
        report.flush(cache, obs, probe_slices, app.throughput_constraint());
    let (slices, achieved) = result?;
    Ok(SliceAllocation {
        slices: ba.to_global(&slices, tile_count),
        achieved,
        throughput_checks: global_iterations + refine_iterations,
        global_iterations,
        refine_iterations,
    })
}

/// Both binary searches. Pushes every check they report into `report`
/// once no speculation among them can fail, and returns the slice per
/// local tile with the throughput measured there.
#[allow(clippy::too_many_arguments)]
fn search(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    config: &SliceConfig,
    cache: &mut ThroughputCache,
    report: &mut Report,
) -> Result<(Vec<u64>, ThroughputResult), MapError> {
    let lambda = app.throughput_constraint();
    let tiles = ba.tiles().to_vec();
    let remaining: Vec<u64> = tiles
        .iter()
        .map(|&t| state.available_wheel(arch, t))
        .collect();
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
    let reference = ba.ba_actor(app.output_actor());
    let probes = Probes {
        schedules,
        reference,
        bound: ProcessingBound::new(ba, reference)?,
        lambda,
        budget: config.state_budget,
    };
    let mut explored = Explored::default();

    // --- Global binary search over the common fraction k / K.
    let ceiling = lambda * (Rational::ONE + config.tolerance);
    let (mut slices, mut achieved) = global_search(
        &probes,
        ba,
        cache,
        &mut explored,
        report,
        &remaining,
        ceiling,
    )?;

    // --- Per-tile refinement.
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
        let lower_of =
            |l: usize, upper: u64| (((loads[l] / max_load) * upper as f64).floor() as u64).max(1);
        let mut speculate = true;
        loop {
            let mut run = refine(
                &probes,
                ba,
                cache,
                &mut explored,
                &slices,
                speculate,
                config,
                &lower_of,
            )?;
            report.discarded += run.discarded;
            // Re-evaluate at the final allocation so `achieved` matches
            // it, always by exploring: no bound or monotone answer
            // becomes a result.
            let answer = probes.explore(ba, &run.slices, cache, None)?;
            explored.learn(&run.slices, &answer, lambda);
            let feasible = answer.feasible(lambda);
            if !feasible && run.speculated {
                // A commit taken as feasible was not: redo the refinement
                // with every commit answered exactly.
                report.discarded += explorations(&run.checks)
                    + usize::from(matches!(answer, Answer::Measured(_, false)));
                speculate = false;
                continue;
            }
            // Every accepted commit candidate dominates the final vector.
            confirm(&mut run.checks, answer.throughput());
            report.sub_searches.extend(run.sub_searches);
            report.checks.extend(run.checks);
            let measured = answer.measured().filter(|_| feasible).cloned();
            report.checks.push(Check {
                scope: SliceScope::Final,
                slices: run.slices.clone(),
                answer: Some(answer),
            });
            // Defensive: the exact refinement never commits an infeasible
            // slice vector.
            achieved = measured.ok_or(MapError::ConstraintUnsatisfiable)?;
            slices = run.slices;
            break;
        }
    }
    ba.set_local_slices(&slices);
    Ok((slices, achieved))
}

/// The global binary search over equal fractions `k / K` of each tile's
/// `remaining` wheel, stopping once λ ≤ thr ≤ `ceiling`. Returns the
/// vector it ends on and the throughput measured there.
///
/// The full-wheel probe (k = K) comes first in the reported order, but
/// only the bound or the memo answer it at once. Otherwise the first
/// probe found feasible answers it by monotonicity, and it is explored
/// only if the search ends on it, or as soon as an explored probe fails:
/// an unsatisfiable constraint then costs one exploration more than
/// exploring the full wheel first. Every other probe the bound or the
/// memo does not answer is explored, because its stop decision needs the
/// measured throughput.
fn global_search(
    probes: &Probes<'_>,
    ba: &mut BindingAwareGraph,
    cache: &mut ThroughputCache,
    explored: &mut Explored,
    report: &mut Report,
    remaining: &[u64],
    ceiling: Rational,
) -> Result<(Vec<u64>, ThroughputResult), MapError> {
    let lambda = probes.lambda;
    let big_k = remaining.iter().copied().max().unwrap_or(0);
    let slice_for = |k: u64| -> Vec<u64> {
        // Equal fractions of each tile's remaining wheel, at least 1 unit.
        remaining.iter().map(|&r| (r * k / big_k).max(1)).collect()
    };
    let full = slice_for(big_k);
    let full_check = |answer: Answer| Check {
        scope: SliceScope::Global {
            k: big_k,
            of: big_k,
        },
        slices: full.clone(),
        answer: Some(answer),
    };
    // The full wheel fails: report it alone, as the exact search does,
    // and discard the explorations of `checks`.
    let unsatisfiable = |report: &mut Report, checks: &[Check], answer: Answer| {
        report.discarded += explorations(checks);
        report.checks.push(full_check(answer));
        Err(MapError::ConstraintUnsatisfiable)
    };

    let mut full_answer = probes.known(ba, &full, cache, None, &[])?;
    if let Some(answer) = full_answer.clone() {
        explored.learn(&full, &answer, lambda);
        if !answer.feasible(lambda) {
            return unsatisfiable(report, &[], answer);
        }
    }
    let mut best = full.clone();
    let mut best_thr = full_answer.as_ref().and_then(Answer::measured).cloned();
    let mut checks = Vec::new();
    let (mut lo, mut hi) = (1u64, big_k);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = slice_for(mid);
        if candidate == best && hi == mid {
            break;
        }
        let answer = match probes.known(ba, &candidate, cache, None, &[])? {
            Some(answer) => answer,
            None => probes.explore(ba, &candidate, cache, None)?,
        };
        explored.learn(&candidate, &answer, lambda);
        let feasible = match &answer {
            Answer::Measured(r, _) if r.iteration_throughput >= lambda => Some(r.clone()),
            _ => None,
        };
        let explored_infeasible =
            matches!(answer, Answer::Measured(_, false)) && feasible.is_none();
        let witness = answer.throughput();
        checks.push(Check {
            scope: SliceScope::Global { k: mid, of: big_k },
            slices: candidate.clone(),
            answer: Some(answer),
        });
        if full_answer.is_none() {
            if feasible.is_some() {
                full_answer = Some(Answer::Monotone(witness));
            } else if explored_infeasible {
                let full_measured = probes.explore(ba, &full, cache, None)?;
                explored.learn(&full, &full_measured, lambda);
                if !full_measured.feasible(lambda) {
                    return unsatisfiable(report, &checks, full_measured);
                }
                best_thr = full_measured.measured().cloned();
                full_answer = Some(full_measured);
            }
        }
        match feasible {
            Some(thr) => {
                let within_tolerance = thr.iteration_throughput <= ceiling;
                hi = mid;
                best = candidate;
                best_thr = Some(thr);
                if within_tolerance {
                    break;
                }
            }
            None => lo = mid + 1,
        }
    }
    // The search ended on the full wheel before anything answered it.
    let full_answer = match full_answer {
        Some(answer) => answer,
        None => {
            let answer = probes.explore(ba, &full, cache, None)?;
            explored.learn(&full, &answer, lambda);
            best_thr = answer.measured().cloned();
            answer
        }
    };
    if !full_answer.feasible(lambda) {
        return unsatisfiable(report, &checks, full_answer);
    }
    report.checks.push(full_check(full_answer));
    report.checks.extend(checks);
    let best_thr = best_thr.ok_or(MapError::ConstraintUnsatisfiable)?;
    Ok((best, best_thr))
}

/// One run of the refinement passes (see [`search`]).
#[derive(Debug, Default)]
struct RefineRun {
    slices: Vec<u64>,
    checks: Vec<Check>,
    sub_searches: Vec<usize>,
    /// Explorations of failed sub-search proposals.
    discarded: usize,
    /// Whether a commit candidate was taken as feasible.
    speculated: bool,
}

/// Runs the refinement passes from `start`.
///
/// Each pass computes one shrink proposal per tile: the smallest feasible
/// slice for that tile with every other tile frozen at the pass-start
/// allocation ([`SubSearch`]). The proposals are independent, so
/// `config.parallel` fans them out across threads; they are collected in
/// tile order either way. Proposals are then applied sequentially (tile
/// order), each commit checked against the *cumulative* candidate:
/// shrinking two tiles at once can violate λ even when each shrink alone
/// is feasible. With `speculate`, a commit candidate nothing answers is
/// taken as feasible; the caller's final probe confirms it.
#[allow(clippy::too_many_arguments)]
fn refine(
    probes: &Probes<'_>,
    ba: &mut BindingAwareGraph,
    cache: &mut ThroughputCache,
    explored: &mut Explored,
    start: &[u64],
    speculate: bool,
    config: &SliceConfig,
    lower_of: &(dyn Fn(usize, u64) -> u64 + Sync),
) -> Result<RefineRun, MapError> {
    let lambda = probes.lambda;
    let tiles = ba.tiles().to_vec();
    let tile_indices: Vec<usize> = (0..tiles.len()).collect();
    let mut run = RefineRun {
        slices: start.to_vec(),
        ..RefineRun::default()
    };
    for pass in 0..config.max_refine_passes {
        let pass_start = run.slices.clone();
        let snapshot: &BindingAwareGraph = ba;
        let shared: &ThroughputCache = cache;
        let seen: &Explored = explored;
        let proposals = sdfrs_fastutil::par::maybe_par_map(
            config.parallel,
            &tile_indices,
            |&l| -> Result<SubSearch, MapError> {
                let upper = pass_start[l];
                let lower = lower_of(l, upper);
                let mut sub = SubSearch::new(shared.task_cache(), upper);
                if lower < upper {
                    let tile = tiles[l].index();
                    let scope = |slice| SliceScope::Refine { pass, tile, slice };
                    let mut local_ba = snapshot.clone();
                    sub.run(
                        probes,
                        &mut local_ba,
                        shared,
                        seen,
                        &pass_start,
                        l,
                        lower,
                        scope,
                    )?;
                }
                Ok(sub)
            },
        );
        let mut changed = false;
        for (l, proposal) in proposals.into_iter().enumerate() {
            let sub = proposal?;
            cache.absorb(sub.cache);
            explored.absorb(sub.explored);
            run.sub_searches.push(sub.checks.len());
            run.discarded += sub.discarded;
            run.checks.extend(sub.checks);
            let proposed = sub.proposal;
            if proposed >= run.slices[l] {
                continue;
            }
            let mut candidate = run.slices.clone();
            candidate[l] = proposed;
            let answer = match probes.known(ba, &candidate, cache, None, &[explored])? {
                Some(answer) => Some(answer),
                None if speculate => {
                    run.speculated = true;
                    None
                }
                None => Some(probes.explore(ba, &candidate, cache, None)?),
            };
            if let Some(answer) = &answer {
                explored.learn(&candidate, answer, lambda);
            }
            let check = Check {
                scope: SliceScope::Commit {
                    pass,
                    tile: tiles[l].index(),
                    slice: proposed,
                },
                slices: candidate,
                answer,
            };
            if check.feasible(lambda) {
                run.slices.clone_from(&check.slices);
                changed = true;
            }
            run.checks.push(check);
        }
        if !changed {
            break;
        }
    }
    Ok(run)
}

/// One refinement sub-search: the smallest feasible slice of one tile
/// with every other tile frozen at the pass start, probed through a task
/// cache over the pass-start memo.
#[derive(Debug)]
struct SubSearch {
    cache: ThroughputCache,
    explored: Explored,
    checks: Vec<Check>,
    proposal: u64,
    /// Explorations of a failed proposal.
    discarded: usize,
}

impl SubSearch {
    fn new(cache: ThroughputCache, upper: u64) -> Self {
        SubSearch {
            cache,
            explored: Explored::default(),
            checks: Vec::new(),
            proposal: upper,
            discarded: 0,
        }
    }

    /// Binary-searches local tile `l`'s slice in `[lower, pass_start[l]]`.
    ///
    /// It first takes every probe nothing answers as feasible and
    /// explores only its proposal, the last probe taken as feasible,
    /// which every other speculated probe dominates. A feasible proposal
    /// confirms them all. An infeasible one answers every probe at or
    /// below it, and the search reruns, exploring what nothing answers.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        probes: &Probes<'_>,
        ba: &mut BindingAwareGraph,
        shared: &ThroughputCache,
        seen: &Explored,
        pass_start: &[u64],
        l: usize,
        lower: u64,
        scope: impl Fn(u64) -> SliceScope,
    ) -> Result<(), MapError> {
        let lambda = probes.lambda;
        for speculate in [true, false] {
            self.checks.clear();
            let (mut lo, mut hi) = (lower, pass_start[l]);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = pass_start.to_vec();
                candidate[l] = mid;
                let facts = [seen, &self.explored];
                let answer =
                    match probes.known(ba, &candidate, &mut self.cache, Some(shared), &facts)? {
                        Some(answer) => Some(answer),
                        None if speculate => None,
                        None => {
                            Some(probes.explore(ba, &candidate, &mut self.cache, Some(shared))?)
                        }
                    };
                if let Some(answer) = &answer {
                    self.explored.learn(&candidate, answer, lambda);
                }
                let check = Check {
                    scope: scope(mid),
                    slices: candidate,
                    answer,
                };
                if check.feasible(lambda) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
                self.checks.push(check);
            }
            self.proposal = hi;
            if self.checks.iter().all(|c| c.answer.is_some()) {
                return Ok(());
            }
            let Some(last) = self.checks.iter().rposition(|c| c.feasible(lambda)) else {
                return Ok(());
            };
            if self.checks[last].answer.is_none() {
                let slices = &self.checks[last].slices;
                let answer = probes.explore(ba, slices, &mut self.cache, Some(shared))?;
                self.explored.learn(slices, &answer, lambda);
                if !answer.feasible(lambda) {
                    self.discarded += usize::from(matches!(answer, Answer::Measured(_, false)));
                    continue;
                }
                self.checks[last].answer = Some(answer);
            }
            let witness = self.checks[last].answer.as_ref().map(Answer::throughput);
            if let Some(witness) = witness {
                confirm(&mut self.checks, witness);
            }
            return Ok(());
        }
        Ok(())
    }
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

    /// λ = 1/20 lies below the processing bound at the full wheels (1/4)
    /// and above their throughput (1/24). The exact search explores the
    /// full wheels alone; this one explores the k = 5 probe first, finds
    /// it infeasible, explores the full wheels at once, and reports only
    /// them.
    #[test]
    fn an_unsatisfiable_constraint_costs_one_exploration_more() {
        use crate::events::{FlowObserver, RecordingSink};
        let (app, arch, binding, mut ba, schedules, state) = setup(Rational::new(1, 20));
        let mut cache = ThroughputCache::new();
        let mut sink = RecordingSink::new();
        let err = allocate_slices_observed(
            &mut ba,
            &schedules,
            &app,
            &arch,
            &state,
            &binding,
            &SliceConfig::default(),
            &mut cache,
            &mut FlowObserver::new(&mut sink),
        )
        .unwrap_err();
        assert_eq!(err, MapError::ConstraintUnsatisfiable);
        assert_eq!(sink.kinds(), ["slice_probe"]);
        assert_eq!((cache.misses(), cache.discarded_explorations()), (1, 1));
    }

    /// Every exploration answers a reported check or is counted as
    /// discarded, and every reported check is counted once.
    #[test]
    fn explorations_are_reported_checks_or_discarded() {
        use crate::metrics::{Metrics, SpanKind};
        for num_den in [(1i128, 30i128), (1, 35), (1, 50), (1, 80), (1, 120)] {
            let lambda = Rational::new(num_den.0, num_den.1);
            let (app, arch, binding, mut ba, schedules, state) = setup(lambda);
            let metrics = Metrics::collecting();
            let mut cache = ThroughputCache::new();
            cache.set_metrics(metrics.clone());
            let alloc = allocate_slices_cached(
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
            let registry = metrics.registry().unwrap();
            let probes = registry.profiler.calls(SpanKind::Probe);
            assert_eq!(
                probes,
                (cache.misses() + cache.discarded_explorations()) as u64,
                "λ = {lambda}"
            );
            assert_eq!(
                alloc.throughput_checks,
                cache.hits() + cache.misses() + cache.bound_answers() + cache.monotone_answers(),
                "λ = {lambda}"
            );
        }
    }

    /// A repeated search is answered from the memo and monotonicity
    /// alone, with the same checks, and explores nothing.
    #[test]
    fn a_repeated_search_explores_nothing() {
        let (app, arch, binding, mut ba, schedules, state) = setup(Rational::new(1, 50));
        let mut cache = ThroughputCache::new();
        let run = |ba: &mut BindingAwareGraph, cache: &mut ThroughputCache| {
            allocate_slices_cached(
                ba,
                &schedules,
                &app,
                &arch,
                &state,
                &binding,
                &SliceConfig::default(),
                cache,
            )
            .unwrap()
        };
        let first = run(&mut ba, &mut cache);
        let explored = cache.misses() + cache.discarded_explorations();
        let second = run(&mut ba, &mut cache);
        assert_eq!(first.slices, second.slices);
        assert_eq!(first.achieved, second.achieved);
        assert_eq!(first.throughput_checks, second.throughput_checks);
        assert_eq!(cache.misses() + cache.discarded_explorations(), explored);
    }

    /// One actor with a self-edge, τ = 5 on `t1`, λ = 1/5: only the full
    /// wheel meets λ, the bound refutes every smaller global probe, so the
    /// search ends on the full-wheel probe without answering it and must
    /// explore it there.
    #[test]
    fn a_search_that_ends_on_the_full_wheel_explores_it() {
        use sdfrs_appmodel::{ActorRequirements, ChannelRequirements};
        use sdfrs_platform::ProcessorType;
        use sdfrs_sdf::SdfGraph;
        let mut g = SdfGraph::new("lone");
        let x = g.add_actor("x", 0);
        let xx = g.add_channel("xx", x, 1, x, 1, 1);
        let app = ApplicationGraph::builder(g, Rational::new(1, 5))
            .actor(
                x,
                ActorRequirements::new().on(ProcessorType::new("p1"), 5, 1),
            )
            .channel(xx, ChannelRequirements::new(1, 1, 0, 0, 0))
            .output_actor(x)
            .build()
            .unwrap();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut binding = Binding::new(1);
        binding.bind(x, TileId::from_index(0));
        let mut ba = BindingAwareGraph::build(&app, &arch, &binding, &[10, 10]).unwrap();
        let schedules = construct_schedules(&ba).unwrap();
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
        assert_eq!(alloc.slices, vec![10, 0]);
        assert_eq!(alloc.achieved.iteration_throughput, Rational::new(1, 5));
        assert!(alloc.global_iterations > 1, "smaller probes were refuted");
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
