//! The complete three-step resource-allocation strategy (Section 9).
//!
//! 1. [`bind::bind_actors`](crate::bind::bind_actors()) — resource binding;
//! 2. [`construct_schedules`](crate::list_sched::construct_schedules) —
//!    static-order schedules via a list-scheduled execution assuming 50%
//!    of each tile's remaining wheel;
//! 3. `slice::allocate_slices` — TDMA slice
//!    allocation by binary search.
//!
//! The public entry point is [`Allocator`](crate::Allocator), which owns
//! the [`FlowConfig`], the evaluation cache, and an event sink.

use std::time::{Duration, Instant};

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, ClaimSet, PlatformState, TileId, TileMap, TileUsage};
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::Rational;

use crate::bind::{bind_actors_observed, BindConfig};
use crate::binding::Binding;
use crate::binding_aware::{BindingAwareGraph, ConnectionModel};
use crate::constrained::TileSchedules;
use crate::cost::CostWeights;
use crate::error::MapError;
use crate::events::{FlowEvent, FlowObserver, FlowPhase};
use crate::list_sched::ListScheduler;
use crate::resources::tile_demand;
use crate::slice::{allocate_slices_observed, SliceConfig};
use crate::thru_cache::ThroughputCache;

/// Configuration of the full flow.
///
/// Marked `#[non_exhaustive]`: build one with [`FlowConfig::default`],
/// [`FlowConfig::with_weights`] or the validating [`FlowConfig::builder`]
/// and adjust fields from there.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Binding-step configuration (Eqn 2 weights etc.).
    pub bind: BindConfig,
    /// Slice-allocation configuration.
    pub slice: SliceConfig,
    /// State budget for the schedule-construction execution.
    pub schedule_state_budget: usize,
    /// How cross-tile channels are modeled (Sec 8.1's simple connection
    /// actor, or the pipelined NoC refinement).
    pub connection_model: ConnectionModel,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            bind: BindConfig::default(),
            slice: SliceConfig::default(),
            schedule_state_budget: crate::constrained::DEFAULT_STATE_BUDGET,
            connection_model: ConnectionModel::Simple,
        }
    }
}

impl FlowConfig {
    /// A configuration using the given Eqn 2 weights.
    pub fn with_weights(weights: CostWeights) -> Self {
        FlowConfig {
            bind: BindConfig::with_weights(weights),
            ..FlowConfig::default()
        }
    }

    /// A validating builder over the default configuration.
    pub fn builder() -> FlowConfigBuilder {
        FlowConfigBuilder::default()
    }

    /// Checks the configuration for values that would derail the flow:
    /// zero state budgets or cycle caps, degenerate Eqn 2 weights
    /// (negative, non-finite, or all zero — an empty weight set), or a
    /// negative tolerance.
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), MapError> {
        let invalid = |reason: &str| {
            Err(MapError::InvalidConfig {
                reason: reason.into(),
            })
        };
        if self.schedule_state_budget == 0 {
            return invalid("schedule_state_budget must be at least 1");
        }
        if self.slice.state_budget == 0 {
            return invalid("slice.state_budget must be at least 1");
        }
        if self.bind.max_cycles == 0 {
            return invalid("bind.max_cycles must be at least 1");
        }
        let w = self.bind.weights;
        for (name, v) in [
            ("processing", w.processing),
            ("memory", w.memory),
            ("communication", w.communication),
        ] {
            if !v.is_finite() {
                return Err(MapError::InvalidConfig {
                    reason: format!("weight {name} must be finite"),
                });
            }
            if v < 0.0 {
                return Err(MapError::InvalidConfig {
                    reason: format!("weight {name} must be non-negative"),
                });
            }
        }
        if w.processing == 0.0 && w.memory == 0.0 && w.communication == 0.0 {
            return invalid("at least one Eqn 2 weight must be positive");
        }
        if self.slice.tolerance < Rational::ZERO {
            return invalid("slice.tolerance must be non-negative");
        }
        Ok(())
    }
}

/// Validating builder for [`FlowConfig`].
///
/// Collects the knobs of all three steps and rejects degenerate values at
/// [`build`](Self::build) time instead of mid-flow.
///
/// # Examples
///
/// ```
/// use sdfrs_core::flow::FlowConfig;
/// use sdfrs_core::CostWeights;
///
/// let config = FlowConfig::builder()
///     .weights(CostWeights::TUNED)
///     .max_refine_passes(5)
///     .parallel(true)
///     .build()
///     .unwrap();
/// assert!(config.slice.parallel);
///
/// assert!(FlowConfig::builder().schedule_state_budget(0).build().is_err());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowConfigBuilder {
    config: FlowConfig,
}

impl FlowConfigBuilder {
    /// Sets the Eqn 2 weights.
    #[must_use]
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.config.bind.weights = weights;
        self
    }

    /// Sets the Eqn 1 cycle-enumeration cap.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: usize) -> Self {
        self.config.bind.max_cycles = max_cycles;
        self
    }

    /// Enables or disables the reverse-order re-binding pass.
    #[must_use]
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.config.bind.optimize = optimize;
        self
    }

    /// Sets the global-search early-stop tolerance.
    #[must_use]
    pub fn tolerance(mut self, tolerance: Rational) -> Self {
        self.config.slice.tolerance = tolerance;
        self
    }

    /// Sets the per-tile refinement pass cap.
    #[must_use]
    pub fn max_refine_passes(mut self, passes: usize) -> Self {
        self.config.slice.max_refine_passes = passes;
        self
    }

    /// Enables or disables the per-tile refinement.
    #[must_use]
    pub fn refine(mut self, refine: bool) -> Self {
        self.config.slice.refine = refine;
        self
    }

    /// Runs the per-tile refinement searches concurrently.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.slice.parallel = parallel;
        self
    }

    /// Sets the state budget per slice-search throughput evaluation.
    #[must_use]
    pub fn slice_state_budget(mut self, budget: usize) -> Self {
        self.config.slice.state_budget = budget;
        self
    }

    /// Sets the state budget of the schedule construction.
    #[must_use]
    pub fn schedule_state_budget(mut self, budget: usize) -> Self {
        self.config.schedule_state_budget = budget;
        self
    }

    /// Sets the cross-tile connection model.
    #[must_use]
    pub fn connection_model(mut self, model: ConnectionModel) -> Self {
        self.config.connection_model = model;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidConfig`]; see [`FlowConfig::validate`].
    pub fn build(self) -> Result<FlowConfig, MapError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Run-time statistics of one allocation (the quantities reported in
/// Sec 10.2 / 10.3). The iteration counts are the ones the bind,
/// list-scheduler and slice steps return, counted independently of the
/// event stream; the times are the durations the `PhaseFinished` events
/// carry.
///
/// Marked `#[non_exhaustive]`: more phases will grow more counters.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Throughput computations performed by the slice-allocation step
    /// (paper: 16.1 on average over the benchmark; 34 in the multimedia
    /// experiment; 8 for a single H.263 decoder).
    pub throughput_checks: usize,
    /// Throughput checks answered by the evaluation cache (≤
    /// `throughput_checks`).
    pub cache_hits: usize,
    /// Throughput checks that ran the constrained state-space exploration.
    pub cache_misses: usize,
    /// Throughput checks the processing bound answered "infeasible"
    /// without the cache or the exploration.
    pub bound_answers: usize,
    /// Throughput checks answered by monotonicity from an explored slice
    /// vector: `throughput_checks = cache_hits + cache_misses +
    /// bound_answers + monotone_answers`.
    pub monotone_answers: usize,
    /// Wall-clock time of the binding step.
    pub binding_time: Duration,
    /// Wall-clock time of the schedule construction.
    pub scheduling_time: Duration,
    /// Wall-clock time of the slice allocation.
    pub slice_time: Duration,
    /// Candidate tiles tried by the binding step (both passes; every
    /// [`BindAttempt`](crate::events::FlowEvent::BindAttempt)).
    pub bind_attempts: usize,
    /// States the list scheduler explored before its recurrence closed.
    pub schedule_states: usize,
    /// Iterations of the global slice binary search (including the
    /// initial full-wheel probe).
    pub global_slice_iterations: usize,
    /// Per-tile refinement evaluations (speculative probes, commit
    /// re-validations, and the final re-evaluation).
    pub refine_slice_iterations: usize,
}

impl FlowStats {
    /// Total flow run time.
    pub fn total_time(&self) -> Duration {
        self.binding_time + self.scheduling_time + self.slice_time
    }
}

/// A complete, valid resource allocation: the output of the strategy.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The binding function ℬ.
    pub binding: Binding,
    /// The static-order schedules (part of the scheduling function 𝒮).
    pub schedules: TileSchedules,
    /// The TDMA slice ω of each used tile (0 for the others).
    pub slices: TileMap<u64>,
    /// Resources the allocation claims on each used tile: its slice plus
    /// the Section 7 demand (nothing on the others).
    pub usage: TileMap<TileUsage>,
    /// Guaranteed throughput under the allocation.
    pub achieved: ThroughputResult,
    /// The connection model the throughput was analysed under — what a
    /// re-verification must rebuild the binding-aware graph with.
    pub connection_model: ConnectionModel,
}

impl Allocation {
    /// The guaranteed iteration throughput.
    pub fn guaranteed_throughput(&self) -> Rational {
        self.achieved.iteration_throughput
    }

    /// The transactional per-tile resource footprint of this allocation:
    /// the sparse, sorted set of non-zero claims to
    /// [`apply`](ClaimSet::apply) to or [`revert`](ClaimSet::revert) from
    /// a [`PlatformState`] as one unit. This is the claim/release surface
    /// the admission layers use for admissions, departures and rebind
    /// rollbacks. It walks the used tiles only.
    pub fn claim_set(&self) -> ClaimSet {
        self.usage.entries().iter().copied().collect()
    }
}

/// What an allocation with `slices` claims on each used tile: the slice
/// plus the Section 7 demand of `binding`.
pub(crate) fn claimed_usage(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    binding: &Binding,
    slices: &TileMap<u64>,
) -> TileMap<TileUsage> {
    slices.map(|t, &wheel| TileUsage {
        wheel,
        ..tile_demand(app, arch, binding, t)
    })
}

/// The instrumented flow body behind
/// [`Allocator::allocate_within`](crate::Allocator::allocate_within):
/// the binding step takes its candidates from `tiles`.
pub(crate) fn allocate_inner(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    tiles: &[TileId],
    config: &FlowConfig,
    cache: &mut ThroughputCache,
    obs: &mut FlowObserver<'_>,
) -> Result<(Allocation, FlowStats), MapError> {
    config.validate()?;
    obs.emit(|| FlowEvent::FlowStarted {
        app: app.graph().name().to_string(),
        actors: app.graph().actor_count(),
        channels: app.graph().channel_count(),
        tiles: arch.tile_count(),
        constraint: app.throughput_constraint(),
    });
    let start = Instant::now();
    let result = allocate_steps(app, arch, state, tiles, config, cache, obs);
    let duration = start.elapsed();
    let ok = result.is_ok();
    obs.emit(|| FlowEvent::FlowFinished { ok, duration });
    result
}

/// Runs one phase of the strategy between its `PhaseStarted` and
/// `PhaseFinished` events and returns its result with its wall time.
/// `PhaseFinished` is emitted before an error propagates too, so a
/// failed phase keeps its time in the profiler.
fn run_phase<'s, T>(
    obs: &mut FlowObserver<'s>,
    phase: FlowPhase,
    step: impl FnOnce(&mut FlowObserver<'s>) -> Result<T, MapError>,
) -> Result<(T, Duration), MapError> {
    obs.emit(|| FlowEvent::PhaseStarted { phase });
    let start = Instant::now();
    let result = step(obs);
    let duration = start.elapsed();
    obs.emit(|| FlowEvent::PhaseFinished { phase, duration });
    result.map(|value| (value, duration))
}

fn allocate_steps(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    tiles: &[TileId],
    config: &FlowConfig,
    cache: &mut ThroughputCache,
    obs: &mut FlowObserver<'_>,
) -> Result<(Allocation, FlowStats), MapError> {
    let (hits0, misses0, bounds0, monotone0) = (
        cache.hits(),
        cache.misses(),
        cache.bound_answers(),
        cache.monotone_answers(),
    );

    // Step 1: resource binding.
    let ((binding, bind_attempts), binding_time) = run_phase(obs, FlowPhase::Binding, |obs| {
        bind_actors_observed(app, arch, state, tiles, &config.bind, obs)
    })?;

    // Step 2: static-order schedules, assuming 50% of each remaining
    // wheel.
    let ((mut ba, schedules, schedule_states), scheduling_time) =
        run_phase(obs, FlowPhase::Scheduling, |obs| {
            let mut ba = BindingAwareGraph::build_with_model(
                app,
                arch,
                &binding,
                &[],
                config.connection_model,
            )?;
            let half: Vec<u64> = ba
                .tiles()
                .iter()
                .map(|&t| (state.available_wheel(arch, t) / 2).max(1))
                .collect();
            ba.set_local_slices(&half);
            let (schedules, states) = ListScheduler::new(&ba)
                .with_state_budget(config.schedule_state_budget)
                .construct_observed(obs)?;
            Ok((ba, schedules, states))
        })?;

    // Step 3: TDMA slice allocation.
    let (slice_alloc, slice_time) = run_phase(obs, FlowPhase::SliceAllocation, |obs| {
        allocate_slices_observed(
            &mut ba,
            &schedules,
            app,
            arch,
            state,
            &binding,
            &config.slice,
            cache,
            obs,
        )
    })?;
    let stats = FlowStats {
        throughput_checks: slice_alloc.throughput_checks,
        cache_hits: cache.hits() - hits0,
        cache_misses: cache.misses() - misses0,
        bound_answers: cache.bound_answers() - bounds0,
        monotone_answers: cache.monotone_answers() - monotone0,
        binding_time,
        scheduling_time,
        slice_time,
        bind_attempts,
        schedule_states,
        global_slice_iterations: slice_alloc.global_iterations,
        refine_slice_iterations: slice_alloc.refine_iterations,
    };

    let usage = claimed_usage(app, arch, &binding, &slice_alloc.slices);
    Ok((
        Allocation {
            binding,
            schedules,
            slices: slice_alloc.slices,
            usage,
            achieved: slice_alloc.achieved,
            connection_model: config.connection_model,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use crate::cost::CostWeights;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_platform::TileId;

    fn run(
        app: &ApplicationGraph,
        config: FlowConfig,
    ) -> Result<(Allocation, FlowStats), MapError> {
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        Allocator::from_config(config).allocate(app, &arch, &state)
    }

    #[test]
    fn full_flow_on_paper_example() {
        let app = paper_example();
        let (alloc, stats) = run(&app, FlowConfig::default()).unwrap();
        assert!(alloc.binding.is_complete());
        assert!(alloc.guaranteed_throughput() >= Rational::new(1, 30));
        assert!(stats.throughput_checks >= 2);
        // The new iteration counters tie out with the check count.
        assert_eq!(
            stats.throughput_checks,
            stats.global_slice_iterations + stats.refine_slice_iterations
        );
        assert!(stats.bind_attempts >= app.graph().actor_count());
        assert!(stats.schedule_states > 0);
        // Usage covers the slices.
        for t in alloc.binding.used_tiles() {
            assert_eq!(alloc.usage.at(t).wheel, alloc.slices.at(t));
            assert!(alloc.slices.at(t) >= 1);
        }
        assert_eq!(alloc.slices.len(), alloc.binding.used_tiles().len());
    }

    #[test]
    fn all_table4_weights_allocate_the_example() {
        let app = paper_example();
        for w in CostWeights::table4() {
            let (alloc, _) = run(&app, FlowConfig::with_weights(w))
                .unwrap_or_else(|e| panic!("weights {w} failed: {e}"));
            assert!(alloc.guaranteed_throughput() >= app.throughput_constraint());
        }
    }

    #[test]
    fn claim_set_accumulates_usage() {
        let app = paper_example();
        let arch = example_platform();
        let mut state = PlatformState::new(&arch);
        let (alloc, _) = Allocator::new().allocate(&app, &arch, &state).unwrap();
        alloc.claim_set().apply(&mut state);
        for t in alloc.binding.used_tiles() {
            assert_eq!(state.usage(t).wheel, alloc.slices.at(t));
            assert!(state.usage(t).memory > 0);
        }
    }

    #[test]
    fn second_copy_fits_after_first() {
        // The example needs few resources: two copies fit on the platform.
        let app = paper_example();
        let arch = example_platform();
        let mut state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        let (first, _) = allocator.allocate(&app, &arch, &state).unwrap();
        first.claim_set().apply(&mut state);
        let second = allocator.allocate(&app, &arch, &state);
        // Whether it fits depends on the wheel left; either a valid
        // allocation or a clean infeasibility — never a panic.
        if let Ok((alloc, _)) = second {
            assert!(alloc.guaranteed_throughput() >= app.throughput_constraint());
            for t in arch.tile_ids() {
                assert!(
                    state.usage(t).wheel + alloc.usage.at(t).wheel <= arch.tile(t).wheel_size()
                );
            }
        }
    }

    #[test]
    fn unsatisfiable_constraint_reported() {
        let app = paper_example().with_throughput_constraint(Rational::new(1, 3));
        let err = run(&app, FlowConfig::default()).unwrap_err();
        assert_eq!(err, MapError::ConstraintUnsatisfiable);
    }

    #[test]
    fn stats_times_are_populated() {
        let app = paper_example();
        let (_, stats) = run(&app, FlowConfig::default()).unwrap();
        assert!(stats.total_time() >= stats.slice_time);
        // The paper: ~90% of multimedia run-time in slice allocation; here
        // just assert the fields are recorded (platform timing varies).
        assert!(stats.total_time() > Duration::ZERO);
    }

    #[test]
    fn unused_tiles_claim_nothing() {
        let app = paper_example();
        let (alloc, _) = run(&app, FlowConfig::with_weights(CostWeights::COMMUNICATION)).unwrap();
        // (0,0,1) binds everything to t1 (Table 3 row 3): t2 claims nothing.
        let t2 = TileId::from_index(1);
        assert_eq!(alloc.usage.at(t2), TileUsage::default());
        assert_eq!(alloc.slices.at(t2), 0);
        assert_eq!(alloc.usage.len(), 1, "only the used tile has an entry");
    }

    #[test]
    fn claimed_usage_includes_slices() {
        let app = paper_example();
        let arch = example_platform();
        let (t1, t2) = (TileId::from_index(0), TileId::from_index(1));
        let mut binding = Binding::new(3);
        binding.bind(sdfrs_sdf::ActorId::from_index(0), t1);
        binding.bind(sdfrs_sdf::ActorId::from_index(1), t1);
        binding.bind(sdfrs_sdf::ActorId::from_index(2), t2);
        let slices: TileMap<u64> = [(t1, 4), (t2, 6)].into_iter().collect();
        let usage = claimed_usage(&app, &arch, &binding, &slices);
        assert_eq!(usage.at(t1).wheel, 4);
        assert_eq!(usage.at(t2).wheel, 6);
        assert_eq!(usage.at(t1).memory, 225);
        assert_eq!(usage.at(t2).memory, 210);
        assert_eq!(usage.len(), 2);
    }

    #[test]
    fn claim_set_revert_undoes_apply() {
        let app = paper_example();
        let arch = example_platform();
        let mut state = PlatformState::new(&arch);
        let (alloc, _) = Allocator::new().allocate(&app, &arch, &state).unwrap();
        let before = state.clone();
        let claim = alloc.claim_set();
        assert!(claim.fits(&arch, &state));
        claim.apply(&mut state);
        assert_ne!(state, before, "the allocation must claim something");
        claim.revert(&mut state);
        assert_eq!(state, before, "revert must reclaim exactly the claim");
    }

    #[test]
    fn builder_validation_rejects_degenerate_configs() {
        assert!(FlowConfig::builder().build().is_ok());
        assert!(FlowConfig::builder()
            .schedule_state_budget(0)
            .build()
            .is_err());
        assert!(FlowConfig::builder().slice_state_budget(0).build().is_err());
        assert!(FlowConfig::builder().max_cycles(0).build().is_err());
        assert!(FlowConfig::builder()
            .weights(CostWeights {
                processing: 0.0,
                memory: 0.0,
                communication: 0.0,
            })
            .build()
            .is_err());
        assert!(FlowConfig::builder()
            .weights(CostWeights {
                processing: -1.0,
                memory: 1.0,
                communication: 1.0,
            })
            .build()
            .is_err());
        assert!(FlowConfig::builder()
            .weights(CostWeights {
                processing: f64::NAN,
                memory: 1.0,
                communication: 1.0,
            })
            .build()
            .is_err());
        assert!(FlowConfig::builder()
            .tolerance(Rational::new(-1, 10))
            .build()
            .is_err());
    }
}
