//! The allocation front-end: one builder-style handle owning the flow
//! configuration, the throughput-evaluation cache, and the event sink.
//!
//! [`Allocator`] replaced the old free-function pair
//! `flow::allocate` / `flow::allocate_with_cache` (now removed). Owning
//! all three pieces in one place means:
//!
//! * repeated runs — admission protocols, DSE sweeps, multi-application
//!   sequences — share the [`ThroughputCache`] without threading it
//!   through every call site;
//! * every phase of every run reports through one
//!   [`FlowObserver`], which builds each event once and delivers it to
//!   the metrics registry, the [`EventSink`] and the per-request tap,
//!   with timestamps monotonic across runs (one epoch per allocator);
//! * configuration is validated once, up front, instead of failing
//!   mid-flow.
//!
//! # Example
//!
//! ```
//! use sdfrs_appmodel::apps::{example_platform, paper_example};
//! use sdfrs_core::Allocator;
//! use sdfrs_platform::PlatformState;
//!
//! # fn main() -> Result<(), sdfrs_core::MapError> {
//! let app = paper_example();
//! let arch = example_platform();
//! let state = PlatformState::new(&arch);
//! let mut allocator = Allocator::new();
//! let (allocation, stats) = allocator.allocate(&app, &arch, &state)?;
//! assert!(allocation.guaranteed_throughput() >= app.throughput_constraint());
//! assert!(stats.throughput_checks > 0);
//! # Ok(())
//! # }
//! ```

use std::time::{Duration, Instant};

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState};

use crate::admission::{AdmissionPolicy, AdmissionResult};
use crate::cost::CostWeights;
use crate::dse::DseResult;
use crate::error::MapError;
use crate::events::{EventSink, EventTap, FlowEvent, FlowObserver, NullSink};
use crate::exact;
use crate::flow::{Allocation, FlowConfig, FlowStats};
use crate::metrics::Metrics;
use crate::multi_app::MultiAppResult;
use crate::solver::SolveOutcome;
use crate::thru_cache::ThroughputCache;

/// The redesigned entry point of the Section 9 strategy: a handle owning
/// the [`FlowConfig`], a persistent [`ThroughputCache`], and a pluggable
/// [`EventSink`].
///
/// Built with a fluent API; see the [module docs](self) for an example.
/// The default sink is the zero-overhead [`NullSink`].
pub struct Allocator {
    config: FlowConfig,
    /// Crate-visible so the exact solver can evaluate its leaves through
    /// the shared memo.
    pub(crate) cache: ThroughputCache,
    sink: Box<dyn EventSink>,
    /// Per-request event tap: while one is open every event is *also*
    /// captured here (even with a `NullSink`) so the service can attach
    /// the trail to a request trace.
    tap: Option<EventTap>,
    metrics: Metrics,
    epoch: Instant,
}

impl Default for Allocator {
    fn default() -> Self {
        Allocator::new()
    }
}

impl std::fmt::Debug for Allocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Allocator")
            .field("config", &self.config)
            .field("sink_enabled", &self.sink.enabled())
            .finish_non_exhaustive()
    }
}

impl Allocator {
    /// An allocator with the default configuration, an empty cache, and
    /// the [`NullSink`].
    pub fn new() -> Self {
        Allocator::from_config(FlowConfig::default())
    }

    /// An allocator with the given configuration and an empty cache.
    pub fn from_config(config: FlowConfig) -> Self {
        Allocator {
            config,
            cache: ThroughputCache::new(),
            sink: Box::new(NullSink),
            tap: None,
            metrics: Metrics::null(),
            epoch: Instant::now(),
        }
    }

    /// Replaces the flow configuration, keeping the cache.
    #[must_use]
    pub fn with_config(mut self, config: FlowConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses the given Eqn 2 weights (keeping the remaining defaults).
    #[must_use]
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.config = FlowConfig::with_weights(weights);
        self
    }

    /// Seeds the allocator with an existing evaluation cache (e.g. one
    /// carried over from a previous allocator via [`into_cache`]).
    ///
    /// [`into_cache`]: Self::into_cache
    #[must_use]
    pub fn with_cache(mut self, cache: ThroughputCache) -> Self {
        self.cache = cache;
        self.cache.set_metrics(self.metrics.clone());
        self
    }

    /// Disables throughput-evaluation memoization: every check runs an
    /// exploration and counts as a cache miss. Used by the conformance
    /// harness to compare cached against cache-free runs.
    #[must_use]
    pub fn with_cache_disabled(mut self) -> Self {
        self.cache = ThroughputCache::disabled();
        self.cache.set_metrics(self.metrics.clone());
        self
    }

    /// Forces the parallel (`true`) or sequential (`false`) slice
    /// refinement path, overriding `config.slice.parallel`. Both paths
    /// must produce identical allocations; the conformance harness
    /// checks exactly that.
    #[must_use]
    pub fn with_parallelism(mut self, parallel: bool) -> Self {
        self.config.slice.parallel = parallel;
        self
    }

    /// Attaches a metrics handle: every event of every subsequent run is
    /// folded into its registry, and the cache records its probes there.
    /// Accepts [`Metrics`], an
    /// `Arc<`[`MetricsRegistry`](crate::metrics::MetricsRegistry)`>`, a
    /// bare registry, or [`NullMetrics`](crate::metrics::NullMetrics) to
    /// switch recording off again.
    #[must_use]
    pub fn with_metrics(mut self, metrics: impl Into<Metrics>) -> Self {
        self.metrics = metrics.into();
        self.cache.set_metrics(self.metrics.clone());
        self
    }

    /// Routes all flow events to `sink`.
    #[must_use]
    pub fn with_sink(self, sink: impl EventSink + 'static) -> Self {
        self.with_boxed_sink(Box::new(sink))
    }

    /// Routes all flow events to an already-boxed sink (what the CLI
    /// builds from `--trace` / `--verbose`).
    #[must_use]
    pub fn with_boxed_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Opens a per-request event tap: until
    /// [`end_event_tap`](Self::end_event_tap) every event is captured
    /// *in addition to* going to the registry and the sink, stamped with
    /// the time since `origin` (the request's arrival) rather than this
    /// allocator's epoch. The tracing layer opens one around each traced
    /// request. The tap is observational only — it never changes
    /// allocation results.
    pub fn begin_event_tap(&mut self, origin: Instant) {
        self.tap = Some(EventTap {
            origin,
            events: Vec::new(),
        });
    }

    /// Closes the tap and returns what it captured, in emission order
    /// (empty when no tap was open).
    pub fn end_event_tap(&mut self) -> Vec<(Duration, FlowEvent)> {
        self.tap.take().map(|tap| tap.events).unwrap_or_default()
    }

    /// The flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Mutable access to the flow configuration (for sweeps that adjust
    /// one knob between runs).
    pub fn config_mut(&mut self) -> &mut FlowConfig {
        &mut self.config
    }

    /// The evaluation cache.
    pub fn cache(&self) -> &ThroughputCache {
        &self.cache
    }

    /// The attached metrics handle (null unless
    /// [`with_metrics`](Self::with_metrics) was called).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the allocator, returning its cache (to seed another
    /// allocator).
    pub fn into_cache(self) -> ThroughputCache {
        self.cache
    }

    /// Flushes the event sink (buffered trace files).
    pub fn flush(&mut self) {
        self.sink.flush();
    }

    /// Runs the three-step strategy (Sec 9) for one application on a
    /// (partially occupied) platform, emitting events for every phase and
    /// updating the shared cache.
    ///
    /// # Errors
    ///
    /// * [`MapError::InvalidConfig`] if the configuration is rejected by
    ///   [`FlowConfig::validate`];
    /// * [`MapError::NoFeasibleTile`] from binding;
    /// * [`MapError::Sdf`] from an analysis;
    /// * [`MapError::ConstraintUnsatisfiable`] from the slice allocation.
    pub fn allocate(
        &mut self,
        app: &ApplicationGraph,
        arch: &ArchitectureGraph,
        state: &PlatformState,
    ) -> Result<(Allocation, FlowStats), MapError> {
        let Allocator {
            config,
            cache,
            sink,
            tap,
            metrics,
            epoch,
        } = self;
        let mut obs = FlowObserver::with_epoch(sink.as_mut(), *epoch)
            .with_metrics(metrics)
            .with_tap(tap.as_mut());
        crate::flow::allocate_inner(app, arch, state, config, cache, &mut obs)
    }

    /// Allocates `apps` in order onto one platform until the first
    /// failure (Sec 10.1's conservative protocol), sharing this
    /// allocator's cache and sink across the sequence.
    pub fn allocate_sequence(
        &mut self,
        apps: &[ApplicationGraph],
        arch: &ArchitectureGraph,
    ) -> MultiAppResult {
        crate::multi_app::allocate_until_failure_with(self, apps, arch)
    }

    /// Batch admission under the chosen [`AdmissionPolicy`]: the dynamic
    /// best fit, which each round speculatively allocates every
    /// remaining application and admits the one claiming the least wheel
    /// time, or a loop that [`solve`](Self::solve)s each application and
    /// *skips* the ones that fail (the run-time mechanism of Sec 10.1):
    /// in the first-fit order, or in arrival order under the searching
    /// policies, which also keep one certified report per admission (see
    /// [`AdmissionResult::reports`](crate::admission::AdmissionResult)).
    pub fn admit_with(
        &mut self,
        apps: &[ApplicationGraph],
        arch: &ArchitectureGraph,
        policy: AdmissionPolicy,
    ) -> AdmissionResult {
        if policy == AdmissionPolicy::BestFit {
            crate::admission::allocate_best_fit_with(self, apps, arch)
        } else {
            crate::admission::allocate_skipping_failures_with(self, apps, arch, policy)
        }
    }

    /// Solves one application under `policy` against `state`, sharing
    /// this allocator's cache, sink and metrics: the one place a policy
    /// picks its solver. The heuristic policies run
    /// [`allocate`](Self::allocate) and attach no report; `Exact` and
    /// `Portfolio` run the [`exact`] search and attach its
    /// certificate.
    ///
    /// # Errors
    ///
    /// As [`allocate`](Self::allocate); the searching policies report
    /// [`MapError::ConstraintUnsatisfiable`] when no binding they find
    /// meets the throughput constraint.
    pub fn solve(
        &mut self,
        policy: AdmissionPolicy,
        app: &ApplicationGraph,
        arch: &ArchitectureGraph,
        state: &PlatformState,
    ) -> Result<SolveOutcome, MapError> {
        match policy {
            AdmissionPolicy::FirstFit(_) | AdmissionPolicy::BestFit => {
                let (allocation, stats) = self.allocate(app, arch, state)?;
                Ok(SolveOutcome::new(allocation, stats, None))
            }
            AdmissionPolicy::Exact(config) => exact::solve_exact(self, app, arch, state, config),
            AdmissionPolicy::Portfolio(config) => {
                exact::solve_portfolio(self, app, arch, state, config)
            }
        }
    }

    /// Sweeps the given Eqn 2 weight settings under both connection
    /// models, emitting one
    /// [`DsePointEvaluated`](crate::events::FlowEvent::DsePointEvaluated)
    /// per configuration. Each point runs with a fresh cache (different
    /// weights produce different bindings, so points share nothing), like
    /// [`dse::explore`](crate::dse::explore).
    pub fn explore(
        &mut self,
        app: &ApplicationGraph,
        arch: &ArchitectureGraph,
        state: &PlatformState,
        weights: &[CostWeights],
    ) -> DseResult {
        crate::dse::explore_with(self, app, arch, state, weights)
    }

    /// Emits one event through the same observer a flow run uses (for
    /// the events of the protocols, the solver and the service).
    pub(crate) fn emit(&mut self, make: impl FnOnce() -> FlowEvent) {
        FlowObserver::with_epoch(self.sink.as_mut(), self.epoch)
            .with_metrics(&self.metrics)
            .with_tap(self.tap.as_mut())
            .emit(make);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingSink;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_sdf::Rational;

    #[test]
    fn allocator_reproduces_the_paper_example() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let (alloc, stats) = Allocator::new().allocate(&app, &arch, &state).unwrap();
        assert!(alloc.guaranteed_throughput() >= Rational::new(1, 30));
        assert!(stats.throughput_checks >= 2);
    }

    #[test]
    fn cache_persists_across_runs() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        let (_, first) = allocator.allocate(&app, &arch, &state).unwrap();
        let (_, second) = allocator.allocate(&app, &arch, &state).unwrap();
        assert!(first.cache_misses > 0, "cold cache must run explorations");
        assert_eq!(
            second.cache_misses, 0,
            "the repeated run must be answered entirely from the cache"
        );
        // The full-wheel probe was never explored: monotonicity answers
        // it in both runs.
        assert_eq!(
            second.cache_hits + second.monotone_answers,
            second.throughput_checks
        );
    }

    #[test]
    fn timestamps_are_monotonic_across_runs() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let sink = RecordingSink::new();
        let mut allocator = Allocator::new().with_sink(sink.clone());
        allocator.allocate(&app, &arch, &state).unwrap();
        allocator.allocate(&app, &arch, &state).unwrap();
        let events = sink.events();
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "timestamps must never go back");
        }
        // Two runs ⇒ two flow_started / flow_finished pairs.
        let starts = events
            .iter()
            .filter(|(_, e)| e.kind() == "flow_started")
            .count();
        assert_eq!(starts, 2);
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let cfg = FlowConfig {
            schedule_state_budget: 0,
            ..FlowConfig::default()
        };
        let err = Allocator::from_config(cfg)
            .allocate(&app, &arch, &state)
            .unwrap_err();
        assert!(matches!(err, MapError::InvalidConfig { .. }));
    }

    /// Two components on two tiles: x (τ 1 on t1) and z (τ 100 on t2),
    /// each with a one-token self-edge and no channel between them. The
    /// processing bound counts only the output's component, so z's load
    /// on t2 (which would cap t2 at 1/100) does not reject x.
    #[test]
    fn split_application_is_bounded_by_the_output_component_only() {
        use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
        use sdfrs_platform::ProcessorType;
        use sdfrs_sdf::SdfGraph;
        let mut g = SdfGraph::new("split");
        let x = g.add_actor("x", 0);
        let z = g.add_actor("z", 0);
        let xx = g.add_channel("xx", x, 1, x, 1, 1);
        let zz = g.add_channel("zz", z, 1, z, 1, 1);
        let app = ApplicationGraph::builder(g, Rational::new(1, 10))
            .actor(
                x,
                ActorRequirements::new().on(ProcessorType::new("p1"), 1, 1),
            )
            .actor(
                z,
                ActorRequirements::new().on(ProcessorType::new("p2"), 100, 1),
            )
            .channel(xx, ChannelRequirements::new(1, 1, 0, 0, 0))
            .channel(zz, ChannelRequirements::new(1, 1, 0, 0, 0))
            .output_actor(x)
            .build()
            .unwrap();
        let arch = example_platform();
        let (alloc, stats) = Allocator::new()
            .allocate(&app, &arch, &PlatformState::new(&arch))
            .unwrap();
        assert_eq!(alloc.slices, vec![1, 1]);
        assert_eq!(alloc.guaranteed_throughput(), Rational::new(1, 10));
        assert_eq!(
            stats.throughput_checks,
            stats.cache_hits + stats.cache_misses + stats.bound_answers + stats.monotone_answers
        );
    }

    #[test]
    fn solve_reports_only_under_the_searching_policies() {
        use crate::solver::SolverKind;
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        let (greedy, _) = allocator.allocate(&app, &arch, &state).unwrap();
        for policy in [AdmissionPolicy::greedy(), AdmissionPolicy::best_fit()] {
            let outcome = allocator.solve(policy, &app, &arch, &state).unwrap();
            assert!(outcome.report.is_none(), "{policy}");
            assert_eq!(outcome.allocation.binding, greedy.binding);
            assert_eq!(outcome.allocation.slices, greedy.slices);
        }
        for (policy, kind) in [
            (AdmissionPolicy::exact(), SolverKind::Exact),
            (AdmissionPolicy::portfolio(), SolverKind::Portfolio),
        ] {
            let outcome = allocator.solve(policy, &app, &arch, &state).unwrap();
            let report = outcome.report.expect("a search certifies");
            assert_eq!(report.kind, kind);
            assert!(report.lower >= outcome.allocation.guaranteed_throughput());
            assert!(report.lower <= report.upper);
        }
    }

    #[test]
    fn into_cache_seeds_another_allocator() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut first = Allocator::new();
        first.allocate(&app, &arch, &state).unwrap();
        let mut second = Allocator::new().with_cache(first.into_cache());
        let (_, stats) = second.allocate(&app, &arch, &state).unwrap();
        assert_eq!(stats.cache_misses, 0);
    }
}
