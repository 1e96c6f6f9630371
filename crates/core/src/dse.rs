//! Single-application design-space exploration.
//!
//! The flow produces *one* allocation per (weights, connection model)
//! configuration; this module sweeps a set of configurations and reports
//! the Pareto-optimal trade-offs between the guaranteed throughput and
//! the platform resources claimed — the designer-facing loop around the
//! paper's strategy ("This enables the user to trade-off how the various
//! loads of the tile are weighted", Sec 9.1).

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId};
use sdfrs_sdf::Rational;

use crate::allocator::Allocator;
use crate::binding_aware::ConnectionModel;
use crate::cost::CostWeights;
use crate::events::{FlowEvent, FlowObserver};
use crate::flow::{Allocation, FlowConfig};
use crate::thru_cache::ThroughputCache;

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// The weights that produced this allocation.
    pub weights: CostWeights,
    /// The connection model used.
    pub connection_model: ConnectionModel,
    /// The resulting allocation.
    pub allocation: Allocation,
    /// Total TDMA wheel time claimed (the scarce shared resource).
    pub wheel_claimed: u64,
    /// Tiles used.
    pub tiles_used: usize,
}

impl DsePoint {
    /// The guaranteed iteration throughput of this point.
    pub fn throughput(&self) -> Rational {
        self.allocation.guaranteed_throughput()
    }

    /// `true` if `other` is at least as good on both axes and strictly
    /// better on one (i.e. `self` is dominated).
    pub fn dominated_by(&self, other: &DsePoint) -> bool {
        let no_worse =
            other.throughput() >= self.throughput() && other.wheel_claimed <= self.wheel_claimed;
        let better =
            other.throughput() > self.throughput() || other.wheel_claimed < self.wheel_claimed;
        no_worse && better
    }
}

/// Result of a design-space sweep.
#[derive(Debug)]
pub struct DseResult {
    /// Every configuration that produced a valid allocation.
    pub points: Vec<DsePoint>,
    /// Configurations that failed, with their errors.
    pub failures: Vec<(CostWeights, ConnectionModel, crate::MapError)>,
}

impl DseResult {
    /// The Pareto-optimal points (max throughput, min wheel), sorted by
    /// claimed wheel time ascending.
    pub fn pareto(&self) -> Vec<&DsePoint> {
        let mut frontier: Vec<&DsePoint> = self
            .points
            .iter()
            .filter(|p| !self.points.iter().any(|q| p.dominated_by(q)))
            .collect();
        frontier.sort_by_key(|p| (p.wheel_claimed, std::cmp::Reverse(p.throughput())));
        frontier.dedup_by(|a, b| {
            a.wheel_claimed == b.wheel_claimed && a.throughput() == b.throughput()
        });
        frontier
    }
}

/// Sweeps the given weight settings under both connection models.
pub fn explore(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    weights: &[CostWeights],
) -> DseResult {
    explore_impl(app, arch, state, weights, false)
}

/// [`explore`] with the sweep points evaluated concurrently.
///
/// Every `(weights, connection model)` configuration is independent; the
/// per-point results are reassembled in sweep order before `points` /
/// `failures` are built, so the output is identical to the sequential
/// [`explore`] (asserted by the `parallel_sweep_matches_sequential` test).
pub fn explore_parallel(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    weights: &[CostWeights],
) -> DseResult {
    explore_impl(app, arch, state, weights, true)
}

/// [`explore`] through an existing [`Allocator`]: the sweep runs
/// sequentially on its sink, emitting one
/// [`DsePointEvaluated`](FlowEvent::DsePointEvaluated) per configuration.
/// Each point still runs with a fresh cache — different weights produce
/// different bindings, so points share no evaluations — while the
/// allocator's own cache is left untouched.
pub fn explore_with(
    allocator: &mut Allocator,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    weights: &[CostWeights],
) -> DseResult {
    let base = *allocator.config();
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for (w, model, outcome) in sweep_outcomes(app, arch, state, weights, &base, false) {
        let ok = outcome.is_ok();
        allocator.emit(|| FlowEvent::DsePointEvaluated {
            weights: w.to_string(),
            connection_model: format!("{model:?}"),
            ok,
        });
        collect_outcome(w, model, outcome, &mut points, &mut failures);
    }
    DseResult { points, failures }
}

/// Runs the sweep and returns `(weights, model, outcome)` in sweep order.
fn sweep_outcomes(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    weights: &[CostWeights],
    base: &FlowConfig,
    parallel: bool,
) -> Vec<(
    CostWeights,
    ConnectionModel,
    Result<Allocation, crate::MapError>,
)> {
    let sweep: Vec<(CostWeights, ConnectionModel)> = weights
        .iter()
        .flat_map(|&w| {
            [ConnectionModel::Simple, ConnectionModel::PipelinedHops]
                .into_iter()
                .map(move |m| (w, m))
        })
        .collect();
    let tiles: Vec<TileId> = arch.tile_ids().collect();
    let outcomes = sdfrs_fastutil::par::maybe_par_map(parallel, &sweep, |&(w, model)| {
        let mut config = *base;
        config.bind.weights = w;
        config.connection_model = model;
        let mut cache = ThroughputCache::new();
        crate::flow::allocate_inner(
            app,
            arch,
            state,
            &tiles,
            &config,
            &mut cache,
            &mut FlowObserver::null(),
        )
        .map(|(allocation, _)| allocation)
    });
    sweep
        .into_iter()
        .zip(outcomes)
        .map(|((w, model), outcome)| (w, model, outcome))
        .collect()
}

fn collect_outcome(
    w: CostWeights,
    model: ConnectionModel,
    outcome: Result<Allocation, crate::MapError>,
    points: &mut Vec<DsePoint>,
    failures: &mut Vec<(CostWeights, ConnectionModel, crate::MapError)>,
) {
    match outcome {
        Ok(allocation) => {
            let wheel_claimed = allocation.slices.iter().sum();
            let tiles_used = allocation.binding.used_tiles().len();
            points.push(DsePoint {
                weights: w,
                connection_model: model,
                allocation,
                wheel_claimed,
                tiles_used,
            });
        }
        Err(e) => failures.push((w, model, e)),
    }
}

fn explore_impl(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    weights: &[CostWeights],
    parallel: bool,
) -> DseResult {
    let base = FlowConfig::default();
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for (w, model, outcome) in sweep_outcomes(app, arch, state, weights, &base, parallel) {
        collect_outcome(w, model, outcome, &mut points, &mut failures);
    }
    DseResult { points, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};

    fn sweep() -> DseResult {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        explore(&app, &arch, &state, &CostWeights::table4())
    }

    #[test]
    fn all_table4_configs_allocate_the_example() {
        let result = sweep();
        assert_eq!(result.points.len(), 10, "5 weights × 2 models");
        assert!(result.failures.is_empty());
        for p in &result.points {
            assert!(p.throughput() >= Rational::new(1, 30));
            assert!(p.wheel_claimed >= 1);
            assert!(p.tiles_used >= 1);
        }
    }

    #[test]
    fn pareto_frontier_is_nondominated_and_sorted() {
        let result = sweep();
        let pareto = result.pareto();
        assert!(!pareto.is_empty());
        for p in &pareto {
            assert!(!result.points.iter().any(|q| p.dominated_by(q)));
        }
        for pair in pareto.windows(2) {
            assert!(pair[0].wheel_claimed <= pair[1].wheel_claimed);
            // More wheel must buy more throughput on the frontier.
            assert!(pair[0].throughput() <= pair[1].throughput());
        }
        // The frontier never exceeds the point count.
        assert!(pareto.len() <= result.points.len());
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let seq = explore(&app, &arch, &state, &CostWeights::table4());
        let par = explore_parallel(&app, &arch, &state, &CostWeights::table4());
        assert_eq!(seq.points.len(), par.points.len());
        for (s, p) in seq.points.iter().zip(&par.points) {
            assert_eq!(s.weights, p.weights);
            assert_eq!(s.connection_model, p.connection_model);
            assert_eq!(s.wheel_claimed, p.wheel_claimed);
            assert_eq!(s.tiles_used, p.tiles_used);
            assert_eq!(s.allocation.binding, p.allocation.binding);
            assert_eq!(s.allocation.schedules, p.allocation.schedules);
            assert_eq!(s.allocation.slices, p.allocation.slices);
            assert_eq!(s.allocation.achieved, p.allocation.achieved);
        }
        assert_eq!(seq.failures.len(), par.failures.len());
        for (s, p) in seq.failures.iter().zip(&par.failures) {
            assert_eq!((s.0, s.1, &s.2), (p.0, p.1, &p.2));
        }
    }

    #[test]
    fn dominance_is_irreflexive() {
        let result = sweep();
        for p in &result.points {
            assert!(!p.dominated_by(p));
        }
    }
}
