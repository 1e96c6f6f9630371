//! The improvement mechanisms Sec 10.1 names but leaves as future work:
//!
//! * "a design-time preprocessing step that orders the applications to
//!   optimize the order in which they are handled" — [`order_applications`];
//! * "a (run-time) mechanism that rejects an application and continues
//!   with the next one" — [`Allocator::admit_with`];
//! * "a platform dimensioning step" — [`dimension_platform`], which grows
//!   a mesh until a given application set fits.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::mesh::{mesh_platform, MeshConfig};
use sdfrs_platform::{ArchitectureGraph, PlatformState};
use sdfrs_sdf::Rational;

use crate::allocator::Allocator;
use crate::error::MapError;
use crate::events::FlowEvent;
use crate::exact::ExactConfig;
use crate::flow::{Allocation, FlowConfig, FlowStats};
use crate::ids::AppId;
use crate::solver::SolveReport;

/// Strategies for ordering applications before allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOrder {
    /// Keep the arrival order (the paper's baseline protocol).
    Arrival,
    /// Most demanding first: largest γ-weighted worst-case work first, so
    /// heavy applications grab resources while the platform is empty.
    HeaviestFirst,
    /// Least demanding first: maximizes the *count* of admitted
    /// applications (classic bin-packing intuition).
    LightestFirst,
    /// Tightest throughput constraint first: the applications with the
    /// least scheduling slack choose their tiles first.
    TightestConstraintFirst,
}

/// How an application is solved ([`Allocator::solve`], the one place
/// the variants pick a solver) and how
/// [`Allocator::admit_with`] decides which applications to admit.
/// Parsed from CLI strings with [`FromStr`](std::str::FromStr).
///
/// Marked `#[non_exhaustive]`: further protocols (e.g. utilization-aware
/// or energy-aware fits) will grow more variants.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// The paper's heuristic, admitting in a static order
    /// ([`AdmissionOrder`]) and skipping applications that fail — the
    /// run-time mechanism of Sec 10.1.
    FirstFit(AdmissionOrder),
    /// The paper's heuristic under a dynamic best fit: each round
    /// speculatively allocates every remaining application and admits
    /// the one claiming the least total wheel time.
    BestFit,
    /// Per-application branch-and-bound ([`crate::exact`]): admissions are
    /// proved optimal (or bounded within a certified gap) instead of
    /// merely heuristic, and commit the search's full-wheel witness.
    Exact(ExactConfig),
    /// The heuristic's allocation, with an exact-search-tightened bound
    /// pair per admission.
    Portfolio(ExactConfig),
}

impl AdmissionPolicy {
    /// The paper's heuristic in arrival order — the default policy.
    pub fn greedy() -> Self {
        AdmissionPolicy::FirstFit(AdmissionOrder::Arrival)
    }

    /// Static-order first fit with an explicit [`AdmissionOrder`].
    pub fn first_fit(order: AdmissionOrder) -> Self {
        AdmissionPolicy::FirstFit(order)
    }

    /// Dynamic best-fit (least claimed wheel time wins each round).
    pub fn best_fit() -> Self {
        AdmissionPolicy::BestFit
    }

    /// Branch-and-bound admission with the default [`ExactConfig`].
    pub fn exact() -> Self {
        AdmissionPolicy::Exact(ExactConfig::default())
    }

    /// Branch-and-bound admission with an explicit search budget.
    pub fn exact_with(config: ExactConfig) -> Self {
        AdmissionPolicy::Exact(config)
    }

    /// Greedy-first, exact-tightened admission with the default
    /// [`ExactConfig`].
    pub fn portfolio() -> Self {
        AdmissionPolicy::Portfolio(ExactConfig::default())
    }

    /// Greedy-first, exact-tightened admission with an explicit budget.
    pub fn portfolio_with(config: ExactConfig) -> Self {
        AdmissionPolicy::Portfolio(config)
    }

    /// The stable lower-case label used by `--policy` flags and JSONL
    /// fields (`"greedy"`, `"best-fit"`, `"exact"`, `"portfolio"`).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::FirstFit(_) => "greedy",
            AdmissionPolicy::BestFit => "best-fit",
            AdmissionPolicy::Exact(_) => "exact",
            AdmissionPolicy::Portfolio(_) => "portfolio",
        }
    }

    /// `true` for the heuristic policies (greedy first fit, best fit) —
    /// the ones the service admits region-locally under
    /// [`ServiceConfig::regions`](crate::service::ServiceConfig::regions),
    /// whose transcripts and metrics are bit-compatible with pre-solver
    /// releases.
    pub fn is_heuristic(&self) -> bool {
        self.exact_config().is_none()
    }

    /// The branch-and-bound configuration, for the solver-backed
    /// policies.
    pub fn exact_config(&self) -> Option<ExactConfig> {
        match self {
            AdmissionPolicy::Exact(config) | AdmissionPolicy::Portfolio(config) => Some(*config),
            _ => None,
        }
    }

    /// Overrides the branch-and-bound node budget on the solver-backed
    /// policies; a no-op on the heuristic ones.
    pub fn with_node_budget(self, node_budget: u64) -> Self {
        let config = ExactConfig { node_budget };
        match self {
            AdmissionPolicy::Exact(_) => AdmissionPolicy::Exact(config),
            AdmissionPolicy::Portfolio(_) => AdmissionPolicy::Portfolio(config),
            other => other,
        }
    }
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::greedy()
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = MapError;

    /// Parses the `--policy` vocabulary shared by `run`, `serve` and the
    /// load generator: `greedy`, `best-fit`, `exact`, `portfolio`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "greedy" => Ok(AdmissionPolicy::greedy()),
            "best-fit" => Ok(AdmissionPolicy::best_fit()),
            "exact" => Ok(AdmissionPolicy::exact()),
            "portfolio" => Ok(AdmissionPolicy::portfolio()),
            other => Err(MapError::InvalidConfig {
                reason: format!(
                    "unknown policy `{other}` (expected greedy, best-fit, exact or portfolio)"
                ),
            }),
        }
    }
}

/// The γ-weighted worst-case computation demand of an application: the
/// denominator of `l_p` (Sec 9.1), a platform-independent weight proxy.
///
/// # Errors
///
/// [`MapError::Sdf`] if the graph has no repetition vector (validated
/// applications always do).
pub fn application_work(app: &ApplicationGraph) -> Result<u128, MapError> {
    let gamma = app.graph().repetition_vector()?;
    Ok(app
        .graph()
        .actor_ids()
        .map(|a| gamma[a] as u128 * app.max_execution_time(a) as u128)
        .sum())
}

/// Returns indices into `apps` in the chosen allocation order.
///
/// # Errors
///
/// [`MapError::Sdf`] if any application has no repetition vector (only
/// the work-weighted orders evaluate it).
pub fn order_applications(
    apps: &[ApplicationGraph],
    order: AdmissionOrder,
) -> Result<Vec<usize>, MapError> {
    let mut idx: Vec<usize> = (0..apps.len()).collect();
    match order {
        AdmissionOrder::Arrival => {}
        AdmissionOrder::HeaviestFirst => {
            let work = works(apps)?;
            idx.sort_by_key(|&i| std::cmp::Reverse(work[i]));
        }
        AdmissionOrder::LightestFirst => {
            let work = works(apps)?;
            idx.sort_by_key(|&i| work[i]);
        }
        AdmissionOrder::TightestConstraintFirst => {
            // Tightness = λ · work: how much of a processor the app needs
            // per time unit. Descending.
            let work = works(apps)?;
            idx.sort_by(|&a, &b| {
                let ta = apps[a].throughput_constraint() * Rational::from_integer(work[a] as i128);
                let tb = apps[b].throughput_constraint() * Rational::from_integer(work[b] as i128);
                tb.cmp(&ta).then(a.cmp(&b))
            });
        }
    }
    Ok(idx)
}

/// [`application_work`] of every application, in input order.
fn works(apps: &[ApplicationGraph]) -> Result<Vec<u128>, MapError> {
    apps.iter().map(application_work).collect()
}

/// Dynamic best-fit admission: at every step, try each remaining
/// application and admit the one whose allocation claims the least total
/// TDMA wheel time; skip applications that fit nowhere. More expensive
/// than a static order (it runs the flow speculatively), but it packs the
/// platform tighter — the strongest form of the "ordering" improvement
/// Sec 10.1 suggests. Between the speculative run that wins a round and
/// its commit nothing changes, so the allocator's shared cache answers
/// those repeats from memory. Emits one
/// [`MultiAppRound`](FlowEvent::MultiAppRound) per round plus one
/// [`AdmissionDecision`](FlowEvent::AdmissionDecision) per final
/// accept/reject.
pub(crate) fn allocate_best_fit_with(
    allocator: &mut Allocator,
    apps: &[ApplicationGraph],
    arch: &ArchitectureGraph,
) -> AdmissionResult {
    let mut state = PlatformState::new(arch);
    let mut remaining: Vec<usize> = (0..apps.len()).collect();
    let mut admitted = Vec::new();
    let mut rejected: Vec<(AppId, MapError)> = Vec::new();
    let mut round = 0usize;
    while !remaining.is_empty() {
        let candidates = remaining.len();
        let mut best: Option<(usize, Allocation, FlowStats, u64)> = None;
        let mut round_errors = Vec::new();
        for &i in &remaining {
            match allocator.allocate(&apps[i], arch, &state) {
                Ok((alloc, stats)) => {
                    let wheel: u64 = alloc.usage.iter().map(|u| u.wheel).sum();
                    let better = best.as_ref().is_none_or(|(_, _, _, w)| wheel < *w);
                    if better {
                        best = Some((i, alloc, stats, wheel));
                    }
                }
                Err(e) => round_errors.push((i, e)),
            }
        }
        let winner = best.as_ref().map(|(i, _, _, _)| *i);
        allocator.emit(|| FlowEvent::MultiAppRound {
            round,
            candidates,
            admitted: winner,
        });
        round += 1;
        match best {
            Some((i, alloc, stats, _)) => {
                alloc.claim_set().apply(&mut state);
                allocator.emit(|| FlowEvent::AdmissionDecision {
                    index: i,
                    app: apps[i].graph().name().to_string(),
                    admitted: true,
                    detail: String::new(),
                });
                admitted.push((AppId::from_index(i), alloc, stats));
                remaining.retain(|&x| x != i);
            }
            None => {
                // Nothing fits any more: everything left is rejected.
                for (i, e) in round_errors {
                    allocator.emit(|| FlowEvent::AdmissionDecision {
                        index: i,
                        app: apps[i].graph().name().to_string(),
                        admitted: false,
                        detail: e.to_string(),
                    });
                    rejected.push((AppId::from_index(i), e));
                }
                break;
            }
        }
    }
    AdmissionResult {
        admitted,
        rejected,
        final_state: state,
        reports: Vec::new(),
    }
}

/// Outcome of an admission run that skips failing applications.
#[derive(Debug)]
pub struct AdmissionResult {
    /// `(application id, allocation, stats)` for every admitted app.
    pub admitted: Vec<(AppId, Allocation, FlowStats)>,
    /// `(application id, error)` for every rejected app.
    pub rejected: Vec<(AppId, MapError)>,
    /// Platform state after all admissions.
    pub final_state: PlatformState,
    /// Per-admission certified bound reports, in admission order. Empty
    /// for the heuristic policies (greedy first fit / best fit), one
    /// entry per admitted application under a solver-backed policy.
    pub reports: Vec<(AppId, SolveReport)>,
}

impl AdmissionResult {
    /// Number of admitted applications.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// The certified bound report of an admitted application, when the
    /// policy produced one.
    pub fn report_for(&self, app: AppId) -> Option<&SolveReport> {
        self.reports
            .iter()
            .find(|(id, _)| *id == app)
            .map(|(_, r)| r)
    }
}

/// Solves the applications one after another against the evolving
/// platform state, *skipping* the ones that fail instead of stopping (the
/// run-time mechanism of Sec 10.1): in the [`AdmissionOrder`] of a first
/// fit, in arrival order under the searching policies. Emits one
/// [`AdmissionDecision`](FlowEvent::AdmissionDecision) per application and
/// keeps the [`SolveReport`] of every admission that has one.
pub(crate) fn allocate_skipping_failures_with(
    allocator: &mut Allocator,
    apps: &[ApplicationGraph],
    arch: &ArchitectureGraph,
    policy: AdmissionPolicy,
) -> AdmissionResult {
    let order = match policy {
        AdmissionPolicy::FirstFit(order) => order,
        _ => AdmissionOrder::Arrival,
    };
    let mut state = PlatformState::new(arch);
    let mut admitted = Vec::new();
    let mut rejected = Vec::new();
    let mut reports = Vec::new();
    // A broken application graph must not abort the whole sweep: fall back
    // to arrival order and let the per-application solves report the
    // offending graphs as rejections.
    let ordered = order_applications(apps, order).unwrap_or_else(|_| (0..apps.len()).collect());
    for i in ordered {
        match allocator.solve(policy, &apps[i], arch, &state) {
            Ok(outcome) => {
                outcome.allocation.claim_set().apply(&mut state);
                allocator.emit(|| FlowEvent::AdmissionDecision {
                    index: i,
                    app: apps[i].graph().name().to_string(),
                    admitted: true,
                    detail: String::new(),
                });
                if let Some(report) = outcome.report {
                    reports.push((AppId::from_index(i), report));
                }
                admitted.push((AppId::from_index(i), outcome.allocation, outcome.stats));
            }
            Err(e) => {
                allocator.emit(|| FlowEvent::AdmissionDecision {
                    index: i,
                    app: apps[i].graph().name().to_string(),
                    admitted: false,
                    detail: e.to_string(),
                });
                rejected.push((AppId::from_index(i), e));
            }
        }
    }
    AdmissionResult {
        admitted,
        rejected,
        final_state: state,
        reports,
    }
}

/// Grows a square mesh until every application in `apps` can be admitted
/// (in arrival order, with skipping disabled), up to `max_side` tiles per
/// side. Returns the platform and its side length, or `None` if even the
/// largest mesh cannot host the set — the "platform dimensioning step" of
/// Sec 10.1.
pub fn dimension_platform(
    apps: &[ApplicationGraph],
    base: &MeshConfig,
    config: &FlowConfig,
    max_side: usize,
) -> Option<(ArchitectureGraph, usize)> {
    for side in 1..=max_side {
        let cfg = MeshConfig {
            rows: side,
            cols: side,
            ..base.clone()
        };
        let arch = mesh_platform(format!("mesh{side}x{side}"), &cfg);
        let result = crate::multi_app::allocate_until_failure(apps, &arch, config);
        if result.bound_count() == apps.len() {
            return Some((arch, side));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::paper_example;

    fn scaled_example(period: i128) -> ApplicationGraph {
        paper_example().with_throughput_constraint(Rational::new(1, period))
    }

    #[test]
    fn work_is_gamma_weighted() {
        let app = paper_example();
        // γ = (2,2,1); sup τ = (4,7,3) ⇒ 8 + 14 + 3 = 25.
        assert_eq!(application_work(&app).unwrap(), 25);
    }

    #[test]
    fn orderings_permute_consistently() {
        let apps = vec![scaled_example(30), scaled_example(300), scaled_example(100)];
        assert_eq!(
            order_applications(&apps, AdmissionOrder::Arrival).unwrap(),
            vec![0, 1, 2]
        );
        // Same work everywhere ⇒ heaviest/lightest keep arrival order
        // (stable sort).
        assert_eq!(
            order_applications(&apps, AdmissionOrder::HeaviestFirst).unwrap(),
            vec![0, 1, 2]
        );
        // Tightest λ first: 1/30 > 1/100 > 1/300.
        assert_eq!(
            order_applications(&apps, AdmissionOrder::TightestConstraintFirst).unwrap(),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn skipping_admits_later_applications() {
        use sdfrs_appmodel::apps::example_platform;
        // App 1 is impossible; the skipper admits apps 0 and 2 anyway.
        let apps = vec![scaled_example(60), scaled_example(2), scaled_example(60)];
        let arch = example_platform();
        let result = Allocator::new().admit_with(&apps, &arch, AdmissionPolicy::greedy());
        assert_eq!(result.admitted_count(), 2);
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].0, AppId::from_index(1));
        // Contrast: stop-on-failure binds only the first.
        let stop = crate::multi_app::allocate_until_failure(&apps, &arch, &FlowConfig::default());
        assert_eq!(stop.bound_count(), 1);
    }

    #[test]
    fn best_fit_admits_at_least_as_many_as_arrival_order() {
        use sdfrs_appmodel::apps::example_platform;
        let apps = vec![
            scaled_example(40),
            scaled_example(120),
            scaled_example(60),
            scaled_example(200),
        ];
        let arch = example_platform();
        let arrival = Allocator::new().admit_with(&apps, &arch, AdmissionPolicy::greedy());
        let best_fit = Allocator::new().admit_with(&apps, &arch, AdmissionPolicy::best_fit());
        assert!(
            best_fit.admitted_count() >= arrival.admitted_count(),
            "best-fit {} < arrival {}",
            best_fit.admitted_count(),
            arrival.admitted_count()
        );
        // Accounting stays consistent.
        assert_eq!(
            best_fit.admitted_count()
                + best_fit.rejected.len()
                + (apps.len() - best_fit.admitted_count() - best_fit.rejected.len()),
            apps.len()
        );
    }

    #[test]
    fn dimensioning_finds_a_fitting_mesh() {
        use sdfrs_platform::ProcessorType;
        // Three copies of the example need more wheel than one tiny tile.
        let apps = vec![scaled_example(60), scaled_example(60), scaled_example(60)];
        let base = MeshConfig {
            processor_types: vec![ProcessorType::new("p1"), ProcessorType::new("p2")],
            wheel_size: 10,
            memory: 4_096,
            max_connections: 8,
            bandwidth_in: 1_000,
            bandwidth_out: 1_000,
            hop_latency: 1,
            rows: 1,
            cols: 1,
        };
        let (arch, side) = dimension_platform(&apps, &base, &FlowConfig::default(), 4)
            .expect("a 4×4 mesh is plenty");
        assert!(side >= 1);
        assert_eq!(arch.tile_count(), side * side);
        // And the set indeed fits the dimensioned platform.
        let check = crate::multi_app::allocate_until_failure(&apps, &arch, &FlowConfig::default());
        assert_eq!(check.bound_count(), 3);
    }
}
