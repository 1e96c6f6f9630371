//! Multi-application allocation (the experimental protocol of Sec 10.1):
//! applications are allocated one after another onto the same platform
//! until the first failure; resources claimed by successful allocations
//! stay claimed.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileUsage};

use crate::allocator::Allocator;
use crate::error::MapError;
use crate::events::FlowEvent;
use crate::flow::{Allocation, FlowConfig, FlowStats};
use crate::ids::AppId;

/// Outcome of allocating a sequence of applications.
#[derive(Debug)]
pub struct MultiAppResult {
    /// Successful allocations, in application order.
    pub allocations: Vec<Allocation>,
    /// Per-allocation statistics.
    pub stats: Vec<FlowStats>,
    /// The error that stopped the sequence (`None` if every application
    /// fit).
    pub failure: Option<MapError>,
    /// Which application the sequence stopped at (`None` if every
    /// application fit).
    pub failed_app: Option<AppId>,
    /// The platform state after the last successful allocation.
    pub final_state: PlatformState,
}

impl MultiAppResult {
    /// Number of applications that received a valid allocation — the
    /// quantity of Table 4.
    pub fn bound_count(&self) -> usize {
        self.allocations.len()
    }

    /// Total throughput checks across all successful allocations.
    pub fn total_throughput_checks(&self) -> usize {
        self.stats.iter().map(|s| s.throughput_checks).sum()
    }

    /// Total resources in use after the run, summed over tiles — the raw
    /// numbers behind Table 5.
    pub fn total_usage(&self) -> TileUsage {
        self.final_state.total_usage()
    }
}

/// Allocates applications in order until the first failure (Sec 10.1:
/// "resources are allocated to application graphs till no valid resource
/// allocation is found for a graph — a conservative estimate on the
/// number of applications").
pub fn allocate_until_failure(
    apps: &[ApplicationGraph],
    arch: &ArchitectureGraph,
    config: &FlowConfig,
) -> MultiAppResult {
    // One allocator (and thus one evaluation cache) for the whole
    // sequence: identical applications allocated against an unchanged
    // platform state (e.g. after a failed sibling) replay their slice
    // searches from memory.
    let mut allocator = Allocator::from_config(*config);
    allocate_until_failure_with(&mut allocator, apps, arch)
}

/// [`allocate_until_failure`] through an existing [`Allocator`] (behind
/// [`Allocator::allocate_sequence`]), sharing its cache and emitting one
/// [`AdmissionDecision`](FlowEvent::AdmissionDecision) per application on
/// its sink.
pub(crate) fn allocate_until_failure_with(
    allocator: &mut Allocator,
    apps: &[ApplicationGraph],
    arch: &ArchitectureGraph,
) -> MultiAppResult {
    let mut state = PlatformState::new(arch);
    let mut allocations = Vec::new();
    let mut stats = Vec::new();
    let mut failure = None;
    let mut failed_app = None;
    for (index, app) in apps.iter().enumerate() {
        match allocator.allocate(app, arch, &state) {
            Ok((alloc, s)) => {
                alloc.claim_set().apply(&mut state);
                allocations.push(alloc);
                stats.push(s);
                allocator.emit(|| FlowEvent::AdmissionDecision {
                    index,
                    app: app.graph().name().to_string(),
                    admitted: true,
                    detail: String::new(),
                });
            }
            Err(e) => {
                allocator.emit(|| FlowEvent::AdmissionDecision {
                    index,
                    app: app.graph().name().to_string(),
                    admitted: false,
                    detail: e.to_string(),
                });
                failure = Some(e);
                failed_app = Some(AppId::from_index(index));
                break;
            }
        }
    }
    MultiAppResult {
        allocations,
        stats,
        failure,
        failed_app,
        final_state: state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};

    #[test]
    fn sequence_of_examples_until_wheel_runs_out() {
        // The example app repeated: each copy claims wheel time; the 10-unit
        // wheels bound how many copies fit.
        let apps: Vec<ApplicationGraph> = (0..8).map(|_| paper_example()).collect();
        let arch = example_platform();
        let result = allocate_until_failure(&apps, &arch, &FlowConfig::default());
        assert!(result.bound_count() >= 1, "at least one copy must fit");
        assert!(
            result.bound_count() < 8,
            "eight copies cannot fit a 10-unit wheel"
        );
        assert!(result.failure.is_some());
        assert!(result.total_throughput_checks() >= result.bound_count());
        // Claimed wheel time never exceeds the platform's total.
        let total_wheel: u64 = arch.tile_ids().map(|t| arch.tile(t).wheel_size()).sum();
        assert!(result.total_usage().wheel <= total_wheel);
    }

    #[test]
    fn empty_sequence_binds_nothing() {
        let arch = example_platform();
        let result = allocate_until_failure(&[], &arch, &FlowConfig::default());
        assert_eq!(result.bound_count(), 0);
        assert!(result.failure.is_none());
        assert_eq!(result.total_usage(), TileUsage::default());
    }

    #[test]
    fn first_failure_stops_the_sequence() {
        use sdfrs_sdf::Rational;
        // Second app impossible: the sequence must stop there even though
        // the third would fit.
        let apps = vec![
            paper_example(),
            paper_example().with_throughput_constraint(Rational::new(1, 2)),
            paper_example(),
        ];
        let arch = example_platform();
        let result = allocate_until_failure(&apps, &arch, &FlowConfig::default());
        assert_eq!(result.bound_count(), 1);
        assert_eq!(result.failure, Some(MapError::ConstraintUnsatisfiable));
        assert_eq!(result.failed_app, Some(AppId::from_index(1)));
    }
}
