//! What one solve returns: the allocation to commit, its statistics, and
//! — under the searching policies — a certified [`SolveReport`].
//!
//! [`Allocator::solve`](crate::Allocator::solve) is the one place an
//! [`AdmissionPolicy`](crate::AdmissionPolicy) picks its solver: the
//! heuristic policies run the paper's three-step flow and attach no
//! report; `Exact` runs the [`exact`](crate::exact) branch-and-bound
//! search and commits its full-remaining-wheel witness; `Portfolio`
//! commits the heuristic's (minimal, admission-friendly) allocation and
//! spends the search's node budget certifying a bound pair around it.
//!
//! The bounds in a [`SolveReport`] always refer to the *optimal
//! achievable* guaranteed iteration throughput for this application on
//! this (partially occupied) platform — `lower` is witnessed by a
//! concrete allocation, `upper` is certified by the LP relaxation /
//! structural bounds. The committed allocation's own
//! [`guaranteed_throughput`](Allocation::guaranteed_throughput) may be
//! smaller (the heuristic stops once the constraint λ is met).

use sdfrs_sdf::Rational;

use crate::flow::{Allocation, FlowStats};

/// Which searching policy produced a [`SolveReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Branch-and-bound with LP-relaxation pruning.
    Exact,
    /// Greedy allocation, exact-search-tightened bounds.
    Portfolio,
}

impl SolverKind {
    /// Stable lower-case label (CLI values, JSONL fields, event payloads).
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Exact => "exact",
            SolverKind::Portfolio => "portfolio",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Certified bounds and proof-of-work statistics of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveReport {
    /// The policy that produced this report.
    pub kind: SolverKind,
    /// Certified lower bound: the guaranteed iteration throughput of the
    /// best allocation found (witnessed, not estimated).
    pub lower: Rational,
    /// Certified upper bound on the optimal achievable guaranteed
    /// iteration throughput (LP relaxation / structural bounds / a
    /// completed search). Always ≥ `lower`.
    pub upper: Rational,
    /// Relative optimality gap `(upper − lower) / upper` (0 when
    /// `upper` is 0).
    pub gap: Rational,
    /// `true` when the search proved `lower` optimal (`gap == 0` via a
    /// completed enumeration, not merely a coincidentally tight bound
    /// pair — though both imply optimality).
    pub proven_optimal: bool,
    /// Branch-and-bound nodes expanded.
    pub nodes_expanded: u64,
    /// Simplex pivots across all LP-relaxation bound computations.
    pub lp_pivots: u64,
    /// Subtrees pruned because their LP bound could not beat the
    /// incumbent (or the throughput constraint).
    pub pruned_bound: u64,
    /// Children discarded for resource infeasibility.
    pub pruned_infeasible: u64,
    /// Complete bindings evaluated with the full throughput machinery.
    pub leaves_evaluated: u64,
}

impl SolveReport {
    /// The relative gap `(upper − lower) / upper`, the figure of merit
    /// of the EXPERIMENTS.md gap study.
    pub fn gap_between(lower: Rational, upper: Rational) -> Rational {
        if upper > Rational::ZERO {
            (upper - lower) / upper
        } else {
            Rational::ZERO
        }
    }
}

/// What [`Allocator::solve`](crate::Allocator::solve) returns: the
/// allocation to commit plus the run's statistics and, under the
/// searching policies, its certified-bound report.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The allocation to commit.
    pub allocation: Allocation,
    /// Flow statistics of the run that produced the allocation.
    pub stats: FlowStats,
    /// Certified bounds and proof-of-work statistics; `None` under the
    /// heuristic policies.
    pub report: Option<SolveReport>,
}

impl SolveOutcome {
    pub(crate) fn new(
        allocation: Allocation,
        stats: FlowStats,
        report: Option<SolveReport>,
    ) -> Self {
        SolveOutcome {
            allocation,
            stats,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SolverKind::Exact.name(), "exact");
        assert_eq!(SolverKind::Portfolio.name(), "portfolio");
        assert_eq!(SolverKind::Portfolio.to_string(), "portfolio");
    }

    #[test]
    fn gap_between_handles_zero_upper() {
        assert_eq!(
            SolveReport::gap_between(Rational::ZERO, Rational::ZERO),
            Rational::ZERO
        );
        assert_eq!(
            SolveReport::gap_between(Rational::new(1, 2), Rational::ONE),
            Rational::new(1, 2)
        );
    }
}
