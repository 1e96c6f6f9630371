//! Differential conformance harness for the allocation flow.
//!
//! The paper's central claim — that self-timed exploration of the
//! binding-aware SDFG computes the same throughput as analysis of the
//! (exponentially larger) HSDF conversion — gives us a free oracle, and
//! the workspace's own redundancy (cached vs. uncached evaluation,
//! parallel vs. sequential search, the independent verifier, the event
//! stream vs. the aggregated stats, the online admission service vs. the
//! batch protocols, regional admissions vs. the verifier and the
//! residual they leave, the networked front-end vs. its own commit log,
//! the request span tree vs. the metrics registry, the exact solver vs.
//! enumeration, the event-driven constrained executor vs. a reference
//! scan) gives us ten more.
//! This crate runs seeded random [`Scenario`]s through the whole panel:
//!
//! 1. **HSDF equivalence** — self-timed throughput of the binding-aware
//!    graph vs. `γ/MCM` of its HSDF conversion
//!    ([`sdfrs_sdf::hsdf::hsdf_reference_throughput`]), per weakly
//!    connected component;
//! 2. **cache consistency** — a cached [`Allocator`](sdfrs_core::Allocator)
//!    run vs. a cache-disabled run must produce the same allocation (or
//!    error);
//! 3. **parallel consistency** — parallel vs. sequential slice
//!    refinement, and parallel vs. sequential DSE sweeps;
//! 4. **invariants** — every produced allocation passes
//!    [`verify_allocation`](sdfrs_core::verify::verify_allocation) with
//!    zero violations;
//! 5. **event reconciliation** — the recorded `FlowEvent` stream agrees
//!    with the counts the flow's steps returned in `FlowStats`, and the
//!    metrics registry with both;
//! 6. **session reclamation** — after an admit → depart → admit trace
//!    through the [`AllocationService`](sdfrs_core::AllocationService),
//!    the surviving sessions match a fresh `allocate_sequence` of the
//!    same applications (departures reclaim *exactly* what was claimed);
//! 7. **regional admission validity** — with the platform partitioned
//!    into regions (including single-tile regions that force the
//!    escalation path), every regional admission passes
//!    [`verify_allocation`](sdfrs_core::verify::verify_allocation)
//!    against the residual it was admitted on, and the final residual
//!    equals a fresh platform with every live session's claim applied;
//! 8. **network/replay equivalence** — the same trace driven through a
//!    real loopback [`NetServer`](sdfrs_net::NetServer) over TCP (two
//!    interleaved connections) must leave a commit log whose offline
//!    [`replay_commit_log`](sdfrs_core::service::replay_commit_log)
//!    reproduces the live server's residual state byte-for-byte;
//! 9. **trace reconciliation** — a traced service admit's span tree
//!    (the [`RequestTrace`](sdfrs_core::RequestTrace) event capture)
//!    must hold one probe event per throughput check, and one cache-hit
//!    probe per hit, that the throughput cache counted into the
//!    service's registry, and the trace id must not influence the
//!    allocation (identical event streams under different ids);
//! 10. **exact optimality** — on instances small enough to enumerate
//!     (≤ 4 actors, ≤ 2 tiles), the branch-and-bound
//!     [`exact`](sdfrs_core::exact) solver must match the budget-free
//!     exhaustive enumeration bit-for-bit (binding, schedules, slices,
//!     achieved throughput), must never report a worse lower bound than
//!     the greedy heuristic achieves, and both must satisfy the
//!     throughput constraint λ whenever they admit;
//! 11. **executor equivalence** — the event-driven
//!     [`ConstrainedExecutor`](sdfrs_core::ConstrainedExecutor) must return
//!     the `Result<ThroughputResult, SdfError>` of a reference scan
//!     executor that keeps the textbook state (remaining in-slice work per
//!     firing, every actor scanned each round, every state stored), on the
//!     scenario's binding-aware graph and static orders at the allocated
//!     slices, at full wheels and at 1-unit slices — equal in every field
//!     but `states_explored` and `transient_time`, which move with the
//!     core's iteration-end storage — and never exceed the
//!     [`ProcessingBound`](sdfrs_core::slice::ProcessingBound); the
//!     throughput must not fall as slices grow under the scenario's static
//!     orders; and the slice search, which answers probes by monotonicity
//!     and speculates, must return the allocation, counts and sequence of
//!     checks of the exact search that explores every probe the bound
//!     leaves.
//!
//! A failing scenario is [`shrink`](shrink::shrink)-able to a minimal
//! reproduction that still fails one of the oracles it failed
//! ([`shrink::still_fails`]) and persisted as a `.ron` [`corpus`] file,
//! which the `conformance` test suite replays forever after.

pub mod corpus;
mod oracles;
mod reference;
pub mod shrink;

use std::time::Duration;

use sdfrs_core::cost::CostWeights;
use sdfrs_core::flow::FlowConfig;
use sdfrs_core::{FlowEvent, MetricsSnapshot};
pub use sdfrs_gen::{Scenario, ScenarioConfig};

/// Deliberate defects for exercising the harness itself: prove that a
/// divergence *would* be caught and shrunk before trusting a green sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Report one extra reference-actor completion per period from the
    /// self-timed side of oracle 1 (a test-only executor shim).
    SelfTimedOffByOne,
}

/// Configuration of one harness run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Scenario size bounds (see [`ScenarioConfig`]).
    pub scenario: ScenarioConfig,
    /// Flow configuration for every allocation the oracles run.
    pub flow: FlowConfig,
    /// Skip the HSDF oracle when the conversion would exceed this many
    /// actors — the exponential blow-up is the *reason* the paper avoids
    /// this route; the oracle only needs it to be tractable sometimes.
    pub hsdf_limit: u64,
    /// State budget for the self-timed side of the HSDF oracle.
    pub selftimed_budget: usize,
    /// Eqn 2 weight panel for the DSE half of the parallel oracle.
    pub dse_weights: Vec<CostWeights>,
    /// Keep the base run's event stream in the report (for `--trace`).
    pub keep_events: bool,
    /// Inject a deliberate defect (harness self-tests only).
    pub fault: Option<FaultInjection>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        // Generated TDMA wheels are larger than the paper example's; the
        // constrained state space needs the same headroom as the
        // robustness sweep.
        let flow = FlowConfig::builder()
            .schedule_state_budget(300_000)
            .slice_state_budget(300_000)
            .build()
            .expect("static harness flow config is valid");
        HarnessConfig {
            scenario: ScenarioConfig::default(),
            flow,
            hsdf_limit: 1_500,
            selftimed_budget: 300_000,
            dse_weights: vec![CostWeights::PROCESSING, CostWeights::BALANCED],
            keep_events: false,
            fault: None,
        }
    }
}

/// The oracle panel, for labelling failures and skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleId {
    /// Self-timed vs. HSDF MCR throughput on the binding-aware graph.
    HsdfEquivalence,
    /// Cached vs. cache-disabled allocation.
    CacheConsistency,
    /// Parallel vs. sequential slice refinement and DSE.
    ParallelConsistency,
    /// `verify_allocation` on the produced allocation.
    Invariants,
    /// Event stream vs. `FlowStats`.
    EventReconciliation,
    /// The service's surviving sessions vs. a fresh batch allocation of
    /// their applications (exact reclamation under LIFO departures).
    SessionReclamation,
    /// Regional admissions vs. `verify_allocation` on the residual they
    /// were admitted on, and the final residual vs. the live sessions'
    /// claims.
    RegionalAdmissionValidity,
    /// Networked service run vs. offline replay of its commit log
    /// (residual digest, live sessions, commit accounting).
    NetReplay,
    /// Request span tree vs. the metrics registry (per-request event
    /// capture folds into the same flow counters), plus trace-id
    /// independence of the allocation.
    TraceReconciliation,
    /// Branch-and-bound exact solver vs. exhaustive enumeration (bit
    /// identical on enumerable instances) and vs. the greedy heuristic
    /// (never worse, both constraint-satisfying).
    ExactOptimality,
    /// Event-driven constrained executor vs. the reference scan executor
    /// (equal throughput results or errors at three slice settings, but
    /// for states explored and transient time), vs. the processing bound
    /// and vs. monotonicity in the slices; the slice search vs. the exact
    /// reference search.
    ExecutorEquivalence,
}

impl OracleId {
    /// Stable label used in JSONL result lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            OracleId::HsdfEquivalence => "hsdf_equivalence",
            OracleId::CacheConsistency => "cache_consistency",
            OracleId::ParallelConsistency => "parallel_consistency",
            OracleId::Invariants => "invariants",
            OracleId::EventReconciliation => "event_reconciliation",
            OracleId::SessionReclamation => "session_reclamation",
            OracleId::RegionalAdmissionValidity => "regional_admission_validity",
            OracleId::NetReplay => "net_replay_equivalence",
            OracleId::TraceReconciliation => "trace_reconciliation",
            OracleId::ExactOptimality => "exact_optimality",
            OracleId::ExecutorEquivalence => "executor_equivalence",
        }
    }
}

/// One oracle disagreeing on one scenario.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Which oracle fired.
    pub oracle: OracleId,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// Everything the panel observed on one scenario.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Seed, when the scenario was sampled (corpus replays have none).
    pub seed: Option<u64>,
    /// Scenario name.
    pub scenario: String,
    /// Whether the base allocation succeeded (an infeasible scenario is
    /// *not* a failure — the oracles then check error agreement instead).
    pub allocated: bool,
    /// The base allocation error, if any.
    pub error: Option<String>,
    /// Oracle divergences. Empty means the scenario conforms.
    pub failures: Vec<OracleFailure>,
    /// Oracles that could not run, with the reason (e.g. the HSDF
    /// conversion exceeding [`HarnessConfig::hsdf_limit`]).
    pub skipped: Vec<(OracleId, String)>,
    /// Oracle 11's slice settings where the processing bound lies below
    /// λ but the exploration errs: a slice search answers such a probe
    /// "infeasible" from the bound instead of failing with the error.
    pub bound_answered_errors: usize,
    /// The base run's event stream (only with
    /// [`HarnessConfig::keep_events`]).
    pub events: Vec<(Duration, FlowEvent)>,
    /// Metrics registry snapshot of the base run (always collected — the
    /// reconciliation oracle compares it against `FlowStats` and the
    /// event stream).
    pub metrics: Option<MetricsSnapshot>,
}

impl ScenarioReport {
    /// `true` when no oracle diverged.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One JSONL result line (the CLI's `--log` format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        if let Some(seed) = self.seed {
            out.push_str(&format!("\"seed\":{seed},"));
        }
        out.push_str(&format!(
            "\"scenario\":\"{}\",\"allocated\":{},",
            self.scenario, self.allocated
        ));
        if let Some(e) = &self.error {
            out.push_str(&format!("\"error\":\"{}\",", e.replace('"', "'")));
        }
        out.push_str("\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"oracle\":\"{}\",\"detail\":\"{}\"}}",
                f.oracle.as_str(),
                f.detail.replace('"', "'")
            ));
        }
        out.push_str("],\"skipped\":[");
        for (i, (o, _)) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", o.as_str()));
        }
        out.push(']');
        out.push_str(&format!(
            ",\"bound_answered_errors\":{}",
            self.bound_answered_errors
        ));
        if let Some(m) = &self.metrics {
            // Counters only: a full snapshot (histograms, per-tile
            // vectors) would dwarf the result line.
            out.push_str(",\"metrics\":{");
            for (i, (name, value)) in m.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{value}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Runs the full oracle panel on one scenario.
pub fn check_scenario(scenario: &Scenario, config: &HarnessConfig) -> ScenarioReport {
    oracles::run_panel(scenario, config)
}

/// Samples the scenario of `seed` and runs the panel on it.
pub fn run_seed(seed: u64, config: &HarnessConfig) -> ScenarioReport {
    let scenario = Scenario::sample_with(&config.scenario, seed);
    let mut report = check_scenario(&scenario, config);
    report.seed = Some(seed);
    report
}

/// Runs the panel on every seed, returning one report per seed.
pub fn run_seeds(
    seeds: impl IntoIterator<Item = u64>,
    config: &HarnessConfig,
) -> Vec<ScenarioReport> {
    seeds.into_iter().map(|s| run_seed(s, config)).collect()
}
