//! Low-overhead metrics: counters, gauges, histograms, and a phase
//! profiler for quantifying the *work* behind the allocation flow.
//!
//! The [`FlowEvent`] stream shows the
//! *decisions* the Sec 9 strategy takes; this module measures their
//! *cost* — states explored per throughput probe, cache hit ratios,
//! bind attempts per tile, binary-search iteration counts, and where
//! wall-clock time goes (flow → bind / schedule / slice → probe).
//!
//! The registry is a fold over that stream:
//! [`MetricsRegistry::record_event`] is the only writer of every
//! instrument an event carries — flow, bind, schedule and slice-iteration
//! counters, admission, DSE, session, queue and solver counters, and the
//! flow and phase times. The observer calls it once per event
//! (see [`FlowObserver::emit`](crate::events::FlowObserver::emit)).
//! Facts no event carries keep exactly one direct writer each: the
//! throughput cache (`throughput_checks`, `cache_hits`, `cache_misses`,
//! `bound_answers`, `monotone_answers`, `discarded_explorations`,
//! `cache_evictions`, `states_explored`, the
//! `cache_entries` gauge, the `probe_states` histogram and the `probe`
//! span), the slice search
//! (`refine_search_iters`), regional admission (`region_*`,
//! `regions_configured`), the commit log (`net_commits_logged`,
//! `net_log_write_failures`) and the network front-end (`net_*`,
//! `traces_*`).
//!
//! A [`Metrics`] handle is either *null* (the default — one branch per
//! instrumentation site, nothing else) or carries an
//! `Arc<`[`MetricsRegistry`]`>` of cache-line-padded atomics
//! ([`sdfrs_fastutil::cell`]) that parallel refinement tasks update
//! without false sharing. All counter and histogram-bucket values are
//! **deterministic** even under parallel refinement: each parallel task
//! runs a deterministic binary search against its own task cache, and
//! probe events are replayed in tile order, so the multiset of recorded
//! observations is independent of thread interleaving; only span
//! *durations* are wall-clock.
//!
//! Two exporters serialize a [`MetricsSnapshot`]: Prometheus text
//! exposition ([`MetricsSnapshot::to_prometheus`]) and deterministic
//! JSON ([`MetricsSnapshot::to_json`]).
//!
//! # Example
//!
//! ```
//! use sdfrs_appmodel::apps::{example_platform, paper_example};
//! use sdfrs_core::metrics::Metrics;
//! use sdfrs_core::Allocator;
//! use sdfrs_platform::PlatformState;
//!
//! # fn main() -> Result<(), sdfrs_core::MapError> {
//! let (app, arch) = (paper_example(), example_platform());
//! let metrics = Metrics::collecting();
//! let mut allocator = Allocator::new().with_metrics(metrics.clone());
//! let (_, stats) = allocator.allocate(&app, &arch, &PlatformState::new(&arch))?;
//! let snapshot = metrics.snapshot().expect("collecting handle");
//! assert_eq!(
//!     snapshot.counter("cache_hits")
//!         + snapshot.counter("cache_misses")
//!         + snapshot.counter("bound_answers")
//!         + snapshot.counter("monotone_answers"),
//!     stats.throughput_checks as u64,
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sdfrs_fastutil::PaddedAtomicU64;

use crate::events::{FlowEvent, FlowPhase, SliceScope};

/// A monotonically increasing event count on its own cache line.
#[derive(Debug, Default)]
pub struct Counter(PaddedAtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.add(delta);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A last-write-wins instantaneous value (e.g. cache residency).
#[derive(Debug, Default)]
pub struct Gauge(PaddedAtomicU64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.set(value);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Bucket `i` counts observations `<= bounds[i]` (non-cumulative
/// storage; the Prometheus exporter accumulates); one overflow bucket
/// catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<PaddedAtomicU64>,
    sum: PaddedAtomicU64,
    count: PaddedAtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            buckets: (0..=bounds.len())
                .map(|_| PaddedAtomicU64::new(0))
                .collect(),
            sum: PaddedAtomicU64::new(0),
            count: PaddedAtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let i = self.bounds.partition_point(|&b| b < value);
        self.buckets[i].add(1);
        self.sum.add(value);
        self.count.add(1);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// A point-in-time copy of the buckets under `name`/`help` — also
    /// used by out-of-registry histograms (the net server's queue-depth
    /// instrument) that render through the same snapshot type.
    pub fn snapshot(&self, name: &'static str, help: &'static str) -> HistogramSnapshot {
        HistogramSnapshot {
            name,
            help,
            bounds: self.bounds.to_vec(),
            counts: self.buckets.iter().map(|b| b.get()).collect(),
            sum: self.sum.get(),
            count: self.count.get(),
        }
    }
}

/// A dense family of counters keyed by a small index (tile number).
///
/// Backed by a mutex, not atomics: binding runs once per flow and is
/// nowhere near the hot path, so simplicity wins over lock-freedom.
#[derive(Debug, Default)]
pub struct IndexedCounter {
    slots: Mutex<Vec<u64>>,
}

impl IndexedCounter {
    /// Adds `delta` to slot `index`, growing the family as needed.
    pub fn add(&self, index: usize, delta: u64) {
        let mut slots = self.slots.lock().expect("indexed counter lock");
        if slots.len() <= index {
            slots.resize(index + 1, 0);
        }
        slots[index] += delta;
    }

    /// All slot values, index order.
    pub fn values(&self) -> Vec<u64> {
        self.slots.lock().expect("indexed counter lock").clone()
    }
}

/// The nodes of the static span hierarchy:
/// `Flow → { Bind, Schedule, Slice → Probe }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole allocation run.
    Flow,
    /// The resource-binding phase (Sec 9.1).
    Bind,
    /// Static-order schedule construction (Sec 9.2).
    Schedule,
    /// TDMA slice allocation (Sec 9.3).
    Slice,
    /// One constrained-throughput state-space exploration (a cache miss).
    Probe,
}

impl SpanKind {
    /// Every kind, hierarchy order (parents before children).
    pub const ALL: [SpanKind; 5] = [
        SpanKind::Flow,
        SpanKind::Bind,
        SpanKind::Schedule,
        SpanKind::Slice,
        SpanKind::Probe,
    ];

    /// Stable snake-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Flow => "flow",
            SpanKind::Bind => "bind",
            SpanKind::Schedule => "schedule",
            SpanKind::Slice => "slice",
            SpanKind::Probe => "probe",
        }
    }

    /// The parent span this kind's time is attributed under.
    pub fn parent(self) -> Option<SpanKind> {
        match self {
            SpanKind::Flow => None,
            SpanKind::Bind | SpanKind::Schedule | SpanKind::Slice => Some(SpanKind::Flow),
            SpanKind::Probe => Some(SpanKind::Slice),
        }
    }

    /// The span a strategy phase's wall time is recorded under.
    pub fn from_phase(phase: FlowPhase) -> SpanKind {
        match phase {
            FlowPhase::Binding => SpanKind::Bind,
            FlowPhase::Scheduling => SpanKind::Schedule,
            FlowPhase::SliceAllocation => SpanKind::Slice,
        }
    }

    fn index(self) -> usize {
        match self {
            SpanKind::Flow => 0,
            SpanKind::Bind => 1,
            SpanKind::Schedule => 2,
            SpanKind::Slice => 3,
            SpanKind::Probe => 4,
        }
    }
}

/// Accumulated wall time and call counts per [`SpanKind`].
#[derive(Debug, Default)]
pub struct Profiler {
    nanos: [PaddedAtomicU64; 5],
    calls: [PaddedAtomicU64; 5],
}

impl Profiler {
    /// Attributes `duration` (and one call) to `kind`.
    #[inline]
    pub fn record(&self, kind: SpanKind, duration: Duration) {
        let i = kind.index();
        self.nanos[i].add(duration.as_nanos() as u64);
        self.calls[i].add(1);
    }

    /// Total nanoseconds attributed to `kind`.
    pub fn nanos(&self, kind: SpanKind) -> u64 {
        self.nanos[kind.index()].get()
    }

    /// Spans finished under `kind`.
    pub fn calls(&self, kind: SpanKind) -> u64 {
        self.calls[kind.index()].get()
    }
}

/// Histogram bounds for states explored per throughput probe
/// (powers of four up to the default state budget's order of magnitude).
const PROBE_STATE_BOUNDS: &[u64] = &[
    16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
];

/// Histogram bounds for binary-search iterations per refinement task.
const REFINE_ITER_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Histogram bounds for requests executed per drained service batch.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Histogram bounds for the escalation depth at which a regional
/// admission committed (0 = home region; the overflow bucket catches the
/// global fallback on deep neighbor chains).
const ESCALATION_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 3];

/// Histogram bounds for network request latency in microseconds
/// (arrival to response write): sub-ms through multi-second, ×4 steps.
/// Unlike every other instrument, observations are wall-clock and thus
/// load-dependent — never compare them across runs.
/// Public so the bench loadgen can bucket its client-side latencies
/// into the same histogram shape the server reports.
pub const NET_LATENCY_BOUNDS: &[u64] = &[
    100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400, 6_553_600,
];

/// Name, help text, and snapshot order of every registry counter.
/// The single source the exporters and [`MetricsSnapshot::counter`]
/// agree on.
const COUNTERS: &[(&str, &str)] = &[
    ("flows_started", "Allocation runs started."),
    (
        "flows_succeeded",
        "Allocation runs that produced a valid allocation.",
    ),
    ("flows_failed", "Allocation runs that returned an error."),
    (
        "bind_attempts",
        "Candidate tiles tried across both binding passes.",
    ),
    (
        "bind_accepted",
        "Bind attempts whose resource-constraint check held.",
    ),
    ("actors_rebound", "Actors moved by the re-binding pass."),
    (
        "schedules_constructed",
        "Static-order schedules fixed (one per scheduled tile).",
    ),
    (
        "schedule_states",
        "States explored by the list scheduler until recurrence.",
    ),
    (
        "global_slice_iterations",
        "Global slice binary-search probes.",
    ),
    (
        "refine_slice_iterations",
        "Per-tile refinement, commit and final probes.",
    ),
    (
        "throughput_checks",
        "Constrained-throughput evaluations requested.",
    ),
    (
        "cache_hits",
        "Evaluations answered from the throughput cache.",
    ),
    (
        "cache_misses",
        "Evaluations that ran the state-space exploration.",
    ),
    (
        "bound_answers",
        "Slice probes the processing bound answered infeasible without exploring.",
    ),
    (
        "monotone_answers",
        "Slice probes an explored dominating or dominated slice vector answered.",
    ),
    (
        "discarded_explorations",
        "Explorations of a discarded slice-search speculation (no reported probe).",
    ),
    (
        "cache_evictions",
        "Memoized evaluations dropped by cache clears and the entry cap.",
    ),
    (
        "states_explored",
        "Constrained state-space states explored across all probes.",
    ),
    (
        "admission_admitted",
        "Applications admitted by an admission protocol.",
    ),
    (
        "admission_rejected",
        "Applications rejected or skipped by an admission protocol.",
    ),
    ("dse_points", "Design-space-exploration points evaluated."),
    (
        "service_requests",
        "Requests accepted into an allocation-service queue.",
    ),
    (
        "sessions_admitted",
        "Applications admitted as live service sessions.",
    ),
    (
        "sessions_departed",
        "Service sessions departed (resources reclaimed).",
    ),
    (
        "sessions_rebound",
        "Service sessions re-allocated after departures freed capacity.",
    ),
    (
        "region_admits_local",
        "Regional admissions committed entirely inside their home region.",
    ),
    (
        "region_escalations",
        "Regional admissions that escalated beyond their home region.",
    ),
    (
        "net_connections_opened",
        "TCP connections accepted by the network front-end.",
    ),
    (
        "net_connections_closed",
        "Network connections closed (client disconnect, fault, or drain).",
    ),
    (
        "net_requests_received",
        "Requests parsed off network connections.",
    ),
    (
        "net_requests_shed",
        "Requests shed with a typed Overloaded response at the queue watermark.",
    ),
    (
        "net_deadlines_expired",
        "Requests answered with a typed deadline response instead of executing.",
    ),
    (
        "net_parse_errors",
        "Malformed request lines answered with a typed parse-error response.",
    ),
    (
        "net_commits_logged",
        "Committed mutations appended to the deterministic commit log.",
    ),
    (
        "net_log_write_failures",
        "Commit-log records whose write to the log stream failed (kept in memory).",
    ),
    (
        "net_introspects",
        "Introspection requests answered over the wire.",
    ),
    (
        "traces_recorded",
        "Completed request traces recorded by the flight recorder.",
    ),
    (
        "traces_pinned",
        "Anomalous request traces pinned by the flight recorder.",
    ),
    (
        "solver_runs_exact",
        "Branch-and-bound solver runs started (exact or portfolio backend).",
    ),
    (
        "exact_nodes_expanded",
        "Branch-and-bound nodes expanded across all exact runs.",
    ),
    (
        "exact_lp_pivots",
        "Rational simplex pivots across all LP-relaxation bounds.",
    ),
    (
        "exact_prunes_bound",
        "Subtrees pruned by the LP/structural bound.",
    ),
    (
        "exact_prunes_infeasible",
        "Children discarded for resource infeasibility.",
    ),
    (
        "exact_leaves_evaluated",
        "Complete bindings evaluated with the throughput machinery.",
    ),
    (
        "exact_proven_optimal",
        "Exact runs that closed the gap and proved optimality.",
    ),
];

/// The full set of instruments the flow records into.
///
/// Every field is updatable through a shared reference (padded atomics,
/// or a mutex for the cold per-tile family), so one registry behind an
/// `Arc` serves the sequential flow and all parallel refinement tasks
/// alike. Counter semantics are documented in the Prometheus `# HELP`
/// lines the exporter emits (see the `COUNTERS` table in the source).
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Allocation runs started.
    pub flows_started: Counter,
    /// Allocation runs that produced a valid allocation.
    pub flows_succeeded: Counter,
    /// Allocation runs that returned an error.
    pub flows_failed: Counter,
    /// Candidate tiles tried across both binding passes.
    pub bind_attempts: Counter,
    /// Bind attempts whose resource-constraint check held.
    pub bind_accepted: Counter,
    /// Actors moved by the re-binding pass.
    pub actors_rebound: Counter,
    /// Static-order schedules fixed (one per scheduled tile).
    pub schedules_constructed: Counter,
    /// States explored by the list scheduler until recurrence.
    pub schedule_states: Counter,
    /// Global slice binary-search probes.
    pub global_slice_iterations: Counter,
    /// Per-tile refinement, commit and final probes.
    pub refine_slice_iterations: Counter,
    /// Constrained-throughput evaluations requested.
    pub throughput_checks: Counter,
    /// Evaluations answered from the throughput cache.
    pub cache_hits: Counter,
    /// Evaluations that ran the state-space exploration.
    pub cache_misses: Counter,
    /// Slice probes the processing bound answered infeasible without
    /// consulting the cache or exploring.
    pub bound_answers: Counter,
    /// Slice probes answered by monotonicity: an explored slice vector
    /// they dominate proved them feasible, or one that dominates them
    /// proved them infeasible.
    pub monotone_answers: Counter,
    /// Explorations the slice search ran on a speculation it discarded:
    /// no reported probe carries their answer.
    pub discarded_explorations: Counter,
    /// Memoized evaluations dropped by cache clears and the entry cap.
    pub cache_evictions: Counter,
    /// Constrained state-space states explored across all probes.
    pub states_explored: Counter,
    /// Applications admitted by an admission protocol.
    pub admission_admitted: Counter,
    /// Applications rejected or skipped by an admission protocol.
    pub admission_rejected: Counter,
    /// Design-space-exploration points evaluated.
    pub dse_points: Counter,
    /// Requests accepted into an allocation-service queue.
    pub service_requests: Counter,
    /// Applications admitted as live service sessions.
    pub sessions_admitted: Counter,
    /// Service sessions departed (resources reclaimed).
    pub sessions_departed: Counter,
    /// Service sessions re-allocated after departures freed capacity.
    pub sessions_rebound: Counter,
    /// Regional admissions committed entirely inside their home region.
    pub region_admits_local: Counter,
    /// Regional admissions that escalated beyond their home region.
    pub region_escalations: Counter,
    /// TCP connections accepted by the network front-end.
    pub net_connections_opened: Counter,
    /// Network connections closed (disconnect, fault, or drain).
    pub net_connections_closed: Counter,
    /// Requests parsed off network connections.
    pub net_requests_received: Counter,
    /// Requests shed with a typed `Overloaded` response because the
    /// service queue crossed the backpressure watermark.
    pub net_requests_shed: Counter,
    /// Requests answered with a typed deadline response (queued past
    /// their deadline, or trickled in slower than the read deadline).
    pub net_deadlines_expired: Counter,
    /// Malformed request lines answered with a typed parse error.
    pub net_parse_errors: Counter,
    /// Committed mutations appended to the deterministic commit log.
    pub net_commits_logged: Counter,
    /// Commit-log records whose write to the log stream failed (the
    /// in-memory record is kept).
    pub net_log_write_failures: Counter,
    /// Introspection requests answered over the wire.
    pub net_introspects: Counter,
    /// Completed request traces recorded by the flight recorder.
    pub traces_recorded: Counter,
    /// Anomalous request traces pinned by the flight recorder.
    pub traces_pinned: Counter,
    /// Branch-and-bound solver runs started (exact or portfolio backend).
    pub solver_runs_exact: Counter,
    /// Branch-and-bound nodes expanded across all exact runs.
    pub exact_nodes_expanded: Counter,
    /// Rational simplex pivots across all LP-relaxation bounds.
    pub exact_lp_pivots: Counter,
    /// Subtrees pruned by the LP/structural bound.
    pub exact_prunes_bound: Counter,
    /// Children discarded for resource infeasibility.
    pub exact_prunes_infeasible: Counter,
    /// Complete bindings evaluated with the throughput machinery.
    pub exact_leaves_evaluated: Counter,
    /// Exact runs that closed the gap and proved optimality.
    pub exact_proven_optimal: Counter,
    /// Distinct configurations currently memoized by the cache.
    pub cache_entries: Gauge,
    /// Currently live service sessions.
    pub sessions_live: Gauge,
    /// Regions the admission service partitions the platform into
    /// (1 = regional admission disabled).
    pub regions_configured: Gauge,
    /// Currently open network connections.
    pub net_connections_live: Gauge,
    /// States explored per constrained-throughput probe (misses only).
    pub probe_states: Histogram,
    /// Binary-search iterations per per-tile refinement task.
    pub refine_search_iters: Histogram,
    /// Requests executed per drained service batch.
    pub service_queue_depth: Histogram,
    /// Escalation depth at which each regional admission committed
    /// (0 = home region; overflow = global fallback).
    pub region_escalation_depth: Histogram,
    /// Wall-clock request latency of the network front-end in
    /// microseconds (arrival → response write). Load-dependent — the
    /// one instrument that is *not* deterministic for a fixed workload.
    pub net_request_latency_us: Histogram,
    /// Bind attempts per candidate tile index.
    pub bind_attempts_per_tile: IndexedCounter,
    /// Admissions committed per home region index.
    pub region_admits_per_region: IndexedCounter,
    /// Wall time per span of the flow → bind/schedule/slice → probe
    /// hierarchy.
    pub profiler: Profiler,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry with every instrument at zero.
    pub fn new() -> Self {
        MetricsRegistry {
            flows_started: Counter::default(),
            flows_succeeded: Counter::default(),
            flows_failed: Counter::default(),
            bind_attempts: Counter::default(),
            bind_accepted: Counter::default(),
            actors_rebound: Counter::default(),
            schedules_constructed: Counter::default(),
            schedule_states: Counter::default(),
            global_slice_iterations: Counter::default(),
            refine_slice_iterations: Counter::default(),
            throughput_checks: Counter::default(),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            bound_answers: Counter::default(),
            monotone_answers: Counter::default(),
            discarded_explorations: Counter::default(),
            cache_evictions: Counter::default(),
            states_explored: Counter::default(),
            admission_admitted: Counter::default(),
            admission_rejected: Counter::default(),
            dse_points: Counter::default(),
            service_requests: Counter::default(),
            sessions_admitted: Counter::default(),
            sessions_departed: Counter::default(),
            sessions_rebound: Counter::default(),
            region_admits_local: Counter::default(),
            region_escalations: Counter::default(),
            net_connections_opened: Counter::default(),
            net_connections_closed: Counter::default(),
            net_requests_received: Counter::default(),
            net_requests_shed: Counter::default(),
            net_deadlines_expired: Counter::default(),
            net_parse_errors: Counter::default(),
            net_commits_logged: Counter::default(),
            net_log_write_failures: Counter::default(),
            net_introspects: Counter::default(),
            traces_recorded: Counter::default(),
            traces_pinned: Counter::default(),
            solver_runs_exact: Counter::default(),
            exact_nodes_expanded: Counter::default(),
            exact_lp_pivots: Counter::default(),
            exact_prunes_bound: Counter::default(),
            exact_prunes_infeasible: Counter::default(),
            exact_leaves_evaluated: Counter::default(),
            exact_proven_optimal: Counter::default(),
            cache_entries: Gauge::default(),
            sessions_live: Gauge::default(),
            regions_configured: Gauge::default(),
            net_connections_live: Gauge::default(),
            probe_states: Histogram::new(PROBE_STATE_BOUNDS),
            refine_search_iters: Histogram::new(REFINE_ITER_BOUNDS),
            service_queue_depth: Histogram::new(QUEUE_DEPTH_BOUNDS),
            region_escalation_depth: Histogram::new(ESCALATION_DEPTH_BOUNDS),
            net_request_latency_us: Histogram::new(NET_LATENCY_BOUNDS),
            bind_attempts_per_tile: IndexedCounter::default(),
            region_admits_per_region: IndexedCounter::default(),
            profiler: Profiler::default(),
        }
    }

    fn counter_value(&self, name: &str) -> u64 {
        match name {
            "flows_started" => self.flows_started.get(),
            "flows_succeeded" => self.flows_succeeded.get(),
            "flows_failed" => self.flows_failed.get(),
            "bind_attempts" => self.bind_attempts.get(),
            "bind_accepted" => self.bind_accepted.get(),
            "actors_rebound" => self.actors_rebound.get(),
            "schedules_constructed" => self.schedules_constructed.get(),
            "schedule_states" => self.schedule_states.get(),
            "global_slice_iterations" => self.global_slice_iterations.get(),
            "refine_slice_iterations" => self.refine_slice_iterations.get(),
            "throughput_checks" => self.throughput_checks.get(),
            "cache_hits" => self.cache_hits.get(),
            "cache_misses" => self.cache_misses.get(),
            "bound_answers" => self.bound_answers.get(),
            "monotone_answers" => self.monotone_answers.get(),
            "discarded_explorations" => self.discarded_explorations.get(),
            "cache_evictions" => self.cache_evictions.get(),
            "states_explored" => self.states_explored.get(),
            "admission_admitted" => self.admission_admitted.get(),
            "admission_rejected" => self.admission_rejected.get(),
            "dse_points" => self.dse_points.get(),
            "service_requests" => self.service_requests.get(),
            "sessions_admitted" => self.sessions_admitted.get(),
            "sessions_departed" => self.sessions_departed.get(),
            "sessions_rebound" => self.sessions_rebound.get(),
            "region_admits_local" => self.region_admits_local.get(),
            "region_escalations" => self.region_escalations.get(),
            "net_connections_opened" => self.net_connections_opened.get(),
            "net_connections_closed" => self.net_connections_closed.get(),
            "net_requests_received" => self.net_requests_received.get(),
            "net_requests_shed" => self.net_requests_shed.get(),
            "net_deadlines_expired" => self.net_deadlines_expired.get(),
            "net_parse_errors" => self.net_parse_errors.get(),
            "net_commits_logged" => self.net_commits_logged.get(),
            "net_log_write_failures" => self.net_log_write_failures.get(),
            "net_introspects" => self.net_introspects.get(),
            "traces_recorded" => self.traces_recorded.get(),
            "traces_pinned" => self.traces_pinned.get(),
            "solver_runs_exact" => self.solver_runs_exact.get(),
            "exact_nodes_expanded" => self.exact_nodes_expanded.get(),
            "exact_lp_pivots" => self.exact_lp_pivots.get(),
            "exact_prunes_bound" => self.exact_prunes_bound.get(),
            "exact_prunes_infeasible" => self.exact_prunes_infeasible.get(),
            "exact_leaves_evaluated" => self.exact_leaves_evaluated.get(),
            "exact_proven_optimal" => self.exact_proven_optimal.get(),
            other => unreachable!("unregistered counter `{other}`"),
        }
    }

    /// Folds one [`FlowEvent`] into the registry: the only writer of
    /// every instrument an event carries, flow and phase times included.
    /// The observer calls it for each event it emits; consumers that
    /// hold only events (a replayed trace) call it directly.
    pub fn record_event(&self, event: &FlowEvent) {
        match event {
            FlowEvent::FlowStarted { .. } => self.flows_started.inc(),
            FlowEvent::FlowFinished { ok, duration } => {
                if *ok {
                    self.flows_succeeded.inc();
                } else {
                    self.flows_failed.inc();
                }
                self.profiler.record(SpanKind::Flow, *duration);
            }
            FlowEvent::PhaseFinished { phase, duration } => {
                self.profiler
                    .record(SpanKind::from_phase(*phase), *duration);
            }
            FlowEvent::BindAttempt { tile, accepted, .. } => {
                self.bind_attempts.inc();
                self.bind_attempts_per_tile.add(*tile, 1);
                if *accepted {
                    self.bind_accepted.inc();
                }
            }
            FlowEvent::ActorRebound { .. } => self.actors_rebound.inc(),
            FlowEvent::ScheduleRecurrence { states } => {
                self.schedule_states.add(*states as u64);
            }
            FlowEvent::ScheduleConstructed { .. } => self.schedules_constructed.inc(),
            // Checks, hits, misses, bound and monotone answers are the
            // cache's to count: it also sees the evaluations no probe
            // event reports (exact-solver leaves, probes that fail).
            FlowEvent::SliceProbe { scope, .. } => match scope {
                SliceScope::Global { .. } => self.global_slice_iterations.inc(),
                SliceScope::Refine { .. } | SliceScope::Commit { .. } | SliceScope::Final => {
                    self.refine_slice_iterations.inc();
                }
            },
            FlowEvent::AdmissionDecision { admitted, .. } => {
                if *admitted {
                    self.admission_admitted.inc();
                } else {
                    self.admission_rejected.inc();
                }
            }
            FlowEvent::DsePointEvaluated { .. } => self.dse_points.inc(),
            FlowEvent::ServiceRequestQueued { .. } => self.service_requests.inc(),
            FlowEvent::ServiceBatchDrained { requests, .. } => {
                self.service_queue_depth.observe(*requests as u64);
            }
            FlowEvent::SessionAdmitted { live, .. } => {
                self.sessions_admitted.inc();
                self.sessions_live.set(*live as u64);
            }
            FlowEvent::SessionDeparted { live, .. } => {
                self.sessions_departed.inc();
                self.sessions_live.set(*live as u64);
            }
            FlowEvent::SessionRebound { .. } => self.sessions_rebound.inc(),
            FlowEvent::SolverStarted { .. } => self.solver_runs_exact.inc(),
            FlowEvent::SolverFinished {
                proven_optimal,
                nodes,
                lp_pivots,
                pruned_bound,
                pruned_infeasible,
                leaves,
                ..
            } => {
                self.exact_nodes_expanded.add(*nodes);
                self.exact_lp_pivots.add(*lp_pivots);
                self.exact_prunes_bound.add(*pruned_bound);
                self.exact_prunes_infeasible.add(*pruned_infeasible);
                self.exact_leaves_evaluated.add(*leaves);
                if *proven_optimal {
                    self.exact_proven_optimal.inc();
                }
            }
            _ => {}
        }
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: COUNTERS
                .iter()
                .map(|&(name, _)| (name, self.counter_value(name)))
                .collect(),
            cache_entries: self.cache_entries.get(),
            sessions_live: self.sessions_live.get(),
            regions_configured: self.regions_configured.get(),
            net_connections_live: self.net_connections_live.get(),
            bind_attempts_per_tile: self.bind_attempts_per_tile.values(),
            region_admits_per_region: self.region_admits_per_region.values(),
            histograms: vec![
                self.probe_states.snapshot(
                    "probe_states",
                    "States explored per constrained-throughput probe (cache misses only).",
                ),
                self.refine_search_iters.snapshot(
                    "refine_search_iters",
                    "Binary-search iterations per per-tile refinement task.",
                ),
                self.service_queue_depth.snapshot(
                    "service_queue_depth",
                    "Requests executed per drained service batch.",
                ),
                self.region_escalation_depth.snapshot(
                    "region_escalation_depth",
                    "Escalation depth at which each regional admission committed.",
                ),
                self.net_request_latency_us.snapshot(
                    "net_request_latency_us",
                    "Wall-clock network request latency in microseconds (load-dependent).",
                ),
            ],
            phases: SpanKind::ALL
                .iter()
                .map(|&k| PhaseSnapshot {
                    name: k.name(),
                    parent: k.parent().map(SpanKind::name),
                    nanos: self.profiler.nanos(k),
                    calls: self.profiler.calls(k),
                })
                .collect(),
        }
    }
}

/// The no-op recorder: converts into a null [`Metrics`] handle, making
/// `allocator.with_metrics(NullMetrics)` read like the
/// [`NullSink`](crate::events::NullSink) it mirrors.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMetrics;

/// A cheap, cloneable recording handle: either null (the default;
/// every instrumentation site reduces to one branch) or backed by a
/// shared [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<MetricsRegistry>>,
}

impl Metrics {
    /// The disabled handle (same as `Metrics::default()`).
    pub fn null() -> Self {
        Metrics { registry: None }
    }

    /// A handle backed by a fresh registry. Clones share the registry.
    pub fn collecting() -> Self {
        Metrics {
            registry: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// `false` on the null handle.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Runs `f` against the registry; a no-op on the null handle.
    #[inline]
    pub fn record(&self, f: impl FnOnce(&MetricsRegistry)) {
        if let Some(registry) = &self.registry {
            f(registry);
        }
    }

    /// The backing registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Snapshots the registry; `None` on the null handle.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

impl From<NullMetrics> for Metrics {
    fn from(_: NullMetrics) -> Self {
        Metrics::null()
    }
}

impl From<Arc<MetricsRegistry>> for Metrics {
    fn from(registry: Arc<MetricsRegistry>) -> Self {
        Metrics {
            registry: Some(registry),
        }
    }
}

impl From<MetricsRegistry> for Metrics {
    fn from(registry: MetricsRegistry) -> Self {
        Metrics {
            registry: Some(Arc::new(registry)),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name (snake case, no `sdfrs_` prefix).
    pub name: &'static str,
    /// Help text the Prometheus exporter emits.
    pub help: &'static str,
    /// Upper bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the
    /// last is the overflow bucket). Non-cumulative.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

/// A point-in-time copy of one profiler span node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Span name (`flow`, `bind`, `schedule`, `slice`, `probe`).
    pub name: &'static str,
    /// Parent span name, `None` for the root.
    pub parent: Option<&'static str>,
    /// Total nanoseconds attributed to this span.
    pub nanos: u64,
    /// Spans finished.
    pub calls: u64,
}

/// A deterministic, comparable copy of a [`MetricsRegistry`] — what the
/// exporters serialize and what the conformance oracle reconciles
/// against [`FlowStats`](crate::FlowStats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, fixed registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// The cache-residency gauge.
    pub cache_entries: u64,
    /// The live-session gauge.
    pub sessions_live: u64,
    /// The configured-regions gauge (1 = regional admission disabled).
    pub regions_configured: u64,
    /// The open-network-connections gauge.
    pub net_connections_live: u64,
    /// Bind attempts per tile index.
    pub bind_attempts_per_tile: Vec<u64>,
    /// Admissions committed per home region index.
    pub region_admits_per_region: Vec<u64>,
    /// Every histogram, fixed registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Every profiler span node, hierarchy order.
    pub phases: Vec<PhaseSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name`; panics on an unregistered name
    /// (a typo in a test, never a runtime condition).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unregistered counter `{name}`"))
            .1
    }

    /// A copy with all span durations zeroed: everything that remains
    /// is deterministic for a fixed scenario (counters, per-tile
    /// families, histogram buckets, call counts), so two runs can be
    /// compared with `==`.
    pub fn without_timings(&self) -> MetricsSnapshot {
        let mut copy = self.clone();
        for phase in &mut copy.phases {
            phase.nanos = 0;
        }
        copy
    }

    /// Serializes in Prometheus text exposition format (`# HELP` /
    /// `# TYPE` comments, `_total` counter suffixes, cumulative
    /// `_bucket{le=...}` histogram series, span time as
    /// `sdfrs_phase_seconds_total{phase=...}`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for &(name, help) in COUNTERS {
            let value = self.counter(name);
            let _ = writeln!(out, "# HELP sdfrs_{name}_total {help}");
            let _ = writeln!(out, "# TYPE sdfrs_{name}_total counter");
            let _ = writeln!(out, "sdfrs_{name}_total {value}");
        }
        out.push_str("# HELP sdfrs_cache_entries Distinct configurations currently memoized.\n");
        out.push_str("# TYPE sdfrs_cache_entries gauge\n");
        let _ = writeln!(out, "sdfrs_cache_entries {}", self.cache_entries);
        out.push_str("# HELP sdfrs_sessions_live Currently live service sessions.\n");
        out.push_str("# TYPE sdfrs_sessions_live gauge\n");
        let _ = writeln!(out, "sdfrs_sessions_live {}", self.sessions_live);
        out.push_str(
            "# HELP sdfrs_regions_configured Regions the admission service partitions into.\n",
        );
        out.push_str("# TYPE sdfrs_regions_configured gauge\n");
        let _ = writeln!(out, "sdfrs_regions_configured {}", self.regions_configured);
        out.push_str("# HELP sdfrs_net_connections_live Currently open network connections.\n");
        out.push_str("# TYPE sdfrs_net_connections_live gauge\n");
        let _ = writeln!(
            out,
            "sdfrs_net_connections_live {}",
            self.net_connections_live
        );
        if !self.region_admits_per_region.is_empty() {
            out.push_str(
                "# HELP sdfrs_region_admits_per_region_total Admissions committed per home region.\n",
            );
            out.push_str("# TYPE sdfrs_region_admits_per_region_total counter\n");
            for (region, value) in self.region_admits_per_region.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "sdfrs_region_admits_per_region_total{{region=\"{region}\"}} {value}"
                );
            }
        }
        if !self.bind_attempts_per_tile.is_empty() {
            out.push_str(
                "# HELP sdfrs_bind_attempts_per_tile_total Bind attempts per candidate tile.\n",
            );
            out.push_str("# TYPE sdfrs_bind_attempts_per_tile_total counter\n");
            for (tile, value) in self.bind_attempts_per_tile.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "sdfrs_bind_attempts_per_tile_total{{tile=\"{tile}\"}} {value}"
                );
            }
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# HELP sdfrs_{} {}", h.name, h.help);
            let _ = writeln!(out, "# TYPE sdfrs_{} histogram", h.name);
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "sdfrs_{}_bucket{{le=\"{bound}\"}} {cumulative}",
                    h.name
                );
            }
            let _ = writeln!(out, "sdfrs_{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "sdfrs_{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "sdfrs_{}_count {}", h.name, h.count);
        }
        out.push_str("# HELP sdfrs_phase_seconds_total Wall time attributed to each span.\n");
        out.push_str("# TYPE sdfrs_phase_seconds_total counter\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "sdfrs_phase_seconds_total{{phase=\"{}\"}} {}",
                p.name,
                p.nanos as f64 / 1e9
            );
        }
        out.push_str("# HELP sdfrs_phase_calls_total Spans finished per node.\n");
        out.push_str("# TYPE sdfrs_phase_calls_total counter\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "sdfrs_phase_calls_total{{phase=\"{}\"}} {}",
                p.name, p.calls
            );
        }
        out
    }

    /// Serializes as one deterministic JSON object (fixed key order,
    /// no floats except span seconds derived from integer nanos).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        let _ = write!(
            out,
            "}},\"gauges\":{{\"cache_entries\":{},\"sessions_live\":{},\"regions_configured\":{},\"net_connections_live\":{}}}",
            self.cache_entries, self.sessions_live, self.regions_configured, self.net_connections_live
        );
        out.push_str(",\"bind_attempts_per_tile\":[");
        for (i, v) in self.bind_attempts_per_tile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("],\"region_admits_per_region\":[");
        for (i, v) in self.region_admits_per_region.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"bounds\":[", h.name);
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"sum\":{},\"count\":{}}}", h.sum, h.count);
        }
        out.push_str("],\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"parent\":", p.name);
            match p.parent {
                Some(parent) => {
                    let _ = write!(out, "\"{parent}\"");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"nanos\":{},\"calls\":{}}}", p.nanos, p.calls);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_records_nothing_and_snapshots_none() {
        let metrics = Metrics::null();
        assert!(!metrics.enabled());
        metrics.record(|m| m.cache_hits.inc());
        assert!(metrics.snapshot().is_none());
    }

    #[test]
    fn collecting_handle_shares_one_registry_across_clones() {
        let metrics = Metrics::collecting();
        let clone = metrics.clone();
        metrics.record(|m| m.cache_hits.inc());
        clone.record(|m| m.cache_hits.add(2));
        assert_eq!(metrics.snapshot().unwrap().counter("cache_hits"), 3);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        let s = h.snapshot("test", "test");
        assert_eq!(s.counts, vec![2, 2, 2]);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 10 + 11 + 100 + 101 + 5000);
    }

    #[test]
    fn span_hierarchy_is_static() {
        assert_eq!(SpanKind::Flow.parent(), None);
        assert_eq!(SpanKind::Bind.parent(), Some(SpanKind::Flow));
        assert_eq!(SpanKind::Schedule.parent(), Some(SpanKind::Flow));
        assert_eq!(SpanKind::Slice.parent(), Some(SpanKind::Flow));
        assert_eq!(SpanKind::Probe.parent(), Some(SpanKind::Slice));
    }

    #[test]
    fn snapshot_counter_lookup_covers_every_registered_name() {
        let snapshot = MetricsRegistry::new().snapshot();
        for &(name, _) in COUNTERS {
            assert_eq!(snapshot.counter(name), 0);
        }
        assert_eq!(snapshot.counters.len(), COUNTERS.len());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let registry = MetricsRegistry::new();
        registry.cache_hits.add(3);
        registry.cache_misses.add(2);
        registry.probe_states.observe(50);
        registry.probe_states.observe(100_000);
        registry.bind_attempts_per_tile.add(1, 4);
        registry
            .profiler
            .record(SpanKind::Flow, Duration::from_millis(5));
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE sdfrs_cache_hits_total counter"));
        assert!(text.contains("sdfrs_cache_hits_total 3"));
        assert!(text.contains("sdfrs_cache_misses_total 2"));
        assert!(text.contains("sdfrs_probe_states_bucket{le=\"64\"} 1"));
        // Buckets are cumulative in the exposition format.
        assert!(text.contains("sdfrs_probe_states_bucket{le=\"262144\"} 2"));
        assert!(text.contains("sdfrs_probe_states_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sdfrs_probe_states_count 2"));
        assert!(text.contains("sdfrs_bind_attempts_per_tile_total{tile=\"1\"} 4"));
        assert!(text.contains("sdfrs_phase_seconds_total{phase=\"flow\"} 0.005"));
        assert!(text.contains("sdfrs_phase_calls_total{phase=\"flow\"} 1"));
    }

    #[test]
    fn json_export_is_deterministic_and_flat() {
        let registry = MetricsRegistry::new();
        registry.throughput_checks.add(7);
        let a = registry.snapshot().to_json();
        let b = registry.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"counters\":{\"flows_started\":0"));
        assert!(a.contains("\"throughput_checks\":7"));
        assert!(a.contains("\"phases\":[{\"name\":\"flow\",\"parent\":null"));
        assert!(a.ends_with("]}"));
    }

    #[test]
    fn record_event_mirrors_direct_instrumentation() {
        use crate::events::{BindPass, ProbeSlices};
        use sdfrs_sdf::Rational;
        let registry = MetricsRegistry::new();
        let slices = || ProbeSlices {
            used: vec![(0, 1), (1, 1)],
            tile_count: 2,
        };
        registry.record_event(&FlowEvent::BindAttempt {
            pass: BindPass::FirstFit,
            actor: "a1".into(),
            tile: 0,
            cost: 1.0,
            accepted: true,
        });
        registry.record_event(&FlowEvent::SliceProbe {
            scope: SliceScope::Global { k: 1, of: 2 },
            slices: slices(),
            throughput: Rational::new(1, 30),
            feasible: true,
            cache_hit: false,
            bound: false,
            monotone: false,
        });
        registry.record_event(&FlowEvent::SliceProbe {
            scope: SliceScope::Final,
            slices: slices(),
            throughput: Rational::new(1, 30),
            feasible: true,
            cache_hit: true,
            bound: false,
            monotone: false,
        });
        let s = registry.snapshot();
        assert_eq!(s.counter("bind_attempts"), 1);
        assert_eq!(s.counter("bind_accepted"), 1);
        assert_eq!(s.bind_attempts_per_tile, vec![1]);
        assert_eq!(s.counter("global_slice_iterations"), 1);
        assert_eq!(s.counter("refine_slice_iterations"), 1);
        // The cache, not the probe event, counts checks, hits and misses.
        assert_eq!(s.counter("throughput_checks"), 0);
        assert_eq!(s.counter("cache_hits"), 0);
        assert_eq!(s.counter("cache_misses"), 0);

        // Phase and flow times come from the events' durations.
        registry.record_event(&FlowEvent::PhaseFinished {
            phase: FlowPhase::Binding,
            duration: Duration::from_micros(3),
        });
        registry.record_event(&FlowEvent::FlowFinished {
            ok: false,
            duration: Duration::from_micros(5),
        });
        let s = registry.snapshot();
        assert_eq!(s.counter("flows_failed"), 1);
        assert_eq!((s.phases[0].nanos, s.phases[0].calls), (5_000, 1));
        assert_eq!((s.phases[1].nanos, s.phases[1].calls), (3_000, 1));
    }

    #[test]
    fn service_events_feed_the_session_instruments() {
        let registry = MetricsRegistry::new();
        registry.record_event(&FlowEvent::ServiceRequestQueued {
            seq: 0,
            op: "admit",
        });
        registry.record_event(&FlowEvent::SessionAdmitted {
            session: 1,
            app: "a".into(),
            live: 1,
        });
        registry.record_event(&FlowEvent::ServiceBatchDrained {
            batch: 0,
            requests: 3,
        });
        registry.record_event(&FlowEvent::SessionDeparted {
            session: 1,
            live: 0,
        });
        registry.record_event(&FlowEvent::SessionRebound {
            session: 2,
            changed: false,
        });
        let s = registry.snapshot();
        assert_eq!(s.counter("service_requests"), 1);
        assert_eq!(s.counter("sessions_admitted"), 1);
        assert_eq!(s.counter("sessions_departed"), 1);
        assert_eq!(s.counter("sessions_rebound"), 1);
        assert_eq!(s.sessions_live, 0);
        let depth = &s.histograms[2];
        assert_eq!(depth.name, "service_queue_depth");
        assert_eq!(depth.count, 1);
        assert_eq!(depth.sum, 3);
    }

    #[test]
    fn without_timings_zeroes_only_span_nanos() {
        let registry = MetricsRegistry::new();
        registry.cache_hits.inc();
        registry
            .profiler
            .record(SpanKind::Flow, Duration::from_millis(1));
        let s = registry.snapshot().without_timings();
        assert_eq!(s.counter("cache_hits"), 1);
        assert!(s.phases.iter().all(|p| p.nanos == 0));
        assert_eq!(s.phases[0].calls, 1);
    }
}
