//! Observability: typed flow events, pluggable sinks, and the observer
//! handle the allocation pipeline emits through.
//!
//! Every phase of the Sec 9 strategy — the criticality sort and per-actor
//! bind attempts (Sec 9.1), the list-scheduler recurrence detection
//! (Sec 9.2), every slice-search iteration with its tested slice vector
//! and measured throughput (Sec 9.3), admission decisions and
//! multi-application rounds — is reported as a [`FlowEvent`] carrying a
//! monotonic timestamp relative to the owning
//! [`Allocator`](crate::Allocator)'s epoch.
//!
//! [`FlowObserver::emit`] is the one emission path: it builds each event
//! once, only if a destination listens, and hands it to the metrics
//! registry ([`MetricsRegistry::record_event`]), the [`EventSink`] and,
//! by move, the tap of a traced service request. Sinks:
//!
//! * [`NullSink`] — the zero-overhead default: it reports
//!   [`enabled`](EventSink::enabled)` == false`, so with no registry and
//!   no tap either no event is ever constructed.
//! * [`LogSink`] — human-readable lines on stderr (or any writer); what
//!   the CLI's `--verbose` streams.
//! * [`JsonlSink`] — one JSON object per line; the machine-readable trace
//!   behind the CLI's `--trace <file>`.
//! * [`RecordingSink`] — an in-memory buffer for tests and benches that
//!   assert on event order and counts.
//! * [`MultiSink`] — fan-out to several sinks at once.
//!
//! The iteration counts of [`FlowStats`](crate::FlowStats) are returned
//! by the steps themselves, so they exist under the `NullSink` and stay a
//! tally independent of this stream.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdfrs_sdf::Rational;

use crate::metrics::{Metrics, MetricsRegistry};

/// The three phases of the allocation strategy (Sec 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Resource binding (Sec 9.1).
    Binding,
    /// Static-order schedule construction (Sec 9.2).
    Scheduling,
    /// TDMA slice allocation (Sec 9.3).
    SliceAllocation,
}

impl FlowPhase {
    /// Stable lower-case name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            FlowPhase::Binding => "binding",
            FlowPhase::Scheduling => "scheduling",
            FlowPhase::SliceAllocation => "slice_allocation",
        }
    }
}

/// Which binding pass produced a [`FlowEvent::BindAttempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindPass {
    /// The first-fit pass in criticality order.
    FirstFit,
    /// The reverse-order re-binding optimization.
    Rebind,
}

impl BindPass {
    /// Stable lower-case name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            BindPass::FirstFit => "first_fit",
            BindPass::Rebind => "rebind",
        }
    }
}

/// Which search probed a slice vector in a [`FlowEvent::SliceProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceScope {
    /// The global binary search over a common fraction `k / of` of each
    /// used tile's remaining wheel.
    Global {
        /// Tested numerator of the common fraction.
        k: u64,
        /// Denominator: the largest remaining wheel.
        of: u64,
    },
    /// A speculative per-tile refinement probe (every other tile frozen at
    /// the pass-start allocation).
    Refine {
        /// Refinement pass (0-based).
        pass: usize,
        /// Tile whose slice is being shrunk.
        tile: usize,
        /// Tested slice for that tile.
        slice: u64,
    },
    /// Re-validation of a refinement proposal against the cumulative
    /// candidate before it is committed.
    Commit {
        /// Refinement pass (0-based).
        pass: usize,
        /// Tile whose proposal is being committed.
        tile: usize,
        /// Proposed slice for that tile.
        slice: u64,
    },
    /// The final re-evaluation at the committed allocation.
    Final,
}

/// The slice vector a [`FlowEvent::SliceProbe`] tested, kept sparse so
/// that building the event costs O(application tiles), not O(platform
/// tiles); renderings expand it to one slice per platform tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSlices {
    /// `(tile index, slice)` of each tile the application uses, ascending.
    pub used: Vec<(usize, u64)>,
    /// Tiles of the platform.
    pub tile_count: usize,
}

impl ProbeSlices {
    /// The slice per platform tile index (0 for unused tiles).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut all = vec![0; self.tile_count];
        for &(tile, slice) in &self.used {
            all[tile] = slice;
        }
        all
    }
}

/// One observation from inside the allocation flow.
///
/// Marked `#[non_exhaustive]`: more phases will grow more variants, and
/// sinks must tolerate unknown events (match with a `_` arm).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum FlowEvent {
    /// An allocation run started.
    FlowStarted {
        /// Application name.
        app: String,
        /// Number of application actors.
        actors: usize,
        /// Number of application channels.
        channels: usize,
        /// Number of platform tiles.
        tiles: usize,
        /// The throughput constraint λ.
        constraint: Rational,
    },
    /// A phase of the strategy started.
    PhaseStarted {
        /// The phase.
        phase: FlowPhase,
    },
    /// A phase of the strategy finished, successfully or with the error
    /// that ends the flow.
    PhaseFinished {
        /// The phase.
        phase: FlowPhase,
        /// Wall-clock time the phase took.
        duration: Duration,
    },
    /// The Eqn 1 criticality sort fixed the binding order.
    CriticalityOrder {
        /// Actor names, most critical first.
        actors: Vec<String>,
    },
    /// One candidate tile was tried for one actor (Eqn 2 ranking plus the
    /// Sec 7 constraint check).
    BindAttempt {
        /// Which pass tried the candidate.
        pass: BindPass,
        /// Actor being bound.
        actor: String,
        /// Candidate tile index.
        tile: usize,
        /// Eqn 2 cost of the candidate.
        cost: f64,
        /// Whether the Sec 7 constraints held (the actor stays here).
        accepted: bool,
    },
    /// The re-binding pass moved an actor to a different tile.
    ActorRebound {
        /// The actor that moved.
        actor: String,
        /// Previous tile index.
        from: usize,
        /// New tile index.
        to: usize,
    },
    /// The list scheduler found a recurrent state.
    ScheduleRecurrence {
        /// States explored until the recurrence closed.
        states: usize,
    },
    /// A minimized static-order schedule was fixed for a tile.
    ScheduleConstructed {
        /// The tile.
        tile: usize,
        /// Length of the transient prefix.
        prefix_len: usize,
        /// Length of the periodic part.
        period_len: usize,
    },
    /// One slice-search throughput check: the tested slice vector, the
    /// measured throughput, and whether the evaluation cache, the
    /// processing bound or monotonicity answered.
    SliceProbe {
        /// Which search probed.
        scope: SliceScope,
        /// The tested slice of each tile the application uses.
        slices: ProbeSlices,
        /// Measured guaranteed throughput under those slices; the
        /// processing bound when `bound` is set; with `monotone`, the
        /// measured throughput of the explored slice vector that decided
        /// the probe.
        throughput: Rational,
        /// `throughput ≥ λ`.
        feasible: bool,
        /// Whether the [`ThroughputCache`](crate::ThroughputCache)
        /// answered without running the exploration.
        cache_hit: bool,
        /// Whether the processing bound
        /// ([`ProcessingBound`](crate::slice::ProcessingBound)) answered
        /// "infeasible" before the cache or the exploration was consulted.
        bound: bool,
        /// Whether monotonicity answered without exploring: an explored
        /// slice vector that these slices dominate was feasible (so they
        /// are, and `throughput` is a lower bound), or one that dominates
        /// them was infeasible (so they are, and `throughput` is an upper
        /// bound).
        monotone: bool,
    },
    /// An allocation run finished.
    FlowFinished {
        /// Whether a valid allocation was produced.
        ok: bool,
        /// Total wall-clock time of the run.
        duration: Duration,
    },
    /// An admission protocol accepted or skipped one application.
    AdmissionDecision {
        /// Index of the application in the submitted sequence.
        index: usize,
        /// Application name.
        app: String,
        /// Whether the application was admitted.
        admitted: bool,
        /// Failure description for skipped applications (empty on admit).
        detail: String,
    },
    /// One round of a multi-application protocol completed.
    MultiAppRound {
        /// Round number (0-based).
        round: usize,
        /// Applications still competing at the start of the round.
        candidates: usize,
        /// Index of the application admitted this round, if any.
        admitted: Option<usize>,
    },
    /// A design-space-exploration point was evaluated.
    DsePointEvaluated {
        /// The Eqn 2 weights of the point.
        weights: String,
        /// The connection model of the point.
        connection_model: String,
        /// Whether the point produced a valid allocation.
        ok: bool,
    },
    /// A request entered an [`AllocationService`] queue.
    ///
    /// [`AllocationService`]: crate::service::AllocationService
    ServiceRequestQueued {
        /// Request sequence number (echoed as the response id).
        seq: u64,
        /// Operation name (`admit`, `depart`, `rebind`, `status`).
        op: &'static str,
    },
    /// The service drained one batch of queued requests.
    ServiceBatchDrained {
        /// Batch number (0-based, monotonic over the service lifetime).
        batch: usize,
        /// Requests executed in this batch.
        requests: usize,
    },
    /// The service admitted an application as a new live session.
    SessionAdmitted {
        /// Raw session number.
        session: u64,
        /// Application name.
        app: String,
        /// Live sessions after the admission.
        live: usize,
    },
    /// A live session departed; its resources returned to the pool.
    SessionDeparted {
        /// Raw session number.
        session: u64,
        /// Live sessions after the departure.
        live: usize,
    },
    /// A live session was re-allocated against the current residual state.
    SessionRebound {
        /// Raw session number.
        session: u64,
        /// Whether the new allocation differs from the old one.
        changed: bool,
    },
    /// A searching policy ([`Allocator::solve`](crate::Allocator::solve)
    /// under `Exact` or `Portfolio`) started solving one application.
    SolverStarted {
        /// Backend name (`exact`, `portfolio`).
        backend: &'static str,
    },
    /// The branch-and-bound search improved its incumbent.
    ExactIncumbent {
        /// Nodes expanded when the improvement was found (0 for the
        /// greedy seed).
        node: u64,
        /// Guaranteed iteration throughput of the new incumbent.
        throughput: Rational,
    },
    /// A non-greedy solver finished; the certified bound pair and the
    /// proof-of-work counters of its [`SolveReport`](crate::solver::SolveReport).
    SolverFinished {
        /// Backend name (`exact`, `portfolio`).
        backend: &'static str,
        /// Certified lower throughput bound (the incumbent).
        lower: Rational,
        /// Certified upper throughput bound.
        upper: Rational,
        /// Relative optimality gap.
        gap: Rational,
        /// Whether the search proved the incumbent optimal.
        proven_optimal: bool,
        /// Branch-and-bound nodes expanded.
        nodes: u64,
        /// Simplex pivots across all LP relaxations.
        lp_pivots: u64,
        /// Subtrees pruned by the LP/structural bound.
        pruned_bound: u64,
        /// Children discarded as resource-infeasible.
        pruned_infeasible: u64,
        /// Complete bindings evaluated.
        leaves: u64,
    },
}

impl FlowEvent {
    /// Stable snake-case discriminant name used in traces.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowEvent::FlowStarted { .. } => "flow_started",
            FlowEvent::PhaseStarted { .. } => "phase_started",
            FlowEvent::PhaseFinished { .. } => "phase_finished",
            FlowEvent::CriticalityOrder { .. } => "criticality_order",
            FlowEvent::BindAttempt { .. } => "bind_attempt",
            FlowEvent::ActorRebound { .. } => "actor_rebound",
            FlowEvent::ScheduleRecurrence { .. } => "schedule_recurrence",
            FlowEvent::ScheduleConstructed { .. } => "schedule_constructed",
            FlowEvent::SliceProbe { .. } => "slice_probe",
            FlowEvent::FlowFinished { .. } => "flow_finished",
            FlowEvent::AdmissionDecision { .. } => "admission_decision",
            FlowEvent::MultiAppRound { .. } => "multi_app_round",
            FlowEvent::DsePointEvaluated { .. } => "dse_point",
            FlowEvent::ServiceRequestQueued { .. } => "service_request_queued",
            FlowEvent::ServiceBatchDrained { .. } => "service_batch_drained",
            FlowEvent::SessionAdmitted { .. } => "session_admitted",
            FlowEvent::SessionDeparted { .. } => "session_departed",
            FlowEvent::SessionRebound { .. } => "session_rebound",
            FlowEvent::SolverStarted { .. } => "solver_started",
            FlowEvent::ExactIncumbent { .. } => "exact_incumbent",
            FlowEvent::SolverFinished { .. } => "solver_finished",
        }
    }

    /// Renders the event as one JSON object (no trailing newline). The
    /// timestamp is emitted as integer microseconds under `"t_us"`.
    pub fn to_json(&self, at: Duration) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"t_us\":{}", at.as_micros());
        let _ = write!(s, ",\"event\":\"{}\"", self.kind());
        match self {
            FlowEvent::FlowStarted {
                app,
                actors,
                channels,
                tiles,
                constraint,
            } => {
                let _ = write!(
                    s,
                    ",\"app\":\"{}\",\"actors\":{actors},\"channels\":{channels},\"tiles\":{tiles},\"constraint\":\"{constraint}\"",
                    json_escape(app)
                );
            }
            FlowEvent::PhaseStarted { phase } => {
                let _ = write!(s, ",\"phase\":\"{}\"", phase.name());
            }
            FlowEvent::PhaseFinished { phase, duration } => {
                let _ = write!(
                    s,
                    ",\"phase\":\"{}\",\"duration_us\":{}",
                    phase.name(),
                    duration.as_micros()
                );
            }
            FlowEvent::CriticalityOrder { actors } => {
                s.push_str(",\"actors\":[");
                for (i, a) in actors.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\"", json_escape(a));
                }
                s.push(']');
            }
            FlowEvent::BindAttempt {
                pass,
                actor,
                tile,
                cost,
                accepted,
            } => {
                let _ = write!(
                    s,
                    ",\"pass\":\"{}\",\"actor\":\"{}\",\"tile\":{tile},\"cost\":{},\"accepted\":{accepted}",
                    pass.name(),
                    json_escape(actor),
                    json_f64(*cost)
                );
            }
            FlowEvent::ActorRebound { actor, from, to } => {
                let _ = write!(
                    s,
                    ",\"actor\":\"{}\",\"from\":{from},\"to\":{to}",
                    json_escape(actor)
                );
            }
            FlowEvent::ScheduleRecurrence { states } => {
                let _ = write!(s, ",\"states\":{states}");
            }
            FlowEvent::ScheduleConstructed {
                tile,
                prefix_len,
                period_len,
            } => {
                let _ = write!(
                    s,
                    ",\"tile\":{tile},\"prefix_len\":{prefix_len},\"period_len\":{period_len}"
                );
            }
            FlowEvent::SliceProbe {
                scope,
                slices,
                throughput,
                feasible,
                cache_hit,
                bound,
                monotone,
            } => {
                match scope {
                    SliceScope::Global { k, of } => {
                        let _ = write!(s, ",\"scope\":\"global\",\"k\":{k},\"of\":{of}");
                    }
                    SliceScope::Refine { pass, tile, slice } => {
                        let _ = write!(
                            s,
                            ",\"scope\":\"refine\",\"pass\":{pass},\"tile\":{tile},\"slice\":{slice}"
                        );
                    }
                    SliceScope::Commit { pass, tile, slice } => {
                        let _ = write!(
                            s,
                            ",\"scope\":\"commit\",\"pass\":{pass},\"tile\":{tile},\"slice\":{slice}"
                        );
                    }
                    SliceScope::Final => s.push_str(",\"scope\":\"final\""),
                }
                s.push_str(",\"slices\":[");
                for (i, w) in slices.to_vec().iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{w}");
                }
                let _ = write!(
                    s,
                    "],\"throughput\":\"{throughput}\",\"feasible\":{feasible},\"cache_hit\":{cache_hit}"
                );
                if *bound {
                    s.push_str(",\"bound\":true");
                }
                if *monotone {
                    s.push_str(",\"monotone\":true");
                }
            }
            FlowEvent::FlowFinished { ok, duration } => {
                let _ = write!(s, ",\"ok\":{ok},\"duration_us\":{}", duration.as_micros());
            }
            FlowEvent::AdmissionDecision {
                index,
                app,
                admitted,
                detail,
            } => {
                let _ = write!(
                    s,
                    ",\"index\":{index},\"app\":\"{}\",\"admitted\":{admitted},\"detail\":\"{}\"",
                    json_escape(app),
                    json_escape(detail)
                );
            }
            FlowEvent::MultiAppRound {
                round,
                candidates,
                admitted,
            } => {
                let _ = write!(s, ",\"round\":{round},\"candidates\":{candidates}");
                match admitted {
                    Some(i) => {
                        let _ = write!(s, ",\"admitted\":{i}");
                    }
                    None => s.push_str(",\"admitted\":null"),
                }
            }
            FlowEvent::DsePointEvaluated {
                weights,
                connection_model,
                ok,
            } => {
                let _ = write!(
                    s,
                    ",\"weights\":\"{}\",\"connection_model\":\"{}\",\"ok\":{ok}",
                    json_escape(weights),
                    json_escape(connection_model)
                );
            }
            FlowEvent::ServiceRequestQueued { seq, op } => {
                let _ = write!(s, ",\"seq\":{seq},\"op\":\"{op}\"");
            }
            FlowEvent::ServiceBatchDrained { batch, requests } => {
                let _ = write!(s, ",\"batch\":{batch},\"requests\":{requests}");
            }
            FlowEvent::SessionAdmitted { session, app, live } => {
                let _ = write!(
                    s,
                    ",\"session\":{session},\"app\":\"{}\",\"live\":{live}",
                    json_escape(app)
                );
            }
            FlowEvent::SessionDeparted { session, live } => {
                let _ = write!(s, ",\"session\":{session},\"live\":{live}");
            }
            FlowEvent::SessionRebound { session, changed } => {
                let _ = write!(s, ",\"session\":{session},\"changed\":{changed}");
            }
            FlowEvent::SolverStarted { backend } => {
                let _ = write!(s, ",\"backend\":\"{backend}\"");
            }
            FlowEvent::ExactIncumbent { node, throughput } => {
                let _ = write!(s, ",\"node\":{node},\"throughput\":\"{throughput}\"");
            }
            FlowEvent::SolverFinished {
                backend,
                lower,
                upper,
                gap,
                proven_optimal,
                nodes,
                lp_pivots,
                pruned_bound,
                pruned_infeasible,
                leaves,
            } => {
                let _ = write!(
                    s,
                    ",\"backend\":\"{backend}\",\"lower\":\"{lower}\",\"upper\":\"{upper}\",\"gap\":\"{gap}\",\"proven_optimal\":{proven_optimal},\"nodes\":{nodes},\"lp_pivots\":{lp_pivots},\"pruned_bound\":{pruned_bound},\"pruned_infeasible\":{pruned_infeasible},\"leaves\":{leaves}"
                );
            }
        }
        s.push('}');
        s
    }

    /// Renders the event as one human-readable log line (no newline).
    pub fn to_log_line(&self, at: Duration) -> String {
        let mut s = format!("[{:>12.6}s] ", at.as_secs_f64());
        match self {
            FlowEvent::FlowStarted {
                app,
                actors,
                channels,
                tiles,
                constraint,
            } => {
                let _ = write!(
                    s,
                    "flow: start {app} ({actors} actors, {channels} channels) on {tiles} tiles, λ = {constraint}"
                );
            }
            FlowEvent::PhaseStarted { phase } => {
                let _ = write!(s, "{}: start", phase.name());
            }
            FlowEvent::PhaseFinished { phase, duration } => {
                let _ = write!(s, "{}: done in {duration:?}", phase.name());
            }
            FlowEvent::CriticalityOrder { actors } => {
                let _ = write!(s, "binding: criticality order {}", actors.join(" ≥ "));
            }
            FlowEvent::BindAttempt {
                pass,
                actor,
                tile,
                cost,
                accepted,
            } => {
                let _ = write!(
                    s,
                    "bind[{}]: {actor} → t{tile} (cost {cost:.4}) {}",
                    pass.name(),
                    if *accepted { "accepted" } else { "rejected" }
                );
            }
            FlowEvent::ActorRebound { actor, from, to } => {
                let _ = write!(s, "bind[rebind]: moved {actor} t{from} → t{to}");
            }
            FlowEvent::ScheduleRecurrence { states } => {
                let _ = write!(s, "schedule: recurrence after {states} states");
            }
            FlowEvent::ScheduleConstructed {
                tile,
                prefix_len,
                period_len,
            } => {
                let _ = write!(
                    s,
                    "schedule: t{tile} prefix {prefix_len} firings, period {period_len} firings"
                );
            }
            FlowEvent::SliceProbe {
                scope,
                slices,
                throughput,
                feasible,
                cache_hit,
                bound,
                monotone,
            } => {
                match scope {
                    SliceScope::Global { k, of } => {
                        let _ = write!(s, "slice[global k={k}/{of}]");
                    }
                    SliceScope::Refine { pass, tile, slice } => {
                        let _ = write!(s, "slice[refine p{pass} t{tile}={slice}]");
                    }
                    SliceScope::Commit { pass, tile, slice } => {
                        let _ = write!(s, "slice[commit p{pass} t{tile}={slice}]");
                    }
                    SliceScope::Final => s.push_str("slice[final]"),
                }
                let _ = write!(
                    s,
                    ": ω = {:?} ⇒ thr {throughput} {}{}",
                    slices.to_vec(),
                    if *feasible {
                        "(feasible)"
                    } else {
                        "(infeasible)"
                    },
                    if *cache_hit { " [cache hit]" } else { "" }
                );
                if *bound {
                    s.push_str(" [processing bound]");
                }
                if *monotone {
                    s.push_str(" [monotone]");
                }
            }
            FlowEvent::FlowFinished { ok, duration } => {
                let _ = write!(
                    s,
                    "flow: {} in {duration:?}",
                    if *ok { "succeeded" } else { "failed" }
                );
            }
            FlowEvent::AdmissionDecision {
                index,
                app,
                admitted,
                detail,
            } => {
                if *admitted {
                    let _ = write!(s, "admission: #{index} {app} admitted");
                } else {
                    let _ = write!(s, "admission: #{index} {app} skipped ({detail})");
                }
            }
            FlowEvent::MultiAppRound {
                round,
                candidates,
                admitted,
            } => match admitted {
                Some(i) => {
                    let _ = write!(
                        s,
                        "multi-app: round {round} admitted #{i} of {candidates} candidates"
                    );
                }
                None => {
                    let _ = write!(
                        s,
                        "multi-app: round {round} admitted none of {candidates} candidates"
                    );
                }
            },
            FlowEvent::DsePointEvaluated {
                weights,
                connection_model,
                ok,
            } => {
                let _ = write!(
                    s,
                    "dse: weights {weights} / {connection_model}: {}",
                    if *ok { "valid" } else { "infeasible" }
                );
            }
            FlowEvent::ServiceRequestQueued { seq, op } => {
                let _ = write!(s, "service: queued #{seq} ({op})");
            }
            FlowEvent::ServiceBatchDrained { batch, requests } => {
                let _ = write!(s, "service: batch {batch} drained {requests} requests");
            }
            FlowEvent::SessionAdmitted { session, app, live } => {
                let _ = write!(s, "service: s{session} admitted ({app}), {live} live");
            }
            FlowEvent::SessionDeparted { session, live } => {
                let _ = write!(s, "service: s{session} departed, {live} live");
            }
            FlowEvent::SessionRebound { session, changed } => {
                let _ = write!(
                    s,
                    "service: s{session} rebound ({})",
                    if *changed { "moved" } else { "unchanged" }
                );
            }
            FlowEvent::SolverStarted { backend } => {
                let _ = write!(s, "solver[{backend}]: start");
            }
            FlowEvent::ExactIncumbent { node, throughput } => {
                let _ = write!(s, "solver[exact]: incumbent {throughput} at node {node}");
            }
            FlowEvent::SolverFinished {
                backend,
                lower,
                upper,
                gap,
                proven_optimal,
                nodes,
                lp_pivots,
                pruned_bound,
                pruned_infeasible,
                leaves,
            } => {
                let _ = write!(
                    s,
                    "solver[{backend}]: bounds [{lower}, {upper}] gap {gap}{}, {nodes} nodes, {lp_pivots} pivots, pruned {pruned_bound}+{pruned_infeasible}, {leaves} leaves",
                    if *proven_optimal { " (optimal)" } else { "" }
                );
            }
        }
        s
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters; everything else verbatim).
/// Shared by the event sinks, the service wire protocol, and the
/// network front-end's error responses.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON has no NaN/∞; clamp them to null-safe strings.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A destination for [`FlowEvent`]s.
///
/// Sinks receive each event with the monotonic time elapsed since the
/// emitting [`Allocator`](crate::Allocator)'s epoch. Implementations must
/// be `Send` so allocators can move across threads.
pub trait EventSink: Send {
    /// Receives one event, stamped `at` after the observer's epoch.
    fn record(&mut self, at: Duration, event: &FlowEvent);

    /// `false` if the sink discards everything: instrumentation sites skip
    /// event *construction* entirely (the zero-overhead contract of
    /// [`NullSink`]).
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// The zero-overhead default sink: reports `enabled() == false`, so no
/// event is ever constructed for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _at: Duration, _event: &FlowEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Human-readable log lines on an arbitrary writer (stderr by default).
///
/// Write errors are swallowed: diagnostics must never fail the flow.
pub struct LogSink {
    out: Box<dyn Write + Send>,
}

impl LogSink {
    /// A sink logging to standard error.
    pub fn stderr() -> Self {
        LogSink {
            out: Box::new(io::stderr()),
        }
    }

    /// A sink logging to the given writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        LogSink { out }
    }
}

impl std::fmt::Debug for LogSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogSink").finish_non_exhaustive()
    }
}

impl EventSink for LogSink {
    fn record(&mut self, at: Duration, event: &FlowEvent) {
        let _ = writeln!(self.out, "{}", event.to_log_line(at));
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Machine-readable trace: one JSON object per line (JSON Lines).
///
/// Buffered; flushed on [`flush`](EventSink::flush) and on drop. Write
/// errors are swallowed.
pub struct JsonlSink {
    out: io::BufWriter<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Creates (truncates) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: &str) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: io::BufWriter::new(Box::new(file)),
        })
    }

    /// Traces into the given writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: io::BufWriter::new(out),
        }
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, at: Duration, event: &FlowEvent) {
        let _ = writeln!(self.out, "{}", event.to_json(at));
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// An in-memory sink for tests and benches. Cloning shares the buffer, so
/// a clone kept by the test observes everything the
/// [`Allocator`](crate::Allocator)-owned clone records.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Arc<Mutex<Vec<(Duration, FlowEvent)>>>,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<(Duration, FlowEvent)> {
        self.events.lock().expect("recording sink lock").clone()
    }

    /// The recorded event kinds, in order.
    pub fn kinds(&self) -> Vec<&'static str> {
        self.events
            .lock()
            .expect("recording sink lock")
            .iter()
            .map(|(_, e)| e.kind())
            .collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recording sink lock").len()
    }

    /// `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("recording sink lock").clear();
    }
}

impl EventSink for RecordingSink {
    fn record(&mut self, at: Duration, event: &FlowEvent) {
        self.events
            .lock()
            .expect("recording sink lock")
            .push((at, event.clone()));
    }
}

/// Fan-out to several sinks; enabled iff any member is.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn EventSink>>,
}

impl MultiSink {
    /// Creates an empty fan-out (equivalent to [`NullSink`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member sink.
    #[must_use]
    pub fn with(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Adds an already-boxed member sink.
    #[must_use]
    pub fn with_boxed(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl EventSink for MultiSink {
    fn record(&mut self, at: Duration, event: &FlowEvent) {
        for sink in &mut self.sinks {
            if sink.enabled() {
                sink.record(at, event);
            }
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// The events one traced service request emitted, captured by move and
/// stamped on the request's clock (time since `origin`, the instant the
/// request arrived) rather than the allocator's epoch.
#[derive(Debug)]
pub(crate) struct EventTap {
    pub(crate) origin: Instant,
    pub(crate) events: Vec<(Duration, FlowEvent)>,
}

/// The handle instrumentation sites emit through: the sink, the metrics
/// registry and the per-request tap every event goes to, and the epoch
/// sink timestamps are relative to.
///
/// [`emit`](Self::emit) takes a *closure* producing the event, evaluated
/// only when at least one destination listens — with the `NullSink`, a
/// null metrics handle and no tap it performs a single branch and no
/// allocation.
pub struct FlowObserver<'s> {
    /// `None` when the sink discards everything.
    sink: Option<&'s mut dyn EventSink>,
    registry: Option<&'s MetricsRegistry>,
    tap: Option<&'s mut EventTap>,
    epoch: Instant,
}

impl<'s> FlowObserver<'s> {
    /// An observer with no destination: every emission is one branch.
    pub fn null() -> Self {
        FlowObserver {
            sink: None,
            registry: None,
            tap: None,
            epoch: Instant::now(),
        }
    }

    /// An observer over `sink` with the epoch set to now.
    pub fn new(sink: &'s mut dyn EventSink) -> Self {
        Self::with_epoch(sink, Instant::now())
    }

    /// An observer over `sink` with an explicit epoch — lets one
    /// [`Allocator`](crate::Allocator) keep timestamps monotonic across
    /// repeated runs.
    pub fn with_epoch(sink: &'s mut dyn EventSink, epoch: Instant) -> Self {
        FlowObserver {
            sink: if sink.enabled() { Some(sink) } else { None },
            registry: None,
            tap: None,
            epoch,
        }
    }

    /// Folds every emitted event into the registry behind `metrics` (a
    /// null handle adds no destination).
    #[must_use]
    pub fn with_metrics(mut self, metrics: &'s Metrics) -> Self {
        self.registry = metrics.registry().map(|r| &**r);
        self
    }

    /// Also captures every emitted event into `tap`, if one is given.
    #[must_use]
    pub(crate) fn with_tap(mut self, tap: Option<&'s mut EventTap>) -> Self {
        self.tap = tap;
        self
    }

    /// The attached registry, for the few instruments no event carries.
    pub fn registry(&self) -> Option<&'s MetricsRegistry> {
        self.registry
    }

    /// `true` if emitted events reach a destination (construction is
    /// worthwhile).
    pub fn enabled(&self) -> bool {
        self.sink.is_some() || self.registry.is_some() || self.tap.is_some()
    }

    /// Stamps the event produced by `make` and delivers it to the
    /// registry, the sink and the tap — or does nothing, without
    /// evaluating `make`, when none of them listens.
    pub fn emit(&mut self, make: impl FnOnce() -> FlowEvent) {
        if !self.enabled() {
            return;
        }
        let now = Instant::now();
        let event = make();
        if let Some(registry) = self.registry {
            registry.record_event(&event);
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.record(now.saturating_duration_since(self.epoch), &event);
        }
        if let Some(tap) = self.tap.as_mut() {
            let at = now.saturating_duration_since(tap.origin);
            tap.events.push((at, event));
        }
    }
}

impl std::fmt::Debug for FlowObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowObserver")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_never_constructs_events() {
        let mut sink = NullSink;
        let null_metrics = Metrics::null();
        let mut obs = FlowObserver::new(&mut sink).with_metrics(&null_metrics);
        let mut built = false;
        obs.emit(|| {
            built = true;
            FlowEvent::ScheduleRecurrence { states: 1 }
        });
        assert!(!built, "NullSink must skip event construction");
    }

    #[test]
    fn recording_sink_shares_buffer_across_clones() {
        let sink = RecordingSink::new();
        let mut handle = sink.clone();
        let mut obs = FlowObserver::new(&mut handle);
        obs.emit(|| FlowEvent::ScheduleRecurrence { states: 42 });
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.kinds(), vec!["schedule_recurrence"]);
    }

    #[test]
    fn json_lines_are_wellformed_for_every_variant() {
        let events = [
            FlowEvent::FlowStarted {
                app: "a \"quoted\"\nname".into(),
                actors: 3,
                channels: 3,
                tiles: 2,
                constraint: Rational::new(1, 30),
            },
            FlowEvent::PhaseStarted {
                phase: FlowPhase::Binding,
            },
            FlowEvent::PhaseFinished {
                phase: FlowPhase::SliceAllocation,
                duration: Duration::from_micros(12),
            },
            FlowEvent::CriticalityOrder {
                actors: vec!["a1".into(), "a2".into()],
            },
            FlowEvent::BindAttempt {
                pass: BindPass::FirstFit,
                actor: "a1".into(),
                tile: 0,
                cost: 0.5,
                accepted: true,
            },
            FlowEvent::ActorRebound {
                actor: "a1".into(),
                from: 0,
                to: 1,
            },
            FlowEvent::ScheduleRecurrence { states: 17 },
            FlowEvent::ScheduleConstructed {
                tile: 1,
                prefix_len: 0,
                period_len: 2,
            },
            FlowEvent::SliceProbe {
                scope: SliceScope::Global { k: 5, of: 10 },
                slices: ProbeSlices {
                    used: vec![(0, 5), (1, 5)],
                    tile_count: 2,
                },
                throughput: Rational::new(1, 30),
                feasible: true,
                cache_hit: false,
                bound: false,
                monotone: false,
            },
            FlowEvent::SliceProbe {
                scope: SliceScope::Refine {
                    pass: 0,
                    tile: 1,
                    slice: 3,
                },
                slices: ProbeSlices {
                    used: vec![(1, 3)],
                    tile_count: 3,
                },
                throughput: Rational::new(1, 40),
                feasible: false,
                cache_hit: true,
                bound: false,
                monotone: false,
            },
            FlowEvent::FlowFinished {
                ok: true,
                duration: Duration::from_millis(1),
            },
            FlowEvent::AdmissionDecision {
                index: 2,
                app: "h263".into(),
                admitted: false,
                detail: "constraint unsatisfiable".into(),
            },
            FlowEvent::MultiAppRound {
                round: 1,
                candidates: 3,
                admitted: None,
            },
            FlowEvent::DsePointEvaluated {
                weights: "(1, 0, 0)".into(),
                connection_model: "simple".into(),
                ok: true,
            },
            FlowEvent::ServiceRequestQueued {
                seq: 4,
                op: "admit",
            },
            FlowEvent::ServiceBatchDrained {
                batch: 2,
                requests: 3,
            },
            FlowEvent::SessionAdmitted {
                session: 5,
                app: "h263".into(),
                live: 2,
            },
            FlowEvent::SessionDeparted {
                session: 5,
                live: 1,
            },
            FlowEvent::SessionRebound {
                session: 3,
                changed: true,
            },
            FlowEvent::SolverStarted { backend: "exact" },
            FlowEvent::ExactIncumbent {
                node: 12,
                throughput: Rational::new(1, 30),
            },
            FlowEvent::SolverFinished {
                backend: "exact",
                lower: Rational::new(1, 30),
                upper: Rational::new(1, 25),
                gap: Rational::new(1, 6),
                proven_optimal: false,
                nodes: 40,
                lp_pivots: 120,
                pruned_bound: 7,
                pruned_infeasible: 3,
                leaves: 5,
            },
        ];
        for e in &events {
            let json = e.to_json(Duration::from_micros(7));
            assert!(json.starts_with("{\"t_us\":7,\"event\":\""), "{json}");
            assert!(json.ends_with('}'), "{json}");
            assert!(!json.contains('\n'), "one line per event: {json}");
            // Balanced quoting: escaped quotes aside, an even count.
            let unescaped = json.replace("\\\"", "");
            assert_eq!(
                unescaped.matches('"').count() % 2,
                0,
                "balanced quotes: {json}"
            );
            // The log rendering exists for every variant, too.
            assert!(!e.to_log_line(Duration::ZERO).is_empty());
        }
        // Probe slices render one entry per platform tile.
        assert!(events[9]
            .to_json(Duration::ZERO)
            .contains("\"slices\":[0,3,0],"));
        assert!(events[9]
            .to_log_line(Duration::ZERO)
            .contains("ω = [0, 3, 0]"));
    }

    #[test]
    fn multi_sink_is_enabled_iff_any_member_is() {
        assert!(!MultiSink::new().enabled());
        assert!(!MultiSink::new().with(NullSink).enabled());
        let rec = RecordingSink::new();
        let mut multi = MultiSink::new().with(NullSink).with(rec.clone());
        assert!(multi.enabled());
        multi.record(Duration::ZERO, &FlowEvent::ScheduleRecurrence { states: 1 });
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn nonfinite_costs_serialize_as_null() {
        let e = FlowEvent::BindAttempt {
            pass: BindPass::Rebind,
            actor: "a".into(),
            tile: 0,
            cost: f64::INFINITY,
            accepted: false,
        };
        assert!(e.to_json(Duration::ZERO).contains("\"cost\":null"));
    }
}
