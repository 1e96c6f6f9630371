//! The online admission service: long-lived multi-tenant allocation
//! sessions over one persistent platform.
//!
//! The batch protocols ([`multi_app`](crate::multi_app),
//! [`admission`](crate::admission)) run the Sec 10.1 flow once and stop;
//! a platform serving sustained traffic also needs applications to
//! *depart* — returning their tile budgets to the pool — and concurrent
//! requests to be drained against shared state. [`AllocationService`]
//! owns exactly that state:
//!
//! * the **residual** [`PlatformState`]: what every earlier admission
//!   claimed and every departure released;
//! * a registry of live **sessions**, each holding the application and
//!   the [`Allocation`] it was admitted with, keyed by a never-reused
//!   [`SessionId`];
//! * one [`Allocator`] — and thus one
//!   [`ThroughputCache`](crate::ThroughputCache), event sink and metrics
//!   registry — shared by every request the service ever executes.
//!
//! Requests are either applied directly ([`admit`](AllocationService::admit),
//! [`depart`](AllocationService::depart),
//! [`rebind`](AllocationService::rebind),
//! [`status`](AllocationService::status)) or queued with
//! [`enqueue`](AllocationService::enqueue) and executed by
//! [`drain`](AllocationService::drain), which runs the queue through the
//! same per-request path the network front-end calls, in arrival order.
//!
//! # Regional admission
//!
//! With [`ServiceConfig::regions`] ` > 1` the platform is partitioned
//! into a [`RegionMap`] of contiguous tile regions, and every admission
//! is assigned a *home region* round-robin (the counter advances only
//! when an admission commits, so replaying the commit log reproduces
//! the homes). The flow then runs against a
//! [masked view](RegionMap::masked_state) of the residual state in which
//! tiles outside the home region appear fully occupied, so the
//! allocation — if one exists — stays inside the home region and only
//! ranks the home region's tiles. When the home region cannot fit the
//! application, admission *escalates*: the mask widens to the home
//! region plus its nearest neighbor regions (up to
//! [`MAX_ESCALATION_NEIGHBORS`]), and finally falls back to the
//! unmasked global flow. Conform oracle 7 verifies regional admissions
//! against the residual they were admitted on, including
//! forced-escalation scenarios.
//!
//! # Example
//!
//! ```
//! use sdfrs_appmodel::apps::{example_platform, paper_example};
//! use sdfrs_core::service::AllocationService;
//!
//! let arch = example_platform();
//! let mut service = AllocationService::new(&arch);
//! let first = service.admit(&paper_example()).unwrap();
//! let second = service.admit(&paper_example()).unwrap();
//! service.depart(first).unwrap();
//! assert_eq!(service.live_count(), 1);
//! // The departed budgets are available again.
//! let third = service.admit(&paper_example()).unwrap();
//! assert!(third > second);
//! ```

use std::collections::BTreeMap;

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, RegionId, RegionMap, TileUsage};
use sdfrs_sdf::Rational;

use crate::admission::AdmissionPolicy;
use crate::allocator::Allocator;
use crate::error::MapError;
use crate::events::{json_escape, EventSink, FlowEvent};
use crate::flow::{Allocation, FlowConfig, FlowStats};
use crate::ids::SessionId;
use crate::metrics::Metrics;
use crate::resources::TileCapacity;
use crate::solver::SolveReport;

/// Neighbor regions an escalating admission may widen its mask by before
/// falling back to the global unmasked flow: the chain is
/// `{home}`, `{home, n₁}`, `{home, n₁, n₂}`, global.
pub const MAX_ESCALATION_NEIGHBORS: usize = 2;

/// Configuration of an [`AllocationService`].
///
/// Marked `#[non_exhaustive]`: build one with [`ServiceConfig::default`]
/// and adjust fields from there.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The flow configuration every admission runs under.
    pub flow: FlowConfig,
    /// Regions the platform is partitioned into for regional admission
    /// (clamped to `1..=tile_count`). `1` — the default — disables
    /// regional admission entirely: every admit runs the global flow,
    /// byte-identical to earlier releases.
    pub regions: usize,
    /// The admission policy every admit and rebind dispatches through.
    /// The default ([`AdmissionPolicy::greedy`]) preserves the
    /// pre-solver behavior byte-for-byte; the solver-backed policies
    /// (exact / portfolio) attach a certified [`SolveReport`] to every
    /// admission and always search the whole residual platform, so
    /// they ignore [`regions`](Self::regions).
    pub policy: AdmissionPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            flow: FlowConfig::default(),
            regions: 1,
            policy: AdmissionPolicy::greedy(),
        }
    }
}

/// A request to the service, as queued by
/// [`enqueue`](AllocationService::enqueue).
///
/// Marked `#[non_exhaustive]`: a long-lived service will grow more
/// operations (constraint renegotiation, priority eviction).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Admit an application as a new session.
    Admit {
        /// The application to admit (its throughput constraint rides
        /// along inside the graph).
        app: Box<ApplicationGraph>,
    },
    /// Depart a live session, reclaiming its resources.
    Depart {
        /// The session to depart.
        session: SessionId,
    },
    /// Re-allocate a live session against the current residual state.
    Rebind {
        /// The session to rebind.
        session: SessionId,
    },
    /// Report the live sessions and the residual platform.
    Status,
}

impl ServiceRequest {
    /// Stable operation name used in events and JSONL responses.
    pub fn op(&self) -> &'static str {
        match self {
            ServiceRequest::Admit { .. } => "admit",
            ServiceRequest::Depart { .. } => "depart",
            ServiceRequest::Rebind { .. } => "rebind",
            ServiceRequest::Status => "status",
        }
    }

    /// Renders the request as one self-contained deterministic JSON
    /// line tagged `"seq":seq` — the commit-log record format, accepted
    /// back by [`parse_request_line`]. An admit embeds the full
    /// application as escaped [`textio`](sdfrs_appmodel::textio) text,
    /// so a log line needs no out-of-band files to replay.
    pub fn to_json_line(&self, seq: u64) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"seq\":{seq},\"op\":\"{}\"", self.op());
        match self {
            ServiceRequest::Admit { app } => {
                let text = sdfrs_appmodel::textio::write_application(app);
                let _ = write!(s, ",\"app\":\"{}\"", json_escape(&text));
            }
            ServiceRequest::Depart { session } | ServiceRequest::Rebind { session } => {
                let _ = write!(s, ",\"session\":{}", session.raw());
            }
            ServiceRequest::Status => {}
        }
        s.push('}');
        s
    }
}

/// Why a session-addressed request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The session id is not live (never existed, or already departed —
    /// ids are never reused, so the two are indistinguishable on
    /// purpose).
    UnknownSession(SessionId),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Outcome of a [`rebind`](AllocationService::rebind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebindOutcome {
    /// Guaranteed throughput after the rebind.
    pub throughput: Rational,
    /// Whether the new allocation differs from the old one (binding or
    /// slices moved). `false` also when re-allocation failed and the old
    /// allocation was kept — a rebind never loses a valid session.
    pub changed: bool,
}

/// One live session, as reported by
/// [`status`](AllocationService::status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's ticket.
    pub session: SessionId,
    /// Application name.
    pub app: String,
    /// Guaranteed throughput of the current allocation.
    pub throughput: Rational,
    /// Total TDMA wheel time the allocation claims across all tiles.
    pub wheel: u64,
}

/// A point-in-time view of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Every live session, admission order (= ascending session id).
    pub sessions: Vec<SessionInfo>,
    /// Requests queued but not yet drained.
    pub queue_depth: usize,
    /// Total resources claimed across all tiles.
    pub claimed: TileUsage,
}

/// The response to one [`ServiceRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// An admission succeeded.
    Admitted {
        /// The new session's ticket.
        session: SessionId,
        /// Application name.
        app: String,
        /// Guaranteed throughput of the allocation.
        throughput: Rational,
        /// Total wheel time claimed across all tiles.
        wheel: u64,
        /// The certified bound report, when the admission ran under a
        /// solver-backed policy (`None` under the heuristic policies —
        /// their JSONL lines stay byte-identical to earlier releases).
        report: Option<SolveReport>,
    },
    /// An admission failed; no session was created.
    Rejected {
        /// Application name.
        app: String,
        /// Why the flow found no valid allocation.
        error: MapError,
    },
    /// A departure succeeded.
    Departed {
        /// The departed session.
        session: SessionId,
        /// Total resources returned to the pool, summed over tiles.
        reclaimed: TileUsage,
    },
    /// A rebind completed (possibly keeping the old allocation).
    Rebound {
        /// The rebound session.
        session: SessionId,
        /// The rebind outcome.
        outcome: RebindOutcome,
    },
    /// A status report.
    Status(ServiceStatus),
    /// A session-addressed request failed.
    Failed {
        /// The operation that failed.
        op: &'static str,
        /// Why.
        error: ServiceError,
    },
}

impl ServiceResponse {
    /// `true` when the response reports a *committed mutation* of the
    /// service state — an admission that admitted, a departure that
    /// departed, or a rebind that answered (a kept-in-place rebind still
    /// replays deterministically). Rejections, failures and status
    /// probes leave the state untouched and never enter the commit log.
    pub fn commits(&self) -> bool {
        matches!(
            self,
            ServiceResponse::Admitted { .. }
                | ServiceResponse::Departed { .. }
                | ServiceResponse::Rebound { .. }
        )
    }

    /// Renders the response as one deterministic JSON object (no
    /// timestamps, no timing data), tagged with the request's sequence
    /// number — the line format of the CLI `serve` mode.
    pub fn to_json_line(&self, seq: u64) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"id\":{seq}");
        match self {
            ServiceResponse::Admitted {
                session,
                app,
                throughput,
                wheel,
                report,
            } => {
                let _ = write!(
                    s,
                    ",\"op\":\"admit\",\"ok\":true,\"session\":{},\"app\":\"{}\",\"throughput\":\"{throughput}\",\"wheel\":{wheel}",
                    session.raw(),
                    json_escape(app)
                );
                if let Some(r) = report {
                    let _ = write!(
                        s,
                        ",\"solver\":\"{}\",\"lower\":\"{}\",\"upper\":\"{}\",\"gap\":\"{}\",\"proven_optimal\":{},\"nodes\":{},\"lp_pivots\":{}",
                        r.kind.name(),
                        r.lower,
                        r.upper,
                        r.gap,
                        r.proven_optimal,
                        r.nodes_expanded,
                        r.lp_pivots
                    );
                }
            }
            ServiceResponse::Rejected { app, error } => {
                let _ = write!(
                    s,
                    ",\"op\":\"admit\",\"ok\":false,\"app\":\"{}\",\"error\":\"{}\"",
                    json_escape(app),
                    json_escape(&error.to_string())
                );
            }
            ServiceResponse::Departed { session, reclaimed } => {
                let _ = write!(
                    s,
                    ",\"op\":\"depart\",\"ok\":true,\"session\":{},\"reclaimed_wheel\":{},\"reclaimed_memory\":{},\"reclaimed_connections\":{}",
                    session.raw(),
                    reclaimed.wheel,
                    reclaimed.memory,
                    reclaimed.connections
                );
            }
            ServiceResponse::Rebound { session, outcome } => {
                let _ = write!(
                    s,
                    ",\"op\":\"rebind\",\"ok\":true,\"session\":{},\"throughput\":\"{}\",\"changed\":{}",
                    session.raw(),
                    outcome.throughput,
                    outcome.changed
                );
            }
            ServiceResponse::Status(status) => {
                let _ = write!(
                    s,
                    ",\"op\":\"status\",\"ok\":true,\"live\":{},\"queue_depth\":{},\"claimed_wheel\":{},\"sessions\":[",
                    status.sessions.len(),
                    status.queue_depth,
                    status.claimed.wheel
                );
                for (i, info) in status.sessions.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"session\":{},\"app\":\"{}\",\"throughput\":\"{}\",\"wheel\":{}}}",
                        info.session.raw(),
                        json_escape(&info.app),
                        info.throughput,
                        info.wheel
                    );
                }
                s.push(']');
            }
            ServiceResponse::Failed { op, error } => {
                let _ = write!(
                    s,
                    ",\"op\":\"{op}\",\"ok\":false,\"error\":\"{}\"",
                    json_escape(&error.to_string())
                );
            }
        }
        s.push('}');
        s
    }
}

/// One live session.
#[derive(Debug, Clone)]
struct Session {
    app: ApplicationGraph,
    allocation: Allocation,
    /// The flow stats of the run that produced `allocation` — what the
    /// tracing layer's warm-cache-hit annotation reads.
    stats: FlowStats,
    /// The certified bound report of the admitting solve, when the
    /// session was admitted (or last rebound) under a solver-backed
    /// policy.
    report: Option<SolveReport>,
}

/// The long-lived admission daemon: persistent residual platform state,
/// a live-session registry, and a queue drained in deterministic
/// batches. See the [module docs](self).
pub struct AllocationService {
    arch: ArchitectureGraph,
    allocator: Allocator,
    residual: PlatformState,
    sessions: BTreeMap<SessionId, Session>,
    next_session: u64,
    queue: Vec<(u64, ServiceRequest)>,
    next_seq: u64,
    batches_drained: usize,
    region_map: RegionMap,
    /// Round-robin home-region counter. It advances once per committed
    /// regional admission — never on load, never on a rejection — so the
    /// home sequence depends only on the commit order the commit log
    /// records, and a replay of the log sees the same homes.
    region_rr: u64,
    /// Escalation depth of the most recent regional commit — the
    /// tracing layer reads it after each traced request. Observational
    /// only; nothing in the admission path consults it.
    last_escalation_depth: Option<u64>,
    /// The admission policy every admit and rebind dispatches through.
    policy: AdmissionPolicy,
}

impl std::fmt::Debug for AllocationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocationService")
            .field("live", &self.sessions.len())
            .field("queue_depth", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl AllocationService {
    /// A service over `arch` with the default [`ServiceConfig`]: empty
    /// platform, no sessions, empty queue.
    pub fn new(arch: &ArchitectureGraph) -> Self {
        Self::from_config(arch, ServiceConfig::default())
    }

    /// A service over `arch` with the given configuration.
    pub fn from_config(arch: &ArchitectureGraph, config: ServiceConfig) -> Self {
        AllocationService {
            arch: arch.clone(),
            allocator: Allocator::from_config(config.flow),
            residual: PlatformState::new(arch),
            sessions: BTreeMap::new(),
            next_session: 1,
            queue: Vec::new(),
            next_seq: 0,
            batches_drained: 0,
            region_map: RegionMap::contiguous(arch, config.regions.max(1)),
            region_rr: 0,
            last_escalation_depth: None,
            policy: config.policy,
        }
    }

    /// The admission policy this service dispatches through.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Routes all service and flow events to `sink`.
    #[must_use]
    pub fn with_sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.allocator = self.allocator.with_sink(sink);
        self
    }

    /// Routes all service and flow events to an already-boxed sink.
    #[must_use]
    pub fn with_boxed_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.allocator = self.allocator.with_boxed_sink(sink);
        self
    }

    /// Attaches a metrics handle shared by every request the service
    /// executes (session counters, the live gauge, the queue-depth
    /// histogram, and all flow instruments).
    #[must_use]
    pub fn with_metrics(mut self, metrics: impl Into<Metrics>) -> Self {
        self.allocator = self.allocator.with_metrics(metrics);
        let regions = self.region_map.region_count() as u64;
        self.allocator
            .metrics()
            .record(|m| m.regions_configured.set(regions));
        self
    }

    /// The platform the service allocates on.
    pub fn arch(&self) -> &ArchitectureGraph {
        &self.arch
    }

    /// The residual platform state (everything claimed by live
    /// sessions).
    pub fn residual(&self) -> &PlatformState {
        &self.residual
    }

    /// The remaining capacity of every tile, tile-index order.
    pub fn residual_capacity(&self) -> Vec<TileCapacity> {
        self.residual.residual_capacities(&self.arch)
    }

    /// The region partition admissions run against (a single region when
    /// regional admission is disabled).
    pub fn region_map(&self) -> &RegionMap {
        &self.region_map
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.sessions.len()
    }

    /// Requests queued but not yet drained.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The current allocation of a live session.
    pub fn allocation(&self, session: SessionId) -> Option<&Allocation> {
        self.sessions.get(&session).map(|s| &s.allocation)
    }

    /// The application of a live session.
    pub fn application(&self, session: SessionId) -> Option<&ApplicationGraph> {
        self.sessions.get(&session).map(|s| &s.app)
    }

    /// Live session ids, admission order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// Flushes the event sink (buffered trace files).
    pub fn flush(&mut self) {
        self.allocator.flush();
    }

    /// Runs the Sec 9 flow for `app` against the residual platform and,
    /// on success, claims the allocation and registers a new session.
    ///
    /// With regional admission enabled ([`ServiceConfig::regions`]
    /// ` > 1`) the flow first runs masked to the request's round-robin
    /// home region and escalates through neighbor regions to the global
    /// fallback (see the [module docs](self#regional-admission)).
    ///
    /// # Errors
    ///
    /// Any [`MapError`] of the flow (the *global* attempt's error when
    /// every escalation step failed); the service state is untouched on
    /// failure.
    pub fn admit(&mut self, app: &ApplicationGraph) -> Result<SessionId, MapError> {
        // Solver-backed admission always runs globally: its certified
        // bounds cover the whole residual platform, which a region mask
        // would narrow.
        if self.policy.is_heuristic() && self.region_map.region_count() > 1 {
            let session = self.admit_regional(app, self.home_region())?;
            // A rejected admit never enters the commit log, so only a
            // commit may move the home of the next admit.
            self.region_rr += 1;
            return Ok(session);
        }
        let outcome = self
            .allocator
            .solve(self.policy, app, &self.arch, &self.residual)?;
        Ok(self.commit_admission(app, outcome.allocation, outcome.stats, outcome.report))
    }

    /// The home region of the next regional admission.
    fn home_region(&self) -> RegionId {
        let count = self.region_map.region_count() as u64;
        RegionId::from_index((self.region_rr % count) as usize)
    }

    /// The escalation chain for `home`: depth 0 masks to the home region
    /// alone, each further depth adds the next of (at most
    /// [`MAX_ESCALATION_NEIGHBORS`]) sorted neighbor regions, and the
    /// final `None` entry is the unmasked global fallback.
    fn escalation_masks(&self, home: RegionId) -> Vec<Option<Vec<RegionId>>> {
        let neighbors = self.region_map.neighbors(home);
        let steps = neighbors.len().min(MAX_ESCALATION_NEIGHBORS);
        let mut masks = Vec::with_capacity(steps + 2);
        for depth in 0..=steps {
            let mut allowed = vec![home];
            allowed.extend_from_slice(&neighbors[..depth]);
            allowed.sort();
            masks.push(Some(allowed));
        }
        masks.push(None);
        masks
    }

    /// Runs the escalation chain of `home` and commits the first
    /// allocation that succeeds.
    fn admit_regional(
        &mut self,
        app: &ApplicationGraph,
        home: RegionId,
    ) -> Result<SessionId, MapError> {
        let masks = self.escalation_masks(home);
        let mut last_err = None;
        for (depth, mask) in masks.iter().enumerate() {
            let attempt = match mask {
                Some(allowed) => {
                    let masked = self
                        .region_map
                        .masked_state(&self.arch, &self.residual, allowed);
                    self.allocator.allocate(app, &self.arch, &masked)
                }
                None => self.allocator.allocate(app, &self.arch, &self.residual),
            };
            match attempt {
                Ok((allocation, stats)) => {
                    self.record_regional_commit(home, depth);
                    return Ok(self.commit_admission(app, allocation, stats, None));
                }
                Err(error) => last_err = Some(error),
            }
        }
        Err(last_err.expect("escalation chain is never empty"))
    }

    /// Records the per-region instruments for one committed regional
    /// admission.
    fn record_regional_commit(&mut self, home: RegionId, depth: usize) {
        self.last_escalation_depth = Some(depth as u64);
        self.allocator.metrics().record(|m| {
            m.region_admits_per_region.add(home.index(), 1);
            m.region_escalation_depth.observe(depth as u64);
            if depth == 0 {
                m.region_admits_local.inc();
            } else {
                m.region_escalations.inc();
            }
        });
    }

    /// Claims a successful allocation on the residual state and
    /// registers the new session — the shared tail of every admission
    /// path (global, solver-backed, regional escalation).
    fn commit_admission(
        &mut self,
        app: &ApplicationGraph,
        allocation: Allocation,
        stats: FlowStats,
        report: Option<SolveReport>,
    ) -> SessionId {
        allocation.claim_set().apply(&mut self.residual);
        let session = SessionId::from_raw(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            session,
            Session {
                app: app.clone(),
                allocation,
                stats,
                report,
            },
        );
        let live = self.sessions.len();
        self.allocator.emit(|| FlowEvent::SessionAdmitted {
            session: session.raw(),
            app: app.graph().name().to_string(),
            live,
        });
        session
    }

    /// Removes a live session and releases everything its allocation
    /// claimed, so later admissions see the freed budgets. Returns the
    /// total reclaimed resources, summed over tiles.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if the session is not live.
    pub fn depart(&mut self, session: SessionId) -> Result<TileUsage, ServiceError> {
        let entry = self
            .sessions
            .remove(&session)
            .ok_or(ServiceError::UnknownSession(session))?;
        let claim = entry.allocation.claim_set();
        claim.revert(&mut self.residual);
        let reclaimed = claim.total();
        let live = self.sessions.len();
        self.allocator.emit(|| FlowEvent::SessionDeparted {
            session: session.raw(),
            live,
        });
        Ok(reclaimed)
    }

    /// Re-runs the flow for a live session against the residual state
    /// *without* the session's own claim — after departures freed
    /// capacity, the session may find a better (smaller-slice) fit. If
    /// re-allocation fails the old allocation is restored untouched; a
    /// rebind never loses a valid session.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if the session is not live.
    pub fn rebind(&mut self, session: SessionId) -> Result<RebindOutcome, ServiceError> {
        let entry = self
            .sessions
            .get(&session)
            .ok_or(ServiceError::UnknownSession(session))?;
        let old = entry.allocation.clone();
        let app = entry.app.clone();
        // Rebind always runs the global flow, even under regional
        // admission: the point of a rebind is to exploit capacity freed
        // *anywhere* by departures, so masking it to a region would
        // defeat it.
        old.claim_set().revert(&mut self.residual);
        let outcome = match self
            .allocator
            .solve(self.policy, &app, &self.arch, &self.residual)
        {
            Ok(solved) => {
                let new_alloc = solved.allocation;
                new_alloc.claim_set().apply(&mut self.residual);
                let changed = new_alloc.binding != old.binding || new_alloc.slices != old.slices;
                let throughput = new_alloc.guaranteed_throughput();
                let entry = self.sessions.get_mut(&session).expect("session is live");
                entry.allocation = new_alloc;
                entry.stats = solved.stats;
                entry.report = solved.report;
                RebindOutcome {
                    throughput,
                    changed,
                }
            }
            Err(_) => {
                // The freed state can only be *more* permissive than the
                // one the session was admitted on, but the heuristic flow
                // gives no such guarantee — restore the old claim.
                old.claim_set().apply(&mut self.residual);
                RebindOutcome {
                    throughput: old.guaranteed_throughput(),
                    changed: false,
                }
            }
        };
        self.allocator.emit(|| FlowEvent::SessionRebound {
            session: session.raw(),
            changed: outcome.changed,
        });
        Ok(outcome)
    }

    /// A point-in-time view: live sessions (admission order), queue
    /// depth, and total claimed resources.
    pub fn status(&self) -> ServiceStatus {
        ServiceStatus {
            sessions: self
                .sessions
                .iter()
                .map(|(&session, entry)| SessionInfo {
                    session,
                    app: entry.app.graph().name().to_string(),
                    throughput: entry.allocation.guaranteed_throughput(),
                    wheel: entry.allocation.usage.iter().map(|u| u.wheel).sum(),
                })
                .collect(),
            queue_depth: self.queue.len(),
            claimed: self.residual.total_usage(),
        }
    }

    /// Accepts a request into the queue and returns its sequence number
    /// (the id its [`drain`](Self::drain) response will carry).
    pub fn enqueue(&mut self, request: ServiceRequest) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let op = request.op();
        self.allocator
            .emit(|| FlowEvent::ServiceRequestQueued { seq, op });
        self.queue.push((seq, request));
        seq
    }

    /// Executes every queued request in arrival order through the same
    /// per-request path as [`execute_request`](Self::execute_request),
    /// and returns `(seq, response)` pairs in the same order.
    ///
    /// Each request runs against the state every earlier one left, so
    /// draining a queue is identical to executing its requests one by
    /// one: how requests are grouped into drains changes no response,
    /// session id or residual byte. One drain is one batch for the
    /// [`ServiceBatchDrained`](FlowEvent::ServiceBatchDrained) event and
    /// the `service_queue_depth` histogram.
    pub fn drain(&mut self) -> Vec<(u64, ServiceResponse)> {
        let pending = std::mem::take(&mut self.queue);
        let requests = pending.len();
        if requests == 0 {
            return Vec::new();
        }
        let responses = pending
            .into_iter()
            .map(|(seq, request)| (seq, self.execute(request)))
            .collect();
        let batch_no = self.batches_drained;
        self.batches_drained += 1;
        self.allocator.emit(|| FlowEvent::ServiceBatchDrained {
            batch: batch_no,
            requests,
        });
        responses
    }

    /// Applies one request to the service state immediately, bypassing
    /// the queue — the entry point of the network front-end, whose
    /// single service thread executes requests in arrival order.
    pub fn execute_request(&mut self, request: ServiceRequest) -> ServiceResponse {
        self.execute(request)
    }

    /// Applies one request and, when the response reports a committed
    /// mutation ([`ServiceResponse::commits`]), appends the request to
    /// `log` — the hook every networked mutation goes through, so that
    /// replaying the log through a fresh sequential service reproduces
    /// the residual [`PlatformState`] byte-for-byte.
    pub fn execute_logged(
        &mut self,
        request: ServiceRequest,
        log: &mut CommitLog,
    ) -> ServiceResponse {
        let logged = request.clone();
        let response = self.execute(request);
        if response.commits() {
            let failures = log.write_failures;
            log.append(&logged);
            let failed = log.write_failures > failures;
            self.allocator.metrics().record(|m| {
                m.net_commits_logged.inc();
                if failed {
                    m.net_log_write_failures.inc();
                }
            });
        }
        response
    }

    /// [`execute_logged`](Self::execute_logged) under a request trace:
    /// opens an event tap on the allocator for the duration of the
    /// request, then moves the captured flow events — stamped on the
    /// request's clock, so they nest inside its `execute` span — and the
    /// escalation-depth / warm-cache-hit annotations into `trace`.
    ///
    /// Tracing is observational only — the response, the residual
    /// state, and the commit log are byte-identical with and without
    /// it (the `trace_reconciliation` conformance oracle pins that, and
    /// the event trail against the cache's probe counts).
    pub fn execute_traced(
        &mut self,
        request: ServiceRequest,
        log: &mut CommitLog,
        trace: &mut crate::trace::RequestTrace,
    ) -> ServiceResponse {
        self.last_escalation_depth = None;
        self.allocator.begin_event_tap(trace.started_at());
        let response = self.execute_logged(request, log);
        let events = self.allocator.end_event_tap();
        trace.set_escalation_depth(self.last_escalation_depth);
        let committed_session = match &response {
            ServiceResponse::Admitted { session, .. }
            | ServiceResponse::Rebound { session, .. } => Some(*session),
            _ => None,
        };
        if let Some(entry) = committed_session.and_then(|s| self.sessions.get(&s)) {
            trace.set_warm_cache_hit(entry.stats.cache_hits > 0);
        }
        trace.attach_events(events);
        response
    }

    /// The [`PlatformState::digest`] of the residual state — the
    /// byte-equality witness the commit-log replay compares against.
    pub fn residual_digest(&self) -> String {
        self.residual.digest()
    }

    /// Applies one request to the service state.
    fn execute(&mut self, request: ServiceRequest) -> ServiceResponse {
        match request {
            ServiceRequest::Admit { app } => {
                let name = app.graph().name().to_string();
                match self.admit(&app) {
                    Ok(session) => {
                        let entry = &self.sessions[&session];
                        let allocation = &entry.allocation;
                        ServiceResponse::Admitted {
                            session,
                            app: name,
                            throughput: allocation.guaranteed_throughput(),
                            wheel: allocation.usage.iter().map(|u| u.wheel).sum(),
                            report: entry.report,
                        }
                    }
                    Err(error) => ServiceResponse::Rejected { app: name, error },
                }
            }
            ServiceRequest::Depart { session } => match self.depart(session) {
                Ok(reclaimed) => ServiceResponse::Departed { session, reclaimed },
                Err(error) => ServiceResponse::Failed {
                    op: "depart",
                    error,
                },
            },
            ServiceRequest::Rebind { session } => match self.rebind(session) {
                Ok(outcome) => ServiceResponse::Rebound { session, outcome },
                Err(error) => ServiceResponse::Failed {
                    op: "rebind",
                    error,
                },
            },
            ServiceRequest::Status => ServiceResponse::Status(self.status()),
        }
    }
}

/// Why a request line could not be parsed into a [`ServiceRequest`].
///
/// One shared error type covers every ingress path — the CLI's
/// `serve --input` batch files, the network front-end's live framing,
/// and commit-log replay — so malformed input is reported identically
/// everywhere: the 1-based line number (when the source has one), the
/// offending field, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestParseError {
    /// 1-based line number in the source file or stream, if known.
    pub line: Option<usize>,
    /// The JSON field the error is about (`"op"`, `"session"`, …), if
    /// the error is attributable to one.
    pub field: Option<&'static str>,
    /// What was wrong.
    pub detail: String,
}

impl RequestParseError {
    /// An error about one field of the request object.
    pub fn field(field: &'static str, detail: impl Into<String>) -> Self {
        RequestParseError {
            line: None,
            field: Some(field),
            detail: detail.into(),
        }
    }

    /// An error about the line as a whole (framing, not a field).
    pub fn malformed(detail: impl Into<String>) -> Self {
        RequestParseError {
            line: None,
            field: None,
            detail: detail.into(),
        }
    }

    /// Attaches the 1-based source line number.
    #[must_use]
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Renders the error as the network front-end's typed response line:
    /// `{"id":id,"ok":false,"kind":"parse",...}` with the field and
    /// detail carried along.
    pub fn to_json_line(&self, id: u64) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{{\"id\":{id},\"ok\":false,\"kind\":\"parse\"");
        if let Some(field) = self.field {
            let _ = write!(s, ",\"field\":\"{field}\"");
        }
        let _ = write!(s, ",\"detail\":\"{}\"}}", json_escape(&self.detail));
        s
    }
}

impl std::fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(line) = self.line {
            write!(f, "request line {line}: ")?;
        }
        if let Some(field) = self.field {
            write!(f, "field \"{field}\": ")?;
        }
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for RequestParseError {}

/// One decoded value of a flat request object.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(u64),
    Other,
}

/// Scans a single-line JSON object into `(key, value)` pairs.
///
/// A real tokenizer rather than substring search: keys appearing
/// *inside* string values (an embedded application text mentioning
/// `"session"`) must never be mistaken for fields. Nested objects and
/// arrays are skipped structurally and reported as [`JsonValue::Other`].
fn scan_object(line: &str) -> Result<Vec<(String, JsonValue)>, RequestParseError> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return Err(RequestParseError::malformed("not a JSON object"));
    }
    i += 1;
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut i);
        if i < bytes.len() && bytes[i] == b'}' {
            return Ok(fields);
        }
        let (key, after) = scan_string(line, i)?;
        i = after;
        skip_ws(&mut i);
        if i >= bytes.len() || bytes[i] != b':' {
            return Err(RequestParseError::malformed(format!(
                "missing `:` after key \"{key}\""
            )));
        }
        i += 1;
        skip_ws(&mut i);
        if i >= bytes.len() {
            return Err(RequestParseError::malformed("truncated object"));
        }
        match bytes[i] {
            b'"' => {
                let (value, after) = scan_string(line, i)?;
                i = after;
                fields.push((key, JsonValue::Str(value)));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let number: u64 = line[start..i]
                    .parse()
                    .map_err(|_| RequestParseError::malformed("number out of range"))?;
                fields.push((key, JsonValue::Num(number)));
            }
            _ => {
                i = skip_value(line, i)?;
                fields.push((key, JsonValue::Other));
            }
        }
        skip_ws(&mut i);
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
            continue;
        }
        if i < bytes.len() && bytes[i] == b'}' {
            return Ok(fields);
        }
        return Err(RequestParseError::malformed("missing `,` or `}`"));
    }
}

/// Decodes the JSON string starting at byte `at` (which must be `"`),
/// returning the decoded value and the index just past the closing
/// quote.
fn scan_string(line: &str, at: usize) -> Result<(String, usize), RequestParseError> {
    let bytes = line.as_bytes();
    if at >= bytes.len() || bytes[at] != b'"' {
        return Err(RequestParseError::malformed("expected a string"));
    }
    let mut out = String::new();
    let mut chars = line[at + 1..].char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => return Ok((out, at + 1 + off + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars
                            .next()
                            .ok_or_else(|| RequestParseError::malformed("truncated \\u escape"))?;
                        code = code * 16
                            + h.to_digit(16).ok_or_else(|| {
                                RequestParseError::malformed("bad \\u escape digit")
                            })?;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => {
                    return Err(RequestParseError::malformed(format!(
                        "unsupported escape {:?}",
                        other.map(|(_, c)| c)
                    )))
                }
            },
            c => out.push(c),
        }
    }
    Err(RequestParseError::malformed("unterminated string"))
}

/// Skips one non-string, non-number JSON value (literal, array, or
/// object) starting at `at`, returning the index just past it.
fn skip_value(line: &str, at: usize) -> Result<usize, RequestParseError> {
    let bytes = line.as_bytes();
    match bytes[at] {
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = at;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        let (_, after) = scan_string(line, i)?;
                        i = after;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            Err(RequestParseError::malformed("unbalanced brackets"))
        }
        _ => {
            let mut i = at;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'.' | b'-' | b'+'))
            {
                i += 1;
            }
            if i == at {
                return Err(RequestParseError::malformed("unparseable value"));
            }
            Ok(i)
        }
    }
}

/// Parses one wire/commit-log/batch-file request line into a
/// [`ServiceRequest`].
///
/// Accepted shapes (flat JSON objects; unknown fields like the commit
/// log's `"seq"` are ignored):
///
/// * `{"op":"admit","app":"<escaped .sdfa text>"}` — inline application;
/// * `{"op":"admit","example":"paper"}` — a
///   [bundled](sdfrs_appmodel::apps::bundled) example;
/// * `{"op":"admit","app_file":"x.sdfa"}` — read from disk;
/// * `{"op":"depart","session":1}` / `{"op":"rebind","session":2}`;
/// * `{"op":"status"}`.
///
/// # Errors
///
/// A [`RequestParseError`] naming the offending field; attach the
/// source line number with [`RequestParseError::at_line`].
pub fn parse_request_line(line: &str) -> Result<ServiceRequest, RequestParseError> {
    let fields = scan_object(line)?;
    let str_field = |name: &str| {
        fields.iter().find_map(|(k, v)| match v {
            JsonValue::Str(s) if k == name => Some(s.clone()),
            _ => None,
        })
    };
    let num_field = |name: &'static str| -> Result<u64, RequestParseError> {
        fields
            .iter()
            .find_map(|(k, v)| match v {
                JsonValue::Num(n) if k == name => Some(*n),
                _ => None,
            })
            .ok_or_else(|| RequestParseError::field(name, format!("needs an unsigned \"{name}\"")))
    };
    let op = str_field("op").ok_or_else(|| RequestParseError::field("op", "missing field"))?;
    match op.as_str() {
        "admit" => {
            let app = if let Some(text) = str_field("app") {
                sdfrs_appmodel::textio::parse_application(&text)
                    .map_err(|e| RequestParseError::field("app", e.to_string()))?
            } else if let Some(name) = str_field("example") {
                sdfrs_appmodel::apps::bundled(&name).ok_or_else(|| {
                    RequestParseError::field("example", format!("unknown example {name:?}"))
                })?
            } else if let Some(path) = str_field("app_file") {
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    RequestParseError::field("app_file", format!("cannot read {path}: {e}"))
                })?;
                sdfrs_appmodel::textio::parse_application(&text)
                    .map_err(|e| RequestParseError::field("app_file", format!("{path}: {e}")))?
            } else {
                return Err(RequestParseError::field(
                    "app",
                    "admit needs \"app\", \"example\" or \"app_file\"",
                ));
            };
            Ok(ServiceRequest::Admit { app: Box::new(app) })
        }
        "depart" => Ok(ServiceRequest::Depart {
            session: SessionId::from_raw(num_field("session")?),
        }),
        "rebind" => Ok(ServiceRequest::Rebind {
            session: SessionId::from_raw(num_field("session")?),
        }),
        "status" => Ok(ServiceRequest::Status),
        other => Err(RequestParseError::field(
            "op",
            format!("unknown op {other:?} (admit|depart|rebind|status)"),
        )),
    }
}

/// Pre-parse metadata of one wire request line: the optional
/// client-supplied trace id and the introspection selectors. All
/// fields are optional and unknown to [`parse_request_line`], which
/// ignores them — metadata never changes what a request *does*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// The top-level `"trace"` string field, verbatim.
    pub trace: Option<String>,
    /// The top-level `"kind"` string field (`"introspect"`).
    pub kind: Option<String>,
    /// The top-level `"what"` string field (introspection target).
    pub what: Option<String>,
}

/// Scans the trace / introspection metadata off a request line without
/// fully parsing it. Runs the same tokenizer as [`parse_request_line`]
/// (safe on untrusted input); a line that does not scan as a JSON
/// object yields an all-`None` meta, and the parse error is reported by
/// the request parse that follows.
#[must_use]
pub fn peek_request_meta(line: &str) -> RequestMeta {
    let Ok(fields) = scan_object(line) else {
        return RequestMeta::default();
    };
    let get = |name: &str| {
        fields.iter().find_map(|(key, value)| match value {
            JsonValue::Str(s) if key == name => Some(s.clone()),
            _ => None,
        })
    };
    RequestMeta {
        trace: get("trace"),
        kind: get("kind"),
        what: get("what"),
    }
}

/// The deterministic commit log of a service: one
/// [`ServiceRequest::to_json_line`] record per *committed* mutation
/// (admits that admitted, departs that departed, rebinds that answered
/// — never rejections, status probes, shed or expired requests), with
/// monotonically increasing `"seq"` numbers in commit order.
///
/// Replaying the records in order through a fresh sequential
/// [`AllocationService`] ([`replay_commit_log`]) reproduces the residual
/// [`PlatformState`] byte-for-byte: session ids are assigned in commit
/// order on both sides, and every allocation is a deterministic function
/// of the evolving residual state.
#[derive(Default)]
pub struct CommitLog {
    lines: Vec<String>,
    writer: Option<Box<dyn std::io::Write + Send>>,
    write_failures: u64,
}

impl std::fmt::Debug for CommitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitLog")
            .field("records", &self.lines.len())
            .field("streaming", &self.writer.is_some())
            .field("write_failures", &self.write_failures)
            .finish()
    }
}

impl CommitLog {
    /// An empty in-memory log.
    pub fn new() -> Self {
        CommitLog::default()
    }

    /// An empty log that additionally streams every record to `writer`
    /// (line-buffered: one `write_all` + newline per record).
    pub fn with_writer(writer: impl std::io::Write + Send + 'static) -> Self {
        CommitLog {
            writer: Some(Box::new(writer)),
            ..CommitLog::default()
        }
    }

    /// Appends one committed request, returning its sequence number.
    pub fn append(&mut self, request: &ServiceRequest) -> u64 {
        let seq = self.lines.len() as u64;
        let line = request.to_json_line(seq);
        if let Some(w) = &mut self.writer {
            // A failed log write must not corrupt the in-memory record;
            // it is counted, and the server reports the count in its
            // final stats line and its `health` answer.
            if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
                self.write_failures += 1;
            }
        }
        self.lines.push(line);
        seq
    }

    /// Records whose write or flush to the stream failed (always 0 for
    /// an in-memory log). The records themselves are still in
    /// [`lines`](Self::lines).
    pub fn write_failures(&self) -> u64 {
        self.write_failures
    }

    /// Records appended so far, commit order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when nothing committed yet.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Replays commit-log `lines` through a fresh sequential
/// [`AllocationService`] over `arch` and returns the resulting service
/// (compare [`AllocationService::residual_digest`] against the live
/// run's). Empty lines are skipped, and so is a last record whose
/// framing is broken: a crash mid-write leaves the final line cut short,
/// and that record was never acknowledged.
///
/// # Errors
///
/// A [`RequestParseError`] (with the 1-based line number attached) when
/// a record before the last does not parse, or the last one has a field
/// error.
pub fn replay_commit_log<'a>(
    arch: &ArchitectureGraph,
    config: ServiceConfig,
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<AllocationService, RequestParseError> {
    let mut service = AllocationService::from_config(arch, config);
    // A framing error is fatal only once a later record shows that its
    // line was not the torn tail.
    let mut torn: Option<RequestParseError> = None;
    for (no, line) in lines.into_iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(e) = torn.take() {
            return Err(e);
        }
        match parse_request_line(line) {
            Ok(request) => {
                service.execute_request(request);
            }
            Err(e) if e.field.is_none() => torn = Some(e.at_line(no + 1)),
            Err(e) => return Err(e.at_line(no + 1)),
        }
    }
    Ok(service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};

    fn service() -> AllocationService {
        AllocationService::new(&example_platform())
    }

    #[test]
    fn admit_claims_and_depart_releases() {
        let mut s = service();
        let empty = s.residual().clone();
        let id = s.admit(&paper_example()).unwrap();
        assert_ne!(s.residual(), &empty);
        assert_eq!(s.live_count(), 1);
        let reclaimed = s.depart(id).unwrap();
        assert!(reclaimed.wheel > 0);
        assert_eq!(s.residual(), &empty, "depart must release the exact claim");
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn session_ids_are_never_reused() {
        let mut s = service();
        let a = s.admit(&paper_example()).unwrap();
        s.depart(a).unwrap();
        let b = s.admit(&paper_example()).unwrap();
        assert!(b > a);
        assert_eq!(
            s.depart(a),
            Err(ServiceError::UnknownSession(a)),
            "a departed ticket must stay invalid"
        );
    }

    #[test]
    fn drain_matches_direct_calls() {
        let app = paper_example();
        let mut online = service();
        let mut batched = service();
        let requests = [
            ServiceRequest::Admit {
                app: Box::new(app.clone()),
            },
            ServiceRequest::Admit {
                app: Box::new(app.clone()),
            },
            ServiceRequest::Depart {
                session: SessionId::from_raw(2),
            },
            ServiceRequest::Status,
        ];
        let mut online_responses = Vec::new();
        for r in &requests {
            let seq = online.enqueue(r.clone());
            let mut drained = online.drain();
            assert_eq!(drained.len(), 1);
            let (got_seq, response) = drained.pop().unwrap();
            assert_eq!(got_seq, seq);
            online_responses.push(response);
        }
        for r in &requests {
            batched.enqueue(r.clone());
        }
        let batched_responses: Vec<ServiceResponse> =
            batched.drain().into_iter().map(|(_, r)| r).collect();
        assert_eq!(online_responses, batched_responses);
        assert_eq!(online.residual(), batched.residual());
    }

    #[test]
    fn status_reports_sessions_in_admission_order() {
        let mut s = service();
        let a = s.admit(&paper_example()).unwrap();
        let b = s.admit(&paper_example()).unwrap();
        let status = s.status();
        assert_eq!(status.sessions.len(), 2);
        assert_eq!(status.sessions[0].session, a);
        assert_eq!(status.sessions[1].session, b);
        assert_eq!(status.claimed, s.residual().total_usage());
        assert_eq!(status.queue_depth, 0);
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let mut s = service();
        for request in [
            ServiceRequest::Admit {
                app: Box::new(paper_example()),
            },
            ServiceRequest::Status,
            ServiceRequest::Depart {
                session: SessionId::from_raw(99),
            },
        ] {
            s.enqueue(request);
        }
        for (seq, response) in s.drain() {
            let line = response.to_json_line(seq);
            assert!(
                line.starts_with(&format!("{{\"id\":{seq},\"op\":\"")),
                "{line}"
            );
            assert!(line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "{line}");
        }
    }
}
