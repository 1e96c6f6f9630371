//! SDFG-direct multiprocessor resource allocation with throughput
//! guarantees — the core contribution of the DAC 2007 paper
//! (Stuijk, Basten, Geilen, Corporaal: "Multiprocessor Resource Allocation
//! for Throughput-Constrained Synchronous Dataflow Graphs").
//!
//! The strategy binds a multi-rate, cyclic SDF application to a
//! heterogeneous tile-based MP-SoC and allocates TDMA time slices such
//! that a throughput constraint is *guaranteed*, independent of the other
//! applications sharing the platform. It never converts the SDFG to its
//! (exponentially larger) homogeneous equivalent; instead:
//!
//! * binding decisions are modeled *into* the graph
//!   ([`BindingAwareGraph`], Sec 8.1);
//! * scheduling decisions (static orders + TDMA wheels) *constrain* a
//!   self-timed state-space exploration ([`ConstrainedExecutor`],
//!   Sec 8.2);
//! * the three-step flow (Sec 9), driven by the [`Allocator`] front-end,
//!   composes the binding step ([`bind`]), the list scheduler
//!   ([`list_sched`]) and the slice-allocation binary searches (the
//!   [`slice`](crate::slice#) module).
//!
//! The [`multi_app`], [`admission`] and [`buffers`] modules cover the
//! surrounding protocol pieces (allocating application sequences,
//! admission ordering/skipping and platform dimensioning, storage
//! distribution minimization), [`service`] runs the online admission
//! loop (long-lived sessions that admit, depart and rebind against a
//! persistent platform), and [`gantt`] renders execution traces.
//! Every phase of every run reports typed [`events::FlowEvent`]s through
//! one observer, which delivers each event to the allocator's pluggable
//! [`events::EventSink`] and folds it into the [`metrics`] registry —
//! atomic counters, fixed-bucket histograms and a hierarchical phase
//! profiler with Prometheus / JSON exporters.
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
//! let (allocation, stats) = Allocator::new().allocate(&app, &arch, &state)?;
//! assert!(allocation.guaranteed_throughput() >= app.throughput_constraint());
//! assert!(stats.throughput_checks > 0);
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod allocator;
pub mod baseline;
pub mod bind;
pub mod binding;
pub mod binding_aware;
pub mod buffers;
pub mod constrained;
pub mod cost;
pub mod dse;
pub mod error;
pub mod events;
pub mod exact;
pub mod flow;
pub mod gantt;
pub mod ids;
pub mod list_sched;
pub mod metrics;
pub mod multi_app;
pub mod report;
pub mod resources;
pub mod schedule;
pub mod service;
pub mod simplex;
pub mod slice;
pub mod solver;
pub mod tdma;
pub mod thru_cache;
pub mod trace;
pub mod tutorial;
pub mod verify;

pub use admission::{AdmissionOrder, AdmissionPolicy, AdmissionResult};
pub use allocator::Allocator;
pub use binding::{Binding, ChannelPartition};
pub use binding_aware::{BaActorKind, BindingAwareGraph, ConnectionModel};
pub use constrained::{
    constrained_throughput, ConstrainedExecutor, ExecutionTrace, TileSchedules, TraceEvent,
};
pub use cost::CostWeights;
pub use error::MapError;
pub use events::{
    EventSink, FlowEvent, FlowPhase, JsonlSink, LogSink, MultiSink, NullSink, RecordingSink,
};
pub use exact::{enumerate_exhaustive, ExactConfig};
pub use flow::{Allocation, FlowConfig, FlowStats};
pub use ids::{AppId, SessionId};
pub use metrics::{Metrics, MetricsRegistry, MetricsSnapshot, NullMetrics};
pub use schedule::StaticOrderSchedule;
pub use service::{
    peek_request_meta, AllocationService, RequestMeta, ServiceConfig, ServiceError, ServiceRequest,
    ServiceResponse, ServiceStatus, MAX_ESCALATION_NEIGHBORS,
};
pub use solver::{SolveOutcome, SolveReport, SolverKind};
pub use thru_cache::ThroughputCache;
pub use trace::{CompletedTrace, FlightEntry, FlightRecorder, RequestTrace, TraceId, TraceOutcome};
