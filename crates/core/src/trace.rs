//! Request-scoped tracing and the anomaly flight recorder.
//!
//! Every request entering the networked allocation service carries a
//! [`TraceId`] — supplied by the client in an optional top-level
//! `"trace"` field, or derived deterministically by the server from the
//! connection and request counters otherwise. As the request moves
//! through the stack (`wire` framing → server queue → service → the
//! allocator's event stream) a [`RequestTrace`] accumulates a span tree
//! (`parse` / `queue` / `execute`) plus the annotations the operator
//! actually asks about when a request misbehaves: how long it waited in
//! the queue, how much of the deadline was left at dispatch, how deep
//! regional admission had to escalate, and whether the throughput
//! cache was warm.
//!
//! The [`FlightRecorder`] retains the last *N* completed traces in a
//! bounded ring and *pins* anomalous ones (shed, deadline expiry,
//! admission rejection, parse error, or latency above a configurable
//! slow threshold) so they survive ring eviction. The whole recorder
//! dumps as JSONL on demand (`introspect what=traces` over the wire,
//! `serve --trace-dump` on shutdown).
//!
//! # Determinism contract
//!
//! Trace IDs and timestamps are observational only: they never reach
//! the allocator's search and never influence allocation results or
//! the commit log. Requests are logged *without* their trace field, so
//! a commit-log replay is byte-identical whether or not tracing was on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::events::FlowEvent;
use crate::service::ServiceResponse;

/// A 64-bit request identifier, rendered as 16 lowercase hex digits.
///
/// Comparable, hashable, and copied freely; the zero value is legal
/// (a client may supply `"trace":"0"`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw 64-bit value.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw 64-bit value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Parses 1–16 hex digits (case-insensitive). Anything else —
    /// empty, overlong, or non-hex — is `None`, and the caller falls
    /// back to a server-derived id.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }

    /// Derives a server-side id from the connection and per-connection
    /// request counters via a splitmix64 finalizer. Deterministic for
    /// a given (connection, request) pair; the id never influences the
    /// allocation itself.
    #[must_use]
    pub fn derive(connection: u64, request: u64) -> Self {
        let mut z = connection
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(request)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TraceId(z ^ (z >> 31))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Debug for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceId({:016x})", self.0)
    }
}

/// How a traced request ended, as seen at the wire.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Admission committed a new session.
    Admitted,
    /// Admission ran to completion but found no valid allocation.
    Rejected,
    /// A session departed.
    Departed,
    /// A session was re-evaluated in the current residual.
    Rebound,
    /// A status probe answered.
    Status,
    /// A session-addressed request failed (unknown session).
    Failed,
    /// Backpressure shed the request at the given queue depth.
    Shed {
        /// Queue depth observed when the request was shed.
        queue_depth: u64,
    },
    /// The request out-waited the server deadline in the queue.
    DeadlineExpired,
    /// The request line did not parse.
    ParseError,
}

impl TraceOutcome {
    /// Maps a service response to its trace outcome.
    #[must_use]
    pub fn from_response(response: &ServiceResponse) -> Self {
        match response {
            ServiceResponse::Admitted { .. } => TraceOutcome::Admitted,
            ServiceResponse::Rejected { .. } => TraceOutcome::Rejected,
            ServiceResponse::Departed { .. } => TraceOutcome::Departed,
            ServiceResponse::Rebound { .. } => TraceOutcome::Rebound,
            ServiceResponse::Status(_) => TraceOutcome::Status,
            _ => TraceOutcome::Failed,
        }
    }

    /// Stable lowercase label used in the JSONL dump.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TraceOutcome::Admitted => "admitted",
            TraceOutcome::Rejected => "rejected",
            TraceOutcome::Departed => "departed",
            TraceOutcome::Rebound => "rebound",
            TraceOutcome::Status => "status",
            TraceOutcome::Failed => "failed",
            TraceOutcome::Shed { .. } => "shed",
            TraceOutcome::DeadlineExpired => "deadline",
            TraceOutcome::ParseError => "parse_error",
        }
    }

    /// The intrinsic anomaly class of this outcome, if any. Latency
    /// anomalies (`"slow"`) are the recorder's to judge — they depend
    /// on its configured threshold, not on the outcome.
    #[must_use]
    pub fn anomaly(&self) -> Option<&'static str> {
        match self {
            TraceOutcome::Shed { .. } => Some("shed"),
            TraceOutcome::DeadlineExpired => Some("deadline"),
            TraceOutcome::Rejected => Some("rejected"),
            TraceOutcome::ParseError => Some("parse_error"),
            _ => None,
        }
    }
}

/// An in-flight request trace: created when the request line arrives,
/// marked as it crosses each stage, finished into a [`CompletedTrace`]
/// when the response is written.
#[derive(Debug)]
pub struct RequestTrace {
    id: TraceId,
    op: &'static str,
    started: Instant,
    parse_us: u64,
    dispatch_us: Option<u64>,
    queue_wait_us: Option<u64>,
    deadline_remaining_us: Option<i64>,
    escalation_depth: Option<u64>,
    warm_cache_hit: Option<bool>,
    events: Vec<(Duration, FlowEvent)>,
}

impl RequestTrace {
    /// Starts a trace; the clock for every span starts now.
    #[must_use]
    pub fn begin(id: TraceId, op: &'static str) -> Self {
        RequestTrace {
            id,
            op,
            started: Instant::now(),
            parse_us: 0,
            dispatch_us: None,
            queue_wait_us: None,
            deadline_remaining_us: None,
            escalation_depth: None,
            warm_cache_hit: None,
            events: Vec::new(),
        }
    }

    /// The request's trace id.
    #[must_use]
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The instant the request arrived: time zero of every span and
    /// event timestamp in this trace.
    #[must_use]
    pub fn started_at(&self) -> Instant {
        self.started
    }

    /// Names the operation once parsing has identified it.
    pub fn set_op(&mut self, op: &'static str) {
        self.op = op;
    }

    fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Ends the `parse` span (and implicitly starts the `queue` span).
    pub fn mark_parsed(&mut self) {
        self.parse_us = self.elapsed_us();
    }

    /// Ends the `queue` span: the request left the queue with
    /// `deadline_remaining_us` microseconds of deadline left (negative
    /// when already expired).
    pub fn mark_dequeued(&mut self, deadline_remaining_us: i64) {
        let now = self.elapsed_us();
        self.dispatch_us = Some(now);
        self.queue_wait_us = Some(now.saturating_sub(self.parse_us));
        self.deadline_remaining_us = Some(deadline_remaining_us);
    }

    /// Records how deep regional admission escalated (0 = home region).
    pub fn set_escalation_depth(&mut self, depth: Option<u64>) {
        self.escalation_depth = depth;
    }

    /// Records whether the throughput cache already held entries the
    /// request could hit.
    pub fn set_warm_cache_hit(&mut self, warm: bool) {
        self.warm_cache_hit = Some(warm);
    }

    /// Attaches the flow events the allocator's tap captured while
    /// executing this request, stamped on this trace's clock (time since
    /// [`started_at`](Self::started_at), `t_us` in the dump) like the
    /// spans they nest under.
    pub fn attach_events(&mut self, events: Vec<(Duration, FlowEvent)>) {
        self.events = events;
    }

    /// Seals the trace with its wire-visible outcome.
    #[must_use]
    pub fn finish(self, outcome: TraceOutcome) -> CompletedTrace {
        let total_us = self.elapsed_us();
        CompletedTrace {
            id: self.id,
            op: self.op,
            outcome,
            total_us,
            parse_us: self.parse_us,
            dispatch_us: self.dispatch_us,
            queue_wait_us: self.queue_wait_us,
            deadline_remaining_us: self.deadline_remaining_us,
            escalation_depth: self.escalation_depth,
            warm_cache_hit: self.warm_cache_hit,
            events: self.events,
        }
    }
}

/// A finished request trace: the span tree, its annotations, and the
/// captured flow-event trail.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The request's trace id.
    pub id: TraceId,
    /// Operation name (`admit`, `depart`, …; `line` before parsing).
    pub op: &'static str,
    /// How the request ended at the wire.
    pub outcome: TraceOutcome,
    /// Wall-clock from line arrival to response, microseconds.
    pub total_us: u64,
    /// End of the `parse` span, microseconds from arrival.
    pub parse_us: u64,
    /// Dispatch instant (end of the `queue` span), if the request got
    /// that far.
    pub dispatch_us: Option<u64>,
    /// Time spent queued, if the request was queued.
    pub queue_wait_us: Option<u64>,
    /// Deadline budget left at dispatch (negative: already expired).
    pub deadline_remaining_us: Option<i64>,
    /// Regional admission escalation depth (0 = home region).
    pub escalation_depth: Option<u64>,
    /// Whether the throughput cache served at least one hit.
    pub warm_cache_hit: Option<bool>,
    /// The flow events emitted while executing this request, on the
    /// request's clock (inside the `execute` span).
    pub events: Vec<(Duration, FlowEvent)>,
}

impl CompletedTrace {
    /// The anomaly class of this trace under the given slow-latency
    /// threshold: the outcome's intrinsic anomaly first, else
    /// `"slow"` when the total latency breaches the threshold.
    #[must_use]
    pub fn anomaly(&self, slow_threshold_us: Option<u64>) -> Option<&'static str> {
        self.outcome.anomaly().or_else(|| {
            slow_threshold_us
                .is_some_and(|t| self.total_us >= t)
                .then_some("slow")
        })
    }

    /// Renders the span tree as one JSON object (no trailing newline):
    /// annotations first, then the `request` root span with `parse`,
    /// `queue`, and `execute` children, the event trail nested under
    /// `execute`. Key order is fixed; only `*_us` timestamps vary
    /// between runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"trace\":\"{}\",\"op\":\"{}\",\"outcome\":\"{}\",\"total_us\":{}",
            self.id,
            self.op,
            self.outcome.label(),
            self.total_us
        );
        if let TraceOutcome::Shed { queue_depth } = self.outcome {
            let _ = write!(s, ",\"queue_depth\":{queue_depth}");
        }
        s.push_str(",\"annotations\":{");
        let mut first = true;
        let mut field = |s: &mut String, name: &str, value: String| {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{name}\":{value}");
        };
        if let Some(v) = self.queue_wait_us {
            field(&mut s, "queue_wait_us", v.to_string());
        }
        if let Some(v) = self.deadline_remaining_us {
            field(&mut s, "deadline_remaining_us", v.to_string());
        }
        if let Some(v) = self.escalation_depth {
            field(&mut s, "escalation_depth", v.to_string());
        }
        if let Some(v) = self.warm_cache_hit {
            field(&mut s, "warm_cache_hit", v.to_string());
        }
        s.push('}');
        let _ = write!(
            s,
            ",\"span\":{{\"name\":\"request\",\"start_us\":0,\"end_us\":{},\"children\":[",
            self.total_us
        );
        let _ = write!(
            s,
            "{{\"name\":\"parse\",\"start_us\":0,\"end_us\":{}}}",
            self.parse_us
        );
        if let Some(dispatch) = self.dispatch_us {
            let _ = write!(
                s,
                ",{{\"name\":\"queue\",\"start_us\":{},\"end_us\":{dispatch}}}",
                self.parse_us
            );
            let _ = write!(
                s,
                ",{{\"name\":\"execute\",\"start_us\":{dispatch},\"end_us\":{},\"events\":[",
                self.total_us
            );
            for (i, (at, event)) in self.events.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&event.to_json(*at));
            }
            s.push_str("]}");
        }
        s.push_str("]}}");
        s
    }
}

/// One retained flight-recorder entry: the trace, its anomaly class
/// (if pinned), and a monotonically increasing record sequence.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// The completed trace (shared between the ring and the pin list).
    pub trace: Arc<CompletedTrace>,
    /// Why this entry was pinned, `None` for ordinary traffic.
    pub anomaly: Option<&'static str>,
    /// Record sequence number (0-based, total order of recording).
    pub seq: u64,
}

impl FlightEntry {
    /// Renders the entry as one JSON line: recorder metadata (`seq`,
    /// `anomaly`) prepended to the trace's own span-tree object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body = self.trace.to_json();
        let mut s = String::with_capacity(body.len() + 48);
        let _ = write!(s, "{{\"seq\":{}", self.seq);
        if let Some(anomaly) = self.anomaly {
            let _ = write!(s, ",\"anomaly\":\"{anomaly}\"");
        }
        s.push(',');
        s.push_str(&body[1..]);
        s
    }
}

/// A bounded ring of recent request traces with anomaly pinning.
///
/// The write cursor is a lock-free atomic: concurrent recorders (the
/// reader threads and the service thread) claim distinct slots without
/// coordination. Each slot swap takes a short per-slot mutex — held
/// only for the `Arc` swap, contended only when the ring wraps onto a
/// slot being read — and the pin list takes its own mutex on the rare
/// anomalous path. All locks recover from poisoning, so a panicking
/// recorder cannot take the recorder down with it.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEntry>>>,
    head: AtomicU64,
    pinned: Mutex<Vec<FlightEntry>>,
    pinned_capacity: usize,
    pinned_total: AtomicU64,
    slow_threshold_us: Option<u64>,
}

fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` traces (clamped to at
    /// least 1) and pinning up to `4 * capacity` anomalous ones.
    /// Requests at or above `slow_threshold` total latency are pinned
    /// as `"slow"`.
    #[must_use]
    pub fn new(capacity: usize, slow_threshold: Option<Duration>) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            pinned: Mutex::new(Vec::new()),
            pinned_capacity: capacity * 4,
            pinned_total: AtomicU64::new(0),
            slow_threshold_us: slow_threshold
                .map(|t| t.as_micros().min(u128::from(u64::MAX)) as u64),
        }
    }

    /// Ring capacity (traces retained without pinning).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The configured slow-request threshold, microseconds.
    #[must_use]
    pub fn slow_threshold_us(&self) -> Option<u64> {
        self.slow_threshold_us
    }

    /// Traces recorded so far (including ones since evicted).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Traces pinned as anomalous so far.
    #[must_use]
    pub fn pinned_total(&self) -> u64 {
        self.pinned_total.load(Ordering::Relaxed)
    }

    /// Records a completed trace; returns its anomaly class when the
    /// trace was pinned.
    pub fn record(&self, trace: CompletedTrace) -> Option<&'static str> {
        let anomaly = trace.anomaly(self.slow_threshold_us);
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let entry = FlightEntry {
            trace: Arc::new(trace),
            anomaly,
            seq,
        };
        if anomaly.is_some() {
            self.pinned_total.fetch_add(1, Ordering::Relaxed);
            let mut pinned = lock_recover(&self.pinned);
            pinned.push(entry.clone());
            // Oldest pins give way: the most recent anomalies are the
            // ones an operator is debugging.
            let excess = pinned.len().saturating_sub(self.pinned_capacity);
            if excess > 0 {
                pinned.drain(..excess);
            }
        }
        let slot = (seq % self.slots.len() as u64) as usize;
        *lock_recover(&self.slots[slot]) = Some(entry);
        anomaly
    }

    /// The traces still in the ring, oldest first.
    #[must_use]
    pub fn recent(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = self
            .slots
            .iter()
            .filter_map(|slot| lock_recover(slot).clone())
            .collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// The pinned anomalous traces, oldest first.
    #[must_use]
    pub fn pinned(&self) -> Vec<FlightEntry> {
        lock_recover(&self.pinned).clone()
    }

    /// Everything the recorder retains — ring plus pins, deduplicated
    /// by sequence number, oldest first.
    #[must_use]
    pub fn entries(&self) -> Vec<FlightEntry> {
        let mut by_seq: BTreeMap<u64, FlightEntry> = BTreeMap::new();
        for entry in self.pinned().into_iter().chain(self.recent()) {
            by_seq.entry(entry.seq).or_insert(entry);
        }
        by_seq.into_values().collect()
    }

    /// Dumps every retained entry as JSONL (one trace per line, oldest
    /// first, trailing newline when non-empty).
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(id: u64, outcome: TraceOutcome, total_us: u64) -> CompletedTrace {
        CompletedTrace {
            id: TraceId::from_raw(id),
            op: "admit",
            outcome,
            total_us,
            parse_us: 1,
            dispatch_us: Some(2),
            queue_wait_us: Some(1),
            deadline_remaining_us: Some(10_000),
            escalation_depth: None,
            warm_cache_hit: None,
            events: Vec::new(),
        }
    }

    #[test]
    fn trace_id_hex_round_trip() {
        for raw in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            let id = TraceId::from_raw(raw);
            assert_eq!(TraceId::from_hex(&id.to_string()), Some(id));
        }
        assert_eq!(TraceId::from_hex("ABC"), Some(TraceId::from_raw(0xABC)));
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("12345678901234567"), None);
        assert_eq!(TraceId::from_hex("xyz"), None);
    }

    #[test]
    fn derive_is_deterministic_and_spread() {
        assert_eq!(TraceId::derive(3, 7), TraceId::derive(3, 7));
        assert_ne!(TraceId::derive(3, 7), TraceId::derive(3, 8));
        assert_ne!(TraceId::derive(3, 7), TraceId::derive(4, 7));
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_newest() {
        let recorder = FlightRecorder::new(4, None);
        for i in 0..10 {
            recorder.record(completed(i, TraceOutcome::Admitted, 5));
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 4);
        let seqs: Vec<u64> = recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(recorder.pinned_total(), 0);
    }

    #[test]
    fn anomalies_are_pinned_and_survive_eviction() {
        let recorder = FlightRecorder::new(2, None);
        assert_eq!(
            recorder.record(completed(1, TraceOutcome::Shed { queue_depth: 9 }, 5)),
            Some("shed")
        );
        for i in 0..8 {
            assert_eq!(
                recorder.record(completed(i, TraceOutcome::Admitted, 5)),
                None
            );
        }
        // The shed trace fell out of the 2-slot ring long ago…
        assert!(recorder.recent().iter().all(|e| e.seq != 0));
        // …but its pin keeps it in the dump, exactly once, first.
        let entries = recorder.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].seq, 0);
        assert_eq!(entries[0].anomaly, Some("shed"));
        assert_eq!(recorder.pinned_total(), 1);
        let dump = recorder.dump_jsonl();
        assert_eq!(dump.lines().count(), 3);
        assert_eq!(dump.matches("\"anomaly\":\"shed\"").count(), 1);
        assert!(dump.contains("\"queue_depth\":9"));
    }

    #[test]
    fn every_intrinsic_anomaly_kind_pins() {
        let recorder = FlightRecorder::new(8, None);
        let cases = [
            (TraceOutcome::Shed { queue_depth: 1 }, "shed"),
            (TraceOutcome::DeadlineExpired, "deadline"),
            (TraceOutcome::Rejected, "rejected"),
            (TraceOutcome::ParseError, "parse_error"),
        ];
        for (i, (outcome, want)) in cases.into_iter().enumerate() {
            assert_eq!(recorder.record(completed(i as u64, outcome, 5)), Some(want));
        }
        assert_eq!(
            recorder.record(completed(9, TraceOutcome::Admitted, 5)),
            None
        );
        assert_eq!(recorder.pinned_total(), 4);
    }

    #[test]
    fn slow_threshold_pins_by_latency() {
        let recorder = FlightRecorder::new(8, Some(Duration::from_micros(100)));
        assert_eq!(recorder.slow_threshold_us(), Some(100));
        assert_eq!(
            recorder.record(completed(1, TraceOutcome::Admitted, 99)),
            None
        );
        assert_eq!(
            recorder.record(completed(2, TraceOutcome::Admitted, 100)),
            Some("slow")
        );
        // Intrinsic anomalies take precedence over the latency class.
        assert_eq!(
            recorder.record(completed(3, TraceOutcome::DeadlineExpired, 500)),
            Some("deadline")
        );
    }

    #[test]
    fn pin_list_is_bounded() {
        let recorder = FlightRecorder::new(1, None);
        for i in 0..10 {
            recorder.record(completed(i, TraceOutcome::ParseError, 5));
        }
        // Capacity 1 ⇒ pin list caps at 4; the newest pins win.
        let pinned = recorder.pinned();
        assert_eq!(pinned.len(), 4);
        assert_eq!(pinned.last().unwrap().seq, 9);
        assert_eq!(recorder.pinned_total(), 10);
    }

    #[test]
    fn request_trace_builds_span_tree() {
        let mut trace = RequestTrace::begin(TraceId::from_raw(0xAB), "line");
        trace.set_op("admit");
        trace.mark_parsed();
        trace.mark_dequeued(5_000);
        trace.set_escalation_depth(Some(1));
        trace.set_warm_cache_hit(true);
        trace.attach_events(vec![(
            Duration::from_micros(3),
            FlowEvent::ScheduleConstructed {
                tile: 0,
                prefix_len: 1,
                period_len: 1,
            },
        )]);
        let done = trace.finish(TraceOutcome::Admitted);
        assert_eq!(done.id, TraceId::from_raw(0xAB));
        assert_eq!(done.op, "admit");
        assert_eq!(done.deadline_remaining_us, Some(5_000));
        let json = done.to_json();
        assert!(
            json.starts_with("{\"trace\":\"00000000000000ab\",\"op\":\"admit\","),
            "{json}"
        );
        for needle in [
            "\"outcome\":\"admitted\"",
            "\"escalation_depth\":1",
            "\"warm_cache_hit\":true",
            "\"name\":\"parse\"",
            "\"name\":\"queue\"",
            "\"name\":\"execute\"",
            "\"event\":\"schedule_constructed\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn unqueued_trace_has_no_queue_or_execute_span() {
        let mut trace = RequestTrace::begin(TraceId::from_raw(1), "line");
        trace.mark_parsed();
        let json = trace.finish(TraceOutcome::ParseError).to_json();
        assert!(json.contains("\"name\":\"parse\""), "{json}");
        assert!(!json.contains("\"name\":\"queue\""), "{json}");
        assert!(!json.contains("\"name\":\"execute\""), "{json}");
    }
}
