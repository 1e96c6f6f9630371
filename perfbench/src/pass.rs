//! What one pass of a workload measures.

use std::collections::BTreeMap;

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::verify::verify_allocation;
use sdfrs_core::{Allocation, MetricsSnapshot};
use sdfrs_platform::{ArchitectureGraph, PlatformState};

use crate::cpu::Lap;
use crate::spans::Spans;
use crate::stats::{median, Fnv};

/// Request kinds, as the wire names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Admit an application.
    Admit,
    /// Depart a session.
    Depart,
    /// Rebind a session.
    Rebind,
    /// Status probe.
    Status,
}

impl Op {
    /// All kinds, wire order.
    pub const ALL: [Op; 4] = [Op::Admit, Op::Depart, Op::Rebind, Op::Status];

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Admit => "admit",
            Op::Depart => "depart",
            Op::Rebind => "rebind",
            Op::Status => "status",
        }
    }

    /// Requests that run no allocation flow.
    pub fn is_light(self) -> bool {
        matches!(self, Op::Depart | Op::Status)
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Re-verify every allocation from first principles and every
    /// residual against a replay. Only the first pass of a run pays for
    /// this; every pass still checks its responses and state digests.
    pub verify: bool,
    /// Also execute the pass's request stream with spans recorded and a
    /// collecting metrics registry attached.
    pub traced: bool,
}

/// One timed request: its kind, the latency its caller saw and the CPU
/// time the process spent on it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Request kind.
    pub op: Op,
    /// Wall and CPU time.
    pub lap: Lap,
}

/// One batch unit: its time and the admissions it committed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Batch {
    /// Wall and CPU time.
    pub lap: Lap,
    /// Requests it answered.
    pub requests: u64,
    /// Applications it admitted.
    pub admitted: u64,
}

/// Network-layer numbers of a traced `serve_churn` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetLayer {
    /// Largest queue depth seen at enqueue (histogram bucket bound).
    pub queue_depth_max: u64,
    /// Requests shed by backpressure.
    pub shed: u64,
    /// Requests answered past their deadline.
    pub deadlines: u64,
    /// Lines answered with a parse error.
    pub parse_errors: u64,
}

/// The program's own counters and phase profile, summed over passes.
#[derive(Debug, Clone, Default)]
pub struct ProgramCounters {
    /// Registry counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Profiler phases by name: (nanoseconds, calls).
    pub phases: BTreeMap<&'static str, (u64, u64)>,
    /// Largest end-of-pass throughput-cache size.
    pub cache_entries: u64,
}

impl ProgramCounters {
    /// Reads a registry snapshot.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> ProgramCounters {
        ProgramCounters {
            counters: snapshot.counters.iter().copied().collect(),
            phases: snapshot
                .phases
                .iter()
                .map(|p| (p.name, (p.nanos, p.calls)))
                .collect(),
            cache_entries: snapshot.cache_entries,
        }
    }

    /// A counter's value (0 when unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A phase's total time in milliseconds.
    pub fn phase_ms(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |p| p.0 as f64 / 1e6)
    }

    /// A phase's call count.
    pub fn phase_calls(&self, name: &str) -> u64 {
        self.phases.get(name).map_or(0, |p| p.1)
    }

    fn add(&mut self, other: &ProgramCounters) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, (ns, calls)) in &other.phases {
            let e = self.phases.entry(name).or_default();
            e.0 += ns;
            e.1 += calls;
        }
        self.cache_entries = self.cache_entries.max(other.cache_entries);
    }
}

/// The layer data of traced passes.
#[derive(Debug)]
pub struct TracedPass {
    /// The benchmark's spans around every call it made (one recorder per
    /// pass).
    pub spans: Vec<Spans>,
    /// The program's counters and phase profile.
    pub program: ProgramCounters,
    /// Wall time of the request streams with tracing off (0 when not
    /// measured).
    pub untraced_wall_ms: f64,
    /// Wall time of the traced request streams.
    pub traced_wall_ms: f64,
    /// The part of `traced_wall_ms` the top-level spans cover.
    pub accounted_ms: f64,
    /// Per request, arrival order: the time of the service call that
    /// answered it (ms).
    pub service_ops: Vec<(Op, f64)>,
    /// Per pass: median service time of the admits in its first and last
    /// quarter (ms) — how per-request cost moves with service age.
    pub admit_quarters: Vec<(f64, f64)>,
    /// Total time spent inside service calls (ms).
    pub service_ms: f64,
    /// Per request: request-line decode time (µs).
    pub decode_us: Vec<f64>,
    /// Per response: response-line encode time (µs).
    pub encode_us: Vec<f64>,
    /// Size in bytes of each admit request line.
    pub admit_bytes: Vec<usize>,
    /// Per request: TCP round trip minus in-process decode + execute +
    /// encode of the same request (ms).
    pub transport_ms: Vec<(Op, f64)>,
    /// Network-layer counts, summed.
    pub net: NetLayer,
}

impl TracedPass {
    /// A pass's layer data; `service_ops` must be in arrival order.
    pub fn new(
        spans: Spans,
        snapshot: &MetricsSnapshot,
        untraced_wall_ms: f64,
        traced_wall_ms: f64,
        service_ops: Vec<(Op, f64)>,
        service_ms: f64,
    ) -> TracedPass {
        let admits: Vec<f64> = service_ops
            .iter()
            .filter(|(op, _)| *op == Op::Admit)
            .map(|&(_, ms)| ms)
            .collect();
        let n = admits.len();
        let quarters = (median(&admits[..n / 4]), median(&admits[n - n / 4..]));
        TracedPass {
            accounted_ms: spans.top_level_ms(),
            spans: vec![spans],
            program: ProgramCounters::from_snapshot(snapshot),
            untraced_wall_ms,
            traced_wall_ms,
            service_ops,
            admit_quarters: vec![quarters],
            service_ms,
            decode_us: Vec::new(),
            encode_us: Vec::new(),
            admit_bytes: Vec::new(),
            transport_ms: Vec::new(),
            net: NetLayer::default(),
        }
    }

    /// Folds another pass's data into this one.
    pub fn merge(&mut self, other: TracedPass) {
        self.spans.extend(other.spans);
        self.program.add(&other.program);
        self.untraced_wall_ms += other.untraced_wall_ms;
        self.traced_wall_ms += other.traced_wall_ms;
        self.accounted_ms += other.accounted_ms;
        self.service_ops.extend(other.service_ops);
        self.admit_quarters.extend(other.admit_quarters);
        self.service_ms += other.service_ms;
        self.decode_us.extend(other.decode_us);
        self.encode_us.extend(other.encode_us);
        self.admit_bytes.extend(other.admit_bytes);
        self.transport_ms.extend(other.transport_ms);
        self.net.queue_depth_max = self.net.queue_depth_max.max(other.net.queue_depth_max);
        self.net.shed += other.net.shed;
        self.net.deadlines += other.net.deadlines;
        self.net.parse_errors += other.net.parse_errors;
    }
}

/// Everything one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Time spent before the first timed request.
    pub setup: Lap,
    /// Host-speed factor of the pass (see [`crate::cpu::speed`]).
    pub speed: f64,
    /// Every timed request, arrival order.
    pub timed: Vec<Timed>,
    /// Batch units: a drained batch, a filled sequence, or 16
    /// consecutive round trips.
    pub batches: Vec<Batch>,
    /// Admit requests sent.
    pub admit_attempts: u64,
    /// Admit requests admitted.
    pub admitted: u64,
    /// TDMA wheel claimed by the admitted applications, summed.
    pub wheel_admitted: u64,
    /// One entry per failed request or violated check.
    pub failures: Vec<String>,
    /// Fingerprint of the generated inputs.
    pub inputs: Fnv,
    /// Fingerprint of every response of the pass.
    pub transcript: Fnv,
    /// Layer data (traced passes only).
    pub traced: Option<TracedPass>,
}

impl Pass {
    /// Records the pass's host-speed factor and scales every lap not
    /// scaled at a finer grain already.
    pub fn scale(&mut self, speed: f64) {
        self.speed = speed;
        self.setup.scale(speed);
        for t in &mut self.timed {
            t.lap.scale(speed);
        }
        for b in &mut self.batches {
            b.lap.scale(speed);
        }
    }
}

/// Re-verifies one allocation from first principles.
pub(crate) fn check_allocation(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    allocation: &Allocation,
    at: usize,
    failures: &mut Vec<String>,
) {
    match verify_allocation(app, arch, state, allocation) {
        Ok(violations) if violations.is_empty() => {}
        Ok(violations) => failures.push(format!(
            "request {at}: allocation of {} violates {violations:?}",
            app.graph().name()
        )),
        Err(error) => failures.push(format!("request {at}: verification failed: {error}")),
    }
}
