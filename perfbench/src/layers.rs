//! Per-layer metrics of a traced run, named after the modules they
//! measure. Which end-to-end metric each should move, on which
//! workload, is listed in `README.md`. A layer a workload does not
//! reach reads 0 there (no TCP in process, no regions on the 3×3
//! platforms, no tracing-overhead baseline on `serve_churn`).

use crate::host::HostSample;
use crate::pass::{Op, TracedPass};
use crate::runner::Metric;
use crate::stats::{median, ratio};

/// Median service time of `op` requests, ms.
fn op_p50(t: &TracedPass, op: Op) -> f64 {
    let v: Vec<f64> = t
        .service_ops
        .iter()
        .filter(|(o, _)| *o == op)
        .map(|&(_, ms)| ms)
        .collect();
    median(&v)
}

/// Per-op-kind median of the per-request transport times, weighted by
/// request count.
fn transport_p50(t: &TracedPass) -> f64 {
    let mut weighted = 0.0;
    let mut count = 0usize;
    for op in Op::ALL {
        let v: Vec<f64> = t
            .transport_ms
            .iter()
            .filter(|(o, _)| *o == op)
            .map(|&(_, ms)| ms)
            .collect();
        weighted += median(&v) * v.len() as f64;
        count += v.len();
    }
    ratio(weighted, count as f64)
}

/// Every per-layer metric of a traced run, in report order; `speed` is
/// the median host-speed factor of its passes (see [`crate::cpu`]).
pub fn layer_metrics(t: &TracedPass, host: &HostSample, speed: f64) -> Vec<Metric> {
    let p = &t.program;
    let c = |name: &str| p.counter(name) as f64;
    let flow_ms = p.phase_ms("flow");
    let probe_ms = p.phase_ms("probe");
    let states = c("states_explored");
    let admit_bytes = t.admit_bytes.iter().sum::<usize>() as f64;
    let q1: Vec<f64> = t.admit_quarters.iter().map(|q| q.0).collect();
    let q4: Vec<f64> = t.admit_quarters.iter().map(|q| q.1).collect();
    let m = |name, unit, value, exact| Metric {
        name,
        value,
        unit,
        exact,
    };
    vec![
        m("net.transport_p50_ms", "ms", transport_p50(t), false),
        m(
            "net.queue_depth_max",
            "count",
            t.net.queue_depth_max as f64,
            true,
        ),
        m("net.shed", "count", t.net.shed as f64, true),
        m("net.deadlines", "count", t.net.deadlines as f64, true),
        m("net.parse_errors", "count", t.net.parse_errors as f64, true),
        m("wire.decode_p50_us", "us", median(&t.decode_us), false),
        m("wire.encode_p50_us", "us", median(&t.encode_us), false),
        m(
            "wire.admit_bytes_mean",
            "bytes",
            ratio(admit_bytes, t.admit_bytes.len() as f64),
            true,
        ),
        m("service.admit_p50_ms", "ms", op_p50(t, Op::Admit), false),
        m("service.depart_p50_ms", "ms", op_p50(t, Op::Depart), false),
        m("service.rebind_p50_ms", "ms", op_p50(t, Op::Rebind), false),
        m("service.status_p50_ms", "ms", op_p50(t, Op::Status), false),
        m("service.admit_p50_q1_ms", "ms", median(&q1), false),
        m("service.admit_p50_q4_ms", "ms", median(&q4), false),
        m("service.self_ms", "ms", t.service_ms - flow_ms, false),
        m(
            "service.region_local",
            "count",
            c("region_admits_local"),
            true,
        ),
        m(
            "service.region_escalations",
            "count",
            c("region_escalations"),
            true,
        ),
        m(
            "service.commits_speculative",
            "count",
            c("region_commits_speculative"),
            true,
        ),
        m(
            "service.commits_inline",
            "count",
            c("region_commits_inline"),
            true,
        ),
        m("flow.calls", "count", c("flows_started"), true),
        m("flow.failed", "count", c("flows_failed"), true),
        m("flow.ms", "ms", flow_ms, false),
        m("bind.ms", "ms", p.phase_ms("bind"), false),
        m("bind.attempts", "count", c("bind_attempts"), true),
        m(
            "bind.accept_ratio",
            "ratio",
            ratio(c("bind_accepted"), c("bind_attempts")),
            true,
        ),
        m("list_sched.ms", "ms", p.phase_ms("schedule"), false),
        m("list_sched.states", "count", c("schedule_states"), true),
        m(
            "list_sched.constructed",
            "count",
            c("schedules_constructed"),
            true,
        ),
        m("slice.self_ms", "ms", p.phase_ms("slice") - probe_ms, false),
        m("slice.checks", "count", c("throughput_checks"), true),
        m(
            "slice.refine_iters",
            "count",
            c("refine_slice_iterations"),
            true,
        ),
        m(
            "thru_cache.hit_ratio",
            "ratio",
            ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")),
            true,
        ),
        m("thru_cache.hits", "count", c("cache_hits"), true),
        m("thru_cache.entries", "count", p.cache_entries as f64, true),
        m(
            "thru_cache.ancestor_hits",
            "count",
            c("cache_ancestor_hits"),
            true,
        ),
        m(
            "warm.hit_ratio",
            "ratio",
            ratio(c("warm_hits"), c("warm_hits") + c("warm_misses")),
            true,
        ),
        m("warm.hits", "count", c("warm_hits"), true),
        m(
            "warm.trajectory_hits",
            "count",
            c("warm_trajectory_hits"),
            true,
        ),
        m("probe.ms", "ms", probe_ms, false),
        m("probe.calls", "count", p.phase_calls("probe") as f64, true),
        m("probe.states", "count", states, true),
        m(
            "probe.ns_per_state",
            "ns",
            ratio(probe_ms * 1e6, states),
            false,
        ),
        m("proc.user_s", "s", host.user_s, false),
        m("proc.sys_s", "s", host.sys_s, false),
        m(
            "proc.minor_faults",
            "count",
            host.minor_faults as f64,
            false,
        ),
        m("host.steal_ratio", "ratio", host.steal_ratio(), false),
        m("host.speed_factor", "ratio", speed, false),
        m(
            "trace.overhead_ratio",
            "ratio",
            if t.untraced_wall_ms > 0.0 {
                t.traced_wall_ms / t.untraced_wall_ms - 1.0
            } else {
                0.0
            },
            false,
        ),
        m(
            "trace.unaccounted_ratio",
            "ratio",
            1.0 - ratio(t.accounted_ms, t.traced_wall_ms),
            false,
        ),
    ]
}
