//! Process and host counters from `/proc`: peak memory, CPU time split,
//! page faults and hypervisor steal. They explain run-to-run spread
//! (a run that lost CPU to steal or spent it in the kernel is slower
//! for reasons no code change caused); they are never used to drop
//! runs.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of the process and host counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Process user CPU time, seconds.
    pub user_s: f64,
    /// Process system CPU time, seconds.
    pub sys_s: f64,
    /// Process minor page faults.
    pub minor_faults: u64,
    /// Host CPU ticks stolen by the hypervisor (all CPUs).
    pub steal_ticks: u64,
    /// Host CPU ticks in total (all CPUs, all states).
    pub total_ticks: u64,
}

impl HostSample {
    /// Reads the counters now; fields that cannot be read stay 0.
    pub fn now() -> HostSample {
        let mut sample = HostSample::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; the name may
            // itself contain spaces or parentheses.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                // rest[0] is field 3 (state): minflt is field 10,
                // utime 14, stime 15.
                let field = |n: usize| -> u64 {
                    fields.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0)
                };
                sample.minor_faults = field(10);
                sample.user_s = field(14) as f64 / TICKS_PER_SEC;
                sample.sys_s = field(15) as f64 / TICKS_PER_SEC;
            }
        }
        if let Ok(stat) = fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let ticks: Vec<u64> = cpu
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal guest
                // guest_nice; guest time is already counted in user.
                sample.total_ticks = ticks.iter().take(8).sum();
                sample.steal_ticks = ticks.get(7).copied().unwrap_or(0);
            }
        }
        sample
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
            total_ticks: self.total_ticks.saturating_sub(earlier.total_ticks),
        }
    }

    /// Share of host CPU time stolen by the hypervisor.
    pub fn steal_ratio(&self) -> f64 {
        crate::stats::ratio(self.steal_ticks as f64, self.total_ticks as f64)
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 when
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
