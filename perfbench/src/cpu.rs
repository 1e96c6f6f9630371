//! The clocks the benchmark gates on, and the CPU state it measures in.
//!
//! Every gated timing is *process CPU time*: the CPU consumed by all
//! threads of this process (the client and, for `serve_churn`, the
//! in-process server), read with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
//! On the shared 2-vCPU hosts this benchmark runs on, wall time also
//! counts hypervisor steal and waits for a CPU other processes hold, and
//! identical runs spread by 40–90% in wall time; the guest kernel
//! subtracts steal from CPU time (paravirtualised steal accounting), and
//! a process waiting for a CPU accrues none. Wall time is still measured
//! and printed on standard error.
//!
//! What CPU time does not remove is the cost of waking an idle vCPU: a
//! request that crosses threads after a CPU has gone idle pays a
//! hypervisor exit and refills cold caches, and whether it had gone idle
//! depended on what else ran on the host (a `serve_churn` depart or
//! status round trip cost 0.07 ms of CPU with busy CPUs, 0.13–0.19 ms
//! with idle ones). [`Awake`] removes that variable: while a run
//! measures, one spinner process per CPU at `SCHED_IDLE` keeps every CPU
//! busy. A `SCHED_IDLE` task runs only when no other task wants the CPU
//! and is preempted at once when one wakes, so the benchmark's own
//! threads never wait for a spinner; the spinners are separate
//! processes, so their CPU time is not counted.
//!
//! Nor does CPU time remove the speed of the host itself, whose memory
//! and kernel paths slow by up to 1.9× for tens of seconds at a time.
//! So gated CPU times are scaled by a host-speed factor ([`speed`]):
//! [`reference_kernel`], benchmark code no program change touches, is
//! timed in a fresh process around every pass, and a lap's CPU time is
//! multiplied by [`REFERENCE_NOMINAL_MS`] over the kernel's time around
//! it ([`Lap::scale`]).

#![allow(unsafe_code)]

use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SCHED_IDLE: i32 = 5;

/// The command-line flag that turns the benchmark binary into a spinner.
pub const SPIN_FLAG: &str = "--spin";

/// The command-line flag that turns the benchmark binary into one run
/// of [`reference_kernel`], printing its CPU time in ms.
pub const REFERENCE_FLAG: &str = "--reference";

/// CPU time of [`reference_kernel`] in a fresh process on a calm 2-vCPU
/// x86-64 KVM guest, ms: the host speed every gated CPU time is scaled
/// to.
pub const REFERENCE_NOMINAL_MS: f64 = 22.0;

/// CPU time consumed so far by every thread of this process, ms.
///
/// # Panics
///
/// When the clock cannot be read (not Linux).
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Wall and CPU time of one interval, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    /// Wall time.
    pub wall_ms: f64,
    /// Process CPU time.
    pub cpu_ms: f64,
    /// Process CPU time scaled to the nominal host speed, once known.
    pub scaled_cpu_ms: Option<f64>,
}

impl Default for Lap {
    /// The empty lap: zero on every clock, so that a sum of scaled laps
    /// is scaled.
    fn default() -> Lap {
        Lap {
            wall_ms: 0.0,
            cpu_ms: 0.0,
            scaled_cpu_ms: Some(0.0),
        }
    }
}

impl Lap {
    /// Adds `other` to this lap (the sum is scaled only when both are).
    pub fn add(&mut self, other: Lap) {
        self.wall_ms += other.wall_ms;
        self.cpu_ms += other.cpu_ms;
        self.scaled_cpu_ms = self
            .scaled_cpu_ms
            .zip(other.scaled_cpu_ms)
            .map(|(a, b)| a + b);
    }

    /// Scales the CPU time by a host-speed factor, unless a finer one
    /// was applied already.
    pub fn scale(&mut self, speed: f64) {
        self.scaled_cpu_ms.get_or_insert(self.cpu_ms * speed);
    }
}

/// The host-speed factor of an interval: [`REFERENCE_NOMINAL_MS`] over
/// the mean of the reference times measured just before and just after
/// it.
pub fn speed(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

/// A stopwatch over both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_ms: process_cpu_ms(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        Lap {
            cpu_ms: process_cpu_ms() - self.cpu_ms,
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            scaled_cpu_ms: None,
        }
    }
}

/// The reference kernel: a fixed mix of B-tree inserts and small heap
/// allocations, the memory- and allocator-bound kind of work that most
/// of the program's CPU time goes to. It is benchmark code no change to
/// the program touches. Returns its CPU time, ms.
pub fn reference_kernel() -> f64 {
    let watch = Stopwatch::start();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut tree = std::collections::BTreeMap::new();
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x % 10_000_000, x);
    }
    let blocks: Vec<Vec<u8>> = (0..50_000).map(|i| vec![i as u8; i % 200 + 1]).collect();
    std::hint::black_box((tree.len(), blocks.len()));
    watch.lap().cpu_ms
}

/// CPU time of [`reference_kernel`] run in a fresh process, so that the
/// program's heap cannot sway it, ms. Runs it in process when no child
/// can be started.
pub fn reference_ms() -> f64 {
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg(REFERENCE_FLAG)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
    });
    child
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or_else(reference_kernel)
}

/// Spinner processes that keep every CPU out of its idle state until
/// dropped; dropping kills each and waits for it to end.
#[derive(Debug)]
pub struct Awake {
    spinners: Vec<Child>,
}

impl Awake {
    /// Starts one spinner per available CPU: this executable run with
    /// [`SPIN_FLAG`]. A spinner that cannot start is reported on
    /// standard error and the run goes on without it.
    pub fn start() -> Awake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = std::env::current_exe()
            .and_then(|exe| {
                (0..cpus)
                    .map(|_| {
                        Command::new(&exe)
                            .arg(SPIN_FLAG)
                            .stdin(Stdio::null())
                            .stdout(Stdio::null())
                            .stderr(Stdio::null())
                            .spawn()
                    })
                    .collect::<std::io::Result<Vec<Child>>>()
            })
            .unwrap_or_else(|error| {
                eprintln!("# spinners not started ({error}); CPUs may go idle");
                Vec::new()
            });
        Awake { spinners }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        for spinner in &mut self.spinners {
            let _ = spinner.kill();
            let _ = spinner.wait();
        }
    }
}

/// The body of a spinner process: switches itself to `SCHED_IDLE` and
/// burns CPU until its parent is gone (killed, or ended without
/// dropping its [`Awake`]). Returns at once, without spinning, when the
/// policy cannot be set.
pub fn spin() {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling process and `param` outlives the
    // call; SCHED_IDLE takes priority 0 and needs no privilege.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        return;
    }
    let parent = std::os::unix::process::parent_id();
    let mut x = 1u64;
    loop {
        // Plain arithmetic rather than a `pause` loop, which a KVM host
        // may treat as lock spinning and deschedule the vCPU for.
        for _ in 0..1_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        if std::os::unix::process::parent_id() != parent {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sum_of_laps_is_scaled_only_when_every_lap_is() {
        let mut lap = Stopwatch::start().lap();
        let mut sum = Lap::default();
        sum.add(lap);
        assert_eq!(sum.scaled_cpu_ms, None);
        lap.scale(0.5);
        let mut sum = Lap::default();
        sum.add(lap);
        sum.add(lap);
        assert_eq!(sum.scaled_cpu_ms, Some(lap.cpu_ms));
        sum.scale(2.0);
        assert_eq!(sum.scaled_cpu_ms, Some(lap.cpu_ms), "a finer scale stays");
    }

    #[test]
    fn the_reference_kernel_takes_cpu_time() {
        assert!(reference_kernel() > 0.0);
    }

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x ^ i.wrapping_mul(31));
        }
        let lap = watch.lap();
        assert!(lap.cpu_ms > 0.0 && lap.wall_ms > 0.0, "{lap:?}");
    }
}
