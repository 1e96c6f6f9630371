//! `sdfrs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Diagnostics (sample counts, host noise,
//! failures) go to standard error; a traced run also writes its spans to
//! `out/spans-<workload>-<seed>.jsonl` under this package. Exits 1 when
//! any output failed its check.
//!
//! `sdfrs-perfbench --spin` is the spinner process a run starts per CPU
//! (see `cpu::Awake`), `sdfrs-perfbench --reference` the reference
//! kernel it times around every pass (see `cpu::reference_ms`).

use std::process::ExitCode;

use sdfrs_perfbench::cpu;
use sdfrs_perfbench::pass::Op;
use sdfrs_perfbench::runner::{self, batch_times, latencies, Workload, CPU, SCALED_CPU, WALL};
use sdfrs_perfbench::stats::{median, percentile, ratio};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some(cpu::SPIN_FLAG) => {
            cpu::spin();
            return ExitCode::SUCCESS;
        }
        Some(cpu::REFERENCE_FLAG) => {
            println!("{}", cpu::reference_kernel());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "sdfrs-perfbench: {error}\nusage: sdfrs-perfbench --workload serve_churn|cold_fill|mesh_replay --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = runner::run(args.workload, args.seed, args.seconds, args.trace);

    let admit = |op| op == Op::Admit;
    let admits = latencies(&run.passes, admit, WALL);
    let light = latencies(&run.passes, Op::is_light, WALL);
    let work = |clock| batch_times(&run.passes, clock).iter().sum::<f64>() / 1e3;
    let speeds: Vec<f64> = run.passes.iter().map(|p| p.speed).collect();
    eprintln!(
        "# {} seed {}: {} passes, {} timed requests, {} admit samples ({} beyond p90)",
        args.workload.name(),
        args.seed,
        run.passes.len(),
        run.attempted,
        admits.len(),
        admits.len() - (admits.len() as f64 * 0.9).ceil() as usize,
    );
    eprintln!(
        "# wall clock: admit p50 {:.3} ms, p90 {:.3} ms, light p50 {:.3} ms",
        median(&admits),
        percentile(&admits, 0.9),
        median(&light),
    );
    eprintln!(
        "# timed work: {:.2} s wall, {:.2} s CPU, {:.2} s scaled CPU; admit CPU p50 {:.3} ms; host-speed factor min {:.3} median {:.3} max {:.3}",
        work(WALL),
        work(CPU),
        work(SCALED_CPU),
        median(&latencies(&run.passes, admit, CPU)),
        percentile(&speeds, 0.0),
        median(&speeds),
        percentile(&speeds, 1.0),
    );
    let h = &run.host;
    eprintln!(
        "# host: user {:.2} s, sys {:.2} s ({:.0}% of cpu), minor faults {}, steal {:.2}%",
        h.user_s,
        h.sys_s,
        100.0 * ratio(h.sys_s, h.user_s + h.sys_s),
        h.minor_faults,
        100.0 * h.steal_ratio()
    );
    for failure in run.failures.iter().take(20) {
        eprintln!("# FAILED: {failure}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, run.spans_jsonl()));
        match written {
            Ok(()) => eprintln!("# spans: {}", path.display()),
            Err(error) => eprintln!("# spans not written to {}: {error}", path.display()),
        }
    }
    println!("{}", run.json_line());
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
