//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro fig5                 Figure 5 state-space periods
//! repro table3               Table 3 bindings
//! repro table4 [--quick]     Table 4 average #applications bound
//! repro table5 [--quick]     Table 5 resource efficiency (mixed set)
//! repro multimedia           Sec 10.3 multimedia system
//! repro hsdf                 Fig 1 / Sec 1 HSDF blow-up + runtime comparison
//! repro runtime [--quick]    Sec 10.2 run-time / throughput-check statistics
//! repro sweep [set]          weight-grid search (default: mixed set)
//! repro baseline             flow-level SDFG-direct vs HSDF+MCM comparison
//! repro all [--quick]        everything above
//! ```
//!
//! `--quick` shrinks the Table 4/5 experiment (1 sequence × 10 apps
//! instead of 3 × 40) for smoke runs.
//!
//! Every run also writes a machine-readable `BENCH_repro.json` summary
//! (command, configuration, wall-clock) next to the working directory,
//! mirroring the `bench_throughput` report convention for CI artifacts.

use std::env;
use std::time::Instant;

use sdfrs_bench::table4::ExperimentConfig;
use sdfrs_bench::{fig5, hsdf_cmp, multimedia, sweep, table3, table4, table5};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let command = args.first().map(String::as_str).unwrap_or("all");
    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    let run_start = Instant::now();
    match command {
        "fig5" => {
            print_fig5();
            if args.iter().any(|a| a == "--dot") {
                for dot in sdfrs_bench::fig5::compute_dot() {
                    println!("{dot}");
                }
            }
        }
        "table3" => print_table3(),
        "table4" => {
            let exp = run_experiment(&config);
            print!("{}", table4::render(&exp));
        }
        "table5" => {
            let exp = run_experiment(&config);
            print!("{}", table5::render(&exp));
        }
        "multimedia" => print_multimedia(),
        "hsdf" => print_hsdf(),
        "runtime" => {
            let exp = run_experiment(&config);
            print!("{}", table4::render_runtime(&exp));
        }
        "baseline" => print_baseline(),
        "sweep" => {
            let set = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("mixed");
            print_sweep(&config, set);
        }
        "all" => {
            print_fig5();
            print_table3();
            print_hsdf();
            print_multimedia();
            let exp = run_experiment(&config);
            print!("{}", table4::render(&exp));
            print!("{}", table5::render(&exp));
            print!("{}", table4::render_runtime(&exp));
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs for usage");
            std::process::exit(2);
        }
    }
    write_report(command, quick, &config, run_start);
}

/// Writes the `BENCH_repro.json` run summary.
fn write_report(command: &str, quick: bool, config: &ExperimentConfig, start: Instant) {
    let json = format!(
        "{{\n  \"harness\": \"repro\",\n  \"command\": \"{command}\",\n  \
         \"quick\": {quick},\n  \"sequences\": {},\n  \
         \"apps_per_sequence\": {},\n  \"wall_ms\": {:.3}\n}}\n",
        config.sequences,
        config.apps_per_sequence,
        start.elapsed().as_secs_f64() * 1e3
    );
    match std::fs::write("BENCH_repro.json", &json) {
        Ok(()) => eprintln!("report written to BENCH_repro.json"),
        Err(e) => eprintln!("cannot write BENCH_repro.json: {e}"),
    }
}

fn run_experiment(config: &ExperimentConfig) -> table4::Experiment {
    eprintln!(
        "running benchmark experiment ({} sequences × {} apps per set)...",
        config.sequences, config.apps_per_sequence
    );
    let t0 = Instant::now();
    let exp = table4::run_experiment(config);
    eprintln!("experiment finished in {:?}", t0.elapsed());
    exp
}

fn print_fig5() {
    let f = fig5::compute();
    println!("== Figure 5: state spaces of the running example ==");
    println!("                         period(a3)   paper   states");
    println!(
        "(a) application SDFG       {:>8}        2   {:>6}",
        f.period_application.to_string(),
        f.states[0]
    );
    println!(
        "(b) binding-aware SDFG     {:>8}       29   {:>6}",
        f.period_binding_aware.to_string(),
        f.states[1]
    );
    println!(
        "(c) constrained execution  {:>8}       30   {:>6}",
        f.period_constrained.to_string(),
        f.states[2]
    );
    println!();
}

fn print_table3() {
    let rows = table3::compute().expect("example binds");
    let paper = table3::paper_rows();
    println!("== Table 3: binding of actors to tiles ==");
    println!("c1,c2,c3     a1   a2   a3   (paper)");
    for (row, p) in rows.iter().zip(paper.iter()) {
        println!(
            "{:<10}  {:>3}  {:>3}  {:>3}   (t{} t{} t{})",
            row.weights.to_string(),
            format!("t{}", row.tiles[0] + 1),
            format!("t{}", row.tiles[1] + 1),
            format!("t{}", row.tiles[2] + 1),
            p[0] + 1,
            p[1] + 1,
            p[2] + 1
        );
    }
    println!();
}

fn print_multimedia() {
    println!("== Sec 10.3: multimedia system (3×H.263 + MP3 on 2×2 mesh) ==");
    let m = multimedia::run();
    println!(
        "HSDF sizes: {:?} (total {}, paper: 3×4754 + 13 = 14275)",
        m.hsdf_sizes,
        m.hsdf_sizes.iter().sum::<u64>()
    );
    println!(
        "applications bound: {}/4 in {:?} (paper: all 4 in 8 minutes on a P4)",
        m.result.bound_count(),
        m.elapsed
    );
    println!(
        "slice-allocation throughput checks: {} (paper: 34)",
        m.slice_checks
    );
    println!(
        "share of run-time in slice allocation: {:.0}% (paper: ~90%)",
        m.slice_fraction * 100.0
    );
    let tiles = sdfrs_platform::mesh::multimedia_platform().tile_count();
    for (i, alloc) in m.result.allocations.iter().enumerate() {
        println!(
            "  app {i}: slices {:?}, guaranteed throughput {}",
            alloc.slices.to_dense(tiles),
            alloc.guaranteed_throughput()
        );
    }
    println!();
}

fn print_hsdf() {
    println!("== Fig 1 / Sec 1: SDF vs HSDF problem size and analysis time ==");
    let c = hsdf_cmp::compare();
    println!(
        "H.263 SDFG: {} actors; HSDF equivalent: {} actors, {} channels (paper: 4754 actors)",
        c.sdf_actors, c.hsdf_actors, c.hsdf_channels
    );
    println!(
        "state-space on SDFG: thr {} in {:?}",
        c.sdf_throughput, c.sdf_time
    );
    println!(
        "convert + MCM on HSDFG: thr {} in {:?}",
        c.hsdf_throughput, c.hsdf_time
    );
    let speedup = c.hsdf_time.as_secs_f64() / c.sdf_time.as_secs_f64().max(1e-9);
    println!(
        "SDF-direct analysis is {speedup:.1}× faster (paper: 21 min vs <3 min for the whole flow)"
    );
    println!();
}

fn print_baseline() {
    println!("== Flow-level comparison: SDFG-direct vs HSDF+MCM baseline (H.263) ==");
    let c = hsdf_cmp::compare_flows();
    println!(
        "SDFG-direct slice allocation:  {:?} ({} checks)",
        c.sdf_time, c.sdf_checks
    );
    println!(
        "HSDF+MCM baseline allocation:  {:?} ({} checks, peak HSDF {} actors)",
        c.hsdf_time, c.hsdf_checks, c.peak_hsdf_actors
    );
    let ratio = c.hsdf_time.as_secs_f64() / c.sdf_time.as_secs_f64().max(1e-9);
    println!(
        "the baseline is {ratio:.0}× slower and allocates {} total slice units vs {} \
         (paper: 'several hours' vs 8 minutes; conservatism costs wheel time)",
        c.slices.1, c.slices.0
    );
    println!();
}

fn print_sweep(config: &ExperimentConfig, set: &str) {
    eprintln!("sweeping 26 weight settings on set {set:?}...");
    let sweep_config = ExperimentConfig {
        sequences: 1,
        apps_per_sequence: config.apps_per_sequence.min(12),
        ..config.clone()
    };
    let points = sweep::sweep(&sweep_config, set, sweep::weight_grid());
    println!("== Weight sweep on set {set} (paper: this search motivated (0,1,2)) ==");
    println!("rank  c1,c2,c3     avg bound");
    for (i, p) in points.iter().take(8).enumerate() {
        println!(
            "{:>4}  {:<10}  {:>8.2}",
            i + 1,
            p.weights.to_string(),
            p.avg_bound
        );
    }
}
