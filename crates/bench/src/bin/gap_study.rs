//! `sdfrs-gap-study` — the heuristic-vs-exact optimality-gap study the
//! paper never ran (EXPERIMENTS.md "How far from optimal is the
//! heuristic?").
//!
//! ```text
//! sdfrs-gap-study [out.json] [--seeds N] [--markdown] [--check]
//! ```
//!
//! Sweeps `sdfrs_gen` scenarios pinned to the enumerable regime (2–4
//! actors on 2 tiles — where the branch-and-bound search proves
//! optimality within its default budget), runs the greedy heuristic and
//! the exact solver on each feasible instance, and reports per instance:
//! the constraint λ, greedy's achieved guaranteed throughput, the exact
//! optimum with its certified bound pair, and the *heuristic gap*
//! `(optimal − greedy) / optimal` — how much guaranteed throughput the
//! paper's flow leaves on the table.
//!
//! Output is a `BENCH_exact.json` report (median/max heuristic gap,
//! branch-and-bound nodes per second, per-instance rows); `--markdown`
//! additionally prints the EXPERIMENTS.md table on stdout. `--check` is
//! the CI regression gate: it exits non-zero unless on every feasible
//! instance the exact optimum dominates greedy, both satisfy λ, and the
//! search proved optimality.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use sdfrs_core::exact::enumerate_exhaustive;
use sdfrs_core::{AdmissionPolicy, Allocator, SolveReport};
use sdfrs_gen::{Scenario, ScenarioConfig};
use sdfrs_platform::PlatformState;
use sdfrs_sdf::Rational;

struct Row {
    seed: u64,
    actors: usize,
    tiles: usize,
    lambda: Rational,
    greedy: Rational,
    exact: SolveReport,
    /// `(optimal − greedy) / optimal`.
    heuristic_gap: Rational,
    /// Exhaustive enumeration agreed bit-for-bit with the search.
    enumeration_agrees: bool,
    elapsed_us: u128,
}

struct Args {
    out_path: String,
    seeds: u64,
    markdown: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out_path: "BENCH_exact.json".into(),
        seeds: 24,
        markdown: false,
        check: false,
    };
    let mut it = env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let value = it.next().ok_or("--seeds needs a count")?;
                args.seeds = value.parse().map_err(|e| format!("--seeds {value}: {e}"))?;
            }
            "--markdown" => args.markdown = true,
            "--check" => args.check = true,
            other if !other.starts_with("--") => args.out_path = other.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn f64_of(r: Rational) -> f64 {
    r.to_f64()
}

fn run_sweep(seeds: u64) -> (Vec<Row>, u64) {
    let config = ScenarioConfig {
        actors: 2..=4,
        tiles: 2..=2,
        ..ScenarioConfig::default()
    };
    let mut rows = Vec::new();
    let mut infeasible = 0u64;
    for seed in 0..seeds {
        let scenario = Scenario::sample_with(&config, seed);
        let state = PlatformState::new(&scenario.arch);
        let greedy = Allocator::new().allocate(&scenario.app, &scenario.arch, &state);
        let started = Instant::now();
        let exact = Allocator::new().solve(
            AdmissionPolicy::exact(),
            &scenario.app,
            &scenario.arch,
            &state,
        );
        let elapsed_us = started.elapsed().as_micros();
        let (Ok((greedy, _)), Ok(exact)) = (greedy, exact) else {
            infeasible += 1;
            continue;
        };
        let report = exact.report.expect("exact solves carry a certificate");
        let enumeration_agrees =
            enumerate_exhaustive(&mut Allocator::new(), &scenario.app, &scenario.arch, &state)
                .map(|x| {
                    x.allocation.binding == exact.allocation.binding
                        && x.allocation.schedules == exact.allocation.schedules
                        && x.allocation.slices == exact.allocation.slices
                        && x.report.is_some_and(|r| r.lower == report.lower)
                })
                .unwrap_or(false);
        let optimal = report.lower;
        let achieved = greedy.guaranteed_throughput();
        let heuristic_gap = if optimal > Rational::ZERO {
            (optimal - achieved.min(optimal)) / optimal
        } else {
            Rational::ZERO
        };
        rows.push(Row {
            seed,
            actors: scenario.app.graph().actor_count(),
            tiles: scenario.arch.tile_count(),
            lambda: scenario.app.throughput_constraint(),
            greedy: achieved,
            exact: report,
            heuristic_gap,
            enumeration_agrees,
            elapsed_us,
        });
    }
    (rows, infeasible)
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("gap values are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn report_json(rows: &[Row], infeasible: u64, seeds: u64) -> String {
    let gaps: Vec<f64> = rows.iter().map(|r| f64_of(r.heuristic_gap)).collect();
    let optimal_hits = rows
        .iter()
        .filter(|r| r.heuristic_gap == Rational::ZERO)
        .count();
    let nodes: u64 = rows.iter().map(|r| r.exact.nodes_expanded).sum();
    let pivots: u64 = rows.iter().map(|r| r.exact.lp_pivots).sum();
    let elapsed_us: u128 = rows.iter().map(|r| r.elapsed_us).sum();
    let nodes_per_sec = if elapsed_us > 0 {
        nodes as f64 / (elapsed_us as f64 / 1e6)
    } else {
        0.0
    };
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"seed\": {}, \"actors\": {}, \"tiles\": {}, \"lambda\": \"{}\", \
                 \"greedy\": \"{}\", \"optimal\": \"{}\", \"upper\": \"{}\", \
                 \"heuristic_gap\": {:.6}, \"proven_optimal\": {}, \"enumeration_agrees\": {}, \
                 \"nodes\": {}, \"lp_pivots\": {}, \"elapsed_us\": {} }}",
                r.seed,
                r.actors,
                r.tiles,
                r.lambda,
                r.greedy,
                r.exact.lower,
                r.exact.upper,
                f64_of(r.heuristic_gap),
                r.exact.proven_optimal,
                r.enumeration_agrees,
                r.exact.nodes_expanded,
                r.exact.lp_pivots,
                r.elapsed_us
            )
        })
        .collect();
    format!(
        "{{\n  \"harness\": \"gap_study\",\n  \"seeds\": {seeds},\n  \"feasible\": {},\n  \
         \"infeasible\": {infeasible},\n  \"median_heuristic_gap\": {:.6},\n  \
         \"max_heuristic_gap\": {:.6},\n  \"greedy_optimal_on\": {optimal_hits},\n  \
         \"nodes_total\": {nodes},\n  \"lp_pivots_total\": {pivots},\n  \
         \"nodes_per_sec\": {nodes_per_sec:.1},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.len(),
        median(gaps.clone()),
        gaps.iter().cloned().fold(0.0f64, f64::max),
        row_json.join(",\n")
    )
}

fn markdown_table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| seed | actors×tiles | λ | greedy | optimal | heuristic gap | nodes | LP pivots |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {}×{} | {} | {} | {} | {:.1}% | {} | {} |\n",
            r.seed,
            r.actors,
            r.tiles,
            r.lambda,
            r.greedy,
            r.exact.lower,
            f64_of(r.heuristic_gap) * 100.0,
            r.exact.nodes_expanded,
            r.exact.lp_pivots
        ));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sdfrs-gap-study: {e}");
            eprintln!("usage: sdfrs-gap-study [out.json] [--seeds N] [--markdown] [--check]");
            return ExitCode::from(2);
        }
    };

    let (rows, infeasible) = run_sweep(args.seeds);
    if rows.is_empty() {
        eprintln!(
            "sdfrs-gap-study: no feasible instance in {} seeds",
            args.seeds
        );
        return ExitCode::FAILURE;
    }

    let json = report_json(&rows, infeasible, args.seeds);
    if let Err(e) = std::fs::write(&args.out_path, &json) {
        eprintln!("sdfrs-gap-study: writing {}: {e}", args.out_path);
        return ExitCode::FAILURE;
    }
    if args.markdown {
        print!("{}", markdown_table(&rows));
    } else {
        let gaps: Vec<f64> = rows.iter().map(|r| f64_of(r.heuristic_gap)).collect();
        println!(
            "{} feasible / {} seeds, median heuristic gap {:.1}%, greedy optimal on {}/{}",
            rows.len(),
            args.seeds,
            median(gaps) * 100.0,
            rows.iter()
                .filter(|r| r.heuristic_gap == Rational::ZERO)
                .count(),
            rows.len()
        );
    }
    println!("report written to {}", args.out_path);

    if args.check {
        // The CI regression gate: the exact optimum dominates greedy,
        // both respect λ, the search proved optimality, and the
        // exhaustive enumeration agrees bit-for-bit.
        for r in &rows {
            let reject = |what: &str| {
                eprintln!("sdfrs-gap-study: seed {}: {what}", r.seed);
                ExitCode::FAILURE
            };
            if r.exact.lower < r.greedy {
                return reject("greedy beats the proven optimum");
            }
            if r.greedy < r.lambda || r.exact.lower < r.lambda {
                return reject("an admitting route violates λ");
            }
            if !r.exact.proven_optimal {
                return reject("exact search left a residual gap");
            }
            if !r.enumeration_agrees {
                return reject("exhaustive enumeration disagrees with the search");
            }
        }
        println!(
            "check passed: exact dominates greedy on all {} instances",
            rows.len()
        );
    }
    ExitCode::SUCCESS
}
