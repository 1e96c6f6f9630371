//! `sdfrs-conform` — seeded differential conformance sweeps.
//!
//! ```text
//! sdfrs-conform [--seeds A..B] [--shrink] [--corpus-dir DIR]
//!               [--log FILE.jsonl] [--trace FILE.jsonl]
//! ```
//!
//! Runs every seed in the range through the oracle panel and exits
//! non-zero when any oracle diverges. With `--shrink`, each failing
//! scenario is reduced to a minimal reproduction that still fails one of
//! the oracles it failed, and written to the corpus directory as a `.ron`
//! file ready to be committed to `tests/corpus/`.

use std::env;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use sdfrs_conform::{corpus, run_seed, shrink, HarnessConfig};

/// Evaluation budget for one shrink (each evaluation runs the panel).
const SHRINK_EVALS: usize = 200;

struct Args {
    seeds: (u64, u64),
    shrink: bool,
    corpus_dir: PathBuf,
    log: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args = match parse_args(env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS, // --help
        Err(msg) => {
            eprintln!("sdfrs-conform: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failing) => {
            eprintln!("sdfrs-conform: {failing} failing scenario(s)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("sdfrs-conform: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<usize, String> {
    let config = HarnessConfig {
        keep_events: args.trace.is_some(),
        ..HarnessConfig::default()
    };

    let mut log = open_writer(args.log.as_ref())?;
    let mut trace = open_writer(args.trace.as_ref())?;
    let mut failing = 0usize;
    let mut bound_answered_errors = 0usize;

    for seed in args.seeds.0..args.seeds.1 {
        let report = run_seed(seed, &config);
        bound_answered_errors += report.bound_answered_errors;
        println!(
            "seed {seed:>6}  {}  allocated={}  failures={}  skipped={}",
            if report.passed() { "ok  " } else { "FAIL" },
            report.allocated,
            report.failures.len(),
            report.skipped.len(),
        );
        for f in &report.failures {
            println!("             {}: {}", f.oracle.as_str(), f.detail);
        }
        if let Some(w) = trace.as_mut() {
            for (at, event) in &report.events {
                writeln!(w, "{}", event.to_json(*at)).map_err(|e| e.to_string())?;
            }
        }
        if let Some(w) = log.as_mut() {
            writeln!(w, "{}", report.to_json()).map_err(|e| e.to_string())?;
        }

        if !report.passed() {
            failing += 1;
            if args.shrink {
                let scenario = sdfrs_conform::Scenario::sample_with(&config.scenario, seed);
                // Shrinking replays the panel on every candidate, so it
                // must not keep (and drag around) event streams.
                let mut quiet = config.clone();
                quiet.keep_events = false;
                let minimal = shrink::shrink(
                    &scenario,
                    shrink::still_fails(&report, &quiet),
                    SHRINK_EVALS,
                );
                let path = corpus::save(&args.corpus_dir, &minimal)
                    .map_err(|e| format!("writing corpus entry: {e}"))?;
                println!(
                    "             shrunk to {} actors / {} tiles -> {}",
                    minimal.app.graph().actor_count(),
                    minimal.arch.tile_count(),
                    path.display()
                );
            }
        }
    }
    eprintln!(
        "sdfrs-conform: {bound_answered_errors} executor-oracle setting(s) where the \
         processing bound is below the constraint but the exploration errs"
    );
    Ok(failing)
}

fn open_writer(path: Option<&PathBuf>) -> Result<Option<BufWriter<File>>, String> {
    path.map(|p| {
        File::create(p)
            .map(BufWriter::new)
            .map_err(|e| format!("creating {}: {e}", p.display()))
    })
    .transpose()
}

const USAGE: &str = "\
usage: sdfrs-conform [options]
  --seeds A..B      seed range to sweep, end-exclusive (default 0..32)
  --shrink          shrink failing scenarios and write them to the corpus
  --corpus-dir DIR  where shrunk failures go (default tests/corpus)
  --log FILE        append one JSONL result line per scenario
  --trace FILE      dump the base runs' FlowEvent streams as JSONL
  --help            show this help";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args {
        seeds: (0, 32),
        shrink: false,
        corpus_dir: PathBuf::from("tests/corpus"),
        log: None,
        trace: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--seeds" => out.seeds = parse_seeds(&value("--seeds")?)?,
            "--shrink" => out.shrink = true,
            "--corpus-dir" => out.corpus_dir = PathBuf::from(value("--corpus-dir")?),
            "--log" => out.log = Some(PathBuf::from(value("--log")?)),
            "--trace" => out.trace = Some(PathBuf::from(value("--trace")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(out))
}

/// Parses `A..B` (end-exclusive) or `A..=B` (inclusive).
fn parse_seeds(text: &str) -> Result<(u64, u64), String> {
    let bad = || format!("invalid seed range `{text}` (expected A..B or A..=B)");
    let (lo, hi, inclusive) = if let Some((lo, hi)) = text.split_once("..=") {
        (lo, hi, true)
    } else if let Some((lo, hi)) = text.split_once("..") {
        (lo, hi, false)
    } else {
        return Err(bad());
    };
    let lo: u64 = lo.parse().map_err(|_| bad())?;
    let hi: u64 = hi.parse().map_err(|_| bad())?;
    let end = if inclusive {
        hi.checked_add(1).ok_or_else(bad)?
    } else {
        hi
    };
    if end < lo {
        return Err(bad());
    }
    Ok((lo, end))
}
