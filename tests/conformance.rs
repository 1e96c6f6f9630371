//! Tier-1 conformance smoke suite: a fixed-seed differential sweep
//! through all five oracles, the committed regression corpus, and a
//! demonstration that the harness catches (and shrinks) a deliberately
//! injected defect.
//!
//! Wide randomized sweeps live in the `sdfrs-conform` CLI and the
//! nightly workflow; this suite pins a reproducible block of seeds so a
//! regression in any oracle fails CI deterministically.

use std::path::{Path, PathBuf};

use sdfrs_conform::{
    check_scenario, corpus, run_seed, run_seeds, shrink, FaultInjection, HarnessConfig, OracleId,
    Scenario,
};

/// The fixed seed block every PR runs. Matches the CI smoke job.
const SEEDS: std::ops::Range<u64> = 0..32;

fn committed_corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn fixed_seed_block_passes_all_five_oracles() {
    let config = HarnessConfig::default();
    let reports = run_seeds(SEEDS, &config);
    assert_eq!(reports.len(), 32);

    for report in &reports {
        assert!(
            report.passed(),
            "seed {:?} ({}) diverged: {:?}",
            report.seed,
            report.scenario,
            report.failures
        );
    }

    // The sweep must exercise both outcomes: most scenarios allocate,
    // some are infeasible (and then the oracles check error agreement).
    let allocated = reports.iter().filter(|r| r.allocated).count();
    assert!(allocated >= 20, "only {allocated}/32 scenarios allocated");
    assert!(
        allocated < reports.len(),
        "every scenario allocated; the sweep lost its infeasible cases"
    );
    // Infeasible scenarios still report what went wrong.
    assert!(reports
        .iter()
        .filter(|r| !r.allocated)
        .all(|r| r.error.is_some()));

    // The headline oracle (self-timed vs. HSDF MCR) must actually run —
    // the size bounds in ScenarioConfig exist precisely so the HSDF
    // conversion stays tractable on this block.
    let hsdf_checked = reports
        .iter()
        .filter(|r| {
            r.skipped
                .iter()
                .all(|(o, _)| *o != OracleId::HsdfEquivalence)
        })
        .count();
    assert!(
        hsdf_checked >= 28,
        "HSDF oracle skipped on {} of 32 seeds",
        32 - hsdf_checked
    );
}

/// Oracle 10 must actually run — a sweep over scenarios pinned to the
/// enumerable regime (≤ 4 actors on 2 tiles) where the exhaustive
/// enumeration is tractable on every seed, so the exact solver is
/// checked bit-for-bit against it, never skipped.
#[test]
fn exact_optimality_oracle_runs_on_enumerable_scenarios() {
    let config = HarnessConfig {
        scenario: sdfrs_conform::ScenarioConfig {
            actors: 3..=4,
            tiles: 2..=2,
            ..sdfrs_conform::ScenarioConfig::default()
        },
        ..HarnessConfig::default()
    };
    let reports = run_seeds(0..16, &config);
    for report in &reports {
        assert!(
            report.passed(),
            "seed {:?} ({}) diverged: {:?}",
            report.seed,
            report.scenario,
            report.failures
        );
        assert!(
            report
                .skipped
                .iter()
                .all(|(o, _)| *o != OracleId::ExactOptimality),
            "exact-optimality oracle skipped on an enumerable scenario: {:?}",
            report.skipped
        );
    }
    // The default block must exercise the oracle too, on its small tail.
    let default_reports = run_seeds(SEEDS, &HarnessConfig::default());
    let checked = default_reports
        .iter()
        .filter(|r| {
            r.skipped
                .iter()
                .all(|(o, _)| *o != OracleId::ExactOptimality)
        })
        .count();
    assert!(
        checked >= 1,
        "the default smoke block never reaches the enumerable regime"
    );
}

#[test]
fn injected_fault_is_caught_and_shrunk_to_a_corpus_case() {
    let faulty = HarnessConfig {
        fault: Some(FaultInjection::SelfTimedOffByOne),
        ..HarnessConfig::default()
    };

    // The off-by-one shim misreports the self-timed side of oracle 1, so
    // the panel must flag exactly that oracle on a scenario that
    // allocates cleanly without the fault.
    let report = run_seed(0, &faulty);
    assert!(report.allocated);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.oracle == OracleId::HsdfEquivalence),
        "fault not caught: {:?}",
        report.failures
    );

    // Shrink to the minimal reproduction, as the CLI's --shrink would:
    // every kept candidate still fails an oracle the original failed.
    let scenario = Scenario::sample(0);
    let minimal = shrink::shrink(&scenario, shrink::still_fails(&report, &faulty), 200);
    assert!(minimal.app.graph().actor_count() <= scenario.app.graph().actor_count());
    assert!(minimal.arch.tile_count() <= scenario.arch.tile_count());
    assert!(
        minimal.app.graph().actor_count() <= 2,
        "expected a near-minimal scenario, got {} actors",
        minimal.app.graph().actor_count()
    );
    assert!(
        check_scenario(&minimal, &faulty)
            .failures
            .iter()
            .any(|f| f.oracle == OracleId::HsdfEquivalence),
        "the minimal case must still fail the oracle the fault breaks"
    );

    // Persist + reload through the corpus layer; the reproduction must
    // survive the .ron roundtrip byte-for-byte semantically: it still
    // fails under the fault and still passes without it.
    let dir = std::env::temp_dir().join(format!("sdfrs_conform_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = corpus::save(&dir, &minimal).unwrap();
    assert!(path.exists());
    let loaded = corpus::load_dir(&dir).unwrap();
    assert_eq!(loaded.len(), 1);
    let (_, replayed) = &loaded[0];
    assert!(!check_scenario(replayed, &faulty).passed());
    assert!(check_scenario(replayed, &HarnessConfig::default()).passed());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_corpus_replays_clean() {
    let entries = corpus::load_dir(&committed_corpus()).unwrap();
    assert!(
        !entries.is_empty(),
        "tests/corpus must hold regression cases"
    );
    let config = HarnessConfig::default();
    for (path, scenario) in entries {
        let report = check_scenario(&scenario, &config);
        assert!(
            report.passed(),
            "{} diverged: {:?}",
            path.display(),
            report.failures
        );
    }
}

#[test]
fn reports_serialize_as_jsonl() {
    let config = HarnessConfig::default();
    let passing = run_seed(0, &config);
    let line = passing.to_json();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"seed\":0"));
    assert!(line.contains("\"allocated\":true"));
    assert!(line.contains("\"failures\":[]"));
    assert!(!line.contains('\n'));

    let faulty = HarnessConfig {
        fault: Some(FaultInjection::SelfTimedOffByOne),
        ..HarnessConfig::default()
    };
    let failing = run_seed(0, &faulty);
    assert!(failing
        .to_json()
        .contains("\"oracle\":\"hsdf_equivalence\""));
}

#[test]
fn keep_events_populates_the_report_stream() {
    let config = HarnessConfig {
        keep_events: true,
        ..HarnessConfig::default()
    };
    let report = run_seed(0, &config);
    assert!(report.allocated);
    let kinds: Vec<&str> = report.events.iter().map(|(_, e)| e.kind()).collect();
    assert_eq!(kinds.first(), Some(&"flow_started"));
    assert_eq!(kinds.last(), Some(&"flow_finished"));
}
