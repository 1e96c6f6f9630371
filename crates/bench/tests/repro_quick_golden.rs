//! The quick experiment's Table 4, Table 5 and Sec 10.2 (E7) lines, byte
//! for byte: the output of `repro table4 --quick`, `repro table5 --quick`
//! and `repro runtime --quick`, in that order. These lines carry no
//! timing and are identical for every `SDFRS_THREADS`, so any change of
//! a binding, a slice or a throughput check count under one of the five
//! Table 4 weight settings shows here. A change that moves them on
//! purpose regenerates `fixtures/repro_quick_golden.txt` from those three
//! commands and says why.

use sdfrs_bench::table4::{self, ExperimentConfig};
use sdfrs_bench::table5;

#[test]
fn quick_tables_match_the_golden() {
    let exp = table4::run_experiment(&ExperimentConfig::quick());
    let text = table4::render(&exp) + &table5::render(&exp) + &table4::render_runtime(&exp);
    let golden = include_str!("fixtures/repro_quick_golden.txt");
    assert!(
        text == golden,
        "quick repro tables differ from the golden:\n--- got\n{text}--- want\n{golden}"
    );
}
