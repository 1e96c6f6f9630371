//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each module computes one artifact as plain data; the `repro` binary
//! formats them like the paper's tables ([`table4`] and [`table5`] render
//! their own text, which `tests/repro_quick_golden.rs` pins):
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig5`] | Figure 5 state-space periods (2 / 29 / 30) |
//! | [`table3`] | Table 3 bindings per weight setting |
//! | [`table4`] | Table 4 average #applications bound |
//! | [`table5`] | Table 5 resource efficiency (mixed set) |
//! | [`multimedia`] | Sec 10.3 multimedia system |
//! | [`hsdf_cmp`] | Fig 1 / Sec 1 HSDF blow-up + runtime comparison |
//! | [`sweep`] | the Sec 10.2 weight-space search behind the (0,1,2) setting |
//!
//! See `EXPERIMENTS.md` at the workspace root for paper-vs-measured
//! results.

pub mod fig5;
pub mod hsdf_cmp;
pub mod multimedia;
pub mod sweep;
pub mod table3;
pub mod table4;
pub mod table5;
