//! Property-based tests of the constrained execution engine — the
//! component whose correctness the throughput *guarantee* rests on.
//!
//! The slice space is small enough to cover exhaustively (every `(s1, s2)`
//! in `1..=10 × 1..=10`), which is strictly stronger than the sampled
//! `proptest` runs this file used when the workspace still had network
//! access to crates.io.

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::binding_aware::{BindingAwareGraph, ConnectionModel};
use sdfrs_core::constrained::{constrained_throughput, ConstrainedExecutor};
use sdfrs_core::list_sched::construct_schedules;
use sdfrs_core::Binding;
use sdfrs_platform::TileId;
use sdfrs_sdf::analysis::selftimed::SelfTimedExecutor;
use sdfrs_sdf::Rational;

fn example_ba(slices: [u64; 2], model: ConnectionModel) -> BindingAwareGraph {
    let app = paper_example();
    let arch = example_platform();
    let g = app.graph();
    let mut binding = Binding::new(g.actor_count());
    binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
    BindingAwareGraph::build_with_model(&app, &arch, &binding, &slices, model).unwrap()
}

fn all_slices() -> impl Iterator<Item = (u64, u64)> {
    (1u64..=10).flat_map(|s1| (1u64..=10).map(move |s2| (s1, s2)))
}

/// Guaranteed throughput is monotone in each tile's slice and never
/// exceeds the unconstrained self-timed throughput.
#[test]
fn throughput_monotone_in_slices() {
    for (s1, s2) in all_slices() {
        let ba = example_ba([s1, s2], ConnectionModel::Simple);
        let schedules = construct_schedules(&ba).unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let base = constrained_throughput(&ba, &schedules, a3)
            .unwrap()
            .actor_throughput;

        // Unconstrained bound.
        let free = SelfTimedExecutor::new(ba.graph()).throughput(a3).unwrap();
        assert!(base <= free.actor_throughput, "[{s1},{s2}]");

        // Growing either slice never hurts.
        if s1 < 10 {
            let bigger = example_ba([s1 + 1, s2], ConnectionModel::Simple);
            let schedules = construct_schedules(&bigger).unwrap();
            let thr = constrained_throughput(&bigger, &schedules, a3)
                .unwrap()
                .actor_throughput;
            assert!(
                thr >= base,
                "slice t1 {s1}→{} dropped {base} → {thr}",
                s1 + 1
            );
        }
        if s2 < 10 {
            let bigger = example_ba([s1, s2 + 1], ConnectionModel::Simple);
            let schedules = construct_schedules(&bigger).unwrap();
            let thr = constrained_throughput(&bigger, &schedules, a3)
                .unwrap()
                .actor_throughput;
            assert!(
                thr >= base,
                "slice t2 {s2}→{} dropped {base} → {thr}",
                s2 + 1
            );
        }
    }
}

/// The premise of the slice search: under *fixed* static orders, as one
/// search keeps them (the list schedule at 50% slices), the throughput is
/// non-decreasing in every slice. `throughput_monotone_in_slices` above
/// rebuilds the orders at every slice vector, a different property.
/// Checked on every dominated pair of `1..=10 × 1..=10`, under both
/// connection models.
#[test]
fn throughput_monotone_in_slices_under_fixed_orders() {
    for model in [ConnectionModel::Simple, ConnectionModel::PipelinedHops] {
        let mut ba = example_ba([5, 5], model);
        let schedules = construct_schedules(&ba).unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let measured: Vec<((u64, u64), Rational)> = all_slices()
            .map(|(s1, s2)| {
                ba.set_slices(&[s1, s2]);
                let r = ConstrainedExecutor::new(&ba, &schedules)
                    .throughput(a3)
                    .unwrap();
                ((s1, s2), r.iteration_throughput)
            })
            .collect();
        for &((a1, a2), low) in &measured {
            for &((b1, b2), high) in &measured {
                if a1 <= b1 && a2 <= b2 {
                    assert!(
                        low <= high,
                        "{model:?}: [{a1},{a2}] reaches {low} but the dominating [{b1},{b2}] {high}"
                    );
                }
            }
        }
    }
}

/// The pipelined NoC model never reports lower throughput than the simple
/// conservative connection actor.
#[test]
fn pipelined_model_dominates_simple() {
    for (s1, s2) in all_slices() {
        let thr = |model| {
            let ba = example_ba([s1, s2], model);
            let schedules = construct_schedules(&ba).unwrap();
            let a3 = ba.graph().actor_by_name("a3").unwrap();
            constrained_throughput(&ba, &schedules, a3)
                .unwrap()
                .actor_throughput
        };
        let simple = thr(ConnectionModel::Simple);
        let pipelined = thr(ConnectionModel::PipelinedHops);
        assert!(pipelined >= simple, "{pipelined} < {simple} at [{s1},{s2}]");
    }
}

/// The trace agrees with the throughput analysis: counting a3 firings over
/// a long window approximates the analyzed rate.
#[test]
fn trace_rate_matches_analysis() {
    for (s1, s2) in all_slices().filter(|&(s1, s2)| s1 >= 2 && s2 >= 2) {
        let ba = example_ba([s1, s2], ConnectionModel::Simple);
        let schedules = construct_schedules(&ba).unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let analyzed = constrained_throughput(&ba, &schedules, a3).unwrap();
        let period = analyzed.actor_throughput.recip();
        let horizon = (period.numer() as u64 / period.denom() as u64 + 1) * 12;
        let trace = ConstrainedExecutor::new(&ba, &schedules)
            .trace(horizon)
            .unwrap();
        let count = trace.events_of(a3).len() as i128;
        // Expected firings ± 3 (transient + window truncation).
        let expected =
            (analyzed.actor_throughput * Rational::from_integer(horizon as i128)).floor();
        assert!(
            (count - expected).abs() <= 3,
            "[{s1},{s2}] horizon {horizon}: counted {count}, expected ≈{expected}"
        );
    }
}

/// Completed trace events of tile-bound actors respect the static order
/// cyclically.
#[test]
fn trace_respects_static_order() {
    for (s1, s2) in all_slices() {
        let ba = example_ba([s1, s2], ConnectionModel::Simple);
        let schedules = construct_schedules(&ba).unwrap();
        let trace = ConstrainedExecutor::new(&ba, &schedules)
            .trace(150)
            .unwrap();
        for tile in [TileId::from_index(0), TileId::from_index(1)] {
            let schedule = schedules.get(tile).unwrap();
            let fired: Vec<_> = trace
                .events
                .iter()
                .filter(|e| ba.tile_of(e.actor) == Some(tile))
                .collect();
            for (i, e) in fired.iter().enumerate() {
                assert_eq!(
                    e.actor,
                    schedule.at(i),
                    "[{s1},{s2}] position {i} on {tile}"
                );
            }
        }
    }
}
