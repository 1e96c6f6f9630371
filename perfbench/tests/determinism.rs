//! A seed must give the same inputs, the same allocation quality and the
//! same work counts every time; another seed must give other inputs.
//! Only timings may differ between two runs of one seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use sdfrs_perfbench::host::HostSample;
use sdfrs_perfbench::layers::layer_metrics;
use sdfrs_perfbench::pass::Mode;
use sdfrs_perfbench::runner::{order, Workload};

/// Everything of a traced pass that must repeat exactly: the inputs and
/// response fingerprints, the quality counts, and every exact layer
/// metric (bind attempts, slice checks, probe states, cache and warm
/// hits, ...).
type Exact = (u64, u64, (u64, u64, u64), Vec<(&'static str, f64)>);

fn traced_pass(workload: Workload, member: usize) -> Exact {
    let mut pass = workload.pass(
        member,
        Mode {
            verify: false,
            traced: true,
        },
    );
    assert!(
        pass.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        pass.failures
    );
    let layers = pass.traced.take().expect("a traced pass records layers");
    let exact = layer_metrics(&layers, &HostSample::default(), 1.0)
        .into_iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, m.value))
        .collect();
    (
        pass.inputs.0,
        pass.transcript.0,
        (pass.admit_attempts, pass.admitted, pass.wheel_admitted),
        exact,
    )
}

#[test]
fn one_seed_repeats_inputs_quality_and_work_counts_exactly() {
    for workload in Workload::ALL {
        let first = traced_pass(workload, 0);
        let second = traced_pass(workload, 0);
        assert_eq!(first, second, "{}", workload.name());
        let probes = first.3.iter().find(|(name, _)| *name == "probe.states");
        assert!(
            probes.is_some_and(|&(_, states)| states > 0.0),
            "{}: the pass explored no states",
            workload.name()
        );
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for workload in Workload::ALL {
        let count = workload.passes(30);
        let (a, b) = (order(1, count), order(2, count));
        assert_ne!(
            a,
            b,
            "{}: seeds 1 and 2 play the same order",
            workload.name()
        );
        let position = (0..count).find(|&i| a[i] != b[i]).expect("orders differ");
        let inputs = |member| {
            workload
                .pass(
                    member,
                    Mode {
                        verify: false,
                        traced: false,
                    },
                )
                .inputs
        };
        assert_ne!(
            inputs(a[position]),
            inputs(b[position]),
            "{}: pass {position} got the same inputs under both seeds",
            workload.name()
        );
    }
}

#[test]
fn the_order_is_a_permutation_fixed_by_the_seed() {
    let count = Workload::ServeChurn.passes(30);
    let mut members = order(7, count);
    assert_eq!(members, order(7, count));
    members.sort_unstable();
    assert_eq!(members, (0..count).collect::<Vec<_>>());
}
