//! Cross-technique consistency: the state-space analysis (the paper's
//! substrate), the MCM baseline on the HSDF conversion, and the
//! constrained executor must all tell the same story where their domains
//! overlap.

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_appmodel::textio::{parse_application, parse_platform};
use sdfrs_core::binding_aware::BindingAwareGraph;
use sdfrs_core::constrained::{constrained_throughput, ConstrainedExecutor, TileSchedules};
use sdfrs_core::list_sched::construct_schedules;
use sdfrs_core::schedule::StaticOrderSchedule;
use sdfrs_core::{Allocator, Binding};
use sdfrs_platform::{PlatformState, TileId};
use sdfrs_sdf::analysis::mcr::{hsdf_max_cycle_mean, CycleRatio};
use sdfrs_sdf::analysis::selftimed::{self_timed_throughput, SelfTimedExecutor};
use sdfrs_sdf::hsdf::convert_to_hsdf;
use sdfrs_sdf::{Rational, SdfGraph};

/// Pseudo-random but deterministic strongly-connected test graphs:
/// a ring of `n` actors with varying rates, self-edges and extra tokens.
fn ring_graph(n: usize, seed: u64) -> SdfGraph {
    let mut g = SdfGraph::new(format!("ring{n}_{seed}"));
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut rand = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let actors: Vec<_> = (0..n)
        .map(|i| g.add_actor(format!("r{i}"), 1 + rand(9)))
        .collect();
    for &a in &actors {
        g.add_self_edge(a, 1);
    }
    // Single-rate ring with enough tokens to pipeline; multirate rings are
    // covered by the proptests.
    for i in 0..n {
        let src = actors[i];
        let dst = actors[(i + 1) % n];
        let tokens = if i == n - 1 { 1 + rand(3) } else { rand(2) };
        g.add_channel(format!("e{i}"), src, 1, dst, 1, tokens);
    }
    g
}

#[test]
fn state_space_equals_mcm_on_rings() {
    for n in 2..=5 {
        for seed in 0..6 {
            let g = ring_graph(n, seed);
            let reference = g.actor_ids().next().unwrap();
            let st = match self_timed_throughput(&g, reference) {
                Ok(r) => r,
                Err(_) => continue, // token-free ring: deadlock, fine
            };
            let h = convert_to_hsdf(&g).unwrap();
            let mcm = match hsdf_max_cycle_mean(&h.graph).unwrap() {
                CycleRatio::Ratio(r) => r,
                other => panic!("ring must have cycles: {other:?}"),
            };
            assert_eq!(st.iteration_throughput, mcm.recip(), "n={n} seed={seed}");
        }
    }
}

#[test]
fn constrained_execution_never_beats_self_timed() {
    // The scheduling function only restricts the execution: throughput
    // under any schedule and slice allocation is at most the self-timed
    // throughput of the binding-aware graph with full wheels.
    let app = paper_example();
    let arch = example_platform();
    let g = app.graph();
    let mut binding = Binding::new(g.actor_count());
    binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));

    for slices in [[10u64, 10], [7, 9], [5, 5], [2, 8], [1, 1]] {
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &slices).unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let free = SelfTimedExecutor::new(ba.graph()).throughput(a3).unwrap();
        let schedules = construct_schedules(&ba).unwrap();
        let constrained = constrained_throughput(&ba, &schedules, a3).unwrap();
        assert!(
            constrained.actor_throughput <= free.actor_throughput,
            "slices {slices:?}: {} > {}",
            constrained.actor_throughput,
            free.actor_throughput
        );
    }
}

#[test]
fn schedule_order_changes_throughput_but_not_validity() {
    // Both (a1 a2)* and the reversed (a2 a1)* (with the initial token
    // placement requiring a1 first, the reversed order deadlocks) — the
    // analysis must detect this rather than report a wrong number.
    let app = paper_example();
    let arch = example_platform();
    let g = app.graph();
    let mut binding = Binding::new(g.actor_count());
    binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
    let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
    let a1 = ba.graph().actor_by_name("a1").unwrap();
    let a2 = ba.graph().actor_by_name("a2").unwrap();
    let a3 = ba.graph().actor_by_name("a3").unwrap();

    let mut good = TileSchedules::new(2);
    good.set(
        TileId::from_index(0),
        StaticOrderSchedule::new(vec![], vec![a1, a2]),
    );
    good.set(
        TileId::from_index(1),
        StaticOrderSchedule::new(vec![], vec![a3]),
    );
    assert!(constrained_throughput(&ba, &good, a3).is_ok());

    let mut bad = TileSchedules::new(2);
    bad.set(
        TileId::from_index(0),
        StaticOrderSchedule::new(vec![], vec![a2, a1]),
    );
    bad.set(
        TileId::from_index(1),
        StaticOrderSchedule::new(vec![], vec![a3]),
    );
    assert!(constrained_throughput(&ba, &bad, a3).is_err());
}

#[test]
fn hsdf_preserves_throughput_of_binding_aware_graphs() {
    // The binding-aware graph is itself an SDFG; its HSDF conversion must
    // agree with the direct analysis (this is exactly the equivalence the
    // paper exploits to avoid the conversion).
    let app = paper_example();
    let arch = example_platform();
    let g = app.graph();
    let mut binding = Binding::new(g.actor_count());
    binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
    binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
    let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();

    let a3 = ba.graph().actor_by_name("a3").unwrap();
    let direct = SelfTimedExecutor::new(ba.graph()).throughput(a3).unwrap();
    let h = convert_to_hsdf(ba.graph()).unwrap();
    let mcm = hsdf_max_cycle_mean(&h.graph).unwrap().ratio().unwrap();
    assert_eq!(direct.iteration_throughput, mcm.recip());
    // And the paper's headline number again, via the second technique.
    assert_eq!(mcm, Rational::from_integer(29));
}

#[test]
fn throughput_is_independent_of_reference_actor() {
    // Iteration throughput is a graph property: measuring at any actor
    // yields the same normalized value.
    let g = ring_graph(4, 3);
    let mut last: Option<Rational> = None;
    for a in g.actor_ids() {
        let r = self_timed_throughput(&g, a).unwrap();
        if let Some(prev) = last {
            assert_eq!(prev, r.iteration_throughput);
        }
        last = Some(r.iteration_throughput);
    }
}

/// An application self-edge with two tokens lets `x` start again while
/// its first firing runs, but the tile may not: the list scheduler
/// serializes it into `x x x y x (x y)*`, and the constrained execution
/// must follow that order rather than overlap two firings of `x`, leave
/// the schedule and deadlock.
#[test]
fn a_tile_runs_one_firing_at_a_time() {
    let app = parse_application(
        "app selfedge2 lambda 1/12
         actor x pt p1 tau 10 mu 10
         actor y pt p1 tau 1 mu 10
         channel dxy x 1 y 1 tokens 0 sz 1 atile 4 asrc 2 adst 2 beta 10
         channel dxx x 1 x 1 tokens 2 sz 1 atile 2 asrc 0 adst 0 beta 0
         output y",
    )
    .unwrap();
    let arch =
        parse_platform("arch onetile\ntile t1 pt p1 wheel 10 mem 700 conn 5 bwin 100 bwout 100")
            .unwrap();
    let (alloc, _) = Allocator::new()
        .allocate(&app, &arch, &PlatformState::new(&arch))
        .expect("one firing at a time meets 1/12 on the full wheel");
    assert_eq!(alloc.slices, vec![10]);
    assert_eq!(alloc.guaranteed_throughput(), Rational::new(1, 11));

    // At half the wheel the execution keeps to the schedule too.
    let ba = BindingAwareGraph::build(&app, &arch, &alloc.binding, &[5]).unwrap();
    let y = ba.ba_actor(app.output_actor());
    let half = constrained_throughput(&ba, &alloc.schedules, y).unwrap();
    assert_eq!(half.iteration_throughput, Rational::new(1, 22));
    let trace = ConstrainedExecutor::new(&ba, &alloc.schedules)
        .trace(200)
        .unwrap();
    let mut busy: Vec<(u64, u64)> = trace.events.iter().map(|e| (e.start, e.end)).collect();
    busy.sort();
    for pair in busy.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "firings overlap on t1: {pair:?}");
    }
}
