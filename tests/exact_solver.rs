//! Property tests for the exact-solver stack: the rational simplex
//! kernel (feasibility, optimality against a grid enumeration, pivot
//! determinism) and the branch-and-bound backend (bound soundness
//! against the naive exhaustive enumerator on tiny instances, the
//! budget-exhaustion path).
//!
//! Cases are drawn from the workspace's seeded [`SmallRng`] (the build
//! environment is offline, so `proptest` is replaced by a deterministic
//! case loop); every assertion carries its case index and the generator
//! is reproducible from the seed alone, so failures replay exactly.

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::exact::{enumerate_exhaustive, ExactConfig};
use sdfrs_core::simplex::{is_feasible, solve, LpConstraint, LpError, LpProblem, LpRelation};
use sdfrs_core::{AdmissionPolicy, Allocator, MapError, SolveReport};
use sdfrs_fastutil::SmallRng;
use sdfrs_gen::{Scenario, ScenarioConfig};
use sdfrs_platform::PlatformState;
use sdfrs_sdf::Rational;

const LP_CASES: usize = 96;

/// A random small LP: every variable is boxed into `0 ≤ x_i ≤ u_i`, so
/// the feasible region (when non-empty) is a bounded polytope and the
/// solver can never legitimately report `Unbounded`.
fn draw_lp(rng: &mut SmallRng) -> (LpProblem, Vec<i128>) {
    let n = rng.gen_range(2usize..=3);
    let objective: Vec<Rational> = (0..n)
        .map(|_| Rational::from_integer(rng.gen_range(0i64..=8) as i128 - 4))
        .collect();
    let bounds: Vec<i128> = (0..n).map(|_| rng.gen_range(1u64..=5) as i128).collect();
    let mut constraints: Vec<LpConstraint> = bounds
        .iter()
        .enumerate()
        .map(|(i, &u)| LpConstraint {
            coeffs: (0..n)
                .map(|j| {
                    if j == i {
                        Rational::ONE
                    } else {
                        Rational::ZERO
                    }
                })
                .collect(),
            relation: LpRelation::Le,
            rhs: Rational::from_integer(u),
        })
        .collect();
    for _ in 0..rng.gen_range(1usize..=3) {
        let coeffs: Vec<Rational> = (0..n)
            .map(|_| Rational::from_integer(rng.gen_range(0i64..=6) as i128 - 3))
            .collect();
        let relation = *rng.choose(&[LpRelation::Le, LpRelation::Ge, LpRelation::Eq]);
        let rhs = Rational::from_integer(rng.gen_range(0i64..=10) as i128 - 4);
        constraints.push(LpConstraint {
            coeffs,
            relation,
            rhs,
        });
    }
    (
        LpProblem {
            num_vars: n,
            objective,
            constraints,
        },
        bounds,
    )
}

/// Every integer point of the box `0..=u_i` per axis — a subset of the
/// feasible region, enumerated as an independent optimality witness.
fn grid_points(bounds: &[i128]) -> Vec<Vec<Rational>> {
    let mut points = vec![Vec::new()];
    for &u in bounds {
        points = points
            .into_iter()
            .flat_map(|p| {
                (0..=u).map(move |v| {
                    let mut q = p.clone();
                    q.push(Rational::from_integer(v));
                    q
                })
            })
            .collect();
    }
    points
}

fn objective_at(problem: &LpProblem, values: &[Rational]) -> Rational {
    problem
        .objective
        .iter()
        .zip(values)
        .fold(Rational::ZERO, |acc, (&c, &v)| acc + c * v)
}

#[test]
fn simplex_solutions_are_feasible_optimal_and_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut solved = 0usize;
    let mut infeasible = 0usize;
    for case in 0..LP_CASES {
        let (problem, bounds) = draw_lp(&mut rng);
        let grid = grid_points(&bounds);
        match solve(&problem) {
            Ok(solution) => {
                solved += 1;
                // Pivot invariant 1: the returned point satisfies every
                // constraint and the non-negativity bounds — pivoting
                // never walks the tableau out of the feasible region.
                assert!(
                    is_feasible(&problem, &solution.values),
                    "case {case}: solution {:?} infeasible for {problem:?}",
                    solution.values
                );
                assert_eq!(
                    objective_at(&problem, &solution.values),
                    solution.objective,
                    "case {case}: reported objective disagrees with the point"
                );
                // Optimality against the independent grid enumeration:
                // no feasible integer point may beat the LP optimum.
                for point in &grid {
                    if is_feasible(&problem, point) {
                        assert!(
                            solution.objective <= objective_at(&problem, point),
                            "case {case}: grid point {point:?} beats the simplex optimum"
                        );
                    }
                }
                // Pivot invariant 2: Bland's rule makes the pivot
                // sequence a pure function of the input, so a re-solve
                // reproduces values *and* pivot count bit-for-bit.
                let again = solve(&problem).expect("re-solve succeeds");
                assert_eq!(again.values, solution.values, "case {case}");
                assert_eq!(again.objective, solution.objective, "case {case}");
                assert_eq!(again.pivots, solution.pivots, "case {case}");
            }
            Err(LpError::Infeasible) => {
                infeasible += 1;
                // Infeasibility is a certificate too: no integer point
                // of the box may satisfy the constraints.
                for point in &grid {
                    assert!(
                        !is_feasible(&problem, point),
                        "case {case}: solver claims infeasible but {point:?} is feasible"
                    );
                }
            }
            Err(LpError::Unbounded) => {
                panic!("case {case}: boxed LP reported unbounded: {problem:?}")
            }
        }
    }
    // The generator must exercise both outcomes, or the sweep is hollow.
    assert!(solved >= 20, "only {solved}/{LP_CASES} LPs solved");
    assert!(
        infeasible >= 5,
        "only {infeasible}/{LP_CASES} LPs infeasible"
    );
}

/// Scenario pool pinned to the enumerable regime: every instance is
/// small enough for `enumerate_exhaustive` to visit the full assignment
/// tree, making it the ground truth the bound soundness is checked
/// against.
fn tiny_scenarios() -> impl Iterator<Item = Scenario> {
    let config = ScenarioConfig {
        actors: 2..=3,
        tiles: 2..=2,
        ..ScenarioConfig::default()
    };
    (0..24u64).map(move |seed| Scenario::sample_with(&config, seed))
}

#[test]
fn exact_bounds_dominate_the_naive_enumerator() {
    let mut agreements = 0usize;
    for (i, scenario) in tiny_scenarios().enumerate() {
        let state = PlatformState::new(&scenario.arch);
        let exact = Allocator::new().solve(
            AdmissionPolicy::exact(),
            &scenario.app,
            &scenario.arch,
            &state,
        );
        let naive =
            enumerate_exhaustive(&mut Allocator::new(), &scenario.app, &scenario.arch, &state);
        match (&exact, &naive) {
            (Ok(e), Ok(x)) => {
                agreements += 1;
                let (er, xr) = (certificate(e), certificate(x));
                // Bound soundness: pruning never removes the optimum,
                // so the searched lower bound equals the enumerated one
                // and the certified upper bound dominates it.
                assert_eq!(
                    er.lower, xr.lower,
                    "scenario {i}: search missed the enumerated optimum"
                );
                assert!(
                    er.upper >= xr.lower,
                    "scenario {i}: upper bound {} below the true optimum {}",
                    er.upper,
                    xr.lower
                );
                assert!(er.proven_optimal, "scenario {i}: residual gap");
                // Bit-for-bit witness agreement (identical seeding and
                // expansion order on both sides).
                assert_eq!(e.allocation.binding, x.allocation.binding, "scenario {i}");
                assert_eq!(
                    e.allocation.schedules, x.allocation.schedules,
                    "scenario {i}"
                );
                assert_eq!(e.allocation.slices, x.allocation.slices, "scenario {i}");
                // The heuristic can never beat a proven optimum.
                if let Ok((g, _)) = Allocator::new().allocate(&scenario.app, &scenario.arch, &state)
                {
                    assert!(
                        g.guaranteed_throughput() <= er.lower,
                        "scenario {i}: greedy {} beats the proven optimum {}",
                        g.guaranteed_throughput(),
                        er.lower
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                panic!("scenario {i}: exact admits but the enumerator rejects with {e}")
            }
            (Err(e), Ok(_)) => {
                panic!("scenario {i}: enumerator admits but exact rejects with {e}")
            }
        }
    }
    assert!(
        agreements >= 8,
        "only {agreements}/24 tiny scenarios were feasible — the sweep is hollow"
    );
}

/// The certificate every search attaches to its outcome.
fn certificate(outcome: &sdfrs_core::SolveOutcome) -> SolveReport {
    outcome.report.expect("a search attaches its certificate")
}

#[test]
fn node_budget_exhaustion_returns_the_incumbent_with_a_gap() {
    let app = paper_example();
    let arch = example_platform();
    let state = PlatformState::new(&arch);
    // Budget 1: the greedy seed becomes the incumbent, the search dies
    // immediately — a *result* (with an honest residual gap), not an
    // error.
    let policy = AdmissionPolicy::exact_with(ExactConfig { node_budget: 1 });
    let outcome = Allocator::new()
        .solve(policy, &app, &arch, &state)
        .expect("exhausted budget with an incumbent still returns it");
    let report = certificate(&outcome);
    assert!(!report.proven_optimal);
    assert!(
        report.gap > Rational::ZERO,
        "gap {} must be positive after exhaustion",
        report.gap
    );
    assert!(report.lower >= app.throughput_constraint());
    assert!(report.upper > report.lower);
    assert!(report.nodes_expanded <= 1);

    // No incumbent can exist under an unsatisfiable constraint: that is
    // the error path, budget or no budget.
    let impossible = paper_example().with_throughput_constraint(Rational::ONE);
    let err = Allocator::new()
        .solve(policy, &impossible, &arch, &state)
        .expect_err("λ = 1 is unsatisfiable");
    assert!(
        matches!(err, MapError::ConstraintUnsatisfiable),
        "unexpected error: {err:?}"
    );
}
