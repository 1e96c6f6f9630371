//! Exact branch-and-bound allocation for small instances, with an
//! LP-relaxation upper bound certified by the rational
//! [`simplex`] kernel.
//!
//! The paper's flow is a greedy heuristic and never reports how far
//! from optimal it lands. This module answers that question with a
//! search over actor→tile bindings that is
//!
//! * **exact** — the objective of a complete binding is the guaranteed
//!   iteration throughput the real machinery computes for it (the
//!   binding-aware graph of Sec 8.1 under list-scheduled static orders,
//!   evaluated at the full remaining TDMA wheel of every tile — the
//!   best slices any allocation of this binding could get, since
//!   guaranteed throughput is monotone in the slice sizes under fixed
//!   static orders: DESIGN.md §9, "Monotone answers and confirmed
//!   speculation", gives the argument the slice search also relies on);
//! * **bounded** — every subtree is bounded above by an exact rational
//!   LP: relax the 0/1 placement variables `x_{a,t}` of the unbound
//!   actors to `[0,1]` and minimize the worst per-tile *weighted work*
//!   `P = max_t (fixed_t + Σ_a γ_a·τ_a(t)·x_{a,t}) · W_t / rem_t`, summed
//!   over the actors of the output actor's weakly connected component.
//!   An actor bound to tile `t` receives at most the asymptotic TDMA
//!   service rate `rem_t / W_t` (the remaining wheel `rem_t` out of
//!   every wheel rotation `W_t`), so one iteration of that component —
//!   which must execute `γ_a` firings of τ time units each — takes at
//!   least `P` time units, and `1/P*` upper-bounds the iteration
//!   throughput of every completion of the partial binding. Other
//!   components run at their own rates, so, as in
//!   [`ProcessingBound`](crate::slice::ProcessingBound), their work is
//!   left out; their actors still need a feasible tile. The relaxation
//!   drops token-dependency delays and memory/connection constraints,
//!   which only weakens (never invalidates) the bound. The structural
//!   bounds of [`sdfrs_sdf::analysis::bounds`] on the output's component
//!   tighten it from the graph side;
//! * **deterministic** — actors are expanded in the Eqn 1 criticality
//!   order, candidate tiles in ascending index, the LP pivots by
//!   Bland's rule, and the incumbent only ever updates on a *strict*
//!   improvement. Pruning removes only subtrees whose every leaf is ≤
//!   the incumbent at prune time, so the search returns bit-for-bit the
//!   binding [`enumerate_exhaustive`] returns — the heart of
//!   conformance oracle 10.
//!
//! The search seeds its incumbent from the greedy heuristic (the
//! paper's answer is the starting lower bound) and obeys a node budget:
//! exhaustion is *not* an error — the incumbent is returned with
//! `gap > 0`, bounded by the best LP bound left on the open frontier.
//!
//! Arithmetic note: LP coefficients are `γ·τ·W/rem` rationals over
//! `i128`; the dense tableau can overflow `i128` on adversarially large
//! execution times. The backend targets *small* instances (the
//! conformance panel caps it at a few actors/tiles); overflow panics in
//! debug and wraps in release like every other `Rational` use in this
//! workspace.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId, TileMap};
use sdfrs_sdf::analysis::bounds::throughput_bounds;
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::transform::weak_component;
use sdfrs_sdf::{ActorId, Rational};

use crate::allocator::Allocator;
use crate::binding::Binding;
use crate::binding_aware::BindingAwareGraph;
use crate::constrained::TileSchedules;
use crate::cost::binding_order;
use crate::error::MapError;
use crate::events::FlowEvent;
use crate::flow::{claimed_usage, Allocation, FlowConfig, FlowStats};
use crate::list_sched::ListScheduler;
use crate::resources::{cross_channels_routable, tile_constraints_hold};
use crate::simplex::{self, LpConstraint, LpError, LpProblem, LpRelation};
use crate::solver::{SolveOutcome, SolveReport, SolverKind};

/// Knobs of the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// Maximum branch-and-bound nodes to expand before returning the
    /// incumbent with a residual gap. Exhaustion with an incumbent in
    /// hand is a result, not an error.
    pub node_budget: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            node_budget: 20_000,
        }
    }
}

/// The best complete binding found, with its full-wheel evaluation.
struct Incumbent {
    binding: Binding,
    schedules: TileSchedules,
    achieved: ThroughputResult,
}

/// Raw outcome of one branch-and-bound (or exhaustive) run.
#[derive(Default)]
struct Search {
    /// The heuristic's allocation that seeded the search, when it
    /// succeeded (what `Portfolio` commits).
    greedy: Option<(Allocation, FlowStats)>,
    incumbent: Option<Incumbent>,
    /// Certified upper bound on the optimal objective (`None` = nothing
    /// bounds it, which only happens on degenerate zero-work graphs).
    upper: Option<Rational>,
    /// `true` when the search ran to completion (or closed the gap);
    /// `false` on node-budget exhaustion.
    complete: bool,
    nodes_expanded: u64,
    lp_pivots: u64,
    pruned_bound: u64,
    pruned_infeasible: u64,
    leaves_evaluated: u64,
}

/// Everything immutable the search consults.
struct Ctx<'a> {
    app: &'a ApplicationGraph,
    arch: &'a ArchitectureGraph,
    state: &'a PlatformState,
    flow: FlowConfig,
    /// Remaining TDMA wheel per tile index (the slices of the witness).
    full: Vec<u64>,
    /// Wheel size per tile index.
    wheel: Vec<u64>,
    /// Actors in Eqn 1 criticality order — the branching order.
    order: Vec<ActorId>,
    /// Candidate tiles per branching position: processor type supported
    /// and at least one wheel unit remaining.
    cands: Vec<Vec<TileId>>,
    /// `γ_a · τ_a(t)` per branching position and tile index, 0 outside
    /// the output actor's component (`None` = unsupported).
    work: Vec<Vec<Option<u64>>>,
    /// The throughput constraint λ.
    lambda: Rational,
    /// Structural throughput upper bound of the output actor's component.
    structural: Option<Rational>,
}

impl<'a> Ctx<'a> {
    fn build(
        app: &'a ApplicationGraph,
        arch: &'a ArchitectureGraph,
        state: &'a PlatformState,
        flow: FlowConfig,
    ) -> Result<Self, MapError> {
        let order = binding_order(app, flow.bind.max_cycles)?;
        let gamma = app.graph().repetition_vector()?;
        let (component, _) = app.graph().weak_components();
        let output = component[app.output_actor().index()];
        let full: Vec<u64> = arch
            .tile_ids()
            .map(|t| state.available_wheel(arch, t))
            .collect();
        let wheel: Vec<u64> = arch.tile_ids().map(|t| arch.tile(t).wheel_size()).collect();
        let mut cands = Vec::with_capacity(order.len());
        let mut work = Vec::with_capacity(order.len());
        for &a in &order {
            let mut c = Vec::new();
            let mut w = vec![None; wheel.len()];
            for (t, tile) in arch.tiles() {
                if full[t.index()] == 0 {
                    continue;
                }
                if let Some(tau) = app.execution_time(a, tile.processor_type()) {
                    c.push(t);
                    let counted = component[a.index()] == output;
                    w[t.index()] = Some(if counted { gamma[a] * tau } else { 0 });
                }
            }
            cands.push(c);
            work.push(w);
        }
        let (output_component, _) = weak_component(app.graph(), app.output_actor());
        let structural = throughput_bounds(&output_component, flow.bind.max_cycles)
            .ok()
            .and_then(|b| b.tightest());
        Ok(Ctx {
            app,
            arch,
            state,
            flow,
            full,
            wheel,
            order,
            cands,
            work,
            lambda: app.throughput_constraint(),
            structural,
        })
    }

    /// The LP-relaxation throughput bound of a partial binding covering
    /// `order[..depth]`, combined with the structural bound. `Ok(None)`
    /// means unbounded (zero-work relaxation); `Err(())` means the
    /// relaxation itself is infeasible (some free actor fits nowhere).
    /// Pivot counts accumulate into `pivots`.
    fn bound(
        &self,
        binding: &Binding,
        depth: usize,
        pivots: &mut u64,
    ) -> Result<Option<Rational>, ()> {
        let tiles = self.wheel.len();
        // Fixed weighted work already committed per tile.
        let mut fixed = vec![0u64; tiles];
        for (pos, &a) in self.order[..depth].iter().enumerate() {
            let t = binding.tile_of(a).expect("prefix actors are bound");
            fixed[t.index()] += self.work[pos][t.index()].expect("bound tiles are supported");
        }
        // Variable layout: one x per (free position, candidate tile),
        // then P last.
        let mut var_of = Vec::new(); // (position, tile index)
        for pos in depth..self.order.len() {
            if self.cands[pos].is_empty() {
                return Err(());
            }
            for &t in &self.cands[pos] {
                var_of.push((pos, t.index()));
            }
        }
        let num_vars = var_of.len() + 1;
        let p_var = var_of.len();
        let mut objective = vec![Rational::ZERO; num_vars];
        objective[p_var] = Rational::ONE;
        let mut constraints = Vec::new();
        // Each free actor is placed exactly once.
        for pos in depth..self.order.len() {
            let mut coeffs = vec![Rational::ZERO; num_vars];
            for (v, &(p, _)) in var_of.iter().enumerate() {
                if p == pos {
                    coeffs[v] = Rational::ONE;
                }
            }
            constraints.push(LpConstraint {
                coeffs,
                relation: LpRelation::Eq,
                rhs: Rational::ONE,
            });
        }
        // Weighted tile load ≤ P.
        for (ti, &fixed_t) in fixed.iter().enumerate() {
            if self.full[ti] == 0 {
                debug_assert_eq!(fixed_t, 0, "work committed to a full tile");
                continue;
            }
            let scale = Rational::new(self.wheel[ti] as i128, self.full[ti] as i128);
            let mut coeffs = vec![Rational::ZERO; num_vars];
            let mut any = fixed_t > 0;
            for (v, &(pos, t)) in var_of.iter().enumerate() {
                if t == ti {
                    let w = self.work[pos][ti].expect("candidates are supported");
                    coeffs[v] = Rational::from_integer(w as i128) * scale;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            coeffs[p_var] = -Rational::ONE;
            constraints.push(LpConstraint {
                coeffs,
                relation: LpRelation::Le,
                rhs: -(Rational::from_integer(fixed_t as i128) * scale),
            });
        }
        let problem = LpProblem {
            num_vars,
            objective,
            constraints,
        };
        match simplex::solve(&problem) {
            Ok(sol) => {
                *pivots += sol.pivots;
                let lp = if sol.objective > Rational::ZERO {
                    Some(sol.objective.recip())
                } else {
                    None
                };
                Ok(match (lp, self.structural) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                })
            }
            Err(LpError::Infeasible) => Err(()),
            // Minimizing P ≥ 0 cannot be unbounded; be safe, not wrong.
            Err(LpError::Unbounded) => Ok(self.structural),
        }
    }

    /// `true` when extending the partial binding by `order[depth] → t`
    /// keeps the Section 7 constraints satisfiable. `binding` already
    /// has the actor bound.
    fn child_feasible(&self, binding: &Binding, tile: TileId) -> bool {
        tile_constraints_hold(self.app, self.arch, self.state, binding, tile, None)
            && cross_channels_routable(self.app, self.arch, binding)
    }

    /// The witness slices of a complete binding: the full remaining
    /// wheel on each used tile.
    fn witness_slices(&self, binding: &Binding) -> TileMap<u64> {
        binding
            .used_tiles()
            .into_iter()
            .map(|t| (t, self.full[t.index()]))
            .collect()
    }
}

/// Evaluates one complete binding with the real throughput machinery at
/// full-remaining-wheel slices. `Ok(None)` = resource-infeasible.
fn evaluate_leaf(
    allocator: &mut Allocator,
    ctx: &Ctx<'_>,
    binding: &Binding,
) -> Result<Option<(TileSchedules, ThroughputResult)>, MapError> {
    for t in binding.used_tiles() {
        if !tile_constraints_hold(
            ctx.app,
            ctx.arch,
            ctx.state,
            binding,
            t,
            Some(ctx.full[t.index()]),
        ) {
            return Ok(None);
        }
    }
    if !cross_channels_routable(ctx.app, ctx.arch, binding) {
        return Ok(None);
    }
    // Like the flow's scheduling step, unused tiles get a nominal slice
    // of 1 (their TDMA is never consulted — no actor is scheduled there).
    let ba_slices: Vec<u64> = ctx.full.iter().map(|&w| w.max(1)).collect();
    let ba = BindingAwareGraph::build_with_model(
        ctx.app,
        ctx.arch,
        binding,
        &ba_slices,
        ctx.flow.connection_model,
    )?;
    let schedule_budget = ctx.flow.schedule_state_budget;
    let eval_budget = ctx.flow.slice.state_budget;
    let reference = ba.ba_actor(ctx.app.output_actor());
    let schedules = ListScheduler::new(&ba)
        .with_state_budget(schedule_budget)
        .construct()?;
    let achieved = allocator
        .cache
        .throughput(&ba, &schedules, reference, eval_budget)?;
    Ok(Some((schedules, achieved)))
}

/// Strict-improvement incumbent update shared by the branch-and-bound
/// search and the exhaustive enumerator — identical acceptance logic is
/// what makes the two agree bit-for-bit.
fn offer_leaf(
    incumbent: &mut Option<Incumbent>,
    ctx: &Ctx<'_>,
    binding: &Binding,
    schedules: TileSchedules,
    achieved: ThroughputResult,
) -> bool {
    let objective = achieved.iteration_throughput;
    if objective < ctx.lambda {
        return false;
    }
    let better = incumbent
        .as_ref()
        .is_none_or(|i| objective > i.achieved.iteration_throughput);
    if better {
        *incumbent = Some(Incumbent {
            binding: binding.clone(),
            schedules,
            achieved,
        });
    }
    better
}

/// One open node of the DFS stack.
struct Node {
    depth: usize,
    binding: Binding,
    bound: Option<Rational>,
}

/// Is a subtree bounded by `bound` still worth exploring against the
/// incumbent objective and the constraint λ?
fn promising(bound: Option<Rational>, incumbent: Option<Rational>, lambda: Rational) -> bool {
    match bound {
        None => true,
        Some(b) => b >= lambda && incumbent.is_none_or(|i| b > i),
    }
}

/// The branch-and-bound search, and the context it ran in. Emits
/// [`FlowEvent::SolverStarted`] / [`FlowEvent::ExactIncumbent`] /
/// [`FlowEvent::SolverFinished`] and the `exact_*` metrics; the greedy
/// seed run inside it reports through the ordinary flow instrumentation.
fn search<'a>(
    allocator: &mut Allocator,
    app: &'a ApplicationGraph,
    arch: &'a ArchitectureGraph,
    state: &'a PlatformState,
    config: ExactConfig,
    kind: SolverKind,
) -> Result<(Search, Ctx<'a>), MapError> {
    let flow = *allocator.config();
    flow.validate()?;
    allocator.emit(|| FlowEvent::SolverStarted {
        backend: kind.name(),
    });

    let ctx = Ctx::build(app, arch, state, flow)?;
    // Seed: the paper's heuristic answer, evaluated at full wheel, is
    // the starting incumbent. Feasibility failures are simply "no seed";
    // configuration errors were caught above.
    let mut out = Search {
        greedy: allocator.allocate(app, arch, state).ok(),
        ..Search::default()
    };
    if let Some((alloc, _)) = &out.greedy {
        out.leaves_evaluated += 1;
        if let Some((schedules, achieved)) = evaluate_leaf(allocator, &ctx, &alloc.binding)? {
            if offer_leaf(
                &mut out.incumbent,
                &ctx,
                &alloc.binding,
                schedules,
                achieved,
            ) {
                let thr = out
                    .incumbent
                    .as_ref()
                    .expect("offer accepted")
                    .achieved
                    .iteration_throughput;
                allocator.emit(|| FlowEvent::ExactIncumbent {
                    node: 0,
                    throughput: thr,
                });
            }
        }
    }

    let mut stack = Vec::new();
    let root = Binding::new(app.graph().actor_count());
    match ctx.bound(&root, 0, &mut out.lp_pivots) {
        Ok(bound) => stack.push(Node {
            depth: 0,
            binding: root,
            bound,
        }),
        Err(()) => out.pruned_infeasible += 1,
    }

    let incumbent_obj =
        |inc: &Option<Incumbent>| inc.as_ref().map(|i| i.achieved.iteration_throughput);
    let frontier_max = |stack: &[Node]| -> Option<Option<Rational>> {
        // max over the open frontier; None inside = unbounded node.
        let mut best: Option<Option<Rational>> = None;
        for n in stack {
            best = Some(match (best, n.bound) {
                (None, b) => b,
                (Some(None), _) | (Some(_), None) => None,
                (Some(Some(a)), Some(b)) => Some(a.max(b)),
            });
        }
        best
    };

    while let Some(node) = stack.pop() {
        // Early stop at gap 0: once no open node can beat the incumbent,
        // the incumbent is final and only the drain of dominated nodes
        // is skipped.
        if let Some(lower) = incumbent_obj(&out.incumbent) {
            let frontier = match frontier_max(&stack) {
                None => node.bound,
                Some(None) => None,
                Some(Some(f)) => node.bound.map(|b| b.max(f)),
            };
            if frontier.is_some_and(|f| f <= lower) {
                out.complete = true;
                out.upper = Some(lower);
                break;
            }
        }
        if out.nodes_expanded >= config.node_budget {
            stack.push(node);
            break;
        }
        out.nodes_expanded += 1;

        // The incumbent may have improved since this node was pushed.
        if !promising(node.bound, incumbent_obj(&out.incumbent), ctx.lambda) {
            out.pruned_bound += 1;
            continue;
        }

        if node.depth == ctx.order.len() {
            out.leaves_evaluated += 1;
            if let Some((schedules, achieved)) = evaluate_leaf(allocator, &ctx, &node.binding)? {
                if offer_leaf(&mut out.incumbent, &ctx, &node.binding, schedules, achieved) {
                    let node_no = out.nodes_expanded;
                    let thr = out
                        .incumbent
                        .as_ref()
                        .expect("offer accepted")
                        .achieved
                        .iteration_throughput;
                    allocator.emit(|| FlowEvent::ExactIncumbent {
                        node: node_no,
                        throughput: thr,
                    });
                }
            }
            continue;
        }

        let actor = ctx.order[node.depth];
        let mut children = Vec::new();
        for &tile in &ctx.cands[node.depth] {
            let mut child = node.binding.clone();
            child.bind(actor, tile);
            if !ctx.child_feasible(&child, tile) {
                out.pruned_infeasible += 1;
                continue;
            }
            let bound = match ctx.bound(&child, node.depth + 1, &mut out.lp_pivots) {
                Ok(b) => b,
                Err(()) => {
                    out.pruned_infeasible += 1;
                    continue;
                }
            };
            if !promising(bound, incumbent_obj(&out.incumbent), ctx.lambda) {
                out.pruned_bound += 1;
                continue;
            }
            children.push(Node {
                depth: node.depth + 1,
                binding: child,
                bound,
            });
        }
        // Push in reverse so the lowest tile index pops (and is explored)
        // first — the deterministic expansion order.
        for child in children.into_iter().rev() {
            stack.push(child);
        }
    }

    if stack.is_empty() && !out.complete {
        out.complete = true;
        out.upper = incumbent_obj(&out.incumbent);
    }
    if !out.complete {
        // Budget exhausted: the optimum is bounded by the best open
        // frontier bound (or the incumbent, whichever is larger).
        let lower = incumbent_obj(&out.incumbent);
        out.upper = match (frontier_max(&stack), lower) {
            (Some(Some(f)), Some(l)) => Some(f.max(l)),
            (Some(Some(f)), None) => Some(f),
            (Some(None), _) | (None, None) => ctx.structural,
            (None, Some(l)) => Some(l),
        };
    }

    let r = report_of(kind, &out);
    allocator.emit(|| FlowEvent::SolverFinished {
        backend: kind.name(),
        lower: r.lower,
        upper: r.upper,
        gap: r.gap,
        proven_optimal: r.proven_optimal,
        nodes: r.nodes_expanded,
        lp_pivots: r.lp_pivots,
        pruned_bound: r.pruned_bound,
        pruned_infeasible: r.pruned_infeasible,
        leaves: r.leaves_evaluated,
    });
    Ok((out, ctx))
}

/// Builds the report of a finished search.
fn report_of(kind: SolverKind, out: &Search) -> SolveReport {
    let lower = out
        .incumbent
        .as_ref()
        .map(|i| i.achieved.iteration_throughput)
        .unwrap_or(Rational::ZERO);
    let upper = out.upper.unwrap_or(lower).max(lower);
    let gap = SolveReport::gap_between(lower, upper);
    SolveReport {
        kind,
        lower,
        upper,
        gap,
        proven_optimal: out.complete && out.incumbent.is_some() && gap == Rational::ZERO,
        nodes_expanded: out.nodes_expanded,
        lp_pivots: out.lp_pivots,
        pruned_bound: out.pruned_bound,
        pruned_infeasible: out.pruned_infeasible,
        leaves_evaluated: out.leaves_evaluated,
    }
}

/// The outcome committing the search's incumbent as a
/// full-remaining-wheel witness [`Allocation`], whose flow statistics
/// count one throughput check per leaf evaluation.
fn witness_outcome(ctx: &Ctx<'_>, out: Search, kind: SolverKind) -> Result<SolveOutcome, MapError> {
    let report = report_of(kind, &out);
    let incumbent = out.incumbent.ok_or(MapError::ConstraintUnsatisfiable)?;
    let slices = ctx.witness_slices(&incumbent.binding);
    let usage = claimed_usage(ctx.app, ctx.arch, &incumbent.binding, &slices);
    let allocation = Allocation {
        binding: incumbent.binding,
        schedules: incumbent.schedules,
        slices,
        usage,
        achieved: incumbent.achieved,
        connection_model: ctx.flow.connection_model,
    };
    let stats = FlowStats {
        throughput_checks: out.leaves_evaluated as usize,
        ..FlowStats::default()
    };
    Ok(SolveOutcome::new(allocation, stats, Some(report)))
}

/// [`Allocator::solve`] under `Exact`: branch-and-bound, witness
/// allocation, certified report.
pub(crate) fn solve_exact(
    allocator: &mut Allocator,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: ExactConfig,
) -> Result<SolveOutcome, MapError> {
    let (out, ctx) = search(allocator, app, arch, state, config, SolverKind::Exact)?;
    witness_outcome(&ctx, out, SolverKind::Exact)
}

/// [`Allocator::solve`] under `Portfolio`: the greedy allocation (minimal
/// slices) is what gets committed; the exact search tightens the bound
/// pair around it. When greedy fails but the search finds a feasible
/// binding, the witness is committed instead.
pub(crate) fn solve_portfolio(
    allocator: &mut Allocator,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: ExactConfig,
) -> Result<SolveOutcome, MapError> {
    let kind = SolverKind::Portfolio;
    let (mut out, ctx) = search(allocator, app, arch, state, config, kind)?;
    match out.greedy.take() {
        Some((allocation, stats)) => {
            let report = report_of(kind, &out);
            Ok(SolveOutcome::new(allocation, stats, Some(report)))
        }
        None => witness_outcome(&ctx, out, kind),
    }
}

/// Exhaustively enumerates every complete binding in the same
/// deterministic order as the branch-and-bound search (criticality-order
/// actors, ascending tiles), seeded with the identical greedy incumbent,
/// and returns the identical witness outcome — the ground truth of
/// conformance oracle 10. No LP, no pruning beyond monotone resource
/// infeasibility; exponential, so only call it on tiny instances.
///
/// # Errors
///
/// [`MapError::ConstraintUnsatisfiable`] when no complete binding meets
/// the throughput constraint; otherwise as [`Allocator::allocate`].
pub fn enumerate_exhaustive(
    allocator: &mut Allocator,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
) -> Result<SolveOutcome, MapError> {
    let flow = *allocator.config();
    flow.validate()?;
    let ctx = Ctx::build(app, arch, state, flow)?;
    let mut out = Search {
        complete: true,
        ..Search::default()
    };

    // Identical greedy seeding: ties between the heuristic's binding and
    // an equal-valued enumerated binding resolve the same way they do in
    // the branch-and-bound search.
    if let Ok((alloc, _)) = allocator.allocate(app, arch, state) {
        out.leaves_evaluated += 1;
        if let Some((schedules, achieved)) = evaluate_leaf(allocator, &ctx, &alloc.binding)? {
            offer_leaf(
                &mut out.incumbent,
                &ctx,
                &alloc.binding,
                schedules,
                achieved,
            );
        }
    }

    let mut stack = vec![(0usize, Binding::new(app.graph().actor_count()))];
    while let Some((depth, binding)) = stack.pop() {
        out.nodes_expanded += 1;
        if depth == ctx.order.len() {
            out.leaves_evaluated += 1;
            if let Some((schedules, achieved)) = evaluate_leaf(allocator, &ctx, &binding)? {
                offer_leaf(&mut out.incumbent, &ctx, &binding, schedules, achieved);
            }
            continue;
        }
        let actor = ctx.order[depth];
        for &tile in ctx.cands[depth].iter().rev() {
            let mut child = binding.clone();
            child.bind(actor, tile);
            if ctx.child_feasible(&child, tile) {
                stack.push((depth + 1, child));
            } else {
                out.pruned_infeasible += 1;
            }
        }
    }

    out.upper = out
        .incumbent
        .as_ref()
        .map(|i| i.achieved.iteration_throughput);
    witness_outcome(&ctx, out, SolverKind::Exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};

    fn solve_default(config: ExactConfig) -> Result<SolveOutcome, MapError> {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        solve_exact(&mut allocator, &app, &arch, &state, config)
    }

    #[test]
    fn exact_solves_the_paper_example_optimally() {
        let outcome = solve_default(ExactConfig::default()).unwrap();
        let r = outcome.report.unwrap();
        assert_eq!(r.kind, SolverKind::Exact);
        assert!(r.proven_optimal, "tiny instance must be proved: {r:?}");
        assert_eq!(r.gap, Rational::ZERO);
        assert_eq!(r.lower, r.upper);
        assert_eq!(
            outcome.allocation.guaranteed_throughput(),
            r.lower,
            "the witness achieves the certified lower bound"
        );
        assert!(r.lower >= paper_example().throughput_constraint());
        assert!(r.nodes_expanded > 0);
        assert!(r.leaves_evaluated > 0);
    }

    #[test]
    fn exact_beats_or_matches_greedy() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        let (greedy, _) = allocator.allocate(&app, &arch, &state).unwrap();
        let exact =
            solve_exact(&mut allocator, &app, &arch, &state, ExactConfig::default()).unwrap();
        assert!(
            exact.allocation.guaranteed_throughput() >= greedy.guaranteed_throughput(),
            "exact {} < greedy {}",
            exact.allocation.guaranteed_throughput(),
            greedy.guaranteed_throughput()
        );
    }

    #[test]
    fn exact_matches_exhaustive_bit_for_bit() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let exact = {
            let mut allocator = Allocator::new();
            solve_exact(&mut allocator, &app, &arch, &state, ExactConfig::default()).unwrap()
        };
        let brute = {
            let mut allocator = Allocator::new();
            enumerate_exhaustive(&mut allocator, &app, &arch, &state).unwrap()
        };
        assert_eq!(exact.allocation.binding, brute.allocation.binding);
        assert_eq!(exact.allocation.slices, brute.allocation.slices);
        assert_eq!(exact.allocation.achieved, brute.allocation.achieved);
        assert_eq!(exact.report.unwrap().lower, brute.report.unwrap().lower);
    }

    #[test]
    fn exhausted_budget_returns_incumbent_with_gap() {
        // One node is enough to seed greedy but not to finish the search.
        let outcome = solve_default(ExactConfig { node_budget: 1 }).unwrap();
        let r = outcome.report.unwrap();
        assert!(!r.proven_optimal);
        assert!(r.gap > Rational::ZERO, "residual gap expected: {r:?}");
        assert!(r.lower <= r.upper);
        assert!(r.lower >= paper_example().throughput_constraint());
    }

    #[test]
    fn unsatisfiable_constraint_is_an_error() {
        let app = paper_example().with_throughput_constraint(Rational::new(1, 3));
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        let err =
            solve_exact(&mut allocator, &app, &arch, &state, ExactConfig::default()).unwrap_err();
        assert_eq!(err, MapError::ConstraintUnsatisfiable);
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let a = solve_default(ExactConfig::default()).unwrap();
        let b = solve_default(ExactConfig::default()).unwrap();
        assert_eq!(a.allocation.binding, b.allocation.binding);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn portfolio_commits_the_greedy_allocation() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut allocator = Allocator::new();
        let (greedy, _) = allocator.allocate(&app, &arch, &state).unwrap();
        let outcome =
            solve_portfolio(&mut allocator, &app, &arch, &state, ExactConfig::default()).unwrap();
        let report = outcome.report.unwrap();
        assert_eq!(report.kind, SolverKind::Portfolio);
        assert_eq!(outcome.allocation.binding, greedy.binding);
        assert_eq!(outcome.allocation.slices, greedy.slices);
        // The bound pair describes the optimum, which the (minimal)
        // greedy allocation may undershoot.
        assert!(report.lower >= outcome.allocation.guaranteed_throughput());
    }
}
