//! Self-timed execution and state-space throughput analysis.
//!
//! Implements the technique of reference \[10\] of the paper (Ghamarian et
//! al., "Throughput analysis of synchronous data flow graphs", ACSD 2006):
//! execute the graph self-timed — every actor fires as soon as all inputs
//! carry enough tokens — and explore the reachable state space until a
//! recurrent state is found. The execution is deterministic, so the state
//! space is a single lasso: a transient prefix followed by a periodic
//! phase, from which the throughput is read off exactly.

use crate::analysis::interner::StateInterner;
use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::ids::ActorId;
use crate::rational::Rational;

/// Default bound on the number of explored clock-transition states.
pub const DEFAULT_STATE_BUDGET: usize = 4_000_000;

/// A snapshot of the execution: token counts per channel plus the sorted
/// remaining execution times of every active firing, grouped per actor.
///
/// Two executions that reach equal [`ExecState`]s behave identically
/// forever — this is what makes recurrence detection sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExecState {
    /// Tokens currently stored on each channel, indexed by channel index.
    pub tokens: Vec<u64>,
    /// For each actor (by index), the multiset of remaining execution
    /// times of its active firings, kept sorted ascending.
    pub active: Vec<Vec<u64>>,
}

impl ExecState {
    /// The initial state of a graph: channel tokens at `Tok(d)`, no active
    /// firings.
    pub fn initial(graph: &SdfGraph) -> Self {
        ExecState {
            tokens: graph
                .channel_ids()
                .map(|c| graph.channel(c).initial_tokens())
                .collect(),
            active: vec![Vec::new(); graph.actor_count()],
        }
    }

    /// Total number of firings currently in progress.
    pub fn active_firings(&self) -> usize {
        self.active.iter().map(Vec::len).sum()
    }

    /// Serializes the state into `out` (cleared first) as a flat word
    /// sequence for [`StateInterner`]: all token counts, then each actor's
    /// lane as its length followed by its (sorted) remaining times. The
    /// encoding is injective for a fixed graph, so interner equality is
    /// state equality.
    pub fn encode_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.tokens);
        for lane in &self.active {
            out.push(lane.len() as u64);
            out.extend_from_slice(lane);
        }
    }
}

/// One entry of the execution trace: which actors started firing and how
/// much time passed until the next state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Actors that started a firing in this step (with multiplicity).
    pub started: Vec<ActorId>,
    /// Actors that completed a firing in this step (with multiplicity).
    pub completed: Vec<ActorId>,
    /// Time elapsed from this state to the next.
    pub elapsed: u64,
    /// Absolute time at the *start* of this step.
    pub at: u64,
}

/// Result of a state-space throughput analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputResult {
    /// Completions of the reference actor per time unit in the periodic
    /// phase (the paper's notion: "how often an actor produces an output
    /// token").
    pub actor_throughput: Rational,
    /// Graph iterations per time unit: `actor_throughput / γ(reference)`.
    pub iteration_throughput: Rational,
    /// Reference actor the counts refer to.
    pub reference: ActorId,
    /// Length (in time units) of the periodic phase.
    pub period: u64,
    /// Completions of the reference actor within one period.
    pub firings_in_period: u64,
    /// Number of clock-transition states explored before recurrence. An
    /// explorer that stores only some states (the constrained executor of
    /// `sdfrs-core` stores iteration ends) closes the recurrence up to one
    /// period of states later.
    pub states_explored: usize,
    /// Time at which the periodic phase was first entered; for an
    /// explorer that stores only some states, the time of the first
    /// stored state inside it, up to one `period` later.
    pub transient_time: u64,
}

/// Self-timed executor for a timed SDFG.
///
/// The executor owns no graph data; it borrows the graph and exposes both
/// a step-wise API (for building schedules and visualizations on top) and
/// a one-shot [`throughput`](SelfTimedExecutor::throughput) analysis.
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::{SdfGraph, analysis::selftimed::SelfTimedExecutor};
/// let mut g = SdfGraph::new("loop");
/// let a = g.add_actor("a", 2);
/// let b = g.add_actor("b", 3);
/// g.add_channel("ab", a, 1, b, 1, 0);
/// g.add_channel("ba", b, 1, a, 1, 1);
/// let result = SelfTimedExecutor::new(&g).throughput(b)?;
/// // One token circulates through a (2) and b (3): period 5.
/// assert_eq!(result.actor_throughput, sdfrs_sdf::Rational::new(1, 5));
/// # Ok::<(), sdfrs_sdf::SdfError>(())
/// ```
#[derive(Debug)]
pub struct SelfTimedExecutor<'g> {
    graph: &'g SdfGraph,
    state: ExecState,
    time: u64,
    completions: Vec<u64>,
    state_budget: usize,
    max_auto_concurrency: Option<u64>,
}

impl<'g> SelfTimedExecutor<'g> {
    /// Creates an executor positioned at the initial state.
    pub fn new(graph: &'g SdfGraph) -> Self {
        SelfTimedExecutor {
            graph,
            state: ExecState::initial(graph),
            time: 0,
            completions: vec![0; graph.actor_count()],
            state_budget: DEFAULT_STATE_BUDGET,
            max_auto_concurrency: None,
        }
    }

    /// Bounds how many firings of one actor may overlap (auto-concurrency).
    ///
    /// Semantically equivalent to giving every actor a `limit`-token
    /// self-edge, without modifying the graph — the classic SDF³ analysis
    /// switch. `None` (the default) leaves auto-concurrency unbounded.
    pub fn with_max_auto_concurrency(mut self, limit: u64) -> Self {
        self.max_auto_concurrency = Some(limit);
        self
    }

    /// Overrides the exploration budget (number of clock transitions).
    pub fn with_state_budget(mut self, budget: usize) -> Self {
        self.state_budget = budget;
        self
    }

    /// The current state.
    pub fn state(&self) -> &ExecState {
        &self.state
    }

    /// Current absolute time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Completed firings per actor so far.
    pub fn completions(&self, actor: ActorId) -> u64 {
        self.completions[actor.index()]
    }

    /// `true` if `actor` can start a firing in the current state.
    pub fn is_enabled(&self, actor: ActorId) -> bool {
        if let Some(limit) = self.max_auto_concurrency {
            if self.state.active[actor.index()].len() as u64 >= limit {
                return false;
            }
        }
        self.graph
            .incoming(actor)
            .iter()
            .all(|&ch| self.state.tokens[ch.index()] >= self.graph.channel(ch).consumption_rate())
    }

    /// Starts one firing of `actor`, consuming its input tokens.
    ///
    /// # Panics
    ///
    /// Panics if the actor is not enabled.
    pub fn start_firing(&mut self, actor: ActorId) {
        assert!(self.is_enabled(actor), "actor {actor} is not enabled");
        for &ch in self.graph.incoming(actor) {
            self.state.tokens[ch.index()] -= self.graph.channel(ch).consumption_rate();
        }
        let remaining = self.graph.actor(actor).execution_time();
        let lane = &mut self.state.active[actor.index()];
        let pos = lane.partition_point(|&t| t <= remaining);
        lane.insert(pos, remaining);
    }

    /// Completes every firing whose remaining time is zero, producing output
    /// tokens. Returns the completed actors (with multiplicity).
    pub fn complete_finished(&mut self) -> Vec<ActorId> {
        let mut done = Vec::new();
        for idx in 0..self.state.active.len() {
            let mut finished = 0;
            while self.state.active[idx].first() == Some(&0) {
                self.state.active[idx].remove(0);
                finished += 1;
            }
            if finished > 0 {
                let actor = ActorId::from_index(idx);
                for _ in 0..finished {
                    for &ch in self.graph.outgoing(actor) {
                        self.state.tokens[ch.index()] += self.graph.channel(ch).production_rate();
                    }
                    self.completions[idx] += 1;
                    done.push(actor);
                }
            }
        }
        done
    }

    /// Starts every enabled firing, repeating until a fixpoint (zero-time
    /// actors may complete and enable others within the same instant).
    /// Returns all actors started (with multiplicity).
    pub fn start_all_enabled(&mut self) -> Vec<ActorId> {
        let mut started = Vec::new();
        loop {
            let mut progress = false;
            for actor in self.graph.actor_ids() {
                while self.is_enabled(actor) {
                    self.start_firing(actor);
                    started.push(actor);
                    progress = true;
                    // Zero-time firings finish immediately; fold them in so
                    // their outputs can enable more firings this instant.
                    if self.graph.actor(actor).execution_time() == 0 {
                        self.complete_finished();
                    }
                }
            }
            if !progress {
                break;
            }
        }
        started
    }

    /// Advances the clock to the next firing completion. Returns the time
    /// advanced, or `None` when nothing is active (deadlock or quiescence).
    pub fn advance_clock(&mut self) -> Option<u64> {
        let delta = self
            .state
            .active
            .iter()
            .filter_map(|lane| lane.first().copied())
            .min()?;
        for lane in &mut self.state.active {
            for t in lane.iter_mut() {
                *t -= delta;
            }
        }
        self.time += delta;
        Some(delta)
    }

    /// Executes one full step: complete finished firings, start enabled
    /// ones, advance the clock. Returns the trace entry, or `None` when the
    /// execution cannot make further progress (deadlock).
    pub fn step(&mut self) -> Option<TraceStep> {
        let at = self.time;
        let completed = self.complete_finished();
        let started = self.start_all_enabled();
        match self.advance_clock() {
            Some(elapsed) => Some(TraceStep {
                started,
                completed,
                elapsed,
                at,
            }),
            None => {
                if started.is_empty() && completed.is_empty() {
                    None
                } else {
                    // Something happened at this instant but nothing is
                    // active afterwards: report a zero-length step once.
                    Some(TraceStep {
                        started,
                        completed,
                        elapsed: 0,
                        at,
                    })
                }
            }
        }
    }

    /// Runs the self-timed execution until a recurrent state and returns the
    /// throughput of `reference` (Sec 8.2 of the paper / ACSD'06 \[10\]).
    ///
    /// # Errors
    ///
    /// * [`SdfError::Deadlock`] if the execution stops making progress.
    /// * [`SdfError::BudgetExceeded`] if no recurrence is found within the
    ///   state budget (e.g. on graphs whose token counts grow without bound
    ///   because some actor is not on any cycle).
    pub fn throughput(self, reference: ActorId) -> Result<ThroughputResult, SdfError> {
        let mut seen = StateInterner::new();
        self.throughput_with_interner(reference, &mut seen)
    }

    /// [`throughput`](Self::throughput), but interning states into a
    /// caller-owned arena. The interner is cleared first (its ids are
    /// private to one exploration) while its allocations are retained, so
    /// repeated analyses — e.g. a sweep over execution-time variants —
    /// skip the arena/table regrowth of a cold interner.
    ///
    /// # Errors
    ///
    /// Same conditions as [`throughput`](Self::throughput).
    pub fn throughput_with_interner(
        mut self,
        reference: ActorId,
        seen: &mut StateInterner,
    ) -> Result<ThroughputResult, SdfError> {
        // Interned exploration: each state is flat-encoded once into a
        // reusable scratch buffer; `(time, firings)` payloads live in a
        // dense vector indexed by state id.
        seen.clear();
        let mut at_state: Vec<(u64, u64)> = Vec::new();
        let mut scratch = Vec::new();
        self.state.encode_into(&mut scratch);
        seen.intern(&scratch);
        at_state.push((0, 0));
        let mut states = 0usize;
        loop {
            states += 1;
            if states > self.state_budget {
                return Err(SdfError::BudgetExceeded {
                    analysis: "self-timed state space",
                    budget: self.state_budget,
                });
            }
            let step = self.step();
            match step {
                None => return Err(SdfError::Deadlock { actor: reference }),
                Some(s) if s.elapsed == 0 && self.state.active_firings() == 0 => {
                    // Progress happened at one instant, but the graph is now
                    // quiescent with nothing enabled: deadlock.
                    if !self.graph.actor_ids().any(|a| self.is_enabled(a)) {
                        return Err(SdfError::Deadlock { actor: reference });
                    }
                }
                Some(_) => {}
            }
            self.state.encode_into(&mut scratch);
            let (id, fresh) = seen.intern(&scratch);
            if fresh {
                at_state.push((self.time, self.completions[reference.index()]));
            } else {
                let (t0, f0) = at_state[id as usize];
                let period = self.time - t0;
                let firings = self.completions[reference.index()] - f0;
                if period == 0 {
                    // A zero-time recurrent loop means unbounded
                    // instantaneous firing — treat as budget problem.
                    return Err(SdfError::BudgetExceeded {
                        analysis: "self-timed state space (zero-time cycle)",
                        budget: self.state_budget,
                    });
                }
                let actor_throughput = Rational::new(firings as i128, period as i128);
                let gamma = self.graph.repetition_vector()?;
                let iteration_throughput =
                    actor_throughput / Rational::from_integer(gamma[reference] as i128);
                return Ok(ThroughputResult {
                    actor_throughput,
                    iteration_throughput,
                    reference,
                    period,
                    firings_in_period: firings,
                    states_explored: states,
                    transient_time: t0,
                });
            }
        }
    }
}

impl SelfTimedExecutor<'_> {
    /// Explores the state space explicitly, recording every transition —
    /// the data behind Figure 5(a)/(b) of the paper.
    ///
    /// # Errors
    ///
    /// Same conditions as [`throughput`](SelfTimedExecutor::throughput).
    pub fn explore_state_space(
        mut self,
    ) -> Result<crate::analysis::statespace::StateSpaceGraph, SdfError> {
        use crate::analysis::statespace::{StateSpaceGraph, StateTransition};
        // Interner ids are dense in first-seen order, so they double as
        // the state indices of the recorded lasso.
        let mut seen = StateInterner::new();
        let mut scratch = Vec::new();
        self.state.encode_into(&mut scratch);
        seen.intern(&scratch);
        let mut transitions = Vec::new();
        let mut current = 0usize;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.state_budget {
                return Err(SdfError::BudgetExceeded {
                    analysis: "state-space exploration",
                    budget: self.state_budget,
                });
            }
            let step = match self.step() {
                Some(s) => s,
                None => {
                    let first = self.graph.actor_ids().next().ok_or(SdfError::Empty)?;
                    return Err(SdfError::Deadlock { actor: first });
                }
            };
            let fired: Vec<String> = step
                .started
                .iter()
                .map(|&a| self.graph.actor(a).name().to_string())
                .collect();
            let next_index = seen.len();
            self.state.encode_into(&mut scratch);
            let (id, fresh) = seen.intern(&scratch);
            if fresh {
                transitions.push(StateTransition {
                    from: current,
                    to: next_index,
                    fired,
                    elapsed: step.elapsed,
                });
                current = next_index;
            } else {
                let target = id as usize;
                transitions.push(StateTransition {
                    from: current,
                    to: target,
                    fired,
                    elapsed: step.elapsed,
                });
                return Ok(StateSpaceGraph {
                    state_count: next_index,
                    transitions,
                    recurrent_target: target,
                });
            }
        }
    }
}

/// Convenience wrapper: self-timed throughput of `reference` in `graph`.
///
/// # Errors
///
/// See [`SelfTimedExecutor::throughput`].
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::{SdfGraph, analysis::selftimed::self_timed_throughput, Rational};
/// let mut g = SdfGraph::new("self");
/// let a = g.add_actor("a", 4);
/// g.add_self_edge(a, 1);
/// let r = self_timed_throughput(&g, a)?;
/// assert_eq!(r.actor_throughput, Rational::new(1, 4));
/// # Ok::<(), sdfrs_sdf::SdfError>(())
/// ```
pub fn self_timed_throughput(
    graph: &SdfGraph,
    reference: ActorId,
) -> Result<ThroughputResult, SdfError> {
    SelfTimedExecutor::new(graph).throughput(reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two actors in a single-token loop: period is the sum of execution
    /// times.
    #[test]
    fn two_actor_ring() {
        let mut g = SdfGraph::new("ring");
        let a = g.add_actor("a", 2);
        let b = g.add_actor("b", 3);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 1);
        let r = self_timed_throughput(&g, a).unwrap();
        assert_eq!(r.actor_throughput, Rational::new(1, 5));
        assert_eq!(r.iteration_throughput, Rational::new(1, 5));
        let r = self_timed_throughput(&g, b).unwrap();
        assert_eq!(r.actor_throughput, Rational::new(1, 5));
    }

    /// A shared, repeatedly-cleared interner produces bit-identical
    /// results to a cold one, across graphs of different shapes.
    #[test]
    fn shared_interner_matches_cold_runs() {
        let mut g1 = SdfGraph::new("ring");
        let a = g1.add_actor("a", 2);
        let b = g1.add_actor("b", 3);
        g1.add_channel("ab", a, 1, b, 1, 0);
        g1.add_channel("ba", b, 1, a, 1, 1);
        let mut g2 = SdfGraph::new("auto");
        let c = g2.add_actor("c", 4);
        g2.add_channel("cc", c, 1, c, 1, 2);
        let mut seen = crate::analysis::interner::StateInterner::new();
        for _ in 0..3 {
            let warm = SelfTimedExecutor::new(&g1)
                .throughput_with_interner(a, &mut seen)
                .unwrap();
            assert_eq!(warm, SelfTimedExecutor::new(&g1).throughput(a).unwrap());
            let warm = SelfTimedExecutor::new(&g2)
                .throughput_with_interner(c, &mut seen)
                .unwrap();
            assert_eq!(warm, SelfTimedExecutor::new(&g2).throughput(c).unwrap());
        }
    }

    /// With two tokens in the ring, both actors pipeline; the bottleneck is
    /// the slower actor.
    #[test]
    fn pipelined_ring() {
        let mut g = SdfGraph::new("ring2");
        let a = g.add_actor("a", 2);
        let b = g.add_actor("b", 3);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 2);
        g.add_self_edge(a, 1);
        g.add_self_edge(b, 1);
        let r = self_timed_throughput(&g, b).unwrap();
        assert_eq!(r.actor_throughput, Rational::new(1, 3));
    }

    /// Auto-concurrency: without self-edges, an actor in a
    /// sufficiently-buffered loop overlaps its own firings.
    #[test]
    fn auto_concurrency_doubles_rate() {
        let mut g = SdfGraph::new("auto");
        let a = g.add_actor("a", 4);
        // Ring with two tokens and no self-edge: two concurrent firings.
        g.add_channel("aa", a, 1, a, 1, 2);
        let r = self_timed_throughput(&g, a).unwrap();
        assert_eq!(r.actor_throughput, Rational::new(1, 2));
    }

    /// Multirate loop: a fires 3× per iteration, b 2×.
    #[test]
    fn multirate_loop() {
        let mut g = SdfGraph::new("mr");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_channel("ab", a, 2, b, 3, 0);
        g.add_channel("ba", b, 3, a, 2, 6);
        g.add_self_edge(a, 1);
        g.add_self_edge(b, 1);
        let r = self_timed_throughput(&g, b).unwrap();
        // γ = (3, 2); per iteration a needs 3 time units (serialized),
        // b needs 2; they pipeline, bottleneck a ⇒ iteration every 3.
        assert_eq!(r.iteration_throughput, Rational::new(1, 3));
        assert_eq!(r.actor_throughput, Rational::new(2, 3));
    }

    #[test]
    fn deadlocked_graph_reports_deadlock() {
        let mut g = SdfGraph::new("dead");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 0);
        assert!(matches!(
            self_timed_throughput(&g, a),
            Err(SdfError::Deadlock { .. })
        ));
    }

    #[test]
    fn unbounded_graph_exhausts_budget() {
        // A source not on any cycle floods the channel; no recurrence.
        let mut g = SdfGraph::new("unbounded");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 2);
        g.add_self_edge(a, 1);
        g.add_self_edge(b, 1);
        g.add_channel("ab", a, 1, b, 1, 0);
        let r = SelfTimedExecutor::new(&g)
            .with_state_budget(500)
            .throughput(b);
        assert!(matches!(r, Err(SdfError::BudgetExceeded { .. })));
    }

    #[test]
    fn zero_time_actor_fires_instantaneously() {
        let mut g = SdfGraph::new("zero");
        let a = g.add_actor("a", 3);
        let z = g.add_actor("z", 0);
        let b = g.add_actor("b", 2);
        g.add_channel("az", a, 1, z, 1, 0);
        g.add_channel("zb", z, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 1);
        let r = self_timed_throughput(&g, b).unwrap();
        // z adds no latency: loop takes 3 + 0 + 2 = 5.
        assert_eq!(r.actor_throughput, Rational::new(1, 5));
    }

    #[test]
    fn step_reports_started_and_completed() {
        let mut g = SdfGraph::new("trace");
        let a = g.add_actor("a", 2);
        g.add_self_edge(a, 1);
        let mut ex = SelfTimedExecutor::new(&g);
        let s1 = ex.step().unwrap();
        assert_eq!(s1.started, vec![a]);
        assert!(s1.completed.is_empty());
        assert_eq!(s1.elapsed, 2);
        assert_eq!(s1.at, 0);
        let s2 = ex.step().unwrap();
        assert_eq!(s2.completed, vec![a]);
        assert_eq!(s2.started, vec![a]);
        assert_eq!(s2.at, 2);
        assert_eq!(ex.completions(a), 1);
    }

    #[test]
    fn transient_then_periodic() {
        // Extra initial tokens drain during a transient phase.
        let mut g = SdfGraph::new("trans");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 4);
        g.add_self_edge(a, 1);
        g.add_self_edge(b, 1);
        g.add_channel("ab", a, 1, b, 1, 3);
        g.add_channel("ba", b, 1, a, 1, 0);
        let r = self_timed_throughput(&g, b).unwrap();
        // In steady state the b self-edge dominates: one b firing per 4.
        assert_eq!(r.actor_throughput, Rational::new(1, 4));
    }

    /// The interner encoding relies on lanes staying sorted ascending:
    /// every mutation path (`start_all_enabled`, `complete_finished`,
    /// `advance_clock`) must preserve the invariant, or equal multisets
    /// would encode — and hash — differently.
    #[test]
    fn active_lanes_stay_sorted_across_execution() {
        // Multirate, multi-actor, with auto-concurrency: lanes hold
        // several in-flight firings with distinct remaining times.
        let mut g = SdfGraph::new("sorted");
        let a = g.add_actor("a", 5);
        let b = g.add_actor("b", 2);
        let c = g.add_actor("c", 7);
        g.add_channel("ab", a, 2, b, 3, 3);
        g.add_channel("bc", b, 3, c, 2, 0);
        g.add_channel("ca", c, 2, a, 2, 4);
        let mut ex = SelfTimedExecutor::new(&g);
        let mut scratch_a = Vec::new();
        let mut scratch_b = Vec::new();
        for step in 0..200 {
            ex.complete_finished();
            for lane in &ex.state().active {
                assert!(
                    lane.windows(2).all(|w| w[0] <= w[1]),
                    "step {step}: lane unsorted after complete: {lane:?}"
                );
            }
            ex.start_all_enabled();
            for lane in &ex.state().active {
                assert!(
                    lane.windows(2).all(|w| w[0] <= w[1]),
                    "step {step}: lane unsorted after start: {lane:?}"
                );
            }
            // Sorted lanes make encoding canonical: re-encoding the same
            // state (and a clone of it) must agree word-for-word.
            ex.state().encode_into(&mut scratch_a);
            ex.state().clone().encode_into(&mut scratch_b);
            assert_eq!(scratch_a, scratch_b, "step {step}");
            if ex.advance_clock().is_none() {
                break;
            }
        }
        assert!(ex.time() > 0, "execution must have progressed");
    }

    #[test]
    fn state_initial_matches_graph() {
        let mut g = SdfGraph::new("init");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_channel("ab", a, 1, b, 1, 7);
        let st = ExecState::initial(&g);
        assert_eq!(st.tokens, vec![7]);
        assert_eq!(st.active_firings(), 0);
    }
}

#[cfg(test)]
mod auto_concurrency_tests {
    use super::*;

    /// A limit of 1 is equivalent to adding single-token self-edges.
    #[test]
    fn limit_one_equals_self_edges() {
        let mut bare = SdfGraph::new("bare");
        let a = bare.add_actor("a", 2);
        let b = bare.add_actor("b", 3);
        bare.add_channel("ab", a, 1, b, 1, 0);
        bare.add_channel("ba", b, 1, a, 1, 3);

        let limited = SelfTimedExecutor::new(&bare)
            .with_max_auto_concurrency(1)
            .throughput(b)
            .unwrap();

        let mut guarded = bare.clone();
        guarded.add_self_edge(a, 1);
        guarded.add_self_edge(b, 1);
        let explicit = SelfTimedExecutor::new(&guarded).throughput(b).unwrap();
        assert_eq!(limited.actor_throughput, explicit.actor_throughput);
        // And strictly slower than the unbounded run.
        let free = SelfTimedExecutor::new(&bare).throughput(b).unwrap();
        assert!(free.actor_throughput > limited.actor_throughput);
    }

    /// Raising the limit is monotone in throughput.
    #[test]
    fn throughput_monotone_in_limit() {
        let mut g = SdfGraph::new("pipe");
        let a = g.add_actor("a", 4);
        g.add_channel("aa", a, 1, a, 1, 4);
        let mut prev = Rational::ZERO;
        for limit in 1..=4 {
            let thr = SelfTimedExecutor::new(&g)
                .with_max_auto_concurrency(limit)
                .throughput(a)
                .unwrap()
                .actor_throughput;
            assert!(thr >= prev, "limit {limit}: {thr} < {prev}");
            assert_eq!(thr, Rational::new(limit.min(4) as i128, 4));
            prev = thr;
        }
    }

    /// A limit of zero blocks everything: immediate deadlock.
    #[test]
    fn limit_zero_deadlocks() {
        let mut g = SdfGraph::new("z");
        let a = g.add_actor("a", 1);
        g.add_self_edge(a, 1);
        assert!(matches!(
            SelfTimedExecutor::new(&g)
                .with_max_auto_concurrency(0)
                .throughput(a),
            Err(SdfError::Deadlock { .. })
        ));
    }
}

#[cfg(test)]
mod statespace_tests {
    use super::*;

    #[test]
    fn explored_lasso_matches_throughput() {
        let mut g = SdfGraph::new("ring");
        let a = g.add_actor("a", 2);
        let b = g.add_actor("b", 3);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 1);
        let ss = SelfTimedExecutor::new(&g).explore_state_space().unwrap();
        let thr = self_timed_throughput(&g, b).unwrap();
        assert_eq!(ss.period(), thr.period);
        assert_eq!(ss.transient(), thr.transient_time);
        // Lasso shape: every state except the recurrence target has one
        // incoming edge; transitions = states.
        assert_eq!(ss.transitions.len(), ss.state_count);
        assert!(ss.recurrent_target < ss.state_count);
        let dot = ss.to_dot("ring");
        assert!(dot.contains("s0 -> s1"));
    }

    #[test]
    fn deadlocked_exploration_errors() {
        let mut g = SdfGraph::new("dead");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 0);
        assert!(matches!(
            SelfTimedExecutor::new(&g).explore_state_space(),
            Err(SdfError::Deadlock { .. })
        ));
    }
}
