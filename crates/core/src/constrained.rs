//! Constrained state-space execution (Section 8.2).
//!
//! The scheduling function — static actor orders per tile and TDMA slice
//! allocations — is *not* modeled into the binding-aware SDFG (that would
//! require an HSDF conversion, see \[2\]). Instead it constrains the
//! self-timed execution while the state space is explored:
//!
//! * a tile-bound actor may only start firing when it is the actor at the
//!   current position of its tile's static-order schedule (the position
//!   advances when the firing completes), and a tile runs one firing at a
//!   time;
//! * the remaining execution time of a tile-bound firing decreases only
//!   while the tile's TDMA wheel is inside the application's slice;
//! * connection and sync actors execute unconstrained.
//!
//! The state is extended with the schedule positions and the wheel phase,
//! so recurrence detection — and therefore the computed throughput —
//! remains exact.
//!
//! # Executor layout
//!
//! [`ConstrainedExecutor::new`] flattens what a state step reads into
//! tables once: the execution time and local tile of every actor, CSR
//! lists of `(channel, rate)` inputs and outputs, the consumer of every
//! channel and the static orders. The execution state *is* the word
//! vector the recurrence check interns:
//!
//! ```text
//! tokens per channel | slot per actor | position per local tile | phase | tail
//! ```
//!
//! * a slot is 0 while its actor is idle, otherwise the remaining wall
//!   time of its firing plus one;
//! * a sync actor has no self-edge and can overlap its own firings: its
//!   slot holds their count, and their remaining wall times, ascending,
//!   follow the fixed part in the tail, ordered by actor;
//! * the phase is the wall clock modulo the hyper-period of the wheels.
//!
//! A tile-bound firing's completion instant is set once, when it starts,
//! from its tile's wheel phase. Slices are constant within an
//! exploration, so the instant is exact, and an advance by δ only
//! subtracts δ from every active firing. At a fixed phase the wall time
//! ([`TdmaSlice::wall_time_for`]) is strictly increasing in the remaining
//! work, so keying states by remaining wall time tells apart exactly the
//! states that keying by remaining work would: recurrence stays exact.
//!
//! Starts are event driven: only the consumers of channels that gained
//! tokens and the actor a tile's schedule moved on to can have become
//! startable. These candidates are swept in ascending actor index, and a
//! candidate marked below the sweep position waits for the next sweep:
//! exactly the order in which repeated scans over all actors start them.
//!
//! # Order rules
//!
//! How a tile picks its next firing is the one part that varies:
//!
//! * **static** (Sec 8.2, [`new`](ConstrainedExecutor::new)): the actor
//!   at the tile's schedule position, which the position word records;
//! * **FIFO** (Sec 9.2, the [list scheduler](crate::list_sched)): the
//!   head of the tile's ready list, recorded into the tile's firing
//!   sequence. The position words stay 0; the recurrence key appends
//!   each ready list's contents in order.
//!
//! A FIFO pass is the list scheduler's scan, event driven: one ascending
//! sweep of the unbound candidates; then an ascending refresh that
//! queues the firings the tokens now allow of every tile-bound
//! candidate; then each idle tile, ascending, starts its ready-list head,
//! a zero-time firing completing at once and refreshing before the next
//! start. Passes repeat while anything starts.
//!
//! # Recurrence on iteration ends
//!
//! [`throughput`](ConstrainedExecutor::throughput) steps through every
//! state but stores only the initial one and those reached by a step in
//! which a *designated* actor completes an iteration of its weakly
//! connected component (every γ(d)-th completion). Each component has one
//! designated actor; the reference is its own component's. The execution
//! is deterministic and whether a step stores is a function of the firing
//! counts, so once the run is periodic with period p the stored steps
//! recur with p. Every period holds one: it fires some component a
//! positive multiple of its γ. So the first two equal stored states are
//! exactly p steps apart: the period, the reference's firings in it and
//! the throughput are those of storing every state. Only the detection
//! moves, by at most one period (see [`ThroughputResult`]'s
//! `states_explored` and `transient_time`). A single designated actor
//! would not do: a component whose tile order stalls it never ends an
//! iteration, while another component keeps the execution periodic.
//! [`explore_state_space`] and [`trace`] keep every state.
//!
//! [`explore_state_space`]: ConstrainedExecutor::explore_state_space
//! [`trace`]: ConstrainedExecutor::trace

use std::collections::VecDeque;
use std::fmt;

use sdfrs_platform::TileId;
use sdfrs_sdf::analysis::interner::StateInterner;
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::analysis::statespace::{StateSpaceGraph, StateTransition};
use sdfrs_sdf::{ActorId, Rational, RepetitionVector, SdfError};

use crate::binding_aware::BindingAwareGraph;
use crate::schedule::StaticOrderSchedule;
use crate::tdma::TdmaSlice;

/// Default bound on the number of explored states.
pub const DEFAULT_STATE_BUDGET: usize = 4_000_000;

/// The tile of an actor bound to none (connection and sync actors), or a
/// schedule entry naming no actor of the graph.
const NONE: u32 = u32::MAX;

/// The static-order part of the scheduling function 𝒮 (Definition 7): one
/// schedule per tile that hosts actors.
///
/// # Examples
///
/// ```
/// use sdfrs_core::{StaticOrderSchedule, TileSchedules};
/// use sdfrs_platform::TileId;
/// use sdfrs_sdf::ActorId;
/// let mut s = TileSchedules::new(2);
/// s.set(TileId::from_index(0),
///       StaticOrderSchedule::new(vec![], vec![ActorId::from_index(0)]));
/// assert!(s.get(TileId::from_index(0)).is_some());
/// assert!(s.get(TileId::from_index(1)).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSchedules {
    /// Set schedules, sorted by tile; tiles without one are absent, so
    /// the table grows with the application, not with the platform.
    schedules: Vec<(TileId, StaticOrderSchedule)>,
}

impl TileSchedules {
    /// No schedules yet, with room for `tile_count` of them.
    pub fn new(tile_count: usize) -> Self {
        TileSchedules {
            schedules: Vec::with_capacity(tile_count),
        }
    }

    /// Sets (or replaces) the schedule of one tile.
    pub fn set(&mut self, tile: TileId, schedule: StaticOrderSchedule) {
        match self.schedules.binary_search_by_key(&tile, |&(t, _)| t) {
            Ok(at) => self.schedules[at].1 = schedule,
            Err(at) => self.schedules.insert(at, (tile, schedule)),
        }
    }

    /// The schedule of one tile, if set.
    pub fn get(&self, tile: TileId) -> Option<&StaticOrderSchedule> {
        self.schedules
            .binary_search_by_key(&tile, |&(t, _)| t)
            .ok()
            .map(|at| &self.schedules[at].1)
    }

    /// All tiles with a schedule, ascending.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        self.schedules.iter().map(|&(t, _)| t)
    }

    /// Returns a copy with every schedule minimized (Sec 9.2).
    pub fn minimized(&self) -> TileSchedules {
        TileSchedules {
            schedules: self
                .schedules
                .iter()
                .map(|(t, s)| (*t, s.minimized()))
                .collect(),
        }
    }
}

/// Buffers one throughput exploration leaves to the next: the interner's
/// arena words and offsets, and the `(time, firings)` payload of every
/// stored state. Each exploration truncates them and interns behind a
/// fresh default-size slot table (see [`StateInterner::reusing`]).
#[derive(Default)]
pub(crate) struct ProbeScratch {
    arena: Vec<u64>,
    offsets: Vec<usize>,
    payloads: Vec<(u64, u64)>,
}

impl fmt::Debug for ProbeScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeScratch")
            .field("arena_capacity", &self.arena.capacity())
            .finish_non_exhaustive()
    }
}

/// A set of actor indices, taken out in ascending order.
#[derive(Debug, Clone)]
struct ActorSet {
    words: Vec<u64>,
}

impl ActorSet {
    /// The empty set over `n` actors, or all of them when `full`.
    fn new(n: usize, full: bool) -> Self {
        let mut set = ActorSet {
            words: vec![0; n.div_ceil(64)],
        };
        if full {
            (0..n).for_each(|a| set.insert(a));
        }
        set
    }

    fn insert(&mut self, a: usize) {
        self.words[a / 64] |= 1 << (a % 64);
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes and returns the smallest member `≥ from` whose bit is set
    /// in `within(word index)`.
    fn pop_from(&mut self, from: usize, within: impl Fn(usize) -> u64) -> Option<usize> {
        let mut i = from / 64;
        let mut word = self.words.get(i)? & within(i) & (u64::MAX << (from % 64));
        while word == 0 {
            i += 1;
            word = self.words.get(i)? & within(i);
        }
        let bit = word.trailing_zeros() as usize;
        self.words[i] &= !(1 << bit);
        Some(i * 64 + bit)
    }
}

/// A start or completion within one round, logged for the explorers that
/// report firings ([`explore_state_space`], [`trace`]).
///
/// [`explore_state_space`]: ConstrainedExecutor::explore_state_space
/// [`trace`]: ConstrainedExecutor::trace
#[derive(Debug, Clone, Copy)]
enum Fired {
    Start(u32),
    Done(u32),
}

/// How a tile picks its next firing (see the [module docs](self)).
#[derive(Debug)]
enum OrderRule {
    /// Static orders per local tile: `order[order_at[l]..order_at[l + 1]]`
    /// is tile `l`'s prefix followed by its period, whose first
    /// `prefix_len[l]` entries are the prefix; `scheduled[l]` is the actor
    /// at tile `l`'s current position.
    Static {
        order: Vec<u32>,
        order_at: Vec<u32>,
        prefix_len: Vec<u32>,
        scheduled: Vec<u32>,
    },
    /// FIFO ready lists per local tile, oldest first, and the firings
    /// each local tile started, in order: a tile runs the last one until
    /// it completes.
    Fifo {
        ready: Vec<VecDeque<u32>>,
        sequences: Vec<Vec<ActorId>>,
    },
}

/// Executes a binding-aware SDFG under a scheduling function and computes
/// the guaranteed throughput (Sec 8.2). See the [module docs](self) for
/// the state layout.
///
/// # Examples
///
/// See [`constrained_throughput`] and the `fig5` oracles in the
/// integration tests.
#[derive(Debug)]
pub struct ConstrainedExecutor<'a> {
    ba: &'a BindingAwareGraph,
    /// Execution time per actor.
    exec: Vec<u64>,
    /// Local tile per actor, [`NONE`] for connection and sync actors.
    tile_of: Vec<u32>,
    /// `inputs[in_at[a]..in_at[a + 1]]`: actor `a`'s input channels and
    /// consumption rates.
    in_at: Vec<u32>,
    inputs: Vec<(u32, u64)>,
    /// `outputs[out_at[a]..out_at[a + 1]]`: actor `a`'s output channels
    /// and production rates.
    out_at: Vec<u32>,
    outputs: Vec<(u32, u64)>,
    /// The actor consuming from each channel.
    consumer: Vec<u32>,
    /// Actors that can overlap their own firings, ascending: the tail
    /// holds their remaining times in this order.
    overlapping: Vec<u32>,
    /// Membership in `overlapping`, per actor.
    overlaps: Vec<bool>,
    rule: OrderRule,
    /// TDMA configuration per local tile.
    tdma: Vec<TdmaSlice>,
    hyperperiod: u64,
    /// The interned state (see the module docs); `slot0`, `pos0` and
    /// `phase_at` index its regions.
    state: Vec<u64>,
    slot0: usize,
    pos0: usize,
    phase_at: usize,
    /// Wheel phase per local tile.
    wheel_phase: Vec<u64>,
    /// Actors with a one-at-a-time firing that has time left.
    active: Vec<u32>,
    /// Actors that may have become startable.
    candidates: ActorSet,
    /// The candidates a sweep starts: every actor under static orders,
    /// only the unbound ones under ready lists (the refresh queues the
    /// tile-bound ones).
    sweepable: ActorSet,
    /// Actors with a firing that ended at the last advance.
    finishing: ActorSet,
    time: u64,
    /// The actor whose completions `reference_firings` counts.
    reference: u32,
    reference_firings: u64,
    /// `(completions left to its iteration end, γ)` per designated actor,
    /// `(0, 0)` for every other one (see the module docs).
    countdown: Vec<(u64, u64)>,
    /// Whether a designated actor ended an iteration since the last
    /// stored state.
    iteration_ended: bool,
    /// This round's starts and completions, when an explorer reports them.
    log: Option<Vec<Fired>>,
    state_budget: usize,
}

/// Outcome of one state-to-state transition of the constrained execution
/// (see [`ConstrainedExecutor::transition`]). `rounds` is the number of
/// complete/start/advance passes the transition consumed — each pass
/// counts against the state budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// The clock advanced: the executor sits in the successor state.
    Advanced { rounds: u32 },
    /// No firing is active and nothing can start: the execution stalls.
    Deadlock { rounds: u32 },
}

impl Transition {
    pub(crate) fn rounds(self) -> usize {
        let (Transition::Advanced { rounds } | Transition::Deadlock { rounds }) = self;
        rounds as usize
    }
}

impl<'a> ConstrainedExecutor<'a> {
    /// Creates an executor at the initial state.
    ///
    /// # Panics
    ///
    /// Panics if some tile hosts actors but has no schedule.
    pub fn new(ba: &'a BindingAwareGraph, schedules: &TileSchedules) -> Self {
        let n = ba.graph().actor_count();
        let mut order = Vec::new();
        let mut order_at = vec![0];
        let mut prefix_len = Vec::new();
        for &tile in ba.tiles() {
            let s = schedules.get(tile).unwrap_or_else(|| {
                panic!("tile {tile} hosts actors but has no static-order schedule")
            });
            order.extend(s.prefix().iter().chain(s.period()).map(|a| {
                if a.index() < n {
                    a.index() as u32
                } else {
                    NONE
                }
            }));
            order_at.push(order.len() as u32);
            prefix_len.push(s.prefix().len() as u32);
        }
        let scheduled = order_at[..prefix_len.len()]
            .iter()
            .map(|&at| order[at as usize])
            .collect();
        Self::with_rule(
            ba,
            OrderRule::Static {
                order,
                order_at,
                prefix_len,
                scheduled,
            },
        )
    }

    /// Creates an executor at the initial state whose tiles start the
    /// heads of FIFO ready lists and record what they start (Sec 9.2).
    pub(crate) fn with_ready_lists(ba: &'a BindingAwareGraph) -> Self {
        let tiles = ba.tiles().len();
        Self::with_rule(
            ba,
            OrderRule::Fifo {
                ready: vec![VecDeque::new(); tiles],
                sequences: vec![Vec::new(); tiles],
            },
        )
    }

    fn with_rule(ba: &'a BindingAwareGraph, rule: OrderRule) -> Self {
        let g = ba.graph();
        let n = g.actor_count();
        let tile_of: Vec<u32> = g
            .actor_ids()
            .map(|a| ba.local_tile_of(a).map_or(NONE, |l| l as u32))
            .collect();
        let (mut in_at, mut inputs) = (vec![0], Vec::new());
        let (mut out_at, mut outputs) = (vec![0], Vec::new());
        for a in g.actor_ids() {
            inputs.extend(
                g.incoming(a)
                    .iter()
                    .map(|&ch| (ch.index() as u32, g.channel(ch).consumption_rate())),
            );
            in_at.push(inputs.len() as u32);
            outputs.extend(
                g.outgoing(a)
                    .iter()
                    .map(|&ch| (ch.index() as u32, g.channel(ch).production_rate())),
            );
            out_at.push(outputs.len() as u32);
        }
        // A tile runs one firing at a time, and so does an actor whose
        // self-edge holds tokens for one firing only (a connection
        // actor). Everything else — the sync actors — overlaps.
        let overlapping: Vec<u32> = g
            .actor_ids()
            .filter(|&a| {
                tile_of[a.index()] == NONE
                    && !g.incoming(a).iter().any(|&ch| {
                        let c = g.channel(ch);
                        c.src() == a && c.initial_tokens() < 2 * c.consumption_rate()
                    })
            })
            .map(|a| a.index() as u32)
            .collect();
        let mut overlaps = vec![false; n];
        for &a in &overlapping {
            overlaps[a as usize] = true;
        }
        let mut sweepable = ActorSet::new(n, false);
        let fifo = matches!(rule, OrderRule::Fifo { .. });
        (0..n)
            .filter(|&a| !fifo || tile_of[a] == NONE)
            .for_each(|a| sweepable.insert(a));
        let (tdma, hyperperiod) = ba.local_tdmas();
        let mut state: Vec<u64> = g
            .channel_ids()
            .map(|c| g.channel(c).initial_tokens())
            .collect();
        let slot0 = state.len();
        let pos0 = slot0 + n;
        let phase_at = pos0 + tdma.len();
        state.resize(phase_at + 1, 0);
        ConstrainedExecutor {
            ba,
            exec: g.actor_ids().map(|a| g.actor(a).execution_time()).collect(),
            tile_of,
            in_at,
            inputs,
            out_at,
            outputs,
            consumer: g
                .channel_ids()
                .map(|c| g.channel(c).dst().index() as u32)
                .collect(),
            overlapping,
            overlaps,
            rule,
            wheel_phase: vec![0; tdma.len()],
            tdma,
            hyperperiod,
            state,
            slot0,
            pos0,
            phase_at,
            active: Vec::new(),
            candidates: ActorSet::new(n, true),
            sweepable,
            finishing: ActorSet::new(n, false),
            time: 0,
            reference: NONE,
            reference_firings: 0,
            countdown: vec![(0, 0); n],
            iteration_ended: false,
            log: None,
            state_budget: DEFAULT_STATE_BUDGET,
        }
    }

    /// Overrides the exploration budget.
    pub fn with_state_budget(mut self, budget: usize) -> Self {
        self.state_budget = budget;
        self
    }

    /// Where actor `a`'s remaining times start in the tail, and how many
    /// there are (`a` must overlap).
    fn run_of(&self, a: usize) -> (usize, usize) {
        let mut at = self.phase_at + 1;
        for &m in &self.overlapping {
            if m as usize == a {
                break;
            }
            at += self.state[self.slot0 + m as usize] as usize;
        }
        (at, self.state[self.slot0 + a] as usize)
    }

    fn can_start(&self, a: usize) -> bool {
        let l = self.tile_of[a];
        if l != NONE {
            // Only the firing at a tile's schedule position can be running
            // on it, so the tile is idle exactly when the scheduled actor
            // is. Ready lists start their tiles' firings themselves.
            let OrderRule::Static { scheduled, .. } = &self.rule else {
                return false;
            };
            if scheduled[l as usize] != a as u32 || self.state[self.slot0 + a] != 0 {
                return false;
            }
        }
        self.inputs[self.in_at[a] as usize..self.in_at[a + 1] as usize]
            .iter()
            .all(|&(ch, rate)| self.state[ch as usize] >= rate)
    }

    fn start(&mut self, a: usize) {
        for i in self.in_at[a] as usize..self.in_at[a + 1] as usize {
            let (ch, rate) = self.inputs[i];
            self.state[ch as usize] -= rate;
        }
        if let Some(log) = &mut self.log {
            log.push(Fired::Start(a as u32));
        }
        let exec = self.exec[a];
        if exec == 0 {
            self.complete(a);
        } else if self.overlaps[a] {
            let (run, count) = self.run_of(a);
            let at = run + self.state[run..run + count].partition_point(|&t| t <= exec);
            self.state.insert(at, exec);
            self.state[self.slot0 + a] += 1;
        } else {
            let wall = match self.tile_of[a] {
                NONE => exec,
                l => {
                    let l = l as usize;
                    self.tdma[l].wall_time_from_phase(self.wheel_phase[l], exec)
                }
            };
            self.state[self.slot0 + a] = wall + 1;
            self.active.push(a as u32);
        }
    }

    /// Ends one firing of `a`: produces its outputs, marks their consumers
    /// as candidates, and moves a tile-bound actor's static order on.
    fn complete(&mut self, a: usize) {
        for i in self.out_at[a] as usize..self.out_at[a + 1] as usize {
            let (ch, rate) = self.outputs[i];
            self.state[ch as usize] += rate;
            self.candidates.insert(self.consumer[ch as usize] as usize);
        }
        let l = self.tile_of[a];
        if let OrderRule::Static {
            order,
            order_at,
            prefix_len,
            scheduled,
        } = &mut self.rule
        {
            if l != NONE {
                let l = l as usize;
                let at = order_at[l] as usize;
                let mut pos = self.state[self.pos0 + l] as usize + 1;
                if at + pos == order_at[l + 1] as usize {
                    pos = prefix_len[l] as usize;
                }
                self.state[self.pos0 + l] = pos as u64;
                let next = order[at + pos];
                scheduled[l] = next;
                if next != NONE {
                    self.candidates.insert(next as usize);
                }
            }
        }
        if a as u32 == self.reference {
            self.reference_firings += 1;
        }
        let (left, gamma) = &mut self.countdown[a];
        if *left > 0 {
            *left -= 1;
            if *left == 0 {
                *left = *gamma;
                self.iteration_ended = true;
            }
        }
        if let Some(log) = &mut self.log {
            log.push(Fired::Done(a as u32));
        }
    }

    /// Designates one actor per weakly connected component, `reference`
    /// for its own and the lowest-index actor for every other, and starts
    /// each one's iteration countdown at γ.
    fn designate(&mut self, reference: ActorId, gamma: &RepetitionVector) {
        let (component, count) = self.ba.graph().weak_components();
        let mut designated = vec![NONE; count];
        designated[component[reference.index()]] = reference.index() as u32;
        for (a, &c) in component.iter().enumerate() {
            if designated[c] == NONE {
                designated[c] = a as u32;
            }
        }
        for d in designated {
            let gamma = gamma.as_slice()[d as usize];
            self.countdown[d as usize] = (gamma, gamma);
        }
    }

    /// Completes every firing that ended at the last advance, in
    /// ascending actor order; `true` if there was one.
    fn complete_finishing(&mut self) -> bool {
        let mut any = false;
        while let Some(a) = self.finishing.pop_from(0, |_| u64::MAX) {
            any = true;
            if self.overlaps[a] {
                let (run, count) = self.run_of(a);
                let done = self.state[run..run + count]
                    .iter()
                    .take_while(|&&t| t == 0)
                    .count();
                self.state.drain(run..run + done);
                self.state[self.slot0 + a] -= done as u64;
                for _ in 0..done {
                    self.complete(a);
                }
            } else {
                self.state[self.slot0 + a] = 0;
                self.complete(a);
            }
        }
        any
    }

    /// Starts every startable candidate, sweeping in ascending actor
    /// index until no candidate is left (under ready lists: passes until
    /// nothing starts); `true` if anything started.
    fn start_candidates(&mut self) -> bool {
        if let OrderRule::Fifo { .. } = self.rule {
            return self.start_ready();
        }
        let mut any = false;
        while !self.candidates.is_empty() {
            any |= self.sweep();
        }
        any
    }

    /// One ascending sweep over the sweepable candidates, starting each
    /// as often as it can; a candidate marked below the sweep position
    /// waits for the next sweep. `true` if anything started.
    fn sweep(&mut self) -> bool {
        let mut any = false;
        let mut from = 0;
        while let Some(a) = self.candidates.pop_from(from, |i| self.sweepable.words[i]) {
            from = a + 1;
            // Zero-time firings complete at once and may re-enable `a`.
            while self.can_start(a) {
                self.start(a);
                any = true;
            }
        }
        any
    }

    /// The FIFO passes (see the [module docs](self)); `true` if anything
    /// started.
    fn start_ready(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut progress = self.sweep();
            self.refresh_ready();
            for l in 0..self.tdma.len() {
                while let Some(a) = self.pop_ready(l) {
                    // A zero-time firing completes at once and frees the
                    // tile again.
                    self.start(a);
                    progress = true;
                    if self.exec[a] == 0 {
                        self.refresh_ready();
                    }
                }
            }
            if !progress {
                return any;
            }
            any = true;
        }
    }

    /// Queues, ascending, every firing the tokens now allow of each
    /// tile-bound candidate that is not queued yet.
    fn refresh_ready(&mut self) {
        let OrderRule::Fifo { ready, .. } = &mut self.rule else {
            unreachable!("ready lists run the FIFO rule")
        };
        while let Some(a) = self.candidates.pop_from(0, |i| !self.sweepable.words[i]) {
            let allowed = self.inputs[self.in_at[a] as usize..self.in_at[a + 1] as usize]
                .iter()
                .map(|&(ch, rate)| self.state[ch as usize] / rate)
                .min()
                .unwrap_or(1);
            let ready = &mut ready[self.tile_of[a] as usize];
            let queued = ready.iter().filter(|&&q| q == a as u32).count() as u64;
            ready.extend((queued..allowed).map(|_| a as u32));
        }
    }

    /// Takes the head of local tile `l`'s ready list if the tile is idle,
    /// recording it in the tile's sequence.
    fn pop_ready(&mut self, l: usize) -> Option<usize> {
        let OrderRule::Fifo { ready, sequences } = &mut self.rule else {
            unreachable!("ready lists run the FIFO rule")
        };
        let running = |a: &ActorId| self.state[self.slot0 + a.index()] != 0;
        if sequences[l].last().is_some_and(running) {
            return None;
        }
        let a = ready[l].pop_front()? as usize;
        sequences[l].push(ActorId::from_index(a));
        Some(a)
    }

    /// Advances the clock to the next firing end; `None` if no firing is
    /// active.
    fn advance(&mut self) -> Option<u64> {
        let tail = self.phase_at + 1;
        if self.active.is_empty() && self.state.len() == tail {
            return None;
        }
        let slot0 = self.slot0;
        let state = &mut self.state;
        let delta = self
            .active
            .iter()
            .map(|&a| state[slot0 + a as usize] - 1)
            .chain(state[tail..].iter().copied())
            .min()
            .expect("a firing is active");
        let finishing = &mut self.finishing;
        self.active.retain(|&a| {
            let slot = &mut state[slot0 + a as usize];
            *slot -= delta;
            // Slot 1 (no time left) stays in the state until the next
            // round completes the firing.
            let running = *slot > 1;
            if !running {
                finishing.insert(a as usize);
            }
            running
        });
        if state.len() > tail {
            state[tail..].iter_mut().for_each(|t| *t -= delta);
            let mut run = tail;
            for &m in &self.overlapping {
                let count = state[slot0 + m as usize] as usize;
                if count > 0 && state[run] == 0 {
                    finishing.insert(m as usize);
                }
                run += count;
            }
        }
        let phase = &mut state[self.phase_at];
        *phase += delta;
        if *phase >= self.hyperperiod {
            *phase %= self.hyperperiod;
        }
        for (p, tdma) in self.wheel_phase.iter_mut().zip(&self.tdma) {
            *p += delta;
            if *p >= tdma.wheel {
                *p %= tdma.wheel;
            }
        }
        self.time += delta;
        Some(delta)
    }

    /// One complete/start/advance pass: the wall time it advanced (`None`
    /// when no firing is active afterwards) and whether any firing
    /// completed or started.
    fn round(&mut self) -> (Option<u64>, bool) {
        if let Some(log) = &mut self.log {
            log.clear();
        }
        let completed = self.complete_finishing();
        let started = self.start_candidates();
        (self.advance(), completed || started)
    }

    /// Runs rounds until the clock advances to the successor state or the
    /// execution deadlocks — the per-state work of the
    /// [`throughput`](Self::throughput) exploration loop and of the list
    /// scheduler.
    pub(crate) fn transition(&mut self) -> Transition {
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            match self.round() {
                (Some(_), _) => return Transition::Advanced { rounds },
                (None, false) => return Transition::Deadlock { rounds },
                // Something still happened at this instant; loop once
                // more — if nothing follows, the next pass deadlocks.
                (None, true) => {}
            }
        }
    }

    /// The actor a deadlock of [`explore_state_space`], [`trace`] or the
    /// list scheduler names.
    ///
    /// [`explore_state_space`]: Self::explore_state_space
    /// [`trace`]: Self::trace
    pub(crate) fn first_actor(&self) -> ActorId {
        self.ba
            .graph()
            .actor_ids()
            .next()
            .expect("graphs have actors")
    }

    /// The firings each local tile started so far (empty under static
    /// orders).
    pub(crate) fn sequences(&self) -> &[Vec<ActorId>] {
        match &self.rule {
            OrderRule::Fifo { sequences, .. } => sequences,
            OrderRule::Static { .. } => &[],
        }
    }

    /// Writes the recurrence key of a ready-list execution into `out`
    /// (cleared first): the state, then each ready list's length and
    /// contents. Remaining wall time is strictly increasing in remaining
    /// work at a fixed phase, so the key tells apart exactly the states
    /// that keying by remaining work would.
    pub(crate) fn ready_state_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.state);
        if let OrderRule::Fifo { ready, .. } = &self.rule {
            for ready in ready {
                out.push(ready.len() as u64);
                out.extend(ready.iter().map(|&a| u64::from(a)));
            }
        }
    }

    /// Runs until a recurrent state and returns the guaranteed throughput
    /// of `reference` (a binding-aware actor id). Recurrence is detected
    /// on iteration ends (see the [module docs](self)); the state budget
    /// counts every stepped round.
    ///
    /// # Errors
    ///
    /// * [`SdfError::Deadlock`] if the constrained execution stalls (e.g. a
    ///   schedule incompatible with the token flow);
    /// * [`SdfError::BudgetExceeded`] if no recurrence is found in budget;
    /// * [`SdfError::Inconsistent`] if the graph has no repetition vector.
    pub fn throughput(self, reference: ActorId) -> Result<ThroughputResult, SdfError> {
        self.throughput_in(reference, &mut ProbeScratch::default())
    }

    /// [`throughput`](Self::throughput), interning into the buffers of
    /// `scratch` and handing them back grown.
    pub(crate) fn throughput_in(
        mut self,
        reference: ActorId,
        scratch: &mut ProbeScratch,
    ) -> Result<ThroughputResult, SdfError> {
        let mut seen = StateInterner::reusing(
            std::mem::take(&mut scratch.arena),
            std::mem::take(&mut scratch.offsets),
        );
        scratch.payloads.clear();
        let result = self.run_to_recurrence(reference, &mut seen, &mut scratch.payloads);
        (scratch.arena, scratch.offsets) = seen.into_buffers();
        result
    }

    /// The exploration behind [`throughput`](Self::throughput):
    /// `at_state[id]` is the `(time, reference firings)` of stored state
    /// `id`.
    fn run_to_recurrence(
        &mut self,
        reference: ActorId,
        seen: &mut StateInterner,
        at_state: &mut Vec<(u64, u64)>,
    ) -> Result<ThroughputResult, SdfError> {
        let gamma = self.ba.graph().repetition_vector()?;
        self.reference = reference.index() as u32;
        self.designate(reference, &gamma);
        seen.intern(&self.state);
        at_state.push((0, 0));
        let mut states = 0usize;
        loop {
            let step = self.transition();
            states += step.rounds();
            if states > self.state_budget {
                return Err(SdfError::BudgetExceeded {
                    analysis: "constrained state space",
                    budget: self.state_budget,
                });
            }
            if let Transition::Deadlock { .. } = step {
                return Err(SdfError::Deadlock { actor: reference });
            }
            if !std::mem::take(&mut self.iteration_ended) {
                continue;
            }
            let (id, fresh) = seen.intern(&self.state);
            if fresh {
                at_state.push((self.time, self.reference_firings));
                continue;
            }
            let (t0, f0) = at_state[id as usize];
            let period = self.time - t0;
            let firings = self.reference_firings - f0;
            if period == 0 {
                return Err(SdfError::BudgetExceeded {
                    analysis: "constrained state space (zero-time cycle)",
                    budget: self.state_budget,
                });
            }
            let actor_throughput = Rational::new(firings as i128, period as i128);
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

    /// Explores the constrained state space explicitly — the data behind
    /// Figure 5(c) of the paper.
    ///
    /// # Errors
    ///
    /// Same conditions as [`throughput`](ConstrainedExecutor::throughput).
    pub fn explore_state_space(mut self) -> Result<StateSpaceGraph, SdfError> {
        self.log = Some(Vec::new());
        // Interner ids are dense in first-seen order and double as the
        // recorded state indices.
        let mut seen = StateInterner::new();
        seen.intern(&self.state);
        let mut transitions = Vec::new();
        let mut current = 0usize;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.state_budget {
                return Err(SdfError::BudgetExceeded {
                    analysis: "constrained state-space exploration",
                    budget: self.state_budget,
                });
            }
            let elapsed = match self.round() {
                (Some(elapsed), _) => elapsed,
                (None, false) => {
                    return Err(SdfError::Deadlock {
                        actor: self.first_actor(),
                    })
                }
                (None, true) => continue,
            };
            let g = self.ba.graph();
            let fired = self
                .log
                .iter()
                .flatten()
                .filter_map(|&f| match f {
                    Fired::Start(a) => {
                        Some(g.actor(ActorId::from_index(a as usize)).name().to_string())
                    }
                    Fired::Done(_) => None,
                })
                .collect();
            let next_index = seen.len();
            let (id, fresh) = seen.intern(&self.state);
            let to = if fresh { next_index } else { id as usize };
            transitions.push(StateTransition {
                from: current,
                to,
                fired,
                elapsed,
            });
            if !fresh {
                return Ok(StateSpaceGraph {
                    state_count: next_index,
                    transitions,
                    recurrent_target: to,
                });
            }
            current = next_index;
        }
    }
}

/// One recorded firing in an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The binding-aware actor that fired.
    pub actor: ActorId,
    /// Wall-clock start of the firing.
    pub start: u64,
    /// Wall-clock completion of the firing.
    pub end: u64,
}

/// A finite prefix of a constrained execution, for inspection and
/// Gantt-style rendering (see [`gantt`](crate::gantt)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// Completed firings, ordered by completion time.
    pub events: Vec<TraceEvent>,
    /// The time up to which the execution was observed.
    pub horizon: u64,
}

impl ExecutionTrace {
    /// Events of one actor, in completion order.
    pub fn events_of(&self, actor: ActorId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.actor == actor)
            .collect()
    }
}

impl ConstrainedExecutor<'_> {
    /// Executes until (at least) `horizon` time units have passed and
    /// returns the completed firings.
    ///
    /// Start/completion pairing is exact: a tile runs one firing at a
    /// time, and concurrent firings of a connection/sync actor share one
    /// execution time, so FIFO matching is faithful.
    ///
    /// # Errors
    ///
    /// [`SdfError::Deadlock`] if the execution stalls before the horizon.
    pub fn trace(mut self, horizon: u64) -> Result<ExecutionTrace, SdfError> {
        self.log = Some(Vec::new());
        let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); self.exec.len()];
        let mut events = Vec::new();
        let mut stalled_rounds = 0u32;
        while self.time < horizon {
            let now = self.time;
            let (elapsed, eventful) = self.round();
            for &fired in self.log.iter().flatten() {
                match fired {
                    Fired::Start(a) => pending[a as usize].push_back(now),
                    Fired::Done(a) => {
                        let start = pending[a as usize]
                            .pop_front()
                            .expect("every completion had a start");
                        events.push(TraceEvent {
                            actor: ActorId::from_index(a as usize),
                            start,
                            end: now,
                        });
                    }
                }
            }
            match elapsed {
                Some(_) => stalled_rounds = 0,
                None => {
                    stalled_rounds += 1;
                    if !eventful || stalled_rounds > 2 {
                        return Err(SdfError::Deadlock {
                            actor: self.first_actor(),
                        });
                    }
                }
            }
        }
        events.sort_by_key(|e| (e.end, e.start, e.actor));
        Ok(ExecutionTrace {
            events,
            horizon: self.time,
        })
    }
}

/// Convenience wrapper: throughput of the binding-aware graph under the
/// given schedules, measured at the binding-aware image of an application
/// actor.
///
/// # Errors
///
/// See [`ConstrainedExecutor::throughput`].
pub fn constrained_throughput(
    ba: &BindingAwareGraph,
    schedules: &TileSchedules,
    reference: ActorId,
) -> Result<ThroughputResult, SdfError> {
    ConstrainedExecutor::new(ba, schedules).throughput(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_sdf::analysis::selftimed::SelfTimedExecutor;

    fn example_setup(slices: [u64; 2]) -> (BindingAwareGraph, TileSchedules) {
        let app = paper_example();
        let arch = example_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &slices).unwrap();
        let a1 = ba.graph().actor_by_name("a1").unwrap();
        let a2 = ba.graph().actor_by_name("a2").unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let mut schedules = TileSchedules::new(2);
        schedules.set(
            TileId::from_index(0),
            StaticOrderSchedule::new(vec![], vec![a1, a2]),
        );
        schedules.set(
            TileId::from_index(1),
            StaticOrderSchedule::new(vec![], vec![a3]),
        );
        (ba, schedules)
    }

    /// Fig 5(b): the *unconstrained* self-timed execution of the
    /// binding-aware SDFG (50% slices for the sync actors) lets a3 fire
    /// once every 29 time units.
    #[test]
    fn fig5b_period_is_29() {
        let (ba, _) = example_setup([5, 5]);
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let thr = SelfTimedExecutor::new(ba.graph()).throughput(a3).unwrap();
        assert_eq!(thr.actor_throughput, Rational::new(1, 29));
    }

    /// Fig 5(c): constraining the execution by the static orders
    /// (a1 a2)* / (a3)* and 50% TDMA wheels postpones firings so a3 fires
    /// once every 30 time units.
    #[test]
    fn fig5c_period_is_30() {
        let (ba, schedules) = example_setup([5, 5]);
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let thr = constrained_throughput(&ba, &schedules, a3).unwrap();
        assert_eq!(thr.actor_throughput, Rational::new(1, 30));
    }

    /// With the full wheels allocated the TDMA constraint disappears, but
    /// the static order still serializes the tiles.
    #[test]
    fn full_slices_upper_bound() {
        let (ba, schedules) = example_setup([10, 10]);
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let constrained = constrained_throughput(&ba, &schedules, a3).unwrap();
        let free = SelfTimedExecutor::new(ba.graph()).throughput(a3).unwrap();
        // The schedules are in line with the self-timed order, so the
        // results agree; and both beat the 50%-slice case.
        assert_eq!(constrained.actor_throughput, free.actor_throughput);
        assert!(constrained.actor_throughput > Rational::new(1, 30));
    }

    #[test]
    fn smaller_slices_never_increase_throughput() {
        let a3_of = |slices: [u64; 2]| {
            let (ba, schedules) = example_setup(slices);
            let a3 = ba.graph().actor_by_name("a3").unwrap();
            constrained_throughput(&ba, &schedules, a3)
                .unwrap()
                .actor_throughput
        };
        let mut prev = Rational::ZERO;
        for s in 1..=10 {
            let cur = a3_of([s, s]);
            assert!(cur >= prev, "throughput must grow with slice size");
            prev = cur;
        }
    }

    #[test]
    fn bad_schedule_deadlocks() {
        let (ba, _) = example_setup([5, 5]);
        let a1 = ba.graph().actor_by_name("a1").unwrap();
        let a2 = ba.graph().actor_by_name("a2").unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        // a2 before a1 with no token on d1: a2 can never fire first.
        let mut schedules = TileSchedules::new(2);
        schedules.set(
            TileId::from_index(0),
            StaticOrderSchedule::new(vec![], vec![a2, a1]),
        );
        schedules.set(
            TileId::from_index(1),
            StaticOrderSchedule::new(vec![], vec![a3]),
        );
        assert!(matches!(
            constrained_throughput(&ba, &schedules, a3),
            Err(SdfError::Deadlock { .. })
        ));
    }

    /// The hand-written order `(y x)*` stalls the reference x on t1 (y
    /// waits for a token only x produces), while z keeps firing on t2.
    /// The run is periodic with the wheel and x's throughput is 0. Storing
    /// only at x's iteration ends would never store a state and run out
    /// of budget; z's component stores at z's.
    #[test]
    fn stalled_reference_component_recurs_through_another_component() {
        use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
        use sdfrs_platform::ProcessorType;
        use sdfrs_sdf::SdfGraph;
        let (p1, p2) = (ProcessorType::new("p1"), ProcessorType::new("p2"));
        let mut g = SdfGraph::new("stalled");
        let x = g.add_actor("x", 0);
        let y = g.add_actor("y", 0);
        let z = g.add_actor("z", 0);
        let xy = g.add_channel("xy", x, 1, y, 1, 0);
        let yx = g.add_channel("yx", y, 1, x, 1, 1);
        let zz = g.add_channel("zz", z, 1, z, 1, 1);
        let app = ApplicationGraph::builder(g, Rational::new(1, 100))
            .actor(x, ActorRequirements::new().on(p1.clone(), 1, 1))
            .actor(y, ActorRequirements::new().on(p1, 1, 1))
            .actor(z, ActorRequirements::new().on(p2, 1, 1))
            .channel(xy, ChannelRequirements::new(1, 1, 0, 0, 0))
            .channel(yx, ChannelRequirements::new(1, 1, 0, 0, 0))
            .channel(zz, ChannelRequirements::new(1, 1, 0, 0, 0))
            .output_actor(x)
            .build()
            .unwrap();
        let arch = example_platform();
        let (t1, t2) = (TileId::from_index(0), TileId::from_index(1));
        let mut binding = Binding::new(3);
        binding.bind(x, t1);
        binding.bind(y, t1);
        binding.bind(z, t2);
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[10, 10]).unwrap();
        let ba_of = |a| ba.ba_actor(a);
        let mut schedules = TileSchedules::new(2);
        schedules.set(
            t1,
            StaticOrderSchedule::new(vec![], vec![ba_of(y), ba_of(x)]),
        );
        schedules.set(t2, StaticOrderSchedule::new(vec![], vec![ba_of(z)]));
        let thr = constrained_throughput(&ba, &schedules, ba_of(x)).unwrap();
        assert_eq!(thr.iteration_throughput, Rational::ZERO);
        assert_eq!(thr.period, 10);
        assert_eq!(thr.firings_in_period, 0);
    }

    #[test]
    fn budget_is_respected() {
        let (ba, schedules) = example_setup([5, 5]);
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let r = ConstrainedExecutor::new(&ba, &schedules)
            .with_state_budget(2)
            .throughput(a3);
        assert!(matches!(r, Err(SdfError::BudgetExceeded { .. })));
    }

    #[test]
    fn tile_schedules_accessors() {
        let mut s = TileSchedules::new(3);
        assert_eq!(s.tiles().count(), 0);
        s.set(
            TileId::from_index(1),
            StaticOrderSchedule::new(vec![], vec![ActorId::from_index(0)]),
        );
        assert_eq!(s.tiles().collect::<Vec<_>>(), vec![TileId::from_index(1)]);
        let m = s.minimized();
        assert!(m.get(TileId::from_index(1)).is_some());
    }
}
