//! The references of oracle 11: a scan executor, a scan list scheduler
//! and the exact slice search.
//!
//! [`ScanExecutor`] is a direct transcription of Sec 8.2 as a scan: every
//! round completes every firing with no work left, then scans all actors
//! in index order (repeating while anything starts) and starts each one
//! its tokens, its tile's static order and its idle tile allow, then
//! advances the clock to the earliest completion, recomputing each
//! tile-bound firing's wall time from its remaining in-slice *work*.
//! States are keyed by that remaining work in a std `HashMap`, so this
//! executor shares neither state layout, completion bookkeeping, start
//! order logic nor hash with the event-driven
//! [`ConstrainedExecutor`](sdfrs_core::ConstrainedExecutor) it checks.
//!
//! [`ScanListScheduler`] is the list scheduler of Sec 9.2 as it stood
//! before it became the executor's FIFO order rule: its own tokens,
//! remaining-work lanes, ready lists and clock, every actor rescanned on
//! each sweep. It differs from that code in one line: a used tile whose
//! sequence or period is empty ends the construction with a `Deadlock`
//! naming the tile's lowest-index actor, where it used to be skipped.
//!
//! [`reference_slice_search`] is the slice allocation of Sec 9.3 as it
//! stood before the search answered probes by monotonicity: the
//! full-wheel probe first, and every probe the processing bound does not
//! refute explored, sequentially.
//!
//! All three read the binding-aware graph through the public API only.
//!
//! Oracle 7 checks the region view of regional admission against two
//! more references. [`masked_state`] is the masked clone that view
//! replaced: the residual with every tile outside the allowed ones fully
//! claimed, so that a whole-platform flow on it can bind nowhere else.
//! [`reference_bind`] is the binding step of Sec 9.1 as it stood before
//! the ranking reused one picture of the binding across candidates: every
//! platform tile scanned for candidates, and every candidate costed by
//! `tile_loads` on the whole binding with the actor placed there.

use std::collections::{HashMap, VecDeque};

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::bind::BindConfig;
use sdfrs_core::cost::{binding_order, tile_cost, tile_loads};
use sdfrs_core::events::{BindPass, SliceScope};
use sdfrs_core::resources::binding_constraints_hold;
use sdfrs_core::slice::{ProcessingBound, SliceAllocation, SliceConfig};
use sdfrs_core::tdma::TdmaSlice;
use sdfrs_core::{
    Binding, BindingAwareGraph, MapError, StaticOrderSchedule, ThroughputCache, TileSchedules,
};
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId, TileUsage};
use sdfrs_sdf::analysis::interner::StateInterner;
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::rational::lcm;
use sdfrs_sdf::{ActorId, Rational, RepetitionVector, SdfError};

/// The scan executor over one binding-aware graph and schedule set.
pub(crate) struct ScanExecutor<'a> {
    ba: &'a BindingAwareGraph,
    /// Index into the used tiles per actor (`None` off-tile).
    tile_of: Vec<Option<usize>>,
    /// Static order per used tile.
    schedules: Vec<&'a StaticOrderSchedule>,
    /// TDMA configuration per used tile.
    tdma: Vec<TdmaSlice>,
    hyperperiod: u64,
    tokens: Vec<u64>,
    /// Remaining work of every active firing per actor, ascending.
    active: Vec<Vec<u64>>,
    /// `true` while a used tile runs a firing.
    busy: Vec<bool>,
    /// Schedule position per used tile.
    positions: Vec<usize>,
    time: u64,
    completions: Vec<u64>,
    state_budget: usize,
}

impl<'a> ScanExecutor<'a> {
    /// An executor at the initial state.
    ///
    /// # Panics
    ///
    /// Panics if some tile hosts actors but has no schedule.
    pub(crate) fn new(
        ba: &'a BindingAwareGraph,
        schedules: &'a TileSchedules,
        state_budget: usize,
    ) -> Self {
        let g = ba.graph();
        let tiles = ba.used_tiles();
        let tdma: Vec<TdmaSlice> = tiles.iter().map(|&t| ba.tdma(t)).collect();
        ScanExecutor {
            ba,
            tile_of: g
                .actor_ids()
                .map(|a| {
                    ba.tile_of(a)
                        .map(|t| tiles.binary_search(&t).expect("used"))
                })
                .collect(),
            schedules: tiles
                .iter()
                .map(|&t| schedules.get(t).expect("every used tile has a schedule"))
                .collect(),
            hyperperiod: tdma
                .iter()
                .fold(1, |h, s| lcm(h as u128, s.wheel as u128) as u64),
            busy: vec![false; tdma.len()],
            positions: vec![0; tdma.len()],
            tdma,
            tokens: g
                .channel_ids()
                .map(|c| g.channel(c).initial_tokens())
                .collect(),
            active: vec![Vec::new(); g.actor_count()],
            time: 0,
            completions: vec![0; g.actor_count()],
            state_budget,
        }
    }

    fn can_start(&self, actor: ActorId) -> bool {
        let g = self.ba.graph();
        let tokens = g
            .incoming(actor)
            .iter()
            .all(|&ch| self.tokens[ch.index()] >= g.channel(ch).consumption_rate());
        tokens
            && match self.tile_of[actor.index()] {
                None => true,
                Some(l) => !self.busy[l] && self.schedules[l].at(self.positions[l]) == actor,
            }
    }

    fn start(&mut self, actor: ActorId) {
        let g = self.ba.graph();
        for &ch in g.incoming(actor) {
            self.tokens[ch.index()] -= g.channel(ch).consumption_rate();
        }
        if let Some(l) = self.tile_of[actor.index()] {
            self.busy[l] = true;
        }
        let work = g.actor(actor).execution_time();
        let lane = &mut self.active[actor.index()];
        let at = lane.partition_point(|&t| t <= work);
        lane.insert(at, work);
    }

    /// Completes every firing with no work left; `true` if there was one.
    fn complete_finished(&mut self) -> bool {
        let g = self.ba.graph();
        let mut any = false;
        for idx in 0..self.active.len() {
            while self.active[idx].first() == Some(&0) {
                self.active[idx].remove(0);
                any = true;
                let actor = ActorId::from_index(idx);
                for &ch in g.outgoing(actor) {
                    self.tokens[ch.index()] += g.channel(ch).production_rate();
                }
                self.completions[idx] += 1;
                if let Some(l) = self.tile_of[idx] {
                    self.busy[l] = false;
                    self.positions[l] = self.schedules[l].canonical_position(self.positions[l] + 1);
                }
            }
        }
        any
    }

    /// Scans all actors until none can start; `true` if any started.
    fn start_all(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut progress = false;
            for actor in self.ba.graph().actor_ids() {
                while self.can_start(actor) {
                    self.start(actor);
                    progress = true;
                    if self.ba.graph().actor(actor).execution_time() == 0 {
                        self.complete_finished();
                    }
                }
            }
            if !progress {
                return any;
            }
            any = true;
        }
    }

    /// Advances to the earliest completion; `None` if nothing is active.
    fn advance(&mut self) -> Option<u64> {
        let wall_left = |idx: usize, work: u64| match self.tile_of[idx] {
            None => work,
            Some(l) => self.tdma[l].wall_time_for(self.time, work),
        };
        let delta = (0..self.active.len())
            .filter_map(|idx| self.active[idx].first().map(|&w| wall_left(idx, w)))
            .min()?;
        for idx in 0..self.active.len() {
            let progress = match self.tile_of[idx] {
                None => delta,
                Some(l) => self.tdma[l].slice_time_in(self.time, delta),
            };
            for w in &mut self.active[idx] {
                *w = w.saturating_sub(progress);
            }
        }
        self.time += delta;
        Some(delta)
    }

    fn key(&self) -> Vec<u64> {
        let mut key = self.tokens.clone();
        for lane in &self.active {
            key.push(lane.len() as u64);
            key.extend_from_slice(lane);
        }
        key.extend(self.positions.iter().map(|&p| p as u64));
        key.push(self.time % self.hyperperiod);
        key
    }

    /// Runs to the first recurrent state and returns the throughput of
    /// `reference` twice: detected on every state, and detected as the
    /// core does, on the initial state and the states reached by a step
    /// in which a designated actor ends an iteration of its weakly
    /// connected component (the reference in its own, the lowest-index
    /// actor in every other). Budget and errors follow
    /// [`ConstrainedExecutor::throughput`](sdfrs_core::ConstrainedExecutor::throughput);
    /// the run stops at the second detection, which cannot close first.
    pub(crate) fn throughput(mut self, reference: ActorId) -> ScanDetections {
        let g = self.ba.graph();
        let gamma = match g.repetition_vector() {
            Ok(gamma) => gamma,
            Err(e) => return ScanDetections::failed(e),
        };
        let (component, count) = g.weak_components();
        let mut designated = vec![None; count];
        designated[component[reference.index()]] = Some(reference.index());
        for (a, &c) in component.iter().enumerate() {
            designated[c].get_or_insert(a);
        }
        let designated: Vec<usize> = designated.into_iter().flatten().collect();
        let iteration_ends = |completions: &[u64]| -> u64 {
            designated
                .iter()
                .map(|&d| completions[d] / gamma.as_slice()[d])
                .sum()
        };
        let mut every: HashMap<Vec<u64>, (u64, u64)> = HashMap::new();
        let mut stored: HashMap<Vec<u64>, (u64, u64)> = HashMap::new();
        every.insert(self.key(), (0, 0));
        stored.insert(self.key(), (0, 0));
        let mut every_state = None;
        let mut ended = 0;
        let mut states = 0usize;
        loop {
            // One state: rounds until the clock moves, each counted.
            loop {
                states += 1;
                if states > self.state_budget {
                    return ScanDetections::failed(SdfError::BudgetExceeded {
                        analysis: "constrained state space",
                        budget: self.state_budget,
                    })
                    .after(every_state);
                }
                let completed = self.complete_finished();
                let started = self.start_all();
                if self.advance().is_some() {
                    break;
                }
                if !completed && !started {
                    return ScanDetections::failed(SdfError::Deadlock { actor: reference })
                        .after(every_state);
                }
            }
            let now = (self.time, self.completions[reference.index()]);
            let key = self.key();
            if every_state.is_none() {
                match every.get(&key) {
                    Some(&first) => {
                        every_state = Some(self.result(reference, first, now, states, &gamma));
                    }
                    None => {
                        every.insert(key.clone(), now);
                    }
                }
            }
            let now_ended = iteration_ends(&self.completions);
            if now_ended == ended {
                continue;
            }
            ended = now_ended;
            let Some(&first) = stored.get(&key) else {
                stored.insert(key, now);
                continue;
            };
            return ScanDetections {
                every_state: every_state.expect("every state is stored, so it closes first"),
                iteration_ends: self.result(reference, first, now, states, &gamma),
            };
        }
    }

    /// The result of a recurrence from `(t0, f0)` (time, reference
    /// completions) to `now`.
    fn result(
        &self,
        reference: ActorId,
        (t0, f0): (u64, u64),
        now: (u64, u64),
        states: usize,
        gamma: &RepetitionVector,
    ) -> Result<ThroughputResult, SdfError> {
        let period = now.0 - t0;
        if period == 0 {
            return Err(SdfError::BudgetExceeded {
                analysis: "constrained state space (zero-time cycle)",
                budget: self.state_budget,
            });
        }
        let firings = now.1 - f0;
        let actor_throughput = Rational::new(firings as i128, period as i128);
        Ok(ThroughputResult {
            actor_throughput,
            iteration_throughput: actor_throughput
                / Rational::from_integer(gamma[reference] as i128),
            reference,
            period,
            firings_in_period: firings,
            states_explored: states,
            transient_time: t0,
        })
    }
}

/// The two detections of one [`ScanExecutor`] run.
pub(crate) struct ScanDetections {
    /// Storing every state, as the textbook does.
    pub(crate) every_state: Result<ThroughputResult, SdfError>,
    /// Storing the initial and the iteration-end states, as the core does.
    pub(crate) iteration_ends: Result<ThroughputResult, SdfError>,
}

impl ScanDetections {
    fn failed(e: SdfError) -> Self {
        ScanDetections {
            every_state: Err(e.clone()),
            iteration_ends: Err(e),
        }
    }

    /// Keeps an every-state detection that closed before the failure.
    fn after(mut self, every_state: Option<Result<ThroughputResult, SdfError>>) -> Self {
        if let Some(r) = every_state {
            self.every_state = r;
        }
        self
    }
}

/// The scan list scheduler (see the [module docs](self)).
pub(crate) struct ScanListScheduler<'a> {
    ba: &'a BindingAwareGraph,
    /// Index into the used tiles per actor (`None` off-tile).
    tile_of: Vec<Option<usize>>,
    /// TDMA configuration per used tile.
    tdma: Vec<TdmaSlice>,
    hyperperiod: u64,
    tokens: Vec<u64>,
    active: Vec<Vec<u64>>,
    /// FIFO ready list per used tile (actor indices).
    ready: Vec<VecDeque<u32>>,
    /// Queued-but-not-started entries per actor (to detect new enablings).
    queued: Vec<u32>,
    /// One active tile-bound firing at most; `true` while the used tile
    /// is busy.
    busy: Vec<bool>,
    /// Recorded firing sequence per used tile.
    sequences: Vec<Vec<ActorId>>,
    time: u64,
    state_budget: usize,
}

impl<'a> ScanListScheduler<'a> {
    /// A list scheduler at the initial state.
    pub(crate) fn new(ba: &'a BindingAwareGraph, state_budget: usize) -> Self {
        let g = ba.graph();
        let tiles = ba.used_tiles();
        let tdma: Vec<TdmaSlice> = tiles.iter().map(|&t| ba.tdma(t)).collect();
        ScanListScheduler {
            ba,
            tile_of: g
                .actor_ids()
                .map(|a| {
                    ba.tile_of(a)
                        .map(|t| tiles.binary_search(&t).expect("used"))
                })
                .collect(),
            hyperperiod: tdma
                .iter()
                .fold(1, |h, s| lcm(h as u128, s.wheel as u128) as u64),
            tdma,
            tokens: g
                .channel_ids()
                .map(|c| g.channel(c).initial_tokens())
                .collect(),
            active: vec![Vec::new(); g.actor_count()],
            ready: vec![VecDeque::new(); tiles.len()],
            queued: vec![0; g.actor_count()],
            busy: vec![false; tiles.len()],
            sequences: vec![Vec::new(); tiles.len()],
            time: 0,
            state_budget,
        }
    }

    fn enabled_firings(&self, actor: ActorId) -> u64 {
        let g = self.ba.graph();
        let mut n = u64::MAX;
        for &ch in g.incoming(actor) {
            let q = g.channel(ch).consumption_rate();
            n = n.min(self.tokens[ch.index()] / q);
        }
        if g.incoming(actor).is_empty() {
            // Sources without inputs would fire unboundedly; binding-aware
            // graphs give every bound actor a self-edge so this only
            // happens for degenerate graphs. Treat as one firing at a time.
            n = 1;
        }
        n
    }

    /// Adds newly enabled tile-bound firings to their ready lists.
    fn refresh_ready_lists(&mut self) {
        for actor in self.ba.graph().actor_ids() {
            let Some(l) = self.tile_of[actor.index()] else {
                continue;
            };
            let target = self.enabled_firings(actor);
            while u64::from(self.queued[actor.index()]) < target {
                self.queued[actor.index()] += 1;
                self.ready[l].push_back(actor.index() as u32);
            }
        }
    }

    fn start_firing(&mut self, actor: ActorId) {
        let g = self.ba.graph();
        for &ch in g.incoming(actor) {
            self.tokens[ch.index()] -= g.channel(ch).consumption_rate();
        }
        let work = g.actor(actor).execution_time();
        let lane = &mut self.active[actor.index()];
        let pos = lane.partition_point(|&t| t <= work);
        lane.insert(pos, work);
    }

    /// Completes zero-remaining firings; returns how many completed.
    fn complete_finished(&mut self) -> usize {
        let g = self.ba.graph();
        let mut completed = 0;
        for idx in 0..self.active.len() {
            while self.active[idx].first() == Some(&0) {
                self.active[idx].remove(0);
                let actor = ActorId::from_index(idx);
                for &ch in g.outgoing(actor) {
                    self.tokens[ch.index()] += g.channel(ch).production_rate();
                }
                if let Some(l) = self.tile_of[idx] {
                    self.busy[l] = false;
                }
                completed += 1;
            }
        }
        completed
    }

    /// Starts unbound (connection/sync) actors self-timed and pops ready
    /// lists of idle tiles. Returns how many firings started.
    fn start_allowed(&mut self) -> usize {
        let g = self.ba.graph();
        let mut started = 0;
        loop {
            let mut progress = false;
            // Unbound actors fire as soon as enabled.
            for actor in g.actor_ids() {
                if self.tile_of[actor.index()].is_some() {
                    continue;
                }
                while self.enabled_firings(actor) > 0 {
                    self.start_firing(actor);
                    started += 1;
                    progress = true;
                    if g.actor(actor).execution_time() == 0 {
                        self.complete_finished();
                    } else if g.has_self_edge(actor) {
                        break;
                    }
                }
            }
            self.refresh_ready_lists();
            // Idle tiles pop their ready-list head.
            for tile_idx in 0..self.ready.len() {
                while !self.busy[tile_idx] {
                    let Some(&head) = self.ready[tile_idx].front() else {
                        break;
                    };
                    let actor = ActorId::from_index(head as usize);
                    self.ready[tile_idx].pop_front();
                    self.queued[head as usize] -= 1;
                    self.start_firing(actor);
                    self.sequences[tile_idx].push(actor);
                    started += 1;
                    progress = true;
                    if g.actor(actor).execution_time() == 0 {
                        self.complete_finished();
                        self.refresh_ready_lists();
                    } else {
                        self.busy[tile_idx] = true;
                    }
                }
            }
            if !progress {
                break;
            }
        }
        started
    }

    fn advance_clock(&mut self) -> Option<u64> {
        let mut delta: Option<u64> = None;
        for idx in 0..self.active.len() {
            if let Some(&work) = self.active[idx].first() {
                let wall = match self.tile_of[idx] {
                    None => work,
                    Some(l) => self.tdma[l].wall_time_for(self.time, work),
                };
                delta = Some(delta.map_or(wall, |d| d.min(wall)));
            }
        }
        let delta = delta?;
        for idx in 0..self.active.len() {
            if self.active[idx].is_empty() {
                continue;
            }
            let progress = match self.tile_of[idx] {
                None => delta,
                Some(l) => self.tdma[l].slice_time_in(self.time, delta),
            };
            for w in self.active[idx].iter_mut() {
                *w = w.saturating_sub(progress);
            }
        }
        self.time += delta;
        Some(delta)
    }

    /// Flat-encodes the recurrence-detection state into `out` (cleared
    /// first): tokens, each lane as length + sorted entries, each ready
    /// list as length + entries, wheel phase. Injective for a fixed graph,
    /// so interner equality is state equality.
    fn encode_state_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.tokens);
        for lane in &self.active {
            out.push(lane.len() as u64);
            out.extend_from_slice(lane);
        }
        for queue in &self.ready {
            out.push(queue.len() as u64);
            out.extend(queue.iter().map(|&a| u64::from(a)));
        }
        out.push(self.time % self.hyperperiod);
    }

    /// Appends the recorded sequence length of every used tile to `out`.
    fn push_sequence_lens(&self, out: &mut Vec<u32>) {
        out.extend(self.sequences.iter().map(|s| s.len() as u32));
    }

    /// Runs the construction until a recurrent state and returns the raw
    /// (unminimized) schedules and the number of states explored, with
    /// the budget and error semantics of
    /// [`ListScheduler::construct_raw`](sdfrs_core::list_sched::ListScheduler::construct_raw).
    pub(crate) fn construct_raw(mut self) -> Result<(TileSchedules, usize), SdfError> {
        // States are interned with dense ids; state `id` was first seen
        // when tile `l`'s sequence had `seq_lens[id * tiles + l]` entries.
        let tiles = self.sequences.len();
        let mut seen = StateInterner::new();
        let mut seq_lens: Vec<u32> = Vec::new();
        let mut scratch = Vec::new();
        self.encode_state_into(&mut scratch);
        seen.intern(&scratch);
        self.push_sequence_lens(&mut seq_lens);
        let mut states = 0usize;
        loop {
            states += 1;
            if states > self.state_budget {
                return Err(SdfError::BudgetExceeded {
                    analysis: "list-scheduler state space",
                    budget: self.state_budget,
                });
            }
            let completed = self.complete_finished();
            let started = self.start_allowed();
            if self.advance_clock().is_none() {
                if completed == 0 && started == 0 {
                    let stuck = self
                        .ba
                        .graph()
                        .actor_ids()
                        .next()
                        .expect("graphs have actors");
                    return Err(SdfError::Deadlock { actor: stuck });
                }
                continue;
            }
            self.encode_state_into(&mut scratch);
            let (id, fresh) = seen.intern(&scratch);
            if fresh {
                self.push_sequence_lens(&mut seq_lens);
                continue;
            }
            let first_lens = &seq_lens[id as usize * tiles..][..tiles];
            let mut schedules = TileSchedules::new(tiles);
            let used = self.ba.used_tiles();
            for (l, ((seq, &first), &tile)) in
                self.sequences.iter().zip(first_lens).zip(&used).enumerate()
            {
                let (prefix, period) = seq.split_at(first as usize);
                if period.is_empty() {
                    // The one change: a stalled tile is an error, not a
                    // tile without a schedule.
                    let actor = self
                        .ba
                        .graph()
                        .actor_ids()
                        .find(|a| self.tile_of[a.index()] == Some(l));
                    return Err(SdfError::Deadlock {
                        actor: actor.expect("used tiles host actors"),
                    });
                }
                schedules.set(
                    tile,
                    StaticOrderSchedule::new(prefix.to_vec(), period.to_vec()),
                );
            }
            return Ok((schedules, states));
        }
    }
}

/// One throughput check of [`reference_slice_search`]: which search
/// probed, the tested slice per global tile index, and whether it met λ.
pub(crate) type ReferenceProbe = (SliceScope, Vec<u64>, bool);

/// The exact slice search (see the [module docs](self)): both binary
/// searches of Sec 9.3 with every probe the processing bound does not
/// refute explored, through a fresh memo. Returns the allocation or the
/// error, and every check in order.
pub(crate) fn reference_slice_search(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    config: &SliceConfig,
) -> (Result<SliceAllocation, MapError>, Vec<ReferenceProbe>) {
    let mut probes = Vec::new();
    let result = exact_slice_search(
        ba,
        schedules,
        app,
        arch,
        state,
        binding,
        config,
        &mut probes,
    );
    (result, probes)
}

#[allow(clippy::too_many_arguments)]
fn exact_slice_search(
    ba: &mut BindingAwareGraph,
    schedules: &TileSchedules,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    config: &SliceConfig,
    probes: &mut Vec<ReferenceProbe>,
) -> Result<SliceAllocation, MapError> {
    let lambda = app.throughput_constraint();
    let ceiling = lambda * (Rational::ONE + config.tolerance);
    let tiles = ba.used_tiles();
    let tile_count = arch.tile_count();
    let global = |local: &[u64]| {
        let mut out = vec![0; tile_count];
        for (t, &w) in tiles.iter().zip(local) {
            out[t.index()] = w;
        }
        out
    };
    let remaining: Vec<u64> = tiles
        .iter()
        .map(|&t| state.available_wheel(arch, t))
        .collect();
    let big_k = remaining.iter().copied().max().unwrap_or(0);
    if big_k == 0 {
        return Err(MapError::ConstraintUnsatisfiable);
    }
    let slice_for =
        |k: u64| -> Vec<u64> { remaining.iter().map(|&r| (r * k / big_k).max(1)).collect() };
    let reference = ba.ba_actor(app.output_actor());
    let bound = ProcessingBound::new(ba, reference)?;
    let mut cache = ThroughputCache::new();
    // One check: the bound when it lies below λ, else the exploration.
    let mut check = |ba: &mut BindingAwareGraph,
                     scope: SliceScope,
                     local: &[u64],
                     use_bound: bool|
     -> Result<Option<ThroughputResult>, MapError> {
        let slices = global(local);
        ba.set_slices(&slices);
        let refuted = use_bound && bound.at(ba).is_some_and(|b| b < lambda);
        let result = if refuted {
            None
        } else {
            Some(cache.throughput(ba, schedules, reference, config.state_budget)?)
        };
        let feasible = result.as_ref().filter(|r| r.iteration_throughput >= lambda);
        probes.push((scope, slices, feasible.is_some()));
        Ok(feasible.cloned())
    };

    let full = slice_for(big_k);
    let global_scope = |k| SliceScope::Global { k, of: big_k };
    let mut global_iterations = 1;
    let Some(mut best_thr) = check(ba, global_scope(big_k), &full, true)? else {
        return Err(MapError::ConstraintUnsatisfiable);
    };
    let (mut lo, mut hi) = (1u64, big_k);
    let mut best = full;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = slice_for(mid);
        if candidate == best && hi == mid {
            break;
        }
        global_iterations += 1;
        match check(ba, global_scope(mid), &candidate, true)? {
            Some(thr) => {
                hi = mid;
                best = candidate;
                let within_tolerance = thr.iteration_throughput <= ceiling;
                best_thr = thr;
                if within_tolerance {
                    break;
                }
            }
            None => lo = mid + 1,
        }
    }
    let mut slices = best;
    let mut refine_iterations = 0;
    if config.refine && tiles.len() > 1 {
        let loads: Vec<f64> = tiles
            .iter()
            .map(|&t| tile_loads(app, arch, state, binding, t).map(|l| l.processing))
            .collect::<Result<_, _>>()?;
        let max_load = loads
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for pass in 0..config.max_refine_passes {
            let pass_start = slices.clone();
            let mut changed = false;
            for l in 0..tiles.len() {
                let tile = tiles[l].index();
                let upper = pass_start[l];
                let lower = (((loads[l] / max_load) * upper as f64).floor() as u64).max(1);
                let (mut lo, mut hi) = (lower, upper);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let mut candidate = pass_start.clone();
                    candidate[l] = mid;
                    refine_iterations += 1;
                    let scope = SliceScope::Refine {
                        pass,
                        tile,
                        slice: mid,
                    };
                    if check(ba, scope, &candidate, true)?.is_some() {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                if hi >= slices[l] {
                    continue;
                }
                let mut candidate = slices.clone();
                candidate[l] = hi;
                refine_iterations += 1;
                let scope = SliceScope::Commit {
                    pass,
                    tile,
                    slice: hi,
                };
                if check(ba, scope, &candidate, true)?.is_some() {
                    slices = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        refine_iterations += 1;
        best_thr = check(ba, SliceScope::Final, &slices, false)?
            .ok_or(MapError::ConstraintUnsatisfiable)?;
    }
    ba.set_slices(&global(&slices));
    Ok(SliceAllocation {
        slices: tiles.iter().copied().zip(slices).collect(),
        achieved: best_thr,
        throughput_checks: global_iterations + refine_iterations,
        global_iterations,
        refine_iterations,
    })
}

/// `state` with every tile outside `allowed` (ascending) claimed in full
/// on all five resources: the masked clone a regional admission ran its
/// flow on before the region view.
pub(crate) fn masked_state(
    arch: &ArchitectureGraph,
    state: &PlatformState,
    allowed: &[TileId],
) -> PlatformState {
    let mut masked = state.clone();
    for (t, tile) in arch.tiles() {
        if allowed.binary_search(&t).is_err() {
            masked.claim(
                t,
                TileUsage {
                    wheel: tile.wheel_size(),
                    memory: tile.memory(),
                    connections: tile.max_connections(),
                    bandwidth_in: tile.bandwidth_in(),
                    bandwidth_out: tile.bandwidth_out(),
                },
            );
        }
    }
    masked
}

/// One candidate tile tried by [`reference_bind`]: the pass, the actor's
/// name, the tile index, the bits of its Eqn 2 cost, and whether the
/// Sec 7 constraints accepted it.
pub(crate) type ReferenceAttempt = (BindPass, String, usize, u64, bool);

/// The binding step of Sec 9.1 (see the [module docs](self)): first fit
/// in Eqn 1 order, then the reverse-order re-binding, each candidate
/// costed on the whole binding. Returns the binding or the error, and
/// every candidate tried in order.
pub(crate) fn reference_bind(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: &BindConfig,
) -> (Result<Binding, MapError>, Vec<ReferenceAttempt>) {
    let mut attempts = Vec::new();
    let result = scan_bind(app, arch, state, config, &mut attempts);
    (result, attempts)
}

fn scan_bind(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    config: &BindConfig,
    attempts: &mut Vec<ReferenceAttempt>,
) -> Result<Binding, MapError> {
    let order = binding_order(app, config.max_cycles)?;
    let mut binding = Binding::new(app.graph().actor_count());
    let candidates = |actor: ActorId| -> Vec<TileId> {
        arch.tiles()
            .filter(|&(t, tile)| {
                state.usage(t).wheel < tile.wheel_size()
                    && app
                        .actor_requirements(actor)
                        .supports(tile.processor_type())
            })
            .map(|(t, _)| t)
            .collect()
    };
    // Ranks the candidates of `actor`, ascending cost, ties in tile
    // order; `all_tiles` takes the maximum over every used tile.
    let rank = |binding: &mut Binding,
                actor: ActorId,
                all_tiles: bool|
     -> Result<Vec<(TileId, f64)>, MapError> {
        let mut ranked = Vec::new();
        for t in candidates(actor) {
            binding.bind(actor, t);
            let cost_of =
                |u| tile_loads(app, arch, state, binding, u).map(|l| tile_cost(config.weights, l));
            let cost = if all_tiles {
                let mut worst = 0.0f64;
                for u in binding.used_tiles() {
                    worst = worst.max(cost_of(u)?);
                }
                worst
            } else {
                cost_of(t)?
            };
            binding.unbind(actor);
            ranked.push((t, cost));
        }
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(ranked)
    };
    let mut try_ranked = |binding: &mut Binding,
                          actor: ActorId,
                          pass: BindPass,
                          ranked: Vec<(TileId, f64)>|
     -> bool {
        for (t, cost) in ranked {
            binding.bind(actor, t);
            let accepted = binding_constraints_hold(app, arch, state, binding);
            let name = app.graph().actor(actor).name().to_string();
            attempts.push((pass, name, t.index(), cost.to_bits(), accepted));
            if accepted {
                return true;
            }
            binding.unbind(actor);
        }
        false
    };
    for &actor in &order {
        let ranked = rank(&mut binding, actor, false)?;
        if !try_ranked(&mut binding, actor, BindPass::FirstFit, ranked) {
            return Err(MapError::NoFeasibleTile { actor });
        }
    }
    if config.optimize {
        for &actor in order.iter().rev() {
            let original = binding.tile_of(actor).expect("first fit bound every actor");
            binding.unbind(actor);
            let ranked = rank(&mut binding, actor, true)?;
            if !try_ranked(&mut binding, actor, BindPass::Rebind, ranked) {
                binding.bind(actor, original);
            }
        }
    }
    Ok(binding)
}
