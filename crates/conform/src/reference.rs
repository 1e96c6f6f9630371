//! The reference constrained executor of oracle 11.
//!
//! A direct transcription of Sec 8.2 as a scan: every round completes
//! every firing with no work left, then scans all actors in index order
//! (repeating while anything starts) and starts each one its tokens, its
//! tile's static order and its idle tile allow, then advances the clock
//! to the earliest completion, recomputing each tile-bound firing's wall
//! time from its remaining in-slice *work*. States are keyed by that
//! remaining work in a std `HashMap`, so this executor shares neither
//! state layout, completion bookkeeping, start order logic nor hash with
//! the event-driven [`ConstrainedExecutor`](sdfrs_core::ConstrainedExecutor)
//! it checks. It reads the binding-aware graph through the public API
//! only.

use std::collections::HashMap;

use sdfrs_core::tdma::TdmaSlice;
use sdfrs_core::{BindingAwareGraph, StaticOrderSchedule, TileSchedules};
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::rational::lcm;
use sdfrs_sdf::{ActorId, Rational, SdfError};

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
    /// `reference`, with the budget and error semantics of
    /// [`ConstrainedExecutor::throughput`](sdfrs_core::ConstrainedExecutor::throughput).
    pub(crate) fn throughput(mut self, reference: ActorId) -> Result<ThroughputResult, SdfError> {
        let mut seen: HashMap<Vec<u64>, (u64, u64)> = HashMap::new();
        seen.insert(self.key(), (0, 0));
        let mut states = 0usize;
        loop {
            // One state: rounds until the clock moves, each counted.
            loop {
                states += 1;
                if states > self.state_budget {
                    return Err(SdfError::BudgetExceeded {
                        analysis: "constrained state space",
                        budget: self.state_budget,
                    });
                }
                let completed = self.complete_finished();
                let started = self.start_all();
                if self.advance().is_some() {
                    break;
                }
                if !completed && !started {
                    return Err(SdfError::Deadlock { actor: reference });
                }
            }
            let now = (self.time, self.completions[reference.index()]);
            let key = self.key();
            let Some(&(t0, f0)) = seen.get(&key) else {
                seen.insert(key, now);
                continue;
            };
            let period = self.time - t0;
            if period == 0 {
                return Err(SdfError::BudgetExceeded {
                    analysis: "constrained state space (zero-time cycle)",
                    budget: self.state_budget,
                });
            }
            let firings = now.1 - f0;
            let actor_throughput = Rational::new(firings as i128, period as i128);
            let gamma = self.ba.graph().repetition_vector()?;
            return Ok(ThroughputResult {
                actor_throughput,
                iteration_throughput: actor_throughput
                    / Rational::from_integer(gamma[reference] as i128),
                reference,
                period,
                firings_in_period: firings,
                states_explored: states,
                transient_time: t0,
            });
        }
    }
}
