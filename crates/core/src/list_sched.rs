//! Static-order schedule construction (Section 9.2).
//!
//! A list scheduler executes the binding-aware SDFG (with 50% of each
//! tile's available wheel assumed allocated). Tile-bound actors do not
//! fire the moment they become enabled; they join their tile's FIFO ready
//! list, and whenever a tile is idle the head of its list starts and is
//! appended to the tile's schedule. The execution runs until a recurrent
//! state, yielding a finite `prefix (period)*` schedule per tile, which is
//! then minimized.

use std::collections::VecDeque;

use sdfrs_sdf::analysis::interner::StateInterner;
use sdfrs_sdf::{ActorId, SdfError};

use crate::binding_aware::BindingAwareGraph;
use crate::constrained::TileSchedules;
use crate::events::{FlowEvent, FlowObserver};
use crate::schedule::StaticOrderSchedule;
use crate::tdma::TdmaSlice;

/// Default state budget for the schedule-construction execution.
pub const DEFAULT_STATE_BUDGET: usize = 4_000_000;

/// List scheduler over a binding-aware SDFG.
#[derive(Debug)]
pub struct ListScheduler<'a> {
    ba: &'a BindingAwareGraph,
    /// TDMA configuration per local tile (see `BindingAwareGraph`).
    tdma: Vec<TdmaSlice>,
    hyperperiod: u64,
    tokens: Vec<u64>,
    active: Vec<Vec<u64>>,
    /// FIFO ready list per local tile (actor indices).
    ready: Vec<VecDeque<u32>>,
    /// Queued-but-not-started entries per actor (to detect new enablings).
    queued: Vec<u32>,
    /// One active tile-bound firing at most; `true` while the local tile
    /// is busy.
    busy: Vec<bool>,
    /// Recorded firing sequence per local tile.
    sequences: Vec<Vec<ActorId>>,
    time: u64,
    state_budget: usize,
}

impl<'a> ListScheduler<'a> {
    /// Creates a list scheduler at the initial state. The binding-aware
    /// graph should carry the 50%-of-available-wheel slice assumption
    /// (Sec 9.2); the scheduler reads its TDMA configuration from there.
    pub fn new(ba: &'a BindingAwareGraph) -> Self {
        let g = ba.graph();
        let tile_count = ba.tiles().len();
        let (tdma, hyperperiod) = ba.local_tdmas();
        ListScheduler {
            ba,
            tdma,
            hyperperiod,
            tokens: g
                .channel_ids()
                .map(|c| g.channel(c).initial_tokens())
                .collect(),
            active: vec![Vec::new(); g.actor_count()],
            ready: vec![VecDeque::new(); tile_count],
            queued: vec![0; g.actor_count()],
            busy: vec![false; tile_count],
            sequences: vec![Vec::new(); tile_count],
            time: 0,
            state_budget: DEFAULT_STATE_BUDGET,
        }
    }

    /// Overrides the exploration budget.
    pub fn with_state_budget(mut self, budget: usize) -> Self {
        self.state_budget = budget;
        self
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
            let Some(l) = self.ba.local_tile_of(actor) else {
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
                if let Some(l) = self.ba.local_tile_of(actor) {
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
                if self.ba.local_tile_of(actor).is_some() {
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
                let wall = match self.ba.local_tile_of(ActorId::from_index(idx)) {
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
            let progress = match self.ba.local_tile_of(ActorId::from_index(idx)) {
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

    /// Appends the recorded sequence length of every local tile to `out`.
    fn push_sequence_lens(&self, out: &mut Vec<u32>) {
        out.extend(self.sequences.iter().map(|s| s.len() as u32));
    }

    /// Runs the construction until a recurrent state and returns the
    /// minimized static-order schedules.
    ///
    /// # Errors
    ///
    /// * [`SdfError::Deadlock`] if the execution stalls;
    /// * [`SdfError::BudgetExceeded`] if no recurrence is found in budget.
    pub fn construct(self) -> Result<TileSchedules, SdfError> {
        Ok(self.construct_raw()?.minimized())
    }

    /// [`construct`](Self::construct) reporting through an observer: the
    /// recurrence detection
    /// ([`ScheduleRecurrence`](FlowEvent::ScheduleRecurrence)) and one
    /// [`ScheduleConstructed`](FlowEvent::ScheduleConstructed) per tile
    /// with the minimized prefix/period lengths. Returns the schedules
    /// and the number of states explored until the recurrence closed.
    ///
    /// # Errors
    ///
    /// See [`construct`](Self::construct).
    pub fn construct_observed(
        self,
        obs: &mut FlowObserver<'_>,
    ) -> Result<(TileSchedules, usize), SdfError> {
        let (raw, states) = self.construct_raw_observed(obs)?;
        let schedules = raw.minimized();
        if obs.enabled() {
            for tile in schedules.tiles() {
                let s = schedules.get(tile).expect("tiles() yields set tiles");
                obs.emit(|| FlowEvent::ScheduleConstructed {
                    tile: tile.index(),
                    prefix_len: s.prefix().len(),
                    period_len: s.period().len(),
                });
            }
        }
        Ok((schedules, states))
    }

    /// Like [`construct`](Self::construct) but returns the raw
    /// list-scheduler output without the Sec 9.2 minimization — for the
    /// paper's 17-state example schedule and the ablation benches.
    ///
    /// # Errors
    ///
    /// See [`construct`](Self::construct).
    pub fn construct_raw(self) -> Result<TileSchedules, SdfError> {
        Ok(self.construct_raw_observed(&mut FlowObserver::null())?.0)
    }

    /// [`construct_raw`](Self::construct_raw) with an observer; also
    /// returns the number of states explored.
    ///
    /// # Errors
    ///
    /// See [`construct`](Self::construct).
    pub fn construct_raw_observed(
        mut self,
        obs: &mut FlowObserver<'_>,
    ) -> Result<(TileSchedules, usize), SdfError> {
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
            obs.emit(|| FlowEvent::ScheduleRecurrence { states });
            let first_lens = &seq_lens[id as usize * tiles..][..tiles];
            let mut schedules = TileSchedules::new(tiles);
            for ((seq, &first), &tile) in self.sequences.iter().zip(first_lens).zip(self.ba.tiles())
            {
                if seq.is_empty() {
                    continue;
                }
                let (prefix, period) = seq.split_at(first as usize);
                if period.is_empty() {
                    // An actor-less period cannot happen for tiles hosting
                    // actors of a live graph; skip tiles that only saw
                    // transient firings defensively.
                    continue;
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

/// Convenience wrapper: construct minimized static-order schedules for a
/// binding-aware graph (which should carry the 50% slice assumption).
///
/// # Errors
///
/// See [`ListScheduler::construct`].
pub fn construct_schedules(ba: &BindingAwareGraph) -> Result<TileSchedules, SdfError> {
    ListScheduler::new(ba).construct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use crate::constrained::constrained_throughput;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_platform::TileId;
    use sdfrs_sdf::Rational;

    fn example_ba() -> BindingAwareGraph {
        let app = paper_example();
        let arch = example_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
        // 50% of the 10-unit wheels.
        BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap()
    }

    /// Sec 9.2: the constructed schedule for t1 minimizes to (a1 a2)* and
    /// for t2 to (a3)*.
    #[test]
    fn paper_example_schedules() {
        let ba = example_ba();
        let schedules = construct_schedules(&ba).unwrap();
        let g = ba.graph();
        let a1 = g.actor_by_name("a1").unwrap();
        let a2 = g.actor_by_name("a2").unwrap();
        let a3 = g.actor_by_name("a3").unwrap();
        let s1 = schedules.get(TileId::from_index(0)).unwrap();
        assert!(s1.prefix().is_empty(), "prefix should fold away: {s1:?}");
        assert_eq!(s1.period(), &[a1, a2]);
        let s2 = schedules.get(TileId::from_index(1)).unwrap();
        assert!(s2.prefix().is_empty());
        assert_eq!(s2.period(), &[a3]);
    }

    /// The constructed schedules are consistent with the token flow: the
    /// constrained execution under them reproduces Fig 5(c).
    #[test]
    fn constructed_schedules_reach_fig5c_throughput() {
        let ba = example_ba();
        let schedules = construct_schedules(&ba).unwrap();
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        let thr = constrained_throughput(&ba, &schedules, a3).unwrap();
        assert_eq!(thr.actor_throughput, Rational::new(1, 30));
    }

    #[test]
    fn budget_is_respected() {
        let ba = example_ba();
        let r = ListScheduler::new(&ba).with_state_budget(1).construct();
        assert!(matches!(r, Err(SdfError::BudgetExceeded { .. })));
    }

    #[test]
    fn single_tile_binding_schedules_everything() {
        let app = paper_example();
        let arch = example_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        for (a, _) in g.actors() {
            binding.bind(a, TileId::from_index(0));
        }
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        let schedules = construct_schedules(&ba).unwrap();
        let s = schedules.get(TileId::from_index(0)).unwrap();
        // One iteration fires a1 and a2 twice and a3 once: period length 5
        // (or a multiple folded to the primitive root).
        let mut counts = std::collections::HashMap::new();
        for a in s.period() {
            *counts.entry(*a).or_insert(0u64) += 1;
        }
        let gamma = ba.graph().repetition_vector().unwrap();
        let a1 = ba.graph().actor_by_name("a1").unwrap();
        let per_iter = counts[&a1] as f64 / gamma[a1] as f64;
        for (a, c) in counts {
            assert_eq!(
                c as f64 / gamma[a] as f64,
                per_iter,
                "γ-proportional firings"
            );
        }
        assert!(schedules.get(TileId::from_index(1)).is_none());
    }
}
