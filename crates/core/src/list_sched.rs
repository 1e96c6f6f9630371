//! Static-order schedule construction (Section 9.2).
//!
//! A list scheduler executes the binding-aware SDFG (with 50% of each
//! tile's available wheel assumed allocated). Tile-bound actors do not
//! fire the moment they become enabled; they join their tile's FIFO ready
//! list, and whenever a tile is idle the head of its list starts and is
//! appended to the tile's schedule. The execution runs until a recurrent
//! state, yielding a finite `prefix (period)*` schedule per tile, which is
//! then minimized.
//!
//! The execution is the [`ConstrainedExecutor`]'s under its FIFO order
//! rule; this module interns its states with each tile's sequence length
//! and splits every sequence into prefix and period at the recurrence.

use sdfrs_sdf::analysis::interner::StateInterner;
use sdfrs_sdf::SdfError;

use crate::binding_aware::BindingAwareGraph;
use crate::constrained::{ConstrainedExecutor, TileSchedules, Transition, DEFAULT_STATE_BUDGET};
use crate::events::{FlowEvent, FlowObserver};
use crate::schedule::StaticOrderSchedule;

/// List scheduler over a binding-aware SDFG: the
/// [`ConstrainedExecutor`] under its FIFO ready-list rule.
#[derive(Debug)]
pub struct ListScheduler<'a> {
    ba: &'a BindingAwareGraph,
    state_budget: usize,
}

impl<'a> ListScheduler<'a> {
    /// Creates a list scheduler at the initial state. The binding-aware
    /// graph should carry the 50%-of-available-wheel slice assumption
    /// (Sec 9.2); the scheduler reads its TDMA configuration from there.
    pub fn new(ba: &'a BindingAwareGraph) -> Self {
        ListScheduler {
            ba,
            state_budget: DEFAULT_STATE_BUDGET,
        }
    }

    /// Overrides the exploration budget.
    pub fn with_state_budget(mut self, budget: usize) -> Self {
        self.state_budget = budget;
        self
    }

    /// Runs the construction until a recurrent state and returns the
    /// minimized static-order schedules.
    ///
    /// # Errors
    ///
    /// * [`SdfError::Deadlock`] if the execution stalls, or if a tile's
    ///   actors stop firing while another component keeps it going (the
    ///   error then names that tile's lowest-index actor);
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
        self,
        obs: &mut FlowObserver<'_>,
    ) -> Result<(TileSchedules, usize), SdfError> {
        let mut exec = ConstrainedExecutor::with_ready_lists(self.ba);
        // States are interned with dense ids; state `id` was first seen
        // when local tile `l`'s sequence had `seq_lens[id * tiles + l]`
        // entries.
        let tiles = self.ba.tiles().len();
        let mut seen = StateInterner::new();
        let mut seq_lens: Vec<u32> = Vec::new();
        let mut key = Vec::new();
        let mut states = 0usize;
        let id = loop {
            exec.ready_state_into(&mut key);
            let (id, fresh) = seen.intern(&key);
            if !fresh {
                break id;
            }
            seq_lens.extend(exec.sequences().iter().map(|s| s.len() as u32));
            let step = exec.transition();
            states += step.rounds();
            if states > self.state_budget {
                return Err(SdfError::BudgetExceeded {
                    analysis: "list-scheduler state space",
                    budget: self.state_budget,
                });
            }
            if let Transition::Deadlock { .. } = step {
                return Err(SdfError::Deadlock {
                    actor: exec.first_actor(),
                });
            }
        };
        let first_lens = &seq_lens[id as usize * tiles..][..tiles];
        let mut schedules = TileSchedules::new(tiles);
        for (l, (seq, &first)) in exec.sequences().iter().zip(first_lens).enumerate() {
            let (prefix, period) = seq.split_at(first as usize);
            if period.is_empty() {
                // The tile's actors stopped firing while another
                // component kept the execution going.
                let actor = self
                    .ba
                    .graph()
                    .actor_ids()
                    .find(|&a| self.ba.local_tile_of(a) == Some(l))
                    .expect("used tiles host actors");
                return Err(SdfError::Deadlock { actor });
            }
            schedules.set(
                self.ba.tiles()[l],
                StaticOrderSchedule::new(prefix.to_vec(), period.to_vec()),
            );
        }
        obs.emit(|| FlowEvent::ScheduleRecurrence { states });
        Ok((schedules, states))
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
