//! Memoized constrained-throughput evaluations.
//!
//! The slice-allocation binary searches (Sec 9.3) and the repeated
//! admission protocols (Sec 10.1) evaluate the *same* binding-aware graph
//! under the *same* static orders many times — often at the very same
//! slice vector: the global search probes `slice_for(k)` values that
//! collapse to identical slices for small wheels, every refinement pass
//! re-validates its neighbours, and best-fit admission re-runs whole
//! allocations against an unchanged platform state.
//!
//! [`ThroughputCache`] keys each evaluation by a *structural fingerprint*
//! of everything that determines its outcome: the binding-aware graph
//! (execution times, channels, actor→local-tile placement), the TDMA
//! wheel and slice of each local tile, the static-order schedules, the
//! state budget and the reference actor. Tiles enter the key as the
//! graph's local tile ids, so an application placed on other tiles with
//! the same local problem is answered from the memo. The fingerprint is
//! a flat `Vec<u64>`; lookups compare the full key, so a hash collision
//! can never return a wrong result.
//! Hit/miss counters expose how much work the cache saved.
//!
//! A refinement task probes through its pass-start cache by shared
//! reference and memoizes into a task-local cache that is absorbed after
//! the pass. The cache holds at most [`MAX_ENTRIES`] evaluations.
//!
//! Every exploration a cache runs interns its stored states (the
//! iteration ends, see [`constrained`](crate::constrained)) into the
//! cache's one probe arena, reset but not freed between probes. A task
//! cache borrows the arena of the cache it probes through while no other
//! task holds it, so a sequential flow interns every probe into one
//! arena. Storing iteration ends only keeps that arena at a few thousand
//! states where it held every stepped state, so a fresh allocator no
//! longer pays for regrowing it; reusing it still beats a fresh arena per
//! probe (DESIGN.md §9).
//!
//! The cache is the one writer of the check counters. The slice search
//! answers some checks without a lookup, from the processing bound
//! ([`bound_answers`](ThroughputCache::bound_answers)) or by monotonicity
//! ([`monotone_answers`](ThroughputCache::monotone_answers)), and it
//! counts each check it reports once, in report order, so that
//! `throughput_checks = cache_hits + cache_misses + bound_answers +
//! monotone_answers`. Its explorations whose answer no reported check
//! carries, because a speculation they refuted was discarded, are counted
//! apart as [`discarded_explorations`](ThroughputCache::discarded_explorations).

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use sdfrs_fastutil::FxHashMap;
use sdfrs_sdf::analysis::selftimed::ThroughputResult;
use sdfrs_sdf::{ActorId, SdfError};

use crate::binding_aware::BindingAwareGraph;
use crate::constrained::{ConstrainedExecutor, ProbeScratch, TileSchedules};
use crate::metrics::{Metrics, SpanKind};

/// The most evaluations one cache holds. An insert that would exceed it
/// clears the cache first, so a long-lived service stays bounded.
pub const MAX_ENTRIES: usize = 16_384;

/// One memoized result: a throughput or the analysis error.
pub(crate) type Evaluation = Result<ThroughputResult, SdfError>;

/// How the slice search answered one throughput check it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answered {
    /// The memo recalled the throughput.
    Hit,
    /// An exploration measured it.
    Miss,
    /// The processing bound proved the slices infeasible.
    Bound,
    /// An explored vector it dominates, or that dominates it, decided it.
    Monotone,
}

type Memo = FxHashMap<Vec<u64>, Evaluation>;

/// A cache's probe arena, locked so that tasks probing through the cache
/// by shared reference can borrow it. It holds capacity, not results, so
/// a clone starts empty.
#[derive(Debug, Default)]
struct ProbeArena(Mutex<ProbeScratch>);

impl Clone for ProbeArena {
    fn clone(&self) -> Self {
        ProbeArena::default()
    }
}

/// Encodes everything that determines a constrained-throughput result
/// into `out`. Injective for a fixed encoding version: every field is
/// length-prefixed or fixed-width, so distinct configurations never
/// collide.
///
/// Tiles are the graph's local tile ids, exactly what the constrained
/// executor reads, so the key does not depend on where the application
/// is placed: two placements with the same local problem share an entry.
///
/// A sync actor's execution time is `wheel − slice` of its destination
/// tile — fully determined by words already in the key — so it is
/// encoded as a sentinel plus the destination tile.
fn encode_fingerprint(
    ba: &BindingAwareGraph,
    schedules: &TileSchedules,
    reference: ActorId,
    state_budget: usize,
    out: &mut Vec<u64>,
) {
    out.clear();
    let g = ba.graph();
    // local dest tile + 1 per sync actor, 0 otherwise.
    let mut sync_dest = vec![0u64; g.actor_count()];
    for &(actor, l) in ba.sync_actors() {
        sync_dest[actor.index()] = l as u64 + 1;
    }
    out.push(g.actor_count() as u64);
    for a in g.actor_ids() {
        let dest = sync_dest[a.index()];
        if dest != 0 {
            out.push(u64::MAX);
            out.push(dest);
        } else {
            out.push(g.actor(a).execution_time());
            // 0 = not tile-bound (connection actor), l + 1 = local tile l.
            out.push(ba.local_tile_of(a).map_or(0, |l| l as u64 + 1));
        }
    }
    out.push(g.channel_count() as u64);
    for c in g.channel_ids() {
        let ch = g.channel(c);
        out.push(ch.src().index() as u64);
        out.push(ch.dst().index() as u64);
        out.push(ch.production_rate());
        out.push(ch.consumption_rate());
        out.push(ch.initial_tokens());
    }
    // TDMA wheel, slice and static order per local tile (the only tiles
    // the constrained executor consults).
    let tiles = ba.tiles();
    out.push(tiles.len() as u64);
    for (l, &t) in tiles.iter().enumerate() {
        let tdma = ba.local_tdma(l);
        out.push(tdma.wheel);
        out.push(tdma.slice);
        match schedules.get(t) {
            Some(s) => {
                out.push(s.prefix().len() as u64);
                out.extend(s.prefix().iter().map(|a| a.index() as u64));
                out.push(s.period().len() as u64);
                out.extend(s.period().iter().map(|a| a.index() as u64));
            }
            // No schedule: the executor rejects the configuration.
            None => out.push(u64::MAX),
        }
    }
    out.push(state_budget as u64);
    out.push(reference.index() as u64);
}

/// A memo table for [`ConstrainedExecutor::throughput`] evaluations.
///
/// Both successes and analysis errors ([`SdfError::BudgetExceeded`],
/// [`SdfError::Deadlock`]) are cached: the fingerprint includes the state
/// budget, so a cached error is exactly what a re-run would produce.
///
/// # Examples
///
/// ```
/// use sdfrs_core::thru_cache::ThroughputCache;
/// let cache = ThroughputCache::new();
/// assert_eq!((cache.hits(), cache.misses()), (0, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThroughputCache {
    memo: Memo,
    hits: usize,
    misses: usize,
    bound_answers: usize,
    monotone_answers: usize,
    discarded: usize,
    scratch: Vec<u64>,
    bypass: bool,
    metrics: Metrics,
    /// Task caches record hits/misses/probes into the shared registry
    /// directly, but leave the `cache_entries` gauge to the main cache:
    /// their entries are not resident until [`absorb`](Self::absorb).
    is_task: bool,
    /// The arena this cache's probes intern into. Task caches and
    /// clones start with an empty one.
    probe: ProbeArena,
}

impl ThroughputCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache that never memoizes: every evaluation counts as a
    /// miss. The ablation baseline for the benches — the flow code stays
    /// identical, only memoization is off.
    pub fn disabled() -> Self {
        ThroughputCache {
            bypass: true,
            ..ThroughputCache::default()
        }
    }

    /// Evaluations answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Evaluations that ran the state-space exploration.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Slice-search checks the processing bound
    /// ([`ProcessingBound`](crate::slice::ProcessingBound)) answered before
    /// the cache was consulted.
    pub fn bound_answers(&self) -> usize {
        self.bound_answers
    }

    /// Slice-search checks answered by monotonicity: an explored slice
    /// vector that this one dominates proved it feasible, or one that
    /// dominates it proved it infeasible.
    pub fn monotone_answers(&self) -> usize {
        self.monotone_answers
    }

    /// Explorations whose answer no reported check carries: the slice
    /// search ran them on a speculation it then discarded.
    pub fn discarded_explorations(&self) -> usize {
        self.discarded
    }

    /// Counts one throughput check the slice search reports: the cache is
    /// the one writer of the check counters, so `throughput_checks =
    /// cache_hits + cache_misses + bound_answers + monotone_answers`.
    pub(crate) fn count_check(&mut self, how: Answered) {
        match how {
            Answered::Hit => self.hits += 1,
            Answered::Miss => self.misses += 1,
            Answered::Bound => self.bound_answers += 1,
            Answered::Monotone => self.monotone_answers += 1,
        }
        self.metrics.record(|m| {
            m.throughput_checks.inc();
            match how {
                Answered::Hit => m.cache_hits.inc(),
                Answered::Miss => m.cache_misses.inc(),
                Answered::Bound => m.bound_answers.inc(),
                Answered::Monotone => m.monotone_answers.inc(),
            }
        });
    }

    /// Counts `n` explorations that answer no reported check.
    pub(crate) fn count_discarded(&mut self, n: usize) {
        if n > 0 {
            self.discarded += n;
            self.metrics
                .record(|m| m.discarded_explorations.add(n as u64));
        }
    }

    /// Distinct configurations memoized.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// `true` if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoized evaluations; counters keep accumulating.
    pub fn clear(&mut self) {
        let evicted = self.len() as u64;
        self.memo.clear();
        let is_task = self.is_task;
        self.metrics.record(|m| {
            m.cache_evictions.add(evicted);
            if !is_task {
                m.cache_entries.set(0);
            }
        });
    }

    /// Attaches a metrics handle: every hit, miss and exploration is
    /// recorded through it from now on.
    /// [`Allocator::with_metrics`](crate::Allocator::with_metrics) calls
    /// this for the cache it owns.
    pub fn set_metrics(&mut self, metrics: impl Into<Metrics>) {
        self.metrics = metrics.into();
    }

    /// An empty cache for a search task that probes through `self` by
    /// shared reference (see [`throughput_via`](Self::throughput_via)).
    /// It shares the metrics registry (its recordings are live) but never
    /// touches the residency gauge.
    pub(crate) fn task_cache(&self) -> ThroughputCache {
        ThroughputCache {
            bypass: self.bypass,
            metrics: self.metrics.clone(),
            is_task: true,
            ..ThroughputCache::default()
        }
    }

    /// Merges another cache into this one: memoized evaluations are
    /// adopted (first writer wins on duplicates — both sides computed the
    /// same result) and the check counters accumulate. Folds the caches of
    /// search tasks back into the shared cache. Returns how many entries
    /// were newly adopted.
    ///
    /// Registry counters are *not* re-recorded here — a task cache
    /// records its hits and misses live; absorbing only folds the per-run
    /// `usize` counters [`FlowStats`](crate::FlowStats) deltas derive
    /// from.
    pub fn absorb(&mut self, other: ThroughputCache) -> usize {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bound_answers += other.bound_answers;
        self.monotone_answers += other.monotone_answers;
        self.discarded += other.discarded;
        let mut adopted = 0;
        for (key, value) in other.memo {
            adopted += usize::from(self.adopt(key, value));
        }
        self.publish_entries();
        adopted
    }

    /// The guaranteed throughput of `ba` under `schedules`, measured at
    /// `reference` — from the cache when the same configuration was
    /// evaluated before, otherwise by running the constrained state-space
    /// exploration and memoizing the result.
    pub fn throughput(
        &mut self,
        ba: &BindingAwareGraph,
        schedules: &TileSchedules,
        reference: ActorId,
        state_budget: usize,
    ) -> Result<ThroughputResult, SdfError> {
        self.throughput_via(None, ba, schedules, reference, state_budget)
    }

    /// [`throughput`](Self::throughput) for a search task holding a
    /// [`task_cache`](Self::task_cache): answers from `shared` or from
    /// this cache, and memoizes only here.
    pub(crate) fn throughput_via(
        &mut self,
        shared: Option<&ThroughputCache>,
        ba: &BindingAwareGraph,
        schedules: &TileSchedules,
        reference: ActorId,
        state_budget: usize,
    ) -> Result<ThroughputResult, SdfError> {
        let (result, hit) = self.measure(shared, ba, schedules, reference, state_budget);
        self.count_check(if hit { Answered::Hit } else { Answered::Miss });
        result
    }

    /// The memoized evaluation of this configuration in `shared` or in
    /// this cache, if any. Counts nothing and never explores.
    pub(crate) fn recall(
        &mut self,
        shared: Option<&ThroughputCache>,
        ba: &BindingAwareGraph,
        schedules: &TileSchedules,
        reference: ActorId,
        state_budget: usize,
    ) -> Option<Evaluation> {
        if self.bypass {
            return None;
        }
        let mut key = std::mem::take(&mut self.scratch);
        encode_fingerprint(ba, schedules, reference, state_budget, &mut key);
        let cached = shared
            .and_then(|s| s.lookup(&key))
            .or_else(|| self.lookup(&key))
            .cloned();
        self.scratch = key;
        cached
    }

    /// The evaluation from the memo, or from a new exploration that is
    /// then memoized, and whether the memo answered. Counts no check: the
    /// caller reports how each check it keeps was answered.
    pub(crate) fn measure(
        &mut self,
        shared: Option<&ThroughputCache>,
        ba: &BindingAwareGraph,
        schedules: &TileSchedules,
        reference: ActorId,
        state_budget: usize,
    ) -> (Evaluation, bool) {
        if let Some(result) = self.recall(shared, ba, schedules, reference, state_budget) {
            return (result, true);
        }
        let result = self.explore(shared, ba, schedules, reference, state_budget);
        if !self.bypass {
            let key = self.scratch.clone();
            self.insert(key, result.clone());
            self.publish_entries();
        }
        (result, false)
    }

    fn lookup(&self, key: &[u64]) -> Option<&Evaluation> {
        self.memo.get(key)
    }

    /// Inserts `key` unless it is memoized already; `true` if inserted.
    fn adopt(&mut self, key: Vec<u64>, value: Evaluation) -> bool {
        if self.lookup(&key).is_some() {
            return false;
        }
        self.insert(key, value);
        true
    }

    /// Inserts a key not memoized yet, clearing the cache first when it
    /// holds [`MAX_ENTRIES`] already.
    fn insert(&mut self, key: Vec<u64>, value: Evaluation) {
        if self.len() >= MAX_ENTRIES {
            self.clear();
        }
        self.memo.insert(key, value);
    }

    /// Sets the residency gauge to this cache's size (main caches only).
    fn publish_entries(&self) {
        if !self.is_task {
            let entries = self.len() as u64;
            self.metrics.record(|m| m.cache_entries.set(entries));
        }
    }

    /// Runs the constrained exploration, timed as a `probe` span, and
    /// records how many states it visited. It interns into the arena of
    /// `shared` when no other task holds it, otherwise into this cache's.
    fn explore(
        &mut self,
        shared: Option<&ThroughputCache>,
        ba: &BindingAwareGraph,
        schedules: &TileSchedules,
        reference: ActorId,
        state_budget: usize,
    ) -> Result<ThroughputResult, SdfError> {
        // `Instant::now` only when a registry listens: the disabled path
        // must cost a single branch.
        let probe_start = self.metrics.enabled().then(Instant::now);
        let executor = ConstrainedExecutor::new(ba, schedules).with_state_budget(state_budget);
        let result = match shared.and_then(|s| s.probe.0.try_lock().ok()) {
            Some(mut arena) => executor.throughput_in(reference, &mut arena),
            None => {
                // A poisoned arena only holds a panicked probe's states,
                // which the next probe discards anyway.
                let arena = self.probe.0.get_mut();
                executor.throughput_in(reference, arena.unwrap_or_else(PoisonError::into_inner))
            }
        };
        if let Some(t0) = probe_start {
            let elapsed = t0.elapsed();
            self.metrics.record(|m| {
                m.profiler.record(SpanKind::Probe, elapsed);
                if let Ok(r) = &result {
                    m.states_explored.add(r.states_explored as u64);
                    m.probe_states.observe(r.states_explored as u64);
                }
            });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use crate::list_sched::construct_schedules;
    use crate::metrics::MetricsRegistry;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_platform::TileId;
    use std::sync::Arc;

    fn setup(slices: [u64; 2]) -> (BindingAwareGraph, TileSchedules, ActorId) {
        let app = paper_example();
        let arch = example_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &slices).unwrap();
        let schedules = construct_schedules(&ba).unwrap();
        let reference = ba.ba_actor(app.output_actor());
        (ba, schedules, reference)
    }

    #[test]
    fn identical_inputs_hit() {
        let (ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::new();
        let first = cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        let second = cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // The cached result matches an uncached run exactly.
        let direct = ConstrainedExecutor::new(&ba, &schedules)
            .with_state_budget(100_000)
            .throughput(reference)
            .unwrap();
        assert_eq!(first, direct);
    }

    #[test]
    fn slice_change_misses() {
        let (mut ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::new();
        cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        ba.set_slices(&[4, 5]);
        cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // Restoring the original slices hits again.
        ba.set_slices(&[5, 5]);
        cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn schedule_order_swap_misses() {
        let (ba, schedules, reference) = setup([5, 5]);
        let t0 = TileId::from_index(0);
        let s0 = schedules.get(t0).unwrap();
        // Rotate tile 0's periodic order: same multiset, different order.
        let mut period = s0.period().to_vec();
        assert!(period.len() >= 2, "tile 0 hosts a1 and a2");
        period.rotate_left(1);
        let mut swapped = schedules.clone();
        swapped.set(
            t0,
            crate::schedule::StaticOrderSchedule::new(s0.prefix().to_vec(), period),
        );
        let mut cache = ThroughputCache::new();
        cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        let _ = cache.throughput(&ba, &swapped, reference, 100_000);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    /// The paper example with a parameterizable execution time for `a1`
    /// on `p1` (1 in Table 2).
    fn paper_like(exec_a1_p1: u64) -> sdfrs_appmodel::ApplicationGraph {
        use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
        use sdfrs_platform::ProcessorType;
        use sdfrs_sdf::{Rational, SdfGraph};
        let p1 = ProcessorType::new("p1");
        let p2 = ProcessorType::new("p2");
        let mut g = SdfGraph::new("paper_example");
        let a1 = g.add_actor("a1", 0);
        let a2 = g.add_actor("a2", 0);
        let a3 = g.add_actor("a3", 0);
        let d1 = g.add_channel("d1", a1, 1, a2, 1, 0);
        let d2 = g.add_channel("d2", a2, 1, a3, 2, 0);
        let d3 = g.add_channel("d3", a1, 1, a1, 1, 1);
        ApplicationGraph::builder(g, Rational::new(1, 30))
            .actor(
                a1,
                ActorRequirements::new()
                    .on(p1.clone(), exec_a1_p1, 10)
                    .on(p2.clone(), 4, 15),
            )
            .actor(
                a2,
                ActorRequirements::new()
                    .on(p1.clone(), 1, 7)
                    .on(p2.clone(), 7, 19),
            )
            .actor(a3, ActorRequirements::new().on(p1, 3, 13).on(p2, 2, 10))
            .channel(d1, ChannelRequirements::new(7, 1, 2, 2, 100))
            .channel(d2, ChannelRequirements::new(100, 2, 2, 2, 10))
            .channel(d3, ChannelRequirements::new(1, 1, 0, 0, 0))
            .output_actor(a3)
            .build()
            .unwrap()
    }

    #[test]
    fn actor_time_and_budget_changes_miss() {
        let (ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::new();
        cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        // Different state budget: a distinct configuration.
        cache
            .throughput(&ba, &schedules, reference, 99_999)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // Different execution time for a1, everything else identical
        // (same binding, slices, schedules, reference): still a miss.
        let app = paper_like(2);
        let arch = example_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
        let ba2 = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        cache
            .throughput(&ba2, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        // Sanity: the unperturbed rebuild would have hit.
        let app0 = paper_like(1);
        let ba0 = BindingAwareGraph::build(&app0, &arch, &binding, &[5, 5]).unwrap();
        cache
            .throughput(&ba0, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn absorb_adopts_only_fork_fresh_entries() {
        let registry = Arc::new(MetricsRegistry::new());
        let (ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::new();
        cache.set_metrics(registry.clone());
        cache
            .throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!(registry.cache_entries.get(), 1);
        let mut task = cache.task_cache();
        // The task re-evaluates an entry of the shared cache (a hit — not
        // fresh) and probes one configuration of its own (fresh).
        task.throughput_via(Some(&cache), &ba, &schedules, reference, 100_000)
            .unwrap();
        task.throughput_via(Some(&cache), &ba, &schedules, reference, 99_999)
            .unwrap();
        assert_eq!((task.hits(), task.misses()), (1, 1));
        // Task residency is not published until it is absorbed.
        assert_eq!(registry.cache_entries.get(), 1);
        let adopted = cache.absorb(task);
        assert_eq!(adopted, 1, "only the task's own insertion is adopted");
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // The residency gauge tracks the merged map exactly.
        assert_eq!(registry.cache_entries.get(), 2);
        // Absorbing a second task that added nothing adopts nothing and
        // leaves the gauge pinned to the map size.
        let mut idle = cache.task_cache();
        idle.throughput_via(Some(&cache), &ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!(cache.absorb(idle), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(registry.cache_entries.get(), 2);
    }

    #[test]
    fn entries_of_nested_forks_reach_the_root() {
        let (mut ba, schedules, reference) = setup([5, 5]);
        let mut root = ThroughputCache::new();
        root.throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        // A refinement task probing the root by reference memoizes a
        // configuration of its own; absorbing the task hands it to the
        // root.
        let mut task = root.task_cache();
        ba.set_slices(&[2, 5]);
        task.throughput_via(Some(&root), &ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!(root.absorb(task), 1);
        let misses = root.misses();
        root.throughput(&ba, &schedules, reference, 100_000)
            .unwrap();
        assert_eq!(root.misses(), misses, "the task's entry answers as a hit");
    }

    #[test]
    fn crossing_the_cap_evicts_and_answers_stay_exact() {
        let registry = Arc::new(MetricsRegistry::new());
        let (ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::new();
        cache.set_metrics(registry.clone());
        // Each budget is a distinct configuration.
        let budgets = 1_000..1_000 + MAX_ENTRIES + 10;
        for budget in budgets.clone() {
            cache
                .throughput(&ba, &schedules, reference, budget)
                .unwrap();
            assert!(registry.cache_entries.get() <= MAX_ENTRIES as u64);
        }
        assert_eq!(registry.cache_evictions.get(), MAX_ENTRIES as u64);
        assert_eq!(cache.len(), 10);
        assert_eq!(registry.cache_entries.get(), 10);
        for budget in [1_000, budgets.end - 1] {
            let direct = ConstrainedExecutor::new(&ba, &schedules)
                .with_state_budget(budget)
                .throughput(reference);
            assert_eq!(cache.throughput(&ba, &schedules, reference, budget), direct);
        }
    }

    /// Probes interning into a reused arena — the cache's own, or the
    /// shared one a task borrows — answer exactly like fresh ones, in
    /// whatever order configurations of different sizes arrive.
    #[test]
    fn reused_probe_arenas_match_fresh_explorations() {
        let (mut ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::disabled();
        let mut task = cache.task_cache();
        for (i, slices) in [[5, 5], [1, 1], [10, 10], [2, 7], [1, 1], [9, 3]]
            .into_iter()
            .enumerate()
        {
            ba.set_slices(&slices);
            let fresh = ConstrainedExecutor::new(&ba, &schedules)
                .with_state_budget(100_000)
                .throughput(reference);
            let reused = if i % 2 == 0 {
                cache.throughput(&ba, &schedules, reference, 100_000)
            } else {
                task.throughput_via(Some(&cache), &ba, &schedules, reference, 100_000)
            };
            assert_eq!(reused, fresh, "slices {slices:?}");
        }
        // A budget error mid-probe leaves nothing behind either.
        assert!(cache.throughput(&ba, &schedules, reference, 3).is_err());
        let fresh = ConstrainedExecutor::new(&ba, &schedules)
            .with_state_budget(100_000)
            .throughput(reference);
        assert_eq!(cache.throughput(&ba, &schedules, reference, 100_000), fresh);
    }

    #[test]
    fn errors_are_cached_too() {
        let (ba, schedules, reference) = setup([5, 5]);
        let mut cache = ThroughputCache::new();
        // A 1-state budget cannot close the recurrence.
        let e1 = cache.throughput(&ba, &schedules, reference, 1).unwrap_err();
        let e2 = cache.throughput(&ba, &schedules, reference, 1).unwrap_err();
        assert_eq!(e1, e2);
        assert!(matches!(e1, SdfError::BudgetExceeded { .. }));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }
}
