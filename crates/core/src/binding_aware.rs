//! Binding-aware SDFG construction (Section 8.1).
//!
//! The effect of a binding is modeled *into* the graph:
//!
//! * every bound actor gets the execution time of its tile's processor
//!   type and — unless the application already provides one — a self-edge
//!   with one initial token (firings on a tile do not overlap);
//! * a channel whose endpoints share a tile keeps its rates and gains a
//!   reverse channel carrying `α_tile` initial tokens, bounding its buffer;
//! * a channel crossing tiles is split through a *connection actor* `c`
//!   (execution time ℒ(connection) + ⌈sz/β⌉, self-edge so tokens are sent
//!   sequentially) and a *sync actor* `s` (execution time `w − ω` of the
//!   destination tile: the worst-case wait for the application's slice
//!   given unsynchronized wheels); reverse channels with `α_src` / `α_dst`
//!   tokens bound the source and destination buffers.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, TileId};
use sdfrs_sdf::rational::lcm;
use sdfrs_sdf::{ActorId, ChannelId, SdfGraph};

use crate::binding::Binding;
use crate::error::MapError;
use crate::tdma::TdmaSlice;

/// What a binding-aware actor stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaActorKind {
    /// A bound application actor.
    App(ActorId),
    /// The connection actor `c` modeling the transfer of one application
    /// channel over a platform connection.
    Connection(ChannelId),
    /// The sync actor `s` modeling the worst-case wait for the destination
    /// tile's TDMA slice.
    Sync(ChannelId),
}

/// How cross-tile channels are modeled in the binding-aware graph.
///
/// The paper uses a single connection actor `c` and notes it "can be
/// replaced with a more detailed model if available, such as the
/// network-on-chip connection model of \[14\]" — [`PipelinedHops`] is that
/// refinement: the serialization delay ⌈sz/β⌉ and each latency unit of the
/// route become separate pipeline stages, so consecutive tokens overlap in
/// the network instead of occupying one actor for the whole
/// `ℒ + ⌈sz/β⌉`.
///
/// [`PipelinedHops`]: ConnectionModel::PipelinedHops
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnectionModel {
    /// One connection actor with Υ(c) = ℒ + ⌈sz/β⌉ (Sec 8.1, the default).
    #[default]
    Simple,
    /// A serialization stage (Υ = ⌈sz/β⌉) followed by ℒ store-and-forward
    /// hop stages (Υ = 1 each), every stage with its own self-edge. More
    /// accurate (less conservative) for streams of tokens.
    PipelinedHops,
}

/// The binding-aware SDFG of an application bound to an architecture,
/// together with the bookkeeping needed to run constrained executions and
/// to re-target slice allocations without rebuilding.
///
/// # Local tile ids
///
/// The graph numbers the tiles that host application actors once, in
/// ascending [`TileId`] order: the `l`-th used tile is *local tile* `l`.
/// Wheels, slices and the actor→tile map are kept per local tile, so the
/// constrained executor, the list scheduler, the slice search and the
/// throughput memo size their state by the application's tiles, never by
/// the platform's highest tile index. The public accessors
/// ([`tile_of`](Self::tile_of), [`tdma`](Self::tdma),
/// [`slice`](Self::slice), [`set_slices`](Self::set_slices)) speak global
/// tile ids and map onto the local tables.
///
/// # Examples
///
/// Build the graph of Fig 4 (paper example, a1/a2 on t1, a3 on t2, 50%
/// slices) and check Υ(c) = 11 and Υ(s) = 5:
///
/// ```
/// use sdfrs_appmodel::apps::{example_platform, paper_example};
/// use sdfrs_core::{Binding, BindingAwareGraph};
/// use sdfrs_platform::TileId;
///
/// # fn main() -> Result<(), sdfrs_core::MapError> {
/// let app = paper_example();
/// let arch = example_platform();
/// let g = app.graph();
/// let mut binding = Binding::new(g.actor_count());
/// let t1 = TileId::from_index(0);
/// let t2 = TileId::from_index(1);
/// binding.bind(g.actor_by_name("a1").unwrap(), t1);
/// binding.bind(g.actor_by_name("a2").unwrap(), t1);
/// binding.bind(g.actor_by_name("a3").unwrap(), t2);
/// let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5])?;
/// let c = ba.graph().actor_by_name("c_d2").unwrap();
/// let s = ba.graph().actor_by_name("s_d2").unwrap();
/// assert_eq!(ba.graph().actor(c).execution_time(), 11);
/// assert_eq!(ba.graph().actor(s).execution_time(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BindingAwareGraph {
    graph: SdfGraph,
    kinds: Vec<BaActorKind>,
    app_to_ba: Vec<ActorId>,
    /// The used tiles, ascending: local tile `l` is `tiles[l]`.
    tiles: Vec<TileId>,
    /// Local tile of each binding-aware actor (`None` for connection and
    /// sync actors).
    local_of: Vec<Option<usize>>,
    /// Sync actors and the local tile whose wheel they wait for.
    sync_actors: Vec<(ActorId, usize)>,
    /// Wheel size per local tile.
    wheels: Vec<u64>,
    /// Slice assumption per local tile.
    slices: Vec<u64>,
}

impl BindingAwareGraph {
    /// Builds the binding-aware SDFG for a complete binding.
    ///
    /// `slices[t]` is the TDMA slice ω currently assumed for tile index
    /// `t` (values for unused tiles are ignored; 0 is clamped to 1 when a
    /// sync actor needs it).
    ///
    /// # Errors
    ///
    /// * [`MapError::UnboundActor`] if the binding is partial;
    /// * [`MapError::NoFeasibleTile`] if some actor cannot execute on its
    ///   tile's processor type;
    /// * [`MapError::MissingConnection`] if a channel crosses tiles without
    ///   a platform connection;
    /// * [`MapError::ChannelNotMappable`] if a cross-tile channel has zero
    ///   bandwidth.
    pub fn build(
        app: &ApplicationGraph,
        arch: &ArchitectureGraph,
        binding: &Binding,
        slices: &[u64],
    ) -> Result<Self, MapError> {
        Self::build_with_model(app, arch, binding, slices, ConnectionModel::Simple)
    }

    /// Like [`build`](Self::build) with an explicit cross-tile
    /// [`ConnectionModel`].
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build).
    pub fn build_with_model(
        app: &ApplicationGraph,
        arch: &ArchitectureGraph,
        binding: &Binding,
        slices: &[u64],
        model: ConnectionModel,
    ) -> Result<Self, MapError> {
        let src = app.graph();
        let mut graph = SdfGraph::new(format!("{}_bound", src.name()));
        let mut kinds = Vec::new();
        let mut app_to_ba = Vec::with_capacity(src.actor_count());
        let mut sync_actors = Vec::new();

        // Application actors with their bound execution times.
        let mut bound = Vec::with_capacity(src.actor_count());
        for (a, actor) in src.actors() {
            let tile = binding.require(a)?;
            let pt = arch.tile(tile).processor_type();
            let tau = app
                .execution_time(a, pt)
                .ok_or(MapError::NoFeasibleTile { actor: a })?;
            let ba = graph.add_actor(actor.name(), tau);
            debug_assert_eq!(ba.index(), a.index());
            kinds.push(BaActorKind::App(a));
            bound.push(tile);
            app_to_ba.push(ba);
        }
        // The one tile numbering of the flow: used tiles, ascending.
        let mut tiles = bound.clone();
        tiles.sort();
        tiles.dedup();
        let local = |tile: TileId| {
            tiles
                .binary_search(&tile)
                .expect("bound tiles are numbered")
        };
        let mut local_of: Vec<Option<usize>> = bound.iter().map(|&t| Some(local(t))).collect();

        // Self-edges for actors the application leaves unguarded
        // ("adding a self-edge with rates one and one initial token").
        for (a, _) in src.actors() {
            if !src.has_self_edge(a) {
                graph.add_self_edge(app_to_ba[a.index()], 1);
            }
        }

        // Channels: local ones get buffer back-edges; crossing ones are
        // split through connection and sync actors.
        for (d, ch) in src.channels() {
            let a = ch.src();
            let b = ch.dst();
            let ta = bound[a.index()];
            let tb = bound[b.index()];
            let (p, q, tok) = (
                ch.production_rate(),
                ch.consumption_rate(),
                ch.initial_tokens(),
            );
            let theta = app.channel_requirements(d);
            let ba_a = app_to_ba[a.index()];
            let ba_b = app_to_ba[b.index()];
            if ta == tb {
                graph.add_channel(ch.name(), ba_a, p, ba_b, q, tok);
                graph.add_channel(
                    format!("buf_{}", ch.name()),
                    ba_b,
                    q,
                    ba_a,
                    p,
                    theta.buffer_tile,
                );
            } else {
                let (_, conn) =
                    arch.connection_between(ta, tb)
                        .ok_or(MapError::MissingConnection {
                            channel: d,
                            src: ta,
                            dst: tb,
                        })?;
                if theta.bandwidth == 0 {
                    return Err(MapError::ChannelNotMappable { channel: d });
                }
                // The entry stage of the connection: the actor that claims
                // the source/destination buffer slots.
                let entry = match model {
                    ConnectionModel::Simple => {
                        let upsilon_c = conn.latency() + theta.transfer_time();
                        let c = graph.add_actor(format!("c_{}", ch.name()), upsilon_c);
                        kinds.push(BaActorKind::Connection(d));
                        local_of.push(None);
                        graph.add_self_edge(c, 1);
                        c
                    }
                    ConnectionModel::PipelinedHops => {
                        let c = graph.add_actor(format!("c_{}", ch.name()), theta.transfer_time());
                        kinds.push(BaActorKind::Connection(d));
                        local_of.push(None);
                        graph.add_self_edge(c, 1);
                        c
                    }
                };
                // The exit stage: the last network actor before the sync
                // actor.
                let exit = match model {
                    ConnectionModel::Simple => entry,
                    ConnectionModel::PipelinedHops => {
                        let mut prev = entry;
                        for hop in 0..conn.latency() {
                            let h = graph.add_actor(format!("hop{}_{}", hop, ch.name()), 1);
                            kinds.push(BaActorKind::Connection(d));
                            local_of.push(None);
                            graph.add_self_edge(h, 1);
                            graph.add_channel(
                                format!("{}_hop{}", ch.name(), hop),
                                prev,
                                1,
                                h,
                                1,
                                0,
                            );
                            prev = h;
                        }
                        prev
                    }
                };

                // Υ(s) = w − ω of the destination tile, set by
                // `set_slices` below.
                let s = graph.add_actor(format!("s_{}", ch.name()), 0);
                kinds.push(BaActorKind::Sync(d));
                local_of.push(None);
                sync_actors.push((s, local(tb)));

                graph.add_channel(format!("{}_out", ch.name()), ba_a, p, entry, 1, 0);
                graph.add_channel(format!("{}_net", ch.name()), exit, 1, s, 1, 0);
                graph.add_channel(format!("{}_in", ch.name()), s, 1, ba_b, q, tok);
                graph.add_channel(
                    format!("buf_src_{}", ch.name()),
                    entry,
                    1,
                    ba_a,
                    p,
                    theta.buffer_src,
                );
                graph.add_channel(
                    format!("buf_dst_{}", ch.name()),
                    ba_b,
                    q,
                    entry,
                    1,
                    theta.buffer_dst,
                );
            }
        }

        let wheels = tiles.iter().map(|&t| arch.tile(t).wheel_size()).collect();
        let mut ba = BindingAwareGraph {
            graph,
            kinds,
            app_to_ba,
            tiles,
            local_of,
            sync_actors,
            wheels,
            slices: Vec::new(),
        };
        ba.set_slices(slices);
        Ok(ba)
    }

    /// The binding-aware SDFG itself.
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// The binding-aware actor corresponding to an application actor.
    pub fn ba_actor(&self, app_actor: ActorId) -> ActorId {
        self.app_to_ba[app_actor.index()]
    }

    /// What a binding-aware actor stands for.
    pub fn kind(&self, ba_actor: ActorId) -> BaActorKind {
        self.kinds[ba_actor.index()]
    }

    /// The tile a binding-aware actor is bound to (`None` for connection
    /// and sync actors, which execute on the interconnect).
    pub fn tile_of(&self, ba_actor: ActorId) -> Option<TileId> {
        self.local_tile_of(ba_actor).map(|l| self.tiles[l])
    }

    /// Current slice assumption for one tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile` hosts no application actor.
    pub fn slice(&self, tile: TileId) -> u64 {
        self.slices[self.local_tile(tile)]
    }

    /// The TDMA configuration of one tile under the current slices.
    ///
    /// # Panics
    ///
    /// Panics if `tile` hosts no application actor.
    pub fn tdma(&self, tile: TileId) -> TdmaSlice {
        self.local_tdma(self.local_tile(tile))
    }

    /// Re-targets the graph to a new slice allocation: sync-actor
    /// execution times become `w − ω` of their destination tile and the
    /// TDMA configurations returned by [`tdma`](Self::tdma) follow.
    ///
    /// `slices` is indexed by global tile index; tiles past its end keep
    /// their full wheel. Slice values are clamped into `[1, w]`.
    pub fn set_slices(&mut self, slices: &[u64]) {
        let local: Vec<u64> = self
            .tiles
            .iter()
            .map(|t| slices.get(t.index()).copied().unwrap_or(u64::MAX))
            .collect();
        self.set_local_slices(&local);
    }

    /// All tiles that host at least one application actor, ascending.
    pub fn used_tiles(&self) -> Vec<TileId> {
        self.tiles.clone()
    }

    /// The used tiles in local order: local tile `l` is `tiles()[l]`.
    pub(crate) fn tiles(&self) -> &[TileId] {
        &self.tiles
    }

    /// The local tile a binding-aware actor is bound to.
    pub(crate) fn local_tile_of(&self, ba_actor: ActorId) -> Option<usize> {
        self.local_of[ba_actor.index()]
    }

    /// The local id of a used tile.
    fn local_tile(&self, tile: TileId) -> usize {
        self.tiles
            .binary_search(&tile)
            .unwrap_or_else(|_| panic!("tile {tile} hosts no actor of this application"))
    }

    /// The TDMA configuration of local tile `l` under the current slices.
    pub(crate) fn local_tdma(&self, l: usize) -> TdmaSlice {
        TdmaSlice::new(self.wheels[l], self.slices[l])
    }

    /// The TDMA configuration of every local tile, and the hyper-period
    /// (least common multiple) of their wheels.
    pub(crate) fn local_tdmas(&self) -> (Vec<TdmaSlice>, u64) {
        let tdma: Vec<TdmaSlice> = (0..self.tiles.len()).map(|l| self.local_tdma(l)).collect();
        let hyperperiod = tdma
            .iter()
            .fold(1u64, |h, s| lcm(h as u128, s.wheel as u128) as u64);
        (tdma, hyperperiod)
    }

    /// The sync actors and the local tile whose slice each one waits for.
    /// A sync actor's execution time is `w − ω` of that tile, so it is the
    /// one actor kind whose timing changes under
    /// [`set_slices`](Self::set_slices).
    pub(crate) fn sync_actors(&self) -> &[(ActorId, usize)] {
        &self.sync_actors
    }

    /// [`set_slices`](Self::set_slices) with `slices` indexed by local
    /// tile.
    pub(crate) fn set_local_slices(&mut self, slices: &[u64]) {
        self.slices.clear();
        self.slices.extend(
            self.wheels
                .iter()
                .enumerate()
                .map(|(l, &w)| slices.get(l).copied().unwrap_or(w).clamp(1, w)),
        );
        for &(s, l) in &self.sync_actors {
            self.graph
                .set_execution_time(s, self.wheels[l] - self.slices[l]);
        }
    }

    /// Expands a per-local-tile vector to one indexed by global tile index
    /// over `tile_count` platform tiles, 0 for tiles the application does
    /// not use.
    pub(crate) fn to_global(&self, local: &[u64], tile_count: usize) -> Vec<u64> {
        let mut global = vec![0; tile_count];
        for (&t, &v) in self.tiles.iter().zip(local) {
            global[t.index()] = v;
        }
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_sdf::analysis::deadlock::is_live;

    fn example_binding() -> (sdfrs_appmodel::ApplicationGraph, ArchitectureGraph, Binding) {
        let app = paper_example();
        let arch = example_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        binding.bind(g.actor_by_name("a1").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a2").unwrap(), TileId::from_index(0));
        binding.bind(g.actor_by_name("a3").unwrap(), TileId::from_index(1));
        (app, arch, binding)
    }

    #[test]
    fn fig4_structure() {
        let (app, arch, binding) = example_binding();
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        let g = ba.graph();
        // Actors: a1 a2 a3 + c_d2 + s_d2 = 5.
        assert_eq!(g.actor_count(), 5);
        // Execution times from Γ on the bound processor types (Sec 8.1:
        // "The execution time of a1 and a2 is then equal to 1 and the
        // execution time of a3 is equal to 2").
        assert_eq!(g.actor(g.actor_by_name("a1").unwrap()).execution_time(), 1);
        assert_eq!(g.actor(g.actor_by_name("a2").unwrap()).execution_time(), 1);
        assert_eq!(g.actor(g.actor_by_name("a3").unwrap()).execution_time(), 2);
        // Υ(c) = ℒ(c1) + ⌈sz/β⌉ = 1 + 10 = 11; Υ(s) = w − ω = 5.
        assert_eq!(
            g.actor(g.actor_by_name("c_d2").unwrap()).execution_time(),
            11
        );
        assert_eq!(
            g.actor(g.actor_by_name("s_d2").unwrap()).execution_time(),
            5
        );
        // Self-edges added to a2 and a3 only (a1 already has d3).
        let a1 = g.actor_by_name("a1").unwrap();
        let a2 = g.actor_by_name("a2").unwrap();
        let a3 = g.actor_by_name("a3").unwrap();
        assert!(g.has_self_edge(a1));
        assert!(g.has_self_edge(a2));
        assert!(g.has_self_edge(a3));
        assert!(g.channel_by_name("self_a1").is_none(), "a1 keeps d3 only");
        // Buffer back edges: d1 local (α_tile = 1), d2 split (α_src =
        // α_dst = 2).
        assert_eq!(
            g.channel(g.channel_by_name("buf_d1").unwrap())
                .initial_tokens(),
            1
        );
        assert_eq!(
            g.channel(g.channel_by_name("buf_src_d2").unwrap())
                .initial_tokens(),
            2
        );
        assert_eq!(
            g.channel(g.channel_by_name("buf_dst_d2").unwrap())
                .initial_tokens(),
            2
        );
        // The split keeps the multirate consumption at a3.
        let d2_in = g.channel(g.channel_by_name("d2_in").unwrap());
        assert_eq!(d2_in.consumption_rate(), 2);
        assert_eq!(d2_in.production_rate(), 1);
    }

    #[test]
    fn binding_aware_graph_is_consistent_and_live() {
        let (app, arch, binding) = example_binding();
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        assert!(ba.graph().repetition_vector().is_ok());
        assert!(is_live(ba.graph()));
    }

    #[test]
    fn mapping_back_to_application() {
        let (app, arch, binding) = example_binding();
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        let g = app.graph();
        let a3 = g.actor_by_name("a3").unwrap();
        let ba_a3 = ba.ba_actor(a3);
        assert_eq!(ba.kind(ba_a3), BaActorKind::App(a3));
        assert_eq!(ba.tile_of(ba_a3), Some(TileId::from_index(1)));
        let c = ba.graph().actor_by_name("c_d2").unwrap();
        assert!(matches!(ba.kind(c), BaActorKind::Connection(_)));
        assert_eq!(ba.tile_of(c), None);
        assert_eq!(
            ba.used_tiles(),
            vec![TileId::from_index(0), TileId::from_index(1)]
        );
    }

    #[test]
    fn set_slices_updates_sync_actors() {
        let (app, arch, binding) = example_binding();
        let mut ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        let s = ba.graph().actor_by_name("s_d2").unwrap();
        assert_eq!(ba.graph().actor(s).execution_time(), 5);
        ba.set_slices(&[10, 10]);
        assert_eq!(ba.graph().actor(s).execution_time(), 0);
        assert_eq!(ba.slice(TileId::from_index(1)), 10);
        ba.set_slices(&[3, 2]);
        assert_eq!(ba.graph().actor(s).execution_time(), 8);
        assert_eq!(ba.tdma(TileId::from_index(0)), TdmaSlice::new(10, 3));
    }

    #[test]
    fn all_on_one_tile_has_no_connection_actors() {
        let (app, arch, _) = example_binding();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        for (a, _) in g.actors() {
            binding.bind(a, TileId::from_index(0));
        }
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]).unwrap();
        // 3 actors, no c/s.
        assert_eq!(ba.graph().actor_count(), 3);
        // a3 on t1 runs with τ = 3 (processor type p1).
        let a3 = ba.graph().actor_by_name("a3").unwrap();
        assert_eq!(ba.graph().actor(a3).execution_time(), 3);
        assert!(is_live(ba.graph()));
    }

    #[test]
    fn partial_binding_is_rejected() {
        let (app, arch, _) = example_binding();
        let binding = Binding::new(app.graph().actor_count());
        assert!(matches!(
            BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]),
            Err(MapError::UnboundActor { .. })
        ));
    }

    #[test]
    fn missing_connection_is_reported() {
        let (app, _, binding) = example_binding();
        // Platform without the t1→t2 connection.
        let mut arch = ArchitectureGraph::new("disconnected");
        arch.add_tile(sdfrs_platform::Tile::new(
            "t1",
            "p1".into(),
            10,
            700,
            5,
            100,
            100,
        ));
        arch.add_tile(sdfrs_platform::Tile::new(
            "t2",
            "p2".into(),
            10,
            500,
            7,
            100,
            100,
        ));
        assert!(matches!(
            BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]),
            Err(MapError::MissingConnection { .. })
        ));
    }

    #[test]
    fn zero_bandwidth_channel_cannot_cross() {
        // Bind a1 and a2 to different tiles: d1 crosses with β = 100 (ok),
        // but placing the self-edge's owner apart is impossible; instead
        // craft a binding where d3 would cross — impossible for self-edges,
        // so test with d2's β zeroed via a fresh app.
        use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
        use sdfrs_platform::ProcessorType;
        use sdfrs_sdf::Rational;
        let mut g = SdfGraph::new("z");
        let a = g.add_actor("a", 0);
        let b = g.add_actor("b", 0);
        let d = g.add_channel("d", a, 1, b, 1, 0);
        let app = ApplicationGraph::builder(g, Rational::new(1, 100))
            .actor(
                a,
                ActorRequirements::new().on(ProcessorType::new("p1"), 1, 1),
            )
            .actor(
                b,
                ActorRequirements::new().on(ProcessorType::new("p2"), 1, 1),
            )
            .channel(d, ChannelRequirements::new(8, 1, 1, 1, 0))
            .build()
            .unwrap();
        let arch = example_platform();
        let mut binding = Binding::new(2);
        binding.bind(a, TileId::from_index(0));
        binding.bind(b, TileId::from_index(1));
        assert!(matches!(
            BindingAwareGraph::build(&app, &arch, &binding, &[5, 5]),
            Err(MapError::ChannelNotMappable { .. })
        ));
    }
    #[test]
    fn pipelined_hops_structure() {
        let (app, arch, binding) = example_binding();
        let ba = BindingAwareGraph::build_with_model(
            &app,
            &arch,
            &binding,
            &[5, 5],
            ConnectionModel::PipelinedHops,
        )
        .unwrap();
        let g = ba.graph();
        // a1 a2 a3 + c_d2 + hop0_d2 (latency 1) + s_d2 = 6 actors.
        assert_eq!(g.actor_count(), 6);
        let c = g.actor_by_name("c_d2").unwrap();
        assert_eq!(g.actor(c).execution_time(), 10, "serialization only");
        let hop = g.actor_by_name("hop0_d2").unwrap();
        assert_eq!(g.actor(hop).execution_time(), 1);
        assert!(matches!(ba.kind(hop), BaActorKind::Connection(_)));
        assert!(g.repetition_vector().is_ok());
        assert!(is_live(g));
    }

    #[test]
    fn pipelined_model_is_no_slower_than_simple() {
        use sdfrs_sdf::analysis::selftimed::SelfTimedExecutor;
        let (app, arch, binding) = example_binding();
        let thr = |model| {
            let ba =
                BindingAwareGraph::build_with_model(&app, &arch, &binding, &[5, 5], model).unwrap();
            let a3 = ba.graph().actor_by_name("a3").unwrap();
            SelfTimedExecutor::new(ba.graph())
                .throughput(a3)
                .unwrap()
                .actor_throughput
        };
        let simple = thr(ConnectionModel::Simple);
        let pipelined = thr(ConnectionModel::PipelinedHops);
        assert!(
            pipelined >= simple,
            "pipelining the network must not lose throughput ({pipelined} < {simple})"
        );
    }

    #[test]
    fn cross_tile_initial_tokens_start_at_destination() {
        // The h263 feedback channel mc→vld carries one initial token; bind
        // mc and vld apart and the token must appear on the s→vld segment
        // so the graph starts up without waiting for a transfer.
        use sdfrs_appmodel::apps::h263_decoder;
        use sdfrs_platform::mesh::multimedia_platform;
        use sdfrs_sdf::Rational;
        let app = h263_decoder(0, Rational::new(1, 200_000));
        let arch = multimedia_platform();
        let g = app.graph();
        let mut binding = Binding::new(g.actor_count());
        // vld and mc must sit on generic tiles (t00, t10); split iq/idct
        // onto the accelerators.
        binding.bind(
            g.actor_by_name("vld0").unwrap(),
            arch.tile_by_name("t00").unwrap(),
        );
        binding.bind(
            g.actor_by_name("iq0").unwrap(),
            arch.tile_by_name("t01").unwrap(),
        );
        binding.bind(
            g.actor_by_name("idct0").unwrap(),
            arch.tile_by_name("t11").unwrap(),
        );
        binding.bind(
            g.actor_by_name("mc0").unwrap(),
            arch.tile_by_name("t10").unwrap(),
        );
        let slices: Vec<u64> = arch.tile_ids().map(|_| 50).collect();
        let ba = BindingAwareGraph::build(&app, &arch, &binding, &slices).unwrap();
        let bg = ba.graph();
        let feedback_in = bg.channel_by_name("h0_mc_vld_in").unwrap();
        assert_eq!(bg.channel(feedback_in).initial_tokens(), 1);
        let feedback_out = bg.channel_by_name("h0_mc_vld_out").unwrap();
        assert_eq!(bg.channel(feedback_out).initial_tokens(), 0);
        assert!(is_live(bg), "fully split h263 must stay live");
    }
}
