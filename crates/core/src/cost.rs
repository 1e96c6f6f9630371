//! The cost functions steering the binding step (Section 9.1).
//!
//! * [`actor_criticality`] — Eqn 1: an SDFG-level estimate of how much an
//!   actor's execution time can limit throughput, computed over the simple
//!   cycles through the actor (avoiding the HSDF conversion a real
//!   critical-cycle analysis would need);
//! * [`TileLoads`] / [`tile_cost`] — Eqn 2: the weighted combination of a
//!   tile's processing, memory and communication load used to rank
//!   candidate tiles.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::{ArchitectureGraph, PlatformState, TileId, TileUsage};
use sdfrs_sdf::analysis::cycles::simple_cycles;
use sdfrs_sdf::{ActorId, Rational, RepetitionVector};

use crate::binding::Binding;
use crate::error::MapError;
use crate::resources::{tile_capacity, tile_demand, TileCapacity};

/// Weights *(c1, c2, c3)* of the tile cost function (Eqn 2).
///
/// The five settings evaluated in the paper's Table 4 are provided as
/// constants, plus the (2, 0, 1) setting of the Sec 10.3 multimedia
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight *c1* of the processing load.
    pub processing: f64,
    /// Weight *c2* of the memory load.
    pub memory: f64,
    /// Weight *c3* of the communication load.
    pub communication: f64,
}

impl CostWeights {
    /// Cost function 1 of Table 4: (1, 0, 0).
    pub const PROCESSING: CostWeights = CostWeights::new(1.0, 0.0, 0.0);
    /// Cost function 2 of Table 4: (0, 1, 0).
    pub const MEMORY: CostWeights = CostWeights::new(0.0, 1.0, 0.0);
    /// Cost function 3 of Table 4: (0, 0, 1).
    pub const COMMUNICATION: CostWeights = CostWeights::new(0.0, 0.0, 1.0);
    /// Cost function 4 of Table 4: (1, 1, 1).
    pub const BALANCED: CostWeights = CostWeights::new(1.0, 1.0, 1.0);
    /// Cost function 5 of Table 4: (0, 1, 2) — minimize connections while
    /// balancing memory.
    pub const TUNED: CostWeights = CostWeights::new(0.0, 1.0, 2.0);
    /// The (2, 0, 1) setting of the Sec 10.3 multimedia experiment.
    pub const MULTIMEDIA: CostWeights = CostWeights::new(2.0, 0.0, 1.0);

    /// Creates a weight triple *(c1, c2, c3)*.
    pub const fn new(processing: f64, memory: f64, communication: f64) -> Self {
        CostWeights {
            processing,
            memory,
            communication,
        }
    }

    /// The five Table 4 settings in row order.
    pub fn table4() -> [CostWeights; 5] {
        [
            CostWeights::PROCESSING,
            CostWeights::MEMORY,
            CostWeights::COMMUNICATION,
            CostWeights::BALANCED,
            CostWeights::TUNED,
        ]
    }
}

impl std::fmt::Display for CostWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.processing, self.memory, self.communication
        )
    }
}

/// Eqn 1: per-actor criticality estimate.
///
/// For every actor, the maximum over the simple cycles through it of
/// `Σ_b γ(b)·sup τ_b / Σ_d Tok(d)/q_d`. Actors on no cycle get cost 0.
/// Cycle enumeration is capped at `max_cycles`; beyond the cap the
/// estimate simply covers fewer cycles (application graphs are small, so
/// the default cap of [`DEFAULT_CYCLE_CAP`] is effectively exhaustive).
///
/// # Errors
///
/// [`MapError::Sdf`] if the graph has no repetition vector (validated
/// applications always do; the error path exists so sweeps over
/// machine-generated inputs observe failures instead of aborting).
///
/// # Examples
///
/// ```
/// use sdfrs_appmodel::apps::paper_example;
/// use sdfrs_core::cost::{actor_criticality, DEFAULT_CYCLE_CAP};
/// let app = paper_example();
/// let crit = actor_criticality(&app, DEFAULT_CYCLE_CAP).unwrap();
/// // Only a1 lies on a cycle (its self-edge d3): γ(a1)·sup τ = 2·4 = 8
/// // over Tok/q = 1.
/// assert_eq!(crit[0], sdfrs_sdf::Rational::from_integer(8));
/// assert_eq!(crit[1], sdfrs_sdf::Rational::ZERO);
/// ```
pub fn actor_criticality(
    app: &ApplicationGraph,
    max_cycles: usize,
) -> Result<Vec<Rational>, MapError> {
    let g = app.graph();
    let gamma = g.repetition_vector()?;
    let (cycles, _) = simple_cycles(g, max_cycles);
    let mut cost = vec![Rational::ZERO; g.actor_count()];
    for cycle in &cycles {
        let mut num = Rational::ZERO;
        let mut den = Rational::ZERO;
        let mut members = Vec::with_capacity(cycle.len());
        for &ch in &cycle.channels {
            let c = g.channel(ch);
            let b = c.src();
            members.push(b);
            num = num
                + Rational::from_integer(gamma[b] as i128)
                    * Rational::from_integer(app.max_execution_time(b) as i128);
            den = den + Rational::new(c.initial_tokens() as i128, c.consumption_rate() as i128);
        }
        // Live graphs have tokens on every cycle; a token-free cycle would
        // deadlock and is treated as infinitely critical.
        let ratio = if den.is_zero() {
            Rational::from_integer(i64::MAX as i128)
        } else {
            num / den
        };
        for b in members {
            cost[b.index()] = cost[b.index()].max(ratio);
        }
    }
    Ok(cost)
}

/// Default cycle-enumeration cap for [`actor_criticality`].
pub const DEFAULT_CYCLE_CAP: usize = 10_000;

/// Actors sorted for the binding step: decreasing criticality, ties in
/// actor order (Sec 9.1: "actors whose execution time has a large impact
/// on the throughput ... are considered first").
///
/// # Errors
///
/// See [`actor_criticality`].
pub fn binding_order(app: &ApplicationGraph, max_cycles: usize) -> Result<Vec<ActorId>, MapError> {
    let crit = actor_criticality(app, max_cycles)?;
    let mut order: Vec<ActorId> = app.graph().actor_ids().collect();
    order.sort_by(|a, b| crit[b.index()].cmp(&crit[a.index()]).then(a.cmp(b)));
    Ok(order)
}

/// The three load terms of Eqn 2 for one tile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TileLoads {
    /// `l_p(t)`: the tile's share of the application's total processing.
    pub processing: f64,
    /// `l_m(t)`: fraction of the tile's memory in use.
    pub memory: f64,
    /// `l_c(t)`: average of the bandwidth and connection fractions in use.
    pub communication: f64,
}

/// Divides `used / capacity` with the conventions needed by partially
/// occupied platforms: an unused zero-capacity resource costs nothing, an
/// overdrawn one costs infinity.
fn fraction(used: f64, capacity: f64) -> f64 {
    if used == 0.0 {
        0.0
    } else if capacity == 0.0 {
        f64::INFINITY
    } else {
        used / capacity
    }
}

/// The binding-independent part of `l_p`: the application's repetition
/// vector and its total γ-weighted worst-case execution time, computed
/// once per binding step and shared by every candidate tile's loads.
pub(crate) struct AppWork {
    gamma: RepetitionVector,
    total: u128,
}

impl AppWork {
    /// # Errors
    ///
    /// [`MapError::Sdf`] if the graph has no repetition vector.
    pub(crate) fn of(app: &ApplicationGraph) -> Result<Self, MapError> {
        let g = app.graph();
        let gamma = g.repetition_vector()?;
        let total = g
            .actor_ids()
            .map(|a| gamma[a] as u128 * app.max_execution_time(a) as u128)
            .sum();
        Ok(AppWork { gamma, total })
    }

    /// The γ-weighted work of `actor` at execution time `tau`.
    pub(crate) fn of_actor(&self, actor: ActorId, tau: u64) -> u128 {
        self.gamma[actor] as u128 * tau as u128
    }

    /// The Eqn 2 loads of a tile that holds `work_here` of the
    /// application's γ-weighted work and carries the Section 7 `demand`,
    /// against its remaining capacity `cap`.
    pub(crate) fn loads(
        &self,
        work_here: u128,
        demand: &TileUsage,
        cap: &TileCapacity,
    ) -> TileLoads {
        // l_p: γ-weighted execution time on this tile over the total
        // γ-weighted worst-case execution time of the whole application.
        let processing = fraction(work_here as f64, self.total as f64);
        // l_m and l_c from the Section 7 demand, against remaining
        // capacity.
        let memory = fraction(demand.memory as f64, cap.memory as f64);
        let communication = (fraction(demand.bandwidth_out as f64, cap.bandwidth_out as f64)
            + fraction(demand.bandwidth_in as f64, cap.bandwidth_in as f64)
            + fraction(demand.connections as f64, cap.connections as f64))
            / 3.0;
        TileLoads {
            processing,
            memory,
            communication,
        }
    }
}

/// Computes the loads `l_p`, `l_m`, `l_c` of one tile under a (partial)
/// binding, normalized against the *remaining* capacities of the tile.
///
/// # Errors
///
/// * [`MapError::Sdf`] if the graph has no repetition vector;
/// * [`MapError::UnsupportedBinding`] if `binding` placed an actor on a
///   tile whose processor type it does not support (only possible with
///   hand-built bindings).
pub fn tile_loads(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    tile: TileId,
) -> Result<TileLoads, MapError> {
    tile_loads_with(&AppWork::of(app)?, app, arch, state, binding, tile)
}

/// [`tile_loads`] with the application's [`AppWork`] computed once by
/// the caller.
pub(crate) fn tile_loads_with(
    work: &AppWork,
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    binding: &Binding,
    tile: TileId,
) -> Result<TileLoads, MapError> {
    let pt = arch.tile(tile).processor_type();
    let mut work_here = 0u128;
    for a in binding.actors_on(tile) {
        let tau = app
            .execution_time(a, pt)
            .ok_or(MapError::UnsupportedBinding { actor: a, tile })?;
        work_here += work.of_actor(a, tau);
    }
    let demand = tile_demand(app, arch, binding, tile);
    Ok(work.loads(work_here, &demand, &tile_capacity(arch, state, tile)))
}

/// Eqn 2: `cost(t) = c1·l_p(t) + c2·l_m(t) + c3·l_c(t)`.
///
/// A term whose weight is 0 contributes 0 even when its load is infinite
/// (a demanded resource with no remaining capacity): with `c_i = 0` Eqn 2
/// ignores that load, where `0·∞` would make the cost NaN and the NaN
/// would compare equal to every other candidate's cost in the ranking.
pub fn tile_cost(weights: CostWeights, loads: TileLoads) -> f64 {
    let term = |weight: f64, load: f64| if weight == 0.0 { 0.0 } else { weight * load };
    term(weights.processing, loads.processing)
        + term(weights.memory, loads.memory)
        + term(weights.communication, loads.communication)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfrs_appmodel::apps::{example_platform, paper_example};

    #[test]
    fn criticality_of_paper_example() {
        let app = paper_example();
        let crit = actor_criticality(&app, DEFAULT_CYCLE_CAP).unwrap();
        // a1: self-cycle d3 with 1 token, q = 1: (γ(a1)=2)·(sup τ = 4) / 1.
        assert_eq!(crit[0], Rational::from_integer(8));
        assert_eq!(crit[1], Rational::ZERO);
        assert_eq!(crit[2], Rational::ZERO);
        let order = binding_order(&app, DEFAULT_CYCLE_CAP).unwrap();
        assert_eq!(
            order,
            vec![
                ActorId::from_index(0),
                ActorId::from_index(1),
                ActorId::from_index(2)
            ]
        );
    }

    #[test]
    fn criticality_multi_actor_cycle() {
        use sdfrs_appmodel::{ActorRequirements, ApplicationGraph, ChannelRequirements};
        use sdfrs_platform::ProcessorType;
        use sdfrs_sdf::SdfGraph;
        let mut g = SdfGraph::new("ring");
        let a = g.add_actor("a", 0);
        let b = g.add_actor("b", 0);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("ba", b, 1, a, 1, 2);
        let app = ApplicationGraph::builder(g, Rational::new(1, 100))
            .actor(
                a,
                ActorRequirements::new().on(ProcessorType::new("p"), 3, 1),
            )
            .actor(
                b,
                ActorRequirements::new().on(ProcessorType::new("p"), 5, 1),
            )
            .channel_default(ChannelRequirements::new(1, 1, 1, 1, 1))
            .build()
            .unwrap();
        let crit = actor_criticality(&app, DEFAULT_CYCLE_CAP).unwrap();
        // Cycle a→b→a: (3 + 5) / (0/1 + 2/1) = 4 for both actors.
        assert_eq!(crit[0], Rational::from_integer(4));
        assert_eq!(crit[1], Rational::from_integer(4));
    }

    #[test]
    fn loads_of_example_binding() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let mut b = Binding::new(3);
        let t1 = TileId::from_index(0);
        let t2 = TileId::from_index(1);
        b.bind(ActorId::from_index(0), t1);
        b.bind(ActorId::from_index(1), t1);
        b.bind(ActorId::from_index(2), t2);
        let l1 = tile_loads(&app, &arch, &state, &b, t1).unwrap();
        // Work on t1: 2·1 + 2·1 = 4 of total 2·4 + 2·7 + 1·3 = 25.
        assert!((l1.processing - 4.0 / 25.0).abs() < 1e-12);
        // Memory demand 225 of 700.
        assert!((l1.memory - 225.0 / 700.0).abs() < 1e-12);
        // Communication: out 10/100, in 0, connections 1/5.
        assert!((l1.communication - (0.1 + 0.0 + 0.2) / 3.0).abs() < 1e-12);
        let l2 = tile_loads(&app, &arch, &state, &b, t2).unwrap();
        assert!((l2.processing - 2.0 / 25.0).abs() < 1e-12);
        assert!((l2.memory - 210.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn cost_combines_weights() {
        let loads = TileLoads {
            processing: 0.5,
            memory: 0.25,
            communication: 0.1,
        };
        assert!((tile_cost(CostWeights::PROCESSING, loads) - 0.5).abs() < 1e-12);
        assert!((tile_cost(CostWeights::MEMORY, loads) - 0.25).abs() < 1e-12);
        assert!((tile_cost(CostWeights::COMMUNICATION, loads) - 0.1).abs() < 1e-12);
        assert!((tile_cost(CostWeights::BALANCED, loads) - 0.85).abs() < 1e-12);
        assert!((tile_cost(CostWeights::TUNED, loads) - 0.45).abs() < 1e-12);
        assert!((tile_cost(CostWeights::new(2.0, 0.0, 1.0), loads) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_ignores_an_infinite_load() {
        let loads = TileLoads {
            processing: 0.5,
            memory: f64::INFINITY,
            communication: 0.1,
        };
        assert_eq!(tile_cost(CostWeights::PROCESSING, loads), 0.5);
        assert_eq!(tile_cost(CostWeights::COMMUNICATION, loads), 0.1);
        assert_eq!(tile_cost(CostWeights::MEMORY, loads), f64::INFINITY);
    }

    #[test]
    fn zero_capacity_conventions() {
        assert_eq!(fraction(0.0, 0.0), 0.0);
        assert_eq!(fraction(1.0, 0.0), f64::INFINITY);
        assert_eq!(fraction(1.0, 4.0), 0.25);
    }

    #[test]
    fn table4_weights_in_row_order() {
        let rows = CostWeights::table4();
        assert_eq!(rows[0], CostWeights::PROCESSING);
        assert_eq!(rows[4], CostWeights::TUNED);
        assert_eq!(rows[4].to_string(), "(0, 1, 2)");
    }
}
