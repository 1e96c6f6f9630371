//! Graph transformations with known analysis-preserving properties.
//!
//! Besides their practical uses, these make powerful *metamorphic* tests
//! of the analysis engines: reversing a graph or scaling its execution
//! times changes the structure in a way whose effect on throughput is
//! known exactly, so any disagreement exposes an engine bug.

use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::ids::ActorId;
use crate::rational::Rational;

/// Reverses every channel of the graph (tokens stay on their channels).
///
/// Reversal preserves consistency, the repetition vector, liveness and —
/// the classic result — the iteration throughput: every cycle keeps its
/// execution-time sum and token sum, so the critical-cycle ratio is
/// unchanged.
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::{SdfGraph, transform::reverse};
/// let mut g = SdfGraph::new("ring");
/// let a = g.add_actor("a", 2);
/// let b = g.add_actor("b", 3);
/// g.add_channel("ab", a, 1, b, 1, 0);
/// g.add_channel("ba", b, 1, a, 1, 1);
/// let r = reverse(&g);
/// let ab = r.channel_by_name("ab").unwrap();
/// assert_eq!(r.channel(ab).src(), b);
/// assert_eq!(r.channel(ab).dst(), a);
/// ```
pub fn reverse(graph: &SdfGraph) -> SdfGraph {
    let mut out = SdfGraph::new(format!("{}_rev", graph.name()));
    for (_, actor) in graph.actors() {
        out.add_actor(actor.name(), actor.execution_time());
    }
    for (_, ch) in graph.channels() {
        out.add_channel(
            ch.name(),
            ch.dst(),
            ch.consumption_rate(),
            ch.src(),
            ch.production_rate(),
            ch.initial_tokens(),
        );
    }
    out
}

/// The subgraph induced by the weakly connected component of `actor`: the
/// component's actors in ascending index order, the channels between them
/// in channel order, and `actor`'s id in it. On a connected graph it
/// equals the graph.
///
/// Components share no tokens, so each runs at its own rate: the
/// component's repetition vector, cycles and throughput are those it has
/// inside the whole graph.
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::{SdfGraph, transform::weak_component};
/// let mut g = SdfGraph::new("split");
/// let a = g.add_actor("a", 2);
/// let b = g.add_actor("b", 3);
/// let c = g.add_actor("c", 5);
/// g.add_channel("bc", b, 1, c, 1, 0);
/// let (sub, c_in_sub) = weak_component(&g, c);
/// assert_eq!(sub.actor_count(), 2);
/// assert_eq!(sub.actor(c_in_sub).name(), "c");
/// assert_eq!(weak_component(&g, a).0.actor_count(), 1);
/// ```
pub fn weak_component(graph: &SdfGraph, actor: ActorId) -> (SdfGraph, ActorId) {
    let (component, _) = graph.weak_components();
    let mine = component[actor.index()];
    let mut sub = SdfGraph::new(graph.name());
    let mut ids = vec![None; graph.actor_count()];
    for (a, act) in graph.actors() {
        if component[a.index()] == mine {
            ids[a.index()] = Some(sub.add_actor(act.name(), act.execution_time()));
        }
    }
    for (_, ch) in graph.channels() {
        if let (Some(src), Some(dst)) = (ids[ch.src().index()], ids[ch.dst().index()]) {
            sub.add_channel(
                ch.name(),
                src,
                ch.production_rate(),
                dst,
                ch.consumption_rate(),
                ch.initial_tokens(),
            );
        }
    }
    (
        sub,
        ids[actor.index()].expect("an actor lies in its own component"),
    )
}

/// Multiplies every execution time by `factor`.
///
/// Scaling time dilates the whole execution: the throughput of the scaled
/// graph is exactly `1/factor` of the original's.
///
/// # Panics
///
/// Panics if `factor` is zero (zero-time graphs have no well-defined
/// period).
pub fn scale_execution_times(graph: &SdfGraph, factor: u64) -> SdfGraph {
    assert!(factor > 0, "scaling factor must be positive");
    let mut out = SdfGraph::new(format!("{}_x{}", graph.name(), factor));
    for (_, actor) in graph.actors() {
        out.add_actor(actor.name(), actor.execution_time() * factor);
    }
    for (_, ch) in graph.channels() {
        out.add_channel(
            ch.name(),
            ch.src(),
            ch.production_rate(),
            ch.dst(),
            ch.consumption_rate(),
            ch.initial_tokens(),
        );
    }
    out
}

/// Multiplies every channel's rates and initial tokens by `factor`.
///
/// Rate scaling leaves the repetition vector, liveness and throughput
/// untouched: each firing moves `factor×` the data through `factor×` the
/// buffered tokens.
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn scale_rates(graph: &SdfGraph, factor: u64) -> SdfGraph {
    assert!(factor > 0, "scaling factor must be positive");
    let mut out = SdfGraph::new(format!("{}_r{}", graph.name(), factor));
    for (_, actor) in graph.actors() {
        out.add_actor(actor.name(), actor.execution_time());
    }
    for (_, ch) in graph.channels() {
        out.add_channel(
            ch.name(),
            ch.src(),
            ch.production_rate() * factor,
            ch.dst(),
            ch.consumption_rate() * factor,
            ch.initial_tokens() * factor,
        );
    }
    out
}

/// Checks the reversal theorem on one graph: iteration throughput of
/// `graph` equals that of its reversal. Returns both values.
///
/// # Errors
///
/// Propagates analysis failures from either graph.
pub fn check_reversal_invariance(graph: &SdfGraph) -> Result<(Rational, Rational), SdfError> {
    use crate::analysis::selftimed::SelfTimedExecutor;
    let reference = graph.actor_ids().next().ok_or(SdfError::Empty)?;
    let fwd = SelfTimedExecutor::new(graph)
        .throughput(reference)?
        .iteration_throughput;
    let rev_graph = reverse(graph);
    let bwd = SelfTimedExecutor::new(&rev_graph)
        .throughput(reference)?
        .iteration_throughput;
    Ok((fwd, bwd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::selftimed::self_timed_throughput;

    fn ring() -> SdfGraph {
        let mut g = SdfGraph::new("ring");
        let a = g.add_actor("a", 2);
        let b = g.add_actor("b", 3);
        let c = g.add_actor("c", 1);
        g.add_self_edge(a, 1);
        g.add_self_edge(b, 1);
        g.add_self_edge(c, 1);
        g.add_channel("ab", a, 2, b, 1, 0);
        g.add_channel("bc", b, 1, c, 2, 0);
        g.add_channel("ca", c, 2, a, 2, 4);
        g
    }

    #[test]
    fn weak_component_of_a_connected_graph_is_the_graph() {
        let g = ring();
        for a in g.actor_ids() {
            assert_eq!(weak_component(&g, a), (g.clone(), a));
        }
    }

    #[test]
    fn reversal_preserves_throughput() {
        let g = ring();
        let (fwd, bwd) = check_reversal_invariance(&g).unwrap();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn reversal_preserves_gamma_and_liveness() {
        let g = ring();
        let r = reverse(&g);
        assert_eq!(
            g.repetition_vector().unwrap().as_slice(),
            r.repetition_vector().unwrap().as_slice()
        );
        assert!(crate::analysis::deadlock::is_live(&r));
        // Reversing twice gives back the original structure.
        let rr = reverse(&r);
        for (d, ch) in g.channels() {
            let back = rr.channel(d);
            assert_eq!(ch.src(), back.src());
            assert_eq!(ch.dst(), back.dst());
            assert_eq!(ch.production_rate(), back.production_rate());
        }
    }

    #[test]
    fn time_scaling_divides_throughput() {
        let g = ring();
        let a = g.actor_ids().next().unwrap();
        let base = self_timed_throughput(&g, a).unwrap().iteration_throughput;
        for factor in [2u64, 3, 7] {
            let scaled = scale_execution_times(&g, factor);
            let thr = self_timed_throughput(&scaled, a)
                .unwrap()
                .iteration_throughput;
            assert_eq!(thr * Rational::from_integer(factor as i128), base);
        }
    }

    #[test]
    fn rate_scaling_preserves_throughput_and_gamma() {
        let g = ring();
        let a = g.actor_ids().next().unwrap();
        let base = self_timed_throughput(&g, a).unwrap().iteration_throughput;
        for factor in [2u64, 5] {
            let scaled = scale_rates(&g, factor);
            assert_eq!(
                g.repetition_vector().unwrap().as_slice(),
                scaled.repetition_vector().unwrap().as_slice()
            );
            let thr = self_timed_throughput(&scaled, a)
                .unwrap()
                .iteration_throughput;
            assert_eq!(thr, base);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        scale_execution_times(&ring(), 0);
    }
}
