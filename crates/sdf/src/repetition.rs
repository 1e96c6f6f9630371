//! Repetition vectors and consistency (Definition 2).
//!
//! The repetition vector γ gives the relative firing counts that return the
//! token distribution to its initial value. A graph with a non-trivial γ is
//! *consistent*; anything else needs unbounded memory or deadlocks and is
//! rejected by every other analysis in this crate.

use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::ids::ActorId;
use crate::rational::{gcd, lcm, Rational};

/// The smallest non-trivial repetition vector of a consistent graph.
///
/// Indexed by [`ActorId`]; all entries are strictly positive.
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::SdfGraph;
/// let mut g = SdfGraph::new("multirate");
/// let a = g.add_actor("a", 1);
/// let b = g.add_actor("b", 1);
/// g.add_channel("d", a, 2, b, 3, 0);
/// let gamma = g.repetition_vector()?;
/// assert_eq!(gamma[a], 3);
/// assert_eq!(gamma[b], 2);
/// # Ok::<(), sdfrs_sdf::SdfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    entries: Vec<u64>,
}

impl RepetitionVector {
    /// The entry for one actor.
    pub fn get(&self, actor: ActorId) -> u64 {
        self.entries[actor.index()]
    }

    /// All entries, indexed by actor index.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    /// Total firings in one iteration: Σ_a γ(a). This is exactly the number
    /// of actors in the equivalent HSDFG.
    pub fn total_firings(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// Number of actors covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the vector covers no actors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::ops::Index<ActorId> for RepetitionVector {
    type Output = u64;
    fn index(&self, actor: ActorId) -> &u64 {
        &self.entries[actor.index()]
    }
}

impl SdfGraph {
    /// Computes the smallest non-trivial repetition vector (Definition 2).
    ///
    /// Works per weakly-connected component: fractional firing ratios are
    /// propagated over channels, checked against every balance equation
    /// `p·γ(a) = q·γ(b)`, and finally scaled to the smallest integer
    /// solution.
    ///
    /// # Errors
    ///
    /// [`SdfError::Empty`] on an actor-less graph,
    /// [`SdfError::Inconsistent`] if any balance equation cannot be
    /// satisfied.
    pub fn repetition_vector(&self) -> Result<RepetitionVector, SdfError> {
        if self.actor_count() == 0 {
            return Err(SdfError::Empty);
        }
        let n = self.actor_count();
        let mut ratio: Vec<Option<Rational>> = vec![None; n];

        // Propagate ratios over each weakly connected component.
        for root in 0..n {
            if ratio[root].is_some() {
                continue;
            }
            ratio[root] = Some(Rational::ONE);
            let mut stack = vec![root];
            while let Some(u) = stack.pop() {
                let gu = ratio[u].expect("visited actors have a ratio");
                let actor = ActorId::from_index(u);
                for &ch in self.outgoing(actor).iter().chain(self.incoming(actor)) {
                    let c = self.channel(ch);
                    let (src, dst) = (c.src().index(), c.dst().index());
                    let (p, q) = (
                        Rational::from_integer(c.production_rate() as i128),
                        Rational::from_integer(c.consumption_rate() as i128),
                    );
                    // Balance: p·γ(src) = q·γ(dst)  ⇒  γ(dst) = γ(src)·p/q.
                    let (other, expected) = if u == src {
                        (dst, gu * p / q)
                    } else {
                        (src, gu * q / p)
                    };
                    match ratio[other] {
                        None => {
                            ratio[other] = Some(expected);
                            stack.push(other);
                        }
                        Some(existing) => {
                            if existing != expected {
                                return Err(SdfError::Inconsistent { channel: ch });
                            }
                        }
                    }
                }
            }
        }

        // Scale each component's fractions to the smallest integer vector.
        // lcm of denominators clears fractions; dividing by the gcd of the
        // numerators yields the smallest non-trivial solution.
        let fracs: Vec<Rational> = ratio.into_iter().map(|r| r.expect("all visited")).collect();
        let (component, comp_count) = self.weak_components();

        let mut comp_lcm = vec![1u128; comp_count];
        for (i, f) in fracs.iter().enumerate() {
            comp_lcm[component[i]] = lcm(comp_lcm[component[i]], f.denom() as u128);
        }
        let mut scaled = vec![0u128; n];
        for (i, f) in fracs.iter().enumerate() {
            let v = f.numer() as u128 * (comp_lcm[component[i]] / f.denom() as u128);
            scaled[i] = v;
        }
        let mut comp_gcd = vec![0u128; comp_count];
        for (i, &v) in scaled.iter().enumerate() {
            comp_gcd[component[i]] = gcd(comp_gcd[component[i]], v);
        }
        let entries = scaled
            .iter()
            .enumerate()
            .map(|(i, &v)| (v / comp_gcd[component[i]]) as u64)
            .collect();
        Ok(RepetitionVector { entries })
    }

    /// `true` iff the graph has a non-trivial repetition vector.
    pub fn is_consistent(&self) -> bool {
        self.repetition_vector().is_ok()
    }

    /// The weakly connected component of every actor, and how many there
    /// are. Components are numbered in order of their lowest actor index,
    /// so component 0 holds actor 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdfrs_sdf::SdfGraph;
    /// let mut g = SdfGraph::new("two");
    /// let a = g.add_actor("a", 1);
    /// g.add_actor("b", 1);
    /// let c = g.add_actor("c", 1);
    /// g.add_channel("ac", a, 1, c, 1, 0);
    /// assert_eq!(g.weak_components(), (vec![0, 1, 0], 2));
    /// ```
    pub fn weak_components(&self) -> (Vec<usize>, usize) {
        let n = self.actor_count();
        let mut component = vec![usize::MAX; n];
        let mut count = 0;
        for root in 0..n {
            if component[root] != usize::MAX {
                continue;
            }
            component[root] = count;
            let mut stack = vec![root];
            while let Some(u) = stack.pop() {
                let actor = ActorId::from_index(u);
                for &ch in self.outgoing(actor).iter().chain(self.incoming(actor)) {
                    let c = self.channel(ch);
                    for v in [c.src().index(), c.dst().index()] {
                        if component[v] == usize::MAX {
                            component[v] = count;
                            stack.push(v);
                        }
                    }
                }
            }
            count += 1;
        }
        (component, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rate_chain() {
        let mut g = SdfGraph::new("chain");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        let c = g.add_actor("c", 1);
        g.add_channel("ab", a, 1, b, 1, 0);
        g.add_channel("bc", b, 1, c, 1, 0);
        let gamma = g.repetition_vector().unwrap();
        assert_eq!(gamma.as_slice(), &[1, 1, 1]);
        assert_eq!(gamma.total_firings(), 3);
    }

    #[test]
    fn multirate() {
        let mut g = SdfGraph::new("mr");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        let c = g.add_actor("c", 1);
        g.add_channel("ab", a, 2, b, 3, 0);
        g.add_channel("bc", b, 1, c, 2, 0);
        // γ(a)·2 = γ(b)·3, γ(b)·1 = γ(c)·2 ⇒ γ = (3,2,1) scaled: a=3? check:
        // a=3 ⇒ b=2 ⇒ c=1. Smallest integers.
        let gamma = g.repetition_vector().unwrap();
        assert_eq!(gamma[a], 3);
        assert_eq!(gamma[b], 2);
        assert_eq!(gamma[c], 1);
    }

    #[test]
    fn h263_shape() {
        // The H.263 decoder from Fig 1: γ = (1, 2376, 2376, 1), HSDF size
        // 4754.
        let mut g = SdfGraph::new("h263");
        let vld = g.add_actor("vld", 1);
        let iq = g.add_actor("iq", 1);
        let idct = g.add_actor("idct", 1);
        let mc = g.add_actor("mc", 1);
        g.add_channel("v_i", vld, 2376, iq, 1, 0);
        g.add_channel("i_d", iq, 1, idct, 1, 0);
        g.add_channel("d_m", idct, 1, mc, 2376, 0);
        g.add_channel("m_v", mc, 1, vld, 1, 1);
        let gamma = g.repetition_vector().unwrap();
        assert_eq!(gamma[vld], 1);
        assert_eq!(gamma[iq], 2376);
        assert_eq!(gamma[idct], 2376);
        assert_eq!(gamma[mc], 1);
        assert_eq!(gamma.total_firings(), 4754);
    }

    #[test]
    fn inconsistent_cycle() {
        let mut g = SdfGraph::new("bad");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_channel("ab", a, 1, b, 1, 0);
        let bad = g.add_channel("ba", b, 2, a, 1, 0);
        match g.repetition_vector() {
            Err(SdfError::Inconsistent { channel }) => assert_eq!(channel, bad),
            other => panic!("expected inconsistency, got {other:?}"),
        }
        assert!(!g.is_consistent());
    }

    #[test]
    fn disconnected_components_scale_independently() {
        let mut g = SdfGraph::new("two");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        let c = g.add_actor("c", 1);
        let d = g.add_actor("d", 1);
        g.add_channel("ab", a, 2, b, 1, 0);
        g.add_channel("cd", c, 1, d, 5, 0);
        let gamma = g.repetition_vector().unwrap();
        assert_eq!(gamma[a], 1);
        assert_eq!(gamma[b], 2);
        assert_eq!(gamma[c], 5);
        assert_eq!(gamma[d], 1);
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(SdfGraph::new("e").repetition_vector(), Err(SdfError::Empty));
    }

    #[test]
    fn self_edge_only() {
        let mut g = SdfGraph::new("s");
        let a = g.add_actor("a", 1);
        g.add_self_edge(a, 1);
        let gamma = g.repetition_vector().unwrap();
        assert_eq!(gamma[a], 1);
    }

    #[test]
    fn balance_holds_for_every_channel() {
        let mut g = SdfGraph::new("misc");
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        let c = g.add_actor("c", 1);
        g.add_channel("ab", a, 6, b, 4, 0);
        g.add_channel("bc", b, 10, c, 15, 0);
        g.add_channel("ca", c, 9, a, 9, 3);
        let gamma = g.repetition_vector().unwrap();
        for (_, ch) in g.channels() {
            assert_eq!(
                ch.production_rate() * gamma[ch.src()],
                ch.consumption_rate() * gamma[ch.dst()],
                "balance equation must hold on {}",
                ch.name()
            );
        }
    }
}
