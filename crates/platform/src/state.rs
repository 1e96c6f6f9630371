//! Resource occupancy tracking (the Ω function of Section 5, extended to
//! every tile resource).
//!
//! The paper models pre-occupied time wheels through Ω : T → ℕ₀ and assumes
//! the remaining resources are fully available. For the multi-application
//! experiments of Section 10 an allocation run must *carry over* the
//! resources claimed by each successfully bound application, so
//! [`PlatformState`] tracks the used share of all five tile resources.

use crate::graph::{ArchitectureGraph, TileId};

/// The resources of one tile still available to the application under
/// allocation (tile specification minus occupancy by earlier
/// applications — the paper's "resources that are not available should not
/// be specified").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCapacity {
    /// Remaining TDMA wheel time `w − Ω(t)`.
    pub wheel: u64,
    /// Remaining memory (bits).
    pub memory: u64,
    /// Remaining NI connections.
    pub connections: u32,
    /// Remaining incoming bandwidth.
    pub bandwidth_in: u64,
    /// Remaining outgoing bandwidth.
    pub bandwidth_out: u64,
}

/// Amount of every tile resource used by already-allocated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileUsage {
    /// Occupied TDMA wheel time Ω(t) (time units).
    pub wheel: u64,
    /// Occupied memory (bits).
    pub memory: u64,
    /// Claimed NI connections.
    pub connections: u32,
    /// Claimed incoming bandwidth (bits/time-unit).
    pub bandwidth_in: u64,
    /// Claimed outgoing bandwidth (bits/time-unit).
    pub bandwidth_out: u64,
}

/// Mutable occupancy of an [`ArchitectureGraph`] across successive
/// application allocations.
///
/// # Examples
///
/// ```
/// use sdfrs_platform::{ArchitectureGraph, Tile, PlatformState, TileUsage};
/// let mut arch = ArchitectureGraph::new("a");
/// let t = arch.add_tile(Tile::new("t", "p".into(), 10, 100, 2, 50, 50));
/// let mut state = PlatformState::new(&arch);
/// assert_eq!(state.available_wheel(&arch, t), 10);
/// state.claim(t, TileUsage { wheel: 4, memory: 60, connections: 1,
///     bandwidth_in: 10, bandwidth_out: 0 });
/// assert_eq!(state.available_wheel(&arch, t), 6);
/// assert_eq!(state.available_memory(&arch, t), 40);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformState {
    usage: Vec<TileUsage>,
}

impl PlatformState {
    /// Fresh state: nothing occupied.
    pub fn new(arch: &ArchitectureGraph) -> Self {
        PlatformState {
            usage: vec![TileUsage::default(); arch.tile_count()],
        }
    }

    /// Current usage of one tile.
    pub fn usage(&self, tile: TileId) -> TileUsage {
        self.usage[tile.index()]
    }

    /// Occupied wheel time Ω(t).
    pub fn wheel_used(&self, tile: TileId) -> u64 {
        self.usage[tile.index()].wheel
    }

    /// Remaining TDMA wheel: `w_t − Ω(t)`.
    pub fn available_wheel(&self, arch: &ArchitectureGraph, tile: TileId) -> u64 {
        arch.tile(tile)
            .wheel_size()
            .saturating_sub(self.usage[tile.index()].wheel)
    }

    /// Remaining memory.
    pub fn available_memory(&self, arch: &ArchitectureGraph, tile: TileId) -> u64 {
        arch.tile(tile)
            .memory()
            .saturating_sub(self.usage[tile.index()].memory)
    }

    /// Remaining NI connections.
    pub fn available_connections(&self, arch: &ArchitectureGraph, tile: TileId) -> u32 {
        arch.tile(tile)
            .max_connections()
            .saturating_sub(self.usage[tile.index()].connections)
    }

    /// Remaining incoming bandwidth.
    pub fn available_bandwidth_in(&self, arch: &ArchitectureGraph, tile: TileId) -> u64 {
        arch.tile(tile)
            .bandwidth_in()
            .saturating_sub(self.usage[tile.index()].bandwidth_in)
    }

    /// Remaining outgoing bandwidth.
    pub fn available_bandwidth_out(&self, arch: &ArchitectureGraph, tile: TileId) -> u64 {
        arch.tile(tile)
            .bandwidth_out()
            .saturating_sub(self.usage[tile.index()].bandwidth_out)
    }

    /// Claims additional resources on a tile (saturating).
    pub fn claim(&mut self, tile: TileId, add: TileUsage) {
        let u = &mut self.usage[tile.index()];
        u.wheel = u.wheel.saturating_add(add.wheel);
        u.memory = u.memory.saturating_add(add.memory);
        u.connections = u.connections.saturating_add(add.connections);
        u.bandwidth_in = u.bandwidth_in.saturating_add(add.bandwidth_in);
        u.bandwidth_out = u.bandwidth_out.saturating_add(add.bandwidth_out);
    }

    /// Releases previously claimed resources on a tile (saturating): the
    /// exact inverse of [`claim`](Self::claim) as long as nothing
    /// saturated, which is what lets a departing application hand its
    /// budgets back to later admissions.
    pub fn release(&mut self, tile: TileId, sub: TileUsage) {
        let u = &mut self.usage[tile.index()];
        u.wheel = u.wheel.saturating_sub(sub.wheel);
        u.memory = u.memory.saturating_sub(sub.memory);
        u.connections = u.connections.saturating_sub(sub.connections);
        u.bandwidth_in = u.bandwidth_in.saturating_sub(sub.bandwidth_in);
        u.bandwidth_out = u.bandwidth_out.saturating_sub(sub.bandwidth_out);
    }

    /// Remaining capacity of one tile across all five resources.
    pub fn tile_capacity(&self, arch: &ArchitectureGraph, tile: TileId) -> TileCapacity {
        TileCapacity {
            wheel: self.available_wheel(arch, tile),
            memory: self.available_memory(arch, tile),
            connections: self.available_connections(arch, tile),
            bandwidth_in: self.available_bandwidth_in(arch, tile),
            bandwidth_out: self.available_bandwidth_out(arch, tile),
        }
    }

    /// The remaining capacity of every tile, tile-index order — the
    /// residual view an allocation service reports in its status and that
    /// departures replenish.
    pub fn residual_capacities(&self, arch: &ArchitectureGraph) -> Vec<TileCapacity> {
        arch.tile_ids()
            .map(|t| self.tile_capacity(arch, t))
            .collect()
    }

    /// A deterministic one-line digest of the full per-tile usage
    /// vector — `t<i>:wheel/memory/connections/bw_in/bw_out` joined by
    /// `;`. Two states are byte-equal iff their digests are: this is the
    /// equality witness the networked admission service and its offline
    /// commit-log replay compare across process boundaries.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.usage.len() * 16);
        for (i, u) in self.usage.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            let _ = write!(
                out,
                "t{i}:{}/{}/{}/{}/{}",
                u.wheel, u.memory, u.connections, u.bandwidth_in, u.bandwidth_out
            );
        }
        out
    }

    /// Total usage summed over all tiles (for resource-efficiency
    /// reporting, Table 5).
    pub fn total_usage(&self) -> TileUsage {
        let mut total = TileUsage::default();
        for u in &self.usage {
            total.wheel += u.wheel;
            total.memory += u.memory;
            total.connections += u.connections;
            total.bandwidth_in += u.bandwidth_in;
            total.bandwidth_out += u.bandwidth_out;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tile;

    fn arch() -> (ArchitectureGraph, TileId, TileId) {
        let mut a = ArchitectureGraph::new("a");
        let t1 = a.add_tile(Tile::new("t1", "p".into(), 10, 100, 2, 50, 60));
        let t2 = a.add_tile(Tile::new("t2", "p".into(), 20, 200, 4, 70, 80));
        (a, t1, t2)
    }

    #[test]
    fn fresh_state_has_everything_available() {
        let (a, t1, t2) = arch();
        let s = PlatformState::new(&a);
        assert_eq!(s.available_wheel(&a, t1), 10);
        assert_eq!(s.available_wheel(&a, t2), 20);
        assert_eq!(s.available_memory(&a, t1), 100);
        assert_eq!(s.available_connections(&a, t2), 4);
        assert_eq!(s.available_bandwidth_in(&a, t1), 50);
        assert_eq!(s.available_bandwidth_out(&a, t2), 80);
        assert_eq!(s.wheel_used(t1), 0);
    }

    #[test]
    fn claims_accumulate() {
        let (a, t1, _) = arch();
        let mut s = PlatformState::new(&a);
        s.claim(
            t1,
            TileUsage {
                wheel: 3,
                memory: 40,
                connections: 1,
                bandwidth_in: 10,
                bandwidth_out: 20,
            },
        );
        s.claim(
            t1,
            TileUsage {
                wheel: 2,
                memory: 10,
                connections: 1,
                bandwidth_in: 5,
                bandwidth_out: 0,
            },
        );
        assert_eq!(s.available_wheel(&a, t1), 5);
        assert_eq!(s.available_memory(&a, t1), 50);
        assert_eq!(s.available_connections(&a, t1), 0);
        assert_eq!(s.available_bandwidth_in(&a, t1), 35);
        assert_eq!(s.available_bandwidth_out(&a, t1), 40);
        assert_eq!(s.usage(t1).wheel, 5);
    }

    #[test]
    fn release_undoes_claim_exactly() {
        let (a, t1, t2) = arch();
        let mut s = PlatformState::new(&a);
        let before = s.clone();
        let use1 = TileUsage {
            wheel: 3,
            memory: 40,
            connections: 1,
            bandwidth_in: 10,
            bandwidth_out: 20,
        };
        let use2 = TileUsage {
            wheel: 7,
            memory: 30,
            connections: 2,
            bandwidth_in: 5,
            bandwidth_out: 0,
        };
        s.claim(t1, use1);
        s.claim(t2, use2);
        s.release(t1, use1);
        s.release(t2, use2);
        assert_eq!(s, before, "claim followed by release must be a no-op");
    }

    #[test]
    fn over_release_saturates_at_zero() {
        let (a, t1, _) = arch();
        let mut s = PlatformState::new(&a);
        s.claim(
            t1,
            TileUsage {
                wheel: 2,
                ..TileUsage::default()
            },
        );
        s.release(
            t1,
            TileUsage {
                wheel: 999,
                memory: 999,
                connections: 9,
                bandwidth_in: 9,
                bandwidth_out: 9,
            },
        );
        assert_eq!(s.usage(t1), TileUsage::default());
    }

    #[test]
    fn over_claim_saturates() {
        let (a, t1, _) = arch();
        let mut s = PlatformState::new(&a);
        s.claim(
            t1,
            TileUsage {
                wheel: 999,
                ..TileUsage::default()
            },
        );
        assert_eq!(s.available_wheel(&a, t1), 0);
    }

    #[test]
    fn residual_capacities_reflect_claims_and_releases() {
        let (a, t1, _) = arch();
        let mut s = PlatformState::new(&a);
        let fresh = s.residual_capacities(&a);
        assert_eq!(fresh.len(), a.tile_count());
        let use1 = TileUsage {
            wheel: 4,
            memory: 40,
            connections: 1,
            bandwidth_in: 10,
            bandwidth_out: 20,
        };
        s.claim(t1, use1);
        let claimed = s.residual_capacities(&a);
        assert_eq!(claimed[0].wheel, fresh[0].wheel - 4);
        assert_eq!(claimed[0].memory, fresh[0].memory - 40);
        assert_eq!(claimed[1], fresh[1]);
        s.release(t1, use1);
        assert_eq!(s.residual_capacities(&a), fresh);
    }

    #[test]
    fn totals_sum_over_tiles() {
        let (a, t1, t2) = arch();
        let mut s = PlatformState::new(&a);
        s.claim(
            t1,
            TileUsage {
                wheel: 1,
                memory: 2,
                connections: 1,
                bandwidth_in: 3,
                bandwidth_out: 4,
            },
        );
        s.claim(
            t2,
            TileUsage {
                wheel: 10,
                memory: 20,
                connections: 2,
                bandwidth_in: 30,
                bandwidth_out: 40,
            },
        );
        let t = s.total_usage();
        assert_eq!(t.wheel, 11);
        assert_eq!(t.memory, 22);
        assert_eq!(t.connections, 3);
        assert_eq!(t.bandwidth_in, 33);
        assert_eq!(t.bandwidth_out, 44);
    }
}
