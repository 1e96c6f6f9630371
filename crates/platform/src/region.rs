//! Region partitions of a platform and transactional resource claims.
//!
//! Large meshes make the single global [`PlatformState`] view a
//! bottleneck: every admission serializes on the whole residual state
//! even when its binding only ever touches a handful of tiles. A
//! [`RegionMap`] partitions the tiles into disjoint [`RegionId`]-typed
//! regions so an admission can run on a *region view*: the tiles of the
//! allowed regions ([`RegionMap::tiles_in`]) are its only binding
//! candidates, and it reads the true residual state on them alone. An
//! allocation computed on the view stays inside the allowed regions, and
//! its cost follows the regions' size, not the platform's.
//!
//! [`ClaimSet`] is the transactional claim/release surface that replaced
//! the ad-hoc per-tile loops: the sparse, sorted set of per-tile
//! resources one allocation occupies, applied and reverted atomically
//! (claims never partially apply — [`ClaimSet::apply`] touches exactly
//! the entries [`ClaimSet::revert`] hands back).
//!
//! # Example
//!
//! ```
//! use sdfrs_platform::{ArchitectureGraph, Tile, PlatformState, TileUsage};
//! use sdfrs_platform::region::{ClaimSet, RegionMap};
//!
//! let mut arch = ArchitectureGraph::new("a");
//! for i in 0..4 {
//!     arch.add_tile(Tile::new(format!("t{i}"), "p".into(), 10, 100, 2, 50, 50));
//! }
//! let map = RegionMap::contiguous(&arch, 2);
//! assert_eq!(map.region_count(), 2);
//!
//! let mut state = PlatformState::new(&arch);
//! let t1 = arch.tile_ids().nth(1).unwrap();
//! let claim: ClaimSet = [(t1, TileUsage { wheel: 4, ..TileUsage::default() })]
//!     .into_iter()
//!     .collect();
//! claim.apply(&mut state);
//! assert_eq!(state.wheel_used(t1), 4);
//! claim.revert(&mut state);
//! assert_eq!(state, PlatformState::new(&arch));
//! ```

use std::fmt;

use crate::graph::{ArchitectureGraph, TileId};
use crate::state::{PlatformState, TileUsage};
use crate::tile_map::TileMap;

/// Identifier of a region within one [`RegionMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates an id from a raw index.
    pub fn from_index(index: usize) -> Self {
        RegionId(index as u32)
    }

    /// The dense index of this region.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A disjoint, total partition of a platform's tiles into regions.
///
/// Region neighborhood is derived from the architecture: two regions are
/// neighbors when a platform connection crosses between them. Neighbor
/// lists are sorted and deduplicated, so escalation chains built from
/// them are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    /// Region of every tile, tile-index order.
    tile_region: Vec<RegionId>,
    /// Tiles of every region, region-index order; each sorted.
    regions: Vec<Vec<TileId>>,
    /// Neighboring regions of every region; sorted, deduplicated.
    neighbors: Vec<Vec<RegionId>>,
}

impl RegionMap {
    /// The trivial partition: one region holding every tile.
    pub fn single(arch: &ArchitectureGraph) -> Self {
        Self::contiguous(arch, 1)
    }

    /// Partitions the tiles into `regions` contiguous index ranges of
    /// near-equal size (the first `tile_count % regions` regions get one
    /// extra tile). `regions` is clamped to `1..=tile_count`; on
    /// row-major meshes contiguous ranges correspond to row bands, so
    /// intra-region tiles stay physically close.
    pub fn contiguous(arch: &ArchitectureGraph, regions: usize) -> Self {
        let tiles = arch.tile_count();
        let count = regions.clamp(1, tiles.max(1));
        let base = tiles / count;
        let extra = tiles % count;
        let mut assignment = Vec::with_capacity(tiles);
        for r in 0..count {
            let len = base + usize::from(r < extra);
            assignment.extend(std::iter::repeat_n(RegionId::from_index(r), len));
        }
        Self::from_assignment(arch, assignment)
    }

    /// Builds a map from an explicit per-tile region assignment
    /// (tile-index order). Region indices must form a dense `0..count`
    /// range with no empty region.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the tile count or a
    /// region index would leave an earlier region empty.
    pub fn from_assignment(arch: &ArchitectureGraph, tile_region: Vec<RegionId>) -> Self {
        assert_eq!(
            tile_region.len(),
            arch.tile_count(),
            "assignment must cover every tile"
        );
        let count = tile_region.iter().map(|r| r.index() + 1).max().unwrap_or(1);
        let mut regions: Vec<Vec<TileId>> = vec![Vec::new(); count];
        for (i, r) in tile_region.iter().enumerate() {
            regions[r.index()].push(TileId::from_index(i));
        }
        assert!(
            regions.iter().all(|ts| !ts.is_empty()),
            "every region must hold at least one tile"
        );
        let mut neighbors: Vec<Vec<RegionId>> = vec![Vec::new(); count];
        for (_, c) in arch.connections() {
            let a = tile_region[c.src().index()];
            let b = tile_region[c.dst().index()];
            if a != b {
                neighbors[a.index()].push(b);
                neighbors[b.index()].push(a);
            }
        }
        for n in &mut neighbors {
            n.sort();
            n.dedup();
        }
        RegionMap {
            tile_region,
            regions,
            neighbors,
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Ids of all regions, index order.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len()).map(RegionId::from_index)
    }

    /// The region holding `tile`.
    pub fn region_of(&self, tile: TileId) -> RegionId {
        self.tile_region[tile.index()]
    }

    /// The tiles of one region, ascending tile index.
    pub fn tiles(&self, region: RegionId) -> &[TileId] {
        &self.regions[region.index()]
    }

    /// Regions connected to `region` by at least one platform
    /// connection; sorted, deduplicated, never containing `region`
    /// itself.
    pub fn neighbors(&self, region: RegionId) -> &[RegionId] {
        &self.neighbors[region.index()]
    }

    /// The tiles of the `allowed` regions, ascending tile index: the
    /// candidate tiles of an admission confined to those regions.
    pub fn tiles_in(&self, allowed: &[RegionId]) -> Vec<TileId> {
        let mut tiles: Vec<TileId> = allowed
            .iter()
            .flat_map(|r| self.regions[r.index()].iter().copied())
            .collect();
        tiles.sort_unstable();
        tiles.dedup();
        tiles
    }

    /// Total TDMA wheel time currently claimed on the tiles of `region`
    /// (the per-region load signal reported by the service metrics).
    pub fn claimed_wheel(&self, state: &PlatformState, region: RegionId) -> u64 {
        self.regions[region.index()]
            .iter()
            .map(|&t| state.wheel_used(t))
            .sum()
    }
}

/// The sparse per-tile resource footprint of one allocation: sorted,
/// non-zero `(tile, usage)` entries applied and reverted as one unit.
///
/// `apply` followed by `revert` is a no-op as long as nothing saturated
/// (see [`PlatformState::release`]), which is the transactional contract
/// the admission service relies on for departures and rebind rollbacks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClaimSet {
    entries: TileMap<TileUsage>,
}

impl FromIterator<(TileId, TileUsage)> for ClaimSet {
    /// Collects per-tile usage in any order, keeping only tiles with
    /// non-zero usage.
    ///
    /// # Panics
    ///
    /// Panics if a tile appears twice.
    fn from_iter<I: IntoIterator<Item = (TileId, TileUsage)>>(iter: I) -> Self {
        ClaimSet {
            entries: iter
                .into_iter()
                .filter(|(_, u)| *u != TileUsage::default())
                .collect(),
        }
    }
}

impl ClaimSet {
    /// The `(tile, usage)` entries, ascending tile index.
    pub fn entries(&self) -> &[(TileId, TileUsage)] {
        self.entries.entries()
    }

    /// `true` when the set claims nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Claims every entry on `state`, making the resources unavailable
    /// to later allocations.
    pub fn apply(&self, state: &mut PlatformState) {
        for &(t, u) in self.entries() {
            state.claim(t, u);
        }
    }

    /// Releases every entry from `state` — the exact inverse of
    /// [`apply`](Self::apply) as long as nothing saturated.
    pub fn revert(&self, state: &mut PlatformState) {
        for &(t, u) in self.entries() {
            state.release(t, u);
        }
    }

    /// `true` when every entry fits the remaining capacity of its tile,
    /// i.e. [`apply`](Self::apply) would not saturate.
    pub fn fits(&self, arch: &ArchitectureGraph, state: &PlatformState) -> bool {
        self.entries().iter().all(|&(t, u)| {
            u.wheel <= state.available_wheel(arch, t)
                && u.memory <= state.available_memory(arch, t)
                && u.connections <= state.available_connections(arch, t)
                && u.bandwidth_in <= state.available_bandwidth_in(arch, t)
                && u.bandwidth_out <= state.available_bandwidth_out(arch, t)
        })
    }

    /// Totals over all entries (for reclamation reporting).
    pub fn total(&self) -> TileUsage {
        let mut total = TileUsage::default();
        for u in self.entries.iter() {
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

    fn line_arch(tiles: usize) -> ArchitectureGraph {
        let mut arch = ArchitectureGraph::new("line");
        let ids: Vec<TileId> = (0..tiles)
            .map(|i| arch.add_tile(Tile::new(format!("t{i}"), "p".into(), 10, 100, 4, 50, 50)))
            .collect();
        for w in ids.windows(2) {
            arch.add_connection(w[0], w[1], 1);
            arch.add_connection(w[1], w[0], 1);
        }
        arch
    }

    #[test]
    fn contiguous_partition_is_total_and_balanced() {
        let arch = line_arch(7);
        let map = RegionMap::contiguous(&arch, 3);
        assert_eq!(map.region_count(), 3);
        let sizes: Vec<usize> = map.region_ids().map(|r| map.tiles(r).len()).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
        for t in arch.tile_ids() {
            assert!(map.tiles(map.region_of(t)).contains(&t));
        }
    }

    #[test]
    fn region_count_is_clamped() {
        let arch = line_arch(2);
        assert_eq!(RegionMap::contiguous(&arch, 0).region_count(), 1);
        assert_eq!(RegionMap::contiguous(&arch, 99).region_count(), 2);
    }

    #[test]
    fn line_neighbors_are_adjacent_regions() {
        let arch = line_arch(6);
        let map = RegionMap::contiguous(&arch, 3);
        assert_eq!(
            map.neighbors(RegionId::from_index(0)),
            &[RegionId::from_index(1)]
        );
        assert_eq!(
            map.neighbors(RegionId::from_index(1)),
            &[RegionId::from_index(0), RegionId::from_index(2)]
        );
        assert_eq!(
            map.neighbors(RegionId::from_index(2)),
            &[RegionId::from_index(1)]
        );
    }

    #[test]
    fn tiles_in_unites_regions_in_tile_order() {
        let arch = line_arch(6);
        let map = RegionMap::contiguous(&arch, 3);
        let ids = |v: &[usize]| v.iter().map(|&i| TileId::from_index(i)).collect::<Vec<_>>();
        assert_eq!(map.tiles_in(&[RegionId::from_index(1)]), ids(&[2, 3]));
        assert_eq!(
            map.tiles_in(&[RegionId::from_index(2), RegionId::from_index(0)]),
            ids(&[0, 1, 4, 5])
        );
        assert!(map.tiles_in(&[]).is_empty());
    }

    #[test]
    fn claim_set_apply_revert_round_trips() {
        let arch = line_arch(3);
        let usage = [
            (
                TileId::from_index(2),
                TileUsage {
                    wheel: 4,
                    ..TileUsage::default()
                },
            ),
            (TileId::from_index(1), TileUsage::default()),
            (
                TileId::from_index(0),
                TileUsage {
                    wheel: 2,
                    memory: 10,
                    connections: 1,
                    bandwidth_in: 5,
                    bandwidth_out: 6,
                },
            ),
        ];
        let claim: ClaimSet = usage.into_iter().collect();
        assert_eq!(claim.entries().len(), 2, "zero entries are dropped");
        assert_eq!(claim.entries()[0].0, TileId::from_index(0), "tile order");
        let mut state = PlatformState::new(&arch);
        let before = state.clone();
        assert!(claim.fits(&arch, &state));
        claim.apply(&mut state);
        assert_eq!(state.wheel_used(TileId::from_index(2)), 4);
        claim.revert(&mut state);
        assert_eq!(state, before);
    }

    #[test]
    fn fits_detects_overdraw() {
        let arch = line_arch(1);
        let mut state = PlatformState::new(&arch);
        state.claim(
            TileId::from_index(0),
            TileUsage {
                wheel: 9,
                ..TileUsage::default()
            },
        );
        let claim = |wheel| -> ClaimSet {
            [(
                TileId::from_index(0),
                TileUsage {
                    wheel,
                    ..TileUsage::default()
                },
            )]
            .into_iter()
            .collect()
        };
        assert!(!claim(2).fits(&arch, &state));
        assert!(claim(1).fits(&arch, &state));
    }

    #[test]
    fn claimed_wheel_sums_per_region() {
        let arch = line_arch(4);
        let map = RegionMap::contiguous(&arch, 2);
        let mut state = PlatformState::new(&arch);
        state.claim(
            TileId::from_index(1),
            TileUsage {
                wheel: 3,
                ..TileUsage::default()
            },
        );
        state.claim(
            TileId::from_index(2),
            TileUsage {
                wheel: 5,
                ..TileUsage::default()
            },
        );
        assert_eq!(map.claimed_wheel(&state, RegionId::from_index(0)), 3);
        assert_eq!(map.claimed_wheel(&state, RegionId::from_index(1)), 5);
    }
}
