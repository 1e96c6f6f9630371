//! Per-tile values of the few tiles one allocation uses.

use crate::graph::TileId;

/// A value for each tile an allocation uses, ascending tile id; every
/// other tile reads `T::default()`.
///
/// Its size follows the application, not the platform: an allocation on
/// a 4,096-tile mesh that uses two tiles holds two entries.
/// [`iter`](Self::iter) yields the values in tile order, so a sum over
/// it equals the sum over a dense per-tile vector.
///
/// # Examples
///
/// ```
/// use sdfrs_platform::{TileId, TileMap};
/// let slices: TileMap<u64> = [(TileId::from_index(3), 4), (TileId::from_index(1), 6)]
///     .into_iter()
///     .collect();
/// assert_eq!(slices.at(TileId::from_index(3)), 4);
/// assert_eq!(slices.at(TileId::from_index(2)), 0);
/// assert_eq!(slices.iter().sum::<u64>(), 10);
/// assert_eq!(slices.to_dense(5), vec![0, 6, 0, 4, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMap<T> {
    entries: Vec<(TileId, T)>,
}

impl<T> Default for TileMap<T> {
    fn default() -> Self {
        TileMap {
            entries: Vec::new(),
        }
    }
}

impl<T> TileMap<T> {
    /// The `(tile, value)` entries, ascending tile id.
    pub fn entries(&self) -> &[(TileId, T)] {
        &self.entries
    }

    /// The values, ascending tile id.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Number of tiles with a value.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no tile has a value.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of `tile`, if it has one.
    pub fn get(&self, tile: TileId) -> Option<&T> {
        self.entries
            .binary_search_by_key(&tile, |&(t, _)| t)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// A map over the same tiles with `f(tile, value)` as values.
    pub fn map<U>(&self, mut f: impl FnMut(TileId, &T) -> U) -> TileMap<U> {
        TileMap {
            entries: self.entries.iter().map(|(t, v)| (*t, f(*t, v))).collect(),
        }
    }
}

impl<T: Copy + Default> TileMap<T> {
    /// The value of `tile`: `T::default()` for a tile without one.
    pub fn at(&self, tile: TileId) -> T {
        self.get(tile).copied().unwrap_or_default()
    }

    /// The dense vector over `tile_count` platform tiles, indexed by tile
    /// index (for display and for APIs that take one).
    ///
    /// # Panics
    ///
    /// Panics if a tile of the map lies at or past `tile_count`.
    pub fn to_dense(&self, tile_count: usize) -> Vec<T> {
        let mut dense = vec![T::default(); tile_count];
        for &(t, v) in &self.entries {
            dense[t.index()] = v;
        }
        dense
    }
}

impl<T> FromIterator<(TileId, T)> for TileMap<T> {
    /// Collects `(tile, value)` pairs in any order.
    ///
    /// # Panics
    ///
    /// Panics if a tile appears twice.
    fn from_iter<I: IntoIterator<Item = (TileId, T)>>(iter: I) -> Self {
        let mut entries: Vec<(TileId, T)> = iter.into_iter().collect();
        entries.sort_by_key(|&(t, _)| t);
        assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "a tile appears twice in a TileMap"
        );
        TileMap { entries }
    }
}
