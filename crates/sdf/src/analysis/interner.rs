//! Flat, arena-backed interning of execution states.
//!
//! The state-space explorers ([`selftimed`](crate::analysis::selftimed),
//! [`occupancy`](crate::analysis::occupancy), and the constrained executor
//! in `sdfrs-core`) detect recurrence by remembering every visited state.
//! Hashing an [`ExecState`](crate::analysis::selftimed::ExecState) through
//! `HashMap<ExecState, _>` clones one `Vec<u64>` per channel-token vector
//! plus one `Vec<u64>` per actor lane for every explored state, and SipHash
//! re-walks the nested structure on every lookup.
//!
//! [`StateInterner`] replaces that with a single flat encoding per state:
//! the caller serializes the state into a reusable `Vec<u64>` scratch
//! buffer, and the interner stores it once in a shared arena. Lookup is an
//! open-addressing probe over `(precomputed hash, id)` slots — recurrence
//! hits never re-hash, and misses cost one `Vec` extension instead of a
//! nested clone. Ids are dense (`0, 1, 2, …` in insertion order), so
//! per-state payloads live in plain vectors indexed by id.

use sdfrs_fastutil::fxhash::hash_u64s;

/// Slot marker for an empty open-addressing table entry.
const EMPTY: u32 = u32::MAX;

/// States a default interner holds before its slot table first grows.
const DEFAULT_STATES: usize = 1024;

/// Interns `&[u64]`-encoded states, assigning dense ids in first-seen
/// order.
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::analysis::interner::StateInterner;
/// let mut interner = StateInterner::new();
/// let (a, new_a) = interner.intern(&[1, 2, 3]);
/// let (b, new_b) = interner.intern(&[1, 2, 3]);
/// assert_eq!(a, b);
/// assert!(new_a && !new_b);
/// assert_eq!(interner.get(a), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct StateInterner {
    /// Concatenated encodings of all interned states.
    arena: Vec<u64>,
    /// `offsets[id]..offsets[id + 1]` is state `id`'s slice of the arena.
    offsets: Vec<usize>,
    /// Open-addressing slots: precomputed hash + state id.
    slots: Vec<(u64, u32)>,
    /// `slots.len() - 1`; the table size is always a power of two.
    mask: usize,
}

impl StateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_STATES)
    }

    /// Creates an interner pre-sized for roughly `states` entries.
    pub fn with_capacity(states: usize) -> Self {
        Self::in_buffers(Vec::new(), vec![0], states)
    }

    /// An interner over the given (empty) arena and offsets whose slot
    /// table is sized for roughly `states` entries.
    fn in_buffers(arena: Vec<u64>, offsets: Vec<usize>, states: usize) -> Self {
        let table = (states * 2).next_power_of_two().max(16);
        StateInterner {
            arena,
            offsets,
            slots: vec![(0, EMPTY); table],
            mask: table - 1,
        }
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arena words held (diagnostic: memory footprint ∝ this).
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Forgets every interned state but keeps the allocated arena and
    /// slot table, so a sequence of explorations can reuse one interner
    /// without re-growing it from scratch each time.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.slots.fill((0, EMPTY));
    }

    /// An empty interner that stores its states in the allocations of
    /// `arena` and `offsets` (their contents are discarded) behind a
    /// fresh default-size slot table. With
    /// [`into_buffers`](Self::into_buffers) this lets a sequence of
    /// explorations share one arena without keeping a slot table sized
    /// for the largest of them: refilling a grown table costs more than
    /// allocating a small one.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdfrs_sdf::analysis::interner::StateInterner;
    /// let mut first = StateInterner::new();
    /// first.intern(&[1, 2, 3]);
    /// let (arena, offsets) = first.into_buffers();
    /// let mut second = StateInterner::reusing(arena, offsets);
    /// assert!(second.is_empty());
    /// assert_eq!(second.intern(&[4]), (0, true));
    /// ```
    pub fn reusing(mut arena: Vec<u64>, mut offsets: Vec<usize>) -> Self {
        arena.clear();
        offsets.clear();
        offsets.push(0);
        Self::in_buffers(arena, offsets, DEFAULT_STATES)
    }

    /// The arena and offset allocations, for [`reusing`](Self::reusing).
    pub fn into_buffers(self) -> (Vec<u64>, Vec<usize>) {
        (self.arena, self.offsets)
    }

    /// The encoded words of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`intern`](Self::intern).
    pub fn get(&self, id: u32) -> &[u64] {
        let id = id as usize;
        &self.arena[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Interns `words`, returning `(id, freshly_inserted)`. The hash is
    /// computed exactly once per call; a recurrence hit compares slices
    /// only on hash equality.
    pub fn intern(&mut self, words: &[u64]) -> (u32, bool) {
        let hash = hash_u64s(words);
        let mut i = hash as usize & self.mask;
        loop {
            let (slot_hash, slot_id) = self.slots[i];
            if slot_id == EMPTY {
                break;
            }
            if slot_hash == hash && self.get(slot_id) == words {
                return (slot_id, false);
            }
            i = (i + 1) & self.mask;
        }
        let id = self.len() as u32;
        self.arena.extend_from_slice(words);
        self.offsets.push(self.arena.len());
        self.slots[i] = (hash, id);
        // Grow at 7/8 load; stored hashes make the rehash content-free.
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        let new_size = self.slots.len() * 2;
        let mut slots = vec![(0u64, EMPTY); new_size];
        let mask = new_size - 1;
        for &(hash, id) in self.slots.iter().filter(|&&(_, id)| id != EMPTY) {
            let mut i = hash as usize & mask;
            while slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = (hash, id);
        }
        self.slots = slots;
        self.mask = mask;
    }
}

impl Default for StateInterner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_insertion_order() {
        let mut it = StateInterner::new();
        assert!(it.is_empty());
        let (a, _) = it.intern(&[5]);
        let (b, _) = it.intern(&[6, 7]);
        let (c, _) = it.intern(&[]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(it.len(), 3);
        assert_eq!(it.get(0), &[5]);
        assert_eq!(it.get(1), &[6, 7]);
        assert_eq!(it.get(2), &[] as &[u64]);
    }

    #[test]
    fn recurrence_hits_return_original_id() {
        let mut it = StateInterner::new();
        let (a, fresh) = it.intern(&[1, 2, 3]);
        assert!(fresh);
        for _ in 0..5 {
            let (b, fresh) = it.intern(&[1, 2, 3]);
            assert_eq!(b, a);
            assert!(!fresh);
        }
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut it = StateInterner::with_capacity(4);
        let keys: Vec<Vec<u64>> = (0..1000u64).map(|i| vec![i, i * 31, i ^ 7]).collect();
        let ids: Vec<u32> = keys.iter().map(|k| it.intern(k).0).collect();
        assert_eq!(it.len(), 1000);
        for (k, &id) in keys.iter().zip(&ids) {
            let (again, fresh) = it.intern(k);
            assert_eq!(again, id);
            assert!(!fresh);
            assert_eq!(it.get(id), k.as_slice());
        }
    }

    #[test]
    fn clear_retains_capacity_and_restarts_ids() {
        let mut it = StateInterner::new();
        for i in 0..100u64 {
            it.intern(&[i, i + 1]);
        }
        let slots_before = it.slots.len();
        it.clear();
        assert!(it.is_empty());
        assert_eq!(it.arena_words(), 0);
        assert_eq!(it.slots.len(), slots_before);
        let (id, fresh) = it.intern(&[42]);
        assert_eq!((id, fresh), (0, true));
        assert_eq!(it.get(0), &[42]);
    }

    #[test]
    fn reusing_keeps_the_arena_but_not_the_grown_table() {
        let mut it = StateInterner::with_capacity(4);
        for i in 0..5_000u64 {
            it.intern(&[i, i + 1]);
        }
        let (arena, offsets) = it.into_buffers();
        let (arena_cap, offsets_cap) = (arena.capacity(), offsets.capacity());
        let mut again = StateInterner::reusing(arena, offsets);
        assert!(again.is_empty());
        assert_eq!(again.slots.len(), 2 * DEFAULT_STATES);
        assert_eq!(again.intern(&[7, 8]), (0, true));
        assert_eq!(again.intern(&[9]), (1, true));
        assert_eq!(again.intern(&[7, 8]), (0, false));
        assert_eq!(again.get(1), &[9]);
        let (arena, offsets) = again.into_buffers();
        assert_eq!(
            (arena.capacity(), offsets.capacity()),
            (arena_cap, offsets_cap)
        );
    }

    #[test]
    fn distinguishes_prefixes_and_boundaries() {
        let mut it = StateInterner::new();
        let (a, _) = it.intern(&[1, 2]);
        let (b, _) = it.intern(&[1, 2, 0]);
        let (c, _) = it.intern(&[1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
