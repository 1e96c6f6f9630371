//! The rustc / Firefox `FxHasher`: a non-cryptographic multiply-xor hash.
//!
//! Identical algorithm to the `rustc-hash` crate (`hash = (hash rotl 5 ^
//! word) * SEED` per 8-byte word). It is dramatically faster than the
//! standard library's SipHash-1-3 on the short integer-dense keys the
//! state-space explorers produce, and — unlike SipHash — fully
//! deterministic across runs, which the interned state tables rely on.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit seed constant of the Fx algorithm (derived from π).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// The `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The Fx streaming hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a `u64` slice in one shot — the fast path of the state interner,
/// avoiding `Hash` trait dispatch.
///
/// Word `i` feeds Fx lane `i % 4`, so the four multiply chains run
/// independently instead of each word waiting on the previous one's
/// multiply; the lanes are then folded in order, and finally the length,
/// so prefixes hash differently.
#[inline]
pub fn hash_u64s(words: &[u64]) -> u64 {
    let mut lanes = [FxHasher::default(); 4];
    let mut chunks = words.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &w) in lanes.iter_mut().zip(chunk) {
            lane.add_to_hash(w);
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(chunks.remainder()) {
        lane.add_to_hash(w);
    }
    let mut h = FxHasher::default();
    for lane in lanes {
        h.add_to_hash(lane.hash);
    }
    h.add_to_hash(words.len() as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let a = hash_u64s(&[1, 2, 3]);
        let b = hash_u64s(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(hash_u64s(&[1, 2, 3]), hash_u64s(&[1, 2, 4]));
        assert_ne!(hash_u64s(&[1, 2, 3]), hash_u64s(&[1, 2, 3, 0]));
    }

    #[test]
    fn every_word_position_matters() {
        // Swapping words across lanes, within a lane (positions 0 and 4)
        // or moving a word into the tail must all change the hash.
        let base: Vec<u64> = (1..=9).collect();
        let h = hash_u64s(&base);
        for (i, j) in [(0, 1), (0, 4), (3, 8), (5, 6)] {
            let mut swapped = base.clone();
            swapped.swap(i, j);
            assert_ne!(hash_u64s(&swapped), h, "swap {i}<->{j}");
        }
        for len in 0..base.len() {
            assert_ne!(hash_u64s(&base[..len]), h);
        }
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<Vec<u64>, usize> = FxHashMap::default();
        m.insert(vec![1, 2], 7);
        assert_eq!(m.get(&vec![1, 2]), Some(&7));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }

    #[test]
    fn byte_stream_matches_word_stream_for_whole_words() {
        use std::hash::Hasher;
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
