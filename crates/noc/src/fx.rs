//! An in-tree FxHash-style hasher for the simulator's hot maps.
//!
//! The workspace builds offline with an empty crate registry, so it cannot
//! depend on `rustc-hash`/`fxhash`. This module reimplements the same
//! multiply-rotate construction (the hash Firefox and rustc use for their
//! internal tables): it is not DoS-resistant, but the keys here are
//! simulator-internal (line addresses, node ids), so speed and
//! *determinism* are what matter. Unlike
//! `std::collections::HashMap`'s default `RandomState`, two maps built with
//! [`FxBuildHasher`] always hash — and therefore iterate — identically, which
//! the cycle-skipping equivalence guarantee in `loco-sim` relies on.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant of FxHash (a 64-bit truncation of pi, as used
/// by rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic [`Hasher`].
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add_word(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add_word(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        if let Some(chunk) = bytes.first_chunk::<2>() {
            self.add_word(u64::from(u16::from_le_bytes(*chunk)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_word(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_word(i as u64);
        self.add_word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] keyed by [`FxHasher`] — fast on small keys, deterministic
/// iteration order for a given insertion/removal history.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        for v in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(hash_of(&v), hash_of(&v));
        }
        assert_eq!(hash_of(&"packet"), hash_of(&"packet"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn maps_iterate_identically_for_identical_histories() {
        let build = |n: u64| -> FxHashMap<u64, u64> {
            let mut m = FxHashMap::default();
            for i in 0..n {
                m.insert(i * 977, i);
            }
            m.remove(&(3 * 977));
            m
        };
        let a: Vec<(u64, u64)> = build(64).into_iter().collect();
        let b: Vec<(u64, u64)> = build(64).into_iter().collect();
        assert_eq!(a, b, "Fx maps must iterate deterministically");
    }

    #[test]
    fn byte_stream_hashing_covers_all_tail_sizes() {
        // 0..=16 byte prefixes exercise the 8/4/2/1 tail ladder in `write`
        // (non-zero bytes: an all-zero word hashes like the empty stream).
        let bytes: Vec<u8> = (1u8..=16).collect();
        let mut seen = Vec::new();
        for len in 0..=bytes.len() {
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            seen.push(h.finish());
        }
        for (i, a) in seen.iter().enumerate() {
            for (j, b) in seen.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "prefix lengths {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn set_membership_works() {
        let mut s: FxHashSet<(usize, u32)> = FxHashSet::default();
        s.insert((1, 2));
        s.insert((1, 2));
        s.insert((3, 4));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&(1, 2)));
    }
}
