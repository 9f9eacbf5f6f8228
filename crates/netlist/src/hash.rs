//! A fast, non-cryptographic hasher for hot-path maps and sets.
//!
//! The std `HashMap` defaults to SipHash-1-3, whose per-insert cost
//! dominates million-entry builder workloads (duplicate-connection sets,
//! name→id maps during Bookshelf ingest). This is the well-known
//! Fx/FireFox hash: one multiply-rotate-xor round per 8 input bytes.
//! It is *not* DoS-resistant — use it only on trusted inputs such as
//! benchmark files and internally generated keys.
//!
//! [`fnv1a`] is the workspace's one stable content hash: its output is
//! fixed by the published algorithm, so values that are written to disk
//! or compared across runs (checkpoint fingerprints, fault arming, job
//! ids, placement digests) never depend on the build.

use std::hash::{BuildHasherDefault, Hasher};

/// One round of the Fx mix: rotate, xor the new word in, multiply.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (xor-shift-multiply, as in splitmix64). The raw
        // Fx state is weak in its low bits — after the last multiply they
        // depend only on the low input bytes — and hashbrown selects
        // buckets from exactly those bits, which collapses key sets with
        // shared short prefixes ("c0".."c999999") into a handful of
        // buckets. One extra multiply per lookup fixes that for good.
        let h = self.hash;
        let h = (h ^ (h >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[..8]);
            self.mix(u64::from_le_bytes(word));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            // Fold the tail length in so "a" and "a\0" differ.
            word[7] = bytes.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distinguishes_basic_keys() {
        let mut set = FxHashSet::default();
        for i in 0..1000u32 {
            assert!(set.insert((i, i.wrapping_mul(7))));
        }
        for i in 0..1000u32 {
            assert!(!set.insert((i, i.wrapping_mul(7))));
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn string_keys_work_and_tails_differ() {
        let mut map = FxHashMap::default();
        map.insert("a".to_string(), 1);
        map.insert("a\0".to_string(), 2);
        map.insert("abcdefgh".to_string(), 3);
        map.insert("abcdefghi".to_string(), 4);
        assert_eq!(map.len(), 4);
        assert_eq!(map["a"], 1);
        assert_eq!(map["abcdefghi"], 4);
    }
}
