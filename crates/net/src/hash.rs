//! The one hasher behind every hash table in the library.
//!
//! std's `RandomState` seeds SipHash per process, so a table's iteration
//! order changes from run to run, and SipHash costs tens of nanoseconds per
//! short name. [`FxHasher`] is unkeyed and deterministic: the word-at-a-time
//! multiply-rotate hash of rustc's `FxHasher`, a few cycles per eight bytes.
//! [`FxHashMap`] and [`FxHashSet`] are std's tables built with it, and
//! `scripts/check.sh` refuses any other hash table in library code.
//!
//! Being unkeyed, it can be made to collide: its keys are instance names,
//! SAN namespaces and ids an operator chooses, not bytes a client sends, and
//! a crafted collision costs probes, never a wrong answer (DESIGN.md, "The
//! registry: its rule and its spec").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier that spreads each word over the high bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic, unkeyed [`Hasher`]: rustc's multiply-rotate word hash,
/// the same value for the same key in every run. Names an operator chooses
/// are its keys; a crafted collision costs probes, never a wrong answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// std's `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// std's `HashSet` with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if bytes.is_empty() {
            return;
        }
        // The last 1–7 bytes, packed into one word.
        let mut tail = 0;
        let mut shift = 0;
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            tail = u64::from(u32::from_le_bytes(*word));
            shift = 32;
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<2>() {
            tail |= u64::from(u16::from_le_bytes(*word)) << shift;
            shift += 16;
            bytes = rest;
        }
        if let Some(&byte) = bytes.first() {
            tail |= u64::from(byte) << shift;
        }
        self.add(tail);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The last multiply leaves its best-mixed bits at the top; the table
    /// picks a bucket from the bottom, so they are rotated down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    // `hash("tenant-007")`, as this hasher computes it on every run.
    const PINNED: u64 = 0x92b7_1e64_a573_150c;

    fn hash(value: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_on_every_run() {
        assert_eq!(hash("tenant-007"), hash(String::from("tenant-007")));
        // Unkeyed: a fixed value, the same in every process.
        assert_eq!(hash("tenant-007"), PINNED);
        assert_eq!(hash(0u64), 0);
    }

    #[test]
    fn every_tail_length_reaches_the_hash() {
        // Names that differ only in their last byte, at every length mod 8.
        for len in 1..=24 {
            let a = "x".repeat(len - 1) + "a";
            let b = "x".repeat(len - 1) + "b";
            assert_ne!(hash(&a), hash(&b), "length {len}");
        }
    }

    #[test]
    fn sequential_names_spread_over_the_low_bits() {
        // 40 names an operator numbers in sequence land in distinct buckets
        // of a 64-bucket table often enough that probes stay short.
        let buckets: FxHashSet<u64> = (0..40)
            .map(|i| hash(format!("tenant-{i:03}")) & 63)
            .collect();
        assert!(buckets.len() >= 20, "{} buckets", buckets.len());
    }
}
