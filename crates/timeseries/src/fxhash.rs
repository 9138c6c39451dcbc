//! A deterministic, allocation-free multiply-rotate hasher for hot paths.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a
//! per-process random seed. That is the right default against untrusted
//! keys, but every key hashed on the ingest hot path here is an in-repo
//! integer (a [`u64` SQL fingerprint](https://dev.mysql.com/doc/refman/8.0/en/performance-schema-statement-digests.html)-style
//! id or a dense slot index), so SipHash buys nothing and costs a long
//! dependency chain per lookup — and the random seed makes map iteration
//! order differ across *runs*, which every consumer then has to sort away.
//!
//! [`FxHasher`] is the word-at-a-time multiply-rotate scheme popularized
//! by rustc's `FxHashMap`: fold each 8-byte word into the state with a
//! rotate, an xor, and one multiplication by a mixing constant. Two or
//! three cycles per word, no seed, fully deterministic across runs and
//! platforms of equal endianness-normalized input (integers hash via
//! their little-endian bytes). It is **not** DoS-resistant — use it only
//! for keys an adversary cannot choose, which is every internal map in
//! this workspace.
//!
//! No external crates: the build container is offline, so this is grown
//! in-repo rather than pulled from `rustc-hash`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The mixing constant: `2^64 / φ` rounded to odd, the same fixed-point
/// golden-ratio multiplier Fibonacci hashing uses, so consecutive small
/// integers scatter across the whole table.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time multiply-rotate hasher (FxHash-style). Deterministic:
/// no seed, same digest in every process on every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // Fold the tail length in with the bytes so "ab" + "" and
            // "a" + "b" across two writes cannot collide trivially.
            self.fold(u64::from_le_bytes(word) ^ (tail.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; `Default` + zero-sized.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn digest<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        // The property SipHash's RandomState deliberately lacks.
        for v in [0u64, 1, 42, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            assert_eq!(digest(&v), digest(&v));
        }
        assert_eq!(digest(&"select * from t"), digest(&"select * from t"));
    }

    #[test]
    fn small_integers_scatter() {
        // Fibonacci mixing must spread consecutive ids across high bits
        // (the bits HashMap's bucket index uses after the multiply).
        let digests: Vec<u64> = (0u64..64).map(|i| digest(&i)).collect();
        let mut top_bytes: Vec<u8> = digests.iter().map(|d| (d >> 56) as u8).collect();
        top_bytes.sort_unstable();
        top_bytes.dedup();
        assert!(top_bytes.len() > 32, "only {} distinct top bytes", top_bytes.len());
    }

    #[test]
    fn byte_stream_chunking_is_stable() {
        // One write of 11 bytes equals itself; differing lengths differ.
        let mut a = FxHasher::default();
        a.write(b"abcdefghijk");
        let mut b = FxHasher::default();
        b.write(b"abcdefghijk");
        assert_eq!(a.finish(), b.finish());

        let mut c = FxHasher::default();
        c.write(b"abcdefghij");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(7, "seven");
        map.insert(11, "eleven");
        assert_eq!(map.get(&7), Some(&"seven"));
        assert_eq!(map.len(), 2);

        let mut set: HashSet<String, FxBuildHasher> = HashSet::default();
        set.insert("a".into());
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }
}
