//! A small multiplicative hasher for the per-flow accumulators.
//!
//! `std`'s default SipHash resists keys crafted to collide, which costs
//! tens of nanoseconds per lookup. The §5 traffic folds hash several
//! keys per flow, millions of flows per pass, and no outside party
//! chooses those keys: keyed-anonymizer line ids, simulated world IPs,
//! study days and ports. So they use this hasher instead: one add and
//! one multiply per word, with a final rotation that moves the
//! well-mixed high bits down to where the table picks its bucket. Keep
//! the default hasher for keys read from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiply-and-rotate word hasher (the `rustc` "Fx" family).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier from the `rustc-hash` family.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;
    use std::net::IpAddr;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinguishing() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(1u64), hash(2u64));
        assert_ne!(hash((1u64, 2i64)), hash((2u64, 1i64)));
        assert_ne!(hash(&b"abcdefgh"[..]), hash(&b"abcdefgh\0"[..]));
    }

    /// Neighbouring addresses differ only in their low-order octets, which
    /// land in the high bytes of the hashed word; after the final rotation
    /// a whole /16 must still spread over a table of as many buckets at
    /// least as evenly as a random hash would (about 63% occupied).
    #[test]
    fn one_slash16_spreads_over_low_bits() {
        let buckets: FxHashSet<u64> = (0..=u16::MAX)
            .map(|i| {
                let [a, b] = i.to_be_bytes();
                hash(IpAddr::from([10, 0, a, b])) & 0xffff
            })
            .collect();
        assert!(buckets.len() > 40_000, "{} of 65536 buckets", buckets.len());
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<IpAddr, u32> = FxHashMap::default();
        for o in 0..=255u8 {
            *m.entry(IpAddr::from([10, 0, 0, o])).or_default() += 1;
        }
        m.insert("2001:db8::1".parse().unwrap(), 7);
        assert_eq!(m.len(), 257);
        assert_eq!(m[&IpAddr::from([10, 0, 0, 9])], 1);
        assert_eq!(m[&"2001:db8::1".parse::<IpAddr>().unwrap()], 7);
    }
}
