//! A fast non-cryptographic hasher for integer keys on hot paths.
//!
//! The standard library's SipHash resists hash flooding, which none of the
//! solver stack's maps need: their keys are node, event and literal indices
//! the stack generates itself. This is the multiply-rotate word hash used
//! by rustc (`FxHasher`): one rotate, xor and multiply per word, and one
//! rotate to finish.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Word hasher: `h = (h.rotl(5) ^ word) * K` per written word.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        // A product's low bits depend only on the input's low bits, and the
        // table indexes by low bits: rotate the well-mixed high bits down,
        // or pair keys packed as `a << 32 | b` would collide on `b` alone.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_pair_keys() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for a in 0..100u64 {
            for b in 0..100u64 {
                m.insert(a << 32 | b, a * 100 + b);
            }
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&(42 << 32 | 7)), Some(&4207));
        assert_eq!(m.get(&(100 << 32)), None);
    }

    #[test]
    fn packed_pair_keys_spread_over_low_bits() {
        // Tables index by the low bits: keys differing only in the high
        // half (`a << 32 | b` with fixed `b`) must still spread there.
        let low: std::collections::BTreeSet<u64> = (0..1024u64)
            .map(|a| {
                let mut h = FxHasher::default();
                h.write_u64(a << 32 | 7);
                h.finish() & 1023
            })
            .collect();
        assert!(
            low.len() > 512,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let h = |bytes: &[u8]| {
            let mut s = FxHasher::default();
            s.write(bytes);
            s.finish()
        };
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_ne!(h(b"123456789"), h(b"123456780"));
    }
}
