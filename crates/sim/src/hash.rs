//! The hasher for the simulator's integer-keyed maps.
//!
//! Request UIDs, type handles, route keys and operation indices are small
//! integers the program mints itself, looked up on every request or send. SipHash's
//! resistance to crafted collisions buys nothing for keys no outside input
//! chooses, so these maps hash with one multiply-rotate per word (the
//! FxHash step) instead. Keep the default hasher for keys read from input.
//!
//! The same step, run over 64-bit words, fingerprints byte buffers
//! ([`digest`]): the workload drivers compare a run's receive buffers
//! against a reference run's without copying or storing either.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply-rotate per 64-bit word (the FxHash step).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// A `HashMap` over program-minted integer keys, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Fingerprint a sequence of byte slices with the [`IntHasher`] step: each
/// slice's little-endian 64-bit words (the trailing partial word
/// zero-padded), then its length, from a nonzero start (zero is the one
/// state that an all-zero word leaves fixed).
///
/// For a fixed input word the step is a bijection of the running state
/// (the multiplier is odd), so two inputs of equal shape that differ in any
/// one word always digest differently. It is a fingerprint for comparing
/// runs of the simulator, not a defence against crafted collisions.
pub fn digest<'a>(slices: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = IntHasher(0x9e37_79b9_7f4a_7c15);
    for bytes in slices {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            h.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            h.write_u64(u64::from_le_bytes(last));
        }
        h.write_u64(bytes.len() as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn equal_bytes_give_equal_digests() {
        let a = bytes(29);
        let b = a.clone();
        assert_eq!(digest([&a[..]]), digest([&b[..]]));
        assert_eq!(digest([&a[..], &a[..3]]), digest([&b[..], &b[..3]]));
    }

    #[test]
    fn one_flipped_byte_changes_the_digest_anywhere() {
        // 29 bytes: three whole words and a five-byte trailing word, so the
        // flip visits every position of a word and of the partial tail.
        let base = bytes(29);
        let want = digest([&base[..]]);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(digest([&flipped[..]]), want, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn length_changes_the_digest() {
        // Zero padding cannot hide a length change: trailing zeros, a
        // shorter slice, an empty slice and a split all differ.
        let zeros = [0u8; 16];
        let d = |s: &[&[u8]]| digest(s.iter().copied());
        assert_ne!(d(&[&zeros[..12]]), d(&[&zeros[..13]]));
        assert_ne!(d(&[&zeros[..8]]), d(&[&zeros[..16]]));
        assert_ne!(d(&[]), d(&[&[]]));
        assert_ne!(d(&[&zeros[..]]), d(&[&zeros[..8], &zeros[8..]]));
        let b = bytes(24);
        assert_ne!(d(&[&b[..]]), d(&[&b[..23]]));
    }
}
