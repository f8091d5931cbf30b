//! The hasher for the simulator's integer-keyed maps.
//!
//! Request UIDs, type handles, route keys and operation indices are small
//! integers the program mints itself, looked up on every request or send. SipHash's
//! resistance to crafted collisions buys nothing for keys no outside input
//! chooses, so these maps hash with one multiply-rotate per word (the
//! FxHash step) instead. Keep the default hasher for keys read from input.

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
