//! A small, seedable PCG32 random number generator.
//!
//! The workspace needs reproducible pseudo-randomness in a few places
//! (workload buffer contents, index patterns for `specfem3D`-style indexed
//! datatypes, jitter experiments). We keep a tiny local PCG implementation so
//! the *simulation* crates do not depend on `rand`'s global state or version
//! behaviour; the `rand` crate is still used at the workload/bench layer
//! where distributions are convenient.

/// PCG-XSH-RR 64/32 (O'Neill 2014). 64-bit state, 32-bit output.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

/// Interleaved streams [`Pcg32::fill_bytes`] steps at once: lane `i` holds
/// the state `i` draws ahead, and every lane jumps `LANES` draws per step,
/// so the lanes' outputs, read in lane order, are the scalar stream.
const LANES: usize = 8;

/// The PCG output permutation (XSH-RR) of one state.
#[inline(always)]
fn output(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    xorshifted.rotate_right((state >> 59) as u32)
}

impl Pcg32 {
    /// Create a generator from a seed and a stream id. Different stream ids
    /// give independent sequences from the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Create a generator from a seed on the default stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0xda3e39cb94b95bdb)
    }

    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        output(old)
    }

    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform in `[0, bound)` using Lemire's multiply-shift rejection.
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = (r as u64) * (bound as u64);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        if span <= u32::MAX as u64 {
            lo + self.next_below(span as u32) as usize
        } else {
            lo + (self.next_u64() % span) as usize
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fill a byte slice with pseudo-random data: the little-endian bytes
    /// of successive [`Self::next_u32`] draws, the last draw cut short when
    /// the length is not a multiple of 4. The generator ends where that
    /// many scalar draws leave it, so fills split at multiples of 4 bytes
    /// equal one fill of the whole.
    ///
    /// Whole 32-byte blocks step `LANES` (8) interleaved states at once: the
    /// scalar recurrence is one serial multiply-add per draw, while the
    /// lanes' multiplies are independent. Each lane jumps `LANES` draws
    /// per block by the composed map `s ↦ a⁸·s + c·(a⁷ + … + a + 1)`.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut blocks = buf.chunks_exact_mut(4 * LANES);
        if blocks.len() > 0 {
            let (mut mult, mut inc) = (1u64, 0u64);
            let mut lanes = [0u64; LANES];
            for lane in &mut lanes {
                *lane = self.state.wrapping_mul(mult).wrapping_add(inc);
                mult = mult.wrapping_mul(PCG_MULT);
                inc = inc.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
            }
            for block in &mut blocks {
                for (word, lane) in block.chunks_exact_mut(4).zip(&mut lanes) {
                    word.copy_from_slice(&output(*lane).to_le_bytes());
                    *lane = lane.wrapping_mul(mult).wrapping_add(inc);
                }
            }
            self.state = lanes[0];
        }
        let mut words = blocks.into_remainder().chunks_exact_mut(4);
        for word in &mut words {
            word.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = words.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Pcg32::seeded(42);
        let mut b = Pcg32::seeded(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seeded(1);
        let mut b = Pcg32::seeded(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3, "too many collisions: {same}");
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::new(7, 0);
        let mut b = Pcg32::new(7, 1);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Pcg32::seeded(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_usize_bounds() {
        let mut rng = Pcg32::seeded(9);
        for _ in 0..1000 {
            let v = rng.range_usize(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::seeded(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = Pcg32::seeded(5);
        for len in [0usize, 1, 3, 4, 5, 17] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "very unlikely all-zero fill");
            }
        }
    }

    /// The scalar reference: one `next_u32` per 4 bytes, the last draw
    /// cut short.
    fn scalar_fill(rng: &mut Pcg32, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(4) {
            let word = rng.next_u32().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    proptest! {
        /// Every length 0..=300 (whole lane blocks, a word tail and a
        /// byte tail) fills the scalar stream and leaves the generator
        /// where the scalar draws do.
        #[test]
        fn lane_fill_is_the_scalar_stream(seed in 0u64..u64::MAX, stream in 0u64..u64::MAX) {
            for len in 0..=300usize {
                let (mut lane, mut scalar) = (Pcg32::new(seed, stream), Pcg32::new(seed, stream));
                let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                lane.fill_bytes(&mut got);
                scalar_fill(&mut scalar, &mut want);
                prop_assert_eq!(&got, &want, "length {}", len);
                prop_assert_eq!(lane.next_u32(), scalar.next_u32());
            }
        }

        /// Fills split at multiples of 4 bytes equal one fill of the whole,
        /// with the same next draw afterwards.
        #[test]
        fn split_fills_equal_one_fill(
            seed in 0u64..u64::MAX,
            words in 0usize..80,
            tail in 0usize..120,
        ) {
            let (mut whole, mut split) = (Pcg32::seeded(seed), Pcg32::seeded(seed));
            let len = 4 * words + tail;
            let (mut one, mut two) = (vec![0u8; len], vec![0u8; len]);
            whole.fill_bytes(&mut one);
            let (head, rest) = two.split_at_mut(4 * words);
            split.fill_bytes(head);
            split.fill_bytes(rest);
            prop_assert_eq!(one, two);
            prop_assert_eq!(whole.next_u32(), split.next_u32());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seeded(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should move things");
    }
}
