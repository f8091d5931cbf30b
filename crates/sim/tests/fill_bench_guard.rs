//! Release-mode guard: `Pcg32::fill_bytes` steps interleaved lanes.
//!
//! A cluster build writes every `BufInit::Random` user buffer from its
//! generator, and the scalar PCG recurrence is one serial multiply-add per
//! 4 bytes. `fill_bytes` instead steps 8 lanes, each jumping 8 draws, whose
//! multiplies are independent. The guard fills one 64 KiB buffer (it stays
//! in L2, so the generator, not memory, is timed) through `fill_bytes` and
//! through the scalar `next_u32` loop, interleaved in one process so
//! host-speed drift hits both sides.
//!
//! It compares each side's fastest sample, not the medians. The lane loop
//! is bound by instruction throughput and the scalar loop by multiply
//! latency, so whatever else runs on the core's other hardware thread
//! slows the lanes far more: on a 2-vCPU Xeon VM the median ratio read
//! 1.11–1.58x from one process to the next, while the fastest samples read
//! 1.27–1.64x (1.57–1.64x in 21 of 25 processes). The threshold is 1.15x.
//! A `fill_bytes` that falls back to the scalar loop read 0.99–1.02x.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

use fusedpack_sim::Pcg32;
use std::hint::black_box;
use std::time::Instant;

const BYTES: usize = 64 << 10;
const FILLS_PER_SAMPLE: u32 = 40;
const ROUNDS: usize = 21;

/// The scalar stream `fill_bytes` must reproduce: one draw per 4 bytes.
fn scalar_fill(rng: &mut Pcg32, buf: &mut [u8]) {
    for word in buf.chunks_exact_mut(4) {
        word.copy_from_slice(&rng.next_u32().to_le_bytes());
    }
}

/// One timed batch of fills, in ns per fill.
fn sample_ns(buf: &mut [u8], fill: fn(&mut Pcg32, &mut [u8])) -> f64 {
    let mut rng = Pcg32::seeded(7);
    let start = Instant::now();
    for _ in 0..FILLS_PER_SAMPLE {
        fill(&mut rng, black_box(&mut *buf));
        black_box(&*buf);
    }
    start.elapsed().as_nanos() as f64 / f64::from(FILLS_PER_SAMPLE)
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[test]
fn lane_fill_beats_the_scalar_loop() {
    let lanes: fn(&mut Pcg32, &mut [u8]) = |rng, buf| rng.fill_bytes(buf);
    let (mut a, mut b) = (vec![0u8; BYTES], vec![0u8; BYTES]);
    // Both sides must write the same bytes before any timing claim means
    // anything.
    lanes(&mut Pcg32::seeded(7), &mut a);
    scalar_fill(&mut Pcg32::seeded(7), &mut b);
    assert_eq!(a, b, "fill_bytes left the scalar stream");

    for _ in 0..3 {
        sample_ns(&mut a, lanes);
        sample_ns(&mut b, scalar_fill);
    }
    let (mut lane_ns, mut scalar_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        lane_ns.push(sample_ns(&mut a, lanes));
        scalar_ns.push(sample_ns(&mut b, scalar_fill));
    }
    let (lane, scalar) = (fastest(&lane_ns), fastest(&scalar_ns));
    assert!(
        lane * 1.15 <= scalar,
        "fill_bytes ({lane:.0} ns per 64 KiB at best) must beat the scalar \
         next_u32 loop ({scalar:.0} ns) by >= 1.15x"
    );
}
