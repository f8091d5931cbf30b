//! Property-based tests of the staging [`BufferPool`]: invariants that
//! must hold for any interleaving of `take`/`put` — the access pattern
//! the adaptive flush path produces, where batch sizes (and therefore
//! staging-buffer lifetimes) shift as the threshold retunes online.

use fusedpack_gpu::BufferPool;
use proptest::prelude::*;

/// One step of the driver: acquire a buffer of `len` bytes, or release
/// the live buffer at `victim % live.len()` (a no-op when none are live).
#[derive(Debug, Clone)]
enum Op {
    Take { len: usize },
    Put { victim: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..16 * 1024).prop_map(|len| Op::Take { len }),
        any::<usize>().prop_map(|victim| Op::Put { victim }),
    ]
}

/// Overwrite `buf` with a pattern unique to acquisition number `tag`.
fn fill(buf: &mut [u8], tag: u64) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (tag as usize).wrapping_mul(31).wrapping_add(i) as u8;
    }
}

/// Check that a live buffer still carries exactly the pattern written at
/// acquisition time — any aliasing with a recycled buffer would tear it.
fn check(buf: &[u8], len: usize, tag: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(buf.len(), len);
    for (i, &b) in buf.iter().enumerate() {
        let want = (tag as usize).wrapping_mul(31).wrapping_add(i) as u8;
        prop_assert_eq!(b, want, "live buffer (tag {}) corrupted at byte {}", tag, i);
    }
    Ok(())
}

proptest! {
    /// Across arbitrary take/put sequences: buffers come back with exactly
    /// the requested length, a recycled buffer never aliases a payload that
    /// is still live (every live buffer keeps its unique fill pattern for
    /// its whole lifetime), and the counters reconcile — hits + misses is
    /// exactly the number of `take` calls, released is exactly the number
    /// of returned buffers. The freelist has no cap, yet the pool never
    /// owns more buffers (resting plus live) than the peak number live at
    /// once: it allocates only when its freelist is empty.
    #[test]
    fn recycling_never_aliases_live_payloads(ops in prop::collection::vec(arb_op(), 1..128)) {
        let pool = BufferPool::new();
        let mut live: Vec<(u64, usize, Vec<u8>)> = Vec::new(); // (tag, len, buf)
        let mut takes = 0u64;
        let mut puts = 0u64;
        let mut next_tag = 0u64;
        let mut peak_live = 0usize;

        for op in ops {
            match op {
                Op::Take { len } => {
                    let mut buf = pool.take(len);
                    takes += 1;
                    prop_assert_eq!(buf.len(), len, "take() must hand out the requested length");
                    let tag = next_tag;
                    next_tag += 1;
                    fill(&mut buf, tag);
                    live.push((tag, len, buf));
                    peak_live = peak_live.max(live.len());
                }
                Op::Put { victim } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (tag, len, buf) = live.swap_remove(victim % live.len());
                    // The payload must be intact right up to release.
                    check(&buf, len, tag)?;
                    pool.put(buf);
                    puts += 1;
                }
            }
            // After every step, every live payload is still intact and the
            // pool holds no buffer beyond the peak in flight.
            for (tag, len, buf) in &live {
                check(buf, *len, *tag)?;
            }
            prop_assert!(pool.free_len() + live.len() <= peak_live);

            let s = pool.stats();
            prop_assert_eq!(s.hits + s.misses, takes, "hits+misses must equal total take() calls");
            prop_assert_eq!(s.released, puts, "released must equal total put() calls");
            prop_assert!(s.hits <= puts, "a hit requires a previously returned buffer");
        }
    }

    /// Steady-state reuse: once every buffer has been returned, a second
    /// pass of identical requests in the reverse order of their return is
    /// all hits and allocates nothing new (the freelist is a stack, so the
    /// last buffer returned is the first handed out).
    #[test]
    fn warm_pool_serves_repeat_traffic_from_the_freelist(
        lens in prop::collection::vec(1usize..64 * 1024, 1..256),
    ) {
        let pool = BufferPool::new();
        let taken: Vec<Vec<u8>> = lens.iter().map(|&len| pool.take(len)).collect();
        for buf in taken {
            pool.put(buf);
        }
        prop_assert_eq!(pool.stats().misses, lens.len() as u64);

        let again: Vec<Vec<u8>> = lens.iter().rev().map(|&len| pool.take(len)).collect();
        for (buf, &len) in again.iter().zip(lens.iter().rev()) {
            prop_assert_eq!(buf.len(), len);
        }
        let s = pool.stats();
        prop_assert_eq!(s.misses, lens.len() as u64, "warm pass must not allocate");
        prop_assert_eq!(s.hits, lens.len() as u64);
    }
}
