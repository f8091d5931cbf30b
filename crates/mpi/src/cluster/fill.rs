//! The fill phase of a cluster build: every declared buffer's initial
//! bytes, written on every core.
//!
//! A `DataMode::Full` build spends most of its host time writing buffers:
//! a 512-rank halo of specfem3D_cm(512) writes 113 MB of `Pcg32` bytes,
//! and one thread doing so is bound by the generator. A rank's bytes
//! depend only on its buffers' seeds and its rank index, and its pool is
//! its own, so ranks fill independently and the bytes are the same for
//! any split of the ranks between threads.
//!
//! [`super::ClusterBuilder::build`] reserves each pool's backing for its
//! declared buffers on the calling thread first. A fill thread then only
//! bump-allocates inside those reservations and writes, so it never calls
//! the allocator: glibc would give a thread that did its own arena, and
//! memory the fill threads allocated would stay out of reach of the
//! calling thread's later allocations, raising the peak RSS.

use crate::program::{BufDecl, BufInit};
use fusedpack_gpu::{DataMode, DevPtr, MemPool};
use fusedpack_sim::Pcg32;

/// Declared bytes one fill thread must have to pay for its spawn: a spawn
/// costs tens of µs, while filling 1 MiB takes ~0.6 ms.
const MIN_BYTES_PER_THREAD: u64 = 1 << 20;

/// One rank's share of the fill: its pool, already reserved for its
/// declared buffers, and the address list that receives them, with room
/// for every one.
pub(crate) struct RankFill<'a> {
    /// The rank index, the stream of every random buffer's generator.
    pub rank: u64,
    pub mem: &'a mut MemPool,
    pub decls: &'a [BufDecl],
    pub bufs: &'a mut Vec<DevPtr>,
}

impl RankFill<'_> {
    fn declared(&self) -> u64 {
        self.decls.iter().map(|decl| decl.len).sum()
    }

    /// Allocate and initialise each declared buffer in order, each byte
    /// written once: random bytes go straight from the generator into the
    /// pool, and only zero buffers and padding are zero-filled (timing-only
    /// pools skip both).
    fn fill(&mut self) {
        let reserved = self.mem.backing_capacity();
        for decl in self.decls {
            let ptr = match decl.init {
                BufInit::Random(seed) => {
                    let mut rng = Pcg32::new(seed, self.rank);
                    self.mem
                        .alloc_with(decl.len, 64, |piece| rng.fill_bytes(piece))
                }
                BufInit::Zero => self.mem.alloc(decl.len, 64),
            };
            self.bufs.push(ptr);
        }
        debug_assert_eq!(
            self.mem.backing_capacity(),
            reserved,
            "rank {}'s fill grew its pool past the reservation",
            self.rank
        );
    }
}

/// The number of threads that fill a build's buffers: one per core, but
/// no more than there are ranks or [`MIN_BYTES_PER_THREAD`] shares of the
/// declared bytes, and one (the calling thread) when no bytes are written.
pub(crate) fn fill_threads(mode: DataMode, ranks: &[RankFill<'_>]) -> usize {
    if mode == DataMode::ModelOnly {
        return 1;
    }
    let declared: u64 = ranks.iter().map(RankFill::declared).sum();
    let worth = ((declared / MIN_BYTES_PER_THREAD) as usize).min(ranks.len());
    if worth < 2 {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(worth))
}

/// The ends of `parts` contiguous chunks of `bytes` with about equal sums:
/// each entry goes to the chunk whose `1 / parts` share of the total holds
/// the midpoint of its bytes. The last chunk ends at `bytes.len()`; a
/// chunk may be empty.
pub(crate) fn split_by_bytes(bytes: &[u64], parts: usize) -> Vec<usize> {
    let total: u128 = bytes.iter().map(|&b| u128::from(b)).sum();
    let parts_n = parts as u128;
    let mut ends = Vec::with_capacity(parts);
    let (mut end, mut prefix) = (0, 0u128);
    for k in 1..parts as u128 {
        // Take entries while their midpoint lies below `k` shares of the
        // total (both sides doubled and multiplied by `parts`).
        while let Some(&len) = bytes.get(end) {
            let len = u128::from(len);
            if (2 * prefix + len) * parts_n >= 2 * total * k {
                break;
            }
            prefix += len;
            end += 1;
        }
        ends.push(end);
    }
    ends.push(bytes.len());
    ends
}

/// Fill every rank, split into `parts` chunks of about equal declared
/// bytes: the calling thread fills the first chunk and one scoped thread
/// each of the others. A panic in a fill thread ("pool exhausted")
/// resurfaces here with its own message.
pub(crate) fn fill(ranks: &mut [RankFill<'_>], parts: usize) {
    if parts <= 1 {
        ranks.iter_mut().for_each(RankFill::fill);
        return;
    }
    let bytes: Vec<u64> = ranks.iter().map(RankFill::declared).collect();
    let mut chunks = Vec::with_capacity(parts);
    let (mut rest, mut start) = (ranks, 0);
    for end in split_by_bytes(&bytes, parts) {
        let (chunk, tail) = rest.split_at_mut(end - start);
        chunks.push(chunk);
        (rest, start) = (tail, end);
    }
    let mut chunks = chunks.into_iter();
    let first = chunks.next().expect("at least one chunk");
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(|| chunk.iter_mut().for_each(RankFill::fill)))
            .collect();
        first.iter_mut().for_each(RankFill::fill);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Declarations of `ranks` ranks with lengths that cross the 4 KiB
    /// fill piece, end off a 4-byte word and differ between ranks, so the
    /// chunks differ in size.
    fn decls(ranks: u64) -> Vec<Vec<BufDecl>> {
        (0..ranks)
            .map(|r| {
                (0..3 + r % 3)
                    .map(|i| BufDecl {
                        len: 1 + (r * 3_989 + i * 6_151) % 20_000,
                        init: if (r + i) % 3 == 0 {
                            BufInit::Zero
                        } else {
                            BufInit::Random(r * 31 + i)
                        },
                    })
                    .collect()
            })
            .collect()
    }

    /// A pool reserved the way the build reserves one.
    fn reserved_pool(decls: &[BufDecl]) -> MemPool {
        let mut mem = MemPool::new(1 << 20, DataMode::Full);
        mem.reserve_for(decls.iter().map(|decl| decl.len), 64);
        mem
    }

    #[test]
    fn every_split_writes_the_generators_bytes_within_the_reservation() {
        let decls = decls(7);
        for parts in 1..=3 {
            let mut mems: Vec<MemPool> = decls.iter().map(|d| reserved_pool(d)).collect();
            let reserved: Vec<u64> = mems.iter().map(MemPool::backing_capacity).collect();
            let mut bufs: Vec<Vec<DevPtr>> =
                decls.iter().map(|d| Vec::with_capacity(d.len())).collect();
            let mut ranks: Vec<RankFill<'_>> = mems
                .iter_mut()
                .zip(&decls)
                .zip(&mut bufs)
                .enumerate()
                .map(|(r, ((mem, decls), bufs))| RankFill {
                    rank: r as u64,
                    mem,
                    decls,
                    bufs,
                })
                .collect();
            fill(&mut ranks, parts);
            drop(ranks);
            for (r, mem) in mems.iter().enumerate() {
                let case = format!("{parts} chunks, rank {r}");
                assert_eq!(mem.backing_capacity(), reserved[r], "{case}");
                assert_eq!(bufs[r].len(), decls[r].len(), "{case}");
                for (decl, &ptr) in decls[r].iter().zip(&bufs[r]) {
                    let mut want = vec![0u8; decl.len as usize];
                    if let BufInit::Random(seed) = decl.init {
                        Pcg32::new(seed, r as u64).fill_bytes(&mut want);
                    }
                    assert_eq!(mem.read(ptr), &want[..], "{case}, {decl:?}");
                }
            }
        }
    }

    #[test]
    fn chunks_are_contiguous_and_about_equal() {
        let bytes = [5, 1, 1, 1, 1, 1, 0, 2, 8];
        assert_eq!(split_by_bytes(&bytes, 1), [9]);
        assert_eq!(split_by_bytes(&bytes, 2), [6, 9]);
        assert_eq!(split_by_bytes(&bytes, 3), [3, 8, 9]);
        assert_eq!(split_by_bytes(&[9, 9], 2), [1, 2]);
        assert_eq!(split_by_bytes(&[4; 512], 2), [256, 512]);
        assert_eq!(split_by_bytes(&[], 2), [0, 0]);
        assert_eq!(split_by_bytes(&[7], 3), [0, 1, 1]);
    }

    #[test]
    fn a_fill_thread_panic_keeps_its_message() {
        let decls = decls(4);
        let mut mems: Vec<MemPool> = decls.iter().map(|d| reserved_pool(d)).collect();
        // The last rank's pool cannot hold its buffers.
        *mems.last_mut().unwrap() = MemPool::new(64, DataMode::Full);
        let mut bufs: Vec<Vec<DevPtr>> = decls.iter().map(|_| Vec::new()).collect();
        let mut ranks: Vec<RankFill<'_>> = mems
            .iter_mut()
            .zip(&decls)
            .zip(&mut bufs)
            .map(|((mem, decls), bufs)| RankFill {
                rank: 0,
                mem,
                decls,
                bufs,
            })
            .collect();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fill(&mut ranks, 2)))
            .expect_err("an exhausted pool panics");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("pool exhausted"), "{message}");
    }

    #[test]
    fn timing_only_single_rank_and_small_builds_start_no_thread() {
        let big = [BufDecl {
            len: 64 << 20,
            init: BufInit::Zero,
        }];
        let small = [BufDecl {
            len: MIN_BYTES_PER_THREAD - 1,
            init: BufInit::Zero,
        }];
        let mut mems = [(); 2].map(|_| MemPool::new(0, DataMode::ModelOnly));
        let mut bufs = [Vec::new(), Vec::new()];
        let mut ranks: Vec<RankFill<'_>> = mems
            .iter_mut()
            .zip(&mut bufs)
            .map(|(mem, bufs)| RankFill {
                rank: 0,
                mem,
                decls: &big,
                bufs,
            })
            .collect();
        assert_eq!(fill_threads(DataMode::ModelOnly, &ranks), 1);
        assert_eq!(fill_threads(DataMode::Full, &ranks[..1]), 1, "one rank");
        for rank in &mut ranks {
            rank.decls = &small;
        }
        assert_eq!(fill_threads(DataMode::Full, &ranks), 1, "under 2 MiB");
    }
}
