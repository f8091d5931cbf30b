//! Reusable payload-buffer pool.
//!
//! In `DataMode::Full` runs every payload the cluster moves is a pooled
//! `Vec<u8>`: a staged message's packed bytes (taken at pack, returned
//! after unpack), contiguous and RGET copies, and DirectIPC bounces. A
//! [`BufferPool`] keeps a freelist of retired buffers behind a
//! `parking_lot::Mutex` so those per-message allocations become
//! acquire/release pairs: `take` hands out an **empty** vector whose
//! capacity already covers the request whenever the freelist can satisfy
//! it, and `put` returns the vector for the next message. A finished run
//! has returned every buffer it took ([`PoolStats::outstanding`] is zero).
//!
//! The pool is cheap to clone (`Arc` inside), so one pool can be threaded
//! through a whole cluster — or shared across clusters — without wiring
//! lifetimes through the event loop.

use parking_lot::Mutex;
use std::sync::Arc;

/// How many retired buffers the freelist retains; beyond this, `put`
/// drops the buffer instead (bounds worst-case memory held by idle pools).
const MAX_FREE: usize = 64;

#[derive(Debug, Default)]
struct PoolInner {
    free: Vec<Vec<u8>>,
    stats: PoolStats,
}

/// Acquire/release counters for a [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the freelist with sufficient capacity.
    pub hits: u64,
    /// `take` calls that had to allocate (empty freelist or too small).
    pub misses: u64,
    /// Buffers returned via `put`.
    pub released: u64,
    /// Buffers dropped by `put` because the freelist was full.
    pub dropped: u64,
}

impl PoolStats {
    /// Fold another pool's counters into these.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.released += other.released;
        self.dropped += other.dropped;
    }

    /// Buffers taken and not yet returned. A buffer may go back to
    /// another pool than the one it came from, so only totals balance.
    pub fn outstanding(&self) -> i64 {
        (self.hits + self.misses) as i64 - self.released as i64
    }
}

/// A shared freelist of byte buffers. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire an empty buffer with capacity at least `len`. Prefers the
    /// largest retired buffer (the freelist is kept sorted by capacity) so
    /// steady-state traffic stops allocating once the high-water mark is
    /// reached.
    pub fn take(&self, len: usize) -> Vec<u8> {
        let mut inner = self.inner.lock();
        match inner.free.pop() {
            Some(mut buf) => {
                if buf.capacity() >= len {
                    inner.stats.hits += 1;
                } else {
                    inner.stats.misses += 1;
                    buf.reserve(len);
                }
                buf
            }
            None => {
                inner.stats.misses += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Return a buffer to the freelist. The contents are cleared; capacity
    /// is kept for reuse.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return; // nothing worth keeping (ModelOnly payloads)
        }
        buf.clear();
        let mut inner = self.inner.lock();
        inner.stats.released += 1;
        if inner.free.len() >= MAX_FREE {
            inner.stats.dropped += 1;
            return;
        }
        // Keep the freelist sorted so `pop` hands out the largest buffer.
        let pos = inner
            .free
            .partition_point(|b| b.capacity() <= buf.capacity());
        inner.free.insert(pos, buf);
    }

    /// Counters since construction.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Buffers currently resting in the freelist.
    pub fn free_len(&self) -> usize {
        self.inner.lock().free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_take_reuses_capacity() {
        let pool = BufferPool::new();
        let mut a = pool.take(100);
        assert!(a.is_empty() && a.capacity() >= 100);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take(50);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "same backing allocation");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.released), (1, 1, 1));
    }

    #[test]
    fn undersized_buffer_counts_as_miss_but_grows() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(8));
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn largest_buffer_is_handed_out_first() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(256));
        pool.put(Vec::with_capacity(64));
        assert_eq!(pool.take(200).capacity(), 256);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn freelist_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..(MAX_FREE + 10) {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.free_len(), MAX_FREE);
        assert_eq!(pool.stats().dropped, 10);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats().released, 0);
    }

    #[test]
    fn outstanding_balances_across_pools() {
        // A buffer taken from one pool and returned to another (a message
        // crossing shards) balances only in the sum.
        let (a, b) = (BufferPool::new(), BufferPool::new());
        let buf = a.take(16);
        assert_eq!(a.stats().outstanding(), 1);
        b.put(buf);
        assert_eq!(b.stats().outstanding(), -1);
        let mut total = a.stats();
        total.absorb(&b.stats());
        assert_eq!(total.outstanding(), 0);
        assert_eq!((total.misses, total.released), (1, 1));
    }

    #[test]
    fn clones_share_the_freelist() {
        let pool = BufferPool::new();
        let clone = pool.clone();
        pool.put(Vec::with_capacity(32));
        assert_eq!(clone.free_len(), 1);
        let _ = clone.take(4);
        assert_eq!(pool.free_len(), 0);
    }
}
