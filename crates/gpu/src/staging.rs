//! Reusable payload-buffer pool.
//!
//! In `DataMode::Full` runs every payload the cluster moves is a pooled
//! `Vec<u8>`: a staged message's packed bytes (taken at pack, returned
//! after unpack), and contiguous and RGET copies. A [`BufferPool`] keeps a
//! freelist of retired buffers behind a `parking_lot::Mutex` so those
//! per-message allocations become acquire/release pairs: `take(len)` hands
//! out a buffer of length `len` for the caller to overwrite, and `put`
//! returns it for the next message. Nothing is zero-filled except a fresh
//! allocation and growth past a recycled buffer's old length, so a pack
//! into a recycled buffer writes its payload once. A finished run has returned
//! every buffer it took ([`PoolStats::outstanding`] is zero).
//!
//! The freelist is a LIFO stack with no cap: the pool allocates only when
//! it is empty, so it never holds more buffers than the run's own peak of
//! buffers in flight, and steady-state traffic allocates nothing.
//!
//! The pool is cheap to clone (`Arc` inside), so one pool can be threaded
//! through a whole cluster — or shared across clusters — without wiring
//! lifetimes through the event loop.

use parking_lot::Mutex;
use std::sync::Arc;

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
}

impl PoolStats {
    /// Fold another pool's counters into these.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.released += other.released;
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

    /// Acquire a buffer of length `len`, the most recently returned one
    /// when the freelist has any. Its bytes are unspecified (a recycled
    /// buffer keeps its last payload): the caller overwrites all of them.
    /// A recycled buffer too small for `len` grows, and counts as a miss.
    pub fn take(&self, len: usize) -> Vec<u8> {
        let popped = {
            let mut inner = self.inner.lock();
            let popped = inner.free.pop();
            match &popped {
                Some(buf) if buf.capacity() >= len => inner.stats.hits += 1,
                _ => inner.stats.misses += 1,
            }
            popped
        };
        let mut buf = popped.unwrap_or_default();
        buf.resize(len, 0);
        buf
    }

    /// Return a buffer to the freelist, contents and capacity kept.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return; // nothing worth keeping (ModelOnly payloads)
        }
        let mut inner = self.inner.lock();
        inner.stats.released += 1;
        inner.free.push(buf);
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
    fn take_put_take_reuses_the_allocation() {
        let pool = BufferPool::new();
        let mut a = pool.take(100);
        assert_eq!(a.len(), 100, "take hands out the requested length");
        a[..3].copy_from_slice(&[1, 2, 3]);
        let ptr = a.as_ptr();
        pool.put(a);
        let b = pool.take(50);
        assert_eq!(b.len(), 50);
        assert_eq!(b.as_ptr(), ptr, "same backing allocation");
        assert_eq!(&b[..3], &[1, 2, 3], "recycled bytes are not cleared");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.released), (1, 1, 1));
    }

    #[test]
    fn growth_past_the_old_length_reads_zero() {
        let pool = BufferPool::new();
        let mut a = pool.take(64);
        a.fill(0xEE);
        pool.put(a);
        let mut short = pool.take(8);
        assert_eq!(short, [0xEE; 8]);
        short.fill(0xAA);
        pool.put(short);
        let long = pool.take(32);
        assert_eq!(pool.stats().hits, 2, "within capacity: no allocation");
        assert_eq!(&long[..8], &[0xAA; 8]);
        assert_eq!(&long[8..], &[0; 24]);
    }

    #[test]
    fn undersized_buffer_counts_as_miss_but_grows() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(8));
        let b = pool.take(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.free_len(), 0, "the small buffer grew, no new one");
    }

    #[test]
    fn the_last_buffer_returned_is_handed_out_first() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(256));
        pool.put(Vec::with_capacity(16));
        assert_eq!(pool.take(8).capacity(), 16);
        assert_eq!(pool.take(200).capacity(), 256);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn the_freelist_keeps_every_returned_buffer() {
        let pool = BufferPool::new();
        let bufs: Vec<Vec<u8>> = (0..200).map(|_| pool.take(8)).collect();
        for buf in bufs {
            pool.put(buf);
        }
        assert_eq!(pool.free_len(), 200);
        for _ in 0..200 {
            pool.put(pool.take(8));
        }
        let s = pool.stats();
        assert_eq!(
            (s.misses, s.hits),
            (200, 200),
            "a warm lap allocates nothing"
        );
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
        assert_eq!(clone.take(4).len(), 4);
        assert_eq!(pool.free_len(), 0);
    }
}
