//! Payload-buffer counters.
//!
//! In `DataMode::Full` runs every payload the cluster moves is a recycled
//! `Vec<u8>`: a staged message's packed bytes (taken at pack, returned
//! after unpack), and contiguous and RGET copies. The cluster's copy
//! engines keep the buffers in last-in first-out freelists, and the event
//! loop counts each take and put in job order. [`PoolStats`] is that
//! count: a finished run has returned every buffer it took
//! ([`PoolStats::outstanding`] is zero).

/// Take/put counters of a payload-buffer freelist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes satisfied from the freelist with sufficient capacity.
    pub hits: u64,
    /// Takes that had to allocate (empty freelist or too small).
    pub misses: u64,
    /// Buffers returned after their payload was consumed.
    pub released: u64,
    /// Buffers freed instead of kept: returned to a freelist that was
    /// already full, or too short for the take that found them on top.
    pub dropped: u64,
}

impl PoolStats {
    /// Fold another freelist's counters into these.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.released += other.released;
        self.dropped += other.dropped;
    }

    /// Buffers taken and not yet returned. A buffer may go back to
    /// another freelist than the one it came from, so only totals balance.
    pub fn outstanding(&self) -> i64 {
        (self.hits + self.misses) as i64 - self.released as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outstanding_balances_across_pools() {
        // A buffer taken from one freelist and returned to another (a
        // message crossing copy lanes or shards) balances only in the sum.
        let a = PoolStats {
            misses: 1,
            ..PoolStats::default()
        };
        let b = PoolStats {
            released: 1,
            ..PoolStats::default()
        };
        assert_eq!((a.outstanding(), b.outstanding()), (1, -1));
        let mut total = a;
        total.absorb(&b);
        assert_eq!(total.outstanding(), 0);
        assert_eq!((total.misses, total.released), (1, 1));
    }
}
