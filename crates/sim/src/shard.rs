//! Support types for time-window sharded execution.
//!
//! The sharded cluster loop (see `fusedpack-mpi`) partitions ranks into
//! shards, run by worker threads and the coordinating thread, each
//! draining its own [`EventQueue`](crate::EventQueue) up to a conservative
//! window boundary; the coordinator applies the round's deferred
//! transmits at each barrier. [`ShardStats`] are the barrier/stall
//! counters aggregated into run reports.

/// Health counters for a sharded run, merged across shards into the run
/// report. A single-queue run reports one shard and zero elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Worker shards the run actually executed with (after clamping).
    pub shards: u32,
    /// Window barriers crossed (rounds executed).
    pub barriers: u64,
    /// Deliveries admitted into another shard's queue at barriers.
    pub admitted_msgs: u64,
    /// Transmits deferred during rounds and applied at barriers.
    pub deferred_transmits: u64,
    /// Wall-clock nanoseconds the coordinator spent in barrier work
    /// (applying transmits, scheduling their events).
    pub barrier_wall_ns: u64,
    /// Wall-clock nanoseconds shards spent stalled between finishing a
    /// round and starting the next (summed over shards, the one the
    /// coordinator runs included).
    pub stall_wall_ns: u64,
}

impl ShardStats {
    /// Fold another shard's counters into this one. `shards` takes the
    /// max (it is a configuration echo, not a tally).
    pub fn merge(&mut self, other: &ShardStats) {
        self.shards = self.shards.max(other.shards);
        self.barriers = self.barriers.max(other.barriers);
        self.admitted_msgs += other.admitted_msgs;
        self.deferred_transmits += other.deferred_transmits;
        self.barrier_wall_ns += other.barrier_wall_ns;
        self.stall_wall_ns += other.stall_wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_merge_sums_and_maxes() {
        let mut a = ShardStats {
            shards: 4,
            barriers: 10,
            admitted_msgs: 5,
            deferred_transmits: 7,
            barrier_wall_ns: 100,
            stall_wall_ns: 50,
        };
        let b = ShardStats {
            shards: 4,
            barriers: 10,
            admitted_msgs: 3,
            deferred_transmits: 2,
            barrier_wall_ns: 40,
            stall_wall_ns: 75,
        };
        a.merge(&b);
        assert_eq!(a.barriers, 10, "barriers max: every shard crosses each");
        assert_eq!(a.admitted_msgs, 8);
        assert_eq!(a.deferred_transmits, 9);
        assert_eq!(a.stall_wall_ns, 125);
    }
}
