//! Support types for time-window sharded execution.
//!
//! The sharded cluster loop (see `fusedpack-mpi`) partitions ranks into
//! shards, run by worker threads and the coordinating thread, each
//! draining its own [`EventQueue`](crate::EventQueue)
//! up to a conservative window boundary. Two pieces live here because they
//! are generic over the payload and belong with the engine, not the MPI
//! layer:
//!
//! - [`Mailbox`]: the bounded SPSC ring a shard fills with cross-shard
//!   messages during a round. One mailbox exists per (source shard,
//!   destination shard) pair; the worker owning the source shard is the
//!   only producer within a round and the coordinator is the only
//!   consumer, at the barrier — so no atomics are needed, just a fixed
//!   ring that degrades to a spill vector (counted, never dropped) when a
//!   bursty round overruns the preallocated capacity.
//! - [`ShardStats`]: barrier/stall counters aggregated into run reports.

use std::collections::VecDeque;

/// Default ring capacity per shard pair. A round admits at most a few
/// hundred cross-shard deliveries in the workloads we run; 1024 slots is
/// ~16 KB for a pointer-sized payload and makes spills a telemetry event,
/// not a steady state.
pub const MAILBOX_CAPACITY: usize = 1024;

/// Hard cap on one round's spill growth, as a multiple of the ring
/// capacity. Messages are never dropped (that would corrupt the
/// simulation), but a spill this deep means the window/lookahead tuning is
/// broken — warn loudly once so it is investigated instead of silently
/// degrading into unbounded allocation.
pub const MAILBOX_SPILL_WARN_FACTOR: usize = 16;

/// A bounded FIFO ring with an overflow spill, for one shard pair.
///
/// `push` never fails and never reorders: once the ring is full, messages
/// go to a spill vector and are drained after the ring's contents, which
/// preserves arrival order because the ring stops accepting pushes the
/// moment the first spill happens (drain resets both). Spill depth is
/// tracked as a high-water mark and a one-time stderr warning fires when a
/// round overruns [`MAILBOX_SPILL_WARN_FACTOR`] rings' worth of messages.
#[derive(Debug)]
pub struct Mailbox<T> {
    ring: VecDeque<T>,
    capacity: usize,
    spill: Vec<T>,
    spills: u64,
    spill_max: u64,
    warned: bool,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::with_capacity(MAILBOX_CAPACITY)
    }
}

impl<T> Mailbox<T> {
    pub fn with_capacity(capacity: usize) -> Self {
        Mailbox {
            // Preallocate so steady-state rounds never touch the allocator.
            ring: VecDeque::with_capacity(capacity),
            capacity,
            spill: Vec::new(),
            spills: 0,
            spill_max: 0,
            warned: false,
        }
    }

    /// Enqueue a message, spilling (and counting) past capacity.
    #[inline]
    pub fn push(&mut self, msg: T) {
        if self.ring.len() < self.capacity && self.spill.is_empty() {
            self.ring.push_back(msg);
        } else {
            self.spills += 1;
            self.spill.push(msg);
            self.spill_max = self.spill_max.max(self.spill.len() as u64);
            if !self.warned && self.spill.len() >= self.capacity * MAILBOX_SPILL_WARN_FACTOR {
                self.warned = true;
                eprintln!(
                    "warning: shard mailbox spill exceeded {}x its ring capacity \
                     ({} spilled past a {}-slot ring); messages are preserved, but \
                     the window lookahead is admitting far more cross-shard traffic \
                     per round than the mailboxes were sized for",
                    MAILBOX_SPILL_WARN_FACTOR,
                    self.spill.len(),
                    self.capacity
                );
            }
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len() + self.spill.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.spill.is_empty()
    }

    /// Total pushes that overran the ring so far (monotone; survives
    /// drains so the run report sees the lifetime count).
    #[inline]
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Deepest the spill vector has ever grown (messages queued past the
    /// ring at once) — the high-water mark reported via
    /// [`ShardStats::spill_max`].
    #[inline]
    pub fn spill_high_water(&self) -> u64 {
        self.spill_max
    }

    /// Remove and return all queued messages in arrival order.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.ring.drain(..).chain(self.spill.drain(..))
    }
}

/// Health counters for a sharded run, merged across shards into the run
/// report. All-zero for single-queue runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Worker shards the run actually executed with (after clamping).
    pub shards: u32,
    /// Window barriers crossed (rounds executed).
    pub barriers: u64,
    /// Cross-shard messages admitted into destination queues at barriers.
    pub admitted_msgs: u64,
    /// Routed transmits deferred during rounds and applied at barriers.
    pub deferred_transmits: u64,
    /// Mailbox pushes that overran a ring into its spill vector.
    pub mailbox_spills: u64,
    /// Deepest any single mailbox's spill vector grew during the run (a
    /// high-water mark: 0 means no round ever overran its ring).
    pub spill_max: u64,
    /// Wall-clock nanoseconds the coordinator spent in barrier work
    /// (applying transmits, draining mailboxes, computing windows).
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
        self.mailbox_spills += other.mailbox_spills;
        self.spill_max = self.spill_max.max(other.spill_max);
        self.barrier_wall_ns += other.barrier_wall_ns;
        self.stall_wall_ns += other.stall_wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_preserves_fifo_across_spill() {
        let mut mb = Mailbox::with_capacity(4);
        for i in 0..10 {
            mb.push(i);
        }
        assert_eq!(mb.len(), 10);
        assert_eq!(mb.spill_count(), 6);
        assert_eq!(mb.spill_high_water(), 6);
        let order: Vec<_> = mb.drain().collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert!(mb.is_empty());
        // The spill count and high-water mark survive the drain.
        assert_eq!(mb.spill_count(), 6);
        assert_eq!(mb.spill_high_water(), 6);
    }

    #[test]
    fn saturated_mailbox_keeps_every_message_and_records_high_water() {
        // Saturate far past the warn threshold: nothing may be dropped,
        // order must hold, and the high-water mark reflects the deepest
        // spill (the whole overrun, since nothing drained in between).
        let cap = 4;
        let total = cap * (MAILBOX_SPILL_WARN_FACTOR + 2) + 3;
        let mut mb = Mailbox::with_capacity(cap);
        for i in 0..total {
            mb.push(i);
        }
        assert_eq!(mb.len(), total);
        assert_eq!(mb.spill_count(), (total - cap) as u64);
        assert_eq!(mb.spill_high_water(), (total - cap) as u64);
        let drained: Vec<_> = mb.drain().collect();
        assert_eq!(drained, (0..total).collect::<Vec<_>>());
        // A later, smaller round does not shrink the high-water mark.
        for i in 0..cap + 1 {
            mb.push(i);
        }
        assert_eq!(mb.spill_high_water(), (total - cap) as u64);
    }

    #[test]
    fn mailbox_reuses_ring_after_drain() {
        let mut mb = Mailbox::with_capacity(2);
        mb.push("a");
        mb.push("b");
        assert_eq!(mb.drain().collect::<Vec<_>>(), vec!["a", "b"]);
        mb.push("c");
        assert_eq!(mb.spill_count(), 0);
        assert_eq!(mb.drain().collect::<Vec<_>>(), vec!["c"]);
    }

    #[test]
    fn shard_stats_merge_sums_and_maxes() {
        let mut a = ShardStats {
            shards: 4,
            barriers: 10,
            admitted_msgs: 5,
            deferred_transmits: 7,
            mailbox_spills: 1,
            spill_max: 3,
            barrier_wall_ns: 100,
            stall_wall_ns: 50,
        };
        let b = ShardStats {
            shards: 4,
            barriers: 10,
            admitted_msgs: 3,
            deferred_transmits: 2,
            mailbox_spills: 0,
            spill_max: 9,
            barrier_wall_ns: 40,
            stall_wall_ns: 75,
        };
        a.merge(&b);
        assert_eq!(a.barriers, 10);
        assert_eq!(a.admitted_msgs, 8);
        assert_eq!(a.deferred_transmits, 9);
        assert_eq!(a.spill_max, 9, "high-water mark maxes, not sums");
        assert_eq!(a.stall_wall_ns, 125);
    }
}
