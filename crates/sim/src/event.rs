//! The event queue at the heart of the simulator.
//!
//! Historically a `BinaryHeap` ordered by `(time, sequence)`; it is now a
//! hierarchical timing wheel with a calendar-queue (heap) fallback for
//! far-future events. The observable contract is unchanged and locked in
//! by a lockstep property test against the old heap:
//!
//! - events pop in `(time, seq)` order, so same-timestamp events pop in
//!   push order (*stable FIFO*) — essential for deterministic replays of
//!   the MPI progress engine, where many zero-cost bookkeeping events
//!   share a timestamp;
//! - `now()` never moves backwards, and pushes into the past panic in
//!   debug builds / clamp-and-count in release builds ([`ClampStats`]).
//!
//! # Wheel layout
//!
//! `LEVELS` (7) levels of 64 slots each; a slot at level `k` spans
//! `2^(SUB + 6k)` ns, so bottom-level slots are 64 ns wide and the whole
//! wheel covers 48 bits of horizon (~78 hours at 7 levels). An event at
//! absolute time `t` lives at the level of the highest 6-bit group where
//! `t` differs from the wheel's internal `cursor` (with the bottom level
//! absorbing the lowest `SUB + 6` bits); per-level occupancy bitmaps
//! make "find the earliest slot" a trailing-zeros instruction. Draining a
//! level-`k>0` slot advances the cursor to the slot's start and *cascades*
//! its events down to lower levels; draining a bottom-level slot dumps its
//! events into a `ready` run sorted by `(time, seq)`, which restores both
//! time order within the window and FIFO order on timestamp ties
//! regardless of whether events arrived by direct push or by cascade.
//!
//! The ready run doubles as the wheel's "present": a push landing inside
//! the drained window (`at < ready_until`) goes straight into the sorted
//! run — usually an O(1) append, since new pushes carry the largest
//! sequence number — and never touches the slab at all. That is the
//! simulator's hottest pattern (handlers scheduling at `now + tiny Δ`
//! while the engine pops), so the common case costs one `VecDeque` push.
//!
//! Events beyond the wheel horizon go to an overflow heap and migrate
//! into the wheel when it drains down to them. Wheel nodes live in a
//! [`Slab`], so steady-state push/pop traffic performs no allocator calls
//! at all.

use crate::clock::{Duration, Time};
use crate::slab::{Slab, NIL};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the wheel fan-out: 64 slots per level.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// log2 of a bottom-level slot's span in ns. Draining a bottom slot sorts
/// its population by `(time, seq)`, so the span trades sort width against
/// cascade traffic. 64 ns measures fastest: drained runs stay a handful
/// of events (insertion-sort territory), while 4096 ns slots made every
/// drain a 100+-element sort of random-ordered tuples, which cost more
/// than the cascades it avoided.
const SUB: u32 = BITS;
/// Wheel depth. Level `k` slots span `2^(SUB + 6k)` ns, so 7 levels atop
/// 64 ns bottom slots cover 48 bits of horizon (~78 hours in ns);
/// anything further out goes to the overflow calendar.
const LEVELS: usize = 7;

/// A slab-resident wheel event. The intrusive `next` links live in a
/// separate dense array (`EventQueue::next`), not here: appending to a
/// slot list then writes 4 bytes into a hot 16 KB array instead of
/// dirtying the 32-byte node line of the current tail, and the node
/// itself stays one cache line smaller.
struct Node<E> {
    time: Time,
    seq: u64,
    payload: E,
}

/// One wheel slot: an intrusive singly-linked list through the node slab.
/// The tail pointer keeps direct-push appends O(1) and in arrival order
/// (which the bottom-level `(time, seq)` sort then no longer depends on,
/// but keeping lists ordered keeps cascades cheap and debugging sane).
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

impl SlotList {
    const EMPTY: SlotList = SlotList {
        head: NIL,
        tail: NIL,
    };
}

struct Far<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Tally of release-mode past-event clamps.
///
/// A clamp means some component computed a timestamp earlier than the
/// current virtual time — a determinism hazard that debug builds turn into
/// a panic. Release builds clamp to `now` so long simulations degrade
/// gracefully, but the occurrence is counted here rather than vanishing
/// without trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClampStats {
    /// How many pushes were clamped to `now`.
    pub count: u64,
    /// Sum of all clamped-away skews (`now - requested`).
    pub total_skew: Duration,
    /// Largest single clamped-away skew.
    pub max_skew: Duration,
}

/// Timing-wheel health counters, surfaced in run reports so sustained-load
/// runs can see where queue time goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Pushes that landed beyond the wheel horizon in the overflow
    /// calendar (each later pays a heap push + migration).
    pub overflow_hits: u64,
    /// Nodes relocated from a higher level to a lower one while the
    /// cursor advanced.
    pub cascades: u64,
    /// Bottom-level slots drained ("wheel ticks", one per 64 ns window
    /// served); `processed() / slots_drained` is the events-per-tick
    /// figure.
    pub slots_drained: u64,
    /// Peak number of events simultaneously resident in the node slab.
    pub slab_high_water: u32,
}

impl WheelStats {
    /// Mean events per drained level-0 slot, given the queue's total
    /// processed count.
    pub fn events_per_tick(&self, processed: u64) -> f64 {
        if self.slots_drained == 0 {
            0.0
        } else {
            processed as f64 / self.slots_drained as f64
        }
    }
}

/// A deterministic discrete-event queue.
///
/// `now()` never moves backwards: popping an event advances the clock to the
/// event's timestamp, and pushing an event in the past panics in debug builds
/// (it is clamped to `now` in release builds so long simulations degrade
/// gracefully instead of deadlocking).
pub struct EventQueue<E> {
    nodes: Slab<Node<E>>,
    /// Intrusive slot-list links, indexed by node key (see [`Node`]).
    next: Vec<u32>,
    levels: [[SlotList; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    /// Internal wheel time: start of the most recently drained slot.
    /// Invariant: `cursor <= now`, and every pending wheel event's time is
    /// `>= cursor` (so slot indices never wrap within a window).
    cursor: Time,
    /// The drained bottom-level window awaiting pops, sorted ascending by
    /// `(time, seq)` and served from the front. Pushes with
    /// `at < ready_until` merge directly into this run (O(1) in the
    /// common newest-seq case) instead of entering the wheel.
    ready: VecDeque<(Time, u64, E)>,
    /// Exclusive end of the time window `ready` covers. Every event still
    /// in the wheel or overflow has `time >= ready_until`.
    ready_until: Time,
    overflow: BinaryHeap<Far<E>>,
    now: Time,
    seq: u64,
    popped: u64,
    clamps: ClampStats,
    stats: WheelStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            // Pre-size one page-order of nodes: growth reallocs copy the
            // whole slab, and paying that mid-simulation (or mid-bench)
            // costs more than the ~160 KB a 4096-node table occupies.
            nodes: Slab::with_capacity(1 << 12),
            next: Vec::new(),
            levels: [[SlotList::EMPTY; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            cursor: Time::ZERO,
            ready: VecDeque::new(),
            ready_until: Time::ZERO,
            overflow: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            popped: 0,
            clamps: ClampStats::default(),
            stats: WheelStats::default(),
        }
    }

    /// Current virtual time: the timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len() + self.ready.len() + self.overflow.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Level an event at `at` belongs to, relative to the current cursor:
    /// the highest 6-bit group where the two times differ, with the bottom
    /// level absorbing the lowest *two* groups (its slots are 64 ns wide).
    /// `LEVELS` means "beyond the horizon → overflow".
    #[inline]
    fn level_of(&self, at: Time) -> usize {
        let diff = at.0 ^ self.cursor.0;
        if diff < 1 << (SUB + BITS) {
            0
        } else {
            ((63 - diff.leading_zeros() - SUB) / BITS) as usize
        }
    }

    /// Schedule `payload` at absolute time `at`.
    pub fn push_at(&mut self, at: Time, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_keyed(at, seq, payload);
    }

    /// Schedule `payload` at `at` under a caller-supplied ordering key.
    ///
    /// Ties in time break on the key exactly as they break on the internal
    /// sequence number under [`push_at`](Self::push_at). The cluster loop
    /// uses this to give every event a *canonical* key derived from its
    /// origin rank, drawn in that rank's program order, so same-time ties
    /// break the same way on every run and the fault plan can key its
    /// draws by event. A queue must use one discipline or the other: mixing
    /// auto-sequence and canonical keys would interleave two unrelated tie
    /// orders.
    #[inline]
    pub fn push_at_key(&mut self, at: Time, key: u64, payload: E) {
        self.push_keyed(at, key, payload);
    }

    fn push_keyed(&mut self, at: Time, seq: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        if at < self.now {
            // Release builds clamp rather than panic, but record the hazard:
            // a clamp rewrites a computed timestamp and can mask an ordering
            // bug upstream.
            let skew = self.now.since(at);
            self.clamps.count += 1;
            self.clamps.total_skew += skew;
            self.clamps.max_skew = self.clamps.max_skew.max(skew);
        }
        let at = at.max(self.now);
        if at < self.ready_until {
            // Lands inside the already-drained window: merge straight into
            // the sorted ready run. A fresh push carries the largest seq,
            // so unless an *earlier time* within the window is still
            // pending behind it, this is a plain append.
            match self.ready.back() {
                Some(last) if (last.0, last.1) > (at, seq) => {
                    let pos = self.ready.partition_point(|e| (e.0, e.1) < (at, seq));
                    self.ready.insert(pos, (at, seq, payload));
                }
                _ => self.ready.push_back((at, seq, payload)),
            }
            return;
        }
        let level = self.level_of(at);
        if level >= LEVELS {
            self.stats.overflow_hits += 1;
            self.overflow.push(Far {
                time: at,
                seq,
                payload,
            });
            return;
        }
        self.insert_node(level, at, seq, payload);
    }

    fn insert_node(&mut self, level: usize, at: Time, seq: u64, payload: E) {
        let key = self.nodes.insert(Node {
            time: at,
            seq,
            payload,
        });
        if key as usize >= self.next.len() {
            self.next.resize(key as usize + 1, NIL);
        }
        self.link(level, at, key);
    }

    /// Append an already-slabbed node to the tail of its slot's list.
    /// Cascades use this directly, relocating a node between levels
    /// without any slab free-list traffic.
    fn link(&mut self, level: usize, at: Time, key: u32) {
        let slot = ((at.0 >> (SUB + BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.next[key as usize] = NIL;
        let list = &mut self.levels[level][slot];
        if list.head == NIL {
            list.head = key;
            list.tail = key;
            self.occupied[level] |= 1 << slot;
        } else {
            let tail = list.tail;
            list.tail = key;
            self.next[tail as usize] = key;
        }
    }

    /// Schedule `payload` after `delay` from now.
    #[inline]
    pub fn push_after(&mut self, delay: Duration, payload: E) {
        self.push_at(self.now + delay, payload);
    }

    /// Detach a slot's list, returning its head key.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        let list = std::mem::replace(&mut self.levels[level][slot], SlotList::EMPTY);
        self.occupied[level] &= !(1 << slot);
        list.head
    }

    /// Make the earliest pending events servable from `ready`.
    /// Returns `false` when the queue is empty.
    fn refill_ready(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        loop {
            if self.nodes.is_empty() {
                // Wheel drained: migrate the overflow calendar, or report
                // empty. Advancing the cursor to the overflow minimum
                // re-centers the horizon so a full batch fits in the wheel.
                let min = match self.overflow.peek() {
                    Some(far) => far.time,
                    None => return false,
                };
                debug_assert!(min >= self.cursor);
                self.cursor = min;
                while let Some(far) = self.overflow.peek() {
                    let level = self.level_of(far.time);
                    if level >= LEVELS {
                        break;
                    }
                    let far = self.overflow.pop().expect("peeked");
                    self.insert_node(level, far.time, far.seq, far.payload);
                }
                continue;
            }
            // Lower levels hold strictly earlier windows, so the lowest
            // occupied level contains the earliest event.
            let level = self
                .occupied
                .iter()
                .position(|&bits| bits != 0)
                .expect("nodes live in some slot");
            let slot = self.occupied[level].trailing_zeros() as usize;
            let shift = SUB + BITS * level as u32;
            // Start of the slot's window: the cursor's bits above the
            // window, the slot index within it, zeros below. After an
            // overflow re-centering the cursor may sit mid-slot, so never
            // move it backwards.
            let slot_start =
                Time((self.cursor.0 & !((1u64 << (shift + BITS)) - 1)) | ((slot as u64) << shift));
            self.cursor = self.cursor.max(slot_start);
            let mut key = self.take_slot(level, slot);
            if level == 0 {
                // Bottom slot: its window of events becomes the new ready
                // run. Sorting by (time, seq) restores both time order
                // within the window and FIFO order on ties, erasing any
                // skew between direct pushes and cascades.
                self.ready_until = Time(slot_start.0 + (1 << SUB));
                debug_assert!(self.ready_until > self.cursor);
                while key != NIL {
                    let node = self.nodes.remove(key);
                    debug_assert!(node.time >= slot_start && node.time < self.ready_until);
                    self.ready.push_back((node.time, node.seq, node.payload));
                    key = self.next[key as usize];
                }
                self.ready
                    .make_contiguous()
                    .sort_unstable_by_key(|e| (e.0, e.1));
                self.stats.slots_drained += 1;
                return true;
            }
            // Higher-level slot: cascade its events down to their new
            // (lower) levels relative to the advanced cursor. Nodes are
            // relinked in place — no slab free-list traffic, no payload
            // moves.
            let mut cascaded = 0;
            while key != NIL {
                let at = self.nodes.get(key).expect("slot entries are live").time;
                let next = self.next[key as usize];
                let new_level = self.level_of(at);
                debug_assert!(new_level < level);
                self.link(new_level, at, key);
                cascaded += 1;
                key = next;
            }
            self.stats.cascades += cascaded;
        }
    }

    /// Pop the earliest event and advance the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(time, _, payload)| (time, payload))
    }

    /// Pop the earliest event, returning its ordering key alongside the
    /// timestamp. Under [`push_at_key`](Self::push_at_key) the key is the
    /// caller's canonical key; under [`push_at`](Self::push_at) it is the
    /// internal sequence number.
    fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        if self.ready.is_empty() && !self.refill_ready() {
            return None;
        }
        let (time, key, payload) = self.ready.pop_front().expect("refilled");
        debug_assert!(time >= self.now);
        self.now = time;
        self.popped += 1;
        Some((time, key, payload))
    }

    /// Past-event clamp statistics (always zero in debug builds, where a
    /// past push panics instead).
    #[inline]
    pub fn clamp_stats(&self) -> ClampStats {
        self.clamps
    }

    /// Shorthand for `clamp_stats().count`.
    #[inline]
    pub fn clamps(&self) -> u64 {
        self.clamps.count
    }

    /// Wheel health counters (overflow hits, cascades, ticks, slab peak).
    #[inline]
    pub fn wheel_stats(&self) -> WheelStats {
        let mut stats = self.stats;
        stats.slab_high_water = self.nodes.high_water();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_at(Time(30), "c");
        q.push_at(Time(10), "a");
        q.push_at(Time(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(Time(10), "a"), (Time(20), "b"), (Time(30), "c")]
        );
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push_at(Time(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push_at(Time(42), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time(42));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push_at(Time(100), 0u8);
        q.pop();
        q.push_after(Duration(5), 1u8);
        assert_eq!(q.pop(), Some((Time(105), 1u8)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push_at(Time(10), 1);
        q.push_at(Time(50), 5);
        assert_eq!(q.pop(), Some((Time(10), 1)));
        // Schedule something between now and the pending event.
        q.push_at(Time(20), 2);
        assert_eq!(q.pop(), Some((Time(20), 2)));
        assert_eq!(q.pop(), Some((Time(50), 5)));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push_at(Time(100), ());
        q.pop();
        q.push_at(Time(10), ());
    }

    #[test]
    fn clamp_stats_start_at_zero() {
        let mut q = EventQueue::new();
        q.push_at(Time(10), ());
        q.pop();
        q.push_at(Time(20), ());
        assert_eq!(q.clamps(), 0);
        assert_eq!(q.clamp_stats(), ClampStats::default());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_clamps_are_counted_with_skew() {
        let mut q = EventQueue::new();
        q.push_at(Time(100), 0u8);
        q.pop();
        // Two past pushes: skews of 90 and 40 ns.
        q.push_at(Time(10), 1u8);
        q.push_at(Time(60), 2u8);
        let s = q.clamp_stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_skew, Duration(130));
        assert_eq!(s.max_skew, Duration(90));
        // Both events were rewritten to fire at `now`.
        assert_eq!(q.pop(), Some((Time(100), 1u8)));
        assert_eq!(q.pop(), Some((Time(100), 2u8)));
    }

    /// Events beyond the 48-bit wheel horizon take the overflow calendar
    /// and still pop in order (and in FIFO order on timestamp ties).
    #[test]
    fn far_future_events_overflow_and_return() {
        let far = 1u64 << 50;
        let mut q = EventQueue::new();
        q.push_at(Time(far), "far-a");
        q.push_at(Time(5), "near");
        q.push_at(Time(far), "far-b");
        q.push_at(Time(far + 3), "farther");
        assert_eq!(q.wheel_stats().overflow_hits, 3);
        assert_eq!(q.pop(), Some((Time(5), "near")));
        assert_eq!(q.pop(), Some((Time(far), "far-a")));
        assert_eq!(q.pop(), Some((Time(far), "far-b")));
        // A near-future push relative to the advanced clock interleaves
        // correctly with the remaining overflow resident.
        q.push_at(Time(far + 1), "near-again");
        assert_eq!(q.pop(), Some((Time(far + 1), "near-again")));
        assert_eq!(q.pop(), Some((Time(far + 3), "farther")));
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    /// Cascaded events and direct pushes landing on the same timestamp
    /// still pop in global push order.
    #[test]
    fn cascade_preserves_fifo_against_direct_push() {
        let mut q = EventQueue::new();
        // Seq 0 lands above the bottom level (time 300_000 is beyond the
        // bottom window of 2^12 ns), and will cascade downward later.
        q.push_at(Time(300_000), 0);
        q.push_at(Time(90), 1);
        assert_eq!(q.pop(), Some((Time(90), 1)));
        // Draining 300_000's level-1 slot cascades seq 0 into a bottom
        // slot; once popped, the ready window covers its timestamp, so
        // this direct push merges behind it with a *larger* seq.
        q.push_at(Time(300_000), 2);
        assert_eq!(q.pop(), Some((Time(300_000), 0)));
        assert_eq!(q.pop(), Some((Time(300_000), 2)));
        assert!(q.wheel_stats().cascades > 0);
    }

    /// A push landing inside the already-drained ready window at an
    /// *earlier* time than pending ready events still pops in time order.
    #[test]
    fn push_into_ready_window_keeps_time_order() {
        let mut q = EventQueue::new();
        q.push_at(Time(10), 1);
        q.push_at(Time(50), 5);
        assert_eq!(q.pop(), Some((Time(10), 1)));
        // 10 and 50 share one 64 ns bottom slot, so 50 already sits in the
        // ready run; 20 must merge in front of it.
        q.push_at(Time(20), 2);
        assert_eq!(q.pop(), Some((Time(20), 2)));
        assert_eq!(q.pop(), Some((Time(50), 5)));
        assert!(q.pop().is_none());
    }

    /// Canonical keys order timestamp ties regardless of push order —
    /// including keys arriving out of order into the drained ready window.
    #[test]
    fn keyed_ties_break_on_key_not_push_order() {
        let mut q = EventQueue::new();
        q.push_at_key(Time(5), 30, "c");
        q.push_at_key(Time(5), 10, "a");
        q.push_at_key(Time(5), 20, "b");
        q.push_at_key(Time(3), 99, "first");
        assert_eq!(q.pop_keyed(), Some((Time(3), 99, "first")));
        // Time 3 and 5 share a bottom slot, so the keyed ties now sit in
        // the ready run; a *smaller* key pushed late must merge ahead.
        q.push_at_key(Time(5), 15, "a2");
        assert_eq!(q.pop_keyed(), Some((Time(5), 10, "a")));
        assert_eq!(q.pop_keyed(), Some((Time(5), 15, "a2")));
        assert_eq!(q.pop_keyed(), Some((Time(5), 20, "b")));
        assert_eq!(q.pop_keyed(), Some((Time(5), 30, "c")));
        assert!(q.pop().is_none());
    }

    /// Keyed events behave identically across the wheel's three storage
    /// tiers (ready run, wheel slots, overflow calendar).
    #[test]
    fn keyed_order_survives_cascade_and_overflow() {
        let far = 1u64 << 50;
        let mut q = EventQueue::new();
        q.push_at_key(Time(far), 7, "far-b");
        q.push_at_key(Time(far), 3, "far-a");
        q.push_at_key(Time(300_000), 9, "mid-b");
        q.push_at_key(Time(300_000), 1, "mid-a");
        q.push_at_key(Time(8), 5, "near");
        assert_eq!(q.pop_keyed(), Some((Time(8), 5, "near")));
        assert_eq!(q.pop_keyed(), Some((Time(300_000), 1, "mid-a")));
        assert_eq!(q.pop_keyed(), Some((Time(300_000), 9, "mid-b")));
        assert_eq!(q.pop_keyed(), Some((Time(far), 3, "far-a")));
        assert_eq!(q.pop_keyed(), Some((Time(far), 7, "far-b")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_stats_count_ticks_and_slab_peak() {
        let mut q = EventQueue::new();
        for i in 0..32 {
            // 8 distinct timestamps spread over 8 bottom slots (64 ns
            // wide).
            q.push_at(Time(64 * (i / 4)), i);
        }
        while q.pop().is_some() {}
        let s = q.wheel_stats();
        assert_eq!(s.slots_drained, 8);
        assert_eq!(s.events_per_tick(q.processed()), 4.0);
        assert_eq!(s.slab_high_water, 32);
        assert_eq!(s.overflow_hits, 0);
    }
}
