//! The request list (paper Fig. 5, top).
//!
//! The paper keeps requests in a fixed circular buffer whose `Tail` moves
//! to the next IDLE entry after each enqueue, and answers both flush
//! conditions by walking it. This ring keeps the same contract — at most
//! `capacity` live requests, UIDs handed out in FIFO order, `RingFull` at
//! capacity — with bookkeeping that costs O(1) per request whatever the
//! capacity:
//!
//! * **Slots** live in a [`Slab`], grown one entry at a time as occupancy
//!   first needs it and recycled through its free list, so a rank's ring
//!   costs memory for the most it ever held, not for its capacity.
//!   Requests complete — and are retired — out of order, because
//!   cooperative groups signal per request; a retirement just frees its
//!   slot for the next enqueue.
//! * **Pending requests** queue in a FIFO of slot keys next to a running
//!   pending-byte count. UIDs are issued in enqueue order and a request
//!   only stops pending when it is launched from the front, so the FIFO is
//!   in UID order and the oldest requests are always at its head.
//! * **Status changes** happen only through [`RequestRing::launch_next`]
//!   (`Pending` → `Busy`), [`RequestRing::complete`] (response
//!   `Completed`) and [`RequestRing::retire`]; callers get shared
//!   references only, so the FIFO and the byte count cannot drift from
//!   the requests' status.
//! * **UID lookups** go through an [`IntMap`] from UID to slot key.

use crate::request::{FusionOp, FusionRequest, Status, Uid};
use fusedpack_datatype::CompiledLayout;
use fusedpack_sim::{IntMap, Slab};
use std::collections::VecDeque;

/// Why an enqueue was refused (the paper's "negative UID" fallback signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// Every slot is occupied; the progress engine should fall back to a
    /// non-fused path.
    RingFull,
}

/// The bounded request list.
#[derive(Debug)]
pub struct RequestRing {
    capacity: usize,
    slots: Slab<FusionRequest>,
    by_uid: IntMap<Uid, u32>,
    /// Slot keys of the `Pending` requests, oldest first.
    pending: VecDeque<u32>,
    /// Payload bytes of the requests in `pending`.
    pending_bytes: u64,
    next_uid: u64,
}

impl RequestRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        RequestRing {
            capacity,
            slots: Slab::new(),
            by_uid: IntMap::default(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_uid: 0,
        }
    }

    /// Live requests: pending, busy, or completed but not yet retired.
    pub fn occupied(&self) -> usize {
        self.slots.len()
    }

    pub fn is_full(&self) -> bool {
        self.occupied() == self.capacity
    }

    /// Slot storage allocated so far: the most requests ever live at once,
    /// never more than the capacity.
    pub fn slots_allocated(&self) -> usize {
        self.slots.capacity()
    }

    /// Insert a new `Pending` request for `count` elements of `layout`,
    /// classified once here. Returns its UID, or
    /// [`EnqueueError::RingFull`].
    pub fn enqueue(
        &mut self,
        op: FusionOp,
        layout: &CompiledLayout,
        count: u64,
        bw_cap: Option<f64>,
    ) -> Result<Uid, EnqueueError> {
        if self.is_full() {
            return Err(EnqueueError::RingFull);
        }
        let uid = Uid(self.next_uid);
        self.next_uid += 1;
        let stats = FusionRequest::classify(layout, count);
        let key = self.slots.insert(FusionRequest {
            uid,
            op,
            stats,
            bw_cap,
            request_status: Status::Pending,
            response_status: Status::Idle,
        });
        self.by_uid.insert(uid, key);
        self.pending.push_back(key);
        self.pending_bytes += stats.total_bytes;
        Ok(uid)
    }

    pub fn get(&self, uid: Uid) -> Option<&FusionRequest> {
        self.slots.get(*self.by_uid.get(&uid)?)
    }

    /// Are any requests waiting to be launched?
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of requests waiting to be launched.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The `Pending` requests' UIDs, oldest first.
    pub fn pending(&self) -> impl ExactSizeIterator<Item = Uid> + '_ {
        self.pending.iter().map(|&key| self.live(key).uid)
    }

    /// Sum of payload bytes over pending requests.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Launch the oldest pending request: it turns `Busy` and leaves the
    /// pending queue. `None` when nothing is pending.
    pub fn launch_next(&mut self) -> Option<&FusionRequest> {
        let key = self.pending.pop_front()?;
        let req = self.slots.get_mut(key).expect("pending slot is live");
        req.request_status = Status::Busy;
        self.pending_bytes -= req.bytes();
        Some(req)
    }

    /// The device signalled that `uid` finished: its response status turns
    /// `Completed`. Returns `false` — and changes nothing — for a UID that
    /// is not live or was never launched.
    pub fn complete(&mut self, uid: Uid) -> bool {
        let Some(&key) = self.by_uid.get(&uid) else {
            return false;
        };
        let req = self.slots.get_mut(key).expect("indexed slot is live");
        if req.request_status != Status::Busy {
            return false;
        }
        req.response_status = Status::Completed;
        true
    }

    /// Free a slot once the progress engine has consumed the completion.
    ///
    /// Returns `false` if `uid` is not in the ring or has not completed —
    /// a stale or duplicate retirement (possible under fault injection) is
    /// ignored rather than tearing the ring down.
    pub fn retire(&mut self, uid: Uid) -> bool {
        let Some(&key) = self.by_uid.get(&uid) else {
            return false;
        };
        if !self.live(key).is_complete() {
            return false;
        }
        self.by_uid.remove(&uid);
        self.slots.remove(key);
        true
    }

    fn live(&self, key: u32) -> &FusionRequest {
        self.slots.get(key).expect("indexed slot is live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_datatype::TypeBuilder;

    fn layout() -> CompiledLayout {
        CompiledLayout::of(&TypeBuilder::vector(2, 1, 2, TypeBuilder::int()))
    }

    fn enqueue_one(ring: &mut RequestRing) -> Uid {
        ring.enqueue(FusionOp::Pack, &layout(), 1, None)
            .expect("ring has space")
    }

    /// Launch every pending request and return their UIDs, oldest first.
    fn launch_all(ring: &mut RequestRing) -> Vec<Uid> {
        std::iter::from_fn(|| ring.launch_next().map(|r| r.uid)).collect()
    }

    #[test]
    fn uids_are_monotonic_and_fifo() {
        let mut ring = RequestRing::new(8);
        let a = enqueue_one(&mut ring);
        let b = enqueue_one(&mut ring);
        let c = enqueue_one(&mut ring);
        assert!(a < b && b < c);
        assert_eq!(ring.pending().collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(ring.occupied(), 3);
    }

    #[test]
    fn full_ring_rejects() {
        let mut ring = RequestRing::new(2);
        enqueue_one(&mut ring);
        enqueue_one(&mut ring);
        assert!(ring.is_full());
        let err = ring
            .enqueue(FusionOp::Pack, &layout(), 1, None)
            .unwrap_err();
        assert_eq!(err, EnqueueError::RingFull);
    }

    #[test]
    fn retire_frees_slot_for_reuse() {
        let mut ring = RequestRing::new(2);
        let a = enqueue_one(&mut ring);
        let b = enqueue_one(&mut ring);
        for uid in launch_all(&mut ring) {
            assert!(ring.complete(uid));
        }
        ring.retire(a);
        assert!(!ring.is_full());
        let c = enqueue_one(&mut ring);
        assert!(c > b);
        assert_eq!(ring.occupied(), 2);
        assert!(ring.get(a).is_none(), "retired entries are gone");
        assert_eq!(ring.slots_allocated(), 2, "the freed slot was reused");
    }

    #[test]
    fn out_of_order_retirement_tolerates_holes() {
        let mut ring = RequestRing::new(4);
        let uids: Vec<Uid> = (0..4).map(|_| enqueue_one(&mut ring)).collect();
        assert_eq!(launch_all(&mut ring), uids, "launch order is UID order");
        // Complete and retire the *middle* two.
        for &uid in &uids[1..3] {
            assert!(ring.complete(uid));
            ring.retire(uid);
        }
        assert_eq!(ring.occupied(), 2);
        // New enqueues find the holes.
        let e = enqueue_one(&mut ring);
        let f = enqueue_one(&mut ring);
        assert!(ring.is_full());
        assert_eq!(ring.slots_allocated(), 4);
        assert_eq!(ring.pending().collect::<Vec<_>>(), vec![e, f]);
        for uid in [uids[0], uids[3], e, f] {
            assert!(ring.get(uid).is_some(), "{uid:?} is live");
        }
    }

    #[test]
    fn pending_bytes_sums_payload() {
        let mut ring = RequestRing::new(4);
        enqueue_one(&mut ring); // vector(2,1,2) of int, count 1 = 8 bytes
        enqueue_one(&mut ring);
        assert_eq!(ring.pending_bytes(), 16);
        // Busy requests no longer count as pending.
        let oldest = ring.pending().next().expect("pending");
        assert_eq!(ring.launch_next().map(|r| r.uid), Some(oldest));
        assert_eq!(ring.pending_bytes(), 8);
        assert_eq!(ring.pending_len(), 1);
    }

    #[test]
    fn status_changes_only_follow_the_protocol() {
        let mut ring = RequestRing::new(2);
        let a = enqueue_one(&mut ring);
        assert!(!ring.complete(a), "a pending request cannot complete");
        assert!(!ring.retire(a), "a pending request cannot retire");
        assert_eq!(ring.pending_bytes(), 8, "refusals leave the count alone");
        launch_all(&mut ring);
        assert!(!ring.retire(a), "a busy request cannot retire");
        assert!(ring.complete(a));
        assert!(ring.retire(a));
        assert!(!ring.complete(a), "a retired request is unknown");
    }

    #[test]
    fn slots_grow_with_occupancy_not_capacity() {
        let mut ring = RequestRing::new(1 << 16);
        assert_eq!(ring.slots_allocated(), 0);
        for _ in 0..10 {
            let uid = enqueue_one(&mut ring);
            launch_all(&mut ring);
            ring.complete(uid);
            ring.retire(uid);
        }
        assert_eq!(ring.slots_allocated(), 1, "one live request at a time");
    }

    #[test]
    fn retiring_unknown_uid_is_rejected() {
        let mut ring = RequestRing::new(2);
        assert!(!ring.retire(Uid(99)), "unknown uid is refused, not fatal");
        let a = enqueue_one(&mut ring);
        launch_all(&mut ring);
        assert!(ring.complete(a));
        assert!(ring.retire(a));
        assert!(!ring.retire(a), "double retire is refused");
        assert_eq!(ring.occupied(), 0);
    }
}
