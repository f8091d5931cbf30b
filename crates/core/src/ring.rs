//! The circular request list (paper Fig. 5, top).
//!
//! A fixed-capacity ring of request slots. The scheduler maintains `head`
//! (oldest pending entry) and `tail` (next insertion point, "moved to the
//! next IDLE entry" after each enqueue). Requests complete — and are
//! retired — out of order, because cooperative groups signal per-request;
//! the ring therefore tolerates holes and the tail search skips occupied
//! slots.

use crate::request::{FusionOp, FusionRequest, Status, Uid};
use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::DevPtr;
use std::collections::HashMap;
use std::sync::Arc;

/// Why an enqueue was refused (the paper's "negative UID" fallback signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// Every slot is occupied; the progress engine should fall back to a
    /// non-fused path.
    RingFull,
}

/// The circular request buffer.
#[derive(Debug)]
pub struct RequestRing {
    slots: Vec<Option<FusionRequest>>,
    by_uid: HashMap<Uid, usize>,
    tail: usize,
    next_uid: u64,
    occupied: usize,
}

impl RequestRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        RequestRing {
            slots: (0..capacity).map(|_| None).collect(),
            by_uid: HashMap::with_capacity(capacity),
            tail: 0,
            next_uid: 0,
            occupied: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn occupied(&self) -> usize {
        self.occupied
    }

    pub fn is_full(&self) -> bool {
        self.occupied == self.slots.len()
    }

    /// Insert a new `Pending` request at the tail. Returns its UID, or
    /// [`EnqueueError::RingFull`].
    pub fn enqueue(
        &mut self,
        op: FusionOp,
        origin: DevPtr,
        target: DevPtr,
        layout: Arc<CompiledLayout>,
        count: u64,
        bw_cap: Option<f64>,
    ) -> Result<Uid, EnqueueError> {
        if self.is_full() {
            return Err(EnqueueError::RingFull);
        }
        // Find the next IDLE entry from the tail.
        let cap = self.slots.len();
        let mut idx = self.tail;
        while self.slots[idx].is_some() {
            idx = (idx + 1) % cap;
        }
        let uid = Uid(self.next_uid);
        self.next_uid += 1;
        let (stats, class) = FusionRequest::classify(&layout, count);
        self.slots[idx] = Some(FusionRequest {
            uid,
            op,
            origin,
            target,
            layout,
            count,
            stats,
            class,
            bw_cap,
            request_status: Status::Pending,
            response_status: Status::Idle,
        });
        self.by_uid.insert(uid, idx);
        self.tail = (idx + 1) % cap;
        self.occupied += 1;
        Ok(uid)
    }

    pub fn get(&self, uid: Uid) -> Option<&FusionRequest> {
        self.by_uid
            .get(&uid)
            .and_then(|&idx| self.slots[idx].as_ref())
    }

    pub fn get_mut(&mut self, uid: Uid) -> Option<&mut FusionRequest> {
        let idx = *self.by_uid.get(&uid)?;
        self.slots[idx].as_mut()
    }

    /// All `Pending` requests in FIFO (UID) order.
    pub fn pending(&self) -> Vec<Uid> {
        let mut uids: Vec<Uid> = self
            .slots
            .iter()
            .flatten()
            .filter(|r| r.request_status == Status::Pending)
            .map(|r| r.uid)
            .collect();
        uids.sort_unstable();
        uids
    }

    /// Sum of payload bytes over pending requests.
    pub fn pending_bytes(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .filter(|r| r.request_status == Status::Pending)
            .map(|r| r.bytes())
            .sum()
    }

    /// Free a slot once the progress engine has consumed the completion.
    ///
    /// Returns `false` if `uid` is not in the ring — a stale or duplicate
    /// retirement (possible under fault injection) is ignored rather than
    /// tearing the ring down.
    pub fn retire(&mut self, uid: Uid) -> bool {
        let Some(idx) = self.by_uid.remove(&uid) else {
            return false;
        };
        let slot = self.slots[idx].take().expect("slot occupied");
        debug_assert_eq!(slot.response_status, Status::Completed);
        self.occupied -= 1;
        true
    }

    /// Iterate over every live request (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &FusionRequest> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_datatype::TypeBuilder;

    fn layout() -> Arc<CompiledLayout> {
        Arc::new(CompiledLayout::of(&TypeBuilder::vector(
            2,
            1,
            2,
            TypeBuilder::int(),
        )))
    }

    fn ptr() -> DevPtr {
        DevPtr { addr: 0, len: 64 }
    }

    fn enqueue_one(ring: &mut RequestRing) -> Uid {
        ring.enqueue(FusionOp::Pack, ptr(), ptr(), layout(), 1, None)
            .expect("ring has space")
    }

    #[test]
    fn uids_are_monotonic_and_fifo() {
        let mut ring = RequestRing::new(8);
        let a = enqueue_one(&mut ring);
        let b = enqueue_one(&mut ring);
        let c = enqueue_one(&mut ring);
        assert!(a < b && b < c);
        assert_eq!(ring.pending(), vec![a, b, c]);
        assert_eq!(ring.occupied(), 3);
    }

    #[test]
    fn full_ring_rejects() {
        let mut ring = RequestRing::new(2);
        enqueue_one(&mut ring);
        enqueue_one(&mut ring);
        assert!(ring.is_full());
        let err = ring
            .enqueue(FusionOp::Pack, ptr(), ptr(), layout(), 1, None)
            .unwrap_err();
        assert_eq!(err, EnqueueError::RingFull);
    }

    #[test]
    fn retire_frees_slot_for_reuse() {
        let mut ring = RequestRing::new(2);
        let a = enqueue_one(&mut ring);
        let b = enqueue_one(&mut ring);
        for uid in [a, b] {
            let r = ring.get_mut(uid).expect("live");
            r.request_status = Status::Busy;
            r.response_status = Status::Completed;
        }
        ring.retire(a);
        assert!(!ring.is_full());
        let c = enqueue_one(&mut ring);
        assert!(c > b);
        assert_eq!(ring.occupied(), 2);
        assert!(ring.get(a).is_none(), "retired entries are gone");
    }

    #[test]
    fn out_of_order_retirement_tolerates_holes() {
        let mut ring = RequestRing::new(4);
        let uids: Vec<Uid> = (0..4).map(|_| enqueue_one(&mut ring)).collect();
        // Complete and retire the *middle* two.
        for &uid in &uids[1..3] {
            let r = ring.get_mut(uid).expect("live");
            r.request_status = Status::Busy;
            r.response_status = Status::Completed;
            ring.retire(uid);
        }
        assert_eq!(ring.occupied(), 2);
        // New enqueues find the holes.
        let e = enqueue_one(&mut ring);
        let f = enqueue_one(&mut ring);
        assert!(ring.is_full());
        assert_eq!(ring.pending(), vec![uids[0], uids[3], e, f]);
    }

    #[test]
    fn pending_bytes_sums_payload() {
        let mut ring = RequestRing::new(4);
        enqueue_one(&mut ring); // vector(2,1,2) of int, count 1 = 8 bytes
        enqueue_one(&mut ring);
        assert_eq!(ring.pending_bytes(), 16);
        // Busy requests no longer count as pending.
        let uid = ring.pending()[0];
        ring.get_mut(uid).expect("live").request_status = Status::Busy;
        assert_eq!(ring.pending_bytes(), 8);
    }

    #[test]
    fn retiring_unknown_uid_is_rejected() {
        let mut ring = RequestRing::new(2);
        assert!(!ring.retire(Uid(99)), "unknown uid is refused, not fatal");
        let a = enqueue_one(&mut ring);
        let r = ring.get_mut(a).expect("live");
        r.request_status = Status::Busy;
        r.response_status = Status::Completed;
        assert!(ring.retire(a));
        assert!(!ring.retire(a), "double retire is refused");
        assert_eq!(ring.occupied(), 0);
    }
}
