//! Property-based tests of the [`RequestRing`]: invariants that must hold
//! for any interleaving of enqueues and out-of-order retirements — the
//! access pattern the progress engine produces, including the
//! backpressure-requeue ladder the fault-injection paths exercise.

use fusedpack_core::{EnqueueError, FusionOp, RequestRing, Status, Uid};
use fusedpack_datatype::{CompiledLayout, TypeBuilder};
use fusedpack_gpu::DevPtr;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

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

fn try_enqueue(ring: &mut RequestRing) -> Result<Uid, EnqueueError> {
    ring.enqueue(FusionOp::Pack, ptr(), ptr(), layout(), 1, None)
}

/// Mark a live request completed so `retire` passes its status invariant
/// (the progress engine only retires consumed completions).
fn complete(ring: &mut RequestRing, uid: Uid) {
    let r = ring.get_mut(uid).expect("live request");
    r.request_status = Status::Busy;
    r.response_status = Status::Completed;
}

/// One step of the driver: try to insert, or complete-and-retire the live
/// request at `victim % live.len()` (a no-op when none are live).
#[derive(Debug, Clone)]
enum Op {
    Enqueue,
    Retire { victim: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Enqueue),
        Just(Op::Enqueue),
        any::<usize>().prop_map(|victim| Op::Retire { victim }),
    ]
}

proptest! {
    /// Under arbitrary enqueue/retire interleavings with out-of-order
    /// retirement: no request is ever lost or duplicated (every issued UID
    /// is live in exactly one slot until its one successful retirement),
    /// UIDs are unique and monotonic, `occupied` reconciles with the
    /// model, and enqueue fails with `RingFull` exactly when the model
    /// says the ring is at capacity — never earlier, never later.
    #[test]
    fn no_request_lost_or_duplicated(
        cap in 1usize..9,
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut ring = RequestRing::new(cap);
        let mut live: Vec<Uid> = Vec::new();
        let mut last_uid: Option<Uid> = None;

        for op in ops {
            match op {
                Op::Enqueue => {
                    let res = try_enqueue(&mut ring);
                    if live.len() == cap {
                        prop_assert_eq!(
                            res, Err(EnqueueError::RingFull),
                            "full ring must refuse (live={})", live.len()
                        );
                    } else {
                        let uid = match res {
                            Ok(uid) => uid,
                            Err(e) => {
                                return Err(TestCaseError::fail(format!(
                                    "ring refused with {} free slots: {e:?}",
                                    cap - live.len()
                                )))
                            }
                        };
                        // Monotonic and unique: strictly above every
                        // UID ever issued.
                        if let Some(prev) = last_uid {
                            prop_assert!(uid > prev, "{uid:?} <= {prev:?}");
                        }
                        last_uid = Some(uid);
                        live.push(uid);
                    }
                }
                Op::Retire { victim } => {
                    if live.is_empty() {
                        // Nothing live: any retirement is stale and must
                        // be refused, not fatal.
                        prop_assert!(!ring.retire(Uid(u64::MAX)));
                        continue;
                    }
                    let uid = live.remove(victim % live.len());
                    complete(&mut ring, uid);
                    prop_assert!(ring.retire(uid), "live {uid:?} must retire");
                    prop_assert!(!ring.retire(uid), "double retire of {uid:?}");
                    prop_assert!(ring.get(uid).is_none(), "{uid:?} still visible");
                }
            }
            // Reconcile against the model after every step.
            prop_assert_eq!(ring.occupied(), live.len());
            prop_assert_eq!(ring.is_full(), live.len() == cap);
            for &uid in &live {
                prop_assert!(ring.get(uid).is_some(), "lost live {uid:?}");
            }
            let mut want: Vec<Uid> = live.clone();
            want.sort_unstable();
            prop_assert_eq!(ring.pending(), want, "pending() diverged from model");
        }
    }

    /// The backpressure-requeue ladder: operations refused by a full ring
    /// park in a FIFO queue and re-enqueue as retirements free slots. For
    /// any schedule of arrivals and retirements, parked operations must
    /// acquire UIDs in exactly their park order — per-lane FIFO is
    /// preserved end to end, and nothing parked is dropped.
    #[test]
    fn requeue_preserves_fifo_order(
        cap in 1usize..5,
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut ring = RequestRing::new(cap);
        // (lane tag in arrival order, uid once admitted)
        let mut parked: VecDeque<u64> = VecDeque::new();
        let mut admitted: Vec<(u64, Uid)> = Vec::new();
        let mut live: Vec<Uid> = Vec::new();
        let mut next_tag = 0u64;

        for op in ops {
            match op {
                Op::Enqueue => {
                    let tag = next_tag;
                    next_tag += 1;
                    // Arrivals behind a non-empty park queue must queue
                    // behind it — jumping ahead would reorder the lane.
                    if parked.is_empty() {
                        match try_enqueue(&mut ring) {
                            Ok(uid) => {
                                admitted.push((tag, uid));
                                live.push(uid);
                            }
                            Err(EnqueueError::RingFull) => parked.push_back(tag),
                        }
                    } else {
                        parked.push_back(tag);
                    }
                }
                Op::Retire { victim } => {
                    if live.is_empty() {
                        continue;
                    }
                    let uid = live.remove(victim % live.len());
                    complete(&mut ring, uid);
                    prop_assert!(ring.retire(uid));
                    // Drain the park queue front-first into freed slots,
                    // exactly as `drain_fusion_requeue` does.
                    while let Some(&tag) = parked.front() {
                        match try_enqueue(&mut ring) {
                            Ok(uid) => {
                                parked.pop_front();
                                admitted.push((tag, uid));
                                live.push(uid);
                            }
                            Err(EnqueueError::RingFull) => break,
                        }
                    }
                }
            }
        }
        // Lane order == admission order == UID order: any FIFO violation
        // shows up as an inversion in one of the two sequences.
        for pair in admitted.windows(2) {
            prop_assert!(
                pair[0].0 < pair[1].0,
                "lane reordered: tag {} admitted before tag {}",
                pair[1].0, pair[0].0
            );
            prop_assert!(
                pair[0].1 < pair[1].1,
                "uid inversion: {:?} then {:?}", pair[0].1, pair[1].1
            );
        }
        prop_assert_eq!(
            admitted.len() + parked.len(),
            next_tag as usize,
            "an arrival was dropped"
        );
    }
}
