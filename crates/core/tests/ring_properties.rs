//! Property-based tests of the [`RequestRing`] and the [`Scheduler`]'s
//! flushes over it: invariants that must hold for any interleaving of
//! enqueues, launches and out-of-order retirements — the access pattern
//! the progress engine produces, including the backpressure-requeue ladder
//! the fault-injection paths exercise.

use fusedpack_core::{
    EnqueueError, FlushReason, FlushedBatch, FusionConfig, FusionOp, RequestRing, Scheduler, Uid,
};
use fusedpack_datatype::{CompiledLayout, TypeBuilder};
use fusedpack_gpu::{DataMode, DevPtr, Gpu, GpuArch, HostLink, StreamId};
use fusedpack_sim::Time;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Payload bytes of one element of [`layout`].
const ELEM_BYTES: u64 = 8;

fn layout() -> CompiledLayout {
    CompiledLayout::of(&TypeBuilder::vector(2, 1, 2, TypeBuilder::int()))
}

fn ptr() -> DevPtr {
    DevPtr { addr: 0, len: 64 }
}

fn gpu() -> Gpu {
    Gpu::new(
        GpuArch::v100(),
        1 << 22,
        DataMode::ModelOnly,
        HostLink::nvlink2_cpu(),
        2,
    )
}

fn try_enqueue(ring: &mut RequestRing, count: u64) -> Result<Uid, EnqueueError> {
    ring.enqueue(FusionOp::Pack, &layout(), count, None)
}

fn sched_enqueue(sched: &mut Scheduler, count: u64) -> Result<Uid, EnqueueError> {
    let (res, _) = sched.enqueue(Time(0), FusionOp::Pack, ptr(), ptr(), layout(), count, None);
    res
}

/// Is `batch` a run of consecutive UIDs?
fn consecutive(batch: &FlushedBatch) -> bool {
    batch.uids.windows(2).all(|w| w[1].0 == w[0].0 + 1)
}

/// Launch pending requests oldest first until `uid` has launched, then
/// signal its completion — the only legal way to finish a request, so
/// `retire` passes its status check. Returns the UIDs launched on the way.
fn complete(ring: &mut RequestRing, uid: Uid) -> Vec<Uid> {
    let mut launched = Vec::new();
    while ring.pending().any(|p| p == uid) {
        launched.push(ring.launch_next().expect("pending request").uid);
    }
    assert!(ring.complete(uid), "launched {uid:?} must complete");
    launched
}

/// One step of a random schedule: insert `count` elements, launch up to
/// `n` of the oldest pending requests, or complete-and-retire the live
/// request at `victim % live` (a stale retirement when none are live).
#[derive(Debug, Clone)]
enum Op {
    Enqueue { count: u64 },
    Launch { n: usize },
    Retire { victim: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..5).prop_map(|count| Op::Enqueue { count }),
        (1u64..5).prop_map(|count| Op::Enqueue { count }),
        (1usize..4).prop_map(|n| Op::Launch { n }),
        any::<usize>().prop_map(|victim| Op::Retire { victim }),
    ]
}

/// The ring as a reference model: pending requests in FIFO order with
/// their bytes, and launched (busy or completed) requests.
#[derive(Default)]
struct Model {
    pending: VecDeque<(Uid, u64)>,
    launched: Vec<Uid>,
    last_launch: Option<Uid>,
    high_water: usize,
}

impl Model {
    fn live(&self) -> usize {
        self.pending.len() + self.launched.len()
    }

    fn pending_bytes(&self) -> u64 {
        self.pending.iter().map(|&(_, b)| b).sum()
    }

    /// Record that the ring launched `uid`: it must be the oldest pending
    /// request, so launches come out in strictly increasing UID order.
    fn launch(&mut self, uid: Uid) -> Result<(), TestCaseError> {
        let front = self.pending.pop_front().map(|(u, _)| u);
        prop_assert_eq!(Some(uid), front, "launch skipped the oldest pending");
        if let Some(prev) = self.last_launch {
            prop_assert!(uid > prev, "launch order {prev:?} then {uid:?}");
        }
        self.last_launch = Some(uid);
        self.launched.push(uid);
        Ok(())
    }
}

proptest! {
    /// Under arbitrary enqueue/launch/retire interleavings with
    /// out-of-order retirement: no request is ever lost or duplicated
    /// (every issued UID is live in exactly one slot until its one
    /// successful retirement), UIDs are unique and monotonic, launches
    /// take pending requests oldest first, `occupied`, `pending()`,
    /// `pending_bytes` and `has_pending` reconcile with the model, the
    /// slot storage grows to the model's high-water occupancy and never
    /// past capacity, and enqueue fails with `RingFull` exactly when the
    /// model says the ring is at capacity — never earlier, never later.
    #[test]
    fn no_request_lost_or_duplicated(
        cap in 1usize..9,
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut ring = RequestRing::new(cap);
        let mut model = Model::default();
        let mut last_uid: Option<Uid> = None;

        for op in ops {
            match op {
                Op::Enqueue { count } => {
                    let res = try_enqueue(&mut ring, count);
                    if model.live() == cap {
                        prop_assert_eq!(
                            res, Err(EnqueueError::RingFull),
                            "full ring must refuse (live={})", model.live()
                        );
                    } else {
                        let uid = match res {
                            Ok(uid) => uid,
                            Err(e) => {
                                return Err(TestCaseError::fail(format!(
                                    "ring refused with {} free slots: {e:?}",
                                    cap - model.live()
                                )))
                            }
                        };
                        // Monotonic and unique: strictly above every
                        // UID ever issued.
                        if let Some(prev) = last_uid {
                            prop_assert!(uid > prev, "{uid:?} <= {prev:?}");
                        }
                        last_uid = Some(uid);
                        model.pending.push_back((uid, count * ELEM_BYTES));
                        model.high_water = model.high_water.max(model.live());
                    }
                }
                Op::Launch { n } => {
                    for _ in 0..n {
                        match ring.launch_next().map(|r| r.uid) {
                            Some(uid) => model.launch(uid)?,
                            None => {
                                prop_assert!(model.pending.is_empty(), "launch found nothing");
                                break;
                            }
                        }
                    }
                }
                Op::Retire { victim } => {
                    if model.live() == 0 {
                        // Nothing live: any retirement is stale and must
                        // be refused, not fatal.
                        prop_assert!(!ring.retire(Uid(u64::MAX)));
                        continue;
                    }
                    let i = victim % model.live();
                    let uid = match model.launched.get(i) {
                        Some(&uid) => uid,
                        None => model.pending[i - model.launched.len()].0,
                    };
                    for launched in complete(&mut ring, uid) {
                        model.launch(launched)?;
                    }
                    model.launched.retain(|&u| u != uid);
                    prop_assert!(ring.retire(uid), "live {uid:?} must retire");
                    prop_assert!(!ring.retire(uid), "double retire of {uid:?}");
                    prop_assert!(ring.get(uid).is_none(), "{uid:?} still visible");
                }
            }
            // Reconcile against the model after every step.
            prop_assert_eq!(ring.occupied(), model.live());
            prop_assert_eq!(ring.is_full(), model.live() == cap);
            prop_assert_eq!(ring.slots_allocated(), model.high_water, "slots grew past use");
            prop_assert!(ring.slots_allocated() <= cap);
            for uid in model.launched.iter().chain(model.pending.iter().map(|(u, _)| u)) {
                prop_assert!(ring.get(*uid).is_some(), "lost live {uid:?}");
            }
            let want: Vec<Uid> = model.pending.iter().map(|&(u, _)| u).collect();
            prop_assert_eq!(
                ring.pending().collect::<Vec<_>>(), want, "pending() diverged from model"
            );
            prop_assert_eq!(ring.pending_bytes(), model.pending_bytes());
            prop_assert_eq!(ring.has_pending(), !model.pending.is_empty());
        }
    }

    /// The scheduler's flushes over the ring: every flush launches the
    /// oldest pending requests in UID order, `min(pending, max_fused)` of
    /// them, continuing exactly where the previous flush stopped; and
    /// `threshold_reached`/`has_pending` track the model's pending bytes
    /// after every step.
    #[test]
    fn flushes_launch_oldest_first_within_max_fused(
        cap in 1usize..9,
        max_fused in 1usize..5,
        threshold in 1u64..100,
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let cfg = FusionConfig {
            ring_capacity: cap,
            max_fused,
            threshold_bytes: threshold,
            ..FusionConfig::default()
        };
        let mut sched = Scheduler::new(cfg);
        let mut gpu = gpu();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Enqueue { count } => {
                    match sched_enqueue(&mut sched, count) {
                        Ok(uid) => model.pending.push_back((uid, count * ELEM_BYTES)),
                        Err(_) => prop_assert_eq!(model.live(), cap, "refused below capacity"),
                    }
                }
                Op::Launch { .. } => {
                    let want = model.pending.len().min(max_fused);
                    let batch = sched.flush(
                        Time(0), &mut gpu, StreamId(0), FlushReason::ThresholdReached,
                    );
                    let uids = batch.map(|b| b.uids).unwrap_or_default();
                    prop_assert_eq!(uids.len(), want, "flush size");
                    for uid in uids {
                        model.launch(uid)?;
                    }
                }
                Op::Retire { victim } => {
                    if model.launched.is_empty() {
                        continue;
                    }
                    let uid = model.launched.remove(victim % model.launched.len());
                    prop_assert!(sched.signal_completion(uid));
                    prop_assert!(sched.retire(Time(0), uid) > fusedpack_sim::Duration::ZERO);
                }
            }
            prop_assert_eq!(sched.ring_occupied(), model.live());
            prop_assert_eq!(sched.has_pending(), !model.pending.is_empty());
            prop_assert_eq!(sched.threshold_reached(), model.pending_bytes() >= threshold);
        }
    }

    /// Every flushed batch is a run of consecutive UIDs, whatever mix of
    /// enqueues (refused ones included), threshold, sync, pressure and
    /// degraded flushes and out-of-order retirements came before it. The
    /// cluster signals a batch's same-instant completions as one event of
    /// `(first uid, count)`, which names the right requests only if this
    /// holds.
    #[test]
    fn flushed_batches_are_consecutive_uid_runs(
        cap in 1usize..9,
        max_fused in 1usize..5,
        threshold in 1u64..100,
        ops in prop::collection::vec(arb_op(), 1..160),
    ) {
        let cfg = FusionConfig {
            ring_capacity: cap,
            max_fused,
            threshold_bytes: threshold,
            ..FusionConfig::default()
        };
        let mut sched = Scheduler::new(cfg);
        let mut gpu = gpu();
        let mut launched: Vec<Uid> = Vec::new();
        let mut refused = 0u32;
        for op in ops {
            let batch = match op {
                Op::Enqueue { count } => match sched_enqueue(&mut sched, count) {
                    Ok(_) if sched.threshold_reached() => sched.flush(
                        Time(0), &mut gpu, StreamId(0), FlushReason::ThresholdReached,
                    ),
                    Ok(_) => None,
                    Err(EnqueueError::RingFull) => {
                        refused += 1;
                        sched.flush(Time(0), &mut gpu, StreamId(0), FlushReason::RingPressure)
                    }
                },
                Op::Launch { n: 1 } => {
                    sched.flush(Time(0), &mut gpu, StreamId(0), FlushReason::SyncPoint)
                }
                Op::Launch { .. } => {
                    sched.flush_degraded(Time(0), &mut gpu, StreamId(0), FlushReason::SyncPoint)
                }
                Op::Retire { victim } => {
                    if !launched.is_empty() {
                        let uid = launched.remove(victim % launched.len());
                        prop_assert!(sched.signal_completion(uid));
                        sched.retire(Time(0), uid);
                    }
                    None
                }
            };
            if let Some(batch) = batch {
                prop_assert!(consecutive(&batch), "batch {:?} has a gap", batch.uids);
                prop_assert_eq!(batch.uids.len(), batch.launch.request_done.len());
                launched.extend(&batch.uids);
            }
        }
        prop_assert_eq!(sched.stats().rejected, u64::from(refused));
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
                Op::Enqueue { count } => {
                    let tag = next_tag;
                    next_tag += 1;
                    // Arrivals behind a non-empty park queue must queue
                    // behind it — jumping ahead would reorder the lane.
                    if parked.is_empty() {
                        match try_enqueue(&mut ring, count) {
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
                Op::Launch { .. } => {}
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
                        match try_enqueue(&mut ring, 1) {
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
