//! The paper's proposed dynamic kernel fusion (and its adaptive variant):
//! pack/unpack/DirectIPC requests enqueue into the per-rank fusion
//! scheduler ring and launch as one cooperative fused kernel per flush
//! (§IV-A2 ②), with the RTS/CTS handshake overlapping the packing.
//!
//! All three request kinds take one path, [`FusionEngine::submit`]:
//! enqueue, register the UID and flush if due — or, when the ring refuses,
//! the backpressure ladder (pressure flush, park, synchronous fallback).

use super::super::rank::FusedOp;
use super::{Event, PathCtx, SchemeEngine};
use crate::lifecycle::LifecycleEvent;
use crate::sendrecv::{RecvId, SendId, StagingLoc};
use fusedpack_core::{EnqueueError, FlushReason, FusionConfig, FusionOp, Scheduler, Uid};
use fusedpack_datatype::cache::lookup_cost;
use fusedpack_gpu::{DevPtr, Gpu, SegmentStats, StreamId};
use fusedpack_sim::{FaultSite, Time};
use fusedpack_telemetry::{Bucket, Telemetry};

pub(crate) struct FusionEngine {
    cfg: FusionConfig,
    adaptive: bool,
}

impl FusionEngine {
    pub(crate) fn new(cfg: FusionConfig, adaptive: bool) -> Self {
        FusionEngine { cfg, adaptive }
    }

    /// Launch one fused kernel over the pending requests (§IV-A2 ②).
    fn flush(&self, cx: &mut PathCtx<'_>, reason: FlushReason) {
        let r = cx.r;
        let mut sched = cx.cl.ranks[r].sched.take().expect("fusion scheme");
        loop {
            if !sched.has_pending() {
                break;
            }
            let now = cx.cl.ranks[r].cpu;
            // Degradation ladder: a failed cooperative launch costs one
            // wasted driver call, then the batch runs as serial per-request
            // kernels instead of one fused grid.
            let degraded = cx.cl.fault_fires(r, FaultSite::FusedLaunchFail, now);
            let batch = if degraded {
                let wasted = cx.cl.gpus[r].arch.launch_cpu;
                cx.cl.ranks[r].cpu += wasted;
                cx.cl.bucket_add_at(r, Bucket::Launch, now, wasted);
                cx.cl
                    .fault_degraded(r, FaultSite::FusedLaunchFail, "serial-kernels", now);
                let at = cx.cl.ranks[r].cpu;
                sched.flush_degraded(at, &mut cx.cl.gpus[r], StreamId(0), reason)
            } else {
                sched.flush(now, &mut cx.cl.gpus[r], StreamId(0), reason)
            };
            let Some(batch) = batch else {
                break;
            };
            // A degraded flush pays one launch per request, a fused one a
            // single cooperative launch.
            let launches = if degraded { batch.uids.len() as u64 } else { 1 };
            let launch_cpu = cx.cl.gpus[r].arch.launch_cpu * launches;
            cx.cl.ranks[r].cpu = batch.launch.cpu_release;
            cx.cl.bucket_add_at(r, Bucket::Launch, now, launch_cpu);
            cx.cl.bucket_add_at(
                r,
                Bucket::Pack,
                batch.launch.start,
                batch.launch.done.since(batch.launch.start),
            );
            let rank_id = cx.cl.ranks[r].id;
            for (&uid, &done) in batch.uids.iter().zip(&batch.launch.request_done) {
                let mut done = done;
                if cx.cl.fault_fires(r, FaultSite::FusedFlagLost, done) {
                    // The per-request completion flag never lands; the
                    // progress engine's watchdog re-polls the ring and
                    // rescues the request one spike later. Data movement is
                    // unaffected (it was applied before the enqueue).
                    let spike = cx.cl.fault_spike(r, FaultSite::FusedFlagLost);
                    cx.cl.fault_recovered(spike);
                    done += spike;
                }
                cx.schedule(done, Event::FusionDone(rank_id, uid));
            }
            // One batch per flush unless more than max_fused were pending.
            if !sched.has_pending() {
                break;
            }
        }
        cx.cl.ranks[r].sched = Some(sched);
    }

    /// Launch now if a flush is due: the pending bytes reached the
    /// threshold (§IV-C scenario 2) or, on the receive side, no receive
    /// still awaits data, so no later arrival can fuse with this batch
    /// (scenario 1 from the receiver's perspective).
    fn flush_if_due(&self, cx: &mut PathCtx<'_>, recv_side: bool) {
        let r = cx.r;
        if cx.cl.ranks[r]
            .sched
            .as_ref()
            .expect("fusion scheme")
            .threshold_reached()
        {
            self.flush(cx, FlushReason::ThresholdReached);
        } else if recv_side && !cx.cl.ranks[r].recvs_awaiting_data() {
            self.flush(cx, FlushReason::SyncPoint);
        }
    }

    /// Put a new request into the ring and launch if due; a refused
    /// enqueue runs the backpressure ladder. Its data movement already
    /// happened.
    fn submit(&self, cx: &mut PathCtx<'_>, op: FusedOp) {
        match self.enqueue(cx, op) {
            Ok(uid) => {
                mark_started(cx, op, Some(uid));
                self.flush_if_due(cx, !matches!(op, FusedOp::Pack(_)));
            }
            Err(EnqueueError::RingFull) => self.backpressure(cx, op),
        }
    }

    /// Enqueue `op`'s fusion request: a pack reads the user buffer into
    /// GPU staging, an unpack the reverse, and a DirectIPC load reads the
    /// peer's buffer over the GPU↔GPU link into the user buffer.
    fn enqueue(&self, cx: &mut PathCtx<'_>, op: FusedOp) -> Result<Uid, EnqueueError> {
        let r = cx.r;
        // Injected exhaustion reports `RingFull` without touching the ring;
        // the backpressure ladder recovers exactly as it would from a
        // genuinely full ring.
        let now = cx.cl.ranks[r].cpu;
        if cx.cl.fault_fires(r, FaultSite::RingExhausted, now) {
            return Err(EnqueueError::RingFull);
        }
        let rank = &cx.cl.ranks[r];
        let (layout, count, user_buf, staging) = match op {
            FusedOp::Pack(i) => {
                let s = &rank.sends[i];
                (&s.layout, s.count, s.user_buf, s.staging)
            }
            FusedOp::Unpack(i) | FusedOp::DirectIpc { rid: i, .. } => {
                let o = &rank.recvs[i];
                (&o.layout, o.count, o.user_buf, o.staging)
            }
        };
        let (kind, origin, target, bw_cap) = match op {
            FusedOp::Pack(_) => (FusionOp::Pack, user_buf, gpu_staging(staging), None),
            FusedOp::Unpack(_) => (FusionOp::Unpack, gpu_staging(staging), user_buf, None),
            FusedOp::DirectIpc { origin, .. } => {
                let origin = DevPtr {
                    addr: origin,
                    len: user_buf.len,
                };
                let link_bw = Some(cx.cl.platform.gpu_gpu.bw);
                (FusionOp::DirectIpc, origin, user_buf, link_bw)
            }
        };
        let layout = layout.clone();
        let sched = cx.cl.ranks[r].sched.as_mut().expect("fusion scheme");
        let (res, cost) = sched.enqueue(now, kind, origin, target, layout, count, bw_cap);
        cx.charge(cost, Bucket::Scheduling);
        res
    }

    /// The ring refused an enqueue: run the backpressure ladder.
    ///
    /// Step one, force a `RingPressure` flush so pending occupants become
    /// busy and start draining. Step two, park the operation in the rank's
    /// FIFO requeue ladder, to re-enqueue from
    /// [`FusionEngine::drain_requeue`] once a retirement frees a slot.
    /// Only when the ring is *empty*, so no retirement will ever drain the
    /// queue (an injected exhaustion), does the operation take the last
    /// rung instead; a genuinely full ring always has occupants on their
    /// way to retirement, keeping the requeue live.
    fn backpressure(&self, cx: &mut PathCtx<'_>, op: FusedOp) {
        self.flush(cx, FlushReason::RingPressure);
        let r = cx.r;
        if ring_occupied(cx) == 0 {
            self.fallback_sync(cx, op);
            return;
        }
        let now = cx.cl.ranks[r].cpu;
        cx.cl
            .fault_degraded(r, FaultSite::RingExhausted, "requeue", now);
        cx.cl.ranks[r].fusion_requeue.park(op);
        mark_started(cx, op, None);
    }

    /// Re-enqueue operations parked by the backpressure ladder, in FIFO
    /// order, until the ring refuses again (then wait for the next
    /// retirement) or the queue drains.
    fn drain_requeue(&self, cx: &mut PathCtx<'_>) {
        let r = cx.r;
        let mut enqueued = false;
        while let Some(op) = cx.cl.ranks[r].fusion_requeue.take_next() {
            match self.enqueue(cx, op) {
                Ok(uid) => {
                    mark_started(cx, op, Some(uid));
                    enqueued = true;
                }
                // Nothing will ever retire: last-rung sync fallback keeps
                // the rank live.
                Err(EnqueueError::RingFull) if ring_occupied(cx) == 0 => self.fallback_sync(cx, op),
                Err(EnqueueError::RingFull) => {
                    cx.cl.ranks[r].fusion_requeue.park_front(op);
                    break;
                }
            }
        }
        // A rank blocked in Waitall gets no further flush trigger; launch
        // what was just re-enqueued so its completions can unblock it.
        if enqueued
            && cx.cl.ranks[r].blocked
            && cx.cl.ranks[r]
                .sched
                .as_ref()
                .is_some_and(|s| s.has_pending())
        {
            self.flush(cx, FlushReason::RingPressure);
        }
    }

    /// Last rung of the backpressure ladder: process an operation with the
    /// synchronous kernel scheme (the paper's negative-UID path).
    fn fallback_sync(&self, cx: &mut PathCtx<'_>, op: FusedOp) {
        let (bytes, blocks) = match op {
            FusedOp::Pack(i) => {
                let (bytes, blocks, _) = cx.send_meta(SendId(i));
                (bytes, blocks)
            }
            FusedOp::Unpack(i) | FusedOp::DirectIpc { rid: i, .. } => cx.recv_meta(RecvId(i)),
        };
        cx.sync_kernel(SegmentStats::new(bytes, blocks), Bucket::Pack);
        complete(cx, op);
    }
}

/// The GPU staging buffer of a fused (un)pack.
fn gpu_staging(staging: StagingLoc) -> DevPtr {
    let StagingLoc::Gpu(p) = staging else {
        panic!("fusion (un)pack staging must be on the GPU");
    };
    p
}

/// Occupied slots of the rank's ring: the backpressure ladder's liveness
/// guard.
fn ring_occupied(cx: &PathCtx<'_>) -> usize {
    cx.cl.ranks[cx.r]
        .sched
        .as_ref()
        .expect("fusion scheme")
        .ring_occupied()
}

/// Mark `op`'s (un)pack in flight, and register its UID when the ring took
/// it (a parked operation has none yet).
fn mark_started(cx: &mut PathCtx<'_>, op: FusedOp, uid: Option<Uid>) {
    let rank = &mut cx.cl.ranks[cx.r];
    match op {
        FusedOp::Pack(i) => &mut rank.sends[i].lifecycle,
        FusedOp::Unpack(i) | FusedOp::DirectIpc { rid: i, .. } => &mut rank.recvs[i].lifecycle,
    }
    .apply(LifecycleEvent::PackStarted);
    if let Some(uid) = uid {
        rank.uid_map.insert(uid, op);
    }
}

/// `op`'s (un)pack finished: a send may issue, a receive completes.
fn complete(cx: &mut PathCtx<'_>, op: FusedOp) {
    match op {
        FusedOp::Pack(i) => {
            cx.send_mut(SendId(i))
                .lifecycle
                .apply(LifecycleEvent::PackFinished);
            cx.try_issue(SendId(i));
        }
        FusedOp::Unpack(i) | FusedOp::DirectIpc { rid: i, .. } => cx.finish_unpack(RecvId(i)),
    }
}

impl SchemeEngine for FusionEngine {
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId) {
        let (_, _, eager) = cx.send_meta(sid);
        cx.charge(lookup_cost(), Bucket::Sync);
        // RPUT: RTS goes out before packing happens (§IV-B1), overlapping
        // the handshake with the fused kernel.
        cx.send_rts_or_issue(sid, eager);
        self.submit(cx, FusedOp::Pack(sid.0));
    }

    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId) {
        cx.charge(lookup_cost(), Bucket::Sync);
        self.submit(cx, FusedOp::Unpack(rid.0));
    }

    fn direct_ipc(&self) -> bool {
        self.cfg.enable_direct_ipc
    }

    fn make_scheduler(&self, gpu: &Gpu, tele: Telemetry) -> Option<Scheduler> {
        let arch = if self.adaptive { Some(&gpu.arch) } else { None };
        Some(Scheduler::configured(self.cfg.clone(), arch, tele))
    }

    /// §IV-C scenario 1: the progress engine reached a synchronization
    /// point — flush any pending fusion requests immediately.
    fn on_sync_point(&self, cx: &mut PathCtx<'_>) {
        if cx.cl.ranks[cx.r]
            .sched
            .as_ref()
            .is_some_and(|s| s.has_pending())
        {
            self.flush(cx, FlushReason::SyncPoint);
        }
    }

    fn on_fusion_done(&self, cx: &mut PathCtx<'_>, uid: Uid, t: Time) {
        let r = cx.r;
        let eff = cx.cl.eff_now(r, t);
        cx.cl.account_wait(r, eff);
        let signalled = {
            let sched = cx.cl.ranks[r].sched.as_mut().expect("fusion scheme");
            sched.signal_completion(uid)
        };
        if !signalled {
            // A duplicate signal for an already-retired request (possible
            // under fault injection) is absorbed, not fatal.
            cx.cl.fault_stats.spurious += 1;
            return;
        }
        let (query_cost, complete_cost) = {
            let sched = cx.cl.ranks[r].sched.as_mut().expect("fusion scheme");
            let (done, qc) = sched.query(eff, uid);
            debug_assert!(done);
            (qc, sched.retire(eff, uid))
        };
        cx.cl.charge_at(r, eff, query_cost, Bucket::Sync);
        cx.cl.charge(r, complete_cost, Bucket::Scheduling);

        let Some(op) = cx.cl.ranks[r].uid_map.remove(&uid) else {
            cx.cl.fault_stats.spurious += 1;
            return;
        };
        complete(cx, op);
        // The retirement freed a ring slot: operations parked by the
        // backpressure ladder can now re-enqueue.
        if !cx.cl.ranks[r].fusion_requeue.is_empty() {
            self.drain_requeue(cx);
        }
    }

    /// Fuse a DirectIPC request on the receiver: its cooperative groups
    /// will load the sender's buffer over NVLink/PCIe straight into the
    /// local user buffer — no staging, no wire payload.
    ///
    /// Degraded path: if the peer's buffer cannot be mapped, the payload
    /// is timed as a staged bounce — over the GPU↔GPU link, then a
    /// synchronous scatter kernel — before the receive completes through
    /// the normal IPC path (Fin to the sender). Either way the bytes move
    /// by one layout-to-layout copy job (`Cluster::apply_ipc_movement`).
    fn on_ipc_rts(&self, cx: &mut PathCtx<'_>, rid: RecvId, src: usize, origin: u64) {
        let r = cx.r;
        let at = cx.cl.ranks[r].cpu;
        let map_failed = cx.cl.fault_fires(r, FaultSite::IpcMapFail, at);
        if map_failed {
            cx.cl
                .fault_degraded(r, FaultSite::IpcMapFail, "staged-copy", at);
        }
        cx.charge(lookup_cost(), Bucket::Sync);
        // Submit the data movement now (done by the end of the run): the
        // peer GPU's elements straight into the local user buffer.
        cx.cl.apply_ipc_movement(r, rid, src, origin);
        let op = FusedOp::DirectIpc { rid: rid.0, origin };
        if !map_failed {
            self.submit(cx, op);
            return;
        }
        // Timing: the bounce rides the intra-node link, then a synchronous
        // scatter kernel lands it in the user buffer.
        let (bytes, _) = cx.recv_meta(rid);
        let at = cx.cl.ranks[r].cpu;
        let (delivered, _) = cx.cl.transport(src, r, at, bytes, false, 0);
        cx.cl
            .bucket_add_at(r, Bucket::Comm, at, delivered.since(at));
        cx.cl.ranks[r].cpu = cx.cl.ranks[r].cpu.max(delivered);
        self.fallback_sync(cx, op);
        // This receive may have been the one the zero-copy path counts on
        // to trigger the last-arrival flush — without it, earlier fused
        // DirectIPC requests would linger in the scheduler forever.
        self.flush_if_due(cx, true);
    }
}
