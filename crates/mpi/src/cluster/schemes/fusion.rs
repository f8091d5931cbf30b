//! The paper's proposed dynamic kernel fusion (and its adaptive variant):
//! pack/unpack/DirectIPC requests enqueue into the per-rank fusion
//! scheduler ring and launch as one cooperative fused kernel per flush
//! (§IV-A2 ②), with the RTS/CTS handshake overlapping the packing.

use super::super::accounting::Bucket;
use super::super::rank::{OpRef, RequeuedOp};
use super::{Event, PathCtx, SchemeEngine};
use crate::lifecycle::LifecycleEvent;
use crate::message::WireKind;
use crate::sendrecv::{RecvId, SendId, StagingLoc};
use fusedpack_core::{EnqueueError, FlushReason, FusionConfig, FusionOp, Scheduler, Uid};
use fusedpack_datatype::cache::lookup_cost;
use fusedpack_gpu::{Gpu, SegmentStats, StreamId};
use fusedpack_sim::{FaultSite, Time};
use fusedpack_telemetry::Telemetry;

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

    /// Enqueue a fusion request for a send (pack) or recv (unpack).
    fn enqueue(
        &self,
        cx: &mut PathCtx<'_>,
        op: FusionOp,
        idx: usize,
        is_send: bool,
    ) -> Result<Uid, EnqueueError> {
        let r = cx.r;
        // Injected exhaustion reports `RingFull` without touching the ring;
        // the caller's backpressure ladder recovers exactly as it would
        // from a genuinely full ring.
        let at = cx.cl.ranks[r].cpu;
        if cx.cl.fault_fires(r, FaultSite::RingExhausted, at) {
            return Err(EnqueueError::RingFull);
        }
        let (origin, target, layout, count) = if is_send {
            let s = &cx.cl.ranks[r].sends[idx];
            let StagingLoc::Gpu(staging) = s.staging else {
                panic!("fusion pack staging must be on the GPU");
            };
            (s.user_buf, staging, s.layout.clone(), s.count)
        } else {
            let op = &cx.cl.ranks[r].recvs[idx];
            let StagingLoc::Gpu(staging) = op.staging else {
                panic!("fusion unpack staging must be on the GPU");
            };
            (staging, op.user_buf, op.layout.clone(), op.count)
        };
        let now = cx.cl.ranks[r].cpu;
        let sched = cx.cl.ranks[r].sched.as_mut().expect("fusion scheme");
        let (res, cost) = sched.enqueue(now, op, origin, target, layout, count, None);
        cx.charge(cost, Bucket::Scheduling);
        res
    }

    /// Enqueue the DirectIPC fusion request for receive `rid` (shared by
    /// [`FusionEngine::begin_direct_ipc`] and the backpressure requeue
    /// drain).
    fn enqueue_ipc(
        &self,
        cx: &mut PathCtx<'_>,
        rid: usize,
        origin: u64,
    ) -> Result<Uid, EnqueueError> {
        let r = cx.r;
        let now = cx.cl.ranks[r].cpu;
        if cx.cl.fault_fires(r, FaultSite::RingExhausted, now) {
            return Err(EnqueueError::RingFull);
        }
        let link_bw = cx.cl.platform.gpu_gpu.bw;
        let (origin_ptr, target, layout, count) = {
            let op = &cx.cl.ranks[r].recvs[rid];
            (
                fusedpack_gpu::DevPtr {
                    addr: origin,
                    len: op.user_buf.len,
                },
                op.user_buf,
                op.layout.clone(),
                op.count,
            )
        };
        let sched = cx.cl.ranks[r].sched.as_mut().expect("fusion scheme");
        let (res, cost) = sched.enqueue(
            now,
            FusionOp::DirectIpc,
            origin_ptr,
            target,
            layout,
            count,
            Some(link_bw),
        );
        cx.charge(cost, Bucket::Scheduling);
        res
    }

    /// The ring refused an enqueue: run the backpressure ladder.
    ///
    /// Step one, force a `RingPressure` flush so pending occupants become
    /// busy and start draining. Step two, park the operation in the rank's
    /// FIFO requeue ladder, to re-enqueue from
    /// [`FusionEngine::drain_requeue`] once a retirement frees a slot.
    /// Returns `false` — caller falls back to the paper's synchronous path —
    /// only when the ring is *empty*, so no retirement will ever drain the
    /// queue (an injected exhaustion); a genuinely full ring always has
    /// occupants on their way to retirement, keeping the requeue live.
    fn backpressure(&self, cx: &mut PathCtx<'_>, op: RequeuedOp) -> bool {
        self.flush(cx, FlushReason::RingPressure);
        let r = cx.r;
        let occupied = cx.cl.ranks[r]
            .sched
            .as_ref()
            .expect("fusion scheme")
            .ring_occupied();
        if occupied == 0 {
            return false;
        }
        let now = cx.cl.ranks[r].cpu;
        cx.cl
            .fault_degraded(r, FaultSite::RingExhausted, "requeue", now);
        cx.cl.ranks[r].fusion_requeue.park(op);
        true
    }

    /// Re-enqueue operations parked by the backpressure ladder, in FIFO
    /// order, until the ring refuses again (then wait for the next
    /// retirement) or the queue drains.
    fn drain_requeue(&self, cx: &mut PathCtx<'_>) {
        let r = cx.r;
        let mut enqueued = false;
        while let Some(op) = cx.cl.ranks[r].fusion_requeue.take_next() {
            let res = match op {
                RequeuedOp::Pack(i) => self.enqueue(cx, FusionOp::Pack, i, true),
                RequeuedOp::Unpack(i) => self.enqueue(cx, FusionOp::Unpack, i, false),
                RequeuedOp::DirectIpc { rid, origin } => self.enqueue_ipc(cx, rid, origin),
            };
            match res {
                Ok(uid) => {
                    register_uid(cx, op, uid);
                    enqueued = true;
                }
                Err(EnqueueError::RingFull) => {
                    let occupied = cx.cl.ranks[r]
                        .sched
                        .as_ref()
                        .expect("fusion scheme")
                        .ring_occupied();
                    if occupied == 0 {
                        // Nothing will ever retire: last-rung sync fallback
                        // keeps the rank live.
                        self.fallback_sync(cx, op);
                    } else {
                        cx.cl.ranks[r].fusion_requeue.park_front(op);
                        break;
                    }
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

    /// Last rung of the backpressure ladder: process a parked operation
    /// with the synchronous kernel scheme (the paper's negative-UID path).
    fn fallback_sync(&self, cx: &mut PathCtx<'_>, op: RequeuedOp) {
        match op {
            RequeuedOp::Pack(i) => {
                let (bytes, blocks) = {
                    let s = &cx.cl.ranks[cx.r].sends[i];
                    (s.packed_bytes, s.blocks)
                };
                cx.sync_kernel(SegmentStats::new(bytes, blocks), Bucket::Pack);
                cx.cl.ranks[cx.r].sends[i]
                    .lifecycle
                    .apply(LifecycleEvent::PackFinished);
                cx.try_issue(SendId(i));
            }
            RequeuedOp::Unpack(i) | RequeuedOp::DirectIpc { rid: i, .. } => {
                let (bytes, blocks) = {
                    let op = &cx.cl.ranks[cx.r].recvs[i];
                    (op.packed_bytes, op.blocks)
                };
                cx.sync_kernel(SegmentStats::new(bytes, blocks), Bucket::Pack);
                cx.finish_unpack(RecvId(i));
            }
        }
    }

    /// Fuse a DirectIPC request on the receiver: its cooperative groups
    /// will load the sender's buffer over NVLink/PCIe straight into the
    /// local user buffer — no staging, no wire payload.
    fn begin_direct_ipc(&self, cx: &mut PathCtx<'_>, rid: RecvId, src: usize, origin: u64) {
        let r = cx.r;
        cx.charge(lookup_cost(), Bucket::Sync);
        // Apply the data movement now (visible at the completion event):
        // gather from the peer GPU, scatter into the local user buffer.
        cx.cl.apply_ipc_movement(r, rid, src, origin);
        match self.enqueue_ipc(cx, rid.0, origin) {
            Ok(uid) => {
                cx.recv_mut(rid).fusion_uid = Some(uid);
                cx.recv_mut(rid)
                    .lifecycle
                    .apply(LifecycleEvent::PackStarted);
                cx.cl.ranks[r].uid_map.insert(uid, OpRef::Recv(rid.0));
                let sched = cx.cl.ranks[r].sched.as_ref().expect("fusion");
                if sched.threshold_reached() {
                    self.flush(cx, FlushReason::ThresholdReached);
                } else if !cx.cl.ranks[r].recvs_awaiting_data() {
                    self.flush(cx, FlushReason::SyncPoint);
                }
            }
            Err(EnqueueError::RingFull) => {
                let parked = self.backpressure(cx, RequeuedOp::DirectIpc { rid: rid.0, origin });
                if parked {
                    cx.recv_mut(rid)
                        .lifecycle
                        .apply(LifecycleEvent::PackStarted);
                } else {
                    // Fallback: a standalone link-capped kernel, synchronous.
                    let (bytes, blocks) = cx.recv_meta(rid);
                    let stats = SegmentStats::new(bytes, blocks);
                    cx.sync_kernel(stats, Bucket::Pack);
                    cx.finish_unpack(rid);
                }
            }
        }
    }

    /// DirectIPC degraded path: the peer's buffer could not be mapped, so
    /// the payload is staged — gathered on the sender's GPU into a pooled
    /// bounce buffer, bounced over the GPU↔GPU link, and scattered by a
    /// synchronous kernel — before the receive completes through the normal
    /// IPC path (Fin to the sender).
    fn ipc_staged_fallback(&self, cx: &mut PathCtx<'_>, rid: RecvId, src: usize, origin: u64) {
        let r = cx.r;
        cx.charge(lookup_cost(), Bucket::Sync);
        let (bytes, blocks) = cx.recv_meta(rid);
        // Data movement, visible at completion: same gather/scatter as the
        // zero-copy path, via the staged bounce buffer.
        cx.cl.apply_ipc_movement(r, rid, src, origin);
        // Timing: the bounce rides the intra-node link, then a synchronous
        // scatter kernel lands it in the user buffer.
        let at = cx.cl.ranks[r].cpu;
        let (delivered, _) = cx.cl.transport(src, r, at, bytes, false, 0);
        cx.cl
            .bucket_add_at(r, Bucket::Comm, at, delivered.since(at));
        cx.cl.ranks[r].cpu = cx.cl.ranks[r].cpu.max(delivered);
        cx.sync_kernel(SegmentStats::new(bytes, blocks), Bucket::Pack);
        cx.finish_unpack(rid);
        // This receive may have been the one the zero-copy path counts on
        // to trigger the last-arrival flush — without it, earlier fused
        // DirectIPC requests would linger in the scheduler forever.
        let sched = cx.cl.ranks[r].sched.as_ref().expect("fusion scheme");
        if sched.has_pending() {
            if sched.threshold_reached() {
                self.flush(cx, FlushReason::ThresholdReached);
            } else if !cx.cl.ranks[r].recvs_awaiting_data() {
                self.flush(cx, FlushReason::SyncPoint);
            }
        }
    }
}

/// Register a successfully re-enqueued operation exactly as its original
/// `begin_*` path would have.
fn register_uid(cx: &mut PathCtx<'_>, op: RequeuedOp, uid: Uid) {
    let r = cx.r;
    match op {
        RequeuedOp::Pack(i) => {
            cx.cl.ranks[r].sends[i].fusion_uid = Some(uid);
            cx.cl.ranks[r].sends[i]
                .lifecycle
                .apply(LifecycleEvent::PackStarted);
            cx.cl.ranks[r].uid_map.insert(uid, OpRef::Send(i));
        }
        RequeuedOp::Unpack(i) | RequeuedOp::DirectIpc { rid: i, .. } => {
            cx.cl.ranks[r].recvs[i].fusion_uid = Some(uid);
            cx.cl.ranks[r].recvs[i]
                .lifecycle
                .apply(LifecycleEvent::PackStarted);
            cx.cl.ranks[r].uid_map.insert(uid, OpRef::Recv(i));
        }
    }
}

impl SchemeEngine for FusionEngine {
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId) {
        let r = cx.r;
        let (bytes, blocks, eager) = cx.send_meta(sid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(lookup_cost(), Bucket::Sync);
        let dst = cx.cl.ranks[r].sends[sid.0].dst;
        // Endpoint table, not rank state: `dst` may live on another shard.
        let same_node = cx.cl.endpoints[r].node == cx.cl.endpoints[dst.0 as usize].node;
        if self.cfg.enable_direct_ipc && same_node {
            // DirectIPC (the zero-copy scheme of [24], fused as a third
            // operation kind): no packing at all on the sender — advertise
            // the source buffer in the RTS and wait for the receiver's
            // fused load to finish (Fin).
            let (tag, origin, bytes) = {
                let s = &cx.cl.ranks[r].sends[sid.0];
                (s.tag, s.user_buf.addr, s.packed_bytes)
            };
            let lc = &mut cx.cl.ranks[r].sends[sid.0].lifecycle;
            lc.apply(LifecycleEvent::PackFinished);
            lc.apply(LifecycleEvent::RtsSent);
            lc.apply(LifecycleEvent::Issued);
            cx.cl.send_ctrl(
                r,
                dst,
                tag,
                WireKind::Rts {
                    send_id: sid,
                    packed_bytes: bytes,
                    ipc_origin: Some(origin),
                    rget: false,
                },
            );
            return;
        }
        let staging = cx.cl.alloc_send_staging(r, bytes, false);
        cx.send_mut(sid).staging = staging;
        cx.cl.apply_pack_movement(r, sid);
        // RPUT: RTS goes out before packing happens (§IV-B1), overlapping
        // the handshake with the fused kernel.
        cx.send_rts_or_issue(sid, eager);
        match self.enqueue(cx, FusionOp::Pack, sid.0, true) {
            Ok(uid) => {
                cx.send_mut(sid).fusion_uid = Some(uid);
                cx.send_mut(sid)
                    .lifecycle
                    .apply(LifecycleEvent::PackStarted);
                cx.cl.ranks[r].uid_map.insert(uid, OpRef::Send(sid.0));
                if cx.cl.ranks[r]
                    .sched
                    .as_ref()
                    .expect("fusion")
                    .threshold_reached()
                {
                    self.flush(cx, FlushReason::ThresholdReached);
                }
            }
            Err(EnqueueError::RingFull) => {
                // Backpressure ladder: force a pressure flush and park the
                // pack until a retirement frees a slot.
                if self.backpressure(cx, RequeuedOp::Pack(sid.0)) {
                    cx.send_mut(sid)
                        .lifecycle
                        .apply(LifecycleEvent::PackStarted);
                } else {
                    // Last rung — the paper's fallback path (negative UID):
                    // process this message with the synchronous kernel
                    // scheme.
                    cx.sync_kernel(stats, Bucket::Pack);
                    cx.send_mut(sid)
                        .lifecycle
                        .apply(LifecycleEvent::PackFinished);
                    cx.try_issue(sid);
                }
            }
        }
    }

    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId) {
        let r = cx.r;
        let (bytes, blocks) = cx.recv_meta(rid);
        cx.charge(lookup_cost(), Bucket::Sync);
        match self.enqueue(cx, FusionOp::Unpack, rid.0, false) {
            Ok(uid) => {
                cx.recv_mut(rid).fusion_uid = Some(uid);
                cx.recv_mut(rid)
                    .lifecycle
                    .apply(LifecycleEvent::PackStarted);
                cx.cl.ranks[r].uid_map.insert(uid, OpRef::Recv(rid.0));
                let sched = cx.cl.ranks[r].sched.as_ref().expect("fusion");
                if sched.threshold_reached() {
                    self.flush(cx, FlushReason::ThresholdReached);
                } else if !cx.cl.ranks[r].recvs_awaiting_data() {
                    // No more arrivals can fuse with this batch: launching
                    // now is the paper's scenario 1 from the receiver's
                    // perspective.
                    self.flush(cx, FlushReason::SyncPoint);
                }
            }
            Err(EnqueueError::RingFull) => {
                if self.backpressure(cx, RequeuedOp::Unpack(rid.0)) {
                    cx.recv_mut(rid)
                        .lifecycle
                        .apply(LifecycleEvent::PackStarted);
                } else {
                    let stats = SegmentStats::new(bytes, blocks);
                    cx.sync_kernel(stats, Bucket::Pack);
                    cx.finish_unpack(rid);
                }
            }
        }
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

        let Some(opref) = cx.cl.ranks[r].uid_map.remove(&uid) else {
            cx.cl.fault_stats.spurious += 1;
            return;
        };
        match opref {
            OpRef::Send(i) => {
                cx.cl.ranks[r].sends[i]
                    .lifecycle
                    .apply(LifecycleEvent::PackFinished);
                cx.try_issue(SendId(i));
            }
            OpRef::Recv(i) => cx.finish_unpack(RecvId(i)),
        }
        // The retirement freed a ring slot: operations parked by the
        // backpressure ladder can now re-enqueue.
        if !cx.cl.ranks[r].fusion_requeue.is_empty() {
            self.drain_requeue(cx);
        }
    }

    fn on_ipc_rts(&self, cx: &mut PathCtx<'_>, rid: RecvId, src: usize, origin: u64) {
        let r = cx.r;
        let at = cx.cl.ranks[r].cpu;
        if cx.cl.fault_fires(r, FaultSite::IpcMapFail, at) {
            // Degradation ladder: the IPC handle would not map — stage the
            // copy through a pooled bounce buffer instead.
            cx.cl
                .fault_degraded(r, FaultSite::IpcMapFail, "staged-copy", at);
            self.ipc_staged_fallback(cx, rid, src, origin);
        } else {
            self.begin_direct_ipc(cx, rid, src, origin);
        }
    }
}
