//! The scheme-engine layer: one strategy object per datatype-processing
//! design.
//!
//! Every scheme must answer two calls: [`SchemeEngine::begin_pack`] when an
//! `Isend` with a non-contiguous GPU buffer has been staged, and
//! [`SchemeEngine::begin_unpack`] when a payload lands in receive staging.
//! Engines only model time: the control plane stages a staged send and
//! submits its gather to the copy engine once before the engine sees it
//! ([`Cluster::begin_pack`]), and submits a landed receive's scatter once
//! before its unpack ([`Cluster::begin_unpack`]). Two hooks steer the control plane:
//! [`SchemeEngine::host_staging`] picks host or GPU staging for both
//! directions, and [`SchemeEngine::direct_ipc`] turns same-node sends into
//! DirectIPC RTSs. Past those, the control plane ([`Cluster`]'s protocol,
//! matching, and retry logic) never branches on the scheme after
//! construction ([`crate::registry::engine_for`]).
//!
//! | module | engine | paper design |
//! |---|---|---|
//! | [`gpu_sync`] | [`GpuSyncEngine`] | GPU-Sync \[8, 22\] |
//! | [`gpu_async`] | [`GpuAsyncEngine`] | GPU-Async \[23\] |
//! | [`hybrid`] | [`HybridEngine`] | CPU-GPU-Hybrid \[24\] / MVAPICH2-GDR |
//! | [`naive`] | [`NaiveEngine`] | SpectrumMPI / OpenMPI |
//! | [`fusion`] | [`FusionEngine`] | Proposed / Proposed-Adaptive |

pub(crate) mod fusion;
pub(crate) mod gpu_async;
pub(crate) mod gpu_sync;
pub(crate) mod hybrid;
pub(crate) mod naive;

pub(crate) use fusion::FusionEngine;
pub(crate) use gpu_async::GpuAsyncEngine;
pub(crate) use gpu_sync::GpuSyncEngine;
pub(crate) use hybrid::HybridEngine;
pub(crate) use naive::NaiveEngine;

use super::{Cluster, Event};
use crate::lifecycle::LifecycleEvent;
use crate::message::WireKind;
use crate::sendrecv::{RecvId, SendId, StagingLoc};
use fusedpack_core::{Scheduler, Uid};
use fusedpack_datatype::cache::lookup_cost;
use fusedpack_gpu::{Gpu, SegmentStats, StreamId};
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::{Bucket, Lane, Payload, Telemetry, WaitKindTag};

/// The data-plane strategy object: everything that differs between the
/// paper's schemes, behind one trait. Engines are stateless (per-message
/// state lives in the ops, per-rank state in [`super::rank::RankState`])
/// and shared by all ranks of a cluster.
pub(crate) trait SchemeEngine: Send + Sync {
    /// Start packing for a non-contiguous send whose staging is assigned
    /// and whose bytes are gathered (contiguous sends never reach the
    /// engine — they go in place from the user buffer).
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId);

    /// Start unpacking for a receive whose payload just landed in staging.
    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId);

    /// Cost of detecting an asynchronous completion on rank `r`.
    fn completion_detect_cost(&self, cl: &Cluster, r: usize) -> Duration {
        let _ = r;
        cl.platform.progress_poll
    }

    /// Should a message of this shape stage through host memory? One rule
    /// for both directions: it picks a staged send's and a staged
    /// receive's buffer alike.
    fn host_staging(&self, cl: &Cluster, r: usize, bytes: u64, blocks: u64) -> bool {
        let _ = (cl, r, bytes, blocks);
        false
    }

    /// Do same-node sends go DirectIPC (the receiver loads the sender's
    /// buffer, no staging on either side)? The control plane then sends
    /// the RTS itself and the engine sees the receive in
    /// [`SchemeEngine::on_ipc_rts`].
    fn direct_ipc(&self) -> bool {
        false
    }

    /// Build the per-rank fusion scheduler, if this scheme uses one.
    fn make_scheduler(&self, gpu: &Gpu, tele: Telemetry) -> Option<Scheduler> {
        let _ = (gpu, tele);
        None
    }

    /// A rank reached a synchronization point (`Waitall` entry): flush
    /// whatever the data plane has been batching.
    fn on_sync_point(&self, cx: &mut PathCtx<'_>) {
        let _ = cx;
    }

    /// A fused-kernel cooperative group signalled a request's completion.
    /// Only the fusion engine ever schedules these; a stray event under a
    /// different scheme is absorbed as spurious.
    fn on_fusion_done(&self, cx: &mut PathCtx<'_>, uid: Uid, t: Time) {
        let _ = (uid, t);
        debug_assert!(false, "fusion completion under a non-fusion scheme");
        cx.cl.fault_stats.spurious += 1;
    }

    /// A DirectIPC RTS arrived for a matched receive. Only the fusion
    /// engine advertises IPC origins, so only it can receive this.
    fn on_ipc_rts(&self, cx: &mut PathCtx<'_>, rid: RecvId, src: usize, origin: u64) {
        let _ = (rid, src, origin);
        debug_assert!(false, "DirectIPC RTS under a non-fusion scheme");
        cx.cl.fault_stats.spurious += 1;
    }
}

/// Borrow view handed to an engine: the cluster plus the rank the call is
/// for. Engines reach shared control-plane helpers through the methods
/// below (or `cx.cl` directly for anything else).
pub(crate) struct PathCtx<'a> {
    pub cl: &'a mut Cluster,
    pub r: usize,
}

impl PathCtx<'_> {
    /// Send-op metadata: (packed_bytes, blocks, eager).
    pub(crate) fn send_meta(&self, sid: SendId) -> (u64, u64, bool) {
        let s = &self.cl.ranks[self.r].sends[sid.0];
        (s.packed_bytes, s.blocks, s.eager)
    }

    /// Recv-op metadata: (packed_bytes, blocks).
    pub(crate) fn recv_meta(&self, rid: RecvId) -> (u64, u64) {
        let op = &self.cl.ranks[self.r].recvs[rid.0];
        (op.packed_bytes, op.blocks)
    }

    pub(crate) fn send_mut(&mut self, sid: SendId) -> &mut crate::sendrecv::SendOp {
        &mut self.cl.ranks[self.r].sends[sid.0]
    }

    pub(crate) fn recv_mut(&mut self, rid: RecvId) -> &mut crate::sendrecv::RecvOp {
        &mut self.cl.ranks[self.r].recvs[rid.0]
    }

    pub(crate) fn charge(&mut self, cost: Duration, bucket: Bucket) {
        self.cl.charge(self.r, cost, bucket);
    }

    pub(crate) fn sync_kernel(&mut self, stats: SegmentStats, kernel_bucket: Bucket) {
        self.cl.sync_kernel(self.r, stats, kernel_bucket);
    }

    pub(crate) fn send_rts_or_issue(&mut self, sid: SendId, eager: bool) {
        self.cl.send_rts_or_issue(self.r, sid, eager);
    }

    pub(crate) fn try_issue(&mut self, sid: SendId) {
        self.cl.try_issue(self.r, sid);
    }

    pub(crate) fn finish_unpack(&mut self, rid: RecvId) {
        self.cl.finish_unpack(self.r, rid);
    }

    /// Schedule an event at `at` (clamped to the event loop's now), keyed
    /// by the path's rank so same-time ties break in the rank's program
    /// order.
    pub(crate) fn schedule(&mut self, at: Time, ev: Event) {
        let key = self.cl.next_key(self.r);
        let t = at.max(self.cl.events.now());
        self.cl.events.push_at_key(t, key, ev);
    }
}

impl Cluster {
    /// Start packing for a send. Contiguous layouts short-circuit here
    /// (send in place over GPUDirect), and so do same-node sends under a
    /// DirectIPC engine (no packing at all: the RTS advertises the source
    /// buffer). Every other send is staged here and its gather submitted
    /// to the copy engine, exactly once, before the engine models the
    /// pack.
    pub(crate) fn begin_pack(&mut self, r: usize, sid: SendId) {
        let s = &self.ranks[r].sends[sid.0];
        let (bytes, blocks, eager, dst, tag, user_buf) =
            (s.packed_bytes, s.blocks, s.eager, s.dst, s.tag, s.user_buf);
        if s.layout.is_contiguous_for(s.count) {
            self.charge(r, lookup_cost(), Bucket::Sync);
            let send = &mut self.ranks[r].sends[sid.0];
            send.staging = StagingLoc::UserGpu(fusedpack_gpu::DevPtr {
                addr: user_buf.addr,
                len: bytes,
            });
            send.lifecycle.apply(LifecycleEvent::PackFinished);
            self.send_rts_or_issue(r, sid, eager);
            return;
        }
        if self.engine.direct_ipc() && self.endpoints[r].node == self.endpoints[dst.0 as usize].node
        {
            // DirectIPC (the zero-copy scheme of [24], fused as a third
            // operation kind): advertise the source buffer in the RTS and
            // wait for the receiver's fused load to finish (Fin).
            self.charge(r, lookup_cost(), Bucket::Sync);
            let lc = &mut self.ranks[r].sends[sid.0].lifecycle;
            lc.apply(LifecycleEvent::PackFinished);
            lc.apply(LifecycleEvent::RtsSent);
            lc.apply(LifecycleEvent::Issued);
            let rts = WireKind::Rts {
                send_id: sid,
                packed_bytes: bytes,
                ipc_origin: Some(user_buf.addr),
                rget: false,
            };
            self.send_ctrl(r, dst, tag, rts);
            return;
        }
        let staging = self.alloc_staging(r, bytes, blocks);
        self.ranks[r].sends[sid.0].staging = staging;
        self.apply_pack_movement(r, sid);
        let engine = self.engine.clone();
        engine.begin_pack(&mut PathCtx { cl: self, r }, sid);
    }

    /// Start unpacking for a receive whose payload just landed in staging.
    /// Contiguous payloads already landed in the user buffer.
    ///
    /// A staged receive's data movement is submitted here, exactly once,
    /// before the engine models the unpack: no engine path (a requeued
    /// fusion enqueue, a synchronous fallback) can consume the landed
    /// payload twice or not at all.
    pub(crate) fn begin_unpack(&mut self, r: usize, rid: RecvId) {
        if matches!(self.ranks[r].recvs[rid.0].staging, StagingLoc::UserGpu(_)) {
            let rank = &mut self.ranks[r];
            rank.recvs[rid.0]
                .lifecycle
                .apply(LifecycleEvent::PackFinished);
            rank.recvs[rid.0].lifecycle.apply(LifecycleEvent::Completed);
            let now = rank.cpu;
            self.check_unblock(r, now);
            return;
        }
        self.apply_unpack_movement(r, rid);
        let engine = self.engine.clone();
        engine.begin_unpack(&mut PathCtx { cl: self, r }, rid);
    }

    /// An asynchronous pack finished (GPU-Async event / naive DMA).
    pub(crate) fn on_pack_done(&mut self, r: usize, sid: SendId, t: Time) {
        let eff = self.eff_now(r, t);
        self.account_wait(r, eff);
        let engine = self.engine.clone();
        let detect = engine.completion_detect_cost(self, r);
        self.charge_at(r, eff, detect, Bucket::Sync);
        self.ranks[r].sends[sid.0]
            .lifecycle
            .apply(LifecycleEvent::PackFinished);
        let eager = self.ranks[r].sends[sid.0].eager;
        self.send_rts_or_issue(r, sid, eager);
    }

    /// An asynchronous unpack finished.
    pub(crate) fn on_unpack_done(&mut self, r: usize, rid: RecvId, t: Time) {
        let eff = self.eff_now(r, t);
        self.account_wait(r, eff);
        let engine = self.engine.clone();
        let detect = engine.completion_detect_cost(self, r);
        self.charge_at(r, eff, detect, Bucket::Sync);
        self.finish_unpack(r, rid);
    }

    /// Fused-kernel cooperative groups signalled the completion of `n`
    /// requests from UID `first` at one instant: handle each, in UID order.
    pub(crate) fn on_fusion_done(&mut self, r: usize, first: Uid, n: u16, t: Time) {
        let engine = self.engine.clone();
        for uid in first.0..first.0 + u64::from(n) {
            engine.on_fusion_done(&mut PathCtx { cl: self, r }, Uid(uid), t);
        }
    }

    /// Synchronous kernel execution: launch, then block the CPU until the
    /// kernel completes (`cudaStreamSynchronize`) — the GPU-Sync pattern.
    pub(crate) fn sync_kernel(&mut self, r: usize, stats: SegmentStats, kernel_bucket: Bucket) {
        let at = self.ranks[r].cpu;
        let k = self.gpus[r].launch_kernel(at, StreamId(0), stats);
        let arch = &self.gpus[r].arch;
        let launch_cpu = arch.launch_cpu;
        let sync_call = arch.stream_sync_call;
        self.ranks[r].cpu = k.done + sync_call;
        self.bucket_add_at(r, Bucket::Launch, at, launch_cpu);
        self.bucket_add_at(r, kernel_bucket, k.start, k.done.since(k.start));
        // Blocked wait from the launch call's return to kernel completion,
        // plus the synchronize call itself.
        self.bucket_add_at(
            r,
            Bucket::Sync,
            k.cpu_release,
            k.done.since(k.cpu_release) + sync_call,
        );
        self.ranks[r]
            .tele
            .span(Lane::Host, k.cpu_release, k.done + sync_call, || {
                Payload::SyncWait {
                    kind: WaitKindTag::LocalKernel,
                }
            });
    }

    /// Mark a receive fully complete. Its data movement already happened
    /// (`begin_unpack` for staged receives, the IPC paths for DirectIPC).
    fn finish_unpack(&mut self, r: usize, rid: RecvId) {
        let rank = &mut self.ranks[r];
        rank.recvs[rid.0]
            .lifecycle
            .apply(LifecycleEvent::PackFinished);
        rank.recvs[rid.0].lifecycle.apply(LifecycleEvent::Completed);
        let ipc = rank.recvs[rid.0].ipc_send_id;
        let src = rank.recvs[rid.0].src;
        let now = rank.cpu;
        if let Some(send_id) = ipc {
            // Tell the sender its buffer is free (DirectIPC completion).
            self.send_ctrl(r, src, 0, WireKind::Fin { send_id });
        }
        self.check_unblock(r, now);
    }

    /// Send the RTS for a rendezvous message, or try the eager path.
    fn send_rts_or_issue(&mut self, r: usize, sid: SendId, eager: bool) {
        if eager || self.rndv == super::RndvProtocol::Rget {
            // Eager needs only the pack; RGET sends its RTS (with the
            // packed-buffer announcement) from try_issue once packing is
            // done — no early handshake to overlap.
            self.try_issue(r, sid);
            return;
        }
        if !self.ranks[r].sends[sid.0].lifecycle.rts_sent() {
            self.ranks[r].sends[sid.0]
                .lifecycle
                .apply(LifecycleEvent::RtsSent);
            let (dst, tag, bytes) = {
                let s = &self.ranks[r].sends[sid.0];
                (s.dst, s.tag, s.packed_bytes)
            };
            self.send_ctrl(
                r,
                dst,
                tag,
                WireKind::Rts {
                    send_id: sid,
                    packed_bytes: bytes,
                    ipc_origin: None,
                    rget: false,
                },
            );
        } else {
            self.try_issue(r, sid);
        }
    }
}
