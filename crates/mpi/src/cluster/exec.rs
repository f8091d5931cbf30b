//! Program execution: stepping ranks through their [`AppOp`] sequences.

use super::schemes::PathCtx;
use super::{Cluster, Event, RankId};
use crate::lifecycle::RequestLifecycle;
use crate::program::AppOp;
use crate::sendrecv::{RecvId, RecvOp, SendId, SendOp, StagingLoc};
use fusedpack_gpu::DataMode;
use fusedpack_sim::Time;
use fusedpack_telemetry::{Bucket, Lane, Payload, WaitKindTag};

impl Cluster {
    /// Execute ops for rank `r` starting no earlier than `t`, until it
    /// blocks or its program ends.
    pub(crate) fn step_rank(&mut self, r: usize, t: Time) {
        {
            let rank = &mut self.ranks[r];
            if rank.done || rank.blocked {
                return;
            }
            rank.cpu = rank.cpu.max(t);
        }
        loop {
            let pc = self.ranks[r].pc;
            let op = match self.ranks[r].program.ops.get(pc) {
                Some(op) => op.clone(),
                None => {
                    self.ranks[r].done = true;
                    return;
                }
            };
            self.ranks[r].pc += 1;
            match op {
                AppOp::Commit { slot, desc } => {
                    let rank = &mut self.ranks[r];
                    let (layout, cost) = rank.ddt_cache.commit(&desc);
                    rank.cpu += cost;
                    // The commit-time lookup validates the compiled layout
                    // and charges one lookup; messages acquire the slot's
                    // layout per use.
                    let (layout, cost) = rank.ddt_cache.get(&layout);
                    rank.cpu += cost;
                    if rank.types.len() <= slot.0 {
                        rank.types.resize(slot.0 + 1, None);
                    }
                    rank.types[slot.0] = Some(layout);
                }
                AppOp::Irecv {
                    buf,
                    ty,
                    count,
                    src,
                    tag,
                } => self.exec_irecv(r, buf, ty, count, src, tag),
                AppOp::Isend {
                    buf,
                    ty,
                    count,
                    dst,
                    tag,
                } => self.exec_isend(r, buf, ty, count, dst, tag),
                AppOp::Pack {
                    src,
                    ty,
                    count,
                    dst,
                } => self.exec_explicit_copy(r, src, ty, count, dst, true, true),
                AppOp::Unpack {
                    src,
                    ty,
                    count,
                    dst,
                } => self.exec_explicit_copy(r, src, ty, count, dst, false, true),
                AppOp::PackAsync {
                    src,
                    ty,
                    count,
                    dst,
                } => self.exec_explicit_copy(r, src, ty, count, dst, true, false),
                AppOp::UnpackAsync {
                    src,
                    ty,
                    count,
                    dst,
                } => self.exec_explicit_copy(r, src, ty, count, dst, false, false),
                AppOp::DeviceSync => self.exec_device_sync(r),
                AppOp::Waitall => {
                    if self.enter_waitall(r) {
                        // Blocked: resume from the op *after* Waitall once
                        // requests drain (pc already advanced).
                        return;
                    }
                }
                AppOp::Compute { ns } => {
                    // Application time, not library overhead: no bucket.
                    self.ranks[r].cpu += fusedpack_sim::Duration(ns);
                }
                AppOp::ResetTimer => {
                    let rank = &mut self.ranks[r];
                    rank.lap_start = rank.cpu;
                    rank.breakdown_at_reset = rank.breakdown;
                    rank.tele.instant(Lane::Host, rank.cpu, || Payload::Marker {
                        label: "reset-timer",
                    });
                }
                AppOp::RecordLap => {
                    let rank = &mut self.ranks[r];
                    let lap = rank.cpu.since(rank.lap_start);
                    rank.laps.push(lap);
                    let delta = rank.breakdown.delta_since(&rank.breakdown_at_reset);
                    rank.lap_breakdowns.push(delta);
                    rank.tele.instant(Lane::Host, rank.cpu, || Payload::Marker {
                        label: "record-lap",
                    });
                }
            }
        }
    }

    /// Post a receive: create the RecvOp, then try to match any unexpected
    /// message that already arrived.
    fn exec_irecv(
        &mut self,
        r: usize,
        buf: crate::program::BufId,
        ty: crate::program::TypeSlot,
        count: u64,
        src: RankId,
        tag: u32,
    ) {
        let rid = {
            let rank = &mut self.ranks[r];
            rank.cpu += self.platform.mpi_call;
            let layout = rank.layout(ty);
            let packed_bytes = layout.total_bytes(count);
            let blocks = layout.total_blocks(count);
            let rid = RecvId(rank.recvs.len());
            rank.recvs.push(RecvOp {
                id: rid,
                src,
                tag,
                user_buf: rank.bufs[buf.0],
                layout,
                count,
                packed_bytes,
                blocks,
                staging: StagingLoc::None,
                lifecycle: RequestLifecycle::recv(),
                ipc_send_id: None,
            });
            rid
        };
        // An RTS or eager message may already be waiting.
        if let Some(pos) = self.ranks[r]
            .unexpected
            .iter()
            .position(|m| m.src == src && m.tag == tag && m.is_matchable())
        {
            let msg = self.ranks[r].unexpected.remove(pos);
            let now = self.ranks[r].cpu;
            self.match_message(r, rid, msg, now);
        }
    }

    /// Start a send: create the SendOp and hand it to the scheme.
    fn exec_isend(
        &mut self,
        r: usize,
        buf: crate::program::BufId,
        ty: crate::program::TypeSlot,
        count: u64,
        dst: RankId,
        tag: u32,
    ) {
        let sid = {
            let rank = &mut self.ranks[r];
            rank.cpu += self.platform.mpi_call;
            let layout = rank.layout(ty);
            let packed_bytes = layout.total_bytes(count);
            let blocks = layout.total_blocks(count);
            let sid = SendId(rank.sends.len());
            rank.sends.push(SendOp {
                id: sid,
                dst,
                tag,
                user_buf: rank.bufs[buf.0],
                layout,
                count,
                packed_bytes,
                blocks,
                eager: packed_bytes <= self.platform.eager_limit,
                staging: StagingLoc::None,
                lifecycle: RequestLifecycle::send(),
                cts: None,
            });
            sid
        };
        self.begin_pack(r, sid);
    }

    /// Explicit pack/unpack between two device buffers (Algorithms 1 & 2).
    ///
    /// `pack == true` gathers the non-contiguous `src` into the contiguous
    /// `dst`; `pack == false` scatters the contiguous `src` out to `dst`.
    /// `blocking` selects MPI-style per-call synchronization (Algorithm 1)
    /// vs application-style fire-and-forget (Algorithm 2).
    #[allow(clippy::too_many_arguments)]
    fn exec_explicit_copy(
        &mut self,
        r: usize,
        src: crate::program::BufId,
        ty: crate::program::TypeSlot,
        count: u64,
        dst: crate::program::BufId,
        pack: bool,
        blocking: bool,
    ) {
        use fusedpack_gpu::SegmentStats;
        let (layout, src_ptr, dst_ptr) = {
            let rank = &mut self.ranks[r];
            let layout = rank.layout(ty);
            (layout, rank.bufs[src.0], rank.bufs[dst.0])
        };
        let stats = SegmentStats::new(layout.total_bytes(count), layout.total_blocks(count));
        // Data movement within device memory, dispatched on the copy plan
        // the layout compiler classified at commit time: the elements are
        // `src` of a pack and `dst` of an unpack.
        if self.data_mode == DataMode::Full {
            let (elems, packed) = if pack {
                (src_ptr.addr, dst_ptr)
            } else {
                (dst_ptr.addr, src_ptr)
            };
            let elems = self.copies.elems(r, &layout, elems, count);
            self.copies.explicit(elems, packed, pack);
        }
        if blocking {
            // MPI_Pack/MPI_Unpack: the library parses the datatype and
            // synchronizes at the kernel boundary before returning.
            let rank = &mut self.ranks[r];
            rank.cpu +=
                self.platform.mpi_call + fusedpack_datatype::cache::parse_cost(stats.num_blocks);
            self.sync_kernel(r, stats, Bucket::Pack);
        } else {
            // Application kernel: launch on a round-robin stream, return.
            let stream = {
                let rank = &mut self.ranks[r];
                let s = rank.next_stream % 4;
                rank.next_stream = rank.next_stream.wrapping_add(1);
                fusedpack_gpu::StreamId(s)
            };
            let at = self.ranks[r].cpu;
            let k = self.gpus[r].launch_kernel(at, stream, stats);
            let launch_cpu = self.gpus[r].arch.launch_cpu;
            self.ranks[r].cpu = k.cpu_release;
            self.ranks[r].app_kernels_done = self.ranks[r].app_kernels_done.max(k.done);
            self.bucket_add_at(r, Bucket::Launch, at, launch_cpu);
            self.bucket_add_at(r, Bucket::Pack, k.start, k.done.since(k.start));
        }
    }

    /// `cudaDeviceSynchronize`: block until application kernels drain.
    fn exec_device_sync(&mut self, r: usize) {
        let sync_call = self.gpus[r].arch.stream_sync_call;
        let rank = &mut self.ranks[r];
        let start = rank.cpu;
        let wait = rank.app_kernels_done.since(rank.cpu);
        rank.cpu = rank.cpu.max(rank.app_kernels_done) + sync_call;
        let end = rank.cpu;
        rank.tele
            .span(Lane::Host, start, end, || Payload::SyncWait {
                kind: WaitKindTag::LocalKernel,
            });
        self.bucket_add_at(r, Bucket::Sync, start, wait + sync_call);
    }

    /// Enter Waitall. Returns `true` if the rank blocked.
    fn enter_waitall(&mut self, r: usize) -> bool {
        // The rank reached a synchronization point: let the engine flush
        // whatever its data plane has been batching.
        let engine = self.engine.clone();
        engine.on_sync_point(&mut PathCtx { cl: self, r });
        if self.ranks[r].all_requests_complete() {
            self.exit_waitall(r);
            return false;
        }
        let rank = &mut self.ranks[r];
        rank.blocked = true;
        rank.wait_anchor = rank.cpu;
        rank.wait_span = rank.tele.open(Lane::Host, rank.cpu, || Payload::SyncWait {
            kind: WaitKindTag::Network,
        });
        true
    }

    /// All requests drained: free them and reset staging pools.
    fn exit_waitall(&mut self, r: usize) {
        let rank = &mut self.ranks[r];
        rank.cpu += self.platform.mpi_call;
        debug_assert!(rank.uid_map.is_empty(), "fusion uids leaked");
        debug_assert!(
            rank.fusion_requeue.is_empty(),
            "backpressure requeue leaked past Waitall"
        );
        debug_assert!(
            rank.packed.is_empty() && rank.landed.is_empty(),
            "payload buffers outlived their Waitall epoch"
        );
        rank.sends.clear();
        rank.recvs.clear();
        self.staging_mems[r].reset();
        self.host_mems[r].reset();
    }

    /// Called whenever a request completes: if the rank is blocked in
    /// Waitall and everything is done, unblock and continue.
    pub(crate) fn check_unblock(&mut self, r: usize, now: Time) {
        if !self.ranks[r].blocked {
            return;
        }
        if !self.ranks[r].all_requests_complete() {
            return;
        }
        let resume = {
            let rank = &mut self.ranks[r];
            rank.blocked = false;
            rank.cpu = rank.cpu.max(now);
            let span = rank.wait_span.take();
            rank.tele.close(span, rank.cpu);
            rank.cpu
        };
        self.exit_waitall(r);
        let key = self.next_key(r);
        let rid = self.ranks[r].id;
        self.events
            .push_at_key(resume.max(self.events.now()), key, Event::Wake(rid));
    }
}
