//! GPU-Async \[23\]: pack/unpack kernels on a small pool of streams with
//! `cudaEventRecord`/`cudaEventQuery` completion detection. No layout
//! cache.

use super::{Cluster, Event, PathCtx, SchemeEngine};
use crate::lifecycle::LifecycleEvent;
use crate::sendrecv::{PackState, RecvId, SendId};
use fusedpack_datatype::cache::parse_cost;
use fusedpack_gpu::{SegmentStats, StreamId};
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::Bucket;

/// Number of streams the GPU-Async scheme \[23\] multiplexes kernels over.
const ASYNC_STREAMS: u32 = 4;

/// Per-operation task bookkeeping of the GPU-Async design \[23\]: callback
/// registration and completion-queue management, beyond the raw
/// `cudaEventRecord` (part of its "Scheduling" cost in Fig. 11).
const ASYNC_TASK_COST: Duration = Duration(1_500);

pub(crate) struct GpuAsyncEngine;

/// Round-robin stream selection.
fn async_stream(cx: &mut PathCtx<'_>) -> StreamId {
    let rank = &mut cx.cl.ranks[cx.r];
    let s = rank.next_stream % ASYNC_STREAMS;
    rank.next_stream = rank.next_stream.wrapping_add(1);
    StreamId(s)
}

/// Launch an async kernel on the next stream, charge its costs, and return
/// its completion instant.
fn launch_async_kernel(cx: &mut PathCtx<'_>, stats: SegmentStats) -> Time {
    let r = cx.r;
    let arch_event_record = cx.cl.gpus[r].arch.event_record;
    let stream = async_stream(cx);
    let at = cx.cl.ranks[r].cpu;
    let k = cx.cl.gpus[r].launch_kernel(at, stream, stats);
    let launch_cpu = cx.cl.gpus[r].arch.launch_cpu;
    cx.cl.ranks[r].cpu = k.cpu_release + arch_event_record;
    cx.cl.bucket_add_at(r, Bucket::Launch, at, launch_cpu);
    cx.cl
        .bucket_add_at(r, Bucket::Pack, k.start, k.done.since(k.start));
    cx.cl
        .bucket_add_at(r, Bucket::Scheduling, k.cpu_release, arch_event_record);
    k.done
}

impl SchemeEngine for GpuAsyncEngine {
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId) {
        let (bytes, blocks, eager) = cx.send_meta(sid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(parse_cost(blocks), Bucket::Sync);
        cx.charge(ASYNC_TASK_COST, Bucket::Scheduling);
        let done = launch_async_kernel(cx, stats);
        cx.send_mut(sid)
            .lifecycle
            .apply(LifecycleEvent::PackStarted);
        let rank_id = cx.cl.ranks[cx.r].id;
        cx.schedule(done, Event::PackDone(rank_id, sid));
        // RTS overlaps with the packing kernel.
        cx.send_rts_or_issue(sid, eager);
    }

    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId) {
        let (bytes, blocks) = cx.recv_meta(rid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(parse_cost(blocks), Bucket::Sync);
        cx.charge(ASYNC_TASK_COST, Bucket::Scheduling);
        let done = launch_async_kernel(cx, stats);
        cx.recv_mut(rid)
            .lifecycle
            .apply(LifecycleEvent::PackStarted);
        let rank_id = cx.cl.ranks[cx.r].id;
        cx.schedule(done, Event::UnpackDone(rank_id, rid));
    }

    /// GPU-Async's progress engine scans *every* outstanding event per
    /// progress trip (`cudaEventQuery` each), so detection cost grows with
    /// the number of in-flight kernels — the extra synchronization penalty
    /// the paper blames for GPU-Async losing to GPU-Sync on Lassen
    /// (Fig. 10 discussion).
    fn completion_detect_cost(&self, cl: &Cluster, r: usize) -> Duration {
        let rank = &cl.ranks[r];
        let outstanding = rank
            .sends
            .iter()
            .filter(|s| !s.lifecycle.is_done() && s.lifecycle.pack() == PackState::InFlight)
            .count()
            + rank
                .recvs
                .iter()
                .filter(|op| op.lifecycle.pack() == PackState::InFlight)
                .count();
        // One query per stream-head event per progress trip.
        let scanned = outstanding.clamp(1, ASYNC_STREAMS as usize);
        cl.gpus[r].arch.event_query * (scanned as u64)
    }
}
