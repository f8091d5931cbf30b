//! Production-library naive path (SpectrumMPI / OpenMPI): one staged
//! `cudaMemcpyAsync` per contiguous block, through host memory.

use super::{Cluster, Event, PathCtx, SchemeEngine};
use crate::lifecycle::LifecycleEvent;
use crate::scheme::NaiveFlavor;
use crate::sendrecv::{RecvId, SendId};
use fusedpack_datatype::cache::parse_cost;
use fusedpack_gpu::SegmentStats;
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::Bucket;

pub(crate) struct NaiveEngine {
    pub(crate) flavor: NaiveFlavor,
}

/// Aggregate per-block staged copies (`cudaMemcpyAsync` each) — the
/// production-library path. Returns the completion instant of the DMA.
fn staged_copies(cx: &mut PathCtx<'_>, stats: SegmentStats, flavor: NaiveFlavor) -> Time {
    let r = cx.r;
    let arch = &cx.cl.gpus[r].arch;
    let call = Duration::from_nanos(
        (arch.memcpy_async_call.as_nanos() as f64 * flavor.call_cost_factor()) as u64,
    );
    let issue = call * stats.num_blocks;
    let dma = arch.dma_setup * stats.num_blocks
        + cx.cl.gpus[r].host_link().transfer_time(stats.total_bytes);
    let start = cx.cl.ranks[r].cpu;
    cx.cl.bucket_add(r, Bucket::Launch, issue);
    cx.cl.bucket_add(r, Bucket::Pack, dma);
    cx.cl.ranks[r].cpu = start + issue;
    start + issue.max(dma)
}

impl SchemeEngine for NaiveEngine {
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId) {
        let (bytes, blocks, _eager) = cx.send_meta(sid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(parse_cost(blocks), Bucket::Sync);
        let done = staged_copies(cx, stats, self.flavor);
        cx.send_mut(sid)
            .lifecycle
            .apply(LifecycleEvent::PackStarted);
        let rank_id = cx.cl.ranks[cx.r].id;
        cx.schedule(done, Event::PackDone(rank_id, sid));
    }

    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId) {
        let (bytes, blocks) = cx.recv_meta(rid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(parse_cost(blocks), Bucket::Sync);
        let done = staged_copies(cx, stats, self.flavor);
        cx.recv_mut(rid)
            .lifecycle
            .apply(LifecycleEvent::PackStarted);
        let rank_id = cx.cl.ranks[cx.r].id;
        cx.schedule(done, Event::UnpackDone(rank_id, rid));
    }

    /// Both emulated libraries always bounce through host staging.
    fn host_staging(&self, _cl: &Cluster, _r: usize, _bytes: u64, _blocks: u64) -> bool {
        true
    }
}
