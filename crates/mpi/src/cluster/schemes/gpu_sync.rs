//! GPU-Sync \[8, 22\]: specialized pack/unpack kernel + blocking
//! `cudaStreamSynchronize` per message. No layout cache.

use super::{PathCtx, SchemeEngine};
use crate::lifecycle::LifecycleEvent;
use crate::sendrecv::{RecvId, SendId};
use fusedpack_datatype::cache::parse_cost;
use fusedpack_gpu::SegmentStats;
use fusedpack_telemetry::Bucket;

pub(crate) struct GpuSyncEngine;

impl SchemeEngine for GpuSyncEngine {
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId) {
        let (bytes, blocks, eager) = cx.send_meta(sid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(parse_cost(blocks), Bucket::Sync);
        cx.sync_kernel(stats, Bucket::Pack);
        cx.send_mut(sid)
            .lifecycle
            .apply(LifecycleEvent::PackFinished);
        cx.send_rts_or_issue(sid, eager);
    }

    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId) {
        let (bytes, blocks) = cx.recv_meta(rid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(parse_cost(blocks), Bucket::Sync);
        cx.sync_kernel(stats, Bucket::Pack);
        cx.finish_unpack(rid);
    }
}
