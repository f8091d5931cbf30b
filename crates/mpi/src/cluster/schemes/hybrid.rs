//! CPU-GPU-Hybrid \[24\] and MVAPICH2-GDR: GDRCopy CPU load/store path for
//! dense/small layouts, cached-layout GPU kernels otherwise. The adaptive
//! (MVAPICH2-GDR) variant is the same engine with more conservative
//! hybrid limits.

use super::{Cluster, PathCtx, SchemeEngine};
use crate::lifecycle::LifecycleEvent;
use crate::scheme::HybridPolicy;
use crate::sendrecv::{RecvId, SendId};
use fusedpack_datatype::cache::lookup_cost;
use fusedpack_gpu::SegmentStats;
use fusedpack_net::platform::Platform;
use fusedpack_telemetry::Bucket;

pub(crate) struct HybridEngine {
    policy: HybridPolicy,
}

impl HybridEngine {
    pub(crate) fn new(platform: &Platform, adaptive: bool) -> Self {
        HybridEngine {
            policy: HybridPolicy::for_link(&platform.host_link, adaptive),
        }
    }
}

impl SchemeEngine for HybridEngine {
    fn begin_pack(&self, cx: &mut PathCtx<'_>, sid: SendId) {
        let (bytes, blocks, eager) = cx.send_meta(sid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(lookup_cost(), Bucket::Sync);
        if cx.cl.ranks[cx.r].sends[sid.0].staging.is_host() {
            let cost = cx.cl.gpus[cx.r].gdr.read_time(stats);
            cx.charge(cost, Bucket::Pack);
        } else {
            cx.sync_kernel(stats, Bucket::Pack);
        }
        cx.send_mut(sid)
            .lifecycle
            .apply(LifecycleEvent::PackFinished);
        cx.send_rts_or_issue(sid, eager);
    }

    fn begin_unpack(&self, cx: &mut PathCtx<'_>, rid: RecvId) {
        let (bytes, blocks) = cx.recv_meta(rid);
        let stats = SegmentStats::new(bytes, blocks);
        cx.charge(lookup_cost(), Bucket::Sync);
        if cx.cl.ranks[cx.r].recvs[rid.0].staging.is_host() {
            let cost = cx.cl.gpus[cx.r].gdr.write_time(stats);
            cx.charge(cost, Bucket::Pack);
        } else {
            cx.sync_kernel(stats, Bucket::Pack);
        }
        cx.finish_unpack(rid);
    }

    /// A message stages through host memory exactly when the CPU path
    /// does its (un)pack: the GDRCopy load loop on the sender, the store
    /// loop on the receiver.
    fn host_staging(&self, cl: &Cluster, r: usize, bytes: u64, blocks: u64) -> bool {
        self.policy.use_cpu_path(bytes, blocks) && cl.gpus[r].gdr.available
    }
}
