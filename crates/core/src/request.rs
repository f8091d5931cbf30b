//! Fusion request objects — the entries of the request list (§IV-A1).

use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::{FusedWork, SegmentStats};

/// Unique request identifier handed back to the progress engine. The paper
/// uses a negative UID to signal rejection; this engine uses
/// `Result<Uid, EnqueueError>` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u64);

/// The operation a request asks the fused kernel to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionOp {
    /// Gather a non-contiguous origin buffer into a contiguous target.
    Pack,
    /// Scatter a contiguous origin buffer into a non-contiguous target.
    Unpack,
    /// Direct non-contiguous load/store between peer GPUs over NVLink/PCIe
    /// (the zero-copy scheme of \[24\], fused as a third operation kind).
    DirectIpc,
}

/// Lifecycle states shared by the request- and response-status fields.
///
/// `request_status` is written by the scheduler (host side); in the CUDA
/// implementation `response_status` is written by a GPU thread as soon as a
/// cooperative group finishes its request — here it is advanced by the
/// kernel-completion events of the simulation, which stand in for those
/// device-visible flag writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Slot is free.
    Idle,
    /// Enqueued, waiting to be fused.
    Pending,
    /// Handed to a fused kernel currently in flight.
    Busy,
    /// Operation finished.
    Completed,
}

/// One entry of the request list.
///
/// A request carries what the fused kernel's cost model reads: its shape,
/// resolved once from the cached layout (scheme of \[24\]) at enqueue. The
/// bytes themselves move through the caller's copy engine, so the entry
/// holds no buffer pointers and no reference to the layout.
#[derive(Debug, Clone)]
pub struct FusionRequest {
    pub uid: Uid,
    pub op: FusionOp,
    /// Shape summary of `count` elements of the request's layout (the cost
    /// model and work descriptor read it on every query/flush).
    pub stats: SegmentStats,
    /// External bandwidth ceiling for this request's kernel (set for
    /// DirectIPC requests to the peer-link bandwidth; `None` for local
    /// pack/unpack).
    pub bw_cap: Option<f64>,
    /// Host-side view of the request lifecycle.
    pub request_status: Status,
    /// Device-side completion signal.
    pub response_status: Status,
}

impl FusionRequest {
    /// Resolve the memoized shape for `(layout, count)` — the single
    /// construction-time classification every later read reuses.
    pub fn classify(layout: &CompiledLayout, count: u64) -> SegmentStats {
        let (bytes, blocks) = layout.shape(count);
        SegmentStats::new(bytes, blocks)
    }

    /// Payload bytes this request moves.
    pub fn bytes(&self) -> u64 {
        self.stats.total_bytes
    }

    /// Shape summary for the GPU kernel cost model (memoized at enqueue).
    pub fn stats(&self) -> SegmentStats {
        self.stats
    }

    /// The fused-kernel work descriptor for this request.
    pub fn work(&self) -> FusedWork {
        FusedWork {
            stats: self.stats(),
            bw_cap: self.bw_cap,
        }
    }

    /// The progress engine's completion check (§IV-A2 ④): compare request
    /// status to response status.
    pub fn is_complete(&self) -> bool {
        self.response_status == Status::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_datatype::TypeBuilder;

    fn layout() -> CompiledLayout {
        CompiledLayout::of(&TypeBuilder::vector(4, 2, 5, TypeBuilder::double()))
    }

    fn req() -> FusionRequest {
        FusionRequest {
            uid: Uid(7),
            op: FusionOp::Pack,
            stats: FusionRequest::classify(&layout(), 3),
            bw_cap: None,
            request_status: Status::Pending,
            response_status: Status::Idle,
        }
    }

    #[test]
    fn bytes_and_stats_follow_layout() {
        let r = req();
        assert_eq!(r.bytes(), 4 * 2 * 8 * 3);
        let s = r.stats();
        assert_eq!(s.total_bytes, 192);
        assert_eq!(s.num_blocks, 12);
        let stats = FusionRequest::classify(&layout(), 1);
        assert_eq!(stats.num_blocks, 4);
    }

    #[test]
    fn completion_is_response_driven() {
        let mut r = req();
        assert!(!r.is_complete());
        r.request_status = Status::Completed; // host alone cannot complete it
        assert!(!r.is_complete());
        r.response_status = Status::Completed;
        assert!(r.is_complete());
    }
}
