//! Send/receive operation state.
//!
//! Each operation's protocol progress lives in a
//! [`RequestLifecycle`] — see that
//! module for the stage diagram. A send walks: pack initiated → (RTS out,
//! CTS in, pack complete) → payload issued → locally complete. A receive
//! walks: posted → matched/CTS sent → data arrived → unpack initiated →
//! complete. The *order* of the middle steps varies by scheme — the
//! proposed design's whole point is that the RTS/CTS handshake runs
//! concurrently with packing.

use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::DevPtr;
use std::sync::Arc;

use crate::cluster::RankId;
use crate::lifecycle::RequestLifecycle;

pub use crate::lifecycle::PackState;

/// Per-rank send-operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SendId(pub usize);

/// Per-rank receive-operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecvId(pub usize);

/// Where a packed staging buffer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagingLoc {
    /// Not yet allocated.
    None,
    /// Device memory (kernel pack/unpack paths, fusion).
    Gpu(DevPtr),
    /// Host memory (hybrid CPU path, naive production libraries).
    Host(DevPtr),
    /// The user buffer itself, on the device: contiguous layouts need no
    /// packing and are sent/received in place.
    UserGpu(DevPtr),
}

impl StagingLoc {
    pub fn addr(&self) -> u64 {
        match self {
            StagingLoc::Gpu(p) | StagingLoc::Host(p) | StagingLoc::UserGpu(p) => p.addr,
            StagingLoc::None => panic!("staging not allocated"),
        }
    }

    pub fn is_host(&self) -> bool {
        matches!(self, StagingLoc::Host(_))
    }

    pub fn is_some(&self) -> bool {
        !matches!(self, StagingLoc::None)
    }
}

/// CTS information remembered by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtsInfo {
    pub recv_id: RecvId,
    pub staging_addr: u64,
    pub host_staging: bool,
}

/// One in-flight send.
#[derive(Debug, Clone)]
pub struct SendOp {
    pub id: SendId,
    pub dst: RankId,
    pub tag: u32,
    pub user_buf: DevPtr,
    pub layout: Arc<CompiledLayout>,
    pub count: u64,
    pub packed_bytes: u64,
    pub blocks: u64,
    pub eager: bool,
    pub staging: StagingLoc,
    /// Protocol + packing progress (replaces the old `pack`/`rts_sent`/
    /// `data_issued`/`completed` flag scatter).
    pub lifecycle: RequestLifecycle,
    pub cts: Option<CtsInfo>,
}

/// One in-flight receive.
#[derive(Debug, Clone)]
pub struct RecvOp {
    pub id: RecvId,
    pub src: RankId,
    pub tag: u32,
    pub user_buf: DevPtr,
    pub layout: Arc<CompiledLayout>,
    pub count: u64,
    pub packed_bytes: u64,
    pub blocks: u64,
    pub staging: StagingLoc,
    /// Protocol + unpacking progress (replaces the old `state`/`unpack`
    /// enum pair).
    pub lifecycle: RequestLifecycle,
    /// Set when this receive is served by a fused DirectIPC request; the
    /// receiver must notify this send with a `Fin` on completion.
    pub ipc_send_id: Option<SendId>,
}

impl SendOp {
    /// Ready to put the payload on the wire?
    pub fn ready_to_issue(&self) -> bool {
        self.lifecycle.is_unmatched()
            && self.lifecycle.pack() == PackState::Done
            && (self.eager || self.cts.is_some())
    }
}

impl RecvOp {
    pub fn is_complete(&self) -> bool {
        self.lifecycle.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleEvent;
    use fusedpack_datatype::TypeBuilder;

    fn send() -> SendOp {
        SendOp {
            id: SendId(0),
            dst: RankId(1),
            tag: 0,
            user_buf: DevPtr { addr: 0, len: 64 },
            layout: Arc::new(CompiledLayout::of(&TypeBuilder::int())),
            count: 1,
            packed_bytes: 4,
            blocks: 1,
            eager: false,
            staging: StagingLoc::None,
            lifecycle: RequestLifecycle::send(),
            cts: None,
        }
    }

    #[test]
    fn rendezvous_needs_pack_and_cts() {
        let mut s = send();
        assert!(!s.ready_to_issue());
        s.lifecycle.apply(LifecycleEvent::PackFinished);
        assert!(!s.ready_to_issue(), "no CTS yet");
        s.cts = Some(CtsInfo {
            recv_id: RecvId(0),
            staging_addr: 0,
            host_staging: false,
        });
        assert!(s.ready_to_issue());
        s.lifecycle.apply(LifecycleEvent::Issued);
        assert!(!s.ready_to_issue(), "never issue twice");
    }

    #[test]
    fn eager_needs_only_pack() {
        let mut s = send();
        s.eager = true;
        s.lifecycle.apply(LifecycleEvent::PackFinished);
        assert!(s.ready_to_issue());
    }

    #[test]
    fn staging_loc_accessors() {
        let g = StagingLoc::Gpu(DevPtr { addr: 42, len: 8 });
        assert_eq!(g.addr(), 42);
        assert!(!g.is_host());
        assert!(g.is_some());
        let h = StagingLoc::Host(DevPtr { addr: 7, len: 8 });
        assert!(h.is_host());
        assert!(!StagingLoc::None.is_some());
    }

    #[test]
    #[should_panic(expected = "staging not allocated")]
    fn none_staging_has_no_addr() {
        StagingLoc::None.addr();
    }
}
