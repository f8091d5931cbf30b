//! Per-rank application programs.
//!
//! Benchmarks and examples describe each rank's behaviour as a small
//! sequence of operations — the same structure as the paper's Algorithm 3
//! (MPI-level implicit pack/unpack):
//!
//! ```text
//! commit(ddt)
//! for each neighbor i, buffer j:  irecv(rbuf[i][j], ddt, ...)
//! for each neighbor i, buffer j:  isend(sbuf[i][j], ddt, ...)
//! waitall
//! ```
//!
//! Buffers are declared up front ([`BufDecl`]) and allocated on the rank's
//! GPU by the cluster builder; programs refer to them by [`BufId`].

use crate::cluster::RankId;
use fusedpack_datatype::TypeDesc;
use std::sync::Arc;

/// Index of a declared buffer on a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub usize);

/// Index of a committed datatype on a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeSlot(pub usize);

/// How a declared buffer is initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufInit {
    /// Zero-filled.
    Zero,
    /// Deterministic pseudo-random bytes from the given seed (used by
    /// correctness tests to verify end-to-end transfers).
    Random(u64),
}

/// A buffer declaration.
#[derive(Debug, Clone)]
pub struct BufDecl {
    pub len: u64,
    pub init: BufInit,
}

/// One application-level operation.
#[derive(Debug, Clone)]
pub enum AppOp {
    /// `MPI_Type_commit` into a type slot.
    Commit { slot: TypeSlot, desc: Arc<TypeDesc> },
    /// `MPI_Irecv(buf, count, type, src, tag)`.
    Irecv {
        buf: BufId,
        ty: TypeSlot,
        count: u64,
        src: RankId,
        tag: u32,
    },
    /// `MPI_Isend(buf, count, type, dst, tag)`.
    Isend {
        buf: BufId,
        ty: TypeSlot,
        count: u64,
        dst: RankId,
        tag: u32,
    },
    /// `MPI_Waitall` on every outstanding request.
    Waitall,
    /// `MPI_Pack` (Algorithm 1): *blocking* pack of `count` elements of
    /// `ty` from `src` into the contiguous buffer `dst`. The MPI library
    /// must synchronize before returning — the overhead §III-A analyzes.
    Pack {
        src: BufId,
        ty: TypeSlot,
        count: u64,
        dst: BufId,
    },
    /// `MPI_Unpack` (Algorithm 1): blocking unpack of a contiguous `src`
    /// buffer into `count` elements of `ty` at `dst`.
    Unpack {
        src: BufId,
        ty: TypeSlot,
        count: u64,
        dst: BufId,
    },
    /// Application-level asynchronous pack kernel (Algorithm 2): launch and
    /// return; completion is observed by a later [`AppOp::DeviceSync`].
    PackAsync {
        src: BufId,
        ty: TypeSlot,
        count: u64,
        dst: BufId,
    },
    /// Application-level asynchronous unpack kernel (Algorithm 2).
    UnpackAsync {
        src: BufId,
        ty: TypeSlot,
        count: u64,
        dst: BufId,
    },
    /// `cudaDeviceSynchronize`: block until every application-launched
    /// kernel has drained (the single sync point of Algorithm 2).
    DeviceSync,
    /// Pure application think time: advance the rank's CPU clock by `ns`
    /// nanoseconds without entering the library. Sustained-load (serve)
    /// workloads use this to space request arrivals deterministically.
    Compute { ns: u64 },
    /// Start (or restart) the rank's lap timer.
    ResetTimer,
    /// Record the elapsed lap into the run report.
    RecordLap,
}

/// A rank's full program: buffer declarations plus the operation sequence.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub buffers: Vec<BufDecl>,
    pub ops: Vec<AppOp>,
    /// `RecordLap` ops added through [`Program::push`]: the cluster sizes
    /// each rank's lap records from it, so a run never grows them.
    laps: usize,
}

impl Program {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a buffer; returns its id.
    pub fn buffer(&mut self, len: u64, init: BufInit) -> BufId {
        self.buffers.push(BufDecl { len, init });
        BufId(self.buffers.len() - 1)
    }

    pub fn push(&mut self, op: AppOp) -> &mut Self {
        self.laps += usize::from(matches!(op, AppOp::RecordLap));
        self.ops.push(op);
        self
    }

    /// Laps the program records (its `RecordLap` ops).
    pub fn lap_count(&self) -> usize {
        self.laps
    }

    /// Number of Isend/Irecv operations (for sizing diagnostics).
    pub fn comm_op_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, AppOp::Isend { .. } | AppOp::Irecv { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_datatype::TypeBuilder;

    #[test]
    fn program_builder_assigns_ids() {
        let mut p = Program::new();
        let a = p.buffer(1024, BufInit::Zero);
        let b = p.buffer(2048, BufInit::Random(7));
        assert_eq!(a, BufId(0));
        assert_eq!(b, BufId(1));
        assert_eq!(p.buffers.len(), 2);
    }

    #[test]
    fn comm_op_count_counts_sends_and_recvs() {
        let mut p = Program::new();
        let buf = p.buffer(64, BufInit::Zero);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: TypeBuilder::int(),
        });
        p.push(AppOp::Irecv {
            buf,
            ty: TypeSlot(0),
            count: 1,
            src: RankId(1),
            tag: 0,
        });
        p.push(AppOp::Isend {
            buf,
            ty: TypeSlot(0),
            count: 1,
            dst: RankId(1),
            tag: 0,
        });
        p.push(AppOp::Waitall);
        assert_eq!(p.comm_op_count(), 2);
    }

    #[test]
    fn lap_count_counts_record_laps() {
        let mut p = Program::new();
        p.push(AppOp::ResetTimer).push(AppOp::RecordLap);
        p.push(AppOp::Waitall).push(AppOp::RecordLap);
        assert_eq!(p.lap_count(), 2);
    }
}
