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
        self.ops.push(op);
        self
    }

    /// Number of Isend/Irecv operations (for sizing diagnostics).
    pub fn comm_op_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, AppOp::Isend { .. } | AppOp::Irecv { .. }))
            .count()
    }

    /// The most staging bytes one `Waitall` epoch of this program holds at
    /// once: every Isend and Irecv whose data is not one contiguous run
    /// stages its packed payload, 64-byte aligned, until the epoch's
    /// `Waitall` frees them all. The cluster builder backs each rank's
    /// staging pools to this mark; an engine that stages more (a replayed
    /// fault, say) still grows them on demand.
    pub(crate) fn staging_high_water(&self) -> u64 {
        // Per type slot: packed bytes per element, whether one element is
        // contiguous, and its extent (`CompiledLayout::is_contiguous_for`).
        let mut types: Vec<Option<(u64, bool, u64)>> = Vec::new();
        let (mut epoch, mut high) = (0u64, 0u64);
        for op in &self.ops {
            match op {
                AppOp::Commit { slot, desc } => {
                    if types.len() <= slot.0 {
                        types.resize(slot.0 + 1, None);
                    }
                    types[slot.0] = Some((desc.size(), desc.is_contiguous(), desc.extent()));
                }
                AppOp::Isend { ty, count, .. } | AppOp::Irecv { ty, count, .. } => {
                    let Some(&Some((size, contiguous, extent))) = types.get(ty.0) else {
                        continue;
                    };
                    if !(contiguous && (*count <= 1 || extent == size)) {
                        epoch += (size * count).max(1).next_multiple_of(64);
                    }
                }
                AppOp::Waitall => {
                    high = high.max(epoch);
                    epoch = 0;
                }
                _ => {}
            }
        }
        high.max(epoch)
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
    fn staging_high_water_is_the_largest_epoch() {
        let mut p = Program::new();
        let buf = p.buffer(4096, BufInit::Zero);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: TypeBuilder::vector(4, 1, 2, TypeBuilder::int()), // 16 B packed
        });
        p.push(AppOp::Commit {
            slot: TypeSlot(1),
            desc: TypeBuilder::int(),
        });
        let op = |send: bool, ty: usize, count: u64| {
            let ty = TypeSlot(ty);
            if send {
                AppOp::Isend {
                    buf,
                    ty,
                    count,
                    dst: RankId(1),
                    tag: 0,
                }
            } else {
                AppOp::Irecv {
                    buf,
                    ty,
                    count,
                    src: RankId(1),
                    tag: 0,
                }
            }
        };
        // Epoch 1: two strided messages, 64 B and 128 B after alignment,
        // plus a contiguous one that goes in place (counted, it would make
        // this epoch the larger).
        p.push(op(false, 0, 1));
        p.push(op(true, 0, 5));
        p.push(op(true, 1, 100));
        p.push(AppOp::Waitall);
        // Epoch 2: one strided message of 16 * 9 = 144 B, 192 B aligned:
        // without the alignment this epoch would be the larger.
        p.push(op(true, 0, 9));
        p.push(AppOp::Waitall);
        assert_eq!(p.staging_high_water(), 192);
        // An epoch left open at the end of the program counts too.
        p.push(op(true, 0, 64));
        assert_eq!(p.staging_high_water(), 1024);
    }
}
