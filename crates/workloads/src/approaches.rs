//! The three ways to move non-contiguous GPU data with MPI (paper §III):
//!
//! * **Algorithm 1** — MPI-level *explicit* pack/unpack: blocking
//!   `MPI_Pack` per buffer, contiguous sends, blocking `MPI_Unpack` after
//!   the waitall. Synchronizes at every kernel boundary.
//! * **Algorithm 2** — *application-level* pack/unpack: the application
//!   launches its own asynchronous kernels and synchronizes once
//!   (`cudaDeviceSynchronize`) before communicating. More code, one sync.
//! * **Algorithm 3** — MPI-level *implicit*: pass the derived datatype
//!   straight to `Isend`/`Irecv` and let the runtime schedule the
//!   processing — the approach the paper's fusion framework accelerates.
//!
//! Each builder returns the two symmetric rank programs for a bulk
//! exchange of `n_msgs` buffers each way.

use crate::Workload;
use fusedpack_datatype::TypeBuilder;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, BufId, Program, RankId, TypeSlot};

/// Buffer handles for verification.
pub struct ApproachBuffers {
    pub recv_user: Vec<BufId>,
}

fn declare_bufs(
    p: &mut Program,
    workload: &Workload,
    n_msgs: usize,
    seed: u64,
    explicit: bool,
) -> (Vec<BufId>, Vec<BufId>, Vec<BufId>, Vec<BufId>) {
    let len = workload.footprint().max(1);
    let packed = workload.packed_bytes().max(1);
    let send_user: Vec<BufId> = (0..n_msgs)
        .map(|i| p.buffer(len, BufInit::Random(seed + i as u64)))
        .collect();
    let recv_user: Vec<BufId> = (0..n_msgs).map(|_| p.buffer(len, BufInit::Zero)).collect();
    let (send_packed, recv_packed) = if explicit {
        (
            (0..n_msgs)
                .map(|_| p.buffer(packed, BufInit::Zero))
                .collect(),
            (0..n_msgs)
                .map(|_| p.buffer(packed, BufInit::Zero))
                .collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    (send_user, recv_user, send_packed, recv_packed)
}

/// Algorithm 1: MPI-level explicit pack/unpack.
pub fn algorithm1_programs(
    workload: &Workload,
    n_msgs: usize,
    seed: u64,
) -> (Program, Program, ApproachBuffers) {
    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let (send_user, recv_user, send_packed, recv_packed) =
            declare_bufs(&mut p, workload, n_msgs, seed, true);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: workload.desc.clone(),
        });
        p.push(AppOp::Commit {
            slot: TypeSlot(1),
            desc: TypeBuilder::contiguous(workload.packed_bytes().max(1), TypeBuilder::byte()),
        });
        p.push(AppOp::ResetTimer);
        for (i, &b) in recv_packed.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf: b,
                ty: TypeSlot(1),
                count: 1,
                src: peer,
                tag: i as u32,
            });
        }
        for i in 0..n_msgs {
            // Blocking MPI_Pack, then send the packed (contiguous) buffer.
            p.push(AppOp::Pack {
                src: send_user[i],
                ty: TypeSlot(0),
                count: workload.count,
                dst: send_packed[i],
            });
            p.push(AppOp::Isend {
                buf: send_packed[i],
                ty: TypeSlot(1),
                count: 1,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        for i in 0..n_msgs {
            p.push(AppOp::Unpack {
                src: recv_packed[i],
                ty: TypeSlot(0),
                count: workload.count,
                dst: recv_user[i],
            });
        }
        p.push(AppOp::RecordLap);
        (p, ApproachBuffers { recv_user })
    };
    let (p0, _) = build(seed, RankId(1));
    let (p1, bufs1) = build(seed + 1000, RankId(0));
    (p0, p1, bufs1)
}

/// Algorithm 2: application-level explicit pack/unpack, one sync each way.
pub fn algorithm2_programs(
    workload: &Workload,
    n_msgs: usize,
    seed: u64,
) -> (Program, Program, ApproachBuffers) {
    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let (send_user, recv_user, send_packed, recv_packed) =
            declare_bufs(&mut p, workload, n_msgs, seed, true);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: workload.desc.clone(),
        });
        p.push(AppOp::Commit {
            slot: TypeSlot(1),
            desc: TypeBuilder::contiguous(workload.packed_bytes().max(1), TypeBuilder::byte()),
        });
        p.push(AppOp::ResetTimer);
        // Launch every packing kernel asynchronously...
        for i in 0..n_msgs {
            p.push(AppOp::PackAsync {
                src: send_user[i],
                ty: TypeSlot(0),
                count: workload.count,
                dst: send_packed[i],
            });
        }
        // ...one synchronization at the kernel boundary...
        p.push(AppOp::DeviceSync);
        // ...then communicate the contiguous buffers.
        for (i, &b) in recv_packed.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf: b,
                ty: TypeSlot(1),
                count: 1,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &b) in send_packed.iter().enumerate() {
            p.push(AppOp::Isend {
                buf: b,
                ty: TypeSlot(1),
                count: 1,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        for i in 0..n_msgs {
            p.push(AppOp::UnpackAsync {
                src: recv_packed[i],
                ty: TypeSlot(0),
                count: workload.count,
                dst: recv_user[i],
            });
        }
        p.push(AppOp::DeviceSync);
        p.push(AppOp::RecordLap);
        (p, ApproachBuffers { recv_user })
    };
    let (p0, _) = build(seed, RankId(1));
    let (p1, bufs1) = build(seed + 1000, RankId(0));
    (p0, p1, bufs1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfem::specfem3d_cm;
    use fusedpack_datatype::CompiledLayout;
    use fusedpack_gpu::DataMode;
    use fusedpack_mpi::{ClusterBuilder, SchemeKind};
    use fusedpack_net::Platform;
    use fusedpack_sim::{Duration, Pcg32};

    fn run(
        programs: (Program, Program, ApproachBuffers),
        scheme: SchemeKind,
        workload: &Workload,
        seed: u64,
    ) -> Duration {
        let (p0, p1, bufs1) = programs;
        let mut cluster = ClusterBuilder::new(Platform::lassen(), scheme)
            .data_mode(DataMode::Full)
            .add_rank(0, p0)
            .add_rank(1, p1)
            .build();
        let report = cluster.run();
        // Verify rank 1 received rank 0's data.
        let layout = CompiledLayout::of(&workload.desc);
        let len = workload.footprint().max(1);
        for (i, &rbuf) in bufs1.recv_user.iter().enumerate() {
            let got = cluster.rank_buffer(fusedpack_mpi::RankId(1), rbuf);
            let mut want = vec![0u8; len as usize];
            Pcg32::new(seed + i as u64, 0).fill_bytes(&mut want);
            for (addr, seg_len) in layout.absolute_segments(0, workload.count) {
                let (a, b) = (addr as usize, (addr + seg_len) as usize);
                assert_eq!(&got[a..b], &want[a..b], "msg {i} segment {addr}");
            }
        }
        report.lap_makespan(0)
    }

    #[test]
    fn all_three_approaches_move_correct_bytes() {
        let w = specfem3d_cm(600);
        let n = 8;
        let a1 = run(algorithm1_programs(&w, n, 40), SchemeKind::GpuSync, &w, 40);
        let a2 = run(algorithm2_programs(&w, n, 40), SchemeKind::GpuSync, &w, 40);
        // Algorithm 2's single sync beats Algorithm 1's per-call syncs.
        assert!(a2 < a1, "app-level {a2} should beat MPI-explicit {a1}");
    }

    #[test]
    fn implicit_with_fusion_beats_both_explicit_approaches() {
        let w = specfem3d_cm(600);
        let n = 8;
        let a1 = run(algorithm1_programs(&w, n, 41), SchemeKind::GpuSync, &w, 41);
        let a2 = run(algorithm2_programs(&w, n, 41), SchemeKind::GpuSync, &w, 41);
        let ((p0, _), (p1, b1)) = crate::bulk::bulk_exchange_programs(&w, n, 1, 41);
        let a3 = {
            let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
                .data_mode(DataMode::Full)
                .add_rank(0, p0)
                .add_rank(1, p1)
                .build();
            let report = cluster.run();
            let _ = b1;
            report.lap_makespan(0)
        };
        assert!(a3 < a2, "implicit+fusion {a3} should beat app-level {a2}");
        assert!(
            a3 < a1,
            "implicit+fusion {a3} should beat MPI-explicit {a1}"
        );
    }
}
