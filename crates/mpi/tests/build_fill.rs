//! A `DataMode::Full` build writes every declared buffer's initial bytes,
//! on as many threads as the host has cores (the build's fill phase): each
//! `BufInit::Random` buffer holds `Pcg32::new(seed, rank)`'s first bytes
//! and each `BufInit::Zero` buffer holds zeros, whichever thread filled
//! it. The split itself is varied in the `cluster::fill` unit tests.

use fusedpack_gpu::DataMode;
use fusedpack_mpi::{BufId, BufInit, Cluster, ClusterBuilder, Program, RankId, SchemeKind};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_sim::Pcg32;
use fusedpack_workloads::bulk::bulk_exchange_programs;
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use std::sync::Arc;

/// Every buffer of every rank holds what its declaration asks for.
fn assert_declared_bytes(cluster: &Cluster, programs: &[Program]) {
    for (r, program) in programs.iter().enumerate() {
        for (b, decl) in program.buffers.iter().enumerate() {
            let mut want = vec![0u8; decl.len as usize];
            if let BufInit::Random(seed) = decl.init {
                Pcg32::new(seed, r as u64).fill_bytes(&mut want);
            }
            assert!(
                cluster.rank_bytes(RankId(r as u32), BufId(b)) == want,
                "rank {r} buffer {b} ({decl:?}) does not hold its declared bytes"
            );
        }
    }
}

#[test]
fn a_full_halo_build_writes_every_declared_byte() {
    // 64 ranks on 16 Lassen-like nodes, 768 buffers of 18.4 KB: 14 MB,
    // enough for a fill thread per core.
    let grid = HaloGrid::new_3d(4, 4, 4);
    let platform = Platform::lassen();
    let gpus_per_node = platform.gpus_per_node;
    let nodes = grid.ranks().div_ceil(gpus_per_node);
    let programs: Vec<Program> = halo_programs(&grid, &specfem3d_cm(512), 1, 1, 7)
        .into_iter()
        .map(|(program, _)| program)
        .collect();
    let mut builder = ClusterBuilder::new(platform, SchemeKind::fusion_default())
        .data_mode(DataMode::Full)
        .topology(Arc::new(Hierarchy::lassen_like(nodes)));
    for (rank, program) in programs.iter().enumerate() {
        builder = builder.add_rank(rank as u32 / gpus_per_node, program.clone());
    }
    let mut cluster = builder.build();
    assert_declared_bytes(&cluster, &programs);
    assert_eq!(cluster.run().lap_count(), 1);
}

#[test]
fn a_full_pair_build_writes_every_declared_byte() {
    // 64 buffers of 18.4 KB each way per rank: 4.7 MB, a rank per core.
    let ((p0, _), (p1, _)) = bulk_exchange_programs(&specfem3d_cm(512), 64, 2, 7);
    let programs = [p0, p1];
    assert!(programs
        .iter()
        .all(|p| p.buffers.iter().any(|decl| decl.init == BufInit::Zero)));
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .data_mode(DataMode::Full)
        .add_rank(0, programs[0].clone())
        .add_rank(1, programs[1].clone())
        .build();
    assert_declared_bytes(&cluster, &programs);
    assert_eq!(cluster.run().lap_count(), 2);
}
