//! Cross-crate integration tests at the facade level: multi-rank halo
//! exchanges with mixed intra-/inter-node paths, full data verification
//! against the host reference pack/unpack.

use fusedpack::prelude::*;
use fusedpack::workloads::{milc::milc_su3_zdown, nas::nas_mg_z, specfem::specfem3d_oc};
use fusedpack_mpi::NaiveFlavor;
use fusedpack_sim::Pcg32;

/// Ring halo exchange over `world` ranks spread over 2 nodes: each rank
/// sends one message to its right neighbor and receives one from its left.
fn ring_programs(world: u32, workload: &Workload) -> Vec<Program> {
    let len = workload.footprint().max(1);
    (0..world)
        .map(|rank| {
            let left = RankId((rank + world - 1) % world);
            let right = RankId((rank + 1) % world);
            let mut p = Program::new();
            let sbuf = p.buffer(len, BufInit::Random(7_000 + rank as u64));
            let rbuf = p.buffer(len, BufInit::Zero);
            p.push(AppOp::Commit {
                slot: TypeSlot(0),
                desc: workload.desc.clone(),
            });
            p.push(AppOp::Irecv {
                buf: rbuf,
                ty: TypeSlot(0),
                count: workload.count,
                src: left,
                tag: 9,
            });
            p.push(AppOp::Isend {
                buf: sbuf,
                ty: TypeSlot(0),
                count: workload.count,
                dst: right,
                tag: 9,
            });
            p.push(AppOp::Waitall);
            p
        })
        .collect()
}

fn expected_send_buffer(rank: u32, len: u64) -> Vec<u8> {
    let mut rng = Pcg32::new(7_000 + rank as u64, rank as u64);
    let mut bytes = vec![0u8; len as usize];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn verify_ring(platform: Platform, scheme: SchemeKind, workload: &Workload) {
    let world = 4u32;
    let layout = CompiledLayout::of(&workload.desc);
    let len = workload.footprint().max(1);
    let mut builder = ClusterBuilder::new(platform, scheme);
    for (rank, program) in ring_programs(world, workload).into_iter().enumerate() {
        builder = builder.add_rank(rank as u32 / 2, program);
    }
    let mut cluster = builder.build();
    cluster.run();

    for rank in 0..world {
        let left = (rank + world - 1) % world;
        let got = cluster.rank_buffer(RankId(rank), BufId(1));
        let want = expected_send_buffer(left, len);
        for (addr, seg_len) in layout.absolute_segments(0, workload.count) {
            let (a, b) = (addr as usize, (addr + seg_len) as usize);
            assert_eq!(
                &got[a..b],
                &want[a..b],
                "rank {rank}: bytes from rank {left} corrupted at {addr}"
            );
        }
    }
}

#[test]
fn four_rank_ring_sparse_every_scheme() {
    for scheme in [
        SchemeKind::fusion_default(),
        SchemeKind::GpuSync,
        SchemeKind::GpuAsync,
        SchemeKind::CpuGpuHybrid,
        SchemeKind::Adaptive,
        SchemeKind::NaiveCopy(NaiveFlavor::OpenMpi),
    ] {
        verify_ring(Platform::lassen(), scheme, &specfem3d_oc(800));
    }
}

#[test]
fn four_rank_ring_dense_every_scheme_abci() {
    for scheme in [
        SchemeKind::fusion_default(),
        SchemeKind::GpuSync,
        SchemeKind::CpuGpuHybrid,
    ] {
        verify_ring(Platform::abci(), scheme, &milc_su3_zdown(6));
    }
}

#[test]
fn fine_grained_z_face_roundtrips() {
    // The pathological NAS z-face: n^2 single-double blocks.
    verify_ring(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        &nas_mg_z(24),
    );
    verify_ring(Platform::lassen(), SchemeKind::GpuSync, &nas_mg_z(24));
}

#[test]
fn intra_node_neighbors_are_faster_than_inter_node() {
    // Ranks 0-1 share a node (NVLink); ranks 0-3 of a 4-ring cross nodes.
    let w = nas_mg_z(32);
    let len = w.footprint().max(1);
    let pair_latency = |same_node: bool| {
        let mut p0 = Program::new();
        let s = p0.buffer(len, BufInit::Random(1));
        let _r = p0.buffer(len, BufInit::Zero);
        p0.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: w.desc.clone(),
        });
        p0.push(AppOp::ResetTimer);
        p0.push(AppOp::Isend {
            buf: s,
            ty: TypeSlot(0),
            count: w.count,
            dst: RankId(1),
            tag: 0,
        });
        p0.push(AppOp::Waitall);
        p0.push(AppOp::RecordLap);

        let mut p1 = Program::new();
        let _s = p1.buffer(len, BufInit::Random(2));
        let r = p1.buffer(len, BufInit::Zero);
        p1.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: w.desc.clone(),
        });
        p1.push(AppOp::Irecv {
            buf: r,
            ty: TypeSlot(0),
            count: w.count,
            src: RankId(0),
            tag: 0,
        });
        p1.push(AppOp::Waitall);

        let node1 = if same_node { 0 } else { 1 };
        let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
            .add_rank(0, p0)
            .add_rank(node1, p1)
            .build();
        let report = cluster.run();
        report.end_time
    };
    let intra = pair_latency(true);
    let inter = pair_latency(false);
    assert!(
        intra < inter,
        "NVLink neighbor ({intra:?}) should beat IB neighbor ({inter:?})"
    );
}

#[test]
fn facade_prelude_compiles_and_runs() {
    let workload = fusedpack::workloads::specfem::specfem3d_cm(500);
    let out = run_exchange(&ExchangeConfig::new(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        workload,
        4,
    ));
    assert!(out.latency > Duration::ZERO);
}
