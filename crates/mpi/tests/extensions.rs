//! Tests for the framework extensions: DirectIPC fusion, ring-exhaustion
//! fallback, and degraded-system operation (no GDRCopy).

use fusedpack_core::FusionConfig;
use fusedpack_datatype::{CompiledLayout, TypeBuilder, TypeDesc};
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{
    AppOp, BufId, ClusterBuilder, Program, RankId, RunReport, SchemeKind, TypeSlot,
};
use fusedpack_net::Platform;
use fusedpack_sim::Pcg32;
use fusedpack_telemetry::Telemetry;
use std::sync::Arc;

fn sparse_type(points: u64) -> Arc<TypeDesc> {
    let disps: Vec<u64> = (0..points).map(|i| i * 3).collect();
    TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float())
}

/// Two ranks exchanging `n` messages each way; returns (cluster report,
/// recv buffer ids of rank 1, buffer length).
fn run_pair(
    scheme: SchemeKind,
    desc: &Arc<TypeDesc>,
    n: usize,
    same_node: bool,
    gdrcopy: bool,
) -> (RunReport, Vec<Vec<u8>>, u64) {
    let layout = CompiledLayout::of(desc);
    let count = 2u64;
    let len = layout.footprint(count).max(1);

    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let sbufs: Vec<BufId> = (0..n)
            .map(|i| p.buffer(len, BufInit::Random(seed + i as u64)))
            .collect();
        let rbufs: Vec<BufId> = (0..n).map(|_| p.buffer(len, BufInit::Zero)).collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        p.push(AppOp::ResetTimer);
        for (i, &b) in rbufs.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf: b,
                ty: TypeSlot(0),
                count,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &b) in sbufs.iter().enumerate() {
            p.push(AppOp::Isend {
                buf: b,
                ty: TypeSlot(0),
                count,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        p.push(AppOp::RecordLap);
        let _ = sbufs;
        (p, rbufs)
    };

    let (p0, _) = build(900, RankId(1));
    let (p1, rbufs1) = build(1900, RankId(0));
    let mut builder = ClusterBuilder::new(Platform::lassen(), scheme)
        .add_rank(0, p0)
        .add_rank(if same_node { 0 } else { 1 }, p1);
    if !gdrcopy {
        builder = builder.without_gdrcopy();
    }
    let mut cluster = builder.build();
    let report = cluster.run();
    let received: Vec<Vec<u8>> = rbufs1
        .iter()
        .map(|&b| cluster.rank_buffer(RankId(1), b))
        .collect();
    (report, received, len)
}

fn verify_received(desc: &Arc<TypeDesc>, received: &[Vec<u8>], len: u64) {
    let layout = CompiledLayout::of(desc);
    for (i, got) in received.iter().enumerate() {
        let mut want = vec![0u8; len as usize];
        Pcg32::new(900 + i as u64, 0).fill_bytes(&mut want);
        for (addr, seg_len) in layout.absolute_segments(0, 2) {
            let (a, b) = (addr as usize, (addr + seg_len) as usize);
            assert_eq!(&got[a..b], &want[a..b], "msg {i} segment {addr}");
        }
    }
}

#[test]
fn direct_ipc_moves_correct_bytes_intra_node() {
    let desc = sparse_type(300);
    let (report, received, len) = run_pair(SchemeKind::fusion_default(), &desc, 6, true, true);
    verify_received(&desc, &received, len);
    // DirectIPC requests were actually fused (the scheduler saw them).
    let stats = report.sched_stats[1].expect("fusion stats");
    assert!(stats.requests_fused >= 6, "stats: {stats:?}");
}

#[test]
fn direct_ipc_beats_staged_path_intra_node() {
    let desc = sparse_type(1500);
    let (with_ipc, _, _) = run_pair(SchemeKind::fusion_default(), &desc, 8, true, true);
    let cfg = FusionConfig {
        enable_direct_ipc: false,
        ..FusionConfig::default()
    };
    let (without_ipc, received, len) = run_pair(SchemeKind::Fusion(cfg), &desc, 8, true, true);
    verify_received(&desc, &received, len); // staged intra-node path is also correct
    assert!(
        with_ipc.lap_makespan(0) < without_ipc.lap_makespan(0),
        "DirectIPC {:?} should beat pack-transfer-unpack {:?}",
        with_ipc.lap_makespan(0),
        without_ipc.lap_makespan(0)
    );
}

#[test]
fn direct_ipc_skips_pack_kernels_entirely() {
    let desc = sparse_type(500);
    let (report, _, _) = run_pair(SchemeKind::fusion_default(), &desc, 8, true, true);
    // The senders launch nothing: all kernels are the receivers' fused
    // DirectIPC loads.
    let total: u64 = report.kernels_launched.iter().sum();
    assert!(
        total <= 4,
        "expected only a few fused DirectIPC launches, got {total}"
    );
}

#[test]
fn ring_exhaustion_backpressure_preserves_correctness() {
    // A ring with 2 slots cannot hold 8 outstanding packs: the scheduler
    // rejects (the paper's negative-UID case) and the runtime runs its
    // backpressure ladder — forced RingPressure flush, FIFO requeue as
    // retirements free slots — instead of panicking or losing messages.
    // Correctness must be unaffected.
    let cfg = FusionConfig {
        ring_capacity: 2,
        max_fused: 2,
        ..FusionConfig::default()
    };
    let desc = sparse_type(400);
    let (report, received, len) = run_pair(SchemeKind::Fusion(cfg), &desc, 8, false, true);
    verify_received(&desc, &received, len);
    let stats = report.sched_stats[0].expect("fusion stats");
    assert!(stats.rejected > 0, "the tiny ring must reject: {stats:?}");
    // The ladder parked at least one operation and re-enqueued it later.
    assert!(
        report.fault_summary.degraded > 0,
        "backpressure requeues are counted as degradations: {:?}",
        report.fault_summary
    );
}

#[test]
fn hybrid_without_gdrcopy_still_correct_but_slower_on_dense() {
    // Dense small layout where the CPU path would normally win on Lassen.
    let desc = TypeBuilder::vector(16, 64, 96, TypeBuilder::double());
    let (with_gdr, _, _) = run_pair(SchemeKind::CpuGpuHybrid, &desc, 8, false, true);
    let (without_gdr, received, len) = run_pair(SchemeKind::CpuGpuHybrid, &desc, 8, false, false);
    verify_received(&desc, &received, len);
    assert!(
        with_gdr.lap_makespan(0) < without_gdr.lap_makespan(0),
        "losing GDRCopy must hurt the hybrid scheme on dense/small"
    );
}

#[test]
fn fusion_without_direct_ipc_config_roundtrip() {
    let cfg = FusionConfig {
        enable_direct_ipc: false,
        ..FusionConfig::default()
    };
    let scheme = SchemeKind::Fusion(cfg);
    let c = scheme
        .fusion_config()
        .expect("fusion scheme carries its config");
    assert!(!c.enable_direct_ipc);
}

#[test]
fn trace_records_fusion_and_wire_events() {
    let desc = sparse_type(200);
    let layout = CompiledLayout::of(&desc);
    let len = layout.footprint(1).max(1);
    let build = |peer: RankId| {
        let mut p = Program::new();
        let s = p.buffer(len, BufInit::Random(5));
        let r = p.buffer(len, BufInit::Zero);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        p.push(AppOp::Irecv {
            buf: r,
            ty: TypeSlot(0),
            count: 1,
            src: peer,
            tag: 0,
        });
        p.push(AppOp::Isend {
            buf: s,
            ty: TypeSlot(0),
            count: 1,
            dst: peer,
            tag: 0,
        });
        p.push(AppOp::Waitall);
        p
    };
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .telemetry(Telemetry::enabled())
        .add_rank(0, build(RankId(1)))
        .add_rank(1, build(RankId(0)))
        .build();
    cluster.run();
    let mut events = cluster.telemetry().snapshot().events;
    assert!(!events.is_empty());
    let recorded = |category: &str| events.iter().any(|e| e.payload.category() == category);
    assert!(recorded("sched"), "fused launches traced");
    assert!(recorded("net"), "deliveries traced");
    // Start times are monotone once sorted.
    events.sort_by_key(|e| (e.start, e.rank));
    assert!(events.windows(2).all(|w| w[0].start <= w[1].start));
}

#[test]
fn untraced_cluster_records_nothing() {
    let desc = sparse_type(50);
    let (report, _, _) = run_pair(SchemeKind::fusion_default(), &desc, 2, false, true);
    let _ = report;
    // Build directly to inspect the trace.
    let layout = CompiledLayout::of(&desc);
    let len = layout.footprint(2).max(1);
    let mut p = Program::new();
    let _ = p.buffer(len, BufInit::Zero);
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .add_rank(0, p)
        .build();
    cluster.run();
    assert!(cluster.telemetry().snapshot().events.is_empty());
}

#[test]
fn explicit_pack_unpack_roundtrip_on_one_rank() {
    // Algorithm 1's primitives in isolation: MPI_Pack a non-contiguous
    // buffer into a packed one and MPI_Unpack it into a third. The packed
    // buffer must be host `pack` of the first, and the third must match
    // the first on every layout segment and stay zero in its gaps.
    let desc = sparse_type(120);
    let layout = CompiledLayout::of(&desc);
    let count = 2u64;
    let len = layout.footprint(count).max(1);
    let packed_len = layout.total_bytes(count).max(1);

    let mut p = Program::new();
    let src = p.buffer(len, BufInit::Random(77));
    let packed = p.buffer(packed_len, BufInit::Zero);
    let out = p.buffer(len, BufInit::Zero);
    p.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: desc.clone(),
    });
    p.push(AppOp::Pack {
        src,
        ty: TypeSlot(0),
        count,
        dst: packed,
    });
    p.push(AppOp::Unpack {
        src: packed,
        ty: TypeSlot(0),
        count,
        dst: out,
    });

    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
        .add_rank(0, p)
        .build();
    cluster.run();

    let a = cluster.rank_buffer(RankId(0), src);
    let b = cluster.rank_buffer(RankId(0), out);
    let want = fusedpack_datatype::pack::pack(&a, &layout, count);
    assert_eq!(
        cluster.rank_buffer(RankId(0), packed)[..want.len()],
        want[..],
        "the packed buffer is host pack of the source"
    );
    let mut in_segment = vec![false; b.len()];
    for (addr, seg_len) in layout.absolute_segments(0, count) {
        let (lo, hi) = (addr as usize, (addr + seg_len) as usize);
        assert_eq!(&a[lo..hi], &b[lo..hi], "segment {addr}");
        in_segment[lo..hi].fill(true);
    }
    let mut gaps = b
        .iter()
        .zip(&in_segment)
        .filter(|(_, &seg)| !seg)
        .peekable();
    assert!(gaps.peek().is_some(), "the layout has gaps");
    assert!(gaps.all(|(&byte, _)| byte == 0), "gap bytes stay zero");
}

#[test]
fn device_sync_without_kernels_costs_only_the_call() {
    let mut p = Program::new();
    let _ = p.buffer(64, BufInit::Zero);
    p.push(AppOp::ResetTimer);
    p.push(AppOp::DeviceSync);
    p.push(AppOp::RecordLap);
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
        .add_rank(0, p)
        .build();
    let report = cluster.run();
    let lap = report.lap_makespan(0);
    let call = Platform::lassen().arch.stream_sync_call;
    assert_eq!(lap, call, "no kernels pending: only the API call cost");
}

/// Run a two-rank exchange under a specific rendezvous protocol.
fn run_pair_rndv(
    rndv: fusedpack_mpi::RndvProtocol,
    scheme: SchemeKind,
    desc: &Arc<TypeDesc>,
    n: usize,
) -> (RunReport, Vec<Vec<u8>>, u64) {
    let layout = CompiledLayout::of(desc);
    let count = 2u64;
    let len = layout.footprint(count).max(1);
    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let sbufs: Vec<BufId> = (0..n)
            .map(|i| p.buffer(len, BufInit::Random(seed + i as u64)))
            .collect();
        let rbufs: Vec<BufId> = (0..n).map(|_| p.buffer(len, BufInit::Zero)).collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        p.push(AppOp::ResetTimer);
        for (i, &b) in rbufs.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf: b,
                ty: TypeSlot(0),
                count,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &b) in sbufs.iter().enumerate() {
            p.push(AppOp::Isend {
                buf: b,
                ty: TypeSlot(0),
                count,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        p.push(AppOp::RecordLap);
        let _ = sbufs;
        (p, rbufs)
    };
    let (p0, _) = build(900, RankId(1));
    let (p1, rbufs1) = build(1900, RankId(0));
    let mut cluster = ClusterBuilder::new(Platform::lassen(), scheme)
        .rendezvous(rndv)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let report = cluster.run();
    let received = rbufs1
        .iter()
        .map(|&b| cluster.rank_buffer(RankId(1), b))
        .collect();
    (report, received, len)
}

#[test]
fn rget_moves_correct_bytes_under_every_scheme() {
    use fusedpack_mpi::RndvProtocol;
    let desc = sparse_type(700); // well past the eager limit
    for scheme in [
        SchemeKind::fusion_default(),
        SchemeKind::GpuSync,
        SchemeKind::GpuAsync,
        SchemeKind::CpuGpuHybrid,
    ] {
        let (_, received, len) = run_pair_rndv(RndvProtocol::Rget, scheme, &desc, 6);
        verify_received(&desc, &received, len);
    }
}

#[test]
fn rput_overlap_beats_rget_for_fusion() {
    // §IV-B1: RPUT lets the RTS/CTS handshake run during packing; RGET
    // serializes handshake after the pack. With bulk fused packing the
    // overlap should make RPUT at least as fast.
    use fusedpack_mpi::RndvProtocol;
    let desc = sparse_type(2500);
    let (rput, _, _) = run_pair_rndv(RndvProtocol::Rput, SchemeKind::fusion_default(), &desc, 16);
    let (rget, _, _) = run_pair_rndv(RndvProtocol::Rget, SchemeKind::fusion_default(), &desc, 16);
    assert!(
        rput.lap_makespan(0) <= rget.lap_makespan(0),
        "RPUT {:?} should not lose to RGET {:?}",
        rput.lap_makespan(0),
        rget.lap_makespan(0)
    );
}

#[test]
fn rget_senders_complete_via_fin() {
    use fusedpack_mpi::RndvProtocol;
    let desc = sparse_type(700);
    let (report, _, _) = run_pair_rndv(RndvProtocol::Rget, SchemeKind::GpuSync, &desc, 4);
    // The run terminating at all proves Fin-based completion worked; also
    // check it recorded a lap on both ranks.
    assert_eq!(report.lap_count(), 1);
}
