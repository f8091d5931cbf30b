//! Fault-injection (chaos) tests: under any seeded fault plan every
//! exchange must complete with the same bytes as a fault-free run — never
//! panic, never deadlock — and a plan that never fires must leave the run
//! bit-identical to one with no plan at all.

use fusedpack_core::FusionConfig;
use fusedpack_datatype::{CompiledLayout, TypeBuilder, TypeDesc};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{
    AppOp, BufId, ClusterBuilder, Program, RankId, RunReport, SchemeKind, TypeSlot,
};
use fusedpack_net::{Hierarchy, Platform, TopologyHandle};
use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec, Pcg32};
use std::sync::Arc;

fn sparse_type(points: u64) -> Arc<TypeDesc> {
    let disps: Vec<u64> = (0..points).map(|i| i * 3).collect();
    TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float())
}

/// Two ranks exchanging `n` rendezvous-sized messages each way, optionally
/// under a fault plan. Returns the report and both ranks' receive buffers.
fn run_chaos_pair(
    scheme: SchemeKind,
    desc: &Arc<TypeDesc>,
    n: usize,
    same_node: bool,
    plan: Option<FaultPlan>,
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
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
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

/// Four ranks, one per node, exchanging `n` messages around a ring over a
/// routed topology — the smallest shape where hop faults, reroutes, and
/// multi-shard execution (timing only) all engage at once. Returns the
/// report and every rank's receive buffers (empty when timing only).
fn run_chaos_ring(
    desc: &Arc<TypeDesc>,
    n: usize,
    topo: TopologyHandle,
    plan: Option<FaultPlan>,
    (mode, shards): (DataMode, u32),
) -> (RunReport, Vec<Vec<Vec<u8>>>) {
    const RANKS: u32 = 4;
    let layout = CompiledLayout::of(desc);
    let count = 2u64;
    let len = layout.footprint(count).max(1);

    let mut builder = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .data_mode(mode)
        .topology(topo)
        .shards(shards);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let mut rbufs = Vec::new();
    for r in 0..RANKS {
        let next = (r + 1) % RANKS;
        let prev = (r + RANKS - 1) % RANKS;
        let mut p = Program::new();
        let sbufs: Vec<BufId> = (0..n)
            .map(|i| p.buffer(len, BufInit::Random(100 * r as u64 + i as u64)))
            .collect();
        let rb: Vec<BufId> = (0..n).map(|_| p.buffer(len, BufInit::Zero)).collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        p.push(AppOp::ResetTimer);
        for (i, &b) in rb.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf: b,
                ty: TypeSlot(0),
                count,
                src: RankId(prev),
                tag: i as u32,
            });
        }
        for (i, &b) in sbufs.iter().enumerate() {
            p.push(AppOp::Isend {
                buf: b,
                ty: TypeSlot(0),
                count,
                dst: RankId(next),
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        p.push(AppOp::RecordLap);
        rbufs.push(rb);
        builder = builder.add_rank(r, p);
    }
    let mut cluster = builder.build();
    let report = cluster.run();
    let received: Vec<Vec<Vec<u8>>> = rbufs
        .iter()
        .enumerate()
        .map(|(r, bufs)| {
            bufs.iter()
                .map(|&b| cluster.rank_buffer(RankId(r as u32), b))
                .collect()
        })
        .collect();
    (report, received)
}

#[test]
fn all_zero_plan_is_bit_identical_to_no_plan() {
    // The zero-cost guarantee: an armed plan whose every site has
    // probability zero must not perturb a single timestamp or byte.
    let desc = sparse_type(700);
    let (base, base_rx, _) = run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, None);
    let (zeroed, zeroed_rx, len) = run_chaos_pair(
        SchemeKind::fusion_default(),
        &desc,
        6,
        false,
        Some(FaultPlan::new(42)),
    );
    assert_eq!(base.laps, zeroed.laps, "lap times must be bit-identical");
    assert_eq!(base.end_time, zeroed.end_time);
    assert_eq!(base.events_processed, zeroed.events_processed);
    assert_eq!(base_rx, zeroed_rx, "received bytes must be bit-identical");
    assert!(
        zeroed.fault_summary.is_clean(),
        "{:?}",
        zeroed.fault_summary
    );
    verify_received(&desc, &zeroed_rx, len);
}

#[test]
fn every_fault_site_preserves_transferred_bytes() {
    // One site at a time, at a high rate: the exchange must complete with
    // exactly the fault-free bytes, and the site must actually fire.
    // Rendezvous-sized (12 KB packed > the 8 KB eager limit) so the
    // NIC-completion sites on the RPUT path are reachable.
    let desc = sparse_type(1500);
    for &site in &FaultSite::ALL {
        // Fabric sites are not armed on the flat fabric (it has no path
        // diversity to reroute over). They are exercised by the fabric
        // tests below and the topology chaos grid.
        if site.is_fabric() {
            continue;
        }
        // DirectIPC mapping only exists intra-node; everything else is
        // exercised on the inter-node wire.
        let same_node = site == FaultSite::IpcMapFail;
        let plan = FaultPlan::new(7).with(site, FaultSpec::with_probability(0.5));
        let (report, received, len) = run_chaos_pair(
            SchemeKind::fusion_default(),
            &desc,
            6,
            same_node,
            Some(plan),
        );
        assert!(
            report.fault_summary.injected > 0,
            "{site}: plan never fired — the hook is dead ({:?})",
            report.fault_summary
        );
        verify_received(&desc, &received, len);
        assert_eq!(report.lap_count(), 1, "{site}: both ranks recorded a lap");
    }
}

#[test]
fn chaos_is_deterministic_for_a_fixed_seed() {
    let desc = sparse_type(700);
    let plan = || FaultPlan::uniform(1234, 0.08);
    let (a, a_rx, _) = run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, Some(plan()));
    let (b, b_rx, _) = run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, Some(plan()));
    assert_eq!(a.laps, b.laps);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.fault_summary, b.fault_summary);
    assert_eq!(a_rx, b_rx);
}

#[test]
fn uniform_chaos_across_schemes_never_breaks_an_exchange() {
    let desc = sparse_type(700);
    for scheme in [SchemeKind::fusion_default(), SchemeKind::fusion_adaptive()] {
        for same_node in [false, true] {
            let plan = FaultPlan::uniform(99, 0.1);
            let (report, received, len) =
                run_chaos_pair(scheme.clone(), &desc, 6, same_node, Some(plan));
            assert!(report.fault_summary.injected > 0);
            verify_received(&desc, &received, len);
        }
    }
}

#[test]
fn dropped_wire_payloads_are_retried_and_inflate_latency() {
    let desc = sparse_type(700);
    let (clean, _, _) = run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, None);
    let plan = FaultPlan::new(21).with(FaultSite::LinkDrop, FaultSpec::with_probability(0.4));
    let (faulty, received, len) =
        run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, Some(plan));
    verify_received(&desc, &received, len);
    assert!(
        faulty.fault_summary.retried > 0,
        "{:?}",
        faulty.fault_summary
    );
    assert!(
        faulty.final_lap() > clean.final_lap(),
        "retransmissions must cost time: {:?} vs {:?}",
        faulty.final_lap(),
        clean.final_lap()
    );
}

#[test]
fn duplicate_nic_completions_are_absorbed() {
    // Rendezvous-sized: duplicate CQEs only exist on the RPUT path.
    let desc = sparse_type(1500);
    let plan = FaultPlan::new(5).with(
        FaultSite::NicDupCompletion,
        FaultSpec::with_probability(1.0),
    );
    let (report, received, len) =
        run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, Some(plan));
    verify_received(&desc, &received, len);
    assert!(report.fault_summary.injected > 0);
    assert!(
        report.fault_summary.spurious > 0,
        "the duplicate CQE must reach the guard: {:?}",
        report.fault_summary
    );
}

#[test]
fn failed_cooperative_launches_degrade_to_serial_kernels() {
    let desc = sparse_type(700);
    let plan =
        FaultPlan::new(11).with(FaultSite::FusedLaunchFail, FaultSpec::with_probability(1.0));
    let (report, received, len) =
        run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, false, Some(plan));
    verify_received(&desc, &received, len);
    assert!(
        report.fault_summary.degraded > 0,
        "{:?}",
        report.fault_summary
    );
    let stats = report.sched_stats[0].expect("fusion stats");
    assert!(
        stats.degraded_flushes > 0,
        "scheduler must record the degraded flushes: {stats:?}"
    );
}

#[test]
fn injected_ring_exhaustion_stays_live_with_a_tiny_ring() {
    // Exhaustion injected on top of a 2-slot ring: the backpressure ladder
    // (forced flush + requeue + sync fallback when the ring is empty) must
    // keep every rank live. Across nodes the ladder carries packs and
    // unpacks; on one node, DirectIPC loads.
    let cfg = FusionConfig {
        ring_capacity: 2,
        max_fused: 2,
        ..FusionConfig::default()
    };
    assert!(cfg.enable_direct_ipc);
    let desc = sparse_type(400);
    for same_node in [false, true] {
        let plan =
            FaultPlan::new(3).with(FaultSite::RingExhausted, FaultSpec::with_probability(0.3));
        let (report, received, len) = run_chaos_pair(
            SchemeKind::Fusion(cfg.clone()),
            &desc,
            8,
            same_node,
            Some(plan),
        );
        verify_received(&desc, &received, len);
        assert!(report.fault_summary.injected > 0, "same_node={same_node}");
        assert!(report.fault_summary.degraded > 0, "same_node={same_node}");
        assert_eq!(report.lap_count(), 1, "same_node={same_node}");
    }
}

/// Asserts that two runs of one routed chaos ring report the same
/// virtual-time results and fault accounting.
fn assert_same_run(base: &RunReport, other: &RunReport, label: &str) {
    assert_eq!(base.laps, other.laps, "{label}");
    assert_eq!(base.end_time, other.end_time, "{label}");
    assert_eq!(base.events_processed, other.events_processed, "{label}");
    assert_eq!(base.fault_summary, other.fault_summary, "{label}");
    assert_eq!(base.fabric, other.fabric, "{label}");
}

#[test]
fn fabric_chaos_is_byte_identical_at_any_shard_count() {
    // A routed chaos run moves bytes, so it keeps one event queue and its
    // two copy lanes whatever shard count it asks for: its report and
    // received bytes are bit-identical at --shards 1, 2, and 4.
    let desc = sparse_type(700);
    let plan = || FaultPlan::uniform(4242, 0.08);
    let topo = || -> TopologyHandle { Arc::new(Hierarchy::lassen_like(4)) };
    let full = |shards| run_chaos_ring(&desc, 5, topo(), Some(plan()), (DataMode::Full, shards));
    let (base, base_rx) = full(1);
    assert!(base.fault_summary.injected > 0, "{:?}", base.fault_summary);
    for shards in [2u32, 4] {
        let (asked, rx) = full(shards);
        let label = format!("--shards {shards}");
        assert_eq!(asked.shard.shards, 1, "one queue: {label}");
        assert_eq!(asked.shard.barriers, 0, "{label}");
        let copy = asked.copy;
        assert!(
            copy.lanes.iter().all(|lane| lane.jobs() > 0),
            "{label}: {copy:?}"
        );
        assert_same_run(&base, &asked, &label);
        assert_eq!(base_rx, rx, "received bytes at {label}");
    }
}

#[test]
fn fabric_chaos_timing_only_is_identical_at_any_shard_count() {
    // The timing-only twin runs the sharded loop: with the per-rank/keyed
    // fault streams there is no armed-plan shard clamp, the barriers
    // replay every hop fault in single-queue order, and the report is
    // bit-identical to the byte-moving run's at --shards 1, 2, and 4.
    let desc = sparse_type(700);
    let plan = || FaultPlan::uniform(4242, 0.08);
    let topo = || -> TopologyHandle { Arc::new(Hierarchy::lassen_like(4)) };
    let run = |mode, shards| run_chaos_ring(&desc, 5, topo(), Some(plan()), (mode, shards)).0;
    let full = run(DataMode::Full, 1);
    for shards in [1u32, 2, 4] {
        let sharded = run(DataMode::ModelOnly, shards);
        let label = format!("timing only, --shards {shards}");
        assert_eq!(sharded.shard.shards, shards, "{label}");
        assert_eq!(sharded.shard.barriers > 0, shards > 1, "{label}");
        assert_same_run(&full, &sharded, &label);
    }
}

#[test]
fn hop_down_reroutes_around_dead_hops_and_preserves_bytes() {
    // Permanent hop failures must trigger ECMP re-resolution (and, on the
    // dual-rail lassen-like fabric, rail failover) while every receive
    // buffer still matches the fault-free baseline byte for byte.
    let desc = sparse_type(700);
    let topo = || -> TopologyHandle { Arc::new(Hierarchy::lassen_like(4)) };
    let (clean, clean_rx) = run_chaos_ring(&desc, 8, topo(), None, (DataMode::Full, 1));
    assert!(clean.fabric.injected() == 0 && clean.fabric.reroutes == 0);
    let plan = FaultPlan::new(17).with(FaultSite::HopDown, FaultSpec::with_probability(0.15));
    let (faulty, rx) = run_chaos_ring(&desc, 8, topo(), Some(plan), (DataMode::Full, 1));
    assert!(faulty.fabric.downs > 0, "{}", faulty.fabric);
    assert!(faulty.fabric.reroutes > 0, "{}", faulty.fabric);
    assert!(faulty.fabric.route_epoch > 0, "{}", faulty.fabric);
    assert_eq!(clean_rx, rx, "reroute must not corrupt a single byte");
}

#[test]
fn severed_fabric_forces_delivery_and_never_wedges() {
    // HopDown at probability 1.0 kills every hop a transfer touches; once
    // no surviving route exists the forced-delivery rung sends the bytes
    // over the pair's pre-fault route — degraded and counted, never wedged.
    let desc = sparse_type(700);
    let topo = || -> TopologyHandle { Arc::new(Hierarchy::lassen_like(4)) };
    let (clean, clean_rx) = run_chaos_ring(&desc, 6, topo(), None, (DataMode::Full, 1));
    let plan = FaultPlan::new(29).with(FaultSite::HopDown, FaultSpec::with_probability(1.0));
    let (faulty, rx) = run_chaos_ring(&desc, 6, topo(), Some(plan), (DataMode::Full, 1));
    assert!(faulty.fabric.downs > 0, "{}", faulty.fabric);
    assert!(faulty.fabric.disconnects > 0, "{}", faulty.fabric);
    // Each forced send counts once as a disconnect and once as a
    // degradation (HopDown is the only armed site).
    assert_eq!(
        faulty.fault_summary.degraded, faulty.fabric.disconnects,
        "forced deliveries are accounted as degradations: {:?}",
        faulty.fault_summary
    );
    assert_eq!(faulty.lap_count(), clean.lap_count(), "every rank finished");
    assert_eq!(clean_rx, rx, "forced delivery still lands the bytes");
}

#[test]
fn ipc_map_failure_degrades_to_staged_copy() {
    let desc = sparse_type(700);
    let plan = FaultPlan::new(13).with(FaultSite::IpcMapFail, FaultSpec::with_probability(1.0));
    let (report, received, len) =
        run_chaos_pair(SchemeKind::fusion_default(), &desc, 6, true, Some(plan));
    verify_received(&desc, &received, len);
    assert!(
        report.fault_summary.degraded > 0,
        "{:?}",
        report.fault_summary
    );
}
