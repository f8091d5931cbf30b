//! Halo-exchange × topology integration: telemetry hop spans must
//! reconcile **exactly** with the network's per-hop congestion counters,
//! and topology-attached runs must stay deterministic.

use fusedpack_gpu::DataMode;
use fusedpack_mpi::{ClusterBuilder, SchemeKind};
use fusedpack_net::{Hierarchy, Platform, TopologyHandle};
use fusedpack_telemetry::{Payload, Telemetry};
use fusedpack_workloads::halo::{halo_programs, HaloGrid};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_exchange, ExchangeConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn lassen_topo(nodes: u32) -> TopologyHandle {
    Arc::new(Hierarchy::lassen_like(nodes))
}

fn abci_topo(nodes: u32) -> TopologyHandle {
    Arc::new(Hierarchy::abci_like(nodes))
}

fn small_cfg(topo: Option<TopologyHandle>) -> ExchangeConfig {
    let mut cfg = ExchangeConfig::new(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        specfem3d_cm(400),
        2,
    )
    .with_grid(HaloGrid::new_3d(2, 2, 2));
    cfg.topology = topo;
    cfg
}

/// Sum the bytes of every `HopTransfer` span per hop index.
fn hop_bytes_from_telemetry(tele: &Telemetry) -> HashMap<u32, u64> {
    let mut sums: HashMap<u32, u64> = HashMap::new();
    for e in &tele.snapshot().events {
        if let Payload::HopTransfer { hop, bytes } = e.payload {
            *sums.entry(hop).or_default() += bytes;
        }
    }
    sums
}

/// Per-hop telemetry byte sums equal the network's per-hop congestion
/// counters, hop by hop — nothing double-counted, nothing dropped.
#[test]
fn hop_spans_reconcile_with_congestion_counters() {
    for topo in [lassen_topo(2), abci_topo(2)] {
        let name = topo.name();
        let tele = Telemetry::enabled();
        let grid = HaloGrid::new_3d(2, 2, 2);
        let workload = specfem3d_cm(400);
        let programs = halo_programs(&grid, &workload, 2, 2, 7);
        let mut builder = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
            .data_mode(DataMode::ModelOnly)
            .topology(topo)
            .telemetry(tele.clone());
        for (rank, (program, _)) in programs.into_iter().enumerate() {
            builder = builder.add_rank(rank as u32 / 4, program);
        }
        let mut cluster = builder.build();
        cluster.run();

        let stats = cluster.topo_hop_stats().expect("topology attached");
        let from_tele = hop_bytes_from_telemetry(&tele);
        assert!(
            from_tele.values().sum::<u64>() > 0,
            "{name}: halo traffic crossed hops"
        );
        for (i, stat) in stats.iter().enumerate() {
            assert_eq!(
                stat.bytes,
                from_tele.get(&(i as u32)).copied().unwrap_or(0),
                "{name}: hop {i} ({}) diverges from telemetry",
                stat.kind
            );
        }
    }
}

/// The aggregate `hop_bytes` the halo driver reports is the same total
/// the telemetry spans carry.
#[test]
fn driver_hop_totals_match_telemetry() {
    let tele = Telemetry::enabled();
    let mut cfg = small_cfg(Some(lassen_topo(2)));
    cfg.telemetry = Some(tele.clone());
    let out = run_exchange(&cfg);
    let tele_total: u64 = hop_bytes_from_telemetry(&tele).values().sum();
    assert!(out.hop_bytes > 0);
    assert_eq!(out.hop_bytes, tele_total);
}

/// Topology-attached halo runs are bit-deterministic: identical latency,
/// event count, and hop accounting on every run.
#[test]
fn topology_runs_are_deterministic() {
    let a = run_exchange(&small_cfg(Some(abci_topo(2))));
    let b = run_exchange(&small_cfg(Some(abci_topo(2))));
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.report.events_processed, b.report.events_processed);
    assert_eq!(a.hop_bytes, b.hop_bytes);
    assert_eq!(a.busiest_hop_busy, b.busiest_hop_busy);
    assert_eq!(a.lap_latencies, b.lap_latencies);
}

/// The two machine models genuinely differ: same workload, same grid,
/// different hop accounting and timing.
#[test]
fn machines_shape_the_same_exchange_differently() {
    let lassen = run_exchange(&small_cfg(Some(lassen_topo(2))));
    let abci = run_exchange(&small_cfg(Some(abci_topo(2))));
    // ABCI's inter-node routes bounce through the host complex, so the
    // same traffic crosses more hops and the exchange runs slower.
    assert!(abci.hop_bytes > lassen.hop_bytes);
    assert!(abci.latency > lassen.latency);
}

/// No topology attached: the cluster runs on the flat fabric, whose
/// routes are one hop long, so it accounts the traffic on its hops and
/// crosses fewer of them than either machine model.
#[test]
fn flat_runs_account_one_hop_per_transfer() {
    let flat = run_exchange(&small_cfg(None));
    let lassen = run_exchange(&small_cfg(Some(lassen_topo(2))));
    assert!(flat.hop_bytes > 0);
    assert!(flat.hop_bytes < lassen.hop_bytes);
    assert!(flat.latency.as_nanos() > 0);
}
