//! Extension experiment: fused DirectIPC for intra-node transfers.
//!
//! The paper lists *DirectIPC* as the third operation kind its fused
//! kernels support (§IV-A1, following the zero-copy scheme of \[24\]) but
//! evaluates only inter-node transfers. This experiment measures what the
//! fused zero-copy path buys inside a node: two ranks on one Lassen node
//! exchanging bulk non-contiguous buffers over NVLink, with DirectIPC
//! fusion on vs. off (staged pack→NVLink→unpack) vs. the baselines.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{ratio, us, Table};
use fusedpack_core::FusionConfig;
use fusedpack_gpu::DataMode;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, ClusterBuilder, Program, RankId, SchemeKind, TypeSlot};
use fusedpack_net::Platform;
use fusedpack_sim::Duration;
use fusedpack_workloads::{specfem::specfem3d_cm, Workload};

/// Latency of an intra-node bulk exchange under `scheme`.
pub fn intra_node_latency(scheme: SchemeKind, workload: &Workload, n_msgs: usize) -> Duration {
    let len = workload.footprint().max(1);
    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let sbufs: Vec<_> = (0..n_msgs)
            .map(|i| p.buffer(len, BufInit::Random(seed + i as u64)))
            .collect();
        let rbufs: Vec<_> = (0..n_msgs).map(|_| p.buffer(len, BufInit::Zero)).collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: workload.desc.clone(),
        });
        for lap in 0..2 {
            let _ = lap;
            p.push(AppOp::ResetTimer);
            for (i, &b) in rbufs.iter().enumerate() {
                p.push(AppOp::Irecv {
                    buf: b,
                    ty: TypeSlot(0),
                    count: workload.count,
                    src: peer,
                    tag: i as u32,
                });
            }
            for (i, &b) in sbufs.iter().enumerate() {
                p.push(AppOp::Isend {
                    buf: b,
                    ty: TypeSlot(0),
                    count: workload.count,
                    dst: peer,
                    tag: i as u32,
                });
            }
            p.push(AppOp::Waitall);
            p.push(AppOp::RecordLap);
        }
        p
    };
    let mut cluster = ClusterBuilder::new(Platform::lassen(), scheme)
        .data_mode(DataMode::ModelOnly)
        .layouts([workload.committed()])
        .add_rank(0, build(11, RankId(1)))
        .add_rank(0, build(22, RankId(0))) // same node!
        .build();
    let report = cluster.run();
    report.lap_makespan(1)
}

pub fn run(cfg: &RunConfig) -> Table {
    let mut t = Table::new(
        "Extension: fused DirectIPC for intra-node transfers (specfem3D_cm x16, one Lassen node)",
        &["scheme", "latency (us)", "vs DirectIPC"],
    )
    .with_note("DirectIPC fuses zero-copy NVLink loads — no pack, no staging, no unpack");

    let w = specfem3d_cm(2000);
    let registry = fusedpack_mpi::SchemeRegistry::global();
    let staged_fusion = SchemeKind::Fusion(FusionConfig {
        enable_direct_ipc: false,
        ..FusionConfig::default()
    });
    let schemes: Vec<(&str, SchemeKind)> = vec![
        ("Proposed (DirectIPC)", registry.create("proposed")),
        ("Proposed (staged)", staged_fusion),
        ("GPU-Sync", registry.create("gpu-sync")),
        ("CPU-GPU-Hybrid", registry.create("cpu-gpu-hybrid")),
    ];
    // One cell per scheme; the first row *is* the DirectIPC baseline, so
    // normalization uses the reassembled list's first entry.
    let cells: Vec<_> = schemes
        .iter()
        .map(|(label, scheme)| {
            let scheme = scheme.clone();
            let w = w.clone();
            Cell::new(*label, move || intra_node_latency(scheme, &w, 16))
        })
        .collect();
    let lats = exec::sweep(cfg, "ipc", cells);
    let base = lats[0];
    for ((label, _), &lat) in schemes.iter().zip(&lats) {
        t.push_row(vec![(*label).into(), us(lat), ratio(lat, base)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_ipc_is_the_fastest_intra_node_path() {
        let w = specfem3d_cm(1500);
        let ipc = intra_node_latency(SchemeKind::fusion_default(), &w, 8);
        let staged = intra_node_latency(
            SchemeKind::Fusion(FusionConfig {
                enable_direct_ipc: false,
                ..FusionConfig::default()
            }),
            &w,
            8,
        );
        let sync = intra_node_latency(SchemeKind::GpuSync, &w, 8);
        assert!(ipc < staged, "ipc {ipc} vs staged {staged}");
        assert!(staged < sync, "staged {staged} vs sync {sync}");
    }
}
