//! §III / Fig. 4: the three ways to move non-contiguous GPU data.
//!
//! Reproduces the paper's analysis of existing solutions as a measured
//! table: MPI-level explicit pack/unpack (Algorithm 1, one blocking sync
//! per call), application-level packing (Algorithm 2, one sync per
//! direction), and MPI-level implicit datatypes (Algorithm 3) under both a
//! GPU-Sync runtime and the proposed fusion runtime.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{us, Table};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{ClusterBuilder, Program, SchemeKind};
use fusedpack_net::Platform;
use fusedpack_sim::Duration;
use fusedpack_workloads::approaches::{algorithm1_programs, algorithm2_programs};
use fusedpack_workloads::{bulk::bulk_exchange_programs, specfem::specfem3d_cm, Workload};

pub const N_MSGS: usize = 16;

fn run_pair(p0: Program, p1: Program, scheme: SchemeKind) -> Duration {
    let mut cluster = ClusterBuilder::new(Platform::lassen(), scheme)
        .data_mode(DataMode::ModelOnly)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    cluster.run().lap_makespan(0)
}

/// Measure all four rows for one workload, one sweep cell per algorithm.
pub fn measure(cfg: &RunConfig, workload: &Workload) -> Vec<(&'static str, Duration)> {
    let (a1p0, a1p1, _) = algorithm1_programs(workload, N_MSGS, 3);
    let (a2p0, a2p1, _) = algorithm2_programs(workload, N_MSGS, 3);
    let ((i0, _), (i1, _)) = bulk_exchange_programs(workload, N_MSGS, 1, 3);
    let ((f0, _), (f1, _)) = bulk_exchange_programs(workload, N_MSGS, 1, 3);
    let rows: Vec<(&'static str, Program, Program, SchemeKind)> = vec![
        ("Alg.1 MPI explicit pack", a1p0, a1p1, SchemeKind::GpuSync),
        ("Alg.2 application kernels", a2p0, a2p1, SchemeKind::GpuSync),
        ("Alg.3 implicit (GPU-Sync)", i0, i1, SchemeKind::GpuSync),
        (
            "Alg.3 implicit (Proposed)",
            f0,
            f1,
            SchemeKind::fusion_default(),
        ),
    ];
    let labels: Vec<&'static str> = rows.iter().map(|(l, ..)| *l).collect();
    let cells: Vec<_> = rows
        .into_iter()
        .map(|(label, p0, p1, scheme)| Cell::new(label, move || run_pair(p0, p1, scheme)))
        .collect();
    labels
        .into_iter()
        .zip(exec::sweep(cfg, "approaches", cells))
        .collect()
}

pub fn run(cfg: &RunConfig) -> Table {
    let mut t = Table::new(
        "SIII / Fig. 4: three approaches to non-contiguous transfer (specfem3D_cm x16, Lassen)",
        &["approach", "latency (us)", "syncs per iteration"],
    )
    .with_note("Alg.1 syncs per MPI_Pack/Unpack; Alg.2 syncs once per direction; Alg.3 lets the runtime schedule");

    let w = specfem3d_cm(2000);
    let syncs = [
        "32 (one per call)",
        "2",
        "32 (runtime)",
        "0 (fused polling)",
    ];
    for ((name, lat), s) in measure(cfg, &w).into_iter().zip(syncs) {
        t.push_row(vec![name.into(), us(lat), s.into()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_the_papers_analysis() {
        let rows = measure(&RunConfig::default(), &specfem3d_cm(2000));
        let (a1, a2, a3_sync, a3_fused) = (rows[0].1, rows[1].1, rows[2].1, rows[3].1);
        assert!(a2 < a1, "one sync ({a2}) beats per-call syncs ({a1})");
        assert!(
            a3_fused < a2,
            "fusion ({a3_fused}) beats application-level packing ({a2})"
        );
        assert!(
            a3_fused.as_nanos() * 2 < a3_sync.as_nanos(),
            "fusion ({a3_fused}) transforms the implicit path ({a3_sync})"
        );
    }
}
