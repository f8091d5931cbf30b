//! Metamorphic relation: whether buffers carry real bytes must not move
//! the model. Every registered scheme, run on the default cluster (the
//! flat fabric), produces the identical `RunReport` in
//! `DataMode::ModelOnly` and `DataMode::Full` — every lap, breakdown,
//! scheduler counter, event count, hop-level and fault counter alike.
//! Timing-only runs are what every figure reports, so this is the check
//! that those figures describe the byte-moving system.

use fusedpack_gpu::DataMode;
use fusedpack_mpi::{ClusterBuilder, RunReport, SchemeRegistry};
use fusedpack_net::Platform;
use fusedpack_workloads::bulk::bulk_exchange_programs;
use fusedpack_workloads::milc::milc_su3_zdown;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::Workload;

/// Two ranks exchanging `n_msgs` buffers each way for two laps, on
/// `nodes` = 2 (the inter-node wire) or 1 (the intra-node crossbar and,
/// for the fused scheme, DirectIPC).
fn exchange(name: &str, workload: &Workload, nodes: u32, mode: DataMode) -> RunReport {
    let scheme = SchemeRegistry::global().create(name);
    let ((p0, _), (p1, _)) = bulk_exchange_programs(workload, 4, 2, 7);
    ClusterBuilder::new(Platform::lassen(), scheme)
        .data_mode(mode)
        .add_rank(0, p0)
        .add_rank(nodes - 1, p1)
        .build()
        .run()
}

#[test]
fn model_only_and_full_runs_report_identically_for_every_scheme() {
    let workloads = [
        ("specfem3D_cm", specfem3d_cm(512)),
        ("MILC", milc_su3_zdown(8)),
    ];
    for descriptor in SchemeRegistry::global().all() {
        for (wname, workload) in &workloads {
            for nodes in [1, 2] {
                let model = exchange(descriptor.name, workload, nodes, DataMode::ModelOnly);
                let full = exchange(descriptor.name, workload, nodes, DataMode::Full);
                assert_eq!(model.lap_count(), 2, "{} {wname}", descriptor.name);
                assert_eq!(
                    format!("{model:?}"),
                    format!("{full:?}"),
                    "{} on {wname} across {nodes} node(s)",
                    descriptor.name
                );
            }
        }
    }
}
