//! Metamorphic relation: whether buffers carry real bytes must not move
//! the model. Every registered scheme, run on the default cluster (the
//! flat fabric), produces the identical `RunReport` in
//! `DataMode::ModelOnly` and `DataMode::Full` — every lap, breakdown,
//! scheduler counter, event count, hop-level and fault counter alike —
//! apart from the copy-engine work (`RunReport::copy`), which only a
//! byte-moving run does.
//! Timing-only runs are what every figure reports, so this is the check
//! that those figures describe the byte-moving system.
//!
//! The same relation holds on a routed fabric: a 4³ torus halo on the
//! Lassen-like hierarchy reports the same virtual time in both modes,
//! with and without seeded hop faults.

use fusedpack_gpu::DataMode;
use fusedpack_mpi::{ClusterBuilder, CopyStats, RunReport, SchemeKind, SchemeRegistry};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec};
use fusedpack_workloads::bulk::bulk_exchange_programs;
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::milc::milc_su3_zdown;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{HaloGrid, Workload};
use std::sync::Arc;

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
                assert_eq!(model.copy, CopyStats::default(), "{}", descriptor.name);
                assert!(full.copy.jobs() > 0, "{} {wname}", descriptor.name);
                let full = RunReport {
                    copy: CopyStats::default(),
                    ..full
                };
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

/// Two laps of a 4³ torus halo (64 ranks on 16 Lassen-like nodes, so
/// DirectIPC pairs within a node and routed pairs between nodes) of
/// specfem3D_cm(64) through the fused scheme.
fn routed_halo(mode: DataMode, faults: Option<FaultPlan>) -> RunReport {
    let grid = HaloGrid::new_3d(4, 4, 4);
    let platform = Platform::lassen();
    let gpus_per_node = platform.gpus_per_node;
    let nodes = grid.ranks().div_ceil(gpus_per_node);
    let mut builder = ClusterBuilder::new(platform, SchemeKind::fusion_default())
        .data_mode(mode)
        .topology(Arc::new(Hierarchy::lassen_like(nodes)));
    if let Some(plan) = faults {
        builder = builder.fault_plan(plan);
    }
    for (rank, (program, _)) in halo_programs(&grid, &specfem3d_cm(64), 1, 2, 7)
        .into_iter()
        .enumerate()
    {
        builder = builder.add_rank(rank as u32 / gpus_per_node, program);
    }
    builder.build().run()
}

#[test]
fn model_only_and_full_routed_halos_report_identically() {
    let hop_faults = || {
        FaultPlan::new(31)
            .with(FaultSite::HopFlap, FaultSpec::with_probability(0.1))
            .with(FaultSite::HopDown, FaultSpec::with_probability(0.02))
    };
    for faults in [None, Some(hop_faults())] {
        let case = format!("hop faults {}", faults.is_some());
        let model = routed_halo(DataMode::ModelOnly, faults.clone());
        let full = routed_halo(DataMode::Full, faults.clone());
        assert_eq!(model.lap_count(), 2, "{case}");
        if faults.is_some() {
            assert!(model.fabric.injected() > 0, "faults fired: {case}");
        }
        assert_eq!(model.end_time, full.end_time, "{case}");
        assert_eq!(model.events_processed, full.events_processed, "{case}");
        // Every rank's every lap, so every lap makespan too.
        assert_eq!(model.laps, full.laps, "{case}");
        assert_eq!(model.kernels_launched, full.kernels_launched, "{case}");
        assert_eq!(model.fabric, full.fabric, "{case}");
        assert_eq!(model.fault_summary, full.fault_summary, "{case}");
    }
}
