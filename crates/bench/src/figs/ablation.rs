//! Ablations of the design choices DESIGN.md §5 calls out.
//!
//! 1. **Launch-cost sensitivity** — rerun the Fig. 9 headline with the
//!    kernel-launch overhead forced to zero: fusion's advantage should
//!    collapse, confirming that launch amortization (not some other
//!    artifact) is what the scheme buys.
//! 2. **Flush-rule extremes** — threshold → 0 (launch per request,
//!    degenerate to GPU-Async-like behaviour) and → ∞ (flush only at the
//!    sync point): both ends lose to the tuned middle, the Fig. 8 U-shape
//!    stated as an A/B.
//! 3. **Layout cache** — compare the per-operation datatype cost models.
//! 4. **Fused-kernel block partitioning** — uniform vs. work-proportional
//!    vs. cost-guided splits of the thread-block budget across a batch,
//!    on shapes from balanced to pathologically skewed.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::figs::{latency, HALO_MSGS};
use crate::table::{ratio, us, Table};
use fusedpack_gpu::{FusedWork, PartitionPolicy, SegmentStats};
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_sim::Duration;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_exchange, ExchangeConfig};

/// A Lassen variant with free kernel launches.
pub fn lassen_zero_launch() -> Platform {
    let mut p = Platform::lassen();
    p.arch.launch_cpu = Duration::ZERO;
    p.arch.launch_gpu_delay = Duration::ZERO;
    p
}

pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let w = specfem3d_cm(2000);

    // Ablation 1: launch cost.
    let mut t1 = Table::new(
        "Ablation: kernel-launch overhead sensitivity (specfem3D_cm x16)",
        &["platform", "Proposed (us)", "GPU-Sync (us)", "speedup"],
    )
    .with_note("with free launches, fusing kernels buys almost nothing");
    // One cell per (platform, scheme): 4 independent simulations.
    let mut t1_cells = Vec::new();
    let t1_platforms = [
        ("Lassen", Platform::lassen()),
        ("Lassen (zero launch cost)", lassen_zero_launch()),
    ];
    for (name, platform) in &t1_platforms {
        for scheme in [SchemeKind::fusion_default(), SchemeKind::GpuSync] {
            let platform = platform.clone();
            let w = w.clone();
            t1_cells.push(Cell::new(format!("{name}/{}", scheme.label()), move || {
                latency(&platform, scheme, &w, HALO_MSGS)
            }));
        }
    }
    let t1_lats = exec::sweep(cfg, "ablation", t1_cells);
    for (pair, (name, _)) in t1_lats.chunks(2).zip(&t1_platforms) {
        let (f, s) = (pair[0], pair[1]);
        t1.push_row(vec![(*name).into(), us(f), us(s), ratio(s, f)]);
    }

    // Ablation 2: flush-rule extremes, with the scheduler's fused-batch
    // size statistics alongside the latency they produce.
    let mut t2 = Table::new(
        "Ablation: flush-rule extremes (specfem3D_cm x16, Lassen)",
        &[
            "threshold",
            "latency (us)",
            "batch min",
            "batch mean",
            "batch max",
        ],
    )
    .with_note("threshold 0 = launch per request; 'inf' = flush only at Waitall");
    // One cell per flush-rule extreme.
    let t2_points = [
        ("0 (per-request)", 1u64),
        ("512KB (default)", 512 * 1024),
        ("inf (sync-point only)", u64::MAX),
    ];
    let t2_cells: Vec<_> = t2_points
        .iter()
        .map(|&(label, threshold)| {
            let w = w.clone();
            Cell::new(format!("flush/{label}"), move || {
                run_exchange(&ExchangeConfig::new(
                    Platform::lassen(),
                    SchemeKind::fusion_with_threshold(threshold),
                    w,
                    HALO_MSGS,
                ))
            })
        })
        .collect();
    for (out, (label, _)) in exec::sweep(cfg, "ablation", t2_cells)
        .iter()
        .zip(&t2_points)
    {
        let stats = out.report.sched_stats[0].expect("fusion scheme always has sched stats");
        t2.push_row(vec![
            (*label).into(),
            us(out.latency),
            format!("{}", stats.batch_min),
            format!("{:.2}", stats.fusion_degree()),
            format!("{}", stats.batch_max),
        ]);
    }

    // Ablation 3: datatype-processing cost models.
    let mut t3 = Table::new(
        "Ablation: layout handling cost per operation (4000-block type)",
        &["path", "CPU cost"],
    );
    use fusedpack_datatype::cache::{flatten_cost, lookup_cost, parse_cost};
    t3.push_row(vec![
        "first commit (flatten)".into(),
        format!("{}", flatten_cost(4000)),
    ]);
    t3.push_row(vec![
        "cached lookup (hybrid/proposed)".into(),
        format!("{}", lookup_cost()),
    ]);
    t3.push_row(vec![
        "per-op parse (GPU-Sync/Async)".into(),
        format!("{}", parse_cost(4000)),
    ]);

    // Ablation 4: fused-kernel block-partitioning policies (pure cost
    // model, no cluster in the loop).
    let mut t4 = Table::new(
        "Ablation: fused-kernel block partitioning (V100 cost model)",
        &[
            "batch shape",
            "uniform (us)",
            "weighted (us)",
            "cost-guided (us)",
            "guided/uniform",
        ],
    )
    .with_note(
        "uniform starves skewed batches; work-proportional over-serves sparse requests; \
         cost-guided evaluates both plus a time-demand split and keeps the fastest",
    );
    let arch = fusedpack_gpu::GpuArch::v100();
    for (label, works) in partition_shapes() {
        let time = |policy| fusedpack_gpu::fused::fused_timing_policy(&arch, &works, policy).total;
        let uniform = time(PartitionPolicy::Uniform);
        let weighted = time(PartitionPolicy::WeightedByWork);
        let guided = time(PartitionPolicy::CostGuided);
        t4.push_row(vec![
            label.into(),
            us(uniform),
            us(weighted),
            us(guided),
            ratio(uniform, guided),
        ]);
    }

    vec![t1, t2, t3, t4]
}

/// Batch shapes for the partitioning ablation, from balanced to skewed.
pub fn partition_shapes() -> Vec<(&'static str, Vec<FusedWork>)> {
    let work = |bytes: u64, blocks: u64| FusedWork {
        stats: SegmentStats::new(bytes, blocks),
        bw_cap: None,
    };
    vec![
        (
            "8x balanced small (64KB/128blk)",
            (0..8).map(|_| work(64 * 1024, 128)).collect(),
        ),
        (
            "1MB dense + 3x sparse (4KB/170blk)",
            std::iter::once(work(1024 * 1024, 4))
                .chain((0..3).map(|_| work(4096, 170)))
                .collect(),
        ),
        (
            "2x 8MB dense + 6x 32KB",
            (0..2)
                .map(|_| work(8 * 1024 * 1024, 1024))
                .chain((0..6).map(|_| work(32 * 1024, 64)))
                .collect(),
        ),
        (
            "64MB hog + 24x tiny (1KB/8blk)",
            std::iter::once(work(64 * 1024 * 1024, 16384))
                .chain((0..24).map(|_| work(1024, 8)))
                .collect(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_advantage_collapses_without_launch_cost() {
        let w = specfem3d_cm(2000);
        let speedup = |p: &Platform| {
            let f = latency(p, SchemeKind::fusion_default(), &w, HALO_MSGS);
            let s = latency(p, SchemeKind::GpuSync, &w, HALO_MSGS);
            s.as_nanos() as f64 / f.as_nanos() as f64
        };
        let with_launch = speedup(&Platform::lassen());
        let without = speedup(&lassen_zero_launch());
        assert!(
            without < with_launch * 0.75,
            "zero-launch speedup {without:.2}x should be well below {with_launch:.2}x"
        );
    }

    #[test]
    fn cost_guided_never_slower_on_ablation_shapes() {
        // The tentpole guarantee: on every ablation shape the cost-guided
        // partition is at least as fast as BOTH the uniform split and the
        // legacy work-proportional split.
        let arch = fusedpack_gpu::GpuArch::v100();
        for (label, works) in partition_shapes() {
            let time =
                |policy| fusedpack_gpu::fused::fused_timing_policy(&arch, &works, policy).total;
            let uniform = time(PartitionPolicy::Uniform);
            let weighted = time(PartitionPolicy::WeightedByWork);
            let guided = time(PartitionPolicy::CostGuided);
            assert!(
                guided <= uniform,
                "{label}: guided {guided} vs uniform {uniform}"
            );
            assert!(
                guided <= weighted,
                "{label}: guided {guided} vs weighted {weighted}"
            );
        }
    }

    #[test]
    fn default_threshold_beats_both_extremes() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(2000);
        let run = |t: u64| {
            latency(
                &platform,
                SchemeKind::fusion_with_threshold(t),
                &w,
                HALO_MSGS,
            )
        };
        let per_request = run(1);
        let default = run(512 * 1024);
        assert!(
            default <= per_request,
            "{default} vs per-request {per_request}"
        );
    }
}
