//! The paper's headline claims, as executable assertions against this
//! reproduction. Factors are *this model's* measured values (recorded in
//! EXPERIMENTS.md next to the paper's); the assertions pin the direction
//! and rough magnitude of every claim.

use fusedpack::prelude::*;
use fusedpack::workloads::{
    milc::milc_su3_zdown,
    nas::nas_mg_y,
    specfem::{specfem3d_cm, specfem3d_oc},
};
use fusedpack_mpi::NaiveFlavor;

fn lat(platform: &Platform, scheme: SchemeKind, w: &Workload, n: usize) -> Duration {
    run_exchange(&ExchangeConfig::new(platform.clone(), scheme, w.clone(), n)).latency
}

/// §V headline: "up to 8X ... for sparse ... compared to the
/// state-of-the-art approaches on the Lassen system".
#[test]
fn sparse_speedup_on_lassen_is_multi_x() {
    let platform = Platform::lassen();
    let mut best = 0.0f64;
    for pts in [512, 1024, 2048, 4096] {
        let w = specfem3d_cm(pts);
        let f = lat(&platform, SchemeKind::fusion_default(), &w, 16);
        for s in [
            SchemeKind::GpuSync,
            SchemeKind::GpuAsync,
            SchemeKind::CpuGpuHybrid,
        ] {
            let b = lat(&platform, s, &w, 16);
            best = best.max(b.as_nanos() as f64 / f.as_nanos() as f64);
        }
    }
    assert!(
        best > 3.5,
        "peak sparse speedup {best:.1}x should be multi-x (paper: up to 8x)"
    );
}

/// §V headline: "up to 19X improvement over existing approaches on the
/// ABCI system" — and strictly larger than the Lassen gain.
#[test]
fn abci_peak_speedup_exceeds_lassen() {
    // Compare against the kernel-driven baselines, which exist identically
    // on both platforms (the hybrid baseline's policy differs per platform
    // and would confound the comparison).
    let peak = |platform: &Platform| {
        let mut best = 0.0f64;
        for pts in [512u64, 1024, 2048] {
            let w = specfem3d_oc(pts);
            let f = lat(platform, SchemeKind::fusion_default(), &w, 16);
            for s in [SchemeKind::GpuSync, SchemeKind::GpuAsync] {
                let b = lat(platform, s, &w, 16);
                best = best.max(b.as_nanos() as f64 / f.as_nanos() as f64);
            }
        }
        best
    };
    let lassen = peak(&Platform::lassen());
    let abci = peak(&Platform::abci());
    assert!(abci > lassen, "ABCI {abci:.1}x vs Lassen {lassen:.1}x");
    assert!(abci > 4.0, "ABCI peak {abci:.1}x (paper: up to 19x)");
}

/// Abstract: "outperforms the production libraries ... by many orders of
/// magnitude" for sparse layouts.
#[test]
fn production_libraries_lose_by_orders_of_magnitude() {
    let platform = Platform::lassen();
    let w = specfem3d_cm(2048);
    let f = lat(&platform, SchemeKind::fusion_default(), &w, 16);
    for flavor in [NaiveFlavor::SpectrumMpi, NaiveFlavor::OpenMpi] {
        let naive = lat(&platform, SchemeKind::NaiveCopy(flavor), &w, 16);
        let speedup = naive.as_nanos() as f64 / f.as_nanos() as f64;
        assert!(
            speedup > 100.0,
            "{flavor:?}: {speedup:.0}x should be orders of magnitude"
        );
    }
}

/// §V-C: "Compared to the optimized scheme in MVAPICH2-GDR ... up to 8.8X
/// and 4.3X lower latency for sparse and dense layouts."
#[test]
fn beats_mvapich_gdr_on_both_layout_classes() {
    let platform = Platform::lassen();
    for (w, min_speedup) in [(specfem3d_cm(2048), 1.5), (nas_mg_y(128), 1.2)] {
        let f = lat(&platform, SchemeKind::fusion_default(), &w, 16);
        let m = lat(&platform, SchemeKind::Adaptive, &w, 16);
        let speedup = m.as_nanos() as f64 / f.as_nanos() as f64;
        assert!(
            speedup > min_speedup,
            "{}: {speedup:.1}x vs MVAPICH2-GDR",
            w.name
        );
    }
}

/// Fig. 10 discussion: GPU-Async "performs worse than GPU-Sync even if
/// there are multiple packing/unpacking operations" on Lassen, while on
/// ABCI's slower interconnect it can slightly win (Fig. 13 discussion).
#[test]
fn async_vs_sync_flips_between_platforms() {
    let dense_small = milc_su3_zdown(4);
    let lassen_sync = lat(&Platform::lassen(), SchemeKind::GpuSync, &dense_small, 16);
    let lassen_async = lat(&Platform::lassen(), SchemeKind::GpuAsync, &dense_small, 16);
    assert!(
        lassen_async.as_nanos() as f64 > 0.95 * lassen_sync.as_nanos() as f64,
        "Lassen: async {lassen_async} should not meaningfully beat sync {lassen_sync}"
    );

    let dense_large = nas_mg_y(384);
    let abci_sync = lat(&Platform::abci(), SchemeKind::GpuSync, &dense_large, 16);
    let abci_async = lat(&Platform::abci(), SchemeKind::GpuAsync, &dense_large, 16);
    assert!(
        abci_async < abci_sync,
        "ABCI dense: async {abci_async} should slightly beat sync {abci_sync}"
    );
}

/// Table I: the proposed design keeps overlap high — its observed
/// communication time should be mostly hidden relative to GPU-Sync's.
#[test]
fn proposed_hides_communication() {
    let platform = Platform::abci();
    let w = milc_su3_zdown(8);
    let cfg = |scheme| ExchangeConfig::new(platform.clone(), scheme, w.clone(), 16);
    let sync = run_exchange(&cfg(SchemeKind::GpuSync));
    let fused = run_exchange(&cfg(SchemeKind::fusion_default()));
    assert!(
        fused.breakdown.comm < sync.breakdown.comm,
        "proposed comm {:?} should be better hidden than GPU-Sync {:?}",
        fused.breakdown.comm,
        sync.breakdown.comm
    );
}

/// §IV-A2: "The scheduling overhead of the proposed scheduler has
/// insignificant overhead as low as 2us per message."
#[test]
fn scheduler_overhead_is_small() {
    let out = run_exchange(&ExchangeConfig::new(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        specfem3d_cm(2000),
        16,
    ));
    // 64 requests scheduled per iteration (16 packs + 16 unpacks, 2 ranks).
    let per_msg = out.breakdown.scheduling.as_micros_f64() / 64.0;
    assert!((0.5..3.0).contains(&per_msg), "{per_msg:.2}us per message");
}

/// Fig. 2's three regimes, as end-to-end kernel counts: fusion launches a
/// handful of kernels where the baselines launch one per operation.
#[test]
fn kernel_launch_counts_match_design() {
    let platform = Platform::lassen();
    let w = specfem3d_cm(1000);
    let kernels = |scheme| {
        run_exchange(&ExchangeConfig::new(
            platform.clone(),
            scheme,
            w.clone(),
            16,
        ))
        .report
        .kernels_launched
        .iter()
        .sum::<u64>()
    };
    // 2 laps x 2 ranks x 32 ops.
    assert_eq!(kernels(SchemeKind::GpuSync), 128);
    assert_eq!(kernels(SchemeKind::GpuAsync), 128);
    assert!(kernels(SchemeKind::fusion_default()) <= 16);
}
