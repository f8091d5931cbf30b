//! Criterion benches, one group per reproduced figure: each measures the
//! wall time of regenerating a representative cell of that figure, so
//! `cargo bench` exercises every experiment path end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use fusedpack_bench::figs::{self, latency, HALO_MSGS};
use fusedpack_gpu::{kernel, GpuArch, SegmentStats};
use fusedpack_mpi::{NaiveFlavor, SchemeKind};
use fusedpack_net::Platform;
use fusedpack_workloads::{milc::milc_su3_zdown, nas::nas_mg_y, specfem::specfem3d_cm};
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let arch = GpuArch::v100();
    let w = specfem3d_cm(2000);
    let stats = SegmentStats::new(w.packed_bytes(), w.blocks());
    c.bench_function("fig1/kernel_cost_model", |b| {
        b.iter(|| kernel::single_kernel_time(black_box(&arch), black_box(stats)))
    });
}

fn bench_fig8(c: &mut Criterion) {
    let platform = Platform::lassen();
    let w = specfem3d_cm(4096);
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    for threshold in [16 * 1024u64, 512 * 1024, 4 * 1024 * 1024] {
        g.bench_function(format!("threshold_{}KB", threshold / 1024), |b| {
            b.iter(|| {
                latency(
                    &platform,
                    SchemeKind::fusion_with_threshold(threshold),
                    &w,
                    32,
                )
            })
        });
    }
    g.finish();
}

fn bench_fig9_10(c: &mut Criterion) {
    let platform = Platform::lassen();
    let sparse = specfem3d_cm(2000);
    let dense = milc_su3_zdown(4);
    let mut g = c.benchmark_group("fig9_10");
    g.sample_size(10);
    for scheme in figs::gpu_driven_schemes() {
        g.bench_function(format!("sparse_16buf/{}", scheme.label()), |b| {
            b.iter(|| latency(&platform, scheme.clone(), &sparse, 16))
        });
        g.bench_function(format!("dense_16buf/{}", scheme.label()), |b| {
            b.iter(|| latency(&platform, scheme.clone(), &dense, 16))
        });
    }
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    for scheme in figs::fig11::schemes() {
        g.bench_function(format!("breakdown/{}", scheme.label()), |b| {
            b.iter(|| figs::fig11::breakdown_for(scheme.clone()))
        });
    }
    g.finish();
}

fn bench_fig12_13(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_13");
    g.sample_size(10);
    for (name, platform) in [("lassen", Platform::lassen()), ("abci", Platform::abci())] {
        let w = nas_mg_y(256);
        g.bench_function(format!("halo_nas/{name}"), |b| {
            b.iter(|| latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS))
        });
    }
    g.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let platform = Platform::lassen();
    let w = specfem3d_cm(2048);
    let mut g = c.benchmark_group("fig14");
    g.sample_size(10);
    g.bench_function("spectrum_mpi", |b| {
        b.iter(|| {
            latency(
                &platform,
                SchemeKind::NaiveCopy(NaiveFlavor::SpectrumMpi),
                &w,
                HALO_MSGS,
            )
        })
    });
    g.bench_function("proposed", |b| {
        b.iter(|| latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS))
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);
    let w = specfem3d_cm(2000);
    g.bench_function("ipc/direct_ipc_intra_node", |b| {
        b.iter(|| figs::ipc::intra_node_latency(SchemeKind::fusion_default(), &w, 16))
    });
    let cfg = figs::RunConfig::default();
    g.bench_function("approaches/all_four", |b| {
        b.iter(|| figs::approaches::measure(&cfg, &w))
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig1,
    bench_fig8,
    bench_fig9_10,
    bench_fig11,
    bench_fig12_13,
    bench_fig14,
    bench_extensions
);
criterion_main!(figures);
