//! Criterion microbenches of the library's own hot paths: datatype
//! flattening, host pack/unpack, the fused-kernel timing model, the fusion
//! scheduler, and the event queue.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fusedpack_core::{FusionConfig, FusionOp, Scheduler};
use fusedpack_datatype::{pack, CompiledLayout, TypeBuilder};
use fusedpack_gpu::{fused, DataMode, DevPtr, GpuArch, HostLink, SegmentStats};
use fusedpack_sim::{EventQueue, Time};
use std::hint::black_box;

fn bench_flatten(c: &mut Criterion) {
    let blocks: Vec<(u64, u64)> = (0..4000u64).map(|i| (i * 3, 1)).collect();
    let ty = TypeBuilder::indexed(&blocks, TypeBuilder::float());
    c.bench_function("datatype/flatten_4000_blocks", |b| {
        b.iter(|| CompiledLayout::of(black_box(&ty)))
    });
}

fn bench_host_pack(c: &mut Criterion) {
    let ty = TypeBuilder::vector(256, 64, 96, TypeBuilder::double());
    let layout = CompiledLayout::of(&ty);
    let src = vec![7u8; layout.footprint(1) as usize];
    let mut dst = vec![0u8; layout.total_bytes(1) as usize];
    let mut g = c.benchmark_group("datatype/host_pack");
    g.throughput(Throughput::Bytes(layout.total_bytes(1)));
    g.bench_function("vector_128KB", |b| {
        b.iter(|| pack::pack_into(black_box(&src), &layout, 1, &mut dst))
    });
    g.finish();
}

fn bench_fused_timing(c: &mut Criterion) {
    let arch = GpuArch::v100();
    let works: Vec<SegmentStats> = (0..64)
        .map(|i| SegmentStats::new(4096 + i * 128, 64))
        .collect();
    c.bench_function("gpu/fused_timing_64_requests", |b| {
        b.iter(|| fused::fused_timing(black_box(&arch), black_box(&works)))
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let layout = CompiledLayout::of(&TypeBuilder::vector(16, 8, 12, TypeBuilder::double()));
    c.bench_function("core/scheduler_enqueue_flush_retire_32", |b| {
        let mut gpu = fusedpack_gpu::Gpu::new(
            GpuArch::v100(),
            1 << 20,
            DataMode::ModelOnly,
            HostLink::nvlink2_cpu(),
            2,
        );
        b.iter(|| {
            let mut sched = Scheduler::new(FusionConfig::default());
            for _ in 0..32 {
                let (res, _) = sched.enqueue(
                    Time(0),
                    FusionOp::Pack,
                    DevPtr { addr: 0, len: 4096 },
                    DevPtr {
                        addr: 8192,
                        len: 2048,
                    },
                    &layout,
                    1,
                    None,
                );
                res.expect("room");
            }
            let batch = sched
                .flush(
                    Time(0),
                    &mut gpu,
                    fusedpack_gpu::StreamId(0),
                    fusedpack_core::FlushReason::SyncPoint,
                )
                .expect("pending");
            for &uid in &batch.uids {
                sched.signal_completion(uid);
                sched.retire(Time(0), uid);
            }
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push_at(Time(i * 7919 % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        })
    });
}

criterion_group!(
    components,
    bench_flatten,
    bench_host_pack,
    bench_fused_timing,
    bench_scheduler,
    bench_event_queue
);
criterion_main!(components);
