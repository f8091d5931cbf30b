//! Microbenches of the data-plane fast paths introduced for the parallel
//! sweep executor: host pack/unpack across layout shapes (sparse indexed,
//! strided dense, fully contiguous — the last hitting the single-memcpy
//! fast path, benchmarked against the generic gather loop) and raw
//! event-queue churn.
//!
//! Baseline numbers live in `BENCH_hotpaths.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fusedpack_core::{FlushReason, FusionConfig, FusionOp, Scheduler, Uid};
use fusedpack_datatype::{pack, CompiledLayout, TypeBuilder};
use fusedpack_gpu::{DataMode, DevPtr, Elements, Gpu, GpuArch, HostLink, MemPool, StreamId};
use fusedpack_sim::{EventQueue, FaultPlan, FaultSite, Time};
use fusedpack_workloads::specfem::{specfem3d_cm, specfem3d_oc};
use fusedpack_workloads::{run_exchange, ExchangeConfig};
use std::hint::black_box;
use std::sync::Arc;

/// (label, layout, element count) for the three pack/unpack shapes.
fn shapes() -> Vec<(&'static str, CompiledLayout, u64)> {
    // Sparse: 512 single-float blocks scattered with gaps.
    let sparse_blocks: Vec<(u64, u64)> = (0..512u64).map(|i| (i * 5, 1)).collect();
    let sparse = CompiledLayout::of(&TypeBuilder::indexed(&sparse_blocks, TypeBuilder::float()));
    // Dense: strided vector, 64-double blocks at a 96-double stride.
    let dense = CompiledLayout::of(&TypeBuilder::vector(64, 64, 96, TypeBuilder::double()));
    // Contiguous: small unbroken elements, many of them — the shape where
    // the whole-buffer memcpy fast path replaces 1024 tiny copies.
    let contig = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
    vec![
        ("sparse", sparse, 4),
        ("dense", dense, 4),
        ("contiguous", contig, 1024),
    ]
}

fn bench_pack_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/pack");
    for (label, layout, count) in shapes() {
        let src = vec![7u8; layout.footprint(count) as usize];
        let mut dst = vec![0u8; layout.total_bytes(count) as usize];
        g.throughput(Throughput::Bytes(layout.total_bytes(count)));
        g.bench_function(label, |b| {
            b.iter(|| pack::pack_into(black_box(&src), &layout, count, &mut dst))
        });
    }
    // The same contiguous shape forced through the generic per-segment
    // loop — the delta against hotpaths/pack/contiguous is the fast path.
    let (_, layout, count) = shapes().pop().expect("contiguous shape");
    let src = vec![7u8; layout.footprint(count) as usize];
    let mut dst = vec![0u8; layout.total_bytes(count) as usize];
    g.throughput(Throughput::Bytes(layout.total_bytes(count)));
    g.bench_function("contiguous_generic_loop", |b| {
        b.iter(|| pack::pack_into_generic(black_box(&src), &layout, count, &mut dst))
    });
    g.finish();
}

fn bench_unpack_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/unpack");
    for (label, layout, count) in shapes() {
        let src = vec![9u8; layout.total_bytes(count) as usize];
        let mut dst = vec![0u8; layout.footprint(count) as usize];
        g.throughput(Throughput::Bytes(layout.total_bytes(count)));
        g.bench_function(label, |b| {
            b.iter(|| pack::unpack(black_box(&src), &layout, count, &mut dst))
        });
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("hotpaths/event_queue_push_pop_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..4096u64 {
                q.push_at(Time(i * 6151 % 65_536), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        })
    });
}

/// The small-run copy tier against the generic per-segment loop on a
/// uniform layout: 4096 16-byte runs at a 24-byte stride (a blocklen-2
/// double vector). `pack_uniform`/`unpack_uniform` run the layout's plan —
/// the indexed rung, whose const-width 16-byte moves walk the offset table
/// (the rows keep the names of the fixed-stride tier it replaced);
/// `pack_generic_loop` walks the segment table. The `mempool_*` rows run
/// the plan-driven pool gather ([`bench_pool_gather`]).
fn bench_gather_tier(c: &mut Criterion) {
    use fusedpack_datatype::CopyPlan;
    let layout = CompiledLayout::of(&TypeBuilder::vector(4096, 2, 3, TypeBuilder::double()));
    let count = 1u64;
    assert_eq!(layout.plan_for(count), CopyPlan::IndexedRuns { width: 16 });
    let src = vec![7u8; layout.footprint(count) as usize];
    let mut dst = vec![0u8; layout.total_bytes(count) as usize];
    let mut g = c.benchmark_group("hotpaths/gather_tier");
    g.throughput(Throughput::Bytes(layout.total_bytes(count)));
    g.bench_function("pack_uniform", |b| {
        b.iter(|| pack::pack_into(black_box(&src), &layout, count, &mut dst))
    });
    g.bench_function("pack_generic_loop", |b| {
        b.iter(|| pack::pack_into_generic(black_box(&src), &layout, count, &mut dst))
    });
    g.bench_function("unpack_uniform", |b| {
        let packed = vec![9u8; layout.total_bytes(count) as usize];
        let mut out = vec![0u8; layout.footprint(count) as usize];
        b.iter(|| pack::unpack(black_box(&packed), &layout, count, &mut out))
    });

    // The same tier inside the device pools: gather 4096 runs into a
    // contiguous region of one pool, through the plan-driven copy that
    // shares the host kernels above.
    bench_pool_gather(&mut g, &layout, count);

    // A timing-only gather of one specfem3D_oc(512) element (512 4-byte
    // runs): the plan answers with `total_bytes` and reads neither the
    // segment table nor the offset table.
    let oc = specfem3d_oc(512).layout().clone();
    let mut model = MemPool::new(1 << 30, DataMode::ModelOnly);
    let user = model.alloc(oc.footprint(1), 64);
    let staged = model.alloc(oc.total_bytes(1), 64);
    let bytes = CompiledLayout::of(&TypeBuilder::byte());
    let to = Elements::new(&bytes, staged.addr, oc.total_bytes(1));
    let mut scratch = Vec::new();
    g.throughput(Throughput::Bytes(oc.total_bytes(1)));
    g.bench_function("mempool_gather_model_only_specfem3d_oc", |b| {
        b.iter(|| {
            let from = Elements::new(black_box(&oc), user.addr, 1);
            black_box(model.copy_within(from, to, &mut scratch))
        })
    });
    g.finish();
}

/// The `mempool_gather` row of group `g`: `count` elements of `layout`
/// copied into a packed image in the same pool, as an explicit `Pack` op
/// does ([`MemPool::copy_within`] into one-byte elements).
fn bench_pool_gather(g: &mut criterion::BenchmarkGroup<'_>, layout: &CompiledLayout, count: u64) {
    let (span, total) = (layout.footprint(count).max(1), layout.total_bytes(count));
    let mut pool = MemPool::new(span + total + 64, DataMode::Full);
    let region = pool.alloc(span, 64);
    let packed = pool.alloc(total, 64);
    let bytes = CompiledLayout::of(&TypeBuilder::byte());
    let to = Elements::new(&bytes, packed.addr, total);
    let mut scratch = Vec::new();
    g.bench_function("mempool_gather", |b| {
        b.iter(|| {
            let from = Elements::new(layout, black_box(region.addr), count);
            black_box(pool.copy_within(from, to, &mut scratch))
        })
    });
}

/// The indexed rung on the paper's sparse case: one specfem3D_cm(512)
/// element, three fields of 512 4-byte boundary values whose starts sit
/// an irregular 8–16 bytes apart (1536 runs, no constant stride). `pack` and `unpack` run the
/// plan (4-byte moves over the offset table), `pack_generic_loop` the
/// per-segment walk it replaced, and `mempool_gather` the same plan on
/// pool memory.
fn bench_indexed_runs(c: &mut Criterion) {
    use fusedpack_datatype::CopyPlan;
    let layout = specfem3d_cm(512).layout().clone();
    let count = 1u64;
    assert_eq!(layout.plan_for(count), CopyPlan::IndexedRuns { width: 4 });
    let (span, total) = (layout.footprint(count), layout.total_bytes(count));
    let src = vec![7u8; span as usize];
    let mut dst = vec![0u8; total as usize];
    let mut g = c.benchmark_group("hotpaths/indexed_runs");
    g.throughput(Throughput::Bytes(total));
    g.bench_function("pack", |b| {
        b.iter(|| pack::pack_into(black_box(&src), &layout, count, &mut dst))
    });
    g.bench_function("pack_generic_loop", |b| {
        b.iter(|| pack::pack_into_generic(black_box(&src), &layout, count, &mut dst))
    });
    g.bench_function("unpack", |b| {
        let packed = vec![9u8; total as usize];
        let mut out = vec![0u8; span as usize];
        b.iter(|| pack::unpack(black_box(&packed), &layout, count, &mut out))
    });
    bench_pool_gather(&mut g, &layout, count);
    g.finish();
}

/// The block-uniform tier against the generic segment walk on the same
/// wide-run layout: 2048 72-byte runs at a 120-byte stride (a blocklen-9
/// double vector — runs past `FIXED_RUN_WIDTH_MAX`, so the layout
/// compiler classifies it BlockUniform and the copy moves each run as
/// fixed 64-byte chunks plus a tail instead of walking the per-segment
/// offset table). Runs this size keep per-run bookkeeping visible; much
/// wider runs converge to memory bandwidth on every path.
fn bench_block_uniform_tier(c: &mut Criterion) {
    use fusedpack_datatype::CopyPlan;
    let layout = CompiledLayout::of(&TypeBuilder::vector(2048, 9, 15, TypeBuilder::double()));
    let count = 1u64;
    let plan = match layout.plan_for(count) {
        CopyPlan::BlockUniform(p) => p,
        other => panic!("wide-run vector must classify BlockUniform, got {other:?}"),
    };
    let src = vec![7u8; layout.footprint(count) as usize];
    let mut dst = vec![0u8; layout.total_bytes(count) as usize];
    let mut g = c.benchmark_group("hotpaths/block_uniform");
    g.throughput(Throughput::Bytes(layout.total_bytes(count)));
    g.bench_function("pack_block_uniform", |b| {
        b.iter(|| pack::pack_into_block_uniform(black_box(&src), &plan, &mut dst))
    });
    g.bench_function("pack_generic_loop", |b| {
        b.iter(|| pack::pack_into_generic(black_box(&src), &layout, count, &mut dst))
    });
    g.bench_function("unpack_block_uniform", |b| {
        let packed = vec![9u8; layout.total_bytes(count) as usize];
        let mut out = vec![0u8; layout.footprint(count) as usize];
        b.iter(|| pack::unpack_block_uniform(black_box(&packed), &plan, &mut out))
    });

    // The same tier inside the device pools: the plan-driven gather runs
    // the chunked block kernel above on pool memory (what the cluster's
    // staged copies hit for BlockUniform plans).
    bench_pool_gather(&mut g, &layout, count);
    g.finish();
}

/// One scheduler service cycle: 64 enqueues with a threshold check after
/// each (flushing whenever it fires), a final sync-point flush, then
/// completion signalling and retirement for every request — the per-epoch
/// hot path the fusion scheme adds on top of the progress engine.
fn scheduler_cycle(sched: &mut Scheduler, gpu: &mut Gpu, layout: &Arc<CompiledLayout>) -> u64 {
    let mut launches = 0u64;
    let mut t = Time(0);
    let mut uids: Vec<Uid> = Vec::with_capacity(64);
    for _ in 0..64 {
        let (res, cost) = sched.enqueue(
            t,
            FusionOp::Pack,
            DevPtr {
                addr: 0,
                len: 65536,
            },
            DevPtr {
                addr: 65536,
                len: 65536,
            },
            layout.clone(),
            1,
            None,
        );
        uids.push(res.expect("ring has room"));
        t += cost;
        if sched.threshold_reached() {
            if let Some(batch) = sched.flush(t, gpu, StreamId(0), FlushReason::ThresholdReached) {
                launches += 1;
                for &u in &batch.uids {
                    sched.signal_completion(u);
                }
            }
        }
    }
    if let Some(batch) = sched.flush(t, gpu, StreamId(0), FlushReason::SyncPoint) {
        launches += 1;
        for &u in &batch.uids {
            sched.signal_completion(u);
        }
    }
    for u in uids {
        let cost = sched.retire(t, u);
        t += cost;
    }
    launches
}

fn bench_scheduler(c: &mut Criterion) {
    // 16 KB packed per request across 2 blocks: 64 requests cross the
    // 512 KB default threshold twice per cycle.
    let layout = Arc::new(CompiledLayout::of(&TypeBuilder::vector(
        2,
        8 * 1024,
        8 * 1024 + 64,
        TypeBuilder::byte(),
    )));
    let mk_gpu = || {
        Gpu::new(
            GpuArch::v100(),
            1 << 22,
            DataMode::ModelOnly,
            HostLink::nvlink2_cpu(),
            2,
        )
    };
    let mut g = c.benchmark_group("hotpaths/scheduler");
    g.bench_function("enqueue_flush_cycle_static", |b| {
        let mut sched = Scheduler::new(FusionConfig::default());
        let mut gpu = mk_gpu();
        b.iter(|| scheduler_cycle(&mut sched, &mut gpu, black_box(&layout)))
    });
    g.bench_function("enqueue_flush_cycle_adaptive", |b| {
        // Same cycle with the online controller observing every flush
        // (it converges to a fixed point, so the steady state measures
        // pure controller overhead, not behavioural drift).
        let mut sched = Scheduler::new(FusionConfig::default());
        sched.enable_adaptive(&GpuArch::v100());
        let mut gpu = mk_gpu();
        b.iter(|| scheduler_cycle(&mut sched, &mut gpu, black_box(&layout)))
    });
    g.finish();
}

/// Overhead of the fault-injection hooks on the simulation's per-request
/// hot path. `no_plan` is the production configuration (one untaken
/// `Option` branch per decision site); `zero_probability_plan` is an armed
/// plan whose every spec is `probability: 0` (an early-out before any RNG
/// draw); `armed_plan` actually draws. The first two must be
/// indistinguishable — that is the zero-cost contract the bit-identity
/// tests enforce semantically and this group quantifies. The stateful
/// (`fires`, per-(site, rank) streams) and keyed (`fires_keyed`, stateless
/// splitmix over the event key — the per-hop decision of the routed
/// transmit path) families are benchmarked side by side.
fn bench_fault_hooks(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/fault_hooks");

    // The raw decision loop: 4096 fires checks round-robining the fault
    // sites and 8 ranks, the shape the cluster's hooks execute per event.
    let decisions = |plan: &mut Option<FaultPlan>| {
        let mut fired = 0u64;
        for i in 0..4096u64 {
            let site = FaultSite::ALL[(i % FaultSite::ALL.len() as u64) as usize];
            if let Some(p) = plan.as_mut() {
                if p.fires(site, (i % 8) as u32) {
                    fired += 1;
                }
            }
        }
        fired
    };
    g.bench_function("decisions_4k_no_plan", |b| {
        let mut plan: Option<FaultPlan> = None;
        b.iter(|| decisions(black_box(&mut plan)))
    });
    g.bench_function("decisions_4k_zero_probability_plan", |b| {
        // `FaultPlan::new` arms the plan with every site at probability 0.
        let mut plan = Some(FaultPlan::new(0));
        b.iter(|| decisions(black_box(&mut plan)))
    });
    g.bench_function("decisions_4k_armed_plan", |b| {
        let mut plan = Some(FaultPlan::uniform(0, 0.1));
        b.iter(|| decisions(black_box(&mut plan)))
    });

    // The stateless keyed family: one hash per decision, no stream state —
    // what every hop crossing of a routed transmit pays under an armed
    // fabric plan (zero-probability must stay an ≈ns-scale early-out).
    let keyed = |plan: &mut Option<FaultPlan>| {
        let mut fired = 0u64;
        for i in 0..4096u64 {
            let site = FaultSite::ALL[(i % FaultSite::ALL.len() as u64) as usize];
            if let Some(p) = plan.as_mut() {
                if p.fires_keyed(site, i % 64, i) {
                    fired += 1;
                }
            }
        }
        fired
    };
    g.bench_function("keyed_decisions_4k_zero_probability_plan", |b| {
        let mut plan = Some(FaultPlan::new(0));
        b.iter(|| keyed(black_box(&mut plan)))
    });
    g.bench_function("keyed_decisions_4k_armed_plan", |b| {
        let mut plan = Some(FaultPlan::uniform(0, 0.1));
        b.iter(|| keyed(black_box(&mut plan)))
    });

    // End to end: a small fused exchange simulated with no plan vs an
    // armed all-zero plan — the whole-pipeline cost of threading the
    // hooks through the pack/transfer/unpack fast paths.
    let cfg = |fault_plan| ExchangeConfig {
        fault_plan,
        ..ExchangeConfig::new(
            fusedpack_net::Platform::lassen(),
            fusedpack_mpi::SchemeKind::fusion_default(),
            specfem3d_oc(500),
            4,
        )
    };
    g.bench_function("exchange_no_plan", |b| {
        b.iter(|| run_exchange(black_box(&cfg(None))))
    });
    g.bench_function("exchange_zero_probability_plan", |b| {
        b.iter(|| run_exchange(black_box(&cfg(Some(FaultPlan::new(0))))))
    });
    g.finish();
}

/// Topology hot paths: route resolution and contended multi-hop
/// transmits at cluster scale. `route_extract` walks the warm BFS tables
/// per call (what an uncached pair pays after table build);
/// `route_cached` is [`TopoNet`]'s per-send lookup (a HashMap hit
/// returning an `(offset, len)` window into the contiguous route arena —
/// the steady-state cost every routed transfer adds over the flat path),
/// and `route_cached_arc_baseline` replays the pre-arena design it
/// replaced (per-send `Arc<[HopId]>` refcount clone out of the cache).
/// The contended-transmit series times 64 cross-leaf transfers whose
/// routes pile onto shared rails and spines, at 256/1k/4k ranks — the
/// per-event cost the 512-rank halo report pays on its hot path.
fn bench_topology(c: &mut Criterion) {
    use fusedpack_net::{Endpoint, Hierarchy, TopoNet, Topology};

    let mut g = c.benchmark_group("hotpaths/topo");

    // Deterministic cross-leaf pair list: ranks i and (i + ranks/2) sit
    // 16+ nodes apart, so every route crosses the spine layer.
    let pairs = |ranks: u32| -> Vec<(Endpoint, Endpoint)> {
        (0..64u32)
            .map(|i| {
                let (a, b) = (i % (ranks / 2), ranks / 2 + i % (ranks / 2));
                (Endpoint::new(a / 4, a % 4), Endpoint::new(b / 4, b % 4))
            })
            .collect()
    };

    let big = Hierarchy::lassen_like(1024); // 4096 ranks
    let big_pairs = pairs(4096);
    g.bench_function("route_extract_4k_ranks", |b| {
        // Warm every destination table once so the loop measures path
        // extraction, not BFS.
        for &(a, bb) in &big_pairs {
            let _ = big.route(a, bb);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (a, bb) = big_pairs[i % big_pairs.len()];
            i += 1;
            black_box(big.route(black_box(a), bb).expect("routable"))
        })
    });
    g.bench_function("route_cached_4k_ranks", |b| {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(1024)));
        for &key in &big_pairs {
            let _ = net.resolve(key);
        }
        let mut i = 0usize;
        b.iter(|| {
            let key = big_pairs[i % big_pairs.len()];
            i += 1;
            let route = net.resolve(black_box(key)).expect("cached");
            black_box(route.last().copied())
        })
    });
    g.bench_function("route_cached_arc_baseline_4k_ranks", |b| {
        // The design the arena replaced: every send clones an
        // `Arc<[HopId]>` out of the cache (two atomic refcount ops and a
        // pointer chase per transfer).
        use fusedpack_net::HopId;
        use std::collections::HashMap;
        let topo = Hierarchy::lassen_like(1024);
        let mut cache: HashMap<(Endpoint, Endpoint), std::sync::Arc<[HopId]>> = HashMap::new();
        for &(a, bb) in &big_pairs {
            cache.insert((a, bb), topo.route(a, bb).expect("routable").into());
        }
        let mut i = 0usize;
        b.iter(|| {
            let key = big_pairs[i % big_pairs.len()];
            i += 1;
            let route = cache.get(&black_box(key)).expect("cached").clone();
            black_box(route.last().copied())
        })
    });

    for ranks in [256u32, 1024, 4096] {
        let keys = pairs(ranks);
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(ranks / 4)));
        for &key in &keys {
            let _ = net.resolve(key); // routes cached; iters measure transmits
        }
        g.bench_function(format!("contended_transmit_64x_{ranks}_ranks"), |b| {
            b.iter(|| {
                net.reset();
                let mut last = Time(0);
                for &key in &keys {
                    let t = net.transmit(Time(0), key, 65_536, None).expect("routable");
                    last = t.delivered;
                }
                black_box(last)
            })
        });
    }

    // The same contended series with a zero-probability fabric plan armed:
    // the per-hop fault hook's cost when it never fires. The delta against
    // contended_transmit_64x_256_ranks is the hook — it must stay ≈ns per
    // hop (an early-out before any hash).
    {
        let keys = pairs(256);
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(64)));
        net.arm_faults(FaultPlan::new(0));
        for &key in &keys {
            let _ = net.resolve(key);
        }
        g.bench_function("contended_transmit_64x_256_ranks_zero_prob_fabric", |b| {
            b.iter(|| {
                net.reset();
                let mut last = Time(0);
                for &key in &keys {
                    let t = net.transmit(Time(0), key, 65_536, None).expect("routable");
                    last = t.delivered;
                }
                black_box(last)
            })
        });
    }

    // The reroute slow path: dead-set-avoiding shortest-path resolution
    // (what one ECMP re-resolution costs after a hop dies) against the
    // unrestricted resolution on the same pair.
    {
        use fusedpack_net::HopKind;
        let topo = Hierarchy::lassen_like(64);
        let (a, b_) = (Endpoint::new(0, 0), Endpoint::new(63, 0));
        let healthy = topo.route(a, b_).expect("routable");
        let dead: Vec<u32> = healthy
            .iter()
            .filter(|h| topo.hops()[h.0 as usize].kind == HopKind::Rail)
            .map(|h| h.0)
            .take(1)
            .collect();
        g.bench_function("reroute_resolve_avoiding_dead_rail", |b| {
            b.iter(|| {
                black_box(
                    topo.route_avoiding(black_box(a), b_, black_box(&dead))
                        .expect("sibling rail survives"),
                )
            })
        });
        g.bench_function("reroute_resolve_unrestricted_baseline", |b| {
            b.iter(|| black_box(topo.route(black_box(a), b_).expect("routable")))
        });
        // The same re-resolution with 100 hops dead, as a faulted halo's
        // dead set reaches by the end of its run: the dead rail, one rail
        // of each other node (each keeps its sibling), and crossbar
        // segments. A table keyed by the dead set hashes all of it.
        let mut dead: Vec<u32> = (0..topo.hops().len() as u32)
            .filter(|&h| topo.hops()[h as usize].kind == HopKind::Rail)
            .skip(2)
            .step_by(2)
            .take(62)
            .chain(0..37)
            .chain(dead)
            .collect();
        dead.sort_unstable();
        assert_eq!(dead.len(), 100);
        g.bench_function("reroute_resolve_avoiding_100_dead", |b| {
            b.iter(|| {
                black_box(
                    topo.route_avoiding(black_box(a), b_, black_box(&dead))
                        .expect("every node keeps a rail"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    bench_hotpaths,
    bench_pack_shapes,
    bench_unpack_shapes,
    bench_event_queue,
    bench_gather_tier,
    bench_indexed_runs,
    bench_block_uniform_tier,
    bench_scheduler,
    bench_fault_hooks,
    bench_topology
);
criterion_main!(bench_hotpaths);
