//! Release-mode guard: scheduler bookkeeping costs O(1) in ring capacity.
//!
//! The progress engine asks the scheduler after every enqueue whether the
//! pending bytes crossed the fusion threshold, and flushes launch the
//! oldest pending requests. If either answer comes from a walk over the
//! ring's slots, host time per request grows with `ring_capacity` even
//! though the same 16 requests are in flight.
//!
//! The guard times one service cycle — 16 enqueues with a threshold check
//! after each, a sync-point flush, completion and retirement of every
//! request — on two schedulers that differ only in capacity (256, the
//! default, and 65,536), interleaved in one process, and requires the
//! large ring's median to stay within 1.5x of the small one's. Measured on
//! a 2-vCPU VM: 0.92–1.05x (about 2.0 µs a cycle at either capacity) with
//! the pending FIFO, running byte count and lazily grown slots; 455x
//! (8.2 µs against 3.7 ms) with the earlier per-check slot scan.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

use fusedpack_core::{FlushReason, FusionConfig, FusionOp, Scheduler, Uid};
use fusedpack_datatype::{CompiledLayout, TypeBuilder};
use fusedpack_gpu::{DataMode, DevPtr, Gpu, GpuArch, HostLink, StreamId};
use fusedpack_sim::Time;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 16;
const CYCLES_PER_SAMPLE: usize = 200;

struct Rig {
    sched: Scheduler,
    gpu: Gpu,
    layout: Arc<CompiledLayout>,
    uids: Vec<Uid>,
    t: Time,
}

impl Rig {
    fn new(ring_capacity: usize) -> Self {
        let cfg = FusionConfig {
            ring_capacity,
            ..FusionConfig::default()
        };
        Rig {
            sched: Scheduler::new(cfg),
            gpu: Gpu::new(
                GpuArch::v100(),
                1 << 22,
                DataMode::ModelOnly,
                HostLink::nvlink2_cpu(),
                2,
            ),
            layout: Arc::new(CompiledLayout::of(&TypeBuilder::vector(
                64,
                4,
                8,
                TypeBuilder::float(),
            ))),
            uids: Vec::with_capacity(BATCH),
            t: Time(0),
        }
    }

    fn flush(&mut self, reason: FlushReason) {
        if let Some(batch) = self.sched.flush(self.t, &mut self.gpu, StreamId(0), reason) {
            for &uid in &batch.uids {
                assert!(self.sched.signal_completion(uid));
            }
        }
    }

    /// One service cycle of `BATCH` requests.
    fn cycle(&mut self) {
        let ptr = DevPtr { addr: 0, len: 4096 };
        for _ in 0..BATCH {
            let (uid, cost) = self.sched.enqueue(
                self.t,
                FusionOp::Pack,
                ptr,
                ptr,
                Arc::clone(&self.layout),
                1,
                None,
            );
            self.uids.push(uid.expect("a batch fits the ring"));
            self.t += cost;
            if black_box(self.sched.threshold_reached()) {
                self.flush(FlushReason::ThresholdReached);
            }
        }
        self.flush(FlushReason::SyncPoint);
        for uid in std::mem::take(&mut self.uids) {
            self.t += self.sched.retire(self.t, uid);
        }
    }

    /// Host ns per cycle over `CYCLES_PER_SAMPLE` cycles.
    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..CYCLES_PER_SAMPLE {
            self.cycle();
        }
        start.elapsed().as_nanos() as f64 / CYCLES_PER_SAMPLE as f64
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[test]
fn scheduler_cycle_cost_is_independent_of_ring_capacity() {
    let mut small = Rig::new(256);
    let mut large = Rig::new(1 << 16);
    // Warm both: slot storage and batch buffers reach their steady size.
    small.sample();
    large.sample();
    assert_eq!(small.sched.stats(), large.sched.stats(), "same work");

    // Interleave the two so machine-speed drift hits both sides equally.
    let mut small_ns = Vec::new();
    let mut large_ns = Vec::new();
    for _ in 0..15 {
        small_ns.push(small.sample());
        large_ns.push(large.sample());
    }
    let (small_ns, large_ns) = (median(small_ns), median(large_ns));
    assert!(
        large_ns < 1.5 * small_ns,
        "a {BATCH}-request cycle at ring_capacity 65536 took {large_ns:.0} ns vs \
         {small_ns:.0} ns at 256 ({:.2}x >= 1.5x): a per-check slot scan is back",
        large_ns / small_ns
    );
}
