//! Per-layer measurements made from outside the program: the telemetry
//! payload census of a traced run, and replays that time one layer's public
//! functions on the workload's own shapes.

use fusedpack_core::{FlushReason, FusionConfig, FusionOp, Scheduler, Uid};
use fusedpack_datatype::{pack, CompiledLayout, TypeDesc};
use fusedpack_gpu::{DataMode, DevPtr, StreamId};
use fusedpack_net::{Endpoint, Platform, TopoNet, TopologyHandle};
use fusedpack_sim::{EventQueue, Pcg32, Time};
use fusedpack_telemetry::{Payload, TimelineSnapshot};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The simulator layers a traced run's events are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Sim,
    Core,
    Gpu,
    Mpi,
    Net,
    Datatype,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Sim,
        Layer::Core,
        Layer::Gpu,
        Layer::Mpi,
        Layer::Net,
        Layer::Datatype,
    ];

    /// The `trace.<layer>` metric name.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Sim => "trace.sim",
            Layer::Core => "trace.core",
            Layer::Gpu => "trace.gpu",
            Layer::Mpi => "trace.mpi",
            Layer::Net => "trace.net",
            Layer::Datatype => "trace.datatype",
        }
    }
}

/// The layer that records `payload`. Exhaustive with no wildcard arm, so a
/// new payload kind does not compile until it is attributed. `SweepCell` is
/// recorded by the `reproduce` sweep executor, never inside a cluster run.
pub fn layer_of(payload: &Payload) -> Option<Layer> {
    Some(match payload {
        Payload::QueueHealth { .. }
        | Payload::ClampedEvent { .. }
        | Payload::ShardBarrier { .. } => Layer::Sim,
        Payload::Enqueue { .. }
        | Payload::EnqueueRejected { .. }
        | Payload::FlushDecision { .. }
        | Payload::ThresholdAdjust { .. }
        | Payload::Query { .. }
        | Payload::Retire { .. } => Layer::Core,
        Payload::KernelExec { .. }
        | Payload::FusedExec { .. }
        | Payload::KernelLaunch { .. }
        | Payload::Memcpy { .. }
        | Payload::PackSpan { .. } => Layer::Gpu,
        Payload::EagerSend { .. }
        | Payload::Rndv { .. }
        | Payload::Deliver { .. }
        | Payload::SyncWait { .. }
        | Payload::BucketCharge { .. }
        | Payload::Marker { .. }
        | Payload::FaultInjected { .. }
        | Payload::Retry { .. }
        | Payload::Degraded { .. } => Layer::Mpi,
        Payload::RdmaPost { .. }
        | Payload::WireTransfer { .. }
        | Payload::HopTransfer { .. }
        | Payload::HopDown { .. }
        | Payload::Rerouted { .. }
        | Payload::RailFailover { .. } => Layer::Net,
        Payload::LayoutCacheHealth { .. } => Layer::Datatype,
        Payload::SweepCell { .. } => return None,
    })
}

/// Recorded events per layer, in [`Layer::ALL`] order.
pub fn census(snapshot: &TimelineSnapshot) -> [u64; 6] {
    let mut counts = [0u64; 6];
    for e in &snapshot.events {
        if let Some(layer) = layer_of(&e.payload) {
            counts[Layer::ALL.iter().position(|&l| l == layer).expect("in ALL")] += 1;
        }
    }
    counts
}

/// Batches per timed replay; the reported figure is their median.
const BATCHES: usize = 5;
/// Minimum host time of one batch.
const BATCH_SECS: f64 = 0.02;

/// Median over [`BATCHES`] batches of the host seconds one call of `f`
/// takes, each batch calling it until [`BATCH_SECS`] have passed.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                f();
                calls += 1;
                let secs = start.elapsed().as_secs_f64();
                if secs >= BATCH_SECS {
                    break secs / calls as f64;
                }
            }
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Pops (and re-pushes) per timed call of the hold model.
const HOLDS_PER_CALL: u64 = 1024;

/// Host ns per pop+push of [`EventQueue`] in the classic hold model at a
/// constant `depth`: each popped event is re-pushed a random 0–8 µs later.
pub fn hold_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = Pcg32::new(seed, 0x401d);
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.push_at(Time(rng.next_below(8_192) as u64), i);
    }
    secs_per_call(|| {
        for _ in 0..HOLDS_PER_CALL {
            let (t, e) = q.pop().expect("hold keeps depth constant");
            q.push_at(Time(t.0 + rng.next_below(8_192) as u64), black_box(e));
        }
    }) * 1e9
        / HOLDS_PER_CALL as f64
}

/// Host ns per request of one [`Scheduler`] service cycle at the
/// workload's batch shape: `batch` enqueues with a threshold check after
/// each, a sync-point flush, completion and retirement of every request.
pub fn cycle_ns_per_req(layout: &CompiledLayout, count: u64, batch: usize, adaptive: bool) -> f64 {
    let platform = Platform::lassen();
    let mut gpu = platform.make_gpu(1 << 22, DataMode::ModelOnly);
    let mut sched = Scheduler::new(FusionConfig::default());
    if adaptive {
        sched.enable_adaptive(&platform.arch);
    }
    let layout = Arc::new(layout.clone());
    let origin = DevPtr {
        addr: 0,
        len: layout.footprint(count),
    };
    let target = DevPtr {
        addr: origin.len,
        len: layout.total_bytes(count),
    };
    let mut uids: Vec<Uid> = Vec::with_capacity(batch);
    let mut t = Time(0);
    secs_per_call(|| {
        for _ in 0..batch {
            let (uid, cost) = sched.enqueue(
                t,
                FusionOp::Pack,
                origin,
                target,
                layout.clone(),
                count,
                None,
            );
            uids.push(uid.expect("a batch fits the ring"));
            t += cost;
            if sched.threshold_reached() {
                flush(&mut sched, &mut gpu, t, FlushReason::ThresholdReached);
            }
        }
        flush(&mut sched, &mut gpu, t, FlushReason::SyncPoint);
        for uid in uids.drain(..) {
            t += sched.retire(t, uid);
        }
    }) * 1e9
        / batch as f64
}

fn flush(sched: &mut Scheduler, gpu: &mut fusedpack_gpu::Gpu, t: Time, reason: FlushReason) {
    if let Some(batch) = sched.flush(t, gpu, StreamId(0), reason) {
        for &uid in &batch.uids {
            sched.signal_completion(uid);
        }
    }
}

/// Host µs per `CompiledLayout::of` on the workload's type.
pub fn compile_us(desc: &TypeDesc) -> f64 {
    secs_per_call(|| {
        black_box(CompiledLayout::of(black_box(desc)));
    }) * 1e6
}

/// Host GB/s of `pack::pack_into` and `pack::unpack` on the workload's
/// (type, count), counted in packed bytes.
pub fn pack_unpack_gbps(layout: &CompiledLayout, count: u64, seed: u64) -> (f64, f64) {
    let mut rng = Pcg32::new(seed, 0xda7a);
    let mut src = vec![0u8; layout.footprint(count) as usize];
    rng.fill_bytes(&mut src);
    let mut packed = vec![0u8; layout.total_bytes(count) as usize];
    let mut dst = vec![0u8; src.len()];
    let bytes = packed.len() as f64;
    let pack_s = secs_per_call(|| pack::pack_into(black_box(&src), layout, count, &mut packed));
    let unpack_s = secs_per_call(|| pack::unpack(black_box(&packed), layout, count, &mut dst));
    (bytes / pack_s / 1e9, bytes / unpack_s / 1e9)
}

/// [`TopoNet`] over the workload's endpoint pairs: host µs per `resolve`
/// on a freshly built fabric (route tables cold), ns per `resolve` once
/// cached, and ns per `transmit` of `bytes`.
pub struct NetReplay {
    pub resolve_cold_us: f64,
    pub resolve_warm_ns: f64,
    pub transmit_ns: f64,
}

pub fn net_replay(
    fabric: impl Fn() -> TopologyHandle,
    pairs: &[(Endpoint, Endpoint)],
    bytes: u64,
) -> NetReplay {
    let n = pairs.len() as f64;
    let resolve_all = |net: &mut TopoNet| {
        for &key in pairs {
            black_box(net.resolve(key).expect("workload pairs are routable"));
        }
    };
    let mut cold: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut net = TopoNet::new(fabric());
            let start = Instant::now();
            resolve_all(&mut net);
            start.elapsed().as_secs_f64()
        })
        .collect();
    let mut net = TopoNet::new(fabric());
    resolve_all(&mut net);
    let warm = secs_per_call(|| resolve_all(&mut net));
    let transmit = secs_per_call(|| {
        net.reset();
        for &key in pairs {
            black_box(net.transmit(Time(0), key, bytes, None).expect("routable"));
        }
    });
    NetReplay {
        resolve_cold_us: crate::stats::median(&mut cold) * 1e6 / n,
        resolve_warm_ns: warm * 1e9 / n,
        transmit_ns: transmit * 1e9 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_sim::Duration;
    use fusedpack_telemetry::{Event, Lane};

    #[test]
    fn census_attributes_every_cluster_payload() {
        let event = |payload| Event {
            rank: 0,
            lane: Lane::Host,
            start: Time(0),
            dur: None::<Duration>,
            payload,
        };
        let snapshot = TimelineSnapshot {
            events: vec![
                event(Payload::WireTransfer { bytes: 1 }),
                event(Payload::Query {
                    uid: 1,
                    ready: true,
                }),
                event(Payload::Marker { label: "lap" }),
                event(Payload::SweepCell {
                    index: 0,
                    worker: 0,
                }),
            ],
            ..TimelineSnapshot::default()
        };
        // sim, core, gpu, mpi, net, datatype
        assert_eq!(census(&snapshot), [0, 1, 0, 1, 1, 0]);
    }
}
