//! The fusion scheduler (§IV-A2, Fig. 5).
//!
//! Four primary functions, mirroring the paper's ①–④:
//!
//! * **① enqueue** — take a pack/unpack/DirectIPC request from the progress
//!   engine, fill a request-list entry, move the Tail, return the UID (or a
//!   rejection, the paper's negative UID, when the ring is full).
//! * **② launch** — when either flush condition of §IV-C holds (the
//!   progress engine reached a synchronization point, or enough bytes are
//!   pending), launch one fused kernel over the oldest pending requests
//!   with the request array as input.
//! * **③ complete** — as each cooperative group finishes, its request's
//!   *response status* flips to `Completed`. In this simulation the cluster
//!   event loop calls [`Scheduler::signal_completion`] at the per-request
//!   completion instant computed by the GPU model.
//! * **④ query** — the progress engine checks a UID by comparing request
//!   status to response status; no kernel-boundary synchronization ever
//!   happens.

use crate::adapt::{AdaptiveThreshold, FlushFeedback};
use crate::config::{FusionConfig, COMPLETE_COST, ENQUEUE_COST, QUERY_COST};
use crate::request::{FusionOp, Uid};
use crate::ring::{EnqueueError, RequestRing};
use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::{DevPtr, FusedLaunch, FusedWork, Gpu, GpuArch, StreamId};
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::{FlushReasonTag, Lane, Payload, Telemetry};
use std::borrow::Borrow;

/// Why a fused kernel was launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The progress engine reached a synchronization point (`MPI_Waitall`)
    /// — §IV-C scenario 1.
    SyncPoint,
    /// Pending bytes crossed the fusion threshold — §IV-C scenario 2.
    ThresholdReached,
    /// The ring was full and had to be drained to accept new work.
    RingPressure,
}

impl FlushReason {
    fn tag(self) -> FlushReasonTag {
        match self {
            FlushReason::SyncPoint => FlushReasonTag::SyncPoint,
            FlushReason::ThresholdReached => FlushReasonTag::ThresholdReached,
            FlushReason::RingPressure => FlushReasonTag::RingPressure,
        }
    }
}

/// A launched batch: the fused requests and the launch timing.
#[derive(Debug, Clone)]
pub struct FlushedBatch {
    pub reason: FlushReason,
    /// UIDs in the batch, aligned with `launch.request_done`: always a run
    /// of consecutive UIDs, oldest first.
    pub uids: Vec<Uid>,
    pub launch: FusedLaunch,
}

/// Scheduler counters (feeding the Fig. 11 "Scheduling" bucket and the
/// fusion diagnostics in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    pub enqueued: u64,
    pub rejected: u64,
    pub kernels_launched: u64,
    pub requests_fused: u64,
    pub bytes_fused: u64,
    pub flushes_sync: u64,
    pub flushes_threshold: u64,
    pub flushes_pressure: u64,
    pub queries: u64,
    /// Smallest fused-batch size so far (0 until the first flush).
    pub batch_min: u64,
    /// Largest fused-batch size so far.
    pub batch_max: u64,
    /// Threshold adjustments committed by the adaptive controller (0 when
    /// the controller is disabled). Always ≤ `kernels_launched`, since the
    /// controller commits at most one step per flush.
    pub threshold_adjusts: u64,
    /// Flushes that degraded to per-request (non-fused) kernels because the
    /// cooperative launch failed. Zero on fault-free runs.
    pub degraded_flushes: u64,
}

impl SchedStats {
    /// Average requests per fused kernel.
    pub fn fusion_degree(&self) -> f64 {
        if self.kernels_launched == 0 {
            0.0
        } else {
            self.requests_fused as f64 / self.kernels_launched as f64
        }
    }
}

/// The fusion scheduler. One instance runs per rank, on the same thread as
/// the communication progress engine (the common deployment the paper
/// evaluates).
#[derive(Debug)]
pub struct Scheduler {
    config: FusionConfig,
    ring: RequestRing,
    stats: SchedStats,
    tele: Telemetry,
    adapt: Option<AdaptiveThreshold>,
}

impl Scheduler {
    pub fn new(config: FusionConfig) -> Self {
        let ring = RequestRing::new(config.ring_capacity);
        Scheduler {
            config,
            ring,
            stats: SchedStats::default(),
            tele: Telemetry::disabled(),
            adapt: None,
        }
    }

    /// Attach a telemetry recorder (already tagged with the owning rank).
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// One-call construction for a middleware hook surface: build the
    /// scheduler, attach telemetry, and (for the adaptive scheme) enable
    /// the online threshold controller for `adaptive_arch`.
    pub fn configured(
        config: FusionConfig,
        adaptive_arch: Option<&GpuArch>,
        tele: Telemetry,
    ) -> Self {
        let mut sched = Scheduler::new(config);
        sched.set_telemetry(tele);
        if let Some(arch) = adaptive_arch {
            sched.enable_adaptive(arch);
        }
        sched
    }

    /// Turn on online threshold adaptation (the *Proposed-Adaptive*
    /// scheme): every flush feeds an [`AdaptiveThreshold`] controller that
    /// may retune `threshold_bytes` before the next enqueue.
    pub fn enable_adaptive(&mut self, arch: &GpuArch) {
        self.adapt = Some(AdaptiveThreshold::new(arch.clone()));
    }

    /// The adaptive controller, when enabled.
    pub fn adaptive(&self) -> Option<&AdaptiveThreshold> {
        self.adapt.as_ref()
    }

    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// ① Enqueue a request at `now` for `count` elements of `layout`.
    /// Returns the UID (or rejection) and the CPU cost of the scheduling
    /// work, which the caller charges to its rank clock.
    ///
    /// The request keeps only the layout's shape, so the layout is
    /// borrowed. `_origin` and `_target` (the buffers the kernel reads and
    /// writes) are accepted and ignored: the caller's copy engine moves the
    /// bytes. They stay only because the `fpbench` benchmark package passes
    /// them and changes only with the benchmark.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        &mut self,
        now: Time,
        op: FusionOp,
        _origin: DevPtr,
        _target: DevPtr,
        layout: impl Borrow<CompiledLayout>,
        count: u64,
        bw_cap: Option<f64>,
    ) -> (Result<Uid, EnqueueError>, Duration) {
        let layout = layout.borrow();
        let bytes = layout.total_bytes(count);
        let res = self.ring.enqueue(op, layout, count, bw_cap);
        match res {
            Ok(uid) => {
                self.stats.enqueued += 1;
                let occupancy = self.ring.occupied() as u32;
                self.tele.instant(Lane::Host, now, || Payload::Enqueue {
                    uid: uid.0,
                    bytes,
                    ring_occupancy: occupancy,
                });
                self.tele
                    .counter(now, "ring_occupancy", self.ring.occupied() as f64);
            }
            Err(_) => {
                self.stats.rejected += 1;
                self.tele
                    .instant(Lane::Host, now, || Payload::EnqueueRejected { bytes });
            }
        }
        (res, ENQUEUE_COST)
    }

    /// Are there pending (not yet fused) requests?
    pub fn has_pending(&self) -> bool {
        self.ring.has_pending()
    }

    /// §IV-C scenario 2: pending bytes reached the fusion threshold.
    pub fn threshold_reached(&self) -> bool {
        self.ring.pending_bytes() >= self.config.threshold_bytes
    }

    /// Nothing in the ring: no live request and no pending bytes (the
    /// run-end state of every rank).
    pub fn is_idle(&self) -> bool {
        self.ring.occupied() == 0 && self.ring.pending_bytes() == 0
    }

    /// Occupied ring slots (pending, busy, or completed-but-unretired).
    ///
    /// The backpressure ladder uses this as its liveness guard: a requeue
    /// after `RingFull` is only safe when at least one occupant will retire
    /// later and drain the queue.
    pub fn ring_occupied(&self) -> usize {
        self.ring.occupied()
    }

    /// ② Launch one fused kernel over the oldest pending requests (up to
    /// `max_fused`). Returns `None` when nothing is pending.
    ///
    /// The caller is responsible for applying the batch's data movement to
    /// its memory pools (it owns them) and for scheduling
    /// [`Scheduler::signal_completion`] at each `launch.request_done[i]`.
    pub fn flush(
        &mut self,
        now: Time,
        gpu: &mut Gpu,
        stream: StreamId,
        reason: FlushReason,
    ) -> Option<FlushedBatch> {
        self.flush_batch(now, gpu, stream, reason, false)
    }

    /// ② (degraded) Drain the oldest pending requests with one *non-fused*
    /// kernel launch per request — the recovery ladder taken when the
    /// cooperative launch fails under fault injection. Serial launches on
    /// one stream: the CPU pays a driver call per request and the kernels
    /// run FIFO, exactly the pre-fusion baseline the paper improves on.
    ///
    /// The returned batch is shaped like a fused one (`uids` aligned with
    /// `launch.request_done`), so completion signalling, retirement, and
    /// data-movement handling are unchanged downstream. The fused-batch
    /// counters (`bytes_fused`, `requests_fused`, `batch_min`/`batch_max`)
    /// are left untouched.
    pub fn flush_degraded(
        &mut self,
        now: Time,
        gpu: &mut Gpu,
        stream: StreamId,
        reason: FlushReason,
    ) -> Option<FlushedBatch> {
        self.flush_batch(now, gpu, stream, reason, true)
    }

    /// The one body of [`Scheduler::flush`] and
    /// [`Scheduler::flush_degraded`]: take the batch, launch it fused or
    /// one kernel per request, count it, and feed the adaptive controller.
    fn flush_batch(
        &mut self,
        now: Time,
        gpu: &mut Gpu,
        stream: StreamId,
        reason: FlushReason,
        degraded: bool,
    ) -> Option<FlushedBatch> {
        let n = self.ring.pending_len().min(self.config.max_fused);
        if n == 0 {
            return None;
        }
        let mut batch: Vec<Uid> = Vec::with_capacity(n);
        let mut works: Vec<FusedWork> = Vec::with_capacity(n);
        let mut unpacks: Vec<bool> = Vec::with_capacity(n);
        for _ in 0..n {
            let req = self.ring.launch_next().expect("n requests are pending");
            batch.push(req.uid);
            unpacks.push(req.op == FusionOp::Unpack);
            works.push(req.work());
        }
        // UIDs are issued in enqueue order and the ring launches its
        // pending requests oldest first, so the pending queue always holds
        // a consecutive run of UIDs and so does every batch. The cluster's
        // completion path relies on it: it signals a run of same-instant
        // completions as one event of `(first uid, count)`.
        debug_assert!(
            batch.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "a flushed batch's UIDs are consecutive: {batch:?}"
        );
        let batch_bytes: u64 = works.iter().map(|w| w.stats.total_bytes).sum();
        let batch_blocks: u64 = works.iter().map(|w| w.stats.num_blocks).sum();
        let n = n as u64;
        let (launch, launch_cpu) = if degraded {
            self.stats.kernels_launched += n;
            self.stats.degraded_flushes += 1;
            (
                serial_launch(now, gpu, stream, &works),
                gpu.arch.launch_cpu * n,
            )
        } else {
            self.stats.kernels_launched += 1;
            self.stats.requests_fused += n;
            self.stats.bytes_fused += batch_bytes;
            self.stats.batch_min = if self.stats.batch_min == 0 {
                n
            } else {
                self.stats.batch_min.min(n)
            };
            self.stats.batch_max = self.stats.batch_max.max(n);
            let launch = gpu.launch_fused_policy(now, stream, &works, self.config.partition);
            (launch, gpu.arch.launch_cpu)
        };
        match reason {
            FlushReason::SyncPoint => self.stats.flushes_sync += 1,
            FlushReason::ThresholdReached => self.stats.flushes_threshold += 1,
            FlushReason::RingPressure => self.stats.flushes_pressure += 1,
        }
        if self.tele.is_enabled() {
            let requests = n as u32;
            self.tele
                .instant(Lane::Host, now, || Payload::FlushDecision {
                    reason: reason.tag(),
                    requests,
                    bytes: batch_bytes,
                });
            if !degraded {
                self.tele
                    .span(Lane::Stream(stream.0), launch.start, launch.done, || {
                        Payload::FusedExec {
                            requests,
                            bytes: batch_bytes,
                            reason: reason.tag(),
                        }
                    });
                for ((&uid, w), (&done, &unpack)) in batch
                    .iter()
                    .zip(&works)
                    .zip(launch.request_done.iter().zip(&unpacks))
                {
                    self.tele
                        .span(Lane::Stream(stream.0), launch.start, done, || {
                            Payload::PackSpan {
                                uid: uid.0,
                                bytes: w.stats.total_bytes,
                                unpack,
                            }
                        });
                }
            }
        }
        // The controller observes degraded flushes too: serial per-request
        // kernels collapse the measured pack bandwidth, which is exactly
        // the signal that should push the threshold around under faults.
        if let Some(adapt) = self.adapt.as_mut() {
            let feedback = FlushFeedback {
                reason,
                requests: n,
                bytes: batch_bytes,
                blocks: batch_blocks,
                body: launch.done - launch.start,
                launch: launch_cpu,
            };
            if let Some(next) = adapt.observe(self.config.threshold_bytes, &feedback) {
                let old = self.config.threshold_bytes;
                self.config.threshold_bytes = next;
                self.stats.threshold_adjusts += 1;
                self.tele
                    .instant(Lane::Host, now, || Payload::ThresholdAdjust {
                        old_bytes: old,
                        new_bytes: next,
                    });
                self.tele
                    .counter(now, "fusion_threshold_bytes", next as f64);
            }
        }
        Some(FlushedBatch {
            reason,
            uids: batch,
            launch,
        })
    }

    /// ③ The device signals completion of `uid` (called by the event loop
    /// at the instant the request's cooperative group finishes).
    ///
    /// Returns `false` for an unknown UID — a duplicate or stale completion
    /// (possible under fault injection) is dropped rather than fatal — and
    /// for a request that was never launched.
    pub fn signal_completion(&mut self, uid: Uid) -> bool {
        self.ring.complete(uid)
    }

    /// ④ Progress-engine query at `now`: is `uid` complete? Returns the
    /// answer and the CPU cost of the check.
    pub fn query(&mut self, now: Time, uid: Uid) -> (bool, Duration) {
        self.stats.queries += 1;
        let complete = self.ring.get(uid).is_some_and(|r| r.is_complete());
        self.tele.instant(Lane::Host, now, || Payload::Query {
            uid: uid.0,
            ready: complete,
        });
        (complete, QUERY_COST)
    }

    /// Consume a completed request at `now`, freeing its ring slot. Returns
    /// the CPU cost of the completion handling, or zero for an unknown UID
    /// (a stale retirement is ignored, not fatal).
    pub fn retire(&mut self, now: Time, uid: Uid) -> Duration {
        if !self.ring.retire(uid) {
            return Duration::ZERO;
        }
        let occupancy = self.ring.occupied() as u32;
        self.tele.instant(Lane::Host, now, || Payload::Retire {
            uid: uid.0,
            ring_occupancy: occupancy,
        });
        self.tele.counter(now, "ring_occupancy", occupancy as f64);
        COMPLETE_COST
    }
}

/// Launch `works` as one plain kernel each, back to back on `stream`,
/// shaped like a fused launch.
fn serial_launch(now: Time, gpu: &mut Gpu, stream: StreamId, works: &[FusedWork]) -> FusedLaunch {
    let mut cpu = now;
    let mut first_start = None;
    let mut request_done = Vec::with_capacity(works.len());
    let mut done = now;
    for work in works {
        let k = gpu.launch_kernel(cpu, stream, work.stats);
        cpu = k.cpu_release;
        first_start.get_or_insert(k.start);
        request_done.push(k.done);
        done = done.max(k.done);
    }
    FusedLaunch {
        cpu_release: cpu,
        start: first_start.unwrap_or(now),
        request_done,
        done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_datatype::TypeBuilder;
    use fusedpack_gpu::{DataMode, GpuArch, HostLink, SegmentStats};

    fn gpu() -> Gpu {
        Gpu::new(
            GpuArch::v100(),
            1 << 22,
            DataMode::ModelOnly,
            HostLink::nvlink2_cpu(),
            2,
        )
    }

    fn layout(bytes_per_elem: u64) -> CompiledLayout {
        // bytes_per_elem across 2 blocks.
        let half = bytes_per_elem / 2;
        CompiledLayout::of(&TypeBuilder::vector(2, half, half + 8, TypeBuilder::byte()))
    }

    fn sched(threshold: u64) -> Scheduler {
        Scheduler::new(FusionConfig::with_threshold(threshold))
    }

    fn enqueue(s: &mut Scheduler, bytes: u64) -> Uid {
        let (res, _cost) = s.enqueue(
            Time(0),
            FusionOp::Pack,
            DevPtr { addr: 0, len: 4096 },
            DevPtr {
                addr: 8192,
                len: 4096,
            },
            layout(bytes),
            1,
            None,
        );
        res.expect("ring has room")
    }

    #[test]
    fn threshold_triggers_scenario_two() {
        let mut s = sched(1024);
        enqueue(&mut s, 512);
        assert!(!s.threshold_reached());
        enqueue(&mut s, 512);
        assert!(s.threshold_reached(), "1024 pending bytes >= threshold");
    }

    #[test]
    fn flush_fuses_all_pending_into_one_kernel() {
        let mut s = sched(u64::MAX);
        let mut g = gpu();
        let uids: Vec<Uid> = (0..6).map(|_| enqueue(&mut s, 256)).collect();
        let batch = s
            .flush(Time(0), &mut g, StreamId(0), FlushReason::SyncPoint)
            .expect("pending work");
        assert_eq!(batch.uids, uids);
        assert_eq!(batch.launch.request_done.len(), 6);
        assert_eq!(g.kernels_launched(), 1, "one fused kernel for 6 requests");
        assert!(!s.has_pending(), "everything went busy");
        assert_eq!(s.stats().fusion_degree(), 6.0);
    }

    #[test]
    fn flush_respects_max_fused() {
        let cfg = FusionConfig {
            max_fused: 4,
            ..FusionConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        let mut g = gpu();
        for _ in 0..10 {
            enqueue(&mut s, 128);
        }
        let batch = s
            .flush(Time(0), &mut g, StreamId(0), FlushReason::ThresholdReached)
            .expect("pending");
        assert_eq!(batch.uids.len(), 4);
        assert!(s.has_pending(), "6 requests remain pending");
    }

    #[test]
    fn completion_protocol_round_trip() {
        let mut s = sched(u64::MAX);
        let mut g = gpu();
        let uid = enqueue(&mut s, 256);
        let (done, _) = s.query(Time(0), uid);
        assert!(!done, "not complete before launch");
        let batch = s
            .flush(Time(0), &mut g, StreamId(0), FlushReason::SyncPoint)
            .expect("pending");
        let (done, _) = s.query(Time(0), uid);
        assert!(!done, "busy, response not signalled yet");
        s.signal_completion(uid);
        let (done, _) = s.query(Time(0), uid);
        assert!(done, "response status flipped");
        let _ = s.retire(Time(0), uid);
        let _ = batch;
    }

    #[test]
    fn flush_on_empty_ring_is_none() {
        let mut s = sched(1024);
        let mut g = gpu();
        assert!(s
            .flush(Time(0), &mut g, StreamId(0), FlushReason::SyncPoint)
            .is_none());
    }

    #[test]
    fn rejection_counts_and_pressure() {
        let cfg = FusionConfig {
            ring_capacity: 2,
            ..FusionConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        enqueue(&mut s, 128);
        enqueue(&mut s, 128);
        let (res, _) = s.enqueue(
            Time(0),
            FusionOp::Pack,
            DevPtr { addr: 0, len: 64 },
            DevPtr { addr: 64, len: 64 },
            layout(128),
            1,
            None,
        );
        assert!(res.is_err());
        assert_eq!(s.stats().rejected, 1);
    }

    #[test]
    fn mixed_op_batch_records_bytes() {
        let mut s = sched(u64::MAX);
        let mut g = gpu();
        let (pack, _) = s.enqueue(
            Time(0),
            FusionOp::Pack,
            DevPtr { addr: 0, len: 512 },
            DevPtr {
                addr: 512,
                len: 512,
            },
            layout(256),
            1,
            None,
        );
        let (ipc, _) = s.enqueue(
            Time(0),
            FusionOp::DirectIpc,
            DevPtr {
                addr: 1024,
                len: 512,
            },
            DevPtr {
                addr: 2048,
                len: 512,
            },
            layout(256),
            1,
            Some(75.0e9),
        );
        pack.expect("ok");
        ipc.expect("ok");
        let batch = s
            .flush(Time(0), &mut g, StreamId(0), FlushReason::SyncPoint)
            .expect("pending");
        assert_eq!(batch.uids.len(), 2);
        assert_eq!(s.stats().bytes_fused, 512);
    }

    #[test]
    fn degraded_flush_preserves_batch_shape_and_protocol() {
        let mut s = sched(u64::MAX);
        let mut g = gpu();
        let uids: Vec<Uid> = (0..4).map(|_| enqueue(&mut s, 4096)).collect();
        let batch = s
            .flush_degraded(Time(0), &mut g, StreamId(0), FlushReason::SyncPoint)
            .expect("pending work");
        assert_eq!(batch.uids, uids);
        assert_eq!(batch.launch.request_done.len(), 4);
        assert!(batch
            .launch
            .request_done
            .iter()
            .all(|&t| t <= batch.launch.done));
        assert_eq!(g.kernels_launched(), 4, "one plain kernel per request");
        let stats = s.stats();
        assert_eq!(stats.degraded_flushes, 1);
        assert_eq!(stats.kernels_launched, 4);
        assert_eq!(stats.flushes_sync, 1);
        // Nothing was fused, so the fused-batch counters stay untouched.
        assert_eq!(stats.requests_fused, 0, "nothing fused");
        assert_eq!(stats.bytes_fused, 0);
        assert_eq!((stats.batch_min, stats.batch_max), (0, 0));
        assert!(!s.has_pending());
        // Completion/retire protocol unchanged downstream.
        for &uid in &batch.uids {
            assert!(s.signal_completion(uid));
            let (ready, _) = s.query(Time(0), uid);
            assert!(ready);
            let _ = s.retire(Time(0), uid);
        }
    }

    #[test]
    fn degraded_flush_slower_than_fused() {
        let mut fused = sched(u64::MAX);
        let mut degraded = sched(u64::MAX);
        let mut g1 = gpu();
        let mut g2 = gpu();
        for _ in 0..8 {
            enqueue(&mut fused, 16 * 1024);
            enqueue(&mut degraded, 16 * 1024);
        }
        let a = fused
            .flush(Time(0), &mut g1, StreamId(0), FlushReason::SyncPoint)
            .expect("pending");
        let b = degraded
            .flush_degraded(Time(0), &mut g2, StreamId(0), FlushReason::SyncPoint)
            .expect("pending");
        assert!(
            a.launch.done < b.launch.done,
            "fused {:?} must beat serial degraded {:?}",
            a.launch.done,
            b.launch.done
        );
    }

    #[test]
    fn unknown_completion_and_retire_are_tolerated() {
        let mut s = sched(1024);
        assert!(!s.signal_completion(Uid(404)), "unknown uid dropped");
        assert_eq!(
            s.retire(Time(0), Uid(404)),
            Duration::ZERO,
            "stale retire costs nothing"
        );
    }

    #[test]
    fn fused_path_cheaper_than_unfused_for_bulk() {
        // End-to-end scheduler comparison: 16 requests through the fusion
        // scheduler vs 16 standalone launches, measuring makespan.
        let stats = SegmentStats::new(16 * 1024, 128);
        let mut unfused = gpu();
        let mut t = Time(0);
        let mut last = Time(0);
        for _ in 0..16 {
            let k = unfused.launch_kernel(t, StreamId(0), stats);
            t = k.cpu_release;
            last = last.max(k.done);
        }

        let mut s = sched(u64::MAX);
        let mut g = gpu();
        let mut cpu = Time(0);
        for _ in 0..16 {
            let uid = enqueue(&mut s, 16 * 1024);
            let (_, cost) = s.query(cpu, uid); // a poll per enqueue, pessimistic
            cpu = cpu + ENQUEUE_COST + cost;
        }
        let batch = s
            .flush(cpu, &mut g, StreamId(0), FlushReason::SyncPoint)
            .expect("pending");
        assert!(
            batch.launch.done < last,
            "fused makespan {:?} must beat serial {:?}",
            batch.launch.done,
            last
        );
    }
}
