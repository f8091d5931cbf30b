//! The GPU device: memory + streams + launch API.
//!
//! All methods are *passive*: they take the instant at which the host CPU
//! issues the operation and return the timing of everything that follows.
//! The caller (the cluster driver in `fusedpack-mpi`) owns the event loop
//! and is responsible for (a) advancing the rank's CPU clock to
//! `cpu_release` and (b) scheduling completion events at the returned
//! instants. Data movement is applied eagerly at submission time — sound
//! because the simulated schemes never mutate a source buffer while a kernel
//! that reads it is in flight, and results only become *visible* to the
//! model at the completion instant.

use crate::arch::GpuArch;
use crate::copy::HostLink;
use crate::fused::{self, FusedLaunch};
use crate::gdr::GdrWindow;
use crate::kernel::{self, SegmentStats};
use crate::mem::{DataMode, MemPool};
use crate::stream::{Stream, StreamId};
use fusedpack_sim::Time;
use fusedpack_telemetry::{Lane, Payload, Telemetry};

/// Timing of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTiming {
    /// When the launching CPU becomes free again (launch call returned).
    pub cpu_release: Time,
    /// When the work starts on the device.
    pub start: Time,
    /// When the work completes on the device.
    pub done: Time,
}

/// One modelled GPU.
#[derive(Debug)]
pub struct Gpu {
    pub arch: GpuArch,
    pub mem: MemPool,
    pub gdr: GdrWindow,
    host_link: HostLink,
    streams: Vec<Stream>,
    kernels_launched: u64,
    telemetry: Telemetry,
}

impl Gpu {
    /// Create a device with `num_streams` streams and `mem_capacity` bytes
    /// of device memory.
    pub fn new(
        arch: GpuArch,
        mem_capacity: u64,
        mode: DataMode,
        host_link: HostLink,
        num_streams: usize,
    ) -> Self {
        assert!(num_streams >= 1, "need at least one stream");
        let gdr = GdrWindow::for_link(&host_link);
        Gpu {
            arch,
            mem: MemPool::new(mem_capacity, mode),
            gdr,
            host_link,
            streams: vec![Stream::new(); num_streams],
            kernels_launched: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder (already tagged with the owning rank).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    #[inline]
    pub fn host_link(&self) -> &HostLink {
        &self.host_link
    }

    /// Total kernel launches so far (single + fused).
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    fn stream_mut(&mut self, stream: StreamId) -> &mut Stream {
        &mut self.streams[stream.0 as usize]
    }

    /// Launch a standalone pack/unpack kernel at `at` on `stream`.
    ///
    /// The CPU is busy `[at, cpu_release)` with the driver call; the kernel
    /// becomes eligible `launch_gpu_delay` later and runs FIFO on the stream.
    pub fn launch_kernel(
        &mut self,
        at: Time,
        stream: StreamId,
        stats: SegmentStats,
    ) -> KernelTiming {
        let cpu_release = at + self.arch.launch_cpu;
        let ready = cpu_release + self.arch.launch_gpu_delay;
        let dur = kernel::single_kernel_time(&self.arch, stats);
        let (start, done) = self.stream_mut(stream).submit(ready, dur);
        self.kernels_launched += 1;
        self.telemetry
            .span(Lane::Host, at, cpu_release, || Payload::KernelLaunch {
                fused: false,
            });
        self.telemetry
            .span(Lane::Stream(stream.0), start, done, || {
                Payload::KernelExec {
                    bytes: stats.total_bytes,
                    blocks: stats.num_blocks,
                }
            });
        KernelTiming {
            cpu_release,
            start,
            done,
        }
    }

    /// Launch one *fused* kernel covering `works` requests at `at`, its
    /// thread blocks partitioned across the requests by `policy`.
    ///
    /// Costs a single CPU-side launch; per-request completion instants are
    /// returned individually (the cooperative groups signal their response
    /// status as they finish — no kernel-boundary synchronization).
    pub fn launch_fused_policy(
        &mut self,
        at: Time,
        stream: StreamId,
        works: &[fused::FusedWork],
        policy: fused::PartitionPolicy,
    ) -> FusedLaunch {
        let cpu_release = at + self.arch.launch_cpu;
        let ready = cpu_release + self.arch.launch_gpu_delay;
        let timing = fused::fused_timing_policy(&self.arch, works, policy);
        let (start, done) = self.stream_mut(stream).submit(ready, timing.total);
        self.kernels_launched += 1;
        self.telemetry
            .span(Lane::Host, at, cpu_release, || Payload::KernelLaunch {
                fused: true,
            });
        FusedLaunch {
            cpu_release,
            start,
            request_done: timing.per_request.iter().map(|&d| start + d).collect(),
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::PartitionPolicy;

    const WEIGHTED: PartitionPolicy = PartitionPolicy::WeightedByWork;

    fn gpu() -> Gpu {
        Gpu::new(
            GpuArch::v100(),
            1 << 20,
            DataMode::Full,
            HostLink::nvlink2_cpu(),
            4,
        )
    }

    #[test]
    fn launch_charges_cpu_then_runs() {
        let mut g = gpu();
        let t = g.launch_kernel(Time(1000), StreamId(0), SegmentStats::new(4096, 16));
        assert_eq!(t.cpu_release, Time(1000) + g.arch.launch_cpu);
        assert_eq!(t.start, t.cpu_release + g.arch.launch_gpu_delay);
        assert!(t.done > t.start);
        assert_eq!(g.kernels_launched(), 1);
    }

    #[test]
    fn same_stream_kernels_serialize_different_streams_overlap() {
        let mut g = gpu();
        // Long kernels (64 MiB) so the stream is still busy when the second
        // launch arrives.
        let stats = SegmentStats::new(64 << 20, 16384);
        let a = g.launch_kernel(Time(0), StreamId(0), stats);
        let b = g.launch_kernel(a.cpu_release, StreamId(0), stats);
        assert_eq!(b.start, a.done, "same stream: FIFO");

        let mut g2 = gpu();
        let a2 = g2.launch_kernel(Time(0), StreamId(0), stats);
        let b2 = g2.launch_kernel(a2.cpu_release, StreamId(1), stats);
        assert!(b2.start < a2.done, "different streams: concurrent");
    }

    #[test]
    fn fused_launch_pays_one_cpu_launch() {
        let mut g = gpu();
        let works = vec![SegmentStats::new(4096, 16).into(); 8];
        let f = g.launch_fused_policy(Time(0), StreamId(0), &works, WEIGHTED);
        assert_eq!(f.cpu_release, Time(0) + g.arch.launch_cpu);
        assert_eq!(f.request_done.len(), 8);
        assert!(f.request_done.iter().all(|&t| t <= f.done));
        assert_eq!(g.kernels_launched(), 1);
    }

    #[test]
    fn fused_beats_back_to_back_singles_end_to_end() {
        // 8 small pack requests: fused finishes far earlier than 8 serial
        // launch+kernel rounds — the paper's Fig. 2 "DYNAMIC KERNEL FUSION".
        let stats = SegmentStats::new(16 * 1024, 64);
        let mut g1 = gpu();
        let mut t = Time(0);
        let mut last_done = Time(0);
        for _ in 0..8 {
            let k = g1.launch_kernel(t, StreamId(0), stats);
            t = k.cpu_release;
            last_done = k.done;
        }
        let mut g2 = gpu();
        let works = vec![stats.into(); 8];
        let f = g2.launch_fused_policy(Time(0), StreamId(0), &works, WEIGHTED);
        assert!(
            f.done.as_nanos() * 3 < last_done.as_nanos(),
            "fused {:?} should be >3x faster than serial singles {:?}",
            f.done,
            last_done
        );
    }
}
