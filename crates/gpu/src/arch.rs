//! Per-architecture model constants.
//!
//! The numbers below are calibrated from three sources:
//!
//! 1. the paper's Fig. 1, which shows kernel-launch overhead of roughly
//!    6–10 µs across Kepler/Pascal/Volta while the packing kernels themselves
//!    take only a few µs;
//! 2. Zhang et al., "Understanding the overheads of launching CUDA kernels"
//!    (ICPP'19 poster, the paper's ref \[26\]), reporting ~5–10 µs per launch;
//! 3. public device specifications (SM counts, HBM bandwidth).
//!
//! They are *model inputs*, not measurements of this machine: the simulation
//! reproduces the paper's relative behaviour, which is governed by the ratio
//! of launch/synchronization overhead to kernel body time and wire time.

use fusedpack_sim::Duration;

/// Cost-model constants for one GPU architecture.
#[derive(Debug, Clone)]
pub struct GpuArch {
    /// Human-readable name ("Tesla V100").
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Concurrent resident thread blocks per SM the packing kernels achieve.
    pub blocks_per_sm: u32,
    /// Peak device-memory bandwidth in bytes per second.
    pub mem_bw: f64,
    /// CPU-side driver cost of one kernel launch (`cuLaunchKernel`). The CPU
    /// is busy for this long; this is the overhead the paper's fusion design
    /// amortizes.
    pub launch_cpu: Duration,
    /// Additional latency between the end of the CPU-side launch and the
    /// kernel actually starting on an idle stream (driver/doorbell/dispatch).
    pub launch_gpu_delay: Duration,
    /// Fixed on-GPU startup/teardown time of any kernel (block scheduling,
    /// final memory fence), independent of its workload.
    pub kernel_fixed: Duration,
    /// Extra fixed time of a *fused* kernel: reading the request array and
    /// partitioning cooperative groups before the copy loops start.
    pub fused_partition: Duration,
    /// CPU cost of `cudaEventRecord`.
    pub event_record: Duration,
    /// CPU cost of one `cudaEventQuery` poll.
    pub event_query: Duration,
    /// CPU cost of the `cudaStreamSynchronize` call itself (the blocked wait
    /// until kernel completion is added on top by the scheme).
    pub stream_sync_call: Duration,
    /// CPU cost of issuing one `cudaMemcpyAsync` (the production-library
    /// naive datatype path pays this once per contiguous block).
    pub memcpy_async_call: Duration,
    /// DMA engine per-transfer setup latency.
    pub dma_setup: Duration,
    /// Block length (bytes) at which a strided gather/scatter kernel reaches
    /// half of peak memory bandwidth. Small blocks waste cache lines and
    /// issue slots; the efficiency curve is `len / (len + half_eff)`.
    pub stride_half_eff_bytes: f64,
    /// Tile size one thread block processes independently; large contiguous
    /// blocks are split into tiles of this size to expose parallelism.
    pub tile_bytes: u64,
}

impl GpuArch {
    /// NVIDIA Tesla V100 (Volta), the GPU in both Lassen and ABCI (Table II).
    pub fn v100() -> Self {
        GpuArch {
            name: "Tesla V100",
            sm_count: 80,
            blocks_per_sm: 2,
            mem_bw: 900.0e9,
            launch_cpu: Duration::from_nanos(6_200),
            launch_gpu_delay: Duration::from_nanos(900),
            kernel_fixed: Duration::from_nanos(1_600),
            fused_partition: Duration::from_nanos(700),
            event_record: Duration::from_nanos(1_300),
            event_query: Duration::from_nanos(850),
            stream_sync_call: Duration::from_nanos(3_800),
            memcpy_async_call: Duration::from_nanos(1_450),
            dma_setup: Duration::from_nanos(1_100),
            stride_half_eff_bytes: 64.0,
            tile_bytes: 8 * 1024,
        }
    }

    /// NVIDIA Tesla P100 (Pascal) — used for the Fig. 1 architecture sweep.
    pub fn p100() -> Self {
        GpuArch {
            name: "Tesla P100",
            sm_count: 56,
            blocks_per_sm: 2,
            mem_bw: 732.0e9,
            launch_cpu: Duration::from_nanos(7_400),
            launch_gpu_delay: Duration::from_nanos(1_100),
            kernel_fixed: Duration::from_nanos(1_900),
            fused_partition: Duration::from_nanos(850),
            event_record: Duration::from_nanos(1_500),
            event_query: Duration::from_nanos(950),
            stream_sync_call: Duration::from_nanos(4_300),
            memcpy_async_call: Duration::from_nanos(1_600),
            dma_setup: Duration::from_nanos(1_300),
            stride_half_eff_bytes: 96.0,
            tile_bytes: 8 * 1024,
        }
    }

    /// NVIDIA Tesla K80 (Kepler) — used for the Fig. 1 architecture sweep.
    pub fn k80() -> Self {
        GpuArch {
            name: "Tesla K80",
            sm_count: 13,
            blocks_per_sm: 2,
            mem_bw: 240.0e9,
            launch_cpu: Duration::from_nanos(9_800),
            launch_gpu_delay: Duration::from_nanos(1_600),
            kernel_fixed: Duration::from_nanos(2_800),
            fused_partition: Duration::from_nanos(1_200),
            event_record: Duration::from_nanos(1_900),
            event_query: Duration::from_nanos(1_200),
            stream_sync_call: Duration::from_nanos(5_500),
            memcpy_async_call: Duration::from_nanos(1_900),
            dma_setup: Duration::from_nanos(1_700),
            stride_half_eff_bytes: 192.0,
            tile_bytes: 8 * 1024,
        }
    }

    /// Maximum number of thread blocks the packing kernels can keep resident
    /// at once — the "capacity" against which occupancy is computed.
    #[inline]
    pub fn capacity_blocks(&self) -> u64 {
        u64::from(self.sm_count) * u64::from(self.blocks_per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architectures_are_distinct_and_ordered() {
        let k80 = GpuArch::k80();
        let p100 = GpuArch::p100();
        let v100 = GpuArch::v100();
        // Newer architectures launch faster and have more bandwidth & SMs.
        assert!(k80.launch_cpu > p100.launch_cpu);
        assert!(p100.launch_cpu > v100.launch_cpu);
        assert!(k80.mem_bw < p100.mem_bw);
        assert!(p100.mem_bw < v100.mem_bw);
        assert!(k80.sm_count < p100.sm_count);
        assert!(p100.sm_count < v100.sm_count);
    }

    #[test]
    fn launch_overhead_in_published_range() {
        // Zhang et al. [26]: ~5-10us per launch on these architectures.
        for arch in [GpuArch::k80(), GpuArch::p100(), GpuArch::v100()] {
            let us = arch.launch_cpu.as_micros_f64();
            assert!((5.0..=10.0).contains(&us), "{}: {us}us", arch.name);
        }
    }

    #[test]
    fn v100_capacity() {
        assert_eq!(GpuArch::v100().capacity_blocks(), 160);
    }
}
