//! The packing/unpacking kernel cost model.
//!
//! A pack (gather) or unpack (scatter) kernel is characterized by the shape
//! of the non-contiguous layout it processes: total bytes `S` moved across
//! `B` contiguous blocks. Its execution time is modelled as
//!
//! ```text
//! t_body = S / (mem_bw · eff_stride(S/B) · eff_occupancy(units))
//! t_kernel = kernel_fixed + t_body
//! ```
//!
//! * `eff_stride(len)` = `len / (len + half_eff)` — gather/scatter of short
//!   blocks wastes cache lines and issue slots; a block must be
//!   `half_eff` bytes long to reach half of peak bandwidth. This matches the
//!   qualitative behaviour of the HAND-style kernels the paper builds on:
//!   sparse layouts (tens of bytes per block) run at a few percent of peak,
//!   dense layouts (KBs per block) near peak.
//! * `units` = `max(B, ceil(S/tile))` — exploitable parallelism: each block
//!   is at least one unit of work, large blocks are tiled. With fewer units
//!   than the GPU's resident-block capacity the kernel cannot fill the
//!   machine and slows proportionally (`eff_occupancy = min(1, units/cap)`).
//!
//! Fused kernels (see [`crate::fused`]) reuse `t_body` per request and share
//! capacity between requests — which is exactly why fusing many small,
//! under-occupying kernels is nearly free on the GPU side: the paper's
//! observation that "the fused kernel's execution time can be the same as
//! the typical packing/unpacking kernel while only costing one launch".

use crate::arch::GpuArch;
use fusedpack_sim::Duration;

/// Shape summary of a non-contiguous layout processed by one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Number of contiguous blocks (gather/scatter segments).
    pub num_blocks: u64,
}

impl SegmentStats {
    pub fn new(total_bytes: u64, num_blocks: u64) -> Self {
        SegmentStats {
            total_bytes,
            num_blocks,
        }
    }

    /// Build from an explicit `(offset, len)` segment list.
    pub fn from_segments(segments: &[(u64, u64)]) -> Self {
        SegmentStats {
            total_bytes: segments.iter().map(|&(_, len)| len).sum(),
            num_blocks: segments.len() as u64,
        }
    }

    /// Average contiguous block length in bytes.
    pub fn avg_block(&self) -> f64 {
        if self.num_blocks == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.num_blocks as f64
        }
    }

    /// Merge two shapes (used when fusing accounting, not timing).
    pub fn merged(self, other: SegmentStats) -> SegmentStats {
        SegmentStats {
            total_bytes: self.total_bytes + other.total_bytes,
            num_blocks: self.num_blocks + other.num_blocks,
        }
    }

    /// Is this the empty workload?
    pub fn is_empty(&self) -> bool {
        self.total_bytes == 0
    }
}

/// Memory-efficiency factor in `(0, 1]` for strided access with the given
/// average block length.
pub fn stride_efficiency(arch: &GpuArch, avg_block_bytes: f64) -> f64 {
    if avg_block_bytes <= 0.0 {
        return 1.0; // empty workload, factor irrelevant
    }
    avg_block_bytes / (avg_block_bytes + arch.stride_half_eff_bytes)
}

/// Exploitable parallel work units for a layout: one per block, plus tiling
/// of large blocks.
pub fn work_units(arch: &GpuArch, stats: SegmentStats) -> u64 {
    if stats.is_empty() {
        return 0;
    }
    let tiles = stats.total_bytes.div_ceil(arch.tile_bytes);
    stats.num_blocks.max(tiles).max(1)
}

/// Occupancy factor in `(0, 1]`: how much of the machine the layout can use.
pub fn occupancy(arch: &GpuArch, units: u64) -> f64 {
    if units == 0 {
        return 1.0;
    }
    (units as f64 / arch.capacity_blocks() as f64).min(1.0)
}

/// Body time of a kernel running *alone* with the whole GPU available.
pub fn body_time(arch: &GpuArch, stats: SegmentStats) -> Duration {
    if stats.is_empty() {
        return Duration::ZERO;
    }
    let eff = stride_efficiency(arch, stats.avg_block());
    let occ = occupancy(arch, work_units(arch, stats));
    let bw = arch.mem_bw * eff * occ;
    Duration::from_secs_f64(stats.total_bytes as f64 / bw)
}

/// Total on-GPU time of a standalone (non-fused) pack/unpack kernel:
/// fixed startup plus body.
pub fn single_kernel_time(arch: &GpuArch, stats: SegmentStats) -> Duration {
    arch.kernel_fixed + body_time(arch, stats)
}

/// Body time when the kernel's effective bandwidth is additionally capped by
/// an external link (e.g. a DirectIPC kernel loading a peer GPU's memory
/// over NVLink at `link_bw` bytes/s).
pub fn body_time_link_capped(arch: &GpuArch, stats: SegmentStats, link_bw: f64) -> Duration {
    if stats.is_empty() {
        return Duration::ZERO;
    }
    let eff = stride_efficiency(arch, stats.avg_block());
    let occ = occupancy(arch, work_units(arch, stats));
    let bw = (arch.mem_bw * eff * occ).min(link_bw * eff.max(0.25));
    Duration::from_secs_f64(stats.total_bytes as f64 / bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> GpuArch {
        GpuArch::v100()
    }

    #[test]
    fn stride_efficiency_monotone_in_block_size() {
        let arch = v100();
        let tiny = stride_efficiency(&arch, 4.0);
        let mid = stride_efficiency(&arch, 64.0);
        let big = stride_efficiency(&arch, 64.0 * 1024.0);
        assert!(tiny < mid && mid < big);
        assert!((mid - 0.5).abs() < 1e-9, "64B is the half-efficiency point");
        assert!(big > 0.98, "large blocks run near peak: {big}");
        // 4B gathers land near HBM2 sector granularity (32B sectors):
        // roughly 1/16..1/8 of peak.
        assert!((0.03..0.15).contains(&tiny), "4B-block efficiency {tiny}");
    }

    #[test]
    fn work_units_counts_blocks_and_tiles() {
        let arch = v100();
        // 4000 tiny blocks: block count dominates.
        assert_eq!(work_units(&arch, SegmentStats::new(4000 * 16, 4000)), 4000);
        // One 1 MiB block: tiling dominates (1MiB / 8KiB = 128 tiles).
        assert_eq!(work_units(&arch, SegmentStats::new(1 << 20, 1)), 128);
        assert_eq!(work_units(&arch, SegmentStats::new(0, 0)), 0);
    }

    #[test]
    fn occupancy_saturates_at_one() {
        let arch = v100();
        assert!(occupancy(&arch, 1) < 0.01);
        assert_eq!(occupancy(&arch, 160), 1.0);
        assert_eq!(occupancy(&arch, 100_000), 1.0);
    }

    #[test]
    fn sparse_kernel_is_microseconds_launch_dominated() {
        // Paper Fig. 1: the packing kernel body for sparse workloads is a few
        // microseconds — *less* than the 6+ us launch overhead.
        let arch = v100();
        // specfem3D_cm-like shape: thousands of tiny blocks.
        let stats = SegmentStats::new(2000 * 24, 2000);
        let t = single_kernel_time(&arch, stats);
        assert!(
            t < arch.launch_cpu,
            "sparse pack kernel {t} should be cheaper than launch {}",
            arch.launch_cpu
        );
        assert!(t.as_micros_f64() > 1.0, "but not free: {t}");
    }

    #[test]
    fn dense_large_kernel_is_bandwidth_bound() {
        let arch = v100();
        // 16 MiB in 64 KiB blocks: should take close to 16MiB / 900GB/s.
        let stats = SegmentStats::new(16 << 20, 256);
        let t = single_kernel_time(&arch, stats);
        let ideal = Duration::from_secs_f64((16 << 20) as f64 / arch.mem_bw);
        assert!(t.as_nanos() >= ideal.as_nanos());
        assert!(
            t.as_nanos() < ideal.as_nanos() * 2,
            "dense kernel {t} should be within 2x of ideal {ideal}"
        );
    }

    #[test]
    fn more_bytes_take_longer() {
        let arch = v100();
        let small = single_kernel_time(&arch, SegmentStats::new(1024, 4));
        let large = single_kernel_time(&arch, SegmentStats::new(1024 * 1024, 4096));
        assert!(small < large);
    }

    #[test]
    fn empty_kernel_costs_only_fixed_startup() {
        let arch = v100();
        assert_eq!(
            single_kernel_time(&arch, SegmentStats::new(0, 0)),
            arch.kernel_fixed
        );
    }

    #[test]
    fn link_cap_slows_direct_ipc() {
        let arch = v100();
        let stats = SegmentStats::new(4 << 20, 64);
        let local = body_time(&arch, stats);
        let remote = body_time_link_capped(&arch, stats, 75.0e9); // NVLink2
        assert!(remote > local, "{remote} should exceed {local}");
    }

    #[test]
    fn segment_stats_helpers() {
        let s = SegmentStats::from_segments(&[(0, 100), (200, 50), (400, 50)]);
        assert_eq!(s.total_bytes, 200);
        assert_eq!(s.num_blocks, 3);
        assert!((s.avg_block() - 200.0 / 3.0).abs() < 1e-9);
        let m = s.merged(SegmentStats::new(100, 1));
        assert_eq!(m.total_bytes, 300);
        assert_eq!(m.num_blocks, 4);
        assert!(!m.is_empty());
        assert!(SegmentStats::new(0, 0).is_empty());
    }
}
