//! GDRCopy model: CPU-driven load/store access to GPU memory.
//!
//! GDRCopy \[34\] maps GPU memory into the CPU's address space (a BAR window
//! on PCIe systems, native load/store over NVLink on POWER9) so the *CPU*
//! can pack/unpack small GPU-resident buffers with plain memory operations —
//! no kernel launch, no stream synchronization. This is the low-latency path
//! the CPU-GPU-Hybrid baseline \[24\] uses for dense, small layouts, and the
//! reason that baseline wins Fig. 10 / Fig. 12(c) on Lassen.
//!
//! The catch: throughput is far below a GPU kernel, the CPU is occupied for
//! the whole copy, and on PCIe systems *reads* of GPU memory are extremely
//! slow (uncached BAR reads), which is why the hybrid scheme stops winning
//! on ABCI.

use crate::copy::HostLink;
use crate::kernel::SegmentStats;
use fusedpack_sim::Duration;

/// CPU load/store window onto GPU memory.
#[derive(Debug, Clone)]
pub struct GdrWindow {
    /// Is the gdrcopy kernel module / NVLink load-store path available?
    /// (The paper notes GDRCopy "may not be available in all HPC systems".)
    pub available: bool,
    /// CPU→GPU store throughput (write-combined), bytes/s.
    pub write_bw: f64,
    /// GPU→CPU load throughput, bytes/s. Tiny on PCIe BAR windows.
    pub read_bw: f64,
    /// Fixed CPU cost to start one copy (pointer math, window check).
    pub base: Duration,
    /// CPU cost per non-contiguous block (loop iteration, address gen).
    pub per_block: Duration,
}

impl GdrWindow {
    /// Derive the window characteristics from the node's host link.
    pub fn for_link(link: &HostLink) -> Self {
        if link.cpu_loadstore_fast {
            // POWER9 + NVLink2: coherent load/store at a good fraction of
            // link bandwidth in both directions.
            GdrWindow {
                available: true,
                write_bw: link.bw * 0.60,
                read_bw: link.bw * 0.50,
                base: Duration::from_nanos(350),
                per_block: Duration::from_nanos(50),
            }
        } else {
            // x86 + PCIe: write-combined stores are usable, BAR reads crawl.
            GdrWindow {
                available: true,
                write_bw: 6.0e9,
                read_bw: 0.9e9,
                base: Duration::from_nanos(600),
                per_block: Duration::from_nanos(110),
            }
        }
    }

    /// A system without GDRCopy (the fallback case the paper mentions).
    pub fn unavailable() -> Self {
        GdrWindow {
            available: false,
            write_bw: 0.0,
            read_bw: 0.0,
            base: Duration::ZERO,
            per_block: Duration::ZERO,
        }
    }

    /// CPU-busy time to *read* (pack from) GPU memory with the given layout
    /// shape into a host buffer.
    pub fn read_time(&self, stats: SegmentStats) -> Duration {
        assert!(self.available, "gdrcopy not available");
        self.base
            + self.per_block * stats.num_blocks
            + Duration::from_secs_f64(stats.total_bytes as f64 / self.read_bw)
    }

    /// CPU-busy time to *write* (unpack into) GPU memory with the given
    /// layout shape from a host buffer.
    pub fn write_time(&self, stats: SegmentStats) -> Duration {
        assert!(self.available, "gdrcopy not available");
        self.base
            + self.per_block * stats.num_blocks
            + Duration::from_secs_f64(stats.total_bytes as f64 / self.write_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvlink_window_reads_much_faster_than_pcie() {
        let nv = GdrWindow::for_link(&HostLink::nvlink2_cpu());
        let pcie = GdrWindow::for_link(&HostLink::pcie_gen3());
        let stats = SegmentStats::new(16 * 1024, 16);
        assert!(nv.read_time(stats) < pcie.read_time(stats) / 4);
    }

    #[test]
    fn small_dense_read_beats_kernel_launch_on_nvlink() {
        // The hybrid baseline's raison d'etre: for a small dense layout the
        // CPU path undercuts even a single kernel launch.
        let arch = crate::arch::GpuArch::v100();
        let nv = GdrWindow::for_link(&HostLink::nvlink2_cpu());
        let stats = SegmentStats::new(8 * 1024, 16);
        assert!(nv.read_time(stats) < arch.launch_cpu);
    }

    #[test]
    fn sparse_layouts_pay_per_block() {
        let nv = GdrWindow::for_link(&HostLink::nvlink2_cpu());
        let dense = SegmentStats::new(64 * 1024, 16);
        let sparse = SegmentStats::new(64 * 1024, 4096);
        assert!(
            nv.read_time(sparse) > nv.read_time(dense) * 4,
            "thousands of blocks should crush the CPU path"
        );
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn unavailable_window_panics_on_use() {
        GdrWindow::unavailable().read_time(SegmentStats::new(1, 1));
    }

    #[test]
    fn write_faster_than_read_on_pcie() {
        let pcie = GdrWindow::for_link(&HostLink::pcie_gen3());
        let stats = SegmentStats::new(32 * 1024, 8);
        assert!(pcie.write_time(stats) < pcie.read_time(stats));
    }
}
