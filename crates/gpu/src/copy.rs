//! The CPU↔GPU interconnect.
//!
//! [`HostLink`] describes the processor-to-GPU interconnect — the key
//! hardware difference between the paper's two platforms (Table II):
//! Lassen's POWER9 connects CPU and GPU with NVLink2 (75 GB/s one-way),
//! while ABCI uses PCIe Gen3 (32 GB/s one-way through switches). This link
//! carries `cudaMemcpy` staging traffic and GDRCopy load/stores.

use fusedpack_sim::Duration;

/// The CPU↔GPU interconnect of one node.
#[derive(Debug, Clone)]
pub struct HostLink {
    /// Human-readable name ("NVLink2", "PCIe Gen3 x16").
    pub name: &'static str,
    /// One-way bandwidth in bytes/s.
    pub bw: f64,
    /// Per-transfer latency (first byte).
    pub latency: Duration,
    /// Whether the CPU can issue load/store directly to GPU memory at high
    /// throughput (true for NVLink-attached POWER9, false for PCIe where
    /// BAR reads in particular are extremely slow).
    pub cpu_loadstore_fast: bool,
}

impl HostLink {
    /// Lassen: NVLink2 between POWER9 and V100, 75 GB/s one-way (Table II).
    pub fn nvlink2_cpu() -> Self {
        HostLink {
            name: "NVLink2 (CPU-GPU)",
            bw: 75.0e9,
            latency: Duration::from_nanos(700),
            cpu_loadstore_fast: true,
        }
    }

    /// ABCI: PCIe Gen3 x16 through switches, 32 GB/s one-way (Table II).
    pub fn pcie_gen3() -> Self {
        HostLink {
            name: "PCIe Gen3 x16",
            bw: 32.0e9,
            latency: Duration::from_nanos(1_300),
            cpu_loadstore_fast: false,
        }
    }

    /// Pure wire time for `bytes` over this link (latency + size/bw).
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvlink_is_faster_than_pcie() {
        let nv = HostLink::nvlink2_cpu();
        let pcie = HostLink::pcie_gen3();
        assert!(nv.bw > pcie.bw);
        assert!(nv.transfer_time(1 << 20) < pcie.transfer_time(1 << 20));
        assert!(nv.cpu_loadstore_fast);
        assert!(!pcie.cpu_loadstore_fast);
    }

    #[test]
    fn transfer_time_scales_linearly_past_latency() {
        let nv = HostLink::nvlink2_cpu();
        let t1 = nv.transfer_time(75_000_000); // 1 ms of wire time
        let t2 = nv.transfer_time(150_000_000);
        let wire1 = t1 - nv.latency;
        let wire2 = t2 - nv.latency;
        let ratio = wire2.as_nanos() as f64 / wire1.as_nanos() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let pcie = HostLink::pcie_gen3();
        assert_eq!(pcie.transfer_time(0), pcie.latency);
    }
}
