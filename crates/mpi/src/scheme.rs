//! Datatype-processing scheme selection and per-scheme policies.

use fusedpack_core::FusionConfig;
use fusedpack_gpu::HostLink;

/// Which production library a naive per-block-copy scheme emulates. Both
/// stage through host memory with one `cudaMemcpyAsync` per contiguous
/// block; they differ slightly in per-copy constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaiveFlavor {
    /// IBM Spectrum MPI v10.3 (POWER systems).
    SpectrumMpi,
    /// OpenMPI v4.0.3 + UCX v1.8.
    OpenMpi,
}

impl NaiveFlavor {
    /// Multiplier on the per-copy CPU cost relative to the architecture's
    /// base `memcpy_async_call`.
    pub fn call_cost_factor(self) -> f64 {
        match self {
            NaiveFlavor::SpectrumMpi => 1.15,
            NaiveFlavor::OpenMpi => 1.0,
        }
    }
}

/// The derived-datatype processing scheme a rank's runtime uses.
#[derive(Debug, Clone)]
pub enum SchemeKind {
    /// GPU-Sync \[8, 22\]: specialized pack/unpack kernel + blocking
    /// `cudaStreamSynchronize` per message. No layout cache.
    GpuSync,
    /// GPU-Async \[23\]: pack/unpack kernels on a small pool of streams with
    /// `cudaEventRecord`/`cudaEventQuery` completion detection. No layout
    /// cache.
    GpuAsync,
    /// CPU-GPU-Hybrid \[24\]: GDRCopy CPU load/store path for dense/small
    /// layouts, cached-layout GPU kernels otherwise.
    CpuGpuHybrid,
    /// The paper's proposed dynamic kernel fusion.
    Fusion(FusionConfig),
    /// Dynamic kernel fusion with the online adaptive threshold controller
    /// and cost-guided fused-kernel block partitioning enabled
    /// (*Proposed-Adaptive*). The config's `threshold_bytes` is only the
    /// starting point — the scheduler retunes it between flushes.
    FusionAdaptive(FusionConfig),
    /// Production-library naive path: one staged copy per contiguous block.
    NaiveCopy(NaiveFlavor),
    /// MVAPICH2-GDR's adaptive selection between the hybrid CPU path and
    /// GPU-Sync, with more conservative hybrid limits.
    Adaptive,
}

impl SchemeKind {
    /// The proposed design at the paper's default 512 KB threshold.
    pub fn fusion_default() -> Self {
        SchemeKind::Fusion(FusionConfig::default())
    }

    /// The proposed design with a workload-tuned threshold
    /// (*Proposed-Tuned* in the evaluation).
    pub fn fusion_with_threshold(threshold_bytes: u64) -> Self {
        SchemeKind::Fusion(FusionConfig::with_threshold(threshold_bytes))
    }

    /// The proposed design with online threshold adaptation and cost-guided
    /// block partitioning (*Proposed-Adaptive*). Starts from the paper's
    /// default threshold and adapts from there.
    pub fn fusion_adaptive() -> Self {
        SchemeKind::FusionAdaptive(FusionConfig {
            partition: fusedpack_gpu::PartitionPolicy::CostGuided,
            ..FusionConfig::default()
        })
    }
}

// `SchemeKind::label` and `fusion_config` live in
// `crate::registry` beside the descriptor table — the one module allowed
// to match on the variants.

/// When the hybrid/adaptive schemes choose the GDRCopy CPU path over a GPU
/// kernel.
#[derive(Debug, Clone, Copy)]
pub struct HybridPolicy {
    /// Use the CPU path only when the packed message is at most this large.
    pub gdr_max_bytes: u64,
    /// ...and spans at most this many contiguous blocks.
    pub gdr_max_blocks: u64,
}

impl HybridPolicy {
    /// Derive the policy from the node's CPU↔GPU link, as \[24\] does: with
    /// coherent NVLink load/stores the CPU path pays off up to sizeable
    /// dense messages; over PCIe only tiny messages qualify (BAR reads).
    pub fn for_link(link: &HostLink, adaptive: bool) -> Self {
        if link.cpu_loadstore_fast {
            HybridPolicy {
                gdr_max_bytes: if adaptive { 64 * 1024 } else { 128 * 1024 },
                gdr_max_blocks: 512,
            }
        } else {
            HybridPolicy {
                gdr_max_bytes: if adaptive { 2 * 1024 } else { 4 * 1024 },
                gdr_max_blocks: 64,
            }
        }
    }

    /// Should this message take the CPU (GDRCopy) path?
    pub fn use_cpu_path(&self, packed_bytes: u64, blocks: u64) -> bool {
        packed_bytes <= self.gdr_max_bytes && blocks <= self.gdr_max_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SchemeKind::GpuSync.label(), "GPU-Sync");
        assert_eq!(SchemeKind::fusion_default().label(), "Proposed");
        assert_eq!(
            SchemeKind::NaiveCopy(NaiveFlavor::SpectrumMpi).label(),
            "SpectrumMPI"
        );
        assert_eq!(SchemeKind::Adaptive.label(), "MVAPICH2-GDR");
    }

    #[test]
    fn hybrid_policy_wider_on_nvlink() {
        let nv = HybridPolicy::for_link(&HostLink::nvlink2_cpu(), false);
        let pcie = HybridPolicy::for_link(&HostLink::pcie_gen3(), false);
        assert!(nv.gdr_max_bytes > pcie.gdr_max_bytes);
        // A 16 KB dense message: CPU path on NVLink, kernel path on PCIe.
        assert!(nv.use_cpu_path(16 * 1024, 16));
        assert!(!pcie.use_cpu_path(16 * 1024, 16));
        // Sparse thousands-of-blocks layouts never take the CPU path.
        assert!(!nv.use_cpu_path(16 * 1024, 4096));
    }

    #[test]
    fn adaptive_is_more_conservative() {
        let hybrid = HybridPolicy::for_link(&HostLink::nvlink2_cpu(), false);
        let adaptive = HybridPolicy::for_link(&HostLink::nvlink2_cpu(), true);
        assert!(adaptive.gdr_max_bytes < hybrid.gdr_max_bytes);
    }

    #[test]
    fn adaptive_fusion_scheme_shape() {
        let s = SchemeKind::fusion_adaptive();
        assert_eq!(s.label(), "Proposed-Adaptive");
        let cfg = s.fusion_config().expect("adaptive fusion variant");
        assert_eq!(
            cfg.partition,
            fusedpack_gpu::PartitionPolicy::CostGuided,
            "adaptive scheme pairs with cost-guided partitioning"
        );
        assert_eq!(
            cfg.threshold_bytes,
            FusionConfig::default().threshold_bytes,
            "starts from the paper's default and adapts online"
        );
    }

    #[test]
    fn fusion_with_threshold_sets_config() {
        let s = SchemeKind::fusion_with_threshold(64 * 1024);
        let cfg = s.fusion_config().expect("fusion variant");
        assert_eq!(cfg.threshold_bytes, 64 * 1024);
    }
}
