//! The fused kernel model.
//!
//! The paper's fused kernel takes an *array of requests* as input and uses
//! CUDA cooperative groups to partition its thread blocks across requests
//! (paper Fig. 6): each group of blocks independently executes the device
//! function for its request (pack, unpack, or DirectIPC) and then signals
//! per-request completion by writing the request's *response status* — there
//! is no synchronization at the kernel boundary.
//!
//! Timing model. Request `i` has work-unit demand `u_i` (see
//! [`crate::kernel::work_units`]). The GPU can keep `C = capacity_blocks()`
//! blocks resident:
//!
//! * if `Σu ≤ C` every request gets all the blocks it can use and runs at
//!   its standalone body rate — this is the paper's key observation that a
//!   fused kernel takes about as long as one typical kernel, because the
//!   individual kernels badly under-occupy the machine;
//! * if `Σu > C` blocks are assigned proportionally (`b_i = C·u_i/Σu`, at
//!   least one) and every request slows accordingly.
//!
//! Each request completes individually at `start + fixed + t_i`; the kernel
//! itself retires when the slowest group finishes.

use crate::arch::GpuArch;
use crate::kernel::{self, SegmentStats};
use fusedpack_sim::{Duration, Time};

/// How a fused kernel's thread blocks are divided among its requests.
///
/// The CUDA implementation's cooperative-group partitioning step is free to
/// pick any split; the choice decides which request gates the kernel when
/// the batch oversubscribes the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// Equal split regardless of per-request work: `C / n` blocks each
    /// (at least one). The naive baseline — skewed batches starve their
    /// large request.
    Uniform,
    /// Proportional to each request's [`kernel::work_units`] — the split
    /// the static fusion scheme uses (default).
    #[default]
    WeightedByWork,
    /// Evaluate candidate splits (uniform, unit-weighted, and weighted by
    /// each request's modelled *time* demand `bytes / eff_stride`) with the
    /// kernel cost model and keep the one with the smallest makespan. By
    /// construction never slower than the other two policies.
    CostGuided,
}

impl PartitionPolicy {
    pub fn label(self) -> &'static str {
        match self {
            PartitionPolicy::Uniform => "uniform",
            PartitionPolicy::WeightedByWork => "weighted",
            PartitionPolicy::CostGuided => "cost-guided",
        }
    }
}

/// Per-request and whole-kernel durations of one fused launch (relative to
/// kernel start on the device).
#[derive(Debug, Clone)]
pub struct FusedTiming {
    /// Completion offset of each request, in input order.
    pub per_request: Vec<Duration>,
    /// When the whole kernel retires (max of the above plus fixed costs).
    pub total: Duration,
    /// Thread blocks assigned to each request (diagnostics / tests).
    pub blocks_assigned: Vec<u64>,
}

/// Absolute-time view of a fused launch as returned by
/// [`crate::device::Gpu::launch_fused_policy`].
#[derive(Debug, Clone)]
pub struct FusedLaunch {
    /// When the launching CPU becomes free again.
    pub cpu_release: Time,
    /// When the kernel starts executing on the device.
    pub start: Time,
    /// Absolute completion instant of each request, in input order.
    pub request_done: Vec<Time>,
    /// When the whole kernel retires.
    pub done: Time,
}

/// One request inside a fused launch: its layout shape plus an optional
/// external bandwidth cap (a DirectIPC request touching a peer GPU's memory
/// is limited by the NVLink/PCIe path, not local HBM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedWork {
    pub stats: SegmentStats,
    pub bw_cap: Option<f64>,
}

impl From<SegmentStats> for FusedWork {
    fn from(stats: SegmentStats) -> Self {
        FusedWork {
            stats,
            bw_cap: None,
        }
    }
}

/// Compute the timing of a fused kernel over `works` on `arch`.
pub fn fused_timing(arch: &GpuArch, works: &[SegmentStats]) -> FusedTiming {
    let works: Vec<FusedWork> = works.iter().map(|&w| w.into()).collect();
    fused_timing_capped(arch, &works)
}

/// [`fused_timing`] with per-request bandwidth caps.
pub fn fused_timing_capped(arch: &GpuArch, works: &[FusedWork]) -> FusedTiming {
    fused_timing_policy(arch, works, PartitionPolicy::WeightedByWork)
}

/// [`fused_timing_capped`] under an explicit block-partitioning policy.
pub fn fused_timing_policy(
    arch: &GpuArch,
    works: &[FusedWork],
    policy: PartitionPolicy,
) -> FusedTiming {
    let fixed = arch.kernel_fixed + arch.fused_partition;
    if works.is_empty() {
        return FusedTiming {
            per_request: Vec::new(),
            total: fixed,
            blocks_assigned: Vec::new(),
        };
    }
    let capacity = arch.capacity_blocks();
    let units: Vec<u64> = works
        .iter()
        .map(|w| kernel::work_units(arch, w.stats))
        .collect();

    let blocks_assigned = match policy {
        PartitionPolicy::Uniform => assign_uniform(&units, capacity),
        PartitionPolicy::WeightedByWork => assign_weighted(&units, &units, capacity),
        PartitionPolicy::CostGuided => {
            // Time demand of each request if run alone at full efficiency:
            // bytes scaled by the inverse stride efficiency. Weighting by
            // this equalizes *completion times*, not unit counts — the two
            // differ by up to ~100x between sparse and dense requests.
            let demand: Vec<u64> = works
                .iter()
                .map(|w| {
                    if w.stats.is_empty() {
                        0
                    } else {
                        let eff = kernel::stride_efficiency(arch, w.stats.avg_block());
                        (w.stats.total_bytes as f64 / eff).ceil() as u64
                    }
                })
                .collect();
            let candidates = [
                assign_weighted(&units, &units, capacity),
                assign_uniform(&units, capacity),
                assign_weighted(&demand, &units, capacity),
            ];
            candidates
                .into_iter()
                .min_by_key(|blocks| timing_for(arch, works, &units, blocks, fixed).total)
                .expect("candidate list is non-empty")
        }
    };

    timing_for(arch, works, &units, &blocks_assigned, fixed)
}

/// Equal split: every non-empty request gets `capacity / n` blocks (at
/// least one).
fn assign_uniform(units: &[u64], capacity: u64) -> Vec<u64> {
    let nonempty = units.iter().filter(|&&u| u > 0).count().max(1) as u64;
    let share = (capacity / nonempty).max(1);
    units
        .iter()
        .map(|&u| if u == 0 { 0 } else { share })
        .collect()
}

/// Split proportionally to `weights`. When the batch fits (`Σunits ≤ C`)
/// every request simply gets all the blocks it can use; otherwise the
/// capacity is divided by weight (at least one block per live request).
fn assign_weighted(weights: &[u64], units: &[u64], capacity: u64) -> Vec<u64> {
    let total_units: u64 = units.iter().sum();
    if total_units <= capacity {
        return units.to_vec();
    }
    let total_weight: u64 = weights.iter().sum::<u64>().max(1);
    weights
        .iter()
        .zip(units)
        .map(|(&w, &u)| {
            if u == 0 {
                0
            } else {
                ((w as u128 * capacity as u128) / total_weight as u128).max(1) as u64
            }
        })
        .collect()
}

/// Evaluate the cost model for one concrete block assignment. A request
/// cannot run faster than its own parallelism allows, so its effective
/// occupancy is capped at `units` blocks even when the split hands it more.
fn timing_for(
    arch: &GpuArch,
    works: &[FusedWork],
    units: &[u64],
    blocks_assigned: &[u64],
    fixed: Duration,
) -> FusedTiming {
    let capacity = arch.capacity_blocks();
    let mut per_request = Vec::with_capacity(works.len());
    let mut slowest = Duration::ZERO;
    for ((w, &blocks), &u) in works.iter().zip(blocks_assigned).zip(units) {
        let t = if w.stats.is_empty() || blocks == 0 {
            Duration::ZERO
        } else {
            let eff = kernel::stride_efficiency(arch, w.stats.avg_block());
            let occ = (blocks.min(u) as f64 / capacity as f64).min(1.0);
            let mut bw = arch.mem_bw * eff * occ;
            if let Some(cap) = w.bw_cap {
                // External-link ceiling still suffers (attenuated) stride
                // penalties on the remote side.
                bw = bw.min(cap * eff.max(0.25));
            }
            Duration::from_secs_f64(w.stats.total_bytes as f64 / bw)
        };
        let done = fixed + t;
        slowest = slowest.max(done);
        per_request.push(done);
    }

    FusedTiming {
        per_request,
        total: slowest,
        blocks_assigned: blocks_assigned.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> GpuArch {
        GpuArch::v100()
    }

    #[test]
    fn empty_fusion_costs_fixed_overhead_only() {
        let arch = v100();
        let t = fused_timing(&arch, &[]);
        assert_eq!(t.total, arch.kernel_fixed + arch.fused_partition);
        assert!(t.per_request.is_empty());
    }

    #[test]
    fn underutilized_requests_fuse_for_free() {
        // The paper's headline GPU-side claim: fusing N small kernels takes
        // about as long as one, because each under-occupies the machine.
        let arch = v100();
        let one = SegmentStats::new(4096, 16); // 16 units << 160 capacity
        let solo = fused_timing(&arch, &[one]);
        let eight = fused_timing(&arch, &[one; 8]); // 128 units, still < 160
        assert_eq!(
            solo.total, eight.total,
            "8 under-occupying requests should finish together with 1"
        );
        // And all eight complete at the same offset.
        assert!(eight.per_request.iter().all(|&d| d == eight.per_request[0]));
    }

    #[test]
    fn oversubscription_slows_requests_proportionally() {
        let arch = v100();
        let big = SegmentStats::new(8 << 20, 2048); // 2048 units >> capacity
        let solo = fused_timing(&arch, &[big]);
        let duo = fused_timing(&arch, &[big, big]);
        // Two saturating requests each get half the machine: roughly 2x.
        let ratio = duo.total.as_nanos() as f64 / solo.total.as_nanos() as f64;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "expected ~2x slowdown, got {ratio}"
        );
    }

    #[test]
    fn every_nonempty_request_gets_at_least_one_block() {
        let arch = v100();
        let mut works = vec![SegmentStats::new(64 << 20, 16384)]; // hog
        for _ in 0..20 {
            works.push(SegmentStats::new(64, 1)); // tiny
        }
        let t = fused_timing(&arch, &works);
        assert!(t.blocks_assigned.iter().skip(1).all(|&b| b >= 1));
    }

    #[test]
    fn per_request_completions_bounded_by_total() {
        let arch = v100();
        let works = [
            SegmentStats::new(1 << 20, 256),
            SegmentStats::new(4096, 64),
            SegmentStats::new(128, 8),
        ];
        let t = fused_timing(&arch, &works);
        for &d in &t.per_request {
            assert!(d <= t.total);
        }
        assert_eq!(t.total, *t.per_request.iter().max().expect("non-empty"));
    }

    #[test]
    fn small_requests_in_mixed_fusion_finish_early() {
        // Per-request completion signalling lets the progress engine send a
        // small message before a huge co-fused request finishes.
        let arch = v100();
        let works = [
            SegmentStats::new(64 << 20, 16384), // huge
            SegmentStats::new(1024, 16),        // small
        ];
        let t = fused_timing(&arch, &works);
        assert!(
            t.per_request[1] < t.per_request[0] / 10,
            "small request {:?} should finish long before huge {:?}",
            t.per_request[1],
            t.per_request[0]
        );
    }

    #[test]
    fn bw_capped_request_slows_only_itself() {
        let arch = v100();
        let stats = SegmentStats::new(4 << 20, 512);
        let free = fused_timing(&arch, &[stats, stats]);
        let capped = fused_timing_capped(
            &arch,
            &[
                FusedWork {
                    stats,
                    bw_cap: Some(50.0e9), // DirectIPC over NVLink2 (ABCI)
                },
                FusedWork {
                    stats,
                    bw_cap: None,
                },
            ],
        );
        assert!(capped.per_request[0] > free.per_request[0]);
        assert_eq!(capped.per_request[1], free.per_request[1]);
    }

    /// Batch shapes the partition-policy ablation sweeps: balanced small,
    /// skewed sparse+dense, oversubscribed dense, and a long sparse tail
    /// behind one hog.
    fn ablation_batches() -> Vec<Vec<FusedWork>> {
        let mk = |bytes, blocks| FusedWork::from(SegmentStats::new(bytes, blocks));
        vec![
            vec![mk(4096, 16); 8],
            vec![mk(1 << 20, 4), mk(4096, 256), mk(4096, 256), mk(4096, 256)],
            vec![mk(8 << 20, 2048), mk(8 << 20, 2048), mk(64 << 10, 8)],
            {
                let mut v = vec![mk(64 << 20, 16384)];
                v.extend(std::iter::repeat_n(mk(96, 3), 24));
                v
            },
        ]
    }

    #[test]
    fn default_policy_matches_legacy_timing() {
        // fused_timing_capped must stay bit-identical to the pre-policy
        // behaviour (WeightedByWork): every figure baseline depends on it.
        let arch = v100();
        for works in ablation_batches() {
            let legacy = fused_timing_capped(&arch, &works);
            let weighted = fused_timing_policy(&arch, &works, PartitionPolicy::WeightedByWork);
            assert_eq!(legacy.per_request, weighted.per_request);
            assert_eq!(legacy.blocks_assigned, weighted.blocks_assigned);
        }
    }

    #[test]
    fn cost_guided_never_slower_than_uniform_or_weighted() {
        let arch = v100();
        for works in ablation_batches() {
            let uniform = fused_timing_policy(&arch, &works, PartitionPolicy::Uniform);
            let weighted = fused_timing_policy(&arch, &works, PartitionPolicy::WeightedByWork);
            let guided = fused_timing_policy(&arch, &works, PartitionPolicy::CostGuided);
            assert!(
                guided.total <= uniform.total,
                "cost-guided {:?} beat by uniform {:?}",
                guided.total,
                uniform.total
            );
            assert!(
                guided.total <= weighted.total,
                "cost-guided {:?} beat by weighted {:?}",
                guided.total,
                weighted.total
            );
        }
    }

    #[test]
    fn uniform_split_starves_the_skewed_request() {
        // One dense 1 MB request co-fused with many sparse requests: the
        // equal split gates the kernel on the starved dense request, which
        // the work-aware policies fix.
        let arch = v100();
        let mut works = vec![FusedWork::from(SegmentStats::new(1 << 20, 4))];
        works.extend(std::iter::repeat_n(
            FusedWork::from(SegmentStats::new(4096, 170)),
            3,
        ));
        let uniform = fused_timing_policy(&arch, &works, PartitionPolicy::Uniform);
        let guided = fused_timing_policy(&arch, &works, PartitionPolicy::CostGuided);
        assert!(
            guided.total < uniform.total,
            "cost-guided {:?} should beat uniform {:?} on the skewed batch",
            guided.total,
            uniform.total
        );
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(PartitionPolicy::Uniform.label(), "uniform");
        assert_eq!(PartitionPolicy::WeightedByWork.label(), "weighted");
        assert_eq!(PartitionPolicy::CostGuided.label(), "cost-guided");
        assert_eq!(PartitionPolicy::default(), PartitionPolicy::WeightedByWork);
    }

    #[test]
    fn fused_beats_sequential_singles_on_device_time() {
        // Even ignoring launch overhead, running N under-occupying kernels
        // back-to-back takes ~N * t while the fused kernel takes ~t.
        let arch = v100();
        let w = SegmentStats::new(16384, 64);
        let single = kernel::single_kernel_time(&arch, w);
        let sequential = Duration(single.as_nanos() * 2);
        let fused = fused_timing(&arch, &[w, w]).total;
        assert!(fused < sequential);
    }
}
