//! One module per reproduced table/figure.

pub mod ablation;
pub mod adapt;
pub mod approaches;
pub mod chaos;
pub mod chaos_topo;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod fig9;
pub mod ipc;
pub mod serve;
pub mod table2;
pub mod topo;

use crate::exec::CellTiming;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_sim::Duration;
use fusedpack_workloads::{run_exchange, ExchangeConfig, Workload};
use std::sync::Mutex;

/// The paper's §V-C stress level: 16 buffers each way = 32 non-blocking
/// operations per rank.
pub const HALO_MSGS: usize = 16;

/// How the *Proposed* scheme's fusion threshold is chosen for the figure
/// harnesses (the `reproduce --threshold` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdMode {
    /// The paper's 512 KB default.
    Default,
    /// Resolve per workload with [`fusedpack_core::predict_threshold`]
    /// from the workload's average contiguous-block size.
    Auto,
    /// A fixed byte count for every workload.
    Fixed(u64),
}

/// Everything one reproduction run is parameterized by (the `reproduce`
/// flags), passed by reference to the experiments and the sweep executor.
/// Two runs with different configurations share nothing, so they can
/// execute concurrently.
#[derive(Debug)]
pub struct RunConfig {
    /// Sweep worker threads (`--jobs`); 1 runs every cell inline.
    pub jobs: usize,
    /// The *Proposed* columns' fusion threshold (`--threshold`).
    pub threshold: ThresholdMode,
    /// Master seed of the chaos experiments' fault plans (`--seed`).
    /// Per-cell plans derive from it and the cell's grid coordinates, so
    /// a report is byte-identical across runs and `--jobs` counts.
    pub chaos_seed: u64,
    /// Requests the serve experiment replays per cell (`--requests`).
    pub serve_requests: u64,
    /// Per-cell wall-clock timings of this run's sweeps, in cell-index
    /// order per sweep (drained by `reproduce --timings`).
    pub(crate) timings: Mutex<Vec<CellTiming>>,
}

impl Default for RunConfig {
    /// All available cores, the 512 KB threshold, seed 42, 200k serve
    /// requests (enough steady-state laps for a stable p999 without making
    /// `reproduce all` crawl).
    fn default() -> Self {
        RunConfig {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threshold: ThresholdMode::Default,
            chaos_seed: 42,
            serve_requests: 200_000,
            timings: Mutex::default(),
        }
    }
}

impl RunConfig {
    /// Drain and return every cell timing recorded since the last call.
    pub fn take_timings(&self) -> Vec<CellTiming> {
        std::mem::take(&mut *self.timings.lock().expect("timing log"))
    }
}

/// The *Proposed* scheme for one (platform, workload) cell, honouring the
/// run's threshold mode: the 512 KB default, a fixed `--threshold BYTES`,
/// or `--threshold auto` (model-predicted from the workload's average
/// block size on this platform's GPU).
pub fn proposed(cfg: &RunConfig, platform: &Platform, workload: &Workload) -> SchemeKind {
    match cfg.threshold {
        ThresholdMode::Default => SchemeKind::fusion_default(),
        ThresholdMode::Fixed(b) => SchemeKind::fusion_with_threshold(b),
        ThresholdMode::Auto => SchemeKind::fusion_with_threshold(
            fusedpack_core::predict_threshold(&platform.arch, workload.avg_block_bytes()),
        ),
    }
}

/// One latency measurement with the standard protocol (1 warm-up lap,
/// 1 measured lap, timing-only memory).
pub fn latency(
    platform: &Platform,
    scheme: SchemeKind,
    workload: &Workload,
    n_msgs: usize,
) -> Duration {
    run_exchange(&ExchangeConfig::new(
        platform.clone(),
        scheme,
        workload.clone(),
        n_msgs,
    ))
    .latency
}

/// The GPU-driven comparison set of Figs. 9/10/12/13 in paper legend order.
pub fn gpu_driven_schemes() -> Vec<SchemeKind> {
    fusedpack_mpi::SchemeRegistry::global().by_names(&[
        "proposed",
        "gpu-sync",
        "gpu-async",
        "cpu-gpu-hybrid",
    ])
}

/// Tune the fusion threshold for one workload on one platform by sweeping
/// the Fig. 8 grid and keeping the argmin — the evaluation's
/// *Proposed-Tuned* configuration. Returns the chosen threshold and the
/// latency the sweep measured at it.
pub fn tuned_fusion(platform: &Platform, workload: &Workload, n_msgs: usize) -> (u64, Duration) {
    let mut tuner = fusedpack_core::ThresholdTuner::new();
    for threshold in fusedpack_core::ThresholdTuner::default_grid() {
        let lat = latency(
            platform,
            SchemeKind::fusion_with_threshold(threshold),
            workload,
            n_msgs,
        );
        tuner.record(threshold, lat);
    }
    let best = tuner.best().expect("grid is non-empty");
    let &(_, lat) = tuner
        .samples()
        .iter()
        .find(|&&(threshold, _)| threshold == best)
        .expect("the best threshold was sampled");
    (best, lat)
}

/// Standard size sweeps per workload family (the x-axes of Figs. 12/13).
pub mod sizes {
    /// specfem3D boundary point counts (sparse).
    pub const SPECFEM: &[u64] = &[512, 1024, 2048, 4096, 8192, 16384];
    /// MILC local lattice extents (dense, small→medium).
    pub const MILC: &[u64] = &[4, 6, 8, 12, 16, 24];
    /// NAS_MG grid extents (dense, medium→large).
    pub const NAS: &[u64] = &[64, 128, 192, 256, 384, 512];
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_workloads::specfem::specfem3d_cm;

    /// The `threshold` field is what `proposed` resolves, mode by mode.
    #[test]
    fn threshold_field_reaches_proposed() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(2000);
        let predicted = fusedpack_core::predict_threshold(&platform.arch, w.avg_block_bytes());
        for (mode, want) in [
            (ThresholdMode::Default, 512 * 1024),
            (ThresholdMode::Fixed(4096), 4096),
            (ThresholdMode::Fixed(u64::MAX), u64::MAX),
            (ThresholdMode::Auto, predicted),
        ] {
            let cfg = RunConfig {
                threshold: mode,
                ..RunConfig::default()
            };
            match proposed(&cfg, &platform, &w) {
                SchemeKind::Fusion(c) => assert_eq!(c.threshold_bytes, want, "{mode:?}"),
                other => panic!("{mode:?} resolved to {other:?}"),
            }
        }
    }

    /// A fig12 cell runs the tuned-threshold grid and the four scheme
    /// columns, 13 exchanges, on one workload. Every cluster reuses the
    /// layout the workload compiled, so the cell compiles nothing more.
    #[test]
    fn a_fig12_cell_compiles_its_type_only_in_the_workload() {
        let platform = Platform::lassen();
        let w = fusedpack_workloads::specfem::specfem3d_oc(512);
        let schemes: Vec<SchemeKind> = fusedpack_core::ThresholdTuner::default_grid()
            .into_iter()
            .map(SchemeKind::fusion_with_threshold)
            .chain(gpu_driven_schemes())
            .collect();
        assert_eq!(schemes.len(), 13);
        let compiles: u64 = schemes
            .into_iter()
            .map(|s| {
                let cfg = ExchangeConfig::new(platform.clone(), s, w.clone(), HALO_MSGS);
                run_exchange(&cfg).report.layout_compiles
            })
            .sum();
        assert_eq!(compiles, 0);
    }
}
