//! The pluggable scheme registry: every datatype-processing scheme is
//! described once here and constructed by name everywhere else.
//!
//! Figure harnesses, chaos grids, and test sweeps enumerate
//! [`SchemeRegistry::global`] (or resolve an explicit legend order with
//! [`SchemeRegistry::by_names`]) instead of hard-coding `SchemeKind`
//! lists, so adding a sixth scheme is one engine module plus one
//! descriptor — zero dispatch sites.
//!
//! This module is also, together with engine construction, the *only*
//! place allowed to match on [`SchemeKind`]: `engine_for` maps each
//! variant to its `SchemeEngine` strategy object, and the label/cache accessors live here beside it.

use crate::cluster::schemes::{
    FusionEngine, GpuAsyncEngine, GpuSyncEngine, HybridEngine, NaiveEngine, SchemeEngine,
};
use crate::scheme::{NaiveFlavor, SchemeKind};
use fusedpack_core::FusionConfig;
use fusedpack_net::platform::Platform;
use std::sync::Arc;

/// One registered scheme: identity, paper metadata, and a constructor.
pub struct SchemeDescriptor {
    /// Stable CLI/registry name (kebab-case).
    pub name: &'static str,
    /// One-line description of the design.
    pub summary: &'static str,
    make: fn() -> SchemeKind,
}

impl SchemeDescriptor {
    /// Construct the scheme this descriptor registers.
    pub fn make(&self) -> SchemeKind {
        (self.make)()
    }
}

/// The registered schemes, in Table-I order.
static ENTRIES: &[SchemeDescriptor] = &[
    SchemeDescriptor {
        name: "gpu-sync",
        summary: "pack kernel + cudaStreamSynchronize per message [8, 22]",
        make: || SchemeKind::GpuSync,
    },
    SchemeDescriptor {
        name: "gpu-async",
        summary: "multi-stream pack kernels with event record/query completion [23]",
        make: || SchemeKind::GpuAsync,
    },
    SchemeDescriptor {
        name: "cpu-gpu-hybrid",
        summary: "GDRCopy CPU path for dense/small layouts, cached-layout kernels otherwise [24]",
        make: || SchemeKind::CpuGpuHybrid,
    },
    SchemeDescriptor {
        name: "proposed",
        summary: "the paper's dynamic kernel fusion at the default 512 KB threshold",
        make: SchemeKind::fusion_default,
    },
    SchemeDescriptor {
        name: "proposed-adaptive",
        summary: "kernel fusion + online threshold control + cost-guided partitioning",
        make: SchemeKind::fusion_adaptive,
    },
    SchemeDescriptor {
        name: "spectrum-mpi",
        summary: "naive per-block staged copies, IBM Spectrum MPI constants",
        make: || SchemeKind::NaiveCopy(NaiveFlavor::SpectrumMpi),
    },
    SchemeDescriptor {
        name: "open-mpi",
        summary: "naive per-block staged copies, OpenMPI + UCX constants",
        make: || SchemeKind::NaiveCopy(NaiveFlavor::OpenMpi),
    },
    SchemeDescriptor {
        name: "mvapich2-gdr",
        summary: "adaptive per-message choice between the hybrid CPU path and GPU-Sync",
        make: || SchemeKind::Adaptive,
    },
];

static GLOBAL: SchemeRegistry = SchemeRegistry { entries: ENTRIES };

/// Name-indexed catalogue of every scheme the stack implements.
pub struct SchemeRegistry {
    entries: &'static [SchemeDescriptor],
}

impl SchemeRegistry {
    /// The process-wide registry of all built-in schemes.
    pub fn global() -> &'static SchemeRegistry {
        &GLOBAL
    }

    /// Every registered descriptor, in Table-I order.
    pub fn all(&self) -> &'static [SchemeDescriptor] {
        self.entries
    }

    /// Look a descriptor up by its registry name.
    pub fn get(&self, name: &str) -> Option<&'static SchemeDescriptor> {
        self.entries.iter().find(|d| d.name == name)
    }

    /// Construct a scheme by name; panics (listing the known names) on an
    /// unknown one — registry names are compile-time constants at every
    /// call site, so a miss is a programming error.
    pub fn create(&self, name: &str) -> SchemeKind {
        match self.get(name) {
            Some(d) => d.make(),
            None => panic!(
                "unknown scheme {name:?}; registered: {:?}",
                self.entries.iter().map(|d| d.name).collect::<Vec<_>>()
            ),
        }
    }

    /// Construct several schemes in the caller's order — figure legends
    /// fix their own row orders, so enumeration order is the caller's.
    pub fn by_names(&self, names: &[&str]) -> Vec<SchemeKind> {
        names.iter().map(|n| self.create(n)).collect()
    }
}

/// Map a scheme to its engine (the strategy object holding the scheme's
/// transfer paths). The single construction-time `SchemeKind` dispatch —
/// after this, the cluster only ever talks to the trait.
pub(crate) fn engine_for(kind: &SchemeKind, platform: &Platform) -> Arc<dyn SchemeEngine> {
    match kind {
        SchemeKind::GpuSync => Arc::new(GpuSyncEngine),
        SchemeKind::GpuAsync => Arc::new(GpuAsyncEngine),
        SchemeKind::CpuGpuHybrid => Arc::new(HybridEngine::new(platform, false)),
        SchemeKind::Adaptive => Arc::new(HybridEngine::new(platform, true)),
        SchemeKind::Fusion(cfg) => Arc::new(FusionEngine::new(cfg.clone(), false)),
        SchemeKind::FusionAdaptive(cfg) => Arc::new(FusionEngine::new(cfg.clone(), true)),
        SchemeKind::NaiveCopy(flavor) => Arc::new(NaiveEngine { flavor: *flavor }),
    }
}

impl SchemeKind {
    /// Short display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::GpuSync => "GPU-Sync",
            SchemeKind::GpuAsync => "GPU-Async",
            SchemeKind::CpuGpuHybrid => "CPU-GPU-Hybrid",
            SchemeKind::Fusion(_) => "Proposed",
            SchemeKind::FusionAdaptive(_) => "Proposed-Adaptive",
            SchemeKind::NaiveCopy(NaiveFlavor::SpectrumMpi) => "SpectrumMPI",
            SchemeKind::NaiveCopy(NaiveFlavor::OpenMpi) => "OpenMPI",
            SchemeKind::Adaptive => "MVAPICH2-GDR",
        }
    }

    /// The fusion configuration, for the two fusion variants.
    pub fn fusion_config(&self) -> Option<&FusionConfig> {
        match self {
            SchemeKind::Fusion(cfg) | SchemeKind::FusionAdaptive(cfg) => Some(cfg),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_descriptor_round_trips() {
        let reg = SchemeRegistry::global();
        for d in reg.all() {
            let found = reg.get(d.name).expect("registered name");
            assert!(std::ptr::eq(found, d), "{}", d.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let reg = SchemeRegistry::global();
        for (i, a) in reg.all().iter().enumerate() {
            for b in &reg.all()[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.make().label(), b.make().label());
            }
        }
    }

    #[test]
    fn by_names_preserves_caller_order() {
        let schemes = SchemeRegistry::global().by_names(&["proposed", "gpu-sync", "gpu-async"]);
        let labels: Vec<_> = schemes.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["Proposed", "GPU-Sync", "GPU-Async"]);
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_name_panics_with_catalogue() {
        SchemeRegistry::global().create("quantum-teleport");
    }

    #[test]
    fn every_scheme_builds_an_engine() {
        let platform = Platform::lassen();
        for d in SchemeRegistry::global().all() {
            // Construction must not panic for any registered scheme.
            let _ = engine_for(&d.make(), &platform);
        }
    }

    #[test]
    fn fusion_config_accessor() {
        assert!(SchemeKind::GpuSync.fusion_config().is_none());
        let tuned = SchemeKind::fusion_with_threshold(64 * 1024);
        assert_eq!(
            tuned.fusion_config().expect("fusion").threshold_bytes,
            64 * 1024
        );
    }
}
