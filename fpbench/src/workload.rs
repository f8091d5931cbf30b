//! The four workloads: inputs generated from `--seed`, and the cluster they
//! are handed to through `ClusterBuilder`.

use fusedpack_datatype::{CompiledLayout, TypeDesc};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{
    AppOp, BufId, BufInit, Cluster, ClusterBuilder, Program, RankId, SchemeKind, TypeSlot,
};
use fusedpack_net::{Endpoint, FlatLink, Hierarchy, Platform, TopologyHandle};
use fusedpack_sim::{splitmix64, FaultPlan, FaultSite, FaultSpec};
use fusedpack_telemetry::Telemetry;
use fusedpack_workloads::halo::{halo_programs, HaloBuffers};
use fusedpack_workloads::specfem::{specfem3d_cm, specfem3d_oc};
use fusedpack_workloads::HaloGrid;
use std::sync::Arc;

/// `Full` is what the benchmark measures. `Smoke` keeps every workload's
/// shape but shrinks it (4³ torus, 2k requests) for in-process tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Two ranks on the flat fabric replaying batches of requests.
    Serve,
    /// A periodic 3-D torus halo on the Lassen-like fat tree.
    Halo,
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the benchmark carries this workload: the layers it stresses.
    pub why: &'static str,
    shape: Shape,
    pub mode: DataMode,
    /// Proposed-Adaptive instead of Proposed.
    pub adaptive: bool,
    /// Arm the fabric fault plan derived from the seed.
    pub faults: bool,
    pub shards: u32,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "serve-flat",
        why: "event wheel, protocol engine, scheduler and layout-cache acquire do almost \
              all the work; no routed fabric and no bytes",
        shape: Shape::Serve,
        mode: DataMode::ModelOnly,
        adaptive: false,
        faults: false,
        shards: 1,
    },
    Spec {
        name: "halo-model",
        why: "512-rank torus halo: the routed fabric and a 6k-deep event wheel dominate; \
              copies are absent",
        shape: Shape::Halo,
        mode: DataMode::ModelOnly,
        adaptive: false,
        faults: false,
        shards: 1,
    },
    Spec {
        name: "halo-bytes",
        why: "halo-model with real bytes: the only difference is that copies and \
              buffer allocation run",
        shape: Shape::Halo,
        mode: DataMode::Full,
        adaptive: false,
        faults: false,
        shards: 1,
    },
    Spec {
        name: "halo-faults",
        why: "halo-bytes plus seeded hop faults, the adaptive controller and 2 shards: \
              reroute path, windowed event loop and barriers",
        shape: Shape::Halo,
        mode: DataMode::Full,
        adaptive: true,
        faults: true,
        shards: 2,
    },
];

/// serve-flat: requests (Isends over both ranks) per rep.
const SERVE_REQUESTS: u64 = 200_000;
/// Requests each rank posts per `Waitall`.
const SERVE_BATCH: usize = 16;
/// Element-count multipliers cycled lap by lap (the serve figure's mix).
const SIZE_MIX: [u64; 8] = [1, 1, 2, 1, 1, 4, 1, 2];
/// Boundary points per message: specfem3D_oc for serve, specfem3D_cm for
/// the halo (the `reproduce serve` and `reproduce topo` shapes).
const POINTS: u64 = 512;
/// Torus extent per dimension (8³ = 512 ranks, as in `reproduce topo`).
const HALO_GRID: u32 = 8;
const HALO_MSGS: usize = 2;
/// One warm-up lap and four measured laps.
const HALO_LAPS: usize = 5;
/// Per-hop-crossing probabilities of the halo-faults plan.
const FABRIC_FAULTS: [(FaultSite, f64); 3] = [
    (FaultSite::HopFlap, 0.02),
    (FaultSite::RailDegrade, 0.01),
    (FaultSite::HopDown, 0.002),
];

/// The generated inputs of one rep: the rank programs (consumed by the
/// builder) plus what the checks and replays need afterwards.
pub struct Inputs {
    ranks: Vec<(u32, Program)>,
    plan: Option<FaultPlan>,
    pub meta: Meta,
}

/// What survives `ClusterBuilder::build`: sizes, the datatype, and the
/// halo's buffer map for the byte check.
pub struct Meta {
    pub ranks: usize,
    pub nodes: u32,
    /// Isends in the generated programs.
    pub msgs: u64,
    /// Packed bytes summed over every Isend.
    pub payload_bytes: u64,
    /// Laps every rank records.
    pub laps: usize,
    /// Requests one rank posts per `Waitall`.
    pub batch: usize,
    pub desc: Arc<TypeDesc>,
    /// Nominal element count per message.
    pub count: u64,
    /// Halo workloads: the grid and each rank's send/receive buffers.
    pub halo: Option<(HaloGrid, Vec<HaloBuffers>)>,
    /// Directed endpoint pairs the programs send between.
    pub pairs: Vec<(Endpoint, Endpoint)>,
}

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    fn scheme(&self) -> SchemeKind {
        if self.adaptive {
            SchemeKind::fusion_adaptive()
        } else {
            SchemeKind::fusion_default()
        }
    }

    /// The fabric the workload runs on, freshly built: the flat model as a
    /// topology for serve (bit-identical to `ClusterBuilder`'s default flat
    /// path), the Lassen-like fat tree for the halo.
    pub fn topology(&self, nodes: u32) -> TopologyHandle {
        match self.shape {
            Shape::Serve => Arc::new(FlatLink::for_platform(&Platform::lassen(), nodes)),
            Shape::Halo => Arc::new(Hierarchy::lassen_like(nodes)),
        }
    }

    /// Generate the rep's inputs from `seed`. The same seed gives the same
    /// programs, buffer contents and fault plan.
    pub fn inputs(&self, scale: Scale, seed: u64) -> Inputs {
        // Shifted so the halo's per-buffer seed offsets cannot overflow.
        let base = splitmix64(seed) >> 16;
        let (ranks, desc, count, batch, laps, halo) = match self.shape {
            Shape::Serve => {
                let requests = match scale {
                    Scale::Full => SERVE_REQUESTS,
                    Scale::Smoke => 2_000,
                };
                let laps = requests.div_ceil(2 * SERVE_BATCH as u64) as usize;
                let desc = specfem3d_oc(POINTS).desc;
                let ranks = vec![
                    (0, serve_program(&desc, laps, base, RankId(1))),
                    (1, serve_program(&desc, laps, base, RankId(0))),
                ];
                (ranks, desc, 1, SERVE_BATCH, laps, None)
            }
            Shape::Halo => {
                let n = match scale {
                    Scale::Full => HALO_GRID,
                    Scale::Smoke => 4,
                };
                let grid = HaloGrid::new_3d(n, n, n);
                let workload = specfem3d_cm(POINTS);
                let gpus = Platform::lassen().gpus_per_node;
                let (ranks, bufs): (Vec<_>, Vec<_>) =
                    halo_programs(&grid, &workload, HALO_MSGS, HALO_LAPS, base)
                        .into_iter()
                        .enumerate()
                        .map(|(r, (p, b))| ((r as u32 / gpus, p), b))
                        .unzip();
                let batch = grid.neighbors(0).len() * HALO_MSGS;
                (
                    ranks,
                    workload.desc,
                    workload.count,
                    batch,
                    HALO_LAPS,
                    Some((grid, bufs)),
                )
            }
        };
        let size = desc.size();
        let endpoints = endpoints(&ranks);
        let mut pairs = Vec::new();
        let (mut msgs, mut payload_bytes) = (0, 0);
        for (r, (_, program)) in ranks.iter().enumerate() {
            for op in &program.ops {
                if let AppOp::Isend { count, dst, .. } = op {
                    msgs += 1;
                    payload_bytes += count * size;
                    let pair = (endpoints[r], endpoints[dst.0 as usize]);
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        let plan = self.faults.then(|| {
            FABRIC_FAULTS.iter().fold(
                FaultPlan::new(splitmix64(seed ^ 0xfa17)),
                |plan, &(site, p)| plan.with(site, FaultSpec::with_probability(p)),
            )
        });
        Inputs {
            meta: Meta {
                ranks: ranks.len(),
                nodes: ranks.iter().map(|&(n, _)| n).max().unwrap_or(0) + 1,
                msgs,
                payload_bytes,
                laps,
                batch,
                desc,
                count,
                halo,
                pairs,
            },
            ranks,
            plan,
        }
    }

    /// Hand the inputs to `ClusterBuilder` and build the cluster.
    pub fn build(&self, inputs: Inputs, telemetry: Option<&Telemetry>) -> (Cluster, Meta) {
        let Inputs { ranks, plan, meta } = inputs;
        let mut builder = ClusterBuilder::new(Platform::lassen(), self.scheme())
            .data_mode(self.mode)
            .shards(self.shards);
        if self.shape == Shape::Halo {
            builder = builder.topology(self.topology(meta.nodes));
        }
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        if let Some(t) = telemetry {
            builder = builder.telemetry(t.clone());
        }
        for (node, program) in ranks {
            builder = builder.add_rank(node, program);
        }
        (builder.build(), meta)
    }
}

/// Each rank's (node, GPU slot), assigned the way `ClusterBuilder` does: ranks
/// take the next slot on their node in the order they are added.
fn endpoints(ranks: &[(u32, Program)]) -> Vec<Endpoint> {
    let mut slots = std::collections::HashMap::new();
    ranks
        .iter()
        .map(|&(node, _)| {
            let slot = slots.entry(node).or_insert(0);
            *slot += 1;
            Endpoint::new(node, *slot - 1)
        })
        .collect()
}

/// One serve rank: `laps` batches of `SERVE_BATCH` receives and sends to
/// `peer`, each batch timed as one lap, element counts cycling `SIZE_MIX`.
/// A closed loop in virtual time with no think gap.
fn serve_program(desc: &Arc<TypeDesc>, laps: usize, seed: u64, peer: RankId) -> Program {
    let max_count = SIZE_MIX.iter().copied().max().unwrap_or(1);
    let buf_len = CompiledLayout::of(desc).footprint(max_count).max(1);
    let mut p = Program::new();
    let send: Vec<BufId> = (0..SERVE_BATCH)
        .map(|i| p.buffer(buf_len, BufInit::Random(seed + i as u64)))
        .collect();
    let recv: Vec<BufId> = (0..SERVE_BATCH)
        .map(|_| p.buffer(buf_len, BufInit::Zero))
        .collect();
    p.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: desc.clone(),
    });
    for lap in 0..laps {
        let count = SIZE_MIX[lap % SIZE_MIX.len()];
        p.push(AppOp::ResetTimer);
        for (i, &buf) in recv.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf,
                ty: TypeSlot(0),
                count,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &buf) in send.iter().enumerate() {
            p.push(AppOp::Isend {
                buf,
                ty: TypeSlot(0),
                count,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        p.push(AppOp::RecordLap);
    }
    p
}
