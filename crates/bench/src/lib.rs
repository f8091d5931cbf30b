//! # fusedpack-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§V). Each module exposes a `run()` returning a renderable
//! [`table::Table`], parameterized by a [`RunConfig`] when it sweeps or
//! honours a `reproduce` flag; the binary prints the tables and writes CSVs,
//! and the Criterion benches exercise representative cells so `cargo
//! bench` covers every figure.
//!
//! | experiment | module | paper content |
//! |---|---|---|
//! | Fig. 1 | [`figs::fig1`] | kernel time vs launch overhead across GPU generations |
//! | Fig. 8 | [`figs::fig8`] | fusion-threshold sweep (under-/over-fused) |
//! | Fig. 9 | [`figs::fig9`] | bulk sparse exchange vs #buffers, Lassen |
//! | Fig. 10 | [`figs::fig10`] | bulk dense exchange vs #buffers, Lassen |
//! | Fig. 11 | [`figs::fig11`] | cost breakdown of GPU-driven designs, ABCI |
//! | Fig. 12 | [`figs::fig12`] | four workloads × sizes, Lassen |
//! | Fig. 13 | [`figs::fig13`] | four workloads × sizes, ABCI |
//! | Fig. 14 | [`figs::fig14`] | production libraries, normalized |
//! | Table II | [`figs::table2`] | platform configurations |
//! | Ablations | [`figs::ablation`] | design-choice ablations (DESIGN.md §5) |
//! | Adaptive | [`figs::adapt`] | extension: online threshold control on a phase-changing workload |
//! | DirectIPC | [`figs::ipc`] | extension: fused zero-copy intra-node transfers |
//! | Chaos | [`figs::chaos`] | robustness: seeded fault-injection grid, checksum + latency inflation |
//! | Chaos-topo | [`figs::chaos_topo`] | robustness: per-hop fabric faults on the 512-rank torus, reroute/failover counts |
//! | Topo | [`figs::topo`] | topology contrast: 512-rank 3-D halo on fat-tree vs dragonfly machines |
//! | Serve | [`figs::serve`] | sustained load: 200k-request replay, throughput + p50/p99/p999 tails, allocator churn |
//! | §III / Fig. 4 | [`figs::approaches`] | the three transfer approaches (Algorithms 1-3) |

pub mod exec;
pub mod figs;
pub mod table;

pub use figs::RunConfig;
pub use table::Table;

/// All experiment names accepted by the `reproduce` binary.
pub const EXPERIMENTS: &[&str] = &[
    "table2",
    "fig1",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablation",
    "adapt",
    "ipc",
    "approaches",
    "chaos",
    "chaos-topo",
    "topo",
    "serve",
];

/// Run one experiment by name under `cfg`.
pub fn run_experiment(name: &str, cfg: &RunConfig) -> Vec<Table> {
    match name {
        "table2" => vec![figs::table2::run()],
        "fig1" => vec![figs::fig1::run()],
        "fig8" => vec![figs::fig8::run(cfg)],
        "fig9" => vec![figs::fig9::run(cfg)],
        "fig10" => vec![figs::fig10::run(cfg)],
        "fig11" => vec![figs::fig11::run(cfg)],
        "fig12" => figs::fig12::run(cfg),
        "fig13" => figs::fig13::run(cfg),
        "fig14" => vec![figs::fig14::run(cfg)],
        "ablation" => figs::ablation::run(cfg),
        "adapt" => vec![figs::adapt::run(cfg)],
        "ipc" => vec![figs::ipc::run(cfg)],
        "approaches" => vec![figs::approaches::run(cfg)],
        "chaos" => vec![figs::chaos::run(cfg)],
        "chaos-topo" => vec![figs::chaos_topo::run(cfg)],
        "topo" => vec![figs::topo::run(cfg)],
        "serve" => figs::serve::run(cfg),
        other => panic!("unknown experiment {other:?}; known: {EXPERIMENTS:?}"),
    }
}
