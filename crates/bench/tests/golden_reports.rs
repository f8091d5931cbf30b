//! Golden-report snapshot tests: the refactor-proof harness.
//!
//! `results/golden/` holds the committed CSV output of `reproduce fig8`
//! and `reproduce approaches`. These tests regenerate both tables
//! in-process and compare the CSV rendering **byte for byte** against the
//! snapshots — any behavioural drift in the scheme engines, the request
//! lifecycle, or the sweep executor shows up as a diff here, not as a
//! silently shifted number in a figure.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! cargo run --release --bin reproduce -- fig8 approaches --csv results/golden
//! ```

use fusedpack_bench::{run_experiment, RunConfig};
use fusedpack_mpi::SchemeKind;
use fusedpack_net::{FlatLink, Platform};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_exchange, ExchangeConfig, HaloGrid};
use std::sync::Arc;

/// Path of a committed golden CSV.
fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(file)
}

/// Regenerate `experiment` and require its single table to match the
/// committed snapshot byte for byte (same slug, same CSV bytes).
fn assert_matches_golden(experiment: &str, golden_file: &str) {
    let tables = run_experiment(experiment, &RunConfig::default());
    assert_eq!(tables.len(), 1, "{experiment} renders one table");
    let table = &tables[0];

    let expected_slug = golden_file.strip_suffix(".csv").expect("csv file");
    assert_eq!(
        table.slug(),
        expected_slug,
        "{experiment}: table title changed — rename the golden file too"
    );

    let path = golden_path(golden_file);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden snapshot {path:?}: {e}"));
    let fresh = table.to_csv();
    if fresh != golden {
        // A plain assert_eq! on multi-KB CSVs is unreadable; report the
        // first differing line instead.
        for (i, (g, f)) in golden.lines().zip(fresh.lines()).enumerate() {
            assert_eq!(f, g, "{experiment}: line {} diverges from {path:?}", i + 1);
        }
        assert_eq!(
            fresh.lines().count(),
            golden.lines().count(),
            "{experiment}: row count diverges from {path:?}"
        );
        panic!("{experiment}: output differs from {path:?} (whitespace or ordering)");
    }
}

#[test]
fn fig8_matches_golden_snapshot() {
    assert_matches_golden(
        "fig8",
        "fig_8_fused_kernel_threshold_sweep_specfem3d_cm_32_ops_lassen.csv",
    );
}

#[test]
fn approaches_matches_golden_snapshot() {
    assert_matches_golden(
        "approaches",
        "siii_fig_4_three_approaches_to_non_contiguous_transfer_specfem3d_cm_x16_lassen.csv",
    );
}

/// The default fabric *is* [`FlatLink`]: a cluster built without a
/// topology and one given an explicit `FlatLink::for_platform` time every
/// transfer identically and account the same bytes on the same hops — so
/// the goldens above pin the flat fabric, and attaching it explicitly can
/// never move a golden number.
#[test]
fn explicit_flat_topology_is_bit_identical_to_default() {
    let cfg = |topo: bool| {
        let platform = Platform::lassen();
        let grid = HaloGrid::new_3d(2, 2, 2);
        let mut c = ExchangeConfig::new(
            platform.clone(),
            SchemeKind::fusion_default(),
            specfem3d_cm(1024),
            4,
        )
        .with_grid(grid);
        if topo {
            let nodes = grid.ranks().div_ceil(platform.gpus_per_node);
            c = c.with_topology(Arc::new(FlatLink::for_platform(&platform, nodes)));
        }
        c
    };
    let default = run_exchange(&cfg(false));
    let flat = run_exchange(&cfg(true));
    assert_eq!(
        default.latency, flat.latency,
        "FlatLink must not move timing"
    );
    assert_eq!(default.lap_latencies, flat.lap_latencies);
    assert_eq!(
        default.report.events_processed,
        flat.report.events_processed
    );
    assert!(
        default.hop_bytes > 0,
        "the default fabric accounts its hops"
    );
    assert_eq!(default.hop_bytes, flat.hop_bytes);
}
