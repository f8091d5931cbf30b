//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [EXPERIMENT...] [--csv DIR] [--trace-out FILE] [--jobs N]
//!           [--threshold auto|BYTES] [--seed N] [--requests N[k|m]]
//!           [--timings]
//!
//! EXPERIMENT:       table2 fig1 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!                   ablation adapt ipc approaches chaos chaos-topo topo
//!                   serve (default: all)
//! --csv DIR:        additionally write one CSV per table into DIR
//! --threshold X:    fusion threshold for the Proposed columns of the
//!                   scheme-comparison figures (9/10/12/13): a byte count,
//!                   or "auto" to resolve the model-predicted threshold
//!                   from each workload's average contiguous-block size
//!                   (fusedpack_core::predict_threshold). The explicit
//!                   fig8 sweep and the adapt experiment are unaffected.
//! --requests N:     total requests the serve experiment replays per cell
//!                   (default 200k; "50k" and "1m" style suffixes accepted)
//! --seed N:         master seed for the chaos/chaos-topo fault plans
//!                   (default 42). Per-cell plans derive from this and the
//!                   cell's grid coordinates, and fault decisions ride
//!                   per-rank/keyed streams, so the chaos reports are
//!                   byte-identical across runs and --jobs.
//! --jobs N:         run sweep cells on N worker threads (default: all
//!                   available cores). Each simulation drains one event
//!                   queue on one thread; tables and CSVs are
//!                   byte-identical for every N.
//! --timings:        after each experiment, print the per-cell wall-clock
//!                   timing report from the sweep executor
//! --trace-out FILE: run the Fig. 11 fusion cell with the typed-event
//!                   recorder, write a Chrome Trace Event JSON (load in
//!                   Perfetto / chrome://tracing), print the metrics
//!                   summary, and reconcile the timeline against the
//!                   mpi::breakdown ledger. With no EXPERIMENT given,
//!                   only the trace runs.
//! ```
//!
//! The flags fill one [`RunConfig`] that every experiment of the run
//! reads; nothing is configured through process-global state.

use fusedpack_bench::figs::ThresholdMode;
use fusedpack_bench::{exec, run_experiment, RunConfig, EXPERIMENTS};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig::default();
    let mut csv_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut timings = false;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory");
                    std::process::exit(2);
                }));
            }
            "--trace-out" => {
                trace_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a file path");
                    std::process::exit(2);
                }));
            }
            "--jobs" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    });
                cfg.jobs = n;
            }
            "--threshold" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--threshold requires \"auto\" or a byte count");
                    std::process::exit(2);
                });
                cfg.threshold = parse_threshold(&v).unwrap_or_else(|| {
                    eprintln!("--threshold requires \"auto\" or a positive byte count");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed requires a non-negative integer");
                        std::process::exit(2);
                    });
                cfg.chaos_seed = n;
            }
            "--requests" => {
                let n = it
                    .next()
                    .and_then(|v| parse_requests(&v))
                    .unwrap_or_else(|| {
                        eprintln!("--requests requires a positive count (k/m suffixes ok)");
                        std::process::exit(2);
                    });
                cfg.serve_requests = n;
            }
            "--timings" => timings = true,
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [EXPERIMENT...] [--csv DIR] [--trace-out FILE] \
                     [--jobs N] [--threshold auto|BYTES] [--seed N] [--requests N[k|m]] \
                     [--timings]"
                );
                println!("experiments: {}", EXPERIMENTS.join(" "));
                return;
            }
            "all" => selected.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}; see --help");
                std::process::exit(2);
            }
            name => {
                if !EXPERIMENTS.contains(&name) {
                    eprintln!(
                        "unknown experiment {name:?}; known: {}",
                        EXPERIMENTS.join(" ")
                    );
                    std::process::exit(2);
                }
                selected.push(name.to_string());
            }
        }
    }

    if let Some(path) = &trace_out {
        write_trace(path);
        if selected.is_empty() {
            return;
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS.iter().map(|s| s.to_string()));
    }

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for name in &selected {
        let start = std::time::Instant::now();
        let tables = run_experiment(name, &cfg);
        for table in &tables {
            let _ = writeln!(out, "{}", table.render());
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{}.csv", table.slug());
                std::fs::write(&path, table.to_csv()).expect("write csv");
                let _ = writeln!(out, "   [csv: {path}]");
            }
        }
        let _ = writeln!(
            out,
            "   ({name} regenerated in {:.2}s)\n",
            start.elapsed().as_secs_f64()
        );
        // Drained either way, so the log holds one experiment at a time.
        let cells = cfg.take_timings();
        if timings {
            print_timings(&mut out, name, cfg.jobs, &cells);
        }
    }
}

/// Parse a `--threshold` value: "auto" or a positive byte count.
fn parse_threshold(v: &str) -> Option<ThresholdMode> {
    if v == "auto" {
        return Some(ThresholdMode::Auto);
    }
    v.parse::<u64>()
        .ok()
        .filter(|&b| b > 0)
        .map(ThresholdMode::Fixed)
}

/// Parse a request count with an optional `k`/`m` suffix ("50k", "1m").
/// A count that overflows `u64` once scaled is rejected.
fn parse_requests(v: &str) -> Option<u64> {
    let (digits, mult) = match v.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1_000),
        None => match v.strip_suffix(['m', 'M']) {
            Some(d) => (d, 1_000_000),
            None => (v, 1),
        },
    };
    digits
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .and_then(|n| n.checked_mul(mult))
}

/// Render the executor's per-cell wall-clock report for one experiment.
fn print_timings(out: &mut impl Write, name: &str, jobs: usize, timings: &[exec::CellTiming]) {
    if timings.is_empty() {
        let _ = writeln!(out, "   [timings: {name} ran no sweep cells]\n");
        return;
    }
    let total: std::time::Duration = timings.iter().map(|t| t.wall).sum();
    let _ = writeln!(
        out,
        "   [timings: {name}, {} cells on {} worker(s), cell-time total {:.2}s]",
        timings.len(),
        jobs,
        total.as_secs_f64()
    );
    for t in timings {
        let _ = writeln!(
            out,
            "     #{:<3} {:<40} worker {}  {:>9.2}ms",
            t.index,
            t.label,
            t.worker,
            t.wall.as_secs_f64() * 1e3
        );
    }
    let _ = writeln!(out);
}

/// Run the Fig. 11 fusion cell traced, export the Chrome trace, and
/// cross-check the timeline's bucket totals against `mpi::breakdown`.
fn write_trace(path: &str) {
    use fusedpack_bench::figs::fig11;
    use fusedpack_sim::Duration;
    use fusedpack_telemetry::{chrome, reconcile, MetricsSummary};

    let start = std::time::Instant::now();
    let (telemetry, breakdowns) = fig11::traced_run();
    let snap = telemetry.snapshot();

    if let Err(e) = std::fs::write(path, chrome::export(&snap)) {
        eprintln!("cannot write trace to {path:?}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {path}: {} events ({} dropped) from the Fig. 11 fusion cell \
         (MILC su3_zdown x{}, ABCI) in {:.2}s",
        snap.events.len(),
        snap.dropped,
        fig11::N_MSGS,
        start.elapsed().as_secs_f64()
    );
    println!("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing\n");

    println!("{}", MetricsSummary::from_snapshot(&snap).render());

    let external: Vec<(u32, [Duration; 5])> = breakdowns
        .iter()
        .enumerate()
        .map(|(r, b)| (r as u32, b.values()))
        .collect();
    let report = reconcile(&snap, &external, Duration::ZERO);
    println!("{}", report.render());
    if !report.is_ok() {
        eprintln!("trace does not reconcile with mpi::breakdown");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_accept_suffixes() {
        assert_eq!(parse_requests("50000"), Some(50_000));
        assert_eq!(parse_requests("50k"), Some(50_000));
        assert_eq!(parse_requests("2M"), Some(2_000_000));
        assert_eq!(parse_requests("0"), None);
        assert_eq!(parse_requests("k"), None);
        assert_eq!(parse_requests("-5k"), None);
    }

    #[test]
    fn requests_reject_overflow_instead_of_wrapping() {
        assert_eq!(parse_requests("18446744073709552k"), None);
        assert_eq!(parse_requests("18446744073710m"), None);
        assert_eq!(
            parse_requests("18446744073709551k"),
            Some(18_446_744_073_709_551_000)
        );
        assert_eq!(parse_requests("18446744073709551615"), Some(u64::MAX));
    }

    #[test]
    fn threshold_accepts_auto_and_every_positive_count() {
        assert_eq!(parse_threshold("auto"), Some(ThresholdMode::Auto));
        assert_eq!(parse_threshold("4096"), Some(ThresholdMode::Fixed(4096)));
        assert_eq!(
            parse_threshold("18446744073709551615"),
            Some(ThresholdMode::Fixed(u64::MAX))
        );
        assert_eq!(parse_threshold("0"), None);
        assert_eq!(parse_threshold("18446744073709551616"), None);
        assert_eq!(parse_threshold("Auto"), None);
    }
}
