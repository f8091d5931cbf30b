//! Parallel experiment executor.
//!
//! Every figure of the paper's evaluation is a sweep of *independent,
//! deterministic* simulation cells (scheme × workload × size × buffer
//! count). The figure modules decompose their sweeps into a flat list of
//! tagged [`Cell`] jobs; [`sweep`] runs them on a scoped worker pool and
//! reassembles the results **in cell-index order**, so the emitted tables
//! and CSVs are byte-identical to a sequential run regardless of the
//! worker count or scheduling jitter.
//!
//! The pool size is the run's [`RunConfig::jobs`] (the `reproduce
//! --jobs N` flag; all available cores by default). `jobs == 1` runs the
//! cells inline on the calling thread — the reference behaviour the
//! determinism CI job diffs against.
//!
//! Each cell's wall-clock time is appended, in cell-index order, to the
//! run's own timing log, which `reproduce --timings` drains with
//! [`RunConfig::take_timings`]. The executor keeps no state between
//! sweeps.

use crate::figs::RunConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One unit of sweep work: a label (for timing reports) and a closure
/// producing this cell's measurement.
pub struct Cell<T> {
    label: String,
    job: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Cell<T> {
    pub fn new(label: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        Cell {
            label: label.into(),
            job: Box::new(job),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Wall-clock timing of one executed cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Experiment name passed to [`sweep`].
    pub experiment: String,
    /// The cell's label.
    pub label: String,
    /// Position in the cell list.
    pub index: usize,
    /// Worker thread that ran the cell (0 when sequential).
    pub worker: usize,
    /// Wall-clock execution time of the cell closure.
    pub wall: Duration,
}

/// A completed cell awaiting reassembly: (index, value, label, worker,
/// wall time).
type Finished<T> = (usize, T, String, usize, Duration);

/// Run `cells` and return their results in cell-index order.
///
/// With `cfg.jobs == 1` (or a single cell) the cells run inline,
/// sequentially, on the calling thread. Otherwise a crossbeam scope
/// spawns `min(jobs, cells)` workers that claim cells from a shared
/// atomic cursor; results are reassembled by index afterwards, so the
/// output is identical either way.
pub fn sweep<T: Send + 'static>(cfg: &RunConfig, experiment: &str, cells: Vec<Cell<T>>) -> Vec<T> {
    let n = cells.len();
    let workers = cfg.jobs.min(n);
    let record = |index, label, worker, wall| CellTiming {
        experiment: experiment.to_string(),
        label,
        index,
        worker,
        wall,
    };

    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for (index, cell) in cells.into_iter().enumerate() {
            let t0 = Instant::now();
            out.push((cell.job)());
            let timing = record(index, cell.label, 0, t0.elapsed());
            cfg.timings.lock().push(timing);
        }
        return out;
    }

    // Each slot holds one unclaimed cell; workers claim the next index
    // from the cursor, so no two workers ever touch the same slot.
    let slots: Vec<Mutex<Option<Cell<T>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<Finished<T>>> = Mutex::new(Vec::with_capacity(n));

    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let slots = &slots;
                let cursor = &cursor;
                let done = &done;
                s.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let cell = slots[index].lock().take().expect("cell claimed once");
                    let t0 = Instant::now();
                    let value = (cell.job)();
                    let wall = t0.elapsed();
                    done.lock().push((index, value, cell.label, worker, wall));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sweep worker panicked");
        }
    })
    .expect("sweep scope");

    let mut finished = done.into_inner();
    finished.sort_by_key(|&(index, ..)| index);
    debug_assert_eq!(finished.len(), n);
    // Record timings in cell-index order so the --timings report is as
    // deterministic in shape as the tables themselves.
    let mut out = Vec::with_capacity(n);
    let mut timings = cfg.timings.lock();
    for (index, value, label, worker, wall) in finished {
        timings.push(record(index, label, worker, wall));
        out.push(value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(n: usize) -> Vec<Cell<usize>> {
        (0..n)
            .map(|i| Cell::new(format!("cell{i}"), move || i * i))
            .collect()
    }

    fn with_jobs(jobs: usize) -> RunConfig {
        RunConfig {
            jobs,
            ..RunConfig::default()
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let want: Vec<usize> = (0..40).map(|i| i * i).collect();
        assert_eq!(sweep(&with_jobs(1), "t", cells(40)), want);
        assert_eq!(
            sweep(&with_jobs(4), "t", cells(40)),
            want,
            "parallel must preserve order"
        );
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let cfg = with_jobs(16);
        assert_eq!(sweep(&cfg, "t", cells(3)), vec![0, 1, 4]);
        assert!(sweep::<usize>(&cfg, "t", Vec::new()).is_empty());
    }

    #[test]
    fn timings_are_recorded_in_index_order() {
        for jobs in [1, 4] {
            let cfg = with_jobs(jobs);
            let _ = sweep(&cfg, "timed", cells(8));
            let timings = cfg.take_timings();
            assert_eq!(timings.len(), 8, "jobs={jobs}");
            for (i, t) in timings.iter().enumerate() {
                assert_eq!(t.experiment, "timed");
                assert_eq!(t.index, i);
                assert_eq!(t.label, format!("cell{i}"));
            }
            assert!(cfg.take_timings().is_empty(), "take drains the log");
        }
    }
}
