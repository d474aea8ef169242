//! Parallel sweep runner.
//!
//! Every figure of the harness is a grid of fully independent,
//! deterministic virtual-cluster runs: each [`Cell`] builds its own engine,
//! shares no mutable state with its neighbours, and produces the same
//! [`RunReport`] regardless of when or where it executes. The runner
//! exploits that: [`grid`] executes a figure's cells on a scoped pool of OS
//! threads pulling from a work queue ([`par_map`]), with results collected
//! **by cell index** so the emitted rows — and therefore the figure CSVs —
//! are byte-identical to the serial execution order.
//!
//! Thread count: the `CAGVT_SWEEP_THREADS` environment variable when set
//! (`1` forces the serial path), otherwise one thread per host core.

use crate::{Cell, Row};
use cagvt_core::RunReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment knob selecting the sweep thread count.
pub const THREADS_ENV: &str = "CAGVT_SWEEP_THREADS";

/// Sweep thread count: `CAGVT_SWEEP_THREADS` if set (must be >= 1),
/// otherwise the host's available parallelism.
pub fn sweep_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("{THREADS_ENV} must be a positive integer, got {v:?}"),
        },
        Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// A boxed, self-contained job for [`par_map`].
pub type Task<T> = Box<dyn FnOnce() -> T + Send>;

/// Run `jobs` across `threads` OS threads (scoped; a panicking job aborts
/// the sweep), returning results **in input order** regardless of the
/// completion order. `threads <= 1` degenerates to an in-place serial loop
/// with no thread machinery at all.
pub fn par_map<T: Send>(jobs: Vec<Task<T>>, threads: usize) -> Vec<T> {
    let n = jobs.len();
    let threads = threads.min(n).max(1);
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    // Work queue over job indices: each worker claims the next unclaimed
    // index, takes the job out of its slot, and deposits the result in the
    // matching result slot. Index-addressed slots (not a shared Vec push)
    // are what make the output order independent of scheduling.
    let slots: Vec<Mutex<Option<Task<T>>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let out = job();
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("every claimed job deposits"))
        .collect()
}

/// Run a figure's cells with [`sweep_threads`] workers, one row per cell.
pub fn grid(figure: &'static str, cells: Vec<Cell>) -> Vec<Row> {
    grid_with(figure, cells, sweep_threads())
}

/// [`grid`] with an explicit thread count. Row order always equals cell
/// order; with `threads == 1` this *is* the serial runner.
pub fn grid_with(figure: &'static str, cells: Vec<Cell>, threads: usize) -> Vec<Row> {
    let jobs = cells
        .iter()
        .cloned()
        .map(|cell| -> Task<RunReport> { Box::new(move || cell.run(None, None)) })
        .collect();
    let reports = par_map(jobs, threads);
    cells.into_iter().zip(reports).map(|(cell, report)| cell.row(figure, report)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        // Jobs finish in reverse spawn order (later jobs are cheaper), yet
        // results come back by index.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) as u64 * 50));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = par_map(jobs, 8);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_path_matches() {
        let mk = || -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
            (0..10u64).map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>).collect()
        };
        assert_eq!(par_map(mk(), 1), par_map(mk(), 4));
    }

    #[test]
    fn par_map_handles_more_threads_than_jobs() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 1u8), Box::new(|| 2u8)];
        assert_eq!(par_map(jobs, 64), vec![1, 2]);
    }

    #[test]
    fn par_map_empty_is_empty() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(par_map(jobs, 4).is_empty());
    }
}
