//! Assembled results of one simulation run — the quantities the paper
//! reports.
//!
//! A [`RunReport`] keeps the cluster's counters whole: the merged
//! [`WorkerCounters`] (rollbacks, message classes, round requests…), the
//! pumps' [`MpiCounters`] and the fault injector's stats. The per-round
//! disparity and width means and the steady-state rate are computed from the
//! one round log ([`SharedStats::rounds`](crate::stats::SharedStats::rounds)).

use cagvt_base::stats::Welford;
use cagvt_base::time::VirtualTime;
use cagvt_exec::RunStats;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::model::Model;
use crate::node::EngineShared;
use crate::stats::{MpiCounters, RoundSample, WorkerCounters};

/// Steady-state measurement window: the report's `steady_rate` measures
/// committed throughput from this fraction of GVT progress to the last
/// round below the end time, excluding the warm-up ramp and the final
/// round (which at short horizons would otherwise dominate).
pub const STEADY_WINDOW_LO_FRAC: f64 = 0.15;
/// The window must span at least this fraction of GVT progress to be
/// trusted; sparser sampling falls back to the whole-run rate.
pub const STEADY_WINDOW_MIN_SPAN_FRAC: f64 = 0.3;
/// The window must contain at least `committed / this` of the run's
/// committed events to be trusted (guards against a window that happens to
/// bracket an idle stretch).
pub const STEADY_WINDOW_MIN_COMMITTED_DIV: u64 = 4;

/// Compute the steady-state committed rate from the round log.
///
/// The rate is the committed-per-second slope between the first sample at
/// or above `STEADY_WINDOW_LO_FRAC * end` and the last pre-termination
/// sample, *if* that slope covers enough of the run
/// (see the constants above); otherwise — empty sample sets, short runs
/// with too few rounds, degenerate slopes — it falls back to the honest
/// whole-run rate `committed / sim_seconds`.
pub fn steady_window(samples: &[RoundSample], end: f64, committed: u64, sim_seconds: f64) -> f64 {
    let lo_gvt = STEADY_WINDOW_LO_FRAC * end;
    let lo = samples.iter().find(|s| s.gvt >= lo_gvt);
    let hi = samples.iter().rev().find(|s| s.gvt < end).or(samples.last());
    let whole = safe_rate(committed as f64, sim_seconds);
    match (lo, hi) {
        (Some(a), Some(b))
            if b.wall > a.wall
                && b.committed > a.committed
                // Guard against sparse/degenerate sampling: the window
                // must cover a substantial share of the run or the
                // whole-run rate is the honest number.
                && b.committed - a.committed >= committed / STEADY_WINDOW_MIN_COMMITTED_DIV
                && b.gvt - a.gvt >= STEADY_WINDOW_MIN_SPAN_FRAC * end =>
        {
            (b.committed - a.committed) as f64 / (b.wall - a.wall).as_secs_f64()
        }
        _ => whole,
    }
}

/// `num / den`, or 0.0 when the denominator is not positive. Every rate
/// column of the report goes through this so a degenerate run (zero
/// makespan, zero committed events) yields 0.0 in the CSVs, never NaN.
#[inline]
pub fn safe_rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The paper's efficiency: committed over (committed + rolled back), with
/// the empty run defined as perfectly efficient.
#[inline]
pub fn efficiency_of(committed: u64, rolled_back: u64) -> f64 {
    if committed + rolled_back == 0 {
        1.0
    } else {
        committed as f64 / (committed + rolled_back) as f64
    }
}

/// Everything measured in one run. The `Default` value is an all-zero
/// record for tests and placeholder rows, not a meaningful run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub algorithm: String,
    pub nodes: u16,
    pub workers_per_node: u16,
    pub mpi_mode: &'static str,

    /// Committed events (never rolled back, below the end time).
    pub committed: u64,
    /// Processed events, counting re-executions.
    pub processed: u64,
    /// Events undone by rollbacks.
    pub rolled_back: u64,
    /// committed / (committed + rolled back) — the paper's efficiency.
    pub efficiency: f64,

    /// Simulated wall-clock duration of the run (seconds).
    pub sim_seconds: f64,
    /// Committed events per simulated second over the whole run — the
    /// paper's y-axis.
    pub committed_rate: f64,
    /// Committed events per simulated second from 15% of GVT progress to
    /// the last round below the end time — excludes warm-up and the final
    /// round, which at short horizons would otherwise dominate. Falls back
    /// to `committed_rate` when the run had too few rounds to window.
    pub steady_rate: f64,
    /// Host wall-clock seconds the run took under the scheduler that
    /// produced it (set by the run drivers; 0.0 when not measured). This
    /// is real time on the machine running the simulation, not simulated
    /// cluster time.
    pub host_seconds: f64,

    pub gvt_rounds: u64,
    /// Mean per-worker wall time attributed to the GVT function (seconds).
    pub gvt_time_mean: f64,
    /// Average over rounds of the std-dev of worker LVTs (the paper's
    /// disparity metric).
    pub lvt_disparity: f64,
    /// Average over rounds of the virtual-time-horizon width (max − min
    /// finite worker LVT, the Kolakowska–Novotny statistic).
    pub horizon_width: f64,
    /// Mean per-worker wall time spent blocked inside GVT barriers
    /// (nanoseconds; zero for fully asynchronous algorithms).
    pub barrier_wait_ns: f64,
    /// CA-GVT: how many rounds ran synchronously / asynchronously.
    pub sync_rounds: u64,
    pub async_rounds: u64,

    /// Every worker's counters merged: rollback episodes, stragglers,
    /// anti-messages, acknowledgements, annihilations, messages by class,
    /// throttled steps, round requests, GVT and barrier time, and the
    /// deepest rollback cascade.
    pub workers: WorkerCounters,
    pub mpi: MpiCounters,

    /// Final published GVT.
    pub final_gvt: f64,
    /// XOR fingerprint of final LP states (equivalence testing).
    pub state_fingerprint: u64,
    /// Runtime bookkeeping: executed actor steps, and those that were
    /// idle. Under threads these count the polls each thread actually ran,
    /// which vary from run to run.
    pub sched_steps: u64,
    pub sched_idle_steps: u64,
    /// Polls the virtual scheduler skipped for parked workers, each
    /// credited as if it had run (`sched_steps + sched_skipped_polls` is
    /// the polling step count), and those of them that were held (progress)
    /// polls. Always 0 under threads: a parked thread skips no poll that
    /// anyone credits.
    pub sched_skipped_polls: u64,
    pub sched_skipped_held: u64,
    /// False if the run hit a safety valve (or, under threads, its
    /// timeout) before completion.
    pub completed: bool,

    /// Fault-injection activity (all zero on a clean run).
    pub faults: cagvt_base::FaultStats,

    /// Health alerts raised by a `HealthMonitor` over the run's epoch
    /// stream (empty when no monitor was attached or nothing fired).
    /// Rendered as a `health:` section by `Display` and counted in the
    /// `health_alerts` CSV column.
    pub health: Vec<String>,
}

impl RunReport {
    /// Fold the per-actor counters into a report.
    pub fn assemble<M: Model>(
        algorithm: &str,
        shared: &Arc<EngineShared<M>>,
        sched: RunStats,
    ) -> RunReport {
        let stats = &shared.stats;
        let workers = stats.worker_totals();
        let mut mpi = MpiCounters::default();
        for c in stats.mpi_deposits.lock().iter() {
            mpi.merge(c);
        }
        let (sync_rounds, async_rounds) = {
            let trace = stats.gvt_trace.lock();
            let sync = trace.iter().filter(|r| r.synchronous()).count() as u64;
            (sync, trace.len() as u64 - sync)
        };
        let total_workers = shared.cfg.spec.total_workers().max(1) as f64;
        let sim_seconds = sched.final_time.as_secs_f64();
        let committed = stats.committed.load(Ordering::Relaxed);
        let rolled_back = stats.rolled_back.load(Ordering::Relaxed);
        let end = shared.cfg.end_time;
        let rounds = stats.rounds.lock();
        let steady_rate = steady_window(&rounds, end, committed, sim_seconds);
        let (mut disparity, mut width) = (Welford::new(), Welford::new());
        for r in rounds.iter() {
            disparity.push(r.roughness);
            width.push(r.width);
        }
        let efficiency = efficiency_of(committed, rolled_back);
        RunReport {
            algorithm: algorithm.to_string(),
            nodes: shared.cfg.spec.nodes,
            workers_per_node: shared.cfg.spec.workers_per_node,
            mpi_mode: shared.cfg.spec.mpi_mode.label(),
            committed,
            processed: stats.processed.load(Ordering::Relaxed),
            rolled_back,
            efficiency,
            sim_seconds,
            committed_rate: safe_rate(committed as f64, sim_seconds),
            steady_rate,
            host_seconds: 0.0,
            gvt_rounds: shared.gvt_core.published_round(),
            gvt_time_mean: workers.gvt_time.as_secs_f64() / total_workers,
            lvt_disparity: disparity.mean(),
            horizon_width: width.mean(),
            barrier_wait_ns: workers.barrier_wait.0 as f64 / total_workers,
            sync_rounds,
            async_rounds,
            workers,
            mpi,
            final_gvt: shared.gvt_core.published_gvt().as_f64(),
            state_fingerprint: stats.state_fp.load(Ordering::Acquire),
            sched_steps: sched.steps,
            sched_idle_steps: sched.idle_steps,
            sched_skipped_polls: sched.skipped_polls,
            sched_skipped_held: sched.skipped_progress,
            completed: sched.completed,
            faults: shared.faults.as_ref().map(|f| f.stats()).unwrap_or_default(),
            health: Vec::new(),
        }
    }

    /// Sanity invariant: the run completed, every processed event was
    /// either committed or rolled back, and the run finished past its end
    /// time. Panics naming the first failed check.
    pub fn check_conservation(&self, end_time: VirtualTime) {
        if let Some(failure) = self.conservation_failure(end_time) {
            panic!("{failure}");
        }
    }

    /// The first check of [`Self::check_conservation`] this report fails.
    pub fn conservation_failure(&self, end_time: VirtualTime) -> Option<String> {
        if !self.completed {
            return Some("run hit a scheduler safety valve (completed == false)".into());
        }
        if self.processed != self.committed + self.rolled_back {
            return Some(format!(
                "processed events must be committed or rolled back: processed {} != \
                 committed {} + rolled back {}",
                self.processed, self.committed, self.rolled_back
            ));
        }
        if self.final_gvt < end_time.as_f64() {
            return Some(format!("final GVT {} below end time {end_time}", self.final_gvt));
        }
        None
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{} | {} nodes x {} workers | mpi={}]",
            self.algorithm, self.nodes, self.workers_per_node, self.mpi_mode
        )?;
        writeln!(
            f,
            "  committed {} / processed {} (efficiency {:.2}%)",
            self.committed,
            self.processed,
            self.efficiency * 100.0
        )?;
        writeln!(
            f,
            "  committed rate {:.0} ev/s (steady {:.0}) over {:.4} simulated s",
            self.committed_rate, self.steady_rate, self.sim_seconds
        )?;
        let w = &self.workers;
        writeln!(
            f,
            "  rollbacks {} ({} events, {} stragglers, {} antis, {} acks)",
            w.rollbacks, self.rolled_back, w.stragglers, w.antis_sent, w.acks_sent
        )?;
        writeln!(
            f,
            "  gvt rounds {} (sync {} / async {}), mean gvt time {:.4}s, disparity {:.4}",
            self.gvt_rounds,
            self.sync_rounds,
            self.async_rounds,
            self.gvt_time_mean,
            self.lvt_disparity
        )?;
        writeln!(
            f,
            "  horizon width {:.4}, barrier wait {:.0} ns/worker, deepest cascade {}",
            self.horizon_width, self.barrier_wait_ns, w.max_cascade
        )?;
        write!(
            f,
            "  msgs: local {}, regional {}, remote {} (mpi moved {}/{})",
            w.sent_local, w.sent_regional, w.sent_remote, self.mpi.sent, self.mpi.received
        )?;
        if !self.health.is_empty() {
            write!(f, "\n  health:")?;
            for alert in &self.health {
                write!(f, "\n    ! {alert}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built report that satisfies every conservation invariant.
    fn sound_report() -> RunReport {
        RunReport {
            algorithm: "test".to_string(),
            committed: 90,
            processed: 100,
            rolled_back: 10,
            efficiency: 0.9,
            final_gvt: 10.0,
            completed: true,
            ..Default::default()
        }
    }

    #[test]
    fn conservation_accepts_a_sound_report() {
        sound_report().check_conservation(VirtualTime::new(10.0));
        // Finishing exactly at the end time is also acceptable: the
        // invariant is `final_gvt >= end`, not strictly greater.
        let mut r = sound_report();
        r.final_gvt = 10.0;
        r.check_conservation(VirtualTime::new(10.0));
    }

    #[test]
    #[should_panic(expected = "committed or rolled back")]
    fn conservation_rejects_leaked_events() {
        let mut r = sound_report();
        // One processed event is neither committed nor rolled back.
        r.processed += 1;
        r.check_conservation(VirtualTime::new(10.0));
    }

    #[test]
    #[should_panic(expected = "safety valve")]
    fn conservation_rejects_incomplete_runs() {
        let mut r = sound_report();
        r.completed = false;
        r.check_conservation(VirtualTime::new(10.0));
    }

    #[test]
    #[should_panic(expected = "below end time")]
    fn conservation_rejects_early_termination() {
        let mut r = sound_report();
        r.final_gvt = 9.5;
        r.check_conservation(VirtualTime::new(10.0));
    }

    fn sample(gvt: f64, wall_ns: u64, committed: u64) -> RoundSample {
        RoundSample {
            gvt,
            wall: cagvt_base::WallNs(wall_ns),
            committed,
            roughness: 0.0,
            width: 0.0,
        }
    }

    #[test]
    fn steady_window_empty_samples_fall_back_to_whole_run_rate() {
        // No round samples at all (a run that never completed a GVT
        // round): rate = committed / sim_seconds.
        assert_eq!(steady_window(&[], 10.0, 100, 2.0), 50.0);
        // ...and the degenerate zero-makespan corner stays finite.
        assert_eq!(steady_window(&[], 10.0, 0, 0.0), 0.0);
    }

    #[test]
    fn steady_window_short_runs_fall_back_to_whole_run_rate() {
        // All samples inside the warm-up region (gvt < lo-frac * end): the
        // window span guard rejects the slope.
        let end = 10.0;
        let samples = [sample(0.5, 1_000, 5), sample(1.0, 2_000, 10)];
        assert_eq!(steady_window(&samples, end, 100, 4.0), 25.0, "whole-run fallback");
        // A single in-window sample can't form a slope either (lo == hi).
        let samples = [sample(5.0, 1_000, 50)];
        assert_eq!(
            steady_window(&samples, end, 100, 4.0),
            25.0,
            "single sample forces the fallback"
        );
    }

    #[test]
    fn steady_window_measures_the_interior_slope() {
        let end = 10.0;
        // Warm-up, two interior samples 1 simulated second apart with 60
        // committed events between them, and a termination-tail sample.
        let samples = [
            sample(0.5, 500_000_000, 5),
            sample(2.0, 1_000_000_000, 20),
            sample(8.0, 2_000_000_000, 80),
            sample(10.5, 3_000_000_000, 100),
        ];
        // Slope from gvt=2 (the first sample at/after lo) to gvt=8 (the
        // last sample below end): 60 events over 1 s.
        assert_eq!(steady_window(&samples, end, 100, 3.0), 60.0);
    }

    #[test]
    fn steady_window_rejects_slopes_covering_too_little_of_the_run() {
        let end = 10.0;
        // Both in-window samples exist but the committed share between
        // them is below committed / STEADY_WINDOW_MIN_COMMITTED_DIV.
        let samples = [sample(2.0, 1_000_000_000, 2), sample(8.0, 2_000_000_000, 10)];
        let rate = steady_window(&samples, end, 1000, 4.0);
        assert_eq!(rate, 250.0, "sparse window falls back to whole-run rate");
    }

    #[test]
    fn steady_window_constants_are_a_sane_window() {
        const {
            assert!(STEADY_WINDOW_MIN_SPAN_FRAC < 1.0 - STEADY_WINDOW_LO_FRAC);
            assert!(STEADY_WINDOW_MIN_COMMITTED_DIV > 0);
        }
    }

    #[test]
    fn health_alerts_render() {
        let mut r = sound_report();
        assert!(!format!("{r}").contains("health:"), "quiet run shows no health section");
        r.health.push("straggler: worker 3".to_string());
        r.health.push("efficiency-collapse".to_string());
        let shown = format!("{r}");
        assert!(shown.contains("health:") && shown.contains("! straggler: worker 3"), "{shown}");
    }

    #[test]
    fn safe_rate_guards_zero_denominators() {
        assert_eq!(safe_rate(90.0, 2.0), 45.0);
        assert_eq!(safe_rate(90.0, 0.0), 0.0, "zero-makespan run");
        assert_eq!(safe_rate(0.0, 0.0), 0.0, "zero-committed, zero-makespan run");
        assert_eq!(safe_rate(1.0, -1.0), 0.0, "negative denominators are degenerate too");
    }

    #[test]
    fn efficiency_of_guards_empty_runs() {
        assert_eq!(efficiency_of(90, 10), 0.9);
        assert_eq!(efficiency_of(0, 0), 1.0, "empty run is perfectly efficient");
        assert_eq!(efficiency_of(0, 10), 0.0, "all-rolled-back run");
    }
}
