//! Engine instrumentation: per-worker counters and cluster-shared
//! statistics.

use crate::report::efficiency_of;
use cagvt_base::metrics::SyncCause;
use cagvt_base::stats::{Horizon, Welford};
use cagvt_base::time::{VirtualTime, WallNs};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters owned (contention-free) by one worker, deposited into
/// [`SharedStats`] when the worker finishes. Committed, processed and
/// rolled-back events are not here: the [`SharedStats`] atomics are their
/// one count.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerCounters {
    /// Rollback episodes.
    pub rollbacks: u64,
    /// Rollbacks triggered by straggler events (vs anti-messages).
    pub stragglers: u64,
    pub antis_sent: u64,
    /// Acknowledgement messages (Samadi's GVT only).
    pub acks_sent: u64,
    /// Message pairs annihilated (pending, early, or via rollback-cancel).
    pub annihilated: u64,
    pub sent_local: u64,
    pub sent_regional: u64,
    pub sent_remote: u64,
    /// Wall time attributed to the GVT function (blocked barrier time plus
    /// the interleaved bookkeeping of asynchronous algorithms).
    pub gvt_time: WallNs,
    /// Steps skipped because the optimism throttle was engaged.
    pub throttled: u64,
    /// Round requests issued because the event interval elapsed.
    pub requests_interval: u64,
    /// Round requests issued while unable to make progress (throttled,
    /// drained, or past the end time).
    pub requests_idle: u64,
    /// Wall time spent blocked inside GVT synchronization barriers (a
    /// subset of `gvt_time`; zero for fully asynchronous rounds).
    pub barrier_wait: WallNs,
    /// Deepest rollback cascade observed: the most rollback episodes
    /// triggered within one local anti-message drain.
    pub max_cascade: u64,
}

impl WorkerCounters {
    pub fn merge(&mut self, o: &WorkerCounters) {
        self.rollbacks += o.rollbacks;
        self.stragglers += o.stragglers;
        self.antis_sent += o.antis_sent;
        self.acks_sent += o.acks_sent;
        self.annihilated += o.annihilated;
        self.sent_local += o.sent_local;
        self.sent_regional += o.sent_regional;
        self.sent_remote += o.sent_remote;
        self.gvt_time += o.gvt_time;
        self.throttled += o.throttled;
        self.requests_interval += o.requests_interval;
        self.requests_idle += o.requests_idle;
        self.barrier_wait += o.barrier_wait;
        self.max_cascade = self.max_cascade.max(o.max_cascade);
    }
}

/// Counters owned by one MPI pump (dedicated actor or inline duty).
#[derive(Clone, Copy, Debug, Default)]
pub struct MpiCounters {
    pub sent: u64,
    pub received: u64,
}

impl MpiCounters {
    pub fn merge(&mut self, o: &MpiCounters) {
        self.sent += o.sent;
        self.received += o.received;
    }
}

/// A point on the run's progress curve, sampled at GVT rounds by worker 0;
/// the report derives the steady-state committed rate from these (excluding
/// warm-up and the termination tail).
#[derive(Clone, Copy, Debug)]
pub struct ProgressSample {
    pub gvt: f64,
    pub wall: WallNs,
    pub committed: u64,
}

/// One completed GVT round, for the CA-GVT mode trace (paper §6).
///
/// Carries both views of efficiency: the *windowed* ratio over just this
/// round's committed/rolled-back deltas (the signal the CA-GVT controller
/// actually compares against its threshold) and the cumulative run ratio
/// for reference. Recording-only — the controller's decision logic is
/// unchanged.
#[derive(Clone, Copy, Debug)]
pub struct GvtRoundRecord {
    pub round: u64,
    pub gvt: f64,
    /// Was the round executed with CA-GVT's synchronization enabled?
    pub synchronous: bool,
    /// Cumulative efficiency observed at the end of the round.
    pub efficiency: f64,
    /// Events committed cluster-wide during this round's window.
    pub committed_delta: u64,
    /// Events rolled back cluster-wide during this round's window.
    pub rolled_back_delta: u64,
    /// Windowed efficiency `committed_delta / (committed_delta +
    /// rolled_back_delta)` — falls back to the cumulative ratio when the
    /// window saw no activity (mirroring the controller's own fallback).
    pub efficiency_window: f64,
    /// Why the conditional barriers were armed for this round
    /// (`SyncCause::None` for asynchronous rounds).
    pub cause: SyncCause,
}

/// Worker 0's one read of the cluster when a GVT round completes: the
/// round, its GVT, the instant, and every worker's published LVT. It is the
/// one producer of the per-round horizon: the report's disparity and width
/// samples and the metrics epoch derive from it, and the trace records its
/// GVT and LVTs as counters, so under real threads all of them see the same
/// LVTs. A final round that another worker completes first is not
/// snapshotted (ROADMAP: the final-round snapshot).
#[derive(Debug)]
pub(crate) struct RoundSnapshot {
    pub round: u64,
    pub gvt: VirtualTime,
    pub t: WallNs,
    /// Per-worker LVT, indexed by dense worker index (`+∞` when idle).
    pub lvts: Vec<VirtualTime>,
    /// [`Horizon::of`] the finite LVTs.
    pub horizon: Horizon,
}

impl RoundSnapshot {
    pub(crate) fn new(round: u64, gvt: VirtualTime, t: WallNs, lvts: Vec<VirtualTime>) -> Self {
        let horizon = Horizon::of(lvts.iter().map(|l| l.as_f64()));
        RoundSnapshot { round, gvt, t, lvts, horizon }
    }
}

/// Lock-free per-worker counter cell, refreshed (not accumulated) with a
/// snapshot of the worker's private [`WorkerCounters`] once per completed
/// GVT round — never on the event hot path. Cache-line aligned so
/// neighboring workers' deposits never share a line.
///
/// Only the counters that are *not* already live in [`SharedStats`]
/// atomics are mirrored here; the epoch assembler sums cells with
/// [`SharedStats::merged_cells`]. A cell may lag its worker's very latest
/// events by at most one round.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct WorkerCell {
    pub rollbacks: AtomicU64,
    pub antis_sent: AtomicU64,
    pub annihilated: AtomicU64,
}

/// Cluster-wide totals summed over the [`WorkerCell`] deposits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellTotals {
    pub rollbacks: u64,
    pub antis_sent: u64,
    pub annihilated: u64,
}

/// Cluster-shared statistics and live signals.
///
/// The atomics are written on hot paths (event commit/rollback, message
/// send/receive) and read by CA-GVT's efficiency check, the GVT round
/// observers and the final report. The counters publish no other data, so
/// they are `Relaxed`.
pub struct SharedStats {
    pub committed: AtomicU64,
    pub processed: AtomicU64,
    pub rolled_back: AtomicU64,
    /// Regional + remote messages handed to a channel (events and antis).
    pub msgs_sent: AtomicU64,
    /// Regional + remote messages drained by their destination worker.
    pub msgs_received: AtomicU64,
    /// Per-worker published LVT (ordered bits of the last processed event
    /// time) — the paper's disparity metric samples these.
    pub worker_lvts: Vec<AtomicU64>,
    /// Std-dev of worker LVTs, one sample per GVT round.
    pub disparity: Mutex<Welford>,
    /// Virtual-time-horizon width (max − min finite worker LVT), one
    /// sample per GVT round — the Kolakowska–Novotny width statistic.
    pub horizon_width: Mutex<Welford>,
    /// Final per-worker counters, deposited at shutdown.
    pub worker_deposits: Mutex<Vec<WorkerCounters>>,
    /// Final per-pump counters.
    pub mpi_deposits: Mutex<Vec<MpiCounters>>,
    /// Per-worker metric cells, refreshed at GVT rounds when a metrics
    /// sink is installed (see [`WorkerCell`]).
    pub worker_cells: Vec<WorkerCell>,
    /// CA-GVT round trace.
    pub gvt_trace: Mutex<Vec<GvtRoundRecord>>,
    /// Progress curve samples (one per GVT round, recorded by worker 0).
    pub progress: Mutex<Vec<ProgressSample>>,
    /// XOR-combined fingerprint of all final LP states (workers fold their
    /// LPs in with [`fetch_xor`](AtomicU64::fetch_xor) at shutdown);
    /// compared against the sequential reference by the equivalence tests.
    pub state_fp: AtomicU64,
}

impl SharedStats {
    pub fn new(total_workers: u32) -> Self {
        SharedStats {
            committed: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            rolled_back: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            msgs_received: AtomicU64::new(0),
            worker_lvts: (0..total_workers)
                .map(|_| AtomicU64::new(VirtualTime::ZERO.to_ordered_bits()))
                .collect(),
            disparity: Mutex::new(Welford::new()),
            horizon_width: Mutex::new(Welford::new()),
            worker_deposits: Mutex::new(Vec::new()),
            mpi_deposits: Mutex::new(Vec::new()),
            worker_cells: (0..total_workers).map(|_| WorkerCell::default()).collect(),
            gvt_trace: Mutex::new(Vec::new()),
            progress: Mutex::new(Vec::new()),
            state_fp: AtomicU64::new(0),
        }
    }

    /// Cumulative efficiency: committed / (committed + rolled back), the
    /// paper's committed-over-generated ratio. 1.0 before any activity.
    pub fn efficiency(&self) -> f64 {
        efficiency_of(
            self.committed.load(Ordering::Relaxed),
            self.rolled_back.load(Ordering::Relaxed),
        )
    }

    /// Record one completed round: its disparity (population std-dev of
    /// the worker LVTs, the paper's §4 metric), its horizon width and its
    /// point on the progress curve.
    pub(crate) fn record_round(&self, snap: &RoundSnapshot) {
        self.disparity.lock().push(snap.horizon.roughness);
        self.horizon_width.lock().push(snap.horizon.width);
        self.progress.lock().push(ProgressSample {
            gvt: snap.gvt.as_f64(),
            wall: snap.t,
            committed: self.committed.load(Ordering::Relaxed),
        });
    }

    /// Read every worker's published LVT once (relaxed: a monitoring read).
    pub(crate) fn read_lvts(&self) -> Vec<VirtualTime> {
        self.worker_lvts
            .iter()
            .map(|l| VirtualTime::from_ordered_bits(l.load(Ordering::Relaxed)))
            .collect()
    }

    /// Refresh worker `widx`'s metric cell with a snapshot of its private
    /// counters. Relaxed stores: the cell is a monotone snapshot, read
    /// only by the epoch assembler which tolerates one round of skew.
    pub fn publish_worker_cell(&self, widx: u32, c: &WorkerCounters) {
        let cell = &self.worker_cells[widx as usize];
        cell.rollbacks.store(c.rollbacks, Ordering::Relaxed);
        cell.antis_sent.store(c.antis_sent, Ordering::Relaxed);
        cell.annihilated.store(c.annihilated, Ordering::Relaxed);
    }

    /// Sum the per-worker cells into cluster-wide totals.
    pub fn merged_cells(&self) -> CellTotals {
        let mut t = CellTotals::default();
        for cell in &self.worker_cells {
            t.rollbacks += cell.rollbacks.load(Ordering::Relaxed);
            t.antis_sent += cell.antis_sent.load(Ordering::Relaxed);
            t.annihilated += cell.annihilated.load(Ordering::Relaxed);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_starts_at_one_and_tracks_counts() {
        let s = SharedStats::new(2);
        assert_eq!(s.efficiency(), 1.0);
        s.committed.store(90, Ordering::Relaxed);
        s.rolled_back.store(10, Ordering::Relaxed);
        assert!((s.efficiency() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn efficiency_is_zero_when_everything_rolled_back() {
        let s = SharedStats::new(2);
        // A pathological run where no event survived: processed work
        // exists but nothing committed.
        s.processed.store(50, Ordering::Relaxed);
        s.rolled_back.store(50, Ordering::Relaxed);
        assert_eq!(s.efficiency(), 0.0);
    }

    #[test]
    fn efficiency_ignores_processed_only_activity() {
        // Events in flight (processed but not yet committed or rolled
        // back) must not drag efficiency below its optimistic 1.0 start.
        let s = SharedStats::new(1);
        s.processed.store(1000, Ordering::Relaxed);
        assert_eq!(s.efficiency(), 1.0);
    }

    #[test]
    fn record_round_samples_disparity_width_and_progress() {
        let s = SharedStats::new(4);
        let lvts = [2.0, 4.0, 6.0].map(VirtualTime::new);
        for (i, t) in lvts.iter().enumerate() {
            s.worker_lvts[i].store(t.to_ordered_bits(), Ordering::Relaxed);
        }
        s.worker_lvts[3].store(VirtualTime::INFINITY.to_ordered_bits(), Ordering::Relaxed);
        let snap = RoundSnapshot::new(1, VirtualTime::new(1.0), WallNs(10), s.read_lvts());
        assert_eq!(snap.lvts[3], VirtualTime::INFINITY);
        assert_eq!(snap.horizon.samples, 3);
        s.record_round(&snap);
        s.record_round(&RoundSnapshot::new(2, VirtualTime::new(2.0), WallNs(20), Vec::new()));
        // Rounds {2,4,6} (std-dev sqrt(8/3), width 4) and an empty round
        // (both 0) average to half of each.
        let (d, h) = (s.disparity.lock(), s.horizon_width.lock());
        assert_eq!((d.count(), h.count(), s.progress.lock().len()), (2, 2, 2));
        assert!((d.mean() - (8.0_f64 / 3.0).sqrt() / 2.0).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn worker_cells_snapshot_and_merge() {
        let s = SharedStats::new(2);
        assert_eq!(s.merged_cells(), CellTotals::default());
        let c0 = WorkerCounters { rollbacks: 3, antis_sent: 5, ..Default::default() };
        let c1 = WorkerCounters { rollbacks: 1, annihilated: 4, ..Default::default() };
        s.publish_worker_cell(0, &c0);
        s.publish_worker_cell(1, &c1);
        assert_eq!(s.merged_cells(), CellTotals { rollbacks: 4, antis_sent: 5, annihilated: 4 });
        // Cells are snapshots, not accumulators: re-publishing replaces.
        s.publish_worker_cell(0, &WorkerCounters { rollbacks: 7, ..Default::default() });
        assert_eq!(s.merged_cells().rollbacks, 8);
        assert_eq!(s.merged_cells().antis_sent, 0);
    }

    #[test]
    fn counters_merge() {
        let mut a = WorkerCounters {
            rollbacks: 10,
            antis_sent: 5,
            gvt_time: WallNs(100),
            max_cascade: 4,
            ..Default::default()
        };
        let b = WorkerCounters {
            rollbacks: 3,
            annihilated: 2,
            gvt_time: WallNs(50),
            max_cascade: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rollbacks, 13);
        assert_eq!(a.antis_sent, 5);
        assert_eq!(a.annihilated, 2);
        assert_eq!(a.gvt_time, WallNs(150));
        assert_eq!(a.max_cascade, 4, "cascade depth merges as a maximum");

        let mut m = MpiCounters { sent: 1, received: 10 };
        m.merge(&MpiCounters { sent: 2, received: 7 });
        assert_eq!((m.sent, m.received), (3, 17));
    }
}
