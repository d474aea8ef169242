//! Engine instrumentation: per-worker counters and cluster-shared
//! statistics.

use crate::report::efficiency_of;
use cagvt_base::metrics::SyncCause;
use cagvt_base::stats::{Horizon, Welford};
use cagvt_base::time::{VirtualTime, WallNs};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters owned (contention-free) by one worker, copied into its shared
/// slot in [`SharedStats`] at every round completion and when it finishes.
/// Committed, processed and rolled-back events are not here: the
/// [`SharedStats`] atomics are their one count.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerCounters {
    /// Rollback episodes.
    pub rollbacks: u64,
    /// Rollbacks triggered by straggler events (vs anti-messages).
    pub stragglers: u64,
    pub antis_sent: u64,
    /// Acknowledgement messages (Samadi's GVT only).
    pub acks_sent: u64,
    /// Message pairs annihilated (pending, or processed via rollback-cancel).
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
    /// Windowed efficiency: committed over committed plus rolled back,
    /// cluster-wide, during this round's window — falls back to the
    /// cumulative ratio when the window saw no activity (mirroring the
    /// controller's own fallback).
    pub efficiency_window: f64,
    /// Why the conditional barriers were armed for this round
    /// (`SyncCause::None` for asynchronous rounds).
    pub cause: SyncCause,
}

/// Worker 0's one read of the cluster when a GVT round completes (in
/// `Worker::step`, on a `Completed` GVT outcome): the round, its GVT, the
/// instant, and every worker's published LVT. It is the one producer of the
/// per-round horizon: the report's disparity and width samples and the
/// metrics epoch derive from it, and the trace records its GVT and LVTs as
/// counters, so under real threads all of them see the same LVTs. A final
/// round that another worker completes first is not snapshotted: worker 0
/// sees the stop and finishes (`Worker::finish`) without completing it
/// (ROADMAP: the final-round snapshot).
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

/// The one shared home of a worker's [`WorkerCounters`]: the worker
/// overwrites it with its private counters at every round completion and
/// when it finishes — never on the event hot path. The metrics epoch reads
/// it at rounds (so it may lag the worker's very latest events by one
/// round) and the run report after every worker finished. Cache-line
/// aligned so neighboring workers' writes never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct WorkerSlot(Mutex<WorkerCounters>);

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
    /// With `msgs_received`, observational: only the metrics epochs read
    /// them, as deltas, and no GVT algorithm or wake decision does, so a
    /// `Relaxed` count that lags under threads shifts a metrics row, never a
    /// result.
    pub msgs_sent: AtomicU64,
    /// Regional + remote messages drained by their destination worker.
    pub msgs_received: AtomicU64,
    /// Per-worker published LVT (ordered bits of the last processed event
    /// time) — the paper's disparity metric samples these. `Relaxed`: each
    /// slot has one writer, and its only reader is the per-round snapshot
    /// that feeds the round observers (disparity, horizon width, trace,
    /// metrics), which neither computes GVT nor decides a wake; under
    /// threads a snapshot may see a slightly stale LVT.
    pub worker_lvts: Vec<AtomicU64>,
    /// Std-dev of worker LVTs, one sample per GVT round.
    pub disparity: Mutex<Welford>,
    /// Virtual-time-horizon width (max − min finite worker LVT), one
    /// sample per GVT round — the Kolakowska–Novotny width statistic.
    pub horizon_width: Mutex<Welford>,
    /// Per-worker counters, indexed by dense worker index (see
    /// [`WorkerSlot`]).
    worker_slots: Vec<WorkerSlot>,
    /// Final per-pump counters.
    pub mpi_deposits: Mutex<Vec<MpiCounters>>,
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
            worker_slots: (0..total_workers).map(|_| WorkerSlot::default()).collect(),
            mpi_deposits: Mutex::new(Vec::new()),
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

    /// Overwrite worker `widx`'s slot with its private counters.
    pub(crate) fn store_worker_counters(&self, widx: u32, c: &WorkerCounters) {
        *self.worker_slots[widx as usize].0.lock() = *c;
    }

    /// Every worker slot merged into cluster-wide totals.
    pub(crate) fn worker_totals(&self) -> WorkerCounters {
        let mut t = WorkerCounters::default();
        for slot in &self.worker_slots {
            t.merge(&slot.0.lock());
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
    fn worker_slots_snapshot_and_merge() {
        let s = SharedStats::new(2);
        assert_eq!(s.worker_totals().rollbacks, 0);
        let c0 =
            WorkerCounters { rollbacks: 3, antis_sent: 5, max_cascade: 2, ..Default::default() };
        let c1 = WorkerCounters {
            rollbacks: 1,
            annihilated: 4,
            gvt_time: WallNs(30),
            max_cascade: 6,
            ..Default::default()
        };
        s.store_worker_counters(0, &c0);
        s.store_worker_counters(1, &c1);
        let t = s.worker_totals();
        assert_eq!((t.rollbacks, t.antis_sent, t.annihilated), (4, 5, 4));
        assert_eq!(t.gvt_time, WallNs(30));
        assert_eq!(t.max_cascade, 6, "cascade depth merges as a maximum");
        // Slots are snapshots, not accumulators: a refresh replaces.
        s.store_worker_counters(1, &WorkerCounters { rollbacks: 7, ..Default::default() });
        let t = s.worker_totals();
        assert_eq!((t.rollbacks, t.antis_sent, t.annihilated), (10, 5, 0));
        assert_eq!(t.max_cascade, 2);
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
