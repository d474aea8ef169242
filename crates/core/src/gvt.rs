//! GVT algorithm interface.
//!
//! A GVT algorithm has two halves, matching the paper's division of labor:
//!
//! * a [`WorkerGvt`] per worker thread — tags outgoing messages with the
//!   Mattern color, observes incoming tags, and advances the worker's part
//!   of the round state machine each loop iteration;
//! * an [`MpiGvt`] per node — performs the cluster-level communication
//!   (MPI collectives for Barrier GVT, ring circulation of the control
//!   message for Mattern/CA-GVT). Owned by the dedicated MPI actor, or by
//!   worker lane 0 in the inline modes.
//!
//! [`GvtSharedCore`] is the engine-visible shared state: the round-request
//! flag (set when a worker's event interval elapses), the published GVT,
//! and the stop flag. It is also the one entry of the per-round observers:
//! `GvtSharedCore::observe_round` logs the round's sample, records its
//! trace counters and publishes its metrics epoch. Algorithm-private shared
//! state (node counters, barriers, control-message slots) lives inside the
//! algorithm's own structures in `cagvt-gvt`.

use cagvt_base::ids::{LaneId, NodeId};
use cagvt_base::metrics::{EpochMode, MetricsEpoch, MetricsSink, SyncCause};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::trace::{TraceRecord, TraceSink};
use cagvt_base::wake;
use cagvt_net::MsgClass;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::report::efficiency_of;
use crate::stats::{RoundSnapshot, SharedStats};

/// Engine-visible GVT state, one per run.
pub struct GvtSharedCore {
    /// Set by workers whose event interval elapsed; cleared by the
    /// algorithm when it starts a round.
    pub round_requested: AtomicBool,
    /// Ordered bits of the latest published GVT (monotone).
    pub published_gvt: AtomicU64,
    /// Number of completed rounds.
    pub published_round: AtomicU64,
    /// Global termination flag (GVT passed the end time).
    pub stop: AtomicBool,
    /// Wall time of the most recent round completion (idle-request pacing;
    /// raised through [`GvtSharedCore::mark_round_end`]).
    pub last_round_wall: AtomicU64,
    /// Per-node outbound MPI queue depth, updated by the MPI pumps; the
    /// occupancy signal of CA-GVT's extended trigger (paper §8 mentions
    /// "the occupancy of the MPI queue is high" as the second condition).
    pub mpi_queue_depth: Vec<AtomicU64>,
    /// Cluster statistics (efficiency for CA-GVT decisions, disparity
    /// sampling).
    pub stats: Arc<SharedStats>,
    /// Observation hook shared by every instrumented layer (`None`: no
    /// tracing; hot paths pay a single `Option` check).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Per-GVT-epoch metrics hook (`None`: no metering; consulted once per
    /// round, never on the event path).
    pub metrics: Option<Arc<dyn MetricsSink>>,
    /// Cumulative counter totals at the previous epoch publication — the
    /// subtraction base for the windowed deltas. Metrics-private; only
    /// touched from [`GvtSharedCore::publish_epoch`].
    epoch_base: Mutex<EpochBase>,
}

/// Counter totals at the last published epoch (see
/// [`GvtSharedCore::publish_epoch`]).
#[derive(Clone, Copy, Debug, Default)]
struct EpochBase {
    committed: u64,
    processed: u64,
    rolled_back: u64,
    msgs_sent: u64,
    msgs_received: u64,
    rollbacks: u64,
    antis_sent: u64,
    annihilated: u64,
}

impl GvtSharedCore {
    pub fn new(
        stats: Arc<SharedStats>,
        nodes: u16,
        trace: Option<Arc<dyn TraceSink>>,
        metrics: Option<Arc<dyn MetricsSink>>,
    ) -> Self {
        GvtSharedCore {
            round_requested: AtomicBool::new(false),
            published_gvt: AtomicU64::new(VirtualTime::ZERO.to_ordered_bits()),
            published_round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            last_round_wall: AtomicU64::new(0),
            mpi_queue_depth: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            stats,
            trace,
            metrics,
            epoch_base: Mutex::new(EpochBase::default()),
        }
    }

    /// Feed the round just published to every round observer. Called by
    /// worker 0 when `Worker::step` sees a `Completed` GVT outcome, after
    /// the round's fossil pass and before the end-time check, with the
    /// round's GVT and the instant `t`. One read of the worker LVTs feeds
    /// the round log's sample (`SharedStats::record_round`), the trace's
    /// GVT/LVT records (`trace_round`) and the metrics epoch
    /// (`publish_epoch`).
    ///
    /// The final round is missed when another worker completes it first:
    /// that worker signals stop, and worker 0's next step sees it and
    /// finishes (`Worker::finish`) without completing the round (ROADMAP:
    /// the final-round snapshot).
    ///
    /// Read-only with respect to engine state (it mutates only the round
    /// log and the metrics-private `epoch_base`) and charges no virtual
    /// time, which is what keeps observed runs bit-identical
    /// (`metrics_never_perturb`, `tracing_never_perturbs`).
    pub(crate) fn observe_round(&self, gvt: VirtualTime, t: WallNs) {
        let snap = RoundSnapshot::new(self.published_round(), gvt, t, self.stats.read_lvts());
        self.stats.record_round(&snap);
        self.trace_round(&snap);
        self.publish_epoch(&snap);
    }

    /// Record the round just published as one `GvtPublish` followed by an
    /// `Lvt` record per finite worker LVT: the Chrome trace's `gvt` and
    /// `lvt` counters. The per-round horizon statistics are the metrics
    /// epoch's (`publish_epoch`).
    fn trace_round(&self, snap: &RoundSnapshot) {
        let Some(tr) = self.trace.as_deref() else { return };
        tr.record(snap.t, &TraceRecord::GvtPublish { round: snap.round, gvt: snap.gvt });
        for (i, &lvt) in snap.lvts.iter().enumerate() {
            if lvt.is_finite() {
                tr.record(snap.t, &TraceRecord::Lvt { worker: i as u32, lvt });
            }
        }
    }

    /// Assemble and emit the [`MetricsEpoch`] for the round just
    /// published (a step of [`observe_round`](Self::observe_round)).
    fn publish_epoch(&self, snap: &RoundSnapshot) {
        let Some(sink) = self.metrics.as_deref() else { return };
        let gvt_f = snap.gvt.as_f64();
        let stats = &self.stats;

        // Cluster totals: live atomics plus the round-refreshed slots.
        let w = stats.worker_totals();
        let now = EpochBase {
            committed: stats.committed.load(Ordering::Relaxed),
            processed: stats.processed.load(Ordering::Relaxed),
            rolled_back: stats.rolled_back.load(Ordering::Relaxed),
            msgs_sent: stats.msgs_sent.load(Ordering::Relaxed),
            msgs_received: stats.msgs_received.load(Ordering::Relaxed),
            rollbacks: w.rollbacks,
            antis_sent: w.antis_sent,
            annihilated: w.annihilated,
        };
        let prev = std::mem::replace(&mut *self.epoch_base.lock(), now);
        let dc = now.committed - prev.committed;
        let dr = now.rolled_back - prev.rolled_back;

        // Horizon: per-worker LVT lag vs the freshly published GVT.
        let lags = snap
            .lvts
            .iter()
            .map(|l| if l.is_finite() { l.as_f64() - gvt_f } else { f64::NAN })
            .collect();
        let h = snap.horizon;

        // Controller decision for *this* round, if a controller ran one
        // (only CA-GVT appends to gvt_trace; Barrier/Mattern epochs are
        // "uncontrolled").
        let (mode, cause) = match stats.gvt_trace.lock().last() {
            Some(r) if r.round == snap.round => {
                (if r.synchronous() { EpochMode::Sync } else { EpochMode::Async }, r.cause)
            }
            _ => (EpochMode::Uncontrolled, SyncCause::None),
        };

        let epoch = MetricsEpoch {
            round: snap.round,
            t: snap.t,
            gvt: gvt_f,
            committed_delta: dc,
            processed_delta: now.processed - prev.processed,
            rolled_back_delta: dr,
            rollbacks_delta: now.rollbacks - prev.rollbacks,
            antis_sent_delta: now.antis_sent - prev.antis_sent,
            annihilated_delta: now.annihilated - prev.annihilated,
            msgs_sent_delta: now.msgs_sent - prev.msgs_sent,
            msgs_received_delta: now.msgs_received - prev.msgs_received,
            efficiency_window: efficiency_of(dc, dr),
            efficiency_cum: stats.efficiency(),
            worker_lag: lags,
            horizon_width: h.width,
            horizon_roughness: h.roughness,
            mean_lag: if h.samples > 0 { h.mean - gvt_f } else { 0.0 },
            mpi_queue_max: self.max_mpi_queue_depth(),
            mode,
            cause,
        };
        sink.on_epoch(snap.t, &epoch);
    }

    /// Record one trace observation. The record is constructed lazily, so
    /// with no sink the cost is one branch.
    #[inline]
    pub fn emit(&self, t: WallNs, rec: impl FnOnce() -> TraceRecord) {
        if let Some(tr) = &self.trace {
            tr.record(t, &rec());
        }
    }

    /// Raise the round-request flag; raising it wakes parked workers.
    #[inline]
    pub fn request_round(&self) {
        if !self.round_requested.swap(true, Ordering::AcqRel) {
            wake::notify_all();
        }
    }

    /// A worker completed a round at wall time `t`. Raising
    /// `last_round_wall` re-paces the idle requests of workers parked while
    /// raising them.
    #[inline]
    pub fn mark_round_end(&self, t: WallNs) {
        if self.last_round_wall.fetch_max(t.as_nanos(), Ordering::Relaxed) < t.as_nanos() {
            wake::notify_pace();
        }
    }

    #[inline]
    pub fn round_requested(&self) -> bool {
        self.round_requested.load(Ordering::Acquire)
    }

    #[inline]
    pub fn published_gvt(&self) -> VirtualTime {
        VirtualTime::from_ordered_bits(self.published_gvt.load(Ordering::Acquire))
    }

    #[inline]
    pub fn published_round(&self) -> u64 {
        self.published_round.load(Ordering::Acquire)
    }

    /// Publish the result of a completed round. GVT must be monotone; a
    /// regression indicates an algorithm bug, so it panics.
    ///
    /// Also clears the round-request flag: every worker participates in
    /// the completing round and resets its event counter, so any request
    /// raised *during* the round is stale — honoring it would echo a
    /// spurious extra round after every legitimate one.
    pub fn publish(&self, gvt: VirtualTime, round: u64) {
        let prev = self.published_gvt.swap(gvt.to_ordered_bits(), Ordering::AcqRel);
        assert!(
            VirtualTime::from_ordered_bits(prev) <= gvt,
            "GVT regressed: {} -> {}",
            VirtualTime::from_ordered_bits(prev),
            gvt
        );
        self.round_requested.store(false, Ordering::Release);
        self.published_round.store(round, Ordering::Release);
        wake::notify_all();
    }

    /// Largest outbound MPI queue depth currently reported by any node.
    pub fn max_mpi_queue_depth(&self) -> u64 {
        self.mpi_queue_depth.iter().map(|d| d.load(Ordering::Relaxed)).max().unwrap_or(0)
    }

    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    #[inline]
    pub fn signal_stop(&self) {
        self.stop.store(true, Ordering::Release);
        wake::notify_all();
    }
}

/// Per-step context handed by the worker to its GVT half.
#[derive(Clone, Copy, Debug)]
pub struct WorkerGvtCtx {
    pub now: WallNs,
    /// The worker's GVT contribution: minimum pending event time (in-flight
    /// messages are covered by the algorithms' message accounting).
    pub lvt: VirtualTime,
    /// Dense global worker index.
    pub worker_index: u32,
}

/// What the worker should do after a GVT step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkerGvtOutcome {
    /// Nothing to do until shared GVT state changes, and every change that
    /// could alter this answer posts a [`wake`] notice: a round requested
    /// or started, a white population drained, a reduction or a GVT
    /// published, a stop. The worker may be parked. An implementation
    /// whose answer depends on state that changes without a notice must not
    /// return `Waiting`: a parked worker would never see the change.
    ///
    /// [`wake`]: cagvt_base::wake
    Waiting,
    /// A round is in progress; the worker keeps processing events
    /// (asynchronous style). Cost is the bookkeeping charge.
    Working(WallNs),
    /// The worker is held at a synchronization point; it must not process
    /// events this step (synchronous style). Cost is the bookkeeping charge;
    /// `Blocked(WallNs::ZERO)` is a pure held poll, the held twin of
    /// `Waiting`: the worker charges an idle poll and may be parked.
    Blocked(WallNs),
    /// The round completed; `gvt` is the new value. The worker fossil
    /// collects and resets its interval counter.
    Completed { gvt: VirtualTime, cost: WallNs },
}

/// Worker-side half of a GVT algorithm.
pub trait WorkerGvt: Send {
    /// Called for every message (event or anti) leaving this worker for
    /// another worker (regional or remote), with the message's receive
    /// time (Mattern's red phase accumulates the minimum). Returns the
    /// color tag to stamp on the message and performs send accounting.
    fn on_send(&mut self, class: MsgClass, recv_time: VirtualTime) -> u64;

    /// Called for every tagged message drained by this worker.
    fn on_recv(&mut self, tag: u64, class: MsgClass);

    /// Advance the round state machine; called once per worker loop
    /// iteration.
    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome;

    /// Does this algorithm require acknowledgement traffic (Samadi)? When
    /// true, the worker acks every channel message it receives and routes
    /// incoming acks to [`Self::on_ack`].
    fn wants_acks(&self) -> bool {
        false
    }

    /// Record an outgoing channel message for acknowledgement tracking
    /// (only called when [`Self::wants_acks`]).
    fn on_send_tracked(&mut self, _id: cagvt_base::EventId, _recv_time: VirtualTime, _anti: bool) {}

    /// Should acknowledgements sent right now be marked? (Samadi's
    /// reporting window.)
    fn mark_acks(&self) -> bool {
        false
    }

    /// An acknowledgement arrived for a message this worker sent.
    fn on_ack(
        &mut self,
        _id: cagvt_base::EventId,
        _recv_time: VirtualTime,
        _anti: bool,
        _marked: bool,
    ) {
    }
}

/// Node-side (MPI) half of a GVT algorithm.
pub trait MpiGvt: Send {
    /// Advance the node's part of the round; returns the wall-clock charge
    /// of whatever it did. Every action is charged (an MPI call or
    /// bookkeeping), so a zero charge reports that the step did nothing,
    /// and a dedicated MPI actor whose pump moved nothing either may park.
    /// An implementation must then have posted a [`wake`] notice for every
    /// change that could make its next step act: one the change's author
    /// posts (a worker's last join, a round start, a control message sent
    /// to this node), or a [`wake::notify_self`] timer for a result that
    /// becomes visible by time alone.
    fn step(&mut self, now: WallNs) -> WallNs;
}

/// Constructs the two halves for every actor of a run.
pub trait GvtBundle: Send + Sync {
    fn name(&self) -> &'static str;
    fn worker_gvt(&self, node: NodeId, lane: LaneId, worker_index: u32) -> Box<dyn WorkerGvt>;
    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_with(workers: u32) -> Arc<GvtSharedCore> {
        let stats = Arc::new(SharedStats::new(workers));
        Arc::new(GvtSharedCore::new(stats, 1, None, None))
    }

    #[test]
    fn publish_is_monotone_and_visible() {
        let core = core_with(2);
        assert_eq!(core.published_gvt(), VirtualTime::ZERO);
        core.publish(VirtualTime::new(5.0), 1);
        assert_eq!(core.published_gvt(), VirtualTime::new(5.0));
        assert_eq!(core.published_round(), 1);
        core.publish(VirtualTime::new(9.0), 2);
        assert_eq!(core.published_gvt(), VirtualTime::new(9.0));
    }

    #[test]
    #[should_panic]
    fn gvt_regression_panics() {
        let core = core_with(1);
        core.publish(VirtualTime::new(5.0), 1);
        core.publish(VirtualTime::new(4.0), 2);
    }

    #[test]
    fn round_request_flag() {
        let core = core_with(1);
        assert!(!core.round_requested());
        core.request_round();
        assert!(core.round_requested());
    }

    #[test]
    fn publish_epoch_emits_windowed_deltas() {
        use crate::stats::GvtRoundRecord;
        use cagvt_base::metrics::MetricsSink;

        struct Capture(Mutex<Vec<MetricsEpoch>>);
        impl MetricsSink for Capture {
            fn on_epoch(&self, _t: WallNs, e: &MetricsEpoch) {
                self.0.lock().push(e.clone());
            }
        }

        let stats = Arc::new(SharedStats::new(2));
        let sink = Arc::new(Capture(Mutex::new(Vec::new())));
        let core = GvtSharedCore::new(
            Arc::clone(&stats),
            1,
            None,
            Some(sink.clone() as Arc<dyn MetricsSink>),
        );
        stats.committed.store(80, Ordering::Relaxed);
        stats.rolled_back.store(20, Ordering::Relaxed);
        let lvts = vec![VirtualTime::new(6.0), VirtualTime::new(4.0)];
        core.publish(VirtualTime::new(3.0), 1);
        core.publish_epoch(&RoundSnapshot::new(1, VirtualTime::new(3.0), WallNs(1_000), lvts));

        // Second round: +40 committed, +60 rolled back, with a CA-GVT
        // controller record for the round.
        stats.committed.store(120, Ordering::Relaxed);
        stats.rolled_back.store(80, Ordering::Relaxed);
        core.publish(VirtualTime::new(5.0), 2);
        stats.gvt_trace.lock().push(GvtRoundRecord {
            round: 2,
            gvt: 5.0,
            efficiency: 0.6,
            efficiency_window: 0.4,
            cause: SyncCause::Efficiency,
        });
        let lvts = vec![VirtualTime::new(6.0), VirtualTime::INFINITY];
        core.publish_epoch(&RoundSnapshot::new(2, VirtualTime::new(5.0), WallNs(2_000), lvts));

        let epochs = sink.0.lock();
        assert_eq!(epochs.len(), 2);
        let first = &epochs[0];
        assert_eq!(first.round, 1);
        assert_eq!(first.committed_delta, 80);
        assert_eq!(first.rolled_back_delta, 20);
        assert!((first.efficiency_window - 0.8).abs() < 1e-12);
        assert_eq!(first.mode, EpochMode::Uncontrolled);
        // Lags vs gvt=3: {3, 1} -> width 2, mean 2.
        assert!((first.horizon_width - 2.0).abs() < 1e-12);
        assert!((first.mean_lag - 2.0).abs() < 1e-12);

        let second = &epochs[1];
        assert_eq!(second.committed_delta, 40);
        assert_eq!(second.rolled_back_delta, 60);
        assert!((second.efficiency_window - 0.4).abs() < 1e-12);
        assert_eq!(second.mode, EpochMode::Sync);
        assert_eq!(second.cause, SyncCause::Efficiency);
        // An idle worker's infinite LVT is a NaN lag, outside the horizon.
        assert_eq!(second.finite_workers(), 1);
        assert!(second.worker_lag[1].is_nan());
        assert_eq!((second.horizon_width, second.mean_lag), (0.0, 1.0));
    }
}
