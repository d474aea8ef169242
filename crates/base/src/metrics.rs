//! Online-metrics hook points.
//!
//! Where [`crate::trace::TraceSink`] observes *individual* engine actions
//! (one record per event, message, rollback…), the metrics hook observes
//! the engine at the granularity the CA-GVT *controller* operates on: one
//! [`MetricsEpoch`] per published GVT round, carrying the windowed —
//! not cumulative — counter deltas, the per-worker LVT lag horizon and the
//! controller's own mode/cause decision for that round.
//!
//! The discipline is identical to tracing: the engine consults an optional
//! [`MetricsSink`] but never branches on it, a sink only records and never
//! charges wall-clock cost, and the epoch reads each worker's counters from
//! the per-worker slot the worker refreshes at its own round completions —
//! the per-event hot path is untouched. Metered and unmetered runs are
//! therefore bit-identical (the `metrics_never_perturb` proptest pins
//! this).
//!
//! The concrete registry, the epoch CSV and the
//! [`HealthMonitor`](../../cagvt_metrics) rules live in the
//! `cagvt-metrics` crate; this module defines only the trait and the epoch
//! record so every layer can hold the hook without a dependency cycle
//! (mirroring [`crate::fault::FaultInjector`] and
//! [`crate::trace::TraceSink`]).

use crate::time::WallNs;

/// Controller mode a GVT round ran under, as seen by the epoch stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EpochMode {
    /// The GVT algorithm has no sync/async controller (Barrier and plain
    /// Mattern rounds).
    #[default]
    Uncontrolled,
    /// CA-GVT ran the round asynchronously (plain Mattern behavior).
    Async,
    /// CA-GVT armed the conditional barriers and ran the round
    /// synchronously.
    Sync,
}

impl EpochMode {
    /// Stable lower-case label used by the epoch CSV.
    pub fn label(self) -> &'static str {
        match self {
            EpochMode::Uncontrolled => "uncontrolled",
            EpochMode::Async => "async",
            EpochMode::Sync => "sync",
        }
    }
}

/// Why CA-GVT armed its conditional barriers for a synchronous round.
///
/// The controller decides at the *previous* publication: a round is run
/// synchronously when the last windowed efficiency fell below the
/// threshold and/or the MPI queues were deeper than the optional queue
/// threshold (paper §5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SyncCause {
    /// Asynchronous round (or no controller): nothing was armed.
    #[default]
    None,
    /// Windowed efficiency fell below the controller threshold.
    Efficiency,
    /// MPI queue occupancy exceeded the queue threshold.
    QueueDepth,
    /// Both triggers fired at the arming publication.
    Both,
}

impl SyncCause {
    /// Stable lower-case label used by the epoch CSV.
    pub fn label(self) -> &'static str {
        match self {
            SyncCause::None => "none",
            SyncCause::Efficiency => "efficiency",
            SyncCause::QueueDepth => "queue-depth",
            SyncCause::Both => "efficiency+queue",
        }
    }

    /// Compact wire form for atomics (see [`SyncCause::from_u8`]).
    pub fn as_u8(self) -> u8 {
        match self {
            SyncCause::None => 0,
            SyncCause::Efficiency => 1,
            SyncCause::QueueDepth => 2,
            SyncCause::Both => 3,
        }
    }

    /// Inverse of [`SyncCause::as_u8`]; unknown encodings collapse to
    /// `None`.
    pub fn from_u8(v: u8) -> SyncCause {
        match v {
            1 => SyncCause::Efficiency,
            2 => SyncCause::QueueDepth,
            3 => SyncCause::Both,
            _ => SyncCause::None,
        }
    }

    /// Combine the two trigger predicates into a cause.
    pub fn from_flags(efficiency: bool, queue: bool) -> SyncCause {
        match (efficiency, queue) {
            (true, true) => SyncCause::Both,
            (true, false) => SyncCause::Efficiency,
            (false, true) => SyncCause::QueueDepth,
            (false, false) => SyncCause::None,
        }
    }
}

/// One GVT epoch of controller telemetry.
///
/// All `*_delta` fields are windowed over the epoch — the difference of
/// the cluster-wide counter totals between this publication and the
/// previous one — so the series shows the signal the CA-GVT controller
/// actually reacts to, not a cumulative average. Counter totals include
/// the per-worker counter slots; a worker's slot may lag its very latest
/// events by at most one round (the worker refreshes it when it passes its
/// own round completion), which keeps the event loop free of any metrics
/// cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsEpoch {
    /// GVT round number (1-based, as published).
    pub round: u64,
    /// Simulated wall-clock time of the publication.
    pub t: WallNs,
    /// The published GVT value.
    pub gvt: f64,
    /// Events committed during the epoch.
    pub committed_delta: u64,
    /// Events processed (committed + later rolled back) during the epoch.
    pub processed_delta: u64,
    /// Events rolled back during the epoch.
    pub rolled_back_delta: u64,
    /// Rollback episodes during the epoch.
    pub rollbacks_delta: u64,
    /// Anti-messages sent during the epoch.
    pub antis_sent_delta: u64,
    /// Event/anti pairs annihilated during the epoch.
    pub annihilated_delta: u64,
    /// Messages routed out of workers during the epoch.
    pub msgs_sent_delta: u64,
    /// Messages drained by workers during the epoch.
    pub msgs_received_delta: u64,
    /// Windowed efficiency `committed / (committed + rolled_back)` over
    /// the epoch; `1.0` when the epoch committed nothing.
    pub efficiency_window: f64,
    /// Cumulative run efficiency at the publication, for reference.
    pub efficiency_cum: f64,
    /// Per-worker LVT lag `lvt - gvt` at the publication, indexed by
    /// global worker id; `NaN` for workers at infinite LVT (idle).
    pub worker_lag: Vec<f64>,
    /// `max - min` over the finite worker LVTs (0 when fewer than one
    /// finite sample).
    pub horizon_width: f64,
    /// Standard deviation of the finite worker lags — the horizon
    /// "roughness" of the Shchur–Novotny time-horizon analysis.
    pub horizon_roughness: f64,
    /// Mean of the finite worker lags.
    pub mean_lag: f64,
    /// Deepest per-node MPI outbox at the publication.
    pub mpi_queue_max: u64,
    /// Controller mode of the round. A `Sync` round passes through all
    /// three of CA-GVT's conditional barriers A, B and C; no other round
    /// passes through any.
    pub mode: EpochMode,
    /// Why the controller armed the barriers (sync rounds only).
    pub cause: SyncCause,
}

impl MetricsEpoch {
    /// Finite worker count contributing to the horizon statistics.
    pub fn finite_workers(&self) -> usize {
        self.worker_lag.iter().filter(|l| l.is_finite()).count()
    }
}

/// Observation hook consulted once per published GVT round.
///
/// Same contract as [`crate::trace::TraceSink`]: implementations may
/// allocate and lock internally but must never feed anything back into
/// engine state, and the engine never charges virtual time for a sink
/// call. Metering is off only by absence: with no sink installed the
/// engine assembles no epoch, and a round pays one branch.
pub trait MetricsSink: Send + Sync {
    /// Record one epoch published at simulated wall-clock time `t`.
    fn on_epoch(&self, t: WallNs, epoch: &MetricsEpoch);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_cause_round_trips_through_u8() {
        for cause in
            [SyncCause::None, SyncCause::Efficiency, SyncCause::QueueDepth, SyncCause::Both]
        {
            assert_eq!(SyncCause::from_u8(cause.as_u8()), cause);
        }
        assert_eq!(SyncCause::from_u8(250), SyncCause::None);
    }

    #[test]
    fn sync_cause_from_flags_covers_the_truth_table() {
        assert_eq!(SyncCause::from_flags(false, false), SyncCause::None);
        assert_eq!(SyncCause::from_flags(true, false), SyncCause::Efficiency);
        assert_eq!(SyncCause::from_flags(false, true), SyncCause::QueueDepth);
        assert_eq!(SyncCause::from_flags(true, true), SyncCause::Both);
    }

    #[test]
    fn finite_workers_skips_nan_lags() {
        let e =
            MetricsEpoch { worker_lag: vec![1.0, f64::NAN, 0.5, f64::NAN], ..Default::default() };
        assert_eq!(e.finite_workers(), 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EpochMode::Uncontrolled.label(), "uncontrolled");
        assert_eq!(EpochMode::Async.label(), "async");
        assert_eq!(EpochMode::Sync.label(), "sync");
        assert_eq!(SyncCause::Both.label(), "efficiency+queue");
    }
}
