//! Structured-tracing hook points.
//!
//! The engine is observed from the *outside*: workers, the MPI pumps, the
//! GVT algorithms and the scheduler each consult an optional [`TraceSink`]
//! at the moments the paper's analysis cares about — when an event is
//! processed or rolled back, when a GVT round changes phase, when a worker
//! blocks on a barrier, when an MPI queue is sampled, and when the
//! per-worker LVT horizon is snapshotted. An absent sink is the only "off":
//! each hook is one `Option` check. Engine logic never branches on
//! tracing; a sink only *records*, it never charges wall-clock cost, which
//! is what keeps traced and untraced runs observationally identical (the
//! `tracing_never_perturbs` proptest pins this).
//!
//! All records are stamped in simulated wall-clock nanoseconds ([`WallNs`]),
//! so under the serialized `VirtualScheduler` a trace is bit-deterministic:
//! the same configuration produces the same record sequence, byte for byte.
//! The same hooks fire from `ThreadRuntime` (sinks are `Send + Sync`); there
//! the interleaving — and hence the trace — is only as deterministic as the
//! thread schedule.
//!
//! The concrete ring-buffer recorder and the Chrome-trace exporter live in
//! the `cagvt-trace` crate; this module only defines the trait and
//! the record vocabulary so every layer can hold a hook without a
//! dependency cycle (mirroring [`crate::fault::FaultInjector`]).

use crate::ids::{EventId, LpId};
use crate::time::{VirtualTime, WallNs};
use std::fmt;
use std::sync::Arc;

/// The track (≈ Perfetto thread) a record belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A worker, by global worker index.
    Worker(u32),
    /// A node's MPI actor / progress engine.
    Mpi(u16),
    /// Cluster-global records (GVT publications, scheduler events).
    Global,
}

/// Phase transitions of one GVT round, in the vocabulary shared by all
/// three algorithms (request → local min → reduce → publish).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GvtPhaseKind {
    /// A participant joined the requested round.
    RoundStart,
    /// Mattern white→red cutpoint: the local white-message bucket is
    /// flushed and the red minimum starts accumulating.
    TurnRed,
    /// The participant contributed its local minimum to the reduction.
    CheckIn,
    /// A reduction pass over in-transit message counts (Mattern's ring
    /// SUM pass; the barrier algorithm's sum-until-drained loop).
    SumPass,
    /// A reduction pass over the timestamp minima.
    MinPass,
    /// The participant blocked on a synchronization barrier (Barrier GVT
    /// always; CA-GVT's conditional barriers A/B/C).
    BarrierEnter,
    /// The barrier released the participant.
    BarrierExit,
    /// The round's GVT value was published.
    Publish,
}

impl GvtPhaseKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            GvtPhaseKind::RoundStart => "round-start",
            GvtPhaseKind::TurnRed => "turn-red",
            GvtPhaseKind::CheckIn => "check-in",
            GvtPhaseKind::SumPass => "sum-pass",
            GvtPhaseKind::MinPass => "min-pass",
            GvtPhaseKind::BarrierEnter => "barrier-enter",
            GvtPhaseKind::BarrierExit => "barrier-exit",
            GvtPhaseKind::Publish => "publish",
        }
    }
}

/// One typed trace record.
///
/// Records are small and `Copy`; a sink that keeps them (the ring recorder)
/// stores them verbatim, and a sink that formats them (the stderr sink)
/// pays formatting cost only for records that pass its filter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceRecord {
    /// One committed-or-optimistic event processed by a worker: `vt` is the
    /// event's receive time, `dur` the wall-clock charge of the step.
    EventSpan { worker: u32, id: EventId, dst: LpId, vt: VirtualTime, dur: WallNs },
    /// A message (event or anti-message) routed out of a worker.
    MsgSend { worker: u32, id: EventId, dst: LpId, vt: VirtualTime, anti: bool, remote: bool },
    /// A message drained from a worker's inbound lane.
    MsgRecv { worker: u32, id: EventId, vt: VirtualTime, anti: bool },
    /// A rolled-back event re-enqueued for reprocessing.
    Reenqueue { worker: u32, id: EventId, vt: VirtualTime },
    /// An event/anti pair annihilated (`pending`: the positive copy was
    /// still unprocessed).
    Annihilate { worker: u32, id: EventId, pending: bool },
    /// A rollback undoing `undone` events (`straggler`: caused by a
    /// straggler arrival rather than an anti-message).
    Rollback { worker: u32, undone: u64, straggler: bool },
    /// A GVT round phase transition on some track.
    GvtRound { track: Track, round: u64, phase: GvtPhaseKind },
    /// A round's GVT value was published cluster-wide.
    GvtPublish { round: u64, gvt: VirtualTime },
    /// One contiguous blocked stretch of a worker inside a GVT barrier.
    BarrierWait { worker: u32, dur: WallNs },
    /// MPI queue occupancy sample (`inbound`: fabric inbox rather than the
    /// node's outbox).
    MpiQueue { node: u16, depth: u64, inbound: bool },
    /// Per-worker LVT sample of one virtual-time-horizon snapshot.
    Lvt { worker: u32, lvt: VirtualTime },
    /// An actor retired from the scheduler.
    ActorDone { actor: u32 },
}

impl TraceRecord {
    /// The track this record belongs to.
    pub fn track(&self) -> Track {
        match *self {
            TraceRecord::EventSpan { worker, .. }
            | TraceRecord::MsgSend { worker, .. }
            | TraceRecord::MsgRecv { worker, .. }
            | TraceRecord::Reenqueue { worker, .. }
            | TraceRecord::Annihilate { worker, .. }
            | TraceRecord::Rollback { worker, .. }
            | TraceRecord::BarrierWait { worker, .. }
            | TraceRecord::Lvt { worker, .. } => Track::Worker(worker),
            TraceRecord::GvtRound { track, .. } => track,
            TraceRecord::MpiQueue { node, .. } => Track::Mpi(node),
            TraceRecord::GvtPublish { .. } | TraceRecord::ActorDone { .. } => Track::Global,
        }
    }

    /// The event identity this record is about, if any (the stderr sink's
    /// single-event filter keys on this).
    pub fn event_id(&self) -> Option<EventId> {
        match *self {
            TraceRecord::EventSpan { id, .. }
            | TraceRecord::MsgSend { id, .. }
            | TraceRecord::MsgRecv { id, .. }
            | TraceRecord::Reenqueue { id, .. }
            | TraceRecord::Annihilate { id, .. } => Some(id),
            _ => None,
        }
    }

    /// Stable lower-case record-kind label used by the exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::EventSpan { .. } => "event",
            TraceRecord::MsgSend { .. } => "send",
            TraceRecord::MsgRecv { .. } => "recv",
            TraceRecord::Reenqueue { .. } => "reenqueue",
            TraceRecord::Annihilate { .. } => "annihilate",
            TraceRecord::Rollback { .. } => "rollback",
            TraceRecord::GvtRound { .. } => "gvt-phase",
            TraceRecord::GvtPublish { .. } => "gvt-publish",
            TraceRecord::BarrierWait { .. } => "barrier-wait",
            TraceRecord::MpiQueue { .. } => "mpi-queue",
            TraceRecord::Lvt { .. } => "lvt",
            TraceRecord::ActorDone { .. } => "actor-done",
        }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceRecord::EventSpan { worker, id, dst, vt, dur } => {
                write!(f, "w{worker} PROCESS {id} @ {dst} t={vt} cost={dur}")
            }
            TraceRecord::MsgSend { worker, id, dst, vt, anti, remote } => {
                let kind = if anti { "anti" } else { "event" };
                let scope = if remote { "remote" } else { "local" };
                write!(f, "w{worker} SEND {kind} {id} -> {dst} t={vt} ({scope})")
            }
            TraceRecord::MsgRecv { worker, id, vt, anti } => {
                let kind = if anti { "anti" } else { "event" };
                write!(f, "w{worker} RECV {kind} {id} t={vt}")
            }
            TraceRecord::Reenqueue { worker, id, vt } => {
                write!(f, "w{worker} REENQ {id} t={vt}")
            }
            TraceRecord::Annihilate { worker, id, pending } => {
                let which = if pending { "pending" } else { "processed" };
                write!(f, "w{worker} ANNIHILATE {id} ({which})")
            }
            TraceRecord::Rollback { worker, undone, straggler } => {
                let cause = if straggler { "straggler" } else { "anti" };
                write!(f, "w{worker} ROLLBACK undone={undone} ({cause})")
            }
            TraceRecord::GvtRound { track, round, phase } => {
                write!(f, "{track:?} GVT round={round} {}", phase.label())
            }
            TraceRecord::GvtPublish { round, gvt } => {
                write!(f, "GVT-PUBLISH round={round} gvt={gvt}")
            }
            TraceRecord::BarrierWait { worker, dur } => {
                write!(f, "w{worker} BARRIER-WAIT {dur}")
            }
            TraceRecord::MpiQueue { node, depth, inbound } => {
                let which = if inbound { "inbox" } else { "outbox" };
                write!(f, "n{node} MPI-{which} depth={depth}")
            }
            TraceRecord::Lvt { worker, lvt } => write!(f, "w{worker} LVT {lvt}"),
            TraceRecord::ActorDone { actor } => write!(f, "a{actor} DONE"),
        }
    }
}

/// Observation hook consulted by every instrumented layer.
///
/// Implementations must be cheap and side-effect-free with respect to the
/// simulation: a sink may allocate and lock internally, but it must never
/// feed anything back into engine state. Tracing is off only by absence:
/// every layer holds an `Option` of a sink, and with `None` a hook costs
/// one branch and constructs no record.
pub trait TraceSink: Send + Sync {
    /// Record one observation at simulated wall-clock time `t`.
    fn record(&self, t: WallNs, rec: &TraceRecord);
}

/// A stderr sink with an optional single-event filter — the successor of
/// the old `CAGVT_TRACE` eprintln macro in `worker.rs`. With a filter it
/// prints only records about event `lp#seq`; without one it prints every
/// record (verbose!).
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrSink {
    /// Print only records whose [`TraceRecord::event_id`] matches.
    pub filter: Option<EventId>,
}

impl StderrSink {
    /// Parse a `CAGVT_TRACE` value: `all` prints every record, and an event
    /// id in the form every trace prints it ([`EventId`]'s `Display`,
    /// `lp<N>#<seq>`, e.g. `lp4711#9`) prints that one event's lifecycle.
    /// Panics on any other value, so a mistyped id never runs untraced.
    pub fn parse(spec: &str) -> StderrSink {
        let spec = spec.trim();
        if spec == "all" {
            return StderrSink { filter: None };
        }
        let id = spec.strip_prefix("lp").and_then(|rest| rest.split_once('#'));
        let id =
            id.and_then(|(lp, seq)| Some(EventId::new(LpId(lp.parse().ok()?), seq.parse().ok()?)));
        match id {
            Some(id) => StderrSink { filter: Some(id) },
            None => panic!(
                "{TRACE_ENV} must be `all` or an event id as traces print it, \
                 `lp<N>#<seq>` (e.g. `lp4711#9`), got {spec:?}"
            ),
        }
    }
}

impl TraceSink for StderrSink {
    fn record(&self, t: WallNs, rec: &TraceRecord) {
        if self.filter.is_some_and(|id| rec.event_id() != Some(id)) {
            return;
        }
        eprintln!("[trace {}] {rec}", t.0);
    }
}

/// The environment variable [`env_sink`] reads.
const TRACE_ENV: &str = "CAGVT_TRACE";

/// Build the convenience sink selected by the `CAGVT_TRACE` environment
/// variable ([`StderrSink::parse`]): `CAGVT_TRACE=lp<N>#<seq>` yields a
/// [`StderrSink`] filtered to that one event's lifecycle, `CAGVT_TRACE=all`
/// an unfiltered stderr sink, and unset yields `None`. Any other value
/// panics.
pub fn env_sink() -> Option<Arc<dyn TraceSink>> {
    let spec = std::env::var_os(TRACE_ENV)?;
    Some(Arc::new(StderrSink::parse(&spec.to_string_lossy())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(lp: u32, seq: u32) -> EventId {
        EventId::new(LpId(lp), seq)
    }

    #[test]
    fn tracks_route_records_to_their_actor() {
        assert_eq!(
            TraceRecord::EventSpan {
                worker: 3,
                id: id(1, 2),
                dst: LpId(9),
                vt: VirtualTime::new(1.0),
                dur: WallNs(10),
            }
            .track(),
            Track::Worker(3)
        );
        assert_eq!(
            TraceRecord::MpiQueue { node: 2, depth: 5, inbound: false }.track(),
            Track::Mpi(2)
        );
        assert_eq!(
            TraceRecord::GvtPublish { round: 1, gvt: VirtualTime::ZERO }.track(),
            Track::Global
        );
        assert_eq!(
            TraceRecord::GvtRound { track: Track::Mpi(1), round: 2, phase: GvtPhaseKind::SumPass }
                .track(),
            Track::Mpi(1)
        );
    }

    #[test]
    fn event_id_exposed_only_for_message_records() {
        let rec = TraceRecord::MsgSend {
            worker: 0,
            id: id(4, 7),
            dst: LpId(1),
            vt: VirtualTime::new(2.0),
            anti: true,
            remote: false,
        };
        assert_eq!(rec.event_id(), Some(id(4, 7)));
        assert_eq!(
            TraceRecord::Rollback { worker: 0, undone: 3, straggler: true }.event_id(),
            None
        );
    }

    #[test]
    fn stderr_filter_matches_exactly() {
        // Behavioural check of the filter predicate, not the printing.
        let sink = StderrSink { filter: Some(id(4, 7)) };
        let hit =
            TraceRecord::MsgRecv { worker: 0, id: id(4, 7), vt: VirtualTime::ZERO, anti: false };
        let miss =
            TraceRecord::MsgRecv { worker: 0, id: id(4, 8), vt: VirtualTime::ZERO, anti: false };
        // `record` returns unit; the observable contract is that only `hit`
        // prints. Exercise both paths for coverage.
        sink.record(WallNs(0), &hit);
        sink.record(WallNs(0), &miss);
        assert_eq!(hit.event_id(), Some(id(4, 7)));
        assert_ne!(miss.event_id(), Some(id(4, 7)));
    }

    #[test]
    fn trace_env_accepts_the_printed_event_id() {
        let printed = id(4711, 9).to_string();
        assert_eq!(printed, "lp4711#9");
        assert_eq!(StderrSink::parse(&printed).filter, Some(id(4711, 9)));
        assert_eq!(StderrSink::parse("all").filter, None);
    }

    #[test]
    #[should_panic(expected = "CAGVT_TRACE must be `all` or an event id")]
    fn trace_env_rejects_a_malformed_value() {
        StderrSink::parse("4711:9");
    }

    #[test]
    #[should_panic(expected = "CAGVT_TRACE must be `all` or an event id")]
    fn trace_env_rejects_a_sequence_number_beyond_32_bits() {
        StderrSink::parse(&format!("lp1#{}", u32::MAX as u64 + 1));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GvtPhaseKind::TurnRed.label(), "turn-red");
        assert_eq!(GvtPhaseKind::Publish.label(), "publish");
        assert_eq!(TraceRecord::ActorDone { actor: 1 }.kind(), "actor-done");
        let shown = format!(
            "{}",
            TraceRecord::MsgSend {
                worker: 2,
                id: id(1, 5),
                dst: LpId(3),
                vt: VirtualTime::new(0.5),
                anti: false,
                remote: true,
            }
        );
        assert!(shown.contains("SEND") && shown.contains("remote"), "{shown}");
    }
}
