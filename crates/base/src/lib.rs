//! Foundation types shared by every crate in the CA-GVT stack.
//!
//! This crate is dependency-free and holds the vocabulary of the whole
//! system:
//!
//! * [`VirtualTime`] — the simulated *model* time that logical processes
//!   advance through (the thing GVT is computed over).
//! * [`WallNs`] — simulated *wall-clock* nanoseconds used by the virtual
//!   cluster substrate to account for compute and communication costs.
//! * Identifier newtypes ([`NodeId`], [`LaneId`], [`ActorId`], [`LpId`],
//!   [`EventId`]).
//! * [`rng`] — a small deterministic, snapshottable PCG generator. LP state
//!   embeds its generator so rollback restores the random stream exactly.
//! * [`stats`] — Welford mean/variance and simple accumulators used for the
//!   paper's efficiency / LVT-disparity metrics.
//! * [`Actor`] — the unit of execution both runtimes (virtual scheduler and
//!   OS threads) know how to drive.
//! * [`wake`] — the park-and-wake board through which idle actors stop
//!   costing a host step per simulated poll under the virtual scheduler.
//! * [`trace`] — the [`TraceSink`] observation hook and typed record
//!   vocabulary (the ring recorder and exporters live in `cagvt-trace`).
//! * [`metrics`] — the [`MetricsSink`] per-GVT-epoch observation hook and
//!   the [`MetricsEpoch`] record (the registry, exporters and health rules
//!   live in `cagvt-metrics`).

pub mod actor;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wake;

pub use actor::{Actor, StepOutcome, StepResult};
pub use fault::{FaultInjector, FaultStats, LinkShape};
pub use ids::{ActorId, EventId, LaneId, LpId, NodeId};
pub use metrics::{EpochMode, MetricsEpoch, MetricsSink, SyncCause};
pub use rng::{Pcg32, SplitMix64};
pub use stats::{Horizon, Welford};
pub use time::{VirtualTime, WallNs};
pub use trace::{GvtPhaseKind, StderrSink, TraceRecord, TraceSink, Track};
