//! `cagvt-trace` — the concrete observability layer behind the
//! [`TraceSink`](cagvt_base::TraceSink) hook defined in `cagvt-base`
//! (sibling of `FaultInjector`).
//!
//! * [`TraceRecorder`] — per-actor ring-buffer recorder with a global
//!   sequence number; deterministic under the virtual scheduler, safe (and
//!   low-contention) under `ThreadRuntime`.
//! * [`chrome_trace`] — Chrome trace-event JSON export, loadable in
//!   Perfetto (<https://ui.perfetto.dev>): nodes as processes, workers and
//!   MPI actors as threads (labelled by the run's
//!   [`ClusterSpec`](cagvt_net::ClusterSpec)), GVT rounds as flow events, queue depths and
//!   LVTs as counters. It is the recorder's one serialization: it carries
//!   every field of every record, in recording order, one JSON object per
//!   line (a GVT phase or publication adds a flow or counter object).
//!
//! The trace derives no statistics. The per-round horizon (width,
//! roughness, mean lag) is read once per round, by
//! `GvtSharedCore::observe_round` in `cagvt-core`, which also hands this
//! layer the round's GVT and LVT records: the run report reads it from the
//! round log and the metrics epochs (`metrics-<series>.csv`) carry it.
//!
//! Recording charges no simulated wall-clock cost: the trace observes the
//! run, it never participates in it. The `tracing_never_perturbs` proptest
//! in the workspace root holds traced and untraced runs to bit-identical
//! results.

pub mod chrome;
pub mod recorder;
pub mod ring;

pub use chrome::chrome_trace;
pub use recorder::{TraceRecorder, DEFAULT_RING_CAP};
pub use ring::{Ring, TraceEvent};
