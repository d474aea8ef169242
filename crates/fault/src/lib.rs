//! Deterministic fault injection for the simulated cluster.
//!
//! The paper's algorithms are compared on a *healthy* virtual cluster; this
//! crate perturbs that cluster the way real many-core clusters degrade —
//! straggling nodes, degraded links, stalled MPI progress threads, dropped
//! packets — without touching a line of engine logic. Everything flows
//! through the [`FaultInjector`](cagvt_base::FaultInjector) hooks the
//! substrate layers already consult:
//!
//! * a [`FaultPlan`] is a pure value: a set of scheduled [`Perturbation`]s
//!   generated from a seed with the workspace's own PCG generator (never
//!   wall-clock randomness), so a plan is reproducible from the run's
//!   [`ClusterSpec`](cagvt_net::ClusterSpec) and its [`FaultSpec`] alone;
//! * a [`FaultRuntime`] interprets a plan during a run, mapping scheduler
//!   actors to nodes with the same `ClusterSpec`. It is deterministic
//!   under the serialized virtual scheduler: identical plan + identical
//!   call sequence ⇒ identical perturbations, hence bit-identical
//!   `RunReport`s.
//!
//! Faults only ever move *wall-clock* costs and delivery instants. Virtual
//! time, event payloads and message multiplicity are untouched — a dropped
//! message is modeled as retransmit timeouts appended to its delivery
//! instant, never as silent loss — which is why Mattern's white-message
//! conservation and the sequential-equivalence oracle hold under every
//! plan.

pub mod plan;
pub mod runtime;

pub use plan::{FaultPlan, FaultSpec, Perturbation};
pub use runtime::FaultRuntime;
