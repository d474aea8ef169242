//! # cagvt — Controlled Asynchronous GVT
//!
//! A Rust reproduction of *"Controlled Asynchronous GVT: Accelerating
//! Parallel Discrete Event Simulation on Many-Core Clusters"* (Eker,
//! Williams, Chiu, Ponomarev — ICPP 2019): an optimistic (Time Warp) PDES
//! engine in the style of ROSS, a simulated many-core cluster substrate,
//! and the paper's three GVT algorithms — synchronous **Barrier GVT**,
//! asynchronous **Mattern GVT**, and adaptive **CA-GVT**.
//!
//! ## Quick start
//!
//! ```
//! use cagvt::prelude::*;
//! use std::sync::Arc;
//!
//! // A 2-node cluster, 4 workers per node, with a dedicated MPI thread.
//! let mut cfg = SimConfig::small(2, 4);
//! cfg.end_time = 15.0;
//!
//! // The paper's computation-dominated PHOLD workload.
//! let workload = comp_dominated(&cfg);
//!
//! // Run under CA-GVT on the deterministic virtual cluster.
//! let report = run_virtual(Arc::new(workload.model), cfg, |shared| {
//!     make_bundle(GvtKind::CA_DEFAULT, shared)
//! });
//! assert!(report.committed > 0);
//! println!("{report}");
//! ```
//!
//! Observers — a fault plan, a trace sink, a metrics sink — ride on
//! [`VirtualConfig`](exec::VirtualConfig)'s `faults`, `trace` and `metrics`
//! fields through [`run_virtual_with`](core::run_virtual_with), or are
//! passed as the `(faults, trace, metrics)` triple of
//! [`build_shared_observed`](core::build_shared_observed) when assembling
//! a cluster by hand. None of them changes a run's results.
//!
//! The same cluster runs on real OS threads: pass the actors of
//! [`build_cluster`](core::cluster::build_cluster) to
//! [`ThreadRuntime`](exec::ThreadRuntime) instead of
//! [`VirtualScheduler`](exec::VirtualScheduler). Both runtimes honour the
//! same park-and-wake protocol ([`base::wake`]): a waiting actor parks,
//! skipped and credited under the virtual scheduler, asleep on its thread
//! under threads, until a notice or its timer wakes it. Both return one
//! [`RunStats`](exec::RunStats), which
//! [`RunReport::assemble`](core::RunReport::assemble) folds into a report
//! (see `examples/real_threads.rs`).
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`base`] | virtual time, wall-clock ns, ids, RNG, stats, actors |
//! | [`net`] | simulated cluster fabric: mailboxes, NIC/latency models, MPI planes, collectives |
//! | [`exec`] | deterministic virtual scheduler + real OS-thread runtime |
//! | [`core`] | the Time Warp engine, GVT interface, sequential reference |
//! | [`gvt`] | Barrier, Mattern and CA-GVT algorithms |
//! | [`fault`] | deterministic fault plans: stragglers, link degradation, drops |
//! | [`trace`] | ring-buffer trace recorder and Chrome/Perfetto export |
//! | [`metrics`] | per-GVT-epoch metrics registry, epoch CSV, health rules |
//! | [`models`] | modified PHOLD, epidemic (SIR), PCS cellular models |
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use cagvt_base as base;
pub use cagvt_core as core;
pub use cagvt_exec as exec;
pub use cagvt_fault as fault;
pub use cagvt_gvt as gvt;
pub use cagvt_metrics as metrics;
pub use cagvt_models as models;
pub use cagvt_net as net;
pub use cagvt_trace as trace;

/// The commonly-needed imports in one place.
pub mod prelude {
    pub use cagvt_base::{
        Actor, FaultInjector, FaultStats, LpId, MetricsEpoch, MetricsSink, TraceSink, VirtualTime,
        WallNs,
    };
    pub use cagvt_core::cluster::{
        build_cluster, build_shared, build_shared_observed, run_virtual, run_virtual_with,
    };
    pub use cagvt_core::lp::RollbackStrategy;
    pub use cagvt_core::model::{Emitter, EventCtx, Model};
    pub use cagvt_core::seq::SequentialSim;
    pub use cagvt_core::{RunReport, SimConfig};
    pub use cagvt_exec::{ThreadConfig, ThreadRuntime, VirtualConfig, VirtualScheduler};
    pub use cagvt_fault::{FaultPlan, FaultRuntime, FaultSpec, FaultTopology, Perturbation};
    pub use cagvt_gvt::{make_bundle, GvtKind};
    pub use cagvt_metrics::{HealthMonitor, MetricsRegistry};
    pub use cagvt_models::presets::{comm_dominated, comp_dominated, mixed_model};
    pub use cagvt_models::{CqnModel, EpidemicModel, PcsModel, PholdModel, TrafficModel};
    pub use cagvt_net::{ClusterSpec, CostModel, MpiMode};
    pub use cagvt_trace::{chrome_trace, TraceMeta, TraceRecorder};
}
