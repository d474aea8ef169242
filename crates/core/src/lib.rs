//! ROSS-style optimistic (Time Warp) PDES engine.
//!
//! This crate implements the simulation engine the paper's GVT study runs
//! on: logical processes exchanging time-stamped events, processed
//! optimistically with rollback on causality violations, anti-messages with
//! annihilation, fossil collection below GVT, and the committed-event-rate
//! / efficiency accounting the paper reports.
//!
//! Architecture (one simulated cluster run):
//!
//! ```text
//!   ClusterBuilder  ──►  actors:  N × (workers + optional MPI thread)
//!        │                            │
//!        │   Worker  = LPs + pending set + WorkerGvt half   (worker.rs)
//!        │   MpiActor = node outbox/inbox pump + MpiGvt half (mpi_actor.rs)
//!        │
//!        └─ shared:  EngineShared (router, fabric, GVT core state, stats)
//!                    NodeShared   (per-lane queues, outbox, node GVT state)
//! ```
//!
//! The engine is generic over the [`Model`] (LP behaviour) and over the GVT
//! algorithm (the [`gvt`] interfaces; implementations live in `cagvt-gvt`).
//! [`seq::SequentialSim`] is the ground-truth reference simulator used by
//! the test suite to verify that optimistic execution commits exactly the
//! same events and states.

pub mod cluster;
pub mod config;
pub mod event;
pub mod gvt;
pub mod lp;
pub mod model;
pub mod mpi_actor;
pub mod node;
pub mod queue;
pub mod report;
pub mod seq;
mod slab;
pub mod stats;
pub mod worker;

pub use cluster::{
    build_cluster, build_shared, build_shared_observed, run_virtual, run_virtual_with,
    ClusterHandles,
};
pub use config::SimConfig;
pub use event::{AntiMsg, Event, EventKey, EventMsg, RemoteEnv, TaggedMsg};
pub use gvt::{GvtBundle, GvtSharedCore, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};
pub use model::{Emitter, EventCtx, Model};
pub use report::RunReport;
pub use seq::SequentialSim;

pub mod testmodel;
