//! Simulated many-core cluster communication substrate.
//!
//! This crate stands in for the hardware/software stack the paper runs on —
//! an 8-node Intel KNL cluster with mpich over 10 GbE — as a set of
//! *cost-modeled, polled* communication primitives that work identically
//! under the deterministic virtual scheduler and under real OS threads:
//!
//! * [`CostModel`] / [`ClusterSpec`] — every tunable wall-clock cost of the
//!   modeled cluster (EPG unit cost, per-message MPI overheads, NIC
//!   bandwidth, wire latency, lock hold times, barrier costs), with a
//!   calibrated KNL-cluster preset.
//! * [`Mailbox`] — FIFO channel with delivery-time gating; used for
//!   intra-node (regional) queues and node-level MPI in/out queues.
//! * [`VirtualMutex`] — queueing model of a contended lock; reproduces the
//!   threaded-MPI lock contention of Amer et al. that motivates the paper's
//!   dedicated MPI thread.
//! * [`Nic`] — transmit-side serialization (bandwidth) plus wire latency.
//! * [`MpiFabric`] — node-to-node FIFO channels for event traffic and a
//!   control plane (ring messages) for GVT algorithms.
//! * [`collective`] — polled node-level barrier-reductions (the paper's
//!   pthread barrier) and cluster-level collectives with modeled completion
//!   latency (the paper's MPI barrier / allreduce).
//!
//! Nothing here blocks: waiting is expressed by polling, so the engine's
//! actors stay non-blocking state machines.

pub mod collective;
pub mod envelope;
pub mod link;
pub mod mailbox;
pub mod mpi;
pub mod spec;
pub mod vmutex;

pub use collective::{ClusterCollective, NodeReduce, ReduceValue};
pub use envelope::{MsgClass, NetMsg};
pub use link::Nic;
pub use mailbox::Mailbox;
pub use mpi::{fabric_pair, CtrlMsg, CtrlPlane, MpiFabric};
pub use spec::{ClusterSpec, CostModel, MpiMode};
pub use vmutex::VirtualMutex;
