//! Cluster topology and wall-clock cost model.
//!
//! [`CostModel::knl_cluster`] is the calibrated preset used by the figure
//! harness; it encodes the magnitudes of the paper's platform (KNL 7230 at
//! 1.3 GHz, mpich-3.3 over 10 GbE). Absolute numbers are order-of-magnitude
//! estimates — what the reproduction relies on is the *ratios* (EPG work vs
//! message costs vs wire latency), which drive who wins between the GVT
//! algorithms.

use cagvt_base::ids::{ActorId, LaneId, NodeId};
use cagvt_base::time::WallNs;
use cagvt_base::wake;

/// How MPI work is assigned to threads within a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpiMode {
    /// The paper's proposal: one dedicated thread per node does all MPI and
    /// no event processing.
    Dedicated,
    /// The baseline from Wang et al. \[31\]: one thread per node does all
    /// MPI *and* normal event processing (worker lane 0).
    InlineWorker,
    /// The motivating pathology: every worker performs its own MPI calls
    /// through the contended library lock.
    PerWorker,
}

impl MpiMode {
    pub fn label(self) -> &'static str {
        match self {
            MpiMode::Dedicated => "dedicated",
            MpiMode::InlineWorker => "inline",
            MpiMode::PerWorker => "per-worker",
        }
    }
}

/// Cluster shape: `nodes` KNL sockets, `workers` simulation threads each.
///
/// The spec also numbers the run's actors: workers are dense node-major
/// then lane-major (`0 .. total_workers()`), and in [`MpiMode::Dedicated`]
/// one MPI actor per node follows them in node order.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    pub nodes: u16,
    pub workers_per_node: u16,
    pub mpi_mode: MpiMode,
}

impl ClusterSpec {
    pub fn new(nodes: u16, workers_per_node: u16, mpi_mode: MpiMode) -> Self {
        assert!(nodes >= 1, "cluster needs at least one node");
        assert!(workers_per_node >= 1, "node needs at least one worker");
        ClusterSpec { nodes, workers_per_node, mpi_mode }
    }

    /// Paper configuration: 60 worker threads per node.
    pub fn paper(nodes: u16) -> Self {
        ClusterSpec::new(nodes, 60, MpiMode::Dedicated)
    }

    #[inline]
    pub fn total_workers(&self) -> u32 {
        self.nodes as u32 * self.workers_per_node as u32
    }

    /// Does this topology run a separate MPI actor per node?
    #[inline]
    pub fn has_dedicated_mpi_actor(&self) -> bool {
        matches!(self.mpi_mode, MpiMode::Dedicated)
    }

    /// Dense global index of worker `(node, lane)`, which is also its
    /// actor id.
    #[inline]
    pub fn worker_index(&self, node: NodeId, lane: LaneId) -> u32 {
        node.0 as u32 * self.workers_per_node as u32 + lane.0 as u32
    }

    /// The worker with global index `index`: the inverse of
    /// [`Self::worker_index`].
    #[inline]
    pub fn worker(&self, index: u32) -> (NodeId, LaneId) {
        let wpn = self.workers_per_node as u32;
        (NodeId((index / wpn) as u16), LaneId((index % wpn) as u16))
    }

    /// Actor id of `node`'s dedicated MPI actor.
    #[inline]
    pub fn mpi_actor(&self, node: NodeId) -> ActorId {
        ActorId(self.total_workers() + node.0 as u32)
    }

    /// Post a wake notice ([`wake::notify_actor`]) for `node`'s dedicated
    /// MPI actor, if the run has one: state its pump reads changes, and the
    /// change is observable from `at` (`WallNs::ZERO`: at once). Workers
    /// that carry the pump in the inline modes never park, so they need
    /// none.
    #[inline]
    pub fn wake_mpi_actor(&self, node: NodeId, at: WallNs) {
        if self.has_dedicated_mpi_actor() {
            wake::notify_actor(self.mpi_actor(node), at);
        }
    }

    /// Node owning actor `actor`, a worker or a dedicated MPI actor.
    #[inline]
    pub fn actor_node(&self, actor: ActorId) -> NodeId {
        match actor.0.checked_sub(self.total_workers()) {
            None => self.worker(actor.0).0,
            Some(n) => NodeId(n as u16),
        }
    }
}

/// Every wall-clock cost of the modeled cluster, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    // -- compute ---------------------------------------------------------
    /// Nanoseconds per EPG unit ("approximately one FLOP" in the paper).
    pub epg_unit_ns: f64,
    /// Fixed engine overhead per processed event (queue pop, history push,
    /// state snapshot).
    pub event_overhead: WallNs,
    /// Cost of undoing one processed event during a rollback.
    pub rollback_per_event: WallNs,
    /// Cost of one idle poll (checking queues/flags and finding nothing).
    pub idle_poll: WallNs,
    /// Cost of fossil-collecting one committed event.
    pub fossil_per_event: WallNs,

    // -- messaging -------------------------------------------------------
    /// Enqueue into the sender's own pending set (local message).
    pub local_send: WallNs,
    /// Enqueue into another worker's shared-memory queue (lock + copy).
    pub regional_send: WallNs,
    /// Shared-memory propagation delay before a regional message can be
    /// observed by the destination worker.
    pub regional_latency: WallNs,
    /// Per-message dequeue-and-insert cost at the receiving worker.
    pub recv_handling: WallNs,
    /// Worker-side cost of posting a remote message to the node's MPI
    /// outbox.
    pub remote_post: WallNs,

    // -- MPI layer -------------------------------------------------------
    /// Cost of one MPI progress-engine poll (probe + queue scan), paid on
    /// every pump invocation whether or not traffic moved. This is what
    /// makes the inline-MPI baseline pay even on computation-dominated
    /// workloads (paper Figure 3).
    pub mpi_poll: WallNs,
    /// MPI-thread cost per outgoing message (mpich send path).
    pub mpi_send: WallNs,
    /// MPI-thread cost per incoming message (probe + recv + route).
    pub mpi_recv: WallNs,
    /// Hold time of the MPI library lock per call (paid on top of
    /// `mpi_send`/`mpi_recv` in `PerWorker` mode; the queueing delay behind
    /// the lock is what destroys threaded MPI).
    pub mpi_lock_hold: WallNs,
    /// One-way network latency (10 GbE + kernel stack + mpich rendezvous).
    pub wire_latency: WallNs,
    /// NIC serialization per message (bandwidth term; messages queue behind
    /// each other on the transmit side).
    pub wire_per_msg: WallNs,

    // -- synchronization -------------------------------------------------
    /// Overhead per pthread-barrier arrival within a node.
    pub node_barrier_arrival: WallNs,
    /// Completion latency of a cluster collective (MPI barrier/allreduce)
    /// after the last node arrives, per `ceil(log2(nodes))` stage.
    pub collective_stage: WallNs,
    /// Cost of CA-GVT's per-round efficiency computation (the paper reports
    /// this makes CA-GVT slightly slower than pure Mattern in
    /// computation-dominated runs).
    pub efficiency_check: WallNs,
    /// Small per-operation cost of asynchronous GVT bookkeeping (color
    /// transition, control-message accumulation, check-in).
    pub gvt_bookkeeping: WallNs,
}

impl CostModel {
    /// Calibrated preset for the paper's platform.
    pub fn knl_cluster() -> Self {
        CostModel {
            epg_unit_ns: 0.8, // ~1.3 GHz in-order-ish KNL core, 1 unit ~ 1 FLOP
            event_overhead: WallNs(900),
            rollback_per_event: WallNs(500),
            idle_poll: WallNs(150),
            fossil_per_event: WallNs(40),

            local_send: WallNs(60),
            regional_send: WallNs(400),
            regional_latency: WallNs(2_000),
            recv_handling: WallNs(200),
            remote_post: WallNs(250),

            mpi_poll: WallNs(3_000),
            mpi_send: WallNs(1_200),
            mpi_recv: WallNs(1_000),
            mpi_lock_hold: WallNs(900),
            wire_latency: WallNs(30_000),
            wire_per_msg: WallNs(550),

            node_barrier_arrival: WallNs(500),
            collective_stage: WallNs(3_500),
            efficiency_check: WallNs(2_500),
            gvt_bookkeeping: WallNs(300),
        }
    }

    /// Cost of processing one event with the given EPG (excluding engine
    /// overhead).
    #[inline]
    pub fn epg_cost(&self, epg_units: u64) -> WallNs {
        WallNs((epg_units as f64 * self.epg_unit_ns) as u64)
    }

    /// Completion latency of a cluster collective over `nodes` nodes.
    #[inline]
    pub fn collective_latency(&self, nodes: u16) -> WallNs {
        let stages = (nodes.max(1) as f64).log2().ceil().max(1.0) as u64;
        WallNs(self.collective_stage.0 * stages)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::knl_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_shape() {
        let spec = ClusterSpec::paper(8);
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.workers_per_node, 60);
        assert_eq!(spec.total_workers(), 480);
        assert!(spec.has_dedicated_mpi_actor());
    }

    #[test]
    fn actor_numbering_round_trips() {
        let spec = ClusterSpec::new(2, 4, MpiMode::Dedicated);
        assert_eq!(spec.worker_index(NodeId(1), LaneId(2)), 6);
        assert_eq!(spec.worker(6), (NodeId(1), LaneId(2)));
        for (actor, node) in [(0, 0), (3, 0), (4, 1), (7, 1)] {
            assert_eq!(spec.actor_node(ActorId(actor)), NodeId(node), "worker {actor}");
        }
        // MPI actors follow the eight workers, one per node.
        assert_eq!(spec.mpi_actor(NodeId(0)), ActorId(8));
        assert_eq!(spec.mpi_actor(NodeId(1)), ActorId(9));
        assert_eq!(spec.actor_node(ActorId(8)), NodeId(0));
        assert_eq!(spec.actor_node(ActorId(9)), NodeId(1));
    }

    #[test]
    fn inline_mode_has_no_dedicated_actor() {
        let spec = ClusterSpec::new(2, 4, MpiMode::InlineWorker);
        assert!(!spec.has_dedicated_mpi_actor());
        assert_eq!(spec.mpi_mode.label(), "inline");
    }

    #[test]
    #[should_panic]
    fn zero_nodes_rejected() {
        let _ = ClusterSpec::new(0, 4, MpiMode::Dedicated);
    }

    #[test]
    fn epg_cost_scales_linearly() {
        let cm = CostModel::knl_cluster();
        let c10k = cm.epg_cost(10_000);
        let c40k = cm.epg_cost(40_000);
        assert_eq!(c40k.0, 4 * c10k.0);
        // 10K EPG should be in the microseconds range, as on KNL.
        assert!(c10k.0 > 1_000 && c10k.0 < 100_000);
    }

    #[test]
    fn collective_latency_grows_logarithmically() {
        let cm = CostModel::knl_cluster();
        let l1 = cm.collective_latency(1);
        let l2 = cm.collective_latency(2);
        let l8 = cm.collective_latency(8);
        assert_eq!(l1, l2, "1 and 2 nodes are both a single stage");
        assert_eq!(l8.0, 3 * l2.0);
    }
}
