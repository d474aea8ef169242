//! Shared state: per-node wiring and the cluster-wide engine handle.

use cagvt_base::ids::NodeId;
use cagvt_base::time::WallNs;
use cagvt_net::{CtrlPlane, Mailbox, MpiFabric, MpiMode, VirtualMutex};
use std::sync::Arc;

use crate::config::SimConfig;
use crate::event::{RemoteEnv, TaggedMsg};
use crate::gvt::GvtSharedCore;
use crate::model::Model;
use crate::stats::SharedStats;

/// Per-node shared structures.
pub struct NodeShared<P> {
    pub node: NodeId,
    /// One inbound queue per worker lane; carries regional messages from
    /// peers on the same node and remote messages routed by the MPI pump.
    pub lane_queues: Vec<Mailbox<TaggedMsg<P>>>,
    /// Outbound remote messages awaiting the MPI pump.
    pub outbox: Mailbox<RemoteEnv<P>>,
    /// The node's MPI library lock (contended in `PerWorker` mode).
    pub mpi_lock: VirtualMutex,
}

impl<P> NodeShared<P> {
    pub fn new(node: NodeId, workers: u16) -> Self {
        NodeShared {
            node,
            lane_queues: (0..workers).map(|_| Mailbox::new()).collect(),
            outbox: Mailbox::new(),
            mpi_lock: VirtualMutex::new(),
        }
    }

    /// Charge for one MPI library call of base cost `base` at `now`
    /// (already including accrued charge): in `PerWorker` mode the caller
    /// takes the node's library lock and holds it for `base` plus
    /// `mpi_lock_hold`; otherwise the call costs `base`.
    pub fn mpi_call(&self, cfg: &SimConfig, now: WallNs, base: WallNs) -> WallNs {
        if cfg.spec.mpi_mode == MpiMode::PerWorker {
            self.mpi_lock.acquire(now, base + cfg.cost.mpi_lock_hold)
        } else {
            base
        }
    }
}

/// Cluster-wide engine handle: everything workers and MPI pumps share.
pub struct EngineShared<M: Model> {
    pub cfg: SimConfig,
    pub model: Arc<M>,
    pub fabric: Arc<MpiFabric<RemoteEnv<M::Payload>>>,
    pub ctrl: Arc<CtrlPlane>,
    pub nodes: Vec<Arc<NodeShared<M::Payload>>>,
    pub gvt_core: Arc<GvtSharedCore>,
    pub stats: Arc<SharedStats>,
    /// Fault injector shared with the fabric and scheduler; consulted by
    /// the MPI pumps for stall windows and folded into the run report.
    pub faults: Option<Arc<dyn cagvt_base::fault::FaultInjector>>,
}
