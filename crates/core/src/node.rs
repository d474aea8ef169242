//! Shared state: per-node wiring and the cluster-wide engine handle.

use cagvt_base::ids::{LaneId, LpId, NodeId};
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

impl<M: Model> EngineShared<M> {
    /// Static LP placement: LPs are dense, block-partitioned node-major
    /// then lane-major.
    #[inline]
    pub fn locate(&self, lp: LpId) -> (NodeId, LaneId) {
        let per_node = self.cfg.lps_per_node();
        let per_worker = self.cfg.lps_per_worker;
        let node = lp.0 / per_node;
        let lane = (lp.0 % per_node) / per_worker;
        (NodeId(node as u16), LaneId(lane as u16))
    }

    /// First LP owned by `(node, lane)`.
    #[inline]
    pub fn first_lp(&self, node: NodeId, lane: LaneId) -> LpId {
        LpId(node.0 as u32 * self.cfg.lps_per_node() + lane.0 as u32 * self.cfg.lps_per_worker)
    }

    /// Dense global worker index of `(node, lane)`.
    #[inline]
    pub fn worker_index(&self, node: NodeId, lane: LaneId) -> u32 {
        node.0 as u32 * self.cfg.spec.workers_per_node as u32 + lane.0 as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_shared;
    use crate::model::{Emitter, EventCtx};
    use cagvt_base::rng::Pcg32;

    /// Minimal model for wiring tests.
    struct Noop;
    impl Model for Noop {
        type State = ();
        type Payload = ();
        fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) {}
        fn initial_events(&self, _lp: LpId, _s: &mut (), _rng: &mut Pcg32, _e: &mut Emitter<()>) {}
        fn handle(
            &self,
            _c: &EventCtx,
            _s: &mut (),
            _p: &(),
            _r: &mut Pcg32,
            _e: &mut Emitter<()>,
        ) -> u64 {
            0
        }
    }

    fn shared(nodes: u16, workers: u16, lps_per_worker: u32) -> Arc<EngineShared<Noop>> {
        let mut cfg = SimConfig::small(nodes, workers);
        cfg.lps_per_worker = lps_per_worker;
        build_shared(Arc::new(Noop), cfg)
    }

    #[test]
    fn lp_placement_is_block_partitioned() {
        let s = shared(2, 3, 4); // 2 nodes x 3 workers x 4 LPs
        assert_eq!(s.locate(LpId(0)), (NodeId(0), LaneId(0)));
        assert_eq!(s.locate(LpId(3)), (NodeId(0), LaneId(0)));
        assert_eq!(s.locate(LpId(4)), (NodeId(0), LaneId(1)));
        assert_eq!(s.locate(LpId(11)), (NodeId(0), LaneId(2)));
        assert_eq!(s.locate(LpId(12)), (NodeId(1), LaneId(0)));
        assert_eq!(s.locate(LpId(23)), (NodeId(1), LaneId(2)));
    }

    #[test]
    fn first_lp_and_worker_index_invert_locate() {
        let s = shared(2, 3, 4);
        for node in 0..2u16 {
            for lane in 0..3u16 {
                let first = s.first_lp(NodeId(node), LaneId(lane));
                assert_eq!(s.locate(first), (NodeId(node), LaneId(lane)));
                let widx = s.worker_index(NodeId(node), LaneId(lane));
                assert_eq!(widx, node as u32 * 3 + lane as u32);
            }
        }
    }
}
