//! Controlled Asynchronous GVT (paper Algorithm 3, Figure 7).
//!
//! CA-GVT *is* Mattern's algorithm (see [`crate::mattern`]) plus three
//! conditional synchronization points driven by observed efficiency:
//!
//! 1. a two-level barrier before the white→red transition (Algorithm 3
//!    line 4), aligning the cut across all LPs;
//! 2. a barrier after the white count drains, before LVT/min-red check-in
//!    (line 14);
//! 3. a barrier at round completion (line 30; the paper places it after
//!    fossil collection — here it is taken immediately before the engine
//!    fossil collects, which synchronizes the identical instant of the
//!    round and keeps the fossil pass outside the algorithm).
//!
//! After each round the initiator computes the efficiency (committed over
//! committed-plus-rolled-back) over the window since the previous round —
//! the paper uses the cumulative ratio, which barely moves at this
//! harness's horizons (see EXPERIMENTS.md) — and arms the barriers for the
//! next round when it falls below the threshold, or (with the extended
//! trigger) when any node's outbound MPI queue is deep. The barriers align
//! the phase *transitions* (paper Figure 7); event processing continues
//! between them, so a synchronous round bounds virtual-time disparity by
//! re-aligning all LPs three times per round. In asynchronous rounds the
//! algorithm is indistinguishable from Mattern apart from the per-round
//! efficiency computation (the overhead the paper measures as CA-GVT's
//! small computation-dominated penalty).

use cagvt_base::ids::{LaneId, NodeId};
use cagvt_core::gvt::{GvtBundle, GvtSharedCore, MpiGvt, WorkerGvt};
use cagvt_net::{ClusterSpec, CostModel, CtrlPlane};
use std::sync::atomic::{AtomicBool, AtomicU8};
use std::sync::Arc;

use crate::common::TwoLevelReduce;
use crate::mattern::{CaExtra, MatternBundle, MatternShared};

/// Bundle for CA-GVT.
pub struct CaGvtBundle {
    inner: MatternBundle,
}

impl CaGvtBundle {
    /// CA-GVT synchronizing when efficiency falls below `threshold`. With
    /// `queue_threshold`, also the extended trigger from the paper's
    /// conclusion: synchronize when a node's outbound MPI queue exceeds
    /// that many messages.
    pub fn new(
        core: Arc<GvtSharedCore>,
        ctrl: Arc<CtrlPlane>,
        spec: ClusterSpec,
        cost: CostModel,
        threshold: f64,
        queue_threshold: Option<u64>,
    ) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold is a ratio, got {threshold}");
        let ca = CaExtra {
            barrier: TwoLevelReduce::new(spec.nodes, spec.workers_per_node),
            sync_flag: AtomicBool::new(false),
            armed_cause: AtomicU8::new(0),
            threshold,
            queue_threshold,
        };
        let shared = Arc::new(MatternShared::new(core, ctrl, spec, cost, Some(ca)));
        CaGvtBundle { inner: MatternBundle::with_shared(shared) }
    }
}

impl GvtBundle for CaGvtBundle {
    fn name(&self) -> &'static str {
        "ca-gvt"
    }

    fn worker_gvt(&self, node: NodeId, lane: LaneId, worker_index: u32) -> Box<dyn WorkerGvt> {
        self.inner.worker_gvt(node, lane, worker_index)
    }

    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        self.inner.mpi_gvt(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_core::stats::SharedStats;
    use cagvt_net::fabric_pair;

    fn parts(nodes: u16, wpn: u16) -> (Arc<GvtSharedCore>, Arc<CtrlPlane>, ClusterSpec) {
        let stats = Arc::new(SharedStats::new((nodes * wpn) as u32));
        let core = Arc::new(GvtSharedCore::new(stats, nodes, wpn, None, None));
        let (_fabric, ctrl) = fabric_pair::<()>(nodes, None, None);
        (core, ctrl, ClusterSpec::new(nodes, wpn, cagvt_net::MpiMode::Dedicated))
    }

    #[test]
    fn bundle_reports_its_name() {
        let (core, ctrl, spec) = parts(1, 2);
        let b = CaGvtBundle::new(core, ctrl, spec, CostModel::knl_cluster(), 0.8, None);
        assert_eq!(b.name(), "ca-gvt");
    }

    #[test]
    #[should_panic]
    fn threshold_must_be_a_ratio() {
        let (core, ctrl, spec) = parts(1, 1);
        let _ = CaGvtBundle::new(core, ctrl, spec, CostModel::knl_cluster(), 1.5, None);
    }

    #[test]
    fn queue_threshold_variant_constructs() {
        let (core, ctrl, spec) = parts(2, 2);
        let b = CaGvtBundle::new(core, ctrl, spec, CostModel::knl_cluster(), 0.8, Some(100));
        assert_eq!(b.name(), "ca-gvt");
        // Both halves construct for every node/lane.
        let _w = b.worker_gvt(cagvt_base::NodeId(1), cagvt_base::LaneId(1), 3);
        let _m = b.mpi_gvt(cagvt_base::NodeId(0));
    }

    #[test]
    fn queue_depth_feeds_the_shared_core() {
        let (core, _ctrl, _spec) = parts(2, 1);
        assert_eq!(core.max_mpi_queue_depth(), 0);
        core.mpi_queue_depth[1].store(42, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(core.max_mpi_queue_depth(), 42);
    }
}
