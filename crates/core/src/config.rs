//! Run configuration.

use cagvt_base::ids::{LaneId, LpId, NodeId};
use cagvt_base::time::VirtualTime;
use cagvt_net::{ClusterSpec, CostModel};

use crate::lp::RollbackStrategy;

/// Everything that defines one simulation run apart from the model and the
/// GVT algorithm.
///
/// It also places the LPs: they are dense and block-partitioned,
/// node-major then lane-major, `lps_per_worker` to a worker
/// ([`Self::locate`], [`Self::first_lp`]).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    pub spec: ClusterSpec,
    pub cost: CostModel,
    /// LPs statically assigned to each worker (the paper uses 128 per
    /// hardware thread).
    pub lps_per_worker: u32,
    /// Virtual end time; events at or beyond are never processed.
    pub end_time: f64,
    /// GVT interval, counted in events processed per worker since the last
    /// round (as in ROSS and the paper).
    pub gvt_interval: u64,
    /// Optimism throttle: a worker stops processing (but keeps
    /// communicating and participating in GVT) once it holds this many
    /// uncommitted processed events. Plays the role of ROSS's bounded
    /// event-memory pool. Liveness: the throttle never holds back a
    /// pending event at or below the published GVT (no rollback can reach
    /// it, and GVT cannot advance past it while it waits), so only events
    /// at the GVT instant can exceed the cap.
    pub max_outstanding: usize,
    /// Master seed; per-LP streams derive from it.
    pub seed: u64,
    /// Minimum wall time between round requests from a worker that cannot
    /// make progress (throttled or out of sub-horizon events). Unpaced
    /// idle requests convoy the cluster at the end of a run: each
    /// synchronous round blocks the still-busy workers, which staggers
    /// completion further and triggers yet more rounds.
    pub idle_request_backoff: cagvt_base::WallNs,
    /// How LPs undo processed events. `None` picks
    /// [`RollbackStrategy::Reverse`] for models that implement reverse
    /// computation and [`RollbackStrategy::Snapshot`] otherwise; `Some`
    /// forces one of the two (ablation knob: state saving on a model that
    /// could reverse).
    pub rollback: Option<RollbackStrategy>,
}

impl SimConfig {
    /// A small, fast configuration for tests and examples.
    pub fn small(nodes: u16, workers: u16) -> Self {
        SimConfig {
            spec: ClusterSpec::new(nodes, workers, cagvt_net::MpiMode::Dedicated),
            cost: CostModel::knl_cluster(),
            lps_per_worker: 8,
            end_time: 60.0,
            gvt_interval: 25,
            max_outstanding: 512,
            seed: 0xC0FFEE,
            idle_request_backoff: cagvt_base::WallNs(400_000),
            rollback: None,
        }
    }

    /// The paper's configuration shape: 60 workers and 128 LPs per worker
    /// per node (scaled runs change `spec.nodes`).
    pub fn paper(nodes: u16) -> Self {
        SimConfig {
            spec: ClusterSpec::paper(nodes),
            cost: CostModel::knl_cluster(),
            lps_per_worker: 128,
            end_time: 200.0,
            gvt_interval: 25,
            max_outstanding: 512,
            seed: 0x1CC_2019,
            idle_request_backoff: cagvt_base::WallNs(400_000),
            rollback: None,
        }
    }

    /// The rollback strategy this configuration selects for `model`.
    ///
    /// # Panics
    ///
    /// If reverse computation is forced on a model without
    /// [`Model::reverse`](crate::model::Model::reverse).
    pub fn rollback_strategy(&self, model_supports_reverse: bool) -> RollbackStrategy {
        match self.rollback {
            Some(RollbackStrategy::Reverse) => {
                assert!(model_supports_reverse, "reverse rollback needs a model with `reverse`");
                RollbackStrategy::Reverse
            }
            Some(strategy) => strategy,
            None if model_supports_reverse => RollbackStrategy::Reverse,
            None => RollbackStrategy::Snapshot,
        }
    }

    #[inline]
    pub fn total_lps(&self) -> u32 {
        self.spec.total_workers() * self.lps_per_worker
    }

    #[inline]
    pub fn lps_per_node(&self) -> u32 {
        self.spec.workers_per_node as u32 * self.lps_per_worker
    }

    /// The worker owning `lp`.
    #[inline]
    pub fn locate(&self, lp: LpId) -> (NodeId, LaneId) {
        let per_node = self.lps_per_node();
        let node = lp.0 / per_node;
        let lane = (lp.0 % per_node) / self.lps_per_worker;
        (NodeId(node as u16), LaneId(lane as u16))
    }

    /// First LP owned by `(node, lane)`.
    #[inline]
    pub fn first_lp(&self, node: NodeId, lane: LaneId) -> LpId {
        LpId(node.0 as u32 * self.lps_per_node() + lane.0 as u32 * self.lps_per_worker)
    }

    #[inline]
    pub fn end_vt(&self) -> VirtualTime {
        VirtualTime::new(self.end_time)
    }

    /// Validate internal consistency; called by the builder.
    pub fn validate(&self) {
        assert!(self.lps_per_worker >= 1, "need at least one LP per worker");
        assert!(self.end_time > 0.0, "end time must be positive");
        assert!(self.gvt_interval >= 1, "GVT interval must be >= 1");
        assert!(
            self.max_outstanding >= self.gvt_interval as usize,
            "throttle below the GVT interval would deadlock rounds"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_multiply_out() {
        let cfg = SimConfig::paper(8);
        assert_eq!(cfg.total_lps(), 8 * 60 * 128);
        assert_eq!(cfg.lps_per_node(), 60 * 128);
        assert_eq!(cfg.end_vt(), VirtualTime::new(200.0));
        cfg.validate();
    }

    #[test]
    fn lp_placement_is_block_partitioned() {
        let mut cfg = SimConfig::small(2, 3);
        cfg.lps_per_worker = 4; // 2 nodes x 3 workers x 4 LPs
        assert_eq!(cfg.locate(LpId(0)), (NodeId(0), LaneId(0)));
        assert_eq!(cfg.locate(LpId(3)), (NodeId(0), LaneId(0)));
        assert_eq!(cfg.locate(LpId(4)), (NodeId(0), LaneId(1)));
        assert_eq!(cfg.locate(LpId(11)), (NodeId(0), LaneId(2)));
        assert_eq!(cfg.locate(LpId(12)), (NodeId(1), LaneId(0)));
        assert_eq!(cfg.locate(LpId(23)), (NodeId(1), LaneId(2)));
        for node in 0..2 {
            for lane in 0..3 {
                let first = cfg.first_lp(NodeId(node), LaneId(lane));
                assert_eq!(cfg.locate(first), (NodeId(node), LaneId(lane)));
                assert_eq!(first.0 % cfg.lps_per_worker, 0);
            }
        }
    }

    #[test]
    fn rollback_defaults_to_reverse_when_the_model_has_it() {
        let mut cfg = SimConfig::small(1, 1);
        assert_eq!(cfg.rollback_strategy(true), RollbackStrategy::Reverse);
        assert_eq!(cfg.rollback_strategy(false), RollbackStrategy::Snapshot);
        cfg.rollback = Some(RollbackStrategy::Snapshot);
        assert_eq!(cfg.rollback_strategy(true), RollbackStrategy::Snapshot);
        assert_eq!(cfg.rollback_strategy(false), RollbackStrategy::Snapshot);
    }

    #[test]
    #[should_panic(expected = "reverse rollback needs a model with `reverse`")]
    fn forced_reverse_needs_a_reverse_model() {
        let mut cfg = SimConfig::small(1, 1);
        cfg.rollback = Some(RollbackStrategy::Reverse);
        cfg.rollback_strategy(false);
    }

    #[test]
    #[should_panic]
    fn throttle_below_interval_is_rejected() {
        let mut cfg = SimConfig::small(1, 2);
        cfg.max_outstanding = 10;
        cfg.gvt_interval = 50;
        cfg.validate();
    }
}
