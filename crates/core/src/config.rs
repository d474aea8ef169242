//! Run configuration.

use cagvt_base::time::VirtualTime;
use cagvt_net::{ClusterSpec, CostModel};

/// Everything that defines one simulation run apart from the model and the
/// GVT algorithm.
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
    /// event-memory pool.
    pub max_outstanding: usize,
    /// Master seed; per-LP streams derive from it.
    pub seed: u64,
    /// Minimum wall time between round requests from a worker that cannot
    /// make progress (throttled or out of sub-horizon events). Unpaced
    /// idle requests convoy the cluster at the end of a run: each
    /// synchronous round blocks the still-busy workers, which staggers
    /// completion further and triggers yet more rounds.
    pub idle_request_backoff: cagvt_base::WallNs,
    /// Use state snapshots even for models that implement reverse
    /// computation (ablation knob).
    pub force_snapshot: bool,
    /// Use periodic state saving with this snapshot period instead of the
    /// automatic per-event strategy (works with every model; overrides
    /// `force_snapshot`).
    pub periodic_snapshot: Option<u32>,
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
            force_snapshot: false,
            periodic_snapshot: None,
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
            force_snapshot: false,
            periodic_snapshot: None,
        }
    }

    /// The rollback strategy this configuration selects for `model`.
    pub fn rollback_strategy(&self, model_supports_reverse: bool) -> crate::lp::RollbackStrategy {
        use crate::lp::RollbackStrategy::*;
        match self.periodic_snapshot {
            Some(k) => PeriodicSnapshot(k),
            None if model_supports_reverse && !self.force_snapshot => Reverse,
            None => Snapshot,
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
    #[should_panic]
    fn throttle_below_interval_is_rejected() {
        let mut cfg = SimConfig::small(1, 2);
        cfg.max_outstanding = 10;
        cfg.gvt_interval = 50;
        cfg.validate();
    }
}
