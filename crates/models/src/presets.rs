//! The paper's workload parameterizations (§4, §6).
//!
//! * **COMP** (computation-dominated): 10% regional, 1% remote, 10K EPG.
//! * **COMM** (communication-dominated): 90% regional, 10% remote, 5K EPG.
//! * **Mixed `X-Y`**: first `X`% of the run COMP, next `Y`% COMM,
//!   repeating (paper evaluates 10-15, 15-10 and 5-5).

use cagvt_core::SimConfig;

use crate::phold::{PhaseSchedule, PholdModel, PholdParams};

/// The paper's computation-dominated parameter set.
pub const COMP_PARAMS: PholdParams =
    PholdParams { regional_pct: 0.10, remote_pct: 0.01, epg: 10_000 };

/// The paper's communication-dominated parameter set.
pub const COMM_PARAMS: PholdParams =
    PholdParams { regional_pct: 0.90, remote_pct: 0.10, epg: 5_000 };

/// A named workload: the PHOLD model of one paper parameter set.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub model: PholdModel,
}

/// COMP workload for a given run configuration.
pub fn comp_dominated(cfg: &SimConfig) -> Workload {
    Workload {
        name: "comp".to_string(),
        model: PholdModel::new(cfg, PhaseSchedule::constant(COMP_PARAMS)),
    }
}

/// COMM workload for a given run configuration.
pub fn comm_dominated(cfg: &SimConfig) -> Workload {
    Workload {
        name: "comm".to_string(),
        model: PholdModel::new(cfg, PhaseSchedule::constant(COMM_PARAMS)),
    }
}

/// Mixed `X-Y` workload (paper §6): `x` parts COMP then `y` parts COMM,
/// repeating twice over the run (see
/// [`PhaseSchedule::alternating_cycles`] for why the cycle count is fixed
/// rather than the paper's literal percent-of-runtime cycle).
pub fn mixed_model(cfg: &SimConfig, x: f64, y: f64) -> Workload {
    Workload {
        name: format!("mixed-{:.0}-{:.0}", x, y),
        model: PholdModel::new(
            cfg,
            PhaseSchedule::alternating_cycles(x, COMP_PARAMS, y, COMM_PARAMS, 2),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameter_sets() {
        assert_eq!(COMP_PARAMS.regional_pct, 0.10);
        assert_eq!(COMP_PARAMS.remote_pct, 0.01);
        assert_eq!(COMP_PARAMS.epg, 10_000);
        assert_eq!(COMM_PARAMS.regional_pct, 0.90);
        assert_eq!(COMM_PARAMS.remote_pct, 0.10);
        assert_eq!(COMM_PARAMS.epg, 5_000);
    }

    #[test]
    fn workloads_inherit_topology_from_config() {
        let cfg = SimConfig::small(2, 3);
        let w = comp_dominated(&cfg);
        assert_eq!(w.model.cfg.spec.nodes, 2);
        assert_eq!(w.model.cfg.spec.workers_per_node, 3);
        assert_eq!(w.model.cfg.lps_per_worker, cfg.lps_per_worker);
    }

    #[test]
    fn mixed_schedule_spends_the_right_fractions() {
        let cfg = SimConfig::small(1, 2);
        let w = mixed_model(&cfg, 10.0, 15.0);
        assert_eq!(w.name, "mixed-10-15");
        let mut comp = 0;
        let total = 10_000;
        for i in 0..total {
            if w.model.schedule.at(i as f64 / total as f64) == COMP_PARAMS {
                comp += 1;
            }
        }
        let frac = comp as f64 / total as f64;
        assert!((frac - 0.4).abs() < 0.01, "10/(10+15) = 0.4, got {frac}");
    }
}
