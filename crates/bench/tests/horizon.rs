//! The two observers of a GVT round's virtual-time horizon — the run
//! report's disparity and width averages and the per-epoch metrics — read
//! one snapshot per round and reduce it with one definition, so they must
//! agree.

use cagvt_base::MetricsSink;
use cagvt_bench::{base_config, run_one_observed, Scale};
use cagvt_gvt::GvtKind;
use cagvt_metrics::MetricsRegistry;
use cagvt_models::presets::comm_dominated;
use cagvt_net::MpiMode;
use std::sync::Arc;

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    sum / n as f64
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{what}: {a} vs {b}");
}

#[test]
fn report_and_metrics_see_the_same_horizon() {
    let cfg = base_config(4, MpiMode::Dedicated, 25, &Scale::bench());
    let workload = comm_dominated(&cfg);
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = Some(registry.clone() as Arc<dyn MetricsSink>);
    let report = run_one_observed(GvtKind::Mattern, &workload, cfg, None, None, metrics);
    report.check_conservation(cfg.end_vt());

    // Every round reaches the epochs here only because worker 0 completes
    // the final round first in this run (ROADMAP: the final-round snapshot).
    let epochs = registry.epochs();
    assert_eq!(epochs.len() as u64, report.gvt_rounds, "one epoch per published round");
    assert!(epochs.len() >= 2, "need several rounds: {}", epochs.len());

    // The report averages one sample per round over every round.
    assert_close(report.horizon_width, mean(epochs.iter().map(|e| e.horizon_width)), "width");
    assert_close(
        report.lvt_disparity,
        mean(epochs.iter().map(|e| e.horizon_roughness)),
        "disparity",
    );
}
