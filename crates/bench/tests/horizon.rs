//! The three observers of a GVT round's virtual-time horizon — the run
//! report's disparity and width averages, the per-epoch metrics and the
//! trace horizon series — read one snapshot per round and reduce it with
//! one definition, so they must agree round for round.

use cagvt_base::{MetricsSink, TraceSink};
use cagvt_bench::{base_config, run_one_observed, Scale};
use cagvt_gvt::GvtKind;
use cagvt_metrics::MetricsRegistry;
use cagvt_models::presets::comm_dominated;
use cagvt_net::MpiMode;
use cagvt_trace::{HorizonStats, TraceRecorder};
use std::sync::Arc;

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    sum / n as f64
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{what}: {a} vs {b}");
}

#[test]
fn report_metrics_and_trace_see_the_same_horizon() {
    let cfg = base_config(4, MpiMode::Dedicated, 25, &Scale::bench());
    let workload = comm_dominated(&cfg);
    let recorder = TraceRecorder::new();
    let registry = Arc::new(MetricsRegistry::new());
    let trace = Some(recorder.clone() as Arc<dyn TraceSink>);
    let metrics = Some(registry.clone() as Arc<dyn MetricsSink>);
    let report = run_one_observed(GvtKind::Mattern, &workload, cfg, None, trace, metrics);
    report.check_conservation(cfg.end_vt());
    assert_eq!(recorder.dropped(), 0, "a dropped record could hide a horizon round");

    let horizon = HorizonStats::compute(&recorder.snapshot());
    let epochs = registry.epochs();
    assert_eq!(epochs.len() as u64, report.gvt_rounds, "one epoch per published round");
    assert!(horizon.rounds.len() >= 2, "need several rounds: {}", horizon.rounds.len());

    for r in &horizon.rounds {
        let e = epochs.iter().find(|e| e.round == r.round).expect("metrics saw the round");
        assert_eq!(e.horizon_width, r.width, "round {} width", r.round);
        assert_eq!(e.horizon_roughness, r.roughness, "round {} roughness", r.round);
        assert_eq!(e.finite_workers(), r.samples as usize, "round {} finite samples", r.round);
        assert_close(e.mean_lag, r.mean_lvt - r.gvt, "mean lag");
    }

    // The report averages one sample per round over every round.
    assert_close(report.horizon_width, mean(epochs.iter().map(|e| e.horizon_width)), "width");
    assert_close(
        report.lvt_disparity,
        mean(epochs.iter().map(|e| e.horizon_roughness)),
        "disparity",
    );
}
