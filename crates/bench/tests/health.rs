//! Bench-scale integration test of the metrics/health pipeline: the
//! `figures health` experiment must write an epoch CSV for every series,
//! fire the straggler rule under the node-straggle plan, and stay
//! straggler-quiet on the clean arms.

use cagvt_bench::{health_experiment, Row, Scale};
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("cagvt-health-it-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn health_experiment_detects_the_straggling_node_and_exports_telemetry() {
    let dir = scratch_dir();
    let rows = health_experiment(&Scale::bench(), Some(&dir));
    assert_eq!(rows.len(), 6, "three algorithms x clean/straggle");

    let straggler_alerts =
        |row: &Row| row.report.health.iter().filter(|a| a.starts_with("straggler:")).count();
    let mut straggle_hits = 0;
    for row in &rows {
        let clean = row.series.ends_with("-clean");
        if clean {
            assert_eq!(
                straggler_alerts(row),
                0,
                "clean series {} must be straggler-quiet: {:?}",
                row.series,
                row.report.health,
            );
        } else {
            let hits = straggler_alerts(row);
            straggle_hits += hits;
            if hits > 0 {
                // Alerts carry the fault signature and land in the CSV count.
                assert!(
                    row.report.health.iter().any(|a| a.contains("fault plan active")),
                    "straggle alerts must carry the fault signature: {:?}",
                    row.report.health,
                );
                assert!(row.csv().ends_with(&format!(",{}", row.report.health.len())));
            }
        }

        // Per-series telemetry: an epoch CSV with the stable header and at
        // least one epoch row.
        let csv = std::fs::read_to_string(dir.join(format!("metrics-{}.csv", row.series))).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(cagvt_metrics::epoch_csv_header()));
        assert!(lines.count() > 0, "series {} recorded no epochs", row.series);
    }
    assert!(
        straggle_hits > 0,
        "at least one straggled series must trip the straggler rule: {:?}",
        rows.iter().map(|r| (&r.series, &r.report.health)).collect::<Vec<_>>(),
    );

    // The CA-GVT arms carry controller decisions in their epoch streams:
    // under the straggle plan the comm workload degrades and at least one
    // round goes synchronous, visible as mode=sync in the epoch CSV.
    let ca = std::fs::read_to_string(dir.join("metrics-ca-gvt-straggle.csv")).unwrap();
    assert!(ca.lines().skip(1).any(|l| l.contains(",sync,A+B+C,")), "no sync epoch in:\n{ca}");

    std::fs::remove_dir_all(&dir).ok();
}
