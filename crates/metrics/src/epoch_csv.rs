//! Tidy CSV formatting for [`MetricsEpoch`] records.
//!
//! One row per published GVT round. The per-worker lags are summarized
//! (finite count, horizon width and roughness, mean lag) so the CSV stays
//! schema-stable across cluster shapes and loads directly into notebook
//! tooling.

use cagvt_base::metrics::{EpochMode, MetricsEpoch};

/// Header matching [`epoch_csv_row`].
pub fn epoch_csv_header() -> &'static str {
    "round,t_ns,gvt,committed_delta,processed_delta,rolled_back_delta,rollbacks_delta,\
     antis_sent_delta,annihilated_delta,msgs_sent_delta,msgs_received_delta,\
     efficiency_window,efficiency_cum,finite_workers,horizon_width,horizon_roughness,\
     mean_lag,mpi_queue_max,mode,barriers,cause"
}

/// One CSV row (no trailing newline). The `barriers` column names the
/// conditional barriers the round passed through: all three for a
/// synchronous round, none (`-`) otherwise.
pub fn epoch_csv_row(e: &MetricsEpoch) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{},{:.6},{:.6},{:.6},{},{},{},{}",
        e.round,
        e.t.0,
        e.gvt,
        e.committed_delta,
        e.processed_delta,
        e.rolled_back_delta,
        e.rollbacks_delta,
        e.antis_sent_delta,
        e.annihilated_delta,
        e.msgs_sent_delta,
        e.msgs_received_delta,
        e.efficiency_window,
        e.efficiency_cum,
        e.finite_workers(),
        e.horizon_width,
        e.horizon_roughness,
        e.mean_lag,
        e.mpi_queue_max,
        e.mode.label(),
        if e.mode == EpochMode::Sync { "A+B+C" } else { "-" },
        e.cause.label(),
    )
}

/// The whole series as one CSV document: header, then one row per epoch.
pub fn epoch_csv(epochs: &[MetricsEpoch]) -> String {
    let mut out = format!("{}\n", epoch_csv_header());
    for e in epochs {
        out.push_str(&epoch_csv_row(e));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::metrics::SyncCause;
    use cagvt_base::WallNs;

    fn epoch() -> MetricsEpoch {
        MetricsEpoch {
            round: 3,
            t: WallNs(1_000),
            gvt: 12.5,
            committed_delta: 40,
            processed_delta: 100,
            rolled_back_delta: 60,
            rollbacks_delta: 7,
            antis_sent_delta: 5,
            annihilated_delta: 2,
            msgs_sent_delta: 30,
            msgs_received_delta: 28,
            efficiency_window: 0.4,
            efficiency_cum: 0.8,
            worker_lag: vec![0.5, f64::NAN, 2.0],
            horizon_width: 1.5,
            horizon_roughness: 0.75,
            mean_lag: 1.25,
            mpi_queue_max: 3,
            mode: EpochMode::Sync,
            cause: SyncCause::Efficiency,
        }
    }

    #[test]
    fn header_and_row_column_counts_match() {
        let header_cols = epoch_csv_header().split(',').count();
        let row_cols = epoch_csv_row(&epoch()).split(',').count();
        assert_eq!(header_cols, row_cols);
    }

    #[test]
    fn row_carries_mode_barriers_and_cause_labels() {
        let row = epoch_csv_row(&epoch());
        assert!(row.ends_with(",3,sync,A+B+C,efficiency"), "row: {row}");
        assert!(row.starts_with("3,1000,12.5,40,100,60,"), "row: {row}");
    }

    #[test]
    fn only_sync_rounds_pass_the_barriers() {
        for (mode, tail) in [
            (EpochMode::Sync, ",sync,A+B+C,none"),
            (EpochMode::Async, ",async,-,none"),
            (EpochMode::Uncontrolled, ",uncontrolled,-,none"),
        ] {
            let row = epoch_csv_row(&MetricsEpoch { mode, ..MetricsEpoch::default() });
            assert!(row.ends_with(tail), "{mode:?} row: {row}");
        }
    }

    #[test]
    fn document_is_header_then_one_row_per_epoch() {
        let second = MetricsEpoch { round: 4, ..epoch() };
        let doc = epoch_csv(&[epoch(), second.clone()]);
        let lines: Vec<_> = doc.lines().collect();
        assert_eq!(lines, [epoch_csv_header(), &epoch_csv_row(&epoch()), &epoch_csv_row(&second)]);
        assert!(doc.ends_with('\n'));
    }
}
