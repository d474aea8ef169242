//! Domain example: a closed queueing network (tandem rows of FCFS
//! stations with probabilistic switching) — Fujimoto's classic CQN
//! benchmark — run optimistically and verified against the sequential
//! reference.
//!
//! ```text
//! cargo run --release --example queueing_network
//! ```

use cagvt::prelude::*;
use std::sync::Arc;

fn main() {
    let mut cfg = SimConfig::small(2, 4);
    cfg.lps_per_worker = 8; // 64 stations
    cfg.end_time = 60.0;

    let model = CqnModel {
        row_length: 4,
        jobs_per_row: 12,
        mean_service: 1.0,
        switch_prob: 0.3,
        epg: 6_000,
    };
    let rows = cfg.total_lps() / model.row_length;
    println!(
        "CQN: {} stations in {} rows, {} jobs circulating\n",
        cfg.total_lps(),
        rows,
        rows * model.jobs_per_row
    );

    for kind in [GvtKind::Mattern, GvtKind::Barrier, GvtKind::CA_DEFAULT, GvtKind::Samadi] {
        let report = run_virtual(Arc::new(model), cfg, |shared| make_bundle(kind, shared));
        println!(
            "{:<8} steady {:>10.0} ev/s   efficiency {:>6.2}%   rollbacks {:>5}   gvt rounds {:>3}",
            report.algorithm,
            report.steady_rate,
            report.efficiency * 100.0,
            report.workers.rollbacks,
            report.gvt_rounds
        );
    }

    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    println!(
        "\nsequential reference: {} events (all runs above committed exactly this many)",
        seq.processed
    );
}
