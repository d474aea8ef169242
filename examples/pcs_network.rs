//! Domain example: a PCS cellular network (call arrivals, completions,
//! handoffs between neighbouring cells) — a communication-heavy workload
//! where the synchronous and adaptive GVT algorithms shine.
//!
//! ```text
//! cargo run --release --example pcs_network
//! ```

use cagvt::prelude::*;
use std::sync::Arc;

fn main() {
    let mut cfg = SimConfig::small(2, 8);
    cfg.lps_per_worker = 8; // 128 cells
    cfg.end_time = 80.0;

    let model = PcsModel {
        channels: 8,
        mean_interarrival: 1.5,
        mean_hold: 4.0,
        handoff_prob: 0.35,
        epg: 3_000,
    };

    println!(
        "PCS: {} cells, {} channels each, handoff probability {}\n",
        cfg.total_lps(),
        model.channels,
        model.handoff_prob
    );

    for kind in [GvtKind::Mattern, GvtKind::Barrier, GvtKind::CA_DEFAULT] {
        let report = run_virtual(Arc::new(model), cfg, |shared| make_bundle(kind, shared));
        println!(
            "{:<8} steady rate {:>10.0} ev/s   efficiency {:>6.2}%   rollbacks {:>6}",
            report.algorithm,
            report.steady_rate,
            report.efficiency * 100.0,
            report.workers.rollbacks
        );
    }

    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    println!("\nsequential reference: {} events", seq.processed);
}
