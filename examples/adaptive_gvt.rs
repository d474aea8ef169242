//! CA-GVT adaptation in action: a mixed computation/communication PHOLD
//! run where the algorithm switches between asynchronous and synchronous
//! rounds as measured efficiency crosses the threshold (paper §6). It ends
//! by asserting that the run matches the sequential reference and that
//! both modes ran.
//!
//! ```text
//! cargo run --release --example adaptive_gvt
//! ```

use cagvt::core::cluster::{build_cluster, build_shared};
use cagvt::prelude::*;
use std::sync::Arc;

fn main() {
    let mut cfg = SimConfig::small(2, 16);
    cfg.lps_per_worker = 32;
    cfg.end_time = 40.0;

    // The paper's 10-15 mixed model: 10% of the run computation-dominated,
    // then 15% communication-dominated, repeating.
    let workload = mixed_model(&cfg, 10.0, 15.0);
    let seq = SequentialSim::new(Arc::new(workload.model.clone()), cfg).run();

    let shared = build_shared(Arc::new(workload.model), cfg);
    let bundle = make_bundle(GvtKind::CaGvt { threshold: 0.9 }, &shared);
    let (actors, handles) = build_cluster(Arc::clone(&shared), &*bundle);
    let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);

    let report = cagvt::core::RunReport::assemble("ca-gvt", &handles.shared, stats);
    println!("{report}\n");

    // Show the mode trace: which rounds ran synchronously.
    let trace = handles.shared.stats.gvt_trace.lock();
    println!("round  mode   efficiency    gvt");
    let mut last_mode = None;
    for rec in trace.iter() {
        let mode = if rec.synchronous() { "SYNC " } else { "async" };
        // Print transitions and a sparse sample, not every round.
        let transition = last_mode != Some(rec.synchronous());
        if transition || rec.round % 20 == 0 {
            println!(
                "{:>5}  {}  {:>8.2}%  {:>8.3}{}",
                rec.round,
                mode,
                rec.efficiency * 100.0,
                rec.gvt,
                if transition { "   <- mode switch" } else { "" }
            );
        }
        last_mode = Some(rec.synchronous());
    }
    let sync = trace.iter().filter(|r| r.synchronous()).count();
    println!(
        "\n{} rounds total: {} synchronous, {} asynchronous",
        trace.len(),
        sync,
        trace.len() - sync
    );

    assert_eq!(report.committed, seq.processed);
    assert_eq!(report.state_fingerprint, seq.fingerprint);
    assert!(sync > 0 && sync < trace.len(), "the controller must run both modes");
    println!("sequential reference: {} events — matched, under both round modes", seq.processed);
}
