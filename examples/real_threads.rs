//! Run the engine on real OS threads instead of the virtual scheduler:
//! the same actors, driven by `ThreadRuntime`, with modeled costs realized
//! as actual busy-waiting. This is how the library behaves as a *real*
//! parallel simulator on multicore hardware.
//!
//! ```text
//! cargo run --release --example real_threads
//! ```

use cagvt::core::cluster::{build_cluster, build_shared};
use cagvt::core::RunReport;
use cagvt::prelude::*;
use std::sync::Arc;

fn main() {
    // Small topology: one actor per OS thread, so keep it modest.
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 8;
    cfg.end_time = 10.0;

    let workload = comp_dominated(&cfg);
    let shared = build_shared(Arc::new(workload.model), cfg);
    let bundle = make_bundle(GvtKind::Mattern, &shared);
    let (actors, handles) = build_cluster(Arc::clone(&shared), &*bundle);

    println!("running {} actors on OS threads...", actors.len());
    let t0 = std::time::Instant::now();
    let stats = ThreadRuntime::new(ThreadConfig {
        realize_costs: false, // flat out; set true to realize modeled delays
        ..Default::default()
    })
    .run(actors);
    println!("real time: {:.3}s, {} total steps\n", t0.elapsed().as_secs_f64(), stats.steps);

    // Both runtimes return the same stats, so one report assembler serves
    // both; here its times come from the real clock.
    let report = RunReport::assemble("mattern", &handles.shared, stats);
    println!("{report}");

    // The committed events still match the sequential reference exactly.
    let workload = comp_dominated(&cfg);
    let seq = SequentialSim::new(Arc::new(workload.model), cfg).run();
    assert_eq!(report.committed, seq.processed);
    assert_eq!(report.state_fingerprint, seq.fingerprint);
    println!("\nverified against sequential reference ({} events)", seq.processed);
}
