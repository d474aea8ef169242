//! End-to-end engine tests against the sequential reference, using the
//! shared-memory oracle GVT (so the engine is validated independently of
//! the real GVT algorithms).

use cagvt_core::cluster::{build_shared, run_virtual};
use cagvt_core::gvt::OracleBundle;
use cagvt_core::seq::SequentialSim;
use cagvt_core::testmodel::MiniHold;
use cagvt_core::{GvtBundle, RunReport, SimConfig};
use std::sync::Arc;

fn oracle_run(model: MiniHold, cfg: SimConfig) -> RunReport {
    run_virtual(Arc::new(model), cfg, |shared| {
        Box::new(OracleBundle { shared: Arc::clone(&shared.gvt_core) }) as Box<dyn GvtBundle>
    })
}

fn assert_matches_sequential(model: MiniHold, cfg: SimConfig) -> RunReport {
    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    let report = oracle_run(model, cfg);
    report.check_conservation(cfg.end_vt());
    assert_eq!(
        report.committed, seq.processed,
        "committed events must match the sequential reference\n{report}"
    );
    assert_eq!(
        report.state_fingerprint, seq.fingerprint,
        "final LP states must match the sequential reference\n{report}"
    );
    report
}

#[test]
fn single_worker_matches_sequential() {
    let mut cfg = SimConfig::small(1, 1);
    cfg.end_time = 40.0;
    assert_matches_sequential(MiniHold::default(), cfg);
}

#[test]
fn multi_worker_single_node_matches_sequential() {
    let mut cfg = SimConfig::small(1, 4);
    cfg.end_time = 40.0;
    let report = assert_matches_sequential(MiniHold::default(), cfg);
    assert!(report.sent_regional > 0, "cross-worker traffic expected\n{report}");
}

#[test]
fn multi_node_matches_sequential() {
    let mut cfg = SimConfig::small(2, 3);
    cfg.end_time = 30.0;
    let report = assert_matches_sequential(MiniHold::default(), cfg);
    assert!(report.sent_remote > 0, "cross-node traffic expected\n{report}");
}

#[test]
fn rollbacks_occur_and_do_not_corrupt_state() {
    // Aggressive far traffic + long remote latency => stragglers.
    let model = MiniHold { far_fraction: 0.6, ..Default::default() };
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 50.0;
    let report = assert_matches_sequential(model, cfg);
    assert!(report.rollbacks > 0, "this configuration should produce rollbacks\n{report}");
    assert!(report.antis_sent > 0);
}

#[test]
fn inline_mpi_mode_matches_sequential() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.spec.mpi_mode = cagvt_net::MpiMode::InlineWorker;
    cfg.end_time = 30.0;
    assert_matches_sequential(MiniHold { far_fraction: 0.4, ..Default::default() }, cfg);
}

#[test]
fn per_worker_mpi_mode_matches_sequential() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.spec.mpi_mode = cagvt_net::MpiMode::PerWorker;
    cfg.end_time = 30.0;
    assert_matches_sequential(MiniHold { far_fraction: 0.4, ..Default::default() }, cfg);
}

#[test]
fn identical_seeds_are_bit_identical() {
    let cfg = SimConfig::small(2, 2);
    let a = oracle_run(MiniHold::default(), cfg);
    let b = oracle_run(MiniHold::default(), cfg);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.state_fingerprint, b.state_fingerprint);
    assert_eq!(a.sched_steps, b.sched_steps, "virtual schedule must be deterministic");
    assert_eq!(a.sim_seconds, b.sim_seconds);
}

#[test]
fn different_seeds_diverge() {
    let cfg1 = SimConfig::small(1, 2);
    let mut cfg2 = cfg1;
    cfg2.seed ^= 0x5EED;
    let a = oracle_run(MiniHold::default(), cfg1);
    let b = oracle_run(MiniHold::default(), cfg2);
    assert_ne!(a.state_fingerprint, b.state_fingerprint);
}

#[test]
fn throttle_keeps_memory_bounded_and_preserves_results() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 30.0;
    cfg.max_outstanding = cfg.gvt_interval as usize; // tightest legal throttle
    let report = assert_matches_sequential(MiniHold::default(), cfg);
    assert!(report.completed);
}

#[test]
fn build_shared_exposes_topology() {
    let cfg = SimConfig::small(2, 3);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    assert_eq!(shared.nodes.len(), 2);
    assert_eq!(shared.cfg.total_lps(), 2 * 3 * cfg.lps_per_worker);
}

#[test]
fn throttle_engages_and_is_counted() {
    let mut cfg = SimConfig::small(1, 2);
    cfg.end_time = 6.0;
    // Two uncommitted events per worker: processing regularly stalls until
    // the next fossil pass, so the throttle engages even under the
    // oracle's eager GVT (a cap of 1 works too but serializes the whole
    // cluster to one event per round).
    cfg.gvt_interval = 2;
    cfg.max_outstanding = 2;
    let report = oracle_run(MiniHold::default(), cfg);
    report.check_conservation(cfg.end_vt());
    assert!(report.throttled_steps > 0, "a throttle this tight must engage\n{report}");
    // And with the bound orders of magnitude looser it binds less.
    cfg.max_outstanding = 4096;
    let loose = oracle_run(MiniHold::default(), cfg);
    assert!(loose.throttled_steps < report.throttled_steps);
    assert_eq!(loose.committed, report.committed, "results never depend on the throttle");
    assert_eq!(loose.state_fingerprint, report.state_fingerprint);
}

#[test]
fn request_counters_are_populated() {
    let mut cfg = SimConfig::small(1, 2);
    cfg.end_time = 10.0;
    // Interval 1: every processed event raises a round request, no matter
    // how eagerly the oracle completes rounds in between.
    cfg.gvt_interval = 1;
    cfg.max_outstanding = 64;
    let report = oracle_run(MiniHold::default(), cfg);
    assert!(report.requests_interval > 0, "round requests must be recorded\n{report}");
}
