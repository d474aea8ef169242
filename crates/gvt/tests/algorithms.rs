//! End-to-end tests: the optimistic engine, driven by each *real* GVT
//! algorithm, must terminate and commit exactly the sequential reference's
//! events and states, on every topology and MPI mode.

use cagvt_core::cluster::{build_shared, run_virtual_with};
use cagvt_core::seq::SequentialSim;
use cagvt_core::testmodel::MiniHold;
use cagvt_core::{RunReport, SimConfig};
use cagvt_exec::VirtualConfig;
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_net::MpiMode;
use std::sync::Arc;

fn vcfg() -> VirtualConfig {
    VirtualConfig {
        max_steps: Some(80_000_000),
        horizon: Some(cagvt_base::WallNs(120_000_000_000)),
        ..Default::default()
    }
}

fn run(kind: GvtKind, model: MiniHold, cfg: SimConfig) -> RunReport {
    run_virtual_with(Arc::new(model), cfg, vcfg(), |shared| make_bundle(kind, shared))
}

fn assert_matches_sequential(kind: GvtKind, model: MiniHold, cfg: SimConfig) -> RunReport {
    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    let report = run(kind, model, cfg);
    report.check_conservation(cfg.end_vt());
    assert_eq!(report.committed, seq.processed, "committed mismatch\n{report}");
    assert_eq!(report.state_fingerprint, seq.fingerprint, "state mismatch\n{report}");
    report
}

/// Every algorithm the oracle tests run. Samadi is left out: on the
/// rollback-heavy config its rolled-back work grows much faster with the
/// end time than the others' and the run hits the step valve at end time
/// 40 (see ROADMAP.md); it has its own tests below.
fn all_kinds() -> [GvtKind; 4] {
    let queue_only = GvtKind::CaGvtQueue { threshold: 0.0, queue_threshold: 0 };
    [GvtKind::Barrier, GvtKind::Mattern, GvtKind::CA_DEFAULT, queue_only]
}

#[test]
fn single_node_all_algorithms_match_sequential() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(1, 3);
        cfg.end_time = 40.0;
        let report = assert_matches_sequential(kind, MiniHold::default(), cfg);
        assert!(report.gvt_rounds > 0, "{kind:?} must run rounds\n{report}");
    }
}

#[test]
fn multi_node_all_algorithms_match_sequential() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(3, 2);
        cfg.end_time = 30.0;
        let report = assert_matches_sequential(
            kind,
            MiniHold { far_fraction: 0.4, ..Default::default() },
            cfg,
        );
        assert!(report.sent_remote > 0, "{kind:?}: remote traffic expected");
        assert!(report.gvt_rounds > 1, "{kind:?}: several rounds expected\n{report}");
    }
}

#[test]
fn rollback_heavy_runs_stay_correct() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.end_time = 40.0;
        let model = MiniHold { far_fraction: 0.7, epg: 200, ..Default::default() };
        let report = assert_matches_sequential(kind, model, cfg);
        assert!(report.rollbacks > 0, "{kind:?}: rollbacks expected\n{report}");
    }
}

#[test]
fn inline_mpi_mode_works_with_all_algorithms() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.spec.mpi_mode = MpiMode::InlineWorker;
        cfg.end_time = 25.0;
        assert_matches_sequential(kind, MiniHold { far_fraction: 0.4, ..Default::default() }, cfg);
    }
}

#[test]
fn per_worker_mpi_mode_works_with_all_algorithms() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.spec.mpi_mode = MpiMode::PerWorker;
        cfg.end_time = 25.0;
        assert_matches_sequential(kind, MiniHold { far_fraction: 0.4, ..Default::default() }, cfg);
    }
}

#[test]
fn runs_are_deterministic_per_algorithm() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.end_time = 25.0;
        let a = run(kind, MiniHold::default(), cfg);
        let b = run(kind, MiniHold::default(), cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.sched_steps, b.sched_steps, "{kind:?} schedule must be deterministic");
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }
}

#[test]
fn barrier_blocks_and_mattern_does_not() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 30.0;
    let barrier = run(GvtKind::Barrier, MiniHold::default(), cfg);
    let mattern = run(GvtKind::Mattern, MiniHold::default(), cfg);
    // Barrier GVT spends much more wall time inside the GVT function
    // (blocked at barriers) than Mattern's interleaved bookkeeping.
    assert!(
        barrier.gvt_time_mean > mattern.gvt_time_mean,
        "barrier {} vs mattern {}",
        barrier.gvt_time_mean,
        mattern.gvt_time_mean
    );
}

#[test]
fn ca_gvt_records_round_trace() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 30.0;
    let report =
        run(GvtKind::CA_DEFAULT, MiniHold { far_fraction: 0.5, ..Default::default() }, cfg);
    assert_eq!(
        report.sync_rounds + report.async_rounds,
        report.gvt_rounds,
        "every round must be traced\n{report}"
    );
    assert!(report.gvt_rounds > 0);
}

#[test]
fn ca_gvt_threshold_extremes_select_modes() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 25.0;
    let model = MiniHold { far_fraction: 0.5, ..Default::default() };
    // Threshold 0: efficiency can never fall below, so always async.
    let always_async = run(GvtKind::CaGvt { threshold: 0.0 }, model, cfg);
    assert_eq!(always_async.sync_rounds, 0, "{always_async}");
    // Threshold 1: every round after the first is synchronous (the flag
    // arms once any event rolls back).
    let mostly_sync = run(GvtKind::CaGvt { threshold: 1.0 }, model, cfg);
    assert!(mostly_sync.sync_rounds > 0, "sync rounds expected at threshold 1.0\n{mostly_sync}");
}

/// With threshold 0 the efficiency trigger never fires, so every sync
/// round comes from the MPI queue trigger — which needs remote traffic.
#[test]
fn ca_gvt_queue_trigger_alone_selects_sync_rounds() {
    let kind = GvtKind::CaGvtQueue { threshold: 0.0, queue_threshold: 0 };
    let model = MiniHold { far_fraction: 0.4, ..Default::default() };
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 30.0;
    let multi = run(kind, model, cfg);
    assert!(multi.sync_rounds > 0, "a deep MPI queue must arm sync rounds\n{multi}");
    let mut cfg = SimConfig::small(1, 3);
    cfg.end_time = 30.0;
    let single = run(kind, model, cfg);
    assert_eq!(single.sync_rounds, 0, "one node has no MPI queue\n{single}");
    assert!(single.gvt_rounds > 0);
}

#[test]
fn shared_handles_expose_gvt_state() {
    let cfg = SimConfig::small(1, 2);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let bundle = make_bundle(GvtKind::Mattern, &shared);
    assert_eq!(bundle.name(), "mattern");
    let bundle = make_bundle(GvtKind::CA_DEFAULT, &shared);
    assert_eq!(bundle.name(), "ca-gvt");
    let bundle = make_bundle(GvtKind::Barrier, &shared);
    assert_eq!(bundle.name(), "barrier");
    let bundle = make_bundle(GvtKind::Samadi, &shared);
    assert_eq!(bundle.name(), "samadi");
}

#[test]
fn samadi_matches_sequential_and_pays_ack_traffic() {
    let mut cfg = SimConfig::small(2, 3);
    cfg.end_time = 30.0;
    let model = MiniHold { far_fraction: 0.4, ..Default::default() };
    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    let report = run(GvtKind::Samadi, model, cfg);
    report.check_conservation(cfg.end_vt());
    assert_eq!(report.committed, seq.processed, "{report}");
    assert_eq!(report.state_fingerprint, seq.fingerprint);
    assert!(report.gvt_rounds > 0);

    // The defining cost: one acknowledgement per channel message.
    let mattern = run(GvtKind::Mattern, model, cfg);
    assert_eq!(mattern.committed, report.committed);
    assert!(
        report.sent_regional + report.sent_remote
            > (mattern.sent_regional + mattern.sent_remote) * 3 / 2,
        "Samadi must roughly double channel traffic: samadi {} vs mattern {}",
        report.sent_regional + report.sent_remote,
        mattern.sent_regional + mattern.sent_remote,
    );
}

#[test]
fn samadi_is_deterministic_and_interval_insensitive_in_results() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 20.0;
    let a = run(GvtKind::Samadi, MiniHold::default(), cfg);
    let b = run(GvtKind::Samadi, MiniHold::default(), cfg);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.sched_steps, b.sched_steps);

    cfg.gvt_interval = 10;
    let c = run(GvtKind::Samadi, MiniHold::default(), cfg);
    assert_eq!(c.committed, a.committed, "interval must not change results");
    assert_eq!(c.state_fingerprint, a.state_fingerprint);
}
