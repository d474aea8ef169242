//! Cross-crate integration tests: the full stack (engine, GVT algorithms,
//! real models) against the sequential reference, on both execution
//! substrates.

use cagvt::core::cluster::{build_cluster, build_shared};
use cagvt::core::testmodel::MiniHold;
use cagvt::prelude::*;
use std::sync::Arc;

fn all_kinds() -> [GvtKind; 3] {
    [GvtKind::Barrier, GvtKind::Mattern, GvtKind::CA_DEFAULT]
}

fn assert_matches_sequential<M: Model + Clone>(
    kind: GvtKind,
    model: M,
    cfg: SimConfig,
) -> cagvt::core::RunReport {
    let report = run_virtual(Arc::new(model.clone()), cfg, |shared| make_bundle(kind, shared));
    report.check_conservation(cfg.end_vt());
    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    assert_eq!(report.committed, seq.processed, "committed mismatch for {kind:?}\n{report}");
    assert_eq!(report.state_fingerprint, seq.fingerprint, "state mismatch for {kind:?}");
    report
}

#[test]
fn phold_comp_all_algorithms_match_sequential() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 3);
        cfg.lps_per_worker = 8;
        cfg.end_time = 25.0;
        let workload = comp_dominated(&cfg);
        assert_matches_sequential(kind, workload.model, cfg);
    }
}

#[test]
fn phold_comm_all_algorithms_match_sequential() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 3);
        cfg.lps_per_worker = 8;
        cfg.end_time = 20.0;
        let workload = comm_dominated(&cfg);
        let report = assert_matches_sequential(kind, workload.model, cfg);
        assert!(report.sent_remote > 0, "comm workload must generate remote traffic");
    }
}

#[test]
fn phold_mixed_model_matches_sequential() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.lps_per_worker = 8;
        cfg.end_time = 20.0;
        let workload = mixed_model(&cfg, 10.0, 15.0);
        assert_matches_sequential(kind, workload.model, cfg);
    }
}

#[test]
fn epidemic_matches_sequential() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 4;
    cfg.end_time = 60.0;
    let model = EpidemicModel::default();
    for kind in all_kinds() {
        assert_matches_sequential(kind, model, cfg);
    }
}

#[test]
fn pcs_matches_sequential() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 4;
    cfg.end_time = 40.0;
    let model = PcsModel::default();
    for kind in all_kinds() {
        assert_matches_sequential(kind, model, cfg);
    }
}

#[test]
fn cqn_matches_sequential_under_all_algorithms() {
    // Closed population: any lost or duplicated job shows in the
    // fingerprint.
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 8; // 32 stations, 8 rows of 4
    cfg.end_time = 40.0;
    let model = CqnModel { switch_prob: 0.35, ..Default::default() };
    for kind in [GvtKind::Barrier, GvtKind::Mattern, GvtKind::CA_DEFAULT, GvtKind::Samadi] {
        assert_matches_sequential(kind, model, cfg);
    }
}

#[test]
fn samadi_matches_sequential_on_phold() {
    let mut cfg = SimConfig::small(2, 3);
    cfg.lps_per_worker = 8;
    cfg.end_time = 20.0;
    let workload = comm_dominated(&cfg);
    let report = assert_matches_sequential(GvtKind::Samadi, workload.model, cfg);
    assert!(report.gvt_rounds > 0);
}

#[test]
fn all_algorithms_commit_identical_events() {
    // Different GVT algorithms change *timing*, never simulation results.
    let mut cfg = SimConfig::small(2, 3);
    cfg.lps_per_worker = 8;
    cfg.end_time = 20.0;
    let reports: Vec<_> = all_kinds()
        .into_iter()
        .map(|kind| {
            let workload = comm_dominated(&cfg);
            run_virtual(Arc::new(workload.model), cfg, |shared| make_bundle(kind, shared))
        })
        .collect();
    for pair in reports.windows(2) {
        assert_eq!(pair[0].committed, pair[1].committed);
        assert_eq!(pair[0].state_fingerprint, pair[1].state_fingerprint);
    }
}

/// Run `model` under `kind` on real OS threads (nondeterministic schedule,
/// deterministic results) and check it against the sequential reference.
fn assert_threaded_matches_sequential<M: Model>(
    kind: GvtKind,
    model: M,
    cfg: SimConfig,
) -> cagvt::core::RunReport {
    let model = Arc::new(model);
    let shared = build_shared(Arc::clone(&model), cfg);
    let bundle = make_bundle(kind, &shared);
    let (actors, handles) = build_cluster(Arc::clone(&shared), &*bundle);
    let stats = ThreadRuntime::new(ThreadConfig {
        realize_costs: false,
        timeout: Some(std::time::Duration::from_secs(120)),
    })
    .run(actors);
    assert!(stats.completed, "threaded run timed out");

    let report = cagvt::core::RunReport::assemble(&format!("{kind:?}"), &handles.shared, stats);
    let seq = SequentialSim::new(model, cfg).run();
    assert_eq!(report.committed, seq.processed, "committed mismatch for {kind:?}\n{report}");
    assert_eq!(report.state_fingerprint, seq.fingerprint, "state mismatch for {kind:?}");
    report
}

#[test]
fn thread_runtime_matches_sequential() {
    // Barrier and CA-GVT hold workers at a barrier: on threads they park
    // until a `TwoLevelReduce` publication unparks them.
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 4;
    cfg.end_time = 8.0;
    for kind in [GvtKind::Barrier, GvtKind::Mattern, GvtKind::CA_DEFAULT, GvtKind::Samadi] {
        let workload = comp_dominated(&cfg);
        assert_threaded_matches_sequential(kind, workload.model, cfg);
    }
}

#[test]
fn thread_runtime_annihilates_and_matches_sequential() {
    // Mostly cluster-wide sends: the threads race ahead of each other, so
    // stragglers roll LPs back, and the anti-messages of the undone sends
    // annihilate events still pending or roll back ones already processed.
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 4;
    cfg.end_time = 30.0;
    let model = MiniHold { far_fraction: 0.9, ..MiniHold::default() };
    let report = assert_threaded_matches_sequential(GvtKind::Mattern, model, cfg);
    assert!(report.antis_sent > 0, "no anti-message was sent\n{report}");
    let anti_rollbacks = report.rollbacks - report.stragglers;
    assert!(anti_rollbacks > 0, "no anti-message met a processed event\n{report}");
    assert!(report.annihilated > anti_rollbacks, "no anti-message met a pending event\n{report}");
}

#[test]
fn gvt_interval_changes_round_count_not_results() {
    let mut cfg = SimConfig::small(1, 3);
    cfg.lps_per_worker = 8;
    cfg.end_time = 25.0;
    let mut last: Option<(u64, u64)> = None;
    let mut round_counts = Vec::new();
    for interval in [10u64, 50] {
        cfg.gvt_interval = interval;
        cfg.max_outstanding = 1024;
        let workload = comp_dominated(&cfg);
        let report = run_virtual(Arc::new(workload.model), cfg, |shared| {
            make_bundle(GvtKind::Mattern, shared)
        });
        if let Some((committed, fp)) = last {
            assert_eq!(report.committed, committed);
            assert_eq!(report.state_fingerprint, fp);
        }
        last = Some((report.committed, report.state_fingerprint));
        round_counts.push(report.gvt_rounds);
    }
    assert!(
        round_counts[0] > round_counts[1],
        "smaller interval must produce more rounds: {round_counts:?}"
    );
}

#[test]
fn report_csv_shapes_are_stable() {
    let mut cfg = SimConfig::small(1, 2);
    cfg.end_time = 10.0;
    let workload = comp_dominated(&cfg);
    let report =
        run_virtual(Arc::new(workload.model), cfg, |shared| make_bundle(GvtKind::Barrier, shared));
    // The one figure-CSV schema: a row built from this report has exactly
    // the header's columns.
    let row = cagvt_bench::Row { figure: "shape", series: "barrier".into(), nodes: 1, report };
    assert_eq!(row.csv().split(',').count(), cagvt_bench::Row::csv_header().split(',').count());
    let report = row.report;
    // Display must mention the algorithm and the efficiency.
    let text = format!("{report}");
    assert!(text.contains("barrier"));
    assert!(text.contains("efficiency"));
}

#[test]
fn reverse_computation_matches_snapshot_rollback_exactly() {
    // PHOLD implements reverse computation; forcing snapshots must change
    // nothing observable — committed events, final states, virtual
    // timing, the whole schedule.
    let mut cfg = SimConfig::small(2, 3);
    cfg.lps_per_worker = 8;
    cfg.end_time = 25.0;
    let run = |rollback: RollbackStrategy| {
        let mut cfg = cfg;
        cfg.rollback = Some(rollback);
        let workload = comm_dominated(&cfg); // rollback-heavy
        run_virtual(Arc::new(workload.model), cfg, |shared| make_bundle(GvtKind::Mattern, shared))
    };
    let reverse = run(RollbackStrategy::Reverse);
    let snapshot = run(RollbackStrategy::Snapshot);
    assert!(reverse.rollbacks > 0, "rollbacks must exercise the reverse path");
    assert_eq!(reverse.committed, snapshot.committed);
    assert_eq!(reverse.state_fingerprint, snapshot.state_fingerprint);
    assert_eq!(reverse.sched_steps, snapshot.sched_steps);
    assert_eq!(reverse.sim_seconds, snapshot.sim_seconds);

    // And both match the sequential reference.
    let workload = comm_dominated(&cfg);
    let seq = SequentialSim::new(Arc::new(workload.model), cfg).run();
    assert_eq!(reverse.committed, seq.processed);
    assert_eq!(reverse.state_fingerprint, seq.fingerprint);
}

#[test]
fn periodic_snapshot_strategy_matches_other_strategies_exactly() {
    // Periodic state saving with coast-forward must be observably
    // identical to per-event snapshots and to reverse computation.
    let mut cfg = SimConfig::small(2, 3);
    cfg.lps_per_worker = 8;
    cfg.end_time = 25.0;
    let run = |rollback: RollbackStrategy| {
        let mut cfg = cfg;
        cfg.rollback = Some(rollback);
        let workload = comm_dominated(&cfg); // rollback-heavy
        run_virtual(Arc::new(workload.model), cfg, |shared| make_bundle(GvtKind::Mattern, shared))
    };
    let reverse = run(RollbackStrategy::Reverse);
    let snapshot = run(RollbackStrategy::Snapshot);
    assert!(reverse.rollbacks > 0);
    assert_eq!(snapshot.sched_steps, reverse.sched_steps, "identical virtual timing");
    for k in [1u32, 4, 16, 64] {
        let periodic = run(RollbackStrategy::PeriodicSnapshot(k));
        // Simulation results are identical; the virtual schedule may
        // differ slightly because snapshot retention shifts when the
        // optimism throttle engages.
        assert_eq!(periodic.committed, reverse.committed, "k={k}");
        assert_eq!(periodic.state_fingerprint, reverse.state_fingerprint, "k={k}");
    }
    // And all agree with the sequential reference.
    let workload = comm_dominated(&cfg);
    let seq = SequentialSim::new(Arc::new(workload.model), cfg).run();
    assert_eq!(reverse.committed, seq.processed);
}

#[test]
fn traffic_grid_matches_sequential_under_all_algorithms() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.lps_per_worker = 4; // 4x4 torus
    cfg.end_time = 30.0;
    let model = TrafficModel { width: 4, height: 4, ..Default::default() };
    for kind in [GvtKind::Barrier, GvtKind::Mattern, GvtKind::CA_DEFAULT, GvtKind::Samadi] {
        assert_matches_sequential(kind, model, cfg);
    }
}
