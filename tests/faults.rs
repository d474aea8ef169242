//! Fault-plan integration tests: every GVT algorithm must commit exactly
//! the sequential reference's events and states under non-trivial fault
//! plans, because faults perturb wall-clock costs and delivery instants
//! only — never virtual-time event content.

use cagvt::core::testmodel::MiniHold;
use cagvt::prelude::*;
use std::sync::Arc;

/// A straggler-prone MiniHold on a 2x2 cluster with enough remote traffic
/// that link faults actually bite.
fn model() -> MiniHold {
    MiniHold { far_fraction: 0.4, ..Default::default() }
}

fn config() -> SimConfig {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = 30.0;
    cfg
}

/// Build an injector whose windows are anchored on the clean run's
/// makespan, so the plan demonstrably overlaps the faulted run.
fn injector(cfg: &SimConfig, severity: f64, seed: u64) -> (Arc<FaultRuntime>, FaultPlan) {
    let clean =
        run_virtual(Arc::new(model()), *cfg, |shared| make_bundle(GvtKind::Mattern, shared));
    let span = WallNs(((clean.sim_seconds * 1e9) as u64).max(1_000_000));
    let spec = FaultSpec::new(severity, seed, span);
    let plan = FaultPlan::generate(&cfg.spec, &spec);
    assert!(!plan.is_empty(), "severity {severity} must yield a non-trivial plan");
    (Arc::new(FaultRuntime::new(cfg.spec, &plan, seed)), plan)
}

fn run_faulted(kind: GvtKind, cfg: SimConfig, faults: Arc<FaultRuntime>) -> RunReport {
    let vcfg =
        VirtualConfig { faults: Some(faults as Arc<dyn FaultInjector>), ..Default::default() };
    run_virtual_with(Arc::new(model()), cfg, vcfg, |shared| make_bundle(kind, shared))
}

fn assert_oracle_holds_under_faults(kind: GvtKind) -> RunReport {
    let cfg = config();
    let (faults, plan) = injector(&cfg, 0.8, 0x0FA_517);
    let report = run_faulted(kind, cfg, Arc::clone(&faults));
    report.check_conservation(cfg.end_vt());
    assert!(
        report.faults.straggled_steps > 0,
        "the plan ({} perturbations) must actually perturb the run\n{report}",
        plan.perturbations.len()
    );
    let seq = SequentialSim::new(Arc::new(model()), cfg).run();
    assert_eq!(
        report.committed, seq.processed,
        "faults must not change committed events\n{report}"
    );
    assert_eq!(
        report.state_fingerprint, seq.fingerprint,
        "faults must not change final LP states\n{report}"
    );
    report
}

#[test]
fn barrier_matches_sequential_under_faults() {
    assert_oracle_holds_under_faults(GvtKind::Barrier);
}

#[test]
fn mattern_matches_sequential_under_faults() {
    assert_oracle_holds_under_faults(GvtKind::Mattern);
}

#[test]
fn ca_gvt_matches_sequential_under_faults() {
    assert_oracle_holds_under_faults(GvtKind::CaGvt { threshold: 0.93 });
}

#[test]
fn faulted_runs_are_bit_identical() {
    let cfg = config();
    let kind = GvtKind::Mattern;
    let run = || {
        let (faults, _) = injector(&cfg, 0.6, 0xBEEF);
        run_faulted(kind, cfg, faults)
    };
    let a = run();
    let b = run();
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.state_fingerprint, b.state_fingerprint);
    assert_eq!(a.sched_steps, b.sched_steps, "faulted schedule must be deterministic");
    assert_eq!(a.sim_seconds, b.sim_seconds);
    assert_eq!(a.faults, b.faults, "fault activity must replay identically");
}

#[test]
fn faults_slow_the_run_but_not_the_results() {
    let cfg = config();
    let clean = run_virtual(Arc::new(model()), cfg, |shared| make_bundle(GvtKind::Mattern, shared));
    let (faults, _) = injector(&cfg, 1.0, 7);
    let faulted = run_faulted(GvtKind::Mattern, cfg, faults);
    assert_eq!(clean.committed, faulted.committed);
    assert_eq!(clean.state_fingerprint, faulted.state_fingerprint);
    assert!(
        faulted.sim_seconds > clean.sim_seconds,
        "a full-severity plan must cost wall time: clean {} vs faulted {}",
        clean.sim_seconds,
        faulted.sim_seconds
    );
}

/// GVT must stay monotonic under faults; inspected directly from the
/// progress samples of a manually assembled run.
#[test]
fn gvt_remains_monotonic_under_faults() {
    let cfg = config();
    let (faults, _) = injector(&cfg, 0.9, 0x60_0D);
    let shared = build_shared_observed(
        Arc::new(model()),
        cfg,
        Some(faults.clone() as Arc<dyn FaultInjector>),
        None,
        None,
    );
    let bundle = make_bundle(GvtKind::Mattern, &shared);
    let (actors, handles) = build_cluster(Arc::clone(&shared), &*bundle);
    let vcfg =
        VirtualConfig { faults: Some(faults as Arc<dyn FaultInjector>), ..Default::default() };
    let stats = VirtualScheduler::new(vcfg).run(actors);
    assert!(stats.completed);
    let samples = handles.shared.stats.rounds.lock();
    assert!(!samples.is_empty(), "at least one GVT round must be sampled");
    for w in samples.windows(2) {
        assert!(w[1].gvt >= w[0].gvt, "GVT regressed under faults: {} -> {}", w[0].gvt, w[1].gvt);
        assert!(w[1].wall >= w[0].wall, "wall clock regressed in progress samples");
    }
}
