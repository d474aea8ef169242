//! Property-based tests: random workload parameterizations, topologies,
//! algorithm settings and fault plans must always preserve the engine's
//! core invariants — sequential equivalence, event conservation, GVT
//! monotonicity, rollback staying above the published GVT (asserted
//! inside the engine), and determinism.

use cagvt::prelude::*;
use cagvt_models::phold::{PhaseSchedule, PholdModel, PholdParams};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_kind() -> impl Strategy<Value = GvtKind> {
    prop_oneof![
        Just(GvtKind::Barrier),
        Just(GvtKind::Mattern),
        (0.3f64..0.95).prop_map(|threshold| GvtKind::CaGvt { threshold }),
    ]
}

fn arb_topology() -> impl Strategy<Value = (u16, u16, u32)> {
    // (nodes, workers, lps_per_worker) — kept small: each case is a whole
    // simulation run.
    (1u16..=3, 1u16..=3, 2u32..=6)
}

fn phold_for(cfg: &SimConfig, regional: f64, remote: f64, epg: u64) -> PholdModel {
    PholdModel::new(cfg, PhaseSchedule::constant(PholdParams::new(regional, remote, epg)))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Any random PHOLD parameterization on any small topology, under any
    /// algorithm, commits exactly the sequential reference's events and
    /// states.
    #[test]
    fn random_runs_match_sequential(
        kind in arb_kind(),
        (nodes, workers, lpw) in arb_topology(),
        regional in 0.0f64..0.6,
        remote in 0.0f64..0.3,
        epg in 100u64..20_000,
        interval in 5u64..60,
        seed in any::<u32>(),
    ) {
        let mut cfg = SimConfig::small(nodes, workers);
        cfg.lps_per_worker = lpw;
        cfg.end_time = 12.0;
        cfg.gvt_interval = interval;
        cfg.max_outstanding = (interval as usize * 16).max(128);
        cfg.seed = seed as u64 | 0x5EED_0000_0000;

        let model = phold_for(&cfg, regional, remote, epg);
        let report = run_virtual(Arc::new(model.clone()), cfg, |shared| make_bundle(kind, shared));
        report.check_conservation(cfg.end_vt());

        let seq = SequentialSim::new(Arc::new(model), cfg).run();
        prop_assert_eq!(report.committed, seq.processed);
        prop_assert_eq!(report.state_fingerprint, seq.fingerprint);
    }

    /// Random fault plans never change what commits, identical
    /// `(seed, config, plan)` runs are bit-identical, GVT only advances,
    /// and no rollback targets a time below the published GVT (the latter
    /// is asserted unconditionally inside the worker, so merely completing
    /// the faulted run exercises it).
    #[test]
    fn random_fault_plans_preserve_invariants(
        kind in arb_kind(),
        severity in 0.1f64..1.0,
        fault_seed in any::<u32>(),
        seed in any::<u32>(),
    ) {
        let mut cfg = SimConfig::small(2, 2);
        cfg.lps_per_worker = 4;
        cfg.end_time = 10.0;
        cfg.seed = seed as u64 | 0xFA_0000_0000;

        let model = phold_for(&cfg, 0.2, 0.1, 2_000);
        // Anchor windows on the clean makespan so the plan overlaps the run.
        let clean = run_virtual(Arc::new(model.clone()), cfg, |shared| make_bundle(kind, shared));
        let span = WallNs(((clean.sim_seconds * 1e9) as u64).max(1_000_000));
        let spec = FaultSpec::new(severity, fault_seed as u64, span);
        let plan = FaultPlan::generate(&cfg.spec, &spec);
        prop_assert!(!plan.is_empty());

        let run = || {
            let rt = Arc::new(FaultRuntime::new(cfg.spec, &plan, spec.seed));
            let shared = build_shared_observed(
                Arc::new(model.clone()),
                cfg,
                Some(rt.clone() as Arc<dyn FaultInjector>),
                None,
                None,
            );
            let bundle = make_bundle(kind, &shared);
            let (actors, handles) =
                cagvt::core::cluster::build_cluster(Arc::clone(&shared), &*bundle);
            let vcfg = VirtualConfig {
                faults: Some(rt as Arc<dyn FaultInjector>),
                ..Default::default()
            };
            let stats = VirtualScheduler::new(vcfg).run(actors);
            let report =
                cagvt::core::RunReport::assemble(bundle.name(), &handles.shared, stats);
            let samples = handles.shared.stats.rounds.lock().clone();
            (report, samples)
        };
        let (a, gvt_samples) = run();
        let (b, _) = run();

        // Faults never change simulation results.
        a.check_conservation(cfg.end_vt());
        prop_assert_eq!(a.committed, clean.committed);
        prop_assert_eq!(a.state_fingerprint, clean.state_fingerprint);

        // Identical plan + config => bit-identical run.
        prop_assert_eq!(a.committed, b.committed);
        prop_assert_eq!(a.state_fingerprint, b.state_fingerprint);
        prop_assert_eq!(a.sched_steps, b.sched_steps);
        prop_assert_eq!(a.sim_seconds, b.sim_seconds);
        prop_assert_eq!(a.faults, b.faults);

        // GVT only ever advances.
        for w in gvt_samples.windows(2) {
            prop_assert!(w[1].gvt >= w[0].gvt, "GVT regressed: {} -> {}", w[0].gvt, w[1].gvt);
        }
    }

    /// Identical configurations are bit-identical (virtual determinism),
    /// across all algorithms.
    #[test]
    fn virtual_runs_are_deterministic(
        kind in arb_kind(),
        seed in any::<u32>(),
        remote in 0.0f64..0.3,
    ) {
        let mut cfg = SimConfig::small(2, 2);
        cfg.lps_per_worker = 4;
        cfg.end_time = 10.0;
        cfg.seed = seed as u64;
        let run = || {
            let model = phold_for(&cfg, 0.2, remote, 2_000);
            run_virtual(Arc::new(model), cfg, |shared| make_bundle(kind, shared))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.committed, b.committed);
        prop_assert_eq!(a.state_fingerprint, b.state_fingerprint);
        prop_assert_eq!(a.sched_steps, b.sched_steps);
        prop_assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    /// Tracing is purely observational: the same run with no sink and
    /// with the full ring-buffer recorder commits identical events and
    /// states (matching the sequential oracle), takes the same number of
    /// scheduler steps, reports the same worker counters, and the same
    /// holds with a fault plan active.
    #[test]
    fn tracing_never_perturbs(
        kind in arb_kind(),
        seed in any::<u32>(),
        remote in 0.0f64..0.3,
        severity in 0.1f64..1.0,
        fault_seed in any::<u32>(),
    ) {
        let mut cfg = SimConfig::small(2, 2);
        cfg.lps_per_worker = 4;
        cfg.end_time = 10.0;
        cfg.seed = seed as u64 | 0x7ACE_0000_0000;
        let model = phold_for(&cfg, 0.2, remote, 2_000);

        let run = |trace: Option<Arc<dyn TraceSink>>| {
            let vcfg = VirtualConfig { trace, ..Default::default() };
            run_virtual_with(Arc::new(model.clone()), cfg, vcfg, |shared| {
                make_bundle(kind, shared)
            })
        };
        let plain = run(None);
        let recorder = TraceRecorder::new();
        let ring = run(Some(recorder.clone() as Arc<dyn TraceSink>));
        prop_assert!(recorder.recorded() > 0, "recorder saw no records");

        let seq = SequentialSim::new(Arc::new(model.clone()), cfg).run();
        prop_assert_eq!(plain.committed, seq.processed);
        prop_assert_eq!(plain.state_fingerprint, seq.fingerprint);
        prop_assert_eq!(ring.committed, plain.committed);
        prop_assert_eq!(ring.state_fingerprint, plain.state_fingerprint);
        prop_assert_eq!(ring.sched_steps, plain.sched_steps);
        prop_assert_eq!(ring.sim_seconds, plain.sim_seconds);
        prop_assert_eq!(ring.workers, plain.workers);

        // With a fault plan active the recorder still changes nothing —
        // faulted-and-traced matches faulted-untraced bit for bit, and
        // both still commit the clean run's events.
        let span = WallNs(((plain.sim_seconds * 1e9) as u64).max(1_000_000));
        let spec = FaultSpec::new(severity, fault_seed as u64, span);
        let plan = FaultPlan::generate(&cfg.spec, &spec);
        let faulted = |trace: Option<Arc<dyn TraceSink>>| {
            let rt = Arc::new(FaultRuntime::new(cfg.spec, &plan, spec.seed));
            let vcfg = VirtualConfig {
                faults: Some(rt as Arc<dyn FaultInjector>),
                trace,
                ..Default::default()
            };
            run_virtual_with(Arc::new(model.clone()), cfg, vcfg, |shared| {
                make_bundle(kind, shared)
            })
        };
        let fplain = faulted(None);
        let ftraced = faulted(Some(TraceRecorder::new() as Arc<dyn TraceSink>));
        prop_assert_eq!(ftraced.committed, fplain.committed);
        prop_assert_eq!(ftraced.state_fingerprint, fplain.state_fingerprint);
        prop_assert_eq!(ftraced.sched_steps, fplain.sched_steps);
        prop_assert_eq!(ftraced.sim_seconds, fplain.sim_seconds);
        prop_assert_eq!(ftraced.workers, fplain.workers);
        prop_assert_eq!(fplain.committed, plain.committed);
        prop_assert_eq!(fplain.state_fingerprint, plain.state_fingerprint);
    }

    /// Metrics observation is purely observational (mirror of
    /// `tracing_never_perturbs`): the same run with no sink and with a
    /// full recording registry commits identical events and states
    /// (matching the sequential oracle), takes the same number of
    /// scheduler steps, reports the same worker counters (both read them
    /// from the workers' one counter slot), and the same holds with a
    /// fault plan active.
    #[test]
    fn metrics_never_perturb(
        kind in arb_kind(),
        seed in any::<u32>(),
        remote in 0.0f64..0.3,
        severity in 0.1f64..1.0,
        fault_seed in any::<u32>(),
    ) {
        let mut cfg = SimConfig::small(2, 2);
        cfg.lps_per_worker = 4;
        cfg.end_time = 10.0;
        cfg.seed = seed as u64 | 0x3E7_0000_0000;
        let model = phold_for(&cfg, 0.2, remote, 2_000);

        let run = |metrics: Option<Arc<dyn MetricsSink>>| {
            let vcfg = VirtualConfig { metrics, ..Default::default() };
            run_virtual_with(Arc::new(model.clone()), cfg, vcfg, |shared| {
                make_bundle(kind, shared)
            })
        };
        let plain = run(None);
        let registry = Arc::new(MetricsRegistry::new());
        let metered = run(Some(registry.clone() as Arc<dyn MetricsSink>));
        prop_assert!(!registry.is_empty(), "registry saw no epochs");
        // The recorded stream is coherent: rounds strictly increase and
        // every windowed delta stays within the cumulative totals.
        let epochs = registry.epochs();
        for w in epochs.windows(2) {
            prop_assert!(w[1].round > w[0].round);
            prop_assert!(w[1].gvt >= w[0].gvt);
        }
        let committed_sum: u64 = epochs.iter().map(|e| e.committed_delta).sum();
        prop_assert!(committed_sum <= metered.committed);

        let seq = SequentialSim::new(Arc::new(model.clone()), cfg).run();
        prop_assert_eq!(plain.committed, seq.processed);
        prop_assert_eq!(plain.state_fingerprint, seq.fingerprint);
        let (r, p) = (&metered, &plain);
        prop_assert_eq!(r.committed, p.committed);
        prop_assert_eq!(r.state_fingerprint, p.state_fingerprint);
        prop_assert_eq!(r.sched_steps, p.sched_steps);
        prop_assert_eq!(r.sim_seconds, p.sim_seconds);
        prop_assert_eq!(r.workers, p.workers);
        prop_assert_eq!(r.gvt_time_mean, p.gvt_time_mean);
        prop_assert_eq!(r.barrier_wait_ns, p.barrier_wait_ns);

        // With a fault plan active the registry still changes nothing —
        // faulted-and-metered matches faulted-unmetered bit for bit, and
        // both still commit the clean run's events.
        let span = WallNs(((plain.sim_seconds * 1e9) as u64).max(1_000_000));
        let spec = FaultSpec::new(severity, fault_seed as u64, span);
        let plan = FaultPlan::generate(&cfg.spec, &spec);
        let faulted = |metrics: Option<Arc<dyn MetricsSink>>| {
            let rt = Arc::new(FaultRuntime::new(cfg.spec, &plan, spec.seed));
            let vcfg = VirtualConfig {
                faults: Some(rt as Arc<dyn FaultInjector>),
                metrics,
                ..Default::default()
            };
            run_virtual_with(Arc::new(model.clone()), cfg, vcfg, |shared| {
                make_bundle(kind, shared)
            })
        };
        let fplain = faulted(None);
        let fmetered = faulted(Some(Arc::new(MetricsRegistry::new()) as Arc<dyn MetricsSink>));
        prop_assert_eq!(fmetered.committed, fplain.committed);
        prop_assert_eq!(fmetered.state_fingerprint, fplain.state_fingerprint);
        prop_assert_eq!(fmetered.sched_steps, fplain.sched_steps);
        prop_assert_eq!(fmetered.sim_seconds, fplain.sim_seconds);
        prop_assert_eq!(fmetered.workers, fplain.workers);
        prop_assert_eq!(fplain.committed, plain.committed);
        prop_assert_eq!(fplain.state_fingerprint, plain.state_fingerprint);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The phase schedule always returns one of its segments and respects
    /// segment boundaries.
    #[test]
    fn phase_schedule_total(
        x in 1.0f64..40.0,
        y in 1.0f64..40.0,
        cycles in 1u32..8,
        p in 0.0f64..1.0,
    ) {
        let a = PholdParams::new(0.1, 0.01, 10_000);
        let b = PholdParams::new(0.9, 0.10, 5_000);
        let s = PhaseSchedule::alternating_cycles(x, a, y, b, cycles);
        let got = s.at(p);
        prop_assert!(got == a || got == b);
        // Position within the cycle decides the segment.
        let cycle = 1.0 / cycles as f64;
        let pos = (p / cycle).fract() * (x + y);
        if pos < x {
            prop_assert_eq!(got, a);
        } else {
            prop_assert_eq!(got, b);
        }
    }
}
