//! The forwarding wrappers must not change a run: at bench scale a traced
//! run reproduces the untraced run's results for every GVT algorithm and
//! workload preset, and its layer self times account for its wall time.

use cagvt_bench::Scale;
use cagvt_gvt::GvtKind;
use cagvt_hostbench::{
    calib, check, end_to_end_values, per_layer_values, Case, Layer, Metric, Preset, Probe,
    DEFAULT_SEED, END_TO_END, PER_LAYER,
};
use std::process::Command;

const PRESETS: [Preset; 3] = [Preset::Comp, Preset::Comm, Preset::Mixed10_15];

fn assert_wrapped_run_matches(kind: GvtKind, seed: u64) {
    for preset in PRESETS {
        let scale = Scale { seed, ..Scale::bench() };
        let case = Case::with_scale(kind, preset, 2, &scale);
        let oracle = case.oracle();
        let plain = case.run(None);
        let probe = Probe::new();
        let traced = case.run(Some(&probe));
        let (p, t) = (&plain.report, &traced.report);
        let what = format!("{kind:?} {preset:?} seed {seed:#x}");
        assert_eq!(t.committed, p.committed, "committed: {what}");
        assert_eq!(t.processed, p.processed, "processed: {what}");
        assert_eq!(t.rolled_back, p.rolled_back, "rolled_back: {what}");
        assert_eq!(t.sim_seconds, p.sim_seconds, "sim_seconds: {what}");
        assert_eq!(t.state_fingerprint, p.state_fingerprint, "state_fingerprint: {what}");
        check(p, &case.cfg, &oracle).unwrap_or_else(|m| panic!("untraced {what}: {m}"));
        check(t, &case.cfg, &oracle).unwrap_or_else(|m| panic!("traced {what}: {m}"));

        let layers = probe.totals();
        let mut self_sum = 0i64;
        for layer in Layer::ALL {
            let s = layers.get(layer);
            assert!(s.self_ns >= 0, "{} self time {} < 0: {what}", layer.name(), s.self_ns);
            assert!(s.self_ns as u64 <= s.total_ns, "{} self > total: {what}", layer.name());
            self_sum += s.self_ns;
        }
        let wall_ns = (traced.wall_s * 1e9) as i64;
        assert!(self_sum <= wall_ns, "self times {self_sum} ns exceed wall {wall_ns} ns: {what}");
        assert_eq!(layers.get(Layer::Exec).calls, 1);
        assert_eq!(
            layers.get(Layer::Exec).total_ns as i64,
            self_sum - layers.get(Layer::Report).self_ns
        );
        assert_eq!(layers.get(Layer::Worker).calls + layers.get(Layer::Mpi).calls, t.sched_steps);
        assert_eq!(layers.get(Layer::ModelHandle).calls, t.processed, "{what}");
        assert_eq!(layers.get(Layer::ModelReverse).calls, t.rolled_back, "{what}");
        assert!(layers.get(Layer::GvtWorker).calls > 0 && layers.get(Layer::GvtMpi).calls > 0);
    }
}

#[test]
fn barrier_wrapped_run_matches() {
    assert_wrapped_run_matches(GvtKind::Barrier, DEFAULT_SEED);
}

#[test]
fn mattern_wrapped_run_matches() {
    assert_wrapped_run_matches(GvtKind::Mattern, DEFAULT_SEED);
}

#[test]
fn ca_gvt_wrapped_run_matches() {
    assert_wrapped_run_matches(cagvt_bench::CA_HARNESS, DEFAULT_SEED);
}

#[test]
fn ca_gvt_queue_wrapped_run_matches() {
    assert_wrapped_run_matches(
        GvtKind::CaGvtQueue { threshold: 0.93, queue_threshold: 50 },
        DEFAULT_SEED,
    );
}

#[test]
fn samadi_wrapped_run_matches() {
    assert_wrapped_run_matches(GvtKind::Samadi, DEFAULT_SEED);
}

#[test]
fn second_seed_wrapped_run_matches() {
    assert_wrapped_run_matches(GvtKind::Mattern, 7);
}

#[test]
fn values_are_named_as_the_metric_definitions() {
    let case = Case::with_scale(GvtKind::Mattern, Preset::Comp, 1, &Scale::bench());
    let plain = case.run(None);
    let probe = Probe::new();
    let traced = case.run(Some(&probe));
    let names = |metrics: &[Metric]| metrics.iter().map(|m| m.name).collect::<Vec<_>>();
    let e2e = end_to_end_values(&plain, 1.0);
    assert_eq!(e2e.map(|(n, _)| n).to_vec(), names(&END_TO_END));
    let per_layer = per_layer_values(&traced, &probe.totals(), &plain, case.cfg.total_lps(), 0.3);
    assert_eq!(per_layer.map(|(n, _)| n).to_vec(), names(&PER_LAYER));
    let value = |name| per_layer.iter().find(|(n, _)| *n == name).expect("named metric").1;
    assert_eq!(value("exec.steps"), traced.report.sched_steps as f64);
    assert_eq!(value("models.handle_calls"), traced.report.processed as f64);
    assert_eq!(value("gvt.rounds"), traced.report.gvt_rounds as f64);
}

#[test]
fn calibration_kernel_is_deterministic() {
    assert_eq!(calib::run().1, calib::CHECKSUM);
    assert_eq!(calib::run().1, calib::CHECKSUM);
}

#[test]
fn check_names_the_first_differing_field() {
    let case = Case::with_scale(GvtKind::Mattern, Preset::Comm, 1, &Scale::bench());
    let oracle = case.oracle();
    let good = case.run(None).report;
    assert_eq!(check(&good, &case.cfg, &oracle), Ok(()));

    let field = |mutate: &dyn Fn(&mut cagvt_core::RunReport)| {
        let mut r = good.clone();
        mutate(&mut r);
        check(&r, &case.cfg, &oracle).expect_err("mutated report must fail").field
    };
    assert_eq!(field(&|r| r.completed = false), "completed");
    assert_eq!(field(&|r| r.processed += 1), "conservation");
    assert_eq!(
        field(&|r| {
            r.committed += 1;
            r.processed += 1;
        }),
        "committed"
    );
    assert_eq!(field(&|r| r.state_fingerprint ^= 1), "state_fingerprint");
}

#[test]
fn refuses_to_run_with_cagvt_trace_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", "comp-mattern-2n", "--seconds", "0"])
        .env("CAGVT_TRACE", "all")
        .output()
        .expect("run hostbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}

#[test]
fn benchmark_json_is_the_manifest_this_benchmark_defines() {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .arg("--manifest")
        .output()
        .expect("run hostbench --manifest");
    assert!(out.status.success());
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(String::from_utf8_lossy(&out.stdout), committed, "regenerate with --manifest");
}
