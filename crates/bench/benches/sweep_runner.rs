//! Criterion group for the parallel sweep runner: one figure grid executed
//! serially and with a small thread pool, so the harness's own speedup is
//! measured under Criterion.

use cagvt_bench::{base_config, execute_with, run_one, RunSpec, Scale, NODE_COUNTS};
use cagvt_gvt::GvtKind;
use cagvt_models::presets::comp_dominated;
use cagvt_net::MpiMode;
use criterion::{criterion_group, criterion_main, Criterion};

/// The fig5 grid (Mattern vs Barrier over the node-count axis) at bench
/// scale, as specs — the same shape `figures fig5` runs.
fn fig5_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (kind, series) in [(GvtKind::Mattern, "mattern"), (GvtKind::Barrier, "barrier")] {
        for &nodes in &NODE_COUNTS {
            specs.push(RunSpec::new("fig5", series.to_string(), nodes, move || {
                let cfg = base_config(nodes, MpiMode::Dedicated, 25, &Scale::bench());
                run_one(kind, &comp_dominated(&cfg), cfg)
            }));
        }
    }
    specs
}

fn sweep_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_runner");
    group.sample_size(10);
    group.bench_function("fig5_serial", |b| b.iter(|| execute_with(fig5_specs(), 1)));
    group.bench_function("fig5_threads_4", |b| b.iter(|| execute_with(fig5_specs(), 4)));
    group.finish();
}

criterion_group!(benches, sweep_runner);
criterion_main!(benches);
