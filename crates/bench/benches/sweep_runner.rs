//! Criterion group for the parallel sweep runner: one figure grid executed
//! serially and with a small thread pool, so the harness's own speedup is
//! measured under Criterion.

use cagvt_bench::{fig5, grid_with, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

fn sweep_runner(c: &mut Criterion) {
    // The fig5 cell table (Mattern vs Barrier over the node-count axis) at
    // bench scale — the same grid `figures fig5 --bench-scale` runs.
    let cells = fig5(&Scale::bench());
    let mut group = c.benchmark_group("sweep_runner");
    group.sample_size(10);
    group.bench_function("fig5_serial", |b| b.iter(|| grid_with("fig5", cells.clone(), 1)));
    group.bench_function("fig5_threads_4", |b| b.iter(|| grid_with("fig5", cells.clone(), 4)));
    group.finish();
}

criterion_group!(benches, sweep_runner);
criterion_main!(benches);
