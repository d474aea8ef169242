//! Microbenchmarks of the engine's hot structures: pending-set operations,
//! LP history (process, log sends, fossil collect), rollback, RNG, mailbox,
//! and the EPG-sweep configuration from the paper's §4 text (Barrier GVT
//! time vs event granularity).

use cagvt_base::ids::{EventId, LpId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::{MetricsSink, TraceSink};
use cagvt_bench::{base_config, run_one, run_one_observed, Scale};
use cagvt_core::event::Event;
use cagvt_core::lp::{LpTable, RollbackStrategy};
use cagvt_core::queue::PendingSet;
use cagvt_core::{RunReport, SimConfig};
use cagvt_gvt::GvtKind;
use cagvt_metrics::MetricsRegistry;
use cagvt_models::phold::{PhaseSchedule, PholdModel, PholdParams};
use cagvt_models::presets::Workload;
use cagvt_net::{Mailbox, MpiMode};
use cagvt_trace::TraceRecorder;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

fn ev(t: f64, seq: u32) -> Event<u32> {
    ev_at(0, t, seq)
}

fn ev_at(dst: u32, t: f64, seq: u32) -> Event<u32> {
    Event {
        recv_time: VirtualTime::new(t),
        dst: LpId(dst),
        id: EventId::new(LpId(0), seq),
        payload: 0,
    }
}

/// The `_1k` rows put all 1 000 events on one LP, the per-LP chains' worst
/// case; `insert_pop_1k_128lp` spreads them over one worker's 128 LPs, the
/// harness geometry.
fn pending_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("pending_set");
    group.bench_function("insert_pop_1k", |b| {
        let mut rng = Pcg32::new(1, 1);
        b.iter_batched(
            || (0..1_000).map(|i| ev(rng.next_f64() * 100.0, i)).collect::<Vec<_>>(),
            |events| {
                let mut ps = PendingSet::new(LpId(0), 1);
                for e in events {
                    ps.insert(e);
                }
                while ps.pop_min().is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("insert_pop_1k_128lp", |b| {
        let mut rng = Pcg32::new(1, 1);
        b.iter_batched(
            || {
                (0..1_000)
                    .map(|i| ev_at(rng.next_bounded(128), rng.next_f64() * 100.0, i))
                    .collect::<Vec<_>>()
            },
            |events| {
                let mut ps = PendingSet::new(LpId(0), 128);
                for e in events {
                    ps.insert(e);
                }
                while ps.pop_min().is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cancel_half_1k", |b| {
        let mut rng = Pcg32::new(2, 2);
        b.iter_batched(
            || (0..1_000).map(|i| ev(rng.next_f64() * 100.0, i)).collect::<Vec<_>>(),
            |events| {
                let mut ps = PendingSet::new(LpId(0), 1);
                let keys: Vec<_> = events.iter().map(|e| e.key()).collect();
                for e in events {
                    ps.insert(e);
                }
                for k in keys.iter().step_by(2) {
                    ps.cancel(LpId(0), *k);
                }
                while ps.pop_min().is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One worker's LP history at `comp-mattern-2n` size: 128 COMP-PHOLD LPs
/// under reverse computation, rounds of 40 one-send events on random LPs
/// (the table stamps and logs each send), then a fossil pass over every
/// LP at a GVT that trails the newest event by half a round. Measures the
/// history push, send logging and commit cost without routing or GVT.
fn lp_history(c: &mut Criterion) {
    const LPS: u32 = 128;
    const ROUNDS: usize = 500;
    const EVENTS_PER_ROUND: usize = 40;
    let mut group = c.benchmark_group("lp_history");
    let mut cfg = SimConfig::paper(2);
    (cfg.end_time, cfg.seed, cfg.rollback) = (1e9, 1, Some(RollbackStrategy::Reverse));
    assert_eq!(cfg.lps_per_worker, LPS);
    let model = Arc::new(PholdModel::new(
        &cfg,
        PhaseSchedule::constant(PholdParams::new(0.10, 0.01, 10_000)),
    ));
    let lps = || LpTable::new(Arc::clone(&model), &cfg, LpId(0), LPS);
    group.bench_function("phold_128lp_40ev_rounds", |b| {
        b.iter_batched(
            lps,
            |mut lps| {
                let mut rng = Pcg32::new(4, 4);
                let mut sent = Vec::new();
                let mut t = 0.0;
                let mut committed = 0u64;
                for round in 0..ROUNDS {
                    for k in 0..EVENTS_PER_ROUND {
                        t += 0.01;
                        let dst = LpId(rng.next_bounded(LPS));
                        let now = VirtualTime::new(t);
                        let seq = (round * EVENTS_PER_ROUND + k) as u32;
                        let event = Event {
                            recv_time: now,
                            dst,
                            id: EventId::new(LpId(LPS), seq),
                            payload: 0,
                        };
                        lps.process(dst.index(), event, &mut sent);
                        sent.clear();
                    }
                    let gvt = VirtualTime::new(t - 0.01 * (EVENTS_PER_ROUND / 2) as f64);
                    for k in 0..lps.len() {
                        committed += lps.fossil_collect(k, gvt);
                    }
                }
                committed
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn rng_and_mailbox(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group.bench_function("pcg32_exp_draws_1k", |b| {
        let mut rng = Pcg32::new(3, 3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000 {
                acc += rng.next_exp(1.0);
            }
            acc
        })
    });
    group.bench_function("mailbox_push_pop_1k", |b| {
        b.iter(|| {
            let mb: Mailbox<u64> = Mailbox::new();
            for i in 0..1_000u64 {
                mb.push(WallNs(i), i);
            }
            let mut n = 0;
            while mb.pop_ready(WallNs(u64::MAX)).is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

/// Paper §4 text: Barrier GVT function time grows with EPG (10K -> 40K).
fn epg_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("epg_sweep_barrier");
    group.sample_size(10);
    let scale = Scale::bench();
    for epg in [10_000u64, 40_000] {
        group.bench_function(format!("epg_{epg}"), |b| {
            b.iter(|| {
                let cfg = base_config(2, MpiMode::Dedicated, 25, &scale);
                let workload = Workload {
                    name: format!("epg-{epg}"),
                    model: PholdModel::new(
                        &cfg,
                        PhaseSchedule::constant(PholdParams::new(0.10, 0.01, epg)),
                    ),
                };
                run_one(GvtKind::Barrier, &workload, cfg)
            })
        });
    }
    group.finish();
}

/// The two rollback strategies on a rollback-heavy PHOLD run: per-event
/// snapshots vs reverse computation. Results are identical (the test suite
/// proves it); this measures the host-side cost difference of the history
/// machinery.
fn rollback_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollback_strategy");
    group.sample_size(10);
    let scale = Scale::bench();
    for (name, rollback) in
        [("reverse", RollbackStrategy::Reverse), ("snapshot", RollbackStrategy::Snapshot)]
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = base_config(2, MpiMode::Dedicated, 25, &scale);
                cfg.rollback = Some(rollback);
                let workload = cagvt_models::presets::comm_dominated(&cfg);
                run_one(GvtKind::Mattern, &workload, cfg)
            })
        });
    }
    group.finish();
}

/// The overhead groups' workload: COMM-PHOLD under Mattern on 2 nodes at
/// bench scale, with the given observers.
fn observed_run(
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<dyn MetricsSink>>,
) -> RunReport {
    let cfg = base_config(2, MpiMode::Dedicated, 25, &Scale::bench());
    let workload = cagvt_models::presets::comm_dominated(&cfg);
    run_one_observed(GvtKind::Mattern, &workload, cfg, None, trace, metrics)
}

/// Cost of the tracing hook: the same run with no sink installed (one
/// `Option` branch per hook) and with the full ring-buffer recorder.
fn trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    let run = |trace| observed_run(trace, None);
    group.bench_function("no_sink", |b| b.iter(|| run(None)));
    group.bench_function("ring_recorder", |b| b.iter(|| run(Some(TraceRecorder::new()))));
    group.finish();
}

/// Cost of the metrics hook: the same run with no sink installed (one
/// `Option` branch per GVT round) and with the full in-memory registry,
/// which is cheap because the hook fires per GVT round, not per event.
fn metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    let run = |metrics| observed_run(None, metrics);
    group.bench_function("no_sink", |b| b.iter(|| run(None)));
    group.bench_function("registry", |b| b.iter(|| run(Some(Arc::new(MetricsRegistry::new())))));
    group.finish();
}

criterion_group!(
    benches,
    pending_set,
    lp_history,
    rng_and_mailbox,
    epg_sweep,
    rollback_strategies,
    trace_overhead,
    metrics_overhead
);
criterion_main!(benches);
