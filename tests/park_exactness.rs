//! Park-and-wake scheduling must not move a single counter. Every
//! `GvtKind` × `MpiMode` at bench scale, throttle-bound, short-backoff and
//! short-interval variants and two runs under a straggle-and-stall fault
//! plan reproduce the values the polling scheduler produced (the table
//! below). Each poll the scheduler skipped for a parked worker counts once
//! in `sched_skipped_polls`, so executed plus skipped steps equal the
//! polling scheduler's step count. Skipped held polls (a worker held at a
//! GVT barrier) are progress steps, so only the other skipped polls add to
//! the polling scheduler's idle steps.

use cagvt::prelude::*;
use cagvt_base::NodeId;
use cagvt_bench::{base_config, run_one_observed, Scale, CA_HARNESS};
use cagvt_models::presets::{comm_dominated, mixed_model};
use cagvt_net::MpiMode;
use std::sync::Arc;

/// Values of one run under the polling scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pinned {
    sched_steps: u64,
    sched_idle_steps: u64,
    throttled_steps: u64,
    requests_interval: u64,
    requests_idle: u64,
    final_ns: u64,
    committed: u64,
    state_fingerprint: u64,
    straggled_steps: u64,
    stalled_pumps: u64,
}

/// How a row's run deviates from the plain COMM-PHOLD run.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Plain,
    /// Mixed 10-15 model with a 30-event optimism window, so many idle
    /// polls are throttle-bound.
    Throttled,
    /// COMM-PHOLD under [`straggle_and_stall`].
    Faulted,
    /// COMM-PHOLD with a 300 ns idle-request backoff, so idle workers
    /// raise requests while other workers are still ending the previous
    /// round (the `last_round_wall` pace wake).
    Paced,
    /// COMM-PHOLD with a GVT interval of 5 instead of 25, so Barrier runs
    /// many more rounds and its workers are often held.
    Interval5,
}

const CAQ: GvtKind = GvtKind::CaGvtQueue { threshold: 0.93, queue_threshold: 50 };
const FP_COMM: u64 = 515008707996342891;
const FP_MIXED: u64 = 15811135943971844012;

#[rustfmt::skip]
const PINNED: &[(GvtKind, MpiMode, Variant, Pinned)] = &[
    (GvtKind::Barrier, MpiMode::Dedicated, Variant::Plain, pin(118339, 80209, 0, 1290, 1, 1297750, 2701, FP_COMM, 0, 0)),
    (GvtKind::Barrier, MpiMode::InlineWorker, Variant::Plain, pin(234306, 122774, 0, 2627, 1, 2290840, 2701, FP_COMM, 0, 0)),
    (GvtKind::Barrier, MpiMode::PerWorker, Variant::Plain, pin(214639, 116686, 0, 2456, 1, 2203850, 2701, FP_COMM, 0, 0)),
    (GvtKind::Mattern, MpiMode::Dedicated, Variant::Plain, pin(103921, 100444, 0, 7946, 20014, 1194500, 2701, FP_COMM, 0, 0)),
    (GvtKind::Mattern, MpiMode::InlineWorker, Variant::Plain, pin(165298, 161675, 0, 17381, 30505, 1827140, 2701, FP_COMM, 0, 0)),
    (GvtKind::Mattern, MpiMode::PerWorker, Variant::Plain, pin(158725, 155044, 0, 15678, 27935, 1851650, 2701, FP_COMM, 0, 0)),
    (GvtKind::Samadi, MpiMode::Dedicated, Variant::Plain, pin(91635, 87963, 0, 115, 582, 1212900, 2701, FP_COMM, 0, 0)),
    (GvtKind::Samadi, MpiMode::InlineWorker, Variant::Plain, pin(214088, 209341, 0, 2028, 1479, 2327340, 2701, FP_COMM, 0, 0)),
    (GvtKind::Samadi, MpiMode::PerWorker, Variant::Plain, pin(178328, 173938, 0, 1760, 1521, 2493940, 2701, FP_COMM, 0, 0)),
    (CA_HARNESS, MpiMode::Dedicated, Variant::Plain, pin(139109, 132036, 0, 9997, 20025, 1403000, 2701, FP_COMM, 0, 0)),
    (CA_HARNESS, MpiMode::InlineWorker, Variant::Plain, pin(150197, 124528, 0, 20754, 7291, 1729740, 2701, FP_COMM, 0, 0)),
    (CA_HARNESS, MpiMode::PerWorker, Variant::Plain, pin(199636, 164477, 0, 14239, 20064, 2128840, 2701, FP_COMM, 0, 0)),
    (CAQ, MpiMode::Dedicated, Variant::Plain, pin(139109, 132036, 0, 9997, 20025, 1403000, 2701, FP_COMM, 0, 0)),
    (CAQ, MpiMode::InlineWorker, Variant::Plain, pin(150197, 124528, 0, 20754, 7291, 1729740, 2701, FP_COMM, 0, 0)),
    (CAQ, MpiMode::PerWorker, Variant::Plain, pin(199636, 164477, 0, 14239, 20064, 2128840, 2701, FP_COMM, 0, 0)),
    (GvtKind::Mattern, MpiMode::Dedicated, Variant::Throttled, pin(390422, 386477, 237922, 31924, 60209, 2978750, 2716, FP_MIXED, 0, 0)),
    (CA_HARNESS, MpiMode::Dedicated, Variant::Throttled, pin(392880, 386567, 237968, 31919, 60312, 2997450, 2716, FP_MIXED, 0, 0)),
    (GvtKind::Samadi, MpiMode::Dedicated, Variant::Throttled, pin(159858, 155930, 73144, 124, 1160, 1703700, 2716, FP_MIXED, 0, 0)),
    (GvtKind::Barrier, MpiMode::Dedicated, Variant::Throttled, pin(146859, 105816, 19420, 1366, 1, 1594000, 2716, FP_MIXED, 0, 0)),
    (GvtKind::Mattern, MpiMode::Dedicated, Variant::Faulted, pin(125694, 121740, 0, 12246, 17061, 1589325, 2701, FP_COMM, 41371, 447)),
    (CA_HARNESS, MpiMode::Dedicated, Variant::Faulted, pin(136331, 124401, 0, 10326, 16760, 1668700, 2701, FP_COMM, 45539, 433)),
    (GvtKind::Mattern, MpiMode::Dedicated, Variant::Paced, pin(66876, 63325, 0, 7946, 47998, 982150, 2701, FP_COMM, 0, 0)),
    (GvtKind::Samadi, MpiMode::Dedicated, Variant::Paced, pin(26876, 22856, 0, 105, 15023, 847650, 2701, FP_COMM, 0, 0)),
    (GvtKind::Barrier, MpiMode::Dedicated, Variant::Interval5, pin(343259, 98004, 0, 8134, 1, 2732150, 2701, FP_COMM, 0, 0)),
    (CA_HARNESS, MpiMode::InlineWorker, Variant::Throttled, pin(302670, 291806, 188823, 42778, 40389, 2838190, 2716, FP_MIXED, 0, 0)),
];

#[allow(clippy::too_many_arguments)]
const fn pin(
    sched_steps: u64,
    sched_idle_steps: u64,
    throttled_steps: u64,
    requests_interval: u64,
    requests_idle: u64,
    final_ns: u64,
    committed: u64,
    state_fingerprint: u64,
    straggled_steps: u64,
    stalled_pumps: u64,
) -> Pinned {
    Pinned {
        sched_steps,
        sched_idle_steps,
        throttled_steps,
        requests_interval,
        requests_idle,
        final_ns,
        committed,
        state_fingerprint,
        straggled_steps,
        stalled_pumps,
    }
}

/// Node 1 straggles at 3/2 cost and node 0's MPI pump stalls 2 µs per
/// call, both inside the run's makespan.
fn straggle_and_stall(cfg: &SimConfig) -> Arc<dyn FaultInjector> {
    let plan = FaultPlan {
        perturbations: vec![
            Perturbation::NodeStraggle {
                node: NodeId(1),
                from: WallNs(200_000),
                until: WallNs(2_000_000),
                num: 3,
                den: 2,
            },
            Perturbation::MpiStall {
                node: NodeId(0),
                from: WallNs(500_000),
                until: WallNs(1_500_000),
                stall: WallNs(2_000),
            },
        ],
    };
    Arc::new(FaultRuntime::new(cfg.spec, &plan, 0xFA17))
}

/// The run of one table row: two nodes at bench scale.
fn run(kind: GvtKind, mode: MpiMode, variant: Variant) -> RunReport {
    let mut cfg = base_config(2, mode, 25, &Scale::bench());
    match variant {
        Variant::Plain => run_one_observed(kind, &comm_dominated(&cfg), cfg, None, None, None),
        Variant::Throttled => {
            cfg.max_outstanding = 30;
            run_one_observed(kind, &mixed_model(&cfg, 10.0, 15.0), cfg, None, None, None)
        }
        Variant::Faulted => {
            let faults = Some(straggle_and_stall(&cfg));
            run_one_observed(kind, &comm_dominated(&cfg), cfg, faults, None, None)
        }
        Variant::Paced => {
            cfg.idle_request_backoff = WallNs(300);
            run_one_observed(kind, &comm_dominated(&cfg), cfg, None, None, None)
        }
        Variant::Interval5 => {
            let cfg = base_config(2, mode, 5, &Scale::bench());
            run_one_observed(kind, &comm_dominated(&cfg), cfg, None, None, None)
        }
    }
}

#[test]
fn parked_runs_reproduce_the_polling_scheduler() {
    for &(kind, mode, variant, want) in PINNED {
        let r = run(kind, mode, variant);
        let (skipped, held) = (r.sched_skipped_polls, r.sched_skipped_held);
        let got = Pinned {
            sched_steps: r.sched_steps + skipped,
            sched_idle_steps: r.sched_idle_steps + skipped - held,
            throttled_steps: r.workers.throttled,
            requests_interval: r.workers.requests_interval,
            requests_idle: r.workers.requests_idle,
            final_ns: (r.sim_seconds * 1e9).round() as u64,
            committed: r.committed,
            state_fingerprint: r.state_fingerprint,
            straggled_steps: r.faults.straggled_steps,
            stalled_pumps: r.faults.stalled_pumps,
        };
        assert_eq!(got, want, "{kind:?} {mode:?} {variant:?} ({skipped} polls skipped)");
        // Workers with a dedicated MPI thread wait on notified state under
        // every algorithm, and are held at barriers under Barrier and
        // CA-GVT; both kinds of poll park.
        if mode == MpiMode::Dedicated {
            assert!(skipped > held, "{kind:?} {variant:?}: idle workers must park");
            let holds = matches!(
                kind,
                GvtKind::Barrier | GvtKind::CaGvt { .. } | GvtKind::CaGvtQueue { .. }
            );
            assert!(!holds || held > 0, "{kind:?} {variant:?}: held workers must park");
        }
    }
}
