//! End-to-end tests: the optimistic engine, driven by each *real* GVT
//! algorithm, must terminate and commit exactly the sequential reference's
//! events and states, on every topology and MPI mode. Every run goes
//! through a step valve, so a liveness regression fails in seconds instead
//! of spinning.

use cagvt_base::ids::{ActorId, LaneId, NodeId};
use cagvt_base::time::VirtualTime;
use cagvt_core::cluster::{build_cluster, build_shared, run_virtual_with};
use cagvt_core::gvt::{GvtBundle, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};
use cagvt_core::seq::SequentialSim;
use cagvt_core::testmodel::MiniHold;
use cagvt_core::{RunReport, SimConfig};
use cagvt_exec::VirtualConfig;
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_net::{MpiMode, MsgClass};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Scheduler steps any run here may take; the largest takes well under a
/// fifth of this.
const MAX_STEPS: u64 = 2_000_000;

fn run(kind: GvtKind, model: MiniHold, cfg: SimConfig) -> RunReport {
    let vcfg = VirtualConfig { max_steps: Some(MAX_STEPS), ..Default::default() };
    run_virtual_with(Arc::new(model), cfg, vcfg, |shared| make_bundle(kind, shared))
}

fn assert_matches_sequential(kind: GvtKind, model: MiniHold, cfg: SimConfig) -> RunReport {
    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    let report = run(kind, model, cfg);
    report.check_conservation(cfg.end_vt());
    assert_eq!(report.committed, seq.processed, "committed mismatch\n{report}");
    assert_eq!(report.state_fingerprint, seq.fingerprint, "state mismatch\n{report}");
    report
}

/// Every algorithm the matrix tests run. Samadi is left out: on the
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
        for workers in [1, 3, 4] {
            let mut cfg = SimConfig::small(1, workers);
            cfg.end_time = 40.0;
            let report = assert_matches_sequential(kind, MiniHold::default(), cfg);
            assert!(report.gvt_rounds > 0, "{kind:?} must run rounds\n{report}");
            assert_eq!(
                report.workers.sent_regional > 0,
                workers > 1,
                "cross-worker traffic\n{report}"
            );
            assert_eq!(report.workers.sent_remote, 0, "one node sends nothing remote\n{report}");
        }
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
        assert!(report.workers.sent_remote > 0, "{kind:?}: remote traffic expected");
        assert!(report.workers.sent_regional > 0, "{kind:?}: cross-worker traffic expected");
        assert!(report.gvt_rounds > 1, "{kind:?}: several rounds expected\n{report}");
    }
}

/// The rollback-heavy configuration: two nodes of two workers, most
/// traffic remote, and enough work per event that stragglers are common.
fn rollback_heavy(end_time: f64) -> (MiniHold, SimConfig) {
    let mut cfg = SimConfig::small(2, 2);
    cfg.end_time = end_time;
    (MiniHold { far_fraction: 0.7, epg: 200, ..Default::default() }, cfg)
}

#[test]
fn rollback_heavy_runs_stay_correct() {
    for kind in all_kinds() {
        let (model, cfg) = rollback_heavy(40.0);
        let report = assert_matches_sequential(kind, model, cfg);
        assert!(report.workers.rollbacks > 0, "{kind:?}: rollbacks expected\n{report}");
        assert!(report.workers.antis_sent > 0, "{kind:?}: anti-messages expected\n{report}");
    }
}

/// The paper's thesis on the rollback-heavy configuration: as the end
/// time doubles from 15 to 30, Mattern's count-only throttle lets
/// optimism thrash and its efficiency more than halves, while CA-GVT
/// holds its efficiency and stays within a factor of two of the
/// synchronous barrier's.
#[test]
fn ca_gvt_efficiency_holds_while_mattern_decays() {
    let efficiency = |kind: GvtKind, end_time: f64| {
        let (model, cfg) = rollback_heavy(end_time);
        assert_matches_sequential(kind, model, cfg).efficiency
    };
    let barrier_30 = efficiency(GvtKind::Barrier, 30.0);
    let (ca_15, ca_30) =
        (efficiency(GvtKind::CA_DEFAULT, 15.0), efficiency(GvtKind::CA_DEFAULT, 30.0));
    let (mattern_15, mattern_30) =
        (efficiency(GvtKind::Mattern, 15.0), efficiency(GvtKind::Mattern, 30.0));
    assert!(ca_30 >= 0.5 * barrier_30, "CA-GVT {ca_30} vs Barrier {barrier_30} at end 30");
    assert!(ca_30 >= 0.8 * ca_15, "CA-GVT decays: {ca_15} at end 15, {ca_30} at end 30");
    assert!(
        mattern_30 <= 0.5 * mattern_15,
        "Mattern holds: {mattern_15} at end 15, {mattern_30} at end 30"
    );
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

/// The seed alone decides a run: the same seed repeats it exactly, another
/// seed changes the result.
#[test]
fn runs_are_deterministic_per_algorithm() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.end_time = 25.0;
        let a = run(kind, MiniHold::default(), cfg);
        let b = run(kind, MiniHold::default(), cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.state_fingerprint, b.state_fingerprint);
        assert_eq!(a.sched_steps, b.sched_steps, "{kind:?} schedule must be deterministic");
        assert_eq!(a.sim_seconds, b.sim_seconds);

        cfg.seed ^= 0x5EED;
        let reseeded = run(kind, MiniHold::default(), cfg);
        assert_ne!(reseeded.state_fingerprint, a.state_fingerprint, "{kind:?}");
    }
}

/// A worker whose cap is full of events later than its earliest pending
/// event holds the cluster's minimum, so GVT sits at that event's time and
/// can commit none of the capped events: only processing that event lets
/// GVT advance. Every algorithm must finish such runs, and the throttle
/// still engages and is counted.
#[test]
fn tight_throttles_never_stall_gvt() {
    let mut cfg = SimConfig::small(1, 2);
    cfg.end_time = 6.0;
    cfg.gvt_interval = 2;
    for kind in all_kinds().into_iter().chain([GvtKind::Samadi]) {
        for cap in [2, 4, 8] {
            cfg.max_outstanding = cap;
            let report = assert_matches_sequential(kind, MiniHold::default(), cfg);
            assert!(report.workers.throttled > 0, "{kind:?}: a cap of {cap} must engage\n{report}");
        }
    }
    // With the bound orders of magnitude looser it binds less, and the
    // results do not change.
    cfg.max_outstanding = 2;
    let tight = run(GvtKind::Mattern, MiniHold::default(), cfg);
    cfg.max_outstanding = 4096;
    let loose = assert_matches_sequential(GvtKind::Mattern, MiniHold::default(), cfg);
    assert!(loose.workers.throttled < tight.workers.throttled);
}

#[test]
fn throttle_keeps_memory_bounded_and_preserves_results() {
    for kind in all_kinds() {
        let mut cfg = SimConfig::small(2, 2);
        cfg.end_time = 30.0;
        cfg.max_outstanding = cfg.gvt_interval as usize; // tightest legal throttle
        assert_matches_sequential(kind, MiniHold::default(), cfg);
    }
}

#[test]
fn request_counters_are_populated() {
    let mut cfg = SimConfig::small(1, 2);
    cfg.end_time = 10.0;
    // Interval 1: every processed event raises a round request.
    cfg.gvt_interval = 1;
    cfg.max_outstanding = 64;
    let report = run(GvtKind::Mattern, MiniHold::default(), cfg);
    report.check_conservation(cfg.end_vt());
    assert!(report.workers.requests_interval > 0, "round requests must be recorded\n{report}");
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
fn shared_handles_expose_topology_and_gvt_state() {
    let cfg = SimConfig::small(2, 3);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    assert_eq!(shared.nodes.len(), 2);
    assert_eq!(shared.cfg.total_lps(), 2 * 3 * cfg.lps_per_worker);
    let bundle = make_bundle(GvtKind::Mattern, &shared);
    assert_eq!(bundle.name(), "mattern");
    let bundle = make_bundle(GvtKind::CA_DEFAULT, &shared);
    assert_eq!(bundle.name(), "ca-gvt");
    let bundle = make_bundle(GvtKind::Barrier, &shared);
    assert_eq!(bundle.name(), "barrier");
    let bundle = make_bundle(GvtKind::Samadi, &shared);
    assert_eq!(bundle.name(), "samadi");
}

/// Every actor `build_cluster` returns carries the id `ClusterSpec` gives
/// its owner (the node and lane in its label), and `actor_node` maps the
/// id back to that node, in every MPI mode.
#[test]
fn build_cluster_numbers_actors_by_the_cluster_spec() {
    for mode in [MpiMode::Dedicated, MpiMode::InlineWorker, MpiMode::PerWorker] {
        let mut cfg = SimConfig::small(3, 2);
        cfg.spec.mpi_mode = mode;
        let spec = cfg.spec;
        let shared = build_shared(Arc::new(MiniHold::default()), cfg);
        let bundle = make_bundle(GvtKind::Mattern, &shared);
        let (actors, _) = build_cluster(shared, &*bundle);
        let mpi_actors = if mode == MpiMode::Dedicated { 3 } else { 0 };
        assert_eq!(actors.len(), 6 + mpi_actors, "{mode:?}");
        for actor in &actors {
            let (id, label) = (actor.id(), actor.label());
            let node = if let Some(worker) = label.strip_prefix("worker@n") {
                let (node, lane) = worker.split_once('.').expect("worker label");
                let node = NodeId(node.parse().expect("node"));
                let lane = LaneId(lane.parse().expect("lane"));
                assert_eq!(id, ActorId(spec.worker_index(node, lane)), "{mode:?} {label}");
                node
            } else {
                let node = label.strip_prefix("mpi@n").expect("an MPI actor");
                let node = NodeId(node.parse().expect("node"));
                assert_eq!(id, spec.mpi_actor(node), "{mode:?} {label}");
                node
            };
            assert_eq!(spec.actor_node(id), node, "{mode:?} {label}");
        }
    }
}

/// Message classes the GVT worker halves were told of: `[regional, remote]`.
#[derive(Default)]
struct ClassLog {
    sends: [AtomicU64; 2],
    recvs: [AtomicU64; 2],
}

impl ClassLog {
    fn slot(class: MsgClass) -> usize {
        match class {
            MsgClass::Regional => 0,
            MsgClass::Remote => 1,
            MsgClass::Local => panic!("local messages never reach the GVT half"),
        }
    }
}

/// A bundle whose worker halves log each message's class, then defer to
/// the wrapped algorithm.
struct Recording {
    inner: Box<dyn GvtBundle>,
    log: Arc<ClassLog>,
}

struct RecordingWorker {
    inner: Box<dyn WorkerGvt>,
    log: Arc<ClassLog>,
}

impl GvtBundle for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn worker_gvt(&self, node: NodeId, lane: LaneId, worker_index: u32) -> Box<dyn WorkerGvt> {
        let inner = self.inner.worker_gvt(node, lane, worker_index);
        Box::new(RecordingWorker { inner, log: Arc::clone(&self.log) })
    }
    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        self.inner.mpi_gvt(node)
    }
}

impl WorkerGvt for RecordingWorker {
    fn on_send(&mut self, class: MsgClass, recv_time: VirtualTime) -> u64 {
        self.log.sends[ClassLog::slot(class)].fetch_add(1, Relaxed);
        self.inner.on_send(class, recv_time)
    }
    fn on_recv(&mut self, tag: u64, class: MsgClass) {
        self.log.recvs[ClassLog::slot(class)].fetch_add(1, Relaxed);
        self.inner.on_recv(tag, class)
    }
    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome {
        self.inner.step(ctx)
    }
}

/// `(regional, remote)` sends and receives the worker halves saw on a
/// Mattern run of `nodes` nodes.
fn class_counts(nodes: u16) -> ([u64; 2], [u64; 2]) {
    let mut cfg = SimConfig::small(nodes, 2);
    cfg.end_time = 20.0;
    let log = Arc::new(ClassLog::default());
    let vcfg = VirtualConfig { max_steps: Some(MAX_STEPS), ..Default::default() };
    let model = Arc::new(MiniHold { far_fraction: 0.4, ..Default::default() });
    let report = run_virtual_with(model, cfg, vcfg, |shared| {
        let inner = make_bundle(GvtKind::Mattern, shared);
        Box::new(Recording { inner, log: Arc::clone(&log) })
    });
    assert!(report.completed, "{report}");
    let load = |counts: &[AtomicU64; 2]| counts.each_ref().map(|c| c.load(Relaxed));
    (load(&log.sends), load(&log.recvs))
}

/// Workers tell their GVT half a received message's class from its
/// sender's node: remote receives are a subset of remote sends, and a
/// single node sees none.
#[test]
fn gvt_halves_see_the_class_of_every_received_message() {
    let ([_, remote_sent], [regional_recv, remote_recv]) = class_counts(2);
    assert!(0 < remote_recv && remote_recv <= remote_sent, "{remote_recv} of {remote_sent}");
    assert!(regional_recv > 0);

    let ([_, remote_sent], [regional_recv, remote_recv]) = class_counts(1);
    assert_eq!((remote_sent, remote_recv), (0, 0));
    assert!(regional_recv > 0);
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
        report.workers.sent_regional + report.workers.sent_remote
            > (mattern.workers.sent_regional + mattern.workers.sent_remote) * 3 / 2,
        "Samadi must roughly double channel traffic: samadi {} vs mattern {}",
        report.workers.sent_regional + report.workers.sent_remote,
        mattern.workers.sent_regional + mattern.workers.sent_remote,
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
