//! Cluster construction and the virtual-run driver.

use cagvt_base::actor::Actor;
use cagvt_base::fault::FaultInjector;
use cagvt_base::ids::NodeId;
use cagvt_base::metrics::MetricsSink;
use cagvt_base::trace::TraceSink;
use cagvt_exec::{VirtualConfig, VirtualScheduler};
use cagvt_net::{fabric_pair, MpiMode};
use std::sync::Arc;

use crate::config::SimConfig;
use crate::event::Event;
use crate::gvt::{GvtBundle, GvtSharedCore};
use crate::lp::LpTable;
use crate::model::Model;
use crate::mpi_actor::{MpiActor, MpiPump};
use crate::node::{EngineShared, NodeShared};
use crate::report::RunReport;
use crate::stats::SharedStats;
use crate::worker::Worker;

/// Shared handles surviving a build, for inspection by tests and the
/// harness.
pub struct ClusterHandles<M: Model> {
    pub shared: Arc<EngineShared<M>>,
}

/// Construct the shared engine state for `cfg` (workers and actors are
/// built on top by [`build_cluster`]; exposed separately so GVT bundle
/// factories can be handed the shared state first).
pub fn build_shared<M: Model>(model: Arc<M>, cfg: SimConfig) -> Arc<EngineShared<M>> {
    build_shared_observed(model, cfg, None, None, None)
}

/// [`build_shared`] with observers installed:
///
/// * `faults` — the fabric shapes every inter-node message through it and
///   the MPI pumps consult it for stall windows;
/// * `trace` — a trace sink on every instrumented layer (workers, MPI
///   pumps and GVT algorithms, all via `GvtSharedCore`).
///   When `None`, the `CAGVT_TRACE` environment variable can still enable
///   a filtered stderr sink (an event id as traces print it, `lp<N>#<seq>`
///   such as `lp4711#9`, for one event's lifecycle; `all` for everything);
/// * `metrics` — each completed GVT round publishes one windowed
///   [`MetricsEpoch`] to it (see `GvtSharedCore::publish_epoch`).
///
/// Observation never charges virtual time, and an absent observer costs
/// one branch.
///
/// [`MetricsEpoch`]: cagvt_base::metrics::MetricsEpoch
pub fn build_shared_observed<M: Model>(
    model: Arc<M>,
    cfg: SimConfig,
    faults: Option<Arc<dyn FaultInjector>>,
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<dyn MetricsSink>>,
) -> Arc<EngineShared<M>> {
    cfg.validate();
    let trace = trace.or_else(cagvt_base::trace::env_sink);
    let spec = cfg.spec;
    let stats = Arc::new(SharedStats::new(spec.total_workers()));
    let gvt_core = Arc::new(GvtSharedCore::new(Arc::clone(&stats), spec.nodes, trace, metrics));
    let (fabric, ctrl) = fabric_pair(spec, faults.clone());
    let nodes = (0..spec.nodes)
        .map(|n| Arc::new(NodeShared::new(NodeId(n), spec.workers_per_node)))
        .collect();
    Arc::new(EngineShared { cfg, model, fabric, ctrl, nodes, gvt_core, stats, faults })
}

/// Build every actor of a run: all workers plus (in dedicated mode) one
/// MPI actor per node, with time-zero events preloaded.
pub fn build_cluster<M: Model>(
    shared: Arc<EngineShared<M>>,
    bundle: &dyn GvtBundle,
) -> (Vec<Box<dyn Actor>>, ClusterHandles<M>) {
    let cfg = shared.cfg;
    let spec = cfg.spec;
    let total_workers = spec.total_workers();

    // Each worker's LP table, seeded at time zero, every seeding event
    // gathered under the worker owning its destination.
    let mut tables = Vec::with_capacity(total_workers as usize);
    let mut seeds: Vec<Vec<Event<M::Payload>>> = (0..total_workers).map(|_| Vec::new()).collect();
    let mut sent = Vec::new();
    for widx in 0..total_workers {
        let (node, lane) = spec.worker(widx);
        let first = cfg.first_lp(node, lane);
        let mut lps = LpTable::new(Arc::clone(&shared.model), &cfg, first, cfg.lps_per_worker);
        lps.seed(&mut sent);
        for event in sent.drain(..) {
            let (dn, dl) = cfg.locate(event.dst);
            seeds[spec.worker_index(dn, dl) as usize].push(event);
        }
        tables.push(lps);
    }

    // The actors: workers first (ActorId = worker index), then the
    // dedicated MPI actors.
    let mut actors: Vec<Box<dyn Actor>> = Vec::new();
    for (widx, (lps, events)) in (0..).zip(tables.into_iter().zip(seeds)) {
        let (node, lane) = spec.worker(widx);
        let gvt = bundle.worker_gvt(node, lane, widx);
        // Without a dedicated MPI thread, worker lane 0 drives the pump.
        let mpi_duty = (spec.mpi_mode != MpiMode::Dedicated && lane.0 == 0)
            .then(|| MpiPump::new(node, Arc::clone(&shared), bundle.mpi_gvt(node)));
        actors.push(Box::new(Worker::new(Arc::clone(&shared), lps, events, gvt, mpi_duty)));
    }
    if spec.mpi_mode == MpiMode::Dedicated {
        for n in 0..spec.nodes {
            let node = NodeId(n);
            let pump = MpiPump::new(node, Arc::clone(&shared), bundle.mpi_gvt(node));
            actors.push(Box::new(MpiActor::new(spec.mpi_actor(node), pump)));
        }
    }

    (actors, ClusterHandles { shared })
}

/// Build and run a complete simulation under the deterministic virtual
/// scheduler, returning the assembled report.
pub fn run_virtual<M: Model>(
    model: Arc<M>,
    cfg: SimConfig,
    make_bundle: impl FnOnce(&Arc<EngineShared<M>>) -> Box<dyn GvtBundle>,
) -> RunReport {
    let vcfg = VirtualConfig {
        // A run that models minutes of cluster time has gone off the rails.
        horizon: Some(cagvt_base::WallNs(600_000_000_000)),
        ..Default::default()
    };
    run_virtual_with(model, cfg, vcfg, make_bundle)
}

/// [`run_virtual`] with explicit scheduler limits (tests and the harness
/// use tighter valves).
pub fn run_virtual_with<M: Model>(
    model: Arc<M>,
    cfg: SimConfig,
    vcfg: VirtualConfig,
    make_bundle: impl FnOnce(&Arc<EngineShared<M>>) -> Box<dyn GvtBundle>,
) -> RunReport {
    // The injector set on the scheduler config also drives the fabric and
    // MPI pumps, so one `vcfg.faults` perturbs every layer consistently;
    // likewise one `vcfg.trace` observes every layer and one `vcfg.metrics`
    // receives every GVT epoch.
    let shared = build_shared_observed(
        model,
        cfg,
        vcfg.faults.clone(),
        vcfg.trace.clone(),
        vcfg.metrics.clone(),
    );
    let bundle = make_bundle(&shared);
    let (actors, handles) = build_cluster(Arc::clone(&shared), &*bundle);
    let t0 = std::time::Instant::now();
    let stats = VirtualScheduler::new(vcfg).run(actors);
    let host_seconds = t0.elapsed().as_secs_f64();
    let mut report = RunReport::assemble(bundle.name(), &handles.shared, stats);
    report.host_seconds = host_seconds;
    report
}
