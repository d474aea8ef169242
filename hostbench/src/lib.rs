//! The repository's benchmark: what one run of the CA-GVT reproduction
//! costs on the host, on three fixed workloads, attributed layer by layer.
//!
//! A run is what one row of a `figures` sweep costs: build the cluster
//! (`build_shared_observed`, `make_bundle`, `build_cluster`), drive it with
//! `VirtualScheduler::run`, fold the counters with `RunReport::assemble`.
//! [`Case::run`] times those calls from outside; with a [`Probe`] it also
//! wraps the model, the GVT bundle and every actor in the forwarding
//! wrappers of [`probe`], which split the run's host time by layer. Every
//! run is checked against the sequential reference ([`check`]).
//!
//! See `README.md` beside this crate for the metrics and why each workload
//! was chosen.

pub mod calib;
pub mod probe;

use cagvt_bench::{base_config, Scale, CA_HARNESS};
use cagvt_core::cluster::{build_cluster, build_shared_observed, ClusterHandles};
use cagvt_core::seq::SeqOutcome;
use cagvt_core::{GvtBundle, Model, RunReport, SequentialSim, SimConfig};
use cagvt_exec::{VirtualConfig, VirtualScheduler};
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_models::phold::PholdModel;
use cagvt_models::presets::{comm_dominated, comp_dominated, mixed_model};
use cagvt_net::MpiMode;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub use probe::{Layer, LayerTotals, Probe};

/// The harness seed; `--seed` overrides it.
pub const DEFAULT_SEED: u64 = 0x1CC_2019;

/// GVT interval of every workload (the harness value).
const GVT_INTERVAL: u64 = 25;

/// The PHOLD parameterization of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// COMP-PHOLD: 10 % regional, 1 % remote, EPG 10 K.
    Comp,
    /// COMM-PHOLD: 90 % regional, 10 % remote, EPG 5 K.
    Comm,
    /// The paper's mixed 10-15 model: COMP then COMM phases.
    Mixed10_15,
}

impl Preset {
    fn model(self, cfg: &SimConfig) -> PholdModel {
        match self {
            Preset::Comp => comp_dominated(cfg).model,
            Preset::Comm => comm_dominated(cfg).model,
            Preset::Mixed10_15 => mixed_model(cfg, 10.0, 15.0).model,
        }
    }
}

/// One named benchmark workload. Geometry is the harness default
/// (`Scale::default()`: 60 workers x 128 LPs per node, dedicated MPI
/// thread); only the horizon is the benchmark's own, sized so one run takes
/// one to three host seconds.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub preset: Preset,
    pub kind: GvtKind,
    pub nodes: u16,
    /// Virtual end time of the simulation.
    pub end_time: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "comm-mattern-8n",
        why: "COMM-PHOLD under Mattern on 8 nodes: ~99 % of scheduler steps are idle polls, so \
              scheduler dispatch and idle Actor::step calls dominate",
        preset: Preset::Comm,
        kind: GvtKind::Mattern,
        nodes: 8,
        end_time: 1.5,
    },
    Workload {
        name: "comp-mattern-2n",
        why: "COMP-PHOLD under Mattern on 2 nodes: efficiency near 1 and light remote traffic, so \
              host time goes to the per-event path and the model handler",
        preset: Preset::Comp,
        kind: GvtKind::Mattern,
        nodes: 2,
        end_time: 24.0,
    },
    Workload {
        name: "mixed-cagvt-4n",
        why:
            "mixed 10-15 model under CA-GVT (threshold 0.93) on 4 nodes: idle and \
              barrier-blocked polls, rollback with reverse re-execution, sync/async round switching",
        preset: Preset::Mixed10_15,
        kind: CA_HARNESS,
        nodes: 4,
        end_time: 6.0,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// On-CPU seconds of the calling thread so far (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Set-up and run execute on the calling thread, so the difference of two
/// readings is what they cost the host, less the time the thread was off the
/// CPU. On a shared VM that is mostly the hypervisor's steal, which adds up
/// to a fifth to the wall clock of a run, more in some minutes than others,
/// while the program does the same work.
pub fn thread_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The harness's scheduler safety valves: a run that hits one is reported
/// `completed == false` and counts as failed.
fn scheduler_valves() -> VirtualConfig {
    VirtualConfig {
        max_steps: Some(3_000_000_000),
        horizon: Some(cagvt_base::WallNs(900_000_000_000)),
        ..Default::default()
    }
}

/// A fully specified run: algorithm, configuration and model.
#[derive(Clone, Debug)]
pub struct Case {
    pub kind: GvtKind,
    pub cfg: SimConfig,
    pub model: PholdModel,
}

impl Case {
    /// `workload` at `seed`, with the harness geometry.
    pub fn new(workload: &Workload, seed: u64) -> Case {
        let scale = Scale { end_time: workload.end_time, seed, ..Scale::default() };
        Case::with_scale(workload.kind, workload.preset, workload.nodes, &scale)
    }

    /// Any algorithm and preset at any scale (the wrapper tests use
    /// `Scale::bench()`).
    pub fn with_scale(kind: GvtKind, preset: Preset, nodes: u16, scale: &Scale) -> Case {
        let cfg = base_config(nodes, MpiMode::Dedicated, GVT_INTERVAL, scale);
        Case { kind, cfg, model: preset.model(&cfg) }
    }

    /// The sequential reference outcome for this case (untimed).
    pub fn oracle(&self) -> SeqOutcome {
        SequentialSim::new(Arc::new(self.model.clone()), self.cfg).run()
    }

    /// On-CPU seconds of one untraced set-up (`build_shared_observed` +
    /// `make_bundle` + `build_cluster`); the cluster is dropped unrun.
    pub fn setup_s(&self) -> f64 {
        let c = build(Arc::new(self.model.clone()), self.cfg, self.kind, None);
        c.build_shared_s + c.make_bundle_s + c.build_cluster_s
    }

    /// One run, timed piece by piece. With a probe, the model, the GVT
    /// bundle and every actor are wrapped and their spans recorded into it.
    pub fn run(&self, probe: Option<&Arc<Probe>>) -> RunTiming {
        match probe {
            None => execute(Arc::new(self.model.clone()), self.cfg, self.kind, None),
            Some(p) => {
                let model = Arc::new(probe::TimedModel::new(self.model.clone(), Arc::clone(p)));
                execute(model, self.cfg, self.kind, Some(p))
            }
        }
    }
}

/// Host seconds of each piece of one run, and its report. The set-up pieces
/// and `cpu_s` are on-CPU seconds of the calling thread ([`thread_cpu_s`]).
#[derive(Clone, Debug)]
pub struct RunTiming {
    pub build_shared_s: f64,
    pub make_bundle_s: f64,
    pub build_cluster_s: f64,
    /// Wall seconds of `VirtualScheduler::run` through `RunReport::assemble`.
    pub wall_s: f64,
    /// On-CPU seconds of the same interval.
    pub cpu_s: f64,
    pub report: RunReport,
}

impl RunTiming {
    /// `build_shared_observed` + `make_bundle` + `build_cluster`.
    pub fn setup_s(&self) -> f64 {
        self.build_shared_s + self.make_bundle_s + self.build_cluster_s
    }
}

/// A built, not yet run cluster and the host seconds its set-up took.
struct Cluster<M: Model> {
    actors: Vec<Box<dyn cagvt_base::actor::Actor>>,
    handles: ClusterHandles<M>,
    bundle: Box<dyn GvtBundle>,
    build_shared_s: f64,
    make_bundle_s: f64,
    build_cluster_s: f64,
}

fn build<M: Model>(
    model: Arc<M>,
    cfg: SimConfig,
    kind: GvtKind,
    probe: Option<&Arc<Probe>>,
) -> Cluster<M> {
    let t0 = thread_cpu_s();
    let shared = build_shared_observed(model, cfg, None, None, None);
    let t1 = thread_cpu_s();
    let mut bundle = make_bundle(kind, &shared);
    if let Some(p) = probe {
        bundle = Box::new(probe::TracedBundle::new(bundle, Arc::clone(p)));
    }
    let t2 = thread_cpu_s();
    let (mut actors, handles) = build_cluster(shared, &*bundle);
    if let Some(p) = probe {
        actors = probe::wrap_actors(actors, cfg.spec.total_workers(), p);
    }
    let t3 = thread_cpu_s();
    Cluster {
        actors,
        handles,
        bundle,
        build_shared_s: t1 - t0,
        make_bundle_s: t2 - t1,
        build_cluster_s: t3 - t2,
    }
}

fn execute<M: Model>(
    model: Arc<M>,
    cfg: SimConfig,
    kind: GvtKind,
    probe: Option<&Arc<Probe>>,
) -> RunTiming {
    let Cluster { actors, handles, bundle, build_shared_s, make_bundle_s, build_cluster_s } =
        build(model, cfg, kind, probe);
    let (t0, cpu0) = (Instant::now(), thread_cpu_s());
    let scheduler = VirtualScheduler::new(scheduler_valves());
    let mut report = match probe {
        None => RunReport::assemble(bundle.name(), &handles.shared, scheduler.run(actors)),
        Some(p) => {
            let (stats, _) = p.span(Layer::Exec, || scheduler.run(actors));
            p.span(Layer::Report, || RunReport::assemble(bundle.name(), &handles.shared, stats)).0
        }
    };
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), thread_cpu_s() - cpu0);
    report.host_seconds = wall_s;
    RunTiming { build_shared_s, make_bundle_s, build_cluster_s, wall_s, cpu_s, report }
}

/// The first output field of a run that differs from what it must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub field: &'static str,
    pub got: String,
    pub want: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field {}: got {}, want {}", self.field, self.got, self.want)
    }
}

/// Check one run's output: it completed without hitting a scheduler valve,
/// passes `RunReport::check_conservation`, and commits exactly the events
/// and final LP states of the sequential reference.
pub fn check(report: &RunReport, cfg: &SimConfig, oracle: &SeqOutcome) -> Result<(), Mismatch> {
    let mismatch = |field, got: String, want: String| Err(Mismatch { field, got, want });
    if !report.completed {
        return mismatch("completed", "false".into(), "true".into());
    }
    let end = cfg.end_vt();
    let conserved =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| report.check_conservation(end)));
    if let Err(payload) = conserved {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "check_conservation panicked".into());
        return mismatch("conservation", msg, "processed = committed + rolled_back".into());
    }
    if report.committed != oracle.processed {
        return mismatch("committed", report.committed.to_string(), oracle.processed.to_string());
    }
    if report.state_fingerprint != oracle.fingerprint {
        return mismatch(
            "state_fingerprint",
            format!("{:#018x}", report.state_fingerprint),
            format!("{:#018x}", oracle.fingerprint),
        );
    }
    Ok(())
}

/// Whether a metric improves upward or downward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A reported metric. `bound` (end-to-end metrics only) is the share of the
/// parent's median by which it may worsen before a change counts as a
/// regression.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// End-to-end metrics, measured with tracing off. Times are calibrated
/// seconds: on-CPU seconds ([`thread_cpu_s`]) rescaled by [`calibrate`].
pub const END_TO_END: [Metric; 4] = [
    e2e("run_s", "s", Better::Lower, 0.25),
    e2e("committed_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics, from traced runs (see the table in `README.md`).
pub const PER_LAYER: [Metric; 34] = {
    use Better::{Higher, Lower};
    [
        layer("exec.steps", "count", Lower),
        layer("exec.steps_per_event", "steps/event", Lower),
        layer("exec.idle_step_frac", "ratio", Lower),
        layer("exec.self_ns_per_step", "ns/step", Lower),
        layer("exec.self_share", "ratio", Lower),
        layer("core.worker.steps", "count", Lower),
        layer("core.worker.idle_frac", "ratio", Lower),
        layer("core.worker.ns_per_idle_step", "ns/step", Lower),
        layer("core.worker.ns_per_progress_step", "ns/step", Lower),
        layer("core.worker.self_ns_per_event", "ns/event", Lower),
        layer("core.worker.self_share", "ratio", Lower),
        layer("core.mpi.steps", "count", Lower),
        layer("core.mpi.idle_frac", "ratio", Lower),
        layer("core.mpi.ns_per_step", "ns/step", Lower),
        layer("core.mpi.self_share", "ratio", Lower),
        layer("gvt.worker.calls", "count", Lower),
        layer("gvt.worker.blocked_frac", "ratio", Lower),
        layer("gvt.worker.ns_per_call", "ns/call", Lower),
        layer("gvt.msg_hooks", "count", Lower),
        layer("gvt.mpi.calls", "count", Lower),
        layer("gvt.share", "ratio", Lower),
        layer("gvt.rounds", "count", Lower),
        layer("models.handle_calls", "count", Lower),
        layer("models.ns_per_handle", "ns/call", Lower),
        layer("models.reexec_frac", "ratio", Lower),
        layer("models.reverse_calls", "count", Lower),
        layer("models.share", "ratio", Higher),
        layer("setup.build_shared_s", "s", Lower),
        layer("setup.build_cluster_s", "s", Lower),
        layer("setup.ns_per_lp", "ns/lp", Lower),
        layer("trace_overhead", "ratio", Lower),
        layer("run_cpu_s", "s", Lower),
        layer("wall_s", "s", Lower),
        layer("calib_s", "s", Lower),
    ]
};

/// End-to-end values of one untraced run, named as in [`END_TO_END`],
/// before calibration: times are on-CPU seconds.
pub fn end_to_end_values(run: &RunTiming, peak_rss_mb: f64) -> [(&'static str, f64); 4] {
    [
        ("run_s", run.cpu_s),
        ("committed_per_s", run.report.committed as f64 / run.cpu_s),
        ("setup_s", run.setup_s()),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Rescale end-to-end values measured while the calibration kernel took
/// `calib_s` on-CPU seconds (its median over the same runs) to the speed at
/// which it takes [`calib::REFERENCE_S`].
pub fn calibrate(values: [f64; 4], calib_s: f64) -> [f64; 4] {
    let k = calib::REFERENCE_S / calib_s;
    let [run, rate, setup, rss] = values;
    [run * k, rate / k, setup * k, rss]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values, named as in [`PER_LAYER`], from one traced run
/// (`traced`, whose probe recorded `layers`), the untraced run paired with
/// it (`plain`, which supplies set-up and run times and the overhead base)
/// of a cluster of `total_lps` LPs, and the calibration kernel's time
/// `calib_s` next to them.
pub fn per_layer_values(
    traced: &RunTiming,
    layers: &LayerTotals,
    plain: &RunTiming,
    total_lps: u32,
    calib_s: f64,
) -> [(&'static str, f64); 34] {
    let r = &traced.report;
    let wall_ns = traced.wall_s * 1e9;
    let processed = r.processed as f64;
    let exec = layers.get(Layer::Exec);
    let worker = layers.get(Layer::Worker);
    let mpi = layers.get(Layer::Mpi);
    let gvt_worker = layers.get(Layer::GvtWorker);
    let gvt_msg = layers.get(Layer::GvtMsg);
    let gvt_mpi = layers.get(Layer::GvtMpi);
    let handle = layers.get(Layer::ModelHandle);
    let reverse = layers.get(Layer::ModelReverse);
    let worker_progress = worker.calls - layers.worker_idle_steps;
    let gvt_ns = (gvt_worker.total_ns + gvt_msg.total_ns + gvt_mpi.total_ns) as f64;
    [
        ("exec.steps", r.sched_steps as f64),
        ("exec.steps_per_event", ratio(r.sched_steps as f64, processed)),
        ("exec.idle_step_frac", ratio(r.sched_idle_steps as f64, r.sched_steps as f64)),
        ("exec.self_ns_per_step", ratio(exec.self_ns as f64, r.sched_steps as f64)),
        ("exec.self_share", ratio(exec.self_ns as f64, wall_ns)),
        ("core.worker.steps", worker.calls as f64),
        ("core.worker.idle_frac", ratio(layers.worker_idle_steps as f64, worker.calls as f64)),
        (
            "core.worker.ns_per_idle_step",
            ratio(layers.worker_idle_ns as f64, layers.worker_idle_steps as f64),
        ),
        (
            "core.worker.ns_per_progress_step",
            ratio((worker.total_ns - layers.worker_idle_ns) as f64, worker_progress as f64),
        ),
        ("core.worker.self_ns_per_event", ratio(worker.self_ns as f64, processed)),
        ("core.worker.self_share", ratio(worker.self_ns as f64, wall_ns)),
        ("core.mpi.steps", mpi.calls as f64),
        ("core.mpi.idle_frac", ratio(layers.mpi_idle_steps as f64, mpi.calls as f64)),
        ("core.mpi.ns_per_step", ratio(mpi.total_ns as f64, mpi.calls as f64)),
        ("core.mpi.self_share", ratio(mpi.self_ns as f64, wall_ns)),
        ("gvt.worker.calls", gvt_worker.calls as f64),
        ("gvt.worker.blocked_frac", ratio(layers.gvt_blocked as f64, gvt_worker.calls as f64)),
        ("gvt.worker.ns_per_call", ratio(gvt_worker.total_ns as f64, gvt_worker.calls as f64)),
        ("gvt.msg_hooks", gvt_msg.calls as f64),
        ("gvt.mpi.calls", gvt_mpi.calls as f64),
        ("gvt.share", ratio(gvt_ns, wall_ns)),
        ("gvt.rounds", r.gvt_rounds as f64),
        ("models.handle_calls", handle.calls as f64),
        ("models.ns_per_handle", ratio(handle.total_ns as f64, handle.calls as f64)),
        (
            "models.reexec_frac",
            ratio(handle.calls.saturating_sub(r.committed) as f64, handle.calls as f64),
        ),
        ("models.reverse_calls", reverse.calls as f64),
        ("models.share", ratio((handle.total_ns + reverse.total_ns) as f64, wall_ns)),
        ("setup.build_shared_s", plain.build_shared_s),
        ("setup.build_cluster_s", plain.build_cluster_s),
        ("setup.ns_per_lp", ratio(plain.setup_s() * 1e9, total_lps as f64)),
        ("trace_overhead", ratio(traced.cpu_s, plain.cpu_s)),
        ("run_cpu_s", plain.cpu_s),
        ("wall_s", plain.wall_s),
        ("calib_s", calib_s),
    ]
}
