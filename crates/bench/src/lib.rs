//! Benchmark harness: every experiment of the paper's evaluation section
//! as data.
//!
//! A figure is a grid of runs over algorithm x MPI mode x workload x node
//! count. Each run is a [`Cell`]: its row labels plus everything the run
//! depends on, so a run's workload and topology are readable without
//! running it. Each `figN` function returns the cell table of the
//! corresponding paper figure (committed event rate vs node count); the
//! `stats_table`, `epg_sweep` and sweep functions cover the in-text tables
//! and the ablations listed in DESIGN.md. [`grid`] runs every pure grid;
//! [`MODES`] is the one list of experiments the `figures` binary runs and
//! formats as CSV. `hostbench/` (a separate package) times the host cost
//! of such runs layer by layer.
//!
//! Scale: [`Scale::default`] and [`Scale::paper`] share the paper's
//! geometry (60 workers and 128 LPs per worker per node); `paper`
//! lengthens the horizon from 12 to 60 virtual time units. [`Scale::bench`]
//! shrinks the geometry and horizon for smoke tests, the golden test and
//! the benchmarks.

pub mod runner;
pub mod summary;

pub use runner::{grid, grid_with, sweep_threads, THREADS_ENV};

use cagvt_base::metrics::{EpochMode, MetricsEpoch, MetricsSink};
use cagvt_base::{FaultInjector, NodeId, TraceSink, WallNs};
use cagvt_core::cluster::run_virtual_with;
use cagvt_core::{RunReport, SimConfig};
use cagvt_exec::VirtualConfig;
use cagvt_fault::{FaultPlan, FaultRuntime, FaultSpec, Perturbation};
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_metrics::{epoch_csv, HealthMonitor, MetricsRegistry};
use cagvt_models::phold::{PhaseSchedule, PholdModel, PholdParams};
use cagvt_models::presets::{comm_dominated, comp_dominated, mixed_model, Workload, COMP_PARAMS};
use cagvt_net::{ClusterSpec, MpiMode};
use cagvt_trace::{chrome_trace, TraceRecorder};
use runner::{par_map, Task};
use std::path::Path;
use std::sync::Arc;

/// Run geometry knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub workers_per_node: u16,
    pub lps_per_worker: u32,
    pub end_time: f64,
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        // The paper's full per-node geometry (60 workers x 128 LPs — the
        // LP density per worker controls how far a worker advances in
        // virtual time per wall second, which is what makes remote latency
        // benign or catastrophic). Only the horizon is shortened.
        Scale { workers_per_node: 60, lps_per_worker: 128, end_time: 12.0, seed: 0x1CC_2019 }
    }
}

impl Scale {
    /// The paper's geometry with a long horizon (slow: millions of events
    /// per run).
    pub fn paper() -> Self {
        Scale { workers_per_node: 60, lps_per_worker: 128, end_time: 60.0, seed: 0x1CC_2019 }
    }

    /// A tiny geometry for smoke tests, the golden figure test and the
    /// benchmarks.
    pub fn bench() -> Self {
        Scale { workers_per_node: 12, lps_per_worker: 32, end_time: 4.0, seed: 0x1CC_2019 }
    }
}

/// The node counts of every figure's x-axis.
pub const NODE_COUNTS: [u16; 4] = [1, 2, 4, 8];

/// Assemble a [`SimConfig`] for one run.
pub fn base_config(nodes: u16, mode: MpiMode, gvt_interval: u64, scale: &Scale) -> SimConfig {
    let mut cfg = SimConfig::paper(nodes);
    cfg.spec = ClusterSpec::new(nodes, scale.workers_per_node, mode);
    cfg.lps_per_worker = scale.lps_per_worker;
    cfg.end_time = scale.end_time;
    cfg.gvt_interval = gvt_interval;
    cfg.max_outstanding = (gvt_interval as usize * 24).max(240);
    cfg.seed = scale.seed;
    cfg
}

fn scheduler_valves() -> VirtualConfig {
    VirtualConfig {
        max_steps: Some(3_000_000_000),
        horizon: Some(cagvt_base::WallNs(900_000_000_000)),
        ..Default::default()
    }
}

/// Run one `(algorithm, workload, topology)` combination.
pub fn run_one(kind: GvtKind, workload: &Workload, cfg: SimConfig) -> RunReport {
    run_one_observed(kind, workload, cfg, None, None, None)
}

/// [`run_one`] with observers: `faults` shapes actor costs, link traffic
/// and MPI pumps across every layer of the run; `trace` observes every
/// instrumented layer (workers, GVT algorithms, the MPI fabric and the
/// scheduler); `metrics` receives one [`MetricsEpoch`] per GVT round.
///
/// Every run is checked with [`RunReport::check_conservation`]; a run that
/// hit a scheduler valve or breaks conservation panics, naming the
/// algorithm, the node count and the failed check, so a figure fails
/// instead of printing a plausible row.
pub fn run_one_observed(
    kind: GvtKind,
    workload: &Workload,
    cfg: SimConfig,
    faults: Option<Arc<dyn FaultInjector>>,
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<dyn MetricsSink>>,
) -> RunReport {
    let model = Arc::new(workload.model.clone());
    let vcfg = VirtualConfig { faults, trace, metrics, ..scheduler_valves() };
    checked(kind, cfg, run_virtual_with(model, cfg, vcfg, |shared| make_bundle(kind, shared)))
}

/// `report`, or a panic naming the run and its first failed conservation
/// check.
fn checked(kind: GvtKind, cfg: SimConfig, report: RunReport) -> RunReport {
    if let Some(failure) = report.conservation_failure(cfg.end_vt()) {
        panic!("{} run on {} nodes failed: {failure}", kind.label(), cfg.spec.nodes);
    }
    report
}

/// One data point of a figure.
#[derive(Clone, Debug)]
pub struct Row {
    pub figure: &'static str,
    pub series: String,
    pub nodes: u16,
    pub report: RunReport,
}

impl Row {
    pub fn csv_header() -> &'static str {
        "figure,series,nodes,steady_rate,committed_rate,efficiency,committed,rollbacks,rolled_back,\
         gvt_rounds,gvt_time_mean,lvt_disparity,sync_rounds,async_rounds,sim_seconds,\
         dropped_msgs,retransmits,straggled_steps,stalled_pumps,\
         horizon_width,barrier_wait_ns,rollback_cascade,health_alerts"
    }

    pub fn csv(&self) -> String {
        let r = &self.report;
        format!(
            "{},{},{},{:.1},{:.1},{:.4},{},{},{},{},{:.6},{:.4},{},{},{:.6},{},{},{},{},\
             {:.4},{:.0},{},{}",
            self.figure,
            self.series,
            self.nodes,
            r.steady_rate,
            r.committed_rate,
            r.efficiency,
            r.committed,
            r.workers.rollbacks,
            r.rolled_back,
            r.gvt_rounds,
            r.gvt_time_mean,
            r.lvt_disparity,
            r.sync_rounds,
            r.async_rounds,
            r.sim_seconds,
            r.faults.dropped_msgs,
            r.faults.retransmits,
            r.faults.straggled_steps,
            r.faults.stalled_pumps,
            r.horizon_width,
            r.barrier_wait_ns,
            r.workers.max_cascade,
            r.health.len(),
        )
    }
}

/// The workload of a run cell.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// The paper's computation-dominated PHOLD ([`comp_dominated`]).
    Comp,
    /// The paper's communication-dominated PHOLD ([`comm_dominated`]).
    Comm,
    /// The mixed `X-Y` model ([`mixed_model`]).
    Mixed(f64, f64),
    /// COMP's message mix at the given event-processing granularity.
    Epg(u64),
}

impl Load {
    /// The workload on `cfg`'s topology.
    pub fn workload(self, cfg: &SimConfig) -> Workload {
        match self {
            Load::Comp => comp_dominated(cfg),
            Load::Comm => comm_dominated(cfg),
            Load::Mixed(x, y) => mixed_model(cfg, x, y),
            Load::Epg(epg) => Workload {
                name: format!("epg-{epg}"),
                model: PholdModel::new(
                    cfg,
                    PhaseSchedule::constant(PholdParams { epg, ..COMP_PARAMS }),
                ),
            },
        }
    }
}

/// The largest node count of [`NODE_COUNTS`]: where the in-text tables and
/// single-run ablations measure.
pub const MAX_NODES: u16 = NODE_COUNTS[NODE_COUNTS.len() - 1];

/// One run of a figure's grid: the row labels (`series`, `nodes`) plus
/// everything the run depends on. [`Cell::config`] and [`Load::workload`]
/// give its topology and workload without running it.
#[derive(Clone)]
pub struct Cell {
    pub series: String,
    pub nodes: u16,
    pub kind: GvtKind,
    pub mode: MpiMode,
    pub interval: u64,
    pub load: Load,
    pub scale: Scale,
    pub faults: Option<Arc<dyn FaultInjector>>,
}

impl Cell {
    /// `kind` on `load` at [`MAX_NODES`] with a dedicated MPI thread, GVT
    /// interval 25 and no faults; cell tables change the rest by struct
    /// update.
    pub fn new(series: impl Into<String>, kind: GvtKind, load: Load, scale: &Scale) -> Self {
        Cell {
            series: series.into(),
            nodes: MAX_NODES,
            kind,
            mode: MpiMode::Dedicated,
            interval: 25,
            load,
            scale: *scale,
            faults: None,
        }
    }

    /// The run's configuration.
    pub fn config(&self) -> SimConfig {
        base_config(self.nodes, self.mode, self.interval, &self.scale)
    }

    /// Run the cell through [`run_one_observed`] with its fault injector
    /// and the given observers.
    pub fn run(
        &self,
        trace: Option<Arc<dyn TraceSink>>,
        metrics: Option<Arc<dyn MetricsSink>>,
    ) -> RunReport {
        let cfg = self.config();
        let workload = self.load.workload(&cfg);
        run_one_observed(self.kind, &workload, cfg, self.faults.clone(), trace, metrics)
    }

    /// The row of `figure` that reports this cell's run.
    pub fn row(self, figure: &'static str, report: RunReport) -> Row {
        Row { figure, series: self.series, nodes: self.nodes, report }
    }
}

/// Each of `cells` at every node count of [`NODE_COUNTS`], series-major.
fn every_node_count(cells: Vec<Cell>) -> Vec<Cell> {
    cells.iter().flat_map(|cell| NODE_COUNTS.map(|nodes| Cell { nodes, ..cell.clone() })).collect()
}

/// One cell per `(series, algorithm)` on `load`.
fn algorithms(series: &[(&str, GvtKind)], load: Load, scale: &Scale) -> Vec<Cell> {
    series.iter().map(|&(name, kind)| Cell::new(name, kind, load, scale)).collect()
}

/// How a mode produces its rows.
#[derive(Clone, Copy)]
pub enum Run {
    /// A pure grid experiment: its cell table, run by [`grid`] under the
    /// mode's name.
    Grid(fn(&Scale) -> Vec<Cell>),
    /// An experiment that anchors on a first run, reports per run or
    /// writes artifacts to the output directory.
    Driver(fn(&Scale, Option<&Path>) -> Vec<Row>),
}

/// One experiment mode of the `figures` binary.
pub struct Mode {
    pub name: &'static str,
    /// Included in the default run and in `all` (ablations stay opt-in).
    pub core: bool,
    pub run: Run,
}

impl Mode {
    /// The mode's rows at `scale`; drivers write their artifacts to
    /// `out_dir` when given.
    pub fn run(&self, scale: &Scale, out_dir: Option<&Path>) -> Vec<Row> {
        match self.run {
            Run::Grid(cells) => grid(self.name, cells(scale)),
            Run::Driver(driver) => driver(scale, out_dir),
        }
    }
}

/// Every experiment the harness knows, in the order `all` runs and the
/// usage message lists them.
pub const MODES: &[Mode] = &[
    Mode { name: "fig3", core: true, run: Run::Grid(fig3) },
    Mode { name: "fig4", core: true, run: Run::Grid(fig4) },
    Mode { name: "fig5", core: true, run: Run::Grid(fig5) },
    Mode { name: "fig6", core: true, run: Run::Grid(fig6) },
    Mode { name: "fig8", core: true, run: Run::Grid(fig8) },
    Mode { name: "fig9", core: true, run: Run::Grid(fig9) },
    Mode { name: "fig10", core: true, run: Run::Grid(fig10) },
    Mode { name: "fig11", core: true, run: Run::Grid(fig11) },
    Mode { name: "fig12", core: true, run: Run::Grid(fig12) },
    Mode { name: "stats", core: true, run: Run::Grid(stats_table) },
    Mode { name: "epg-sweep", core: true, run: Run::Grid(epg_sweep) },
    Mode { name: "ca-trace", core: true, run: Run::Driver(ca_trace) },
    Mode { name: "threshold-sweep", core: false, run: Run::Grid(threshold_sweep) },
    Mode { name: "ca-queue", core: false, run: Run::Grid(ca_queue) },
    Mode { name: "samadi", core: false, run: Run::Grid(samadi) },
    Mode { name: "interval-sweep", core: false, run: Run::Grid(interval_sweep) },
    Mode { name: "mpi-modes", core: false, run: Run::Grid(mpi_modes) },
    Mode { name: "faults", core: false, run: Run::Driver(fault_sweep) },
    Mode { name: "trace", core: false, run: Run::Driver(trace_experiment) },
    Mode { name: "health", core: false, run: Run::Driver(health_experiment) },
];

/// CA-GVT threshold used by the harness: the paper's 0.80 is tuned to
/// their efficiency distribution (COMP ~93%, COMM ~36%); this substrate's
/// distribution is compressed upward (COMP ~99.7%, COMM ~70-85%), so the
/// equivalent separating threshold is higher. `figures threshold-sweep`
/// shows the sensitivity.
pub const CA_HARNESS: GvtKind = GvtKind::CaGvt { threshold: 0.93 };

const MATTERN_BARRIER: [(&str, GvtKind); 2] =
    [("mattern", GvtKind::Mattern), ("barrier", GvtKind::Barrier)];

const THREE_ALGORITHMS: [(&str, GvtKind); 3] =
    [("mattern", GvtKind::Mattern), ("barrier", GvtKind::Barrier), ("ca-gvt", CA_HARNESS)];

/// The two paper workloads, with the series prefix of the tables that
/// run both.
const WORKLOADS: [(&str, Load); 2] = [("comp", Load::Comp), ("comm", Load::Comm)];

/// Figures 3-4: Mattern and Barrier with a dedicated vs an inline MPI
/// thread, GVT interval 50. The inline baseline's pathology (the paper's
/// point) inflates simulated *and* host time; a horizon of at most 5 shows
/// the same steady-state ratios at tolerable cost.
fn dedicated_vs_inline(load: Load, scale: &Scale) -> Vec<Cell> {
    let scale = Scale { end_time: scale.end_time.min(5.0), ..*scale };
    let mut cells = Vec::new();
    for (name, kind) in MATTERN_BARRIER {
        for mode in [MpiMode::Dedicated, MpiMode::InlineWorker] {
            let series = format!("{name}-{}", mode.label());
            cells.push(Cell { mode, interval: 50, ..Cell::new(series, kind, load, &scale) });
        }
    }
    every_node_count(cells)
}

/// Figure 3: dedicated vs inline MPI thread, computation-dominated.
pub fn fig3(scale: &Scale) -> Vec<Cell> {
    dedicated_vs_inline(Load::Comp, scale)
}

/// Figure 4: dedicated vs inline MPI thread, communication-dominated.
pub fn fig4(scale: &Scale) -> Vec<Cell> {
    dedicated_vs_inline(Load::Comm, scale)
}

/// Figure 5: Mattern vs Barrier, computation-dominated.
pub fn fig5(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&MATTERN_BARRIER, Load::Comp, scale))
}

/// Figure 6: Mattern vs Barrier, communication-dominated.
pub fn fig6(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&MATTERN_BARRIER, Load::Comm, scale))
}

/// Figure 8: all three algorithms, computation-dominated.
pub fn fig8(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&THREE_ALGORITHMS, Load::Comp, scale))
}

/// Figure 9: all three algorithms, communication-dominated.
pub fn fig9(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&THREE_ALGORITHMS, Load::Comm, scale))
}

/// Figure 10: 10-15 mixed model.
pub fn fig10(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&THREE_ALGORITHMS, Load::Mixed(10.0, 15.0), scale))
}

/// Figure 11: 15-10 mixed model.
pub fn fig11(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&THREE_ALGORITHMS, Load::Mixed(15.0, 10.0), scale))
}

/// Figure 12: 5-5 mixed model.
pub fn fig12(scale: &Scale) -> Vec<Cell> {
    every_node_count(algorithms(&THREE_ALGORITHMS, Load::Mixed(5.0, 5.0), scale))
}

/// In-text stats table (§4): per algorithm and workload at the maximum
/// node count: efficiency, rollbacks, disparity, GVT-function time.
pub fn stats_table(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, load) in WORKLOADS {
        for (name, kind) in THREE_ALGORITHMS {
            cells.push(Cell::new(format!("{workload}-{name}"), kind, load, scale));
        }
    }
    cells
}

/// EPG sweep (§4 text): time spent in the Barrier GVT function as EPG
/// grows from 10K to 40K.
pub fn epg_sweep(scale: &Scale) -> Vec<Cell> {
    [10_000u64, 20_000, 30_000, 40_000]
        .map(|epg| Cell::new(format!("epg-{epg}"), GvtKind::Barrier, Load::Epg(epg), scale))
        .into()
}

/// CA-GVT threshold ablation on the 10-15 mixed model.
pub fn threshold_sweep(scale: &Scale) -> Vec<Cell> {
    [0.50, 0.60, 0.70, 0.80, 0.90, 0.95]
        .map(|threshold| {
            let kind = GvtKind::CaGvt { threshold };
            Cell::new(format!("thr-{threshold:.2}"), kind, Load::Mixed(10.0, 15.0), scale)
        })
        .into()
}

/// GVT interval ablation.
pub fn interval_sweep(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, load) in WORKLOADS {
        for interval in [10u64, 25, 50, 100] {
            for (name, kind) in MATTERN_BARRIER {
                let series = format!("{workload}-{name}-i{interval}");
                cells.push(Cell { interval, ..Cell::new(series, kind, load, scale) });
            }
        }
    }
    cells
}

/// CA-GVT trigger ablation: efficiency-only vs efficiency-or-queue
/// occupancy (the extended trigger from the paper's concluding remarks)
/// on the communication-dominated workload, where saturation shows in the
/// queue before it shows in cumulative efficiency.
pub fn ca_queue(scale: &Scale) -> Vec<Cell> {
    let queue = |queue_threshold| GvtKind::CaGvtQueue { threshold: 0.93, queue_threshold };
    algorithms(
        &[("ca-efficiency", CA_HARNESS), ("ca-queue-200", queue(200)), ("ca-queue-50", queue(50))],
        Load::Comm,
        scale,
    )
}

/// Samadi's acknowledgement-based GVT (paper §7 related work) against
/// Mattern: same committed events, roughly double the channel traffic.
pub fn samadi(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, load) in WORKLOADS {
        for (name, kind) in [("mattern", GvtKind::Mattern), ("samadi", GvtKind::Samadi)] {
            cells.push(Cell::new(format!("{workload}-{name}"), kind, load, scale));
        }
    }
    every_node_count(cells)
}

/// MPI-mode ablation including the `PerWorker` pathology that motivates
/// the dedicated MPI thread.
pub fn mpi_modes(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, load) in WORKLOADS {
        for mode in [MpiMode::Dedicated, MpiMode::InlineWorker, MpiMode::PerWorker] {
            let series = format!("{workload}-{}", mode.label());
            cells.push(Cell { mode, ..Cell::new(series, GvtKind::Mattern, load, scale) });
        }
    }
    cells
}

/// §6 text: CA-GVT's sync/async mode trace on the communication-dominated
/// workload, with its round split on stderr.
pub fn ca_trace(scale: &Scale, _: Option<&Path>) -> Vec<Row> {
    let rows = grid("ca-trace", vec![Cell::new("ca-gvt", CA_HARNESS, Load::Comm, scale)]);
    let report = &rows[0].report;
    eprintln!(
        "# ca-trace: {} rounds total, {} synchronous, {} asynchronous, final efficiency {:.2}%",
        report.gvt_rounds,
        report.sync_rounds,
        report.async_rounds,
        report.efficiency * 100.0
    );
    rows
}

/// The three algorithms on COMM-PHOLD on a mid-size cluster (4 nodes):
/// the cells the fault, trace and health experiments vary.
fn mid_cluster_comm(scale: &Scale) -> Vec<Cell> {
    let cells = algorithms(&THREE_ALGORITHMS, Load::Comm, scale);
    cells.into_iter().map(|cell| Cell { nodes: 4, ..cell }).collect()
}

/// The fault window and cluster of the mid-cluster experiments. The
/// window is the clean Mattern makespan (at least 1 ms), so perturbations
/// actually overlap each run; one shared span keeps every algorithm facing
/// the identical plan.
fn fault_anchor(scale: &Scale) -> (WallNs, ClusterSpec) {
    let anchor = Cell { nodes: 4, ..Cell::new("anchor", GvtKind::Mattern, Load::Comm, scale) };
    let clean = anchor.run(None, None);
    let span = WallNs(((clean.sim_seconds * 1e9) as u64).max(1_000_000));
    (span, anchor.config().spec)
}

/// Fault severities swept by the resilience experiment (severity 0 is the
/// clean baseline every curve is normalized against).
pub const FAULT_SEVERITIES: [f64; 5] = [0.0, 0.25, 0.50, 0.75, 1.0];

/// Build the injector for one `(severity, cluster, span)` point; `None`
/// at severity 0 keeps the baseline byte-identical to an unfaulted run.
pub fn make_faults(
    severity: f64,
    cluster: ClusterSpec,
    seed: u64,
    span: WallNs,
) -> Option<Arc<dyn FaultInjector>> {
    if severity <= 0.0 {
        return None;
    }
    let spec = FaultSpec::new(severity, seed, span);
    let plan = FaultPlan::generate(&cluster, &spec);
    Some(Arc::new(FaultRuntime::new(cluster, &plan, spec.seed)))
}

/// Resilience curves: Mattern vs Barrier vs CA-GVT on a mid-size cluster
/// under increasing fault severity — straggling nodes, degraded links,
/// stalled MPI pumps and message drops, all from one seeded plan per
/// severity. The x-axis here is severity (the `series` column carries it),
/// not node count.
pub fn fault_sweep(scale: &Scale, _: Option<&Path>) -> Vec<Row> {
    let (span, cluster) = fault_anchor(scale);
    let mut cells = Vec::new();
    for cell in mid_cluster_comm(scale) {
        for severity in FAULT_SEVERITIES {
            cells.push(Cell {
                series: format!("{}-s{severity:.2}", cell.series),
                faults: make_faults(severity, cluster, scale.seed ^ 0xFA17, span),
                ..cell.clone()
            });
        }
    }
    grid("faults", cells)
}

/// `figures trace`: COMM-PHOLD on 4 virtual nodes under each of the three
/// GVT algorithms with a ring-buffer recorder attached; per algorithm this
/// writes a Perfetto-loadable Chrome trace (`trace-<algo>.json`). These are
/// `figures health`'s clean cells, so the per-round horizon series of each
/// run is `metrics-<algo>-clean.csv`.
pub fn trace_experiment(scale: &Scale, out_dir: Option<&Path>) -> Vec<Row> {
    // Each job returns the raw run artifacts; all reporting (stderr lines,
    // per-algorithm trace files) happens serially after collection so the
    // output stream and files are deterministic and identical whatever the
    // thread count.
    type TraceRun = (RunReport, Vec<cagvt_trace::TraceEvent>, u64, u64);
    let cells = mid_cluster_comm(scale);
    let jobs = cells
        .iter()
        .cloned()
        .map(|cell| -> Task<TraceRun> {
            Box::new(move || {
                let recorder = TraceRecorder::new();
                let report = cell.run(Some(recorder.clone() as Arc<dyn TraceSink>), None);
                (report, recorder.snapshot(), recorder.recorded(), recorder.dropped())
            })
        })
        .collect();
    let runs = par_map(jobs, sweep_threads());

    let mut rows = Vec::new();
    for (cell, (report, events, recorded, dropped)) in cells.into_iter().zip(runs) {
        let series = &cell.series;
        eprintln!("# trace {series}: {recorded} records ({dropped} dropped)");
        if let Some(dir) = out_dir {
            let json = chrome_trace(&cell.config().spec, &events);
            std::fs::write(dir.join(format!("trace-{series}.json")), json)
                .expect("write chrome trace");
        }
        rows.push(cell.row("trace", report));
    }
    rows
}

/// Slowdown multiplier of the health experiment's straggling node, as a
/// rational over [`cagvt_fault::plan::SCALE_DEN`] (96/16 = 6x slower).
const HEALTH_STRAGGLE_NUM: u32 = 6 * cagvt_fault::plan::SCALE_DEN;

/// The health experiment's injector: node 1 runs 6x slow from t=0 across
/// (four times) the clean makespan, i.e. effectively the whole run. A
/// hand-built single-perturbation plan — not a generated severity mix — so
/// the alert stream has exactly one known cause to detect.
fn health_straggle_injector(cluster: ClusterSpec, span: WallNs) -> Arc<dyn FaultInjector> {
    let plan = FaultPlan {
        perturbations: vec![Perturbation::NodeStraggle {
            node: NodeId(1),
            from: WallNs::ZERO,
            until: WallNs(span.0.saturating_mul(4)),
            num: HEALTH_STRAGGLE_NUM,
            den: cagvt_fault::plan::SCALE_DEN,
        }],
    };
    Arc::new(FaultRuntime::new(cluster, &plan, 0x4EA1))
}

/// `figures health`: COMM-PHOLD on 4 virtual nodes under each of the
/// three GVT algorithms, clean and with a deterministic node-straggle
/// plan, with a [`MetricsRegistry`] attached. After each run the recorded
/// per-epoch telemetry is written as tidy CSV (`metrics-<series>.csv`)
/// and replayed through [`HealthMonitor`], whose alerts land in the
/// report's `health` section (and the `health_alerts` CSV column). The
/// paired arms demonstrate the monitor's contract: quiet on the clean
/// runs, straggler/efficiency alerts on the perturbed ones, annotated with
/// the fault signature.
pub fn health_experiment(scale: &Scale, out_dir: Option<&Path>) -> Vec<Row> {
    let (span, cluster) = fault_anchor(scale);
    let mut cells = Vec::new();
    for cell in mid_cluster_comm(scale) {
        let straggle = Some(health_straggle_injector(cluster, span));
        cells.push(Cell { series: format!("{}-clean", cell.series), ..cell.clone() });
        cells.push(Cell { series: format!("{}-straggle", cell.series), faults: straggle, ..cell });
    }

    type HealthRun = (RunReport, Vec<MetricsEpoch>);
    let jobs = cells
        .iter()
        .cloned()
        .map(|cell| -> Task<HealthRun> {
            Box::new(move || {
                let registry = Arc::new(MetricsRegistry::new());
                let report = cell.run(None, Some(registry.clone() as Arc<dyn MetricsSink>));
                (report, registry.epochs())
            })
        })
        .collect();
    let runs = par_map(jobs, sweep_threads());

    // All reporting happens serially after collection (same discipline as
    // `trace_experiment`): deterministic output whatever the thread count.
    let mut rows = Vec::new();
    for (cell, (mut report, epochs)) in cells.into_iter().zip(runs) {
        let mut monitor = HealthMonitor::default();
        if cell.faults.is_some() {
            monitor.set_fault_context(format!(
                "node-straggle node=1 x{}",
                HEALTH_STRAGGLE_NUM / cagvt_fault::plan::SCALE_DEN
            ));
        }
        monitor.observe_all(&epochs);
        report.health = monitor.report_lines();
        if let Some(dir) = out_dir {
            std::fs::write(dir.join(format!("metrics-{}.csv", cell.series)), epoch_csv(&epochs))
                .expect("write metrics csv");
        }
        let sync_epochs = epochs.iter().filter(|e| e.mode == EpochMode::Sync).count();
        eprintln!(
            "# health {}: {} epochs ({sync_epochs} sync), {} alerts",
            cell.series,
            epochs.len(),
            report.health.len(),
        );
        for alert in &report.health {
            eprintln!("#   ! {alert}");
        }
        rows.push(cell.row("health", report));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_respects_scale() {
        let scale = Scale::bench();
        let cfg = base_config(2, MpiMode::Dedicated, 25, &scale);
        assert_eq!(cfg.spec.nodes, 2);
        assert_eq!(cfg.spec.workers_per_node, 12);
        assert_eq!(cfg.lps_per_worker, 32);
        assert_eq!(cfg.gvt_interval, 25);
        cfg.validate();
    }

    /// A run cut off by a scheduler valve fails loudly.
    #[test]
    #[should_panic(expected = "mattern run on 1 nodes failed: run hit a scheduler safety valve")]
    fn valve_hit_fails_the_run() {
        let cfg = base_config(1, MpiMode::Dedicated, 25, &Scale::bench());
        let model = Arc::new(comp_dominated(&cfg).model);
        let vcfg = VirtualConfig { max_steps: Some(1_000), ..Default::default() };
        let report =
            run_virtual_with(model, cfg, vcfg, |shared| make_bundle(GvtKind::Mattern, shared));
        assert!(!report.completed);
        checked(GvtKind::Mattern, cfg, report);
    }

    /// `summary::at` finds a row by `(series, nodes)`, and the binary finds
    /// a mode by name, so both must be unique. Builds every pure grid's
    /// cells without running them.
    #[test]
    fn experiment_labels_are_unique() {
        let mut names = std::collections::HashSet::new();
        for mode in MODES {
            assert!(names.insert(mode.name), "mode {} is listed twice", mode.name);
            let Run::Grid(cells) = mode.run else { continue };
            let mut labels = std::collections::HashSet::new();
            for cell in cells(&Scale::bench()) {
                assert!(
                    labels.insert((cell.series.clone(), cell.nodes)),
                    "{}: row ({}, {}) appears twice",
                    mode.name,
                    cell.series,
                    cell.nodes
                );
            }
        }
    }

    #[test]
    fn row_csv_is_well_formed() {
        let scale = Scale::bench();
        let cfg = base_config(1, MpiMode::Dedicated, 25, &scale);
        let workload = comp_dominated(&cfg);
        let report = run_one(GvtKind::Mattern, &workload, cfg);
        let row = Row { figure: "test", series: "s".into(), nodes: 1, report };
        let fields = row.csv().split(',').count();
        assert_eq!(fields, Row::csv_header().split(',').count());
    }

    /// A row whose report went through the report's own rate helpers, as
    /// `RunReport::assemble` does.
    fn row_for(committed: u64, rolled_back: u64, sim_seconds: f64) -> Row {
        use cagvt_core::report::{efficiency_of, safe_rate};
        let committed_rate = safe_rate(committed as f64, sim_seconds);
        let report = RunReport {
            committed,
            processed: committed + rolled_back,
            rolled_back,
            sim_seconds,
            committed_rate,
            steady_rate: committed_rate,
            efficiency: efficiency_of(committed, rolled_back),
            ..Default::default()
        };
        Row { figure: "test", series: "s".into(), nodes: 2, report }
    }

    /// Degenerate runs — nothing committed in zero simulated time (what a
    /// mis-scaled config can produce), or nothing committed over a positive
    /// makespan — must never leak NaN into a figure CSV through any rate
    /// column.
    #[test]
    fn degenerate_rows_have_no_nan_columns() {
        for (committed, rolled_back, sim_seconds, efficiency) in
            [(0, 0, 0.0, 1.0), (0, 10, 1.0, 0.0)]
        {
            let row = row_for(committed, rolled_back, sim_seconds);
            assert_eq!(row.report.committed_rate, 0.0);
            assert_eq!(row.report.efficiency, efficiency);
            let csv = row.csv();
            assert!(!csv.contains("NaN") && !csv.contains("inf"), "degenerate row leaked: {csv}");
            for field in csv.split(',') {
                if let Ok(v) = field.parse::<f64>() {
                    assert!(v.is_finite(), "non-finite field {field:?} in {csv}");
                }
            }
        }
    }

    #[test]
    fn health_alerts_column_counts_alerts() {
        let mut row = row_for(90, 10, 1.0);
        assert!(row.csv().ends_with(",0"));
        row.report.health.push("straggler: worker 3".to_string());
        row.report.health.push("efficiency-collapse".to_string());
        assert!(row.csv().ends_with(",2"), "health_alerts column counts alerts");
    }
}
