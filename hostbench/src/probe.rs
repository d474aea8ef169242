//! Layer attribution from outside the engine.
//!
//! The engine exposes its layers as public functions and trait objects:
//! every worker and MPI thread is a `Box<dyn Actor>`, each GVT half is a
//! `Box<dyn WorkerGvt>` / `Box<dyn MpiGvt>` handed out by a `GvtBundle`, and
//! the model is a generic `Model`. The wrappers here forward every call to
//! the wrapped object and time it as a span of its [`Layer`]; nothing inside
//! the engine changes, so a wrapped run commits exactly what an unwrapped
//! one does (the `wrappers` tests check this for every GVT algorithm).
//!
//! Self time is a span's duration minus the spans that ran inside it. The
//! [`Probe`] keeps one running "time covered by finished children" value
//! for the open span, which is exact for the single-threaded virtual
//! scheduler (spans nest strictly). Under real OS threads the attribution
//! would interleave and mean nothing; the benchmark never runs that way.
//!
//! The clock reads themselves cost host time: a span's own two reads land
//! in its parent's self time, so `exec` and `core.worker` self times carry
//! the instrumentation overhead, which the benchmark reports separately as
//! `trace_overhead`.

use cagvt_base::actor::{Actor, StepOutcome, StepResult};
use cagvt_base::ids::{ActorId, EventId, LaneId, LpId, NodeId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_core::gvt::{GvtBundle, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};
use cagvt_core::model::{Emitter, EventCtx, Model};
use cagvt_net::MsgClass;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// A layer of the engine, named after the crate (and type) it lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `VirtualScheduler::run`: the scheduler's heap and dispatch.
    Exec,
    /// A `Worker` as `Actor::step` (inbound drain, pending set, LP state
    /// saving, routing, fossil collection; the fabric's lane queues too).
    Worker,
    /// An `MpiActor` as `Actor::step` (the node's MPI pump and fabric).
    Mpi,
    /// `WorkerGvt::step`.
    GvtWorker,
    /// The per-message `WorkerGvt` hooks: `on_send`, `on_recv` and Samadi's
    /// acknowledgement methods.
    GvtMsg,
    /// `MpiGvt::step`.
    GvtMpi,
    /// `Model::handle`.
    ModelHandle,
    /// `Model::reverse`.
    ModelReverse,
    /// `RunReport::assemble`.
    Report,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Exec,
        Layer::Worker,
        Layer::Mpi,
        Layer::GvtWorker,
        Layer::GvtMsg,
        Layer::GvtMpi,
        Layer::ModelHandle,
        Layer::ModelReverse,
        Layer::Report,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Exec => "exec",
            Layer::Worker => "core.worker",
            Layer::Mpi => "core.mpi",
            Layer::GvtWorker => "gvt.worker",
            Layer::GvtMsg => "gvt.msg",
            Layer::GvtMpi => "gvt.mpi",
            Layer::ModelHandle => "models.handle",
            Layer::ModelReverse => "models.reverse",
            Layer::Report => "core.report",
        }
    }
}

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicI64,
}

/// Span accumulator shared by every wrapper of one run.
///
/// The atomics only make the wrappers `Send + Sync` as the engine's traits
/// require; the virtual scheduler calls them from one thread. Each update
/// is therefore a relaxed load and store (plain moves, no locked
/// read-modify-write), which keeps the probe's own cost per span low. The
/// values are statistics read after the run and publish nothing.
#[derive(Default)]
pub struct Probe {
    cells: [Cell; Layer::ALL.len()],
    /// Time covered by finished child spans of the currently open span.
    child_ns: AtomicU64,
    worker_idle_steps: AtomicU64,
    worker_idle_ns: AtomicU64,
    mpi_idle_steps: AtomicU64,
    gvt_blocked: AtomicU64,
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// Run `f` as a span of `layer`; returns its result and duration.
    #[inline]
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
        let outer = self.child_ns.load(Relaxed);
        self.child_ns.store(0, Relaxed);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_nanos() as u64;
        let inner = self.child_ns.load(Relaxed);
        self.child_ns.store(outer + dt, Relaxed);
        let cell = &self.cells[layer as usize];
        bump(&cell.calls, 1);
        bump(&cell.total_ns, dt);
        cell.self_ns.store(cell.self_ns.load(Relaxed) + dt as i64 - inner as i64, Relaxed);
        (r, dt)
    }

    /// Plain-value copy of everything recorded so far.
    pub fn totals(&self) -> LayerTotals {
        let mut layers = [LayerStat::default(); Layer::ALL.len()];
        for (stat, cell) in layers.iter_mut().zip(&self.cells) {
            *stat = LayerStat {
                calls: cell.calls.load(Relaxed),
                total_ns: cell.total_ns.load(Relaxed),
                self_ns: cell.self_ns.load(Relaxed),
            };
        }
        LayerTotals {
            layers,
            worker_idle_steps: self.worker_idle_steps.load(Relaxed),
            worker_idle_ns: self.worker_idle_ns.load(Relaxed),
            mpi_idle_steps: self.mpi_idle_steps.load(Relaxed),
            gvt_blocked: self.gvt_blocked.load(Relaxed),
        }
    }
}

/// Single-writer increment (see [`Probe`]).
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

/// Calls, inclusive time and self time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

/// Everything a [`Probe`] recorded over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    layers: [LayerStat; Layer::ALL.len()],
    /// Worker steps that returned `Idle`, and their inclusive time.
    pub worker_idle_steps: u64,
    pub worker_idle_ns: u64,
    /// MPI actor steps that returned `Idle`.
    pub mpi_idle_steps: u64,
    /// `WorkerGvt::step` calls that returned `Blocked`.
    pub gvt_blocked: u64,
}

impl LayerTotals {
    pub fn get(&self, layer: Layer) -> LayerStat {
        self.layers[layer as usize]
    }

    /// Accumulate another run's totals into these.
    pub fn add(&mut self, other: &LayerTotals) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        self.worker_idle_steps += other.worker_idle_steps;
        self.worker_idle_ns += other.worker_idle_ns;
        self.mpi_idle_steps += other.mpi_idle_steps;
        self.gvt_blocked += other.gvt_blocked;
    }
}

/// An actor whose every step is a span of `layer`.
pub struct TracedActor {
    inner: Box<dyn Actor>,
    layer: Layer,
    probe: Arc<Probe>,
}

impl Actor for TracedActor {
    fn id(&self) -> ActorId {
        self.inner.id()
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        let (result, dt) = self.probe.span(self.layer, || self.inner.step(now));
        if result.outcome == StepOutcome::Idle {
            match self.layer {
                Layer::Worker => {
                    bump(&self.probe.worker_idle_steps, 1);
                    bump(&self.probe.worker_idle_ns, dt);
                }
                _ => bump(&self.probe.mpi_idle_steps, 1),
            }
        }
        result
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Wrap the actors `build_cluster` returned: the first `total_workers` are
/// the workers (actor id = worker index), the rest the dedicated MPI actors.
pub fn wrap_actors(
    actors: Vec<Box<dyn Actor>>,
    total_workers: u32,
    probe: &Arc<Probe>,
) -> Vec<Box<dyn Actor>> {
    actors
        .into_iter()
        .map(|inner| {
            let layer = if inner.id().0 < total_workers { Layer::Worker } else { Layer::Mpi };
            Box::new(TracedActor { inner, layer, probe: Arc::clone(probe) }) as Box<dyn Actor>
        })
        .collect()
}

/// A `GvtBundle` whose worker and MPI halves are wrapped in spans.
pub struct TracedBundle {
    inner: Box<dyn GvtBundle>,
    probe: Arc<Probe>,
}

impl TracedBundle {
    pub fn new(inner: Box<dyn GvtBundle>, probe: Arc<Probe>) -> Self {
        TracedBundle { inner, probe }
    }
}

impl GvtBundle for TracedBundle {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn worker_gvt(&self, node: NodeId, lane: LaneId, worker_index: u32) -> Box<dyn WorkerGvt> {
        Box::new(TracedWorkerGvt {
            inner: self.inner.worker_gvt(node, lane, worker_index),
            probe: Arc::clone(&self.probe),
        })
    }

    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        Box::new(TracedMpiGvt { inner: self.inner.mpi_gvt(node), probe: Arc::clone(&self.probe) })
    }
}

/// Forwards every `WorkerGvt` method, timing each call.
pub struct TracedWorkerGvt {
    inner: Box<dyn WorkerGvt>,
    probe: Arc<Probe>,
}

impl WorkerGvt for TracedWorkerGvt {
    fn on_send(&mut self, class: MsgClass, recv_time: VirtualTime) -> u64 {
        self.probe.span(Layer::GvtMsg, || self.inner.on_send(class, recv_time)).0
    }

    fn on_recv(&mut self, tag: u64, class: MsgClass) {
        self.probe.span(Layer::GvtMsg, || self.inner.on_recv(tag, class));
    }

    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome {
        let (outcome, _) = self.probe.span(Layer::GvtWorker, || self.inner.step(ctx));
        if matches!(outcome, WorkerGvtOutcome::Blocked(_)) {
            bump(&self.probe.gvt_blocked, 1);
        }
        outcome
    }

    fn wants_acks(&self) -> bool {
        self.inner.wants_acks()
    }

    fn on_send_tracked(&mut self, id: EventId, recv_time: VirtualTime, anti: bool) {
        self.probe.span(Layer::GvtMsg, || self.inner.on_send_tracked(id, recv_time, anti));
    }

    fn mark_acks(&self) -> bool {
        self.probe.span(Layer::GvtMsg, || self.inner.mark_acks()).0
    }

    fn on_ack(&mut self, id: EventId, recv_time: VirtualTime, anti: bool, marked: bool) {
        self.probe.span(Layer::GvtMsg, || self.inner.on_ack(id, recv_time, anti, marked));
    }
}

/// Forwards `MpiGvt::step`, timing it.
pub struct TracedMpiGvt {
    inner: Box<dyn MpiGvt>,
    probe: Arc<Probe>,
}

impl MpiGvt for TracedMpiGvt {
    fn step(&mut self, now: WallNs) -> WallNs {
        self.probe.span(Layer::GvtMpi, || self.inner.step(now)).0
    }
}

/// A model that times `handle` and `reverse` and forwards everything else.
/// Initial-state and time-zero hooks run during set-up and stay untimed.
pub struct TimedModel<M> {
    inner: M,
    probe: Arc<Probe>,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M, probe: Arc<Probe>) -> Self {
        TimedModel { inner, probe }
    }
}

impl<M: Model> Model for TimedModel<M> {
    type State = M::State;
    type Payload = M::Payload;

    fn init_state(&self, lp: LpId, rng: &mut Pcg32) -> M::State {
        self.inner.init_state(lp, rng)
    }

    fn initial_events(
        &self,
        lp: LpId,
        state: &mut M::State,
        rng: &mut Pcg32,
        emit: &mut Emitter<M::Payload>,
    ) {
        self.inner.initial_events(lp, state, rng, emit)
    }

    fn handle(
        &self,
        ctx: &EventCtx,
        state: &mut M::State,
        payload: &M::Payload,
        rng: &mut Pcg32,
        emit: &mut Emitter<M::Payload>,
    ) -> u64 {
        self.probe.span(Layer::ModelHandle, || self.inner.handle(ctx, state, payload, rng, emit)).0
    }

    fn state_fingerprint(&self, state: &M::State) -> u64 {
        self.inner.state_fingerprint(state)
    }

    fn supports_reverse(&self) -> bool {
        self.inner.supports_reverse()
    }

    fn reverse(&self, ctx: &EventCtx, state: &mut M::State, payload: &M::Payload, rng: &mut Pcg32) {
        self.probe.span(Layer::ModelReverse, || self.inner.reverse(ctx, state, payload, rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let probe = Probe::new();
        probe.span(Layer::Exec, || {
            probe.span(Layer::Worker, || {
                probe.span(Layer::ModelHandle, || std::hint::black_box((0..1000u64).sum::<u64>()))
            });
            probe.span(Layer::Mpi, || ());
        });
        let t = probe.totals();
        let exec = t.get(Layer::Exec);
        let worker = t.get(Layer::Worker);
        let model = t.get(Layer::ModelHandle);
        let mpi = t.get(Layer::Mpi);
        assert_eq!((exec.calls, worker.calls, model.calls, mpi.calls), (1, 1, 1, 1));
        assert_eq!(worker.self_ns, worker.total_ns as i64 - model.total_ns as i64);
        assert_eq!(exec.self_ns, exec.total_ns as i64 - (worker.total_ns + mpi.total_ns) as i64);
        let self_sum: i64 = Layer::ALL.iter().map(|&l| t.get(l).self_ns).sum();
        assert_eq!(self_sum, exec.total_ns as i64, "self times partition the outer span");
    }
}
