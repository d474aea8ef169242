//! The MPI pump: moving remote traffic between a node and the fabric.
//!
//! One [`MpiPump`] exists per node. Who drives it is the paper's first
//! research question:
//!
//! * `MpiMode::Dedicated` — an [`MpiActor`] (its own thread) drives it and
//!   does nothing else;
//! * `MpiMode::InlineWorker` — worker lane 0 drives it in between event
//!   processing, so pump costs land on that worker's clock and its LPs
//!   fall behind;
//! * `MpiMode::PerWorker` — every worker performs its own *sends* through
//!   the contended MPI lock; lane 0 drives the pump for inbound traffic
//!   and GVT control, also through the lock.

use cagvt_base::actor::{Actor, StepResult};
use cagvt_base::ids::{ActorId, NodeId};
use cagvt_base::time::WallNs;
use cagvt_base::wake;
use cagvt_net::MpiMode;
use std::sync::Arc;

use crate::event::RemoteEnv;
use crate::gvt::MpiGvt;
use crate::model::Model;
use crate::node::{EngineShared, NodeShared};
use crate::stats::MpiCounters;

/// Max messages a pump moves per direction per step.
const MPI_BATCH: usize = 16;

/// Per-node MPI send/receive engine plus the node-side GVT half. Its
/// wiring follows from the run's [`MpiMode`]:
///
/// * it transmits the node outbox unless workers send for themselves
///   (`PerWorker`);
/// * it charges MPI calls through the node's library lock in `PerWorker`
///   mode;
/// * it charges the progress-engine poll (`mpi_poll`) on every pump when
///   embedded in a worker, where polling displaces event processing; the
///   dedicated MPI actor polls on an otherwise-idle core.
pub struct MpiPump<M: Model> {
    node: NodeId,
    shared: Arc<EngineShared<M>>,
    nshared: Arc<NodeShared<M::Payload>>,
    gvt_mpi: Box<dyn MpiGvt>,
    out_buf: Vec<RemoteEnv<M::Payload>>,
    in_buf: Vec<RemoteEnv<M::Payload>>,
    pub counters: MpiCounters,
}

impl<M: Model> MpiPump<M> {
    pub fn new(node: NodeId, shared: Arc<EngineShared<M>>, gvt_mpi: Box<dyn MpiGvt>) -> Self {
        let nshared = Arc::clone(&shared.nodes[node.index()]);
        MpiPump {
            node,
            shared,
            nshared,
            gvt_mpi,
            out_buf: Vec::new(),
            in_buf: Vec::new(),
            counters: MpiCounters::default(),
        }
    }

    /// Charge for one MPI library call of base cost `base` at time `now`
    /// (already including accrued charge).
    fn mpi_call(&self, now: WallNs, base: WallNs) -> WallNs {
        if self.shared.cfg.spec.mpi_mode == MpiMode::PerWorker {
            let hold = base + self.shared.cfg.cost.mpi_lock_hold;
            self.nshared.mpi_lock.acquire(now, hold)
        } else {
            base
        }
    }

    /// Move one batch in each direction and step the GVT half. Returns the
    /// total wall charge and whether any traffic moved.
    pub fn pump(&mut self, now: WallNs) -> (WallNs, bool) {
        let cost_model = self.shared.cfg.cost;
        let mode = self.shared.cfg.spec.mpi_mode;
        // An in-worker pump pays the progress-engine poll on every call —
        // time stolen from event processing. The dedicated actor's polls
        // ride on its own core.
        let mut charge =
            if mode != MpiMode::Dedicated { cost_model.mpi_poll } else { WallNs::ZERO };
        // A stalled MPI progress engine charges its stall before any
        // traffic moves: sends and receives all land after the stall.
        if let Some(f) = &self.shared.faults {
            charge += f.mpi_stall(self.node, now);
        }

        // Outbound: node outbox -> fabric.
        let depth = self.nshared.outbox.len() as u64;
        self.shared.gvt_core.mpi_queue_depth[self.node.index()]
            .store(depth, std::sync::atomic::Ordering::Relaxed);
        {
            let node = self.node.0;
            self.shared.gvt_core.emit(now, || cagvt_base::trace::TraceRecord::MpiQueue {
                node,
                depth,
                inbound: false,
            });
        }
        let mut moved = 0u64;
        if mode != MpiMode::PerWorker {
            let mut out_buf = std::mem::take(&mut self.out_buf);
            let n = self.nshared.outbox.drain_ready_into(now, MPI_BATCH, &mut out_buf);
            for env in out_buf.drain(..) {
                charge += self.mpi_call(now + charge, cost_model.mpi_send);
                self.shared.fabric.send_event(
                    self.node,
                    env.dst_node,
                    now + charge,
                    env,
                    &cost_model,
                );
            }
            self.out_buf = out_buf;
            moved += n as u64;
            self.counters.sent += n as u64;
        }

        // Inbound: fabric -> destination worker lanes.
        let mut in_buf = std::mem::take(&mut self.in_buf);
        let m = self.shared.fabric.drain_events(self.node, now, MPI_BATCH, &mut in_buf);
        for env in in_buf.drain(..) {
            charge += self.mpi_call(now + charge, cost_model.mpi_recv);
            debug_assert_eq!(env.dst_node, self.node, "misrouted remote message");
            let deliver_at = now + charge + cost_model.regional_latency;
            self.nshared.lane_queues[env.dst_lane.index()].push(deliver_at, env.tagged);
            let owner = self.shared.worker_index(self.node, env.dst_lane);
            wake::notify_actor(ActorId(owner), deliver_at);
        }
        self.in_buf = in_buf;
        moved += m as u64;
        self.counters.received += m as u64;

        // Node-side GVT work (collective relays, ring forwarding).
        charge += self.gvt_mpi.step(now + charge);
        (charge, moved > 0)
    }
}

/// Dedicated MPI thread: drives the pump and nothing else.
pub struct MpiActor<M: Model> {
    actor_id: ActorId,
    pump: MpiPump<M>,
    shared: Arc<EngineShared<M>>,
    finished: bool,
}

impl<M: Model> MpiActor<M> {
    pub fn new(actor_id: ActorId, pump: MpiPump<M>) -> Self {
        let shared = Arc::clone(&pump.shared);
        MpiActor { actor_id, pump, shared, finished: false }
    }
}

impl<M: Model> Actor for MpiActor<M> {
    fn id(&self) -> ActorId {
        self.actor_id
    }

    fn label(&self) -> String {
        format!("mpi@{}", self.pump.node)
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        if self.finished {
            return StepResult::done();
        }
        if self.shared.gvt_core.stopped() {
            self.shared.stats.mpi_deposits.lock().push(self.pump.counters);
            self.finished = true;
            return StepResult::done();
        }
        let (charge, moved) = self.pump.pump(now);
        if moved || charge > WallNs::ZERO {
            StepResult::progress(charge)
        } else {
            StepResult::idle(self.shared.cfg.cost.idle_poll)
        }
    }
}
