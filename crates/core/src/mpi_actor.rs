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
//!
//! The dedicated actor follows the workers' park-and-wake rule
//! ([`cagvt_base::wake`]): a step that moved no traffic, charged nothing
//! and whose GVT half did nothing is a *pure* poll, and parks. It wakes on
//! the notices of everything its pump reads (a worker's outbox post, a
//! fabric or control-plane send to its node, the GVT state its half waits
//! on, the stop), at the earliest head it can see (outbox, fabric inbox,
//! control inbox), or at a timer its GVT half sets for a collective result
//! in flight. A pure poll bumps none of the pump's counters, so the polls
//! the scheduler skips need no credit here, and each would have stored the
//! same outbox depth: a post wakes the actor at its first poll after the
//! posting step, where polling would have stored the new depth. A pump
//! with a fault injector keeps polling, because its MPI stall windows are
//! read by time.

use cagvt_base::actor::{Actor, StepResult};
use cagvt_base::ids::{ActorId, NodeId};
use cagvt_base::time::WallNs;
use cagvt_base::trace::TraceRecord;
use cagvt_base::wake::{self, Park};
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
///
/// Every pump stores its node's outbox depth, the CA-GVT queue trigger's
/// signal, and samples the outbox and fabric-inbox depths as trace
/// counters, recording each only when it differs from its last record.
pub struct MpiPump<M: Model> {
    node: NodeId,
    shared: Arc<EngineShared<M>>,
    nshared: Arc<NodeShared<M::Payload>>,
    gvt_mpi: Box<dyn MpiGvt>,
    out_buf: Vec<RemoteEnv<M::Payload>>,
    in_buf: Vec<RemoteEnv<M::Payload>>,
    /// The depth each trace counter (outbound, inbound) last recorded.
    recorded: [Option<u64>; 2],
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
            recorded: [None; 2],
            counters: MpiCounters::default(),
        }
    }

    /// Record `depth` on the outbound or inbound queue counter if it
    /// changed since that counter's last record.
    fn record_depth(&mut self, now: WallNs, inbound: bool, depth: u64) {
        let last = &mut self.recorded[inbound as usize];
        if *last != Some(depth) {
            *last = Some(depth);
            let node = self.node.0;
            self.shared.gvt_core.emit(now, || TraceRecord::MpiQueue { node, depth, inbound });
        }
    }

    /// The earliest instant a queue this pump drains lets a message
    /// through: the head of the outbox, the fabric inbox or the control
    /// inbox.
    fn next_arrival(&self) -> Option<WallNs> {
        let node = self.node;
        [
            self.nshared.outbox.head_deliver_at(),
            self.shared.fabric.inbox(node).head_deliver_at(),
            self.shared.ctrl.inbox(node).head_deliver_at(),
        ]
        .into_iter()
        .flatten()
        .min()
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
        self.record_depth(now, false, depth);
        let mut moved = 0u64;
        if mode != MpiMode::PerWorker {
            let mut out_buf = std::mem::take(&mut self.out_buf);
            let n = self.nshared.outbox.drain_ready_into(now, MPI_BATCH, &mut out_buf);
            for env in out_buf.drain(..) {
                charge +=
                    self.nshared.mpi_call(&self.shared.cfg, now + charge, cost_model.mpi_send);
                debug_assert_ne!(self.node, env.dst_node, "remote send to self");
                self.shared.fabric.send(self.node, env.dst_node, now + charge, env, &cost_model);
            }
            self.out_buf = out_buf;
            moved += n as u64;
            self.counters.sent += n as u64;
        }

        // Inbound: fabric -> destination worker lanes.
        let mut in_buf = std::mem::take(&mut self.in_buf);
        let inbox = self.shared.fabric.inbox(self.node);
        let (m, depth) = (inbox.drain_ready_into(now, MPI_BATCH, &mut in_buf), inbox.len());
        self.record_depth(now, true, depth as u64);
        for env in in_buf.drain(..) {
            charge += self.nshared.mpi_call(&self.shared.cfg, now + charge, cost_model.mpi_recv);
            debug_assert_eq!(env.dst_node, self.node, "misrouted remote message");
            let deliver_at = now + charge + cost_model.regional_latency;
            self.nshared.lane_queues[env.dst_lane.index()].push(deliver_at, env.tagged);
            let owner = self.shared.cfg.spec.worker_index(self.node, env.dst_lane);
            wake::notify_actor(ActorId(owner), deliver_at);
        }
        self.in_buf = in_buf;
        moved += m as u64;
        self.counters.received += m as u64;

        // Node-side GVT work (collective relays, ring forwarding).
        charge += self.gvt_mpi.step(now + charge);
        (charge, moved > 0)
    }

    /// Deposit this pump's counters for the run's report. Its driver calls
    /// this once, when it finishes.
    pub fn deposit(&self) {
        self.shared.stats.mpi_deposits.lock().push(self.counters);
    }
}

/// Dedicated MPI thread: drives the pump and nothing else.
pub struct MpiActor<M: Model> {
    actor_id: ActorId,
    pump: MpiPump<M>,
}

impl<M: Model> MpiActor<M> {
    pub fn new(actor_id: ActorId, pump: MpiPump<M>) -> Self {
        MpiActor { actor_id, pump }
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
        // No runtime steps an actor again after it reported `Done`.
        if self.pump.shared.gvt_core.stopped() {
            self.pump.deposit();
            return StepResult::done();
        }
        let (charge, moved) = self.pump.pump(now);
        if moved || charge > WallNs::ZERO {
            return StepResult::progress(charge);
        }
        let idle = StepResult::idle(self.pump.shared.cfg.cost.idle_poll);
        // A fault plan's stall window opens by time, not by a notice.
        match self.pump.shared.faults {
            Some(_) => idle,
            None => idle.parked(Park { until: self.pump.next_arrival(), pace: false }),
        }
    }
}
