//! The worker thread: the engine's main loop as an actor state machine.
//!
//! Each step performs one iteration of the classic optimistic main loop:
//!
//! 1. drain the lane's inbound queue (insert events, handle anti-messages,
//!    annihilate, roll back as needed);
//! 2. if this worker carries MPI duty (inline modes), pump the MPI layer;
//! 3. advance the GVT algorithm; fossil collect on round completion;
//! 4. unless the GVT step blocked (synchronous algorithms) or the optimism
//!    throttle is engaged, process the lowest pending event and route its
//!    emissions.
//!
//! All charging goes through the [`CostModel`](cagvt_net::CostModel), so
//! the identical code yields paper-scale timing under the virtual
//! scheduler and real timing under the thread runtime.
//!
//! A step that found nothing to do at all — nothing drained, no MPI duty,
//! no event processed, and a GVT half [`Waiting`](WorkerGvtOutcome::Waiting)
//! on notified state — asks to be parked (see [`cagvt_base::wake`]). Every
//! repeat of such a poll would only bump the same counters, so the worker
//! remembers which ones and credits each poll the scheduler skipped.

use cagvt_base::actor::{Actor, StepResult};
use cagvt_base::ids::{ActorId, EventId, LaneId, LpId, NodeId};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::trace::TraceRecord;
use cagvt_base::wake::{self, Park};
use cagvt_net::{MpiMode, MsgClass};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::event::{AntiMsg, Event, EventMsg, RemoteEnv, TaggedMsg};
use crate::gvt::{WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};
use crate::lp::{LpRuntime, Rollback, SentRecord};
use crate::model::{Emitter, EventCtx, Model};
use crate::mpi_actor::MpiPump;
use crate::node::{EngineShared, NodeShared};
use crate::queue::{CancelOutcome, PendingSet};
use crate::stats::{RoundSnapshot, WorkerCounters};

/// Max messages a worker drains from its queue per step.
const RECV_BATCH: usize = 32;

/// A worker thread of one node.
pub struct Worker<M: Model> {
    actor_id: ActorId,
    node: NodeId,
    lane: LaneId,
    /// Dense global worker index.
    widx: u32,
    first_lp: u32,
    shared: Arc<EngineShared<M>>,
    nshared: Arc<NodeShared<M::Payload>>,
    model: Arc<M>,
    lps: Vec<LpRuntime<M>>,
    pending: PendingSet<M::Payload>,
    gvt: Box<dyn WorkerGvt>,
    /// MPI duty carried by this worker (inline modes, lane 0 only).
    mpi_duty: Option<MpiPump<M>>,
    counters: WorkerCounters,
    events_since_round: u64,
    /// Total uncommitted history across this worker's LPs (throttle input).
    uncommitted: usize,
    recv_buf: Vec<TaggedMsg<M::Payload>>,
    emit: Emitter<M::Payload>,
    local_antis: VecDeque<AntiMsg>,
    /// Start of the current contiguous barrier-blocked stretch, if any
    /// (one `BarrierWait` record and counter update on release).
    blocked_since: Option<WallNs>,
    /// The GVT algorithm requires acknowledgement traffic (Samadi).
    acks_enabled: bool,
    /// Set when this worker asked to be parked: the counters its repeated
    /// idle poll bumps, credited once per poll the scheduler skipped.
    parked: Option<IdlePoll>,
    finished: bool,
}

/// The counters one pure idle poll bumps.
#[derive(Clone, Copy, Debug)]
struct IdlePoll {
    throttled: bool,
    requests_interval: bool,
    requests_idle: bool,
}

impl<M: Model> Worker<M> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        actor_id: ActorId,
        node: NodeId,
        lane: LaneId,
        shared: Arc<EngineShared<M>>,
        lps: Vec<LpRuntime<M>>,
        gvt: Box<dyn WorkerGvt>,
        mpi_duty: Option<MpiPump<M>>,
    ) -> Self {
        let nshared = Arc::clone(&shared.nodes[node.index()]);
        let model = Arc::clone(&shared.model);
        let widx = shared.worker_index(node, lane);
        let first_lp = shared.first_lp(node, lane).0;
        let acks_enabled = gvt.wants_acks();
        Worker {
            actor_id,
            node,
            lane,
            widx,
            first_lp,
            shared,
            nshared,
            model,
            lps,
            pending: PendingSet::new(),
            gvt,
            mpi_duty,
            counters: WorkerCounters::default(),
            events_since_round: 0,
            uncommitted: 0,
            recv_buf: Vec::new(),
            emit: Emitter::new(),
            local_antis: VecDeque::new(),
            blocked_since: None,
            acks_enabled,
            parked: None,
            finished: false,
        }
    }

    /// Insert a pre-run (time-zero) event, used by the cluster builder.
    pub fn preload_event(&mut self, event: Event<M::Payload>) {
        let inserted = self.pending.insert(event);
        debug_assert!(inserted, "no anti-messages can exist before the run");
    }

    /// Builder access to LP `k` (time-zero seeding).
    pub fn lp_mut(&mut self, k: usize) -> &mut LpRuntime<M> {
        &mut self.lps[k]
    }

    #[inline]
    fn lp_index(&self, lp: LpId) -> usize {
        let idx = (lp.0 - self.first_lp) as usize;
        debug_assert!(idx < self.lps.len(), "event routed to wrong worker: {lp}");
        idx
    }

    /// Route a tagged message to its destination queue, returning the send
    /// charge. Local deliveries are applied immediately.
    fn route(&mut self, now: WallNs, msg: EventMsg<M::Payload>) -> WallNs {
        let cost = &self.shared.cfg.cost;
        let dst = msg.dst();
        let (dst_node, dst_lane) = self.shared.locate(dst);
        let is_ack = matches!(msg, EventMsg::Ack(_));
        if !is_ack {
            let (id, vt, anti) = match &msg {
                EventMsg::Event(e) => (e.id, e.recv_time, false),
                EventMsg::Anti(a) => (a.id, a.recv_time, true),
                EventMsg::Ack(_) => unreachable!(),
            };
            let (worker, remote) = (self.widx, dst_node != self.node);
            self.shared.gvt_core.emit(now, || TraceRecord::MsgSend {
                worker,
                id,
                dst,
                vt,
                anti,
                remote,
            });
        }
        if dst_node == self.node && dst_lane == self.lane {
            // Local: never in flight, no tag, no channel.
            match msg {
                EventMsg::Event(e) => {
                    self.counters.sent_local += 1;
                    if !self.pending.insert(e) {
                        self.counters.annihilated += 1;
                    }
                }
                EventMsg::Anti(a) => {
                    self.counters.sent_local += 1;
                    self.local_antis.push_back(a);
                }
                // A local "ack" can only arise from a local send, which is
                // never tracked — nothing to do.
                EventMsg::Ack(_) => return WallNs::ZERO,
            }
            return cost.local_send;
        }
        if matches!(msg, EventMsg::Anti(_)) {
            self.counters.antis_sent += 1;
        }
        let recv_time = msg.recv_time();
        // Acknowledgements are GVT-algorithm bookkeeping, not simulation
        // messages: they carry no color tag and stay out of the in-transit
        // accounting (they can never cause a rollback). Samadi tracks the
        // *acknowledged* messages instead.
        if is_ack {
            self.counters.acks_sent += 1;
        } else {
            self.shared.stats.msgs_sent.fetch_add(1, Ordering::Release);
            if self.acks_enabled {
                let (id, anti) = match &msg {
                    EventMsg::Event(e) => (e.id, false),
                    EventMsg::Anti(a) => (a.id, true),
                    EventMsg::Ack(_) => unreachable!(),
                };
                self.gvt.on_send_tracked(id, recv_time, anti);
            }
        }
        if dst_node == self.node {
            let tag = if is_ack { 0 } else { self.gvt.on_send(MsgClass::Regional, recv_time) };
            self.counters.sent_regional += 1;
            let deliver_at = now + cost.regional_latency;
            self.nshared.lane_queues[dst_lane.index()].push(deliver_at, TaggedMsg { msg, tag });
            wake::notify_actor(ActorId(self.shared.worker_index(dst_node, dst_lane)), deliver_at);
            cost.regional_send
        } else {
            let tag = if is_ack { 0 } else { self.gvt.on_send(MsgClass::Remote, recv_time) };
            self.counters.sent_remote += 1;
            let env = RemoteEnv { dst_node, dst_lane, tagged: TaggedMsg { msg, tag } };
            if self.shared.cfg.spec.mpi_mode == MpiMode::PerWorker {
                // This worker performs the MPI send itself, through the
                // contended library lock.
                let hold = cost.mpi_send + cost.mpi_lock_hold;
                let charge = self.nshared.mpi_lock.acquire(now, hold);
                self.shared.fabric.send_event(self.node, dst_node, now + charge, env, cost);
                charge
            } else {
                self.nshared.outbox.push(now, env);
                cost.remote_post
            }
        }
    }

    /// Apply a rollback result: account, re-enqueue, send anti-messages.
    fn apply_rollback(&mut self, now: WallNs, rb: Rollback<M::Payload>, straggler: bool) -> WallNs {
        let cost = &self.shared.cfg.cost;
        let mut charge = WallNs::ZERO;
        if rb.undone == 0 {
            return charge;
        }
        self.counters.rollbacks += 1;
        self.uncommitted -= rb.undone as usize;
        self.shared.stats.rolled_back.fetch_add(rb.undone, Ordering::Relaxed);
        let (worker, undone) = (self.widx, rb.undone);
        self.shared.gvt_core.emit(now, || TraceRecord::Rollback { worker, undone, straggler });
        charge += WallNs(cost.rollback_per_event.0 * rb.undone);
        for e in rb.reenqueue {
            let (id, vt) = (e.id, e.recv_time);
            self.shared.gvt_core.emit(now, || TraceRecord::Reenqueue { worker, id, vt });
            if !self.pending.insert(e) {
                self.counters.annihilated += 1;
            }
        }
        for a in rb.antis {
            charge += self.route(now + charge, EventMsg::Anti(a));
        }
        charge
    }

    /// Handle one received anti-message (and any local cascade it causes).
    fn handle_anti(&mut self, now: WallNs, anti: AntiMsg) -> WallNs {
        self.local_antis.push_back(anti);
        self.drain_local_antis(now)
    }

    /// Process queued local anti-messages until none remain. Every code
    /// path that can call [`Self::route`] outside this loop must drain
    /// afterwards, or a locally-routed anti would sit unapplied while its
    /// target is re-sent.
    fn drain_local_antis(&mut self, now: WallNs) -> WallNs {
        let mut charge = WallNs::ZERO;
        let mut cascade = 0u64;
        let worker = self.widx;
        while let Some(a) = self.local_antis.pop_front() {
            let idx = self.lp_index(a.dst);
            if self.lps[idx].has_processed(a.id) {
                // GVT safety: an anti-message can only cancel work that is
                // still provisional. Rolling back below the published GVT
                // would mean a GVT algorithm overshot (fossil-collected
                // state is gone), so this is checked unconditionally.
                let gvt_floor = self.shared.gvt_core.published_gvt();
                assert!(
                    a.recv_time >= gvt_floor,
                    "anti-message rollback target {} below published GVT {gvt_floor}",
                    a.recv_time
                );
                cascade += 1;
                let rb = self.lps[idx].rollback_cancel(&*self.model, a.id, a.key());
                self.counters.annihilated += 1;
                let id = a.id;
                self.shared.gvt_core.emit(now + charge, || TraceRecord::Annihilate {
                    worker,
                    id,
                    pending: false,
                });
                charge += self.apply_rollback(now + charge, rb, false);
            } else {
                match self.pending.cancel(a.key()) {
                    CancelOutcome::AnnihilatedPending => {
                        self.counters.annihilated += 1;
                        let id = a.id;
                        self.shared.gvt_core.emit(now + charge, || TraceRecord::Annihilate {
                            worker,
                            id,
                            pending: true,
                        });
                    }
                    CancelOutcome::Deferred => {
                        let (id, vt) = (a.id, a.recv_time);
                        self.shared.gvt_core.emit(now + charge, || TraceRecord::AntiDeferred {
                            worker,
                            id,
                            vt,
                        });
                    }
                }
            }
        }
        self.counters.max_cascade = self.counters.max_cascade.max(cascade);
        charge
    }

    /// Drain this lane's inbound queue.
    fn drain_inbound(&mut self, now: WallNs) -> (WallNs, bool) {
        let cost = self.shared.cfg.cost;
        let mut charge = WallNs::ZERO;
        let mut buf = std::mem::take(&mut self.recv_buf);
        let n =
            self.nshared.lane_queues[self.lane.index()].drain_ready_into(now, RECV_BATCH, &mut buf);
        for tagged in buf.drain(..) {
            charge += cost.recv_handling;
            if let EventMsg::Ack(a) = &tagged.msg {
                self.gvt.on_ack(a.id, a.recv_time, a.anti, a.marked);
                continue;
            }
            self.shared.stats.msgs_received.fetch_add(1, Ordering::Release);
            self.gvt.on_recv(tagged.tag, MsgClass::Regional);
            if self.acks_enabled {
                let ack = match &tagged.msg {
                    EventMsg::Event(e) => crate::event::AckMsg {
                        id: e.id,
                        recv_time: e.recv_time,
                        anti: false,
                        marked: self.gvt.mark_acks(),
                    },
                    EventMsg::Anti(a) => crate::event::AckMsg {
                        id: a.id,
                        recv_time: a.recv_time,
                        anti: true,
                        marked: self.gvt.mark_acks(),
                    },
                    EventMsg::Ack(_) => unreachable!(),
                };
                charge += self.route(now + charge, EventMsg::Ack(ack));
            }
            {
                let worker = self.widx;
                let (id, vt, anti) = match &tagged.msg {
                    EventMsg::Event(e) => (e.id, e.recv_time, false),
                    EventMsg::Anti(a) => (a.id, a.recv_time, true),
                    EventMsg::Ack(_) => unreachable!(),
                };
                self.shared.gvt_core.emit(now + charge, || TraceRecord::MsgRecv {
                    worker,
                    id,
                    vt,
                    anti,
                });
            }
            match tagged.msg {
                EventMsg::Event(e) => {
                    if !self.pending.insert(e) {
                        self.counters.annihilated += 1;
                    }
                }
                EventMsg::Anti(a) => {
                    charge += self.handle_anti(now + charge, a);
                }
                EventMsg::Ack(_) => unreachable!(),
            }
        }
        self.recv_buf = buf;
        (charge, n > 0)
    }

    /// Fossil collect all LPs at the new GVT.
    fn fossil(&mut self, gvt: VirtualTime) -> WallNs {
        // Tombstones keyed below the new GVT can never match again; free
        // them with the same pass that frees LP history.
        self.pending.purge_below(gvt);
        let mut committed = 0u64;
        for lp in &mut self.lps {
            committed += lp.fossil_collect(gvt);
        }
        self.uncommitted -= committed as usize;
        self.shared.stats.committed.fetch_add(committed, Ordering::Relaxed);
        WallNs(self.shared.cfg.cost.fossil_per_event.0 * committed)
    }

    /// Process the minimum pending event, if allowed. Returns (charge,
    /// processed?).
    fn process_next(&mut self, now: WallNs) -> (WallNs, bool) {
        let cfg = self.shared.cfg;
        let end = cfg.end_vt();
        if self.uncommitted >= cfg.max_outstanding {
            self.counters.throttled += 1;
            return (WallNs::ZERO, false);
        }
        let Some(key) = self.pending.min_key() else {
            return (WallNs::ZERO, false);
        };
        if key.t >= end {
            return (WallNs::ZERO, false);
        }
        let event = self.pending.pop_min().expect("min_key was Some");
        let cost = cfg.cost;
        let mut charge = WallNs::ZERO;

        let idx = self.lp_index(event.dst);
        if event.key() <= self.lps[idx].last_key() {
            // Straggler: roll the LP back to just before this event. Local
            // antis must apply before processing resumes — the re-execution
            // below reuses the sequence numbers they cancel.
            //
            // GVT safety: the rollback target must sit at or above the
            // published GVT — state below it has been fossil-collected.
            // Checked unconditionally so every fault-plan run exercises it.
            let gvt_floor = self.shared.gvt_core.published_gvt();
            assert!(
                event.recv_time >= gvt_floor,
                "straggler rollback target {} below published GVT {gvt_floor}",
                event.recv_time
            );
            self.counters.stragglers += 1;
            let rb = self.lps[idx].rollback_to(&*self.model, event.key());
            charge += self.apply_rollback(now, rb, true);
            charge += self.drain_local_antis(now + charge);
        }

        let ctx = EventCtx {
            now: event.recv_time,
            self_lp: event.dst,
            end_time: end,
            total_lps: cfg.total_lps(),
        };
        let (eid, edst) = (event.id, event.dst);
        let span_start = now + charge;
        let mut emit = std::mem::take(&mut self.emit);
        let epg = self.lps[idx].process(&*self.model, &ctx, event, &mut emit);
        let span = cost.event_overhead + cost.epg_cost(epg);
        {
            let (worker, vt) = (self.widx, ctx.now);
            self.shared.gvt_core.emit(span_start, || TraceRecord::EventSpan {
                worker,
                id: eid,
                dst: edst,
                vt,
                dur: span,
            });
        }
        charge += span;

        // Stamp, route and record the emissions.
        let base = ctx.now;
        let mut records: Vec<SentRecord> = Vec::with_capacity(emit.len());
        let sends: Vec<(LpId, f64, M::Payload)> = emit.take().collect();
        self.emit = emit;
        for (dst, delay, payload) in sends {
            let seq = self.lps[idx].next_seq();
            let id = EventId::new(self.lps[idx].id, seq);
            let recv_time = base + delay;
            records.push(SentRecord { dst, recv_time, id });
            charge +=
                self.route(now + charge, EventMsg::Event(Event { recv_time, dst, id, payload }));
        }
        self.lps[idx].record_sends(records);
        charge += self.drain_local_antis(now + charge);

        self.uncommitted += 1;
        self.shared.stats.processed.fetch_add(1, Ordering::Relaxed);
        self.events_since_round += 1;
        self.shared.stats.worker_lvts[self.widx as usize]
            .store(base.to_ordered_bits(), Ordering::Relaxed);
        (charge, true)
    }

    fn finish(&mut self) {
        // GVT has passed the end time: everything processed is final and
        // no rollback can follow (so periodic-snapshot retention lifts).
        let end = self.shared.cfg.end_vt();
        let mut committed = 0u64;
        for lp in &mut self.lps {
            committed += lp.fossil_collect_final(end);
        }
        self.uncommitted -= committed as usize;
        self.shared.stats.committed.fetch_add(committed, Ordering::Relaxed);
        let mut fp = 0u64;
        for lp in &self.lps {
            fp ^= crate::seq::fingerprint_mix(lp.id, self.model.state_fingerprint(&lp.state));
        }
        self.shared.stats.state_fp.fetch_xor(fp, Ordering::AcqRel);
        self.shared.stats.worker_deposits.lock().push(self.counters);
        if let Some(pump) = &self.mpi_duty {
            self.shared.stats.mpi_deposits.lock().push(pump.counters);
        }
        self.finished = true;
    }
}

impl<M: Model> Actor for Worker<M> {
    fn id(&self) -> ActorId {
        self.actor_id
    }

    fn label(&self) -> String {
        format!("worker@{}.{}", self.node, self.lane.0)
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        if self.finished {
            return StepResult::done();
        }
        if let Some(poll) = self.parked.take() {
            let skipped = wake::take_skipped(self.actor_id);
            let c = &mut self.counters;
            c.skipped_polls += skipped;
            c.throttled += skipped * poll.throttled as u64;
            c.requests_interval += skipped * poll.requests_interval as u64;
            c.requests_idle += skipped * poll.requests_idle as u64;
        }
        if self.shared.gvt_core.stopped() {
            self.finish();
            return StepResult::progress(WallNs(100));
        }
        let cfg = self.shared.cfg;
        let mut charge = WallNs::ZERO;
        let mut did_work = false;

        // 1. Inbound messages.
        let (c, moved) = self.drain_inbound(now);
        charge += c;
        did_work |= moved;
        // Publish the post-drain contribution before any GVT step can run:
        // draining (including anti-message rollbacks) is the only way this
        // worker's minimum can *decrease*, and a stale-high published value
        // would let a concurrent GVT computation overshoot.
        self.shared.stats.worker_contrib[self.widx as usize]
            .store(self.pending.min_time().to_ordered_bits(), Ordering::Release);

        // 2. Inline MPI duty.
        if let Some(mut pump) = self.mpi_duty.take() {
            let (c, moved) = pump.pump(now + charge);
            charge += c;
            did_work |= moved;
            self.mpi_duty = Some(pump);
        }

        // 3. GVT.
        let ctx = WorkerGvtCtx {
            now: now + charge,
            lvt: self.pending.min_time(),
            worker_index: self.widx,
        };
        let mut blocked = false;
        let outcome = self.gvt.step(&ctx);
        let gvt_waiting = outcome == WorkerGvtOutcome::Waiting;
        // Close out a barrier-blocked stretch: one `BarrierWait` record and
        // counter update spanning first blocked step to release.
        if !matches!(outcome, WorkerGvtOutcome::Blocked(_)) {
            if let Some(start) = self.blocked_since.take() {
                let dur = now.saturating_sub(start);
                self.counters.barrier_wait += dur;
                let worker = self.widx;
                self.shared.gvt_core.emit(start, || TraceRecord::BarrierWait { worker, dur });
            }
        }
        match outcome {
            WorkerGvtOutcome::Quiet | WorkerGvtOutcome::Waiting => {}
            WorkerGvtOutcome::Working(c) => {
                charge += c;
                self.counters.gvt_time += c;
                did_work = true;
            }
            WorkerGvtOutcome::Blocked(c) => {
                charge += c;
                self.counters.gvt_time += c;
                blocked = true;
                if self.blocked_since.is_none() {
                    self.blocked_since = Some(now);
                }
            }
            WorkerGvtOutcome::Completed { gvt, cost } => {
                charge += cost;
                self.counters.gvt_time += cost;
                self.shared.gvt_core.mark_round_end(now + charge);
                charge += self.fossil(gvt);
                self.events_since_round = 0;
                did_work = true;
                // Metrics cells refresh once per round (never on the event
                // path): each worker snapshots its private counters here so
                // the epoch assembler can merge them. Gated, so un-metered
                // runs skip even these stores.
                if self.shared.gvt_core.metrics_on() {
                    self.shared.stats.publish_worker_cell(self.widx, &self.counters);
                }
                if self.widx == 0 {
                    // One read of the worker LVTs feeds every round
                    // observer: the report's disparity/width/progress
                    // samples, the trace horizon records and the metrics
                    // epoch — after the round's fossil pass, before the
                    // termination check so the final round is included.
                    // Records only; charges no virtual time.
                    let core = &self.shared.gvt_core;
                    let stats = &self.shared.stats;
                    let snap = RoundSnapshot::new(
                        core.published_round(),
                        gvt,
                        now + charge,
                        stats.read_lvts(),
                    );
                    stats.record_round(&snap);
                    core.trace_round(&snap);
                    core.publish_epoch(&snap);
                }
                if gvt >= cfg.end_vt() {
                    self.shared.gvt_core.signal_stop();
                    self.finish();
                    return StepResult::progress(charge);
                }
            }
        }

        // 4. Event processing.
        let mut processed = false;
        if !blocked {
            let (c, p) = self.process_next(now + charge);
            charge += c;
            processed = p;
            did_work |= p;
        }

        // Publish this worker's GVT contribution.
        self.shared.stats.worker_contrib[self.widx as usize]
            .store(self.pending.min_time().to_ordered_bits(), Ordering::Release);

        // Round initiation: on interval, or whenever progress is gated on
        // a new GVT (throttled or drained below the end time).
        let requests_interval = self.events_since_round >= cfg.gvt_interval;
        let mut requests_idle = false;
        // Until when an idle worker holds back its request.
        let mut backoff_until = None;
        if requests_interval {
            self.counters.requests_interval += 1;
            self.shared.gvt_core.request_round();
        } else if !processed && !blocked && self.shared.gvt_core.published_gvt() < cfg.end_vt() {
            // Globally paced: give busy workers a full quiet interval
            // after each completed round before idle workers may force
            // another one (prevents the end-of-run round convoy).
            let last_round = WallNs(self.shared.gvt_core.last_round_wall.load(Ordering::Relaxed));
            if now.saturating_sub(last_round) >= cfg.idle_request_backoff {
                requests_idle = true;
                self.counters.requests_idle += 1;
                self.shared.gvt_core.request_round();
            } else {
                backoff_until = Some(last_round + cfg.idle_request_backoff);
            }
        }

        if did_work || blocked {
            return StepResult::progress(charge.max(WallNs(1)));
        }
        let cost = charge + cfg.cost.idle_poll;
        if !gvt_waiting || charge > WallNs::ZERO || self.mpi_duty.is_some() {
            return StepResult::idle(cost);
        }
        // A pure idle poll: park until a message, a GVT notice, the end of
        // the request backoff, or (while requesting) a new round end could
        // change what the next poll does.
        let head = self.nshared.lane_queues[self.lane.index()].head_deliver_at();
        let until = backoff_until.into_iter().chain(head).min();
        self.parked = Some(IdlePoll {
            throttled: self.uncommitted >= cfg.max_outstanding,
            requests_interval,
            requests_idle,
        });
        StepResult::idle_parked(cost, Park { until, pace: requests_idle })
    }
}
