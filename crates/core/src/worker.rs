//! The worker thread: the engine's main loop as an actor state machine.
//!
//! Each step performs one iteration of the classic optimistic main loop:
//!
//! 1. drain the lane's inbound queue (insert events; each anti-message
//!    annihilates its pending event or rolls back its processed one);
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
//! Each layer (drain, inline MPI duty, GVT half, processing) reports its
//! part of one wait state, which one function maps to the step's result. A
//! step that changed nothing and ran no MPI pump is a *pure* poll (idle if
//! the GVT half is `Waiting`, progress if it holds the worker) and asks to
//! be parked ([`cagvt_base::wake`]); each skipped poll is credited as run.
//!
//! A worker's lifecycle is one `Phase`: `Running`; `Parked` after a pure
//! poll, until the next step credits the polls the scheduler skipped; and
//! `Done` once GVT passes the end time (`Worker::finish`, entered from the
//! stop check or from the round that crossed the end time). A finished
//! worker takes one more step, which reports `Done`. The barrier-blocked
//! stretch is not a phase: a held pure poll parks while its stretch stays
//! open, so held and parked overlap, and `blocked_since` tracks the
//! stretch on its own.

use cagvt_base::actor::{Actor, StepResult};
use cagvt_base::ids::{ActorId, LaneId, NodeId};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::trace::TraceRecord;
use cagvt_base::wake::{self, Park};
use cagvt_net::{MpiMode, MsgClass};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::event::{AckMsg, AntiMsg, Event, EventMsg, RemoteEnv, TaggedMsg};
use crate::gvt::{WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};
use crate::lp::{LpTable, Rollback};
use crate::model::Model;
use crate::mpi_actor::MpiPump;
use crate::node::{EngineShared, NodeShared};
use crate::queue::PendingSet;
use crate::stats::WorkerCounters;

/// Max messages a worker drains from its queue per step.
const RECV_BATCH: usize = 32;

/// A worker thread of one node.
pub struct Worker<M: Model> {
    node: NodeId,
    lane: LaneId,
    /// Dense global worker index, which is also the worker's actor id.
    widx: u32,
    /// The LPs of this worker's node: a message from outside came over MPI.
    node_lps: Range<u32>,
    shared: Arc<EngineShared<M>>,
    nshared: Arc<NodeShared<M::Payload>>,
    lps: LpTable<M>,
    pending: PendingSet<M::Payload>,
    gvt: Box<dyn WorkerGvt>,
    /// MPI duty carried by this worker (inline modes, lane 0 only).
    mpi_duty: Option<MpiPump<M>>,
    counters: WorkerCounters,
    events_since_round: u64,
    recv_buf: Vec<TaggedMsg<M::Payload>>,
    /// The events the LP table stamped for the processed event's sends.
    sent: Vec<Event<M::Payload>>,
    rollback: Rollback<M::Payload>,
    local_antis: VecDeque<AntiMsg>,
    /// Start of the current contiguous barrier-blocked stretch, if any
    /// (one `BarrierWait` record and counter update on release).
    blocked_since: Option<WallNs>,
    /// The GVT algorithm requires acknowledgement traffic (Samadi).
    acks_enabled: bool,
    phase: Phase,
}

/// Where a worker is in its lifecycle.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Running,
    /// The worker asked to be parked; it holds the poll the worker repeats.
    Parked(PurePoll),
    /// The worker has finished; its next step reports `Done`.
    Done,
}

/// What a step leaves the worker waiting on, combined over its layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Wait {
    /// Nothing changed; the GVT half waits on notified state. Idle, pure.
    Idle,
    /// Nothing changed; the GVT half holds the worker. Progress, pure.
    Held,
    /// Nothing moved, but the inline MPI pump ran. Idle, impure.
    Polled,
    /// Something changed. Progress, impure.
    Busy,
}

impl Wait {
    /// The state of a step with both parts: progress if either part is,
    /// pure only if both are.
    fn join(self, other: Wait) -> Wait {
        match (self.min(other), self.max(other)) {
            (Wait::Held, Wait::Polled) => Wait::Busy,
            (_, max) => max,
        }
    }
}

/// What a step's repeat would do: the counters it bumps, and until when an
/// idle worker holds back its round request (a later repeat would raise it).
#[derive(Clone, Copy, Debug)]
struct PurePoll {
    throttled: bool,
    requests_interval: bool,
    requests_idle: bool,
    gvt_time: WallNs,
    backoff: Option<WallNs>,
}

impl<M: Model> Worker<M> {
    /// The worker owning the LP table `lps`, starting with the time-zero
    /// events `seeds` pending.
    pub fn new(
        shared: Arc<EngineShared<M>>,
        lps: LpTable<M>,
        seeds: Vec<Event<M::Payload>>,
        gvt: Box<dyn WorkerGvt>,
        mpi_duty: Option<MpiPump<M>>,
    ) -> Self {
        let cfg = &shared.cfg;
        let (node, lane) = cfg.locate(lps.first_lp());
        debug_assert_eq!(lps.first_lp(), cfg.first_lp(node, lane));
        let nshared = Arc::clone(&shared.nodes[node.index()]);
        let widx = cfg.spec.worker_index(node, lane);
        let node_first = cfg.first_lp(node, LaneId(0)).0;
        let node_lps = node_first..node_first + cfg.lps_per_node();
        let acks_enabled = gvt.wants_acks();
        let pending = PendingSet::from_events(lps.first_lp(), lps.len(), seeds);
        Worker {
            node,
            lane,
            widx,
            node_lps,
            shared,
            nshared,
            lps,
            pending,
            gvt,
            mpi_duty,
            counters: WorkerCounters::default(),
            events_since_round: 0,
            recv_buf: Vec::new(),
            sent: Vec::new(),
            rollback: Rollback::default(),
            local_antis: VecDeque::new(),
            blocked_since: None,
            acks_enabled,
            phase: Phase::Running,
        }
    }

    /// Route a tagged message to its destination queue, returning the send
    /// charge. Local deliveries are applied immediately.
    fn route(&mut self, now: WallNs, msg: EventMsg<M::Payload>) -> WallNs {
        let cost = &self.shared.cfg.cost;
        let dst = msg.dst();
        let (dst_node, dst_lane) = self.shared.cfg.locate(dst);
        let header = msg.header();
        let remote = dst_node != self.node;
        if let Some((id, vt, anti)) = header {
            let worker = self.widx;
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
                    self.pending.insert(e);
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
        let recv_time = msg.recv_time();
        // Acknowledgements are GVT-algorithm bookkeeping, not simulation
        // messages: they carry no color tag and stay out of the in-transit
        // accounting (they can never cause a rollback). Samadi tracks the
        // *acknowledged* messages instead.
        let tag = match header {
            None => {
                self.counters.acks_sent += 1;
                0
            }
            Some((id, _, anti)) => {
                self.counters.antis_sent += anti as u64;
                self.shared.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
                if self.acks_enabled {
                    self.gvt.on_send_tracked(id, recv_time, anti);
                }
                let class = if remote { MsgClass::Remote } else { MsgClass::Regional };
                self.gvt.on_send(class, recv_time)
            }
        };
        if !remote {
            self.counters.sent_regional += 1;
            let deliver_at = now + cost.regional_latency;
            self.nshared.lane_queues[dst_lane.index()].push(deliver_at, TaggedMsg { msg, tag });
            let owner = self.shared.cfg.spec.worker_index(dst_node, dst_lane);
            wake::notify_actor(ActorId(owner), deliver_at);
            cost.regional_send
        } else {
            self.counters.sent_remote += 1;
            let env = RemoteEnv { dst_node, dst_lane, tagged: TaggedMsg { msg, tag } };
            if self.shared.cfg.spec.mpi_mode == MpiMode::PerWorker {
                // This worker performs the MPI send itself, through the
                // contended library lock.
                let charge = self.nshared.mpi_call(&self.shared.cfg, now, cost.mpi_send);
                debug_assert_ne!(self.node, dst_node, "remote send to self");
                self.shared.fabric.send(self.node, dst_node, now + charge, env, cost);
                charge
            } else {
                self.nshared.outbox.push(now, env);
                // A dedicated pump stores the new depth at its first poll
                // after this step, before the message is ready.
                self.shared.cfg.spec.wake_mpi_actor(self.node, WallNs::ZERO);
                cost.remote_post
            }
        }
    }

    /// Apply the rollback just written to `self.rollback`: account,
    /// re-enqueue, send anti-messages. Empties its vectors and keeps their
    /// buffers for the next rollback.
    fn apply_rollback(&mut self, now: WallNs, straggler: bool) -> WallNs {
        let cost = &self.shared.cfg.cost;
        let mut charge = WallNs::ZERO;
        let mut rb = std::mem::take(&mut self.rollback);
        if rb.undone == 0 {
            self.rollback = rb;
            return charge;
        }
        self.counters.rollbacks += 1;
        self.shared.stats.rolled_back.fetch_add(rb.undone, Ordering::Relaxed);
        let (worker, undone) = (self.widx, rb.undone);
        self.shared.gvt_core.emit(now, || TraceRecord::Rollback { worker, undone, straggler });
        charge += WallNs(cost.rollback_per_event.0 * rb.undone);
        for e in rb.reenqueue.drain(..) {
            let (id, vt) = (e.id, e.recv_time);
            self.shared.gvt_core.emit(now, || TraceRecord::Reenqueue { worker, id, vt });
            self.pending.insert(e);
        }
        for a in rb.antis.drain(..) {
            charge += self.route(now + charge, EventMsg::Anti(a));
        }
        self.rollback = rb;
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
    ///
    /// The channels are FIFO, so an anti never overtakes its positive
    /// event: the event is either still pending, and annihilates on the
    /// spot, or already processed, and its LP rolls back past it.
    fn drain_local_antis(&mut self, now: WallNs) -> WallNs {
        let mut charge = WallNs::ZERO;
        let mut cascade = 0u64;
        let worker = self.widx;
        while let Some(a) = self.local_antis.pop_front() {
            let (id, pending) = (a.id, self.pending.cancel(a.dst, a.key()));
            self.counters.annihilated += 1;
            self.shared.gvt_core.emit(now + charge, || TraceRecord::Annihilate {
                worker,
                id,
                pending,
            });
            if pending {
                continue;
            }
            // GVT safety: an anti-message can only cancel work that is
            // still provisional. Rolling back below the published GVT
            // would mean a GVT algorithm overshot (fossil-collected state
            // is gone), so this is checked unconditionally.
            let gvt_floor = self.shared.gvt_core.published_gvt();
            assert!(
                a.recv_time >= gvt_floor,
                "anti-message rollback target {} below published GVT {gvt_floor}",
                a.recv_time
            );
            cascade += 1;
            let idx = self.lps.index(a.dst);
            self.lps.rollback_cancel(idx, a.key(), &mut self.rollback);
            charge += self.apply_rollback(now + charge, false);
        }
        self.counters.max_cascade = self.counters.max_cascade.max(cascade);
        charge
    }

    /// Drain this lane's inbound queue.
    fn drain_inbound(&mut self, now: WallNs) -> (WallNs, Wait) {
        let cost = self.shared.cfg.cost;
        let mut charge = WallNs::ZERO;
        let mut buf = std::mem::take(&mut self.recv_buf);
        let n =
            self.nshared.lane_queues[self.lane.index()].drain_ready_into(now, RECV_BATCH, &mut buf);
        for tagged in buf.drain(..) {
            charge += cost.recv_handling;
            let Some((id, vt, anti)) = tagged.msg.header() else {
                if let EventMsg::Ack(a) = &tagged.msg {
                    self.gvt.on_ack(a.id, a.recv_time, a.anti, a.marked);
                }
                continue;
            };
            self.shared.stats.msgs_received.fetch_add(1, Ordering::Relaxed);
            let class = if self.node_lps.contains(&id.src.0) {
                MsgClass::Regional
            } else {
                MsgClass::Remote
            };
            self.gvt.on_recv(tagged.tag, class);
            if self.acks_enabled {
                let ack = AckMsg { id, recv_time: vt, anti, marked: self.gvt.mark_acks() };
                charge += self.route(now + charge, EventMsg::Ack(ack));
            }
            let worker = self.widx;
            self.shared.gvt_core.emit(now + charge, || TraceRecord::MsgRecv {
                worker,
                id,
                vt,
                anti,
            });
            match tagged.msg {
                EventMsg::Event(e) => self.pending.insert(e),
                EventMsg::Anti(a) => {
                    charge += self.handle_anti(now + charge, a);
                }
                EventMsg::Ack(_) => unreachable!(),
            }
        }
        self.recv_buf = buf;
        (charge, if n > 0 { Wait::Busy } else { Wait::Idle })
    }

    /// Fossil collect all LPs at the new GVT.
    fn fossil(&mut self, gvt: VirtualTime) -> WallNs {
        let committed = self.commit(gvt);
        WallNs(self.shared.cfg.cost.fossil_per_event.0 * committed)
    }

    /// Commit each LP's history below `gvt` and account for the events it
    /// commits; returns their number.
    fn commit(&mut self, gvt: VirtualTime) -> u64 {
        let committed: u64 = (0..self.lps.len()).map(|k| self.lps.fossil_collect(k, gvt)).sum();
        self.shared.stats.committed.fetch_add(committed, Ordering::Relaxed);
        committed
    }

    /// Whether the optimism throttle is engaged: the worker's uncommitted
    /// history (its LP table's live history nodes) has reached the cap.
    fn throttle_full(&self) -> bool {
        self.lps.live_nodes().0 >= self.shared.cfg.max_outstanding
    }

    /// Process the minimum pending event, if allowed. Returns (charge,
    /// processed?).
    fn process_next(&mut self, now: WallNs) -> (WallNs, bool) {
        let cfg = self.shared.cfg;
        let next = self.pending.min_key().filter(|key| key.t < cfg.end_vt());
        // The throttle never holds back an event at or below the published
        // GVT: no rollback can reach it, and while it waits GVT cannot pass
        // it to commit the events that fill the cap.
        if self.throttle_full()
            && next.is_none_or(|key| key.t > self.shared.gvt_core.published_gvt())
        {
            self.counters.throttled += 1;
            return (WallNs::ZERO, false);
        }
        if next.is_none() {
            return (WallNs::ZERO, false);
        }
        let event = self.pending.pop_min().expect("min_key was Some");
        let cost = cfg.cost;
        let mut charge = WallNs::ZERO;

        let idx = self.lps.index(event.dst);
        if event.key() <= self.lps.last_key(idx) {
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
            self.lps.rollback_to(idx, event.key(), &mut self.rollback);
            charge += self.apply_rollback(now, true);
            charge += self.drain_local_antis(now + charge);
        }

        let (eid, edst, vt) = (event.id, event.dst, event.recv_time);
        let span_start = now + charge;
        let mut sent = std::mem::take(&mut self.sent);
        let epg = self.lps.process(idx, event, &mut sent);
        let span = cost.event_overhead + cost.epg_cost(epg);
        {
            let worker = self.widx;
            self.shared.gvt_core.emit(span_start, || TraceRecord::EventSpan {
                worker,
                id: eid,
                dst: edst,
                vt,
                dur: span,
            });
        }
        charge += span;

        // Route the sends the table stamped and logged.
        for e in sent.drain(..) {
            charge += self.route(now + charge, EventMsg::Event(e));
        }
        self.sent = sent;
        charge += self.drain_local_antis(now + charge);

        self.shared.stats.processed.fetch_add(1, Ordering::Relaxed);
        self.events_since_round += 1;
        self.shared.stats.worker_lvts[self.widx as usize]
            .store(vt.to_ordered_bits(), Ordering::Relaxed);
        (charge, true)
    }

    /// Enter `Done`, ending a step that cost `cost`. GVT has passed the
    /// end time: everything processed is final.
    fn finish(&mut self, cost: WallNs) -> StepResult {
        self.commit(self.shared.cfg.end_vt());
        self.shared.stats.state_fp.fetch_xor(self.lps.fingerprint(), Ordering::AcqRel);
        self.shared.stats.store_worker_counters(self.widx, &self.counters);
        if let Some(pump) = &self.mpi_duty {
            pump.deposit();
        }
        self.phase = Phase::Done;
        StepResult::progress(cost)
    }

    /// Map the step's wait state to its result. A pure poll parks until a
    /// message, a GVT notice, its backoff's end or (while requesting) a
    /// new round end could change what the next poll does.
    fn settle(&mut self, wait: Wait, charge: WallNs, poll: PurePoll) -> StepResult {
        let result = match wait {
            Wait::Held | Wait::Busy => StepResult::progress(charge.max(WallNs(1))),
            Wait::Idle | Wait::Polled => StepResult::idle(charge + self.shared.cfg.cost.idle_poll),
        };
        if matches!(wait, Wait::Polled | Wait::Busy) {
            return result;
        }
        let head = self.nshared.lane_queues[self.lane.index()].head_deliver_at();
        let until = poll.backoff.into_iter().chain(head).min();
        self.phase = Phase::Parked(poll);
        result.parked(Park { until, pace: poll.requests_idle })
    }
}

impl<M: Model> Actor for Worker<M> {
    fn id(&self) -> ActorId {
        ActorId(self.widx)
    }

    fn label(&self) -> String {
        format!("worker@{}.{}", self.node, self.lane.0)
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        if let Phase::Done = self.phase {
            return StepResult::done();
        }
        // The exactness rule: each skipped poll counts as if it had run.
        // Credited before the stop check, as `finish` stores the counters.
        if let Phase::Parked(poll) = std::mem::replace(&mut self.phase, Phase::Running) {
            let (n, c) = (wake::take_skipped(ActorId(self.widx)), &mut self.counters);
            c.throttled += n * poll.throttled as u64;
            c.requests_interval += n * poll.requests_interval as u64;
            c.requests_idle += n * poll.requests_idle as u64;
            c.gvt_time += WallNs(n * poll.gvt_time.0);
        }
        if self.shared.gvt_core.stopped() {
            return self.finish(WallNs(100));
        }
        let cfg = self.shared.cfg;

        // 1. Inbound messages.
        let (mut charge, mut wait) = self.drain_inbound(now);

        // 2. Inline MPI duty.
        if let Some(pump) = &mut self.mpi_duty {
            let (c, moved) = pump.pump(now + charge);
            charge += c;
            wait = wait.join(if moved { Wait::Busy } else { Wait::Polled });
        }

        // 3. GVT.
        let ctx = WorkerGvtCtx {
            now: now + charge,
            lvt: self.pending.min_time(),
            worker_index: self.widx,
        };
        let outcome = self.gvt.step(&ctx);
        // A barrier-blocked stretch, first blocked step to release, is one
        // `BarrierWait` record and counter update.
        if let WorkerGvtOutcome::Blocked(_) = outcome {
            self.blocked_since.get_or_insert(now);
        } else if let Some(start) = self.blocked_since.take() {
            let dur = now.saturating_sub(start);
            self.counters.barrier_wait += dur;
            let worker = self.widx;
            self.shared.gvt_core.emit(start, || TraceRecord::BarrierWait { worker, dur });
        }
        let (gvt_charge, part) = match outcome {
            WorkerGvtOutcome::Waiting => (WallNs::ZERO, Wait::Idle),
            // A pure held poll, charged as an idle poll of GVT time.
            WorkerGvtOutcome::Blocked(WallNs::ZERO) => (cfg.cost.idle_poll, Wait::Held),
            WorkerGvtOutcome::Working(c) | WorkerGvtOutcome::Blocked(c) => (c, Wait::Busy),
            WorkerGvtOutcome::Completed { cost, .. } => (cost, Wait::Busy),
        };
        charge += gvt_charge;
        self.counters.gvt_time += gvt_charge;
        wait = wait.join(part);
        if let WorkerGvtOutcome::Completed { gvt, .. } = outcome {
            self.shared.gvt_core.mark_round_end(now + charge);
            charge += self.fossil(gvt);
            self.events_since_round = 0;
            // The counter slot refreshes once per round, never on the
            // event path, so the metrics epoch can merge every worker's.
            self.shared.stats.store_worker_counters(self.widx, &self.counters);
            if self.widx == 0 {
                // Worker 0 feeds the round observers (the round log, the
                // trace and the metrics epoch) after the round's fossil
                // pass, before the termination check. The final round is
                // missed when another worker completes it first and
                // signals stop (ROADMAP: the final-round snapshot).
                // Records only; charges no virtual time.
                self.shared.gvt_core.observe_round(gvt, now + charge);
            }
            if gvt >= cfg.end_vt() {
                self.shared.gvt_core.signal_stop();
                return self.finish(charge);
            }
        }

        // 4. Event processing, unless the GVT half holds the worker.
        let starved = !matches!(outcome, WorkerGvtOutcome::Blocked(_)) && {
            let (c, processed) = self.process_next(now + charge);
            charge += c;
            wait = wait.join(if processed { Wait::Busy } else { Wait::Idle });
            !processed
        };

        // Round initiation: on interval, or whenever progress is gated on
        // a new GVT (throttled or drained below the end time).
        let mut poll = PurePoll {
            throttled: starved && self.throttle_full(),
            requests_interval: self.events_since_round >= cfg.gvt_interval,
            requests_idle: false,
            gvt_time: gvt_charge,
            backoff: None,
        };
        if poll.requests_interval {
            self.counters.requests_interval += 1;
            self.shared.gvt_core.request_round();
        } else if starved && self.shared.gvt_core.published_gvt() < cfg.end_vt() {
            // Globally paced: give busy workers a full quiet interval
            // after each completed round before idle workers may force
            // another one (prevents the end-of-run round convoy).
            let last_round = WallNs(self.shared.gvt_core.last_round_wall.load(Ordering::Relaxed));
            if now.saturating_sub(last_round) >= cfg.idle_request_backoff {
                poll.requests_idle = true;
                self.counters.requests_idle += 1;
                self.shared.gvt_core.request_round();
            } else {
                poll.backoff = Some(last_round + cfg.idle_request_backoff);
            }
        }
        self.settle(wait, charge, poll)
    }
}
