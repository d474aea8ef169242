//! Logical process runtime: optimistic processing, rollback, fossil
//! collection.
//!
//! Three rollback strategies ([`RollbackStrategy`]), selected per model,
//! differ only in which events get a pre-event state copy:
//!
//! * **State saving** (default): every processed event copies the LP's
//!   state *before* the event into the snapshot log; undoing restores the
//!   earliest undone event's copy.
//! * **Reverse computation** (ROSS's mechanism, for models that implement
//!   [`Model::reverse`]): no event copies the state; undoing calls the
//!   model's inverse handler in exact LIFO order.
//! * **Periodic state saving**: only every `k`-th event copies the state.
//!   Undoing restores the nearest copy at or before the first undone
//!   event and *coasts forward*: it re-executes the surviving events after
//!   that copy with their emissions dropped, because those messages were
//!   already sent and stay valid.
//!
//! Coasting needs a snapshot to start from, so under periodic saving
//! [`LpRuntime::fossil_collect`] keeps the newest snapshot entry below GVT
//! and everything after it: a later straggler may roll back to any time at
//! or above GVT. [`LpRuntime::fossil_collect_final`] runs at shutdown,
//! when GVT has passed the end time and no rollback can follow, so it
//! commits everything below GVT and keeps no restoration point.
//!
//! Every history entry has one layout under every strategy: the event, the
//! pre-event generator, `first_seq` (the LP's send sequence number before
//! the event) and a `snapshot` flag. What the uncommitted history saved
//! and sent lives beside it in two logs per LP, oldest first:
//!
//! * the **send log**, the `(dst, recv_time)` of every message the history
//!   sent, under
//!
//!   ```text
//!   sends.len() == send_seq - processed.front().first_seq   (0 when the history is empty)
//!   ```
//!
//!   so log entry `i` is the message with id `(lp, front.first_seq + i)`,
//!   and an entry's sends are the log slice from its `first_seq` to the
//!   next entry's;
//! * the **snapshot log**, one pre-event state per flagged entry, under
//!
//!   ```text
//!   log.len() == number of history entries with `snapshot` set
//!   ```
//!
//!   so the `j`-th flagged entry's state is `log[j]`. The log lives in the
//!   LP's state-saving bookkeeping, which is allocated on the first
//!   processed event of a strategy that copies states: under reverse
//!   computation an LP carries one word for it.
//!
//! Processing appends to both logs ([`LpRuntime::record_send`] for sends),
//! rollback pops their tails in step with the undone entries (emitting
//! anti-messages for the sends), and fossil collection drains their
//! committed prefixes. A history entry is therefore plain data of a fixed
//! size whatever the state's size: for a model whose state and payload own
//! no heap memory, processing allocates nothing per event and committing
//! frees nothing, and a strategy that copies no state stores none.
//!
//! Under every strategy, rollback restores `send_seq` to the first undone
//! entry's `first_seq` (not just state and RNG), so committed re-executions
//! assign identical event ids, which keeps the optimistic run bit-identical
//! to the sequential reference even under rollbacks.
//!
//! An anti-message whose event is not pending rolls its LP back through
//! [`LpRuntime::rollback_cancel`], which panics, naming the LP and the key,
//! unless it meets the anti's exact key in the history: on FIFO channels an
//! anti never arrives before its event, so a miss is a bug to report.

use cagvt_base::ids::{EventId, LpId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::VirtualTime;
use std::collections::VecDeque;

use crate::event::{AntiMsg, Event, EventKey};
use crate::model::{Emitter, EventCtx, Model};

/// How an LP undoes processed events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RollbackStrategy {
    /// Copy the state before every event.
    Snapshot,
    /// Reverse computation (requires [`Model::reverse`]): copy no state,
    /// undo by running the model's inverse handler in LIFO order.
    Reverse,
    /// Periodic state saving: copy the state before every `k`-th event
    /// only; roll back by restoring the nearest snapshot and
    /// *coasting forward* — re-executing the surviving events with their
    /// emissions suppressed (they were already sent and stay valid).
    PeriodicSnapshot(u32),
}

/// One entry of the processed-event history. Its sends and its state copy
/// are not stored here but in the LP's send and snapshot logs (see the
/// module doc), so the entry's size does not depend on the model's state
/// and it owns no heap memory beyond what the payload owns.
pub struct ProcessedEvent<M: Model> {
    pub event: Event<M::Payload>,
    /// The LP's generator before this event.
    rng: Pcg32,
    /// The LP's send sequence number before this event: its sends carry
    /// the ids from here up to the next entry's `first_seq` (the LP's
    /// `send_seq` for the newest entry).
    first_seq: u64,
    /// Whether the snapshot log holds the LP's state before this event.
    /// Otherwise undoing it runs the model's inverse handler (reverse
    /// computation) or replays from an earlier snapshot (coast-forward).
    snapshot: bool,
}

/// What an LP that copies states keeps beside its history.
struct Saving<S> {
    /// Snapshot log: the pre-event state of every flagged history entry,
    /// oldest first (see the module doc's invariant).
    log: VecDeque<S>,
    /// Events processed since the last periodic snapshot.
    since: u32,
}

/// Result of a rollback: what the worker must do next.
pub struct Rollback<P> {
    /// Undone events to put back into the pending set (already excludes a
    /// cancelled event, if the rollback was anti-message induced).
    pub reenqueue: Vec<Event<P>>,
    /// Anti-messages for every optimistic send of the undone events.
    pub antis: Vec<AntiMsg>,
    /// Number of events undone (including a cancelled one).
    pub undone: u64,
}

/// A logical process under optimistic execution.
pub struct LpRuntime<M: Model> {
    pub id: LpId,
    pub state: M::State,
    pub rng: Pcg32,
    send_seq: u64,
    /// Key of the most recent processed (uncommitted or committed) event;
    /// `EventKey::MIN` before any processing. The LP's LVT is `last_key.t`.
    last_key: EventKey,
    /// Uncommitted history in strictly increasing event-key order (each
    /// event is processed above `last_key`, and rollback pops from the
    /// back).
    processed: VecDeque<ProcessedEvent<M>>,
    /// Send log: `(dst, recv_time)` of every message the uncommitted
    /// history sent, oldest first; ids are implied by position (see the
    /// module doc's invariant).
    sends: VecDeque<(LpId, VirtualTime)>,
    /// State-saving bookkeeping, absent until a strategy that copies
    /// states processes an event. Boxed because the LP tables are a large
    /// share of the heap at tens of thousands of LPs per run.
    saving: Option<Box<Saving<M::State>>>,
    strategy: RollbackStrategy,
}

impl<M: Model> LpRuntime<M> {
    /// Snapshot-strategy LP (models that don't implement `reverse`, and
    /// unit tests).
    pub fn new(id: LpId, model: &M, seed: u64) -> Self {
        Self::with_strategy(id, model, seed, RollbackStrategy::Snapshot)
    }

    /// LP with an explicit rollback strategy.
    pub fn with_strategy(id: LpId, model: &M, seed: u64, strategy: RollbackStrategy) -> Self {
        if let RollbackStrategy::PeriodicSnapshot(k) = strategy {
            assert!(k >= 1, "snapshot period must be at least 1");
        }
        let mut rng = Pcg32::new(seed, id.0 as u64);
        let state = model.init_state(id, &mut rng);
        LpRuntime {
            id,
            state,
            rng,
            send_seq: 0,
            last_key: EventKey::MIN,
            processed: VecDeque::new(),
            sends: VecDeque::new(),
            saving: None,
            strategy,
        }
    }

    /// This LP's rollback strategy.
    #[inline]
    pub fn strategy(&self) -> RollbackStrategy {
        self.strategy
    }

    /// The state-saving bookkeeping, allocated on first use.
    fn saving(&mut self) -> &mut Saving<M::State> {
        self.saving.get_or_insert_with(|| Box::new(Saving { log: VecDeque::new(), since: 0 }))
    }

    /// The context `event` was processed in, rebuilt for a reverse or
    /// coast-forward call from the run constants the caller passes.
    fn ctx_for(
        &self,
        event: &Event<M::Payload>,
        end_time: VirtualTime,
        total_lps: u32,
    ) -> EventCtx {
        EventCtx { now: event.recv_time, self_lp: self.id, end_time, total_lps }
    }

    /// Allocate the next send sequence number for a time-zero seeding send,
    /// which is never logged. Sends of processed events go through
    /// [`Self::record_send`].
    #[inline]
    pub fn next_seq(&mut self) -> u64 {
        debug_assert!(self.processed.is_empty(), "unlogged send with history present");
        let s = self.send_seq;
        self.send_seq += 1;
        s
    }

    /// Sequence number of the oldest logged send.
    #[inline]
    fn log_base(&self) -> u64 {
        self.processed.front().map_or(self.send_seq, |e| e.first_seq)
    }

    /// The send-log and snapshot-log invariants (module doc), checked in
    /// debug builds after every operation that changes the history or a
    /// log.
    #[inline]
    fn debug_check_log(&self) {
        debug_assert_eq!(
            self.sends.len() as u64,
            self.send_seq - self.log_base(),
            "send log out of step with the history"
        );
        debug_assert_eq!(
            self.saving.as_ref().map_or(0, |s| s.log.len()),
            self.processed.iter().filter(|e| e.snapshot).count(),
            "snapshot log out of step with the history"
        );
    }

    #[inline]
    pub fn lvt(&self) -> VirtualTime {
        self.last_key.t
    }

    #[inline]
    pub fn last_key(&self) -> EventKey {
        self.last_key
    }

    /// Uncommitted history length (the memory the optimism throttle
    /// bounds).
    #[inline]
    pub fn history_len(&self) -> usize {
        self.processed.len()
    }

    /// Run the model's initial-event hook (time-zero seeding). Sends are
    /// assigned sequence numbers but not recorded in history: nothing can
    /// roll back past time zero.
    pub fn seed_initial(&mut self, model: &M, emit: &mut Emitter<M::Payload>) {
        model.initial_events(self.id, &mut self.state, &mut self.rng, emit);
    }

    /// Optimistically process `event`, which must be `>` the last processed
    /// key (the worker rolls back first otherwise). Emitted events are left
    /// in `emit` for the worker to stamp and route, logging each through
    /// [`Self::record_send`].
    ///
    /// Returns the model-reported EPG units.
    pub fn process(
        &mut self,
        model: &M,
        ctx: &EventCtx,
        event: Event<M::Payload>,
        emit: &mut Emitter<M::Payload>,
    ) -> u64 {
        debug_assert!(event.key() > self.last_key, "processing out of order");
        debug_assert!(emit.is_empty());
        let snapshot = match self.strategy {
            RollbackStrategy::Reverse => false,
            RollbackStrategy::Snapshot => true,
            RollbackStrategy::PeriodicSnapshot(k) => {
                let since = &mut self.saving().since;
                if *since == 0 || *since >= k {
                    *since = 1;
                    true
                } else {
                    *since += 1;
                    false
                }
            }
        };
        if snapshot {
            let state = self.state.clone();
            self.saving().log.push_back(state);
        }
        let rng = self.rng;
        let epg = model.handle(ctx, &mut self.state, &event.payload, &mut self.rng, emit);
        self.last_key = event.key();
        self.processed.push_back(ProcessedEvent { event, rng, first_seq: self.send_seq, snapshot });
        self.debug_check_log();
        epg
    }

    /// Log one send of the most recently processed event and return the id
    /// it carries. The worker calls this once per emission, in emission
    /// order, after [`Self::process`].
    #[inline]
    pub fn record_send(&mut self, dst: LpId, recv_time: VirtualTime) -> EventId {
        debug_assert!(!self.processed.is_empty(), "record_send before process");
        self.sends.push_back((dst, recv_time));
        let id = EventId::new(self.id, self.send_seq);
        self.send_seq += 1;
        id
    }

    /// Roll back every processed event with key `> to_key` (straggler with
    /// key `to_key` about to be processed). All undone events are
    /// re-enqueued. `end_time` and `total_lps` are the run's, for the
    /// contexts of the inverse-handler and coast-forward calls.
    pub fn rollback_to(
        &mut self,
        model: &M,
        to_key: EventKey,
        end_time: VirtualTime,
        total_lps: u32,
    ) -> Rollback<M::Payload> {
        self.rollback_inner(model, to_key, false, end_time, total_lps)
    }

    /// Roll back every processed event with key `>= cancel_key`, which must
    /// be a processed event's key (anti-message induced). The cancelled
    /// event is discarded instead of re-enqueued. The run constants are as
    /// for [`Self::rollback_to`].
    pub fn rollback_cancel(
        &mut self,
        model: &M,
        cancel_key: EventKey,
        end_time: VirtualTime,
        total_lps: u32,
    ) -> Rollback<M::Payload> {
        self.rollback_inner(model, cancel_key, true, end_time, total_lps)
    }

    fn rollback_inner(
        &mut self,
        model: &M,
        to_key: EventKey,
        cancel: bool,
        end_time: VirtualTime,
        total_lps: u32,
    ) -> Rollback<M::Payload> {
        let mut reenqueue = Vec::new();
        let mut antis = Vec::new();
        let mut undone = 0u64;
        let base = self.log_base();
        // Sequence number one past the sends of the entry being undone.
        let mut end = self.send_seq;
        while let Some(back) = self.processed.back() {
            let boundary =
                if cancel { back.event.key() >= to_key } else { back.event.key() > to_key };
            if !boundary {
                break;
            }
            let entry = self.processed.pop_back().expect("back() was Some");
            undone += 1;
            // Newest entry first, in send order within the entry.
            let first = entry.first_seq;
            let sent = self.sends.range((first - base) as usize..(end - base) as usize);
            antis.extend(sent.zip(first..).map(|(&(dst, recv_time), seq)| AntiMsg {
                recv_time,
                dst,
                id: EventId::new(self.id, seq),
            }));
            end = first;
            // Undo this event (strict LIFO): restore its generator, then its
            // snapshot, or run the model's inverse handler, or (periodic
            // mode) leave the state to the coast-forward pass below.
            self.rng = entry.rng;
            if entry.snapshot {
                self.state = self.saving().log.pop_back().expect("a snapshot per flagged entry");
            } else if self.strategy == RollbackStrategy::Reverse {
                let ctx = self.ctx_for(&entry.event, end_time, total_lps);
                // Scratch generator at the pre-event position, so the
                // reversal can re-derive the forward pass's draws.
                let mut scratch = entry.rng;
                model.reverse(&ctx, &mut self.state, &entry.event.payload, &mut scratch);
            }
            if !(cancel && entry.event.key() == to_key) {
                reenqueue.push(entry.event);
            }
        }
        let (lp, id, t) = (self.id, to_key.id, to_key.t);
        let met = !cancel || undone == reenqueue.len() as u64 + 1;
        assert!(met, "{lp}: anti-message {id} at t={t} matches no pending or processed event");
        self.sends.truncate((end - base) as usize);
        self.send_seq = end;
        if undone > 0 && matches!(self.strategy, RollbackStrategy::PeriodicSnapshot(_)) {
            self.coast_forward(model, end_time, total_lps);
        }
        self.last_key = self.processed.back().map(|e| e.event.key()).unwrap_or(EventKey::MIN);
        self.debug_check_log();
        Rollback { reenqueue, antis, undone }
    }

    /// Periodic-snapshot restoration: the undone entries and their
    /// snapshots are already popped, but the LP state may be anywhere. Pop
    /// surviving entries back to the nearest flagged one (the oldest
    /// retained entry always is — see [`Self::fossil_collect`]), restore
    /// its state from the snapshot log's tail, which stays logged, then
    /// re-execute the popped survivors with their emissions suppressed:
    /// they were already sent, remain valid and stay in the send log
    /// ("coasting forward"). `send_seq` is already the first undone
    /// entry's `first_seq` and is not touched.
    fn coast_forward(&mut self, model: &M, end_time: VirtualTime, total_lps: u32) {
        let mut replay: Vec<ProcessedEvent<M>> = Vec::new();
        while let Some(e) = self.processed.pop_back() {
            let is_snapshot = e.snapshot;
            replay.push(e);
            if is_snapshot {
                break;
            }
        }
        if replay.is_empty() {
            // The rollback undid the whole history; its earliest entry was
            // a snapshot (the first entry always is), so phase one already
            // restored the state directly.
            self.saving().since = 0;
            return;
        }
        // The snapshot cadence restarts from the replayed suffix, which
        // begins at the snapshot entry.
        self.saving().since = replay.len() as u32;
        // Restore from the snapshot entry (the last pushed).
        let snap = replay.last().expect("non-empty");
        debug_assert!(snap.snapshot, "coast_forward stops at a snapshot");
        self.state = self.saving().log.back().expect("a snapshot per flagged entry").clone();
        self.rng = snap.rng;
        // Re-execute survivors oldest-first, dropping their emissions.
        let mut sink: Emitter<M::Payload> = Emitter::new();
        for e in replay.into_iter().rev() {
            let ctx = self.ctx_for(&e.event, end_time, total_lps);
            let _epg =
                model.handle(&ctx, &mut self.state, &e.event.payload, &mut self.rng, &mut sink);
            sink.take().for_each(drop);
            self.processed.push_back(e);
        }
    }

    /// Free history below `gvt`; returns the number of events committed.
    ///
    /// Under [`RollbackStrategy::PeriodicSnapshot`], the newest snapshot
    /// entry below `gvt` (and everything after it) is retained so that a
    /// later rollback always finds a restoration point; commit accounting
    /// for the retained suffix is deferred to a later pass. Use
    /// [`Self::fossil_collect_final`] at shutdown, when no rollback can
    /// follow.
    pub fn fossil_collect(&mut self, gvt: VirtualTime) -> u64 {
        let below = self.below(gvt);
        let n = match self.strategy {
            // Nothing at or beyond the newest snapshot below `gvt` may go.
            // Scanning back from the GVT boundary meets one within a
            // snapshot period, so the cost is that plus the entries freed,
            // never the whole history.
            RollbackStrategy::PeriodicSnapshot(_) => {
                self.processed.range(..below).rposition(|e| e.snapshot).unwrap_or(0)
            }
            _ => below,
        };
        self.commit(n)
    }

    /// Fossil collection at shutdown: GVT has passed the end time, no
    /// rollback can follow, so retention is unnecessary and everything
    /// below `gvt` commits regardless of strategy.
    pub fn fossil_collect_final(&mut self, gvt: VirtualTime) -> u64 {
        let n = self.below(gvt);
        self.commit(n)
    }

    /// Drop the oldest `n` history entries and their prefixes of the send
    /// and snapshot logs; returns `n`.
    fn commit(&mut self, n: usize) -> u64 {
        if n > 0 {
            let base = self.log_base();
            let next = self.processed.get(n).map_or(self.send_seq, |e| e.first_seq);
            self.sends.drain(..(next - base) as usize);
            if let Some(saving) = &mut self.saving {
                saving.log.drain(..self.processed.range(..n).filter(|e| e.snapshot).count());
            }
            self.processed.drain(..n);
            self.debug_check_log();
        }
        n as u64
    }

    /// Number of history entries with receive time below `gvt`. Scans from
    /// the oldest entry: the cost is the entries committed plus one, and
    /// the commit touches those entries anyway.
    fn below(&self, gvt: VirtualTime) -> usize {
        self.processed.iter().position(|e| e.event.recv_time >= gvt).unwrap_or(self.processed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter model: state is (value, log of processed payloads); each
    /// event adds its payload and emits one follow-on to self.
    struct CounterModel;

    impl Model for CounterModel {
        type State = (u64, Vec<u32>);
        type Payload = u32;

        fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) -> Self::State {
            (0, Vec::new())
        }

        fn initial_events(
            &self,
            lp: LpId,
            _state: &mut Self::State,
            _rng: &mut Pcg32,
            emit: &mut Emitter<u32>,
        ) {
            emit.emit(lp, 1.0, 1);
        }

        fn handle(
            &self,
            _ctx: &EventCtx,
            state: &mut Self::State,
            payload: &u32,
            rng: &mut Pcg32,
            emit: &mut Emitter<u32>,
        ) -> u64 {
            state.0 += *payload as u64;
            state.1.push(*payload);
            let _ = rng.next_u32(); // consume randomness so rollback must restore it
            emit.emit(LpId(0), 1.0, payload + 1);
            100
        }
    }

    /// The run's end time; the run has one LP.
    fn end() -> VirtualTime {
        VirtualTime::new(1e9)
    }

    fn ctx(t: f64) -> EventCtx {
        EventCtx { now: VirtualTime::new(t), self_lp: LpId(0), end_time: end(), total_lps: 1 }
    }

    fn ev(t: f64, seq: u64, payload: u32) -> Event<u32> {
        Event {
            recv_time: VirtualTime::new(t),
            dst: LpId(0),
            id: EventId::new(LpId(9), seq),
            payload,
        }
    }

    /// Process `e` and stamp its emissions as the worker would, logging
    /// each send; returns `(id, dst, recv_time)` per send, in send order.
    fn process_with<M: Model<Payload = u32>>(
        lp: &mut LpRuntime<M>,
        model: &M,
        e: Event<u32>,
    ) -> Vec<(EventId, LpId, VirtualTime)> {
        let mut em = Emitter::new();
        let t = e.recv_time.as_f64();
        lp.process(model, &ctx(t), e, &mut em);
        let sends: Vec<(LpId, f64)> = em.take().map(|(dst, delay, _p)| (dst, delay)).collect();
        sends
            .into_iter()
            .map(|(dst, delay)| {
                let recv_time = VirtualTime::new(t + delay);
                (lp.record_send(dst, recv_time), dst, recv_time)
            })
            .collect()
    }

    fn process_one(lp: &mut LpRuntime<CounterModel>, e: Event<u32>) {
        process_with(lp, &CounterModel, e);
    }

    #[test]
    fn process_advances_lvt_and_history() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        assert_eq!(lp.lvt(), VirtualTime::ZERO);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        assert_eq!(lp.lvt(), VirtualTime::new(2.0));
        assert_eq!(lp.history_len(), 2);
        assert_eq!(lp.state.0, 12);
        assert_eq!(lp.last_key(), ev(2.0, 1, 7).key());
    }

    #[test]
    fn rollback_restores_state_rng_and_seq() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        process_one(&mut lp, ev(1.0, 0, 5));
        let rng_after_first = lp.rng;
        let state_after_first = lp.state.clone();

        process_one(&mut lp, ev(2.0, 1, 7));
        process_one(&mut lp, ev(3.0, 2, 9));

        // Straggler at t=1.5 undoes the t=2 and t=3 events.
        let straggler_key = EventKey { t: VirtualTime::new(1.5), id: EventId::new(LpId(9), 10) };
        let rb = lp.rollback_to(&CounterModel, straggler_key, end(), 1);
        assert_eq!(rb.undone, 2);
        assert_eq!(rb.reenqueue.len(), 2);
        assert_eq!(rb.antis.len(), 2, "one optimistic send per undone event");
        assert_eq!(lp.state, state_after_first);
        assert_eq!(lp.rng, rng_after_first);
        assert_eq!(lp.lvt(), VirtualTime::new(1.0));
        assert_eq!(lp.history_len(), 1);
    }

    #[test]
    fn reexecution_after_rollback_replays_identically() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 7);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        let final_state = lp.state.clone();
        let final_rng = lp.rng;

        let rb = lp.rollback_to(
            &CounterModel,
            EventKey { t: VirtualTime::new(0.5), id: EventId::new(LpId(9), 99) },
            end(),
            1,
        );
        assert_eq!(rb.undone, 2);
        // Replay both in order.
        let mut events = rb.reenqueue;
        events.sort_by_key(|e| e.key());
        for e in events {
            process_one(&mut lp, e);
        }
        assert_eq!(lp.state, final_state);
        assert_eq!(lp.rng, final_rng);
    }

    #[test]
    #[should_panic(expected = "lp0: anti-message lp9#1 at t=1.5 matches no pending or processed")]
    fn cancelling_the_same_id_at_another_time_panics() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        // A re-sent copy carries the same (sender, sequence) id but a new
        // receive time: an anti for it must not cancel the processed copy.
        lp.rollback_cancel(&CounterModel, ev(1.5, 1, 7).key(), end(), 1);
    }

    #[test]
    fn rollback_cancel_discards_the_cancelled_event() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        let target = ev(2.0, 1, 7);
        let target_key = target.key();
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, target);
        process_one(&mut lp, ev(3.0, 2, 9));

        let rb = lp.rollback_cancel(&CounterModel, target_key, end(), 1);
        assert_eq!(rb.undone, 2, "t=2 (cancelled) and t=3");
        assert_eq!(rb.reenqueue.len(), 1, "only t=3 comes back");
        assert_eq!(rb.reenqueue[0].recv_time, VirtualTime::new(3.0));
        assert_eq!(lp.lvt(), VirtualTime::new(1.0));
    }

    #[test]
    fn fossil_commits_strictly_below_gvt() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        process_one(&mut lp, ev(1.0, 0, 1));
        process_one(&mut lp, ev(2.0, 1, 1));
        process_one(&mut lp, ev(3.0, 2, 1));
        assert_eq!(lp.fossil_collect(VirtualTime::new(2.0)), 1, "only t=1 < gvt");
        assert_eq!(lp.history_len(), 2);
        assert_eq!(lp.fossil_collect(VirtualTime::new(10.0)), 2);
        assert_eq!(lp.history_len(), 0);
        // LVT is unaffected by fossil collection.
        assert_eq!(lp.lvt(), VirtualTime::new(3.0));
    }

    #[test]
    fn fossil_boundary_counts_entries_strictly_below_gvt() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        assert_eq!(lp.below(VirtualTime::new(5.0)), 0, "empty history");
        for (t, src) in [(1.0, 0), (2.0, 1), (2.0, 2), (3.0, 3)] {
            process_one(&mut lp, ev(t, src, 1));
        }
        assert_eq!(lp.below(VirtualTime::INFINITY), 4, "every entry below");
        assert_eq!(lp.below(VirtualTime::new(0.5)), 0, "none below");
        assert_eq!(lp.below(VirtualTime::new(1.0)), 0, "an entry at gvt stays");
        assert_eq!(lp.below(VirtualTime::new(2.0)), 1, "both entries at gvt stay");
        assert_eq!(lp.below(VirtualTime::new(2.5)), 3);
        assert_eq!(lp.fossil_collect(VirtualTime::new(2.0)), 1);
        assert_eq!(lp.below(VirtualTime::new(2.0)), 0);
    }

    #[test]
    fn periodic_fossil_keeps_newest_snapshot_below_gvt() {
        let mut lp = LpRuntime::with_strategy(
            LpId(0),
            &CounterModel,
            1,
            RollbackStrategy::PeriodicSnapshot(2),
        );
        // Entries at t=1..=5; snapshots land on t=1, t=3, t=5.
        for (i, t) in [1.0, 2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            process_one(&mut lp, ev(*t, i as u64, 1));
        }
        // Newest snapshot below 4.5 is t=3: everything before it commits.
        assert_eq!(lp.fossil_collect(VirtualTime::new(4.5)), 2);
        assert_eq!(lp.history_len(), 3);
        // No snapshot strictly below 3.0 remains: nothing frees.
        assert_eq!(lp.fossil_collect(VirtualTime::new(3.0)), 0);
        // The t=5 snapshot unlocks the t=3 and t=4 entries.
        assert_eq!(lp.fossil_collect(VirtualTime::new(5.5)), 2);
        assert_eq!(lp.history_len(), 1);
        assert_eq!(lp.fossil_collect_final(VirtualTime::new(10.0)), 1);
        assert_eq!(lp.history_len(), 0);
    }

    #[test]
    fn rollback_below_everything_resets_to_initial() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        let init_state = lp.state.clone();
        let init_rng = lp.rng;
        process_one(&mut lp, ev(1.0, 0, 2));
        let rb = lp.rollback_to(&CounterModel, EventKey::MIN, end(), 1);
        assert_eq!(rb.undone, 1);
        assert_eq!(lp.state, init_state);
        assert_eq!(lp.rng, init_rng);
        assert_eq!(lp.last_key(), EventKey::MIN);
    }

    /// Two sends per event, to two different LPs at two delays.
    struct PairModel;

    impl Model for PairModel {
        type State = u64;
        type Payload = u32;

        fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) -> u64 {
            0
        }

        fn initial_events(&self, _lp: LpId, _s: &mut u64, _r: &mut Pcg32, _e: &mut Emitter<u32>) {}

        fn handle(
            &self,
            _ctx: &EventCtx,
            state: &mut u64,
            payload: &u32,
            _rng: &mut Pcg32,
            emit: &mut Emitter<u32>,
        ) -> u64 {
            *state += *payload as u64;
            emit.emit(LpId(1), 1.0, 0);
            emit.emit(LpId(2), 2.0, 0);
            1
        }
    }

    #[test]
    fn rollback_antis_run_newest_entry_first_in_send_order() {
        let mut lp = LpRuntime::new(LpId(0), &PairModel, 1);
        let sent: Vec<_> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, t)| process_with(&mut lp, &PairModel, ev(*t, i as u64, 1)))
            .collect();
        // A straggler at t=1.5 undoes the t=2, t=3 and t=4 entries.
        let rb = lp.rollback_to(&PairModel, ev(1.5, 99, 0).key(), end(), 1);
        assert_eq!(rb.undone, 3);
        let got: Vec<_> = rb.antis.iter().map(|a| (a.id, a.dst, a.recv_time)).collect();
        let want: Vec<_> = sent[1..].iter().rev().flatten().copied().collect();
        assert_eq!(got, want);
        let seqs: Vec<u64> = rb.antis.iter().map(|a| a.id.seq).collect();
        assert_eq!(seqs, [6, 7, 4, 5, 2, 3]);
        // The survivor's sends stay logged: undoing it antis exactly them.
        let rb = lp.rollback_to(&PairModel, EventKey::MIN, end(), 1);
        let got: Vec<_> = rb.antis.iter().map(|a| (a.id, a.dst, a.recv_time)).collect();
        assert_eq!(got, sent[0]);
    }

    #[test]
    fn periodic_reexecution_reuses_the_undone_ids() {
        let mut lp = LpRuntime::with_strategy(
            LpId(0),
            &CounterModel,
            1,
            RollbackStrategy::PeriodicSnapshot(3),
        );
        // Snapshots land on t=1 and t=4; t=2, t=3 and t=5 coast.
        let sent: Vec<_> = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .enumerate()
            .map(|(i, t)| process_with(&mut lp, &CounterModel, ev(*t, i as u64, 1)))
            .collect();
        // Undo t=3, t=4 and t=5; the survivors coast forward from the t=1
        // snapshot.
        let rb = lp.rollback_to(&CounterModel, ev(2.5, 99, 0).key(), end(), 1);
        assert_eq!(rb.undone, 3);
        let mut replay = rb.reenqueue;
        replay.sort_by_key(|e| e.key());
        let resent = process_with(&mut lp, &CounterModel, replay.remove(0));
        assert_eq!(resent[0].0, sent[2][0].0);
    }

    /// A model whose state is `N` inert bytes.
    struct Bytes<const N: usize>;

    impl<const N: usize> Model for Bytes<N> {
        type State = [u8; N];
        type Payload = u32;

        fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) -> [u8; N] {
            [0; N]
        }

        fn initial_events(&self, _: LpId, _: &mut [u8; N], _: &mut Pcg32, _: &mut Emitter<u32>) {}

        fn handle(
            &self,
            _ctx: &EventCtx,
            _state: &mut [u8; N],
            _payload: &u32,
            _rng: &mut Pcg32,
            _emit: &mut Emitter<u32>,
        ) -> u64 {
            1
        }
    }

    #[test]
    fn history_entry_size_does_not_depend_on_the_state() {
        use std::mem::size_of;
        assert_eq!(size_of::<ProcessedEvent<Bytes<8>>>(), size_of::<ProcessedEvent<Bytes<256>>>());
    }

    /// The LP's snapshot log, oldest first.
    fn snapshots<M: Model>(lp: &LpRuntime<M>) -> Vec<M::State> {
        lp.saving.iter().flat_map(|s| s.log.iter().cloned()).collect()
    }

    /// Walk a period-3 LP through processing, fossil collection (which
    /// retains a restoration point), a straggler rollback and its
    /// coast-forward, checking the snapshot log and the restored state
    /// against a straight-through run at each step.
    #[test]
    fn periodic_snapshot_log_through_fossil_rollback_and_coast() {
        let events: Vec<Event<u32>> = (1..=7).map(|t| ev(t as f64, t, t as u32)).collect();
        // Straight-through reference: `(state, rng)` after each event.
        let mut truth = LpRuntime::new(LpId(0), &CounterModel, 1);
        let after: Vec<_> = events
            .iter()
            .map(|e| {
                process_one(&mut truth, e.clone());
                (truth.state.clone(), truth.rng)
            })
            .collect();
        let strategy = RollbackStrategy::PeriodicSnapshot(3);
        let mut lp = LpRuntime::with_strategy(LpId(0), &CounterModel, 1, strategy);

        // Snapshots land on t=1, t=4 and t=7, each holding the state
        // before its event.
        for (e, want) in events.iter().zip([1, 1, 1, 2, 2, 2, 3]) {
            process_one(&mut lp, e.clone());
            assert_eq!(snapshots(&lp).len(), want);
        }
        assert_eq!(snapshots(&lp), [(0, vec![]), after[2].0.clone(), after[5].0.clone()]);

        // The newest snapshot below GVT 5.5 is t=4's: t=1..3 commit with
        // t=1's state copy, and t=4's stays as the restoration point.
        assert_eq!(lp.fossil_collect(VirtualTime::new(5.5)), 3);
        assert_eq!(lp.history_len(), 4);
        assert_eq!(snapshots(&lp), [after[2].0.clone(), after[5].0.clone()]);

        // A straggler at t=4.5 undoes t=5..7, popping t=7's copy; the LP
        // coasts forward from t=4's copy, which stays logged, through t=4.
        let rb = lp.rollback_to(&CounterModel, ev(4.5, 99, 0).key(), end(), 1);
        assert_eq!(rb.undone, 3);
        assert_eq!(snapshots(&lp), [after[2].0.clone()]);
        assert_eq!((lp.state.clone(), lp.rng), after[3]);
        assert_eq!(lp.lvt(), VirtualTime::new(4.0));

        // Re-executing the undone events restarts the cadence from t=4:
        // t=7 is flagged again, and the run converges on the reference.
        let mut replay = rb.reenqueue;
        replay.sort_by_key(|e| e.key());
        for e in replay {
            process_one(&mut lp, e);
        }
        assert_eq!(snapshots(&lp), [after[2].0.clone(), after[5].0.clone()]);
        assert_eq!((lp.state.clone(), lp.rng), after[6]);

        // At shutdown everything commits and the log empties.
        assert_eq!(lp.fossil_collect_final(VirtualTime::INFINITY), 4);
        assert!(snapshots(&lp).is_empty());
    }
}
