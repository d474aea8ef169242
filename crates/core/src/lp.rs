//! Logical process runtime: optimistic processing, rollback, fossil
//! collection.
//!
//! Two rollback strategies, selected per model:
//!
//! * **State saving** (default): every processed event keeps a snapshot of
//!   the LP's `(state, rng, send_seq)` *before* the event plus the
//!   identities of the messages it sent; undoing restores the earliest
//!   snapshot.
//! * **Reverse computation** (ROSS's mechanism, for models that implement
//!   [`Model::reverse`]): only `(rng, send_seq)` — 24 bytes — are stored
//!   per event; undoing calls the model's inverse handler in exact LIFO
//!   order.
//!
//! In both strategies, restoring `send_seq` (not just state and RNG) makes
//! committed re-executions assign identical event ids, which keeps the
//! optimistic run bit-identical to the sequential reference even under
//! rollbacks.

use cagvt_base::ids::{EventId, LpId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::VirtualTime;
use std::collections::VecDeque;

use crate::event::{AntiMsg, Event, EventKey};
use crate::model::{Emitter, EventCtx, Model};

/// Record of one optimistic send, kept for anti-message generation.
#[derive(Clone, Copy, Debug)]
pub struct SentRecord {
    pub dst: LpId,
    pub recv_time: VirtualTime,
    pub id: EventId,
}

/// How an LP undoes processed events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RollbackStrategy {
    /// Snapshot `(state, rng, seq)` before every event.
    Snapshot,
    /// Reverse computation (requires [`Model::reverse`]): store 24 bytes
    /// per event, undo by running the model's inverse handler in LIFO
    /// order.
    Reverse,
    /// Periodic state saving: snapshot every `k`-th event, store nothing
    /// for the rest; roll back by restoring the nearest snapshot and
    /// *coasting forward* — re-executing the surviving events with their
    /// emissions suppressed (they were already sent and stay valid).
    PeriodicSnapshot(u32),
}

/// What one history entry remembers about the pre-event LP.
enum Prior<M: Model> {
    /// Full state snapshot.
    Snapshot { state: M::State, rng: Pcg32, seq: u64 },
    /// Reverse computation: the model's inverse handler reconstructs the
    /// state; only the generator and sequence positions are stored.
    Reverse { rng: Pcg32, seq: u64 },
    /// Between periodic snapshots: reconstructed by coast-forward replay.
    Coast,
}

/// One entry of the processed-event history.
pub struct ProcessedEvent<M: Model> {
    pub event: Event<M::Payload>,
    prior: Prior<M>,
    pub sent: Vec<SentRecord>,
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
    /// back), so it is its own index: lookups bisect it.
    processed: VecDeque<ProcessedEvent<M>>,
    strategy: RollbackStrategy,
    /// Events processed since the last periodic snapshot.
    since_snapshot: u32,
    /// Run constants needed to rebuild an [`EventCtx`] for reverse and
    /// coast-forward calls.
    end_time: VirtualTime,
    total_lps: u32,
}

impl<M: Model> LpRuntime<M> {
    /// Snapshot-strategy LP (models that don't implement `reverse`, and
    /// unit tests).
    pub fn new(id: LpId, model: &M, seed: u64) -> Self {
        Self::with_strategy(id, model, seed, RollbackStrategy::Snapshot, VirtualTime::INFINITY, 0)
    }

    /// LP with an explicit rollback strategy and the run constants the
    /// reverse/coast handlers see in their context.
    pub fn with_strategy(
        id: LpId,
        model: &M,
        seed: u64,
        strategy: RollbackStrategy,
        end_time: VirtualTime,
        total_lps: u32,
    ) -> Self {
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
            strategy,
            since_snapshot: 0,
            end_time,
            total_lps,
        }
    }

    /// This LP's rollback strategy.
    #[inline]
    pub fn strategy(&self) -> RollbackStrategy {
        self.strategy
    }

    fn ctx_for(&self, event: &Event<M::Payload>) -> EventCtx {
        EventCtx {
            now: event.recv_time,
            self_lp: self.id,
            end_time: self.end_time,
            total_lps: self.total_lps,
        }
    }

    /// Allocate the next send sequence number.
    #[inline]
    pub fn next_seq(&mut self) -> u64 {
        let s = self.send_seq;
        self.send_seq += 1;
        s
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

    /// Whether the event with exactly this key is in the uncommitted
    /// history. A copy with the same id but another receive time does not
    /// count: it is a different message.
    #[inline]
    pub fn has_processed(&self, key: EventKey) -> bool {
        self.processed.binary_search_by_key(&key, |e| e.event.key()).is_ok()
    }

    /// Run the model's initial-event hook (time-zero seeding). Sends are
    /// assigned sequence numbers but not recorded in history: nothing can
    /// roll back past time zero.
    pub fn seed_initial(&mut self, model: &M, emit: &mut Emitter<M::Payload>) {
        model.initial_events(self.id, &mut self.state, &mut self.rng, emit);
    }

    /// Optimistically process `event`, which must be `>` the last processed
    /// key (the worker rolls back first otherwise). Emitted events are left
    /// in `emit` for the worker to stamp and route; their `SentRecord`s are
    /// appended by [`Self::record_sends`].
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
        let prior = match self.strategy {
            RollbackStrategy::Reverse => Prior::Reverse { rng: self.rng, seq: self.send_seq },
            RollbackStrategy::Snapshot => {
                Prior::Snapshot { state: self.state.clone(), rng: self.rng, seq: self.send_seq }
            }
            RollbackStrategy::PeriodicSnapshot(k) => {
                if self.since_snapshot == 0 || self.since_snapshot >= k {
                    self.since_snapshot = 1;
                    Prior::Snapshot { state: self.state.clone(), rng: self.rng, seq: self.send_seq }
                } else {
                    self.since_snapshot += 1;
                    Prior::Coast
                }
            }
        };
        let epg = model.handle(ctx, &mut self.state, &event.payload, &mut self.rng, emit);
        self.last_key = event.key();
        self.processed.push_back(ProcessedEvent { event, prior, sent: Vec::new() });
        epg
    }

    /// Attach the sent-message records of the most recently processed
    /// event (the worker calls this after routing the emissions).
    pub fn record_sends(&mut self, sends: Vec<SentRecord>) {
        let entry = self.processed.back_mut().expect("record_sends after process");
        debug_assert!(entry.sent.is_empty());
        entry.sent = sends;
    }

    /// Roll back every processed event with key `> to_key` (straggler with
    /// key `to_key` about to be processed). All undone events are
    /// re-enqueued.
    pub fn rollback_to(&mut self, model: &M, to_key: EventKey) -> Rollback<M::Payload> {
        self.rollback_inner(model, to_key, false)
    }

    /// Roll back every processed event with key `>= cancel_key`, where
    /// `cancel_key` is a processed event's key (anti-message induced). The
    /// cancelled event is discarded instead of re-enqueued.
    pub fn rollback_cancel(&mut self, model: &M, cancel_key: EventKey) -> Rollback<M::Payload> {
        debug_assert!(self.has_processed(cancel_key));
        self.rollback_inner(model, cancel_key, true)
    }

    fn rollback_inner(
        &mut self,
        model: &M,
        to_key: EventKey,
        cancel: bool,
    ) -> Rollback<M::Payload> {
        let mut reenqueue = Vec::new();
        let mut antis = Vec::new();
        let mut undone = 0u64;
        while let Some(back) = self.processed.back() {
            let boundary =
                if cancel { back.event.key() >= to_key } else { back.event.key() > to_key };
            if !boundary {
                break;
            }
            let entry = self.processed.pop_back().expect("back() was Some");
            undone += 1;
            for s in &entry.sent {
                antis.push(AntiMsg { recv_time: s.recv_time, dst: s.dst, id: s.id });
            }
            // Undo this event (strict LIFO): restore its snapshot, run the
            // model's inverse handler, or (periodic mode) defer to the
            // coast-forward pass below.
            match entry.prior {
                Prior::Snapshot { state, rng, seq } => {
                    self.state = state;
                    self.rng = rng;
                    self.send_seq = seq;
                }
                Prior::Reverse { rng, seq } => {
                    self.rng = rng;
                    self.send_seq = seq;
                    let ctx = self.ctx_for(&entry.event);
                    // Scratch generator at the pre-event position, so the
                    // reversal can re-derive the forward pass's draws.
                    let mut scratch = rng;
                    model.reverse(&ctx, &mut self.state, &entry.event.payload, &mut scratch);
                }
                Prior::Coast => {} // reconstructed below
            }
            if !(cancel && entry.event.key() == to_key) {
                reenqueue.push(entry.event);
            }
        }
        if undone > 0 && matches!(self.strategy, RollbackStrategy::PeriodicSnapshot(_)) {
            self.coast_forward(model);
        }
        self.last_key = self.processed.back().map(|e| e.event.key()).unwrap_or(EventKey::MIN);
        Rollback { reenqueue, antis, undone }
    }

    /// Periodic-snapshot restoration: the undone entries are already
    /// popped, but the LP state may be anywhere. Pop surviving entries
    /// back to the nearest snapshot (the oldest retained entry is always
    /// one — see [`Self::fossil_collect`]), restore it, then re-execute
    /// the popped survivors with their emissions suppressed: they were
    /// already sent and remain valid ("coasting forward").
    fn coast_forward(&mut self, model: &M) {
        let mut replay: Vec<ProcessedEvent<M>> = Vec::new();
        while let Some(e) = self.processed.pop_back() {
            let is_snapshot = matches!(e.prior, Prior::Snapshot { .. });
            replay.push(e);
            if is_snapshot {
                break;
            }
        }
        if replay.is_empty() {
            // The rollback undid the whole history; its earliest entry was
            // a snapshot (the first entry always is), so phase one already
            // restored the state directly.
            self.since_snapshot = 0;
            return;
        }
        // Restore from the snapshot entry (the last pushed).
        let snap = replay.last().expect("non-empty");
        match &snap.prior {
            Prior::Snapshot { state, rng, seq } => {
                self.state = state.clone();
                self.rng = *rng;
                self.send_seq = *seq;
            }
            _ => unreachable!("coast_forward stops at a snapshot"),
        }
        // Re-execute survivors oldest-first, dropping their emissions and
        // re-advancing the sequence counter by what they originally sent.
        let mut sink: Emitter<M::Payload> = Emitter::new();
        for e in replay.into_iter().rev() {
            let ctx = self.ctx_for(&e.event);
            let _epg =
                model.handle(&ctx, &mut self.state, &e.event.payload, &mut self.rng, &mut sink);
            sink.take().for_each(drop);
            self.send_seq += e.sent.len() as u64;
            self.processed.push_back(e);
        }
        // The snapshot cadence counter restarts from the replayed suffix.
        self.since_snapshot = 0;
        let mut n = 0;
        for e in self.processed.iter().rev() {
            n += 1;
            if matches!(e.prior, Prior::Snapshot { .. }) {
                self.since_snapshot = n;
                break;
            }
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
            RollbackStrategy::PeriodicSnapshot(_) => self
                .processed
                .range(..below)
                .rposition(|e| matches!(e.prior, Prior::Snapshot { .. }))
                .unwrap_or(0),
            _ => below,
        };
        self.processed.drain(..n);
        n as u64
    }

    /// Fossil collection at shutdown: GVT has passed the end time, no
    /// rollback can follow, so retention is unnecessary and everything
    /// below `gvt` commits regardless of strategy.
    pub fn fossil_collect_final(&mut self, gvt: VirtualTime) -> u64 {
        let n = self.below(gvt);
        self.processed.drain(..n);
        n as u64
    }

    /// Number of history entries with receive time below `gvt`.
    fn below(&self, gvt: VirtualTime) -> usize {
        self.processed.partition_point(|e| e.event.recv_time < gvt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::ids::LaneId;
    use cagvt_base::ids::NodeId;

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

    // Unused in lp tests, but keeps the imports exercised symmetric with
    // the worker layer.
    #[allow(dead_code)]
    fn _topology_types(_n: NodeId, _l: LaneId) {}

    fn ctx(t: f64) -> EventCtx {
        EventCtx {
            now: VirtualTime::new(t),
            self_lp: LpId(0),
            end_time: VirtualTime::new(1e9),
            total_lps: 1,
        }
    }

    fn ev(t: f64, seq: u64, payload: u32) -> Event<u32> {
        Event {
            recv_time: VirtualTime::new(t),
            dst: LpId(0),
            id: EventId::new(LpId(9), seq),
            payload,
        }
    }

    fn process_one(lp: &mut LpRuntime<CounterModel>, e: Event<u32>) {
        let mut em = Emitter::new();
        let t = e.recv_time.as_f64();
        lp.process(&CounterModel, &ctx(t), e, &mut em);
        // Stamp the emissions as the worker would, recording the sends.
        let sends: Vec<(LpId, f64)> = em.take().map(|(dst, delay, _p)| (dst, delay)).collect();
        let mut records = Vec::new();
        for (dst, delay) in sends {
            records.push(SentRecord {
                dst,
                recv_time: VirtualTime::new(t + delay),
                id: EventId::new(LpId(0), lp.next_seq()),
            });
        }
        lp.record_sends(records);
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
        assert!(lp.has_processed(ev(1.0, 0, 5).key()));
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
        let rb = lp.rollback_to(&CounterModel, straggler_key);
        assert_eq!(rb.undone, 2);
        assert_eq!(rb.reenqueue.len(), 2);
        assert_eq!(rb.antis.len(), 2, "one optimistic send per undone event");
        assert_eq!(lp.state, state_after_first);
        assert_eq!(lp.rng, rng_after_first);
        assert_eq!(lp.lvt(), VirtualTime::new(1.0));
        assert_eq!(lp.history_len(), 1);
        assert!(!lp.has_processed(ev(3.0, 2, 9).key()));
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
    fn same_id_at_another_time_is_not_processed() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        assert!(lp.has_processed(ev(2.0, 1, 7).key()));
        // A re-sent copy carries the same (sender, sequence) id but a new
        // receive time: an anti for it must not hit the processed copy.
        assert!(!lp.has_processed(ev(1.5, 1, 7).key()));
        assert!(!lp.has_processed(ev(3.0, 1, 7).key()));
    }

    #[test]
    fn rollback_cancel_discards_the_cancelled_event() {
        let mut lp = LpRuntime::new(LpId(0), &CounterModel, 1);
        let target = ev(2.0, 1, 7);
        let target_key = target.key();
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, target);
        process_one(&mut lp, ev(3.0, 2, 9));

        let rb = lp.rollback_cancel(&CounterModel, target_key);
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
    fn periodic_fossil_keeps_newest_snapshot_below_gvt() {
        let mut lp = LpRuntime::with_strategy(
            LpId(0),
            &CounterModel,
            1,
            RollbackStrategy::PeriodicSnapshot(2),
            VirtualTime::new(1e9),
            1,
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
        let rb = lp.rollback_to(&CounterModel, EventKey::MIN);
        assert_eq!(rb.undone, 1);
        assert_eq!(lp.state, init_state);
        assert_eq!(lp.rng, init_rng);
        assert_eq!(lp.last_key(), EventKey::MIN);
    }
}
