//! Logical processes under optimistic execution: processing, rollback,
//! fossil collection.
//!
//! Two rollback strategies ([`RollbackStrategy`]), selected per model,
//! differ only in whether events get a pre-event state copy:
//!
//! * **State saving** (default): every processed event copies the LP's
//!   state *before* the event; undoing restores the earliest undone
//!   event's copy.
//! * **Reverse computation** (ROSS's mechanism, for models that implement
//!   [`Model::reverse`]): no event copies the state; undoing calls the
//!   model's inverse handler in exact LIFO order.
//!
//! Either way undoing an entry needs nothing older than it, so
//! [`LpTable::fossil_collect`] commits every entry below GVT.
//!
//! ## Storage
//!
//! One [`LpTable`] holds all LPs of a worker (or of the sequential
//! reference), as in ROSS, whose processed lists are linked through per-PE
//! event pools. It owns the model and the run's constants (seed, rollback
//! strategy, end time, LP total) and builds every handler call's context
//! itself, and it is the only code that turns a model's emissions into
//! identified events: [`LpTable::seed`] at time zero and
//! [`LpTable::process`] afterwards stamp each one with `now + delay` and the
//! sending LP's next sequence number. The engine's workers and the
//! sequential reference call the same methods, so their events, ids and
//! final [`LpTable::fingerprint`] agree whatever the partition of LPs into
//! tables. The table stores:
//!
//! * a dense array of per-LP records ([`LpRecord`]): state, generator, send
//!   sequence number, last processed key, the two ends of the LP's history
//!   chain. An LP's id is the table's first LP plus its index, and the
//!   rollback strategy is the table's, so neither is stored per LP;
//! * one slab of history nodes and one of send nodes, shared by the table's
//!   LPs; a freed node is the next one handed out (`slab.rs`), so processing
//!   and committing call the allocator only when a slab grows;
//! * under state saving, a **snapshot array** beside the history slab.
//!
//! An LP's uncommitted history is a doubly linked **history chain**, oldest
//! to newest, in strictly increasing event-key order: processing appends at
//! the newest end, rollback unlinks from it, and fossil collection unlinks
//! from the oldest end. Every node has one layout under both strategies: the
//! event, the pre-event generator state and the head of the entry's send
//! chain, 48 bytes for PHOLD. The generator state is its 8-byte position
//! ([`Pcg32::state`]): a handler draws from the LP's generator but cannot
//! change its stream (debug builds check), so rollback rebuilds the
//! generator on the LP's own stream ([`Pcg32::at_state`]). A freed node
//! keeps its stale event until the slot is reused; the slab's live count
//! tracks the nodes in use. What the history sent and saved hangs off it:
//!
//! * each entry's **send chain** holds the `(dst, recv_time)` of every
//!   message the entry's event sent, newest send first. Ids are implied by
//!   position, under
//!
//!   ```text
//!   the i-th send counted from the newest entry's newest send carries
//!   sequence number send_seq - 1 - i, the count running on through each
//!   older entry's chain
//!   ```
//!
//!   so rollback rebuilds every anti's id from `send_seq` by counting down,
//!   and leaves `send_seq` at the first undone entry's first send;
//! * under state saving, the entry's pre-event state, under
//!
//!   ```text
//!   snapshots[i] is Some for every live history node i (state saving);
//!   snapshots is empty (reverse computation)
//!   ```
//!
//!   so the array grows with the history slab under state saving, and
//!   under reverse computation a table carries one empty `Vec` for it.
//!
//! Processing appends a history node, a send node per send and (state
//! saving) a state copy at the node's slot; rollback frees the undone nodes
//! newest first, emitting an anti per send and taking back each node's
//! copy; fossil collection frees the committed nodes oldest first and drops
//! their copies. Rollback costs O(undone) and fossil collection
//! O(committed + 1), plus the sends of those entries. A history node is
//! plain data of a fixed size whatever the state's size: for a model whose
//! state and payload own no heap memory, reverse computation stores no
//! state.
//!
//! Under both strategies, rollback restores `send_seq` to the first undone
//! entry's first send (not just state and RNG), so committed re-executions
//! assign identical event ids, which keeps the optimistic run bit-identical
//! to the sequential reference even under rollbacks. `send_seq` is the
//! 32-bit sequence of [`EventId`]; a send that would overflow it panics,
//! naming the LP, instead of reusing an id.
//!
//! An anti-message whose event is not pending rolls its LP back through
//! [`LpTable::rollback_cancel`], which panics, naming the LP and the key,
//! unless it meets the anti's exact key in the history: on FIFO channels an
//! anti never arrives before its event, so a miss is a bug to report.

use cagvt_base::ids::{EventId, LpId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::VirtualTime;
use std::sync::Arc;

use crate::config::SimConfig;
use crate::event::{AntiMsg, Event, EventKey};
use crate::model::{Emitter, EventCtx, Model};
use crate::slab::{Link, Slab, NIL};

/// How an LP undoes processed events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RollbackStrategy {
    /// Copy the state before every event.
    Snapshot,
    /// Reverse computation (requires [`Model::reverse`]): copy no state,
    /// undo by running the model's inverse handler in LIFO order.
    Reverse,
}

/// One entry of an LP's processed-event history: a node of its history
/// chain. Its sends and its state copy are not stored here but in its send
/// chain and the table's snapshot array (see the module doc), so the node's
/// size does not depend on the model's state.
pub struct HistoryNode<M: Model> {
    /// The processed event; stale while the slot is free.
    event: Event<M::Payload>,
    /// The position of the LP's generator before this event.
    rng_state: u64,
    /// The next older and next newer entry of the LP's chain, or `NIL`.
    /// `newer` links the slab's free list while the slot is free.
    older: u32,
    newer: u32,
    /// The newest node of this entry's send chain, or `NIL`.
    sends: u32,
}

impl<M: Model> Link for HistoryNode<M> {
    fn link(&mut self) -> &mut u32 {
        &mut self.newer
    }
}

/// One message a history entry sent: a node of the entry's send chain. The
/// link sits where `(LpId, VirtualTime)` has padding.
pub struct SendNode {
    recv_time: VirtualTime,
    dst: LpId,
    /// The entry's next older send, or `NIL`; the free list's link while
    /// the slot is free.
    next: u32,
}

impl Link for SendNode {
    fn link(&mut self) -> &mut u32 {
        &mut self.next
    }
}

/// Result of a rollback: what the worker must do next. The caller keeps
/// one and passes it to every rollback, which refills it, so the vectors'
/// buffers are reused instead of allocated per rollback.
pub struct Rollback<P> {
    /// Undone events to put back into the pending set (already excludes a
    /// cancelled event, if the rollback was anti-message induced).
    pub reenqueue: Vec<Event<P>>,
    /// Anti-messages for every optimistic send of the undone events.
    pub antis: Vec<AntiMsg>,
    /// Number of events undone (including a cancelled one).
    pub undone: u64,
}

impl<P> Default for Rollback<P> {
    fn default() -> Self {
        Rollback { reenqueue: Vec::new(), antis: Vec::new(), undone: 0 }
    }
}

/// The per-LP part of an [`LpTable`]. `repr(C)` keeps the declaration
/// order, which puts the fields processing touches first.
#[repr(C)]
pub struct LpRecord<M: Model> {
    /// Key of the most recent processed (uncommitted or committed) event;
    /// `EventKey::MIN` before any processing. The LP's LVT is `last_key.t`.
    last_key: EventKey,
    rng: Pcg32,
    send_seq: u32,
    /// The newest and oldest node of the LP's history chain, or `NIL`.
    newest: u32,
    oldest: u32,
    state: M::State,
}

/// Scramble one LP's state fingerprint into a position-independent
/// contribution; the total is the XOR over all LPs, so any partitioning of
/// LPs across workers folds to the same value.
fn fingerprint_mix(lp: LpId, fp: u64) -> u64 {
    let mut z = (lp.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fp;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The context every handler call shares: the run's end time and LP total.
#[derive(Clone, Copy)]
struct Run {
    end_time: VirtualTime,
    total_lps: u32,
}

impl Run {
    /// The context of LP `lp`'s handler call at `now`.
    #[inline]
    fn ctx(self, lp: LpId, now: VirtualTime) -> EventCtx {
        EventCtx { now, self_lp: lp, end_time: self.end_time, total_lps: self.total_lps }
    }
}

/// The LPs `first_lp .. first_lp + len` of one run under optimistic
/// execution, with the model, their histories (see the module doc) and the
/// numbering of their sends. Every method takes an LP's index in the table.
pub struct LpTable<M: Model> {
    model: Arc<M>,
    first_lp: u32,
    strategy: RollbackStrategy,
    run: Run,
    lps: Vec<LpRecord<M>>,
    history: Slab<HistoryNode<M>>,
    /// Under state saving, the state of each live history entry's LP before
    /// the entry's event, at the entry's slot in `history` (see the module
    /// doc's invariant).
    snapshots: Vec<Option<M::State>>,
    sends: Slab<SendNode>,
    /// The model's emissions from one hook or handler call, stamped into
    /// events by [`Self::stamp`].
    sink: Emitter<M::Payload>,
}

impl<M: Model> LpTable<M> {
    /// `n_lps` LPs of the run `cfg` from `first_lp` on, each with its
    /// initial state and a generator seeded from `cfg.seed` and its id,
    /// undone by the strategy `cfg` selects for `model`.
    pub fn new(model: Arc<M>, cfg: &SimConfig, first_lp: LpId, n_lps: u32) -> Self {
        let strategy = cfg.rollback_strategy(model.supports_reverse());
        let lps = (first_lp.0..first_lp.0 + n_lps)
            .map(|id| {
                let mut rng = Pcg32::new(cfg.seed, id as u64);
                let state = model.init_state(LpId(id), &mut rng);
                LpRecord {
                    last_key: EventKey::MIN,
                    rng,
                    send_seq: 0,
                    newest: NIL,
                    oldest: NIL,
                    state,
                }
            })
            .collect();
        LpTable {
            model,
            first_lp: first_lp.0,
            strategy,
            run: Run { end_time: cfg.end_vt(), total_lps: cfg.total_lps() },
            lps,
            history: Slab::with_capacity(0),
            snapshots: Vec::new(),
            sends: Slab::with_capacity(0),
            sink: Emitter::new(),
        }
    }

    /// Number of LPs.
    pub fn len(&self) -> usize {
        self.lps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lps.is_empty()
    }

    /// The id of the table's first LP.
    pub fn first_lp(&self) -> LpId {
        LpId(self.first_lp)
    }

    /// The id of LP `lp`.
    #[inline]
    pub fn id(&self, lp: usize) -> LpId {
        LpId(self.first_lp + lp as u32)
    }

    /// The index of LP `id`, which must belong to the table.
    #[inline]
    pub fn index(&self, id: LpId) -> usize {
        let idx = id.0.wrapping_sub(self.first_lp) as usize;
        debug_assert!(idx < self.lps.len(), "{id} is not in this LP table");
        idx
    }

    #[inline]
    pub fn state(&self, lp: usize) -> &M::State {
        &self.lps[lp].state
    }

    #[inline]
    pub fn rng(&self, lp: usize) -> Pcg32 {
        self.lps[lp].rng
    }

    #[inline]
    pub fn lvt(&self, lp: usize) -> VirtualTime {
        self.lps[lp].last_key.t
    }

    #[inline]
    pub fn last_key(&self, lp: usize) -> EventKey {
        self.lps[lp].last_key
    }

    /// Uncommitted history length of LP `lp`. Walks the chain; the engine's
    /// optimism throttle reads the table's total instead, its live history
    /// nodes ([`Self::live_nodes`]).
    pub fn history_len(&self, lp: usize) -> usize {
        let mut n = 0;
        let mut node = self.lps[lp].oldest;
        while node != NIL {
            n += 1;
            node = self.history[node].newer;
        }
        n
    }

    /// History and send nodes in use across the table. Both are zero once
    /// every LP's history has been committed.
    pub fn live_nodes(&self) -> (usize, usize) {
        (self.history.live(), self.sends.live())
    }

    /// The XOR over the table's LPs of each one's state fingerprint,
    /// scrambled with its id: any partition of a run's LPs into tables folds
    /// to the same total.
    pub fn fingerprint(&self) -> u64 {
        let fp = |k: usize| self.model.state_fingerprint(&self.lps[k].state);
        (0..self.lps.len()).fold(0, |acc, k| acc ^ fingerprint_mix(self.id(k), fp(k)))
    }

    /// Time-zero seeding: run every LP's initial-event hook, in LP order,
    /// appending the events to `out`. Their sends take sequence numbers but
    /// are not logged: nothing can roll back past time zero.
    pub fn seed(&mut self, out: &mut Vec<Event<M::Payload>>) {
        for lp in 0..self.lps.len() {
            let id = self.id(lp);
            let rec = &mut self.lps[lp];
            debug_assert!(rec.newest == NIL, "seeding after processing");
            self.model.initial_events(id, &mut rec.state, &mut rec.rng, &mut self.sink);
            self.stamp(lp, VirtualTime::ZERO, NIL, out);
        }
    }

    /// Optimistically process `event` at LP `lp`, appending the events it
    /// sends to `out`, in send order. Its key must be above the LP's last
    /// processed key (the worker rolls back first otherwise).
    ///
    /// Returns the model-reported EPG units.
    pub fn process(
        &mut self,
        lp: usize,
        event: Event<M::Payload>,
        out: &mut Vec<Event<M::Payload>>,
    ) -> u64 {
        let now = event.recv_time;
        let ctx = self.run.ctx(self.id(lp), now);
        let rec = &mut self.lps[lp];
        debug_assert!(event.key() > rec.last_key, "processing out of order");
        let saved = (self.strategy == RollbackStrategy::Snapshot).then(|| rec.state.clone());
        let rng = rec.rng;
        let epg =
            self.model.handle(&ctx, &mut rec.state, &event.payload, &mut rec.rng, &mut self.sink);
        debug_assert!(
            rec.rng.at_state(rng.state()) == rng,
            "{}: the handler changed its generator's stream",
            ctx.self_lp
        );
        rec.last_key = event.key();
        let older = rec.newest;
        let node = self.history.alloc(HistoryNode {
            event,
            rng_state: rng.state(),
            older,
            newer: NIL,
            sends: NIL,
        });
        if let Some(state) = saved {
            match self.snapshots.get_mut(node as usize) {
                Some(slot) => *slot = Some(state),
                None => {
                    // A new slab slot: the array grows with the slab.
                    debug_assert_eq!(self.snapshots.len(), node as usize);
                    self.snapshots.push(Some(state));
                }
            }
        }
        match older {
            NIL => rec.oldest = node,
            older => self.history[older].newer = node,
        }
        rec.newest = node;
        self.stamp(lp, now, node, out);
        self.debug_check(lp);
        epg
    }

    /// Turn the sink's emissions, made by LP `lp` at `now`, into events
    /// appended to `out`: each receives at `now + delay` and carries the
    /// LP's next sequence number. The sends of a processed event are logged
    /// on its history node `entry`; seeding's (`entry == NIL`) are not.
    ///
    /// # Panics
    ///
    /// If the LP's 32-bit send sequence overflows.
    fn stamp(&mut self, lp: usize, now: VirtualTime, entry: u32, out: &mut Vec<Event<M::Payload>>) {
        let id = self.id(lp);
        let rec = &mut self.lps[lp];
        for (dst, delay, payload) in self.sink.take() {
            let recv_time = now + delay;
            if entry != NIL {
                let node = &mut self.history[entry];
                node.sends = self.sends.alloc(SendNode { recv_time, dst, next: node.sends });
            }
            out.push(Event { recv_time, dst, id: EventId::new(id, rec.send_seq), payload });
            rec.send_seq = rec
                .send_seq
                .checked_add(1)
                .unwrap_or_else(|| panic!("{id}: its 32-bit send sequence number overflowed"));
        }
    }

    /// Roll LP `lp` back past every processed event with key `> to_key`
    /// (a straggler with key `to_key` is about to be processed), refilling
    /// `out`. All undone events are re-enqueued.
    pub fn rollback_to(&mut self, lp: usize, to_key: EventKey, out: &mut Rollback<M::Payload>) {
        self.rollback_inner(lp, to_key, false, out);
    }

    /// Roll LP `lp` back past every processed event with key
    /// `>= cancel_key`, which must be a processed event's key (anti-message
    /// induced), refilling `out`. The cancelled event is discarded instead
    /// of re-enqueued.
    pub fn rollback_cancel(
        &mut self,
        lp: usize,
        cancel_key: EventKey,
        out: &mut Rollback<M::Payload>,
    ) {
        self.rollback_inner(lp, cancel_key, true, out);
    }

    fn rollback_inner(
        &mut self,
        lp: usize,
        to_key: EventKey,
        cancel: bool,
        out: &mut Rollback<M::Payload>,
    ) {
        out.reenqueue.clear();
        out.antis.clear();
        out.undone = 0;
        let id = self.id(lp);
        let reverse = self.strategy == RollbackStrategy::Reverse;
        let rec = &mut self.lps[lp];
        // Sequence number one past the sends of the entry being undone.
        let mut seq = rec.send_seq;
        let mut met = !cancel;
        while rec.newest != NIL {
            let key = self.history[rec.newest].event.key();
            if if cancel { key < to_key } else { key <= to_key } {
                break;
            }
            let slot = rec.newest;
            let (_, entry) = self.history.free(slot);
            let event = entry.event;
            rec.newest = entry.older;
            out.undone += 1;
            // Newest entry first, in send order within the entry: its
            // chain runs newest send first, so reverse what it yields.
            let first = out.antis.len();
            let mut send = entry.sends;
            while send != NIL {
                let (next, &mut SendNode { recv_time, dst, .. }) = self.sends.free(send);
                seq -= 1;
                out.antis.push(AntiMsg { recv_time, dst, id: EventId::new(id, seq) });
                send = next;
            }
            out.antis[first..].reverse();
            // Undo this event (strict LIFO): restore its generator, then run
            // the model's inverse handler or restore its snapshot.
            rec.rng = rec.rng.at_state(entry.rng_state);
            if reverse {
                let ctx = self.run.ctx(id, event.recv_time);
                // Scratch generator at the pre-event position, so the
                // reversal can re-derive the forward pass's draws.
                let mut scratch = rec.rng;
                self.model.reverse(&ctx, &mut rec.state, &event.payload, &mut scratch);
            } else {
                let snapshot = self.snapshots[slot as usize].take();
                rec.state = snapshot.expect("a snapshot per history entry");
            }
            if cancel && key == to_key {
                met = true;
            } else {
                out.reenqueue.push(event);
            }
        }
        let (key_id, t) = (to_key.id, to_key.t);
        assert!(met, "{id}: anti-message {key_id} at t={t} matches no pending or processed event");
        rec.send_seq = seq;
        match rec.newest {
            NIL => rec.oldest = NIL,
            newest => self.history[newest].newer = NIL,
        }
        rec.last_key = match rec.newest {
            NIL => EventKey::MIN,
            newest => self.history[newest].event.key(),
        };
        self.debug_check(lp);
    }

    /// Free LP `lp`'s oldest history entries with receive time below `gvt`,
    /// with their send chains and state copies; returns how many (the events
    /// committed). Stops at the first entry it keeps, so the cost is the
    /// entries freed plus one.
    pub fn fossil_collect(&mut self, lp: usize, gvt: VirtualTime) -> u64 {
        let rec = &mut self.lps[lp];
        let mut committed = 0;
        while rec.oldest != NIL && self.history[rec.oldest].event.recv_time < gvt {
            committed += 1;
            let slot = rec.oldest;
            if let Some(snapshot) = self.snapshots.get_mut(slot as usize) {
                *snapshot = None;
            }
            let (newer, entry) = self.history.free(slot);
            let mut send = entry.sends;
            while send != NIL {
                send = self.sends.free(send).0;
            }
            rec.oldest = newer;
        }
        if committed == 0 {
            return 0;
        }
        match rec.oldest {
            NIL => rec.newest = NIL,
            oldest => self.history[oldest].older = NIL,
        }
        self.debug_check(lp);
        committed as u64
    }

    /// LP `lp`'s chain and copies against the module doc's invariants,
    /// checked in debug builds after every operation that changes them:
    /// the chain's links agree both ways and its keys ascend up to
    /// `last_key`, every entry has a state copy under state saving and none
    /// otherwise, and the send chains hold no more sends than were
    /// numbered.
    fn debug_check(&self, lp: usize) {
        if !cfg!(debug_assertions) {
            return;
        }
        let rec = &self.lps[lp];
        let (mut node, mut older, mut last) = (rec.oldest, NIL, None);
        let saving = self.strategy == RollbackStrategy::Snapshot;
        let mut sent = 0;
        while node != NIL {
            let entry = &self.history[node];
            assert_eq!(entry.older, older, "history chain links out of step");
            let key = entry.event.key();
            assert!(last < Some(key), "history chain out of key order");
            last = Some(key);
            let copied = self.snapshots.get(node as usize).is_some_and(Option::is_some);
            assert_eq!(copied, saving, "state copy out of step with the strategy");
            let mut send = entry.sends;
            while send != NIL {
                sent += 1;
                send = self.sends[send].next;
            }
            older = node;
            node = entry.newer;
        }
        assert_eq!(rec.newest, older, "history chain ends out of step");
        assert!(last.is_none_or(|key| key == rec.last_key), "newest entry is not the last key");
        assert!(sent <= rec.send_seq, "more sends logged than numbered");
        assert!(saving || self.snapshots.is_empty(), "state copies under reverse computation");
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

    /// A one-LP run with end time 1e9 under `strategy`.
    fn cfg(seed: u64, strategy: RollbackStrategy) -> SimConfig {
        let mut cfg = SimConfig::small(1, 1);
        (cfg.lps_per_worker, cfg.end_time, cfg.seed) = (1, 1e9, seed);
        cfg.rollback = Some(strategy);
        cfg
    }

    fn ev(t: f64, seq: u32, payload: u32) -> Event<u32> {
        Event {
            recv_time: VirtualTime::new(t),
            dst: LpId(0),
            id: EventId::new(LpId(9), seq),
            payload,
        }
    }

    /// Process `e`; returns `(id, dst, recv_time)` per send, in send order.
    fn process_with<M: Model<Payload = u32>>(
        lp: &mut LpTable<M>,
        e: Event<u32>,
    ) -> Vec<(EventId, LpId, VirtualTime)> {
        let mut out = Vec::new();
        lp.process(0, e, &mut out);
        out.iter().map(|e| (e.id, e.dst, e.recv_time)).collect()
    }

    /// A table holding LP 0 alone.
    fn one<M: Model>(model: M, seed: u64, strategy: RollbackStrategy) -> LpTable<M> {
        LpTable::new(Arc::new(model), &cfg(seed, strategy), LpId(0), 1)
    }

    fn rollback_to<M: Model>(lp: &mut LpTable<M>, key: EventKey) -> Rollback<M::Payload> {
        let mut rb = Rollback::default();
        lp.rollback_to(0, key, &mut rb);
        rb
    }

    fn rollback_cancel<M: Model>(lp: &mut LpTable<M>, key: EventKey) -> Rollback<M::Payload> {
        let mut rb = Rollback::default();
        lp.rollback_cancel(0, key, &mut rb);
        rb
    }

    fn process_one(lp: &mut LpTable<CounterModel>, e: Event<u32>) {
        process_with(lp, e);
    }

    #[test]
    fn process_advances_lvt_and_history() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        assert_eq!(lp.lvt(0), VirtualTime::ZERO);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        assert_eq!(lp.lvt(0), VirtualTime::new(2.0));
        assert_eq!(lp.history_len(0), 2);
        assert_eq!(lp.state(0).0, 12);
        assert_eq!(lp.last_key(0), ev(2.0, 1, 7).key());
    }

    #[test]
    fn rollback_restores_state_rng_and_seq() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        process_one(&mut lp, ev(1.0, 0, 5));
        let rng_after_first = lp.rng(0);
        let state_after_first = lp.state(0).clone();

        process_one(&mut lp, ev(2.0, 1, 7));
        process_one(&mut lp, ev(3.0, 2, 9));

        // Straggler at t=1.5 undoes the t=2 and t=3 events.
        let straggler_key = EventKey { t: VirtualTime::new(1.5), id: EventId::new(LpId(9), 10) };
        let rb = rollback_to(&mut lp, straggler_key);
        assert_eq!(rb.undone, 2);
        assert_eq!(rb.reenqueue.len(), 2);
        assert_eq!(rb.antis.len(), 2, "one optimistic send per undone event");
        assert_eq!(*lp.state(0), state_after_first);
        assert_eq!(lp.rng(0), rng_after_first);
        assert_eq!(lp.lvt(0), VirtualTime::new(1.0));
        assert_eq!(lp.history_len(0), 1);
    }

    #[test]
    fn reexecution_after_rollback_replays_identically() {
        let mut lp = one(CounterModel, 7, RollbackStrategy::Snapshot);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        let final_state = lp.state(0).clone();
        let final_rng = lp.rng(0);

        let rb = rollback_to(
            &mut lp,
            EventKey { t: VirtualTime::new(0.5), id: EventId::new(LpId(9), 99) },
        );
        assert_eq!(rb.undone, 2);
        // Replay both in order.
        let mut events = rb.reenqueue;
        events.sort_by_key(|e| e.key());
        for e in events {
            process_one(&mut lp, e);
        }
        assert_eq!(*lp.state(0), final_state);
        assert_eq!(lp.rng(0), final_rng);
    }

    #[test]
    #[should_panic(expected = "lp0: its 32-bit send sequence number overflowed")]
    fn a_send_past_the_last_sequence_number_panics() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        lp.lps[0].send_seq = u32::MAX;
        process_one(&mut lp, ev(1.0, 0, 5));
    }

    #[test]
    #[should_panic(expected = "lp0: anti-message lp9#1 at t=1.5 matches no pending or processed")]
    fn cancelling_the_same_id_at_another_time_panics() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, ev(2.0, 1, 7));
        // A re-sent copy carries the same (sender, sequence) id but a new
        // receive time: an anti for it must not cancel the processed copy.
        rollback_cancel(&mut lp, ev(1.5, 1, 7).key());
    }

    #[test]
    fn rollback_cancel_discards_the_cancelled_event() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        let target = ev(2.0, 1, 7);
        let target_key = target.key();
        process_one(&mut lp, ev(1.0, 0, 5));
        process_one(&mut lp, target);
        process_one(&mut lp, ev(3.0, 2, 9));

        let rb = rollback_cancel(&mut lp, target_key);
        assert_eq!(rb.undone, 2, "t=2 (cancelled) and t=3");
        assert_eq!(rb.reenqueue.len(), 1, "only t=3 comes back");
        assert_eq!(rb.reenqueue[0].recv_time, VirtualTime::new(3.0));
        assert_eq!(lp.lvt(0), VirtualTime::new(1.0));
    }

    #[test]
    fn fossil_commits_strictly_below_gvt() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        assert_eq!(lp.fossil_collect(0, VirtualTime::new(5.0)), 0, "empty history");
        for (t, seq) in [(1.0, 0), (2.0, 1), (2.0, 2), (3.0, 3)] {
            process_one(&mut lp, ev(t, seq, 1));
        }
        assert_eq!(lp.fossil_collect(0, VirtualTime::new(0.5)), 0, "none below");
        assert_eq!(lp.fossil_collect(0, VirtualTime::new(1.0)), 0, "an entry at gvt stays");
        assert_eq!(lp.fossil_collect(0, VirtualTime::new(2.0)), 1, "both entries at gvt stay");
        assert_eq!(lp.history_len(0), 3);
        assert_eq!(lp.fossil_collect(0, VirtualTime::new(2.0)), 0, "a repeat commits nothing");
        assert_eq!(
            lp.fossil_collect(0, VirtualTime::new(2.5)),
            2,
            "equal-time entries go together"
        );
        assert_eq!(lp.history_len(0), 1);
        assert_eq!(lp.fossil_collect(0, VirtualTime::INFINITY), 1);
        assert_eq!(lp.live_nodes(), (0, 0));
        // LVT is unaffected by fossil collection.
        assert_eq!(lp.lvt(0), VirtualTime::new(3.0));
    }

    #[test]
    fn rollback_below_everything_resets_to_initial() {
        let mut lp = one(CounterModel, 1, RollbackStrategy::Snapshot);
        let init_state = lp.state(0).clone();
        let init_rng = lp.rng(0);
        process_one(&mut lp, ev(1.0, 0, 2));
        let rb = rollback_to(&mut lp, EventKey::MIN);
        assert_eq!(rb.undone, 1);
        assert_eq!(*lp.state(0), init_state);
        assert_eq!(lp.rng(0), init_rng);
        assert_eq!(lp.last_key(0), EventKey::MIN);
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
        let mut lp = one(PairModel, 1, RollbackStrategy::Snapshot);
        let sent: Vec<_> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, t)| process_with(&mut lp, ev(*t, i as u32, 1)))
            .collect();
        // A straggler at t=1.5 undoes the t=2, t=3 and t=4 entries.
        let rb = rollback_to(&mut lp, ev(1.5, 99, 0).key());
        assert_eq!(rb.undone, 3);
        let got: Vec<_> = rb.antis.iter().map(|a| (a.id, a.dst, a.recv_time)).collect();
        let want: Vec<_> = sent[1..].iter().rev().flatten().copied().collect();
        assert_eq!(got, want);
        let seqs: Vec<u32> = rb.antis.iter().map(|a| a.id.seq).collect();
        assert_eq!(seqs, [6, 7, 4, 5, 2, 3]);
        // The survivor's sends stay logged: undoing it antis exactly them.
        let rb = rollback_to(&mut lp, EventKey::MIN);
        let got: Vec<_> = rb.antis.iter().map(|a| (a.id, a.dst, a.recv_time)).collect();
        assert_eq!(got, sent[0]);
    }

    /// Draws `payload % 4` values per event, adds them to the state and
    /// sends one event to itself; reversible by re-deriving the draws.
    struct Draws;

    impl Draws {
        fn sum(payload: u32, rng: &mut Pcg32) -> u64 {
            (0..payload % 4).map(|_| rng.next_u32() as u64).sum()
        }
    }

    impl Model for Draws {
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
            rng: &mut Pcg32,
            emit: &mut Emitter<u32>,
        ) -> u64 {
            *state += Draws::sum(*payload, rng);
            emit.emit(LpId(0), 1.0, 0);
            1
        }

        fn supports_reverse(&self) -> bool {
            true
        }

        fn reverse(&self, _ctx: &EventCtx, state: &mut u64, payload: &u32, rng: &mut Pcg32) {
            *state -= Draws::sum(*payload, rng);
        }
    }

    #[test]
    fn rollback_rebuilds_the_generator_before_the_first_undone_event() {
        for strategy in [RollbackStrategy::Snapshot, RollbackStrategy::Reverse] {
            let mut lp = one(Draws, 11, strategy);
            let events: Vec<_> = (0..12).map(|i| ev(1.0 + i as f64, i, i * 7 + i / 3)).collect();
            let mut before = Vec::new();
            for &e in &events {
                before.push((lp.rng(0), *lp.state(0)));
                process_with(&mut lp, e);
            }
            let after = (lp.rng(0), *lp.state(0));
            for cut in [9, 3, 11, 6, 0] {
                let to = if cut == 0 { EventKey::MIN } else { events[cut - 1].key() };
                let rb = rollback_to(&mut lp, to);
                assert_eq!(rb.undone as usize, events.len() - cut, "{strategy:?} cut {cut}");
                assert_eq!((lp.rng(0), *lp.state(0)), before[cut], "{strategy:?} cut {cut}");
                let mut redo = rb.reenqueue;
                redo.sort_by_key(Event::key);
                for e in redo {
                    process_with(&mut lp, e);
                }
                assert_eq!((lp.rng(0), *lp.state(0)), after, "{strategy:?} redo after {cut}");
            }
        }
    }

    /// Replaces its generator with one on another stream.
    #[cfg(debug_assertions)]
    struct Reseeds;

    #[cfg(debug_assertions)]
    impl Model for Reseeds {
        type State = ();
        type Payload = u32;

        fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) {}

        fn initial_events(&self, _: LpId, _: &mut (), _: &mut Pcg32, _: &mut Emitter<u32>) {}

        fn handle(
            &self,
            _ctx: &EventCtx,
            _state: &mut (),
            _payload: &u32,
            rng: &mut Pcg32,
            _emit: &mut Emitter<u32>,
        ) -> u64 {
            *rng = Pcg32::new(1, 2);
            1
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lp0: the handler changed its generator's stream")]
    fn a_handler_that_changes_the_stream_panics_in_debug_builds() {
        process_with(&mut one(Reseeds, 1, RollbackStrategy::Snapshot), ev(1.0, 0, 0));
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
    fn fingerprint_mix_is_lp_sensitive() {
        assert_ne!(fingerprint_mix(LpId(0), 5), fingerprint_mix(LpId(1), 5));
        assert_ne!(fingerprint_mix(LpId(0), 5), fingerprint_mix(LpId(0), 6));
    }

    #[test]
    fn history_entry_size_does_not_depend_on_the_state() {
        use std::mem::size_of;
        assert_eq!(size_of::<HistoryNode<Bytes<8>>>(), size_of::<HistoryNode<Bytes<256>>>());
    }
}
