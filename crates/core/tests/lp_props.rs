//! Property tests for LP rollback: arbitrary interleavings of processing
//! and rollbacks always restore exact state, replay converges to the
//! in-order execution, and LPs sharing one table behave as if each had a
//! table of its own.

use cagvt_base::ids::{EventId, LpId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::VirtualTime;
use cagvt_core::event::{Event, EventKey};
use cagvt_core::lp::{LpTable, Rollback, RollbackStrategy};
use cagvt_core::model::{Emitter, EventCtx, Model};
use cagvt_core::SimConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// Model whose state is an order-sensitive hash of everything processed,
/// consuming randomness each event (so restored RNG state is observable).
#[derive(Clone)]
struct HashModel;

impl Model for HashModel {
    type State = u64;
    type Payload = u32;

    fn init_state(&self, lp: LpId, _rng: &mut Pcg32) -> u64 {
        lp.0 as u64
    }
    fn initial_events(&self, _lp: LpId, _s: &mut u64, _r: &mut Pcg32, _e: &mut Emitter<u32>) {}
    fn handle(
        &self,
        ctx: &EventCtx,
        state: &mut u64,
        payload: &u32,
        rng: &mut Pcg32,
        emit: &mut Emitter<u32>,
    ) -> u64 {
        *state = state
            .wrapping_mul(0x100000001B3)
            .wrapping_add(*payload as u64)
            .wrapping_add(rng.next_u32() as u64)
            .wrapping_add(ctx.now.as_f64().to_bits());
        emit.emit(ctx.self_lp, 0.1 + rng.next_f64(), payload + 1);
        1
    }
    fn state_fingerprint(&self, state: &u64) -> u64 {
        *state
    }

    fn supports_reverse(&self) -> bool {
        true
    }

    fn reverse(&self, ctx: &EventCtx, state: &mut u64, payload: &u32, rng: &mut Pcg32) {
        // Inverse of the forward fold; the scratch generator re-derives
        // the forward pass's draw.
        const FNV_INV: u64 = 0xCE96_5057_AFF6_957B;
        let draw = rng.next_u32() as u64;
        *state = state
            .wrapping_sub(ctx.now.as_f64().to_bits())
            .wrapping_sub(draw)
            .wrapping_sub(*payload as u64)
            .wrapping_mul(FNV_INV);
    }
}

fn strategies() -> [RollbackStrategy; 2] {
    [RollbackStrategy::Snapshot, RollbackStrategy::Reverse]
}

/// A run of `lps` LPs with end time 1e9 under `strategy`.
fn cfg(lps: u32, seed: u64, strategy: RollbackStrategy) -> SimConfig {
    let mut cfg = SimConfig::small(1, 1);
    (cfg.lps_per_worker, cfg.end_time, cfg.seed) = (lps, 1e9, seed);
    cfg.rollback = Some(strategy);
    cfg
}

/// A table holding LP 0 of a one-LP run alone.
fn one<M: Model>(model: M, seed: u64, strategy: RollbackStrategy) -> LpTable<M> {
    LpTable::new(Arc::new(model), &cfg(1, seed, strategy), LpId(0), 1)
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

fn make_events(times: &[u16]) -> Vec<Event<u32>> {
    let mut sorted: Vec<u16> = times.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
        .iter()
        .enumerate()
        .map(|(i, &t)| Event {
            recv_time: VirtualTime::new(t as f64 + 1.0),
            dst: LpId(0),
            id: EventId::new(LpId(9), i as u32),
            payload: t as u32,
        })
        .collect()
}

fn process(lp: &mut LpTable<HashModel>, e: Event<u32>) {
    lp.process(0, e, &mut Vec::new());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Process a prefix, roll back to an arbitrary point, replay: the
    /// final state equals processing everything in order once.
    #[test]
    fn rollback_replay_converges(
        times in prop::collection::vec(0u16..500, 2..40),
        cut in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let events = make_events(&times);

        // Ground truth: straight-through processing.
        let mut truth = one(HashModel, seed, RollbackStrategy::Snapshot);
        for e in &events {
            process(&mut truth, *e);
        }

        for strategy in strategies() {
            // Optimistic: process everything, then roll back to a random
            // cut and replay the tail — under every rollback strategy.
            let mut lp = one(HashModel, seed, strategy);
            for e in &events {
                process(&mut lp, *e);
            }
            let cut_idx = (cut as usize) % events.len();
            let cut_key = EventKey {
                t: events[cut_idx].recv_time,
                id: EventId::new(LpId(0), 0), // below any real id at that time
            };
            let rb = rollback_to(&mut lp, cut_key);
            // Everything from cut_idx (inclusive, because its key is above
            // the synthetic cut key) must have been undone.
            prop_assert_eq!(rb.undone as usize, events.len() - cut_idx, "{:?}", strategy);
            prop_assert_eq!(rb.antis.len(), rb.undone as usize, "one send each");

            let mut replay = rb.reenqueue;
            replay.sort_by_key(|e| e.key());
            for e in replay {
                process(&mut lp, e);
            }
            prop_assert_eq!(lp.state(0), truth.state(0), "state must converge ({:?})", strategy);
            prop_assert_eq!(lp.rng(0), truth.rng(0), "rng must converge ({:?})", strategy);
            prop_assert_eq!(lp.lvt(0), truth.lvt(0));
        }
    }

    /// Fossil collection frees exactly the events strictly below GVT and
    /// never affects the LP's forward state.
    #[test]
    fn fossil_frees_prefix_only(
        times in prop::collection::vec(0u16..500, 1..40),
        gvt_tenths in 0u32..6000,
        seed in any::<u64>(),
    ) {
        let events = make_events(&times);
        let mut lp = one(HashModel, seed, RollbackStrategy::Snapshot);
        for e in &events {
            process(&mut lp, *e);
        }
        let state_before = *lp.state(0);
        let gvt = VirtualTime::new(gvt_tenths as f64 / 10.0);
        let committed = lp.fossil_collect(0, gvt);
        let expected = events.iter().filter(|e| e.recv_time < gvt).count() as u64;
        prop_assert_eq!(committed, expected);
        prop_assert_eq!(*lp.state(0), state_before);
        prop_assert_eq!(lp.history_len(0) as u64, events.len() as u64 - expected);
    }
}

/// Model with a reversible state fold that sends zero, one or two messages
/// per event (and at time zero), the count drawn from the generator, so
/// history entries own send-log slices of different lengths (empty ones
/// included).
struct FanModel;

impl Model for FanModel {
    type State = u64;
    type Payload = u32;

    fn init_state(&self, lp: LpId, _rng: &mut Pcg32) -> u64 {
        lp.0 as u64
    }
    fn initial_events(&self, lp: LpId, _s: &mut u64, rng: &mut Pcg32, emit: &mut Emitter<u32>) {
        for i in 0..rng.next_u32() % 3 {
            emit.emit(LpId(i + 1), 0.5 * (i + 1) as f64, lp.0);
        }
    }
    fn handle(
        &self,
        _ctx: &EventCtx,
        state: &mut u64,
        payload: &u32,
        rng: &mut Pcg32,
        emit: &mut Emitter<u32>,
    ) -> u64 {
        let draw = rng.next_u32();
        *state = state.wrapping_add((*payload ^ draw) as u64);
        for i in 0..draw % 3 {
            emit.emit(LpId(i + 1), 0.5 * (i + 1) as f64, *payload);
        }
        1
    }
    fn state_fingerprint(&self, state: &u64) -> u64 {
        *state
    }
    fn supports_reverse(&self) -> bool {
        true
    }
    fn reverse(&self, _ctx: &EventCtx, state: &mut u64, payload: &u32, rng: &mut Pcg32) {
        let draw = rng.next_u32();
        *state = state.wrapping_sub((*payload ^ draw) as u64);
    }
}

/// One send as the test sees it: the id the table stamped, the destination
/// and the receive time.
type Send = (EventId, LpId, VirtualTime);

/// Process `e` at LP `lp` of `table`; returns its sends in send order.
fn process_fan(table: &mut LpTable<FanModel>, lp: usize, e: Event<u32>) -> Vec<Send> {
    let mut sent = Vec::new();
    table.process(lp, e, &mut sent);
    sent.iter().map(|e| (e.id, e.dst, e.recv_time)).collect()
}

/// Key just below every event at time `t` (test events come from `LpId(9)`).
fn below_key(t: VirtualTime) -> EventKey {
    EventKey { t, id: EventId::new(LpId(0), 0) }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random interleavings of processing, straggler and cancel rollbacks
    /// and fossil collection keep the send chains in step with the history,
    /// under every strategy: `LpTable` checks its chain invariants after
    /// every operation (debug builds), and the test checks what the chains
    /// yield against a shadow copy — each rollback's antis are the undone
    /// entries' sends, newest entry first and in send order within one;
    /// re-execution continues the id sequence where the undone entries
    /// started; and a final rollback of everything returns exactly the
    /// uncommitted sends.
    #[test]
    fn send_log_tracks_history(
        ops in prop::collection::vec((0u8..5, any::<u16>()), 1..80),
        seed in any::<u64>(),
    ) {
        for strategy in strategies() {
            let mut lp = one(FanModel, seed, strategy);
            // Uncommitted history as the test saw it: key and sends.
            let mut shadow: Vec<(EventKey, Vec<Send>)> = Vec::new();
            // Undone events waiting to be re-executed.
            let mut pending: Vec<Event<u32>> = Vec::new();
            let mut next_seq = 0u32;
            let mut next_id = 0u32;
            let mut gvt = VirtualTime::ZERO;
            for &(kind, arg) in &ops {
                match kind {
                    0 | 1 => {
                        pending.sort_by_key(|e| std::cmp::Reverse(e.key()));
                        let e = pending.pop().unwrap_or_else(|| {
                            next_id += 1;
                            Event {
                                recv_time: lp.lvt(0) + 0.25 * (1 + arg % 8) as f64,
                                dst: LpId(0),
                                id: EventId::new(LpId(9), next_id),
                                payload: arg as u32,
                            }
                        });
                        let key = e.key();
                        let sends = process_fan(&mut lp, 0, e);
                        for s in &sends {
                            prop_assert_eq!(s.0, EventId::new(LpId(0), next_seq), "{:?}", strategy);
                            next_seq += 1;
                        }
                        shadow.push((key, sends));
                    }
                    2 | 3 => {
                        // Roll back to an entry at or above GVT, as the
                        // worker may: a straggler just below it, or an anti
                        // cancelling it.
                        let live: Vec<usize> =
                            (0..shadow.len()).filter(|&i| shadow[i].0.t >= gvt).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let i = live[arg as usize % live.len()];
                        let target = shadow[i].0;
                        let rb = if kind == 2 {
                            rollback_to(&mut lp, below_key(target.t))
                        } else {
                            rollback_cancel(&mut lp, target)
                        };
                        let undo = shadow.split_off(i);
                        prop_assert_eq!(rb.undone as usize, undo.len());
                        let got: Vec<Send> =
                            rb.antis.iter().map(|a| (a.id, a.dst, a.recv_time)).collect();
                        let want: Vec<Send> =
                            undo.iter().rev().flat_map(|(_, s)| s.iter().copied()).collect();
                        prop_assert_eq!(got, want, "{:?}", strategy);
                        if let Some(first) = undo.iter().flat_map(|(_, s)| s.first()).next() {
                            next_seq = first.0.seq;
                        }
                        pending.extend(rb.reenqueue);
                    }
                    _ => {
                        // Advance GVT to an uncommitted entry's time, never
                        // past an event still waiting to be re-executed.
                        let Some((key, _)) = shadow.get(arg as usize % shadow.len().max(1))
                        else {
                            continue;
                        };
                        let floor = pending.iter().map(|e| e.recv_time).fold(key.t, |a, b| {
                            if b < a { b } else { a }
                        });
                        if floor > gvt {
                            gvt = floor;
                        }
                        let n = lp.fossil_collect(0, gvt) as usize;
                        shadow.drain(..n);
                    }
                }
                prop_assert_eq!(lp.history_len(0), shadow.len(), "{:?}", strategy);
            }
            let rb = rollback_to(&mut lp, EventKey::MIN);
            let got: Vec<Send> = rb.antis.iter().map(|a| (a.id, a.dst, a.recv_time)).collect();
            let want: Vec<Send> =
                shadow.iter().rev().flat_map(|(_, s)| s.iter().copied()).collect();
            prop_assert_eq!(got, want, "{:?}", strategy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Several LPs share one table, so their history and send chains
    /// interleave in its two slabs. Seeding the shared table yields the
    /// events the one-LP tables seed together. Random interleavings of
    /// processing, straggler and cancel rollbacks and fossil collection,
    /// each on a random LP, leave every LP exactly where a one-LP table
    /// given the same operations stands: state, generator, last key,
    /// history length, and each rollback's undone events and antis, in
    /// order; and the shared table's fingerprint is the XOR of the one-LP
    /// tables'. The table's live history nodes, which the engine's optimism
    /// throttle reads as the worker's uncommitted count, always equal the
    /// LPs' history lengths summed. Once all history commits, neither slab
    /// holds a live node, so a leaked chain fails.
    #[test]
    fn shared_table_matches_one_table_per_lp(
        ops in prop::collection::vec((0u8..5, any::<u8>(), any::<u16>()), 1..120),
        seed in any::<u64>(),
    ) {
        const LPS: usize = 3;
        const FIRST: u32 = 4;
        for strategy in strategies() {
            let (model, cfg) = (Arc::new(FanModel), cfg(FIRST + LPS as u32, seed, strategy));
            let mut shared = LpTable::new(Arc::clone(&model), &cfg, LpId(FIRST), LPS as u32);
            let mut alone: Vec<LpTable<FanModel>> = (0..LPS as u32)
                .map(|k| LpTable::new(Arc::clone(&model), &cfg, LpId(FIRST + k), 1))
                .collect();
            // Seeding numbers each LP's time-zero sends as its own table
            // would, in LP order.
            let (mut seeded, mut seeded_alone) = (Vec::new(), Vec::new());
            shared.seed(&mut seeded);
            alone.iter_mut().for_each(|lp| lp.seed(&mut seeded_alone));
            let sends = |sent: &[Event<u32>]| -> Vec<(EventId, LpId, VirtualTime, u32)> {
                sent.iter().map(|e| (e.id, e.dst, e.recv_time, e.payload)).collect()
            };
            prop_assert_eq!(sends(&seeded), sends(&seeded_alone), "{:?}", strategy);
            // Per LP: the uncommitted history's keys, and the undone events
            // waiting to be re-executed.
            let mut shadow: Vec<Vec<EventKey>> = vec![Vec::new(); LPS];
            let mut pending: Vec<Vec<Event<u32>>> = vec![Vec::new(); LPS];
            let (mut rb, mut rb_alone) = (Rollback::default(), Rollback::default());
            let mut next_id = 0u32;
            let mut gvt = VirtualTime::ZERO;
            for &(kind, pick, arg) in &ops {
                let k = pick as usize % LPS;
                match kind {
                    0 | 1 => {
                        pending[k].sort_by_key(|e| std::cmp::Reverse(e.key()));
                        let e = pending[k].pop().unwrap_or_else(|| {
                            next_id += 1;
                            Event {
                                recv_time: shared.lvt(k) + 0.25 * (1 + arg % 8) as f64,
                                dst: shared.id(k),
                                id: EventId::new(LpId(99), next_id),
                                payload: arg as u32,
                            }
                        });
                        shadow[k].push(e.key());
                        let got = process_fan(&mut shared, k, e);
                        prop_assert_eq!(got, process_fan(&mut alone[k], 0, e), "{:?}", strategy);
                    }
                    2 | 3 => {
                        let live: Vec<usize> =
                            (0..shadow[k].len()).filter(|&i| shadow[k][i].t >= gvt).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let i = live[arg as usize % live.len()];
                        let target = shadow[k][i];
                        if kind == 2 {
                            let key = below_key(target.t);
                            shared.rollback_to(k, key, &mut rb);
                            alone[k].rollback_to(0, key, &mut rb_alone);
                        } else {
                            shared.rollback_cancel(k, target, &mut rb);
                            alone[k].rollback_cancel(0, target, &mut rb_alone);
                        }
                        let undone = shadow[k].split_off(i);
                        prop_assert_eq!(rb.undone as usize, undone.len());
                        prop_assert_eq!(rb.undone, rb_alone.undone);
                        prop_assert_eq!(&rb.antis, &rb_alone.antis, "{:?}", strategy);
                        let keys = |r: &Rollback<u32>| -> Vec<EventKey> {
                            r.reenqueue.iter().map(Event::key).collect()
                        };
                        prop_assert_eq!(keys(&rb), keys(&rb_alone));
                        pending[k].append(&mut rb.reenqueue);
                    }
                    _ => {
                        // Advance GVT to an uncommitted entry's time, never
                        // past an event still waiting to be re-executed.
                        let keys: Vec<EventKey> = shadow.iter().flatten().copied().collect();
                        let Some(key) = keys.get(arg as usize % keys.len().max(1)) else {
                            continue;
                        };
                        let floor = pending.iter().flatten().map(|e| e.recv_time).fold(key.t, |a, b| {
                            if b < a { b } else { a }
                        });
                        if floor > gvt {
                            gvt = floor;
                        }
                        let got = shared.fossil_collect(k, gvt);
                        prop_assert_eq!(got, alone[k].fossil_collect(0, gvt), "{:?}", strategy);
                        shadow[k].drain(..got as usize);
                    }
                }
                for (k, lp) in alone.iter().enumerate() {
                    prop_assert_eq!(shared.state(k), lp.state(0), "{:?}", strategy);
                    prop_assert_eq!(shared.rng(k), lp.rng(0));
                    prop_assert_eq!(shared.last_key(k), lp.last_key(0));
                    prop_assert_eq!(shared.history_len(k), lp.history_len(0));
                    prop_assert_eq!(shared.history_len(k), shadow[k].len());
                }
                let total: usize = (0..LPS).map(|k| shared.history_len(k)).sum();
                prop_assert_eq!(shared.live_nodes().0, total, "{:?}", strategy);
                let xor = alone.iter().fold(0, |fp, lp| fp ^ lp.fingerprint());
                prop_assert_eq!(shared.fingerprint(), xor, "{:?}", strategy);
            }
            for (k, lp) in alone.iter_mut().enumerate() {
                let n = shared.fossil_collect(k, VirtualTime::INFINITY);
                prop_assert_eq!(n, lp.fossil_collect(0, VirtualTime::INFINITY));
            }
            prop_assert_eq!(shared.live_nodes(), (0, 0), "{:?}: a chain leaked", strategy);
        }
    }
}
