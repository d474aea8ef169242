//! Property tests for the pending set against a naive reference model,
//! including the cancelled-then-resent-identical-copy corner that bit the
//! engine during development.

use cagvt_base::ids::{EventId, LpId};
use cagvt_base::time::VirtualTime;
use cagvt_core::event::{Event, EventKey};
use cagvt_core::queue::PendingSet;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The set's LPs: `FIRST_LP .. FIRST_LP + LPS`.
const FIRST_LP: u32 = 40;
const LPS: u8 = 5;

#[derive(Clone, Debug)]
enum Op {
    /// Insert event (dst offset, src, seq, time-in-tenths).
    Insert(u8, u8, u8, u16),
    /// Cancel (src, seq) at a destination offset: the live copy's key if
    /// the id is live, else the given time (a key pending nowhere, which
    /// must change nothing).
    Cancel(u8, u8, u8, u16),
    /// Cancel the live copy of (src, seq), if any, at its own destination.
    CancelLive(u8, u8),
    /// Pop the minimum.
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Few distinct times, so equal receive times on different LPs are
    // common.
    prop_oneof![
        (0..LPS, 0u8..4, 0u8..16, 1u16..40).prop_map(|(d, a, b, t)| Op::Insert(d, a, b, t)),
        (0..LPS, 0u8..4, 0u8..16, 1u16..40).prop_map(|(d, a, b, t)| Op::Insert(d, a, b, t)),
        (0..LPS, 0u8..4, 0u8..16, 1u16..40).prop_map(|(d, a, b, t)| Op::Cancel(d, a, b, t)),
        (0u8..4, 0u8..16).prop_map(|(a, b)| Op::CancelLive(a, b)),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

fn time(tenths: u16) -> VirtualTime {
    VirtualTime::new(tenths as f64 / 10.0)
}

fn ev(dst: u8, src: u8, seq: u8, tenths: u16) -> Event<u16> {
    Event {
        recv_time: time(tenths),
        dst: LpId(FIRST_LP + dst as u32),
        id: EventId::new(LpId(src as u32), seq as u32),
        payload: tenths,
    }
}

fn key(src: u8, seq: u8, tenths: u16) -> EventKey {
    EventKey { t: time(tenths), id: EventId::new(LpId(src as u32), seq as u32) }
}

/// The engine's contract, kept naively: live events in one key-ordered
/// map.
#[derive(Default)]
struct Reference {
    live: BTreeMap<EventKey, (u8, u16)>,
    /// The live copy of each id: (time, destination offset).
    live_copy: BTreeMap<(u8, u8), (u16, u8)>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The pending set behaves exactly like a sorted map of live events,
    /// under arbitrary interleavings of insert, cancel and pop over several
    /// LPs — with the engine's constraint that at most one copy per id is
    /// live at a time. A cancel unlinks exactly the key pending at its
    /// destination, and a cancel of a key not pending there changes nothing.
    #[test]
    fn pending_set_matches_reference(ops in prop::collection::vec(arb_op(), 1..300)) {
        let mut ps: PendingSet<u16> = PendingSet::new(LpId(FIRST_LP), LPS as usize);
        let mut r = Reference::default();

        for op in ops {
            match op {
                Op::Insert(dst, src, seq, t) => {
                    if r.live_copy.contains_key(&(src, seq)) {
                        // Engine never has two live copies of one id.
                        continue;
                    }
                    ps.insert(ev(dst, src, seq, t));
                    r.live.insert(key(src, seq, t), (dst, t));
                    r.live_copy.insert((src, seq), (t, dst));
                }
                Op::Cancel(dst, src, seq, t) => {
                    let (t, live_dst) = match r.live_copy.get(&(src, seq)) {
                        Some(&(t, d)) => (t, Some(d)),
                        None => (t, None),
                    };
                    let k = key(src, seq, t);
                    let lp = LpId(FIRST_LP + dst as u32);
                    // Not pending at `dst` (maybe at another LP): nothing
                    // to unlink.
                    prop_assert_eq!(ps.cancel(lp, k), live_dst == Some(dst));
                    if live_dst == Some(dst) {
                        r.live.remove(&k);
                        r.live_copy.remove(&(src, seq));
                    }
                }
                Op::CancelLive(src, seq) => {
                    if let Some((t, dst)) = r.live_copy.remove(&(src, seq)) {
                        let k = key(src, seq, t);
                        let lp = LpId(FIRST_LP + dst as u32);
                        prop_assert!(ps.cancel(lp, k));
                        r.live.remove(&k);
                    }
                }
                Op::Pop => {
                    let got = ps.pop_min();
                    let want = r.live.pop_first();
                    match (got, want) {
                        (None, None) => {}
                        (Some(e), Some((k, (dst, payload)))) => {
                            prop_assert_eq!(e.key(), k);
                            prop_assert_eq!(e.dst, LpId(FIRST_LP + dst as u32));
                            prop_assert_eq!(e.payload, payload);
                            r.live_copy.remove(&(k.id.src.0 as u8, k.id.seq as u8));
                        }
                        (got, want) => prop_assert!(false, "mismatch: {got:?} vs {want:?}"),
                    }
                }
            }
            prop_assert_eq!(ps.len(), r.live.len());
            prop_assert_eq!(ps.is_empty(), r.live.is_empty());
            prop_assert_eq!(ps.min_key(), r.live.keys().next().copied());
            prop_assert_eq!(
                ps.min_time(),
                r.live.keys().next().map_or(VirtualTime::INFINITY, |k| k.t)
            );
        }
    }

    /// A bulk build over several LPs pops exactly the sorted input.
    #[test]
    fn bulk_build_matches_sorted_input(
        events in prop::collection::vec((0..LPS, 0u8..4, 0u8..16, 1u16..40), 0..120)
    ) {
        // One event per id, as a preload has.
        let mut by_id = BTreeMap::new();
        for (dst, src, seq, t) in events {
            by_id.insert((src, seq), ev(dst, src, seq, t));
        }
        let mut want: Vec<_> = by_id.values().map(|e| (e.key(), e.dst)).collect();
        want.sort();
        let mut ps =
            PendingSet::from_events(LpId(FIRST_LP), LPS as usize, by_id.into_values().collect());
        prop_assert_eq!(ps.len(), want.len());
        let got: Vec<_> = std::iter::from_fn(|| ps.pop_min()).map(|e| (e.key(), e.dst)).collect();
        prop_assert_eq!(got, want);
    }

    /// Cancel-then-resend with an identical key (time and id) any number
    /// of times: exactly the last surviving copy pops.
    #[test]
    fn identical_copy_cancellation_chain(n in 1u8..8) {
        let mut ps: PendingSet<u16> = PendingSet::new(LpId(FIRST_LP), LPS as usize);
        let e = ev(2, 1, 1, 500);
        for _ in 0..n {
            ps.insert(e);
            prop_assert!(ps.cancel(e.dst, e.key()));
            prop_assert!(!ps.cancel(e.dst, e.key()), "the cancelled copy is gone");
        }
        ps.insert(e);
        let popped = ps.pop_min().expect("final copy must be live");
        prop_assert_eq!(popped.id, e.id);
        prop_assert!(ps.pop_min().is_none(), "no zombie copies");
    }
}
