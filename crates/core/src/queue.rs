//! The pending event set of one worker.
//!
//! An ordered map from [`EventKey`] to event, with support for
//! annihilation:
//!
//! * anti-message arrives while the positive event is **pending** — the
//!   event with exactly the anti's key is removed from the map on the spot;
//! * anti-message arrives **before** its positive event (cannot happen on
//!   the engine's FIFO channels, but kept as a defensive path) — the
//!   cancellation is remembered as an *early anti* and the event is
//!   annihilated on insertion.
//!
//! Cancellation matches the full [`EventKey`] (receive time *and*
//! identity), not the id alone: after a rollback, a re-executed LP re-sends
//! with the same `(sender, sequence)` id but possibly a different receive
//! time, and an id-only match could annihilate the fresh copy while
//! letting the stale one go live.
//!
//! There are no tombstones: a cancelled event leaves the map at once, so
//! the map holds only live events and a pop never has to skip a dead one.
//! A rolled-back sender may re-send a bit-identical copy of a message it
//! already cancelled; the cancelled copy is gone by then, so the key is
//! free again. Two *live* copies of one key cannot exist (event ids are
//! unique per sender), and inserting one panics.
//!
//! The case where the positive event was already **processed** is handled
//! one level up (rollback in [`crate::lp`]).

use cagvt_base::time::VirtualTime;
use std::collections::{BTreeMap, HashMap};

use crate::event::{Event, EventKey};

/// Result of [`PendingSet::cancel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CancelOutcome {
    /// The positive event was pending; both are now annihilated.
    AnnihilatedPending,
    /// The positive event is not pending (defensive path); it will be
    /// annihilated if it ever arrives.
    Deferred,
}

/// Not-yet-processed events for the LPs of one worker, in key order.
pub struct PendingSet<P> {
    events: BTreeMap<EventKey, Event<P>>,
    /// Cancellations that arrived before their positive event, with
    /// multiplicity: a rolled-back sender can re-send a bit-identical copy
    /// of a message it already cancelled, so one key can be owed more than
    /// one annihilation.
    early_antis: HashMap<EventKey, u32>,
}

impl<P> Default for PendingSet<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PendingSet<P> {
    pub fn new() -> Self {
        PendingSet { events: BTreeMap::new(), early_antis: HashMap::new() }
    }

    /// A set holding exactly `events` and no early antis, built in bulk
    /// (sorted once instead of inserted one by one).
    ///
    /// # Panics
    ///
    /// If two events share a key, as [`Self::insert`] would.
    pub fn from_events(events: Vec<Event<P>>) -> Self {
        let n = events.len();
        let events: BTreeMap<_, _> = events.into_iter().map(|e| (e.key(), e)).collect();
        assert_eq!(events.len(), n, "duplicate pending event");
        PendingSet { events, early_antis: HashMap::new() }
    }

    /// Insert a positive event. Returns `false` if it was annihilated by a
    /// waiting early anti-message (in which case it is *not* inserted).
    ///
    /// # Panics
    ///
    /// If an event with the same key is already pending.
    pub fn insert(&mut self, event: Event<P>) -> bool {
        let key = event.key();
        // Early antis are almost never owed: one length test, and the
        // lookup stays out of line so it does not bloat every insert site.
        if !self.early_antis.is_empty() && self.take_early_anti(key) {
            return false;
        }
        let old = self.events.insert(key, event);
        assert!(old.is_none(), "duplicate pending event {key:?}");
        true
    }

    /// Consume one early anti owed to `key`, if any.
    #[cold]
    #[inline(never)]
    fn take_early_anti(&mut self, key: EventKey) -> bool {
        let Some(n) = self.early_antis.get_mut(&key) else {
            return false;
        };
        *n -= 1;
        if *n == 0 {
            self.early_antis.remove(&key);
        }
        true
    }

    /// Cancel the positive event with exactly this key.
    pub fn cancel(&mut self, key: EventKey) -> CancelOutcome {
        if self.events.remove(&key).is_some() {
            CancelOutcome::AnnihilatedPending
        } else {
            *self.early_antis.entry(key).or_insert(0) += 1;
            CancelOutcome::Deferred
        }
    }

    /// Remove and return the minimum event.
    pub fn pop_min(&mut self) -> Option<Event<P>> {
        self.events.pop_first().map(|(_, e)| e)
    }

    /// Key of the minimum event (the worker's LVT contribution when
    /// present).
    pub fn min_key(&self) -> Option<EventKey> {
        self.events.first_key_value().map(|(k, _)| *k)
    }

    /// Receive time of the minimum event, or +inf when empty.
    pub fn min_time(&self) -> VirtualTime {
        self.min_key().map(|k| k.t).unwrap_or(VirtualTime::INFINITY)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of early (unmatched) anti-messages currently remembered.
    pub fn early_antis(&self) -> usize {
        self.early_antis.len()
    }

    /// Drop early antis that can never match again: no event with receive
    /// time below GVT can be inserted after GVT is published, so entries
    /// below it are permanently stale (the re-sent copy they missed
    /// carries a different key — see `early_anti_matches_exact_key_only`).
    /// Fossil collection calls this each round; without it the map grows
    /// without bound on rollback-heavy runs. Returns the number purged.
    pub fn purge_below(&mut self, gvt: VirtualTime) -> usize {
        let before = self.early_antis.len();
        self.early_antis.retain(|k, _| k.t >= gvt);
        before - self.early_antis.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::ids::{EventId, LpId};

    fn ev(t: f64, src: u32, seq: u64) -> Event<u32> {
        Event {
            recv_time: VirtualTime::new(t),
            dst: LpId(0),
            id: EventId::new(LpId(src), seq),
            payload: (t * 10.0) as u32,
        }
    }

    #[test]
    fn pops_in_key_order() {
        let mut ps = PendingSet::new();
        ps.insert(ev(3.0, 0, 0));
        ps.insert(ev(1.0, 2, 5));
        ps.insert(ev(1.0, 1, 9));
        ps.insert(ev(2.0, 0, 1));
        let order: Vec<f64> =
            std::iter::from_fn(|| ps.pop_min()).map(|e| e.recv_time.as_f64()).collect();
        assert_eq!(order, vec![1.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_break_by_sender_then_seq() {
        let mut ps = PendingSet::new();
        ps.insert(ev(1.0, 2, 0));
        ps.insert(ev(1.0, 1, 7));
        ps.insert(ev(1.0, 1, 3));
        let a = ps.pop_min().unwrap();
        let b = ps.pop_min().unwrap();
        let c = ps.pop_min().unwrap();
        assert_eq!(a.id, EventId::new(LpId(1), 3));
        assert_eq!(b.id, EventId::new(LpId(1), 7));
        assert_eq!(c.id, EventId::new(LpId(2), 0));
    }

    #[test]
    fn cancel_pending_annihilates() {
        let mut ps = PendingSet::new();
        let e = ev(1.0, 0, 0);
        let key = e.key();
        ps.insert(e);
        ps.insert(ev(2.0, 0, 1));
        assert_eq!(ps.cancel(key), CancelOutcome::AnnihilatedPending);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.min_time(), VirtualTime::new(2.0));
        let popped = ps.pop_min().unwrap();
        assert_eq!(popped.id, EventId::new(LpId(0), 1));
        assert!(ps.pop_min().is_none());
    }

    #[test]
    fn early_anti_annihilates_on_insert() {
        let mut ps: PendingSet<u32> = PendingSet::new();
        let e = ev(5.0, 3, 4);
        assert_eq!(ps.cancel(e.key()), CancelOutcome::Deferred);
        assert_eq!(ps.early_antis(), 1);
        assert!(!ps.insert(e), "must annihilate against the waiting anti");
        assert!(ps.is_empty());
        assert_eq!(ps.early_antis(), 0);
    }

    #[test]
    fn stale_tombstone_does_not_kill_resent_copy() {
        // A cancelled (id, t=1.0) copy must not annihilate the re-sent
        // (id, t=2.0) copy that shares the id.
        let mut ps = PendingSet::new();
        let old = ev(1.0, 0, 0);
        let old_key = old.key();
        ps.insert(old);
        assert_eq!(ps.cancel(old_key), CancelOutcome::AnnihilatedPending);
        let fresh = ev(2.0, 0, 0);
        assert!(ps.insert(fresh.clone()), "fresh copy must be accepted");
        let popped = ps.pop_min().unwrap();
        assert_eq!(popped.recv_time, fresh.recv_time, "fresh copy must survive");
        assert!(ps.pop_min().is_none());
    }

    #[test]
    fn early_anti_matches_exact_key_only() {
        let mut ps: PendingSet<u32> = PendingSet::new();
        let old = ev(1.0, 0, 0);
        ps.cancel(old.key()); // deferred anti for (id, t=1.0)
        let fresh = ev(2.0, 0, 0); // same id, different time
        assert!(ps.insert(fresh), "anti for the old copy must not hit the new one");
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.early_antis(), 1, "stale deferred anti remains remembered");
    }

    #[test]
    fn purge_below_drops_stale_tombstones_only() {
        let mut ps: PendingSet<u32> = PendingSet::new();
        // Stale deferred anti at t=1.0 (its positive was re-sent at t=2.0).
        ps.cancel(ev(1.0, 0, 0).key());
        assert!(ps.insert(ev(2.0, 0, 0)));
        // Fresh deferred anti above the purge horizon must survive.
        ps.cancel(ev(9.0, 0, 5).key());
        assert_eq!(ps.early_antis(), 2);
        assert_eq!(ps.purge_below(VirtualTime::new(3.0)), 1);
        assert_eq!(ps.early_antis(), 1, "the t=9 anti must remain");
        // The surviving anti still annihilates its positive on arrival.
        assert!(!ps.insert(ev(9.0, 0, 5)));
        assert_eq!(ps.early_antis(), 0);
        // The live t=2 event was untouched.
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.min_time(), VirtualTime::new(2.0));
    }

    #[test]
    fn tombstone_maps_stay_bounded_on_rollback_heavy_runs() {
        // Regression for the leak documented by
        // `early_anti_matches_exact_key_only`: every round leaves behind
        // one permanently-unmatchable deferred anti (the positive is
        // re-sent with a later receive time). With the fossil-pass purge
        // the early-anti map stays O(1); without it it grows with the
        // round count.
        let mut ps: PendingSet<u32> = PendingSet::new();
        for round in 0..5_000u64 {
            let t = round as f64 + 1.0;
            // Anti arrives before its positive; the rolled-back sender
            // then re-sends the same id at a different time, so the
            // deferred anti never matches.
            ps.cancel(ev(t, 0, round).key());
            ps.insert(ev(t + 0.25, 0, round));
            // Cancel the re-sent copy while pending.
            ps.cancel(ev(t + 0.25, 0, round).key());
            // One live event per round is actually processed.
            ps.insert(ev(t + 0.5, 1, round));
            assert_eq!(ps.pop_min().expect("live event").recv_time, VirtualTime::new(t + 0.5));
            // Fossil pass at the new GVT.
            ps.purge_below(VirtualTime::new(t + 0.75));
            assert!(ps.early_antis() <= 1, "early_antis leaked: {}", ps.early_antis());
        }
        assert!(ps.is_empty());
    }

    #[test]
    fn min_time_skips_cancelled_head() {
        let mut ps = PendingSet::new();
        let head = ev(1.0, 0, 0);
        let key = head.key();
        ps.insert(head);
        ps.insert(ev(4.0, 0, 1));
        ps.cancel(key);
        assert_eq!(ps.min_time(), VirtualTime::new(4.0));
    }

    #[test]
    fn empty_set_reports_infinity() {
        let mut ps: PendingSet<u32> = PendingSet::new();
        assert_eq!(ps.min_time(), VirtualTime::INFINITY);
        assert!(ps.min_key().is_none());
        assert!(ps.pop_min().is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate pending event")]
    fn inserting_a_pending_key_again_panics() {
        let mut ps = PendingSet::new();
        ps.insert(ev(1.0, 0, 0));
        ps.insert(ev(1.0, 0, 0));
    }

    #[test]
    fn reinsert_after_rollback_is_allowed() {
        // Rollback re-enqueues previously processed events: same id enters
        // the set again after having been popped.
        let mut ps = PendingSet::new();
        let e = ev(1.0, 0, 0);
        ps.insert(e);
        let popped = ps.pop_min().unwrap();
        assert!(ps.insert(popped));
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn bulk_build_pops_in_key_order() {
        let mut ps = PendingSet::from_events(vec![ev(3.0, 0, 0), ev(1.0, 2, 5), ev(1.0, 1, 9)]);
        let order: Vec<_> = std::iter::from_fn(|| ps.pop_min()).map(|e| e.id).collect();
        assert_eq!(
            order,
            [EventId::new(LpId(1), 9), EventId::new(LpId(2), 5), EventId::new(LpId(0), 0)]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate pending event")]
    fn bulk_build_with_a_duplicate_key_panics() {
        PendingSet::from_events(vec![ev(1.0, 0, 0), ev(1.0, 0, 0)]);
    }
}
