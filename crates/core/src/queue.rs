//! The pending event set of one worker.
//!
//! One sorted chain of pending events per LP, under an indexed min-heap of
//! the LPs' earliest keys:
//!
//! * the chains are singly linked lists, ascending in [`EventKey`], whose
//!   nodes live in one slab per set (freed slots are reused, so a run in
//!   steady state allocates nothing; see `slab.rs`). A node is the bare
//!   event and its link, 32 bytes for PHOLD: a free slot keeps its stale
//!   event, and the slab's live count, which [`PendingSet::len`] reads and
//!   debug builds check against the chains, catches a lost slot;
//! * the heap holds one `(head time, LP)` entry per LP with a non-empty
//!   chain, ordered by the head's full key (the time decides unless two
//!   heads share it), and a position array per LP says where that entry
//!   sits, so a changed head is re-sifted in place.
//!
//! Costs, with `c` the events pending at the destination LP and `h` the LPs
//! with pending events:
//!
//! * [`PendingSet::min_key`] / [`PendingSet::min_time`]: O(1), the heap
//!   root;
//! * [`PendingSet::pop_min`]: O(log h), unlink the root LP's chain head and
//!   re-sift its entry;
//! * [`PendingSet::insert`] and [`PendingSet::cancel`]: O(c) for the chain
//!   walk, plus O(log h) when the LP's head changes;
//! * [`PendingSet::from_events`]: one sort, then linear.
//!
//! The chain walk makes an insert linear in the events pending at one LP.
//! That suits PHOLD-like models, whose chains hold one or two events. It
//! does not suit a model that piles events onto one LP: 1 000 random-time
//! events pending at a single LP cost about eight times what an ordered map
//! did per insert and pop, while the same events over 128 LPs cost about
//! the same (the `pending_set` micro-benchmarks).
//!
//! Annihilation: an anti-message carries its destination and the full
//! [`EventKey`] (receive time *and* identity) of the event it cancels, and
//! [`PendingSet::cancel`] unlinks exactly that key from that LP's chain. An
//! id-only match would be wrong: after a rollback, a re-executed LP re-sends
//! with the same `(sender, sequence)` id but possibly a different receive
//! time, and could annihilate the fresh copy while the stale one went live.
//! The engine's channels are FIFO, so an anti never arrives before its
//! positive event: if the key is not pending it was processed, and the
//! worker rolls the LP back instead (see [`crate::lp`]).
//!
//! There are no tombstones: a cancelled event leaves its chain at once, so
//! the set holds only live events and a pop never has to skip a dead one.
//! A rolled-back sender may re-send a bit-identical copy of a message it
//! already cancelled; the cancelled copy is gone by then, so the key is
//! free again. Two *live* copies of one key cannot exist (event ids are
//! unique per sender), and the set panics on one: inserting a key already
//! on the destination's chain panics at once, and a key pending at two LPs
//! panics when the first copy pops, because the second is then the new
//! minimum.

use cagvt_base::ids::LpId;
use cagvt_base::time::VirtualTime;

use crate::event::{Event, EventKey};
use crate::slab::{Link, Slab, NIL};

/// A chain node (`event` is stale while the slot is free).
struct Node<P> {
    event: Event<P>,
    next: u32,
}

impl<P> Link for Node<P> {
    fn link(&mut self) -> &mut u32 {
        &mut self.next
    }
}

/// Not-yet-processed events for a contiguous range of LPs, in key order.
/// `NIL` marks the end of a chain, an empty LP, or an LP absent from the
/// heap.
pub struct PendingSet<P> {
    first_lp: u32,
    nodes: Slab<Node<P>>,
    /// Per LP (offset from `first_lp`): slot of its earliest event, or `NIL`.
    heads: Vec<u32>,
    /// Per LP: index of its entry in `heap`, or `NIL` while it has none.
    pos: Vec<u32>,
    /// Min-heap of `(head time, LP offset)` in head-key order, one entry
    /// per non-empty chain. The time alone orders all but equal-time heads,
    /// and keeps an entry at 16 bytes.
    heap: Vec<(VirtualTime, u32)>,
}

impl<P: Copy> PendingSet<P> {
    /// An empty set for the LPs `first_lp .. first_lp + n_lps`.
    pub fn new(first_lp: LpId, n_lps: usize) -> Self {
        Self::with_capacity(first_lp, n_lps, 0)
    }

    fn with_capacity(first_lp: LpId, n_lps: usize, capacity: usize) -> Self {
        assert!(n_lps < NIL as usize, "too many LPs for one pending set");
        PendingSet {
            first_lp: first_lp.0,
            nodes: Slab::with_capacity(capacity),
            heads: vec![NIL; n_lps],
            pos: vec![NIL; n_lps],
            heap: Vec::with_capacity(n_lps.min(capacity)),
        }
    }

    /// A set for the LPs `first_lp .. first_lp + n_lps` holding exactly
    /// `events`, built in bulk (sorted once instead of inserted one by one)
    /// with its slab sized to the preload.
    ///
    /// # Panics
    ///
    /// If two events share a key, as [`Self::insert`] would, or an event's
    /// destination lies outside the range.
    pub fn from_events(first_lp: LpId, n_lps: usize, mut events: Vec<Event<P>>) -> Self {
        events.sort_unstable_by_key(Event::key);
        let mut set = Self::with_capacity(first_lp, n_lps, events.len());
        let mut tails = vec![NIL; n_lps];
        let mut last = None;
        for event in events {
            let key = event.key();
            assert!(last != Some(key), "duplicate pending event {key:?}");
            last = Some(key);
            let lp = set.lp_index(event.dst);
            let node = set.nodes.alloc(Node { event, next: NIL });
            match tails[lp] {
                // Chains first appear in ascending key order, so appending
                // their entries keeps the heap array sorted, hence a heap.
                NIL => {
                    set.heads[lp] = node;
                    set.pos[lp] = set.heap.len() as u32;
                    set.heap.push((key.t, lp as u32));
                }
                tail => set.nodes[tail].next = node,
            }
            tails[lp] = node;
        }
        set.debug_check();
        set
    }

    #[inline]
    fn lp_index(&self, lp: LpId) -> usize {
        let idx = lp.0.wrapping_sub(self.first_lp) as usize;
        assert!(idx < self.heads.len(), "event for {lp} outside this pending set");
        idx
    }

    #[inline]
    fn key(&self, node: u32) -> EventKey {
        self.nodes[node].event.key()
    }

    /// Insert a positive event.
    ///
    /// # Panics
    ///
    /// If an event with the same key is already pending at the event's
    /// destination, or the destination lies outside the set's LPs.
    pub fn insert(&mut self, event: Event<P>) {
        let key = event.key();
        let lp = self.lp_index(event.dst);
        let (prev, at) = self.seek(lp, key);
        assert!(at == NIL || self.key(at) != key, "duplicate pending event {key:?}");
        let node = self.nodes.alloc(Node { event, next: at });
        if prev == NIL {
            self.heads[lp] = node;
            match self.pos[lp] {
                NIL => {
                    self.pos[lp] = self.heap.len() as u32;
                    self.heap.push((key.t, lp as u32));
                    self.sift_up(self.heap.len() - 1);
                }
                p => {
                    self.heap[p as usize].0 = key.t;
                    self.sift_up(p as usize);
                }
            }
        } else {
            self.nodes[prev].next = node;
        }
        self.debug_check();
    }

    /// Unlink the event with exactly this key if it is pending at `dst`;
    /// returns whether it was. The walk stops at the first key at or above
    /// `key`, so a key below `dst`'s head costs one comparison.
    pub fn cancel(&mut self, dst: LpId, key: EventKey) -> bool {
        let lp = self.lp_index(dst);
        let (prev, at) = self.seek(lp, key);
        if at == NIL || self.key(at) != key {
            return false;
        }
        self.unlink(lp, prev, at);
        self.debug_check();
        true
    }

    /// Remove and return the minimum event.
    ///
    /// # Panics
    ///
    /// If the same key is also pending at another LP.
    pub fn pop_min(&mut self) -> Option<Event<P>> {
        let &(_, lp) = self.heap.first()?;
        let event = self.unlink(lp as usize, NIL, self.heads[lp as usize]);
        let key = event.key();
        assert!(self.min_key() != Some(key), "duplicate pending event {key:?}");
        self.debug_check();
        Some(event)
    }

    /// The first node of LP `lp`'s chain with a key at or above `key`
    /// (`NIL` if none), and the node before it (`NIL` at the head).
    #[inline]
    fn seek(&self, lp: usize, key: EventKey) -> (u32, u32) {
        let mut prev = NIL;
        let mut at = self.heads[lp];
        while at != NIL && self.key(at) < key {
            prev = at;
            at = self.nodes[at].next;
        }
        (prev, at)
    }

    /// Take `node` (after `prev`, or the head if `prev` is `NIL`) off LP
    /// `lp`'s chain and return its event.
    fn unlink(&mut self, lp: usize, prev: u32, node: u32) -> Event<P> {
        let next = self.nodes[node].next;
        if prev == NIL {
            self.heads[lp] = next;
            let p = self.pos[lp] as usize;
            if next == NIL {
                self.heap_remove(p);
            } else {
                self.heap[p].0 = self.nodes[next].event.recv_time;
                self.sift_down(p);
            }
        } else {
            self.nodes[prev].next = next;
        }
        self.nodes.free(node).1.event
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }

    /// Key of the earliest event of LP `lp`, which must have one.
    #[inline]
    fn head_key(&self, lp: u32) -> EventKey {
        self.key(self.heads[lp as usize])
    }

    /// Whether heap entry `a` orders before entry `b`.
    #[inline]
    fn heap_less(&self, a: usize, b: usize) -> bool {
        let ((ta, la), (tb, lb)) = (self.heap[a], self.heap[b]);
        ta < tb || (ta == tb && self.head_key(la) < self.head_key(lb))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.heap_less(i, parent) {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap_less(right, left) { right } else { left };
            if !self.heap_less(child, i) {
                break;
            }
            self.heap_swap(i, child);
            i = child;
        }
    }

    fn heap_remove(&mut self, i: usize) {
        let last = self.heap.len() - 1;
        self.heap_swap(i, last);
        let (_, lp) = self.heap.pop().expect("heap entry to remove");
        self.pos[lp as usize] = NIL;
        if i < last {
            self.sift_down(i);
            self.sift_up(i);
        }
    }

    /// Check every invariant (debug builds only): heap order, the position
    /// array against the heap, each chain strictly ascending and headed by
    /// its heap key, and the chains' total against the slab's live slots.
    fn debug_check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut chained = 0;
        for (i, &(t, lp)) in self.heap.iter().enumerate() {
            assert!(i == 0 || !self.heap_less(i, (i - 1) / 2), "heap out of order at {i}");
            let lp = lp as usize;
            assert_eq!(self.pos[lp], i as u32, "position array out of step with the heap");
            let mut node = self.heads[lp];
            assert_eq!(self.key(node).t, t, "heap time is not its chain head's");
            while node != NIL {
                let next = self.nodes[node].next;
                assert!(
                    next == NIL || self.key(node) < self.key(next),
                    "chain of LP offset {lp} out of order"
                );
                chained += 1;
                node = next;
            }
        }
        assert_eq!(self.nodes.live(), chained, "slab slots lost or on no chain");
    }

    /// Key of the minimum event (the worker's LVT contribution when
    /// present).
    #[inline]
    pub fn min_key(&self) -> Option<EventKey> {
        self.heap.first().map(|&(_, lp)| self.head_key(lp))
    }

    /// Receive time of the minimum event, or +inf when empty.
    pub fn min_time(&self) -> VirtualTime {
        self.heap.first().map_or(VirtualTime::INFINITY, |&(t, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.nodes.live()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::ids::EventId;

    fn ev_at(dst: u32, t: f64, src: u32, seq: u32) -> Event<u32> {
        Event {
            recv_time: VirtualTime::new(t),
            dst: LpId(dst),
            id: EventId::new(LpId(src), seq),
            payload: (t * 10.0) as u32,
        }
    }

    fn ev(t: f64, src: u32, seq: u32) -> Event<u32> {
        ev_at(0, t, src, seq)
    }

    /// A set over LP 0 alone.
    fn one_lp() -> PendingSet<u32> {
        PendingSet::new(LpId(0), 1)
    }

    fn cancel(ps: &mut PendingSet<u32>, e: &Event<u32>) -> bool {
        ps.cancel(e.dst, e.key())
    }

    #[test]
    fn pops_in_key_order() {
        let mut ps = one_lp();
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
        let mut ps = one_lp();
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
    fn pops_in_key_order_across_lps() {
        // LPs 10..14; equal receive times on different LPs break by id.
        let mut ps = PendingSet::new(LpId(10), 4);
        ps.insert(ev_at(13, 2.0, 0, 0));
        ps.insert(ev_at(10, 2.0, 5, 1));
        ps.insert(ev_at(11, 1.0, 9, 0));
        ps.insert(ev_at(10, 0.5, 1, 2));
        ps.insert(ev_at(13, 1.5, 2, 2));
        ps.insert(ev_at(11, 2.0, 3, 0));
        let order: Vec<_> = std::iter::from_fn(|| ps.pop_min()).map(|e| (e.dst.0, e.id)).collect();
        assert_eq!(
            order,
            [
                (10, EventId::new(LpId(1), 2)),
                (11, EventId::new(LpId(9), 0)),
                (13, EventId::new(LpId(2), 2)),
                (13, EventId::new(LpId(0), 0)),
                (11, EventId::new(LpId(3), 0)),
                (10, EventId::new(LpId(5), 1)),
            ]
        );
    }

    #[test]
    fn cancel_pending_annihilates() {
        let mut ps = one_lp();
        let e = ev(1.0, 0, 0);
        ps.insert(e);
        ps.insert(ev(2.0, 0, 1));
        assert!(cancel(&mut ps, &e));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.min_time(), VirtualTime::new(2.0));
        let popped = ps.pop_min().unwrap();
        assert_eq!(popped.id, EventId::new(LpId(0), 1));
        assert!(ps.pop_min().is_none());
    }

    #[test]
    fn cancel_unlinks_head_middle_and_tail_across_lps() {
        let mut ps = PendingSet::new(LpId(0), 3);
        let chain: Vec<_> = (0..4).map(|i| ev_at(1, i as f64 + 1.0, 0, i)).collect();
        for &e in &chain {
            ps.insert(e);
        }
        ps.insert(ev_at(2, 1.5, 1, 0));
        // The key pending at LP 1 is not pending at LP 0.
        assert!(!ps.cancel(LpId(0), chain[1].key()));
        assert!(cancel(&mut ps, &chain[2]));
        assert!(cancel(&mut ps, &chain[3]));
        assert!(cancel(&mut ps, &chain[0]));
        assert_eq!(ps.min_time(), VirtualTime::new(1.5));
        let order: Vec<_> = std::iter::from_fn(|| ps.pop_min()).map(|e| e.dst.0).collect();
        assert_eq!(order, [2, 1]);
    }

    #[test]
    fn cancelling_an_absent_key_changes_nothing() {
        let mut ps = PendingSet::new(LpId(0), 3);
        ps.insert(ev_at(0, 2.0, 0, 0));
        ps.insert(ev_at(0, 4.0, 0, 1));
        ps.insert(ev_at(1, 3.0, 1, 0));
        // Below the head, between two chain keys, past the tail, the same
        // id at another time, another LP's key, and on an empty chain.
        for (dst, t, src, seq) in [
            (0, 1.0, 0, 0),
            (0, 3.0, 0, 0),
            (0, 5.0, 0, 1),
            (0, 2.5, 0, 0),
            (0, 3.0, 1, 0),
            (2, 1.0, 2, 0),
        ] {
            assert!(!cancel(&mut ps, &ev_at(dst, t, src, seq)));
        }
        assert_eq!(ps.len(), 3);
        let order: Vec<_> =
            std::iter::from_fn(|| ps.pop_min()).map(|e| e.recv_time.as_f64()).collect();
        assert_eq!(order, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn cancelling_a_copy_does_not_kill_the_resent_one() {
        // A cancelled (id, t=1.0) copy must not annihilate the re-sent
        // (id, t=2.0) copy that shares the id.
        let mut ps = one_lp();
        let old = ev(1.0, 0, 0);
        ps.insert(old);
        assert!(cancel(&mut ps, &old));
        let fresh = ev(2.0, 0, 0);
        ps.insert(fresh);
        assert!(!cancel(&mut ps, &old), "the old copy is gone");
        let popped = ps.pop_min().unwrap();
        assert_eq!(popped.recv_time, fresh.recv_time, "fresh copy must survive");
        assert!(ps.pop_min().is_none());
    }

    #[test]
    fn min_time_skips_cancelled_head() {
        let mut ps = one_lp();
        let head = ev(1.0, 0, 0);
        ps.insert(head);
        ps.insert(ev(4.0, 0, 1));
        cancel(&mut ps, &head);
        assert_eq!(ps.min_time(), VirtualTime::new(4.0));
    }

    #[test]
    fn empty_set_reports_infinity() {
        let mut ps = one_lp();
        assert_eq!(ps.min_time(), VirtualTime::INFINITY);
        assert!(ps.min_key().is_none());
        assert!(ps.pop_min().is_none());
    }

    /// A chain node is the bare event and its link: on a 64-bit target,
    /// PHOLD's 24-byte event plus the link fill 32 bytes.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn chain_nodes_stay_small() {
        assert!(std::mem::size_of::<Node<u32>>() <= 32, "{}", std::mem::size_of::<Node<u32>>());
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut ps = PendingSet::new(LpId(0), 2);
        for round in 0..100u32 {
            ps.insert(ev_at(round % 2, round as f64, 0, round));
            ps.insert(ev_at(1, round as f64 + 0.5, 1, round));
            ps.pop_min().unwrap();
            ps.pop_min().unwrap();
        }
        assert!(ps.is_empty());
        assert_eq!(ps.nodes.slots(), 2, "the slab grew past the set's peak");
    }

    #[test]
    #[should_panic(expected = "duplicate pending event")]
    fn inserting_a_pending_key_again_panics() {
        let mut ps = one_lp();
        ps.insert(ev(1.0, 0, 0));
        ps.insert(ev(1.0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate pending event")]
    fn a_key_pending_at_two_lps_panics_on_pop() {
        let mut ps = PendingSet::new(LpId(0), 2);
        ps.insert(ev_at(0, 1.0, 0, 0));
        ps.insert(ev_at(1, 1.0, 0, 0));
        ps.pop_min();
    }

    #[test]
    #[should_panic(expected = "outside this pending set")]
    fn an_event_for_a_foreign_lp_panics() {
        let mut ps = PendingSet::new(LpId(4), 2);
        ps.insert(ev_at(6, 1.0, 0, 0));
    }

    #[test]
    fn reinsert_after_rollback_is_allowed() {
        // Rollback re-enqueues previously processed events: same id enters
        // the set again after having been popped.
        let mut ps = one_lp();
        ps.insert(ev(1.0, 0, 0));
        let popped = ps.pop_min().unwrap();
        ps.insert(popped);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn bulk_build_pops_in_key_order() {
        let events = vec![
            ev_at(1, 3.0, 0, 0),
            ev_at(0, 1.0, 2, 5),
            ev_at(2, 1.0, 1, 9),
            ev_at(0, 0.5, 7, 1),
        ];
        let mut ps = PendingSet::from_events(LpId(0), 3, events);
        assert_eq!(ps.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| ps.pop_min()).map(|e| e.id).collect();
        assert_eq!(
            order,
            [
                EventId::new(LpId(7), 1),
                EventId::new(LpId(1), 9),
                EventId::new(LpId(2), 5),
                EventId::new(LpId(0), 0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate pending event")]
    fn bulk_build_with_a_duplicate_key_panics() {
        PendingSet::from_events(LpId(0), 1, vec![ev(1.0, 0, 0), ev(1.0, 0, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate pending event")]
    fn bulk_build_with_a_key_at_two_lps_panics() {
        PendingSet::from_events(LpId(0), 2, vec![ev_at(0, 1.0, 0, 0), ev_at(1, 1.0, 0, 0)]);
    }
}
