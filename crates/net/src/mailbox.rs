//! FIFO channel with delivery-time gating.
//!
//! A [`Mailbox`] models an in-order channel (a shared-memory queue between
//! cores, or a node's MPI in/out queue): any number of producers push
//! messages stamped with a `deliver_at` instant; the consumer pops a message
//! only once its own clock has passed the *head's* `deliver_at`. Gating on
//! the head (not on any ready message) keeps FIFO order, and annihilation
//! rests on it: an anti-message never overtakes the event it cancels, and
//! one that finds its event neither pending nor processed panics the run.

use cagvt_base::time::WallNs;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::envelope::NetMsg;

/// Multi-producer single-consumer FIFO with per-message visibility times.
///
/// Internally a locked `VecDeque`; under the virtual scheduler all accesses
/// are sequential so the lock is uncontended, and under the thread runtime
/// it is held for O(1) per operation.
#[derive(Debug)]
pub struct Mailbox<T> {
    q: Mutex<VecDeque<NetMsg<T>>>,
    len: AtomicUsize,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    pub fn new() -> Self {
        Mailbox { q: Mutex::new(VecDeque::new()), len: AtomicUsize::new(0) }
    }

    /// Enqueue a message that becomes observable at `deliver_at`.
    pub fn push(&self, deliver_at: WallNs, payload: T) {
        let mut q = self.q.lock();
        q.push_back(NetMsg::new(deliver_at, payload));
        // Under the lock, like the pops' decrements: bumped after the guard
        // dropped, a consumer could pop the message and decrement first,
        // wrapping `len` for an instant.
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Pop the head if it is observable at `now`.
    ///
    /// An empty mailbox (`len == 0`) returns without taking the lock, here
    /// and in [`Self::drain_ready_into`] and [`Self::head_deliver_at`].
    /// Under the virtual scheduler `len` is exact. Under threads the
    /// `Relaxed` read may miss a racing push, and a consumer that then
    /// parks gets the message only through the producer's wake notice,
    /// posted after the push: the thread runtime bumps the consumer's epoch
    /// with `Release` and unparks it, and the consumer's `Acquire` re-read
    /// of its epoch (or `park`/`unpark` synchronization) orders the push's
    /// `len` increment before its next poll. No other ordering on `len` is
    /// needed.
    pub fn pop_ready(&self, now: WallNs) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.q.lock();
        match q.front() {
            Some(head) if head.deliver_at <= now => {
                self.len.fetch_sub(1, Ordering::Relaxed);
                Some(q.pop_front().expect("front() was Some").payload)
            }
            _ => None,
        }
    }

    /// Pop up to `max` observable messages into `out`. Returns how many were
    /// popped. A single lock acquisition per batch keeps the per-message
    /// overhead down on hot paths (MPI pump, worker drain).
    pub fn drain_ready_into(&self, now: WallNs, max: usize, out: &mut Vec<T>) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut q = self.q.lock();
        let mut n = 0;
        while n < max {
            match q.front() {
                Some(head) if head.deliver_at <= now => {
                    out.push(q.pop_front().expect("front() was Some").payload);
                    n += 1;
                }
                _ => break,
            }
        }
        if n > 0 {
            self.len.fetch_sub(n, Ordering::Relaxed);
        }
        n
    }

    /// Approximate queue depth, including not-yet-observable messages.
    /// Exact under the virtual scheduler; used for backlog metrics and the
    /// MPI-queue-occupancy signal.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `deliver_at` of the head message, if any. Lets an otherwise-idle
    /// consumer report how long it will stay idle.
    pub fn head_deliver_at(&self) -> Option<WallNs> {
        if self.is_empty() {
            return None;
        }
        self.q.lock().front().map(|m| m.deliver_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mb = Mailbox::new();
        mb.push(WallNs(10), 'a');
        mb.push(WallNs(5), 'b'); // earlier deliver_at but behind 'a'
        assert_eq!(mb.pop_ready(WallNs(7)), None, "head not yet observable");
        assert_eq!(mb.pop_ready(WallNs(10)), Some('a'));
        assert_eq!(mb.pop_ready(WallNs(10)), Some('b'));
        assert_eq!(mb.pop_ready(WallNs(10)), None);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        mb.push(WallNs::ZERO, 1);
        mb.push(WallNs::ZERO, 2);
        assert_eq!(mb.len(), 2);
        mb.pop_ready(WallNs::ZERO);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn drain_ready_respects_max_and_gating() {
        let mb = Mailbox::new();
        for i in 0..5 {
            mb.push(WallNs(i), i);
        }
        mb.push(WallNs(100), 99);
        let mut out = Vec::new();
        assert_eq!(mb.drain_ready_into(WallNs(10), 3, &mut out), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(mb.drain_ready_into(WallNs(10), 10, &mut out), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        // The t=100 message gates everything behind it (there is nothing
        // behind it here, but it must not be delivered early).
        assert_eq!(mb.drain_ready_into(WallNs(99), 10, &mut out), 0);
        assert_eq!(mb.drain_ready_into(WallNs(100), 10, &mut out), 1);
    }

    #[test]
    fn empty_mailbox_reports_nothing_and_sees_a_later_push() {
        let mb = Mailbox::new();
        let mut out = Vec::new();
        assert_eq!(mb.pop_ready(WallNs(5)), None);
        assert_eq!(mb.drain_ready_into(WallNs(5), 8, &mut out), 0);
        assert_eq!(mb.head_deliver_at(), None);
        mb.push(WallNs(3), 'a');
        assert_eq!(mb.head_deliver_at(), Some(WallNs(3)));
        assert_eq!(mb.pop_ready(WallNs(5)), Some('a'));
        assert_eq!(mb.pop_ready(WallNs(5)), None);
        mb.push(WallNs(4), 'b');
        assert_eq!(mb.drain_ready_into(WallNs(5), 8, &mut out), 1);
        assert_eq!(out, ['b']);
    }

    #[test]
    fn head_deliver_at_reports_wakeup_hint() {
        let mb = Mailbox::new();
        assert_eq!(mb.head_deliver_at(), None);
        mb.push(WallNs(42), ());
        assert_eq!(mb.head_deliver_at(), Some(WallNs(42)));
    }

    /// A consumer draining while a producer pushes never sees `len` above
    /// the number of messages pushed (a decrement overtaking its increment
    /// would wrap it to near `usize::MAX`).
    #[test]
    fn len_never_exceeds_pushed_under_concurrent_drain() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const N: usize = 50_000;
        let mb = Arc::new(Mailbox::new());
        let done = Arc::new(AtomicBool::new(false));
        let producer = {
            let (mb, done) = (Arc::clone(&mb), Arc::clone(&done));
            std::thread::spawn(move || {
                for i in 0..N {
                    mb.push(WallNs::ZERO, i);
                }
                done.store(true, Ordering::Release);
            })
        };
        let mut out = Vec::new();
        let mut popped = 0;
        while popped < N {
            let len = mb.len();
            assert!(len <= N, "len {len} exceeds the {N} messages pushed");
            if mb.pop_ready(WallNs::ZERO).is_some() {
                popped += 1;
            }
            out.clear();
            popped += mb.drain_ready_into(WallNs::ZERO, 4, &mut out);
            assert!(popped <= N);
            if done.load(Ordering::Acquire) && mb.is_empty() {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(popped, N);
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn many_producers_one_consumer_threads() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        mb.push(WallNs::ZERO, (p, i));
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        let mut per_producer_last = [None::<u64>; 4];
        let mut count = 0;
        while let Some((p, i)) = mb.pop_ready(WallNs::ZERO) {
            // FIFO per producer.
            if let Some(last) = per_producer_last[p] {
                assert!(i > last);
            }
            per_producer_last[p] = Some(i);
            count += 1;
        }
        assert_eq!(count, 400);
    }
}
