//! Queueing model of a contended lock.
//!
//! Threaded MPI serializes all library calls behind a global lock; Amer et
//! al. showed the queueing delay behind that lock, not the critical section
//! itself, is what destroys MPI+threads performance. [`VirtualMutex`] models
//! exactly that: acquisitions serialize in time. A caller arriving at `now`
//! begins its critical section at `max(now, lock_free_at)`, holds for
//! `hold`, and is charged the whole interval. The paper's `PerWorker` MPI
//! mode routes every worker's MPI calls through one of these, and each
//! node's NIC is one too, held for a message's transmit time.

use cagvt_base::time::WallNs;
use std::sync::atomic::{AtomicU64, Ordering};

/// A lock whose contention is expressed as simulated waiting time.
///
/// ```
/// use cagvt_net::VirtualMutex;
/// use cagvt_base::WallNs;
///
/// let lock = VirtualMutex::new();
/// // Three callers arrive simultaneously, each holding for 100ns: they
/// // serialize, and each is charged its queueing delay plus the hold.
/// assert_eq!(lock.acquire(WallNs(0), WallNs(100)), WallNs(100));
/// assert_eq!(lock.acquire(WallNs(0), WallNs(100)), WallNs(200));
/// assert_eq!(lock.acquire(WallNs(0), WallNs(100)), WallNs(300));
/// ```
#[derive(Debug, Default)]
pub struct VirtualMutex {
    free_at: AtomicU64,
}

impl VirtualMutex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire at `now`, hold for `hold`. Returns the total wall-clock
    /// charge for the caller (queueing delay + hold time).
    ///
    /// Under the virtual scheduler calls are sequential and the CAS always
    /// succeeds on the first try; under real threads the loop linearizes
    /// concurrent acquisitions in some order, which is all the model needs.
    pub fn acquire(&self, now: WallNs, hold: WallNs) -> WallNs {
        loop {
            let free = self.free_at.load(Ordering::Acquire);
            let start = now.0.max(free);
            let new_free = start + hold.0;
            if self
                .free_at
                .compare_exchange(free, new_free, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return WallNs(new_free - now.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_charges_only_hold() {
        let m = VirtualMutex::new();
        assert_eq!(m.acquire(WallNs(1_000), WallNs(100)), WallNs(100));
    }

    #[test]
    fn late_arrival_after_free_pays_no_wait() {
        let m = VirtualMutex::new();
        m.acquire(WallNs(0), WallNs(100));
        assert_eq!(m.acquire(WallNs(500), WallNs(100)), WallNs(100));
    }

    #[test]
    fn interleaved_arrivals() {
        let m = VirtualMutex::new();
        m.acquire(WallNs(0), WallNs(1_000)); // free at 1000
        let charge = m.acquire(WallNs(400), WallNs(200)); // waits 600, holds 200
        assert_eq!(charge, WallNs(800));
    }

    #[test]
    fn concurrent_acquires_linearize() {
        use std::sync::Arc;
        let m = Arc::new(VirtualMutex::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        m.acquire(WallNs(0), WallNs(10));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All arrived at t=0 holding 10ns each: whatever the interleaving,
        // a caller arriving at t=0 waits until exactly 80_000.
        assert_eq!(m.acquire(WallNs(0), WallNs::ZERO), WallNs(80_000));
    }
}
