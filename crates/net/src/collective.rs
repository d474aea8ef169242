//! Polled barriers-with-reduction.
//!
//! The paper's Barrier GVT uses two levels of synchronization: a pthread
//! barrier + reduction among the threads of one node, and an MPI barrier +
//! reduction among nodes. Both are provided here in *polled* form: a
//! participant `arrive`s once, then repeatedly asks whether its generation
//! has been released. That keeps engine actors non-blocking under both
//! execution substrates. The node level, [`NodeReduce`], is a
//! [`ClusterCollective`] whose result is visible at once.
//!
//! Usage contract: a participant must observe the
//! result of generation `g` (via `try_result`) before arriving for `g + 1`.
//! Results are double-buffered, so the value for `g` stays readable while
//! `g + 1` accumulates.

use cagvt_base::time::WallNs;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Combined sum/min reduction value.
///
/// `sum` carries message-count differences (Algorithm 1's `msgCount`);
/// `min` carries virtual times encoded with
/// [`VirtualTime::to_ordered_bits`](cagvt_base::VirtualTime::to_ordered_bits),
/// whose unsigned order matches the time order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReduceValue {
    pub sum: i64,
    pub min: u64,
}

impl ReduceValue {
    pub const IDENTITY: ReduceValue = ReduceValue { sum: 0, min: u64::MAX };
}

#[derive(Debug)]
struct ClusterInner {
    arrived: u32,
    acc: ReduceValue,
    last_arrival: WallNs,
    results: [(ReduceValue, WallNs); 2],
}

/// Cluster-wide barrier-with-reduction (the paper's `MpiBarrierSum` /
/// `MpiBarrierMin`), one participant per node.
///
/// Completion is not instantaneous: the result becomes *visible* only
/// `latency` after the last arrival, modeling the stages of an MPI
/// collective over the wire. State is shared in-process (the fabric is
/// simulated) but observability is gated on the modeled time, which is
/// what the algorithms are sensitive to.
#[derive(Debug)]
pub struct ClusterCollective {
    parties: u32,
    inner: Mutex<ClusterInner>,
    generation: AtomicU64,
}

impl ClusterCollective {
    pub fn new(parties: u32) -> Self {
        assert!(parties >= 1);
        ClusterCollective {
            parties,
            inner: Mutex::new(ClusterInner {
                arrived: 0,
                acc: ReduceValue::IDENTITY,
                last_arrival: WallNs::ZERO,
                results: [(ReduceValue::IDENTITY, WallNs::ZERO); 2],
            }),
            generation: AtomicU64::new(0),
        }
    }

    /// Contribute `(sum, min)` at wall time `now`; the collective completes
    /// `latency` after the last arrival.
    pub fn arrive(&self, now: WallNs, sum: i64, min: u64, latency: WallNs) -> u64 {
        let mut inner = self.inner.lock();
        let gen = self.generation.load(Ordering::Acquire);
        inner.acc.sum += sum;
        inner.acc.min = inner.acc.min.min(min);
        inner.last_arrival = inner.last_arrival.max(now);
        inner.arrived += 1;
        debug_assert!(inner.arrived <= self.parties, "collective over-subscribed");
        if inner.arrived == self.parties {
            let slot = (gen % 2) as usize;
            let visible_at = inner.last_arrival + latency;
            inner.results[slot] = (inner.acc, visible_at);
            inner.acc = ReduceValue::IDENTITY;
            inner.arrived = 0;
            inner.last_arrival = WallNs::ZERO;
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        gen
    }

    /// The result for `gen`, once complete *and* past its visibility time.
    pub fn try_result(&self, now: WallNs, gen: u64) -> Option<ReduceValue> {
        if self.generation.load(Ordering::Acquire) > gen {
            let slot = (gen % 2) as usize;
            let (value, visible_at) = self.inner.lock().results[slot];
            if now >= visible_at {
                return Some(value);
            }
        }
        None
    }
}

/// Polled barrier-with-reduction among the threads of one node (the paper's
/// `PthreadBarrierSum` / `PthreadBarrierMin`): a [`ClusterCollective`]
/// whose result is visible as soon as the last participant arrives.
#[derive(Debug)]
pub struct NodeReduce(ClusterCollective);

impl NodeReduce {
    pub fn new(parties: u32) -> Self {
        NodeReduce(ClusterCollective::new(parties))
    }

    /// Contribute `(sum, min)` and return the generation token.
    pub fn arrive(&self, sum: i64, min: u64) -> u64 {
        self.0.arrive(WallNs::ZERO, sum, min, WallNs::ZERO)
    }

    /// The reduced value for `gen`, once every participant has arrived.
    pub fn try_result(&self, gen: u64) -> Option<ReduceValue> {
        self.0.try_result(WallNs(u64::MAX), gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_reduce_sums_and_mins() {
        let r = NodeReduce::new(3);
        let g = r.arrive(5, 100);
        assert_eq!(r.try_result(g), None);
        r.arrive(-2, 50);
        r.arrive(1, 75);
        let v = r.try_result(g).unwrap();
        assert_eq!(v.sum, 4);
        assert_eq!(v.min, 50);
    }

    #[test]
    fn node_reduce_double_buffers_consecutive_rounds() {
        let r = NodeReduce::new(1);
        let g0 = r.arrive(1, 10);
        let g1 = r.arrive(2, 20);
        // Round 0's result is still readable after round 1 completed.
        assert_eq!(r.try_result(g0).unwrap(), ReduceValue { sum: 1, min: 10 });
        assert_eq!(r.try_result(g1).unwrap(), ReduceValue { sum: 2, min: 20 });
    }

    #[test]
    fn cluster_collective_gates_on_latency() {
        let c = ClusterCollective::new(2);
        let g = c.arrive(WallNs(100), 3, 10, WallNs(1_000));
        assert_eq!(c.try_result(WallNs(10_000), g), None, "not complete yet");
        c.arrive(WallNs(500), -1, 5, WallNs(1_000));
        // Complete, but only visible at last_arrival (500) + 1000.
        assert_eq!(c.try_result(WallNs(1_400), g), None);
        let v = c.try_result(WallNs(1_500), g).unwrap();
        assert_eq!(v.sum, 2);
        assert_eq!(v.min, 5);
    }

    #[test]
    fn cluster_collective_consecutive_generations() {
        let c = ClusterCollective::new(1);
        let g0 = c.arrive(WallNs(0), 7, 1, WallNs(10));
        let g1 = c.arrive(WallNs(100), 8, 2, WallNs(10));
        assert_eq!(c.try_result(WallNs(1_000), g0).unwrap().sum, 7);
        assert_eq!(c.try_result(WallNs(1_000), g1).unwrap().sum, 8);
        assert_eq!(c.try_result(WallNs(105), g1), None, "latency gate");
    }

    /// Four OS threads run 100 generations; each spins until its
    /// generation's result is out before arriving for the next, as the
    /// usage contract requires, and must read every generation's full sum
    /// and min.
    #[test]
    fn barrier_under_real_threads() {
        use std::sync::Arc;
        let r = Arc::new(NodeReduce::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for round in 0..100u64 {
                        let g = r.arrive(1, round * 10 + t);
                        assert_eq!(g, round);
                        let v = loop {
                            match r.try_result(g) {
                                Some(v) => break v,
                                None => std::hint::spin_loop(),
                            }
                        };
                        assert_eq!(v, ReduceValue { sum: 4, min: round * 10 });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.0.generation.load(Ordering::Relaxed), 100);
    }
}
