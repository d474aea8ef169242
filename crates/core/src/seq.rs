//! Sequential reference simulator.
//!
//! Processes the global event stream in the engine's total order
//! `(recv_time, sender, sequence)` with no optimism, no rollback and no
//! communication — the ground truth the optimistic engine must agree with.
//! It keeps its LPs in one [`LpTable`] over every LP of the run, committing
//! each event as soon as it is processed. The parallel engine's workers each
//! keep one table over their own LPs, and both call the same table methods
//! to seed, to process and stamp events and to fold the final fingerprint,
//! so state initialization, RNG streams, sequence-number assignment and the
//! fingerprint are *identical by construction*: one code path, not copies.

use cagvt_base::ids::LpId;
use cagvt_base::time::VirtualTime;
use std::sync::Arc;

use crate::config::SimConfig;
use crate::lp::LpTable;
use crate::model::Model;
use crate::queue::PendingSet;

/// Result of a sequential run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqOutcome {
    /// Events processed (all with `recv_time < end_time`).
    pub processed: u64,
    /// XOR-combined per-LP state fingerprint (see [`LpTable::fingerprint`]).
    pub fingerprint: u64,
}

/// The reference simulator.
pub struct SequentialSim<M: Model> {
    model: Arc<M>,
    cfg: SimConfig,
}

impl<M: Model> SequentialSim<M> {
    /// The cluster topology in `cfg` only determines the LP count and seed
    /// derivation; no cluster is simulated.
    pub fn new(model: Arc<M>, cfg: SimConfig) -> Self {
        cfg.validate();
        SequentialSim { model, cfg }
    }

    /// Run to the configured end time.
    pub fn run(&self) -> SeqOutcome {
        let end = self.cfg.end_vt();
        let mut lps =
            LpTable::new(Arc::clone(&self.model), &self.cfg, LpId(0), self.cfg.total_lps());
        let mut sent = Vec::new();
        lps.seed(&mut sent);
        let mut pending = PendingSet::from_events(LpId(0), lps.len(), std::mem::take(&mut sent));
        let mut processed = 0u64;
        while pending.min_key().is_some_and(|key| key.t < end) {
            let event = pending.pop_min().expect("min_key was Some");
            let idx = event.dst.index();
            lps.process(idx, event, &mut sent);
            sent.drain(..).for_each(|e| pending.insert(e));
            // No rollback can ever happen: commit immediately.
            lps.fossil_collect(idx, VirtualTime::INFINITY);
            processed += 1;
        }
        SeqOutcome { processed, fingerprint: lps.fingerprint() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmodel::MiniHold;

    /// The shared test model with a 0.01 lookahead: each event re-sends one
    /// event to a random LP after `0.01 + Exp(1)`.
    fn model() -> Arc<MiniHold> {
        Arc::new(MiniHold { lookahead: 0.01, ..Default::default() })
    }

    #[test]
    fn sequential_run_is_deterministic() {
        let cfg = SimConfig::small(1, 2);
        let a = SequentialSim::new(model(), cfg).run();
        let b = SequentialSim::new(model(), cfg).run();
        assert_eq!(a, b);
        assert!(a.processed > 0, "something must happen before t=60");
    }

    #[test]
    fn seed_changes_the_trajectory() {
        let cfg1 = SimConfig::small(1, 2);
        let mut cfg2 = cfg1;
        cfg2.seed ^= 0xDEAD_BEEF;
        let a = SequentialSim::new(model(), cfg1).run();
        let b = SequentialSim::new(model(), cfg2).run();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn event_population_is_conserved() {
        // Each processed event emits exactly one event, and each LP starts
        // with one: the number processed before a horizon scales with the
        // horizon, and the simulator never runs dry.
        let mut cfg = SimConfig::small(1, 1);
        cfg.lps_per_worker = 4;
        cfg.end_time = 30.0;
        let short = SequentialSim::new(model(), cfg).run();
        cfg.end_time = 60.0;
        let long = SequentialSim::new(model(), cfg).run();
        assert!(long.processed > short.processed);
        // ~1 event per LP per unit time with mean increment ~1.01.
        let expected = 4.0 * 30.0 / 1.01;
        let ratio = short.processed as f64 / expected;
        assert!((0.5..2.0).contains(&ratio), "rate far off: {}", short.processed);
    }
}
