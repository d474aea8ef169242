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
    use crate::model::{Emitter, EventCtx};
    use cagvt_base::rng::Pcg32;

    /// Tiny PHOLD-like model: each event re-sends to a random LP after an
    /// exponential delay; state counts received events and sums a hash.
    struct MiniHold;

    impl Model for MiniHold {
        type State = (u64, u64); // (count, checksum)
        type Payload = u32;

        fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) -> Self::State {
            (0, 0)
        }

        fn initial_events(
            &self,
            lp: LpId,
            _state: &mut Self::State,
            rng: &mut Pcg32,
            emit: &mut Emitter<u32>,
        ) {
            emit.emit(lp, 0.01 + rng.next_exp(1.0), 1);
        }

        fn handle(
            &self,
            ctx: &EventCtx,
            state: &mut Self::State,
            payload: &u32,
            rng: &mut Pcg32,
            emit: &mut Emitter<u32>,
        ) -> u64 {
            state.0 += 1;
            state.1 = state.1.wrapping_mul(31).wrapping_add(*payload as u64);
            let dst = LpId(rng.next_bounded(ctx.total_lps));
            emit.emit(dst, 0.01 + rng.next_exp(1.0), payload.wrapping_add(1));
            100
        }

        fn state_fingerprint(&self, state: &Self::State) -> u64 {
            state.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ state.1
        }
    }

    #[test]
    fn sequential_run_is_deterministic() {
        let cfg = SimConfig::small(1, 2);
        let a = SequentialSim::new(Arc::new(MiniHold), cfg).run();
        let b = SequentialSim::new(Arc::new(MiniHold), cfg).run();
        assert_eq!(a, b);
        assert!(a.processed > 0, "something must happen before t=60");
    }

    #[test]
    fn seed_changes_the_trajectory() {
        let cfg1 = SimConfig::small(1, 2);
        let mut cfg2 = cfg1;
        cfg2.seed ^= 0xDEAD_BEEF;
        let a = SequentialSim::new(Arc::new(MiniHold), cfg1).run();
        let b = SequentialSim::new(Arc::new(MiniHold), cfg2).run();
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
        let short = SequentialSim::new(Arc::new(MiniHold), cfg).run();
        cfg.end_time = 60.0;
        let long = SequentialSim::new(Arc::new(MiniHold), cfg).run();
        assert!(long.processed > short.processed);
        // ~1 event per LP per unit time with mean increment ~1.01.
        let expected = 4.0 * 30.0 / 1.01;
        let ratio = short.processed as f64 / expected;
        assert!((0.5..2.0).contains(&ratio), "rate far off: {}", short.processed);
    }
}
