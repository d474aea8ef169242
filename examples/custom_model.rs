//! Tutorial: implementing your own simulation model, including reverse
//! computation for snapshot-free rollback.
//!
//! The model here is a ring of token-passing counters — deliberately tiny
//! so every trait method is readable. It demonstrates:
//!
//! 1. the [`Model`] trait: state, payloads, initial events, the handler;
//! 2. determinism rules (all randomness through the provided generator);
//! 3. `state_fingerprint` so the sequential reference can verify runs;
//! 4. optional `reverse` + `supports_reverse` for ROSS-style reverse
//!    computation (the engine then stores 24 bytes per event instead of a
//!    state snapshot).
//!
//! ```text
//! cargo run --release --example custom_model
//! ```

use cagvt::base::rng::Pcg32;
use cagvt::prelude::*;
use std::sync::Arc;

/// Each LP owns a counter; a token carries a running sum around the ring.
#[derive(Clone, Copy)]
struct TokenRing {
    /// Mean hop delay.
    mean_hop: f64,
    /// Simulated work per hop, in EPG units (~1 FLOP each).
    work: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counter {
    hops_seen: u64,
    weighted_sum: u64,
}

impl Model for TokenRing {
    type State = Counter;
    type Payload = u64; // the token's running sum

    fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) -> Counter {
        Counter { hops_seen: 0, weighted_sum: 0 }
    }

    fn initial_events(
        &self,
        lp: LpId,
        _state: &mut Counter,
        rng: &mut Pcg32,
        emit: &mut Emitter<u64>,
    ) {
        // One token starts at every fourth LP.
        if lp.0.is_multiple_of(4) {
            emit.emit(lp, 0.01 + rng.next_exp(self.mean_hop), lp.0 as u64);
        }
    }

    fn handle(
        &self,
        ctx: &EventCtx,
        state: &mut Counter,
        token: &u64,
        rng: &mut Pcg32,
        emit: &mut Emitter<u64>,
    ) -> u64 {
        // Forward pass: fold the token into local state...
        state.hops_seen += 1;
        state.weighted_sum = state.weighted_sum.wrapping_add(token.rotate_left(7));
        // ...and pass it to the next LP on the ring. The hop delay comes
        // from the provided generator — never from global randomness — so
        // rollback/replay and the sequential reference stay bit-identical.
        let next = LpId((ctx.self_lp.0 + 1) % ctx.total_lps);
        emit.emit(next, 0.01 + rng.next_exp(self.mean_hop), token.wrapping_add(1));
        self.work
    }

    fn state_fingerprint(&self, s: &Counter) -> u64 {
        s.hops_seen.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s.weighted_sum
    }

    // -- Reverse computation -------------------------------------------
    //
    // `reverse` must be the exact inverse of `handle`. The engine restores
    // the generator itself and hands a scratch copy positioned where
    // `handle` started, so draws can be re-derived if the reversal needs
    // them (here it does not: the mutations are algebraically invertible).

    fn supports_reverse(&self) -> bool {
        true
    }

    fn reverse(&self, _ctx: &EventCtx, state: &mut Counter, token: &u64, _rng: &mut Pcg32) {
        state.weighted_sum = state.weighted_sum.wrapping_sub(token.rotate_left(7));
        state.hops_seen -= 1;
    }
}

fn main() {
    let mut cfg = SimConfig::small(2, 4);
    cfg.lps_per_worker = 8; // 64 LPs, 16 tokens
    cfg.end_time = 80.0;

    let model = TokenRing { mean_hop: 1.0, work: 3_000 };
    println!("token ring: {} LPs, {} tokens\n", cfg.total_lps(), cfg.total_lps() / 4);

    // Reverse computation (the model supports it, so it is the default)...
    let reverse =
        run_virtual(Arc::new(model), cfg, |shared| make_bundle(GvtKind::CA_DEFAULT, shared));
    // ...vs forced per-event snapshots.
    let mut snap_cfg = cfg;
    snap_cfg.rollback = Some(RollbackStrategy::Snapshot);
    let snapshot =
        run_virtual(Arc::new(model), snap_cfg, |shared| make_bundle(GvtKind::CA_DEFAULT, shared));

    for (name, r) in [("reverse", &reverse), ("snapshot", &snapshot)] {
        println!(
            "{name:<9} committed {:>6}  rollbacks {:>4}  fingerprint {:#018x}",
            r.committed, r.workers.rollbacks, r.state_fingerprint
        );
    }

    let seq = SequentialSim::new(Arc::new(model), cfg).run();
    assert_eq!(reverse.committed, seq.processed);
    assert_eq!(reverse.state_fingerprint, seq.fingerprint);
    assert_eq!(snapshot.committed, seq.processed);
    assert_eq!(snapshot.state_fingerprint, seq.fingerprint);
    println!(
        "\nboth rollback strategies match the sequential reference ({} events)",
        seq.processed
    );
}
