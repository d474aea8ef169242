//! The model interface: what a simulation application implements.

use cagvt_base::ids::LpId;
use cagvt_base::rng::Pcg32;
use cagvt_base::time::VirtualTime;

/// Context visible to an event handler.
///
/// Deliberately free of wall-clock state: model behaviour may depend only
/// on virtual time (plus the LP's own state and RNG), which is what makes
/// optimistic execution equivalent to the sequential reference. Models that
/// need execution *phases* (the paper's mixed X-Y workloads) key them off
/// `now / end_time`.
#[derive(Clone, Copy, Debug)]
pub struct EventCtx {
    /// Receive time of the event being processed.
    pub now: VirtualTime,
    /// The LP processing the event.
    pub self_lp: LpId,
    /// Virtual end of the simulation (events at or beyond are never
    /// processed).
    pub end_time: VirtualTime,
    /// Total number of LPs in the run (for choosing destinations).
    pub total_lps: u32,
}

impl EventCtx {
    /// Fraction of the simulated horizon elapsed, in `[0, 1)`.
    #[inline]
    pub fn progress(&self) -> f64 {
        (self.now.as_f64() / self.end_time.as_f64()).min(1.0)
    }
}

/// Collects the events emitted while handling one event.
///
/// Emissions are `(destination, delay, payload)`; the engine stamps the
/// receive time as `now + delay` and assigns the event identity. Delays
/// must be strictly positive — zero-delay self-loops would make virtual
/// time stall.
#[derive(Debug)]
pub struct Emitter<P> {
    out: Vec<(LpId, f64, P)>,
}

impl<P> Emitter<P> {
    pub fn new() -> Self {
        Emitter { out: Vec::new() }
    }

    /// Schedule `payload` for `dst`, `delay` after the current event.
    #[inline]
    pub fn emit(&mut self, dst: LpId, delay: f64, payload: P) {
        assert!(delay > 0.0 && delay.is_finite(), "event delay must be positive, got {delay}");
        self.out.push((dst, delay, payload));
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Drain the collected emissions (engine-internal).
    pub fn take(&mut self) -> std::vec::Drain<'_, (LpId, f64, P)> {
        self.out.drain(..)
    }
}

impl<P> Default for Emitter<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// A discrete event simulation model.
///
/// Implementations must be deterministic functions of `(state, event
/// payload, RNG)` — all randomness through the provided generator, no
/// global state — so that rollback/replay and the sequential reference
/// produce identical trajectories.
pub trait Model: Send + Sync + 'static {
    /// Per-LP state. Under state saving it is cloned into the LP's snapshot
    /// log for rollback, so keep it small (the paper's models carry
    /// counters and RNG state).
    type State: Clone + Send + 'static;
    /// Event payload: plain data. The engine moves every event by copying
    /// it (pending set, history, mailboxes, rollback buffers), and a freed
    /// node slot keeps its stale bytes until it is handed out again, which
    /// holds on to nothing only when the payload owns nothing. A model
    /// that needs a larger record keeps it in the LP state and sends an
    /// index.
    type Payload: Copy + Send + 'static;

    /// Initial state of `lp`.
    fn init_state(&self, lp: LpId, rng: &mut Pcg32) -> Self::State;

    /// Events present at time zero (PHOLD seeds one per LP). Delays are
    /// measured from time zero.
    fn initial_events(
        &self,
        lp: LpId,
        state: &mut Self::State,
        rng: &mut Pcg32,
        emit: &mut Emitter<Self::Payload>,
    );

    /// Process one event: update state, emit follow-on events, and return
    /// the event processing granularity (EPG) in work units (~1 FLOP each),
    /// which the substrate converts to wall-clock cost.
    fn handle(
        &self,
        ctx: &EventCtx,
        state: &mut Self::State,
        payload: &Self::Payload,
        rng: &mut Pcg32,
        emit: &mut Emitter<Self::Payload>,
    ) -> u64;

    /// Order-insensitive-free fingerprint of a final LP state, used by the
    /// equivalence tests (optimistic run vs sequential reference). The
    /// default covers models that don't participate in those tests.
    fn state_fingerprint(&self, _state: &Self::State) -> u64 {
        0
    }

    /// Does this model implement [`Self::reverse`]? When true, the engine
    /// rolls back by *reverse computation* (ROSS's mechanism): instead of
    /// snapshotting the LP state before every event, it undoes events by
    /// calling `reverse` in exact LIFO order, storing only the 8-byte
    /// generator position per event. For models with non-trivial state
    /// this is the memory- and copy-cost winner; the engine verifies both
    /// strategies commit identical results.
    fn supports_reverse(&self) -> bool {
        false
    }

    /// Undo one [`Self::handle`] call. Called in exact LIFO order with the
    /// same `ctx` and `payload`; `rng` arrives restored to its pre-event
    /// state (a scratch copy — the LP's own generator is restored by the
    /// engine), so the reversal can re-derive the event's random draws to
    /// learn what the forward pass did. Must leave `state` exactly as it
    /// was before the forward call.
    fn reverse(
        &self,
        _ctx: &EventCtx,
        _state: &mut Self::State,
        _payload: &Self::Payload,
        _rng: &mut Pcg32,
    ) {
        unimplemented!("model declared supports_reverse() without implementing reverse()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_and_drains() {
        let mut em: Emitter<u32> = Emitter::new();
        assert!(em.is_empty());
        em.emit(LpId(1), 0.5, 10);
        em.emit(LpId(2), 1.5, 20);
        assert_eq!(em.len(), 2);
        let got: Vec<_> = em.take().collect();
        assert_eq!(got, vec![(LpId(1), 0.5, 10), (LpId(2), 1.5, 20)]);
        assert!(em.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_delay_rejected() {
        let mut em: Emitter<()> = Emitter::new();
        em.emit(LpId(0), 0.0, ());
    }

    #[test]
    #[should_panic]
    fn non_finite_delay_rejected() {
        let mut em: Emitter<()> = Emitter::new();
        em.emit(LpId(0), f64::INFINITY, ());
    }

    #[test]
    fn ctx_progress_is_bounded() {
        let ctx = EventCtx {
            now: VirtualTime::new(50.0),
            self_lp: LpId(0),
            end_time: VirtualTime::new(200.0),
            total_lps: 4,
        };
        assert!((ctx.progress() - 0.25).abs() < 1e-12);
    }
}
