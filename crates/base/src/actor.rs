//! The actor abstraction both execution substrates drive.
//!
//! Every engine participant — a worker thread processing events, a dedicated
//! MPI thread pumping the network — is an [`Actor`]: a state machine whose
//! [`Actor::step`] performs one bounded unit of work and reports what it
//! cost in simulated wall-clock time.
//!
//! * The **virtual scheduler** (`cagvt-exec`) always steps the actor with
//!   the smallest virtual clock and advances that clock by the reported
//!   cost, producing the interleaving a real cluster would exhibit under
//!   those costs — deterministically, on any host.
//! * The **thread runtime** runs `loop {{ step() }}` on one OS thread per
//!   actor; there the reported cost is realized by actually spinning for
//!   the compute portion.
//!
//! Steps must be *non-blocking*: an actor that is waiting returns and is
//! polled again later, its clock advanced by the poll's cost. This polled
//! style is what lets the identical algorithm code run under both substrates.
//!
//! A step whose repeats would change nothing may ask to be *parked*
//! ([`StepResult::park`]). Both substrates then stop stepping the actor
//! until a notice on the [`wake`](crate::wake) board says something it
//! waits on changed, or its timer passes: the virtual scheduler skips its
//! polls and credits them, so results are identical to polling, and the
//! thread runtime parks its OS thread.

use crate::ids::ActorId;
use crate::time::WallNs;
use crate::wake::Park;

/// What a step accomplished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// Work was done, or the actor is held at a barrier; poll again soon.
    Progress,
    /// Nothing to do right now (empty queues, no GVT round to join). A
    /// worker held at a GVT barrier is not idle: it reports `Progress`.
    /// Either kind of poll may ask to be parked ([`StepResult::park`]). The
    /// thread runtime yields its thread once after an idle poll that does
    /// not.
    Idle,
    /// The actor has observed global termination and will never make
    /// progress again. No runtime steps an actor again after it reported
    /// `Done`, so an actor needs no guard against a later step.
    Done,
}

/// Result of one actor step.
#[derive(Clone, Copy, Debug)]
pub struct StepResult {
    /// Simulated wall-clock cost of the step. The virtual scheduler
    /// advances the actor's clock by `cost` (using a configured minimum for
    /// zero-cost idle polls so virtual time always advances).
    pub cost: WallNs,
    pub outcome: StepOutcome,
    /// The step's request to be parked; `None` keeps polling.
    pub park: Option<Park>,
}

impl StepResult {
    #[inline]
    pub fn progress(cost: WallNs) -> Self {
        StepResult { cost, outcome: StepOutcome::Progress, park: None }
    }

    #[inline]
    pub fn idle(cost: WallNs) -> Self {
        StepResult { cost, outcome: StepOutcome::Idle, park: None }
    }

    /// This step, asking to be parked until `park` or a notice wakes it.
    #[inline]
    pub fn parked(self, park: Park) -> Self {
        StepResult { park: Some(park), ..self }
    }

    #[inline]
    pub fn done() -> Self {
        StepResult { cost: WallNs::ZERO, outcome: StepOutcome::Done, park: None }
    }
}

/// A deterministic, non-blocking state machine driven by a scheduler.
pub trait Actor: Send {
    /// Dense global identifier; also the deterministic tie-break when two
    /// actors' clocks are equal under the virtual scheduler.
    fn id(&self) -> ActorId;

    /// Perform one bounded unit of work at simulated wall-clock `now`.
    fn step(&mut self, now: WallNs) -> StepResult;

    /// Human-readable label for traces and error messages.
    fn label(&self) -> String {
        format!("actor{}", self.id().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        id: ActorId,
        left: u32,
    }

    impl Actor for Counter {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, _now: WallNs) -> StepResult {
            if self.left == 0 {
                return StepResult::done();
            }
            self.left -= 1;
            StepResult::progress(WallNs(10))
        }
    }

    #[test]
    fn step_results_carry_cost_and_outcome() {
        let mut a = Counter { id: ActorId(0), left: 2 };
        let r = a.step(WallNs::ZERO);
        assert_eq!(r.outcome, StepOutcome::Progress);
        assert_eq!(r.cost, WallNs(10));
        a.step(WallNs(10));
        assert_eq!(a.step(WallNs(20)).outcome, StepOutcome::Done);
        assert_eq!(a.label(), "actor0");
    }

    #[test]
    fn idle_constructor() {
        let r = StepResult::idle(WallNs(5));
        assert_eq!(r.outcome, StepOutcome::Idle);
        assert_eq!(r.cost, WallNs(5));
    }
}
