//! Execution substrates for CA-GVT actors.
//!
//! The engine's workers and MPI threads are non-blocking state machines
//! ([`cagvt_base::Actor`]); this crate provides the two ways of driving
//! them:
//!
//! * [`VirtualScheduler`] — the reproduction substrate. Maintains one
//!   virtual wall-clock per actor and always steps the actor whose clock is
//!   smallest, advancing it by the step's reported cost. This yields the
//!   interleaving a real cluster would produce under the
//!   [`cagvt_net::CostModel`](../cagvt_net/spec/struct.CostModel.html)
//!   costs — deterministically, on a single host core, at any modeled
//!   cluster size.
//! * [`ThreadRuntime`] — one OS thread per actor, for running the library
//!   as an actual parallel simulator. Costs are *realized* by spinning the
//!   reported duration, so modeled delays (message latencies, lock holds)
//!   stay meaningful in real time.
//!
//! Both honour the same wait protocol ([`cagvt_base::wake`]): a step that
//! returns a [`Park`](cagvt_base::wake::Park) is not repeated until a
//! notice posted by another step, or its timer, says something it waits
//! on changed. The virtual scheduler skips the parked actor's polls and
//! credits them; the thread runtime parks the actor's thread. Both return
//! one [`RunStats`].

use cagvt_base::time::WallNs;

pub mod clock;
pub mod thread_rt;
pub mod virtual_sched;

pub use clock::RealClock;
pub use thread_rt::{ThreadConfig, ThreadRuntime};
pub use virtual_sched::{VirtualConfig, VirtualScheduler};

/// Outcome of a run on either substrate.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Wall-clock instant at which the last actor finished: the simulated
    /// makespan under the virtual scheduler, real time since the start
    /// under threads.
    pub final_time: WallNs,
    /// Total actor steps executed.
    pub steps: u64,
    /// Executed steps that reported
    /// [`StepOutcome::Idle`](cagvt_base::actor::StepOutcome::Idle).
    pub idle_steps: u64,
    /// Polls the virtual scheduler skipped for parked actors (credited to
    /// their own counters), and those of them repeating a
    /// [`StepOutcome::Progress`](cagvt_base::actor::StepOutcome::Progress)
    /// step. Always 0 under threads, where a parked actor's polls never
    /// happen and nothing is credited.
    pub skipped_polls: u64,
    pub skipped_progress: u64,
    /// False if the run was cut off (the virtual scheduler's `horizon` or
    /// `max_steps`, the thread runtime's `timeout`), or if every live actor
    /// was parked with nothing left to wake it (where the polling scheduler
    /// would have spun until a valve).
    pub completed: bool,
}
