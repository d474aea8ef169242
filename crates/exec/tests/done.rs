//! The runtime contract an actor's `Done` relies on: neither runtime steps
//! an actor again after it reported `Done`, so an actor needs no guard
//! against a later step. That holds also when the actors still running
//! keep posting notices to the finished ones.

use cagvt_base::actor::{Actor, StepResult};
use cagvt_base::ids::ActorId;
use cagvt_base::time::WallNs;
use cagvt_base::wake;
use cagvt_exec::{ThreadConfig, ThreadRuntime, VirtualConfig, VirtualScheduler};
use std::time::Duration;

/// Reports `Done` after `left` progress steps and panics if stepped after.
/// Every progress step wakes every actor and addresses a notice to each
/// lower id, which has finished by then or will soon.
struct Finite {
    id: ActorId,
    left: u32,
    done: bool,
}

impl Actor for Finite {
    fn id(&self) -> ActorId {
        self.id
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        assert!(!self.done, "actor {} stepped after it reported Done", self.id.0);
        if self.left == 0 {
            self.done = true;
            return StepResult::done();
        }
        self.left -= 1;
        wake::notify_all();
        for id in 0..self.id.0 {
            wake::notify_actor(ActorId(id), now);
        }
        StepResult::progress(WallNs(10))
    }
}

/// Actors that finish at different steps, so the first ones are done
/// while the others still run.
fn actors() -> Vec<Box<dyn Actor>> {
    (0..4u32)
        .map(|i| Box::new(Finite { id: ActorId(i), left: 5 * i, done: false }) as Box<dyn Actor>)
        .collect()
}

#[test]
fn the_virtual_scheduler_never_steps_a_done_actor() {
    let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors());
    assert!(stats.completed);
    // Each actor's progress steps plus its one `Done` step.
    assert_eq!(stats.steps, (0..4u64).map(|i| 5 * i + 1).sum::<u64>());
}

#[test]
fn the_thread_runtime_never_steps_a_done_actor() {
    let cfg = ThreadConfig { realize_costs: false, timeout: Some(Duration::from_secs(30)) };
    let stats = ThreadRuntime::new(cfg).run(actors());
    assert!(stats.completed, "threaded run timed out");
    assert_eq!(stats.steps, (0..4u64).map(|i| 5 * i + 1).sum::<u64>());
}
