//! Real OS-thread runtime.
//!
//! Runs the identical actor state machines on one thread each, which makes
//! the library usable as an actual parallel simulator on multicore hosts.
//! Modeled step costs are *realized* by spinning until the shared clock
//! passes `now + cost`, so the cost model's delays (EPG work, message
//! latencies) remain meaningful in real time. Tests and examples use small
//! topologies; the figure harness uses the virtual scheduler instead.

use cagvt_base::actor::{Actor, StepOutcome};
use cagvt_base::time::WallNs;
use std::sync::Arc;

use crate::clock::RealClock;

/// Idle backoff: an actor spins through this many consecutive idle polls
/// before yielding its OS thread, which keeps oversubscribed hosts (more
/// actors than cores) live.
const IDLE_POLLS_BEFORE_YIELD: u32 = 64;
/// After this many consecutive yields on top of the spin phase, an idle
/// actor sleeps [`IDLE_SLEEP`] per poll, so long-idle actors stop burning
/// their core; any message delivery ends the nap at the next poll. A worker
/// held at a GVT barrier reports progress and never backs off.
const IDLE_YIELDS_BEFORE_SLEEP: u32 = 16;
/// Sleep length of the deepest backoff stage.
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(50);

/// Tunables of the thread runtime.
#[derive(Clone, Copy, Debug)]
pub struct ThreadConfig {
    /// Spin out each step's modeled cost in real time. Disable to run the
    /// engine flat-out (useful for functional tests where only the event
    /// outcomes matter, not the timing).
    pub realize_costs: bool,
    /// Abort the run if it exceeds this much real time.
    pub timeout: Option<std::time::Duration>,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        ThreadConfig { realize_costs: true, timeout: Some(std::time::Duration::from_secs(60)) }
    }
}

/// Statistics from a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadRunStats {
    /// Real time from start until the last actor finished.
    pub elapsed: WallNs,
    pub steps: u64,
    pub completed: bool,
}

/// Drives actors on dedicated OS threads.
pub struct ThreadRuntime {
    cfg: ThreadConfig,
}

impl ThreadRuntime {
    pub fn new(cfg: ThreadConfig) -> Self {
        ThreadRuntime { cfg }
    }

    /// Run all actors to completion. Panics in actor threads propagate.
    pub fn run(&self, actors: Vec<Box<dyn Actor>>) -> ThreadRunStats {
        assert!(!actors.is_empty(), "no actors to run");
        let clock = Arc::new(RealClock::new());
        let cfg = self.cfg;
        let deadline = cfg.timeout.map(|d| WallNs(d.as_nanos() as u64));

        let mut total_steps = 0u64;
        let mut completed = true;
        std::thread::scope(|scope| {
            let handles: Vec<_> = actors
                .into_iter()
                .map(|mut actor| {
                    let clock = Arc::clone(&clock);
                    scope.spawn(move || {
                        let mut steps = 0u64;
                        let mut idle_streak = 0u32;
                        loop {
                            let now = clock.now();
                            if let Some(d) = deadline {
                                if now > d {
                                    return (steps, false);
                                }
                            }
                            let result = actor.step(now);
                            steps += 1;
                            match result.outcome {
                                StepOutcome::Done => return (steps, true),
                                StepOutcome::Progress => {
                                    idle_streak = 0;
                                    if cfg.realize_costs && result.cost > WallNs::ZERO {
                                        clock.spin_until(now + result.cost);
                                    }
                                }
                                StepOutcome::Idle => {
                                    // Escalating backoff: spin (latency-
                                    // critical handoffs), then yield (other
                                    // runnable actors), then sleep (idle
                                    // actors stop burning their core). Any
                                    // progress resets the streak.
                                    idle_streak = idle_streak.saturating_add(1);
                                    if idle_streak < IDLE_POLLS_BEFORE_YIELD {
                                        std::hint::spin_loop();
                                    } else if idle_streak
                                        < IDLE_POLLS_BEFORE_YIELD + IDLE_YIELDS_BEFORE_SLEEP
                                    {
                                        std::thread::yield_now();
                                    } else {
                                        std::thread::sleep(IDLE_SLEEP);
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                let (steps, ok) = h.join().expect("actor thread panicked");
                total_steps += steps;
                completed &= ok;
            }
        });

        ThreadRunStats { elapsed: clock.now(), steps: total_steps, completed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::actor::StepResult;
    use cagvt_base::ids::ActorId;
    use cagvt_net::Mailbox;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Passes a hop-counting token back and forth. The consumer of hop
    /// `max_hops` stops; the *sender* of hop `max_hops` also knows the
    /// exchange is over, so both sides terminate.
    struct PingPong {
        id: ActorId,
        rx: Arc<Mailbox<u64>>,
        tx: Arc<Mailbox<u64>>,
        max_hops: u64,
        serve_first: bool,
        finished: bool,
        sum: Arc<AtomicU64>,
    }

    impl Actor for PingPong {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            if self.finished {
                return StepResult::done();
            }
            if self.serve_first {
                self.serve_first = false;
                self.tx.push(now, 1);
                return StepResult::progress(WallNs(100));
            }
            match self.rx.pop_ready(now) {
                Some(v) => {
                    self.sum.fetch_add(v, Ordering::Relaxed);
                    if v >= self.max_hops {
                        self.finished = true;
                    } else {
                        self.tx.push(now + WallNs(1_000), v + 1);
                        if v + 1 >= self.max_hops {
                            self.finished = true;
                        }
                    }
                    StepResult::progress(WallNs(100))
                }
                None => StepResult::idle(WallNs(50)),
            }
        }
    }

    #[test]
    fn ping_pong_across_threads() {
        let a_to_b = Arc::new(Mailbox::new());
        let b_to_a = Arc::new(Mailbox::new());
        let sum = Arc::new(AtomicU64::new(0));
        let max_hops = 39;
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(PingPong {
                id: ActorId(0),
                rx: b_to_a.clone(),
                tx: a_to_b.clone(),
                max_hops,
                serve_first: true,
                finished: false,
                sum: sum.clone(),
            }),
            Box::new(PingPong {
                id: ActorId(1),
                rx: a_to_b.clone(),
                tx: b_to_a.clone(),
                max_hops,
                serve_first: false,
                finished: false,
                sum: sum.clone(),
            }),
        ];
        let cfg = ThreadConfig { realize_costs: false, ..Default::default() };
        let stats = ThreadRuntime::new(cfg).run(actors);
        assert!(stats.completed);
        // Every hop value 1..=max_hops was consumed exactly once.
        let expected: u64 = (1..=max_hops).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn timeout_prevents_hangs() {
        struct Stuck {
            id: ActorId,
        }
        impl Actor for Stuck {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                StepResult::idle(WallNs(10))
            }
        }
        let cfg = ThreadConfig {
            timeout: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        };
        let stats = ThreadRuntime::new(cfg).run(vec![Box::new(Stuck { id: ActorId(0) })]);
        assert!(!stats.completed);
    }

    #[test]
    fn deep_idle_backoff_does_not_lose_wakeups() {
        // Consumer goes idle long enough to reach the sleep stage (the
        // producer's 10 000 polls outlast the spin and yield stages) while
        // the producer dawdles; the message must still be consumed.
        struct SlowProducer {
            id: ActorId,
            tx: Arc<Mailbox<u64>>,
            polls: u32,
        }
        impl Actor for SlowProducer {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, now: WallNs) -> StepResult {
                if self.polls > 0 {
                    self.polls -= 1;
                    return StepResult::idle(WallNs(10));
                }
                self.tx.push(now, 7);
                StepResult::done()
            }
        }
        struct Consumer {
            id: ActorId,
            rx: Arc<Mailbox<u64>>,
            got: Arc<AtomicU64>,
        }
        impl Actor for Consumer {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, now: WallNs) -> StepResult {
                match self.rx.pop_ready(now) {
                    Some(v) => {
                        self.got.store(v, Ordering::Relaxed);
                        StepResult::done()
                    }
                    None => StepResult::idle(WallNs(10)),
                }
            }
        }
        let mb = Arc::new(Mailbox::new());
        let got = Arc::new(AtomicU64::new(0));
        let cfg = ThreadConfig {
            realize_costs: false,
            timeout: Some(std::time::Duration::from_secs(10)),
        };
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Consumer { id: ActorId(0), rx: mb.clone(), got: got.clone() }),
            Box::new(SlowProducer { id: ActorId(1), tx: mb.clone(), polls: 10_000 }),
        ];
        let stats = ThreadRuntime::new(cfg).run(actors);
        assert!(stats.completed);
        assert_eq!(got.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn realized_costs_take_real_time() {
        struct Worker {
            id: ActorId,
            left: u32,
        }
        impl Actor for Worker {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                if self.left == 0 {
                    return StepResult::done();
                }
                self.left -= 1;
                StepResult::progress(WallNs(100_000)) // 0.1 ms per step
            }
        }
        let stats = ThreadRuntime::new(ThreadConfig::default())
            .run(vec![Box::new(Worker { id: ActorId(0), left: 10 })]);
        assert!(stats.completed);
        assert!(stats.elapsed >= WallNs(1_000_000), "10 x 0.1ms must take >= 1ms");
    }
}
