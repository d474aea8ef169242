//! Real OS-thread runtime.
//!
//! Runs the identical actor state machines on one thread each, which makes
//! the library usable as an actual parallel simulator on multicore hosts.
//! Modeled step costs are *realized* by spinning until the shared clock
//! passes `now + cost`, so the cost model's delays (EPG work, message
//! latencies) remain meaningful in real time. Tests and examples use small
//! topologies; the figure harness uses the virtual scheduler instead.
//!
//! Waiting follows the same [`wake`] protocol as under the virtual
//! scheduler. Every actor has an eventcount: an epoch its thread reads
//! before each step, and the thread's handle. Each actor thread installs a
//! [`wake`] board, and after each step the runtime drains the notices the
//! step posted and bumps and unparks the actors they cover: every actor for
//! [`notify_all`](wake::notify_all) and [`notify_pace`](wake::notify_pace),
//! the addressed one for [`notify_actor`](wake::notify_actor). A step
//! that returned a [`Park`](wake::Park) parks its thread only if the epoch
//! is still the one read before the step, and stays parked until it is
//! unparked or the earliest of the park's timer
//! ([`Park::until`](wake::Park::until)), the step's own
//! [`notify_self`](wake::notify_self) timer and the run's deadline passes.
//! Wakes can come early (the actor steps again and parks again) but not
//! late. A change whose notice is missing leaves its waiter parked until
//! the deadline, so the run returns incomplete instead of silently slowing
//! down. An idle step that does not park yields its thread once.

use cagvt_base::actor::{Actor, StepOutcome};
use cagvt_base::time::WallNs;
use cagvt_base::wake::{self, Notices};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::Duration;

use crate::clock::RealClock;
use crate::RunStats;

/// Tunables of the thread runtime.
#[derive(Clone, Copy, Debug)]
pub struct ThreadConfig {
    /// Spin out each step's modeled cost in real time. Disable to run the
    /// engine flat-out (useful for functional tests where only the event
    /// outcomes matter, not the timing).
    pub realize_costs: bool,
    /// Abort the run if it exceeds this much real time. With `None`, a run
    /// in which an actor parks on a change that nobody posts a notice for
    /// never returns.
    pub timeout: Option<Duration>,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        ThreadConfig { realize_costs: true, timeout: Some(Duration::from_secs(60)) }
    }
}

/// One run's shared state: the clock, the deadline and an eventcount per
/// actor id.
struct Run {
    realize_costs: bool,
    clock: RealClock,
    deadline: Option<WallNs>,
    /// By actor id: bumped by every notice that may concern the actor.
    epochs: Vec<AtomicU64>,
    /// By actor id: the actor's thread, registered when it starts.
    threads: Vec<OnceLock<Thread>>,
}

impl Run {
    /// Step `actor` on the calling thread until it is done or the deadline
    /// passes.
    fn drive(&self, actor: &mut dyn Actor) -> RunStats {
        let id = actor.id().0 as usize;
        self.threads[id].set(thread::current()).expect("actor ids are unique");
        let board = wake::install(0);
        let mut notices = Notices::default();
        let mut run = RunStats::default();
        loop {
            let epoch = self.epochs[id].load(Ordering::Acquire);
            let now = self.clock.now();
            if self.deadline.is_some_and(|d| now >= d) {
                return RunStats { final_time: now, ..run };
            }
            let result = actor.step(now);
            run.steps += 1;
            // The step's self timer wakes no thread; it only bounds its park.
            let own = if board.drain(&mut notices) {
                self.deliver(&notices);
                notices.own
            } else {
                None
            };
            match result.outcome {
                StepOutcome::Done => return RunStats { final_time: now, completed: true, ..run },
                StepOutcome::Progress if self.realize_costs => {
                    self.clock.spin_until(now + result.cost)
                }
                StepOutcome::Progress => {}
                StepOutcome::Idle => run.idle_steps += 1,
            }
            match result.park {
                Some(park) if self.epochs[id].load(Ordering::Acquire) == epoch => {
                    self.park_until(park.until.into_iter().chain(own).min())
                }
                None if result.outcome == StepOutcome::Idle => thread::yield_now(),
                _ => {}
            }
        }
    }

    /// The bump is `Release` and the thread's epoch reads are `Acquire`: a
    /// thread that reads the bumped epoch before a step sees every change
    /// the notifying step made. One that read the old epoch and parks is
    /// unparked after the bump (an `unpark` before the `park` makes it
    /// return at once), and `unpark` synchronizes with the `park` it ends.
    fn wake(&self, id: usize) {
        let Some(epoch) = self.epochs.get(id) else { return };
        epoch.fetch_add(1, Ordering::Release);
        if let Some(thread) = self.threads[id].get() {
            thread.unpark();
        }
    }

    /// Deliver the notices one step posted. A pace notice wakes every
    /// actor, which is at worst early.
    fn deliver(&self, notices: &Notices) {
        if notices.all || notices.pace {
            (0..self.epochs.len()).for_each(|id| self.wake(id));
        }
        for &(actor, _) in &notices.actors {
            self.wake(actor.0 as usize);
        }
    }

    /// Park the calling thread until it is unparked or the clock reaches
    /// the earlier of `until` and the deadline (with neither, until it is
    /// unparked).
    fn park_until(&self, until: Option<WallNs>) {
        match until.into_iter().chain(self.deadline).min() {
            None => thread::park(),
            Some(until) => {
                let now = self.clock.now();
                if until > now {
                    thread::park_timeout(Duration::from_nanos((until - now).0));
                }
            }
        }
    }
}

/// Drives actors on dedicated OS threads.
pub struct ThreadRuntime {
    cfg: ThreadConfig,
}

impl ThreadRuntime {
    pub fn new(cfg: ThreadConfig) -> Self {
        ThreadRuntime { cfg }
    }

    /// Run all actors to completion, or until the timeout. Panics in actor
    /// threads propagate. `final_time` is the real time at which the last
    /// actor finished (or was cut off); nothing is skipped or credited, so
    /// `skipped_polls` and `skipped_progress` are 0.
    pub fn run(&self, actors: Vec<Box<dyn Actor>>) -> RunStats {
        assert!(!actors.is_empty(), "no actors to run");
        let ids = actors.iter().map(|a| a.id().0 as usize + 1).max().unwrap_or(0);
        let run = Run {
            realize_costs: self.cfg.realize_costs,
            clock: RealClock::new(),
            deadline: self.cfg.timeout.map(|d| WallNs(d.as_nanos() as u64)),
            epochs: (0..ids).map(|_| AtomicU64::new(0)).collect(),
            threads: (0..ids).map(|_| OnceLock::new()).collect(),
        };
        let run = &run;
        thread::scope(|scope| {
            let handles: Vec<_> = actors
                .into_iter()
                .map(|mut actor| scope.spawn(move || run.drive(&mut *actor)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("actor thread panicked")).fold(
                RunStats { completed: true, ..Default::default() },
                |all, one| RunStats {
                    final_time: all.final_time.max(one.final_time),
                    steps: all.steps + one.steps,
                    idle_steps: all.idle_steps + one.idle_steps,
                    completed: all.completed && one.completed,
                    ..all
                },
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::actor::StepResult;
    use cagvt_base::ids::ActorId;
    use cagvt_base::wake::Park;
    use cagvt_net::Mailbox;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

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
        let cfg = ThreadConfig { timeout: Some(Duration::from_millis(50)), ..Default::default() };
        let stats = ThreadRuntime::new(cfg).run(vec![Box::new(Stuck { id: ActorId(0) })]);
        assert!(!stats.completed);
    }

    /// Consumes one value from `rx`. While it waits it parks with no timer
    /// if `park` is set, and polls otherwise.
    struct Consumer {
        id: ActorId,
        rx: Arc<Mailbox<u64>>,
        park: bool,
        polled: Arc<AtomicBool>,
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
                None => {
                    self.polled.store(true, Ordering::Release);
                    let idle = StepResult::idle(WallNs(10));
                    if self.park {
                        idle.parked(Park { until: None, pace: false })
                    } else {
                        idle
                    }
                }
            }
        }
    }

    /// Once the consumer has found its mailbox empty (and after `polls`
    /// more idle polls), pushes 7 into it and posts the push's notice to
    /// `notify`, if set.
    struct Producer {
        id: ActorId,
        tx: Arc<Mailbox<u64>>,
        polls: u32,
        notify: Option<ActorId>,
        polled: Arc<AtomicBool>,
    }

    impl Actor for Producer {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            if !self.polled.load(Ordering::Acquire) {
                return StepResult::idle(WallNs(10));
            }
            if self.polls > 0 {
                self.polls -= 1;
                return StepResult::idle(WallNs(10));
            }
            self.tx.push(now, 7);
            if let Some(consumer) = self.notify {
                wake::notify_actor(consumer, now);
            }
            StepResult::done()
        }
    }

    /// Runs a consumer and a producer; returns the run's stats and the
    /// value the consumer got (0 if none).
    fn hand_over(park: bool, notify: bool, polls: u32, timeout: Duration) -> (RunStats, u64) {
        let mb = Arc::new(Mailbox::new());
        let polled = Arc::new(AtomicBool::new(false));
        let got = Arc::new(AtomicU64::new(0));
        let consumer = ActorId(0);
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Consumer {
                id: consumer,
                rx: mb.clone(),
                park,
                polled: polled.clone(),
                got: got.clone(),
            }),
            Box::new(Producer {
                id: ActorId(1),
                tx: mb,
                polls,
                notify: notify.then_some(consumer),
                polled,
            }),
        ];
        let cfg = ThreadConfig { realize_costs: false, timeout: Some(timeout) };
        let stats = ThreadRuntime::new(cfg).run(actors);
        (stats, got.load(Ordering::Relaxed))
    }

    #[test]
    fn a_parked_consumer_wakes_on_its_notice() {
        for _ in 0..20 {
            let (stats, got) = hand_over(true, true, 0, Duration::from_secs(10));
            assert!(stats.completed, "the notice did not wake the consumer");
            assert_eq!(got, 7);
        }
    }

    #[test]
    fn a_lost_notice_stalls_the_run_into_its_timeout() {
        // The push lands after the consumer's empty poll, and without its
        // notice nothing unparks the consumer before the deadline.
        let timeout = Duration::from_millis(300);
        let t0 = std::time::Instant::now();
        let (stats, got) = hand_over(true, false, 0, timeout);
        assert!(!stats.completed, "the consumer saw a push nobody notified");
        assert_eq!(got, 0);
        assert!(t0.elapsed() >= timeout);
    }

    #[test]
    fn an_idle_actor_that_never_parks_still_gets_its_message() {
        // The consumer polls without parking while the producer dawdles
        // for 10 000 polls and posts no notice: its polling must find the
        // message anyway.
        let (stats, got) = hand_over(false, false, 10_000, Duration::from_secs(10));
        assert!(stats.completed);
        assert_eq!(got, 7);
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
        assert!(stats.final_time >= WallNs(1_000_000), "10 x 0.1ms must take >= 1ms");
    }
}
