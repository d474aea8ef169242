//! Parking is invisible in results: a consumer that parks when idle takes
//! every non-idle step at the same instant as the same consumer polling,
//! whether a mailbox push, a broadcast, a pace notice or a timer wakes it,
//! and whether the notifier's clock ties the consumer's with a lower or a
//! higher actor id. The same holds for an actor that parks on progress
//! steps (a worker held at a barrier). Executed plus skipped polls equal
//! the polling run's, and the scheduler counts skipped polls by kind.

use cagvt_base::actor::{Actor, StepResult};
use cagvt_base::fault::FaultInjector;
use cagvt_base::ids::ActorId;
use cagvt_base::time::WallNs;
use cagvt_base::wake::{self, Park};
use cagvt_exec::{RunStats, VirtualConfig, VirtualScheduler};
use cagvt_net::Mailbox;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CONSUMER: ActorId = ActorId(1);
const POLL: WallNs = WallNs(100);
/// The consumer finishes at its first poll at or after this instant.
const END: u64 = 8_000;
/// Timers the consumer reacts to (between grid points, so it reacts at
/// the next one).
const TIMERS: [u64; 2] = [6_250, END];

/// State the notifiers change and the consumer reads.
#[derive(Default)]
struct Shared {
    mailbox: Mailbox<u64>,
    epoch: AtomicU64,
    pace: AtomicU64,
    /// Non-idle steps of every actor, as (actor, instant).
    log: Mutex<Vec<(u32, u64)>>,
    /// The consumer's executed idle polls, and the polls it was credited.
    idle: AtomicU64,
    skipped: AtomicU64,
}

/// Reacts to messages, epoch and pace changes and timers; idle otherwise.
struct Consumer {
    shared: Arc<Shared>,
    park: bool,
    seen_epoch: u64,
    seen_pace: u64,
    next_timer: usize,
}

impl Actor for Consumer {
    fn id(&self) -> ActorId {
        CONSUMER
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        let s = &self.shared;
        s.skipped.fetch_add(wake::take_skipped(CONSUMER), Ordering::Relaxed);
        let epoch = s.epoch.load(Ordering::Relaxed);
        let pace = s.pace.load(Ordering::Relaxed);
        let timer = TIMERS.get(self.next_timer).copied();
        let fired = timer.is_some_and(|t| now.0 >= t);
        if fired && timer == Some(END) {
            s.log.lock().push((CONSUMER.0, now.0));
            return StepResult::done();
        }
        if s.mailbox.pop_ready(now).is_some() || epoch != self.seen_epoch || pace != self.seen_pace
        {
            self.seen_epoch = epoch;
            self.seen_pace = pace;
        } else if fired {
            self.next_timer += 1;
        } else {
            s.idle.fetch_add(1, Ordering::Relaxed);
            if !self.park {
                return StepResult::idle(POLL);
            }
            let head = s.mailbox.head_deliver_at();
            let until = [timer.map(WallNs), head].into_iter().flatten().min();
            return StepResult::idle(POLL).parked(Park { until, pace: true });
        }
        s.log.lock().push((CONSUMER.0, now.0));
        StepResult::progress(WallNs(300))
    }
}

/// What a notifier does at one instant.
#[derive(Clone, Copy)]
enum Act {
    /// Push a message observable `delay` after now.
    Push(u64),
    Broadcast,
    Pace,
}

/// Steps every 100 ns until 9 µs, acting at the scheduled instants.
struct Notifier {
    id: ActorId,
    shared: Arc<Shared>,
    plan: Vec<(u64, Act)>,
}

impl Actor for Notifier {
    fn id(&self) -> ActorId {
        self.id
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        if now.0 >= 9_000 {
            return StepResult::done();
        }
        let s = &self.shared;
        for &(_, act) in self.plan.iter().filter(|(t, _)| *t == now.0) {
            match act {
                Act::Push(delay) => {
                    s.mailbox.push(now + WallNs(delay), now.0);
                    wake::notify_actor(CONSUMER, now + WallNs(delay));
                }
                Act::Broadcast => {
                    s.epoch.fetch_add(1, Ordering::Relaxed);
                    wake::notify_all();
                }
                Act::Pace => {
                    s.pace.fetch_add(1, Ordering::Relaxed);
                    wake::notify_pace();
                }
            }
        }
        s.log.lock().push((self.id.0, now.0));
        StepResult::progress(POLL)
    }
}

struct Outcome {
    log: Vec<(u32, u64)>,
    steps: u64,
    idle_steps: u64,
    consumer_idle: u64,
    skipped: u64,
}

fn run(park: bool, faults: Option<Arc<dyn FaultInjector>>) -> Outcome {
    let shared = Arc::new(Shared::default());
    // Actor 0 ties the consumer's clock and steps before it; actor 2 ties
    // it and steps after it.
    let low = vec![(1_000, Act::Push(0)), (3_000, Act::Push(450)), (4_000, Act::Broadcast)];
    let high = vec![(2_000, Act::Push(0)), (5_000, Act::Broadcast), (7_000, Act::Pace)];
    let consumer =
        Consumer { shared: Arc::clone(&shared), park, seen_epoch: 0, seen_pace: 0, next_timer: 0 };
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(Notifier { id: ActorId(0), shared: Arc::clone(&shared), plan: low }),
        Box::new(consumer),
        Box::new(Notifier { id: ActorId(2), shared: Arc::clone(&shared), plan: high }),
    ];
    let stats = VirtualScheduler::new(VirtualConfig { faults, ..Default::default() }).run(actors);
    assert!(stats.completed);
    let log = std::mem::take(&mut *shared.log.lock());
    Outcome {
        log,
        steps: stats.steps,
        idle_steps: stats.idle_steps,
        consumer_idle: shared.idle.load(Ordering::Relaxed),
        skipped: shared.skipped.load(Ordering::Relaxed),
    }
}

fn consumer_steps(o: &Outcome) -> Vec<u64> {
    o.log.iter().filter(|(id, _)| *id == CONSUMER.0).map(|&(_, t)| t).collect()
}

#[test]
fn parked_consumer_reacts_at_the_polling_instants() {
    let plain = run(false, None);
    let parked = run(true, None);
    assert_eq!(
        consumer_steps(&plain),
        [1_000, 2_100, 3_500, 4_000, 5_100, 6_300, 7_100, 8_000],
        "lower-id notifier seen at its instant, higher-id one a poll later"
    );
    assert_eq!(parked.log, plain.log, "every non-idle step at the same (actor, instant)");
    assert_eq!(plain.skipped, 0);
    assert!(parked.skipped > 0, "the consumer must actually park");
    assert_eq!(parked.consumer_idle + parked.skipped, plain.consumer_idle);
    assert_eq!(parked.steps + parked.skipped, plain.steps);
    assert_eq!(parked.idle_steps + parked.skipped, plain.idle_steps);
}

/// Doubles the consumer's step cost inside a window and counts every
/// `actor_cost` call per actor.
#[derive(Default)]
struct Straggle {
    calls: [AtomicU64; 3],
}

impl FaultInjector for Straggle {
    fn actor_cost(&self, actor: ActorId, now: WallNs, cost: WallNs) -> WallNs {
        self.calls[actor.0 as usize].fetch_add(1, Ordering::Relaxed);
        if actor == CONSUMER && (2_500..6_000).contains(&now.0) {
            WallNs(cost.0 * 2)
        } else {
            cost
        }
    }
}

#[test]
fn skipped_polls_walk_the_faulted_grid() {
    let run_with = |park| {
        let straggle = Arc::new(Straggle::default());
        let out = run(park, Some(Arc::clone(&straggle) as Arc<dyn FaultInjector>));
        let calls = straggle.calls.each_ref().map(|c| c.load(Ordering::Relaxed));
        (out, calls)
    };
    let (plain, plain_calls) = run_with(false);
    let (parked, parked_calls) = run_with(true);
    assert!(parked.skipped > 0);
    assert_eq!(parked.log, plain.log);
    assert_eq!(parked_calls, plain_calls, "one actor_cost call per step or skipped poll");
    assert_eq!(parked.steps + parked.skipped, plain.steps);
}

/// Held (a progress poll) until the first broadcast, idle until the
/// second, then done; asks to park every poll when `park` is set.
struct Holder {
    shared: Arc<Shared>,
    park: bool,
    seen_epoch: u64,
}

impl Actor for Holder {
    fn id(&self) -> ActorId {
        CONSUMER
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        let s = &self.shared;
        s.skipped.fetch_add(wake::take_skipped(CONSUMER), Ordering::Relaxed);
        let epoch = s.epoch.load(Ordering::Relaxed);
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            s.log.lock().push((CONSUMER.0, now.0));
        }
        let poll = match epoch {
            0 => StepResult::progress(POLL),
            1 => StepResult::idle(POLL),
            _ => return StepResult::done(),
        };
        if self.park {
            poll.parked(Park::default())
        } else {
            poll
        }
    }
}

/// The holder released by actor 0 at 3 µs (it steps first at a tie) and
/// by actor 2 at 7 µs (it steps after): its step log, the scheduler's
/// stats, and the polls credited to it.
fn run_holder(
    park: bool,
    faults: Option<Arc<dyn FaultInjector>>,
) -> (Vec<(u32, u64)>, RunStats, u64) {
    let shared = Arc::new(Shared::default());
    let notifier = |id, at| Notifier {
        id: ActorId(id),
        shared: Arc::clone(&shared),
        plan: vec![(at, Act::Broadcast)],
    };
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(notifier(0, 3_000)),
        Box::new(Holder { shared: Arc::clone(&shared), park, seen_epoch: 0 }),
        Box::new(notifier(2, 7_000)),
    ];
    let stats = VirtualScheduler::new(VirtualConfig { faults, ..Default::default() }).run(actors);
    assert!(stats.completed);
    let log = std::mem::take(&mut *shared.log.lock());
    (log, stats, shared.skipped.load(Ordering::Relaxed))
}

#[test]
fn parked_progress_steps_reenter_at_the_polling_instants() {
    for faulted in [false, true] {
        let [((plain_log, plain, _), plain_calls), ((log, parked, credited), calls)] =
            [false, true].map(|park| {
                let straggle = Arc::new(Straggle::default());
                let faults = faulted.then(|| Arc::clone(&straggle) as Arc<dyn FaultInjector>);
                let out = run_holder(park, faults);
                (out, straggle.calls.each_ref().map(|c| c.load(Ordering::Relaxed)))
            });
        let holder: Vec<u64> =
            log.iter().filter(|(id, _)| *id == CONSUMER.0).map(|&(_, t)| t).collect();
        assert_eq!(holder == [3_000, 7_100], !faulted, "the straggle moves the grid");
        assert_eq!(log, plain_log, "every step at the same (actor, instant)");
        assert_eq!(calls, plain_calls, "one actor_cost call per step or skipped poll");
        assert_eq!(plain.skipped_polls, 0);
        assert!(parked.skipped_progress > 0 && parked.skipped_polls > parked.skipped_progress);
        assert_eq!(credited, parked.skipped_polls, "every skipped poll is credited");
        assert_eq!(parked.steps + parked.skipped_polls, plain.steps);
        let skipped_idle = parked.skipped_polls - parked.skipped_progress;
        assert_eq!(parked.idle_steps + skipped_idle, plain.idle_steps);
        if !faulted {
            // Held polls at 100..=2_900 and idle polls at 3_100..=7_000.
            assert_eq!((parked.skipped_polls, parked.skipped_progress), (69, 29));
        }
    }
}

#[test]
fn all_parked_with_nothing_to_wake_is_incomplete() {
    struct Sleeper;
    impl Actor for Sleeper {
        fn id(&self) -> ActorId {
            ActorId(0)
        }
        fn step(&mut self, _now: WallNs) -> StepResult {
            StepResult::idle(POLL).parked(Park::default())
        }
    }
    let stats = VirtualScheduler::new(VirtualConfig::default()).run(vec![Box::new(Sleeper)]);
    assert!(!stats.completed);
    assert_eq!(stats.steps, 1);
}
