//! Deterministic virtual-cluster scheduler.

use cagvt_base::actor::{Actor, StepOutcome};
use cagvt_base::fault::FaultInjector;
use cagvt_base::ids::ActorId;
use cagvt_base::metrics::MetricsSink;
use cagvt_base::time::WallNs;
use cagvt_base::trace::{TraceRecord, TraceSink};
use cagvt_base::wake::{self, Notices, Park};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::RunStats;

/// Minimum clock advance for a step that reported zero cost. Keeps
/// virtual time strictly advancing so idle polling cannot livelock the
/// scheduler.
const MIN_ADVANCE: WallNs = WallNs(50);

/// Tunables of the virtual scheduler.
#[derive(Clone, Default)]
pub struct VirtualConfig {
    /// Hard stop: abandon the run if any actor's clock would exceed this.
    /// `None` trusts the actors to terminate.
    pub horizon: Option<WallNs>,
    /// Hard stop on total step count (debugging aid).
    pub max_steps: Option<u64>,
    /// Fault injector consulted to scale each step's charged cost (node
    /// straggle). `None` runs the cluster clean.
    pub faults: Option<Arc<dyn FaultInjector>>,
    /// Trace sink observing the run (actor retirements here; the engine
    /// layers record through their own handles to the same sink). Purely
    /// observational: recording never changes a charged cost.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Per-GVT-epoch metrics sink (consumed by the engine's GVT core; the
    /// scheduler itself never consults it). Same observational contract as
    /// `trace`.
    pub metrics: Option<Arc<dyn MetricsSink>>,
}

impl std::fmt::Debug for VirtualConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualConfig")
            .field("horizon", &self.horizon)
            .field("max_steps", &self.max_steps)
            .field("faults", &self.faults.is_some())
            .field("trace", &self.trace.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

/// Drives a set of actors in virtual time.
///
/// Invariant: the actor stepped next is always the one with the minimum
/// clock (ties broken by [`ActorId`]), so all shared
/// state mutations happen in a globally ordered, reproducible sequence.
///
/// ## Parking
///
/// Any step may ask to be parked ([`StepResult::park`]). The actor
/// then leaves the heap and its repeat polls are not executed. Its poll
/// grid — the instants polling would have stepped it at, each advanced by
/// `max(actor_cost(repeated poll), MIN_ADVANCE)` — is walked lazily when a
/// wake arrives: with no fault injector every step is the same and the
/// walk is one division, otherwise it is one `actor_cost` call per skipped
/// poll.
///
/// * a [`notify_all`](wake::notify_all) (or, for actors parked with
///   [`Park::pace`], a [`notify_pace`](wake::notify_pace)) posted by the
///   step at `(clock, id)` re-enters the actor at the first grid instant
///   `g` with `(g, actor id) > (clock, id)`: the first poll that would
///   have seen the change. The stepping actor's own notices wake it at its
///   very next poll;
/// * a [`notify_actor`](wake::notify_actor) for instant `at` does the same
///   with `g >= at` as well (later than the notifier, it becomes a timer);
/// * a timer ([`Park::until`], or a [`notify_self`](wake::notify_self)
///   posted by the parking step) re-enters the actor at the first grid
///   instant at or after it, once no step before that instant remains.
///
/// Wakes can come early (the actor re-polls and parks again) but never
/// late, so every actor observes every change at the same instant as under
/// polling and runs are bit-identical with or without parking.
///
/// [`StepResult::park`]: cagvt_base::actor::StepResult::park
pub struct VirtualScheduler {
    cfg: VirtualConfig,
}

/// A parked actor: where its poll grid stands and what wakes it.
#[derive(Clone, Copy)]
struct Parked {
    /// The next grid instant, the first poll not yet skipped.
    next: u64,
    /// The repeated poll's reported cost and outcome.
    cost: WallNs,
    outcome: StepOutcome,
    park: Park,
    /// Distinguishes this parking from earlier ones in timer entries.
    gen: u32,
}

/// The heap of runnable actors: `(clock, actor id, slot)`, min-first.
type Heap = BinaryHeap<Reverse<(u64, u32, usize)>>;

/// One run's parked actors, by slot, and the wake board that reaches them.
struct Parking {
    board: wake::Installed,
    notices: Notices,
    ids: Vec<u32>,
    /// Slot of each actor id (`usize::MAX` for ids not in the run).
    slot_of: Vec<usize>,
    slots: Vec<Option<Parked>>,
    count: usize,
    pace: usize,
    gens: u32,
    /// Polls skipped so far, repeating idle and progress steps.
    skipped: [u64; 2],
    /// `(until, slot, gen)` of each timer set, earliest first; entries of
    /// woken or re-timed parkings are skipped when they surface.
    timers: BinaryHeap<Reverse<(u64, usize, u32)>>,
}

/// The first instant `g` of actor `id`'s poll grid from `next` with
/// `g >= at` and `(g, id) > after`, and the number of polls before it. The
/// grid advances by `step(g)` from each instant `g`.
fn walk_polls(
    next: u64,
    at: u64,
    after: (u64, u32),
    id: u32,
    mut step: impl FnMut(u64) -> u64,
) -> (u64, u64) {
    let (mut g, mut skipped) = (next, 0);
    while g < at || (g, id) <= after {
        g += step(g);
        skipped += 1;
    }
    (g, skipped)
}

/// [`walk_polls`] for a grid of fixed `step`, in closed form: the bounds
/// amount to `g >= lo`, so the grid takes `ceil((lo - next) / step)` steps.
fn first_poll(next: u64, step: u64, at: u64, after: (u64, u32), id: u32) -> (u64, u64) {
    let lo = at.max(after.0 + (id <= after.1) as u64);
    let skipped = lo.saturating_sub(next).div_ceil(step);
    (next + skipped * step, skipped)
}

impl Parking {
    fn new(ids: Vec<u32>) -> Self {
        let id_bound = ids.iter().map(|&id| id as usize + 1).max().unwrap_or(0);
        let mut slot_of = vec![usize::MAX; id_bound];
        for (slot, &id) in ids.iter().enumerate() {
            slot_of[id as usize] = slot;
        }
        Parking {
            board: wake::install(id_bound),
            notices: Notices::default(),
            slots: vec![None; ids.len()],
            ids,
            slot_of,
            count: 0,
            pace: 0,
            gens: 0,
            skipped: [0; 2],
            timers: BinaryHeap::new(),
        }
    }

    /// Park `slot`, whose next poll would be at `next`.
    fn park(&mut self, slot: usize, next: u64, cost: WallNs, outcome: StepOutcome, park: Park) {
        self.gens = self.gens.wrapping_add(1);
        let gen = self.gens;
        self.slots[slot] = Some(Parked { next, cost, outcome, park, gen });
        self.count += 1;
        self.pace += park.pace as usize;
        if let Some(until) = park.until {
            self.timers.push(Reverse((until.0, slot, gen)));
        }
    }

    /// Re-enter parked `slot` at its first grid instant `g` with `g >= at`
    /// and `(g, id) > after`, crediting the polls skipped before it.
    fn wake(
        &mut self,
        cfg: &VirtualConfig,
        heap: &mut Heap,
        slot: usize,
        at: u64,
        after: (u64, u32),
    ) {
        let p = self.slots[slot].take().expect("slot is parked");
        self.count -= 1;
        self.pace -= p.park.pace as usize;
        let id = self.ids[slot];
        let (g, skipped) = match &cfg.faults {
            None => first_poll(p.next, p.cost.max(MIN_ADVANCE).0, at, after, id),
            Some(f) => walk_polls(p.next, at, after, id, |g| {
                f.actor_cost(ActorId(id), WallNs(g), p.cost).max(MIN_ADVANCE).0
            }),
        };
        if skipped > 0 {
            self.board.credit(ActorId(id), skipped);
            self.skipped[(p.outcome == StepOutcome::Progress) as usize] += skipped;
        }
        heap.push(Reverse((g, id, slot)));
    }

    /// Fire the earliest timer if no step before it remains: every later
    /// step (and every wake it posts) is then at or after the timer, so the
    /// polls skipped before it are final. Returns whether one fired.
    fn fire_timer(&mut self, cfg: &VirtualConfig, heap: &mut Heap) -> bool {
        while let Some(&Reverse((until, slot, gen))) = self.timers.peek() {
            let live = matches!(self.slots[slot],
                Some(p) if p.gen == gen && p.park.until == Some(WallNs(until)));
            if !live {
                self.timers.pop();
                continue;
            }
            if heap.peek().is_some_and(|Reverse((clock, _, _))| *clock < until) {
                return false;
            }
            self.wake(cfg, heap, slot, until, (0, 0));
            return true;
        }
        false
    }

    /// Deliver the notices posted by the step at `after = (clock, id)`. A
    /// self timer is that actor's notice to itself.
    fn deliver(&mut self, cfg: &VirtualConfig, heap: &mut Heap, after: (u64, u32)) {
        if !self.board.drain(&mut self.notices) || self.count == 0 {
            return;
        }
        if let Some(at) = self.notices.own {
            self.notices.actors.push((ActorId(after.1), at));
        }
        let (all, pace) = (self.notices.all, self.notices.pace);
        if all || (pace && self.pace > 0) {
            for slot in 0..self.slots.len() {
                if matches!(self.slots[slot], Some(p) if all || p.park.pace) {
                    self.wake(cfg, heap, slot, 0, after);
                }
            }
        }
        for i in 0..self.notices.actors.len() {
            let (actor, at) = self.notices.actors[i];
            let slot = self.slot_of.get(actor.0 as usize).copied().unwrap_or(usize::MAX);
            let Some(p) = self.slots.get_mut(slot).and_then(Option::as_mut) else { continue };
            if at.0 <= after.0 {
                self.wake(cfg, heap, slot, at.0, after);
            } else if p.park.until.is_none_or(|u| at < u) {
                // Later than the notifier: a timer.
                p.park.until = Some(at);
                self.timers.push(Reverse((at.0, slot, p.gen)));
            }
        }
    }
}

impl VirtualScheduler {
    pub fn new(cfg: VirtualConfig) -> Self {
        VirtualScheduler { cfg }
    }

    /// Run the actors to completion (all [`StepOutcome::Done`]) or until a
    /// safety valve triggers.
    pub fn run(&self, mut actors: Vec<Box<dyn Actor>>) -> RunStats {
        assert!(!actors.is_empty(), "no actors to schedule");
        let mut heap: Heap =
            actors.iter().enumerate().map(|(slot, a)| Reverse((0u64, a.id().0, slot))).collect();
        let mut parking = Parking::new(actors.iter().map(|a| a.id().0).collect());

        let mut live = actors.len();
        let mut run = RunStats { completed: true, ..Default::default() };

        while live > 0 {
            if let Some(max) = self.cfg.max_steps {
                if run.steps >= max {
                    run.completed = false;
                    break;
                }
            }
            if parking.fire_timer(&self.cfg, &mut heap) {
                continue;
            }
            let Some(mut top) = heap.peek_mut() else {
                // Every live actor is parked and nothing can wake one.
                run.completed = false;
                break;
            };
            let Reverse((clock, id, slot)) = *top;
            let now = WallNs(clock);
            if let Some(horizon) = self.cfg.horizon {
                if now > horizon {
                    run.completed = false;
                    break;
                }
            }
            let result = actors[slot].step(now);
            run.steps += 1;
            match result.outcome {
                StepOutcome::Done => {
                    PeekMut::pop(top);
                    live -= 1;
                    run.final_time = run.final_time.max(now);
                    if let Some(tr) = &self.cfg.trace {
                        tr.record(now, &TraceRecord::ActorDone { actor: id });
                    }
                }
                outcome => {
                    if outcome == StepOutcome::Idle {
                        run.idle_steps += 1;
                    }
                    let cost = match &self.cfg.faults {
                        Some(f) => f.actor_cost(ActorId(id), now, result.cost),
                        None => result.cost,
                    };
                    let next = clock + cost.max(MIN_ADVANCE).0;
                    match result.park {
                        Some(park) => {
                            PeekMut::pop(top);
                            parking.park(slot, next, result.cost, outcome, park);
                        }
                        // Reposition in place: one sift-down on drop instead
                        // of a pop (sift-down) plus push (sift-up). When the
                        // actor's new clock is still the heap minimum — the
                        // common case for a worker streaming cheap events —
                        // the sift terminates at the root. The comparator is
                        // a total order over (clock, id, slot), so the step
                        // sequence is identical to the pop/push formulation.
                        _ => {
                            *top = Reverse((next, id, slot));
                            drop(top);
                        }
                    }
                }
            }
            parking.deliver(&self.cfg, &mut heap, (clock, id));
        }

        let [idle, progress] = parking.skipped;
        RunStats { skipped_polls: idle + progress, skipped_progress: progress, ..run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::actor::StepResult;
    use cagvt_base::ids::ActorId;
    use cagvt_base::rng::Pcg32;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// The closed form lands on the instant, and skips the polls, that
    /// walking the grid one step at a time does: on the edge cases (an
    /// instant exactly at `at`, or at `after.0` with the id on either side
    /// of `after.1`, and steps raised to `MIN_ADVANCE`) and on random grids.
    #[test]
    fn closed_form_poll_walk_matches_the_loop() {
        let check = |next: u64, cost: u64, at: u64, after: (u64, u32), id: u32| {
            let step = cost.max(MIN_ADVANCE.0);
            let want = walk_polls(next, at, after, id, |_| step);
            assert_eq!(
                first_poll(next, step, at, after, id),
                want,
                "next {next} cost {cost} at {at} after {after:?} id {id}"
            );
            want
        };
        // A grid 100, 200, 300, ...: `at` on an instant, `at` between two.
        assert_eq!(check(100, 100, 300, (0, 0), 5), (300, 2));
        assert_eq!(check(100, 100, 301, (0, 0), 5), (400, 3));
        // An instant at `after.0`: taken only if the id orders after it.
        assert_eq!(check(100, 100, 0, (300, 4), 5), (300, 2));
        assert_eq!(check(100, 100, 0, (300, 5), 5), (400, 3));
        assert_eq!(check(100, 100, 0, (300, 6), 5), (400, 3));
        // Both bounds at once; the later one decides.
        assert_eq!(check(100, 100, 300, (300, 7), 5), (400, 3));
        // Already past both bounds: nothing is skipped.
        assert_eq!(check(500, 100, 300, (400, 9), 5), (500, 0));
        // A cost under `MIN_ADVANCE` steps by `MIN_ADVANCE`.
        assert_eq!(check(0, 0, 120, (0, 0), 1), (150, 3));
        assert_eq!(check(0, 7, 0, (100, 1), 1), (150, 3));
        let mut rng = Pcg32::new(9, 9);
        for _ in 0..100_000 {
            let next = rng.next_bounded(10_000) as u64;
            let cost = rng.next_bounded(300) as u64;
            let at = rng.next_bounded(20_000) as u64;
            // Often exactly on the grid, to hit the boundary.
            let step = cost.max(MIN_ADVANCE.0);
            let on_grid = next + step * rng.next_bounded(100) as u64;
            let after_t =
                if rng.next_bounded(2) == 0 { on_grid } else { rng.next_bounded(20_000) as u64 };
            let at = if rng.next_bounded(4) == 0 { on_grid } else { at };
            check(next, cost, at, (after_t, rng.next_bounded(4)), rng.next_bounded(4));
        }
    }

    /// Appends (actor, step-time) to a shared trace; finishes after `n`
    /// steps of fixed cost.
    struct Tracer {
        id: ActorId,
        cost: WallNs,
        left: u32,
        trace: Arc<parking_lot::Mutex<Vec<(u32, u64)>>>,
    }

    impl Actor for Tracer {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            if self.left == 0 {
                return StepResult::done();
            }
            self.left -= 1;
            self.trace.lock().push((self.id.0, now.0));
            StepResult::progress(self.cost)
        }
    }

    #[test]
    fn steps_lowest_clock_first() {
        let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Tracer { id: ActorId(0), cost: WallNs(100), left: 3, trace: trace.clone() }),
            Box::new(Tracer { id: ActorId(1), cost: WallNs(30), left: 10, trace: trace.clone() }),
        ];
        let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
        assert!(stats.completed);
        let t = trace.lock();
        // Times must be globally non-decreasing: min-clock-first scheduling.
        for w in t.windows(2) {
            assert!(w[0].1 <= w[1].1, "out of order: {:?}", *t);
        }
        // Actor 1 (cheap steps) runs several times between actor 0's steps.
        assert_eq!(t.iter().filter(|(id, _)| *id == 1).count(), 10);
    }

    #[test]
    fn ties_break_by_actor_id_deterministically() {
        let run = || {
            let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|i| {
                    Box::new(Tracer {
                        id: ActorId(i),
                        cost: WallNs(10),
                        left: 5,
                        trace: trace.clone(),
                    }) as Box<dyn Actor>
                })
                .collect();
            VirtualScheduler::new(VirtualConfig::default()).run(actors);
            let t = trace.lock().clone();
            t
        };
        assert_eq!(run(), run(), "identical inputs must produce identical schedules");
    }

    #[test]
    fn zero_cost_steps_still_advance() {
        struct Zeno {
            id: ActorId,
            left: u32,
        }
        impl Actor for Zeno {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                if self.left == 0 {
                    return StepResult::done();
                }
                self.left -= 1;
                StepResult::progress(WallNs::ZERO)
            }
        }
        let stats = VirtualScheduler::new(VirtualConfig::default())
            .run(vec![Box::new(Zeno { id: ActorId(0), left: 100 })]);
        assert!(stats.completed);
        // 100 zero-cost steps advanced by MIN_ADVANCE (50 ns) each.
        assert_eq!(stats.final_time, WallNs(100 * 50));
    }

    #[test]
    fn horizon_cuts_off_runaway_actors() {
        struct Forever {
            id: ActorId,
        }
        impl Actor for Forever {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                StepResult::idle(WallNs(1_000))
            }
        }
        let cfg = VirtualConfig { horizon: Some(WallNs(100_000)), ..Default::default() };
        let stats = VirtualScheduler::new(cfg).run(vec![Box::new(Forever { id: ActorId(0) })]);
        assert!(!stats.completed);
        assert!(stats.idle_steps > 0);
    }

    #[test]
    fn max_steps_valve() {
        struct Forever {
            id: ActorId,
        }
        impl Actor for Forever {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                StepResult::progress(WallNs(1))
            }
        }
        let cfg = VirtualConfig { max_steps: Some(500), ..Default::default() };
        let stats = VirtualScheduler::new(cfg).run(vec![Box::new(Forever { id: ActorId(0) })]);
        assert!(!stats.completed);
        assert_eq!(stats.steps, 500);
    }

    #[test]
    fn fault_injector_scales_charged_cost() {
        use cagvt_base::fault::FaultInjector;

        /// Doubles every step cost of actor 0; leaves others untouched.
        struct DoubleActorZero;
        impl FaultInjector for DoubleActorZero {
            fn actor_cost(&self, actor: ActorId, _now: WallNs, cost: WallNs) -> WallNs {
                if actor == ActorId(0) {
                    WallNs(cost.0 * 2)
                } else {
                    cost
                }
            }
        }

        let run = |faults: Option<Arc<dyn FaultInjector>>| {
            let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let actors: Vec<Box<dyn Actor>> = vec![Box::new(Tracer {
                id: ActorId(0),
                cost: WallNs(100),
                left: 4,
                trace: trace.clone(),
            })];
            let cfg = VirtualConfig { faults, ..Default::default() };
            let stats = VirtualScheduler::new(cfg).run(actors);
            assert!(stats.completed);
            stats.final_time
        };
        // Clean: steps land at 0,100,200,300; done check at 400.
        assert_eq!(run(None), WallNs(400));
        // Straggled: each 100ns step is charged 200ns.
        assert_eq!(run(Some(Arc::new(DoubleActorZero))), WallNs(800));
    }

    #[test]
    fn message_passing_respects_deliver_times() {
        use cagvt_net::Mailbox;

        // Sender posts 10 messages spaced 1us apart in simulated time with
        // 5us propagation; receiver records the clock at which it observed
        // each. Observation must never precede deliver_at.
        struct Sender {
            id: ActorId,
            mb: Arc<Mailbox<u64>>,
            next: u32,
        }
        impl Actor for Sender {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, now: WallNs) -> StepResult {
                if self.next == 10 {
                    return StepResult::done();
                }
                let deliver_at = now + WallNs(5_000);
                self.mb.push(deliver_at, deliver_at.0);
                self.next += 1;
                StepResult::progress(WallNs(1_000))
            }
        }
        struct Receiver {
            id: ActorId,
            mb: Arc<Mailbox<u64>>,
            got: u32,
            violations: Arc<AtomicU64>,
        }
        impl Actor for Receiver {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, now: WallNs) -> StepResult {
                if self.got == 10 {
                    return StepResult::done();
                }
                match self.mb.pop_ready(now) {
                    Some(deliver_at) => {
                        if now.0 < deliver_at {
                            self.violations.fetch_add(1, Ordering::Relaxed);
                        }
                        self.got += 1;
                        StepResult::progress(WallNs(200))
                    }
                    None => StepResult::idle(WallNs(100)),
                }
            }
        }

        let mb = Arc::new(Mailbox::new());
        let violations = Arc::new(AtomicU64::new(0));
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Sender { id: ActorId(0), mb: mb.clone(), next: 0 }),
            Box::new(Receiver {
                id: ActorId(1),
                mb: mb.clone(),
                got: 0,
                violations: violations.clone(),
            }),
        ];
        let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
        assert!(stats.completed);
        assert_eq!(violations.load(Ordering::Relaxed), 0);
        assert!(mb.is_empty());
    }
}
