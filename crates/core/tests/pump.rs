//! Unit-level tests of the MPI pump: outbox draining, inbound routing,
//! lock charging, the queue-depth signal, and the dedicated MPI actor's
//! parking.

use cagvt_base::actor::{Actor, StepOutcome, StepResult};
use cagvt_base::ids::{ActorId, EventId, LaneId, LpId, NodeId};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::wake::Park;
use cagvt_core::cluster::build_shared;
use cagvt_core::event::{AntiMsg, EventMsg, RemoteEnv, TaggedMsg};
use cagvt_core::gvt::MpiGvt;
use cagvt_core::mpi_actor::{MpiActor, MpiPump};
use cagvt_core::node::EngineShared;
use cagvt_core::testmodel::MiniHold;
use cagvt_core::SimConfig;
use cagvt_exec::{RunStats, VirtualConfig, VirtualScheduler};
use cagvt_net::MpiMode;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A node-side GVT half that does nothing: these tests drive traffic only.
struct NoGvt;

impl MpiGvt for NoGvt {
    fn step(&mut self, _now: WallNs) -> WallNs {
        WallNs::ZERO
    }
}

fn env(dst_node: u16, dst_lane: u16, seq: u32) -> RemoteEnv<u32> {
    RemoteEnv {
        dst_node: NodeId(dst_node),
        dst_lane: LaneId(dst_lane),
        tagged: TaggedMsg {
            msg: EventMsg::Anti(AntiMsg {
                recv_time: VirtualTime::new(1.0),
                dst: LpId(0),
                id: EventId::new(LpId(0), seq),
            }),
            tag: 0,
        },
    }
}

#[test]
fn pump_moves_outbox_to_fabric_and_routes_inbound() {
    let cfg = SimConfig::small(2, 2);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump0 = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NoGvt));
    let mut pump1 = MpiPump::new(NodeId(1), Arc::clone(&shared), Box::new(NoGvt));

    // Worker on node 0 posts two remote messages for node 1 lane 1.
    shared.nodes[0].outbox.push(WallNs(0), env(1, 1, 0));
    shared.nodes[0].outbox.push(WallNs(0), env(1, 1, 1));
    assert_eq!(shared.nodes[0].outbox.len(), 2);

    let (charge, moved) = pump0.pump(WallNs(10));
    assert!(moved);
    assert!(charge >= cfg.cost.mpi_send, "per-message costs are paid");
    assert_eq!(shared.nodes[0].outbox.len(), 0, "outbox drained");

    // Node 1's pump routes them to lane 1 once the wire latency passes.
    let (_, moved_early) = pump1.pump(WallNs(20));
    assert!(!moved_early, "nothing deliverable before the wire latency");
    let late = WallNs(10_000_000);
    let (_, moved_late) = pump1.pump(late);
    assert!(moved_late);
    assert_eq!(shared.nodes[1].lane_queues[1].len(), 2, "routed to the right lane");
    assert_eq!(shared.nodes[1].lane_queues[0].len(), 0);
    assert_eq!(pump0.counters.sent, 2);
    assert_eq!(pump1.counters.received, 2);
}

#[test]
fn pump_publishes_queue_depth_signal() {
    let mut cfg = SimConfig::small(2, 2);
    cfg.spec.mpi_mode = MpiMode::PerWorker;
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NoGvt));

    for seq in 0..5 {
        shared.nodes[0].outbox.push(WallNs(0), env(1, 0, seq));
    }
    // A PerWorker pump only receives: the depth is still reported even
    // though this pump does not transmit.
    pump.pump(WallNs(0));
    assert_eq!(shared.gvt_core.mpi_queue_depth[0].load(Ordering::Relaxed), 5);
    assert_eq!(shared.gvt_core.max_mpi_queue_depth(), 5);
    assert_eq!(shared.nodes[0].outbox.len(), 5, "receive-only pump leaves the outbox");
}

#[test]
fn locked_pump_charges_through_the_node_lock() {
    let mut cfg = SimConfig::small(2, 1);
    cfg.spec.mpi_mode = MpiMode::PerWorker;
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NoGvt));
    // One message from node 1 arrives on node 0's fabric inbox.
    shared.fabric.send(NodeId(1), NodeId(0), WallNs(0), env(0, 0, 0), &cfg.cost);
    let now = WallNs(10_000_000);
    let (charge, moved) = pump.pump(now);
    assert!(moved);
    // Worker-context pump: poll + lock hold + receive are all charged.
    assert!(charge >= cfg.cost.mpi_poll + cfg.cost.mpi_recv + cfg.cost.mpi_lock_hold);
    // The receive booked the node lock after the poll: a caller arriving
    // at the pump's start waits until the end of that one hold.
    let booked = cfg.cost.mpi_poll + cfg.cost.mpi_recv + cfg.cost.mpi_lock_hold;
    assert_eq!(shared.nodes[0].mpi_lock.acquire(now, WallNs::ZERO), booked);
    assert_eq!(shared.nodes[0].lane_queues[0].len(), 1, "routed to the destination lane");
}

type Shared = Arc<EngineShared<MiniHold>>;

/// Node `node`'s dedicated MPI actor, with no GVT work.
fn mpi_actor(shared: &Shared, node: u16) -> MpiActor<MiniHold> {
    let pump = MpiPump::new(NodeId(node), Arc::clone(shared), Box::new(NoGvt));
    MpiActor::new(shared.cfg.spec.mpi_actor(NodeId(node)), pump)
}

#[test]
fn an_idle_dedicated_actor_parks_until_its_earliest_head() {
    let shared = build_shared(Arc::new(MiniHold::default()), SimConfig::small(2, 2));
    let mut actor = mpi_actor(&shared, 0);
    let idle_poll = shared.cfg.cost.idle_poll;

    // Nothing queued: a pure poll with no timer.
    let r = actor.step(WallNs(0));
    assert_eq!((r.outcome, r.cost), (StepOutcome::Idle, idle_poll));
    assert_eq!(r.park, Some(Park { until: None, pace: false }));

    // A post not yet ready, then an inbound message in flight: the timer
    // is the earlier of the two heads, whichever queue holds it.
    shared.nodes[0].outbox.push(WallNs(90_000), env(1, 0, 0));
    let r = actor.step(WallNs(1_000));
    assert_eq!(r.outcome, StepOutcome::Idle, "nothing is ready yet");
    assert_eq!(r.park.and_then(|p| p.until), Some(WallNs(90_000)));
    let arrives =
        shared.fabric.send(NodeId(1), NodeId(0), WallNs(0), env(0, 1, 1), &shared.cfg.cost);
    assert!(arrives < WallNs(90_000));
    let r = actor.step(WallNs(2_000));
    assert_eq!(r.park.and_then(|p| p.until), Some(arrives));

    // At the inbound head the step moves traffic: progress, not parked.
    let r = actor.step(arrives);
    assert_eq!((r.outcome, r.park), (StepOutcome::Progress, None));
    assert_eq!(shared.nodes[0].lane_queues[1].len(), 1);
    let r = actor.step(arrives + WallNs(5_000));
    assert_eq!(r.park.and_then(|p| p.until), Some(WallNs(90_000)), "the outbox head is left");
}

/// Posts a remote message into node 0's outbox at its first poll at or
/// after each of `at`, as a worker's `route` does (ready after the step's
/// `charge`, notice posted at once), logging the instant; stops the run at
/// `stop`.
struct Poster {
    shared: Shared,
    at: Vec<u64>,
    charge: WallNs,
    stop: u64,
    posted: Arc<Mutex<Vec<u64>>>,
}

impl Poster {
    fn new(shared: &Shared, at: &[u64], charge: u64, stop: u64) -> (Self, Arc<Mutex<Vec<u64>>>) {
        let posted = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::clone(shared);
        let (at, charge, log) = (at.to_vec(), WallNs(charge), Arc::clone(&posted));
        (Poster { shared, at, charge, stop, posted: log }, posted)
    }
}

impl Actor for Poster {
    fn id(&self) -> ActorId {
        ActorId(0)
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        let next = self.at.first().copied().unwrap_or(self.stop);
        if now.0 < next {
            return StepResult::idle(WallNs((next - now.0).min(1_000)));
        }
        if self.at.is_empty() {
            self.shared.gvt_core.signal_stop();
            return StepResult::done();
        }
        self.at.remove(0);
        let seq = self.at.len() as u32;
        self.shared.nodes[0].outbox.push(now + self.charge, env(1, 0, seq));
        self.shared.cfg.spec.wake_mpi_actor(NodeId(0), WallNs::ZERO);
        self.posted.lock().push(now.0);
        StepResult::progress(self.charge)
    }
}

/// Reads node 0's stored outbox depth every 37 ns until the stop.
struct Reader {
    shared: Shared,
    seen: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl Actor for Reader {
    fn id(&self) -> ActorId {
        ActorId(1)
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        if self.shared.gvt_core.stopped() {
            return StepResult::done();
        }
        let depth = self.shared.gvt_core.mpi_queue_depth[0].load(Ordering::Relaxed);
        self.seen.lock().push((now.0, depth));
        StepResult::progress(WallNs(37))
    }
}

/// Logs the instant of every step of the wrapped actor; with `polling`,
/// drops its park requests, as the polling scheduler ran it.
struct Logged {
    inner: MpiActor<MiniHold>,
    polling: bool,
    steps: Arc<Mutex<Vec<u64>>>,
}

impl Logged {
    fn new(inner: MpiActor<MiniHold>, polling: bool) -> (Self, Arc<Mutex<Vec<u64>>>) {
        let steps = Arc::new(Mutex::new(Vec::new()));
        (Logged { inner, polling, steps: Arc::clone(&steps) }, steps)
    }
}

impl Actor for Logged {
    fn id(&self) -> ActorId {
        self.inner.id()
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        self.steps.lock().push(now.0);
        let r = self.inner.step(now);
        if self.polling {
            StepResult { park: None, ..r }
        } else {
            r
        }
    }
}

/// One run of a poster, a depth reader and node 0's MPI actor.
struct PostRun {
    posted: Vec<u64>,
    seen: Vec<(u64, u64)>,
    pump_steps: Vec<u64>,
    stats: RunStats,
}

fn post_and_read(polling: bool) -> PostRun {
    let shared = build_shared(Arc::new(MiniHold::default()), SimConfig::small(2, 1));
    let (poster, posted) =
        Poster::new(&shared, &[1_000, 1_010, 4_321, 20_000, 20_700, 55_555], 700, 60_000);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (pump, pump_steps) = Logged::new(mpi_actor(&shared, 0), polling);
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(poster),
        Box::new(Reader { shared: Arc::clone(&shared), seen: Arc::clone(&seen) }),
        Box::new(pump),
    ];
    let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
    assert!(stats.completed, "the stop must end every actor");
    let (posted, seen, pump_steps) =
        (posted.lock().clone(), seen.lock().clone(), pump_steps.lock().clone());
    PostRun { posted, seen, pump_steps, stats }
}

#[test]
fn an_outbox_post_wakes_the_actor_at_its_first_poll_after_the_post() {
    let polling = post_and_read(true);
    let parked = post_and_read(false);
    assert_eq!(parked.posted, polling.posted);
    assert_eq!(parked.seen, polling.seen, "every read of the stored depth is the polling run's");
    assert!(parked.seen.iter().any(|&(_, depth)| depth == 2), "two posts queued at once");
    assert_eq!(parked.stats.steps + parked.stats.skipped_polls, polling.stats.steps);
    assert!(parked.pump_steps.len() * 10 < polling.pump_steps.len(), "the idle pump parked");
    // The polling pump stores a post's depth at its first poll after the
    // posting step; the parked pump steps at exactly that instant.
    for &post in &parked.posted {
        let first = polling.pump_steps.iter().find(|&&g| g >= post).expect("polled after it");
        assert!(parked.pump_steps.contains(first), "post at {post}: no step at {first}");
    }
    let on_grid = parked.pump_steps.iter().all(|g| polling.pump_steps.contains(g));
    assert!(on_grid, "a parked step off the polling grid");
}

#[test]
fn a_stop_wakes_a_parked_actor_into_done() {
    let shared = build_shared(Arc::new(MiniHold::default()), SimConfig::small(2, 1));
    let (poster, _) = Poster::new(&shared, &[30_000], 100, 50_000);
    let (pump, steps) = Logged::new(mpi_actor(&shared, 0), false);
    let actors: Vec<Box<dyn Actor>> = vec![Box::new(poster), Box::new(pump)];
    let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
    assert!(stats.completed, "a parked actor left behind the stop");
    // Parked at 0; woken by the post (it stores the depth), at the
    // message's delivery (it sends it), then the send's cost later (a pure
    // poll), and by the stop.
    let steps = steps.lock().clone();
    assert_eq!(steps.len(), 5, "{steps:?}");
    assert!(steps[4] >= 50_000, "{steps:?}");
    let deposits = shared.stats.mpi_deposits.lock();
    assert_eq!(deposits.len(), 1, "Done deposits the counters once");
    assert_eq!(deposits[0].sent, 1);
}
