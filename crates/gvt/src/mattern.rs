//! Asynchronous Mattern GVT (paper Algorithm 2, Figure 2), with the
//! optional synchronization hooks that turn it into CA-GVT (Algorithm 3).
//!
//! ## Coloring and counting
//!
//! Every message carries a *flush-round* tag: the GVT round at whose red
//! transition the sender's local count of that message enters the shared
//! per-node control counter. A sender that is white between rounds `r-1`
//! and `r` tags with `r`; a sender red in round `r` tags with `r+1` (its
//! sends belong to the *next* round's white population — this is exactly
//! Mattern's color flip) and additionally folds the send's timestamp into
//! its local `min_red`. Receivers decrement either the shared node counter
//! (if they have already flushed that round) or the matching local bucket.
//! The per-node counters are cumulative across rounds, so the cluster-wide
//! sum at any instant after all workers have flushed round `r` equals the
//! number of round-`≤ r` messages still in flight — and only ever
//! decreases, which makes the ring's repeated passes a safe overestimate.
//!
//! ## The ring
//!
//! The node responsible for MPI on node 0 initiates. Pass one (`kind =
//! SUM`) circulates a control message that each node — once all its
//! workers are red — extends with its counter; the initiator re-circulates
//! until the total reaches zero and then raises the drained flag. Workers
//! that observe the flag check in their LVT and `min_red` into per-node
//! min-slots; pass two (`kind = MIN`) folds those across nodes, and the
//! initiator publishes `GVT = min(minLVT, minRed)`.
//!
//! Workers process events throughout — the asynchronous advantage the
//! paper measures in computation-dominated workloads.
//!
//! ## CA-GVT hooks
//!
//! Built with a CA setting ([`MatternBundle::new`]), the algorithm is
//! Controlled Asynchronous GVT (paper Algorithm 3, Figure 7): a round
//! whose preceding per-round-window efficiency fell below the threshold
//! (or whose MPI queues ran deep, with the extended trigger from the
//! paper's conclusion) runs *synchronously*. Two-level barriers then align
//! three transitions:
//!
//! 1. the white→red transition (Algorithm 3 line 4), aligning the cut
//!    across all LPs;
//! 2. the LVT/min-red check-in, after the white count drains (line 14);
//! 3. the round's completion (line 30; the paper places it after fossil
//!    collection — here it is taken immediately before the engine fossil
//!    collects, which synchronizes the identical instant of the round and
//!    keeps the fossil pass outside the algorithm).
//!
//! Event processing continues between the barriers (paper Figure 7), so a
//! synchronous round bounds virtual-time disparity the way Barrier GVT does
//! by re-aligning all LPs three times per round. The initiator computes the
//! efficiency (committed over committed-plus-rolled-back) when it
//! publishes, over the window since the previous round — the paper uses
//! the cumulative ratio, which barely moves at this harness's horizons (see
//! EXPERIMENTS.md) — arms the next round by storing why it must
//! synchronize (a [`SyncCause`], `None` for an asynchronous round), and
//! records the round in the shared GVT trace. In asynchronous rounds the
//! algorithm is indistinguishable from Mattern apart from that per-round
//! computation (the overhead the paper measures as CA-GVT's small
//! computation-dominated penalty).

use cagvt_base::ids::{LaneId, NodeId};
use cagvt_base::metrics::SyncCause;
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::trace::{GvtPhaseKind, Track};
use cagvt_base::wake;
use cagvt_core::gvt::{
    GvtBundle, GvtSharedCore, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome,
};
use cagvt_core::stats::GvtRoundRecord;
use cagvt_net::{ClusterSpec, CostModel, CtrlMsg, CtrlPlane, MsgClass};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::common::{mark, try_join_round, TwoLevelReduce};

const KIND_SUM: u8 = 1;
const KIND_MIN: u8 = 2;

/// Per-node control structure (the shared-memory control message of the
/// paper's adaptation).
struct NodeCm {
    /// Cumulative flushed-sends minus accounted-receives.
    white: AtomicI64,
    /// Cumulative count of round-joins by this node's workers; all have
    /// joined round `r` when this reaches `r * workers_per_node`.
    joined: AtomicU64,
    /// Cumulative count of min check-ins (same convention).
    checked: AtomicU64,
    lvt_min: AtomicU64,
    red_min: AtomicU64,
}

impl NodeCm {
    fn new() -> Self {
        NodeCm {
            white: AtomicI64::new(0),
            joined: AtomicU64::new(0),
            checked: AtomicU64::new(0),
            lvt_min: AtomicU64::new(u64::MAX),
            red_min: AtomicU64::new(u64::MAX),
        }
    }
}

/// CA-GVT extension state.
struct CaExtra {
    /// Reused two-level barrier for the three synchronization points.
    barrier: TwoLevelReduce,
    /// Why the next round is armed ([`SyncCause`] encoding, set at each
    /// publication): `SyncCause::None` runs it asynchronously, any other
    /// cause synchronously.
    armed_cause: AtomicU8,
    /// Efficiency threshold (paper: 0.80).
    threshold: f64,
    /// Optional second trigger from the paper's concluding remarks:
    /// synchronize when any node's outbound MPI queue occupancy exceeds
    /// this depth (saturation shows in the queue before it shows in the
    /// cumulative efficiency).
    queue_threshold: Option<u64>,
}

impl CaExtra {
    /// Is the next round to start armed to run synchronously?
    fn armed(&self) -> bool {
        self.armed_cause.load(Ordering::Acquire) != SyncCause::None.as_u8()
    }
}

/// Shared state of one Mattern / CA-GVT run.
struct MatternShared {
    core: Arc<GvtSharedCore>,
    ctrl: Arc<CtrlPlane>,
    cost: CostModel,
    spec: ClusterSpec,
    rounds_started: AtomicU64,
    /// Highest round whose white population has fully drained.
    drained_round: AtomicU64,
    per_node: Vec<NodeCm>,
    ca: Option<CaExtra>,
}

impl MatternShared {
    #[inline]
    fn cm(&self, node: NodeId) -> &NodeCm {
        &self.per_node[node.index()]
    }

    #[inline]
    fn all_joined(&self, node: NodeId, round: u64) -> bool {
        self.cm(node).joined.load(Ordering::Acquire) >= self.node_total(round)
    }

    #[inline]
    fn all_checked(&self, node: NodeId, round: u64) -> bool {
        self.cm(node).checked.load(Ordering::Acquire) >= self.node_total(round)
    }

    /// The cumulative join (or check-in) count of a node once all its
    /// workers have joined (checked in to) round `round`.
    #[inline]
    fn node_total(&self, round: u64) -> u64 {
        round * self.spec.workers_per_node as u64
    }

    /// Count one join or check-in of a worker of `node` into round `round`
    /// on `counter`; the node's last one opens its MPI half's gate.
    fn count_in(&self, node: NodeId, counter: &AtomicU64, round: u64) {
        if counter.fetch_add(1, Ordering::AcqRel) + 1 == self.node_total(round) {
            self.spec.wake_mpi_actor(node, WallNs::ZERO);
        }
    }
}

/// Bundle for Mattern GVT, or CA-GVT when built with a CA setting.
pub struct MatternBundle {
    shared: Arc<MatternShared>,
}

impl MatternBundle {
    /// Mattern GVT; with `ca = Some((threshold, queue_threshold))`, CA-GVT
    /// synchronizing when the window efficiency falls below `threshold`
    /// and, with a `queue_threshold`, also when a node's outbound MPI queue
    /// holds more than that many messages.
    pub fn new(
        core: Arc<GvtSharedCore>,
        ctrl: Arc<CtrlPlane>,
        spec: ClusterSpec,
        cost: CostModel,
        ca: Option<(f64, Option<u64>)>,
    ) -> Self {
        let ca = ca.map(|(threshold, queue_threshold)| {
            assert!((0.0..=1.0).contains(&threshold), "threshold is a ratio, got {threshold}");
            CaExtra {
                barrier: TwoLevelReduce::new(spec),
                armed_cause: AtomicU8::new(SyncCause::None.as_u8()),
                threshold,
                queue_threshold,
            }
        });
        let shared = MatternShared {
            core,
            ctrl,
            cost,
            spec,
            rounds_started: AtomicU64::new(0),
            drained_round: AtomicU64::new(0),
            per_node: (0..spec.nodes).map(|_| NodeCm::new()).collect(),
            ca,
        };
        MatternBundle { shared: Arc::new(shared) }
    }
}

impl GvtBundle for MatternBundle {
    fn name(&self) -> &'static str {
        if self.shared.ca.is_some() {
            "ca-gvt"
        } else {
            "mattern"
        }
    }

    fn worker_gvt(&self, node: NodeId, _lane: LaneId, _worker_index: u32) -> Box<dyn WorkerGvt> {
        Box::new(MatternWorker {
            shared: Arc::clone(&self.shared),
            node,
            rounds_done: 0,
            flushed: 0,
            bucket_cur: 0,
            bucket_next: 0,
            min_red: u64::MAX,
            sync_round: false,
            phase: Phase::White,
        })
    }

    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        Box::new(MatternMpi {
            shared: Arc::clone(&self.shared),
            node,
            held: None,
            initiator: InitiatorState::Idle,
            eff_window_base: (0, 0),
        })
    }
}

/// A worker's transition to the next phase of its round; in a synchronous
/// CA-GVT round each is taken through a barrier.
#[derive(Clone, Copy)]
enum Transition {
    TurnRed,
    CheckIn,
    /// Complete the round with the published GVT.
    Complete(VirtualTime),
}

enum Phase {
    /// Between rounds; counting sends/receives locally.
    White,
    /// Red; waiting for the white population to drain.
    Red,
    /// Checked in; waiting for the published GVT.
    Checked,
    /// CA sync point: blocked in barrier generation `gen`, then `then`.
    Barrier { gen: u64, then: Transition },
}

/// Worker half of Mattern / CA-GVT.
pub struct MatternWorker {
    shared: Arc<MatternShared>,
    node: NodeId,
    rounds_done: u64,
    /// Rounds whose local bucket has been flushed (= `rounds_done` while
    /// white, `rounds_done + 1` while red).
    flushed: u64,
    /// Net count for the next flush (round `flushed + 1`).
    bucket_cur: i64,
    /// Net count for the flush after that (sends made while red).
    bucket_next: i64,
    /// Ordered bits of the minimum red-send timestamp this round.
    min_red: u64,
    /// CA: is the current round synchronous?
    sync_round: bool,
    phase: Phase,
}

impl MatternWorker {
    fn ca_barrier(&self) -> &TwoLevelReduce {
        &self.shared.ca.as_ref().expect("synchronous rounds imply CA-GVT").barrier
    }

    /// Take transition `t` of round `r`: at once in an asynchronous round,
    /// through a CA barrier in a synchronous one.
    fn advance(&mut self, ctx: &WorkerGvtCtx, r: u64, t: Transition) -> WorkerGvtOutcome {
        if !self.sync_round {
            return self.apply(ctx, r, t, WorkerGvtOutcome::Working);
        }
        let track = Track::Worker(ctx.worker_index);
        mark(&self.shared.core, ctx.now, track, r, GvtPhaseKind::BarrierEnter);
        let gen = self.ca_barrier().arrive(self.node, 0, u64::MAX);
        self.phase = Phase::Barrier { gen, then: t };
        WorkerGvtOutcome::Blocked(self.shared.cost.node_barrier_arrival)
    }

    /// Apply transition `t` of round `r`, reporting its bookkeeping cost
    /// through `charge` (`Working`, or `Blocked` when leaving a barrier)
    /// unless the round completes.
    fn apply(
        &mut self,
        ctx: &WorkerGvtCtx,
        r: u64,
        t: Transition,
        charge: fn(WallNs) -> WorkerGvtOutcome,
    ) -> WorkerGvtOutcome {
        let cost = self.shared.cost.gvt_bookkeeping;
        let (phase, next) = match t {
            Transition::TurnRed => {
                self.turn_red();
                (GvtPhaseKind::TurnRed, Phase::Red)
            }
            Transition::CheckIn => {
                self.check_in(ctx);
                (GvtPhaseKind::CheckIn, Phase::Checked)
            }
            Transition::Complete(gvt) => {
                self.rounds_done = r;
                self.phase = Phase::White;
                return WorkerGvtOutcome::Completed { gvt, cost };
            }
        };
        mark(&self.shared.core, ctx.now, Track::Worker(ctx.worker_index), r, phase);
        self.phase = next;
        charge(cost)
    }

    /// The red transition: flush the local white bucket into the node
    /// control structure and register the join.
    fn turn_red(&mut self) {
        let flush = self.bucket_cur;
        self.bucket_cur = self.bucket_next;
        self.bucket_next = 0;
        self.flushed = self.rounds_done + 1;
        self.min_red = u64::MAX;
        let cm = self.shared.cm(self.node);
        cm.white.fetch_add(flush, Ordering::AcqRel);
        self.shared.count_in(self.node, &cm.joined, self.flushed);
    }

    /// Contribute LVT and min-red into the node's min slots.
    fn check_in(&mut self, ctx: &WorkerGvtCtx) {
        let cm = self.shared.cm(self.node);
        cm.lvt_min.fetch_min(ctx.lvt.to_ordered_bits(), Ordering::AcqRel);
        cm.red_min.fetch_min(self.min_red, Ordering::AcqRel);
        self.shared.count_in(self.node, &cm.checked, self.rounds_done + 1);
    }
}

impl WorkerGvt for MatternWorker {
    fn on_send(&mut self, _class: MsgClass, recv_time: VirtualTime) -> u64 {
        // Every send carries tag `flushed + 1` and therefore belongs to the
        // *current* bucket (flushed at the next red transition) — also for
        // sends made while red: they are next round's white population.
        self.bucket_cur += 1;
        if self.flushed > self.rounds_done {
            // Red: additionally covered by this round's min_red.
            self.min_red = self.min_red.min(recv_time.to_ordered_bits());
        }
        self.flushed + 1
    }

    fn on_recv(&mut self, tag: u64, _class: MsgClass) {
        if tag <= self.flushed {
            self.shared.cm(self.node).white.fetch_sub(1, Ordering::AcqRel);
        } else if tag == self.flushed + 1 {
            self.bucket_cur -= 1;
        } else {
            debug_assert_eq!(tag, self.flushed + 2, "message from an impossible round");
            self.bucket_next -= 1;
        }
    }

    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome {
        let r = self.rounds_done + 1;
        let shared = &self.shared;
        let track = Track::Worker(ctx.worker_index);
        match self.phase {
            Phase::White => {
                if !try_join_round(&shared.core, &shared.rounds_started, self.rounds_done) {
                    return WorkerGvtOutcome::Waiting;
                }
                mark(&shared.core, ctx.now, track, r, GvtPhaseKind::RoundStart);
                self.sync_round = shared.ca.as_ref().is_some_and(CaExtra::armed);
                self.advance(ctx, r, Transition::TurnRed)
            }
            Phase::Red if shared.drained_round.load(Ordering::Acquire) >= r => {
                self.advance(ctx, r, Transition::CheckIn)
            }
            Phase::Checked if shared.core.published_round() >= r => {
                let gvt = shared.core.published_gvt();
                self.advance(ctx, r, Transition::Complete(gvt))
            }
            // Event processing continues while the round progresses.
            Phase::Red | Phase::Checked => WorkerGvtOutcome::Waiting,
            Phase::Barrier { gen, then } => match self.ca_barrier().poll(self.node, gen) {
                Some(_) => {
                    mark(&shared.core, ctx.now, track, r, GvtPhaseKind::BarrierExit);
                    self.apply(ctx, r, then, WorkerGvtOutcome::Blocked)
                }
                None => WorkerGvtOutcome::Blocked(WallNs::ZERO),
            },
        }
    }
}

enum InitiatorState {
    Idle,
    /// The white-count pass is circulating for this round.
    SumPass(u64),
    /// Drained; waiting for the local node's check-ins before pass two.
    AwaitChecks(u64),
    /// The min pass is circulating.
    MinPass(u64),
}

/// MPI half: ring circulation (node 0 initiates) plus, for CA-GVT, the
/// barrier relays and the per-round efficiency decision.
pub struct MatternMpi {
    shared: Arc<MatternShared>,
    node: NodeId,
    /// A control message waiting for this node's local gate.
    held: Option<CtrlMsg>,
    initiator: InitiatorState,
    /// Committed / rolled-back totals at the previous efficiency check
    /// (CA-GVT uses the per-round window so the signal responds within a
    /// workload phase; the paper's cumulative ratio barely moves at this
    /// harness scale — see EXPERIMENTS.md).
    eff_window_base: (u64, u64),
}

impl MatternMpi {
    fn is_initiator(&self) -> bool {
        self.node.0 == 0
    }

    /// Send `msg` one hop along the ring.
    fn forward(&self, now: WallNs, mut msg: CtrlMsg) -> WallNs {
        msg.hops += 1;
        let next = self.shared.ctrl.ring_next(self.node);
        self.shared.ctrl.send(self.node, next, now, msg, &self.shared.cost);
        self.shared.cost.mpi_send
    }

    /// Start (or restart) the white-count pass for `round`.
    fn launch_sum_pass(&self, now: WallNs, round: u64) -> WallNs {
        mark(&self.shared.core, now, Track::Mpi(self.node.0), round, GvtPhaseKind::SumPass);
        let mut msg = CtrlMsg::new(KIND_SUM, round, self.node);
        msg.sum = self.shared.cm(self.node).white.load(Ordering::Acquire);
        self.forward(now, msg)
    }

    /// Contribute this node's mins and start pass two.
    fn launch_min_pass(&self, now: WallNs, round: u64) -> WallNs {
        mark(&self.shared.core, now, Track::Mpi(self.node.0), round, GvtPhaseKind::MinPass);
        self.forward(now, self.fold_mins(CtrlMsg::new(KIND_MIN, round, self.node)))
    }

    /// Fold this node's min slots into `msg`, resetting them.
    fn fold_mins(&self, mut msg: CtrlMsg) -> CtrlMsg {
        let cm = self.shared.cm(self.node);
        msg.min1 = msg.min1.min(cm.lvt_min.swap(u64::MAX, Ordering::AcqRel));
        msg.min2 = msg.min2.min(cm.red_min.swap(u64::MAX, Ordering::AcqRel));
        msg
    }

    /// Publication at the initiator once pass two returns, including the
    /// CA-GVT efficiency decision.
    fn publish(&mut self, now: WallNs, msg: &CtrlMsg) -> WallNs {
        let shared = &self.shared;
        let gvt = VirtualTime::from_ordered_bits(msg.min1.min(msg.min2));
        let mut charge = shared.cost.gvt_bookkeeping;
        if let Some(ca) = &shared.ca {
            // Efficiency over the window since the previous round — the
            // controller's actual decision signal.
            let committed = shared.core.stats.committed.load(Ordering::Relaxed);
            let rolled = shared.core.stats.rolled_back.load(Ordering::Relaxed);
            let (c0, r0) = self.eff_window_base;
            self.eff_window_base = (committed, rolled);
            let (dc, dr) = (committed - c0, rolled - r0);
            let efficiency_window = if dc + dr == 0 {
                shared.core.stats.efficiency()
            } else {
                dc as f64 / (dc + dr) as f64
            };
            let queue_high =
                ca.queue_threshold.map(|t| shared.core.max_mpi_queue_depth() > t).unwrap_or(false);
            let eff_low = efficiency_window < ca.threshold;
            // Swap in the cause armed for the *next* round; the returned
            // previous value is why *this* round ran the way it did.
            let cause = SyncCause::from_u8(
                ca.armed_cause
                    .swap(SyncCause::from_flags(eff_low, queue_high).as_u8(), Ordering::AcqRel),
            );
            shared.core.stats.gvt_trace.lock().push(GvtRoundRecord {
                round: msg.round,
                gvt: gvt.as_f64(),
                efficiency: shared.core.stats.efficiency(),
                efficiency_window,
                cause,
            });
            charge += shared.cost.efficiency_check;
        }
        shared.core.publish(gvt, msg.round);
        mark(&shared.core, now, Track::Global, msg.round, GvtPhaseKind::Publish);
        charge
    }
}

impl MpiGvt for MatternMpi {
    fn step(&mut self, now: WallNs) -> WallNs {
        // CA barrier relays ride along every step.
        let mut charge = match &self.shared.ca {
            Some(ca) => ca.barrier.pump_step(self.node, now, &self.shared.cost),
            None => WallNs::ZERO,
        };

        // Initiator: kick off rounds and passes.
        if self.is_initiator() {
            match self.initiator {
                InitiatorState::Idle => {
                    let started = self.shared.rounds_started.load(Ordering::Acquire);
                    if started > self.shared.core.published_round()
                        && self.shared.all_joined(self.node, started)
                    {
                        charge += self.launch_sum_pass(now + charge, started);
                        self.initiator = InitiatorState::SumPass(started);
                    }
                }
                InitiatorState::AwaitChecks(round) if self.shared.all_checked(self.node, round) => {
                    charge += self.launch_min_pass(now + charge, round);
                    self.initiator = InitiatorState::MinPass(round);
                }
                _ => {}
            }
        }

        // Receive one control message if none is held.
        if self.held.is_none() {
            if let Some(m) = self.shared.ctrl.inbox(self.node).pop_ready(now + charge) {
                charge += self.shared.cost.mpi_recv;
                self.held = Some(m);
            }
        }

        // Act on the held message once the local gate opens.
        if let Some(mut m) = self.held.take() {
            let complete = self.is_initiator() && m.hops == self.shared.spec.nodes;
            match (m.kind, complete) {
                (KIND_SUM, true) => {
                    debug_assert!(
                        matches!(self.initiator, InitiatorState::SumPass(r) if r == m.round),
                        "sum pass round mismatch"
                    );
                    if m.sum == 0 {
                        self.shared.drained_round.store(m.round, Ordering::Release);
                        wake::notify_all();
                        self.initiator = InitiatorState::AwaitChecks(m.round);
                    } else {
                        // Still in transit: circulate again with fresh
                        // counter readings.
                        charge += self.launch_sum_pass(now + charge, m.round);
                    }
                }
                (KIND_SUM, false) if self.shared.all_joined(self.node, m.round) => {
                    m.sum += self.shared.cm(self.node).white.load(Ordering::Acquire);
                    charge += self.forward(now + charge, m);
                }
                (KIND_MIN, true) => {
                    debug_assert!(
                        matches!(self.initiator, InitiatorState::MinPass(r) if r == m.round),
                        "min pass round mismatch"
                    );
                    charge += self.publish(now + charge, &m);
                    self.initiator = InitiatorState::Idle;
                }
                (KIND_MIN, false) if self.shared.all_checked(self.node, m.round) => {
                    charge += self.forward(now + charge, self.fold_mins(m));
                }
                // Wait for the local red transitions or check-ins.
                (KIND_SUM | KIND_MIN, false) => self.held = Some(m),
                _ => unreachable!("unknown control message kind"),
            }
        }

        charge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{hold_until_notified, PhaseMarks};
    use cagvt_base::trace::TraceSink;
    use cagvt_core::stats::SharedStats;
    use cagvt_core::WorkerGvtOutcome;
    use cagvt_net::fabric_pair;

    fn setup(nodes: u16, wpn: u16) -> (Arc<GvtSharedCore>, MatternBundle) {
        setup_ca(nodes, wpn, None, None)
    }

    fn setup_ca(
        nodes: u16,
        wpn: u16,
        ca: Option<(f64, Option<u64>)>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> (Arc<GvtSharedCore>, MatternBundle) {
        let stats = Arc::new(SharedStats::new((nodes * wpn) as u32));
        let core = Arc::new(GvtSharedCore::new(stats, nodes, trace, None));
        let spec = ClusterSpec::new(nodes, wpn, cagvt_net::MpiMode::Dedicated);
        let (_fabric, ctrl) = fabric_pair::<()>(spec, None);
        let bundle =
            MatternBundle::new(Arc::clone(&core), ctrl, spec, CostModel::knl_cluster(), ca);
        (core, bundle)
    }

    fn ctx(now_ns: u64, lvt: f64) -> WorkerGvtCtx {
        WorkerGvtCtx { now: WallNs(now_ns), lvt: VirtualTime::new(lvt), worker_index: 0 }
    }

    #[test]
    fn white_sends_are_tagged_for_the_next_round() {
        let (_core, bundle) = setup(1, 1);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        // Never joined a round: flushed = 0, so the tag is round 1.
        assert_eq!(w.on_send(MsgClass::Regional, VirtualTime::new(1.0)), 1);
        assert_eq!(w.on_send(MsgClass::Remote, VirtualTime::new(2.0)), 1);
    }

    #[test]
    fn red_sends_are_tagged_one_round_later_and_tracked_in_min_red() {
        let (core, bundle) = setup(1, 1);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        core.request_round();
        // Join round 1: the red transition happens in this step.
        assert!(matches!(w.step(&ctx(0, 5.0)), WorkerGvtOutcome::Working(_)));
        // Red in round 1: tag = 2.
        assert_eq!(w.on_send(MsgClass::Regional, VirtualTime::new(9.0)), 2);
    }

    /// One node, one worker: a complete round through the self-loop ring.
    #[test]
    fn single_node_round_publishes_min_of_lvt_and_red() {
        let (core, bundle) = setup(1, 1);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut mpi = bundle.mpi_gvt(NodeId(0));

        core.request_round();
        // First step joins the round (red transition); send a red message
        // with a timestamp below the LVT *before* the check-in, so min_red
        // decides the GVT.
        assert!(matches!(w.step(&ctx(1_000, 6.0)), WorkerGvtOutcome::Working(_)));
        w.on_send(MsgClass::Regional, VirtualTime::new(4.5));

        let mut now = 1_000u64;
        let mut done = None;
        for _ in 0..10_000 {
            now += 1_000;
            mpi.step(WallNs(now));
            match w.step(&ctx(now, 6.0)) {
                WorkerGvtOutcome::Completed { gvt, .. } => {
                    done = Some(gvt);
                    break;
                }
                WorkerGvtOutcome::Blocked(_) => panic!("pure Mattern never blocks"),
                _ => {}
            }
        }
        assert_eq!(done, Some(VirtualTime::new(4.5)), "GVT = min(LVT=6.0, min_red=4.5)");
        assert_eq!(core.published_round(), 1);
    }

    /// An in-flight white message holds the round open until received.
    #[test]
    fn white_count_gates_the_drain() {
        let (core, bundle) = setup(1, 2);
        let mut w0 = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut w1 = bundle.worker_gvt(NodeId(0), LaneId(1), 1);
        let mut mpi = bundle.mpi_gvt(NodeId(0));

        let tag = w0.on_send(MsgClass::Regional, VirtualTime::new(3.0));
        assert_eq!(tag, 1);
        core.request_round();

        let mut now = 0u64;
        // Run a while without delivering: must not complete.
        for _ in 0..200 {
            now += 1_000;
            let _ = w0.step(&ctx(now, 5.0));
            let _ = w1.step(&ctx(now, 4.0));
            mpi.step(WallNs(now));
        }
        assert_eq!(core.published_round(), 0, "in-flight white message must gate the round");

        // Deliver, then the round completes.
        w1.on_recv(tag, MsgClass::Regional);
        let mut completions = 0;
        for _ in 0..10_000 {
            now += 1_000;
            for w in [&mut w0, &mut w1] {
                if let WorkerGvtOutcome::Completed { gvt, .. } = w.step(&ctx(now, 4.0)) {
                    assert_eq!(gvt, VirtualTime::new(4.0));
                    completions += 1;
                }
            }
            mpi.step(WallNs(now));
            if completions == 2 {
                break;
            }
        }
        assert_eq!(completions, 2);
    }

    /// Receiving a message tagged for a round this worker has already
    /// flushed decrements the shared node counter directly.
    #[test]
    fn late_white_receive_hits_the_node_counter() {
        let (core, bundle) = setup(1, 2);
        let mut w0 = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut w1 = bundle.worker_gvt(NodeId(0), LaneId(1), 1);

        // w0 sends white (tag 1) and both join round 1.
        let tag = w0.on_send(MsgClass::Regional, VirtualTime::new(2.0));
        core.request_round();
        let _ = w0.step(&ctx(0, 5.0));
        let _ = w1.step(&ctx(0, 5.0));
        // Both are red now (flushed = 1); w1 receives the white message.
        let shared = &bundle.shared;
        let before = shared.per_node[0].white.load(Ordering::Relaxed);
        w1.on_recv(tag, MsgClass::Regional);
        let after = shared.per_node[0].white.load(Ordering::Relaxed);
        assert_eq!(after, before - 1, "direct node-counter decrement");
    }

    #[test]
    #[should_panic(expected = "threshold is a ratio")]
    fn threshold_must_be_a_ratio() {
        let _ = setup_ca(1, 1, Some((1.5, None)), None);
    }

    #[test]
    fn queue_threshold_variant_constructs() {
        let (_core, b) = setup_ca(2, 2, Some((0.8, Some(100))), None);
        assert_eq!(b.name(), "ca-gvt");
        // Both halves construct for every node/lane.
        let _w = b.worker_gvt(NodeId(1), LaneId(1), 3);
        let _m = b.mpi_gvt(NodeId(0));
    }

    #[test]
    fn queue_depth_feeds_the_shared_core() {
        let (core, _bundle) = setup(2, 1);
        assert_eq!(core.max_mpi_queue_depth(), 0);
        core.mpi_queue_depth[1].store(42, Ordering::Relaxed);
        assert_eq!(core.max_mpi_queue_depth(), 42);
    }

    /// The threshold the bundle was built with decides the next round's
    /// mode: a window efficiency of 0.7 arms a synchronous round under
    /// 0.8 but not under 0.6.
    #[test]
    fn threshold_decides_the_next_round_mode() {
        for (threshold, sync_next) in [(0.6, false), (0.8, true)] {
            let (core, bundle) = setup_ca(1, 1, Some((threshold, None)), None);
            let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
            let mut mpi = bundle.mpi_gvt(NodeId(0));
            core.stats.committed.store(70, Ordering::Relaxed);
            core.stats.rolled_back.store(30, Ordering::Relaxed);
            core.request_round();
            let mut now = 0u64;
            while core.published_round() < 1 {
                now += 1_000;
                let _ = w.step(&ctx(now, 5.0));
                mpi.step(WallNs(now));
                assert!(now < 10_000_000, "round must complete");
            }
            let ca = bundle.shared.ca.as_ref().unwrap();
            assert_eq!(ca.armed(), sync_next, "threshold {threshold}");
            let rec = core.stats.gvt_trace.lock()[0];
            assert_eq!(rec.efficiency_window, 0.7);
            assert!(!rec.synchronous());
        }
    }

    /// A synchronous CA-GVT round blocks at three barriers (red
    /// transition, check-in, completion) and never reports work.
    #[test]
    fn sync_round_passes_three_barriers() {
        let (core, bundle) = setup_ca(1, 2, Some((0.8, None)), None);
        let ca = bundle.shared.ca.as_ref().unwrap();
        ca.armed_cause.store(SyncCause::Efficiency.as_u8(), Ordering::Release);
        let mut ws = [
            bundle.worker_gvt(NodeId(0), LaneId(0), 0),
            bundle.worker_gvt(NodeId(0), LaneId(1), 1),
        ];
        let mut mpi = bundle.mpi_gvt(NodeId(0));
        let cost = CostModel::knl_cluster();
        core.request_round();

        let (mut entries, mut done, mut now) = ([0; 2], [None; 2], 0u64);
        while done.contains(&None) {
            now += 1_000;
            mpi.step(WallNs(now));
            for (i, w) in ws.iter_mut().enumerate() {
                if done[i].is_some() {
                    continue;
                }
                match w.step(&ctx(now, 5.0 + i as f64)) {
                    WorkerGvtOutcome::Blocked(c) if c == cost.node_barrier_arrival => {
                        entries[i] += 1
                    }
                    WorkerGvtOutcome::Completed { gvt, .. } => done[i] = Some(gvt),
                    WorkerGvtOutcome::Working(_) => panic!("sync transitions are blocked"),
                    _ => {}
                }
            }
            assert!(now < 10_000_000, "round must complete");
        }
        assert_eq!(entries, [3, 3], "one barrier per synchronized transition");
        assert_eq!(done, [Some(VirtualTime::new(5.0)); 2]);
        assert_eq!(core.published_round(), 1);
    }

    /// Held at a synchronous round's barrier, a CA-GVT worker's repeated
    /// steps are pure held polls until the MPI half publishes the barrier,
    /// which posts a wake notice; the worker then leaves the barrier.
    #[test]
    fn held_polls_are_pure_until_the_barrier_publishes() {
        let marks = Arc::new(PhaseMarks::default());
        let (core, bundle) = setup_ca(1, 1, Some((0.8, None)), Some(marks.clone()));
        let ca = bundle.shared.ca.as_ref().unwrap();
        ca.armed_cause.store(SyncCause::Efficiency.as_u8(), Ordering::Release);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut mpi = bundle.mpi_gvt(NodeId(0));
        let cost = CostModel::knl_cluster();
        core.request_round();
        assert_eq!(w.step(&ctx(0, 5.0)), WorkerGvtOutcome::Blocked(cost.node_barrier_arrival));
        assert!(hold_until_notified(&mut *w, &mut *mpi, &marks) > 1);
        let marked = marks.count();
        assert_eq!(w.step(&ctx(0, 5.0)), WorkerGvtOutcome::Blocked(cost.gvt_bookkeeping));
        assert_eq!(marks.count(), marked + 2, "barrier exit, then the red transition");
    }
}
