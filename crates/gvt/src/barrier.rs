//! Synchronous Barrier GVT (paper Algorithm 1, Figure 1).
//!
//! When a round starts, every worker stops processing events and loops:
//! drain incoming messages (the engine does this at the top of every
//! worker step, blocked or not), contribute its cumulative
//! `sent - received` to a two-level sum reduction, and repeat until the
//! cluster-wide total — the number of in-transit messages — is zero. A
//! final two-level min reduction over worker LVTs then yields the new GVT.
//! Workers are blocked for the whole round; the dominant cost is idle
//! barrier time, which grows with message load (the paper's
//! communication-dominated slowdown) and with event granularity (stragglers
//! into the barrier).

use cagvt_base::ids::{LaneId, NodeId};
use cagvt_base::time::VirtualTime;
use cagvt_base::trace::{GvtPhaseKind, Track};
use cagvt_core::gvt::{
    GvtBundle, GvtSharedCore, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome,
};
use cagvt_net::{ClusterSpec, CostModel, MsgClass};
use std::sync::Arc;

use crate::common::{mark, try_join_round, ReduceMpi, ReduceShared};

/// Bundle factory for Barrier GVT.
pub struct BarrierBundle {
    shared: Arc<ReduceShared>,
}

impl BarrierBundle {
    pub fn new(core: Arc<GvtSharedCore>, spec: ClusterSpec, cost: CostModel) -> Self {
        BarrierBundle { shared: Arc::new(ReduceShared::new(core, spec, cost)) }
    }
}

impl GvtBundle for BarrierBundle {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn worker_gvt(&self, node: NodeId, _lane: LaneId, _worker_index: u32) -> Box<dyn WorkerGvt> {
        Box::new(BarrierWorker {
            shared: Arc::clone(&self.shared),
            node,
            rounds_done: 0,
            sent: 0,
            received: 0,
            state: State::Idle,
        })
    }

    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        Box::new(ReduceMpi { shared: Arc::clone(&self.shared), node })
    }
}

enum State {
    /// No round in progress.
    Idle,
    /// Waiting for the two-level sum of `msgCount` (drain loop).
    WaitSum(u64),
    /// Waiting for the two-level min of LVTs.
    WaitMin(u64),
}

/// Worker half of Barrier GVT.
pub struct BarrierWorker {
    shared: Arc<ReduceShared>,
    node: NodeId,
    rounds_done: u64,
    /// Cumulative channel messages sent / received by this worker
    /// (Algorithm 1's `LP.MsgSent` / `LP.MsgReceived`).
    sent: u64,
    received: u64,
    state: State,
}

impl BarrierWorker {
    /// Contribute this worker's `msgCount` to a new sum reduction.
    fn arrive_sum(&mut self) {
        let msg_count = self.sent as i64 - self.received as i64;
        self.state = State::WaitSum(self.shared.reduce.arrive(self.node, msg_count, u64::MAX));
    }
}

impl WorkerGvt for BarrierWorker {
    fn on_send(&mut self, _class: MsgClass, _recv_time: VirtualTime) -> u64 {
        self.sent += 1;
        0
    }

    fn on_recv(&mut self, _tag: u64, _class: MsgClass) {
        self.received += 1;
    }

    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome {
        let cost = self.shared.cost;
        let (track, round) = (Track::Worker(ctx.worker_index), self.rounds_done + 1);
        match self.state {
            State::Idle => {
                if !try_join_round(&self.shared.core, &self.shared.rounds_started, self.rounds_done)
                {
                    return WorkerGvtOutcome::Waiting;
                }
                mark(&self.shared.core, ctx.now, track, round, GvtPhaseKind::BarrierEnter);
                self.arrive_sum();
            }
            State::WaitSum(gen) => match self.shared.reduce.poll(self.node, gen) {
                None => return WorkerGvtOutcome::Blocked(cost.idle_poll),
                // All in-transit messages received: reduce LVTs.
                Some(v) if v.sum == 0 => {
                    mark(&self.shared.core, ctx.now, track, round, GvtPhaseKind::SumPass);
                    let gen = self.shared.reduce.arrive(self.node, 0, ctx.lvt.to_ordered_bits());
                    self.state = State::WaitMin(gen);
                }
                // Still in transit: drain (the engine does it each step)
                // and re-reduce.
                Some(_) => self.arrive_sum(),
            },
            State::WaitMin(gen) => {
                let Some(v) = self.shared.reduce.poll(self.node, gen) else {
                    return WorkerGvtOutcome::Blocked(cost.idle_poll);
                };
                let gvt = VirtualTime::from_ordered_bits(v.min);
                self.rounds_done = round;
                self.state = State::Idle;
                mark(&self.shared.core, ctx.now, track, round, GvtPhaseKind::BarrierExit);
                // First completer publishes for the cluster.
                if self.shared.core.published_round() < round {
                    self.shared.core.publish(gvt, round);
                    mark(&self.shared.core, ctx.now, Track::Global, round, GvtPhaseKind::Publish);
                }
                return WorkerGvtOutcome::Completed { gvt, cost: cost.node_barrier_arrival };
            }
        }
        WorkerGvtOutcome::Blocked(cost.node_barrier_arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::time::WallNs;
    use cagvt_core::stats::SharedStats;
    use cagvt_core::WorkerGvtOutcome;

    fn setup(nodes: u16, wpn: u16) -> (Arc<GvtSharedCore>, BarrierBundle) {
        let stats = Arc::new(SharedStats::new((nodes * wpn) as u32));
        let core = Arc::new(GvtSharedCore::new(stats, nodes, wpn, None, None));
        let spec = ClusterSpec::new(nodes, wpn, cagvt_net::MpiMode::Dedicated);
        let bundle = BarrierBundle::new(Arc::clone(&core), spec, CostModel::knl_cluster());
        (core, bundle)
    }

    fn ctx(lvt: f64, widx: u32) -> WorkerGvtCtx {
        WorkerGvtCtx { now: WallNs(0), lvt: VirtualTime::new(lvt), worker_index: widx }
    }

    #[test]
    fn quiet_until_round_requested() {
        let (_core, bundle) = setup(1, 2);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        assert_eq!(w.step(&ctx(1.0, 0)), WorkerGvtOutcome::Waiting);
        assert_eq!(w.step(&ctx(1.0, 0)), WorkerGvtOutcome::Waiting);
    }

    #[test]
    fn send_and_recv_update_cumulative_counts() {
        let (_core, bundle) = setup(1, 1);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        assert_eq!(w.on_send(MsgClass::Regional, VirtualTime::new(1.0)), 0);
        assert_eq!(w.on_send(MsgClass::Remote, VirtualTime::new(2.0)), 0);
        w.on_recv(0, MsgClass::Regional);
        // Counts are internal; verified via the drain loop behaviour in
        // the full-round test below.
    }

    /// Drive a complete round by hand on a 2-worker single node: first sum
    /// iteration sees one in-flight message, second sees zero, then the
    /// min reduction produces the GVT.
    #[test]
    fn full_round_with_drain_iteration() {
        let (core, bundle) = setup(1, 2);
        let mut w0 = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut w1 = bundle.worker_gvt(NodeId(0), LaneId(1), 1);
        let mut mpi = bundle.mpi_gvt(NodeId(0));

        // One message from w0 to w1 still in flight at round start.
        w0.on_send(MsgClass::Regional, VirtualTime::new(3.0));
        core.request_round();

        let mut now = WallNs(0);
        let mut delivered = false;
        let mut completions = 0;
        let mut gvt = VirtualTime::ZERO;
        for _ in 0..10_000 {
            now += WallNs(1_000);
            // The in-flight message arrives mid-round (while blocked).
            if !delivered && now > WallNs(20_000) {
                w1.on_recv(0, MsgClass::Regional);
                delivered = true;
            }
            for (w, lvt) in [(&mut w0, 5.0), (&mut w1, 4.0)] {
                match w.step(&WorkerGvtCtx { now, lvt: VirtualTime::new(lvt), worker_index: 0 }) {
                    WorkerGvtOutcome::Completed { gvt: g, .. } => {
                        completions += 1;
                        gvt = g;
                    }
                    WorkerGvtOutcome::Blocked(_) | WorkerGvtOutcome::Waiting => {}
                    other => panic!("barrier never works asynchronously or polls: {other:?}"),
                }
            }
            mpi.step(now);
            if completions == 2 {
                break;
            }
        }
        assert_eq!(completions, 2, "both workers must complete the round");
        assert!(delivered, "the drain loop must have waited for the message");
        assert_eq!(gvt, VirtualTime::new(4.0), "GVT = min of worker LVTs");
        assert_eq!(core.published_gvt(), VirtualTime::new(4.0));
        assert_eq!(core.published_round(), 1);
        assert!(!core.round_requested(), "publication clears the request flag");
    }

    /// Two nodes: the round cannot complete until both nodes' reductions
    /// are relayed through the cluster collective.
    #[test]
    fn multi_node_round_requires_both_mpi_relays() {
        let (core, bundle) = setup(2, 1);
        let mut w0 = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut w1 = bundle.worker_gvt(NodeId(1), LaneId(0), 1);
        let mut mpi0 = bundle.mpi_gvt(NodeId(0));
        let mut mpi1 = bundle.mpi_gvt(NodeId(1));
        core.request_round();

        let mut now = WallNs(0);
        // Without node 1's relay, nothing completes.
        for _ in 0..100 {
            now += WallNs(1_000);
            let _ = w0.step(&ctx(2.0, 0));
            let _ = w1.step(&ctx(7.0, 1));
            mpi0.step(now);
        }
        assert_eq!(core.published_round(), 0);

        let mut completions = 0;
        for _ in 0..10_000 {
            now += WallNs(1_000);
            for (w, lvt) in [(&mut w0, 2.0), (&mut w1, 7.0)] {
                if let WorkerGvtOutcome::Completed { gvt, .. } =
                    w.step(&WorkerGvtCtx { now, lvt: VirtualTime::new(lvt), worker_index: 0 })
                {
                    assert_eq!(gvt, VirtualTime::new(2.0));
                    completions += 1;
                }
            }
            mpi0.step(now);
            mpi1.step(now);
            if completions == 2 {
                break;
            }
        }
        assert_eq!(completions, 2);
        assert_eq!(core.published_gvt(), VirtualTime::new(2.0));
    }
}
