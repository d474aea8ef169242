//! Scaffolding shared by the algorithms: the two-level barrier/reduction,
//! the state and MPI half of the reduction-based algorithms, and the
//! round-join protocol.
//!
//! The paper's Barrier GVT synchronizes in two stages: a pthread barrier +
//! reduction among a node's threads, then an MPI barrier + reduction among
//! nodes, with the result broadcast back. [`TwoLevelReduce`] packages that
//! as a polled pipeline:
//!
//! ```text
//!   workers --arrive--> NodeReduce --(MPI side relays)--> ClusterCollective
//!   workers <--poll---- published count <--(MPI side publishes)--┘
//! ```
//!
//! Generations advance in lockstep across the cluster: every participant
//! observes the result of generation `g` before arriving for `g + 1`, so
//! the cluster collective's own double-buffered result is the one copy:
//! generation `g + 2` cannot overwrite `g`'s slot while a worker still has
//! to read `g`. A node's MPI side publishes a generation by raising the
//! node's count once the result is visible at its clock; workers read the
//! result then. CA-GVT reuses the same structure with identity values as
//! its pure barrier.
//!
//! Barrier GVT and Samadi's GVT are both one such reduction per round step:
//! they share `ReduceShared` and its MPI half `ReduceMpi`, and differ
//! only in their worker halves.

use cagvt_base::ids::NodeId;
use cagvt_base::time::WallNs;
use cagvt_base::trace::{GvtPhaseKind, TraceRecord, Track};
use cagvt_base::wake;
use cagvt_core::gvt::{GvtSharedCore, MpiGvt};
use cagvt_net::{ClusterCollective, ClusterSpec, CostModel, NodeReduce, ReduceValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Polled two-level sum/min reduction over the whole cluster.
///
/// A node's MPI side waits on two things: its workers' contributions (the
/// last one wakes its dedicated MPI actor) and the cluster result, which
/// becomes visible a collective latency after the last node's relay (that
/// relay wakes the other nodes' actors then, and an actor still waiting on
/// it when it parks sets itself a timer).
pub struct TwoLevelReduce {
    spec: ClusterSpec,
    node_reduce: Vec<NodeReduce>,
    cluster: ClusterCollective,
    /// Per node: count of cluster generations published back to workers.
    published: Vec<AtomicU64>,
    /// Per node: count of node generations relayed up to the cluster.
    relayed: Vec<AtomicU64>,
}

impl TwoLevelReduce {
    pub fn new(spec: ClusterSpec) -> Self {
        let (nodes, wpn) = (spec.nodes, spec.workers_per_node as u32);
        TwoLevelReduce {
            spec,
            node_reduce: (0..nodes).map(|_| NodeReduce::new(wpn)).collect(),
            cluster: ClusterCollective::new(nodes as u32),
            published: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            relayed: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Worker side: contribute `(sum, min)`; returns the generation token.
    pub fn arrive(&self, node: NodeId, sum: i64, min: u64) -> u64 {
        let reduce = &self.node_reduce[node.index()];
        let gen = reduce.arrive(sum, min);
        if reduce.try_result(gen).is_some() {
            self.spec.wake_mpi_actor(node, WallNs::ZERO);
        }
        gen
    }

    /// Worker side: the cluster-wide result for `gen`, once it has been
    /// relayed, reduced across nodes, and published back to this node.
    /// The publication already recorded the visibility, so the read takes
    /// no clock: a worker's clock may trail its pump's.
    pub fn poll(&self, node: NodeId, gen: u64) -> Option<ReduceValue> {
        if self.published[node.index()].load(Ordering::Acquire) > gen {
            self.cluster.result(gen)
        } else {
            None
        }
    }

    /// MPI side: relay a completed node reduction up to the cluster
    /// collective and publish completed cluster results back to the node.
    /// Returns the number of operations performed (each is one modeled MPI
    /// call for the caller to charge).
    pub fn pump(&self, node: NodeId, now: WallNs, collective_latency: WallNs) -> u32 {
        let mut ops = 0;
        let idx = node.index();

        let relay_gen = self.relayed[idx].load(Ordering::Acquire);
        if let Some(v) = self.node_reduce[idx].try_result(relay_gen) {
            self.cluster.arrive(now, v.sum, v.min, collective_latency);
            self.relayed[idx].store(relay_gen + 1, Ordering::Release);
            ops += 1;
            if let Some(at) = self.cluster.visible_at(relay_gen) {
                // The last relay: every other node publishes at `at`.
                (0..self.spec.nodes)
                    .filter(|&n| n != node.0)
                    .for_each(|n| self.spec.wake_mpi_actor(NodeId(n), at));
            }
        }

        let mut pub_gen = self.published[idx].load(Ordering::Acquire);
        if self.cluster.try_result(now, pub_gen).is_some() {
            self.published[idx].store(pub_gen + 1, Ordering::Release);
            wake::notify_all();
            ops += 1;
            pub_gen += 1;
        }
        if let Some(at) = self.cluster.visible_at(pub_gen) {
            wake::notify_self(at);
        }
        ops
    }

    /// [`Self::pump`] as one modeled MPI step: the cluster collective
    /// completes after [`CostModel::collective_latency`], and each
    /// operation is charged one `mpi_send`.
    pub fn pump_step(&self, node: NodeId, now: WallNs, cost: &CostModel) -> WallNs {
        let latency = cost.collective_latency(self.published.len() as u16);
        WallNs(cost.mpi_send.0 * self.pump(node, now, latency) as u64)
    }
}

/// Shared state of one run of a reduction-based algorithm (Barrier GVT,
/// Samadi's GVT).
pub(crate) struct ReduceShared {
    pub(crate) core: Arc<GvtSharedCore>,
    pub(crate) reduce: TwoLevelReduce,
    pub(crate) rounds_started: AtomicU64,
    pub(crate) cost: CostModel,
}

impl ReduceShared {
    pub(crate) fn new(core: Arc<GvtSharedCore>, spec: ClusterSpec, cost: CostModel) -> Self {
        ReduceShared {
            core,
            reduce: TwoLevelReduce::new(spec),
            rounds_started: AtomicU64::new(0),
            cost,
        }
    }
}

/// MPI half of the reduction-based algorithms: relays node reductions
/// through the cluster collective.
pub(crate) struct ReduceMpi {
    pub(crate) shared: Arc<ReduceShared>,
    pub(crate) node: NodeId,
}

impl MpiGvt for ReduceMpi {
    fn step(&mut self, now: WallNs) -> WallNs {
        self.shared.reduce.pump_step(self.node, now, &self.shared.cost)
    }
}

/// Round-join protocol shared by all the algorithms.
///
/// Record phase `phase` of round `round` on `track`.
pub(crate) fn mark(
    core: &GvtSharedCore,
    now: WallNs,
    track: Track,
    round: u64,
    phase: GvtPhaseKind,
) {
    core.emit(now, || TraceRecord::GvtRound { track, round, phase });
}

/// A worker that has completed `rounds_done` rounds joins round
/// `rounds_done + 1` as soon as it has started; the first worker to
/// observe the engine's round-request flag — gated on the previous round
/// having published, so rounds never overlap — starts it. Once
/// `rounds_started` is bumped, *every* worker observes it, so nobody can
/// miss a round (which would deadlock the barriers and ring gates).
///
/// A `false` answer can only turn `true` after a round request, a round
/// start or a publication, each of which posts a wake notice, so workers
/// that got it may be parked ([`WorkerGvtOutcome::Waiting`]).
///
/// [`WorkerGvtOutcome::Waiting`]: cagvt_core::WorkerGvtOutcome::Waiting
pub fn try_join_round(
    core: &cagvt_core::gvt::GvtSharedCore,
    rounds_started: &AtomicU64,
    rounds_done: u64,
) -> bool {
    if rounds_started.load(Ordering::Acquire) > rounds_done {
        return true;
    }
    if core.round_requested() && core.published_round() == rounds_done {
        if rounds_started
            .compare_exchange(rounds_done, rounds_done + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            core.round_requested.store(false, Ordering::Release);
            wake::notify_all();
            return true;
        }
        // Someone else started it in the same instant.
        return rounds_started.load(Ordering::Acquire) > rounds_done;
    }
    false
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cagvt_base::time::VirtualTime;
    use cagvt_base::trace::TraceSink;
    use cagvt_core::gvt::{WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};

    /// Counts the GVT phase marks recorded through it.
    #[derive(Default)]
    pub(crate) struct PhaseMarks(pub(crate) AtomicU64);

    impl PhaseMarks {
        pub(crate) fn count(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    impl TraceSink for PhaseMarks {
        fn record(&self, _t: WallNs, rec: &TraceRecord) {
            if let TraceRecord::GvtRound { .. } = rec {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Step a worker held at a barrier, then the MPI half that releases
    /// it, with a wake board installed, until the MPI half posts a notice
    /// for every parked actor. Every worker step until then must be a pure
    /// held poll: zero charge and no phase mark. Returns the number of held
    /// polls.
    pub(crate) fn hold_until_notified(
        w: &mut dyn WorkerGvt,
        mpi: &mut dyn MpiGvt,
        marks: &PhaseMarks,
    ) -> u64 {
        let board = wake::install(1);
        let mut notices = wake::Notices::default();
        let before = marks.count();
        for poll in 1..1_000 {
            let now = WallNs(poll * 1_000);
            let ctx = WorkerGvtCtx { now, lvt: VirtualTime::new(5.0), worker_index: 0 };
            assert_eq!(w.step(&ctx), WorkerGvtOutcome::Blocked(WallNs::ZERO));
            assert_eq!(marks.count(), before, "a held poll marks no phase");
            mpi.step(now);
            if board.drain(&mut notices) && notices.all {
                return poll;
            }
        }
        panic!("the MPI half never released the worker");
    }

    fn spec(nodes: u16, wpn: u16) -> ClusterSpec {
        ClusterSpec::new(nodes, wpn, cagvt_net::MpiMode::Dedicated)
    }

    /// Drive a full generation by hand: 2 nodes x 2 workers.
    #[test]
    fn full_generation_flows_through_both_levels() {
        let r = TwoLevelReduce::new(spec(2, 2));
        let lat = WallNs(1_000);

        let g = r.arrive(NodeId(0), 1, 100);
        r.arrive(NodeId(0), 2, 50);
        r.arrive(NodeId(1), 3, 75);
        r.arrive(NodeId(1), -1, 200);

        assert_eq!(r.poll(NodeId(0), g), None);
        // MPI pumps relay each node's partial result.
        assert_eq!(r.pump(NodeId(0), WallNs(10), lat), 1);
        assert_eq!(r.pump(NodeId(1), WallNs(20), lat), 1);
        // Cluster completes at t=20, visible at 20+1000.
        assert_eq!(r.pump(NodeId(0), WallNs(500), lat), 0);
        assert_eq!(r.poll(NodeId(0), g), None);
        assert_eq!(r.pump(NodeId(0), WallNs(1_100), lat), 1);
        assert_eq!(r.pump(NodeId(1), WallNs(1_200), lat), 1);

        let v0 = r.poll(NodeId(0), g).unwrap();
        let v1 = r.poll(NodeId(1), g).unwrap();
        assert_eq!(v0, v1);
        assert_eq!(v0.sum, 5);
        assert_eq!(v0.min, 50);
    }

    #[test]
    fn consecutive_generations_double_buffer() {
        let r = TwoLevelReduce::new(spec(1, 1));
        let lat = WallNs(10);
        // Pump with an advancing clock until the generation publishes
        // (relay and visibility take separate pump calls).
        let mut now = 0u64;
        let mut settle = |r: &TwoLevelReduce| loop {
            now += 1_000;
            if r.pump(NodeId(0), WallNs(now), lat) == 0 && now > 10_000 {
                break;
            }
        };
        let g0 = r.arrive(NodeId(0), 7, 1);
        settle(&r);
        let g1 = r.arrive(NodeId(0), 9, 2);
        settle(&r);
        assert_eq!(r.poll(NodeId(0), g0).unwrap().sum, 7);
        assert_eq!(r.poll(NodeId(0), g1).unwrap().sum, 9);
        assert_eq!(g1, g0 + 1);
    }

    /// Node 1's workers read each generation late: only after node 0's
    /// workers have read it and arrived for the next one (and node 0's
    /// pump has relayed that arrival). Each late poll must still read its
    /// own generation's sum and min from the collective's double buffer.
    #[test]
    fn late_polls_read_their_own_generation() {
        let r = TwoLevelReduce::new(spec(2, 2));
        let lat = WallNs(10);
        let mut now = 0u64;
        let mut pump = |r: &TwoLevelReduce, nodes: &[u16]| {
            for _ in 0..4 {
                now += 1_000;
                for &n in nodes {
                    r.pump(NodeId(n), WallNs(now), lat);
                }
            }
        };
        // Generation g: node 0's workers contribute (g, 10g + 1) and
        // (g, 10g + 2), node 1's (g, 10g + 3) and (g, 10g + 4).
        let arrive = |r: &TwoLevelReduce, node: u16, g: u64| {
            let lanes = [1, 2].map(|lane| 10 * g + lane + 2 * node as u64);
            lanes.map(|min| r.arrive(NodeId(node), g as i64, min))
        };
        let expect = |g: u64| ReduceValue { sum: 4 * g as i64, min: 10 * g + 1 };
        let mut late = arrive(&r, 1, 0);
        arrive(&r, 0, 0);
        pump(&r, &[0, 1]);
        for g in 0..3u64 {
            assert_eq!(late, [g, g], "node 1's generation tokens");
            assert_eq!(r.poll(NodeId(0), g), Some(expect(g)), "node 0, generation {g}");
            if g < 2 {
                arrive(&r, 0, g + 1);
                pump(&r, &[0]);
            }
            for gen in late {
                assert_eq!(r.poll(NodeId(1), gen), Some(expect(g)), "node 1, generation {g}");
            }
            if g < 2 {
                late = arrive(&r, 1, g + 1);
                pump(&r, &[0, 1]);
            }
        }
    }

    #[test]
    fn pump_is_idempotent_when_nothing_pending() {
        let r = TwoLevelReduce::new(spec(2, 1));
        assert_eq!(r.pump(NodeId(0), WallNs(0), WallNs(10)), 0);
        assert_eq!(r.pump(NodeId(1), WallNs(0), WallNs(10)), 0);
    }
}
