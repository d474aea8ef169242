//! Samadi's GVT algorithm (1985) — the acknowledgement-based baseline the
//! paper's related-work section contrasts against Mattern's.
//!
//! Every simulation message (event or anti) is acknowledged by its
//! receiver; a message stays in its *sender's* "unacknowledged" set — and
//! therefore in the sender's GVT report — until the ack arrives, so no
//! in-flight message can escape the computation. A GVT round is one
//! two-level min-reduction of
//! `min(LVT, unacknowledged sends, marked-ack timestamps)` per worker;
//! workers keep processing throughout (the algorithm is asynchronous, in
//! the paper's taxonomy).
//!
//! The **simultaneous reporting problem** (Samadi's own contribution): a
//! message can be received — and acknowledged — by a worker that has
//! already reported, with the ack reaching a sender that has *not* yet
//! reported, leaving the message's timestamp out of both reports. The fix:
//! a worker *marks* every ack it sends between its report and the end of
//! the round, and a sender folds the timestamps carried by marked acks
//! into its own (pending) report.
//!
//! The cost of all this is the doubled message traffic — exactly the
//! overhead Mattern's algorithm was designed to eliminate (paper §7). The
//! harness's `samadi` experiment measures it.

use cagvt_base::ids::{EventId, LaneId, NodeId};
use cagvt_base::time::VirtualTime;
use cagvt_core::gvt::{
    GvtBundle, GvtSharedCore, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome,
};
use cagvt_net::{ClusterSpec, CostModel, MsgClass};
use std::collections::HashMap;
use std::sync::Arc;

use crate::common::{try_join_round, ReduceMpi, ReduceShared};

/// Bundle factory for Samadi's GVT.
pub struct SamadiBundle {
    shared: Arc<ReduceShared>,
}

impl SamadiBundle {
    pub fn new(core: Arc<GvtSharedCore>, spec: ClusterSpec, cost: CostModel) -> Self {
        SamadiBundle { shared: Arc::new(ReduceShared::new(core, spec, cost)) }
    }
}

impl GvtBundle for SamadiBundle {
    fn name(&self) -> &'static str {
        "samadi"
    }

    fn worker_gvt(&self, node: NodeId, _lane: LaneId, _worker_index: u32) -> Box<dyn WorkerGvt> {
        Box::new(SamadiWorker {
            shared: Arc::clone(&self.shared),
            node,
            rounds_done: 0,
            unacked: HashMap::new(),
            marked_min: u64::MAX,
            reported: false,
            state: State::Idle,
        })
    }

    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        Box::new(ReduceMpi { shared: Arc::clone(&self.shared), node })
    }
}

enum State {
    Idle,
    /// Reported; waiting for the cluster min of this generation.
    Wait(u64),
}

/// Worker half of Samadi's GVT.
pub struct SamadiWorker {
    shared: Arc<ReduceShared>,
    node: NodeId,
    rounds_done: u64,
    /// Sent-but-unacknowledged messages with multiplicity, keyed by
    /// `(id, is_anti, receive-time bits)`: events and their anti-messages
    /// share ids, and a rolled-back sender can re-send a message while the
    /// original (or even an identical copy) is still unacknowledged.
    unacked: HashMap<(EventId, bool, u64), u32>,
    /// Min timestamp carried by marked acks received this round (ordered
    /// bits).
    marked_min: u64,
    /// This worker has reported in the current round (marks its acks).
    reported: bool,
    state: State,
}

impl SamadiWorker {
    fn unacked_min(&self) -> u64 {
        self.unacked.keys().map(|(_, _, bits)| *bits).min().unwrap_or(u64::MAX)
    }
}

impl WorkerGvt for SamadiWorker {
    fn on_send(&mut self, _class: MsgClass, _recv_time: VirtualTime) -> u64 {
        0 // no coloring; coverage comes from the unacked set
    }

    fn on_recv(&mut self, _tag: u64, _class: MsgClass) {}

    fn wants_acks(&self) -> bool {
        true
    }

    fn on_send_tracked(&mut self, id: EventId, recv_time: VirtualTime, anti: bool) {
        *self.unacked.entry((id, anti, recv_time.to_ordered_bits())).or_insert(0) += 1;
    }

    fn mark_acks(&self) -> bool {
        self.reported
    }

    fn on_ack(&mut self, id: EventId, recv_time: VirtualTime, anti: bool, marked: bool) {
        let key = (id, anti, recv_time.to_ordered_bits());
        match self.unacked.get_mut(&key) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.unacked.remove(&key);
                }
            }
            None => debug_assert!(false, "ack for an untracked message {id}"),
        }
        if marked {
            // The receiver had already reported when it got this message;
            // its timestamp must ride in *our* report.
            self.marked_min = self.marked_min.min(recv_time.to_ordered_bits());
        }
    }

    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome {
        let cost = self.shared.cost;
        match self.state {
            State::Idle => {
                if try_join_round(&self.shared.core, &self.shared.rounds_started, self.rounds_done)
                {
                    let report =
                        ctx.lvt.to_ordered_bits().min(self.unacked_min()).min(self.marked_min);
                    let gen = self.shared.reduce.arrive(self.node, 0, report);
                    self.reported = true;
                    self.state = State::Wait(gen);
                    WorkerGvtOutcome::Working(cost.gvt_bookkeeping)
                } else {
                    WorkerGvtOutcome::Waiting
                }
            }
            State::Wait(gen) => match self.shared.reduce.poll(self.node, gen) {
                None => WorkerGvtOutcome::Waiting, // keep simulating
                Some(v) => {
                    let gvt = VirtualTime::from_ordered_bits(v.min);
                    self.rounds_done += 1;
                    self.reported = false;
                    self.marked_min = u64::MAX;
                    self.state = State::Idle;
                    if self.shared.core.published_round() < self.rounds_done {
                        self.shared.core.publish(gvt, self.rounds_done);
                    }
                    WorkerGvtOutcome::Completed { gvt, cost: cost.gvt_bookkeeping }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::ids::LpId;
    use cagvt_base::time::WallNs;
    use cagvt_core::stats::SharedStats;

    fn setup(nodes: u16, wpn: u16) -> (Arc<GvtSharedCore>, SamadiBundle) {
        let stats = Arc::new(SharedStats::new((nodes * wpn) as u32));
        let core = Arc::new(GvtSharedCore::new(stats, nodes, wpn, None, None));
        let spec = ClusterSpec::new(nodes, wpn, cagvt_net::MpiMode::Dedicated);
        (Arc::clone(&core), SamadiBundle::new(core, spec, CostModel::knl_cluster()))
    }

    fn ctx(lvt: f64) -> WorkerGvtCtx {
        WorkerGvtCtx { now: WallNs(0), lvt: VirtualTime::new(lvt), worker_index: 0 }
    }

    fn id(seq: u64) -> EventId {
        EventId::new(LpId(3), seq)
    }

    /// Request a round and drive a lone worker (LVT `lvt`) through it;
    /// returns the published GVT.
    fn run_round(
        core: &GvtSharedCore,
        w: &mut dyn WorkerGvt,
        mpi: &mut dyn MpiGvt,
        now: &mut u64,
        lvt: f64,
    ) -> VirtualTime {
        core.request_round();
        assert!(matches!(w.step(&ctx(lvt)), WorkerGvtOutcome::Working(_)), "joins and reports");
        loop {
            *now += 1_000;
            mpi.step(WallNs(*now));
            if let WorkerGvtOutcome::Completed { gvt, .. } = w.step(&ctx(lvt)) {
                return gvt;
            }
            assert!(*now < 20_000_000, "round must complete");
        }
    }

    #[test]
    fn unacked_sends_hold_the_report_down() {
        let (core, bundle) = setup(1, 1);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut mpi = bundle.mpi_gvt(NodeId(0));
        assert!(w.wants_acks());
        let mut now = 0;

        // An unacked message at t=2.5 while the LVT is 7.0.
        w.on_send_tracked(id(0), VirtualTime::new(2.5), false);
        let gvt = run_round(&core, &mut *w, &mut *mpi, &mut now, 7.0);
        assert_eq!(gvt, VirtualTime::new(2.5), "unacked send bounds the GVT");

        // Acked: the next round reports the LVT.
        w.on_ack(id(0), VirtualTime::new(2.5), false, false);
        assert_eq!(run_round(&core, &mut *w, &mut *mpi, &mut now, 7.0), VirtualTime::new(7.0));
    }

    #[test]
    fn marked_acks_cover_the_reporting_window() {
        let (core, bundle) = setup(1, 2);
        let mut sender = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut receiver = bundle.worker_gvt(NodeId(0), LaneId(1), 1);
        let mut mpi = bundle.mpi_gvt(NodeId(0));

        // Sender has one message at t=1.5 in flight.
        sender.on_send_tracked(id(7), VirtualTime::new(1.5), false);
        core.request_round();
        // Receiver reports first (LVT 9) and starts marking its acks.
        assert!(matches!(receiver.step(&ctx(9.0)), WorkerGvtOutcome::Working(_)));
        assert!(receiver.mark_acks());
        assert!(!sender.mark_acks(), "sender has not reported yet");
        // The message arrives at the receiver, which acks marked; the
        // sender gets the marked ack *before* reporting.
        sender.on_ack(id(7), VirtualTime::new(1.5), false, true);
        // Sender now reports LVT 8 — but the marked ack pins 1.5.
        assert!(matches!(sender.step(&ctx(8.0)), WorkerGvtOutcome::Working(_)));

        let mut now = 0u64;
        let mut done = 0;
        let mut gvt = VirtualTime::ZERO;
        while done < 2 {
            now += 1_000;
            mpi.step(WallNs(now));
            for w in [&mut sender, &mut receiver] {
                if let WorkerGvtOutcome::Completed { gvt: g, .. } = w.step(&ctx(9.0)) {
                    gvt = g;
                    done += 1;
                }
            }
            assert!(now < 10_000_000);
        }
        assert_eq!(gvt, VirtualTime::new(1.5), "marked ack must pin the GVT");
        assert!(!receiver.mark_acks(), "marking window closes with the round");
    }

    #[test]
    fn events_and_antis_with_the_same_id_track_separately() {
        let (core, bundle) = setup(1, 1);
        let mut w = bundle.worker_gvt(NodeId(0), LaneId(0), 0);
        let mut mpi = bundle.mpi_gvt(NodeId(0));
        let mut now = 0;
        w.on_send_tracked(id(4), VirtualTime::new(3.0), false);
        w.on_send_tracked(id(4), VirtualTime::new(3.0), true); // its anti
        w.on_ack(id(4), VirtualTime::new(3.0), false, false);
        // The anti is still unacked: it, not the LVT, bounds the report.
        let gvt = run_round(&core, &mut *w, &mut *mpi, &mut now, 7.0);
        assert_eq!(gvt, VirtualTime::new(3.0), "the unacked anti bounds the GVT");

        w.on_ack(id(4), VirtualTime::new(3.0), true, false);
        assert_eq!(run_round(&core, &mut *w, &mut *mpi, &mut now, 7.0), VirtualTime::new(7.0));
    }
}
