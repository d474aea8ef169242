//! Node-to-node MPI-like fabric.
//!
//! Two planes of one type, [`MpiFabric`], both FIFO per destination and
//! both booked on the same per-node NICs (so GVT control traffic queues
//! behind event backlog, as it does on a real wire):
//!
//! * the **event plane**, carrying remote event messages (payload type
//!   `M`, supplied by the engine);
//! * the **control plane** ([`CtrlPlane`]), carrying small fixed-format
//!   [`CtrlMsg`]s used by the GVT algorithms (Mattern's circulating control
//!   message travels here, node to node around the ring).
//!
//! Construct both with [`fabric_pair`]. The fabric models transport only;
//! per-message MPI *software* costs (`mpi_send`/`mpi_recv`, lock holds) are
//! charged by the caller — that is where the dedicated-vs-inline MPI thread
//! distinction lives.

use cagvt_base::fault::{FaultInjector, LinkShape};
use cagvt_base::ids::NodeId;
use cagvt_base::time::WallNs;
use std::sync::Arc;

use crate::mailbox::Mailbox;
use crate::spec::{ClusterSpec, CostModel};
use crate::vmutex::VirtualMutex;

/// Fixed-format GVT control message.
///
/// The interpretation of the fields belongs to the GVT algorithm (`kind`
/// discriminates): Mattern uses `sum` for the accumulated white-message
/// count and `min1`/`min2` for min-LVT and min-red-timestamp (as ordered
/// bits); the hop counter tracks ring progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrlMsg {
    pub kind: u8,
    pub round: u64,
    pub sum: i64,
    pub min1: u64,
    pub min2: u64,
    pub origin: NodeId,
    pub hops: u16,
}

impl CtrlMsg {
    pub fn new(kind: u8, round: u64, origin: NodeId) -> Self {
        CtrlMsg { kind, round, sum: 0, min1: u64::MAX, min2: u64::MAX, origin, hops: 0 }
    }
}

/// Create the event plane and control plane sharing one set of NICs, one
/// per node of `spec`.
///
/// With a fault injector, every inter-node message (both planes) is shaped
/// through [`FaultInjector::link`], so degraded links and drop/retransmit
/// recovery apply to event and GVT control traffic alike. In
/// [`MpiMode::Dedicated`](crate::MpiMode::Dedicated) every send wakes the
/// destination node's MPI actor at the message's delivery instant.
pub fn fabric_pair<M>(
    spec: ClusterSpec,
    faults: Option<Arc<dyn FaultInjector>>,
) -> (Arc<MpiFabric<M>>, Arc<CtrlPlane>) {
    let nics: Arc<Vec<VirtualMutex>> =
        Arc::new((0..spec.nodes).map(|_| VirtualMutex::new()).collect());
    let ctrl = MpiFabric::new(spec, Arc::clone(&nics), faults.clone());
    (Arc::new(MpiFabric::new(spec, nics, faults)), Arc::new(ctrl))
}

/// One plane of the simulated interconnect: a FIFO inbox per node, with
/// every transmission booked on the sending node's NIC.
pub struct MpiFabric<M> {
    spec: ClusterSpec,
    /// Transmit side of each node's NIC, shared by both planes. A message
    /// handed over at `now` starts transmitting once the NIC is free, so
    /// the NIC is a [`VirtualMutex`] held for the per-message wire time.
    nics: Arc<Vec<VirtualMutex>>,
    inboxes: Vec<Mailbox<M>>,
    faults: Option<Arc<dyn FaultInjector>>,
}

/// The GVT control plane: same NICs as the event plane, its own inboxes.
/// Non-generic so the GVT crate can hold it without knowing the model's
/// payload type.
pub type CtrlPlane = MpiFabric<CtrlMsg>;

impl<M> MpiFabric<M> {
    fn new(
        spec: ClusterSpec,
        nics: Arc<Vec<VirtualMutex>>,
        faults: Option<Arc<dyn FaultInjector>>,
    ) -> Self {
        let inboxes = nics.iter().map(|_| Mailbox::new()).collect();
        MpiFabric { spec, nics, inboxes, faults }
    }

    /// Next node on Mattern's ring.
    #[inline]
    pub fn ring_next(&self, n: NodeId) -> NodeId {
        NodeId((n.0 + 1) % self.inboxes.len() as u16)
    }

    /// Transmit a message. Returns the instant it becomes receivable at
    /// `to`: NIC queueing, transmit time and wire latency, plus the
    /// retransmit timeouts of a shaped link. The message always reaches its
    /// inbox — a drop is recovered by the retransmit delay — so
    /// send/receive conservation (the invariant Mattern's white-message
    /// count rests on) holds under faults. A self-send (the control ring of
    /// a one-node cluster) is immediate; the event plane never sends to
    /// itself. The caller charges itself the MPI software cost.
    pub fn send(&self, from: NodeId, to: NodeId, now: WallNs, msg: M, cost: &CostModel) -> WallNs {
        let deliver_at = if from == to {
            now
        } else {
            let shape = match &self.faults {
                Some(f) => f.link(from, to, now, cost.wire_per_msg, cost.wire_latency),
                None => LinkShape::clean(cost.wire_per_msg, cost.wire_latency),
            };
            now + self.nics[from.index()].acquire(now, shape.per_msg)
                + shape.latency
                + shape.retransmit_delay
        };
        self.inboxes[to.index()].push(deliver_at, msg);
        self.spec.wake_mpi_actor(to, deliver_at);
        deliver_at
    }

    /// Node `at`'s inbox, where the node receives: a message pops once its
    /// delivery instant has passed, and the depth counts messages still in
    /// flight.
    pub fn inbox(&self, at: NodeId) -> &Mailbox<M> {
        &self.inboxes[at.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::knl_cluster()
    }

    fn spec(nodes: u16) -> ClusterSpec {
        ClusterSpec::new(nodes, 1, crate::MpiMode::Dedicated)
    }

    #[test]
    fn event_travels_with_wire_latency() {
        let (fab, _ctrl) = fabric_pair::<u32>(spec(2), None);
        let at = fab.send(NodeId(0), NodeId(1), WallNs(0), 7, &cm());
        assert_eq!(at.0, cm().wire_per_msg.0 + cm().wire_latency.0);
        assert_eq!(fab.inbox(NodeId(1)).pop_ready(WallNs(0)), None, "still in flight");
        assert_eq!(fab.inbox(NodeId(1)).pop_ready(at), Some(7));
    }

    #[test]
    fn fifo_per_destination_across_sources() {
        let (fab, _ctrl) = fabric_pair::<u32>(spec(3), None);
        fab.send(NodeId(0), NodeId(2), WallNs(0), 1, &cm());
        fab.send(NodeId(1), NodeId(2), WallNs(0), 2, &cm());
        let mut out = Vec::new();
        assert_eq!(fab.inbox(NodeId(2)).drain_ready_into(WallNs(1_000_000), 10, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn burst_serializes_on_the_nic_and_an_idle_nic_adds_nothing() {
        let cost = CostModel { wire_per_msg: WallNs(500), wire_latency: WallNs(20_000), ..cm() };
        let (fab, _ctrl) = fabric_pair::<u8>(spec(2), None);
        let burst: Vec<WallNs> =
            (0..3).map(|i| fab.send(NodeId(0), NodeId(1), WallNs(0), i, &cost)).collect();
        assert_eq!(burst, [WallNs(20_500), WallNs(21_000), WallNs(21_500)]);
        // Handed over long after the NIC went idle: no queueing.
        let late = fab.send(NodeId(0), NodeId(1), WallNs(50_000), 3, &cost);
        assert_eq!(late, WallNs(70_500));
        let mut out = Vec::new();
        assert_eq!(
            fab.inbox(NodeId(1)).drain_ready_into(WallNs(21_000), 10, &mut out),
            2,
            "two delivered"
        );
        assert_eq!(fab.inbox(NodeId(1)).drain_ready_into(late, 10, &mut out), 2);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraps_around() {
        let (_fab, ctrl) = fabric_pair::<()>(spec(4), None);
        assert_eq!(ctrl.ring_next(NodeId(0)), NodeId(1));
        assert_eq!(ctrl.ring_next(NodeId(3)), NodeId(0));
    }

    #[test]
    fn ctrl_plane_round_trip() {
        let (_fab, ctrl) = fabric_pair::<()>(spec(2), None);
        let msg = CtrlMsg { sum: -3, ..CtrlMsg::new(1, 9, NodeId(0)) };
        let at = ctrl.send(NodeId(0), NodeId(1), WallNs(100), msg, &cm());
        assert!(at > WallNs(100));
        assert_eq!(ctrl.inbox(NodeId(1)).pop_ready(WallNs(99)), None);
        let got = ctrl.inbox(NodeId(1)).pop_ready(at).unwrap();
        assert_eq!(got.sum, -3);
        assert_eq!(got.round, 9);
    }

    #[test]
    fn single_node_ctrl_self_loop_is_immediate() {
        let (_fab, ctrl) = fabric_pair::<()>(spec(1), None);
        assert_eq!(ctrl.ring_next(NodeId(0)), NodeId(0));
        let at = ctrl.send(NodeId(0), NodeId(0), WallNs(5), CtrlMsg::new(0, 1, NodeId(0)), &cm());
        assert_eq!(at, WallNs(5));
        assert!(ctrl.inbox(NodeId(0)).pop_ready(WallNs(5)).is_some());
    }

    #[test]
    fn faulted_fabric_shapes_latency_and_retransmits() {
        /// Triples wire latency on 0→1 and adds a fixed retransmit delay;
        /// leaves the reverse direction clean.
        struct DegradeForward;
        impl FaultInjector for DegradeForward {
            fn link(
                &self,
                from: NodeId,
                to: NodeId,
                _now: WallNs,
                per_msg: WallNs,
                latency: WallNs,
            ) -> LinkShape {
                if (from, to) == (NodeId(0), NodeId(1)) {
                    LinkShape {
                        per_msg,
                        latency: WallNs(latency.0 * 3),
                        retransmit_delay: WallNs(1_000_000),
                    }
                } else {
                    LinkShape::clean(per_msg, latency)
                }
            }
        }

        let (fab, ctrl) = fabric_pair::<u32>(spec(2), Some(Arc::new(DegradeForward)));
        let fwd = fab.send(NodeId(0), NodeId(1), WallNs(0), 7, &cm());
        assert_eq!(fwd.0, cm().wire_per_msg.0 + 3 * cm().wire_latency.0 + 1_000_000);
        // Delayed, not lost: the message still arrives exactly once.
        assert_eq!(fab.inbox(NodeId(1)).pop_ready(WallNs(fwd.0 - 1)), None);
        assert_eq!(fab.inbox(NodeId(1)).pop_ready(fwd), Some(7));
        assert_eq!(fab.inbox(NodeId(1)).pop_ready(fwd), None);
        // Reverse direction (node 1's own NIC) is clean.
        let rev = fab.send(NodeId(1), NodeId(0), WallNs(0), 9, &cm());
        assert_eq!(rev.0, cm().wire_per_msg.0 + cm().wire_latency.0);
        // The control plane is shaped through the same injector.
        let c = ctrl.send(NodeId(0), NodeId(1), fwd, CtrlMsg::new(0, 0, NodeId(0)), &cm());
        assert!(c.0 >= fwd.0 + 3 * cm().wire_latency.0 + 1_000_000);
    }

    #[test]
    fn a_retransmitted_message_holds_back_later_ones_on_its_inbox() {
        /// Every transmission handed over before t=1000 is dropped once and
        /// recovered after a retransmit delay; later ones go clean.
        struct DropEarly;
        impl FaultInjector for DropEarly {
            fn link(
                &self,
                _from: NodeId,
                _to: NodeId,
                now: WallNs,
                per_msg: WallNs,
                latency: WallNs,
            ) -> LinkShape {
                let retransmit_delay =
                    if now < WallNs(1_000) { WallNs(1_000_000) } else { WallNs(0) };
                LinkShape { retransmit_delay, ..LinkShape::clean(per_msg, latency) }
            }
        }

        // The engine's annihilation needs exactly this: an anti-message sent
        // after its positive event must not be received before it.
        let (fab, _ctrl) = fabric_pair::<u32>(spec(2), Some(Arc::new(DropEarly)));
        let delayed = fab.send(NodeId(0), NodeId(1), WallNs(0), 1, &cm());
        let clean = fab.send(NodeId(0), NodeId(1), WallNs(2_000), 2, &cm());
        assert!(clean < delayed, "the later message alone would arrive first");
        assert_eq!(fab.inbox(NodeId(1)).pop_ready(clean), None, "held behind the retransmission");
        let mut out = Vec::new();
        assert_eq!(fab.inbox(NodeId(1)).drain_ready_into(WallNs(delayed.0 - 1), 10, &mut out), 0);
        assert_eq!(fab.inbox(NodeId(1)).drain_ready_into(delayed, 10, &mut out), 2);
        assert_eq!(out, [1, 2], "received in send order");
    }

    /// With dedicated MPI actors, a send on either plane wakes the
    /// destination node's actor at the delivery instant; without them it
    /// posts nothing.
    #[test]
    fn sends_wake_the_destination_mpi_actor() {
        use cagvt_base::wake::{self, Notices};
        let board = wake::install(8);
        let mut notices = Notices::default();
        let (fab, ctrl) = fabric_pair::<u8>(spec(3), None);
        let at = fab.send(NodeId(0), NodeId(2), WallNs(0), 1, &cm());
        let c = ctrl.send(NodeId(2), NodeId(1), WallNs(0), CtrlMsg::new(0, 0, NodeId(2)), &cm());
        assert!(board.drain(&mut notices));
        let (a2, a1) = (spec(3).mpi_actor(NodeId(2)), spec(3).mpi_actor(NodeId(1)));
        assert_eq!(notices.actors, [(a2, at), (a1, c)]);
        assert_eq!(fab.inbox(NodeId(2)).head_deliver_at(), Some(at));

        let inline = ClusterSpec::new(3, 1, crate::MpiMode::InlineWorker);
        let (fab, _ctrl) = fabric_pair::<u8>(inline, None);
        fab.send(NodeId(0), NodeId(2), WallNs(0), 1, &cm());
        assert!(!board.drain(&mut notices), "no dedicated actor, no notice");
    }

    #[test]
    fn ctrl_and_events_share_the_nic() {
        let (fab, ctrl) = fabric_pair::<u8>(spec(2), None);
        // Burst of events books the NIC ahead...
        for i in 0..10 {
            fab.send(NodeId(0), NodeId(1), WallNs(0), i, &cm());
        }
        // ...so a control message sent at t=0 queues behind them.
        let at = ctrl.send(NodeId(0), NodeId(1), WallNs(0), CtrlMsg::new(0, 0, NodeId(0)), &cm());
        assert_eq!(at.0, 11 * cm().wire_per_msg.0 + cm().wire_latency.0);
    }
}
