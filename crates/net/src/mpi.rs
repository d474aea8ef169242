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
use cagvt_base::trace::{TraceRecord, TraceSink};
use std::sync::Arc;

use crate::mailbox::Mailbox;
use crate::spec::CostModel;
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

/// Create the event plane and control plane sharing one set of NICs.
///
/// With a fault injector, every inter-node message (both planes) is shaped
/// through [`FaultInjector::link`], so degraded links and drop/retransmit
/// recovery apply to event and GVT control traffic alike. With a trace
/// sink, the event plane samples its inbound inbox occupancy on every
/// drain, giving the in-flight side of the MPI-queue picture (the outbound
/// side is sampled by the MPI pumps).
pub fn fabric_pair<M>(
    nodes: u16,
    faults: Option<Arc<dyn FaultInjector>>,
    trace: Option<Arc<dyn TraceSink>>,
) -> (Arc<MpiFabric<M>>, Arc<CtrlPlane>) {
    let nics: Arc<Vec<VirtualMutex>> = Arc::new((0..nodes).map(|_| VirtualMutex::new()).collect());
    let ctrl = MpiFabric::new(Arc::clone(&nics), faults.clone(), None);
    (Arc::new(MpiFabric::new(nics, faults, trace)), Arc::new(ctrl))
}

/// One plane of the simulated interconnect: a FIFO inbox per node, with
/// every transmission booked on the sending node's NIC.
pub struct MpiFabric<M> {
    /// Transmit side of each node's NIC, shared by both planes. A message
    /// handed over at `now` starts transmitting once the NIC is free, so
    /// the NIC is a [`VirtualMutex`] held for the per-message wire time.
    nics: Arc<Vec<VirtualMutex>>,
    inboxes: Vec<Mailbox<M>>,
    faults: Option<Arc<dyn FaultInjector>>,
    /// Inbound-depth sampling on every drain (the event plane's only).
    trace: Option<Arc<dyn TraceSink>>,
}

/// The GVT control plane: same NICs as the event plane, its own inboxes.
/// Non-generic so the GVT crate can hold it without knowing the model's
/// payload type.
pub type CtrlPlane = MpiFabric<CtrlMsg>;

impl<M> MpiFabric<M> {
    fn new(
        nics: Arc<Vec<VirtualMutex>>,
        faults: Option<Arc<dyn FaultInjector>>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let inboxes = nics.iter().map(|_| Mailbox::new()).collect();
        MpiFabric { nics, inboxes, faults, trace }
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
        deliver_at
    }

    /// Receive one message at node `at`, if its delivery time has passed.
    pub fn recv(&self, at: NodeId, now: WallNs) -> Option<M> {
        self.inboxes[at.index()].pop_ready(now)
    }

    /// Batch-receive up to `max` delivered messages at node `at`.
    pub fn drain(&self, at: NodeId, now: WallNs, max: usize, out: &mut Vec<M>) -> usize {
        let n = self.inboxes[at.index()].drain_ready_into(now, max, out);
        if let Some(tr) = &self.trace {
            let depth = self.inboxes[at.index()].len() as u64;
            tr.record(now, &TraceRecord::MpiQueue { node: at.0, depth, inbound: true });
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::knl_cluster()
    }

    #[test]
    fn event_travels_with_wire_latency() {
        let (fab, _ctrl) = fabric_pair::<u32>(2, None, None);
        let at = fab.send(NodeId(0), NodeId(1), WallNs(0), 7, &cm());
        assert_eq!(at.0, cm().wire_per_msg.0 + cm().wire_latency.0);
        assert_eq!(fab.recv(NodeId(1), WallNs(0)), None, "still in flight");
        assert_eq!(fab.recv(NodeId(1), at), Some(7));
    }

    #[test]
    fn fifo_per_destination_across_sources() {
        let (fab, _ctrl) = fabric_pair::<u32>(3, None, None);
        fab.send(NodeId(0), NodeId(2), WallNs(0), 1, &cm());
        fab.send(NodeId(1), NodeId(2), WallNs(0), 2, &cm());
        let mut out = Vec::new();
        assert_eq!(fab.drain(NodeId(2), WallNs(1_000_000), 10, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn burst_serializes_on_the_nic_and_an_idle_nic_adds_nothing() {
        let cost = CostModel { wire_per_msg: WallNs(500), wire_latency: WallNs(20_000), ..cm() };
        let (fab, _ctrl) = fabric_pair::<u8>(2, None, None);
        let burst: Vec<WallNs> =
            (0..3).map(|i| fab.send(NodeId(0), NodeId(1), WallNs(0), i, &cost)).collect();
        assert_eq!(burst, [WallNs(20_500), WallNs(21_000), WallNs(21_500)]);
        // Handed over long after the NIC went idle: no queueing.
        let late = fab.send(NodeId(0), NodeId(1), WallNs(50_000), 3, &cost);
        assert_eq!(late, WallNs(70_500));
        let mut out = Vec::new();
        assert_eq!(fab.drain(NodeId(1), WallNs(21_000), 10, &mut out), 2, "two delivered");
        assert_eq!(fab.drain(NodeId(1), late, 10, &mut out), 2);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraps_around() {
        let (_fab, ctrl) = fabric_pair::<()>(4, None, None);
        assert_eq!(ctrl.ring_next(NodeId(0)), NodeId(1));
        assert_eq!(ctrl.ring_next(NodeId(3)), NodeId(0));
    }

    #[test]
    fn ctrl_plane_round_trip() {
        let (_fab, ctrl) = fabric_pair::<()>(2, None, None);
        let msg = CtrlMsg { sum: -3, ..CtrlMsg::new(1, 9, NodeId(0)) };
        let at = ctrl.send(NodeId(0), NodeId(1), WallNs(100), msg, &cm());
        assert!(at > WallNs(100));
        assert_eq!(ctrl.recv(NodeId(1), WallNs(99)), None);
        let got = ctrl.recv(NodeId(1), at).unwrap();
        assert_eq!(got.sum, -3);
        assert_eq!(got.round, 9);
    }

    #[test]
    fn single_node_ctrl_self_loop_is_immediate() {
        let (_fab, ctrl) = fabric_pair::<()>(1, None, None);
        assert_eq!(ctrl.ring_next(NodeId(0)), NodeId(0));
        let at = ctrl.send(NodeId(0), NodeId(0), WallNs(5), CtrlMsg::new(0, 1, NodeId(0)), &cm());
        assert_eq!(at, WallNs(5));
        assert!(ctrl.recv(NodeId(0), WallNs(5)).is_some());
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

        let (fab, ctrl) = fabric_pair::<u32>(2, Some(Arc::new(DegradeForward)), None);
        let fwd = fab.send(NodeId(0), NodeId(1), WallNs(0), 7, &cm());
        assert_eq!(fwd.0, cm().wire_per_msg.0 + 3 * cm().wire_latency.0 + 1_000_000);
        // Delayed, not lost: the message still arrives exactly once.
        assert_eq!(fab.recv(NodeId(1), WallNs(fwd.0 - 1)), None);
        assert_eq!(fab.recv(NodeId(1), fwd), Some(7));
        assert_eq!(fab.recv(NodeId(1), fwd), None);
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
        let (fab, _ctrl) = fabric_pair::<u32>(2, Some(Arc::new(DropEarly)), None);
        let delayed = fab.send(NodeId(0), NodeId(1), WallNs(0), 1, &cm());
        let clean = fab.send(NodeId(0), NodeId(1), WallNs(2_000), 2, &cm());
        assert!(clean < delayed, "the later message alone would arrive first");
        assert_eq!(fab.recv(NodeId(1), clean), None, "held behind the retransmission");
        let mut out = Vec::new();
        assert_eq!(fab.drain(NodeId(1), WallNs(delayed.0 - 1), 10, &mut out), 0);
        assert_eq!(fab.drain(NodeId(1), delayed, 10, &mut out), 2);
        assert_eq!(out, [1, 2], "received in send order");
    }

    #[test]
    fn ctrl_and_events_share_the_nic() {
        let (fab, ctrl) = fabric_pair::<u8>(2, None, None);
        // Burst of events books the NIC ahead...
        for i in 0..10 {
            fab.send(NodeId(0), NodeId(1), WallNs(0), i, &cm());
        }
        // ...so a control message sent at t=0 queues behind them.
        let at = ctrl.send(NodeId(0), NodeId(1), WallNs(0), CtrlMsg::new(0, 0, NodeId(0)), &cm());
        assert_eq!(at.0, 11 * cm().wire_per_msg.0 + cm().wire_latency.0);
    }
}
