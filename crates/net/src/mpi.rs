//! Node-to-node MPI-like fabric.
//!
//! Two planes, both FIFO per destination and both charged through the same
//! per-node [`Nic`]s (so GVT control traffic queues behind event backlog,
//! as it does on a real wire):
//!
//! * [`MpiFabric`] — the **event plane**, carrying remote event messages
//!   (payload type `M`, supplied by the engine);
//! * [`CtrlPlane`] — the **control plane**, carrying small fixed-format
//!   [`CtrlMsg`]s used by the GVT algorithms (Mattern's circulating control
//!   message travels here, node to node around the ring). Non-generic so
//!   the GVT crate can hold it without knowing the model's payload type.
//!
//! Construct both with [`fabric_pair`]. The fabric models transport only;
//! per-message MPI *software* costs (`mpi_send`/`mpi_recv`, lock holds) are
//! charged by the caller — that is where the dedicated-vs-inline MPI thread
//! distinction lives.

use cagvt_base::fault::{FaultInjector, LinkShape};
use cagvt_base::ids::NodeId;
use cagvt_base::time::WallNs;
use cagvt_base::trace::{TraceRecord, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::link::Nic;
use crate::mailbox::Mailbox;
use crate::spec::CostModel;

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
pub fn fabric_pair<M: Send>(
    nodes: u16,
    faults: Option<Arc<dyn FaultInjector>>,
    trace: Option<Arc<dyn TraceSink>>,
) -> (Arc<MpiFabric<M>>, Arc<CtrlPlane>) {
    let nics: Arc<Vec<Nic>> = Arc::new((0..nodes).map(|_| Nic::new()).collect());
    let fabric = Arc::new(MpiFabric {
        nodes,
        nics: Arc::clone(&nics),
        inboxes: (0..nodes).map(|_| Mailbox::new()).collect(),
        sent: AtomicU64::new(0),
        faults: faults.clone(),
        trace,
    });
    let ctrl = Arc::new(CtrlPlane {
        nodes,
        nics,
        inboxes: (0..nodes).map(|_| Mailbox::new()).collect(),
        sent: AtomicU64::new(0),
        faults,
    });
    (fabric, ctrl)
}

/// Shape one wire transmission through the optional injector. The message
/// always reaches its inbox — a drop is recovered by retransmit timeouts
/// appended to the delivery instant — so send/receive conservation (the
/// invariant Mattern's white-message count rests on) holds under faults.
#[inline]
fn shaped_send(
    faults: &Option<Arc<dyn FaultInjector>>,
    nic: &Nic,
    from: NodeId,
    to: NodeId,
    now: WallNs,
    cost: &CostModel,
) -> WallNs {
    let shape = match faults {
        Some(f) => f.link(from, to, now, cost.wire_per_msg, cost.wire_latency),
        None => LinkShape::clean(cost.wire_per_msg, cost.wire_latency),
    };
    nic.send(now, shape.per_msg, shape.latency) + shape.retransmit_delay
}

/// The event plane of the simulated interconnect.
pub struct MpiFabric<M> {
    nodes: u16,
    nics: Arc<Vec<Nic>>,
    inboxes: Vec<Mailbox<M>>,
    sent: AtomicU64,
    faults: Option<Arc<dyn FaultInjector>>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl<M: Send> MpiFabric<M> {
    #[inline]
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Transmit an event message. Returns the instant it becomes receivable
    /// at `to`. The caller charges itself the MPI software cost.
    pub fn send_event(
        &self,
        from: NodeId,
        to: NodeId,
        now: WallNs,
        msg: M,
        cost: &CostModel,
    ) -> WallNs {
        debug_assert_ne!(from, to, "remote send to self");
        let deliver_at = shaped_send(&self.faults, &self.nics[from.index()], from, to, now, cost);
        self.inboxes[to.index()].push(deliver_at, msg);
        self.sent.fetch_add(1, Ordering::Relaxed);
        deliver_at
    }

    /// Receive one event message at node `at`, if its delivery time has
    /// passed.
    pub fn recv_event(&self, at: NodeId, now: WallNs) -> Option<M> {
        self.inboxes[at.index()].pop_ready(now)
    }

    /// Batch-receive event messages at node `at`.
    pub fn drain_events(&self, at: NodeId, now: WallNs, max: usize, out: &mut Vec<M>) -> usize {
        let n = self.inboxes[at.index()].drain_ready_into(now, max, out);
        if let Some(tr) = &self.trace {
            if tr.enabled() {
                let depth = self.inboxes[at.index()].len() as u64;
                tr.record(now, &TraceRecord::MpiQueue { node: at.0, depth, inbound: true });
            }
        }
        n
    }

    /// Depth of the event inbox at `at` (includes in-flight messages).
    pub fn event_inbox_len(&self, at: NodeId) -> usize {
        self.inboxes[at.index()].len()
    }

    pub fn nic(&self, n: NodeId) -> &Nic {
        &self.nics[n.index()]
    }

    pub fn events_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// The GVT control plane: same NICs, separate inboxes.
pub struct CtrlPlane {
    nodes: u16,
    nics: Arc<Vec<Nic>>,
    inboxes: Vec<Mailbox<CtrlMsg>>,
    sent: AtomicU64,
    faults: Option<Arc<dyn FaultInjector>>,
}

impl CtrlPlane {
    #[inline]
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Next node on Mattern's ring.
    #[inline]
    pub fn ring_next(&self, n: NodeId) -> NodeId {
        NodeId((n.0 + 1) % self.nodes)
    }

    /// Transmit a control message. On a single-node cluster the ring
    /// degenerates to a self-loop with no wire cost.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        now: WallNs,
        msg: CtrlMsg,
        cost: &CostModel,
    ) -> WallNs {
        let deliver_at = if from == to {
            now
        } else {
            shaped_send(&self.faults, &self.nics[from.index()], from, to, now, cost)
        };
        self.inboxes[to.index()].push(deliver_at, msg);
        self.sent.fetch_add(1, Ordering::Relaxed);
        deliver_at
    }

    /// Receive one control message at node `at`.
    pub fn recv(&self, at: NodeId, now: WallNs) -> Option<CtrlMsg> {
        self.inboxes[at.index()].pop_ready(now)
    }

    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
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
        let at = fab.send_event(NodeId(0), NodeId(1), WallNs(0), 7, &cm());
        assert_eq!(at.0, cm().wire_per_msg.0 + cm().wire_latency.0);
        assert_eq!(fab.recv_event(NodeId(1), WallNs(0)), None, "still in flight");
        assert_eq!(fab.recv_event(NodeId(1), at), Some(7));
        assert_eq!(fab.events_sent(), 1);
    }

    #[test]
    fn fifo_per_destination_across_sources() {
        let (fab, _ctrl) = fabric_pair::<u32>(3, None, None);
        fab.send_event(NodeId(0), NodeId(2), WallNs(0), 1, &cm());
        fab.send_event(NodeId(1), NodeId(2), WallNs(0), 2, &cm());
        let mut out = Vec::new();
        fab.drain_events(NodeId(2), WallNs(1_000_000), 10, &mut out);
        assert_eq!(out, vec![1, 2]);
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
        assert_eq!(ctrl.sent(), 1);
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
    fn inbox_len_counts_in_flight() {
        let (fab, _ctrl) = fabric_pair::<u8>(2, None, None);
        fab.send_event(NodeId(0), NodeId(1), WallNs(0), 1, &cm());
        fab.send_event(NodeId(0), NodeId(1), WallNs(0), 2, &cm());
        assert_eq!(fab.event_inbox_len(NodeId(1)), 2);
        let _ = fab.recv_event(NodeId(1), WallNs(u64::MAX / 2));
        assert_eq!(fab.event_inbox_len(NodeId(1)), 1);
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
        let fwd = fab.send_event(NodeId(0), NodeId(1), WallNs(0), 7, &cm());
        assert_eq!(fwd.0, cm().wire_per_msg.0 + 3 * cm().wire_latency.0 + 1_000_000);
        // Delayed, not lost: the message still arrives exactly once.
        assert_eq!(fab.recv_event(NodeId(1), WallNs(fwd.0 - 1)), None);
        assert_eq!(fab.recv_event(NodeId(1), fwd), Some(7));
        // Reverse direction (node 1's own NIC) is clean.
        let rev = fab.send_event(NodeId(1), NodeId(0), WallNs(0), 9, &cm());
        assert_eq!(rev.0, cm().wire_per_msg.0 + cm().wire_latency.0);
        // The control plane is shaped through the same injector.
        let c = ctrl.send(NodeId(0), NodeId(1), fwd, CtrlMsg::new(0, 0, NodeId(0)), &cm());
        assert!(c.0 >= fwd.0 + 3 * cm().wire_latency.0 + 1_000_000);
    }

    #[test]
    fn ctrl_and_events_share_the_nic() {
        let (fab, ctrl) = fabric_pair::<u8>(2, None, None);
        // Burst of events books the NIC ahead...
        for i in 0..10 {
            fab.send_event(NodeId(0), NodeId(1), WallNs(0), i, &cm());
        }
        // ...so a control message sent at t=0 queues behind them.
        let at = ctrl.send(NodeId(0), NodeId(1), WallNs(0), CtrlMsg::new(0, 0, NodeId(0)), &cm());
        assert_eq!(at.0, 11 * cm().wire_per_msg.0 + cm().wire_latency.0);
    }
}
