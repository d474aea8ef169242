//! Unit-level tests of the MPI pump: outbox draining, inbound routing,
//! lock charging, and the queue-depth signal.

use cagvt_base::ids::{EventId, LaneId, LpId, NodeId};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_core::cluster::build_shared;
use cagvt_core::event::{AntiMsg, EventMsg, RemoteEnv, TaggedMsg};
use cagvt_core::gvt::MpiGvt;
use cagvt_core::mpi_actor::MpiPump;
use cagvt_core::testmodel::MiniHold;
use cagvt_core::SimConfig;
use cagvt_net::MpiMode;
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
