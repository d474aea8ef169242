//! Property tests for the cluster substrate's time-queueing primitives.

use cagvt_base::ids::NodeId;
use cagvt_base::time::WallNs;
use cagvt_net::{fabric_pair, ClusterSpec, CostModel, Mailbox, MpiMode, VirtualMutex};
use proptest::prelude::*;

proptest! {
    /// A sequence of lock acquisitions never overlaps in time: each
    /// caller's critical section starts at or after the previous one's
    /// end, and the charge equals wait + hold.
    #[test]
    fn vmutex_serializes(ops in prop::collection::vec((0u64..1_000_000, 1u64..10_000), 1..100)) {
        let m = VirtualMutex::new();
        let mut sections: Vec<(u64, u64)> = Vec::new();
        for (now, hold) in ops {
            let charge = m.acquire(WallNs(now), WallNs(hold));
            let end = now + charge.as_nanos();
            let start = end - hold;
            prop_assert!(start >= now, "section cannot start before arrival");
            sections.push((start, end));
        }
        // Sections are disjoint in acquisition order.
        for w in sections.windows(2) {
            prop_assert!(w[1].0 >= w[0].1, "overlap: {:?}", w);
        }
    }

    /// A node's fabric sends serialize on its NIC: each message occupies
    /// the wire exclusively, never before it was handed over, and every
    /// message is delivered.
    #[test]
    fn nic_serializes(ops in prop::collection::vec(0u64..1_000_000, 1..100),
                      per_msg in 1u64..5_000, latency in 0u64..100_000) {
        let cost = CostModel {
            wire_per_msg: WallNs(per_msg),
            wire_latency: WallNs(latency),
            ..CostModel::knl_cluster()
        };
        let (fabric, _ctrl) = fabric_pair::<u64>(ClusterSpec::new(2, 1, MpiMode::Dedicated), None);
        let mut last_tx_done = 0u64;
        for &now in &ops {
            let deliver = fabric.send(NodeId(0), NodeId(1), WallNs(now), now, &cost);
            let tx_done = deliver.as_nanos() - latency;
            let tx_start = tx_done - per_msg;
            prop_assert!(tx_start >= last_tx_done, "transmissions overlap");
            prop_assert!(tx_start >= now);
            last_tx_done = tx_done;
        }
        let mut got = Vec::new();
        prop_assert_eq!(fabric.inbox(NodeId(1)).drain_ready_into(WallNs(u64::MAX / 2), usize::MAX, &mut got), ops.len());
        prop_assert_eq!(got, ops);
    }
}

proptest! {
    /// Mailbox delivers every message exactly once, in push order, never
    /// before its deliver_at.
    #[test]
    fn mailbox_fifo_exactly_once(msgs in prop::collection::vec(0u64..100_000, 1..200)) {
        let mb: Mailbox<usize> = Mailbox::new();
        for (i, &t) in msgs.iter().enumerate() {
            mb.push(WallNs(t), i);
        }
        let mut got = Vec::new();
        let mut now = 0u64;
        while got.len() < msgs.len() {
            now += 1_000;
            prop_assert!(now < 1_000_000_000, "livelock");
            while let Some(i) = mb.pop_ready(WallNs(now)) {
                prop_assert!(now >= msgs[i], "delivered before deliver_at");
                got.push(i);
            }
        }
        // FIFO: indices in push order.
        let expected: Vec<usize> = (0..msgs.len()).collect();
        prop_assert_eq!(got, expected);
        prop_assert!(mb.is_empty());
    }
}
