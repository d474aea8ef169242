//! Identifier newtypes for cluster topology and simulation entities.
//!
//! Topology vocabulary mirrors the paper's setup: a *cluster* of *nodes*
//! (KNL sockets), each running several *lanes* (hardware threads pinned one
//! per core: worker threads plus, optionally, a dedicated MPI thread). Each
//! worker lane owns a fixed, static partition of the *logical processes*
//! (LPs).

use std::fmt;

/// A node of the cluster (one simulation instance / MPI rank in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u16);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A lane within a node: worker lanes are `0..workers`, the dedicated MPI
/// lane (when present) is lane `workers`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LaneId(pub u16);

impl LaneId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Globally unique actor identifier, dense in `0..actor_count`, used by the
/// schedulers and for deterministic tie-breaking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub u32);

impl ActorId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A logical process. Dense global index `0..total_lps`; the cluster builder
/// maps LPs onto (node, worker lane) blocks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LpId(pub u32);

impl LpId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lp{}", self.0)
    }
}

/// Globally unique event identity: the sending LP plus that LP's
/// monotonically increasing send sequence number.
///
/// The sequence number is 32 bits per LP, as are ROSS's event ids, which
/// keeps an id at 8 bytes with no padding. The LP table stamps it and
/// panics, naming the LP, rather than wrap it: an LP that sends more than
/// `u32::MAX` events in one run stops loudly instead of reusing an id.
///
/// Anti-messages carry the `EventId` of the positive message they cancel;
/// annihilation matches on it. The pair also serves as the deterministic
/// tie-breaker in the total event order `(recv_time, src, seq)` shared by
/// the optimistic engine and the sequential reference simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    pub src: LpId,
    pub seq: u32,
}

impl EventId {
    #[inline]
    pub fn new(src: LpId, seq: u32) -> Self {
        EventId { src, seq }
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.src, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_ordering_and_indexing() {
        assert!(NodeId(0) < NodeId(3));
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(LaneId(7).index(), 7);
        assert_eq!(ActorId(9).index(), 9);
        assert_eq!(LpId(11).index(), 11);
    }

    #[test]
    fn event_id_orders_by_src_then_seq() {
        let a = EventId::new(LpId(1), 5);
        let b = EventId::new(LpId(1), 6);
        let c = EventId::new(LpId(2), 0);
        assert!(a < b && b < c);
        assert_eq!(format!("{a}"), "lp1#5");
    }
}
