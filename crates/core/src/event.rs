//! Events, anti-messages, and the wire envelopes they travel in.

use cagvt_base::ids::{EventId, LaneId, LpId, NodeId};
use cagvt_base::time::VirtualTime;

/// A positive event message: plain data, 24 bytes with a 4-byte payload
/// (the engine copies it into the pending set, the history and the
/// mailboxes).
#[derive(Clone, Copy, Debug)]
pub struct Event<P> {
    pub recv_time: VirtualTime,
    pub dst: LpId,
    /// Globally unique identity: (sending LP, sender's send sequence).
    pub id: EventId,
    pub payload: P,
}

impl<P> Event<P> {
    #[inline]
    pub fn key(&self) -> EventKey {
        EventKey { t: self.recv_time, id: self.id }
    }
}

/// The engine's total order over events: receive time, then sender, then
/// sequence. Shared with the sequential reference simulator so both process
/// each LP's events in the identical order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    pub t: VirtualTime,
    pub id: EventId,
}

impl EventKey {
    /// A key strictly below every real event key.
    pub const MIN: EventKey =
        EventKey { t: VirtualTime::ZERO, id: EventId { src: LpId(0), seq: 0 } };
}

/// An anti-message: cancels the positive message with the same `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AntiMsg {
    pub recv_time: VirtualTime,
    pub dst: LpId,
    pub id: EventId,
}

/// An acknowledgement (Samadi's GVT algorithm): confirms receipt of the
/// event or anti-message `id`, addressed back to the sending LP. `marked`
/// acks are sent by receivers inside their GVT reporting window (Samadi's
/// fix for the simultaneous reporting problem).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckMsg {
    /// Identity of the acknowledged message.
    pub id: EventId,
    /// Receive time of the acknowledged message.
    pub recv_time: VirtualTime,
    /// Acknowledging an anti-message (events and their antis share ids).
    pub anti: bool,
    pub marked: bool,
}

impl AntiMsg {
    #[inline]
    pub fn key(&self) -> EventKey {
        EventKey { t: self.recv_time, id: self.id }
    }
}

/// What travels between LPs: a positive event, an anti-message, or an
/// acknowledgement (Samadi only).
#[derive(Clone, Debug)]
pub enum EventMsg<P> {
    Event(Event<P>),
    Anti(AntiMsg),
    Ack(AckMsg),
}

impl<P> EventMsg<P> {
    /// Receive time of the carried message (the timestamp GVT algorithms
    /// account for; for an ack, the acknowledged message's time).
    #[inline]
    pub fn recv_time(&self) -> VirtualTime {
        match self {
            EventMsg::Event(e) => e.recv_time,
            EventMsg::Anti(a) => a.recv_time,
            EventMsg::Ack(a) => a.recv_time,
        }
    }

    /// `(id, recv_time, anti)` of a simulation message; `None` for an
    /// acknowledgement, which is GVT bookkeeping rather than simulation
    /// traffic.
    #[inline]
    pub fn header(&self) -> Option<(EventId, VirtualTime, bool)> {
        match self {
            EventMsg::Event(e) => Some((e.id, e.recv_time, false)),
            EventMsg::Anti(a) => Some((a.id, a.recv_time, true)),
            EventMsg::Ack(_) => None,
        }
    }

    /// Destination LP: for acks, the *sender* of the acknowledged message.
    #[inline]
    pub fn dst(&self) -> LpId {
        match self {
            EventMsg::Event(e) => e.dst,
            EventMsg::Anti(a) => a.dst,
            EventMsg::Ack(a) => a.id.src,
        }
    }
}

/// An event message plus its GVT color tag. Everything that leaves the
/// sending worker (regional or remote, positive or anti) is tagged, because
/// every in-flight message must be covered by the GVT computation.
#[derive(Clone, Debug)]
pub struct TaggedMsg<P> {
    pub msg: EventMsg<P>,
    pub tag: u64,
}

/// Envelope for the remote path: worker → node outbox → MPI → destination
/// node, where the MPI layer routes it to the destination worker lane.
#[derive(Clone, Debug)]
pub struct RemoteEnv<P> {
    pub dst_node: NodeId,
    pub dst_lane: LaneId,
    pub tagged: TaggedMsg<P>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, src: u32, seq: u32) -> Event<()> {
        Event {
            recv_time: VirtualTime::new(t),
            dst: LpId(0),
            id: EventId::new(LpId(src), seq),
            payload: (),
        }
    }

    #[test]
    fn key_orders_by_time_then_src_then_seq() {
        let a = ev(1.0, 5, 9).key();
        let b = ev(2.0, 0, 0).key();
        let c = ev(2.0, 0, 1).key();
        let d = ev(2.0, 1, 0).key();
        assert!(a < b && b < c && c < d);
        assert!(EventKey::MIN < a);
    }

    #[test]
    fn anti_key_matches_event_key() {
        let e = ev(3.5, 2, 7);
        let a = AntiMsg { recv_time: e.recv_time, dst: e.dst, id: e.id };
        assert_eq!(a.key(), e.key());
    }

    #[test]
    fn event_msg_accessors() {
        let e = ev(1.0, 1, 1);
        let msg: EventMsg<()> = EventMsg::Event(e);
        assert_eq!(msg.recv_time(), e.recv_time);
        assert_eq!(msg.dst(), e.dst);
        let anti = EventMsg::<()>::Anti(AntiMsg {
            recv_time: VirtualTime::new(9.0),
            dst: LpId(4),
            id: EventId::new(LpId(1), 2),
        });
        assert_eq!(anti.recv_time(), VirtualTime::new(9.0));
        assert_eq!(anti.dst(), LpId(4));
    }

    /// The records every message path copies, on a 64-bit target: an id
    /// with no padding, and no padding around it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn event_records_stay_compact() {
        use std::mem::size_of;
        assert_eq!(size_of::<EventId>(), 8);
        assert_eq!(size_of::<Event<u32>>(), 24);
        assert_eq!(size_of::<EventKey>(), 16);
        assert_eq!(size_of::<AntiMsg>(), 24);
    }

    #[test]
    fn header_names_simulation_messages_only() {
        let e = ev(1.0, 1, 1);
        assert_eq!(EventMsg::Event(e).header(), Some((e.id, e.recv_time, false)));
        let anti = AntiMsg { recv_time: e.recv_time, dst: e.dst, id: e.id };
        assert_eq!(EventMsg::<()>::Anti(anti).header(), Some((e.id, e.recv_time, true)));
        let ack = AckMsg { id: e.id, recv_time: e.recv_time, anti: false, marked: false };
        assert_eq!(EventMsg::<()>::Ack(ack).header(), None);
    }
}
