//! Message classification and the delivery envelope.

use cagvt_base::time::WallNs;

/// The paper's three message classes, by destination locality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Sent by an LP to an LP on the same worker thread: no interconnect,
    /// fastest.
    Local,
    /// Destination is another core on the same node: shared memory, needs
    /// locking.
    Regional,
    /// Destination is on a different node: crosses the network via MPI,
    /// slowest.
    Remote,
}

impl MsgClass {
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Local => "local",
            MsgClass::Regional => "regional",
            MsgClass::Remote => "remote",
        }
    }
}

/// A payload wrapped with the simulated wall-clock instant at which it
/// becomes observable at its destination.
#[derive(Clone, Debug)]
pub struct NetMsg<T> {
    pub deliver_at: WallNs,
    pub payload: T,
}

impl<T> NetMsg<T> {
    #[inline]
    pub fn new(deliver_at: WallNs, payload: T) -> Self {
        NetMsg { deliver_at, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(MsgClass::Local.label(), "local");
        assert_eq!(MsgClass::Regional.label(), "regional");
        assert_eq!(MsgClass::Remote.label(), "remote");
    }
}
