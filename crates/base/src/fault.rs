//! Fault-injection hook points.
//!
//! The virtual cluster is perturbed from the *outside*: the scheduler,
//! the network fabric and the MPI pumps each consult an optional
//! [`FaultInjector`] at the moments where real clusters degrade — when an
//! actor's step cost is charged (straggling nodes), when a message is
//! handed to a NIC (degraded links, dropped packets) and when an MPI
//! thread polls (stalled progress engines). Engine logic never branches on
//! faults; it only observes their timing consequences, which is what keeps
//! the sequential-equivalence oracle valid under every fault plan:
//! perturbations move *wall-clock* costs and delivery instants, never
//! virtual-time event content.
//!
//! The concrete injector lives in the `cagvt-fault` crate; this module
//! only defines the trait so every layer can hold a hook without a
//! dependency cycle. All hooks take `&self` and must be deterministic
//! under the serialized virtual scheduler: with an identical plan and an
//! identical call sequence they must return identical answers.

use crate::ids::{ActorId, NodeId};
use crate::time::WallNs;

/// The shaped cost of one message handed to a NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkShape {
    /// NIC serialization (bandwidth term) actually charged.
    pub per_msg: WallNs,
    /// One-way wire latency actually charged.
    pub latency: WallNs,
    /// Additional delivery delay from loss recovery: a dropped message is
    /// modeled as `k` retransmit timeouts appended to its delivery instant,
    /// never as silent loss — the message still arrives exactly once, so
    /// Mattern's white-message conservation (every send is eventually
    /// received and counted) holds under every fault plan.
    pub retransmit_delay: WallNs,
}

impl LinkShape {
    /// The unperturbed shape.
    pub fn clean(per_msg: WallNs, latency: WallNs) -> Self {
        LinkShape { per_msg, latency, retransmit_delay: WallNs::ZERO }
    }
}

/// Aggregate fault activity of one run, folded into the run report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages that lost at least one transmission attempt.
    pub dropped_msgs: u64,
    /// Total retransmit attempts across all dropped messages.
    pub retransmits: u64,
    /// Total delivery delay injected by retransmit timeouts.
    pub retransmit_delay: WallNs,
    /// Actor steps whose cost was inflated by a straggle window.
    pub straggled_steps: u64,
    /// MPI pump invocations that hit a stall window.
    pub stalled_pumps: u64,
}

/// Injection hooks consulted by the execution and communication layers.
///
/// Every method has a no-op default, so an injector only overrides the
/// fault classes its plan contains.
pub trait FaultInjector: Send + Sync {
    /// Scale the wall-clock cost of one actor step (node straggle). Called
    /// by the virtual scheduler exactly once for every step of every
    /// actor, including each idle poll it skipped for a parked actor.
    ///
    /// Must be a pure function of its arguments apart from counters: the
    /// scheduler walks a parked actor's poll grid lazily, so skipped polls
    /// are charged later than, and in a different order from, the steps
    /// they stand for.
    fn actor_cost(&self, actor: ActorId, now: WallNs, cost: WallNs) -> WallNs {
        let _ = (actor, now);
        cost
    }

    /// Shape one message handed to node `from`'s NIC toward `to` (link
    /// degradation and message drop with retransmit-timeout recovery).
    fn link(
        &self,
        from: NodeId,
        to: NodeId,
        now: WallNs,
        per_msg: WallNs,
        latency: WallNs,
    ) -> LinkShape {
        let _ = (from, to, now);
        LinkShape::clean(per_msg, latency)
    }

    /// Extra charge for one MPI pump invocation on `node` (MPI-thread
    /// stall).
    fn mpi_stall(&self, node: NodeId, now: WallNs) -> WallNs {
        let _ = (node, now);
        WallNs::ZERO
    }

    /// Aggregate activity so far (reported at run end).
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injector that overrides nothing.
    struct Defaults;

    impl FaultInjector for Defaults {}

    #[test]
    fn defaults_are_identity() {
        let f = Defaults;
        assert_eq!(f.actor_cost(ActorId(3), WallNs(10), WallNs(77)), WallNs(77));
        let shape = f.link(NodeId(0), NodeId(1), WallNs(5), WallNs(500), WallNs(30_000));
        assert_eq!(shape, LinkShape::clean(WallNs(500), WallNs(30_000)));
        assert_eq!(shape.retransmit_delay, WallNs::ZERO);
        assert_eq!(f.mpi_stall(NodeId(0), WallNs(9)), WallNs::ZERO);
        assert_eq!(f.stats(), FaultStats::default());
    }
}
