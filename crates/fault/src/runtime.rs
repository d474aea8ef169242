//! Interprets a [`FaultPlan`] during a run as a
//! [`FaultInjector`].

use cagvt_base::fault::{FaultInjector, FaultStats, LinkShape};
use cagvt_base::ids::{ActorId, NodeId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::WallNs;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::{FaultPlan, FaultTopology, Perturbation};

/// A message is retransmitted at most this many times before the loss
/// process is forced to succeed: recovery is always finite, so delivery
/// (and with it Mattern's message conservation) is never in question.
pub const MAX_RETRANSMITS: u32 = 8;

#[derive(Clone, Copy)]
struct StraggleWin {
    from: WallNs,
    until: WallNs,
    num: u32,
    den: u32,
}

#[derive(Clone, Copy)]
struct LinkWin {
    dst: NodeId,
    from: WallNs,
    until: WallNs,
    latency_x: u32,
    bandwidth_x: u32,
    den: u32,
}

#[derive(Clone, Copy)]
struct StallWin {
    from: WallNs,
    until: WallNs,
    stall: WallNs,
}

#[derive(Clone, Copy)]
struct DropWin {
    from: WallNs,
    until: WallNs,
    drop_permille: u16,
    retransmit_timeout: WallNs,
}

/// The live injector: plan windows bucketed per node for O(windows-on-node)
/// lookups, plus one seeded loss generator per source node.
///
/// Deterministic under the serialized virtual scheduler: every hook is a
/// pure function of `(plan, call arguments)` except the loss draws, whose
/// per-source generators advance in the scheduler's globally ordered call
/// sequence — so identical plans on identical runs replay identically.
pub struct FaultRuntime {
    topology: FaultTopology,
    straggle: Vec<Vec<StraggleWin>>,
    links: Vec<Vec<LinkWin>>,
    stalls: Vec<Vec<StallWin>>,
    drops: Vec<Vec<DropWin>>,
    loss_rng: Vec<Mutex<Pcg32>>,
    dropped_msgs: AtomicU64,
    retransmits: AtomicU64,
    retransmit_delay: AtomicU64,
    straggled_steps: AtomicU64,
    stalled_pumps: AtomicU64,
}

impl FaultRuntime {
    pub fn new(topology: FaultTopology, plan: &FaultPlan, seed: u64) -> Self {
        let n = topology.nodes as usize;
        let mut rt = FaultRuntime {
            topology,
            straggle: vec![Vec::new(); n],
            links: vec![Vec::new(); n],
            stalls: vec![Vec::new(); n],
            drops: vec![Vec::new(); n],
            loss_rng: (0..n).map(|i| Mutex::new(Pcg32::new(seed, 0xD0_0000 + i as u64))).collect(),
            dropped_msgs: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            retransmit_delay: AtomicU64::new(0),
            straggled_steps: AtomicU64::new(0),
            stalled_pumps: AtomicU64::new(0),
        };
        for p in &plan.perturbations {
            match *p {
                Perturbation::NodeStraggle { node, from, until, num, den } => {
                    rt.straggle[node.index()].push(StraggleWin { from, until, num, den });
                }
                Perturbation::LinkDegrade {
                    src,
                    dst,
                    from,
                    until,
                    latency_x,
                    bandwidth_x,
                    den,
                } => {
                    rt.links[src.index()].push(LinkWin {
                        dst,
                        from,
                        until,
                        latency_x,
                        bandwidth_x,
                        den,
                    });
                }
                Perturbation::MpiStall { node, from, until, stall } => {
                    rt.stalls[node.index()].push(StallWin { from, until, stall });
                }
                Perturbation::MessageDrop {
                    src,
                    from,
                    until,
                    drop_permille,
                    retransmit_timeout,
                } => {
                    rt.drops[src.index()].push(DropWin {
                        from,
                        until,
                        drop_permille,
                        retransmit_timeout,
                    });
                }
            }
        }
        rt
    }

    pub fn topology(&self) -> &FaultTopology {
        &self.topology
    }
}

#[inline]
fn active(from: WallNs, until: WallNs, now: WallNs) -> bool {
    from <= now && now < until
}

/// `v * num / den` in u128 to dodge overflow on large costs.
#[inline]
fn scale(v: u64, num: u32, den: u32) -> u64 {
    (v as u128 * num as u128 / den as u128) as u64
}

impl FaultInjector for FaultRuntime {
    fn actor_cost(&self, actor: ActorId, now: WallNs, cost: WallNs) -> WallNs {
        let node = self.topology.actor_node(actor.0);
        let mut out = cost.0;
        let mut hit = false;
        // Overlapping windows compound, in plan order.
        for w in &self.straggle[node.index()] {
            if active(w.from, w.until, now) && w.num > w.den {
                out = scale(out, w.num, w.den);
                hit = true;
            }
        }
        if hit && out > cost.0 {
            self.straggled_steps.fetch_add(1, Ordering::Relaxed);
        }
        WallNs(out)
    }

    fn link(
        &self,
        from: NodeId,
        to: NodeId,
        now: WallNs,
        per_msg: WallNs,
        latency: WallNs,
    ) -> LinkShape {
        let mut shape = LinkShape::clean(per_msg, latency);
        for w in &self.links[from.index()] {
            if w.dst == to && active(w.from, w.until, now) {
                shape.latency = WallNs(scale(shape.latency.0, w.latency_x, w.den));
                shape.per_msg = WallNs(scale(shape.per_msg.0, w.bandwidth_x, w.den));
            }
        }
        let mut lost = 0u32;
        for w in &self.drops[from.index()] {
            if active(w.from, w.until, now) {
                let mut rng = self.loss_rng[from.index()].lock();
                // Each transmission attempt is an independent Bernoulli
                // trial; after MAX_RETRANSMITS losses the attempt is forced
                // through, so delivery is guaranteed.
                while lost < MAX_RETRANSMITS && rng.next_bounded(1000) < w.drop_permille as u32 {
                    lost += 1;
                    shape.retransmit_delay += w.retransmit_timeout;
                }
                if lost > 0 {
                    self.dropped_msgs.fetch_add(1, Ordering::Relaxed);
                    self.retransmits.fetch_add(lost as u64, Ordering::Relaxed);
                    self.retransmit_delay.fetch_add(shape.retransmit_delay.0, Ordering::Relaxed);
                }
                // One loss process per message, even if windows overlap.
                break;
            }
        }
        shape
    }

    fn mpi_stall(&self, node: NodeId, now: WallNs) -> WallNs {
        let mut total = 0u64;
        for w in &self.stalls[node.index()] {
            if active(w.from, w.until, now) {
                total += w.stall.0;
            }
        }
        if total > 0 {
            self.stalled_pumps.fetch_add(1, Ordering::Relaxed);
        }
        WallNs(total)
    }

    fn stats(&self) -> FaultStats {
        FaultStats {
            dropped_msgs: self.dropped_msgs.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            retransmit_delay: WallNs(self.retransmit_delay.load(Ordering::Relaxed)),
            straggled_steps: self.straggled_steps.load(Ordering::Relaxed),
            stalled_pumps: self.stalled_pumps.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SCALE_DEN;

    fn topo() -> FaultTopology {
        FaultTopology { nodes: 2, workers_per_node: 2, dedicated_mpi: true }
    }

    fn plan(p: Vec<Perturbation>) -> FaultPlan {
        FaultPlan { perturbations: p }
    }

    #[test]
    fn straggle_scales_only_inside_the_window() {
        let rt = FaultRuntime::new(
            topo(),
            &plan(vec![Perturbation::NodeStraggle {
                node: NodeId(1),
                from: WallNs(100),
                until: WallNs(200),
                num: 2 * SCALE_DEN,
                den: SCALE_DEN,
            }]),
            7,
        );
        // Actor 2 is node 1's first worker; actor 0 is on node 0.
        assert_eq!(rt.actor_cost(ActorId(2), WallNs(150), WallNs(40)), WallNs(80));
        assert_eq!(rt.actor_cost(ActorId(2), WallNs(99), WallNs(40)), WallNs(40));
        assert_eq!(rt.actor_cost(ActorId(2), WallNs(200), WallNs(40)), WallNs(40));
        assert_eq!(rt.actor_cost(ActorId(0), WallNs(150), WallNs(40)), WallNs(40));
        assert_eq!(rt.stats().straggled_steps, 1);
    }

    #[test]
    fn link_degrade_shapes_only_its_direction() {
        let rt = FaultRuntime::new(
            topo(),
            &plan(vec![Perturbation::LinkDegrade {
                src: NodeId(0),
                dst: NodeId(1),
                from: WallNs(0),
                until: WallNs(1_000),
                latency_x: 3 * SCALE_DEN,
                bandwidth_x: 2 * SCALE_DEN,
                den: SCALE_DEN,
            }]),
            7,
        );
        let fwd = rt.link(NodeId(0), NodeId(1), WallNs(10), WallNs(500), WallNs(30_000));
        assert_eq!(fwd.latency, WallNs(90_000));
        assert_eq!(fwd.per_msg, WallNs(1_000));
        assert_eq!(fwd.retransmit_delay, WallNs::ZERO);
        let rev = rt.link(NodeId(1), NodeId(0), WallNs(10), WallNs(500), WallNs(30_000));
        assert_eq!(rev, LinkShape::clean(WallNs(500), WallNs(30_000)));
    }

    #[test]
    fn drops_become_bounded_retransmit_delays() {
        let rt = FaultRuntime::new(
            topo(),
            &plan(vec![Perturbation::MessageDrop {
                src: NodeId(0),
                from: WallNs(0),
                until: WallNs(1_000_000),
                drop_permille: 1000, // every attempt is lost...
                retransmit_timeout: WallNs(250),
            }]),
            7,
        );
        let shape = rt.link(NodeId(0), NodeId(1), WallNs(5), WallNs(500), WallNs(30_000));
        // ...but recovery is bounded, so the delay is exactly the cap.
        assert_eq!(shape.retransmit_delay, WallNs(MAX_RETRANSMITS as u64 * 250));
        assert_eq!(shape.per_msg, WallNs(500), "drops never change the serialization cost");
        let s = rt.stats();
        assert_eq!(s.dropped_msgs, 1);
        assert_eq!(s.retransmits, MAX_RETRANSMITS as u64);
        assert_eq!(s.retransmit_delay, WallNs(MAX_RETRANSMITS as u64 * 250));
    }

    #[test]
    fn loss_draws_replay_identically() {
        let mk = || {
            FaultRuntime::new(
                topo(),
                &plan(vec![Perturbation::MessageDrop {
                    src: NodeId(0),
                    from: WallNs(0),
                    until: WallNs(1_000_000),
                    drop_permille: 400,
                    retransmit_timeout: WallNs(100),
                }]),
                99,
            )
        };
        let a = mk();
        let b = mk();
        for i in 0..200u64 {
            let sa = a.link(NodeId(0), NodeId(1), WallNs(i), WallNs(500), WallNs(30_000));
            let sb = b.link(NodeId(0), NodeId(1), WallNs(i), WallNs(500), WallNs(30_000));
            assert_eq!(sa, sb, "loss process diverged at call {i}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn mpi_stall_applies_in_window() {
        let rt = FaultRuntime::new(
            topo(),
            &plan(vec![Perturbation::MpiStall {
                node: NodeId(0),
                from: WallNs(50),
                until: WallNs(60),
                stall: WallNs(9_000),
            }]),
            7,
        );
        assert_eq!(rt.mpi_stall(NodeId(0), WallNs(55)), WallNs(9_000));
        assert_eq!(rt.mpi_stall(NodeId(0), WallNs(60)), WallNs::ZERO);
        assert_eq!(rt.mpi_stall(NodeId(1), WallNs(55)), WallNs::ZERO);
        assert_eq!(rt.stats().stalled_pumps, 1);
    }
}
