//! Fault plans: seeded, reproducible schedules of cluster perturbations.

use cagvt_base::ids::NodeId;
use cagvt_base::rng::Pcg32;
use cagvt_base::time::WallNs;
use cagvt_net::ClusterSpec;

/// One scheduled perturbation. Windows are half-open wall-clock intervals
/// `[from, until)` on the virtual cluster's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Perturbation {
    /// Every actor on `node` (workers and its MPI pump) charges
    /// `cost * num / den` per step inside the window — a slow/oversubscribed
    /// node whose LPs fall behind the cluster.
    NodeStraggle { node: NodeId, from: WallNs, until: WallNs, num: u32, den: u32 },
    /// The directed link `src -> dst` serializes `bandwidth_x/den`-times
    /// slower and adds `latency_x/den`-times the wire latency inside the
    /// window.
    LinkDegrade {
        src: NodeId,
        dst: NodeId,
        from: WallNs,
        until: WallNs,
        latency_x: u32,
        bandwidth_x: u32,
        den: u32,
    },
    /// Node `node`'s MPI progress engine stalls: every pump invocation in
    /// the window charges an extra `stall` before any traffic moves.
    MpiStall { node: NodeId, from: WallNs, until: WallNs, stall: WallNs },
    /// Messages leaving `src` inside the window are dropped with
    /// probability `drop_permille`/1000 per transmission attempt, each drop
    /// recovered by one `retransmit_timeout` of extra delivery delay
    /// (bounded attempts; the message always arrives exactly once).
    MessageDrop {
        src: NodeId,
        from: WallNs,
        until: WallNs,
        drop_permille: u16,
        retransmit_timeout: WallNs,
    },
}

impl Perturbation {
    pub fn window(&self) -> (WallNs, WallNs) {
        match *self {
            Perturbation::NodeStraggle { from, until, .. }
            | Perturbation::LinkDegrade { from, until, .. }
            | Perturbation::MpiStall { from, until, .. }
            | Perturbation::MessageDrop { from, until, .. } => (from, until),
        }
    }

    /// The node the perturbation acts on: the straggling or stalled node,
    /// or the source of a degraded link or lossy window.
    pub(crate) fn node(&self) -> NodeId {
        match *self {
            Perturbation::NodeStraggle { node, .. } | Perturbation::MpiStall { node, .. } => node,
            Perturbation::LinkDegrade { src, .. } | Perturbation::MessageDrop { src, .. } => src,
        }
    }
}

/// Inputs to plan generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fault intensity in `[0, 1]`: 0 generates an empty plan, 1 the
    /// harshest one (more windows, bigger multipliers, higher drop rates).
    pub severity: f64,
    /// Seed for the plan's PCG streams; same `(cluster, spec)` ⇒ same plan.
    pub seed: u64,
    /// Wall-clock span perturbation windows are drawn from — set it to
    /// roughly the clean run's makespan so windows actually overlap the
    /// run. Windows start in `[0, span/2)` and last `[span/4, span/2)`.
    pub span: WallNs,
}

impl FaultSpec {
    pub fn new(severity: f64, seed: u64, span: WallNs) -> Self {
        assert!((0.0..=1.0).contains(&severity), "severity must be in [0, 1]");
        assert!(span > WallNs::ZERO, "span must be positive");
        FaultSpec { severity, seed, span }
    }
}

/// Multiplier denominator shared by every generated rational scale factor.
pub const SCALE_DEN: u32 = 16;

/// A reproducible schedule of perturbations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub perturbations: Vec<Perturbation>,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.perturbations.is_empty()
    }

    /// Generate a plan. Each fault class draws from its own PCG stream so
    /// adding windows of one class never shifts another class's draws.
    pub fn generate(cluster: &ClusterSpec, spec: &FaultSpec) -> FaultPlan {
        assert!((0.0..=1.0).contains(&spec.severity), "severity must be in [0, 1]");
        let mut plan = FaultPlan::default();
        if spec.severity <= 0.0 {
            return plan;
        }
        let s = spec.severity;
        let nodes = cluster.nodes as u32;
        // Number of windows per class: one per ~2 nodes at full severity,
        // but at least one of each class whenever severity is non-zero so
        // even a tiny plan exercises every hook.
        let windows =
            |rate: f64| -> u32 { ((s * rate * nodes as f64 / 2.0).round() as u32).max(1) };
        let scale = |rng: &mut Pcg32, max_extra: f64| -> u32 {
            // Rational multiplier in [1, 1 + s*max_extra], SCALE_DEN denominator.
            let extra = rng.next_f64() * s * max_extra;
            ((1.0 + extra) * SCALE_DEN as f64).round() as u32
        };
        let window = |rng: &mut Pcg32| -> (WallNs, WallNs) {
            let half = (spec.span.0 / 2).max(1);
            let quarter = (spec.span.0 / 4).max(1);
            let from = rng.next_u64() % half;
            let len = quarter + rng.next_u64() % quarter;
            (WallNs(from), WallNs(from + len))
        };

        let mut rng = Pcg32::new(spec.seed, 0xFA01);
        for _ in 0..windows(1.0) {
            let node = NodeId(rng.next_bounded(nodes) as u16);
            let (from, until) = window(&mut rng);
            let num = scale(&mut rng, 4.0);
            plan.perturbations.push(Perturbation::NodeStraggle {
                node,
                from,
                until,
                num,
                den: SCALE_DEN,
            });
        }

        let mut rng = Pcg32::new(spec.seed, 0xFA02);
        if nodes > 1 {
            for _ in 0..windows(1.0) {
                let src = NodeId(rng.next_bounded(nodes) as u16);
                let dst =
                    NodeId((src.0 as u32 + 1 + rng.next_bounded(nodes - 1)) as u16 % cluster.nodes);
                let (from, until) = window(&mut rng);
                let latency_x = scale(&mut rng, 6.0);
                let bandwidth_x = scale(&mut rng, 3.0);
                plan.perturbations.push(Perturbation::LinkDegrade {
                    src,
                    dst,
                    from,
                    until,
                    latency_x,
                    bandwidth_x,
                    den: SCALE_DEN,
                });
            }
        }

        let mut rng = Pcg32::new(spec.seed, 0xFA03);
        for _ in 0..windows(0.5) {
            let node = NodeId(rng.next_bounded(nodes) as u16);
            let (from, until) = window(&mut rng);
            // Up to ~100us of stall per pump at full severity — several
            // wire latencies, enough to back up the node's outbox.
            let stall = WallNs((rng.next_f64() * s * 100_000.0) as u64 + 1);
            plan.perturbations.push(Perturbation::MpiStall { node, from, until, stall });
        }

        let mut rng = Pcg32::new(spec.seed, 0xFA04);
        if nodes > 1 {
            for _ in 0..windows(0.5) {
                let src = NodeId(rng.next_bounded(nodes) as u16);
                let (from, until) = window(&mut rng);
                // Up to 25% per-attempt loss at full severity.
                let drop_permille = ((rng.next_f64() * s * 250.0) as u16).max(1);
                let retransmit_timeout = WallNs(200_000 + rng.next_u64() % 300_000);
                plan.perturbations.push(Perturbation::MessageDrop {
                    src,
                    from,
                    until,
                    drop_permille,
                    retransmit_timeout,
                });
            }
        }

        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cagvt_net::MpiMode;

    fn topo(nodes: u16) -> ClusterSpec {
        ClusterSpec::new(nodes, 4, MpiMode::Dedicated)
    }

    #[test]
    fn zero_severity_is_the_empty_plan() {
        let spec = FaultSpec::new(0.0, 42, WallNs(1_000_000));
        assert!(FaultPlan::generate(&topo(4), &spec).is_empty());
    }

    #[test]
    fn identical_inputs_give_identical_plans() {
        let spec = FaultSpec::new(0.7, 0xDEAD_BEEF, WallNs(5_000_000));
        let a = FaultPlan::generate(&topo(8), &spec);
        let b = FaultPlan::generate(&topo(8), &spec);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let t = topo(8);
        let a = FaultPlan::generate(&t, &FaultSpec::new(0.7, 1, WallNs(5_000_000)));
        let b = FaultPlan::generate(&t, &FaultSpec::new(0.7, 2, WallNs(5_000_000)));
        assert_ne!(a, b);
    }

    #[test]
    fn severity_scales_window_count() {
        let t = topo(8);
        let mild = FaultPlan::generate(&t, &FaultSpec::new(0.2, 9, WallNs(5_000_000)));
        let harsh = FaultPlan::generate(&t, &FaultSpec::new(1.0, 9, WallNs(5_000_000)));
        assert!(harsh.perturbations.len() > mild.perturbations.len());
    }

    #[test]
    fn single_node_plans_skip_link_faults() {
        let plan = FaultPlan::generate(&topo(1), &FaultSpec::new(1.0, 5, WallNs(5_000_000)));
        assert!(!plan.is_empty(), "straggle/stall windows still apply on one node");
        for p in &plan.perturbations {
            assert!(
                !matches!(p, Perturbation::LinkDegrade { .. } | Perturbation::MessageDrop { .. }),
                "no inter-node faults on a single node: {p:?}"
            );
        }
    }

    #[test]
    fn windows_are_well_formed() {
        let plan = FaultPlan::generate(&topo(4), &FaultSpec::new(1.0, 77, WallNs(8_000_000)));
        for p in &plan.perturbations {
            let (from, until) = p.window();
            assert!(until > from, "empty window: {p:?}");
            assert!(from.0 < 8_000_000, "window starts past the span: {p:?}");
        }
    }
}
