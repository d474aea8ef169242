//! Modified PHOLD (Fujimoto 1990), as parameterized by the paper.
//!
//! Every LP holds one circulating event (each processed event emits
//! exactly one successor, so the event population is constant). On each
//! event the LP draws a destination class — **local** (itself),
//! **regional** (an LP on another worker of the same node), or **remote**
//! (an LP on another node) — with configured probabilities, a timestamp
//! increment `lookahead + Exp(mean)`, and reports the configured EPG as
//! its processing cost. The classes follow the run's LP placement,
//! [`SimConfig::locate`], which the engine routes by too, so a regional
//! draw always lands on another worker of the node and a remote one on
//! another node.
//!
//! The paper's mixed `X-Y` models alternate between a
//! computation-dominated and a communication-dominated parameter set over
//! the run; [`PhaseSchedule`] drives that from virtual-time progress (the
//! paper phases on wall-clock execution time — virtual progress is the
//! deterministic stand-in, see DESIGN.md §2).

use cagvt_base::ids::{LaneId, LpId};
use cagvt_base::rng::Pcg32;
use cagvt_core::model::{Emitter, EventCtx, Model};
use cagvt_core::SimConfig;

/// Destination-class probabilities and event granularity of one phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PholdParams {
    /// Probability of a regional destination (same node, other worker).
    pub regional_pct: f64,
    /// Probability of a remote destination (other node).
    pub remote_pct: f64,
    /// Event processing granularity, in work units (~1 FLOP each).
    pub epg: u64,
}

impl PholdParams {
    pub fn new(regional_pct: f64, remote_pct: f64, epg: u64) -> Self {
        assert!(regional_pct >= 0.0 && remote_pct >= 0.0);
        assert!(regional_pct + remote_pct <= 1.0 + 1e-9, "class probabilities exceed 1");
        PholdParams { regional_pct, remote_pct, epg }
    }
}

/// Phase schedule over the run: `(weight, params)` segments cycling in
/// order, weights measured as fractions of one cycle.
#[derive(Clone, Debug)]
pub struct PhaseSchedule {
    segments: Vec<(f64, PholdParams)>,
    /// Length of one cycle as a fraction of the whole run (1.0 = the
    /// schedule spans the run once).
    cycle_fraction: f64,
}

impl PhaseSchedule {
    /// A single constant phase.
    pub fn constant(params: PholdParams) -> Self {
        PhaseSchedule { segments: vec![(1.0, params)], cycle_fraction: 1.0 }
    }

    /// The paper's `X-Y` mixed model: each cycle spends `x / (x + y)` of
    /// its length in `a`, then the rest in `b`, and the run holds `cycles`
    /// cycles. The paper's literal schedule (a cycle of `x + y` per cent of
    /// the run) is `cycles = 100 / (x + y)`; at harness horizons it would
    /// make each phase shorter than a single GVT round, and phase
    /// *durations* relative to GVT rounds matter for the mixed experiments.
    pub fn alternating_cycles(x: f64, a: PholdParams, y: f64, b: PholdParams, cycles: u32) -> Self {
        assert!(x > 0.0 && y > 0.0 && cycles >= 1);
        let total = x + y;
        PhaseSchedule {
            segments: vec![(x / total, a), (y / total, b)],
            cycle_fraction: 1.0 / cycles as f64,
        }
    }

    /// Parameters in effect at run progress `p` (in `[0, 1]`).
    pub fn at(&self, p: f64) -> PholdParams {
        let cycle_pos = (p / self.cycle_fraction).fract();
        let mut acc = 0.0;
        for (w, params) in &self.segments {
            acc += w;
            if cycle_pos < acc {
                return *params;
            }
        }
        self.segments.last().expect("schedule has segments").1
    }
}

/// Destination class of one draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Local,
    Regional,
    Remote,
}

/// Per-LP state: class counters and an order-sensitive checksum used by
/// the equivalence tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PholdState {
    pub processed: u64,
    pub sent_local: u64,
    pub sent_regional: u64,
    pub sent_remote: u64,
    pub checksum: u64,
}

/// The modified PHOLD model.
#[derive(Clone, Debug)]
pub struct PholdModel {
    /// The run's configuration, which places the LPs the model draws from.
    pub cfg: SimConfig,
    pub schedule: PhaseSchedule,
    /// Minimum timestamp increment.
    pub lookahead: f64,
    /// Mean of the exponential part of the increment.
    pub mean_delay: f64,
}

impl PholdModel {
    /// PHOLD on the LPs of the run `cfg`.
    pub fn new(cfg: &SimConfig, schedule: PhaseSchedule) -> Self {
        PholdModel { cfg: *cfg, schedule, lookahead: 0.1, mean_delay: 1.0 }
    }

    /// Draw a destination of the class selected by `params`.
    fn draw_destination(&self, me: LpId, params: &PholdParams, rng: &mut Pcg32) -> (LpId, Class) {
        let cfg = &self.cfg;
        let u = rng.next_f64();
        if u < params.remote_pct {
            if cfg.spec.nodes < 2 {
                // Remote class impossible on one node: degrade to local.
                return (me, Class::Local);
            }
            // Remote: uniform over LPs of other nodes.
            let (node, _) = cfg.locate(me);
            let node_base = cfg.first_lp(node, LaneId(0)).0;
            let lpn = cfg.lps_per_node();
            let other = rng.next_bounded(cfg.total_lps() - lpn);
            let dst = if other >= node_base { other + lpn } else { other };
            (LpId(dst), Class::Remote)
        } else if u < params.remote_pct + params.regional_pct {
            if cfg.spec.workers_per_node < 2 {
                return (me, Class::Local);
            }
            // Regional: uniform over same-node LPs on other workers.
            let (node, lane) = cfg.locate(me);
            let node_base = cfg.first_lp(node, LaneId(0)).0;
            let worker_base_in_node = cfg.first_lp(node, lane).0 - node_base;
            let lpw = cfg.lps_per_worker;
            let other = rng.next_bounded(cfg.lps_per_node() - lpw);
            let within = if other >= worker_base_in_node { other + lpw } else { other };
            (LpId(node_base + within), Class::Regional)
        } else {
            // Local: the LP itself (the paper's fastest class).
            (me, Class::Local)
        }
    }
}

impl Model for PholdModel {
    type State = PholdState;
    type Payload = u32;

    fn init_state(&self, _lp: LpId, _rng: &mut Pcg32) -> PholdState {
        PholdState::default()
    }

    fn initial_events(
        &self,
        lp: LpId,
        _state: &mut PholdState,
        rng: &mut Pcg32,
        emit: &mut Emitter<u32>,
    ) {
        // One starting event per LP, to itself (paper §2).
        emit.emit(lp, self.lookahead + rng.next_exp(self.mean_delay), lp.0);
    }

    fn handle(
        &self,
        ctx: &EventCtx,
        state: &mut PholdState,
        payload: &u32,
        rng: &mut Pcg32,
        emit: &mut Emitter<u32>,
    ) -> u64 {
        let params = self.schedule.at(ctx.progress());
        state.processed += 1;
        state.checksum = state
            .checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(*payload as u64)
            .wrapping_add(ctx.now.as_f64().to_bits());

        let (dst, class) = self.draw_destination(ctx.self_lp, &params, rng);
        match class {
            Class::Local => state.sent_local += 1,
            Class::Regional => state.sent_regional += 1,
            Class::Remote => state.sent_remote += 1,
        }
        emit.emit(dst, self.lookahead + rng.next_exp(self.mean_delay), payload.wrapping_add(1));
        params.epg
    }

    fn supports_reverse(&self) -> bool {
        true
    }

    /// Exact inverse of [`Self::handle`]: the scratch generator arrives at
    /// its pre-event position, so re-running the destination draw tells us
    /// which class counter the forward pass incremented, and the checksum
    /// fold is algebraically inverted (the FNV prime is odd, hence
    /// invertible modulo 2^64).
    fn reverse(&self, ctx: &EventCtx, state: &mut PholdState, payload: &u32, rng: &mut Pcg32) {
        const FNV_INV: u64 = 0xCE96_5057_AFF6_957B; // (0x100000001B3)^-1 mod 2^64
        let params = self.schedule.at(ctx.progress());
        let (_dst, class) = self.draw_destination(ctx.self_lp, &params, rng);
        match class {
            Class::Local => state.sent_local -= 1,
            Class::Regional => state.sent_regional -= 1,
            Class::Remote => state.sent_remote -= 1,
        }
        state.processed -= 1;
        state.checksum = state
            .checksum
            .wrapping_sub(ctx.now.as_f64().to_bits())
            .wrapping_sub(*payload as u64)
            .wrapping_mul(FNV_INV);
    }

    fn state_fingerprint(&self, state: &PholdState) -> u64 {
        state
            .processed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(state.sent_local)
            .wrapping_add(state.sent_regional.rotate_left(16))
            .wrapping_add(state.sent_remote.rotate_left(32))
            ^ state.checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::time::VirtualTime;

    /// A run of `nodes` nodes x `workers` workers x `lps` LPs per worker.
    pub(super) fn geometry(nodes: u16, workers: u16, lps: u32) -> SimConfig {
        let mut cfg = SimConfig::small(nodes, workers);
        cfg.lps_per_worker = lps;
        cfg
    }

    fn cfg() -> SimConfig {
        geometry(2, 3, 4)
    }

    fn ctx(me: u32, t: f64) -> EventCtx {
        EventCtx {
            now: VirtualTime::new(t),
            self_lp: LpId(me),
            end_time: VirtualTime::new(100.0),
            total_lps: cfg().total_lps(),
        }
    }

    /// Checks one draw of `me` against the run's placement.
    fn check_draw(cfg: &SimConfig, me: LpId, dst: LpId, class: Class) {
        assert!(dst.0 < cfg.total_lps(), "{dst} out of range");
        let (node, lane) = cfg.locate(me);
        let (dst_node, dst_lane) = cfg.locate(dst);
        match class {
            Class::Local => assert_eq!(dst, me),
            Class::Regional => {
                assert_eq!(dst_node, node, "regional {me} -> {dst} leaves the node");
                assert_ne!(dst_lane, lane, "regional {me} -> {dst} stays on the lane");
            }
            Class::Remote => assert_ne!(dst_node, node, "remote {me} -> {dst} stays on the node"),
        }
    }

    #[test]
    fn destination_classes_respect_topology() {
        let model =
            PholdModel::new(&cfg(), PhaseSchedule::constant(PholdParams::new(0.3, 0.2, 1_000)));
        let mut rng = Pcg32::new(1, 1);
        let me = LpId(5); // node 0, worker 1
        let (mut local, mut regional, mut remote) = (0u32, 0u32, 0u32);
        for _ in 0..20_000 {
            let (dst, class) = model.draw_destination(me, &model.schedule.at(0.0), &mut rng);
            check_draw(&model.cfg, me, dst, class);
            match class {
                Class::Local => local += 1,
                Class::Regional => regional += 1,
                Class::Remote => remote += 1,
            }
        }
        // Probabilities within loose tolerance.
        let total = 20_000.0;
        assert!((regional as f64 / total - 0.3).abs() < 0.02, "regional {regional}");
        assert!((remote as f64 / total - 0.2).abs() < 0.02, "remote {remote}");
        assert!((local as f64 / total - 0.5).abs() < 0.02, "local {local}");
    }

    /// On every uneven geometry, every LP's draws agree with the engine's
    /// placement (`SimConfig::locate`), whatever class they fall in.
    #[test]
    fn draws_agree_with_the_placement_on_uneven_geometries() {
        let params = PholdParams::new(0.4, 0.4, 100);
        for nodes in 1..=3 {
            for workers in 1..=3 {
                for lps in 1..=5 {
                    let cfg = geometry(nodes, workers, lps);
                    let model = PholdModel::new(&cfg, PhaseSchedule::constant(params));
                    let mut rng = Pcg32::new(lps as u64, nodes as u64 * 4 + workers as u64);
                    for me in (0..cfg.total_lps()).map(LpId) {
                        for _ in 0..40 {
                            let (dst, class) = model.draw_destination(me, &params, &mut rng);
                            check_draw(&cfg, me, dst, class);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn handle_emits_exactly_one_event_with_positive_delay() {
        let model =
            PholdModel::new(&cfg(), PhaseSchedule::constant(PholdParams::new(0.1, 0.01, 10_000)));
        let mut rng = Pcg32::new(2, 2);
        let mut state = PholdState::default();
        let mut emit = Emitter::new();
        let epg = model.handle(&ctx(0, 1.0), &mut state, &7, &mut rng, &mut emit);
        assert_eq!(epg, 10_000);
        assert_eq!(emit.len(), 1);
        let (_, delay, _) = emit.take().next().unwrap();
        assert!(delay >= model.lookahead);
        assert_eq!(state.processed, 1);
    }

    #[test]
    fn phase_schedule_alternates_like_the_paper() {
        let comp = PholdParams::new(0.10, 0.01, 10_000);
        let comm = PholdParams::new(0.90, 0.10, 5_000);
        // 10-15 model: cycle = 25% of the run, 40% of each cycle in comp.
        let s = PhaseSchedule::alternating_cycles(10.0, comp, 15.0, comm, 4);
        assert_eq!(s.at(0.0), comp);
        assert_eq!(s.at(0.05), comp);
        assert_eq!(s.at(0.11), comm);
        assert_eq!(s.at(0.24), comm);
        // Second cycle starts at 0.25.
        assert_eq!(s.at(0.26), comp);
        assert_eq!(s.at(0.40), comm);
    }

    #[test]
    fn constant_schedule_is_constant() {
        let p = PholdParams::new(0.9, 0.1, 5_000);
        let s = PhaseSchedule::constant(p);
        for i in 0..10 {
            assert_eq!(s.at(i as f64 / 10.0), p);
        }
    }

    #[test]
    fn single_node_remote_draws_fall_back_to_local() {
        let model = PholdModel::new(
            &geometry(1, 2, 4),
            PhaseSchedule::constant(PholdParams::new(0.0, 1.0, 100)),
        );
        let mut rng = Pcg32::new(3, 3);
        for _ in 0..100 {
            let (dst, class) = model.draw_destination(LpId(0), &model.schedule.at(0.0), &mut rng);
            assert_eq!(class, Class::Local);
            assert_eq!(dst, LpId(0));
        }
    }

    #[test]
    fn fingerprint_depends_on_history() {
        let model =
            PholdModel::new(&cfg(), PhaseSchedule::constant(PholdParams::new(0.1, 0.01, 100)));
        let mut rng = Pcg32::new(4, 4);
        let mut a = PholdState::default();
        let mut emit = Emitter::new();
        model.handle(&ctx(0, 1.0), &mut a, &1, &mut rng, &mut emit);
        emit.take().count();
        let mut b = a;
        model.handle(&ctx(0, 2.0), &mut b, &2, &mut rng, &mut emit);
        emit.take().count();
        assert_ne!(model.state_fingerprint(&a), model.state_fingerprint(&b));
    }

    /// The LP table's layout for PHOLD on a 64-bit target: an LP record
    /// with a 32-bit send sequence, a history node (the 24-byte event, the
    /// 8-byte pre-event generator state and three chain links) with no room
    /// for a state copy, and a send node whose link fills the padding of
    /// `(LpId, VirtualTime)`.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn lp_table_nodes_stay_small() {
        use cagvt_core::lp::{HistoryNode, LpRecord, SendNode};
        use std::mem::size_of;
        assert!(size_of::<LpRecord<PholdModel>>() <= 88, "{}", size_of::<LpRecord<PholdModel>>());
        assert!(
            size_of::<HistoryNode<PholdModel>>() <= 48,
            "{}",
            size_of::<HistoryNode<PholdModel>>()
        );
        assert_eq!(size_of::<SendNode>(), 16);
        assert_eq!(size_of::<(LpId, VirtualTime)>(), 16);
    }
}

#[cfg(test)]
mod reverse_tests {
    use super::tests::geometry;
    use super::*;
    use cagvt_base::time::VirtualTime;

    fn model() -> PholdModel {
        PholdModel::new(
            &geometry(2, 3, 4),
            PhaseSchedule::constant(PholdParams::new(0.3, 0.2, 1_000)),
        )
    }

    fn ctx(me: u32, t: f64) -> EventCtx {
        EventCtx {
            now: VirtualTime::new(t),
            self_lp: LpId(me),
            end_time: VirtualTime::new(100.0),
            total_lps: 24,
        }
    }

    #[test]
    fn reverse_is_the_exact_inverse_of_handle() {
        let m = model();
        assert!(m.supports_reverse());
        let mut rng = Pcg32::new(77, 1);
        let mut state = PholdState::default();
        let mut emit = Emitter::new();

        // A chain of forward events, then unwind them in LIFO order.
        let script: Vec<(u32, f64, u32)> =
            (0..50).map(|i| (i % 24, 1.0 + i as f64 * 0.37, i * 3 + 1)).collect();
        let mut checkpoints = Vec::new();
        for &(me, t, payload) in &script {
            checkpoints.push((state, rng));
            m.handle(&ctx(me, t), &mut state, &payload, &mut rng, &mut emit);
            emit.take().count();
        }
        for (i, &(me, t, payload)) in script.iter().enumerate().rev() {
            let (expect_state, prior_rng) = checkpoints[i];
            let mut scratch = prior_rng;
            m.reverse(&ctx(me, t), &mut state, &payload, &mut scratch);
            assert_eq!(state.processed, expect_state.processed, "event {i}");
            assert_eq!(state.checksum, expect_state.checksum, "event {i}");
            assert_eq!(state.sent_local, expect_state.sent_local, "event {i}");
            assert_eq!(state.sent_regional, expect_state.sent_regional, "event {i}");
            assert_eq!(state.sent_remote, expect_state.sent_remote, "event {i}");
        }
        assert_eq!(state.processed, 0);
    }

    #[test]
    fn reverse_handles_every_phase_of_a_mixed_schedule() {
        let m = PholdModel::new(
            &geometry(2, 3, 4),
            PhaseSchedule::alternating_cycles(
                10.0,
                PholdParams::new(0.1, 0.01, 10_000),
                15.0,
                PholdParams::new(0.9, 0.1, 5_000),
                4,
            ),
        );
        let mut rng = Pcg32::new(5, 5);
        let mut state = PholdState::default();
        let mut emit = Emitter::new();
        // Spread events across the whole horizon so both phases are hit.
        let times: Vec<f64> = (1..60).map(|i| i as f64 * 1.6).collect();
        let mut checkpoints = Vec::new();
        for &t in &times {
            checkpoints.push((state, rng));
            m.handle(&ctx(3, t), &mut state, &7, &mut rng, &mut emit);
            emit.take().count();
        }
        for (i, &t) in times.iter().enumerate().rev() {
            let (expect_state, prior_rng) = checkpoints[i];
            let mut scratch = prior_rng;
            m.reverse(&ctx(3, t), &mut state, &7, &mut scratch);
            assert_eq!(state, expect_state, "at t={t}");
        }
    }
}
