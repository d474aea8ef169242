//! Stream-health rules over the per-epoch metrics series.
//!
//! The monitor is fed one [`MetricsEpoch`] at a time (online — the bench
//! harness replays a registry's store after the run, a live deployment
//! could feed it per round) and accumulates [`Alert`]s:
//!
//! * **Straggler** — a worker whose LVT lag sits far *below* the cluster
//!   median for several consecutive epochs. Stragglers have *low* lag:
//!   the slowest worker's LVT anchors GVT, so its lag is pinned near zero
//!   while healthy workers run ahead. The rule uses a robust z-score
//!   (median / MAD) so that even a whole straggling node — a correlated
//!   minority of workers — stands out against the healthy majority, where
//!   a mean/σ z-score would be dragged toward the stragglers.
//! * **Efficiency collapse** — windowed efficiency below a threshold for
//!   several consecutive epochs (the regime where CA-GVT's conditional
//!   barriers are supposed to engage).
//! * **Mode flapping** — the CA-GVT controller oscillating sync↔async
//!   faster than the hysteresis window allows; persistent flapping means
//!   the threshold sits on top of the workload's natural efficiency.
//!
//! Each rule latches: it fires once per episode and re-arms only after
//! the condition clears, so a long degradation yields one alert, not one
//! per epoch. When a fault plan is active the harness tags the monitor
//! ([`HealthMonitor::set_fault_context`]) and every alert carries the
//! plan's signature, separating "injected" from "organic" degradation.

use cagvt_base::metrics::{EpochMode, MetricsEpoch};

/// What kind of condition an [`Alert`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlertKind {
    Straggler,
    EfficiencyCollapse,
    ModeFlapping,
}

impl AlertKind {
    /// Stable lower-case label used in report output.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Straggler => "straggler",
            AlertKind::EfficiencyCollapse => "efficiency-collapse",
            AlertKind::ModeFlapping => "mode-flapping",
        }
    }
}

/// One fired health rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    pub kind: AlertKind,
    /// GVT round at which the rule fired (condition may have started
    /// `persistence` epochs earlier).
    pub round: u64,
    /// Human-readable description, including the fault-plan signature
    /// when one is active.
    pub message: String,
}

impl Alert {
    /// `kind: message` line for `RunReport::health`.
    pub fn render(&self) -> String {
        format!("{}: {}", self.kind.label(), self.message)
    }
}

// Tunables, calibrated on the bench workloads: conservative enough to stay
// quiet on clean runs, sharp enough to flag a 4-6x node slowdown within a
// handful of GVT rounds.

/// Robust z-score below which a worker's lag counts as straggling
/// (stragglers sit *below* the median — the test is one-sided).
const STRAGGLER_Z: f64 = 4.0;
/// Consecutive flagged epochs before a straggler alert fires.
const STRAGGLER_PERSISTENCE: usize = 3;
/// Minimum finite-lag workers for the straggler rule to apply; with fewer
/// samples the median/MAD statistics are meaningless.
const STRAGGLER_MIN_WORKERS: usize = 8;
/// Windowed efficiency below this counts toward a collapse.
const COLLAPSE_THRESHOLD: f64 = 0.5;
/// Consecutive low-efficiency epochs before a collapse alert fires.
const COLLAPSE_PERSISTENCE: usize = 4;
/// Sliding window (epochs) over which sync/async flips are counted.
const FLAP_WINDOW: usize = 16;
/// Flips within the window that trigger a mode-flapping alert.
const FLAP_THRESHOLD: usize = 6;

/// Consistency constant turning a MAD into a σ-equivalent scale for
/// normally-distributed data.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Degenerate-spread guard: when the lag MAD is below this the cluster is
/// marching in lockstep and a z-score would divide by ~0.
const MIN_MAD: f64 = 1e-12;

/// Online health-rule evaluator; see the module docs for the rules.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    fault_context: Option<String>,
    alerts: Vec<Alert>,
    /// Per-worker consecutive low-z streaks (indexed by worker id).
    straggle_streak: Vec<usize>,
    /// Workers whose straggler alert is latched until they recover.
    straggle_latched: Vec<bool>,
    collapse_streak: usize,
    collapse_latched: bool,
    /// Recent controller modes, newest last, capped at [`FLAP_WINDOW`].
    recent_modes: Vec<EpochMode>,
    flap_latched: bool,
}

impl HealthMonitor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tag every subsequent alert with an active fault plan's signature.
    pub fn set_fault_context(&mut self, context: impl Into<String>) {
        self.fault_context = Some(context.into());
    }

    /// Alerts fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// `render()`ed alert lines for `RunReport::health`.
    pub fn report_lines(&self) -> Vec<String> {
        self.alerts.iter().map(Alert::render).collect()
    }

    /// Evaluate one published epoch.
    pub fn observe(&mut self, e: &MetricsEpoch) {
        self.observe_stragglers(e);
        self.observe_collapse(e);
        self.observe_flapping(e);
    }

    /// Feed a whole recorded series (the post-run harness path).
    pub fn observe_all<'a>(&mut self, epochs: impl IntoIterator<Item = &'a MetricsEpoch>) {
        for e in epochs {
            self.observe(e);
        }
    }

    fn push_alert(&mut self, kind: AlertKind, round: u64, message: String) {
        let message = match &self.fault_context {
            Some(ctx) => format!("{message} [fault plan active: {ctx}]"),
            None => message,
        };
        self.alerts.push(Alert { kind, round, message });
    }

    fn observe_stragglers(&mut self, e: &MetricsEpoch) {
        if self.straggle_streak.len() < e.worker_lag.len() {
            self.straggle_streak.resize(e.worker_lag.len(), 0);
            self.straggle_latched.resize(e.worker_lag.len(), false);
        }
        let finite: Vec<f64> = e.worker_lag.iter().copied().filter(|l| l.is_finite()).collect();
        if finite.len() < STRAGGLER_MIN_WORKERS {
            return;
        }
        let med = median(&finite);
        let mut abs_dev: Vec<f64> = finite.iter().map(|l| (l - med).abs()).collect();
        let mad = median_mut(&mut abs_dev);
        if mad < MIN_MAD {
            // Lockstep horizon: no spread to straggle against, so every
            // worker's condition has cleared.
            self.straggle_streak.fill(0);
            self.straggle_latched.fill(false);
            return;
        }
        let scale = MAD_TO_SIGMA * mad;
        for (w, lag) in e.worker_lag.iter().enumerate() {
            let z = if lag.is_finite() { (lag - med) / scale } else { 0.0 };
            if z < -STRAGGLER_Z {
                self.straggle_streak[w] += 1;
                if self.straggle_streak[w] >= STRAGGLER_PERSISTENCE && !self.straggle_latched[w] {
                    self.straggle_latched[w] = true;
                    self.push_alert(
                        AlertKind::Straggler,
                        e.round,
                        format!(
                            "worker {w} lag {lag:.3} is {:.1} robust-sigma below the \
                             cluster median {med:.3} for {} consecutive epochs",
                            -z, self.straggle_streak[w],
                        ),
                    );
                }
            } else {
                self.straggle_streak[w] = 0;
                self.straggle_latched[w] = false;
            }
        }
    }

    fn observe_collapse(&mut self, e: &MetricsEpoch) {
        if e.efficiency_window < COLLAPSE_THRESHOLD {
            self.collapse_streak += 1;
            if self.collapse_streak >= COLLAPSE_PERSISTENCE && !self.collapse_latched {
                self.collapse_latched = true;
                self.push_alert(
                    AlertKind::EfficiencyCollapse,
                    e.round,
                    format!(
                        "windowed efficiency {:.3} below {:.2} for {} consecutive epochs",
                        e.efficiency_window, COLLAPSE_THRESHOLD, self.collapse_streak,
                    ),
                );
            }
        } else {
            self.collapse_streak = 0;
            self.collapse_latched = false;
        }
    }

    fn observe_flapping(&mut self, e: &MetricsEpoch) {
        // Only controller-bearing rounds participate; Barrier/Mattern
        // streams are all Uncontrolled and never flap.
        if e.mode == EpochMode::Uncontrolled {
            return;
        }
        self.recent_modes.push(e.mode);
        if self.recent_modes.len() > FLAP_WINDOW {
            self.recent_modes.remove(0);
        }
        let flips = self.recent_modes.windows(2).filter(|pair| pair[0] != pair[1]).count();
        if flips >= FLAP_THRESHOLD {
            if !self.flap_latched {
                self.flap_latched = true;
                self.push_alert(
                    AlertKind::ModeFlapping,
                    e.round,
                    format!(
                        "controller flipped sync/async {flips} times in the last {} epochs",
                        self.recent_modes.len(),
                    ),
                );
            }
        } else if flips <= FLAP_THRESHOLD / 2 {
            // Hysteresis: re-arm only once the oscillation has clearly
            // settled, not the first epoch the count dips below threshold.
            self.flap_latched = false;
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    median_mut(&mut v)
}

/// Median by sort; `values` must be non-empty and NaN-free.
fn median_mut(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("median input must be NaN-free"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 16-worker epoch with the given per-worker lags.
    fn epoch(round: u64, lags: Vec<f64>, eff: f64, mode: EpochMode) -> MetricsEpoch {
        MetricsEpoch {
            round,
            worker_lag: lags,
            efficiency_window: eff,
            mode,
            ..MetricsEpoch::default()
        }
    }

    fn healthy_lags() -> Vec<f64> {
        // Tight healthy horizon around lag 10 (MAD ~0.3); a straggler
        // pinned near GVT sits tens of robust sigmas below it.
        (0..16).map(|w| 10.0 + 0.15 * (w % 8) as f64).collect()
    }

    fn straggling_lags() -> Vec<f64> {
        let mut lags = healthy_lags();
        lags[3] = 0.01; // pinned at GVT
        lags
    }

    #[test]
    fn clean_stream_is_quiet() {
        let mut m = HealthMonitor::default();
        for r in 1..=40 {
            m.observe(&epoch(r, healthy_lags(), 0.9, EpochMode::Async));
        }
        assert!(m.alerts().is_empty(), "alerts: {:?}", m.alerts());
    }

    #[test]
    fn persistent_straggler_fires_once_and_names_the_worker() {
        let mut m = HealthMonitor::default();
        for r in 1..=10 {
            m.observe(&epoch(r, straggling_lags(), 0.9, EpochMode::Async));
        }
        let stragglers: Vec<_> =
            m.alerts().iter().filter(|a| a.kind == AlertKind::Straggler).collect();
        assert_eq!(stragglers.len(), 1, "latched rule must fire once: {:?}", m.alerts());
        assert!(stragglers[0].message.contains("worker 3"), "msg: {}", stragglers[0].message);
        assert_eq!(stragglers[0].round, STRAGGLER_PERSISTENCE as u64);
    }

    #[test]
    fn straggler_rule_realarms_after_recovery() {
        let mut m = HealthMonitor::default();
        for r in 1..=5 {
            m.observe(&epoch(r, straggling_lags(), 0.9, EpochMode::Async));
        }
        for r in 6..=10 {
            m.observe(&epoch(r, healthy_lags(), 0.9, EpochMode::Async));
        }
        for r in 11..=15 {
            m.observe(&epoch(r, straggling_lags(), 0.9, EpochMode::Async));
        }
        let stragglers = m.alerts().iter().filter(|a| a.kind == AlertKind::Straggler).count();
        assert_eq!(stragglers, 2);
    }

    /// A lockstep epoch (zero lag spread) clears the condition like a
    /// healthy one does, so the next episode fires again.
    #[test]
    fn straggler_rule_realarms_after_a_lockstep_epoch() {
        let mut m = HealthMonitor::default();
        for r in 1..=5 {
            m.observe(&epoch(r, straggling_lags(), 0.9, EpochMode::Async));
        }
        m.observe(&epoch(6, vec![2.0; 16], 0.9, EpochMode::Async));
        for r in 7..=11 {
            m.observe(&epoch(r, straggling_lags(), 0.9, EpochMode::Async));
        }
        let stragglers = m.alerts().iter().filter(|a| a.kind == AlertKind::Straggler).count();
        assert_eq!(stragglers, 2, "alerts: {:?}", m.alerts());
    }

    #[test]
    fn transient_dip_below_persistence_stays_quiet() {
        let mut m = HealthMonitor::default();
        m.observe(&epoch(1, straggling_lags(), 0.9, EpochMode::Async));
        m.observe(&epoch(2, straggling_lags(), 0.9, EpochMode::Async));
        m.observe(&epoch(3, healthy_lags(), 0.9, EpochMode::Async));
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn small_clusters_skip_the_straggler_rule() {
        let mut m = HealthMonitor::default();
        for r in 1..=10 {
            m.observe(&epoch(r, vec![5.0, 5.5, 0.001, 6.0], 0.9, EpochMode::Async));
        }
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn lockstep_horizon_never_divides_by_zero_mad() {
        let mut m = HealthMonitor::default();
        for r in 1..=10 {
            m.observe(&epoch(r, vec![2.0; 16], 0.9, EpochMode::Async));
        }
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn idle_workers_do_not_trip_the_straggler_rule() {
        let mut lags = healthy_lags();
        lags[7] = f64::NAN;
        let mut m = HealthMonitor::default();
        for r in 1..=10 {
            m.observe(&epoch(r, lags.clone(), 0.9, EpochMode::Async));
        }
        assert!(m.alerts().is_empty(), "alerts: {:?}", m.alerts());
    }

    #[test]
    fn efficiency_collapse_fires_after_persistence_and_latches() {
        let mut m = HealthMonitor::default();
        for r in 1..=10 {
            m.observe(&epoch(r, healthy_lags(), 0.2, EpochMode::Async));
        }
        let collapses: Vec<_> =
            m.alerts().iter().filter(|a| a.kind == AlertKind::EfficiencyCollapse).collect();
        assert_eq!(collapses.len(), 1);
        assert_eq!(collapses[0].round, COLLAPSE_PERSISTENCE as u64);
    }

    #[test]
    fn brief_efficiency_dips_stay_quiet() {
        let mut m = HealthMonitor::default();
        for r in 1..=12 {
            let eff = if r % 3 == 0 { 0.3 } else { 0.9 };
            m.observe(&epoch(r, healthy_lags(), eff, EpochMode::Async));
        }
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn mode_flapping_fires_with_hysteresis() {
        let mut m = HealthMonitor::default();
        // Alternate sync/async every epoch: flips accumulate fast.
        for r in 1..=16 {
            let mode = if r % 2 == 0 { EpochMode::Sync } else { EpochMode::Async };
            m.observe(&epoch(r, healthy_lags(), 0.9, mode));
        }
        let flaps = m.alerts().iter().filter(|a| a.kind == AlertKind::ModeFlapping).count();
        assert_eq!(flaps, 1, "latched while oscillation persists: {:?}", m.alerts());
        // Long quiet stretch clears the window; a new burst re-fires.
        for r in 17..=40 {
            m.observe(&epoch(r, healthy_lags(), 0.9, EpochMode::Async));
        }
        for r in 41..=56 {
            let mode = if r % 2 == 0 { EpochMode::Sync } else { EpochMode::Async };
            m.observe(&epoch(r, healthy_lags(), 0.9, mode));
        }
        let flaps = m.alerts().iter().filter(|a| a.kind == AlertKind::ModeFlapping).count();
        assert_eq!(flaps, 2);
    }

    #[test]
    fn stable_controller_modes_never_flap() {
        let mut m = HealthMonitor::default();
        for r in 1..=20 {
            let mode = if r < 10 { EpochMode::Async } else { EpochMode::Sync };
            m.observe(&epoch(r, healthy_lags(), 0.9, mode));
        }
        assert!(m.alerts().is_empty(), "one transition is not flapping: {:?}", m.alerts());
    }

    #[test]
    fn fault_context_annotates_alerts() {
        let mut m = HealthMonitor::default();
        m.set_fault_context("node-straggle n1 x6");
        for r in 1..=10 {
            m.observe(&epoch(r, straggling_lags(), 0.9, EpochMode::Async));
        }
        assert!(!m.alerts().is_empty());
        assert!(m.alerts()[0].message.contains("[fault plan active: node-straggle n1 x6]"));
        assert!(m.report_lines()[0].starts_with("straggler: "));
    }
}
