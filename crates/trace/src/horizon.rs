//! Virtual-time-horizon statistics, à la Kolakowska–Novotny / Korniss.
//!
//! The *virtual time horizon* is the per-worker LVT profile
//! `{lvt_i(t)}`. Its **width** `max_i lvt_i − min_i lvt_i` and
//! **roughness** `sqrt((1/N) Σ_i (lvt_i − <lvt>)²)` measure how
//! desynchronized the optimistic computation is; its growth-rate relation
//! to the GVT gives a per-round **utilization** `Δgvt / Δ<lvt>` — the
//! fraction of horizon progress that is commit progress (1.0 = no wasted
//! optimism, as in a conservative/barrier scheme; small values = deep
//! speculation that fossil collection lags behind).
//!
//! Statistics are computed from the `Lvt` snapshot records that follow
//! each `GvtPublish` in a recorded stream, with the engine's one horizon
//! definition ([`Horizon::of`]), so they match the run report and the
//! per-epoch metrics round for round.

use crate::ring::TraceEvent;
use cagvt_base::{Horizon, TraceRecord};
use std::fmt::Write as _;

/// Horizon profile of one GVT round snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundHorizon {
    pub round: u64,
    /// Simulated wall-clock instant of the snapshot.
    pub t_ns: u64,
    /// The GVT published for this round.
    pub gvt: f64,
    /// Mean of the finite per-worker LVTs.
    pub mean_lvt: f64,
    /// `max − min` of the finite per-worker LVTs.
    pub width: f64,
    /// Population standard deviation of the finite per-worker LVTs.
    pub roughness: f64,
    /// `Δgvt / Δmean_lvt` against the previous snapshot, clamped to
    /// `[0, 1]`; `None` for the first round or a stalled horizon.
    pub utilization: Option<f64>,
    /// Finite LVT samples in the snapshot.
    pub samples: u32,
}

/// Aggregate horizon statistics of one run.
#[derive(Clone, Debug, Default)]
pub struct HorizonStats {
    pub rounds: Vec<RoundHorizon>,
    /// Mean snapshot width across rounds.
    pub mean_width: f64,
    /// Mean snapshot roughness across rounds.
    pub mean_roughness: f64,
    /// Mean per-round utilization (over rounds where it is defined).
    pub mean_utilization: f64,
}

impl HorizonStats {
    /// Compute from a merged record stream (`TraceRecorder::snapshot`
    /// order): each `GvtPublish` opens a snapshot that collects the `Lvt`
    /// records following it.
    pub fn compute(events: &[TraceEvent]) -> HorizonStats {
        struct Open {
            round: u64,
            t_ns: u64,
            gvt: f64,
            lvts: Vec<f64>,
        }
        let mut open: Option<Open> = None;
        let mut rounds: Vec<RoundHorizon> = Vec::new();
        let close = |o: Option<Open>, rounds: &mut Vec<RoundHorizon>| {
            let Some(o) = o else { return };
            if o.lvts.is_empty() {
                return;
            }
            let h = Horizon::of(o.lvts);
            rounds.push(RoundHorizon {
                round: o.round,
                t_ns: o.t_ns,
                gvt: o.gvt,
                mean_lvt: h.mean,
                width: h.width,
                roughness: h.roughness,
                utilization: None,
                samples: h.samples,
            });
        };
        for ev in events {
            match ev.rec {
                TraceRecord::GvtPublish { round, gvt } => {
                    close(open.take(), &mut rounds);
                    if gvt.is_finite() {
                        open =
                            Some(Open { round, t_ns: ev.t.0, gvt: gvt.as_f64(), lvts: Vec::new() });
                    }
                }
                TraceRecord::Lvt { lvt, .. } => {
                    if let Some(o) = open.as_mut() {
                        if lvt.is_finite() {
                            o.lvts.push(lvt.as_f64());
                        }
                    }
                }
                _ => {}
            }
        }
        close(open.take(), &mut rounds);

        // Per-round utilization against the previous snapshot.
        for i in 1..rounds.len() {
            let d_gvt = rounds[i].gvt - rounds[i - 1].gvt;
            let d_lvt = rounds[i].mean_lvt - rounds[i - 1].mean_lvt;
            if d_lvt > 0.0 && d_gvt >= 0.0 {
                rounds[i].utilization = Some((d_gvt / d_lvt).clamp(0.0, 1.0));
            }
        }

        let n = rounds.len() as f64;
        let (mut mw, mut mr) = (0.0, 0.0);
        let mut used = 0u32;
        let mut mu = 0.0;
        for r in &rounds {
            mw += r.width;
            mr += r.roughness;
            if let Some(u) = r.utilization {
                mu += u;
                used += 1;
            }
        }
        HorizonStats {
            rounds,
            mean_width: if n > 0.0 { mw / n } else { 0.0 },
            mean_roughness: if n > 0.0 { mr / n } else { 0.0 },
            mean_utilization: if used > 0 { mu / used as f64 } else { 0.0 },
        }
    }

    /// Per-round time series as tidy CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,t_ns,gvt,mean_lvt,width,roughness,utilization,samples\n");
        for r in &self.rounds {
            let util = r.utilization.map(|u| format!("{u:.6}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                r.round, r.t_ns, r.gvt, r.mean_lvt, r.width, r.roughness, util, r.samples
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::time::{VirtualTime, WallNs};

    fn publish(seq: u64, t: u64, round: u64, gvt: f64) -> TraceEvent {
        TraceEvent {
            seq,
            t: WallNs(t),
            rec: TraceRecord::GvtPublish { round, gvt: VirtualTime::new(gvt) },
        }
    }

    fn lvt(seq: u64, t: u64, worker: u32, v: f64) -> TraceEvent {
        TraceEvent { seq, t: WallNs(t), rec: TraceRecord::Lvt { worker, lvt: VirtualTime::new(v) } }
    }

    #[test]
    fn width_roughness_and_utilization() {
        let events = vec![
            publish(0, 100, 1, 1.0),
            lvt(1, 100, 0, 2.0),
            lvt(2, 100, 1, 4.0),
            publish(3, 200, 2, 2.0),
            lvt(4, 200, 0, 4.0),
            lvt(5, 200, 1, 6.0),
        ];
        let h = HorizonStats::compute(&events);
        assert_eq!(h.rounds.len(), 2);
        let r1 = h.rounds[0];
        assert_eq!(r1.width, 2.0);
        assert_eq!(r1.mean_lvt, 3.0);
        assert!((r1.roughness - 1.0).abs() < 1e-12, "pop std-dev of {{2,4}} is 1");
        assert_eq!(r1.utilization, None, "first round has no predecessor");
        let r2 = h.rounds[1];
        // Δgvt = 1, Δmean_lvt = 2 → utilization 0.5.
        assert_eq!(r2.utilization, Some(0.5));
        assert_eq!(h.mean_width, 2.0);
        assert_eq!(h.mean_utilization, 0.5);
    }

    #[test]
    fn infinite_samples_are_ignored() {
        let events = vec![
            publish(0, 10, 1, 0.5),
            lvt(1, 10, 0, 1.0),
            TraceEvent {
                seq: 2,
                t: WallNs(10),
                rec: TraceRecord::Lvt { worker: 1, lvt: VirtualTime::INFINITY },
            },
        ];
        let h = HorizonStats::compute(&events);
        assert_eq!(h.rounds.len(), 1);
        assert_eq!(h.rounds[0].samples, 1);
        assert_eq!(h.rounds[0].width, 0.0);
    }

    #[test]
    fn empty_stream_yields_empty_stats() {
        let h = HorizonStats::compute(&[]);
        assert!(h.rounds.is_empty());
        assert_eq!(h.mean_width, 0.0);
        assert_eq!(h.to_csv().lines().count(), 1, "header only");
    }

    #[test]
    fn csv_rows_match_rounds() {
        let events = vec![
            publish(0, 1, 1, 0.0),
            lvt(1, 1, 0, 1.0),
            publish(2, 2, 2, 0.5),
            lvt(3, 2, 0, 2.0),
        ];
        let h = HorizonStats::compute(&events);
        let csv = h.to_csv();
        assert_eq!(csv.lines().count(), 1 + h.rounds.len());
        assert!(csv.starts_with("round,t_ns,"));
    }
}
