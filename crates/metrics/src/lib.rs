//! `cagvt-metrics` — the concrete online-metrics layer behind the
//! [`MetricsSink`](cagvt_base::MetricsSink) hook defined in `cagvt-base`
//! (sibling of `TraceSink` and `FaultInjector`).
//!
//! Where `cagvt-trace` records *individual* engine actions, this crate
//! consumes the per-GVT-round [`MetricsEpoch`](cagvt_base::MetricsEpoch)
//! stream the engine publishes — windowed counter deltas, the per-worker
//! LVT-lag horizon and the CA-GVT controller's mode/cause decision — and
//! turns it into:
//!
//! * [`MetricsRegistry`] — the in-memory epoch store, read back after the
//!   run;
//! * [`epoch_csv()`] — the series as tidy CSV, one row per epoch;
//! * [`HealthMonitor`] — online rules over the epoch stream: robust
//!   z-score straggler detection on the lag horizon, efficiency-collapse
//!   and mode-flapping (with hysteresis) alerts, plus fault-plan
//!   annotation. Alerts surface in the harness's `RunReport::health`
//!   section.
//!
//! Like tracing, metrics observation charges no simulated wall-clock
//! cost and feeds nothing back into engine state: the workspace-level
//! `metrics_never_perturb` proptest holds metered and unmetered runs to
//! bit-identical results.

pub mod epoch_csv;
pub mod health;
pub mod registry;

pub use epoch_csv::{epoch_csv, epoch_csv_header, epoch_csv_row};
pub use health::{Alert, AlertKind, HealthMonitor};
pub use registry::MetricsRegistry;
