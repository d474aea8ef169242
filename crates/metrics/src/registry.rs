//! The concrete [`MetricsSink`]: an in-memory epoch store.
//!
//! Same discipline as `cagvt-trace`'s sinks: recording happens inside the
//! sink call and is therefore virtual-time-neutral, and nothing ever flows
//! back into engine state. The caller serializes the recorded series after
//! the run (the harness writes it with [`crate::epoch_csv()`]).

use cagvt_base::metrics::{MetricsEpoch, MetricsSink};
use cagvt_base::WallNs;
use parking_lot::Mutex;

/// In-memory metrics registry. Wrap it in an `Arc`, hand it to the engine
/// as its `MetricsSink` (e.g. via `VirtualConfig::metrics`) and read the
/// recorded series back with [`MetricsRegistry::epochs`] after the run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    epochs: Mutex<Vec<MetricsEpoch>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the recorded series so far.
    pub fn epochs(&self) -> Vec<MetricsEpoch> {
        self.epochs.lock().clone()
    }

    /// Number of epochs recorded so far.
    pub fn len(&self) -> usize {
        self.epochs.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MetricsSink for MetricsRegistry {
    fn on_epoch(&self, _t: WallNs, epoch: &MetricsEpoch) {
        self.epochs.lock().push(epoch.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(round: u64) -> MetricsEpoch {
        MetricsEpoch { round, t: WallNs(round * 100), ..MetricsEpoch::default() }
    }

    #[test]
    fn registry_records_epochs_in_order() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        reg.on_epoch(WallNs(1), &epoch(1));
        reg.on_epoch(WallNs(2), &epoch(2));
        assert_eq!(reg.len(), 2);
        let es = reg.epochs();
        assert_eq!(es[0].round, 1);
        assert_eq!(es[1].round, 2);
    }
}
