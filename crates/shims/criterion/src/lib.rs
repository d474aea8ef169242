//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of criterion's API its benches use: benchmark
//! groups, `bench_function`, `Bencher::iter` / `iter_batched`, and the
//! `criterion_group!` / `criterion_main!` macros. Instead of criterion's
//! statistical machinery it runs each benchmark `sample_size` times and
//! prints the mean and minimum wall time — enough to eyeball regressions
//! without the dependency. As in criterion, the first argument that is not
//! a flag filters: `cargo bench --bench micro -- pending_set` runs only the
//! functions whose `group/function` id contains `pending_set`.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup; all variants behave identically in
/// this shim (one setup per timed invocation, setup excluded from timing).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Times closures for one benchmark function.
pub struct Bencher {
    samples: u64,
    total: Duration,
    min: Duration,
    timed: u64,
}

impl Bencher {
    fn new(samples: u64) -> Self {
        Bencher { samples, total: Duration::ZERO, min: Duration::MAX, timed: 0 }
    }

    fn record(&mut self, d: Duration) {
        self.total += d;
        self.min = self.min.min(d);
        self.timed += 1;
    }

    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(routine());
            self.record(t0.elapsed());
        }
    }

    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.record(t0.elapsed());
        }
    }
}

/// A named group of benchmark functions.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: u64,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u64).max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        if self.criterion.filter.as_ref().is_some_and(|filter| !id.contains(filter.as_str())) {
            return self;
        }
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        let mean = if b.timed > 0 { b.total / b.timed as u32 } else { Duration::ZERO };
        println!("{id}: mean {mean:?}, min {:?} over {} samples", b.min, b.timed);
        self
    }

    pub fn finish(&mut self) {}
}

/// Entry point handed to each `criterion_group!` target.
pub struct Criterion {
    /// Substring an id must contain to run: the first non-flag argument.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { filter: std::env::args().skip(1).find(|arg| !arg.starts_with('-')) }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: 10 }
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_time_and_report() {
        // Not `default()`: that would read the test binary's own arguments.
        let mut c = Criterion { filter: None };
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0;
        group.bench_function("iter", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 3);
        let mut batched = 0;
        group.bench_function("batched", |b| {
            b.iter_batched(|| 5u64, |x| batched += x, BatchSize::SmallInput)
        });
        group.finish();
        assert_eq!(batched, 15);
    }

    #[test]
    fn the_filter_runs_matching_ids_only() {
        let mut c = Criterion { filter: Some("pending_set/pop".into()) };
        let mut group = c.benchmark_group("pending_set");
        group.sample_size(2);
        let (mut matched, mut skipped) = (0, 0);
        group.bench_function("pop_min", |b| b.iter(|| matched += 1));
        group.bench_function("insert", |b| b.iter(|| skipped += 1));
        assert_eq!((matched, skipped), (2, 0));
    }
}
