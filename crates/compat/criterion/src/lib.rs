//! Offline stand-in for [criterion](https://docs.rs/criterion) exposing the
//! macro and builder surface the `cxk_bench` benches use. Behavior follows
//! criterion's two modes:
//!
//! * **bench mode** (`cargo bench` passes `--bench`): each routine is warmed
//!   up once, then run in batches doubling in size until one batch lasts at
//!   least 1 ms; `sample_size` batches of that size are timed one
//!   by one, and the median wall-clock time per iteration, with the fastest
//!   and slowest sample beside it (and throughput at the median when
//!   configured), is printed to stdout. A median of separately timed
//!   samples does not move with one slow batch — a page fault, a
//!   descheduled thread — as a mean over one timed block does.
//! * **test mode** (`cargo test` runs bench targets without `--bench`): each
//!   routine runs exactly once as a smoke test, so benches stay cheap inside
//!   the test suite while still exercising their full code paths.
//!
//! Statistical analysis, HTML reports and plotting are intentionally absent.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The shortest a timed sample may be: a batch of iterations is sized to
/// last at least this long, so timer resolution and the per-sample
/// overhead stay small beside what is measured.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// The largest batch, for routines too fast to reach [`MIN_SAMPLE`].
const MAX_BATCH: u64 = 1 << 24;

/// How batched inputs are grouped; accepted for API compatibility only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One fresh input per iteration.
    PerIteration,
}

/// Throughput annotation attached to a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with both a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id carrying only the parameter value (the group supplies the name).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

/// Passed to each benchmark closure; runs and times the routine.
pub struct Bencher<'a> {
    samples: u64,
    bench_mode: bool,
    /// Nanoseconds per iteration of each timed sample, reported back to
    /// the [`Criterion`].
    per_iter: &'a mut Vec<f64>,
}

impl Bencher<'_> {
    /// Times `routine` called repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if !self.bench_mode {
            black_box(routine());
            return;
        }
        self.measure(|n| {
            let start = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Times `routine` over inputs produced by `setup`. As in criterion,
    /// neither running `setup` nor dropping the routine's output is timed:
    /// each call is timed on its own, one input alive at a time, and a
    /// batch's time is the sum of its calls'.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        if !self.bench_mode {
            black_box(routine(setup()));
            return;
        }
        self.measure(|n| {
            let mut total = Duration::ZERO;
            for _ in 0..n {
                let input = setup();
                let start = Instant::now();
                let output = black_box(routine(input));
                total += start.elapsed();
                drop(output);
            }
            total
        });
    }

    /// Warms up with one iteration, doubles the batch until one lasts
    /// [`MIN_SAMPLE`], then times `samples` batches of that size.
    /// `run(n)` runs `n` iterations and returns the time they took.
    fn measure(&mut self, mut run: impl FnMut(u64) -> Duration) {
        run(1);
        let mut batch = 1;
        while run(batch) < MIN_SAMPLE && batch < MAX_BATCH {
            batch *= 2;
        }
        self.per_iter.clear();
        for _ in 0..self.samples {
            self.per_iter
                .push(run(batch).as_nanos() as f64 / batch as f64);
        }
    }
}

/// The benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: u64,
    bench_mode: bool,
    /// Only benchmarks whose id contains it run, as with criterion's
    /// positional filter (`cargo bench -- <filter>`).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 10,
            // cargo bench invokes bench targets with `--bench`; cargo test
            // invokes them without it. Matching real criterion's detection.
            bench_mode: std::env::args().any(|a| a == "--bench"),
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

fn format_nanos(nanos: f64) -> String {
    if nanos >= 1e9 {
        format!("{:.3} s", nanos / 1e9)
    } else if nanos >= 1e6 {
        format!("{:.3} ms", nanos / 1e6)
    } else if nanos >= 1e3 {
        format!("{:.3} µs", nanos / 1e3)
    } else {
        format!("{nanos:.0} ns")
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n as u64;
        self
    }

    fn run_one(
        &mut self,
        id: &str,
        throughput: Option<Throughput>,
        samples: u64,
        f: &mut dyn FnMut(&mut Bencher<'_>),
    ) {
        if self
            .filter
            .as_ref()
            .is_some_and(|filter| !id.contains(filter))
        {
            return;
        }
        let mut per_iter = Vec::new();
        let mut bencher = Bencher {
            samples,
            bench_mode: self.bench_mode,
            per_iter: &mut per_iter,
        };
        f(&mut bencher);
        if !self.bench_mode {
            return;
        }
        per_iter.sort_by(f64::total_cmp);
        let (Some(&min), Some(&max)) = (per_iter.first(), per_iter.last()) else {
            return;
        };
        let median = per_iter[per_iter.len() / 2];
        let mut line = format!(
            "{id:<48} {:>12}/iter  ({} – {})",
            format_nanos(median),
            format_nanos(min),
            format_nanos(max)
        );
        if let Some(tp) = throughput {
            let per_sec = |units: u64| units as f64 / (median / 1e9);
            match tp {
                Throughput::Bytes(b) if median > 0.0 => {
                    let _ = write!(line, "  {:.1} MiB/s", per_sec(b) / (1024.0 * 1024.0));
                }
                Throughput::Elements(n) if median > 0.0 => {
                    let _ = write!(line, "  {:.0} elem/s", per_sec(n));
                }
                _ => {}
            }
        }
        println!("{line}");
    }

    /// Benchmarks a single routine.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut(&mut Bencher<'_>)) -> &mut Self {
        let samples = self.sample_size;
        self.run_one(id, None, samples, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }
}

/// A named group of benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    /// Group-scoped override; like real criterion it does not leak into
    /// benchmarks registered outside this group.
    sample_size: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to derive rates for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets the per-benchmark sample count for this group only.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = Some(n as u64);
        self
    }

    /// Benchmarks a routine within the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher<'_>),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let tp = self.throughput;
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run_one(&full, tp, samples, &mut f);
        self
    }

    /// Benchmarks a routine parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher<'_>, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.id);
        let tp = self.throughput;
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion
            .run_one(&full, tp, samples, &mut |b| f(b, input));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench-harness `main`, mirroring `criterion::criterion_main!`.
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
    fn test_mode_runs_routine_once() {
        let mut c = Criterion {
            sample_size: 10,
            bench_mode: false,
            filter: None,
        };
        let mut runs = 0;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }

    /// A routine that takes at least [`MIN_SAMPLE`], so every batch is one
    /// iteration.
    fn slow() {
        std::thread::sleep(MIN_SAMPLE);
    }

    #[test]
    fn bench_mode_runs_warmup_plus_samples() {
        let mut c = Criterion {
            sample_size: 4,
            bench_mode: true,
            filter: None,
        };
        let mut runs = 0;
        c.bench_function("timed", |b| {
            b.iter(|| {
                runs += 1;
                slow()
            })
        });
        // The warm-up, a first batch of one that already lasts the
        // minimum, then four samples of one.
        assert_eq!(runs, 6);
    }

    #[test]
    fn a_fast_routine_is_timed_in_batches_of_at_least_the_minimum() {
        let mut per_iter = Vec::new();
        let mut b = Bencher {
            samples: 5,
            bench_mode: true,
            per_iter: &mut per_iter,
        };
        let mut runs = 0u64;
        b.iter(|| runs += 1);
        // The warm-up, batches 1, 2, …, 2^j while sizing, then five samples
        // of 2^j: 7 · 2^j runs in all.
        let batch = runs / 7;
        assert_eq!(runs, 7 * batch);
        assert!(batch.is_power_of_two(), "{runs} runs");
        assert!(batch > 1, "a no-op fits many times in {MIN_SAMPLE:?}");
        assert_eq!(per_iter.len(), 5);
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = Criterion {
            sample_size: 3,
            bench_mode: true,
            filter: None,
        };
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(128));
        let (mut made, mut total) = (0u64, 0u64);
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter_batched(
                || {
                    made += 1;
                    x
                },
                |v| {
                    total += v;
                    slow()
                },
                BatchSize::LargeInput,
            )
        });
        group.finish();
        // One input per run: the warm-up, a first batch of one, three
        // samples of one.
        assert_eq!((made, total), (5, 35));
    }

    #[test]
    fn a_filter_skips_other_benchmarks() {
        let mut c = Criterion {
            sample_size: 2,
            bench_mode: false,
            filter: Some("swap".to_string()),
        };
        let mut runs = Vec::new();
        let mut group = c.benchmark_group("model_swap");
        group.bench_function("load", |b| b.iter(|| runs.push("load")));
        group.finish();
        c.bench_function("parser", |b| b.iter(|| runs.push("parser")));
        assert_eq!(runs, vec!["load"]);
    }

    #[test]
    fn nanos_formatting_scales() {
        assert_eq!(format_nanos(500.0), "500 ns");
        assert_eq!(format_nanos(2_500.0), "2.500 µs");
        assert_eq!(format_nanos(3_500_000.0), "3.500 ms");
        assert_eq!(format_nanos(1.5e9), "1.500 s");
    }
}
