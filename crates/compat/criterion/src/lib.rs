//! Offline stand-in for [criterion](https://docs.rs/criterion) exposing the
//! macro and builder surface the `cxk_bench` benches use. Behavior follows
//! criterion's two modes:
//!
//! * **bench mode** (`cargo bench` passes `--bench`): each routine is warmed
//!   up once, then timed over `sample_size` samples; mean wall-clock time per
//!   iteration (and throughput when configured) is printed to stdout.
//! * **test mode** (`cargo test` runs bench targets without `--bench`): each
//!   routine runs exactly once as a smoke test, so benches stay cheap inside
//!   the test suite while still exercising their full code paths.
//!
//! Statistical analysis, HTML reports and plotting are intentionally absent.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

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
    /// Mean nanoseconds per iteration, reported back to the [`Criterion`].
    mean_nanos: &'a mut f64,
}

impl Bencher<'_> {
    /// Times `routine` called repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if !self.bench_mode {
            black_box(routine());
            return;
        }
        black_box(routine()); // warm-up
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(routine());
        }
        *self.mean_nanos = start.elapsed().as_nanos() as f64 / self.samples as f64;
    }

    /// Times `routine` over inputs produced by `setup`. As in criterion,
    /// neither running `setup` nor dropping the routine's output is timed.
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
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            drop(output);
        }
        *self.mean_nanos = total.as_nanos() as f64 / self.samples as f64;
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
        let mut mean_nanos = 0.0;
        let mut bencher = Bencher {
            samples,
            bench_mode: self.bench_mode,
            mean_nanos: &mut mean_nanos,
        };
        f(&mut bencher);
        if !self.bench_mode {
            return;
        }
        let mut line = format!("{id:<48} {:>12}/iter", format_nanos(mean_nanos));
        if let Some(tp) = throughput {
            let per_sec = |units: u64| units as f64 / (mean_nanos / 1e9);
            match tp {
                Throughput::Bytes(b) if mean_nanos > 0.0 => {
                    let _ = write!(line, "  {:.1} MiB/s", per_sec(b) / (1024.0 * 1024.0));
                }
                Throughput::Elements(n) if mean_nanos > 0.0 => {
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

    #[test]
    fn bench_mode_runs_warmup_plus_samples() {
        let mut c = Criterion {
            sample_size: 4,
            bench_mode: true,
            filter: None,
        };
        let mut runs = 0;
        c.bench_function("timed", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 5);
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
        let mut total = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter_batched(|| x, |v| total += v, BatchSize::LargeInput)
        });
        group.finish();
        assert_eq!(total, 21);
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
