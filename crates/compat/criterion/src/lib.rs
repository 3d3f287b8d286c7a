//! A vendored, dependency-free stand-in for the `criterion` benchmark
//! harness.
//!
//! The build environment for this workspace has no access to a crate
//! registry, so this crate reimplements the slice of criterion's API that the
//! `bqc-bench` suite uses: [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher::iter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.  Signatures match `criterion 0.5`, so swapping
//! the `criterion` entry in `[workspace.dependencies]` for a registry version
//! is a drop-in change — except for the one extension,
//! [`BenchmarkGroup::bench_interleaved`], which the bench-gate ratio floors
//! use and a registry swap would have to re-home.
//!
//! Unlike the real criterion it does no statistical analysis: each benchmark
//! is warmed up, then timed for `sample_size` samples whose iteration count
//! is chosen to fill the configured measurement time, and the mean, minimum
//! and maximum per-iteration times are printed.  That is enough to compare
//! hot paths across commits by eye; it is not a substitute for criterion's
//! regression testing.
//!
//! ## CI hooks
//!
//! Two environment variables wire the harness into the repository's
//! bench-regression gate (see `.github/workflows/ci.yml` and
//! `scripts/bench_compare.sh`):
//!
//! * `BQC_BENCH_QUICK=1` caps the warm-up at 100 ms, the measurement budget
//!   at 400 ms and the sample count at 5, so a full suite finishes in CI
//!   seconds instead of minutes;
//! * `BQC_BENCH_JSON=<path>` appends one JSON-lines record
//!   `{"id": "<label>", "median_ns": <f64>}` per benchmark to `<path>`,
//!   which `bench_compare collect` turns into a committed baseline document.

use std::fmt::Display;
use std::io::Write;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver, created by [`criterion_group!`].
#[derive(Debug, Clone)]
pub struct Criterion {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up_time: Duration::from_millis(500),
            measurement_time: Duration::from_secs(2),
            sample_size: 10,
        }
    }
}

impl Criterion {
    /// Sets the per-benchmark warm-up duration.
    pub fn warm_up_time(mut self, duration: Duration) -> Self {
        self.warm_up_time = duration;
        self
    }

    /// Sets the per-benchmark measurement budget.
    pub fn measurement_time(mut self, duration: Duration) -> Self {
        self.measurement_time = duration;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            measurement_time: None,
        }
    }

    /// Runs a single free-standing benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let config = self.clone();
        run_benchmark(id, &config, &mut routine);
        self
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timing samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Overrides the measurement budget for this group.
    pub fn measurement_time(&mut self, duration: Duration) -> &mut Self {
        self.measurement_time = Some(duration);
        self
    }

    fn config(&self) -> Criterion {
        let mut config = self.criterion.clone();
        if let Some(n) = self.sample_size {
            config.sample_size = n;
        }
        if let Some(duration) = self.measurement_time {
            config.measurement_time = duration;
        }
        config
    }

    /// Benchmarks `routine`, labelled `id`, within this group.
    pub fn bench_function<F>(&mut self, id: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_benchmark(&label, &self.config(), &mut routine);
        self
    }

    /// Benchmarks `routine` with an explicit input value, criterion-style.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_benchmark(&label, &self.config(), &mut |b: &mut Bencher| {
            routine(b, input)
        });
        self
    }

    /// Benchmarks two routines on one input with their iterations
    /// interleaved A, B, A, B, …, and records each under its own id.  Both
    /// sides of a ratio then see the same machine phases, where two
    /// back-to-back benchmarks each see their own.  Not in criterion 0.5.
    pub fn bench_interleaved<I, F, G>(
        &mut self,
        ids: [BenchmarkId; 2],
        input: &I,
        mut a: F,
        mut b: G,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
        G: FnMut(&mut Bencher, &I),
    {
        let labels = ids.map(|id| format!("{}/{}", self.name, id.label));
        run_interleaved(
            &labels,
            &self.config(),
            &mut |bencher: &mut Bencher| a(bencher, input),
            &mut |bencher: &mut Bencher| b(bencher, input),
        );
        self
    }

    /// Ends the group. (No-op in this stand-in; kept for API compatibility.)
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A two-part id: `function_name/parameter`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// An id that is just the parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine` back to back.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn time_once<F: FnMut(&mut Bencher)>(routine: &mut F) -> Duration {
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    routine(&mut bencher);
    bencher.elapsed
}

/// `true` when `BQC_BENCH_QUICK` asks for the abbreviated CI-gate run.
fn quick_mode() -> bool {
    std::env::var("BQC_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// `config` with the `BQC_BENCH_QUICK` caps applied.
fn effective(config: &Criterion) -> Criterion {
    let mut config = config.clone();
    if quick_mode() {
        config.warm_up_time = config.warm_up_time.min(Duration::from_millis(100));
        config.measurement_time = config.measurement_time.min(Duration::from_millis(400));
        config.sample_size = config.sample_size.clamp(2, 5);
    }
    config
}

/// Iterations per sample so that all samples together roughly fill the
/// measurement budget.
fn iters_per_sample(config: &Criterion, per_iter: Duration) -> u64 {
    let budget_ns = config.measurement_time.as_nanos();
    ((budget_ns / config.sample_size as u128) / per_iter.as_nanos().max(1))
        .clamp(1, u64::MAX as u128) as u64
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, config: &Criterion, routine: &mut F) {
    let config = effective(config);
    // Warm-up: run until the warm-up budget is exhausted, tracking the
    // per-iteration cost so the measurement phase can size its samples.
    let warm_up_start = Instant::now();
    let mut per_iter = time_once(routine);
    while warm_up_start.elapsed() < config.warm_up_time {
        per_iter = (per_iter + time_once(routine)) / 2;
    }
    let iters_per_sample = iters_per_sample(&config, per_iter);

    let mut samples = Vec::with_capacity(config.sample_size);
    for _ in 0..config.sample_size {
        let mut bencher = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        routine(&mut bencher);
        samples.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    report(label, samples, iters_per_sample);
}

/// [`run_benchmark`] for two routines whose single iterations alternate
/// through warm-up and every sample.  The pair spends the measurement
/// budget of two separate benchmarks.
fn run_interleaved<F, G>(labels: &[String; 2], config: &Criterion, a: &mut F, b: &mut G)
where
    F: FnMut(&mut Bencher),
    G: FnMut(&mut Bencher),
{
    let config = effective(config);
    let warm_up_start = Instant::now();
    let mut per_pair = time_once(a) + time_once(b);
    while warm_up_start.elapsed() < config.warm_up_time {
        per_pair = (per_pair + time_once(a) + time_once(b)) / 2;
    }
    let iters_per_sample = iters_per_sample(&config, per_pair / 2);

    let mut samples = [
        Vec::with_capacity(config.sample_size),
        Vec::with_capacity(config.sample_size),
    ];
    for _ in 0..config.sample_size {
        let mut elapsed = [Duration::ZERO; 2];
        for _ in 0..iters_per_sample {
            elapsed[0] += time_once(a);
            elapsed[1] += time_once(b);
        }
        for (side, total) in samples.iter_mut().zip(elapsed) {
            side.push(total.as_nanos() as f64 / iters_per_sample as f64);
        }
    }
    for (label, side) in labels.iter().zip(samples) {
        report(label, side, iters_per_sample);
    }
}

/// Prints the per-iteration sample summary and appends the median record.
fn report(label: &str, mut samples: Vec<f64>, iters_per_sample: u64) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let median = samples[samples.len() / 2];
    println!(
        "{label:<50} time: [{} {} {}]  ({} samples × {} iters)",
        format_ns(samples[0]),
        format_ns(mean),
        format_ns(*samples.last().unwrap()),
        samples.len(),
        iters_per_sample,
    );
    if let Ok(path) = std::env::var("BQC_BENCH_JSON") {
        if !path.is_empty() {
            if let Err(error) = append_json_record(&path, label, median) {
                eprintln!("warning: could not append to {path}: {error}");
            }
        }
    }
}

/// Appends one `{"id": ..., "median_ns": ...}` JSON-lines record to `path`.
fn append_json_record(path: &str, label: &str, median_ns: f64) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let escaped: String = label
        .chars()
        .flat_map(|ch| match ch {
            '"' | '\\' => vec!['\\', ch],
            _ => vec![ch],
        })
        .collect();
    writeln!(
        file,
        "{{\"id\": \"{escaped}\", \"median_ns\": {median_ns:.1}}}"
    )
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a benchmark group function, criterion-style.
///
/// Both the `name = …; config = …; targets = …` form and the positional
/// `criterion_group!(name, target, …)` form are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
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

/// Declares the benchmark binary's `main`, running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("solve", 5).label, "solve/5");
        assert_eq!(BenchmarkId::from_parameter("n=3").label, "n=3");
    }

    #[test]
    fn json_records_are_appended() {
        let path =
            std::env::temp_dir().join(format!("bqc_bench_json_{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        append_json_record(&path_str, "group/bench \"x\"/3", 1234.5).unwrap();
        append_json_record(&path_str, "group/other", 7.0).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("{\"id\": \"group/bench \\\"x\\\"/3\", \"median_ns\": 1234.5}"));
        assert_eq!(contents.lines().count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interleaved_benchmarks_alternate_iterations() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("smoke");
        group.sample_size(2);
        let order = std::cell::RefCell::new(Vec::new());
        group.bench_interleaved(
            [BenchmarkId::new("a", 1), BenchmarkId::new("b", 1)],
            &(),
            |b, _| b.iter(|| order.borrow_mut().push('a')),
            |b, _| b.iter(|| order.borrow_mut().push('b')),
        );
        let order = order.into_inner();
        assert!(order.len() >= 4);
        assert!(order.chunks(2).all(|pair| pair == ['a', 'b']));
    }

    #[test]
    fn runs_a_tiny_benchmark() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("smoke");
        group.sample_size(2);
        let mut calls = 0u64;
        group.bench_function("noop", |b| b.iter(|| calls += 1));
        group.finish();
        assert!(calls > 0);
    }
}
