//! A minimal benchmark runner: warmup, N timed samples, summary
//! statistics printed to stderr.
//!
//! Runs the two `crates/bench` gate/ablation binaries offline as plain
//! `harness = false` programs. The runner is deliberately small: it
//! calibrates an iteration count during warmup, times `sample_size`
//! batches, and reports per-iteration nanoseconds as mean / median / p95 /
//! stddev. It records nothing: every tracked number in this repository
//! comes from the `benchmark/` package.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall time per timed sample. Fast closures are batched until a
/// sample takes roughly this long.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(2);

/// Warmup budget before calibration stops.
const WARMUP_TIME: Duration = Duration::from_millis(50);

/// Summary statistics for one benchmark id, in nanoseconds per iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Fastest sample's time per iteration — the least-interfered-with
    /// measurement, the robust numerator/denominator for ratio gates.
    pub min_ns: f64,
    /// Median time per iteration.
    pub median_ns: f64,
    /// 95th-percentile time per iteration.
    pub p95_ns: f64,
    /// Sample standard deviation across samples.
    pub stddev_ns: f64,
    /// Iterations batched into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: usize,
}

impl Stats {
    /// Computes summary statistics from per-iteration sample times.
    fn from_samples(per_iter_ns: &mut [f64], iters: u64) -> Stats {
        assert!(!per_iter_ns.is_empty());
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = per_iter_ns.len();
        let mean = per_iter_ns.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
        };
        let p95 = per_iter_ns[((n as f64 * 0.95).ceil() as usize).min(n) - 1];
        let var = if n > 1 {
            per_iter_ns.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Stats {
            mean_ns: mean,
            min_ns: per_iter_ns[0],
            median_ns: median,
            p95_ns: p95,
            stddev_ns: var.sqrt(),
            iters_per_sample: iters,
            samples: n,
        }
    }
}

/// A named group of benchmarks; mirrors criterion's `benchmark_group`.
///
/// ```
/// let mut group = vyrd_rt::bench::BenchGroup::new("example");
/// group.sample_size(5);
/// let mut acc = 0u64;
/// let stats = group.bench("wrapping_add", || acc = acc.wrapping_add(3));
/// assert_eq!(stats.samples, 5);
/// ```
#[derive(Debug)]
pub struct BenchGroup {
    sample_size: usize,
    fixed_iters: Option<u64>,
}

impl BenchGroup {
    /// Starts a group; each benchmark in it prints one result line.
    pub fn new(name: &str) -> BenchGroup {
        eprintln!("bench group: {name}");
        BenchGroup {
            sample_size: 20,
            fixed_iters: None,
        }
    }

    /// Sets how many timed samples each benchmark takes (minimum 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Pins the per-sample iteration count for subsequent benchmarks,
    /// bypassing warmup calibration (minimum 1).
    ///
    /// Calibration targets [`TARGET_SAMPLE_TIME`]; a closure that runs
    /// for milliseconds can only calibrate to 1, so pinning it trades the
    /// warmup loop for one warm-up call.
    pub fn fixed_iters(&mut self, n: u64) -> &mut Self {
        self.fixed_iters = Some(n.max(1));
        self
    }

    /// Times `f` and prints the result under `id`.
    pub fn bench(&mut self, id: &str, mut f: impl FnMut()) -> Stats {
        let iters = self.warm_up(&mut f);
        let mut per_iter_ns: Vec<f64> = (0..self.sample_size)
            .map(|_| time_sample(iters, &mut f))
            .collect();
        let stats = Stats::from_samples(&mut per_iter_ns, iters);
        print_line(id, &stats);
        stats
    }

    /// Warms `f` up (code paths, allocator, caches) and returns the
    /// per-sample iteration count: the pinned one, else a calibrated one.
    fn warm_up(&self, f: &mut impl FnMut()) -> u64 {
        match self.fixed_iters {
            Some(n) => {
                f();
                n
            }
            None => calibrate(f),
        }
    }

    /// Times two closures in strict alternation (A, B, A, B, …), one
    /// sample of each per round, and prints both. Slow drift —
    /// thermal throttling, background load — lands on both sides of
    /// every round, so a ratio gate built on the two sides stays
    /// meaningful where two back-to-back [`bench`](Self::bench) runs
    /// would compare different machine states. Iterations are
    /// calibrated once (from `a`) and shared so batching is identical.
    pub fn bench_paired(
        &mut self,
        id_a: &str,
        id_b: &str,
        mut a: impl FnMut(),
        mut b: impl FnMut(),
    ) -> (Stats, Stats) {
        let iters = self.warm_up(&mut a);
        b();
        let mut ns_a = Vec::with_capacity(self.sample_size);
        let mut ns_b = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            ns_a.push(time_sample(iters, &mut a));
            ns_b.push(time_sample(iters, &mut b));
        }
        let stats_a = Stats::from_samples(&mut ns_a, iters);
        let stats_b = Stats::from_samples(&mut ns_b, iters);
        print_line(id_a, &stats_a);
        print_line(id_b, &stats_b);
        (stats_a, stats_b)
    }
}

/// Runs `f` for the warmup budget and picks an iteration count that makes
/// one timed sample last roughly [`TARGET_SAMPLE_TIME`].
fn calibrate(f: &mut impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed() < WARMUP_TIME && iters < 1_000_000 {
        f();
        iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / iters.max(1) as f64;
    ((TARGET_SAMPLE_TIME.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000)
}

/// One timed sample: `iters` calls of `f`, in nanoseconds per call.
fn time_sample(iters: u64, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn print_line(id: &str, stats: &Stats) {
    eprintln!(
        "  {:<40} mean {:>12}  median {:>12}  p95 {:>12}  (±{}, {} samples × {} iters)",
        id,
        fmt_ns(stats.mean_ns),
        fmt_ns(stats.median_ns),
        fmt_ns(stats.p95_ns),
        fmt_ns(stats.stddev_ns),
        stats.samples,
        stats.iters_per_sample,
    );
}

/// Formats nanoseconds with an adaptive unit, e.g. `1.25 µs`.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_known_samples() {
        let mut samples = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        let s = Stats::from_samples(&mut samples, 7);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.p95_ns, 100.0);
        assert_eq!(s.mean_ns, 22.0);
        assert_eq!(s.iters_per_sample, 7);
        assert_eq!(s.samples, 5);
        assert!(s.stddev_ns > 0.0);
    }

    #[test]
    fn stats_single_sample_has_zero_stddev() {
        let s = Stats::from_samples(&mut [5.0], 1);
        assert_eq!(s.mean_ns, 5.0);
        assert_eq!(s.median_ns, 5.0);
        assert_eq!(s.p95_ns, 5.0);
        assert_eq!(s.stddev_ns, 0.0);
    }

    #[test]
    fn fixed_iters_pins_the_iteration_count() {
        let mut group = BenchGroup::new("pinned");
        group.sample_size(2).fixed_iters(17);
        let s = group.bench("noop", || {
            black_box(1u32);
        });
        assert_eq!(s.iters_per_sample, 17);
        let s = BenchGroup::new("calibrated").sample_size(2).bench("noop", || {
            black_box(1u32);
        });
        // A no-op calibrates to far more than one iteration per sample.
        assert!(s.iters_per_sample > 17);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert!(fmt_ns(2_500.0).contains("µs"));
        assert!(fmt_ns(3_000_000.0).contains("ms"));
    }
}
