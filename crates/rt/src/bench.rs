//! A minimal benchmark runner: warmup, N timed samples, summary
//! statistics, and machine-readable `BENCH_<group>.json` emission.
//!
//! Replaces criterion for the `crates/bench` microbenchmarks so they can
//! run offline as plain `harness = false` binaries. The runner is
//! deliberately small: it calibrates an iteration count during warmup,
//! times `sample_size` batches, and reports per-iteration nanoseconds as
//! mean / median / p95 / stddev. No outlier rejection, no plots — the
//! JSON files are the trajectory record.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
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

/// One recorded benchmark result within a group.
#[derive(Clone, Debug)]
struct Record {
    id: String,
    stats: Stats,
    throughput_bytes: Option<u64>,
}

/// A named group of benchmarks; mirrors criterion's `benchmark_group`.
///
/// ```
/// let mut group = vyrd_rt::bench::BenchGroup::new("example");
/// group.sample_size(5).out_dir(std::env::temp_dir());
/// let mut acc = 0u64;
/// group.bench("wrapping_add", || acc = acc.wrapping_add(3));
/// let report = group.report();
/// assert!(report.contains("\"bench\": \"example\""));
/// ```
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    sample_size: usize,
    fixed_iters: Option<u64>,
    out_dir: Option<PathBuf>,
    records: Vec<Record>,
    finished: bool,
}

impl BenchGroup {
    /// Starts a group. Results are written by [`finish`](Self::finish) to
    /// `BENCH_<name>.json` in `$VYRD_BENCH_DIR` (or the current
    /// directory).
    pub fn new(name: &str) -> BenchGroup {
        eprintln!("bench group: {name}");
        BenchGroup {
            name: name.to_string(),
            sample_size: 20,
            fixed_iters: None,
            out_dir: None,
            records: Vec::new(),
            finished: false,
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
    /// Calibration targets [`TARGET_SAMPLE_TIME`]; a workload slower than
    /// that gets `iters = 1`, and its run-to-run variance then lands
    /// directly in the summary statistics. Pinning the count (together
    /// with a larger [`sample_size`](Self::sample_size)) makes such rows
    /// reproducible across runs — see the Cache scenario in
    /// `logging_overhead`, whose per-run time is dominated by scheduling
    /// noise at `iters = 1`.
    pub fn fixed_iters(&mut self, n: u64) -> &mut Self {
        self.fixed_iters = Some(n.max(1));
        self
    }

    /// Returns subsequent benchmarks to warmup calibration (the default).
    pub fn auto_iters(&mut self) -> &mut Self {
        self.fixed_iters = None;
        self
    }

    /// Overrides the output directory (otherwise `$VYRD_BENCH_DIR` or
    /// the current directory).
    pub fn out_dir(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.out_dir = Some(dir.into());
        self
    }

    /// Times `f` and records the result under `id`.
    pub fn bench(&mut self, id: &str, f: impl FnMut()) -> Stats {
        self.record(id, None, f)
    }

    /// Like [`bench`](Self::bench), but tags the result with a
    /// per-iteration byte count so the report can show MiB/s.
    pub fn bench_bytes(&mut self, id: &str, bytes: u64, f: impl FnMut()) -> Stats {
        self.record(id, Some(bytes), f)
    }

    /// Times two closures in strict alternation (A, B, A, B, …), one
    /// sample of each per round, and records both. Slow drift —
    /// thermal throttling, background load — lands on both sides of
    /// every round, so a ratio gate built on the two medians stays
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
        let iters = match self.fixed_iters {
            Some(n) => {
                a();
                b();
                n
            }
            None => {
                let n = calibrate(&mut a);
                b();
                n
            }
        };
        let mut ns_a = Vec::with_capacity(self.sample_size);
        let mut ns_b = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            for (f, ns) in [(&mut a as &mut dyn FnMut(), &mut ns_a), (&mut b, &mut ns_b)] {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
            }
        }
        let stats_a = Stats::from_samples(&mut ns_a, iters);
        let stats_b = Stats::from_samples(&mut ns_b, iters);
        self.push(id_a, None, stats_a.clone());
        self.push(id_b, None, stats_b.clone());
        (stats_a, stats_b)
    }

    fn record(&mut self, id: &str, bytes: Option<u64>, mut f: impl FnMut()) -> Stats {
        let iters = match self.fixed_iters {
            Some(n) => {
                // Still warm up (code paths, allocator, caches) — just
                // don't let the elapsed time pick the count.
                f();
                n
            }
            None => calibrate(&mut f),
        };
        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let stats = Stats::from_samples(&mut per_iter_ns, iters);
        self.push(id, bytes, stats.clone());
        stats
    }

    /// Prints one result line and appends it to the JSON record set.
    fn push(&mut self, id: &str, bytes: Option<u64>, stats: Stats) {
        let mut line = format!(
            "  {:<40} mean {:>12}  median {:>12}  p95 {:>12}  (±{}, {} samples × {} iters)",
            id,
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            fmt_ns(stats.stddev_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        if let Some(b) = bytes {
            let mib_s = b as f64 / stats.mean_ns * 1e9 / (1024.0 * 1024.0);
            let _ = write!(line, "  {mib_s:.1} MiB/s");
        }
        eprintln!("{line}");
        self.records.push(Record {
            id: id.to_string(),
            stats,
            throughput_bytes: bytes,
        });
    }

    /// Renders the group's results as the `BENCH_<name>.json` document.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": {},", json_str(&self.name));
        out.push_str("  \"unit\": \"ns\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"mean\": {:.1}, \"min\": {:.1}, \"median\": {:.1}, \"p95\": {:.1}, \
                 \"stddev\": {:.1}, \"iters\": {}, \"samples\": {}, \"throughput_bytes\": {}}}{}",
                json_str(&r.id),
                r.stats.mean_ns,
                r.stats.min_ns,
                r.stats.median_ns,
                r.stats.p95_ns,
                r.stats.stddev_ns,
                r.stats.iters_per_sample,
                r.stats.samples,
                match r.throughput_bytes {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                },
                sep,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` and returns its path.
    pub fn finish(&mut self) -> io::Result<PathBuf> {
        self.finished = true;
        let dir = self
            .out_dir
            .clone()
            .or_else(|| std::env::var_os("VYRD_BENCH_DIR").map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("."));
        let path = dir.join(format!("BENCH_{}.json", self.name));
        fs::write(&path, self.report())?;
        eprintln!("  wrote {}", path.display());
        Ok(path)
    }
}

impl Drop for BenchGroup {
    fn drop(&mut self) {
        if !self.finished && !self.records.is_empty() && !std::thread::panicking() {
            let _ = self.finish();
        }
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

/// JSON string literal: quotes, backslashes and control characters
/// escaped. The workspace's one JSON string emitter — the metrics
/// snapshot and the witness artifact use it too.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn bench_records_and_reports_json_shape() {
        let mut group = BenchGroup::new("rt_selftest");
        group.sample_size(3);
        let mut acc = 0u64;
        group.bench("spin", || {
            acc = black_box(acc.wrapping_add(1));
        });
        group.bench_bytes("copy", 64, || {
            let buf = [0u8; 64];
            black_box(buf);
        });
        let report = group.report();
        assert!(report.contains("\"bench\": \"rt_selftest\""));
        assert!(report.contains("\"unit\": \"ns\""));
        assert!(report.contains("\"id\": \"spin\""));
        assert!(report.contains("\"throughput_bytes\": 64"));
        assert!(report.contains("\"throughput_bytes\": null"));
        assert!(report.contains("\"samples\": 3"));
        // Two result objects, comma-separated.
        assert_eq!(report.matches("\"id\":").count(), 2);
        group.finished = true; // don't write a file from the unit test
    }

    #[test]
    fn fixed_iters_pins_the_iteration_count() {
        let mut group = BenchGroup::new("pinned");
        group.sample_size(2).fixed_iters(17);
        let s = group.bench("noop", || {
            black_box(1u32);
        });
        assert_eq!(s.iters_per_sample, 17);
        group.auto_iters();
        let s = group.bench("noop_auto", || {
            black_box(1u32);
        });
        // A no-op calibrates to far more than one iteration per sample.
        assert!(s.iters_per_sample > 17);
        group.finished = true; // don't write a file from the unit test
    }

    #[test]
    fn finish_writes_file_to_out_dir() {
        let dir = std::env::temp_dir().join(format!("vyrd-rt-bench-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut group = BenchGroup::new("file_shape");
        group.sample_size(2).out_dir(&dir);
        group.bench("noop", || {
            black_box(1u32);
        });
        let path = group.finish().unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_file_shape.json");
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
        assert!(body.contains("\"id\": \"noop\""));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny\r"), "\"x\\ny\\r\"");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert!(fmt_ns(2_500.0).contains("µs"));
        assert!(fmt_ns(3_000_000.0).contains("ms"));
    }
}
