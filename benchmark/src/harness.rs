//! What every workload runs inside: the run's context (seed, run length,
//! sample store, gate, spans), the repeated set-up, and the measured
//! loop that interleaves traced and untraced repetitions.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vyrd_harness::workload::WorkloadConfig;

use crate::gate::Gate;
use crate::stats::{self, Summary};
use crate::trace::{ns_since, GaugeSamples, Sampler, Span};

/// Timed set-ups per run (after one cold, untimed one): `setup_s` is
/// their median, so one odd set-up does not decide it.
pub const SETUPS: usize = 3;

/// A repetition this many times slower than the median repetition is
/// counted in `ledger.slow_reps`.
pub const SLOW_FACTOR: f64 = 3.0;

/// One run's parameters, as given on the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run: metrics on, gauges sampled, layers replayed.
    pub traced: bool,
    /// Smoke run: every size divided by [`SMOKE_DIVISOR`], numbers
    /// printed but not judged.
    pub smoke: bool,
}

/// Sizes shrink by this much under `--smoke`.
pub const SMOKE_DIVISOR: usize = 20;

/// The state one run of one workload accumulates.
pub struct Ctx {
    /// The run's parameters.
    pub cfg: RunConfig,
    /// Scratch directory inside `benchmark/out/`, removed on exit.
    pub tmp: PathBuf,
    /// Per-repetition samples by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer results by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Estimated busy seconds per repetition, by layer (traced runs).
    pub busy: BTreeMap<&'static str, f64>,
    /// The correctness tally.
    pub gate: Gate,
    /// Benchmark-side spans.
    pub spans: Vec<Span>,
    /// The workload's fixed constants, for the environment header.
    pub constants: Vec<(&'static str, String)>,
    /// Numbers a workload reports beside the end-to-end list — `(name,
    /// unit, value)`; printed by every run and kept in the artifact.
    pub also: Vec<(&'static str, &'static str, f64)>,
    /// Gauge samples of the traced repetitions.
    pub gauges: GaugeSamples,
    /// Traced repetitions run (registry counters are reported per one).
    pub traced_reps: usize,
    epoch: Instant,
}

impl Ctx {
    /// A fresh context; creates the scratch directory.
    pub fn new(cfg: RunConfig, tmp: PathBuf) -> std::io::Result<Ctx> {
        std::fs::create_dir_all(&tmp)?;
        Ok(Ctx {
            cfg,
            tmp,
            samples: BTreeMap::new(),
            layers: BTreeMap::new(),
            busy: BTreeMap::new(),
            gate: Gate::default(),
            spans: Vec::new(),
            constants: Vec::new(),
            also: Vec::new(),
            gauges: GaugeSamples::default(),
            traced_reps: 0,
            epoch: Instant::now(),
        })
    }

    /// `n`, or `n / SMOKE_DIVISOR` (at least `floor`) in a smoke run.
    pub fn size(&self, n: usize, floor: usize) -> usize {
        if self.cfg.smoke {
            (n / SMOKE_DIVISOR).max(floor)
        } else {
            n
        }
    }

    /// The §7.1 workload configuration for this run's seed: `threads`
    /// program threads issuing `calls` calls between them.
    pub fn workload(&self, threads: usize, calls: usize, key_pool: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            calls_per_thread: self.size(calls, 200 * threads) / threads,
            key_pool,
            shrink_pool: true,
            internal_task: false,
            seed: self.cfg.seed,
            pace: None,
        }
    }

    /// Records a constant for the environment header.
    pub fn constant(&mut self, name: &'static str, value: impl ToString) {
        self.constants.push((name, value.to_string()));
    }

    /// Appends one per-repetition sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples recorded under `name` (0 when none).
    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    /// Sets a per-layer result. The first value stands: where several
    /// cells of a workload exercise one layer, its number is the first
    /// cell's (the ledger still charges every cell its own cost).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_insert(value);
    }

    /// Adds estimated busy time (seconds per repetition) to a layer of
    /// the ledger.
    pub fn busy(&mut self, layer: &'static str, seconds: f64) {
        *self.busy.entry(layer).or_default() += seconds.max(0.0);
    }

    /// Records a span that started at `start` and lasted `dur`.
    pub fn span(
        &mut self,
        name: &'static str,
        rep: usize,
        what: &str,
        start: Instant,
        dur: Duration,
    ) {
        // Spans are the traced run's instrument; an untraced run keeps
        // its measured loop free of them.
        if self.cfg.traced {
            self.spans.push(Span {
                name,
                rep,
                what: what.to_owned(),
                start_ns: ns_since(self.epoch, start),
                dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Runs `build` once cold and then [`SETUPS`] times timed into
    /// `setup_s` (once, timed, in a smoke run), and returns the last
    /// result — the inputs the measured loop uses. `build` covers
    /// everything before the first timed repetition: recording, encoding
    /// and one warm-up repetition.
    ///
    /// The cold round is not timed because a process's first second or
    /// two are unlike the rest of its life — fresh pages fault in, and two
    /// program threads still share a core (where, uncontended, they run
    /// *faster*): `record_log_heavy` set up in 0.65 s or 1.25 s depending
    /// on how soon the scheduler spread its producers.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Ctx) -> T) -> T {
        let rounds = if self.cfg.smoke { 1 } else { 1 + SETUPS };
        let mut last = None;
        for round in 0..rounds {
            // Drop the previous round's inputs first, so peak memory is
            // one set of inputs, not two.
            drop(last.take());
            let start = Instant::now();
            let built = build(self);
            let dur = start.elapsed();
            if round > 0 || rounds == 1 {
                self.push("setup_s", dur.as_secs_f64());
            }
            self.span("span.setup", round, "", start, dur);
            last = Some(built);
        }
        last.expect("at least one set-up round")
    }

    /// Runs one whole repetition as a warm-up: its samples are discarded
    /// (its gate checks and spans are kept).
    pub fn warm_up(&mut self, rep: impl FnOnce(&mut Ctx)) {
        let kept = std::mem::take(&mut self.samples);
        rep(self);
        self.samples = kept;
    }

    /// The measured loop: repeats `rep` until `seconds` have passed (and
    /// at least `min_reps` times). In a traced run every other
    /// repetition runs with `vyrd_rt::metrics` on and the gauge sampler
    /// live; the rest run untraced, so the same run yields the tracing
    /// overhead. `rep` receives the repetition index and whether it is
    /// traced.
    pub fn measure(&mut self, seconds: f64, mut rep: impl FnMut(&mut Ctx, usize, bool)) {
        let min_reps = if self.cfg.smoke { 2 } else { 3 };
        let sampler = self.cfg.traced.then(|| {
            vyrd_rt::metrics::reset();
            Sampler::spawn()
        });
        let start = Instant::now();
        let mut i = 0;
        while i < min_reps || start.elapsed().as_secs_f64() < seconds {
            let traced = sampler.as_ref().filter(|_| i % 2 == 0);
            if let Some(sampler) = traced {
                vyrd_rt::metrics::set_enabled(true);
                sampler.set_active(true);
                self.traced_reps += 1;
            }
            let t = Instant::now();
            rep(self, i, traced.is_some());
            let wall = t.elapsed().as_secs_f64();
            if let Some(sampler) = traced {
                sampler.set_active(false);
                vyrd_rt::metrics::set_enabled(false);
            }
            let series = if traced.is_some() {
                "rep.traced_s"
            } else {
                "rep.plain_s"
            };
            self.push(series, wall);
            self.push("rep.wall_s", wall);
            i += 1;
        }
        if let Some(sampler) = sampler {
            self.gauges = sampler.finish();
        }
    }

    /// Summary of a per-repetition sample series.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        Summary::of(self.get(name))
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        // Temporary segment directories and trace files go with the run,
        // however it ends.
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start, start.elapsed())
}
