//! Benchmark scenarios: one per row of the paper's Tables 1–3.
//!
//! A [`Scenario`] couples an instrumented data structure with the §7.1
//! workload driver, its specification, and its replayer. The harness can
//! then run it with any logging mode / sink, check the resulting log
//! offline (I/O or view), or verify it online on a separate thread.

use std::fmt;
use std::io;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vyrd_core::checker::{CheckerOptions, SteppingFactory};
use vyrd_core::log::{EventLog, LogMode, LogStats};
use vyrd_core::online::OnlineVerifier;
use vyrd_core::pool::{PoolReport, SupervisorConfig, VerifierPool};
use vyrd_core::segment::{
    ContinuousOptions, ContinuousVerifier, SegmentConfig, SegmentWriterSummary,
};
use vyrd_core::shard::ShardConfig;
use vyrd_core::violation::{Report, Violation};
use vyrd_core::witness::{
    BasicExplainer, Counterexample, DdminMinimizer, Explainer, Minimizer, WitnessError,
    WitnessPipeline,
};
use vyrd_core::{Event, ObjectId};

use crate::measure::timed;
use crate::workload::WorkloadConfig;

/// Which bug variant of a scenario to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The correct implementation.
    Correct,
    /// The implementation with the scenario's known bug enabled.
    Buggy,
}

impl fmt::Display for Variant {
    /// The command-line spelling, which [`FromStr`] parses back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Variant::Correct => "correct",
            Variant::Buggy => "buggy",
        })
    }
}

impl FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Variant, String> {
        match s {
            "correct" => Ok(Variant::Correct),
            "buggy" => Ok(Variant::Buggy),
            other => Err(format!("unknown variant {other:?} (correct|buggy)")),
        }
    }
}

/// Which refinement check to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// I/O refinement (§4).
    Io,
    /// View refinement (§5).
    View,
    /// Linearizability checking: commit-order mutator replay as in
    /// [`CheckKind::Io`], with every observer window *searched* for a
    /// commit-order-consistent sequential witness
    /// (`vyrd_core::checker::Checker::lin`).
    Lin,
}

impl CheckKind {
    /// The logging mode this check requires. Lin checking consumes the
    /// same call/commit/return stream as I/O refinement — no
    /// shared-variable writes.
    pub fn log_mode(self) -> LogMode {
        match self {
            CheckKind::Io | CheckKind::Lin => LogMode::Io,
            CheckKind::View => LogMode::View,
        }
    }
}

impl fmt::Display for CheckKind {
    /// The command-line spelling, which [`FromStr`] parses back; also the
    /// `mode` a witness artifact records.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckKind::Io => "io",
            CheckKind::View => "view",
            CheckKind::Lin => "lin",
        })
    }
}

impl FromStr for CheckKind {
    type Err = String;

    fn from_str(s: &str) -> Result<CheckKind, String> {
        match s {
            "io" => Ok(CheckKind::Io),
            "view" => Ok(CheckKind::View),
            "lin" => Ok(CheckKind::Lin),
            other => Err(format!("unknown kind {other:?} (io|view|lin)")),
        }
    }
}

/// The fail-fast report for a scenario asked to check in a mode it does
/// not support: a [`Verdict::Fail`](vyrd_core::violation::Verdict) with
/// an `unsupported-mode` violation, never a vacuous PASS — nothing was
/// verified, and the report must say so.
pub fn unsupported_report(name: &str, kind: CheckKind) -> Report {
    Report {
        violation: Some(Violation::UnsupportedMode {
            detail: format!(
                "scenario {name} does not support {kind:?} checking — \
                 pick a mode it reports via Scenario::supports"
            ),
            log_position: 0,
        }),
        ..Report::default()
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Wall-clock duration of the run (workload threads only).
    pub wall: Duration,
    /// Logging counters.
    pub log_stats: LogStats,
    /// The recorded events (empty unless an in-memory log was used).
    pub events: Vec<Event>,
}

/// One benchmark system with its workload, specification, and replayer.
///
/// A scenario names its checkers once, in [`Scenario::checkers`]; every
/// way of checking — offline, streaming, sharded, continuous — and the
/// capability answers ([`Scenario::supports`], which factories exist) are
/// derived from that one method.
pub trait Scenario: Send + Sync {
    /// Row label, as in the paper's tables (e.g. `"Multiset-Vector"`).
    fn name(&self) -> &'static str;

    /// The injected/known bug, as described in Table 1.
    fn bug(&self) -> &'static str;

    /// Runs the workload against a fresh instance that records into
    /// `log`.
    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant);

    /// Runs the workload over `objects` independent instances of the data
    /// structure, each logging under its own [`ObjectId`] (via
    /// [`EventLog::with_object`]). Returns `false` when the scenario has
    /// no multi-object mode (the default).
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let _ = (cfg, log, variant, objects);
        false
    }

    /// The scenario's checkers: a factory building one `kind` checker
    /// (this scenario's specification, replayer and invariants, under
    /// `options`) per object, or `None` when the scenario does not
    /// support `kind`.
    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory>;

    /// Does this scenario support checking mode `kind`? Checking in an
    /// unsupported mode returns [`unsupported_report`] — a failed verdict
    /// naming the configuration error — rather than a vacuous PASS.
    fn supports(&self, kind: CheckKind) -> bool {
        self.shard_factory(kind).is_some()
    }

    /// Checks a recorded log offline (stops at the first violation).
    fn check(&self, kind: CheckKind, events: Vec<Event>) -> Report {
        match self.shard_factory(kind) {
            Some(factory) => factory(ObjectId::DEFAULT).check_events(events),
            None => unsupported_report(self.name(), kind),
        }
    }

    /// Checks a recorded log offline, consuming the whole trace even
    /// after a violation — the cost basis for Table 1's CPU-ratio column.
    fn check_full(&self, kind: CheckKind, events: Vec<Event>) -> Report {
        let options = CheckerOptions {
            stop_at_first_violation: false,
            ..CheckerOptions::default()
        };
        match self.checkers(kind, options) {
            Some(factory) => factory(ObjectId::DEFAULT).check_events(events),
            None => unsupported_report(self.name(), kind),
        }
    }

    /// The per-object checker factory for sharded verification — what a
    /// scenario hands to a [`VerifierPool`] — or `None` when the scenario
    /// does not support `kind`.
    fn shard_factory(&self, kind: CheckKind) -> Option<SteppingFactory> {
        self.checkers(kind, CheckerOptions::default())
    }

    /// The per-object *checkpointable* checker factory for the continuous
    /// verification service: [`Scenario::shard_factory`] when a fresh
    /// checker can serialize its state, `None` otherwise. I/O and Lin
    /// checkers need only the spec to be checkpointable; view checkers
    /// additionally need the replayer.
    fn stepping_factory(&self, kind: CheckKind) -> Option<SteppingFactory> {
        self.shard_factory(kind)
            .filter(|factory| factory(ObjectId::DEFAULT).save_state().is_ok())
    }

    /// The counterexample minimizer for this scenario family. The
    /// default is plain ddmin over commit-atomic chunks; families whose
    /// violations are about a single key or element (multiset, the
    /// lock-free structures) override with the argument-focused
    /// variant, which prunes unrelated executions in one oracle run
    /// before ddmin proper.
    fn minimizer(&self, kind: CheckKind) -> Box<dyn Minimizer> {
        let _ = kind;
        Box::new(DdminMinimizer::default())
    }

    /// The witness explainer for this scenario family in mode `kind`.
    /// The default renders the basic one-page text; view-refinement
    /// families add the first divergent spec state, the lock-free
    /// family adds observer-window commentary.
    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        let _ = kind;
        Box::new(BasicExplainer)
    }
}

/// Builds a [`Counterexample`] for a failing check of `scenario` in
/// mode `kind`: wires the scenario's offline checker in as the ddmin
/// oracle and its family-specific minimizer/explainer into a
/// [`WitnessPipeline`].
///
/// `report` may be a merged/sharded report — the pipeline re-grounds
/// the violation against `events` (the merged log) with one oracle run
/// before minimizing, so per-object positions never leak into the
/// witness.
///
/// # Errors
///
/// Propagates [`WitnessError`]: passing reports, degradation-flagged
/// (unreliable) violations, and category drift on the re-check.
pub fn build_witness(
    scenario: &dyn Scenario,
    kind: CheckKind,
    events: &[Event],
    report: &Report,
) -> Result<Counterexample, WitnessError> {
    let oracle = |evs: &[Event]| scenario.check(kind, evs.to_vec());
    let pipeline = WitnessPipeline {
        minimizer: scenario.minimizer(kind),
        explainer: scenario.explainer(kind),
    };
    pipeline.run(scenario.name(), &kind.to_string(), events, report, &oracle)
}

/// Builds a witness for a seeded bug whose streaming run retained no
/// events (the soak pipeline and the segmented continuous service both
/// consume-and-discard): re-runs the workload closed-loop with an
/// in-memory log, walking seeds until a trace fails the `kind` check,
/// then feeds that trace through [`build_witness`].
///
/// The witness certifies the *reconstructed* trace — a clean, fully
/// covered recording of the same seeded bug — never the discarded
/// (possibly degraded) streaming run, which keeps the degrade-never-
/// forge rule intact.
///
/// # Errors
///
/// Returns a human-readable reason: no failing trace within `max_runs`
/// attempts, or a [`WitnessError`] from the pipeline itself.
pub fn reconstruct_witness(
    scenario: &dyn Scenario,
    kind: CheckKind,
    variant: Variant,
    cfg: &WorkloadConfig,
    max_runs: u32,
) -> Result<Counterexample, String> {
    // Paced (open-loop) configs set `calls_per_thread: 0`; the reprise
    // is closed-loop so it terminates on its own and records a bounded
    // trace.
    let mut base = *cfg;
    base.pace = None;
    if base.calls_per_thread == 0 {
        base.calls_per_thread = 150;
    }
    let mut seed = base.seed;
    for _ in 0..max_runs {
        let run = record_run(scenario, &base.with_seed(seed), kind.log_mode(), variant);
        let report = scenario.check(kind, run.events.clone());
        if !report.passed() {
            return build_witness(scenario, kind, &run.events, &report)
                .map_err(|e| format!("witness pipeline: {e}"));
        }
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    Err(format!(
        "no failing {kind:?} trace for {} in {max_runs} {variant:?} runs",
        scenario.name()
    ))
}

/// Runs a scenario's workload with an in-memory log and returns the
/// artifacts.
pub fn record_run(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    mode: LogMode,
    variant: Variant,
) -> RunArtifacts {
    let log = EventLog::in_memory(mode);
    let ((), wall) = timed(|| scenario.run(cfg, &log, variant));
    RunArtifacts {
        wall,
        log_stats: log.stats(),
        events: log.drain(),
    }
}

/// Runs a scenario's workload with a discarding log (pure program +
/// logging cost, nothing retained) and returns the wall time.
pub fn run_discarding(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    mode: LogMode,
    variant: Variant,
) -> (Duration, LogStats) {
    let log = EventLog::discarding(mode);
    let ((), wall) = timed(|| scenario.run(cfg, &log, variant));
    (wall, log.stats())
}

/// Runs a scenario's workload while an [`OnlineVerifier`] thread consumes
/// the log concurrently (the "Prog.+logging and VYRD" column of Table 3).
/// Returns the program-side wall time and the verifier's report — a
/// checker that panics yields a degraded report, like every other driver.
/// A `kind` the scenario does not support is refused before the workload
/// runs, with [`unsupported_report`].
pub fn run_online(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
) -> (Duration, Report) {
    let Some(factory) = scenario.shard_factory(kind) else {
        return (Duration::ZERO, unsupported_report(scenario.name(), kind));
    };
    // A panicking workload drops the verifier on unwind; its log closes
    // with it, which ends the verification thread.
    let verifier = OnlineVerifier::spawn_boxed(kind.log_mode(), factory(ObjectId::DEFAULT));
    let ((), wall) = timed(|| scenario.run(cfg, verifier.log(), variant));
    (wall, verifier.finish())
}

/// Runs a scenario's multi-object workload while a supervised
/// [`VerifierPool`] checks each object's log shard concurrently (§8's
/// "logs of different objects checked concurrently and independently").
/// Returns the program-side wall time and the full [`PoolReport`]
/// (per-object verdicts included, so callers can compare each shard
/// against an offline re-check), or `None` when the scenario has no
/// multi-object mode or no shard factory for `kind`.
#[allow(clippy::too_many_arguments)]
pub fn run_online_sharded_with(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    objects: u32,
    workers: usize,
    shard_config: ShardConfig,
    supervisor: SupervisorConfig,
) -> Option<(Duration, PoolReport)> {
    let factory = scenario.shard_factory(kind)?;
    let pool = VerifierPool::spawn_supervised(
        kind.log_mode(),
        workers,
        shard_config,
        supervisor,
        move |object| factory(object),
    );
    let (wall, _, all) = run_on_pool(scenario, cfg, variant, objects, pool)?;
    Some((wall, all))
}

/// Runs the multi-object workload into `pool`'s log, then collects the
/// pool's verdict. The log counters (appended / dropped / bytes) are read
/// after the workload finished and before the pool folds its ledger.
fn run_on_pool(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    variant: Variant,
    objects: u32,
    pool: VerifierPool,
) -> Option<(Duration, LogStats, PoolReport)> {
    let run_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        timed(|| scenario.run_multi(cfg, pool.log(), variant, objects))
    }));
    match run_result {
        Ok((supported, wall)) => {
            let log_stats = pool.log().stats();
            let report = pool.finish_all();
            supported.then_some((wall, log_stats, report))
        }
        Err(panic) => {
            // Unblock the workers before unwinding; dropping the pool
            // detaches them and the closed log ends their shards.
            pool.log().close();
            std::panic::resume_unwind(panic)
        }
    }
}

/// What an open-loop soak run produced (see [`run_soak`]).
#[derive(Debug)]
pub struct SoakArtifacts {
    /// Wall-clock duration of the run (workload threads only).
    pub wall: Duration,
    /// The pool's full report — merged verdict, per-object verdicts, and
    /// the degradation ledger with shed windows and watchdog events.
    pub report: PoolReport,
    /// The program-side log counters (appended / dropped / bytes), read
    /// after the workload finished and before the pool folded its
    /// ledger — the reconciliation baseline for the soak gates.
    pub log_stats: LogStats,
}

/// Runs a scenario's multi-object workload against a supervised
/// [`VerifierPool`] — the open-loop soak path. The workload offers load
/// on the fixed arrival schedule in `cfg.pace` (or closed-loop when
/// unset); `shard_config`'s `Shed` policy bounds each overflow's stall
/// and `supervisor`'s stall deadline runs the
/// [`Watchdog`](vyrd_core::Watchdog) over stuck shards, so past
/// saturation the run ends in a bounded-lag DEGRADED PASS instead of an
/// unbounded queue. Unlike [`run_online_sharded_with`] it also returns
/// the log's counters. Returns `None` when the scenario has no
/// multi-object mode or no shard factory for `kind`.
#[allow(clippy::too_many_arguments)] // one call site (soak), every knob load-bearing
pub fn run_soak(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    objects: u32,
    workers: usize,
    shard_config: ShardConfig,
    supervisor: SupervisorConfig,
) -> Option<SoakArtifacts> {
    let factory = scenario.shard_factory(kind)?;
    let pool = VerifierPool::spawn_supervised(
        kind.log_mode(),
        workers,
        shard_config,
        supervisor,
        move |object| factory(object),
    );
    let (wall, log_stats, report) = run_on_pool(scenario, cfg, variant, objects, pool)?;
    Some(SoakArtifacts {
        wall,
        report,
        log_stats,
    })
}

/// What a continuous (durably segmented) run produced.
#[derive(Debug)]
pub struct ContinuousArtifacts {
    /// Wall-clock duration of the run (workload threads only).
    pub wall: Duration,
    /// The continuous verifier's merged report.
    pub report: Report,
    /// The segment writer's totals (segments sealed, events, bytes).
    pub summary: SegmentWriterSummary,
}

/// Runs a scenario's workload with a durable segmented log while a
/// [`ContinuousVerifier`] polls the segment directory on its own thread —
/// checking sealed segments as they appear, checkpointing its state, and
/// deleting fully-checked segments so neither memory nor disk holds the
/// whole history.
///
/// The directory in `segments` is left with the final checkpoint plus any
/// segments not yet covered by it; reopening it with
/// [`ContinuousVerifier::open`] resumes where this run left off.
///
/// # Errors
///
/// Returns [`io::ErrorKind::Unsupported`] when the scenario has no
/// checkpointable checker for `kind` (see
/// [`Scenario::stepping_factory`]); otherwise propagates segment-
/// directory and checkpoint I/O errors.
pub fn run_continuous(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    segments: SegmentConfig,
    options: ContinuousOptions,
) -> io::Result<ContinuousArtifacts> {
    run_continuous_observed(scenario, cfg, kind, variant, segments, options, |_| Ok(()))
}

/// [`run_continuous`] with a progress observer: `observe` runs on the
/// verifier thread once after the directory is opened (before the first
/// poll) and once after every poll; an error it returns ends the
/// verifier and becomes the run's error.
pub fn run_continuous_observed(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    segments: SegmentConfig,
    options: ContinuousOptions,
    mut observe: impl FnMut(&ContinuousVerifier) -> io::Result<()> + Send,
) -> io::Result<ContinuousArtifacts> {
    let factory = scenario.stepping_factory(kind).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::Unsupported,
            format!("{} has no checkpointable {kind:?} checker", scenario.name()),
        )
    })?;
    let dir = segments.dir.clone();
    let (log, handle) = EventLog::to_segments(kind.log_mode(), segments)?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let verifier = scope.spawn(|| -> io::Result<Report> {
            let mut verifier =
                ContinuousVerifier::open(&dir, factory, options)?;
            observe(&verifier)?;
            while !stop.load(Ordering::Relaxed) {
                verifier.step()?;
                observe(&verifier)?;
                std::thread::sleep(Duration::from_millis(2));
            }
            // The writer has sealed its tail into the manifest by now;
            // `finalize` picks up the remaining sealed segments.
            verifier.finalize()
        });
        let run_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            timed(|| scenario.run(cfg, &log, variant))
        }));
        // Drain the log into the writer and seal the tail even when the
        // workload panicked, so the verifier thread can terminate.
        log.close();
        let summary = handle.finish();
        stop.store(true, Ordering::Relaxed);
        let report = verifier.join().expect("continuous verifier thread");
        match run_result {
            Ok(((), wall)) => Ok(ContinuousArtifacts {
                wall,
                report: report?,
                summary: summary?,
            }),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}
