//! `vyrd stats` — exercise the verifier pipeline with self-observability on
//! and export the metrics snapshots.
//!
//! Two phases, both driven through the public harness API:
//!
//! 1. **Smoke**: one sharded online run with counters *and* trace spans
//!    enabled. Prints the snapshot as text and writes
//!    `results/METRICS_smoke.json`. Sanity-checks the headline gauges —
//!    in particular `pool.lag_events`, the §8 online-vs-offline tradeoff
//!    made measurable (newest appended seq minus newest checked seq at
//!    the end of the run).
//! 2. **Fault reconciliation**: replays a recorded multi-object trace
//!    through a supervised pool under pinned-seed fault plans (the same
//!    sites the fault matrix uses) and checks that the metrics registry
//!    agrees *exactly* — increment for increment — with the
//!    [`Degradation`] ledger and the log's own counters. Writes
//!    `results/METRICS_fault_matrix.json` with one record per cell.
//!    One cell exercises the counterexample pipeline: the `oracle_runs`
//!    a witness claims must equal the oracle invocations observed, and
//!    the minimized trace must re-fail with the identical category.
//!
//! Exit status is non-zero if any reconciliation disagrees, so CI can
//! gate on it. Seed comes from `VYRD_FAULT_SEED` (or `--seed N`),
//! defaulting to the fault matrix's CI seed so runs replay.
//!
//! [`Degradation`]: vyrd_core::violation::Degradation

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use vyrd_core::log::EventLog;
use vyrd_core::pool::{SupervisorConfig, VerifierPool};
use vyrd_core::shard::ShardConfig;
use vyrd_core::witness::{ViolationKey, WitnessPipeline};
use vyrd_core::AdaptiveConfig;
use vyrd_core::Event;
use vyrd_harness::fault_matrix::{cfg, record_multi, replay_supervised, OBJECTS, WORKERS};
use vyrd_harness::scenario::{run_online_sharded_with, CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};

use crate::cli::{Args, SEED};
use crate::ledger::{all_agree, checks_json, holds, json_lines, metered, overload_checks, Check};
use crate::write_result;

pub(crate) fn run(args: &Args) -> ExitCode {
    // `--seed` wins, then $VYRD_FAULT_SEED, then the table's default.
    let seed = match fault::seed_from_env() {
        env if env != 0 && !args.given(&SEED) => env,
        _ => args.get(&SEED),
    };
    eprintln!("stats: seed {seed} (replay with VYRD_FAULT_SEED={seed})");

    let scenario = scenarios::by_name("Multiset-Vector").expect("Multiset-Vector scenario");
    let mut ok = smoke(scenario.as_ref(), seed);
    ok &= reconcile(scenario.as_ref(), seed);
    ExitCode::from(u8::from(!ok))
}

/// Phase 1: a clean sharded online run with counters and spans live.
///
/// This phase runs the scenario *live* against the pool's log (not a
/// recorded replay) so the instrumented method sessions produce trace
/// spans, not just counters.
fn smoke(scenario: &dyn Scenario, seed: u64) -> bool {
    let (report, snap) = metered(true, || {
        run_online_sharded_with(
            scenario,
            &cfg(seed),
            CheckKind::View,
            Variant::Correct,
            OBJECTS,
            WORKERS,
            ShardConfig::default(),
            SupervisorConfig::default(),
        )
    });
    let report = match report {
        Some((_, r)) => r.merged,
        None => {
            eprintln!("smoke: scenario has no shard factory");
            return false;
        }
    };
    println!("== smoke run: sharded online {} ==", scenario.name());
    print!("{snap}");
    println!("verdict: {}", report.verdict());

    let mut ok = true;
    let mut check = |cond: bool, what: &str| {
        if !cond {
            eprintln!("smoke: FAILED: {what}");
            ok = false;
        }
    };
    let appended = snap.counter("log.events_appended").unwrap_or(0);
    let routed = snap.counter("shard.events_routed").unwrap_or(0);
    let shed = snap.counter("shard.events_shed").unwrap_or(0);
    let checked = snap.counter("pool.events_checked").unwrap_or(0);
    let lag = snap.gauge("pool.lag_events");
    check(appended > 0, "log.events_appended > 0");
    check(
        appended == routed + shed,
        "every appended event routed (or counted as shed)",
    );
    check(checked == routed, "every routed event checked on a clean run");
    check(lag.is_some(), "pool.lag_events gauge present");
    check(
        lag.unwrap_or(u64::MAX) <= appended,
        "lag bounded by events appended",
    );
    check(snap.spans_recorded > 0, "trace spans recorded");
    check(
        snap.histogram("span.call_to_return_ns").is_some(),
        "span latency histogram present",
    );

    ok & write_result("METRICS_smoke.json", &snap.to_json())
}

/// One reconciliation cell: what the ledger said vs what the registry
/// counted, for every counter the two share.
struct Cell {
    case: &'static str,
    checks: Vec<Check>,
}

impl Cell {
    fn agrees(&self) -> bool {
        all_agree(&self.checks)
    }

    /// A cell that could not run: an impossible pair, so it reads as a
    /// disagreement.
    fn failed(case: &'static str, what: &'static str) -> Cell {
        Cell {
            case,
            checks: vec![(what, 0, 1)],
        }
    }
}

/// Phase 2: pinned-seed faulted replays, reconciled counter-for-counter.
fn reconcile(scenario: &dyn Scenario, seed: u64) -> bool {
    let events = record_multi(scenario, seed);
    let mut cells = Vec::new();

    // Clean cell: every degradation counter and its metric are both zero,
    // and the append/check counters match the log's own stats.
    cells.push(run_cell("clean", scenario, &events, None, None));

    // Routing drop: the `shard.route` failpoint sheds a budgeted number
    // of events; ledger sheds and `shard.events_shed` must agree exactly.
    let routing_drop = FaultPlan::seeded(seed).rule(
        "shard.route",
        FaultRule::always(FaultAction::Drop).after(3).times(7),
    );
    cells.push(run_cell(
        "routing-drop",
        scenario,
        &events,
        Some(routing_drop.clone()),
        None,
    ));

    // Worker panic: one checker panic, one supervised restart.
    let panic_once =
        FaultPlan::seeded(seed).rule("pool.check.1", FaultRule::once(FaultAction::Panic));
    cells.push(run_cell(
        "worker-panic-restart",
        scenario,
        &events,
        Some(panic_once),
        None,
    ));

    // Spawn fallback: every worker spawn refused, shards checked inline.
    let no_spawns =
        FaultPlan::seeded(seed).rule("pool.spawn", FaultRule::always(FaultAction::Drop));
    cells.push(run_cell(
        "spawn-fallback",
        scenario,
        &events,
        Some(no_spawns),
        None,
    ));

    // Overload shed: stalled checker + tiny bounded channels; sheds are
    // schedule-dependent in *count*, but ledger and metric still move in
    // lockstep because they are incremented at the same sites.
    let stall = FaultPlan::seeded(seed).rule(
        "pool.check.0",
        FaultRule::once(FaultAction::Delay(Duration::from_millis(150))),
    );
    let tiny = ShardConfig::bounded_shedding(2, Duration::from_millis(1), 4);
    cells.push(run_cell(
        "overload-shed",
        scenario,
        &events,
        Some(stall),
        Some(tiny),
    ));

    // Decode/consume reconciliation: the framed trace decoded through
    // the buffered reader, then replayed through the batched pool under
    // injected routing drops. `decode.events`, the log's own count, and
    // `checker.batch_events` must reconcile exactly, with every lost
    // event accounted in the shed/stranded ledger.
    cells.push(run_decode_cell(scenario, routing_drop, &events));

    // Torn tail: spill a trace to durable segments, tear the unsealed
    // tail mid-frame, and reconcile the continuous verifier's damage
    // accounting against the codec's own recovery report.
    cells.push(run_torn_cell(scenario, seed));

    // Lin metrics: a lock-free trace pool-checked in Lin mode; the
    // report's lin counters and the registry's `lin.*` counters must
    // agree exactly.
    cells.push(run_lin_cell(seed));

    // Witness minimization: the counterexample pipeline's claimed ddmin
    // cost vs the oracle invocations actually observed, plus a
    // from-scratch re-check of the minimized trace.
    cells.push(run_witness_cell(seed));

    // Adaptive overload: a stalled checker under tiny adaptive budgets;
    // every controller decision, watchdog escalation, shed, and stranded
    // event the run produced must appear in the ledger exactly as the
    // registry counted it, and the correct trace must never turn a shed
    // storm into a FAIL.
    cells.push(run_adaptive_cell(scenario, seed, &events));

    let all_agree = cells.iter().all(Cell::agrees);
    println!("== fault reconciliation (seed {seed}) ==");
    for cell in &cells {
        let mark = if cell.agrees() { "ok" } else { "DISAGREE" };
        println!("{:<22} {mark}", cell.case);
        for &(name, ledger, metric) in &cell.checks {
            let tick = if ledger == metric { ' ' } else { '!' };
            println!("  {tick} {name:<32} ledger {ledger:>8}  metric {metric:>8}");
        }
    }

    if !write_result(
        "METRICS_fault_matrix.json",
        &cells_json(seed, &cells, all_agree),
    ) {
        return false;
    }
    if !all_agree {
        eprintln!("reconcile: FAILED: metrics disagree with the degradation ledger");
    }
    all_agree
}

/// Runs one reconciliation cell: reset the registry, arm the cell's
/// faults, replay, clear, and collect ledger-vs-metric pairs.
fn run_cell(
    case: &'static str,
    scenario: &dyn Scenario,
    events: &[Event],
    faults: Option<FaultPlan>,
    config: Option<ShardConfig>,
) -> Cell {
    let (result, snap) = metered(false, || {
        let config = config.unwrap_or_default();
        replay_supervised(
            scenario,
            CheckKind::View,
            events,
            faults,
            config,
            SupervisorConfig::default(),
        )
    });
    let Some((report, log_stats)) = result else {
        return Cell::failed(case, "shard factory missing");
    };
    let d = &report.merged.degradation;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    Cell {
        case,
        checks: vec![
            ("sheds vs shard.events_shed", d.sheds(), c("shard.events_shed")),
            ("restarts vs pool.restarts", d.restarts, c("pool.restarts")),
            (
                "spawn_fallbacks vs pool.spawn_fallbacks",
                d.spawn_fallbacks,
                c("pool.spawn_fallbacks"),
            ),
            (
                "log events vs log.events_appended",
                log_stats.events,
                c("log.events_appended"),
            ),
            (
                "discarded_after_close vs log.events_discarded_after_close",
                log_stats.events_discarded_after_close,
                c("log.events_discarded_after_close"),
            ),
            (
                "dropped_injected vs log.events_dropped_injected",
                log_stats.events_dropped_injected,
                c("log.events_dropped_injected"),
            ),
        ],
    }
}

/// Decode-consume cell: encode the recorded trace to framed bytes,
/// decode it back through the buffered `LogReader` (which folds the
/// `decode.*` counters when it drops), and replay the decoded events
/// through a supervised pool with a pinned-seed `shard.route` drop plan.
///
/// The chain the tentpole promises — `decode.events` ≡ the log's own
/// append count ≡ `checker.batch_events` — must hold exactly, with the
/// two legitimate leaks (injected sheds, stranded in-flight events when
/// a checker stops) accounted increment-for-increment by the ledger.
fn run_decode_cell(scenario: &dyn Scenario, routing_drop: FaultPlan, events: &[Event]) -> Cell {
    use vyrd_core::codec::{self, LogReader};

    let case = "decode-consume";
    let fail = |what| Cell::failed(case, what);
    let mut encoded = Vec::new();
    if codec::write_log(&mut encoded, events).is_err() {
        return fail("trace encode failed");
    }

    // One metering window over both halves: the reader folds its
    // `decode.*` counters when it drops, then the pool replays.
    let (result, snap) = metered(false, || -> std::io::Result<_> {
        let mut decoded = Vec::new();
        let mut reader = LogReader::new(encoded.as_slice())?;
        while let Some(e) = reader.next_event()? {
            decoded.push(e);
        }
        drop(reader);
        Ok(replay_supervised(
            scenario,
            CheckKind::View,
            &decoded,
            Some(routing_drop),
            ShardConfig::default(),
            SupervisorConfig::default(),
        ))
    });
    let Ok(result) = result else {
        return fail("trace decode failed");
    };
    let Some((report, log_stats)) = result else {
        return fail("shard factory missing");
    };
    let d = &report.merged.degradation;
    let s = &report.merged.stats;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    Cell {
        case,
        checks: vec![
            (
                "decode.events vs recorded trace",
                c("decode.events"),
                events.len() as u64,
            ),
            (
                "decode.events vs log.events_appended",
                c("decode.events"),
                log_stats.events,
            ),
            (
                "appended vs routed + shed",
                c("log.events_appended"),
                c("shard.events_routed") + c("shard.events_shed"),
            ),
            (
                "checker.batch_events vs checked + stranded",
                c("checker.batch_events"),
                c("pool.events_checked") + d.stranded_events,
            ),
            (
                "checker.batch_events vs report batch_events",
                c("checker.batch_events"),
                s.batch_events,
            ),
            holds(
                "batched delivery actually used",
                s.batches > 0 && s.batch_events >= s.batches,
            ),
            holds(
                "decode framing reconciles (frames <= events, bytes > 0)",
                c("decode.frames") == c("decode.events") && c("decode.bytes") > 0,
            ),
        ],
    }
}

/// Torn-tail cell: spill a single-object I/O trace into a segment
/// directory, un-seal the last segment and tear it mid-frame (a crash
/// mid-write), then reconcile the continuous verifier's
/// `torn_bytes_discarded` ledger and its recovered event count against an
/// independent `codec::read_log_recovering` pass over the same damaged
/// file — byte for byte, event for event.
fn run_torn_cell(scenario: &dyn Scenario, seed: u64) -> Cell {
    use vyrd_core::codec::{self, DecodeOutcome};
    use vyrd_core::log::LogMode;
    use vyrd_core::segment::{scan_segments, ContinuousOptions, ContinuousVerifier, SegmentConfig};

    let case = "torn-tail";
    let fail = |what| Cell::failed(case, what);
    let Some(factory) = scenario.stepping_factory(CheckKind::Io) else {
        return fail("stepping factory missing");
    };

    // Record and spill (metrics stay off; both columns of this cell come
    // from the ledger and the codec, not the registry).
    let dir = std::env::temp_dir().join(format!("vyrd-stats-torn-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let run = (|| -> std::io::Result<()> {
        let (log, handle) =
            EventLog::to_segments(LogMode::Io, SegmentConfig::new(&dir).segment_bytes(2048))?;
        let recorded = EventLog::in_memory(LogMode::Io);
        scenario.run(&cfg(seed), &recorded, Variant::Correct);
        for e in recorded.drain() {
            log.append_event(e);
        }
        log.close();
        handle.finish()?;
        Ok(())
    })();
    if run.is_err() {
        return fail("segment spill failed");
    }

    // Un-seal the last segment (drop its manifest line, and the
    // `finished` line a crashed writer never got to write) and tear three
    // trailing bytes — every frame is at least nine bytes, so the cut is
    // guaranteed to land mid-frame.
    let manifest_path = dir.join("manifest.log");
    let Ok(manifest) = fs::read_to_string(&manifest_path) else {
        return fail("manifest unreadable");
    };
    let mut lines: Vec<&str> = manifest.lines().filter(|l| *l != "finished").collect();
    if lines.len() < 3 {
        return fail("trace too small to segment");
    }
    lines.pop();
    if fs::write(&manifest_path, format!("{}\n", lines.join("\n"))).is_err() {
        return fail("manifest rewrite failed");
    }
    let Ok(segments) = scan_segments(&dir) else {
        return fail("segment scan failed");
    };
    let Some(tail) = segments.iter().find(|s| s.sealed_events.is_none()) else {
        return fail("no unsealed tail after manifest rewrite");
    };
    let Ok(bytes) = fs::read(&tail.path) else {
        return fail("tail unreadable");
    };
    if bytes.len() < 12 || fs::write(&tail.path, &bytes[..bytes.len() - 3]).is_err() {
        return fail("tail tear failed");
    }

    // Independent damage report straight from the codec.
    let (codec_events, codec_bytes) = match fs::File::open(&tail.path) {
        Ok(f) => match codec::read_log_recovering(f) {
            DecodeOutcome::Complete { records } => (records.len() as u64, 0),
            DecodeOutcome::RecoveredPrefix {
                records,
                bytes_discarded,
                ..
            } => (records.len() as u64, bytes_discarded),
        },
        Err(_) => return fail("torn tail unopenable"),
    };
    let sealed_events: u64 = segments.iter().filter_map(|s| s.sealed_events).sum();

    // The service's own accounting over the same directory.
    let report = ContinuousVerifier::open(&dir, factory, ContinuousOptions::default())
        .and_then(ContinuousVerifier::finalize);
    let _ = fs::remove_dir_all(&dir);
    let Ok(report) = report else {
        return fail("continuous verification failed");
    };
    Cell {
        case,
        checks: vec![
            (
                "torn_bytes_discarded vs codec bytes_discarded",
                report.degradation.torn_bytes_discarded,
                codec_bytes,
            ),
            (
                "events checked vs codec recoverable prefix",
                report.stats.events,
                sealed_events + codec_events,
            ),
            holds(
                "verdict stays a pass over the clean prefix",
                report.passed(),
            ),
        ],
    }
}

/// Lin-metrics cell: a lock-free multi-object trace pool-checked in
/// `Lin` mode with the registry live. The merged report's lin counters
/// and the registry's `lin.*` counters are folded at the same point
/// (checker seal), so they must agree increment for increment — and a
/// trace with observers must have actually searched some windows.
fn run_lin_cell(seed: u64) -> Cell {
    let case = "lin-metrics";
    let fail = |what| Cell::failed(case, what);
    let Some(scenario) = scenarios::by_name("Treiber-Stack") else {
        return fail("Treiber-Stack scenario missing");
    };
    let log = EventLog::in_memory(CheckKind::Lin.log_mode());
    if !scenario.run_multi(&cfg(seed), &log, Variant::Correct, OBJECTS) {
        return fail("multi-object run unsupported");
    }
    let events = log.snapshot();
    let (result, snap) = metered(false, || {
        let (config, supervisor) = (ShardConfig::default(), SupervisorConfig::default());
        replay_supervised(
            scenario.as_ref(),
            CheckKind::Lin,
            &events,
            None,
            config,
            supervisor,
        )
    });
    let Some((report, _)) = result else {
        return fail("Lin shard factory missing");
    };
    let s = &report.merged.stats;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    Cell {
        case,
        checks: vec![
            (
                "windows vs lin.windows_searched",
                s.lin_windows_searched,
                c("lin.windows_searched"),
            ),
            (
                "backtracks vs lin.witness_backtracks",
                s.lin_witness_backtracks,
                c("lin.witness_backtracks"),
            ),
            holds(
                "windows searched on an observer-bearing trace",
                s.lin_windows_searched > 0,
            ),
            holds("verdict stays a pass", report.merged.passed()),
        ],
    }
}

/// Witness cell: minimize a pinned-seed buggy lock-free trace through
/// the counterexample pipeline and reconcile its *claimed* cost and
/// result against independent observation — the `oracle_runs` the
/// pipeline reports vs the oracle invocations actually counted, and the
/// minimized trace vs a from-scratch re-check that must fail with the
/// identical category and object.
fn run_witness_cell(seed: u64) -> Cell {
    use std::sync::atomic::{AtomicU64, Ordering};
    let case = "witness-minimization";
    let fail = |what| Cell::failed(case, what);
    let Some(scenario) = scenarios::by_name("Treiber-Stack") else {
        return fail("Treiber-Stack scenario missing");
    };
    let log = EventLog::in_memory(CheckKind::Lin.log_mode());
    scenario.run(&cfg(seed), &log, Variant::Buggy);
    let events = log.snapshot();
    let report = scenario.check(CheckKind::Lin, events.clone());
    if report.passed() {
        return fail("seeded ABA trace did not fail");
    }
    let observed = AtomicU64::new(0);
    let oracle = |evs: &[Event]| {
        observed.fetch_add(1, Ordering::Relaxed);
        scenario.check(CheckKind::Lin, evs.to_vec())
    };
    let pipeline = WitnessPipeline {
        minimizer: scenario.minimizer(CheckKind::Lin),
        explainer: scenario.explainer(CheckKind::Lin),
    };
    let cx = match pipeline.run(scenario.name(), "lin", &events, &report, &oracle) {
        Ok(cx) => cx,
        Err(_) => return fail("witness pipeline refused a failing report"),
    };
    let minimized = cx.minimized_events();
    let re = scenario.check(CheckKind::Lin, minimized.clone());
    let key_preserved = ViolationKey::of(&re, &minimized)
        .is_some_and(|k| k.category == cx.category && k.object == cx.object);
    Cell {
        case,
        checks: vec![
            (
                "claimed oracle_runs vs observed oracle calls",
                cx.oracle_runs as u64,
                observed.load(Ordering::Relaxed),
            ),
            holds(
                "minimized re-check preserves category + object",
                key_preserved,
            ),
            holds(
                "witness no larger than its trace",
                cx.events.len() <= events.len(),
            ),
            holds(
                "minimization actually shrank the trace",
                cx.events.len() < events.len(),
            ),
        ],
    }
}

/// Adaptive-overload cell: replays the recorded correct trace through
/// [`VerifierPool::spawn_adaptive`] with shard 0's checker stalled and a
/// deliberately tiny capacity/budget, so the run sheds, abandons, and
/// drives the AIMD controller. The ledger's decisions, watchdog events,
/// sheds, windows, and stranded residue must reconcile exactly with the
/// `overload.*`/`shard.*` registry counters — and the verdict must stay
/// degrade-never-forge (a correct trace cannot FAIL from shedding).
fn run_adaptive_cell(scenario: &dyn Scenario, seed: u64, events: &[Event]) -> Cell {
    let case = "adaptive-overload";
    let Some(factory) = scenario.shard_factory(CheckKind::View) else {
        return Cell::failed(case, "View shard factory missing");
    };
    let space = 4 * u64::from(OBJECTS);
    let adaptive = AdaptiveConfig {
        capacity: 4,
        initial_timeout: Duration::from_micros(200),
        initial_budget: 8,
        tick: Duration::from_millis(2),
        high_watermark: space * 3 / 4,
        low_watermark: (space / 4).max(1),
        min_timeout: Duration::from_micros(50),
        max_timeout: Duration::from_millis(5),
        max_budget: 32,
        watchdog_deadline: Duration::from_millis(100),
    };
    let stall = FaultPlan::seeded(seed).rule(
        "pool.check.0",
        FaultRule::once(FaultAction::Delay(Duration::from_millis(120))),
    );
    let ((report, log_stats), snap) = metered(false, || {
        let _armed = fault::install(stall);
        let pool = VerifierPool::spawn_adaptive(
            CheckKind::View.log_mode(),
            WORKERS,
            adaptive,
            SupervisorConfig::default(),
            move |object| factory(object),
        );
        let log = pool.log().clone();
        (pool.replay(events), log.stats())
    });
    let d = &report.merged.degradation;
    let mut checks = overload_checks(d, &snap, log_stats.events);
    checks.push(holds("sheds observed under the stall", d.sheds() > 0));
    checks.push(holds(
        "degrade never forge: no FAIL on a correct trace",
        report.merged.violation.is_none(),
    ));
    Cell { case, checks }
}

/// Hand-rolled JSON for the reconciliation report (std-only, like the
/// rest of the workspace).
fn cells_json(seed: u64, cells: &[Cell], all_agree: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"all_agree\": {all_agree},");
    let _ = writeln!(out, "  \"cells\": [");
    let cells = cells.iter().map(|cell| {
        format!(
            "{{\n      \"case\": \"{}\",\n      \"agree\": {},\n      \"checks\": [\n{}      ]\n    }}",
            cell.case,
            cell.agrees(),
            checks_json(&cell.checks, 8)
        )
    });
    out += &json_lines(cells, 4);
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}
