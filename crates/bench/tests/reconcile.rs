//! The metrics registry agrees *exactly* — increment for increment — with
//! the [`Degradation`] ledger and the log's own counters.
//!
//! One live sharded run (what `vyrd stats` exports) and ten replay cells
//! over the fault matrix's recorded Multiset-Vector workload
//! (`fault_matrix::{cfg, record_multi, replay_supervised}`), each under
//! its own pinned-seed fault plan. Every test sweeps five seeds, starting
//! at the CI seed; `VYRD_FAULT_SEED` narrows the sweep to one seed, to
//! replay a failure.
//!
//! The registry, the fault registry and the span switch are
//! process-global, so every test here takes [`serial`]: a run left live
//! by one test would count into another's window.
//!
//! [`Degradation`]: vyrd_core::violation::Degradation

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use vyrd_bench::cli::CI_SEED;
use vyrd_core::codec::{self, DecodeOutcome, LogReader};
use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::pool::{SupervisorConfig, VerifierPool};
use vyrd_core::segment::{scan_segments, ContinuousOptions, ContinuousVerifier, SegmentConfig};
use vyrd_core::shard::ShardConfig;
use vyrd_core::violation::WatchdogAction;
use vyrd_core::witness::{ViolationKey, WitnessPipeline};
use vyrd_core::Event;
use vyrd_harness::fault_matrix::{cfg, record_multi, replay_supervised, OBJECTS, WORKERS};
use vyrd_harness::scenario::{run_online_sharded_with, CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd_rt::metrics::{self, Snapshot};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The CI seed and the four after it, or `VYRD_FAULT_SEED` alone.
fn seeds() -> Vec<u64> {
    match fault::seed_from_env() {
        0 => (0..5).map(|i| CI_SEED + i).collect(),
        seed => vec![seed],
    }
}

/// Runs `f` with the metrics registry reset and live — trace spans too,
/// when `spans` — and returns its result with the registry's snapshot.
fn metered<T>(spans: bool, f: impl FnOnce() -> T) -> (T, Snapshot) {
    metrics::reset();
    metrics::set_enabled(true);
    metrics::set_spans_enabled(spans);
    let out = f();
    metrics::set_spans_enabled(false);
    metrics::set_enabled(false);
    (out, metrics::snapshot())
}

fn multiset_vector() -> Box<dyn Scenario> {
    scenarios::by_name("Multiset-Vector").expect("Multiset-Vector scenario")
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// The live run `vyrd stats` exports: a clean sharded online run with
/// counters and spans on, every appended event routed and checked.
#[test]
fn live_sharded_run_counts_every_event() {
    let _serial = serial();
    let scenario = multiset_vector();
    for seed in seeds() {
        let (run, snap) = metered(true, || {
            run_online_sharded_with(
                scenario.as_ref(),
                &cfg(seed),
                CheckKind::View,
                Variant::Correct,
                OBJECTS,
                WORKERS,
                ShardConfig::default(),
                SupervisorConfig::default(),
            )
        });
        let (_, report) = run.expect("Multiset-Vector shard factory");
        assert!(report.merged.passed(), "seed {seed}: {}", report.merged);
        let c = |name| counter(&snap, name);
        let appended = c("log.events_appended");
        assert!(appended > 0, "seed {seed}: nothing appended");
        assert_eq!(
            appended,
            c("shard.events_routed") + c("shard.events_shed"),
            "seed {seed}: appended vs routed + shed"
        );
        assert_eq!(
            c("pool.events_checked"),
            c("shard.events_routed"),
            "seed {seed}: a clean run checks every routed event"
        );
        let lag = snap.gauge("pool.lag_events");
        assert!(
            lag.is_some_and(|lag| lag <= appended),
            "seed {seed}: lag {lag:?}"
        );
        assert!(snap.spans_recorded > 0, "seed {seed}: no trace spans");
        assert!(
            snap.histogram("span.call_to_return_ns").is_some(),
            "seed {seed}: no span latency histogram"
        );
    }
}

/// Replays the recorded trace through a supervised View pool with
/// `faults` armed and asserts every ledger/registry pair the two share.
fn assert_replay_reconciles(
    case: &str,
    faults: impl Fn(u64) -> Option<FaultPlan>,
    config: impl Fn() -> ShardConfig,
) {
    let _serial = serial();
    let scenario = multiset_vector();
    for seed in seeds() {
        let events = record_multi(scenario.as_ref(), seed);
        let (result, snap) = metered(false, || {
            replay_supervised(
                scenario.as_ref(),
                CheckKind::View,
                &events,
                faults(seed),
                config(),
                SupervisorConfig::default(),
            )
        });
        let (report, log) = result.expect("Multiset-Vector shard factory");
        let d = &report.merged.degradation;
        let c = |name| counter(&snap, name);
        let at = format!("{case}, seed {seed}");
        assert_eq!(d.sheds(), c("shard.events_shed"), "{at}: sheds");
        assert_eq!(d.restarts, c("pool.restarts"), "{at}: restarts");
        assert_eq!(
            d.spawn_fallbacks,
            c("pool.spawn_fallbacks"),
            "{at}: spawn fallbacks"
        );
        assert_eq!(log.events, c("log.events_appended"), "{at}: events");
        assert_eq!(
            log.events_discarded_after_close,
            c("log.events_discarded_after_close"),
            "{at}: discarded after close"
        );
        assert_eq!(
            log.events_dropped_injected,
            c("log.events_dropped_injected"),
            "{at}: injected drops"
        );
    }
}

/// The `shard.route` failpoint sheds seven events after the third.
fn routing_drop(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).rule(
        "shard.route",
        FaultRule::always(FaultAction::Drop).after(3).times(7),
    )
}

#[test]
fn clean_replay_reconciles() {
    assert_replay_reconciles("clean", |_| None, ShardConfig::default);
}

#[test]
fn routing_drop_reconciles() {
    assert_replay_reconciles(
        "routing-drop",
        |seed| Some(routing_drop(seed)),
        ShardConfig::default,
    );
}

#[test]
fn worker_panic_restart_reconciles() {
    let panic_once =
        |seed| FaultPlan::seeded(seed).rule("pool.check.1", FaultRule::once(FaultAction::Panic));
    assert_replay_reconciles(
        "worker-panic-restart",
        |seed| Some(panic_once(seed)),
        ShardConfig::default,
    );
}

#[test]
fn spawn_fallback_reconciles() {
    let no_spawns =
        |seed| FaultPlan::seeded(seed).rule("pool.spawn", FaultRule::always(FaultAction::Drop));
    assert_replay_reconciles(
        "spawn-fallback",
        |seed| Some(no_spawns(seed)),
        ShardConfig::default,
    );
}

/// A stalled checker behind tiny bounded channels: how many events shed
/// depends on the schedule, but ledger and metric move in lockstep
/// because they are incremented at the same sites.
#[test]
fn overload_shed_reconciles() {
    let stall = |seed| {
        FaultPlan::seeded(seed).rule(
            "pool.check.0",
            FaultRule::once(FaultAction::Delay(Duration::from_millis(150))),
        )
    };
    assert_replay_reconciles(
        "overload-shed",
        |seed| Some(stall(seed)),
        || ShardConfig::bounded_shedding(2, Duration::from_millis(1), 4),
    );
}

/// The framed trace decoded through the buffered reader, then replayed
/// through the batched pool under injected routing drops: `decode.events`
/// ≡ the log's own append count ≡ `checker.batch_events` plus the
/// ledgered losses (injected sheds, events stranded when a checker stops).
#[test]
fn decode_consume_reconciles() {
    let _serial = serial();
    let scenario = multiset_vector();
    for seed in seeds() {
        let events = record_multi(scenario.as_ref(), seed);
        let mut encoded = Vec::new();
        codec::write_log(&mut encoded, &events).expect("encode trace");

        // One metering window over both halves: the reader folds its
        // `decode.*` counters when it drops, then the pool replays.
        let (result, snap) = metered(false, || {
            let mut decoded = Vec::new();
            let mut reader = LogReader::new(encoded.as_slice()).expect("trace header");
            while let Some(e) = reader.next_event().expect("decode trace") {
                decoded.push(e);
            }
            drop(reader);
            replay_supervised(
                scenario.as_ref(),
                CheckKind::View,
                &decoded,
                Some(routing_drop(seed)),
                ShardConfig::default(),
                SupervisorConfig::default(),
            )
        });
        let (report, log) = result.expect("Multiset-Vector shard factory");
        let (d, s) = (&report.merged.degradation, &report.merged.stats);
        let c = |name| counter(&snap, name);
        assert_eq!(c("decode.events"), events.len() as u64, "seed {seed}");
        assert_eq!(c("decode.events"), log.events, "seed {seed}");
        assert_eq!(
            c("log.events_appended"),
            c("shard.events_routed") + c("shard.events_shed"),
            "seed {seed}: appended vs routed + shed"
        );
        assert_eq!(
            c("checker.batch_events"),
            c("pool.events_checked") + d.stranded_events,
            "seed {seed}: batch events vs checked + stranded"
        );
        assert_eq!(c("checker.batch_events"), s.batch_events, "seed {seed}");
        assert!(
            s.batches > 0 && s.batch_events >= s.batches,
            "seed {seed}: batched delivery unused"
        );
        assert_eq!(c("decode.frames"), c("decode.events"), "seed {seed}");
        assert!(c("decode.bytes") > 0, "seed {seed}");
    }
}

/// A single-object I/O trace spilled to durable segments, its last
/// segment un-sealed and torn mid-frame (a crash mid-write): the
/// continuous verifier's `torn_bytes_discarded` and recovered event count
/// match an independent `codec::read_log_recovering` pass over the same
/// damaged file, byte for byte, event for event.
#[test]
fn torn_tail_reconciles() {
    let _serial = serial();
    let scenario = multiset_vector();
    for seed in seeds() {
        let factory = scenario
            .stepping_factory(CheckKind::Io)
            .expect("Multiset-Vector stepping factory");
        let dir = std::env::temp_dir().join(format!("vyrd-torn-{}-{seed}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (log, handle) =
            EventLog::to_segments(LogMode::Io, SegmentConfig::new(&dir).segment_bytes(2048))
                .expect("open segment log");
        let recorded = EventLog::in_memory(LogMode::Io);
        scenario.run(&cfg(seed), &recorded, Variant::Correct);
        for e in recorded.drain() {
            log.append_event(e);
        }
        log.close();
        handle.finish().expect("spill segments");

        // Un-seal the last segment (drop its manifest line, and the
        // `finished` line a crashed writer never got to write) and tear
        // three trailing bytes — every frame is at least nine bytes, so
        // the cut lands mid-frame.
        let manifest_path = dir.join("manifest.log");
        let manifest = fs::read_to_string(&manifest_path).expect("manifest");
        let mut lines: Vec<&str> = manifest.lines().filter(|l| *l != "finished").collect();
        assert!(lines.len() >= 3, "seed {seed}: trace too small to segment");
        lines.pop();
        fs::write(&manifest_path, format!("{}\n", lines.join("\n"))).expect("rewrite manifest");
        let segments = scan_segments(&dir).expect("scan segments");
        let tail = segments
            .iter()
            .find(|s| s.sealed_events.is_none())
            .expect("an unsealed tail");
        let bytes = fs::read(&tail.path).expect("read tail");
        assert!(bytes.len() >= 12, "seed {seed}: tail too short to tear");
        fs::write(&tail.path, &bytes[..bytes.len() - 3]).expect("tear tail");

        let (codec_events, codec_bytes) =
            match codec::read_log_recovering(fs::File::open(&tail.path).expect("open tail")) {
                DecodeOutcome::Complete { records } => (records.len() as u64, 0),
                DecodeOutcome::RecoveredPrefix {
                    records,
                    bytes_discarded,
                    ..
                } => (records.len() as u64, bytes_discarded),
            };
        let sealed_events: u64 = segments.iter().filter_map(|s| s.sealed_events).sum();

        let report = ContinuousVerifier::open(&dir, factory, ContinuousOptions::default())
            .and_then(ContinuousVerifier::finalize)
            .expect("continuous verification");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            report.degradation.torn_bytes_discarded, codec_bytes,
            "seed {seed}: torn bytes"
        );
        assert_eq!(
            report.stats.events,
            sealed_events + codec_events,
            "seed {seed}: events checked vs the recoverable prefix"
        );
        assert!(report.passed(), "seed {seed}: {report}");
    }
}

/// A lock-free multi-object trace pool-checked in `Lin` mode: the merged
/// report's lin counters and the registry's `lin.*` counters are folded
/// at the same point (checker seal), and a trace with observers searched
/// some windows.
#[test]
fn lin_metrics_reconcile() {
    let _serial = serial();
    let scenario = scenarios::by_name("Treiber-Stack").expect("Treiber-Stack scenario");
    for seed in seeds() {
        let log = EventLog::in_memory(CheckKind::Lin.log_mode());
        assert!(scenario.run_multi(&cfg(seed), &log, Variant::Correct, OBJECTS));
        let events = log.snapshot();
        let (result, snap) = metered(false, || {
            replay_supervised(
                scenario.as_ref(),
                CheckKind::Lin,
                &events,
                None,
                ShardConfig::default(),
                SupervisorConfig::default(),
            )
        });
        let (report, _) = result.expect("Treiber-Stack Lin shard factory");
        let s = &report.merged.stats;
        assert_eq!(
            s.lin_windows_searched,
            counter(&snap, "lin.windows_searched"),
            "seed {seed}: windows"
        );
        assert_eq!(
            s.lin_witness_backtracks,
            counter(&snap, "lin.witness_backtracks"),
            "seed {seed}: backtracks"
        );
        assert!(
            s.lin_windows_searched > 0,
            "seed {seed}: no window searched"
        );
        assert!(report.merged.passed(), "seed {seed}: {}", report.merged);
    }
}

/// A seeded buggy lock-free trace through the counterexample pipeline:
/// the `oracle_runs` it claims equal the oracle calls observed, and the
/// minimized trace, re-checked from scratch, fails with the identical
/// category and object.
#[test]
fn witness_minimization_reconciles() {
    let _serial = serial();
    let scenario = scenarios::by_name("Treiber-Stack").expect("Treiber-Stack scenario");
    for seed in seeds() {
        let log = EventLog::in_memory(CheckKind::Lin.log_mode());
        scenario.run(&cfg(seed), &log, Variant::Buggy);
        let events = log.snapshot();
        let report = scenario.check(CheckKind::Lin, events.clone());
        assert!(!report.passed(), "seed {seed}: the seeded ABA trace passed");
        let observed = AtomicU64::new(0);
        let oracle = |evs: &[Event]| {
            observed.fetch_add(1, Ordering::Relaxed);
            scenario.check(CheckKind::Lin, evs.to_vec())
        };
        let pipeline = WitnessPipeline {
            minimizer: scenario.minimizer(CheckKind::Lin),
            explainer: scenario.explainer(CheckKind::Lin),
        };
        let cx = pipeline
            .run(scenario.name(), "lin", &events, &report, &oracle)
            .unwrap_or_else(|e| panic!("seed {seed}: pipeline refused a failing report: {e}"));
        assert_eq!(
            cx.oracle_runs as u64,
            observed.load(Ordering::Relaxed),
            "seed {seed}: claimed vs observed oracle runs"
        );
        let minimized = cx.minimized_events();
        let re = scenario.check(CheckKind::Lin, minimized.clone());
        let key = ViolationKey::of(&re, &minimized).expect("the minimized trace fails");
        assert_eq!(key.category, cx.category, "seed {seed}");
        assert_eq!(key.object, cx.object, "seed {seed}");
        assert!(
            cx.events.len() < events.len(),
            "seed {seed}: nothing shrank"
        );
    }
}

/// The recorded correct trace through a shedding pool with a stall
/// deadline, shard 0's checker stalled and a deliberately tiny capacity
/// and budget, so the run sheds and abandons under the watchdog: every
/// watchdog escalation, shed and stranded event is in the ledger exactly
/// as the registry counted it, and shedding never turns the correct trace
/// into a FAIL.
#[test]
fn adaptive_overload_reconciles() {
    let _serial = serial();
    let scenario = multiset_vector();
    let supervisor = SupervisorConfig {
        stall_deadline: Some(Duration::from_millis(100)),
        ..SupervisorConfig::default()
    };
    for seed in seeds() {
        let events = record_multi(scenario.as_ref(), seed);
        let factory = scenario
            .shard_factory(CheckKind::View)
            .expect("View shard factory");
        let stall = FaultPlan::seeded(seed).rule(
            "pool.check.0",
            FaultRule::once(FaultAction::Delay(Duration::from_millis(120))),
        );
        let ((report, log), snap) = metered(false, || {
            let _armed = fault::install(stall);
            let pool = VerifierPool::spawn_supervised(
                CheckKind::View.log_mode(),
                WORKERS,
                ShardConfig::bounded_shedding(4, Duration::from_millis(5), 8),
                supervisor,
                move |object| factory(object),
            );
            let log = pool.log().clone();
            (pool.replay(&events), log.stats())
        });
        let d = &report.merged.degradation;
        let c = |name| counter(&snap, name);
        let watchdog = |action| {
            let n = d.watchdog_events.iter().filter(|x| x.action == action);
            n.count() as u64
        };
        let (appended, routed, shed) = (
            c("log.events_appended"),
            c("shard.events_routed"),
            c("shard.events_shed"),
        );
        assert_eq!(log.events, appended, "seed {seed}: log vs registry");
        assert_eq!(
            appended,
            routed + shed,
            "seed {seed}: appended vs routed + shed"
        );
        assert_eq!(
            routed,
            c("pool.events_checked") + d.stranded_events,
            "seed {seed}: routed vs checked + stranded"
        );
        assert_eq!(d.sheds(), shed, "seed {seed}: ledger sheds");
        assert_eq!(
            c("shard.sheds_timeout") + c("shard.sheds_abandoned") + c("shard.sheds_injected"),
            shed,
            "seed {seed}: shed kinds"
        );
        let window_sum: u64 = d.shed_windows.iter().map(|w| w.events).sum();
        assert_eq!(window_sum, d.sheds(), "seed {seed}: shed windows");
        assert_eq!(
            watchdog(WatchdogAction::RescueWorker),
            c("overload.watchdog_rescues"),
            "seed {seed}: watchdog rescues"
        );
        assert_eq!(
            watchdog(WatchdogAction::Quarantine),
            c("overload.watchdog_quarantines"),
            "seed {seed}: watchdog quarantines"
        );
        assert!(d.sheds() > 0, "seed {seed}: the stall shed nothing");
        assert!(
            report.merged.violation.is_none(),
            "seed {seed}: shedding forged a FAIL: {}",
            report.merged
        );
    }
}
