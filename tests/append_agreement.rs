//! The batched per-thread append path must be observationally equivalent
//! to the reference single-lock log it replaced.
//!
//! The reference discipline is the one the paper's §4.2 argument is
//! stated for: one global critical section per logged action, events
//! land in the log in exactly the order the critical sections execute.
//! The batched path (per-thread buffers + global sequence stamping +
//! merge-by-seq, see `vyrd_core::log`) must produce the *identical* total
//! order — so each test drives both disciplines from the same workload,
//! logging every action into the real `EventLog` and into a plain
//! `Mutex<Vec<Event>>` inside one shared per-op critical section, then
//! compares the two logs event for event.
//!
//! Verdict preservation is checked on real scenario traces: the same
//! recorded multi-object trace must get the same `Report` verdict from
//! the batched pipeline (`VerifierPool` fed through channel batches) and
//! from the reference per-object offline loop — including under
//! `log.append` fault injection, where the batched log must be a
//! subsequence of the reference and the loss must be fully accounted in
//! `LogStats::events_dropped_injected`.

mod common;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use vyrd::core::log::{EventLog, LogMode};
use vyrd::core::pool::VerifierPool;
use vyrd::core::shard::partition_by_object;
use vyrd::core::{Event, ObjectId, Report, ThreadId, Value, VarId};
use vyrd::harness::scenario::{CheckKind, Scenario, Variant};
use vyrd::harness::scenarios;
use vyrd::harness::workload::WorkloadConfig;
use vyrd::rt::channel;
use vyrd::rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd::rt::rng::Rng;

use common::base_seeds;

const OBJECTS: u32 = 3;

/// This suite's own seed; [`base_seeds`] adds the CI seed.
const DEFAULT_SEED: u64 = 0x000A_94EE_0001;

/// The fault registry is process-global; tests that install plans take
/// this lock so concurrently running tests in this binary don't trip each
/// other's failpoints.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Drives a randomized multi-thread workload through an [`EventLog`] and
/// a reference single-lock `Vec<Event>` simultaneously: each op builds
/// the event it is about to log, then appends it to both destinations
/// inside one shared critical section — the same atomicity discipline
/// instrumentation sites use, applied to both logs at once. With
/// `per_op`, each op logs through a fresh logger dropped after it (the
/// `Scenario::run_multi` shape) instead of through one logger per thread.
/// Returns `(reference order, batched snapshot, batched stats)`.
fn dual_logged_run(
    seed: u64,
    threads: u32,
    ops_per_thread: u32,
    mode: LogMode,
    per_op: bool,
) -> (Vec<Event>, Vec<Event>, vyrd::core::log::LogStats) {
    let log = EventLog::in_memory(mode);
    let reference = std::sync::Arc::new(Mutex::new(Vec::new()));
    // The per-op critical section making "log to both" one atomic action.
    let site = std::sync::Arc::new(Mutex::new(()));
    thread::scope(|scope| {
        let log = &log;
        for t in 0..threads {
            let hoisted = (!per_op).then(|| log.logger_for(ThreadId(t)));
            let reference = std::sync::Arc::clone(&reference);
            let site = std::sync::Arc::clone(&site);
            let mut rng = Rng::seed_from_u64(seed ^ (u64::from(t) << 32));
            scope.spawn(move || {
                for i in 0..ops_per_thread {
                    let object = ObjectId(rng.gen_range(0..2));
                    let scoped = match &hoisted {
                        Some(logger) => logger.for_object(object),
                        None => log.logger_for(ThreadId(t)).for_object(object),
                    };
                    let k = Value::from(rng.gen_range(0..64i64));
                    // Mirror exactly what the logger methods construct.
                    let (event, action): (Event, Box<dyn Fn() + '_>) =
                        match rng.gen_range(0..4u32) {
                            0 => (
                                Event::Call {
                                    tid: scoped.tid(),
                                    object,
                                    method: "Insert".into(),
                                    args: vec![k.clone()].into(),
                                },
                                Box::new({
                                    let scoped = scoped.clone();
                                    let k = k.clone();
                                    move || scoped.call("Insert", std::slice::from_ref(&k))
                                }),
                            ),
                            1 => (
                                Event::Commit {
                                    tid: scoped.tid(),
                                    object,
                                },
                                Box::new({
                                    let scoped = scoped.clone();
                                    move || scoped.commit()
                                }),
                            ),
                            2 => (
                                Event::Return {
                                    tid: scoped.tid(),
                                    object,
                                    method: "Insert".into(),
                                    ret: k.clone(),
                                },
                                Box::new({
                                    let scoped = scoped.clone();
                                    let k = k.clone();
                                    move || scoped.ret_ref("Insert", &k)
                                }),
                            ),
                            _ => (
                                Event::Write {
                                    tid: scoped.tid(),
                                    object,
                                    var: VarId::new("slot", i64::from(i % 8)),
                                    value: k.clone(),
                                },
                                Box::new({
                                    let scoped = scoped.clone();
                                    let k = k.clone();
                                    move || {
                                        scoped.write(VarId::new("slot", i64::from(i % 8)), k.clone())
                                    }
                                }),
                            ),
                        };
                    let recorded = match (mode, &event) {
                        (LogMode::Off, _) => false,
                        (LogMode::Io, e) => e.required_for_io(),
                        (LogMode::View, _) => true,
                    };
                    {
                        let _guard = site.lock().unwrap_or_else(PoisonError::into_inner);
                        action();
                        if recorded {
                            reference
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(event);
                        }
                    }
                }
            });
        }
    });
    let snapshot = log.snapshot();
    let stats = log.stats();
    let reference = std::mem::take(&mut *reference.lock().unwrap_or_else(PoisonError::into_inner));
    (reference, snapshot, stats)
}

#[test]
fn batched_path_reproduces_the_reference_total_order() {
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let mut seeds = Rng::seed_from_u64(base);
        for mode in [LogMode::Io, LogMode::View] {
            for _ in 0..4 {
                let seed = seeds.next_u64();
                for per_op in [false, true] {
                    let (reference, batched, stats) = dual_logged_run(seed, 4, 200, mode, per_op);
                    let run = format!("seed {seed} {mode:?} per_op {per_op}");
                    assert_eq!(reference.len(), batched.len(), "{run}: event counts diverge");
                    for (i, (r, b)) in reference.iter().zip(&batched).enumerate() {
                        assert_eq!(r, b, "{run}: order diverges at {i}: {r} vs {b}");
                    }
                    assert_eq!(stats.events, batched.len() as u64);
                    assert_eq!(stats.events_dropped_injected, 0);
                }
            }
        }
    }
}

#[test]
fn batched_path_records_nothing_in_off_mode() {
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let (reference, batched, stats) = dual_logged_run(base, 4, 50, LogMode::Off, false);
        assert!(reference.is_empty());
        assert!(batched.is_empty());
        assert_eq!(stats, vyrd::core::log::LogStats::default());
    }
}

/// `true` iff `needle` is a subsequence of `haystack` (order-preserving,
/// possibly with gaps).
fn is_subsequence(needle: &[Event], haystack: &[Event]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[test]
fn injected_append_drops_reconcile_against_the_reference() {
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let seed = base;
        for per_op in [false, true] {
            let scope = fault::install(FaultPlan::seeded(seed).rule(
                "log.append",
                FaultRule::always(FaultAction::Drop).with_probability(0.25),
            ));
            let (reference, batched, stats) = dual_logged_run(seed, 4, 150, LogMode::View, per_op);
            drop(scope);
            // The failpoint fires before an event is stamped, so surviving
            // events keep their relative order: the batched log is a
            // gapless-by-seq subsequence of the reference, and every missing
            // event is accounted.
            assert!(batched.len() < reference.len(), "plan injected no drops");
            assert!(
                is_subsequence(&batched, &reference),
                "seed {seed} per_op {per_op}: batched log is not a subsequence of the reference"
            );
            assert_eq!(
                stats.events_dropped_injected,
                (reference.len() - batched.len()) as u64,
                "seed {seed} per_op {per_op}: injected-drop accounting disagrees with the reference"
            );
            assert_eq!(stats.events, batched.len() as u64);
        }
    }
}

fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        threads: 4,
        calls_per_thread: 25,
        key_pool: 8,
        shrink_pool: true,
        internal_task: true,
        seed,
        pace: None,
    }
}

fn record_multi(scenario: &dyn Scenario, seed: u64) -> Vec<Event> {
    let log = EventLog::in_memory(CheckKind::View.log_mode());
    assert!(
        scenario.run_multi(&cfg(seed), &log, Variant::Correct, OBJECTS),
        "{} should support multi-object runs",
        scenario.name()
    );
    log.snapshot()
}

fn pool_verdict(scenario: &dyn Scenario, events: &[Event]) -> Report {
    let factory = scenario
        .shard_factory(CheckKind::View)
        .expect("scenario has a shard factory");
    let pool = VerifierPool::spawn(CheckKind::View.log_mode(), OBJECTS as usize, move |object| {
        factory(object)
    });
    pool.replay(events).merged
}

fn per_object_offline_verdicts(scenario: &dyn Scenario, events: &[Event]) -> Vec<Report> {
    let factory = scenario
        .shard_factory(CheckKind::View)
        .expect("scenario has a shard factory");
    partition_by_object(events.iter().cloned())
        .into_iter()
        .map(|(object, shard)| {
            let (tx, rx) = channel::unbounded();
            for e in shard {
                tx.send(e).expect("receiver alive");
            }
            drop(tx);
            factory(object).check(&rx)
        })
        .collect()
}

#[test]
fn scenario_verdicts_are_identical_through_the_batched_pipeline() {
    // Real multi-object scenario traces, recorded through the batched
    // log, then checked twice: batched pipeline (pool + channel batches)
    // vs the reference offline per-object loop.
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let mut seeds = Rng::seed_from_u64(base ^ 0x5EED);
        for scenario in scenarios::all()
            .into_iter()
            .filter(|s| s.shard_factory(CheckKind::View).is_some())
        {
            for _ in 0..3 {
                let seed = seeds.next_u64();
                let events = record_multi(scenario.as_ref(), seed);
                let pooled = pool_verdict(scenario.as_ref(), &events);
                let offline = per_object_offline_verdicts(scenario.as_ref(), &events);
                let offline_pass = offline.iter().all(Report::passed);
                assert!(
                    offline_pass,
                    "{} seed {seed}: correct variant must pass offline",
                    scenario.name()
                );
                assert_eq!(
                    pooled.passed(),
                    offline_pass,
                    "{} seed {seed}: batched pipeline verdict diverges: {pooled}",
                    scenario.name()
                );
            }
        }
    }
}
