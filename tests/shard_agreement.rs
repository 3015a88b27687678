//! Sharded verification (§8) must be verdict-preserving: checking each
//! object's log shard independently — the way a [`VerifierPool`] does —
//! has to reach the same verdict as offline per-object checks of the
//! same recorded multi-object trace, with the bug compiled in and out.
//!
//! The test records one multi-object run per seed, then checks the same
//! trace twice: once through a `VerifierPool` (events re-appended with
//! thread and object ids intact), once by partitioning the trace with
//! [`partition_by_object`] and running the scenario's per-object checker
//! over each shard. Seeds come from a fixed [`vyrd_rt::rng`] block so a
//! failure replays exactly.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use vyrd::core::log::{EventLog, LogMode};
use vyrd::core::pool::{PoolReport, SupervisorConfig, VerifierPool};
use vyrd::core::shard::{partition_by_object, ShardConfig};
use vyrd::core::{Event, Report};
use vyrd::harness::scenario::{CheckKind, Scenario, Variant};
use vyrd::harness::scenarios;
use vyrd::harness::workload::WorkloadConfig;
use vyrd::rt::channel;
use vyrd::rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd::rt::rng::Rng;

const OBJECTS: u32 = 3;

/// The fault registry is process-global and the supervision tests below
/// install plans whose `pool.check.*` sites would fire inside *any*
/// concurrently running pool — so every test in this binary takes this
/// lock first.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
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

/// Records one multi-object run into an in-memory log.
fn record_multi(scenario: &dyn Scenario, seed: u64, variant: Variant) -> Vec<Event> {
    let log = EventLog::in_memory(CheckKind::View.log_mode());
    assert!(
        scenario.run_multi(&cfg(seed), &log, variant, OBJECTS),
        "{} should support multi-object runs",
        scenario.name()
    );
    log.snapshot()
}

/// The pool verdict for a recorded trace: re-append every event (thread
/// and object ids intact) into a pool's log and collect the merged report.
fn pool_verdict(scenario: &dyn Scenario, events: &[Event]) -> Report {
    let factory = scenario
        .shard_factory(CheckKind::View)
        .expect("scenario has a shard factory");
    let pool = VerifierPool::spawn(CheckKind::View.log_mode(), OBJECTS as usize, move |object| {
        factory(object)
    });
    pool.replay(events).merged
}

/// Like [`pool_verdict`] with explicit supervision, keeping the
/// per-object reports.
fn pool_report_supervised(
    scenario: &dyn Scenario,
    events: &[Event],
    supervisor: SupervisorConfig,
) -> PoolReport {
    let factory = scenario
        .shard_factory(CheckKind::View)
        .expect("scenario has a shard factory");
    let pool = VerifierPool::spawn_supervised(
        CheckKind::View.log_mode(),
        OBJECTS as usize,
        ShardConfig::default(),
        supervisor,
        move |object| factory(object),
    );
    pool.replay(events)
}

/// The reference verdict: partition the trace by object and run one
/// offline checker per shard; the trace passes iff every shard passes.
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

fn assert_agreement(scenario: &dyn Scenario, seed: u64, variant: Variant) -> bool {
    let events = record_multi(scenario, seed, variant);
    let pooled = pool_verdict(scenario, &events);
    let offline = per_object_offline_verdicts(scenario, &events);
    let offline_pass = offline.iter().all(Report::passed);
    assert_eq!(
        pooled.passed(),
        offline_pass,
        "{} seed {seed} {variant:?}: pool={pooled} per-object={:?}",
        scenario.name(),
        offline.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    // The merged report keeps the first failing object's violation, so
    // when both sides fail they must blame the same violation category.
    if let Some(v) = &pooled.violation {
        let first_offline = offline
            .iter()
            .find_map(|r| r.violation.as_ref())
            .expect("some shard failed");
        assert_eq!(v.category(), first_offline.category(), "{} seed {seed}", scenario.name());
    }
    pooled.passed()
}

fn sharded_scenarios() -> Vec<Box<dyn Scenario>> {
    scenarios::all()
        .into_iter()
        .filter(|s| s.shard_factory(CheckKind::View).is_some())
        .collect()
}

#[test]
fn pool_agrees_with_per_object_offline_checks_bug_off() {
    let _serial = serial();
    let mut rng = Rng::seed_from_u64(0x5AD5_0001);
    for scenario in sharded_scenarios() {
        for _ in 0..6 {
            let seed = rng.next_u64();
            let passed = assert_agreement(scenario.as_ref(), seed, Variant::Correct);
            assert!(passed, "{} seed {seed}: correct variant must pass", scenario.name());
        }
    }
}

#[test]
fn pool_agrees_with_per_object_offline_checks_bug_on() {
    // Buggy variants are racy — individual seeds may or may not trip the
    // bug — but sharded and per-object offline verdicts on the *same*
    // recorded trace must agree either way.
    let _serial = serial();
    let mut rng = Rng::seed_from_u64(0x5AD5_0002);
    for scenario in sharded_scenarios() {
        for _ in 0..6 {
            let seed = rng.next_u64();
            assert_agreement(scenario.as_ref(), seed, Variant::Buggy);
        }
    }
}

#[test]
fn pool_reports_an_injected_violation_like_the_offline_checks_do() {
    // The racy buggy variants may never trip under a given scheduler, so
    // force the failing side of the agreement with a trace that is wrong
    // by construction: object 1's log claims a successful LookUp of a key
    // that was never inserted anywhere.
    use vyrd::core::{ObjectId, Value};
    let _serial = serial();
    let scenario = scenarios::by_name("Multiset-Vector").expect("known scenario");
    let log = EventLog::in_memory(LogMode::View);
    let seed = 0x5AD5_0003;
    assert!(scenario.run_multi(&cfg(seed), &log, Variant::Correct, OBJECTS));
    let bad = log.with_object(ObjectId(1)).logger();
    bad.call("LookUp", &[Value::from(404_404i64)]);
    bad.commit();
    bad.ret("LookUp", Value::from(true));
    let events = log.snapshot();

    let pooled = pool_verdict(scenario.as_ref(), &events);
    let offline = per_object_offline_verdicts(scenario.as_ref(), &events);
    assert!(!pooled.passed(), "pool must flag the impossible LookUp");
    assert_eq!(
        offline.iter().filter(|r| !r.passed()).count(),
        1,
        "exactly the poisoned object's shard fails offline"
    );
    let bad_offline = offline.iter().find(|r| !r.passed()).expect("failing shard");
    assert_eq!(
        pooled.violation.as_ref().map(|v| v.category()),
        bad_offline.violation.as_ref().map(|v| v.category())
    );
}

#[test]
fn injected_checker_panic_is_restarted_and_agreement_survives() {
    // Panic shard 1's checker once via the `pool.check.1` failpoint: the
    // supervisor rebuilds it, the retry sees the full shard (the site
    // fires before any event is consumed), and every per-object verdict
    // still matches the offline ground truth — under an explicitly
    // DEGRADED PASS, never a clean one.
    use vyrd::core::{ObjectId, Verdict};
    let _serial = serial();
    let seed = 0x5AD5_0004;
    for scenario in sharded_scenarios() {
        let events = record_multi(scenario.as_ref(), seed, Variant::Correct);
        let _scope = fault::install(
            FaultPlan::seeded(seed).rule("pool.check.1", FaultRule::once(FaultAction::Panic)),
        );
        let all = pool_report_supervised(scenario.as_ref(), &events, SupervisorConfig::default());
        drop(_scope);
        assert!(
            all.merged.degradation.restarts >= 1,
            "{}: no restart recorded: {}",
            scenario.name(),
            all.merged
        );
        assert_eq!(
            all.merged.verdict(),
            Verdict::DegradedPass,
            "{}: {}",
            scenario.name(),
            all.merged
        );
        let failure = &all.merged.degradation.shard_failures[0];
        assert_eq!(failure.object, ObjectId(1));
        assert!(failure.panic_msg.contains("pool.check.1"), "{}", failure.panic_msg);
        let offline = per_object_offline_verdicts(scenario.as_ref(), &events);
        assert_eq!(all.per_object.len(), offline.len());
        for ((object, pooled), offline) in all.per_object.iter().zip(&offline) {
            assert_eq!(
                pooled.passed(),
                offline.passed(),
                "{} {object}: pool={pooled} offline={offline}",
                scenario.name()
            );
        }
    }
}

#[test]
fn exhausted_shard_leaves_the_other_verdicts_matching_offline() {
    // Shard 1's checker panics on *every* attempt; the supervisor abandons
    // it with a structured ShardFailure, and the other K-1 shards' verdicts
    // still match the offline per-object checks of the same trace.
    use vyrd::core::ObjectId;
    let _serial = serial();
    let seed = 0x5AD5_0005;
    for scenario in sharded_scenarios() {
        let events = record_multi(scenario.as_ref(), seed, Variant::Correct);
        let _scope = fault::install(
            FaultPlan::seeded(seed).rule("pool.check.1", FaultRule::always(FaultAction::Panic)),
        );
        let supervisor = SupervisorConfig {
            max_restarts: 1,
            backoff: Duration::from_micros(200),
            ..SupervisorConfig::default()
        };
        let all = pool_report_supervised(scenario.as_ref(), &events, supervisor);
        drop(_scope);
        let failure = all
            .merged
            .degradation
            .shard_failures
            .iter()
            .find(|f| f.object == ObjectId(1))
            .unwrap_or_else(|| panic!("{}: no ShardFailure for object 1", scenario.name()));
        assert_eq!(failure.restarts, 1);
        assert!(failure.events_lost > 0, "abandoned shard lost its queue");
        assert!(all.merged.is_degraded(), "{}", all.merged);
        let offline = per_object_offline_verdicts(scenario.as_ref(), &events);
        // Shard order is stable (sorted by object id), so index K maps to
        // object K in both lists; skip the abandoned object 1.
        for ((object, pooled), offline) in all.per_object.iter().zip(&offline) {
            if *object == ObjectId(1) {
                continue;
            }
            assert_eq!(
                pooled.passed(),
                offline.passed(),
                "{} {object}: pool={pooled} offline={offline}",
                scenario.name()
            );
        }
    }
}
