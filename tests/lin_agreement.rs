//! Linearizability checking (`CheckKind::Lin`) must be verdict-preserving
//! under sharding: checking each object's log shard independently through
//! a K=4 [`VerifierPool`] has to agree event-for-event with offline
//! per-object Lin checks of the same recorded multi-object trace — for
//! the correct and the buggy variant of both lock-free structures.
//!
//! Seeds come from a fixed [`vyrd_rt::rng`] block, drawn once from this
//! suite's own seed and once from the CI seed (`VYRD_FAULT_SEED` replaces
//! both, to replay one schedule). The buggy variants run their choreographed
//! prologue on object 0 before the workload threads start, so exactly
//! that shard carries a deterministic violation at every seed.
//!
//! The injected-drop case establishes the degradation contract: routed
//! events dropped on the floor must be *counted* and surface as a
//! degraded (or failing) report — never as a clean PASS that silently
//! skipped coverage, and never as a violation blamed on a shard whose
//! events all arrived.

mod common;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use vyrd::core::log::EventLog;
use vyrd::core::pool::{PoolReport, SupervisorConfig, VerifierPool};
use vyrd::core::shard::{partition_by_object, ShardConfig};
use vyrd::core::violation::Verdict;
use vyrd::core::{Event, ObjectId, Report};
use vyrd::harness::scenario::{CheckKind, Scenario, Variant};
use vyrd::harness::scenarios;
use vyrd::harness::workload::WorkloadConfig;
use vyrd::rt::channel;
use vyrd::rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd::rt::rng::Rng;

use common::base_seeds;

const OBJECTS: u32 = 4;

/// This suite's own seed; [`base_seeds`] adds the CI seed.
const DEFAULT_SEED: u64 = 0x0011_4EA7_0001;

/// The fault registry is process-global; every test in this binary takes
/// this lock so the injected-drop plan can't leak into a clean run.
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
        internal_task: false,
        seed,
        pace: None,
    }
}

/// Records one multi-object lock-free run into an in-memory Io-mode log
/// (the log mode Lin checking consumes).
fn record_multi(scenario: &dyn Scenario, seed: u64, variant: Variant) -> Vec<Event> {
    let log = EventLog::in_memory(CheckKind::Lin.log_mode());
    assert!(
        scenario.run_multi(&cfg(seed), &log, variant, OBJECTS),
        "{} should support multi-object runs",
        scenario.name()
    );
    log.snapshot()
}

/// The sharded verdict: re-append every event (thread and object ids
/// intact) into a K-worker pool of Lin checkers.
fn pool_report(scenario: &dyn Scenario, events: &[Event]) -> PoolReport {
    let factory = scenario
        .shard_factory(CheckKind::Lin)
        .expect("lock-free scenario has a Lin shard factory");
    let pool = VerifierPool::spawn_supervised(
        CheckKind::Lin.log_mode(),
        OBJECTS as usize,
        ShardConfig::default(),
        SupervisorConfig::default(),
        move |object| factory(object),
    );
    pool.replay(events)
}

/// The unsharded reference: partition the trace by object and run one
/// offline Lin checker per shard.
fn per_object_offline(scenario: &dyn Scenario, events: &[Event]) -> Vec<(ObjectId, Report)> {
    let factory = scenario
        .shard_factory(CheckKind::Lin)
        .expect("lock-free scenario has a Lin shard factory");
    partition_by_object(events.iter().cloned())
        .into_iter()
        .map(|(object, shard)| {
            let (tx, rx) = channel::unbounded();
            for e in shard {
                tx.send(e).expect("receiver alive");
            }
            drop(tx);
            (object, factory(object).check(&rx))
        })
        .collect()
}

/// The event-for-event agreement contract between a pooled shard report
/// and its offline reference: same verdict, same violation category and
/// log position, same event/commit/observer/lin counters.
fn assert_shards_agree(
    scenario: &dyn Scenario,
    seed: u64,
    pooled: &[(ObjectId, Report)],
    offline: &[(ObjectId, Report)],
) {
    assert_eq!(pooled.len(), offline.len(), "{} seed {seed}: shard counts", scenario.name());
    for ((po, pr), (oo, or)) in pooled.iter().zip(offline) {
        let what = format!("{} seed {seed} {po}", scenario.name());
        assert_eq!(po, oo, "{what}: shard order");
        assert_eq!(pr.passed(), or.passed(), "{what}: pool={pr} offline={or}");
        assert_eq!(
            pr.violation.as_ref().map(|v| (v.category(), v.log_position())),
            or.violation.as_ref().map(|v| (v.category(), v.log_position())),
            "{what}: violations differ\npool: {pr}\noffline: {or}"
        );
        let (a, b) = (&pr.stats, &or.stats);
        assert_eq!(a.events, b.events, "{what}: events");
        assert_eq!(a.commits_applied, b.commits_applied, "{what}: commits");
        assert_eq!(a.methods_completed, b.methods_completed, "{what}: methods");
        assert_eq!(a.observers_checked, b.observers_checked, "{what}: observers");
        assert_eq!(a.lin_windows_searched, b.lin_windows_searched, "{what}: lin windows");
        assert_eq!(a.lin_witness_backtracks, b.lin_witness_backtracks, "{what}: backtracks");
    }
}

#[test]
fn sharded_lin_agrees_with_offline_on_correct_variants() {
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let mut seeds = Rng::seed_from_u64(base);
        for scenario in scenarios::lockfree() {
            for _ in 0..4 {
                let seed = seeds.next_u64();
                let events = record_multi(scenario.as_ref(), seed, Variant::Correct);
                let all = pool_report(scenario.as_ref(), &events);
                let offline = per_object_offline(scenario.as_ref(), &events);
                assert!(
                    all.merged.verdict() == Verdict::Pass && !all.merged.is_degraded(),
                    "{} seed {seed}: correct variant must pass cleanly: {}",
                    scenario.name(),
                    all.merged
                );
                assert_shards_agree(scenario.as_ref(), seed, &all.per_object, &offline);
            }
        }
    }
}

#[test]
fn sharded_lin_agrees_with_offline_on_buggy_variants() {
    // The choreographed prologue runs on object 0 before the workload,
    // so at every seed that shard carries a deterministic violation and
    // the other K−1 shards are healthy.
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let mut seeds = Rng::seed_from_u64(base ^ 0xB06);
        for scenario in scenarios::lockfree() {
            for _ in 0..4 {
                let seed = seeds.next_u64();
                let events = record_multi(scenario.as_ref(), seed, Variant::Buggy);
                let all = pool_report(scenario.as_ref(), &events);
                let offline = per_object_offline(scenario.as_ref(), &events);
                assert!(!all.merged.passed(), "{} seed {seed}: {}", scenario.name(), all.merged);
                let bad = offline
                    .iter()
                    .find(|(o, _)| *o == ObjectId(0))
                    .expect("object 0 shard");
                assert!(
                    !bad.1.passed(),
                    "{} seed {seed}: the prologue shard must fail: {}",
                    scenario.name(),
                    bad.1
                );
                assert_eq!(
                    bad.1.violation.as_ref().map(|v| v.category()),
                    Some("spec-rejected-commit"),
                    "{} seed {seed}",
                    scenario.name()
                );
                assert_shards_agree(scenario.as_ref(), seed, &all.per_object, &offline);
            }
        }
    }
}

#[test]
fn injected_routing_drops_degrade_and_never_forge() {
    // Drop a budget of routed events on the floor mid-stream. The pool
    // must count every loss and refuse to call the run a clean PASS —
    // and whatever it does report must not *forge* a violation against a
    // shard whose events all arrived: any blamed shard must be one that
    // actually lost events or one the healthy offline check fails too.
    const DROPS: u64 = 7;
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let seed = base ^ 0xD20B;
        for scenario in scenarios::lockfree() {
            let events = record_multi(scenario.as_ref(), seed, Variant::Correct);
            let offline = per_object_offline(scenario.as_ref(), &events);
            assert!(offline.iter().all(|(_, r)| r.passed()), "healthy trace must pass offline");
            let _scope = fault::install(FaultPlan::seeded(seed).rule(
                "shard.route",
                FaultRule::always(FaultAction::Drop).after(3).times(DROPS),
            ));
            let all = pool_report(scenario.as_ref(), &events);
            drop(_scope);
            let d = &all.merged.degradation;
            assert_eq!(
                d.injected_sheds(),
                DROPS,
                "{}: every dropped event must be counted, once: {}",
                scenario.name(),
                all.merged
            );
            // A checker that stops at the hole hangs up, and what the router
            // then cannot deliver to it is shed as well — nothing else is.
            assert_eq!(d.sheds(), d.shed_windows.iter().map(|w| w.events).sum::<u64>());
            for w in &d.shed_windows {
                assert!(
                    w.events == w.injected || w.abandoned_at_seq.is_some(),
                    "{}: sheds beyond the injected ones without a hang-up: {}",
                    scenario.name(),
                    all.merged
                );
            }
            assert_ne!(
                all.merged.verdict(),
                Verdict::Pass,
                "{}: lost coverage reported as a clean PASS: {}",
                scenario.name(),
                all.merged
            );
            // Degrades, never forges: shards with no recorded loss must reach
            // the same passing verdict the offline reference does.
            let lossy: Vec<ObjectId> = d
                .sheds_by_object
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(o, _)| *o)
                .collect();
            for (object, report) in &all.per_object {
                if lossy.contains(object) {
                    continue;
                }
                assert!(
                    report.passed(),
                    "{} {object}: no events were lost here, yet the pool failed it: {report}",
                    scenario.name()
                );
            }
        }
    }
}
