//! Online checking (a verification thread fed through a channel, §4.2)
//! must return the same verdict as offline checking of the same recorded
//! trace.

use vyrd::core::Event;
use vyrd::harness::scenario::{record_run, CheckKind, Variant};
use vyrd::harness::scenarios;
use vyrd::harness::workload::WorkloadConfig;

fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        threads: 3,
        calls_per_thread: 30,
        key_pool: 8,
        shrink_pool: true,
        internal_task: true,
        seed,
        pace: None,
    }
}

/// Replays a recorded trace through a channel to the scenario's stream
/// checker.
fn check_via_channel(
    scenario: &dyn vyrd::harness::scenario::Scenario,
    kind: CheckKind,
    events: Vec<Event>,
) -> vyrd::core::Report {
    // Reuse the EventLog channel sink so the events flow exactly as they
    // would online: re-append each recorded event (thread and object ids
    // intact), then close the log.
    let (log, rx) = vyrd::core::log::EventLog::to_channel(vyrd::core::log::LogMode::View);
    for e in &events {
        log.append_event(e.clone());
    }
    log.close();
    drop(log);
    let factory = scenario
        .shard_factory(kind)
        .expect("every table scenario checks Io and View");
    factory(vyrd::core::ObjectId::DEFAULT).check(&rx)
}

#[test]
fn verdicts_agree_on_correct_runs() {
    for scenario in scenarios::all() {
        let run = record_run(
            scenario.as_ref(),
            &cfg(11),
            vyrd::core::log::LogMode::View,
            Variant::Correct,
        );
        for kind in [CheckKind::Io, CheckKind::View] {
            let offline = scenario.check(kind, run.events.clone());
            let online = check_via_channel(scenario.as_ref(), kind, run.events.clone());
            assert_eq!(
                offline.passed(),
                online.passed(),
                "{} {kind:?}: offline={offline} online={online}",
                scenario.name()
            );
            assert!(offline.passed(), "{}: {offline}", scenario.name());
        }
    }
}

#[test]
fn verdicts_agree_on_buggy_runs() {
    // Whatever the offline verdict is (bugs are racy, so it may pass or
    // fail), the online check of the *same* trace must agree exactly.
    for scenario in scenarios::all() {
        for seed in [1u64, 2, 3] {
            let run = record_run(
                scenario.as_ref(),
                &cfg(seed),
                vyrd::core::log::LogMode::View,
                Variant::Buggy,
            );
            let offline = scenario.check(CheckKind::View, run.events.clone());
            let online = check_via_channel(scenario.as_ref(), CheckKind::View, run.events);
            assert_eq!(
                offline.passed(),
                online.passed(),
                "{} seed {seed}",
                scenario.name()
            );
            if let (Some(a), Some(b)) = (&offline.violation, &online.violation) {
                assert_eq!(a.category(), b.category(), "{}", scenario.name());
            }
        }
    }
}
