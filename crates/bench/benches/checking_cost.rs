//! The paper ablations no `benchmark/` ledger metric answers, each over
//! one recorded trace:
//!
//! * §6.4 — view refinement with incremental vs full view comparison;
//! * §8 — per-commit view checking vs the quiescent-only baseline;
//! * §2 — exhaustive serialization search vs the commit-order witness.
//!
//! Prints per-id statistics and records nothing. (I/O vs view checking
//! cost per scenario is `checker.{io,view}_ns_per_event.*` in the ledger.)

use vyrd_core::checker::{Checker, CheckerOptions, ViewCheckPolicy};
use vyrd_core::log::LogMode;
use vyrd_core::Event;
use vyrd_harness::scenario::{record_run, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;
use vyrd_multiset::{MultisetSpec, SlotReplayer};
use vyrd_rt::bench::{black_box, BenchGroup};

const SEED: u64 = 0xFEED;

fn recorded_trace(scenario: &dyn Scenario) -> Vec<Event> {
    let cfg = WorkloadConfig {
        threads: 4,
        calls_per_thread: 100,
        key_pool: 12,
        shrink_pool: true,
        internal_task: false,
        seed: SEED,
        pace: None,
    };
    record_run(scenario, &cfg, LogMode::View, Variant::Correct).events
}

/// The §6.4 ablation on the multiset: incremental vs full view
/// comparison over the identical trace.
fn view_incremental_ablation() {
    let scenario = scenarios::by_name("Multiset-Vector").expect("known scenario");
    let events = recorded_trace(scenario.as_ref());
    let mut group = BenchGroup::new("view_incremental_ablation");
    group.sample_size(20);
    group.bench("incremental", || {
        black_box(
            Checker::view(MultisetSpec::new(), SlotReplayer::new()).check_events(events.clone()),
        );
    });
    group.bench("full", || {
        black_box(
            Checker::view(MultisetSpec::new(), SlotReplayer::new())
                .with_options(CheckerOptions {
                    full_view_compare: true,
                    ..CheckerOptions::default()
                })
                .check_events(events.clone()),
        );
    });
}

/// The §8 baseline comparison: per-commit view checking (VYRD) vs
/// quiescent-only checking (commit atomicity) over the identical trace.
fn quiescent_policy_ablation() {
    let scenario = scenarios::by_name("Multiset-Vector").expect("known scenario");
    let events = recorded_trace(scenario.as_ref());
    let mut group = BenchGroup::new("view_check_policy");
    group.sample_size(20);
    for (policy, label) in [
        (ViewCheckPolicy::EveryCommit, "every_commit"),
        (ViewCheckPolicy::QuiescentOnly, "quiescent_only"),
    ] {
        group.bench(label, || {
            black_box(
                Checker::view(MultisetSpec::new(), SlotReplayer::new())
                    .with_options(CheckerOptions {
                        view_check_policy: policy,
                        ..CheckerOptions::default()
                    })
                    .check_events(events.clone()),
            );
        });
    }
}

/// The §2 scalability argument quantified: checking a window of `n`
/// fully overlapping mutators by exhaustive serialization enumeration
/// (the "naive method ... evaluating 4! serializations") vs the
/// commit-order witness, on the same trace.
fn naive_blowup() {
    use vyrd_core::checker::naive::check_exhaustive;
    use vyrd_core::{ObjectId, ThreadId, Value};

    // n overlapping Inserts followed by a LookUp that no serialization
    // justifies, forcing the naive search to exhaust all n! orders.
    fn overlapping_trace(n: u32, with_commits: bool) -> Vec<Event> {
        let mut events = Vec::new();
        for t in 0..n {
            events.push(Event::Call {
                tid: ThreadId(t),
                object: ObjectId::DEFAULT,
                method: "Insert".into(),
                args: vec![Value::from(i64::from(t))].into(),
            });
        }
        events.push(Event::Call {
            tid: ThreadId(n),
            object: ObjectId::DEFAULT,
            method: "LookUp".into(),
            args: vec![Value::from(i64::from(n) + 1_000)].into(),
        });
        for t in 0..n {
            if with_commits {
                events.push(Event::Commit { tid: ThreadId(t), object: ObjectId::DEFAULT });
            }
            events.push(Event::Return {
                tid: ThreadId(t),
                object: ObjectId::DEFAULT,
                method: "Insert".into(),
                ret: Value::success(),
            });
        }
        events.push(Event::Return {
            tid: ThreadId(n),
            object: ObjectId::DEFAULT,
            method: "LookUp".into(),
            ret: Value::from(true), // never inserted: no witness exists
        });
        events
    }

    let mut group = BenchGroup::new("naive_blowup");
    group.sample_size(10);
    for n in [4u32, 6, 8] {
        let exhaustive_events = overlapping_trace(n, false);
        group.bench(&format!("exhaustive/{n}"), || {
            black_box(check_exhaustive(
                &MultisetSpec::new(),
                &exhaustive_events,
                u64::MAX,
            ));
        });
        let commit_events = overlapping_trace(n, true);
        group.bench(&format!("commit_order/{n}"), || {
            black_box(Checker::io(MultisetSpec::new()).check_events(commit_events.clone()));
        });
    }
}

fn main() {
    eprintln!("workload seed: {SEED:#x}");
    view_incremental_ablation();
    quiescent_policy_ablation();
    naive_blowup();
}
