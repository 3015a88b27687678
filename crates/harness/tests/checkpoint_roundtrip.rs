//! Checkpoint round-trip coverage for every scenario family: a checker
//! split at an arbitrary event boundary, serialized through the real
//! checkpoint *file* format (framed, checksummed, fsynced), restored
//! into a fresh checker, and fed the rest of the trace must end with
//! exactly the verdict and counters of a checker that saw the whole
//! trace in one sitting — on pinned seeds, for both the correct and the
//! buggy variant of each system.

use std::path::PathBuf;

use vyrd_core::segment::checkpoint::{self, Checkpoint};
use vyrd_core::violation::{Degradation, Report};
use vyrd_core::{Event, ObjectId, ThreadId, Value};
use vyrd_harness::scenario::{record_run, CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;

const SEED: u64 = 3_405_691_582;

fn cfg() -> WorkloadConfig {
    WorkloadConfig {
        threads: 3,
        calls_per_thread: 40,
        key_pool: 10,
        shrink_pool: true,
        internal_task: true,
        seed: SEED,
        pace: None,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vyrd-ckpt-{tag}-{}", std::process::id()))
}

/// Checks `events` straight through (the reference run).
fn check_scratch(scenario: &dyn Scenario, kind: CheckKind, events: &[Event]) -> Report {
    let factory = scenario.stepping_factory(kind).expect("stepping factory");
    let mut checker = factory(ObjectId(0));
    for e in events {
        checker.feed(e.clone());
    }
    checker.finish()
}

/// Checks `events` with a save/persist/restore cycle at `split`: the
/// state crosses the on-disk checkpoint format, not just memory.
fn check_via_checkpoint(
    scenario: &dyn Scenario,
    kind: CheckKind,
    events: &[Event],
    split: usize,
    tag: &str,
) -> Report {
    let factory = scenario.stepping_factory(kind).expect("stepping factory");
    let mut first = factory(ObjectId(0));
    for e in &events[..split] {
        first.feed(e.clone());
    }
    let state = first
        .save_state()
        .unwrap_or_else(|e| panic!("{} split {split}: save_state: {e}", scenario.name()));
    drop(first);

    let dir = temp_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let path = checkpoint::write_checkpoint(
        &dir,
        &Checkpoint {
            next_seq: split as u64,
            states: vec![(ObjectId(0), state)],
            degradation: Degradation::default(),
        },
    )
    .expect("write checkpoint")
    .path;
    let restored = checkpoint::read_checkpoint(&path).expect("read checkpoint");
    assert_eq!(restored.next_seq, split as u64);
    std::fs::remove_dir_all(&dir).ok();

    let mut second = factory(ObjectId(0));
    let (object, state) = &restored.states[0];
    assert_eq!(*object, ObjectId(0));
    second
        .restore_state(state)
        .unwrap_or_else(|e| panic!("{} split {split}: restore_state: {e}", scenario.name()));
    for e in &events[split..] {
        second.feed(e.clone());
    }
    second.finish()
}

/// The equality contract between a from-scratch report and a
/// replay-from-checkpoint report over the same trace.
fn assert_reports_agree(scratch: &Report, resumed: &Report, what: &str) {
    assert_eq!(scratch.passed(), resumed.passed(), "{what}: verdicts differ");
    assert_eq!(
        scratch.violation.as_ref().map(|v| v.category()),
        resumed.violation.as_ref().map(|v| v.category()),
        "{what}: violation categories differ\nscratch: {scratch}\nresumed: {resumed}"
    );
    let (a, b) = (&scratch.stats, &resumed.stats);
    assert_eq!(a.events, b.events, "{what}: events");
    assert_eq!(a.commits_applied, b.commits_applied, "{what}: commits");
    assert_eq!(a.methods_completed, b.methods_completed, "{what}: methods");
    assert_eq!(a.observers_checked, b.observers_checked, "{what}: observers");
    assert_eq!(a.view_comparisons, b.view_comparisons, "{what}: view comparisons");
    assert_eq!(a.writes_replayed, b.writes_replayed, "{what}: writes replayed");
    assert_eq!(
        a.lin_windows_searched, b.lin_windows_searched,
        "{what}: lin windows searched"
    );
    assert_eq!(
        a.lin_witness_backtracks, b.lin_witness_backtracks,
        "{what}: lin witness backtracks"
    );
}

/// Sweeps a few split points (including mid-trace positions certain to
/// bisect in-flight methods) for one scenario/kind/variant combination.
fn roundtrip(scenario: &dyn Scenario, kind: CheckKind, variant: Variant, tag: &str) {
    let run = record_run(scenario, &cfg(), kind.log_mode(), variant);
    let events = run.events;
    assert!(events.len() > 16, "{tag}: trace too small");
    let scratch = check_scratch(scenario, kind, &events);
    let n = events.len();
    // Quarter points bisect in-flight methods; 0 and n are the edges
    // (checkpoint before anything / after everything).
    for split in [n / 4, n / 2, 3 * n / 4, n / 3 + 1, 0, n] {
        let resumed = check_via_checkpoint(scenario, kind, &events, split, tag);
        assert_reports_agree(
            &scratch,
            &resumed,
            &format!("{tag} {variant:?} split {split}/{n}"),
        );
    }
}

#[test]
fn io_checkpoints_round_trip_for_every_scenario_family() {
    for s in scenarios::all() {
        roundtrip(s.as_ref(), CheckKind::Io, Variant::Correct, s.name());
    }
}

#[test]
fn io_checkpoints_preserve_buggy_verdicts() {
    // The buggy variants' violations are interleaving-dependent, so the
    // contract here is *agreement*, not necessarily failure: whatever the
    // scratch checker concluded on this pinned trace, the resumed checker
    // must conclude too — a checkpoint must never mask a violation.
    for s in scenarios::all() {
        roundtrip(
            s.as_ref(),
            CheckKind::Io,
            Variant::Buggy,
            &format!("{}-buggy", s.name()),
        );
    }
}

#[test]
fn view_checkpoints_round_trip_where_the_replayer_supports_them() {
    let s = scenarios::CacheScenario;
    roundtrip(&s, CheckKind::View, Variant::Correct, "Cache-view");
    roundtrip(&s, CheckKind::View, Variant::Buggy, "Cache-view-buggy");

    let s = scenarios::MultisetVectorScenario;
    roundtrip(&s, CheckKind::View, Variant::Correct, "Multiset-Vector-view");
    roundtrip(&s, CheckKind::View, Variant::Buggy, "Multiset-Vector-view-buggy");

    let s = scenarios::MultisetBstScenario;
    roundtrip(&s, CheckKind::View, Variant::Correct, "Multiset-BinaryTree-view");
    roundtrip(&s, CheckKind::View, Variant::Buggy, "Multiset-BinaryTree-view-buggy");
}

#[test]
fn lin_checkpoints_round_trip_with_their_retained_digests() {
    // What a Lin checker retains per open window is the observer's
    // read-ahead return and how far its search has got (the name predates
    // that; it stays so the test keeps its id). Both must cross the
    // checkpoint boundary so a resumed checker searches exactly the
    // windows — and rejects exactly the candidates — of a from-scratch one.
    for s in scenarios::all().into_iter().chain(scenarios::lockfree()) {
        roundtrip(s.as_ref(), CheckKind::Lin, Variant::Correct, &format!("{}-lin", s.name()));
    }
    for s in scenarios::lockfree() {
        roundtrip(
            s.as_ref(),
            CheckKind::Lin,
            Variant::Buggy,
            &format!("{}-lin-buggy", s.name()),
        );
    }

    // A cut certain to fall inside a Lin window whose search is under
    // way: the Peek's return is fed while the Push's is still out, so the
    // checker has judged the empty stack, rejected it, and is parked on
    // the Push's commit.
    let (peeker, pusher, object) = (ThreadId(1), ThreadId(2), ObjectId(0));
    let call = |tid, method: &str, args: &[Value]| Event::Call {
        tid,
        object,
        method: method.into(),
        args: args.into(),
    };
    let ret = |tid, method: &str, ret| Event::Return {
        tid,
        object,
        method: method.into(),
        ret,
    };
    let events = [
        call(peeker, "Peek", &[]),
        call(pusher, "Push", &[Value::from(5i64)]),
        Event::Commit { tid: pusher, object },
        ret(peeker, "Peek", Value::from(5i64)),
        ret(pusher, "Push", Value::success()),
    ];
    let stack = scenarios::by_name("Treiber-Stack").expect("lock-free family");
    let mut first = stack.stepping_factory(CheckKind::Lin).expect("lin factory")(object);
    for e in &events[..4] {
        first.feed(e.clone());
    }
    let state = first.save_state().expect("StackSpec checkpoints");
    let pending = state.as_list().expect("state fields")[6]
        .as_list()
        .expect("pending executions");
    let peek = pending[0].as_list().expect("ordered by thread id");
    assert_eq!(peek[1], Value::from("Peek"));
    assert_eq!(peek[7], Value::List(vec![Value::from(5i64)]), "the read-ahead return");
    assert_eq!((&peek[8], &peek[9]), (&Value::Bool(false), &Value::from(1i64)));
    let scratch = check_scratch(stack.as_ref(), CheckKind::Lin, &events);
    assert!(scratch.passed(), "{scratch}");
    assert_eq!(scratch.stats.lin_witness_backtracks, 1);
    let resumed = check_via_checkpoint(stack.as_ref(), CheckKind::Lin, &events, 4, "lin-window");
    assert_reports_agree(&scratch, &resumed, "cut inside a Lin window");
}
