//! Engine tests against a small key–value register specification.

use std::collections::BTreeMap;

use crate::checker::{Checker, CheckerOptions, Invariant};
use crate::event::{Event, MethodId, ObjectId, ThreadId, VarId};
use crate::replay::Replayer;
use crate::spec::{MethodKind, Spec, SpecEffect, SpecError};
use crate::value::Value;
use crate::view::View;
use crate::violation::Violation;

/// Specification: a map of integer registers.
///
/// * `Put(k, v)` — mutator, returns unit.
/// * `Get(k)` — observer, returns the current value (0 if unset).
/// * `Touch(k)` — mutator that must leave the state unchanged (models
///   internal maintenance such as a compression pass).
#[derive(Clone, Default)]
struct RegSpec {
    regs: BTreeMap<i64, i64>,
}

impl Spec for RegSpec {
    fn kind(&self, method: &MethodId) -> MethodKind {
        if method.name() == "Get" {
            MethodKind::Observer
        } else {
            MethodKind::Mutator
        }
    }

    fn apply(
        &mut self,
        method: &MethodId,
        args: &[Value],
        _ret: &Value,
    ) -> Result<SpecEffect, SpecError> {
        match method.name() {
            "Put" => {
                let k = args[0].as_int().unwrap();
                let v = args[1].as_int().unwrap();
                self.regs.insert(k, v);
                Ok(SpecEffect::touching([k]))
            }
            "Touch" => Ok(SpecEffect::unchanged()),
            other => Err(SpecError::new(format!("unknown mutator {other}"))),
        }
    }

    fn accepts_observation(&self, _method: &MethodId, args: &[Value], ret: &Value) -> bool {
        let k = args[0].as_int().unwrap();
        ret.as_int() == Some(self.regs.get(&k).copied().unwrap_or(0))
    }

    fn view(&self) -> View {
        self.regs
            .iter()
            .map(|(&k, &v)| (Value::from(k), Value::from(v)))
            .collect()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        let k = key.as_int()?;
        self.regs.get(&k).map(|&v| Value::from(v))
    }

    fn save_state(&self) -> Option<Value> {
        Some(
            self.regs
                .iter()
                .map(|(&k, &v)| Value::pair(Value::from(k), Value::from(v)))
                .collect(),
        )
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        let malformed = || SpecError::new("malformed register state");
        self.regs.clear();
        for entry in state.as_list().ok_or_else(malformed)? {
            let (k, v) = entry.as_pair().ok_or_else(malformed)?;
            self.regs.insert(
                k.as_int().ok_or_else(malformed)?,
                v.as_int().ok_or_else(malformed)?,
            );
        }
        Ok(())
    }
}

/// Replayer: registers are written through `VarId::new("reg", k)`.
#[derive(Default)]
struct RegReplayer {
    regs: BTreeMap<i64, i64>,
    dirty: Vec<Value>,
}

impl Replayer for RegReplayer {
    fn apply_write(&mut self, var: &VarId, value: &Value) {
        assert_eq!(var.space(), "reg");
        self.regs.insert(var.index(), value.as_int().unwrap());
        self.dirty.push(Value::from(var.index()));
    }

    fn view(&self) -> View {
        self.regs
            .iter()
            .map(|(&k, &v)| (Value::from(k), Value::from(v)))
            .collect()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        let k = key.as_int()?;
        self.regs.get(&k).map(|&v| Value::from(v))
    }

    fn take_dirty(&mut self) -> Option<Vec<Value>> {
        Some(std::mem::take(&mut self.dirty))
    }
}

fn t(n: u32) -> ThreadId {
    ThreadId(n)
}

fn call(tid: u32, m: &str, args: &[i64]) -> Event {
    Event::Call {
        tid: t(tid),
        object: ObjectId::DEFAULT,
        method: m.into(),
        args: args.iter().map(|&a| Value::from(a)).collect(),
    }
}

fn ret(tid: u32, m: &str, value: Value) -> Event {
    Event::Return {
        tid: t(tid),
        object: ObjectId::DEFAULT,
        method: m.into(),
        ret: value,
    }
}

fn commit(tid: u32) -> Event {
    Event::Commit { tid: t(tid), object: ObjectId::DEFAULT }
}

fn write(tid: u32, k: i64, v: i64) -> Event {
    Event::Write {
        tid: t(tid),
        object: ObjectId::DEFAULT,
        var: VarId::new("reg", k),
        value: Value::from(v),
    }
}

/// A full, correct Put execution by `tid`.
fn put(tid: u32, k: i64, v: i64) -> Vec<Event> {
    vec![
        call(tid, "Put", &[k, v]),
        write(tid, k, v),
        commit(tid),
        ret(tid, "Put", Value::Unit),
    ]
}

fn get(tid: u32, k: i64, result: i64) -> Vec<Event> {
    vec![call(tid, "Get", &[k]), ret(tid, "Get", Value::from(result))]
}

fn io_check(events: Vec<Event>) -> crate::violation::Report {
    Checker::io(RegSpec::default()).check_events(events)
}

fn view_check(events: Vec<Event>) -> crate::violation::Report {
    Checker::view(RegSpec::default(), RegReplayer::default()).check_events(events)
}

#[test]
fn sequential_run_passes_io() {
    let mut events = Vec::new();
    events.extend(put(0, 1, 10));
    events.extend(get(0, 1, 10));
    events.extend(put(0, 1, 11));
    events.extend(get(0, 1, 11));
    let report = io_check(events);
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.commits_applied, 2);
    assert_eq!(report.stats.methods_completed, 4);
    assert_eq!(report.stats.observers_checked, 2);
}

#[test]
fn wrong_observation_fails_io() {
    let mut events = Vec::new();
    events.extend(put(0, 1, 10));
    events.extend(get(0, 1, 99));
    let report = io_check(events);
    let v = report.violation.expect("must fail");
    assert_eq!(v.category(), "observer-unjustified");
    // The Put completed before detection.
    assert_eq!(report.stats.methods_completed, 1);
}

#[test]
fn commit_order_defines_the_witness_interleaving() {
    // T1 calls Put(1,10) first but T2's Put(1,20) commits first, so the
    // final value must be 10 (T1 overwrote) — Fig. 3's point that commit
    // order, not call order, serializes.
    let events = vec![
        call(1, "Put", &[1, 10]),
        call(2, "Put", &[1, 20]),
        commit(2),
        commit(1),
        ret(1, "Put", Value::Unit),
        ret(2, "Put", Value::Unit),
        call(1, "Get", &[1]),
        ret(1, "Get", Value::from(10i64)),
    ];
    let report = io_check(events);
    assert!(report.passed(), "{report}");

    // And observing 20 at the end must fail.
    let events = vec![
        call(1, "Put", &[1, 10]),
        call(2, "Put", &[1, 20]),
        commit(2),
        commit(1),
        ret(1, "Put", Value::Unit),
        ret(2, "Put", Value::Unit),
        call(1, "Get", &[1]),
        ret(1, "Get", Value::from(20i64)),
    ];
    assert!(!io_check(events).passed());
}

#[test]
fn witness_is_recorded_in_commit_order() {
    let events = vec![
        call(1, "Put", &[1, 10]),
        call(2, "Put", &[2, 20]),
        commit(2),
        commit(1),
        ret(1, "Put", Value::Unit),
        ret(2, "Put", Value::Unit),
    ];
    let checker = Checker::io(RegSpec::default()).with_options(CheckerOptions {
        record_witness: true,
        ..CheckerOptions::default()
    });
    let (report, witness) = checker.check_events_with_witness(events);
    assert!(report.passed());
    assert_eq!(witness.len(), 2);
    assert_eq!(witness[0].tid, t(2));
    assert_eq!(witness[0].commit_index, 0);
    assert_eq!(witness[1].tid, t(1));
    assert!(witness[0].to_string().contains("Put"));
}

#[test]
fn observer_window_accepts_any_intermediate_state() {
    // Get(1) overlaps Put(1,10): both old (0) and new (10) values are
    // acceptable returns, per §4.3.
    for observed in [0i64, 10] {
        let events = vec![
            call(2, "Get", &[1]),
            call(1, "Put", &[1, 10]),
            commit(1),
            ret(1, "Put", Value::Unit),
            ret(2, "Get", Value::from(observed)),
        ];
        let report = io_check(events);
        assert!(report.passed(), "observed={observed}: {report}");
    }
    // But a value never present is not.
    let events = vec![
        call(2, "Get", &[1]),
        call(1, "Put", &[1, 10]),
        commit(1),
        ret(1, "Put", Value::Unit),
        ret(2, "Get", Value::from(7i64)),
    ];
    let report = io_check(events);
    match report.violation.expect("must fail") {
        Violation::ObserverUnjustified {
            window_start,
            window_end,
            ..
        } => {
            assert_eq!((window_start, window_end), (0, 1));
        }
        v => panic!("wrong violation {v}"),
    }
}

#[test]
fn observer_window_closes_at_return() {
    // The Put commits only *after* Get returned, so Get must see 0.
    let events = vec![
        call(2, "Get", &[1]),
        ret(2, "Get", Value::from(10i64)),
        call(1, "Put", &[1, 10]),
        commit(1),
        ret(1, "Put", Value::Unit),
    ];
    assert!(!io_check(events).passed());
}

#[test]
fn explicit_observer_commit_narrows_the_window() {
    // Get explicitly commits before Put(1,10) commits: observing 10 is no
    // longer justified even though it falls inside the call–return window.
    let events = vec![
        call(2, "Get", &[1]),
        commit(2),
        call(1, "Put", &[1, 10]),
        commit(1),
        ret(1, "Put", Value::Unit),
        ret(2, "Get", Value::from(10i64)),
    ];
    assert!(!io_check(events).passed());
    // Observing 0 at that pinned point is fine.
    let events = vec![
        call(2, "Get", &[1]),
        commit(2),
        call(1, "Put", &[1, 10]),
        commit(1),
        ret(1, "Put", Value::Unit),
        ret(2, "Get", Value::from(0i64)),
    ];
    assert!(io_check(events).passed());
}

#[test]
fn lookahead_finds_return_values_for_stalled_commits() {
    // T1 commits before T2, and T1's return appears after T2's whole
    // execution: the checker must look ahead for it.
    let events = vec![
        call(1, "Put", &[1, 10]),
        call(2, "Put", &[1, 20]),
        commit(1),
        commit(2),
        ret(2, "Put", Value::Unit),
        ret(1, "Put", Value::Unit),
        call(1, "Get", &[1]),
        ret(1, "Get", Value::from(20i64)),
    ];
    assert!(io_check(events).passed());
}

#[test]
fn mutator_without_commit_is_flagged() {
    let events = vec![call(0, "Put", &[1, 10]), ret(0, "Put", Value::Unit)];
    let report = io_check(events);
    assert_eq!(
        report.violation.unwrap().category(),
        "commit-annotation"
    );
}

#[test]
fn double_commit_is_flagged() {
    let events = vec![
        call(0, "Put", &[1, 10]),
        commit(0),
        commit(0),
        ret(0, "Put", Value::Unit),
    ];
    let report = io_check(events);
    assert_eq!(report.violation.unwrap().category(), "commit-annotation");
}

#[test]
fn malformed_logs_are_flagged() {
    // Return without call.
    let report = io_check(vec![ret(0, "Put", Value::Unit)]);
    assert_eq!(report.violation.unwrap().category(), "malformed-log");
    // Commit outside a method.
    let report = io_check(vec![commit(0)]);
    assert_eq!(report.violation.unwrap().category(), "malformed-log");
    // Nested call by the same thread.
    let report = io_check(vec![call(0, "Put", &[1, 1]), call(0, "Put", &[2, 2])]);
    assert_eq!(report.violation.unwrap().category(), "malformed-log");
    // Return from the wrong method.
    let report = io_check(vec![call(0, "Put", &[1, 1]), ret(0, "Get", Value::Unit)]);
    assert_eq!(report.violation.unwrap().category(), "malformed-log");
    // Commit whose return never arrives.
    let report = io_check(vec![call(0, "Put", &[1, 1]), commit(0)]);
    assert_eq!(report.violation.unwrap().category(), "malformed-log");
}

#[test]
fn unknown_mutator_is_a_spec_rejection() {
    let events = vec![
        call(0, "Frobnicate", &[1]),
        commit(0),
        ret(0, "Frobnicate", Value::Unit),
    ];
    let report = io_check(events);
    match report.violation.unwrap() {
        Violation::SpecRejectedCommit { reason, .. } => {
            assert!(reason.contains("Frobnicate"));
        }
        v => panic!("wrong violation {v}"),
    }
}

#[test]
fn view_refinement_passes_when_writes_match() {
    let mut events = Vec::new();
    events.extend(put(0, 1, 10));
    events.extend(put(1, 2, 20));
    events.extend(put(0, 1, 11));
    let report = view_check(events);
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.view_comparisons, 3);
    assert_eq!(report.stats.writes_replayed, 3);
}

#[test]
fn view_refinement_catches_a_lost_write_at_the_commit() {
    // The implementation committed Put(1,10) but never actually wrote the
    // register (a lost update): I/O refinement alone cannot see this until
    // an observer runs, view refinement flags it at the commit.
    let events = vec![
        call(0, "Put", &[1, 10]),
        // no Write event
        commit(0),
        ret(0, "Put", Value::Unit),
    ];
    let report = view_check(events);
    match report.violation.expect("must fail") {
        Violation::ViewMismatch {
            key,
            view_i,
            view_s,
            ..
        } => {
            assert_eq!(key, Value::from(1i64));
            assert_eq!(view_i, None);
            assert_eq!(view_s, Some(Value::from(10i64)));
        }
        v => panic!("wrong violation {v}"),
    }
    // Same trace passes I/O refinement (no observer ran) — the §5 argument
    // for view refinement.
    let events = vec![
        call(0, "Put", &[1, 10]),
        commit(0),
        ret(0, "Put", Value::Unit),
    ];
    assert!(io_check(events).passed());
}

#[test]
fn view_refinement_catches_a_write_to_the_wrong_register() {
    let events = vec![
        call(0, "Put", &[1, 10]),
        write(0, 2, 10), // wrong key
        commit(0),
        ret(0, "Put", Value::Unit),
    ];
    let report = view_check(events);
    assert_eq!(report.violation.unwrap().category(), "view-mismatch");
}

#[test]
fn full_and_incremental_view_compare_agree() {
    let mk_events = || {
        let mut events = Vec::new();
        events.extend(put(0, 1, 10));
        events.extend(put(1, 2, 20));
        // Buggy: committed value 30 but wrote 31.
        events.push(call(0, "Put", &[3, 30]));
        events.push(write(0, 3, 31));
        events.push(commit(0));
        events.push(ret(0, "Put", Value::Unit));
        events
    };
    let incremental = view_check(mk_events());
    let full = Checker::view(RegSpec::default(), RegReplayer::default())
        .with_options(CheckerOptions {
            full_view_compare: true,
            ..CheckerOptions::default()
        })
        .check_events(mk_events());
    assert_eq!(
        incremental.violation.as_ref().map(Violation::category),
        full.violation.as_ref().map(Violation::category)
    );
    assert!(!incremental.passed());
    // Incremental compared fewer keys.
    assert!(incremental.stats.view_keys_compared < full.stats.view_keys_compared);
}

#[test]
fn commit_block_writes_become_visible_atomically() {
    // Inside its commit block, T1 first writes a dirty intermediate value
    // (999) and then the final value (10) — like InsertPair setting its
    // two valid bits one at a time in Fig. 4. T2 commits a Touch (a spec
    // no-op) mid-block; because T1's block writes are buffered until T1's
    // commit, T2's view comparison never sees the dirty state (§5.2).
    let events = vec![
        call(1, "Put", &[1, 10]),
        Event::BlockBegin { tid: t(1), object: ObjectId::DEFAULT },
        write(1, 1, 999), // dirty intermediate
        // context switch: T2 runs a Touch and commits.
        call(2, "Touch", &[0]),
        commit(2),
        ret(2, "Touch", Value::Unit),
        // T1 finishes its block and commits.
        write(1, 1, 10),
        commit(1),
        Event::BlockEnd { tid: t(1), object: ObjectId::DEFAULT },
        ret(1, "Put", Value::Unit),
    ];
    let report = view_check(events);
    assert!(report.passed(), "{report}");
}

#[test]
fn without_commit_blocks_the_same_interleaving_fails() {
    // Identical to the test above but with no BlockBegin/BlockEnd: T2's
    // Touch commit now sees T1's dirty intermediate write (reg 1 = 999
    // while the spec has no reg 1 yet) and the view check fails —
    // demonstrating why §5.2 introduces commit blocks.
    let events = vec![
        call(1, "Put", &[1, 10]),
        write(1, 1, 999),
        call(2, "Touch", &[0]),
        commit(2),
        ret(2, "Touch", Value::Unit),
        write(1, 1, 10),
        commit(1),
        ret(1, "Put", Value::Unit),
    ];
    let report = view_check(events);
    assert_eq!(report.violation.unwrap().category(), "view-mismatch");
}

#[test]
fn invariants_run_at_each_commit() {
    let checker = Checker::view(RegSpec::default(), RegReplayer::default()).with_invariant(
        Invariant::new("no-negative-registers", |r: &RegReplayer| {
            match r.regs.values().find(|&&v| v < 0) {
                Some(v) => Err(format!("register holds {v}")),
                None => Ok(()),
            }
        }),
    );
    let mut events = Vec::new();
    events.extend(put(0, 1, 10));
    events.extend(put(0, 2, -5));
    let report = checker.check_events(events);
    match report.violation.expect("must fail") {
        Violation::InvariantViolation { name, message, .. } => {
            assert_eq!(name, "no-negative-registers");
            assert!(message.contains("-5"));
        }
        v => panic!("wrong violation {v}"),
    }
}

#[test]
fn continue_after_violation_collects_full_stats() {
    let mut events = Vec::new();
    events.extend(put(0, 1, 10));
    events.extend(get(0, 1, 99)); // violation here
    events.extend(put(0, 2, 20)); // but the log continues
    let report = Checker::io(RegSpec::default())
        .with_options(CheckerOptions {
            stop_at_first_violation: false,
            ..CheckerOptions::default()
        })
        .check_events(events);
    assert!(!report.passed());
    assert_eq!(report.stats.commits_applied, 2);
    assert_eq!(report.stats.methods_completed, 2);
}

#[test]
fn check_reader_round_trips_through_codec() {
    let mut events = Vec::new();
    events.extend(put(0, 1, 10));
    events.extend(get(1, 1, 10));
    let mut buf = Vec::new();
    crate::codec::write_log(&mut buf, &events).unwrap();
    let report = Checker::io(RegSpec::default()).check_reader(buf.as_slice());
    assert!(report.passed(), "{report}");

    // A truncated stream is reported as malformed rather than silently
    // passing ... unless the truncation falls on a record boundary, in
    // which case the prefix is checked.
    buf.truncate(buf.len() - 3);
    let report = Checker::io(RegSpec::default()).check_reader(buf.as_slice());
    assert!(
        report.violation.is_some(),
        "truncated mid-record must not pass: {report}"
    );
}

#[test]
fn check_receiver_consumes_an_online_stream() {
    let (log, rx) = crate::log::EventLog::to_channel(crate::log::LogMode::Io);
    let logger = log.logger_for(t(0));
    let handle = std::thread::spawn(move || {
        logger.call("Put", &[Value::from(1i64), Value::from(10i64)]);
        logger.commit();
        logger.ret("Put", Value::Unit);
        logger.call("Get", &[Value::from(1i64)]);
        logger.ret("Get", Value::from(10i64));
    });
    handle.join().unwrap();
    drop(log); // close the channel
    let report = Checker::io(RegSpec::default()).check_receiver(&rx);
    assert!(report.passed(), "{report}");
}

#[test]
fn snapshots_are_garbage_collected() {
    // Interleave many mutators with short-lived observers; after each
    // observer resolves, its snapshots must be dropped.
    let mut events = Vec::new();
    for i in 0..50 {
        events.extend(put(0, 1, i));
        events.extend(get(1, 1, i));
    }
    let report = io_check(events);
    assert!(report.passed());
    // No commit lands inside any of the 50 windows, so each observer is
    // judged against the live state and nothing is ever copied. (This
    // read 50 while every observer call cloned the spec up front; that
    // clone is the cost copy-on-first-commit anchors removed.)
    assert_eq!(report.stats.snapshots_taken, 0);
}

/// `n` Puts by thread 0, register 1 counting up from `from`: after them
/// `commits_applied` has advanced by `n` and register 1 holds `from + n - 1`.
fn puts(from: i64, n: i64) -> Vec<Event> {
    (from..from + n).flat_map(|v| put(0, 1, v)).collect()
}

fn continue_check(events: Vec<Event>) -> crate::violation::Report {
    Checker::io(RegSpec::default())
        .with_options(CheckerOptions {
            stop_at_first_violation: false,
            ..CheckerOptions::default()
        })
        .check_events(events)
}

#[test]
fn staggered_windows_keep_their_own_start_states_across_gc() {
    // A's window is [5..=7], B's [6..=8]. Neither call copies anything:
    // commit 5 anchors s_5 for A, commit 6 anchors s_6 for B. When A
    // returns, GC drops everything below B's start — s_6 and the
    // signatures from 6 on must survive it, or B cannot be judged.
    let trace = |b_saw: i64| {
        let mut events = puts(1, 5); // s_5: reg 1 = 5
        events.push(call(8, "Get", &[1])); // A opens at 5
        events.extend(puts(6, 1)); // commit 5 -> s_6: reg 1 = 6
        events.push(call(9, "Get", &[1])); // B opens at 6
        events.extend(puts(7, 1)); // commit 6 -> s_7
        events.push(ret(8, "Get", Value::from(5i64))); // A resolves at s_5; GC
        events.extend(puts(8, 1)); // commit 7 -> s_8
        events.push(ret(9, "Get", Value::from(b_saw)));
        events
    };
    let at_start = io_check(trace(6));
    assert!(at_start.passed(), "B saw s_6: {at_start}");
    assert_eq!(at_start.stats.snapshots_taken, 2, "one anchor per window");
    assert_eq!(at_start.stats.snapshot_replays, 0);
    let inside = io_check(trace(7));
    assert!(inside.passed(), "B saw s_7: {inside}");
    assert_eq!(
        inside.stats.snapshot_replays, 1,
        "s_7 is s_6 plus signature 6"
    );
    // s_5 is below B's window: A's anchor must not widen it.
    match io_check(trace(5)).violation.expect("5 is not in [6..=8]") {
        Violation::ObserverUnjustified {
            window_start,
            window_end,
            ..
        } => assert_eq!((window_start, window_end), (6, 8)),
        v => panic!("wrong violation {v}"),
    }
}

#[test]
fn explicit_observer_commit_survives_later_commits() {
    // The observer pins s_2 with an explicit commit and pins no copy of
    // it; three commits then overwrite the live state before it returns.
    let trace = |saw: i64| {
        let mut events = puts(1, 2); // s_2: reg 1 = 2
        events.push(call(9, "Get", &[1]));
        events.push(commit(9)); // pinned to s_2
        events.extend(puts(3, 3)); // s_5: reg 1 = 5
        events.push(ret(9, "Get", Value::from(saw)));
        events
    };
    let report = io_check(trace(2));
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.snapshots_taken, 1);
    for overwritten_or_later in [3, 5] {
        match io_check(trace(overwritten_or_later))
            .violation
            .expect("pinned to s_2")
        {
            Violation::ObserverUnjustified {
                window_start,
                window_end,
                ..
            } => assert_eq!((window_start, window_end), (2, 2)),
            v => panic!("wrong violation {v}"),
        }
    }
}

#[test]
fn a_rejected_commit_inside_a_window_leaves_it_resolvable() {
    // The spec refuses a commit while the window is open and
    // un-anchored: no state index is consumed, and the commits after it
    // still anchor and replay the window correctly.
    let trace = |saw: i64| {
        let mut events = puts(1, 1); // s_1: reg 1 = 1
        events.push(call(9, "Get", &[1])); // opens at 1
        events.extend([
            call(2, "Frobnicate", &[1]),
            commit(2),
            ret(2, "Frobnicate", Value::Unit),
        ]);
        events.extend(puts(2, 2)); // s_3: reg 1 = 3
        events.push(ret(9, "Get", Value::from(saw)));
        events
    };
    for in_window in [1, 2, 3] {
        let report = continue_check(trace(in_window));
        assert_eq!(
            report.violation.as_ref().map(Violation::category),
            Some("spec-rejected-commit"),
            "saw {in_window}: only the rejection is reported: {report}"
        );
        assert_eq!(report.stats.commits_applied, 3);
        assert_eq!(
            report.stats.methods_completed, 5,
            "the observer was justified"
        );
        assert_eq!(report.stats.snapshots_taken, 1);
    }
    // An observation outside [1..=3] is not: the observer does not complete.
    assert_eq!(continue_check(trace(0)).stats.methods_completed, 4);
    // Stop-at-first mode reports the rejection where it happens.
    let report = io_check(trace(2));
    match report.violation.expect("must fail") {
        Violation::SpecRejectedCommit { commit_index, .. } => assert_eq!(commit_index, 1),
        v => panic!("wrong violation {v}"),
    }
}

#[test]
fn checkpoint_with_an_unanchored_window_resumes_identically() {
    // Saved while an observer is in flight and nothing has been copied
    // for it; the commit that needs the anchor lands after the restore.
    let mut events = puts(1, 3);
    events.push(call(9, "Get", &[1]));
    let resume_at = events.len();
    events.extend(puts(4, 2));
    events.push(ret(9, "Get", Value::from(4i64))); // s_4, mid-window
    events.extend(get(8, 1, 5));

    let uninterrupted = io_check(events.clone());
    assert!(uninterrupted.passed(), "{uninterrupted}");
    assert!(uninterrupted.stats.snapshot_replays >= 1);

    let mut first = Checker::io(RegSpec::default());
    for event in &events[..resume_at] {
        first.feed(event.clone());
    }
    let state = first.save_state().expect("RegSpec checkpoints");
    assert_eq!(
        first.into_report().stats.snapshots_taken,
        0,
        "un-anchored at the save"
    );
    let mut resumed = Checker::io(RegSpec::default());
    resumed.restore_state(&state).unwrap();
    for event in &events[resume_at..] {
        resumed.feed(event.clone());
    }
    let resumed = resumed.into_report();
    assert_eq!(resumed.verdict(), uninterrupted.verdict());
    assert_eq!(resumed.stats, uninterrupted.stats);

    // The same cut with an observation no window state justifies.
    let mut bad = events.clone();
    let ret_at = bad.len() - 3;
    bad[ret_at] = ret(9, "Get", Value::from(9i64));
    let mut resumed = Checker::io(RegSpec::default());
    resumed.restore_state(&state).unwrap();
    for event in &bad[resume_at..] {
        resumed.feed(event.clone());
    }
    let (resumed, whole) = (resumed.into_report(), io_check(bad));
    assert_eq!(resumed.violation, whole.violation);
    assert_eq!(
        whole.violation.as_ref().map(Violation::category),
        Some("observer-unjustified")
    );
}

#[test]
fn overlapping_observers_elide_per_commit_snapshots() {
    // One long-running observer spanning 3 commits. Only the
    // window-start anchor is kept; intermediate states are reconstructed
    // by replaying commit signatures, so far fewer snapshots are taken
    // than commits spanned.
    let mut events = vec![call(9, "Get", &[1])];
    for i in 1..=3 {
        events.extend(put(0, 1, i));
    }
    events.push(ret(9, "Get", Value::from(2i64))); // value after 2nd commit
    let report = io_check(events);
    assert!(report.passed(), "{report}");
    assert!(
        report.stats.snapshots_taken < 3,
        "expected elided snapshots, took {}",
        report.stats.snapshots_taken
    );
    assert!(
        report.stats.snapshot_replays >= 1,
        "window must have been resolved by signature replay: {:?}",
        report.stats
    );
}

#[test]
fn continue_mode_keeps_snapshotting_for_pending_observers() {
    // Regression: a violation early in the trace must not stop snapshot
    // bookkeeping — an observer still in flight resolves later and reads
    // the snapshots of the commits inside its window.
    let events = vec![
        // Violation: unknown mutator.
        call(0, "Frobnicate", &[1]),
        commit(0),
        ret(0, "Frobnicate", Value::Unit),
        // An observer spanning two further commits.
        call(9, "Get", &[1]),
        call(1, "Put", &[1, 10]),
        commit(1),
        ret(1, "Put", Value::Unit),
        call(2, "Put", &[1, 20]),
        commit(2),
        ret(2, "Put", Value::Unit),
        ret(9, "Get", Value::from(10i64)),
    ];
    let report = Checker::io(RegSpec::default())
        .with_options(CheckerOptions {
            stop_at_first_violation: false,
            ..CheckerOptions::default()
        })
        .check_events(events);
    // Must not panic; first violation is the unknown mutator, and the
    // observer is justified by the intermediate state.
    assert_eq!(
        report.violation.unwrap().category(),
        "spec-rejected-commit"
    );
    assert_eq!(report.stats.commits_applied, 2);
}

#[test]
fn quiescent_baseline_misses_transient_corruption() {
    use crate::checker::ViewCheckPolicy;
    // A Put whose write is lost, then a later Put restores the expected
    // value — all while a long-running observer keeps the system from
    // ever being quiescent in between. Per-commit view checking (VYRD)
    // catches the corruption at the first commit; the quiescent-only
    // baseline (commit atomicity, §8) first compares after everything
    // returned — when the state has healed — and reports nothing:
    // errors get overwritten before the only comparison point.
    let events = vec![
        call(9, "Get", &[2]), // in flight across the whole episode
        call(0, "Put", &[1, 10]),
        // BUG: no write reaches the register.
        commit(0),
        ret(0, "Put", Value::Unit),
        call(0, "Put", &[1, 10]),
        write(0, 1, 10),
        commit(0),
        ret(0, "Put", Value::Unit),
        ret(9, "Get", Value::from(0i64)), // first quiescent point
    ];
    let per_commit = view_check(events.clone());
    assert_eq!(per_commit.violation.unwrap().category(), "view-mismatch");

    let quiescent = Checker::view(RegSpec::default(), RegReplayer::default())
        .with_options(CheckerOptions {
            view_check_policy: ViewCheckPolicy::QuiescentOnly,
            ..CheckerOptions::default()
        })
        .check_events(events);
    assert!(quiescent.passed(), "{quiescent}");
}

#[test]
fn quiescent_baseline_catches_persistent_corruption_late() {
    use crate::checker::ViewCheckPolicy;
    let events = vec![
        call(0, "Put", &[1, 10]),
        commit(0), // lost write, never repaired
        ret(0, "Put", Value::Unit),
    ];
    let report = Checker::view(RegSpec::default(), RegReplayer::default())
        .with_options(CheckerOptions {
            view_check_policy: ViewCheckPolicy::QuiescentOnly,
            ..CheckerOptions::default()
        })
        .check_events(events);
    match report.violation.expect("persistent corruption is visible") {
        Violation::ViewMismatch { method, .. } => {
            assert_eq!(method.name(), "<quiescent-check>");
        }
        v => panic!("wrong violation {v}"),
    }
}

#[test]
fn quiescent_baseline_defers_past_overlapping_methods() {
    use crate::checker::ViewCheckPolicy;
    // While any method is in flight there is no quiescent point, so the
    // baseline performs no comparison at all mid-trace.
    let events = vec![
        call(0, "Put", &[1, 10]),
        call(1, "Put", &[2, 20]),
        commit(0), // lost write for key 1
        ret(0, "Put", Value::Unit),
        write(1, 2, 20),
        commit(1),
        ret(1, "Put", Value::Unit), // first quiescent point: check fires here
    ];
    let report = Checker::view(RegSpec::default(), RegReplayer::default())
        .with_options(CheckerOptions {
            view_check_policy: ViewCheckPolicy::QuiescentOnly,
            ..CheckerOptions::default()
        })
        .check_events(events);
    let v = report.violation.expect("must fail at the quiescent point");
    assert_eq!(v.log_position(), 6, "deferred to the last return");
    // Exactly one (deferred, full) comparison ran.
    assert_eq!(report.stats.view_comparisons, 1);
}
