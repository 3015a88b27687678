//! Engine tests against a small key–value register specification.

use std::collections::BTreeMap;

use crate::checker::{Checker, CheckerOptions, Invariant, SPARE_RETURN_QUEUES};
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
fn short_lived_observers_leave_nothing_behind() {
    // Interleave many mutators with short-lived observers: no commit
    // lands inside any of the 50 windows, so each observer is judged
    // once, at its call, and is searching no longer when it returns.
    let mut events = Vec::new();
    for i in 0..50 {
        events.extend(put(0, 1, i));
        events.extend(get(1, 1, i));
    }
    let mut checker = Checker::lin(RegSpec::default());
    for event in events {
        checker.feed(event);
    }
    assert_eq!(checker.searching, 0);
    assert!(checker.pending.is_empty() && checker.returns_buffered.is_empty());
    let report = checker.into_report();
    assert!(report.passed());
    assert_eq!(report.stats.lin_windows_searched, 50);
    assert_eq!(report.stats.lin_witness_backtracks, 0);
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
fn staggered_windows_are_judged_from_their_own_start_states() {
    // A's window is [5..=7], B's [6..=8]. Each is judged from its own
    // call on: A's return must not end B's search, and s_5 — a state
    // only A's window holds — must not widen B's.
    let trace = |b_saw: i64| {
        let mut events = puts(1, 5); // s_5: reg 1 = 5
        events.push(call(8, "Get", &[1])); // A opens at 5
        events.extend(puts(6, 1)); // commit 5 -> s_6: reg 1 = 6
        events.push(call(9, "Get", &[1])); // B opens at 6
        events.extend(puts(7, 1)); // commit 6 -> s_7
        events.push(ret(8, "Get", Value::from(5i64))); // A resolves at s_5
        events.extend(puts(8, 1)); // commit 7 -> s_8
        events.push(ret(9, "Get", Value::from(b_saw)));
        events
    };
    let at_start = io_check(trace(6));
    assert!(at_start.passed(), "B saw s_6: {at_start}");
    let inside = io_check(trace(7));
    assert!(inside.passed(), "B saw s_7: {inside}");
    // s_5 is below B's window.
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
    // The observer pins s_2 with an explicit commit; three commits then
    // overwrite the live state before it returns.
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
    // The spec refuses a commit while the window is open: no state index
    // is consumed and no candidate judged, and the commits after it still
    // extend the window correctly.
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
fn checkpoint_while_parked_at_an_observer_call_resumes_identically() {
    // Saved while the pump is parked at an observer's call, its return
    // not fed yet; the whole window lands after the restore.
    let mut events = puts(1, 3);
    events.push(call(9, "Get", &[1]));
    let resume_at = events.len();
    events.extend(puts(4, 2));
    events.push(ret(9, "Get", Value::from(4i64))); // s_4, mid-window
    events.extend(get(8, 1, 5));

    let uninterrupted = io_check(events.clone());
    assert!(uninterrupted.passed(), "{uninterrupted}");

    let mut first = Checker::io(RegSpec::default());
    for event in &events[..resume_at] {
        first.feed(event.clone());
    }
    let state = first.save_state().expect("RegSpec checkpoints");
    assert_eq!(first.parked_on, Some(t(9)), "parked at the save");
    assert_eq!(first.input.len(), 1, "the call is fed, not stepped");
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
    assert_eq!(resumed.stats, whole.stats);
    assert_eq!(
        whole.violation.as_ref().map(Violation::category),
        Some("observer-unjustified")
    );
}

#[test]
fn a_long_running_observer_is_justified_mid_window() {
    // One long-running observer spanning 3 commits, justified by the
    // state after the second: it searches through two candidates and
    // stops, so the third commit re-judges nothing.
    let mut events = vec![call(9, "Get", &[1])];
    for i in 1..=3 {
        events.extend(put(0, 1, i));
    }
    events.push(ret(9, "Get", Value::from(2i64))); // value after 2nd commit
    let report = Checker::lin(RegSpec::default()).check_events(events);
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.lin_witness_backtracks, 2, "s_0 and s_1 rejected");
}

fn lin_options(stop_at_first_violation: bool) -> Checker<RegSpec> {
    Checker::lin(RegSpec::default()).with_options(CheckerOptions {
        stop_at_first_violation,
        ..CheckerOptions::default()
    })
}

#[test]
fn checkpoint_inside_a_window_carries_the_return_and_the_search() {
    // The observer's return is fed while a mutator's is still out: the
    // pump has read the observation ahead, judged s_0 and s_1, and is
    // parked on thread 1's commit with the search unfinished.
    let trace = |saw: i64| {
        let mut events = vec![call(9, "Get", &[1])];
        events.extend(puts(1, 1)); // s_1: reg 1 = 1
        events.extend([call(1, "Put", &[1, 2]), write(1, 1, 2), commit(1)]);
        events.push(ret(9, "Get", Value::from(saw)));
        events.push(ret(1, "Put", Value::Unit)); // s_2 lands here
        events
    };
    for (saw, category) in [(2, None), (7, Some("observer-unjustified"))] {
        let events = trace(saw);
        let cut = events.len() - 1;
        let whole = lin_options(true).check_events(events.clone());
        assert_eq!(whole.violation.as_ref().map(Violation::category), category);

        let mut first = lin_options(true);
        for event in &events[..cut] {
            first.feed(event.clone());
        }
        assert_eq!((first.parked_on, first.searching), (Some(t(1)), 1));
        let state = first.save_state().expect("RegSpec checkpoints");
        let mut resumed = lin_options(true);
        resumed.restore_state(&state).unwrap();
        let open = &resumed.pending[&t(9)];
        assert_eq!(open.ret, Some(Value::from(saw)));
        assert_eq!((open.justified, open.rejected), (false, 2));
        assert_eq!(resumed.searching, 1, "recomputed, not stored");
        for event in &events[cut..] {
            resumed.feed(event.clone());
        }
        let resumed = resumed.into_report();
        assert_eq!(resumed.violation, whole.violation);
        assert_eq!(resumed.stats, whole.stats);
    }
}

/// Everything a report holds, with the two counters that describe how
/// the input was delivered (not what it held) cleared.
fn modulo_batching(
    report: crate::violation::Report,
) -> (Option<Violation>, crate::violation::CheckStats, crate::violation::Degradation) {
    let mut stats = report.stats;
    stats.batches = 0;
    stats.batch_events = 0;
    (report.violation, stats, report.degradation)
}

#[test]
fn a_far_away_return_reads_the_same_however_the_log_is_fed() {
    use crate::checker::SteppingChecker;
    // The observer's return arrives 3 000 events after its call; the
    // pump parks at the call under per-event feeding, never under one
    // batch, and every 8 events in between.
    for (saw, category) in [(400, None), (-1, Some("observer-unjustified"))] {
        let mut events = vec![call(9, "Get", &[1])];
        events.extend(puts(1, 750));
        assert_eq!(events.len(), 3_001);
        events.push(ret(9, "Get", Value::from(saw)));
        events.extend(get(8, 1, 750));

        let whole = modulo_batching(lin_options(false).check_events(events.clone()));
        assert_eq!(whole.0.as_ref().map(Violation::category), category);
        assert_eq!(whole.1.events, events.len() as u64);
        let expected_rejects = if saw == 400 { 400 } else { 751 };
        assert_eq!(whole.1.lin_witness_backtracks, expected_rejects);

        let mut per_event = lin_options(false);
        for event in &events[..3_001] {
            per_event.feed(event.clone());
        }
        assert_eq!(per_event.parked_on, Some(t(9)));
        assert_eq!(per_event.stats.events, 0, "nothing steps past the call");
        for event in &events[3_001..] {
            per_event.feed(event.clone());
        }
        assert_eq!(modulo_batching(per_event.into_report()), whole);

        for batch_size in [8, events.len()] {
            let mut batched = lin_options(false);
            for chunk in events.chunks(batch_size) {
                batched.feed_batch(&mut chunk.to_vec());
            }
            assert_eq!(modulo_batching(batched.into_report()), whole);
        }
    }
}

#[test]
fn a_shed_return_unparks_at_the_threads_next_return() {
    // Thread 9's Get lost its return (and the Put after it its call and
    // commit) to shedding: the pump parks at the Get's call until the
    // thread's next return is fed, then reports the pair as the log
    // always did.
    let mut events = puts(1, 3);
    events.push(call(9, "Get", &[1]));
    events.extend(puts(4, 3));
    let parked_at = events.len();
    events.push(ret(9, "Put", Value::Unit));
    let mut checker = Checker::io(RegSpec::default());
    for event in &events[..parked_at] {
        checker.feed(event.clone());
    }
    assert_eq!(checker.parked_on, Some(t(9)));
    assert_eq!(checker.stats.events, 12, "parked at the call");
    checker.feed(events[parked_at].clone());
    assert!(checker.halted() && checker.parked_on.is_none());
    match checker.into_report().violation.expect("malformed") {
        Violation::MalformedLog {
            detail,
            log_position,
        } => {
            assert_eq!(
                detail,
                "T9 returned from Put but the open execution is Get"
            );
            assert_eq!(log_position, parked_at as u64);
        }
        v => panic!("wrong violation {v}"),
    }
    // A return that never arrives at all: nothing parks at the end of the
    // log, and an observer still open there is no violation.
    let report = io_check(events[..parked_at].to_vec());
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.events, parked_at as u64);
    assert_eq!(report.stats.observers_checked, 0);
}

#[test]
fn a_mismatched_observer_return_releases_its_window() {
    // Continue-after-violation mode: the bad pair must cost exactly its
    // own verdict — nothing about it may outlive its removal.
    let trace = |bad_pair: bool| {
        let mut events = puts(1, 3);
        if bad_pair {
            events.extend([call(9, "Get", &[1]), ret(9, "Put", Value::Unit)]);
        }
        events.extend(puts(4, 50));
        events.extend(get(8, 1, 53));
        events
    };
    let mut checker = lin_options(false);
    for event in trace(true) {
        checker.feed(event);
    }
    assert_eq!(checker.searching, 0);
    assert!(checker.parked_on.is_none() && checker.pending.is_empty());
    let with_pair = checker.into_report();
    match &with_pair.violation {
        Some(Violation::MalformedLog { log_position, .. }) => assert_eq!(*log_position, 13),
        v => panic!("wrong verdict {v:?}"),
    }
    let mut spliced = lin_options(false).check_events(trace(false));
    assert!(spliced.passed(), "{spliced}");
    spliced.stats.events += 2;
    assert_eq!(with_pair.stats, spliced.stats);
}

#[test]
fn the_return_table_holds_only_threads_with_a_return_buffered() {
    // Some drivers mint a logger, hence a fresh thread id, per call: an
    // entry kept after its last return was stepped would be one per call.
    let mut checker = Checker::io(RegSpec::default());
    for i in 0..100_000u32 {
        let execution = if i % 2 == 0 {
            put(i, 1, i64::from(i))
        } else {
            get(i, 1, i64::from(i) - 1)
        };
        for event in execution {
            checker.feed(event);
            assert!(checker.returns_buffered.len() <= 1);
        }
        assert!(checker.returns_buffered.is_empty() && checker.pending.is_empty());
    }
    let report = checker.into_report();
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.methods_completed, 100_000);
}

#[test]
fn emptied_return_queues_are_kept_for_reuse_up_to_a_cap() {
    // Fresh thread ids per call, overlapping: each round of 32 executions
    // queues behind an observer call whose return is fed last, so 32
    // threads have a return buffered at once. When the round drains their
    // queues are emptied; at most the cap of them is kept.
    const ROUND: u32 = 32;
    let mut checker = Checker::io(RegSpec::default());
    for first in (0..100_000u32).step_by(ROUND as usize) {
        checker.feed(call(first, "Get", &[0]));
        for tid in first + 1..first + ROUND {
            for event in put(tid, 1, i64::from(tid)) {
                checker.feed(event);
            }
        }
        assert_eq!(checker.returns_buffered.len(), ROUND as usize - 1);
        checker.feed(ret(first, "Get", Value::from(0)));
        assert!(checker.returns_buffered.is_empty() && checker.pending.is_empty());
        assert_eq!(checker.spare_returns.len(), SPARE_RETURN_QUEUES);
    }
    let report = checker.into_report();
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.methods_completed, 100_000);
}

#[test]
fn continue_mode_keeps_snapshotting_for_pending_observers() {
    // Regression: a violation early in the trace must not stop window
    // bookkeeping — an observer still in flight resolves later, against
    // the states of the commits inside its window.
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
