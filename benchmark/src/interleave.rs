//! A seeded interleaving of a sequentially recorded trace.
//!
//! An offline workload needs a trace that is the same for the same seed —
//! its check cost and memory must not depend on how the scheduler treated
//! a recording thread — yet has the overlapping call–return windows the
//! checker exists for. Two real threads give overlap but not
//! repeatability: one pre-empted mid-call opens an observer window
//! thousands of commits long, and the same seed checked at 1.9–2.8 M
//! events/s and peaked at 55–265 MiB from one recording to the next.
//!
//! So the program runs on *one* thread (every event is the program's
//! own), and [`interleave`] re-times that log as a run of `threads`
//! logical threads: each method execution is dealt to a logical thread,
//! its call action moves earlier and its return action later — by as
//! much as a seeded scheduler decides — while every commit block stays
//! exactly where it was. That is a log a real `threads`-thread execution
//! could have produced (a thread delayed between logging its call and
//! taking the lock, or between releasing it and logging its return):
//! commit order, return values and write order are untouched, and each
//! observer's window still contains the state it really saw.

use std::collections::VecDeque;

use vyrd_core::{Event, ThreadId};
use vyrd_rt::rng::Rng;

/// One method execution of the sequential log: its call, what it did
/// under its lock (commit block, writes, commit — possibly nothing, for
/// an observer), and its return.
struct Execution {
    call: Event,
    body: Vec<Event>,
    ret: Event,
}

/// Where a logical thread is in its current execution.
enum Phase {
    Idle,
    /// Call logged, body not yet run; holds the body and return.
    Called(Vec<Event>, Event),
    /// Body run, return not yet logged.
    Returning(Event),
}

fn with_tid(event: Event, tid: ThreadId) -> Event {
    match event {
        Event::Call {
            object,
            method,
            args,
            ..
        } => Event::Call {
            tid,
            object,
            method,
            args,
        },
        Event::Return {
            object,
            method,
            ret,
            ..
        } => Event::Return {
            tid,
            object,
            method,
            ret,
        },
        Event::Commit { object, .. } => Event::Commit { tid, object },
        Event::BlockBegin { object, .. } => Event::BlockBegin { tid, object },
        Event::BlockEnd { object, .. } => Event::BlockEnd { tid, object },
        Event::Write {
            object, var, value, ..
        } => Event::Write {
            tid,
            object,
            var,
            value,
        },
    }
}

/// Is `events` a sequential log — one method execution at a time, every
/// action inside one? A program with a thread of its own beside its
/// caller (the cache's flusher) never records one.
pub fn is_sequential(events: &[Event]) -> bool {
    let mut open = false;
    events.iter().all(|event| match event {
        Event::Call { .. } => !std::mem::replace(&mut open, true),
        Event::Return { .. } => std::mem::replace(&mut open, false),
        _ => open,
    }) && !open
}

/// Splits a sequential log into its executions. Panics on a log that is
/// not sequential ([`is_sequential`]).
fn executions(events: Vec<Event>) -> VecDeque<Execution> {
    let mut out = VecDeque::new();
    let mut open: Option<(Event, Vec<Event>)> = None;
    for event in events {
        match (&event, open.take()) {
            (Event::Call { .. }, None) => open = Some((event, Vec::new())),
            (Event::Return { .. }, Some((call, body))) => out.push_back(Execution {
                call,
                body,
                ret: event,
            }),
            (Event::Call { .. } | Event::Return { .. }, _) => {
                panic!("interleave needs a sequentially recorded log")
            }
            (_, Some((call, mut body))) => {
                body.push(event);
                open = Some((call, body));
            }
            (_, None) => panic!("interleave: an action outside any method execution"),
        }
    }
    assert!(
        open.is_none(),
        "interleave: the log ends inside an execution"
    );
    out
}

/// Re-times the sequential log `events` as a seeded interleaving of
/// `threads` logical threads (see the module docs). Same events, same
/// commit order; only thread ids and the positions of call and return
/// actions change.
pub fn interleave(events: Vec<Event>, threads: u32, seed: u64) -> Vec<Event> {
    let total = events.len();
    let mut pending = executions(events);
    let mut rng = Rng::seed_from_u64(seed);
    let mut phases: Vec<Phase> = (0..threads.max(1)).map(|_| Phase::Idle).collect();
    // Logical threads that have logged a call, in the order their bodies
    // must run: executions are dealt in log order and run in log order.
    let mut called: VecDeque<usize> = VecDeque::new();
    let mut out = Vec::with_capacity(total);
    // The threads with a move open to the scheduler: an idle one can start
    // the next execution, the oldest called one can run its body, a
    // returning one can log its return. Each thread has at most one.
    let mut movable: Vec<usize> = Vec::with_capacity(phases.len());
    loop {
        movable.clear();
        for (t, phase) in phases.iter().enumerate() {
            let can_move = match phase {
                Phase::Idle => !pending.is_empty(),
                Phase::Called(..) => called.front() == Some(&t),
                Phase::Returning(_) => true,
            };
            if can_move {
                movable.push(t);
            }
        }
        if movable.is_empty() {
            break;
        }
        let t = movable[rng.gen_range(0..movable.len())];
        let tid = ThreadId(t as u32);
        phases[t] = match std::mem::replace(&mut phases[t], Phase::Idle) {
            Phase::Idle => {
                let e = pending.pop_front().expect("a pending execution");
                out.push(with_tid(e.call, tid));
                called.push_back(t);
                Phase::Called(e.body, e.ret)
            }
            Phase::Called(body, ret) => {
                called.pop_front();
                out.extend(body.into_iter().map(|event| with_tid(event, tid)));
                Phase::Returning(ret)
            }
            Phase::Returning(ret) => {
                out.push(with_tid(ret, tid));
                Phase::Idle
            }
        };
    }
    debug_assert_eq!(out.len(), total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vyrd_core::log::LogMode;
    use vyrd_harness::scenario::{record_run, CheckKind, Scenario, Variant};
    use vyrd_harness::scenarios::{JavaVectorScenario, MultisetBstScenario, TreiberStackScenario};
    use vyrd_harness::workload::WorkloadConfig;

    fn sequential(scenario: &dyn Scenario, mode: LogMode) -> Vec<Event> {
        let cfg = WorkloadConfig {
            threads: 1,
            calls_per_thread: 3_000,
            key_pool: 16,
            ..WorkloadConfig::small()
        };
        record_run(scenario, &cfg, mode, Variant::Correct).events
    }

    #[test]
    fn interleaved_logs_still_pass_and_keep_every_event() {
        let cases: [(&dyn Scenario, CheckKind); 4] = [
            (&JavaVectorScenario, CheckKind::Io),
            (&JavaVectorScenario, CheckKind::View),
            (&MultisetBstScenario, CheckKind::View),
            (&TreiberStackScenario, CheckKind::Lin),
        ];
        for (scenario, kind) in cases {
            let log = sequential(scenario, kind.log_mode());
            let n = log.len();
            let mixed = interleave(log, 4, 99);
            assert_eq!(mixed.len(), n, "{}", scenario.name());
            let report = scenario.check_full(kind, mixed);
            assert!(report.passed(), "{} {kind:?}: {report}", scenario.name());
            assert_eq!(report.stats.events, n as u64);
        }
    }

    #[test]
    fn a_log_with_overlapping_executions_is_not_sequential() {
        let log = sequential(&JavaVectorScenario, LogMode::Io);
        assert!(is_sequential(&log));
        assert!(!is_sequential(&interleave(log.clone(), 4, 1)));
        assert!(!is_sequential(&log[..log.len() - 1]), "ends inside a call");
        assert!(!is_sequential(&log[1..]), "starts inside a call");
    }

    #[test]
    fn same_seed_same_interleaving_and_windows_overlap() {
        let log = sequential(&JavaVectorScenario, LogMode::Io);
        let a = interleave(log.clone(), 4, 7);
        let b = interleave(log.clone(), 4, 7);
        let c = interleave(log.clone(), 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Commit order is the sequential log's.
        let commits = |events: &[Event]| {
            events
                .iter()
                .filter(|e| matches!(e, Event::Commit { .. }))
                .count()
        };
        assert_eq!(commits(&a), commits(&log));
        // More than one logical thread is inside a call at some point.
        let (mut open, mut deepest) = (0i32, 0);
        for event in &a {
            match event {
                Event::Call { .. } => open += 1,
                Event::Return { .. } => open -= 1,
                _ => {}
            }
            deepest = deepest.max(open);
        }
        assert!(deepest >= 3, "windows never overlapped (depth {deepest})");
    }
}
