//! Soundness/precision properties of the refinement checker, tested on
//! *generated* logs rather than real thread schedules.
//!
//! A generator produces random well-formed logs of a register machine in
//! which every observer's return value is picked from the values the
//! register actually held somewhere inside the observer's call–return
//! window — i.e. logs that refine the specification *by construction*.
//!
//! * **Soundness of PASS**: the checker accepts every generated log.
//! * **Soundness of FAIL**: corrupting a single observer return to a
//!   value that never occurred in its window makes the checker reject.
//! * **View agreement**: view refinement with a faithful write stream
//!   also accepts; dropping one logged write makes it reject at (or
//!   after) that commit.
//!
//! A second generator shape, [`long_window_log`], holds three staggered
//! observers open across 200+ commits each (one pinned by an explicit
//! commit) so the same properties also cover long window searches, plus
//! a checkpoint cut inside all three windows.
//!
//! * **§4.3, literally**: [`literal_4_3`] keeps a copy of the
//!   specification after every commit and scans each observer's window at
//!   its return; the checker, which keeps none, must report the same
//!   violation and reject the same number of candidates on every log of
//!   both shapes, valid, corrupted, pinned, and with a commit the
//!   specification refuses spliced in.
//!
//! Properties run over fixed seed blocks via [`vyrd_rt::rng`]; every
//! assertion message names the failing seed so a counterexample replays
//! exactly (`generate_log(seed, …)` is deterministic).

use std::collections::BTreeMap;

use vyrd_rt::rng::Rng;

use vyrd_core::checker::{Checker, CheckerOptions};
use vyrd_core::replay::Replayer;
use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd_core::view::View;
use vyrd_core::violation::Violation;
use vyrd_core::{Event, MethodId, ObjectId, Report, ThreadId, Value, VarId};

const KEYS: i64 = 3;
const OBJ: ObjectId = ObjectId::DEFAULT;

/// Register-map spec: `Put(k, v)` / `Get(k)` (0 when unset).
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
        if method.name() != "Put" {
            return Err(SpecError::new("unknown mutator"));
        }
        let k = args[0].as_int().expect("int key");
        let v = args[1].as_int().expect("int value");
        self.regs.insert(k, v);
        Ok(SpecEffect::touching([k]))
    }

    fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
        let k = args[0].as_int().expect("int key");
        ret.as_int() == Some(self.regs.get(&k).copied().unwrap_or(0))
    }

    fn view(&self) -> View {
        self.regs
            .iter()
            .map(|(&k, &v)| (Value::from(k), Value::from(v)))
            .collect()
    }

    fn save_state(&self) -> Option<Value> {
        Some(Value::List(
            self.regs
                .iter()
                .map(|(&k, &v)| Value::pair(Value::from(k), Value::from(v)))
                .collect(),
        ))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        let bad = || SpecError::new("malformed register state");
        self.regs.clear();
        for entry in state.as_list().ok_or_else(bad)? {
            let (k, v) = entry.as_pair().ok_or_else(bad)?;
            self.regs
                .insert(k.as_int().ok_or_else(bad)?, v.as_int().ok_or_else(bad)?);
        }
        Ok(())
    }
}

#[derive(Default)]
struct RegReplayer {
    regs: BTreeMap<i64, i64>,
}

impl Replayer for RegReplayer {
    fn apply_write(&mut self, var: &VarId, value: &Value) {
        self.regs.insert(var.index(), value.as_int().unwrap_or(0));
    }

    fn view(&self) -> View {
        self.regs
            .iter()
            .map(|(&k, &v)| (Value::from(k), Value::from(v)))
            .collect()
    }
}

enum ThreadState {
    Idle,
    /// A Put(k, v) that has not committed yet.
    PutOpen { k: i64, v: i64 },
    /// A committed Put awaiting its return.
    PutCommitted,
    /// A Get(k) in flight, with every value the register held so far in
    /// its window.
    GetOpen { k: i64, candidates: Vec<i64> },
}

/// Generates a well-formed, refinement-valid log; returns the events and
/// the log indices of observer Return events (corruption targets).
fn generate_log(seed: u64, threads: usize, steps: usize) -> (Vec<Event>, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut regs: BTreeMap<i64, i64> = BTreeMap::new();
    let mut states: Vec<ThreadState> = (0..threads).map(|_| ThreadState::Idle).collect();
    let mut events = Vec::new();
    let mut observer_returns = Vec::new();

    for _ in 0..steps {
        let t = rng.gen_range(0..threads);
        let tid = ThreadId(t as u32);
        match &mut states[t] {
            ThreadState::Idle => {
                let k = rng.gen_range(0..KEYS);
                if rng.gen_bool(0.5) {
                    let v = rng.gen_range(1..100);
                    events.push(Event::Call {
                        tid,
                        object: OBJ,
                        method: "Put".into(),
                        args: vec![Value::from(k), Value::from(v)].into(),
                    });
                    states[t] = ThreadState::PutOpen { k, v };
                } else {
                    let current = regs.get(&k).copied().unwrap_or(0);
                    events.push(Event::Call {
                        tid,
                        object: OBJ,
                        method: "Get".into(),
                        args: vec![Value::from(k)].into(),
                    });
                    states[t] = ThreadState::GetOpen {
                        k,
                        candidates: vec![current],
                    };
                }
            }
            ThreadState::PutOpen { k, v } => {
                let (k, v) = (*k, *v);
                events.push(Event::Write {
                    tid,
                    object: OBJ,
                    var: VarId::new("reg", k),
                    value: Value::from(v),
                });
                events.push(Event::Commit { tid, object: OBJ });
                regs.insert(k, v);
                // Every pending observer of key k gains a candidate.
                for s in states.iter_mut() {
                    if let ThreadState::GetOpen { k: gk, candidates } = s {
                        if *gk == k {
                            candidates.push(v);
                        }
                    }
                }
                states[t] = ThreadState::PutCommitted;
            }
            ThreadState::PutCommitted => {
                events.push(Event::Return {
                    tid,
                    object: OBJ,
                    method: "Put".into(),
                    ret: Value::Unit,
                });
                states[t] = ThreadState::Idle;
            }
            ThreadState::GetOpen { candidates, .. } => {
                let pick = candidates[rng.gen_range(0..candidates.len())];
                observer_returns.push(events.len());
                events.push(Event::Return {
                    tid,
                    object: OBJ,
                    method: "Get".into(),
                    ret: Value::from(pick),
                });
                states[t] = ThreadState::Idle;
            }
        }
    }
    // Drain: return/commit everything still open so the log is complete.
    for (t, state) in states.iter().enumerate() {
        let tid = ThreadId(t as u32);
        match state {
            ThreadState::Idle => {}
            ThreadState::PutOpen { k, v } => {
                events.push(Event::Write {
                    tid,
                    object: OBJ,
                    var: VarId::new("reg", *k),
                    value: Value::from(*v),
                });
                events.push(Event::Commit { tid, object: OBJ });
                regs.insert(*k, *v);
                events.push(Event::Return {
                    tid,
                    object: OBJ,
                    method: "Put".into(),
                    ret: Value::Unit,
                });
            }
            ThreadState::PutCommitted => {
                events.push(Event::Return {
                    tid,
                    object: OBJ,
                    method: "Put".into(),
                    ret: Value::Unit,
                });
            }
            ThreadState::GetOpen { candidates, .. } => {
                observer_returns.push(events.len());
                events.push(Event::Return {
                    tid,
                    object: OBJ,
                    method: "Get".into(),
                    ret: Value::from(candidates[candidates.len() - 1]),
                });
            }
        }
    }
    (events, observer_returns)
}

/// Which window state an unpinned [`long_window_log`] observer returns.
#[derive(Clone, Copy)]
enum Pick {
    First,
    Middle,
    Last,
}

/// A [`long_window_log`] and what the properties need to know about it.
struct LongLog {
    events: Vec<Event>,
    /// Log indices of the three observer returns (corruption targets).
    observer_returns: Vec<usize>,
    /// An event index inside all three windows: after the last observer
    /// call, before the first observer return.
    cut: usize,
    /// How far the state justifying a return lies from its window's
    /// start, at most: the longest search any of the three makes.
    deepest_walk: u64,
}

const LONG_SEEDS: std::ops::Range<u64> = 600..618;

/// The register's value for `k` at state `j` (after `j` commits).
fn value_at(commits: &[(i64, i64)], k: i64, j: usize) -> i64 {
    commits[..j].iter().rev().find(|c| c.0 == k).map_or(0, |c| c.1)
}

/// The other generator shape: a stream of complete `Put`s (every value
/// distinct) under three staggered `Get`s, each held open across 200+
/// commits. Observer `seed % 3` is pinned mid-window by an explicit commit
/// and returns that state's value; the other two return their window's
/// first, a middle or its last state's value, cycling with the seed — a
/// `Last` searches its whole window, because the commit just before its
/// return is a `Put` to its own key.
fn long_window_log(seed: u64) -> LongLog {
    let mut rng = Rng::seed_from_u64(seed);
    let pinned = (seed % 3) as usize;
    let picks = [Pick::First, Pick::Middle, Pick::Last];
    let pick = |i: usize| picks[(i + (seed / 3) as usize) % 3];
    let keys: Vec<i64> = (0..3).map(|_| rng.gen_range(0..KEYS)).collect();
    // Commit counts at which things happen, in order: three calls, then
    // the pin and the cut, then three returns.
    let mut start = [rng.gen_range(2..8usize), 0, 0];
    start[1] = start[0] + rng.gen_range(30..60);
    start[2] = start[1] + rng.gen_range(30..60);
    let pin = start[2] + rng.gen_range(40..80);
    let cut_at = start[2] + rng.gen_range(5..120);
    let mut end = [start[2] + 200 + rng.gen_range(0..10), 0, 0];
    end[1] = end[0] + rng.gen_range(10..40);
    end[2] = end[1] + rng.gen_range(10..40);

    let mut log = LongLog {
        events: Vec::new(),
        observer_returns: Vec::new(),
        cut: 0,
        deepest_walk: 0,
    };
    // (key, value) of every commit so far; its length is the state index.
    let mut commits: Vec<(i64, i64)> = Vec::new();
    loop {
        let now = commits.len();
        for i in 0..3 {
            if now == start[i] {
                log.events.push(Event::Call {
                    tid: ThreadId(10 + i as u32),
                    object: OBJ,
                    method: "Get".into(),
                    args: vec![Value::from(keys[i])].into(),
                });
            }
        }
        if now == pin {
            let tid = ThreadId(10 + pinned as u32);
            log.events.push(Event::Commit { tid, object: OBJ });
        }
        if now == cut_at {
            log.cut = log.events.len();
        }
        for i in 0..3 {
            if now != end[i] {
                continue;
            }
            let state = match pick(i) {
                _ if i == pinned => pin,
                Pick::First => start[i],
                Pick::Middle => (start[i] + end[i]) / 2,
                Pick::Last => end[i],
            };
            let value = value_at(&commits, keys[i], state);
            if i != pinned {
                let first_justified = (start[i]..=end[i])
                    .find(|&j| value_at(&commits, keys[i], j) == value)
                    .expect("the picked state justifies it");
                log.deepest_walk = log.deepest_walk.max((first_justified - start[i]) as u64);
            }
            log.observer_returns.push(log.events.len());
            log.events.push(Event::Return {
                tid: ThreadId(10 + i as u32),
                object: OBJ,
                method: "Get".into(),
                ret: Value::from(value),
            });
        }
        if now == end[2] {
            return log;
        }
        // One complete Put; to the key of a `Last` observer about to return.
        let about_to_return_last =
            (0..3).find(|&i| i != pinned && now + 1 == end[i] && matches!(pick(i), Pick::Last));
        let k = about_to_return_last.map_or_else(|| rng.gen_range(0..KEYS), |i| keys[i]);
        let v = now as i64 + 1;
        let tid = ThreadId(rng.gen_range(0..2));
        log.events.extend([
            Event::Call {
                tid,
                object: OBJ,
                method: "Put".into(),
                args: vec![Value::from(k), Value::from(v)].into(),
            },
            Event::Write {
                tid,
                object: OBJ,
                var: VarId::new("reg", k),
                value: Value::from(v),
            },
            Event::Commit { tid, object: OBJ },
            Event::Return {
                tid,
                object: OBJ,
                method: "Put".into(),
                ret: Value::Unit,
            },
        ]);
        commits.push((k, v));
    }
}

/// Drives a property over `cases` consecutive seeds starting at `base`.
/// The per-case thread count and step budget are derived from the seed,
/// so the corpus spans the same shape space the proptest version did;
/// the closure's panic message is wrapped with the failing seed.
fn for_each_case(
    base: u64,
    cases: u64,
    threads_range: std::ops::Range<usize>,
    steps_range: std::ops::Range<usize>,
    body: impl Fn(u64, usize, usize),
) {
    for seed in base..base + cases {
        let mut shape = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let threads = shape.gen_range(threads_range.clone());
        let steps = shape.gen_range(steps_range.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(seed, threads, steps)
        }));
        if result.is_err() {
            panic!("property failed at seed {seed} (threads={threads}, steps={steps}); replay with generate_log({seed}, {threads}, {steps})");
        }
    }
}

/// Drives a property over every [`long_window_log`] seed.
fn for_each_long_case(body: impl Fn(u64, LongLog)) {
    for seed in LONG_SEEDS {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(seed, long_window_log(seed))
        }));
        if result.is_err() {
            panic!("property failed at seed {seed}; replay with long_window_log({seed})");
        }
    }
}

fn passes_io(events: Vec<Event>) -> Report {
    let report = Checker::io(RegSpec::default()).check_events(events);
    assert!(report.passed(), "{report}");
    report
}

#[test]
fn generated_valid_logs_pass_io() {
    for_each_case(0, 64, 1..6, 1..120, |seed, threads, steps| {
        passes_io(generate_log(seed, threads, steps).0);
    });
    for_each_long_case(|_, log| {
        let stats = passes_io(log.events).stats;
        assert_eq!(stats.observers_checked, 3);
    });
    let deepest = LONG_SEEDS.map(|seed| long_window_log(seed).deepest_walk).max();
    assert!(deepest >= Some(200), "no seed walks a whole window: {deepest:?}");
}

fn passes_view(events: Vec<Event>) {
    let report =
        Checker::view(RegSpec::default(), RegReplayer::default()).check_events(events.clone());
    assert!(report.passed(), "{report}");
    // Incremental-vs-full equivalence on the same trace (there is no
    // incremental protocol here, so both take the full path — this
    // guards the option against divergence).
    let full = Checker::view(RegSpec::default(), RegReplayer::default())
        .with_options(CheckerOptions {
            full_view_compare: true,
            ..Default::default()
        })
        .check_events(events);
    assert!(full.passed(), "{full}");
}

#[test]
fn generated_valid_logs_pass_view() {
    for_each_case(100, 64, 1..6, 1..120, |seed, threads, steps| {
        passes_view(generate_log(seed, threads, steps).0);
    });
    for_each_long_case(|_, log| passes_view(log.events));
}

fn corrupted_observer_return_fails(seed: u64, events: Vec<Event>, observer_returns: &[usize]) {
    if observer_returns.is_empty() {
        return;
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD);
    let idx = observer_returns[rng.gen_range(0..observer_returns.len())];
    let events = with_corrupted_return(events, idx);
    let report = Checker::io(RegSpec::default()).check_events(events);
    assert!(!report.passed(), "corruption must be detected");
    assert_eq!(
        report.violation.expect("violation").category(),
        "observer-unjustified"
    );
}

#[test]
fn corrupted_observer_returns_fail() {
    for_each_case(200, 64, 1..6, 8..120, |seed, threads, steps| {
        let (events, observer_returns) = generate_log(seed, threads, steps);
        corrupted_observer_return_fails(seed, events, &observer_returns);
    });
    for_each_long_case(|seed, log| {
        corrupted_observer_return_fails(seed, log.events, &log.observer_returns);
    });
}

/// §4.3 at its most literal, as the oracle: the specification is cloned
/// after *every* commit, and an observer's return is judged when it
/// arrives by scanning the states of its window in ascending order. What
/// the checker used to reconstruct and now never stores. Returns the
/// first violation and the number of candidates rejected over the log.
fn literal_4_3(events: &[Event]) -> (Option<Violation>, u64) {
    let mut states = vec![RegSpec::default()];
    // Per thread: method, args, window start, explicit-commit pin.
    let mut open: BTreeMap<ThreadId, (MethodId, Vec<Value>, usize, Option<usize>)> = BTreeMap::new();
    let (mut first, mut rejected) = (None, 0u64);
    for (position, event) in events.iter().enumerate() {
        let log_position = position as u64;
        match event {
            Event::Call { tid, method, args, .. } => {
                open.insert(*tid, (*method, args.to_vec(), states.len() - 1, None));
            }
            Event::Commit { tid, .. } => {
                let (method, args, _, pin) = open.get_mut(tid).expect("well-formed");
                if method.name() == "Get" {
                    *pin = Some(states.len() - 1);
                    continue;
                }
                let ret = events[position..].iter().find_map(|e| match e {
                    Event::Return { tid: t, ret, .. } if t == tid => Some(ret.clone()),
                    _ => None,
                });
                let (ret, mut next) = (ret.expect("well-formed"), states[states.len() - 1].clone());
                match next.apply(method, args, &ret) {
                    Ok(_) => states.push(next),
                    Err(err) => drop(first.get_or_insert(Violation::SpecRejectedCommit {
                        tid: *tid,
                        method: *method,
                        args: args.clone(),
                        ret,
                        reason: err.message().to_owned(),
                        commit_index: states.len() as u64 - 1,
                        log_position,
                    })),
                }
            }
            Event::Return { tid, method, ret, .. } if method.name() == "Get" => {
                let (_, args, start, pin) = open.remove(tid).expect("well-formed");
                let (lo, hi) = pin.map_or((start, states.len() - 1), |c| (c, c));
                let misses = (lo..=hi)
                    .take_while(|&j| !states[j].accepts_observation(method, &args, ret))
                    .count();
                rejected += misses as u64;
                if misses == hi - lo + 1 {
                    first.get_or_insert(Violation::ObserverUnjustified {
                        tid: *tid,
                        method: *method,
                        args,
                        ret: ret.clone(),
                        window_start: lo as u64,
                        window_end: hi as u64,
                        log_position,
                    });
                }
            }
            Event::Return { tid, .. } => drop(open.remove(tid)),
            _ => {}
        }
    }
    (first, rejected)
}

/// Runs `events` through the checker and through [`literal_4_3`]: same
/// first violation to the field, same number of rejected candidates.
fn agrees_with_literal_4_3(events: &[Event]) {
    let (violation, rejected) = literal_4_3(events);
    let lin = |stop_at_first_violation| {
        Checker::lin(RegSpec::default())
            .with_options(CheckerOptions {
                stop_at_first_violation,
                ..Default::default()
            })
            .check_events(events.to_vec())
    };
    let whole = lin(false);
    assert_eq!(whole.violation, violation);
    assert_eq!(whole.stats.lin_witness_backtracks, rejected);
    assert_eq!(lin(true).violation, violation);
}

/// `events` with the return at `idx` replaced by a value no register ever
/// holds.
fn with_corrupted_return(mut events: Vec<Event>, idx: usize) -> Vec<Event> {
    let Event::Return { ret, .. } = &mut events[idx] else {
        panic!("index does not point at a return");
    };
    *ret = Value::from(-1i64);
    events
}

/// `events` with one more execution spliced in before index `at`, by a
/// thread of its own: a mutator the specification refuses.
fn with_rejected_commit(mut events: Vec<Event>, at: usize) -> Vec<Event> {
    let tid = ThreadId(99);
    let refused = [
        Event::Call {
            tid,
            object: OBJ,
            method: "Frobnicate".into(),
            args: vec![].into(),
        },
        Event::Commit { tid, object: OBJ },
        Event::Return {
            tid,
            object: OBJ,
            method: "Frobnicate".into(),
            ret: Value::Unit,
        },
    ];
    events.splice(at..at, refused);
    events
}

/// Every variation of one generated log the oracle is consulted on.
fn literal_4_3_variations(seed: u64, events: Vec<Event>, observer_returns: &[usize]) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x43);
    agrees_with_literal_4_3(&events);
    agrees_with_literal_4_3(&with_rejected_commit(
        events.clone(),
        rng.gen_range(0..events.len() + 1),
    ));
    if observer_returns.is_empty() {
        return;
    }
    let idx = observer_returns[rng.gen_range(0..observer_returns.len())];
    agrees_with_literal_4_3(&with_corrupted_return(events.clone(), idx));
    // An explicit observer commit somewhere inside that observer's
    // execution: the return may or may not be justified at the pin.
    let Event::Return { tid, .. } = &events[idx] else {
        unreachable!()
    };
    let call = events[..idx]
        .iter()
        .rposition(|e| matches!(e, Event::Call { tid: t, .. } if t == tid))
        .expect("a return has its call");
    let mut pinned = events.clone();
    let pin = Event::Commit { tid: *tid, object: OBJ };
    pinned.insert(rng.gen_range(call + 1..idx + 1), pin);
    agrees_with_literal_4_3(&pinned);
}

#[test]
fn the_checker_agrees_with_section_4_3_taken_literally() {
    for_each_case(700, 96, 1..6, 1..160, |seed, threads, steps| {
        let (events, observer_returns) = generate_log(seed, threads, steps);
        literal_4_3_variations(seed, events, &observer_returns);
    });
    for_each_long_case(|seed, log| {
        literal_4_3_variations(seed, log.events, &log.observer_returns);
    });
}

/// A checkpoint taken while all three long windows are open restores to
/// the uninterrupted run: same verdict, same counters.
#[test]
fn long_windows_survive_a_checkpoint_cut() {
    for_each_long_case(|_, log| {
        let uninterrupted = passes_io(log.events.clone());
        let mut first = Checker::io(RegSpec::default());
        for event in &log.events[..log.cut] {
            first.feed(event.clone());
        }
        let state = first.save_state().expect("RegSpec checkpoints");
        let mut resumed = Checker::io(RegSpec::default());
        resumed.restore_state(&state).expect("own state restores");
        for event in &log.events[log.cut..] {
            resumed.feed(event.clone());
        }
        let resumed = resumed.into_report();
        assert_eq!(resumed.verdict(), uninterrupted.verdict());
        assert_eq!(resumed.stats, uninterrupted.stats);
    });
}

#[test]
fn dropped_writes_fail_view_refinement() {
    for_each_case(300, 64, 1..6, 8..120, |seed, threads, steps| {
        dropped_write_fails_view(seed, generate_log(seed, threads, steps).0);
    });
    for_each_long_case(|seed, log| dropped_write_fails_view(seed, log.events));
}

fn dropped_write_fails_view(seed: u64, events: Vec<Event>) {
    {
        let write_positions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Event::Write { .. }))
            .map(|(i, _)| i)
            .collect();
        if write_positions.is_empty() {
            return;
        }
        let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
        let drop_idx = write_positions[rng.gen_range(0..write_positions.len())];
        // Losing a write makes view_I diverge from view_S *unless* a
        // later write restores the same value before any comparison...
        // which cannot happen here because the comparison fires at the
        // very commit whose write was lost.
        let mutated: Vec<Event> = events
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop_idx)
            .map(|(_, e)| e.clone())
            .collect();
        let report =
            Checker::view(RegSpec::default(), RegReplayer::default()).check_events(mutated);
        // The lost write is only visible if the committed value differed
        // from what the register already held.
        let Event::Write { var, value, .. } = &events[drop_idx] else {
            unreachable!()
        };
        let prior = events[..drop_idx].iter().rev().find_map(|e| match e {
            Event::Write {
                var: v2, value: v, ..
            } if v2 == var => Some(v.clone()),
            _ => None,
        });
        let visible = prior.as_ref() != Some(value) && prior.is_some()
            || (prior.is_none() && value.as_int() != Some(0));
        if visible {
            assert!(!report.passed(), "lost write must be detected");
            assert!(report.violation.expect("violation").is_view_only());
        }
    }
}

mod naive_oracle {
    //! Cross-validation against the §2 naive exhaustive checker: on small
    //! traces the commit-order checker and brute-force linearization
    //! search must agree — except where the commit annotation itself is
    //! wrong, which is exactly the §4.1 diagnosis ("the witness
    //! interleaving is wrong" vs "the implementation truly does not
    //! refine").

    use super::*;
    use vyrd_core::checker::naive::{check_exhaustive, NaiveOutcome};

    #[test]
    fn naive_agrees_on_generated_valid_logs() {
        for_each_case(400, 48, 1..4, 1..30, |seed, threads, steps| {
            let (events, _) = generate_log(seed, threads, steps);
            let commit_report = Checker::io(RegSpec::default()).check_events(events.clone());
            assert!(commit_report.passed());
            let naive = check_exhaustive(&RegSpec::default(), &events, 2_000_000);
            assert_eq!(naive.outcome, NaiveOutcome::Linearizable);
        });
    }

    #[test]
    fn naive_agrees_on_corrupted_observers() {
        for_each_case(500, 48, 1..4, 8..30, |seed, threads, steps| {
            let (events, observer_returns) = generate_log(seed, threads, steps);
            if observer_returns.is_empty() {
                return;
            }
            let events = with_corrupted_return(events, observer_returns[0]);
            let commit_report = Checker::io(RegSpec::default()).check_events(events.clone());
            assert!(!commit_report.passed());
            let naive = check_exhaustive(&RegSpec::default(), &events, 2_000_000);
            assert_eq!(naive.outcome, NaiveOutcome::NotLinearizable);
        });
    }

    #[test]
    fn wrong_commit_annotation_is_distinguishable() {
        // Two overlapping Puts whose *annotated* commit order (T2 then
        // T1 ⇒ final value 10) contradicts the order the observer
        // witnessed (final value 20).
        let events = vec![
            Event::Call {
                tid: ThreadId(1),
                object: OBJ,
                method: "Put".into(),
                args: vec![Value::from(1i64), Value::from(10i64)].into(),
            },
            Event::Call {
                tid: ThreadId(2),
                object: OBJ,
                method: "Put".into(),
                args: vec![Value::from(1i64), Value::from(20i64)].into(),
            },
            Event::Commit { tid: ThreadId(2), object: OBJ },
            Event::Commit { tid: ThreadId(1), object: OBJ },
            Event::Return {
                tid: ThreadId(1),
                object: OBJ,
                method: "Put".into(),
                ret: Value::Unit,
            },
            Event::Return {
                tid: ThreadId(2),
                object: OBJ,
                method: "Put".into(),
                ret: Value::Unit,
            },
            Event::Call {
                tid: ThreadId(3),
                object: OBJ,
                method: "Get".into(),
                args: vec![Value::from(1i64)].into(),
            },
            Event::Return {
                tid: ThreadId(3),
                object: OBJ,
                method: "Get".into(),
                ret: Value::from(20i64),
            },
        ];
        // The commit-order checker rejects: per the annotations the final
        // value is 10.
        let commit_report = Checker::io(RegSpec::default()).check_events(events.clone());
        assert!(!commit_report.passed());
        // The naive search accepts: serializing T1's Put before T2's
        // gives 20, consistent with real time. A linearization exists.
        let naive = check_exhaustive(&RegSpec::default(), &events, 1_000_000);
        assert_eq!(naive.outcome, NaiveOutcome::Linearizable);
        // §4.1: "Comparing the witness interleaving with the
        // implementation trace reveals which one is the case" — here the
        // disagreement diagnoses a wrong commit-point annotation, not a
        // broken implementation.
    }
}
