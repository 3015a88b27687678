//! A pool of verifier threads checking per-object logs concurrently (§8).
//!
//! [`VerifierPool`] is the multi-object counterpart of
//! [`OnlineVerifier`](crate::online::OnlineVerifier): it owns a
//! [`ShardRouter`](crate::shard::ShardRouter) and a set of worker threads.
//! Each worker pulls newly-announced shards and runs one
//! [`Checker`](crate::checker::Checker) — built per object by a
//! caller-supplied factory, erased to a [`SteppingChecker`] — over that
//! object's event stream. Checking per object is not just parallel, it is
//! *cheaper*: each checker carries 1/K of the specification state, so the
//! per-commit costs that scale with spec size (observer-window snapshots,
//! §4.3, and view comparisons, §5) shrink with it.
//!
//! `finish()` follows the [`OnlineVerifier`](crate::online::OnlineVerifier)
//! contract — close the log, join the workers, return a merged [`Report`]:
//! stats are summed across objects, the first violation wins (ties broken
//! by lowest object id, so the verdict is deterministic), and events
//! appended after close are counted, not silently dropped.
//!
//! ```
//! use vyrd_core::checker::Checker;
//! use vyrd_core::log::LogMode;
//! use vyrd_core::pool::VerifierPool;
//! use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
//! use vyrd_core::view::View;
//! use vyrd_core::{MethodId, ObjectId, Value};
//! use std::collections::BTreeSet;
//!
//! #[derive(Clone, Default)]
//! struct SetSpec(BTreeSet<i64>);
//! impl Spec for SetSpec {
//!     fn kind(&self, m: &MethodId) -> MethodKind {
//!         if m.name() == "Contains" { MethodKind::Observer } else { MethodKind::Mutator }
//!     }
//!     fn apply(&mut self, _m: &MethodId, args: &[Value], _r: &Value)
//!         -> Result<SpecEffect, SpecError>
//!     {
//!         self.0.insert(args[0].as_int().unwrap());
//!         Ok(SpecEffect::unchanged())
//!     }
//!     fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
//!         ret.as_bool() == Some(self.0.contains(&args[0].as_int().unwrap()))
//!     }
//!     fn view(&self) -> View { View::new() }
//! }
//!
//! // One independent set per object; the factory builds its checker.
//! let pool = VerifierPool::spawn(LogMode::Io, 2, |_object: ObjectId| {
//!     Box::new(Checker::io(SetSpec::default())) as _
//! });
//! for obj in 0..2u32 {
//!     let logger = pool.log().with_object(ObjectId(obj)).logger();
//!     logger.call("Add", &[Value::from(7i64)]);
//!     logger.commit();
//!     logger.ret("Add", Value::Unit);
//!     logger.call("Contains", &[Value::from(7i64)]);
//!     logger.ret("Contains", Value::from(true));
//! }
//! let report = pool.finish();
//! assert!(report.passed());
//! assert_eq!(report.stats.commits_applied, 2);
//! ```

// The pool is the component that must keep running while everything else
// fails; panicking escape hatches are banned outside tests.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::any::Any;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vyrd_rt::channel::Receiver;
use vyrd_rt::sync::Mutex;

use crate::checker::{SteppingChecker, SteppingFactory};
use crate::event::{Event, ObjectId};
use crate::log::{EventLog, LogMode};
use crate::metrics::pipeline;
use crate::overload::{ShedControl, Watchdog};
use crate::shard::{ShardConfig, ShardRouter};
use crate::violation::{Degradation, Report, ShardFailure, Violation};

/// How the pool supervises a checker that panics or stops consuming.
///
/// A panicking checker never unwinds the pool: the worker catches it,
/// rebuilds the checker from the factory, and retries — up to
/// `max_restarts` times, sleeping `backoff` (doubled per retry) between
/// attempts. A shard that exhausts its restarts is abandoned with a
/// structured [`ShardFailure`] in the merged report, and the rest of the
/// pool keeps checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Restarts allowed per shard before it is abandoned.
    pub max_restarts: u32,
    /// Sleep before the first restart; doubles on each further restart.
    pub backoff: Duration,
    /// With `Some(deadline)`, a [`Watchdog`] ticker escalates any shard
    /// with queued events and no consumption for `deadline`: an
    /// unclaimed one to a freshly spawned supervised rescue worker, a
    /// claimed-but-stuck one to router-level quarantine. Every
    /// escalation lands in the merged report's [`Degradation`] ledger.
    /// `None` (default) runs no watchdog.
    pub stall_deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 2,
            backoff: Duration::from_millis(1),
            stall_deadline: None,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one shard's checker to completion under supervision: panics are
/// caught, the checker is rebuilt and retried per `sup`, and a shard that
/// exhausts its restarts yields a degraded (never absent) report.
///
/// Events the failed attempts consumed are gone — a restarted checker
/// sees only the remaining suffix of the shard — so each panic's toll is
/// counted into [`Degradation::events_lost`].
fn check_shard(
    object: ObjectId,
    receiver: &Receiver<Event>,
    factory: &SteppingFactory,
    sup: SupervisorConfig,
) -> Report {
    let mut restarts: u32 = 0;
    let mut events_lost: u64 = 0;
    let mut last_panic = String::new();
    // Verdict latency covers the whole supervised check — retries and
    // backoff included — because that is the wall time the shard's
    // verdict actually took to arrive.
    let started = vyrd_rt::metrics::enabled().then(Instant::now);
    let record_latency = |started: Option<Instant>| {
        if let Some(t) = started {
            let us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
            pipeline().pool_verdict_latency_us.record(us);
        }
    };
    loop {
        let consumed_before = receiver.popped();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let checker = factory(object);
            // `pool.check.<object>` failpoint: a Panic action here is
            // indistinguishable from the checker itself panicking, and
            // fires before any event is consumed, so a restart re-checks
            // the full stream.
            if vyrd_rt::fault::enabled() {
                vyrd_rt::fault::inject(&format!("pool.check.{}", object.0));
            }
            checker.check(receiver)
        }));
        match outcome {
            Ok(mut report) => {
                // Events the checker pulled off the channel but never
                // stepped — its lookahead buffer at the moment it
                // stopped at a violation. Delivered but unchecked, so
                // they are stranded coverage, same as queue residue.
                let consumed = receiver.popped() - consumed_before;
                report.degradation.stranded_events +=
                    consumed.saturating_sub(report.stats.events);
                if vyrd_rt::metrics::enabled() {
                    pipeline().pool_events_checked.add(report.stats.events);
                    record_latency(started);
                }
                if restarts > 0 {
                    if vyrd_rt::metrics::enabled() {
                        pipeline().pool_shard_failures.inc();
                    }
                    report.degradation.restarts += u64::from(restarts);
                    report.degradation.events_lost += events_lost;
                    report.degradation.shard_failures.push(ShardFailure {
                        object,
                        panic_msg: last_panic,
                        events_lost,
                        restarts,
                    });
                }
                return report;
            }
            Err(panic) => {
                events_lost += receiver.popped() - consumed_before;
                last_panic = panic_message(panic.as_ref());
                if restarts >= sup.max_restarts {
                    // Give up on this shard: drain whatever is already
                    // queued (counting it as lost coverage) and report.
                    // Dropping the receiver afterwards disconnects the
                    // channel, so blocked producers wake instead of
                    // stalling on a full shard nobody will ever drain.
                    let drain_before = receiver.popped();
                    while receiver.try_recv().is_ok() {}
                    events_lost += receiver.popped() - drain_before;
                    if vyrd_rt::metrics::enabled() {
                        pipeline().pool_shard_failures.inc();
                        record_latency(started);
                    }
                    let mut report = Report::default();
                    report.degradation.restarts += u64::from(restarts);
                    report.degradation.events_lost += events_lost;
                    report.degradation.shard_failures.push(ShardFailure {
                        object,
                        panic_msg: last_panic,
                        events_lost,
                        restarts,
                    });
                    return report;
                }
                thread::sleep(sup.backoff * 2u32.saturating_pow(restarts.min(16)));
                restarts += 1;
                if vyrd_rt::metrics::enabled() {
                    pipeline().pool_restarts.inc();
                }
            }
        }
    }
}

/// Per-object verdicts plus the merged one, from
/// [`VerifierPool::finish_all`].
#[derive(Debug)]
pub struct PoolReport {
    /// The merged verdict (what [`VerifierPool::finish`] returns).
    pub merged: Report,
    /// One report per object that logged at least one event, ordered by
    /// object id.
    pub per_object: Vec<(ObjectId, Report)>,
}

impl fmt::Display for PoolReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.merged)?;
        for (object, report) in &self.per_object {
            write!(f, "\n  {object}: {report}")?;
        }
        Ok(())
    }
}

/// A running pool of per-object verifier threads.
///
/// Create with [`VerifierPool::spawn`], hand [`VerifierPool::log`] (scoped
/// per instance via [`EventLog::with_object`]) to the instrumented
/// program, then call [`VerifierPool::finish`] for the merged verdict.
pub struct VerifierPool {
    log: EventLog,
    router: Arc<ShardRouter>,
    factory: SteppingFactory,
    supervisor: SupervisorConfig,
    workers: Vec<JoinHandle<()>>,
    results: Arc<Mutex<Vec<(ObjectId, Report)>>>,
    watchdog: Option<WatchdogRuntime>,
}

/// The moving parts a pool with a stall deadline carries.
struct WatchdogRuntime {
    control: Arc<ShedControl>,
    /// The watchdog's ticker thread; stopped before workers are joined
    /// so no rescue can race the shutdown. `None` if it could not be
    /// spawned: the pool then runs without stall escalation.
    ticker: Option<vyrd_rt::time::Ticker>,
    /// Rescue workers the watchdog spawned for unclaimed stuck shards.
    rescues: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl WatchdogRuntime {
    /// Starts the watchdog ticker. Its rescue path spawns one more
    /// supervised worker per unclaimed stuck shard.
    fn start(
        control: Arc<ShedControl>,
        deadline: Duration,
        router: &Arc<ShardRouter>,
        factory: &SteppingFactory,
        results: &Arc<Mutex<Vec<(ObjectId, Report)>>>,
        supervisor: SupervisorConfig,
    ) -> WatchdogRuntime {
        let rescues: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let rescue = {
            let router = Arc::clone(router);
            let factory = Arc::clone(factory);
            let results = Arc::clone(results);
            let control = Arc::clone(&control);
            let rescues = Arc::clone(&rescues);
            let mut next_id = 0usize;
            move || {
                let handles = spawn_workers(
                    &router,
                    &factory,
                    &results,
                    supervisor,
                    Some(&control),
                    1,
                    &format!("vyrd-rescue-{next_id}"),
                );
                next_id += 1;
                let ok = !handles.is_empty();
                rescues.lock().extend(handles);
                ok
            }
        };
        let ticker = Watchdog::new(Arc::clone(&control), deadline, rescue)
            .into_ticker()
            .ok();
        WatchdogRuntime {
            control,
            ticker,
            rescues,
        }
    }
}

/// Spawns `count` competing shard workers (subject to the `pool.spawn`
/// failpoint). With a `control`, each worker marks its claim so the
/// watchdog can tell an unclaimed shard from a claimed-but-stuck one.
fn spawn_workers(
    router: &Arc<ShardRouter>,
    factory: &SteppingFactory,
    results: &Arc<Mutex<Vec<(ObjectId, Report)>>>,
    supervisor: SupervisorConfig,
    control: Option<&Arc<ShedControl>>,
    count: usize,
    name_prefix: &str,
) -> Vec<JoinHandle<()>> {
    let mut handles = Vec::new();
    for i in 0..count {
        let worker_router = Arc::clone(router);
        let worker_factory = Arc::clone(factory);
        let worker_results = Arc::clone(results);
        let worker_control = control.map(Arc::clone);
        // `pool.spawn` failpoint: a Drop disposition simulates the OS
        // refusing the thread. Whether injected or real, a failed
        // spawn is not fatal — the shards that worker would have
        // serviced are checked inline during `finish` instead.
        let spawned = if matches!(
            vyrd_rt::fault::inject("pool.spawn"),
            vyrd_rt::fault::Disposition::Drop
        ) {
            Err(io::Error::other("injected worker spawn failure"))
        } else {
            thread::Builder::new()
                .name(format!("{name_prefix}-{i}"))
                .spawn(move || {
                    // Workers compete for newly announced shards; each
                    // shard is checked by exactly one worker, start to
                    // finish. recv_shard errors once the log is closed
                    // and every shard has been handed out.
                    while let Ok((object, receiver)) = worker_router.recv_shard() {
                        if let Some(control) = &worker_control {
                            control.mark_claimed(object);
                        }
                        let report = check_shard(object, &receiver, &worker_factory, supervisor);
                        worker_results.lock().push((object, report));
                    }
                })
        };
        if let Ok(handle) = spawned {
            handles.push(handle);
        }
    }
    handles
}

impl fmt::Debug for VerifierPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifierPool")
            .field("workers", &self.workers.len())
            .field("log", &self.log)
            .finish_non_exhaustive()
    }
}

impl VerifierPool {
    /// Spawns `workers` verifier threads over unbounded shards. `factory`
    /// builds the spec/replayer checker for each object the program
    /// touches, the first time an event of that object arrives.
    pub fn spawn<F>(mode: LogMode, workers: usize, factory: F) -> VerifierPool
    where
        F: Fn(ObjectId) -> Box<dyn SteppingChecker> + Send + Sync + 'static,
    {
        VerifierPool::spawn_with(mode, workers, ShardConfig::default(), factory)
    }

    /// Like [`VerifierPool::spawn`] with explicit shard configuration.
    /// With a bounded blocking [`ShardConfig`], run at least as many
    /// workers as live objects (see the deadlock rule on
    /// [`ShardConfig::capacity`]).
    pub fn spawn_with<F>(
        mode: LogMode,
        workers: usize,
        config: ShardConfig,
        factory: F,
    ) -> VerifierPool
    where
        F: Fn(ObjectId) -> Box<dyn SteppingChecker> + Send + Sync + 'static,
    {
        VerifierPool::spawn_supervised(mode, workers, config, SupervisorConfig::default(), factory)
    }

    /// Like [`VerifierPool::spawn_with`] with explicit supervision: panic
    /// restarts, and — with [`SupervisorConfig::stall_deadline`] set — a
    /// watchdog ticker and its rescue workers.
    pub fn spawn_supervised<F>(
        mode: LogMode,
        workers: usize,
        config: ShardConfig,
        supervisor: SupervisorConfig,
        factory: F,
    ) -> VerifierPool
    where
        F: Fn(ObjectId) -> Box<dyn SteppingChecker> + Send + Sync + 'static,
    {
        let control = supervisor
            .stall_deadline
            .map(|_| Arc::new(ShedControl::default()));
        let (log, router) = ShardRouter::build(mode, config, control.clone());
        let router = Arc::new(router);
        let factory: SteppingFactory = Arc::new(factory);
        let results = Arc::new(Mutex::new(Vec::new()));
        let handles = spawn_workers(
            &router,
            &factory,
            &results,
            supervisor,
            control.as_ref(),
            workers.max(1),
            "vyrd-verifier",
        );
        let watchdog = control
            .zip(supervisor.stall_deadline)
            .map(|(control, deadline)| {
                WatchdogRuntime::start(control, deadline, &router, &factory, &results, supervisor)
            });
        VerifierPool {
            log,
            router,
            factory,
            supervisor,
            workers: handles,
            results,
            watchdog,
        }
    }

    /// The log the instrumented program should append to. Scope
    /// per-instance handles with [`EventLog::with_object`].
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Closes the log, waits for every per-object verdict, and merges
    /// them: stats summed, first violation wins (lowest object id on a
    /// tie, so the verdict is deterministic), discarded-after-close events
    /// counted, and every degradation (sheds, lost events, restarts, shard
    /// failures) absorbed so reduced coverage is visible in the verdict.
    /// Same contract as
    /// [`OnlineVerifier::finish`](crate::online::OnlineVerifier::finish).
    pub fn finish(self) -> Report {
        self.finish_all().merged
    }

    /// Replays a recorded trace through the pool: re-appends `events`
    /// (thread and object ids intact) into its log, then
    /// [`VerifierPool::finish_all`]. Faults armed by the caller fire inside
    /// this pipeline — on append, on routing, and in the per-shard
    /// checkers.
    pub fn replay(self, events: &[Event]) -> PoolReport {
        for e in events {
            self.log.append_event(e.clone());
        }
        self.finish_all()
    }

    /// Like [`VerifierPool::finish`], also returning the per-object
    /// reports.
    pub fn finish_all(mut self) -> PoolReport {
        self.log.close();
        // Stop the watchdog before joining anything: no new rescue
        // workers may appear while the pool shuts down, and the final
        // ledger must not gain entries after it is drained.
        if let Some(watchdog) = &mut self.watchdog {
            if let Some(ticker) = &mut watchdog.ticker {
                ticker.stop();
            }
        }
        let mut lost_workers = 0u64;
        for handle in self.workers {
            // check_shard already catches checker panics, so a worker
            // dying here is out-of-model — record it as lost coverage
            // rather than unwinding the caller.
            if handle.join().is_err() {
                lost_workers += 1;
            }
        }
        if let Some(watchdog) = &self.watchdog {
            let rescues = std::mem::take(&mut *watchdog.rescues.lock());
            for handle in rescues {
                if handle.join().is_err() {
                    lost_workers += 1;
                }
            }
        }
        // Shards no worker ever picked up — spawn failures (injected or
        // real) or lost workers — are checked inline, on this thread, so
        // coverage survives even a pool that never got off the ground.
        let mut spawn_fallbacks = 0u64;
        while let Ok((object, receiver)) = self.router.try_recv_shard() {
            let report = check_shard(object, &receiver, &self.factory, self.supervisor);
            self.results.lock().push((object, report));
            spawn_fallbacks += 1;
        }
        let mut per_object = std::mem::take(&mut *self.results.lock());
        per_object.sort_by_key(|(object, _)| *object);
        // Degrade, never forge: a violation established at or beyond an
        // object's gap-free prefix was observed across a shed gap — the
        // checker's input was missing events there, so the "violation"
        // may be an artifact of the hole rather than a program bug.
        // Suppress it into the ledger (the verdict degrades instead of
        // failing); a violation inside the prefix saw a faithful slice
        // of the execution and stands.
        let shed_windows = self.router.shed_windows();
        for (object, report) in per_object.iter_mut() {
            let Some(window) = shed_windows.iter().find(|w| w.object == *object) else {
                continue;
            };
            // Three unreliable shapes on a shard with a coverage gap: a
            // violation at or past the gap-free prefix (the checker's
            // input was already torn there); a violation established at
            // end-of-stream (`log_position == stats.events`, past the
            // last processed event); and a malformed-log verdict — the
            // "end" and any missing return were manufactured by shedding
            // or abandoning the shard mid-method, so they indict the
            // truncation, not the program.
            if report.violation.as_ref().is_some_and(|v| {
                v.log_position() >= window.prefix_events
                    || v.log_position() >= report.stats.events
                    || matches!(v, Violation::MalformedLog { .. })
            }) {
                report.violation = None;
                report.degradation.unreliable_violations += 1;
            }
        }
        let mut merged = Report::default();
        for (_, report) in &per_object {
            merged.absorb(report);
        }
        // Coverage lost before any checker saw the events: router-level
        // sheds (overload or injected routing drops) and appends dropped
        // by the `log.append` failpoint.
        let routing_losses = Degradation {
            sheds_by_object: self.router.sheds(),
            shed_windows: self.router.shed_windows(),
            lost_workers,
            spawn_fallbacks,
            ..Degradation::default()
        };
        merged.degradation.absorb(&routing_losses);
        if let Some(watchdog) = &self.watchdog {
            // Workers are joined and unclaimed shards drained inline, so
            // whatever the probes still see queued is permanently
            // stranded (abandoned/quarantined shards whose checker hung
            // up or stopped early).
            let watchdog_ledger = Degradation {
                watchdog_events: watchdog.control.finalize(),
                stranded_events: watchdog.control.stranded_events(),
                ..Degradation::default()
            };
            merged.degradation.absorb(&watchdog_ledger);
        }
        let log_stats = self.log.stats();
        merged.degradation.events_lost += log_stats.events_dropped_injected;
        merged.stats.events_discarded_after_close = log_stats.events_discarded_after_close;
        if vyrd_rt::metrics::enabled() {
            let pm = pipeline();
            pm.pool_spawn_fallbacks.add(spawn_fallbacks);
            // End-of-run verifier lag: events the program appended that no
            // checker ever stepped. Sheds, injected drops, lost workers,
            // and panic-drained shards all keep this above zero — the
            // §8 online/offline health signal.
            pm.pool_lag_events
                .set(log_stats.events.saturating_sub(merged.stats.events));
        }
        PoolReport { merged, per_object }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::checker::Checker;
    use crate::event::MethodId;
    use crate::spec::{MethodKind, Spec, SpecEffect, SpecError};
    use crate::value::Value;
    use crate::view::View;
    use std::collections::BTreeSet;

    #[derive(Clone, Default)]
    struct SetSpec(BTreeSet<i64>);

    impl Spec for SetSpec {
        fn kind(&self, m: &MethodId) -> MethodKind {
            if m.name() == "Contains" {
                MethodKind::Observer
            } else {
                MethodKind::Mutator
            }
        }

        fn apply(
            &mut self,
            _m: &MethodId,
            args: &[Value],
            _r: &Value,
        ) -> Result<SpecEffect, SpecError> {
            let x = args[0].as_int().unwrap();
            self.0.insert(x);
            Ok(SpecEffect::touching([x]))
        }

        fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
            ret.as_bool() == Some(self.0.contains(&args[0].as_int().unwrap()))
        }

        fn view(&self) -> View {
            self.0
                .iter()
                .map(|&x| (Value::from(x), Value::Bool(true)))
                .collect()
        }
    }

    fn set_pool(workers: usize) -> VerifierPool {
        VerifierPool::spawn(LogMode::Io, workers, |_object| {
            Box::new(Checker::io(SetSpec::default())) as _
        })
    }

    #[test]
    fn multi_object_pass_with_concurrent_producers() {
        let pool = set_pool(3);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let log = pool.log().clone();
            handles.push(thread::spawn(move || {
                for obj in 0..3u32 {
                    let logger = log.with_object(ObjectId(obj)).logger();
                    for i in 0..25 {
                        let x = Value::from(i64::from(t) * 100 + i);
                        logger.call("Add", std::slice::from_ref(&x));
                        logger.commit();
                        logger.ret("Add", Value::Unit);
                        logger.call("Contains", std::slice::from_ref(&x));
                        logger.ret("Contains", Value::from(true));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = pool.finish_all();
        assert!(all.merged.passed(), "{all}");
        assert_eq!(all.per_object.len(), 3);
        assert_eq!(all.merged.stats.commits_applied, 4 * 3 * 25);
        assert_eq!(all.merged.stats.observers_checked, 4 * 3 * 25);
    }

    #[test]
    fn violation_in_one_object_fails_the_merged_report() {
        let pool = set_pool(2);
        // Object 0 is clean; object 2 claims to contain a value never
        // added.
        let clean = pool.log().with_object(ObjectId(0)).logger();
        clean.call("Add", &[Value::from(1i64)]);
        clean.commit();
        clean.ret("Add", Value::Unit);
        let bad = pool.log().with_object(ObjectId(2)).logger();
        bad.call("Contains", &[Value::from(5i64)]);
        bad.ret("Contains", Value::from(true));
        let all = pool.finish_all();
        assert!(!all.merged.passed());
        assert_eq!(
            all.merged.violation.as_ref().unwrap().category(),
            "observer-unjustified"
        );
        // Per-object reports pinpoint the culprit.
        assert!(all.per_object[0].1.passed());
        assert_eq!(all.per_object[1].0, ObjectId(2));
        assert!(!all.per_object[1].1.passed());
    }

    #[test]
    fn lowest_object_violation_wins_deterministically() {
        // Both objects fail; the merged verdict must come from the lower
        // object id regardless of worker scheduling.
        for _ in 0..8 {
            let pool = set_pool(2);
            for obj in [3u32, 1] {
                let logger = pool.log().with_object(ObjectId(obj)).logger();
                logger.call("Contains", &[Value::from(i64::from(obj))]);
                logger.ret("Contains", Value::from(true));
            }
            let all = pool.finish_all();
            assert_eq!(all.per_object.len(), 2);
            assert_eq!(all.per_object[0].0, ObjectId(1));
            let merged = all.merged.violation.unwrap();
            let from_obj1 = all.per_object[0].1.violation.clone().unwrap();
            assert_eq!(merged, from_obj1);
        }
    }

    #[test]
    fn more_objects_than_workers_still_all_checked() {
        let pool = set_pool(2);
        for obj in 0..6u32 {
            let logger = pool.log().with_object(ObjectId(obj)).logger();
            logger.call("Add", &[Value::from(i64::from(obj))]);
            logger.commit();
            logger.ret("Add", Value::Unit);
        }
        let all = pool.finish_all();
        assert!(all.merged.passed(), "{all}");
        assert_eq!(all.per_object.len(), 6);
        assert_eq!(all.merged.stats.commits_applied, 6);
    }

    #[test]
    fn finish_counts_discarded_stragglers() {
        let pool = set_pool(1);
        let logger = pool.log().with_object(ObjectId(0)).logger();
        logger.call("Add", &[Value::from(1i64)]);
        logger.commit();
        logger.ret("Add", Value::Unit);
        pool.log().close();
        logger.call("Add", &[Value::from(2i64)]);
        logger.commit();
        logger.ret("Add", Value::Unit);
        let report = pool.finish();
        assert!(report.passed(), "{report}");
        assert_eq!(report.stats.events_discarded_after_close, 3);
    }

    /// A checker that panics on its first `fail_times` constructions
    /// (attempt counter shared through the factory), then counts events.
    struct FlakyChecker {
        fail: bool,
        report: Report,
    }

    impl SteppingChecker for FlakyChecker {
        fn feed(&mut self, _event: Event) {
            self.report.stats.events += 1;
        }

        fn feed_batch(&mut self, batch: &mut Vec<Event>) {
            self.report.stats.events += batch.drain(..).count() as u64;
        }

        fn halted(&self) -> bool {
            // Panic before the first receive, so a restart re-checks the
            // whole stream.
            if self.fail {
                panic!("induced checker failure");
            }
            false
        }

        fn save_state(&self) -> Result<Value, crate::checker::state::StateError> {
            unimplemented!("the pool never checkpoints")
        }

        fn restore_state(&mut self, _: &Value) -> Result<(), crate::checker::state::StateError> {
            unimplemented!("the pool never checkpoints")
        }

        fn mark_input_truncated(&mut self) {}

        fn finish(self: Box<Self>) -> Report {
            self.report
        }
    }

    fn flaky_pool(fail_times: u32, supervisor: SupervisorConfig) -> VerifierPool {
        let attempts = std::sync::atomic::AtomicU32::new(0);
        VerifierPool::spawn_supervised(
            LogMode::Io,
            1,
            ShardConfig::default(),
            supervisor,
            move |_object| {
                let n = attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Box::new(FlakyChecker {
                    fail: n < fail_times,
                    report: Report::default(),
                }) as _
            },
        )
    }

    fn log_some_events(pool: &VerifierPool, n: u32) {
        let logger = pool.log().with_object(ObjectId(0)).logger();
        for i in 0..n {
            logger.call("Add", &[Value::from(i64::from(i))]);
            logger.commit();
            logger.ret("Add", Value::Unit);
        }
    }

    #[test]
    fn panicking_checker_is_restarted_and_the_pool_survives() {
        let pool = flaky_pool(2, SupervisorConfig::default());
        log_some_events(&pool, 5);
        let report = pool.finish();
        assert!(report.passed(), "{report}");
        assert!(report.is_degraded());
        assert_eq!(report.degradation.restarts, 2);
        assert_eq!(report.degradation.shard_failures.len(), 1);
        let failure = &report.degradation.shard_failures[0];
        assert_eq!(failure.object, ObjectId(0));
        assert!(failure.panic_msg.contains("induced checker failure"));
        // The panics fired before any event was consumed, so the retry
        // saw the whole stream.
        assert_eq!(failure.events_lost, 0);
        assert_eq!(report.stats.events, 15);
        assert_eq!(
            report.verdict(),
            crate::violation::Verdict::DegradedPass,
            "{report}"
        );
    }

    #[test]
    fn exhausted_restarts_abandon_the_shard_not_the_process() {
        let supervisor = SupervisorConfig {
            max_restarts: 1,
            backoff: Duration::from_micros(100),
            ..SupervisorConfig::default()
        };
        let pool = flaky_pool(u32::MAX, supervisor);
        log_some_events(&pool, 4);
        let all = pool.finish_all();
        let report = &all.merged;
        assert!(report.passed(), "no violation was *observed*");
        assert!(report.is_degraded(), "{report}");
        assert_eq!(report.degradation.restarts, 1);
        let failure = &report.degradation.shard_failures[0];
        assert_eq!(failure.restarts, 1);
        // Every queued event was drained (uninspected) when the shard was
        // abandoned.
        assert_eq!(failure.events_lost, 12);
        assert_eq!(report.degradation.events_lost, 12);
    }

    #[test]
    fn clean_run_reports_zero_degradation() {
        let pool = set_pool(2);
        log_some_events(&pool, 10);
        let report = pool.finish();
        assert!(report.passed());
        assert!(!report.is_degraded(), "{report}");
        assert_eq!(report.degradation, Degradation::default());
    }

    #[test]
    fn bounded_pool_with_enough_workers_completes() {
        let pool = VerifierPool::spawn_with(
            LogMode::Io,
            2,
            ShardConfig::bounded(8),
            |_object| Box::new(Checker::io(SetSpec::default())) as _,
        );
        for obj in 0..2u32 {
            let logger = pool.log().with_object(ObjectId(obj)).logger();
            for i in 0..100 {
                logger.call("Add", &[Value::from(i64::from(i))]);
                logger.commit();
                logger.ret("Add", Value::Unit);
            }
        }
        let report = pool.finish();
        assert!(report.passed(), "{report}");
        assert_eq!(report.stats.commits_applied, 200);
    }
}
