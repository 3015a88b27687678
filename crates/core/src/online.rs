//! Online checking: a separate verification thread consumes the log while
//! the program runs (§4.2).
//!
//! "To interfere minimally with the implementation, we run refinement
//! checking on a separate thread which is informed about the
//! implementation's actions through a log." This module wires an
//! [`EventLog`] channel sink to a [`Checker`] running on its own thread.
//!
//! ```
//! use vyrd_core::checker::Checker;
//! use vyrd_core::log::LogMode;
//! use vyrd_core::online::OnlineVerifier;
//! use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
//! use vyrd_core::view::View;
//! use vyrd_core::{MethodId, Value};
//!
//! #[derive(Clone, Default)]
//! struct Nop;
//! impl Spec for Nop {
//!     fn kind(&self, _m: &MethodId) -> MethodKind { MethodKind::Mutator }
//!     fn apply(&mut self, _m: &MethodId, _a: &[Value], _r: &Value)
//!         -> Result<SpecEffect, SpecError> { Ok(SpecEffect::unchanged()) }
//!     fn accepts_observation(&self, _m: &MethodId, _a: &[Value], _r: &Value) -> bool { true }
//!     fn view(&self) -> View { View::new() }
//! }
//!
//! let verifier = OnlineVerifier::spawn(LogMode::Io, Checker::io(Nop));
//! let logger = verifier.log().logger();
//! logger.call("m", &[]);
//! logger.commit();
//! logger.ret("m", Value::Unit);
//! let report = verifier.finish();
//! assert!(report.passed());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use vyrd_rt::channel::Receiver;
use vyrd_rt::sync::Mutex;

use crate::checker::{Checker, SteppingChecker};
use crate::event::{Event, ObjectId};
use crate::log::{EventLog, LogMode};
use crate::pool::panic_message;
use crate::replay::Replayer;
use crate::spec::Spec;
use crate::violation::{Report, ShardFailure};

/// A deferred checking job: what the verification thread runs, and what
/// `finish` runs inline if that thread could not be spawned.
type Job = Box<dyn FnOnce() -> Report + Send>;

/// Where the verdict will come from.
enum Worker {
    /// The usual case: a dedicated verification thread.
    Thread(JoinHandle<Report>),
    /// Thread spawn failed; the job waits here and `finish` runs it
    /// inline. The events buffer in the (unbounded) channel meanwhile, so
    /// coverage is complete — just no longer concurrent.
    Inline(Arc<Mutex<Option<Job>>>),
}

/// Runs the checker under a panic boundary: a panicking checker yields a
/// degraded report (with the panic message and the lost-coverage count)
/// instead of unwinding the verifier.
fn supervised_check(checker: Box<dyn SteppingChecker>, receiver: &Receiver<Event>) -> Report {
    let consumed_before = receiver.popped();
    if vyrd_rt::metrics::enabled() {
        crate::metrics::pipeline().online_checks.inc();
    }
    match catch_unwind(AssertUnwindSafe(|| {
        // `online.check` failpoint: a Panic action here exercises exactly
        // this boundary.
        if vyrd_rt::fault::enabled() {
            vyrd_rt::fault::inject("online.check");
        }
        checker.check(receiver)
    })) {
        Ok(report) => report,
        Err(panic) => {
            // Drain what is already queued so the loss is counted, not
            // just suffered.
            while receiver.try_recv().is_ok() {}
            let events_lost = receiver.popped() - consumed_before;
            let mut report = Report::default();
            report.degradation.events_lost = events_lost;
            report.degradation.shard_failures.push(ShardFailure {
                object: ObjectId::DEFAULT,
                panic_msg: panic_message(panic.as_ref()),
                events_lost,
                restarts: 0,
            });
            report
        }
    }
}

/// A running online verification thread.
///
/// Create with [`OnlineVerifier::spawn`], hand [`OnlineVerifier::log`] to
/// the instrumented program, then call [`OnlineVerifier::finish`] once the
/// program is done to close the log and collect the verdict.
pub struct OnlineVerifier {
    log: EventLog,
    worker: Worker,
}

impl fmt::Debug for OnlineVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnlineVerifier")
            .field("log", &self.log)
            .field(
                "worker",
                match &self.worker {
                    Worker::Thread(_) => &"thread",
                    Worker::Inline(_) => &"inline-fallback",
                },
            )
            .finish()
    }
}

impl OnlineVerifier {
    /// Spawns the verification thread. Events appended to the returned
    /// verifier's log are checked concurrently with the program.
    ///
    /// If the thread cannot be spawned, the verifier degrades instead of
    /// panicking: events buffer in the log's channel and
    /// [`OnlineVerifier::finish`] checks them inline (noted in the report
    /// as a spawn fallback).
    pub fn spawn<S, R>(mode: LogMode, checker: Checker<S, R>) -> OnlineVerifier
    where
        S: Spec,
        R: Replayer,
    {
        OnlineVerifier::spawn_boxed(mode, Box::new(checker))
    }

    /// [`OnlineVerifier::spawn`] for an already type-erased checker — what
    /// a scenario's [`SteppingFactory`](crate::checker::SteppingFactory)
    /// hands out.
    pub fn spawn_boxed(mode: LogMode, checker: Box<dyn SteppingChecker>) -> OnlineVerifier {
        let (log, receiver) = EventLog::to_channel(mode);
        let job: Job = Box::new(move || supervised_check(checker, &receiver));
        // Park the job in a shared slot so a failed spawn does not lose
        // it (`Builder::spawn` consumes its closure even on error).
        let slot = Arc::new(Mutex::new(Some(job)));
        let thread_slot = Arc::clone(&slot);
        let spawned = thread::Builder::new()
            .name("vyrd-verifier".to_owned())
            .spawn(move || match thread_slot.lock().take() {
                Some(job) => job(),
                None => Report::default(),
            });
        let worker = match spawned {
            Ok(handle) => Worker::Thread(handle),
            Err(_) => Worker::Inline(slot),
        };
        OnlineVerifier { log, worker }
    }

    /// The log the instrumented program should append to.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Closes the log and waits for the verifier's verdict.
    ///
    /// Join the instrumented worker threads first so that everything they
    /// logged is checked. Events appended by stragglers after `finish` are
    /// discarded, but not silently: the report's
    /// [`events_discarded_after_close`](crate::violation::CheckStats::events_discarded_after_close)
    /// counts them, so a verdict that covers only a prefix of the
    /// execution says so. A checker that panicked yields a *degraded*
    /// report carrying the panic message — never an unwind of the caller.
    pub fn finish(self) -> Report {
        self.log.close();
        let mut report = match self.worker {
            Worker::Thread(handle) => match handle.join() {
                Ok(report) => report,
                // supervised_check catches checker panics, so a dead
                // worker here is out-of-model; report the lost coverage
                // rather than unwinding.
                Err(_) => {
                    let mut report = Report::default();
                    report.degradation.lost_workers = 1;
                    report
                }
            },
            Worker::Inline(slot) => {
                let job = slot.lock().take();
                let mut report = match job {
                    Some(job) => job(),
                    None => Report::default(),
                };
                report.degradation.spawn_fallbacks = 1;
                report
            }
        };
        // Read the counter after the join: it keeps growing while
        // stragglers run, and any append that raced `close()` has
        // certainly been counted by the time the verifier drained the
        // channel and exited.
        report.stats.events_discarded_after_close =
            self.log.stats().events_discarded_after_close;
        report
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::event::MethodId;
    use crate::spec::{MethodKind, SpecEffect, SpecError};
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

    #[test]
    fn online_pass_with_concurrent_producers() {
        let verifier = OnlineVerifier::spawn(LogMode::Io, Checker::io(SetSpec::default()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let logger = verifier.log().logger();
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    let x = Value::from(i64::from(t) * 100 + i);
                    logger.call("Add", std::slice::from_ref(&x));
                    logger.commit();
                    logger.ret("Add", Value::Unit);
                    logger.call("Contains", std::slice::from_ref(&x));
                    logger.ret("Contains", Value::from(true));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = verifier.finish();
        assert!(report.passed(), "{report}");
        assert_eq!(report.stats.commits_applied, 200);
        assert_eq!(report.stats.observers_checked, 200);
    }

    /// Regression test for the close/drain contract: the program thread
    /// drops its [`ThreadLogger`](crate::log::ThreadLogger) without
    /// closing the log, so the only disconnect signal the verifier ever
    /// gets is the one [`EventLog::close`] issues inside `finish()`. If
    /// close failed to drop the channel's sender — or if the channel
    /// discarded buffered events on disconnect — `finish()` would block
    /// forever on the verifier join (the bug class this substrate's
    /// drain-before-disconnect semantics exist to prevent).
    #[test]
    fn finish_cannot_hang_after_program_threads_drop_their_loggers() {
        let (done_tx, done_rx) = vyrd_rt::channel::unbounded();
        let t = thread::spawn(move || {
            let verifier = OnlineVerifier::spawn(LogMode::Io, Checker::io(SetSpec::default()));
            let logger = verifier.log().logger();
            logger.call("Add", &[Value::from(1i64)]);
            logger.commit();
            logger.ret("Add", Value::Unit);
            // The program thread walks away while the verifier is still
            // blocked in recv().
            drop(logger);
            let _ = done_tx.send(verifier.finish());
        });
        let report = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("finish() hung: close() must disconnect the channel sink");
        t.join().unwrap();
        assert!(report.passed(), "{report}");
        // The events buffered before close() were drained, not dropped.
        assert_eq!(report.stats.commits_applied, 1);
    }

    /// Regression test for the silent-discard footgun: a straggler thread
    /// that keeps logging after `finish()` closed the log used to have its
    /// events vanish without a trace. They are still discarded — the
    /// verifier is already winding down — but the report now counts them.
    ///
    /// A straggler that is dropped before `finish()` leaves its events on
    /// the log's idle list rather than submitting them; they are counted
    /// all the same.
    #[test]
    fn finish_counts_events_discarded_after_close() {
        for straggler_dropped in [false, true] {
            let verifier = OnlineVerifier::spawn(LogMode::Io, Checker::io(SetSpec::default()));
            let logger = verifier.log().logger();
            logger.call("Add", &[Value::from(1i64)]);
            logger.commit();
            logger.ret("Add", Value::Unit);
            // Simulate the straggler deterministically: close the log
            // (exactly what finish() does first), append, then collect the
            // verdict.
            verifier.log().close();
            logger.call("Add", &[Value::from(2i64)]);
            logger.commit();
            logger.ret("Add", Value::Unit);
            if straggler_dropped {
                drop(logger);
            }
            let report = verifier.finish();
            assert!(report.passed(), "{report}");
            assert_eq!(report.stats.commits_applied, 1);
            assert_eq!(report.stats.events_discarded_after_close, 3);
            assert!(report.to_string().contains("3 events discarded after close"));
        }
    }

    /// A checker panic (here: indexing a missing argument in the spec)
    /// must surface as a degraded report, never unwind `finish`.
    #[test]
    fn panicking_checker_degrades_instead_of_unwinding() {
        let verifier = OnlineVerifier::spawn(LogMode::Io, Checker::io(SetSpec::default()));
        let logger = verifier.log().logger();
        logger.call("Add", &[]); // SetSpec::apply indexes args[0] → panic
        logger.commit();
        logger.ret("Add", Value::Unit);
        let report = verifier.finish();
        assert!(report.is_degraded(), "{report}");
        assert_eq!(report.degradation.shard_failures.len(), 1);
        assert!(report.degradation.events_lost > 0);
        assert_ne!(
            report.verdict(),
            crate::violation::Verdict::Pass,
            "a panicked check must never read as a clean pass"
        );
    }

    #[test]
    fn online_detects_violations() {
        let verifier = OnlineVerifier::spawn(LogMode::Io, Checker::io(SetSpec::default()));
        let logger = verifier.log().logger();
        logger.call("Contains", &[Value::from(5i64)]);
        logger.ret("Contains", Value::from(true)); // never added
        let report = verifier.finish();
        assert_eq!(
            report.violation.unwrap().category(),
            "observer-unjustified"
        );
    }
}
