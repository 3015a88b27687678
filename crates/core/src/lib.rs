//! # vyrd-core — runtime refinement-violation detection
//!
//! A Rust reproduction of the checking engine of **VYRD** (Elmas, Tasiran,
//! Qadeer — *"VYRD: VerifYing Concurrent Programs by Runtime
//! Refinement-Violation Detection"*, PLDI 2005).
//!
//! VYRD checks at runtime that a concurrently-accessed data structure
//! implementation *refines* an executable, method-atomic specification:
//! every trace of the implementation must be equivalent to some trace of
//! the specification. The technique has two phases:
//!
//! 1. **Logging** — the implementation is instrumented (see [`instrument`])
//!    to record call, return, commit, and (optionally) shared-variable
//!    write actions into a totally ordered [`log::EventLog`].
//! 2. **Checking** — a [`checker::Checker`], offline or on a separate
//!    verification thread ([`online`]), replays the log: mutator method
//!    executions are serialized in the order of their **commit actions**
//!    (the *witness interleaving*), and the [`spec::Spec`] is executed one
//!    method at a time with the observed arguments and return values.
//!
//! Two refinement notions are supported:
//!
//! * **I/O refinement** — call/return actions only ([`checker::Checker::io`]).
//! * **View refinement** — additionally compares a canonical [`view::View`]
//!   of the implementation state (reconstructed from the log by a
//!   [`replay::Replayer`]) against the specification's view at every commit
//!   ([`checker::Checker::view`]), giving much earlier error detection.
//!
//! ## Quick start
//!
//! ```
//! use vyrd_core::checker::Checker;
//! use vyrd_core::log::{EventLog, LogMode};
//! use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
//! use vyrd_core::view::View;
//! use vyrd_core::{MethodId, Value};
//! use std::collections::BTreeMap;
//!
//! // 1. An executable specification: an atomic multiset (Fig. 1).
//! #[derive(Clone, Default)]
//! struct MultisetSpec(BTreeMap<i64, u64>);
//!
//! impl Spec for MultisetSpec {
//!     fn kind(&self, m: &MethodId) -> MethodKind {
//!         if m.name() == "LookUp" { MethodKind::Observer } else { MethodKind::Mutator }
//!     }
//!     fn apply(&mut self, m: &MethodId, args: &[Value], ret: &Value)
//!         -> Result<SpecEffect, SpecError>
//!     {
//!         let x = args[0].as_int().ok_or_else(|| SpecError::new("non-int arg"))?;
//!         match m.name() {
//!             // Insert may succeed or fail; on success x joins the multiset.
//!             "Insert" => {
//!                 if ret.is_success() { *self.0.entry(x).or_insert(0) += 1; }
//!                 Ok(SpecEffect::touching([x]))
//!             }
//!             other => Err(SpecError::new(format!("unknown mutator {other}"))),
//!         }
//!     }
//!     fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
//!         let x = args[0].as_int().unwrap_or(0);
//!         ret.as_bool() == Some(self.0.get(&x).copied().unwrap_or(0) > 0)
//!     }
//!     fn view(&self) -> View {
//!         self.0.iter().map(|(&x, &n)| (Value::from(x), Value::from(n))).collect()
//!     }
//! }
//!
//! // 2. Log an execution (normally done by instrumented implementation code).
//! let log = EventLog::in_memory(LogMode::Io);
//! let t0 = log.logger();
//! t0.call("Insert", &[Value::from(3i64)]);
//! t0.commit();
//! t0.ret("Insert", Value::success());
//! t0.call("LookUp", &[Value::from(3i64)]);
//! t0.ret("LookUp", Value::from(true));
//!
//! // 3. Check it.
//! let report = Checker::io(MultisetSpec::default()).check_events(log.snapshot());
//! assert!(report.passed());
//! ```
//!
//! See the `vyrd-multiset`, `vyrd-javalib`, `vyrd-storage`, and
//! `vyrd-blinktree` crates for complete instrumented data structures with
//! specifications and replayers, and the `vyrd-harness`/`vyrd-bench`
//! crates for the paper's experiments.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checker;
pub mod codec;
pub mod diagnose;
pub mod event;
pub mod instrument;
pub mod log;
pub mod metrics;
pub mod online;
pub mod overload;
pub mod pool;
pub mod replay;
pub mod segment;
pub mod shard;
pub mod spec;
pub mod value;
pub mod view;
pub mod violation;
pub mod witness;

pub use codec::DecodeOutcome;
pub use event::{Event, MethodId, ObjectId, ThreadId, VarId};
pub use log::{EventLog, LogMode, ThreadLogger};
pub use overload::{ShedControl, Watchdog};
pub use checker::{SteppingChecker, SteppingFactory};
pub use pool::{SupervisorConfig, VerifierPool};
pub use segment::{ContinuousVerifier, SegmentConfig, SegmentLogHandle};
pub use shard::{OverloadPolicy, ShardConfig, ShardRouter};
pub use spec::{MethodKind, Spec, SpecEffect, SpecError};
pub use value::Value;
pub use view::View;
pub use violation::{
    CheckStats, Degradation, Report, ShardFailure, ShedWindow, Verdict, Violation, WatchdogAction,
    WatchdogEvent,
};
