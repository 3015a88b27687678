//! The refinement checkers (§4, §5).
//!
//! [`Checker`] consumes an event log (offline from memory or a file, or
//! online from a channel) and verifies that the logged execution refines an
//! executable specification.
//!
//! * **I/O refinement** ([`Checker::io`]): builds the witness interleaving
//!   by taking mutator executions in commit-action order, obtains each
//!   committing method's return value by *looking ahead* in the log (as the
//!   paper does, §2/Fig. 3), and executes the specification one method at a
//!   time. Observer methods carry no commit annotation; their return value
//!   is accepted if it is valid in any specification state between their
//!   call and return (§4.3). It is obtained by the same lookahead, at the
//!   call, so each of those states is judged while it is the live one and
//!   none is stored.
//! * **View refinement** ([`Checker::view`]): additionally replays logged
//!   shared-variable writes into a programmer-provided [`Replayer`] shadow
//!   state and compares `view_I` with `view_S` at every mutator commit
//!   (§5), honoring commit blocks (§5.2), computing the comparison
//!   incrementally (§6.4), and evaluating optional invariants over the
//!   replayed state (§7.2.1).
//!
//! ```
//! use vyrd_core::checker::Checker;
//! use vyrd_core::log::{EventLog, LogMode};
//! use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
//! use vyrd_core::view::View;
//! use vyrd_core::{MethodId, Value};
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
//! let log = EventLog::in_memory(LogMode::Io);
//! let t = log.logger();
//! t.call("Add", &[Value::from(3i64)]);
//! t.commit();
//! t.ret("Add", Value::Unit);
//! t.call("Contains", &[Value::from(3i64)]);
//! t.ret("Contains", Value::from(true));
//!
//! let report = Checker::io(SetSpec::default()).check_events(log.snapshot());
//! assert!(report.passed());
//! ```

pub mod naive;
pub mod state;

#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::io::Read;
use std::sync::Arc;

use vyrd_rt::channel::Receiver;
use vyrd_rt::intern::FnvMap;

use crate::codec;
use crate::event::{ArgList, Event, MethodId, ObjectId, ThreadId, VarId};
use crate::replay::{BlockBuffer, Replayer};
use crate::spec::{MethodKind, Spec};
use crate::value::Value;
use crate::violation::{CheckStats, Report, Violation};

use state::StateError;

/// A replayer with no state, used by I/O-only checkers.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopReplayer;

impl Replayer for NoopReplayer {
    fn apply_write(&mut self, _var: &VarId, _value: &Value) {}

    fn view(&self) -> crate::view::View {
        crate::view::View::new()
    }

    fn save_state(&self) -> Option<Value> {
        Some(Value::Unit)
    }

    fn restore_state(&mut self, _state: &Value) -> Result<(), crate::spec::SpecError> {
        Ok(())
    }
}

/// The boxed predicate behind an [`Invariant`].
type InvariantFn<R> = Box<dyn Fn(&R) -> Result<(), String> + Send>;

/// A named predicate over the replayed implementation state, evaluated at
/// every mutator commit (used for the Boxwood cache invariants, §7.2.1).
pub struct Invariant<R> {
    name: String,
    check: InvariantFn<R>,
}

impl<R> Invariant<R> {
    /// Creates a named invariant. The closure returns `Err(detail)` when
    /// the invariant is violated.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&R) -> Result<(), String> + Send + 'static,
    ) -> Invariant<R> {
        Invariant {
            name: name.into(),
            check: Box::new(check),
        }
    }
}

impl<R> std::fmt::Debug for Invariant<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invariant").field("name", &self.name).finish()
    }
}

/// When the view comparison (and invariants) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ViewCheckPolicy {
    /// At every mutator commit — VYRD's granularity (§5.2: "a check is
    /// performed for each method execution").
    #[default]
    EveryCommit,
    /// Only at *quiescent* states (no method execution in flight) — the
    /// granularity of the commit-atomicity baseline the paper compares
    /// against (§8, Flanagan [4]). "During any realistic execution,
    /// quiescent points are very rare. Checking only at these points
    /// might cause errors to be overwritten or to be discovered too
    /// late." Deliberately weak by construction: corruption in a trace
    /// that ends non-quiescent is never compared at all.
    QuiescentOnly,
}

/// Tuning knobs for a [`Checker`].
#[derive(Clone, Debug)]
pub struct CheckerOptions {
    /// Stop at the first violation (default) or keep the first violation
    /// but continue consuming the log to completion (useful online, so the
    /// program side never blocks on a full channel).
    pub stop_at_first_violation: bool,
    /// Compare full views at every commit instead of only dirty keys.
    /// Correctness is identical (asserted by property tests); this is the
    /// ablation knob for the §6.4 incremental optimization.
    pub full_view_compare: bool,
    /// Record the witness interleaving into [`Report`]-side storage
    /// retrievable via [`Checker::check_events_with_witness`].
    pub record_witness: bool,
    /// When view comparisons run (per-commit vs quiescent-only baseline).
    pub view_check_policy: ViewCheckPolicy,
}

impl Default for CheckerOptions {
    fn default() -> CheckerOptions {
        CheckerOptions {
            stop_at_first_violation: true,
            full_view_compare: false,
            record_witness: false,
            view_check_policy: ViewCheckPolicy::EveryCommit,
        }
    }
}

/// One step of the witness interleaving: a mutator execution, in commit
/// order, with the signature used to drive the specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessStep {
    /// Position in the witness interleaving (0-based commit index).
    pub commit_index: u64,
    /// Executing thread.
    pub tid: ThreadId,
    /// Method.
    pub method: MethodId,
    /// Actual arguments.
    pub args: Vec<Value>,
    /// Return value (obtained by lookahead).
    pub ret: Value,
}

impl std::fmt::Display for WitnessStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {} {}(", self.commit_index, self.tid, self.method)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ") -> {}", self.ret)
    }
}

/// Per-drain cap for [`SteppingChecker::check`] on an *unbounded*
/// channel. Unbounded producers never block, so the only party timing
/// the checker's stints is the overload watchdog (hundreds of ms): a
/// 1024-event drain keeps the stint in the low milliseconds while
/// amortizing the channel lock and wakeup three orders of magnitude.
pub const CONSUME_BATCH_MAX: usize = 1024;

/// Per-drain cap for [`SteppingChecker::check`] on a *bounded*
/// channel. Bounded-channel producers park on a full queue, and
/// Shed-policy producers park **with a deadline**: the `Shed` timeout
/// the shard was configured with
/// ([`OverloadPolicy::Shed`](crate::shard::OverloadPolicy::Shed)). The
/// consumer's processing stint is exactly how long a parked producer
/// waits for a slot, so it must stay below the shortest configured shed
/// timeout or an otherwise keeping-up run sheds spuriously — and one
/// spurious shed punches a gap that costs the whole shard (the checker
/// stops at the resulting unreliable violation). Eight events keep the
/// stint in the tens of microseconds at live per-event checking cost,
/// far below any millisecond-scale timeout, while still amortizing the
/// lock and wakeup 8-fold; a cap of 64 measured no faster on a `Block`
/// channel, so the smaller value stays.
pub const BOUNDED_CONSUME_BATCH_MAX: usize = 8;

/// A [`Checker`] with its specification and replayer types erased — the
/// one object-safe checker interface every driver shares
/// ([`OnlineVerifier`](crate::online::OnlineVerifier),
/// [`VerifierPool`](crate::pool::VerifierPool),
/// [`ContinuousVerifier`](crate::segment::ContinuousVerifier)), so
/// checkers over different specifications fit one factory type.
///
/// The required methods are the push-fed stepping core; checking a whole
/// stream ([`SteppingChecker::check`]) or a whole recorded trace
/// ([`SteppingChecker::check_events`]) is a loop derived from it. The
/// derived loops are compiled per implementor, so a driver pays one
/// virtual call per stream, never one per event.
pub trait SteppingChecker: Send {
    /// Feeds the next event of this object's subsequence.
    fn feed(&mut self, event: Event);
    /// Feeds one batch drained from a channel, in order, emptying
    /// `batch`; counted in [`CheckStats::batches`] and
    /// [`CheckStats::batch_events`].
    fn feed_batch(&mut self, batch: &mut Vec<Event>);
    /// `true` once the checker will process nothing further: it found a
    /// violation and stops at the first one.
    fn halted(&self) -> bool;
    /// Serializes the full checker state (see [`Checker::save_state`]).
    ///
    /// # Errors
    ///
    /// Fails when a component of the state is not checkpointable.
    fn save_state(&self) -> Result<Value, StateError>;
    /// Restores state saved by [`SteppingChecker::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on malformed or incompatible state.
    fn restore_state(&mut self, state: &Value) -> Result<(), StateError>;
    /// Declares the fed history a crash-recovered prefix (see
    /// [`Checker::mark_input_truncated`]).
    fn mark_input_truncated(&mut self);
    /// Ends the log and produces the report.
    fn finish(self: Box<Self>) -> Report;

    /// Checks a log streamed from a channel (the online mode of §4.2:
    /// the verification thread runs this while the program executes).
    /// Returns when the channel closes or the checker halts.
    ///
    /// Consumes the channel **batch-at-a-time**
    /// ([`Receiver::recv_up_to`]): one lock round-trip and one wakeup
    /// per batch instead of per event, the consume-side twin of the
    /// append path's batched delivery. Events are still processed
    /// strictly in arrival order, so the verdict (and every per-event
    /// counter up to it) is identical to the per-event baseline —
    /// `tests/consume_agreement.rs` pins that equivalence.
    ///
    /// The drain is capped by the channel's shape: an unlimited drain
    /// lets the checker disappear into a multi-millisecond processing
    /// stint while the refilled bounded channel stays full, and
    /// Shed-policy producers time out against that stint and shed —
    /// turning a saturated-but-healthy run into a gap cascade. Bounded
    /// channels (the overloadable configurations) get the tight
    /// [`BOUNDED_CONSUME_BATCH_MAX`]; unbounded channels, whose
    /// producers never block, get the throughput-oriented
    /// [`CONSUME_BATCH_MAX`].
    fn check(mut self: Box<Self>, receiver: &Receiver<Event>) -> Report {
        let cap = if receiver.capacity().is_some() {
            BOUNDED_CONSUME_BATCH_MAX
        } else {
            CONSUME_BATCH_MAX
        };
        let mut batch: Vec<Event> = Vec::new();
        while !self.halted() && receiver.recv_up_to(&mut batch, cap).is_ok() {
            self.feed_batch(&mut batch);
        }
        self.finish()
    }

    /// Checks a complete recorded trace, stopping early once halted.
    fn check_events(mut self: Box<Self>, events: Vec<Event>) -> Report {
        feed_until_halted(&mut *self, events);
        self.finish()
    }
}

/// The one offline loop: feeds `events` in order until they run out or
/// the checker halts. Every whole-trace entry point — the trait's
/// [`SteppingChecker::check_events`] and [`Checker`]'s `check_events*` /
/// `check_reader` — is this loop followed by the end of the log.
fn feed_until_halted<C: SteppingChecker + ?Sized>(
    checker: &mut C,
    events: impl IntoIterator<Item = Event>,
) {
    for event in events {
        if checker.halted() {
            break;
        }
        checker.feed(event);
    }
}

impl<S: Spec, R: Replayer> SteppingChecker for Checker<S, R> {
    fn feed(&mut self, event: Event) {
        Checker::feed(self, event);
    }

    fn feed_batch(&mut self, batch: &mut Vec<Event>) {
        let n = batch.len() as u64;
        self.stats.batches += 1;
        self.stats.batch_events += n;
        if vyrd_rt::metrics::enabled() {
            crate::metrics::pipeline().checker_batch_occupancy.record(n);
        }
        for event in batch.drain(..) {
            self.push(event);
        }
        self.pump(false);
    }

    fn halted(&self) -> bool {
        Checker::halted(self)
    }

    fn save_state(&self) -> Result<Value, StateError> {
        Checker::save_state(self)
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), StateError> {
        Checker::restore_state(self, state)
    }

    fn mark_input_truncated(&mut self) {
        Checker::mark_input_truncated(self);
    }

    fn finish(self: Box<Self>) -> Report {
        (*self).into_report()
    }
}

/// Builds one checker per object — what a scenario hands to a
/// [`VerifierPool`](crate::pool::VerifierPool) or a
/// [`ContinuousVerifier`](crate::segment::ContinuousVerifier), which
/// calls it on demand and again after recovery.
pub type SteppingFactory = Arc<dyn Fn(ObjectId) -> Box<dyn SteppingChecker> + Send + Sync>;

/// How many emptied per-thread return queues a [`Checker`] keeps for
/// reuse. A queue is emptied each time a thread's last buffered return is
/// stepped; only threads with a return buffered *at once* need one, which
/// is a handful even when every call has its own thread id.
const SPARE_RETURN_QUEUES: usize = 16;

/// A method execution in progress (between its call and return actions).
struct PendingExec {
    method: MethodId,
    args: ArgList,
    kind: MethodKind,
    committed: bool,
    /// For observers: number of commits applied when the call was seen —
    /// the start of the window of §4.3.
    window_start: u64,
    /// For observers that *do* log an explicit commit action: the commit
    /// index it pins the observation to (an extension of §4.3; narrows the
    /// window to a single state).
    explicit_commit: Option<u64>,
    /// For observers: the return value, read ahead at the call (the
    /// lookahead §2/Fig. 3 uses for commits). `None` for mutators, and
    /// for an observer whose return the log does not hold.
    ret: Option<Value>,
    /// Some window state so far accepted `ret` (§4.3: any one suffices).
    justified: bool,
    /// Window states that rejected `ret` before one accepted it.
    rejected: u64,
}

impl PendingExec {
    /// Judges the read-ahead return against `spec` — the live state, the
    /// newest candidate of this observer's window.
    fn judge<S: Spec>(&mut self, spec: &S) {
        if let Some(ret) = &self.ret {
            if spec.accepts_observation(&self.method, &self.args, ret) {
                self.justified = true;
            } else {
                self.rejected += 1;
            }
        }
    }

    /// An observer whose window is still open-ended and unjustified: the
    /// state after the next commit is a fresh candidate for it.
    fn searching(&self) -> bool {
        self.ret.is_some() && !self.justified && self.explicit_commit.is_none()
    }
}

impl<S: Spec, R: Replayer> std::fmt::Debug for Checker<S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checker")
            .field("commits_applied", &self.commits_applied)
            .field("position", &self.position)
            .field("violation", &self.violation)
            .finish_non_exhaustive()
    }
}

/// The refinement checker.
///
/// Construct with [`Checker::io`] or [`Checker::view`], then feed it a log
/// with one of the `check_*` methods. The checker is single-use: checking
/// consumes it.
pub struct Checker<S: Spec, R: Replayer = NoopReplayer> {
    spec: S,
    replayer: Option<R>,
    invariants: Vec<Invariant<R>>,
    options: CheckerOptions,

    // --- run state ---
    stats: CheckStats,
    violation: Option<Violation>,
    witness: Vec<WitnessStep>,
    /// Fed events not yet processed. The engine is push-based:
    /// [`Checker::feed`] enqueues here and the pump processes as far as
    /// the lookahead rule allows.
    input: VecDeque<Event>,
    /// Per-thread `(method, ret)` of the `Return` events sitting
    /// unprocessed in `input`, in log order — the lookahead of §2/Fig. 3
    /// as an index. A mutator commit and an observer call both need
    /// their thread's return; the pump stalls on either until it has been
    /// fed (or the log ends). A thread with nothing buffered has no
    /// entry: thread ids are minted per call by some drivers, so kept
    /// empties would grow with the log.
    returns_buffered: FnvMap<ThreadId, VecDeque<(MethodId, Value)>>,
    /// Emptied `returns_buffered` deques, kept (at most
    /// [`SPARE_RETURN_QUEUES`]) for the next thread that buffers a
    /// return, so a `Return` costs no allocation.
    spare_returns: Vec<VecDeque<(MethodId, Value)>>,
    /// The thread whose return the pump is parked on, so events fed
    /// meanwhile cost no stall re-evaluation; cleared when that thread's
    /// `Return` is pushed.
    parked_on: Option<ThreadId>,
    /// Per-thread in-flight execution.
    pending: FnvMap<ThreadId, PendingExec>,
    /// Number of commits applied to the specification so far.
    commits_applied: u64,
    /// Linearizability checking mode ([`Checker::lin`]): the window
    /// search of §4.3 is additionally accounted per window in
    /// [`CheckStats`].
    lin: bool,
    /// Number of pending observers for which [`PendingExec::searching`]
    /// holds — the ones a commit must re-judge; usually zero.
    searching: usize,
    /// Commit-block write buffering (§5.2).
    blocks: BlockBuffer,
    /// Position (0-based) of the event currently being processed.
    position: u64,
    /// Commits applied since the last quiescent-state comparison (the
    /// `QuiescentOnly` baseline policy).
    commits_since_quiescent_check: u64,
    /// Set by [`Checker::mark_input_truncated`]: the fed history is a
    /// crash-recovered prefix, so a commit whose return was lost with
    /// the missing tail is unchecked coverage, not a malformed log.
    input_truncated: bool,
    /// Commits dropped at end-of-input under `input_truncated`; charged
    /// to the report's degradation ledger.
    truncated_commits_lost: u64,
}

impl<S: Spec> Checker<S, NoopReplayer> {
    /// Creates an I/O refinement checker (§4).
    pub fn io(spec: S) -> Checker<S, NoopReplayer> {
        Checker::new(spec, None)
    }

    /// Creates a linearizability checker: mutators are replayed in
    /// commit order exactly as in [`Checker::io`], and each observer
    /// window (§4.3) is *searched* for a commit-order-consistent
    /// sequential witness — a state in the window at which the observed
    /// return value is a legal linearization of the observer. The
    /// search is the one [`Checker::io`] runs; this mode accounts it in
    /// the lin-specific [`CheckStats`] counters (windows searched,
    /// witness backtracks).
    pub fn lin(spec: S) -> Checker<S, NoopReplayer> {
        let mut checker = Checker::new(spec, None);
        checker.lin = true;
        checker
    }
}

impl<S: Spec, R: Replayer> Checker<S, R> {
    /// Creates a view refinement checker (§5). `replayer` reconstructs the
    /// implementation shadow state from logged writes.
    pub fn view(spec: S, replayer: R) -> Checker<S, R> {
        Checker::new(spec, Some(replayer))
    }

    fn new(spec: S, replayer: Option<R>) -> Checker<S, R> {
        Checker {
            spec,
            replayer,
            invariants: Vec::new(),
            options: CheckerOptions::default(),
            stats: CheckStats::default(),
            violation: None,
            witness: Vec::new(),
            input: VecDeque::new(),
            returns_buffered: FnvMap::default(),
            spare_returns: Vec::new(),
            parked_on: None,
            pending: FnvMap::default(),
            commits_applied: 0,
            lin: false,
            searching: 0,
            blocks: BlockBuffer::new(),
            position: 0,
            commits_since_quiescent_check: 0,
            input_truncated: false,
            truncated_commits_lost: 0,
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: CheckerOptions) -> Checker<S, R> {
        self.options = options;
        self
    }

    /// Adds an invariant over the replayed state, evaluated at every
    /// mutator commit. Only meaningful for view checkers.
    pub fn with_invariant(mut self, invariant: Invariant<R>) -> Checker<S, R> {
        self.invariants.push(invariant);
        self
    }

    /// Checks a complete in-memory log.
    pub fn check_events<I: IntoIterator<Item = Event>>(self, events: I) -> Report {
        self.check_events_with_witness(events).0
    }

    /// Like [`Checker::check_events`], also returning the witness
    /// interleaving (enable [`CheckerOptions::record_witness`]).
    pub fn check_events_with_witness<I: IntoIterator<Item = Event>>(
        mut self,
        events: I,
    ) -> (Report, Vec<WitnessStep>) {
        feed_until_halted(&mut self, events);
        self.seal()
    }

    /// Checks a log streamed from a channel: [`SteppingChecker::check`]
    /// for a checker that was never boxed.
    pub fn check_receiver(self, receiver: &Receiver<Event>) -> Report {
        SteppingChecker::check(Box::new(self), receiver)
    }

    /// Checks a log in the binary wire format (e.g. written by
    /// [`EventLog::to_file`](crate::log::EventLog::to_file); see
    /// [`codec::LogReader`]). A decoding error is reported as a
    /// [`Violation::MalformedLog`].
    pub fn check_reader<Rd: Read>(self, reader: Rd) -> Report {
        let mut log_reader = codec::LogReader::new(reader).ok();
        let mut decode_failed = log_reader.is_none();
        let mut report = self.check_events(std::iter::from_fn(|| {
            let event = log_reader.as_mut()?.next_event();
            decode_failed |= event.is_err();
            event.ok().flatten()
        }));
        if decode_failed && report.violation.is_none() {
            report.violation = Some(Violation::MalformedLog {
                detail: "log stream ended with a decoding error".to_owned(),
                log_position: report.stats.events,
            });
        }
        report
    }

    // ------------------------------------------------------------------
    // Engine
    //
    // The engine is *push-based*: events are enqueued with `feed` (or the
    // private `push`) and `pump` processes them in log order, stalling on
    // a mutator commit or an observer call until that thread's return
    // value has been fed (the paper's lookahead, §2/Fig. 3). The
    // pull-based `check_*` entry points feed their source into the queue
    // (`feed_until_halted`) and seal. Push form exists so a checker can be
    // suspended at any event boundary — the continuous verification
    // service checkpoints and resumes checkers mid-log (see `save_state`).
    // ------------------------------------------------------------------

    /// Feeds one event into the checker, processing as far as the
    /// lookahead rule allows. Call [`Checker::into_report`] after the
    /// last event; events fed after a violation (with the default
    /// stop-at-first option) are buffered but not processed.
    pub fn feed(&mut self, event: Event) {
        self.push(event);
        self.pump(false);
    }

    /// True once the checker processes nothing further: a violation was
    /// recorded under [`CheckerOptions::stop_at_first_violation`]. Events
    /// fed afterwards are buffered, never stepped, so feeding can stop.
    pub fn halted(&self) -> bool {
        self.violation.is_some() && self.options.stop_at_first_violation
    }

    /// Finishes a push-fed check: the end of the log is now known, so
    /// commits still stalled waiting for a return resolve (to a
    /// malformed-log violation if the return never arrived) and the
    /// report is produced.
    pub fn into_report(self) -> Report {
        self.seal().0
    }

    /// Declares that the fed history is a crash-recovered prefix of the
    /// real execution (e.g. a torn log tail was discarded by
    /// [`codec::read_log_recovering`]). A commit still stalled at
    /// end-of-input then resolves to *lost coverage* — charged to the
    /// report's [`Degradation`](crate::violation::Degradation) ledger —
    /// instead of a [`Violation::MalformedLog`], because its return
    /// value plausibly died with the missing tail. Violations found in
    /// the surviving prefix are unaffected.
    pub fn mark_input_truncated(&mut self) {
        self.input_truncated = true;
    }

    fn seal(mut self) -> (Report, Vec<WitnessStep>) {
        self.pump(true);
        // Fold this check's counters into the process-global metrics once,
        // at the end — exact, and far cheaper than per-event updates.
        if vyrd_rt::metrics::enabled() {
            let pm = crate::metrics::pipeline();
            pm.checker_events.add(self.stats.events);
            pm.checker_commits_applied.add(self.stats.commits_applied);
            pm.checker_methods_completed.add(self.stats.methods_completed);
            pm.checker_observers_checked.add(self.stats.observers_checked);
            pm.checker_view_comparisons.add(self.stats.view_comparisons);
            pm.checker_view_keys_compared.add(self.stats.view_keys_compared);
            pm.checker_writes_replayed.add(self.stats.writes_replayed);
            pm.checker_lin_windows_searched.add(self.stats.lin_windows_searched);
            pm.checker_lin_witness_backtracks
                .add(self.stats.lin_witness_backtracks);
            pm.checker_batches.add(self.stats.batches);
            pm.checker_batch_events.add(self.stats.batch_events);
        }
        let degradation = crate::violation::Degradation {
            events_lost: self.truncated_commits_lost,
            ..Default::default()
        };
        (
            Report {
                violation: self.violation,
                stats: self.stats,
                degradation,
            },
            self.witness,
        )
    }

    /// Enqueues an event without processing.
    fn push(&mut self, event: Event) {
        if let Event::Return {
            tid, method, ret, ..
        } = &event
        {
            let spare = &mut self.spare_returns;
            self.returns_buffered
                .entry(*tid)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push_back((*method, ret.clone()));
            if self.parked_on == Some(*tid) {
                self.parked_on = None;
            }
        }
        self.input.push_back(event);
    }

    /// Processes queued events in log order until the queue is empty, the
    /// front event stalls on a not-yet-fed return (`eof` false), or a
    /// violation stops the run.
    fn pump(&mut self, eof: bool) {
        if self.parked_on.is_some() && !eof {
            return;
        }
        while !self.halted() {
            let Some(front) = self.input.front() else {
                return;
            };
            if !eof {
                self.parked_on = self.stalled_on(front);
                if self.parked_on.is_some() {
                    return;
                }
            }
            let Some(event) = self.input.pop_front() else {
                return;
            };
            if let Event::Return { tid, .. } = &event {
                if let Some(returns) = self.returns_buffered.get_mut(tid) {
                    returns.pop_front();
                    if returns.is_empty() {
                        if let Some(emptied) = self.returns_buffered.remove(tid) {
                            if self.spare_returns.len() < SPARE_RETURN_QUEUES {
                                self.spare_returns.push(emptied);
                            }
                        }
                    }
                }
            }
            self.stats.events += 1;
            self.step(event);
            self.maybe_check_quiescent();
            if self.halted() {
                return;
            }
            self.position += 1;
        }
    }

    /// The thread whose return `event` must wait for, if it has not been
    /// fed yet: an uncommitted mutator's commit applies the specification
    /// with that return, and an observer's call judges it against every
    /// state of the window that opens here (§4.3). Processing either now
    /// would turn a merely-incomplete stream into a spurious verdict.
    /// Observer commits, double commits and orphan commits never stall —
    /// they resolve without lookahead.
    fn stalled_on(&self, event: &Event) -> Option<ThreadId> {
        let tid = match event {
            Event::Commit { tid, .. } => match self.pending.get(tid) {
                Some(p) if p.kind == MethodKind::Mutator && !p.committed => *tid,
                _ => return None,
            },
            Event::Call { tid, method, .. }
                if self.spec.kind(method) == MethodKind::Observer =>
            {
                *tid
            }
            _ => return None,
        };
        (!self.returns_buffered.contains_key(&tid)).then_some(tid)
    }

    /// The `(method, ret)` of the next return action of `tid` in the fed
    /// log, if any. Per well-formedness (§3.2) it is the return of the
    /// execution `tid` is currently inside.
    fn lookahead_return(&self, tid: ThreadId) -> Option<&(MethodId, Value)> {
        self.returns_buffered.get(&tid)?.front()
    }

    fn fail(&mut self, violation: Violation) {
        if self.violation.is_none() {
            self.violation = Some(violation);
        }
    }

    fn step(&mut self, event: Event) {
        match event {
            Event::Write {
                tid, var, value, ..
            } => {
                if let Some((var, value)) = self.blocks.write(tid, var, value) {
                    self.apply_write(&var, &value);
                }
            }
            Event::BlockBegin { tid, .. } => self.blocks.begin(tid),
            Event::BlockEnd { tid, .. } => {
                for (var, value) in self.blocks.end(tid) {
                    self.apply_write(&var, &value);
                }
            }
            Event::Call {
                tid, method, args, ..
            } => self.on_call(tid, method, args),
            Event::Commit { tid, .. } => self.on_commit(tid),
            Event::Return {
                tid, method, ret, ..
            } => self.on_return(tid, method, ret),
        }
    }

    fn apply_write(&mut self, var: &VarId, value: &Value) {
        if let Some(replayer) = &mut self.replayer {
            replayer.apply_write(var, value);
            self.stats.writes_replayed += 1;
        }
    }

    fn on_call(&mut self, tid: ThreadId, method: MethodId, args: ArgList) {
        if self.pending.contains_key(&tid) {
            self.fail(Violation::MalformedLog {
                detail: format!("{tid} called {method} while another method execution is open"),
                log_position: self.position,
            });
            return;
        }
        let kind = self.spec.kind(&method);
        let mut exec = PendingExec {
            method,
            args,
            kind,
            committed: false,
            window_start: self.commits_applied,
            explicit_commit: None,
            ret: None,
            justified: false,
            rejected: 0,
        };
        if kind == MethodKind::Observer {
            // The return is known for the whole window (a return naming
            // another method is `on_return`'s to report), so every
            // candidate state is judged while it is the live one,
            // starting with s_{window_start}: the state the data
            // structure was in when the observer was called (§4.3).
            exec.ret = self
                .lookahead_return(tid)
                .and_then(|(m, ret)| (*m == method).then(|| ret.clone()));
            exec.judge(&self.spec);
            self.searching += usize::from(exec.searching());
        }
        self.pending.insert(tid, exec);
    }

    fn on_commit(&mut self, tid: ThreadId) {
        let Some(pending) = self.pending.get_mut(&tid) else {
            self.fail(Violation::MalformedLog {
                detail: format!("{tid} committed outside any method execution"),
                log_position: self.position,
            });
            return;
        };
        match pending.kind {
            MethodKind::Observer => {
                // Extension of §4.3: an explicitly annotated observer
                // commit pins the observation to the current state instead
                // of the whole call–return window, so the search restarts
                // with the live state as its only candidate.
                self.searching -= usize::from(pending.searching());
                pending.explicit_commit = Some(self.commits_applied);
                pending.justified = false;
                pending.rejected = 0;
                pending.judge(&self.spec);
            }
            MethodKind::Mutator => {
                let method = pending.method;
                if pending.committed {
                    self.fail(Violation::CommitAnnotation {
                        tid,
                        method,
                        detail: "more than one commit action in a single execution".to_owned(),
                        log_position: self.position,
                    });
                    return;
                }
                let args = pending.args.clone();
                // The paper derives the committing method's return value
                // "by looking ahead in the implementation's execution". A
                // return naming a different method is a malformed log,
                // kept distinct from a missing return.
                let ret = match self.lookahead_return(tid) {
                    Some((m, ret)) if *m == method => ret.clone(),
                    Some((m, _)) => {
                        let detail = format!(
                            "{tid} committed inside {method} but its next return is from {m}"
                        );
                        self.fail(Violation::MalformedLog {
                            detail,
                            log_position: self.position,
                        });
                        return;
                    }
                    None => {
                        if self.input_truncated {
                            // The return died with the discarded tail:
                            // the commit is unchecked coverage, not a
                            // malformed log. Leave the execution pending
                            // (open executions are tolerated at EOF).
                            self.truncated_commits_lost += 1;
                            return;
                        }
                        self.fail(Violation::MalformedLog {
                            detail: format!(
                                "log ends before the return of committed method {tid} {method}"
                            ),
                            log_position: self.position,
                        });
                        return;
                    }
                };
                self.apply_mutator_commit(tid, method, args, ret);
            }
        }
    }

    fn apply_mutator_commit(
        &mut self,
        tid: ThreadId,
        method: MethodId,
        args: ArgList,
        ret: Value,
    ) {
        let commit_index = self.commits_applied;
        let effect = match self.spec.apply(&method, &args, &ret) {
            Ok(effect) => effect,
            Err(err) => {
                // Mark the execution committed anyway so that, in
                // continue-after-violation mode, its return does not
                // trip a second (cascading) missing-commit complaint.
                if let Some(pending) = self.pending.get_mut(&tid) {
                    pending.committed = true;
                }
                self.fail(Violation::SpecRejectedCommit {
                    tid,
                    method,
                    args: args.to_vec(),
                    ret,
                    reason: err.message().to_owned(),
                    commit_index,
                    log_position: self.position,
                });
                return;
            }
        };
        self.commits_applied += 1;
        self.stats.commits_applied += 1;
        // The new live state is the next candidate of every observer
        // window still searching (§4.3) — usually none. This runs even
        // after a violation has been recorded: in continue-after-violation
        // mode those observers still resolve later.
        if self.searching > 0 {
            for pending in self.pending.values_mut().filter(|p| p.searching()) {
                pending.judge(&self.spec);
                self.searching -= usize::from(pending.justified);
            }
        }
        if self.options.record_witness {
            self.witness.push(WitnessStep {
                commit_index,
                tid,
                method,
                args: args.to_vec(),
                ret,
            });
        }
        if let Some(pending) = self.pending.get_mut(&tid) {
            pending.committed = true;
        }
        // View refinement: the committing thread's commit-block writes
        // become visible now, contiguously (§5.2), then view_I must match
        // view_S (§5.1) and the invariants must hold. Under the
        // quiescent-only baseline the comparison is deferred to the next
        // quiescent state (see `maybe_check_quiescent`).
        if self.replayer.is_some() {
            for (var, value) in self.blocks.flush(tid) {
                self.apply_write(&var, &value);
            }
            if self.options.view_check_policy == ViewCheckPolicy::EveryCommit {
                self.compare_views(tid, &method, &effect.dirty_keys, commit_index);
                self.check_invariants(commit_index);
            } else {
                self.commits_since_quiescent_check += 1;
            }
        }
    }

    fn compare_views(
        &mut self,
        tid: ThreadId,
        method: &MethodId,
        spec_dirty: &[Value],
        commit_index: u64,
    ) {
        let replayer = self.replayer.as_mut().expect("view mode");
        self.stats.view_comparisons += 1;
        let impl_dirty = replayer.take_dirty();
        let full = self.options.full_view_compare || impl_dirty.is_none();
        if full {
            let view_i = replayer.view();
            let view_s = self.spec.view();
            let diff = view_i.diff_keys(&view_s);
            self.stats.view_keys_compared += view_i.len().max(view_s.len()) as u64;
            if let Some(key) = diff.into_iter().next() {
                let view_i = view_i.get(&key).cloned();
                let view_s = view_s.get(&key).cloned();
                self.fail(Violation::ViewMismatch {
                    tid,
                    method: *method,
                    key,
                    view_i,
                    view_s,
                    commit_index,
                    log_position: self.position,
                });
            }
            return;
        }
        // Incremental comparison (§6.4): only the keys whose support
        // changed on either side since the last commit.
        let mut keys = impl_dirty.unwrap_or_default();
        keys.extend(spec_dirty.iter().cloned());
        keys.sort();
        keys.dedup();
        for key in keys {
            self.stats.view_keys_compared += 1;
            let view_i = self.replayer.as_ref().expect("view mode").view_of(&key);
            let view_s = self.spec.view_of(&key);
            if view_i != view_s {
                self.fail(Violation::ViewMismatch {
                    tid,
                    method: *method,
                    key,
                    view_i,
                    view_s,
                    commit_index,
                    log_position: self.position,
                });
                return;
            }
        }
    }

    /// Under [`ViewCheckPolicy::QuiescentOnly`], run the deferred view
    /// comparison whenever the system is quiescent (no method execution
    /// in flight) and at least one commit happened since the last check.
    fn maybe_check_quiescent(&mut self) {
        if self.options.view_check_policy != ViewCheckPolicy::QuiescentOnly
            || self.replayer.is_none()
            || self.commits_since_quiescent_check == 0
            || !self.pending.is_empty()
        {
            return;
        }
        self.commits_since_quiescent_check = 0;
        let commit_index = self.commits_applied.saturating_sub(1);
        // Quiescent comparisons are always full: the incremental dirty
        // sets were consumed commit by commit, and the baseline is about
        // *when*, not *how*, the comparison runs.
        let replayer = self.replayer.as_mut().expect("view mode");
        let _ = replayer.take_dirty();
        let view_i = replayer.view();
        let view_s = self.spec.view();
        self.stats.view_comparisons += 1;
        self.stats.view_keys_compared += view_i.len().max(view_s.len()) as u64;
        if let Some(key) = view_i.diff_keys(&view_s).into_iter().next() {
            let view_i = view_i.get(&key).cloned();
            let view_s = view_s.get(&key).cloned();
            self.fail(Violation::ViewMismatch {
                tid: ThreadId(u32::MAX),
                method: MethodId::from("<quiescent-check>"),
                key,
                view_i,
                view_s,
                commit_index,
                log_position: self.position,
            });
            return;
        }
        self.check_invariants(commit_index);
    }

    fn check_invariants(&mut self, commit_index: u64) {
        if self.violation.is_some() {
            return;
        }
        let replayer = self.replayer.as_ref().expect("view mode");
        for invariant in &self.invariants {
            if let Err(message) = (invariant.check)(replayer) {
                let name = invariant.name.clone();
                self.fail(Violation::InvariantViolation {
                    name,
                    message,
                    commit_index,
                    log_position: self.position,
                });
                return;
            }
        }
    }

    fn on_return(&mut self, tid: ThreadId, method: MethodId, ret: Value) {
        let Some(pending) = self.pending.remove(&tid) else {
            self.fail(Violation::MalformedLog {
                detail: format!("{tid} returned from {method} without a matching call"),
                log_position: self.position,
            });
            return;
        };
        // Released before any early return: a pending observer leaves the
        // searching count on every path that removes it.
        self.searching -= usize::from(pending.searching());
        if pending.method != method {
            self.fail(Violation::MalformedLog {
                detail: format!(
                    "{tid} returned from {method} but the open execution is {}",
                    pending.method
                ),
                log_position: self.position,
            });
            return;
        }
        match pending.kind {
            MethodKind::Mutator => {
                if !pending.committed {
                    self.fail(Violation::CommitAnnotation {
                        tid,
                        method,
                        detail: "mutator execution returned without a commit action (every \
                                 execution path needs exactly one, §4.1)"
                            .to_owned(),
                        log_position: self.position,
                    });
                    return;
                }
                self.stats.methods_completed += 1;
            }
            MethodKind::Observer => {
                self.stats.observers_checked += 1;
                let (start, end) = match pending.explicit_commit {
                    Some(c) => (c, c),
                    None => (pending.window_start, self.commits_applied),
                };
                // Observer-window size (§4.3): how many candidate states
                // this return was checked against, at most. Runs on the
                // verifier thread, so the histogram update is off the
                // program's critical path.
                if vyrd_rt::metrics::enabled() {
                    crate::metrics::pipeline()
                        .checker_observer_window
                        .record(end - start);
                }
                // The window search has already run, one candidate per
                // state as each became live: in io mode, §4.3 verbatim —
                // the return is accepted if valid in any window state. In
                // lin mode the same search is the hunt for a
                // commit-order-consistent sequential witness, with every
                // rejected candidate counted as a backtrack.
                if self.lin {
                    self.stats.lin_windows_searched += 1;
                    self.stats.lin_witness_backtracks += pending.rejected;
                }
                if !pending.justified {
                    self.fail(Violation::ObserverUnjustified {
                        tid,
                        method,
                        args: pending.args.to_vec(),
                        ret,
                        window_start: start,
                        window_end: end,
                        log_position: self.position,
                    });
                    return;
                }
                self.stats.methods_completed += 1;
            }
        }
    }
}
