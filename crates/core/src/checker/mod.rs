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
//!   call and return (§4.3).
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Read;
use std::sync::Arc;

use vyrd_rt::channel::Receiver;

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
/// Shed-policy producers park **with a deadline** the adaptive overload
/// controller can tighten to tens of microseconds. The consumer's
/// processing stint is exactly how long a parked producer waits for a
/// slot, so it must stay below the tightest shed timeout or an
/// otherwise keeping-up run sheds spuriously — and one spurious shed
/// punches a gap that costs the whole shard (the checker stops at the
/// resulting unreliable violation). Eight events keeps the stint within
/// ~the 50 µs minimum timeout at live per-event checking cost while
/// still amortizing the lock and wakeup 8-fold.
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
        for event in events {
            if self.halted() {
                break;
            }
            self.feed(event);
        }
        self.finish()
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

/// The signature of one applied mutator commit — enough to re-apply it
/// to a specification snapshot during window replay. Recorded (instead
/// of a full spec clone) for every commit that lands while observer
/// windows are open.
struct CommitSig {
    method: MethodId,
    args: ArgList,
    ret: Value,
}

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
}

impl PendingExec {
    /// The oldest state an observer's return can still be judged at: its
    /// explicit commit's, else its window's start.
    fn oldest_state(&self) -> u64 {
        self.explicit_commit.unwrap_or(self.window_start)
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
    /// Events pulled from the input queue while looking ahead for a
    /// return value, not yet processed.
    lookahead: VecDeque<Event>,
    /// Fed events not yet processed (nor buffered into `lookahead`).
    /// The engine is push-based: [`Checker::feed`] enqueues here and the
    /// pump processes as far as the commit-lookahead rule allows.
    input: VecDeque<Event>,
    /// Per-thread count of `Return` events sitting unprocessed in
    /// `input` + `lookahead`. A mutator commit needs its return value by
    /// lookahead (§2/Fig. 3); the pump stalls on a commit until the
    /// committing thread's return has been fed (or the log ends).
    returns_buffered: HashMap<ThreadId, usize>,
    /// Per-thread in-flight execution.
    pending: HashMap<ThreadId, PendingExec>,
    /// Number of commits applied to the specification so far.
    commits_applied: u64,
    /// Window start anchors (§4.3): `s_j` for every `j` at which an open
    /// observer window starts (its call, or its explicit commit), copied
    /// when commit `j` is about to overwrite that state. Every other
    /// window state is reconstructed on demand by replaying `commit_log`
    /// forward from the window's own anchor. A window no commit lands in
    /// costs nothing; a commit no window opened just before costs an
    /// O(1) signature record, not an O(|state|) clone.
    snapshots: BTreeMap<u64, S>,
    /// Signatures of the commits applied while observer windows were
    /// open: entry `i - commit_log_base` is the (method, args, ret) that
    /// transformed `s_i` into `s_{i+1}`. Contiguous by construction —
    /// every commit while `observers_inflight > 0` records one — and
    /// trimmed with the anchors it serves.
    commit_log: VecDeque<CommitSig>,
    /// Commit index of `commit_log`'s front entry.
    commit_log_base: u64,
    /// Linearizability checking mode ([`Checker::lin`]): observer
    /// windows are searched for a commit-order-consistent sequential
    /// witness, with per-window accounting and — where the spec
    /// provides [`Spec::observation_digest`] — O(1) digests retained
    /// per window state instead of full snapshots.
    lin: bool,
    /// Observation digests of the specification state `s_j`, the lin
    /// mode's fixed-ADT replacement for `snapshots` (same keying).
    digests: BTreeMap<u64, Value>,
    /// Number of observer executions in flight.
    observers_inflight: usize,
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
    /// search is accounted in the lin-specific [`CheckStats`] counters
    /// (windows searched, witness backtracks, fast-path hits), and for
    /// specs that provide [`Spec::observation_digest`] it runs on O(1)
    /// retained digests instead of full specification snapshots.
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
            lookahead: VecDeque::new(),
            input: VecDeque::new(),
            returns_buffered: HashMap::new(),
            pending: HashMap::new(),
            commits_applied: 0,
            snapshots: BTreeMap::new(),
            commit_log: VecDeque::new(),
            commit_log_base: 0,
            lin: false,
            digests: BTreeMap::new(),
            observers_inflight: 0,
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
        let mut iter = events.into_iter();
        self.run(move || iter.next()).0
    }

    /// Like [`Checker::check_events`], also returning the witness
    /// interleaving (enable [`CheckerOptions::record_witness`]).
    pub fn check_events_with_witness<I: IntoIterator<Item = Event>>(
        self,
        events: I,
    ) -> (Report, Vec<WitnessStep>) {
        let mut iter = events.into_iter();
        self.run(move || iter.next())
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
        let mut decode_failed = false;
        let mut log_reader = codec::LogReader::new(reader).ok();
        if log_reader.is_none() {
            decode_failed = true;
        }
        let (mut report, _) = self.run(|| {
            if decode_failed {
                return None;
            }
            match log_reader.as_mut().expect("reader present").next_event() {
                Ok(event) => event,
                Err(_) => {
                    decode_failed = true;
                    None
                }
            }
        });
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
    // a mutator commit until the committing thread's return value has
    // been fed (the paper's lookahead, §2/Fig. 3). The pull-based
    // `check_*` entry points are thin wrappers that drain their source
    // into the queue. Push form exists so a checker can be suspended at
    // any event boundary — the continuous verification service
    // checkpoints and resumes checkers mid-log (see `save_state`).
    // ------------------------------------------------------------------

    fn run(mut self, mut source: impl FnMut() -> Option<Event>) -> (Report, Vec<WitnessStep>) {
        while !self.halted() {
            let Some(event) = source() else { break };
            self.push(event);
            self.pump(false);
        }
        self.seal()
    }

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
            pm.checker_snapshots_taken.add(self.stats.snapshots_taken);
            pm.checker_view_comparisons.add(self.stats.view_comparisons);
            pm.checker_view_keys_compared.add(self.stats.view_keys_compared);
            pm.checker_writes_replayed.add(self.stats.writes_replayed);
            pm.checker_lin_windows_searched.add(self.stats.lin_windows_searched);
            pm.checker_lin_witness_backtracks
                .add(self.stats.lin_witness_backtracks);
            pm.checker_lin_fastpath_hits.add(self.stats.lin_fastpath_hits);
            pm.checker_batches.add(self.stats.batches);
            pm.checker_batch_events.add(self.stats.batch_events);
            pm.checker_snapshot_replays.add(self.stats.snapshot_replays);
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
        if let Event::Return { tid, .. } = &event {
            *self.returns_buffered.entry(*tid).or_insert(0) += 1;
        }
        self.input.push_back(event);
    }

    /// Processes queued events in log order until the queue is empty, a
    /// mutator commit stalls on a not-yet-fed return (`eof` false), or a
    /// violation stops the run.
    fn pump(&mut self, eof: bool) {
        loop {
            if self.halted() {
                return;
            }
            // The next event in log order is the lookahead front (events
            // buffered while scanning for an earlier return), else the
            // input front. Either way, a stalled commit parks the pump
            // until the committing thread's return is fed.
            match self.lookahead.front().or_else(|| self.input.front()) {
                None => return,
                Some(e) if !eof && self.commit_stalled(e) => return,
                Some(_) => {}
            }
            let event = match self.lookahead.pop_front().or_else(|| self.input.pop_front()) {
                Some(e) => e,
                None => return,
            };
            if let Event::Return { tid, .. } = &event {
                if let Some(n) = self.returns_buffered.get_mut(tid) {
                    *n -= 1;
                    if *n == 0 {
                        self.returns_buffered.remove(tid);
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

    /// True when `event` is a mutator commit whose return value has not
    /// been fed yet: processing it now would turn a merely-incomplete
    /// stream into a spurious malformed-log verdict. Observer commits,
    /// double commits, and orphan commits never stall — they resolve
    /// without lookahead.
    fn commit_stalled(&self, event: &Event) -> bool {
        let Event::Commit { tid, .. } = event else {
            return false;
        };
        match self.pending.get(tid) {
            Some(p) => {
                p.kind == MethodKind::Mutator
                    && !p.committed
                    && self.returns_buffered.get(tid).copied().unwrap_or(0) == 0
            }
            None => false,
        }
    }

    /// Scans forward (buffering into `lookahead`) for the return value of
    /// the method execution `tid` is currently inside. Per well-formedness
    /// (§3.2) the next return action of `tid` is the matching one; a
    /// return naming a different method is a malformed log (`Err`), kept
    /// distinct from a missing return (`Ok(None)`).
    fn lookahead_return(
        &mut self,
        tid: ThreadId,
        method: &MethodId,
    ) -> Result<Option<Value>, Violation> {
        let matching = |m: &MethodId, ret: &Value| -> Result<Value, Violation> {
            if m == method {
                Ok(ret.clone())
            } else {
                Err(Violation::MalformedLog {
                    detail: format!(
                        "{tid} committed inside {method} but its next return is from {m}"
                    ),
                    log_position: self.position,
                })
            }
        };
        for e in &self.lookahead {
            if let Event::Return {
                tid: t,
                method: m,
                ret,
                ..
            } = e
            {
                if *t == tid {
                    return matching(m, ret).map(Some);
                }
            }
        }
        loop {
            let Some(e) = self.input.pop_front() else {
                return Ok(None);
            };
            let found = if let Event::Return {
                tid: t,
                method: m,
                ret,
                ..
            } = &e
            {
                (*t == tid).then(|| matching(m, ret))
            } else {
                None
            };
            self.lookahead.push_back(e);
            if let Some(result) = found {
                return result.map(Some);
            }
        }
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
        if kind == MethodKind::Observer {
            self.observers_inflight += 1;
            // s_{window_start}: the state the data structure was in when
            // the observer was called (the "last commit action before
            // a_call" state of §4.3).
            self.pin_digest();
        }
        self.pending.insert(
            tid,
            PendingExec {
                method,
                args,
                kind,
                committed: false,
                window_start: self.commits_applied,
                explicit_commit: None,
            },
        );
    }

    /// Pins the live state `s_{commits_applied}` for later window checks
    /// when that costs O(1): a spec providing
    /// [`Spec::observation_digest`] retains the digest, in every mode (the
    /// digest contract guarantees `accepts_observation_digest` agrees
    /// with `accepts_observation`). A digest-less spec pins nothing here: the
    /// live state *is* the window state until a commit overwrites it, and
    /// [`Checker::apply_mutator_commit`] copies it only then.
    fn pin_digest(&mut self) {
        if !self.digests.contains_key(&self.commits_applied) {
            if let Some(digest) = self.spec.observation_digest() {
                self.digests.insert(self.commits_applied, digest);
            }
        }
    }

    fn on_commit(&mut self, tid: ThreadId) {
        let Some(pending) = self.pending.get(&tid) else {
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
                // of the whole call–return window.
                self.pin_digest();
                let pending = self.pending.get_mut(&tid).expect("checked above");
                pending.explicit_commit = Some(self.commits_applied);
            }
            MethodKind::Mutator => {
                if pending.committed {
                    let method = pending.method;
                    self.fail(Violation::CommitAnnotation {
                        tid,
                        method,
                        detail: "more than one commit action in a single execution".to_owned(),
                        log_position: self.position,
                    });
                    return;
                }
                let method = pending.method;
                let args = pending.args.clone();
                // The paper derives the committing method's return value
                // "by looking ahead in the implementation's execution".
                let ret = match self.lookahead_return(tid, &method) {
                    Ok(Some(ret)) => ret,
                    Ok(None) => {
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
                    Err(violation) => {
                        self.fail(violation);
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
        // Copy-on-first-commit: a window's start state is copied when a
        // commit is about to overwrite it — here, once for every window
        // that opened since the last commit — so a window that sees no
        // commit never costs a clone. (A digest spec has pinned one
        // digest per open window and needs no snapshot at all.)
        let anchor = (self.observers_inflight > 0
            && self.digests.is_empty()
            && self
                .pending
                .values()
                .any(|p| p.kind == MethodKind::Observer && p.oldest_state() == commit_index))
        .then(|| self.spec.clone());
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
        if let Some(anchor) = anchor {
            self.snapshots.insert(commit_index, anchor);
            self.stats.snapshots_taken += 1;
        }
        self.commits_applied += 1;
        self.stats.commits_applied += 1;
        if self.options.record_witness {
            self.witness.push(WitnessStep {
                commit_index,
                tid,
                method,
                args: args.to_vec(),
                ret: ret.clone(),
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
        // Observer-window bookkeeping: pin the post-commit state while
        // any observer is in flight (§4.3). This must happen even after a
        // violation has been recorded: in continue-after-violation mode
        // those observers still resolve later and walk their windows.
        if self.observers_inflight > 0 {
            self.note_window_commit(commit_index, method, args, ret);
        }
    }

    /// Pins the post-commit state `s_{commit_index + 1}` for the open
    /// observer windows, the cheap way: digest specs retain the O(1)
    /// digest; everything else records the commit's signature, so the
    /// state can be *replayed* on demand from a window's start anchor.
    fn note_window_commit(&mut self, commit_index: u64, method: MethodId, args: ArgList, ret: Value) {
        if let Some(digest) = self.spec.observation_digest() {
            self.digests.insert(self.commits_applied, digest);
            return;
        }
        if self.commit_log.is_empty() {
            self.commit_log_base = commit_index;
        }
        debug_assert_eq!(
            self.commit_log_base + self.commit_log.len() as u64,
            commit_index,
            "commit signatures must stay contiguous while windows are open"
        );
        self.commit_log.push_back(CommitSig { method, args, ret });
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
                self.observers_inflight -= 1;
                self.stats.observers_checked += 1;
                let (start, end) = match pending.explicit_commit {
                    Some(c) => (c, c),
                    None => (pending.window_start, self.commits_applied),
                };
                // Observer-window size (§4.3): how many candidate states
                // this return must be checked against. Runs on the
                // verifier thread, so the histogram update is off the
                // program's critical path.
                if vyrd_rt::metrics::enabled() {
                    crate::metrics::pipeline()
                        .checker_observer_window
                        .record(end - start);
                }
                // The window search: in io mode, §4.3 verbatim — the
                // return is accepted if valid in any window state. In
                // lin mode the same search is the hunt for a
                // commit-order-consistent sequential witness, with
                // every rejected candidate counted as a backtrack and
                // digest-resolved windows counted as fast-path hits.
                let mut satisfied = false;
                let mut rejected = 0u64;
                let mut digest_only = self.lin;
                // The replay cursor: at most one spec clone per window,
                // advanced forward one commit signature at a time as `j`
                // ascends past the window's start anchor.
                let mut cursor: Option<(u64, S)> = None;
                for j in start..=end {
                    if self.observation_holds_at(
                        j,
                        &method,
                        &pending.args,
                        &ret,
                        &mut digest_only,
                        &mut cursor,
                    ) {
                        satisfied = true;
                        break;
                    }
                    rejected += 1;
                }
                if self.lin {
                    self.stats.lin_windows_searched += 1;
                    self.stats.lin_witness_backtracks += rejected;
                    if digest_only {
                        self.stats.lin_fastpath_hits += 1;
                    }
                }
                self.gc_snapshots();
                if !satisfied {
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

    /// Judges one window candidate: is the observation valid at state
    /// `s_j`? Resolution order, cheapest first: a retained digest (any
    /// mode), the live state, a start anchor, and finally replay from the
    /// nearest anchor through `commit_log` (one `Spec::apply` per window
    /// state via the ascending `cursor`). Every non-digest resolution
    /// clears `digest_only` so Lin windows are only counted as fast-path
    /// hits when digests carried them end to end.
    fn observation_holds_at(
        &mut self,
        j: u64,
        method: &MethodId,
        args: &[Value],
        ret: &Value,
        digest_only: &mut bool,
        cursor: &mut Option<(u64, S)>,
    ) -> bool {
        if let Some(digest) = self.digests.get(&j) {
            return self.spec.accepts_observation_digest(method, args, ret, digest);
        }
        if j == self.commits_applied {
            if let Some(digest) = self.spec.observation_digest() {
                return self.spec.accepts_observation_digest(method, args, ret, &digest);
            }
            *digest_only = false;
            return self.spec.accepts_observation(method, args, ret);
        }
        *digest_only = false;
        if let Some(state) = self.snapshots.get(&j) {
            return state.accepts_observation(method, args, ret);
        }
        match self.replayed_state_at(j, cursor) {
            Some(state) => state.accepts_observation(method, args, ret),
            // No anchor at or below `j`: the anchor invariant was broken
            // (a checker bug, asserted in debug builds). Fall back to the
            // live state rather than inventing a verdict from nothing.
            None => {
                debug_assert!(false, "no snapshot anchor at or below window state {j}");
                self.spec.accepts_observation(method, args, ret)
            }
        }
    }

    /// Reconstructs the state `s_j` by cloning the nearest anchor at or
    /// below `j` into `cursor` and re-applying the recorded commit
    /// signatures up to `j`. The cursor persists across a window walk, so
    /// an ascending sequence of misses costs one clone plus one
    /// `Spec::apply` per step in total.
    ///
    /// Relies on the spec-determinism contract of [`Spec::apply`]: a
    /// signature that applied cleanly to the live spec applies cleanly
    /// (and identically) to a replayed copy.
    fn replayed_state_at<'c>(&mut self, j: u64, cursor: &'c mut Option<(u64, S)>) -> Option<&'c S> {
        if cursor.is_none() {
            let (anchor, snap) = self.snapshots.range(..=j).next_back()?;
            *cursor = Some((*anchor, snap.clone()));
        }
        let (at, state) = cursor.as_mut()?;
        while *at < j {
            let Some(offset) = at.checked_sub(self.commit_log_base) else {
                break;
            };
            let Some(sig) = self.commit_log.get(offset as usize) else {
                break;
            };
            let applied = state.apply(&sig.method, &sig.args, &sig.ret);
            debug_assert!(
                applied.is_ok(),
                "spec replay diverged: commit {at} applied live but not on replay"
            );
            self.stats.snapshot_replays += 1;
            *at += 1;
        }
        debug_assert_eq!(*at, j, "commit signatures must cover every window state");
        (*at == j).then_some(&*state)
    }

    /// Drops anchors, digests, and commit signatures no open observer
    /// window can reach.
    fn gc_snapshots(&mut self) {
        if self.observers_inflight == 0 {
            self.snapshots.clear();
            self.digests.clear();
            self.commit_log.clear();
            self.commit_log_base = 0;
            return;
        }
        let min_start = self
            .pending
            .values()
            .filter(|p| p.kind == MethodKind::Observer)
            .map(PendingExec::oldest_state)
            .min()
            .unwrap_or(u64::MAX);
        self.snapshots = self.snapshots.split_off(&min_start);
        self.digests = self.digests.split_off(&min_start);
        // Signatures below the oldest reachable window start can never
        // be replayed across again (every window a commit has landed in
        // holds an anchor at its start, so replay never reaches below
        // `min_start`).
        while self.commit_log_base < min_start {
            if self.commit_log.pop_front().is_none() {
                self.commit_log_base = min_start;
                break;
            }
            self.commit_log_base += 1;
        }
    }
}
