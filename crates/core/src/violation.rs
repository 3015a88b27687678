//! Refinement violations and check reports.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use crate::event::{MethodId, ObjectId, ThreadId};
use crate::value::Value;

/// A detected refinement violation, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The specification has no transition for a committing mutator with
    /// the observed signature (I/O refinement, §4).
    SpecRejectedCommit {
        /// Committing thread.
        tid: ThreadId,
        /// Committing method.
        method: MethodId,
        /// Actual arguments.
        args: Vec<Value>,
        /// Observed return value.
        ret: Value,
        /// Why the specification rejected the transition.
        reason: String,
        /// Index of this commit in the witness interleaving (0-based).
        commit_index: u64,
        /// Position in the log at which the violation was established.
        log_position: u64,
    },
    /// An observer's return value is not valid in *any* specification state
    /// between its call and return (§4.3, Fig. 7).
    ObserverUnjustified {
        /// Observing thread.
        tid: ThreadId,
        /// Observer method.
        method: MethodId,
        /// Actual arguments.
        args: Vec<Value>,
        /// Observed return value.
        ret: Value,
        /// First commit index of the window checked (state *after* that
        /// many commits).
        window_start: u64,
        /// Last commit index of the window checked.
        window_end: u64,
        /// Position in the log at which the violation was established.
        log_position: u64,
    },
    /// `view_I` and `view_S` disagree at a commit action (view refinement,
    /// §5).
    ViewMismatch {
        /// Committing thread.
        tid: ThreadId,
        /// Committing method (or internal task).
        method: MethodId,
        /// The view key at which the two views disagree.
        key: Value,
        /// Implementation-side entry (`None` = absent).
        view_i: Option<Value>,
        /// Specification-side entry (`None` = absent).
        view_s: Option<Value>,
        /// Index of the commit at which the mismatch was observed.
        commit_index: u64,
        /// Position in the log at which the violation was established.
        log_position: u64,
    },
    /// A programmer-supplied invariant over the replayed implementation
    /// state failed at a commit action (§7.2.1 checked two such invariants
    /// for the Boxwood cache).
    InvariantViolation {
        /// Name of the failed invariant.
        name: String,
        /// Failure detail produced by the invariant.
        message: String,
        /// Index of the commit at which the invariant was evaluated.
        commit_index: u64,
        /// Position in the log at which the violation was established.
        log_position: u64,
    },
    /// A mutator execution returned without having logged a commit action,
    /// or logged more than one (§4.1 requires exactly one per path).
    CommitAnnotation {
        /// Offending thread.
        tid: ThreadId,
        /// Offending method.
        method: MethodId,
        /// What went wrong.
        detail: String,
        /// Position in the log at which the problem was established.
        log_position: u64,
    },
    /// The log itself is not a well-formed trace (§3.2): e.g. a return
    /// without a matching call, a commit outside any method execution, or a
    /// truncated stream while a commit was awaiting its return value.
    MalformedLog {
        /// What is wrong with the log.
        detail: String,
        /// Position in the log at which the problem was established.
        log_position: u64,
    },
    /// The check was *misconfigured*: the scenario or pipeline was asked
    /// to run in a checking mode it does not support (e.g. view
    /// refinement of a structure with no replayer). Reported as a
    /// failure so the run can never masquerade as a vacuous PASS —
    /// nothing was actually verified.
    UnsupportedMode {
        /// What was asked for and why it cannot be served.
        detail: String,
        /// Position in the log at which the problem was established
        /// (0 when the check was refused before consuming any events).
        log_position: u64,
    },
}

impl Violation {
    /// A short machine-checkable label for the violation category.
    pub fn category(&self) -> &'static str {
        match self {
            Violation::SpecRejectedCommit { .. } => "spec-rejected-commit",
            Violation::ObserverUnjustified { .. } => "observer-unjustified",
            Violation::ViewMismatch { .. } => "view-mismatch",
            Violation::InvariantViolation { .. } => "invariant-violation",
            Violation::CommitAnnotation { .. } => "commit-annotation",
            Violation::MalformedLog { .. } => "malformed-log",
            Violation::UnsupportedMode { .. } => "unsupported-mode",
        }
    }

    /// `true` for the violations only view refinement can raise.
    pub fn is_view_only(&self) -> bool {
        matches!(
            self,
            Violation::ViewMismatch { .. } | Violation::InvariantViolation { .. }
        )
    }

    /// The log position at which the violation was established.
    pub fn log_position(&self) -> u64 {
        match self {
            Violation::SpecRejectedCommit { log_position, .. }
            | Violation::ObserverUnjustified { log_position, .. }
            | Violation::ViewMismatch { log_position, .. }
            | Violation::InvariantViolation { log_position, .. }
            | Violation::CommitAnnotation { log_position, .. }
            | Violation::MalformedLog { log_position, .. }
            | Violation::UnsupportedMode { log_position, .. } => *log_position,
        }
    }
}

fn fmt_args(args: &[Value], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SpecRejectedCommit {
                tid,
                method,
                args,
                ret,
                reason,
                commit_index,
                ..
            } => {
                write!(f, "refinement violation at commit #{commit_index}: specification cannot execute {tid} {method}")?;
                fmt_args(args, f)?;
                write!(f, " -> {ret}: {reason}")
            }
            Violation::ObserverUnjustified {
                tid,
                method,
                args,
                ret,
                window_start,
                window_end,
                ..
            } => {
                write!(f, "refinement violation: observer {tid} {method}")?;
                fmt_args(args, f)?;
                write!(
                    f,
                    " -> {ret} is not valid in any specification state in its window (commits #{window_start}..=#{window_end})"
                )
            }
            Violation::ViewMismatch {
                tid,
                method,
                key,
                view_i,
                view_s,
                commit_index,
                ..
            } => {
                write!(
                    f,
                    "view refinement violation at commit #{commit_index} ({tid} {method}): key {key}: view_I = "
                )?;
                match view_i {
                    Some(v) => write!(f, "{v}")?,
                    None => write!(f, "<absent>")?,
                }
                write!(f, ", view_S = ")?;
                match view_s {
                    Some(v) => write!(f, "{v}"),
                    None => write!(f, "<absent>"),
                }
            }
            Violation::InvariantViolation {
                name,
                message,
                commit_index,
                ..
            } => write!(
                f,
                "invariant {name:?} violated at commit #{commit_index}: {message}"
            ),
            Violation::CommitAnnotation {
                tid,
                method,
                detail,
                ..
            } => write!(f, "commit annotation problem in {tid} {method}: {detail}"),
            Violation::MalformedLog { detail, .. } => write!(f, "malformed log: {detail}"),
            Violation::UnsupportedMode { detail, .. } => {
                write!(f, "unsupported checking mode: {detail}")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Counters describing a checking run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Log events consumed.
    pub events: u64,
    /// Commits applied to the specification.
    pub commits_applied: u64,
    /// Method executions completed (return actions seen) before the
    /// violation — the "time to detection" metric of Table 1. Equal to the
    /// total number of completed methods when no violation was found.
    pub methods_completed: u64,
    /// Observer executions checked.
    pub observers_checked: u64,
    /// View comparisons performed (one per mutator commit in view mode).
    pub view_comparisons: u64,
    /// Individual view keys compared (incremental mode compares fewer).
    pub view_keys_compared: u64,
    /// Writes replayed into the shadow state.
    pub writes_replayed: u64,
    /// Observer windows searched for a linearization witness
    /// (`Checker::lin` only; zero in io/view mode).
    pub lin_windows_searched: u64,
    /// Window candidates rejected before a witness was found (or the
    /// window was exhausted) across all lin-mode searches.
    pub lin_witness_backtracks: u64,
    /// Channel batches consumed by the batched online path
    /// (`SteppingChecker::check`'s `recv_up_to` loop); zero offline.
    pub batches: u64,
    /// Events received through those batches. Greater than or equal to
    /// `events` when a violation stopped the run mid-batch (the rest of
    /// the batch was received but not processed).
    pub batch_events: u64,
    /// Events the program appended after the log was closed — actions the
    /// verifier never saw (straggler threads still running at
    /// `finish()`). Nonzero means the verdict covers a prefix of the
    /// execution only.
    pub events_discarded_after_close: u64,
}

impl CheckStats {
    /// Adds every counter of `other` into this record. The destructuring
    /// is exhaustive on purpose: a new counter that this sum forgets is a
    /// compile error, not a silently under-reported merged verdict.
    fn absorb(&mut self, other: &CheckStats) {
        let CheckStats {
            events,
            commits_applied,
            methods_completed,
            observers_checked,
            view_comparisons,
            view_keys_compared,
            writes_replayed,
            lin_windows_searched,
            lin_witness_backtracks,
            batches,
            batch_events,
            events_discarded_after_close,
        } = *other;
        self.events += events;
        self.commits_applied += commits_applied;
        self.methods_completed += methods_completed;
        self.observers_checked += observers_checked;
        self.view_comparisons += view_comparisons;
        self.view_keys_compared += view_keys_compared;
        self.writes_replayed += writes_replayed;
        self.lin_windows_searched += lin_windows_searched;
        self.lin_witness_backtracks += lin_witness_backtracks;
        self.batches += batches;
        self.batch_events += batch_events;
        self.events_discarded_after_close += events_discarded_after_close;
    }
}

/// One shard checker's crash record: what a supervised
/// [`VerifierPool`](crate::pool::VerifierPool) worker writes into the
/// report when a checker panicked (after any successful restart, or after
/// the restart budget ran out).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFailure {
    /// The object whose checker panicked.
    pub object: ObjectId,
    /// The panic payload (stringified).
    pub panic_msg: String,
    /// Events of this shard that were consumed by crashed checker
    /// attempts or drained unchecked after the restart budget ran out —
    /// coverage the verdict does *not* include.
    pub events_lost: u64,
    /// How many times the supervisor restarted the shard's checker.
    pub restarts: u32,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: checker panicked ({:?}), {} events lost, {} restarts",
            self.object, self.panic_msg, self.events_lost, self.restarts
        )
    }
}

/// The dispatch-seq window over which one object's events were shed.
///
/// Sequence numbers are *dispatch* indices — the router's running count
/// of events entering the fan-out, stamped inside the append critical
/// section — so the window names exactly which slice of the total order
/// the verdict does not cover. "Events 312..=8907 of object 3 were
/// never checked" is actionable in a way a bare shed count is not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShedWindow {
    /// The object whose events were shed.
    pub object: ObjectId,
    /// Dispatch seq of the first shed event (a lower bound on it when the
    /// window opens with the unqueued tail of a batch whose checker hung
    /// up and other objects' events were interleaved with that batch).
    pub first_seq: u64,
    /// Dispatch seq of the last shed event.
    pub last_seq: u64,
    /// Events shed inside the window (the window may interleave with
    /// delivered events, so this is not `last_seq - first_seq + 1`).
    pub events: u64,
    /// Of `events`, those the `shard.route` failpoint dropped. The rest
    /// were shed by overload or because the checker hung up — how many
    /// of those there are depends on how far the checker had got, this
    /// count only on the fault plan.
    pub injected: u64,
    /// Events *delivered* to this object's shard before the first shed —
    /// the length of the gap-free prefix of the checker's input. A
    /// violation the checker reports at a position below this count was
    /// found on a faithful slice of the execution and stands; one at or
    /// beyond it was observed across a coverage gap and is downgraded to
    /// degradation rather than forged into a FAIL (see
    /// [`Degradation::unreliable_violations`]).
    pub prefix_events: u64,
    /// Dispatch seq at which delivery to the shard was abandoned for the
    /// rest of the run (the `Shed` budget ran out, the watchdog
    /// quarantined the object, or the checker hung up), if it was.
    pub abandoned_at_seq: Option<u64>,
}

impl fmt::Display for ShedWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seq {}..={} ({} shed{})",
            self.object,
            self.first_seq,
            self.last_seq,
            self.events,
            match self.abandoned_at_seq {
                Some(seq) => format!(", abandoned at {seq}"),
                None => String::new(),
            }
        )
    }
}

/// How the watchdog escalated a shard with no checker progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogAction {
    /// The shard was announced but no worker had claimed it: a
    /// supervised rescue worker was spawned to pick it up.
    RescueWorker,
    /// A worker owned the shard but stopped consuming: further events
    /// for the object are shed at the router (quarantine) so producers
    /// can never block behind the stuck checker. The sheds are counted
    /// and windowed like any other.
    Quarantine,
}

impl fmt::Display for WatchdogAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WatchdogAction::RescueWorker => "rescue-worker",
            WatchdogAction::Quarantine => "quarantine",
        })
    }
}

/// One watchdog escalation of a stuck shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogEvent {
    /// The stuck shard's object.
    pub object: ObjectId,
    /// Watchdog tick (1-based) on which the escalation fired.
    pub tick: u64,
    /// Queue occupancy observed when the deadline expired.
    pub queued: u64,
    /// What the watchdog did.
    pub action: WatchdogAction,
    /// Dispatch seq at escalation — where in the total order the stall
    /// was declared.
    pub at_seq: u64,
}

impl fmt::Display for WatchdogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: watchdog {} at tick {} ({} queued, seq {})",
            self.object, self.action, self.tick, self.queued, self.at_seq
        )
    }
}

/// Lost-coverage accounting attached to every [`Report`].
///
/// Refinement checking degrades rather than aborts: a shed event, a
/// crashed checker, a worker that could not be spawned all leave the
/// pipeline running — but the verdict then covers *less* of the execution
/// than a clean run would, and this struct is where that gap is recorded.
/// A report with `violation: None` but [`Degradation::is_degraded`] true
/// is a **degraded pass**: "no violation found in what was checked",
/// never "the execution refines the spec".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Events shed by an overloaded shard router (timeout expired under a
    /// `Shed` overload policy, or an injected route drop) — per object.
    pub sheds_by_object: Vec<(ObjectId, u64)>,
    /// Events lost to checker crashes or dropped before reaching any
    /// checker (e.g. an injected append drop).
    pub events_lost: u64,
    /// Total checker restarts performed by supervisors.
    pub restarts: u64,
    /// One record per shard whose checker panicked.
    pub shard_failures: Vec<ShardFailure>,
    /// Shards checked inline on the merging thread because a verifier
    /// worker could not be spawned. Coverage is complete (the events
    /// *were* checked, just not concurrently), so this alone does not
    /// degrade the verdict — but the report says it happened.
    pub spawn_fallbacks: u64,
    /// Verifier worker threads that died outside checker supervision.
    pub lost_workers: u64,
    /// Bytes of torn-tail (or otherwise untrusted) log data discarded by
    /// crash recovery ([`codec::read_log_recovering`]'s
    /// [`DecodeOutcome::RecoveredPrefix`] accounting). The events those
    /// bytes encoded were never checked, so any nonzero value degrades
    /// the verdict.
    ///
    /// [`codec::read_log_recovering`]: crate::codec::read_log_recovering
    /// [`DecodeOutcome::RecoveredPrefix`]: crate::codec::DecodeOutcome::RecoveredPrefix
    pub torn_bytes_discarded: u64,
    /// Per-object dispatch-seq windows over which events were shed —
    /// *where* in the total order the coverage gap sits, complementing
    /// the per-object counts in `sheds_by_object`.
    pub shed_windows: Vec<ShedWindow>,
    /// Watchdog escalations of stuck shards (rescue worker spawned, or
    /// object quarantined at the router).
    pub watchdog_events: Vec<WatchdogEvent>,
    /// Violations a checker reported at or beyond its shard's first
    /// coverage gap (see [`ShedWindow::prefix_events`]), suppressed at
    /// merge time. A torn stream routinely *looks* inconsistent — a
    /// return without its call, a replayed view missing shed writes —
    /// so such a finding is evidence of degraded coverage, not of a
    /// refinement violation: the verdict degrades instead of failing.
    pub unreliable_violations: u64,
    /// Events delivered to a shard's queue but never consumed by its
    /// checker — the residue left in an abandoned or quarantined shard's
    /// channel at shutdown (the checker stopped at its first violation,
    /// hung up, or was quarantined mid-stream). Counted separately from
    /// `events_lost` so conservation reconciles exactly:
    /// `appended == checked + sheds + stranded (+ injected drops)`.
    pub stranded_events: u64,
}

impl Degradation {
    /// Total shed events across all objects.
    pub fn sheds(&self) -> u64 {
        self.sheds_by_object.iter().map(|(_, n)| n).sum()
    }

    /// The part of [`Degradation::sheds`] that an injected `shard.route`
    /// fault dropped (see [`ShedWindow::injected`]).
    pub fn injected_sheds(&self) -> u64 {
        self.shed_windows.iter().map(|w| w.injected).sum()
    }

    /// `true` when the verdict covers less than the full execution: any
    /// sheds, lost events, checker crashes, restarts, or dead workers.
    /// (Spawn fallbacks alone do not count — see
    /// [`Degradation::spawn_fallbacks`].)
    pub fn is_degraded(&self) -> bool {
        self.sheds() > 0
            || self.events_lost > 0
            || self.restarts > 0
            || !self.shard_failures.is_empty()
            || self.lost_workers > 0
            || self.torn_bytes_discarded > 0
            || self.unreliable_violations > 0
            || self.stranded_events > 0
    }

    /// Folds another degradation record into this one (used when merging
    /// per-object reports).
    pub fn absorb(&mut self, other: &Degradation) {
        for (object, n) in &other.sheds_by_object {
            match self.sheds_by_object.iter_mut().find(|(o, _)| o == object) {
                Some((_, total)) => *total += n,
                None => self.sheds_by_object.push((*object, *n)),
            }
        }
        self.sheds_by_object.sort_by_key(|(object, _)| *object);
        self.events_lost += other.events_lost;
        self.restarts += other.restarts;
        self.shard_failures.extend(other.shard_failures.iter().cloned());
        self.spawn_fallbacks += other.spawn_fallbacks;
        self.lost_workers += other.lost_workers;
        self.torn_bytes_discarded += other.torn_bytes_discarded;
        for window in &other.shed_windows {
            match self
                .shed_windows
                .iter_mut()
                .find(|w| w.object == window.object)
            {
                Some(w) => {
                    w.first_seq = w.first_seq.min(window.first_seq);
                    w.last_seq = w.last_seq.max(window.last_seq);
                    w.events += window.events;
                    w.injected += window.injected;
                    // The earliest gap bounds the trustworthy prefix.
                    w.prefix_events = w.prefix_events.min(window.prefix_events);
                    w.abandoned_at_seq = match (w.abandoned_at_seq, window.abandoned_at_seq) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => self.shed_windows.push(*window),
            }
        }
        self.shed_windows.sort_by_key(|w| w.object);
        self.watchdog_events.extend(other.watchdog_events.iter().copied());
        self.watchdog_events.sort_by_key(|e| (e.tick, e.object));
        self.unreliable_violations += other.unreliable_violations;
        self.stranded_events += other.stranded_events;
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sheds, {} events lost, {} restarts, {} failed shards",
            self.sheds(),
            self.events_lost,
            self.restarts,
            self.shard_failures.len()
        )?;
        if self.lost_workers > 0 {
            write!(f, ", {} lost workers", self.lost_workers)?;
        }
        if self.torn_bytes_discarded > 0 {
            write!(f, ", {} torn bytes discarded", self.torn_bytes_discarded)?;
        }
        if !self.shed_windows.is_empty() {
            f.write_str("; uncovered: ")?;
            for (i, w) in self.shed_windows.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{w}")?;
            }
        }
        for e in &self.watchdog_events {
            write!(f, "; {e}")?;
        }
        if self.unreliable_violations > 0 {
            write!(
                f,
                "; {} violation(s) past a coverage gap suppressed",
                self.unreliable_violations
            )?;
        }
        if self.stranded_events > 0 {
            write!(f, "; {} events stranded in shard queues", self.stranded_events)?;
        }
        Ok(())
    }
}

/// The three-valued outcome of a check, from [`Report::verdict`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No violation and full coverage.
    Pass,
    /// No violation found, but parts of the execution went unchecked
    /// (sheds, crashes, lost events) — *not* evidence of refinement.
    DegradedPass,
    /// A refinement violation was found.
    Fail,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "PASS",
            Verdict::DegradedPass => "DEGRADED PASS",
            Verdict::Fail => "FAIL",
        })
    }
}

/// The result of checking one log.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The first violation found, if any.
    pub violation: Option<Violation>,
    /// Counters for the run.
    pub stats: CheckStats,
    /// Lost-coverage accounting; all-zero on a clean run.
    pub degradation: Degradation,
}

impl Report {
    /// `true` when no violation was found. Check
    /// [`Report::is_degraded`] (or use [`Report::verdict`]) before
    /// treating a pass as evidence of refinement: a degraded pass only
    /// covers part of the execution.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// `true` when the verdict covers less than the full execution.
    pub fn is_degraded(&self) -> bool {
        self.degradation.is_degraded()
    }

    /// Folds one object's report into a merged verdict: stats summed,
    /// degradation absorbed, first violation wins — so callers fold in a
    /// deterministic order (ascending object id).
    pub fn absorb(&mut self, other: &Report) {
        self.stats.absorb(&other.stats);
        self.degradation.absorb(&other.degradation);
        if self.violation.is_none() {
            self.violation = other.violation.clone();
        }
    }

    /// The three-valued outcome: a violation always wins; otherwise a
    /// degraded run is distinguished from a clean pass.
    pub fn verdict(&self) -> Verdict {
        if self.violation.is_some() {
            Verdict::Fail
        } else if self.is_degraded() {
            Verdict::DegradedPass
        } else {
            Verdict::Pass
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.violation {
            None => write!(
                f,
                "{}: {} events, {} commits, {} methods, {} observer checks",
                self.verdict(),
                self.stats.events,
                self.stats.commits_applied,
                self.stats.methods_completed,
                self.stats.observers_checked
            )?,
            Some(v) => write!(
                f,
                "FAIL after {} completed methods: {v}",
                self.stats.methods_completed
            )?,
        }
        if self.stats.events_discarded_after_close > 0 {
            write!(
                f,
                " [{} events discarded after close — verdict covers a prefix]",
                self.stats.events_discarded_after_close
            )?;
        }
        if self.is_degraded() {
            write!(f, " [degraded: {}]", self.degradation)?;
        }
        if self.degradation.spawn_fallbacks > 0 {
            write!(
                f,
                " [{} shards checked inline after worker spawn failure]",
                self.degradation.spawn_fallbacks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn categories_and_view_only_flags() {
        let v = Violation::ViewMismatch {
            tid: ThreadId(1),
            method: "Insert".into(),
            key: Value::from(5i64),
            view_i: None,
            view_s: Some(Value::from(1i64)),
            commit_index: 3,
            log_position: 17,
        };
        assert_eq!(v.category(), "view-mismatch");
        assert!(v.is_view_only());
        assert_eq!(v.log_position(), 17);

        let io = Violation::SpecRejectedCommit {
            tid: ThreadId(0),
            method: "Delete".into(),
            args: vec![Value::from(3i64)],
            ret: Value::from(true),
            reason: "3 not in multiset".to_owned(),
            commit_index: 0,
            log_position: 4,
        };
        assert_eq!(io.category(), "spec-rejected-commit");
        assert!(!io.is_view_only());
    }

    #[test]
    fn display_messages_mention_the_essentials() {
        let v = Violation::ObserverUnjustified {
            tid: ThreadId(2),
            method: "LookUp".into(),
            args: vec![Value::from(5i64)],
            ret: Value::from(false),
            window_start: 1,
            window_end: 4,
            log_position: 30,
        };
        let msg = v.to_string();
        assert!(msg.contains("LookUp"));
        assert!(msg.contains("T2"));
        assert!(msg.contains("#1..=#4"));

        let inv = Violation::InvariantViolation {
            name: "clean-matches-chunk".to_owned(),
            message: "handle 7 differs".to_owned(),
            commit_index: 9,
            log_position: 100,
        };
        assert!(inv.to_string().contains("clean-matches-chunk"));
    }

    #[test]
    fn report_pass_fail() {
        let ok = Report::default();
        assert!(ok.passed());
        assert!(ok.to_string().starts_with("PASS"));
        let bad = Report {
            violation: Some(Violation::MalformedLog {
                detail: "return without call".to_owned(),
                log_position: 0,
            }),
            ..Report::default()
        };
        assert!(!bad.passed());
        assert!(bad.to_string().starts_with("FAIL"));
    }

    #[test]
    fn degraded_pass_is_never_displayed_as_a_clean_pass() {
        let mut r = Report::default();
        assert_eq!(r.verdict(), Verdict::Pass);
        r.degradation.sheds_by_object.push((ObjectId(2), 5));
        assert!(r.passed(), "no violation was found");
        assert!(r.is_degraded());
        assert_eq!(r.verdict(), Verdict::DegradedPass);
        let msg = r.to_string();
        assert!(msg.starts_with("DEGRADED PASS"), "{msg}");
        assert!(msg.contains("5 sheds"), "{msg}");
        // A violation still trumps degradation.
        r.violation = Some(Violation::MalformedLog {
            detail: "x".to_owned(),
            log_position: 0,
        });
        assert_eq!(r.verdict(), Verdict::Fail);
    }

    #[test]
    fn degradation_absorb_merges_counters_and_failures() {
        let mut a = Degradation {
            sheds_by_object: vec![(ObjectId(1), 2)],
            events_lost: 1,
            restarts: 1,
            ..Degradation::default()
        };
        let b = Degradation {
            sheds_by_object: vec![(ObjectId(0), 3), (ObjectId(1), 4)],
            events_lost: 2,
            shard_failures: vec![ShardFailure {
                object: ObjectId(0),
                panic_msg: "boom".to_owned(),
                events_lost: 2,
                restarts: 0,
            }],
            lost_workers: 1,
            ..Degradation::default()
        };
        a.absorb(&b);
        assert_eq!(a.sheds(), 9);
        assert_eq!(a.sheds_by_object, vec![(ObjectId(0), 3), (ObjectId(1), 6)]);
        assert_eq!(a.events_lost, 3);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.shard_failures.len(), 1);
        assert_eq!(a.lost_workers, 1);
        assert!(a.is_degraded());
    }

    #[test]
    fn spawn_fallback_alone_is_noted_but_not_degraded() {
        let mut r = Report::default();
        r.degradation.spawn_fallbacks = 2;
        assert!(!r.is_degraded(), "coverage is complete, just not concurrent");
        assert_eq!(r.verdict(), Verdict::Pass);
        assert!(r.to_string().contains("checked inline after worker spawn failure"));
    }

    #[test]
    fn report_surfaces_discarded_events() {
        let mut r = Report::default();
        assert!(!r.to_string().contains("discarded"));
        r.stats.events_discarded_after_close = 3;
        let msg = r.to_string();
        assert!(msg.starts_with("PASS"));
        assert!(msg.contains("3 events discarded after close"));
    }
}
