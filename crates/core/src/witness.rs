//! Counterexample minimization and explanation (§4.1's debugging loop).
//!
//! A raw FAIL [`Report`] names a violation and a log position — useless
//! at the trace sizes the soak and continuous services sustain. This
//! module turns a failing report plus its event log into a
//! [`Counterexample`]: a *minimal* event subsequence that still fails
//! the same check with the same violation category on the same object,
//! with tagged events, per-execution source spans, structured reasons,
//! a one-page text explanation, and a machine-readable
//! `results/WITNESS_<scenario>.json` artifact.
//!
//! The pipeline is trait-based so scenario families can plug their own
//! pieces (mirroring cspx's `Counterexample`/`Minimizer`/`Explainer`
//! architecture):
//!
//! * [`Oracle`] — re-runs the existing checker over a candidate
//!   subsequence; any `Fn(&[Event]) -> Report` qualifies, so the
//!   harness passes `|evs| scenario.check(kind, evs.to_vec())`.
//! * [`Minimizer`] — [`DdminMinimizer`] delta-debugs (ddmin, Zeller &
//!   Hildebrandt) over **commit-atomic chunks**: one chunk is every
//!   event of one method execution (call … commit … return), so every
//!   candidate is a well-formed log and the checker never sees a torn
//!   execution. [`IdentityMinimizer`] is the do-nothing default.
//! * [`Explainer`] — [`BasicExplainer`] renders the one-page text
//!   (methods involved, commit order, the violation neighborhood via
//!   [`diagnose::excerpt`]); [`ViewExplainer`] adds the first
//!   divergent spec state for the view-refinement families;
//!   [`LinExplainer`] adds observer-window commentary for the
//!   lock-free family.
//!
//! ## Degradation interaction (degrade-never-forge)
//!
//! Witnesses are never produced from unreliable violations: a report
//! whose [`Degradation::unreliable_violations`] ledger is non-zero
//! was raised across shed or torn input, and minimizing it would lend
//! false precision to a verdict the checker itself has flagged. The
//! pipeline returns [`WitnessError::Unreliable`] instead.

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use vyrd_rt::json::json_str;

use crate::diagnose;
use crate::event::{Event, MethodId, ObjectId, ThreadId};
use crate::violation::{Report, Violation};

/// Re-checks a candidate event subsequence. The minimizer treats this
/// as a black box; the harness typically wraps a scenario's offline
/// checker.
pub trait Oracle {
    /// Checks `events` and returns the full report.
    fn check(&self, events: &[Event]) -> Report;
}

impl<F: Fn(&[Event]) -> Report> Oracle for F {
    fn check(&self, events: &[Event]) -> Report {
        self(events)
    }
}

/// The identity a minimized witness must preserve: the violation
/// category and the object it was raised against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationKey {
    /// Stable category slug ([`Violation::category`]).
    pub category: &'static str,
    /// Object of the event at the violation's log position, when that
    /// position lands inside the trace.
    pub object: Option<ObjectId>,
}

impl ViolationKey {
    /// Extracts the key from a failing report over `events`, or `None`
    /// for a passing report.
    pub fn of(report: &Report, events: &[Event]) -> Option<ViolationKey> {
        let violation = report.violation.as_ref()?;
        let object = usize::try_from(violation.log_position())
            .ok()
            .and_then(|p| events.get(p))
            .map(Event::object);
        Some(ViolationKey { category: violation.category(), object })
    }

    /// Does `report` over `events` fail with this same key?
    pub fn matches(&self, report: &Report, events: &[Event]) -> bool {
        ViolationKey::of(report, events).as_ref() == Some(self)
    }
}

impl fmt::Display for ViolationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.object {
            Some(o) => write!(f, "{} on {o}", self.category),
            None => write!(f, "{} (no object)", self.category),
        }
    }
}

/// What a [`Minimizer`] produced.
#[derive(Clone, Debug)]
pub struct MinimizeOutcome {
    /// The (possibly reduced) event subsequence, in original order.
    pub events: Vec<Event>,
    /// The report from checking `events` — still failing with the
    /// original [`ViolationKey`].
    pub report: Report,
    /// How many times the oracle was consulted.
    pub oracle_runs: usize,
}

/// Reduces a failing event log while preserving its [`ViolationKey`].
pub trait Minimizer {
    /// Implementation name, recorded in the artifact.
    fn name(&self) -> &'static str;

    /// Minimizes `events`, which are known to fail with `key` (the
    /// caller has already consulted the oracle once to establish
    /// that). Implementations must return a subsequence that still
    /// fails with `key`; when no reduction is possible they return the
    /// input unchanged with `baseline` as the report.
    fn minimize(
        &self,
        events: &[Event],
        key: &ViolationKey,
        baseline: &Report,
        oracle: &dyn Oracle,
    ) -> MinimizeOutcome;
}

/// The do-nothing default: the witness is the whole failing log.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityMinimizer;

impl Minimizer for IdentityMinimizer {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn minimize(
        &self,
        events: &[Event],
        _key: &ViolationKey,
        baseline: &Report,
        _oracle: &dyn Oracle,
    ) -> MinimizeOutcome {
        MinimizeOutcome { events: events.to_vec(), report: baseline.clone(), oracle_runs: 0 }
    }
}

/// One commit-atomic chunk: every event of one method execution (or a
/// stray event with no enclosing execution, as a singleton), carrying
/// the original log indices so order is preserved across recombination.
#[derive(Clone, Debug)]
struct Chunk {
    /// `(original index, event)` pairs, ascending.
    events: Vec<(usize, Event)>,
}

impl Chunk {
    fn first_index(&self) -> usize {
        self.events[0].0
    }

    /// The execution's argument/return values, for the focus pre-pass.
    fn values(&self) -> Vec<crate::Value> {
        let mut out = Vec::new();
        for (_, e) in &self.events {
            match e {
                Event::Call { args, .. } => out.extend(args.iter().cloned()),
                Event::Return { ret, .. } => out.push(ret.clone()),
                Event::Write { value, .. } => out.push(value.clone()),
                _ => {}
            }
        }
        out
    }
}

/// Splits a log into commit-atomic chunks. Each thread has at most one
/// execution open at a time (the instrumentation's session discipline),
/// so grouping is a per-thread scan: `Call` opens a chunk, every event
/// of that thread joins it, `Return` closes it. Events outside any
/// execution (malformed logs) become singletons, so the union of
/// chunks is exactly the input.
fn commit_atomic_chunks(events: &[Event]) -> Vec<Chunk> {
    use std::collections::HashMap;
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut open: HashMap<ThreadId, usize> = HashMap::new();
    for (i, e) in events.iter().cloned().enumerate() {
        let tid = e.tid();
        match &e {
            Event::Call { .. } => {
                // A dangling open execution (log truncated mid-method)
                // stays closed where it ended; start fresh.
                let idx = chunks.len();
                chunks.push(Chunk { events: vec![(i, e)] });
                open.insert(tid, idx);
            }
            Event::Return { .. } => match open.remove(&tid) {
                Some(idx) => chunks[idx].events.push((i, e)),
                None => chunks.push(Chunk { events: vec![(i, e)] }),
            },
            _ => match open.get(&tid) {
                Some(&idx) => chunks[idx].events.push((i, e)),
                None => chunks.push(Chunk { events: vec![(i, e)] }),
            },
        }
    }
    chunks
}

/// Flattens a chunk selection back into a log, in original order.
fn assemble(chunks: &[Chunk], keep: &[bool]) -> Vec<Event> {
    let mut indexed: Vec<(usize, Event)> = chunks
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .flat_map(|(c, _)| c.events.iter().cloned())
        .collect();
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, e)| e).collect()
}

/// Delta debugging (ddmin) over commit-atomic chunks, re-running the
/// checker as the oracle and preserving the violation category and
/// object.
///
/// Two oracle-validated pre-passes cut the quadratic search down
/// before ddmin proper runs:
///
/// * **tail truncation** — executions that begin after the violation
///   position cannot contribute to it; drop them in one step.
/// * **argument focus** (opt-in, [`DdminMinimizer::focused`]) — keep
///   only executions sharing an argument/return value with the
///   violating execution. Right for the multiset and lock-free
///   families, whose violations are about one key or element; silently
///   abandoned when it does not preserve the key.
#[derive(Clone, Copy, Debug, Default)]
pub struct DdminMinimizer {
    /// Enables the argument-focus pre-pass.
    pub focus_args: bool,
}

impl DdminMinimizer {
    /// A ddmin minimizer with the argument-focus pre-pass enabled.
    pub fn focused() -> DdminMinimizer {
        DdminMinimizer { focus_args: true }
    }
}

impl Minimizer for DdminMinimizer {
    fn name(&self) -> &'static str {
        if self.focus_args {
            "ddmin+focus"
        } else {
            "ddmin"
        }
    }

    fn minimize(
        &self,
        events: &[Event],
        key: &ViolationKey,
        baseline: &Report,
        oracle: &dyn Oracle,
    ) -> MinimizeOutcome {
        let chunks = commit_atomic_chunks(events);
        let mut keep = vec![true; chunks.len()];
        let mut best = MinimizeOutcome {
            events: events.to_vec(),
            report: baseline.clone(),
            oracle_runs: 0,
        };

        let try_selection = |keep: &[bool], best: &mut MinimizeOutcome| -> bool {
            let candidate = assemble(&chunks, keep);
            let report = oracle.check(&candidate);
            best.oracle_runs += 1;
            if key.matches(&report, &candidate) {
                best.events = candidate;
                best.report = report;
                true
            } else {
                false
            }
        };

        // Tail truncation: drop every execution that starts after the
        // violation position.
        if let Ok(pos) = usize::try_from(baseline.violation.as_ref().map_or(0, Violation::log_position)) {
            let trial: Vec<bool> = chunks.iter().map(|c| c.first_index() <= pos).collect();
            if trial.iter().any(|&k| !k) && try_selection(&trial, &mut best) {
                keep = trial;
            }
        }

        // Argument focus: keep executions sharing a value with the
        // violating execution.
        if self.focus_args {
            if let Some(pos) = best
                .report
                .violation
                .as_ref()
                .map(Violation::log_position)
                .and_then(|p| usize::try_from(p).ok())
            {
                // Map the violation position (in the current best
                // trace) back to an original chunk.
                let current = assemble(&chunks, &keep);
                let culprit = current.get(pos).cloned();
                if let Some(culprit_chunk) = culprit.and_then(|ce| {
                    chunks
                        .iter()
                        .position(|c| c.events.iter().any(|(_, e)| *e == ce))
                }) {
                    let focus: BTreeSet<String> =
                        chunks[culprit_chunk].values().iter().map(|v| v.to_string()).collect();
                    let trial: Vec<bool> = chunks
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            keep[i]
                                && (i == culprit_chunk
                                    || c.values().iter().any(|v| focus.contains(&v.to_string())))
                        })
                        .collect();
                    if trial != keep && try_selection(&trial, &mut best) {
                        keep = trial;
                    }
                }
            }
        }

        // ddmin proper, over the surviving chunks.
        let live: Vec<usize> =
            keep.iter().enumerate().filter(|(_, &k)| k).map(|(i, _)| i).collect();
        let mut current: Vec<usize> = live;
        let mut granularity = 2usize;
        while current.len() >= 2 {
            let part = current.len().div_ceil(granularity);
            let mut reduced = false;
            let mut start = 0;
            while start < current.len() {
                let end = (start + part).min(current.len());
                // Complement of current[start..end].
                let complement: Vec<usize> = current
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j < start || *j >= end)
                    .map(|(_, &c)| c)
                    .collect();
                if complement.is_empty() {
                    start = end;
                    continue;
                }
                let mut trial = vec![false; chunks.len()];
                for &c in &complement {
                    trial[c] = true;
                }
                if try_selection(&trial, &mut best) {
                    current = complement;
                    granularity = (granularity - 1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if granularity >= current.len() {
                    break;
                }
                granularity = (granularity * 2).min(current.len());
            }
        }

        best
    }
}

/// Why an event appears in the witness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventTag {
    /// The event at the violation's log position.
    Violation,
    /// Part of the execution the violation was raised against.
    Culprit,
    /// A commit action — the witness interleaving is the order of
    /// these.
    Commit,
    /// An observer execution's event.
    Observer,
}

impl EventTag {
    fn label(self) -> &'static str {
        match self {
            EventTag::Violation => "violation",
            EventTag::Culprit => "culprit",
            EventTag::Commit => "commit",
            EventTag::Observer => "observer",
        }
    }
}

/// One event of the minimized witness, tagged.
#[derive(Clone, Debug)]
pub struct CounterexampleEvent {
    /// Position in the minimized trace.
    pub index: usize,
    /// The event.
    pub event: Event,
    /// Why it is here (may be empty for plain context events).
    pub tags: Vec<EventTag>,
}

/// Where one method execution lives in the minimized trace.
#[derive(Clone, Debug)]
pub struct SourceSpan {
    /// Executing thread.
    pub tid: ThreadId,
    /// Object.
    pub object: ObjectId,
    /// Method, when the span has a call or return.
    pub method: Option<MethodId>,
    /// Index of the call action.
    pub call: Option<usize>,
    /// Index of the commit action.
    pub commit: Option<usize>,
    /// Index of the return action.
    pub ret: Option<usize>,
}

/// A machine-checkable cause attached to the witness.
#[derive(Clone, Debug)]
pub struct Reason {
    /// Stable kind slug.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// The finished witness: minimal failing subsequence plus structure.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Scenario name (artifact file stem).
    pub scenario: String,
    /// Checking mode label (`"io"`, `"view"`, `"lin"`).
    pub mode: String,
    /// Violation category, preserved from the original report.
    pub category: &'static str,
    /// Violating object, when the position resolves.
    pub object: Option<ObjectId>,
    /// The violation raised by the *minimized* trace.
    pub violation: Violation,
    /// The minimized trace, tagged.
    pub events: Vec<CounterexampleEvent>,
    /// Per-execution spans over the minimized trace.
    pub spans: Vec<SourceSpan>,
    /// Structured causes.
    pub reasons: Vec<Reason>,
    /// Event count before minimization.
    pub original_events: usize,
    /// Oracle invocations the minimizer spent.
    pub oracle_runs: usize,
    /// Minimizer name.
    pub minimizer: &'static str,
    /// The one-page text explanation.
    pub explanation: String,
}

/// Why no witness was produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// The report passed — nothing to witness.
    Passed,
    /// The violation is flagged unreliable by the degradation ledger;
    /// degrade-never-forge forbids dressing it up as a precise witness.
    Unreliable,
    /// Re-checking the full log did not reproduce the reported
    /// violation key (got the stated category/object instead).
    CategoryDrift(String),
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::Passed => write!(f, "report passed; nothing to witness"),
            WitnessError::Unreliable => {
                write!(f, "violation is degradation-flagged unreliable; no witness produced")
            }
            WitnessError::CategoryDrift(d) => write!(f, "witness category drift: {d}"),
        }
    }
}

impl std::error::Error for WitnessError {}

/// Renders a [`Counterexample`] into the one-page explanation.
pub trait Explainer {
    /// Implementation name.
    fn name(&self) -> &'static str;

    /// The one-page text. `events` is the minimized trace.
    fn explain(&self, cx: &Counterexample, events: &[Event]) -> String;
}

/// The default explanation: header, methods involved, commit order,
/// and the violation neighborhood via [`diagnose::excerpt`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BasicExplainer;

fn explain_header(cx: &Counterexample, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "witness: {} [{} refinement] — {}", cx.scenario, cx.mode, cx.category);
    if let Some(object) = cx.object {
        let _ = writeln!(out, "object: {object}");
    }
    let _ = writeln!(
        out,
        "minimized: {} events (from {}; {} oracle runs, {})",
        cx.events.len(),
        cx.original_events,
        cx.oracle_runs,
        cx.minimizer,
    );
    let _ = writeln!(out, "violation: {}", cx.violation);
    let methods: BTreeSet<String> = cx
        .spans
        .iter()
        .filter_map(|s| s.method.as_ref())
        .map(|m| m.name().to_string())
        .collect();
    if !methods.is_empty() {
        let _ = writeln!(out, "methods involved: {}", methods.into_iter().collect::<Vec<_>>().join(", "));
    }
}

fn explain_commit_order(cx: &Counterexample, out: &mut String) {
    use std::fmt::Write as _;
    let mut lines = Vec::new();
    for span in &cx.spans {
        if let (Some(commit), Some(m)) = (span.commit, span.method.as_ref()) {
            lines.push((commit, format!("  #{commit} {} {} commits", span.tid, m)));
        }
    }
    if !lines.is_empty() {
        lines.sort();
        let _ = writeln!(out, "commit order (the witness interleaving):");
        for (_, l) in lines {
            let _ = writeln!(out, "{l}");
        }
    }
}

fn explain_excerpt(cx: &Counterexample, events: &[Event], out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "log neighborhood of the violation:");
    let _ = write!(out, "{}", diagnose::excerpt(events, cx.violation.log_position(), 6));
}

fn explain_reasons(cx: &Counterexample, out: &mut String) {
    use std::fmt::Write as _;
    for reason in &cx.reasons {
        let _ = writeln!(out, "why [{}]: {}", reason.kind, reason.detail);
    }
}

impl Explainer for BasicExplainer {
    fn name(&self) -> &'static str {
        "basic"
    }

    fn explain(&self, cx: &Counterexample, events: &[Event]) -> String {
        let mut out = String::new();
        explain_header(cx, &mut out);
        explain_commit_order(cx, &mut out);
        explain_reasons(cx, &mut out);
        explain_excerpt(cx, events, &mut out);
        out
    }
}

/// View-refinement families: adds the first divergent spec state
/// (`view_I` vs `view_S` at the mismatching key) to the basic page.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewExplainer;

impl Explainer for ViewExplainer {
    fn name(&self) -> &'static str {
        "view"
    }

    fn explain(&self, cx: &Counterexample, events: &[Event]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        explain_header(cx, &mut out);
        if let Violation::ViewMismatch { key, view_i, view_s, commit_index, .. } = &cx.violation {
            let _ = writeln!(
                out,
                "first divergent spec state: after commit #{commit_index}, key {key} is {} in \
                 the implementation view but {} in the specification view",
                render_opt(view_i),
                render_opt(view_s),
            );
        }
        explain_commit_order(cx, &mut out);
        explain_reasons(cx, &mut out);
        explain_excerpt(cx, events, &mut out);
        out
    }
}

/// Lock-free (lin-mode) family: adds observer-window commentary.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinExplainer;

impl Explainer for LinExplainer {
    fn name(&self) -> &'static str {
        "lin"
    }

    fn explain(&self, cx: &Counterexample, events: &[Event]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        explain_header(cx, &mut out);
        if let Violation::ObserverUnjustified {
            method, window_start, window_end, ret, ..
        } = &cx.violation
        {
            let _ = writeln!(
                out,
                "observer window: {method} returned {ret}, but no specification state between \
                 commit #{window_start} (at its call) and commit #{window_end} (at its return) \
                 justifies that observation — the commit that produced the observed state was \
                 logged outside the window",
            );
        }
        explain_commit_order(cx, &mut out);
        explain_reasons(cx, &mut out);
        explain_excerpt(cx, events, &mut out);
        out
    }
}

fn render_opt(v: &Option<crate::Value>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "absent".to_string(),
    }
}

/// Builds structured reasons from the violation variant.
fn reasons_for(violation: &Violation) -> Vec<Reason> {
    match violation {
        Violation::SpecRejectedCommit { method, args, ret, reason, commit_index, .. } => {
            vec![Reason {
                kind: "spec-rejected",
                detail: format!(
                    "commit #{commit_index}: the specification has no transition for \
                     {method}{} -> {ret}: {reason}",
                    fmt_args(args),
                ),
            }]
        }
        Violation::ObserverUnjustified { method, args, ret, window_start, window_end, .. } => {
            vec![Reason {
                kind: "unjustified-observation",
                detail: format!(
                    "{method}{} -> {ret} holds at no specification state in the commit window \
                     [{window_start}, {window_end}]",
                    fmt_args(args),
                ),
            }]
        }
        Violation::ViewMismatch { key, view_i, view_s, commit_index, .. } => {
            vec![Reason {
                kind: "view-divergence",
                detail: format!(
                    "at commit #{commit_index}, view_I[{key}] = {} but view_S[{key}] = {}",
                    render_opt(view_i),
                    render_opt(view_s),
                ),
            }]
        }
        Violation::InvariantViolation { name, message, commit_index, .. } => {
            vec![Reason {
                kind: "invariant",
                detail: format!("at commit #{commit_index}, invariant {name} failed: {message}"),
            }]
        }
        Violation::CommitAnnotation { method, detail, .. } => {
            vec![Reason {
                kind: "commit-annotation",
                detail: format!("{method}: {detail}"),
            }]
        }
        Violation::MalformedLog { detail, .. } => {
            vec![Reason { kind: "malformed-log", detail: detail.clone() }]
        }
        Violation::UnsupportedMode { detail, .. } => {
            vec![Reason { kind: "unsupported-mode", detail: detail.clone() }]
        }
    }
}

fn fmt_args(args: &[crate::Value]) -> String {
    let mut s = String::from("(");
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&a.to_string());
    }
    s.push(')');
    s
}

/// Derives per-execution source spans over a (minimized) trace.
fn spans_of(events: &[Event]) -> Vec<SourceSpan> {
    let mut spans = Vec::new();
    for chunk in commit_atomic_chunks(events) {
        let mut span = SourceSpan {
            tid: chunk.events[0].1.tid(),
            object: chunk.events[0].1.object(),
            method: None,
            call: None,
            commit: None,
            ret: None,
        };
        for (i, e) in &chunk.events {
            match e {
                Event::Call { method, .. } => {
                    span.method = Some(*method);
                    span.call = Some(*i);
                }
                Event::Commit { .. } => span.commit = Some(*i),
                Event::Return { method, .. } => {
                    if span.method.is_none() {
                        span.method = Some(*method);
                    }
                    span.ret = Some(*i);
                }
                _ => {}
            }
        }
        spans.push(span);
    }
    spans
}

/// Tags the minimized trace: the violation event, the culprit
/// execution's events, commits, and observer executions.
fn tag_events(events: &[Event], violation: &Violation, spans: &[SourceSpan]) -> Vec<CounterexampleEvent> {
    let pos = usize::try_from(violation.log_position()).ok();
    let culprit_span = pos.and_then(|p| {
        spans.iter().find(|s| {
            let lo = s.call.or(s.commit).or(s.ret).unwrap_or(usize::MAX);
            let hi = s.ret.or(s.commit).or(s.call).unwrap_or(0);
            lo <= p && p <= hi
        })
    });
    let observer_tids: BTreeSet<ThreadId> = spans
        .iter()
        .filter(|s| s.commit.is_none() && s.call.is_some() && s.ret.is_some())
        .map(|s| s.tid)
        .collect();
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut tags = Vec::new();
            if pos == Some(i) {
                tags.push(EventTag::Violation);
            }
            if let Some(span) = culprit_span {
                if span.tid == e.tid()
                    && span.call.is_none_or(|c| i >= c)
                    && span.ret.is_none_or(|r| i <= r)
                {
                    tags.push(EventTag::Culprit);
                }
            }
            if matches!(e, Event::Commit { .. }) {
                tags.push(EventTag::Commit);
            }
            if observer_tids.contains(&e.tid()) {
                tags.push(EventTag::Observer);
            }
            CounterexampleEvent { index: i, event: e.clone(), tags }
        })
        .collect()
}

/// The assembled pipeline: minimize, structure, explain.
pub struct WitnessPipeline {
    /// The minimizer to run.
    pub minimizer: Box<dyn Minimizer>,
    /// The explainer to render with.
    pub explainer: Box<dyn Explainer>,
}

impl fmt::Debug for WitnessPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WitnessPipeline")
            .field("minimizer", &self.minimizer.name())
            .field("explainer", &self.explainer.name())
            .finish()
    }
}

impl Default for WitnessPipeline {
    fn default() -> WitnessPipeline {
        WitnessPipeline {
            minimizer: Box::new(IdentityMinimizer),
            explainer: Box::new(BasicExplainer),
        }
    }
}

impl WitnessPipeline {
    /// Runs the pipeline: re-establishes the violation key against the
    /// full log (one oracle run — this also converts sharded
    /// per-object reports into merged-log coordinates), minimizes, and
    /// renders.
    ///
    /// # Errors
    ///
    /// [`WitnessError::Passed`] when `report` has no violation,
    /// [`WitnessError::Unreliable`] when the degradation ledger flags
    /// the violation, and [`WitnessError::CategoryDrift`] when
    /// re-checking the full log does not reproduce the report's
    /// category.
    pub fn run(
        &self,
        scenario: &str,
        mode: &str,
        events: &[Event],
        report: &Report,
        oracle: &dyn Oracle,
    ) -> Result<Counterexample, WitnessError> {
        let claimed = report.violation.as_ref().ok_or(WitnessError::Passed)?;
        if report.degradation.unreliable_violations > 0 {
            return Err(WitnessError::Unreliable);
        }
        // Ground the key in merged-log coordinates with one oracle run
        // over the full input; pool reports carry per-object positions
        // that do not index this log.
        let baseline = oracle.check(events);
        let key = ViolationKey::of(&baseline, events).ok_or_else(|| {
            WitnessError::CategoryDrift(format!(
                "full-log re-check passed, but the report claims {}",
                claimed.category()
            ))
        })?;
        if key.category != claimed.category() {
            return Err(WitnessError::CategoryDrift(format!(
                "full-log re-check raised {}, but the report claims {}",
                key.category,
                claimed.category()
            )));
        }

        let outcome = self.minimizer.minimize(events, &key, &baseline, oracle);
        debug_assert!(
            key.matches(&outcome.report, &outcome.events),
            "minimizer contract: the outcome must preserve the violation key"
        );
        let violation = outcome
            .report
            .violation
            .clone()
            .expect("minimizer outcome must carry a violation");
        let spans = spans_of(&outcome.events);
        let tagged = tag_events(&outcome.events, &violation, &spans);
        let mut cx = Counterexample {
            scenario: scenario.to_string(),
            mode: mode.to_string(),
            category: key.category,
            object: key.object,
            violation,
            events: tagged,
            spans,
            reasons: Vec::new(),
            original_events: events.len(),
            // +1 for the grounding run above.
            oracle_runs: outcome.oracle_runs + 1,
            minimizer: self.minimizer.name(),
            explanation: String::new(),
        };
        cx.reasons = reasons_for(&cx.violation);
        cx.reasons.push(Reason {
            kind: "minimization",
            detail: format!(
                "{} events in -> {} events out, {} oracle runs ({})",
                cx.original_events,
                cx.events.len(),
                cx.oracle_runs,
                cx.minimizer,
            ),
        });
        cx.explanation = self.explainer.explain(&cx, &outcome.events);
        Ok(cx)
    }
}

impl Counterexample {
    /// The minimized trace as plain events.
    pub fn minimized_events(&self) -> Vec<Event> {
        self.events.iter().map(|ce| ce.event.clone()).collect()
    }

    /// The machine-readable artifact body.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(out, "  \"mode\": {},", json_str(&self.mode));
        let _ = writeln!(out, "  \"category\": {},", json_str(self.category));
        let _ = writeln!(
            out,
            "  \"object\": {},",
            self.object.map_or("null".to_string(), |o| o.0.to_string())
        );
        let _ = writeln!(out, "  \"violation\": {},", json_str(&self.violation.to_string()));
        let _ = writeln!(out, "  \"original_events\": {},", self.original_events);
        let _ = writeln!(out, "  \"minimized_events\": {},", self.events.len());
        let _ = writeln!(out, "  \"oracle_runs\": {},", self.oracle_runs);
        let _ = writeln!(out, "  \"minimizer\": {},", json_str(self.minimizer));
        out.push_str("  \"reasons\": [\n");
        for (i, r) in self.reasons.iter().enumerate() {
            let sep = if i + 1 == self.reasons.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"kind\": {}, \"detail\": {}}}{sep}",
                json_str(r.kind),
                json_str(&r.detail)
            );
        }
        out.push_str("  ],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"tid\": {}, \"object\": {}, \"method\": {}, \"call\": {}, \
                 \"commit\": {}, \"return\": {}}}{sep}",
                s.tid.0,
                s.object.0,
                s.method.as_ref().map_or("null".to_string(), |m| json_str(m.name())),
                json_opt(s.call),
                json_opt(s.commit),
                json_opt(s.ret),
            );
        }
        out.push_str("  ],\n  \"events\": [\n");
        for (i, ce) in self.events.iter().enumerate() {
            let sep = if i + 1 == self.events.len() { "" } else { "," };
            let tags: Vec<String> =
                ce.tags.iter().map(|t| json_str(t.label())).collect();
            let _ = writeln!(
                out,
                "    {{\"index\": {}, \"event\": {}, \"tags\": [{}]}}{sep}",
                ce.index,
                json_str(&ce.event.to_string()),
                tags.join(", "),
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"explanation\": {}", json_str(&self.explanation));
        out.push_str("}\n");
        out
    }

    /// Writes `WITNESS_<scenario>.json` into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating `dir` or writing the
    /// file.
    pub fn write_json(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let stem: String = self
            .scenario
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("WITNESS_{stem}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn json_opt(v: Option<usize>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::spec::{MethodKind, Spec, SpecEffect, SpecError};
    use crate::view::View;
    use crate::{Value, VarId};

    /// A register: `Put(x)` sets, `Get` observes.
    #[derive(Clone, Default)]
    struct RegSpec(Option<i64>);

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
                    self.0 = args[0].as_int();
                    Ok(SpecEffect::touching([0]))
                }
                other => Err(SpecError::new(format!("unknown mutator {other}"))),
            }
        }

        fn accepts_observation(&self, _m: &MethodId, _args: &[Value], ret: &Value) -> bool {
            ret.as_int() == self.0
        }

        fn view(&self) -> View {
            self.0
                .map(|v| (Value::from(0i64), Value::from(v)))
                .into_iter()
                .collect()
        }
    }

    const OBJ: ObjectId = ObjectId::DEFAULT;

    fn exec(tid: u32, method: &str, args: &[i64], ret: Value, commit: bool) -> Vec<Event> {
        let tid = ThreadId(tid);
        let mut out = vec![Event::Call {
            tid,
            object: OBJ,
            method: method.into(),
            args: args.iter().map(|&a| Value::from(a)).collect::<Vec<_>>().into(),
        }];
        if commit {
            out.push(Event::Commit { tid, object: OBJ });
        }
        out.push(Event::Return { tid, object: OBJ, method: method.into(), ret });
        out
    }

    /// Many irrelevant Puts, then a Get that observes a value never
    /// put — only the final Put+Get pair is needed to reproduce.
    fn noisy_failing_log() -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..40 {
            events.extend(exec(0, "Put", &[i], Value::Unit, true));
        }
        events.extend(exec(1, "Put", &[100], Value::Unit, true));
        events.extend(exec(2, "Get", &[], Value::from(777i64), false));
        events
    }

    fn oracle() -> impl Fn(&[Event]) -> Report {
        |evs: &[Event]| Checker::io(RegSpec::default()).check_events(evs.to_vec())
    }

    #[test]
    fn ddmin_shrinks_to_the_observer_and_preserves_the_key() {
        let events = noisy_failing_log();
        let oracle = oracle();
        let baseline = oracle(&events);
        assert!(!baseline.passed());
        let key = ViolationKey::of(&baseline, &events).unwrap();
        let outcome = DdminMinimizer::default().minimize(&events, &key, &baseline, &oracle);
        assert!(key.matches(&outcome.report, &outcome.events));
        // The Get alone reproduces (an empty window rejects 777), so
        // the witness is one chunk: call + return.
        assert!(
            outcome.events.len() <= 5,
            "expected a tiny witness, got {} events",
            outcome.events.len()
        );
        assert!(outcome.oracle_runs > 0);
    }

    #[test]
    fn pipeline_produces_a_page_and_an_artifact() {
        let events = noisy_failing_log();
        let oracle = oracle();
        let report = oracle(&events);
        let pipeline = WitnessPipeline {
            minimizer: Box::new(DdminMinimizer::default()),
            explainer: Box::new(BasicExplainer),
        };
        let cx = pipeline.run("Reg-Test", "io", &events, &report, &oracle).unwrap();
        assert_eq!(cx.category, "observer-unjustified");
        assert!(cx.events.len() < events.len());
        assert!(cx.explanation.contains("witness: Reg-Test"));
        assert!(cx.explanation.contains("oracle runs"));
        assert!(cx.events.iter().any(|e| e.tags.contains(&EventTag::Violation)));
        let json = cx.to_json();
        assert!(json.contains("\"category\": \"observer-unjustified\""));
        assert!(json.contains("\"minimizer\": \"ddmin\""));
    }

    #[test]
    fn passing_reports_and_unreliable_violations_produce_no_witness() {
        let events = exec(0, "Put", &[1], Value::Unit, true);
        let oracle = oracle();
        let passing = oracle(&events);
        let pipeline = WitnessPipeline::default();
        assert_eq!(
            pipeline.run("Reg-Test", "io", &events, &passing, &oracle).unwrap_err(),
            WitnessError::Passed
        );

        let failing_events = noisy_failing_log();
        let mut unreliable = oracle(&failing_events);
        assert!(!unreliable.passed());
        unreliable.degradation.unreliable_violations = 1;
        assert_eq!(
            pipeline
                .run("Reg-Test", "io", &failing_events, &unreliable, &oracle)
                .unwrap_err(),
            WitnessError::Unreliable
        );
    }

    #[test]
    fn identity_minimizer_is_the_default_and_keeps_everything() {
        let events = noisy_failing_log();
        let oracle = oracle();
        let baseline = oracle(&events);
        let key = ViolationKey::of(&baseline, &events).unwrap();
        let outcome = IdentityMinimizer.minimize(&events, &key, &baseline, &oracle);
        assert_eq!(outcome.events.len(), events.len());
        assert_eq!(outcome.oracle_runs, 0);
    }

    #[test]
    fn chunks_cover_the_log_exactly_and_stay_commit_atomic() {
        let mut events = noisy_failing_log();
        // A stray write outside any execution becomes a singleton.
        events.push(Event::Write {
            tid: ThreadId(9),
            object: OBJ,
            var: VarId::new("slots", 0),
            value: Value::Unit,
        });
        let chunks = commit_atomic_chunks(&events);
        let total: usize = chunks.iter().map(|c| c.events.len()).sum();
        assert_eq!(total, events.len());
        let keep = vec![true; chunks.len()];
        assert_eq!(assemble(&chunks, &keep), events);
        for chunk in &chunks {
            let calls = chunk.events.iter().filter(|(_, e)| matches!(e, Event::Call { .. })).count();
            let rets = chunk.events.iter().filter(|(_, e)| matches!(e, Event::Return { .. })).count();
            assert!(calls <= 1 && rets <= 1, "chunk mixes executions");
        }
    }
}
