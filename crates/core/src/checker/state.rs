//! Checkpoint serialization of a running [`Checker`].
//!
//! The continuous verification service (`vyrd_core::segment`) needs to
//! suspend a checker at an arbitrary event boundary, persist it, and
//! resume it in another process. [`Checker::save_state`] captures *all*
//! of the engine's run state — spec, replayer shadow state, in-flight
//! executions (each observer with its read-ahead return and how far its
//! window search has got), fed-but-unprocessed events, block buffers —
//! as a single self-describing [`Value`], which the checkpoint
//! file format frames and checksums. [`Checker::restore_state`] is the
//! inverse, applied to a freshly constructed checker of the same shape
//! (same spec constructor parameters, same invariants, same options).
//!
//! The encoding rides on the log codec's [`Value`] wire format
//! ([`codec::write_value`]), so a checkpoint needs no serialization
//! machinery the log does not already have.

use std::fmt;

use crate::codec;
use crate::event::{ArgList, Event, MethodId, ThreadId, VarId};
use crate::replay::{BlockBuffer, Replayer};
use crate::spec::{MethodKind, Spec};
use crate::value::Value;
use crate::violation::{CheckStats, Violation};

use super::{Checker, PendingExec};

/// Version tag of the checkpoint state encoding; bump on layout changes.
const STATE_VERSION: i64 = 3;

/// Why a checker state could not be saved or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateError {
    message: String,
}

impl StateError {
    fn new(message: impl Into<String>) -> StateError {
        StateError {
            message: message.into(),
        }
    }

    /// The failure reason.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for StateError {}

fn err(message: impl Into<String>) -> StateError {
    StateError::new(message)
}

// ---------------------------------------------------------------------
// Scalar helpers: u64 counters travel as Value::Int (i64). Checker
// counters are event/commit counts, far below i64::MAX; overflow is
// reported, not truncated.
// ---------------------------------------------------------------------

fn u64_value(x: u64) -> Result<Value, StateError> {
    i64::try_from(x)
        .map(Value::from)
        .map_err(|_| err(format!("counter {x} does not fit a checkpoint integer")))
}

fn value_u64(v: &Value) -> Result<u64, StateError> {
    v.as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| err(format!("expected a non-negative integer, got {v}")))
}

fn value_u32(v: &Value) -> Result<u32, StateError> {
    v.as_int()
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| err(format!("expected a u32, got {v}")))
}

fn value_str(v: &Value) -> Result<&str, StateError> {
    v.as_str().ok_or_else(|| err(format!("expected a string, got {v}")))
}

fn value_bool(v: &Value) -> Result<bool, StateError> {
    v.as_bool().ok_or_else(|| err(format!("expected a bool, got {v}")))
}

fn value_list(v: &Value) -> Result<&[Value], StateError> {
    v.as_list().ok_or_else(|| err(format!("expected a list, got {v}")))
}

/// `Option<T>` travels as an empty list (`None`) or a singleton (`Some`),
/// so a `Some(Value::Unit)` stays distinguishable from `None`.
fn option_value(v: Option<Value>) -> Value {
    match v {
        Some(v) => Value::List(vec![v]),
        None => Value::List(Vec::new()),
    }
}

fn value_option(v: &Value) -> Result<Option<&Value>, StateError> {
    let items = value_list(v)?;
    match items {
        [] => Ok(None),
        [x] => Ok(Some(x)),
        _ => Err(err("malformed optional: more than one element")),
    }
}

// ---------------------------------------------------------------------
// Events: reuse the log codec's framing-free record encoding.
// ---------------------------------------------------------------------

fn event_value(e: &Event) -> Result<Value, StateError> {
    let mut buf = Vec::with_capacity(e.size_estimate());
    codec::write_event(&mut buf, e).map_err(|e| err(format!("encoding event: {e}")))?;
    Ok(Value::Bytes(buf))
}

fn value_event(v: &Value) -> Result<Event, StateError> {
    let bytes = v
        .as_bytes()
        .ok_or_else(|| err("expected an encoded event (bytes)"))?;
    codec::decode_event(bytes).map_err(|e| err(format!("decoding event: {e}")))
}

// ---------------------------------------------------------------------
// Violations: full round trip, so a continue-after-violation checker can
// checkpoint without losing its verdict.
// ---------------------------------------------------------------------

fn violation_value(v: &Violation) -> Result<Value, StateError> {
    let tagged = |tag: i64, mut rest: Vec<Value>| {
        let mut items = vec![Value::from(tag)];
        items.append(&mut rest);
        Value::List(items)
    };
    Ok(match v {
        Violation::SpecRejectedCommit {
            tid,
            method,
            args,
            ret,
            reason,
            commit_index,
            log_position,
        } => tagged(
            0,
            vec![
                Value::from(i64::from(tid.0)),
                Value::from(method.name()),
                Value::List(args.clone()),
                ret.clone(),
                Value::from(reason.as_str()),
                u64_value(*commit_index)?,
                u64_value(*log_position)?,
            ],
        ),
        Violation::ObserverUnjustified {
            tid,
            method,
            args,
            ret,
            window_start,
            window_end,
            log_position,
        } => tagged(
            1,
            vec![
                Value::from(i64::from(tid.0)),
                Value::from(method.name()),
                Value::List(args.clone()),
                ret.clone(),
                u64_value(*window_start)?,
                u64_value(*window_end)?,
                u64_value(*log_position)?,
            ],
        ),
        Violation::ViewMismatch {
            tid,
            method,
            key,
            view_i,
            view_s,
            commit_index,
            log_position,
        } => tagged(
            2,
            vec![
                Value::from(i64::from(tid.0)),
                Value::from(method.name()),
                key.clone(),
                option_value(view_i.clone()),
                option_value(view_s.clone()),
                u64_value(*commit_index)?,
                u64_value(*log_position)?,
            ],
        ),
        Violation::InvariantViolation {
            name,
            message,
            commit_index,
            log_position,
        } => tagged(
            3,
            vec![
                Value::from(name.as_str()),
                Value::from(message.as_str()),
                u64_value(*commit_index)?,
                u64_value(*log_position)?,
            ],
        ),
        Violation::CommitAnnotation {
            tid,
            method,
            detail,
            log_position,
        } => tagged(
            4,
            vec![
                Value::from(i64::from(tid.0)),
                Value::from(method.name()),
                Value::from(detail.as_str()),
                u64_value(*log_position)?,
            ],
        ),
        Violation::MalformedLog {
            detail,
            log_position,
        } => tagged(
            5,
            vec![Value::from(detail.as_str()), u64_value(*log_position)?],
        ),
        Violation::UnsupportedMode {
            detail,
            log_position,
        } => tagged(
            6,
            vec![Value::from(detail.as_str()), u64_value(*log_position)?],
        ),
    })
}

fn value_violation(v: &Value) -> Result<Violation, StateError> {
    let items = value_list(v)?;
    let (tag, rest) = items
        .split_first()
        .ok_or_else(|| err("empty violation encoding"))?;
    let tag = tag.as_int().ok_or_else(|| err("violation tag not an int"))?;
    let field = |i: usize| -> Result<&Value, StateError> {
        rest.get(i)
            .ok_or_else(|| err(format!("violation tag {tag}: missing field {i}")))
    };
    let tid = |i: usize| -> Result<ThreadId, StateError> { Ok(ThreadId(value_u32(field(i)?)?)) };
    let method =
        |i: usize| -> Result<MethodId, StateError> { Ok(MethodId::from(value_str(field(i)?)?)) };
    let string = |i: usize| -> Result<String, StateError> { Ok(value_str(field(i)?)?.to_owned()) };
    let num = |i: usize| -> Result<u64, StateError> { value_u64(field(i)?) };
    let args = |i: usize| -> Result<Vec<Value>, StateError> { Ok(value_list(field(i)?)?.to_vec()) };
    Ok(match tag {
        0 => Violation::SpecRejectedCommit {
            tid: tid(0)?,
            method: method(1)?,
            args: args(2)?,
            ret: field(3)?.clone(),
            reason: string(4)?,
            commit_index: num(5)?,
            log_position: num(6)?,
        },
        1 => Violation::ObserverUnjustified {
            tid: tid(0)?,
            method: method(1)?,
            args: args(2)?,
            ret: field(3)?.clone(),
            window_start: num(4)?,
            window_end: num(5)?,
            log_position: num(6)?,
        },
        2 => Violation::ViewMismatch {
            tid: tid(0)?,
            method: method(1)?,
            key: field(2)?.clone(),
            view_i: value_option(field(3)?)?.cloned(),
            view_s: value_option(field(4)?)?.cloned(),
            commit_index: num(5)?,
            log_position: num(6)?,
        },
        3 => Violation::InvariantViolation {
            name: string(0)?,
            message: string(1)?,
            commit_index: num(2)?,
            log_position: num(3)?,
        },
        4 => Violation::CommitAnnotation {
            tid: tid(0)?,
            method: method(1)?,
            detail: string(2)?,
            log_position: num(3)?,
        },
        5 => Violation::MalformedLog {
            detail: string(0)?,
            log_position: num(1)?,
        },
        6 => Violation::UnsupportedMode {
            detail: string(0)?,
            log_position: num(1)?,
        },
        other => return Err(err(format!("unknown violation tag {other}"))),
    })
}

fn stats_value(s: &CheckStats) -> Result<Value, StateError> {
    Ok(Value::List(vec![
        u64_value(s.events)?,
        u64_value(s.commits_applied)?,
        u64_value(s.methods_completed)?,
        u64_value(s.observers_checked)?,
        u64_value(s.view_comparisons)?,
        u64_value(s.view_keys_compared)?,
        u64_value(s.writes_replayed)?,
        u64_value(s.events_discarded_after_close)?,
        u64_value(s.lin_windows_searched)?,
        u64_value(s.lin_witness_backtracks)?,
        u64_value(s.batches)?,
        u64_value(s.batch_events)?,
    ]))
}

fn value_stats(v: &Value) -> Result<CheckStats, StateError> {
    let items = value_list(v)?;
    if items.len() != 12 {
        return Err(err(format!(
            "expected 12 stats counters, got {}",
            items.len()
        )));
    }
    Ok(CheckStats {
        events: value_u64(&items[0])?,
        commits_applied: value_u64(&items[1])?,
        methods_completed: value_u64(&items[2])?,
        observers_checked: value_u64(&items[3])?,
        view_comparisons: value_u64(&items[4])?,
        view_keys_compared: value_u64(&items[5])?,
        writes_replayed: value_u64(&items[6])?,
        events_discarded_after_close: value_u64(&items[7])?,
        lin_windows_searched: value_u64(&items[8])?,
        lin_witness_backtracks: value_u64(&items[9])?,
        batches: value_u64(&items[10])?,
        batch_events: value_u64(&items[11])?,
    })
}

fn pending_value(tid: ThreadId, p: &PendingExec) -> Result<Value, StateError> {
    Ok(Value::List(vec![
        Value::from(i64::from(tid.0)),
        Value::from(p.method.name()),
        Value::List(p.args.to_vec()),
        Value::from(i64::from(p.kind == MethodKind::Observer)),
        Value::Bool(p.committed),
        u64_value(p.window_start)?,
        option_value(p.explicit_commit.map(u64_value).transpose()?),
        option_value(p.ret.clone()),
        Value::Bool(p.justified),
        u64_value(p.rejected)?,
    ]))
}

fn value_pending(v: &Value) -> Result<(ThreadId, PendingExec), StateError> {
    let items = value_list(v)?;
    if items.len() != 10 {
        return Err(err("malformed pending-execution entry"));
    }
    let kind = match items[3].as_int() {
        Some(0) => MethodKind::Mutator,
        Some(1) => MethodKind::Observer,
        _ => return Err(err("malformed method kind")),
    };
    Ok((
        ThreadId(value_u32(&items[0])?),
        PendingExec {
            method: MethodId::from(value_str(&items[1])?),
            args: ArgList::from_slice(value_list(&items[2])?),
            kind,
            committed: value_bool(&items[4])?,
            window_start: value_u64(&items[5])?,
            explicit_commit: value_option(&items[6])?.map(value_u64).transpose()?,
            ret: value_option(&items[7])?.cloned(),
            justified: value_bool(&items[8])?,
            rejected: value_u64(&items[9])?,
        },
    ))
}

fn var_value(var: &VarId) -> Value {
    Value::List(vec![Value::from(var.space()), Value::from(var.index())])
}

fn value_var(v: &Value) -> Result<VarId, StateError> {
    let items = value_list(v)?;
    match items {
        [space, index] => Ok(VarId::new(
            value_str(space)?,
            index.as_int().ok_or_else(|| err("var index not an int"))?,
        )),
        _ => Err(err("malformed var id")),
    }
}

fn blocks_value(blocks: &BlockBuffer) -> Result<Value, StateError> {
    let (buffered, open) = blocks.to_parts();
    let buffered = buffered
        .into_iter()
        .map(|(tid, writes)| {
            Value::List(vec![
                Value::from(i64::from(tid.0)),
                Value::List(
                    writes
                        .into_iter()
                        .map(|(var, value)| Value::List(vec![var_value(&var), value]))
                        .collect(),
                ),
            ])
        })
        .collect();
    let open = open
        .into_iter()
        .map(|(tid, o)| Value::List(vec![Value::from(i64::from(tid.0)), Value::Bool(o)]))
        .collect();
    Ok(Value::List(vec![Value::List(buffered), Value::List(open)]))
}

fn value_blocks(v: &Value) -> Result<BlockBuffer, StateError> {
    let items = value_list(v)?;
    let [buffered_v, open_v] = items else {
        return Err(err("malformed block buffer encoding"));
    };
    let mut buffered = Vec::new();
    for entry in value_list(buffered_v)? {
        let pair = value_list(entry)?;
        let [tid, writes_v] = pair else {
            return Err(err("malformed buffered-writes entry"));
        };
        let mut writes = Vec::new();
        for w in value_list(writes_v)? {
            let parts = value_list(w)?;
            let [var, value] = parts else {
                return Err(err("malformed buffered write"));
            };
            writes.push((value_var(var)?, value.clone()));
        }
        buffered.push((ThreadId(value_u32(tid)?), writes));
    }
    let mut open = Vec::new();
    for entry in value_list(open_v)? {
        let pair = value_list(entry)?;
        let [tid, flag] = pair else {
            return Err(err("malformed open-block entry"));
        };
        open.push((ThreadId(value_u32(tid)?), value_bool(flag)?));
    }
    Ok(BlockBuffer::from_parts(buffered, open))
}

impl<S: Spec, R: Replayer> Checker<S, R> {
    /// Serializes the checker's complete run state for checkpointing.
    ///
    /// The spec (and replayer, for view checkers) must support
    /// [`Spec::save_state`]; witness recording must be off (the witness
    /// grows with the log, which defeats the bounded-memory point of
    /// checkpointing).
    ///
    /// # Errors
    ///
    /// Fails when the spec or replayer does not support checkpointing,
    /// witness recording is enabled, or a counter exceeds the encoding
    /// range.
    pub fn save_state(&self) -> Result<Value, StateError> {
        if self.options.record_witness {
            return Err(err("cannot checkpoint a checker recording a witness"));
        }
        let spec_state = self
            .spec
            .save_state()
            .ok_or_else(|| err("spec does not support checkpointing (save_state is None)"))?;
        let replayer_state = match &self.replayer {
            Some(r) => option_value(Some(r.save_state().ok_or_else(|| {
                err("replayer does not support checkpointing (save_state is None)")
            })?)),
            None => option_value(None),
        };
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_by_key(|(tid, _)| tid.0);
        Ok(Value::List(vec![
            Value::from(STATE_VERSION),
            spec_state,
            replayer_state,
            stats_value(&self.stats)?,
            match &self.violation {
                Some(v) => option_value(Some(violation_value(v)?)),
                None => option_value(None),
            },
            Value::List(self.input.iter().map(event_value).collect::<Result<_, _>>()?),
            Value::List(
                pending
                    .into_iter()
                    .map(|(tid, p)| pending_value(*tid, p))
                    .collect::<Result<_, _>>()?,
            ),
            u64_value(self.commits_applied)?,
            blocks_value(&self.blocks)?,
            u64_value(self.position)?,
            u64_value(self.commits_since_quiescent_check)?,
        ]))
    }

    /// Restores run state saved by [`Checker::save_state`] into this
    /// checker, which must be freshly constructed with the same shape
    /// (spec constructor parameters, invariants, options). Derived state
    /// (the searching count, the per-thread buffered returns) is
    /// recomputed.
    ///
    /// # Errors
    ///
    /// Fails when the encoding is malformed, versioned differently, or
    /// the spec/replayer rejects its serialized state.
    pub fn restore_state(&mut self, state: &Value) -> Result<(), StateError> {
        let items = value_list(state)?;
        // The version first: a retired layout has its own field count.
        if items.first().and_then(Value::as_int) != Some(STATE_VERSION) {
            return Err(err(format!(
                "unsupported checkpoint state version {} (expected {STATE_VERSION})",
                items.first().unwrap_or(&Value::Unit)
            )));
        }
        if items.len() != 11 {
            return Err(err(format!(
                "malformed checkpoint state: expected 11 fields, got {}",
                items.len()
            )));
        }
        self.spec
            .restore_state(&items[1])
            .map_err(|e| err(format!("restoring spec: {e}")))?;
        match (value_option(&items[2])?, &mut self.replayer) {
            (Some(rs), Some(replayer)) => replayer
                .restore_state(rs)
                .map_err(|e| err(format!("restoring replayer: {e}")))?,
            (None, None) => {}
            (Some(_), None) => {
                return Err(err("checkpoint has replayer state but checker is I/O-mode"))
            }
            (None, Some(_)) => {
                return Err(err("checkpoint lacks replayer state but checker is view-mode"))
            }
        }
        self.stats = value_stats(&items[3])?;
        self.violation = value_option(&items[4])?.map(value_violation).transpose()?;
        let input: Vec<Event> = value_list(&items[5])?
            .iter()
            .map(value_event)
            .collect::<Result<_, _>>()?;
        self.pending = value_list(&items[6])?
            .iter()
            .map(value_pending)
            .collect::<Result<_, _>>()?;
        self.commits_applied = value_u64(&items[7])?;
        self.blocks = value_blocks(&items[8])?;
        self.position = value_u64(&items[9])?;
        self.commits_since_quiescent_check = value_u64(&items[10])?;
        // Derived state, recomputed rather than trusted from the file.
        self.searching = self.pending.values().filter(|p| p.searching()).count();
        self.input.clear();
        self.returns_buffered.clear();
        self.parked_on = None;
        for event in input {
            self.push(event);
        }
        self.witness.clear();
        Ok(())
    }
}
