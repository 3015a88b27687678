//! Executable specifications (§3).
//!
//! A specification is a **method-atomic, deterministic** state transition
//! system: methods execute atomically, and given a method, its arguments,
//! and its return value, the successor state is unique. Determinism in this
//! sense still permits *return-value nondeterminism* — e.g. the multiset
//! `Insert` (Fig. 1) may return `success` or `failure` at any state, but
//! once the return value is fixed the next state is fixed.
//!
//! The checker drives the specification with the **witness interleaving**:
//! method executions ordered by their commit actions, each applied together
//! with its observed return value (§4).

use std::fmt;

use crate::event::MethodId;
use crate::value::Value;
use crate::view::View;

/// Whether a method may modify abstract data-structure state (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// May modify the abstract state. Requires a commit annotation.
    Mutator,
    /// Never modifies the abstract state (e.g. `LookUp`). Not
    /// commit-annotated; checked against every state in its call–return
    /// window (§4.3).
    Observer,
}

/// Why a specification rejected a transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    /// Creates a rejection with a human-readable reason.
    pub fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }

    /// The rejection reason.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// The effect of applying one mutator to the specification, as reported
/// back to the view checker.
///
/// `dirty_keys` lists the view entries the transition may have changed;
/// the incremental comparison of §6.4 only recomputes and compares those.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecEffect {
    /// View keys whose entries may have changed.
    pub dirty_keys: Vec<Value>,
}

impl SpecEffect {
    /// An effect that changed nothing observable.
    pub fn unchanged() -> SpecEffect {
        SpecEffect::default()
    }

    /// An effect that may have changed the given view keys.
    pub fn touching<I>(keys: I) -> SpecEffect
    where
        I: IntoIterator,
        I::Item: Into<Value>,
    {
        SpecEffect {
            dirty_keys: keys.into_iter().map(Into::into).collect(),
        }
    }
}

/// A method-atomic, deterministic executable specification.
///
/// The checker proper never copies a specification: observer windows
/// (§4.3) are judged against the one live state as commits land. `Clone`
/// is required only by [`checker::naive`](crate::checker::naive), the
/// exhaustive reference search, which branches on specification states.
///
/// # Examples
///
/// A two-element set specification:
///
/// ```
/// use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
/// use vyrd_core::view::View;
/// use vyrd_core::{MethodId, Value};
/// use std::collections::BTreeSet;
///
/// #[derive(Clone, Default)]
/// struct SetSpec(BTreeSet<i64>);
///
/// impl Spec for SetSpec {
///     fn kind(&self, method: &MethodId) -> MethodKind {
///         if method.name() == "Contains" { MethodKind::Observer } else { MethodKind::Mutator }
///     }
///     fn apply(&mut self, method: &MethodId, args: &[Value], ret: &Value)
///         -> Result<SpecEffect, SpecError>
///     {
///         let x = args[0].as_int().ok_or_else(|| SpecError::new("bad arg"))?;
///         match method.name() {
///             "Add" => { self.0.insert(x); Ok(SpecEffect::touching([x])) }
///             other => Err(SpecError::new(format!("unknown mutator {other}"))),
///         }
///     }
///     fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
///         ret.as_bool() == args[0].as_int().map(|x| self.0.contains(&x))
///     }
///     fn view(&self) -> View {
///         self.0.iter().map(|&x| (Value::from(x), Value::Bool(true))).collect()
///     }
/// }
/// ```
pub trait Spec: Clone + Send + 'static {
    /// Classifies a public method.
    fn kind(&self, method: &MethodId) -> MethodKind;

    /// Takes the transition for a committing mutator execution with
    /// signature `(method, args, ret)`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when no transition with this signature exists
    /// at the current state — the checker reports this as a refinement
    /// violation.
    fn apply(
        &mut self,
        method: &MethodId,
        args: &[Value],
        ret: &Value,
    ) -> Result<SpecEffect, SpecError>;

    /// Is `ret` a valid return value for observer `method(args)` at the
    /// current state?
    fn accepts_observation(&self, method: &MethodId, args: &[Value], ret: &Value) -> bool;

    /// The canonical abstraction of the current state — `view_S` (§5).
    fn view(&self) -> View;

    /// The view entry for a single key, used by the incremental comparison
    /// (§6.4). Must agree with [`Spec::view`].
    ///
    /// The default implementation materializes the full view; specs with
    /// large state should override it.
    fn view_of(&self, key: &Value) -> Option<Value> {
        self.view().get(key).cloned()
    }

    /// Serializes the complete specification state as a [`Value`] for
    /// checkpointing, or `None` when this spec does not support it (the
    /// default). Specs for fixed ADTs have small, closed state and should
    /// override this pair so a continuous verification run can persist and
    /// resume them (see `vyrd_core::segment`).
    fn save_state(&self) -> Option<Value> {
        None
    }

    /// Restores state previously produced by [`Spec::save_state`],
    /// **fully overwriting** the current state (the receiver is typically
    /// a freshly constructed spec; constructor parameters such as buffer
    /// counts are *not* part of the serialized state and must match).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the encoding is unrecognized or
    /// checkpointing is unsupported (the default).
    fn restore_state(&mut self, _state: &Value) -> Result<(), SpecError> {
        Err(SpecError::new(
            "this specification does not support checkpoint restore",
        ))
    }

    /// Inert: nothing consults it (no window state is retained to digest).
    /// It survives only because the frozen `benchmark/src/probe.rs`
    /// forwards it; ROADMAP item 2(f) removes that forward and then this.
    fn observation_digest(&self) -> Option<Value> {
        None
    }

    /// Inert, like [`Spec::observation_digest`] and for the same reason;
    /// removal is ROADMAP item 2(f).
    fn accepts_observation_digest(
        &self,
        _method: &MethodId,
        _args: &[Value],
        _ret: &Value,
        _digest: &Value,
    ) -> bool {
        false
    }

    /// Inert: the checker consults nothing here. It survives only because
    /// the frozen `benchmark/src/probe.rs` forwards it from its `Spec`
    /// wrapper; ROADMAP item 2(f) removes that forward and then this.
    fn snapshot_stride(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Default)]
    struct Counter(BTreeMap<i64, i64>);

    impl Spec for Counter {
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
            let k = args[0].as_int().unwrap();
            match method.name() {
                "Inc" => {
                    *self.0.entry(k).or_insert(0) += 1;
                    Ok(SpecEffect::touching([k]))
                }
                other => Err(SpecError::new(format!("no such mutator: {other}"))),
            }
        }

        fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
            let k = args[0].as_int().unwrap();
            ret.as_int() == Some(self.0.get(&k).copied().unwrap_or(0))
        }

        fn view(&self) -> View {
            self.0
                .iter()
                .map(|(&k, &v)| (Value::from(k), Value::from(v)))
                .collect()
        }
    }

    #[test]
    fn default_view_of_agrees_with_view() {
        let mut c = Counter::default();
        c.apply(&MethodId::from("Inc"), &[Value::from(3i64)], &Value::Unit)
            .unwrap();
        assert_eq!(c.view_of(&Value::from(3i64)), Some(Value::from(1i64)));
        assert_eq!(c.view_of(&Value::from(4i64)), None);
    }

    #[test]
    fn apply_rejects_unknown_mutators() {
        let mut c = Counter::default();
        let err = c
            .apply(&MethodId::from("Dec"), &[Value::from(3i64)], &Value::Unit)
            .unwrap_err();
        assert!(err.message().contains("Dec"));
        assert!(err.to_string().contains("Dec"));
    }

    #[test]
    fn spec_effect_constructors() {
        assert!(SpecEffect::unchanged().dirty_keys.is_empty());
        let e = SpecEffect::touching([1i64, 2i64]);
        assert_eq!(e.dirty_keys, vec![Value::from(1i64), Value::from(2i64)]);
    }

    #[test]
    fn snapshots_are_independent() {
        let mut a = Counter::default();
        a.apply(&MethodId::from("Inc"), &[Value::from(1i64)], &Value::Unit)
            .unwrap();
        let snapshot = a.clone();
        a.apply(&MethodId::from("Inc"), &[Value::from(1i64)], &Value::Unit)
            .unwrap();
        assert!(snapshot.accepts_observation(
            &MethodId::from("Get"),
            &[Value::from(1i64)],
            &Value::from(1i64)
        ));
        assert!(a.accepts_observation(
            &MethodId::from("Get"),
            &[Value::from(1i64)],
            &Value::from(2i64)
        ));
    }
}
