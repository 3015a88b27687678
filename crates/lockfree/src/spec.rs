//! Sequential stack and queue specifications.
//!
//! Method-atomic reference semantics for the lock-free structures:
//! [`StackSpec`] is a LIFO list, [`QueueSpec`] a FIFO list. Both treat
//! a failure return from a mutator as the capacity-exhausted no-op
//! (the arena is fixed-size, like the paper's array multiset), both
//! checkpoint via `save_state`/`restore_state`. Their only observers
//! (`Peek` / `Front`) read a single element of the state, which is all
//! `accepts_observation` looks at.

use std::collections::VecDeque;

use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd_core::view::View;
use vyrd_core::{MethodId, Value};

/// Method names of the lock-free structures.
pub mod methods {
    /// Stack push (mutator): `Push(x) -> success | failure`.
    pub const PUSH: &str = "Push";
    /// Stack pop (mutator): `Pop() -> x | failure` (failure = empty).
    pub const POP: &str = "Pop";
    /// Stack top observer: `Peek() -> x | failure` (failure = empty).
    pub const PEEK: &str = "Peek";
    /// Queue append (mutator): `Enqueue(x) -> success | failure`.
    pub const ENQUEUE: &str = "Enqueue";
    /// Queue remove (mutator): `Dequeue() -> x | failure` (failure = empty).
    pub const DEQUEUE: &str = "Dequeue";
    /// Queue front observer: `Front() -> x | failure` (failure = empty).
    pub const FRONT: &str = "Front";
}

fn int_arg(args: &[Value]) -> Result<i64, SpecError> {
    args.first()
        .and_then(Value::as_int)
        .ok_or_else(|| SpecError::new("expected one integer argument"))
}

/// Serializes a list of ints; shared by both specs' `save_state`.
fn ints_value<'a>(items: impl Iterator<Item = &'a i64>) -> Option<Value> {
    Some(Value::List(items.map(|&x| Value::from(x)).collect()))
}

/// Parses what [`ints_value`] produced.
fn value_ints(state: &Value) -> Result<Vec<i64>, SpecError> {
    let Value::List(items) = state else {
        return Err(SpecError::new("stack/queue state must be a list"));
    };
    items
        .iter()
        .map(|v| v.as_int().ok_or_else(|| SpecError::new("non-int element")))
        .collect()
}

/// Does `ret` report `element`, or failure when there is none?
fn reports_element(element: Option<&i64>, ret: &Value) -> bool {
    match element {
        Some(&x) => ret.as_int() == Some(x),
        None => ret.is_failure(),
    }
}

/// Positions-to-values view of a sequence (front/bottom at key 0).
fn sequence_view<'a>(items: impl Iterator<Item = &'a i64>) -> View {
    items
        .enumerate()
        .map(|(i, &x)| (Value::from(i as i64), Value::from(x)))
        .collect()
}

/// The atomic LIFO stack specification.
///
/// * `Push(x) -> success` pushes `x`; `-> failure` is the capacity
///   no-op.
/// * `Pop() -> x` requires `x` to be the top and pops it; `-> failure`
///   requires the stack to be empty.
/// * `Peek() -> x | failure` is an observer accepted iff `x` is the
///   top (or the stack is empty).
#[derive(Clone, Debug, Default)]
pub struct StackSpec {
    /// Bottom first; the top is the last element.
    items: Vec<i64>,
}

impl StackSpec {
    /// Creates an empty stack spec.
    pub fn new() -> StackSpec {
        StackSpec::default()
    }

    /// Current number of elements (test introspection).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the stack empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl Spec for StackSpec {
    fn kind(&self, method: &MethodId) -> MethodKind {
        if method.name() == methods::PEEK {
            MethodKind::Observer
        } else {
            MethodKind::Mutator
        }
    }

    fn apply(
        &mut self,
        method: &MethodId,
        args: &[Value],
        ret: &Value,
    ) -> Result<SpecEffect, SpecError> {
        match method.name() {
            methods::PUSH => {
                if ret.is_success() {
                    self.items.push(int_arg(args)?);
                    Ok(SpecEffect::touching([self.items.len() as i64 - 1]))
                } else if ret.is_failure() {
                    // Arena exhausted: a visible capacity no-op.
                    Ok(SpecEffect::unchanged())
                } else {
                    Err(SpecError::new(format!("Push returned {ret}")))
                }
            }
            methods::POP => {
                if ret.is_failure() {
                    if self.items.is_empty() {
                        Ok(SpecEffect::unchanged())
                    } else {
                        Err(SpecError::new(format!(
                            "Pop reported empty but the stack holds {} element(s), top {}",
                            self.items.len(),
                            self.items[self.items.len() - 1],
                        )))
                    }
                } else if let Some(x) = ret.as_int() {
                    match self.items.last() {
                        Some(&top) if top == x => {
                            self.items.pop();
                            Ok(SpecEffect::touching([self.items.len() as i64]))
                        }
                        Some(&top) => Err(SpecError::new(format!(
                            "Pop returned {x} but the top is {top}"
                        ))),
                        None => Err(SpecError::new(format!(
                            "Pop returned {x} from an empty stack"
                        ))),
                    }
                } else {
                    Err(SpecError::new(format!("Pop returned {ret}")))
                }
            }
            other => Err(SpecError::new(format!("unknown stack mutator {other}"))),
        }
    }

    fn accepts_observation(&self, method: &MethodId, _args: &[Value], ret: &Value) -> bool {
        method.name() == methods::PEEK
            && reports_element(self.items.last(), ret)
    }

    fn view(&self) -> View {
        sequence_view(self.items.iter())
    }

    fn save_state(&self) -> Option<Value> {
        ints_value(self.items.iter())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        self.items = value_ints(state)?;
        Ok(())
    }
}

/// The atomic FIFO queue specification.
///
/// * `Enqueue(x) -> success` appends `x`; `-> failure` is the capacity
///   no-op.
/// * `Dequeue() -> x` requires `x` to be the front and removes it;
///   `-> failure` requires the queue to be empty.
/// * `Front() -> x | failure` is an observer accepted iff `x` is the
///   front (or the queue is empty).
#[derive(Clone, Debug, Default)]
pub struct QueueSpec {
    /// Front first.
    items: VecDeque<i64>,
}

impl QueueSpec {
    /// Creates an empty queue spec.
    pub fn new() -> QueueSpec {
        QueueSpec::default()
    }

    /// Current number of elements (test introspection).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl Spec for QueueSpec {
    fn kind(&self, method: &MethodId) -> MethodKind {
        if method.name() == methods::FRONT {
            MethodKind::Observer
        } else {
            MethodKind::Mutator
        }
    }

    fn apply(
        &mut self,
        method: &MethodId,
        args: &[Value],
        ret: &Value,
    ) -> Result<SpecEffect, SpecError> {
        match method.name() {
            methods::ENQUEUE => {
                if ret.is_success() {
                    self.items.push_back(int_arg(args)?);
                    Ok(SpecEffect::touching([self.items.len() as i64 - 1]))
                } else if ret.is_failure() {
                    Ok(SpecEffect::unchanged())
                } else {
                    Err(SpecError::new(format!("Enqueue returned {ret}")))
                }
            }
            methods::DEQUEUE => {
                if ret.is_failure() {
                    if self.items.is_empty() {
                        Ok(SpecEffect::unchanged())
                    } else {
                        Err(SpecError::new(format!(
                            "Dequeue reported empty but the queue holds {} element(s), front {}",
                            self.items.len(),
                            self.items[0],
                        )))
                    }
                } else if let Some(x) = ret.as_int() {
                    match self.items.front() {
                        Some(&front) if front == x => {
                            self.items.pop_front();
                            Ok(SpecEffect::touching([0]))
                        }
                        Some(&front) => Err(SpecError::new(format!(
                            "Dequeue returned {x} but the front is {front}"
                        ))),
                        None => Err(SpecError::new(format!(
                            "Dequeue returned {x} from an empty queue"
                        ))),
                    }
                } else {
                    Err(SpecError::new(format!("Dequeue returned {ret}")))
                }
            }
            other => Err(SpecError::new(format!("unknown queue mutator {other}"))),
        }
    }

    fn accepts_observation(&self, method: &MethodId, _args: &[Value], ret: &Value) -> bool {
        method.name() == methods::FRONT
            && reports_element(self.items.front(), ret)
    }

    fn view(&self) -> View {
        sequence_view(self.items.iter())
    }

    fn save_state(&self) -> Option<Value> {
        ints_value(self.items.iter())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        self.items = value_ints(state)?.into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> MethodId {
        MethodId::from(name)
    }

    #[test]
    fn stack_transitions_and_observations() {
        let mut s = StackSpec::new();
        assert!(s.is_empty());
        assert!(s.apply(&m("Push"), &[1i64.into()], &Value::success()).is_ok());
        assert!(s.apply(&m("Push"), &[2i64.into()], &Value::success()).is_ok());
        assert_eq!(s.len(), 2);
        // Capacity no-op.
        assert!(s.apply(&m("Push"), &[3i64.into()], &Value::failure()).is_ok());
        assert_eq!(s.len(), 2);
        assert!(s.accepts_observation(&m("Peek"), &[], &Value::from(2i64)));
        assert!(!s.accepts_observation(&m("Peek"), &[], &Value::from(1i64)));
        assert!(!s.accepts_observation(&m("Peek"), &[], &Value::failure()));
        // LIFO order enforced.
        assert!(s.apply(&m("Pop"), &[], &Value::from(1i64)).is_err());
        assert!(s.apply(&m("Pop"), &[], &Value::from(2i64)).is_ok());
        assert!(s.apply(&m("Pop"), &[], &Value::failure()).is_err());
        assert!(s.apply(&m("Pop"), &[], &Value::from(1i64)).is_ok());
        assert!(s.apply(&m("Pop"), &[], &Value::failure()).is_ok());
        assert!(s.accepts_observation(&m("Peek"), &[], &Value::failure()));
    }

    #[test]
    fn queue_transitions_and_observations() {
        let mut q = QueueSpec::new();
        assert!(q.apply(&m("Enqueue"), &[1i64.into()], &Value::success()).is_ok());
        assert!(q.apply(&m("Enqueue"), &[2i64.into()], &Value::success()).is_ok());
        assert!(q.apply(&m("Enqueue"), &[9i64.into()], &Value::failure()).is_ok());
        assert_eq!(q.len(), 2);
        assert!(q.accepts_observation(&m("Front"), &[], &Value::from(1i64)));
        assert!(!q.accepts_observation(&m("Front"), &[], &Value::from(2i64)));
        // FIFO order enforced.
        assert!(q.apply(&m("Dequeue"), &[], &Value::from(2i64)).is_err());
        assert!(q.apply(&m("Dequeue"), &[], &Value::failure()).is_err());
        assert!(q.apply(&m("Dequeue"), &[], &Value::from(1i64)).is_ok());
        assert!(q.apply(&m("Dequeue"), &[], &Value::from(2i64)).is_ok());
        assert!(q.apply(&m("Dequeue"), &[], &Value::failure()).is_ok());
        assert!(q.accepts_observation(&m("Front"), &[], &Value::failure()));
    }

    #[test]
    fn save_restore_round_trips() {
        let mut s = StackSpec::new();
        for x in [3, 1, 4, 1, 5] {
            s.apply(&m("Push"), &[x.into()], &Value::success()).unwrap();
        }
        let saved = s.save_state().unwrap();
        let mut restored = StackSpec::new();
        restored.restore_state(&saved).unwrap();
        assert_eq!(restored.save_state(), s.save_state());
        assert!(restored.accepts_observation(&m("Peek"), &[], &Value::from(5i64)));

        let mut q = QueueSpec::new();
        for x in [3, 1, 4] {
            q.apply(&m("Enqueue"), &[x.into()], &Value::success()).unwrap();
        }
        let saved = q.save_state().unwrap();
        let mut restored = QueueSpec::new();
        restored.restore_state(&saved).unwrap();
        assert_eq!(restored.save_state(), q.save_state());
        assert!(restored.accepts_observation(&m("Front"), &[], &Value::from(3i64)));
        assert!(restored.restore_state(&Value::from(3i64)).is_err());
    }
}
