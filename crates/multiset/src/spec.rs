//! The executable multiset specification (Fig. 1 of the paper).
//!
//! The abstract state is the multiset contents `M`. Following the paper:
//!
//! * `Insert(x)` and `InsertPair(x, y)` "are allowed to terminate
//!   successfully or exceptionally, but exceptionally-terminating
//!   [operations] are required to leave the multiset state unchanged" —
//!   i.e. the return value is nondeterministic but determines the
//!   successor state, as the §3.2 determinism definition requires.
//! * `InsertPair` must insert *both* or *neither* of its arguments: "it
//!   will be considered a refinement violation if only one of x or y is
//!   inserted into the multiset."
//! * `LookUp(x)` is an observer returning whether `x ∈ M`.
//! * `Delete(x)` removes one occurrence and returns `true`; a `false`
//!   return is treated like an exceptional termination and is always
//!   allowed (leaving the state unchanged) — the permissiveness that
//!   separates refinement from atomicity (§1).
//! * `Compress` models the internal compression task: a mutator whose
//!   specification transition leaves `M` unchanged, so view refinement
//!   verifies that compression does not disturb the abstract contents
//!   (§7.2.3 applies the same check to the B-link tree's compression
//!   thread).

use std::collections::BTreeMap;

use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd_core::view::View;
use vyrd_core::{MethodId, Value};

/// Method name constants shared by the specification and the instrumented
/// implementations.
pub mod methods {
    /// `Insert(x)` — add one occurrence of `x` (may fail).
    pub const INSERT: &str = "Insert";
    /// `InsertPair(x, y)` — add `x` and `y` atomically (may fail).
    pub const INSERT_PAIR: &str = "InsertPair";
    /// `Delete(x)` — remove one occurrence of `x`.
    pub const DELETE: &str = "Delete";
    /// `LookUp(x)` — is `x` present?
    pub const LOOKUP: &str = "LookUp";
    /// Internal compression task (must not change the contents).
    pub const COMPRESS: &str = "Compress";
}

/// Atomic multiset of integers: the specification `M` of Fig. 1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultisetSpec {
    counts: BTreeMap<i64, u64>,
}

impl MultisetSpec {
    /// Creates an empty multiset specification.
    pub fn new() -> MultisetSpec {
        MultisetSpec::default()
    }

    /// Multiplicity of `x` in `M`.
    pub fn count(&self, x: i64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    /// `x ∈ M`?
    pub fn contains(&self, x: i64) -> bool {
        self.count(x) > 0
    }

    /// Total number of elements (with multiplicity).
    pub fn len(&self) -> u64 {
        self.counts.values().sum()
    }

    /// `true` if `M` is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    fn add(&mut self, x: i64) {
        *self.counts.entry(x).or_insert(0) += 1;
    }

    fn remove(&mut self, x: i64) -> bool {
        match self.counts.get_mut(&x) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                self.counts.remove(&x);
                true
            }
            None => false,
        }
    }

    fn int_arg(args: &[Value], i: usize) -> Result<i64, SpecError> {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| SpecError::new(format!("argument {i} is not an integer")))
    }
}

impl Spec for MultisetSpec {
    fn kind(&self, method: &MethodId) -> MethodKind {
        if method.name() == methods::LOOKUP {
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
            methods::INSERT => {
                let x = Self::int_arg(args, 0)?;
                if ret.is_success() {
                    self.add(x);
                    Ok(SpecEffect::touching([x]))
                } else if ret.is_failure() {
                    Ok(SpecEffect::unchanged())
                } else {
                    Err(SpecError::new(format!(
                        "Insert may return success or failure, not {ret}"
                    )))
                }
            }
            methods::INSERT_PAIR => {
                let x = Self::int_arg(args, 0)?;
                let y = Self::int_arg(args, 1)?;
                if ret.is_success() {
                    self.add(x);
                    self.add(y);
                    Ok(SpecEffect::touching([x, y]))
                } else if ret.is_failure() {
                    Ok(SpecEffect::unchanged())
                } else {
                    Err(SpecError::new(format!(
                        "InsertPair may return success or failure, not {ret}"
                    )))
                }
            }
            methods::DELETE => {
                let x = Self::int_arg(args, 0)?;
                match ret.as_bool() {
                    Some(true) => {
                        if self.remove(x) {
                            Ok(SpecEffect::touching([x]))
                        } else {
                            Err(SpecError::new(format!(
                                "Delete({x}) returned true but {x} is not in the multiset"
                            )))
                        }
                    }
                    // A false return is an allowed unproductive termination
                    // and leaves M unchanged.
                    Some(false) => Ok(SpecEffect::unchanged()),
                    None => Err(SpecError::new(format!(
                        "Delete returns a boolean, not {ret}"
                    ))),
                }
            }
            methods::COMPRESS => {
                if ret.is_unit() {
                    Ok(SpecEffect::unchanged())
                } else {
                    Err(SpecError::new(format!(
                        "Compress returns unit, not {ret}"
                    )))
                }
            }
            other => Err(SpecError::new(format!("unknown mutator {other}"))),
        }
    }

    fn accepts_observation(&self, method: &MethodId, args: &[Value], ret: &Value) -> bool {
        if method.name() != methods::LOOKUP {
            return false;
        }
        let Some(x) = args.first().and_then(Value::as_int) else {
            return false;
        };
        ret.as_bool() == Some(self.contains(x))
    }

    fn view(&self) -> View {
        self.counts
            .iter()
            .map(|(&x, &n)| (Value::from(x), Value::from(n)))
            .collect()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        let x = key.as_int()?;
        self.counts.get(&x).map(|&n| Value::from(n))
    }

    fn save_state(&self) -> Option<Value> {
        Some(Value::List(
            self.counts
                .iter()
                .map(|(&x, &n)| Value::pair(Value::from(x), Value::from(n)))
                .collect(),
        ))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        let entries = state
            .as_list()
            .ok_or_else(|| SpecError::new("multiset state must be a list"))?;
        let mut counts = BTreeMap::new();
        for entry in entries {
            let (x, n) = entry
                .as_pair()
                .and_then(|(x, n)| Some((x.as_int()?, u64::try_from(n.as_int()?).ok()?)))
                .ok_or_else(|| SpecError::new("multiset entry must be an (int, count) pair"))?;
            counts.insert(x, n);
        }
        self.counts = counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> MethodId {
        MethodId::from(name)
    }

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::from(x)).collect()
    }

    #[test]
    fn insert_success_adds_failure_does_not() {
        let mut s = MultisetSpec::new();
        s.apply(&m("Insert"), &ints(&[5]), &Value::success()).unwrap();
        assert!(s.contains(5));
        s.apply(&m("Insert"), &ints(&[6]), &Value::failure()).unwrap();
        assert!(!s.contains(6));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_rejects_other_returns() {
        let mut s = MultisetSpec::new();
        assert!(s
            .apply(&m("Insert"), &ints(&[5]), &Value::from(true))
            .is_err());
    }

    #[test]
    fn insert_pair_is_all_or_nothing() {
        let mut s = MultisetSpec::new();
        s.apply(&m("InsertPair"), &ints(&[5, 6]), &Value::success())
            .unwrap();
        assert!(s.contains(5) && s.contains(6));
        s.apply(&m("InsertPair"), &ints(&[7, 8]), &Value::failure())
            .unwrap();
        assert!(!s.contains(7) && !s.contains(8));
    }

    #[test]
    fn insert_pair_tracks_multiplicity_of_equal_args() {
        let mut s = MultisetSpec::new();
        s.apply(&m("InsertPair"), &ints(&[4, 4]), &Value::success())
            .unwrap();
        assert_eq!(s.count(4), 2);
    }

    #[test]
    fn delete_true_requires_presence() {
        let mut s = MultisetSpec::new();
        let err = s
            .apply(&m("Delete"), &ints(&[9]), &Value::from(true))
            .unwrap_err();
        assert!(err.message().contains("not in the multiset"));
        s.apply(&m("Insert"), &ints(&[9]), &Value::success()).unwrap();
        s.apply(&m("Delete"), &ints(&[9]), &Value::from(true))
            .unwrap();
        assert!(!s.contains(9));
    }

    #[test]
    fn delete_false_is_always_allowed() {
        let mut s = MultisetSpec::new();
        s.apply(&m("Insert"), &ints(&[9]), &Value::success()).unwrap();
        let before = s.clone();
        s.apply(&m("Delete"), &ints(&[9]), &Value::from(false))
            .unwrap();
        assert_eq!(s, before);
    }

    #[test]
    fn delete_decrements_multiplicity() {
        let mut s = MultisetSpec::new();
        s.apply(&m("Insert"), &ints(&[2]), &Value::success()).unwrap();
        s.apply(&m("Insert"), &ints(&[2]), &Value::success()).unwrap();
        s.apply(&m("Delete"), &ints(&[2]), &Value::from(true))
            .unwrap();
        assert_eq!(s.count(2), 1);
        assert!(s.contains(2));
    }

    #[test]
    fn lookup_observation_matches_membership() {
        let mut s = MultisetSpec::new();
        s.apply(&m("Insert"), &ints(&[3]), &Value::success()).unwrap();
        assert!(s.accepts_observation(&m("LookUp"), &ints(&[3]), &Value::from(true)));
        assert!(!s.accepts_observation(&m("LookUp"), &ints(&[3]), &Value::from(false)));
        assert!(s.accepts_observation(&m("LookUp"), &ints(&[4]), &Value::from(false)));
        // Non-boolean returns are never accepted.
        assert!(!s.accepts_observation(&m("LookUp"), &ints(&[3]), &Value::from(1i64)));
    }

    #[test]
    fn compress_must_not_change_state() {
        let mut s = MultisetSpec::new();
        s.apply(&m("Insert"), &ints(&[3]), &Value::success()).unwrap();
        let before = s.view();
        let effect = s.apply(&m("Compress"), &[], &Value::Unit).unwrap();
        assert!(effect.dirty_keys.is_empty());
        assert_eq!(s.view(), before);
        assert!(s.apply(&m("Compress"), &[], &Value::from(1i64)).is_err());
    }

    #[test]
    fn kinds_are_correct() {
        let s = MultisetSpec::new();
        assert_eq!(s.kind(&m("LookUp")), MethodKind::Observer);
        assert_eq!(s.kind(&m("Insert")), MethodKind::Mutator);
        assert_eq!(s.kind(&m("Compress")), MethodKind::Mutator);
    }

    #[test]
    fn view_reports_multiplicities() {
        let mut s = MultisetSpec::new();
        s.apply(&m("Insert"), &ints(&[3]), &Value::success()).unwrap();
        s.apply(&m("Insert"), &ints(&[3]), &Value::success()).unwrap();
        let v = s.view();
        assert_eq!(v.get(&Value::from(3i64)), Some(&Value::from(2u64)));
        assert_eq!(s.view_of(&Value::from(3i64)), Some(Value::from(2u64)));
        assert_eq!(s.view_of(&Value::from(4i64)), None);
    }

    #[test]
    fn unknown_methods_are_rejected() {
        let mut s = MultisetSpec::new();
        assert!(s.apply(&m("Shrink"), &[], &Value::Unit).is_err());
        assert!(!s.accepts_observation(&m("Size"), &[], &Value::from(0i64)));
    }
}
