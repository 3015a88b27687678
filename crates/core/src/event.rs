//! Actions recorded in the VYRD log.
//!
//! §3.1 of the paper models programs as state transition systems whose
//! actions include method *calls*, *returns*, and atomic *updates* of shared
//! state. For runtime checking the implementation is instrumented to record
//! a subset of its actions into a log (§4.2):
//!
//! * **call / return** actions of public methods — required for both I/O and
//!   view refinement;
//! * **commit** actions of mutator methods (§4.1) — the programmer-designated
//!   action that makes the method's effect visible to other threads;
//! * **commit block** boundaries (§5.2) — a region the programmer asserts is
//!   atomic, used to roll the logged execution into the equivalent execution
//!   `t'` in which no other thread is mid-commit-block at a commit point;
//! * **shared-variable writes** — required only for view refinement, at
//!   either fine (one entry per write) or coarse (one replayable record per
//!   atomic group of writes, §6.2) granularity.

use std::fmt;
use std::sync::Arc;

use vyrd_rt::intern::Interner;

use crate::value::Value;

/// Identifier of a thread, as recorded in log entries.
///
/// The paper partitions thread identifiers into application threads
/// (`Tid_app`) and data-structure-internal worker threads (`Tid_ds`, e.g.
/// the B-link tree compression thread). The partition only matters for
/// reporting; both kinds log through the same API.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of the data-structure *instance* an action belongs to.
///
/// The paper keeps "actions of different objects in separate logs" (§6.1)
/// so that per-object logs can be checked concurrently and independently
/// (§8). Every event carries the object it acted on; single-object runs
/// use [`ObjectId::DEFAULT`] throughout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The object id used when a run does not distinguish objects.
    pub const DEFAULT: ObjectId = ObjectId(0);
}

impl Default for ObjectId {
    fn default() -> ObjectId {
        ObjectId::DEFAULT
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// The process-wide method-name registry backing [`MethodId`].
///
/// Distinct method names of a program under test are few and static, so
/// the bounded leak of the copy-on-write interner is negligible — and the
/// logging fast path gets a `Copy` `u32` id instead of a reference count
/// bump (let alone an allocation) per recorded call/return.
static METHOD_NAMES: Interner = Interner::new();

/// Name of a public method of the data structure under test.
///
/// Interned: the string is registered once in a process-wide table and
/// the id is a dense `u32`, so `MethodId` is `Copy` and event
/// construction on the logging hot path never allocates. Equality is by
/// id, which coincides with equality by string content (interning is
/// injective); ordering compares the names themselves so sort orders
/// stay textual.
///
/// ```
/// use vyrd_core::MethodId;
/// let m = MethodId::from("Insert");
/// assert_eq!(m.name(), "Insert");
/// assert_eq!(m, MethodId::from("Insert"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MethodId(u32);

impl MethodId {
    /// The method name.
    pub fn name(&self) -> &'static str {
        // The only constructors go through the interner, so the id is
        // always resolvable; the fallback keeps this total anyway.
        METHOD_NAMES.get(self.0).unwrap_or("<unknown-method>")
    }
}

impl From<&str> for MethodId {
    fn from(s: &str) -> MethodId {
        MethodId(METHOD_NAMES.intern(s))
    }
}

impl From<String> for MethodId {
    fn from(s: String) -> MethodId {
        MethodId(METHOD_NAMES.intern(&s))
    }
}

impl PartialOrd for MethodId {
    fn partial_cmp(&self, other: &MethodId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MethodId {
    fn cmp(&self, other: &MethodId) -> std::cmp::Ordering {
        // By name, not id: reports and tables sort methods textually.
        self.name().cmp(other.name())
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Argument list of a [`Event::Call`], inlining small arities.
///
/// Almost every public method of the paper's benchmark systems takes 0–2
/// arguments; `ArgList` stores those inline, so building a call event
/// performs no heap allocation. Longer lists fall back to a `Vec`.
/// Dereferences to `&[Value]`, so read sites (`args.len()`,
/// `args.iter()`, `&args[0]`) treat it exactly like a slice.
///
/// ```
/// use vyrd_core::event::ArgList;
/// use vyrd_core::Value;
/// let args = ArgList::from_slice(&[Value::from(1i64), Value::from(2i64)]);
/// assert_eq!(args.len(), 2);
/// assert_eq!(args, ArgList::from(vec![Value::from(1i64), Value::from(2i64)]));
/// ```
#[derive(Clone, Debug)]
pub struct ArgList(ArgRepr);

#[derive(Clone, Debug)]
enum ArgRepr {
    /// `len` live values at the front of `vals`; the rest are `Unit`
    /// padding.
    Inline { len: u8, vals: [Value; 2] },
    Heap(Vec<Value>),
}

impl ArgList {
    /// The empty argument list.
    pub const fn new() -> ArgList {
        ArgList(ArgRepr::Inline {
            len: 0,
            vals: [Value::Unit, Value::Unit],
        })
    }

    /// Builds an argument list by cloning a slice — allocation-free for
    /// up to two arguments.
    pub fn from_slice(args: &[Value]) -> ArgList {
        match args {
            [] => ArgList::new(),
            [a] => ArgList(ArgRepr::Inline {
                len: 1,
                vals: [a.clone(), Value::Unit],
            }),
            [a, b] => ArgList(ArgRepr::Inline {
                len: 2,
                vals: [a.clone(), b.clone()],
            }),
            _ => ArgList(ArgRepr::Heap(args.to_vec())),
        }
    }

    /// The arguments as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            ArgRepr::Inline { len, vals } => &vals[..*len as usize],
            ArgRepr::Heap(v) => v,
        }
    }
}

impl Default for ArgList {
    fn default() -> ArgList {
        ArgList::new()
    }
}

impl std::ops::Deref for ArgList {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl From<Vec<Value>> for ArgList {
    fn from(mut v: Vec<Value>) -> ArgList {
        match v.len() {
            0 => ArgList::new(),
            1 => {
                let a = v.remove(0);
                ArgList(ArgRepr::Inline {
                    len: 1,
                    vals: [a, Value::Unit],
                })
            }
            2 => {
                let b = v.remove(1);
                let a = v.remove(0);
                ArgList(ArgRepr::Inline {
                    len: 2,
                    vals: [a, b],
                })
            }
            _ => ArgList(ArgRepr::Heap(v)),
        }
    }
}

impl From<&[Value]> for ArgList {
    fn from(args: &[Value]) -> ArgList {
        ArgList::from_slice(args)
    }
}

impl FromIterator<Value> for ArgList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> ArgList {
        iter.into_iter().collect::<Vec<Value>>().into()
    }
}

impl<'a> IntoIterator for &'a ArgList {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> std::slice::Iter<'a, Value> {
        self.as_slice().iter()
    }
}

impl PartialEq for ArgList {
    fn eq(&self, other: &ArgList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ArgList {}

impl PartialEq<[Value]> for ArgList {
    fn eq(&self, other: &[Value]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<Value>> for ArgList {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Identifier of a logged shared variable.
///
/// A variable is addressed by a *space* (a name for a family of variables,
/// e.g. `"A.elt"` for the multiset's element array or `"node"` for B-link
/// tree nodes) plus an integer *index* within the space (slot number, node
/// id, chunk handle, ...).
///
/// ```
/// use vyrd_core::VarId;
/// let v = VarId::new("A.elt", 3);
/// assert_eq!(v.to_string(), "A.elt[3]");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId {
    space: Arc<str>,
    index: i64,
}

impl VarId {
    /// Creates a variable identifier from a space name and an index.
    pub fn new(space: &str, index: i64) -> VarId {
        VarId {
            space: Arc::from(space),
            index,
        }
    }

    /// The variable family this variable belongs to.
    pub fn space(&self) -> &str {
        &self.space
    }

    /// The index within the space.
    pub fn index(&self) -> i64 {
        self.index
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.space, self.index)
    }
}

/// One logged action.
///
/// Events appear in the log in the order the corresponding actions occur in
/// the execution; the paper achieves this by performing each logged action
/// atomically with its log update (§4.2), and this library does the same by
/// requiring instrumentation sites to log while holding whatever lock makes
/// the action visible (see [`crate::instrument`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Call action `(t, µ, ν)`: thread `t` invokes public method `µ` with
    /// actual arguments `ν`.
    Call {
        /// Calling thread.
        tid: ThreadId,
        /// Object the method was invoked on.
        object: ObjectId,
        /// Invoked method.
        method: MethodId,
        /// Actual arguments.
        args: ArgList,
    },
    /// Return action `(t, µ, ρ)`: thread `t` returns from `µ` with value `ρ`.
    Return {
        /// Returning thread.
        tid: ThreadId,
        /// Object the method was invoked on.
        object: ObjectId,
        /// Returning method.
        method: MethodId,
        /// Returned value (exceptional terminations are special values,
        /// see [`Value::failure`] / [`Value::exception`]).
        ret: Value,
    },
    /// The commit action of the method execution `tid` is currently inside
    /// (§4.1). Exactly one per mutator execution path.
    Commit {
        /// Committing thread.
        tid: ThreadId,
        /// Object the committing method belongs to.
        object: ObjectId,
    },
    /// Start of a commit block (§5.2) executed by `tid`.
    BlockBegin {
        /// Thread entering its commit block.
        tid: ThreadId,
        /// Object whose commit block is being entered.
        object: ObjectId,
    },
    /// End of a commit block executed by `tid`.
    BlockEnd {
        /// Thread leaving its commit block.
        tid: ThreadId,
        /// Object whose commit block is being left.
        object: ObjectId,
    },
    /// An atomic update of shared variable `var` to `value`, required in the
    /// log only when view refinement is being checked and
    /// `var ∈ supp(view_I)` (§5.2).
    Write {
        /// Writing thread.
        tid: ThreadId,
        /// Object whose shared state was written.
        object: ObjectId,
        /// Variable written.
        var: VarId,
        /// Value written (for coarse-grained records, the replayable
        /// post-state of the whole atomic group, §6.2).
        value: Value,
    },
}

impl Event {
    /// The thread that performed this action.
    pub fn tid(&self) -> ThreadId {
        match self {
            Event::Call { tid, .. }
            | Event::Return { tid, .. }
            | Event::Commit { tid, .. }
            | Event::BlockBegin { tid, .. }
            | Event::BlockEnd { tid, .. }
            | Event::Write { tid, .. } => *tid,
        }
    }

    /// The object this action belongs to — the sharding key of
    /// [`crate::shard::ShardRouter`].
    pub fn object(&self) -> ObjectId {
        match self {
            Event::Call { object, .. }
            | Event::Return { object, .. }
            | Event::Commit { object, .. }
            | Event::BlockBegin { object, .. }
            | Event::BlockEnd { object, .. }
            | Event::Write { object, .. } => *object,
        }
    }

    /// Rough in-memory size in bytes, for logging-overhead accounting.
    pub fn size_estimate(&self) -> usize {
        16 + match self {
            Event::Call { args, .. } => args.iter().map(Value::size_estimate).sum(),
            Event::Return { ret, .. } => ret.size_estimate(),
            Event::Commit { .. } | Event::BlockBegin { .. } | Event::BlockEnd { .. } => 0,
            Event::Write { value, .. } => value.size_estimate(),
        }
    }

    /// `true` for the events that I/O refinement requires in the log
    /// (call, return, and commit actions, §4.2).
    pub fn required_for_io(&self) -> bool {
        matches!(
            self,
            Event::Call { .. } | Event::Return { .. } | Event::Commit { .. }
        )
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Single-object runs keep the familiar rendering; multi-object
        // runs prefix the object so sharded traces stay readable.
        if self.object() != ObjectId::DEFAULT {
            write!(f, "{} ", self.object())?;
        }
        match self {
            Event::Call {
                tid, method, args, ..
            } => {
                write!(f, "{tid} call {method}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Event::Return {
                tid, method, ret, ..
            } => write!(f, "{tid} ret  {method} -> {ret}"),
            Event::Commit { tid, .. } => write!(f, "{tid} commit"),
            Event::BlockBegin { tid, .. } => write!(f, "{tid} block-begin"),
            Event::BlockEnd { tid, .. } => write!(f, "{tid} block-end"),
            Event::Write {
                tid, var, value, ..
            } => write!(f, "{tid} write {var} := {value}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn method_id_semantics() {
        let a = MethodId::from("LookUp");
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(a.name(), "LookUp");
        assert_ne!(a, MethodId::from("Insert"));
        assert_eq!(MethodId::from("x".to_owned()).name(), "x");
        // Ordering is textual, regardless of interning order.
        assert!(MethodId::from("Insert") < MethodId::from("LookUp"));
    }

    #[test]
    fn arg_list_inlines_small_arities() {
        let empty = ArgList::new();
        assert!(empty.is_empty());
        assert_eq!(empty, ArgList::from(vec![]));
        let two = ArgList::from_slice(&[1i64.into(), 2i64.into()]);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0], Value::from(1i64));
        assert_eq!(two, ArgList::from(vec![Value::from(1i64), Value::from(2i64)]));
        let three: ArgList = (0..3i64).map(Value::from).collect();
        assert_eq!(three.len(), 3);
        assert_eq!(three.as_slice(), ArgList::from_slice(three.as_slice()).as_slice());
        assert_ne!(two, three);
    }

    #[test]
    fn var_id_accessors() {
        let v = VarId::new("valid", 9);
        assert_eq!(v.space(), "valid");
        assert_eq!(v.index(), 9);
        assert_eq!(v, VarId::new("valid", 9));
        assert_ne!(v, VarId::new("valid", 8));
        assert_ne!(v, VarId::new("elt", 9));
    }

    #[test]
    fn event_tid_and_object_extraction() {
        let o = ObjectId(7);
        let events = [
            Event::Call {
                tid: t(1),
                object: o,
                method: "m".into(),
                args: ArgList::new(),
            },
            Event::Return {
                tid: t(1),
                object: o,
                method: "m".into(),
                ret: Value::Unit,
            },
            Event::Commit { tid: t(1), object: o },
            Event::BlockBegin { tid: t(1), object: o },
            Event::BlockEnd { tid: t(1), object: o },
            Event::Write {
                tid: t(1),
                object: o,
                var: VarId::new("x", 0),
                value: Value::Unit,
            },
        ];
        assert!(events.iter().all(|e| e.tid() == t(1)));
        assert!(events.iter().all(|e| e.object() == o));
    }

    #[test]
    fn object_id_default_and_display() {
        assert_eq!(ObjectId::default(), ObjectId::DEFAULT);
        assert_eq!(ObjectId(0), ObjectId::DEFAULT);
        assert_eq!(ObjectId(4).to_string(), "O4");
    }

    #[test]
    fn io_required_subset() {
        assert!(Event::Commit {
            tid: t(2),
            object: ObjectId::DEFAULT
        }
        .required_for_io());
        assert!(!Event::BlockBegin {
            tid: t(2),
            object: ObjectId::DEFAULT
        }
        .required_for_io());
        assert!(!Event::Write {
            tid: t(2),
            object: ObjectId::DEFAULT,
            var: VarId::new("x", 0),
            value: Value::Unit
        }
        .required_for_io());
    }

    #[test]
    fn display_round_trip_is_readable() {
        let e = Event::Call {
            tid: t(3),
            object: ObjectId::DEFAULT,
            method: "Insert".into(),
            args: vec![5i64.into(), 6i64.into()].into(),
        };
        assert_eq!(e.to_string(), "T3 call Insert(5, 6)");
        let w = Event::Write {
            tid: t(3),
            object: ObjectId::DEFAULT,
            var: VarId::new("A.elt", 0),
            value: 5i64.into(),
        };
        assert_eq!(w.to_string(), "T3 write A.elt[0] := 5");
    }

    #[test]
    fn display_prefixes_non_default_object() {
        let e = Event::Commit {
            tid: t(3),
            object: ObjectId(2),
        };
        assert_eq!(e.to_string(), "O2 T3 commit");
    }
}
