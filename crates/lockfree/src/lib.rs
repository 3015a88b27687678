//! # vyrd-lockfree — atomics-based scenario family
//!
//! Every structure the original benchmarks verify is a lock-based
//! monitor: its commit point sits inside a critical section, so the
//! commit order is trivially the order the lock was handed around. This
//! crate adds the other half of the story — **lock-free** structures
//! whose commit points are *successful CAS instructions*:
//!
//! * [`TreiberStack`] — the classic Treiber stack: `Push`/`Pop` commit
//!   at their successful head CAS, `Peek` is a pure observer.
//! * [`MsQueue`] — the Michael–Scott two-pointer queue: `Enqueue`
//!   commits at the successful `tail.next` link CAS, `Dequeue` at the
//!   successful head CAS, `Front` is a pure observer.
//!
//! Both are built over an **index-based arena with tagged pointers**
//! ([`arena::Arena`]): nodes are slots in a preallocated array, a
//! "pointer" is a packed `AtomicU64` of `(tag << 32) | index`, and the
//! free list is itself a tagged Treiber stack. Reclamation is a tag
//! bump + free-list push, so there is no epoch scheme and no `unsafe`
//! anywhere in the crate — a stale thread that still holds an old
//! `(tag, index)` pair simply fails its CAS.
//!
//! Each structure carries a **seeded bug** that reproduces a canonical
//! lock-free defect as a real, checkable refinement violation:
//!
//! * [`StackVariant::AbaPop`] — `Pop` compares only the head *index*,
//!   not the tag: the textbook ABA error. A node popped, recycled, and
//!   pushed again satisfies the stale compare, and the stale `next`
//!   pointer is installed — the stack loses elements and `Pop` returns
//!   values that are no longer on top.
//! * [`QueueVariant::EarlyTailSwing`] — `Enqueue` swings `tail` to the
//!   new node (and commits) *before* linking `predecessor.next`: until
//!   the link lands, the element is unreachable from `head`, so a
//!   concurrent `Dequeue` reports an empty queue the specification says
//!   is non-empty.
//!
//! ## Instrumentation atomicity (§6.1)
//!
//! VYRD requires each logged commit to be recorded atomically with the
//! action it names, so the commit *log* order equals the actual
//! linearization order of the successful CASes. A bare CAS has no
//! surrounding lock to piggyback on, so each structure carries a small
//! `commit_lock` held across `{CAS attempt, session.commit()}` only.
//! The algorithms are unchanged — every mutation still happens by CAS,
//! failed CASes still retry — the lock only serializes *logging*
//! against *publication*, exactly the instrumentation obligation the
//! paper states for its benchmarks.
//!
//! Observers (`Peek`/`Front`) never mutate and never commit, but they
//! carry their own obligation: the justifying commit must land in the
//! log before the observer's return action, or the checker's window
//! `[call, return]` will not contain it. A mutator preempted between
//! its successful CAS and its commit append (it still holds the commit
//! lock) leaves visible-but-unlogged state, so each observer passes an
//! **observer fence** — an empty acquire/release of the commit lock —
//! between its final state read and its return append. Lock acquisition
//! order guarantees every critical section whose CAS the observer saw
//! has completed, commit append included.
//!
//! Specifications live in [`spec`]: [`StackSpec`] (LIFO) and
//! [`QueueSpec`] (FIFO), both checkpointable. The linearizability
//! checking mode (`Checker::lin`) judges a `Peek`/`Front` observation
//! against each state of its window while that state is the live one,
//! so neither spec is ever copied.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod arena;
mod queue;
mod spec;
mod stack;

pub use queue::{MsQueue, MsQueueHandle, QueueVariant};
pub use spec::{methods, QueueSpec, StackSpec};
pub use stack::{StackVariant, TreiberStack, TreiberStackHandle};

/// A one-shot pause point a test choreography installs on a structure.
///
/// The buggy variants expose a *hook* that fires exactly once, at the
/// instant the seeded bug's race window is open (between the stale read
/// and the stale CAS for [`StackVariant::AbaPop`]; between the tail
/// swing and the missing link for [`QueueVariant::EarlyTailSwing`]).
/// A choreography arms the hook with a closure that parks the victim
/// thread on a barrier, performs the interfering operations from
/// another thread, and releases it — turning a probabilistic race into
/// a deterministic, replayable violation.
pub type Hook = Box<dyn FnOnce() + Send>;
