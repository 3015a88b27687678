//! A multi-producer single-consumer channel, unbounded or bounded.
//!
//! API-compatible with the subset of `crossbeam::channel` the event log
//! and harness use. Semantics that matter to the online verifier (§4.2):
//!
//! * **Drain before disconnect** — `recv` keeps returning buffered
//!   messages after every [`Sender`] is gone; only an *empty* and
//!   disconnected channel yields [`RecvError`]. The verification thread
//!   therefore always checks every event the program managed to log.
//! * **Disconnect wakes blockers** — dropping the last `Sender` (e.g. via
//!   `EventLog::close()` swapping the channel sink out, or a straggler
//!   thread dropping its logger) acquires the queue lock before
//!   signalling, so a receiver blocked in `recv`/`recv_timeout` cannot
//!   miss the wakeup and hang. Symmetrically, dropping the [`Receiver`]
//!   wakes senders blocked on a full bounded channel.
//! * **Unbounded sends never block** — [`unbounded`] queues without limit;
//!   `send` to a dropped [`Receiver`] returns the value back instead of
//!   panicking.
//! * **Bounded sends apply backpressure** — [`bounded`] makes `send` block
//!   while the queue holds `capacity` messages, so a producer that outruns
//!   its consumer (a program outrunning a slow verifier) is slowed down
//!   instead of growing the heap without bound. [`Sender::send_timeout`]
//!   bounds that wait, which is what overload policies that *shed* instead
//!   of stall are built on.
//!
//! # The wait protocol
//!
//! The channel sits on the router→checker edge, inside the log's append
//! critical section, so what a hand-off costs the *other* side is what
//! the program pays. In steady state a hand-off makes no system call:
//!
//! * **Notifies are gated on a waiter.** `Condvar::notify_*` is a
//!   `futex_wake` whether or not anyone sleeps. Each side therefore
//!   counts, under the queue lock, the threads parked on its condvar
//!   (`Waiters::parked`, raised immediately before the wait and lowered
//!   immediately after it) and the wakes already on their way to them
//!   (`Waiters::notified`). The other side signals only while
//!   `parked > notified`. Both the count and the condition a waiter
//!   sleeps on change only under the lock, and the condvar releases the
//!   lock atomically with going to sleep, so whoever changes the
//!   condition either sees the waiter counted or is seen by it: no
//!   wakeup is lost. A waiter that wakes for any reason (notify,
//!   timeout, spuriously) takes itself out of both counts, so `notified`
//!   can only under-count wakes in flight — the cost of that is a
//!   redundant notify, never a missed one.
//! * **A waiter spins before it parks.** Before sleeping, a blocked
//!   thread releases the lock and polls, for at most `SPIN` (10 µs), an
//!   occupancy word that the other side publishes *after* it has
//!   released the queue lock. A spinning waiter is not parked, so it
//!   costs the other side neither a wake nor a collision on the lock.
//!   The bound is a constant of the order of what it replaces — one
//!   futex wake plus the scheduler's hand-off to the woken thread — so a
//!   wait that outlasts it costs at most about twice the parked one, and
//!   one that does not costs neither side a system call. On a machine
//!   with one core ([`std::thread::available_parallelism`] = 1) the
//!   thread being waited for cannot run while the waiter spins, so
//!   waiters park at once.
//!
//! Every blocking call goes through one private helper (`Shared::wait`).
//! [`Monitor::wakeups`] counts the notifies actually made.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::sync::CachePadded;

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the unsent value back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Sender::send_timeout`]; carries the unsent value
/// back either way.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The channel stayed full for the whole timeout.
    Timeout(T),
    /// The [`Receiver`] is gone; the message can never be delivered.
    Closed(T),
}

impl<T> SendTimeoutError<T> {
    /// Recovers the unsent message.
    pub fn into_inner(self) -> T {
        match self {
            SendTimeoutError::Timeout(v) | SendTimeoutError::Closed(v) => v,
        }
    }

    /// Whether the failure was a timeout (as opposed to disconnection).
    pub fn is_timeout(&self) -> bool {
        matches!(self, SendTimeoutError::Timeout(_))
    }
}

impl<T> fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("SendTimeoutError::Timeout(..)"),
            SendTimeoutError::Closed(_) => f.write_str("SendTimeoutError::Closed(..)"),
        }
    }
}

impl<T> fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("timed out waiting for channel capacity"),
            SendTimeoutError::Closed(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T> std::error::Error for SendTimeoutError<T> {}

/// Error returned by [`Receiver::recv`]: the channel is empty and every
/// sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// How long a blocked thread polls the occupancy word before it parks:
/// of the order of one futex wake plus the scheduler's hand-off to the
/// woken thread (3–4.5 µs a message on a capacity-1 channel where every
/// operation parks), the cost a successful spin saves both sides. Not
/// longer: with more runnable threads than cores the spinner's core is
/// one the thread it waits for could be using.
const SPIN: Duration = Duration::from_micros(10);

/// Whether a blocked thread spins before it parks. Not on one core: the
/// thread it waits for cannot run until the waiter gives the core up.
fn spin_before_park() -> bool {
    static MULTICORE: OnceLock<bool> = OnceLock::new();
    *MULTICORE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// The threads parked on one of the channel's two condvars.
#[derive(Default)]
struct Waiters {
    /// Threads between "about to wait" and "woke up", both under the
    /// queue lock.
    parked: usize,
    /// Wakes issued to them that no woken thread has accounted for yet.
    notified: usize,
}

impl Waiters {
    /// Whether to `notify_one`: some parked thread has no wake on its
    /// way. Counts the wake the caller then owes.
    fn claim_one(&mut self) -> bool {
        let owed = self.parked > self.notified;
        if owed {
            self.notified += 1;
        }
        owed
    }

    /// Whether to `notify_all`; counts a wake for every parked thread.
    fn claim_all(&mut self) -> bool {
        let owed = self.parked > self.notified;
        self.notified = self.parked;
        owed
    }
}

struct State<T> {
    queue: VecDeque<T>,
    /// Live [`Sender`] handles. 0 ⇒ disconnected on the producing side.
    senders: usize,
    /// The [`Receiver`] is still alive.
    receiver_alive: bool,
    /// Total messages ever popped by the receiver — lets a supervisor
    /// compute how many events a failed consumer got through before dying.
    popped: u64,
    /// Threads parked in a receive, on `ready`. One by convention, but
    /// pool workers compete on one `Receiver` for newly announced shards.
    receiver_parked: Waiters,
    /// Threads parked in a send to a full bounded channel, on `not_full`.
    senders_parked: Waiters,
}

/// Which end of the channel a thread is blocked on.
#[derive(Clone, Copy)]
enum Side {
    /// Waiting for a message (or for the last sender to go).
    Receiver,
    /// Waiting for room in a bounded channel (or for the receiver to go).
    Sender,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// `Some(n)` ⇒ `send` blocks while the queue holds `n` messages.
    capacity: Option<usize>,
    /// Signalled on a send, and on producer-side disconnect, while a
    /// receiver is parked.
    ready: Condvar,
    /// Signalled on a receive, and on receiver drop, while a sender is
    /// parked; only senders on a bounded channel ever wait on it.
    not_full: Condvar,
    /// The queue's length as a running sum of deltas, each published
    /// *after* the queue lock is released: what spinning waiters poll and
    /// what the `len` probes read, neither touching the lock. It carries
    /// no data (the queue itself is only read under the lock), hence
    /// `Relaxed`. A pop's delta can land before the matching push's, so
    /// the sum is read as a signed number and may briefly trail or lead
    /// the queue by the batches in flight; it is exact at rest.
    occupancy: CachePadded<AtomicUsize>,
    /// `notify_*` calls actually made.
    wakeups: AtomicU64,
}

impl<T> Shared<T> {
    /// Locks the state, shrugging off poison: a panicking producer must
    /// not wedge the verification thread (the queue contents stay valid —
    /// all critical sections are a push/pop plus counter updates).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The published queue length (see `occupancy`), clamped to what the
    /// queue can hold: a transiently negative sum reads 0, and on a
    /// bounded channel a sum above the capacity is a lead by construction
    /// and reads the capacity.
    fn len(&self) -> usize {
        let sum = self.occupancy.load(Ordering::Relaxed);
        // The upper half of the range is a transiently negative sum.
        if sum > usize::MAX / 2 {
            0
        } else {
            self.capacity.map_or(sum, |cap| sum.min(cap))
        }
    }

    fn is_full(&self, len: usize) -> bool {
        self.capacity.is_some_and(|cap| len >= cap)
    }

    /// Whether `side` still has nothing to do but wait.
    fn blocked(&self, state: &State<T>, side: Side) -> bool {
        match side {
            Side::Receiver => state.queue.is_empty() && state.senders > 0,
            Side::Sender => state.receiver_alive && self.is_full(state.queue.len()),
        }
    }

    /// The one place a thread waits. Call with `side` blocked; returns,
    /// with the lock held again, once it may no longer be — or `deadline`
    /// has passed, or the wait ended for no reason at all. Callers loop.
    ///
    /// Spins first (module docs): off the lock, on the occupancy word, for
    /// at most [`SPIN`] and never past `deadline`. A disconnect does not
    /// move that word; the spinner meets it when the bound runs out.
    fn wait<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<T>>,
        side: Side,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, State<T>> {
        if spin_before_park() {
            drop(state);
            let spin_until = Instant::now() + SPIN;
            let spin_until = deadline.map_or(spin_until, |d| d.min(spin_until));
            let looks_blocked = || match side {
                Side::Receiver => self.len() == 0,
                Side::Sender => self.is_full(self.len()),
            };
            // A few dozen polls per clock read: reading the clock is the
            // expensive part of the loop, and on sibling hardware threads
            // it is taken from the very thread being waited for.
            'spin: while Instant::now() < spin_until {
                for _ in 0..32 {
                    if !looks_blocked() {
                        break 'spin;
                    }
                    std::hint::spin_loop();
                }
            }
            state = self.lock();
            if !self.blocked(&state, side) {
                return state;
            }
        }
        let remaining = match deadline {
            Some(d) => match d.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => Some(left),
                _ => return state,
            },
            None => None,
        };
        let condvar = match side {
            Side::Receiver => &self.ready,
            Side::Sender => &self.not_full,
        };
        // Counted under the lock the condvar is about to release: whoever
        // unblocks this side next takes that lock first and sees it.
        state.waiters(side).parked += 1;
        state = match remaining {
            Some(left) => {
                condvar
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => condvar.wait(state).unwrap_or_else(PoisonError::into_inner),
        };
        let waiters = state.waiters(side);
        waiters.parked -= 1;
        waiters.notified = waiters.notified.saturating_sub(1);
        state
    }

    /// Finishes a send that queued `n` messages: releases the lock,
    /// publishes the occupancy, and wakes a receiver only if one is
    /// parked.
    fn pushed(&self, mut state: MutexGuard<'_, State<T>>, n: usize) {
        let wake = state.receiver_parked.claim_one();
        drop(state);
        self.occupancy.fetch_add(n, Ordering::Relaxed);
        if wake {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.ready.notify_one();
        }
    }

    /// Finishes a receive that took `n` messages, the mirror image of
    /// [`Shared::pushed`]. One freed slot wakes one parked sender; a bulk
    /// drain frees many at once, so it wakes them all (`notify_one` would
    /// strand the rest until the next receive).
    fn popped(&self, mut state: MutexGuard<'_, State<T>>, n: usize) {
        state.popped += n as u64;
        let wake = if n == 1 {
            state.senders_parked.claim_one()
        } else {
            state.senders_parked.claim_all()
        };
        drop(state);
        self.occupancy.fetch_sub(n, Ordering::Relaxed);
        if wake {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            if n == 1 {
                self.not_full.notify_one();
            } else {
                self.not_full.notify_all();
            }
        }
    }

    /// Wakes every thread parked on `side` after a disconnect recorded in
    /// `state` — none, and no system call, when nobody is parked: a
    /// spinning waiter re-reads the state under the lock by itself.
    fn disconnected(&self, mut state: MutexGuard<'_, State<T>>, side: Side) {
        let wake = state.waiters(side).claim_all();
        drop(state);
        if wake {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            match side {
                Side::Receiver => self.ready.notify_all(),
                Side::Sender => self.not_full.notify_all(),
            }
        }
    }
}

impl<T> State<T> {
    fn waiters(&mut self, side: Side) -> &mut Waiters {
        match side {
            Side::Receiver => &mut self.receiver_parked,
            Side::Sender => &mut self.senders_parked,
        }
    }
}

fn channel_with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            popped: 0,
            receiver_parked: Waiters::default(),
            senders_parked: Waiters::default(),
        }),
        capacity,
        ready: Condvar::new(),
        not_full: Condvar::new(),
        occupancy: CachePadded::new(AtomicUsize::new(0)),
        wakeups: AtomicU64::new(0),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates an unbounded MPSC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel_with_capacity(None)
}

/// Creates a bounded MPSC channel holding at most `capacity` messages:
/// `send` blocks while the channel is full, which is the backpressure knob
/// a logging producer uses so a slow consumer cannot make it buffer
/// without bound.
///
/// # Panics
///
/// Panics if `capacity` is zero (rendezvous channels are not supported —
/// an event log must be able to buffer at least one event without a
/// consumer already waiting).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be at least 1");
    channel_with_capacity(Some(capacity))
}

/// The sending half; clone freely (multi-producer).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Sender<T> {
    /// Appends a message. On an unbounded channel this never blocks; on a
    /// bounded channel it blocks while the channel is full. Fails
    /// (returning the message) when the [`Receiver`] has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_until(value, None)
            .map_err(|e| SendError(e.into_inner()))
    }

    /// Appends a whole batch of messages under one lock acquisition and
    /// (at most) one receiver wakeup, draining `values`.
    ///
    /// This is the amortization primitive for batched logging: a
    /// per-thread buffer flushing 64 events pays one lock round-trip
    /// instead of 64. On a bounded channel the batch respects capacity —
    /// the call blocks mid-batch while the channel is full, having handed
    /// the receiver what fitted so it can free capacity, which preserves
    /// the backpressure contract of [`Sender::send`].
    ///
    /// # Errors
    ///
    /// [`SendError`] when the [`Receiver`] is gone (immediately or
    /// mid-batch), carrying how many messages were *not* queued so the
    /// caller can account for them; those are dropped. `values` is left
    /// empty either way.
    pub fn send_many(&self, values: &mut Vec<T>) -> Result<(), SendError<usize>> {
        // Dropping the drain, on any way out, empties `values`.
        let mut pending = values.drain(..);
        while pending.len() > 0 {
            let mut state = self.shared.lock();
            while self.shared.blocked(&state, Side::Sender) {
                state = self.shared.wait(state, Side::Sender, None);
            }
            if !state.receiver_alive {
                return Err(SendError(pending.len()));
            }
            let room = match self.shared.capacity {
                Some(cap) => cap - state.queue.len(),
                None => usize::MAX,
            };
            let n = room.min(pending.len());
            state.queue.extend(pending.by_ref().take(n));
            self.shared.pushed(state, n);
        }
        Ok(())
    }

    /// Like [`Sender::send`], but gives up after `timeout` instead of
    /// blocking indefinitely on a full bounded channel.
    ///
    /// This is the primitive behind shed-style overload policies: the
    /// producer bounds how long it will wait for the consumer, then makes
    /// an explicit, *counted* decision about the message instead of
    /// deadlocking (the failure mode the old all-or-nothing blocking send
    /// documented as a sizing rule).
    ///
    /// # Errors
    ///
    /// [`SendTimeoutError::Closed`] when the [`Receiver`] is gone (also
    /// when it drops mid-wait — a blocked sender must wake with the error,
    /// not sleep forever); [`SendTimeoutError::Timeout`] when the channel
    /// stayed full for the whole timeout. Both carry the value back.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_until(value, Some(Instant::now() + timeout))
    }

    /// [`Sender::send`] with an optional deadline; `Timeout` only with
    /// one.
    fn send_until(&self, value: T, deadline: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
        let mut state = self.shared.lock();
        while self.shared.blocked(&state, Side::Sender) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(SendTimeoutError::Timeout(value));
            }
            state = self.shared.wait(state, Side::Sender, deadline);
        }
        if !state.receiver_alive {
            return Err(SendTimeoutError::Closed(value));
        }
        state.queue.push_back(value);
        self.shared.pushed(state, 1);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // The count changed under the lock a parked receiver re-takes
            // before it re-checks `senders`, so the wakeup cannot be lost.
            self.shared.disconnected(state, Side::Receiver);
        }
    }
}

/// The receiving half (single consumer by convention; `&self` methods).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

impl<T> Receiver<T> {
    /// The channel's capacity: `Some(n)` for a bounded channel, `None`
    /// for unbounded. Lets a consumer adapt its drain discipline to the
    /// producers' blocking behavior (bounded-channel producers park —
    /// and shed-style producers park *with a deadline* — so consumers
    /// of bounded channels should keep their service stints short).
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity
    }

    /// Blocks until a message is available or the channel disconnects.
    /// Buffered messages are always drained before [`RecvError`].
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Blocks until at least one message is available, then drains the
    /// *entire* queue into `buf` under a single lock acquisition,
    /// returning how many messages were appended.
    ///
    /// This is the consumer-side twin of [`Sender::send_many`]: a checker
    /// that processes events batch-at-a-time pays one lock round-trip and
    /// one wakeup per batch instead of per event. `buf` is not cleared —
    /// messages are appended after its existing contents — so a caller
    /// can reuse one allocation across calls (`buf.clear()` then
    /// `recv_many`).
    ///
    /// On a bounded channel *every* blocked sender is woken (a bulk drain
    /// frees many slots at once, so `notify_one` would strand all but one
    /// of them until the next receive).
    ///
    /// # Errors
    ///
    /// [`RecvError`] only when the channel is empty *and* every sender is
    /// gone — buffered messages are always drained first, like
    /// [`Receiver::recv`].
    pub fn recv_many(&self, buf: &mut Vec<T>) -> Result<usize, RecvError> {
        self.recv_up_to(buf, usize::MAX)
    }

    /// Like [`Receiver::recv_many`], but takes at most `max` messages.
    ///
    /// The cap bounds the *consumer's service stint*: a consumer that
    /// drains the whole queue then processes it holds producers off for
    /// the full batch's processing time, which matters when producers
    /// bound their own waits (shed-style overload policies time out and
    /// drop instead of waiting out a long stint). A capped drain keeps
    /// the free-a-slot cadence close to per-event consumption while
    /// still amortizing the lock and wakeup costs `max`-fold.
    ///
    /// # Panics
    ///
    /// `max` must be at least 1.
    pub fn recv_up_to(&self, buf: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        assert!(max > 0, "recv_up_to cap must be at least 1");
        let mut state = self.shared.lock();
        while self.shared.blocked(&state, Side::Receiver) {
            state = self.shared.wait(state, Side::Receiver, None);
        }
        if state.queue.is_empty() {
            return Err(RecvError);
        }
        let n = state.queue.len().min(max);
        buf.extend(state.queue.drain(..n));
        self.shared.popped(state, n);
        Ok(n)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(v) => {
                self.shared.popped(state, 1);
                Ok(v)
            }
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// [`Receiver::recv`] with an optional deadline; `Timeout` only with
    /// one.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut state = self.shared.lock();
        while self.shared.blocked(&state, Side::Receiver) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RecvTimeoutError::Timeout);
            }
            state = self.shared.wait(state, Side::Receiver, deadline);
        }
        match state.queue.pop_front() {
            Some(v) => {
                self.shared.popped(state, 1);
                Ok(v)
            }
            None => Err(RecvTimeoutError::Disconnected),
        }
    }

    /// Number of messages currently buffered, read without the queue
    /// lock: exact while the channel is at rest, and off by at most the
    /// batches in flight while a send or receive is completing — but
    /// never above a bounded channel's capacity.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the buffer is currently empty (see [`Receiver::len`]).
    pub fn is_empty(&self) -> bool {
        self.shared.len() == 0
    }

    /// Total messages ever received through this channel.
    ///
    /// Monotone across the receiver's lifetime; a supervisor restarting a
    /// crashed consumer diffs this around the crash to report how many
    /// messages the dead consumer had already taken off the queue (work
    /// that is lost unless the replacement can re-derive it).
    pub fn popped(&self) -> u64 {
        self.shared.lock().popped
    }

    /// A read-only probe of this channel's queue, detached from the
    /// single-consumer discipline: it can be cloned and shipped to a
    /// supervisor thread without granting it the ability to receive.
    pub fn monitor(&self) -> Monitor<T> {
        Monitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A blocking iterator: yields until the channel is empty *and*
    /// disconnected.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// A non-blocking iterator over the currently buffered messages.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver_alive = false;
        // Senders blocked on a full channel must observe the dead
        // receiver and fail out instead of sleeping forever.
        self.shared.disconnected(state, Side::Sender);
    }
}

/// A passive observer of one channel's queue, handed out by
/// [`Receiver::monitor`].
///
/// Holds the shared state but participates in none of the disconnect
/// bookkeeping: dropping a `Monitor` never closes the channel, and a
/// `Monitor` outliving the `Receiver` simply keeps reporting the frozen
/// final counters. An overload controller samples `len()` (current
/// occupancy) and `popped()` (monotone consumption) to tell a checker
/// that is *slow* from one that has *stopped*: occupancy > 0 with
/// `popped` frozen across a deadline is a stuck shard.
pub struct Monitor<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Monitor<T> {
    fn clone(&self) -> Self {
        Monitor {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> fmt::Debug for Monitor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Monitor { .. }")
    }
}

impl<T> Monitor<T> {
    /// Number of messages currently buffered (see [`Receiver::len`]).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the buffer is currently empty (see [`Receiver::len`]).
    pub fn is_empty(&self) -> bool {
        self.shared.len() == 0
    }

    /// Total messages ever received through this channel (monotone).
    pub fn popped(&self) -> u64 {
        self.shared.lock().popped
    }

    /// Condvar notifies this channel has actually made, on either side:
    /// one per idle period of a consumer that parks, none for one that
    /// never goes idle (see the module docs).
    pub fn wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }
}

/// Blocking iterator returned by [`Receiver::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Non-blocking iterator returned by [`Receiver::try_iter`].
#[derive(Debug)]
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Owning blocking iterator returned by [`Receiver::into_iter`].
#[derive(Debug)]
pub struct IntoIter<T> {
    receiver: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_recv_empty_then_value_then_disconnected() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn disconnect_drains_buffered_messages_first() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn dropping_last_sender_wakes_blocked_receiver() {
        let (tx, rx) = unbounded::<i32>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn dropping_a_clone_does_not_disconnect() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_to_dropped_receiver_returns_the_value() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(41), Err(SendError(41)));
    }

    #[test]
    fn recv_timeout_orderings() {
        let (tx, rx) = unbounded();
        // Value already queued: immediate.
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(1));
        // Empty but connected: times out.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        // Value arrives mid-wait: received.
        let t = {
            let tx = tx.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                tx.send(2).unwrap();
            })
        };
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
        t.join().unwrap();
        // Disconnected while empty: Disconnected, not Timeout.
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn iterators_drain_until_disconnect() {
        let (tx, rx) = unbounded();
        let producer = thread::spawn(move || {
            for i in 0..50 {
                tx.send(i).unwrap();
            }
        });
        let collected: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(collected, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn try_iter_is_non_blocking() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let drained: Vec<i32> = rx.try_iter().collect();
        assert_eq!(drained, vec![1, 2]);
        // Channel still connected; try_iter stopped instead of blocking.
        tx.send(3).unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Third send must block until the receiver pops.
        let t = thread::spawn(move || {
            tx.send(3).unwrap();
            3
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.len(), 2, "third send should still be blocked");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(t.join().unwrap(), 3);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_errors_out_when_receiver_drops_mid_block() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError(2)));
    }

    /// Regression companion to
    /// `bounded_send_errors_out_when_receiver_drops_mid_block`: *several*
    /// senders parked on the same full channel must all wake with
    /// `Err(Closed)` when the receiver drops — `Receiver::drop` has to
    /// `notify_all`, not `notify_one`, or all but one sender sleep
    /// forever.
    #[test]
    fn every_blocked_sender_wakes_with_err_when_receiver_drops() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let blocked: Vec<_> = (1..=4)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i))
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.len(), 1, "all four senders should still be blocked");
        drop(rx);
        for t in blocked {
            let result = t.join().unwrap();
            assert!(matches!(result, Err(SendError(_))), "sender must fail out, not hang");
        }
    }

    #[test]
    fn send_timeout_times_out_on_a_full_channel() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let start = Instant::now();
        let err = tx.send_timeout(2, Duration::from_millis(20)).unwrap_err();
        assert!(err.is_timeout());
        assert_eq!(err.into_inner(), 2);
        assert!(start.elapsed() >= Duration::from_millis(20));
        // The queued message is untouched.
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn send_timeout_succeeds_once_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            rx.recv().unwrap();
            rx
        });
        tx.send_timeout(2, Duration::from_secs(5)).unwrap();
        let rx = t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn send_timeout_reports_closed_when_receiver_drops_mid_wait() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send_timeout(2, Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        match t.join().unwrap() {
            Err(SendTimeoutError::Closed(v)) => assert_eq!(v, 2),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn send_timeout_reports_closed_not_timeout_when_already_disconnected() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert!(matches!(
            tx.send_timeout(9, Duration::from_millis(1)),
            Err(SendTimeoutError::Closed(9))
        ));
    }

    #[test]
    fn send_many_preserves_order_and_drains_the_batch() {
        let (tx, rx) = unbounded();
        let mut batch: Vec<i32> = (0..10).collect();
        tx.send_many(&mut batch).unwrap();
        assert!(batch.is_empty());
        tx.send(10).unwrap();
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, (0..11).collect::<Vec<_>>());
        // Empty batch is a no-op.
        tx.send_many(&mut Vec::new()).unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_many_wakes_a_blocked_receiver() {
        let (tx, rx) = unbounded::<i32>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        tx.send_many(&mut vec![9, 10]).unwrap();
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn send_many_respects_bounded_capacity() {
        let (tx, rx) = bounded(2);
        let t = thread::spawn(move || {
            let mut batch: Vec<i32> = (0..20).collect();
            tx.send_many(&mut batch).unwrap();
            assert!(batch.is_empty());
        });
        // The producer must stall at the bound, not buffer past it.
        thread::sleep(Duration::from_millis(20));
        assert!(rx.len() <= 2);
        let got: Vec<i32> = rx.iter().collect();
        t.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn send_many_to_dropped_receiver_fails_and_empties() {
        let (tx, rx) = unbounded();
        drop(rx);
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.send_many(&mut batch), Err(SendError(3)));
        assert!(batch.is_empty());
    }

    #[test]
    fn send_many_fails_out_when_receiver_drops_mid_batch() {
        let (tx, rx) = bounded(1);
        let t = thread::spawn(move || {
            let mut batch: Vec<i32> = (0..10).collect();
            tx.send_many(&mut batch)
        });
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError(9)));
    }

    #[test]
    fn recv_many_drains_the_whole_queue_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut buf = vec![-1];
        assert_eq!(rx.recv_many(&mut buf), Ok(10));
        // Appends after existing contents; caller controls clearing.
        assert_eq!(buf, (-1..10).collect::<Vec<_>>());
        assert_eq!(rx.popped(), 10);
        drop(tx);
        buf.clear();
        assert_eq!(rx.recv_many(&mut buf), Err(RecvError));
        assert!(buf.is_empty());
    }

    #[test]
    fn recv_up_to_caps_the_drain_and_keeps_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_up_to(&mut buf, 4), Ok(4));
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(rx.popped(), 4);
        assert_eq!(rx.recv_up_to(&mut buf, 4), Ok(4));
        // Shorter final drain, then disconnect.
        assert_eq!(rx.recv_up_to(&mut buf, 4), Ok(2));
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.popped(), 10);
        assert_eq!(rx.recv_up_to(&mut buf, 4), Err(RecvError));
    }

    /// A capped drain of a full bounded channel must still wake blocked
    /// senders: the freed slots belong to whoever is parked.
    #[test]
    fn recv_up_to_frees_slots_for_blocked_senders() {
        let (tx, rx) = bounded(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let blocked = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(2))
        };
        thread::sleep(Duration::from_millis(20));
        let mut buf = Vec::new();
        assert_eq!(rx.recv_up_to(&mut buf, 1), Ok(1));
        assert_eq!(buf, vec![0]);
        assert_eq!(blocked.join().unwrap(), Ok(()));
        drop(tx);
        while let Ok(_n) = rx.recv_up_to(&mut buf, 1) {}
        assert_eq!(buf, vec![0, 1, 2]);
    }

    #[test]
    fn recv_many_blocks_until_a_message_arrives() {
        let (tx, rx) = unbounded::<i32>();
        let t = thread::spawn(move || {
            let mut buf = Vec::new();
            let n = rx.recv_many(&mut buf);
            (n, buf)
        });
        thread::sleep(Duration::from_millis(20));
        tx.send_many(&mut vec![7, 8, 9]).unwrap();
        let (n, buf) = t.join().unwrap();
        assert_eq!(n, Ok(3));
        assert_eq!(buf, vec![7, 8, 9]);
    }

    #[test]
    fn recv_many_drains_buffered_messages_before_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_many(&mut buf), Ok(2));
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(rx.recv_many(&mut buf), Err(RecvError));
    }

    /// A bulk drain frees every slot of a bounded channel at once, so all
    /// parked senders must wake — `notify_one` would strand the rest.
    #[test]
    fn recv_many_wakes_every_blocked_sender() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let blocked: Vec<_> = (1..=3)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i))
            })
            .collect();
        drop(tx);
        thread::sleep(Duration::from_millis(30));
        let mut got = Vec::new();
        while rx.recv_many(&mut got).is_ok() {}
        for t in blocked {
            t.join().unwrap().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn popped_counts_total_receives() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.popped(), 0);
        rx.recv().unwrap();
        rx.try_recv().unwrap();
        rx.recv_timeout(Duration::from_millis(5)).unwrap();
        assert_eq!(rx.popped(), 3);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn bounded_drains_before_disconnect_like_unbounded() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn bounded_rejects_zero_capacity() {
        let _ = bounded::<i32>(0);
    }

    #[test]
    fn mpsc_from_many_threads_delivers_everything() {
        let (tx, rx) = unbounded();
        let mut producers = Vec::new();
        for t in 0..8 {
            let tx = tx.clone();
            producers.push(thread::spawn(move || {
                for i in 0..500 {
                    tx.send((t, i)).unwrap();
                }
            }));
        }
        drop(tx);
        let mut counts = [0usize; 8];
        let mut last_seen = [-1i64; 8];
        for (t, i) in rx.iter() {
            counts[t] += 1;
            // Per-producer FIFO order.
            assert!(i64::from(i) > last_seen[t]);
            last_seen[t] = i64::from(i);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(counts.iter().all(|&c| c == 500));
    }

    // ---- the wait protocol -------------------------------------------
    //
    // A test cannot see a thread *spinning*; it can see one parked (the
    // `Waiters` count, read under the lock) and it can see, afterwards,
    // whether a notify was needed (`Monitor::wakeups`). "While spinning"
    // cases therefore race the event against a waiter that has just been
    // released by a barrier, many times over, and check every outcome.

    /// Threads parked on `side` with no wake on its way to them.
    fn parked<T>(shared: &Shared<T>, side: Side) -> usize {
        let mut state = shared.lock();
        let waiters = state.waiters(side);
        waiters.parked - waiters.notified
    }

    fn until(condition: impl Fn() -> bool) {
        while !condition() {
            thread::yield_now();
        }
    }

    /// Capacity 1, one producer, one consumer: the producer finds the
    /// channel full and the consumer finds it empty over and over, so
    /// every kind of wait and wake is crossed many thousands of times.
    #[test]
    fn capacity_one_ping_pong_delivers_everything_in_order() {
        const MESSAGES: u32 = 200_000;
        let (tx, rx) = bounded(1);
        let producer = thread::spawn(move || {
            for i in 0..MESSAGES {
                tx.send(i).unwrap();
            }
        });
        for i in 0..MESSAGES {
            assert_eq!(rx.recv(), Ok(i));
        }
        producer.join().unwrap();
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.popped(), u64::from(MESSAGES));
        assert_eq!(rx.len(), 0, "the occupancy word is exact at rest");
    }

    /// The occupancy word may lead a full queue by the batches in flight;
    /// the published length must not (an overload controller compares it
    /// against the capacity).
    #[test]
    fn len_never_reads_above_capacity() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        let monitor = rx.monitor();
        rx.shared.occupancy.store(4 + 2, Ordering::Relaxed);
        assert_eq!(rx.len(), 4);
        assert_eq!(monitor.len(), 4);
        // A pop's delta landing before its push's: a negative sum.
        rx.shared.occupancy.store(0usize.wrapping_sub(1), Ordering::Relaxed);
        assert_eq!(rx.len(), 0);
        assert_eq!(monitor.len(), 0);
        assert!(monitor.is_empty());
    }

    #[test]
    fn close_wakes_a_parked_receiver_with_one_notify() {
        let (tx, rx) = unbounded::<i32>();
        let monitor = rx.monitor();
        let shared = Arc::clone(&rx.shared);
        let t = thread::spawn(move || rx.recv());
        until(|| parked(&shared, Side::Receiver) == 1);
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
        assert_eq!(monitor.wakeups(), 1);
    }

    #[test]
    fn close_reaches_a_receiver_that_is_still_spinning() {
        let mut met_a_spinner = false;
        for _ in 0..500 {
            let (tx, rx) = unbounded::<i32>();
            let monitor = rx.monitor();
            let start = Arc::new(std::sync::Barrier::new(2));
            let t = {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    rx.recv()
                })
            };
            start.wait();
            drop(tx);
            assert_eq!(t.join().unwrap(), Err(RecvError));
            // No notify ⇒ the receiver was not parked when the sender
            // went: it met the disconnect on its own.
            assert!(monitor.wakeups() <= 1);
            met_a_spinner |= monitor.wakeups() == 0;
        }
        assert!(
            met_a_spinner || !spin_before_park(),
            "500 immediate closes never beat the park"
        );
    }

    #[test]
    fn receiver_drop_fails_a_parked_sender_with_one_notify() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let monitor = rx.monitor();
        let shared = Arc::clone(&rx.shared);
        let t = thread::spawn(move || tx.send(2));
        until(|| parked(&shared, Side::Sender) == 1);
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError(2)));
        assert_eq!(monitor.wakeups(), 1);
    }

    #[test]
    fn receiver_drop_reaches_a_sender_that_is_still_spinning() {
        let mut met_a_spinner = false;
        for _ in 0..500 {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let monitor = rx.monitor();
            let start = Arc::new(std::sync::Barrier::new(2));
            let t = {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    tx.send_timeout(2, Duration::from_secs(30))
                })
            };
            start.wait();
            drop(rx);
            assert!(matches!(
                t.join().unwrap(),
                Err(SendTimeoutError::Closed(2))
            ));
            assert!(monitor.wakeups() <= 1);
            met_a_spinner |= monitor.wakeups() == 0;
        }
        assert!(
            met_a_spinner || !spin_before_park(),
            "500 immediate drops never beat the park"
        );
    }

    /// A deadline inside the spin bound ends the spin: the call must not
    /// sit out the whole bound first. The fastest of many attempts is
    /// what the implementation takes when nothing preempts it.
    #[test]
    fn send_timeout_shorter_than_the_spin_bound_is_on_time() {
        let timeout = SPIN / 10;
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let mut fastest = Duration::MAX;
        for _ in 0..200 {
            let start = Instant::now();
            let err = tx.send_timeout(2, timeout).unwrap_err();
            let took = start.elapsed();
            assert!(err.is_timeout());
            assert!(took >= timeout, "gave up after {took:?}");
            fastest = fastest.min(took);
        }
        assert!(
            fastest < SPIN || !spin_before_park(),
            "no attempt beat the spin bound: {fastest:?}"
        );
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1]);
    }

    /// `send_many` that fills the channel mid-batch hands over what it
    /// queued before it waits: a receiver parked on the empty channel is
    /// woken for it, and a probe sees it.
    #[test]
    fn send_many_blocked_mid_batch_hands_over_what_it_queued() {
        let (tx, rx) = bounded(2);
        let shared = Arc::clone(&rx.shared);
        let (first_tx, first_rx) = unbounded();
        let consumer = thread::spawn(move || {
            let first = rx.recv_timeout(Duration::from_secs(30));
            first_tx.send(rx.len()).unwrap();
            let mut rest = Vec::new();
            while let Ok(v) = rx.recv_timeout(Duration::from_secs(30)) {
                rest.push(v);
            }
            (first, rest)
        });
        until(|| parked(&shared, Side::Receiver) == 1);
        let mut batch: Vec<i32> = (0..10).collect();
        tx.send_many(&mut batch).unwrap();
        assert!(batch.is_empty());
        drop(tx);
        let (first, rest) = consumer.join().unwrap();
        assert_eq!(first, Ok(0));
        assert!(
            first_rx.recv().unwrap() <= 2,
            "len() never passes capacity here"
        );
        assert_eq!(rest, (1..10).collect::<Vec<_>>());
    }

    /// A consumer that never goes idle costs no notify at all, on either
    /// side, bounded or not.
    #[test]
    fn no_wakeups_without_a_parked_waiter() {
        let (tx, rx) = unbounded();
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        tx.send_many(&mut (0..1000).collect()).unwrap();
        assert_eq!(rx.try_iter().count(), 2000);
        assert_eq!(rx.monitor().wakeups(), 0);

        let (tx, rx) = bounded(4);
        let mut buf = Vec::new();
        for round in 0..100 {
            tx.send_many(&mut vec![round; 4]).unwrap();
            let full = tx.send_timeout(round, Duration::ZERO).unwrap_err();
            assert!(full.is_timeout());
            rx.recv().unwrap();
            assert_eq!(rx.recv_up_to(&mut buf, 8), Ok(3));
        }
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.monitor().wakeups(), 0);
    }

    /// A consumer that does go idle is woken once per idle period, however
    /// many messages arrive before it runs again.
    #[test]
    fn one_wakeup_per_idle_period() {
        const PERIODS: u64 = 20;
        const BURST: u64 = 50;
        let (tx, rx) = unbounded::<u64>();
        let monitor = rx.monitor();
        let shared = Arc::clone(&rx.shared);
        // The consumer takes one message, then holds still until told the
        // burst is over, so each period has exactly one park.
        let (resume, resumed) = unbounded::<()>();
        let consumer = thread::spawn(move || {
            let mut seen = 0;
            while rx.recv().is_ok() {
                resumed.recv().unwrap();
                seen += 1 + rx.try_iter().count() as u64;
            }
            seen
        });
        for period in 1..=PERIODS {
            until(|| parked(&shared, Side::Receiver) == 1);
            for i in 0..BURST {
                tx.send(i).unwrap();
            }
            assert_eq!(monitor.wakeups(), period);
            resume.send(()).unwrap();
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), PERIODS * BURST);
        // The disconnect found the consumer parked, or did not.
        assert!(monitor.wakeups() <= PERIODS + 1);
    }

    /// Pool workers compete on one `Receiver` for announced shards: every
    /// parked one must be reachable, by a message and by the disconnect.
    #[test]
    fn several_parked_receivers_are_all_woken() {
        let (tx, rx) = unbounded::<u32>();
        let rx = Arc::new(rx);
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let rx = Arc::clone(&rx);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        until(|| parked(&rx.shared, Side::Receiver) == 3);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        until(|| rx.popped() == 3);
        until(|| parked(&rx.shared, Side::Receiver) == 3);
        drop(tx);
        let mut got: Vec<u32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }
}
