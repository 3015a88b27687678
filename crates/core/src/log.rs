//! The event log: instrumented implementation threads write entries, the
//! verification thread reads them (§4.2).
//!
//! Design goals taken from the paper:
//!
//! * **Minimal interference** — implementation threads only append; all
//!   checking happens elsewhere (offline over the recorded log, or online on
//!   a separate verification thread fed through a channel sink). The append
//!   fast path is one relaxed mode load, one uncontended per-thread buffer
//!   lock, one global `fetch_add`, and one `Vec` push — no global lock, no
//!   allocation.
//! * **Total order** — actions must appear in the log in the order they
//!   occur. Every event is stamped with a `seq` drawn from a global
//!   [`AtomicU64`] at append time; the instrumentation sites append while
//!   holding the lock that makes the logged action visible, so the stamp
//!   order equals the order the actions become visible — the paper's
//!   "logged action atomic with its log update" argument (§4.2). Threads
//!   accumulate stamped events in **per-thread buffers**; a merger
//!   releases them to the sink strictly in `seq` order, so every sink
//!   observes the same total order the single-lock design produced.
//! * **Mode control** — "program alone" runs pay only a relaxed atomic load
//!   per instrumentation site ([`LogMode::Off`]); I/O-refinement runs log
//!   call/return/commit only ([`LogMode::Io`]); view-refinement runs
//!   additionally log shared-variable writes and commit blocks
//!   ([`LogMode::View`]). This is exactly the cost split measured in
//!   Table 2.
//!
//! Batching is invisible to readers: [`EventLog::snapshot`],
//! [`EventLog::drain`], [`EventLog::stats`], [`EventLog::flush`], and
//! [`EventLog::close`] all flush every live thread buffer through the
//! merger first, so they observe a totally ordered prefix containing every
//! event appended before the call. A buffer's lifetime is not its
//! batch's: a dropped [`ThreadLogger`] leaves its partial batch on the
//! log's idle list, the next logger the log hands out adopts it, and its
//! events reach the sink when that batch fills or at the next flush point
//! — so a program that takes a handle per call still hands the sink full
//! batches. Dropping the last handle to the log delivers whatever is left.
//!
//! Multi-object programs scope a log handle to one data-structure instance
//! with [`EventLog::with_object`]; every event appended through that handle
//! (or through loggers derived from it) is stamped with the instance's
//! [`ObjectId`], which is what [`crate::shard::ShardRouter`] fans out on.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

use vyrd_rt::channel::{self, Receiver, Sender};
use vyrd_rt::sync::{CachePadded, Mutex};

use crate::codec;
use crate::event::{ArgList, Event, MethodId, ObjectId, ThreadId, VarId};
use crate::metrics::pipeline;
use crate::segment;
use crate::value::Value;

/// Registry length from which registering a thread buffer prunes dead
/// entries (see `Inner::register`).
const REGISTRY_PRUNE_MIN: usize = 64;

/// Events a thread buffers locally before handing a batch to the merger.
/// Large enough to amortize the merger lock, small enough that online
/// verification latency stays in the microseconds.
const BATCH: usize = 64;

/// Merger-occupancy threshold (events parked in runs) above which a batch
/// submission also flushes every other thread's buffer: the merger can
/// only be this far behind if some buffer is sitting on a low sequence
/// number.
const PRESSURE: usize = 1024;

/// Spent run vectors the merger keeps around for reuse; bounds the idle
/// memory a burst leaves behind while keeping the steady state
/// allocation-free.
const SPARE_RUNS: usize = 8;

/// How much of the execution is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogMode {
    /// Record nothing ("Program alone" rows of Tables 2–3).
    Off,
    /// Record call, return, and commit actions (enough for I/O refinement).
    Io,
    /// Additionally record shared-variable writes and commit-block
    /// boundaries (required for view refinement).
    View,
}

impl LogMode {
    /// The wire encoding of this mode (the codec's v4 header records it).
    pub fn as_u8(self) -> u8 {
        match self {
            LogMode::Off => 0,
            LogMode::Io => 1,
            LogMode::View => 2,
        }
    }

    /// Decodes a wire byte, rejecting unknown values.
    ///
    /// An earlier version mapped every byte ≥ 3 to [`LogMode::View`],
    /// so a corrupted or future-version header silently decoded to the
    /// *most expensive* mode instead of surfacing an error. Unknown
    /// bytes are now a decode failure the codec reports.
    pub fn from_u8(v: u8) -> Option<LogMode> {
        match v {
            0 => Some(LogMode::Off),
            1 => Some(LogMode::Io),
            2 => Some(LogMode::View),
            _ => None,
        }
    }
}

/// An event plus its position in the global total order.
struct Stamped {
    seq: u64,
    event: Event,
}

/// Where merged runs of events go.
///
/// The merger hands each sink a *run*: a batch of owned events already in
/// global `seq` order. Sinks consume the vector (leaving it empty) so its
/// allocation is reused for the next run — this is what removed the
/// per-event clone the old per-event `append(&Event)` interface forced on
/// every destination.
trait Sink: Send {
    fn append_run(&mut self, run: &mut Vec<Event>);
    fn flush(&mut self) {}
}

/// Keeps the whole log in memory for offline checking.
///
/// The buffer is shared with the owning [`EventLog`] so that
/// [`EventLog::snapshot`] and [`EventLog::drain`] can read it back.
struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl Sink for MemorySink {
    fn append_run(&mut self, run: &mut Vec<Event>) {
        self.events.lock().append(run);
    }
}

/// Streams events to a file in the [`codec`] wire format.
///
/// The paper keeps the log in a file "whose tail is kept in memory for
/// faster access"; `BufWriter` plays the role of the in-memory tail. The
/// frame payload is encoded through one reusable scratch buffer, so
/// steady-state encoding allocates nothing.
struct FileSink {
    writer: BufWriter<File>,
    scratch: Vec<u8>,
    error: Option<io::Error>,
}

impl Sink for FileSink {
    fn append_run(&mut self, run: &mut Vec<Event>) {
        for event in run.drain(..) {
            if self.error.is_none() {
                if let Err(e) = codec::write_frame_with(&mut self.writer, &mut self.scratch, &event)
                {
                    self.error = Some(e);
                }
            }
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Forwards events to the online verification thread.
///
/// A whole run goes through [`Sender::send_many`] — one channel lock and
/// one receiver wakeup per batch instead of per event.
struct ChannelSink {
    sender: Sender<Event>,
}

impl Sink for ChannelSink {
    fn append_run(&mut self, run: &mut Vec<Event>) {
        // The receiver hanging up just means the verifier stopped early
        // (e.g. it already found a violation); keep running the program.
        let _ = self.sender.send_many(run);
    }
}

/// Hands whole merged runs to an arbitrary callback — the hook
/// [`crate::shard::ShardRouter`] uses to fan events out per object.
///
/// The callback receives a run of owned events in log order, from inside
/// the merger's critical section; it must consume the vector (leave it
/// empty so its allocation is recycled), stay cheap, and must not call
/// back into the log (the merger lock is held). Routing a whole run at
/// once is what lets the router batch its per-object channel sends.
/// A run-level dispatch callback: receives each delivered run and is
/// expected to drain it (any leftovers are cleared defensively).
type RunDispatch = Box<dyn FnMut(&mut Vec<Event>) + Send>;

struct DispatchSink {
    dispatch: RunDispatch,
}

impl Sink for DispatchSink {
    fn append_run(&mut self, run: &mut Vec<Event>) {
        (self.dispatch)(run);
        // Defensive: a callback that forgot to drain must not make the
        // merger re-deliver the same events with the next run.
        run.clear();
    }
}

/// Spills merged runs to the background segment writer — the durable
/// sink mode behind [`EventLog::to_segments`].
///
/// Each run crosses the channel as an owned `Vec` (the writer thread
/// keeps it), so unlike [`FileSink`] this sink allocates per run; in
/// exchange the program threads never block on disk I/O.
struct SegmentSink {
    handle: segment::SegmentLogHandle,
}

impl Sink for SegmentSink {
    fn append_run(&mut self, run: &mut Vec<Event>) {
        self.handle.append(std::mem::take(run));
    }

    fn flush(&mut self) {
        // A flush that races the writer's shutdown is not an error the
        // log can act on; `SegmentLogHandle::finish` reports it.
        let _ = self.handle.flush_sync();
    }
}

/// Discards events (useful to measure pure instrumentation cost).
struct NullSink;

impl Sink for NullSink {
    fn append_run(&mut self, run: &mut Vec<Event>) {
        run.clear();
    }
}

/// Counters describing the logging activity of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Total events appended.
    pub events: u64,
    /// Call events appended.
    pub calls: u64,
    /// Return events appended.
    pub returns: u64,
    /// Commit events appended.
    pub commits: u64,
    /// Shared-variable write events appended.
    pub writes: u64,
    /// Estimated bytes of logged payload.
    pub bytes: u64,
    /// Events appended after [`EventLog::close`] and therefore dropped —
    /// straggler threads still logging while the run is being torn down.
    pub events_discarded_after_close: u64,
    /// Events dropped by the `log.append` failpoint
    /// ([`vyrd_rt::fault`]) — zero outside fault-injection runs.
    pub events_dropped_injected: u64,
}

#[derive(Default)]
struct AtomicStats {
    events: AtomicU64,
    calls: AtomicU64,
    returns: AtomicU64,
    commits: AtomicU64,
    writes: AtomicU64,
    bytes: AtomicU64,
    discarded_after_close: AtomicU64,
    dropped_injected: AtomicU64,
}

/// Per-batch event counters, accumulated at append time — in the producer
/// thread, not the merger's critical section — and folded into
/// [`AtomicStats`] with one `fetch_add` per touched counter when the
/// batch is accepted. Accepted events always reach the sink (the merger
/// drains its runs even on close), so accept-time accounting equals
/// delivery-time accounting at every flush point.
#[derive(Clone, Copy, Default)]
struct BatchStats {
    events: u64,
    calls: u64,
    returns: u64,
    commits: u64,
    writes: u64,
    bytes: u64,
}

impl BatchStats {
    fn add(&mut self, event: &Event) {
        self.events += 1;
        self.bytes += event.size_estimate() as u64;
        match event {
            Event::Call { .. } => self.calls += 1,
            Event::Return { .. } => self.returns += 1,
            Event::Commit { .. } => self.commits += 1,
            Event::Write { .. } => self.writes += 1,
            Event::BlockBegin { .. } | Event::BlockEnd { .. } => {}
        }
    }
}

impl AtomicStats {
    fn record_batch(&self, b: &BatchStats) {
        if b.events == 0 {
            return;
        }
        self.events.fetch_add(b.events, Ordering::Relaxed);
        self.bytes.fetch_add(b.bytes, Ordering::Relaxed);
        if b.calls > 0 {
            self.calls.fetch_add(b.calls, Ordering::Relaxed);
        }
        if b.returns > 0 {
            self.returns.fetch_add(b.returns, Ordering::Relaxed);
        }
        if b.commits > 0 {
            self.commits.fetch_add(b.commits, Ordering::Relaxed);
        }
        if b.writes > 0 {
            self.writes.fetch_add(b.writes, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> LogStats {
        LogStats {
            events: self.events.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            events_discarded_after_close: self.discarded_after_close.load(Ordering::Relaxed),
            events_dropped_injected: self.dropped_injected.load(Ordering::Relaxed),
        }
    }
}

/// The single consumer of stamped batches: holds out-of-order arrivals as
/// seq-sorted *runs* (one per submitted batch, kept in descending order so
/// the next event to release is a cheap `pop`) and releases the contiguous
/// prefix of the sequence to the sink by k-way merge. k is the number of
/// runs in flight — roughly the number of logging threads — so ordering
/// costs a handful of integer compares per event instead of a
/// heap-of-events sift, and the serial section stays short enough for
/// producers to scale.
struct Merger {
    /// The next sequence number the sink has not yet seen.
    next_seq: u64,
    /// Seq-descending runs of events whose predecessors have not all
    /// arrived yet. Never contains an empty run; seqs are globally unique
    /// across runs.
    runs: Vec<Vec<Stamped>>,
    /// Spent run storage recycled into future batches.
    spare: Vec<Vec<Stamped>>,
    /// Scratch run of released events, handed to the sink and reused.
    run: Vec<Event>,
    sink: Box<dyn Sink>,
    /// Set by [`EventLog::close`]; batches submitted afterwards are
    /// discarded (and counted).
    closed: bool,
}

impl Merger {
    /// Events parked in runs, waiting for a predecessor (the
    /// [`PRESSURE`] gauge).
    fn parked(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// Index of the run holding the smallest outstanding seq.
    fn min_run(&self) -> Option<usize> {
        self.runs
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.last().map_or(u64::MAX, |s| s.seq))
            .map(|(i, _)| i)
    }

    /// Accepts a single stamped event (the unbuffered
    /// [`EventLog::append_event`] path).
    fn insert(&mut self, s: Stamped) {
        // With no gaps outstanding a lone appender takes this contiguous
        // path for every event and no run is ever formed.
        if s.seq == self.next_seq && self.runs.is_empty() {
            self.next_seq += 1;
            self.run.push(s.event);
        } else {
            let mut run = self.spare.pop().unwrap_or_default();
            run.push(s);
            self.runs.push(run);
        }
    }

    /// Accepts a seq-ascending batch, leaving `batch` empty (but with
    /// reusable capacity — possibly a recycled spent run). The common case
    /// — no gaps outstanding and the batch dense from `next_seq` — releases
    /// the whole batch without it ever becoming a run.
    fn insert_batch(&mut self, batch: &mut Vec<Stamped>) {
        if self.runs.is_empty() {
            let dense = batch
                .iter()
                .enumerate()
                .take_while(|(i, s)| s.seq == self.next_seq + *i as u64)
                .count();
            self.next_seq += dense as u64;
            if dense == batch.len() {
                self.run.extend(batch.drain(..).map(|s| s.event));
                return;
            }
            self.run.extend(batch.drain(..dense).map(|s| s.event));
        }
        batch.reverse();
        let mut run = self.spare.pop().unwrap_or_default();
        std::mem::swap(&mut run, batch);
        self.runs.push(run);
    }

    /// Releases the contiguous prefix of the sequence. Once the run
    /// holding `next_seq` is found, its whole dense subsequence pops in a
    /// tight loop: seqs are globally unique, so while this run keeps
    /// matching `next_seq` no other run can hold an intervening event.
    fn release_ready(&mut self) {
        while let Some(min) = self.min_run() {
            let run = &mut self.runs[min];
            if run.last().map(|s| s.seq) != Some(self.next_seq) {
                break;
            }
            while run.last().map(|s| s.seq) == Some(self.next_seq) {
                if let Some(s) = run.pop() {
                    self.next_seq += 1;
                    self.run.push(s.event);
                }
            }
            if run.is_empty() {
                let spent = self.runs.swap_remove(min);
                if self.spare.len() < SPARE_RUNS {
                    self.spare.push(spent);
                }
            }
        }
    }
}

/// One thread's locally buffered events plus their pre-aggregated stats.
///
/// The stats travel with the events, into the merger or onto the idle
/// list and into the buffer that adopts them, so `LogStats` count a batch
/// exactly once, when the merger accepts it, however many buffers it
/// passed through.
#[derive(Default)]
struct PendingBatch {
    batch: Vec<Stamped>,
    stats: BatchStats,
}

/// One thread's append buffer. Registered weakly with the owning log so
/// flush points can drain it; holds the log's `Inner` strongly so the
/// drop below always has an idle list to leave its batch on.
struct ThreadBuffer {
    inner: Arc<Inner>,
    pending: Mutex<PendingBatch>,
}

impl Drop for ThreadBuffer {
    /// Leaves the batch — events, stats and capacity — on the idle list
    /// for the next registered buffer to adopt, rather than submitting it
    /// (the delivery contract this gives is on [`ThreadLogger`]).
    fn drop(&mut self) {
        let pending = std::mem::take(self.pending.get_mut());
        self.inner.idle.lock().push_back(pending);
    }
}

struct Inner {
    /// Read by every append; padded so the `next_seq` ping-pong below
    /// cannot turn those reads into coherence misses.
    mode: CachePadded<AtomicU8>,
    /// Global sequence stamp; drawn under a thread buffer's (or the
    /// merger's) lock so every allocated number is reachable by a flush.
    /// Every logging thread `fetch_add`s this line on every event — it is
    /// the one unavoidable point of cross-thread traffic, so it gets a
    /// cache line to itself.
    next_seq: CachePadded<AtomicU64>,
    merger: Mutex<Merger>,
    /// Batches parked by producers that found the merger busy; drained by
    /// whoever holds the merger lock (the *combiner*) and by every flush
    /// point. Producers never block on the merger.
    backlog: Mutex<Vec<(Vec<Stamped>, BatchStats)>>,
    /// Live thread buffers; pruned of dead entries at each flush and,
    /// amortised, at registration.
    buffers: Mutex<Vec<Weak<ThreadBuffer>>>,
    /// Batches of dropped buffers, oldest first, waiting to be adopted by
    /// the next registered buffer or drained by a flush point. Taken only
    /// with `buffers` held or on its own (lock order buffers → idle).
    idle: Mutex<VecDeque<PendingBatch>>,
    /// Present iff the sink is a [`MemorySink`]; shares its buffer.
    memory: Option<Arc<Mutex<Vec<Event>>>>,
    stats: CachePadded<AtomicStats>,
    next_tid: AtomicU64,
}

impl Inner {
    /// Accepts one batch into the merger (or counts it as discarded after
    /// close); call with the merger locked.
    fn accept(&self, m: &mut Merger, batch: &mut Vec<Stamped>, stats: BatchStats) {
        if m.closed {
            self.stats
                .discarded_after_close
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if vyrd_rt::metrics::enabled() {
                pipeline().log_events_discarded.add(batch.len() as u64);
            }
            batch.clear();
        } else {
            self.stats.record_batch(&stats);
            if vyrd_rt::metrics::enabled() {
                let pm = pipeline();
                pm.log_events_appended.add(batch.len() as u64);
                pm.log_batches_submitted.inc();
                pm.log_batch_occupancy.record(batch.len() as u64);
            }
            m.insert_batch(batch);
        }
    }

    /// Drains batches parked by producers that found the merger busy;
    /// call with the merger locked. Loops until a check finds the backlog
    /// empty, so batches parked *while* draining are picked up too.
    fn drain_backlog(&self, m: &mut Merger) {
        loop {
            let parked = std::mem::take(&mut *self.backlog.lock());
            if parked.is_empty() {
                return;
            }
            for (mut batch, stats) in parked {
                self.accept(m, &mut batch, stats);
            }
            m.release_ready();
        }
    }

    /// Moves a stamped batch into the merger and sinks whatever became
    /// contiguous — without ever blocking on the merger lock: a producer
    /// that finds it held parks the batch on the backlog for the lock
    /// holder and returns (flag-combining). The merger's seq-contiguity
    /// rule keeps the total order intact no matter who merges what, and
    /// every flush point drains the backlog, so a parked batch is only
    /// ever *delayed*, exactly like events sitting in a thread buffer.
    ///
    /// Lock order: (buffers →) buffer → merger → backlog; the relief
    /// flush runs after the merger lock is released, so it re-enters from
    /// the top of that order.
    fn submit(&self, batch: &mut Vec<Stamped>, stats: BatchStats, allow_relief: bool) {
        if batch.is_empty() {
            return;
        }
        let overloaded = {
            let mut m = match self.merger.try_lock() {
                Some(m) => m,
                None => {
                    {
                        let mut backlog = self.backlog.lock();
                        backlog.push((std::mem::take(batch), stats));
                        if vyrd_rt::metrics::enabled() {
                            let pm = pipeline();
                            pm.log_backlog_parked.inc();
                            pm.log_backlog_depth_peak.set_max(backlog.len() as u64);
                        }
                    }
                    // The combiner may have unlocked between the failed
                    // try_lock and the park; retry once so the batch
                    // cannot strand with no one left to merge it.
                    match self.merger.try_lock() {
                        Some(m) => m,
                        None => return,
                    }
                }
            };
            if !batch.is_empty() {
                self.accept(&mut m, batch, stats);
            }
            self.drain_backlog(&mut m);
            m.release_ready();
            self.deliver(&mut m);
            let parked = m.parked();
            if vyrd_rt::metrics::enabled() {
                pipeline().log_merger_parked_peak.set_max(parked as u64);
            }
            parked >= PRESSURE
        };
        // A backlog this deep means some buffer is sitting on a low
        // sequence number; drain everyone so the merger can catch up.
        if allow_relief && overloaded {
            if vyrd_rt::metrics::enabled() {
                pipeline().log_pressure_flushes.inc();
            }
            self.flush_buffers();
        }
    }

    /// Hands the merger's released run to the sink; call with the merger
    /// locked.
    fn deliver(&self, m: &mut Merger) {
        if m.run.is_empty() {
            return;
        }
        let Merger { run, sink, .. } = m;
        sink.append_run(run);
        run.clear();
    }

    /// A new thread buffer, added to the registry `flush_buffers` walks,
    /// that carries on the oldest idle batch if there is one.
    ///
    /// Adoption keeps the batch seq-ascending: the new buffer draws every
    /// later stamp from the global counter under its own lock, and each
    /// such stamp exceeds every stamp already in the batch. Oldest first,
    /// because the oldest batch holds the lowest seqs — one left behind
    /// while fewer loggers come and go would hold every later event in the
    /// merger until a [`PRESSURE`] relief. The pop happens under the
    /// registry lock that `flush_buffers` takes the idle list under, so an
    /// idle batch is always either on that list or in a registered buffer.
    ///
    /// Flushes prune dead entries, but a program can take a handle per
    /// call and never flush (`run_multi` under `vyrd soak`): each dead
    /// `Weak` keeps its buffer's allocation alive, so registration prunes
    /// too — only when the vector is full, and then leaves room for as
    /// many registrations as entries survived, which keeps the cost
    /// amortised O(1) however many loggers are live. Below
    /// [`REGISTRY_PRUNE_MIN`] entries nothing changes, so few-logger
    /// programs allocate exactly as they did.
    fn register(self: &Arc<Self>) -> Arc<ThreadBuffer> {
        let mut registry = self.buffers.lock();
        if registry.len() == registry.capacity() && registry.len() >= REGISTRY_PRUNE_MIN {
            registry.retain(|w| w.strong_count() > 0);
            let live = registry.len();
            registry.reserve(live);
        }
        let mut pending = self.idle.lock().pop_front().unwrap_or_default();
        pending
            .batch
            .reserve(BATCH.saturating_sub(pending.batch.len()));
        let buffer = Arc::new(ThreadBuffer {
            inner: Arc::clone(self),
            pending: Mutex::new(pending),
        });
        registry.push(Arc::downgrade(&buffer));
        buffer
    }

    /// Drains every live thread buffer, then every idle batch, through
    /// the merger. After this returns, every event appended before the
    /// call has reached the sink (stamps are issued under the buffer locks
    /// this walks, and a dropped buffer's batch is on the idle list taken
    /// here or in a buffer registered before it was taken, so no stamped
    /// event can be in flight anywhere else — at worst on the backlog,
    /// which the blocking drain below clears). The emptied idle batches go
    /// back on the list so their capacity is adopted again.
    fn flush_buffers(&self) {
        let (buffers, mut idle): (Vec<Arc<ThreadBuffer>>, _) = {
            let mut registry = self.buffers.lock();
            registry.retain(|w| w.strong_count() > 0);
            let live = registry.iter().filter_map(Weak::upgrade).collect();
            (live, std::mem::take(&mut *self.idle.lock()))
        };
        let mut batch = Vec::new();
        for buffer in buffers {
            let stats;
            {
                let mut pending = buffer.pending.lock();
                std::mem::swap(&mut pending.batch, &mut batch);
                stats = std::mem::take(&mut pending.stats);
            }
            self.submit(&mut batch, stats, false);
        }
        for pending in &mut idle {
            self.submit(
                &mut pending.batch,
                std::mem::take(&mut pending.stats),
                false,
            );
        }
        self.idle.lock().extend(idle);
        // Flush points must guarantee delivery, so this drain *does*
        // block on the merger: anything a racing producer parked is
        // merged before we return.
        let mut m = self.merger.lock();
        self.drain_backlog(&mut m);
        m.release_ready();
        self.deliver(&mut m);
    }
}

impl Drop for Inner {
    /// The last handle to the log is gone, and with it every thread
    /// buffer; deliver what dropped loggers left idle, so a log dropped
    /// without [`EventLog::close`] still hands its sink every event before
    /// the sink itself drops (a channel receiver then sees them all, then
    /// the disconnect).
    fn drop(&mut self) {
        self.flush_buffers();
    }
}

/// The shared event log.
///
/// Clone an `EventLog` freely; clones share the same underlying sink. Hand
/// each thread its own [`ThreadLogger`] via [`EventLog::logger`], and scope
/// a clone to one data-structure instance with [`EventLog::with_object`].
///
/// # Examples
///
/// ```
/// use vyrd_core::log::{EventLog, LogMode};
/// use vyrd_core::Value;
///
/// let log = EventLog::in_memory(LogMode::Io);
/// let t0 = log.logger();
/// t0.call("Insert", &[Value::from(3i64)]);
/// t0.commit();
/// t0.ret("Insert", Value::success());
/// assert_eq!(log.snapshot().len(), 3);
/// ```
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<Inner>,
    /// Object id stamped onto events appended through this handle.
    object: ObjectId,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("mode", &self.mode())
            .field("object", &self.object)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EventLog {
    fn with_sink(mode: LogMode, sink: Box<dyn Sink>) -> EventLog {
        EventLog::build(mode, sink, None)
    }

    fn build(
        mode: LogMode,
        sink: Box<dyn Sink>,
        memory: Option<Arc<Mutex<Vec<Event>>>>,
    ) -> EventLog {
        EventLog {
            inner: Arc::new(Inner {
                mode: CachePadded::new(AtomicU8::new(mode.as_u8())),
                next_seq: CachePadded::new(AtomicU64::new(0)),
                merger: Mutex::new(Merger {
                    next_seq: 0,
                    runs: Vec::new(),
                    spare: Vec::new(),
                    run: Vec::new(),
                    sink,
                    closed: false,
                }),
                backlog: Mutex::new(Vec::new()),
                buffers: Mutex::new(Vec::new()),
                idle: Mutex::new(VecDeque::new()),
                memory,
                stats: CachePadded::new(AtomicStats::default()),
                next_tid: AtomicU64::new(0),
            }),
            object: ObjectId::DEFAULT,
        }
    }

    /// Creates a log that keeps all events in memory.
    pub fn in_memory(mode: LogMode) -> EventLog {
        let events = Arc::new(Mutex::new(Vec::new()));
        EventLog::build(
            mode,
            Box::new(MemorySink {
                events: Arc::clone(&events),
            }),
            Some(events),
        )
    }

    /// Creates a log that discards all events (but still pays the
    /// serialization-free append path — used to isolate instrumentation
    /// cost in benchmarks).
    pub fn discarding(mode: LogMode) -> EventLog {
        EventLog::with_sink(mode, Box::new(NullSink))
    }

    /// Creates a log that streams events to `path` in the binary wire
    /// format (with the versioned header). Read it back with
    /// [`codec::read_log`].
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created or the header cannot be written.
    pub fn to_file<P: AsRef<Path>>(mode: LogMode, path: P) -> io::Result<EventLog> {
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        codec::write_header(&mut writer, mode)?;
        Ok(EventLog::with_sink(
            mode,
            Box::new(FileSink {
                writer,
                scratch: Vec::with_capacity(64),
                error: None,
            }),
        ))
    }

    /// Creates a log whose events are spilled to file-backed segments by
    /// a background writer thread (see [`crate::segment`]): the durable
    /// sink mode for long runs checked by a
    /// [`ContinuousVerifier`](crate::segment::ContinuousVerifier).
    ///
    /// The returned handle controls the writer; call
    /// [`SegmentLogHandle::finish`](crate::segment::SegmentLogHandle::finish)
    /// **after** [`EventLog::close`] to seal the final segment and join
    /// the thread.
    ///
    /// # Errors
    ///
    /// Fails if the segment directory (or its manifest) cannot be
    /// created, or the writer thread cannot be spawned.
    pub fn to_segments(
        mode: LogMode,
        config: segment::SegmentConfig,
    ) -> io::Result<(EventLog, segment::SegmentLogHandle)> {
        let handle = segment::SegmentLogHandle::spawn(mode, config)?;
        let sink = SegmentSink {
            handle: handle.clone(),
        };
        Ok((EventLog::with_sink(mode, Box::new(sink)), handle))
    }

    /// Creates a log that forwards events to a channel for the online
    /// verification thread, returning the receiving end. Events travel in
    /// batches ([`Sender::send_many`]), but arrive on the receiver one at
    /// a time, in total order.
    pub fn to_channel(mode: LogMode) -> (EventLog, Receiver<Event>) {
        let (sender, receiver) = channel::unbounded();
        (
            EventLog::with_sink(mode, Box::new(ChannelSink { sender })),
            receiver,
        )
    }

    /// Creates a log that hands each merged *run* — a batch of owned
    /// events already in total order — to `dispatch`, so a destination
    /// that can forward many events per synchronization point (the shard
    /// router's per-object `send_many`) consumes the run wholesale.
    ///
    /// The callback must leave the vector empty (its allocation is
    /// recycled for the next run). It runs inside the merger's critical
    /// section — per-object order falls out for free, but it must stay
    /// cheap and must not call back into this log.
    pub fn dispatching_runs<F>(mode: LogMode, dispatch: F) -> EventLog
    where
        F: FnMut(&mut Vec<Event>) + Send + 'static,
    {
        EventLog::with_sink(
            mode,
            Box::new(DispatchSink {
                dispatch: Box::new(dispatch),
            }),
        )
    }

    /// The current logging mode.
    pub fn mode(&self) -> LogMode {
        // The atomic only ever holds bytes written by `LogMode::as_u8`,
        // so the decode cannot actually fail.
        LogMode::from_u8(self.inner.mode.load(Ordering::Relaxed)).unwrap_or(LogMode::Off)
    }

    /// Returns a handle scoped to data-structure instance `object`: events
    /// appended through it (and loggers derived from it) carry that id.
    /// The underlying sink, mode, and stats stay shared.
    pub fn with_object(&self, object: ObjectId) -> EventLog {
        EventLog {
            inner: Arc::clone(&self.inner),
            object,
        }
    }

    /// The object id this handle stamps onto events.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Returns a logger handle for the calling thread, with a fresh thread
    /// id.
    ///
    /// Hoist one per thread where the program allows it, or take one per
    /// call: the handle's buffer carries on the batch the last dropped
    /// handle left (see [`ThreadLogger`]), so either way the sink receives
    /// full batches.
    pub fn logger(&self) -> ThreadLogger {
        let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed) as u32;
        self.logger_for(ThreadId(tid))
    }

    /// Returns a logger handle with an explicit thread id (useful when the
    /// harness wants stable ids across runs).
    pub fn logger_for(&self, tid: ThreadId) -> ThreadLogger {
        ThreadLogger {
            log: self.clone(),
            buf: self.inner.register(),
            tid,
            object: self.object,
        }
    }

    /// Counters accumulated so far (flushes thread buffers first, so every
    /// event appended before this call is counted).
    pub fn stats(&self) -> LogStats {
        self.inner.flush_buffers();
        self.inner.stats.snapshot()
    }

    /// Copies out the events recorded so far, in total order.
    ///
    /// Only meaningful for in-memory logs; returns an empty vector for
    /// file, channel, and discarding sinks.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.flush_buffers();
        match &self.inner.memory {
            Some(events) => events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Drains the events recorded so far, leaving the log empty.
    ///
    /// Like [`EventLog::snapshot`], only meaningful for in-memory logs.
    pub fn drain(&self) -> Vec<Event> {
        self.inner.flush_buffers();
        match &self.inner.memory {
            Some(events) => std::mem::take(&mut *events.lock()),
            None => Vec::new(),
        }
    }

    /// Flushes thread buffers through the merger and then buffered sink
    /// output (file sinks).
    pub fn flush(&self) {
        self.inner.flush_buffers();
        self.inner.merger.lock().sink.flush();
    }

    /// Closes the log: thread buffers are drained one final time,
    /// subsequent appends are discarded (and counted in
    /// [`LogStats::events_discarded_after_close`]), and for channel sinks
    /// the sending side is dropped so the verification thread's
    /// [`Checker::check_receiver`](crate::checker::Checker::check_receiver)
    /// run terminates — even if [`ThreadLogger`] handles are still alive.
    pub fn close(&self) {
        self.inner.flush_buffers();
        let mut m = self.inner.merger.lock();
        self.inner.drain_backlog(&mut m);
        m.closed = true;
        // Normally the flush above leaves no runs behind (sequence numbers
        // are dense and all reachable through the buffers); drain anything
        // left in seq order for robustness, jumping any gaps.
        while let Some(min) = m.min_run() {
            if let Some(s) = m.runs[min].last() {
                m.next_seq = s.seq;
            }
            m.release_ready();
        }
        self.inner.deliver(&mut m);
        m.sink.flush();
        m.sink = Box::new(NullSink);
    }

    /// Appends a pre-built event (subject only to the [`LogMode::Off`]
    /// gate). [`ThreadLogger`] is the usual front door; this entry point
    /// exists for replay tooling and tests that carry whole [`Event`]s.
    ///
    /// Bypasses the per-thread buffers: the event is stamped and merged
    /// immediately, so single-producer replay streams reach the sink with
    /// no batching delay.
    pub fn append_event(&self, event: Event) {
        if self.mode() == LogMode::Off {
            return;
        }
        // `log.append` failpoint: a Drop disposition loses this event (as a
        // crashing writer would) but counts the loss so a report can show
        // the gap in coverage. Evaluated before a seq is drawn, so dropped
        // events leave no hole in the sequence.
        if vyrd_rt::fault::enabled() {
            if let vyrd_rt::fault::Disposition::Drop = vyrd_rt::fault::inject("log.append") {
                self.inner
                    .stats
                    .dropped_injected
                    .fetch_add(1, Ordering::Relaxed);
                if vyrd_rt::metrics::enabled() {
                    pipeline().log_events_dropped_injected.inc();
                }
                return;
            }
        }
        let mut m = self.inner.merger.lock();
        if m.closed {
            self.inner
                .stats
                .discarded_after_close
                .fetch_add(1, Ordering::Relaxed);
            if vyrd_rt::metrics::enabled() {
                pipeline().log_events_discarded.inc();
            }
            return;
        }
        let mut stats = BatchStats::default();
        stats.add(&event);
        self.inner.stats.record_batch(&stats);
        if vyrd_rt::metrics::enabled() {
            pipeline().log_events_appended.inc();
        }
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        m.insert(Stamped { seq, event });
        self.inner.drain_backlog(&mut m);
        m.release_ready();
        self.inner.deliver(&mut m);
    }
}

/// Per-thread logging handle.
///
/// All methods are cheap no-ops when the log mode does not require the
/// event kind (e.g. [`ThreadLogger::write`] in [`LogMode::Io`]). Events are
/// stamped with a global sequence number at the call and buffered locally;
/// see the module docs for when buffers drain.
///
/// Dropping the last clone of a handle does not flush it: its events reach
/// the sink when the batch they are in fills — in the next handle the log
/// hands out, which adopts it — or at the next flush point
/// ([`EventLog::flush`], [`EventLog::close`], …), or when the last handle
/// to the log drops. A program that needs a dropped handle's events
/// delivered *now* calls [`EventLog::flush`].
#[derive(Clone)]
pub struct ThreadLogger {
    log: EventLog,
    buf: Arc<ThreadBuffer>,
    tid: ThreadId,
    object: ObjectId,
}

impl std::fmt::Debug for ThreadLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLogger")
            .field("tid", &self.tid)
            .field("object", &self.object)
            .finish()
    }
}

impl ThreadLogger {
    /// The thread id this handle stamps onto events.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The object id this handle stamps onto events.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The log this handle appends to.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Returns a handle for the same thread scoped to another object —
    /// how one application thread logs against several data-structure
    /// instances (§6.1 keeps their actions in separate per-object logs).
    /// The two handles share one append buffer (events carry their object
    /// individually).
    pub fn for_object(&self, object: ObjectId) -> ThreadLogger {
        ThreadLogger {
            log: self.log.clone(),
            buf: Arc::clone(&self.buf),
            tid: self.tid,
            object,
        }
    }

    /// `true` when shared-variable writes are being recorded; substrates
    /// can use this to skip building expensive coarse-grained records.
    pub fn records_writes(&self) -> bool {
        self.log.mode() == LogMode::View
    }

    /// Stamps `event` with the next global sequence number and buffers it.
    ///
    /// The stamp is drawn *inside* the buffer lock: this keeps per-buffer
    /// batches seq-ascending (the merger's contiguous fast path) and
    /// guarantees every issued number is reachable by a buffer flush —
    /// there is no window where a stamped event exists outside any buffer.
    fn push(&self, event: Event) -> Option<u64> {
        if vyrd_rt::fault::enabled() {
            if let vyrd_rt::fault::Disposition::Drop = vyrd_rt::fault::inject("log.append") {
                self.log
                    .inner
                    .stats
                    .dropped_injected
                    .fetch_add(1, Ordering::Relaxed);
                if vyrd_rt::metrics::enabled() {
                    pipeline().log_events_dropped_injected.inc();
                }
                return None;
            }
        }
        let mut full = None;
        let seq;
        {
            let mut pending = self.buf.pending.lock();
            seq = self.log.inner.next_seq.fetch_add(1, Ordering::Relaxed);
            pending.stats.add(&event);
            pending.batch.push(Stamped { seq, event });
            if pending.batch.len() >= BATCH {
                full = Some((
                    std::mem::take(&mut pending.batch),
                    std::mem::take(&mut pending.stats),
                ));
            }
        }
        if let Some((mut batch, stats)) = full {
            self.log.inner.submit(&mut batch, stats, true);
            // Recycle the batch's capacity so the steady state allocates
            // nothing: move any events pushed meanwhile into it and swap.
            let mut pending = self.buf.pending.lock();
            if batch.capacity() > pending.batch.capacity() {
                batch.append(&mut pending.batch);
                pending.batch = batch;
            }
        }
        Some(seq)
    }

    /// Logs a call action.
    ///
    /// `method` is anything convertible to a [`MethodId`]; passing an
    /// already-interned id (as [`MethodSession`](crate::instrument::MethodSession)
    /// does) skips the per-event hash.
    pub fn call(&self, method: impl Into<MethodId>, args: &[Value]) {
        self.call_seq(method.into(), args);
    }

    /// Logs a call action, returning the event's global sequence number —
    /// `None` in [`LogMode::Off`] or when an injected fault dropped the
    /// event. Span-recording instrumentation uses the seq to key the span
    /// to the recorded trace.
    pub(crate) fn call_seq(&self, method: MethodId, args: &[Value]) -> Option<u64> {
        if self.log.mode() == LogMode::Off {
            return None;
        }
        self.push(Event::Call {
            tid: self.tid,
            object: self.object,
            method,
            args: ArgList::from_slice(args),
        })
    }

    /// Logs a return action.
    pub fn ret(&self, method: impl Into<MethodId>, ret: Value) {
        if self.log.mode() == LogMode::Off {
            return;
        }
        self.push(Event::Return {
            tid: self.tid,
            object: self.object,
            method: method.into(),
            ret,
        });
    }

    /// Logs a return action from a borrowed value, cloning only when the
    /// event is actually recorded — the shape instrumentation wants, since
    /// the return value usually lives on to be returned to the caller.
    pub fn ret_ref(&self, method: impl Into<MethodId>, ret: &Value) {
        if self.log.mode() == LogMode::Off {
            return;
        }
        self.push(Event::Return {
            tid: self.tid,
            object: self.object,
            method: method.into(),
            ret: ret.clone(),
        });
    }

    /// Logs the commit action of the current method execution (§4.1).
    ///
    /// Call this while holding the lock that makes the committed effect
    /// visible, so the log order of commits matches their order in the
    /// execution.
    pub fn commit(&self) {
        if self.log.mode() == LogMode::Off {
            return;
        }
        self.push(Event::Commit {
            tid: self.tid,
            object: self.object,
        });
    }

    /// Logs a shared-variable write (view refinement only, §5.2).
    pub fn write(&self, var: VarId, value: Value) {
        if self.log.mode() != LogMode::View {
            return;
        }
        self.push(Event::Write {
            tid: self.tid,
            object: self.object,
            var,
            value,
        });
    }

    /// Logs the start of a commit block (view refinement only, §5.2).
    pub fn block_begin(&self) {
        if self.log.mode() != LogMode::View {
            return;
        }
        self.push(Event::BlockBegin {
            tid: self.tid,
            object: self.object,
        });
    }

    /// Logs the end of a commit block (view refinement only, §5.2).
    pub fn block_end(&self) {
        if self.log.mode() != LogMode::View {
            return;
        }
        self.push(Event::BlockEnd {
            tid: self.tid,
            object: self.object,
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn in_memory_log_records_in_order() {
        let log = EventLog::in_memory(LogMode::View);
        let a = log.logger();
        a.call("m", &[Value::from(1i64)]);
        a.write(VarId::new("x", 0), Value::from(2i64));
        a.commit();
        a.ret("m", Value::Unit);
        let events = log.snapshot();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0], Event::Call { .. }));
        assert!(matches!(events[1], Event::Write { .. }));
        assert!(matches!(events[2], Event::Commit { .. }));
        assert!(matches!(events[3], Event::Return { .. }));
    }

    /// A program that takes a logger per call and never flushes (the
    /// `run_multi` + soak shape) must not grow the buffer registry — nor
    /// pin one dead buffer allocation per call — for the life of the run.
    #[test]
    fn short_lived_loggers_leave_the_registry_bounded() {
        let log = EventLog::discarding(LogMode::Io);
        let held: Vec<ThreadLogger> = (0..10).map(|_| log.logger()).collect();
        for _ in 0..100_000 {
            let logger = log.logger();
            logger.call("m", &[]);
            logger.commit();
            logger.ret("m", Value::Unit);
        }
        let registry = log.inner.buffers.lock();
        assert!(
            registry.len() <= 2 * REGISTRY_PRUNE_MIN,
            "{} entries registered for {} live loggers",
            registry.len(),
            held.len()
        );
        let live = registry.iter().filter(|w| w.strong_count() > 0).count();
        assert_eq!(live, held.len(), "pruning must keep every live buffer");
    }

    #[test]
    fn io_mode_skips_writes_and_blocks() {
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger();
        assert!(!a.records_writes());
        a.call("m", &[]);
        a.block_begin();
        a.write(VarId::new("x", 0), Value::Unit);
        a.block_end();
        a.commit();
        a.ret("m", Value::Unit);
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(Event::required_for_io));
    }

    #[test]
    fn off_mode_records_nothing() {
        let log = EventLog::in_memory(LogMode::Off);
        let a = log.logger();
        a.call("m", &[]);
        a.commit();
        a.ret("m", Value::Unit);
        log.append_event(Event::Commit {
            tid: ThreadId(0),
            object: ObjectId::DEFAULT,
        });
        assert!(log.snapshot().is_empty());
        assert_eq!(log.stats(), LogStats::default());
    }

    #[test]
    fn loggers_get_distinct_tids() {
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger();
        let b = log.logger();
        assert_ne!(a.tid(), b.tid());
        let c = log.logger_for(ThreadId(42));
        assert_eq!(c.tid(), ThreadId(42));
    }

    #[test]
    fn object_scoping_stamps_events() {
        let log = EventLog::in_memory(LogMode::View);
        assert_eq!(log.object(), ObjectId::DEFAULT);
        let scoped = log.with_object(ObjectId(3));
        assert_eq!(scoped.object(), ObjectId(3));
        let a = scoped.logger();
        assert_eq!(a.object(), ObjectId(3));
        a.call("m", &[]);
        a.for_object(ObjectId(5)).commit();
        a.ret("m", Value::Unit);
        // Clones share the sink: the base handle sees all three events.
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].object(), ObjectId(3));
        assert_eq!(events[1].object(), ObjectId(5));
        assert_eq!(events[2].object(), ObjectId(3));
        // `for_object` keeps the thread id.
        assert_eq!(events[1].tid(), events[0].tid());
    }

    #[test]
    fn stats_count_by_kind() {
        let log = EventLog::in_memory(LogMode::View);
        let a = log.logger();
        a.call("m", &[]);
        a.write(VarId::new("x", 0), Value::Bytes(vec![0; 100]));
        a.write(VarId::new("x", 1), Value::Unit);
        a.commit();
        a.ret("m", Value::Unit);
        let stats = log.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.events, 5);
        assert!(stats.bytes >= 100);
    }

    #[test]
    fn appends_after_close_are_counted_not_logged() {
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger();
        a.call("m", &[]);
        log.close();
        a.commit();
        a.ret("m", Value::Unit);
        let stats = log.stats();
        assert_eq!(log.snapshot().len(), 1);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.events_discarded_after_close, 2);
    }

    #[test]
    fn dispatch_sink_sees_events_in_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let log = EventLog::dispatching_runs(LogMode::Io, move |run: &mut Vec<Event>| {
            sink_seen.lock().extend(run.drain(..));
        });
        let a = log.logger();
        a.call("m", &[]);
        a.commit();
        a.ret("m", Value::Unit);
        log.flush();
        let events = seen.lock().clone();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], Event::Call { .. }));
        assert!(matches!(events[2], Event::Return { .. }));
    }

    #[test]
    fn drain_empties_the_log() {
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger();
        a.call("m", &[]);
        assert_eq!(log.drain().len(), 1);
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn channel_sink_delivers_events() {
        let (log, rx) = EventLog::to_channel(LogMode::Io);
        let a = log.logger();
        a.call("m", &[]);
        a.commit();
        drop(log);
        drop(a);
        let received: Vec<Event> = rx.iter().collect();
        assert_eq!(received.len(), 2);
    }

    #[test]
    fn file_sink_round_trips_through_codec() {
        let dir = std::env::temp_dir().join(format!("vyrd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let log = EventLog::to_file(LogMode::View, &path).unwrap();
        let a = log.logger();
        a.call("Insert", &[Value::from(3i64)]);
        a.write(VarId::new("A.elt", 0), Value::from(3i64));
        a.commit();
        a.ret("Insert", Value::success());
        log.flush();
        let bytes = std::fs::read(&path).unwrap();
        // The file opens with the versioned header.
        assert_eq!(&bytes[..4], &crate::codec::MAGIC);
        let events = crate::codec::read_log(&mut bytes.as_slice()).unwrap();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0], Event::Call { .. }));
        assert!(matches!(events[3], Event::Return { .. }));
        // File-backed logs do not retain an in-memory copy.
        assert!(log.snapshot().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appends_are_totally_ordered() {
        let log = EventLog::in_memory(LogMode::Io);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let logger = log.logger();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    logger.call("m", &[Value::from(i as i64)]);
                    logger.commit();
                    logger.ret("m", Value::Unit);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 4 * 300);
        // Per-thread well-formedness: each thread's subsequence alternates
        // call/commit/return.
        for tid in 0..4u32 {
            let sub: Vec<&Event> = events.iter().filter(|e| e.tid() == ThreadId(tid)).collect();
            assert_eq!(sub.len(), 300);
            for chunk in sub.chunks(3) {
                assert!(matches!(chunk[0], Event::Call { .. }));
                assert!(matches!(chunk[1], Event::Commit { .. }));
                assert!(matches!(chunk[2], Event::Return { .. }));
            }
        }
    }

    #[test]
    fn snapshot_flushes_partial_batches() {
        // Fewer events than BATCH: nothing has reached the sink on its
        // own, but a snapshot must still see them all, in order.
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger();
        for i in 0..5 {
            a.call("m", &[Value::from(i as i64)]);
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            match e {
                Event::Call { args, .. } => assert_eq!(args[0], Value::from(i as i64)),
                other => panic!("unexpected event {other}"),
            }
        }
    }

    #[test]
    fn merger_reorders_interleaved_batches_by_seq() {
        // Force out-of-order arrival at the merger: logger `a` stamps
        // early seqs but is flushed *after* `b` submits a full batch.
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger_for(ThreadId(0));
        let b = log.logger_for(ThreadId(1));
        for _ in 0..10 {
            a.commit(); // buffered, below BATCH
        }
        for _ in 0..(2 * BATCH) {
            b.commit(); // two full batches reach the merger first
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 10 + 2 * BATCH);
        // Seq order puts a's events strictly first.
        assert!(events[..10].iter().all(|e| e.tid() == ThreadId(0)));
        assert!(events[10..].iter().all(|e| e.tid() == ThreadId(1)));
    }

    #[test]
    fn mixed_direct_and_buffered_appends_merge_in_stamp_order() {
        let log = EventLog::in_memory(LogMode::Io);
        let a = log.logger_for(ThreadId(7));
        a.commit(); // seq 0, buffered
        log.append_event(Event::Commit {
            tid: ThreadId(9),
            object: ObjectId::DEFAULT,
        }); // seq 1, direct — held until seq 0 arrives
        a.commit(); // seq 2, buffered
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].tid(), ThreadId(7));
        assert_eq!(events[1].tid(), ThreadId(9));
        assert_eq!(events[2].tid(), ThreadId(7));
    }

    /// Events the in-memory sink holds, read without a flush point.
    fn delivered(log: &EventLog) -> usize {
        log.inner.memory.as_ref().unwrap().lock().len()
    }

    /// One call (call, commit, return) through a logger of its own.
    fn call_through_fresh_logger(log: &EventLog, i: i64) {
        let logger = log.logger();
        logger.call("m", &[Value::from(i)]);
        logger.commit();
        logger.ret("m", Value::Unit);
    }

    /// A handle per call hands the sink full batches: until a flush point
    /// only 64-event runs arrive, and the flush delivers the rest, all of
    /// it in the order it was logged.
    #[test]
    fn per_call_loggers_hand_the_sink_full_batches() {
        const CALLS: usize = 1_000;
        let runs = Arc::new(Mutex::new(Vec::new()));
        let events = Arc::new(Mutex::new(Vec::new()));
        let (sink_runs, sink_events) = (Arc::clone(&runs), Arc::clone(&events));
        let log = EventLog::dispatching_runs(LogMode::Io, move |run: &mut Vec<Event>| {
            sink_runs.lock().push(run.len());
            sink_events.lock().extend(run.drain(..));
        });
        for i in 0..CALLS {
            call_through_fresh_logger(&log, i as i64);
        }
        let before = runs.lock().clone();
        assert!(
            before.len() <= (3 * CALLS).div_ceil(BATCH),
            "{} runs",
            before.len()
        );
        assert!(
            before.iter().all(|&n| n == BATCH),
            "partial run before a flush point: {before:?}"
        );
        log.flush();
        let events = events.lock();
        assert_eq!(events.len(), 3 * CALLS);
        for (i, call) in events.chunks(3).enumerate() {
            match &call[0] {
                Event::Call { args, .. } => assert_eq!(args[0], Value::from(i as i64)),
                other => panic!("call {i} starts with {other}"),
            }
            assert!(matches!(call[1], Event::Commit { .. }));
            assert!(matches!(call[2], Event::Return { .. }));
            assert!(call.iter().all(|e| e.tid() == call[0].tid()));
        }
    }

    /// Every flush point delivers what a dropped logger left behind; the
    /// drop itself delivers nothing.
    #[test]
    fn dropped_logger_reaches_the_sink_at_each_flush_point() {
        type FlushPoint = fn(&EventLog) -> usize;
        let flush_points: [(&str, FlushPoint); 5] = [
            ("snapshot", |log| log.snapshot().len()),
            ("drain", |log| log.drain().len()),
            ("stats", |log| {
                assert_eq!(log.stats().events, 3);
                delivered(log)
            }),
            ("flush", |log| {
                log.flush();
                delivered(log)
            }),
            ("close", |log| {
                log.close();
                delivered(log)
            }),
        ];
        for (name, flush_point) in flush_points {
            let log = EventLog::in_memory(LogMode::Io);
            call_through_fresh_logger(&log, 0);
            assert_eq!(delivered(&log), 0, "{name}: the drop delivered");
            assert_eq!(flush_point(&log), 3, "{name}");
        }
    }

    /// With no flush point at all, a dropped logger's events reach a
    /// channel receiver when the last handle to the log drops — before
    /// the disconnect.
    #[test]
    fn dropping_the_log_delivers_idle_batches_then_disconnects() {
        let (log, rx) = EventLog::to_channel(LogMode::Io);
        call_through_fresh_logger(&log, 0);
        assert!(rx.try_recv().is_err(), "the logger's drop delivered");
        drop(log);
        let received: Vec<Event> = rx.iter().collect();
        assert_eq!(received.len(), 3);
    }

    /// Per-call loggers alongside held ones leave at most one batch idle:
    /// each new logger adopts the batch the previous one left.
    #[test]
    fn per_call_loggers_leave_one_idle_batch() {
        let log = EventLog::discarding(LogMode::Io);
        let _held: Vec<ThreadLogger> = (0..10).map(|_| log.logger()).collect();
        for i in 0..100_000 {
            call_through_fresh_logger(&log, i);
        }
        let idle = log.inner.idle.lock().len();
        assert!(idle <= 1, "{idle} idle batches");
    }
}
