//! Per-object log sharding (§6.1, §8).
//!
//! The paper keeps "actions of different objects in separate logs" and
//! observes that those logs can be checked **concurrently and
//! independently**: refinement of a multi-object program factors into
//! refinement of each object's subsequence of the log, because the
//! specification of one instance never constrains another.
//!
//! [`ShardRouter`] is the fan-out point. It poses as an ordinary
//! [`EventLog`] to the instrumented program — one shared append path, one
//! critical section — and routes every event to a per-object channel keyed
//! by the event's [`ObjectId`]. Because routing happens inside the log's
//! append critical section, each object's channel receives that object's
//! events in exactly their log order; no order is imposed *between*
//! objects, which is the independence §8 exploits.
//!
//! ```text
//!   program threads ──► EventLog (dispatch sink, one lock)
//!                           │ route on event.object()
//!               ┌───────────┼───────────┐
//!               ▼           ▼           ▼
//!           chan(O0)    chan(O1)    chan(O2)      per-object total order
//!               │           │           │
//!               └──── announced to ShardRouter ──► VerifierPool workers
//! ```
//!
//! Backpressure: with [`ShardConfig::capacity`] set, each per-object
//! channel is bounded. What happens when a shard fills is the
//! [`OverloadPolicy`]: [`OverloadPolicy::Block`] stalls the program until
//! the shard's checker catches up (a hard memory bound, at the price of
//! the deadlock rule on pool sizing), while [`OverloadPolicy::Shed`]
//! bounds the stall with a timeout and *drops* the event instead,
//! counting the loss per object so the merged report can surface the
//! reduced coverage — degraded, never silently passed.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vyrd_rt::channel::{
    self, Receiver, RecvError, SendError, SendTimeoutError, Sender, TryRecvError,
};
use vyrd_rt::intern::FnvMap;
use vyrd_rt::sync::Mutex;

use crate::event::{Event, ObjectId};
use crate::log::{EventLog, LogMode};
use crate::metrics::pipeline;
use crate::overload::ShedControl;
use crate::violation::ShedWindow;

/// What a bounded shard does when a program thread appends to it while it
/// is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the appending program thread (inside the log lock) until the
    /// shard's checker drains a slot. Hard memory bound, but see the
    /// deadlock rule on [`ShardConfig::capacity`].
    #[default]
    Block,
    /// Wait at most `timeout` for a slot, then drop the event and count
    /// it as a per-object *shed*. After `budget` sheds the whole shard is
    /// abandoned — its channel is dropped so the checker finishes on what
    /// it has — and every later event for that object sheds immediately.
    /// Shed counts surface through [`ShardRouter::sheds`]; any nonzero
    /// count makes the merged verdict *degraded*, never a clean pass.
    Shed {
        /// How long an append may stall before the event is shed.
        timeout: Duration,
        /// Sheds tolerated per object before its shard is abandoned.
        budget: u64,
    },
}

/// Configuration for a [`ShardRouter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardConfig {
    /// Bound for each per-object channel. `None` (default) — unbounded:
    /// appends never block, a slow verifier buffers events. `Some(n)` —
    /// appends to a full shard apply the [`OverloadPolicy`], so a slow
    /// verifier cannot OOM the program.
    ///
    /// **Deadlock rule** (for [`OverloadPolicy::Block`]): a bounded
    /// blocking router requires that every announced shard is eventually
    /// serviced concurrently — run the
    /// [`VerifierPool`](crate::pool::VerifierPool) with at least as many
    /// workers as live objects. With fewer workers, an unserviced shard
    /// can fill up and block the program (which holds the log lock)
    /// forever, because the workers that would drain it are themselves
    /// waiting for events that can no longer be appended.
    /// [`OverloadPolicy::Shed`] bounds that stall instead of forbidding
    /// it.
    pub capacity: Option<usize>,
    /// Behavior when a bounded shard is full. Ignored for unbounded
    /// shards.
    pub policy: OverloadPolicy,
}

impl ShardConfig {
    /// Unbounded shards (the default).
    pub fn unbounded() -> ShardConfig {
        ShardConfig {
            capacity: None,
            policy: OverloadPolicy::Block,
        }
    }

    /// Bounded shards: each per-object channel holds at most `n` events
    /// before appends block. See the deadlock rule on
    /// [`ShardConfig::capacity`].
    pub fn bounded(n: usize) -> ShardConfig {
        ShardConfig {
            capacity: Some(n),
            policy: OverloadPolicy::Block,
        }
    }

    /// Bounded shards that shed instead of blocking: an append to a full
    /// shard waits at most `timeout`, then drops the event; after
    /// `budget` sheds the object's shard is abandoned. The program can
    /// never be stalled indefinitely by a slow (or dead) checker.
    pub fn bounded_shedding(n: usize, timeout: Duration, budget: u64) -> ShardConfig {
        ShardConfig {
            capacity: Some(n),
            policy: OverloadPolicy::Shed { timeout, budget },
        }
    }
}

/// The per-object routing slot: nothing yet, a live channel, or a
/// tombstone for a shard abandoned after exhausting its shed budget (or
/// whose checker hung up).
enum Slot {
    /// No routable event yet: one the failpoint drops, or one for an
    /// object already quarantined, announces nothing.
    Unannounced,
    Live(Sender<Event>),
    Shedding,
}

/// Why an event was shed — the three disjoint causes whose counts sum
/// to `shard.events_shed`.
#[derive(Clone, Copy)]
enum ShedKind {
    /// `send_timeout` expired on a full channel.
    Timeout,
    /// The shard was already abandoned (`Slot::Shedding`) or quarantined
    /// by the watchdog, or its checker hung up; no wait was attempted.
    Abandoned,
    /// The `shard.route` failpoint dropped the event.
    Injected,
}

/// Everything the router keeps about one object, found with one probe
/// per event.
struct ObjectRoute {
    object: ObjectId,
    slot: Slot,
    /// The watchdog quarantined this object: a claimed-but-stuck checker
    /// must not cost the program a full shed timeout per event.
    quarantined: bool,
    /// Delivered count (successful sends only): the length of the
    /// gap-free prefix the shard's checker consumes. Frozen into the
    /// shed window at the object's first shed so merge-time verdicts can
    /// tell prefix violations (sound) from post-gap ones (unreliable).
    /// Tracked unconditionally — the ledger needs it whether or not
    /// metrics are on.
    delivered: u64,
    /// Delivery counter, registered at the first delivery made with
    /// metrics on (the registration allocation happens once per object,
    /// not per event).
    fanout: Option<Arc<vyrd_rt::metrics::Counter>>,
    /// The batch accumulated during the current merged run (batched mode
    /// only). The buffer persists across runs so its capacity is
    /// recycled; it is empty between runs.
    pending: Vec<Event>,
    /// Dispatch seq of `pending`'s first event.
    pending_first_seq: u64,
}

/// The routing state captured by the dispatch-sink closure: everything
/// [`ShardRouter::build`] threads through the fan-out, including the
/// per-object pending batches of the run-level delivery path.
struct RouteState {
    config: ShardConfig,
    /// Whether events are batched per object and delivered with one
    /// `send_many` per (object, run) instead of one `send` per event.
    /// True for unbounded and bounded-blocking shards; the Shed policy
    /// needs per-event fullness observations and stays unbatched.
    batched: bool,
    control: Option<Arc<ShedControl>>,
    announce: Sender<(ObjectId, Receiver<Event>)>,
    sheds: Arc<Mutex<BTreeMap<ObjectId, u64>>>,
    windows: Arc<Mutex<BTreeMap<u32, ShedWindow>>>,
    /// One entry per object seen, in first-seen order; `index` maps an
    /// object id to its position and `last` remembers the previous
    /// event's, so a run of events for one object probes nothing. A
    /// position is the handle every helper and the flush worklist pass
    /// around: a map of structs would re-probe at each of them.
    ///
    /// Object ids are small integers the program under test chose, not
    /// outside input: a multiply-per-byte hash is enough, and SipHash was
    /// a measurable share of the per-event routing cost.
    routes: Vec<ObjectRoute>,
    index: FnvMap<u32, usize>,
    last: Option<(u32, usize)>,
    /// Dispatch index: this event's position in the total order at the
    /// fan-out point. Stamped into shed windows and published to the
    /// watchdog so its escalations can name where they fired.
    seq: u64,
    /// The watchdog's quarantine epoch the `quarantined` flags were
    /// last synced at, so the per-event cost is one relaxed load until a
    /// watchdog actually quarantines something.
    quarantine_epoch: u64,
    /// Positions whose pending batch became non-empty this run — the
    /// flush worklist (may hold duplicates after a mid-run flush; a
    /// flush of an empty batch is a no-op).
    touched: Vec<usize>,
}

impl RouteState {
    /// The position of `object`'s entry, created empty at first sight.
    fn position(&mut self, object: ObjectId) -> usize {
        if let Some((id, at)) = self.last {
            if id == object.0 {
                return at;
            }
        }
        let at = *self.index.entry(object.0).or_insert_with(|| {
            self.routes.push(ObjectRoute {
                object,
                slot: Slot::Unannounced,
                quarantined: false,
                delivered: 0,
                fanout: None,
                pending: Vec::new(),
                pending_first_seq: 0,
            });
            self.routes.len() - 1
        });
        self.last = Some((object.0, at));
        at
    }

    /// Routes one event: stamps its dispatch seq, runs the failpoint /
    /// quarantine / slot front matter in exactly the per-event order the
    /// unbatched router used (fault-seed replay depends on it), then
    /// either buffers it (batched mode) or sends it under the Shed
    /// policy's timeout discipline.
    fn route(&mut self, event: Event) {
        let at = self.position(event.object());
        let my_seq = self.seq;
        self.seq += 1;
        if let Some(control) = &self.control {
            control.note_dispatch(self.seq);
        }
        // `shard.route` failpoint: a Drop disposition loses the event in
        // the fan-out, counted as a shed for its object. The object's
        // pending batch is flushed *first* so the shed window's
        // gap-free-prefix count reflects every event that was actually
        // delivered ahead of this loss.
        if vyrd_rt::fault::enabled() {
            if let vyrd_rt::fault::Disposition::Drop = vyrd_rt::fault::inject("shard.route") {
                self.shed(at, my_seq, ShedKind::Injected);
                return;
            }
        }
        if let Some(control) = &self.control {
            let epoch = control.quarantine_epoch();
            if epoch != self.quarantine_epoch {
                // Objects only ever enter the set, and only the watchdog
                // adds them — for shards this router announced.
                for id in control.quarantined_objects() {
                    if let Some(&quarantined) = self.index.get(&id) {
                        self.routes[quarantined].quarantined = true;
                    }
                }
                self.quarantine_epoch = epoch;
            }
        }
        let route = &mut self.routes[at];
        if route.quarantined || matches!(route.slot, Slot::Shedding) {
            self.shed(at, my_seq, ShedKind::Abandoned);
            return;
        }
        if matches!(route.slot, Slot::Unannounced) {
            let (tx, rx) = match self.config.capacity {
                Some(n) => channel::bounded(n),
                None => channel::unbounded(),
            };
            if let Some(control) = &self.control {
                control.register_shard(route.object, rx.monitor());
            }
            // The consumer side being gone just means checking was
            // abandoned; keep the program running (same contract as
            // the plain channel sink).
            let _ = self.announce.send((route.object, rx));
            route.slot = Slot::Live(tx);
        }
        if self.batched {
            if route.pending.is_empty() {
                self.touched.push(at);
                route.pending_first_seq = my_seq;
            }
            route.pending.push(event);
            return;
        }
        self.send_shedding(at, my_seq, event);
    }

    /// The Shed policy's per-event delivery: wait at most the timeout for
    /// a slot, shed on expiry, abandon the shard once the budget is spent
    /// or the checker hangs up.
    fn send_shedding(&mut self, at: usize, my_seq: u64, event: Event) {
        let (OverloadPolicy::Shed { timeout, budget }, Slot::Live(sender)) =
            (self.config.policy, &self.routes[at].slot)
        else {
            // Unbatched routing only happens under the Shed policy, and
            // the slot was just created or checked Live above.
            return;
        };
        let wait_started = if vyrd_rt::metrics::enabled() {
            Some(Instant::now())
        } else {
            None
        };
        let outcome = sender.send_timeout(event, timeout);
        if let Some(t0) = wait_started {
            pipeline()
                .shard_shed_wait_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        match outcome {
            Ok(()) => self.mark_delivered(at, 1),
            Err(SendTimeoutError::Closed(_)) => self.hung_up(at, my_seq, my_seq, 1),
            Err(SendTimeoutError::Timeout(_)) => {
                let shed_so_far = self.record_shed(at, my_seq, my_seq, 1, ShedKind::Timeout);
                if shed_so_far >= budget {
                    // Abandon the shard: dropping the sender disconnects
                    // the channel so the checker finishes on the events
                    // it already has.
                    self.abandon(at, my_seq);
                }
            }
        }
    }

    /// The checker hung up (stopped at a violation, or its worker died)
    /// with `lost` events, dispatched within `first_seq..=last_seq`, not
    /// yet queued: checking is over for this object. Count the loss and
    /// stop attempting delivery — every later event goes down the fast
    /// Shedding path instead of a doomed send.
    fn hung_up(&mut self, at: usize, first_seq: u64, last_seq: u64, lost: u64) {
        self.record_shed(at, first_seq, last_seq, lost, ShedKind::Abandoned);
        self.abandon(at, last_seq);
    }

    /// Tombstones the object's slot and stamps the abandonment seq into
    /// its shed window.
    fn abandon(&mut self, at: usize, my_seq: u64) {
        let route = &mut self.routes[at];
        route.slot = Slot::Shedding;
        if let Some(w) = self.windows.lock().get_mut(&route.object.0) {
            if w.abandoned_at_seq.is_none() {
                w.abandoned_at_seq = Some(my_seq);
            }
        }
    }

    /// Sheds the event at `my_seq` without attempting delivery. The
    /// object's pending batch goes out first, so the delivered count the
    /// shed freezes as its gap-free prefix is exact.
    fn shed(&mut self, at: usize, my_seq: u64, kind: ShedKind) {
        self.flush_object(at, my_seq);
        self.record_shed(at, my_seq, my_seq, 1, kind);
    }

    /// Folds `n` sheds, dispatched within `first_seq..=last_seq`, into
    /// the per-object count and its dispatch-seq window, mirroring the
    /// metric increments exactly (`crates/bench/tests/reconcile.rs`
    /// asserts the ledger and the counters never drift). The first shed
    /// freezes the object's delivered count into the window as the
    /// gap-free prefix length. Returns the object's sheds so far.
    fn record_shed(
        &mut self,
        at: usize,
        first_seq: u64,
        last_seq: u64,
        n: u64,
        kind: ShedKind,
    ) -> u64 {
        let ObjectRoute {
            object, delivered, ..
        } = self.routes[at];
        let total = {
            let mut sheds = self.sheds.lock();
            let count = sheds.entry(object).or_insert(0);
            *count += n;
            *count
        };
        let mut windows = self.windows.lock();
        let window = windows.entry(object.0).or_insert(ShedWindow {
            object,
            first_seq,
            last_seq,
            events: 0,
            injected: 0,
            prefix_events: delivered,
            abandoned_at_seq: None,
        });
        window.last_seq = last_seq;
        window.events += n;
        if let ShedKind::Injected = kind {
            window.injected += n;
        }
        if vyrd_rt::metrics::enabled() {
            let pm = pipeline();
            pm.shard_events_shed.add(n);
            match kind {
                ShedKind::Timeout => pm.shard_sheds_timeout.add(n),
                ShedKind::Abandoned => pm.shard_sheds_abandoned.add(n),
                ShedKind::Injected => pm.shard_sheds_injected.add(n),
            }
        }
        total
    }

    /// Marks `n` successful deliveries: the gap-free-prefix counter plus
    /// the routed/fan-out metrics. `shard.events_routed` counts
    /// deliveries only — appends that were shed instead are under
    /// `shard.events_shed`, so
    /// `appended == routed + shed (+ stranded at shutdown)`.
    fn mark_delivered(&mut self, at: usize, n: u64) {
        let seen = self.routes.len() as u64;
        let route = &mut self.routes[at];
        route.delivered += n;
        if vyrd_rt::metrics::enabled() {
            let pm = pipeline();
            pm.shard_events_routed.add(n);
            route
                .fanout
                .get_or_insert_with(|| {
                    vyrd_rt::metrics::counter(&format!("shard.fanout.obj{}", route.object.0))
                })
                .add(n);
            pm.shard_objects_seen.set_max(seen);
        }
    }

    /// Delivers the object's pending batch, dispatched before
    /// `next_seq`, with one `send_many`; the buffer's capacity is
    /// retained for the next run. A checker that hung up leaves a tail of
    /// the batch unqueued: those events are shed, like the per-event
    /// path's, in a window bounded by where the tail can lie (other
    /// objects' events may sit between this batch's, so only a
    /// one-object run pins it to the event).
    fn flush_object(&mut self, at: usize, next_seq: u64) {
        let route = &mut self.routes[at];
        if route.pending.is_empty() {
            return;
        }
        let Slot::Live(sender) = &route.slot else {
            // Events are only ever buffered behind a live slot.
            return;
        };
        let n = route.pending.len() as u64;
        let lost = match sender.send_many(&mut route.pending) {
            Ok(()) => 0,
            Err(SendError(lost)) => lost as u64,
        };
        if n > lost {
            self.mark_delivered(at, n - lost);
            if vyrd_rt::metrics::enabled() {
                let pm = pipeline();
                pm.shard_batch_sends.inc();
                pm.shard_batch_occupancy.record(n - lost);
            }
        }
        if lost > 0 {
            let first_lost = self.routes[at].pending_first_seq + (n - lost);
            self.hung_up(at, first_lost, next_seq - 1, lost);
        }
    }

    /// End-of-run flush: every object touched this run delivers its
    /// batch. Called from inside the merger's critical section, so by
    /// the time any log flush point returns, batched events have reached
    /// their shards.
    fn flush_pending(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        for at in touched.drain(..) {
            self.flush_object(at, self.seq);
        }
        self.touched = touched;
    }
}

/// Fans a program's events out into per-object logs (§6.1).
///
/// Create with [`ShardRouter::new`]; hand the returned [`EventLog`] to the
/// instrumented program (scoping per-instance handles with
/// [`EventLog::with_object`]). The first event of each object announces a
/// new shard — a `(ObjectId, Receiver<Event>)` pair — which the consumer
/// collects with [`ShardRouter::recv_shard`] and checks independently.
/// [`VerifierPool`](crate::pool::VerifierPool) does exactly that with a
/// worker pool; drive the router directly for custom topologies.
///
/// Closing the log ([`EventLog::close`]) drops the router's sending side:
/// every shard channel drains and disconnects, and `recv_shard` reports
/// [`RecvError`] once all announced shards have been handed out.
#[derive(Debug)]
pub struct ShardRouter {
    shards: Receiver<(ObjectId, Receiver<Event>)>,
    sheds: Arc<Mutex<BTreeMap<ObjectId, u64>>>,
    windows: Arc<Mutex<BTreeMap<u32, ShedWindow>>>,
}

impl ShardRouter {
    /// Creates a router and the log that feeds it.
    pub fn new(mode: LogMode, config: ShardConfig) -> (EventLog, ShardRouter) {
        ShardRouter::build(mode, config, None)
    }

    /// Creates a router and its log; with a `control`, every announced
    /// shard is registered with the watchdog (queue monitor for stall
    /// detection) and the watchdog's quarantine set is honored per event.
    pub(crate) fn build(
        mode: LogMode,
        config: ShardConfig,
        control: Option<Arc<ShedControl>>,
    ) -> (EventLog, ShardRouter) {
        let (announce, shards) = channel::unbounded();
        let sheds: Arc<Mutex<BTreeMap<ObjectId, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let windows: Arc<Mutex<BTreeMap<u32, ShedWindow>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let mut state = RouteState {
            // Batched delivery holds events back until the end of the
            // merged run, so it is only sound when a full channel blocks
            // (or cannot fill). The Shed policy must observe fullness
            // event-by-event to stamp exact shed windows, so it keeps the
            // per-event send path.
            batched: !(matches!(config.policy, OverloadPolicy::Shed { .. })
                && config.capacity.is_some()),
            config,
            control,
            announce,
            sheds: Arc::clone(&sheds),
            windows: Arc::clone(&windows),
            routes: Vec::new(),
            index: FnvMap::default(),
            last: None,
            seq: 0,
            quarantine_epoch: 0,
            touched: Vec::new(),
        };
        let log = EventLog::dispatching_runs(mode, move |run: &mut Vec<Event>| {
            for event in run.drain(..) {
                state.route(event);
            }
            state.flush_pending();
        });
        (
            log,
            ShardRouter {
                shards,
                sheds,
                windows,
            },
        )
    }

    /// Blocks for the next newly-announced shard. Returns [`RecvError`]
    /// once the feeding log has been closed and every announced shard has
    /// been handed out.
    pub fn recv_shard(&self) -> Result<(ObjectId, Receiver<Event>), RecvError> {
        self.shards.recv()
    }

    /// Non-blocking variant of [`ShardRouter::recv_shard`].
    pub fn try_recv_shard(&self) -> Result<(ObjectId, Receiver<Event>), TryRecvError> {
        self.shards.try_recv()
    }

    /// Events shed (dropped under overload or by injected faults) per
    /// object, in object order. Nonzero sheds mean the affected objects'
    /// verdicts cover only part of the execution — degraded coverage.
    pub fn sheds(&self) -> Vec<(ObjectId, u64)> {
        self.sheds
            .lock()
            .iter()
            .map(|(object, count)| (*object, *count))
            .collect()
    }

    /// The dispatch-seq window each object's sheds span, in object
    /// order — *where* in the total order coverage was lost. Each
    /// window's `events` equals the object's entry in
    /// [`ShardRouter::sheds`]; the merged report carries them in
    /// [`Degradation::shed_windows`](crate::violation::Degradation::shed_windows).
    pub fn shed_windows(&self) -> Vec<ShedWindow> {
        self.windows.lock().values().copied().collect()
    }
}

/// Partitions a recorded log by object, preserving each object's order —
/// the offline analogue of [`ShardRouter`], for checking per-object
/// subsequences of an existing event vector.
pub fn partition_by_object<I: IntoIterator<Item = Event>>(
    events: I,
) -> BTreeMap<ObjectId, Vec<Event>> {
    let mut parts: BTreeMap<ObjectId, Vec<Event>> = BTreeMap::new();
    for event in events {
        parts.entry(event.object()).or_default().push(event);
    }
    parts
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::event::ThreadId;
    use crate::value::Value;
    use std::thread;

    /// Logs `calls` calls on `object` and flushes them to the router.
    fn drive(log: &EventLog, object: ObjectId, calls: u32) {
        let logger = log.with_object(object).logger();
        for i in 0..calls {
            logger.call("Add", &[Value::from(i64::from(i))]);
            logger.commit();
            logger.ret("Add", Value::Unit);
        }
        log.flush();
    }

    #[test]
    fn router_splits_by_object_preserving_order() {
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::default());
        drive(&log, ObjectId(0), 5);
        drive(&log, ObjectId(1), 3);
        drive(&log, ObjectId(0), 2);
        log.close();
        let mut seen = BTreeMap::new();
        while let Ok((object, rx)) = router.recv_shard() {
            seen.insert(object, rx.iter().collect::<Vec<Event>>());
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[&ObjectId(0)].len(), 7 * 3);
        assert_eq!(seen[&ObjectId(1)].len(), 3 * 3);
        // Per-object streams are well-formed call/commit/return triples —
        // the per-object total order survived the fan-out.
        for events in seen.values() {
            for chunk in events.chunks(3) {
                assert!(matches!(chunk[0], Event::Call { .. }));
                assert!(matches!(chunk[1], Event::Commit { .. }));
                assert!(matches!(chunk[2], Event::Return { .. }));
            }
        }
    }

    #[test]
    fn each_object_is_announced_exactly_once() {
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::default());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let log = log.clone();
            handles.push(thread::spawn(move || {
                // Every thread touches both objects.
                drive(&log, ObjectId(t % 2), 20);
                drive(&log, ObjectId((t + 1) % 2), 20);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        log.close();
        let mut announced = Vec::new();
        while let Ok((object, _rx)) = router.recv_shard() {
            announced.push(object);
        }
        announced.sort();
        assert_eq!(announced, vec![ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn bounded_shard_applies_backpressure_to_the_program() {
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::bounded(4));
        // Consumer drains slowly on another thread while the producer
        // pushes far more events than the bound.
        let consumer = thread::spawn(move || {
            let (object, rx) = router.recv_shard().unwrap();
            assert_eq!(object, ObjectId::DEFAULT);
            let mut n = 0u32;
            for _ in rx.iter() {
                n += 1;
            }
            n
        });
        drive(&log, ObjectId::DEFAULT, 200);
        log.close();
        assert_eq!(consumer.join().unwrap(), 600);
    }

    #[test]
    fn shedding_policy_never_stalls_the_program() {
        // Capacity 2 and nobody draining: a blocking router would deadlock
        // here. The shedding router must complete, dropping the overflow
        // and counting every dropped event.
        let (log, router) =
            ShardRouter::new(LogMode::Io, ShardConfig::bounded_shedding(2, Duration::from_millis(1), 3));
        drive(&log, ObjectId::DEFAULT, 10); // 30 events
        log.close();
        let (object, rx) = router.recv_shard().unwrap();
        assert_eq!(object, ObjectId::DEFAULT);
        let delivered = rx.iter().count() as u64;
        assert_eq!(delivered, 2, "only the capacity's worth gets through");
        assert_eq!(router.sheds(), vec![(ObjectId::DEFAULT, 30 - delivered)]);
    }

    /// A checker that hangs up must not make a batch vanish: what
    /// `send_many` could not queue is shed — counted, windowed, the slot
    /// tombstoned — so `appended == routed + shed` survives it.
    #[test]
    fn batch_for_a_hung_up_checker_is_shed_not_lost() {
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::bounded(64));
        drive(&log, ObjectId(7), 2);
        let (object, rx) = router.recv_shard().unwrap();
        assert_eq!((object, rx.len()), (ObjectId(7), 6));
        drop(rx);
        drive(&log, ObjectId(7), 3); // one batch of 9, nobody to take it
        drive(&log, ObjectId(7), 1); // the tombstoned slot sheds per event
        log.close();
        assert_eq!(router.sheds(), vec![(ObjectId(7), 12)]);
        assert_eq!(
            router.shed_windows(),
            vec![ShedWindow {
                object: ObjectId(7),
                first_seq: 6,
                last_seq: 17,
                events: 12,
                injected: 0,
                prefix_events: 6,
                abandoned_at_seq: Some(14),
            }]
        );
    }

    /// The same when the checker hangs up with the batch half queued:
    /// the queued half was routed, only the rest is shed.
    #[test]
    fn batch_cut_short_by_a_hang_up_sheds_exactly_the_rest() {
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::bounded(4));
        let program = {
            let log = log.clone();
            thread::spawn(move || drive(&log, ObjectId::DEFAULT, 3))
        };
        let (_, rx) = router.recv_shard().unwrap();
        // Full at its bound: the other 5 events' `send_many` is waiting.
        while rx.len() < 4 {
            thread::yield_now();
        }
        drop(rx);
        program.join().unwrap();
        log.close();
        assert_eq!(router.sheds(), vec![(ObjectId::DEFAULT, 5)]);
        let window = router.shed_windows()[0];
        assert_eq!(
            (window.first_seq, window.last_seq, window.events),
            (4, 8, 5)
        );
        assert_eq!(window.prefix_events, 4);
        assert_eq!(window.abandoned_at_seq, Some(8));
    }

    #[test]
    fn clean_runs_report_zero_sheds() {
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::default());
        drive(&log, ObjectId(0), 5);
        log.close();
        while router.recv_shard().is_ok() {}
        assert!(router.sheds().is_empty());
    }

    #[test]
    fn partition_by_object_is_order_preserving() {
        let log = EventLog::in_memory(LogMode::Io);
        drive(&log, ObjectId(2), 2);
        drive(&log, ObjectId(1), 1);
        drive(&log, ObjectId(2), 1);
        let parts = partition_by_object(log.snapshot());
        assert_eq!(
            parts.keys().copied().collect::<Vec<_>>(),
            vec![ObjectId(1), ObjectId(2)]
        );
        assert_eq!(parts[&ObjectId(1)].len(), 3);
        assert_eq!(parts[&ObjectId(2)].len(), 9);
        let tids: Vec<ThreadId> = parts[&ObjectId(2)].iter().map(Event::tid).collect();
        // Two loggers drove object 2; their events stay grouped in append
        // order (first logger's 6, then the third logger's 3).
        assert_eq!(tids[..6], vec![tids[0]; 6][..]);
        assert_eq!(tids[6..], vec![tids[6]; 3][..]);
    }
}
