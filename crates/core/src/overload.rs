//! Overload watchdog for
//! [`OverloadPolicy::Shed`](crate::shard::OverloadPolicy::Shed) shards.
//!
//! The `Shed` timeout and budget are fixed constants of the
//! [`ShardConfig`](crate::shard::ShardConfig): they bound how long a full
//! shard can stall the program per event, and how many events an object
//! may shed before its shard is abandoned. What a constant cannot tell
//! apart is a *slow* checker from a *stuck* one. This module does:
//!
//! * [`ShedControl`] is the shared state between the
//!   [`ShardRouter`](crate::shard::ShardRouter) (which publishes the
//!   dispatch seq and honors the quarantine set on every event) and the
//!   watchdog. It collects one [`Monitor`](vyrd_rt::channel::Monitor) per
//!   announced shard, so progress is read from *live* channel consumption
//!   rather than the end-of-run checker counters.
//! * [`Watchdog`] ticks every stall deadline / [`TICKS_PER_DEADLINE`].
//!   Each tick samples
//!
//!   ```text
//!   lag = appended − Σ consumed-by-shard-channels − shed − dropped
//!   ```
//!
//!   into the `overload.*` gauges, and declares a shard with queued
//!   events whose consumption counter has not moved for a full deadline
//!   *stuck*, not slow. An unclaimed stuck shard (announced, never picked
//!   up) is escalated to a freshly spawned supervised rescue worker; a
//!   claimed-but-stuck shard is quarantined — its future events shed at
//!   the router so producers can never block behind it. Both land in the
//!   ledger as [`WatchdogEvent`]s.
//!
//! The pool runs the watchdog when
//! [`SupervisorConfig::stall_deadline`](crate::pool::SupervisorConfig::stall_deadline)
//! is set. The invariant it defends: past saturation the pipeline ends in
//! a DEGRADED PASS with exact shed accounting — never an unbounded queue,
//! a deadlock, or a forged PASS/FAIL. A quarantined or abandoned shard's
//! events are *counted and windowed*, so the verdict honestly says what it
//! did not check.
//!
//! One in-process limit is documented rather than papered over: a
//! checker thread wedged in an infinite loop cannot be killed from
//! safe Rust. Escalation therefore bounds the *program's* exposure
//! (quarantine means producers never wait on the stuck shard again) and
//! accounts the loss; it does not reclaim the thread. Checker *panics*
//! are already handled by the pool's supervisor (catch_unwind +
//! bounded restarts), which is the common failure shape.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vyrd_rt::channel::Monitor;
use vyrd_rt::sync::Mutex;
use vyrd_rt::time::Ticker;

use crate::event::{Event, ObjectId};
use crate::metrics::pipeline;
use crate::violation::{WatchdogAction, WatchdogEvent};

/// Watchdog ticks per stall deadline: a shard is stuck after this many
/// consecutive ticks without consumption, and the ticker fires every
/// deadline / `TICKS_PER_DEADLINE` (5 ms for a 250 ms deadline).
pub const TICKS_PER_DEADLINE: u32 = 50;

/// One announced shard as the watchdog sees it: the object, a passive
/// queue monitor, and whether any pool worker has claimed it yet.
struct ShardProbe {
    object: ObjectId,
    monitor: Monitor<Event>,
    claimed: bool,
}

/// Shared state between the router and the [`Watchdog`]. The router's
/// per-event cost is one relaxed store and one relaxed load.
#[derive(Default)]
pub struct ShedControl {
    /// Events dispatched so far (published by the router per event).
    dispatch_seq: AtomicU64,
    /// Bumped whenever `quarantined` changes; the router caches the set
    /// against this so the per-event cost stays one relaxed load.
    quarantine_epoch: AtomicU64,
    quarantined: Mutex<BTreeSet<u32>>,
    probes: Mutex<Vec<ShardProbe>>,
    watchdog_events: Mutex<Vec<WatchdogEvent>>,
}

impl std::fmt::Debug for ShedControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShedControl")
            .field("dispatch_seq", &self.dispatch_seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ShedControl {
    /// Events dispatched through the router so far.
    pub fn dispatch_seq(&self) -> u64 {
        self.dispatch_seq.load(Ordering::Relaxed)
    }

    /// Router hook: publishes the running dispatch count.
    pub(crate) fn note_dispatch(&self, dispatched: u64) {
        self.dispatch_seq.store(dispatched, Ordering::Relaxed);
    }

    /// Router hook: registers a newly announced shard's queue monitor.
    pub(crate) fn register_shard(&self, object: ObjectId, monitor: Monitor<Event>) {
        self.probes.lock().push(ShardProbe {
            object,
            monitor,
            claimed: false,
        });
    }

    /// Pool hook: a worker took ownership of the object's shard.
    pub fn mark_claimed(&self, object: ObjectId) {
        let mut probes = self.probes.lock();
        if let Some(p) = probes.iter_mut().find(|p| p.object == object) {
            p.claimed = true;
        }
    }

    /// Events still sitting in shard channels right now. After the
    /// workers have been joined this is the *stranded* residue: events
    /// that were delivered to an abandoned or quarantined shard's queue
    /// but never consumed by its checker. The pool folds this into the
    /// merged Degradation so conservation stays exact:
    /// `appended == checked + shed + stranded (+ injected drops)`.
    pub fn stranded_events(&self) -> u64 {
        self.probes
            .lock()
            .iter()
            .map(|p| p.monitor.len() as u64)
            .sum()
    }

    /// Current quarantine epoch (see [`ShedControl::quarantined_objects`]).
    pub fn quarantine_epoch(&self) -> u64 {
        self.quarantine_epoch.load(Ordering::Relaxed)
    }

    /// The quarantined object ids. The router re-reads this only when
    /// the epoch moves.
    pub fn quarantined_objects(&self) -> HashSet<u32> {
        self.quarantined.lock().iter().copied().collect()
    }

    /// Adds an object to the quarantine set. Returns `false` if it was
    /// already quarantined.
    pub fn quarantine(&self, object: ObjectId) -> bool {
        let inserted = self.quarantined.lock().insert(object.0);
        if inserted {
            self.quarantine_epoch.fetch_add(1, Ordering::Release);
        }
        inserted
    }

    /// Drains the watchdog's escalations at end of run.
    pub fn finalize(&self) -> Vec<WatchdogEvent> {
        std::mem::take(&mut *self.watchdog_events.lock())
    }
}

/// Per-shard stall bookkeeping between ticks.
struct StallState {
    object: ObjectId,
    last_popped: u64,
    stalled_ticks: u32,
    escalated: bool,
}

/// The stuck-shard watchdog. Construct with [`Watchdog::new`], then
/// either drive [`tick`](Watchdog::tick) manually (tests do — the
/// stall rule is pure state, no hidden clock) or hand it to a background
/// [`Ticker`] via [`into_ticker`](Watchdog::into_ticker).
pub struct Watchdog {
    control: Arc<ShedControl>,
    deadline: Duration,
    ticks: u64,
    stalls: Vec<StallState>,
    /// Spawns one supervised rescue worker; returns `false` if the
    /// spawn failed.
    rescue: Box<dyn FnMut() -> bool + Send>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("deadline", &self.deadline)
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl Watchdog {
    /// A watchdog over the given shared control state that escalates a
    /// shard stuck for `deadline`; `rescue` is its escalation path for
    /// unclaimed shards.
    pub fn new<F>(control: Arc<ShedControl>, deadline: Duration, rescue: F) -> Watchdog
    where
        F: FnMut() -> bool + Send + 'static,
    {
        Watchdog {
            control,
            deadline,
            ticks: 0,
            stalls: Vec::new(),
            rescue: Box::new(rescue),
        }
    }

    /// Moves the watchdog onto a background ticker thread firing every
    /// deadline / [`TICKS_PER_DEADLINE`].
    pub fn into_ticker(mut self) -> std::io::Result<Ticker> {
        let period = (self.deadline / TICKS_PER_DEADLINE).max(Duration::from_micros(1));
        Ticker::spawn(period, move || self.tick())
    }

    /// One tick: sample lag and occupancy, escalate stuck shards. Safe
    /// to call from any thread; also safe to call after the run finished
    /// (the samples just stop moving).
    pub fn tick(&mut self) {
        self.ticks += 1;
        let pm = pipeline();
        pm.overload_ticks.inc();

        // Live lag: events the program has logged that verification has
        // neither consumed nor already written off. (Counter reads are
        // not one atomic snapshot; `saturating_sub` absorbs the skew,
        // which is at most a few in-flight events per tick.)
        let appended = pm.log_events_appended.get();
        let written_off = pm.shard_events_shed.get()
            + pm.log_events_dropped_injected.get()
            + pm.log_events_discarded.get();

        // Snapshot probe state under the lock, then decide outside it.
        struct Sample {
            object: ObjectId,
            popped: u64,
            len: u64,
            claimed: bool,
        }
        let samples: Vec<Sample> = {
            let probes = self.control.probes.lock();
            probes
                .iter()
                .map(|p| Sample {
                    object: p.object,
                    popped: p.monitor.popped(),
                    len: p.monitor.len() as u64,
                    claimed: p.claimed,
                })
                .collect()
        };

        let consumed: u64 = samples.iter().map(|s| s.popped).sum();
        let lag = appended.saturating_sub(consumed + written_off);
        pm.overload_lag_events.set(lag);
        pm.overload_lag_peak.set_max(lag);
        pm.overload_occupancy_peak
            .set_max(samples.iter().map(|s| s.len).max().unwrap_or(0));

        let seq = self.control.dispatch_seq();
        for s in samples {
            let stall = match self.stalls.iter_mut().find(|st| st.object == s.object) {
                Some(st) => st,
                None => {
                    self.stalls.push(StallState {
                        object: s.object,
                        last_popped: s.popped,
                        stalled_ticks: 0,
                        escalated: false,
                    });
                    continue;
                }
            };
            if s.popped != stall.last_popped || s.len == 0 {
                // Progressing, or idle with nothing queued — not stuck.
                stall.last_popped = s.popped;
                stall.stalled_ticks = 0;
                continue;
            }
            stall.stalled_ticks += 1;
            if stall.escalated || stall.stalled_ticks < TICKS_PER_DEADLINE {
                continue;
            }
            stall.escalated = true;
            let rescued = !s.claimed && (self.rescue)();
            let action = if rescued {
                // Announced but never picked up: it has a worker now.
                pm.overload_watchdog_rescues.inc();
                WatchdogAction::RescueWorker
            } else {
                // A worker owns it and stopped consuming (or no rescue
                // worker could be spawned): wall it off so the program
                // never waits on it again.
                self.control.quarantine(s.object);
                pm.overload_watchdog_quarantines.inc();
                WatchdogAction::Quarantine
            };
            self.control.watchdog_events.lock().push(WatchdogEvent {
                object: s.object,
                tick: self.ticks,
                queued: s.len,
                action,
                at_seq: seq,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn quarantine_bumps_epoch_once_per_object() {
        let c = ShedControl::default();
        assert_eq!(c.quarantine_epoch(), 0);
        assert!(c.quarantine(ObjectId(7)));
        assert_eq!(c.quarantine_epoch(), 1);
        assert!(!c.quarantine(ObjectId(7)), "re-quarantine is a no-op");
        assert_eq!(c.quarantine_epoch(), 1);
        assert!(c.quarantined_objects().contains(&7));
    }

    /// The stall rule, driven by hand: a shard with queued events and
    /// frozen consumption is escalated after a full deadline of ticks —
    /// rescue worker if unclaimed, quarantine if a worker owns it and
    /// stopped — and not one tick sooner.
    #[test]
    fn manual_ticks_drive_the_watchdog() {
        use crate::event::ThreadId;
        use std::sync::atomic::AtomicBool;
        use vyrd_rt::channel;

        let control = Arc::new(ShedControl::default());
        let rescued = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&rescued);
        let mut watchdog =
            Watchdog::new(Arc::clone(&control), Duration::from_millis(2), move || {
                flag.store(true, Ordering::SeqCst);
                true
            });

        // Two stuck probes: object 1 announced but never claimed (the
        // rescue path), object 2 claimed (the quarantine path).
        let (tx1, rx1) = channel::bounded::<Event>(4);
        control.register_shard(ObjectId(1), rx1.monitor());
        let (tx2, rx2) = channel::bounded::<Event>(4);
        control.register_shard(ObjectId(2), rx2.monitor());
        control.mark_claimed(ObjectId(2));
        let ev = |o: u32| Event::Commit {
            tid: ThreadId(0),
            object: ObjectId(o),
        };
        tx1.send(ev(1)).unwrap();
        tx2.send(ev(2)).unwrap();

        // The first tick registers both probes; the next
        // `TICKS_PER_DEADLINE - 1` count the stall without escalating.
        for _ in 0..TICKS_PER_DEADLINE {
            watchdog.tick();
        }
        assert!(
            !rescued.load(Ordering::SeqCst),
            "escalated before the deadline"
        );
        assert!(control.quarantined_objects().is_empty());

        // One more tick completes the deadline for both shards.
        watchdog.tick();
        assert!(rescued.load(Ordering::SeqCst), "unclaimed shard rescued");
        assert!(control.quarantined_objects().contains(&2));
        assert!(!control.quarantined_objects().contains(&1));
        assert_eq!(control.stranded_events(), 2, "both probes still queued");

        let watchdog = control.finalize();
        assert_eq!(watchdog.len(), 2);
        let by_object = |o: u32| {
            watchdog
                .iter()
                .find(|e| e.object == ObjectId(o))
                .expect("watchdog event")
                .action
        };
        assert_eq!(by_object(1), WatchdogAction::RescueWorker);
        assert_eq!(by_object(2), WatchdogAction::Quarantine);
        drop((rx1, rx2));
    }
}
