//! Self-observability for the verification pipeline: a zero-dependency
//! metrics registry plus per-method trace spans.
//!
//! VYRD's claim is that checking runs *behind* the program with minimal
//! interference (§4.2, Table 2) — but "behind by how much?" was
//! unanswerable until now. This module gives the pipeline counters,
//! gauges, and fixed-bucket histograms so a run can report append rates,
//! merger backlog depth, per-shard verdict latency, and the verifier
//! *lag* (newest appended seq minus newest checked seq) — the online/
//! offline tradeoff of §8 measured instead of guessed.
//!
//! Design constraints, mirroring the [`log`](../vyrd_core/log/index.html)
//! fast path:
//!
//! * **Off-mode cost is one relaxed load.** All instrumentation sites
//!   guard on [`enabled()`]; when metrics are off (the default) that is
//!   the entire cost, exactly like `LogMode::Off`.
//! * **Zero hot-path allocation.** Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are `Arc`s registered once by name; updating one is a
//!   single atomic RMW on a [`CachePadded`] cell. Registration (the only
//!   allocating operation) happens during pipeline construction, never
//!   per event.
//! * **Snapshot-on-demand.** [`snapshot()`] reads every metric with
//!   relaxed loads and renders to text or hand-rolled JSON; nothing is
//!   aggregated in the background.
//!
//! Trace spans ([`record_span`]) are gated separately by
//! [`spans_enabled()`] because they cost a mutex acquisition per method
//! execution; they land in a fixed-capacity ring that keeps the most
//! recent [`SPAN_RING_CAPACITY`] records.
//!
//! The registry is process-global (like [`fault`](crate::fault)): the
//! pipeline has many entry points and threading a handle through all of
//! them would put a pointer on every hot structure. Tests that assert on
//! counter values must serialize and call [`reset()`] first.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::json::json_str;
use crate::sync::{CachePadded, Mutex};

/// How many of the most recent spans the ring retains.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// Histogram bucket count: powers of two from 1 up to 2^38 (~4.6 min in
/// nanoseconds), plus a zero bucket and an overflow bucket.
const BUCKETS: usize = 40;

static ENABLED: CachePadded<AtomicBool> = CachePadded::new(AtomicBool::new(false));
static SPANS: CachePadded<AtomicBool> = CachePadded::new(AtomicBool::new(false));

/// Is metric recording on? One relaxed load — guard every
/// instrumentation site with this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off (spans stay as they are).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span recording on? Separate from [`enabled()`] because a span
/// costs a short mutex section per method execution.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS.load(Ordering::Relaxed)
}

/// Turns span recording on or off (implies nothing about counters).
pub fn set_spans_enabled(on: bool) {
    SPANS.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the first call in this process — a monotonic
/// timestamp cheap enough for span recording.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A monotonically increasing count on a [`CachePadded`] atomic.
#[derive(Debug)]
pub struct Counter {
    value: CachePadded<AtomicU64>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            value: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins (or running-maximum) measurement.
#[derive(Debug)]
pub struct Gauge {
    value: CachePadded<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            value: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water marks:
    /// backlog depth, parked-run peaks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over power-of-two bucket boundaries.
///
/// Bucket 0 counts zeros; bucket `i` counts values in
/// `[2^(i-1), 2^i)`; the last bucket absorbs everything larger. With
/// nanosecond inputs the range reaches ~4.6 minutes, ample for verdict
/// latencies and observer-window sizes alike. Recording is three relaxed
/// RMWs (count, sum, bucket) plus two for min/max — no locks, no
/// allocation.
#[derive(Debug)]
pub struct Histogram {
    count: CachePadded<AtomicU64>,
    sum: CachePadded<AtomicU64>,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: CachePadded::new(AtomicU64::new(0)),
            sum: CachePadded::new(AtomicU64::new(0)),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn snap(&self, name: &str) -> HistogramSnapshot {
        let count = self.count();
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64 * q).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Report the bucket's upper bound, clamped by the
                    // exact max so small histograms don't overshoot.
                    let upper = if i == 0 { 0 } else { (1u64 << i).saturating_sub(1) };
                    return upper.min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum(),
            min: if count == 0 { 0 } else { min },
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            p999: quantile(0.999),
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One call→commit→return timing record for a method execution, keyed by
/// the call event's log sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Log sequence number of the call event (ties the span to the
    /// recorded trace).
    pub seq: u64,
    /// Logging thread id.
    pub tid: u32,
    /// Object the method ran against.
    pub object: u32,
    /// Interned method name.
    pub name: &'static str,
    /// [`now_ns`] at the call action.
    pub t_call_ns: u64,
    /// [`now_ns`] at the commit action, if one was logged.
    pub t_commit_ns: Option<u64>,
    /// [`now_ns`] at the return action.
    pub t_return_ns: u64,
}

/// Fixed-capacity ring of the most recent spans.
struct SpanRing {
    records: Vec<SpanRecord>,
    next: usize,
    total: u64,
}

impl SpanRing {
    const fn new() -> SpanRing {
        SpanRing {
            records: Vec::new(),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, record: SpanRecord) {
        if self.records.capacity() == 0 {
            self.records.reserve_exact(SPAN_RING_CAPACITY);
        }
        if self.records.len() < SPAN_RING_CAPACITY {
            self.records.push(record);
        } else {
            self.records[self.next] = record;
        }
        self.next = (self.next + 1) % SPAN_RING_CAPACITY;
        self.total += 1;
    }

    /// Oldest-first copy of the retained records.
    fn in_order(&self) -> Vec<SpanRecord> {
        if self.records.len() < SPAN_RING_CAPACITY {
            self.records.clone()
        } else {
            let mut out = Vec::with_capacity(SPAN_RING_CAPACITY);
            out.extend_from_slice(&self.records[self.next..]);
            out.extend_from_slice(&self.records[..self.next]);
            out
        }
    }
}

struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    spans: Mutex<SpanRing>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(SpanRing::new()),
    })
}

/// Returns the counter registered under `name`, creating it on first
/// use. Registration allocates; hold the returned handle and update it
/// on the hot path instead of re-looking-up.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut metrics = registry().metrics.lock();
    match metrics
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns the gauge registered under `name`, creating it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut metrics = registry().metrics.lock();
    match metrics
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns the histogram registered under `name`, creating it on first
/// use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut metrics = registry().metrics.lock();
    match metrics
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Appends a span to the ring (call sites should guard on
/// [`spans_enabled()`] first; this function records unconditionally).
pub fn record_span(record: SpanRecord) {
    registry().spans.lock().push(record);
}

/// Zeroes every registered metric and empties the span ring. Handles
/// held by the pipeline stay valid — only the values reset. Call before
/// a measured phase so process-global counts don't bleed across runs.
pub fn reset() {
    let metrics = registry().metrics.lock();
    for metric in metrics.values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
    let mut spans = registry().spans.lock();
    spans.records.clear();
    spans.next = 0;
    spans.total = 0;
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median, as the matching bucket's upper bound.
    pub p50: u64,
    /// 95th percentile, as the matching bucket's upper bound.
    pub p95: u64,
    /// 99th percentile, as the matching bucket's upper bound.
    pub p99: u64,
    /// 99.9th percentile, as the matching bucket's upper bound — the
    /// tail a soak run is judged on.
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every registered metric, sorted by name, plus
/// the retained spans (oldest first).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// Every histogram's summary.
    pub histograms: Vec<HistogramSnapshot>,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Total spans ever recorded (≥ `spans.len()`; the ring drops the
    /// oldest beyond [`SPAN_RING_CAPACITY`]).
    pub spans_recorded: u64,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON document (hand-rolled — the
    /// workspace is std-only). Span timestamps are [`now_ns`] values.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() { "" } else { "," };
            let _ = write!(out, "\n    {}: {v}{sep}", json_str(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i + 1 == self.gauges.len() { "" } else { "," };
            let _ = write!(out, "\n    {}: {v}{sep}", json_str(name));
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i + 1 == self.histograms.len() { "" } else { "," };
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"count\": {}, \"sum\": {}, \"mean\": {:.1}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
                 \"p999\": {}}}{}",
                json_str(&h.name),
                h.count,
                h.sum,
                h.mean(),
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99,
                h.p999,
                sep,
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"spans_recorded\": {},\n  \"spans\": [",
            self.spans_recorded
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = write!(
                out,
                "\n    {{\"seq\": {}, \"tid\": {}, \"object\": {}, \"method\": {}, \
                 \"t_call_ns\": {}, \"t_commit_ns\": {}, \"t_return_ns\": {}}}{}",
                s.seq,
                s.tid,
                s.object,
                json_str(s.name),
                s.t_call_ns,
                match s.t_commit_ns {
                    Some(t) => t.to_string(),
                    None => "null".to_string(),
                },
                s.t_return_ns,
                sep,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl fmt::Display for Snapshot {
    /// Human-readable rendering: one aligned line per metric.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<44} {v:>12}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "  {name:<44} {v:>12}  (gauge)")?;
        }
        for h in &self.histograms {
            writeln!(
                f,
                "  {:<44} n={} mean={:.0} p50={} p95={} p99={} p999={} max={}",
                h.name, h.count, h.mean(), h.p50, h.p95, h.p99, h.p999, h.max
            )?;
        }
        if self.spans_recorded > 0 {
            writeln!(
                f,
                "  spans: {} retained of {} recorded",
                self.spans.len(),
                self.spans_recorded
            )?;
        }
        Ok(())
    }
}

/// Reads every registered metric and the span ring.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    {
        let metrics = registry().metrics.lock();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push(h.snap(name)),
            }
        }
    }
    let spans = registry().spans.lock();
    snap.spans = spans.in_order();
    snap.spans_recorded = spans.total;
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; every test that asserts on values
    /// takes this lock and resets first.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let g = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        set_enabled(false);
        set_spans_enabled(false);
        g
    }

    #[test]
    fn enabled_flags_toggle_independently() {
        let _g = guard();
        assert!(!enabled());
        assert!(!spans_enabled());
        set_enabled(true);
        assert!(enabled());
        assert!(!spans_enabled());
        set_spans_enabled(true);
        assert!(spans_enabled());
        set_enabled(false);
        set_spans_enabled(false);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = guard();
        let c = counter("test.counter");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(snapshot().counter("test.counter"), Some(42));
        reset();
        assert_eq!(c.get(), 0);
        // The handle survives reset and keeps working.
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let _g = guard();
        let a = counter("test.same");
        let b = counter("test.same");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let _g = guard();
        let _c = counter("test.mismatch");
        let _g2 = gauge("test.mismatch");
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let _g = guard();
        let g = gauge("test.gauge");
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = guard();
        let h = histogram("test.hist");
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap.histogram("test.hist").expect("registered");
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1106);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1000);
        assert!(hs.p50 <= hs.p95 && hs.p95 <= hs.p99);
        assert!(hs.p99 <= hs.max);
        assert!((hs.mean() - 1106.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn span_ring_keeps_most_recent() {
        let _g = guard();
        for i in 0..(SPAN_RING_CAPACITY as u64 + 10) {
            record_span(SpanRecord {
                seq: i,
                tid: 1,
                object: 0,
                name: "m",
                t_call_ns: i,
                t_commit_ns: Some(i + 1),
                t_return_ns: i + 2,
            });
        }
        let snap = snapshot();
        assert_eq!(snap.spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(snap.spans_recorded, SPAN_RING_CAPACITY as u64 + 10);
        // Oldest retained is seq 10; newest is the last pushed.
        assert_eq!(snap.spans.first().map(|s| s.seq), Some(10));
        assert_eq!(
            snap.spans.last().map(|s| s.seq),
            Some(SPAN_RING_CAPACITY as u64 + 9)
        );
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let _g = guard();
        counter("test.json.counter").add(7);
        gauge("test.json.gauge").set(3);
        histogram("test.json.hist").record(12);
        record_span(SpanRecord {
            seq: 1,
            tid: 2,
            object: 3,
            name: "Insert",
            t_call_ns: 10,
            t_commit_ns: None,
            t_return_ns: 30,
        });
        let json = snapshot().to_json();
        assert!(json.contains("\"test.json.counter\": 7"));
        assert!(json.contains("\"test.json.gauge\": 3"));
        assert!(json.contains("\"name\": \"test.json.hist\""));
        assert!(json.contains("\"t_commit_ns\": null"));
        // Balanced braces/brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let text = snapshot().to_string();
        assert!(text.contains("test.json.counter"));
        assert!(text.contains("spans: 1 retained of 1 recorded"));
    }

    #[test]
    fn update_cost_is_lock_free_after_registration() {
        let _g = guard();
        let c = counter("test.hot");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
        assert_eq!(c.get(), 40_000);
    }
}
