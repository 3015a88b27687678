//! Regression test for the "near-zero overhead when not logging" claim:
//! with `LogMode::Off`, an instrumented call site must allocate *nothing*
//! and deliver *nothing* — the mode check must come before any event
//! construction, interning, or cloning.
//!
//! The test installs a counting global allocator for this binary (which
//! is why it lives alone in its own integration-test file: no other test
//! may share the process and allocate while the counter is armed) and
//! drives every `ThreadLogger` entry point through a pre-built set of
//! inputs, asserting the heap-allocation count stays flat.
//!
//! The same binary also covers the metrics registry's companion claims:
//! counters in the *enabled* `Io` hot path add zero allocations per event
//! (the registry is pure pre-registered atomics after warmup), and the
//! registry's numbers reconcile exactly with [`EventLog::stats`] and the
//! shard router's shed ledger under a pinned fault seed. All tests
//! serialize on one mutex — the allocator arm flag and the metrics
//! enable flag are both process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use vyrd::core::log::{EventLog, LogMode, LogStats};
use vyrd::core::{ThreadId, Value, VarId};
use vyrd::rt::metrics;

/// Serializes the tests in this binary and resets the process-global
/// metrics state on entry, so one test's counters never leak into the
/// next.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    metrics::set_enabled(false);
    metrics::set_spans_enabled(false);
    metrics::reset();
    vyrd::rt::fault::clear();
    g
}

/// The fault matrix's pinned CI seed; `VYRD_FAULT_SEED` overrides it so a
/// failure replays under the seed that produced it.
fn pinned_seed() -> u64 {
    match vyrd::rt::fault::seed_from_env() {
        0 => 3_405_691_582,
        s => s,
    }
}

/// Passes everything through to the system allocator, counting
/// allocations (not deallocations — freeing pre-built inputs is fine)
/// made *by the test thread* while armed. Filtering by thread matters:
/// libtest's own harness threads allocate concurrently (name
/// formatting, result channels), and those must not count against the
/// logging path.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialized so reading it from inside the allocator is a
    // plain TLS load — no lazy-init allocation, no recursion.
    static IN_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    ARMED.load(Ordering::Relaxed)
        && IN_TEST_THREAD.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn off_mode_logging_allocates_nothing_and_delivers_nothing() {
    let _g = guard();
    static DELIVERED: AtomicU64 = AtomicU64::new(0);
    IN_TEST_THREAD.with(|c| c.set(true));
    let log = EventLog::dispatching_runs(LogMode::Off, |run| {
        DELIVERED.fetch_add(run.drain(..).count() as u64, Ordering::Relaxed);
    });

    // Pre-build every input outside the measured region. `Value::Int` is
    // allocation-free to clone; `VarId` clones an `Arc`.
    let logger = log.logger_for(ThreadId(7));
    let args = [Value::from(1i64), Value::from(2i64)];
    let ret = Value::from(42i64);
    let var = VarId::new("slot", 3);
    let val = Value::from(9i64);

    // Warm up once (lazy statics, thread-local plumbing) before arming.
    logger.call("Insert", &args);
    logger.ret_ref("Insert", &ret);

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        logger.call("Insert", &args);
        logger.ret_ref("Insert", &ret);
        logger.commit();
        logger.write(var.clone(), val.clone());
        logger.block_begin();
        logger.block_end();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "Off-mode logging hit the allocator {} time(s)",
        after - before
    );
    assert_eq!(DELIVERED.load(Ordering::SeqCst), 0, "Off-mode events were delivered");
    assert_eq!(log.stats(), LogStats::default());
    assert!(log.snapshot().is_empty());
}

/// The metrics-enabled `Io` hot path allocates nothing per event either:
/// after the one-time handle registration and capacity warmup, every
/// counter bump and histogram record is a plain atomic RMW.
#[test]
fn metrics_enabled_io_steady_state_allocates_nothing() {
    let _g = guard();
    IN_TEST_THREAD.with(|c| c.set(true));
    metrics::set_enabled(true);
    let log = EventLog::discarding(LogMode::Io);
    let logger = log.logger_for(ThreadId(7));
    // ≤ 2 integer args stay inline in `ArgList`, and an `Int` return is
    // allocation-free to log — the event itself costs nothing.
    let args = [Value::from(1i64), Value::from(2i64)];
    let ret = Value::from(42i64);

    // Warmup: registers every pipeline handle (the single allocating
    // init) and runs enough full batches that the recycled batch, merger
    // run, and spare-run capacities all reach steady state.
    for _ in 0..2_000 {
        logger.call("Insert", &args);
        logger.ret_ref("Insert", &ret);
        logger.commit();
    }

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        logger.call("Insert", &args);
        logger.ret_ref("Insert", &ret);
        logger.commit();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(false, Ordering::SeqCst);
    metrics::set_enabled(false);

    assert_eq!(
        after - before,
        0,
        "metrics-enabled Io logging hit the allocator {} time(s) over 30k events",
        after - before
    );
}

/// A logger taken per call costs its `ThreadBuffer` handle and nothing
/// else: it adopts the batch the previous call's logger left behind
/// instead of allocating one of its own.
#[test]
fn per_call_logger_allocates_only_its_handle() {
    let _g = guard();
    IN_TEST_THREAD.with(|c| c.set(true));
    let log = EventLog::discarding(LogMode::Io);
    let args = [Value::from(1i64), Value::from(2i64)];
    let ret = Value::from(42i64);
    let call = || {
        let logger = log.logger_for(ThreadId(7));
        logger.call("Insert", &args);
        logger.ret_ref("Insert", &ret);
        logger.commit();
    };

    for _ in 0..2_000 {
        call();
    }

    const CALLS: u64 = 10_000;
    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..CALLS {
        call();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(false, Ordering::SeqCst);

    let per_call = (after - before) as f64 / CALLS as f64;
    assert!(
        per_call <= 1.05,
        "a per-call logger hit the allocator {per_call:.3} times per call"
    );
}

/// The registry's log counters are not estimates: they must agree with
/// [`EventLog::stats`] to the event — appends, post-close discards, and
/// fault-injected drops alike.
#[test]
fn metrics_counters_reconcile_with_log_stats() {
    let _g = guard();
    const DROPS: u64 = 5;
    metrics::set_enabled(true);
    let seed = pinned_seed();
    let _scope = vyrd::rt::fault::install(vyrd::rt::fault::FaultPlan::seeded(seed).rule(
        "log.append",
        vyrd::rt::fault::FaultRule::always(vyrd::rt::fault::FaultAction::Drop)
            .after(10)
            .times(DROPS),
    ));

    let log = EventLog::in_memory(LogMode::Io);
    let logger = log.logger_for(ThreadId(3));
    let args = [Value::from(7i64)];
    for _ in 0..200 {
        logger.call("Insert", &args);
        logger.ret_ref("Insert", &Value::success());
    }
    log.close();
    // Stragglers after close are discarded — and must be counted as such.
    for _ in 0..17 {
        logger.call("Insert", &args);
    }
    let stats = log.stats();
    metrics::set_enabled(false);
    drop(_scope);

    let snap = metrics::snapshot();
    assert_eq!(stats.events_dropped_injected, DROPS, "fault plan fired");
    assert!(stats.events_discarded_after_close >= 17);
    assert_eq!(
        snap.counter("log.events_appended"),
        Some(stats.events),
        "appended events"
    );
    assert_eq!(
        snap.counter("log.events_discarded_after_close"),
        Some(stats.events_discarded_after_close),
        "post-close discards"
    );
    assert_eq!(
        snap.counter("log.events_dropped_injected"),
        Some(stats.events_dropped_injected),
        "injected drops"
    );
}

/// Under a pinned-seed routing-drop fault plan, the router's shed metric
/// and the degradation ledger move in lockstep: same sites, same counts.
#[test]
fn shed_metric_reconciles_with_degradation_ledger() {
    use vyrd::core::pool::{SupervisorConfig, VerifierPool};
    use vyrd::core::shard::ShardConfig;
    use vyrd::harness::scenario::{CheckKind, Variant};
    use vyrd::harness::scenarios;
    use vyrd::harness::workload::WorkloadConfig;

    let _g = guard();
    const DROPS: u64 = 7;
    let seed = pinned_seed();
    let scenario = scenarios::by_name("Multiset-Vector").expect("known scenario");
    let cfg = WorkloadConfig {
        threads: 4,
        calls_per_thread: 25,
        key_pool: 8,
        shrink_pool: true,
        internal_task: true,
        seed,
        pace: None,
    };

    // Record the trace before enabling metrics, so only the checked
    // replay is measured.
    let record = EventLog::in_memory(CheckKind::View.log_mode());
    assert!(scenario.run_multi(&cfg, &record, Variant::Correct, 3));
    let events = record.snapshot();

    metrics::set_enabled(true);
    let _scope = vyrd::rt::fault::install(vyrd::rt::fault::FaultPlan::seeded(seed).rule(
        "shard.route",
        vyrd::rt::fault::FaultRule::always(vyrd::rt::fault::FaultAction::Drop)
            .after(3)
            .times(DROPS),
    ));
    let factory = scenario
        .shard_factory(CheckKind::View)
        .expect("sharded scenario has a factory");
    let pool = VerifierPool::spawn_supervised(
        CheckKind::View.log_mode(),
        3,
        ShardConfig::default(),
        SupervisorConfig::default(),
        move |object| factory(object),
    );
    let report = pool.replay(&events);
    metrics::set_enabled(false);
    drop(_scope);

    let snap = metrics::snapshot();
    let ledger = report.merged.degradation.sheds();
    assert_eq!(
        snap.counter("shard.sheds_injected"),
        Some(DROPS),
        "fault plan shed exactly its budget"
    );
    assert_eq!(report.merged.degradation.injected_sheds(), DROPS, "and the ledger says so too");
    // A checker that stops at the hole hangs up; what the router then
    // cannot deliver to it is the only other thing shed (and metered).
    assert_eq!(snap.counter("shard.sheds_timeout"), Some(0), "nothing timed out");
    assert_eq!(
        snap.counter("shard.sheds_abandoned"),
        Some(ledger - DROPS),
        "total == injected + abandoned"
    );
    assert_eq!(
        snap.counter("shard.events_shed"),
        Some(ledger),
        "shed metric vs degradation ledger"
    );
    assert_eq!(
        snap.counter("log.events_appended"),
        Some(events.len() as u64),
        "replayed events all counted"
    );
}
