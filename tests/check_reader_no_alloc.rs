//! Allocation budget of the offline file flow: a framed log replayed
//! through `Checker::check_reader` — decode, lookahead, spec — must not
//! touch the heap per call once its buffers exist. The checker reuses
//! emptied per-thread return queues, so a `Return` allocates nothing;
//! what remains is a fixed cost per check (the reader's buffers, the
//! checker's tables), the same at 1 000 calls as at 3 000.
//!
//! Installs a counting global allocator for this binary, which is why it
//! lives alone in its own integration-test file: no other test may share
//! the process and allocate while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use vyrd::core::checker::Checker;
use vyrd::core::codec::write_log;
use vyrd::core::event::Event;
use vyrd::core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd::core::view::View;
use vyrd::core::{MethodId, ObjectId, ThreadId, Value};

/// Counts allocations (not deallocations) made by the test thread while
/// armed; libtest's harness threads allocate concurrently and must not
/// count against the check.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    ARMED.load(Ordering::Relaxed) && IN_TEST_THREAD.try_with(Cell::get).unwrap_or(false)
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

/// Accepts every `Insert`; its state is not what is measured.
#[derive(Clone, Default)]
struct AcceptAll;

impl Spec for AcceptAll {
    fn kind(&self, _m: &MethodId) -> MethodKind {
        MethodKind::Mutator
    }

    fn apply(
        &mut self,
        _m: &MethodId,
        _args: &[Value],
        _r: &Value,
    ) -> Result<SpecEffect, SpecError> {
        Ok(SpecEffect::unchanged())
    }

    fn accepts_observation(&self, _m: &MethodId, _args: &[Value], _r: &Value) -> bool {
        true
    }

    fn view(&self) -> View {
        View::new()
    }
}

/// The scalar call/commit/return trace of `tests/decode_no_alloc.rs`.
fn scalar_log(records: usize) -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..records as i64 {
        events.push(Event::Call {
            tid: ThreadId((i % 4) as u32),
            object: ObjectId((i % 3) as u32),
            method: "Insert".into(),
            args: vec![Value::from(i), Value::from(i * 2)].into(),
        });
        events.push(Event::Commit {
            tid: ThreadId((i % 4) as u32),
            object: ObjectId((i % 3) as u32),
        });
        events.push(Event::Return {
            tid: ThreadId((i % 4) as u32),
            object: ObjectId((i % 3) as u32),
            method: "Insert".into(),
            ret: Value::from(i),
        });
    }
    events
}

/// Allocations made by one `check_reader` over `calls` encoded calls.
fn allocations_checking(calls: usize) -> u64 {
    let mut encoded = Vec::new();
    write_log(&mut encoded, &scalar_log(calls)).expect("encode");
    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    let report = Checker::io(AcceptAll).check_reader(encoded.as_slice());
    let after = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(false, Ordering::SeqCst);
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.methods_completed, calls as u64);
    after - before
}

#[test]
fn checking_a_framed_log_allocates_nothing_per_call() {
    IN_TEST_THREAD.with(|c| c.set(true));
    // The interner's entry for the method name exists before counting.
    let _ = MethodId::from("Insert");
    let short = allocations_checking(1_000);
    let long = allocations_checking(3_000);
    // Measured: 8 allocations at either length. A checker that allocated
    // each Return's lookahead queue made 1 006 and 3 006 (1.00 per call).
    let per_call = long.saturating_sub(short) as f64 / 2_000.0;
    assert!(
        per_call == 0.0,
        "{per_call:.3} allocations per call ({short} at 1 000 calls, {long} at 3 000)"
    );
    assert!(short <= 16, "{short} allocations of fixed cost");
}
