//! Property: *sequential* executions of the correct implementations
//! always refine their specifications — for arbitrary operation
//! sequences, under both I/O and view refinement.
//!
//! This is the soundness backstop for the whole stack: if any generated
//! single-threaded run failed, the bug would be in an implementation,
//! spec, replayer, or the checker itself — not in thread scheduling.
//!
//! Each property runs over a block of fixed [`vyrd::rt::rng`] seeds and
//! names the failing seed on assertion failure, so counterexamples
//! replay deterministically.

use vyrd::blinktree::{BLinkSpec, BLinkTree, BLinkVariant};
use vyrd::core::checker::{Checker, CheckerOptions};
use vyrd::core::log::{EventLog, LogMode};
use vyrd::core::{Event, ObjectId, Report};
use vyrd::harness::scenario::{record_run, CheckKind, Scenario, Variant};
use vyrd::harness::scenarios::{BLinkTreeScenario, MultisetBstScenario};
use vyrd::harness::workload::WorkloadConfig;
use vyrd::javalib::{
    BufferPool, StringBufferReplayer, StringBufferSpec, StringBufferVariant, SyncVector,
    VectorReplayer, VectorSpec, VectorVariant,
};
use vyrd::multiset::{
    ArrayMultiset, BstMultiset, BstVariant, FindSlotVariant, MultisetSpec, SlotReplayer,
};
use vyrd::rt::rng::Rng;
use vyrd::storage::{
    clean_matches_chunk, entry_in_exactly_one_list, BoxCache, CacheReplayer, CacheVariant,
    ChunkManager, StoreSpec,
};

const CASES: u64 = 48;

/// Runs `body` once per seed; a panic inside is re-raised with the seed
/// so the case replays exactly.
fn for_each_seed(base: u64, body: impl Fn(&mut Rng)) {
    for seed in base..base + CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if result.is_err() {
            panic!("property failed at seed {seed}");
        }
    }
}

#[derive(Clone, Debug)]
enum MsOp {
    Insert(i64),
    InsertPair(i64, i64),
    Delete(i64),
    Lookup(i64),
}

fn ms_op(rng: &mut Rng) -> MsOp {
    let key = rng.gen_range(0..8i64);
    match rng.gen_range(0..4u32) {
        0 => MsOp::Insert(key),
        1 => MsOp::InsertPair(key, rng.gen_range(0..8i64)),
        2 => MsOp::Delete(key),
        _ => MsOp::Lookup(key),
    }
}

#[test]
fn multiset_sequential_runs_refine() {
    for_each_seed(0, |rng| {
        let ops: Vec<MsOp> = (0..rng.gen_range(0..60usize)).map(|_| ms_op(rng)).collect();
        let log = EventLog::in_memory(LogMode::View);
        let ms = ArrayMultiset::new(16, FindSlotVariant::Correct, log.clone());
        let h = ms.handle();
        for op in &ops {
            match *op {
                MsOp::Insert(x) => {
                    h.insert(x);
                }
                MsOp::InsertPair(x, y) => {
                    h.insert_pair(x, y);
                }
                MsOp::Delete(x) => {
                    h.delete(x);
                }
                MsOp::Lookup(x) => {
                    h.lookup(x);
                }
            }
        }
        let events = log.snapshot();
        let io = Checker::io(MultisetSpec::new()).check_events(events.clone());
        assert!(io.passed(), "io: {io}");
        let view =
            Checker::view(MultisetSpec::new(), SlotReplayer::new()).check_events(events.clone());
        assert!(view.passed(), "view: {view}");
        // §6.4 equivalence: incremental and full comparison agree.
        let full = Checker::view(MultisetSpec::new(), SlotReplayer::new())
            .with_options(CheckerOptions {
                full_view_compare: true,
                ..Default::default()
            })
            .check_events(events);
        assert_eq!(view.passed(), full.passed());
    });
}

#[test]
fn blinktree_sequential_runs_refine() {
    for_each_seed(1_000, |rng| {
        let n = rng.gen_range(0..80usize);
        let log = EventLog::in_memory(LogMode::View);
        let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
        let h = tree.handle();
        for _ in 0..n {
            let kind = rng.gen_range(0..3u8);
            let key = rng.gen_range(0..24i64);
            let data = rng.gen_range(0..100i64);
            match kind {
                0 => h.insert(key, data),
                1 => {
                    h.delete(key);
                }
                _ => {
                    h.lookup(key);
                }
            }
        }
        h.compress();
        let events = log.snapshot();
        let io = Checker::io(BLinkSpec::new()).check_events(events.clone());
        assert!(io.passed(), "io: {io}");
        let (view, full) = incremental_and_full(&BLinkTreeScenario, &events);
        assert!(view.passed(), "view: {view}");
        assert_eq!(view.violation, full.violation);
    });
}

#[test]
fn bst_multiset_sequential_runs_refine() {
    for_each_seed(5_000, |rng| {
        let n = rng.gen_range(0..80usize);
        let log = EventLog::in_memory(LogMode::View);
        let ms = BstMultiset::new(BstVariant::Correct, log.clone());
        let h = ms.handle();
        for _ in 0..n {
            let x = rng.gen_range(0..12i64);
            match rng.gen_range(0..8u8) {
                0..=2 => {
                    h.insert(x);
                }
                3..=4 => {
                    h.delete(x);
                }
                5..=6 => {
                    h.lookup(x);
                }
                // Structural writes in the middle of the run, not only
                // while the tree grows.
                _ => h.compress(),
            }
        }
        let events = log.snapshot();
        let io = Checker::io(MultisetSpec::new()).check_events(events.clone());
        assert!(io.passed(), "io: {io}");
        let (view, full) = incremental_and_full(&MultisetBstScenario, &events);
        assert!(view.passed(), "view: {view}");
        assert_eq!(view.violation, full.violation);
    });
}

/// Checks `events` twice, comparing dirty keys only and comparing whole
/// views: the §6.4 incremental comparison must reach the same verdict —
/// the same violation, at the same commit, on the same key.
fn incremental_and_full(scenario: &dyn Scenario, events: &[Event]) -> (Report, Report) {
    let check = |full_view_compare| {
        let options = CheckerOptions {
            full_view_compare,
            ..Default::default()
        };
        let checkers = scenario
            .checkers(CheckKind::View, options)
            .expect("a view scenario");
        checkers(ObjectId::DEFAULT).check_events(events.to_vec())
    };
    (check(false), check(true))
}

#[test]
fn incremental_and_full_compare_agree_on_recorded_concurrent_runs() {
    let scenarios: [&dyn Scenario; 2] = [&BLinkTreeScenario, &MultisetBstScenario];
    for scenario in scenarios {
        for variant in [Variant::Correct, Variant::Buggy] {
            let mut failed = 0;
            for seed in 0..16u64 {
                let cfg = WorkloadConfig {
                    threads: 4,
                    calls_per_thread: 60,
                    key_pool: 16,
                    shrink_pool: true,
                    internal_task: true,
                    seed,
                    pace: None,
                };
                let run = record_run(scenario, &cfg, LogMode::View, variant);
                let (incremental, full) = incremental_and_full(scenario, &run.events);
                let what = format!("{} {variant:?} seed {seed}", scenario.name());
                assert_eq!(incremental.violation, full.violation, "{what}");
                match variant {
                    Variant::Correct => assert!(incremental.passed(), "{what}: {incremental}"),
                    Variant::Buggy => failed += u32::from(!incremental.passed()),
                }
            }
            assert!(
                variant == Variant::Correct || failed > 0,
                "{}: the bug never manifested in 16 seeds",
                scenario.name()
            );
        }
    }
}

#[test]
fn vector_sequential_runs_refine() {
    for_each_seed(2_000, |rng| {
        let n = rng.gen_range(0..60usize);
        let log = EventLog::in_memory(LogMode::View);
        let v = SyncVector::new(VectorVariant::Correct, log.clone());
        let h = v.handle();
        for _ in 0..n {
            let kind = rng.gen_range(0..4u8);
            let x = rng.gen_range(0..10i64);
            match kind {
                0 => h.add(x),
                1 => {
                    h.remove_last();
                }
                2 => {
                    h.last_index_of(x);
                }
                _ => {
                    h.get(x);
                    h.size();
                }
            }
        }
        let events = log.snapshot();
        let io = Checker::io(VectorSpec::new()).check_events(events.clone());
        assert!(io.passed(), "io: {io}");
        let view = Checker::view(VectorSpec::new(), VectorReplayer::new()).check_events(events);
        assert!(view.passed(), "view: {view}");
    });
}

#[test]
fn stringbuffer_sequential_runs_refine() {
    for_each_seed(3_000, |rng| {
        let n = rng.gen_range(0..50usize);
        let log = EventLog::in_memory(LogMode::View);
        let pool = BufferPool::new(3, StringBufferVariant::Correct, log.clone());
        let h = pool.handle();
        for _ in 0..n {
            let kind = rng.gen_range(0..4u8);
            let a = rng.gen_range(0..3i64);
            match kind {
                0 => h.append(a, "xy"),
                1 => {
                    h.append_buffer(a, rng.gen_range(0..3i64));
                }
                2 => h.set_length(a, rng.gen_range(0..12usize)),
                _ => {
                    h.to_string(a);
                    h.length(a);
                }
            }
        }
        let events = log.snapshot();
        let io = Checker::io(StringBufferSpec::new(3)).check_events(events.clone());
        assert!(io.passed(), "io: {io}");
        let view = Checker::view(StringBufferSpec::new(3), StringBufferReplayer::with_buffers(3))
            .check_events(events);
        assert!(view.passed(), "view: {view}");
    });
}

#[test]
fn cache_sequential_runs_refine() {
    for_each_seed(4_000, |rng| {
        let n = rng.gen_range(0..50usize);
        let log = EventLog::in_memory(LogMode::View);
        let cache = BoxCache::new(ChunkManager::new(), CacheVariant::Correct, log.clone());
        let h = cache.handle();
        for _ in 0..n {
            let kind = rng.gen_range(0..5u8);
            let handle = rng.gen_range(0..4i64);
            match kind {
                0 | 1 => {
                    let byte = rng.gen_range(0..256u32) as u8;
                    h.write(handle, vec![byte; 24]);
                }
                2 => {
                    h.read(handle);
                }
                3 => h.flush(),
                _ => h.revoke(handle),
            }
        }
        let events = log.snapshot();
        let io = Checker::io(StoreSpec::new()).check_events(events.clone());
        assert!(io.passed(), "io: {io}");
        let view = Checker::view(StoreSpec::new(), CacheReplayer::new())
            .with_invariant(clean_matches_chunk())
            .with_invariant(entry_in_exactly_one_list())
            .check_events(events);
        assert!(view.passed(), "view: {view}");
    });
}
