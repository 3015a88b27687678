//! # vyrd-blinktree — the Boxwood B-link tree (§7.2.3–§7.2.5, Fig. 9)
//!
//! A concurrent B-link tree in the style of Sagiv [12]: right-linked
//! nodes with high keys, lock-free-of-coupling descents that repair stale
//! routing by moving right, split-then-ascend inserts with the Fig. 9
//! conditional commit points, an internal compression task, and the
//! Table 1 "allowing duplicated data nodes" bug
//! ([`BLinkVariant::DuplicateDataNodes`]).
//!
//! ```
//! use vyrd_core::checker::Checker;
//! use vyrd_core::log::{EventLog, LogMode};
//! use vyrd_blinktree::{BLinkReplayer, BLinkSpec, BLinkTree, BLinkVariant};
//!
//! let log = EventLog::in_memory(LogMode::View);
//! let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
//! let h = tree.handle();
//! for k in 0..32 {
//!     h.insert(k, k);
//! }
//! let report = Checker::view(BLinkSpec::new(), BLinkReplayer::new())
//!     .check_events(log.snapshot());
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod node;
mod replay;
mod spec;
mod tree;

pub use replay::BLinkReplayer;
pub use spec::BLinkSpec;
pub use tree::{BLinkTree, BLinkTreeHandle, BLinkVariant};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeContent;
    use vyrd_core::checker::Checker;
    use vyrd_core::log::{EventLog, LogMode};
    use vyrd_core::violation::Report;

    fn view_log() -> EventLog {
        EventLog::in_memory(LogMode::View)
    }

    fn check_io(log: &EventLog) -> Report {
        Checker::io(BLinkSpec::new()).check_events(log.snapshot())
    }

    fn check_view(log: &EventLog) -> Report {
        Checker::view(BLinkSpec::new(), BLinkReplayer::new()).check_events(log.snapshot())
    }

    #[test]
    fn incremental_compare_sees_a_record_filed_under_another_key() {
        use vyrd_core::checker::CheckerOptions;
        use vyrd_core::violation::Violation;
        use vyrd_core::{Event, ObjectId, ThreadId, Value, VarId};

        // A corrupt implementation: Insert(5, 50) files its record under
        // key 7, and an unproductive Delete(7) then rewrites that record.
        // `view_I` lists the record under the key of the leaf entry that
        // points at it, so the rewrite moves the entry of key 5.
        let (tid, object) = (ThreadId(0), ObjectId::DEFAULT);
        let call = |method: &str, args: &[i64]| Event::Call {
            tid,
            object,
            method: method.into(),
            args: args.iter().map(|&a| Value::from(a)).collect(),
        };
        let write = |space: &'static str, id: i64, content: NodeContent| Event::Write {
            tid,
            object,
            var: VarId::new(space, id),
            value: match space {
                "leaf" => content.encode_leaf(),
                _ => content.encode_data(),
            },
        };
        let record = |data, version| NodeContent::Data {
            key: 7,
            data,
            version,
        };
        let ret = |method: &str, ret: Value| Event::Return {
            tid,
            object,
            method: method.into(),
            ret,
        };
        let leaf = NodeContent::Leaf {
            entries: vec![(5, 10)],
            high: i64::MAX,
            right: None,
        };
        let events = vec![
            call("Insert", &[5, 50]),
            write("data", 10, record(50, 1)),
            write("leaf", 0, leaf),
            Event::Commit { tid, object },
            ret("Insert", Value::Unit),
            call("Delete", &[7]),
            write("data", 10, record(60, 2)),
            Event::Commit { tid, object },
            ret("Delete", Value::from(false)),
        ];
        let entry = |data: i64, version: u64| {
            Some(Value::List(vec![Value::pair(
                Value::from(data),
                Value::from(version),
            )]))
        };
        for full_view_compare in [false, true] {
            let report = Checker::view(BLinkSpec::new(), BLinkReplayer::new())
                .with_options(CheckerOptions {
                    full_view_compare,
                    ..CheckerOptions::default()
                })
                .check_events(events.clone());
            match report.violation {
                Some(Violation::ViewMismatch {
                    key,
                    view_i,
                    view_s,
                    commit_index,
                    ..
                }) => {
                    assert_eq!(key, Value::from(5i64));
                    assert_eq!((view_i, view_s), (entry(60, 2), entry(50, 1)));
                    assert_eq!(commit_index, 1);
                }
                other => panic!("full_view_compare={full_view_compare}: {other:?}"),
            }
        }
    }

    #[test]
    fn sequential_inserts_lookups_deletes() {
        let log = view_log();
        let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
        let h = tree.handle();
        // Enough keys to force several levels of splits (MAX_KEYS = 4).
        for k in 0..64 {
            h.insert(k * 3 % 64, k);
        }
        // 3 is invertible mod 64, so {k*3 mod 64} covers every key 0..64.
        for k in 0..64i64 {
            assert!(h.lookup(k).is_some(), "key {k}");
        }
        assert!(h.delete(0));
        assert_eq!(h.lookup(0), None);
        assert!(!h.delete(0));
        assert!(check_io(&log).passed());
        let view = check_view(&log);
        assert!(view.passed(), "view: {view}");
    }

    #[test]
    fn overwrites_bump_versions() {
        let log = view_log();
        let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
        let h = tree.handle();
        h.insert(5, 50);
        h.insert(5, 55);
        h.insert(5, 56);
        assert_eq!(h.lookup(5), Some(56));
        let view = check_view(&log);
        assert!(view.passed(), "view: {view}");
    }

    #[test]
    fn descending_and_random_orders_build_valid_trees() {
        for seed in [1u64, 7, 23] {
            let log = view_log();
            let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
            let h = tree.handle();
            let mut x = seed;
            for i in (0..48).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = ((x >> 33) % 97) as i64;
                h.insert(k, i);
            }
            for i in 0..48 {
                h.insert(i, i);
                assert_eq!(h.lookup(i), Some(i), "seed {seed}");
            }
            let view = check_view(&log);
            assert!(view.passed(), "seed {seed}: {view}");
        }
    }

    #[test]
    fn compression_merges_and_preserves_contents() {
        let log = view_log();
        let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
        let h = tree.handle();
        for k in 0..40 {
            h.insert(k, k * 2);
        }
        for k in 0..40 {
            if k % 2 == 0 {
                assert!(h.delete(k));
            }
        }
        h.compress();
        for k in 0..40 {
            let expected = if k % 2 == 0 { None } else { Some(k * 2) };
            assert_eq!(h.lookup(k), expected, "key {k} after compression");
        }
        // More inserts after compression still work (rebuilt index).
        for k in 100..120 {
            h.insert(k, k);
            assert_eq!(h.lookup(k), Some(k));
        }
        let view = check_view(&log);
        assert!(view.passed(), "view: {view}");
        assert!(check_io(&log).passed());
    }

    #[test]
    fn concurrent_correct_run_passes() {
        let log = view_log();
        let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
        let mut workers = Vec::new();
        for t in 0..4i64 {
            let h = tree.handle();
            workers.push(std::thread::spawn(move || {
                for i in 0..60 {
                    let k = (t * 13 + i * 7) % 41;
                    match i % 4 {
                        0 | 1 => h.insert(k, t * 1000 + i),
                        2 => {
                            h.delete(k);
                        }
                        _ => {
                            h.lookup(k);
                        }
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let io = check_io(&log);
        assert!(io.passed(), "io: {io}");
        let view = check_view(&log);
        assert!(view.passed(), "view: {view}");
    }

    #[test]
    fn concurrent_run_with_compression_passes() {
        let log = view_log();
        let tree = BLinkTree::new(BLinkVariant::Correct, log.clone());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let compressor = {
            let tree = tree.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let h = tree.handle();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    h.compress();
                    std::thread::yield_now();
                }
            })
        };
        let mut workers = Vec::new();
        for t in 0..3i64 {
            let h = tree.handle();
            workers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let k = (t * 17 + i * 5) % 29;
                    match i % 3 {
                        0 => h.insert(k, i),
                        1 => {
                            h.delete(k);
                        }
                        _ => {
                            h.lookup(k);
                        }
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        compressor.join().unwrap();
        let view = check_view(&log);
        assert!(view.passed(), "view: {view}");
    }

    #[test]
    fn duplicate_data_nodes_bug_is_caught() {
        // Fill one leaf to the brink, then race two inserts of the same
        // key: in the buggy variant one inserter may use a stale leaf
        // after the other's split moved the key right — duplicating it.
        for _ in 0..600 {
            let log = view_log();
            let tree = BLinkTree::new(BLinkVariant::DuplicateDataNodes, log.clone());
            let seed = tree.handle();
            for k in [10, 20, 30, 40] {
                seed.insert(k, k);
            }
            let h1 = tree.handle();
            let h2 = tree.handle();
            let a = std::thread::spawn(move || {
                h1.insert(25, 1111);
            });
            let b = std::thread::spawn(move || {
                h2.insert(35, 2222);
                h2.insert(25, 3333);
            });
            a.join().unwrap();
            b.join().unwrap();
            let view = check_view(&log);
            if !view.passed() {
                let v = view.violation.unwrap();
                assert!(
                    matches!(v.category(), "view-mismatch" | "observer-unjustified"),
                    "unexpected violation {v}"
                );
                return;
            }
        }
        panic!("the duplicate-data-node race never manifested in 600 attempts");
    }
}
