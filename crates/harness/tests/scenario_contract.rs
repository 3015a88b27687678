//! What every [`Scenario`] derives from its two hand-written pieces: the
//! capability table from [`Scenario::checkers`], and the op stream from
//! the one op-mix step shared by `run` and `run_multi`.

use std::collections::BTreeMap;

use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::{Event, ThreadId};
use vyrd_harness::scenario::{CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;

const KINDS: [CheckKind; 3] = [CheckKind::Io, CheckKind::View, CheckKind::Lin];

fn every_scenario() -> Vec<Box<dyn Scenario>> {
    scenarios::all()
        .into_iter()
        .chain(scenarios::lockfree())
        .collect()
}

/// The capability table as it was hand-written before it was derived:
/// the six table rows check in every mode, the lock-free family has no
/// replayer and so no `View`; and a `View` checker checkpoints only where
/// the replayer does (the cache's and both multisets').
#[test]
fn derived_capabilities_match_the_hand_written_table() {
    for scenario in every_scenario() {
        let name = scenario.name();
        let lockfree = matches!(name, "Treiber-Stack" | "MS-Queue");
        for kind in KINDS {
            let supported = !(lockfree && kind == CheckKind::View);
            assert_eq!(scenario.supports(kind), supported, "{name} {kind:?}: supports");
            assert_eq!(
                scenario.shard_factory(kind).is_some(),
                supported,
                "{name} {kind:?}: shard factory"
            );
            let refused = scenario
                .check(kind, Vec::new())
                .violation
                .is_some_and(|v| v.category() == "unsupported-mode");
            assert_eq!(refused, !supported, "{name} {kind:?}: check");

            let checkpointable = supported
                && (kind != CheckKind::View
                    || matches!(name, "Cache" | "Multiset-Vector" | "Multiset-BinaryTree"));
            assert_eq!(
                scenario.stepping_factory(kind).is_some(),
                checkpointable,
                "{name} {kind:?}: stepping factory"
            );
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Hashes each thread's `object:method(args)` call sequence, then the
/// sorted per-thread hashes — thread ids depend on scheduling, the calls
/// a thread issues do not. The internal task's calls are excluded: how
/// often it runs is wall-clock dependent.
fn op_stream_hash(events: &[Event]) -> u64 {
    let mut per_thread: BTreeMap<ThreadId, u64> = BTreeMap::new();
    for event in events {
        let Event::Call {
            tid,
            object,
            method,
            args,
        } = event
        else {
            continue;
        };
        if matches!(method.name(), "Flush" | "Compress") {
            continue;
        }
        let mut call = format!("{}:{}(", object.0, method.name());
        for arg in args.iter() {
            call.push_str(&format!("{arg},"));
        }
        call.push(')');
        fnv1a(per_thread.entry(*tid).or_insert(FNV_OFFSET), call.as_bytes());
    }
    let mut streams: Vec<u64> = per_thread.into_values().collect();
    streams.sort_unstable();
    let mut combined = FNV_OFFSET;
    for stream in streams {
        fnv1a(&mut combined, &stream.to_le_bytes());
    }
    combined
}

/// `(scenario, run hash, run_multi(3) hash)`, captured at the commit
/// before `run` and `run_multi` shared their op step (02deffb). A changed
/// hash means some call shifted an RNG draw — and with it every
/// pinned-seed gate, tracked witness and benchmark trace.
const OP_STREAMS: [(&str, u64, u64); 8] = [
    ("Multiset-Vector", 0x9056_DE38_37EC_95B6, 0xF9A0_034D_4FE4_AB9A),
    ("Multiset-BinaryTree", 0x8464_76A7_EC6D_AD8A, 0x2506_071B_D40D_DEB5),
    ("Vector", 0xC96E_EBB9_55CE_D33C, 0xE33A_FEBA_921B_981A),
    ("StringBuffer", 0x69E5_7AF8_6171_CC8C, 0x24A1_9942_69DB_6D62),
    ("BLinkTree", 0x0A22_8695_FDF7_4436, 0x77E6_AAD0_43DC_AB68),
    ("Cache", 0x6BA9_01F6_033B_5271, 0x52A2_C37C_2D23_0600),
    ("Treiber-Stack", 0xFC35_DA85_465D_DDF3, 0x3C56_7620_BE00_9F43),
    ("MS-Queue", 0xD61E_7468_3083_7CC0, 0xD2E8_A2B2_6A5F_A6B0),
];

#[test]
fn op_streams_are_unchanged_at_a_fixed_seed() {
    let cfg = WorkloadConfig {
        threads: 3,
        calls_per_thread: 60,
        key_pool: 12,
        shrink_pool: true,
        internal_task: false,
        seed: 0x5EED_0012,
        pace: None,
    };
    for (name, single, multi) in OP_STREAMS {
        let scenario = scenarios::by_name(name).expect(name);
        let log = EventLog::in_memory(LogMode::Io);
        scenario.run(&cfg, &log, Variant::Correct);
        assert_eq!(op_stream_hash(&log.drain()), single, "{name}: run");
        let log = EventLog::in_memory(LogMode::Io);
        assert!(scenario.run_multi(&cfg, &log, Variant::Correct, 3));
        assert_eq!(op_stream_hash(&log.drain()), multi, "{name}: run_multi(3)");
    }
}
