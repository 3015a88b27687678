//! Fault-injection coverage for the pipeline's drop-sites: every unit of
//! work a failpoint discards must be *accounted for* in the report or the
//! decode outcome — nothing disappears silently, nothing unwinds the
//! caller.
//!
//! The fault registry is process-global, so this binary owns its own
//! process and serializes its tests on a mutex.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use vyrd_core::checker::Checker;
use vyrd_core::codec;
use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::pool::VerifierPool;
use vyrd_core::segment::{
    checkpoint, scan_segments, ContinuousOptions, ContinuousVerifier, SegmentConfig,
    SteppingFactory,
};
use vyrd_core::shard::{ShardConfig, ShardRouter};
use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd_core::view::View;
use vyrd_core::{Event, MethodId, ObjectId, ThreadId, Value};
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[derive(Clone, Default)]
struct SetSpec(BTreeSet<i64>);

impl Spec for SetSpec {
    fn kind(&self, m: &MethodId) -> MethodKind {
        if m.name() == "Contains" {
            MethodKind::Observer
        } else {
            MethodKind::Mutator
        }
    }

    fn apply(&mut self, _m: &MethodId, args: &[Value], _r: &Value) -> Result<SpecEffect, SpecError> {
        let x = args[0].as_int().unwrap();
        self.0.insert(x);
        Ok(SpecEffect::touching([x]))
    }

    fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
        ret.as_bool() == Some(self.0.contains(&args[0].as_int().unwrap()))
    }

    fn view(&self) -> View {
        View::new()
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.0.iter().map(|&x| Value::from(x)).collect())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        let items = state
            .as_list()
            .ok_or_else(|| SpecError::new("state must be a list"))?;
        self.0 = items
            .iter()
            .map(|x| x.as_int().ok_or_else(|| SpecError::new("ints")))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

fn set_pool() -> VerifierPool {
    VerifierPool::spawn(LogMode::Io, 2, |_object| {
        Box::new(Checker::io(SetSpec::default())) as _
    })
}

/// `adds` completed Add calls (3 events each) on each of `objects`.
fn drive(pool: &VerifierPool, objects: u32, adds: u32) {
    drive_log(pool.log(), objects, adds);
}

fn drive_log(log: &EventLog, objects: u32, adds: u32) {
    for obj in 0..objects {
        let logger = log.with_object(ObjectId(obj)).logger();
        for i in 0..adds {
            logger.call("Add", &[Value::from(i64::from(i))]);
            logger.commit();
            logger.ret("Add", Value::Unit);
        }
    }
}

#[test]
fn refused_worker_spawns_fall_back_to_inline_checking() {
    let _serial = serial();
    let _scope = fault::install(
        FaultPlan::seeded(11).rule("pool.spawn", FaultRule::always(FaultAction::Drop)),
    );
    let pool = set_pool();
    assert_eq!(pool.workers(), 0, "every spawn was refused");
    drive(&pool, 3, 5);
    let report = pool.finish();
    // Inline fallback preserved full coverage: clean verdict, all events
    // checked, and the fallback itself is noted (not a degradation).
    assert!(report.passed(), "{report}");
    assert_eq!(report.stats.commits_applied, 15);
    assert_eq!(report.degradation.spawn_fallbacks, 3);
    assert!(!report.is_degraded(), "{report}");
}

#[test]
fn injected_append_drops_are_counted_as_events_lost() {
    let _serial = serial();
    let _scope = fault::install(
        FaultPlan::seeded(12).rule("log.append", FaultRule::always(FaultAction::Drop).after(4).times(6)),
    );
    let pool = set_pool();
    drive(&pool, 2, 10);
    let stats = pool.log().stats();
    let report = pool.finish();
    assert_eq!(stats.events_dropped_injected, 6);
    assert_eq!(report.degradation.events_lost, 6);
    assert!(report.is_degraded(), "{report}");
    // Dropping call/commit/return events mid-method can make the
    // surviving stream malformed — a verdict either way, never a clean
    // pass that hides the gap.
    assert_ne!(
        report.verdict(),
        vyrd_core::Verdict::Pass,
        "lost appends must not produce a clean PASS: {report}"
    );
}

#[test]
fn injected_routing_drops_are_counted_per_object() {
    let _serial = serial();
    let _scope = fault::install(
        FaultPlan::seeded(13).rule("shard.route", FaultRule::always(FaultAction::Drop).times(5)),
    );
    let pool = set_pool();
    drive(&pool, 2, 8);
    let report = pool.finish();
    assert_eq!(report.degradation.sheds(), 5);
    // The first 5 events all belong to object 0 (drive is sequential), so
    // the per-object ledger pins the loss where it happened.
    assert_eq!(report.degradation.sheds_by_object, vec![(ObjectId(0), 5)]);
    assert!(report.is_degraded(), "{report}");
}

#[test]
fn injected_codec_write_drops_shorten_the_stream_not_corrupt_it() {
    let _serial = serial();
    let events: Vec<Event> = (0..10i64)
        .flat_map(|i| {
            let tid = ThreadId(0);
            let object = ObjectId::DEFAULT;
            [
                Event::Call {
                    tid,
                    object,
                    method: MethodId::from("Add"),
                    args: vec![Value::from(i)].into(),
                },
                Event::Commit { tid, object },
                Event::Return {
                    tid,
                    object,
                    method: MethodId::from("Add"),
                    ret: Value::Unit,
                },
            ]
        })
        .collect();
    let dropped = {
        let _scope = fault::install(
            FaultPlan::seeded(14)
                .rule("codec.write", FaultRule::always(FaultAction::Drop).after(7).times(3)),
        );
        let mut bytes = Vec::new();
        codec::write_log(&mut bytes, &events).unwrap();
        bytes
    };
    // Three records are missing, but every surviving frame is intact: the
    // stream still decodes cleanly end to end.
    let outcome = codec::read_log_recovering(&dropped[..]);
    assert!(outcome.is_complete(), "{outcome}");
    assert_eq!(outcome.records().len(), events.len() - 3);
}

#[test]
fn injected_codec_read_drop_ends_the_stream_early_without_error() {
    let _serial = serial();
    let mut bytes = Vec::new();
    let events: Vec<Event> = (0..6u32)
        .map(|i| Event::Commit {
            tid: ThreadId(i),
            object: ObjectId::DEFAULT,
        })
        .collect();
    codec::write_log(&mut bytes, &events).unwrap();
    let _scope = fault::install(
        FaultPlan::seeded(15).rule("codec.read", FaultRule::always(FaultAction::Drop).after(4)),
    );
    let records = codec::read_log(&mut &bytes[..]).unwrap();
    assert_eq!(records, events[..4], "reader stopped at the injected EOF");
}

/// The 0.25-probability `shard.route` plan every replay test installs.
fn probabilistic_drops(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).rule(
        "shard.route",
        FaultRule::always(FaultAction::Drop).with_probability(0.25),
    )
}

#[test]
fn probabilistic_plans_replay_identically_per_seed() {
    let _serial = serial();
    // Through the pool. Compared on the injected sheds: a checker that
    // stops at a hole hangs up, and what the router then cannot deliver
    // is shed too — by how far the program had got, not by the seed.
    let run = |seed: u64| -> Vec<(ObjectId, u64)> {
        let _scope = fault::install(probabilistic_drops(seed));
        let pool = set_pool();
        drive(&pool, 3, 12);
        let d = pool.finish().degradation;
        assert_eq!(
            d.shed_windows.iter().map(|w| (w.object, w.events)).collect::<Vec<_>>(),
            d.sheds_by_object,
            "windows and counts are one ledger"
        );
        d.shed_windows
            .iter()
            .map(|w| (w.object, w.injected))
            .filter(|(_, injected)| *injected > 0)
            .collect()
    };
    let a = run(0xD1CE);
    let b = run(0xD1CE);
    let c = run(0xD1CE + 1);
    assert_eq!(a, b, "same seed, same sheds");
    assert!(!a.is_empty(), "0.25 over 108 events drops something");
    assert_ne!(a, c, "different seeds diverge");
}

/// With no checker behind the router nothing can hang up, so the whole
/// shed ledger — counts and windows — is a function of the seed.
#[test]
fn probabilistic_plans_replay_identically_per_seed_at_the_router() {
    let _serial = serial();
    let run = |seed: u64| {
        let _scope = fault::install(probabilistic_drops(seed));
        let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::default());
        drive_log(&log, 3, 12);
        log.close();
        let windows = router.shed_windows();
        assert!(windows.iter().all(|w| w.injected == w.events), "{windows:?}");
        (router.sheds(), windows)
    };
    let a = run(0xD1CE);
    let b = run(0xD1CE);
    let c = run(0xD1CE + 1);
    assert_eq!(a, b, "same seed, same sheds");
    assert!(!a.0.is_empty(), "0.25 over 108 events drops something");
    assert_ne!(a.0, c.0, "different seeds diverge");
}

/// Records Adds and Contains observers into a fresh directory of small
/// segments; returns it and the event count.
fn record_segments(tag: &str) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("vyrd-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let (log, handle) =
        EventLog::to_segments(LogMode::Io, SegmentConfig::new(&dir).segment_bytes(320)).unwrap();
    let logger = log.logger();
    for i in 0..60i64 {
        logger.call("Add", &[Value::from(i % 7)]);
        logger.commit();
        logger.ret("Add", Value::Unit);
        logger.call("Contains", &[Value::from(i % 7)]);
        logger.ret("Contains", Value::from(true));
    }
    log.close();
    (dir, handle.finish().unwrap().events)
}

#[test]
fn segments_stay_until_their_checkpoint_is_durably_named() {
    let _serial = serial();
    let factory: SteppingFactory = Arc::new(|_| Box::new(Checker::io(SetSpec::default())));
    let (reference_dir, total) = record_segments("dir-sync-reference");
    let reference = ContinuousVerifier::open(&reference_dir, factory.clone(), Default::default())
        .unwrap()
        .finalize()
        .unwrap();
    assert!(
        reference.passed() && !reference.is_degraded(),
        "{reference:?}"
    );
    assert_eq!(reference.stats.events, total);
    fs::remove_dir_all(&reference_dir).ok();

    for renames_lost in [true, false] {
        let (dir, _) = record_segments(&format!("dir-sync-failed-{renames_lost}"));
        let segments = scan_segments(&dir).unwrap().len();
        {
            let _scope = fault::install(
                FaultPlan::seeded(38)
                    .rule("checkpoint.dir_sync", FaultRule::always(FaultAction::Drop)),
            );
            let mut verifier =
                ContinuousVerifier::open(&dir, factory.clone(), ContinuousOptions::default())
                    .unwrap();
            let progress = verifier.step().unwrap();
            assert!(progress.segments_checked > 2, "{progress:?}");
            assert!(!checkpoint::list_checkpoints(&dir).unwrap().is_empty());
            assert_eq!(
                scan_segments(&dir).unwrap().len(),
                segments,
                "a segment was deleted under a checkpoint whose rename may not be durable"
            );
            // The verifier dies here, before any sync succeeded.
        }
        if renames_lost {
            // The crash kept the unlinks, had there been any, and lost
            // every unsynced rename.
            for path in checkpoint::list_checkpoints(&dir).unwrap() {
                fs::remove_file(path).unwrap();
            }
        }
        let resumed =
            ContinuousVerifier::open(&dir, factory.clone(), ContinuousOptions::default()).unwrap();
        assert_eq!(resumed.resume_seq() == 0, renames_lost);
        let report = resumed.finalize().unwrap();
        let verdict = |r: &vyrd_core::violation::Report| {
            (r.violation.clone(), r.stats, r.degradation.clone())
        };
        assert_eq!(
            verdict(&report),
            verdict(&reference),
            "renames lost: {renames_lost}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
