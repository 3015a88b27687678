//! Shed-budget exhaustion, abandonment, and watchdog ledger coverage: a
//! shard driven past its `Shed` budget flips to `Slot::Shedding` and
//! never re-admits; verdicts under injected drops and checker hang-ups
//! stay degrade-never-forge in both directions (correct traces never
//! FAIL, real prefix violations still FAIL); and a pool with a stall
//! deadline keeps its ledger exactly reconciled with the metrics
//! registry.
//!
//! The fault and metrics registries are process-global, so this binary
//! owns its own process and serializes its tests on a mutex.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use vyrd_core::checker::Checker;
use vyrd_core::log::LogMode;
use vyrd_core::pool::{SupervisorConfig, VerifierPool};
use vyrd_core::shard::{ShardConfig, ShardRouter};
use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd_core::view::View;
use vyrd_core::violation::WatchdogAction;
use vyrd_core::{MethodId, ObjectId, Value, Verdict};
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd_rt::metrics;

/// The CI seed (`vyrd_bench::cli::CI_SEED`), so faulted schedules replay.
const SEED: u64 = 3_405_691_582;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A set with one poisoned method: `Bad` commits a state transition the
/// spec rejects, so a checker that sees its events reports a genuine
/// refinement violation.
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

    fn apply(&mut self, m: &MethodId, args: &[Value], _r: &Value) -> Result<SpecEffect, SpecError> {
        if m.name() == "Bad" {
            return Err(SpecError::new("Bad can never commit"));
        }
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
}

fn pool_with(workers: usize, config: ShardConfig) -> VerifierPool {
    VerifierPool::spawn_supervised(
        LogMode::Io,
        workers,
        config,
        SupervisorConfig::default(),
        |_object| Box::new(Checker::io(SetSpec::default())) as _,
    )
}

/// `adds` completed Add calls (3 events each) on `object`.
fn drive_adds(pool: &VerifierPool, object: u32, adds: u32) {
    let logger = pool.log().with_object(ObjectId(object)).logger();
    for i in 0..adds {
        logger.call("Add", &[Value::from(i64::from(i))]);
        logger.commit();
        logger.ret("Add", Value::Unit);
    }
}

/// A stalled consumer (Delay failpoint before the checker's first recv):
/// a capacity-2 shard with a 3-shed budget admits exactly 2 events,
/// burns its budget on timeouts, flips to `Slot::Shedding`, and sheds
/// everything after — with the whole episode stamped into one
/// seq-window. The truncated 2-event prefix must not forge a FAIL out
/// of its missing return.
#[test]
fn budget_exhaustion_abandons_and_never_readmits() {
    let _serial = serial();
    // The worker sleeps 500ms before its first recv, so the whole
    // 60-event burst routes against a full, unmoving shard.
    let _scope = fault::install(FaultPlan::seeded(SEED).rule(
        "pool.check.0",
        FaultRule::once(FaultAction::Delay(Duration::from_millis(500))),
    ));
    let pool = pool_with(
        1,
        ShardConfig::bounded_shedding(2, Duration::from_millis(1), 3),
    );
    drive_adds(&pool, 0, 20); // 60 events, one object
    let report = pool.finish_all();
    let d = &report.merged.degradation;

    // 2 delivered, 58 shed: 3 timeout sheds spend the budget (seqs
    // 2..=4), then every later event takes the abandoned fast path.
    assert_eq!(d.sheds(), 58, "{report}");
    assert_eq!(d.shed_windows.len(), 1);
    let w = &d.shed_windows[0];
    assert_eq!(w.object, ObjectId(0));
    assert_eq!((w.first_seq, w.last_seq, w.events), (2, 59, 58));
    assert_eq!(w.prefix_events, 2, "2 events delivered before the gap");
    assert_eq!(w.abandoned_at_seq, Some(4), "budget of 3 spent at seq 4");

    // The shard never re-admitted: everything delivered was either
    // checked or is accounted stranded in the checker's lookahead (the
    // Commit stalls forever — its Return was shed).
    let obj0 = &report.per_object[0].1;
    assert_eq!(obj0.stats.events + obj0.degradation.stranded_events, 2);

    // Degrade, never forge: the prefix ends mid-method (the return was
    // shed), which is truncation, not a violation.
    assert!(report.merged.violation.is_none(), "{report}");
    assert_eq!(report.merged.verdict(), Verdict::DegradedPass);
    assert_eq!(d.unreliable_violations, 1, "seal artifact suppressed");
}

/// A checker that stops at a *real* violation hangs up its channel; the
/// router must treat the hang-up as abandonment (count every later event,
/// stamp the window) — and the violation, found on the gap-free prefix,
/// must keep the run a FAIL. Buggy never passes because of overload.
#[test]
fn checker_hangup_closes_the_shard_and_keeps_the_prefix_violation() {
    let _serial = serial();
    // The 100ms pre-abandonment timeout guarantees the poisoned trio is
    // *delivered* even if the worker is slow to claim the shard; the
    // per-event flushes keep each send ahead of the hang-up (appends are
    // thread-buffered, so without them the trio and the flood would
    // route as one burst and race the receiver drop).
    let pool = pool_with(
        1,
        ShardConfig::bounded_shedding(2, Duration::from_millis(100), 100),
    );
    let logger = pool.log().with_object(ObjectId(0)).logger();
    logger.call("Bad", &[Value::from(1i64)]);
    pool.log().flush();
    logger.commit();
    pool.log().flush();
    logger.ret("Bad", Value::Unit);
    pool.log().flush();
    // Let the worker consume the poisoned method, report the violation,
    // and drop its receiver.
    std::thread::sleep(Duration::from_millis(300));
    drive_adds(&pool, 0, 30); // 90 more events, all after the hang-up
    let report = pool.finish_all();
    let d = &report.merged.degradation;

    assert_eq!(d.sheds(), 90, "every post-hangup event counted: {report}");
    assert_eq!(d.shed_windows.len(), 1);
    let w = &d.shed_windows[0];
    assert_eq!((w.first_seq, w.last_seq), (3, 92));
    assert_eq!(w.prefix_events, 3, "the poisoned method was delivered");
    assert_eq!(w.abandoned_at_seq, Some(3), "closed on the first retry");

    // The violation sits at position 1 < prefix 3: a faithful slice of
    // the execution, so the FAIL stands.
    assert!(report.merged.violation.is_some(), "{report}");
    assert_eq!(report.merged.verdict(), Verdict::Fail);
    assert_eq!(d.unreliable_violations, 0);
}

/// A batched router drops an event while two of the same merged run are
/// still pending: the shed must flush them first, so the gap-free prefix
/// it freezes counts both, not the zero delivered before the run began.
#[test]
fn route_drop_freezes_the_flushed_prefix() {
    let _serial = serial();
    let _scope = fault::install(
        FaultPlan::seeded(SEED).rule("shard.route", FaultRule::once(FaultAction::Drop).after(2)),
    );
    let (log, router) = ShardRouter::new(LogMode::Io, ShardConfig::default());
    let logger = log.with_object(ObjectId(0)).logger();
    logger.call("Add", &[Value::from(1i64)]);
    logger.commit();
    logger.ret("Add", Value::Unit);
    log.flush(); // one merged run: Call, Commit pending when Return drops
    log.close();

    let w = router.shed_windows();
    assert_eq!(w.len(), 1, "{w:?}");
    assert_eq!((w[0].first_seq, w[0].events, w[0].injected), (2, 1, 1));
    assert_eq!(
        w[0].prefix_events, 2,
        "both pending events were delivered first"
    );
    let (_, rx) = router.recv_shard().unwrap();
    assert_eq!(rx.iter().count(), 2);
}

/// Pinned-seed injected routing drops on a correct trace: the coverage
/// loss is counted and windowed, spurious violations born of the holes
/// are suppressed, and the verdict degrades — it never turns into FAIL.
#[test]
fn injected_route_drops_stay_degrade_never_forge() {
    let _serial = serial();
    let _scope = fault::install(FaultPlan::seeded(SEED).rule(
        "shard.route",
        FaultRule::always(FaultAction::Drop).after(3).times(7),
    ));
    let pool = pool_with(2, ShardConfig::default());
    drive_adds(&pool, 0, 12);
    drive_adds(&pool, 1, 12);
    let report = pool.finish_all();
    let d = &report.merged.degradation;

    assert_eq!(d.sheds(), 7, "{report}");
    assert!(!d.shed_windows.is_empty());
    assert!(report.merged.is_degraded(), "{report}");
    assert_ne!(
        report.merged.verdict(),
        Verdict::Fail,
        "a correct trace must not FAIL from injected drops: {report}"
    );
}

/// A shedding pool with a stall deadline under a stalled checker: every
/// watchdog escalation, shed, and stranded event in the merged ledger
/// must agree exactly with the `overload.*`/`shard.*` registry counters,
/// and conservation must hold end to end.
#[test]
fn adaptive_ledger_reconciles_with_metrics() {
    let _serial = serial();
    metrics::reset();
    metrics::set_enabled(true);
    let _scope = fault::install(FaultPlan::seeded(SEED).rule(
        "pool.check.0",
        FaultRule::once(FaultAction::Delay(Duration::from_millis(100))),
    ));
    let pool = VerifierPool::spawn_supervised(
        LogMode::Io,
        3,
        ShardConfig::bounded_shedding(4, Duration::from_millis(5), 8),
        SupervisorConfig {
            stall_deadline: Some(Duration::from_millis(50)),
            ..SupervisorConfig::default()
        },
        |_object| Box::new(Checker::io(SetSpec::default())) as _,
    );
    for object in 0..3 {
        drive_adds(&pool, object, 120);
    }
    let log_stats = pool.log().stats();
    let report = pool.finish_all();
    metrics::set_enabled(false);
    let snap = metrics::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let d = &report.merged.degradation;

    // Conservation: appended == routed + shed, routed == checked +
    // stranded — sheds and stranded residue are the only coverage gaps.
    assert_eq!(log_stats.events, c("log.events_appended"));
    assert_eq!(
        c("log.events_appended"),
        c("shard.events_routed") + c("shard.events_shed"),
        "{report}"
    );
    assert_eq!(
        c("shard.events_routed"),
        c("pool.events_checked") + d.stranded_events,
        "{report}"
    );

    // Ledger and registry agree increment for increment.
    assert_eq!(d.sheds(), c("shard.events_shed"));
    assert_eq!(
        c("shard.sheds_timeout") + c("shard.sheds_abandoned") + c("shard.sheds_injected"),
        c("shard.events_shed")
    );
    let window_sum: u64 = d.shed_windows.iter().map(|w| w.events).sum();
    assert_eq!(window_sum, d.sheds());
    let wcount = |a: WatchdogAction| {
        d.watchdog_events.iter().filter(|x| x.action == a).count() as u64
    };
    assert_eq!(wcount(WatchdogAction::RescueWorker), c("overload.watchdog_rescues"));
    assert_eq!(wcount(WatchdogAction::Quarantine), c("overload.watchdog_quarantines"));

    // The stall forced real shedding, and the correct trace still did
    // not FAIL.
    assert!(d.sheds() > 0, "{report}");
    assert_ne!(report.merged.verdict(), Verdict::Fail, "{report}");
}
