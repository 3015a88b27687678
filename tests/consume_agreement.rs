//! The batched consume path must be observationally equivalent to
//! per-event delivery.
//!
//! The overhauled pipeline batches at two layers: the shard router
//! flushes per-object runs through `send_many`, and `check_receiver`
//! drains whole channel batches through `recv_many`. Neither layer may
//! change a verdict: the checker processes events strictly in arrival
//! order either way. These tests pin that equivalence on real scenario
//! traces — Correct and Buggy variants, 1-worker and 4-worker pools —
//! against a baseline that consumes the same shard streams one event at
//! a time (a capacity-1 channel makes every batch a singleton).
//!
//! Fault injection rides the same pinned seed as the fault matrix:
//! under injected `shard.route` drops, the batched router must produce
//! the *identical* degradation ledger — shed counts and `ShedWindow`
//! seq stamps field for field — as an unbatched router, because both
//! stamp dispatch seqs per event and flush pending deliveries before
//! freezing a window (degrade-never-forge at batch boundaries).

mod common;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

use vyrd::core::log::EventLog;
use vyrd::core::pool::VerifierPool;
use vyrd::core::shard::{partition_by_object, ShardConfig, ShardRouter};
use vyrd::core::{Event, OverloadPolicy, Report};
use vyrd::harness::scenario::{CheckKind, Scenario, Variant};
use vyrd::harness::scenarios;
use vyrd::harness::workload::WorkloadConfig;
use vyrd::rt::channel;
use vyrd::rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd::rt::rng::Rng;

use common::base_seeds;

const OBJECTS: u32 = 3;

/// This suite's own seed; [`base_seeds`] adds the CI seed.
const DEFAULT_SEED: u64 = 0x000C_0A5E_0002;

/// The fault registry is process-global; tests serialize so plans never
/// leak across concurrently running tests in this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        threads: 4,
        calls_per_thread: 25,
        key_pool: 8,
        shrink_pool: true,
        internal_task: true,
        seed,
        pace: None,
    }
}

fn record_multi(
    scenario: &dyn Scenario,
    kind: CheckKind,
    variant: Variant,
    seed: u64,
) -> Option<Vec<Event>> {
    let log = EventLog::in_memory(kind.log_mode());
    scenario
        .run_multi(&cfg(seed), &log, variant, OBJECTS)
        .then(|| log.snapshot())
}

/// The batched pipeline: append through the router (per-object run
/// flushes), consume through `recv_many` in pool workers.
fn pooled_verdict(
    scenario: &dyn Scenario,
    kind: CheckKind,
    events: &[Event],
    workers: usize,
) -> Report {
    let factory = scenario.shard_factory(kind).expect("factory exists");
    let pool = VerifierPool::spawn(kind.log_mode(), workers, move |object| factory(object));
    pool.replay(events).merged
}

/// The per-event baseline: each shard's stream is consumed through a
/// capacity-1 channel, so every `recv_many` batch holds exactly one
/// event — the pre-batching delivery discipline, made deterministic.
fn per_event_verdicts(scenario: &dyn Scenario, kind: CheckKind, events: &[Event]) -> Vec<Report> {
    let factory = scenario.shard_factory(kind).expect("factory exists");
    partition_by_object(events.iter().cloned())
        .into_iter()
        .map(|(object, shard)| {
            let checker = factory(object);
            let (tx, rx) = channel::bounded(1);
            thread::scope(|scope| {
                let worker = scope.spawn(move || checker.check(&rx));
                for e in shard {
                    if tx.send(e).is_err() {
                        break; // checker stopped at a violation
                    }
                }
                drop(tx);
                worker.join().expect("baseline checker thread")
            })
        })
        .collect()
}

#[test]
fn batched_consume_agrees_with_per_event_baseline() {
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let mut seeds = Rng::seed_from_u64(base);
        for scenario in scenarios::all() {
            for kind in [CheckKind::Io, CheckKind::View, CheckKind::Lin] {
                if !scenario.supports(kind) {
                    continue;
                }
                for variant in [Variant::Correct, Variant::Buggy] {
                    let seed = seeds.next_u64();
                    let Some(events) = record_multi(scenario.as_ref(), kind, variant, seed) else {
                        continue; // scenario has no multi-object driver
                    };
                    let baseline = per_event_verdicts(scenario.as_ref(), kind, &events);
                    let baseline_pass = baseline.iter().all(Report::passed);
                    if variant == Variant::Correct {
                        assert!(
                            baseline_pass,
                            "{} {kind:?} seed {seed}: correct variant must pass per-event",
                            scenario.name()
                        );
                    }
                    for workers in [1usize, 4] {
                        let pooled = pooled_verdict(scenario.as_ref(), kind, &events, workers);
                        assert_eq!(
                            pooled.passed(),
                            baseline_pass,
                            "{} {kind:?} {variant:?} seed {seed} workers {workers}: \
                             batched verdict diverges from per-event baseline: {pooled}",
                            scenario.name()
                        );
                    }
                }
            }
        }
    }
}

/// Routes one recorded trace through a [`ShardRouter`] under a seeded
/// `shard.route` drop plan, then drains every shard after close.
/// Single-threaded appends make the dispatch order — and therefore the
/// injected-drop sites — identical across router configurations, so the
/// outputs are comparable field for field.
struct RoutedRun {
    streams: std::collections::BTreeMap<vyrd::core::ObjectId, Vec<Event>>,
    sheds: Vec<(vyrd::core::ObjectId, u64)>,
    windows: Vec<vyrd::core::violation::ShedWindow>,
}

fn routed_run(config: ShardConfig, events: &[Event], seed: u64, drops: u64) -> RoutedRun {
    let _scope = fault::install(FaultPlan::seeded(seed).rule(
        "shard.route",
        FaultRule::always(FaultAction::Drop).after(5).times(drops),
    ));
    let (log, router) = ShardRouter::new(CheckKind::View.log_mode(), config);
    for e in events {
        log.append_event(e.clone());
    }
    // Dropping the log closes the stream and tears down the route state,
    // so every shard channel disconnects once drained.
    drop(log);
    let mut streams = std::collections::BTreeMap::new();
    while let Ok((object, rx)) = router.recv_shard() {
        let mut delivered = Vec::new();
        while let Ok(e) = rx.recv() {
            delivered.push(e);
        }
        streams.insert(object, delivered);
    }
    RoutedRun {
        streams,
        sheds: router.sheds(),
        windows: router.shed_windows(),
    }
}

#[test]
fn injected_route_drops_degrade_identically_across_batch_boundaries() {
    let _serial = serial();
    for base in base_seeds(DEFAULT_SEED) {
        let seed = base;
        const DROPS: u64 = 9;
        let scenario = scenarios::by_name("Multiset-Vector").expect("known scenario");
        let events = record_multi(scenario.as_ref(), CheckKind::View, Variant::Correct, seed)
            .expect("multi-object trace");

        // Batched delivery: the default Block/unbounded config.
        let batched = routed_run(ShardConfig::default(), &events, seed, DROPS);
        // Per-event delivery: a Shed-policy bounded router sends one event
        // at a time (it must observe fullness per event). The bound is far
        // above the trace size, so the *only* sheds are the injected ones.
        let per_event_config = ShardConfig {
            capacity: Some(1 << 20),
            policy: OverloadPolicy::Shed {
                timeout: Duration::from_secs(5),
                budget: u64::MAX,
            },
        };
        let reference = routed_run(per_event_config, &events, seed, DROPS);

        let total: u64 = batched.sheds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, DROPS, "seed {seed}: plan must shed exactly its budget");
        assert_eq!(
            batched.sheds, reference.sheds,
            "seed {seed}: per-object shed counts diverge"
        );
        // Field-for-field: first/last dispatch seq, shed count, and the
        // delivered-prefix length every downgrade decision keys off.
        assert_eq!(
            batched.windows, reference.windows,
            "seed {seed}: shed windows diverge between batched and per-event routing"
        );
        // Degrade, never forge: both routers deliver the identical per-object
        // subsequences — batching only changes when events move, not which.
        assert_eq!(
            batched.streams, reference.streams,
            "seed {seed}: delivered shard streams diverge"
        );
    }
}
