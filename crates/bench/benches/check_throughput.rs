//! Consume-path throughput: the batched delivery discipline (router
//! `send_many` runs, `check_receiver` draining whole batches through
//! `recv_many`) against the per-event baseline (a capacity-1 channel, so
//! every batch is a singleton — the pre-overhaul delivery discipline).
//!
//! Both sides check the *same* recorded multi-object traces shard by
//! shard with the same per-object checkers, so the measured difference
//! is delivery amortization on the very same event sequence. The two
//! sides run in strict alternation ([`BenchGroup::bench_paired`]) and are
//! compared on their fastest samples, so machine drift lands on both.
//!
//! `--smoke` is the CI gate: fewer samples, and a non-zero exit if the
//! batched path is more than 10% slower than the per-event baseline on
//! any scenario — batching must never cost throughput. Records nothing;
//! the tracked consume-path numbers are the `benchmark/` ledger's.

use std::process::ExitCode;
use std::thread;

use vyrd_core::log::EventLog;
use vyrd_core::shard::partition_by_object;
use vyrd_core::{Event, ObjectId};
use vyrd_harness::scenario::{CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;
use vyrd_rt::bench::{black_box, BenchGroup};
use vyrd_rt::channel;

const SEED: u64 = 0xC0DE;
const OBJECTS: u32 = 4;

/// Scenario rows: name, checking mode, and workload size. Cache rides
/// along because its view checking was the paper's worst case (16.9×).
const ROWS: &[(&str, CheckKind, usize)] = &[
    ("Multiset-Vector", CheckKind::View, 150),
    ("Cache", CheckKind::View, 120),
    ("StringBuffer", CheckKind::View, 120),
    ("Treiber-Stack", CheckKind::Lin, 150),
];

fn recorded_trace(scenario: &dyn Scenario, kind: CheckKind, calls: usize) -> Option<Vec<Event>> {
    let cfg = WorkloadConfig {
        threads: 4,
        calls_per_thread: calls,
        key_pool: 12,
        shrink_pool: true,
        internal_task: true,
        seed: SEED,
        pace: None,
    };
    let log = EventLog::in_memory(kind.log_mode());
    // Correct traces are the honest cost model: a buggy trace stops at
    // its violation and would undercharge the slower mode.
    scenario
        .run_multi(&cfg, &log, Variant::Correct, OBJECTS)
        .then(|| log.snapshot())
}

/// Batched consume: the whole shard arrives as one `send_many` run and
/// the checker drains it through `recv_many` — the steady-state shape
/// the router produces when the appender runs ahead of the checker.
fn consume_batched(
    shards: &[(ObjectId, Vec<Event>)],
    factory: &dyn Fn(ObjectId) -> Box<dyn vyrd_core::SteppingChecker>,
) {
    for (object, shard) in shards {
        let checker = factory(*object);
        let (tx, rx) = channel::unbounded();
        let mut batch = shard.clone();
        tx.send_many(&mut batch).expect("receiver held open");
        drop(tx);
        black_box(checker.check(&rx));
    }
}

/// Per-event baseline: a capacity-1 channel forces every `recv_many`
/// batch down to a singleton, reproducing one-`send`-per-event delivery
/// (channel synchronization and wakeup per event included).
fn consume_per_event(
    shards: &[(ObjectId, Vec<Event>)],
    factory: &dyn Fn(ObjectId) -> Box<dyn vyrd_core::SteppingChecker>,
) {
    for (object, shard) in shards {
        let checker = factory(*object);
        let (tx, rx) = channel::bounded(1);
        thread::scope(|scope| {
            let worker = scope.spawn(move || checker.check(&rx));
            for e in shard {
                if tx.send(e.clone()).is_err() {
                    break;
                }
            }
            drop(tx);
            black_box(worker.join().expect("baseline checker thread"));
        });
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let mut group = BenchGroup::new("check_throughput");
    group.sample_size(if smoke { 5 } else { 15 }).fixed_iters(1);

    let mut gate_ok = true;
    for &(name, kind, calls) in ROWS {
        let Some(scenario) = scenarios::by_name(name) else {
            continue;
        };
        let Some(factory) = scenario.shard_factory(kind) else {
            continue;
        };
        let Some(events) = recorded_trace(scenario.as_ref(), kind, calls) else {
            continue;
        };
        let n = events.len() as u64;
        let shards: Vec<(ObjectId, Vec<Event>)> =
            partition_by_object(events).into_iter().collect();

        let (per_event, batched) = group.bench_paired(
            &format!("{name}/per_event"),
            &format!("{name}/batched"),
            || consume_per_event(&shards, &|object| factory(object)),
            || consume_batched(&shards, &|object| factory(object)),
        );
        // Fastest-sample ratio: the minimum is the least-interfered-with
        // measurement on each side.
        let speedup = per_event.min_ns / batched.min_ns;
        eprintln!(
            "    {name} ({kind:?}): per-event {:.0} events/s, batched {:.0} events/s ({speedup:.2}x)",
            n as f64 / per_event.min_ns * 1e9,
            n as f64 / batched.min_ns * 1e9,
        );
        // The CI gate: batching exists to go faster; >10% slower than
        // the per-event baseline on the same trace is a regression.
        if batched.min_ns > per_event.min_ns * 1.10 {
            eprintln!("    !! {name}: batched path >10% slower than per-event baseline");
            gate_ok = false;
        }
    }
    if smoke && !gate_ok {
        eprintln!("check_throughput --smoke: FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
