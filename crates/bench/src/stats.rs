//! `vyrd stats` — one sharded online run with self-observability on,
//! exported.
//!
//! Drives Multiset-Vector *live* through a sharded verifier pool (not a
//! recorded replay, so the instrumented method sessions produce trace
//! spans, not just counters) with the metrics registry and span
//! recording enabled. Prints the snapshot as text — per-stage counters,
//! span latency histograms, `pool.lag_events` (the §8 online-vs-offline
//! coverage gap: newest appended seq minus newest checked seq) — and
//! writes it to `results/METRICS_smoke.json`.
//!
//! An exporter only: the exit status says whether the run and the export
//! happened, not whether the numbers reconcile. That the registry agrees
//! with the `Degradation` ledger and the log's own counters, on this run
//! and under injected faults, is asserted by `crates/bench/tests/reconcile.rs`.

use std::process::ExitCode;

use vyrd_core::pool::SupervisorConfig;
use vyrd_core::shard::ShardConfig;
use vyrd_harness::fault_matrix::{cfg, OBJECTS, WORKERS};
use vyrd_harness::scenario::{run_online_sharded_with, CheckKind, Variant};
use vyrd_harness::scenarios;
use vyrd_rt::metrics;

use crate::cli::{Args, SEED};
use crate::write_result;

pub(crate) fn run(args: &Args) -> ExitCode {
    let seed = args.get(&SEED);
    let scenario = scenarios::by_name("Multiset-Vector").expect("Multiset-Vector scenario");
    metrics::set_enabled(true);
    metrics::set_spans_enabled(true);
    let run = run_online_sharded_with(
        scenario.as_ref(),
        &cfg(seed),
        CheckKind::View,
        Variant::Correct,
        OBJECTS,
        WORKERS,
        ShardConfig::default(),
        SupervisorConfig::default(),
    );
    let snap = metrics::snapshot();
    let Some((_, report)) = run else {
        eprintln!("stats: {} has no shard factory", scenario.name());
        return ExitCode::FAILURE;
    };
    println!("== sharded online {} (seed {seed}) ==", scenario.name());
    print!("{snap}");
    println!("verdict: {}", report.merged.verdict());
    ExitCode::from(u8::from(!write_result(
        "METRICS_smoke.json",
        &snap.to_json(),
    )))
}
