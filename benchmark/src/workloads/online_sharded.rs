//! `online_sharded` — closed loop, 1 producer thread, `run_multi` into a
//! `VerifierPool` behind `ShardConfig::bounded(1024)` + `Block` (Vector
//! `Io`, Treiber-Stack `Lin`).
//!
//! *Why:* checking is cheap here, so `shard` routing inside the append
//! critical section, the `rt::channel` hop and the `pool` driver set the
//! pace: the same events check offline at ~2.5–8 M events/s and log at
//! ~4 M events/s, yet reach a verdict at ~1 M events/s through this path.
//! A segment or codec change must not move it.
//!
//! One object and one worker, not two and two: with a second worker the
//! pipeline has three busy threads on this machine's two cores and the
//! same work took 0.29–0.70 s (medians of whole runs spread 17 %), which
//! no bound could hold; producer + one worker spread 4 % (see README,
//! "Excluded on measurement").

use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::pool::{SupervisorConfig, VerifierPool};
use vyrd_core::shard::{partition_by_object, ShardConfig};
use vyrd_core::Event;
use vyrd_harness::scenario::{run_online_sharded_with, CheckKind, Variant};

use super::{
    canaries, checker_layer, close_ledger, describe_cells, log_layer, program_layer, push_live,
    Cell,
};
use crate::harness::{timed, Ctx};
use crate::layers;

/// Objects the program spreads its calls over (= shards).
const OBJECTS: u32 = 1;
/// Pool workers (≥ `OBJECTS`: the blocking-router deadlock rule).
const WORKERS: usize = 1;
/// Per-shard channel bound.
const SHARD_CAPACITY: usize = 1024;
/// Calls per program run.
const CALLS: usize = 180_000;

fn cells(ctx: &Ctx) -> Vec<Cell> {
    vec![
        Cell::new(ctx, "Vector", CheckKind::Io, 1, CALLS, 64),
        Cell::new(ctx, "Treiber-Stack", CheckKind::Lin, 1, CALLS, 64),
    ]
}

/// The program alone into a discarding log in `mode`: (wall s, events
/// appended).
fn run_discarding(cell: &Cell, mode: LogMode) -> (f64, u64) {
    let log = EventLog::discarding(mode);
    let (_, _, wall) = timed(|| {
        cell.scenario
            .run_multi(&cell.cfg, &log, Variant::Correct, OBJECTS)
    });
    (wall.as_secs_f64(), log.stats().events)
}

/// Records the multi-object program in memory (the layer replays'
/// trace).
fn record_multi(cell: &Cell) -> Vec<Event> {
    let log = EventLog::in_memory(cell.mode());
    cell.scenario
        .run_multi(&cell.cfg, &log, Variant::Correct, OBJECTS);
    log.drain()
}

/// One repetition: every cell Off, then through the pool to its verdict.
fn repetition(ctx: &mut Ctx, cells: &[Cell], expected: &[u64], rep: usize, traced: bool) {
    let (mut off, mut on, mut total, mut events) = (0.0, 0.0, 0.0, 0u64);
    for (cell, &expected) in cells.iter().zip(expected) {
        off += run_discarding(cell, LogMode::Off).0;
        let before = traced.then(vyrd_rt::metrics::snapshot);
        let (outcome, start, dur) = timed(|| {
            run_online_sharded_with(
                cell.scenario.as_ref(),
                &cell.cfg,
                cell.kind,
                Variant::Correct,
                OBJECTS,
                WORKERS,
                ShardConfig::bounded(SHARD_CAPACITY),
                SupervisorConfig::default(),
            )
        });
        let (program, report) = outcome.expect("a multi-object scenario");
        ctx.span("span.verdict", rep, &cell.label(), start, dur);
        ctx.span("span.program", rep, &cell.label(), start, program);
        ctx.span(
            "span.drain",
            rep,
            &cell.label(),
            start + program,
            dur - program,
        );
        ctx.push("pool.finish_s", (dur - program).as_secs_f64());
        ctx.gate
            .expect_pass(&cell.label(), &report.merged, expected);
        if let Some(before) = before {
            // Conservation, from the program's own counters.
            let after = vyrd_rt::metrics::snapshot();
            let delta =
                |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
            let stranded = report.merged.degradation.stranded_events;
            ctx.gate.identity(
                "appended == routed + shed",
                delta("log.events_appended"),
                delta("shard.events_routed") + delta("shard.events_shed"),
            );
            ctx.gate.identity(
                "routed == checked + stranded",
                delta("shard.events_routed"),
                delta("pool.events_checked") + stranded,
            );
        }
        on += program.as_secs_f64();
        total += dur.as_secs_f64();
        events += report.merged.stats.events;
    }
    push_live(ctx, off, on, total, events);
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let cells = cells(ctx);
    describe_cells(ctx, &cells);
    ctx.constant("objects", OBJECTS);
    ctx.constant("workers", WORKERS);
    ctx.constant("shard_capacity", SHARD_CAPACITY);

    // One producer makes the event count a function of the seed alone;
    // counted through a discarding log, so that no whole trace is ever
    // resident in an untraced run.
    let expected: Vec<u64> = ctx.setup(|ctx| {
        let expected: Vec<u64> = cells
            .iter()
            .map(|c| run_discarding(c, c.mode()).1)
            .collect();
        ctx.warm_up(|ctx| repetition(ctx, &cells, &expected, 0, false));
        expected
    });

    ctx.measure(ctx.cfg.seconds, |ctx, rep, traced| {
        repetition(ctx, &cells, &expected, rep, traced);
    });

    canaries(ctx, &cells, |_, cell, events| {
        let factory = cell
            .scenario
            .shard_factory(cell.kind)
            .expect("a shard factory");
        let pool = VerifierPool::spawn_with(
            cell.mode(),
            WORKERS,
            ShardConfig::bounded(SHARD_CAPACITY),
            move |object| factory(object),
        );
        layers::replay_through_loggers(pool.log(), &events);
        pool.finish()
    });

    if ctx.cfg.traced {
        let program_s = program_layer(ctx, &cells);
        ctx.busy("program", program_s);
        let config = ShardConfig::bounded(SHARD_CAPACITY);
        for cell in &cells {
            let trace = record_multi(cell);
            let n = trace.len() as f64;
            log_layer(ctx, LogMode::Off, &trace);
            let log_ns = log_layer(ctx, cell.mode(), &trace);
            ctx.busy("log", log_ns * n / 1e9);
            let route = layers::shard_route_ns(&trace, cell.mode(), config, log_ns);
            ctx.layer("shard.route_ns_per_event", route);
            ctx.busy("shard", route * n / 1e9);
            let hop = layers::channel_hop_ns(&trace, Some(SHARD_CAPACITY));
            ctx.layer("channel.hop_ns_per_event.bounded", hop);
            ctx.busy("channel", hop * n / 1e9);
            // The pool checks per object: one object's slice is what one
            // checker sees.
            let slice = partition_by_object(trace)
                .into_values()
                .next()
                .unwrap_or_default();
            let ns = checker_layer(ctx, cell, &slice);
            ctx.busy("checker", ns * n / 1e9);
        }
        ctx.layer("pool.finish_ms", ctx.median("pool.finish_s") * 1e3);
        close_ledger(ctx);
    }
}
