//! `offline_view` — single thread, `Scenario::check_full(View)` over
//! traces recorded once in set-up, looped.
//!
//! *Why:* only `checker` runs in a repetition (spec `apply`, write
//! replay, snapshots, view compare); `log`, `codec`, `shard`, `pool` and
//! `segment` do nothing, so a consume-path or append-path change must not
//! move `verified_events_per_s` here. BLinkTree runs at key pool 4096 so
//! that its spec/view state outgrows the cache and snapshot cost
//! dominates; Cache and Multiset-BinaryTree run at key pool 64.
//!
//! The programs that produced the traces are measured Off/View at the
//! start of the window, which is where this workload's
//! `program_slowdown` and `logged_events_per_s` come from (Table 2's
//! view-logging rows on heavy methods).

use vyrd_core::log::LogMode;
use vyrd_core::Event;
use vyrd_harness::scenario::CheckKind;

use super::{
    canaries, checker_layer, close_ledger, describe_cells, log_layer, phase, program_layer,
    program_pair, Cell,
};
use crate::harness::{timed, Ctx};

fn cells(ctx: &Ctx) -> Vec<Cell> {
    vec![
        // The cache always runs its flusher beside the one worker, so
        // its trace is recorded live; the others are recorded on one
        // thread and interleaved (see `Cell::trace`).
        Cell::new(ctx, "Cache", CheckKind::View, 1, 60_000, 64),
        Cell::new(ctx, "Multiset-BinaryTree", CheckKind::View, 1, 60_000, 64),
        // Small on purpose: at key pool 4096 one observer-window
        // snapshot clones thousands of keys (~20 µs per event here).
        Cell::new(ctx, "BLinkTree", CheckKind::View, 1, 4_000, 4096),
    ]
}

/// One pass of the verdict path over every trace; returns (wall s, events).
fn check_pass(ctx: &mut Ctx, cells: &[Cell], traces: &[Vec<Event>], rep: usize) -> (f64, u64) {
    let (mut wall, mut events) = (0.0, 0u64);
    for (cell, trace) in cells.iter().zip(traces) {
        // `check_full` consumes its input; the copy is the benchmark's
        // cost, not the checker's.
        let input = trace.clone();
        let (report, start, dur) = timed(|| cell.scenario.check_full(cell.kind, input));
        ctx.span("span.verdict", rep, &cell.label(), start, dur);
        ctx.gate
            .expect_pass(&cell.label(), &report, trace.len() as u64);
        wall += dur.as_secs_f64();
        events += report.stats.events;
    }
    (wall, events)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let cells = cells(ctx);
    describe_cells(ctx, &cells);

    let traces: Vec<Vec<Event>> = ctx.setup(|ctx| {
        let traces: Vec<Vec<Event>> = cells.iter().map(Cell::trace).collect();
        check_pass(ctx, &cells, &traces, 0);
        traces
    });

    let left = phase(ctx, |ctx, pair| program_pair(ctx, &cells, pair));
    ctx.measure(left, |ctx, rep, _| {
        let (wall, events) = check_pass(ctx, &cells, &traces, rep);
        ctx.push("verified_events_per_s", events as f64 / wall);
        ctx.push("verdict.wall_s", wall);
    });

    canaries(ctx, &cells, |_, cell, events| {
        cell.scenario.check_full(cell.kind, events)
    });

    if ctx.cfg.traced {
        // The ledger covers a repetition, and a repetition is the
        // verdict path alone: the program and the log ran in the program
        // phase, so their cost is recorded but charged to no share.
        program_layer(ctx, &cells);
        log_layer(ctx, LogMode::Off, &traces[0]);
        log_layer(ctx, LogMode::View, &traces[0]);
        for (cell, trace) in cells.iter().zip(&traces) {
            let ns = checker_layer(ctx, cell, trace);
            ctx.busy("checker", ns * trace.len() as f64 / 1e9);
        }
        close_ledger(ctx);
    }
}
