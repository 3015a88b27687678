//! `record_log_heavy` — closed loop, 2 producer threads, tiny-method
//! programs (Vector in `Io` and `View`, Treiber-Stack in `Io`) into
//! `EventLog::discarding`, 1.6 M calls per repetition (five program runs
//! of 320 000).
//!
//! *Why:* the program costs ~90 ns a call, so `log` (thread buffer, seq
//! stamp, merger) is nearly all of the run — the workload on which an
//! append-path change must show, and a consume-path change must not.
//!
//! The verdict comes from a smaller in-memory recording of the same seed
//! checked offline: one program thread, so that the trace — and with it
//! the check's cost — is the same for the same seed, re-timed over four
//! logical threads before the check (untimed; see `interleave`). That
//! record-then-check flow is this workload's `verified_events_per_s`; it
//! runs back to back in the first fifth of the window, not between the
//! two-producer runs, whose cache and scheduler wake left it 16 % apart
//! from run to run.

use vyrd_core::log::LogMode;
use vyrd_harness::scenario::CheckKind;

use super::{
    canaries, checker_layer, close_ledger, describe_cells, log_layer, phase, program_layer,
    program_pair, Cell,
};
use crate::harness::{timed, Ctx};

/// Calls per program run (both producers together).
const CALLS: usize = 320_000;
/// Calls of the in-memory recording the verdict is taken from.
const VERDICT_CALLS: usize = 60_000;

fn cells(ctx: &Ctx, calls: usize) -> Vec<Cell> {
    vec![
        Cell::new(ctx, "Vector", CheckKind::Io, 2, calls, 64),
        Cell::new(ctx, "Vector", CheckKind::View, 2, calls, 64),
        Cell::new(ctx, "Treiber-Stack", CheckKind::Io, 2, calls, 64),
    ]
}

/// Records each small cell in memory (one thread) and checks it; returns (wall s of
/// record + check, events covered).
fn verdict_pass(ctx: &mut Ctx, small: &[Cell], rep: usize) -> (f64, u64) {
    let (mut wall, mut events) = (0.0, 0u64);
    for cell in small {
        let (run, start, recorded) = timed(|| cell.record_sequential(cell.cfg.total_calls()));
        let expected = run.log_stats.events;
        let mixed = cell.interleave(run.events);
        let (report, _, checked) = timed(|| cell.scenario.check(cell.kind, mixed));
        ctx.span(
            "span.verdict",
            rep,
            &cell.label(),
            start,
            recorded + checked,
        );
        ctx.gate.expect_pass(&cell.label(), &report, expected);
        wall += (recorded + checked).as_secs_f64();
        events += report.stats.events;
    }
    (wall, events)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let heavy = cells(ctx, CALLS);
    let small = cells(ctx, VERDICT_CALLS);
    describe_cells(ctx, &heavy);
    ctx.constant(
        "verdict_cells",
        small
            .iter()
            .map(Cell::describe)
            .collect::<Vec<_>>()
            .join("; "),
    );

    ctx.setup(|ctx| {
        ctx.warm_up(|ctx| {
            program_pair(ctx, &heavy, 0);
            verdict_pass(ctx, &small, 0);
        });
    });

    let left = phase(ctx, |ctx, pass| {
        let (wall, events) = verdict_pass(ctx, &small, pass);
        ctx.push("verified_events_per_s", events as f64 / wall);
    });
    ctx.measure(left, |ctx, rep, _| program_pair(ctx, &heavy, rep));

    canaries(ctx, &small, |_, cell, events| {
        cell.scenario.check(cell.kind, events)
    });

    if ctx.cfg.traced {
        let program_s = program_layer(ctx, &heavy);
        ctx.busy("program", program_s);
        let traces: Vec<_> = small.iter().map(Cell::trace).collect();
        log_layer(ctx, LogMode::Off, &traces[0]);
        for (cell, trace) in heavy.iter().zip(&traces) {
            // ns/event from the short trace, scaled to the events the
            // heavy run appends (same mix, same seed).
            let scale = cell.cfg.total_calls() as f64 / small[0].cfg.total_calls() as f64;
            let appended = trace.len() as f64 * scale;
            let ns = log_layer(ctx, cell.mode(), trace);
            ctx.busy("log", ns * appended / 1e9);
            // The verdict passes ran in their own phase, so the checker's
            // cost is recorded but is no share of a repetition.
            checker_layer(ctx, cell, trace);
        }
        close_ledger(ctx);
    }
}
