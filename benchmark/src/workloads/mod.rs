//! The six workloads and what they share: a *cell* (one scenario in one
//! checking mode at fixed size), the paired Off/on program runs behind
//! `program_slowdown`, the canary gate, and the ledger arithmetic.

use std::time::Instant;

use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::violation::Report;
use vyrd_core::Event;
use vyrd_harness::scenario::{
    build_witness, record_run, CheckKind, RunArtifacts, Scenario, Variant,
};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;

use crate::gate::{failing_canary, pinned_categories};
use crate::harness::{timed, Ctx};
use crate::interleave::{interleave, is_sequential};
use crate::layers;
use crate::names::{CHECKER_CELLS, LAYERS};
use crate::stats::median;

pub mod durable_continuous;
pub mod offline_io_lin;
pub mod offline_view;
pub mod online_sharded;
pub mod paced_online;
pub mod record_log_heavy;

/// Runs the workload called `name`; `false` if there is none.
pub fn run(name: &str, ctx: &mut Ctx) -> bool {
    ctx.constant("setups_per_run", crate::harness::SETUPS);
    ctx.constant("interleave_threads", INTERLEAVE_THREADS);
    match name {
        "offline_view" => offline_view::run(ctx),
        "offline_io_lin" => offline_io_lin::run(ctx),
        "record_log_heavy" => record_log_heavy::run(ctx),
        "online_sharded" => online_sharded::run(ctx),
        "durable_continuous" => durable_continuous::run(ctx),
        "paced_online" => paced_online::run(ctx),
        _ => return false,
    }
    true
}

/// A workload whose repetitions cannot produce every end-to-end metric
/// spends this share of its measured window on a *phase* that produces
/// the rest (see [`phase`]), taking at least [`PHASE_ROUNDS_MIN`] rounds.
pub const PHASE_SHARE: f64 = 0.2;
/// See [`PHASE_SHARE`].
pub const PHASE_ROUNDS_MIN: usize = 5;

/// Logical threads a sequentially recorded trace is re-timed over.
pub const INTERLEAVE_THREADS: u32 = 4;

/// Seeds a canary may walk before it counts as missed.
const CANARY_RUNS: u32 = 40;

/// One scenario in one checking mode at a fixed size.
pub struct Cell {
    /// The scenario.
    pub scenario: Box<dyn Scenario>,
    /// The checking mode (which also fixes the logging mode).
    pub kind: CheckKind,
    /// The program's configuration.
    pub cfg: WorkloadConfig,
}

impl Cell {
    /// `scenario` in `kind`, `threads` program threads issuing `calls`
    /// calls between them over a pool of `key_pool` keys.
    pub fn new(
        ctx: &Ctx,
        scenario: &str,
        kind: CheckKind,
        threads: usize,
        calls: usize,
        key_pool: usize,
    ) -> Cell {
        Cell {
            scenario: scenarios::by_name(scenario).expect("a registered scenario"),
            kind,
            cfg: ctx.workload(threads, calls, key_pool),
        }
    }

    /// The cell's trace: the same for the same seed. The program runs on
    /// one thread for all of the cell's calls and the log is re-timed
    /// over [`INTERLEAVE_THREADS`] logical threads (see
    /// [`crate::interleave`]). A program that runs a thread of its own
    /// beside that one (the cache's flusher) has no sequential log; its
    /// trace stays as recorded.
    pub fn trace(&self) -> Vec<Event> {
        self.trace_of(self.cfg.total_calls())
    }

    /// [`Cell::trace`] over the first `calls` calls only.
    pub fn trace_of(&self, calls: usize) -> Vec<Event> {
        let log = self
            .record_sequential(calls.min(self.cfg.total_calls()))
            .events;
        if is_sequential(&log) {
            self.interleave(log)
        } else {
            log
        }
    }

    /// Runs the program on one thread for `calls` calls, recording in
    /// memory.
    pub fn record_sequential(&self, calls: usize) -> RunArtifacts {
        let mut cfg = self.cfg;
        cfg.threads = 1;
        cfg.calls_per_thread = calls;
        record_run(self.scenario.as_ref(), &cfg, self.mode(), Variant::Correct)
    }

    /// Re-times a [`Cell::record_sequential`] log over
    /// [`INTERLEAVE_THREADS`] logical threads, seeded by the run's seed.
    pub fn interleave(&self, sequential: Vec<Event>) -> Vec<Event> {
        interleave(sequential, INTERLEAVE_THREADS, self.cfg.seed)
    }

    /// The logging mode this cell's check needs.
    pub fn mode(&self) -> LogMode {
        self.kind.log_mode()
    }

    /// `"Vector io"`-style label for spans and messages.
    pub fn label(&self) -> String {
        format!("{} {}", self.scenario.name(), kind_label(self.kind))
    }

    /// `"Vector io 2x100000 calls, key pool 64"` for the header.
    pub fn describe(&self) -> String {
        format!(
            "{} {}x{} calls, key pool {}",
            self.label(),
            self.cfg.threads,
            self.cfg.calls_per_thread,
            self.cfg.key_pool
        )
    }
}

/// `io` / `view` / `lin`.
pub fn kind_label(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::Io => "io",
        CheckKind::View => "view",
        CheckKind::Lin => "lin",
    }
}

/// Records the constants of `cells` in the environment header.
pub fn describe_cells(ctx: &mut Ctx, cells: &[Cell]) {
    let text = cells
        .iter()
        .map(Cell::describe)
        .collect::<Vec<_>>()
        .join("; ");
    ctx.constant("cells", text);
}

/// Runs `cell`'s program once into a discarding log in `mode`; returns
/// (program wall s, `close()` wall s, events appended).
pub fn run_program(cell: &Cell, mode: LogMode) -> (f64, f64, u64) {
    let log = EventLog::discarding(mode);
    let ((), _, wall) = timed(|| cell.scenario.run(&cell.cfg, &log, Variant::Correct));
    let ((), _, close) = timed(|| log.close());
    (wall.as_secs_f64(), close.as_secs_f64(), log.stats().events)
}

/// One Off/on pair over `cells`: every cell's program with logging off,
/// then in its own mode, discarding. Pushes the pair's `program.off_s`,
/// `program.on_s` and `logged_events_per_s`.
pub fn program_pair(ctx: &mut Ctx, cells: &[Cell], rep: usize) {
    let (mut off, mut on, mut events) = (0.0, 0.0, 0u64);
    for cell in cells {
        off += run_program(cell, LogMode::Off).0;
        let start = Instant::now();
        let (wall, close, appended) = run_program(cell, cell.mode());
        ctx.span("span.program", rep, &cell.label(), start, start.elapsed());
        ctx.push("log.close_s", close);
        on += wall;
        events += appended;
    }
    ctx.push("program.off_s", off);
    ctx.push("program.on_s", on);
    ctx.push("logged_events_per_s", events as f64 / on);
}

/// One live repetition's samples: Off and on program walls, the wall to
/// the verdict, and the events it covered.
pub fn push_live(ctx: &mut Ctx, off: f64, on: f64, total: f64, events: u64) {
    ctx.push("program.off_s", off);
    ctx.push("program.on_s", on);
    ctx.push("logged_events_per_s", events as f64 / on);
    ctx.push("verified_events_per_s", events as f64 / total);
}

/// Runs `round` back to back for [`PHASE_SHARE`] of the measured window
/// and returns the seconds left for the repetitions. The offline
/// workloads spend it on [`program_pair`]s of the programs behind their
/// traces; `record_log_heavy` on its record-then-check verdict passes.
pub fn phase(ctx: &mut Ctx, mut round: impl FnMut(&mut Ctx, usize)) -> f64 {
    let window = Instant::now();
    let budget = ctx.cfg.seconds * PHASE_SHARE;
    let mut i = 0;
    while i < PHASE_ROUNDS_MIN || window.elapsed().as_secs_f64() < budget {
        round(ctx, i);
        i += 1;
    }
    ctx.cfg.seconds - window.elapsed().as_secs_f64()
}

/// The canary gate: for every cell, a short Buggy recording that fails
/// offline is sent down the workload's own verdict path (`verdict`) and
/// must fail there too, in a pinned category. A traced run also
/// minimizes each canary, so a checker change that makes oracles slow
/// shows up as `witness.minimize_ms`.
pub fn canaries(
    ctx: &mut Ctx,
    cells: &[Cell],
    mut verdict: impl FnMut(&mut Ctx, &Cell, Vec<Event>) -> Report,
) {
    let (mut minimize_ms, mut oracle_runs) = (Vec::new(), Vec::new());
    for cell in cells {
        let name = cell.scenario.name();
        let what = format!("canary {}", cell.label());
        let Some((events, offline)) =
            failing_canary(cell.scenario.as_ref(), cell.kind, ctx.cfg.seed, CANARY_RUNS)
        else {
            ctx.gate
                .expect_fail(&what, &Report::default(), pinned_categories(name));
            continue;
        };
        if ctx.cfg.traced {
            let (witness, _, dur) =
                timed(|| build_witness(cell.scenario.as_ref(), cell.kind, &events, &offline));
            match witness {
                Ok(cx) => {
                    minimize_ms.push(dur.as_secs_f64() * 1e3);
                    oracle_runs.push(cx.oracle_runs as f64);
                }
                Err(e) => ctx.gate.identity(&format!("{what}: witness: {e}"), 0, 1),
            }
        }
        let report = verdict(ctx, cell, events);
        ctx.gate
            .expect_fail(&what, &report, pinned_categories(name));
    }
    if ctx.cfg.traced {
        ctx.layer("witness.minimize_ms", median(&minimize_ms));
        ctx.layer("witness.oracle_runs", median(&oracle_runs));
    }
}

/// The `checker.*_ns_per_event.*` name for a cell.
pub fn checker_metric(cell: &Cell) -> &'static str {
    CHECKER_CELLS
        .iter()
        .find(|(_, s, k)| *s == cell.scenario.name() && *k == kind_label(cell.kind))
        .map(|(metric, _, _)| *metric)
        .expect("every checked cell has a per-layer name")
}

/// `checker` alone on `events` (one cell's trace): records the cell's
/// ns/event and returns it.
pub fn checker_layer(ctx: &mut Ctx, cell: &Cell, events: &[Event]) -> f64 {
    let ns = layers::checker_ns(cell.scenario.as_ref(), cell.kind, events);
    ctx.layer(checker_metric(cell), ns);
    ns
}

/// `program` alone for `cells`: records `program.off_ns_per_call` (all
/// cells' Off walls over all their calls) and returns the program's
/// busy seconds per repetition.
pub fn program_layer(ctx: &mut Ctx, cells: &[Cell]) -> f64 {
    let (mut ns, mut calls) = (0.0, 0usize);
    for cell in cells {
        let per_call = layers::program_off_ns_per_call(cell.scenario.as_ref(), &cell.cfg);
        ns += per_call * cell.cfg.total_calls() as f64;
        calls += cell.cfg.total_calls();
    }
    ctx.layer("program.off_ns_per_call", ns / calls.max(1) as f64);
    ns / 1e9
}

/// `log` alone on one cell's trace: records `log.append_ns_per_event.*`
/// for the cell's mode and returns it.
pub fn log_layer(ctx: &mut Ctx, mode: LogMode, events: &[Event]) -> f64 {
    let name = match mode {
        LogMode::Off => "log.append_ns_per_event.off",
        LogMode::Io => "log.append_ns_per_event.io",
        LogMode::View => "log.append_ns_per_event.view",
    };
    let ns = layers::log_append_ns(events, mode);
    ctx.layer(name, ns);
    ns
}

/// Closes the ledger of a traced run: shares of the estimated busy time
/// per layer, the busiest one, the slow-repetition count, the tracing
/// overhead, and the registry's counters per traced repetition.
pub fn close_ledger(ctx: &mut Ctx) {
    let total: f64 = ctx.busy.values().sum();
    let mut busiest: f64 = 0.0;
    for (layer, share_name) in LAYERS {
        let share = if total > 0.0 {
            ctx.busy.get(layer).copied().unwrap_or(0.0) / total
        } else {
            0.0
        };
        busiest = busiest.max(share);
        ctx.layer(share_name, share);
    }
    ctx.layer("ledger.busiest_layer_share", busiest);
    ctx.layer(
        "ledger.slow_reps",
        crate::stats::slow_count(ctx.get("rep.wall_s"), crate::harness::SLOW_FACTOR) as f64,
    );
    let plain = ctx.median("rep.plain_s");
    if plain > 0.0 {
        let ratio = ctx.median("rep.traced_s") / plain;
        ctx.layer("trace.overhead_ratio", ratio);
    }

    let reps = ctx.traced_reps.max(1) as f64;
    let snapshot = vyrd_rt::metrics::snapshot();
    for (name, registry) in crate::names::REGISTRY_COUNTERS {
        ctx.layer(name, snapshot.counter(registry).unwrap_or(0) as f64 / reps);
    }
    for (name, registry) in crate::names::REGISTRY_MEANS {
        ctx.layer(name, snapshot.histogram(registry).map_or(0.0, |h| h.mean()));
    }
    ctx.layer("log.close_ms", ctx.median("log.close_s") * 1e3);
    ctx.layer("segment.live_peak", ctx.gauges.segments_live_peak as f64);
    let lag = &ctx.gauges.lag_events;
    let (lag_p50, lag_max) = (median(lag), lag.iter().copied().fold(0.0, f64::max));
    ctx.layer("pool.lag_events_p50", lag_p50);
    ctx.layer("pool.lag_events_max", lag_max);
}
