//! `paced_online` — open loop, 1 generator thread driving `SyncVector`
//! directly at a fixed 50 000 calls/s (about a tenth of the closed-loop
//! capacity of the online path) against `OnlineVerifier` in `Io`.
//!
//! *Why:* below saturation, latency is set by the 64-event thread
//! buffers, the merger hand-off and the checker's wake-up, not by
//! throughput — so a batching change that wins `online_sharded` can lose
//! here. It is also the only workload on the `online` driver.
//!
//! One call in 16 carries a probe argument that the benchmark-side
//! [`ProbeSpec`] recognises in `apply` and stamps; verdict latency is
//! that stamp minus the instant the call was *due*, so a stalled
//! generator's backlog counts against the system, and the generator's
//! own lateness is reported beside it.
//!
//! The end-to-end table carries what every workload can report; at a
//! fixed offered rate `verified_events_per_s` and `logged_events_per_s`
//! read the rate (they fall only if the verifier stops keeping up) and
//! `program_slowdown` reads ~1 (it rises only if logging makes the
//! generator late). The latency numbers are this workload's headline.

use std::time::{Duration, Instant};

use vyrd_core::checker::Checker;
use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::online::OnlineVerifier;
use vyrd_harness::scenario::CheckKind;
use vyrd_harness::workload::ThreadWorkload;
use vyrd_javalib::{SyncVector, SyncVectorHandle, VectorSpec, VectorVariant};
use vyrd_rt::time::Pacer;

use super::{canaries, checker_layer, close_ledger, log_layer, Cell};
use crate::harness::{timed, Ctx};
use crate::layers;
use crate::probe::{ProbeSpec, ProbeStamps, PROBE_BASE, PROBE_EVERY};
use crate::stats::{median, percentile, samples_beyond};

/// Offered load, calls per second.
const RATE: u64 = 50_000;
/// Calls per verified (logging on) segment of a repetition: 0.9 s.
const ON_CALLS: usize = 45_000;
/// Calls per Off segment of a repetition: 0.1 s.
const OFF_CALLS: usize = 5_000;
/// Add : RemoveLast : LastIndexOf : Size among the unmarked calls. With
/// one forced probe `Add` in 16 this keeps adds and removes balanced, so
/// the vector — and with it a snapshot's cost — stays small all run.
const OP_WEIGHTS: [u32; 4] = [5, 6, 3, 1];

/// What one paced segment measured.
struct Segment {
    /// Wall from the first call's due instant to the last call's return.
    wall: Duration,
    /// Due instant of each probe, ns since `start`.
    probe_due_ns: Vec<u64>,
    /// How late each probe was issued, ns.
    probe_late_ns: Vec<u64>,
}

/// Issues `calls` calls on the fixed schedule, every [`PROBE_EVERY`]-th
/// one an `Add(PROBE_BASE + k)`.
fn paced_calls(
    handle: &SyncVectorHandle,
    wl: &mut ThreadWorkload,
    calls: usize,
    start: Instant,
) -> Segment {
    let interval_ns = 1_000_000_000 / RATE;
    let mut pacer = Pacer::with_phase(start, RATE, Duration::ZERO);
    let mut probe_due_ns = Vec::with_capacity(calls / PROBE_EVERY as usize + 1);
    let mut probe_late_ns = Vec::with_capacity(probe_due_ns.capacity());
    for _ in 0..calls {
        let i = pacer.next_arrival();
        if i.is_multiple_of(PROBE_EVERY) {
            let due = i * interval_ns;
            let now = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            probe_due_ns.push(due);
            probe_late_ns.push(now.saturating_sub(due));
            handle.add(PROBE_BASE + (i / PROBE_EVERY) as i64);
            continue;
        }
        match wl.next_op(&OP_WEIGHTS) {
            0 => handle.add(wl.next_key()),
            1 => {
                handle.remove_last();
            }
            2 => {
                handle.last_index_of(wl.next_key());
            }
            _ => {
                handle.size();
            }
        }
    }
    Segment {
        wall: start.elapsed(),
        probe_due_ns,
        probe_late_ns,
    }
}

/// One repetition: a short Off segment, then the verified segment.
fn repetition(ctx: &mut Ctx, cell: &Cell, rep: usize) {
    let (on_calls, off_calls) = (ctx.size(ON_CALLS, 800), ctx.size(OFF_CALLS, 200));

    let off = {
        let vector = SyncVector::new(VectorVariant::Correct, EventLog::discarding(LogMode::Off));
        let mut wl = ThreadWorkload::new(&cell.cfg, 0);
        paced_calls(&vector.handle(), &mut wl, off_calls, Instant::now())
    };

    let start = Instant::now();
    let stamps = ProbeStamps::new(start, on_calls / PROBE_EVERY as usize + 1);
    let verifier = OnlineVerifier::spawn(
        LogMode::Io,
        Checker::io(ProbeSpec::new(VectorSpec::new(), stamps.clone())),
    );
    let vector = SyncVector::new(VectorVariant::Correct, verifier.log().clone());
    let mut wl = ThreadWorkload::new(&cell.cfg, 0);
    let on = paced_calls(&vector.handle(), &mut wl, on_calls, start);
    // The handle's buffered events reach the log when it drops.
    drop(vector);
    let appended = verifier.log().stats().events;
    let (report, drain_start, drain) = timed(|| verifier.finish());
    let total = start.elapsed();

    ctx.span("span.verdict", rep, &cell.label(), start, total);
    ctx.span("span.program", rep, &cell.label(), start, on.wall);
    ctx.span("span.drain", rep, &cell.label(), drain_start, drain);
    ctx.gate.expect_pass(&cell.label(), &report, appended);
    for (k, &due) in on.probe_due_ns.iter().enumerate() {
        match stamps.applied_ns(k) {
            Some(applied) => {
                ctx.push(
                    "latency.verdict_ms",
                    applied.saturating_sub(due) as f64 / 1e6,
                );
            }
            // A probe the verifier never applied missed every limit.
            None => ctx.gate.identity("probe applied", 0, 1),
        }
    }
    for late in on.probe_late_ns {
        ctx.push("latency.generator_late_ms", late as f64 / 1e6);
    }
    ctx.push("online.drain_s", drain.as_secs_f64());
    // Per call, so segments of different length compare.
    ctx.push("program.off_s", off.wall.as_secs_f64() / off_calls as f64);
    ctx.push("program.on_s", on.wall.as_secs_f64() / on_calls as f64);
    ctx.push(
        "logged_events_per_s",
        appended as f64 / on.wall.as_secs_f64(),
    );
    ctx.push(
        "verified_events_per_s",
        report.stats.events as f64 / total.as_secs_f64(),
    );
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    // The cell names the scenario for the gate and the layer replays; the
    // generator above replaces its closed-loop driver.
    let cell = Cell::new(ctx, "Vector", CheckKind::Io, 1, ON_CALLS, 64);
    ctx.constant("rate_calls_per_s", RATE);
    ctx.constant("calls_per_rep", format!("{ON_CALLS} on + {OFF_CALLS} off"));
    ctx.constant("probe_every", PROBE_EVERY);
    ctx.constant("op_weights", format!("{OP_WEIGHTS:?}"));

    ctx.setup(|ctx| ctx.warm_up(|ctx| repetition(ctx, &cell, 0)));

    ctx.measure(ctx.cfg.seconds, |ctx, rep, _| repetition(ctx, &cell, rep));

    let cells = [cell];
    canaries(ctx, &cells, |_, _, events| {
        let stamps = ProbeStamps::new(Instant::now(), 0);
        let verifier = OnlineVerifier::spawn(
            LogMode::Io,
            Checker::io(ProbeSpec::new(VectorSpec::new(), stamps)),
        );
        layers::replay_through_loggers(verifier.log(), &events);
        verifier.finish()
    });

    // The headline: reported by every run beside the end-to-end list, and
    // by a traced run in it.
    let latency = ctx.get("latency.verdict_ms").to_vec();
    let late = ctx.get("latency.generator_late_ms").to_vec();
    ctx.also = vec![
        ("verdict_latency_ms_p50", "ms", median(&latency)),
        ("verdict_latency_ms_p99", "ms", percentile(&latency, 99.0)),
        ("verdict_latency_probes", "count", latency.len() as f64),
        (
            "verdict_latency_probes_beyond_p99",
            "count",
            samples_beyond(latency.len(), 99.0) as f64,
        ),
        ("generator_late_ms_p50", "ms", median(&late)),
        ("generator_late_ms_p99", "ms", percentile(&late, 99.0)),
    ];

    if ctx.cfg.traced {
        ctx.layer("latency.verdict_ms_p50", median(&latency));
        ctx.layer("latency.verdict_ms_p99", percentile(&latency, 99.0));
        ctx.layer("latency.generator_late_ms_p99", percentile(&late, 99.0));
        ctx.layer("online.drain_ms", ctx.median("online.drain_s") * 1e3);

        let cell = &cells[0];
        let trace = cell.trace_of(ON_CALLS);
        let n = trace.len() as f64;
        let off_ns = layers::program_off_ns_per_call(cell.scenario.as_ref(), &cell.cfg);
        ctx.layer("program.off_ns_per_call", off_ns);
        ctx.busy("program", off_ns * cell.cfg.total_calls() as f64 / 1e9);
        log_layer(ctx, LogMode::Off, &trace);
        let log_ns = log_layer(ctx, LogMode::Io, &trace);
        ctx.busy("log", log_ns * n / 1e9);
        let hop = layers::channel_hop_ns(&trace, None);
        ctx.layer("channel.hop_ns_per_event.unbounded", hop);
        ctx.busy("channel", hop * n / 1e9);
        let ns = checker_layer(ctx, cell, &trace);
        ctx.busy("checker", ns * n / 1e9);
        close_ledger(ctx);
    }
}
