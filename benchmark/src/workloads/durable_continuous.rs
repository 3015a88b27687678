//! `durable_continuous` — closed loop, 1 producer thread,
//! `run_continuous` (Vector `Io`, Cache `View`) with 1 MiB segments in a
//! fresh temporary directory, default checkpointing, segments deleted
//! behind the verifier.
//!
//! *Why:* `codec` encode, `segment` write + fsync + manifest, decode,
//! checkpoint and delete all sit on the path, and none of the router or
//! pool code does — a shard or channel change must not move it.

use std::path::PathBuf;

use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::segment::{ContinuousOptions, ContinuousVerifier, SegmentConfig};
use vyrd_harness::scenario::{run_continuous, CheckKind, Variant};

use super::{
    canaries, checker_layer, close_ledger, describe_cells, log_layer, program_layer, push_live,
    run_program, Cell,
};
use crate::harness::{timed, Ctx};
use crate::layers;

/// Segment rotation budget.
const SEGMENT_BYTES: u64 = 1 << 20;
/// Calls of the trace the layer replays use.
const LAYER_CALLS: usize = 60_000;

fn cells(ctx: &Ctx) -> Vec<Cell> {
    vec![
        Cell::new(ctx, "Vector", CheckKind::Io, 1, 200_000, 64),
        Cell::new(ctx, "Cache", CheckKind::View, 1, 60_000, 64),
    ]
}

/// A fresh segment directory under the run's scratch directory.
fn fresh_dir(ctx: &Ctx, n: &mut usize) -> PathBuf {
    *n += 1;
    ctx.tmp.join(format!("segments-{n}"))
}

/// One repetition: every cell Off, then spilled to segments and verified
/// from them to its verdict.
fn repetition(ctx: &mut Ctx, cells: &[Cell], dirs: &mut usize, rep: usize) {
    let (mut off, mut on, mut total, mut events) = (0.0, 0.0, 0.0, 0u64);
    for cell in cells {
        off += run_program(cell, LogMode::Off).0;
        let dir = fresh_dir(ctx, dirs);
        let (artifacts, start, dur) = timed(|| {
            run_continuous(
                cell.scenario.as_ref(),
                &cell.cfg,
                cell.kind,
                Variant::Correct,
                SegmentConfig::new(&dir).segment_bytes(SEGMENT_BYTES),
                ContinuousOptions::default(),
            )
        });
        let artifacts = artifacts.expect("a checkpointable scenario and a writable directory");
        let _ = std::fs::remove_dir_all(&dir);
        ctx.span("span.verdict", rep, &cell.label(), start, dur);
        ctx.span("span.program", rep, &cell.label(), start, artifacts.wall);
        ctx.span(
            "span.drain",
            rep,
            &cell.label(),
            start + artifacts.wall,
            dur - artifacts.wall,
        );
        // Every durably framed event must reach a checker.
        ctx.gate
            .expect_pass(&cell.label(), &artifacts.report, artifacts.summary.events);
        on += artifacts.wall.as_secs_f64();
        total += dur.as_secs_f64();
        events += artifacts.report.stats.events;
    }
    push_live(ctx, off, on, total, events);
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let cells = cells(ctx);
    describe_cells(ctx, &cells);
    ctx.constant("segment_bytes", SEGMENT_BYTES);
    let mut dirs = 0;

    ctx.setup(|ctx| ctx.warm_up(|ctx| repetition(ctx, &cells, &mut dirs, 0)));

    ctx.measure(ctx.cfg.seconds, |ctx, rep, _| {
        repetition(ctx, &cells, &mut dirs, rep)
    });

    canaries(ctx, &cells, |ctx, cell, events| {
        let dir = fresh_dir(ctx, &mut dirs);
        let config = SegmentConfig::new(&dir).segment_bytes(SEGMENT_BYTES);
        let (log, handle) = EventLog::to_segments(cell.mode(), config).expect("segment directory");
        layers::replay_through_loggers(&log, &events);
        log.close();
        handle.finish().expect("segment writer");
        let factory = cell
            .scenario
            .stepping_factory(cell.kind)
            .expect("a stepping factory");
        let report = ContinuousVerifier::open(&dir, factory, ContinuousOptions::default())
            .and_then(ContinuousVerifier::finalize)
            .expect("verify the canary's segments");
        let _ = std::fs::remove_dir_all(&dir);
        report
    });

    if ctx.cfg.traced {
        let program_s = program_layer(ctx, &cells);
        ctx.busy("program", program_s);
        let (mut encode, mut decode, mut bytes, mut total) = (0.0, 0.0, 0.0, 0.0);
        for cell in &cells {
            let trace = cell.trace_of(LAYER_CALLS);
            // ns/event from the short trace, charged for the events the
            // full program appends.
            let n = trace.len() as f64 * cell.cfg.total_calls() as f64
                / cell.cfg.total_calls().min(LAYER_CALLS) as f64;
            log_layer(ctx, LogMode::Off, &trace);
            let log_ns = log_layer(ctx, cell.mode(), &trace);
            ctx.busy("log", log_ns * n / 1e9);
            let (enc_ns, enc_bytes, encoding) = layers::codec_encode(&trace);
            let dec_ns = layers::codec_decode_ns(|| encoding.as_slice(), trace.len());
            encode += enc_ns * n;
            decode += dec_ns * n;
            bytes += enc_bytes * n;
            total += n;
            ctx.busy("codec", (enc_ns + dec_ns) * n / 1e9);
            let chk_ns = checker_layer(ctx, cell, &trace);
            ctx.busy("checker", chk_ns * n / 1e9);
            let factory = cell
                .scenario
                .stepping_factory(cell.kind)
                .expect("a stepping factory");
            let dir = fresh_dir(ctx, &mut dirs);
            let costs = layers::segment_costs(&trace, cell.mode(), &dir, SEGMENT_BYTES, &factory);
            ctx.layer("segment.write_ns_per_event", costs.write_ns_per_event);
            ctx.layer("segment.verify_ns_per_event", costs.verify_ns_per_event);
            ctx.layer("segment.checkpoint_ms", costs.checkpoint_ms);
            // What the segment layer adds beyond the codec and checker
            // work it contains.
            let own =
                costs.write_ns_per_event + costs.verify_ns_per_event - (enc_ns + dec_ns + chk_ns);
            ctx.busy("segment", own * n / 1e9);
        }
        ctx.layer("codec.encode_ns_per_event", encode / total);
        ctx.layer("codec.decode_ns_per_event", decode / total);
        ctx.layer("codec.bytes_per_event", bytes / total);
        close_ledger(ctx);
    }
}
