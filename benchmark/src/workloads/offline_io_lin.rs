//! `offline_io_lin` — single thread, the paper's file flow: v4-encoded
//! traces (Vector `Io`; Treiber-Stack and MS-Queue `Lin`) read back from
//! files through `Checker::check_reader`.
//!
//! *Why:* the same checker used differently from `offline_view` — no
//! writes to replay; observer windows and the Lin digest fast path
//! dominate — with `codec` decode in series. Decode alone plus check
//! alone must reconcile to the whole (`reconcile.offline_ratio`), and a
//! view-only optimisation must show no change here.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use vyrd_core::checker::Checker;
use vyrd_core::codec::{self, LogReader};
use vyrd_core::log::LogMode;
use vyrd_core::violation::Report;
use vyrd_core::Event;
use vyrd_harness::scenario::CheckKind;
use vyrd_javalib::VectorSpec;
use vyrd_lockfree::{QueueSpec, StackSpec};

use super::{
    canaries, checker_layer, close_ledger, describe_cells, log_layer, phase, program_layer,
    program_pair, Cell,
};
use crate::harness::{timed, Ctx};
use crate::layers;

fn cells(ctx: &Ctx) -> Vec<Cell> {
    vec![
        Cell::new(ctx, "Vector", CheckKind::Io, 1, 150_000, 64),
        Cell::new(ctx, "Treiber-Stack", CheckKind::Lin, 1, 150_000, 64),
        Cell::new(ctx, "MS-Queue", CheckKind::Lin, 1, 150_000, 64),
    ]
}

/// An encoded trace on disk.
struct TraceFile {
    path: PathBuf,
    events: u64,
}

fn encode_to(path: &PathBuf, events: &[Event]) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    codec::write_log(&mut w, events)?;
    w.flush()
}

/// `check_reader` over an encoded trace with the cell's own checker.
fn check_file(cell: &Cell, path: &PathBuf) -> Report {
    let file = File::open(path).expect("open the encoded trace");
    match (cell.scenario.name(), cell.kind) {
        ("Vector", CheckKind::Io) => Checker::io(VectorSpec::new()).check_reader(file),
        ("Treiber-Stack", CheckKind::Lin) => Checker::lin(StackSpec::new()).check_reader(file),
        ("MS-Queue", CheckKind::Lin) => Checker::lin(QueueSpec::new()).check_reader(file),
        (name, kind) => unreachable!("no reader checker for {name} {kind:?}"),
    }
}

/// One pass of the verdict path over every file; returns (wall s, events).
fn check_pass(ctx: &mut Ctx, cells: &[Cell], files: &[TraceFile], rep: usize) -> (f64, u64) {
    let (mut wall, mut events) = (0.0, 0u64);
    for (cell, file) in cells.iter().zip(files) {
        let (report, start, dur) = timed(|| check_file(cell, &file.path));
        ctx.span("span.verdict", rep, &cell.label(), start, dur);
        ctx.gate.expect_pass(&cell.label(), &report, file.events);
        wall += dur.as_secs_f64();
        events += report.stats.events;
    }
    (wall, events)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let cells = cells(ctx);
    describe_cells(ctx, &cells);

    let files: Vec<TraceFile> = ctx.setup(|ctx| {
        let files: Vec<TraceFile> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let events = c.trace();
                let path = ctx.tmp.join(format!("trace-{i}.vyl"));
                encode_to(&path, &events).expect("write the encoded trace");
                TraceFile {
                    path,
                    events: events.len() as u64,
                }
            })
            .collect();
        check_pass(ctx, &cells, &files, 0);
        files
    });

    let left = phase(ctx, |ctx, pair| program_pair(ctx, &cells, pair));
    ctx.measure(left, |ctx, rep, _| {
        let (wall, events) = check_pass(ctx, &cells, &files, rep);
        ctx.push("verified_events_per_s", events as f64 / wall);
        ctx.push("verdict.wall_s", wall);
    });

    let canary_path = ctx.tmp.join("canary.vyl");
    canaries(ctx, &cells, |_, cell, events| {
        encode_to(&canary_path, &events).expect("write the canary");
        check_file(cell, &canary_path)
    });

    if ctx.cfg.traced {
        program_layer(ctx, &cells);
        let (mut decode_s, mut check_s, mut encode_ns, mut bytes, mut total) =
            (0.0, 0.0, 0.0, 0.0, 0usize);
        for (i, (cell, file)) in cells.iter().zip(&files).enumerate() {
            let events: Vec<Event> = LogReader::new(File::open(&file.path).expect("trace"))
                .expect("log header")
                .map(|e| e.expect("a clean trace decodes"))
                .collect();
            if i == 0 {
                log_layer(ctx, LogMode::Off, &events);
                log_layer(ctx, LogMode::Io, &events);
            }
            let (enc_ns, enc_bytes, _) = layers::codec_encode(&events);
            // Decode alone reads what the verdict path reads: the file.
            let open = || File::open(&file.path).expect("open the encoded trace");
            let dec_ns = layers::codec_decode_ns(open, events.len());
            let chk_ns = checker_layer(ctx, cell, &events);
            let n = events.len();
            encode_ns += enc_ns * n as f64;
            bytes += enc_bytes * n as f64;
            decode_s += dec_ns * n as f64 / 1e9;
            check_s += chk_ns * n as f64 / 1e9;
            total += n;
        }
        let n = total.max(1) as f64;
        ctx.layer("codec.encode_ns_per_event", encode_ns / n);
        ctx.layer("codec.decode_ns_per_event", decode_s * 1e9 / n);
        ctx.layer("codec.bytes_per_event", bytes / n);
        ctx.busy("codec", decode_s);
        ctx.busy("checker", check_s);
        // The links must add up: decode alone + check alone against the
        // whole `check_reader` pass of the measured loop.
        let ratio = (decode_s + check_s) / ctx.median("verdict.wall_s");
        ctx.layer("reconcile.offline_ratio", ratio);
        if !ctx.cfg.smoke && !(0.85..=1.15).contains(&ratio) {
            let what = format!("reconcile.offline_ratio {ratio:.3} outside 0.85..1.15");
            ctx.gate.identity(&what, 0, 1);
        }
        close_ledger(ctx);
    }
}
