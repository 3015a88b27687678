//! `vyrd continuous` — drive the durable segmented log + checkpointed
//! continuous verification service from the command line.
//!
//! Three modes, designed so a harness can kill the process mid-run and
//! prove recovery:
//!
//! * `produce` — run a scenario's workload into a segment directory
//!   while a [`ContinuousVerifier`] polls it on the same process
//!   ([`run_continuous_observed`]), checkpointing and deleting checked
//!   segments. Emits one `progress` line per observable change (stdout is
//!   line-buffered, so an external watcher can gate a `SIGKILL` on them)
//!   and a `final` line on clean completion.
//! * `resume` — reopen a segment directory (typically after the
//!   `produce` process was killed), resume from the newest checkpoint,
//!   finalize, and print the same `final` line; optionally exports the
//!   outcome as JSON.
//! * `single` — the reference: the same workload checked in one process
//!   with an in-memory log, for verdict comparison.
//!
//! All lines are `key=value` tokens so they parse with `split_whitespace`
//! alone; the kill/resume integration test relies on that.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use vyrd_core::metrics::pipeline;
use vyrd_core::segment::{scan_segments, ContinuousOptions, ContinuousVerifier, SegmentConfig};
use vyrd_core::violation::Report;
use vyrd_core::Event;
use vyrd_harness::scenario::{
    build_witness, reconstruct_witness, record_run, run_continuous_observed, CheckKind, Scenario,
};
use vyrd_harness::workload::{PaceConfig, WorkloadConfig};
use vyrd_rt::metrics;

use crate::cli::{
    Args, CALLS, CHECKPOINT_EVERY, DIR, DURATION, JSON, KIND, RATE, SEED, SEGMENT_BYTES, THREADS,
    VARIANT, WITNESS,
};
use crate::emit_witness;

pub(crate) fn run(args: &Args) -> ExitCode {
    let Some(scenario) = args.scenario() else {
        return ExitCode::from(2);
    };
    metrics::set_enabled(true);
    let outcome = match args.mode {
        "produce" => produce(scenario.as_ref(), args),
        "resume" => resume(scenario.as_ref(), args),
        _ => single(scenario.as_ref(), args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: {e}", args.mode);
            ExitCode::FAILURE
        }
    }
}

fn segment_dir(args: &Args) -> PathBuf {
    if args.given(&DIR) {
        args.get(&DIR)
    } else {
        std::env::temp_dir().join(format!("vyrd-continuous-{}", std::process::id()))
    }
}

/// The workload is paced — `--calls` ignored — once `--rate` or
/// `--duration` is given.
fn workload(args: &Args) -> WorkloadConfig {
    let paced = args.given(&RATE) || args.given(&DURATION);
    WorkloadConfig {
        threads: args.get(&THREADS),
        calls_per_thread: if paced { 0 } else { args.get(&CALLS) },
        key_pool: 16,
        shrink_pool: true,
        internal_task: false,
        seed: args.get(&SEED),
        pace: paced.then(|| PaceConfig {
            rate_per_sec: args.get(&RATE),
            duration: Duration::from_secs_f64(args.get(&DURATION)),
        }),
    }
}

fn print_final(report: &Report, resume_seq: u64, live: u64, peak_live: u64) {
    let p = pipeline();
    println!(
        "final passed={} degraded={} events={} events_lost={} torn_bytes={} \
         sealed={} deleted={} checkpoints={} live_segments={} resume_seq={} \
         peak_live_segments={}",
        report.passed(),
        report.is_degraded(),
        report.stats.events,
        report.degradation.events_lost,
        report.degradation.torn_bytes_discarded,
        p.segment_sealed.get(),
        p.segment_deleted.get(),
        p.checkpoint_written.get(),
        live,
        resume_seq,
        peak_live
    );
}

/// On a FAIL verdict with `--witness`: minimize + explain the violation.
/// `single` mode passes the retained in-memory trace; the segmented modes
/// pass `None` (checked segments are deleted as the verifier advances),
/// so the witness is built from a reconstructed closed-loop recording of
/// the same seeded bug instead.
fn maybe_witness(
    scenario: &dyn Scenario,
    args: &Args,
    report: &Report,
    events: Option<&[Event]>,
) -> io::Result<()> {
    if !args.given(&WITNESS) || report.passed() {
        return Ok(());
    }
    let kind = args.get(&KIND);
    let cx = match events {
        Some(evs) => build_witness(scenario, kind, evs, report)
            .map_err(|e| io::Error::other(format!("witness pipeline: {e}")))?,
        None => reconstruct_witness(scenario, kind, args.get(&VARIANT), &workload(args), 60)
            .map_err(io::Error::other)?,
    };
    emit_witness(&cx, kind)
}

/// Runs the workload into segments with a concurrent polling verifier,
/// printing a `progress` line whenever a poll changed an observable
/// counter.
fn produce(scenario: &dyn Scenario, args: &Args) -> io::Result<()> {
    let dir = segment_dir(args);
    let mut resume_seq = None;
    let mut last = String::new();
    let mut peak_live = 0u64;
    let artifacts = run_continuous_observed(
        scenario,
        &workload(args),
        args.get(&KIND),
        args.get(&VARIANT),
        SegmentConfig::new(&dir).segment_bytes(args.get(&SEGMENT_BYTES)),
        ContinuousOptions {
            checkpoint_every_segments: args.get(&CHECKPOINT_EVERY),
            delete_checked: true,
        },
        |verifier: &ContinuousVerifier| {
            if resume_seq.is_none() {
                // The call right after the directory is opened.
                resume_seq = Some(verifier.resume_seq());
                println!(
                    "start dir={} resume_seq={}",
                    dir.display(),
                    verifier.resume_seq()
                );
                return Ok(());
            }
            let live = scan_segments(&dir)?.len() as u64;
            peak_live = peak_live.max(live);
            let p = pipeline();
            let now = format!(
                "progress next_seq={} sealed={} deleted={} checkpoints={} live_segments={live}",
                verifier.next_seq(),
                p.segment_sealed.get(),
                p.segment_deleted.get(),
                p.checkpoint_written.get(),
            );
            if now != last {
                println!("{now}");
                last = now;
            }
            Ok(())
        },
    )?;
    let live = scan_segments(&dir)?.len() as u64;
    peak_live = peak_live.max(artifacts.summary.segments_sealed.min(live));
    print_final(&artifacts.report, resume_seq.unwrap_or(0), live, peak_live);
    maybe_witness(scenario, args, &artifacts.report, None)
}

/// Reopens a segment directory after a crash and finishes the check.
fn resume(scenario: &dyn Scenario, args: &Args) -> io::Result<()> {
    let dir = segment_dir(args);
    let factory = scenario
        .stepping_factory(args.get(&KIND))
        .ok_or_else(|| io::Error::other("scenario has no checkpointable checker"))?;
    let verifier = ContinuousVerifier::open(&dir, factory, ContinuousOptions::default())?;
    let resume_seq = verifier.resume_seq();
    println!("resume dir={} resume_seq={resume_seq}", dir.display());
    let report = verifier.finalize()?;
    let live = scan_segments(&dir)?.len() as u64;
    print_final(&report, resume_seq, live, 0);
    if args.given(&JSON) {
        let path: PathBuf = args.get(&JSON);
        let p = pipeline();
        let json = format!(
            "{{\n  \"scenario\": \"{}\",\n  \"seed\": {},\n  \"resume_seq\": {},\n  \
             \"passed\": {},\n  \"degraded\": {},\n  \"events_checked_after_resume\": {},\n  \
             \"events_lost\": {},\n  \"torn_bytes_discarded\": {},\n  \
             \"checkpoints_written\": {},\n  \"segments_deleted\": {},\n  \
             \"live_segments\": {}\n}}\n",
            scenario.name(),
            args.get::<u64>(&SEED),
            resume_seq,
            report.passed(),
            report.is_degraded(),
            report.stats.events,
            report.degradation.events_lost,
            report.degradation.torn_bytes_discarded,
            p.checkpoint_written.get(),
            p.segment_deleted.get(),
            live,
        );
        std::fs::write(&path, json)?;
        eprintln!("wrote {}", path.display());
    }
    maybe_witness(scenario, args, &report, None)
}

/// The single-process reference check (in-memory log, no segments).
fn single(scenario: &dyn Scenario, args: &Args) -> io::Result<()> {
    let kind: CheckKind = args.get(&KIND);
    let run = record_run(
        scenario,
        &workload(args),
        kind.log_mode(),
        args.get(&VARIANT),
    );
    let report = scenario.check(kind, run.events.clone());
    print_final(&report, 0, 0, 0);
    maybe_witness(scenario, args, &report, Some(&run.events))
}
