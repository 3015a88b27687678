//! Kill-and-resume proof for the continuous verification service.
//!
//! Spawns `vyrd continuous produce`, watches its progress
//! lines until at least one checkpoint is durable *and* checked segments
//! have been physically deleted, then SIGKILLs the process mid-run — the
//! real crash, not a simulated one. A second process then reopens the
//! directory in `resume` mode and must:
//!
//! * resume from the checkpoint (`resume_seq > 0`), never rechecking
//!   deleted history;
//! * tolerate whatever the kill tore (degradation, not failure);
//! * reach the same verdict as a single-process in-memory check of the
//!   same seeded workload (PASS — the kill must not forge a violation);
//! * leave the directory near-empty (at most the torn tail file), the
//!   bounded-disk claim, with its segment accounting exact: every segment
//!   file present at resume is either deleted or still live.

mod common;

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use common::{json_u64, json_values, scratch_dir};
use vyrd_bench::cli::CI_SEED;

/// `vyrd continuous <args>`.
fn continuous(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vyrd"));
    command.arg("continuous").args(args);
    command
}

/// Pulls `key=value` tokens out of one progress/final line.
fn kv(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace().find_map(|tok| {
        let v = tok.strip_prefix(key)?.strip_prefix('=')?;
        match v {
            "true" => Some(1),
            "false" => Some(0),
            n => n.parse().ok(),
        }
    })
}

/// Waits for the produce process to report a durable checkpoint past
/// sequence 0 plus at least one deleted segment, then returns. Panics if
/// the run finishes first (workload too small to catch mid-flight).
fn await_checkpoint_and_deletion(child: &mut Child) {
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read produce stdout");
        if line.starts_with("final") {
            panic!("produce finished before the kill gate: {line}");
        }
        let checkpoints = kv(&line, "checkpoints").unwrap_or(0);
        let deleted = kv(&line, "deleted").unwrap_or(0);
        let next_seq = kv(&line, "next_seq").unwrap_or(0);
        if checkpoints >= 2 && deleted >= 1 && next_seq > 0 {
            return;
        }
    }
    panic!("produce stdout closed before the kill gate");
}

fn run_to_final(args: &[&str]) -> (String, String) {
    let out = continuous(args).output().expect("spawn continuous");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    let final_line = stdout
        .lines()
        .find(|l| l.starts_with("final"))
        .unwrap_or_else(|| panic!("no final line in:\n{stdout}"))
        .to_owned();
    (final_line, stdout)
}

#[test]
fn sigkill_mid_run_resumes_from_checkpoint_with_the_same_verdict() {
    let dir = scratch_dir("kill-resume");
    let dir_s = dir.to_string_lossy().into_owned();
    let seed = CI_SEED.to_string();

    // A workload large enough that the kill lands mid-run; the gate fires
    // after a handful of 4 KiB segments, long before completion.
    let mut child = continuous(&[
        "produce",
        "--dir",
        &dir_s,
        "--seed",
        &seed,
        "--calls",
        "8000",
        "--segment-bytes",
        "4096",
    ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn produce");
    await_checkpoint_and_deletion(&mut child);
    child.kill().expect("SIGKILL produce"); // SIGKILL on unix: no cleanup
    child.wait().expect("reap produce");

    // The durable directory survived the kill: a checkpoint plus the
    // segments it does not cover.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("segment dir survives the kill")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("checkpoint-")),
        "no checkpoint in {names:?}"
    );
    assert!(names.iter().any(|n| n == "manifest.log"), "{names:?}");
    let segments_at_resume = names
        .iter()
        .filter(|n| n.starts_with("seg-") && n.ends_with(".vyl"))
        .count() as u64;

    // Resume in a fresh process, exporting the outcome as JSON too.
    let out = scratch_dir("kill-resume-json");
    let json = out.join("SEGMENT_smoke.json");
    let (resumed, resume_out) = run_to_final(&[
        "resume",
        "--dir",
        &dir_s,
        "--seed",
        &seed,
        "--json",
        &json.to_string_lossy(),
    ]);
    let resume_seq = resume_out
        .lines()
        .find(|l| l.starts_with("resume "))
        .and_then(|l| kv(l, "resume_seq"))
        .expect("resume line");
    assert!(resume_seq > 0, "did not resume from a checkpoint:\n{resume_out}");
    assert_eq!(kv(&resumed, "passed"), Some(1), "{resumed}");

    // Same verdict as the single-process in-memory check of this seed.
    let (single, _) = run_to_final(&["single", "--seed", &seed, "--calls", "8000"]);
    assert_eq!(kv(&resumed, "passed"), kv(&single, "passed"), "{resumed} vs {single}");
    assert_eq!(kv(&single, "passed"), Some(1), "{single}");

    // Bounded disk: everything checked was deleted; at most the torn
    // tail file (kept as crash evidence) outlives the final checkpoint.
    assert!(kv(&resumed, "live_segments").unwrap_or(u64::MAX) <= 1, "{resumed}");

    // The kill may tear the tail (degradation) but must never lose the
    // already-checkpointed prefix: resumed coverage continues from
    // resume_seq, so total coverage ≥ the checkpointed position.
    let events_after_resume = kv(&resumed, "events").expect("events");
    assert!(
        events_after_resume >= resume_seq,
        "resumed coverage went backwards: {resumed}"
    );

    // The exported outcome says the same, and its segment accounting
    // reconciles exactly against the files the kill left behind.
    let doc = std::fs::read_to_string(&json).expect("resume --json artifact");
    assert_eq!(json_values(&doc, "passed"), ["true"], "{doc}");
    assert_eq!(json_u64(&doc, "resume_seq"), resume_seq, "{doc}");
    assert!(json_u64(&doc, "checkpoints_written") >= 1, "{doc}");
    assert!(json_u64(&doc, "events_checked_after_resume") >= resume_seq, "{doc}");
    assert!(json_u64(&doc, "live_segments") <= 1, "disk not reclaimed: {doc}");
    assert_eq!(
        json_u64(&doc, "segments_deleted") + json_u64(&doc, "live_segments"),
        segments_at_resume,
        "segment accounting does not reconcile with the files present at resume: {doc}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn clean_produce_deletes_everything_and_matches_single_process() {
    let dir = scratch_dir("clean-produce");
    let dir_s = dir.to_string_lossy().into_owned();

    let (produced, _) = run_to_final(&[
        "produce",
        "--dir",
        &dir_s,
        "--calls",
        "800",
        "--segment-bytes",
        "4096",
    ]);
    assert_eq!(kv(&produced, "passed"), Some(1), "{produced}");
    assert_eq!(kv(&produced, "degraded"), Some(0), "{produced}");
    // Every sealed segment was deleted during or at the end of the run,
    // and the verifier never fell behind by the whole history: its peak
    // live-segment footprint stayed below the total sealed count.
    assert_eq!(kv(&produced, "live_segments"), Some(0), "{produced}");
    assert_eq!(
        kv(&produced, "sealed"),
        kv(&produced, "deleted"),
        "{produced}"
    );
    let sealed = kv(&produced, "sealed").unwrap_or(0);
    let peak = kv(&produced, "peak_live_segments").unwrap_or(u64::MAX);
    assert!(sealed > 2, "workload too small to segment: {produced}");
    assert!(peak < sealed, "verifier never reclaimed disk: {produced}");

    // Identical deterministic event coverage and verdict to the
    // single-process in-memory reference.
    let (single, _) = run_to_final(&["single", "--calls", "800"]);
    assert_eq!(kv(&produced, "events"), kv(&single, "events"), "{produced} vs {single}");
    assert_eq!(kv(&produced, "passed"), kv(&single, "passed"));
    std::fs::remove_dir_all(&dir).ok();
}
