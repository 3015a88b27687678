//! The `vyrd` binary's pinned-seed gates, run end to end through the
//! binary and judged on the artifacts it writes.
//!
//! * `vyrd soak --smoke`: an arrival-rate workload well past the
//!   verifier's saturation point with fixed `Shed` constants, the
//!   watchdog on, and one shard's checker stalled. The correct leg must converge to a
//!   DEGRADED PASS with exact shed/stranded accounting, and the buggy leg
//!   must still FAIL — overload never forges a verdict either way.
//! * `vyrd witness --max-events 50 --min-log 2000`: two seeded bugs
//!   recorded, ddmin-minimized with the scenario's checker as the oracle,
//!   and explained. The violation category must survive minimization, the
//!   witness must be small, and the trace it came from must not be.

mod common;

use std::fs;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use common::{json_u64, json_values, scratch_dir, vyrd_into};
use vyrd_bench::cli::CI_SEED;

/// The soak smoke is a timed run: the gates here take turns, so a witness
/// process never competes with it for the CPU.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn soak_smoke_degrades_the_correct_leg_and_fails_the_buggy_leg() {
    let _serial = serial();
    let out = scratch_dir("soak-smoke");
    vyrd_into(&out, &["soak", "--smoke", "--seed", &CI_SEED.to_string()]);
    let doc = fs::read_to_string(out.join("SOAK_smoke.json")).expect("SOAK_smoke.json");

    assert_eq!(
        json_values(&doc, "ok"),
        ["true"],
        "soak smoke did not reconcile"
    );
    assert_eq!(json_values(&doc, "variant"), ["Correct", "Buggy"]);
    assert_eq!(
        json_values(&doc, "verdict"),
        ["DEGRADED PASS", "FAIL"],
        "a leg's verdict went the wrong way:\n{doc}"
    );
    assert_eq!(json_values(&doc, "reconciled"), ["true", "true"], "{doc}");
    let correct_sheds: u64 = json_values(&doc, "shed")[0].parse().expect("shed count");
    assert!(correct_sheds > 0, "the smoke never saturated:\n{doc}");
    fs::remove_dir_all(&out).ok();
}

/// `vyrd witness` for one seeded bug, gated at 50 witness events from an
/// originating log of at least 2000.
fn witness_gate(scenario: &str, kind: &str, category: &str) {
    let _serial = serial();
    let out = scratch_dir(&format!("witness-{scenario}"));
    vyrd_into(
        &out,
        &[
            "witness",
            "--scenario",
            scenario,
            "--kind",
            kind,
            "--seed",
            &CI_SEED.to_string(),
            "--max-events",
            "50",
            "--min-log",
            "2000",
        ],
    );
    let doc =
        fs::read_to_string(out.join(format!("WITNESS_{scenario}.json"))).expect("witness artifact");
    assert_eq!(
        json_values(&doc, "category"),
        [category],
        "{scenario}: category drifted"
    );
    let events = json_values(&doc, "index").len() as u64;
    assert_eq!(events, json_u64(&doc, "minimized_events"), "{scenario}");
    assert!(
        (1..=50).contains(&events),
        "{scenario}: witness not minimized: {events} events"
    );
    assert!(
        json_u64(&doc, "original_events") >= 2000,
        "{scenario}: trivial originating trace"
    );
    assert!(
        json_u64(&doc, "oracle_runs") >= 1,
        "{scenario}: no ddmin cost reported"
    );
    fs::remove_dir_all(&out).ok();
}

#[test]
fn witness_gate_vector_view() {
    witness_gate("Vector", "view", "observer-unjustified");
}

#[test]
fn witness_gate_treiber_stack_lin() {
    witness_gate("Treiber-Stack", "lin", "spec-rejected-commit");
}
