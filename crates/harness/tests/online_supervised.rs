//! The Table 3 online column is supervised: a checker that panics under
//! `run_online` degrades the report — it never unwinds the run.
//!
//! Fault plans are process-global, so this test owns its binary.

use vyrd_core::violation::Verdict;
use vyrd_harness::scenario::{run_online, CheckKind, Variant};
use vyrd_harness::scenarios::JavaVectorScenario;
use vyrd_harness::workload::WorkloadConfig;
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};

#[test]
fn panicking_checker_degrades_the_online_report() {
    let _scope = fault::install(
        FaultPlan::seeded(7).rule("online.check", FaultRule::once(FaultAction::Panic)),
    );
    let (_, report) = run_online(
        &JavaVectorScenario,
        &WorkloadConfig::small(),
        CheckKind::View,
        Variant::Correct,
    );
    assert!(report.is_degraded(), "{report}");
    assert_eq!(report.degradation.shard_failures.len(), 1, "{report}");
    assert_ne!(
        report.verdict(),
        Verdict::Pass,
        "a panicked check never reads as a clean pass"
    );
}
