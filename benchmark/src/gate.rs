//! The correctness gate every workload runs: Correct variants must PASS
//! over their whole input, the conservation identities must hold exactly,
//! and one short Buggy canary per scenario must FAIL with its pinned
//! violation category. Every miss counts into `failed` (hence
//! `failed_share`) and makes the command exit non-zero.

use vyrd_core::violation::Report;
use vyrd_core::Event;
use vyrd_harness::scenario::{record_run, CheckKind, Scenario, Variant};
use vyrd_harness::workload::WorkloadConfig;

/// Tally of verdicts and events, attempted and missed.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Verdicts checked plus events that had to reach a verdict.
    pub attempted: u64,
    /// Wrong verdicts plus events shed, stranded, discarded, lost or torn.
    pub failed: u64,
    /// One line per miss, for the run's output.
    pub misses: Vec<String>,
}

impl Gate {
    fn miss(&mut self, count: u64, what: String) {
        self.failed += count;
        self.misses.push(what);
    }

    /// A Correct run's verdict over `expected_events` events: it must
    /// pass, undegraded, having checked every one of them.
    pub fn expect_pass(&mut self, what: &str, report: &Report, expected_events: u64) {
        self.attempted += 1 + expected_events;
        if !report.passed() {
            self.miss(1, format!("{what}: Correct variant failed: {report}"));
        }
        let d = &report.degradation;
        let lost = d.sheds()
            + d.stranded_events
            + d.events_lost
            + d.torn_bytes_discarded
            + report.stats.events_discarded_after_close
            + expected_events.abs_diff(report.stats.events);
        if lost > 0 || report.is_degraded() {
            self.miss(
                lost.max(1),
                format!(
                    "{what}: coverage lost: checked {} of {expected_events} events, ledger {d:?}",
                    report.stats.events
                ),
            );
        }
    }

    /// A conservation identity: both sides must be exactly equal.
    pub fn identity(&mut self, what: &str, lhs: u64, rhs: u64) {
        self.attempted += 1;
        if lhs != rhs {
            self.miss(lhs.abs_diff(rhs), format!("{what}: {lhs} != {rhs}"));
        }
    }

    /// A canary's verdict through the workload's own verdict path: it
    /// must fail, with one of the pinned categories.
    pub fn expect_fail(&mut self, what: &str, report: &Report, pinned: &[&str]) {
        self.attempted += 1;
        match &report.violation {
            Some(v) if pinned.contains(&v.category()) => {}
            Some(v) => self.miss(
                1,
                format!(
                    "{what}: canary failed as {}, pinned {pinned:?}",
                    v.category()
                ),
            ),
            None => self.miss(1, format!("{what}: Buggy canary passed")),
        }
    }

    /// Misses as a share of everything attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The violation categories a scenario's seeded bug may surface as. The
/// racy bugs land in more than one depending on which thread loses the
/// race; anything outside the list (a malformed log, an unsupported
/// mode) is a miss.
pub fn pinned_categories(scenario: &str) -> &'static [&'static str] {
    match scenario {
        "Cache" => &[
            "invariant-violation",
            "observer-unjustified",
            "view-mismatch",
        ],
        "BLinkTree" => &["view-mismatch", "observer-unjustified"],
        "Multiset-BinaryTree" => &["view-mismatch"],
        "Vector" => &["observer-unjustified"],
        _ => &["spec-rejected-commit"],
    }
}

/// Records a short Buggy run that fails its offline check, walking seeds
/// from `seed` (the racy bugs manifest on the first try almost always;
/// the lock-free ones are deterministic). `None` if none of `max_runs`
/// attempts fails — which the caller reports as a missed canary.
pub fn failing_canary(
    scenario: &dyn Scenario,
    kind: CheckKind,
    seed: u64,
    max_runs: u32,
) -> Option<(Vec<Event>, Report)> {
    let mut cfg = WorkloadConfig {
        threads: 2,
        calls_per_thread: 300,
        key_pool: 6,
        shrink_pool: true,
        internal_task: true,
        seed,
        pace: None,
    };
    for _ in 0..max_runs {
        let run = record_run(scenario, &cfg, kind.log_mode(), Variant::Buggy);
        let report = scenario.check(kind, run.events.clone());
        if !report.passed() {
            return Some((run.events, report));
        }
        cfg.seed = cfg.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vyrd_core::violation::Violation;

    #[test]
    fn a_clean_pass_counts_events_and_one_verdict() {
        let mut gate = Gate::default();
        let mut report = Report::default();
        report.stats.events = 100;
        gate.expect_pass("clean", &report, 100);
        assert_eq!((gate.attempted, gate.failed), (101, 0));
        assert_eq!(gate.failed_share(), 0.0);
    }

    #[test]
    fn lost_coverage_and_wrong_verdicts_are_misses() {
        let mut gate = Gate::default();
        let mut report = Report::default();
        report.stats.events = 90;
        gate.expect_pass("short", &report, 100);
        assert_eq!(gate.failed, 10);
        gate.identity("appended == routed + shed", 5, 7);
        assert_eq!(gate.failed, 12);
        gate.expect_fail("canary", &Report::default(), &["view-mismatch"]);
        assert_eq!(gate.failed, 13);
        let unsupported = Report {
            violation: Some(Violation::UnsupportedMode {
                detail: String::new(),
                log_position: 0,
            }),
            ..Report::default()
        };
        gate.expect_fail("canary", &unsupported, &["view-mismatch"]);
        assert_eq!(gate.failed, 14);
        assert_eq!(gate.misses.len(), 4);
        assert!(gate.failed_share() > 0.0);
    }
}
