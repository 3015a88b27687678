//! Fault-matrix acceptance: every sharded scenario crossed with the full
//! fault grid must end in a verdict or an explicitly degraded report —
//! never a hang, an abort, or a clean pass that hides lost coverage.
//!
//! The grid runs under this suite's own seed and under the CI seed
//! (`VYRD_FAULT_SEED` replaces both, to replay one).
//!
//! Fault plans are process-global; this binary owns its own process and
//! `run_matrix` runs its cells sequentially, so no extra locking is
//! needed as long as this file holds a single test.

mod common;

use common::base_seeds;
use vyrd::harness::fault_matrix::{run_matrix, CASES};
use vyrd::harness::scenario::CheckKind;
use vyrd::harness::scenarios;

#[test]
fn every_matrix_cell_ends_in_a_verdict_or_degraded_report() {
    let sharded = scenarios::all()
        .iter()
        .filter(|s| s.shard_factory(CheckKind::View).is_some())
        .count();
    assert!(sharded >= 2, "at least two scenarios are sharded");

    for seed in base_seeds(0xFA17_5EED) {
        let outcomes = run_matrix(seed);
        assert_eq!(outcomes.len(), sharded * CASES.len(), "full grid ran");
        let failures: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.passed())
            .map(ToString::to_string)
            .collect();
        assert!(
            failures.is_empty(),
            "seed {seed}, failed cells:\n{}",
            failures.join("\n")
        );
    }
}
