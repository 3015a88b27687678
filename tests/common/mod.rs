//! The seeds the seeded suites run under.

use vyrd::rt::fault;
use vyrd_bench::cli::CI_SEED;

/// A suite's own `default` seed and the CI seed the `vyrd` subcommands
/// default to — or `VYRD_FAULT_SEED` alone, so a failure replays under
/// the seed that produced it.
pub fn base_seeds(default: u64) -> Vec<u64> {
    match fault::seed_from_env() {
        0 => vec![default, CI_SEED],
        seed => vec![seed],
    }
}
