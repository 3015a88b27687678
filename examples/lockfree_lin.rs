//! The lock-free family under linearizability checking: a Treiber stack
//! and a Michael–Scott queue whose commit points are successful CASes,
//! checked in `CheckKind::Lin` mode (I/O refinement's per-window witness
//! search, accounted) alongside plain I/O refinement.
//!
//! Three things are demonstrated, and the process exits non-zero if any
//! of them fails to hold:
//!
//! 1. the correct variants PASS under both Io and Lin on the same trace;
//! 2. the buggy variants — an untagged ABA `Pop` CAS and a non-atomic
//!    `Enqueue` tail swing — FAIL deterministically under both modes at
//!    any seed, because each scenario choreographs its bug with barriers
//!    before the random workload starts;
//! 3. view mode, which needs a replayer the lock-free structures do not
//!    have, is *refused* with an `unsupported-mode` report instead of
//!    vacuously passing.
//!
//! Run with: `cargo run --example lockfree_lin`

use vyrd::core::log::LogMode;
use vyrd::harness::scenario::{record_run, CheckKind, Variant};
use vyrd::harness::scenarios;
use vyrd::harness::workload::WorkloadConfig;

fn main() {
    let cfg = WorkloadConfig {
        threads: 4,
        calls_per_thread: 40,
        key_pool: 10,
        shrink_pool: true,
        internal_task: false,
        seed: 0xCA5,
        pace: None,
    };

    let mut failures = 0u32;
    let mut expect = |what: &str, ok: bool| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    for scenario in scenarios::lockfree() {
        let s = scenario.as_ref();
        println!("{} (bug: {})", s.name(), s.bug());

        // 1. Correct variant: one recorded Io-mode trace, two verdicts.
        let run = record_run(s, &cfg, LogMode::Io, Variant::Correct);
        let io = s.check(CheckKind::Io, run.events.clone());
        expect("correct passes Io", io.passed());
        let lin = s.check(CheckKind::Lin, run.events.clone());
        expect("correct passes Lin", lin.passed());
        expect(
            "Lin searched observer windows",
            lin.stats.lin_windows_searched > 0,
        );
        println!(
            "       windows={} backtracks={}",
            lin.stats.lin_windows_searched, lin.stats.lin_witness_backtracks
        );

        // 2. Buggy variant: the choreographed prologue makes the
        // violation deterministic, so FAIL is asserted, not retried.
        let buggy = record_run(s, &cfg, LogMode::Io, Variant::Buggy);
        for kind in [CheckKind::Io, CheckKind::Lin] {
            let report = s.check(kind, buggy.events.clone());
            let rejected = report
                .violation
                .as_ref()
                .is_some_and(|v| v.category() == "spec-rejected-commit");
            expect(&format!("buggy fails {kind:?}"), !report.passed() && rejected);
            if let Some(v) = &report.violation {
                println!("       {v}");
            }
        }

        // 3. View mode needs a replayer these structures don't have; the
        // checker must say so rather than pass vacuously.
        let view = s.check(CheckKind::View, run.events);
        let refused = view
            .violation
            .as_ref()
            .is_some_and(|v| v.category() == "unsupported-mode");
        expect("View is refused as unsupported", !view.passed() && refused);
        println!();
    }

    if failures > 0 {
        println!("{failures} expectation(s) failed");
        std::process::exit(1);
    }
    println!("all lock-free linearizability expectations hold");
}
