//! # vyrd-bench — experiment drivers for the paper's evaluation (§7)
//!
//! One binary, `vyrd`, with one subcommand per experiment (`vyrd help`
//! prints the whole reference; [`cli`] holds the flag table it is
//! generated from):
//!
//! * `vyrd table 1|2|3` — the paper's tables: time to detection of error
//!   (I/O vs view refinement), overhead of logging, running-time
//!   breakdown (program alone / +logging / +online VYRD / offline VYRD).
//!   Each prints the measured values next to the paper's reported
//!   numbers; the *shape* (orderings, rough factors) is the reproduction
//!   target, not the absolute 2005-era CPU seconds;
//! * `vyrd stats` — one sharded online run with metrics and trace spans
//!   on, printed and exported (the registry's reconciliation against the
//!   degradation ledger is the `tests/reconcile.rs` suite);
//! * `vyrd continuous produce|resume|single` — the durable segmented log
//!   with its checkpointed verifier, built to be killed and resumed;
//! * `vyrd soak` — open-loop load past saturation with bounded shedding;
//! * `vyrd witness` — minimized, explained counterexamples.
//!
//! `cargo bench -p vyrd-bench` runs two `harness = false` programs that
//! record nothing: the batched-vs-per-event consume gate and the paper
//! ablations (§6.4, §8, §2). Tracked numbers come from `benchmark/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io;
use std::path::PathBuf;

use vyrd_core::witness::Counterexample;
use vyrd_harness::scenario::CheckKind;
use vyrd_harness::workload::WorkloadConfig;

pub mod cli;
mod continuous;
mod soak;
mod stats;
mod table;
mod witness;

/// The repository's canonical directory for measurement artifacts
/// (`results/` at the workspace root): every `vyrd` subcommand that
/// exports one writes it here.
///
/// Honors `$VYRD_BENCH_DIR` as an override (useful for scratch runs that
/// should not touch the tracked results); falls back to the current
/// directory if the workspace layout is not where it was compiled.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("VYRD_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let results = workspace.join("results");
    if results.is_dir() {
        results
    } else {
        PathBuf::from(".")
    }
}

/// Writes one artifact into [`results_dir`], reporting the path — or the
/// failure — on stderr. Returns whether it was written.
pub(crate) fn write_result(file: &str, contents: &str) -> bool {
    let path = results_dir().join(file);
    let written = std::fs::write(&path, contents);
    match &written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// Paper-reported numbers for Table 1: per scenario, the thread counts
/// with (methods-to-detection for I/O, for view), plus the CPU ratio.
#[derive(Debug)]
pub struct Table1Reference {
    /// Scenario (table-row) name.
    pub name: &'static str,
    /// `(threads, io_methods, view_methods)` triples as printed in the
    /// paper.
    pub rows: &'static [(usize, u64, u64)],
    /// View/I-O checking CPU-time ratio reported by the paper.
    pub cpu_ratio: f64,
}

/// The paper's Table 1 contents.
pub const TABLE1_REFERENCE: &[Table1Reference] = &[
    Table1Reference {
        name: "Multiset-Vector",
        rows: &[(4, 1308, 25), (8, 773, 21), (16, 758, 10), (32, 820, 6)],
        cpu_ratio: 1.03,
    },
    Table1Reference {
        name: "Multiset-BinaryTree",
        rows: &[(4, 3648, 736), (8, 930, 217), (16, 330, 76), (32, 262, 78)],
        cpu_ratio: 1.38,
    },
    Table1Reference {
        name: "Vector",
        rows: &[(4, 219, 219), (8, 58, 58), (16, 52, 52), (32, 25, 25)],
        cpu_ratio: 2.83,
    },
    Table1Reference {
        name: "StringBuffer",
        rows: &[(4, 195, 90), (8, 152, 63), (16, 124, 19), (32, 29, 17)],
        cpu_ratio: 3.46,
    },
    Table1Reference {
        name: "BLinkTree",
        rows: &[
            (2, 2198, 405),
            (4, 4450, 483),
            (8, 3332, 611),
            (10, 2763, 342),
            (16, 1069, 301),
            (25, 3692, 515),
            (32, 2111, 715),
        ],
        cpu_ratio: 1.27,
    },
    Table1Reference {
        name: "Cache",
        rows: &[
            (4, 521, 14),
            (8, 805, 8),
            (10, 599, 10),
            (16, 302, 29),
            (25, 539, 26),
            (32, 311, 34),
        ],
        cpu_ratio: 16.9,
    },
];

/// Paper-reported numbers for Table 2 (CPU seconds): program alone, I/O
/// logging overhead, view logging overhead.
pub const TABLE2_REFERENCE: &[(&str, f64, f64, f64)] = &[
    ("Multiset-Vector", 15.4, 0.39, 3.69),
    ("Vector", 0.20, 0.09, 0.12),
    ("StringBuffer", 0.92, 0.18, 0.24),
    ("BLinkTree", 56.2, 2.42, 2.63),
    ("Cache", 1.8, 1.67, 3.31),
];

/// Paper-reported numbers for Table 3: `(name, threads, methods,
/// prog_alone, prog_logging, prog_logging_and_vyrd, vyrd_alone)`.
pub const TABLE3_REFERENCE: &[(&str, usize, usize, f64, f64, f64, f64)] = &[
    ("Vector", 20, 200, 0.2, 0.32, 2.46, 2.03),
    ("StringBuffer", 10, 30, 0.92, 1.16, 2.1, 1.85),
    ("BLinkTree", 10, 600, 56.2, 58.9, 213.18, 157.32),
    ("Cache", 10, 500, 1.8, 5.11, 9.5, 4.45),
];

/// Workload sizing for a scenario when regenerating the tables. Scales
/// per thread count; the internal task (compression / flusher) runs where
/// the paper's experiments ran one.
pub fn table_config(scenario: &str, threads: usize, seed: u64) -> WorkloadConfig {
    let (calls, pool, internal) = match scenario {
        "Multiset-Vector" => (150, 10, true),
        "Multiset-BinaryTree" => (150, 24, true),
        "Vector" => (120, 16, false),
        "StringBuffer" => (120, 8, false),
        "BLinkTree" => (150, 32, true),
        "Cache" => (120, 8, true),
        _ => (100, 16, false),
    };
    WorkloadConfig {
        threads,
        calls_per_thread: calls,
        key_pool: pool,
        shrink_pool: true,
        internal_task: internal,
        seed,
        pace: None,
    }
}

/// The one way a counterexample leaves the process: prints its one-page
/// explanation, writes `results/WITNESS_<scenario>.json`, and prints the
/// `witness …` summary line (`key=value` tokens, so scripts parse it with
/// `split_whitespace` alone). Fails when the artifact cannot be written.
pub(crate) fn emit_witness(cx: &Counterexample, kind: CheckKind) -> io::Result<()> {
    println!("{}", cx.explanation);
    let path = cx.write_json(&results_dir())?;
    println!(
        "witness scenario={} kind={kind:?} category={} events_in={} events_out={} oracle_runs={} path={}",
        cx.scenario,
        cx.category,
        cx.original_events,
        cx.events.len(),
        cx.oracle_runs,
        path.display()
    );
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_cover_all_scenarios() {
        let names: Vec<&str> = TABLE1_REFERENCE.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 6);
        for r in TABLE1_REFERENCE {
            assert!(!r.rows.is_empty());
            assert!(r.cpu_ratio >= 1.0);
            assert!(
                vyrd_harness::scenarios::by_name(r.name).is_some(),
                "{} has no scenario",
                r.name
            );
        }
        for (name, ..) in TABLE2_REFERENCE {
            assert!(vyrd_harness::scenarios::by_name(name).is_some());
        }
        for (name, ..) in TABLE3_REFERENCE {
            assert!(vyrd_harness::scenarios::by_name(name).is_some());
        }
    }

    #[test]
    fn table1_paper_shape_view_never_later_than_io() {
        // The headline claim: view refinement detects no later (usually
        // far earlier) than I/O refinement — true in every paper row.
        for r in TABLE1_REFERENCE {
            for &(threads, io, view) in r.rows {
                assert!(view <= io, "{} at {threads} threads", r.name);
            }
        }
    }

    #[test]
    fn table2_paper_shape_view_logging_costs_at_least_io_logging() {
        for &(name, _prog, io, view) in TABLE2_REFERENCE {
            assert!(view >= io, "{name}");
        }
    }

    #[test]
    fn table3_paper_shape_costs_increase_with_checking() {
        for &(name, _t, _m, prog, logging, online, _offline) in TABLE3_REFERENCE {
            assert!(logging >= prog, "{name}");
            assert!(online >= logging, "{name}");
        }
    }

    #[test]
    fn configs_are_constructible_for_all_rows() {
        for r in TABLE1_REFERENCE {
            for &(threads, ..) in r.rows {
                let cfg = table_config(r.name, threads, 1);
                assert_eq!(cfg.threads, threads);
                assert!(cfg.total_calls() > 0);
            }
        }
    }
}
