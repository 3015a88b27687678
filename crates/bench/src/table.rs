//! `vyrd table 1|2|3` — regenerates the paper's evaluation tables (§7).
//! `--quick` shrinks repetition counts so a table prints in seconds;
//! `--seed N` reseeds the workloads.

use std::process::ExitCode;
use std::time::Duration;

use vyrd_core::log::LogMode;
use vyrd_core::pool::SupervisorConfig;
use vyrd_core::shard::ShardConfig;
use vyrd_harness::detect::measure_detection;
use vyrd_harness::measure::{timed, Aggregate};
use vyrd_harness::scenario::{
    record_run, run_discarding, run_online, run_online_sharded_with, CheckKind, Variant,
};
use vyrd_harness::scenarios;
use vyrd_harness::tables::TextTable;
use vyrd_harness::workload::WorkloadConfig;

use crate::cli::{Args, QUICK, SEED};
use crate::{table_config, TABLE1_REFERENCE, TABLE2_REFERENCE, TABLE3_REFERENCE};

pub(crate) fn run(args: &Args) -> ExitCode {
    let (quick, seed) = (args.given(&QUICK), args.get(&SEED));
    let (title, table): (&str, fn(bool, u64)) = match args.mode {
        "1" => (
            "Table 1: Time to detection of error\n\
             (methods executed before first detection; paper values in parentheses)",
            table1,
        ),
        "2" => (
            "Table 2: Overhead of logging (seconds; paper values in parentheses)",
            table2,
        ),
        _ => (
            "Table 3: Running time breakdown (seconds; paper values in parentheses)",
            table3,
        ),
    };
    println!("{title}");
    println!("workload seed: {seed} (replay with --seed {seed})\n");
    table(quick, seed);
    ExitCode::SUCCESS
}

/// **Table 1 — Time to detection of error.** For every benchmark system
/// and thread count the paper lists, drives the buggy variant with the
/// §7.1 workload, checks each recorded trace with both I/O and view
/// refinement, and reports the average number of completed method
/// executions before each technique first detected the bug, plus the
/// view/I-O checking-time ratio on the same traces.
fn table1(quick: bool, seed: u64) {
    let (repetitions, max_runs) = if quick { (2, 30) } else { (5, 120) };
    let fmt_opt = |v: Option<f64>| v.map_or("n/a".to_owned(), |x| format!("{x:.0}"));

    let mut table = TextTable::new([
        "Implementation",
        "Bug",
        "#Thrd",
        "I/O Ref. (paper)",
        "View Ref. (paper)",
        "View/IO CPU (paper)",
    ]);
    for reference in TABLE1_REFERENCE {
        let scenario = scenarios::by_name(reference.name).expect("known scenario");
        // Measure at a representative subset of the paper's thread counts
        // in quick mode, all of them otherwise.
        let rows = if quick { 2 } else { reference.rows.len() };
        for &(threads, paper_io, paper_view) in reference.rows.iter().take(rows) {
            let cfg = table_config(reference.name, threads, seed);
            let m = measure_detection(scenario.as_ref(), &cfg, repetitions, max_runs);
            let ratio = m.cpu_ratio().map_or("-".to_owned(), |r| format!("{r:.2}"));
            table.row([
                reference.name.to_owned(),
                scenario.bug().to_owned(),
                threads.to_string(),
                format!("{} ({paper_io})", fmt_opt(m.io_methods)),
                format!("{} ({paper_view})", fmt_opt(m.view_methods)),
                format!("{ratio} ({:.2})", reference.cpu_ratio),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Shape check: view refinement should detect no later (usually much\n\
         earlier) than I/O refinement, except for the Vector row whose bug\n\
         lives in an observer (the paper's own observation)."
    );
}

/// **Table 2 — Overhead of logging.** Runs each (correct) benchmark
/// program three times with identical workloads: with logging off
/// ("Program"), with call/return/commit logging (I/O refinement level),
/// and with additional shared-variable write logging (view refinement
/// level). Reports the run time and the logging *overheads* relative to
/// the unlogged run, which is exactly what the paper's columns contain.
fn table2(quick: bool, seed: u64) {
    let (threads, repeats, scale) = if quick { (4, 2, 4) } else { (8, 3, 60) };

    let mut table = TextTable::new([
        "Implementation",
        "Program (paper)",
        "I/O Ref. overhead (paper)",
        "View Ref. overhead (paper)",
        "events io/view",
    ]);
    for &(name, p_prog, p_io, p_view) in TABLE2_REFERENCE {
        let scenario = scenarios::by_name(name).expect("known scenario");
        let mut cfg = table_config(name, threads, seed);
        cfg.calls_per_thread *= scale;
        let mut prog = Aggregate::new();
        let mut io = Aggregate::new();
        let mut view = Aggregate::new();
        let mut io_events = 0;
        let mut view_events = 0;
        for rep in 0..repeats {
            let cfg = cfg.with_seed(seed ^ (rep as u64) << 32);
            let (d, _) = run_discarding(scenario.as_ref(), &cfg, LogMode::Off, Variant::Correct);
            prog.add_duration(d);
            let (d, stats) = run_discarding(scenario.as_ref(), &cfg, LogMode::Io, Variant::Correct);
            io.add_duration(d);
            io_events = stats.events;
            let (d, stats) =
                run_discarding(scenario.as_ref(), &cfg, LogMode::View, Variant::Correct);
            view.add_duration(d);
            view_events = stats.events;
        }
        let overhead = |mode: &Aggregate| -> Duration {
            Duration::from_secs_f64((mode.mean() - prog.mean()).max(0.0))
        };
        table.row([
            name.to_owned(),
            format!("{:.3} ({p_prog})", prog.mean()),
            format!("{:.3} ({p_io})", overhead(&io).as_secs_f64()),
            format!("{:.3} ({p_view})", overhead(&view).as_secs_f64()),
            format!("{io_events}/{view_events}"),
        ]);
    }
    println!("{table}");
    println!(
        "Shape check: view-level logging costs at least as much as I/O-level\n\
         logging, with the largest gaps for the write-heavy rows\n\
         (Multiset-Vector, Cache) — §7.6."
    );
}

/// Instances (= log shards = pool workers) for Table 3's sharded-online
/// column.
const SHARD_OBJECTS: u32 = 4;

/// **Table 3 — Running time breakdown.** For the four systems the paper
/// lists (with their thread/method counts), measures:
///
/// * **Prog. alone** — workload with logging off;
/// * **Prog. + logging** — workload with view-level logging to a
///   discarding sink;
/// * **Prog. + logging and VYRD** — workload with the online verification
///   thread consuming the log concurrently (§4.2);
/// * **VYRD alone (off-line)** — checking a pre-recorded log of the same
///   workload;
/// * **Sharded online** — the multi-object variant of the workload
///   (where the scenario has one) verified by a `VerifierPool`, one
///   checker per object over its own log shard (§8). No paper value:
///   the column is new, and its workload spreads the same number of
///   calls over `SHARD_OBJECTS` independent instances.
fn table3(quick: bool, seed: u64) {
    let (repeats, scale) = if quick { (2, 4) } else { (3, 60) };

    let mut table = TextTable::new([
        "Program",
        "#Thrd/#Mthd",
        "Prog. alone (paper)",
        "Prog.+logging (paper)",
        "Prog.+logging and VYRD (paper)",
        "VYRD alone, off-line (paper)",
        "Sharded online (K=4)",
    ]);
    for &(name, threads, methods, p_prog, p_log, p_online, p_offline) in TABLE3_REFERENCE {
        let scenario = scenarios::by_name(name).expect("known scenario");
        let calls = methods * scale / threads.max(1);
        let cfg = WorkloadConfig {
            threads,
            calls_per_thread: calls.max(1),
            key_pool: 16,
            shrink_pool: true,
            internal_task: matches!(name, "BLinkTree" | "Cache" | "Multiset-Vector"),
            seed,
            pace: None,
        };
        let mut prog = Aggregate::new();
        let mut logging = Aggregate::new();
        let mut online = Aggregate::new();
        let mut offline = Aggregate::new();
        let mut sharded = Aggregate::new();
        let mut sharded_supported = false;
        for rep in 0..repeats {
            let cfg = cfg.with_seed(seed ^ (rep as u64) << 24);
            let (d, _) = run_discarding(scenario.as_ref(), &cfg, LogMode::Off, Variant::Correct);
            prog.add_duration(d);
            let (d, _) = run_discarding(scenario.as_ref(), &cfg, LogMode::View, Variant::Correct);
            logging.add_duration(d);
            let (d, report) =
                run_online(scenario.as_ref(), &cfg, CheckKind::View, Variant::Correct);
            assert!(report.passed(), "{name} online: {report}");
            online.add_duration(d);
            let artifacts = record_run(scenario.as_ref(), &cfg, LogMode::View, Variant::Correct);
            let (report, d) = timed(|| scenario.check(CheckKind::View, artifacts.events));
            assert!(report.passed(), "{name} offline: {report}");
            offline.add_duration(d);
            if let Some((d, report)) = run_online_sharded_with(
                scenario.as_ref(),
                &cfg,
                CheckKind::View,
                Variant::Correct,
                SHARD_OBJECTS,
                SHARD_OBJECTS as usize,
                ShardConfig::default(),
                SupervisorConfig::default(),
            ) {
                assert!(
                    report.merged.passed(),
                    "{name} sharded online: {}",
                    report.merged
                );
                sharded.add_duration(d);
                sharded_supported = true;
            }
        }
        table.row([
            name.to_owned(),
            format!("{threads}/{}", threads * cfg.calls_per_thread),
            format!("{:.3} ({p_prog})", prog.mean()),
            format!("{:.3} ({p_log})", logging.mean()),
            format!("{:.3} ({p_online})", online.mean()),
            format!("{:.3} ({p_offline})", offline.mean()),
            if sharded_supported {
                format!("{:.3}", sharded.mean())
            } else {
                "—".to_owned()
            },
        ]);
    }
    println!("{table}");
    println!(
        "Shape check: logging adds modest overhead over the bare program;\n\
         running the online verifier costs more; the offline check is of\n\
         the same order as the program run (§7.6). The sharded column runs\n\
         the multi-object workload ({SHARD_OBJECTS} instances) with one\n\
         verifier per object log (§8); '—' marks rows without a\n\
         multi-object mode.\n\
         Note: the Cache row's offline check lands well below the program\n\
         run. The workload's wall time there is dominated by the flusher\n\
         thread's sleep cadence (scheduling, not CPU work), which the\n\
         offline checker does not pay — the paper's 2005 setup had no\n\
         such sleep-paced maintenance thread."
    );
}
