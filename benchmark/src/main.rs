//! `vyrd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! — runs one workload in this process and prints its result as the last
//! line of standard output. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use vyrd_benchmark::harness::{Ctx, RunConfig};
use vyrd_benchmark::names::WORKLOADS;
use vyrd_benchmark::{report, workloads};

/// The repository's CI seed.
const DEFAULT_SEED: u64 = 3_405_691_582;
/// The driver allows a run 180 s; past this a repetition has hung.
const HANG_AFTER: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn usage() -> String {
    format!(
        "usage: vyrd-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    if cfg.smoke && !seconds_given {
        cfg.seconds = 0.3;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, cfg })
}

/// Turns a hung repetition into an exit code instead of a hang.
fn watchdog(tmp: PathBuf) {
    std::thread::spawn(move || {
        std::thread::sleep(HANG_AFTER);
        eprintln!("vyrd-benchmark: still running after {HANG_AFTER:?}; giving up");
        let _ = std::fs::remove_dir_all(tmp);
        std::process::exit(3);
    });
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vyrd-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = out.join(format!("tmp-{}-{}", args.workload, std::process::id()));
    watchdog(tmp.clone());
    let mut ctx = match Ctx::new(args.cfg, tmp) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("vyrd-benchmark: cannot create {}: {e}", out.display());
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.traced),
        if args.cfg.smoke {
            " (smoke: numbers not judged)"
        } else {
            ""
        }
    );
    if !workloads::run(&args.workload, &mut ctx) {
        eprintln!(
            "vyrd-benchmark: no workload called {}\n{}",
            args.workload,
            usage()
        );
        return ExitCode::from(2);
    }

    let rows = if args.cfg.traced {
        report::per_layer(&ctx)
    } else {
        report::end_to_end(&ctx)
    };
    report::print_table(&rows, !args.cfg.smoke);
    for (name, unit, value) in &ctx.also {
        println!("also: {name} {value:.6} {unit}");
    }
    println!(
        "failed_share {} ({} of {} verdicts and events), {} repetitions, {} traced",
        ctx.gate.failed_share(),
        ctx.gate.failed,
        ctx.gate.attempted,
        ctx.get("rep.wall_s").len(),
        ctx.traced_reps
    );
    for miss in &ctx.gate.misses {
        println!("MISS {miss}");
    }
    if let Some(ratio) = ctx.layers.get("trace.overhead_ratio") {
        if *ratio > 1.05 {
            println!("WARNING trace.overhead_ratio {ratio:.3} breaches the 5 % tracing budget");
        }
    }

    let suffix = match (args.cfg.traced, args.cfg.smoke) {
        (false, false) => "",
        (true, false) => ".traced",
        (false, true) => ".smoke",
        (true, true) => ".traced.smoke",
    };
    let path = out.join(format!("{}{suffix}.json", args.workload));
    let artifact = report::artifact(&ctx, &args.workload, &rows);
    if let Err(e) = std::fs::write(&path, artifact.pretty()) {
        eprintln!("vyrd-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }

    let failed = ctx.gate.failed;
    let line = report::result_line(&ctx, &rows);
    drop(ctx);
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
