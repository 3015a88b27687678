//! The environment header every artifact carries: a number without its
//! commit, core count, compiler, profile, seed and constants is not a
//! number anyone can compare.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Peak resident set of this process (`VmHWM`), MiB. 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_owned())
}

/// Commit, `nproc`, rustc, profile, seed, run length and the workload's
/// constants. The commit is `unknown` outside a git checkout (the driver
/// runs from an exported tree).
pub fn header(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    constants: &[(&'static str, String)],
) -> Json {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unknown = || "unknown".to_owned();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Ask git only when the checkout itself is a repository: from an
    // exported tree git would search the parent directories instead.
    let commit = here
        .join("../.git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], here))
        .flatten();
    Json::obj([
        ("workload", Json::str(workload)),
        ("commit", Json::Str(commit.unwrap_or_else(unknown))),
        ("nproc", Json::Int(nproc as u64)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"], here).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("smoke", Json::Bool(smoke)),
        (
            "constants",
            Json::obj(constants.iter().map(|(k, v)| (*k, Json::Str(v.clone())))),
        ),
    ])
}
