//! What the tests that run the `vyrd` binary share: a scratch directory
//! and a reader for the line-per-key JSON the binary writes.

#![allow(dead_code)] // each test binary uses its own subset

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty scratch directory, unique to this test process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vyrd-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `vyrd <args>` with its artifacts redirected into `out`, and
/// asserts it exited 0.
pub fn vyrd_into(out: &PathBuf, args: &[&str]) -> Output {
    let run = Command::new(env!("CARGO_BIN_EXE_vyrd"))
        .args(args)
        .env("VYRD_BENCH_DIR", out)
        .output()
        .expect("spawn vyrd");
    assert!(
        run.status.success(),
        "vyrd {args:?} exited {:?}\nstdout:\n{}\nstderr:\n{}",
        run.status.code(),
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    run
}

/// Every value of `"key": value` in `doc`, nested objects included, in
/// document order; a string value comes back without its quotes.
pub fn json_values<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": ");
    doc.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &doc[at + needle.len()..];
            match rest.strip_prefix('"') {
                Some(text) => &text[..text.find('"').unwrap_or(text.len())],
                None => rest[..rest.find([',', '\n', '}', ']']).unwrap_or(rest.len())].trim(),
            }
        })
        .collect()
}

/// The one numeric `"key"` of `doc`.
pub fn json_u64(doc: &str, key: &str) -> u64 {
    match json_values(doc, key)[..] {
        [value] => value
            .parse()
            .unwrap_or_else(|_| panic!("{key}: {value} is not a count")),
        ref all => panic!("{key}: expected one value, found {all:?} in:\n{doc}"),
    }
}
