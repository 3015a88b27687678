//! `BENCHMARK.json` and the benchmark must name the same things: every
//! name in the manifest is well-formed and is emitted by a run, and every
//! name a run emits is in the manifest.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use vyrd_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS};

/// Every value of a `"name": "..."` pair inside the array under `key`.
fn names_under(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let array = &manifest[start..];
    let array = &array[..array.find(']').expect("the array closes")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = rest
                .trim_start()
                .strip_prefix(':')
                .expect("a colon after \"name\"");
            let rest = rest.trim_start().strip_prefix('"').expect("a string value");
            rest[..rest.find('"').expect("the string closes")].to_owned()
        })
        .collect()
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn manifest_names_are_well_formed_and_match_the_code() {
    let manifest = manifest();
    let sections: [(&str, Vec<&str>); 3] = [
        ("workloads", WORKLOADS.to_vec()),
        ("end_to_end", END_TO_END.iter().map(|m| m.0).collect()),
        ("per_layer", PER_LAYER.iter().map(|m| m.0).collect()),
    ];
    let mut seen = BTreeSet::new();
    for (key, in_code) in sections {
        let in_manifest = names_under(&manifest, key);
        for name in &in_manifest {
            assert!(well_formed(name), "{key}: {name:?} is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        assert_eq!(
            in_manifest, in_code,
            "{key} differs between BENCHMARK.json and names.rs"
        );
    }
}

#[test]
fn manifest_bounds_match_the_code() {
    let manifest = manifest();
    for (name, unit, bound) in END_TO_END {
        let entry = &manifest[manifest.find(&format!("\"{name}\"")).expect(name)..];
        let entry = &entry[..entry.find('}').expect("the entry closes")];
        assert!(
            entry.contains(&format!("\"unit\": \"{unit}\"")),
            "{name}: unit in {entry}"
        );
        assert!(
            entry.contains(&format!("\"bound\": {bound}")),
            "{name}: bound in {entry}"
        );
        assert!(bound <= 0.25, "{name}: bound above the contract's cap");
    }
}

/// The `metrics` keys of a run's last output line.
fn emitted(workload: &str, trace: &str) -> BTreeSet<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_vyrd-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--trace",
            trace,
            "--seed",
            "7",
        ])
        .output()
        .expect("run the benchmark");
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{",
    ] {
        assert!(
            line.contains(key),
            "{workload}: result line lacks {key}: {line}"
        );
    }
    let metrics = &line[line.find("\"metrics\":{").expect("metrics") + 11..];
    metrics
        .split("\":{\"value\":")
        .filter_map(|part| part.rsplit('"').next())
        .filter(|name| well_formed(name))
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_workload_emits_every_manifest_metric() {
    let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|m| m.0.to_owned()).collect();
    for workload in WORKLOADS {
        assert_eq!(emitted(workload, "0"), end_to_end, "{workload} --trace 0");
        assert_eq!(emitted(workload, "1"), per_layer, "{workload} --trace 1");
    }
}
