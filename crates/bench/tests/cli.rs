//! The `vyrd` flag table: every subcommand parses what its parent binary
//! parsed, with the parent's defaults, and rejects everything else with
//! exit status 2 before anything runs.

mod common;

use std::process::Command as Process;

use vyrd_bench::cli::{self, Args, Exit, Flag, Preset, Ty, COMMANDS};
use vyrd_harness::scenario::{CheckKind, Variant};

fn parse(words: &[&str]) -> Result<Args, Exit> {
    cli::parse(words.iter().map(|w| (*w).to_owned()))
}

/// `command` plus its first positional mode, when it takes one.
fn invocation(command: &cli::Command) -> Vec<&'static str> {
    let mut words = vec![command.name];
    words.extend(command.modes.first());
    words
}

fn usage_error(words: &[&str]) -> String {
    match parse(words) {
        Err(Exit::Usage(text)) => text,
        other => panic!("{words:?} should be a usage error, got {other:?}"),
    }
}

/// A value inside `ty`'s range that differs from every default.
fn sample(ty: Ty) -> &'static str {
    match ty {
        Ty::Switch => "",
        Ty::Int(..) => "7",
        Ty::Secs => "0.25",
        Ty::Text(_) => "Some-Name",
        Ty::Kind => "lin",
        Ty::Variant => "buggy",
    }
}

#[test]
fn every_flag_of_every_subcommand_round_trips() {
    for command in COMMANDS {
        for (flag, _) in command.flags {
            let mut words = invocation(command);
            words.push(flag.name);
            if flag.ty != Ty::Switch {
                words.push(sample(flag.ty));
            }
            let args = parse(&words).unwrap_or_else(|e| panic!("{words:?}: {e:?}"));
            assert!(args.given(flag), "{words:?}");
            match flag.ty {
                Ty::Switch => {}
                Ty::Int(..) => assert_eq!(args.get::<u64>(flag), 7, "{words:?}"),
                Ty::Secs => assert_eq!(args.get::<f64>(flag), 0.25, "{words:?}"),
                Ty::Text(_) => assert_eq!(args.get::<String>(flag), "Some-Name", "{words:?}"),
                Ty::Kind => assert_eq!(args.get::<CheckKind>(flag), CheckKind::Lin, "{words:?}"),
                Ty::Variant => assert_eq!(args.get::<Variant>(flag), Variant::Buggy, "{words:?}"),
            }
        }
    }
}

#[test]
fn every_default_is_a_value_of_its_flag() {
    for command in COMMANDS {
        let args = parse(&invocation(command)).expect("bare invocation parses");
        for (flag, preset) in command.flags {
            assert!(!args.given(flag), "{} {}", command.name, flag.name);
            let spelled = match preset {
                Preset::None => continue,
                Preset::Int(n) => n.to_string(),
                Preset::Text(s) => (*s).to_owned(),
            };
            assert!(
                flag.ty.accepts(&spelled),
                "{} {} {spelled}",
                command.name,
                flag.name
            );
        }
    }
}

/// The constants the seven parent binaries hard-coded.
#[test]
fn defaults_are_the_parent_binaries() {
    use cli::{
        CALLS, CAPACITY, CHECKPOINT_EVERY, DIR, DURATION, JSON, KIND, MAX_EVENTS, MIN_LOG, OBJECTS,
        QUICK, RATE, RUNS, SCENARIO, SEED, SEGMENT_BYTES, THREADS, VARIANT, WITNESS, WORKERS,
    };
    const CI: u64 = 3405691582;
    let int = |words: &[&str], flag: &Flag| parse(words).unwrap().get::<u64>(flag);
    let text = |words: &[&str], flag: &Flag| parse(words).unwrap().get::<String>(flag);

    assert_eq!(int(&["table", "1"], &SEED), 0xC0FFEE);
    assert!(!parse(&["table", "3"]).unwrap().given(&QUICK));
    // `stats` reads its seed from the command line alone: the default is
    // the CI seed whatever `$VYRD_FAULT_SEED` says (see
    // `stats_exports_the_snapshot_under_its_own_seed`).
    assert_eq!(int(&["stats"], &SEED), CI);

    let c = ["continuous", "produce"];
    assert_eq!(text(&c, &SCENARIO), "Multiset-Vector");
    assert_eq!(text(&c, &KIND), "io");
    assert_eq!(text(&c, &VARIANT), "correct");
    let expected = [
        (&SEED, CI),
        (&THREADS, 4),
        (&CALLS, 2000),
        (&SEGMENT_BYTES, 4096),
    ];
    for (flag, value) in expected
        .into_iter()
        .chain([(&CHECKPOINT_EVERY, 1), (&RATE, 0)])
    {
        assert_eq!(int(&c, flag), value, "continuous {}", flag.name);
    }
    assert_eq!(parse(&c).unwrap().get::<f64>(&DURATION), 2.0);
    for flag in [&DIR, &JSON, &WITNESS] {
        assert!(!parse(&c).unwrap().given(flag), "continuous {}", flag.name);
    }

    let s = ["soak"];
    assert_eq!(text(&s, &SCENARIO), "Multiset-Vector");
    assert_eq!(text(&s, &KIND), "view");
    assert_eq!(text(&s, &VARIANT), "correct");
    let expected = [
        (&RATE, 50_000),
        (&OBJECTS, 4),
        (&WORKERS, 4),
        (&CAPACITY, 1024),
    ];
    for (flag, value) in expected.into_iter().chain([(&THREADS, 8), (&SEED, CI)]) {
        assert_eq!(int(&s, flag), value, "soak {}", flag.name);
    }
    assert_eq!(parse(&s).unwrap().get::<f64>(&DURATION), 10.0);

    let w = ["witness"];
    assert_eq!(text(&w, &SCENARIO), "Vector");
    assert_eq!(text(&w, &KIND), "view");
    let expected = [(&SEED, CI), (&THREADS, 4), (&CALLS, 200), (&RUNS, 60)];
    for (flag, value) in expected
        .into_iter()
        .chain([(&MAX_EVENTS, 0), (&MIN_LOG, 0)])
    {
        assert_eq!(int(&w, flag), value, "witness {}", flag.name);
    }
}

/// The flag *sets* are the parent binaries' too: nothing added, nothing
/// lost.
#[test]
fn accepted_flags_are_the_parent_binaries() {
    let flags = |name: &str| -> Vec<&str> {
        let command = COMMANDS.iter().find(|c| c.name == name).expect(name);
        command.flags.iter().map(|(f, _)| f.name).collect()
    };
    assert_eq!(flags("table"), ["--quick", "--seed"]);
    assert_eq!(flags("stats"), ["--seed"]);
    assert_eq!(
        flags("continuous"),
        [
            "--dir",
            "--scenario",
            "--kind",
            "--variant",
            "--seed",
            "--threads",
            "--calls",
            "--segment-bytes",
            "--checkpoint-every",
            "--rate",
            "--duration",
            "--json",
            "--witness",
        ]
    );
    assert_eq!(
        flags("soak"),
        [
            "--scenario",
            "--kind",
            "--variant",
            "--rate",
            "--duration",
            "--objects",
            "--workers",
            "--capacity",
            "--threads",
            "--seed",
            "--smoke",
            "--witness",
        ]
    );
    assert_eq!(
        flags("witness"),
        [
            "--scenario",
            "--kind",
            "--seed",
            "--threads",
            "--calls",
            "--runs",
            "--max-events",
            "--min-log",
        ]
    );
}

#[test]
fn bad_input_is_a_usage_error_naming_the_offender() {
    for command in COMMANDS {
        let base = invocation(command);
        let with = |extra: &[&'static str]| [base.as_slice(), extra].concat();
        assert!(usage_error(&with(&["--frobnicate"])).contains("--frobnicate"));
        for (flag, _) in command.flags.iter().filter(|(f, _)| f.ty != Ty::Switch) {
            let missing = usage_error(&with(&[flag.name]));
            assert!(
                missing.contains(flag.name) && missing.contains("needs a value"),
                "{missing}"
            );
        }
        for (flag, _) in command
            .flags
            .iter()
            .filter(|(f, _)| !matches!(f.ty, Ty::Switch | Ty::Text(_)))
        {
            let rejected = usage_error(&with(&[flag.name, "-1"]));
            assert!(
                rejected.contains(flag.name) && rejected.contains("-1"),
                "{rejected}"
            );
        }
    }
    assert!(usage_error(&["frobnicate"]).contains("frobnicate"));
    assert!(usage_error(&["table", "4"]).contains("1|2|3"));
    assert!(usage_error(&["continuous"]).contains("produce|resume|single"));
    assert!(usage_error(&["continuous", "--dir", "x"]).contains("produce|resume|single"));
}

/// The ranges the parent binaries did not enforce (`--capacity 0` used to
/// panic inside the router; `--objects 4294967296` truncated to 0).
#[test]
fn out_of_range_values_name_flag_value_and_range() {
    for (flag, value, range) in [
        ("--capacity", "0", "1..=4294967295"),
        ("--objects", "0", "1..=4294967295"),
        ("--objects", "4294967296", "1..=4294967295"),
        ("--workers", "0", "1..=4294967295"),
        ("--threads", "0", "1..=4294967295"),
        ("--duration", "0", "> 0"),
        ("--duration", "inf", "> 0"),
        ("--duration", "1e300", "> 0"),
        ("--duration", "NaN", "> 0"),
    ] {
        let text = usage_error(&["soak", flag, value]);
        for part in [flag, value, range] {
            assert!(text.contains(part), "{flag} {value}: {text}");
        }
    }
    for (flag, value) in [("--duration", "0"), ("--threads", "0")] {
        assert!(usage_error(&["continuous", "single", flag, value]).contains(flag));
        assert!(usage_error(&["continuous", "produce", flag, value]).contains(flag));
    }
    assert!(usage_error(&["witness", "--threads", "0"]).contains("--threads"));
    // In range, at the edges.
    parse(&[
        "soak",
        "--objects",
        "4294967295",
        "--capacity",
        "1",
        "--rate",
        "0",
    ])
    .unwrap();
}

#[test]
fn help_lists_every_subcommand_and_is_the_readme_reference() {
    let Err(Exit::Help(all)) = parse(&["help"]) else {
        panic!("`vyrd help` is help")
    };
    for word in [
        "table 1|2|3",
        "stats",
        "continuous produce|resume|single",
        "soak",
        "witness",
    ] {
        assert!(
            all.contains(&format!("vyrd {word} [flags]")),
            "{word} missing from:\n{all}"
        );
    }
    for command in COMMANDS {
        let words = [invocation(command), vec!["--help"]].concat();
        let Err(Exit::Help(one)) = parse(&words) else {
            panic!("{words:?} is help")
        };
        assert!(
            all.contains(&one),
            "{} --help is a section of `vyrd help`",
            command.name
        );
        for (flag, _) in command.flags {
            assert!(one.contains(flag.name) && command.usage().contains(flag.name));
        }
    }
    assert!(
        !all.contains("VYRD_FAULT_SEED"),
        "no subcommand takes its seed from the environment:\n{all}"
    );
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md");
    assert!(
        readme.contains(all.trim_end()),
        "README's CLI reference is not `vyrd help`'s output"
    );
}

#[test]
fn the_binary_exits_2_on_usage_errors_and_0_on_help() {
    let vyrd = |args: &[&str]| {
        Process::new(env!("CARGO_BIN_EXE_vyrd"))
            .args(args)
            .output()
            .unwrap()
    };
    for args in [
        &[][..],
        &["frobnicate"],
        &["soak", "--capacity", "0"],
        &["soak", "--objects", "4294967296"],
        &["continuous", "single", "--duration", "0"],
        &["witness", "--scenario", "Nope"],
        &["continuous", "single", "--scenario", "all"],
        &["stats", "--seed"],
        &["table", "2", "--seed", "x"],
    ] {
        let out = vyrd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(!out.stderr.is_empty(), "{args:?} said nothing");
    }
    let out = vyrd(&["soak", "--capacity", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--capacity 0") && stderr.contains("1..="),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    for args in [&["help"][..], &["soak", "--help"], &["table", "--help"]] {
        let out = vyrd(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(!out.stdout.is_empty(), "{args:?}");
    }
}

/// `vyrd stats` exports the live run's snapshot and nothing else, under
/// `--seed` or the CI seed — never `$VYRD_FAULT_SEED`.
#[test]
fn stats_exports_the_snapshot_under_its_own_seed() {
    let out = common::scratch_dir("stats-export");
    for (args, seed) in [(&["stats"][..], "3405691582"), (&["stats", "--seed", "7"], "7")] {
        let run = Process::new(env!("CARGO_BIN_EXE_vyrd"))
            .args(args)
            .env("VYRD_FAULT_SEED", "11")
            .env("VYRD_BENCH_DIR", &out)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert_eq!(run.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.contains(&format!("(seed {seed})")), "{args:?}: {stdout}");
        assert!(stdout.contains("verdict: PASS"), "{args:?}: {stdout}");
        let names: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["METRICS_smoke.json"], "{args:?}");
        let doc = std::fs::read_to_string(out.join("METRICS_smoke.json")).unwrap();
        assert!(doc.contains("\"log.events_appended\""), "{doc}");
        assert!(doc.contains("\"span.call_to_return_ns\""), "{doc}");
    }
    std::fs::remove_dir_all(&out).ok();
}
