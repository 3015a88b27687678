//! The `vyrd` command line: every flag is declared once (a [`Flag`]
//! constant: spelling, value type with allowed range, help line), every
//! subcommand is a row of [`COMMANDS`] listing the flags it accepts with
//! its own defaults, and parsing, range checking, the usage line and the
//! help text are all derived from those two tables.
//!
//! Input is validated here, before anything runs: a value outside its
//! flag's range is reported with the flag, the value and the range, and
//! the process exits 2.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use vyrd_harness::scenario::{CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;

/// The fault matrix's CI seed: the default seed of every subcommand but
/// `table`, and the seed the gate tests pin, so runs replay the same
/// workload schedule.
pub const CI_SEED: u64 = 3_405_691_582;

/// What a flag's value is and which values are allowed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ty {
    /// Takes no value; present = on.
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A positive, finite number of seconds that fits a [`Duration`].
    Secs,
    /// Free text (a name or a path), with its placeholder in usage lines.
    Text(&'static str),
    /// `io|view|lin`, via [`CheckKind`]'s `FromStr`.
    Kind,
    /// `correct|buggy`, via [`Variant`]'s `FromStr`.
    Variant,
}

/// One flag. Subcommands share these definitions and differ only in
/// defaults.
#[derive(Debug)]
pub struct Flag {
    /// The spelling, dashes included.
    pub name: &'static str,
    /// Value type and allowed range.
    pub ty: Ty,
    /// One help line.
    pub help: &'static str,
}

impl Flag {
    /// `--flag PLACEHOLDER`, as usage and help lines spell it.
    fn spelled(&self) -> String {
        format!("{} {}", self.name, self.ty.metavar())
            .trim_end()
            .to_owned()
    }
}

/// A subcommand's default for a flag, spelled as the command line would.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Preset {
    /// No default: a switch that is off, or a flag to ask [`Args::given`]
    /// about.
    None,
    /// An integer (or whole seconds).
    Int(u64),
    /// Text, a kind or a variant.
    Text(&'static str),
}

/// Sizes an allocation, a thread pool or a channel: at least one, and
/// small enough for every integer type it lands in.
const COUNT: Ty = Ty::Int(1, u32::MAX as u64);
/// A count where zero is meaningful (no calls, no gate).
const COUNT0: Ty = Ty::Int(0, u32::MAX as u64);
const ANY: Ty = Ty::Int(0, u64::MAX);

#[allow(missing_docs)] // each constant's help line is its documentation
mod flags {
    use super::{Flag, Ty, ANY, COUNT, COUNT0};

    pub const SCENARIO: Flag = Flag {
        name: "--scenario",
        ty: Ty::Text("NAME"),
        help: "scenario row label, e.g. Cache (soak: or `all`)",
    };
    pub const KIND: Flag = Flag {
        name: "--kind",
        ty: Ty::Kind,
        help: "refinement check to run",
    };
    pub const VARIANT: Flag = Flag {
        name: "--variant",
        ty: Ty::Variant,
        help: "the correct implementation or the seeded bug",
    };
    pub const SEED: Flag = Flag {
        name: "--seed",
        ty: ANY,
        help: "workload RNG seed",
    };
    pub const THREADS: Flag = Flag {
        name: "--threads",
        ty: COUNT,
        help: "workload threads",
    };
    pub const CALLS: Flag = Flag {
        name: "--calls",
        ty: COUNT0,
        help: "closed-loop calls per thread (ignored once a run is paced)",
    };
    pub const RATE: Flag = Flag {
        name: "--rate",
        ty: ANY,
        help: "open-loop calls/s, 0 = flat-out (continuous: giving it paces the run)",
    };
    pub const DURATION: Flag = Flag {
        name: "--duration",
        ty: Ty::Secs,
        help: "open-loop run length (continuous: giving it paces the run)",
    };
    pub const WITNESS: Flag = Flag {
        name: "--witness",
        ty: Ty::Switch,
        help: "on a FAIL, minimize + explain it into results/WITNESS_*.json",
    };
    pub const QUICK: Flag = Flag {
        name: "--quick",
        ty: Ty::Switch,
        help: "fewer repetitions, smaller workloads: seconds, not minutes",
    };
    pub const DIR: Flag = Flag {
        name: "--dir",
        ty: Ty::Text("DIR"),
        help: "segment directory [default: $TMPDIR/vyrd-continuous-<pid>]",
    };
    pub const SEGMENT_BYTES: Flag = Flag {
        name: "--segment-bytes",
        ty: ANY,
        help: "seal a segment once it holds this many bytes",
    };
    pub const CHECKPOINT_EVERY: Flag = Flag {
        name: "--checkpoint-every",
        ty: ANY,
        help: "checkpoint after this many checked segments",
    };
    pub const JSON: Flag = Flag {
        name: "--json",
        ty: Ty::Text("PATH"),
        help: "resume: also write the outcome as JSON to PATH",
    };
    pub const OBJECTS: Flag = Flag {
        name: "--objects",
        ty: COUNT,
        help: "data-structure instances (= log shards)",
    };
    pub const WORKERS: Flag = Flag {
        name: "--workers",
        ty: COUNT,
        help: "verifier pool threads",
    };
    pub const CAPACITY: Flag = Flag {
        name: "--capacity",
        ty: COUNT,
        help: "per-shard channel capacity, events",
    };
    pub const SMOKE: Flag = Flag {
        name: "--smoke",
        ty: Ty::Switch,
        help: "the pinned-seed CI saturation check (results/SOAK_smoke.json)",
    };
    pub const RUNS: Flag = Flag {
        name: "--runs",
        ty: COUNT0,
        help: "seeds to walk looking for a failing trace",
    };
    pub const MAX_EVENTS: Flag = Flag {
        name: "--max-events",
        ty: COUNT0,
        help: "fail if the minimized witness has more events (0 = no gate)",
    };
    pub const MIN_LOG: Flag = Flag {
        name: "--min-log",
        ty: COUNT0,
        help: "fail if the originating log had fewer events (0 = no gate)",
    };
}
pub use flags::*;

/// One subcommand: its positional modes, the flags it accepts with its
/// own defaults, and its entry point.
#[derive(Debug)]
pub struct Command {
    /// The subcommand word.
    pub name: &'static str,
    /// Allowed values of the positional argument after the subcommand
    /// (empty = none expected).
    pub modes: &'static [&'static str],
    /// One-line description.
    pub about: &'static str,
    /// Accepted flags and this subcommand's defaults.
    pub flags: &'static [(&'static Flag, Preset)],
    run: fn(&Args) -> ExitCode,
}

use Preset::{Int, Text};

/// Every subcommand of `vyrd`.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "table",
        modes: &["1", "2", "3"],
        about: "regenerate the paper's Table 1 (time to detection), 2 (logging overhead) or 3 \
                (running-time breakdown)",
        flags: &[(&QUICK, Preset::None), (&SEED, Int(0xC0FFEE))],
        run: crate::table::run,
    },
    Command {
        name: "stats",
        modes: &[],
        about: "a sharded online run with metrics and trace spans on: print the snapshot, export \
                it (results/METRICS_smoke.json)",
        flags: &[(&SEED, Int(CI_SEED))],
        run: crate::stats::run,
    },
    Command {
        name: "continuous",
        modes: &["produce", "resume", "single"],
        about: "the durable segmented log + checkpointed verifier: produce into a segment \
                directory, resume one after a kill, or check single-process for reference",
        flags: &[
            (&DIR, Preset::None),
            (&SCENARIO, Text("Multiset-Vector")),
            (&KIND, Text("io")),
            (&VARIANT, Text("correct")),
            (&SEED, Int(CI_SEED)),
            (&THREADS, Int(4)),
            (&CALLS, Int(2_000)),
            (&SEGMENT_BYTES, Int(4_096)),
            (&CHECKPOINT_EVERY, Int(1)),
            (&RATE, Int(0)),
            (&DURATION, Int(2)),
            (&JSON, Preset::None),
            (&WITNESS, Preset::None),
        ],
        run: crate::continuous::run,
    },
    Command {
        name: "soak",
        modes: &[],
        about: "open-loop soak through the shedding sharded pipeline: 20 ms shed \
                timeout, 64-shed budget, 250 ms watchdog (results/SOAK_<scenario>.json)",
        flags: &[
            (&SCENARIO, Text("Multiset-Vector")),
            (&KIND, Text("view")),
            (&VARIANT, Text("correct")),
            (&RATE, Int(50_000)),
            (&DURATION, Int(10)),
            (&OBJECTS, Int(4)),
            (&WORKERS, Int(4)),
            (&CAPACITY, Int(1024)),
            (&THREADS, Int(8)),
            (&SEED, Int(CI_SEED)),
            (&SMOKE, Preset::None),
            (&WITNESS, Preset::None),
        ],
        run: crate::soak::run,
    },
    Command {
        name: "witness",
        modes: &[],
        about: "record a seeded bug, minimize + explain it (results/WITNESS_<scenario>.json)",
        flags: &[
            (&SCENARIO, Text("Vector")),
            (&KIND, Text("view")),
            (&SEED, Int(CI_SEED)),
            (&THREADS, Int(4)),
            (&CALLS, Int(200)),
            (&RUNS, Int(60)),
            (&MAX_EVENTS, Int(0)),
            (&MIN_LOG, Int(0)),
        ],
        run: crate::witness::run,
    },
];

impl Ty {
    /// The value placeholder in usage and help lines.
    fn metavar(self) -> &'static str {
        match self {
            Ty::Switch => "",
            Ty::Int(..) => "N",
            Ty::Secs => "SECS",
            Ty::Text(placeholder) => placeholder,
            Ty::Kind => "io|view|lin",
            Ty::Variant => "correct|buggy",
        }
    }

    /// The allowed numeric range as text, when there is one.
    fn range(self) -> Option<String> {
        match self {
            Ty::Int(0, u64::MAX) => None,
            Ty::Int(min, max) => Some(format!("{min}..={max}")),
            Ty::Secs => Some("> 0".to_owned()),
            _ => None,
        }
    }

    /// Is `raw` a value of this type, inside its range?
    pub fn accepts(self, raw: &str) -> bool {
        match self {
            Ty::Switch => false,
            Ty::Int(min, max) => raw.parse().is_ok_and(|n: u64| (min..=max).contains(&n)),
            Ty::Secs => raw
                .parse()
                .is_ok_and(|s: f64| s > 0.0 && Duration::try_from_secs_f64(s).is_ok()),
            Ty::Text(_) => true,
            Ty::Kind => raw.parse::<CheckKind>().is_ok(),
            Ty::Variant => raw.parse::<Variant>().is_ok(),
        }
    }
}

impl Command {
    /// The subcommand word with its positional modes: `table 1|2|3`.
    fn synopsis(&self) -> String {
        format!("{} {}", self.name, self.modes.join("|"))
            .trim_end()
            .to_owned()
    }

    /// The one-line usage text.
    pub fn usage(&self) -> String {
        let flags: Vec<String> = self
            .flags
            .iter()
            .map(|(f, _)| format!("[{}]", f.spelled()))
            .collect();
        format!("usage: vyrd {} {}", self.synopsis(), flags.join(" "))
    }

    /// The help text: synopsis, description, then one line per flag with
    /// its allowed range and this subcommand's default.
    pub fn help(&self) -> String {
        let mut out = format!("vyrd {} [flags]\n    {}\n", self.synopsis(), self.about);
        for (flag, default) in self.flags {
            out += &format!("  {:<26} {}", flag.spelled(), flag.help);
            if let Some(range) = flag.ty.range() {
                out += &format!(" [{range}]");
            }
            match default {
                Preset::None => {}
                Int(n) => out += &format!(" [default: {n}]"),
                Text(s) => out += &format!(" [default: {s}]"),
            }
            out.push('\n');
        }
        out
    }
}

/// The whole CLI reference (`vyrd help`): every subcommand's help.
pub fn help() -> String {
    let synopses: Vec<String> = COMMANDS.iter().map(Command::synopsis).collect();
    let mut out = format!(
        "vyrd — the VYRD reproduction's experiment drivers\n\n\
         usage: vyrd <{}> [flags]\n\
         \x20      vyrd help | vyrd <subcommand> --help\n",
        synopses.join(" | ")
    );
    for command in COMMANDS {
        out += &format!("\n{}", command.help());
    }
    out
}

/// Why parsing did not produce [`Args`].
#[derive(Debug, PartialEq)]
pub enum Exit {
    /// Help was asked for: print to stdout, exit 0.
    Help(String),
    /// The command line is wrong: print to stderr, exit 2.
    Usage(String),
}

/// A validated command line: the subcommand, its positional mode, and the
/// flags that were given (everything else reads its default).
#[derive(Debug)]
pub struct Args {
    /// The subcommand.
    pub command: &'static Command,
    /// The positional mode (`""` for subcommands without one).
    pub mode: &'static str,
    given: Vec<(&'static str, String)>,
}

/// Parses a command line (program name already stripped).
///
/// # Errors
///
/// [`Exit::Help`] for `help`/`--help`; [`Exit::Usage`] naming the
/// offending word for an unknown subcommand, mode or flag, a missing
/// value, or a value outside its flag's range.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, Exit> {
    let args: Vec<String> = args.into_iter().collect();
    let wants_help = args.iter().any(|word| word == "--help");
    let mut args = args.into_iter();
    let word = args.next().ok_or_else(|| Exit::Usage(help()))?;
    let Some(command) = COMMANDS.iter().find(|c| c.name == word) else {
        return Err(match word.as_str() {
            "help" | "--help" => Exit::Help(help()),
            _ => Exit::Usage(format!("unknown subcommand {word:?}\n\n{}", help())),
        });
    };
    if wants_help {
        return Err(Exit::Help(command.help()));
    }
    let usage = |msg: String| Exit::Usage(format!("{msg}\n{}", command.usage()));
    let mut parsed = Args {
        command,
        mode: "",
        given: Vec::new(),
    };
    if !command.modes.is_empty() {
        let mode = args.next().unwrap_or_default();
        let expected = || {
            usage(format!(
                "expected {}, got {mode:?}",
                command.modes.join("|")
            ))
        };
        parsed.mode = command
            .modes
            .iter()
            .find(|m| **m == mode)
            .ok_or_else(expected)?;
    }
    while let Some(word) = args.next() {
        let (flag, _) = command
            .flags
            .iter()
            .find(|(f, _)| f.name == word)
            .ok_or_else(|| usage(format!("unknown argument {word:?}")))?;
        let mut raw = String::new();
        if flag.ty != Ty::Switch {
            raw = args
                .next()
                .ok_or_else(|| usage(format!("{word} needs a value")))?;
            if !flag.ty.accepts(&raw) {
                let allowed = flag
                    .ty
                    .range()
                    .unwrap_or_else(|| flag.ty.metavar().to_owned());
                return Err(usage(format!("{word} {raw}: allowed: {allowed}")));
            }
        }
        parsed.given.push((flag.name, raw));
    }
    Ok(parsed)
}

/// Runs a command line to an exit code: parse, then dispatch.
pub fn run(args: impl IntoIterator<Item = String>) -> ExitCode {
    match parse(args) {
        Ok(args) => (args.command.run)(&args),
        Err(Exit::Help(text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(Exit::Usage(text)) => {
            eprintln!("{}", text.trim_end());
            ExitCode::from(2)
        }
    }
}

impl Args {
    /// Was `flag` given on the command line (as opposed to defaulted)?
    /// For a switch: is it on?
    pub fn given(&self, flag: &Flag) -> bool {
        self.given.iter().any(|(name, _)| *name == flag.name)
    }

    /// The value of `flag` — the last one given, else this subcommand's
    /// default — as the type it lands in: an integer type, `f64` seconds,
    /// `String`/`PathBuf`, [`CheckKind`] or [`Variant`].
    ///
    /// # Panics
    ///
    /// When the subcommand declares no value for `flag` or `T` is not the
    /// flag's type — bugs in [`COMMANDS`] or the caller, not in the input
    /// (which [`parse`] validated).
    pub fn get<T: FromStr>(&self, flag: &Flag) -> T {
        let given = self.given.iter().rev().find(|(name, _)| *name == flag.name);
        let raw = match (
            given,
            self.command.flags.iter().find(|(f, _)| f.name == flag.name),
        ) {
            (Some((_, raw)), _) => raw.clone(),
            (None, Some((_, Int(n)))) => n.to_string(),
            (None, Some((_, Text(s)))) => (*s).to_owned(),
            _ => panic!("{} declares no value for {}", self.command.name, flag.name),
        };
        raw.parse()
            .unwrap_or_else(|_| panic!("{} {raw} is not the type asked for", flag.name))
    }

    /// Looks `--scenario` up in the registry. An unknown name is reported
    /// here; the caller exits 2.
    pub fn scenario(&self) -> Option<Box<dyn Scenario>> {
        let name: String = self.get(&SCENARIO);
        let found = scenarios::by_name(&name);
        if found.is_none() {
            eprintln!("{}: unknown scenario {name:?}", self.command.name);
        }
        found
    }
}
