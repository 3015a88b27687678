//! `vyrd soak` — the open-loop soak harness for overload control.
//!
//! Unlike the closed-loop table drivers (which issue the next call only
//! after the previous one returns, so offered load self-throttles to
//! whatever the pipeline sustains), this subcommand offers load on a *fixed
//! arrival schedule*: `--rate` calls per second for `--duration`
//! seconds, released by [`OpBudget`]'s pacer whether or not the verifier
//! keeps up. Queue depth is therefore allowed to grow — which is the
//! point. Past saturation the shards' fixed `Shed` timeout and budget
//! bound each stall, the [`vyrd_core::Watchdog`] escalates stuck shards,
//! and the run must shed with exact accounting and end in a bounded-lag
//! DEGRADED PASS — never an unbounded queue, a deadlock, or a forged
//! verdict.
//!
//! Two modes:
//!
//! * **Soak** (default): one scenario (or `--scenario all`) driven
//!   through the shedding sharded pipeline at the offered rate. Prints
//!   offered vs sustained throughput and the p50/p95/p99/p99.9
//!   call→commit and call→return latencies from the span ring, and
//!   writes `results/SOAK_<scenario>.json`.
//! * **Smoke** (`--smoke`): a pinned-seed, seconds-long saturation run,
//!   gated by `tests/smoke_gates.rs`. A `pool.check` delay failpoint
//!   stalls one shard deterministically while the pacer keeps offering
//!   load, forcing that shard to shed. Writes `results/SOAK_smoke.json`
//!   and exits non-zero unless
//!   the metrics registry, the [`Degradation`] ledger, and the log's own
//!   counters reconcile exactly — and unless the correct variant stays
//!   non-FAIL while the buggy variant stays non-PASS.
//!
//! With `--witness`, a FAIL verdict additionally produces a minimized,
//! explained counterexample (`results/WITNESS_<scenario>.json`) — built
//! from a reconstructed closed-loop trace of the same seeded bug, since
//! the streaming pipeline retains no events.
//!
//! [`OpBudget`]: vyrd_harness::workload::OpBudget
//! [`Degradation`]: vyrd_core::violation::Degradation

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use vyrd_core::pool::SupervisorConfig;
use vyrd_core::shard::ShardConfig;
use vyrd_core::violation::{Degradation, ShedWindow, Verdict, WatchdogAction};
use vyrd_core::ObjectId;
use vyrd_harness::scenario::{
    reconstruct_witness, run_soak, CheckKind, Scenario, SoakArtifacts, Variant,
};
use vyrd_harness::scenarios;
use vyrd_harness::workload::{PaceConfig, WorkloadConfig};
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd_rt::metrics::{self, Snapshot};

use crate::cli::{
    self, Args, CAPACITY, DURATION, KIND, OBJECTS, RATE, SCENARIO, SEED, SMOKE, THREADS, VARIANT,
    WITNESS, WORKERS,
};
use crate::{emit_witness, write_result};

pub(crate) fn run(args: &Args) -> ExitCode {
    if args.given(&SMOKE) {
        return smoke(args.get(&SEED));
    }
    let variant = args.get(&VARIANT);
    let scenarios = if args.get::<String>(&SCENARIO) == "all" {
        scenarios::all()
            .into_iter()
            .chain(scenarios::lockfree())
            .collect()
    } else {
        let Some(scenario) = args.scenario() else {
            return ExitCode::from(2);
        };
        vec![scenario]
    };
    let mut ok = true;
    for scenario in scenarios {
        let name = scenario.name();
        // Lock-free structures log no shared-variable writes, so view
        // refinement is impossible there; fall back to I/O checking.
        let kind = Some(args.get(&KIND))
            .filter(|k| scenario.supports(*k))
            .unwrap_or(CheckKind::Io);
        match soak_once(scenario.as_ref(), kind, variant, args, SOAK_OVERLOAD) {
            Some(outcome) => {
                print_outcome(&outcome);
                let file = format!("SOAK_{}.json", file_stem(name));
                ok &= write_result(&file, &outcome.to_json());
                if args.given(&WITNESS) && outcome.verdict == Verdict::Fail {
                    ok &= write_witness(scenario.as_ref(), kind, variant, args);
                }
                ok &= outcome.reconciled();
            }
            None => {
                eprintln!("soak: {name} has no multi-object mode for {kind:?}");
                ok = false;
            }
        }
    }
    if !ok {
        eprintln!("soak: FAILED (reconciliation drift or unsupported scenario)");
    }
    ExitCode::from(u8::from(!ok))
}

/// Minimizes + explains a soak FAIL. The open-loop pipeline streams
/// events into the sharded checkers and retains nothing, so the witness
/// is built from a *reconstructed* closed-loop recording of the same
/// seeded bug (see [`reconstruct_witness`]) — a clean, fully covered
/// trace, never the degraded streaming run.
fn write_witness(scenario: &dyn Scenario, kind: CheckKind, variant: Variant, load: &Args) -> bool {
    // The reprise closes the loop itself: it drops the pace and runs a
    // bounded number of calls per thread.
    let emitted = reconstruct_witness(scenario, kind, variant, &workload(load), 60)
        .and_then(|cx| emit_witness(&cx, kind).map_err(|e| format!("cannot write witness: {e}")));
    if let Err(e) = &emitted {
        eprintln!("soak: {e}");
    }
    emitted.is_ok()
}

/// The open-loop workload a `vyrd soak` command line offers.
fn workload(load: &Args) -> WorkloadConfig {
    WorkloadConfig {
        threads: load.get(&THREADS),
        calls_per_thread: 0, // ignored: pace drives the budget
        key_pool: 8,
        shrink_pool: true,
        internal_task: true,
        seed: load.get(&SEED),
        pace: Some(PaceConfig {
            rate_per_sec: load.get(&RATE),
            duration: Duration::from_secs_f64(load.get(&DURATION)),
        }),
    }
}

/// One soak run's complete accounting: throughput, tail latency, the
/// degradation ledger's view, the metrics registry's view, and the
/// reconciliation checks tying the two together.
struct Outcome {
    scenario: String,
    kind: CheckKind,
    variant: Variant,
    offered_rate: u64,
    duration_s: f64,
    wall_s: f64,
    calls: u64,
    sustained_rate: f64,
    /// `(name, p50, p95, p99, p999)` per span latency histogram, ns.
    latencies: Vec<(String, u64, u64, u64, u64)>,
    /// The run's counters, in artifact order: the registry's view of the
    /// pipeline (`appended` … `watchdog_quarantines`) with the ledger's
    /// `stranded` and `unreliable_violations` among them.
    counters: Vec<(&'static str, u64)>,
    shed_windows: Vec<ShedWindow>,
    verdict: Verdict,
    checks: Vec<Check>,
}

impl Outcome {
    fn reconciled(&self) -> bool {
        self.checks.iter().all(|&(_, ledger, metric)| ledger == metric)
    }

    /// One of [`Outcome::counters`], by its artifact key.
    fn n(&self, key: &str) -> u64 {
        let found = self.counters.iter().find(|(k, _)| *k == key);
        found
            .unwrap_or_else(|| panic!("soak records no {key} counter"))
            .1
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", self.scenario);
        let _ = writeln!(out, "  \"kind\": \"{:?}\",", self.kind);
        let _ = writeln!(out, "  \"variant\": \"{:?}\",", self.variant);
        let _ = writeln!(out, "  \"offered_rate_per_s\": {},", self.offered_rate);
        let _ = writeln!(out, "  \"duration_s\": {:.3},", self.duration_s);
        let _ = writeln!(out, "  \"wall_s\": {:.3},", self.wall_s);
        let _ = writeln!(out, "  \"calls\": {},", self.calls);
        let _ = writeln!(out, "  \"sustained_rate_per_s\": {:.1},", self.sustained_rate);
        let _ = writeln!(out, "  \"latencies_ns\": [");
        let latencies = self.latencies.iter().map(|(name, p50, p95, p99, p999)| {
            format!(
                "{{\"name\": \"{name}\", \"p50\": {p50}, \"p95\": {p95}, \
                 \"p99\": {p99}, \"p999\": {p999}}}"
            )
        });
        out += &json_lines(latencies, 4);
        let _ = writeln!(out, "  ],");
        for (key, n) in &self.counters {
            let _ = writeln!(out, "  \"{key}\": {n},");
        }
        let _ = writeln!(out, "  \"shed_windows\": [");
        out += &json_lines(self.shed_windows.iter().map(|w| format!("\"{w}\"")), 4);
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"verdict\": \"{}\",", self.verdict);
        let _ = writeln!(out, "  \"reconciled\": {},", self.reconciled());
        let _ = writeln!(out, "  \"checks\": [");
        let checks = self.checks.iter().map(|(name, ledger, metric)| {
            format!("{{\"name\": \"{name}\", \"ledger\": {ledger}, \"metric\": {metric}}}")
        });
        out += &json_lines(checks, 4);
        let _ = writeln!(out, "  ]");
        out.push('}');
        out.push('\n');
        out
    }
}

/// The fixed overload constants a soak runs under.
#[derive(Clone, Copy)]
struct Overload {
    /// How long an append may stall on a full shard before it sheds.
    shed_timeout: Duration,
    /// Sheds an object may take before its shard is abandoned.
    shed_budget: u64,
    /// How long a shard may hold queued events without consumption
    /// before the watchdog escalates it.
    stall_deadline: Duration,
}

/// `vyrd soak`'s constants: a full shard stalls the program at most
/// 20 ms per event, 64 times, and a shard stuck for 250 ms is escalated.
const SOAK_OVERLOAD: Overload = Overload {
    shed_timeout: Duration::from_millis(20),
    shed_budget: 64,
    stall_deadline: Duration::from_millis(250),
};

/// The smoke's constants, for its tiny channels and sub-second run.
const SMOKE_OVERLOAD: Overload = Overload {
    // Long enough to cover the checkers' start-up, debug builds
    // included: the buggy leg's violation sits in object 0's first few
    // events, and a shed before its checker first runs leaves it past a
    // coverage gap — DEGRADED PASS, not FAIL.
    shed_timeout: Duration::from_millis(10),
    // Low enough that a stalled shard exhausts its budget and is
    // abandoned within the run, instead of paying the shed timeout per
    // event for the whole duration.
    shed_budget: 16,
    stall_deadline: Duration::from_millis(200),
};

/// Drives one scenario through the shedding pipeline at the offered
/// rate, with counters and spans live, and reconciles every counter the
/// ledger and the registry share. `load` is a `vyrd soak` command line
/// (rate, duration, objects, workers, capacity, threads, seed).
fn soak_once(
    scenario: &dyn Scenario,
    kind: CheckKind,
    variant: Variant,
    load: &Args,
    overload: Overload,
) -> Option<Outcome> {
    let capacity = load.get(&CAPACITY);
    let (artifacts, snap) = metered(|| {
        run_soak(
            scenario,
            &workload(load),
            kind,
            variant,
            load.get(&OBJECTS),
            load.get(&WORKERS),
            ShardConfig::bounded_shedding(capacity, overload.shed_timeout, overload.shed_budget),
            SupervisorConfig {
                stall_deadline: Some(overload.stall_deadline),
                ..SupervisorConfig::default()
            },
        )
    });
    let SoakArtifacts {
        wall,
        report,
        log_stats,
    } = artifacts?;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let g = |name: &str| snap.gauge(name).unwrap_or(0);
    let d = &report.merged.degradation;

    let latencies = ["span.call_to_commit_ns", "span.call_to_return_ns"]
        .iter()
        .filter_map(|name| {
            snap.histogram(name)
                .map(|h| (name.to_string(), h.p50, h.p95, h.p99, h.p999))
        })
        .collect();

    let wall_s = wall.as_secs_f64();
    let mut checks = overload_checks(d, &snap, log_stats.events);
    let checked = c("pool.events_checked");
    checks.insert(
        3,
        (
            "checked vs merged report stats",
            checked,
            report.merged.stats.events,
        ),
    );
    // Bounded lag: the queues' high-water mark never exceeded the
    // pipeline's total buffer space — overload shed instead of queuing
    // without bound.
    checks.push(holds(
        "occupancy peak within buffer space",
        g("overload.occupancy_peak") <= capacity as u64,
    ));

    Some(Outcome {
        scenario: scenario.name().to_string(),
        kind,
        variant,
        offered_rate: load.get(&RATE),
        duration_s: load.get(&DURATION),
        wall_s,
        calls: log_stats.calls,
        sustained_rate: if wall_s > 0.0 {
            log_stats.calls as f64 / wall_s
        } else {
            0.0
        },
        latencies,
        counters: vec![
            ("appended", c("log.events_appended")),
            ("routed", c("shard.events_routed")),
            ("checked", checked),
            ("shed", c("shard.events_shed")),
            ("shed_timeout", c("shard.sheds_timeout")),
            ("shed_abandoned", c("shard.sheds_abandoned")),
            ("shed_injected", c("shard.sheds_injected")),
            ("stranded", d.stranded_events),
            ("unreliable_violations", d.unreliable_violations),
            ("lag_peak", g("overload.lag_peak")),
            ("occupancy_peak", g("overload.occupancy_peak")),
            ("watchdog_rescues", c("overload.watchdog_rescues")),
            ("watchdog_quarantines", c("overload.watchdog_quarantines")),
        ],
        shed_windows: d.shed_windows.clone(),
        verdict: report.merged.verdict(),
        checks,
    })
}

fn print_outcome(o: &Outcome) {
    println!(
        "== soak: {} ({:?}, {:?}) ==",
        o.scenario, o.kind, o.variant
    );
    if o.offered_rate == 0 {
        println!("offered:   flat-out for {:.1}s", o.duration_s);
    } else {
        println!("offered:   {} calls/s for {:.1}s", o.offered_rate, o.duration_s);
    }
    println!(
        "sustained: {:.0} calls/s ({} calls in {:.2}s)",
        o.sustained_rate, o.calls, o.wall_s
    );
    for (name, p50, p95, p99, p999) in &o.latencies {
        println!("{name:<28} p50={p50} p95={p95} p99={p99} p999={p999}");
    }
    let n = |key| o.n(key);
    println!(
        "events:    appended {} routed {} checked {} shed {} (timeout {} abandoned {} injected {}) stranded {}",
        n("appended"),
        n("routed"),
        n("checked"),
        n("shed"),
        n("shed_timeout"),
        n("shed_abandoned"),
        n("shed_injected"),
        n("stranded")
    );
    if n("unreliable_violations") > 0 {
        println!(
            "unreliable: {} violation(s) past a coverage gap suppressed",
            n("unreliable_violations")
        );
    }
    println!(
        "overload:  lag peak {} occupancy peak {} watchdog rescues {} quarantines {}",
        n("lag_peak"),
        n("occupancy_peak"),
        n("watchdog_rescues"),
        n("watchdog_quarantines")
    );
    for w in &o.shed_windows {
        println!("uncovered: {w}");
    }
    println!("verdict:   {}", o.verdict);
    for &(name, ledger, metric) in &o.checks {
        if ledger != metric {
            println!("DRIFT:     {name}: ledger {ledger} vs metric {metric}");
        }
    }
}

/// The pinned-seed CI saturation check (`--smoke`): two legs, both
/// offered ~4× what the stalled pipeline sustains.
///
/// * Correct leg: Multiset-Vector under view refinement with shard 0's
///   checker stalled 150 ms. Must shed (we drove it past saturation),
///   and shed on the stalled shard itself, must reconcile exactly, and
///   must end DEGRADED PASS — overload never turns a correct run into
///   FAIL, and never forges a clean PASS.
/// * Buggy leg: Treiber-Stack (seeded ABA violation on object 0) under
///   I/O checking with shard *1* stalled instead, so the violation
///   carrier is checked while another shard degrades. Must reconcile and
///   must not PASS.
fn smoke(seed: u64) -> ExitCode {
    eprintln!("soak --smoke: seed {seed} (replay with --seed {seed})");
    let mut ok = true;
    let mut outcomes = Vec::new();

    let pinned = format!(
        "soak --rate 60000 --duration 0.9 --objects 3 --workers 3 --capacity 4 --threads 4 --seed {seed}"
    );
    let load = cli::parse(pinned.split(' ').map(str::to_owned)).expect("the pinned command line");
    for (name, kind, variant, stalled) in [
        ("Multiset-Vector", CheckKind::View, Variant::Correct, 0),
        ("Treiber-Stack", CheckKind::Io, Variant::Buggy, 1),
    ] {
        let scenario = scenarios::by_name(name).expect("smoke scenarios are registered");
        let scope = fault::install(FaultPlan::seeded(seed).rule(
            &format!("pool.check.{stalled}"),
            FaultRule::once(FaultAction::Delay(Duration::from_millis(150))),
        ));
        let outcome = soak_once(scenario.as_ref(), kind, variant, &load, SMOKE_OVERLOAD);
        drop(scope);
        let Some(mut o) = outcome else {
            eprintln!("soak --smoke: {variant:?} leg unsupported");
            ok = false;
            continue;
        };
        let verdict = o.verdict;
        if variant == Variant::Correct {
            o.checks
                .push(holds("sheds observed past saturation", o.n("shed") > 0));
            o.checks.push(holds(
                "the stalled shard shed",
                o.shed_windows.iter().any(|w| w.object == ObjectId(stalled)),
            ));
            o.checks.push(holds(
                "correct run is a degraded pass, not FAIL",
                verdict == Verdict::DegradedPass,
            ));
        } else {
            o.checks.push(holds(
                "buggy run never forged into PASS",
                verdict != Verdict::Pass,
            ));
        }
        print_outcome(&o);
        ok &= o.reconciled();
        outcomes.push(o);
    }

    // Each leg is its own artifact's JSON, nested four spaces deep.
    let legs = outcomes
        .iter()
        .map(|o| o.to_json().trim_end().replace('\n', "\n    "));
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"ok\": {ok},");
    let _ = writeln!(json, "  \"legs\": [");
    json += &json_lines(legs, 4);
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    ok &= write_result("SOAK_smoke.json", &json);
    if !ok {
        eprintln!("soak --smoke: FAILED (reconciliation drift or wrong verdict direction)");
    }
    ExitCode::from(u8::from(!ok))
}

/// `Multiset-Vector` → `Multiset_Vector` for a results filename.
fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

// Ledger-vs-registry reconciliation: a soak runs the pool with the
// metrics registry live and then demands that the `Degradation` ledger
// and the registry agree *exactly*, increment for increment.

/// `(name, ledger, metric)`; the check holds iff the two sides are equal.
/// A boolean condition is encoded by [`holds`].
type Check = (&'static str, u64, u64);

/// A check that is a plain condition: it holds iff `cond`.
fn holds(name: &'static str, cond: bool) -> Check {
    (name, u64::from(cond), 1)
}

/// Runs `f` with the metrics registry reset and live, trace spans
/// included, and returns its result with the registry's snapshot.
fn metered<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    metrics::reset();
    metrics::set_enabled(true);
    metrics::set_spans_enabled(true);
    let out = f();
    metrics::set_spans_enabled(false);
    metrics::set_enabled(false);
    (out, metrics::snapshot())
}

/// The identities every soak run must satisfy, whatever the schedule:
/// conservation at the router and at the shards, and every shed and
/// watchdog escalation in the ledger exactly as the registry counted it.
fn overload_checks(d: &Degradation, snap: &Snapshot, log_events: u64) -> Vec<Check> {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let watchdog = |action| {
        d.watchdog_events
            .iter()
            .filter(|x| x.action == action)
            .count() as u64
    };
    let window_sum: u64 = d.shed_windows.iter().map(|w| w.events).sum();
    let (appended, routed, shed) = (
        c("log.events_appended"),
        c("shard.events_routed"),
        c("shard.events_shed"),
    );
    vec![
        // The log's own counters and the registry agree.
        ("log events vs log.events_appended", log_events, appended),
        // Conservation at the router: every appended event was either
        // delivered to a shard or accounted as shed — nothing vanishes.
        ("appended vs routed + shed", appended, routed + shed),
        // Everything delivered to a shard was either checked or is
        // stranded in an abandoned shard's queue — sheds and stranded
        // residue are the *only* coverage gaps, and both are counted.
        (
            "routed vs checked + stranded",
            routed,
            c("pool.events_checked") + d.stranded_events,
        ),
        // The ledger's shed total, its per-kind split, and its seq-window
        // stamps all agree with the registry increment for increment.
        ("ledger sheds vs shard.events_shed", d.sheds(), shed),
        (
            "shed kind split sums to total",
            c("shard.sheds_timeout") + c("shard.sheds_abandoned") + c("shard.sheds_injected"),
            shed,
        ),
        ("shed window events vs ledger sheds", window_sum, d.sheds()),
        // Every watchdog escalation is in the ledger, and only those.
        (
            "watchdog rescues ledger vs metric",
            watchdog(WatchdogAction::RescueWorker),
            c("overload.watchdog_rescues"),
        ),
        (
            "watchdog quarantines ledger vs metric",
            watchdog(WatchdogAction::Quarantine),
            c("overload.watchdog_quarantines"),
        ),
    ]
}

/// A JSON array's body: one element per line, `indent` spaces deep,
/// comma-separated, newline-terminated (empty for no elements).
fn json_lines(elements: impl IntoIterator<Item = String>, indent: usize) -> String {
    let lines: Vec<String> = elements
        .into_iter()
        .map(|e| format!("{:indent$}{e}", ""))
        .collect();
    if lines.is_empty() {
        String::new()
    } else {
        lines.join(",\n") + "\n"
    }
}
