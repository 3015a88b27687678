//! The fault matrix: every sharded scenario crossed with a grid of
//! injected faults, each cell asserted to end in a verdict or an
//! *explicitly degraded* report — never a hang, an abort, or a clean
//! pass that silently skipped coverage.
//!
//! This is the robustness counterpart of `tests/shard_agreement.rs`: the
//! agreement tests establish that sharded checking is verdict-preserving
//! on healthy runs; the matrix establishes what happens when pieces of
//! the pipeline misbehave. Each case installs a seeded
//! [`FaultPlan`](vyrd_rt::fault::FaultPlan) (so a CI failure replays from
//! its logged seed, see [`vyrd_rt::fault::SEED_ENV`]), drives a recorded
//! multi-object trace through a supervised [`VerifierPool`], and checks
//! the degraded report against the offline per-object ground truth.
//!
//! Fault plans are process-global: [`run_matrix`] runs its cells
//! sequentially, and callers must not run it concurrently with anything
//! else that installs plans (keep it in its own test binary, or behind a
//! mutex).

use std::fmt;
use std::time::Duration;

use vyrd_core::codec::{self, DecodeOutcome};
use vyrd_core::log::{EventLog, LogStats};
use vyrd_core::pool::{PoolReport, SupervisorConfig, VerifierPool};
use vyrd_core::shard::{partition_by_object, ShardConfig};
use vyrd_core::violation::Verdict;
use vyrd_core::{Event, ObjectId};
use vyrd_rt::channel;
use vyrd_rt::fault::{self, FaultAction, FaultPlan, FaultRule};
use vyrd_rt::rng::Rng;

use crate::scenario::{CheckKind, Scenario, Variant};
use crate::scenarios;
use crate::workload::WorkloadConfig;

/// Objects per multi-object run (one log shard each).
pub const OBJECTS: u32 = 3;
/// Verifier threads per pool — one per object, so no case depends on
/// shard hand-off order.
pub const WORKERS: usize = OBJECTS as usize;

/// One cell of the matrix: a scenario crossed with a fault case.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Scenario row label (e.g. `"Multiset-Vector"`).
    pub scenario: &'static str,
    /// Fault case name (e.g. `"worker-panic-restart"`).
    pub case: &'static str,
    /// The matrix seed the cell ran under (replay with
    /// `VYRD_FAULT_SEED=<seed>`).
    pub seed: u64,
    /// `Ok(summary)` when every assertion of the case held, `Err(detail)`
    /// otherwise.
    pub result: Result<String, String>,
}

impl MatrixOutcome {
    /// Whether the cell's assertions all held.
    pub fn passed(&self) -> bool {
        self.result.is_ok()
    }
}

impl fmt::Display for MatrixOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mark, detail) = match &self.result {
            Ok(s) => ("ok", s.as_str()),
            Err(s) => ("FAILED", s.as_str()),
        };
        write!(
            f,
            "{:<18} {:<24} {mark}: {detail}",
            self.scenario, self.case
        )
    }
}

/// The matrix workload: small enough that the whole grid runs in
/// seconds, large enough that every shard sees traffic.
pub fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        threads: 4,
        calls_per_thread: 25,
        key_pool: 8,
        shrink_pool: true,
        internal_task: true,
        seed,
        pace: None,
    }
}

/// Records one multi-object run of the correct variant into memory
/// (view-level logging).
pub fn record_multi(scenario: &dyn Scenario, seed: u64) -> Vec<Event> {
    let log = EventLog::in_memory(CheckKind::View.log_mode());
    assert!(
        scenario.run_multi(&cfg(seed), &log, Variant::Correct, OBJECTS),
        "{} should support multi-object runs",
        scenario.name()
    );
    log.snapshot()
}

/// Replays a recorded trace through a supervised `kind` pool
/// ([`VerifierPool::replay`]) with `faults` armed for exactly that long —
/// they fire inside the pipeline: on append, on routing, and in the
/// per-shard checkers. Returns the per-object + merged reports with the
/// pool log's final counters, or `None` when the scenario has no shard
/// factory for `kind`.
pub fn replay_supervised(
    scenario: &dyn Scenario,
    kind: CheckKind,
    events: &[Event],
    faults: Option<FaultPlan>,
    config: ShardConfig,
    supervisor: SupervisorConfig,
) -> Option<(PoolReport, LogStats)> {
    let factory = scenario.shard_factory(kind)?;
    let _armed = faults.map(fault::install);
    let pool = VerifierPool::spawn_supervised(
        kind.log_mode(),
        WORKERS,
        config,
        supervisor,
        move |object| factory(object),
    );
    let log = pool.log().clone();
    let report = pool.replay(events);
    Some((report, log.stats()))
}

/// The matrix's own replay: view checking under the default shard and
/// supervision configuration unless the case overrides one.
fn pool_report(
    scenario: &dyn Scenario,
    events: &[Event],
    faults: Option<FaultPlan>,
    config: Option<ShardConfig>,
    supervisor: Option<SupervisorConfig>,
) -> PoolReport {
    let (config, supervisor) = (config.unwrap_or_default(), supervisor.unwrap_or_default());
    replay_supervised(
        scenario,
        CheckKind::View,
        events,
        faults,
        config,
        supervisor,
    )
    .expect("sharded scenario has a factory")
    .0
}

/// Checks every pooled per-object verdict (except `skip`'s) against the
/// offline ground truth; returns how many shards were compared.
fn agree_with_offline(
    scenario: &dyn Scenario,
    events: &[Event],
    all: &PoolReport,
    skip: Option<ObjectId>,
) -> Result<usize, String> {
    let offline = offline_verdicts(scenario, events);
    let compared = offline.iter().filter(|(o, _)| Some(*o) != skip);
    for (object, passed) in compared.clone() {
        let pooled = all
            .per_object
            .iter()
            .find(|(o, _)| o == object)
            .ok_or_else(|| format!("{object} missing from pool report"))?;
        if pooled.1.passed() != *passed {
            return Err(format!("{object}: pool={} offline pass={passed}", pooled.1));
        }
    }
    Ok(compared.count())
}

/// Ground truth: the offline per-object verdict for each shard of the
/// trace, computed with no faults armed.
fn offline_verdicts(scenario: &dyn Scenario, events: &[Event]) -> Vec<(ObjectId, bool)> {
    let factory = scenario
        .shard_factory(CheckKind::View)
        .expect("sharded scenario has a factory");
    partition_by_object(events.iter().cloned())
        .into_iter()
        .map(|(object, shard)| {
            let (tx, rx) = channel::unbounded();
            for e in shard {
                tx.send(e).expect("receiver alive");
            }
            drop(tx);
            (object, factory(object).check(&rx).passed())
        })
        .collect()
}

/// Case: no faults. The pool must produce a clean [`Verdict::Pass`] with
/// zero degradation counters, agreeing shard-for-shard with the offline
/// checks.
fn case_clean(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    let events = record_multi(scenario, seed);
    let all = pool_report(scenario, &events, None, None, None);
    if all.merged.verdict() != Verdict::Pass {
        return Err(format!("expected a clean PASS, got: {}", all.merged));
    }
    if all.merged.is_degraded() {
        return Err(format!("clean run reported degradation: {}", all.merged));
    }
    let shards = agree_with_offline(scenario, &events, &all, None)?;
    Ok(format!(
        "clean PASS, {} events, {shards} shards agree with offline",
        all.merged.stats.events
    ))
}

/// Case: the checker of shard 1 panics once. The supervisor must restart
/// it; because the `pool.check.*` site fires before any event is
/// consumed, the retry re-checks the full shard and every per-object
/// verdict still matches the offline ground truth — but the report must
/// say `DEGRADED PASS`, never a clean one.
fn case_panic_restart(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    let events = record_multi(scenario, seed);
    let faults = FaultPlan::seeded(seed).rule("pool.check.1", FaultRule::once(FaultAction::Panic));
    let all = pool_report(scenario, &events, Some(faults), None, None);
    let d = &all.merged.degradation;
    if d.restarts == 0 {
        return Err(format!("no restart recorded: {}", all.merged));
    }
    if all.merged.verdict() != Verdict::DegradedPass {
        return Err(format!("expected DEGRADED PASS, got: {}", all.merged));
    }
    agree_with_offline(scenario, &events, &all, None)?;
    Ok(format!(
        "survived 1 checker panic with {} restart(s), verdicts still agree",
        d.restarts
    ))
}

/// Case: the checker of shard 1 panics on every attempt. The supervisor
/// must abandon that shard with a structured [`ShardFailure`]
/// (`events_lost` accounted), while the other K−1 shards' verdicts still
/// match the offline ground truth.
///
/// [`ShardFailure`]: vyrd_core::violation::ShardFailure
fn case_panic_exhausted(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    let events = record_multi(scenario, seed);
    let faults =
        FaultPlan::seeded(seed).rule("pool.check.1", FaultRule::always(FaultAction::Panic));
    let supervisor = SupervisorConfig {
        max_restarts: 1,
        backoff: Duration::from_micros(200),
        ..SupervisorConfig::default()
    };
    let all = pool_report(scenario, &events, Some(faults), None, Some(supervisor));
    let d = &all.merged.degradation;
    let failure = d
        .shard_failures
        .iter()
        .find(|f| f.object == ObjectId(1))
        .ok_or_else(|| format!("no ShardFailure for object 1: {}", all.merged))?;
    if failure.events_lost == 0 {
        return Err("abandoned shard reported zero events_lost".to_owned());
    }
    if !all.merged.is_degraded() {
        return Err(format!("exhausted shard not surfaced as degraded: {}", all.merged));
    }
    let survivors = agree_with_offline(scenario, &events, &all, Some(ObjectId(1)))?;
    Ok(format!(
        "shard 1 abandoned after {} restart(s), {} events lost, other {survivors} shards agree",
        failure.restarts, failure.events_lost
    ))
}

/// Case: shard 0's checker stalls (an injected delay before it starts
/// consuming) while the shard channel is tiny and the overload policy is
/// `Shed`. Appends must never block indefinitely: the budget runs out,
/// the shard is tombstoned, and the shed events show up as degraded
/// coverage — the one thing that must not happen is a clean pass.
fn case_overload_shed(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    let events = record_multi(scenario, seed);
    let faults = FaultPlan::seeded(seed).rule(
        "pool.check.0",
        FaultRule::once(FaultAction::Delay(Duration::from_millis(150))),
    );
    let config = ShardConfig::bounded_shedding(2, Duration::from_millis(1), 4);
    let all = pool_report(scenario, &events, Some(faults), Some(config), None);
    let d = &all.merged.degradation;
    if d.sheds() == 0 {
        return Err(format!("expected sheds under overload, got: {}", all.merged));
    }
    if all.merged.verdict() == Verdict::Pass {
        return Err(format!("shed coverage reported as a clean PASS: {}", all.merged));
    }
    Ok(format!(
        "completed under overload, {} events shed, verdict {}",
        d.sheds(),
        all.merged.verdict()
    ))
}

/// Case: the router drops a fixed number of events on the floor
/// (`shard.route` failpoint) — a budgeted stand-in for any fan-out loss.
/// The loss must be counted per object and degrade the verdict.
fn case_routing_drop(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    const DROPS: u64 = 7;
    let events = record_multi(scenario, seed);
    let faults = FaultPlan::seeded(seed).rule(
        "shard.route",
        FaultRule::always(FaultAction::Drop).after(3).times(DROPS),
    );
    let all = pool_report(scenario, &events, Some(faults), None, None);
    let d = &all.merged.degradation;
    if d.injected_sheds() != DROPS {
        return Err(format!(
            "expected exactly {DROPS} injected sheds, got {}: {}",
            d.injected_sheds(),
            all.merged
        ));
    }
    // A checker that stops at the hole hangs up, and what the router
    // cannot deliver to it afterwards is shed too — nothing else is.
    if let Some(w) = d
        .shed_windows
        .iter()
        .find(|w| w.events != w.injected && w.abandoned_at_seq.is_none())
    {
        return Err(format!("sheds beyond the injected ones without a hang-up ({w}): {}", all.merged));
    }
    if all.merged.verdict() == Verdict::Pass {
        return Err(format!("dropped routing reported as a clean PASS: {}", all.merged));
    }
    Ok(format!("{DROPS} routed events dropped, all counted, verdict {}", all.merged.verdict()))
}

/// Case: a worker thread fails to spawn (`pool.spawn` failpoint). The
/// shards that worker would have serviced are checked inline during
/// `finish`, so coverage is complete — the report notes the fallback but
/// the verdict stays clean and agrees with the offline checks.
fn case_spawn_fallback(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    let events = record_multi(scenario, seed);
    let faults = FaultPlan::seeded(seed).rule("pool.spawn", FaultRule::always(FaultAction::Drop));
    let all = pool_report(scenario, &events, Some(faults), None, None);
    let d = &all.merged.degradation;
    if d.spawn_fallbacks == 0 {
        return Err(format!("no inline fallback recorded: {}", all.merged));
    }
    if all.merged.verdict() != Verdict::Pass {
        return Err(format!(
            "inline fallback checked everything, so the verdict must stay PASS: {}",
            all.merged
        ));
    }
    agree_with_offline(scenario, &events, &all, None)?;
    Ok(format!(
        "every spawn refused, {} shard(s) checked inline, verdicts agree",
        d.spawn_fallbacks
    ))
}

/// Case: the recorded trace is written to the v4 on-disk format and its
/// tail torn off at a seeded offset (a crash mid-write). Decoding must
/// never panic: [`codec::read_log_recovering`] yields the maximal clean
/// prefix, and the offline checkers consume that prefix to a verdict.
fn case_torn_log_tail(scenario: &dyn Scenario, seed: u64) -> Result<String, String> {
    let events = record_multi(scenario, seed);
    let mut bytes = Vec::new();
    codec::write_log(&mut bytes, &events).map_err(|e| format!("write_log: {e}"))?;
    // Tear somewhere in the back half so a meaningful prefix survives.
    let mut rng = Rng::seed_from_u64(seed ^ 0x7082_104e);
    let cut = bytes.len() / 2 + (rng.next_u64() as usize) % (bytes.len() / 2);
    bytes.truncate(cut);
    let outcome = codec::read_log_recovering(&bytes[..]);
    let (prefix, detail) = match outcome {
        DecodeOutcome::Complete { records } => (records, "tail tore on a frame boundary".to_owned()),
        DecodeOutcome::RecoveredPrefix {
            records,
            truncated_at,
            ref detail,
            ..
        } => {
            if truncated_at > cut as u64 {
                return Err(format!(
                    "recovered past the torn tail: truncated_at {truncated_at} > {cut}"
                ));
            }
            (records, format!("recovered at byte {truncated_at}: {detail}"))
        }
    };
    if prefix.len() > events.len() || prefix[..] != events[..prefix.len()] {
        return Err("recovered records are not a prefix of the original trace".to_owned());
    }
    // A torn prefix can end mid-method; the checkers must still reach a
    // verdict (possibly a malformed-log violation), never panic or hang.
    let shards = offline_verdicts(scenario, &prefix);
    Ok(format!(
        "{} of {} events recovered ({detail}), {} shard(s) checked to a verdict",
        prefix.len(),
        events.len(),
        shards.len()
    ))
}

/// The grid: every fault case in [`run_matrix`]'s order, by name.
pub const CASES: [&str; 7] = [
    "clean",
    "worker-panic-restart",
    "worker-panic-exhausted",
    "overload-shed",
    "routing-drop",
    "spawn-fallback",
    "torn-log-tail",
];

/// Runs the full matrix — every sharded scenario crossed with every fault
/// case — under the given seed and returns one outcome per cell. Panics
/// escaping a cell are themselves caught and reported as that cell's
/// failure, so one bad cell never hides the rest of the grid.
pub fn run_matrix(seed: u64) -> Vec<MatrixOutcome> {
    type Case = fn(&dyn Scenario, u64) -> Result<String, String>;
    let cases: [(&'static str, Case); 7] = [
        ("clean", case_clean),
        ("worker-panic-restart", case_panic_restart),
        ("worker-panic-exhausted", case_panic_exhausted),
        ("overload-shed", case_overload_shed),
        ("routing-drop", case_routing_drop),
        ("spawn-fallback", case_spawn_fallback),
        ("torn-log-tail", case_torn_log_tail),
    ];
    let mut outcomes = Vec::new();
    for scenario in scenarios::all() {
        if scenario.shard_factory(CheckKind::View).is_none() {
            continue;
        }
        for (name, case) in cases {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                case(scenario.as_ref(), seed)
            }))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(format!("case panicked: {msg}"))
            });
            // A panicking case must not leave its faults armed for the
            // next cell.
            fault::clear();
            outcomes.push(MatrixOutcome {
                scenario: scenario.name(),
                case: name,
                seed,
                result,
            });
        }
    }
    outcomes
}
