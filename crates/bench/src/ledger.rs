//! Ledger-vs-registry reconciliation shared by `vyrd soak` and
//! `vyrd stats`: both run a pool with the metrics registry live and then
//! demand that the [`Degradation`] ledger and the registry agree
//! *exactly*, increment for increment.

use vyrd_core::violation::{AdaptiveAction, Degradation, WatchdogAction};
use vyrd_rt::metrics::{self, Snapshot};

/// `(name, ledger, metric)`; the check holds iff the two sides are equal.
/// A boolean condition is encoded by [`holds`].
pub(crate) type Check = (&'static str, u64, u64);

/// A check that is a plain condition: it holds iff `cond`.
pub(crate) fn holds(name: &'static str, cond: bool) -> Check {
    (name, u64::from(cond), 1)
}

pub(crate) fn all_agree(checks: &[Check]) -> bool {
    checks.iter().all(|&(_, ledger, metric)| ledger == metric)
}

/// Runs `f` with the metrics registry reset and live — trace spans too,
/// when `spans` — and returns its result with the registry's snapshot.
pub(crate) fn metered<T>(spans: bool, f: impl FnOnce() -> T) -> (T, Snapshot) {
    metrics::reset();
    metrics::set_enabled(true);
    metrics::set_spans_enabled(spans);
    let out = f();
    metrics::set_spans_enabled(false);
    metrics::set_enabled(false);
    (out, metrics::snapshot())
}

/// The identities every adaptive-pool run must satisfy, whatever the
/// schedule: conservation at the router and at the shards, and every
/// shed, controller decision and watchdog escalation in the ledger
/// exactly as the registry counted it.
pub(crate) fn overload_checks(d: &Degradation, snap: &Snapshot, log_events: u64) -> Vec<Check> {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let decisions = |action| {
        d.adaptive_decisions
            .iter()
            .filter(|x| x.action == action)
            .count() as u64
    };
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
        // Every adaptive decision and watchdog escalation the controller
        // took is in the ledger, and only those.
        (
            "decrease decisions ledger vs metric",
            decisions(AdaptiveAction::Decrease),
            c("overload.decisions_decrease"),
        ),
        (
            "recover decisions ledger vs metric",
            decisions(AdaptiveAction::Recover),
            c("overload.decisions_recover"),
        ),
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
pub(crate) fn json_lines(elements: impl IntoIterator<Item = String>, indent: usize) -> String {
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

/// The `"checks": [...]` array body, as both artifacts spell it.
pub(crate) fn checks_json(checks: &[Check], indent: usize) -> String {
    let objects = checks.iter().map(|(name, ledger, metric)| {
        format!("{{\"name\": \"{name}\", \"ledger\": {ledger}, \"metric\": {metric}}}")
    });
    json_lines(objects, indent)
}
