//! `vyrd witness` — produce a minimized, explained counterexample for a
//! seeded buggy scenario, sized for CI gating.
//!
//! Records the buggy workload closed-loop (walking seeds until a trace
//! fails the requested check), runs it through the counterexample
//! pipeline ([`vyrd_core::witness`]) and hands the result to
//! [`emit_witness`]. Exit is non-zero when no failing trace reproduces,
//! when the pipeline refuses (category drift on the re-check, unreliable
//! degradation), or when the `--max-events` / `--min-log` gates are
//! violated — the latter guards against a gate that "passes" because the
//! workload was trivial.

use std::process::ExitCode;

use vyrd_harness::scenario::{reconstruct_witness, CheckKind, Variant};
use vyrd_harness::workload::WorkloadConfig;

use crate::cli::{Args, CALLS, KIND, MAX_EVENTS, MIN_LOG, RUNS, SEED, THREADS};
use crate::emit_witness;

pub(crate) fn run(args: &Args) -> ExitCode {
    let Some(scenario) = args.scenario() else {
        return ExitCode::from(2);
    };
    let kind: CheckKind = args.get(&KIND);
    if !scenario.supports(kind) {
        eprintln!(
            "witness: {} does not support {kind:?} checking",
            scenario.name()
        );
        return ExitCode::from(2);
    }
    let cfg = WorkloadConfig {
        threads: args.get(&THREADS),
        calls_per_thread: args.get(&CALLS),
        key_pool: 6,
        shrink_pool: true,
        internal_task: true,
        seed: args.get(&SEED),
        pace: None,
    };
    let cx = match reconstruct_witness(
        scenario.as_ref(),
        kind,
        Variant::Buggy,
        &cfg,
        args.get(&RUNS),
    ) {
        Ok(cx) => cx,
        Err(e) => {
            eprintln!("witness: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = emit_witness(&cx, kind) {
        eprintln!("witness: cannot write artifact: {e}");
        return ExitCode::FAILURE;
    }
    let (max_events, min_log): (usize, usize) = (args.get(&MAX_EVENTS), args.get(&MIN_LOG));
    let mut ok = true;
    if max_events > 0 && cx.events.len() > max_events {
        eprintln!(
            "witness: FAILED: minimized witness has {} events (gate: <= {max_events})",
            cx.events.len()
        );
        ok = false;
    }
    if min_log > 0 && cx.original_events < min_log {
        eprintln!(
            "witness: FAILED: originating log had only {} events (gate: >= {min_log}) — \
             raise --calls so the gate minimizes a real trace",
            cx.original_events
        );
        ok = false;
    }
    ExitCode::from(u8::from(!ok))
}
