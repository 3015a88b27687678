//! Pre-registered metric handles for the verification pipeline.
//!
//! Every instrumented component ([`log`](crate::log),
//! [`shard`](crate::shard), [`pool`](crate::pool),
//! [`online`](crate::online), [`checker`](crate::checker)) shares one
//! [`PipelineMetrics`] bundle, created on first use. Registration is the
//! only allocating step; it happens once per process, so hot paths that
//! guard on [`vyrd_rt::metrics::enabled()`] and then update a handle stay
//! allocation-free — the property `tests/off_mode_no_alloc.rs` pins.
//!
//! Naming: `<component>.<measure>`, e.g. `log.events_appended`,
//! `pool.verdict_latency_us`. The headline derived number is the verifier
//! **lag** — `log.events_appended` minus `checker.events` at any instant —
//! which quantifies the §8 online-vs-offline tradeoff: an online verifier
//! that keeps up has a lag bounded by the in-flight buffers; a growing
//! lag means checking is slower than the program and would be better run
//! offline. `pool.lag_events` records the end-of-run value (events the
//! verifier never saw: sheds, drops, discards keep it above zero).

use std::sync::{Arc, OnceLock};

use vyrd_rt::metrics::{self, Counter, Gauge, Histogram};

/// Handles to every pipeline metric, registered once per process.
///
/// Public so exporters can force registration before taking a snapshot
/// (a metric that was never touched otherwise would be missing from it).
#[derive(Debug)]
pub struct PipelineMetrics {
    // -- EventLog (crate::log) --
    /// Events accepted into the merger (batched and unbuffered paths).
    pub log_events_appended: Arc<Counter>,
    /// Batches accepted into the merger.
    pub log_batches_submitted: Arc<Counter>,
    /// Events per accepted batch (occupancy of the [`BATCH`]-sized
    /// per-thread buffers at submit time).
    pub log_batch_occupancy: Arc<Histogram>,
    /// Batches parked on the flat-combining backlog because the merger
    /// lock was busy.
    pub log_backlog_parked: Arc<Counter>,
    /// Deepest the backlog ever got (batches).
    pub log_backlog_depth_peak: Arc<Gauge>,
    /// Most events ever parked inside the merger waiting for a
    /// sequence-gap predecessor.
    pub log_merger_parked_peak: Arc<Gauge>,
    /// Pressure-relief flushes triggered by a deep merger park.
    pub log_pressure_flushes: Arc<Counter>,
    /// Events discarded because they arrived after [`EventLog::close`].
    pub log_events_discarded: Arc<Counter>,
    /// Events dropped by the `log.append` failpoint.
    pub log_events_dropped_injected: Arc<Counter>,

    // -- ShardRouter (crate::shard) --
    /// Events fanned out to per-object shards.
    pub shard_events_routed: Arc<Counter>,
    /// Events shed (overload, abandoned shard, or injected routing drop);
    /// mirrors the [`Degradation`](crate::violation::Degradation) ledger
    /// increment-for-increment.
    pub shard_events_shed: Arc<Counter>,
    /// Sheds whose `send_timeout` waited the full shed timeout on a full
    /// channel (the checker is too slow). Disjoint from
    /// `shard_sheds_abandoned` / `shard_sheds_injected`; the three sum
    /// to `shard_events_shed`.
    pub shard_sheds_timeout: Arc<Counter>,
    /// Sheds taken without waiting because the shard was already
    /// abandoned (`Slot::Shedding` after budget exhaustion) or
    /// quarantined by the watchdog.
    pub shard_sheds_abandoned: Arc<Counter>,
    /// Sheds injected by the `shard.route` failpoint.
    pub shard_sheds_injected: Arc<Counter>,
    /// Nanoseconds each `Shed`-policy dispatch spent inside
    /// `send_timeout` — the invisible stall the append critical section
    /// pays under overload, successful sends included.
    pub shard_shed_wait_ns: Arc<Histogram>,
    /// Distinct objects the router has seen events for.
    pub shard_objects_seen: Arc<Gauge>,
    /// Per-object batches handed to shard channels via `send_many`
    /// (batched routing mode only).
    pub shard_batch_sends: Arc<Counter>,
    /// Events per routed batch at flush time.
    pub shard_batch_occupancy: Arc<Histogram>,

    // -- VerifierPool (crate::pool) --
    /// Events consumed by per-shard checkers (summed over restarts).
    pub pool_events_checked: Arc<Counter>,
    /// Checker restarts after a caught panic.
    pub pool_restarts: Arc<Counter>,
    /// Shards abandoned (restart budget exhausted) or degraded.
    pub pool_shard_failures: Arc<Counter>,
    /// Shards checked inline during `finish_all` because no worker
    /// serviced them.
    pub pool_spawn_fallbacks: Arc<Counter>,
    /// Wall time from a shard's first check attempt to its verdict, µs.
    pub pool_verdict_latency_us: Arc<Histogram>,
    /// End-of-run verifier lag: events appended minus events checked
    /// (sheds/drops/discards keep it positive — see the module docs).
    pub pool_lag_events: Arc<Gauge>,

    // -- Overload watchdog (crate::overload) --
    /// Watchdog ticks executed.
    pub overload_ticks: Arc<Counter>,
    /// Live verification lag at the last tick: events appended minus
    /// events consumed by shard channels minus events already accounted
    /// as shed/dropped. Unlike `pool.lag_events` (end-of-run), this is
    /// sampled while the run is in flight.
    pub overload_lag_events: Arc<Gauge>,
    /// Highest live lag any tick observed.
    pub overload_lag_peak: Arc<Gauge>,
    /// Highest single-shard channel occupancy any tick observed.
    pub overload_occupancy_peak: Arc<Gauge>,
    /// Watchdog rescues: unclaimed stuck shards handed to a freshly
    /// spawned supervised worker.
    pub overload_watchdog_rescues: Arc<Counter>,
    /// Watchdog quarantines: claimed-but-stuck shards whose future
    /// events are shed at the router.
    pub overload_watchdog_quarantines: Arc<Counter>,

    // -- Checker (crate::checker) --
    /// Events stepped by checkers (the consumption side of lag).
    pub checker_events: Arc<Counter>,
    /// Mutator commits replayed into the specification.
    pub checker_commits_applied: Arc<Counter>,
    /// Method executions fully matched (call..return).
    pub checker_methods_completed: Arc<Counter>,
    /// Observer windows checked (§4.3).
    pub checker_observers_checked: Arc<Counter>,
    /// View comparisons performed (§5).
    pub checker_view_comparisons: Arc<Counter>,
    /// Individual view keys compared (full vs incremental, §6.4).
    pub checker_view_keys_compared: Arc<Counter>,
    /// Shared-variable writes replayed (view refinement).
    pub checker_writes_replayed: Arc<Counter>,
    /// Observer-window sizes in commits (§4.3): how much commit-history
    /// each observer return had to be checked against.
    pub checker_observer_window: Arc<Histogram>,
    /// Channel batches drained by `SteppingChecker::check`'s `recv_up_to` loop.
    pub checker_batches: Arc<Counter>,
    /// Events delivered through those batches (equals `decode.events`
    /// and the append-side event count when nothing was shed).
    pub checker_batch_events: Arc<Counter>,
    /// Events per drained consume batch.
    pub checker_batch_occupancy: Arc<Histogram>,

    // -- Linearizability checking mode (Checker::lin) --
    /// Observer windows searched for a linearization witness.
    pub checker_lin_windows_searched: Arc<Counter>,
    /// Window candidates rejected during lin witness searches.
    pub checker_lin_witness_backtracks: Arc<Counter>,

    // -- Log decode (crate::codec) --
    /// Events decoded by buffered log readers.
    pub decode_events: Arc<Counter>,
    /// Payload bytes decoded (CRC frames, headers excluded).
    pub decode_bytes: Arc<Counter>,
    /// CRC frames decoded.
    pub decode_frames: Arc<Counter>,
    /// Read syscalls issued to refill the decode buffer.
    pub decode_refills: Arc<Counter>,

    // -- OnlineVerifier (crate::online) --
    /// Supervised single-stream check attempts (incl. restarts).
    pub online_checks: Arc<Counter>,

    // -- Segmented durable log (crate::segment) --
    /// Segments sealed (flushed, synced, and recorded in the manifest).
    pub segment_sealed: Arc<Counter>,
    /// Fully checked segments deleted by the continuous verifier.
    pub segment_deleted: Arc<Counter>,
    /// Checkpoints durably written by the continuous verifier.
    pub checkpoint_written: Arc<Counter>,
    /// Durable sequence number the continuous verifier resumed from
    /// (set once per [`ContinuousVerifier::open`](crate::segment::ContinuousVerifier::open)).
    pub checker_resume_seq: Arc<Gauge>,

    // -- Trace spans (crate::instrument) --
    /// Call→commit latency per method execution, ns.
    pub span_call_to_commit_ns: Arc<Histogram>,
    /// Call→return latency per method execution, ns.
    pub span_call_to_return_ns: Arc<Histogram>,
}

/// The process-global pipeline metrics, registered on first call.
///
/// First call allocates (name table entries); call it once during
/// pipeline construction or warmup, not from a measured region.
pub fn pipeline() -> &'static PipelineMetrics {
    static PIPELINE: OnceLock<PipelineMetrics> = OnceLock::new();
    PIPELINE.get_or_init(|| PipelineMetrics {
        log_events_appended: metrics::counter("log.events_appended"),
        log_batches_submitted: metrics::counter("log.batches_submitted"),
        log_batch_occupancy: metrics::histogram("log.batch_occupancy"),
        log_backlog_parked: metrics::counter("log.backlog_parked"),
        log_backlog_depth_peak: metrics::gauge("log.backlog_depth_peak"),
        log_merger_parked_peak: metrics::gauge("log.merger_parked_peak"),
        log_pressure_flushes: metrics::counter("log.pressure_flushes"),
        log_events_discarded: metrics::counter("log.events_discarded_after_close"),
        log_events_dropped_injected: metrics::counter("log.events_dropped_injected"),
        shard_events_routed: metrics::counter("shard.events_routed"),
        shard_events_shed: metrics::counter("shard.events_shed"),
        shard_sheds_timeout: metrics::counter("shard.sheds_timeout"),
        shard_sheds_abandoned: metrics::counter("shard.sheds_abandoned"),
        shard_sheds_injected: metrics::counter("shard.sheds_injected"),
        shard_shed_wait_ns: metrics::histogram("router.shed_wait_ns"),
        shard_objects_seen: metrics::gauge("shard.objects_seen"),
        shard_batch_sends: metrics::counter("shard.batch_sends"),
        shard_batch_occupancy: metrics::histogram("shard.batch_occupancy"),
        pool_events_checked: metrics::counter("pool.events_checked"),
        pool_restarts: metrics::counter("pool.restarts"),
        pool_shard_failures: metrics::counter("pool.shard_failures"),
        pool_spawn_fallbacks: metrics::counter("pool.spawn_fallbacks"),
        pool_verdict_latency_us: metrics::histogram("pool.verdict_latency_us"),
        pool_lag_events: metrics::gauge("pool.lag_events"),
        overload_ticks: metrics::counter("overload.ticks"),
        overload_lag_events: metrics::gauge("overload.lag_events"),
        overload_lag_peak: metrics::gauge("overload.lag_peak"),
        overload_occupancy_peak: metrics::gauge("overload.occupancy_peak"),
        overload_watchdog_rescues: metrics::counter("overload.watchdog_rescues"),
        overload_watchdog_quarantines: metrics::counter("overload.watchdog_quarantines"),
        checker_events: metrics::counter("checker.events"),
        checker_commits_applied: metrics::counter("checker.commits_applied"),
        checker_methods_completed: metrics::counter("checker.methods_completed"),
        checker_observers_checked: metrics::counter("checker.observers_checked"),
        checker_view_comparisons: metrics::counter("checker.view_comparisons"),
        checker_view_keys_compared: metrics::counter("checker.view_keys_compared"),
        checker_writes_replayed: metrics::counter("checker.writes_replayed"),
        checker_observer_window: metrics::histogram("checker.observer_window"),
        checker_batches: metrics::counter("checker.batches"),
        checker_batch_events: metrics::counter("checker.batch_events"),
        checker_batch_occupancy: metrics::histogram("checker.batch_occupancy"),
        checker_lin_windows_searched: metrics::counter("lin.windows_searched"),
        checker_lin_witness_backtracks: metrics::counter("lin.witness_backtracks"),
        decode_events: metrics::counter("decode.events"),
        decode_bytes: metrics::counter("decode.bytes"),
        decode_frames: metrics::counter("decode.frames"),
        decode_refills: metrics::counter("decode.refills"),
        online_checks: metrics::counter("online.checks"),
        segment_sealed: metrics::counter("segment.sealed"),
        segment_deleted: metrics::counter("segment.deleted"),
        checkpoint_written: metrics::counter("checkpoint.written"),
        checker_resume_seq: metrics::gauge("checker.resume_seq"),
        span_call_to_commit_ns: metrics::histogram("span.call_to_commit_ns"),
        span_call_to_return_ns: metrics::histogram("span.call_to_return_ns"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_registers_once_and_names_resolve() {
        let pm = pipeline();
        assert!(std::ptr::eq(pm, pipeline()));
        // The registry hands back the same cells by name.
        assert!(Arc::ptr_eq(
            &pm.log_events_appended,
            &metrics::counter("log.events_appended")
        ));
        assert!(Arc::ptr_eq(
            &pm.pool_lag_events,
            &metrics::gauge("pool.lag_events")
        ));
        assert!(Arc::ptr_eq(
            &pm.pool_verdict_latency_us,
            &metrics::histogram("pool.verdict_latency_us")
        ));
    }
}
