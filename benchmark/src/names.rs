//! Every name this benchmark reports. `BENCHMARK.json` lists the same
//! names (a test pins the two together); every later performance claim
//! in this repository is stated in them.

/// A metric's name and unit.
pub type Named = (&'static str, &'static str);

/// The six workloads, in the order `run.sh all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "offline_view",
    "offline_io_lin",
    "record_log_heavy",
    "online_sharded",
    "durable_continuous",
    "paced_online",
];

/// End-to-end metrics: `(name, unit, bound)`. Printed by an untraced run
/// (`--trace 0`) of every workload. `bound` is the share of the parent's
/// median a later change may lose before it counts as a regression.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("verified_events_per_s", "events/s", 0.25),
    ("logged_events_per_s", "events/s", 0.25),
    ("program_slowdown", "ratio", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
];

/// Checker cost cells: `(metric, scenario, kind)` for every scenario a
/// workload checks.
pub const CHECKER_CELLS: [(&str, &str, &str); 8] = [
    ("checker.view_ns_per_event.cache", "Cache", "view"),
    (
        "checker.view_ns_per_event.bst",
        "Multiset-BinaryTree",
        "view",
    ),
    ("checker.view_ns_per_event.blinktree", "BLinkTree", "view"),
    ("checker.view_ns_per_event.vector", "Vector", "view"),
    ("checker.io_ns_per_event.vector", "Vector", "io"),
    ("checker.io_ns_per_event.treiber", "Treiber-Stack", "io"),
    ("checker.lin_ns_per_event.treiber", "Treiber-Stack", "lin"),
    ("checker.lin_ns_per_event.msqueue", "MS-Queue", "lin"),
];

/// The layers of the ledger, in pipeline order, each with the metric
/// that carries its share of a repetition's estimated busy time.
pub const LAYERS: [(&str, &str); 7] = [
    ("program", "ledger.share.program"),
    ("log", "ledger.share.log"),
    ("shard", "ledger.share.shard"),
    ("channel", "ledger.share.channel"),
    ("codec", "ledger.share.codec"),
    ("segment", "ledger.share.segment"),
    ("checker", "ledger.share.checker"),
];

/// Per-layer metrics. Printed by a traced run (`--trace 1`) of every
/// workload; a layer that does not run on a workload reads 0 there,
/// which is itself the layer-separation evidence.
pub const PER_LAYER: [Named; 62] = [
    ("program.off_ns_per_call", "ns"),
    ("log.append_ns_per_event.off", "ns"),
    ("log.append_ns_per_event.io", "ns"),
    ("log.append_ns_per_event.view", "ns"),
    ("log.close_ms", "ms"),
    ("log.batches_submitted", "count"),
    ("log.backlog_parked", "count"),
    ("log.pressure_flushes", "count"),
    ("log.batch_occupancy_mean", "count"),
    ("shard.route_ns_per_event", "ns"),
    ("shard.batch_sends", "count"),
    ("shard.batch_occupancy_mean", "count"),
    ("shard.events_shed", "count"),
    ("channel.hop_ns_per_event.bounded", "ns"),
    ("channel.hop_ns_per_event.unbounded", "ns"),
    ("pool.finish_ms", "ms"),
    ("pool.lag_events_p50", "count"),
    ("pool.lag_events_max", "count"),
    ("pool.restarts", "count"),
    ("online.drain_ms", "ms"),
    ("codec.encode_ns_per_event", "ns"),
    ("codec.decode_ns_per_event", "ns"),
    ("codec.bytes_per_event", "B"),
    ("decode.refills", "count"),
    ("segment.write_ns_per_event", "ns"),
    ("segment.verify_ns_per_event", "ns"),
    ("segment.checkpoint_ms", "ms"),
    ("segment.sealed", "count"),
    ("segment.live_peak", "count"),
    ("checkpoint.written", "count"),
    ("checker.view_ns_per_event.cache", "ns"),
    ("checker.view_ns_per_event.bst", "ns"),
    ("checker.view_ns_per_event.blinktree", "ns"),
    ("checker.view_ns_per_event.vector", "ns"),
    ("checker.io_ns_per_event.vector", "ns"),
    ("checker.io_ns_per_event.treiber", "ns"),
    ("checker.lin_ns_per_event.treiber", "ns"),
    ("checker.lin_ns_per_event.msqueue", "ns"),
    ("checker.snapshots_taken", "count"),
    ("checker.snapshot_replays", "count"),
    ("checker.view_keys_compared", "count"),
    ("checker.writes_replayed", "count"),
    ("checker.batch_occupancy_mean", "count"),
    ("lin.windows_searched", "count"),
    ("lin.fastpath_hits", "count"),
    ("lin.witness_backtracks", "count"),
    ("witness.minimize_ms", "ms"),
    ("witness.oracle_runs", "count"),
    ("latency.verdict_ms_p50", "ms"),
    ("latency.verdict_ms_p99", "ms"),
    ("latency.generator_late_ms_p99", "ms"),
    ("reconcile.offline_ratio", "ratio"),
    ("ledger.share.program", "ratio"),
    ("ledger.share.log", "ratio"),
    ("ledger.share.shard", "ratio"),
    ("ledger.share.channel", "ratio"),
    ("ledger.share.codec", "ratio"),
    ("ledger.share.segment", "ratio"),
    ("ledger.share.checker", "ratio"),
    ("ledger.busiest_layer_share", "ratio"),
    ("ledger.slow_reps", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Counters read from `vyrd_rt::metrics::snapshot()` after the traced
/// repetitions: `(per-layer name, registry name)`. Reported per traced
/// repetition.
pub const REGISTRY_COUNTERS: [(&str, &str); 16] = [
    ("log.batches_submitted", "log.batches_submitted"),
    ("log.backlog_parked", "log.backlog_parked"),
    ("log.pressure_flushes", "log.pressure_flushes"),
    ("shard.batch_sends", "shard.batch_sends"),
    ("shard.events_shed", "shard.events_shed"),
    ("pool.restarts", "pool.restarts"),
    ("decode.refills", "decode.refills"),
    ("segment.sealed", "segment.sealed"),
    ("checkpoint.written", "checkpoint.written"),
    ("checker.snapshots_taken", "checker.snapshots_taken"),
    ("checker.snapshot_replays", "checker.snapshot_replays"),
    ("checker.view_keys_compared", "checker.view_keys_compared"),
    ("checker.writes_replayed", "checker.writes_replayed"),
    ("lin.windows_searched", "lin.windows_searched"),
    ("lin.fastpath_hits", "lin.fastpath_hits"),
    ("lin.witness_backtracks", "lin.witness_backtracks"),
];

/// Histogram means read from the registry the same way.
pub const REGISTRY_MEANS: [(&str, &str); 3] = [
    ("log.batch_occupancy_mean", "log.batch_occupancy"),
    ("shard.batch_occupancy_mean", "shard.batch_occupancy"),
    ("checker.batch_occupancy_mean", "checker.batch_occupancy"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A name a workload sets but `PER_LAYER` lacks would be dropped from
    /// the report without a word.
    #[test]
    fn every_derived_name_is_a_per_layer_metric() {
        let listed = |name: &str| PER_LAYER.iter().any(|(n, _)| *n == name);
        let derived = CHECKER_CELLS
            .iter()
            .map(|c| c.0)
            .chain(LAYERS.iter().map(|l| l.1))
            .chain(REGISTRY_COUNTERS.iter().map(|r| r.0))
            .chain(REGISTRY_MEANS.iter().map(|r| r.0));
        for name in derived {
            assert!(listed(name), "{name} is not in PER_LAYER");
        }
    }
}
