//! Each layer alone: a recorded trace replayed through one layer's public
//! functions, timed from outside. A traced run calls these after its
//! measured loop (metrics off again), so they never share a core with a
//! timed repetition.
//!
//! Every function returns nanoseconds per event (median of
//! [`REPLAYS`] replays after one untimed warm-up) unless it says
//! otherwise.

use std::collections::HashMap;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

use vyrd_core::codec::{self, LogReader};
use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::segment::{ContinuousOptions, ContinuousVerifier, SegmentConfig, SteppingFactory};
use vyrd_core::shard::{ShardConfig, ShardRouter};
use vyrd_core::{Event, ThreadLogger};
use vyrd_harness::scenario::{run_discarding, CheckKind, Scenario, Variant};
use vyrd_harness::workload::WorkloadConfig;
use vyrd_rt::channel;

use crate::stats::median;

/// Timed replays per layer cell.
pub const REPLAYS: usize = 3;

/// Events per `send_many` in the channel-hop replay — the log's own
/// per-thread batch size, so the hop is measured at the occupancy the
/// pipeline actually sends.
const HOP_BATCH: usize = 64;

/// Loggers a replay keeps alive at once.
const LIVE_LOGGERS: usize = 16;

fn median_ns_per_event(events: usize, mut once: impl FnMut() -> f64) -> f64 {
    if events == 0 {
        return 0.0;
    }
    once();
    let walls: Vec<f64> = (0..REPLAYS).map(|_| once()).collect();
    median(&walls) * 1e9 / events as f64
}

/// The program with logging off: ns per call.
pub fn program_off_ns_per_call(scenario: &dyn Scenario, cfg: &WorkloadConfig) -> f64 {
    median_ns_per_event(cfg.total_calls(), || {
        run_discarding(scenario, cfg, LogMode::Off, Variant::Correct)
            .0
            .as_secs_f64()
    })
}

/// Re-issues `events` through the `ThreadLogger` front door of `log`, one
/// logger per recorded thread, from the calling thread.
pub fn replay_through_loggers(log: &EventLog, events: &[Event]) {
    let mut loggers: HashMap<(u32, u32), ThreadLogger> = HashMap::new();
    for event in events {
        let (tid, object) = (event.tid(), event.object());
        // `run_multi` programs take a fresh handle — a fresh thread id
        // and append buffer — for every call. Retiring loggers in small
        // groups mirrors that (their buffers flush on drop, as the
        // program's do) and keeps the log's buffer registry from growing
        // with the trace; a program with a few long-lived threads never
        // reaches the limit.
        if loggers.len() >= LIVE_LOGGERS && !loggers.contains_key(&(tid.0, object.0)) {
            loggers.clear();
        }
        let logger = loggers
            .entry((tid.0, object.0))
            .or_insert_with(|| log.with_object(object).logger_for(tid));
        match event {
            Event::Call { method, args, .. } => logger.call(*method, args.as_slice()),
            Event::Return { method, ret, .. } => logger.ret_ref(*method, ret),
            Event::Commit { .. } => logger.commit(),
            Event::BlockBegin { .. } => logger.block_begin(),
            Event::BlockEnd { .. } => logger.block_end(),
            Event::Write { var, value, .. } => logger.write(var.clone(), value.clone()),
        }
    }
}

/// `log`: thread buffer, seq stamp and merger alone — the trace re-issued
/// into a discarding log in `mode`. With [`LogMode::Off`] this is the
/// cost of the mode gate per instrumentation site.
pub fn log_append_ns(events: &[Event], mode: LogMode) -> f64 {
    median_ns_per_event(events.len(), || {
        let log = EventLog::discarding(mode);
        let t = Instant::now();
        replay_through_loggers(&log, events);
        log.close();
        t.elapsed().as_secs_f64()
    })
}

/// `shard`: the router with a null consumer, minus `log_ns` — the same
/// replay into a discarding log ([`log_append_ns`]) — which leaves what
/// routing adds inside the append critical section (slot lookup,
/// per-object batching, `send_many`).
pub fn shard_route_ns(events: &[Event], mode: LogMode, config: ShardConfig, log_ns: f64) -> f64 {
    let routed = median_ns_per_event(events.len(), || {
        let (log, router) = ShardRouter::new(mode, config);
        std::thread::scope(|scope| {
            // Drain every announced shard without checking anything; a
            // bounded blocking shard needs its own live consumer.
            scope.spawn(|| {
                while let Ok((_, rx)) = router.recv_shard() {
                    scope.spawn(move || {
                        let mut buf = Vec::new();
                        while rx.recv_up_to(&mut buf, 1024).is_ok() {
                            buf.clear();
                        }
                    });
                }
            });
            let t = Instant::now();
            replay_through_loggers(&log, events);
            log.close();
            t.elapsed().as_secs_f64()
        })
    });
    (routed - log_ns).max(0.0)
}

/// `channel`: `send_many` → `recv_up_to` across two threads, in batches
/// of [`HOP_BATCH`], bounded at `capacity` or unbounded.
pub fn channel_hop_ns(events: &[Event], capacity: Option<usize>) -> f64 {
    median_ns_per_event(events.len(), || {
        let mut batches: Vec<Vec<Event>> =
            events.chunks(HOP_BATCH).map(<[Event]>::to_vec).collect();
        let (tx, rx) = match capacity {
            Some(n) => channel::bounded(n),
            None => channel::unbounded(),
        };
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for batch in &mut batches {
                    if tx.send_many(batch).is_err() {
                        break;
                    }
                }
            });
            let mut buf = Vec::new();
            let mut received = 0;
            while let Ok(n) = rx.recv_up_to(&mut buf, 1024) {
                received += n;
                buf.clear();
            }
            assert_eq!(received, events.len(), "the channel lost events");
        });
        t.elapsed().as_secs_f64()
    })
}

/// `codec` encode: `write_log` into memory. Returns (ns per event, bytes
/// per event, the encoding).
pub fn codec_encode(events: &[Event]) -> (f64, f64, Vec<u8>) {
    let mut bytes = Vec::new();
    let ns = median_ns_per_event(events.len(), || {
        bytes.clear();
        let t = Instant::now();
        codec::write_log(&mut bytes, events).expect("encode into memory");
        t.elapsed().as_secs_f64()
    });
    let per_event = bytes.len() as f64 / events.len().max(1) as f64;
    (ns, per_event, bytes)
}

/// `codec` decode: `LogReader` over whatever `open` opens (the encoding
/// in memory, or the trace file a workload reads), events dropped.
pub fn codec_decode_ns<R: Read>(open: impl Fn() -> R, events: usize) -> f64 {
    median_ns_per_event(events, || {
        let t = Instant::now();
        let decoded = LogReader::new(open()).expect("log header").count();
        assert_eq!(decoded, events, "decode lost events");
        t.elapsed().as_secs_f64()
    })
}

/// What the segment replays measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentCosts {
    /// `to_segments` + `finish`: encode, write, fsync, manifest.
    pub write_ns_per_event: f64,
    /// `open` → `step`* → `finalize`: scan, decode, check, checkpoint.
    pub verify_ns_per_event: f64,
    /// One explicit `checkpoint()` call, ms.
    pub checkpoint_ms: f64,
}

/// `segment`: the trace spilled to `segment_bytes` segments under `dir`
/// and verified from there, each half alone.
pub fn segment_costs(
    events: &[Event],
    mode: LogMode,
    dir: &Path,
    segment_bytes: u64,
    factory: &SteppingFactory,
) -> SegmentCosts {
    let mut checkpoint_ms = Vec::new();
    let mut verify = Vec::new();
    let write = median_ns_per_event(events.len(), || {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let (log, handle) =
            EventLog::to_segments(mode, SegmentConfig::new(dir).segment_bytes(segment_bytes))
                .expect("segment directory");
        for event in events {
            log.append_event(event.clone());
        }
        log.close();
        let summary = handle.finish().expect("segment writer");
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(summary.events, events.len() as u64, "segments lost events");

        let t = Instant::now();
        let mut verifier =
            ContinuousVerifier::open(dir, factory.clone(), ContinuousOptions::default())
                .expect("open segment directory");
        verifier.step().expect("step");
        let c = Instant::now();
        verifier.checkpoint().expect("checkpoint");
        checkpoint_ms.push(c.elapsed().as_secs_f64() * 1e3);
        let report = verifier.finalize().expect("finalize");
        verify.push(t.elapsed().as_secs_f64());
        assert!(report.passed(), "segment replay: {report}");
        wall
    });
    let _ = std::fs::remove_dir_all(dir);
    // The first (warm-up) replay's verify and checkpoint are dropped like
    // its write.
    SegmentCosts {
        write_ns_per_event: write,
        verify_ns_per_event: median(verify.get(1..).unwrap_or_default()) * 1e9
            / events.len().max(1) as f64,
        checkpoint_ms: median(checkpoint_ms.get(1..).unwrap_or_default()),
    }
}

/// `checker`: `check_full` over the trace in memory — spec `apply`,
/// observer windows, write replay, view compare, Lin search.
pub fn checker_ns(scenario: &dyn Scenario, kind: CheckKind, events: &[Event]) -> f64 {
    median_ns_per_event(events.len(), || {
        let input = events.to_vec();
        let t = Instant::now();
        let report = scenario.check_full(kind, input);
        let wall = t.elapsed().as_secs_f64();
        assert!(
            report.passed(),
            "{} {kind:?} replay: {report}",
            scenario.name()
        );
        wall
    })
}
