//! The traced run's instruments, all on the benchmark's side of the API:
//! spans around the calls into each layer (kept in memory, written with
//! the artifact) and a thread that samples the program's public gauges
//! every millisecond while a traced repetition runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vyrd_core::metrics::pipeline;
use vyrd_rt::sync::Mutex;

use crate::json::Json;

/// One benchmark-side span: `span.setup`, `span.program` (the program's
/// calls), `span.drain` (last return → verdict) or `span.verdict` (first
/// call, or first byte read, → verdict). `program` and `drain` are the
/// children of the repetition's `verdict` span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Repetition index (setup spans count set-ups).
    pub rep: usize,
    /// What ran (scenario and mode), when the span covers one.
    pub what: String,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

impl Span {
    /// The span as an artifact entry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("rep", Json::Int(self.rep as u64)),
            ("what", Json::str(self.what.clone())),
            ("start_ns", Json::Int(self.start_ns)),
            ("dur_ns", Json::Int(self.dur_ns)),
        ])
    }
}

/// What the gauge sampler saw over the traced repetitions.
#[derive(Clone, Debug, Default)]
pub struct GaugeSamples {
    /// Verifier lag in events (appended − received by a checker), one
    /// sample per millisecond in which a consume path was live.
    pub lag_events: Vec<f64>,
    /// Most segments alive at once (sealed − deleted).
    pub segments_live_peak: u64,
}

/// Samples the registry's gauges every millisecond while `active`.
pub struct Sampler {
    active: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<GaugeSamples>>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts the (initially idle) sampling thread.
    pub fn spawn() -> Sampler {
        let active = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(GaugeSamples::default()));
        let thread = {
            let (active, stop, samples) = (active.clone(), stop.clone(), samples.clone());
            std::thread::Builder::new()
                .name("bench-sampler".into())
                .spawn(move || {
                    let pm = pipeline();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                        if !active.load(Ordering::Relaxed) {
                            continue;
                        }
                        // Events a checker has taken off its channel so
                        // far: the batch-occupancy histogram is the one
                        // consume-side count the program updates live.
                        let received = pm.checker_batch_occupancy.sum();
                        let appended = pm.log_events_appended.get();
                        let live = pm
                            .segment_sealed
                            .get()
                            .saturating_sub(pm.segment_deleted.get());
                        let mut s = samples.lock();
                        if received > 0 {
                            s.lag_events.push(appended.saturating_sub(received) as f64);
                        }
                        s.segments_live_peak = s.segments_live_peak.max(live);
                    }
                })
                .expect("spawn the gauge sampler")
        };
        Sampler {
            active,
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// Turns sampling on or off (around a traced repetition).
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::Relaxed);
    }

    /// Stops the thread and returns everything it sampled.
    pub fn finish(mut self) -> GaugeSamples {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("gauge sampler thread");
        }
        std::mem::take(&mut *self.samples.lock())
    }
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}
