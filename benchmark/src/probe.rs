//! A specification wrapper that timestamps the moment the verifier
//! applies a marked call — the far end of the open-loop verdict latency.
//!
//! The generator issues one call in [`PROBE_EVERY`] with an argument at
//! or above [`PROBE_BASE`] (`PROBE_BASE + k` for the k-th probe) and
//! remembers when that call was *due*. [`ProbeSpec::apply`] recognises
//! the argument, stamps slot `k`, and delegates; everything else is pure
//! delegation, so the verdict is the wrapped specification's own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vyrd_core::spec::{MethodKind, Spec, SpecEffect, SpecError};
use vyrd_core::view::View;
use vyrd_core::{MethodId, Value};

/// Probe arguments start here — far above the workload's key range
/// (`0..1_000_000`), so no ordinary call is mistaken for a probe.
pub const PROBE_BASE: i64 = 1 << 40;

/// One call in this many carries a probe argument.
pub const PROBE_EVERY: u64 = 16;

/// The stamp slots one run's probes write into.
#[derive(Debug)]
pub struct ProbeStamps {
    epoch: Instant,
    /// ns since `epoch` at which probe `k` was applied; 0 = not yet.
    applied_ns: Vec<AtomicU64>,
}

impl ProbeStamps {
    /// Slots for `capacity` probes, timed against `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Arc<ProbeStamps> {
        Arc::new(ProbeStamps {
            epoch,
            applied_ns: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// When probe `k` was applied (ns since the epoch), if it was.
    pub fn applied_ns(&self, k: usize) -> Option<u64> {
        match self.applied_ns.get(k)?.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    fn stamp(&self, k: usize) {
        if let Some(slot) = self.applied_ns.get(k) {
            let ns = u64::try_from(self.epoch.elapsed().as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
            // First stamp wins: the checker re-applies commits onto
            // cloned states when it rebuilds an elided snapshot, and
            // that replay is not the verdict's first sight of the call.
            let _ = slot.compare_exchange(0, ns, Ordering::Relaxed, Ordering::Relaxed);
        }
    }
}

/// `S` plus a timestamp on every probe-marked `apply`.
#[derive(Clone, Debug)]
pub struct ProbeSpec<S> {
    inner: S,
    stamps: Arc<ProbeStamps>,
}

impl<S: Spec> ProbeSpec<S> {
    /// Wraps `inner`, stamping into `stamps`.
    pub fn new(inner: S, stamps: Arc<ProbeStamps>) -> ProbeSpec<S> {
        ProbeSpec { inner, stamps }
    }
}

impl<S: Spec> Spec for ProbeSpec<S> {
    fn kind(&self, method: &MethodId) -> MethodKind {
        self.inner.kind(method)
    }

    fn apply(
        &mut self,
        method: &MethodId,
        args: &[Value],
        ret: &Value,
    ) -> Result<SpecEffect, SpecError> {
        if let Some(x) = args.first().and_then(Value::as_int) {
            if x >= PROBE_BASE {
                self.stamps.stamp((x - PROBE_BASE) as usize);
            }
        }
        self.inner.apply(method, args, ret)
    }

    fn accepts_observation(&self, method: &MethodId, args: &[Value], ret: &Value) -> bool {
        self.inner.accepts_observation(method, args, ret)
    }

    fn view(&self) -> View {
        self.inner.view()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        self.inner.view_of(key)
    }

    fn save_state(&self) -> Option<Value> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        self.inner.restore_state(state)
    }

    fn observation_digest(&self) -> Option<Value> {
        self.inner.observation_digest()
    }

    fn accepts_observation_digest(
        &self,
        method: &MethodId,
        args: &[Value],
        ret: &Value,
        digest: &Value,
    ) -> bool {
        self.inner
            .accepts_observation_digest(method, args, ret, digest)
    }

    fn snapshot_stride(&self) -> Option<u64> {
        self.inner.snapshot_stride()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vyrd_core::checker::Checker;
    use vyrd_core::log::LogMode;
    use vyrd_harness::scenario::{record_run, Variant};
    use vyrd_harness::scenarios::JavaVectorScenario;
    use vyrd_harness::workload::WorkloadConfig;
    use vyrd_javalib::VectorSpec;

    fn trace(variant: Variant) -> Vec<vyrd_core::Event> {
        let cfg = WorkloadConfig {
            threads: 2,
            calls_per_thread: 400,
            key_pool: 6,
            ..WorkloadConfig::small()
        };
        record_run(&JavaVectorScenario, &cfg, LogMode::Io, variant).events
    }

    #[test]
    fn verdict_is_identical_to_the_bare_spec_on_the_same_trace() {
        for variant in [Variant::Correct, Variant::Buggy] {
            let events = trace(variant);
            let bare = Checker::io(VectorSpec::new()).check_events(events.clone());
            let stamps = ProbeStamps::new(Instant::now(), 8);
            let probed =
                Checker::io(ProbeSpec::new(VectorSpec::new(), stamps)).check_events(events);
            assert_eq!(probed.violation, bare.violation, "{variant:?}");
            assert_eq!(probed.stats, bare.stats, "{variant:?}");
        }
    }

    #[test]
    fn probe_arguments_are_stamped_once_and_others_never() {
        let stamps = ProbeStamps::new(Instant::now(), 2);
        let mut spec = ProbeSpec::new(VectorSpec::new(), Arc::clone(&stamps));
        let add = MethodId::from("Add");
        spec.apply(&add, &[Value::from(7i64)], &Value::Unit)
            .unwrap();
        assert_eq!(stamps.applied_ns(0), None);
        spec.apply(&add, &[Value::from(PROBE_BASE + 1)], &Value::Unit)
            .unwrap();
        let first = stamps.applied_ns(1).expect("probe 1 stamped");
        assert_eq!(stamps.applied_ns(0), None);
        // A replay onto a clone must not move the stamp.
        let mut clone = spec.clone();
        clone
            .apply(&add, &[Value::from(PROBE_BASE + 1)], &Value::Unit)
            .unwrap();
        assert_eq!(stamps.applied_ns(1), Some(first));
        // Out-of-range probes are ignored, not a panic.
        spec.apply(&add, &[Value::from(PROBE_BASE + 99)], &Value::Unit)
            .unwrap();
        assert_eq!(spec.inner.elems().len(), 3);
    }
}
