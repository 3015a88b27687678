//! The continuous verifier: checks a segment directory as it grows,
//! checkpointing its state and deleting fully-checked segments.
//!
//! [`ContinuousVerifier`] is the consumer half of the segmented log
//! (see the [module docs](super)). It is single-threaded and driven by
//! polling: each [`ContinuousVerifier::step`] call checks every segment
//! the manifest has sealed since the last call, in strict durable-
//! sequence order; [`ContinuousVerifier::finalize`] additionally
//! recovers the unsealed tail (legitimately torn after a crash) and
//! folds the per-object reports into one merged
//! [`Report`](crate::violation::Report), exactly like
//! [`VerifierPool::finish_all`](crate::pool::VerifierPool::finish_all).
//!
//! Crash-recovery invariants:
//!
//! * **Checkpoint-then-delete** — a segment is deleted only after a
//!   checkpoint with `next_seq` past its end was fsynced and renamed
//!   into place, so the union of (newest readable checkpoint, surviving
//!   segments) always covers the durable history.
//! * **Torn data degrades, never forges** — bytes discarded while
//!   recovering the tail, sealed segments that decode short, and holes
//!   left by missing files are charged to the
//!   [`Degradation`](crate::violation::Degradation) ledger, so the final
//!   verdict can be a degraded pass but never a clean `PASS` over a
//!   damaged history.
//! * **Strict order** — events past a hole or a damaged segment are
//!   never fed to a checker (their prefix context is gone); they are
//!   counted as lost instead.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io;
use std::path::PathBuf;

use crate::checker::state::StateError;
use crate::checker::{SteppingChecker, SteppingFactory};
use crate::codec::{self, DecodeOutcome};
use crate::event::{Event, ObjectId};
use crate::metrics::pipeline;
use crate::violation::{Degradation, Report};

use super::checkpoint::{self, Checkpoint};
use super::{scan_segments, sealed_end, writer_finished, ScannedSegment};

/// Tuning knobs for the continuous verifier.
#[derive(Clone, Debug)]
pub struct ContinuousOptions {
    /// Checkpoint after this many newly checked segments (≥ 1).
    pub checkpoint_every_segments: u64,
    /// Delete segments once a checkpoint covers them (disable to keep
    /// the full history, e.g. to re-check it from scratch afterwards).
    pub delete_checked: bool,
}

impl Default for ContinuousOptions {
    fn default() -> ContinuousOptions {
        ContinuousOptions {
            checkpoint_every_segments: 1,
            delete_checked: true,
        }
    }
}

/// What one [`ContinuousVerifier::step`] call accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepProgress {
    /// Sealed segments fully checked by this call.
    pub segments_checked: u64,
    /// Events fed to checkers by this call.
    pub events_checked: u64,
}

/// Checks a segment directory incrementally with bounded memory.
///
/// See the [module docs](self) for the polling protocol and the
/// crash-recovery invariants.
pub struct ContinuousVerifier {
    dir: PathBuf,
    factory: SteppingFactory,
    options: ContinuousOptions,
    checkers: BTreeMap<ObjectId, Box<dyn SteppingChecker>>,
    /// Durable sequence number of the first unchecked event.
    next_seq: u64,
    /// The `next_seq` recovered from the checkpoint at open time.
    resume_seq: u64,
    segments_since_checkpoint: u64,
    degradation: Degradation,
    /// Set when a hole or damaged sealed segment makes everything after
    /// it uncheckable; consumption stops, accounting continues.
    stalled: bool,
}

impl std::fmt::Debug for ContinuousVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousVerifier")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .field("resume_seq", &self.resume_seq)
            .field("objects", &self.checkers.len())
            .field("stalled", &self.stalled)
            .finish_non_exhaustive()
    }
}

impl ContinuousVerifier {
    /// Opens a segment directory for checking, resuming from the newest
    /// checkpoint whose payload decodes *and* whose checker states
    /// restore; without one, checking starts at sequence 0 with fresh
    /// checkers.
    ///
    /// # Errors
    ///
    /// Propagates directory I/O errors.
    pub fn open<P: Into<PathBuf>>(
        dir: P,
        factory: SteppingFactory,
        options: ContinuousOptions,
    ) -> io::Result<ContinuousVerifier> {
        let dir = dir.into();
        let mut verifier = ContinuousVerifier {
            dir,
            factory,
            options: ContinuousOptions {
                checkpoint_every_segments: options.checkpoint_every_segments.max(1),
                ..options
            },
            checkers: BTreeMap::new(),
            next_seq: 0,
            resume_seq: 0,
            segments_since_checkpoint: 0,
            degradation: Degradation::default(),
            stalled: false,
        };
        for path in checkpoint::list_checkpoints(&verifier.dir)? {
            let Ok(checkpoint) = checkpoint::read_checkpoint(&path) else {
                continue;
            };
            if verifier.restore(&checkpoint).is_ok() {
                break;
            }
            verifier.checkers.clear();
        }
        verifier.resume_seq = verifier.next_seq;
        if vyrd_rt::metrics::enabled() {
            pipeline().checker_resume_seq.set(verifier.next_seq);
        }
        Ok(verifier)
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), StateError> {
        let mut checkers = BTreeMap::new();
        for (object, state) in &checkpoint.states {
            let mut checker = (self.factory)(*object);
            checker.restore_state(state)?;
            checkers.insert(*object, checker);
        }
        self.checkers = checkers;
        self.next_seq = checkpoint.next_seq;
        self.degradation = checkpoint.degradation.clone();
        Ok(())
    }

    /// Durable sequence number of the first unchecked event.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The position checking resumed from at [`ContinuousVerifier::open`]
    /// (0 for a fresh directory).
    pub fn resume_seq(&self) -> u64 {
        self.resume_seq
    }

    /// `true` once a hole or damaged sealed segment stopped consumption.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Checks every sealed segment the manifest gained since the last
    /// call, checkpointing per
    /// [`ContinuousOptions::checkpoint_every_segments`] and deleting
    /// covered segments.
    ///
    /// # Errors
    ///
    /// Propagates segment-directory and checkpoint I/O errors.
    pub fn step(&mut self) -> io::Result<StepProgress> {
        let mut progress = StepProgress::default();
        if self.stalled {
            return Ok(progress);
        }
        let segments = scan_segments(&self.dir)?;
        for segment in &segments {
            let Some(end_seq) = segment.end_seq() else {
                continue; // unsealed tail: only `finalize` may touch it
            };
            if end_seq <= self.next_seq {
                continue; // already checked (and maybe awaiting deletion)
            }
            if self.hole_before(segment) {
                break;
            }
            let sealed_events = segment.sealed_events.unwrap_or(0);
            let (events, damage) = read_recovering(segment)?;
            let decoded = events.len() as u64;
            progress.events_checked += self.feed_from(segment.first_seq, events);
            if decoded < sealed_events || damage > 0 {
                // A *sealed* segment decoding short is real corruption
                // (the seal fsynced it): everything after it is lost.
                self.degradation.torn_bytes_discarded += damage;
                self.degradation.events_lost += sealed_events - decoded;
                self.next_seq = segment.first_seq + decoded;
                self.stalled = true;
                break;
            }
            self.next_seq = end_seq;
            progress.segments_checked += 1;
            self.segments_since_checkpoint += 1;
            if self.segments_since_checkpoint >= self.options.checkpoint_every_segments {
                self.checkpoint()?;
            }
        }
        Ok(progress)
    }

    /// Records a hole (missing segment file) in front of `segment`;
    /// returns `true` and stalls if one exists.
    fn hole_before(&mut self, segment: &ScannedSegment) -> bool {
        if segment.first_seq <= self.next_seq {
            return false;
        }
        self.degradation.events_lost += segment.first_seq - self.next_seq;
        self.stalled = true;
        true
    }

    /// Feeds `events` (the contents of the segment starting at
    /// `first_seq`) to the per-object checkers, skipping the prefix
    /// already covered by `next_seq`. Returns how many were fed.
    fn feed_from(&mut self, first_seq: u64, events: Vec<Event>) -> u64 {
        let mut fed = 0;
        for (i, event) in events.into_iter().enumerate() {
            let seq = first_seq + i as u64;
            if seq < self.next_seq {
                continue;
            }
            let object = event.object();
            let factory = &self.factory;
            let checker = self
                .checkers
                .entry(object)
                .or_insert_with(|| factory(object));
            checker.feed(event);
            fed += 1;
        }
        fed
    }

    /// Serializes every checker's state plus the degradation ledger into
    /// a new checkpoint file, then (if configured, and once the
    /// checkpoint's rename is durable) deletes the segments it covers.
    ///
    /// # Errors
    ///
    /// Fails when a checker state is not serializable
    /// ([`io::ErrorKind::InvalidInput`]) or on I/O errors; the previous
    /// checkpoint survives either way.
    pub fn checkpoint(&mut self) -> io::Result<PathBuf> {
        let mut states = Vec::with_capacity(self.checkers.len());
        for (object, checker) in &self.checkers {
            let state = checker.save_state().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("object {} state not checkpointable: {e}", object.0),
                )
            })?;
            states.push((*object, state));
        }
        let written = checkpoint::write_checkpoint(
            &self.dir,
            &Checkpoint {
                next_seq: self.next_seq,
                states,
                degradation: self.degradation.clone(),
            },
        )?;
        self.segments_since_checkpoint = 0;
        // Covered segments go only once the checkpoint's rename is
        // durable; otherwise they stay, and a resume that finds an older
        // checkpoint re-verifies them instead of meeting a hole.
        if self.options.delete_checked && written.dir_synced {
            self.delete_covered()?;
        }
        Ok(written.path)
    }

    /// Deletes sealed segments lying entirely below `next_seq`.
    fn delete_covered(&self) -> io::Result<()> {
        for segment in scan_segments(&self.dir)? {
            if matches!(segment.end_seq(), Some(end) if end <= self.next_seq) {
                fs::remove_file(&segment.path)?;
                if vyrd_rt::metrics::enabled() {
                    pipeline().segment_deleted.inc();
                }
            }
        }
        Ok(())
    }

    /// Finishes the run: checks any remaining sealed segments, recovers
    /// the unsealed tail (torn frames tolerated and charged to the
    /// ledger), writes a final checkpoint, and merges the per-object
    /// reports.
    ///
    /// Call once the writer has stopped (after
    /// [`SegmentLogHandle::finish`](super::SegmentLogHandle::finish), or
    /// when recovering a directory whose writer process died).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and non-checkpointable-state errors from
    /// the final checkpoint.
    pub fn finalize(mut self) -> io::Result<Report> {
        self.step()?;
        // Sealed history whose files are gone and that no restorable
        // checkpoint covers is a hole even with no later segment for
        // `hole_before` to measure it against.
        let sealed_end = sealed_end(&self.dir)?;
        if !self.stalled && sealed_end > self.next_seq {
            self.degradation.events_lost += sealed_end - self.next_seq;
            self.stalled = true;
        }
        let mut crash_evidence = self.stalled || !writer_finished(&self.dir)?;
        if !self.stalled {
            crash_evidence |= self.consume_tail()?;
        }
        if crash_evidence {
            // The durable history demonstrably ends short of the real
            // execution (unsealed tail, torn frames, a hole, or a writer
            // that never shut down), so a
            // commit whose return is missing at EOF is lost coverage,
            // not a malformed log.
            for checker in self.checkers.values_mut() {
                checker.mark_input_truncated();
            }
        }
        self.checkpoint()?;
        let mut merged = Report::default();
        for (_, checker) in std::mem::take(&mut self.checkers) {
            merged.absorb(&checker.finish());
        }
        merged.degradation.absorb(&self.degradation);
        Ok(merged)
    }

    /// Consumes the unsealed tail segments (files past the manifest's
    /// coverage) with torn-tail recovery. Only the *last* file may be
    /// torn legitimately; damage in front of surviving data stalls
    /// consumption and counts the survivors as lost. Returns `true` when
    /// the directory shows crash evidence (an unsealed tail exists — a
    /// clean [`SegmentLogHandle::finish`](super::SegmentLogHandle::finish)
    /// seals everything — or frames were torn).
    fn consume_tail(&mut self) -> io::Result<bool> {
        let segments = scan_segments(&self.dir)?;
        let tails: Vec<&ScannedSegment> = segments
            .iter()
            .filter(|s| s.sealed_events.is_none())
            .collect();
        let crash_evidence = !tails.is_empty();
        for segment in tails {
            if self.stalled {
                // Unreachable data behind damage: count its payload as
                // discarded so the verdict cannot claim full coverage.
                let len = fs::metadata(&segment.path).map(|m| m.len()).unwrap_or(0);
                self.degradation.torn_bytes_discarded += len;
                continue;
            }
            if segment.first_seq < self.next_seq {
                // A tail file the checkpoint already covers (e.g. sealed
                // right before the crash, manifest line lost): skip the
                // checked prefix below.
            } else if self.hole_before(segment) {
                let len = fs::metadata(&segment.path).map(|m| m.len()).unwrap_or(0);
                self.degradation.torn_bytes_discarded += len;
                continue;
            }
            let (events, damage) = read_recovering(segment)?;
            let decoded = events.len() as u64;
            self.feed_from(segment.first_seq, events);
            self.next_seq = segment.first_seq + decoded;
            if damage > 0 {
                self.degradation.torn_bytes_discarded += damage;
                // Anything after a torn file lost its prefix.
                self.stalled = true;
            }
        }
        Ok(crash_evidence)
    }
}

/// Reads one segment file, tolerating (and measuring) a damaged tail.
/// Returns the decoded events and the number of damaged bytes.
fn read_recovering(segment: &ScannedSegment) -> io::Result<(Vec<Event>, u64)> {
    let file = File::open(&segment.path)?;
    Ok(match codec::read_log_recovering(file) {
        DecodeOutcome::Complete { records } => (records, 0),
        DecodeOutcome::RecoveredPrefix {
            records,
            bytes_discarded,
            ..
        } => (records, bytes_discarded),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::checker::Checker;
    use crate::log::LogMode;
    use crate::segment::{SegmentConfig, SegmentLogHandle};
    use crate::spec::{MethodKind, Spec, SpecEffect, SpecError};
    use crate::value::Value;
    use crate::view::View;
    use crate::MethodId;

    /// A multiset-flavoured spec small enough for unit tests.
    #[derive(Clone, Default)]
    struct CountSpec(std::collections::BTreeMap<i64, u64>);

    impl Spec for CountSpec {
        fn kind(&self, m: &MethodId) -> MethodKind {
            if m.name() == "Get" {
                MethodKind::Observer
            } else {
                MethodKind::Mutator
            }
        }

        fn apply(
            &mut self,
            m: &MethodId,
            args: &[Value],
            _ret: &Value,
        ) -> Result<SpecEffect, SpecError> {
            let x = args[0].as_int().ok_or_else(|| SpecError::new("non-int"))?;
            match m.name() {
                "Add" => {
                    *self.0.entry(x).or_insert(0) += 1;
                    Ok(SpecEffect::touching([x]))
                }
                other => Err(SpecError::new(format!("unknown {other}"))),
            }
        }

        fn accepts_observation(&self, _m: &MethodId, args: &[Value], ret: &Value) -> bool {
            let x = args[0].as_int().unwrap_or(0);
            ret.as_int() == Some(self.0.get(&x).copied().unwrap_or(0) as i64)
        }

        fn view(&self) -> View {
            self.0
                .iter()
                .map(|(&x, &n)| (Value::from(x), Value::from(n)))
                .collect()
        }

        fn save_state(&self) -> Option<Value> {
            Some(Value::List(
                self.0
                    .iter()
                    .map(|(&x, &n)| Value::pair(Value::from(x), Value::from(n as i64)))
                    .collect(),
            ))
        }

        fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
            let entries = state
                .as_list()
                .ok_or_else(|| SpecError::new("state must be a list"))?;
            self.0.clear();
            for e in entries {
                let (x, n) = e.as_pair().ok_or_else(|| SpecError::new("pair"))?;
                let (Some(x), Some(n)) = (x.as_int(), n.as_int()) else {
                    return Err(SpecError::new("ints"));
                };
                self.0.insert(x, n as u64);
            }
            Ok(())
        }
    }

    fn factory() -> SteppingFactory {
        Arc::new(|_| Box::new(Checker::io(CountSpec::default())))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vyrd-{tag}-{}", std::process::id()))
    }

    /// Records `rounds` Add/Get pairs through a segmented log and
    /// returns the directory.
    fn record(dir: &PathBuf, rounds: i64, budget: u64) -> u64 {
        let handle = SegmentLogHandle::spawn(
            LogMode::Io,
            SegmentConfig::new(dir).segment_bytes(budget),
        )
        .unwrap();
        let mut events = Vec::new();
        for i in 0..rounds {
            let tid = crate::event::ThreadId(0);
            let object = ObjectId(0);
            events.push(Event::Call {
                tid,
                object,
                method: MethodId::from("Add"),
                args: crate::event::ArgList::from_slice(&[Value::from(i % 5)]),
            });
            events.push(Event::Commit { tid, object });
            events.push(Event::Return {
                tid,
                object,
                method: MethodId::from("Add"),
                ret: Value::Unit,
            });
        }
        let total = events.len() as u64;
        handle.append(events);
        let summary = handle.finish().unwrap();
        assert_eq!(summary.events, total);
        total
    }

    #[test]
    fn checker_state_of_any_other_layout_is_rejected() {
        let mut checker = Checker::io(CountSpec::default());
        let saved = checker.save_state().unwrap();
        checker.restore_state(&saved).unwrap();
        // A checkpoint file is outside input: any other field count must
        // fail to restore, not default.
        let Value::List(mut fields) = saved else {
            panic!("state is a list")
        };
        fields.pop();
        let err = checker.restore_state(&Value::List(fields)).unwrap_err();
        assert!(err.message().contains("expected 11 fields"), "{err}");
        // So must the retired version-2 layout, and a state of today's
        // field count under its version tag.
        let saved = checker.save_state().unwrap();
        let mut retagged = saved.as_list().unwrap().to_vec();
        retagged[0] = Value::from(2i64);
        for retired in [as_version_2(&saved), Value::List(retagged)] {
            let err = checker.restore_state(&retired).unwrap_err();
            assert!(
                err.message().contains("unsupported checkpoint state version"),
                "{err}"
            );
        }
    }

    /// A saved (version-3) checker state, hand-built into the retired
    /// version-2 layout: field 0 = 2 and the 15 fields of that layout —
    /// the scan-ahead queue, the two per-window-state maps and the
    /// `[base, sigs]` signature log back in their places (all empty), 15
    /// stats counters, 7-item pending entries.
    fn as_version_2(state: &Value) -> Value {
        let f = state.as_list().expect("state is a list");
        let empty = || Value::List(Vec::new());
        let mut stats = f[3].as_list().expect("stats").to_vec();
        for at in [4, 11, 14] {
            stats.insert(at, Value::from(0i64));
        }
        let pending = f[6].as_list().expect("pending").iter();
        let pending = pending.map(|p| Value::List(p.as_list().expect("entry")[..7].to_vec()));
        Value::List(vec![
            Value::from(2i64),
            f[1].clone(),
            f[2].clone(),
            Value::List(stats),
            f[4].clone(),
            empty(),
            f[5].clone(),
            Value::List(pending.collect()),
            f[7].clone(),
            empty(),
            f[8].clone(),
            f[9].clone(),
            f[10].clone(),
            empty(),
            Value::List(vec![Value::from(0i64), empty()]),
        ])
    }

    #[test]
    fn retired_checkpoint_layout_degrades_never_forges() {
        for delete_checked in [false, true] {
            let dir = temp_dir(&format!("continuous-v2-state-{delete_checked}"));
            std::fs::remove_dir_all(&dir).ok();
            let total = record(&dir, 40, 256);
            let options = ContinuousOptions {
                delete_checked,
                ..ContinuousOptions::default()
            };
            let mut first = ContinuousVerifier::open(&dir, factory(), options.clone()).unwrap();
            first.step().unwrap();
            assert!(first.next_seq() > 0);
            drop(first);

            // Leave one checkpoint, its states in the version-2 layout.
            let checkpoints = checkpoint::list_checkpoints(&dir).unwrap();
            let mut newest = checkpoint::read_checkpoint(&checkpoints[0]).unwrap();
            for (_, state) in &mut newest.states {
                *state = as_version_2(state);
            }
            for path in checkpoints {
                std::fs::remove_file(path).unwrap();
            }
            checkpoint::write_checkpoint(&dir, &newest).unwrap();

            let resumed = ContinuousVerifier::open(&dir, factory(), options).unwrap();
            assert_eq!(resumed.resume_seq(), 0, "an unreadable state resumes nothing");
            let report = resumed.finalize().unwrap();
            if delete_checked {
                // The segments the checkpoint covered are gone: a hole.
                assert!(report.is_degraded(), "{report:?}");
                assert!(report.degradation.events_lost > 0);
            } else {
                // Everything is still on disk: the from-scratch verdict.
                assert!(report.passed() && !report.is_degraded(), "{report:?}");
                assert_eq!(report.stats.events, total);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn checks_deletes_and_resumes() {
        let dir = temp_dir("continuous-basic");
        std::fs::remove_dir_all(&dir).ok();
        let total = record(&dir, 40, 256);

        let mut verifier =
            ContinuousVerifier::open(&dir, factory(), ContinuousOptions::default()).unwrap();
        let progress = verifier.step().unwrap();
        assert!(progress.segments_checked > 1, "{progress:?}");
        // Checked segments were deleted; only the ones past the last
        // checkpoint remain.
        let remaining = scan_segments(&dir).unwrap();
        assert!(
            (remaining.len() as u64) < progress.segments_checked,
            "expected deletions, {} segments remain",
            remaining.len()
        );
        let report = verifier.finalize().unwrap();
        assert!(report.passed(), "{report:?}");
        assert!(!report.is_degraded(), "{:?}", report.degradation);
        assert_eq!(report.stats.events, total);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumes_from_checkpoint_without_rechecking() {
        let dir = temp_dir("continuous-resume");
        std::fs::remove_dir_all(&dir).ok();
        let total = record(&dir, 40, 256);

        // First pass: check a few segments, checkpoint, then drop the
        // verifier (simulating a crash after the checkpoint).
        let mut first =
            ContinuousVerifier::open(&dir, factory(), ContinuousOptions::default()).unwrap();
        first.step().unwrap();
        let reached = first.next_seq();
        assert!(reached > 0);
        drop(first);

        // Second pass resumes exactly at the checkpointed position.
        let resumed =
            ContinuousVerifier::open(&dir, factory(), ContinuousOptions::default()).unwrap();
        assert_eq!(resumed.resume_seq(), reached);
        let report = resumed.finalize().unwrap();
        assert!(report.passed(), "{report:?}");
        assert!(!report.is_degraded());
        // Events checked across both processes cover the full history:
        // the resumed run checked total - reached, and recovery restored
        // the counters for the first `reached`.
        assert_eq!(report.stats.events, total);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_degrades_but_never_fails_clean_prefix() {
        let dir = temp_dir("continuous-torn");
        std::fs::remove_dir_all(&dir).ok();
        record(&dir, 40, 100_000); // single open segment, sealed at finish
        // Un-seal it: drop the manifest entry and tear the file.
        let manifest = dir.join("manifest.log");
        std::fs::write(&manifest, "vyrd-segment-manifest v1\n").unwrap();
        let seg = scan_segments(&dir).unwrap().remove(0);
        assert!(seg.sealed_events.is_none());
        let bytes = std::fs::read(&seg.path).unwrap();
        std::fs::write(&seg.path, &bytes[..bytes.len() - 3]).unwrap();

        let verifier =
            ContinuousVerifier::open(&dir, factory(), ContinuousOptions::default()).unwrap();
        let report = verifier.finalize().unwrap();
        assert!(report.passed(), "prefix is clean: {report:?}");
        assert!(report.is_degraded(), "torn bytes must degrade");
        assert!(report.degradation.torn_bytes_discarded > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writer SIGKILLed exactly between a seal and the next segment's
    /// creation leaves every file sealed: the manifest's missing
    /// `finished` line is the only crash evidence.
    #[test]
    fn kill_at_a_segment_boundary_degrades_instead_of_failing() {
        let dir = temp_dir("continuous-boundary-kill");
        for killed in [false, true] {
            std::fs::remove_dir_all(&dir).ok();
            let handle =
                SegmentLogHandle::spawn(LogMode::Io, SegmentConfig::new(&dir)).unwrap();
            let (tid, object) = (crate::event::ThreadId(0), ObjectId(0));
            // The history ends on a commit whose return was never logged.
            handle.append(vec![
                Event::Call {
                    tid,
                    object,
                    method: MethodId::from("Add"),
                    args: crate::event::ArgList::from_slice(&[Value::from(1i64)]),
                },
                Event::Commit { tid, object },
            ]);
            handle.finish().unwrap();
            if killed {
                let manifest = dir.join("manifest.log");
                let text = std::fs::read_to_string(&manifest).unwrap();
                std::fs::write(&manifest, text.strip_suffix("finished\n").unwrap()).unwrap();
            }
            let report =
                ContinuousVerifier::open(&dir, factory(), ContinuousOptions::default())
                    .unwrap()
                    .finalize()
                    .unwrap();
            if killed {
                assert!(report.passed(), "the kill must not forge a violation: {report:?}");
                assert_eq!(report.degradation.events_lost, 1, "{:?}", report.degradation);
            } else {
                // An orderly shutdown vouches for the history: the missing
                // return is the program's.
                assert_eq!(report.violation.unwrap().category(), "malformed-log");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sealed_segment_is_a_hole_not_a_pass() {
        let dir = temp_dir("continuous-hole");
        std::fs::remove_dir_all(&dir).ok();
        record(&dir, 40, 256);
        let segments = scan_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Delete a middle segment without any covering checkpoint.
        std::fs::remove_file(&segments[1].path).unwrap();

        let verifier =
            ContinuousVerifier::open(&dir, factory(), ContinuousOptions::default()).unwrap();
        let report = verifier.finalize().unwrap();
        assert!(report.is_degraded(), "{:?}", report.degradation);
        assert!(report.degradation.events_lost > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
