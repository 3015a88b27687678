//! Durable segmented log and checkpointed continuous verification.
//!
//! The in-memory [`EventLog`](crate::log::EventLog) retains every event
//! until the run ends, so a long-running program grows its log without
//! bound. This module spills the log to disk instead and checks it as it
//! grows, keeping *both* the resident memory and the on-disk footprint
//! bounded:
//!
//! 1. **Spilling** — [`EventLog::to_segments`](crate::log::EventLog::to_segments)
//!    forwards every merged run to a background writer thread which
//!    appends the events, in global order, to file-backed *segments*:
//!    each segment is an independent stream in the [`codec`](crate::codec)
//!    wire format (header + CRC'd frames), named after the *durable
//!    sequence number* of its first event. When a segment reaches the
//!    configured byte budget it is **sealed**: flushed, fsynced, and
//!    recorded in an append-only manifest.
//! 2. **Checking** — a [`ContinuousVerifier`] consumes sealed segments
//!    strictly in sequence order, feeding the events to per-object
//!    checkpointable checkers. Every few segments it serializes the full
//!    checker state (specification snapshot, in-flight executions,
//!    [`Degradation`](crate::violation::Degradation) ledger, resume
//!    position) into a [`checkpoint`] file and then — once a directory
//!    sync has made the checkpoint's rename durable — **deletes** the
//!    segments the checkpoint covers.
//! 3. **Recovery** — after a crash, [`ContinuousVerifier::open`] resumes
//!    from the newest readable checkpoint; the torn tail of the segment
//!    directory is recovered with
//!    [`read_log_recovering`](crate::codec::read_log_recovering) and any
//!    discarded bytes are charged to the degradation ledger, so a crash
//!    can downgrade a verdict to a degraded pass but never forge a clean
//!    one.
//!
//! The durable sequence numbers are assigned by the writer thread —
//! 0, 1, 2, … in delivery order — and are dense even when the in-memory
//! log's internal sequence had gaps (e.g. close-time jumps), so "the
//! first unchecked event" is always a single integer and segment files
//! tile the history without overlap.

pub mod checkpoint;
pub mod continuous;

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use vyrd_rt::channel::{self, Receiver, Sender};
use vyrd_rt::sync::Mutex;

use crate::codec;
use crate::event::Event;
use crate::log::LogMode;
use crate::metrics::pipeline;

pub use crate::checker::{SteppingChecker, SteppingFactory};
pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use continuous::{ContinuousOptions, ContinuousVerifier, StepProgress};

use std::sync::Arc;

/// File name extension of segment files.
const SEGMENT_SUFFIX: &str = ".vyl";
/// File name prefix of segment files.
const SEGMENT_PREFIX: &str = "seg-";
/// The manifest's file name inside the segment directory.
const MANIFEST_NAME: &str = "manifest.log";
/// First line of a manifest file.
const MANIFEST_HEADER: &str = "vyrd-segment-manifest v1";
/// Last line of the manifest of a writer that shut down in order. A
/// writer killed exactly between a seal and the next segment's creation
/// leaves no unsealed tail; this line's absence is then the only evidence
/// that the history ends short of the execution.
const MANIFEST_FINISHED: &str = "finished";

/// Configuration of a segment directory writer.
#[derive(Clone, Debug)]
pub struct SegmentConfig {
    /// Directory the segments, manifest, and checkpoints live in
    /// (created if missing).
    pub dir: PathBuf,
    /// Rotation budget: a segment is sealed once its encoded size
    /// (header + frames) reaches this many bytes.
    pub segment_bytes: u64,
}

impl SegmentConfig {
    /// Configuration with the default 64 KiB rotation budget.
    pub fn new<P: Into<PathBuf>>(dir: P) -> SegmentConfig {
        SegmentConfig {
            dir: dir.into(),
            segment_bytes: 64 * 1024,
        }
    }

    /// Replaces the rotation budget (clamped to at least 1).
    pub fn segment_bytes(mut self, bytes: u64) -> SegmentConfig {
        self.segment_bytes = bytes.max(1);
        self
    }
}

/// End-of-run accounting returned by [`SegmentLogHandle::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentWriterSummary {
    /// Segments sealed (including the final partial one).
    pub segments_sealed: u64,
    /// Events durably framed.
    pub events: u64,
    /// Bytes written across all segments (headers + frames).
    pub bytes: u64,
    /// The next durable sequence number (equals `events`).
    pub next_seq: u64,
}

/// File name of the segment whose first event has durable sequence
/// number `first_seq`, e.g. `seg-0000000000000042.vyl`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:016}{SEGMENT_SUFFIX}")
}

/// Inverse of [`segment_file_name`]; `None` for foreign files.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX)?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One segment file found in a segment directory.
#[derive(Clone, Debug)]
pub struct ScannedSegment {
    /// Path of the segment file.
    pub path: PathBuf,
    /// Durable sequence number of the segment's first event.
    pub first_seq: u64,
    /// Event count recorded in the manifest — `Some` for sealed
    /// segments, `None` for the unsealed tail (the segment that was
    /// open when the writer stopped or the process died).
    pub sealed_events: Option<u64>,
}

impl ScannedSegment {
    /// For sealed segments, the durable sequence number one past the
    /// segment's last event.
    pub fn end_seq(&self) -> Option<u64> {
        self.sealed_events.map(|n| self.first_seq + n)
    }
}

/// Lists the segment files of `dir` in sequence order, joining each with
/// its manifest entry (if sealed).
///
/// Manifest entries whose files were already deleted by the continuous
/// verifier are not reported — the checkpoint's resume position covers
/// them. A torn final manifest line (crash mid-append) is skipped; its
/// segment then shows up as an unsealed tail, which recovery handles.
///
/// # Errors
///
/// Propagates directory-listing I/O errors. A missing directory yields
/// an empty list.
pub fn scan_segments(dir: &Path) -> io::Result<Vec<ScannedSegment>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let manifest = read_manifest(dir)?;
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(first_seq) = parse_segment_file_name(name) else {
            continue;
        };
        segments.push(ScannedSegment {
            path: entry.path(),
            first_seq,
            sealed_events: manifest
                .iter()
                .find(|(first, _)| *first == first_seq)
                .map(|(_, events)| *events),
        });
    }
    segments.sort_by_key(|s| s.first_seq);
    Ok(segments)
}

/// Parses the manifest into `(first_seq, events)` entries, skipping
/// damaged lines. A missing manifest yields an empty list.
fn read_manifest(dir: &Path) -> io::Result<Vec<(u64, u64)>> {
    let file = match File::open(dir.join(MANIFEST_NAME)) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        let mut fields = line.split_ascii_whitespace();
        let (Some(name), Some(first), Some(events), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            continue; // header, blank, or torn line
        };
        let (Some(named), Ok(first), Ok(events)) =
            (parse_segment_file_name(name), first.parse(), events.parse())
        else {
            continue;
        };
        if named == first {
            entries.push((first, events));
        }
    }
    Ok(entries)
}

/// Durable sequence number one past the last event any manifest entry
/// seals, whether or not its segment file still exists.
pub(crate) fn sealed_end(dir: &Path) -> io::Result<u64> {
    let manifest = read_manifest(dir)?;
    Ok(manifest.iter().map(|(first, events)| first + events).max().unwrap_or(0))
}

/// `true` when the directory's writer sealed its tail and shut down in
/// order (see [`MANIFEST_FINISHED`]); `false` for a missing manifest.
pub(crate) fn writer_finished(dir: &Path) -> io::Result<bool> {
    match fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(manifest) => Ok(manifest.lines().last() == Some(MANIFEST_FINISHED)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Messages from [`SegmentLogHandle`]s (and the log's sink) to the
/// writer thread.
enum WriterMsg {
    /// A merged run of events, already in global order.
    Run(Vec<Event>),
    /// Flush buffered frames to the OS; reply when durable.
    Flush(Sender<io::Result<()>>),
    /// Seal the open segment and reply with the final accounting; the
    /// thread exits afterwards.
    Finish(Sender<io::Result<SegmentWriterSummary>>),
}

/// Handle to the background segment writer thread.
///
/// Cloneable; the log's sink holds one clone and the caller of
/// [`EventLog::to_segments`](crate::log::EventLog::to_segments) another.
/// Call [`SegmentLogHandle::finish`] **after**
/// [`EventLog::close`](crate::log::EventLog::close) so every appended
/// event has been delivered; it seals the open segment and joins the
/// thread. If the handle is simply dropped the thread still seals and
/// exits once every clone (including the sink's) is gone, but errors go
/// unreported.
#[derive(Clone)]
pub struct SegmentLogHandle {
    sender: Sender<WriterMsg>,
    thread: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl std::fmt::Debug for SegmentLogHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentLogHandle").finish_non_exhaustive()
    }
}

impl SegmentLogHandle {
    /// Creates the segment directory (and manifest, if new) and spawns
    /// the writer thread.
    pub(crate) fn spawn(mode: LogMode, config: SegmentConfig) -> io::Result<SegmentLogHandle> {
        fs::create_dir_all(&config.dir)?;
        let manifest_path = config.dir.join(MANIFEST_NAME);
        let mut manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest_path)?;
        if manifest.metadata()?.len() == 0 {
            writeln!(manifest, "{MANIFEST_HEADER}")?;
            manifest.flush()?;
        }
        let (sender, receiver) = channel::unbounded();
        let mut writer = Writer {
            dir: config.dir,
            mode,
            budget: config.segment_bytes.max(1),
            manifest,
            current: None,
            scratch: Vec::with_capacity(64),
            next_seq: 0,
            bytes_total: 0,
            segments_sealed: 0,
            error: None,
        };
        let thread = std::thread::Builder::new()
            .name("vyrd-segment-writer".into())
            .spawn(move || writer.run(receiver))?;
        Ok(SegmentLogHandle {
            sender,
            thread: Arc::new(Mutex::new(Some(thread))),
        })
    }

    /// Hands a merged run to the writer. Events sent after
    /// [`SegmentLogHandle::finish`] are dropped.
    pub(crate) fn append(&self, run: Vec<Event>) {
        if !run.is_empty() {
            let _ = self.sender.send(WriterMsg::Run(run));
        }
    }

    /// Flushes buffered frames to the operating system and waits for the
    /// writer to confirm, reporting any write error the writer has hit
    /// so far.
    ///
    /// # Errors
    ///
    /// Returns the writer's sticky I/O error, or an error if the writer
    /// thread has already finished.
    pub fn flush_sync(&self) -> io::Result<()> {
        let (ack, done) = channel::unbounded();
        if self.sender.send(WriterMsg::Flush(ack)).is_err() {
            return Err(writer_gone());
        }
        done.recv().map_err(|_| writer_gone())?
    }

    /// Seals the open segment, stops the writer thread, and returns the
    /// final accounting. Call after
    /// [`EventLog::close`](crate::log::EventLog::close).
    ///
    /// # Errors
    ///
    /// Returns the writer's sticky I/O error (the thread still exits),
    /// or an error if the writer already finished.
    pub fn finish(&self) -> io::Result<SegmentWriterSummary> {
        let (ack, done) = channel::unbounded();
        if self.sender.send(WriterMsg::Finish(ack)).is_err() {
            return Err(writer_gone());
        }
        let summary = done.recv().map_err(|_| writer_gone())?;
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
        summary
    }
}

fn writer_gone() -> io::Error {
    io::Error::other("segment writer thread already finished")
}

/// The open (not yet sealed) segment.
struct OpenSegment {
    file: BufWriter<File>,
    first_seq: u64,
    events: u64,
    bytes: u64,
}

/// State owned by the writer thread.
struct Writer {
    dir: PathBuf,
    mode: LogMode,
    budget: u64,
    manifest: File,
    current: Option<OpenSegment>,
    scratch: Vec<u8>,
    /// Durable sequence number of the next event to arrive.
    next_seq: u64,
    bytes_total: u64,
    segments_sealed: u64,
    /// Sticky first error: once set, later events are dropped and every
    /// flush/finish reports it.
    error: Option<io::Error>,
}

impl Writer {
    fn run(&mut self, receiver: Receiver<WriterMsg>) {
        loop {
            match receiver.recv() {
                Ok(WriterMsg::Run(run)) => self.append_run(run),
                Ok(WriterMsg::Flush(ack)) => {
                    let _ = ack.send(self.flush());
                }
                Ok(WriterMsg::Finish(ack)) => {
                    let result = self.finish().map(|()| SegmentWriterSummary {
                        segments_sealed: self.segments_sealed,
                        events: self.next_seq,
                        bytes: self.bytes_total,
                        next_seq: self.next_seq,
                    });
                    let _ = ack.send(result);
                    return;
                }
                // Every handle (and the log's sink) is gone: seal what we
                // have and exit.
                Err(_) => {
                    let _ = self.finish();
                    return;
                }
            }
        }
    }

    fn append_run(&mut self, run: Vec<Event>) {
        for event in run {
            if self.error.is_some() {
                return;
            }
            if let Err(e) = self.append_event(&event) {
                self.error = Some(e);
                return;
            }
        }
    }

    fn append_event(&mut self, event: &Event) -> io::Result<()> {
        if self.current.is_none() {
            let first_seq = self.next_seq;
            let path = self.dir.join(segment_file_name(first_seq));
            let mut file = BufWriter::new(File::create(path)?);
            codec::write_header(&mut file, self.mode)?;
            self.current = Some(OpenSegment {
                file,
                first_seq,
                events: 0,
                bytes: codec::HEADER_LEN,
            });
        }
        // `current` was just ensured above.
        let Some(seg) = self.current.as_mut() else {
            return Ok(());
        };
        codec::write_frame_with(&mut seg.file, &mut self.scratch, event)?;
        seg.bytes += 8 + self.scratch.len() as u64;
        seg.events += 1;
        self.next_seq += 1;
        if seg.bytes >= self.budget {
            self.seal()?;
        }
        Ok(())
    }

    /// Seals the open segment: flush, fsync, manifest entry. No-op when
    /// no segment is open.
    fn seal(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(mut seg) = self.current.take() else {
            return Ok(());
        };
        seg.file.flush()?;
        seg.file.get_ref().sync_all()?;
        writeln!(
            self.manifest,
            "{} {} {}",
            segment_file_name(seg.first_seq),
            seg.first_seq,
            seg.events
        )?;
        self.manifest.flush()?;
        self.manifest.sync_all()?;
        self.bytes_total += seg.bytes;
        self.segments_sealed += 1;
        if vyrd_rt::metrics::enabled() {
            pipeline().segment_sealed.inc();
        }
        Ok(())
    }

    /// Orderly shutdown: seals the open segment, then records in the
    /// manifest that the history is complete.
    fn finish(&mut self) -> io::Result<()> {
        self.seal()?;
        writeln!(self.manifest, "{MANIFEST_FINISHED}")?;
        self.manifest.flush()?;
        self.manifest.sync_all()
    }

    /// Flushes the open segment's buffered frames to the OS (no fsync,
    /// no seal).
    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = &self.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        match self.current.as_mut() {
            Some(seg) => seg.file.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MethodId, ThreadId};
    use crate::value::Value;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vyrd-{tag}-{}", std::process::id()))
    }

    fn call(i: i64) -> Event {
        Event::Call {
            tid: ThreadId(0),
            object: crate::event::ObjectId(0),
            method: MethodId::from("M"),
            args: crate::event::ArgList::from_slice(&[Value::from(i)]),
        }
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(42), "seg-0000000000000042.vyl");
        assert_eq!(parse_segment_file_name("seg-0000000000000042.vyl"), Some(42));
        assert_eq!(parse_segment_file_name("seg-42.vyl"), None);
        assert_eq!(parse_segment_file_name("checkpoint-0.vyc"), None);
        assert_eq!(parse_segment_file_name("seg-00000000000000xx.vyl"), None);
    }

    #[test]
    fn writer_rotates_seals_and_records_the_manifest() {
        let dir = temp_dir("segment-rotate");
        let handle = SegmentLogHandle::spawn(
            LogMode::Io,
            SegmentConfig::new(&dir).segment_bytes(64),
        )
        .unwrap();
        handle.append((0..20).map(call).collect());
        handle.flush_sync().unwrap();
        let summary = handle.finish().unwrap();
        assert_eq!(summary.events, 20);
        assert_eq!(summary.next_seq, 20);
        assert!(summary.segments_sealed >= 2, "{summary:?}");

        let segments = scan_segments(&dir).unwrap();
        assert_eq!(segments.len() as u64, summary.segments_sealed);
        // Sealed segments tile the sequence space without gaps.
        let mut next = 0;
        for seg in &segments {
            assert_eq!(seg.first_seq, next);
            let events = seg.sealed_events.expect("all segments sealed");
            assert!(events > 0);
            next += events;
        }
        assert_eq!(next, 20);
        // Each segment is an independently decodable stream.
        let first = std::fs::read(&segments[0].path).unwrap();
        let decoded = codec::read_log(&mut &first[..]).unwrap();
        assert_eq!(decoded.len() as u64, segments[0].sealed_events.unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_twice_reports_writer_gone() {
        let dir = temp_dir("segment-finish-twice");
        let handle =
            SegmentLogHandle::spawn(LogMode::Io, SegmentConfig::new(&dir)).unwrap();
        handle.finish().unwrap();
        assert!(handle.finish().is_err());
        assert!(handle.flush_sync().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_line_is_skipped() {
        let dir = temp_dir("segment-torn-manifest");
        let handle = SegmentLogHandle::spawn(
            LogMode::Io,
            SegmentConfig::new(&dir).segment_bytes(1),
        )
        .unwrap();
        handle.append(vec![call(1), call(2)]);
        handle.finish().unwrap();
        // A writer killed mid-append: no `finished` line, and the final
        // entry torn.
        let path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&path).unwrap();
        let killed = text.strip_suffix("finished\n").unwrap();
        let torn = &killed[..killed.len() - 4];
        std::fs::write(&path, torn).unwrap();
        let segments = scan_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        assert!(segments[0].sealed_events.is_some());
        // The torn entry's segment is now an unsealed tail candidate.
        assert_eq!(segments[1].sealed_events, None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
