//! Checkpoint files: durable snapshots of the continuous verifier.
//!
//! A checkpoint captures everything the [`ContinuousVerifier`]
//! (super::continuous) needs to resume after a crash without re-reading
//! the segments it has already checked:
//!
//! * `next_seq` — the durable sequence number of the first *unchecked*
//!   event (every segment entirely below it may be deleted),
//! * one serialized checker state per object
//!   ([`Checker::save_state`](crate::checker::Checker::save_state)),
//! * the accumulated [`Degradation`] ledger.
//!
//! ## File format
//!
//! `checkpoint-{next_seq:016}.vyc`, written to a temporary file, fsynced,
//! and renamed into place so a crash mid-write can never leave a
//! half-written file under a checkpoint name:
//!
//! ```text
//! "VYCK"  magic            (4 bytes)
//! u32     CHECKPOINT_VERSION
//! u32     payload length
//! u32     CRC-32 of the payload
//! payload a single codec Value (see below)
//! ```
//!
//! The payload rides the [`codec`](crate::codec) `Value` wire format:
//! `[next_seq, degradation, [(object, state), …]]`. The two newest
//! checkpoints are retained; recovery falls back to the older one when
//! the newest is unreadable.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::codec::{self, crc32};
use crate::event::ObjectId;
use crate::metrics::pipeline;
use crate::value::Value;
use crate::violation::{Degradation, ShardFailure};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"VYCK";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File name extension of checkpoint files.
const CHECKPOINT_SUFFIX: &str = ".vyc";
/// File name prefix of checkpoint files.
const CHECKPOINT_PREFIX: &str = "checkpoint-";
/// Scratch name a checkpoint is written under before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// A continuous-verifier snapshot: resume position, per-object checker
/// states, and lost-coverage accounting.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Durable sequence number of the first event *not* covered by
    /// `states` — checking resumes here.
    pub next_seq: u64,
    /// Serialized checker state per object, in object order.
    pub states: Vec<(ObjectId, Value)>,
    /// Degradation accumulated so far (including torn bytes discarded by
    /// earlier recoveries).
    pub degradation: Degradation,
}

/// File name of the checkpoint taken at `next_seq`.
pub fn checkpoint_file_name(next_seq: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{next_seq:016}{CHECKPOINT_SUFFIX}")
}

/// Inverse of [`checkpoint_file_name`]; `None` for foreign files.
pub fn parse_checkpoint_file_name(name: &str) -> Option<u64> {
    let digits = name
        .strip_prefix(CHECKPOINT_PREFIX)?
        .strip_suffix(CHECKPOINT_SUFFIX)?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists the checkpoint files of `dir`, **newest first** (highest
/// `next_seq`). A missing directory yields an empty list.
///
/// # Errors
///
/// Propagates directory-listing I/O errors.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(next_seq) = parse_checkpoint_file_name(name) {
            found.push((next_seq, entry.path()));
        }
    }
    found.sort_by_key(|(next_seq, _)| std::cmp::Reverse(*next_seq));
    Ok(found.into_iter().map(|(_, path)| path).collect())
}

/// A checkpoint file [`write_checkpoint`] renamed into place.
#[derive(Clone, Debug)]
pub struct WrittenCheckpoint {
    /// The file's path.
    pub path: PathBuf,
    /// Whether the directory was synced after the rename. Until it is, a
    /// crash may lose the rename while later unlinks survive, so nothing
    /// the checkpoint supersedes — older checkpoints, covered segments —
    /// may be deleted yet.
    pub dir_synced: bool,
}

/// Atomically writes `checkpoint` into `dir` and, once the directory sync
/// has made the rename durable, prunes all but the two newest checkpoint
/// files.
///
/// Honors the `checkpoint.dir_sync` failpoint: a
/// [`Drop`](vyrd_rt::fault::FaultAction::Drop) disposition stands for a
/// failed directory sync.
///
/// # Errors
///
/// Propagates I/O errors; on error the previous checkpoints are intact.
/// A failed directory sync is not an error: it is reported in
/// [`WrittenCheckpoint::dir_synced`].
pub fn write_checkpoint(dir: &Path, checkpoint: &Checkpoint) -> io::Result<WrittenCheckpoint> {
    let mut payload = Vec::with_capacity(256);
    codec::write_value(&mut payload, &checkpoint_value(checkpoint))?;
    let tmp = dir.join(CHECKPOINT_TMP);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&CHECKPOINT_MAGIC)?;
        file.write_all(&CHECKPOINT_VERSION.to_le_bytes())?;
        file.write_all(&(payload.len() as u32).to_le_bytes())?;
        file.write_all(&crc32(&payload).to_le_bytes())?;
        file.write_all(&payload)?;
        file.sync_all()?;
    }
    let path = dir.join(checkpoint_file_name(checkpoint.next_seq));
    fs::rename(&tmp, &path)?;
    let dir_synced = !matches!(
        vyrd_rt::fault::inject("checkpoint.dir_sync"),
        vyrd_rt::fault::Disposition::Drop
    ) && File::open(dir).and_then(|d| d.sync_all()).is_ok();
    if dir_synced {
        for old in list_checkpoints(dir)?.into_iter().skip(2) {
            let _ = fs::remove_file(old);
        }
    }
    if vyrd_rt::metrics::enabled() {
        pipeline().checkpoint_written.inc();
    }
    Ok(WrittenCheckpoint { path, dir_synced })
}

/// Reads and validates one checkpoint file.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on bad magic, version, length, CRC, or
/// payload shape; plain I/O errors otherwise.
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let bytes = fs::read(path)?;
    let header = 4 + 4 + 4 + 4;
    if bytes.len() < header {
        return Err(malformed("checkpoint file shorter than its header"));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(malformed("not a vyrd checkpoint (bad magic)"));
    }
    let version = u32_at(&bytes, 4);
    if version != CHECKPOINT_VERSION {
        return Err(malformed(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let len = u32_at(&bytes, 8) as usize;
    let crc = u32_at(&bytes, 12);
    let payload = bytes
        .get(header..)
        .filter(|p| p.len() == len)
        .ok_or_else(|| malformed("checkpoint payload length mismatch"))?;
    if crc32(payload) != crc {
        return Err(malformed("checkpoint payload CRC mismatch"));
    }
    value_checkpoint(&codec::decode_value(payload)?)
}

/// Loads the newest checkpoint whose file decodes and validates,
/// silently skipping damaged ones. `Ok(None)` when no usable checkpoint
/// exists.
///
/// # Errors
///
/// Propagates directory-listing I/O errors (per-file damage is a
/// fallback, not an error).
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    for path in list_checkpoints(dir)? {
        if let Ok(checkpoint) = read_checkpoint(&path) {
            return Ok(Some(checkpoint));
        }
    }
    Ok(None)
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(buf)
}

fn malformed<E: Into<String>>(detail: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

// ---- Value encoding ---------------------------------------------------

fn value_u64(value: &Value) -> io::Result<u64> {
    value
        .as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| malformed("expected a non-negative integer"))
}

fn value_list(value: &Value) -> io::Result<&[Value]> {
    value.as_list().ok_or_else(|| malformed("expected a list"))
}

fn checkpoint_value(checkpoint: &Checkpoint) -> Value {
    let states = checkpoint
        .states
        .iter()
        .map(|(object, state)| Value::pair(Value::Int(i64::from(object.0)), state.clone()))
        .collect();
    Value::List(vec![
        // next_seq fits i64 for any run this side of the heat death.
        Value::Int(checkpoint.next_seq.min(i64::MAX as u64) as i64),
        degradation_value(&checkpoint.degradation),
        Value::List(states),
    ])
}

fn value_checkpoint(value: &Value) -> io::Result<Checkpoint> {
    let fields = value_list(value)?;
    let [next_seq, degradation, states] = fields else {
        return Err(malformed("checkpoint payload must have three fields"));
    };
    let mut parsed_states = Vec::new();
    for entry in value_list(states)? {
        let (object, state) = match entry {
            Value::Pair(p) => (&p.0, &p.1),
            _ => return Err(malformed("checker state entry must be a pair")),
        };
        let object = object
            .as_int()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| malformed("checker state object id must be a u32"))?;
        parsed_states.push((ObjectId(object), state.clone()));
    }
    Ok(Checkpoint {
        next_seq: value_u64(next_seq)?,
        degradation: value_degradation(degradation)?,
        states: parsed_states,
    })
}

fn degradation_value(d: &Degradation) -> Value {
    let sheds = d
        .sheds_by_object
        .iter()
        .map(|(object, n)| {
            Value::pair(
                Value::Int(i64::from(object.0)),
                Value::Int(*n as i64),
            )
        })
        .collect();
    let failures = d
        .shard_failures
        .iter()
        .map(|f| {
            Value::List(vec![
                Value::Int(i64::from(f.object.0)),
                Value::Str(f.panic_msg.clone()),
                Value::Int(f.events_lost as i64),
                Value::Int(i64::from(f.restarts)),
            ])
        })
        .collect();
    Value::List(vec![
        Value::List(sheds),
        Value::Int(d.events_lost as i64),
        Value::Int(d.restarts as i64),
        Value::List(failures),
        Value::Int(d.spawn_fallbacks as i64),
        Value::Int(d.lost_workers as i64),
        Value::Int(d.torn_bytes_discarded as i64),
    ])
}

fn value_degradation(value: &Value) -> io::Result<Degradation> {
    let fields = value_list(value)?;
    let [sheds, events_lost, restarts, failures, spawn_fallbacks, lost_workers, torn] = fields
    else {
        return Err(malformed("degradation record must have seven fields"));
    };
    let mut sheds_by_object = Vec::new();
    for entry in value_list(sheds)? {
        let Value::Pair(p) = entry else {
            return Err(malformed("shed entry must be a pair"));
        };
        let object = p
            .0
            .as_int()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| malformed("shed object id must be a u32"))?;
        sheds_by_object.push((ObjectId(object), value_u64(&p.1)?));
    }
    let mut shard_failures = Vec::new();
    for entry in value_list(failures)? {
        let [object, panic_msg, lost, restarts] = value_list(entry)? else {
            return Err(malformed("shard failure must have four fields"));
        };
        let object = object
            .as_int()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| malformed("shard failure object id must be a u32"))?;
        shard_failures.push(ShardFailure {
            object: ObjectId(object),
            panic_msg: panic_msg
                .as_str()
                .ok_or_else(|| malformed("shard failure panic message must be a string"))?
                .to_owned(),
            events_lost: value_u64(lost)?,
            restarts: value_u64(restarts)?
                .try_into()
                .map_err(|_| malformed("shard failure restart count overflows u32"))?,
        });
    }
    Ok(Degradation {
        sheds_by_object,
        events_lost: value_u64(events_lost)?,
        restarts: value_u64(restarts)?,
        shard_failures,
        spawn_fallbacks: value_u64(spawn_fallbacks)?,
        lost_workers: value_u64(lost_workers)?,
        torn_bytes_discarded: value_u64(torn)?,
        // The overload ledger (shed windows, watchdog events) belongs
        // to the in-process pool path; the continuous verifier never
        // produces it, so the checkpoint format stays at seven fields.
        ..Degradation::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vyrd-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            next_seq: 1234,
            states: vec![
                (ObjectId(0), Value::List(vec![Value::Int(7)])),
                (ObjectId(3), Value::Str("state".into())),
            ],
            degradation: Degradation {
                sheds_by_object: vec![(ObjectId(1), 5)],
                events_lost: 2,
                restarts: 1,
                shard_failures: vec![ShardFailure {
                    object: ObjectId(1),
                    panic_msg: "boom".into(),
                    events_lost: 2,
                    restarts: 1,
                }],
                spawn_fallbacks: 4,
                lost_workers: 0,
                torn_bytes_discarded: 17,
                ..Degradation::default()
            },
        }
    }

    #[test]
    fn round_trips_through_the_file_format() {
        let dir = temp_dir("checkpoint-roundtrip");
        let path = write_checkpoint(&dir, &sample()).unwrap().path;
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "checkpoint-0000000000001234.vyc"
        );
        let back = read_checkpoint(&path).unwrap();
        let original = sample();
        assert_eq!(back.next_seq, original.next_seq);
        assert_eq!(back.states, original.states);
        assert_eq!(back.degradation, original.degradation);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keeps_only_the_two_newest_checkpoints() {
        let dir = temp_dir("checkpoint-prune");
        for next_seq in [10, 20, 30] {
            let mut cp = sample();
            cp.next_seq = next_seq;
            write_checkpoint(&dir, &cp).unwrap();
        }
        let found = list_checkpoints(&dir).unwrap();
        assert_eq!(found.len(), 2);
        let latest = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(latest.next_seq, 30);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_the_previous_checkpoint() {
        let dir = temp_dir("checkpoint-fallback");
        let mut cp = sample();
        cp.next_seq = 10;
        write_checkpoint(&dir, &cp).unwrap();
        cp.next_seq = 20;
        let newest = write_checkpoint(&dir, &cp).unwrap().path;
        // Flip a payload byte: the CRC check must reject the file.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        assert!(read_checkpoint(&newest).is_err());
        let recovered = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(recovered.next_seq, 10);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let dir = temp_dir("checkpoint-magic");
        let path = dir.join(checkpoint_file_name(0));
        fs::write(&path, b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").unwrap();
        assert!(read_checkpoint(&path).is_err());
        assert!(load_latest_checkpoint(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
