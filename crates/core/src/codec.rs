//! Binary wire format for persisting event logs.
//!
//! The paper's implementation used the .NET binary object serialization
//! mechanism "in order to restore record objects as they are saved at
//! runtime" (§6.1). This module plays the same role with a small,
//! self-contained, length-delimited format:
//!
//! * every integer is little-endian;
//! * variable-length payloads (strings, byte buffers, lists) carry a `u32`
//!   length prefix;
//! * every [`Value`] and [`Event`] starts with a one-byte tag.
//!
//! # Framing
//!
//! A log stream starts with a header — the magic bytes `b"VYRD"`, a `u32`
//! format version ([`FORMAT_VERSION`], the only one [`LogReader`]
//! accepts), and one byte recording the [`LogMode`] the stream was
//! captured under, so an offline checker knows whether it holds an I/O or
//! a view-refinement trace without scanning for `Write` records. The mode
//! byte is validated strictly: a byte that is not a defined [`LogMode`]
//! discriminant is `InvalidData`, never silently coerced. Each record
//! then travels in a crash-tolerant frame: a `u32` payload length, a `u32`
//! CRC-32 (IEEE) of the payload, then the payload itself — a bare event
//! record as written by [`write_event`].
//!
//! # Crash tolerance
//!
//! The paper's post-mortem workflow (§2) reads the log *after* the
//! implementation crashed, so a torn tail is the expected case, not an
//! anomaly. The frame makes recovery explicit: a frame whose length
//! prefix, checksum, or payload is damaged marks the end of the trusted
//! prefix. [`read_log_recovering`] returns
//! [`DecodeOutcome::RecoveredPrefix`] — every record before the damage,
//! plus the byte offset where decoding stopped — instead of an error.
//!
//! # Decoding in place
//!
//! [`LogReader`] reads the stream through one 64 KiB buffer. A frame that
//! lies wholly inside it — all but about one frame per buffer-full — has
//! its CRC checked and its payload decoded where it lies, borrowed from
//! the buffer. Only a frame that crosses the buffer's end is copied out
//! into a reusable payload, refilling the buffer on the way. Both paths
//! consume the same bytes and issue the same reads, so the stream offsets
//! ([`LogReader::next_record_offset`], a recovery's `truncated_at` and
//! `bytes_discarded`) and the refill count do not depend on which one a
//! frame took. The CRC is the table-driven slice-by-8 form of the bytewise
//! IEEE CRC-32, eight bytes per step.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::io::{self, Read, Write};

use crate::event::{ArgList, Event, MethodId, ObjectId, ThreadId, VarId};
use crate::log::LogMode;
use crate::value::Value;

// Value tags.
const TAG_UNIT: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_PAIR: u8 = 6;
const TAG_LIST: u8 = 7;

// Event tags.
const TAG_CALL: u8 = 16;
const TAG_RETURN: u8 = 17;
const TAG_COMMIT: u8 = 18;
const TAG_BLOCK_BEGIN: u8 = 19;
const TAG_BLOCK_END: u8 = 20;
const TAG_WRITE: u8 = 21;

/// Magic bytes opening a log stream.
pub const MAGIC: [u8; 4] = *b"VYRD";

/// The log format version this module writes — and the only one it reads.
pub const FORMAT_VERSION: u32 = 4;

/// Encoded size of the stream header written by [`write_header`]:
/// magic bytes, format version, and the mode byte.
pub const HEADER_LEN: u64 = (MAGIC.len() + 4 + 1) as u64;

/// Slice-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected IEEE polynomial, and `CRC_TABLES[k][i]`
/// is the CRC of byte `i` followed by `k` zero bytes, so one lookup per
/// table folds eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) checksum, as used by record frames and checkpoint
/// files. Eight bytes per step through [`CRC_TABLES`], the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Maximum length accepted for any single string/bytes/list payload.
///
/// Guards the decoders against allocating absurd buffers when handed a
/// corrupt or non-log file.
const MAX_LEN: u32 = 1 << 28;

/// Maximum nesting depth accepted when decoding values.
///
/// Guards [`decode_value`] against stack overflow on corrupt or hostile input
/// (e.g. a file of consecutive pair tags).
const MAX_DEPTH: u32 = 64;

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_i64<W: Write>(w: &mut W, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

/// Serializes one value.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_value<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    match value {
        Value::Unit => w.write_all(&[TAG_UNIT]),
        Value::Bool(false) => w.write_all(&[TAG_BOOL_FALSE]),
        Value::Bool(true) => w.write_all(&[TAG_BOOL_TRUE]),
        Value::Int(i) => {
            w.write_all(&[TAG_INT])?;
            write_i64(w, *i)
        }
        Value::Str(s) => {
            w.write_all(&[TAG_STR])?;
            write_str(w, s)
        }
        Value::Bytes(b) => {
            w.write_all(&[TAG_BYTES])?;
            write_u32(w, b.len() as u32)?;
            w.write_all(b)
        }
        Value::Pair(p) => {
            w.write_all(&[TAG_PAIR])?;
            write_value(w, &p.0)?;
            write_value(w, &p.1)
        }
        Value::List(items) => {
            w.write_all(&[TAG_LIST])?;
            write_u32(w, items.len() as u32)?;
            for item in items {
                write_value(w, item)?;
            }
            Ok(())
        }
    }
}

/// Serializes one event as a bare (unframed) record — the payload
/// encoding inside a frame (see [`write_frame`]).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_event<W: Write>(w: &mut W, event: &Event) -> io::Result<()> {
    match event {
        Event::Call {
            tid,
            object,
            method,
            args,
        } => {
            w.write_all(&[TAG_CALL])?;
            write_u32(w, tid.0)?;
            write_u32(w, object.0)?;
            write_str(w, method.name())?;
            write_u32(w, args.len() as u32)?;
            for a in args {
                write_value(w, a)?;
            }
            Ok(())
        }
        Event::Return {
            tid,
            object,
            method,
            ret,
        } => {
            w.write_all(&[TAG_RETURN])?;
            write_u32(w, tid.0)?;
            write_u32(w, object.0)?;
            write_str(w, method.name())?;
            write_value(w, ret)
        }
        Event::Commit { tid, object } => {
            w.write_all(&[TAG_COMMIT])?;
            write_u32(w, tid.0)?;
            write_u32(w, object.0)
        }
        Event::BlockBegin { tid, object } => {
            w.write_all(&[TAG_BLOCK_BEGIN])?;
            write_u32(w, tid.0)?;
            write_u32(w, object.0)
        }
        Event::BlockEnd { tid, object } => {
            w.write_all(&[TAG_BLOCK_END])?;
            write_u32(w, tid.0)?;
            write_u32(w, object.0)
        }
        Event::Write {
            tid,
            object,
            var,
            value,
        } => {
            w.write_all(&[TAG_WRITE])?;
            write_u32(w, tid.0)?;
            write_u32(w, object.0)?;
            write_str(w, var.space())?;
            write_i64(w, var.index())?;
            write_value(w, value)
        }
    }
}

/// Serializes one event as a frame: payload length, CRC-32 of the
/// payload, then the payload (a bare record as written by
/// [`write_event`]).
///
/// Honors the `codec.write` failpoint: a
/// [`Drop`](vyrd_rt::fault::FaultAction::Drop) disposition skips the frame
/// entirely, simulating a record lost to a crash mid-write.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, event: &Event) -> io::Result<()> {
    let mut payload = Vec::with_capacity(32);
    write_frame_with(w, &mut payload, event)
}

/// [`write_frame`] with a caller-provided scratch buffer for the payload.
///
/// The batched file sink encodes thousands of frames back to back; reusing
/// one scratch `Vec` across the batch makes the steady-state encode path
/// allocation-free. The buffer is cleared on entry, so any `Vec` may be
/// passed; its capacity is retained for the next frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame_with<W: Write>(
    w: &mut W,
    scratch: &mut Vec<u8>,
    event: &Event,
) -> io::Result<()> {
    if let vyrd_rt::fault::Disposition::Drop = vyrd_rt::fault::inject("codec.write") {
        return Ok(());
    }
    scratch.clear();
    write_event(scratch, event)?;
    write_u32(w, scratch.len() as u32)?;
    write_u32(w, crc32(scratch))?;
    w.write_all(scratch)
}

/// Writes the stream header: magic bytes, the current format version, and
/// the [`LogMode`] the stream is being captured under (one byte).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_header<W: Write>(w: &mut W, mode: LogMode) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    write_u32(w, FORMAT_VERSION)?;
    w.write_all(&[mode.as_u8()])
}

/// Cursor over an in-memory frame payload.
///
/// Strings are *borrowed* straight from the payload: a method name goes
/// to the interner as a `&str` without a temporary `String`, which is
/// what keeps the framed decode loop allocation-flat for scalar-argument
/// events.
struct PayloadCursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> PayloadCursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "vyrd frame payload ends mid-record",
                )
            })?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self) -> io::Result<i64> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(i64::from_le_bytes(raw))
    }

    fn len(&mut self) -> io::Result<usize> {
        let len = self.u32()?;
        if len > MAX_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vyrd log record length {len} exceeds limit"),
            ));
        }
        Ok(len as usize)
    }

    fn str_(&mut self) -> io::Result<&'a str> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid utf-8: {e}")))
    }

    /// The payload must be fully consumed: a record followed by more
    /// bytes is damage, not a record.
    fn expect_end(&self) -> io::Result<()> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            n => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vyrd frame has {n} trailing bytes"),
            )),
        }
    }
}

/// Deserializes one value from `bytes`, which must hold exactly that
/// value (as written by [`write_value`]).
///
/// # Errors
///
/// Returns `InvalidData` on unknown tags, malformed payloads, trailing
/// bytes, or nesting deeper than the format allows, and `UnexpectedEof`
/// for a truncated value.
pub fn decode_value(bytes: &[u8]) -> io::Result<Value> {
    let mut cur = PayloadCursor { buf: bytes, at: 0 };
    let value = decode_value_at(&mut cur, 0)?;
    cur.expect_end()?;
    Ok(value)
}

fn decode_value_at(cur: &mut PayloadCursor<'_>, depth: u32) -> io::Result<Value> {
    if depth > MAX_DEPTH {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("vyrd value nested deeper than {MAX_DEPTH} levels"),
        ));
    }
    match cur.u8()? {
        TAG_UNIT => Ok(Value::Unit),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(cur.i64()?)),
        TAG_STR => Ok(Value::Str(cur.str_()?.to_owned())),
        TAG_BYTES => {
            let len = cur.len()?;
            Ok(Value::Bytes(cur.take(len)?.to_vec()))
        }
        TAG_PAIR => {
            let a = decode_value_at(cur, depth + 1)?;
            let b = decode_value_at(cur, depth + 1)?;
            Ok(Value::pair(a, b))
        }
        TAG_LIST => {
            let len = cur.len()?;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_value_at(cur, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        t => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown vyrd value tag {t}"),
        )),
    }
}

/// Decodes one frame payload (a bare record) entirely in memory.
///
/// `args_scratch` is a reusable staging buffer for call arguments: values
/// decode into it and are cloned into the event's inline-capable
/// [`ArgList`](crate::event::ArgList), so 0–2-argument calls add no heap
/// traffic beyond what the values themselves own.
fn decode_frame_payload(payload: &[u8], args_scratch: &mut Vec<Value>) -> io::Result<Event> {
    let mut cur = PayloadCursor {
        buf: payload,
        at: 0,
    };
    let tag = cur.u8()?;
    if !(TAG_CALL..=TAG_WRITE).contains(&tag) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown vyrd event tag {tag}"),
        ));
    }
    let tid = ThreadId(cur.u32()?);
    let object = ObjectId(cur.u32()?);
    let event = match tag {
        TAG_CALL => {
            let method = MethodId::from(cur.str_()?);
            let argc = cur.len()?;
            args_scratch.clear();
            for _ in 0..argc {
                args_scratch.push(decode_value_at(&mut cur, 0)?);
            }
            Event::Call {
                tid,
                object,
                method,
                args: ArgList::from_slice(args_scratch),
            }
        }
        TAG_RETURN => Event::Return {
            tid,
            object,
            method: MethodId::from(cur.str_()?),
            ret: decode_value_at(&mut cur, 0)?,
        },
        TAG_COMMIT => Event::Commit { tid, object },
        TAG_BLOCK_BEGIN => Event::BlockBegin { tid, object },
        TAG_BLOCK_END => Event::BlockEnd { tid, object },
        TAG_WRITE => {
            let space = cur.str_()?;
            let index = cur.i64()?;
            Event::Write {
                tid,
                object,
                var: VarId::new(space, index),
                value: decode_value_at(&mut cur, 0)?,
            }
        }
        t => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown vyrd event tag {t}"),
            ))
        }
    };
    cur.expect_end()?;
    Ok(event)
}

/// Deserializes one bare event record from `bytes`, which must hold
/// exactly that record (as written by [`write_event`]). To read a framed
/// log stream, use [`LogReader`].
///
/// # Errors
///
/// Returns `InvalidData` for unknown tags, malformed payloads, or trailing
/// bytes, and `UnexpectedEof` for a truncated record.
pub fn decode_event(bytes: &[u8]) -> io::Result<Event> {
    decode_frame_payload(bytes, &mut Vec::new())
}

/// A [`Read`] adapter that tracks how many bytes have been consumed, so
/// the decoder can report *where* a stream went bad.
struct CountingReader<R: Read> {
    inner: R,
    pos: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Size of [`FrameBuf`]'s internal read buffer. Frames average tens of
/// bytes, so one refill amortizes over hundreds to thousands of records.
const DECODE_BUF_LEN: usize = 64 * 1024;

/// Initial capacity of [`LogReader`]'s copy-out payload: a frame of up to
/// this many bytes that crosses the read buffer's end costs no allocation.
const PAYLOAD_SCRATCH_LEN: usize = 1024;

/// A buffered [`Read`] adapter whose `pos` tracks the *logical* position —
/// bytes handed to the decoder, not bytes pulled from the underlying
/// stream. Reading ahead into the buffer therefore never disturbs the
/// byte-exact `truncated_at` / `bytes_discarded` accounting of
/// [`read_log_recovering`], while the underlying reader sees one `read`
/// per buffer-full instead of one (or several) per record.
struct FrameBuf<R: Read> {
    inner: R,
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// Logical position: bytes consumed by the decoder.
    pos: u64,
    /// Reads issued to the underlying stream (the syscall count when the
    /// stream is a raw `File`).
    refills: u64,
}

impl<R: Read> FrameBuf<R> {
    fn new(inner: R) -> FrameBuf<R> {
        FrameBuf {
            inner,
            buf: vec![0u8; DECODE_BUF_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
            pos: 0,
            refills: 0,
        }
    }

    fn available(&self) -> usize {
        self.end - self.start
    }

    /// Pulls more bytes from the underlying stream into the buffer.
    /// Returns how many arrived (0 only at end of stream).
    fn refill(&mut self) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.inner.read(&mut self.buf[self.end..])?;
        self.end += n;
        self.refills += 1;
        Ok(n)
    }
}

impl<R: Read> Read for FrameBuf<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.available() == 0 {
            if out.len() >= self.buf.len() {
                // A read at least as large as the buffer gains nothing
                // from staging: hand it to the stream directly.
                let n = self.inner.read(out)?;
                self.refills += 1;
                self.pos += n as u64;
                return Ok(n);
            }
            if self.refill()? == 0 {
                return Ok(0);
            }
        }
        let n = out.len().min(self.available());
        out[..n].copy_from_slice(&self.buf[self.start..self.start + n]);
        self.start += n;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Streaming decoder for a framed log stream.
///
/// The header is outside input and is validated before any record is
/// decoded: a first byte that is not the magic, a corrupt magic, any
/// version other than [`FORMAT_VERSION`], or an undefined mode byte is
/// `InvalidData`.
pub struct LogReader<R: Read> {
    reader: FrameBuf<R>,
    /// Capture mode from the header; `None` only for an empty stream,
    /// which has no header to read it from.
    mode: Option<LogMode>,
    /// Reusable payload for frames that cross the read buffer's end (the
    /// rest decode in place); sized at construction and kept across
    /// records, so steady-state decoding never grows it.
    payload: Vec<u8>,
    /// Reusable staging buffer for call arguments.
    args_scratch: Vec<Value>,
    /// Events (= CRC frames) decoded so far.
    events: u64,
    /// Payload bytes decoded so far (frame headers excluded).
    payload_bytes: u64,
}

impl<R: Read> fmt::Debug for LogReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogReader")
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl<R: Read> LogReader<R> {
    /// Opens a log stream, consuming its header. An empty stream is an
    /// empty log.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a missing or corrupt magic, an
    /// unsupported version, or an undefined mode byte, and propagates I/O
    /// errors.
    pub fn new(reader: R) -> io::Result<LogReader<R>> {
        let mut reader = FrameBuf::new(reader);
        let mut magic = [0u8; MAGIC.len()];
        let mode = match reader.read(&mut magic[..1])? {
            0 => None,
            _ => {
                // Judge the first byte before asking for more, so a short
                // foreign file is "not a log", not a torn header.
                if magic[0] == MAGIC[0] {
                    reader.read_exact(&mut magic[1..])?;
                }
                if magic != MAGIC {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "corrupt vyrd log magic",
                    ));
                }
                let version = read_u32(&mut reader)?;
                if version != FORMAT_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unsupported vyrd log version {version}"),
                    ));
                }
                let mut byte = [0u8; 1];
                reader.read_exact(&mut byte)?;
                // Strict: an undefined discriminant is damage, not a
                // default. (A lenient fallback here would misreport a
                // corrupted View stream as something it is not.)
                Some(LogMode::from_u8(byte[0]).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("invalid vyrd log mode byte {:#04x}", byte[0]),
                    )
                })?)
            }
        };
        Ok(LogReader {
            reader,
            mode,
            payload: Vec::with_capacity(PAYLOAD_SCRATCH_LEN),
            args_scratch: Vec::new(),
            events: 0,
            payload_bytes: 0,
        })
    }

    /// The [`LogMode`] the stream was captured under, recorded in the
    /// header. `None` only for an empty stream.
    pub fn mode(&self) -> Option<LogMode> {
        self.mode
    }

    /// The byte offset at which the *next* record starts — i.e. how much of
    /// the stream has been decoded into trusted records so far.
    pub fn next_record_offset(&self) -> u64 {
        self.reader.pos
    }

    /// Decodes the next frame — `[len: u32][crc32: u32][payload]` — or
    /// `Ok(None)` at a clean end of stream.
    ///
    /// Honors the `codec.read` failpoint: a
    /// [`Drop`](vyrd_rt::fault::FaultAction::Drop) disposition reports a
    /// (spurious) clean end of stream, simulating a reader cut off early.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for unknown tags, checksum mismatches, and
    /// malformed frames, and `UnexpectedEof` when the stream ends
    /// mid-record ("torn tail").
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        if let vyrd_rt::fault::Disposition::Drop = vyrd_rt::fault::inject("codec.read") {
            return Ok(None);
        }
        // A clean end of stream is 0 bytes exactly at a frame boundary.
        if self.reader.available() == 0 && self.reader.refill()? == 0 {
            return Ok(None);
        }
        // In place: a frame wholly inside the read buffer is checked and
        // decoded where it lies, with no copy into `payload`.
        let buffered = &self.reader.buf[self.reader.start..self.reader.end];
        if let Some(len) = buffered_frame_len(buffered) {
            let frame = &buffered[..FRAME_HEADER_LEN + len];
            self.reader.start += frame.len();
            self.reader.pos += frame.len() as u64;
            let expected_crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
            let payload = &frame[FRAME_HEADER_LEN..];
            verify_crc(payload, expected_crc)?;
            let event = decode_frame_payload(payload, &mut self.args_scratch)?;
            self.payload_bytes += len as u64;
            self.events += 1;
            return Ok(Some(event));
        }
        // A frame that crosses the buffer's end (or is damaged) is read
        // out through the buffer into `payload`, refilling on the way.
        // 1–3 bytes of length prefix are already a torn tail.
        let mut len_buf = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            let n = self.reader.read(&mut len_buf[filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn vyrd frame: stream ended inside a length prefix",
                ));
            }
            filled += n;
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vyrd frame length {len} out of range"),
            ));
        }
        let expected_crc = read_u32(&mut self.reader)?;
        self.payload.clear();
        self.payload.resize(len as usize, 0);
        self.reader.read_exact(&mut self.payload)?;
        verify_crc(&self.payload, expected_crc)?;
        let event = decode_frame_payload(&self.payload, &mut self.args_scratch)?;
        self.payload_bytes += u64::from(len);
        self.events += 1;
        Ok(Some(event))
    }
}

/// Frame header: the `u32` payload length, then the payload's `u32`
/// CRC-32.
const FRAME_HEADER_LEN: usize = 8;

/// The payload length of the frame at the start of `buffered`, if its
/// header and whole payload are there and the length is in range. A
/// frame this returns `None` for takes [`LogReader::next_event`]'s
/// copy-out path, which also reports every kind of damage.
fn buffered_frame_len(buffered: &[u8]) -> Option<usize> {
    let header = buffered.get(..FRAME_HEADER_LEN)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let in_range = len != 0 && len <= MAX_LEN;
    (in_range && buffered.len() - FRAME_HEADER_LEN >= len as usize).then_some(len as usize)
}

fn verify_crc(payload: &[u8], expected_crc: u32) -> io::Result<()> {
    let actual_crc = crc32(payload);
    if actual_crc == expected_crc {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "vyrd frame checksum mismatch: stored {expected_crc:#010x}, computed {actual_crc:#010x}"
        ),
    ))
}

impl<R: Read> Drop for LogReader<R> {
    /// Folds the per-reader decode tallies into the `decode.*` pipeline
    /// metrics once per stream, keeping the record loop free of even a
    /// counter touch.
    fn drop(&mut self) {
        if (self.events > 0 || self.reader.refills > 0) && vyrd_rt::metrics::enabled() {
            let pm = crate::metrics::pipeline();
            pm.decode_events.add(self.events);
            pm.decode_frames.add(self.events);
            pm.decode_bytes.add(self.payload_bytes);
            pm.decode_refills.add(self.reader.refills);
        }
    }
}

impl<R: Read> Iterator for LogReader<R> {
    type Item = io::Result<Event>;

    fn next(&mut self) -> Option<io::Result<Event>> {
        self.next_event().transpose()
    }
}

/// Serializes a whole log: the versioned header, then one frame per
/// event.
///
/// The header's mode byte is inferred from the events themselves: any
/// view-refinement record (`Write`, `BlockBegin`, `BlockEnd`) marks the
/// stream [`LogMode::View`], otherwise it is [`LogMode::Io`]. Callers that
/// know the capture mode (the live file sink does) write the header
/// directly instead.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_log<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    let mode = if events.iter().any(|e| {
        matches!(
            e,
            Event::Write { .. } | Event::BlockBegin { .. } | Event::BlockEnd { .. }
        )
    }) {
        LogMode::View
    } else {
        LogMode::Io
    };
    write_header(w, mode)?;
    let mut scratch = Vec::with_capacity(64);
    for e in events {
        write_frame_with(w, &mut scratch, e)?;
    }
    Ok(())
}

/// Deserializes a whole log until end of stream.
///
/// # Errors
///
/// Returns the first decoding or I/O error; events decoded before the error
/// are discarded. Use [`read_log_recovering`] to salvage the valid prefix
/// of a damaged log instead.
pub fn read_log<R: Read>(r: &mut R) -> io::Result<Vec<Event>> {
    let mut reader = LogReader::new(r)?;
    let mut events = Vec::new();
    while let Some(e) = reader.next_event()? {
        events.push(e);
    }
    Ok(events)
}

/// The result of decoding a possibly-damaged log with
/// [`read_log_recovering`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The stream decoded to a clean end: every byte was accounted for.
    Complete {
        /// All records, in log order.
        records: Vec<Event>,
    },
    /// Decoding hit damage (torn tail, checksum mismatch, malformed
    /// record); everything before it was recovered.
    RecoveredPrefix {
        /// The records decoded before the damage, in log order.
        records: Vec<Event>,
        /// Byte offset of the first record that could not be trusted.
        truncated_at: u64,
        /// Human-readable description of what stopped decoding.
        detail: String,
        /// How many trailing bytes were discarded as untrusted — the
        /// stream's total length minus `truncated_at`. Distinguishes a
        /// tear that lost half a frame from one that lost a megabyte of
        /// tail, which a caller folding losses into a
        /// [`Degradation`](crate::violation::Degradation) ledger needs.
        bytes_discarded: u64,
    },
}

impl DecodeOutcome {
    /// The decoded records, complete or not.
    pub fn records(&self) -> &[Event] {
        match self {
            DecodeOutcome::Complete { records } | DecodeOutcome::RecoveredPrefix { records, .. } => {
                records
            }
        }
    }

    /// Consumes the outcome, yielding the decoded records.
    pub fn into_records(self) -> Vec<Event> {
        match self {
            DecodeOutcome::Complete { records } | DecodeOutcome::RecoveredPrefix { records, .. } => {
                records
            }
        }
    }

    /// True when the whole stream decoded cleanly.
    pub fn is_complete(&self) -> bool {
        matches!(self, DecodeOutcome::Complete { .. })
    }
}

impl fmt::Display for DecodeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeOutcome::Complete { records } => {
                write!(f, "complete: {} records", records.len())
            }
            DecodeOutcome::RecoveredPrefix {
                records,
                truncated_at,
                detail,
                bytes_discarded,
            } => write!(
                f,
                "recovered {} records up to byte {truncated_at}, discarded {bytes_discarded} trailing bytes ({detail})",
                records.len()
            ),
        }
    }
}

/// Decodes a whole log, recovering the maximal valid prefix of a damaged
/// stream instead of erroring.
///
/// Never panics and never returns an error: a torn tail, flipped byte, or
/// outright garbage yields [`DecodeOutcome::RecoveredPrefix`] with however
/// many records decoded before the damage (possibly zero). This is the
/// entry point for the paper's post-mortem use case — checking the log of
/// a crashed run offline.
pub fn read_log_recovering<R: Read>(r: R) -> DecodeOutcome {
    // An outer byte counter survives the decoder, so after damage the
    // untrusted remainder can be measured (drained) rather than guessed.
    let mut outer = CountingReader { inner: r, pos: 0 };
    match decode_trusted_prefix(&mut outer) {
        Ok(records) => DecodeOutcome::Complete { records },
        Err((records, truncated_at, detail)) => {
            drain_remaining(&mut outer);
            DecodeOutcome::RecoveredPrefix {
                records,
                truncated_at,
                detail,
                bytes_discarded: outer.pos.saturating_sub(truncated_at),
            }
        }
    }
}

/// Decodes until clean EOF (`Ok`) or the first damage (`Err` with the
/// trusted prefix, the damage offset, and a description). Scoped so the
/// inner [`LogReader`] — and its borrow of the outer counter — is gone
/// before the caller measures the untrusted remainder.
#[allow(clippy::type_complexity)]
fn decode_trusted_prefix<R: Read>(
    outer: &mut CountingReader<R>,
) -> Result<Vec<Event>, (Vec<Event>, u64, String)> {
    let mut reader = match LogReader::new(outer) {
        Ok(reader) => reader,
        Err(e) => return Err((Vec::new(), 0, e.to_string())),
    };
    let mut records = Vec::new();
    loop {
        let offset = reader.next_record_offset();
        match reader.next_event() {
            Ok(Some(e)) => records.push(e),
            Ok(None) => return Ok(records),
            Err(e) => return Err((records, offset, e.to_string())),
        }
    }
}

/// Best-effort read-to-EOF so the counting wrapper's position reflects the
/// stream's full length. An I/O error mid-drain leaves the count at
/// however far the drain got — an undercount, never an overcount.
fn drain_remaining<R: Read>(r: &mut CountingReader<R>) {
    let mut scratch = [0u8; 4096];
    while matches!(r.read(&mut scratch), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use vyrd_rt::rng::Rng;

    fn roundtrip_value(v: &Value) -> Value {
        let mut buf = Vec::new();
        write_value(&mut buf, v).unwrap();
        decode_value(&buf).unwrap()
    }

    fn roundtrip_event(e: &Event) -> Event {
        let mut buf = Vec::new();
        write_event(&mut buf, e).unwrap();
        decode_event(&buf).unwrap()
    }

    #[test]
    fn scalar_values_round_trip() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Str(String::new()),
            Value::Str("héllo".to_owned()),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0, 255, 1]),
        ] {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Value::List(vec![
            Value::pair(Value::Int(1), Value::List(vec![Value::Unit])),
            Value::Bytes(vec![9; 40]),
        ]);
        assert_eq!(roundtrip_value(&v), v);
    }

    #[test]
    fn all_event_kinds_round_trip() {
        let events = [
            Event::Call {
                tid: ThreadId(7),
                object: ObjectId(3),
                method: "InsertPair".into(),
                args: vec![5i64.into(), 6i64.into()].into(),
            },
            Event::Return {
                tid: ThreadId(7),
                object: ObjectId(3),
                method: "InsertPair".into(),
                ret: Value::success(),
            },
            Event::Commit {
                tid: ThreadId(0),
                object: ObjectId::DEFAULT,
            },
            Event::BlockBegin {
                tid: ThreadId(1),
                object: ObjectId(u32::MAX),
            },
            Event::BlockEnd {
                tid: ThreadId(1),
                object: ObjectId(u32::MAX),
            },
            Event::Write {
                tid: ThreadId(3),
                object: ObjectId(1),
                var: VarId::new("A.valid", 2),
                value: true.into(),
            },
        ];
        for e in &events {
            assert_eq!(&roundtrip_event(e), e);
        }
    }

    #[test]
    fn whole_log_round_trip() {
        let log = vec![
            Event::Call {
                tid: ThreadId(1),
                object: ObjectId(2),
                method: "m".into(),
                args: vec![].into(),
            },
            Event::Commit {
                tid: ThreadId(1),
                object: ObjectId(2),
            },
            Event::Return {
                tid: ThreadId(1),
                object: ObjectId(2),
                method: "m".into(),
                ret: Value::Unit,
            },
        ];
        let mut buf = Vec::new();
        write_log(&mut buf, &log).unwrap();
        assert_eq!(&buf[..4], &MAGIC);
        assert_eq!(read_log(&mut buf.as_slice()).unwrap(), log);
    }

    #[test]
    fn an_empty_stream_is_an_empty_log() {
        let empty: &[u8] = &[];
        assert!(read_log(&mut { empty }).unwrap().is_empty());
    }

    #[test]
    fn corrupt_magic_and_every_other_version_are_rejected() {
        let err = read_log(&mut b"VYRQ\x04\x00\x00\x00".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Retired (1–3) and future versions alike: only v4 is read.
        for version in [0u32, 1, 2, 3, 5, 99] {
            let mut stream = Vec::new();
            stream.extend_from_slice(&MAGIC);
            stream.extend_from_slice(&version.to_le_bytes());
            stream.push(LogMode::Io.as_u8());
            let err = LogReader::new(stream.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
            assert!(err.to_string().contains(&format!("version {version}")), "{err}");
        }
    }

    #[test]
    fn a_first_byte_that_is_not_the_magic_is_invalid_data() {
        // What used to sniff as a headerless v1 stream: a bare record.
        let mut bare = Vec::new();
        write_event(
            &mut bare,
            &Event::Commit {
                tid: ThreadId(9),
                object: ObjectId::DEFAULT,
            },
        )
        .unwrap();
        for stream in [bare.as_slice(), &b"\xFF"[..], &b"vyrd"[..]] {
            let err = LogReader::new(stream).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{stream:?}");
            assert!(err.to_string().contains("magic"), "{err}");
        }
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        write_event(
            &mut buf,
            &Event::Return {
                tid: ThreadId(1),
                object: ObjectId::DEFAULT,
                method: "m".into(),
                ret: Value::Str("abcdef".to_owned()),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 2);
        let err = decode_event(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_log() -> Vec<Event> {
        vec![
            Event::Call {
                tid: ThreadId(1),
                object: ObjectId(2),
                method: "m".into(),
                args: vec![Value::Int(5)].into(),
            },
            Event::Commit {
                tid: ThreadId(1),
                object: ObjectId(2),
            },
            Event::Return {
                tid: ThreadId(1),
                object: ObjectId(2),
                method: "m".into(),
                ret: Value::success(),
            },
        ]
    }

    #[test]
    fn v4_frames_round_trip_and_read_complete() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&mut buf, &log).unwrap();
        let reader = LogReader::new(buf.as_slice()).unwrap();
        // sample_log is pure call/commit/return, so the inferred mode is Io.
        assert_eq!(reader.mode(), Some(LogMode::Io));
        assert_eq!(read_log(&mut buf.as_slice()).unwrap(), log);
        assert_eq!(
            read_log_recovering(buf.as_slice()),
            DecodeOutcome::Complete {
                records: log.clone()
            }
        );
    }

    #[test]
    fn write_log_infers_view_mode_from_view_records() {
        let log = vec![
            Event::BlockBegin {
                tid: ThreadId(1),
                object: ObjectId(2),
            },
            Event::Write {
                tid: ThreadId(1),
                object: ObjectId(2),
                var: VarId::new("x", 0),
                value: Value::Unit,
            },
            Event::BlockEnd {
                tid: ThreadId(1),
                object: ObjectId(2),
            },
        ];
        let mut buf = Vec::new();
        write_log(&mut buf, &log).unwrap();
        let reader = LogReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.mode(), Some(LogMode::View));
        assert_eq!(read_log(&mut buf.as_slice()).unwrap(), log);
    }

    #[test]
    fn undefined_mode_byte_is_invalid_data_not_a_default() {
        // Regression: `LogMode::from_u8` used to map every unknown byte to
        // `View`; a v4 header with mode byte 3 must be a decode error.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.push(3);
        let err = LogReader::new(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mode byte"), "{err}");
        // The recovering reader treats it as damage at offset zero.
        match read_log_recovering(buf.as_slice()) {
            DecodeOutcome::RecoveredPrefix {
                records,
                truncated_at,
                detail,
                bytes_discarded,
            } => {
                assert!(records.is_empty());
                assert_eq!(truncated_at, 0);
                assert!(detail.contains("mode byte"), "{detail}");
                // Nothing was trusted, so the whole stream was discarded.
                assert_eq!(bytes_discarded, buf.len() as u64);
            }
            other => panic!("expected RecoveredPrefix, got {other:?}"),
        }
    }

    #[test]
    fn log_mode_from_u8_rejects_unknown_discriminants() {
        assert_eq!(LogMode::from_u8(0), Some(LogMode::Off));
        assert_eq!(LogMode::from_u8(1), Some(LogMode::Io));
        assert_eq!(LogMode::from_u8(2), Some(LogMode::View));
        for bad in [3u8, 4, 0x7F, 0xFF] {
            assert_eq!(LogMode::from_u8(bad), None, "byte {bad} must not decode");
        }
    }

    #[test]
    fn torn_tail_recovers_the_frame_prefix() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&mut buf, &log).unwrap();
        // Chop mid-way through the final frame.
        let torn = &buf[..buf.len() - 3];
        let err = read_log(&mut { torn }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        match read_log_recovering(torn) {
            DecodeOutcome::RecoveredPrefix {
                records,
                truncated_at,
                bytes_discarded,
                ..
            } => {
                assert_eq!(records, log[..2]);
                // The damage starts exactly where the third frame began.
                let mut prefix = Vec::new();
                write_header(&mut prefix, LogMode::Io).unwrap();
                write_frame(&mut prefix, &log[0]).unwrap();
                write_frame(&mut prefix, &log[1]).unwrap();
                assert_eq!(truncated_at, prefix.len() as u64);
                // Everything after the last trusted frame was discarded.
                assert_eq!(bytes_discarded, (torn.len() - prefix.len()) as u64);
            }
            other => panic!("expected RecoveredPrefix, got {other:?}"),
        }
    }

    #[test]
    fn flipped_byte_is_caught_by_the_checksum() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&mut buf, &log).unwrap();
        // Flip a byte inside the last frame's payload.
        let target = buf.len() - 2;
        buf[target] ^= 0xFF;
        let err = read_log(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        match read_log_recovering(buf.as_slice()) {
            DecodeOutcome::RecoveredPrefix { records, .. } => assert_eq!(records, log[..2]),
            other => panic!("expected RecoveredPrefix, got {other:?}"),
        }
    }

    #[test]
    fn recovery_of_garbage_yields_an_empty_prefix() {
        let outcome = read_log_recovering(&b"\xFF\xFE\xFD"[..]);
        assert!(!outcome.is_complete());
        assert!(outcome.records().is_empty());
        // A valid magic with a hostile version is also damage, not a panic.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let outcome = read_log_recovering(buf.as_slice());
        assert!(outcome.records().is_empty());
    }

    #[test]
    fn unknown_tag_is_invalid_data() {
        let err = decode_event(&[200u8, 0, 0, 0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = decode_value(&[99u8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_rejected() {
        // TAG_STR with a 512 MiB length prefix.
        let mut buf = vec![TAG_STR];
        buf.extend_from_slice(&(1u32 << 29).to_le_bytes());
        let err = decode_value(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // A "pair bomb": thousands of consecutive pair tags would recurse
        // once per byte without the depth guard.
        let bomb = vec![TAG_PAIR; 100_000];
        let err = decode_value(&bomb).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nested deeper"));
        // Legitimate nesting well under the limit still round-trips.
        let mut v = Value::Unit;
        for _ in 0..32 {
            v = Value::pair(v, Value::Unit);
        }
        assert_eq!(roundtrip_value(&v), v);
    }

    // Seed-driven random structure generators (see `rand_gen`): each
    // property runs over a block of fixed seeds and reports the failing
    // seed so a counterexample replays exactly.

    fn rand_string(rng: &mut Rng, alphabet: &[char], max_len: usize) -> String {
        let len = rng.gen_range(0..max_len + 1);
        (0..len).map(|_| *rng.choose(alphabet).unwrap()).collect()
    }

    fn rand_value(rng: &mut Rng, depth: usize) -> Value {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.gen_range(0..kinds) {
            0u32 => Value::Unit,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.next_u64() as i64),
            3 => {
                let alphabet: Vec<char> = "abcχéz .0\"\\\n".chars().collect();
                Value::Str(rand_string(rng, &alphabet, 12))
            }
            4 => {
                let mut bytes = vec![0u8; rng.gen_range(0..32usize)];
                rng.fill_bytes(&mut bytes);
                Value::Bytes(bytes)
            }
            5 => Value::pair(rand_value(rng, depth - 1), rand_value(rng, depth - 1)),
            _ => {
                let n = rng.gen_range(0..4usize);
                Value::List((0..n).map(|_| rand_value(rng, depth - 1)).collect())
            }
        }
    }

    fn rand_event(rng: &mut Rng) -> Event {
        let tid = ThreadId(rng.gen_range(0..64u32));
        let object = ObjectId(rng.gen_range(0..5u32));
        let methods: Vec<char> = ('a'..='z').chain('A'..='Z').collect();
        let spaces: Vec<char> = ('a'..='z').chain(['.']).collect();
        match rng.gen_range(0..6u32) {
            0 => Event::Call {
                tid,
                object,
                method: MethodId::from(format!("m{}", rand_string(rng, &methods, 7)).as_str()),
                args: (0..rng.gen_range(0..3usize))
                    .map(|_| rand_value(rng, 3))
                    .collect(),
            },
            1 => Event::Return {
                tid,
                object,
                method: MethodId::from(format!("m{}", rand_string(rng, &methods, 7)).as_str()),
                ret: rand_value(rng, 3),
            },
            2 => Event::Commit { tid, object },
            3 => Event::BlockBegin { tid, object },
            4 => Event::BlockEnd { tid, object },
            _ => Event::Write {
                tid,
                object,
                var: VarId::new(&rand_string(rng, &spaces, 8), rng.next_u64() as i64),
                value: rand_value(rng, 3),
            },
        }
    }

    /// A [`Read`] wrapper counting how many `read` calls reach the
    /// underlying stream — the syscall count when the stream is a file.
    struct CountingReads<'a> {
        inner: &'a [u8],
        reads: usize,
    }

    impl Read for CountingReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn decoding_a_64kib_segment_issues_constant_reads() {
        // ~64 KiB of small frames. Unbuffered decoding issued several
        // reads per record (tag, ids, lengths, payload) — thousands for
        // this stream; the buffered reader must stay within a handful.
        let mut buf = Vec::new();
        write_header(&mut buf, LogMode::Io).unwrap();
        let mut scratch = Vec::new();
        let mut records = 0usize;
        while buf.len() < 64 * 1024 {
            write_frame_with(
                &mut buf,
                &mut scratch,
                &Event::Call {
                    tid: ThreadId(1),
                    object: ObjectId(2),
                    method: "Insert".into(),
                    args: vec![Value::Int(records as i64)].into(),
                },
            )
            .unwrap();
            records += 1;
        }
        assert!(records > 1_000, "stream too small to be meaningful");
        let mut source = CountingReads {
            inner: buf.as_slice(),
            reads: 0,
        };
        let mut reader = LogReader::new(&mut source).unwrap();
        let mut decoded = 0usize;
        while reader.next_event().unwrap().is_some() {
            decoded += 1;
        }
        drop(reader);
        assert_eq!(decoded, records);
        // One refill per DECODE_BUF_LEN of stream, plus the EOF probe.
        let ceiling = buf.len().div_ceil(DECODE_BUF_LEN) + 2;
        assert!(
            source.reads <= ceiling,
            "{decoded} records took {} reads (allowed {ceiling})",
            source.reads
        );
    }

    /// Bit-at-a-time CRC-32 (IEEE, reflected), sharing nothing with the
    /// table kernel it checks.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn prop_crc32_equals_the_bitwise_reference() {
        let mut bytes = vec![0u8; 8 + 256];
        Rng::seed_from_u64(0x00C3_2C32).fill_bytes(&mut bytes);
        for align in 0..8 {
            for len in 0..=256 {
                let data = &bytes[align..align + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "len {len} align {align}");
            }
        }
    }

    /// Hands out at most `chunk` bytes per `read`, so the decoder's
    /// buffer fills in steps of that size and frames cross its end at
    /// every phase.
    struct Chunked<'a> {
        inner: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.inner.read(&mut buf[..n])
        }
    }

    #[test]
    fn in_place_and_copied_out_frames_decode_alike() {
        // ~4 buffer-fulls of seeded frames of every shape. A 1-, 3- or
        // 7-byte source never holds a whole frame in the buffer (every
        // frame is copied out); a 65 535-byte one leaves a frame across
        // the buffer's end at a different phase on every refill.
        let mut rng = Rng::seed_from_u64(38);
        let events: Vec<Event> = (0..9_000).map(|_| rand_event(&mut rng)).collect();
        let mut buf = Vec::new();
        write_log(&mut buf, &events).unwrap();
        assert!(buf.len() > 3 * DECODE_BUF_LEN, "{} bytes", buf.len());
        let mut offsets = vec![HEADER_LEN];
        let mut frame = Vec::new();
        for e in &events {
            frame.clear();
            write_frame(&mut frame, e).unwrap();
            offsets.push(offsets[offsets.len() - 1] + frame.len() as u64);
        }
        for chunk in [1, 3, 7, 65_535, usize::MAX] {
            let source = Chunked { inner: &buf, chunk };
            let mut reader = LogReader::new(source).unwrap();
            assert_eq!(reader.next_record_offset(), offsets[0]);
            for (i, e) in events.iter().enumerate() {
                let decoded = reader.next_event().unwrap();
                assert_eq!(decoded.as_ref(), Some(e), "chunk {chunk}, record {i}");
                assert_eq!(
                    reader.next_record_offset(),
                    offsets[i + 1],
                    "chunk {chunk}, record {i}"
                );
            }
            assert!(reader.next_event().unwrap().is_none(), "chunk {chunk}");
        }
    }

    #[test]
    fn recovery_is_the_same_on_both_decode_paths() {
        let mut rng = Rng::seed_from_u64(3_838);
        let events: Vec<Event> = (0..24).map(|_| rand_event(&mut rng)).collect();
        let mut buf = Vec::new();
        write_log(&mut buf, &events).unwrap();
        let agree = |bytes: &[u8], what: &str| {
            let in_place = read_log_recovering(bytes);
            for chunk in [1, 3, 7] {
                let copied_out = read_log_recovering(Chunked {
                    inner: bytes,
                    chunk,
                });
                assert_eq!(copied_out, in_place, "{what}, chunk {chunk}");
            }
        };
        for cut in 0..=buf.len() {
            agree(&buf[..cut], &format!("cut at {cut}"));
        }
        for at in 0..buf.len() {
            let mut damaged = buf.clone();
            damaged[at] ^= 0x5A;
            agree(&damaged, &format!("byte {at} flipped"));
        }
    }

    #[test]
    fn prop_value_round_trip() {
        for seed in 0..256u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let v = rand_value(&mut rng, 3);
            assert_eq!(roundtrip_value(&v), v, "failing seed: {seed}");
        }
    }

    #[test]
    fn prop_log_round_trip() {
        for seed in 1_000..1_128u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let events: Vec<Event> = (0..rng.gen_range(0..40usize))
                .map(|_| rand_event(&mut rng))
                .collect();
            let mut buf = Vec::new();
            write_log(&mut buf, &events).unwrap();
            assert_eq!(
                read_log(&mut buf.as_slice()).unwrap(),
                events,
                "failing seed: {seed}"
            );
        }
    }
}
