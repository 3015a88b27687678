//! Crash-tolerance contract (satellite of the fault-injection work): a
//! log chopped at **every** byte offset — simulating a writer that died
//! mid-record — must decode without a panic, recovering exactly the
//! maximal prefix of complete records.

use vyrd_core::codec::{self, DecodeOutcome};
use vyrd_core::{Event, MethodId, ObjectId, ThreadId, Value, VarId};

fn sample_events() -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..12i64 {
        let tid = ThreadId((i % 3) as u32);
        let object = ObjectId((i % 2) as u32);
        events.push(Event::Call {
            tid,
            object,
            method: MethodId::from("Insert"),
            args: vec![Value::from(i), Value::from(format!("payload-{i}"))].into(),
        });
        events.push(Event::Write {
            tid,
            object,
            var: VarId::new("A.elt", i),
            value: Value::from(i * 7),
        });
        events.push(Event::Commit { tid, object });
        events.push(Event::Return {
            tid,
            object,
            method: MethodId::from("Insert"),
            ret: Value::success(),
        });
    }
    events
}

/// The framed format, via the public writer.
fn framed_bytes(events: &[Event]) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::write_log(&mut bytes, events).expect("vec write");
    bytes
}

/// The contract, applied at every cut: decoding a chopped stream never
/// panics, always yields a strict prefix of the full decode, and reports
/// a truncation point inside the surviving bytes.
fn assert_recovers_prefix_at_every_cut(label: &str, bytes: &[u8], full: &[Event]) {
    for cut in 0..=bytes.len() {
        let chopped = &bytes[..cut];
        let outcome = codec::read_log_recovering(chopped);
        let records = outcome.records();
        assert!(
            records.len() <= full.len(),
            "{label} cut {cut}: recovered more records than were written"
        );
        assert_eq!(
            records,
            &full[..records.len()],
            "{label} cut {cut}: recovered records are not a prefix"
        );
        match outcome {
            DecodeOutcome::Complete { ref records } => {
                // Only the intact stream (or an empty-but-clean tail) may
                // claim completeness.
                assert!(
                    cut == bytes.len() || records.len() < full.len(),
                    "{label} cut {cut}: chopped stream decoded as complete with all records"
                );
            }
            DecodeOutcome::RecoveredPrefix { truncated_at, .. } => {
                assert!(
                    truncated_at <= cut as u64,
                    "{label} cut {cut}: truncation point {truncated_at} past the cut"
                );
            }
        }
    }
    // The untouched stream decodes completely.
    let intact = codec::read_log_recovering(bytes);
    assert!(intact.is_complete(), "{label}: intact stream must be Complete");
    assert_eq!(intact.records(), full, "{label}: intact stream round-trips");
}

#[test]
fn stream_chopped_at_every_offset_recovers_a_prefix() {
    let full = sample_events();
    let bytes = framed_bytes(&full);
    assert_recovers_prefix_at_every_cut("framed", &bytes, &full);
}

#[test]
fn flipped_byte_is_rejected_not_a_panic() {
    let full = sample_events();
    let bytes = framed_bytes(&full);
    // Flip one byte at a time across the header and every frame. Every
    // corruption must surface as a recovered prefix — the strict header
    // checks catch magic/version/mode damage, the checksum catches
    // payload damage, the length checks catch framing damage — and
    // nothing may panic.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x40;
        let outcome = codec::read_log_recovering(&corrupt[..]);
        let records = outcome.records();
        // A flipped byte can only damage its own frame and later ones,
        // so what *is* recovered is still a prefix of the original.
        assert!(
            records.len() < full.len() && records == &full[..records.len()],
            "flip at {i}: corruption went undetected or broke the prefix"
        );
        assert!(
            !outcome.is_complete(),
            "flip at {i}: corrupted stream decoded as complete"
        );
    }
}
