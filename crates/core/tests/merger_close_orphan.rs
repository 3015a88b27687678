//! Regression test for the flat-combining merger's close path.
//!
//! A producer that finds the merger lock held parks its batch on the
//! backlog and returns without blocking — that is the flag-combining
//! contract. If that producer's thread then exits, nothing references the
//! batch except the backlog itself: its thread buffer is already empty and
//! will be pruned from the registry. `EventLog::close` must therefore
//! drain the backlog (not just the live thread buffers) or those events
//! are silently lost.
//!
//! The schedule is forced, not raced: a dispatch callback blocks inside
//! the merger's critical section until released, so the parking thread
//! deterministically finds the lock held, parks, fails the recheck, and
//! exits while the batch is still on the backlog.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use vyrd_core::event::Event;
use vyrd_core::log::{EventLog, LogMode};
use vyrd_core::{ObjectId, ThreadId, Value};

/// One thread-buffer batch; pushing this many events triggers a submit.
const BATCH: usize = 64;

#[test]
fn batch_parked_by_a_dead_thread_survives_close() {
    let seen: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let dispatch = {
        let seen = Arc::clone(&seen);
        let mut first = true;
        move |run: &mut Vec<Event>| {
            seen.lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(run.drain(..));
            if first {
                first = false;
                // Signal that the merger's critical section is occupied,
                // then hold it until the main thread says go.
                entered_tx.send(()).ok();
                release_rx.recv().ok();
            }
        }
    };
    let log = EventLog::dispatching_runs(LogMode::Io, dispatch);

    // Thread A: append one event straight through the merger; its delivery
    // blocks in the dispatch callback with the merger lock held.
    let blocker = {
        let log = log.clone();
        thread::spawn(move || {
            log.append_event(Event::Commit {
                tid: ThreadId(100),
                object: ObjectId::DEFAULT,
            });
        })
    };
    entered_rx.recv().expect("dispatch callback never entered");

    // Thread B: fill exactly one batch so the submit fires, finds the
    // merger held, parks the batch on the backlog, and returns. Then the
    // thread exits — from here on, only the backlog owns those events.
    let parker = {
        let log = log.clone();
        thread::spawn(move || {
            let logger = log.logger_for(ThreadId(7));
            for i in 0..BATCH {
                logger.call("m", &[Value::from(i as i64)]);
            }
        })
    };
    parker.join().expect("parking thread panicked");

    // Let the blocked delivery finish. Thread A's append drained the
    // backlog *before* delivering, so B's batch is still parked.
    release_tx.send(()).expect("dispatch callback gone");
    blocker.join().expect("blocking thread panicked");

    log.close();

    let stats = log.stats();
    assert_eq!(
        stats.events,
        1 + BATCH as u64,
        "every appended event must be accepted"
    );
    assert_eq!(stats.events_discarded_after_close, 0);

    let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        seen.len(),
        1 + BATCH,
        "close lost events parked on the backlog by a dead thread"
    );
    // Delivery is in global seq order: A's commit first, then B's calls in
    // the order they were stamped.
    assert!(matches!(seen[0], Event::Commit { tid: ThreadId(100), .. }));
    for (i, event) in seen[1..].iter().enumerate() {
        match event {
            Event::Call { tid, args, .. } => {
                assert_eq!(*tid, ThreadId(7));
                assert_eq!(args.as_slice(), &[Value::from(i as i64)]);
            }
            other => panic!("expected Call #{i}, got {other:?}"),
        }
    }
}
