//! Model-checked tests for the shared-memory ring protocol.
//!
//! The ring is written against the `check` facade, so under the model
//! lane (`RUSTFLAGS=--cfg offload_model`) the deterministic scheduler
//! explores the very protocol lines the library ships, and the
//! vector-clock detector validates every slot handoff: the cross-process
//! protocol proven in-process. In a plain build the same closures run
//! once against std as smoke tests.
//!
//! Tests that *expect* a failure only exist in the instrumented build
//! (without it the ring's ops are invisible to the detector).

use std::sync::Arc;

use check::sync::{Condvar, Mutex};
use check::thread;
use shmring::*;

/// A DFS budget for tests with retry loops, whose schedule space is too
/// large to exhaust — same rationale as the core queue's model tests.
fn capped_dfs() -> check::Config {
    let mut cfg = check::Config::dfs();
    cfg.max_schedules = 2_000;
    cfg
}

/// The exploration floor of a capped DFS: the bounded schedule space was
/// either enumerated or explored up to the cap — never a run that
/// collapsed to a handful of schedules and passed vacuously. (A plain
/// build runs each closure once.)
fn explored_to_the_floor(st: &check::Stats) {
    if cfg!(offload_model) {
        let cap = capped_dfs().max_schedules;
        assert!(
            st.exhausted || st.schedules + st.pruned >= cap,
            "explored {} schedules ({} pruned) of a {cap} cap, not exhausted",
            st.schedules,
            st.pruned
        );
    }
}

/// The data-plane handoff: producer pushes three distinct chunks through
/// a two-slot ring (covering the full→recycle path) while the consumer
/// pops each one split across a one-byte direct destination and the
/// staging vector, as the wire fabric pops into a body in progress. FIFO
/// and payload integrity must hold on every schedule, and the detector
/// validates the publish/claim edges around both copies out of the slot.
#[test]
fn spsc_handoff_is_race_free_and_fifo() {
    check::model_with(capped_dfs(), || {
        let (mut tx, mut rx, _) = heap_ring(2, 8);
        let producer = thread::spawn(move || {
            for i in 0..3u8 {
                while !tx.try_push(&[i, i + 10]) {
                    thread::yield_now();
                }
            }
        });
        let mut direct: Vec<u8> = Vec::with_capacity(1);
        let mut out = Vec::new();
        let mut next = 0u8;
        while next < 3 {
            direct.clear();
            out.clear();
            match rx.try_pop_into(&mut direct.spare_capacity_mut()[..1], &mut out) {
                Pop::Got(2) => {
                    // SAFETY: `Got(2)` into a one-byte destination
                    // initialised that byte.
                    unsafe { direct.set_len(1) };
                    assert_eq!(direct, vec![next], "FIFO or payload broken");
                    assert_eq!(out, vec![next + 10], "FIFO or payload broken");
                    next += 1;
                }
                Pop::Got(n) => panic!("unexpected chunk size {n}"),
                Pop::Empty => thread::yield_now(),
                Pop::Corrupt => panic!("corrupt slot in clean run"),
            }
        }
        producer.join().unwrap();
    });
}

/// The park/doorbell handshake must not lose a wakeup: the consumer
/// parks untimed on a condvar unless `prepare_park` vetoes it, and the
/// producer rings (under the mutex) only when `doorbell_needed` says the
/// consumer may be parked. If the Dekker flag dance had a window — the
/// publish landing between the consumer's empty check and its flag store
/// going unobserved — the consumer would park forever and the checker
/// would report a deadlock with a replayable schedule.
#[test]
fn doorbell_handshake_has_no_lost_wakeup() {
    check::model_with(capped_dfs(), || {
        let (mut tx, mut rx, _) = heap_ring(2, 8);
        let bell = Arc::new((Mutex::new(false), Condvar::new()));
        let producer = {
            let bell = Arc::clone(&bell);
            thread::spawn(move || {
                assert!(tx.try_push(b"x"), "empty ring accepts");
                if tx.doorbell_needed() {
                    let (lock, cv) = &*bell;
                    *lock.lock().unwrap() = true;
                    cv.notify_all();
                }
            })
        };
        let mut out = Vec::new();
        loop {
            match rx.try_pop(&mut out) {
                Pop::Got(1) => break,
                Pop::Got(n) => panic!("unexpected chunk size {n}"),
                Pop::Corrupt => panic!("corrupt slot in clean run"),
                Pop::Empty => {
                    if rx.prepare_park() {
                        let (lock, cv) = &*bell;
                        let mut rung = lock.lock().unwrap();
                        while !*rung {
                            // Untimed in the model: a lost doorbell is a
                            // reported deadlock, not a masked hiccup.
                            let (g, _) = cv.wait_timeout(rung, std::time::Duration::MAX).unwrap();
                            rung = g;
                        }
                        drop(rung);
                        rx.unpark();
                    }
                }
            }
        }
        assert_eq!(out, b"x");
        producer.join().unwrap();
    });
}

/// The lane must have teeth: the exact publish edge `Producer` relies on
/// — slot bytes written, then `seq` published — with the publish
/// weakened to `Relaxed`. The consumer side below is the *real*
/// `Consumer::try_pop`; with no release edge its slot read races with
/// the writer, and the detector must say so.
#[cfg(offload_model)]
#[test]
fn relaxed_publish_is_caught_by_the_detector() {
    use check::sync::atomic::Ordering;

    let cfg = check::Config {
        capture_stacks: false,
        ..check::Config::default()
    };
    let failure = check::explore(cfg, || {
        let mem = Arc::new(HeapMem::new(2, 8));
        let writer = {
            let mem = Arc::clone(&mem);
            thread::spawn(move || {
                mem.write(0, 0, b"x");
                mem.len(0).store(1, Ordering::Relaxed);
                // BUG under test: `Producer::try_push_with` publishes
                // with SeqCst; Relaxed publishes no clock, so the
                // consumer's payload read races with the write above.
                mem.seq(0).store(1, Ordering::Relaxed);
            })
        };
        let mut rx = Consumer::new(Arc::clone(&mem));
        let mut out = Vec::new();
        loop {
            match rx.try_pop(&mut out) {
                Pop::Got(_) => break,
                Pop::Empty => thread::yield_now(),
                Pop::Corrupt => break,
            }
        }
        writer.join().unwrap();
    })
    .expect_err("the detector must catch the unpublished slot write");
    assert_eq!(failure.kind, check::FailureKind::DataRace);
    assert!(
        !failure.schedule.is_empty(),
        "data-race failures must carry a replayable schedule: {failure}"
    );
}

/// Wraparound under concurrency: positions straddle the u64 wrap while
/// two laps of a two-slot ring stream through. Exercises the lap
/// arithmetic (`seq = tail + slots`) on both sides of the wrap.
#[test]
fn wraparound_handoff_is_race_free() {
    check::model_with(capped_dfs(), || {
        let start = u64::MAX - 1;
        let mem = Arc::new(HeapMem::with_start(2, 8, start));
        let mut tx = Producer::with_start(Arc::clone(&mem), start);
        let mut rx = Consumer::with_start(Arc::clone(&mem), start);
        let producer = thread::spawn(move || {
            for i in 0..4u8 {
                while !tx.try_push(&[i]) {
                    thread::yield_now();
                }
            }
        });
        let mut out = Vec::new();
        let mut next = 0u8;
        while next < 4 {
            out.clear();
            match rx.try_pop(&mut out) {
                Pop::Got(1) => {
                    assert_eq!(out[0], next, "FIFO broken across the wrap");
                    next += 1;
                }
                Pop::Got(n) => panic!("unexpected chunk size {n}"),
                Pop::Empty => thread::yield_now(),
                Pop::Corrupt => panic!("corrupt slot in clean run"),
            }
        }
        producer.join().unwrap();
    });
}

/// The rewind handoff: an eight-slot ring (rewinds from slot 1 on) whose
/// positions start at slot 3 of a drained ring, so the first push
/// publishes a SKIP there and lands in slot 0 of the next lap — and, on
/// every schedule where the consumer keeps up, later pushes rewind again.
/// The stream then runs through the recycled SKIP slot and a slot the
/// rewind skipped. FIFO and payload integrity must hold on every
/// schedule, and the detector validates that each slot is rewritten only
/// after the consumer's recycle of it.
#[test]
fn rewind_handoff_is_race_free_and_fifo() {
    let st = check::model_with(capped_dfs(), || {
        let start = 3;
        let mem = Arc::new(HeapMem::with_start(8, 8, start));
        let mut tx = Producer::with_start(Arc::clone(&mem), start);
        let mut rx = Consumer::with_start(Arc::clone(&mem), start);
        let producer = thread::spawn(move || {
            for i in 0..5u8 {
                while !tx.try_push(&[i, i + 10]) {
                    thread::yield_now();
                }
            }
        });
        let mut direct: Vec<u8> = Vec::with_capacity(1);
        let mut out = Vec::new();
        let mut next = 0u8;
        while next < 5 {
            direct.clear();
            out.clear();
            match rx.try_pop_into(&mut direct.spare_capacity_mut()[..1], &mut out) {
                Pop::Got(2) => {
                    // SAFETY: `Got(2)` into a one-byte destination
                    // initialised that byte.
                    unsafe { direct.set_len(1) };
                    assert_eq!(direct, vec![next], "FIFO or payload broken");
                    assert_eq!(out, vec![next + 10], "FIFO or payload broken");
                    next += 1;
                }
                Pop::Got(n) => panic!("unexpected chunk size {n}"),
                Pop::Empty => thread::yield_now(),
                Pop::Corrupt => panic!("corrupt slot in clean run"),
            }
        }
        producer.join().unwrap();
    });
    explored_to_the_floor(&st);
}

/// No lost wakeup with a SKIP at the consumer's tail: the first push
/// rewinds (SKIP in slot 3, where the consumer waits) and publishes its
/// chunk in slot 0 of the next lap. The consumer's `prepare_park`
/// re-checks its tail slot, the SKIP's; its pop takes the SKIP and finds
/// slot 0 empty or published; the Dekker handshake then runs on slot 0.
#[test]
fn doorbell_with_a_skip_at_the_tail_has_no_lost_wakeup() {
    let st = check::model_with(capped_dfs(), || {
        let start = 3;
        let mem = Arc::new(HeapMem::with_start(8, 8, start));
        let mut tx = Producer::with_start(Arc::clone(&mem), start);
        let mut rx = Consumer::with_start(Arc::clone(&mem), start);
        let bell = Arc::new((Mutex::new(false), Condvar::new()));
        let producer = {
            let bell = Arc::clone(&bell);
            thread::spawn(move || {
                assert!(tx.try_push(b"x"), "drained ring accepts");
                assert_eq!(tx.hwm(), 1, "the push rewound to slot 0");
                if tx.doorbell_needed() {
                    let (lock, cv) = &*bell;
                    *lock.lock().unwrap() = true;
                    cv.notify_all();
                }
            })
        };
        let mut out = Vec::new();
        loop {
            match rx.try_pop(&mut out) {
                Pop::Got(1) => break,
                Pop::Got(n) => panic!("unexpected chunk size {n}"),
                Pop::Corrupt => panic!("corrupt slot in clean run"),
                Pop::Empty => {
                    if rx.prepare_park() {
                        let (lock, cv) = &*bell;
                        let mut rung = lock.lock().unwrap();
                        while !*rung {
                            let (g, _) = cv.wait_timeout(rung, std::time::Duration::MAX).unwrap();
                            rung = g;
                        }
                        drop(rung);
                        rx.unpark();
                    }
                }
            }
        }
        assert_eq!(out, b"x");
        producer.join().unwrap();
    });
    explored_to_the_floor(&st);
}

/// Teeth for the drained check: a producer that rewinds on its position
/// alone — it publishes chunk `a` in slot 0, a SKIP in slot 1 at once,
/// and writes the next lap's slot 0 straight away, as if the ring had
/// drained. The consumer below is the real `Consumer::try_pop`; nothing
/// orders its read of `a` before the overwrite, and the detector must
/// say so. (`Producer` rewinds only after an Acquire load has seen the
/// consumer recycle the slot before the head, which orders every read of
/// the lap before the next lap's writes, and it still claims each slot of
/// the new lap with an Acquire of its own. Without the drained check it
/// would stay race-free but rewind under load, keeping a burst to the
/// slots below its SKIP; `tests/plain.rs` catches that.)
#[cfg(offload_model)]
#[test]
fn rewind_without_the_drained_check_is_caught_by_the_detector() {
    use check::sync::atomic::Ordering;

    let cfg = check::Config {
        capture_stacks: false,
        ..check::Config::default()
    };
    let failure = check::explore(cfg, || {
        let mem = Arc::new(HeapMem::new(8, 8));
        let writer = {
            let mem = Arc::clone(&mem);
            thread::spawn(move || {
                mem.write(0, 0, b"a");
                mem.len(0).store(1, Ordering::Relaxed);
                mem.seq(0).store(1, Ordering::SeqCst);
                // BUG under test: no drained check before the rewind.
                mem.len(1).store(SKIP, Ordering::Relaxed);
                mem.seq(1).store(2, Ordering::SeqCst);
                mem.write(0, 0, b"b");
                mem.len(0).store(1, Ordering::Relaxed);
                mem.seq(0).store(9, Ordering::SeqCst);
            })
        };
        let mut rx = Consumer::new(Arc::clone(&mem));
        let mut out = Vec::new();
        while out.len() < 2 {
            match rx.try_pop(&mut out) {
                Pop::Got(_) => {}
                Pop::Empty => thread::yield_now(),
                Pop::Corrupt => break,
            }
        }
        writer.join().unwrap();
    })
    .expect_err("the detector must catch the overwrite of an unread slot");
    assert_eq!(failure.kind, check::FailureKind::DataRace);
    assert!(
        !failure.schedule.is_empty(),
        "data-race failures must carry a replayable schedule: {failure}"
    );
}
