//! Unit coverage of the ring protocol over the library's std facade.
//! (The same protocol source is explored under the model checker in
//! `tests/model.rs`.)

use shmring::sync::atomic::Ordering;
use shmring::*;

#[test]
fn roundtrip_is_fifo() {
    let (mut tx, mut rx, _) = heap_ring(4, 16);
    for i in 0..3u8 {
        assert!(tx.try_push(&[i, i + 10]));
    }
    let mut out = Vec::new();
    for i in 0..3u8 {
        assert_eq!(rx.try_pop(&mut out), Pop::Got(2));
        assert_eq!(&out[out.len() - 2..], &[i, i + 10]);
    }
    assert_eq!(rx.try_pop(&mut out), Pop::Empty);
}

#[test]
fn full_ring_rejects_until_a_pop_frees_a_slot() {
    let (mut tx, mut rx, _) = heap_ring(2, 8);
    assert!(tx.try_push(b"a"));
    assert!(tx.try_push(b"b"));
    assert!(!tx.try_push(b"c"), "ring of 2 is full");
    let mut out = Vec::new();
    assert_eq!(rx.try_pop(&mut out), Pop::Got(1));
    assert!(tx.try_push(b"c"), "pop recycled a slot");
}

#[test]
fn oversized_chunk_is_refused_outright() {
    let (mut tx, _, _) = heap_ring(2, 8);
    assert!(!tx.try_push(&[0u8; 9]));
    assert!(tx.try_push(&[0u8; 8]), "exactly slot-sized fits");
}

#[test]
fn wraparound_start_positions_work() {
    // Positions about to wrap u64, mirroring the core queue's
    // `with_start_pos` coverage: the index math and seq lap
    // arithmetic must be continuous across the wrap.
    let slots = 4u32;
    let start = u64::MAX - 1;
    let (mut tx, mut rx, _) = heap_ring_with_start(slots, 8, start);
    let mut out = Vec::new();
    for round in 0..3u8 {
        for i in 0..slots as u8 {
            assert!(tx.try_push(&[round, i]), "round {round} push {i}");
        }
        assert!(!tx.try_push(b"x"), "full at capacity");
        for i in 0..slots as u8 {
            out.clear();
            assert_eq!(rx.try_pop(&mut out), Pop::Got(2));
            assert_eq!(out, vec![round, i]);
        }
        assert_eq!(rx.try_pop(&mut out), Pop::Empty);
    }
}

#[test]
fn slot_writer_packs_pieces_and_reports_room() {
    let (mut tx, mut rx, _) = heap_ring(2, 8);
    let copied = tx
        .try_push_with(|w| {
            assert_eq!(w.remaining(), 8);
            let a = w.put(b"head");
            let b = w.put(b"tailmore"); // 8 bytes into 4 remaining
            assert_eq!(w.remaining(), 0);
            a + b
        })
        .expect("ring has room");
    assert_eq!(copied, 8, "4 + 4 clipped to capacity");
    let mut out = Vec::new();
    assert_eq!(rx.try_pop(&mut out), Pop::Got(8));
    assert_eq!(&out, b"headtail");
}

#[test]
fn corrupt_len_is_reported_not_trusted() {
    let (mut tx, mut rx, mem) = heap_ring(2, 8);
    assert!(tx.try_push(b"ok"));
    // A hostile peer rewrites the published slot's length word.
    mem.len(0).store(9999, Ordering::Relaxed);
    let mut out = Vec::new();
    assert_eq!(rx.try_pop(&mut out), Pop::Corrupt);
    assert!(out.is_empty(), "no bytes delivered from a corrupt slot");
}

#[test]
fn garbage_seq_wedges_the_producer_and_is_corrupt_to_the_consumer() {
    let (mut tx, mut rx, mem) = heap_ring(2, 8);
    mem.seq(0).store(0xdead_beef, Ordering::Relaxed);
    assert!(!tx.try_push(b"a"), "garbage seq reads as full");
    let mut out = Vec::new();
    assert_eq!(
        rx.try_pop(&mut out),
        Pop::Corrupt,
        "…and is no seq a producer leaves"
    );
    assert!(out.is_empty());
}

#[test]
fn pop_into_fills_the_direct_destination_first_and_stages_the_rest() {
    let (mut tx, mut rx, _) = heap_ring(4, 8);
    assert!(tx.try_push(b"abcdef"));
    assert!(tx.try_push(b"gh"));
    assert!(tx.try_push(b"ij"));
    let mut body: Vec<u8> = Vec::with_capacity(8);
    let mut out = Vec::new();
    // Room for 4: the chunk splits 4 direct + 2 staged.
    assert_eq!(
        rx.try_pop_into(&mut body.spare_capacity_mut()[..4], &mut out),
        Pop::Got(6)
    );
    // SAFETY: `Got(6)` into a 4-byte destination initialised all 4.
    unsafe { body.set_len(4) };
    assert_eq!((&body[..], &out[..]), (&b"abcd"[..], &b"ef"[..]));
    // Room for more than the chunk: all of it direct, nothing staged.
    out.clear();
    assert_eq!(
        rx.try_pop_into(&mut body.spare_capacity_mut()[..4], &mut out),
        Pop::Got(2)
    );
    // SAFETY: `Got(2)` into a 4-byte destination initialised 2.
    unsafe { body.set_len(6) };
    assert_eq!(&body[..], b"abcdgh");
    assert!(out.is_empty());
    // An empty destination is `try_pop`.
    assert_eq!(rx.try_pop_into(&mut [], &mut out), Pop::Got(2));
    assert_eq!(&out[..], b"ij");
}

#[test]
fn park_handshake_never_parks_past_a_publish() {
    let (mut tx, rx, mem) = heap_ring(2, 8);
    // Empty ring: parking is safe and the flag is left set.
    assert!(rx.prepare_park());
    assert_eq!(mem.parked().load(Ordering::SeqCst), 1);
    // The producer's next publish observes the parked consumer
    // exactly once.
    assert!(tx.try_push(b"a"));
    assert!(tx.doorbell_needed());
    assert!(!tx.doorbell_needed(), "one park, one doorbell");
    // With a chunk already published, prepare_park declines and
    // clears the flag itself.
    assert!(!rx.prepare_park());
    assert_eq!(mem.parked().load(Ordering::SeqCst), 0);
    rx.unpark();
    assert_eq!(mem.parked().load(Ordering::SeqCst), 0);
}

#[test]
fn threaded_stream_roundtrips() {
    let (mut tx, mut rx, _) = heap_ring(8, 32);
    let producer = std::thread::spawn(move || {
        for i in 0..10_000u32 {
            let msg = i.to_le_bytes();
            while !tx.try_push(&msg) {
                std::thread::yield_now();
            }
        }
    });
    let mut out = Vec::new();
    let mut next = 0u32;
    while next < 10_000 {
        out.clear();
        match rx.try_pop(&mut out) {
            Pop::Got(4) => {
                let got = u32::from_le_bytes(out[..4].try_into().expect("4 bytes"));
                assert_eq!(got, next, "FIFO violated");
                next += 1;
            }
            Pop::Got(n) => panic!("unexpected chunk size {n}"),
            Pop::Empty => std::thread::yield_now(),
            Pop::Corrupt => panic!("corrupt slot in clean run"),
        }
    }
    producer.join().expect("producer");
}
