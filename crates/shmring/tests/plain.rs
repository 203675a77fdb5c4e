//! Unit coverage of the ring protocol on std's atomics. (The same
//! protocol is explored under the model checker in `tests/model.rs`.)

use shmring::*;
use std::sync::atomic::Ordering;

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

/// Pop every chunk the ring holds, splitting each across a 3-byte direct
/// destination and the staging vector, as the wire fabric pops into a
/// body in progress; returns the chunks in order.
fn drain(rx: &mut Consumer<std::sync::Arc<HeapMem>>) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    loop {
        let mut direct: Vec<u8> = Vec::with_capacity(3);
        let mut out = Vec::new();
        match rx.try_pop_into(&mut direct.spare_capacity_mut()[..3], &mut out) {
            Pop::Got(n) => {
                // SAFETY: `Got(n)` into a 3-byte destination initialised
                // its first `min(n, 3)` bytes.
                unsafe { direct.set_len(n.min(3)) };
                direct.extend_from_slice(&out);
                chunks.push(direct);
            }
            Pop::Empty => return chunks,
            Pop::Corrupt => panic!("corrupt slot in clean run"),
        }
    }
}

/// Push every chunk, draining the ring into `got` whenever it refuses
/// one — as the wire fabric's flush resumes after the peer's pass. Right
/// after a rewind the producer has the slots below the SKIP until the
/// consumer takes it, and the whole ring from then on.
fn push_all(
    tx: &mut Producer<std::sync::Arc<HeapMem>>,
    rx: &mut Consumer<std::sync::Arc<HeapMem>>,
    chunks: &[Vec<u8>],
    got: &mut Vec<Vec<u8>>,
) {
    for chunk in chunks {
        while !tx.try_push(chunk) {
            let before = got.len();
            got.extend(drain(rx));
            assert!(
                got.len() > before,
                "ring refused a push with nothing to pop"
            );
        }
    }
}

#[test]
fn rewinds_keep_fifo_and_payloads_across_many_laps() {
    // 16 slots rewind from index 2 on. Bursts of 1–5 chunks, each
    // drained before the next, never reach the back half of the ring.
    let (mut tx, mut rx, _) = heap_ring(16, 16);
    let mut seq = 0u32;
    for burst in 0..500u32 {
        let want: Vec<Vec<u8>> = (0..1 + burst % 5)
            .map(|_| {
                seq += 1;
                let len = (seq % 17) as usize;
                (0..len).map(|j| (seq as u8) ^ (j as u8)).collect()
            })
            .collect();
        let mut got = Vec::new();
        push_all(&mut tx, &mut rx, &want, &mut got);
        got.extend(drain(&mut rx));
        assert_eq!(got, want, "burst {burst}");
    }
    assert!(tx.hwm() <= 6, "resident slots {} of 16", tx.hwm());
}

#[test]
fn a_burst_past_the_slots_a_rewind_skipped_does_not_wedge() {
    // 8 slots rewind from index 1 on. A drained ring with the head at
    // slot 3: the next push publishes a SKIP there and lands in slot 0
    // of the next lap; slots 4–7 keep the first lap's free values.
    let (mut tx, mut rx, _) = heap_ring(8, 8);
    let one = |i: u8| vec![i];
    for i in 0..3 {
        assert!(tx.try_push(&[i]));
    }
    assert_eq!(drain(&mut rx), vec![one(0), one(1), one(2)]);
    for i in 3..6 {
        assert!(tx.try_push(&[i]), "slots 0–2 of the second lap");
    }
    assert_eq!(tx.hwm(), 3, "the rewind wrote slot 0, not slot 3");
    let mut out = Vec::new();
    assert_eq!(rx.try_pop(&mut out), Pop::Got(1), "the SKIP never surfaces");
    assert_eq!(out, one(3));
    // A burst, the consumer behind it, through the recycled SKIP slot,
    // every skipped slot and on into the next lap: the whole ring.
    for i in 6..12 {
        assert!(tx.try_push(&[i]), "push {i} past the skipped slots");
    }
    assert!(!tx.try_push(b"x"), "full at capacity");
    assert_eq!(tx.hwm(), 8);
    assert_eq!(drain(&mut rx), (4..12).map(one).collect::<Vec<_>>());

    // The consumer side: drained up to a skipped slot, it finds the
    // older lap's free value there — empty, not corrupt — and the
    // producer rewinds from that very slot.
    let (mut tx, mut rx, _) = heap_ring(8, 8);
    for i in 0..3 {
        assert!(tx.try_push(&[i]));
    }
    assert_eq!(drain(&mut rx), vec![one(0), one(1), one(2)]);
    for i in 3..6 {
        assert!(tx.try_push(&[i]));
    }
    assert_eq!(rx.try_pop(&mut Vec::new()), Pop::Got(1));
    assert!(tx.try_push(&[6]), "slot 3, recycled from the SKIP");
    assert_eq!(drain(&mut rx), vec![one(4), one(5), one(6)]);
    assert_eq!(rx.try_pop(&mut out), Pop::Empty, "tail at skipped slot 4");
    assert!(tx.try_push(&[7]), "a rewind from skipped slot 4");
    assert_eq!(drain(&mut rx), vec![one(7)]);
    assert_eq!(tx.hwm(), 4);
}

#[test]
fn rewinds_cross_the_u64_wrap() {
    // Slot 5 at the start: the first push finds the ring drained and
    // rewinds into the lap that begins at position 0, past the wrap.
    let start = u64::MAX - 2;
    let (mut tx, mut rx, _) = heap_ring_with_start(8, 8, start);
    let mut next = 0u8;
    for burst in 0..40u8 {
        let want: Vec<Vec<u8>> = (0..1 + burst % 9)
            .map(|_| {
                next = next.wrapping_add(1);
                vec![next]
            })
            .collect();
        let mut got = Vec::new();
        push_all(&mut tx, &mut rx, &want, &mut got);
        got.extend(drain(&mut rx));
        assert_eq!(got, want, "burst {burst}");
        if burst == 0 {
            assert_eq!(tx.hwm(), 1, "rewound from slot 5 to slot 0");
        }
    }
}

#[test]
fn hostile_skips_are_corrupt_never_a_panic_or_a_spin() {
    // A SKIP at a lap's first slot: no honest producer rewinds from
    // there, so none can follow the jump another SKIP made either.
    let (_, mut rx, mem) = heap_ring(8, 8);
    mem.len(0).store(SKIP, Ordering::Relaxed);
    mem.seq(0).store(1, Ordering::Relaxed);
    let mut out = Vec::new();
    assert_eq!(rx.try_pop(&mut out), Pop::Corrupt);

    // SKIP spam: every slot published as a SKIP, for this lap and the
    // next. The honest-looking one at slot 1 is taken; the one it leads
    // to is not.
    let (mut tx, mut rx, mem) = heap_ring(8, 8);
    assert!(tx.try_push(b"a"));
    assert_eq!(rx.try_pop(&mut out), Pop::Got(1));
    for i in 0..8u64 {
        mem.len(i as u32).store(SKIP, Ordering::Relaxed);
        let pos = if i == 0 { 8 } else { i };
        mem.seq(i as u32).store(pos + 1, Ordering::Relaxed);
    }
    assert_eq!(rx.try_pop(&mut out), Pop::Corrupt);
    assert_eq!(&out, b"a", "nothing delivered from a SKIP");

    // A SKIP below the rewind floor, and any SKIP on a ring too small
    // to rewind.
    let (_, mut rx, mem) = heap_ring(32, 8);
    for i in 0..4 {
        mem.len(i).store(SKIP, Ordering::Relaxed);
        mem.seq(i).store(i as u64 + 1, Ordering::Relaxed);
    }
    assert_eq!(rx.try_pop(&mut out), Pop::Corrupt, "slot 0");
    let (mut tx, mut rx, mem) = heap_ring(4, 8);
    assert!(tx.try_push(b"b"));
    assert_eq!(rx.try_pop(&mut out), Pop::Got(1));
    mem.len(1).store(SKIP, Ordering::Relaxed);
    mem.seq(1).store(2, Ordering::Relaxed);
    assert_eq!(rx.try_pop(&mut out), Pop::Corrupt, "4 slots never rewind");

    // `len = SKIP` under a seq that does not publish the slot: a garbage
    // seq is corrupt, an unpublished one is simply empty.
    let (_, mut rx, mem) = heap_ring(8, 8);
    mem.len(0).store(SKIP, Ordering::Relaxed);
    assert_eq!(rx.try_pop(&mut out), Pop::Empty, "seq still 0");
    mem.seq(0).store(0xdead_beef, Ordering::Relaxed);
    assert_eq!(rx.try_pop(&mut out), Pop::Corrupt);
    assert_eq!(&out, b"ab");
}

#[test]
fn a_skipped_slot_reads_as_free_only_behind_the_position() {
    // A hostile consumer that writes a free value *ahead* of the
    // producer (its residue, one lap on) does not buy a claim.
    let (mut tx, _, mem) = heap_ring(8, 8);
    mem.seq(0).store(8, Ordering::Relaxed);
    assert!(!tx.try_push(b"x"), "a free value ahead reads as full");
    mem.seq(0).store(0u64.wrapping_sub(8), Ordering::Relaxed);
    assert!(tx.try_push(b"x"), "a lap behind is free");
}
