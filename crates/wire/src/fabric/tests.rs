//! Tests of the socket fabric: flush/doorbell bookkeeping, and the
//! receive path — reassembly, one read per pass, EOF ordering, hostile
//! lengths, the shm socket-before-ring rule, and the syscall counts.
//!
//! `reassembly_*` and `ring_reassembly_*` tests open no sockets and map
//! no segment (they are the ones the Miri lane can run); everything else
//! needs `socketpair`, `poll` or `mmap` and runs natively only.

use super::*;
use crate::engine::{WireComm, WireConfig};
use crate::proto::MAX_FRAME_LEN;
use proptest::prelude::*;
use rtmpi::{OpOutcome, Transport};

/// The ring geometry the shm tests use unless they vary it: 4 × 128 B.
const SMALL_RING: Option<(u32, u32)> = Some((4, 128));

/// Two fabrics joined by one socketpair (A sees the peer as rank 1,
/// B as rank 0), with an optional in-process shm segment of `ring`
/// (slots, slot bytes) attached.
fn joined(ring: Option<(u32, u32)>) -> (SocketFabric, SocketFabric) {
    let (sa, sb) = UnixStream::pair().expect("socketpair");
    sa.set_nonblocking(true).expect("nonblocking");
    sb.set_nonblocking(true).expect("nonblocking");
    let mut a = SocketFabric::new(vec![None, Some(Stream::from(sa))]);
    let mut b = SocketFabric::new(vec![Some(Stream::from(sb)), None]);
    if let Some((slots, slot_size)) = ring {
        let (la, lb) = crate::shm::loopback_pair(slots, slot_size).expect("segment");
        a.attach_shm(1, la);
        b.attach_shm(0, lb);
    }
    (a, b)
}

/// A fabric whose one peer (rank 1) is a raw test-held socket.
fn held() -> (SocketFabric, UnixStream) {
    let (mine, theirs) = UnixStream::pair().expect("socketpair");
    mine.set_nonblocking(true).expect("nonblocking");
    (
        SocketFabric::new(vec![None, Some(Stream::from(mine))]),
        theirs,
    )
}

/// One progress pass's worth of receiving on `peer`: sweep, then one
/// `recv` if the sweep said so. DATA frames with an even xid are granted.
fn pass(f: &mut SocketFabric, peer: usize, out: &mut Vec<Frame>) -> LinkPoll {
    let mut ready = Vec::new();
    f.sweep(&mut ready);
    if !ready[peer] {
        return LinkPoll::default();
    }
    f.recv(
        peer,
        &|h: &Header| h.kind == FrameKind::Data && h.xid.is_multiple_of(2),
        out,
    )
}

fn frame(kind: FrameKind, xid: u32, body: &[u8]) -> Header {
    Header {
        kind,
        src: 0,
        tag: 7,
        xid,
        len: body.len() as u64,
    }
}

fn eager(tag: u32, body: &[u8]) -> Header {
    Header {
        tag,
        ..frame(FrameKind::Eager, 0, body)
    }
}

fn encoded(frames: &[(Header, Vec<u8>)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (h, b) in frames {
        bytes.extend_from_slice(&h.encode());
        bytes.extend_from_slice(b);
    }
    bytes
}

fn assert_same(got: &[Frame], want: &[(Header, Vec<u8>)]) {
    assert_eq!(got.len(), want.len(), "frame count");
    for (i, ((gh, gb), (wh, wb))) in got.iter().zip(want).enumerate() {
        assert_eq!(gh, wh, "header of frame {i}");
        assert!(gb[..] == wb[..], "body of frame {i} ({} bytes)", wb.len());
    }
}

/// A stream of mixed frames from seeds: every kind the mesh carries,
/// bodies from nothing to 300 KiB, a pattern that depends on position.
fn frames_from(seeds: &[u64]) -> Vec<(Header, Vec<u8>)> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let len = match (v >> 8) % 4 {
                0 => 0,
                1 => (v >> 16) % 64,
                2 => (v >> 16) % 5000,
                _ => (v >> 16) % (300 * 1024),
            } as usize;
            let body: Vec<u8> = (0..len)
                .map(|j| (j as u8) ^ (i as u8) ^ (v as u8))
                .collect();
            let xid = (v >> 40) as u32;
            match v % 5 {
                0 => (frame(FrameKind::Eager, xid, &body), body),
                1 => (frame(FrameKind::Data, xid, &body), body),
                2 => (
                    Header {
                        len: len as u64,
                        ..frame(FrameKind::Rts, xid, &[])
                    },
                    Vec::new(),
                ),
                3 => (frame(FrameKind::Cts, xid, &[]), Vec::new()),
                _ => (frame(FrameKind::Doorbell, 0, &[]), Vec::new()),
            }
        })
        .collect()
}

// ---- reassembly (no sockets) -------------------------------------------

/// Run `f` with a parse context that grants what `granted` says.
fn with_cx(granted: &dyn Fn(&Header) -> bool, f: impl FnOnce(&RxCtx<'_>)) {
    let empty: Arc<[u8]> = Arc::from(Vec::new());
    let obs = FabricObs::default();
    f(&RxCtx {
        granted,
        empty: &empty,
        obs: &obs,
    })
}

fn feed_all(chunks: &[&[u8]]) -> (Reassembly, Vec<Frame>) {
    let mut rx = Reassembly::default();
    let mut out = Vec::new();
    with_cx(&|h: &Header| h.xid == 1, |cx| {
        for c in chunks {
            rx.feed(c, cx, &mut out).expect("well-formed stream");
        }
    });
    (rx, out)
}

#[test]
fn reassembly_survives_a_split_at_every_byte() {
    let want = vec![
        (eager(1, &[]), vec![]),
        (eager(2, &[9; 40]), vec![9; 40]),
        (frame(FrameKind::Cts, 5, &[]), vec![]),
        (frame(FrameKind::Data, 1, &[3; 70]), vec![3; 70]),
    ];
    let bytes = encoded(&want);
    for cut in 0..=bytes.len() {
        let (rx, out) = feed_all(&[&bytes[..cut], &bytes[cut..]]);
        assert_same(&out, &want);
        assert!(
            rx.body.is_none() && rx.hdr_len == 0,
            "nothing left at {cut}"
        );
    }
}

#[test]
fn reassembly_trusts_an_announced_length_only_when_granted_or_small() {
    let big = 3 * RX_BUF;
    let hdr_of = |xid| Header {
        len: big as u64,
        ..frame(FrameKind::Data, xid, &[])
    };
    // Granted (xid 1): the destination exists at full size after 10 bytes.
    let (rx, out) = feed_all(&[&hdr_of(1).encode(), &[0xaa; 10]]);
    assert!(out.is_empty());
    match rx.body {
        Some((_, BodyBuf::Sized(b))) => assert_eq!((b.len(), b.filled()), (big, 10)),
        _ => panic!("granted body is allocated at its final size"),
    }
    // Not granted: the peer's word buys only what it actually sent.
    let (rx, _) = feed_all(&[&hdr_of(2).encode(), &[0xaa; 10]]);
    match rx.body {
        Some((_, BodyBuf::Growing(v))) => assert_eq!(v.len(), 10),
        _ => panic!("ungranted large body grows with the bytes received"),
    }
    // Small enough for the receive buffer: sized on the header's say-so.
    let small = frame(FrameKind::Eager, 9, &[0; 100]);
    let (rx, _) = feed_all(&[&small.encode(), &[1; 3]]);
    assert!(matches!(rx.body, Some((_, BodyBuf::Sized(b))) if b.filled() == 3));
}

#[test]
fn reassembly_rejects_a_corrupt_header_without_panicking() {
    let mut out = Vec::new();
    let mut bad = eager(1, &[]).encode();
    bad[0] = 0xff;
    with_cx(&|_| false, |cx| {
        assert!(Reassembly::default().feed(&bad, cx, &mut out).is_err());
    });
    let mut huge = eager(1, &[]).encode();
    huge[16..24].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    with_cx(&|_| true, |cx| {
        assert!(Reassembly::default().feed(&huge, cx, &mut out).is_err());
    });
    assert!(out.is_empty());
}

// ---- ring reassembly (no sockets, heap rings) --------------------------

/// Move `frames` through a `slots` × `slot_size` heap ring into the
/// fabric's `drain_ring` (the ring half of `recv_shm`), one ring's worth
/// per round, until everything is across or the link died. Unless
/// `packed`, they are queued on an outbox and pushed by `push_ring` (the
/// ring half of `flush_shm`), which starts every frame in a fresh slot;
/// `packed`, their encoded bytes fill every slot, so a body's tail and
/// the next frame share one, as any producer may send them.
/// `hostile(mem, round)` may scribble on the ring between a round's push
/// and its drain. DATA frames with an even xid are granted. Returns the
/// frames delivered, whether the link died, and the counted receive-side
/// copies.
fn through_ring(
    frames: &[(Header, Vec<u8>)],
    slots: u32,
    slot_size: u32,
    packed: bool,
    mut hostile: impl FnMut(&shmring::HeapMem, u32),
) -> (Vec<Frame>, bool, u64) {
    let (mut ptx, mut crx, mem) = shmring::heap_ring(slots, slot_size);
    let registry = obs::Registry::default();
    let obs = FabricObs {
        rx_copy_bytes: registry.counter("wire.rx_copy_bytes"),
        ..FabricObs::default()
    };
    let empty: Arc<[u8]> = Arc::from(Vec::new());
    let granted = |h: &Header| h.kind == FrameKind::Data && h.xid.is_multiple_of(2);
    let cx = RxCtx {
        granted: &granted,
        empty: &empty,
        obs: &obs,
    };
    let mut tx = Outbox::default();
    let (bytes, mut sent) = (encoded(frames), 0);
    if !packed {
        for (h, b) in frames {
            tx.push(h, Body::Owned(b.clone()));
        }
        sent = bytes.len();
    }
    let (mut rx, mut staging, mut out) = (Reassembly::default(), Vec::new(), Vec::new());
    let mut res = LinkPoll::default();
    let mut round = 0;
    while !res.died
        && (!tx.frames.is_empty() || sent < bytes.len() || rx.body.is_some() || rx.hdr_len > 0)
    {
        let mut pushed = push_ring(&mut ptx, &mut tx, &obs, &mut LinkPoll::default());
        while sent < bytes.len() {
            let end = bytes.len().min(sent + slot_size as usize);
            if !ptx.try_push(&bytes[sent..end]) {
                break;
            }
            (sent, pushed) = (end, true);
        }
        hostile(&mem, round);
        drain_ring(&mut crx, &mut rx, &mut staging, &cx, &mut out, &mut res);
        round += 1;
        if !pushed && !res.died {
            break; // wedged: nothing moves any more
        }
    }
    #[cfg(feature = "obs-enabled")]
    let copies = registry.snapshot().counter("wire.rx_copy_bytes");
    #[cfg(not(feature = "obs-enabled"))]
    let copies = 0;
    (out, res.died, copies)
}

#[test]
fn ring_reassembly_delivers_a_body_tail_and_the_next_header_from_one_slot() {
    // Packed into 100-byte slots, the 150-byte granted body's tail (the
    // 74 bytes after the first slot's 76) shares the second slot with
    // the next frame's header; at 64 bytes, headers straddle slots too.
    let want = vec![
        (frame(FrameKind::Data, 2, &[5; 150]), vec![5; 150]),
        (eager(3, &[6; 10]), vec![6; 10]),
        (frame(FrameKind::Cts, 4, &[]), vec![]),
        (frame(FrameKind::Data, 1, &[7; 700]), vec![7; 700]),
        (frame(FrameKind::Data, 6, &[8; 3000]), vec![8; 3000]),
        (eager(5, &[9; 40]), vec![9; 40]),
    ];
    for packed in [false, true] {
        for (slots, slot_size) in [(2, 64), (4, 100), (8, 1000), (2, 16 * 1024)] {
            let (out, died, _) = through_ring(&want, slots, slot_size, packed, |_, _| {});
            assert!(!died, "{slots} x {slot_size}, packed {packed}");
            assert_same(&out, &want);
        }
    }
}

#[cfg(feature = "obs-enabled")]
#[test]
fn ring_reassembly_writes_a_granted_body_once_but_its_first_chunk() {
    // A 256 KiB granted body through 16 KiB slots: only the first slot,
    // whose header must be parsed before the body exists, is staged and
    // then copied again.
    let body = vec![0x5a; 256 * 1024];
    let want = vec![(frame(FrameKind::Data, 0, &body), body)];
    let (out, _, copies) = through_ring(&want, 4, 16 * 1024, false, |_, _| {});
    assert_same(&out, &want);
    let staged = 16 * 1024 - HEADER_LEN as u64;
    assert_eq!(copies, (256 * 1024 + HEADER_LEN as u64) + staged);
}

#[test]
fn ring_reassembly_kills_the_link_on_a_hostile_slot_mid_body() {
    // A granted 2000-byte body through a 4 × 64 ring: the third slot of
    // the second round is published with a corrupt control word.
    let body: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
    let want = [(frame(FrameKind::Data, 0, &body), body)];
    let hostile_len = |mem: &shmring::HeapMem, round: u32| {
        if round == 1 {
            mem.len(2).store(65, std::sync::atomic::Ordering::Relaxed);
        }
    };
    let hostile_seq = |mem: &shmring::HeapMem, round: u32| {
        if round == 1 {
            mem.seq(2)
                .store(0xdead_beef, std::sync::atomic::Ordering::Relaxed);
        }
    };
    let (out, died, _) = through_ring(&want, 4, 64, false, hostile_len);
    assert!(died && out.is_empty(), "len beyond the slot");
    let (out, died, _) = through_ring(&want, 4, 64, false, hostile_seq);
    assert!(died && out.is_empty(), "garbage seq");
}

// ---- flush side --------------------------------------------------------

#[test]
fn doorbell_rings_once_per_park_and_rides_the_socket() {
    let (mut a, mut b) = joined(SMALL_RING);
    let registry = obs::Registry::default();
    a.register_obs(&registry);
    // The consumer announces it may park; the empty ring permits it.
    let b_rx = &mut b.links[0]
        .as_mut()
        .expect("link")
        .shm
        .as_mut()
        .expect("shm")
        .rx;
    assert!(b_rx.prepare_park());
    a.queue(1, &eager(7, &[1, 2, 3]), &[1, 2, 3]);
    a.flush(1);
    let mut out = Vec::new();
    pass(&mut b, 0, &mut out);
    // Out-of-band socket bytes parse first: the doorbell precedes the
    // frame it announces.
    let kinds: Vec<FrameKind> = out.iter().map(|(h, _)| h.kind).collect();
    assert_eq!(kinds, vec![FrameKind::Doorbell, FrameKind::Eager]);
    assert_eq!(&out[1].1[..], &[1, 2, 3]);
    // An awake consumer gets no further nudges.
    a.queue(1, &eager(8, &[4]), &[4]);
    a.flush(1);
    out.clear();
    pass(&mut b, 0, &mut out);
    let kinds: Vec<FrameKind> = out.iter().map(|(h, _)| h.kind).collect();
    assert_eq!(kinds, vec![FrameKind::Eager]);
    #[cfg(feature = "obs-enabled")]
    {
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wire.shm_doorbell"), 1);
        assert_eq!(snap.counter("wire.shm_frames"), 2);
        // The only socket write of an shm link is the doorbell.
        assert_eq!(snap.counter("wire.sys.write"), 1);
    }
}

#[test]
fn shm_flush_resumes_a_frame_wider_than_the_ring() {
    // 600-byte body through a 4x128 ring: the frame cannot fit in one
    // ring's worth of slots, so flush must park mid-frame and resume.
    let (mut a, mut b) = joined(SMALL_RING);
    let body: Vec<u8> = (0..600u32).map(|i| i as u8).collect();
    a.queue(1, &eager(3, &body), &body);
    let mut out = Vec::new();
    for _ in 0..64 {
        a.flush(1);
        pass(&mut b, 0, &mut out);
        if !out.is_empty() {
            break;
        }
    }
    assert_same(&out, &[(eager(3, &body), body)]);
}

#[test]
fn writev_flush_counts_whole_frames() {
    let (mut a, mut b) = joined(None);
    let registry = obs::Registry::default();
    a.register_obs(&registry);
    for t in 0..3 {
        a.queue(1, &eager(t, &[t as u8]), &[t as u8]);
    }
    a.flush(1);
    let mut out = Vec::new();
    pass(&mut b, 0, &mut out);
    assert_eq!(out.len(), 3);
    #[cfg(feature = "obs-enabled")]
    {
        assert_eq!(registry.snapshot().counter("wire.writev_frames"), 3);
        assert_eq!(registry.snapshot().counter("wire.sys.write"), 1);
    }
}

// ---- receive side ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the frames and however the byte stream is cut — headers
    /// split, bodies straddling reads, many frames in one read, a body
    /// finished by a direct read — `recv` hands out the same frames in the
    /// same order.
    #[test]
    fn any_frame_stream_in_any_chunking_comes_out_identical(
        seeds in prop::collection::vec(any::<u64>(), 1..20),
        cuts in prop::collection::vec(1usize..70 * 1024, 1..12),
    ) {
        let want = frames_from(&seeds);
        let bytes = encoded(&want);
        let (mut f, mut w) = held();
        w.set_nonblocking(true).expect("nonblocking");
        let mut out = Vec::new();
        let (mut sent, mut cut) = (0, 0);
        while sent < bytes.len() {
            let end = bytes.len().min(sent + cuts[cut % cuts.len()]);
            cut += 1;
            // One chunk, written as the socket takes it, a pass after
            // every attempt so a full socket always drains.
            while sent < end {
                match w.write(&bytes[sent..end]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("writer failed: {e}"),
                }
                prop_assert!(!pass(&mut f, 1, &mut out).died);
            }
        }
        for _ in 0..64 {
            pass(&mut f, 1, &mut out);
        }
        prop_assert_eq!(out.len(), want.len());
        assert_same(&out, &want);
        let rx = &f.links[1].as_ref().expect("link").rx;
        prop_assert!(rx.body.is_none() && rx.hdr_len == 0);
    }

    /// The same streams through a shared-memory segment with slots of
    /// 64 B (the smallest a peer may offer) to 16 KiB come out of
    /// `recv_shm` identical — bodies filled straight from their slots,
    /// granted and ungranted bodies alike — whether `flush_shm` sent them
    /// (every frame from a fresh slot) or their bytes were pushed in
    /// chunks of any size a slot holds, so that a body's tail and the
    /// next header share a slot.
    #[test]
    fn any_frame_stream_through_any_ring_comes_out_identical(
        seeds in prop::collection::vec(any::<u64>(), 1..20),
        cuts in prop::collection::vec(1usize..16 * 1024, 1..12),
        geometry in any::<u64>(),
    ) {
        let want = frames_from(&seeds);
        let slot_size = ((64u32 << (geometry % 9)) - (geometry >> 8) as u32 % 64).max(64);
        let ring = Some((2 << ((geometry >> 16) % 3), slot_size));
        let (mut a, mut b) = joined(ring);
        for (h, body) in &want {
            a.queue(1, h, body);
        }
        let mut out = Vec::new();
        while a.flushed(1) < a.queued(1) {
            prop_assert!(!a.flush(1).died);
            prop_assert!(!pass(&mut b, 0, &mut out).died);
        }
        pass(&mut b, 0, &mut out);
        assert_same(&out, &want);

        let bytes = encoded(&want);
        let (mut a, mut b) = joined(ring);
        let tx = &mut a.links[1].as_mut().expect("link").shm.as_mut().expect("shm").tx;
        let mut out = Vec::new();
        let (mut sent, mut cut) = (0, 0);
        while sent < bytes.len() {
            let end = bytes.len().min(sent + cuts[cut % cuts.len()].min(slot_size as usize));
            if tx.try_push(&bytes[sent..end]) {
                (sent, cut) = (end, cut + 1);
            } else {
                prop_assert!(!pass(&mut b, 0, &mut out).died);
            }
        }
        pass(&mut b, 0, &mut out);
        assert_same(&out, &want);
        let rx = &b.links[0].as_ref().expect("link").rx;
        prop_assert!(rx.body.is_none() && rx.hdr_len == 0);
    }
}

#[test]
fn eof_after_complete_frames_delivers_them_then_reports_death() {
    let (mut f, mut w) = held();
    let want = vec![(eager(1, &[5; 10]), vec![5; 10]), (eager(2, &[]), vec![])];
    w.write_all(&encoded(&want)).expect("write");
    drop(w);
    let mut out = Vec::new();
    let first = pass(&mut f, 1, &mut out);
    assert!(!first.died, "the bytes come before the EOF");
    assert_same(&out, &want);
    assert!(pass(&mut f, 1, &mut out).died, "then the death");
    assert!(!f.alive(1));
    assert_eq!(out.len(), 2);
}

#[test]
fn eof_mid_body_reports_death_and_delivers_nothing_partial() {
    for granted_xid in [0, 1] {
        let (mut f, mut w) = held();
        let hdr = Header {
            len: 200_000,
            ..frame(FrameKind::Data, granted_xid, &[])
        };
        w.write_all(&hdr.encode()).expect("header");
        w.write_all(&[7; 1000]).expect("some body");
        drop(w);
        let mut out = Vec::new();
        let died = (0..4).any(|_| pass(&mut f, 1, &mut out).died);
        assert!(died && out.is_empty());
    }
}

#[test]
fn shm_eof_mid_body_reports_death_and_delivers_nothing_partial() {
    for granted_xid in [0, 1] {
        let (mut a, mut b) = joined(SMALL_RING);
        let body = vec![7; 200_000];
        a.queue(1, &frame(FrameKind::Data, granted_xid, &body), &body);
        let mut out = Vec::new();
        for _ in 0..8 {
            a.flush(1);
            pass(&mut b, 0, &mut out);
        }
        assert!(b.links[0].as_ref().expect("link").rx.body.is_some());
        drop(a);
        let died = (0..4).any(|_| pass(&mut b, 0, &mut out).died);
        assert!(died && out.is_empty());
        assert!(
            b.links[0].as_ref().expect("link").rx.body.is_none(),
            "the partial body is dropped with the link"
        );
    }
}

#[test]
fn hangup_with_unread_bytes_still_drains_them() {
    // Three reads' worth queued, then the peer is gone: every pass sees
    // POLLIN|POLLHUP, reads once, and only the read that finds nothing
    // reports the death.
    let (mut f, mut w) = held();
    let body = vec![0x5a; 50_000];
    let want: Vec<_> = (0..3).map(|t| (eager(t, &body), body.clone())).collect();
    w.write_all(&encoded(&want)).expect("write");
    drop(w);
    let mut out = Vec::new();
    let mut passes = 0;
    while !pass(&mut f, 1, &mut out).died {
        passes += 1;
        assert!(passes < 16, "EOF reached");
    }
    assert!(passes >= 2, "one read per pass, not a drain loop");
    assert_same(&out, &want);
}

#[test]
fn a_header_announcing_a_gigabyte_buys_only_what_follows_it() {
    let (mut f, mut w) = held();
    let hdr = Header {
        len: MAX_FRAME_LEN,
        ..frame(FrameKind::Eager, 0, &[])
    };
    w.write_all(&hdr.encode()).expect("header");
    w.write_all(&[1; 100]).expect("a little body");
    let mut out = Vec::new();
    for _ in 0..8 {
        assert!(!pass(&mut f, 1, &mut out).died);
    }
    // Silence. The link holds what arrived, not what was announced.
    match &f.links[1].as_ref().expect("link").rx.body {
        Some((_, BodyBuf::Growing(v))) => {
            assert_eq!(v.len(), 100);
            assert!(v.capacity() <= RX_BUF, "capacity {}", v.capacity());
        }
        _ => panic!("an ungranted gigabyte must not be allocated"),
    }
    // And it is still reaped cleanly on EOF.
    drop(w);
    assert!((0..4).any(|_| pass(&mut f, 1, &mut out).died));
    assert!(out.is_empty() && !f.alive(1));
}

#[test]
fn shm_frame_pushed_then_closed_is_not_lost() {
    // Regression for the socket-before-ring rule: the peer publishes into
    // the ring and closes. The pass that sees the hang-up must still
    // deliver the ring's chunks before the link dies.
    let (mut a, mut b) = joined(SMALL_RING);
    a.queue(1, &eager(4, &[8; 300]), &[8; 300]);
    a.flush(1);
    drop(a);
    let mut out = Vec::new();
    let res = pass(&mut b, 0, &mut out);
    assert!(res.died, "EOF seen on the socket");
    assert_same(&out, &[(eager(4, &[8; 300]), vec![8; 300])]);
}

// ---- through the engine ------------------------------------------------

/// Rank 0 engine whose peers are raw test-held sockets.
fn injectable(peers: usize) -> (WireComm, Vec<UnixStream>) {
    let mut streams: Vec<Option<Stream>> = vec![None];
    let mut theirs = Vec::new();
    for _ in 0..peers {
        let (mine, t) = UnixStream::pair().expect("socketpair");
        mine.set_nonblocking(true).expect("nonblocking");
        streams.push(Some(Stream::from(mine)));
        theirs.push(t);
    }
    (
        WireComm::new(0, peers + 1, streams, WireConfig::default()),
        theirs,
    )
}

#[test]
fn a_fire_hosing_peer_gets_one_read_of_a_pass_not_the_pass() {
    let (mut a, mut peers) = injectable(2);
    let r = a.irecv(Some(2), Some(9));
    // Rank 2's frame is queued before the pass begins.
    peers[1]
        .write_all(&encoded(&[(eager(9, &[4; 16]), vec![4; 16])]))
        .expect("write");
    // Rank 1 keeps its socket full for as long as the test runs.
    let mut hose = peers.remove(0);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            hose.set_nonblocking(true).expect("nonblocking");
            let junk = encoded(&[(eager(1, &[0; 4000]), vec![0; 4000])]).repeat(64);
            let mut off = 0;
            let mut filled = false;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match hose.write(&junk[off..]) {
                    Ok(n) => off = (off + n) % junk.len(),
                    Err(_) => filled = true,
                }
            }
            filled
        })
    };
    // Let the hose fill the socket, then make exactly one pass.
    std::thread::sleep(std::time::Duration::from_millis(50));
    #[cfg(feature = "obs-enabled")]
    let reads = a.obs().snapshot().counter("wire.sys.read");
    a.progress();
    assert!(
        matches!(a.try_take(&r), Some(Ok(OpOutcome::Received(st, _))) if st.len == 16),
        "rank 2's frame is delivered in the pass that began with it queued"
    );
    #[cfg(feature = "obs-enabled")]
    assert_eq!(
        a.obs().snapshot().counter("wire.sys.read") - reads,
        2,
        "one read per ready link"
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(
        writer.join().expect("writer"),
        "the hose did fill the socket"
    );
}

#[cfg(feature = "obs-enabled")]
#[test]
fn idle_progress_is_one_poll_whatever_the_peer_count() {
    for n in [2, 4] {
        let mut world = crate::bootstrap::loopback_configured(n, WireConfig::default());
        let before = world[0].obs().snapshot();
        for _ in 0..100 {
            assert!(!world[0].progress());
        }
        let after = world[0].obs().snapshot();
        let delta = |name| after.counter(name) - before.counter(name);
        assert_eq!(delta("wire.sys.poll"), 100, "n = {n}");
        assert_eq!(delta("wire.sys.read"), 0, "n = {n}");
        assert_eq!(delta("wire.sys.write"), 0, "n = {n}");
    }
}
