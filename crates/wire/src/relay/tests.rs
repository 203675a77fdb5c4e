use super::*;
use crate::stats::tests::{frame, mutate};
use proptest::prelude::*;

/// A node at `rank` of a `size`-rank world whose upstream is a listener
/// the test holds: `(node, the upstream's end, the node's registry, dir)`.
fn node_under_test(
    tag: &str,
    rank: usize,
    size: usize,
    arity: Option<usize>,
) -> (RelayNode, UnixStream, obs::Registry, PathBuf) {
    let dir = std::env::temp_dir().join(format!("relay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let upstream_path = dir.join("up.sock");
    let upstream = UnixListener::bind(&upstream_path).expect("bind upstream");
    let reg = obs::Registry::default();
    let opts = RelayOpts {
        rank,
        size,
        arity,
        dir: dir.clone(),
        stats_sock: upstream_path,
        interval: Duration::from_secs(3600),
    };
    let node = RelayNode::connect(&opts, &reg).expect("node connects");
    let (up, _) = upstream.accept().expect("upstream accept");
    (node, up, reg, dir)
}

fn counter_snapshot(n: u64) -> obs::Snapshot {
    let r = obs::Registry::default();
    r.counter("work.items").add(n);
    r.snapshot()
}

fn relay_frame(src: u32, coverage: u32, height: u32, snap: &obs::Snapshot) -> Vec<u8> {
    frame(FrameKind::Relay, src, coverage, height, &snap.to_bytes())
}

/// Take in child traffic until `done` (children dial and write on their
/// own schedule).
fn pump_until(node: &mut RelayNode, what: &str, done: impl Fn(&RelayNode) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        node.pump();
        if done(node) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Read whole frames off a blocking stream until `n` arrived.
fn read_frames(up: &mut UnixStream, n: usize) -> Vec<(Header, Vec<u8>)> {
    (0..n)
        .map(|_| {
            let mut hdr_buf = [0u8; HEADER_LEN];
            up.read_exact(&mut hdr_buf).expect("frame header");
            let hdr = Header::decode(&hdr_buf).expect("decodes");
            let mut body = vec![0u8; hdr.body_len()];
            up.read_exact(&mut body).expect("frame body");
            (hdr, body)
        })
        .collect()
}

#[test]
fn heap_topology_math() {
    assert_eq!(parent_of(0, Some(8)), None);
    assert_eq!(parent_of(1, Some(8)), Some(0));
    assert_eq!(parent_of(8, Some(8)), Some(0));
    assert_eq!(parent_of(9, Some(8)), Some(1));
    assert_eq!(children_of(0, 64, Some(8)), 1..9);
    assert_eq!(children_of(1, 64, Some(8)), 9..17);
    assert_eq!(children_of(7, 64, Some(8)), 57..64, "clipped to world size");
    assert!(
        children_of(8, 64, Some(8)).is_empty(),
        "rank 8's children are off the end"
    );
    assert_eq!(depth_of(0, Some(8)), 0);
    assert_eq!(depth_of(8, Some(8)), 1);
    assert_eq!(depth_of(63, Some(8)), 2);
    assert_eq!(depth_of(3, Some(2)), 2, "0 -> {{1,2}}, 1 -> {{3}}");
    // Flat: every rank is a childless node under the collector.
    for r in [0usize, 1, 63] {
        assert_eq!(parent_of(r, None), None);
        assert!(children_of(r, 64, None).is_empty());
        assert_eq!(depth_of(r, None), 0);
    }
    // Every non-root rank's parent is a valid smaller rank, and
    // parent/children are mutually consistent.
    for k in [1usize, 2, 3, 8] {
        for size in [1usize, 2, 7, 64, 256] {
            for r in 0..size {
                if let Some(p) = parent_of(r, Some(k)) {
                    assert!(p < r);
                    assert!(children_of(p, size, Some(k)).contains(&r));
                }
                for c in children_of(r, size, Some(k)) {
                    assert_eq!(parent_of(c, Some(k)), Some(r));
                }
            }
        }
    }
}

/// Ground-truth relay hop: a root node with two connected children, each
/// shipping a leaf's frame; the fake upstream must see one Relay frame
/// covering 3 ranks at height 2, counters summed.
#[test]
fn merges_children_into_one_upward_frame() {
    let (mut node, mut up, reg, dir) = node_under_test("test", 0, 3, Some(2));
    let mut kids = Vec::new();
    for n in [10u64, 32] {
        let mut s = UnixStream::connect(dir.join(sock_name(0))).expect("child connects");
        s.write_all(&relay_frame(99, 1, 1, &counter_snapshot(n)))
            .expect("child frame");
        kids.push(s);
    }
    pump_until(&mut node, "children never arrived", |n| {
        n.children.len() == 2 && n.children.iter().all(|c| c.latest.is_some())
    });
    node.emit(&counter_snapshot(100));
    #[cfg(feature = "obs-enabled")]
    {
        assert_eq!(reg.counter("obs.relay_merged").get(), 2);
        assert_eq!(reg.counter("obs.relay_merged.d0").get(), 2);
        assert_eq!(reg.counter("obs.relay_dropped").get(), 0);
        assert_eq!(reg.counter("obs.relay_tx").get(), 1);
    }
    // The upstream sees exactly one Relay frame: coverage 3, height 2,
    // counters summed across the subtree.
    let (hdr, body) = read_frames(&mut up, 1).remove(0);
    assert_eq!(hdr.kind, FrameKind::Relay);
    assert_eq!(hdr.tag, 3, "covers root + 2 children");
    assert_eq!(hdr.xid, 2, "height: leaf children under the root");
    let merged = obs::Snapshot::from_bytes(&body).expect("snapshot parses");
    #[cfg(feature = "obs-enabled")]
    assert_eq!(merged.counter("work.items"), 142);
    let _ = (reg, merged);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A child snapshot replaced before any emission is the coalescing
/// drop `obs.relay_dropped` counts; the totals still flow (newest
/// cumulative snapshot wins).
#[cfg(feature = "obs-enabled")]
#[test]
fn coalescing_a_fresh_snapshot_counts_a_drop() {
    let (mut node, _up, reg, dir) = node_under_test("coal", 0, 2, Some(8));
    let mut child = UnixStream::connect(dir.join(sock_name(0))).expect("child connects");
    for n in [5u64, 9] {
        child
            .write_all(&relay_frame(1, 1, 1, &counter_snapshot(n)))
            .expect("frame");
    }
    pump_until(&mut node, "second snapshot never landed", |_| {
        reg.counter("obs.relay_dropped").get() > 0
    });
    assert_eq!(reg.counter("obs.relay_dropped").get(), 1);
    node.emit(&obs::Snapshot::default());
    // The retained (newest) snapshot carries the cumulative total.
    assert_eq!(reg.counter("obs.relay_merged").get(), 1);
    let latest = node.children[0].latest.as_ref().expect("retained");
    assert_eq!(latest.snap.counter("work.items"), 9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn due_respects_the_interval() {
    let (mut node, _up, _reg, dir) = node_under_test("due", 0, 1, None);
    let t0 = Instant::now();
    assert!(node.due(t0), "first call always fires");
    assert!(!node.due(t0 + Duration::from_secs(1)));
    assert!(node.due(t0 + Duration::from_secs(3601)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An uplink nobody reads fills up; from then on `emit` must return at
/// once, count what it skipped, and — because a frame the socket cut
/// short is finished before anything else is sent — leave a byte stream
/// that still parses frame by frame once the parent reads again.
#[cfg(feature = "obs-enabled")]
#[test]
fn a_full_uplink_skips_emissions_and_keeps_its_framing() {
    let (mut node, mut up, reg, dir) = node_under_test("full", 0, 1, None);
    // ~40 KiB a frame: the socket buffer takes a handful, then cuts one.
    let fat = {
        let r = obs::Registry::default();
        for i in 0..600 {
            r.counter(&format!("some.rather.long.counter.name.for.bulk.{i:04}"))
                .add(i);
        }
        r.snapshot()
    };
    let started = Instant::now();
    for _ in 0..200 {
        node.emit(&fat);
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "emit blocked on a full uplink"
    );
    let sent = reg.counter("obs.relay_tx").get();
    let dropped = reg.counter("obs.relay_dropped").get();
    assert!(sent >= 1 && dropped >= 1, "sent {sent}, dropped {dropped}");
    assert_eq!(sent + dropped, 200, "every emission sent or counted");
    assert!(node.alive(), "a full socket is not a dead link");
    // The parent wakes up: drain what is queued while the node finishes
    // its cut frame, then everything must parse as whole frames.
    up.set_nonblocking(true).expect("nonblocking");
    let mut bytes = Vec::new();
    let mut scratch = [0u8; 65536];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let drained = node.up.drain();
        let before = bytes.len();
        while let Ok(n @ 1..) = up.read(&mut scratch) {
            bytes.extend_from_slice(&scratch[..n]);
        }
        if drained && bytes.len() == before {
            break;
        }
        assert!(Instant::now() < deadline, "backlog stuck");
    }
    let mut frames = 0;
    let mut off = 0;
    while off < bytes.len() {
        let hdr = Header::decode_slice(&bytes[off..]).expect("frame boundary intact");
        assert_eq!((hdr.kind, hdr.tag, hdr.xid), (FrameKind::Relay, 1, 1));
        let end = off + HEADER_LEN + hdr.body_len();
        obs::Snapshot::from_bytes(&bytes[off + HEADER_LEN..end]).expect("body intact");
        off = end;
        frames += 1;
    }
    assert_eq!(frames, sent, "exactly the frames counted as sent");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A child's 24-byte header must not buy memory: announcing more than
/// the stats-plane cap kills that link, counted, with nothing buffered.
#[test]
fn oversized_child_header_kills_the_link_without_buffering() {
    let (mut node, _up, reg, dir) = node_under_test("greedy", 0, 2, Some(8));
    let mut child = UnixStream::connect(dir.join(sock_name(0))).expect("child connects");
    let greedy = Header {
        kind: FrameKind::Relay,
        src: 1,
        tag: 1,
        xid: 1,
        len: crate::proto::MAX_FRAME_LEN,
    };
    child.write_all(&greedy.encode()).expect("hostile header");
    child.write_all(&vec![0u8; 64 * 1024]).expect("some body");
    pump_until(&mut node, "child never arrived", |n| {
        n.children.first().is_some_and(|c| c.dead)
    });
    #[cfg(feature = "obs-enabled")]
    assert_eq!(reg.counter("obs.relay_dropped").get(), 1);
    let _ = reg;
    let ch = &node.children[0];
    assert!(ch.latest.is_none());
    assert_eq!(ch.buf.capacity(), 0, "nothing kept for a dead link");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a child writes — valid frames truncated, bit-flipped or
    /// with a length inflated — intake never panics, never holds more
    /// than one capped frame plus one read, and the link ends dead (at
    /// the latest at the child's EOF) with every refusal counted.
    #[test]
    fn hostile_child_streams_stay_bounded_and_end_dead(
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        how in any::<u64>(),
        at in any::<usize>(),
    ) {
        let mut valid = Vec::new();
        for &seed in &seeds {
            let snap = counter_snapshot(seed % 1000);
            if seed % 3 == 0 {
                valid.extend(frame(FrameKind::Stall, 1, 2, 200, &snap.to_bytes()));
            } else {
                valid.extend(relay_frame(1, 1, 1, &snap));
            }
        }
        let (mut node, _up, reg, dir) = node_under_test("hostile", 0, 2, Some(8));
        let mut child = UnixStream::connect(dir.join(sock_name(0))).expect("child connects");
        child.write_all(&mutate(valid, how, at)).expect("write");
        drop(child);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !node.children.first().is_some_and(|c| c.dead) {
            node.pump();
            prop_assert!(Instant::now() < deadline, "link never ended");
            if let Some(ch) = node.children.first() {
                prop_assert!(ch.buf.len() <= HEADER_LEN + STATS_BODY_MAX + SCRATCH_LEN);
            }
        }
        let ch = &node.children[0];
        prop_assert!(ch.events.len() <= seeds.len());
        if how % 3 == 2 {
            // The inflated first header: refused before anything landed.
            prop_assert!(ch.latest.is_none() && ch.events.is_empty());
            #[cfg(feature = "obs-enabled")]
            prop_assert_eq!(reg.counter("obs.relay_dropped").get(), 1);
        }
        let _ = reg;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
