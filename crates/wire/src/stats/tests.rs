use super::*;
use proptest::prelude::*;
use std::io::Write;

fn snap_with(counters: &[(&str, u64)]) -> obs::Snapshot {
    let mut s = obs::Snapshot::default();
    for (k, v) in counters {
        s.counters.insert((*k).into(), *v);
    }
    s
}

/// A source that covers one rank: what a flat world's rank, or a leaf
/// heard from directly, looks like at the collector.
fn rank_source(counters: &[(&str, u64)]) -> Source {
    Source {
        coverage: 1,
        height: 1,
        frames: 1,
        last: Some(snap_with(counters)),
        ..Source::default()
    }
}

fn subtree_source(coverage: u32, height: u32, counters: &[(&str, u64)]) -> Source {
    Source {
        coverage,
        height,
        ..rank_source(counters)
    }
}

fn clean_row(rank: usize, stats: Source) -> RankRow {
    RankRow {
        rank,
        outcome: "ok".into(),
        dead: false,
        stats,
        blackbox: None,
    }
}

/// One encoded frame: header then body.
pub(crate) fn frame(kind: FrameKind, src: u32, tag: u32, xid: u32, body: &[u8]) -> Vec<u8> {
    let hdr = Header {
        kind,
        src,
        tag,
        xid,
        len: body.len() as u64,
    };
    let mut out = hdr.encode().to_vec();
    out.extend_from_slice(body);
    out
}

/// A leaf's periodic frame: `Relay`, coverage 1, height 1.
fn leaf_frame(src: u32, snap: &obs::Snapshot) -> Vec<u8> {
    frame(FrameKind::Relay, src, 1, 1, &snap.to_bytes())
}

/// A collector over a fresh socket in its own temp dir.
fn collector(tag: &str, n: usize) -> (Collector, std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let sock = dir.join("stats.sock");
    let col = Collector::start(&sock, n).expect("collector binds");
    (col, sock, dir)
}

fn wait_until(col: &Collector, what: &str, done: impl Fn(&CollectorShared) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done(&col.peek()) {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn history_keeps_first_and_recent_within_cap() {
    let mut h = SnapshotHistory::default();
    let total = HISTORY_CAP * 10 + 3;
    for i in 0..total {
        h.push(snap_with(&[("tick", i as u64)]));
    }
    // Bounded: first + at most HISTORY_CAP recent, the rest counted.
    assert_eq!(h.recent().count(), HISTORY_CAP);
    assert_eq!(h.retained(), HISTORY_CAP + 1);
    assert_eq!(h.dropped() as usize, total - HISTORY_CAP);
    // The first snapshot survives the wrap; the last is the newest.
    assert_eq!(h.first().expect("first").counter("tick"), 0);
    assert_eq!(h.last().expect("last").counter("tick"), (total - 1) as u64);
    // Recent window is contiguous and oldest-first.
    let ticks: Vec<u64> = h.recent().map(|s| s.counter("tick")).collect();
    let want: Vec<u64> = ((total - HISTORY_CAP)..total).map(|i| i as u64).collect();
    assert_eq!(ticks, want);
}

#[test]
fn history_under_cap_retains_everything() {
    let mut h = SnapshotHistory::default();
    for i in 0..3u64 {
        h.push(snap_with(&[("tick", i)]));
    }
    assert_eq!(h.retained(), 3, "first is still inside the ring");
    assert_eq!(h.dropped(), 0);
    assert_eq!(h.first().expect("first").counter("tick"), 0);
}

#[test]
fn collector_history_is_bounded_end_to_end() {
    let (col, sock, dir) = collector("hist-test", 1);
    let mut stream = UnixStream::connect(&sock).expect("connect");
    let frames = (HISTORY_CAP * 3) as u64;
    for i in 0..frames {
        stream
            .write_all(&leaf_frame(0, &snap_with(&[("tick", i)])))
            .expect("frame");
    }
    drop(stream);
    wait_until(&col, "collector saw frames", |s| {
        s.sources.get(&0).is_some_and(|r| r.frames == frames)
    });
    let state = col.finish().sources;
    assert_eq!(state[&0].frames, frames);
    assert!(state[&0].history.retained() <= HISTORY_CAP + 1);
    assert_eq!(state[&0].history.first().expect("first").counter("tick"), 0);
    assert_eq!(
        state[&0].history.last().expect("last").counter("tick"),
        frames - 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scalar_metrics_include_histogram_percentiles() {
    let mut s = obs::Snapshot::default();
    s.histograms.insert(
        "lat".into(),
        obs::HistogramReading {
            count: 1,
            sum: 777,
            buckets: vec![(1023, 1)],
        },
    );
    let m = scalar_metrics(&s);
    assert_eq!(m.get("lat.count"), Some(&1));
    let p50 = *m.get("lat.p50").expect("p50 present");
    assert!((512..=1023).contains(&p50), "p50={p50}");
    assert!(m.contains_key("lat.p95") && m.contains_key("lat.p99"));
}

#[test]
fn aggregate_is_min_median_max_over_ranks() {
    let ranks = [
        rank_source(&[("wire.bytes_tx", 30)]),
        rank_source(&[("wire.bytes_tx", 10)]),
        rank_source(&[("wire.bytes_tx", 20)]),
    ];
    let agg = aggregate(&ranks.iter().collect::<Vec<_>>());
    let a = agg.get("wire.bytes_tx").expect("aggregated");
    assert_eq!((a.min, a.median, a.max), (10, 20, 30));
    // Once a source covers a subtree, the subtrees are the partition: a
    // rank's own evidence beside them is not counted a second time.
    let tree = [
        subtree_source(3, 2, &[("wire.bytes_tx", 60)]),
        rank_source(&[("wire.bytes_tx", 10)]),
    ];
    let agg = aggregate(&tree.iter().collect::<Vec<_>>());
    let a = agg.get("wire.bytes_tx").expect("aggregated");
    assert_eq!((a.min, a.median, a.max), (60, 60, 60));
}

#[test]
fn report_roundtrips_through_validation() {
    let rows: Vec<RankRow> = (0..3)
        .map(|rank| {
            clean_row(
                rank,
                rank_source(&[("wire.rndv_handshake_async", 2 + rank as u64)]),
            )
        })
        .collect();
    let text = render_report_with(&rows);
    assert!(
        text.contains("\"relay\": null"),
        "flat world: no relay section"
    );
    let n = validate_report(&text, 3, &["wire.rndv_handshake_async".into()], &[])
        .expect("report validates");
    assert_eq!(n, 3);
    // Wrong rank count and a zero metric both fail.
    assert!(validate_report(&text, 4, &[], &[]).is_err());
    assert!(validate_report(&text, 3, &["wire.peer_lost".into()], &[]).is_err());
    // --zero: an absent metric passes, a live one fails.
    validate_report(&text, 3, &[], &["wire.peer_lost".into()]).expect("absent is zero");
    assert!(validate_report(&text, 3, &[], &["wire.rndv_handshake_async".into()]).is_err());
}

/// The golden for the one renderer and the one JSON writer: the same
/// rows (own metrics with a gauge and a histogram, a name and an outcome
/// that need escaping, a wrapped history, stall evidence, a dead rank's
/// black box) render to the bytes the parent commit's hand-rolled
/// `render_report_with` wrote.
#[test]
fn flat_report_is_byte_identical_to_the_hand_rolled_renderer() {
    let mut busy = obs::Snapshot::default();
    busy.counters.insert("wire.frames_tx".into(), 1200);
    busy.counters.insert("odd \"name\"\\".into(), 7);
    busy.gauges.insert(
        "pool.occupancy".into(),
        obs::GaugeReading {
            value: 3,
            high_water: 17,
        },
    );
    busy.histograms.insert(
        "lat".into(),
        obs::HistogramReading {
            count: 4,
            sum: 2100,
            buckets: vec![(511, 1), (1023, 3)],
        },
    );
    let mut history = SnapshotHistory::default();
    for i in 0..(HISTORY_CAP as u64 + 3) {
        history.push(snap_with(&[("tick", i)]));
    }
    let rows = vec![
        clean_row(
            0,
            Source {
                frames: 11,
                last: Some(busy),
                history,
                ..rank_source(&[])
            },
        ),
        RankRow {
            outcome: "exited with code 3\n(line two)".into(),
            ..clean_row(
                1,
                Source {
                    frames: 2,
                    stall: Some(StallInfo {
                        stalled_ms: 312,
                        pending_ops: 2,
                    }),
                    ..rank_source(&[("wire.frames_tx", 40), ("wire.stalls", 1)])
                },
            )
        },
        RankRow {
            rank: 2,
            outcome: "killed by signal 9".into(),
            dead: true,
            stats: Source::default(),
            blackbox: Some(bb_dump(3)),
        },
    ];
    assert_eq!(
        render_report_with(&rows),
        include_str!("../../tests/golden/flat_report.json")
    );
    assert_eq!(
        render_report_with(&[]),
        "{\n  \"ranks\": [\n  ],\n  \"relay\": null,\n  \"aggregate\": {\n  }\n}\n"
    );
}

#[test]
fn dead_rank_is_exempt_from_positive_checks_but_counted() {
    let rows = vec![
        clean_row(0, rank_source(&[("wire.frames_tx", 5)])),
        RankRow {
            rank: 1,
            outcome: "killed by signal 9".into(),
            dead: true,
            stats: rank_source(&[("wire.frames_tx", 0), ("wire.peer_lost", 7)]),
            blackbox: None,
        },
    ];
    let text = render_report_with(&rows);
    validate_report(&text, 2, &["wire.frames_tx".into()], &[]).expect("dead rank exempt");
    // The dead rank's nonzero wire.peer_lost is exempt from --zero;
    // the live rank's nonzero wire.frames_tx is not.
    validate_report(&text, 2, &[], &["wire.peer_lost".into()])
        .expect("dead rank exempt from zero checks too");
    assert!(validate_report(&text, 2, &[], &["wire.frames_tx".into()]).is_err());
    // The dead rank's row still carries its evidence.
    assert!(text.contains("\"dead\": true"));
    assert!(text.contains("killed by signal 9"));
}

#[test]
fn stall_rows_render_evidence() {
    let stalled = Source {
        frames: 3,
        stall: Some(StallInfo {
            stalled_ms: 312,
            pending_ops: 2,
        }),
        ..rank_source(&[("wire.stalls", 1)])
    };
    let text = render_report_with(&[clean_row(0, stalled.clone())]);
    assert!(text.contains("\"stalled_ms\": 312"));
    assert!(text.contains("\"pending_ops\": 2"));
    let table = cluster_table(&BTreeMap::from([(0, stalled)]));
    assert!(table.contains("rank 0: 3 snapshot(s)  STALLED 312ms"));
}

#[test]
fn relay_summary_folds_subtrees_by_merge() {
    let sources = [
        subtree_source(5, 3, &[("wire.frames_tx", 10), ("obs.relay_merged", 4)]),
        subtree_source(3, 2, &[("wire.frames_tx", 6)]),
        // A rank's own evidence is not part of what the tree delivered.
        rank_source(&[("wire.frames_tx", 1000)]),
    ];
    let sum = relay_summary(&sources).expect("a tree world");
    assert_eq!(sum.coverage, 8);
    assert_eq!(sum.depth, 2, "max height 3 minus one");
    assert_eq!(sum.frames, 2);
    assert_eq!(sum.merged.counter("wire.frames_tx"), 16);
    assert_eq!(sum.merged.counter("obs.relay_merged"), 4);
    assert_eq!(relay_summary(&sources[2..]), None, "flat: nothing to sum");
    let table = cluster_table(&BTreeMap::from([(0, sources[0].clone())]));
    assert!(table.contains("rank 0: 1 snapshot(s) covering 5 rank(s) at height 3"));
}

#[test]
fn relay_report_section_and_depth_gate() {
    // A tree world: only the root dialed the launcher, so the other rows
    // carry no metrics of their own — the root's subtree covers them.
    let tree_rows = |coverage: u32| -> Vec<RankRow> {
        let root = subtree_source(coverage, 3, &[("obs.relay_merged", 3)]);
        let mut rows = vec![clean_row(0, root)];
        rows.extend((1..4).map(|rank| clean_row(rank, Source::default())));
        rows
    };
    let text = render_report_with(&tree_rows(4));
    assert!(text.contains("\"relay\": {\"coverage\": 4, \"depth\": 2"));
    let checks = ReportChecks {
        ranks: 4,
        positive: vec!["obs.relay_merged".into()],
        relay_depth_min: Some(2),
        ..ReportChecks::default()
    };
    validate_report_checks(&text, &checks).expect("the subtree's merge covers every rank");
    // Depth demanded higher than realized fails.
    let deeper = ReportChecks {
        relay_depth_min: Some(3),
        ..checks.clone()
    };
    assert!(validate_report_checks(&text, &deeper).is_err());
    // Coverage short of the world size fails when nobody died.
    assert!(validate_report_checks(&render_report_with(&tree_rows(3)), &checks).is_err());
    // A clean rank nothing covers — no frames of its own, no relay
    // section — fails whatever is asked, and so does the depth gate.
    let uncovered: Vec<RankRow> = (0..4)
        .map(|rank| clean_row(rank, Source::default()))
        .collect();
    let text = render_report_with(&uncovered);
    assert!(text.contains("\"relay\": null"));
    assert!(validate_report_checks(&text, &checks).is_err());
    let err = validate_report(&text, 4, &[], &[]).expect_err("uncovered clean ranks");
    assert!(err.contains("no source covers it"), "{err}");
}

fn bb_dump(n: u64) -> obs::BlackBoxDump {
    obs::BlackBoxDump {
        capacity: 64,
        recorded: n,
        events: (0..n)
            .map(|i| obs::BbEvent {
                seq: i,
                t_us: i * 10,
                code: bbcode::TX_EAGER,
                a: 1,
                b: 2,
                c: 3,
                d: i,
            })
            .collect(),
    }
}

#[test]
fn blackbox_timeline_gates_dead_ranks() {
    let rows = vec![
        clean_row(0, rank_source(&[("wire.frames_tx", 5)])),
        RankRow {
            rank: 1,
            outcome: "killed by signal 9".into(),
            dead: true,
            stats: Source::default(),
            blackbox: Some(bb_dump(40)),
        },
    ];
    let text = render_report_with(&rows);
    assert!(text.contains("\"code\": \"tx_eager\""));
    let checks = ReportChecks {
        ranks: 2,
        blackbox_dead_min: Some(32),
        ..ReportChecks::default()
    };
    validate_report_checks(&text, &checks).expect("dead rank's timeline validates");
    // Too few events fails.
    let deeper = ReportChecks {
        blackbox_dead_min: Some(64),
        ..checks.clone()
    };
    assert!(validate_report_checks(&text, &deeper).is_err());
    // No dead rank at all fails the gate.
    let live_only = render_report_with(&rows[..1]);
    assert!(validate_report_checks(
        &live_only,
        &ReportChecks {
            ranks: 1,
            blackbox_dead_min: Some(1),
            ..ReportChecks::default()
        }
    )
    .is_err());
    // A scrambled sequence is rejected, not just under-counted.
    let mut bad = bb_dump(40);
    bad.events[5].seq = 3;
    let rows_bad = vec![
        rows[0].clone(),
        RankRow {
            blackbox: Some(bad),
            ..rows[1].clone()
        },
    ];
    assert!(validate_report_checks(&render_report_with(&rows_bad), &checks).is_err());
}

#[test]
fn atomic_report_write_lands_complete() {
    let dir = std::env::temp_dir().join(format!("wire-atomic-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let path = dir.join("report.json");
    write_report_atomic(&path, "first\n").expect("first write");
    write_report_atomic(&path, "second\n").expect("overwrite");
    assert_eq!(std::fs::read_to_string(&path).expect("read"), "second\n");
    // No temp siblings left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn collector_folds_frames_per_rank() {
    let (col, sock, dir) = collector("stats-test", 2);
    // Rank 1 ships one periodic frame and one Stall frame by hand.
    let mut stream = UnixStream::connect(&sock).expect("connect");
    let body = snap_with(&[("wire.frames_rx", 7)]).to_bytes();
    stream
        .write_all(&frame(FrameKind::Relay, 1, 1, 1, &body))
        .expect("relay frame");
    stream
        .write_all(&frame(FrameKind::Stall, 1, 3, 450, &body))
        .expect("stall frame");
    drop(stream);
    wait_until(&col, "collector saw frames", |s| {
        s.sources
            .get(&1)
            .is_some_and(|r| r.frames == 1 && r.stall.is_some())
    });
    let state = col.finish();
    assert_eq!(state.conns, 1);
    assert!(!state.sources.contains_key(&0), "rank 0 never reported");
    let row = &state.sources[&1];
    assert_eq!((row.frames, row.coverage, row.height), (1, 1, 1));
    assert_eq!(
        row.stall,
        Some(StallInfo {
            stalled_ms: 450,
            pending_ops: 3
        })
    );
    assert_eq!(row.history.retained(), 2, "both snapshots in the history");
    let last = row.last.as_ref().expect("snapshot retained");
    assert_eq!(last.counter("wire.frames_rx"), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forwarded `Stall` evidence lands on the row of the rank that stalled:
/// on its own source when the tree covers it from elsewhere, and beside —
/// never over — the merge when the stalled rank is itself a subtree root.
#[test]
fn stall_evidence_in_a_tree_world_never_replaces_a_subtree_merge() {
    let (col, sock, dir) = collector("stall-tree", 4);
    let mut root = UnixStream::connect(&sock).expect("the root dials");
    let merged = snap_with(&[("work.items", 400)]).to_bytes();
    let own = snap_with(&[("work.items", 100)]).to_bytes();
    root.write_all(&frame(FrameKind::Relay, 0, 4, 3, &merged))
        .expect("merged frame");
    root.write_all(&frame(FrameKind::Stall, 3, 1, 250, &own))
        .expect("rank 3's stall, forwarded");
    root.write_all(&frame(FrameKind::Stall, 0, 2, 300, &own))
        .expect("the root's own stall");
    wait_until(&col, "three frames folded", |s| {
        s.sources.get(&0).is_some_and(|r| r.stall.is_some()) && s.sources.contains_key(&3)
    });
    let state = col.finish().sources;
    assert_eq!(state[&3].stall.expect("evidence").stalled_ms, 250);
    assert_eq!(state[&3].frames, 0, "a stall is not a periodic frame");
    let at_stall = state[&3].last.as_ref().expect("rank 3's own snapshot");
    assert_eq!(at_stall.counter("work.items"), 100);
    assert_eq!(state[&0].stall.expect("evidence").pending_ops, 2);
    assert_eq!(state[&0].coverage, 4);
    let still_merged = state[&0].last.as_ref().expect("merge kept");
    assert_eq!(still_merged.counter("work.items"), 400);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 24-byte header must not buy memory: announcing more than the
/// stats-plane cap ends the connection, counted, with nothing folded —
/// not even a valid frame sent right behind it.
#[test]
fn oversized_header_drops_the_link_before_any_body_is_read() {
    let (col, sock, dir) = collector("greedy", 2);
    let mut stream = UnixStream::connect(&sock).expect("connect");
    let greedy = Header {
        kind: FrameKind::Relay,
        src: 0,
        tag: 1,
        xid: 1,
        len: crate::proto::MAX_FRAME_LEN,
    };
    stream.write_all(&greedy.encode()).expect("hostile header");
    let _ = stream.write_all(&leaf_frame(1, &snap_with(&[("tick", 1)])));
    wait_until(&col, "link dropped and counted", |s| s.dropped == 1);
    // The collector hung up: the peer sees EOF (or a reset), not silence.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    match std::io::Read::read(&mut stream, &mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("collector kept the greedy link open: {other:?}"),
    }
    let state = col.finish();
    assert!(
        state.sources.is_empty(),
        "nothing folded from a dropped link"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frames_for_ranks_outside_the_world_are_discarded_and_counted() {
    let (col, sock, dir) = collector("bogus-rank", 2);
    let mut stream = UnixStream::connect(&sock).expect("connect");
    let snap = snap_with(&[("tick", 1)]);
    stream
        .write_all(&leaf_frame(2, &snap))
        .expect("rank 2 of 2");
    stream
        .write_all(&leaf_frame(u32::MAX, &snap))
        .expect("rank 2^32-1");
    stream.write_all(&leaf_frame(1, &snap)).expect("rank 1");
    wait_until(&col, "the valid frame behind them is folded", |s| {
        s.sources.contains_key(&1)
    });
    let state = col.finish();
    assert_eq!(state.dropped, 2);
    assert_eq!(state.sources.len(), 1, "no source grown on a peer's say-so");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One valid stats-plane byte stream: a few `Relay` and `Stall` frames.
fn valid_stream(seeds: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let snap = snap_with(&[("work.items", seed % 1000), ("tick", i as u64)]);
        let src = (seed % 4) as u32;
        if seed % 3 == 0 {
            out.extend(frame(
                FrameKind::Stall,
                src,
                seed as u32 % 8,
                200,
                &snap.to_bytes(),
            ));
        } else {
            out.extend(leaf_frame(src, &snap));
        }
    }
    out
}

/// Truncate `bytes`, flip one of its bits, or inflate the first frame's
/// announced length (header bytes 16..24) — past what any header may say,
/// or to half a GiB, which the header codec accepts and the plane's cap
/// must not.
pub(crate) fn mutate(mut bytes: Vec<u8>, how: u64, at: usize) -> Vec<u8> {
    let at = at % bytes.len();
    match how % 3 {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << ((how >> 8) % 8),
        _ => {
            let len = if how & 0x100 == 0 {
                u64::MAX
            } else {
                (1 << 29) + (how >> 40)
            };
            bytes[16..24].copy_from_slice(&len.to_le_bytes());
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a peer writes — a valid stream truncated, bit-flipped or
    /// with a length inflated — the reader returns (never panics, never
    /// waits for bytes a hostile length promised), folds only sources
    /// inside the world and no more snapshots than frames were sent; an
    /// inflated first header ends the link, counted, with nothing folded.
    #[test]
    fn hostile_streams_end_as_counted_drops_or_a_dead_link(
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        how in any::<u64>(),
        at in any::<usize>(),
    ) {
        let sent = mutate(valid_stream(&seeds), how, at);
        let (mut tx, rx) = UnixStream::pair().expect("pair");
        let shared = Mutex::new(CollectorShared::default());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| read_frames(rx, &shared, &stop, 4));
            let _ = tx.write_all(&sent);
            drop(tx);
            reader.join().expect("reader returned without panicking");
        });
        let state = shared.into_inner().expect("no poisoned lock");
        prop_assert!(state.sources.keys().all(|&src| src < 4));
        let folded: u64 = state
            .sources
            .values()
            .map(|s| s.history.retained() as u64 + s.history.dropped())
            .sum();
        prop_assert!(folded <= seeds.len() as u64);
        if how % 3 == 2 {
            prop_assert_eq!((folded, state.dropped), (0, 1));
        }
    }
}
