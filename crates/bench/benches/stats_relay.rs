//! Stats-plane scalability panel: the launcher-side cost of hearing from
//! a 64-rank world, flat (every rank dials the collector — the star) vs
//! the k-ary relay tree ([`wire::relay`], arity 8 → depth 2).
//!
//! One driver, the topology its parameter — exactly the launcher's
//! `--relay`: 64 real [`RelayNode`]s over real Unix sockets against the
//! real [`wire::stats::Collector`], each emitting one snapshot per round
//! in leaf-to-root order. Flat, every emission is its own frame at the
//! collector; in the tree each round coalesces into exactly one.
//!
//! Wall-clock series are `info` (this box decides how fast a socket is).
//! The structural counters are deterministic and gate hard:
//!
//! * `relay_merged_per_round` — every non-root rank merged exactly once
//!   per round (63 at 64 ranks; the last round's merges are counted after
//!   the last snapshot was taken, hence 63 · (rounds − 1) / rounds);
//! * `relay_dropped` — 0 in this clean lane (each emission is consumed
//!   before the next lands; any drop means the coalescing logic changed);
//! * `collector_conns.tree` / `collector_frames_per_round.tree` — the
//!   O(k)-connections claim, counted at the collector (1 root connection,
//!   1 merged frame per round vs 64/64 flat);
//! * `relay_depth` / `relay_coverage` — the tree actually had depth 2
//!   and carried all 64 ranks.

use bench::{benchjson, emit, Direction, PanelSnapshot};
use harness::Table;
use std::time::{Duration, Instant};
use wire::relay::{parent_of, RelayNode, RelayOpts};
use wire::stats::{relay_summary, Collector, CollectorShared};

const RANKS: usize = 64;
const ARITY: usize = 8;

fn rounds() -> usize {
    if bench::quick_mode() {
        20
    } else {
        100
    }
}

struct RunStats {
    wall: Duration,
    /// Bytes shipped over every link (flat: rank→collector only; tree:
    /// all parent links including root→collector).
    link_bytes: u64,
    collector_conns: u64,
    collector_frames: u64,
    merged_total: u64,
    dropped_total: u64,
    depth: u32,
    coverage: u64,
}

/// Drive a 64-rank plane for `rounds` emissions per rank and read the
/// result off the collector. `arity` is the topology: `None` flat,
/// `Some(k)` the k-ary tree.
fn run(arity: Option<usize>, rounds: usize) -> RunStats {
    let dir = std::env::temp_dir().join(format!(
        "stats-relay-{}-{}",
        arity.map_or("flat".into(), |k| format!("k{k}")),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let sock = dir.join("stats.sock");
    let col = Collector::start(&sock, RANKS).expect("collector binds");
    let regs: Vec<obs::Registry> = (0..RANKS).map(|_| obs::Registry::default()).collect();
    // Parents before children: each node binds its child listener inside
    // connect(), so rank order guarantees every dial finds its socket.
    let mut nodes: Vec<RelayNode> = (0..RANKS)
        .map(|rank| {
            RelayNode::connect(
                &RelayOpts {
                    rank,
                    size: RANKS,
                    arity,
                    dir: dir.clone(),
                    stats_sock: sock.clone(),
                    interval: Duration::from_millis(1),
                },
                &regs[rank],
            )
            .expect("relay node connects")
        })
        .collect();
    let start = Instant::now();
    for round in 0..rounds {
        // Reverse rank order = children strictly before parents (the heap
        // parent is always a smaller rank), so every emission this round
        // is taken in and merged by its parent in the same round —
        // deterministic counters, no coalescing drops.
        for rank in (0..RANKS).rev() {
            regs[rank]
                .counter("work.items")
                .add(1 + (rank + round) as u64 % 7);
            let own = regs[rank].snapshot();
            nodes[rank].emit(&own);
        }
    }
    let wall = start.elapsed();
    let frames = |s: &CollectorShared| s.sources.values().map(|src| src.frames).sum::<u64>();
    let dialers = (0..RANKS)
        .filter(|&r| parent_of(r, arity).is_none())
        .count();
    let shared = wait_for(col, |s| frames(s) >= (dialers * rounds) as u64);
    let link_bytes: u64 = regs
        .iter()
        .map(|r| r.snapshot().counter("obs.relay_tx_bytes"))
        .sum();
    // The whole-world view: the tree's root delivers it merged, a flat
    // world's rows are merged here.
    let mut world = obs::Snapshot::default();
    for s in shared.sources.values().filter_map(|s| s.last.as_ref()) {
        world.merge(s);
    }
    let tree = relay_summary(shared.sources.values());
    let stats = RunStats {
        wall,
        link_bytes,
        collector_conns: shared.conns,
        collector_frames: frames(&shared),
        merged_total: world.counter("obs.relay_merged"),
        dropped_total: world.counter("obs.relay_dropped"),
        depth: tree.as_ref().map_or(0, |t| t.depth),
        coverage: tree.map_or(shared.sources.len() as u64, |t| t.coverage),
    };
    nodes.clear();
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

/// Poll the collector until `done` or a deadline, then finish it.
fn wait_for(col: Collector, done: impl Fn(&CollectorShared) -> bool) -> CollectorShared {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if done(&col.peek()) || Instant::now() >= deadline {
            return col.finish();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    let rounds = rounds();
    let star = run(None, rounds);
    let tree = run(Some(ARITY), rounds);

    let mut t = Table::new(vec![
        "topology",
        "collector conns",
        "frames @collector",
        "link KiB",
        "merged",
        "dropped",
        "depth",
        "wall ms",
    ]);
    for (name, r) in [("star", &star), ("tree", &tree)] {
        t.row(vec![
            name.to_string(),
            r.collector_conns.to_string(),
            r.collector_frames.to_string(),
            format!("{:.1}", r.link_bytes as f64 / 1024.0),
            r.merged_total.to_string(),
            r.dropped_total.to_string(),
            r.depth.to_string(),
            format!("{:.2}", r.wall.as_secs_f64() * 1e3),
        ]);
    }
    emit(
        "stats_relay",
        "Stats-plane scalability — star vs relay tree, 64 ranks, arity 8",
        &t,
    );

    let mut snap = PanelSnapshot::new(
        "stats_relay",
        "Stats-plane scalability — star vs relay tree, 64 ranks, arity 8",
    );
    let per_round = |total: u64| total as f64 / rounds as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let kib = |bytes: u64| bytes as f64 / 1024.0;
    use Direction::{Higher, Info, Lower};
    for (name, unit, direction, value) in [
        // Deterministic structure: gates hard (noise 0 under the driven
        // leaf-to-root order).
        (
            "relay_merged_per_round",
            "merges",
            Higher,
            per_round(tree.merged_total),
        ),
        ("relay_dropped", "drops", Lower, tree.dropped_total as f64),
        (
            "collector_conns.tree",
            "conns",
            Lower,
            tree.collector_conns as f64,
        ),
        (
            "collector_conns.star",
            "conns",
            Info,
            star.collector_conns as f64,
        ),
        (
            "collector_frames_per_round.tree",
            "frames",
            Lower,
            per_round(tree.collector_frames),
        ),
        ("relay_depth", "levels", Higher, tree.depth as f64),
        ("relay_coverage", "ranks", Higher, tree.coverage as f64),
        // Wall-clock and byte volumes: info (machine-dependent /
        // serialization-size-dependent), recorded for the trajectory.
        ("drive_wall_ms.star", "ms", Info, ms(star.wall)),
        ("drive_wall_ms.tree", "ms", Info, ms(tree.wall)),
        ("link_kib.star", "KiB", Info, kib(star.link_bytes)),
        ("link_kib.tree", "KiB", Info, kib(tree.link_bytes)),
    ] {
        snap.push_series(name, unit, direction, vec![value]);
    }
    benchjson::emit_snapshot(&snap);
}
