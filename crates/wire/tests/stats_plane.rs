//! "Flat = tree": the stats plane has one uplink whose topology is a
//! parameter, so what the collector ends up knowing about the world must
//! not depend on that parameter. Real [`RelayNode`]s over real Unix
//! sockets against the real [`Collector`], driven leaf-to-root.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use wire::relay::{RelayNode, RelayOpts};
use wire::stats::{relay_summary, Collector, CollectorShared};

/// One rank's registry contents from a seed: shared and rank-private
/// counter names, a gauge with its high-water mark, a histogram.
fn rank_snapshot(rank: usize, seed: u64) -> obs::Snapshot {
    let reg = obs::Registry::default();
    reg.counter("work.items").add(seed % 1000);
    reg.counter(&format!("only.rank{rank}")).add(1 + seed % 7);
    let g = reg.gauge("pool.occupancy");
    g.set(seed % 97);
    g.set(seed % 13);
    let h = reg.histogram("lat");
    for i in 0..(seed % 5) {
        h.record((seed >> (i * 8)) % 100_000);
    }
    reg.snapshot()
}

/// Stand the plane up over `snaps` (one per rank) with the given
/// topology, emit every rank once in leaf-to-root order, and return what
/// the collector holds once `dialers` sources have reported.
fn collect(tag: &str, snaps: &[obs::Snapshot], arity: Option<usize>) -> CollectorShared {
    let n = snaps.len();
    let dir = std::env::temp_dir().join(format!("wire-plane-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let sock = dir.join("stats.sock");
    let col = Collector::start(&sock, n).expect("collector binds");
    // The nodes count into a registry of their own, so the frames carry
    // exactly `snaps` and nothing topology-dependent.
    let scratch = obs::Registry::default();
    let mut nodes: Vec<RelayNode> = (0..n)
        .map(|rank| {
            let opts = RelayOpts {
                rank,
                size: n,
                arity,
                dir: dir.clone(),
                stats_sock: sock.clone(),
                interval: Duration::from_secs(3600),
            };
            RelayNode::connect(&opts, &scratch).expect("node connects")
        })
        .collect();
    for rank in (0..n).rev() {
        nodes[rank].emit(&snaps[rank]);
    }
    let dialers = (0..n)
        .filter(|&r| wire::relay::parent_of(r, arity).is_none())
        .count();
    let deadline = Instant::now() + Duration::from_secs(10);
    while col.peek().sources.len() < dialers {
        assert!(
            Instant::now() < deadline,
            "collector never heard {dialers} source(s)"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(nodes);
    let shared = col.finish();
    let _ = std::fs::remove_dir_all(&dir);
    shared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random per-rank registries, the merge of the N flat sources at
    /// the collector equals the root frame of a k-ary tree over the same
    /// ranks, for k ∈ {1, 2, 3, 8, N}: counters and histograms add,
    /// gauges max. `Snapshot::merge` is commutative and associative, so
    /// any inequality is a plane bug, not an ordering artefact.
    #[test]
    fn merge_of_flat_sources_equals_the_tree_root_frame(
        seeds in prop::collection::vec(any::<u64>(), 2..13),
    ) {
        let n = seeds.len();
        let snaps: Vec<obs::Snapshot> = seeds
            .iter()
            .enumerate()
            .map(|(rank, &seed)| rank_snapshot(rank, seed))
            .collect();
        let flat = collect("flat", &snaps, None);
        prop_assert_eq!(flat.conns, n as u64);
        prop_assert_eq!(relay_summary(flat.sources.values()), None, "flat: no subtree");
        let mut want = obs::Snapshot::default();
        for (rank, snap) in snaps.iter().enumerate() {
            // Flat, every rank is its own row, verbatim.
            let row = &flat.sources[&(rank as u32)];
            prop_assert_eq!((row.coverage, row.height, row.frames), (1, 1, 1));
            prop_assert_eq!(row.last.as_ref(), Some(snap));
            want.merge(snap);
        }
        for k in [1, 2, 3, 8, n] {
            let tree = collect(&format!("k{k}"), &snaps, Some(k));
            prop_assert_eq!(tree.conns, 1, "k = {}: only the root dials", k);
            prop_assert_eq!(tree.sources.len(), 1);
            let root = &tree.sources[&0];
            prop_assert_eq!(root.coverage as usize, n, "k = {}", k);
            prop_assert_eq!(root.last.as_ref(), Some(&want), "k = {}", k);
            let sum = relay_summary(tree.sources.values()).expect("a tree world");
            prop_assert_eq!(sum.depth, wire::relay::depth_of(n - 1, Some(k)), "k = {}", k);
            prop_assert_eq!(&sum.merged, &want);
        }
    }
}
