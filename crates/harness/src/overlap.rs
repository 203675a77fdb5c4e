//! Compute–communication overlap over a *real* transport (the wire socket
//! backend, or in-process mailboxes), comparing the live strategies of
//! [`approaches::live`]: the §4.1 point-to-point panel and the fig 3/5
//! nonblocking-collective panels are one measurement, [`overlap_live`],
//! with a different operation in the middle.
//!
//! Same two-step methodology as the DES panel in [`crate::micro`]: each
//! rank measures the operation's post + wait time with nothing in between
//! (step 1), then re-issues it with application compute equal to the
//! measured communication time inserted between post and wait (step 2).
//! Overlap = wait₁ − wait₂ as a fraction of the no-compute time. For the
//! collective panels the compute is the *application's own* kernel
//! (Dslash, local FFT stages, a CNN forward/backward pass) — real math
//! hiding real collective rounds.
//!
//! On top of the timing, the wire engine's protocol counters say *why*:
//! `wire.rndv_handshake_at_wait` counts rendezvous handshakes (collective
//! rounds included) that could only complete once the application blocked
//! in wait — the baseline pathology — and `wire.rndv_handshake_async`
//! those a progress actor completed during compute, which is what the
//! offload thread buys. Every round send in the reserved tag space bumps
//! `wire.coll_tx` (a deterministic protocol fact for a fixed schedule);
//! `wire.protocol_errors` must stay zero throughout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use approaches::live::{LiveApproach, LiveComm};
use rtmpi::Transport;

use crate::benchjson::{bench_repeats, emit_snapshot, quick_mode, Direction, PanelSnapshot};
use crate::table::Table;

/// One strategy's row of a live overlap panel.
#[derive(Clone, Debug)]
pub struct OverlapRow {
    pub approach: LiveApproach,
    /// Per-rank payload bytes of the measured operation.
    pub bytes: usize,
    /// Mean communication time (post + wait, no compute).
    pub comm_ns: u64,
    pub post_ns: u64,
    /// Mean wait time with compute inserted.
    pub wait_ns: u64,
    /// `100 · (wait₁ − wait₂) / comm`.
    pub overlap_pct: f64,
    /// Rendezvous handshakes (rounds included) completed only at wait.
    pub rndv_at_wait: u64,
    /// Rendezvous handshakes completed asynchronously (during compute).
    pub rndv_async: u64,
    /// Round sends issued in the reserved collective tag space.
    pub coll_tx: u64,
    /// Stray/duplicate/unowned frames observed — must stay 0.
    pub protocol_errors: u64,
    /// Transport progress polls over the run (whoever made them).
    pub progress_polls: u64,
}

/// Run `kernel` repeatedly for `dur`, with a [`LiveComm::progress_hint`]
/// after each call — the cadence an iprobe-instrumented compute loop
/// would manage. The yield after each call stands in for the paper's
/// dedicated progress core: on an undersubscribed machine it is what
/// lets the offload thread (a different thread, same box) run *during*
/// compute at all, without the application itself touching MPI.
fn compute_with_hints<T: Transport>(
    comm: &mut LiveComm<T>,
    dur: Duration,
    kernel: &mut impl FnMut(),
) {
    let end = Instant::now() + dur;
    while Instant::now() < end {
        kernel();
        comm.progress_hint();
        std::thread::yield_now();
    }
}

/// The stand-in kernel of a panel with no application math: ~5 µs of
/// spinning per call.
fn spin_5us() {
    let chunk = Instant::now() + Duration::from_micros(5);
    while Instant::now() < chunk {
        std::hint::spin_loop();
    }
}

/// Run the overlap measurement for one strategy over an owned transport.
/// `post` issues the nonblocking operation and returns its request(s),
/// `finish` waits for them (and checks the result, if there is one to
/// check), and `kernel` is one call of the application's compute, repeated
/// with progress hints in between for the measured communication time.
/// Every participating rank must call this with a matching operation
/// sequence. Returns the row and the reclaimed transport so the caller
/// can run the next strategy over the same mesh.
pub fn overlap_live<T: Transport, R>(
    approach: LiveApproach,
    transport: T,
    bytes: usize,
    iters: usize,
    mut post: impl FnMut(&mut LiveComm<T>) -> R,
    mut finish: impl FnMut(&mut LiveComm<T>, R),
    mut kernel: impl FnMut(),
) -> (OverlapRow, T) {
    let mut comm = LiveComm::start(approach, transport);
    let wire_counters = |comm: &LiveComm<T>| {
        let (_, tobs) = comm.obs();
        tobs.map(|r| r.snapshot()).unwrap_or_default()
    };
    let before = wire_counters(&comm);

    // Warmup: protocol caches, offload thread spin-up, one full operation.
    let req = post(&mut comm);
    finish(&mut comm, req);
    comm.barrier().expect("warmup barrier");

    let (mut post_acc, mut wait1_acc, mut comm_acc, mut wait2_acc) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..iters {
        // Step 1: post + wait back to back.
        let t0 = Instant::now();
        let req = post(&mut comm);
        let t1 = Instant::now();
        finish(&mut comm, req);
        let t2 = Instant::now();
        post_acc += (t1 - t0).as_nanos() as u64;
        wait1_acc += (t2 - t1).as_nanos() as u64;
        comm_acc += (t2 - t0).as_nanos() as u64;
        // Step 2: application compute for the measured communication time.
        let req = post(&mut comm);
        compute_with_hints(&mut comm, t2 - t0, &mut kernel);
        let t3 = Instant::now();
        finish(&mut comm, req);
        wait2_acc += t3.elapsed().as_nanos() as u64;
        comm.barrier().expect("resync barrier");
    }

    let during = wire_counters(&comm).diff(&before);
    let n = iters as u64;
    let (comm_ns, wait1, wait2) = (comm_acc / n, wait1_acc / n, wait2_acc / n);
    let row = OverlapRow {
        approach,
        bytes,
        comm_ns,
        post_ns: post_acc / n,
        wait_ns: wait2,
        overlap_pct: 100.0 * wait1.saturating_sub(wait2) as f64 / comm_ns.max(1) as f64,
        rndv_at_wait: during.counter("wire.rndv_handshake_at_wait"),
        rndv_async: during.counter("wire.rndv_handshake_async"),
        coll_tx: during.counter("wire.coll_tx"),
        protocol_errors: during.counter("wire.protocol_errors"),
        progress_polls: during.counter("wire.progress_polls"),
    };
    (row, comm.finalize())
}

/// The §4.1 point-to-point panel as one more caller of [`overlap_live`]:
/// each rank posts irecv + isend of `size` bytes to `peer` and waits for
/// both, with spinning as the inserted compute.
pub fn p2p_overlap_live<T: Transport>(
    approach: LiveApproach,
    transport: T,
    peer: usize,
    size: usize,
    iters: usize,
) -> (OverlapRow, T) {
    let payload: Arc<[u8]> = Arc::from(vec![0x5au8; size]);
    overlap_live(
        approach,
        transport,
        size,
        iters,
        |comm| {
            let rx = comm.irecv(Some(peer), Some(1));
            (rx, comm.isend(peer, 1, payload.clone()))
        },
        |comm, (rx, tx)| {
            comm.wait(rx).expect("recv");
            comm.wait(tx).expect("send");
        },
        spin_5us,
    )
}

/// Render panel rows as a report table.
pub fn overlap_table(rows: &[OverlapRow]) -> Table {
    let mut t = Table::new(vec![
        "approach",
        "bytes",
        "comm µs",
        "wait µs",
        "overlap %",
        "rndv@wait",
        "rndv async",
        "coll tx",
        "proto errs",
        "polls",
    ]);
    for r in rows {
        t.row(vec![
            r.approach.name().to_string(),
            r.bytes.to_string(),
            format!("{:.1}", r.comm_ns as f64 / 1000.0),
            format!("{:.1}", r.wait_ns as f64 / 1000.0),
            format!("{:.1}", r.overlap_pct),
            r.rndv_at_wait.to_string(),
            r.rndv_async.to_string(),
            r.coll_tx.to_string(),
            r.protocol_errors.to_string(),
            r.progress_polls.to_string(),
        ]);
    }
    t
}

/// Build the perf-trajectory snapshot for a live overlap panel from repeated
/// measurements (`rows_by_repeat[k]` = all approaches' rows of repeat
/// `k`). Wall-clock overlap and wait are `info` — the box decides those.
/// The protocol counters gate:
///
/// * `rndv_at_wait.offload` (lower): the offload thread must keep
///   completing round handshakes asynchronously — deterministically 0.
/// * `rndv_async.baseline` (lower): the baseline gaining async progress
///   would mean the modelled pathology broke — deterministically 0.
/// * `coll_tx.<approach>` (lower): round sends of a fixed schedule are a
///   deterministic protocol fact; growth means the schedule regressed.
/// * `protocol_errors.<approach>` (lower): always 0.
pub fn overlap_snapshot(
    panel: impl Into<String>,
    title: impl Into<String>,
    rows_by_repeat: &[Vec<OverlapRow>],
) -> PanelSnapshot {
    let mut snap = PanelSnapshot::new(panel, title);
    let approaches: Vec<LiveApproach> = rows_by_repeat
        .first()
        .map(|rows| rows.iter().map(|r| r.approach).collect())
        .unwrap_or_default();
    for a in approaches {
        let (at_wait_dir, async_dir) = match a {
            LiveApproach::Offload => (Direction::Lower, Direction::Higher),
            LiveApproach::Baseline => (Direction::Info, Direction::Lower),
            LiveApproach::Iprobe => (Direction::Info, Direction::Info),
        };
        type Pick = fn(&OverlapRow) -> f64;
        let series: [(&str, &str, Direction, Pick); 6] = [
            ("overlap_pct", "%", Direction::Info, |r| r.overlap_pct),
            ("wait_us", "us", Direction::Info, |r| r.wait_ns as f64 / 1e3),
            ("rndv_at_wait", "count", at_wait_dir, |r| {
                r.rndv_at_wait as f64
            }),
            ("rndv_async", "count", async_dir, |r| r.rndv_async as f64),
            ("coll_tx", "count", Direction::Lower, |r| r.coll_tx as f64),
            ("protocol_errors", "count", Direction::Lower, |r| {
                r.protocol_errors as f64
            }),
        ];
        for (what, unit, direction, pick) in series {
            let samples = rows_by_repeat
                .iter()
                .filter_map(|rows| rows.iter().find(|r| r.approach == a))
                .map(pick)
                .collect();
            snap.push_series(format!("{what}.{}", a.name()), unit, direction, samples);
        }
    }
    snap
}

/// One rank's `main` of a wire panel (we are inside `offload-run`): run
/// `measure` under every live strategy in turn over the same mesh —
/// it gets the strategy, the transport and the iteration count, and hands
/// the transport back with its row — `bench_repeats()` times over; rank 0
/// then prints `heading` and the last repeat's table and emits the
/// `panel` snapshot built from all of them.
pub fn run_overlap_panel<T: Transport>(
    transport: T,
    panel: &str,
    title: &str,
    heading: &str,
    mut measure: impl FnMut(LiveApproach, T, usize) -> (OverlapRow, T),
) {
    let rank = transport.rank();
    let iters = if quick_mode() { 2 } else { 4 };
    let mut by_repeat = Vec::new();
    let mut t = transport;
    for _ in 0..bench_repeats() {
        let mut rows = Vec::new();
        for approach in LiveApproach::ALL {
            let (row, back) = measure(approach, t, iters);
            t = back;
            rows.push(row);
        }
        by_repeat.push(rows);
    }
    if rank == 0 {
        println!("{heading}");
        overlap_table(by_repeat.last().expect("one repeat")).print("rank 0 observed");
        emit_snapshot(&overlap_snapshot(panel, title, &by_repeat));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank 0's and rank 1's rows of `measure` over an in-process wire
    /// loopback pair.
    #[cfg(feature = "obs-enabled")]
    fn rows_over_a_pair(
        measure: impl Fn(wire::WireComm) -> OverlapRow + Send + Clone + 'static,
    ) -> Vec<OverlapRow> {
        let handles: Vec<_> = wire::loopback(2)
            .into_iter()
            .map(|t| {
                let measure = measure.clone();
                std::thread::spawn(move || measure(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    }

    /// The acceptance direction, for the p2p exchange and for allreduce
    /// rounds alike: the baseline completes its rendezvous handshakes only
    /// at wait, the offload thread completes them asynchronously during
    /// compute. Counters only — they are deterministic, wall-clock under
    /// test load is not (timing is left to the multi-process panels).
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn handshake_counters_point_the_right_way() {
        use mpisim::types::{Dtype, ReduceOp};
        use offload::CollKind;
        let p2p = |approach| {
            rows_over_a_pair(move |t| {
                let peer = 1 - t.rank();
                p2p_overlap_live(approach, t, peer, 64 * 1024, 2).0
            })
        };
        let lanes = 4 * 1024; // 32 KiB: rendezvous rounds at default crossover
        let allreduce = |approach| {
            rows_over_a_pair(move |t| {
                let mine: Vec<f64> = (0..lanes).map(|i| (i + t.rank()) as f64).collect();
                let post = |comm: &mut LiveComm<_>| {
                    comm.icollective(CollKind::Allreduce {
                        dtype: Dtype::F64,
                        op: ReduceOp::Sum,
                        data: mine.iter().flat_map(|x| x.to_le_bytes()).collect(),
                    })
                };
                let finish = |comm: &mut LiveComm<_>, req| {
                    let out = comm.coll_wait(req).expect("allreduce");
                    let first = f64::from_le_bytes(out[..8].try_into().expect("lane"));
                    assert_eq!(first, 1.0, "0 + 1 across the pair");
                };
                overlap_live(approach, t, lanes * 8, 2, post, finish, spin_5us).0
            })
        };
        let total =
            |rows: &[OverlapRow], f: fn(&OverlapRow) -> u64| rows.iter().map(f).sum::<u64>();

        for (what, base, off) in [
            (
                "p2p",
                p2p(LiveApproach::Baseline),
                p2p(LiveApproach::Offload),
            ),
            (
                "allreduce",
                allreduce(LiveApproach::Baseline),
                allreduce(LiveApproach::Offload),
            ),
        ] {
            assert_eq!(
                total(&base, |r| r.rndv_async),
                0,
                "{what}: baseline must not progress during compute"
            );
            assert_eq!(
                total(&off, |r| r.rndv_at_wait),
                0,
                "{what}: offload never completes handshakes at wait"
            );
            assert!(
                total(&off, |r| r.rndv_async) > 0,
                "{what}: offload completes handshakes asynchronously"
            );
            assert!(
                total(&base, |r| r.coll_tx) > 0,
                "{what}: rounds (the barriers', at least) went through the reserved tag space"
            );
            assert_eq!(total(&base, |r| r.protocol_errors), 0);
            assert_eq!(total(&off, |r| r.protocol_errors), 0);
        }
    }

    #[test]
    fn snapshot_series_carry_gate_directions() {
        let row = |approach, coll_tx| OverlapRow {
            approach,
            bytes: 1024,
            comm_ns: 1000,
            post_ns: 10,
            wait_ns: 100,
            overlap_pct: 50.0,
            rndv_at_wait: 0,
            rndv_async: 4,
            coll_tx,
            protocol_errors: 0,
            progress_polls: 9,
        };
        let repeats = vec![
            vec![
                row(LiveApproach::Baseline, 6),
                row(LiveApproach::Offload, 6),
            ],
            vec![
                row(LiveApproach::Baseline, 6),
                row(LiveApproach::Offload, 6),
            ],
        ];
        let snap = overlap_snapshot("test_nbc", "test", &repeats);
        let series = |name: &str| {
            snap.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("series {name}"))
        };
        assert_eq!(series("rndv_at_wait.offload").direction, Direction::Lower);
        assert_eq!(series("rndv_async.baseline").direction, Direction::Lower);
        assert_eq!(series("coll_tx.offload").direction, Direction::Lower);
        assert_eq!(series("coll_tx.offload").noise, 0.0, "deterministic");
        assert_eq!(series("overlap_pct.baseline").direction, Direction::Info);
        assert_eq!(
            series("protocol_errors.baseline").direction,
            Direction::Lower
        );
        assert_eq!(series("rndv_at_wait.offload").samples, vec![0.0, 0.0]);
    }
}
