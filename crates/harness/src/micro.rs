//! The paper's microbenchmarks (§4), implemented over `approaches::Comm`:
//! compute–communication overlap, nonblocking call issue cost, OSU
//! latency/bandwidth, and the multithreaded OSU latency test.

use approaches::{run_approach, Approach, Comm, SimColl};
use destime::Nanos;
use mpisim::{Bytes, Dtype, ReduceOp};
use simnet::MachineProfile;

/// The paper's two-process microbenchmarks place the ranks on *different
/// nodes* ("on 2 Endeavor Xeon nodes"); force one rank per node so the
/// exchange crosses the wire instead of shared memory.
fn internode(mut profile: MachineProfile) -> MachineProfile {
    profile.ranks_per_node = 1;
    profile
}

/// Result of the point-to-point overlap benchmark (§4.1, Fig 2).
#[derive(Clone, Copy, Debug)]
pub struct OverlapResult {
    /// Baseline communication time (post + wait without compute).
    pub comm_ns: Nanos,
    pub post_ns: Nanos,
    /// Wait time of the step *with* compute inserted.
    pub wait_ns: Nanos,
    /// Overlap achieved, as a percentage of the communication time.
    pub overlap_pct: f64,
    pub post_pct: f64,
    pub wait_pct: f64,
}

/// §4.1 methodology: each of two ranks posts `MPI_Irecv` + `MPI_Isend`,
/// measures the posting time and the `MPI_Wait` time; then repeats with
/// compute (equal to the measured communication time) inserted between the
/// posts and the waits. Overlap = wait(step 1) − wait(step 2).
pub fn overlap_p2p(
    profile: MachineProfile,
    approach: Approach,
    size: usize,
    iters: usize,
) -> OverlapResult {
    overlap_p2p_observed(profile, approach, size, iters).result
}

/// [`overlap_p2p`] plus metric snapshots: who made progress during the
/// compute window, and what the offload service loop did overall.
pub struct ObservedOverlap {
    pub result: OverlapResult,
    /// Rank 0's engine-metric diff across the final iteration's compute
    /// window (`mpi.progress_polls` here distinguishes the approaches:
    /// zero for baseline — nobody enters MPI during compute — and many
    /// for anything with a progress actor).
    pub during_compute: obs::Snapshot,
    /// Rank 0's offload service-loop metrics for the whole run; `None`
    /// for strategies without a service thread.
    pub service: Option<obs::Snapshot>,
}

pub fn overlap_p2p_observed(
    profile: MachineProfile,
    approach: Approach,
    size: usize,
    iters: usize,
) -> ObservedOverlap {
    let (outs, _) = run_approach(2, internode(profile), approach, false, move |comm: Comm| {
        async move {
            let env = comm.env().clone();
            let peer = 1 - comm.rank();
            let mut post_acc = 0u64;
            let mut wait1_acc = 0u64;
            let mut comm_acc = 0u64;
            let mut wait2_acc = 0u64;
            let mut during_compute = obs::Snapshot::default();
            // Warmup round (protocol caches, helper threads spinning up).
            exchange(&comm, peer, size).await;
            for _ in 0..iters {
                // Step 1: no compute.
                let t0 = env.now();
                let reqs = post_pair(&comm, peer, size).await;
                let t1 = env.now();
                comm.waitall(&reqs).await;
                let t2 = env.now();
                post_acc += t1 - t0;
                wait1_acc += t2 - t1;
                comm_acc += t2 - t0;
                // Step 2: compute for the measured communication time.
                let reqs = post_pair(&comm, peer, size).await;
                let before = comm.obs_registry().snapshot();
                env.advance(t2 - t0).await;
                during_compute = comm.obs_registry().snapshot().diff(&before);
                let t3 = env.now();
                comm.waitall(&reqs).await;
                wait2_acc += env.now() - t3;
                // Resynchronize.
                comm.barrier().await;
            }
            let service = comm.offload_service_obs().map(|r| r.snapshot());
            let n = iters as u64;
            (
                (post_acc / n, wait1_acc / n, comm_acc / n, wait2_acc / n),
                during_compute,
                service,
            )
        }
    });
    let ((post, wait1, comm, wait2), during_compute, service) =
        outs.into_iter().next().expect("rank 0 output");
    let overlap = wait1.saturating_sub(wait2);
    let pct = |x: Nanos| 100.0 * x as f64 / comm.max(1) as f64;
    ObservedOverlap {
        result: OverlapResult {
            comm_ns: comm,
            post_ns: post,
            wait_ns: wait2,
            overlap_pct: pct(overlap),
            post_pct: pct(post),
            wait_pct: pct(wait2),
        },
        during_compute,
        service,
    }
}

async fn post_pair(comm: &Comm, peer: usize, size: usize) -> Vec<approaches::CommReq> {
    let rx = comm.irecv(Some(peer), Some(1)).await;
    let tx = comm.isend(peer, 1, Bytes::synthetic(size)).await;
    vec![rx, tx]
}

async fn exchange(comm: &Comm, peer: usize, size: usize) {
    let reqs = post_pair(comm, peer, size).await;
    comm.waitall(&reqs).await;
}

/// One blocking round trip of `size` bytes: rank 0 sends on `tags.0` and
/// receives on `tags.1`, its peer the reverse.
async fn ping_pong(comm: &Comm, peer: usize, tags: (u32, u32), size: usize) {
    if comm.rank() == 0 {
        comm.send(peer, tags.0, Bytes::synthetic(size)).await;
        let _ = comm.recv(Some(peer), Some(tags.1)).await;
    } else {
        let _ = comm.recv(Some(peer), Some(tags.0)).await;
        comm.send(peer, tags.1, Bytes::synthetic(size)).await;
    }
}

/// Time spent *inside* the `MPI_Isend` call during a ping-pong
/// (§4.2, Fig 4). Returns mean issue nanoseconds on rank 0.
pub fn isend_issue_cost(
    profile: MachineProfile,
    approach: Approach,
    size: usize,
    iters: usize,
) -> Nanos {
    let (outs, _) = run_approach(
        2,
        internode(profile),
        approach,
        false,
        move |comm: Comm| async move {
            let env = comm.env().clone();
            let peer = 1 - comm.rank();
            let mut acc = 0u64;
            exchange(&comm, peer, size).await;
            for _ in 0..iters {
                if comm.rank() == 0 {
                    let rx = comm.irecv(Some(peer), Some(2)).await;
                    let t0 = env.now();
                    let tx = comm.isend(peer, 1, Bytes::synthetic(size)).await;
                    acc += env.now() - t0;
                    comm.waitall(&[tx, rx]).await;
                } else {
                    let rx = comm.irecv(Some(peer), Some(1)).await;
                    comm.wait(&rx).await;
                    comm.send(peer, 2, Bytes::synthetic(size)).await;
                }
            }
            acc / iters as u64
        },
    );
    outs[0]
}

/// Nonblocking collectives for Figs 3 and 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollOp {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
}

impl CollOp {
    pub const ALL: [CollOp; 8] = [
        CollOp::Barrier,
        CollOp::Bcast,
        CollOp::Reduce,
        CollOp::Allreduce,
        CollOp::Gather,
        CollOp::Scatter,
        CollOp::Allgather,
        CollOp::Alltoall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CollOp::Barrier => "Ibarrier",
            CollOp::Bcast => "Ibcast",
            CollOp::Reduce => "Ireduce",
            CollOp::Allreduce => "Iallreduce",
            CollOp::Gather => "Igather",
            CollOp::Scatter => "Iscatter",
            CollOp::Allgather => "Iallgather",
            CollOp::Alltoall => "Ialltoall",
        }
    }
}

async fn start_coll(comm: &Comm, kind: CollOp, size: usize) -> approaches::CommReq {
    let p = comm.size();
    // `size` is the per-rank payload, padded to a dtype lane.
    let block = size.max(8).div_ceil(8) * 8;
    let (payload, mine) = (Bytes::synthetic(block), Bytes::synthetic(block));
    let (root, dtype, op) = (0, Dtype::F64, ReduceOp::Sum);
    comm.icollective(match kind {
        CollOp::Barrier => SimColl::Barrier,
        CollOp::Bcast => SimColl::Bcast { root, payload },
        CollOp::Reduce => SimColl::Reduce {
            root,
            data: payload,
            dtype,
            op,
        },
        CollOp::Allreduce => SimColl::Allreduce {
            data: payload,
            dtype,
            op,
        },
        CollOp::Gather => SimColl::Gather { root, mine },
        CollOp::Scatter => {
            let input = Bytes::synthetic(if comm.rank() == root { block * p } else { 0 });
            SimColl::Scatter { root, input, block }
        }
        CollOp::Allgather => SimColl::Allgather { mine },
        CollOp::Alltoall => {
            let input = Bytes::synthetic(block * p);
            SimColl::Alltoall { input, block }
        }
    })
    .await
}

/// IMB-NBC-style overlap measurement for a nonblocking collective
/// (§4.1, Fig 3): overlap % = (t_pure + t_compute − t_overlapped) / t_pure.
pub fn nbc_overlap(
    profile: MachineProfile,
    approach: Approach,
    ranks: usize,
    op: CollOp,
    size: usize,
    iters: usize,
) -> f64 {
    let (outs, _) = run_approach(ranks, profile, approach, false, move |comm: Comm| {
        async move {
            let env = comm.env().clone();
            // Warmup.
            let r = start_coll(&comm, op, size).await;
            comm.wait(&r).await;
            comm.barrier().await;
            let mut pure_acc = 0u64;
            let mut ovrl_acc = 0u64;
            for _ in 0..iters {
                // Pure (blocking) time.
                let t0 = env.now();
                let r = start_coll(&comm, op, size).await;
                comm.wait(&r).await;
                let t_pure = env.now() - t0;
                pure_acc += t_pure;
                comm.barrier().await;
                // Overlapped: collective + equal compute.
                let t0 = env.now();
                let r = start_coll(&comm, op, size).await;
                env.advance(t_pure).await;
                comm.wait(&r).await;
                ovrl_acc += env.now() - t0;
                comm.barrier().await;
            }
            (pure_acc / iters as u64, ovrl_acc / iters as u64)
        }
    });
    // Use the slowest rank's view (collective completion is global).
    let (pure, ovrl) = outs
        .iter()
        .max_by_key(|(p, _)| *p)
        .copied()
        .expect("at least one rank");
    let overlap = (pure as f64 + pure as f64 - ovrl as f64) / pure as f64;
    (overlap.clamp(0.0, 1.0)) * 100.0
}

/// Issue cost of a nonblocking collective call (§4.2, Fig 5): time inside
/// the `MPI_I<coll>` call on rank 0.
pub fn nbc_issue_cost(
    profile: MachineProfile,
    approach: Approach,
    ranks: usize,
    op: CollOp,
    size: usize,
    iters: usize,
) -> Nanos {
    let (outs, _) = run_approach(
        ranks,
        profile,
        approach,
        false,
        move |comm: Comm| async move {
            let env = comm.env().clone();
            let r = start_coll(&comm, op, size).await;
            comm.wait(&r).await;
            comm.barrier().await;
            let mut acc = 0u64;
            for _ in 0..iters {
                let t0 = env.now();
                let r = start_coll(&comm, op, size).await;
                acc += env.now() - t0;
                comm.wait(&r).await;
                comm.barrier().await;
            }
            acc / iters as u64
        },
    );
    outs[0]
}

/// OSU one-way latency (§4.5, Fig 7a): blocking ping-pong / 2.
pub fn osu_latency(
    profile: MachineProfile,
    approach: Approach,
    size: usize,
    iters: usize,
) -> Nanos {
    let (outs, _) = run_approach(
        2,
        internode(profile),
        approach,
        false,
        move |comm: Comm| async move {
            let env = comm.env().clone();
            let peer = 1 - comm.rank();
            exchange(&comm, peer, size).await;
            let t0 = env.now();
            for _ in 0..iters {
                ping_pong(&comm, peer, (1, 2), size).await;
            }
            (env.now() - t0) / (2 * iters as u64)
        },
    );
    outs[0]
}

/// OSU unidirectional bandwidth in GB/s (§4.5, Fig 7b): windows of
/// nonblocking sends answered by one ack.
pub fn osu_bandwidth(
    profile: MachineProfile,
    approach: Approach,
    size: usize,
    window: usize,
    iters: usize,
) -> f64 {
    let (outs, _) = run_approach(
        2,
        internode(profile),
        approach,
        false,
        move |comm: Comm| async move {
            let env = comm.env().clone();
            let peer = 1 - comm.rank();
            exchange(&comm, peer, size).await;
            let t0 = env.now();
            for _ in 0..iters {
                if comm.rank() == 0 {
                    let mut reqs = Vec::with_capacity(window);
                    for _ in 0..window {
                        reqs.push(comm.isend(peer, 1, Bytes::synthetic(size)).await);
                    }
                    comm.waitall(&reqs).await;
                    let _ = comm.recv(Some(peer), Some(2)).await;
                } else {
                    let mut reqs = Vec::with_capacity(window);
                    for _ in 0..window {
                        reqs.push(comm.irecv(Some(peer), Some(1)).await);
                    }
                    comm.waitall(&reqs).await;
                    comm.send(peer, 2, Bytes::synthetic(1)).await;
                }
            }
            env.now() - t0
        },
    );
    let elapsed = outs[0].max(1);
    (size * window * iters) as f64 / elapsed as f64
}

/// OSU multithreaded latency (§4.4, Fig 6): `threads` pairs ping-pong in
/// parallel between two ranks (each pair on its own tag); mean one-way
/// latency across pairs.
pub fn osu_mt_latency(
    profile: MachineProfile,
    approach: Approach,
    threads: usize,
    size: usize,
    iters: usize,
) -> Nanos {
    let (outs, _) = run_approach(2, internode(profile), approach, true, move |comm: Comm| {
        async move {
            let env = comm.env().clone();
            let peer = 1 - comm.rank();
            let mut handles = Vec::new();
            for t in 0..threads {
                let comm = comm.clone();
                let env2 = env.clone();
                handles.push(env.spawn(async move {
                    let tags = (100 + t as u32, 200 + t as u32);
                    // Warmup.
                    ping_pong(&comm, peer, tags, size).await;
                    let t0 = env2.now();
                    for _ in 0..iters {
                        ping_pong(&comm, peer, tags, size).await;
                    }
                    (env2.now() - t0) / (2 * iters as u64)
                }));
            }
            let mut acc = 0u64;
            for h in handles {
                acc += h.join().await;
            }
            acc / threads as u64
        }
    });
    outs[0]
}

/// As [`osu_mt_latency`] but also returning the offload service thread's
/// metrics snapshot from rank 0 (empty for approaches without a service
/// thread, and in `--no-default-features` builds): the Fig 6 report can
/// then show *why* the latency scales — drain batching, parks/wakes, lane
/// occupancy — next to the latency itself.
pub fn osu_mt_latency_observed(
    profile: MachineProfile,
    approach: Approach,
    threads: usize,
    size: usize,
    iters: usize,
) -> (Nanos, obs::Snapshot) {
    let (outs, _) = run_approach(
        2,
        internode(profile),
        approach,
        true,
        move |comm: Comm| async move {
            let env = comm.env().clone();
            let peer = 1 - comm.rank();
            let mut handles = Vec::new();
            for t in 0..threads {
                let comm = comm.clone();
                let env2 = env.clone();
                handles.push(env.spawn(async move {
                    let tags = (100 + t as u32, 200 + t as u32);
                    let t0 = env2.now();
                    for _ in 0..iters {
                        ping_pong(&comm, peer, tags, size).await;
                    }
                    (env2.now() - t0) / (2 * iters as u64)
                }));
            }
            let mut acc = 0u64;
            for h in handles {
                acc += h.join().await;
            }
            let snap = comm
                .offload_service_obs()
                .map(|r| r.snapshot())
                .unwrap_or_default();
            (acc / threads as u64, snap)
        },
    );
    outs.into_iter().next().expect("rank 0 output")
}

/// Aggregate issue throughput of the *live* (real threads, real offload
/// thread) command path under multithreaded contention, plus rank 0's
/// offload-service metrics snapshot.
pub struct LiveIssueResult {
    /// Nonblocking sends issued per second, summed across app threads.
    pub issues_per_sec: f64,
    /// Rank 0's offload registry at the end of the run (empty without the
    /// `obs-enabled` feature).
    pub snapshot: obs::Snapshot,
}

/// Live companion to Fig 4's issue-cost question, aimed at the *scaling*
/// axis rather than the per-call cost: `threads` application threads on
/// rank 0 each stream `msgs` windowed 64-byte isends through their
/// submission lanes while rank 1 drains them with matching receiver
/// threads. The returned `push_full` / `idle_yields` / park counters show
/// what the rate alone does not.
pub fn live_isend_issue_rate(threads: usize, msgs: usize) -> LiveIssueResult {
    use std::sync::{Arc, Barrier};
    const WINDOW: usize = 32;
    let ranks = offload::offload_world_sized(2, 256, 256);
    let h0 = ranks[0].handle();
    let h1 = ranks[1].handle();
    let start = Arc::new(Barrier::new(threads + 1));
    let receivers: Vec<_> = (0..threads as u32)
        .map(|t| {
            let h = h1.clone();
            std::thread::spawn(move || {
                for _ in 0..msgs {
                    let _ = h.recv(Some(0), Some(t));
                }
            })
        })
        .collect();
    let senders: Vec<_> = (0..threads as u32)
        .map(|t| {
            let h = h0.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let payload: std::sync::Arc<[u8]> = std::sync::Arc::from(vec![0u8; 64]);
                start.wait();
                let mut sent = 0;
                while sent < msgs {
                    let burst = WINDOW.min(msgs - sent);
                    let reqs: Vec<_> = (0..burst).map(|_| h.isend(1, t, payload.clone())).collect();
                    for r in reqs {
                        let _ = h.wait(r);
                    }
                    sent += burst;
                }
            })
        })
        .collect();
    start.wait();
    let t0 = std::time::Instant::now();
    for s in senders {
        s.join().expect("sender thread");
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    for r in receivers {
        r.join().expect("receiver thread");
    }
    let snapshot = h0.obs().snapshot();
    for r in ranks {
        r.finalize();
    }
    LiveIssueResult {
        issues_per_sec: (threads * msgs) as f64 / elapsed,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> MachineProfile {
        MachineProfile::xeon()
    }

    #[test]
    fn overlap_fig2_shape() {
        // Large (rendezvous) messages: baseline ~no overlap, offload ~full.
        let size = 2 << 20;
        let base = overlap_p2p(xeon(), Approach::Baseline, size, 3);
        let offl = overlap_p2p(xeon(), Approach::Offload, size, 3);
        assert!(
            base.overlap_pct < 30.0,
            "baseline large-message overlap {}% should be poor",
            base.overlap_pct
        );
        assert!(
            offl.overlap_pct > 80.0,
            "offload large-message overlap {}% should be near-full",
            offl.overlap_pct
        );
    }

    #[cfg(feature = "obs-enabled")]
    #[test]
    fn progress_polls_distinguish_baseline_from_offload() {
        // The observability claim in one assertion: during the compute
        // window, a baseline rank makes ZERO progress polls (nobody is in
        // the library), while under offload the service thread polls
        // continuously — which is exactly why the transfer overlaps.
        let size = 2 << 20; // rendezvous: progress is required to advance
        let base = overlap_p2p_observed(xeon(), Approach::Baseline, size, 2);
        assert_eq!(
            base.during_compute.counter("mpi.progress_polls"),
            0,
            "baseline compute window must be progress-free"
        );
        assert!(base.service.is_none(), "baseline has no service thread");

        // The simulated offload thread wakes on fabric activity rather than
        // modelling every spin, so the poll count is small but nonzero —
        // the qualitative split (0 vs >0) is the paper's point.
        let off = overlap_p2p_observed(xeon(), Approach::Offload, size, 2);
        assert!(
            off.during_compute.counter("mpi.progress_polls") > 0,
            "offload thread never polled during compute"
        );
        let svc = off.service.expect("offload exposes service metrics");
        assert!(svc.histogram("offload.drained_per_wakeup").count > 0);
        assert!(svc.counter("offload.testany_sweeps") > 0);
        // The rendezvous protocol actually ran on this rank.
        assert!(off.during_compute.counter("mpi.rndv_sends") <= 2);
    }

    #[test]
    fn isend_cost_fig4_shape() {
        // Baseline cost grows with eager size then drops at rendezvous;
        // offload is flat and tiny.
        let base_small = isend_issue_cost(xeon(), Approach::Baseline, 64, 5);
        let base_big_eager = isend_issue_cost(xeon(), Approach::Baseline, 128 * 1024, 5);
        let base_rndv = isend_issue_cost(xeon(), Approach::Baseline, 256 * 1024, 5);
        assert!(base_big_eager > 10 * base_small);
        assert!(base_rndv < base_big_eager / 4);
        let off_small = isend_issue_cost(xeon(), Approach::Offload, 64, 5);
        let off_big = isend_issue_cost(xeon(), Approach::Offload, 1 << 20, 5);
        assert_eq!(off_small, off_big, "offload issue cost is size-independent");
        assert!(off_small < 300);
    }

    #[test]
    fn latency_fig7a_shape() {
        let base = osu_latency(xeon(), Approach::Baseline, 8, 10);
        let offl = osu_latency(xeon(), Approach::Offload, 8, 10);
        let cself = osu_latency(xeon(), Approach::CommSelf, 8, 10);
        // Offload adds a small constant; comm-self adds much more.
        assert!(offl > base, "offload {offl} > baseline {base}");
        assert!(offl < base + 1_000, "offload overhead stays sub-µs");
        assert!(
            cself > base + 4_000,
            "comm-self {cself} pays the MT penalty over {base}"
        );
    }

    #[test]
    fn bandwidth_fig7b_shape() {
        // Mid-size messages (the paper's 4 KB – 256 KB dip): per-call
        // THREAD_MULTIPLE cost caps comm-self's message rate while the
        // wire still has headroom.
        let base = osu_bandwidth(xeon(), Approach::Baseline, 16 * 1024, 16, 3);
        let offl = osu_bandwidth(xeon(), Approach::Offload, 16 * 1024, 16, 3);
        let cself = osu_bandwidth(xeon(), Approach::CommSelf, 16 * 1024, 16, 3);
        assert!(
            offl > base * 0.8,
            "offload bandwidth {offl} ~ baseline {base}"
        );
        assert!(
            cself < base * 0.8,
            "comm-self bandwidth {cself} degrades vs {base}"
        );
    }

    #[test]
    fn mt_latency_fig6_shape() {
        let base8 = osu_mt_latency(xeon(), Approach::Baseline, 8, 64, 4);
        let base2 = osu_mt_latency(xeon(), Approach::Baseline, 2, 64, 4);
        let off8 = osu_mt_latency(xeon(), Approach::Offload, 8, 64, 4);
        assert!(
            base8 > base2,
            "baseline MT latency grows with threads: {base2} -> {base8}"
        );
        assert!(
            off8 * 2 < base8,
            "offload at 8 threads ({off8}) beats baseline ({base8}) by a lot"
        );
    }

    #[test]
    fn nbc_overlap_fig3_shape() {
        let base = nbc_overlap(
            xeon(),
            Approach::Baseline,
            8,
            CollOp::Allreduce,
            16 * 1024,
            3,
        );
        let offl = nbc_overlap(
            xeon(),
            Approach::Offload,
            8,
            CollOp::Allreduce,
            16 * 1024,
            3,
        );
        assert!(
            offl > base + 20.0,
            "offload NBC overlap {offl}% ≫ baseline {base}%"
        );
    }

    #[test]
    fn nbc_issue_fig5_shape() {
        let base = nbc_issue_cost(xeon(), Approach::Baseline, 8, CollOp::Alltoall, 8 * 1024, 3);
        let offl = nbc_issue_cost(xeon(), Approach::Offload, 8, CollOp::Alltoall, 8 * 1024, 3);
        assert!(
            offl * 3 < base,
            "offload collective issue {offl}ns vs baseline {base}ns"
        );
    }
}
