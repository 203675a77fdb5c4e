//! Matrix coverage: every `Comm` operation, under every approach,
//! produces the correct data. This pins down the full public surface that
//! applications program against.

use approaches::{run_approach, Approach, Comm, SimColl};
use mpisim::{bytes_to_f64s, f64s_to_bytes, Bytes, Dtype, ReduceOp};
use simnet::MachineProfile;

const P: usize = 4;

async fn exercise_everything(comm: Comm) -> Vec<String> {
    let mut log = Vec::new();
    let me = comm.rank();
    let p = comm.size();

    // p2p: ring exchange via isend/irecv/wait.
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    let rx = comm.irecv(Some(left), Some(3)).await;
    let tx = comm.isend(right, 3, Bytes::real(vec![me as u8; 5])).await;
    comm.waitall(&[rx.clone(), tx]).await;
    let st = rx.status().expect("status");
    assert_eq!(st.source, left);
    assert_eq!(st.len, 5);
    log.push(format!("p2p:{}", rx.take_data().expect("data").to_vec()[0]));

    // test() on an already-complete request.
    let done = comm.isend(right, 4, Bytes::real(vec![1])).await;
    let (_, _) = comm.recv(Some(left), Some(4)).await;
    comm.wait(&done).await;
    assert!(comm.test(&done).await);

    // progress_hint is always safe to call.
    comm.progress_hint().await;

    // Barrier + ibarrier.
    comm.barrier().await;
    let b = comm.icollective(SimColl::Barrier).await;
    comm.wait(&b).await;

    // allreduce / iallreduce.
    let s = comm
        .allreduce(
            Bytes::real(f64s_to_bytes(&[1.0])),
            Dtype::F64,
            ReduceOp::Sum,
        )
        .await;
    assert_eq!(bytes_to_f64s(&s.to_vec())[0], p as f64);
    let r = comm
        .icollective(SimColl::Allreduce {
            data: Bytes::real(f64s_to_bytes(&[me as f64])),
            dtype: Dtype::F64,
            op: ReduceOp::Max,
        })
        .await;
    comm.wait(&r).await;
    assert_eq!(
        bytes_to_f64s(&r.take_data().expect("max").to_vec())[0],
        (p - 1) as f64
    );

    // ireduce to a non-zero root.
    let r = comm
        .icollective(SimColl::Reduce {
            root: 1,
            data: Bytes::real(f64s_to_bytes(&[2.0])),
            dtype: Dtype::F64,
            op: ReduceOp::Sum,
        })
        .await;
    comm.wait(&r).await;
    if me == 1 {
        assert_eq!(
            bytes_to_f64s(&r.take_data().expect("reduce").to_vec())[0],
            2.0 * p as f64
        );
    }

    // bcast / ibcast.
    let payload = if me == 2 {
        Bytes::real(vec![7, 8, 9])
    } else {
        Bytes::synthetic(0)
    };
    assert_eq!(comm.bcast(2, payload).await.to_vec(), vec![7, 8, 9]);
    let r = comm
        .icollective(SimColl::Bcast {
            root: 0,
            payload: if me == 0 {
                Bytes::real(vec![5])
            } else {
                Bytes::synthetic(0)
            },
        })
        .await;
    comm.wait(&r).await;
    assert_eq!(r.take_data().expect("bcast").to_vec(), vec![5]);

    // allgather / iallgather.
    let g = comm.allgather(Bytes::real(vec![me as u8])).await;
    assert_eq!(g.to_vec(), (0..p as u8).collect::<Vec<_>>());
    let mine = Bytes::real(vec![me as u8 + 10]);
    let r = comm.icollective(SimColl::Allgather { mine }).await;
    comm.wait(&r).await;
    assert_eq!(
        r.take_data().expect("allgather").to_vec(),
        (0..p as u8).map(|x| x + 10).collect::<Vec<_>>()
    );

    // alltoall / ialltoall.
    let input: Vec<u8> = (0..p).map(|d| (me * p + d) as u8).collect();
    let out = comm.alltoall(Bytes::real(input.clone()), 1).await;
    let expect: Vec<u8> = (0..p).map(|s| (s * p + me) as u8).collect();
    assert_eq!(out.to_vec(), expect);
    let (input, block) = (Bytes::real(input), 1);
    let r = comm.icollective(SimColl::Alltoall { input, block }).await;
    comm.wait(&r).await;
    assert_eq!(r.take_data().expect("alltoall").to_vec(), expect);

    // igather / iscatter to root 3.
    let mine = Bytes::real(vec![me as u8; 2]);
    let r = comm.icollective(SimColl::Gather { root: 3, mine }).await;
    comm.wait(&r).await;
    if me == 3 {
        let g = r.take_data().expect("gather").to_vec();
        let expect: Vec<u8> = (0..p as u8).flat_map(|x| [x, x]).collect();
        assert_eq!(g, expect);
    }
    let input = if me == 3 {
        Bytes::real((0..p as u8).flat_map(|x| [x * 2, x * 2 + 1]).collect())
    } else {
        Bytes::synthetic(0)
    };
    let (root, block) = (3, 2);
    let r = comm
        .icollective(SimColl::Scatter { root, input, block })
        .await;
    comm.wait(&r).await;
    assert_eq!(
        r.take_data().expect("scatter").to_vec(),
        vec![me as u8 * 2, me as u8 * 2 + 1]
    );

    log.push("ok".into());
    log
}

#[test]
fn every_approach_supports_the_full_comm_surface() {
    for approach in Approach::ALL {
        let (outs, _) = run_approach(
            P,
            MachineProfile::xeon(),
            approach,
            false,
            exercise_everything,
        );
        for (r, log) in outs.iter().enumerate() {
            assert_eq!(
                log.last().map(String::as_str),
                Some("ok"),
                "{} rank {r}: {log:?}",
                approach.name()
            );
            // The ring delivered the left neighbor's byte.
            assert_eq!(log[0], format!("p2p:{}", (r + P - 1) % P));
        }
    }
}

#[test]
fn approaches_are_deterministic_and_distinct_in_time() {
    // Same program, different approaches: identical data results (checked
    // above), different virtual timings — and each approach's timing is
    // itself reproducible.
    let elapsed = |a: Approach| {
        let (_, t) = run_approach(P, MachineProfile::xeon(), a, false, exercise_everything);
        t
    };
    for a in Approach::ALL {
        assert_eq!(elapsed(a), elapsed(a), "{} must be deterministic", a.name());
    }
    // THREAD_MULTIPLE approaches pay for their locks on this call-heavy
    // program.
    assert!(elapsed(Approach::CommSelf) > elapsed(Approach::Baseline));
}

/// Regression: under core-spec, the unlocked progress helper and a locked
/// application call can poll within one virtual instant; the fabric's
/// non-overtaking guarantee must keep ring-allgather blocks in order.
#[test]
fn core_spec_concurrent_pollers_preserve_message_order() {
    use mpisim::Bytes;
    for _ in 0..3 {
        let (outs, _) = run_approach(
            P,
            MachineProfile::xeon(),
            Approach::CoreSpec,
            false,
            exercise_everything,
        );
        for log in &outs {
            assert_eq!(log.last().map(String::as_str), Some("ok"));
        }
        // And the bare collective sequence:
        let (ag, _) = run_approach(
            P,
            MachineProfile::xeon(),
            Approach::CoreSpec,
            false,
            |comm: Comm| async move {
                let me = comm.rank();
                let _ = comm.allgather(Bytes::real(vec![me as u8])).await;
                let mine = Bytes::real(vec![me as u8 + 10]);
                let r = comm.icollective(SimColl::Allgather { mine }).await;
                comm.wait(&r).await;
                r.take_data().expect("allgather").to_vec()
            },
        );
        for o in ag {
            assert_eq!(o, (10..10 + P as u8).collect::<Vec<_>>());
        }
    }
}

/// Sum of the counters under `prefix`.
#[cfg(feature = "obs-enabled")]
fn counter_total(s: &obs::Snapshot, prefix: &str) -> u64 {
    s.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Golden virtual time: the program above and one rendezvous-sized
/// `overlap_p2p` point, under every approach, against constants captured
/// at the commit *before* the strategies became one `Comm` struct (PR 20).
/// Bit-equality of the clock and of the `mpi.*`/`offload.*` counter
/// totals (summed over ranks; `mpi.lock_wait_ns` is among them) says the
/// sequence of DES awaits did not move — stronger than the bench gate's
/// noise band. A deliberate model change re-captures these with the
/// `println!`-style values the assertion messages carry.
#[test]
fn virtual_time_and_counters_match_the_golden_capture() {
    // (elapsed ns, Σ mpi.*, Σ offload.*) of `exercise_everything` on 4 ranks.
    const MATRIX: [(u64, u64, u64); 5] = [
        (34509, 386, 0),     // baseline
        (34569, 390, 0),     // iprobe
        (128828, 749748, 0), // comm-self
        (103978, 330378, 0), // core-spec
        (38667, 367, 444),   // offload
    ];
    // (comm ns, post ns, wait ns, Σ mpi.* during compute, Σ offload.*) of
    // `overlap_p2p` at 1 MiB, 3 iterations.
    const OVERLAP: [(u64, u64, u64, u64, u64); 5] = [
        (180102, 840, 178301, 0, 0),   // baseline
        (180102, 840, 178301, 0, 0),   // iprobe
        (190700, 8260, 250, 10553, 0), // comm-self
        (186881, 5840, 250, 3, 0),     // core-spec
        (180432, 190, 20, 5, 74),      // offload
    ];
    for (i, a) in Approach::ALL.into_iter().enumerate() {
        let (outs, elapsed) = run_approach(
            P,
            MachineProfile::xeon(),
            a,
            false,
            |comm: Comm| async move {
                exercise_everything(comm.clone()).await;
                let mut s = comm.obs_registry().snapshot();
                if let Some(svc) = comm.offload_service_obs() {
                    s.merge(&svc.snapshot());
                }
                s
            },
        );
        assert_eq!(elapsed, MATRIX[i].0, "{}: matrix elapsed", a.name());
        let o = harness::overlap_p2p_observed(MachineProfile::xeon(), a, 1 << 20, 3);
        let r = o.result;
        assert_eq!(
            (r.comm_ns, r.post_ns, r.wait_ns),
            (OVERLAP[i].0, OVERLAP[i].1, OVERLAP[i].2),
            "{}: overlap_p2p times",
            a.name()
        );
        #[cfg(feature = "obs-enabled")]
        {
            let all = outs
                .iter()
                .fold(obs::Snapshot::default(), |acc, s| acc.merged(s));
            assert_eq!(
                (counter_total(&all, "mpi."), counter_total(&all, "offload.")),
                (MATRIX[i].1, MATRIX[i].2),
                "{}: matrix counters",
                a.name()
            );
            let svc = o.service.unwrap_or_default();
            assert_eq!(
                (
                    counter_total(&o.during_compute, "mpi."),
                    counter_total(&svc, "offload.")
                ),
                (OVERLAP[i].3, OVERLAP[i].4),
                "{}: overlap_p2p counters",
                a.name()
            );
        }
        #[cfg(not(feature = "obs-enabled"))]
        let _ = outs;
    }
}

// ---------------------------------------------------------------------------
// The same matching contract against the *wire* backend: real sockets
// (loopback pairs in-process), MPI-style FIFO (source, tag) matching with
// wildcards, 2–4 ranks, payloads on both sides of the eager/rendezvous
// crossover.
// ---------------------------------------------------------------------------

mod wire_matrix {
    use approaches::live::{LiveApproach, LiveComm};
    use rtmpi::Transport;
    use std::sync::Arc;

    /// Distinguishable payload: sender rank, sequence number, size regime.
    fn payload(src: usize, seq: u8, len: usize) -> Arc<[u8]> {
        let mut v = vec![seq; len];
        v[0] = src as u8;
        Arc::from(v)
    }

    /// Every (wildcard × exact) combination of source and tag filters, with
    /// FIFO order within each (source, tag) stream. Rank 0 receives, every
    /// other rank sends three messages (tags 1, 2, 1 — in that order) whose
    /// sizes straddle the eager crossover.
    fn wildcard_matrix(n: usize, eager: usize) {
        let world = wire::loopback(n);
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let small = 64;
                    let big = eager * 4; // rendezvous regime
                    let mut c = LiveComm::start(LiveApproach::Baseline, t);
                    let (r, n) = (c.rank(), c.size());
                    if r != 0 {
                        // Sequence per sender: tag 1 (eager), tag 2
                        // (rendezvous), tag 1 again (rendezvous).
                        c.send(0, 1, payload(r, 10, small)).expect("send 1");
                        c.send(0, 2, payload(r, 20, big)).expect("send 2");
                        c.send(0, 1, payload(r, 30, big)).expect("send 3");
                        // Ack ensures the world stays up until rank 0 is done.
                        c.recv(Some(0), Some(9)).expect("ack");
                        return;
                    }
                    // Phase A — exact source, wildcard tag: must deliver each
                    // sender's FIFO-first message (tag 1, seq 10).
                    for s in 1..n {
                        let (st, d) = c.recv(Some(s), None).expect("recv A");
                        assert_eq!((st.source, st.tag, st.len), (s, 1, small));
                        assert_eq!((d[0] as usize, d[1]), (s, 10));
                    }
                    // Phase B — wildcard source, exact tag: the tag-2
                    // rendezvous messages, one per sender, any order.
                    let mut seen = vec![false; n];
                    for _ in 1..n {
                        let (st, d) = c.recv(None, Some(2)).expect("recv B");
                        assert_eq!((st.tag, st.len), (2, big));
                        assert_eq!((d[0] as usize, d[1]), (st.source, 20));
                        assert!(!seen[st.source], "duplicate source {}", st.source);
                        seen[st.source] = true;
                    }
                    assert!(seen[1..].iter().all(|&s| s), "all senders matched");
                    // Phase C — full wildcard: only the trailing tag-1
                    // messages remain; FIFO within each sender's stream
                    // means these are the seq-30 payloads.
                    for _ in 1..n {
                        let (st, d) = c.recv(None, None).expect("recv C");
                        assert_eq!((st.tag, st.len), (1, big));
                        assert_eq!((d[0] as usize, d[1]), (st.source, 30));
                    }
                    for s in 1..n {
                        c.send(s, 9, payload(0, 0, 1)).expect("ack");
                    }
                    // Everything consumed: iprobe on the reclaimed
                    // transport finds nothing buffered.
                    let mut t = c.finalize();
                    assert!(t.iprobe(None, None).is_none());
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread");
        }
    }

    #[test]
    fn wildcard_matrix_over_wire_2_to_4_ranks() {
        for n in 2..=4 {
            // Default crossover (4096) keeps small/big on opposite sides.
            wildcard_matrix(n, 4096);
        }
    }

    /// A receive posted *before* anything arrives must match the first
    /// frame its filters accept, not a later one — posted-order matching
    /// against live socket delivery.
    #[test]
    fn posted_wildcards_match_in_post_order() {
        let world = wire::loopback(2);
        let mut it = world.into_iter();
        let receiver = it.next().expect("rank 0");
        let sender = it.next().expect("rank 1");
        let rx_thread = std::thread::spawn(move || {
            let mut c = LiveComm::start(LiveApproach::Baseline, receiver);
            // Two wildcard receives posted before any data exists: they
            // must resolve in post order against the sender's FIFO.
            let r1 = c.irecv(None, None);
            let r2 = c.irecv(Some(1), Some(5));
            let (st1, d1) = c.wait(r1).expect("first").expect("payload");
            let (st2, d2) = c.wait(r2).expect("second").expect("payload");
            assert_eq!((st1.tag, d1[1]), (5, 1));
            assert_eq!((st2.tag, d2[1]), (5, 2));
            c.send(1, 9, payload(0, 0, 1)).expect("ack");
        });
        let tx_thread = std::thread::spawn(move || {
            let mut c = LiveComm::start(LiveApproach::Baseline, sender);
            c.send(0, 5, payload(1, 1, 8000)).expect("send 1");
            c.send(0, 5, payload(1, 2, 64)).expect("send 2");
            c.recv(Some(0), Some(9)).expect("ack");
        });
        rx_thread.join().expect("receiver");
        tx_thread.join().expect("sender");
    }
}
