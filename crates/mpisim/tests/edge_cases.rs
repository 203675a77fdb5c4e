//! Edge cases of the simulated MPI: zero-length messages, self-sends,
//! many concurrent nonblocking collectives, interleaved collective and
//! point-to-point traffic, and exhaustion-adjacent scenarios.

use mpisim::nbc::CollOf;
use mpisim::{
    bytes_to_f64s, f64s_to_bytes, Bytes, Dtype, Mpi, ReduceOp, ThreadLevel, Universe, COMM_WORLD,
};
use simnet::MachineProfile;

fn uni(n: usize) -> Universe {
    Universe::new(n, MachineProfile::xeon(), ThreadLevel::Funneled)
}

#[test]
fn zero_length_messages_match_and_complete() {
    let (outs, _) = uni(2).run(|mpi: Mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.send(COMM_WORLD, 1, 5, Vec::new()).await;
                true
            } else {
                let (st, d) = mpi.recv(COMM_WORLD, Some(0), Some(5)).await;
                st.len == 0 && d.is_empty()
            }
        })
    });
    assert!(outs[1]);
}

#[test]
fn self_send_completes_through_matching() {
    let (outs, _) = uni(1).run(|mpi: Mpi| {
        Box::pin(async move {
            let rx = mpi.irecv(COMM_WORLD, Some(0), Some(9)).await;
            let tx = mpi.isend(COMM_WORLD, 0, 9, vec![42u8]).await;
            mpi.waitall(&[rx.clone(), tx]).await;
            rx.take_data().expect("self message").to_vec()
        })
    });
    assert_eq!(outs[0], vec![42]);
}

#[test]
fn many_concurrent_nbc_instances_complete_independently() {
    // 8 Iallreduces in flight at once; they must not cross-match (each has
    // its own internal tag context).
    let (outs, _) = uni(4).run(|mpi: Mpi| {
        Box::pin(async move {
            let mut reqs = Vec::new();
            for k in 0..8u64 {
                let mine = f64s_to_bytes(&[(mpi.rank() as u64 * 100 + k) as f64]);
                let (dtype, op, data) = (Dtype::F64, ReduceOp::Sum, Bytes::real(mine));
                let coll = CollOf::Allreduce { dtype, op, data };
                reqs.push(mpi.icollective(COMM_WORLD, coll).await);
            }
            // Complete them out of order.
            for r in reqs.iter().rev() {
                mpi.wait(r).await;
            }
            reqs.iter()
                .map(|r| bytes_to_f64s(&r.take_data().expect("result").to_vec())[0])
                .collect::<Vec<_>>()
        })
    });
    for o in &outs {
        for (k, &v) in o.iter().enumerate() {
            // sum over ranks of (100r + k) = 100*(0+1+2+3) + 4k
            assert_eq!(v, 600.0 + 4.0 * k as f64, "collective {k}");
        }
    }
}

#[test]
fn p2p_and_collectives_interleave_without_cross_matching() {
    let (outs, _) = uni(4).run(|mpi: Mpi| {
        Box::pin(async move {
            let peer = (mpi.rank() + 1) % 4;
            let from = (mpi.rank() + 3) % 4;
            let rx = mpi.irecv(COMM_WORLD, Some(from), Some(1)).await;
            let data = Bytes::real(f64s_to_bytes(&[1.0]));
            let coll = CollOf::Allreduce {
                dtype: Dtype::F64,
                op: ReduceOp::Sum,
                data,
            };
            let coll = mpi.icollective(COMM_WORLD, coll).await;
            let tx = mpi.isend(COMM_WORLD, peer, 1, vec![mpi.rank() as u8]).await;
            mpi.waitall(&[rx.clone(), coll.clone(), tx]).await;
            let ring = rx.take_data().expect("ring").to_vec()[0];
            let sum = bytes_to_f64s(&coll.take_data().expect("sum").to_vec())[0];
            (ring, sum)
        })
    });
    for (r, &(ring, sum)) in outs.iter().enumerate() {
        assert_eq!(ring as usize, (r + 3) % 4);
        assert_eq!(sum, 4.0);
    }
}

#[test]
fn rendezvous_exactly_at_threshold_boundary() {
    let p = MachineProfile::xeon();
    let at = p.eager_threshold;
    let over = p.eager_threshold + 1;
    let (outs, _) = uni(2).run(move |mpi: Mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                // At threshold: eager — the isend completes locally.
                let r1 = mpi.isend(COMM_WORLD, 1, 1, Bytes::synthetic(at)).await;
                let eager_done = r1.is_done();
                // One past: rendezvous — parked until CTS.
                let r2 = mpi.isend(COMM_WORLD, 1, 2, Bytes::synthetic(over)).await;
                let rndv_done = r2.is_done();
                mpi.waitall(&[r1, r2]).await;
                (eager_done, rndv_done)
            } else {
                let r1 = mpi.irecv(COMM_WORLD, Some(0), Some(1)).await;
                let r2 = mpi.irecv(COMM_WORLD, Some(0), Some(2)).await;
                mpi.waitall(&[r1, r2]).await;
                (true, false)
            }
        })
    });
    assert_eq!(outs[0], (true, false));
}

#[test]
fn hundreds_of_outstanding_requests() {
    const N: usize = 400;
    let (outs, _) = uni(2).run(|mpi: Mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                let mut reqs = Vec::new();
                for i in 0..N {
                    reqs.push(
                        mpi.isend(COMM_WORLD, 1, (i % 7) as u32, vec![(i % 251) as u8])
                            .await,
                    );
                }
                mpi.waitall(&reqs).await;
                N
            } else {
                let mut reqs = Vec::new();
                for i in 0..N {
                    reqs.push(mpi.irecv(COMM_WORLD, Some(0), Some((i % 7) as u32)).await);
                }
                mpi.waitall(&reqs).await;
                // Every request delivered its payload.
                reqs.iter().filter(|r| r.take_data().is_some()).count()
            }
        })
    });
    assert_eq!(outs[0], N);
}

#[test]
fn wildcard_recv_interleaves_with_specific_recvs() {
    let (outs, _) = uni(3).run(|mpi: Mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                // One specific, one wildcard; both must complete.
                let specific = mpi.irecv(COMM_WORLD, Some(2), Some(1)).await;
                let wildcard = mpi.irecv(COMM_WORLD, None, None).await;
                mpi.waitall(&[specific.clone(), wildcard.clone()]).await;
                let s = specific.status().expect("specific");
                let w = wildcard.status().expect("wildcard");
                assert_eq!(s.source, 2);
                // The wildcard took whichever message the specific did not.
                assert_eq!(w.source, 1);
                true
            } else {
                mpi.env().advance(mpi.rank() as u64 * 10_000).await;
                mpi.send(COMM_WORLD, 0, 1, vec![mpi.rank() as u8]).await;
                true
            }
        })
    });
    assert!(outs.iter().all(|&b| b));
}

#[test]
fn barrier_chain_with_staggered_compute_stays_ordered() {
    let (outs, _) = uni(5).run(|mpi: Mpi| {
        Box::pin(async move {
            let env = mpi.env().clone();
            let mut exits = Vec::new();
            for round in 0..4u64 {
                env.advance((mpi.rank() as u64 * 31 + round * 17) % 5_000)
                    .await;
                mpi.barrier(COMM_WORLD).await;
                exits.push(env.now());
            }
            exits
        })
    });
    // All ranks exit each barrier round at nearly the same instant and
    // rounds are strictly increasing.
    for round in 0..4 {
        let times: Vec<u64> = outs.iter().map(|v| v[round]).collect();
        let spread = times.iter().max().unwrap() - times.iter().min().unwrap();
        assert!(spread < 50_000, "round {round} spread {spread}");
    }
    for v in &outs {
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn large_allreduce_uses_rsag_and_sums_correctly() {
    // A payload past the Rabenseifner threshold must still reduce
    // bit-correctly (reduce-scatter + allgather path).
    for p in [2usize, 4, 8] {
        let lanes = 4096; // 32 KB of f64
        let (outs, _) = uni(p).run(move |mpi: Mpi| {
            Box::pin(async move {
                let mine: Vec<f64> = (0..lanes)
                    .map(|i| (mpi.rank() + 1) as f64 * (i % 17) as f64)
                    .collect();
                let out = mpi
                    .allreduce(COMM_WORLD, f64s_to_bytes(&mine), Dtype::F64, ReduceOp::Sum)
                    .await;
                bytes_to_f64s(&out.to_vec())
            })
        });
        let rank_sum: f64 = (1..=p).map(|r| r as f64).sum();
        for o in &outs {
            for (i, &v) in o.iter().enumerate() {
                let expect = rank_sum * (i % 17) as f64;
                assert!((v - expect).abs() < 1e-9, "p={p} lane {i}: {v} vs {expect}");
            }
        }
    }
}

#[test]
fn rsag_moves_fewer_bytes_than_recursive_doubling_would() {
    // Wire accounting: at 8 ranks a 64 KB allreduce should move far less
    // than log2(8)=3 full copies per rank.
    let (outs, _) = uni(8).run(|mpi: Mpi| {
        Box::pin(async move {
            let out = mpi
                .allreduce(
                    COMM_WORLD,
                    Bytes::synthetic(64 * 1024),
                    Dtype::F64,
                    ReduceOp::Sum,
                )
                .await;
            out.len()
        })
    });
    assert!(outs.iter().all(|&n| n == 64 * 1024));
}
