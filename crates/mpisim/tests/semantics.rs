//! MPI semantics tests for the simulated library: matching rules, protocol
//! behaviour (including the *absence* of asynchronous progress, which the
//! paper's offload infrastructure exists to fix), collectives, communicator
//! management, and the THREAD_MULTIPLE lock model.

use destime::Nanos;
use mpisim::nbc::CollOf;
use mpisim::{
    bytes_to_f64s, f64s_to_bytes, Bytes, Dtype, Mpi, ReduceOp, ThreadLevel, Universe, COMM_WORLD,
};
use simnet::MachineProfile;

fn run2<T: 'static>(
    f: impl Fn(Mpi) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>> + 'static,
) -> (Vec<T>, Nanos) {
    Universe::new(2, MachineProfile::xeon(), ThreadLevel::Funneled).run(f)
}

#[test]
fn message_order_between_pair_is_fifo() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                for i in 0..5u8 {
                    mpi.send(COMM_WORLD, 1, 9, vec![i]).await;
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..5 {
                    let (_, data) = mpi.recv(COMM_WORLD, Some(0), Some(9)).await;
                    got.push(data.to_vec()[0]);
                }
                got
            }
        })
    });
    assert_eq!(outs[1], vec![0, 1, 2, 3, 4]);
}

#[test]
fn tag_matching_selects_correct_message() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.send(COMM_WORLD, 1, 1, vec![10u8]).await;
                mpi.send(COMM_WORLD, 1, 2, vec![20u8]).await;
                (0, 0)
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let (_, b) = mpi.recv(COMM_WORLD, Some(0), Some(2)).await;
                let (_, a) = mpi.recv(COMM_WORLD, Some(0), Some(1)).await;
                (a.to_vec()[0], b.to_vec()[0])
            }
        })
    });
    assert_eq!(outs[1], (10, 20));
}

#[test]
fn wildcard_source_and_tag_match_anything() {
    let (outs, _) = Universe::new(3, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    let (s1, d1) = mpi.recv(COMM_WORLD, None, None).await;
                    let (s2, d2) = mpi.recv(COMM_WORLD, None, None).await;
                    let mut got = vec![(s1.source, d1.to_vec()[0]), (s2.source, d2.to_vec()[0])];
                    got.sort_unstable();
                    got
                }
                r => {
                    mpi.env().advance(r as u64 * 1000).await;
                    mpi.send(COMM_WORLD, 0, 40 + r as u32, vec![r as u8]).await;
                    Vec::new()
                }
            }
        })
    }) as (Vec<Vec<(usize, u8)>>, _);
    assert_eq!(outs[0], vec![(1, 1), (2, 2)]);
}

#[test]
fn unexpected_messages_are_buffered_until_posted() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.send(COMM_WORLD, 1, 5, vec![42u8]).await;
                0
            } else {
                // Let the message arrive and sit unexpected for a while.
                mpi.env().advance(1_000_000).await;
                mpi.progress_once().await; // pulls it into the unexpected queue
                let (_, data) = mpi.recv(COMM_WORLD, Some(0), Some(5)).await;
                data.to_vec()[0]
            }
        })
    });
    assert_eq!(outs[1], 42);
}

#[test]
fn large_messages_use_rendezvous_and_content_survives() {
    let n = 512 * 1024; // > 128 KiB threshold
    let (outs, _) = run2(move |mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                let payload: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                mpi.send(COMM_WORLD, 1, 3, payload).await;
                true
            } else {
                let (st, data) = mpi.recv(COMM_WORLD, Some(0), Some(3)).await;
                assert_eq!(st.len, n);
                let v = data.to_vec();
                v.len() == n && v.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8)
            }
        })
    });
    assert!(outs[1]);
}

/// The central substrate property: a rendezvous transfer makes **no
/// progress** while the sender computes without entering MPI. The payload
/// moves only once both sides are in their waits.
#[test]
fn rendezvous_stalls_without_progress_polls() {
    let n = 1 << 20; // 1 MiB, rendezvous
    let compute_ns: Nanos = 10_000_000; // 10 ms of "computation"
    let (outs, _) = run2(move |mpi| {
        Box::pin(async move {
            let env = mpi.env().clone();
            if mpi.rank() == 0 {
                let req = mpi.isend(COMM_WORLD, 1, 3, Bytes::synthetic(n)).await;
                let t0 = env.now();
                env.advance(compute_ns).await; // no MPI calls here
                let t_wait = env.now();
                mpi.wait(&req).await;
                (t_wait - t0, env.now() - t_wait)
            } else {
                let req = mpi.irecv(COMM_WORLD, Some(0), Some(3)).await;
                let t0 = env.now();
                env.advance(compute_ns).await;
                let t_wait = env.now();
                mpi.wait(&req).await;
                (t_wait - t0, env.now() - t_wait)
            }
        })
    });
    // Both sides computed for 10ms...
    assert_eq!(outs[0].0, compute_ns);
    // ...and the receiver still had to wait roughly the full wire time for
    // 1 MiB at 6 GB/s (~175 µs) afterwards: zero overlap was achieved.
    let wire_ns = MachineProfile::transfer_ns(n, 6.0);
    assert!(
        outs[1].1 > wire_ns / 2,
        "receiver wait {}ns should be a large fraction of the wire time {}ns",
        outs[1].1,
        wire_ns
    );
}

/// Counterpart: if the receiver keeps polling during the "compute" phase,
/// the transfer overlaps and the final wait is nearly free.
#[test]
fn rendezvous_overlaps_when_polled() {
    let n = 1 << 20;
    let compute_ns: Nanos = 10_000_000;
    let (outs, _) = run2(move |mpi| {
        Box::pin(async move {
            let env = mpi.env().clone();
            if mpi.rank() == 0 {
                let req = mpi.isend(COMM_WORLD, 1, 3, Bytes::synthetic(n)).await;
                // Poll while computing, in slices.
                for _ in 0..100 {
                    env.advance(compute_ns / 100).await;
                    mpi.progress_once().await;
                }
                mpi.wait(&req).await;
                0
            } else {
                let req = mpi.irecv(COMM_WORLD, Some(0), Some(3)).await;
                for _ in 0..100 {
                    env.advance(compute_ns / 100).await;
                    mpi.progress_once().await;
                }
                let t = env.now();
                mpi.wait(&req).await;
                env.now() - t
            }
        })
    });
    let wire_ns = MachineProfile::transfer_ns(n, 6.0);
    assert!(
        outs[1] < wire_ns / 4,
        "wait {}ns should be small vs wire {}ns when progress was driven",
        outs[1],
        wire_ns
    );
}

#[test]
fn eager_send_completes_locally_before_receiver_exists() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                let req = mpi.isend(COMM_WORLD, 1, 8, vec![1u8; 1024]).await;
                let done_at_post = req.is_done();
                mpi.wait(&req).await;
                done_at_post
            } else {
                mpi.env().advance(50_000).await; // receiver shows up late
                let (_, d) = mpi.recv(COMM_WORLD, Some(0), Some(8)).await;
                d.len() == 1024
            }
        })
    });
    assert!(outs[0], "eager isend is locally complete at post time");
    assert!(outs[1]);
}

#[test]
fn iprobe_sees_unexpected_without_consuming() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.send(COMM_WORLD, 1, 77, vec![5u8; 96]).await;
                true
            } else {
                // Poll until the probe sees it.
                let mut st = None;
                for _ in 0..1000 {
                    st = mpi.iprobe(COMM_WORLD, Some(0), None).await;
                    if st.is_some() {
                        break;
                    }
                    mpi.env().advance(1_000).await;
                }
                let st = st.expect("probe finds the message");
                assert_eq!(st.tag, 77);
                assert_eq!(st.len, 96);
                // Probe again: still there.
                assert!(mpi.iprobe(COMM_WORLD, Some(0), Some(77)).await.is_some());
                // Then actually receive it.
                let (_, d) = mpi.recv(COMM_WORLD, Some(0), Some(77)).await;
                d.len() == 96
            }
        })
    });
    assert!(outs[1]);
}

#[test]
fn barrier_synchronizes_ranks() {
    let (outs, _) = Universe::new(4, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let env = mpi.env().clone();
            // Rank r computes r ms before the barrier.
            env.advance(mpi.rank() as u64 * 1_000_000).await;
            mpi.barrier(COMM_WORLD).await;
            env.now()
        })
    });
    let latest_arrival = 3_000_000;
    for (r, &t) in outs.iter().enumerate() {
        assert!(
            t >= latest_arrival,
            "rank {r} left the barrier at {t}, before the slowest arrival"
        );
        assert!(t < latest_arrival + 1_000_000, "barrier exit too late: {t}");
    }
}

#[test]
fn allreduce_sums_across_ranks() {
    for p in [2usize, 3, 4, 8] {
        let (outs, _) =
            Universe::new(p, MachineProfile::xeon(), ThreadLevel::Funneled).run(move |mpi| {
                Box::pin(async move {
                    let mine = f64s_to_bytes(&[mpi.rank() as f64, 1.0, -(mpi.rank() as f64)]);
                    let out = mpi
                        .allreduce(COMM_WORLD, mine, Dtype::F64, ReduceOp::Sum)
                        .await;
                    bytes_to_f64s(&out.to_vec())
                })
            });
        let expect_sum = (0..p).map(|r| r as f64).sum::<f64>();
        for o in &outs {
            assert_eq!(o[0], expect_sum, "p={p}");
            assert_eq!(o[1], p as f64);
            assert_eq!(o[2], -expect_sum);
        }
    }
}

#[test]
fn allreduce_max_and_min() {
    let (outs, _) = Universe::new(5, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let mine = f64s_to_bytes(&[mpi.rank() as f64]);
            let mx = mpi
                .allreduce(COMM_WORLD, mine.clone(), Dtype::F64, ReduceOp::Max)
                .await;
            let mn = mpi
                .allreduce(COMM_WORLD, mine, Dtype::F64, ReduceOp::Min)
                .await;
            (
                bytes_to_f64s(&mx.to_vec())[0],
                bytes_to_f64s(&mn.to_vec())[0],
            )
        })
    });
    for &(mx, mn) in &outs {
        assert_eq!(mx, 4.0);
        assert_eq!(mn, 0.0);
    }
}

#[test]
fn bcast_delivers_root_payload() {
    let (outs, _) = Universe::new(6, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let payload = if mpi.comm_rank(COMM_WORLD) == 2 {
                Bytes::real(vec![9u8; 300])
            } else {
                Bytes::synthetic(0)
            };
            let out = mpi.bcast(COMM_WORLD, 2, payload).await;
            out.to_vec()
        })
    });
    for o in &outs {
        assert_eq!(o, &vec![9u8; 300]);
    }
}

#[test]
fn reduce_collects_at_root() {
    let (outs, _) = Universe::new(7, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let mine = f64s_to_bytes(&[1.0]);
            let out = mpi
                .reduce(COMM_WORLD, 3, mine, Dtype::F64, ReduceOp::Sum)
                .await;
            if mpi.rank() == 3 {
                Some(bytes_to_f64s(&out.to_vec())[0])
            } else {
                None
            }
        })
    });
    assert_eq!(outs[3], Some(7.0));
}

#[test]
fn allgather_concatenates_blocks() {
    let (outs, _) = Universe::new(4, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let mine = vec![mpi.rank() as u8; 4];
            mpi.allgather(COMM_WORLD, mine).await.to_vec()
        })
    });
    let expect: Vec<u8> = (0..4).flat_map(|r| vec![r as u8; 4]).collect();
    for o in &outs {
        assert_eq!(o, &expect);
    }
}

#[test]
fn alltoall_transposes_blocks() {
    for p in [2usize, 3, 4, 5] {
        let (outs, _) =
            Universe::new(p, MachineProfile::xeon(), ThreadLevel::Funneled).run(move |mpi| {
                Box::pin(async move {
                    let r = mpi.rank() as u8;
                    // Block for destination d = [r, d].
                    let input: Vec<u8> = (0..p).flat_map(|d| vec![r, d as u8]).collect();
                    mpi.alltoall(COMM_WORLD, input, 2).await.to_vec()
                })
            });
        for (r, o) in outs.iter().enumerate() {
            // Output block s should be [s, r].
            let expect: Vec<u8> = (0..p).flat_map(|s| vec![s as u8, r as u8]).collect();
            assert_eq!(o, &expect, "p={p} rank={r}");
        }
    }
}

#[test]
fn gather_and_scatter_roundtrip() {
    let (outs, _) = Universe::new(4, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let root = 1;
            // Gather each rank's id block at root.
            let mine = Bytes::real(vec![mpi.rank() as u8; 3]);
            let g = mpi
                .icollective(COMM_WORLD, CollOf::Gather { root, mine })
                .await;
            mpi.wait(&g).await;
            let gathered = g.take_data().expect("gather result");
            // Root scatters it right back.
            let input = if mpi.rank() == root {
                gathered.clone()
            } else {
                Bytes::synthetic(0)
            };
            let block = 3;
            let s = mpi
                .icollective(COMM_WORLD, CollOf::Scatter { root, input, block })
                .await;
            mpi.wait(&s).await;
            s.take_data().expect("scatter result").to_vec()
        })
    });
    for (r, o) in outs.iter().enumerate() {
        assert_eq!(o, &vec![r as u8; 3], "rank {r} got its own block back");
    }
}

#[test]
fn nonblocking_collective_overlaps_only_with_polling() {
    // An Iallreduce posted, then compute, then wait: without polling, the
    // schedule is stuck at round 0 until the wait.
    let (outs, _) = Universe::new(4, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            let env = mpi.env().clone();
            let mine = f64s_to_bytes(&[1.0; 1024]);
            let (dtype, op, data) = (Dtype::F64, ReduceOp::Sum, Bytes::real(mine));
            let req = mpi
                .icollective(COMM_WORLD, CollOf::Allreduce { dtype, op, data })
                .await;
            env.advance(5_000_000).await; // compute without polls
            let t = env.now();
            mpi.wait(&req).await;
            let wait_ns = env.now() - t;
            let out = bytes_to_f64s(&req.take_data().expect("result").to_vec());
            (wait_ns, out[0])
        })
    });
    for &(wait_ns, v) in &outs {
        assert_eq!(v, 4.0);
        assert!(
            wait_ns > 1_000,
            "without progress the wait must do real work, got {wait_ns}ns"
        );
    }
}

/// The DES twin of the live wildcard regression: every rank posts an
/// `ANY_SOURCE`/`ANY_TAG` receive, then runs a barrier and an allreduce on
/// the same communicator. Neither the receive nor an `iprobe(None, None)`
/// may see a round message — the simulator matches with the live
/// substrates' queue — and the receive then takes the application
/// message. Rank 0 enters late and probes before it posts, so its peers'
/// barrier tokens wait in its unexpected queue, where an exact probe on
/// the first collective's tag does see them.
#[test]
fn wildcard_receive_never_takes_a_collective_round() {
    for p in 2..=4 {
        let (outs, _) = Universe::new(p, MachineProfile::xeon(), ThreadLevel::Funneled).run(
            move |mpi| async move {
                let r = mpi.rank();
                if r == 0 {
                    mpi.env().advance(1_000_000).await;
                    let round = rtmpi::TAG_COLL_BASE + 1;
                    let st = mpi.iprobe(COMM_WORLD, None, Some(round)).await;
                    assert_eq!(st.map(|s| s.tag), Some(round), "a token is waiting");
                    assert_eq!(mpi.iprobe(COMM_WORLD, None, None).await, None);
                }
                let rx = mpi.irecv(COMM_WORLD, None, None).await;
                mpi.barrier(COMM_WORLD).await;
                let mine = f64s_to_bytes(&[r as f64, 1.0]);
                let sum = mpi
                    .allreduce(COMM_WORLD, mine, Dtype::F64, ReduceOp::Sum)
                    .await;
                mpi.send(COMM_WORLD, (r + 1) % p, 42, vec![r as u8]).await;
                mpi.wait(&rx).await;
                let st = rx.status().expect("receive status");
                let data = rx.take_data().expect("receive data").to_vec();
                (bytes_to_f64s(&sum.to_vec()), st.source, st.tag, data)
            },
        );
        let total = (p * (p - 1) / 2) as f64;
        for (r, (sum, source, tag, data)) in outs.into_iter().enumerate() {
            let left = (r + p - 1) % p;
            assert_eq!(sum, vec![total, p as f64], "p={p} rank {r}");
            assert_eq!(
                (source, tag, data),
                (left, 42, vec![left as u8]),
                "p={p} rank {r}"
            );
        }
    }
}

#[test]
fn comm_dup_separates_traffic() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            let dup = mpi.comm_dup(COMM_WORLD);
            if mpi.rank() == 0 {
                // Same tag on both communicators.
                mpi.send(COMM_WORLD, 1, 4, vec![1u8]).await;
                mpi.send(dup, 1, 4, vec![2u8]).await;
                0
            } else {
                // Receive from the dup first: must get the dup message.
                let (_, d) = mpi.recv(dup, Some(0), Some(4)).await;
                let (_, w) = mpi.recv(COMM_WORLD, Some(0), Some(4)).await;
                (d.to_vec()[0] as usize) * 10 + w.to_vec()[0] as usize
            }
        })
    });
    assert_eq!(outs[1], 21);
}

#[test]
fn comm_split_forms_working_subgroups() {
    let (outs, _) = Universe::new(4, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
        Box::pin(async move {
            // Even/odd split.
            let colors: Vec<u64> = (0..4).map(|r| (r % 2) as u64).collect();
            let sub = mpi.comm_split(COMM_WORLD, &colors);
            assert_eq!(mpi.comm_size(sub), 2);
            let mine = f64s_to_bytes(&[mpi.rank() as f64]);
            let out = mpi.allreduce(sub, mine, Dtype::F64, ReduceOp::Sum).await;
            bytes_to_f64s(&out.to_vec())[0]
        })
    });
    assert_eq!(outs, vec![2.0, 4.0, 2.0, 4.0]); // 0+2 and 1+3
}

#[test]
fn thread_multiple_charges_the_lock_penalty() {
    // The same ping-pong is strictly slower under MPI_THREAD_MULTIPLE.
    let time = |level: ThreadLevel| {
        let (outs, _) = Universe::new(2, MachineProfile::xeon(), level).run(|mpi| {
            Box::pin(async move {
                let env = mpi.env().clone();
                let t0 = env.now();
                for _ in 0..10 {
                    if mpi.rank() == 0 {
                        mpi.send(COMM_WORLD, 1, 1, vec![0u8; 64]).await;
                        let _ = mpi.recv(COMM_WORLD, Some(1), Some(1)).await;
                    } else {
                        let _ = mpi.recv(COMM_WORLD, Some(0), Some(1)).await;
                        mpi.send(COMM_WORLD, 0, 1, vec![0u8; 64]).await;
                    }
                }
                env.now() - t0
            })
        });
        outs[0]
    };
    let funneled = time(ThreadLevel::Funneled);
    let multiple = time(ThreadLevel::Multiple);
    assert!(
        multiple > funneled + 20 * 2_000,
        "MULTIPLE ({multiple}ns) must pay the per-call lock penalty over FUNNELED ({funneled}ns)"
    );
}

#[test]
fn waitany_returns_first_completion() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.env().advance(1_000_000).await;
                mpi.send(COMM_WORLD, 1, 2, vec![1u8]).await; // tag 2 sent late...
                mpi.send(COMM_WORLD, 1, 1, vec![2u8]).await;
                usize::MAX
            } else {
                let r1 = mpi.irecv(COMM_WORLD, Some(0), Some(1)).await;
                let r2 = mpi.irecv(COMM_WORLD, Some(0), Some(2)).await;
                // tag 2 arrives first (sent first): index 1 completes first.
                mpi.waitany(&[r1.clone(), r2.clone()]).await
            }
        })
    });
    assert_eq!(outs[1], 1);
}

#[test]
fn stats_count_traffic() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.send(COMM_WORLD, 1, 1, vec![0u8; 8]).await;
                mpi.send(COMM_WORLD, 1, 1, vec![0u8; 8]).await;
            } else {
                let _ = mpi.recv(COMM_WORLD, Some(0), Some(1)).await;
                let _ = mpi.recv(COMM_WORLD, Some(0), Some(1)).await;
            }
            let s = mpi.stats();
            (s.sends, s.recvs)
        })
    });
    assert_eq!(outs[0].0, 2);
    assert_eq!(outs[1].1, 2);
}

#[test]
fn synthetic_payloads_flow_like_real_ones() {
    let (outs, _) = run2(|mpi| {
        Box::pin(async move {
            if mpi.rank() == 0 {
                mpi.send(COMM_WORLD, 1, 1, Bytes::synthetic(1 << 22)).await;
                0
            } else {
                let (st, data) = mpi.recv(COMM_WORLD, Some(0), Some(1)).await;
                assert!(data.as_real().is_none());
                st.len
            }
        })
    });
    assert_eq!(outs[1], 1 << 22);
}
