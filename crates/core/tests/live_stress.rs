//! Real-threads stress tests of the live offload infrastructure: many
//! application threads per rank hammering the lock-free command queue and
//! request pool concurrently with the offload thread's processing. On any
//! host — including a single-core one, where preemption supplies the
//! interleavings — these exercise the atomics under contention.

use offload::{offload_world_sized, Completion, OffloadHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn mixed_p2p_and_collective_storm() {
    const APP_THREADS: usize = 3;
    const MSGS: usize = 150;
    let ranks = offload_world_sized(3, 64, 64); // small queue/pool: forces recycling
    let total = Arc::new(AtomicU64::new(0));
    let mut join = Vec::new();
    for r in &ranks {
        for t in 0..APP_THREADS {
            let h: OffloadHandle = r.handle();
            let total = total.clone();
            join.push(thread::spawn(move || {
                let me = h.rank();
                let right = (me + 1) % h.size();
                let left = (me + h.size() - 1) % h.size();
                let tag = t as u32;
                for i in 0..MSGS {
                    // Every thread both sends and receives with its twin on
                    // the neighbor ranks.
                    let rx = h.irecv(Some(left), Some(tag));
                    h.send(right, tag, Arc::from(vec![(i % 251) as u8; 64]));
                    match h.wait(rx) {
                        Completion::Received(st, data) => {
                            assert_eq!(st.source, left);
                            assert_eq!(data.len(), 64);
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected completion {other:?}"),
                    }
                }
            }));
        }
    }
    for j in join {
        j.join().expect("app thread");
    }
    assert_eq!(
        total.load(Ordering::Relaxed),
        (3 * APP_THREADS * MSGS) as u64
    );
    for r in ranks {
        r.finalize();
    }
}

#[test]
fn collectives_from_one_thread_while_others_send() {
    // One thread per rank runs repeated allreduces while others stream
    // point-to-point traffic: the offload thread's nonblocking conversion
    // must keep both flowing.
    let ranks = offload_world_sized(2, 128, 128);
    let mut join = Vec::new();
    for r in &ranks {
        let h = r.handle();
        join.push(thread::spawn(move || {
            let mut acc = 0.0;
            for i in 0..40 {
                let s = h.allreduce_f64_sum(&[(h.rank() + i) as f64]);
                acc += s[0];
            }
            acc
        }));
        let h = r.handle();
        join.push(thread::spawn(move || {
            let peer = 1 - h.rank();
            let mut got = 0.0;
            for i in 0..200u32 {
                let rx = h.irecv(Some(peer), Some(7));
                h.send(peer, 7, Arc::from(vec![(i % 200) as u8]));
                if let Completion::Received(_, d) = h.wait(rx) {
                    got += d[0] as f64;
                }
            }
            got
        }));
    }
    let outs: Vec<f64> = join
        .into_iter()
        .map(|j| j.join().expect("thread"))
        .collect();
    // Collective results: sum over i of (0+i)+(1+i) = sum (1+2i) for i in 0..40
    let expect_coll: f64 = (0..40).map(|i| 1.0 + 2.0 * i as f64).sum();
    assert_eq!(outs[0], expect_coll);
    assert_eq!(outs[2], expect_coll);
    // P2P payload sums are equal in both directions.
    assert_eq!(outs[1], outs[3]);
    for r in ranks {
        r.finalize();
    }
}

#[test]
fn tiny_pool_forces_backpressure_not_corruption() {
    // More ops than the channel and the pool hold — 300 through 4-slot
    // lanes and a 2-slot pool, 100 through 64 and 64: pushes and
    // alloc_blocking must wait rather than alias slots, and one sender's
    // messages must arrive in the order they were sent.
    for (queue_cap, pool_cap, n) in [(4, 2, 300u32), (64, 64, 100)] {
        let ranks = offload_world_sized(2, queue_cap, pool_cap);
        let h0 = ranks[0].handle();
        let h1 = ranks[1].handle();
        let sender = thread::spawn(move || {
            for i in 0..n {
                h0.send(1, 1, Arc::from(vec![(i % 256) as u8]));
            }
        });
        let receiver = thread::spawn(move || {
            (0..n)
                .map(|_| h1.recv(Some(0), Some(1)).1[0])
                .collect::<Vec<_>>()
        });
        sender.join().expect("sender");
        let got = receiver.join().expect("receiver");
        assert_eq!(got, (0..n).map(|i| (i % 256) as u8).collect::<Vec<_>>());
        for r in ranks {
            r.finalize();
        }
    }
}

#[cfg(feature = "obs-enabled")]
#[test]
fn pool_occupancy_high_water_stays_within_capacity() {
    // The occupancy gauge's high-water mark must never exceed the pool
    // capacity, even with several app threads racing alloc/free, and the
    // alloc/free counters must balance once every wait has returned.
    const POOL_CAP: usize = 8;
    const APP_THREADS: usize = 3;
    const MSGS: usize = 100;
    let ranks = offload_world_sized(2, 16, POOL_CAP);
    let h0 = ranks[0].handle();
    let h1 = ranks[1].handle();
    let senders: Vec<_> = (0..APP_THREADS as u32)
        .map(|t| {
            let h = h0.clone();
            thread::spawn(move || {
                for i in 0..MSGS {
                    h.send(1, t, Arc::from(vec![(i % 256) as u8]));
                }
            })
        })
        .collect();
    let receiver = thread::spawn(move || {
        for _ in 0..APP_THREADS * MSGS {
            let _ = h1.recv(Some(0), None);
        }
    });
    for s in senders {
        s.join().expect("sender");
    }
    receiver.join().expect("receiver");

    let snap = h0.obs().snapshot();
    let occ = snap.gauge("pool.occupancy");
    assert!(
        occ.high_water as usize <= POOL_CAP,
        "occupancy HWM {} exceeds pool capacity {POOL_CAP}",
        occ.high_water
    );
    assert!(occ.high_water >= 1, "the pool was actually used");
    assert_eq!(
        snap.counter("pool.allocs"),
        snap.counter("pool.frees"),
        "every slot allocated was freed by a wait"
    );
    // Commands travel the sharded lane set.
    assert!(snap.counter("lanes.push_ok") >= (APP_THREADS * MSGS) as u64);
    assert!(
        snap.histogram("offload.drained_per_wakeup").count > 0,
        "the service loop recorded its wakeups"
    );
    for r in ranks {
        r.finalize();
    }
}

#[test]
fn finalize_drains_outstanding_work() {
    // Queue up work and finalize immediately: the offload thread must
    // complete everything before exiting.
    let ranks = offload_world_sized(2, 256, 256);
    let h0 = ranks[0].handle();
    let h1 = ranks[1].handle();
    let reqs: Vec<_> = (0..100u32)
        .map(|i| h0.isend(1, i % 4, Arc::from(vec![i as u8])))
        .collect();
    let receiver = thread::spawn(move || {
        let mut n = 0;
        for i in 0..100u32 {
            let (_, _) = h1.recv(Some(0), Some(i % 4));
            n += 1;
        }
        n
    });
    for r in reqs {
        let _ = h0.wait(r);
    }
    assert_eq!(receiver.join().expect("receiver"), 100);
    for r in ranks {
        r.finalize(); // must not hang or panic
    }
}
