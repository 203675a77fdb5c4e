//! One-sided (RMA) communication tests — the paper's §7 future-work
//! direction and the setting of Casper [30] in its related work: puts and
//! gets against exposure windows, fence synchronization, and the
//! passive-target progress problem that dedicated progress agents solve.

use approaches::{run_approach, Approach, Comm};
use destime::Nanos;
use mpisim::{Bytes, Mpi, ThreadLevel, Universe};
use simnet::MachineProfile;

fn uni(n: usize) -> Universe {
    Universe::new(n, MachineProfile::xeon(), ThreadLevel::Funneled)
}

#[test]
fn put_becomes_visible_after_fence() {
    let (outs, _) = uni(4).run(|mpi: Mpi| {
        Box::pin(async move {
            let win = mpi.win_create(vec![0u8; 16]).await;
            // Everyone puts its rank into slot `rank` of the right
            // neighbor's window.
            let right = (mpi.rank() + 1) % 4;
            let _ = mpi
                .put(win, right, mpi.rank(), vec![mpi.rank() as u8 + 1])
                .await;
            mpi.win_fence(win).await;
            mpi.win_local(win)
        })
    });
    for (r, w) in outs.iter().enumerate() {
        let left = (r + 3) % 4;
        assert_eq!(w[left], left as u8 + 1, "rank {r} window {w:?}");
        // Only that one slot written.
        for (i, &b) in w.iter().enumerate() {
            if i != left {
                assert_eq!(b, 0);
            }
        }
    }
}

#[test]
fn get_reads_remote_window() {
    let (outs, _) = uni(3).run(|mpi: Mpi| {
        Box::pin(async move {
            let mine: Vec<u8> = (0..8).map(|i| (mpi.rank() * 10 + i) as u8).collect();
            let win = mpi.win_create(mine).await;
            let target = (mpi.rank() + 1) % 3;
            let req = mpi.get(win, target, 2, 4).await;
            mpi.wait(&req).await;
            let data = req.take_data().expect("get reply").to_vec();
            mpi.win_fence(win).await;
            (target, data)
        })
    });
    for (target, data) in outs {
        let expect: Vec<u8> = (2..6).map(|i| (target * 10 + i) as u8).collect();
        assert_eq!(data, expect);
    }
}

#[test]
fn multiple_puts_to_same_target_accumulate_in_order() {
    let (outs, _) = uni(2).run(|mpi: Mpi| {
        Box::pin(async move {
            let win = mpi.win_create(vec![0u8; 8]).await;
            if mpi.rank() == 0 {
                for i in 0..4u8 {
                    let _ = mpi.put(win, 1, i as usize * 2, vec![i + 1, i + 1]).await;
                }
            }
            mpi.win_fence(win).await;
            mpi.win_local(win)
        })
    });
    assert_eq!(outs[1], vec![1, 1, 2, 2, 3, 3, 4, 4]);
}

/// The Casper phenomenon: a put at a *computing* (non-polling) target only
/// completes once the target finally enters MPI — unless a dedicated
/// progress agent (comm-self / core-spec / offload) drives the target's
/// progress engine.
#[test]
fn passive_target_put_needs_async_progress() {
    let compute: Nanos = 5_000_000;
    let origin_wait = |approach: Approach| {
        let (outs, _) = run_approach(
            2,
            MachineProfile::xeon(),
            approach,
            false,
            move |comm: Comm| async move {
                let env = comm.env().clone();
                let mpi = comm.mpi().clone();
                let win = mpi.win_create(vec![0u8; 1 << 20]).await;
                let out = if comm.rank() == 0 {
                    let req = mpi.put(win, 1, 0, Bytes::synthetic(1 << 20)).await;
                    let t0 = env.now();
                    mpi.wait(&req).await;
                    env.now() - t0
                } else {
                    // The target computes, never entering MPI.
                    env.advance(compute).await;
                    0
                };
                mpi.win_fence(win).await;
                out
            },
        );
        outs[0]
    };
    let baseline = origin_wait(Approach::Baseline);
    let commself = origin_wait(Approach::CommSelf);
    let corespec = origin_wait(Approach::CoreSpec);
    // Without async progress the origin stalls ~the whole target compute
    // phase; with a progress agent the put completes in wire time.
    assert!(
        baseline > compute / 2,
        "baseline origin wait {baseline}ns should approach the target's {compute}ns compute"
    );
    assert!(
        commself < baseline / 4,
        "comm-self ({commself}ns) must rescue the passive target vs baseline ({baseline}ns)"
    );
    assert!(
        corespec < baseline / 4,
        "core-spec ({corespec}ns) must rescue the passive target vs baseline ({baseline}ns)"
    );
}

#[test]
fn fence_without_rma_is_a_barrier() {
    let (outs, _) = uni(3).run(|mpi: Mpi| {
        Box::pin(async move {
            let env = mpi.env().clone();
            let win = mpi.win_create(vec![0u8; 4]).await;
            env.advance(mpi.rank() as u64 * 100_000).await;
            mpi.win_fence(win).await;
            env.now()
        })
    });
    let spread = outs.iter().max().unwrap() - outs.iter().min().unwrap();
    assert!(spread < 50_000, "fence synchronizes: spread {spread}");
}

#[test]
fn synthetic_put_payloads_move_without_allocation() {
    let (outs, _) = uni(2).run(|mpi: Mpi| {
        Box::pin(async move {
            // A "1 GiB" put as synthetic payload: costs model time, not
            // host memory. The window itself is small and untouched.
            let win = mpi.win_create(vec![7u8; 4]).await;
            if mpi.rank() == 0 {
                let req = mpi.put(win, 1, 0, Bytes::synthetic(1 << 30)).await;
                mpi.wait(&req).await;
            }
            mpi.win_fence(win).await;
            mpi.win_local(win)
        })
    });
    // Synthetic data leaves the window contents alone (documented).
    assert_eq!(outs[1], vec![7u8; 4]);
}
