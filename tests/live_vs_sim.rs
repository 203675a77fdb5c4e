//! The two faces of the offload infrastructure — real OS threads over
//! `rtmpi` and the DES model over `mpisim` — must compute identical
//! results for the same program (only their notion of time differs).

use approaches::{run_approach, Approach, Comm};
use mpisim::{Bytes, Dtype, ReduceOp};
use simnet::MachineProfile;
use std::sync::Arc;
use std::thread;

/// The program: ring-shift a value, then allreduce-sum the received one,
/// then allgather rank bytes.
fn expected(p: usize) -> (f64, Vec<u8>) {
    let sum = (0..p).map(|r| r as f64).sum();
    let gathered = (0..p).map(|r| r as u8).collect();
    (sum, gathered)
}

#[test]
fn live_offload_runs_the_program() {
    let p = 4;
    let (want_sum, want_gather) = expected(p);
    let ranks = offload::offload_world(p);
    let workers: Vec<_> = ranks
        .iter()
        .map(|r| {
            let h = r.handle();
            thread::spawn(move || {
                let me = h.rank();
                let right = (me + 1) % h.size();
                let left = (me + h.size() - 1) % h.size();
                let rx = h.irecv(Some(left), Some(1));
                h.send(right, 1, Arc::from(vec![me as u8]));
                let (_, data) = match h.wait(rx) {
                    offload::Completion::Received(st, d) => (st, d),
                    other => panic!("{other:?}"),
                };
                let from_left = data[0] as f64;
                let sum = h.allreduce_f64_sum(&[from_left])[0];
                let gathered = h.allgather(vec![me as u8]);
                (sum, gathered)
            })
        })
        .collect();
    for w in workers {
        let (sum, gathered) = w.join().expect("worker");
        assert_eq!(sum, want_sum);
        assert_eq!(gathered, want_gather);
    }
    for r in ranks {
        r.finalize();
    }
}

#[test]
fn sim_offload_runs_the_program_identically() {
    let p = 4;
    let (want_sum, want_gather) = expected(p);
    let (outs, _) = run_approach(
        p,
        MachineProfile::xeon(),
        Approach::Offload,
        false,
        move |comm: Comm| async move {
            let me = comm.rank();
            let right = (me + 1) % comm.size();
            let left = (me + comm.size() - 1) % comm.size();
            let rx = comm.irecv(Some(left), Some(1)).await;
            comm.send(right, 1, Bytes::real(vec![me as u8])).await;
            comm.wait(&rx).await;
            let from_left = rx.take_data().expect("ring data").to_vec()[0] as f64;
            let sum_bytes = comm
                .allreduce(
                    Bytes::real(from_left.to_le_bytes().to_vec()),
                    Dtype::F64,
                    ReduceOp::Sum,
                )
                .await;
            let sum = f64::from_le_bytes(sum_bytes.to_vec().try_into().expect("8 bytes"));
            let gathered = comm.allgather(Bytes::real(vec![me as u8])).await.to_vec();
            (sum, gathered)
        },
    );
    for (sum, gathered) in outs {
        assert_eq!(sum, want_sum);
        assert_eq!(gathered, want_gather);
    }
}

/// Same NBC schedule code drives both executors: collectives agree on
/// every operation we offer in both modes.
#[test]
fn collectives_agree_between_modes() {
    let p = 5; // non-power-of-two exercises the reduce+bcast fallback
               // Live.
    let ranks = offload::offload_world(p);
    // Spawn everything first, then join: joining lazily inside the same
    // iterator chain would serialize the ranks and deadlock the collective.
    let spawned: Vec<_> = ranks
        .iter()
        .map(|r| {
            let h = r.handle();
            thread::spawn(move || {
                let me = h.rank();
                let sum = h.allreduce_f64_sum(&[me as f64 + 0.5]);
                let bc = h.bcast(2, if me == 2 { vec![9, 9] } else { vec![] });
                let a2a_in: Vec<u8> = (0..h.size()).map(|d| (me * 10 + d) as u8).collect();
                let a2a = h.alltoall(a2a_in, 1);
                (sum, bc, a2a)
            })
        })
        .collect();
    let live: Vec<_> = spawned
        .into_iter()
        .map(|t| t.join().expect("live worker"))
        .collect();
    for r in ranks {
        r.finalize();
    }
    // Sim.
    let (sim, _) = run_approach(
        p,
        MachineProfile::xeon(),
        Approach::Offload,
        false,
        move |comm: Comm| async move {
            let me = comm.rank();
            let sum_b = comm
                .allreduce(
                    Bytes::real((me as f64 + 0.5).to_le_bytes().to_vec()),
                    Dtype::F64,
                    ReduceOp::Sum,
                )
                .await;
            let sum = vec![f64::from_le_bytes(
                sum_b.to_vec().try_into().expect("8 bytes"),
            )];
            let bc = comm
                .bcast(
                    2,
                    if me == 2 {
                        Bytes::real(vec![9, 9])
                    } else {
                        Bytes::synthetic(0)
                    },
                )
                .await
                .to_vec();
            let a2a_in: Vec<u8> = (0..comm.size()).map(|d| (me * 10 + d) as u8).collect();
            let a2a = comm.alltoall(Bytes::real(a2a_in), 1).await.to_vec();
            (sum, bc, a2a)
        },
    );
    assert_eq!(live, sim, "live and simulated modes must agree exactly");
}
