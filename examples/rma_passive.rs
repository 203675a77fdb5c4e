//! One-sided RMA and the passive-target progress problem (the setting of
//! Casper, discussed in the paper's related work, and part of its §7
//! future-work direction).
//!
//! Rank 0 puts a large buffer into rank 1's exposure window while rank 1
//! is busy computing and never enters MPI. Without an asynchronous
//! progress agent, the put cannot land until the target finally makes an
//! MPI call; with one (comm-self, core-spec, offload), it completes in
//! wire time.
//!
//! Run: `cargo run --release --example rma_passive`

use approaches::{run_approach, Approach, Comm};
use harness::Table;
use mpisim::Bytes;
use simnet::MachineProfile;

const PUT_BYTES: usize = 1 << 20;
const TARGET_COMPUTE_NS: u64 = 5_000_000; // 5 ms without any MPI call

fn origin_wait(approach: Approach) -> u64 {
    let (outs, _) = run_approach(
        2,
        MachineProfile::xeon(),
        approach,
        false,
        move |comm: Comm| async move {
            let env = comm.env().clone();
            let mpi = comm.mpi().clone();
            let win = mpi.win_create(vec![0u8; PUT_BYTES]).await;
            let out = if comm.rank() == 0 {
                let req = mpi.put(win, 1, 0, Bytes::synthetic(PUT_BYTES)).await;
                let t0 = env.now();
                mpi.wait(&req).await;
                env.now() - t0
            } else {
                env.advance(TARGET_COMPUTE_NS).await; // busy, not in MPI
                0
            };
            mpi.win_fence(win).await;
            out
        },
    );
    outs[0]
}

fn main() {
    println!(
        "== passive-target MPI_Put of {} while the target computes {} ms ==\n",
        harness::fmt_bytes(PUT_BYTES),
        TARGET_COMPUTE_NS / 1_000_000
    );
    let mut t = Table::new(vec!["approach", "origin wait", "vs target compute"]);
    for approach in Approach::ALL {
        let wait = origin_wait(approach);
        t.row(vec![
            approach.name().to_string(),
            harness::fmt_ns(wait),
            format!("{:.1} %", 100.0 * wait as f64 / TARGET_COMPUTE_NS as f64),
        ]);
    }
    t.print("origin-side completion time of the put");
    println!(
        "\nBaseline/iprobe stall for (nearly) the target's whole compute phase —\n\
         the put is only applied when the target's progress engine runs. The\n\
         progress-agent approaches complete it in wire time: the Casper\n\
         phenomenon, solved for free by the offload thread."
    );
}
