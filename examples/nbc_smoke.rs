//! NBC smoke: every collective of the live surface — barrier, bcast,
//! reduce, allreduce (sum and max), allgather, alltoall, gather, scatter
//! — issued as round schedules over a real transport and verified
//! element-wise, under each live strategy in turn over the same mesh.
//!
//! Standalone it runs an in-process 4-rank wire loopback world:
//! `cargo run --release --example nbc_smoke`. Under the launcher each
//! rank is an OS process over real sockets — the CI smoke lane runs
//! `offload-run -n 4 nbc_smoke` and gates on the per-rank
//! `wire.coll_tx` counters in the stats report.

use approaches::live::{verify_collectives, LiveApproach, LiveComm};
use rtmpi::Transport;

fn rank_main(transport: wire::WireComm) {
    let rank = transport.rank();
    let mut t = transport;
    for approach in LiveApproach::ALL {
        let mut comm = LiveComm::start(approach, t);
        verify_collectives(&mut comm);
        t = comm.finalize();
    }
    println!("rank {rank} ok");
}

fn main() {
    if wire::is_wire_process() {
        match wire::from_env() {
            Ok(t) => return rank_main(t),
            Err(e) => {
                eprintln!("nbc_smoke: wire bootstrap failed: {e}");
                std::process::exit(2);
            }
        }
    }
    // Standalone: the same exercise over an in-process 4-rank loopback
    // world, one thread per rank.
    let handles: Vec<_> = wire::loopback(4)
        .into_iter()
        .map(|t| std::thread::spawn(move || rank_main(t)))
        .collect();
    for h in handles {
        h.join().expect("rank thread");
    }
    println!("All collectives verified under all live strategies.");
}
