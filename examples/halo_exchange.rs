//! The paper's Listing-1 scenario in the discrete-event model: a stencil
//! halo exchange overlapped with internal-volume compute, run unmodified
//! under all five approaches, printing the achieved overlap and phase
//! split for each — plus the flight-recorder view: per-approach engine
//! metrics, and (with `--trace <path>`) a Chrome trace of the offload
//! service thread in virtual time.
//!
//! Run: `cargo run --release --example halo_exchange`
//! Trace: `cargo run --release --example halo_exchange -- --trace halo.json`
//! then open the JSON in <https://ui.perfetto.dev>.
//!
//! **Multi-process mode:** under the wire launcher each rank is an OS
//! process over real Unix-domain sockets, and the same comparison runs on
//! the live strategies (baseline / iprobe / offload over
//! `approaches::live`): `offload-run -n 4 halo_exchange`. With
//! `--trace <prefix>` every rank dumps `<prefix>-rankN.json`; the files
//! merge into one timeline (`harness::merge_traces`) because each rank
//! occupies its own pid row.

use approaches::{run_approach_traced, Approach, Comm};
use harness::Table;
use mpisim::Bytes;
use simnet::MachineProfile;

const FACE_BYTES: usize = 512 * 1024; // rendezvous regime
const COMPUTE_NS: u64 = 2_000_000; // 2 ms internal volume

/// Face size for the live (socket) panel: still far above the eager
/// crossover, small enough that the ci smoke lane stays quick.
const WIRE_FACE_BYTES: usize = 256 * 1024;
/// Not trimmed in quick mode: the gated handshake counts of
/// `BENCH_live_overlap.json` (warmup + 2 per iteration) stay what they were.
const WIRE_ITERS: usize = 4;

/// One rank of the multi-process panel (we are inside `offload-run`).
/// Ranks pair up (0↔1, 2↔3, …) and run the §4.1 overlap measurement
/// under each live strategy sequentially over the same socket mesh
/// (`harness::run_overlap_panel`); the snapshot's wall-clock series are
/// `info`, its handshake counters gate.
fn wire_main() {
    let mut transport = match wire::from_env() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("halo_exchange: wire bootstrap failed: {e}");
            std::process::exit(2);
        }
    };
    use rtmpi::Transport as _;
    let (rank, size) = (transport.rank(), transport.size());
    assert!(
        size >= 2 && size % 2 == 0,
        "wire mode pairs ranks; use an even -n"
    );
    let peer = rank ^ 1;

    let trace_prefix = harness::trace_path_from_args();
    let recorder = if trace_prefix.is_some() {
        obs::Recorder::wall()
    } else {
        obs::Recorder::disabled()
    };
    let track = recorder.track(0, 0, "approach phases");
    // Cross-rank rendezvous flow arrows: the engine emits s/t/f events at
    // RTS-send, CTS-send, and DATA-recv on this track; after per-rank
    // dumps are merged, each handshake draws as one arrow between rank
    // rows in Perfetto (dump_trace_prefixed restamps pids per rank).
    transport.set_flow_track(recorder.track(0, 1, "wire rendezvous"));

    harness::run_overlap_panel(
        transport,
        "live_overlap",
        "§4.1 live overlap over the socket wire (rank 0, pairwise halo exchange)",
        &format!(
            "== live halo exchange over the wire: {} faces, {size} ranks (this pair: 0↔1) ==",
            harness::fmt_bytes(WIRE_FACE_BYTES)
        ),
        |approach, t, _| {
            let t0 = recorder.now_ns();
            let out = harness::p2p_overlap_live(approach, t, peer, WIRE_FACE_BYTES, WIRE_ITERS);
            track.complete_at(approach.name(), t0, recorder.now_ns());
            out
        },
    );

    if let Some(prefix) = &trace_prefix {
        harness::dump_trace_prefixed(&recorder, &prefix.display().to_string(), rank);
    }
    if rank == 0 {
        println!(
            "\nrndv@wait counts rendezvous handshakes that had to wait for the\n\
             application to reach MPI; rndv async counts handshakes a progress\n\
             actor completed during compute. Baseline is all @wait, offload is\n\
             all async — and its wait time collapses accordingly."
        );
    }
}

type IterOut = ((u64, u64, u64), obs::Snapshot, Option<obs::Snapshot>);

async fn stencil_iteration(comm: Comm) -> IterOut {
    let env = comm.env().clone();
    let (r, p) = (comm.rank(), comm.size());
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    // Post the boundary exchange (Listing 1, line 6).
    let t0 = env.now();
    let rx1 = comm.irecv(Some(left), Some(1)).await;
    let rx2 = comm.irecv(Some(right), Some(2)).await;
    let tx1 = comm.isend(right, 1, Bytes::synthetic(FACE_BYTES)).await;
    let tx2 = comm.isend(left, 2, Bytes::synthetic(FACE_BYTES)).await;
    let post = env.now() - t0;
    // Internal volume processing with PROGRESS points (lines 7–17).
    for _ in 0..8 {
        env.advance(COMPUTE_NS / 8).await;
        comm.progress_hint().await;
    }
    // Complete the exchange (line 18).
    let t1 = env.now();
    comm.waitall(&[rx1, rx2, tx1, tx2]).await;
    let wait = env.now() - t1;
    comm.barrier().await;
    let engine = comm.obs_registry().snapshot();
    let service = comm.offload_service_obs().map(|reg| reg.snapshot());
    ((post, wait, env.now() - t0), engine, service)
}

fn main() {
    if wire::is_wire_process() {
        return wire_main();
    }
    let trace_path = harness::trace_path_from_args();
    println!(
        "== halo exchange, {} faces, {} ms compute, 8 ranks (Endeavor Xeon model) ==",
        harness::fmt_bytes(FACE_BYTES),
        COMPUTE_NS / 1_000_000
    );
    let mut t = Table::new(vec![
        "approach",
        "post us",
        "wait us",
        "iteration us",
        "comm hidden %",
    ]);
    let mut metrics = Table::new(vec![
        "approach",
        "progress polls",
        "rndv sends",
        "lock wait us",
        "svc drains",
    ]);
    let mut baseline_wait = None;
    for approach in Approach::ALL {
        // Record the offload run when a trace was requested; the recorder
        // runs on the simulator's virtual clock.
        let recorder = match (approach, &trace_path) {
            (Approach::Offload, Some(_)) => obs::Recorder::virtual_clock(),
            _ => obs::Recorder::disabled(),
        };
        let (outs, _) = run_approach_traced(
            8,
            MachineProfile::xeon(),
            approach,
            false,
            recorder.clone(),
            stencil_iteration,
        );
        if let (Approach::Offload, Some(path)) = (approach, &trace_path) {
            harness::dump_trace(&recorder, path);
        }
        let ((post, wait, total), engine, service) = outs
            .into_iter()
            .max_by_key(|&((_, w, _), _, _)| w)
            .expect("8 ranks");
        if approach == Approach::Baseline {
            baseline_wait = Some(wait.max(1));
        }
        let hidden = baseline_wait
            .map(|bw| 100.0 * (1.0 - wait as f64 / bw as f64))
            .unwrap_or(0.0);
        t.row(vec![
            approach.name().to_string(),
            format!("{:.2}", post as f64 / 1e3),
            format!("{:.2}", wait as f64 / 1e3),
            format!("{:.2}", total as f64 / 1e3),
            format!("{hidden:.1}"),
        ]);
        metrics.row(vec![
            approach.name().to_string(),
            engine.counter("mpi.progress_polls").to_string(),
            engine.counter("mpi.rndv_sends").to_string(),
            format!("{:.2}", engine.counter("mpi.lock_wait_ns") as f64 / 1e3),
            service
                .map(|s| s.histogram("offload.drained_per_wakeup").count.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t.print("results (worst rank per approach)");
    metrics.print("flight recorder (same rank)");
    println!(
        "\nThe offload approach posts in ~0.1 us and hides nearly the whole\n\
         exchange under compute; the baseline pays the rendezvous at the wait.\n\
         The metrics show why: only approaches with a progress actor poll the\n\
         engine during the compute window."
    );
}
