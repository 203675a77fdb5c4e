//! Distributed FFT end-to-end: transform a 4096-point signal over 4
//! simulated ranks with the blocking transpose algorithm and the
//! segmented pipelined (SOI-style) variant, verify both against the local
//! reference, and compare the virtual time each approach needs for the
//! pipelined transform.
//!
//! Run: `cargo run --release --example fft_pipeline`
//!
//! **Multi-process mode:** under the wire launcher each rank is an OS
//! process over real Unix-domain sockets, the global transpose an NBC
//! alltoall schedule through the live strategies:
//! `offload-run -n 4 fft_pipeline` (fig-5-style panel, see
//! `fft1d::live_driver`).

use approaches::{run_approach, Approach, Comm};
use fft1d::dist::{fft_dist, fft_dist_pipelined, gather_natural, scatter_natural, DistPlan};
use fft1d::local::{fft, max_rel_error};
use numeric::{Complex, Complex64, SplitMix64};
use std::rc::Rc;

/// One rank of the multi-process panel (we are inside `offload-run`):
/// first the blocking distributed transform under each live strategy
/// (correctness — the spectrum must match the reference column FFTs of
/// the expected transpose), then the fig-5-style alltoall overlap
/// measurement (`harness::run_overlap_panel`).
fn wire_main() {
    use fft1d::live_driver;
    let transport = match wire::from_env() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fft_pipeline: wire bootstrap failed: {e}");
            std::process::exit(2);
        }
    };
    use rtmpi::Transport as _;
    let (rank, size) = (transport.rank(), transport.size());
    let plan = live_driver::panel_plan(size);

    let mut t = transport;
    // Correctness: the full transform over the live collective agrees
    // with a locally recomputed reference on every rank and strategy.
    for approach in approaches::live::LiveApproach::ALL {
        let mut comm = approaches::live::LiveComm::start(approach, t);
        let out = live_driver::fft_dist_live(&mut comm, &plan, live_driver::rank_slab(&plan, rank))
            .expect("distributed FFT");
        let reference = {
            // Column-FFT the expected receive buffer — same math, no comm.
            let bytes = live_driver::expected_transpose(&plan, rank);
            let block = plan.rows_local() * plan.cols_local() * 16;
            let mut cols_mat = vec![vec![Complex64::zero(); plan.n1]; plan.cols_local()];
            for src in 0..plan.p {
                let blk = fft1d::dist::decode(&bytes[src * block..(src + 1) * block]);
                for (bi, v) in blk.iter().enumerate() {
                    let i = bi / plan.cols_local();
                    let k2l = bi % plan.cols_local();
                    cols_mat[k2l][src * plan.rows_local() + i] = *v;
                }
            }
            let mut res = Vec::with_capacity(plan.local_len());
            for col in cols_mat.iter_mut() {
                fft(col);
                res.extend_from_slice(col);
            }
            res
        };
        let err = max_rel_error(&out, &reference);
        assert!(err < 1e-12, "{}: spectrum error {err:e}", approach.name());
        if rank == 0 {
            println!(
                "{:8}: {}-point distributed FFT over {size} ranks, max rel err {err:.2e}",
                approach.name(),
                plan.n()
            );
        }
        t = comm.finalize();
    }

    harness::run_overlap_panel(
        t,
        "fft_wire",
        "§5.2 transpose alltoall over the socket wire (rank 0, row-FFT compute)",
        &format!(
            "\n== live FFT transpose over the wire: {}x{} points, {size} ranks ==",
            plan.n1, plan.n2
        ),
        live_driver::nbc_overlap_panel,
    );
    println!("rank {rank} ok");
}

fn main() {
    if wire::is_wire_process() {
        return wire_main();
    }
    let plan = DistPlan::new(64, 64, 4);
    println!(
        "== distributed FFT: {} points as {}x{} over {} ranks ==\n",
        plan.n(),
        plan.n1,
        plan.n2,
        plan.p
    );
    // A deterministic random signal and its reference spectrum.
    let mut rng = SplitMix64::new(271828);
    let x: Vec<Complex64> = (0..plan.n())
        .map(|_| Complex::new(rng.next_gaussian(), rng.next_gaussian()))
        .collect();
    let mut want = x.clone();
    fft(&mut want);

    let locals = Rc::new(scatter_natural(&plan, &x));
    for (label, segments) in [
        ("blocking transpose", None),
        ("pipelined x4 (SOI-style)", Some(4)),
    ] {
        let locals = locals.clone();
        let (outs, _) = run_approach(
            plan.p,
            simnet::MachineProfile::xeon(),
            Approach::Baseline,
            false,
            move |comm: Comm| {
                let locals = locals.clone();
                async move {
                    let local = locals[comm.rank()].clone();
                    match segments {
                        None => fft_dist(&comm, &plan, local).await,
                        Some(s) => fft_dist_pipelined(&comm, &plan, local, s).await,
                    }
                }
            },
        );
        let got = gather_natural(&plan, &outs);
        let err = max_rel_error(&got, &want);
        println!("{label:26}: max relative error vs reference FFT = {err:.3e}");
        assert!(err < 1e-9);
    }

    // How much virtual time does the pipelined transform take per approach?
    println!("\n== pipelined transform, virtual time by approach ==");
    for approach in [Approach::Baseline, Approach::CommSelf, Approach::Offload] {
        let locals = locals.clone();
        let (_, elapsed) = run_approach(
            plan.p,
            simnet::MachineProfile::xeon(),
            approach,
            false,
            move |comm: Comm| {
                let locals = locals.clone();
                async move {
                    let local = locals[comm.rank()].clone();
                    fft_dist_pipelined(&comm, &plan, local, 4).await
                }
            },
        );
        println!("{:10}: {:>8} ns", approach.name(), elapsed);
    }
    println!("\nAll checks passed.");
}
