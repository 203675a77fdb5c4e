//! Lattice QCD end-to-end: solve a Wilson fermion system with CG and
//! BiCGStab on a small 4⁴×8 lattice, verify the solution, then run the
//! distributed Dslash (real spinor data through the simulated MPI, under
//! the offload approach) and check it against the single-rank operator.
//!
//! Run: `cargo run --release --example qcd_solver`
//!
//! **Multi-process mode:** under the wire launcher each rank is an OS
//! process over real Unix-domain sockets, and the CG-style global
//! reductions run as NBC allreduce schedules through the live strategies
//! with Dslash as the overlap compute: `offload-run -n 4 qcd_solver`
//! (fig-3-style panel, see `qcd::live_driver`).

use approaches::{run_approach, Approach, Comm};
use numeric::SplitMix64;
use qcd::dist::dslash_slab;
use qcd::dslash::{dslash, wilson_m, FermionField, GaugeField};
use qcd::lattice::SiteIndex;
use simnet::MachineProfile;
use std::rc::Rc;

const DIMS: [usize; 4] = [4, 4, 4, 8];
const KAPPA: f64 = 0.11;

/// One rank of the multi-process panel (we are inside `offload-run`):
/// the fig-3-style NBC overlap measurement — lane-dot allreduces with
/// Dslash inserted — under each live strategy sequentially over the same
/// socket mesh (`harness::run_overlap_panel`).
fn wire_main() {
    let transport = match wire::from_env() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("qcd_solver: wire bootstrap failed: {e}");
            std::process::exit(2);
        }
    };
    use rtmpi::Transport as _;
    let (rank, size) = (transport.rank(), transport.size());
    assert!(size >= 2, "the reduction panel needs at least 2 ranks");
    harness::run_overlap_panel(
        transport,
        "qcd_wire",
        "§5.1 CG-style lane-dot allreduce over the socket wire (rank 0, Dslash compute)",
        &format!(
            "== live QCD reductions over the wire: {} lanes x f64, {size} ranks ==",
            qcd::live_driver::LANES
        ),
        qcd::live_driver::nbc_overlap_panel,
    );
    if rank == 0 {
        println!(
            "\nEvery allreduce result was checked against the globally expected\n\
             sums. coll tx counts round sends in the reserved tag space; the\n\
             offload strategy completes round handshakes asynchronously (rndv\n\
             async) while Dslash runs, the baseline only at wait."
        );
    }
    println!("rank {rank} ok");
}

fn main() {
    if wire::is_wire_process() {
        return wire_main();
    }
    let mut rng = SplitMix64::new(20150915); // SC'15 conference date
    let gauge = GaugeField::<f64>::random(DIMS, &mut rng);
    let b = FermionField::random(DIMS, &mut rng);

    println!("== Wilson solve on a {DIMS:?} lattice, kappa = {KAPPA} ==\n");

    let (x_cg, cg) = qcd::cg_normal(&gauge, KAPPA, &b, 1e-10, 1000);
    println!(
        "CG (normal equations): {} iterations, residual {:.2e}",
        cg.iterations, cg.final_residual
    );
    let (x_bi, bi) = qcd::bicgstab(&gauge, KAPPA, &b, 1e-10, 1000);
    println!(
        "BiCGStab:              {} iterations, residual {:.2e}",
        bi.iterations, bi.final_residual
    );
    assert!(cg.converged && bi.converged);

    // Verify: M x == b for both solvers.
    for (name, x) in [("CG", &x_cg), ("BiCGStab", &x_bi)] {
        let mut r = b.clone();
        r.sub_assign(&wilson_m(&gauge, KAPPA, x));
        println!(
            "verified {name}: ||b - M x|| / ||b|| = {:.2e}",
            r.norm_sqr().sqrt() / b.norm_sqr().sqrt()
        );
    }

    // Distributed Dslash through the offloaded simulated MPI.
    println!("\n== distributed Dslash (2 ranks, offload approach, real data) ==");
    let psi = FermionField::random(DIMS, &mut rng);
    let expect = dslash(&gauge, &psi);
    let gauge = Rc::new(gauge);
    let psi = Rc::new(psi);
    let expect = Rc::new(expect);
    let plane = DIMS[0] * DIMS[1] * DIMS[2];
    let lt = DIMS[3] / 2;
    let (errs, virtual_ns) = run_approach(
        2,
        MachineProfile::xeon(),
        Approach::Offload,
        false,
        move |comm: Comm| {
            let gauge = gauge.clone();
            let psi = psi.clone();
            let expect = expect.clone();
            async move {
                let t0 = comm.rank() * lt;
                let local = psi.data[t0 * plane..(t0 + lt) * plane].to_vec();
                let out = dslash_slab(&comm, &gauge, DIMS, &local, t0, lt).await;
                let site = SiteIndex::new(DIMS);
                let mut err: f64 = 0.0;
                for (i, got) in out.iter().enumerate() {
                    let c = SiteIndex::new([DIMS[0], DIMS[1], DIMS[2], lt]).coords(i);
                    let gi = site.index([c[0], c[1], c[2], c[3] + t0]);
                    err += got.sub(&expect.data[gi]).norm_sqr();
                }
                err
            }
        },
    );
    for (r, e) in errs.iter().enumerate() {
        println!("rank {r}: deviation from single-rank reference = {e:.3e}");
        assert!(*e < 1e-20);
    }
    println!("virtual exchange+compute time: {} ns", virtual_ns);
    println!("\nAll checks passed.");
}
