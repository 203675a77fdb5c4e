//! End-to-end correctness: the distributed Wilson-Dslash, with real spinor
//! payloads travelling through the simulated MPI (directly and via the
//! offload infrastructure), must match the single-rank reference operator
//! bit-for-bit-close.

use approaches::{run_approach, Approach, Comm};
use numeric::SplitMix64;
use qcd::dist::{decode_spinors, dslash_slab, encode_spinors};
use qcd::dslash::{dslash, FermionField, GaugeField};
use qcd::lattice::SiteIndex;
use simnet::MachineProfile;
use std::rc::Rc;

const DIMS: [usize; 4] = [4, 4, 4, 8];

fn reference() -> (GaugeField<f64>, FermionField<f64>, FermionField<f64>) {
    let mut rng = SplitMix64::new(2026);
    let gauge = GaugeField::random(DIMS, &mut rng);
    let psi = FermionField::random(DIMS, &mut rng);
    let d = dslash(&gauge, &psi);
    (gauge, psi, d)
}

fn run_distributed(approach: Approach, ranks: usize) {
    let [lx, ly, lz, gt] = DIMS;
    assert_eq!(gt % ranks, 0);
    let lt = gt / ranks;
    let plane = lx * ly * lz;
    let (gauge, psi, expect) = reference();
    let gauge = Rc::new(gauge);
    let psi = Rc::new(psi);
    let expect = Rc::new(expect);

    let (outs, _) = run_approach(
        ranks,
        MachineProfile::xeon(),
        approach,
        false,
        move |comm: Comm| {
            let gauge = gauge.clone();
            let psi = psi.clone();
            let expect = expect.clone();
            async move {
                let r = comm.rank();
                let t0 = r * lt;
                // My local slab of the global field.
                let local: Vec<_> = psi.data[t0 * plane..(t0 + lt) * plane].to_vec();
                let out = dslash_slab(&comm, &gauge, DIMS, &local, t0, lt).await;
                // Compare against the same slab of the reference result.
                let mut err: f64 = 0.0;
                let site = SiteIndex::new(DIMS);
                for (i, got) in out.iter().enumerate() {
                    let li = SiteIndex::new([lx, ly, lz, lt]).coords(i);
                    let gi = site.index([li[0], li[1], li[2], li[3] + t0]);
                    let d = got.sub(&expect.data[gi]);
                    err += d.norm_sqr();
                }
                err
            }
        },
    );
    for (r, err) in outs.iter().enumerate() {
        assert!(
            *err < 1e-20,
            "{} on {ranks} ranks: rank {r} deviates by {err}",
            approach.name()
        );
    }
}

#[test]
fn distributed_dslash_matches_reference_baseline_2_ranks() {
    run_distributed(Approach::Baseline, 2);
}

#[test]
fn distributed_dslash_matches_reference_baseline_4_ranks() {
    run_distributed(Approach::Baseline, 4);
}

#[test]
fn distributed_dslash_matches_reference_offload_2_ranks() {
    run_distributed(Approach::Offload, 2);
}

#[test]
fn distributed_dslash_matches_reference_offload_4_ranks() {
    run_distributed(Approach::Offload, 4);
}

#[test]
fn distributed_dslash_matches_reference_commself_2_ranks() {
    run_distributed(Approach::CommSelf, 2);
}

#[test]
fn distributed_dslash_matches_reference_iprobe_8_ranks() {
    run_distributed(Approach::Iprobe, 8);
}

#[test]
fn single_rank_slab_equals_reference() {
    // p=1 path uses local periodic wrap-around, no communication.
    let (gauge, psi, expect) = reference();
    let (outs, _) = run_approach(
        1,
        MachineProfile::xeon(),
        Approach::Baseline,
        false,
        move |comm: Comm| {
            let gauge = gauge.clone();
            let psi = psi.clone();
            let expect = expect.clone();
            async move {
                let out = dslash_slab(&comm, &gauge, DIMS, &psi.data, 0, DIMS[3]).await;
                let mut err: f64 = 0.0;
                for (a, b) in out.iter().zip(&expect.data) {
                    err += a.sub(b).norm_sqr();
                }
                err
            }
        },
    );
    assert!(outs[0] < 1e-20);
}

#[test]
fn ghost_plane_payload_sizes_are_exact() {
    // Each ghost plane is lx*ly*lz spinors of 192 bytes.
    let mut rng = SplitMix64::new(7);
    let psi = FermionField::<f64>::random(DIMS, &mut rng);
    let plane = DIMS[0] * DIMS[1] * DIMS[2];
    let encoded = encode_spinors(&psi.data[..plane]);
    assert_eq!(encoded.len(), plane * 192);
    assert_eq!(decode_spinors(&encoded).len(), plane);
}
