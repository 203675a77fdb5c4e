//! End-to-end: the distributed FFT (blocking and pipelined variants)
//! carrying real complex data through the simulated MPI must match the
//! local reference transform under every approach.

use approaches::{run_approach, Approach, Comm};
use fft1d::dist::{fft_dist, fft_dist_pipelined, gather_natural, scatter_natural, DistPlan};
use fft1d::local::{fft, max_rel_error};
use numeric::{Complex, Complex64, SplitMix64};
use std::rc::Rc;

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Complex::new(rng.next_gaussian(), rng.next_gaussian()))
        .collect()
}

/// Run the distributed transform and compare the gathered natural-order
/// spectrum against the local reference FFT.
fn check_dist(approach: Approach, n1: usize, n2: usize, p: usize, segments: Option<usize>) {
    let plan = DistPlan::new(n1, n2, p);
    let x = signal(plan.n(), 1000 + n1 as u64 + n2 as u64);
    let mut want = x.clone();
    fft(&mut want);
    let locals = Rc::new(scatter_natural(&plan, &x));
    let (outs, _) = run_approach(
        p,
        simnet::MachineProfile::xeon(),
        approach,
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
    assert!(
        err < 1e-9,
        "{} {n1}x{n2} over {p} ranks (segments {segments:?}): err {err}",
        approach.name()
    );
}

#[test]
fn blocking_transform_matches_reference_small() {
    check_dist(Approach::Baseline, 8, 8, 2, None);
    check_dist(Approach::Baseline, 16, 8, 4, None);
}

#[test]
fn blocking_transform_matches_reference_rectangular() {
    check_dist(Approach::Baseline, 8, 32, 4, None);
    check_dist(Approach::Baseline, 32, 8, 8, None);
}

#[test]
fn pipelined_transform_matches_reference() {
    check_dist(Approach::Baseline, 16, 16, 4, Some(2));
    check_dist(Approach::Baseline, 16, 16, 4, Some(4));
    check_dist(Approach::Baseline, 32, 16, 4, Some(8));
}

#[test]
fn pipelined_transform_under_offload() {
    check_dist(Approach::Offload, 16, 16, 4, Some(4));
}

#[test]
fn blocking_transform_under_offload_and_commself() {
    check_dist(Approach::Offload, 16, 8, 4, None);
    check_dist(Approach::CommSelf, 16, 8, 4, None);
}

#[test]
fn pipelined_equals_blocking_exactly() {
    // Same decomposition, same data: both code paths are the same math.
    let plan = DistPlan::new(16, 16, 4);
    let x = signal(plan.n(), 77);
    let locals = Rc::new(scatter_natural(&plan, &x));
    let collect = |segments: Option<usize>| {
        let locals = locals.clone();
        let (outs, _) = run_approach(
            4,
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
        outs
    };
    let a = collect(None);
    let b = collect(Some(4));
    for (ra, rb) in a.iter().zip(&b) {
        assert!(max_rel_error(ra, rb) < 1e-12);
    }
}

#[test]
fn single_rank_dist_fft_degenerates_to_local() {
    check_dist(Approach::Baseline, 8, 16, 1, None);
    check_dist(Approach::Baseline, 8, 16, 1, Some(2));
}

#[test]
fn layout_scatter_gather_are_inverse_permutations() {
    let plan = DistPlan::new(8, 16, 4);
    let x = signal(plan.n(), 5);
    // scatter by input layout then gather by *output* layout is not an
    // identity (the layouts differ) — but scatter must partition all
    // elements exactly once.
    let parts = scatter_natural(&plan, &x);
    let total: usize = parts.iter().map(Vec::len).sum();
    assert_eq!(total, plan.n());
    let mut seen: Vec<Complex64> = parts.into_iter().flatten().collect();
    let mut orig = x.clone();
    let key = |c: &Complex64| (c.re.to_bits(), c.im.to_bits());
    seen.sort_by_key(key);
    orig.sort_by_key(key);
    assert_eq!(seen.len(), orig.len());
    for (a, b) in seen.iter().zip(&orig) {
        assert_eq!(key(a), key(b));
    }
}
