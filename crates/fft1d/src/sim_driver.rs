//! Discrete-event performance driver for the distributed FFT (paper §5.2:
//! Table 2 and Figure 13).
//!
//! Models the segmented, pipelined low-communication FFT (SOI-style [32]):
//! per iteration each rank row-FFTs its segments, posts each segment's
//! all-to-all as soon as it is ready, overlaps remaining compute with the
//! exchanges, then performs the column FFTs. The *same* driver runs under
//! every approach; only the progress/concurrency strategy differs. Phase
//! accounting follows Table 2: internal compute / post / wait / misc.

use std::cell::RefCell;
use std::rc::Rc;

use approaches::{Approach, Comm, CommReq, SimColl};
use mpisim::Bytes;
use simnet::MachineProfile;
use team::Team;

use crate::local::fft_flops;
use qcd::PhaseTimes;

/// Experiment configuration for one weak-scaling point.
#[derive(Clone, Debug)]
pub struct FftConfig {
    /// Complex points per node (paper: 2^29 on Xeon, 2^25 on Xeon Phi).
    pub points_per_node: usize,
    pub nodes: usize,
    /// Pipeline segments (SOI-style).
    pub segments: usize,
    pub iterations: usize,
    /// Extra compute factor of the low-communication algorithm
    /// (oversampling — SOI trades computation for communication).
    pub compute_overhead: f64,
    /// Fraction of the machine's dense-compute rate the FFT sustains.
    /// FFTs are memory-bound: ~0.35 of peak on Xeon, and far less on the
    /// in-order Xeon Phi (~0.08) — this is what makes the paper's Phi FFT
    /// compute-dominated and its offload gains large (Fig 13b).
    pub fft_efficiency: f64,
}

impl FftConfig {
    pub fn xeon_weak(nodes: usize) -> Self {
        Self {
            points_per_node: 1 << 29,
            nodes,
            segments: 4,
            iterations: 2,
            compute_overhead: 1.25,
            fft_efficiency: 0.35,
        }
    }

    pub fn phi_weak(nodes: usize) -> Self {
        Self {
            points_per_node: 1 << 25,
            nodes,
            segments: 4,
            iterations: 2,
            compute_overhead: 1.25,
            fft_efficiency: 0.08,
        }
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct FftReport {
    pub approach: Approach,
    pub nodes: usize,
    pub ranks: usize,
    /// Mean per-iteration phase split on rank 0 (Table 2).
    pub phases: PhaseTimes,
    /// Sustained GFLOP/s for the whole machine (5 N log2 N convention).
    pub gflops: f64,
}

/// Run the segmented distributed FFT under one approach.
pub fn run_fft(profile: MachineProfile, approach: Approach, cfg: &FftConfig) -> FftReport {
    let ranks = cfg.nodes * profile.ranks_per_node;
    let n_total = cfg.points_per_node * cfg.nodes;
    let n_local = n_total / ranks;
    let cfg = Rc::new(cfg.clone());
    let profile2 = profile.clone();
    let cfg2 = cfg.clone();
    let (outs, elapsed) = approaches::run_approach(ranks, profile, approach, false, move |comm| {
        let cfg = cfg2.clone();
        let profile = profile2.clone();
        async move { rank_driver(comm, cfg, profile, n_local).await }
    });
    let phases = outs[0];
    let useful = fft_flops(n_total) * cfg.iterations as f64;
    FftReport {
        approach,
        nodes: cfg.nodes,
        ranks,
        phases,
        gflops: useful / elapsed as f64,
    }
}

async fn rank_driver(
    comm: Comm,
    cfg: Rc<FftConfig>,
    profile: MachineProfile,
    n_local: usize,
) -> PhaseTimes {
    let env = comm.env().clone();
    let p = comm.size();
    let team_size = (profile.cores_per_rank - comm.approach().dedicated_cores()).max(1);
    let team = Team::new(env.clone(), team_size);
    let n_total = n_local * p;
    // Split 5 N log N into the row and column halves of the transpose
    // algorithm; the low-communication variant pays `compute_overhead` on
    // the row side.
    let log_total = (n_total as f64).log2();
    let row_frac = 0.5 * cfg.compute_overhead;
    let col_frac = 0.5;
    let eff = cfg.fft_efficiency.clamp(0.01, 1.0);
    let row_flops = 5.0 * n_local as f64 * log_total * row_frac / eff;
    let col_flops = 5.0 * n_local as f64 * log_total * col_frac / eff;
    let row_core_ns = profile.compute_ns_f64(row_flops, 1);
    let col_core_ns = profile.compute_ns_f64(col_flops, 1);
    // Reassembly/copy traffic: the whole local volume is written once on
    // pack and once on unpack (16 B/point).
    let copy_core_ns = profile.copy_ns(n_local * 16 * 2, 1);
    let segments = cfg.segments.max(1);
    let seg_block = n_local * 16 / segments / p; // per-destination bytes
    let iters = cfg.iterations;

    let times: Rc<RefCell<PhaseTimes>> = Rc::new(RefCell::new(PhaseTimes::default()));
    let comm2 = comm.clone();
    let times2 = times.clone();
    team.parallel(move |ctx| {
        let comm = comm2.clone();
        let times = times2.clone();
        async move {
            let env = ctx.env().clone();
            for _ in 0..iters {
                let t_iter = env.now();
                let mut t_post = 0;
                let mut t_internal = 0;
                let mut reqs: Vec<CommReq> = Vec::new();
                // Pipeline: per segment, compute rows then post exchange.
                for _ in 0..segments {
                    let t0 = env.now();
                    ctx.compute_share(row_core_ns / segments as u64).await;
                    if ctx.is_master() {
                        comm.progress_hint().await;
                    }
                    ctx.barrier().await;
                    t_internal += env.now() - t0;
                    if ctx.is_master() {
                        let t0 = env.now();
                        let input = Bytes::synthetic(seg_block * p);
                        let block = seg_block;
                        reqs.push(comm.icollective(SimColl::Alltoall { input, block }).await);
                        t_post += env.now() - t0;
                    }
                }
                // Drain the pipeline.
                let mut t_wait = 0;
                if ctx.is_master() {
                    let t0 = env.now();
                    comm.waitall(&reqs).await;
                    t_wait = env.now() - t0;
                }
                ctx.barrier().await;
                // Column FFTs + reassembly copies.
                ctx.compute_share(col_core_ns + copy_core_ns).await;
                ctx.barrier().await;
                if ctx.is_master() {
                    let total = env.now() - t_iter;
                    let mut t = times.borrow_mut();
                    t.internal += t_internal;
                    t.post += t_post;
                    t.wait += t_wait;
                    t.misc += total - t_internal - t_post - t_wait;
                    t.total += total;
                }
            }
        }
    })
    .await;
    let acc = *times.borrow();
    acc.scaled(1.0 / iters as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(nodes: usize) -> FftConfig {
        FftConfig {
            points_per_node: 1 << 22,
            nodes,
            segments: 4,
            iterations: 2,
            compute_overhead: 1.25,
            fft_efficiency: 0.35,
        }
    }

    #[test]
    fn offload_reduces_post_time_table2() {
        let base = run_fft(MachineProfile::xeon(), Approach::Baseline, &tiny(4));
        let offl = run_fft(MachineProfile::xeon(), Approach::Offload, &tiny(4));
        assert!(
            offl.phases.post * 5 < base.phases.post,
            "offload post {} vs baseline {}",
            offl.phases.post,
            base.phases.post
        );
    }

    #[test]
    fn offload_reduces_wait_time_table2() {
        let base = run_fft(MachineProfile::xeon(), Approach::Baseline, &tiny(4));
        let offl = run_fft(MachineProfile::xeon(), Approach::Offload, &tiny(4));
        assert!(
            offl.phases.wait < base.phases.wait,
            "offload wait {} vs baseline {}",
            offl.phases.wait,
            base.phases.wait
        );
        assert!(offl.gflops > base.gflops);
    }

    #[test]
    fn weak_scaling_keeps_internal_compute_flat() {
        let a = run_fft(MachineProfile::xeon(), Approach::Offload, &tiny(2));
        let b = run_fft(MachineProfile::xeon(), Approach::Offload, &tiny(8));
        let ratio = b.phases.internal as f64 / a.phases.internal as f64;
        assert!(
            (0.7..1.6).contains(&ratio),
            "internal compute should stay roughly flat under weak scaling, got ratio {ratio}"
        );
    }
}
