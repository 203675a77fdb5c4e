//! Discrete-event driver for hybrid-parallel CNN training (Fig 14).
//!
//! Per training iteration (paper §5.3):
//!
//! * **Forward**: conv layers compute locally (data parallel over the
//!   minibatch); each FC layer performs a synchronized activation
//!   all-to-all (model parallel) before its compute.
//! * **Backward**: FC layers again exchange synchronously; conv layers
//!   compute their gradients and, as each layer finishes, its
//!   weight-gradient all-reduce is posted nonblocking — backpropagation of
//!   the earlier layers overlaps those reductions, which is the overlap
//!   opportunity the approaches exploit differently.
//! * **Update**: waits on the outstanding reductions, then applies SGD.

use std::rc::Rc;

use approaches::{Approach, Comm, CommReq, SimColl};
use destime::Nanos;
use mpisim::{Bytes, Dtype, ReduceOp};
use simnet::MachineProfile;
use team::Team;

use crate::model::{alexnet_like, total_fwd_flops_per_image, LayerKind, LayerSpec};

/// Configuration for one scaling point.
#[derive(Clone, Debug)]
pub struct CnnConfig {
    /// Global minibatch size (images per iteration).
    pub minibatch: usize,
    pub nodes: usize,
    pub iterations: usize,
}

impl CnnConfig {
    pub fn paper(nodes: usize) -> Self {
        Self {
            minibatch: 256,
            nodes,
            iterations: 3,
        }
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct CnnReport {
    pub approach: Approach,
    pub nodes: usize,
    pub ranks: usize,
    /// Training throughput.
    pub images_per_sec: f64,
    /// Mean iteration time.
    pub iter_ns: Nanos,
}

/// Run hybrid-parallel CNN training under one approach.
pub fn run_cnn(profile: MachineProfile, approach: Approach, cfg: &CnnConfig) -> CnnReport {
    let ranks = cfg.nodes * profile.ranks_per_node;
    let layers = Rc::new(alexnet_like());
    let cfg = Rc::new(cfg.clone());
    let profile2 = profile.clone();
    let layers2 = layers.clone();
    let cfg2 = cfg.clone();
    let (_, elapsed) = approaches::run_approach(ranks, profile, approach, false, move |comm| {
        let layers = layers2.clone();
        let cfg = cfg2.clone();
        let profile = profile2.clone();
        async move { rank_driver(comm, layers, cfg, profile).await }
    });
    let images = cfg.minibatch * cfg.iterations;
    CnnReport {
        approach,
        nodes: cfg.nodes,
        ranks,
        images_per_sec: images as f64 / (elapsed as f64 / 1e9),
        iter_ns: elapsed / cfg.iterations as u64,
    }
}

async fn rank_driver(
    comm: Comm,
    layers: Rc<Vec<LayerSpec>>,
    cfg: Rc<CnnConfig>,
    profile: MachineProfile,
) {
    let env = comm.env().clone();
    let p = comm.size();
    let team_size = (profile.cores_per_rank - comm.approach().dedicated_cores()).max(1);
    let team = Team::new(env.clone(), team_size);
    // Data parallelism: images split across ranks for conv layers.
    let local_images = (cfg.minibatch / p).max(1);
    let iters = cfg.iterations;
    // Model parallelism: FC activations are exchanged all-to-all; every
    // rank then computes its weight shard over the whole minibatch.
    let fc_images = cfg.minibatch;

    let comm2 = comm.clone();
    let layers2 = layers.clone();
    team.parallel(move |ctx| {
        let comm = comm2.clone();
        let layers = layers2.clone();
        let profile = profile.clone();
        async move {
            // Gradient reductions posted during backward complete lazily:
            // each conv layer's reduction is awaited just before that
            // layer's forward pass in the *next* iteration (paper §5.3:
            // backprop output feeds the next iteration's forward, creating
            // the cross-iteration overlap window).
            let mut pending: Vec<Option<CommReq>> = vec![None; layers.len()];
            for _ in 0..iters {
                // ---- forward ----
                for (li, l) in layers.iter().enumerate() {
                    match l.kind {
                        LayerKind::Conv => {
                            if ctx.is_master() {
                                if let Some(req) = pending[li].take() {
                                    comm.wait(&req).await;
                                }
                            }
                            let ns = profile.compute_ns_f32(l.flops_fwd(local_images), 1);
                            ctx.compute_share(ns).await;
                        }
                        LayerKind::Fc => {
                            ctx.barrier().await;
                            if ctx.is_master() && p > 1 {
                                // Synchronized activation exchange.
                                let total = l.activation_bytes_per_image * local_images;
                                let block = (total / p).max(1);
                                let _ = comm.alltoall(Bytes::synthetic(block * p), block).await;
                            }
                            ctx.barrier().await;
                            // Sharded weights: 1/p of the layer over the
                            // full minibatch.
                            let ns = profile.compute_ns_f32(l.flops_fwd(fc_images) / p as f64, 1);
                            ctx.compute_share(ns).await;
                        }
                    }
                }
                // ---- backward ----
                for (li, l) in layers.iter().enumerate().rev() {
                    match l.kind {
                        LayerKind::Fc => {
                            ctx.barrier().await;
                            if ctx.is_master() && p > 1 {
                                let total = l.activation_bytes_per_image * local_images;
                                let block = (total / p).max(1);
                                let _ = comm.alltoall(Bytes::synthetic(block * p), block).await;
                            }
                            ctx.barrier().await;
                            let ns = profile.compute_ns_f32(l.flops_bwd(fc_images) / p as f64, 1);
                            ctx.compute_share(ns).await;
                        }
                        LayerKind::Conv => {
                            let ns = profile.compute_ns_f32(l.flops_bwd(local_images), 1);
                            ctx.compute_share(ns).await;
                            if ctx.is_master() && p > 1 {
                                // Post this layer's gradient reduction; it
                                // has until this layer's forward in the
                                // next iteration to complete.
                                comm.progress_hint().await;
                                let grads = SimColl::Allreduce {
                                    data: Bytes::synthetic(l.weight_bytes),
                                    dtype: Dtype::F32,
                                    op: ReduceOp::Sum,
                                };
                                pending[li] = Some(comm.icollective(grads).await);
                            }
                        }
                    }
                }
                ctx.barrier().await;
                // SGD update: touch every parameter once (memory bound).
                let total_weights: usize = layers.iter().map(|l| l.weight_bytes).sum();
                ctx.compute_share(profile.copy_ns(total_weights, 1)).await;
                ctx.barrier().await;
            }
            // Drain the tail reductions of the final iteration.
            if ctx.is_master() {
                let tail: Vec<CommReq> = pending.iter_mut().filter_map(Option::take).collect();
                if !tail.is_empty() {
                    comm.waitall(&tail).await;
                }
            }
            ctx.barrier().await;
        }
    })
    .await;
}

/// Useful FLOPs per iteration for reporting.
pub fn flops_per_iteration(minibatch: usize) -> f64 {
    3.0 * total_fwd_flops_per_image(&alexnet_like()) * minibatch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_throughput_is_compute_bound() {
        let r = run_cnn(
            MachineProfile::xeon(),
            Approach::Baseline,
            &CnnConfig {
                minibatch: 64,
                nodes: 1,
                iterations: 2,
            },
        );
        assert!(r.images_per_sec > 0.0);
    }

    #[test]
    fn offload_matches_or_beats_baseline_at_scale() {
        let cfg = CnnConfig {
            minibatch: 256,
            nodes: 8,
            iterations: 2,
        };
        let base = run_cnn(MachineProfile::xeon(), Approach::Baseline, &cfg);
        let offl = run_cnn(MachineProfile::xeon(), Approach::Offload, &cfg);
        assert!(
            offl.images_per_sec >= base.images_per_sec * 0.95,
            "offload {} img/s vs baseline {} img/s",
            offl.images_per_sec,
            base.images_per_sec
        );
    }

    #[test]
    fn scaling_improves_throughput() {
        let mk = |nodes| CnnConfig {
            minibatch: 256,
            nodes,
            iterations: 2,
        };
        let one = run_cnn(MachineProfile::xeon(), Approach::Offload, &mk(1));
        let eight = run_cnn(MachineProfile::xeon(), Approach::Offload, &mk(8));
        assert!(
            eight.images_per_sec > one.images_per_sec * 2.0,
            "8 nodes {} img/s vs 1 node {} img/s",
            eight.images_per_sec,
            one.images_per_sec
        );
    }
}
