//! Wire-backed CNN driver: data-parallel SGD with the gradient
//! all-reduce issued as an NBC schedule over a real
//! [`rtmpi::Transport`] (paper §5.3 lifted onto sockets).
//!
//! Every rank builds the same network (shared init seed), trains on its
//! own rank-seeded minibatches, and averages gradients through
//! [`LiveComm::allreduce`] each step — so the replicas stay synchronized
//! to floating-point reassociation error, which [`weight_spread`]
//! measures via an allgather of per-rank weight checksums. The overlap
//! panel re-issues one step's gradient reduction with forward/backward
//! passes as the inserted compute.

use approaches::live::{CollKind, LiveApproach, LiveComm};
use harness::{overlap_live, OverlapRow};
use mpisim::types::{Dtype, ReduceOp};
use numeric::SplitMix64;
use rtmpi::{Transport, TransportError};

use crate::network::{synthetic_batch, SmallCnn};

/// Panel/driver network: 16×16 inputs, 8 filters — 2132 parameters,
/// 8528 gradient bytes, comfortably in the rendezvous regime.
pub const IMG: usize = 16;
pub const FILTERS: usize = 8;
pub const CLASSES: usize = 4;
pub const BATCH: usize = 16;

const INIT_SEED: u64 = 0xcafe_2015;

/// The shared-initialization replica every rank starts from.
pub fn fresh_net() -> SmallCnn {
    let mut rng = SplitMix64::new(INIT_SEED);
    SmallCnn::new(1, IMG, IMG, FILTERS, CLASSES, &mut rng)
}

fn data_seed(rank: usize) -> u64 {
    0xdada_0000 ^ (rank as u64 + 1)
}

fn encode_f32(g: &[f32]) -> Vec<u8> {
    g.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte lane")))
        .collect()
}

/// Rank `r`'s gradient at training step `step`, starting from `net` —
/// deterministic, so any rank can recompute any other rank's
/// contribution for verification.
pub fn step_gradient(net: &mut SmallCnn, rank: usize, step: usize) -> Vec<f32> {
    let mut rng = SplitMix64::new(data_seed(rank).wrapping_add(step as u64 * 0x9e37));
    let (x, labels) = synthetic_batch(BATCH, IMG, IMG, &mut rng);
    net.zero_grad();
    net.forward_backward(&x, &labels);
    net.gradients()
}

/// One data-parallel training step over the live collective: local
/// gradient, f32-sum allreduce, average, apply. Returns the summed
/// gradient it applied (for cross-checking).
pub fn train_step_live<T: Transport>(
    comm: &mut LiveComm<T>,
    net: &mut SmallCnn,
    step: usize,
    lr: f32,
) -> Result<Vec<f32>, TransportError> {
    let size = comm.size();
    let mine = step_gradient(net, comm.rank(), step);
    let out = comm.allreduce(encode_f32(&mine), Dtype::F32, ReduceOp::Sum)?;
    let summed = decode_f32(&out);
    let avg: Vec<f32> = summed.iter().map(|g| g / size as f32).collect();
    net.set_gradients(&avg);
    net.sgd_step(lr);
    Ok(summed)
}

/// Train `steps` data-parallel steps; every rank ends with (nearly) the
/// same weights. Returns the trained replica.
pub fn train_data_parallel_live<T: Transport>(
    comm: &mut LiveComm<T>,
    steps: usize,
    lr: f32,
) -> Result<SmallCnn, TransportError> {
    let mut net = fresh_net();
    for step in 0..steps {
        train_step_live(comm, &mut net, step, lr)?;
    }
    Ok(net)
}

/// Flatten a replica's parameters (for divergence checks).
pub fn weights(net: &SmallCnn) -> Vec<f32> {
    let mut w = Vec::new();
    w.extend_from_slice(&net.conv.weight.data);
    w.extend_from_slice(&net.conv.bias);
    w.extend_from_slice(&net.fc.weight.data);
    w.extend_from_slice(&net.fc.bias);
    w
}

/// Allgather a weight checksum from every rank and return the maximum
/// absolute spread across replicas. Reduction results may differ per
/// rank only by reassociation, so after a short training run this stays
/// at floating-point-noise scale.
pub fn weight_spread<T: Transport>(
    comm: &mut LiveComm<T>,
    net: &SmallCnn,
) -> Result<f64, TransportError> {
    let sum: f64 = weights(net).iter().map(|w| *w as f64).sum();
    let all = comm.allgather(sum.to_le_bytes().to_vec())?;
    let sums: Vec<f64> = all
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte checksum")))
        .collect();
    let lo = sums.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = sums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok(hi - lo)
}

/// Run the fig-3-style NBC overlap measurement for one strategy: the
/// step-0 gradient allreduce, verified against locally recomputed
/// per-rank gradients, with forward/backward passes as the inserted
/// compute. Returns the measured row and the reclaimed transport.
pub fn nbc_overlap_panel<T: Transport>(
    approach: LiveApproach,
    transport: T,
    iters: usize,
) -> (OverlapRow, T) {
    let rank = transport.rank();
    let size = transport.size();
    let mine = step_gradient(&mut fresh_net(), rank, 0);
    let payload = encode_f32(&mine);
    // Any rank can rebuild every rank's step-0 gradient locally.
    let mut expected = vec![0.0f64; mine.len()];
    for r in 0..size {
        for (e, g) in expected
            .iter_mut()
            .zip(step_gradient(&mut fresh_net(), r, 0))
        {
            *e += g as f64;
        }
    }
    let mut compute_net = fresh_net();
    let mut compute_rng = SplitMix64::new(data_seed(rank) ^ 0xf00d);
    let (cx, clabels) = synthetic_batch(BATCH, IMG, IMG, &mut compute_rng);
    overlap_live(
        approach,
        transport,
        payload.len(),
        iters,
        |comm| {
            comm.icollective(CollKind::Allreduce {
                dtype: Dtype::F32,
                op: ReduceOp::Sum,
                data: payload.clone(),
            })
        },
        |comm, req| {
            let got = decode_f32(&comm.coll_wait(req).expect("gradient allreduce"));
            assert_eq!(got.len(), expected.len(), "gradient lane count");
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                // f32 lanes summed in schedule order vs reference order.
                let tol = 1e-4 * e.abs().max(1.0);
                assert!(
                    ((*g as f64) - e).abs() < tol,
                    "gradient lane {i}: got {g}, want {e}"
                );
            }
        },
        || {
            compute_net.zero_grad();
            std::hint::black_box(compute_net.forward_backward(&cx, &clabels));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_payload_is_rendezvous_sized() {
        let g = step_gradient(&mut fresh_net(), 0, 0);
        assert!(g.len() * 4 > 4096, "gradient bytes exceed eager crossover");
    }

    #[test]
    fn step_gradients_are_deterministic_and_rank_distinct() {
        let a = step_gradient(&mut fresh_net(), 1, 3);
        let b = step_gradient(&mut fresh_net(), 1, 3);
        assert_eq!(a, b, "same rank+step reproduces bitwise");
        let c = step_gradient(&mut fresh_net(), 2, 3);
        assert_ne!(a, c, "ranks see different data");
    }

    #[test]
    fn weights_roundtrip_through_gradient_layout() {
        let net = fresh_net();
        // weights() and gradients() flatten the same parameter layout.
        assert_eq!(weights(&net).len(), net.gradients().len());
    }
}
