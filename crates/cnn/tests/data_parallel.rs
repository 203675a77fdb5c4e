//! Data-parallel training correctness: two ranks each compute gradients on
//! half the minibatch, all-reduce the real gradient bytes through the
//! simulated MPI, and must end up with exactly the same weights as a
//! single-rank run on the full minibatch.

use approaches::{run_approach, Approach, Comm};
use cnn::network::{synthetic_batch, SmallCnn};
use mpisim::{Bytes, Dtype, ReduceOp};
use numeric::SplitMix64;
use std::rc::Rc;

fn f32s_to_bytes(xs: &[f32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte lane")))
        .collect()
}

/// Single-rank reference: train on the full batch for `steps`.
fn reference_weights(steps: usize) -> Vec<f32> {
    let mut rng = SplitMix64::new(31337);
    let mut net = SmallCnn::new(1, 8, 8, 2, 4, &mut rng);
    let mut data_rng = SplitMix64::new(555);
    for _ in 0..steps {
        let (x, labels) = synthetic_batch(8, 8, 8, &mut data_rng);
        net.zero_grad();
        let _ = net.forward_backward(&x, &labels);
        // Mean gradient over the "global" batch (already mean inside
        // softmax_xent) — sum-allreduce over p ranks each carrying a 1/p
        // share corresponds to sum of per-rank means weighted by share.
        net.sgd_step(0.05);
    }
    let mut w = net.conv.weight.data.clone();
    w.extend_from_slice(&net.fc.weight.data);
    w
}

fn distributed_weights(approach: Approach, steps: usize) -> Vec<Vec<f32>> {
    let p = 2;
    // Pre-generate the same batches as the reference, split across ranks.
    let mut data_rng = SplitMix64::new(555);
    let mut batches = Vec::new();
    for _ in 0..steps {
        batches.push(synthetic_batch(8, 8, 8, &mut data_rng));
    }
    let batches = Rc::new(batches);
    let (outs, _) = run_approach(
        p,
        simnet::MachineProfile::xeon(),
        approach,
        false,
        move |comm: Comm| {
            let batches = batches.clone();
            async move {
                let r = comm.rank();
                // Identical initialization on every rank (same seed).
                let mut rng = SplitMix64::new(31337);
                let mut net = SmallCnn::new(1, 8, 8, 2, 4, &mut rng);
                for (x, labels) in batches.iter() {
                    // Each rank takes its half of the batch.
                    let n = x.shape[0];
                    let half = n / 2;
                    let mut local = cnn::Tensor::zeros([half, 1, 8, 8]);
                    let stride = x.data.len() / n;
                    local
                        .data
                        .copy_from_slice(&x.data[r * half * stride..(r + 1) * half * stride]);
                    let local_labels = labels[r * half..(r + 1) * half].to_vec();
                    net.zero_grad();
                    let _ = net.forward_backward(&local, &local_labels);
                    // Average the two half-batch mean gradients: sum then
                    // halve equals the full-batch mean.
                    let g = net.gradients();
                    let reduced = comm
                        .allreduce(Bytes::real(f32s_to_bytes(&g)), Dtype::F32, ReduceOp::Sum)
                        .await;
                    let mut summed = bytes_to_f32s(&reduced.to_vec());
                    for v in summed.iter_mut() {
                        *v *= 0.5;
                    }
                    net.set_gradients(&summed);
                    net.sgd_step(0.05);
                }
                let mut w = net.conv.weight.data.clone();
                w.extend_from_slice(&net.fc.weight.data);
                w
            }
        },
    );
    outs
}

fn check(approach: Approach) {
    let steps = 4;
    let reference = reference_weights(steps);
    let distributed = distributed_weights(approach, steps);
    // Both ranks converge to identical weights...
    assert_eq!(distributed[0].len(), distributed[1].len());
    for (a, b) in distributed[0].iter().zip(&distributed[1]) {
        assert!((a - b).abs() < 1e-6, "ranks disagree: {a} vs {b}");
    }
    // ...matching the single-rank full-batch reference.
    let mut max_err = 0.0f32;
    for (a, b) in distributed[0].iter().zip(&reference) {
        max_err = max_err.max((a - b).abs());
    }
    assert!(
        max_err < 1e-4,
        "{}: distributed weights deviate from reference by {max_err}",
        approach.name()
    );
}

#[test]
fn data_parallel_training_matches_reference_baseline() {
    check(Approach::Baseline);
}

#[test]
fn data_parallel_training_matches_reference_offload() {
    check(Approach::Offload);
}

#[test]
fn data_parallel_training_matches_reference_commself() {
    check(Approach::CommSelf);
}
