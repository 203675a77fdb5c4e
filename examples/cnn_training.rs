//! CNN training end-to-end: train the small gradient-checked CNN on the
//! synthetic quadrant task, single-rank and data-parallel over two
//! simulated ranks (real gradients all-reduced through the offloaded MPI),
//! and confirm both reach the same accuracy.
//!
//! Run: `cargo run --release --example cnn_training`
//!
//! **Multi-process mode:** under the wire launcher each rank is an OS
//! process over real Unix-domain sockets running data-parallel SGD with
//! the gradient all-reduce as an NBC schedule through the live
//! strategies: `offload-run -n 4 cnn_training` (see `cnn::live_driver`).

use approaches::{run_approach, Approach, Comm};
use cnn::network::{synthetic_batch, SmallCnn};
use cnn::Tensor;
use mpisim::{Bytes, Dtype, ReduceOp};
use numeric::SplitMix64;
use std::rc::Rc;

const STEPS: usize = 40;
const BATCH: usize = 16;
const LR: f32 = 0.1;

/// Training steps for the multi-process run — enough to catch replica
/// divergence, short enough for a smoke lane.
const WIRE_STEPS: usize = 8;

/// One rank of the multi-process run (we are inside `offload-run`):
/// train data-parallel replicas over every live strategy on the same
/// socket mesh, check the replicas stay synchronized, then run the
/// fig-3-style gradient-allreduce overlap panel.
fn wire_main() {
    use cnn::live_driver;
    let transport = match wire::from_env() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cnn_training: wire bootstrap failed: {e}");
            std::process::exit(2);
        }
    };
    use rtmpi::Transport as _;
    let (rank, size) = (transport.rank(), transport.size());
    assert!(size >= 2, "data-parallel training needs at least 2 ranks");

    // Correctness: every strategy trains the same replicas to (nearly)
    // the same weights — reductions may reassociate, nothing more.
    let mut t = transport;
    for approach in approaches::live::LiveApproach::ALL {
        let mut comm = approaches::live::LiveComm::start(approach, t);
        let net = live_driver::train_data_parallel_live(&mut comm, WIRE_STEPS, LR)
            .expect("data-parallel training");
        let spread = live_driver::weight_spread(&mut comm, &net).expect("weight allgather");
        assert!(
            spread < 1e-3,
            "{} replicas diverged: weight-checksum spread {spread:e}",
            approach.name()
        );
        if rank == 0 {
            println!(
                "{:8}: {} steps x {} ranks, replica weight spread {spread:.2e}",
                approach.name(),
                WIRE_STEPS,
                size
            );
        }
        t = comm.finalize();
    }

    // Overlap panel: the step-0 gradient reduction with forward/backward
    // passes inserted.
    harness::run_overlap_panel(
        t,
        "cnn_wire",
        "§5.3 data-parallel gradient allreduce over the socket wire (rank 0)",
        &format!("\n== gradient allreduce overlap over the wire, {size} ranks =="),
        live_driver::nbc_overlap_panel,
    );
    println!("rank {rank} ok");
}

fn accuracy(net: &SmallCnn, rng: &mut SplitMix64) -> f64 {
    let (x, labels) = synthetic_batch(128, 8, 8, rng);
    let pred = net.predict(&x);
    pred.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / 128.0
}

fn main() {
    if wire::is_wire_process() {
        return wire_main();
    }
    println!("== CNN training on the synthetic quadrant task ==\n");

    // Single-rank reference run.
    let mut rng = SplitMix64::new(90210);
    let mut net = SmallCnn::new(1, 8, 8, 4, 4, &mut rng);
    let mut data_rng = SplitMix64::new(42);
    let mut first = 0.0;
    let mut last = 0.0;
    for step in 0..STEPS {
        let (x, labels) = synthetic_batch(BATCH, 8, 8, &mut data_rng);
        net.zero_grad();
        let loss = net.forward_backward(&x, &labels);
        net.sgd_step(LR);
        if step == 0 {
            first = loss;
        }
        last = loss;
    }
    let mut eval_rng = SplitMix64::new(7);
    let acc = accuracy(&net, &mut eval_rng);
    println!(
        "single rank : loss {first:.3} -> {last:.3}, accuracy {:.1}%",
        acc * 100.0
    );

    // Data-parallel over two simulated ranks, gradients through the
    // offloaded all-reduce.
    let mut data_rng = SplitMix64::new(42);
    let batches: Rc<Vec<(Tensor, Vec<usize>)>> = Rc::new(
        (0..STEPS)
            .map(|_| synthetic_batch(BATCH, 8, 8, &mut data_rng))
            .collect(),
    );
    let (outs, _) = run_approach(
        2,
        simnet::MachineProfile::xeon(),
        Approach::Offload,
        false,
        move |comm: Comm| {
            let batches = batches.clone();
            async move {
                let mut rng = SplitMix64::new(90210);
                let mut net = SmallCnn::new(1, 8, 8, 4, 4, &mut rng);
                let half = BATCH / 2;
                let r = comm.rank();
                for (x, labels) in batches.iter() {
                    let stride = x.data.len() / BATCH;
                    let mut local = Tensor::zeros([half, 1, 8, 8]);
                    local
                        .data
                        .copy_from_slice(&x.data[r * half * stride..(r + 1) * half * stride]);
                    net.zero_grad();
                    let _ = net.forward_backward(&local, &labels[r * half..(r + 1) * half]);
                    let g = net.gradients();
                    let bytes: Vec<u8> = g.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let summed = comm
                        .allreduce(Bytes::real(bytes), Dtype::F32, ReduceOp::Sum)
                        .await;
                    let mut avg: Vec<f32> = summed
                        .to_vec()
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("lane")) * 0.5)
                        .collect();
                    net.set_gradients(&avg);
                    avg.clear();
                    net.sgd_step(LR);
                }
                let mut eval_rng = SplitMix64::new(7);
                accuracy(&net, &mut eval_rng)
            }
        },
    );
    println!(
        "data-parallel (2 offloaded ranks): accuracy {:.1}% / {:.1}%",
        outs[0] * 100.0,
        outs[1] * 100.0
    );
    assert!((outs[0] - acc).abs() < 1e-9, "data-parallel must match");
    assert!(acc > 0.75, "the task should be learned");
    println!("\nDistributed training matches the single-rank run exactly.");
}
