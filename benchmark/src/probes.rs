//! Isolated single-thread probes of single layers, run by the traced run
//! after the workload's offload thread is gone. Each is timed in batches
//! of [`BATCH`] operations (never one call per clock pair) and reported as
//! the median batch.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use offload::{nbc_plan, CollKind, Dtype, LaneSet, MpmcQueue, ReduceOp, RequestPool};
use rtmpi::Transport;
use wire::loopback_configured;
use wire::proto::{FrameKind, Header};
use wire::regpool::RegPool;

use crate::metrics::Values;
use crate::round::{run_round, Meter};
use crate::shapes::{Shape, ALLREDUCE_BYTES, ALLTOALL_BLOCK};
use crate::stats;
use crate::workloads::{direct_shape, wire_config, Kind};

/// Operations per timed batch.
pub const BATCH: usize = 4096;

/// Median nanoseconds per operation over `reps` batches of `f`, which
/// performs [`BATCH`] operations per call.
fn ns_per_op(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily built state
    let per_batch: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    stats::median(&per_batch)
}

/// The burst an offload thread drains at once (`DRAIN_BUDGET`).
const BURST: usize = 64;

fn lane_push_drain(reps: usize) -> f64 {
    let lanes: LaneSet<u64> = LaneSet::new(8, 1024, 1024);
    ns_per_op(reps, || {
        for b in 0..BATCH / BURST {
            for i in 0..BURST {
                lanes.push_blocking((b * BURST + i) as u64);
            }
            let mut sum = 0;
            lanes.drain(BURST, |v| sum += v);
            black_box(sum);
        }
    })
}

fn queue_push_pop(reps: usize) -> f64 {
    let q: MpmcQueue<u64> = MpmcQueue::with_capacity(1024);
    ns_per_op(reps, || {
        for b in 0..BATCH / BURST {
            for i in 0..BURST {
                let _ = q.push((b * BURST + i) as u64);
            }
            while let Some(v) = q.pop() {
                black_box(v);
            }
        }
    })
}

fn pool_alloc_complete_take(reps: usize) -> f64 {
    let pool: RequestPool<u64> = RequestPool::with_capacity(1024);
    ns_per_op(reps, || {
        for i in 0..BATCH {
            let h = pool.alloc().expect("pool has room");
            pool.complete(h, i as u64);
            black_box(pool.wait_take(h));
        }
    })
}

/// One posted receive matched by one send on a bare in-process pair.
fn rtmpi_match(reps: usize) -> f64 {
    let mut world = rtmpi::world(2);
    let data: Arc<[u8]> = Arc::from(vec![7u8; 8]);
    let (a, b) = world.split_at_mut(1);
    let (w0, w1) = (&mut a[0], &mut b[0]);
    ns_per_op(reps, || {
        for _ in 0..BATCH {
            let rx = Transport::irecv(w1, Some(0), Some(3));
            let tx = Transport::isend(w0, 1, 3, data.clone());
            black_box(w0.try_take(&tx));
            black_box(w1.try_take(&rx));
        }
    })
}

fn regpool_lease_recycle(reps: usize) -> f64 {
    let pool = RegPool::default();
    pool.prime(1);
    ns_per_op(reps, || {
        for _ in 0..BATCH {
            let buf = pool.lease(1024);
            pool.recycle(black_box(buf));
        }
    })
}

fn header_codec(reps: usize) -> f64 {
    ns_per_op(reps, || {
        for i in 0..BATCH {
            let hdr = Header {
                kind: FrameKind::Eager,
                src: 1,
                tag: i as u32,
                xid: 0,
                len: 1024,
            };
            let bytes = black_box(hdr.encode());
            black_box(Header::decode(&bytes).expect("own encoding decodes"));
        }
    })
}

/// Copies per batch in the memcpy baseline.
const COPIES: usize = 16;

/// Nanoseconds to `memcpy` 256 KiB on this machine, now.
fn memcpy_256k_ns(reps: usize) -> f64 {
    let src = vec![0x5au8; 256 * 1024];
    let mut dst = vec![0u8; 256 * 1024];
    // `ns_per_op` divides by BATCH; scale back to one copy.
    ns_per_op(reps, || {
        for _ in 0..COPIES {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
    }) * BATCH as f64
        / COPIES as f64
}

fn shmring_push_pop_1k(reps: usize) -> f64 {
    let (mut tx, mut rx, _mem) = shmring::heap_ring(128, 16 * 1024);
    let msg = vec![0xc3u8; 1024];
    let mut out = Vec::with_capacity(16 * 1024);
    ns_per_op(reps, || {
        for _ in 0..BATCH {
            assert!(tx.try_push(&msg));
            out.clear();
            black_box(rx.try_pop(&mut out));
        }
    })
}

/// Nanoseconds to stream 256 KiB through 16 KiB slots, one thread.
fn shmring_stream_256k_ns(reps: usize) -> f64 {
    let (mut tx, mut rx, _mem) = shmring::heap_ring(128, 16 * 1024);
    let src = vec![0x3cu8; 256 * 1024];
    let mut out = Vec::with_capacity(256 * 1024);
    ns_per_op(reps, || {
        for _ in 0..COPIES {
            out.clear();
            for chunk in src.chunks(16 * 1024) {
                assert!(tx.try_push(chunk));
            }
            while let shmring::Pop::Got(_) = rx.try_pop(&mut out) {}
            black_box(&out);
        }
    }) * BATCH as f64
        / COPIES as f64
}

/// Compiling the workload's two collectives into round schedules at
/// p = 4, including the hand-over of their input buffers.
fn nbc_plan_pair(reps: usize) -> f64 {
    let reduce_in = vec![0u8; ALLREDUCE_BYTES];
    let a2a_in = vec![0u8; 4 * ALLTOALL_BLOCK];
    const PLANS: usize = 256;
    ns_per_op(reps, || {
        for _ in 0..PLANS / 2 {
            black_box(nbc_plan(
                4,
                0,
                CollKind::Allreduce {
                    dtype: Dtype::F64,
                    op: ReduceOp::Sum,
                    data: reduce_in.clone(),
                },
            ));
            black_box(nbc_plan(
                4,
                0,
                CollKind::Alltoall {
                    input: a2a_in.clone(),
                    block: ALLTOALL_BLOCK,
                },
            ));
        }
    }) * BATCH as f64
        / PLANS as f64
}

/// One `progress()` on a bare engine with nothing pending, `n` ranks.
fn progress_idle(n: usize, reps: usize) -> f64 {
    let mut world = loopback_configured(n, wire_config(false));
    ns_per_op(reps, || {
        for _ in 0..BATCH {
            black_box(world[0].progress());
        }
    })
}

/// Median round, in microseconds, of `shape` driven for `seconds`.
/// `None` when a round hung or an operation failed.
pub fn direct_round_us(mut shape: Box<dyn Shape>, seconds: f64) -> Option<f64> {
    let mut meter = Meter::new(1 << 16);
    for round in 0..32 {
        run_round(shape.as_mut(), round, &mut meter).ok()?;
    }
    meter.reset();
    let t0 = Instant::now();
    let mut round = 32;
    while t0.elapsed().as_secs_f64() < seconds || meter.round_ns.len() < 64 {
        run_round(shape.as_mut(), round, &mut meter).ok()?;
        round += 1;
    }
    (shape.settle() && shape.tally().failed == 0)
        .then(|| stats::quantile(&mut meter.round_ns, 0.5) / 1e3)
}

/// Run every probe and file the results. `round_us` is the workload's
/// own median round; a smoke run shortens the probes. Returns `false` when
/// a comparison round failed.
pub fn run_all(kind: Kind, seed: u64, smoke: bool, round_us: f64, values: &mut Values) -> bool {
    let reps = if smoke { 3 } else { 9 };
    let secs = if smoke { 0.05 } else { 0.25 };
    values.set("lane.push_drain_ns", lane_push_drain(reps));
    values.set("queue.push_pop_ns", queue_push_pop(reps));
    values.set(
        "pool.alloc_complete_take_ns",
        pool_alloc_complete_take(reps),
    );
    values.set("rtmpi.match_ns", rtmpi_match(reps));
    values.set("regpool.lease_recycle_ns", regpool_lease_recycle(reps));
    values.set("proto.header_codec_ns", header_codec(reps));
    values.set("shmring.push_pop_ns.1KiB", shmring_push_pop_1k(reps));
    values.set("nbc.plan_ns", nbc_plan_pair(reps));
    values.set("engine.progress_idle_ns.n2", progress_idle(2, reps));
    values.set("engine.progress_idle_ns.n4", progress_idle(4, reps));
    let copy_ns = memcpy_256k_ns(reps);
    let mb = 256.0 * 1024.0 / 1e6;
    values.set("memcpy_MBps.256KiB", mb / (copy_ns / 1e9));
    values.set(
        "shmring.stream_MBps.256KiB",
        mb / (shmring_stream_256k_ns(reps) / 1e9),
    );
    // How many 256 KiB copies' worth of time one delivered round costs.
    values.set(
        "bulk.memcpy_equiv",
        match kind {
            Kind::Exchange { len, active, .. } => {
                let delivered = (2 * len * active) as f64;
                round_us * 1e3 / (copy_ns * delivered / (256.0 * 1024.0))
            }
            _ => 0.0,
        },
    );

    let mut ok = true;
    let mut direct = |shape: Box<dyn Shape>| {
        direct_round_us(shape, secs).unwrap_or_else(|| {
            ok = false;
            0.0
        })
    };
    let engine = direct(direct_shape(kind, seed, false));
    let baseline = match kind {
        Kind::Exchange { slices, .. } if slices > 0 => direct(direct_shape(kind, seed, true)),
        // Without a compute phase there is nothing to withhold polls from.
        _ => engine,
    };
    let nbc = match kind {
        Kind::CollMix => engine,
        _ => direct(direct_shape(Kind::CollMix, seed, false)),
    };
    values.set("engine.direct_round_us", engine);
    values.set("direct.baseline_round_us", baseline);
    values.set("nbc.direct_round_us", nbc);
    ok
}
