//! Criterion microbenchmarks of the *real* offload data structures — the
//! numbers that calibrate the DES cost model (`cmd_enqueue_ns`,
//! `pool_alloc_ns`, `done_check_ns`), plus the lock-free-vs-mutex ablation
//! for the command queue (DESIGN.md §6.1) and the submission lanes against
//! the shared ring at one producer (DESIGN.md §10).

use criterion::{criterion_group, criterion_main, Criterion};
use offload::{LaneSet, MpmcQueue, RequestPool};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Mutex;

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("command-queue");
    let q: MpmcQueue<u64> = MpmcQueue::with_capacity(1024);
    g.bench_function("lockfree-push-pop", |b| {
        b.iter(|| {
            q.push(black_box(7)).map_err(|_| ()).expect("room");
            black_box(q.pop())
        })
    });
    // The lanes at one producer, same thread on both ends: a push into the
    // thread's own SPSC ring, then the consumer's sweep over all eight
    // lanes and the overflow ring.
    let lanes: LaneSet<u64> = LaneSet::new(8, 1024, 1024);
    g.bench_function("lane-push-drain", |b| {
        b.iter(|| {
            lanes.push(black_box(7)).expect("room");
            black_box(lanes.drain(64, |v| {
                black_box(v);
            }))
        })
    });
    let m: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::with_capacity(1024));
    g.bench_function("mutex-push-pop", |b| {
        b.iter(|| {
            m.lock().expect("poisoned").push_back(black_box(7));
            black_box(m.lock().expect("poisoned").pop_front())
        })
    });
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("request-pool");
    let pool: RequestPool<u64> = RequestPool::with_capacity(256);
    g.bench_function("alloc-complete-take-free", |b| {
        b.iter(|| {
            let h = pool.alloc().expect("slot");
            pool.complete(h, black_box(3));
            let v = pool.take(h);
            pool.free(h);
            black_box(v)
        })
    });
    let h = pool.alloc().expect("slot");
    g.bench_function("done-flag-check", |b| b.iter(|| black_box(pool.is_done(h))));
    pool.free(h);
    // The malloc-based alternative the paper's array free-list avoids.
    g.bench_function("boxed-allocation-baseline", |b| {
        b.iter(|| {
            let v: Box<u64> = Box::new(black_box(3));
            black_box(v)
        })
    });
    g.finish();
}

fn bench_calibration_report(c: &mut Criterion) {
    // One-shot: print the calibration that feeds the DES profile.
    let cal = harness::calibrate(100_000);
    println!(
        "\n[calibration] queue push+pop = {:.1} ns, pool cycle = {:.1} ns, \
         done check = {:.2} ns (DES defaults: enqueue 70 ns, pool 25 ns, check 10 ns)\n",
        cal.queue_push_pop_ns, cal.pool_alloc_free_ns, cal.pool_done_check_ns
    );
    // Keep criterion happy with a trivial registered benchmark.
    c.bench_function("calibration-noop", |b| b.iter(|| black_box(1 + 1)));
}

criterion_group!(benches, bench_queue, bench_pool, bench_calibration_report);
criterion_main!(benches);
