//! Model-checked tests for the real offload core types.
//!
//! These run the actual `offload` crate code — `MpmcQueue`, `LaneSet`,
//! `RequestPool`, `WakeSignal`, all ported onto the `check` facade — under
//! the deterministic scheduler. Under `--cfg offload_model` every
//! interleaving within the preemption bound is explored and the
//! vector-clock detector validates every slot handoff; in a plain build the
//! same closures run once against std as ordinary smoke tests.
//!
//! Every blocking wait here uses [`WaitPolicy::no_backstop`], which makes
//! the park *untimed* in the model: a lost wakeup is then a deadlock the
//! checker reports with a replayable schedule, not a 1 ms hiccup the
//! timeout backstop would paper over.

use check::sync::atomic::{AtomicBool, Ordering};
use check::thread;
use offload::{BackoffMetrics, LaneSet, MpmcQueue, RequestPool, SpscRing, WaitPolicy, WakeSignal};
use std::sync::Arc;

/// A DFS budget for the two queue tests, whose retry loops give them a
/// schedule space too large to exhaust: a capped deterministic prefix of
/// the bounded-preemption tree still visits thousands of distinct
/// interleavings (including the park/wake paths) and keeps the whole
/// model lane well under its time budget. `OFFLOAD_MODEL_MAX_OPS` etc.
/// still apply on top via `apply_env`.
fn capped_dfs() -> check::Config {
    let mut cfg = check::Config::dfs();
    cfg.max_schedules = 2_000;
    cfg
}

/// The paper's command-queue handoff: a producer pushes through the
/// per-slot seq protocol (including the full→park→wake path, since three
/// values go through a two-slot ring) while the consumer pops. The
/// vector-clock detector checks the Release seq store / Acquire seq load
/// handoff publishes each value; FIFO order must hold in every schedule.
#[test]
fn mpmc_seq_handoff_is_race_free_and_fifo() {
    check::model_with(capped_dfs(), || {
        let mut q = MpmcQueue::with_capacity(2);
        q.set_wait_policy(WaitPolicy::no_backstop());
        let q = Arc::new(q);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for v in 1..=3u64 {
                    q.push_blocking(v);
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 3 {
            match q.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2, 3], "single-producer FIFO violated");
    });
}

/// The lane ring's cursors, across counter wraparound: a two-slot ring
/// whose cursors start one below `usize::MAX` carries five values, so every
/// slot is reused and the producer's private copy of `head` goes stale and
/// is refreshed several times. In every schedule:
///
/// * a stale copy of `head` never lets `push` overwrite a slot the
///   consumer has not read, and the consumer (which reads `tail` afresh
///   each batch) never reads a slot the producer has not published —
///   either would be a data race on the slot cell (or a lost or repeated
///   value);
/// * the copy itself is touched by the producer only (it is a facade
///   cell, so the race detector checks exactly that);
/// * `Err(full)` comes only from a ring that was full — its length, read
///   by the producer just before the call, can only have shrunk since —
///   and `None` only from one that was empty;
/// * order holds across the wrap, through `pop` and `pop_batch` alike.
#[test]
fn spsc_cached_cursors_hold_across_wraparound() {
    check::model_with(capped_dfs(), || {
        let ring = Arc::new(SpscRing::with_start_pos(2, usize::MAX - 1));
        let producer = {
            let ring = ring.clone();
            thread::spawn(move || {
                for v in 1..=5u64 {
                    loop {
                        let before = ring.len();
                        match ring.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                assert_eq!(back, v);
                                assert_eq!(before, 2, "full reported by a ring with room");
                                thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut got = Vec::new();
        let mut batched = false;
        while got.len() < 5 {
            let before = ring.len();
            let took = if batched {
                let (took, found) = ring.pop_batch(2, |v| got.push(v));
                assert!(found >= before, "backlog only grows under the consumer");
                took
            } else {
                let popped = ring.pop();
                got.extend(popped);
                usize::from(popped.is_some())
            };
            if before > 0 {
                assert!(took > 0, "empty reported by a ring holding {before}");
            } else if took == 0 {
                thread::yield_now();
            }
            batched = !batched;
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "FIFO violated across the wrap");
        assert!(ring.is_empty());
    });
}

/// Two producers against a one-lane set: whichever thread claims second
/// must spill to the shared MPMC overflow ring, and the consumer's drain
/// sweep must still deliver both commands exactly once.
#[test]
fn lane_claim_and_overflow_spill_deliver_everything() {
    check::model_with(capped_dfs(), || {
        let mut set = LaneSet::new(1, 2, 2);
        set.set_wait_policy(WaitPolicy::no_backstop());
        let set = Arc::new(set);
        let producers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|v| {
                let set = set.clone();
                thread::spawn(move || set.push(v).expect("ring has room"))
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            if set.drain(4, |v| got.push(v)) == 0 {
                thread::yield_now();
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "a command was lost or duplicated");
        assert!(set.is_empty());
    });
}

/// The full `MPI_Wait` path: alloc → (offload thread) complete →
/// wait_take → free, then the recycled slot must come back under a bumped
/// generation so the stale handle is dead. `wait_take` parks *untimed* on
/// the completion signal, so a lost completion wakeup would be reported as
/// a deadlock.
#[test]
fn pool_lifecycle_completes_and_recycles_with_generation_bump() {
    check::model(|| {
        let mut pool: RequestPool<u32> = RequestPool::with_capacity(1);
        pool.set_wait_policy(WaitPolicy::no_backstop());
        let pool = Arc::new(pool);
        let h = pool.alloc().expect("slot");
        let completer = {
            let pool = pool.clone();
            thread::spawn(move || pool.complete(h, 7))
        };
        assert_eq!(pool.wait_take(h), Some(7));
        completer.join().unwrap();
        let h2 = pool.alloc().expect("recycled slot");
        assert_eq!(h2.index(), h.index(), "slot must actually be recycled");
        assert_eq!(
            h2.generation(),
            h.generation() + 1,
            "free must bump the generation"
        );
        assert!(!pool.is_done(h), "stale handle must not read as done");
        pool.free(h2);
        assert_eq!(pool.outstanding(), 0);
    });
}

/// An exhausted pool: `alloc_blocking` parks untimed on the vacancy signal
/// until the owner frees the only slot. Proves `free`'s notify cannot be
/// lost against the allocator's register-then-recheck.
#[test]
fn pool_alloc_blocking_wakes_on_vacancy() {
    check::model(|| {
        let mut pool: RequestPool<u32> = RequestPool::with_capacity(1);
        pool.set_wait_policy(WaitPolicy::no_backstop());
        let pool = Arc::new(pool);
        let h = pool.alloc().expect("only slot");
        let allocator = {
            let pool = pool.clone();
            thread::spawn(move || {
                let h2 = pool.alloc_blocking();
                pool.free(h2);
            })
        };
        pool.free(h);
        allocator.join().unwrap();
        assert_eq!(pool.outstanding(), 0);
    });
}

/// The seeded ordering bug the detector must catch: the queue's slot
/// publication protocol — write the value cell, then publish the slot's
/// seq counter — with the `Release` seq store weakened to `Relaxed`. A
/// faithful replica of `MpmcQueue::push`'s publication edge, inlined here
/// because the real queue's orderings are (correctly) not configurable.
/// The failure must carry a replayable schedule.
#[cfg(offload_model)]
#[test]
fn relaxed_seq_publication_is_a_data_race() {
    use check::cell::UnsafeCell as ModelCell;
    use check::sync::atomic::AtomicUsize;
    let cfg = check::Config {
        capture_stacks: false,
        ..check::Config::default()
    };
    let failure = check::explore(cfg, || {
        // One slot of the ring: value cell + seq counter, as in queue.rs.
        let slot = Arc::new((ModelCell::new(0u64), AtomicUsize::new(0)));
        let producer = {
            let slot = slot.clone();
            thread::spawn(move || {
                slot.0.with_mut(|p| unsafe { *p = 42 });
                // BUG under test: queue.rs uses Release here, which is what
                // publishes the cell write to the consumer's Acquire load.
                slot.1.store(1, Ordering::Relaxed);
            })
        };
        let consumer = {
            let slot = slot.clone();
            thread::spawn(move || {
                if slot.1.load(Ordering::Acquire) == 1 {
                    slot.0.with(|p| assert_eq!(unsafe { *p }, 42));
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
    })
    .expect_err("the detector must catch the unpublished slot write");
    assert_eq!(failure.kind, check::FailureKind::DataRace);
    assert!(
        !failure.schedule.is_empty(),
        "data-race failures must carry a replayable schedule: {failure}"
    );
}

/// The WakeSignal waiter-count fast path itself, with the timeout backstop
/// disabled: the notifier publishes the condition, then loads `waiters`
/// (SeqCst) and only takes the mutex when someone registered; the waiter
/// registers, then re-checks the condition under the mutex before parking
/// untimed. The checker must prove no interleaving loses the wakeup —
/// compare `model_self.rs::lost_wakeup_without_backstop_deadlocks`, where
/// removing the under-lock re-check makes this exact shape deadlock.
#[test]
fn wake_signal_fast_path_has_no_lost_wakeup() {
    check::model(|| {
        let sig = Arc::new(WakeSignal::new());
        let flag = Arc::new(AtomicBool::new(false));
        let notifier = {
            let (sig, flag) = (sig.clone(), flag.clone());
            thread::spawn(move || {
                flag.store(true, Ordering::Release);
                sig.notify();
            })
        };
        let m = BackoffMetrics::default();
        sig.wait_until(&WaitPolicy::no_backstop(), &m, || {
            flag.load(Ordering::Acquire).then_some(())
        });
        notifier.join().unwrap();
    });
}
