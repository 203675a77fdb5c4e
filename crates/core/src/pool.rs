//! The request pool (paper §3.1): a fixed array of request slots managed as
//! a lock-free free list, with a per-slot *done flag*.
//!
//! A nonblocking offloaded call must return an `MPI_Request` to the
//! application **before** the offload thread has issued the real MPI call.
//! The pool provides that: the application thread allocates a slot
//! (lock-free, "array-based singly linked list" — a Treiber stack of slot
//! indices), embeds the slot handle in the command, and later waits on the
//! slot's done flag. The offload thread writes the completion value into
//! the slot and raises the flag with release ordering; the owner reads it
//! with acquire ordering.
//!
//! ABA and stale handles are prevented two ways:
//! * the free-list head packs a 32-bit *tag* bumped on every pop, so a
//!   concurrent pop/push/pop cannot redirect a CAS (classic counted
//!   pointer);
//! * each slot carries a *generation* bumped on `free`, and handles embed
//!   the generation they were allocated under, so use-after-free of a
//!   handle is detected. Ownership operations (`complete`, `take`, `free`,
//!   `wait_take`) **panic** on a generation mismatch in every build — a
//!   stale handle there is a double-wait or use-after-free that would
//!   otherwise read another request's completion. The query `is_done`
//!   (the `MPI_Test` path) stays conservative: it counts the detection
//!   and reports `false`.
//!
//! Blocking operations (`alloc_blocking`, `wait_take`) escalate
//! spin → yield → park via [`crate::backoff`]: `complete` rings the
//! completion signal, `free` rings the vacancy signal, and both are one
//! atomic load when nobody is parked.

use check::cell::UnsafeCell;
use check::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use check::sync::CachePadded;

use crate::backoff::{BackoffMetrics, WaitPolicy, WakeSignal};

const NIL: u32 = u32::MAX;
/// What an allocated slot's `next` holds: no slot index (the capacity
/// check keeps them below it) and not the end of the list.
const LIVE: u32 = u32::MAX - 1;

struct PoolSlot<T> {
    /// Free-list link while the slot is free, [`LIVE`] while allocated.
    next: AtomicU32,
    /// Bumped on every `free`; handles must match.
    generation: AtomicU32,
    /// Raised by the completing thread with `Release`.
    done: AtomicBool,
    /// Completion value; written before `done`, read after it.
    value: UnsafeCell<Option<T>>,
}

/// Flight-recorder signals of one pool: allocation traffic, exhaustion
/// events, occupancy (with high-water mark), and stale-handle detections —
/// each generation-tag mismatch is one caught would-be ABA/use-after-free.
/// Recording costs `alloc` and `free` one `Relaxed` read-modify-write each
/// (their own counter; the occupancy level is the difference of the two,
/// stored); zero-sized no-ops when `obs`'s `enabled` feature is off.
#[derive(Clone, Default)]
pub struct PoolMetrics {
    pub allocs: obs::Counter,
    pub alloc_exhausted: obs::Counter,
    pub frees: obs::Counter,
    pub occupancy: obs::Gauge,
    pub stale_detected: obs::Counter,
    /// How waiters on the done flag escalated (`wait_take`).
    pub waiter: BackoffMetrics,
    /// How allocators facing an exhausted pool escalated.
    pub alloc_waiter: BackoffMetrics,
}

impl PoolMetrics {
    /// Register the pool's metrics under `prefix` in `registry`.
    pub fn registered(registry: &obs::Registry, prefix: &str) -> Self {
        Self {
            allocs: registry.counter(&format!("{prefix}.allocs")),
            alloc_exhausted: registry.counter(&format!("{prefix}.exhausted")),
            frees: registry.counter(&format!("{prefix}.frees")),
            occupancy: registry.gauge(&format!("{prefix}.occupancy")),
            stale_detected: registry.counter(&format!("{prefix}.stale_detected")),
            waiter: BackoffMetrics::registered(registry, &format!("{prefix}.wait")),
            alloc_waiter: BackoffMetrics::registered(registry, &format!("{prefix}.alloc_wait")),
        }
    }
}

/// Fixed-capacity lock-free request pool.
pub struct RequestPool<T> {
    slots: Box<[PoolSlot<T>]>,
    metrics: PoolMetrics,
    /// Rung by `complete`; `wait_take` parks here for the done flag.
    completion: WakeSignal,
    /// Rung by `free`; `alloc_blocking` parks here when exhausted.
    vacancy: WakeSignal,
    policy: WaitPolicy,
    /// Packed head: upper 32 bits = pop tag, lower 32 = slot index or NIL.
    head: CachePadded<AtomicU64>,
}

// SAFETY: a slot's value cell has exactly one writer (the completer, before
// the Release store of `done`) and one reader (the handle owner, after its
// Acquire load of `done`); slots are never reused until freed by the owner.
unsafe impl<T: Send> Send for RequestPool<T> {}
// SAFETY: as above — the done-flag handoff plus single-owner free protocol
// make concurrent shared access to the slot cells safe.
unsafe impl<T: Send> Sync for RequestPool<T> {}

/// Handle to an allocated request slot (the application's `MPI_Request`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handle {
    pub(crate) idx: u32,
    pub(crate) generation: u32,
}

impl Handle {
    /// Slot index within the pool (diagnostics).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Generation the handle was allocated under (diagnostics).
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl<T> RequestPool<T> {
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_metrics(cap, PoolMetrics::default())
    }

    /// Create a pool whose signals feed pre-registered metric handles
    /// (see [`PoolMetrics::registered`]).
    pub fn with_metrics(cap: usize, metrics: PoolMetrics) -> Self {
        assert!(cap > 0 && cap < LIVE as usize);
        let slots: Box<[PoolSlot<T>]> = (0..cap)
            .map(|i| PoolSlot {
                next: AtomicU32::new(if i + 1 < cap { (i + 1) as u32 } else { NIL }),
                generation: AtomicU32::new(0),
                done: AtomicBool::new(false),
                value: UnsafeCell::new(None),
            })
            .collect();
        Self {
            slots,
            metrics,
            completion: WakeSignal::new(),
            vacancy: WakeSignal::new(),
            policy: WaitPolicy::default(),
            head: CachePadded::new(AtomicU64::new(pack(0, 0))),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Currently allocated slots. A scan of the slot array, for tests and
    /// diagnostics: the op path keeps no counter for it.
    pub fn outstanding(&self) -> usize {
        // ORDERING: Relaxed — diagnostic read, no publication; exact once
        // the threads that allocate and free have been joined.
        let is_live = |s: &&PoolSlot<T>| s.next.load(Ordering::Relaxed) == LIVE;
        self.slots.iter().filter(is_live).count()
    }

    /// Store the occupancy level: allocations minus frees, read in that
    /// order so a racing reader can under- but never over-state a level
    /// the pool really had (the high-water mark stays within capacity).
    fn record_occupancy(&self) {
        let allocs = self.metrics.allocs.get();
        let level = allocs.saturating_sub(self.metrics.frees.get());
        self.metrics.occupancy.set(level);
    }

    /// Replace the wait policy used by `alloc_blocking` and `wait_take`.
    /// Model tests shrink the budgets (or disable the park backstop) so the
    /// schedule space stays explorable; production code keeps the default.
    pub fn set_wait_policy(&mut self, policy: WaitPolicy) {
        self.policy = policy;
    }

    /// Allocate a slot; `None` if the pool is exhausted.
    pub fn alloc(&self) -> Option<Handle> {
        // ORDERING: Acquire — must observe the freeing thread's writes to
        // the head slot (its `next` link) before dereferencing it.
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (tag, idx) = unpack(head);
            if idx == NIL {
                self.metrics.alloc_exhausted.inc();
                return None;
            }
            // ORDERING: Relaxed — `next` was made visible by the Acquire
            // on `head` (the freeing thread stored it before its Release
            // CAS); this is a re-read of already-synchronized data.
            let next = self.slots[idx as usize].next.load(Ordering::Relaxed);
            // ORDERING: AcqRel on success — Acquire re-synchronizes with
            // whoever last touched the new head; Release publishes the tag
            // bump to the next CAS in line. Acquire on failure: the retry
            // dereferences the freshly observed head's `next`.
            match self.head.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), next),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    let slot = &self.slots[idx as usize];
                    // ORDERING: Relaxed — the slot is exclusively ours
                    // after the CAS (its `done` flag was lowered by `free`
                    // or never raised); handing the Handle to another
                    // thread is the caller's (synchronized) job.
                    slot.next.store(LIVE, Ordering::Relaxed);
                    self.metrics.allocs.inc();
                    self.record_occupancy();
                    return Some(Handle {
                        idx,
                        // ORDERING: Relaxed — slot is exclusively ours
                        // after the CAS (see above).
                        generation: slot.generation.load(Ordering::Relaxed),
                    });
                }
                Err(actual) => head = actual,
            }
        }
    }

    /// Allocate, adaptively waiting (spin → yield → park on the vacancy
    /// signal) while the pool is exhausted. The old implementation yielded
    /// forever, burning a core until some other thread freed a slot.
    pub fn alloc_blocking(&self) -> Handle {
        self.vacancy
            .wait_until(&self.policy, &self.metrics.alloc_waiter, || self.alloc())
    }

    /// Ownership check: panics on a stale handle in **every** build. A
    /// generation mismatch on an ownership operation means double-wait or
    /// use-after-free — proceeding would touch another request's slot.
    fn check(&self, h: Handle) -> &PoolSlot<T> {
        let slot = &self.slots[h.idx as usize];
        // ORDERING: Relaxed — the generation can only change under a
        // handle its owner freed, i.e. after a caller bug; this is a
        // best-effort tripwire, not a synchronization point.
        let current = slot.generation.load(Ordering::Relaxed);
        if current != h.generation {
            self.metrics.stale_detected.inc();
            panic!(
                "stale request handle: slot {} is at generation {} but the handle \
                 was allocated under generation {} (double wait or use-after-free)",
                h.idx, current, h.generation
            );
        }
        slot
    }

    /// Complete the request: publish `value` and raise the done flag.
    /// Called by the offload thread exactly once per allocation.
    pub fn complete(&self, h: Handle, value: T) {
        let slot = self.check(h);
        // ORDERING: Relaxed — debug tripwire only.
        debug_assert!(!slot.done.load(Ordering::Relaxed), "double completion");
        // SAFETY: sole writer before the Release store below.
        slot.value.with_mut(|p| unsafe { *p = Some(value) });
        // ORDERING: Release — publishes the value write to the owner's
        // Acquire load of `done` in is_done/take/wait_take.
        slot.done.store(true, Ordering::Release);
        // One atomic load when no waiter is parked.
        self.completion.notify();
    }

    /// Has the request completed? (The application's `MPI_Test` fast path.)
    pub fn is_done(&self, h: Handle) -> bool {
        let slot = &self.slots[h.idx as usize];
        // ORDERING: Relaxed — stale-handle tripwire, as in `check`.
        if slot.generation.load(Ordering::Relaxed) != h.generation {
            // Generation-tag mismatch: a stale handle outlived its slot —
            // the ABA this pool's counted pointers exist to catch.
            self.metrics.stale_detected.inc();
            return false;
        }
        // ORDERING: Acquire — pairs with complete()'s Release so a true
        // result licenses reading the value.
        slot.done.load(Ordering::Acquire)
    }

    /// Take the completion value. Only the handle owner may call, and only
    /// after `is_done`.
    pub fn take(&self, h: Handle) -> Option<T> {
        let slot = self.check(h);
        // ORDERING: Acquire — pairs with complete()'s Release; the value
        // read below is only licensed by an observed `done == true`.
        if !slot.done.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: owner-side read after the Acquire load; the completer
        // wrote before its Release store and will not touch the slot again.
        slot.value.with_mut(|p| unsafe { (*p).take() })
    }

    /// Return the slot to the free list, invalidating all existing handles
    /// to it. Only the handle owner may call.
    pub fn free(&self, h: Handle) {
        let slot = self.check(h);
        // SAFETY: owner has exclusive access; drop any untaken value.
        slot.value.with_mut(|p| unsafe { *p = None });
        // ORDERING: Relaxed ×2 — owner-side resets; they are published to
        // the next allocator by the Release half of the CAS below.
        slot.generation.fetch_add(1, Ordering::Relaxed);
        slot.done.store(false, Ordering::Relaxed);
        // ORDERING: Acquire — observe the current head slot before linking
        // to it, as in `alloc`.
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (tag, idx) = unpack(head);
            // ORDERING: Relaxed — ordered before the CAS by its Release
            // half; allocators read it only after their Acquire of `head`.
            slot.next.store(idx, Ordering::Relaxed);
            // ORDERING: AcqRel on success — Release publishes the reset
            // slot and its `next` link to the next allocator's Acquire;
            // Acquire re-synchronizes on the observed head. Acquire on
            // failure for the retry's dereference.
            match self.head.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), h.idx),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.metrics.frees.inc();
                    self.record_occupancy();
                    self.vacancy.notify();
                    return;
                }
                Err(actual) => head = actual,
            }
        }
    }

    /// Wait for completion (adaptively: spin → yield → park on the
    /// completion signal), then take the value and free the slot — the
    /// full `MPI_Wait` path of the offload design. Panics on a stale
    /// handle (a double-wait would otherwise spin forever: the old
    /// implementation looped on `is_done(stale) == false` at 100% CPU).
    pub fn wait_take(&self, h: Handle) -> Option<T> {
        // Validate ownership up front (and on every recheck via `take`):
        // the generation cannot change under a live handle, whose owner is
        // the only thread allowed to free it.
        let slot = self.check(h);
        self.completion
            .wait_until(&self.policy, &self.metrics.waiter, || {
                // ORDERING: Acquire — same edge as `take`; pairs with
                // complete()'s Release store on `done`.
                slot.done.load(Ordering::Acquire).then_some(())
            });
        let v = self.take(h);
        self.free(h);
        v
    }
}

fn pack(tag: u32, idx: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::thread;
    use std::sync::Arc;

    #[test]
    fn alloc_complete_take_free_roundtrip() {
        let pool: RequestPool<u32> = RequestPool::with_capacity(4);
        let h = pool.alloc().expect("slot");
        assert!(!pool.is_done(h));
        assert_eq!(pool.take(h), None);
        pool.complete(h, 77);
        assert!(pool.is_done(h));
        assert_eq!(pool.take(h), Some(77));
        pool.free(h);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let pool: RequestPool<()> = RequestPool::with_capacity(2);
        let a = pool.alloc().expect("first");
        let _b = pool.alloc().expect("second");
        assert!(pool.alloc().is_none());
        pool.free(a);
        assert!(pool.alloc().is_some());
    }

    #[test]
    fn generation_invalidates_stale_handles() {
        let pool: RequestPool<u32> = RequestPool::with_capacity(1);
        let h1 = pool.alloc().expect("slot");
        pool.complete(h1, 1);
        assert!(pool.is_done(h1));
        pool.free(h1);
        let h2 = pool.alloc().expect("reused slot");
        assert_eq!(h1.idx, h2.idx);
        assert_ne!(h1.generation, h2.generation);
        // The stale handle no longer reads as done.
        assert!(!pool.is_done(h1));
        assert!(!pool.is_done(h2));
        pool.complete(h2, 2);
        assert!(pool.is_done(h2));
    }

    #[test]
    fn untaken_values_are_dropped_on_free() {
        let pool: RequestPool<Arc<()>> = RequestPool::with_capacity(1);
        let marker = Arc::new(());
        let h = pool.alloc().expect("slot");
        pool.complete(h, marker.clone());
        assert_eq!(Arc::strong_count(&marker), 2);
        pool.free(h); // value dropped without take
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn wait_take_spins_until_completion() {
        let pool: Arc<RequestPool<u64>> = Arc::new(RequestPool::with_capacity(4));
        let h = pool.alloc().expect("slot");
        let completer = {
            let pool = pool.clone();
            thread::spawn(move || {
                thread::sleep(std::time::Duration::from_millis(5));
                pool.complete(h, 42);
            })
        };
        assert_eq!(pool.wait_take(h), Some(42));
        completer.join().expect("completer");
    }

    /// Satellite regression: a long `wait_take` must park (and be woken by
    /// `complete`), not spin-burn a core — proven by the obs counters.
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn long_wait_parks_instead_of_spinning() {
        let reg = obs::Registry::default();
        let pool: Arc<RequestPool<u64>> = Arc::new(RequestPool::with_metrics(
            4,
            PoolMetrics::registered(&reg, "pool"),
        ));
        let h = pool.alloc().expect("slot");
        let waiter = {
            let pool = pool.clone();
            thread::spawn(move || pool.wait_take(h))
        };
        // No completer yet: the waiter must escalate to parking.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while reg.snapshot().counter("pool.wait.parks") == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "waiter never parked (yields={})",
                reg.snapshot().counter("pool.wait.yields")
            );
            thread::yield_now();
        }
        pool.complete(h, 9);
        assert_eq!(waiter.join().expect("waiter"), Some(9));
        let s = reg.snapshot();
        assert!(s.counter("pool.wait.wakes") >= 1);
        // The spin budget is bounded: far fewer spins than a 10s busy loop.
        assert!(s.counter("pool.wait.spins") <= 64);
    }

    /// Satellite regression: exhausted-pool allocation parks until `free`.
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn exhausted_alloc_parks_until_free() {
        let reg = obs::Registry::default();
        let pool: Arc<RequestPool<()>> = Arc::new(RequestPool::with_metrics(
            1,
            PoolMetrics::registered(&reg, "pool"),
        ));
        let h = pool.alloc().expect("only slot");
        let allocator = {
            let pool = pool.clone();
            thread::spawn(move || pool.alloc_blocking())
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while reg.snapshot().counter("pool.alloc_wait.parks") == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "allocator never parked"
            );
            thread::yield_now();
        }
        pool.free(h);
        let h2 = allocator.join().expect("allocator");
        pool.free(h2);
        assert_eq!(pool.outstanding(), 0);
    }

    /// Double-wait must die on the generation check with a clear message,
    /// not hang or hand back another request's completion.
    #[test]
    #[should_panic(expected = "stale request handle")]
    fn double_wait_panics_on_generation_check() {
        let pool: RequestPool<u32> = RequestPool::with_capacity(2);
        let h = pool.alloc().expect("slot");
        pool.complete(h, 5);
        assert_eq!(pool.wait_take(h), Some(5)); // first wait: fine, frees
        let _ = pool.wait_take(h); // second wait: stale generation
    }

    /// Use-after-free of a *recycled* slot: the old handle must not read
    /// the new occupant's completion.
    #[test]
    #[should_panic(expected = "stale request handle")]
    fn recycled_slot_take_panics_for_old_handle() {
        let pool: RequestPool<u32> = RequestPool::with_capacity(1);
        let h1 = pool.alloc().expect("slot");
        pool.complete(h1, 1);
        assert_eq!(pool.wait_take(h1), Some(1));
        let h2 = pool.alloc().expect("recycled slot");
        assert_eq!(h1.idx, h2.idx, "slot must actually be recycled");
        pool.complete(h2, 2);
        let _ = pool.take(h1); // stale: would alias h2's completion
    }

    /// The offload pattern under stress: many "application" threads
    /// allocate and wait; one "offload" thread completes. Every allocation
    /// must round-trip its unique payload exactly once.
    #[test]
    fn producer_completer_stress() {
        const APP_THREADS: u64 = 4;
        const PER: u64 = 500;
        let pool: Arc<RequestPool<u64>> = Arc::new(RequestPool::with_capacity(16));
        let work: Arc<crate::queue::MpmcQueue<(Handle, u64)>> =
            Arc::new(crate::queue::MpmcQueue::with_capacity(64));
        let offload = {
            let pool = pool.clone();
            let work = work.clone();
            thread::spawn(move || {
                let mut served = 0;
                while served < APP_THREADS * PER {
                    if let Some((h, v)) = work.pop() {
                        pool.complete(h, v * 2);
                        served += 1;
                    } else {
                        thread::yield_now();
                    }
                }
            })
        };
        let apps: Vec<_> = (0..APP_THREADS)
            .map(|t| {
                let pool = pool.clone();
                let work = work.clone();
                thread::spawn(move || {
                    for i in 0..PER {
                        let v = t * PER + i;
                        let h = pool.alloc_blocking();
                        work.push_blocking((h, v));
                        assert_eq!(pool.wait_take(h), Some(v * 2));
                    }
                })
            })
            .collect();
        for a in apps {
            a.join().expect("app thread");
        }
        offload.join().expect("offload thread");
        assert_eq!(pool.outstanding(), 0);
    }
}
