//! `RegPool` — a lease/recycle pool of staging buffers. **Off the data
//! path since PR 16.**
//!
//! Inbound frame bodies used to be staged in buffers leased from this
//! pool and handed back by the engine after delivery. The receive path
//! no longer stages anything: a body is written once, into the
//! `Arc<[u8]>` the application receives (see [`crate::fabric`], "Data-
//! plane economics"), so nothing in `crates/wire` leases from here. The
//! type and its unit tests stay because the referee benchmark links it
//! (`opbench`'s `regpool.lease_recycle_ns` probe; `benchmark/` is edited
//! only by `[benchmark]` PRs) — deleting it is ROADMAP item 4's, with
//! that probe. `wire.regpool.*` counters are therefore registered by no
//! engine and read 0 in every report.
//!
//! What it is: a bounded shelf of fixed-capacity buffers with two hard
//! rules —
//!
//! * **Never block.** The shelf lock is only ever `try_lock`ed; any
//!   contention (or an empty shelf, or an oversized request) falls back
//!   to a plain heap allocation, counted, and the caller cannot tell the
//!   difference.
//! * **Never panic.** There is no unwrap on the lock; a poisoned shelf
//!   just behaves like a permanently contended one.
//!
//! Counters (under `wire.regpool.*` once [`RegPool::register_obs`] is
//! called): `leases` (every lease), `heap_alloc` (leases served by a
//! fresh heap buffer — pool misses, oversized requests, contention) and
//! `recycle_drop` (buffers dropped on return because the shelf was full,
//! contended, or the buffer was not pool-shaped).

use std::sync::Mutex;

/// Default per-buffer capacity: one socket read's worth, which also
/// covers every eager frame and shm slot chunk at the default geometry.
pub const DEFAULT_BUF_CAP: usize = 64 * 1024;

/// Default shelf depth: enough for a burst of in-flight bodies per rank
/// without pinning unbounded memory.
pub const DEFAULT_MAX_FREE: usize = 32;

/// Lease/recycle pool of staging buffers. Methods take `&self`; the pool
/// is shared by reference between the fabric's links (and, in tests,
/// across threads).
pub struct RegPool {
    shelf: Mutex<Vec<Vec<u8>>>,
    buf_cap: usize,
    max_free: usize,
    c_leases: obs::Counter,
    c_heap_alloc: obs::Counter,
    c_recycle_drop: obs::Counter,
}

impl Default for RegPool {
    fn default() -> Self {
        Self::new(DEFAULT_BUF_CAP, DEFAULT_MAX_FREE)
    }
}

impl RegPool {
    pub fn new(buf_cap: usize, max_free: usize) -> Self {
        RegPool {
            shelf: Mutex::new(Vec::new()),
            buf_cap,
            max_free,
            c_leases: obs::Counter::default(),
            c_heap_alloc: obs::Counter::default(),
            c_recycle_drop: obs::Counter::default(),
        }
    }

    /// Swap the detached counters for registered ones. Called once at
    /// engine construction, before any concurrent use.
    pub fn register_obs(&mut self, registry: &obs::Registry) {
        self.c_leases = registry.counter("wire.regpool.leases");
        self.c_heap_alloc = registry.counter("wire.regpool.heap_alloc");
        self.c_recycle_drop = registry.counter("wire.regpool.recycle_drop");
    }

    /// Per-buffer capacity of pool-shaped buffers.
    pub fn buf_cap(&self) -> usize {
        self.buf_cap
    }

    /// Lease an empty buffer with room for `len` bytes. Pooled when
    /// `len` fits a pool buffer and the shelf has one to give without
    /// waiting; a counted heap allocation otherwise.
    pub fn lease(&self, len: usize) -> Vec<u8> {
        self.c_leases.inc();
        if len <= self.buf_cap {
            if let Ok(mut shelf) = self.shelf.try_lock() {
                if let Some(mut buf) = shelf.pop() {
                    buf.clear();
                    return buf;
                }
            }
        }
        self.c_heap_alloc.inc();
        // Fallback buffers for pool-sized requests are cut pool-shaped,
        // so recycling them primes the shelf organically: the heap_alloc
        // counter goes quiet once the shelf reaches working depth.
        Vec::with_capacity(len.max(self.buf_cap))
    }

    /// Return a leased buffer. Kept only if it is pool-shaped (capacity
    /// at least `buf_cap`) and the shelf has room right now; dropped
    /// (counted) otherwise.
    pub fn recycle(&self, buf: Vec<u8>) {
        if buf.capacity() >= self.buf_cap {
            if let Ok(mut shelf) = self.shelf.try_lock() {
                if shelf.len() < self.max_free {
                    let mut buf = buf;
                    buf.clear();
                    shelf.push(buf);
                    return;
                }
            }
        }
        self.c_recycle_drop.inc();
    }

    /// Pre-populate the shelf so the steady state never pays the first
    /// `n` heap allocations.
    pub fn prime(&self, n: usize) {
        if let Ok(mut shelf) = self.shelf.try_lock() {
            while shelf.len() < n.min(self.max_free) {
                shelf.push(Vec::with_capacity(self.buf_cap));
            }
        }
    }

    /// Free buffers currently shelved (tests).
    pub fn shelved(&self) -> usize {
        self.shelf.try_lock().map(|s| s.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lease_recycle_reuses_the_same_allocation() {
        let pool = RegPool::new(1024, 4);
        pool.prime(1);
        let buf = pool.lease(100);
        assert!(buf.capacity() >= 1024, "primed buffer is pool-shaped");
        let ptr = buf.as_ptr();
        pool.recycle(buf);
        let again = pool.lease(200);
        assert_eq!(again.as_ptr(), ptr, "the shelf returned the same buffer");
        assert!(again.is_empty(), "leases come back cleared");
    }

    #[test]
    fn oversized_lease_heap_allocates_and_is_dropped_on_return() {
        let mut pool = RegPool::new(1024, 4);
        let registry = obs::Registry::default();
        pool.register_obs(&registry);
        let before = registry.snapshot();
        let big = pool.lease(4096);
        assert!(big.capacity() >= 4096);
        pool.recycle(big); // capacity ≥ buf_cap, so this one IS kept
        let small_miss = pool.lease(8); // shelf holds the big buffer → hit
        assert!(small_miss.capacity() >= 4096, "big recycled buffer reused");
        assert_eq!(pool.shelved(), 0, "the one shelved buffer is out on lease");
        let diff = registry.snapshot().diff(&before);
        #[cfg(feature = "obs-enabled")]
        {
            assert_eq!(diff.counter("wire.regpool.leases"), 2);
            assert_eq!(diff.counter("wire.regpool.heap_alloc"), 1);
        }
        let _ = diff;
    }

    #[test]
    fn shelf_is_bounded_and_drops_are_counted() {
        let mut pool = RegPool::new(64, 2);
        let registry = obs::Registry::default();
        pool.register_obs(&registry);
        let before = registry.snapshot();
        for _ in 0..4 {
            pool.recycle(Vec::with_capacity(64));
        }
        assert_eq!(pool.shelved(), 2, "max_free bounds the shelf");
        let diff = registry.snapshot().diff(&before);
        #[cfg(feature = "obs-enabled")]
        assert_eq!(diff.counter("wire.regpool.recycle_drop"), 2);
        let _ = diff;
        // Small (not pool-shaped) buffers are never shelved.
        pool.recycle(Vec::with_capacity(8));
        assert_eq!(pool.shelved(), 2);
    }

    #[test]
    fn exhaustion_falls_back_to_heap_without_blocking() {
        let mut pool = RegPool::new(256, 8);
        let registry = obs::Registry::default();
        pool.register_obs(&registry);
        let before = registry.snapshot();
        // Empty shelf: every lease is a heap fallback, none of them
        // waits on anything.
        let bufs: Vec<_> = (0..16).map(|_| pool.lease(100)).collect();
        assert_eq!(bufs.len(), 16);
        assert!(bufs.iter().all(|b| b.capacity() >= 256), "pool-shaped");
        let diff = registry.snapshot().diff(&before);
        #[cfg(feature = "obs-enabled")]
        assert_eq!(diff.counter("wire.regpool.heap_alloc"), 16);
        let _ = diff;
    }

    #[test]
    fn churn_across_threads_stays_consistent() {
        let mut pool = RegPool::new(512, 8);
        let registry = obs::Registry::default();
        pool.register_obs(&registry);
        pool.prime(8);
        let pool = Arc::new(pool);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..2_000usize {
                        let mut buf = pool.lease((i % 700) + 1);
                        buf.extend_from_slice(&[t as u8; 16]);
                        assert_eq!(buf[0], t as u8);
                        pool.recycle(buf);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("churn thread");
        }
        assert!(pool.shelved() <= 8, "shelf stayed bounded under churn");
        let snap = registry.snapshot();
        #[cfg(feature = "obs-enabled")]
        {
            assert_eq!(snap.counter("wire.regpool.leases"), 8_000);
            // try_lock contention may force heap fallbacks, but the pool
            // must have served a healthy share from the shelf.
            assert!(snap.counter("wire.regpool.heap_alloc") <= 8_000);
        }
        let _ = snap;
    }

    #[test]
    fn counters_are_inert_before_registration() {
        // A pool used before register_obs must work (detached counters
        // are no-ops, not panics).
        let pool = RegPool::default();
        let buf = pool.lease(10);
        pool.recycle(buf);
        assert_eq!(pool.buf_cap(), DEFAULT_BUF_CAP);
    }
}
