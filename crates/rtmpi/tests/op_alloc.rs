//! Heap allocations of the in-process op path, counted by this binary's
//! own global allocator: a send and a receive that finds its message
//! waiting cost none, a receive that must wait costs at most one node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring thread counts, so the harness's own threads
    /// cannot disturb the tally.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: defers to `System` for every operation; the tally on the side
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes inside `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn sends_and_matched_receives_allocate_nothing_pending_receives_one_node() {
    let world = rtmpi::world(2);
    let (w0, w1) = (&world[0], &world[1]);
    // The caller's payload: one allocation, made before any counting.
    let data: Arc<[u8]> = Arc::from(vec![7u8; 8]);

    // Let both sides of the mailbox reach their steady-state capacity.
    for _ in 0..4 {
        let rx = w1.irecv(Some(0), Some(3));
        w0.isend(1, 3, data.clone());
        assert!(rx.try_take().is_some());
        w0.isend(1, 3, data.clone());
        assert!(w1.irecv(Some(0), Some(3)).try_take().is_some());
    }

    // A send completes at hand-off and a receive that finds its message
    // waiting completes at the post: both handles carry their outcome.
    let n = allocations(|| {
        for _ in 0..10_000 {
            let tx = w0.isend(1, 3, data.clone());
            assert!(tx.is_done() && tx.try_take().is_none());
            let rx = w1.irecv(Some(0), Some(3));
            let (st, got) = rx.try_take().expect("message was waiting");
            assert_eq!((st.source, st.tag, st.len), (0, 3, 8));
            assert!(
                Arc::ptr_eq(&got, &data),
                "payload is handed off, not copied"
            );
        }
    });
    assert_eq!(n, 0, "isend + matched irecv must not allocate");

    // A receive that has to wait shares one node with its completer; the
    // send that completes it still allocates nothing.
    let n = allocations(|| {
        for _ in 0..1_000 {
            let rx = w1.irecv(Some(0), Some(3));
            assert!(!rx.is_done());
            w0.isend(1, 3, data.clone());
            assert!(rx.try_take().is_some());
        }
    });
    assert!(n <= 1_000, "{n} allocations for 1000 pending receives");
    assert!(
        n > 0,
        "the counter is live: a pending receive does allocate"
    );
}
