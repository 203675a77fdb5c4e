//! A counting global allocator: heap allocations and bytes, split between
//! the generator thread and everything else — which, while it is armed,
//! is the offload thread (the speed probe's helper sleeps then).
//!
//! Armed only inside the slices of a traced run; disarmed it is the
//! system allocator plus one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Each shard on its own cache line: the two threads count without
/// sharing one.
#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    bytes: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static SHARDS: [Shard; 2] = [Shard::new(), Shard::new()];

const OTHER: usize = 0;
const GENERATOR: usize = 1;

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator can neither allocate nor run after thread teardown.
    static SHARD: Cell<usize> = const { Cell::new(OTHER) };
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only atomics and a
// const-initialised thread-local `Cell`, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(size: usize) {
    // ORDERING: Relaxed throughout — these are statistics; they publish no
    // other data, and readers take them between rounds.
    if ARMED.load(Ordering::Relaxed) {
        let shard = &SHARDS[SHARD.with(Cell::get)];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Mark the calling thread as the load generator.
pub fn this_thread_is_generator() {
    SHARD.with(|s| s.set(GENERATOR));
}

pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Totals since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub gen_count: u64,
    pub gen_bytes: u64,
    pub other_count: u64,
    pub other_bytes: u64,
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            gen_count: self.gen_count - earlier.gen_count,
            gen_bytes: self.gen_bytes - earlier.gen_bytes,
            other_count: self.other_count - earlier.other_count,
            other_bytes: self.other_bytes - earlier.other_bytes,
        }
    }
}

pub fn counts() -> Counts {
    let read = |s: &Shard| {
        (
            s.count.load(Ordering::Relaxed),
            s.bytes.load(Ordering::Relaxed),
        )
    };
    let (gen_count, gen_bytes) = read(&SHARDS[GENERATOR]);
    let (other_count, other_bytes) = read(&SHARDS[OTHER]);
    Counts {
        gen_count,
        gen_bytes,
        other_count,
        other_bytes,
    }
}
