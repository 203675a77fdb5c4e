//! Fixed-slot SPSC ring protocol over abstract memory.
//!
//! This is the core of the shared-memory data plane (`wire::shm`): a pair
//! of these rings — one per direction — lives in a memfd-backed segment
//! mapped by both processes of a peer pair. The *protocol* (slot claim,
//! publish, recycle, park/doorbell) is defined here once, over the
//! [`RingMem`] abstraction; the *memory* is pluggable:
//!
//! * [`HeapMem`] — process-local slots, used by the unit tests and by the
//!   model lane, where every slot access goes through the `check` cell
//!   facade so the vector-clock race detector validates each handoff.
//! * `wire::shm`'s segment-backed memory — raw pointers into the shared
//!   mapping. That impl lives in `wire` (keeping every `unsafe` of the
//!   subsystem in `shm.rs`); the protocol here is safe code.
//!
//! `RingMem` is an `unsafe trait` for one promise: `read` initialises the
//! prefix of the uninitialised destination it is handed. That is what
//! lets [`Consumer::try_pop_into`] copy a slot straight into a body that
//! was never zero-filled — the slot's bytes written once, like a
//! `readv(2)` into `[body remainder, staging]` — and [`Consumer::try_pop`]
//! is the same pop with an empty direct destination.
//!
//! The slot discipline mirrors `crates/core`'s Vyukov-style MPMC queue,
//! specialised to SPSC: each slot carries a `seq` counter initialised to
//! its index. The producer may claim slot `head & mask` when
//! `seq == head`, fills it, and publishes with `seq = head + 1`; the
//! consumer may take slot `tail & mask` when `seq == tail + 1` and
//! recycles it with `seq = tail + slots`. All position arithmetic wraps.
//!
//! Unlike the in-process queue, the far side of a ring is *another
//! process* and therefore untrusted input: a hostile or corrupt peer can
//! scribble anything into the control words. The protocol never panics on
//! ring state. A bogus `seq` reads as "full" to the producer (its link
//! wedges and the engine's timeout reaps it); the consumer knows the only
//! two values an honest producer leaves at its tail (`tail`, `tail + 1`)
//! and reports any other as [`Pop::Corrupt`], as it does a `len` beyond
//! the slot capacity, so the caller can kill the link — exactly as a
//! corrupt frame header kills a socket link.
//!
//! # Park/doorbell handshake
//!
//! The data path is syscall-free, which means a consumer that blocks (not
//! ours today — the wire engine polls — but the protocol supports it)
//! needs a wakeup channel. The contract is Dekker-shaped, over the ring's
//! `parked` word: the consumer sets `parked = 1` and *then* re-checks the
//! ring; the producer publishes and *then* checks `parked` (clearing it
//! with a swap). Both sides' flag operations are `SeqCst`, so in every
//! interleaving at least one of them observes the other — either the
//! consumer sees the new frame and does not park, or the producer sees
//! `parked = 1` and rings the doorbell (in `wire`: a `Doorbell` frame on
//! the bootstrap UDS socket). The model tests prove there is no lost
//! wakeup at these orderings — and that the lane has teeth when one is
//! weakened.

// The concurrency facade: the library always builds the ring over plain
// std. The model lane never sees this facade — `tests/model.rs` includes
// `ring.rs` against `check::{sync, cell}` instead, so the deterministic
// scheduler and race detector explore the very same protocol source.

pub mod sync {
    pub use std::sync::atomic;
}

pub mod cell {
    //! Closure-based `UnsafeCell`, API-compatible with `check::cell` so
    //! the ring code is identical in both build modes.

    pub struct UnsafeCell<T: ?Sized> {
        inner: std::cell::UnsafeCell<T>,
    }

    // SAFETY: deliberately shareable, like `check::cell::UnsafeCell` —
    // `with`/`with_mut` only hand out raw pointers, and dereferencing
    // them is the caller's `unsafe` obligation (exactly as with `.get()`
    // on the std cell behind a `Sync` wrapper). The SPSC protocol is what
    // upholds exclusivity, and the model lane checks that claim.
    unsafe impl<T: ?Sized + Send> Send for UnsafeCell<T> {}
    // SAFETY: as above — sharing only exposes raw pointers.
    unsafe impl<T: ?Sized + Send> Sync for UnsafeCell<T> {}

    impl<T> UnsafeCell<T> {
        pub const fn new(value: T) -> Self {
            Self {
                inner: std::cell::UnsafeCell::new(value),
            }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> UnsafeCell<T> {
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.inner.get())
        }

        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.inner.get())
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }
}

include!("ring.rs");
