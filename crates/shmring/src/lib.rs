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
//!   The ring's atomics go through `check::sync` too: std's own types in
//!   a normal build, the instrumented ones under `--cfg offload_model`.
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
//! # Rewind
//!
//! Walking every slot whatever the traffic would keep the whole ring
//! resident (2 × 128 × 16 KiB = 4 MiB a peer pair at the default
//! geometry) for traffic that needs a few slots. So the producer
//! *rewinds*: when the ring has drained (its previous slot is recycled,
//! `seq == head − 1 + slots`) and its slot index is at or past
//! `slots / 8`, it publishes a SKIP record in the head slot
//! (`len = `[`SKIP`], no payload) and continues at slot 0 of the next
//! lap. A consumer that pops a SKIP recycles the slot and jumps to the
//! same lap start; the caller never sees it. The resident set then
//! follows the bytes in flight, and a burst larger than `slots / 8`
//! still runs through the whole ring.
//!
//! The slots a rewind passes over keep an older lap's free value. So
//! both sides read a `seq` of the slot's residue (`≡ pos mod slots`) at
//! or behind their own position as free (producer) or empty (consumer),
//! exactly like the current lap's. Without that rule the first burst to
//! reach past a skipped slot would read it as full, and the link would
//! wedge for good.
//!
//! Unlike the in-process queue, the far side of a ring is *another
//! process* and therefore untrusted input: a hostile or corrupt peer can
//! scribble anything into the control words. The protocol never panics on
//! ring state. A bogus `seq` reads as "full" to the producer (its link
//! wedges and the engine's timeout reaps it); the consumer reads only a
//! published value (`tail + 1`) or a free one as what it says, and
//! reports any other as [`Pop::Corrupt`], as it does a `len` beyond the
//! slot capacity and a SKIP no honest producer publishes (below
//! `slots / 8`, or on a ring too small to rewind), so the caller can kill
//! the link — exactly as a corrupt frame header kills a socket link.
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

mod ring;

pub use ring::*;
