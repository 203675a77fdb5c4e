//! Seeded, known-fixed wire bugs kept reinjectable for the protocol model
//! checker (`protocheck`) — see `rtmpi::faults` for the rationale, and
//! for why the flags are thread-local. Compiled only under
//! `model-faults`, armed only by explicit test calls.

use std::cell::Cell;

thread_local! {
    /// Fault: panic on a CTS frame whose `xid` no rendezvous send owns (the
    /// pre-PR7 behaviour — a duplicated or late CTS took the whole rank
    /// down instead of being counted in `wire.protocol_errors`).
    static STRAY_CTS_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Arm/disarm the stray-CTS panic on this thread. Returns the previous
/// state so tests can restore it.
pub fn set_stray_cts_panic(on: bool) -> bool {
    STRAY_CTS_PANIC.replace(on)
}

/// Engine hook: called from the stray-CTS branch; panics iff armed on
/// this thread.
pub fn maybe_stray_cts_panic(xid: u32) {
    if STRAY_CTS_PANIC.get() {
        panic!("seeded fault: CTS for unknown rendezvous xid {xid}");
    }
}
