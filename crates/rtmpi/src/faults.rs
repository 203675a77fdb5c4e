//! Seeded, known-fixed bugs kept reinjectable for the protocol model
//! checker's regression suite (`check::proto`). Compiled only under the
//! `model-faults` cargo feature and **off by default even then**: each
//! fault is a flag a test arms explicitly, so feature unification during a
//! workspace build changes nothing for other tests. The flags are
//! thread-local — the explorer drives every rank of a run on the thread
//! that armed the fault, and a test running on another thread of the same
//! `cargo test` process must not see it.
//!
//! The point of keeping the bugs alive: the explorer's value claim is "it
//! would have caught these". Arming a fault and asserting the explorer
//! finds it within a bounded budget keeps that claim machine-checked
//! instead of folklore.

use std::cell::Cell;

thread_local! {
    /// Fault: wildcard-tag receives match the reserved internal tag space
    /// again (the pre-PR7 leak — an application `ANY_TAG` receive could
    /// steal a collective round's token, wedging the NBC schedule).
    static WILDCARD_RESERVED_LEAK: Cell<bool> = const { Cell::new(false) };
}

/// Arm/disarm the wildcard reserved-tag leak on this thread. Returns the
/// previous state so tests can restore it.
pub fn set_wildcard_reserved_leak(on: bool) -> bool {
    WILDCARD_RESERVED_LEAK.replace(on)
}

/// Is the wildcard reserved-tag leak armed on this thread?
pub fn wildcard_reserved_leak() -> bool {
    WILDCARD_RESERVED_LEAK.get()
}
