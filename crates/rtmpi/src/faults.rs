//! Seeded, known-fixed bugs kept reinjectable for the model checkers'
//! regression suites (`protocheck`, and this crate's `tests/model.rs`).
//! Compiled only under the `model-faults` cargo feature and **off by
//! default even then**: each fault is a flag a test arms explicitly, so
//! feature unification during a workspace build changes nothing for other
//! tests. The flags are thread-local — a fault is read on the thread that
//! armed it (the protocol explorer drives every rank of a run on one
//! thread; a model test arms the completer's flag on its own model
//! thread), and a test running on another thread of the same `cargo test`
//! process must not see it.
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

    /// Fault: a receive's completer decides whether to notify from a
    /// `waiters` read in a lock section of its own, taken before `done` is
    /// published. A waiter that registers between that read and the
    /// publish blocks with nobody left to wake it — the lost wakeup the
    /// waiter count invites when it is read outside the publishing lock.
    static NOTIFY_DECIDED_EARLY: Cell<bool> = const { Cell::new(false) };
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

/// Arm/disarm the early notify decision on this thread (the completing
/// one: the flag is read by the thread that sends). Returns the previous
/// state.
pub fn set_notify_decided_early(on: bool) -> bool {
    NOTIFY_DECIDED_EARLY.replace(on)
}

/// Is the early notify decision armed on this thread?
pub fn notify_decided_early() -> bool {
    NOTIFY_DECIDED_EARLY.get()
}
