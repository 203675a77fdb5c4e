//! Adaptive waiting: bounded spin → `yield_now` → park on a condvar.
//!
//! Every blocking site in the offload command path used to be an unbounded
//! spin (or, at best, an unbounded `yield_now` loop). That burns one core
//! per waiting thread and — worse — livelocks when the thread that would
//! satisfy the wait has itself been descheduled, exactly the contention
//! pathology the paper's single-offload-thread design is supposed to avoid.
//! This module centralizes the wait discipline so every site escalates the
//! same way:
//!
//! 1. **spin** a bounded number of iterations (`core::hint::spin_loop`),
//!    the right answer when the condition flips within ~100 ns;
//! 2. **yield** a bounded number of times (`thread::yield_now`), the right
//!    answer when the producer/consumer is runnable on another core;
//! 3. **park** on a [`WakeSignal`] condvar until the counterpart notifies,
//!    the only correct answer when the counterpart is descheduled or busy
//!    for microseconds-to-milliseconds.
//!
//! ## The wake protocol
//!
//! [`WakeSignal::notify`] is designed to cost one relaxed-ish load on the
//! fast path: notifiers check the `waiters` count and take the mutex only
//! when somebody is actually parked. The classic lost-wakeup race (waiter
//! checks the condition, notifier fires, waiter parks forever) is closed
//! two ways: the waiter re-checks the condition *after* registering in
//! `waiters` and *under the mutex* that `notify` must acquire before
//! signalling; and every park uses a short `wait_timeout` as a liveness
//! backstop, so even a wake lost to instruction-ordering on the notifier
//! side costs one timeout period, never a hang.
//!
//! All counters come from `obs` and compile to ZSTs with
//! `--no-default-features`; the waiting logic itself is always live.
//!
//! Synchronization comes from the `check` facade (std in normal builds,
//! model-checked under `--cfg offload_model`). The model treats a
//! `wait_timeout` of an hour or more as *untimed* — that is how model
//! tests disable the park backstop ([`WaitPolicy::no_backstop`]) and prove
//! the wake protocol itself has no lost wakeup.

use std::time::Duration;

use check::sync::atomic::{AtomicU32, Ordering};
use check::sync::{Condvar, Mutex};

/// How long each escalation phase runs before moving to the next.
#[derive(Clone, Copy, Debug)]
pub struct WaitPolicy {
    /// Busy-spin iterations before the first yield.
    pub spins: u32,
    /// `yield_now` calls before the first park.
    pub yields: u32,
    /// Park timeout — the liveness backstop, not the expected wake path.
    pub park_timeout: Duration,
}

impl Default for WaitPolicy {
    fn default() -> Self {
        Self {
            spins: 64,
            yields: 64,
            park_timeout: Duration::from_millis(1),
        }
    }
}

impl WaitPolicy {
    /// A policy that parks almost immediately — for tests that need to
    /// observe the park path without first burning the full spin budget.
    pub fn eager_park() -> Self {
        Self {
            spins: 4,
            yields: 4,
            park_timeout: Duration::from_millis(1),
        }
    }

    /// [`WaitPolicy::eager_park`] with the timeout backstop disabled
    /// (`park_timeout` so large the model runtime treats the park as
    /// untimed). Model tests use this to prove the wake protocol is
    /// correct *by itself*: under this policy a lost wakeup is a deadlock
    /// the checker reports, not a 1 ms hiccup the backstop papers over.
    pub fn no_backstop() -> Self {
        Self {
            spins: 1,
            yields: 0,
            park_timeout: Duration::MAX,
        }
    }
}

/// Counters for one family of wait sites. All `obs` types: ZSTs when obs
/// is compiled out.
#[derive(Clone, Default)]
pub struct BackoffMetrics {
    /// Spin-loop iterations spent before the condition flipped.
    pub spins: obs::Counter,
    /// `yield_now` calls.
    pub yields: obs::Counter,
    /// Times a thread actually parked on the condvar.
    pub parks: obs::Counter,
    /// Times a parked thread came back (notify or timeout backstop).
    pub wakes: obs::Counter,
}

impl BackoffMetrics {
    /// Register the four counters as `{prefix}.spins`, `{prefix}.yields`,
    /// `{prefix}.parks`, `{prefix}.wakes`.
    pub fn registered(reg: &obs::Registry, prefix: &str) -> Self {
        Self {
            spins: reg.counter(&format!("{prefix}.spins")),
            yields: reg.counter(&format!("{prefix}.yields")),
            parks: reg.counter(&format!("{prefix}.parks")),
            wakes: reg.counter(&format!("{prefix}.wakes")),
        }
    }
}

/// Longest run of pauses between two looks of the spin phase.
const MAX_LOOK_GAP: u32 = 32;

/// An eventcount-flavored wake channel: cheap for notifiers when nobody
/// waits, a plain condvar when somebody does.
pub struct WakeSignal {
    /// Number of threads currently in (or entering) the park phase.
    waiters: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Default for WakeSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl WakeSignal {
    pub const fn new() -> Self {
        Self {
            waiters: AtomicU32::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wake every parked waiter. One atomic load when nobody is parked.
    ///
    /// The mutex is acquired (and immediately dropped) before `notify_all`
    /// so a waiter that has registered in `waiters` and is re-checking its
    /// condition under the lock cannot miss the signal. A waiter racing
    /// *into* registration can still miss one notify; its park timeout
    /// re-checks the condition, so the cost is bounded latency, never a
    /// hang.
    pub fn notify(&self) {
        // ORDERING: SeqCst keeps this load in a single total order with
        // the waiter's `fetch_add(waiters)` and both sides' condition
        // accesses — if the waiter registered before our condition update
        // became visible, we must see waiters > 0 here. Acquire/release
        // alone would allow the classic store-buffer reordering (both
        // sides miss each other) on which the wakeup is lost.
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Adaptively wait until `ready` returns `Some`, escalating
    /// spin → yield → park per `policy`. `ready` must be safe to call
    /// repeatedly from this thread; it is the only progress check.
    pub fn wait_until<R>(
        &self,
        policy: &WaitPolicy,
        metrics: &BackoffMetrics,
        mut ready: impl FnMut() -> Option<R>,
    ) -> R {
        // Phase 1: bounded spin — `policy.spins` pauses in all, with the
        // looks spaced 1, 2, 4, … pauses apart (capped). A look reads
        // lines the counterpart is about to write (a lane's `tail`); an
        // idle consumer that looks every pause takes the line back between
        // a producer's first push and its second, and the producer pays an
        // ownership transfer per push. Spacing the looks costs the first
        // wake-up at most one gap and leaves the time to the first yield
        // where it was. A condition that holds at the first look — every
        // post into a pool and a lane with room — records nothing: counting
        // zero spins would still be a locked read-modify-write.
        let (mut paused, mut gap) = (0, 1);
        while paused < policy.spins {
            if let Some(r) = ready() {
                if paused > 0 {
                    metrics.spins.add(u64::from(paused));
                }
                return r;
            }
            let pauses = gap.min(policy.spins - paused);
            check::hint::spin_pauses(pauses);
            paused += pauses;
            gap = (gap * 2).min(MAX_LOOK_GAP);
        }
        metrics.spins.add(u64::from(policy.spins));
        // Phase 2: bounded yield.
        for _ in 0..policy.yields {
            if let Some(r) = ready() {
                return r;
            }
            metrics.yields.inc();
            check::thread::yield_now();
        }
        // Phase 3: park until notified (or the timeout backstop fires).
        loop {
            // ORDERING: SeqCst pairs with the SeqCst waiters-load in
            // `notify` (see there): registration must be globally ordered
            // against the notifier's condition update, or both sides can
            // miss each other and the wakeup is lost.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let guard = self.lock.lock().unwrap();
            if let Some(r) = ready() {
                drop(guard);
                // ORDERING: SeqCst for symmetry with the registration
                // above; this is the unregister half of the same protocol.
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return r;
            }
            metrics.parks.inc();
            let (guard, _timed_out) = self.cv.wait_timeout(guard, policy.park_timeout).unwrap();
            drop(guard);
            // ORDERING: SeqCst — unregister half of the notify protocol,
            // as above.
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            metrics.wakes.inc();
            if let Some(r) = ready() {
                return r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::sync::atomic::AtomicBool;
    use check::thread;
    use std::sync::Arc;

    #[test]
    fn ready_immediately_never_parks() {
        let sig = WakeSignal::new();
        let m = BackoffMetrics::default();
        let got = sig.wait_until(&WaitPolicy::default(), &m, || Some(42));
        assert_eq!(got, 42);
    }

    #[test]
    fn notify_wakes_a_parked_waiter() {
        let sig = Arc::new(WakeSignal::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (sig, flag) = (sig.clone(), flag.clone());
            thread::spawn(move || {
                let m = BackoffMetrics::default();
                sig.wait_until(&WaitPolicy::eager_park(), &m, || {
                    flag.load(Ordering::Acquire).then_some(7)
                })
            })
        };
        // Give the waiter time to reach the park phase, then release it.
        thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::Release);
        sig.notify();
        assert_eq!(waiter.join().unwrap(), 7);
    }

    #[test]
    fn timeout_backstop_sees_condition_without_notify() {
        // A wake "lost" entirely (no notify at all) must still terminate
        // via the park timeout re-check.
        let sig = Arc::new(WakeSignal::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (sig, flag) = (sig.clone(), flag.clone());
            thread::spawn(move || {
                let m = BackoffMetrics::default();
                sig.wait_until(&WaitPolicy::eager_park(), &m, || {
                    flag.load(Ordering::Acquire).then_some(())
                })
            })
        };
        thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::Release);
        // Deliberately no notify(): the 1 ms wait_timeout must recover.
        waiter.join().unwrap();
    }

    #[cfg(feature = "obs-enabled")]
    #[test]
    fn park_and_wake_counters_fire() {
        let reg = obs::Registry::default();
        let m = BackoffMetrics::registered(&reg, "t");
        let sig = Arc::new(WakeSignal::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (sig, flag, m) = (sig.clone(), flag.clone(), m.clone());
            thread::spawn(move || {
                sig.wait_until(&WaitPolicy::eager_park(), &m, || {
                    flag.load(Ordering::Acquire).then_some(())
                })
            })
        };
        thread::sleep(Duration::from_millis(10));
        flag.store(true, Ordering::Release);
        sig.notify();
        waiter.join().unwrap();
        let snap = reg.snapshot();
        assert!(snap.counter("t.parks") >= 1, "waiter should have parked");
        assert!(snap.counter("t.wakes") >= 1, "waiter should have woken");
    }
}
