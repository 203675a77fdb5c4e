//! Model-checked tests for `rtmpi`'s request: a done flag the owner polls
//! lock-free, an outcome cell and a counted-waiter condvar, all through
//! the `check` facade. Under the model lane (`RUSTFLAGS=--cfg
//! offload_model`) the scheduler explores every interleaving of the
//! completer (`isend` on another thread) with the owner's poll, take or
//! blocking wait, and the vector-clock detector validates the outcome's
//! handoff. In a plain build each closure runs once on std as a smoke
//! test.
//!
//! The teeth test needs the `model-faults` feature (it arms
//! `rtmpi::faults::set_notify_decided_early`) and the instrumented build.

use std::sync::Arc;

use check::thread;

/// A DFS budget for tests with poll loops, whose schedule space is too
/// large to exhaust — same rationale as the ring's model tests.
fn capped_dfs() -> check::Config {
    let mut cfg = check::Config::dfs();
    cfg.max_schedules = 2_000;
    cfg
}

/// The exploration floor of a capped DFS: the bounded schedule space was
/// either enumerated or explored up to the cap — never a run that
/// collapsed to a handful of schedules and passed vacuously. (A plain
/// build runs each closure once.)
fn explored_to_the_floor(st: &check::Stats) {
    if cfg!(offload_model) {
        let cap = capped_dfs().max_schedules;
        assert!(
            st.exhausted || st.schedules + st.pruned >= cap,
            "explored {} schedules ({} pruned) of a {cap} cap, not exhausted",
            st.schedules,
            st.pruned
        );
    }
}

/// A two-rank world with a receive posted on rank 1 (so the send below
/// completes it, rather than queueing unexpected), and rank 0's handle.
fn posted_receive() -> (rtmpi::RtRequest, rtmpi::RtMpi) {
    let mut w = rtmpi::world(2);
    let (r1, r0) = (w.pop().expect("rank 1"), w.pop().expect("rank 0"));
    let rx = r1.irecv(Some(0), Some(7));
    assert!(!rx.is_done(), "nothing was sent yet");
    (rx, r0)
}

/// The offload thread's use of a request: poll `is_done`, then take. The
/// completer writes the outcome under the node's lock and publishes
/// `done` with Release; the owner's Acquire poll must see the payload
/// whenever it sees the flag, on every schedule.
#[test]
fn a_polled_receive_yields_its_payload_once_the_flag_is_seen() {
    let st = check::model_with(capped_dfs(), || {
        let (rx, r0) = posted_receive();
        let sender = thread::spawn(move || {
            r0.isend(1, 7, Arc::from(vec![1u8, 2, 3]));
        });
        while !rx.is_done() {
            thread::yield_now();
        }
        let (st, d) = rx
            .try_take()
            .expect("the payload is there once the flag is");
        assert_eq!(
            (st.source, st.tag, st.len, &d[..]),
            (0, 7, 3, &[1u8, 2, 3][..])
        );
        assert!(rx.try_take().is_none(), "the payload is taken once");
        sender.join().unwrap();
    });
    explored_to_the_floor(&st);
}

/// The blocking side: `wait` registers in `waiters` and re-checks `done`
/// under the lock, and the completer notifies only when it sees a
/// registered waiter. Either the waiter sees the flag or the completer
/// sees the waiter, so no schedule loses the wakeup (the checker reports
/// a blocked thread with nobody to wake it as a deadlock), and every
/// waiter deregisters on the way out.
#[test]
fn a_blocking_wait_racing_the_completer_is_always_woken() {
    let st = check::model_with(capped_dfs(), || {
        let (rx, r0) = posted_receive();
        let sender = thread::spawn(move || {
            r0.isend(1, 7, Arc::from(vec![9u8]));
        });
        let (st, d) = rx.wait().expect("a receive yields its payload");
        assert_eq!((st.source, st.len, &d[..]), (0, 1, &[9u8][..]));
        #[cfg(feature = "model-faults")]
        assert_eq!(rx.waiters(), 0, "the waiter deregistered");
        sender.join().unwrap();
    });
    explored_to_the_floor(&st);
}

/// Teeth: the completer decides whether to notify from a `waiters` read in
/// a lock section of its own, before it publishes `done`. The waiter can
/// then register and block between that read and the publish, and nobody
/// wakes it. The flag is thread-local, so the completing thread arms it.
#[cfg(all(offload_model, feature = "model-faults"))]
#[test]
fn a_notify_decided_before_the_publish_is_caught_as_a_deadlock() {
    let cfg = check::Config {
        capture_stacks: false,
        ..check::Config::default()
    };
    let failure = check::explore(cfg, || {
        let (rx, r0) = posted_receive();
        let sender = thread::spawn(move || {
            rtmpi::faults::set_notify_decided_early(true);
            r0.isend(1, 7, Arc::from(vec![9u8]));
        });
        rx.wait();
        sender.join().unwrap();
    })
    .expect_err("the checker must catch the lost wakeup");
    assert_eq!(failure.kind, check::FailureKind::Deadlock, "{failure}");
    assert!(
        !failure.schedule.is_empty(),
        "a deadlock must carry a replayable schedule: {failure}"
    );
}
