//! Per-application-thread SPSC submission lanes.
//!
//! The paper's command queue serializes every MPI call from every
//! application thread through one shared structure. Our first cut was a
//! single Vyukov MPMC ring ([`crate::queue::MpmcQueue`]): correct, but at
//! ≥4 producer threads every push CASes the same head cursor and the same
//! cache line ping-pongs across cores — the shared-progress-resource
//! contention "MPI Progress For All" diagnoses. The fix is to shard the
//! producer side: a [`LaneSet`] gives each registered application thread
//! its own cache-line-padded SPSC ring ([`SpscRing`]), so a push is a
//! thread-local lookup of the lane, one store of the value, one release
//! store of the tail cursor and one counter tick — no CAS, and no line
//! the consumer writes.
//!
//! **What crosses cores, and what does not.** The two sides of a ring
//! hand off through exactly two things, the slot and the cursor that
//! publishes it. Everything else has one writer *and stays in that
//! writer's cache*: the producer keeps a private copy of the consumer's
//! cursor on its own padded line and re-reads the real one only when the
//! copy says full; the consumer reads `tail` and publishes `head` once per
//! drained lane batch, not per command; the sweep cursor
//! has a line of its own, away from the fields producers read on every
//! push; and the occupancy gauge is written by the consumer alone, from
//! the backlog each drain finds (`tail − head`). A cursor re-read per
//! command, or one gauge both sides update, is enough to make a lane
//! slower than the shared ring at one producer (DESIGN.md §10 has the
//! measurement and the table of lines one operation touches).
//!
//! The single offload thread remains the only consumer and drains lanes
//! **round-robin with a fair per-lane batch budget**: each sweep starts one
//! lane past where the previous sweep started and takes at most
//! `batch_budget` commands per lane, so a firehose thread cannot starve a
//! quiet one and no lane waits more than one sweep for service (the
//! fairness rule in DESIGN.md §10).
//!
//! Threads beyond the configured lane count (and unregistered one-off
//! threads) fall back to a shared MPMC **overflow** ring — sharded fast
//! path for the threads that matter, graceful degradation for the rest.
//!
//! Blocking behavior comes from [`crate::backoff`]: producers facing a
//! full lane park on `not_full` (notified after each drain), the consumer
//! facing an empty set parks on the `doorbell` (notified on push — one
//! atomic load when it is awake).

use crate::backoff::{BackoffMetrics, WaitPolicy, WakeSignal};
use crate::queue::MpmcQueue;
use check::cell::UnsafeCell;
use check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use check::sync::CachePadded;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::{Arc, Weak};

/// The producer's line: the cursor it publishes and its private copy of
/// the consumer's.
struct ProducerSide {
    /// Producer cursor (monotonic). Only the producer writes it.
    tail: AtomicUsize,
    /// Last `head` the producer read: `head_seen ≤ head`, so a ring that
    /// has room by the copy has room. Producer-only.
    head_seen: UnsafeCell<usize>,
}

/// A bounded single-producer single-consumer ring.
///
/// Contract: at most one thread calls [`push`](Self::push) and at most one
/// (possibly different) thread calls [`pop`](Self::pop) /
/// [`pop_batch`](Self::pop_batch), ever. [`LaneSet`] enforces this by
/// handing each lane to exactly one registered producer thread and
/// draining from the single offload thread.
///
/// The producer keeps a private copy of `head` next to `tail` and reads
/// the real one only when the copy says full, so in steady state a push
/// touches the consumer's line once per lap of the ring; the consumer has
/// one path, [`pop_batch`](Self::pop_batch), which touches the producer's
/// line once per batch.
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    prod: CachePadded<ProducerSide>,
    /// Consumer cursor (monotonic), on a line of its own. Only the
    /// consumer writes it.
    head: CachePadded<AtomicUsize>,
}

// SAFETY: the SPSC contract (one producer thread, one consumer thread)
// plus the release store on `tail` / acquire load in `pop_batch` hand each
// value off with a happens-before edge; a slot is never accessed by both
// sides at once because the cursors never cross, and the private cursor
// copy is touched by the producer only.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: as above — shared access is safe because the cursor protocol
// partitions the slots between the two sides.
unsafe impl<T: Send> Sync for SpscRing<T> {}

/// Publishes the consumer's position when a batch ends — also when the
/// batch's callback unwinds, so a value already moved out is never popped
/// (and dropped) a second time.
struct PublishHead<'a> {
    head: &'a AtomicUsize,
    pos: usize,
}

impl Drop for PublishHead<'_> {
    fn drop(&mut self) {
        // ORDERING: Release — hands the emptied slots back to the
        // producer's Acquire load of `head`.
        self.head.store(self.pos, Ordering::Release);
    }
}

impl<T> SpscRing<T> {
    pub fn new(capacity: usize) -> Self {
        Self::with_start_pos(capacity, 0)
    }

    /// As [`SpscRing::new`], but with both cursors starting at `start` —
    /// lets tests begin a hair below `usize::MAX` and prove the ring
    /// survives counter wraparound. Not part of the public API.
    #[doc(hidden)]
    pub fn with_start_pos(capacity: usize, start: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        // Never written here: an unclaimed lane's slots stay untouched
        // (and, fresh from the allocator, non-resident) memory.
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            buf,
            prod: CachePadded::new(ProducerSide {
                tail: AtomicUsize::new(start),
                head_seen: UnsafeCell::new(start),
            }),
            head: CachePadded::new(AtomicUsize::new(start)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Producer side. `Err(value)` when full.
    pub fn push(&self, value: T) -> Result<(), T> {
        // ORDERING: Relaxed on `tail` — the producer is its only writer,
        // so it always sees its own latest value.
        let tail = self.prod.tail.load(Ordering::Relaxed);
        // SAFETY: `head_seen` is the producer's own; nobody else touches it.
        let full_by_copy = self
            .prod
            .head_seen
            .with(|p| tail.wrapping_sub(unsafe { *p }) == self.buf.len());
        if full_by_copy {
            // ORDERING: Acquire on `head` pairs with the consumer's
            // Release, proving the slots below it were read out before we
            // overwrite them.
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: producer-only cell, as above.
            self.prod.head_seen.with_mut(|p| unsafe { *p = head });
            if tail.wrapping_sub(head) == self.buf.len() {
                return Err(value);
            }
        }
        // SAFETY: only the single producer writes slots, and the copy of
        // `head` (acquired at some earlier point, and `head` only grows)
        // proved this slot's previous value was consumed.
        self.buf[tail & (self.buf.len() - 1)].with_mut(|p| unsafe { (*p).write(value) });
        // ORDERING: Release — publishes the slot write to the consumer's
        // Acquire load of `tail`.
        self.prod
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Move the value at `pos` out of its slot.
    ///
    /// # Safety
    /// The caller is the consumer, and `pos` lies in `head..tail` for a
    /// `tail` it acquired, and has not been read out yet.
    // SAFETY: under that contract the producer published the slot and will
    // not touch it again until `head` moves past it.
    unsafe fn read_slot(&self, pos: usize) -> T {
        self.buf[pos & (self.buf.len() - 1)].with(|p| unsafe { (*p).assume_init_read() })
    }

    /// Consumer side, one value: a batch of one.
    pub fn pop(&self) -> Option<T> {
        let mut out = None;
        self.pop_batch(1, |v| out = Some(v));
        out
    }

    /// Consumer side, up to `max` values handed to `f` in order: one read
    /// of the producer's cursor and one publication of `head` for the
    /// whole batch — made when the last value has left its slot, before
    /// that value's callback runs, so an observer of [`len`](Self::len)
    /// sees the ring empty no later than it would after single pops.
    /// Returns how many were taken and how many were enqueued when the
    /// batch began.
    pub fn pop_batch(&self, max: usize, mut f: impl FnMut(T)) -> (usize, usize) {
        // ORDERING: Relaxed on `head` — the consumer is its only writer.
        let head = self.head.load(Ordering::Relaxed);
        // ORDERING: Acquire on `tail` pairs with the producer's Release,
        // making every value below it visible before we read its slot.
        let tail = self.prod.tail.load(Ordering::Acquire);
        let backlog = tail.wrapping_sub(head);
        let take = backlog.min(max);
        if take > 0 {
            let mut done = PublishHead {
                head: &self.head,
                pos: head,
            };
            for _ in 1..take {
                // SAFETY: `done.pos < head + take ≤ tail`, each read once.
                let value = unsafe { self.read_slot(done.pos) };
                done.pos = done.pos.wrapping_add(1);
                f(value);
            }
            // SAFETY: the last of the `take` published slots, read once.
            let last = unsafe { self.read_slot(done.pos) };
            done.pos = done.pos.wrapping_add(1);
            drop(done);
            f(last);
        }
        (take, backlog)
    }

    /// Racy size estimate — exact from the producer or consumer thread
    /// between its own calls, clamped to `[0, capacity]` for everyone else
    /// (the two cursor loads are not a snapshot, and `head` trails the
    /// consumer inside a batch).
    pub fn len(&self) -> usize {
        // ORDERING: Acquire/Acquire — exact for whichever cursor the
        // calling thread owns; for third parties this is an estimate (the
        // two loads are not a snapshot) and the clamp below absorbs that.
        let tail = self.prod.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        let diff = tail.wrapping_sub(head);
        if (diff as isize) < 0 {
            0
        } else {
            diff.min(self.buf.len())
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Counters and gauges for one [`LaneSet`]. ZSTs without obs.
#[derive(Clone, Default)]
pub struct LaneMetrics {
    /// Successful pushes (lane or overflow).
    pub push_ok: obs::Counter,
    /// Pushes that found the target ring full (each retry counts).
    pub push_full: obs::Counter,
    /// Pushes that landed in the shared overflow ring.
    pub overflow_push: obs::Counter,
    /// Commands enqueued across all lanes + overflow as the consumer's
    /// last drain left them; the high-water mark is the deepest backlog a
    /// drain found. Written by the consumer only.
    pub occupancy: obs::Gauge,
    /// Commands taken per non-empty drain sweep.
    pub drained_batch: obs::Histogram,
    /// Producer-side wait escalation (full lane → spin/yield/park).
    pub producer: BackoffMetrics,
}

impl LaneMetrics {
    pub fn registered(reg: &obs::Registry, prefix: &str) -> Self {
        Self {
            push_ok: reg.counter(&format!("{prefix}.push_ok")),
            push_full: reg.counter(&format!("{prefix}.push_full")),
            overflow_push: reg.counter(&format!("{prefix}.overflow_push")),
            occupancy: reg.gauge(&format!("{prefix}.occupancy")),
            drained_batch: reg.histogram(&format!("{prefix}.drained_batch")),
            producer: BackoffMetrics::registered(reg, &format!("{prefix}.producer")),
        }
    }
}

/// Every `LaneSet` gets a process-unique id so thread-local lane claims
/// never collide across sets (or across a set dropped and recreated).
static NEXT_SET_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's claim in one set: the lane index, or [`OVERFLOW`] for a
/// thread that arrived after all lanes were claimed. `alive` dies with
/// the set, which is how a claim is known to be prunable.
struct LaneClaim {
    set: u64,
    lane: u32,
    alive: Weak<()>,
}

thread_local! {
    /// This thread's claims, oldest first. Bounded by the sets alive when
    /// the newest claim was made: claiming prunes the claims of dropped
    /// sets.
    static LANE_CLAIMS: RefCell<Vec<LaneClaim>> = const { RefCell::new(Vec::new()) };
}

const OVERFLOW: u32 = u32::MAX;

/// Sharded MPSC command channel: N SPSC lanes + one MPMC overflow ring,
/// single consumer.
pub struct LaneSet<T> {
    id: u64,
    /// Dropped with the set; thread-local claims hold the weak side.
    alive: Arc<()>,
    lanes: Box<[SpscRing<T>]>,
    overflow: MpmcQueue<T>,
    /// Next unclaimed lane (first-come first-claimed, then overflow).
    next_lane: AtomicUsize,
    /// Producers ring this on push; the idle consumer parks on it.
    doorbell: WakeSignal,
    /// The consumer rings this after draining; full producers park on it.
    not_full: WakeSignal,
    policy: WaitPolicy,
    metrics: LaneMetrics,
    /// Consumer's rotating sweep start, for round-robin fairness. Written
    /// on every drain, so it has a line of its own: everything above is
    /// read by producers on every push.
    cursor: CachePadded<AtomicUsize>,
}

impl<T> LaneSet<T> {
    /// `lanes` dedicated SPSC rings of `lane_cap` each, plus an MPMC
    /// overflow ring of `overflow_cap`.
    pub fn new(lanes: usize, lane_cap: usize, overflow_cap: usize) -> Self {
        Self::with_metrics(lanes, lane_cap, overflow_cap, LaneMetrics::default())
    }

    pub fn with_metrics(
        lanes: usize,
        lane_cap: usize,
        overflow_cap: usize,
        metrics: LaneMetrics,
    ) -> Self {
        Self {
            // ORDERING: Relaxed — unique-ID tick; nothing is published.
            id: NEXT_SET_ID.fetch_add(1, Ordering::Relaxed),
            alive: Arc::new(()),
            lanes: (0..lanes.max(1)).map(|_| SpscRing::new(lane_cap)).collect(),
            overflow: MpmcQueue::with_capacity(overflow_cap),
            next_lane: AtomicUsize::new(0),
            doorbell: WakeSignal::new(),
            not_full: WakeSignal::new(),
            policy: WaitPolicy::default(),
            metrics,
            cursor: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Replace the wait policy used by blocked producers and the idle
    /// consumer. Model tests shrink the budgets so the schedule space
    /// stays explorable; production code keeps the default.
    pub fn set_wait_policy(&mut self, policy: WaitPolicy) {
        self.policy = policy;
    }

    pub fn metrics(&self) -> &LaneMetrics {
        &self.metrics
    }

    /// The lane this thread owns in this set, claiming one on first use.
    /// `None` means the thread pushes to the shared overflow ring.
    fn my_lane(&self) -> Option<usize> {
        LANE_CLAIMS.with(|claims| {
            let mut claims = claims.borrow_mut();
            // Newest first: a thread keeps pushing to the set it claimed
            // in last, whatever it claimed in before.
            let lane = match claims.iter().rev().find(|c| c.set == self.id) {
                Some(claim) => claim.lane,
                None => {
                    claims.retain(|c| c.alive.strong_count() > 0);
                    // ORDERING: Relaxed — atomicity alone makes claims
                    // unique; lane handoff synchronizes through the ring
                    // cursors, not here.
                    let claimed = self.next_lane.fetch_add(1, Ordering::Relaxed);
                    let lane = if claimed < self.lanes.len() {
                        claimed as u32
                    } else {
                        OVERFLOW
                    };
                    claims.push(LaneClaim {
                        set: self.id,
                        lane,
                        alive: Arc::downgrade(&self.alive),
                    });
                    lane
                }
            };
            (lane != OVERFLOW).then_some(lane as usize)
        })
    }

    /// Non-blocking push from the calling thread's lane (or overflow).
    pub fn push(&self, value: T) -> Result<(), T> {
        let (result, via_overflow) = match self.my_lane() {
            Some(lane) => (self.lanes[lane].push(value), false),
            None => (self.overflow.push(value), true),
        };
        match result {
            Ok(()) => {
                self.metrics.push_ok.inc();
                if via_overflow {
                    self.metrics.overflow_push.inc();
                }
                self.doorbell.notify();
                Ok(())
            }
            Err(v) => {
                self.metrics.push_full.inc();
                Err(v)
            }
        }
    }

    /// Push, adaptively waiting (spin → yield → park on `not_full`) while
    /// this thread's ring is full.
    pub fn push_blocking(&self, value: T) {
        let mut slot = Some(value);
        self.not_full
            .wait_until(&self.policy, &self.metrics.producer, || {
                match self.push(slot.take().expect("value still pending")) {
                    Ok(()) => Some(()),
                    Err(v) => {
                        slot = Some(v);
                        None
                    }
                }
            });
    }

    /// Drain up to `budget_per_lane` commands from each lane (and the
    /// overflow ring), rotating the sweep start for fairness. Returns the
    /// number drained. Consumer-only.
    pub fn drain(&self, budget_per_lane: usize, mut f: impl FnMut(T)) -> usize {
        let n = self.lanes.len();
        // ORDERING: Relaxed/Relaxed — consumer-only fairness cursor; no
        // other thread reads it, so there is nothing to order.
        let start = self.cursor.load(Ordering::Relaxed);
        self.cursor.store((start + 1) % n, Ordering::Relaxed);
        // `total` drained of the `backlog` this sweep found enqueued.
        let (mut total, mut backlog) = (0, 0);
        for i in 0..n {
            let lane = &self.lanes[(start + i) % n];
            // A batch takes what was enqueued when it began. One second
            // look picks up what the lane's producer pushed while that
            // batch was being handled, so a command a few hundred
            // nanoseconds behind its predecessor does not wait out a
            // service pass (+19 % on a two-command rendezvous round);
            // looking until the lane stays empty would chase a producer
            // one command at a time, taking its cursor line from it on
            // every push (+15 % on a 128-command window).
            let mut left = budget_per_lane;
            for _ in 0..2 {
                let (took, found) = lane.pop_batch(left, &mut f);
                if took == 0 {
                    break;
                }
                total += took;
                backlog += found;
                left -= took;
            }
        }
        let mut spilled = 0;
        while spilled < budget_per_lane {
            match self.overflow.pop() {
                Some(v) => {
                    f(v);
                    spilled += 1;
                }
                None => break,
            }
        }
        total += spilled;
        backlog += spilled;
        if spilled == budget_per_lane {
            backlog += self.overflow.approx_len();
        }
        if total > 0 {
            self.metrics.drained_batch.record(total as u64);
            // The consumer is the gauge's one writer: the depth it found
            // (which the high-water mark keeps), then what it left behind.
            self.metrics.occupancy.set(backlog as u64);
            self.metrics.occupancy.set((backlog - total) as u64);
            self.not_full.notify();
        }
        total
    }

    /// Approximate number of enqueued commands (racy; diagnostics only).
    pub fn approx_len(&self) -> usize {
        self.lanes.iter().map(SpscRing::len).sum::<usize>() + self.overflow.approx_len()
    }

    /// Any command enqueued anywhere? Consumer-side check; racy for others.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(SpscRing::is_empty) && self.overflow.approx_len() == 0
    }

    /// Park the consumer (spin → yield → park on the doorbell) until some
    /// producer pushes. Returns immediately if anything is enqueued.
    pub fn wait_nonempty(&self, metrics: &BackoffMetrics) {
        self.doorbell
            .wait_until(&self.policy, metrics, || (!self.is_empty()).then_some(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::thread;
    use std::sync::Arc;

    #[test]
    fn spsc_ring_round_trips_in_order() {
        let r = SpscRing::new(8);
        assert_eq!(r.capacity(), 8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        assert_eq!(r.push(99).unwrap_err(), 99);
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn spsc_ring_cross_thread_handoff() {
        let r = Arc::new(SpscRing::new(4));
        let n = 10_000u64;
        let producer = {
            let r = r.clone();
            thread::spawn(move || {
                for i in 0..n {
                    loop {
                        match r.push(i) {
                            Ok(()) => break,
                            Err(_) => thread::yield_now(),
                        }
                    }
                }
            })
        };
        let mut expect = 0;
        while expect < n {
            if let Some(v) = r.pop() {
                assert_eq!(v, expect, "SPSC must preserve order");
                expect += 1;
            } else {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn spsc_drop_releases_undained_items() {
        let r = SpscRing::new(8);
        let item = Arc::new(0u8);
        for _ in 0..5 {
            r.push(item.clone()).unwrap();
        }
        drop(r.pop());
        drop(r);
        assert_eq!(Arc::strong_count(&item), 1, "ring must drop what it holds");
    }

    #[test]
    fn each_thread_gets_its_own_lane_then_overflow() {
        let set = Arc::new(LaneSet::new(2, 8, 8));
        let workers: Vec<_> = (0..4u64)
            .map(|i| {
                let set = set.clone();
                thread::spawn(move || set.push(i).is_ok())
            })
            .collect();
        for w in workers {
            assert!(w.join().unwrap());
        }
        let mut got = Vec::new();
        set.drain(64, |v| got.push(v));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_thread_reuses_its_claim() {
        let set = LaneSet::<u32>::new(2, 4, 4);
        // Push more than one lane's capacity worth from a single thread:
        // if each push claimed a fresh lane this would spread out; a single
        // claim means the 5th push hits a full ring.
        for i in 0..4 {
            set.push(i).unwrap();
        }
        assert!(set.push(4).is_err(), "single lane of cap 4 must fill");
        let mut n = 0;
        set.drain(16, |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn drain_budget_is_fair_across_lanes() {
        // One firehose lane (this thread) and one quiet lane (helper
        // thread). A budgeted sweep must serve both, not drain the
        // firehose dry first.
        let set = Arc::new(LaneSet::new(2, 64, 8));
        for _ in 0..32 {
            set.push(1u8).unwrap();
        }
        let set2 = set.clone();
        thread::spawn(move || set2.push(2u8).unwrap())
            .join()
            .unwrap();
        let mut first_sweep = Vec::new();
        set.drain(4, |v| first_sweep.push(v));
        assert!(
            first_sweep.contains(&2),
            "budget 4 sweep must reach the quiet lane: {first_sweep:?}"
        );
        assert!(
            first_sweep.iter().filter(|&&v| v == 1).count() <= 4,
            "firehose lane must be capped at the per-lane budget"
        );
    }

    #[test]
    fn overflow_threads_still_deliver() {
        let set = Arc::new(LaneSet::new(1, 4, 64));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let set = set.clone();
                thread::spawn(move || {
                    for _ in 0..8 {
                        set.push_blocking(1u64);
                    }
                })
            })
            .collect();
        let mut drained = 0;
        while drained < 32 {
            drained += set.drain(8, |_| {});
            if drained < 32 {
                thread::yield_now();
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert!(set.is_empty());
    }

    /// The occupancy gauge has one writer, the consumer: it reads as the
    /// last drain left the lanes, and its high-water mark is the deepest
    /// backlog any drain found.
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn lane_metrics_track_pushes_and_occupancy() {
        let reg = obs::Registry::default();
        let set = LaneSet::with_metrics(2, 4, 4, LaneMetrics::registered(&reg, "lanes"));
        for i in 0..4u8 {
            set.push(i).unwrap();
        }
        assert!(set.push(9).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lanes.push_ok"), 4);
        assert_eq!(snap.counter("lanes.push_full"), 1);
        // Producers do not touch the gauge: nothing has drained yet.
        assert_eq!(snap.gauge("lanes.occupancy").value, 0);
        // A budgeted drain leaves part of the backlog behind...
        assert_eq!(set.drain(3, |_| {}), 3);
        let occ = reg.snapshot().gauge("lanes.occupancy");
        assert_eq!((occ.value, occ.high_water), (1, 4));
        // ...which the next one finds next to what was pushed since.
        set.push(4).unwrap();
        assert_eq!(set.drain(16, |_| {}), 2);
        let snap = reg.snapshot();
        let occ = snap.gauge("lanes.occupancy");
        assert_eq!((occ.value, occ.high_water), (0, 4));
        assert_eq!(snap.histogram("lanes.drained_batch").count, 2);
        // An empty sweep records nothing.
        assert_eq!(set.drain(16, |_| {}), 0);
        assert_eq!(reg.snapshot().histogram("lanes.drained_batch").count, 2);
    }

    #[test]
    fn spsc_ring_survives_cursor_wraparound() {
        let r = SpscRing::with_start_pos(4, usize::MAX - 5);
        for lap in 0..4u32 {
            for i in 0..4 {
                r.push(lap * 4 + i).unwrap();
            }
            assert_eq!(r.push(99).unwrap_err(), 99, "full on lap {lap}");
            assert_eq!(r.len(), 4);
            // Half by single pops, half as a batch.
            assert_eq!(r.pop(), Some(lap * 4));
            assert_eq!(r.pop(), Some(lap * 4 + 1));
            let mut got = Vec::new();
            assert_eq!(r.pop_batch(8, |v| got.push(v)), (2, 2));
            assert_eq!(got, vec![lap * 4 + 2, lap * 4 + 3]);
            assert_eq!(r.pop(), None);
        }
    }

    #[test]
    fn pop_batch_respects_its_budget_and_reports_the_backlog() {
        let r = SpscRing::new(8);
        for i in 0..6 {
            r.push(i).unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(r.pop_batch(4, |v| got.push(v)), (4, 6));
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_batch(4, |v| got.push(v)), (2, 2));
        assert_eq!(r.pop_batch(4, |v| got.push(v)), (0, 0));
        assert_eq!(got, (0..6).collect::<Vec<_>>());
    }

    /// A batch whose callback unwinds has still published how far it got:
    /// the value that was moved out is not popped (and dropped) again.
    #[test]
    fn pop_batch_publishes_its_position_when_the_callback_unwinds() {
        let r = SpscRing::new(8);
        let item = Arc::new(0u8);
        for _ in 0..4 {
            r.push(item.clone()).unwrap();
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut seen = 0;
            r.pop_batch(8, |_| {
                seen += 1;
                assert!(seen < 2, "second value refused");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(r.len(), 2, "two values were taken before the unwind");
        drop(r);
        assert_eq!(Arc::strong_count(&item), 1, "every value dropped once");
    }

    /// Satellite regression: the claim list used to keep one entry per set
    /// a thread ever pushed to, and was searched oldest first.
    #[test]
    fn lane_claims_are_bounded_by_the_sets_alive() {
        thread::spawn(|| {
            let mut ids = Vec::new();
            for i in 0..500u32 {
                let set = LaneSet::new(2, 4, 4);
                set.push(i).unwrap();
                ids.push(set.id);
            }
            let (a, b) = (LaneSet::new(2, 4, 4), LaneSet::new(2, 4, 4));
            a.push(1u32).unwrap();
            b.push(2u32).unwrap();
            // Claiming in `a` pruned the 500 dropped sets; `b` came after.
            let held = LANE_CLAIMS.with(|c| c.borrow().len());
            assert!(held <= 2, "{held} claims held for 2 live sets");
            // Ids are never reused, so a stale claim could not have
            // aliased a new set even before it was pruned.
            ids.extend([a.id, b.id]);
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 502);
            // Both live sets still resolve to their own (first) lane: a
            // second push lands behind the first, in the same ring.
            a.push(3).unwrap();
            b.push(4).unwrap();
            for set in [&a, &b] {
                assert_eq!((set.lanes[0].len(), set.lanes[1].len()), (2, 0));
            }
            let mut got = Vec::new();
            a.drain(8, |v| got.push(v));
            b.drain(8, |v| got.push(v));
            assert_eq!(got, vec![1, 3, 2, 4]);
        })
        .join()
        .unwrap();
    }

    #[cfg(feature = "obs-enabled")]
    #[test]
    fn full_lane_parks_the_producer() {
        // Satellite regression shape at the LaneSet level: a producer
        // against a stalled consumer must park, not spin.
        let reg = obs::Registry::default();
        let set = Arc::new(LaneSet::with_metrics(
            1,
            2,
            2,
            LaneMetrics::registered(&reg, "lanes"),
        ));
        let producer = {
            let set = set.clone();
            thread::spawn(move || {
                for i in 0..8u32 {
                    set.push_blocking(i);
                }
            })
        };
        // Wait until the producer has demonstrably parked.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while reg.snapshot().counter("lanes.producer.parks") == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "producer never parked against a stalled consumer"
            );
            thread::yield_now();
        }
        // Unstall the consumer and let everything through.
        let mut drained = 0;
        while drained < 8 {
            drained += set.drain(4, |_| {});
        }
        producer.join().unwrap();
        assert!(reg.snapshot().counter("lanes.producer.wakes") >= 1);
    }
}
