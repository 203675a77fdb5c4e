//! `rtmpi` — a small, real-threads, in-process message-passing layer.
//!
//! This is the *live-mode* substrate: it lets the paper's offload
//! infrastructure (the lock-free command queue, request pool, and dedicated
//! offload thread in the `offload` crate) run with actual OS threads, so
//! the real data structures are exercised end-to-end and the examples are
//! runnable programs rather than simulations.
//!
//! Scope: correctness, not wire fidelity. Messages are delivered
//! push-style through per-rank mailboxes (an "eager protocol" for every
//! size, with `Arc` payload hand-off standing in for the shared-address-
//! space zero-copy of the paper's design). Protocol *timing* behaviour —
//! eager/rendezvous crossover, progress stalls, lock contention costs — is
//! the domain of the `mpisim` discrete-event model, because on this
//! machine real-thread timing measures the host scheduler, not the
//! modelled system (see DESIGN.md).
//!
//! Matching follows MPI rules: FIFO per (source, tag) with wildcard
//! support, unexpected-message buffering, probe. The matching logic lives
//! in [`matchq`] and is shared with the socket wire backend
//! (`crates/wire`) and the simulator (`mpisim`), so the substrates agree
//! on it by construction. Payloads are handed off as `Arc<[u8]>` — one
//! allocation, no double indirection — which is also the shape of the
//! wire backend's receive buffers.
//!
//! **Requests.** Delivery is push-style, so most operations are over by
//! the time their call returns: every send (the payload is handed off),
//! and every receive that finds its message waiting. Their [`RtRequest`]
//! carries the outcome inline — no heap node, nothing shared, nothing to
//! signal. Only a receive that has to wait allocates: one node shared
//! with the mailbox, which the matching sender fills under the node's
//! lock. Behind an offload thread nobody blocks on that node (the
//! service loop polls [`RtRequest::is_done`]), so the completer wakes the
//! condvar only when a blocked [`RtRequest::wait`] has registered itself
//! under the same lock: one operation's life on this substrate costs no
//! syscall, and `RtMpi::recv`/`send` still block correctly
//! (`offload-lint`'s `guarded-notify` rule keeps it that way).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

#[cfg(feature = "model-faults")]
pub mod faults;
pub mod matchq;
pub mod transport;

pub use matchq::MatchQueue;
pub use transport::{OpOutcome, Transport, TransportError};

/// Message tag.
pub type Tag = u32;

/// Tags at or above this value are reserved for internal protocol traffic
/// (collective round schedules, barrier tokens). Application sends must
/// stay below it, and — crucially — wildcard (`ANY_TAG`) receives never
/// match reserved tags, so an application `ANY_TAG` recv can never steal a
/// collective round or barrier token mid-flight. This is *the* shared
/// constant: `mpisim` and the live service loop (`offload::Service`)
/// derive their reserved ranges from here.
pub const TAG_RESERVED_BASE: Tag = 0x7000_0000;

/// Reserved sub-range used by every collective schedule — the live
/// service loop's (`offload::Service`, whichever thread steps it) and the
/// simulator's (`mpisim::Mpi::icollective`):
/// `[TAG_COLL_BASE, TAG_COLL_BASE + TAG_COLL_SPAN)`.
pub const TAG_COLL_BASE: Tag = TAG_RESERVED_BASE;

/// Width of the reserved collective sub-range; per-collective tags are
/// `TAG_COLL_BASE + (seq % TAG_COLL_SPAN)`.
pub const TAG_COLL_SPAN: Tag = 0x1000_0000;

/// Completion status of a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    pub source: usize,
    pub tag: Tag,
    pub len: usize,
}

/// What a completed request resolved to: the payload of a receive,
/// `None` for a send.
type Outcome = Option<(Status, Arc<[u8]>)>;

/// The shared half of a receive that found no message waiting: the
/// mailbox keeps one handle (the completer's), the caller the other.
struct PendingRecv {
    /// Lock-free completion flag for `is_done`; written under `state`'s
    /// lock, so blocking waiters need no fence against it.
    done: AtomicBool,
    state: Mutex<PendingState>,
    cv: Condvar,
}

struct PendingState {
    outcome: Outcome,
    /// Threads blocked in [`RtRequest::wait`]. The completer notifies only
    /// when this is non-zero: std's futex condvar has no waiter check of
    /// its own, so an unconditional notify is a `futex(WAKE)` syscall per
    /// message that — behind an offload thread, which polls — nobody is
    /// ever waiting for.
    waiters: u32,
}

enum Repr {
    /// Completed at hand-off (every send, and a receive that found its
    /// message waiting): the outcome travels in the handle, no heap node.
    Ready(Cell<Outcome>),
    /// A posted receive, completed later by the matching sender.
    Pending(Arc<PendingRecv>),
}

/// Handle to an operation. `Send`, not `Sync`: like a transport, a handle
/// is used by one thread at a time.
///
/// A request yields its outcome once, among all its clones: clones of a
/// pending receive share its node, and a clone of a handle that was
/// complete when it was made is complete and empty — the outcome stays
/// with the handle it was born in.
pub struct RtRequest(Repr);

impl Clone for RtRequest {
    fn clone(&self) -> Self {
        RtRequest(match &self.0 {
            Repr::Ready(_) => Repr::Ready(Cell::new(None)),
            Repr::Pending(node) => Repr::Pending(node.clone()),
        })
    }
}

impl RtRequest {
    fn ready(outcome: Outcome) -> Self {
        RtRequest(Repr::Ready(Cell::new(outcome)))
    }

    fn pending() -> Self {
        RtRequest(Repr::Pending(Arc::new(PendingRecv {
            done: AtomicBool::new(false),
            state: Mutex::new(PendingState {
                outcome: None,
                waiters: 0,
            }),
            cv: Condvar::new(),
        })))
    }

    /// Deliver to a posted receive. Called by the matching sender, once.
    fn complete(&self, status: Status, data: Arc<[u8]>) {
        let Repr::Pending(node) = &self.0 else {
            unreachable!("only pending receives are posted to a mailbox");
        };
        let mut st = node.state.lock();
        st.outcome = Some((status, data));
        // ORDERING: Release — publishes the outcome to is_done()'s Acquire
        // for lock-free completion polling. Blocking waiters are covered
        // by the lock: they register in `waiters` and re-check `done`
        // under it, so either they see the flag or we see them.
        node.done.store(true, Ordering::Release);
        let wake = st.waiters > 0;
        drop(st);
        if wake {
            node.cv.notify_all();
        }
    }

    /// Nonblocking completion check.
    pub fn is_done(&self) -> bool {
        match &self.0 {
            Repr::Ready(_) => true,
            // ORDERING: Acquire — pairs with complete()'s Release; a true
            // result licenses taking the payload.
            Repr::Pending(node) => node.done.load(Ordering::Acquire),
        }
    }

    /// Block the calling OS thread until completion; returns the payload
    /// for receives (`None` for sends).
    pub fn wait(&self) -> Option<(Status, Arc<[u8]>)> {
        let node = match &self.0 {
            Repr::Ready(cell) => return cell.take(),
            Repr::Pending(node) => node,
        };
        let mut st = node.state.lock();
        // ORDERING: Relaxed — `done` is only ever stored under this lock,
        // which we hold; the lock orders it.
        while !node.done.load(Ordering::Relaxed) {
            st.waiters += 1;
            node.cv.wait(&mut st);
            st.waiters -= 1;
        }
        st.outcome.take()
    }

    /// Take the payload if complete.
    pub fn try_take(&self) -> Option<(Status, Arc<[u8]>)> {
        match &self.0 {
            Repr::Ready(cell) => cell.take(),
            Repr::Pending(node) if self.is_done() => node.state.lock().outcome.take(),
            Repr::Pending(_) => None,
        }
    }
}

struct RankShared {
    mail: Mutex<MatchQueue<RtRequest, Arc<[u8]>>>,
}

type CollResult = Arc<Vec<Arc<[u8]>>>;

struct CollSlot {
    contributions: Mutex<Vec<Option<Arc<[u8]>>>>,
    result: Mutex<Option<CollResult>>,
    arrived: Mutex<usize>,
    generation: Mutex<u64>,
    cv: Condvar,
}

struct WorldShared {
    ranks: Vec<RankShared>,
    coll: CollSlot,
}

/// One rank's handle onto the in-process world. `Send`: move each handle to
/// its own OS thread.
pub struct RtMpi {
    world: Arc<WorldShared>,
    rank: usize,
}

/// Create an `n`-rank world; hand one handle to each thread.
pub fn world(n: usize) -> Vec<RtMpi> {
    assert!(n > 0);
    let shared = Arc::new(WorldShared {
        ranks: (0..n)
            .map(|_| RankShared {
                mail: Mutex::new(MatchQueue::new()),
            })
            .collect(),
        coll: CollSlot {
            contributions: Mutex::new(vec![None; n]),
            result: Mutex::new(None),
            arrived: Mutex::new(0),
            generation: Mutex::new(0),
            cv: Condvar::new(),
        },
    });
    (0..n)
        .map(|rank| RtMpi {
            world: shared.clone(),
            rank,
        })
        .collect()
}

impl RtMpi {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.world.ranks.len()
    }

    /// Nonblocking send. Completes immediately (payload hand-off), so the
    /// returned handle is born complete and costs no allocation.
    pub fn isend(&self, dst: usize, tag: Tag, data: Arc<[u8]>) -> RtRequest {
        let posted = {
            let mut mail = self.world.ranks[dst].mail.lock();
            match mail.take_posted(self.rank, tag) {
                Some(posted) => posted,
                None => {
                    mail.push_unexpected(self.rank, tag, data);
                    return RtRequest::ready(None);
                }
            }
        };
        // The match was decided under the mailbox lock; the delivery needs
        // only the receive's own node.
        let status = Status {
            source: self.rank,
            tag,
            len: data.len(),
        };
        posted.token.complete(status, data);
        RtRequest::ready(None)
    }

    /// Nonblocking receive; `None` filters are wildcards.
    pub fn irecv(&self, src: Option<usize>, tag: Option<Tag>) -> RtRequest {
        let mut mail = self.world.ranks[self.rank].mail.lock();
        if let Some(u) = mail.take_unexpected(src, tag) {
            let status = Status {
                source: u.src,
                tag: u.tag,
                len: u.msg.len(),
            };
            return RtRequest::ready(Some((status, u.msg)));
        }
        let req = RtRequest::pending();
        mail.push_posted(src, tag, req.clone());
        req
    }

    /// Blocking send.
    pub fn send(&self, dst: usize, tag: Tag, data: Arc<[u8]>) {
        self.isend(dst, tag, data).wait();
    }

    /// Blocking receive.
    pub fn recv(&self, src: Option<usize>, tag: Option<Tag>) -> (Status, Arc<[u8]>) {
        self.irecv(src, tag).wait().expect("recv yields payload")
    }

    /// Blocking receive into a caller-provided buffer, truncating when the
    /// arrival is larger (MPI's receive-count semantics: `Status.len`
    /// reports the bytes actually delivered into `buf`, never more than
    /// its capacity).
    pub fn recv_into(&self, src: Option<usize>, tag: Option<Tag>, buf: &mut [u8]) -> Status {
        let (st, data) = self.recv(src, tag);
        let n = st.len.min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        Status { len: n, ..st }
    }

    /// Is a matching message waiting unexpectedly?
    pub fn iprobe(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Status> {
        let mail = self.world.ranks[self.rank].mail.lock();
        mail.probe(src, tag).map(|(s, t, d)| Status {
            source: s,
            tag: t,
            len: d.len(),
        })
    }

    /// Generation-counted reusable barrier across all ranks.
    pub fn barrier(&self) {
        let coll = &self.world.coll;
        let n = self.size();
        let mut arrived = coll.arrived.lock();
        let my_gen = *coll.generation.lock();
        *arrived += 1;
        if *arrived == n {
            *arrived = 0;
            *coll.generation.lock() += 1;
            coll.cv.notify_all();
        } else {
            while *coll.generation.lock() == my_gen {
                coll.cv.wait(&mut arrived);
            }
        }
    }

    /// Allgather: returns all contributions indexed by rank. Also the
    /// building block for the other collectives.
    pub fn allgather(&self, mine: Arc<[u8]>) -> Vec<Arc<[u8]>> {
        let coll = &self.world.coll;
        let n = self.size();
        let mut arrived = coll.arrived.lock();
        let my_gen = *coll.generation.lock();
        coll.contributions.lock()[self.rank] = Some(mine);
        *arrived += 1;
        if *arrived == n {
            // Leader: assemble, publish, release.
            let gathered: Vec<Arc<[u8]>> = coll
                .contributions
                .lock()
                .iter_mut()
                .map(|c| c.take().expect("all contributions present"))
                .collect();
            *coll.result.lock() = Some(Arc::new(gathered));
            *arrived = 0;
            *coll.generation.lock() += 1;
            coll.cv.notify_all();
        } else {
            while *coll.generation.lock() == my_gen {
                coll.cv.wait(&mut arrived);
            }
        }
        drop(arrived);
        let result = coll
            .result
            .lock()
            .as_ref()
            .expect("result published")
            .clone();
        result.as_ref().clone()
    }

    /// Sum-allreduce over f64 lanes.
    pub fn allreduce_f64_sum(&self, mine: &[f64]) -> Vec<f64> {
        let bytes: Vec<u8> = mine.iter().flat_map(|x| x.to_le_bytes()).collect();
        let all = self.allgather(Arc::from(bytes));
        let mut acc = vec![0.0f64; mine.len()];
        for contrib in &all {
            for (i, c) in contrib.chunks_exact(8).enumerate() {
                acc[i] += f64::from_le_bytes(c.try_into().expect("8-byte lane"));
            }
        }
        acc
    }

    /// All-to-all of `block`-byte blocks: input holds `n` blocks, block `i`
    /// for rank `i`; returns the transposed blocks.
    pub fn alltoall(&self, input: &[u8], block: usize) -> Vec<u8> {
        let n = self.size();
        assert_eq!(input.len(), n * block);
        let all = self.allgather(Arc::from(input));
        let mut out = vec![0u8; n * block];
        for (src, contrib) in all.iter().enumerate() {
            out[src * block..(src + 1) * block]
                .copy_from_slice(&contrib[self.rank * block..(self.rank + 1) * block]);
        }
        out
    }

    /// Broadcast from `root`.
    pub fn bcast(&self, root: usize, mine: Option<Arc<[u8]>>) -> Arc<[u8]> {
        let contribution = if self.rank == root {
            mine.expect("root provides payload")
        } else {
            Arc::from(Vec::new())
        };
        let all = self.allgather(contribution);
        all[root].clone()
    }
}

impl Transport for RtMpi {
    type Req = RtRequest;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.ranks.len()
    }

    fn isend(&mut self, dst: usize, tag: Tag, data: Arc<[u8]>) -> RtRequest {
        RtMpi::isend(self, dst, tag, data)
    }

    fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> RtRequest {
        RtMpi::irecv(self, src, tag)
    }

    /// Push-style delivery: sends complete receives directly, there is no
    /// pending wire state to drive.
    fn progress(&mut self) -> bool {
        false
    }

    fn is_done(&mut self, req: &RtRequest) -> bool {
        req.is_done()
    }

    fn try_take(&mut self, req: &RtRequest) -> Option<Result<OpOutcome, TransportError>> {
        if !req.is_done() {
            return None;
        }
        Some(Ok(match req.try_take() {
            Some((st, data)) => OpOutcome::Received(st, data),
            None => OpOutcome::Sent,
        }))
    }

    fn needs_progress(&self) -> bool {
        false
    }

    fn iprobe(&mut self, src: Option<usize>, tag: Option<Tag>) -> Option<Status> {
        RtMpi::iprobe(self, src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn spawn_world<T: Send + 'static>(
        n: usize,
        f: impl Fn(RtMpi) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let handles: Vec<_> = world(n)
            .into_iter()
            .map(|mpi| {
                let f = f.clone();
                thread::spawn(move || f(mpi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    }

    #[test]
    fn ping_pong_roundtrip() {
        let outs = spawn_world(2, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 5, Arc::from(vec![1, 2, 3]));
                let (_, d) = mpi.recv(Some(1), Some(6));
                d.to_vec()
            } else {
                let (_, d) = mpi.recv(Some(0), Some(5));
                let mut back = d.to_vec();
                back.push(4);
                mpi.send(0, 6, Arc::from(back));
                Vec::new()
            }
        });
        assert_eq!(outs[0], vec![1, 2, 3, 4]);
    }

    #[test]
    fn unexpected_message_is_buffered() {
        let outs = spawn_world(2, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, Arc::from(vec![9]));
                mpi.barrier();
                0
            } else {
                mpi.barrier(); // message certainly sent before we post
                let (_, d) = mpi.recv(Some(0), Some(1));
                d[0]
            }
        });
        assert_eq!(outs[1], 9);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let outs = spawn_world(2, |mpi| {
            if mpi.rank() == 0 {
                for i in 0..20u8 {
                    mpi.send(1, 3, Arc::from(vec![i]));
                }
                Vec::new()
            } else {
                (0..20).map(|_| mpi.recv(Some(0), Some(3)).1[0]).collect()
            }
        });
        assert_eq!(outs[1], (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn wildcards_match_any() {
        let outs = spawn_world(3, |mpi| {
            if mpi.rank() == 0 {
                let (s1, _) = mpi.recv(None, None);
                let (s2, _) = mpi.recv(None, None);
                let mut srcs = vec![s1.source, s2.source];
                srcs.sort_unstable();
                srcs
            } else {
                mpi.send(0, 10 + mpi.rank() as u32, Arc::from(vec![0]));
                Vec::new()
            }
        });
        assert_eq!(outs[0], vec![1, 2]);
    }

    #[test]
    fn barrier_is_reusable() {
        let outs = spawn_world(4, |mpi| {
            let mut x = 0u32;
            for _ in 0..50 {
                mpi.barrier();
                x += 1;
            }
            x
        });
        assert_eq!(outs, vec![50; 4]);
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let outs = spawn_world(3, |mpi| {
            let all = mpi.allgather(Arc::from(vec![mpi.rank() as u8; 2]));
            all.iter().map(|v| v[0]).collect::<Vec<_>>()
        });
        for o in outs {
            assert_eq!(o, vec![0, 1, 2]);
        }
    }

    #[test]
    fn allreduce_sums() {
        let outs = spawn_world(4, |mpi| mpi.allreduce_f64_sum(&[mpi.rank() as f64, 2.0]));
        for o in outs {
            assert_eq!(o, vec![6.0, 8.0]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let outs = spawn_world(3, |mpi| {
            let input: Vec<u8> = (0..3).map(|d| (mpi.rank() * 3 + d) as u8).collect();
            mpi.alltoall(&input, 1)
        });
        // out[rank][src] = src*3 + rank
        for (r, o) in outs.iter().enumerate() {
            let expect: Vec<u8> = (0..3).map(|s| (s * 3 + r) as u8).collect();
            assert_eq!(o, &expect);
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let outs = spawn_world(3, |mpi| {
            let payload = (mpi.rank() == 2).then(|| Arc::from(vec![7u8, 8]));
            mpi.bcast(2, payload).to_vec()
        });
        for o in outs {
            assert_eq!(o, vec![7, 8]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_generations() {
        let outs = spawn_world(3, |mpi| {
            let mut sums = Vec::new();
            for round in 0..10 {
                let s = mpi.allreduce_f64_sum(&[(mpi.rank() + round) as f64]);
                sums.push(s[0]);
            }
            sums
        });
        for o in outs {
            let expect: Vec<f64> = (0..10).map(|r| (3 * r + 3) as f64).collect();
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn recv_into_status_len_matches_delivered_bytes() {
        let outs = spawn_world(2, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 7, Arc::from((0u8..17).collect::<Vec<u8>>()));
                mpi.send(1, 8, Arc::from((0u8..17).collect::<Vec<u8>>()));
                (0, Vec::new())
            } else {
                // Arrival larger than the buffer: truncate, report what fit.
                let mut small = [0u8; 8];
                let st = mpi.recv_into(Some(0), Some(7), &mut small);
                assert_eq!(st.len, 8);
                assert_eq!(&small, &[0, 1, 2, 3, 4, 5, 6, 7]);
                // Buffer larger than the arrival: report the true length.
                let mut big = [0xffu8; 32];
                let st2 = mpi.recv_into(Some(0), Some(8), &mut big);
                assert_eq!(st2.len, 17);
                assert!(big[17..].iter().all(|&b| b == 0xff));
                (st.len, big[..st2.len].to_vec())
            }
        });
        assert_eq!(outs[1].1, (0u8..17).collect::<Vec<u8>>());
    }

    /// Run `f` on its own thread and fail — rather than stall the whole
    /// test run — if it has not returned within `secs`.
    fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let body = thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        // A closed channel is a panic in `f`, which the join reports; only
        // a body still running is abandoned.
        if rx.recv_timeout(std::time::Duration::from_secs(secs))
            == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
        {
            panic!("timed out: a blocked receiver was never woken");
        }
        body.join().expect("test body");
    }

    /// The completer notifies only when a waiter has registered, so the
    /// case to defend is the waiter that blocked first. A lost notify is a
    /// hang, which the hard limit turns into a failure.
    #[test]
    fn receiver_blocked_before_the_send_is_woken() {
        within(60, || {
            let gate = Arc::new(std::sync::Barrier::new(2));
            spawn_world(2, move |mpi| {
                // The interpreter takes its time over a thread hand-off.
                let rounds = if cfg!(miri) { 50 } else { 2_000u32 };
                for i in 0..rounds {
                    gate.wait();
                    if mpi.rank() == 0 {
                        // Odd rounds give the receiver time to block; even
                        // rounds race it through registration.
                        if i % 2 == 1 {
                            thread::sleep(std::time::Duration::from_micros(50));
                        }
                        mpi.send(1, 9, Arc::from(i.to_le_bytes().to_vec()));
                    } else {
                        let (st, d) = mpi.recv(Some(0), Some(9));
                        assert_eq!((st.source, st.len), (0, 4));
                        assert_eq!(d[..], i.to_le_bytes());
                    }
                }
            });
        });
    }

    #[test]
    fn pending_receive_yields_its_payload_once_among_clones() {
        let mut w = world(2);
        let (w1, w0) = (w.pop().expect("rank 1"), w.pop().expect("rank 0"));
        let rx = w1.irecv(Some(0), Some(1));
        let twin = rx.clone();
        assert!(!rx.is_done() && !twin.is_done());
        assert!(rx.try_take().is_none(), "nothing to take while pending");
        thread::spawn(move || w0.send(1, 1, Arc::from(vec![5u8, 6])))
            .join()
            .expect("sender");
        assert!(rx.is_done() && twin.is_done(), "clones share the node");
        // Taken on yet another thread: the handle is `Send`.
        let taken = thread::spawn(move || twin.try_take())
            .join()
            .expect("taker");
        let (st, d) = taken.expect("completed receive yields its payload");
        assert_eq!(
            (st.source, st.tag, st.len, &d[..]),
            (0, 1, 2, &[5u8, 6][..])
        );
        assert!(rx.try_take().is_none(), "the payload is taken once");
        assert!(rx.wait().is_none(), "and a late wait does not block");
    }

    #[test]
    fn handle_complete_at_hand_off_carries_its_outcome() {
        let w = world(2);
        let tx = w[0].isend(1, 2, Arc::from(vec![1u8, 2, 3]));
        assert!(tx.is_done() && tx.clone().is_done());
        assert!(tx.wait().is_none(), "a send has no payload");
        // The message is waiting, so the receive is complete when posted.
        let rx = w[1].irecv(None, None);
        assert!(rx.is_done());
        let copy = rx.clone();
        let (st, d) = rx.try_take().expect("payload");
        assert_eq!((st.source, st.tag, &d[..]), (0, 2, &[1u8, 2, 3][..]));
        assert!(rx.try_take().is_none(), "each handle yields once");
        // Once among clones too: the outcome stayed with the original.
        assert!(copy.is_done() && copy.wait().is_none());
    }

    #[test]
    fn iprobe_reports_without_consuming() {
        let outs = spawn_world(2, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 4, Arc::from(vec![0u8; 17]));
                mpi.barrier();
                true
            } else {
                mpi.barrier();
                let st = mpi.iprobe(Some(0), None).expect("probe finds it");
                assert_eq!(st.len, 17);
                assert!(mpi.iprobe(Some(0), Some(4)).is_some());
                let (_, d) = mpi.recv(Some(0), Some(4));
                d.len() == 17
            }
        });
        assert!(outs[1]);
    }
}
