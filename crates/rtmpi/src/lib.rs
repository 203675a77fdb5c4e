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
//! (`crates/wire`), so the two live substrates agree on it by
//! construction. Payloads are handed off as `Arc<[u8]>` — one allocation,
//! no double indirection — which is also the shape of the wire backend's
//! receive buffers.

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

/// Reserved sub-range used by the live service loop's collective
/// schedules (`offload::Service`, whichever thread steps it):
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

struct ReqState {
    done: AtomicBool,
    result: Mutex<Option<(Status, Arc<[u8]>)>>,
    cv: Condvar,
}

/// Handle to a pending operation.
#[derive(Clone)]
pub struct RtRequest {
    state: Arc<ReqState>,
}

impl RtRequest {
    fn new() -> Self {
        Self {
            state: Arc::new(ReqState {
                done: AtomicBool::new(false),
                result: Mutex::new(None),
                cv: Condvar::new(),
            }),
        }
    }

    fn completed(status: Option<(Status, Arc<[u8]>)>) -> Self {
        let r = Self::new();
        r.complete(status);
        r
    }

    fn complete(&self, status: Option<(Status, Arc<[u8]>)>) {
        let mut g = self.state.result.lock();
        *g = status;
        // ORDERING: Release — publishes the result write to is_done()'s
        // Acquire for lock-free completion polling; waiters under the
        // mutex are covered by the lock itself.
        self.state.done.store(true, Ordering::Release);
        self.state.cv.notify_all();
    }

    /// Nonblocking completion check.
    pub fn is_done(&self) -> bool {
        // ORDERING: Acquire — pairs with complete()'s Release; a true
        // result licenses taking the payload.
        self.state.done.load(Ordering::Acquire)
    }

    /// Block the calling OS thread until completion; returns the payload
    /// for receives (`None` for sends).
    pub fn wait(&self) -> Option<(Status, Arc<[u8]>)> {
        let mut g = self.state.result.lock();
        // ORDERING: Acquire — same edge as is_done; the mutex alone would
        // suffice here, but the flag must stay coherent with the
        // lock-free fast path.
        while !self.state.done.load(Ordering::Acquire) {
            self.state.cv.wait(&mut g);
        }
        g.take()
    }

    /// Take the payload if complete.
    pub fn try_take(&self) -> Option<(Status, Arc<[u8]>)> {
        if self.is_done() {
            self.state.result.lock().take()
        } else {
            None
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

    /// Nonblocking send. Completes immediately (payload hand-off).
    pub fn isend(&self, dst: usize, tag: Tag, data: Arc<[u8]>) -> RtRequest {
        let mailbox = &self.world.ranks[dst].mail;
        let mut mail = mailbox.lock();
        if let Some(posted) = mail.take_posted(self.rank, tag) {
            let status = Status {
                source: self.rank,
                tag,
                len: data.len(),
            };
            posted.token.complete(Some((status, data)));
        } else {
            mail.push_unexpected(self.rank, tag, data);
        }
        RtRequest::completed(None)
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
            return RtRequest::completed(Some((status, u.msg)));
        }
        let req = RtRequest::new();
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
