//! Live mode: the offload infrastructure on real OS threads (paper §3).
//!
//! One dedicated offload thread per rank drains the lock-free command
//! lanes ([`crate::lane`]) into the rank's [`Service`] and steps it in a
//! loop; it is the only thread that touches the message layer. The message
//! layer is any [`rtmpi::Transport`]: the in-process mailboxes
//! (`rtmpi::RtMpi`, push-style, nothing to poll) or the socket wire
//! backend (`crates/wire`, a real pending protocol that advances only when
//! the owner polls it — which is exactly what this thread does, and
//! exactly what the paper's asynchronous-progress argument is about).
//! Application threads — any number, concurrently, i.e. full
//! `MPI_THREAD_MULTIPLE` semantics — serialize their calls into
//! [`Op`]s, allocate a request-pool slot for the reply, and either
//! return immediately (nonblocking) or spin on the slot's done flag
//! (blocking), never entering the message layer themselves.

use check::thread::JoinHandle;
use std::sync::Arc;

use mpisim::types::{bytes_to_f64s, f64s_to_bytes, Dtype, ReduceOp};
use rtmpi::{Transport, TransportError};

use crate::backoff::BackoffMetrics;
use crate::lane::{LaneMetrics, LaneSet};
use crate::pool::{Handle, PoolMetrics, RequestPool};
use crate::service::Service;

pub use crate::service::{nbc_plan, CollKind, Completion, Op};

/// Per-lane drain budget of the offload thread's sweep (the fairness rule:
/// no lane hands over more than this many commands before every other lane
/// has been offered service).
const DRAIN_BUDGET: usize = 64;

/// How many SPSC lanes each rank provisions before the overflow ring
/// catches further producer threads.
const DEFAULT_LANES: usize = 8;

/// Lane depth and request-pool size of [`offload_world`] and
/// [`offload_rank`].
pub const DEFAULT_CAP: usize = 1024;

/// What travels on the command lanes.
enum Command {
    /// A call, and the request-pool slot its completion goes to.
    Post(Op, Handle),
    /// Finish outstanding work, then exit the offload thread.
    Shutdown,
}

/// Cloneable per-rank handle used by application threads.
#[derive(Clone)]
pub struct OffloadHandle {
    lanes: Arc<LaneSet<Command>>,
    pool: Arc<RequestPool<Completion>>,
    registry: obs::Registry,
    transport_obs: Option<obs::Registry>,
    rank: usize,
    size: usize,
}

/// Owner object for one rank: join the offload thread via [`finalize`], or
/// take the transport back via [`finalize_reclaim`] (e.g. to run several
/// approaches sequentially over one socket mesh).
///
/// [`finalize`]: OffloadRank::finalize
/// [`finalize_reclaim`]: OffloadRank::finalize_reclaim
pub struct OffloadRank<T: Transport = rtmpi::RtMpi> {
    handle: OffloadHandle,
    thread: Option<JoinHandle<T>>,
}

/// Build an `n`-rank live world: spawns one offload thread per rank over a
/// fresh `rtmpi` world. This is the `MPI_Init` interposition point of the
/// paper's `LD_PRELOAD` library.
pub fn offload_world(n: usize) -> Vec<OffloadRank> {
    offload_world_sized(n, DEFAULT_CAP, DEFAULT_CAP)
}

/// As [`offload_world`] with explicit sizes: `queue_cap` for each SPSC
/// lane and the overflow ring, `pool_cap` for the request pool.
pub fn offload_world_sized(n: usize, queue_cap: usize, pool_cap: usize) -> Vec<OffloadRank> {
    rtmpi::world(n)
        .into_iter()
        .map(|mpi| OffloadRank::spawn(mpi, queue_cap, pool_cap))
        .collect()
}

/// Put one offload thread in front of an owned transport (the per-process
/// entry point for the wire backend, where each rank builds exactly one
/// transport from its environment).
pub fn offload_rank<T: Transport>(transport: T) -> OffloadRank<T> {
    OffloadRank::spawn(transport, DEFAULT_CAP, DEFAULT_CAP)
}

impl<T: Transport> OffloadRank<T> {
    fn spawn(transport: T, queue_cap: usize, pool_cap: usize) -> Self {
        let registry = obs::Registry::default();
        let lanes = Arc::new(LaneSet::with_metrics(
            DEFAULT_LANES,
            queue_cap,
            queue_cap,
            LaneMetrics::registered(&registry, "lanes"),
        ));
        let pool = Arc::new(RequestPool::with_metrics(
            pool_cap,
            PoolMetrics::registered(&registry, "pool"),
        ));
        let handle = OffloadHandle {
            lanes: lanes.clone(),
            pool: pool.clone(),
            registry: registry.clone(),
            transport_obs: transport.obs_registry(),
            rank: transport.rank(),
            size: transport.size(),
        };
        let thread =
            check::thread::spawn_named(format!("offload-{}", transport.rank()), move || {
                offload_main(Service::new(transport, pool, &registry), &lanes, &registry)
            });
        OffloadRank {
            handle,
            thread: Some(thread),
        }
    }

    pub fn handle(&self) -> OffloadHandle {
        self.handle.clone()
    }

    /// Shut the offload thread down after it drains outstanding work
    /// (the `MPI_Finalize` interposition point).
    pub fn finalize(mut self) {
        let _ = self.shutdown_join();
    }

    /// As [`finalize`], but hand the transport back to the caller — so a
    /// process can run baseline, iprobe and offload sequentially over the
    /// same socket mesh.
    ///
    /// [`finalize`]: OffloadRank::finalize
    pub fn finalize_reclaim(mut self) -> T {
        self.shutdown_join().expect("offload thread joined once")
    }

    fn shutdown_join(&mut self) -> Option<T> {
        let t = self.thread.take()?;
        self.handle.lanes.push_blocking(Command::Shutdown);
        Some(t.join().expect("offload thread exits cleanly"))
    }
}

impl<T: Transport> Drop for OffloadRank<T> {
    fn drop(&mut self) {
        let _ = self.shutdown_join();
    }
}

impl OffloadHandle {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Allocate a reply slot (waiting for a vacancy if the pool is
    /// exhausted) and enqueue `op` with it. The visible cost of every
    /// nonblocking call: one pool allocation plus one lane push —
    /// independent of message size (paper Fig 4).
    pub fn post(&self, op: Op) -> Handle {
        let slot = self.pool.alloc_blocking();
        self.lanes.push_blocking(Command::Post(op, slot));
        slot
    }

    /// Nonblocking send: serialize, enqueue, return.
    pub fn isend(&self, dst: usize, tag: u32, data: Arc<[u8]>) -> Handle {
        assert!(tag < rtmpi::TAG_RESERVED_BASE, "application tag too large");
        self.post(Op::Isend { dst, tag, data })
    }

    /// Nonblocking receive.
    pub fn irecv(&self, src: Option<usize>, tag: Option<u32>) -> Handle {
        self.post(Op::Irecv { src, tag })
    }

    /// `MPI_Test`: a single done-flag check — no MPI entry at all.
    pub fn test(&self, h: Handle) -> bool {
        self.pool.is_done(h)
    }

    /// `MPI_Wait`: spin on the done flag, take the completion, free the
    /// slot.
    pub fn wait(&self, h: Handle) -> Completion {
        self.pool.wait_take(h).expect("completion value present")
    }

    /// As [`wait`], mapping transport failures (peer death, op timeout)
    /// to `Err` instead of a [`Completion::Failed`] variant.
    ///
    /// [`wait`]: OffloadHandle::wait
    pub fn wait_result(&self, h: Handle) -> Result<Completion, TransportError> {
        self.wait(h).into_result()
    }

    /// Blocking send.
    pub fn send(&self, dst: usize, tag: u32, data: Arc<[u8]>) {
        let h = self.isend(dst, tag, data);
        match self.wait(h) {
            Completion::Sent => {}
            other => panic!("send completed as {other:?}"),
        }
    }

    /// Blocking receive.
    pub fn recv(&self, src: Option<usize>, tag: Option<u32>) -> (rtmpi::Status, Arc<[u8]>) {
        let h = self.irecv(src, tag);
        match self.wait(h) {
            Completion::Received(st, data) => (st, data),
            other => panic!("recv completed as {other:?}"),
        }
    }

    /// Begin an offloaded collective and return its request handle — the
    /// `MPI_Iallreduce`-family entry point. The offload thread converts it
    /// to a round schedule and drives it asynchronously; complete it with
    /// [`wait`] / [`wait_result`] (a [`Completion::Collective`] carries the
    /// result buffer, [`Completion::Failed`] surfaces peer death or a
    /// silent peer mid-schedule instead of hanging).
    ///
    /// [`wait`]: OffloadHandle::wait
    /// [`wait_result`]: OffloadHandle::wait_result
    pub fn start_collective(&self, kind: CollKind) -> Handle {
        self.post(Op::Collective(kind))
    }

    fn collective(&self, kind: CollKind) -> Vec<u8> {
        let slot = self.start_collective(kind);
        match self.wait(slot) {
            Completion::Collective(out) => out,
            other => panic!("collective completed as {other:?}"),
        }
    }

    /// Offloaded barrier.
    pub fn barrier(&self) {
        let _ = self.collective(CollKind::Barrier);
    }

    /// Offloaded allreduce over raw `dtype` lanes.
    pub fn allreduce(&self, dtype: Dtype, op: ReduceOp, data: Vec<u8>) -> Vec<u8> {
        self.collective(CollKind::Allreduce { dtype, op, data })
    }

    /// Offloaded f64 sum allreduce.
    pub fn allreduce_f64_sum(&self, mine: &[f64]) -> Vec<f64> {
        bytes_to_f64s(&self.allreduce(Dtype::F64, ReduceOp::Sum, f64s_to_bytes(mine)))
    }

    /// Offloaded reduce to `root` (result meaningful on the root only).
    pub fn reduce(&self, root: usize, dtype: Dtype, op: ReduceOp, data: Vec<u8>) -> Vec<u8> {
        self.collective(CollKind::Reduce {
            root,
            dtype,
            op,
            data,
        })
    }

    /// Offloaded all-to-all.
    pub fn alltoall(&self, input: Vec<u8>, block: usize) -> Vec<u8> {
        assert_eq!(input.len(), self.size * block);
        self.collective(CollKind::Alltoall { input, block })
    }

    /// Offloaded broadcast.
    pub fn bcast(&self, root: usize, payload: Vec<u8>) -> Vec<u8> {
        self.collective(CollKind::Bcast { root, payload })
    }

    /// Offloaded allgather.
    pub fn allgather(&self, mine: Vec<u8>) -> Vec<u8> {
        self.collective(CollKind::Allgather { mine })
    }

    /// Offloaded gather to `root` (root gets `size × block` bytes).
    pub fn gather(&self, root: usize, mine: Vec<u8>) -> Vec<u8> {
        self.collective(CollKind::Gather { root, mine })
    }

    /// Offloaded scatter from `root` (`input` empty on non-roots; `block`
    /// must agree on every rank).
    pub fn scatter(&self, root: usize, input: Vec<u8>, block: usize) -> Vec<u8> {
        if self.rank == root {
            assert_eq!(input.len(), self.size * block);
        }
        self.collective(CollKind::Scatter { root, input, block })
    }

    /// Queue depth (diagnostics).
    pub fn queued_commands(&self) -> usize {
        self.lanes.approx_len()
    }

    /// This rank's metrics registry (lane/pool/offload-loop metrics).
    ///
    /// Snapshots taken here observe the offload thread live; take one
    /// before and one after a phase and [`obs::Snapshot::diff`] them.
    pub fn obs(&self) -> &obs::Registry {
        &self.registry
    }

    /// The transport's own metrics registry, when it keeps one (the wire
    /// backend's protocol counters — bytes on wire, rendezvous handshake
    /// attribution). `None` for the in-process substrate.
    pub fn transport_obs(&self) -> Option<&obs::Registry> {
        self.transport_obs.as_ref()
    }
}

/// The offload thread: drain the lanes into the service, step it, and
/// idle by what is left — until `Shutdown` has drained.
fn offload_main<T: Transport>(
    mut svc: Service<T>,
    lanes: &LaneSet<Command>,
    reg: &obs::Registry,
) -> T {
    let drained_hist = reg.histogram("offload.drained_per_wakeup");
    let service_iters = reg.counter("offload.service_iters");
    // Consecutive service iterations with work in flight but no
    // advancement; the high-water mark is this loop's stall evidence
    // (the offload-side complement of the engine's stall watchdog).
    let no_advance_streak = reg.gauge("offload.no_advance_streak");
    let idle_backoff = BackoffMetrics {
        spins: reg.counter("offload.idle_spins"),
        yields: reg.counter("offload.idle_yields"),
        parks: reg.counter("offload.parks"),
        wakes: reg.counter("offload.wakes"),
    };
    let (mut open, mut streak) = (true, 0u64);
    loop {
        // Round-robin, budgeted per lane.
        let drained = lanes.drain(DRAIN_BUDGET, |cmd| match cmd {
            Command::Post(op, slot) => svc.submit(op, slot),
            Command::Shutdown => open = false,
        });
        if drained > 0 {
            drained_hist.record(drained as u64);
        }
        let advanced = svc.step() | (drained > 0);
        if !open && svc.is_idle() && lanes.is_empty() {
            return svc.into_transport();
        }
        if advanced {
            service_iters.inc();
            if streak != 0 {
                streak = 0;
                no_advance_streak.set(0);
            }
        } else if svc.is_idle() {
            // Nothing in flight needs polling, so the only possible wake
            // source is a new command — park on the doorbell (spin →
            // yield → park).
            lanes.wait_nonempty(&idle_backoff);
        } else {
            // Work is in flight but did not advance: completion depends on
            // peers (push-style mailboxes) or on polling the sockets, so
            // this thread must keep polling — bounded yield, never park.
            streak += 1;
            no_advance_streak.set(streak);
            idle_backoff.yields.inc();
            check::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_live<T: Send + 'static>(
        n: usize,
        f: impl Fn(OffloadHandle) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let ranks = offload_world(n);
        let handles: Vec<_> = ranks
            .iter()
            .map(|r| {
                let h = r.handle();
                let f = f.clone();
                thread::spawn(move || f(h))
            })
            .collect();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("app thread"))
            .collect();
        for r in ranks {
            r.finalize();
        }
        outs
    }

    #[test]
    fn offloaded_ping_pong() {
        let outs = run_live(2, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 5, Arc::from(vec![1, 2, 3]));
                let (_, d) = mpi.recv(Some(1), Some(6));
                d.to_vec()
            } else {
                let (st, d) = mpi.recv(Some(0), Some(5));
                assert_eq!(st.source, 0);
                let mut back = d.to_vec();
                back.reverse();
                mpi.send(0, 6, Arc::from(back));
                Vec::new()
            }
        });
        assert_eq!(outs[0], vec![3, 2, 1]);
    }

    #[test]
    fn isend_returns_before_receiver_posts() {
        // Deterministic ordering: the receiver is gated on a barrier the
        // sender passes only after its isend has already *completed* — no
        // timing window, unlike the previous sleep-based version.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let outs = run_live(2, move |mpi| {
            if mpi.rank() == 0 {
                let h = mpi.isend(1, 1, Arc::from(vec![7u8; 100]));
                // The handle is usable immediately.
                let c = mpi.wait(h);
                gate.wait(); // release the receiver only now
                matches!(c, Completion::Sent)
            } else {
                gate.wait(); // guaranteed: sender's isend+wait already done
                let (_, d) = mpi.recv(Some(0), Some(1));
                d.len() == 100
            }
        });
        assert!(outs[0] && outs[1]);
    }

    #[test]
    fn test_polls_done_flag_only() {
        // Deterministic ordering: the receiver records its first test()
        // result *before* the barrier that releases the sender, so the
        // first poll is guaranteed to find the flag unset — the previous
        // version relied on a 3 ms sleep losing the race.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let outs = run_live(2, move |mpi| {
            if mpi.rank() == 0 {
                gate.wait(); // receiver has posted and polled once already
                mpi.send(1, 2, Arc::from(vec![1]));
                true
            } else {
                let h = mpi.irecv(Some(0), Some(2));
                let mut polls = 0u64;
                if !mpi.test(h) {
                    polls += 1;
                }
                gate.wait(); // only now may the sender send
                while !mpi.test(h) {
                    polls += 1;
                    thread::yield_now();
                }
                let _ = mpi.wait(h);
                polls > 0
            }
        });
        assert!(outs[1], "receiver actually had to poll");
    }

    /// Waiting the same handle twice is use-after-free of the pool slot:
    /// the generation check must kill it loudly (the old spin-wait hung
    /// forever on `is_done(stale) == false`).
    #[test]
    #[should_panic(expected = "stale request handle")]
    fn double_wait_on_live_handle_panics() {
        let ranks = offload_world(2);
        let h = ranks[0].handle();
        let r = h.isend(1, 1, Arc::from(vec![1, 2, 3]));
        let _ = h.wait(r); // first wait: takes the completion, frees the slot
        let _ = h.wait(r); // second wait: stale generation
    }

    /// The offload thread parks when fully idle instead of burning a core,
    /// and wakes on the doorbell when traffic resumes.
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn idle_offload_thread_parks_and_wakes() {
        let ranks = offload_world(2);
        let h0 = ranks[0].handle();
        let h1 = ranks[1].handle();
        // Idle long enough for the offload threads to escalate to parking.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while h0.obs().snapshot().counter("offload.parks") == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "idle offload thread never parked"
            );
            thread::yield_now();
        }
        // Traffic still flows after parking (the doorbell wakes it).
        let sender = thread::spawn(move || h0.send(1, 7, Arc::from(vec![42])));
        let (_, d) = h1.recv(Some(0), Some(7));
        sender.join().expect("sender");
        assert_eq!(d[0], 42);
        for r in ranks {
            r.finalize();
        }
    }

    #[test]
    fn offloaded_barrier_synchronizes() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        let outs = run_live(4, move |mpi| {
            c2.fetch_add(1, Ordering::SeqCst);
            mpi.barrier();
            // Everyone must have incremented before anyone passes.
            c2.load(Ordering::SeqCst)
        });
        for o in outs {
            assert_eq!(o, 4);
        }
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    #[test]
    fn offloaded_allreduce_sums() {
        let outs = run_live(4, |mpi| mpi.allreduce_f64_sum(&[mpi.rank() as f64, 1.0]));
        for o in outs {
            assert_eq!(o, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn offloaded_alltoall_transposes() {
        let outs = run_live(3, |mpi| {
            let input: Vec<u8> = (0..3).map(|d| (mpi.rank() * 3 + d) as u8).collect();
            mpi.alltoall(input, 1)
        });
        for (r, o) in outs.iter().enumerate() {
            let expect: Vec<u8> = (0..3).map(|s| (s * 3 + r) as u8).collect();
            assert_eq!(o, &expect);
        }
    }

    #[test]
    fn offloaded_reduce_gather_scatter() {
        let outs = run_live(4, |mpi| {
            let r = mpi.rank();
            // Reduce to root 2: lanes are rank-tagged so the sum is checkable.
            let mine: Vec<u8> = [r as f64, 1.0]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect();
            let red = mpi.reduce(2, Dtype::F64, ReduceOp::Sum, mine);
            // Gather rank bytes to root 1.
            let g = mpi.gather(1, vec![r as u8; 2]);
            // Scatter distinct blocks from root 0.
            let input = if r == 0 {
                (0..8).map(|i| 10 + i as u8).collect()
            } else {
                Vec::new()
            };
            let s = mpi.scatter(0, input, 2);
            (red, g, s)
        });
        for (r, (red, g, s)) in outs.into_iter().enumerate() {
            if r == 2 {
                let lanes: Vec<f64> = red
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                assert_eq!(lanes, vec![6.0, 4.0]);
            }
            if r == 1 {
                assert_eq!(g, vec![0, 0, 1, 1, 2, 2, 3, 3]);
            }
            assert_eq!(s, vec![10 + 2 * r as u8, 11 + 2 * r as u8]);
        }
    }

    /// Large power-of-two allreduce takes the Rabenseifner reduce-scatter +
    /// allgather schedule (chunked CombineAt/StoreAt actions) and still
    /// sums correctly through the offload executor.
    #[test]
    fn offloaded_allreduce_takes_rsag_path() {
        let lanes = 4096; // 32 KiB ≥ the RSAG threshold, divisible by 4·8
        let outs = run_live(4, move |mpi| {
            let mine: Vec<f64> = (0..lanes).map(|l| (mpi.rank() + l) as f64).collect();
            mpi.allreduce_f64_sum(&mine)
        });
        for o in outs {
            for (l, &v) in o.iter().enumerate() {
                let expect: f64 = (0..4).map(|r| (r + l) as f64).sum();
                assert_eq!(v, expect, "lane {l}");
            }
        }
    }

    /// A peer whose collective arguments differ (or who puts anything on
    /// a reserved tag) controls the length of a round payload. A misfit
    /// used to panic the offload thread inside the fold, parking the
    /// waiter forever; it must fail that collective and nothing else.
    #[test]
    fn misfitting_round_payload_fails_the_collective_not_the_thread() {
        let mut world = rtmpi::world(2);
        let peer = world.pop().expect("rank 1");
        let rank0 = offload_rank(world.pop().expect("rank 0"));
        let mpi = rank0.handle();
        // Rank 1 answers rank 0's first collective (sequence 1) with three
        // bytes where the 2-lane f64 allreduce expects sixteen.
        peer.send(0, rtmpi::TAG_COLL_BASE + 1, Arc::from(vec![1u8, 2, 3]));
        let h = mpi.start_collective(CollKind::Allreduce {
            dtype: Dtype::F64,
            op: ReduceOp::Sum,
            data: vec![0; 16],
        });
        assert_eq!(
            mpi.wait_result(h)
                .expect_err("misfit must fail the collective"),
            TransportError::RoundMismatch { peer: 1, len: 3 }
        );
        // The offload thread is still serving.
        mpi.send(1, 5, Arc::from(vec![4u8, 2]));
        let (_, ping) = peer.recv(Some(0), Some(5));
        peer.send(0, 6, ping);
        assert_eq!(mpi.recv(Some(1), Some(6)).1.to_vec(), vec![4, 2]);
        rank0.finalize();
    }

    #[test]
    fn offloaded_bcast_and_allgather() {
        let outs = run_live(3, |mpi| {
            let payload = if mpi.rank() == 1 {
                vec![5u8, 6]
            } else {
                vec![]
            };
            let b = mpi.bcast(1, payload);
            let g = mpi.allgather(vec![mpi.rank() as u8]);
            (b, g)
        });
        for (b, g) in outs {
            assert_eq!(b, vec![5, 6]);
            assert_eq!(g, vec![0, 1, 2]);
        }
    }

    #[test]
    fn concurrent_app_threads_share_one_rank() {
        // THREAD_MULTIPLE: several app threads of the same rank issue
        // concurrently; the single offload thread serializes into rtmpi.
        let ranks = offload_world(2);
        let h0 = ranks[0].handle();
        let h1 = ranks[1].handle();
        let senders: Vec<_> = (0..4u32)
            .map(|t| {
                let h = h0.clone();
                thread::spawn(move || {
                    for i in 0..50u32 {
                        h.send(1, t, Arc::from(vec![(t * 100 + i % 100) as u8]));
                    }
                })
            })
            .collect();
        let receiver = thread::spawn(move || {
            let mut per_tag = vec![0u32; 4];
            for _ in 0..200 {
                let (st, _) = h1.recv(Some(0), None);
                per_tag[st.tag as usize] += 1;
            }
            per_tag
        });
        for s in senders {
            s.join().expect("sender");
        }
        let per_tag = receiver.join().expect("receiver");
        assert_eq!(per_tag, vec![50; 4]);
        for r in ranks {
            r.finalize();
        }
    }

    #[test]
    fn many_outstanding_requests_cycle_the_pool() {
        let outs = run_live(2, |mpi| {
            if mpi.rank() == 0 {
                for batch in 0..20 {
                    let hs: Vec<_> = (0..64)
                        .map(|i| mpi.isend(1, 3, Arc::from(vec![(batch * 64 + i) as u8])))
                        .collect();
                    for h in hs {
                        let _ = mpi.wait(h);
                    }
                }
                0
            } else {
                let mut n = 0;
                for _ in 0..(20 * 64) {
                    let _ = mpi.recv(Some(0), Some(3));
                    n += 1;
                }
                n
            }
        });
        assert_eq!(outs[1], 20 * 64);
    }
}
