//! Live mode: the offload infrastructure on real OS threads (paper §3).
//!
//! One dedicated offload thread per rank services the lock-free command
//! queue and is the only thread that touches the message layer. The
//! message layer is any [`rtmpi::Transport`]: the in-process mailboxes
//! (`rtmpi::RtMpi`, push-style, nothing to poll) or the socket wire
//! backend (`crates/wire`, a real pending protocol that advances only
//! when the owner polls it — which is exactly what this thread does, and
//! exactly what the paper's asynchronous-progress argument is about).
//! Application threads — any number, concurrently, i.e. full
//! `MPI_THREAD_MULTIPLE` semantics — serialize their calls into
//! [`Command`]s, allocate a request-pool slot for the reply, and either
//! return immediately (nonblocking) or spin on the slot's done flag
//! (blocking), never entering the message layer themselves.
//!
//! Blocking collectives are *converted to nonblocking schedules* inside the
//! offload thread (paper §3.3): a barrier or allreduce issued by one
//! application thread never prevents the offload thread from servicing
//! other threads' commands. Schedule, planner and runner are
//! [`mpisim::nbc`]'s ([`NbcRun`]); this thread's contribution is polling
//! them from the service loop.

use check::thread::JoinHandle;
use std::sync::Arc;
use std::time::Instant;

use mpisim::nbc::NbcRun;
use mpisim::types::{Dtype, ReduceOp};
use rtmpi::{OpOutcome, Transport, TransportError};

use crate::backoff::{BackoffMetrics, WaitPolicy, WakeSignal};
use crate::lane::{LaneMetrics, LaneSet};
use crate::pool::{Handle, PoolMetrics, RequestPool};
use crate::queue::{MpmcQueue, QueueMetrics};

/// Application tags must stay below this (internal collective tag space).
/// The offload thread's schedules tag their rounds inside
/// `[rtmpi::TAG_COLL_BASE, TAG_COLL_BASE + TAG_COLL_SPAN)`; direct-mode
/// schedules (`approaches::live`) use the sibling range above it. Wildcard
/// receives never match either (see `rtmpi::matchq`).
pub const TAG_INTERNAL_BASE: u32 = rtmpi::TAG_COLL_BASE;

/// Result of a completed offloaded operation.
#[derive(Clone, Debug)]
pub enum Completion {
    /// A send was handed to the message layer.
    Sent,
    /// A receive completed.
    Received(rtmpi::Status, Arc<[u8]>),
    /// A collective completed; payload is its result buffer (empty for
    /// barrier).
    Collective(Arc<[u8]>),
    /// The transport could not complete the operation: the peer died or
    /// the configured per-op timeout expired. Surfaced instead of hanging.
    Failed(TransportError),
}

/// A serialized MPI call (what travels on the command queue).
pub enum Command {
    Isend {
        dst: usize,
        tag: u32,
        data: Arc<[u8]>,
        slot: Handle,
    },
    Irecv {
        src: Option<usize>,
        tag: Option<u32>,
        slot: Handle,
    },
    Collective {
        kind: CollKind,
        slot: Handle,
    },
    /// Finish outstanding work, then exit the offload thread.
    Shutdown,
}

/// Offloadable collective operations and their one planner: plain
/// re-exports of [`mpisim::nbc`]'s under this crate's historical names.
pub use mpisim::nbc::{plan as nbc_plan, Coll as CollKind};

/// Which command path carries commands from application threads to the
/// offload thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandPath {
    /// One shared Vyukov MPMC ring — every producer CASes the same cursor.
    /// Kept as the comparison baseline for the fig04 contention study.
    SharedQueue,
    /// Per-application-thread SPSC lanes with an MPMC overflow ring — the
    /// sharded path (default). See [`crate::lane`].
    Lanes,
}

/// Per-lane drain budget of the offload thread's sweep (the fairness rule:
/// no lane hands over more than this many commands before every other lane
/// has been offered service).
const DRAIN_BUDGET: usize = 64;

/// How many SPSC lanes each rank provisions before the overflow ring
/// catches further producer threads.
const DEFAULT_LANES: usize = 8;

/// The command channel behind [`OffloadHandle`]: either path, plus the
/// doorbell the idle offload thread parks on.
enum CmdChannel {
    Shared {
        queue: Box<MpmcQueue<Command>>,
        doorbell: WakeSignal,
    },
    Lanes(Box<LaneSet<Command>>),
}

impl CmdChannel {
    fn push_blocking(&self, cmd: Command) {
        match self {
            CmdChannel::Shared { queue, doorbell } => {
                queue.push_blocking(cmd);
                doorbell.notify();
            }
            CmdChannel::Lanes(lanes) => lanes.push_blocking(cmd),
        }
    }

    /// Drain up to `budget` commands per lane (or `budget` total for the
    /// shared queue) into `f`; returns how many were taken.
    fn drain(&self, budget: usize, mut f: impl FnMut(Command)) -> usize {
        match self {
            CmdChannel::Shared { queue, .. } => {
                let mut n = 0;
                while n < budget {
                    match queue.pop() {
                        Some(cmd) => {
                            f(cmd);
                            n += 1;
                        }
                        None => break,
                    }
                }
                n
            }
            CmdChannel::Lanes(lanes) => lanes.drain(budget, f),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            CmdChannel::Shared { queue, .. } => queue.is_empty(),
            CmdChannel::Lanes(lanes) => lanes.is_empty(),
        }
    }

    fn approx_len(&self) -> usize {
        match self {
            CmdChannel::Shared { queue, .. } => queue.approx_len(),
            CmdChannel::Lanes(lanes) => lanes.approx_len(),
        }
    }

    /// Park the (fully idle) offload thread until a producer pushes.
    fn wait_nonempty(&self, policy: &WaitPolicy, metrics: &BackoffMetrics) {
        match self {
            CmdChannel::Shared { queue, doorbell } => {
                doorbell.wait_until(policy, metrics, || (!queue.is_empty()).then_some(()));
            }
            CmdChannel::Lanes(lanes) => lanes.wait_nonempty(metrics),
        }
    }
}

/// Cloneable per-rank handle used by application threads.
#[derive(Clone)]
pub struct OffloadHandle {
    chan: Arc<CmdChannel>,
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
    offload_world_sized(n, 1024, 1024)
}

/// As [`offload_world`] with explicit command-queue and request-pool sizes.
pub fn offload_world_sized(n: usize, queue_cap: usize, pool_cap: usize) -> Vec<OffloadRank> {
    offload_world_configured(n, queue_cap, pool_cap, CommandPath::Lanes)
}

/// As [`offload_world_sized`] with an explicit [`CommandPath`] — the knob
/// the fig04 contention study flips to compare the sharded lanes against
/// the single shared MPMC ring. For `Lanes`, `queue_cap` sizes each SPSC
/// lane and the overflow ring.
pub fn offload_world_configured(
    n: usize,
    queue_cap: usize,
    pool_cap: usize,
    path: CommandPath,
) -> Vec<OffloadRank> {
    rtmpi::world(n)
        .into_iter()
        .map(|mpi| offload_rank_configured(mpi, queue_cap, pool_cap, path))
        .collect()
}

/// Put one offload thread in front of an owned transport (the per-process
/// entry point for the wire backend, where each rank builds exactly one
/// transport from its environment).
pub fn offload_rank<T: Transport>(transport: T) -> OffloadRank<T> {
    offload_rank_configured(transport, 1024, 1024, CommandPath::Lanes)
}

/// As [`offload_rank`] with explicit sizes and [`CommandPath`].
pub fn offload_rank_configured<T: Transport>(
    transport: T,
    queue_cap: usize,
    pool_cap: usize,
    path: CommandPath,
) -> OffloadRank<T> {
    let registry = obs::Registry::default();
    let chan = Arc::new(match path {
        CommandPath::SharedQueue => CmdChannel::Shared {
            queue: Box::new(MpmcQueue::with_metrics(
                queue_cap,
                QueueMetrics::registered(&registry, "queue"),
            )),
            doorbell: WakeSignal::new(),
        },
        CommandPath::Lanes => CmdChannel::Lanes(Box::new(LaneSet::with_metrics(
            DEFAULT_LANES,
            queue_cap,
            queue_cap,
            LaneMetrics::registered(&registry, "lanes"),
        ))),
    });
    let pool = Arc::new(RequestPool::with_metrics(
        pool_cap,
        PoolMetrics::registered(&registry, "pool"),
    ));
    let handle = OffloadHandle {
        chan: chan.clone(),
        pool: pool.clone(),
        registry: registry.clone(),
        transport_obs: transport.obs_registry(),
        rank: transport.rank(),
        size: transport.size(),
    };
    let thread = check::thread::spawn_named(format!("offload-{}", transport.rank()), move || {
        offload_main(transport, chan, pool, registry)
    });
    OffloadRank {
        handle,
        thread: Some(thread),
    }
}

impl<T: Transport> OffloadRank<T> {
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
        self.handle.chan.push_blocking(Command::Shutdown);
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

    /// Nonblocking send: serialize, enqueue, return. The visible cost is
    /// one pool allocation plus one queue push — independent of message
    /// size (paper Fig 4).
    pub fn isend(&self, dst: usize, tag: u32, data: Arc<[u8]>) -> Handle {
        assert!(tag < TAG_INTERNAL_BASE, "application tag too large");
        let slot = self.pool.alloc_blocking();
        self.chan.push_blocking(Command::Isend {
            dst,
            tag,
            data,
            slot,
        });
        slot
    }

    /// Nonblocking receive.
    pub fn irecv(&self, src: Option<usize>, tag: Option<u32>) -> Handle {
        let slot = self.pool.alloc_blocking();
        self.chan.push_blocking(Command::Irecv { src, tag, slot });
        slot
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
        match self.wait(h) {
            Completion::Failed(e) => Err(e),
            c => Ok(c),
        }
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
    /// result buffer, [`Completion::Failed`] surfaces peer death mid-
    /// schedule instead of hanging).
    ///
    /// [`wait`]: OffloadHandle::wait
    /// [`wait_result`]: OffloadHandle::wait_result
    pub fn start_collective(&self, kind: CollKind) -> Handle {
        let slot = self.pool.alloc_blocking();
        self.chan.push_blocking(Command::Collective { kind, slot });
        slot
    }

    fn collective(&self, kind: CollKind) -> Arc<[u8]> {
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
            .to_vec()
    }

    /// Offloaded f64 sum allreduce.
    pub fn allreduce_f64_sum(&self, mine: &[f64]) -> Vec<f64> {
        let bytes: Vec<u8> = mine.iter().flat_map(|x| x.to_le_bytes()).collect();
        let out = self.allreduce(Dtype::F64, ReduceOp::Sum, bytes);
        out.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte lane")))
            .collect()
    }

    /// Offloaded reduce to `root` (result meaningful on the root only).
    pub fn reduce(&self, root: usize, dtype: Dtype, op: ReduceOp, data: Vec<u8>) -> Vec<u8> {
        self.collective(CollKind::Reduce {
            root,
            dtype,
            op,
            data,
        })
        .to_vec()
    }

    /// Offloaded all-to-all.
    pub fn alltoall(&self, input: Vec<u8>, block: usize) -> Vec<u8> {
        assert_eq!(input.len(), self.size * block);
        let out = self.collective(CollKind::Alltoall { input, block });
        out.to_vec()
    }

    /// Offloaded broadcast.
    pub fn bcast(&self, root: usize, payload: Vec<u8>) -> Vec<u8> {
        let out = self.collective(CollKind::Bcast { root, payload });
        out.to_vec()
    }

    /// Offloaded allgather.
    pub fn allgather(&self, mine: Vec<u8>) -> Vec<u8> {
        let out = self.collective(CollKind::Allgather { mine });
        out.to_vec()
    }

    /// Offloaded gather to `root` (root gets `size × block` bytes).
    pub fn gather(&self, root: usize, mine: Vec<u8>) -> Vec<u8> {
        let out = self.collective(CollKind::Gather { root, mine });
        out.to_vec()
    }

    /// Offloaded scatter from `root` (`input` empty on non-roots; `block`
    /// must agree on every rank).
    pub fn scatter(&self, root: usize, input: Vec<u8>, block: usize) -> Vec<u8> {
        if self.rank == root {
            assert_eq!(input.len(), self.size * block);
        }
        let out = self.collective(CollKind::Scatter { root, input, block });
        out.to_vec()
    }

    /// Queue depth (diagnostics).
    pub fn queued_commands(&self) -> usize {
        self.chan.approx_len()
    }

    /// This rank's metrics registry (queue/pool/offload-loop metrics).
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

// ---------------------------------------------------------------------------
// The offload thread.
// ---------------------------------------------------------------------------

/// An application-issued operation the transport has not completed yet.
struct InflightOp<R> {
    slot: Handle,
    req: R,
    /// Set only when the transport has an op timeout configured (keeps
    /// clock reads out of the in-process fast path entirely).
    issued: Option<Instant>,
}

fn completion_of(out: Result<OpOutcome, TransportError>) -> Completion {
    match out {
        Ok(OpOutcome::Sent) => Completion::Sent,
        Ok(OpOutcome::Received(st, d)) => Completion::Received(st, d),
        Err(e) => Completion::Failed(e),
    }
}

fn offload_main<T: Transport>(
    mut mpi: T,
    chan: Arc<CmdChannel>,
    pool: Arc<RequestPool<Completion>>,
    reg: obs::Registry,
) -> T {
    // Metric handles are resolved once; per-iteration cost is a couple of
    // relaxed atomic ops (and nothing at all in no-op builds).
    let drained_hist = reg.histogram("offload.drained_per_wakeup");
    let sweeps = reg.counter("offload.testany_sweeps");
    let converted = reg.counter("offload.coll_converted");
    let service_iters = reg.counter("offload.service_iters");
    let progress_polls = reg.counter("offload.progress_polls");
    let op_timeouts = reg.counter("offload.op_timeouts");
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
    let policy = WaitPolicy::default();

    let needs_progress = mpi.needs_progress();
    let op_timeout = mpi.op_timeout();
    let mut inflight: Vec<InflightOp<T::Req>> = Vec::new();
    // Collective schedules with the waiter's slot. The slot completes (and
    // becomes `None`) when the last round folds; the run stays here until
    // its round sends have drained, so the transport can retire them.
    let mut nbcs: Vec<(NbcRun<T>, Option<Handle>)> = Vec::new();
    let mut coll_seq: u32 = 0;
    let mut open = true;
    let mut streak: u64 = 0;
    loop {
        let mut advanced = false;
        // Clock reads only happen on transports with a configured timeout
        // (i.e. never for the in-process substrate, incl. under Miri).
        let issued_at = op_timeout.map(|_| Instant::now());
        // 1. Drain the command channel (round-robin, budgeted per lane).
        let drained = chan.drain(DRAIN_BUDGET, |cmd| match cmd {
            Command::Isend {
                dst,
                tag,
                data,
                slot,
            } => {
                let req = mpi.isend(dst, tag, data);
                // In-process sends complete at hand-off; wire sends stay
                // pending until flushed and (rendezvous) acknowledged.
                match mpi.try_take(&req) {
                    Some(out) => pool.complete(slot, completion_of(out)),
                    None => inflight.push(InflightOp {
                        slot,
                        req,
                        issued: issued_at,
                    }),
                }
            }
            Command::Irecv { src, tag, slot } => {
                let req = mpi.irecv(src, tag);
                match mpi.try_take(&req) {
                    Some(out) => pool.complete(slot, completion_of(out)),
                    None => inflight.push(InflightOp {
                        slot,
                        req,
                        issued: issued_at,
                    }),
                }
            }
            Command::Collective { kind, slot } => {
                // Blocking collective converted to a nonblocking
                // schedule (paper §3.3).
                converted.inc();
                coll_seq = coll_seq.wrapping_add(1);
                let tag = TAG_INTERNAL_BASE + (coll_seq % rtmpi::TAG_COLL_SPAN);
                nbcs.push((NbcRun::start(&mut mpi, tag, kind), Some(slot)));
            }
            Command::Shutdown => open = false,
        });
        if drained > 0 {
            advanced = true;
            drained_hist.record(drained as u64);
        }
        // 2. Drive the transport's pending protocol state. For the wire
        // backend this *is* the paper's asynchronous progress: rendezvous
        // handshakes complete here, during application compute, instead of
        // inside MPI_Wait.
        if needs_progress {
            progress_polls.inc();
            if mpi.progress() {
                advanced = true;
            }
        }
        // 3. Sweep in-flight operations (the MPI_Testany analogue).
        if !inflight.is_empty() {
            sweeps.inc();
        }
        let mut i = 0;
        while i < inflight.len() {
            let op = &inflight[i];
            let completed = match mpi.try_take(&op.req) {
                Some(out) => {
                    pool.complete(op.slot, completion_of(out));
                    true
                }
                None => match (op_timeout, op.issued) {
                    (Some(limit), Some(t0)) if t0.elapsed() >= limit => {
                        mpi.cancel(&op.req);
                        op_timeouts.inc();
                        pool.complete(
                            op.slot,
                            Completion::Failed(TransportError::Timeout {
                                waited_ms: limit.as_millis() as u64,
                            }),
                        );
                        true
                    }
                    _ => false,
                },
            };
            if completed {
                inflight.swap_remove(i);
                advanced = true;
            } else {
                i += 1;
            }
        }
        // 4. Advance collective schedules.
        let mut i = 0;
        while i < nbcs.len() {
            let (run, slot) = &mut nbcs[i];
            let polled = run.poll(&mut mpi);
            let settled = polled.is_err() || run.result_ready();
            if let Some(slot) = slot.take_if(|_| settled) {
                let done = match &polled {
                    Ok(_) => Completion::Collective(Arc::from(run.result())),
                    Err(e) => Completion::Failed(e.clone()),
                };
                pool.complete(slot, done);
                advanced = true;
            }
            match polled {
                Ok(false) => i += 1,
                Ok(true) => {
                    nbcs.swap_remove(i);
                }
                Err(_) => nbcs.swap_remove(i).0.abort(&mut mpi),
            }
        }
        // 5. Exit or idle.
        if !open && inflight.is_empty() && nbcs.is_empty() && chan.is_empty() {
            // `nbcs` empty means every round send has drained too: the
            // transport comes back with no dangling protocol state.
            return mpi;
        }
        if advanced {
            service_iters.inc();
            if streak != 0 {
                streak = 0;
                no_advance_streak.set(0);
            }
        } else if inflight.is_empty() && nbcs.is_empty() {
            // Fully idle: nothing in flight needs polling, so the only
            // possible wake source is a new command — park on the doorbell
            // (spin → yield → park). Safe for the wire backend too: sends
            // complete only after their bytes are flushed, so an empty
            // in-flight set means no outbox bytes are stuck, and inbound
            // traffic waits in kernel buffers until a receive command
            // arrives (which rings the doorbell).
            chan.wait_nonempty(&policy, &idle_backoff);
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

    /// Both command paths run the same traffic correctly — the fig04
    /// comparison knob must not change semantics.
    #[test]
    fn shared_queue_path_still_works() {
        let ranks = offload_world_configured(2, 64, 64, CommandPath::SharedQueue);
        let h0 = ranks[0].handle();
        let h1 = ranks[1].handle();
        let a = thread::spawn(move || {
            for i in 0..100u8 {
                h0.send(1, 1, Arc::from(vec![i]));
            }
        });
        let b = thread::spawn(move || {
            (0..100)
                .map(|_| h1.recv(Some(0), Some(1)).1[0])
                .collect::<Vec<_>>()
        });
        a.join().expect("sender");
        let got = b.join().expect("receiver");
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        for r in ranks {
            r.finalize();
        }
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
        peer.send(0, TAG_INTERNAL_BASE + 1, Arc::from(vec![1u8, 2, 3]));
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
