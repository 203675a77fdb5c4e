//! Simulation mode: the offload infrastructure inside the discrete-event
//! model, used for every performance experiment.
//!
//! The logic is the same as [`crate::live`] — a dedicated per-rank thread
//! services a command queue, issues the real MPI calls, and sweeps
//! in-flight requests for completion whenever the queue is empty — but the
//! "thread" is a DES task pinned to one core of the rank, and every step
//! charges the calibrated costs from the [`simnet::MachineProfile`]:
//! command enqueue/dequeue, request-pool slot management, done-flag checks,
//! and the per-request `MPI_Test` sweep.
//!
//! The application-visible cost of a nonblocking call is
//! `pool_alloc_ns + cmd_enqueue_ns` — a constant independent of message
//! size (paper Fig 4, ~140 ns). Blocking calls from application threads
//! reduce to a done-flag wait; the offload thread itself *never blocks*:
//! blocking operations are issued in their nonblocking form and completed
//! through the sweep (paper §3.2–3.3).

use std::cell::RefCell;
use std::rc::Rc;

use destime::channel::{channel, Receiver, Sender};
use destime::futures::{race, Either};
use destime::sync::Flag;
use destime::{Env, Nanos};
use mpisim::{Bytes, CommId, Mpi, Rank, Request, Status, Tag};

/// Completion payload written into the (modelled) request-pool slot.
type OutSlot = Rc<RefCell<Option<(Option<Status>, Option<Bytes>)>>>;

/// Handle into the modelled request pool: slot index plus the generation
/// it was allocated under, mirroring [`crate::pool::Handle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimHandle {
    idx: u32,
    generation: u32,
}

/// The modelled request pool: the DES twin of [`crate::pool::RequestPool`]'s
/// slot lifecycle. It tracks *which* slots are live (occupancy, with
/// high-water mark) and tags each with a generation so a double-`wait` or
/// use-after-free fails the same generation check as the live pool —
/// simulated runs must surface the same application bugs the real
/// infrastructure panics on. Single-threaded (DES), so plain `RefCell`s.
/// The slab grows on demand: a leaked (never-waited) request costs one
/// slot of modelled occupancy, never a hang.
struct SimSlab {
    generations: RefCell<Vec<u32>>,
    free: RefCell<Vec<u32>>,
    allocs: obs::Counter,
    frees: obs::Counter,
    occupancy: obs::Gauge,
}

impl SimSlab {
    fn new(reg: &obs::Registry) -> Self {
        Self {
            generations: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            allocs: reg.counter("pool.allocs"),
            frees: reg.counter("pool.frees"),
            occupancy: reg.gauge("pool.occupancy"),
        }
    }

    fn alloc(&self) -> SimHandle {
        let idx = self.free.borrow_mut().pop().unwrap_or_else(|| {
            let mut gens = self.generations.borrow_mut();
            gens.push(0);
            (gens.len() - 1) as u32
        });
        self.allocs.inc();
        self.occupancy.add(1);
        SimHandle {
            idx,
            generation: self.generations.borrow()[idx as usize],
        }
    }

    fn free(&self, h: SimHandle) {
        let mut gens = self.generations.borrow_mut();
        let current = gens[h.idx as usize];
        assert_eq!(
            current, h.generation,
            "stale request handle: slot {} is at generation {} but the handle \
             was allocated under generation {} (double wait or use-after-free)",
            h.idx, current, h.generation
        );
        gens[h.idx as usize] = current.wrapping_add(1);
        drop(gens);
        self.free.borrow_mut().push(h.idx);
        self.frees.inc();
        self.occupancy.sub(1);
    }
}

/// The offloaded request handle the application holds: a pool slot (with
/// generation tag) plus, in the model, its done flag and result cell.
#[derive(Clone)]
pub struct OffReq {
    done: Flag,
    out: OutSlot,
    slot: SimHandle,
}

impl OffReq {
    pub fn is_done(&self) -> bool {
        self.done.is_set()
    }

    /// Completion status (receives). Keeps working after `wait` freed the
    /// pool slot: status/data live in the result cell the handle owns.
    pub fn status(&self) -> Option<Status> {
        self.out.borrow().as_ref().and_then(|(s, _)| *s)
    }

    /// Take the received/collective payload.
    pub fn take_data(&self) -> Option<Bytes> {
        self.out.borrow_mut().as_mut().and_then(|(_, d)| d.take())
    }

    /// The modelled pool slot (diagnostics).
    pub fn slot_index(&self) -> u32 {
        self.slot.idx
    }
}

/// Offloadable collectives: the live [`crate::CollKind`]'s type over
/// simulator payloads, planned by the same `mpisim::nbc::plan_of`.
pub type SimColl = mpisim::nbc::CollOf<Bytes>;

enum SimCmd {
    Isend {
        comm: CommId,
        dst: Rank,
        tag: Tag,
        payload: Bytes,
        done: Flag,
        out: OutSlot,
    },
    Irecv {
        comm: CommId,
        src: Option<Rank>,
        tag: Option<Tag>,
        done: Flag,
        out: OutSlot,
    },
    Coll {
        comm: CommId,
        op: SimColl,
        done: Flag,
        out: OutSlot,
    },
    Shutdown,
}

struct Costs {
    enqueue: Nanos,
    pool_alloc: Nanos,
    done_check: Nanos,
}

struct Inner {
    mpi: Mpi,
    env: Env,
    tx: Sender<SimCmd>,
    costs: Costs,
    registry: obs::Registry,
    slab: Rc<SimSlab>,
    task: RefCell<Option<Vec<destime::JoinHandle<()>>>>,
}

/// Metric handles for the offload service loop, resolved once at startup.
/// Names match the live service loop (`crate::live`) so fig reports can
/// show the same obs columns for both modes: `offload.parks` /
/// `offload.wakes` count deep-idle parking (here: awaiting the channel),
/// `lanes.occupancy` is the modelled submission-lane depth at each drain.
struct LoopObs {
    drained: obs::Histogram,
    sweeps: obs::Counter,
    converted: obs::Counter,
    retired: obs::Counter,
    parks: obs::Counter,
    wakes: obs::Counter,
    occupancy: obs::Gauge,
}

impl LoopObs {
    fn new(reg: &obs::Registry) -> Self {
        Self {
            drained: reg.histogram("offload.drained_per_wakeup"),
            sweeps: reg.counter("offload.testany_sweeps"),
            converted: reg.counter("offload.coll_converted"),
            retired: reg.counter("offload.reqs_retired"),
            parks: reg.counter("offload.parks"),
            wakes: reg.counter("offload.wakes"),
            occupancy: reg.gauge("lanes.occupancy"),
        }
    }
}

/// Per-rank offload service handle (simulation mode). Clone freely across
/// the rank's simulated application threads — enqueueing is modelled as
/// the lock-free queue's flat per-op cost, so concurrent callers scale.
#[derive(Clone)]
pub struct SimOffload {
    inner: Rc<Inner>,
}

impl SimOffload {
    /// Start the offload thread for this rank. The `Mpi` handle should
    /// belong to a `Funneled`-level universe: only the offload thread
    /// enters MPI, which is the whole point (paper §3.3).
    pub fn start(mpi: Mpi) -> Self {
        Self::start_multi(mpi, 1)
    }

    /// Start `n` offload threads sharing one command queue — the paper's
    /// stated future work (§7): replacing MPI with endpoint-capable
    /// low-level APIs (OFI/verbs/uGNI) "will allow us to use multiple
    /// threads for software offload". Each extra thread costs one more
    /// dedicated core but parallelizes the per-message software work
    /// (eager copies above all). The model assumes independent
    /// communication endpoints, i.e. no library-level lock between the
    /// offload threads.
    pub fn start_multi(mpi: Mpi, n: usize) -> Self {
        Self::start_multi_traced(mpi, n, &obs::Recorder::disabled())
    }

    /// As [`start`] with a trace recorder: the offload thread emits
    /// virtual-clock (DES time) events onto a per-rank track.
    ///
    /// [`start`]: SimOffload::start
    pub fn start_traced(mpi: Mpi, recorder: &obs::Recorder) -> Self {
        Self::start_multi_traced(mpi, 1, recorder)
    }

    /// As [`start_multi`] with a trace recorder.
    ///
    /// [`start_multi`]: SimOffload::start_multi
    pub fn start_multi_traced(mpi: Mpi, n: usize, recorder: &obs::Recorder) -> Self {
        assert!(n >= 1, "at least one offload thread");
        let env = mpi.env().clone();
        let (tx, rx) = channel();
        let p = profile_of(&mpi);
        let costs = Costs {
            enqueue: p.cmd_enqueue_ns,
            pool_alloc: p.pool_alloc_ns,
            done_check: p.done_check_ns,
        };
        let registry = obs::Registry::default();
        let rank = mpi.rank();
        let mut tasks = Vec::with_capacity(n);
        for i in 0..n {
            let track =
                recorder.track(rank as u32, 1 + i as u32, &format!("rank{rank}/offload{i}"));
            tasks.push(env.spawn(offload_task(
                mpi.clone(),
                rx.clone(),
                registry.clone(),
                track,
            )));
        }
        let slab = Rc::new(SimSlab::new(&registry));
        Self {
            inner: Rc::new(Inner {
                mpi,
                env,
                tx,
                costs,
                registry,
                slab,
                task: RefCell::new(Some(tasks)),
            }),
        }
    }

    pub fn rank(&self) -> Rank {
        self.inner.mpi.rank()
    }

    pub fn size(&self) -> usize {
        self.inner.mpi.size()
    }

    pub fn env(&self) -> &Env {
        &self.inner.env
    }

    /// The underlying MPI handle (for communicator management).
    pub fn mpi(&self) -> &Mpi {
        &self.inner.mpi
    }

    /// This rank's offload-service metrics registry.
    pub fn obs(&self) -> &obs::Registry {
        &self.inner.registry
    }

    fn fresh_req(&self) -> OffReq {
        OffReq {
            done: Flag::new(),
            out: Rc::new(RefCell::new(None)),
            slot: self.inner.slab.alloc(),
        }
    }

    async fn post(&self, mk: impl FnOnce(Flag, OutSlot) -> SimCmd) -> OffReq {
        let c = &self.inner.costs;
        self.inner.env.advance(c.pool_alloc + c.enqueue).await;
        let req = self.fresh_req();
        self.inner.tx.send(mk(req.done.clone(), req.out.clone()));
        req
    }

    /// Offloaded `MPI_Isend`: constant-cost posting.
    pub async fn isend(&self, comm: CommId, dst: Rank, tag: Tag, payload: Bytes) -> OffReq {
        self.post(|done, out| SimCmd::Isend {
            comm,
            dst,
            tag,
            payload,
            done,
            out,
        })
        .await
    }

    /// Offloaded `MPI_Irecv`.
    pub async fn irecv(&self, comm: CommId, src: Option<Rank>, tag: Option<Tag>) -> OffReq {
        self.post(|done, out| SimCmd::Irecv {
            comm,
            src,
            tag,
            done,
            out,
        })
        .await
    }

    /// Offloaded nonblocking collective.
    pub async fn icoll(&self, comm: CommId, op: SimColl) -> OffReq {
        self.post(|done, out| SimCmd::Coll {
            comm,
            op,
            done,
            out,
        })
        .await
    }

    /// `MPI_Test` equivalent: a single done-flag check.
    pub async fn test(&self, req: &OffReq) -> bool {
        self.inner.env.advance(self.inner.costs.done_check).await;
        req.is_done()
    }

    /// `MPI_Wait` equivalent: check the done flag, park until set, free
    /// the modelled pool slot. As in the live pool, waiting the same
    /// request twice fails the generation check with a "stale request
    /// handle" panic — `status`/`take_data`/`test` remain valid after the
    /// wait (they read the handle's own result cell, not the slot).
    pub async fn wait(&self, req: &OffReq) -> Option<Status> {
        self.inner.env.advance(self.inner.costs.done_check).await;
        req.done.wait().await;
        self.inner.slab.free(req.slot);
        req.status()
    }

    /// `MPI_Waitall`.
    pub async fn waitall(&self, reqs: &[OffReq]) {
        for r in reqs {
            self.wait(r).await;
        }
    }

    /// Blocking offloaded send.
    pub async fn send(&self, comm: CommId, dst: Rank, tag: Tag, payload: Bytes) {
        let r = self.isend(comm, dst, tag, payload).await;
        self.wait(&r).await;
    }

    /// Blocking offloaded receive.
    pub async fn recv(&self, comm: CommId, src: Option<Rank>, tag: Option<Tag>) -> (Status, Bytes) {
        let r = self.irecv(comm, src, tag).await;
        let st = self.wait(&r).await.expect("recv has status");
        (st, r.take_data().expect("recv has data"))
    }

    /// Offloaded barrier.
    pub async fn barrier(&self, comm: CommId) {
        let r = self.icoll(comm, SimColl::Barrier).await;
        self.wait(&r).await;
    }

    /// Stop the offload thread(s) once outstanding work drains (the
    /// `MPI_Finalize` point). Must be called exactly once per rank.
    pub async fn shutdown(&self) {
        let tasks = self.inner.task.borrow_mut().take();
        if let Some(tasks) = tasks {
            for _ in 0..tasks.len() {
                self.inner.tx.send(SimCmd::Shutdown);
            }
            for task in tasks {
                task.join().await;
            }
        }
    }
}

fn profile_of(mpi: &Mpi) -> simnet::MachineProfile {
    // The profile travels with the universe; expose via a world barrier-free
    // accessor. (Clone is cheap; called once at startup.)
    mpi.profile()
}

struct InFlight {
    req: Request,
    done: Flag,
    out: OutSlot,
}

/// The offload thread's main loop (DES task).
async fn offload_task(mpi: Mpi, rx: Receiver<SimCmd>, reg: obs::Registry, track: obs::Track) {
    let env = mpi.env().clone();
    let p = mpi.profile();
    let lo = LoopObs::new(&reg);
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut open = true;
    loop {
        // 1. Service queued commands first (application responsiveness).
        // Stop draining once this thread saw its shutdown token so sibling
        // offload threads (multi-threaded offload) get theirs.
        let t_service = env.now();
        lo.occupancy.set(rx.len() as u64);
        let mut drained = 0u64;
        while open {
            let Some(cmd) = rx.try_recv() else { break };
            env.advance(p.cmd_dequeue_ns).await;
            drained += 1;
            if !issue(&mpi, cmd, &mut inflight, &lo).await {
                open = false;
            }
        }
        if drained > 0 {
            lo.drained.record(drained);
            track.complete_at("drain", t_service, env.now());
        }
        // 2. Completion sweep over in-flight requests (MPI_Testany) plus a
        // progress poll — this is what guarantees asynchronous progress.
        // Testany short-circuits at completions: charge one probe plus one
        // per request retired, not a full-list scan per wake.
        if !inflight.is_empty() {
            lo.sweeps.inc();
            mpi.progress_once().await;
            let before = inflight.len();
            inflight.retain(|f| {
                if f.req.is_done() {
                    *f.out.borrow_mut() = Some((f.req.status(), f.req.take_data()));
                    f.done.set();
                    false
                } else {
                    true
                }
            });
            let retired = (before - inflight.len()) as u64;
            if retired > 0 {
                lo.retired.add(retired);
                track.instant_at("retire", env.now());
            }
            env.advance(p.test_sweep_ns * (retired + 1)).await;
        }
        // 3. Park or exit.
        if inflight.is_empty() {
            if !open {
                return;
            }
            // Deep idle: only a new command can create work.
            lo.parks.inc();
            match rx.recv().await {
                Some(cmd) => {
                    lo.wakes.inc();
                    env.advance(p.cmd_dequeue_ns).await;
                    lo.drained.record(1);
                    if !issue(&mpi, cmd, &mut inflight, &lo).await {
                        open = false;
                    }
                }
                None => return,
            }
        } else if rx.is_empty() {
            // Busy but nothing actionable: behave like a spinning poller
            // without simulating each empty iteration — wake on the next
            // arrival or command.
            let activity = Box::pin(mpi.park_until_activity());
            match race(rx.recv(), activity).await {
                Either::Left(Some(cmd)) => {
                    env.advance(p.cmd_dequeue_ns).await;
                    lo.drained.record(1);
                    if !issue(&mpi, cmd, &mut inflight, &lo).await {
                        open = false;
                    }
                }
                Either::Left(None) => return,
                Either::Right(()) => {}
            }
        }
    }
}

/// Issue one command into MPI; returns false for `Shutdown`.
async fn issue(mpi: &Mpi, cmd: SimCmd, inflight: &mut Vec<InFlight>, lo: &LoopObs) -> bool {
    match cmd {
        SimCmd::Isend {
            comm,
            dst,
            tag,
            payload,
            done,
            out,
        } => {
            let req = mpi.isend(comm, dst, tag, payload).await;
            inflight.push(InFlight { req, done, out });
        }
        SimCmd::Irecv {
            comm,
            src,
            tag,
            done,
            out,
        } => {
            let req = mpi.irecv(comm, src, tag).await;
            inflight.push(InFlight { req, done, out });
        }
        SimCmd::Coll {
            comm,
            op,
            done,
            out,
        } => {
            // Blocking collectives become their nonblocking equivalents so
            // the offload thread never stalls (paper §3.3).
            lo.converted.inc();
            let req = mpi.icollective(comm, op).await;
            inflight.push(InFlight { req, done, out });
        }
        SimCmd::Shutdown => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{
        bytes_to_f64s, f64s_to_bytes, Dtype, ReduceOp, ThreadLevel, Universe, COMM_WORLD,
    };
    use simnet::MachineProfile;

    fn run_offloaded<T: 'static>(
        n: usize,
        f: impl Fn(SimOffload) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>> + 'static,
    ) -> (Vec<T>, destime::Nanos) {
        Universe::new(n, MachineProfile::xeon(), ThreadLevel::Funneled).run(move |mpi| {
            let off = SimOffload::start(mpi);
            let fut = f(off.clone());
            Box::pin(async move {
                let out = fut.await;
                off.shutdown().await;
                out
            })
        })
    }

    #[test]
    fn offloaded_ping_pong_roundtrip() {
        let (outs, _) = run_offloaded(2, |off| {
            Box::pin(async move {
                if off.rank() == 0 {
                    off.send(COMM_WORLD, 1, 7, Bytes::real(vec![1, 2, 3])).await;
                    let (_, d) = off.recv(COMM_WORLD, Some(1), Some(8)).await;
                    d.to_vec()
                } else {
                    let (_, d) = off.recv(COMM_WORLD, Some(0), Some(7)).await;
                    let mut back = d.to_vec();
                    back.reverse();
                    off.send(COMM_WORLD, 0, 8, Bytes::real(back)).await;
                    Vec::new()
                }
            })
        });
        assert_eq!(outs[0], vec![3, 2, 1]);
    }

    /// Double-waiting a simulated request must fail the generation check
    /// exactly like the live pool — the DES executor is single-threaded,
    /// so the panic propagates straight to the test.
    #[test]
    #[should_panic(expected = "stale request handle")]
    fn sim_double_wait_panics_on_generation_check() {
        let _ = run_offloaded(2, |off| {
            Box::pin(async move {
                if off.rank() == 0 {
                    let r = off.isend(COMM_WORLD, 1, 1, Bytes::synthetic(8)).await;
                    off.wait(&r).await; // frees the modelled slot
                    off.wait(&r).await; // stale generation: panics
                } else {
                    let r = off.irecv(COMM_WORLD, Some(0), Some(1)).await;
                    off.wait(&r).await;
                }
            })
        });
    }

    /// A recycled slot must not let an old handle alias the new request:
    /// waiting a stale clone after the slot was reused panics.
    #[test]
    #[should_panic(expected = "stale request handle")]
    fn sim_recycled_slot_rejects_stale_handle() {
        let _ = run_offloaded(2, |off| {
            Box::pin(async move {
                if off.rank() == 0 {
                    let r1 = off.isend(COMM_WORLD, 1, 1, Bytes::synthetic(8)).await;
                    let stale = r1.clone();
                    off.wait(&r1).await;
                    // The freed slot is recycled by the next allocation.
                    let r2 = off.isend(COMM_WORLD, 1, 2, Bytes::synthetic(8)).await;
                    assert_eq!(r2.slot_index(), stale.slot_index());
                    off.wait(&stale).await; // would alias r2's slot: panics
                } else {
                    let a = off.irecv(COMM_WORLD, Some(0), Some(1)).await;
                    let b = off.irecv(COMM_WORLD, Some(0), Some(2)).await;
                    off.waitall(&[a, b]).await;
                }
            })
        });
    }

    /// `test`/`status`/`take_data` stay valid after `wait` freed the slot
    /// (the Comm matrix relies on test-after-wait), and the modelled pool
    /// occupancy returns to zero when every request is waited.
    #[test]
    fn sim_pool_tracks_occupancy_and_tolerates_test_after_wait() {
        let (outs, _) = run_offloaded(2, |off| {
            Box::pin(async move {
                let reg = off.obs().clone();
                if off.rank() == 0 {
                    let r = off.isend(COMM_WORLD, 1, 1, Bytes::real(vec![7])).await;
                    off.wait(&r).await;
                    let still_done = r.is_done();
                    #[cfg(feature = "obs-enabled")]
                    {
                        let s = reg.snapshot();
                        assert!(s.counter("pool.allocs") >= 1);
                        assert_eq!(s.counter("pool.allocs"), s.counter("pool.frees"));
                        assert_eq!(s.gauge("pool.occupancy").value, 0);
                        assert!(s.gauge("pool.occupancy").high_water >= 1);
                    }
                    let _ = &reg;
                    still_done
                } else {
                    let r = off.irecv(COMM_WORLD, Some(0), Some(1)).await;
                    off.wait(&r).await;
                    let d = r.take_data().expect("data readable after wait");
                    d.to_vec() == vec![7]
                }
            })
        });
        assert!(outs[0] && outs[1]);
    }

    #[test]
    fn posting_cost_is_constant_and_small() {
        // Post a tiny and a huge nonblocking send; the application-visible
        // cost must be identical (pool_alloc + enqueue), unlike the direct
        // path whose eager copy scales with size.
        let (outs, _) = run_offloaded(2, |off| {
            Box::pin(async move {
                let env = off.env().clone();
                if off.rank() == 0 {
                    let t0 = env.now();
                    let r1 = off.isend(COMM_WORLD, 1, 1, Bytes::synthetic(8)).await;
                    let small = env.now() - t0;
                    let t1 = env.now();
                    let r2 = off
                        .isend(COMM_WORLD, 1, 2, Bytes::synthetic(64 * 1024))
                        .await;
                    let large = env.now() - t1;
                    off.waitall(&[r1, r2]).await;
                    (small, large)
                } else {
                    let r1 = off.irecv(COMM_WORLD, Some(0), Some(1)).await;
                    let r2 = off.irecv(COMM_WORLD, Some(0), Some(2)).await;
                    off.waitall(&[r1, r2]).await;
                    (0, 0)
                }
            })
        });
        let (small, large) = outs[0];
        assert_eq!(small, large, "posting cost must not depend on size");
        let p = MachineProfile::xeon();
        assert_eq!(small, p.pool_alloc_ns + p.cmd_enqueue_ns);
    }

    #[test]
    fn offload_provides_async_progress_for_rendezvous() {
        // Same scenario as mpisim's stall test, but with offload: the
        // transfer completes during the compute phase.
        let n = 1 << 20;
        let compute: destime::Nanos = 10_000_000;
        let (outs, _) = run_offloaded(2, move |off| {
            Box::pin(async move {
                let env = off.env().clone();
                if off.rank() == 0 {
                    let r = off.isend(COMM_WORLD, 1, 3, Bytes::synthetic(n)).await;
                    env.advance(compute).await;
                    let t = env.now();
                    off.wait(&r).await;
                    env.now() - t
                } else {
                    let r = off.irecv(COMM_WORLD, Some(0), Some(3)).await;
                    env.advance(compute).await;
                    let t = env.now();
                    off.wait(&r).await;
                    env.now() - t
                }
            })
        });
        let wire = MachineProfile::transfer_ns(n, 6.0);
        assert!(
            outs[1] < wire / 10,
            "receiver wait {}ns must be tiny vs wire {}ns — the offload thread \
             progressed the rendezvous during compute",
            outs[1],
            wire
        );
    }

    #[test]
    fn offloaded_collectives_compute_correctly() {
        let (outs, _) = run_offloaded(4, |off| {
            Box::pin(async move {
                let mine = f64s_to_bytes(&[off.rank() as f64, 2.0]);
                let sum = SimColl::Allreduce {
                    data: Bytes::real(mine),
                    dtype: Dtype::F64,
                    op: ReduceOp::Sum,
                };
                let sum = off.icoll(COMM_WORLD, sum).await;
                off.wait(&sum).await;
                off.barrier(COMM_WORLD).await;
                let mine = Bytes::real(vec![off.rank() as u8]);
                let g = off.icoll(COMM_WORLD, SimColl::Allgather { mine }).await;
                off.wait(&g).await;
                let data = |r: &OffReq| r.take_data().expect("collective result").to_vec();
                (bytes_to_f64s(&data(&sum)), data(&g))
            })
        });
        for (sum, g) in &outs {
            assert_eq!(sum, &vec![6.0, 8.0]);
            assert_eq!(g, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn multi_threaded_offload_parallelizes_eager_copies() {
        // Future work (§7): with two offload threads, the serialized eager
        // copies of a many-message burst are split across two cores, so the
        // burst completes sooner.
        let total_wait = |threads: usize| {
            let (outs, _) =
                Universe::new(2, MachineProfile::xeon(), ThreadLevel::Funneled).run(move |mpi| {
                    let off = SimOffload::start_multi(mpi, threads);
                    Box::pin(async move {
                        let env = off.env().clone();
                        let out = if off.rank() == 0 {
                            let mut reqs = Vec::new();
                            for i in 0..16u32 {
                                reqs.push(
                                    off.isend(COMM_WORLD, 1, i, Bytes::synthetic(100 * 1024))
                                        .await,
                                );
                            }
                            let t0 = env.now();
                            off.waitall(&reqs).await;
                            env.now() - t0
                        } else {
                            let mut reqs = Vec::new();
                            for i in 0..16u32 {
                                reqs.push(off.irecv(COMM_WORLD, Some(0), Some(i)).await);
                            }
                            off.waitall(&reqs).await;
                            0
                        };
                        off.shutdown().await;
                        out
                    })
                });
            outs[0]
        };
        let one = total_wait(1);
        let two = total_wait(2);
        assert!(
            two < one,
            "two offload threads ({two}ns) should beat one ({one}ns) on an eager burst"
        );
    }

    #[test]
    fn blocking_call_does_not_stall_other_threads_ops() {
        // Two "application threads" on rank 0: one sits in a blocking
        // barrier-like wait (receive that completes late), the other keeps
        // doing sends. Because the offload thread converts everything to
        // nonblocking internally, the second thread's traffic flows.
        let (outs, _) =
            Universe::new(2, MachineProfile::xeon(), ThreadLevel::Funneled).run(|mpi| {
                let off = SimOffload::start(mpi);
                Box::pin(async move {
                    let env = off.env().clone();
                    if off.rank() == 0 {
                        let off_a = off.clone();
                        let blocker = env.spawn(async move {
                            // Completes only at t >= 5ms (peer sends late).
                            let (_, d) = off_a.recv(COMM_WORLD, Some(1), Some(9)).await;
                            d.len()
                        });
                        let off_b = off.clone();
                        let worker = env.spawn(async move {
                            let mut sent = 0;
                            for i in 0..50u32 {
                                off_b
                                    .send(COMM_WORLD, 1, i % 8, Bytes::real(vec![0u8; 64]))
                                    .await;
                                sent += 1;
                            }
                            (off_b.env().now(), sent)
                        });
                        let (t_worker_done, sent) = worker.join().await;
                        let blocked_len = blocker.join().await;
                        off.shutdown().await;
                        assert!(
                            t_worker_done < 5_000_000,
                            "worker finished at {t_worker_done}ns, before the blocker's 5ms recv"
                        );
                        (sent, blocked_len)
                    } else {
                        let mut got = 0;
                        for _ in 0..50 {
                            let _ = off.recv(COMM_WORLD, Some(0), None).await;
                            got += 1;
                        }
                        env.advance(5_000_000).await;
                        off.send(COMM_WORLD, 0, 9, Bytes::real(vec![1u8; 16])).await;
                        off.shutdown().await;
                        (got, 0)
                    }
                })
            });
        assert_eq!(outs[0], (50, 16));
        assert_eq!(outs[1].0, 50);
    }
}
