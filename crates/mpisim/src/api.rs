//! The per-rank MPI handle: the async API simulated threads call.
//!
//! Every method models the corresponding MPI function, charging the calling
//! simulated thread the modelled software cost and — when the library was
//! initialized with `MPI_THREAD_MULTIPLE` — funnelling through the global
//! library lock with its extra critical-section cost, exactly the overhead
//! structure the paper attributes to multithreaded MPI implementations.

use std::cell::RefCell;
use std::rc::Rc;

use destime::futures::race;
use destime::sync::SimMutex;
use destime::{Env, Nanos};
use simnet::Fabric;

use crate::engine::{CommId, RankInner, ReqInner, WireMsg};
use crate::nbc::{self, CollOf};
use crate::types::{Bytes, Dtype, Rank, ReduceOp, Status, Tag, ThreadLevel, TAG_INTERNAL_BASE};

/// `MPI_COMM_WORLD`.
pub const COMM_WORLD: CommId = 0;

/// A nonblocking-operation handle (`MPI_Request`).
#[derive(Clone)]
pub struct Request {
    pub(crate) inner: Rc<ReqInner>,
}

impl Request {
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Completion status (receives only; `None` before completion or for
    /// sends).
    pub fn status(&self) -> Option<Status> {
        self.inner.status.get()
    }

    /// Take the received payload out of a completed receive/collective.
    pub fn take_data(&self) -> Option<Bytes> {
        self.inner.data.borrow_mut().take()
    }
}

/// Shared world state: fabric plus each rank's engine cell.
pub(crate) struct WorldInner {
    pub env: Env,
    pub fabric: Fabric<WireMsg>,
    pub level: ThreadLevel,
    pub ranks: Vec<RankCell>,
}

pub(crate) struct RankCell {
    pub inner: RefCell<RankInner>,
    /// The MPI library's global lock (taken only under `Multiple`).
    pub lock: SimMutex<()>,
}

/// Per-rank MPI handle. Clone freely across the rank's simulated threads.
#[derive(Clone)]
pub struct Mpi {
    pub(crate) world: Rc<WorldInner>,
    pub(crate) rank: Rank,
}

impl Mpi {
    /// World rank of this process.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.ranks.len()
    }

    /// Thread level the "cluster" was initialized with.
    pub fn thread_level(&self) -> ThreadLevel {
        self.world.level
    }

    pub fn env(&self) -> &Env {
        &self.world.env
    }

    /// The machine profile this universe was built with.
    pub fn profile(&self) -> simnet::MachineProfile {
        self.world.fabric.profile().clone()
    }

    /// Size of a communicator.
    pub fn comm_size(&self, comm: CommId) -> usize {
        self.cell().inner.borrow().comm(comm).size()
    }

    /// This process's rank within a communicator.
    pub fn comm_rank(&self, comm: CommId) -> Rank {
        self.cell().inner.borrow().comm(comm).my_rank
    }

    fn cell(&self) -> &RankCell {
        &self.world.ranks[self.rank]
    }

    /// Snapshot of engine statistics.
    pub fn stats(&self) -> crate::engine::RankStats {
        self.cell().inner.borrow().stats
    }

    /// This rank's engine metrics registry (protocol counters, queue-depth
    /// gauges, lock wait). Snapshot/diff it around a phase to attribute
    /// engine activity to that phase.
    pub fn obs_registry(&self) -> obs::Registry {
        self.cell().inner.borrow().obs.registry.clone()
    }

    /// Contended/total acquisitions of the library lock (diagnostics).
    pub fn lock_contention(&self) -> (u64, u64) {
        let l = &self.cell().lock;
        (l.contended_acquisitions(), l.total_acquisitions())
    }

    // -- call prologue/epilogue ---------------------------------------------

    /// Model entry into the MPI library: returns (guard, extra cost).
    async fn enter(&self) -> (Option<destime::sync::SimMutexGuard<()>>, Nanos) {
        if self.world.level.locked() {
            let t0 = self.world.env.now();
            let g = self.cell().lock.lock().await;
            let waited = self.world.env.now() - t0;
            let inner = self.cell().inner.borrow();
            let extra = inner.profile.mt_lock_extra_ns;
            // Attribute both the queueing delay and the serialization
            // surcharge to lock wait (THREAD_MULTIPLE cost, paper §2).
            inner.obs.lock_wait_ns.add(waited + extra);
            drop(inner);
            (Some(g), extra)
        } else {
            (None, 0)
        }
    }

    // -- point-to-point -----------------------------------------------------

    /// `MPI_Isend`.
    pub async fn isend(
        &self,
        comm: CommId,
        dst: Rank,
        tag: Tag,
        payload: impl Into<Bytes>,
    ) -> Request {
        debug_assert!(tag < TAG_INTERNAL_BASE, "application tag in internal space");
        self.isend_internal(comm, dst, tag, payload.into()).await
    }

    pub(crate) async fn isend_internal(
        &self,
        comm: CommId,
        dst: Rank,
        tag: Tag,
        payload: Bytes,
    ) -> Request {
        let (guard, extra) = self.enter().await;
        let (inner, cost) = {
            let mut eng = self.cell().inner.borrow_mut();
            let base = eng.profile.mpi_call_overhead_ns;
            let now = self.world.env.now() + base + extra;
            let (r, c) = eng.isend(&self.world.fabric, now, comm, dst, tag, payload);
            (r, base + extra + c)
        };
        self.world.env.advance(cost).await;
        drop(guard);
        Request { inner }
    }

    /// `MPI_Irecv`. `src`/`tag` of `None` are the wildcards.
    pub async fn irecv(&self, comm: CommId, src: Option<Rank>, tag: Option<Tag>) -> Request {
        let (guard, extra) = self.enter().await;
        let (inner, cost) = {
            let mut eng = self.cell().inner.borrow_mut();
            let base = eng.profile.mpi_call_overhead_ns;
            let now = self.world.env.now() + base + extra;
            let (r, c) = eng.irecv(&self.world.fabric, now, comm, src, tag);
            (r, base + extra + c)
        };
        self.world.env.advance(cost).await;
        drop(guard);
        Request { inner }
    }

    /// One progress poll under the appropriate locking regime; charges the
    /// caller. Returns after the poll.
    pub async fn progress_once(&self) {
        let (guard, extra) = self.enter().await;
        let cost = {
            let mut eng = self.cell().inner.borrow_mut();
            let now = self.world.env.now() + extra;
            extra + eng.progress(&self.world.fabric, now)
        };
        self.world.env.advance(cost).await;
        drop(guard);
    }

    /// One progress poll *below* the library's locking layer: used to model
    /// progress agents that bypass application-visible mutual exclusion
    /// (Cray core specialization, hardware progress engines). Charges the
    /// caller the poll cost but never touches the global lock.
    pub async fn progress_unlocked(&self) {
        let cost = {
            let mut eng = self.cell().inner.borrow_mut();
            let now = self.world.env.now();
            eng.progress(&self.world.fabric, now)
        };
        self.world.env.advance(cost).await;
    }

    /// `MPI_Test`: one progress poll, then report completion.
    pub async fn test(&self, req: &Request) -> bool {
        if req.is_done() {
            return true;
        }
        self.progress_once().await;
        req.is_done()
    }

    /// `MPI_Testany` over a set of requests; returns the index of a
    /// completed one if any.
    pub async fn testany(&self, reqs: &[Request]) -> Option<usize> {
        if let Some(i) = reqs.iter().position(Request::is_done) {
            return Some(i);
        }
        self.progress_once().await;
        reqs.iter().position(Request::is_done)
    }

    /// `MPI_Iprobe`.
    pub async fn iprobe(
        &self,
        comm: CommId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<Status> {
        self.progress_once().await;
        self.cell().inner.borrow().iprobe(comm, src, tag)
    }

    /// `MPI_Wait`: poll the progress engine until the request completes,
    /// sleeping (in virtual time) between polls until the next possible
    /// state change — a new wire arrival or another thread completing the
    /// request. Under `Multiple` the lock is re-acquired per poll, exactly
    /// like the per-iteration global-lock dance inside MPICH-style waits.
    pub async fn wait(&self, req: &Request) -> Option<Status> {
        self.wait_all_slice(std::slice::from_ref(req)).await;
        req.status()
    }

    /// `MPI_Waitall`.
    pub async fn waitall(&self, reqs: &[Request]) {
        self.wait_all_slice(reqs).await;
    }

    async fn wait_all_slice(&self, reqs: &[Request]) {
        let env = self.world.env.clone();
        // Model the call entry once.
        let base = self.cell().inner.borrow().profile.mpi_call_overhead_ns;
        env.advance(base).await;
        loop {
            if reqs.iter().all(Request::is_done) {
                return;
            }
            self.progress_once().await;
            if reqs.iter().all(Request::is_done) {
                return;
            }
            self.sleep_until_state_change(reqs).await;
        }
    }

    /// `MPI_Waitany`: returns the index of the first request to complete.
    pub async fn waitany(&self, reqs: &[Request]) -> usize {
        let env = self.world.env.clone();
        let base = self.cell().inner.borrow().profile.mpi_call_overhead_ns;
        env.advance(base).await;
        loop {
            if let Some(i) = reqs.iter().position(Request::is_done) {
                return i;
            }
            self.progress_once().await;
            if let Some(i) = reqs.iter().position(Request::is_done) {
                return i;
            }
            self.sleep_until_state_change(reqs).await;
        }
    }

    /// Park until something that could change request state happens: a
    /// pending wire arrival comes due, a new packet is deposited, or a
    /// request in `reqs` is completed by another thread (e.g. the offload
    /// thread).
    async fn sleep_until_state_change(&self, reqs: &[Request]) {
        let env = self.world.env.clone();
        let ep = self.world.fabric.endpoint(self.rank);
        let arrivals = ep.arrival_signal().wait();
        let done_any = wait_any_done(reqs);
        match ep.next_arrival() {
            Some(t) if t <= env.now() => { /* poll again immediately */ }
            Some(t) => {
                let _ = race(done_any, race(arrivals, env.sleep_until(t))).await;
            }
            None => {
                let _ = race(done_any, arrivals).await;
            }
        }
    }

    /// Park (cost-free) until something could change this rank's MPI
    /// state: the next pending wire arrival comes due, or a new packet is
    /// deposited. Returns immediately if an arrival is already due.
    ///
    /// Used by progress daemons (the offload thread, comm-self helpers) to
    /// model "polling continuously" without simulating every empty poll:
    /// the daemon reacts to events at the same virtual instant it would
    /// have discovered them by spinning.
    pub async fn park_until_activity(&self) {
        let env = self.world.env.clone();
        let ep = self.world.fabric.endpoint(self.rank);
        match ep.next_arrival() {
            Some(t) if t <= env.now() => {}
            Some(t) => {
                let _ = race(ep.arrival_signal().wait(), env.sleep_until(t)).await;
            }
            None => ep.arrival_signal().wait().await,
        }
    }

    /// Does this rank have any protocol state that a progress daemon
    /// should keep polling for (pending arrivals, posted receives,
    /// unexpected messages, or active collective schedules)?
    pub fn has_pending_state(&self) -> bool {
        let eng = self.cell().inner.borrow();
        self.world.fabric.endpoint(self.rank).pending() > 0
            || eng.active_nbcs() > 0
            || eng.unexpected_depth() > 0
            || eng.posted_depth() > 0
    }

    /// Blocking `MPI_Send`.
    pub async fn send(&self, comm: CommId, dst: Rank, tag: Tag, payload: impl Into<Bytes>) {
        let r = self.isend(comm, dst, tag, payload).await;
        self.wait(&r).await;
    }

    /// Blocking `MPI_Recv`; returns `(status, payload)`.
    pub async fn recv(&self, comm: CommId, src: Option<Rank>, tag: Option<Tag>) -> (Status, Bytes) {
        let r = self.irecv(comm, src, tag).await;
        let status = self.wait(&r).await.expect("recv completes with status");
        let data = r.take_data().expect("recv completes with data");
        (status, data)
    }

    // -- communicator management --------------------------------------------

    /// `MPI_Comm_dup` (collective: every member must call, in matching
    /// order per parent).
    pub fn comm_dup(&self, parent: CommId) -> CommId {
        self.cell().inner.borrow_mut().dup_comm(parent)
    }

    /// `MPI_Comm_split` by color (key = current rank order). Deterministic
    /// and local in the model: membership is computed from the color map
    /// provided by the caller, which must be identical on all members.
    pub fn comm_split(&self, parent: CommId, colors: &[u64]) -> CommId {
        let mut eng = self.cell().inner.borrow_mut();
        let info = eng.comm(parent).clone();
        assert_eq!(colors.len(), info.size(), "one color per member");
        let my_color = colors[info.my_rank];
        let members: Vec<Rank> = (0..info.size())
            .filter(|&r| colors[r] == my_color)
            .map(|r| info.world_of(r))
            .collect();
        let my_new = members
            .iter()
            .position(|&w| w == self.rank)
            .expect("caller is a member of its own split");
        eng.register_split(parent, my_color, Rc::new(members), my_new)
    }

    // -- nonblocking collectives ---------------------------------------------

    /// The next collective's tag on `comm`, by the live service loop's
    /// rule: every member derives it from the same per-communicator
    /// sequence, inside the reserved span no wildcard receive matches.
    fn next_coll_tag(&self, comm: CommId) -> Tag {
        let mut eng = self.cell().inner.borrow_mut();
        let seq = eng.coll_seq.entry(comm).or_insert(0);
        *seq = seq.wrapping_add(1);
        rtmpi::TAG_COLL_BASE + (*seq % rtmpi::TAG_COLL_SPAN)
    }

    /// Start a nonblocking collective (`MPI_Ibarrier`, `MPI_Iallreduce`,
    /// …): `nbc::plan_of` — the live paths' planner — compiles it into
    /// its accumulator, retained input and rounds, and the engine posts
    /// round 0. The completed request carries the result
    /// ([`Request::take_data`]).
    pub async fn icollective(&self, comm: CommId, coll: CollOf<Bytes>) -> Request {
        let (p, r) = {
            let eng = self.cell().inner.borrow();
            let info = eng.comm(comm);
            (info.size(), info.my_rank)
        };
        let (acc, input, rounds) = nbc::plan_of(p, r, coll);
        let ctx = self.next_coll_tag(comm);
        let (guard, extra) = self.enter().await;
        let (inner, cost) = {
            let mut eng = self.cell().inner.borrow_mut();
            let base = eng.profile.mpi_call_overhead_ns;
            let now = self.world.env.now() + base + extra;
            let (r, c) = eng.start_nbc(&self.world.fabric, now, comm, ctx, acc, input, rounds);
            (r, base + extra + c)
        };
        self.world.env.advance(cost).await;
        drop(guard);
        Request { inner }
    }

    // -- one-sided (RMA) -------------------------------------------------------

    /// `MPI_Win_create` (collective: every rank calls, in matching order),
    /// exposing `local` bytes for one-sided access.
    pub async fn win_create(&self, local: Vec<u8>) -> crate::engine::WinId {
        let id = self.cell().inner.borrow_mut().win_create(local);
        // Window creation synchronizes (as in MPI).
        self.barrier(COMM_WORLD).await;
        id
    }

    /// Snapshot of this rank's window exposure buffer.
    pub fn win_local(&self, win: crate::engine::WinId) -> Vec<u8> {
        self.cell().inner.borrow().win_local(win).to_vec()
    }

    /// `MPI_Put`: one-sided write into `target`'s window. The request
    /// completes at the origin once the target's progress engine applied
    /// the data and the ack returned — which requires the *target* to poll
    /// (the passive-target progress problem of Casper [30]).
    pub async fn put(
        &self,
        win: crate::engine::WinId,
        target: Rank,
        offset: usize,
        payload: impl Into<Bytes>,
    ) -> Request {
        let (guard, extra) = self.enter().await;
        let (inner, cost) = {
            let mut eng = self.cell().inner.borrow_mut();
            let base = eng.profile.mpi_call_overhead_ns;
            let now = self.world.env.now() + base + extra;
            let (r, c) = eng.rma_put(&self.world.fabric, now, win, target, offset, payload.into());
            (r, base + extra + c)
        };
        self.world.env.advance(cost).await;
        drop(guard);
        Request { inner }
    }

    /// `MPI_Get`: one-sided read of `len` bytes from `target`'s window.
    pub async fn get(
        &self,
        win: crate::engine::WinId,
        target: Rank,
        offset: usize,
        len: usize,
    ) -> Request {
        let (guard, extra) = self.enter().await;
        let (inner, cost) = {
            let mut eng = self.cell().inner.borrow_mut();
            let base = eng.profile.mpi_call_overhead_ns;
            let now = self.world.env.now() + base + extra;
            let (r, c) = eng.rma_get(&self.world.fabric, now, win, target, offset, len);
            (r, base + extra + c)
        };
        self.world.env.advance(cost).await;
        drop(guard);
        Request { inner }
    }

    /// `MPI_Win_fence`: complete all locally-issued RMA on `win`, then
    /// synchronize. After the fence, every rank's puts are visible in the
    /// target windows.
    pub async fn win_fence(&self, win: crate::engine::WinId) {
        let pending = self.cell().inner.borrow_mut().take_rma_origin(win);
        let reqs: Vec<Request> = pending.into_iter().map(|inner| Request { inner }).collect();
        self.waitall(&reqs).await;
        self.barrier(COMM_WORLD).await;
    }

    // -- blocking collectives -------------------------------------------------

    /// A blocking collective is its nonblocking form plus a wait.
    async fn collective(&self, comm: CommId, coll: CollOf<Bytes>) -> Bytes {
        let r = self.icollective(comm, coll).await;
        self.wait(&r).await;
        r.take_data().expect("collective result")
    }

    /// `MPI_Barrier`.
    pub async fn barrier(&self, comm: CommId) {
        self.collective(comm, CollOf::Barrier).await;
    }

    /// `MPI_Bcast`; returns the broadcast payload on every rank.
    pub async fn bcast(&self, comm: CommId, root: Rank, payload: impl Into<Bytes>) -> Bytes {
        let payload = payload.into();
        self.collective(comm, CollOf::Bcast { root, payload }).await
    }

    /// `MPI_Allreduce`; returns the reduced payload.
    pub async fn allreduce(
        &self,
        comm: CommId,
        contribution: impl Into<Bytes>,
        dtype: Dtype,
        op: ReduceOp,
    ) -> Bytes {
        let data = contribution.into();
        self.collective(comm, CollOf::Allreduce { dtype, op, data })
            .await
    }

    /// `MPI_Reduce`; the root gets the reduction, others get their final
    /// partial (callers should ignore it, as in MPI).
    pub async fn reduce(
        &self,
        comm: CommId,
        root: Rank,
        contribution: impl Into<Bytes>,
        dtype: Dtype,
        op: ReduceOp,
    ) -> Bytes {
        let data = contribution.into();
        let coll = CollOf::Reduce {
            root,
            dtype,
            op,
            data,
        };
        self.collective(comm, coll).await
    }

    /// `MPI_Allgather`.
    pub async fn allgather(&self, comm: CommId, contribution: impl Into<Bytes>) -> Bytes {
        let mine = contribution.into();
        self.collective(comm, CollOf::Allgather { mine }).await
    }

    /// `MPI_Alltoall`.
    pub async fn alltoall(&self, comm: CommId, input: impl Into<Bytes>, block: usize) -> Bytes {
        let input = input.into();
        self.collective(comm, CollOf::Alltoall { input, block })
            .await
    }
}

/// Future that resolves when any request in the set completes.
fn wait_any_done(reqs: &[Request]) -> WaitAnyDone {
    WaitAnyDone {
        flags: reqs.iter().map(|r| r.inner.done.clone()).collect(),
    }
}

struct WaitAnyDone {
    flags: Vec<destime::sync::Flag>,
}

impl std::future::Future for WaitAnyDone {
    type Output = ();
    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        for f in &self.flags {
            if f.is_set() {
                return std::task::Poll::Ready(());
            }
        }
        for f in &self.flags {
            // Register with each flag; first set wins.
            let mut w = f.wait();
            if std::pin::Pin::new(&mut w).poll(cx).is_ready() {
                return std::task::Poll::Ready(());
            }
        }
        std::task::Poll::Pending
    }
}
