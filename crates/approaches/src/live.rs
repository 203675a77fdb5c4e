//! Live counterparts of the approach matrix: the same baseline / iprobe /
//! offload comparison, but over a real [`rtmpi::Transport`] (in-process
//! mailboxes or the `crates/wire` socket backend) instead of the
//! discrete-event simulator.
//!
//! The application-visible surface is deliberately the one the paper's
//! unmodified apps use — isend / irecv / wait / barrier — and every
//! strategy runs the same service loop ([`offload::Service`]: progress the
//! transport, sweep in-flight operations, advance collective schedules).
//! The three differ *only* in who calls its `step`, and when:
//!
//! * [`LiveApproach::Baseline`]: the application thread, and only while it
//!   blocks in [`LiveComm::wait`] / [`LiveComm::coll_wait`] — over the wire
//!   backend an incoming rendezvous RTS therefore sits unanswered until
//!   the wait, the behaviour the paper attacks.
//! * [`LiveApproach::Iprobe`]: the application thread, also whenever the
//!   application sprinkles [`LiveComm::progress_hint`] into its compute
//!   loop (the MPI_Iprobe workaround) — progress happens, but on the
//!   application's clock and the application's core.
//! * [`LiveApproach::Offload`]: the dedicated offload thread
//!   (`offload::OffloadRank`), continuously — rendezvous handshakes
//!   complete during application compute without the application doing
//!   anything, and the application never steps.
//!
//! Every request of every strategy is an [`offload::Handle`] into a
//! request pool. Blocking waits honour the transport's op timeout and
//! surface peer death as [`TransportError`] instead of hanging — the
//! launcher-level robustness story depends on this.
//!
//! **Collectives.** All three strategies expose the full `Comm` collective
//! surface (barrier, bcast, reduce, allreduce incl. Rabenseifner,
//! allgather, alltoall, gather, scatter) as nonblocking schedules:
//! [`LiveComm::icollective`] posts the first round and returns a handle;
//! [`LiveComm::coll_wait`] completes it. Rounds travel in the reserved tag
//! space ([`rtmpi::TAG_COLL_BASE`]), which wildcard receives can never
//! match — an app `ANY_TAG` recv posted mid-barrier stays pending until
//! real app traffic arrives.

use std::sync::Arc;

use mpisim::types::{bytes_to_f64s, f64s_to_bytes, Dtype, ReduceOp};
use offload::{Completion, Handle, OffloadHandle, OffloadRank, Op, RequestPool, Service};
use rtmpi::{Status, Transport, TransportError};

// The collective surface of [`LiveComm`] speaks `CollKind`; re-export it
// so application drivers need no direct `offload` dependency.
pub use offload::CollKind;

/// The three strategies with live (real-transport) implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveApproach {
    Baseline,
    Iprobe,
    Offload,
}

impl LiveApproach {
    pub const ALL: [LiveApproach; 3] = [
        LiveApproach::Baseline,
        LiveApproach::Iprobe,
        LiveApproach::Offload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LiveApproach::Baseline => "baseline",
            LiveApproach::Iprobe => "iprobe",
            LiveApproach::Offload => "offload",
        }
    }
}

/// What a completed wait yields: `None` for a finished send, the status
/// and payload for a finished receive.
pub type WaitOutcome = Option<(Status, Arc<[u8]>)>;

/// One rank's communication object (see module docs).
pub struct LiveComm<T: Transport> {
    inner: Inner<T>,
    rank: usize,
    size: usize,
}

enum Inner<T: Transport> {
    /// Baseline / iprobe: the application thread owns the service and
    /// steps it itself.
    Direct { svc: Service<T>, step_on_hint: bool },
    /// Offload: the dedicated thread owns it; we hold the command handle.
    Offload {
        world: OffloadRank<T>,
        handle: OffloadHandle,
    },
}

/// Step `svc` on the calling (application) thread until `done`. This is
/// the baseline's defining moment: progress happens *here*, because the
/// application finally blocked — and is attributed in-wait.
fn drive<T: Transport>(svc: &mut Service<T>, done: impl Fn(&Service<T>) -> bool) {
    svc.set_in_wait(true);
    while !done(svc) {
        // Completion needs the peer to act; give it the core instead of
        // burning our whole quantum re-polling an unchanged transport
        // (ruinous on oversubscribed machines, where the peer can't run
        // until we yield).
        if !svc.step() {
            std::thread::yield_now();
        }
    }
    svc.set_in_wait(false);
}

impl<T: Transport> LiveComm<T> {
    /// Wrap an owned transport in the chosen strategy.
    pub fn start(approach: LiveApproach, t: T) -> Self {
        let (rank, size) = (t.rank(), t.size());
        let inner = match approach {
            LiveApproach::Offload => {
                let world = offload::offload_rank(t);
                let handle = world.handle();
                Inner::Offload { world, handle }
            }
            direct => Inner::Direct {
                svc: Service::new(
                    t,
                    Arc::new(RequestPool::with_capacity(offload::DEFAULT_CAP)),
                    &obs::Registry::default(),
                ),
                step_on_hint: direct == LiveApproach::Iprobe,
            },
        };
        LiveComm { inner, rank, size }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Allocate a reply slot and issue `op`: to the offload thread's lanes,
    /// or straight into our own service.
    fn post(&mut self, op: Op) -> Handle {
        match &mut self.inner {
            Inner::Direct { svc, .. } => {
                // Only this thread frees slots: waiting for a vacancy, as
                // `alloc_blocking` does, would wait forever.
                let cap = offload::DEFAULT_CAP;
                let slot = svc.pool().alloc().unwrap_or_else(|| {
                    panic!("request pool exhausted: {cap} requests posted and not waited on")
                });
                // A post is an application-initiated MPI call: a buffered
                // RTS accepted right here is synchronous progress, not the
                // work of an async actor — mark it so the transport's
                // handshake attribution stays honest.
                svc.set_in_wait(true);
                svc.submit(op, slot);
                svc.set_in_wait(false);
                slot
            }
            Inner::Offload { handle, .. } => handle.post(op),
        }
    }

    /// Nonblocking send. Tags from [`rtmpi::TAG_RESERVED_BASE`] up belong
    /// to collective rounds; an application message there could be taken
    /// for one.
    pub fn isend(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> Handle {
        assert!(tag < rtmpi::TAG_RESERVED_BASE, "application tag too large");
        self.post(Op::Isend { dst, tag, data })
    }

    /// Nonblocking receive (`None` filters are wildcards, which never
    /// match the reserved tag space; an exact tag must stay below it).
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<u32>) -> Handle {
        assert!(
            tag.is_none_or(|t| t < rtmpi::TAG_RESERVED_BASE),
            "application tag too large"
        );
        self.post(Op::Irecv { src, tag })
    }

    /// Give the library a chance to progress, from application compute.
    /// Baseline: deliberately a no-op (that is the baseline's flaw).
    /// Iprobe: one pass of the service loop — the transport is polled and
    /// in-flight operations and collective rounds complete on the
    /// application's clock.
    /// Offload: a no-op — the offload thread is already polling.
    pub fn progress_hint(&mut self) {
        if let Inner::Direct {
            svc,
            step_on_hint: true,
        } = &mut self.inner
        {
            svc.step();
        }
    }

    /// Block until `h` completes and take its completion. `retire`: in
    /// the direct modes, also until no delivered collective still has
    /// round sends in flight.
    fn complete(&mut self, h: Handle, retire: bool) -> Result<Completion, TransportError> {
        match &mut self.inner {
            Inner::Direct { svc, .. } => {
                drive(svc, |s| s.pool().is_done(h) && !(retire && s.is_draining()));
                let done = svc.pool().wait_take(h);
                done.expect("completion value present").into_result()
            }
            Inner::Offload { handle, .. } => handle.wait_result(h),
        }
    }

    /// Blocking wait; `Ok(None)` for sends, `Ok(Some(..))` for receives.
    /// Honours the transport's op timeout; surfaces peer death.
    pub fn wait(&mut self, req: Handle) -> Result<WaitOutcome, TransportError> {
        match self.complete(req, false)? {
            Completion::Sent => Ok(None),
            Completion::Received(st, d) => Ok(Some((st, d))),
            other => panic!("point-to-point wait completed as {other:?}"),
        }
    }

    /// Blocking send.
    pub fn send(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> Result<(), TransportError> {
        let r = self.isend(dst, tag, data);
        self.wait(r).map(|_| ())
    }

    /// Blocking receive.
    pub fn recv(
        &mut self,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<(Status, Arc<[u8]>), TransportError> {
        let r = self.irecv(src, tag);
        Ok(self.wait(r)?.expect("receive yields payload"))
    }

    /// Begin a nonblocking collective (the `MPI_Ibarrier`/`MPI_Iallreduce`
    /// family). Every rank must issue its collectives in the same order
    /// with matching arguments. The service compiles the schedule and
    /// posts round 0 when the command reaches it: here in the direct
    /// modes, on the dedicated thread in offload mode.
    pub fn icollective(&mut self, kind: CollKind) -> Handle {
        self.post(Op::Collective(kind))
    }

    /// Complete a collective started with [`icollective`], returning its
    /// result buffer (empty for barrier). Honours the transport's op
    /// timeout; surfaces peer death mid-schedule as an error, with the
    /// schedule's remaining operations cancelled. In the direct modes it
    /// returns only once the schedule's round sends have retired too —
    /// nobody would flush them while the application computes.
    ///
    /// [`icollective`]: LiveComm::icollective
    pub fn coll_wait(&mut self, req: Handle) -> Result<Vec<u8>, TransportError> {
        match self.complete(req, true)? {
            Completion::Collective(out) => Ok(out),
            other => panic!("collective completed as {other:?}"),
        }
    }

    fn collective(&mut self, kind: CollKind) -> Result<Vec<u8>, TransportError> {
        let req = self.icollective(kind);
        self.coll_wait(req)
    }

    /// Barrier — a dissemination schedule ([`mpisim::nbc::barrier_rounds`])
    /// in the reserved tag space. Safe to reuse back-to-back: each
    /// instance gets a fresh sequence tag, and per-(source, tag) FIFO
    /// keeps any same-tag reuse ordered.
    pub fn barrier(&mut self) -> Result<(), TransportError> {
        self.collective(CollKind::Barrier).map(|_| ())
    }

    /// Blocking allreduce over raw `dtype` lanes.
    pub fn allreduce(
        &mut self,
        data: Vec<u8>,
        dtype: Dtype,
        op: ReduceOp,
    ) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Allreduce { dtype, op, data })
    }

    /// Blocking f64 sum allreduce.
    pub fn allreduce_f64_sum(&mut self, mine: &[f64]) -> Result<Vec<f64>, TransportError> {
        let out = self.allreduce(f64s_to_bytes(mine), Dtype::F64, ReduceOp::Sum)?;
        Ok(bytes_to_f64s(&out))
    }

    /// Blocking reduce to `root` (result meaningful on the root only).
    pub fn reduce(
        &mut self,
        root: usize,
        data: Vec<u8>,
        dtype: Dtype,
        op: ReduceOp,
    ) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Reduce {
            root,
            dtype,
            op,
            data,
        })
    }

    /// Blocking broadcast from `root` (payload on root only).
    pub fn bcast(&mut self, root: usize, payload: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Bcast { root, payload })
    }

    /// Blocking allgather of equal contributions.
    pub fn allgather(&mut self, mine: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Allgather { mine })
    }

    /// Blocking personalized all-to-all of `block`-byte blocks.
    pub fn alltoall(&mut self, input: Vec<u8>, block: usize) -> Result<Vec<u8>, TransportError> {
        assert_eq!(input.len(), self.size * block);
        self.collective(CollKind::Alltoall { input, block })
    }

    /// Blocking gather of equal blocks to `root`.
    pub fn gather(&mut self, root: usize, mine: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Gather { root, mine })
    }

    /// Blocking scatter of `block`-byte blocks from `root`.
    pub fn scatter(
        &mut self,
        root: usize,
        input: Vec<u8>,
        block: usize,
    ) -> Result<Vec<u8>, TransportError> {
        if self.rank == root {
            assert_eq!(input.len(), self.size * block);
        }
        self.collective(CollKind::Scatter { root, input, block })
    }

    /// The per-strategy metrics registries: (command-path registry if the
    /// strategy has an offload thread, transport registry if the transport
    /// keeps one).
    pub fn obs(&self) -> (Option<obs::Registry>, Option<obs::Registry>) {
        match &self.inner {
            Inner::Direct { svc, .. } => (None, svc.transport().obs_registry()),
            Inner::Offload { handle, .. } => {
                (Some(handle.obs().clone()), handle.transport_obs().cloned())
            }
        }
    }

    /// Tear down the strategy and hand the transport back, so one process
    /// can run several approaches sequentially over the same mesh. What is
    /// still in flight is first driven to completion (or to its timeout),
    /// so the reclaimed transport carries no posted operation.
    pub fn finalize(self) -> T {
        match self.inner {
            Inner::Direct { mut svc, .. } => {
                drive(&mut svc, Service::is_idle);
                svc.into_transport()
            }
            Inner::Offload { world, .. } => world.finalize_reclaim(),
        }
    }
}

/// Every collective of the live surface, issued once over `comm` and
/// verified element by element; panics on the first wrong lane. Lane `i`
/// of rank `x`'s contribution is `x·lanes + i`, so every reduction and
/// permutation has a closed form. Contributions are 8 KiB (rendezvous
/// rounds, not eager drops) except where a size picks the schedule: a
/// two-lane allreduce takes recursive doubling, a 32 KiB one Rabenseifner
/// on power-of-two worlds. Roots are non-zero where the schedule has one
/// to choose. Every rank of the world must call it.
pub fn verify_collectives<T: Transport>(comm: &mut LiveComm<T>) {
    const LANES: usize = 1024;
    const BLOCK: usize = LANES * 8;
    let (r, n) = (comm.rank(), comm.size());
    let lanes_of = |count: usize, f: &dyn Fn(usize) -> f64| {
        f64s_to_bytes(&(0..count).map(f).collect::<Vec<_>>())
    };
    let contribution = |rank: usize, lanes: usize| lanes_of(lanes, &|i| (rank * lanes + i) as f64);
    let check = |what: &str, got: &[u8], want: &dyn Fn(usize) -> f64| {
        for (i, g) in bytes_to_f64s(got).iter().enumerate() {
            assert_eq!(*g, want(i), "{what}: lane {i} on rank {r}");
        }
    };
    // Σ_x (x·lanes + i) = n·i + lanes·n(n−1)/2.
    let lane_sum = |lanes: usize, i: usize| (n * i + lanes * n * (n - 1) / 2) as f64;

    comm.barrier().expect("barrier");

    let got = comm
        .allreduce_f64_sum(&[r as f64, 1.0])
        .expect("allreduce, two lanes");
    assert_eq!(got, vec![(n * (n - 1) / 2) as f64, n as f64]);
    for lanes in [LANES, 4 * LANES] {
        let got = comm
            .allreduce(contribution(r, lanes), Dtype::F64, ReduceOp::Sum)
            .expect("allreduce sum");
        assert_eq!(got.len(), lanes * 8);
        check("allreduce sum", &got, &|i| lane_sum(lanes, i));
    }
    let got = comm
        .allreduce(contribution(r, LANES), Dtype::F64, ReduceOp::Max)
        .expect("allreduce max");
    check("allreduce max", &got, &|i| ((n - 1) * LANES + i) as f64);

    let root = n - 1;
    let payload = if r == root {
        contribution(root, LANES)
    } else {
        Vec::new()
    };
    let got = comm.bcast(root, payload).expect("bcast");
    assert_eq!(got.len(), BLOCK);
    check("bcast", &got, &|i| (root * LANES + i) as f64);

    let got = comm
        .reduce(root, contribution(r, LANES), Dtype::F64, ReduceOp::Sum)
        .expect("reduce");
    if r == root {
        check("reduce", &got, &|i| lane_sum(LANES, i));
    }

    // Gathered buffers are the contributions in rank order: lane `j` of
    // the concatenation is simply `j`.
    let got = comm.allgather(contribution(r, LANES)).expect("allgather");
    assert_eq!(got.len(), n * BLOCK);
    check("allgather", &got, &|j| j as f64);

    // Alltoall: my block for destination d carries (r·n + d)·LANES + i.
    let input = lanes_of(n * LANES, &|j| {
        ((r * n + j / LANES) * LANES + j % LANES) as f64
    });
    let got = comm.alltoall(input, BLOCK).expect("alltoall");
    assert_eq!(got.len(), n * BLOCK);
    check("alltoall", &got, &|j| {
        ((j / LANES * n + r) * LANES + j % LANES) as f64
    });

    let got = comm.gather(1, contribution(r, LANES)).expect("gather");
    if r == 1 {
        assert_eq!(got.len(), n * BLOCK);
        check("gather", &got, &|j| j as f64);
    }

    let input = if r == 1 {
        lanes_of(n * LANES, &|j| (7 * j) as f64)
    } else {
        Vec::new()
    };
    let got = comm.scatter(1, input, BLOCK).expect("scatter");
    assert_eq!(got.len(), BLOCK);
    check("scatter", &got, &|i| (7 * (r * LANES + i)) as f64);

    comm.barrier().expect("closing barrier");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring exchange + barrier under one strategy; returns the reclaimed
    /// transport for the next strategy.
    fn ring_round<T: Transport>(approach: LiveApproach, t: T, payload_len: usize) -> T {
        let mut comm = LiveComm::start(approach, t);
        let (r, n) = (comm.rank(), comm.size());
        let payload: Arc<[u8]> = (0..payload_len).map(|i| (i as u8) ^ (r as u8)).collect();
        let s = comm.isend((r + 1) % n, 9, payload);
        let rx = comm.irecv(Some((r + n - 1) % n), Some(9));
        // A compute phase that hints (a no-op except under iprobe).
        for _ in 0..64 {
            comm.progress_hint();
            std::thread::yield_now();
        }
        let (st, data) = comm.wait(rx).expect("recv ok").expect("payload");
        assert_eq!(st.source, (r + n - 1) % n);
        assert_eq!(data.len(), payload_len);
        let left = (r + n - 1) % n;
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(b, (i as u8) ^ (left as u8));
        }
        comm.wait(s).expect("send ok");
        comm.barrier().expect("barrier ok");
        comm.finalize()
    }

    fn all_approaches_sequentially<T, F>(make: F, payload_len: usize)
    where
        T: Transport,
        F: Fn() -> Vec<T>,
    {
        let world = make();
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    // All three strategies back-to-back over the same
                    // transport: finalize must leave it reusable.
                    for a in LiveApproach::ALL {
                        t = ring_round(a, t, payload_len);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    #[test]
    fn approaches_over_rtmpi_world() {
        all_approaches_sequentially(|| rtmpi::world(4), 1024);
    }

    /// The full collective surface, element-verified, under every strategy
    /// back-to-back over the same transports.
    fn collectives_under_all_approaches<T, F>(make: F)
    where
        T: Transport,
        F: Fn() -> Vec<T>,
    {
        let world = make();
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        let mut comm = LiveComm::start(a, t);
                        verify_collectives(&mut comm);
                        t = comm.finalize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    #[test]
    fn collectives_over_rtmpi_world() {
        collectives_under_all_approaches(|| rtmpi::world(4));
    }

    #[test]
    fn collectives_over_wire_loopback() {
        collectives_under_all_approaches(|| wire::loopback(4));
    }

    /// Collectives on a non-power-of-two world take the reduce+bcast
    /// allreduce fallback and the general binomial trees.
    #[test]
    fn collectives_over_three_ranks() {
        collectives_under_all_approaches(|| rtmpi::world(3));
    }

    /// Nonblocking collective with compute between post and wait — the
    /// fig-3/5 shape — under every strategy, overlapping two schedules.
    #[test]
    fn icollective_overlaps_with_compute_and_pipelines() {
        let world = wire::loopback(2);
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        let mut comm = LiveComm::start(a, t);
                        let r = comm.rank();
                        let h1 = comm.icollective(CollKind::Allreduce {
                            dtype: Dtype::F64,
                            op: ReduceOp::Sum,
                            data: (r as f64).to_le_bytes().to_vec(),
                        });
                        let h2 = comm.icollective(CollKind::Allgather {
                            mine: vec![r as u8],
                        });
                        for _ in 0..64 {
                            comm.progress_hint();
                            std::thread::yield_now();
                        }
                        let sum = comm.coll_wait(h1).expect("allreduce");
                        assert_eq!(f64::from_le_bytes(sum[..8].try_into().unwrap()), 1.0);
                        assert_eq!(comm.coll_wait(h2).expect("allgather"), vec![0, 1]);
                        t = comm.finalize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    /// The wildcard tag-leak regression (ISSUE 7): an `ANY_SOURCE`/`ANY_TAG`
    /// receive posted *before* a barrier must not steal barrier tokens or
    /// collective rounds — it completes with the app message sent after
    /// the barrier, under every strategy and at 2 and 4 ranks.
    fn wildcard_recv_survives_barrier<T: Transport>(world: Vec<T>) {
        let n = world.len();
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        let mut comm = LiveComm::start(a, t);
                        let r = comm.rank();
                        // Rank 0 posts the wildcard recv first...
                        let rx = (r == 0).then(|| comm.irecv(None, None));
                        // ...then everyone runs collectives whose rounds all
                        // travel through rank 0's matching queue.
                        comm.barrier().expect("barrier");
                        let g = comm.allgather(vec![r as u8]).expect("allgather");
                        assert_eq!(g, (0..n as u8).collect::<Vec<_>>());
                        comm.barrier().expect("barrier 2");
                        // Only now does the app message appear.
                        if r == 1 {
                            comm.send(0, 42, Arc::from(vec![0xEE])).expect("send");
                        }
                        if let Some(rx) = rx {
                            let (st, data) = comm.wait(rx).expect("recv ok").expect("payload");
                            assert_eq!(st.source, 1, "wildcard matched internal traffic");
                            assert_eq!(st.tag, 42, "wildcard stole a reserved tag");
                            assert_eq!(data.to_vec(), vec![0xEE]);
                        }
                        comm.barrier().expect("exit barrier");
                        t = comm.finalize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    #[test]
    fn wildcard_recv_during_barrier_rtmpi_2_and_4_ranks() {
        wildcard_recv_survives_barrier(rtmpi::world(2));
        wildcard_recv_survives_barrier(rtmpi::world(4));
    }

    #[test]
    fn wildcard_recv_during_barrier_wire_loopback() {
        wildcard_recv_survives_barrier(wire::loopback(2));
        wildcard_recv_survives_barrier(wire::loopback(4));
    }

    /// A live-but-silent peer: rank 1 never enters the barrier. The one
    /// deadline rule must turn rank 0's `coll_wait` into `Timeout` under
    /// every strategy — the offload thread used to put a deadline on
    /// point-to-point operations only and hung here — abort the schedule,
    /// and leave the mesh usable for the ping-pong that follows.
    #[test]
    fn silent_peer_times_a_collective_out_under_every_approach() {
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;
        let cfg = wire::WireConfig {
            timeout: Duration::from_millis(200),
            ..wire::WireConfig::default()
        };
        let gate = Arc::new(Barrier::new(2));
        let (done_tx, done_rx) = mpsc::channel();
        for t in wire::loopback_configured(2, cfg) {
            let (gate, done_tx) = (gate.clone(), done_tx.clone());
            std::thread::spawn(move || {
                let mut t = t;
                for a in LiveApproach::ALL {
                    let mut comm = LiveComm::start(a, t);
                    if comm.rank() == 0 {
                        let h = comm.icollective(CollKind::Barrier);
                        let err = comm.coll_wait(h).expect_err("rank 1 never joins");
                        assert_eq!(
                            err.to_string(),
                            "Timeout: operation pending after 200 ms",
                            "{a:?}"
                        );
                        gate.wait(); // only now does rank 1 start talking
                        comm.send(1, 7, Arc::from(vec![4u8, 2])).expect("ping");
                        let (_, pong) = comm.recv(Some(1), Some(8)).expect("pong");
                        assert_eq!(pong.to_vec(), vec![4, 2], "{a:?}");
                    } else {
                        gate.wait();
                        let (_, ping) = comm.recv(Some(0), Some(7)).expect("ping");
                        comm.send(0, 8, ping).expect("pong");
                    }
                    // Returns only once nothing is in flight: the timed-out
                    // schedule's receives were cancelled, not left posted.
                    t = comm.finalize();
                }
                done_tx.send(()).expect("test still listening");
            });
        }
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a rank hung on the silent peer (or panicked)");
        }
    }

    /// Application traffic may not enter the reserved collective tag
    /// span: an exact receive tag there is refused, and so is the send
    /// that ends the test. Both are refused before anything is posted, so
    /// the strategy tears down cleanly while the panic unwinds.
    fn post_into_the_reserved_span(approach: LiveApproach) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let t = rtmpi::world(2).remove(0);
        let mut comm = LiveComm::start(approach, t);
        let refused = catch_unwind(AssertUnwindSafe(|| {
            comm.irecv(Some(1), Some(rtmpi::TAG_COLL_BASE));
        }));
        assert!(refused.is_err(), "exact receive inside the reserved span");
        let _ = comm.isend(1, rtmpi::TAG_COLL_BASE + 3, Arc::from(vec![1u8]));
    }

    /// The guard's boundary: the last tag below the span is an ordinary
    /// application tag, and a wildcard receive (which can never match the
    /// span) is not refused.
    #[test]
    fn last_application_tag_and_wildcards_are_accepted() {
        let last = rtmpi::TAG_RESERVED_BASE - 1;
        let mut world = rtmpi::world(2);
        let t1 = world.remove(1);
        let sender = std::thread::spawn(move || {
            let mut c = LiveComm::start(LiveApproach::Baseline, t1);
            c.send(0, last, Arc::from(vec![7u8])).expect("send");
            c.send(0, last, Arc::from(vec![8u8])).expect("send");
        });
        let mut c = LiveComm::start(LiveApproach::Baseline, world.remove(0));
        let (st, d) = c.recv(Some(1), Some(last)).expect("exact tag");
        assert_eq!((st.tag, d[0]), (last, 7));
        let (st, d) = c.recv(None, None).expect("wildcard");
        assert_eq!((st.tag, d[0]), (last, 8));
        sender.join().expect("sender");
    }

    #[test]
    #[should_panic(expected = "application tag too large")]
    fn baseline_refuses_reserved_tags() {
        post_into_the_reserved_span(LiveApproach::Baseline);
    }

    #[test]
    #[should_panic(expected = "application tag too large")]
    fn iprobe_refuses_reserved_tags() {
        post_into_the_reserved_span(LiveApproach::Iprobe);
    }

    #[test]
    #[should_panic(expected = "application tag too large")]
    fn offload_refuses_reserved_tags() {
        post_into_the_reserved_span(LiveApproach::Offload);
    }

    #[test]
    fn approaches_over_wire_loopback_eager() {
        all_approaches_sequentially(|| wire::loopback(3), 512);
    }

    #[test]
    fn approaches_over_wire_loopback_rendezvous() {
        // Above the default eager crossover: the full RTS→CTS→DATA path
        // under every strategy.
        all_approaches_sequentially(|| wire::loopback(2), 64 * 1024);
    }

    /// The attribution story the harness panel relies on: under baseline
    /// the wire backend completes rendezvous handshakes at-wait; under
    /// offload it completes them asynchronously.
    #[test]
    #[cfg(feature = "obs-enabled")]
    fn wire_handshake_attribution_differs_by_approach() {
        for (approach, at_wait_expected) in [
            (LiveApproach::Baseline, true),
            (LiveApproach::Offload, false),
        ] {
            let world = wire::loopback(2);
            let handles: Vec<_> = world
                .into_iter()
                .map(|t| {
                    std::thread::spawn(move || {
                        let mut comm = LiveComm::start(approach, t);
                        let (r, n) = (comm.rank(), comm.size());
                        let big: Arc<[u8]> = Arc::from(vec![7u8; 64 * 1024]);
                        let s = comm.isend((r + 1) % n, 3, big);
                        let rx = comm.irecv(Some((r + 1) % n), Some(3));
                        if approach == LiveApproach::Offload {
                            // Give the offload thread time to run the
                            // handshake while the app "computes".
                            std::thread::sleep(std::time::Duration::from_millis(100));
                        }
                        comm.wait(rx).expect("recv ok");
                        comm.wait(s).expect("send ok");
                        let (_, transport_obs) = comm.obs();
                        let snap = transport_obs.expect("wire keeps a registry").snapshot();
                        (
                            snap.counter("wire.rndv_handshake_at_wait"),
                            snap.counter("wire.rndv_handshake_async"),
                        )
                    })
                })
                .collect();
            let (mut at_wait, mut async_) = (0, 0);
            for h in handles {
                let (w, a) = h.join().expect("rank thread ok");
                at_wait += w;
                async_ += a;
            }
            assert_eq!(at_wait + async_, 2, "one handshake per rank");
            if at_wait_expected {
                assert_eq!(async_, 0, "baseline never progresses outside wait");
            } else {
                assert_eq!(at_wait, 0, "offload never blocks the app in wait");
            }
        }
    }
}
