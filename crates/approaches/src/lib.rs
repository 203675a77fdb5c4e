//! `approaches` — the communication strategies the paper compares, behind
//! one object.
//!
//! The paper's point about *unmodified applications* (§3.4, `LD_PRELOAD`)
//! translates here into [`Comm`]: application drivers (QCD stencil, FFT,
//! CNN) are written once against it and run unchanged under every
//! strategy. The strategies differ only in who drives progress:
//!
//! | [`Approach`] | paper §2/§5 | mechanism here |
//! |---|---|---|
//! | `Baseline` | FUNNELED, master does all MPI | direct `mpisim` calls |
//! | `Iprobe` | baseline + periodic `MPI_Iprobe` | [`Comm::progress_hint`] issues a probe |
//! | `CommSelf` | THREAD_MULTIPLE + dedicated thread blocked in MPI | helper task polling the progress engine under the global lock |
//! | `CoreSpec` | Cray core specialization | helper polling below the locking layer; the library still runs `MPI_THREAD_MULTIPLE` (as `MPICH_ASYNC_PROGRESS` forces) |
//! | `Offload` | the paper's contribution | `offload::SimOffload` |
//!
//! The [`live`] module carries the same comparison onto real transports
//! (OS threads, and OS *processes* over sockets via `crates/wire`) with
//! the same method names — see its docs.

pub mod live;

use destime::futures::race;
use destime::sync::Flag;
use destime::{Env, Nanos};
use mpisim::{Bytes, Dtype, Mpi, Rank, ReduceOp, Status, Tag, ThreadLevel, COMM_WORLD};
use offload::{OffReq, SimOffload};
use std::future::Future;

// [`Comm::icollective`] speaks `SimColl`, the simulator's instantiation of
// the one collective type (`mpisim::nbc::CollOf`, whose live instantiation
// is `live::CollKind`); re-export it so application drivers need no direct
// `offload` dependency.
pub use offload::SimColl;

/// Which strategy to run an experiment under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    Baseline,
    Iprobe,
    CommSelf,
    CoreSpec,
    Offload,
}

impl Approach {
    pub const ALL: [Approach; 5] = [
        Approach::Baseline,
        Approach::Iprobe,
        Approach::CommSelf,
        Approach::CoreSpec,
        Approach::Offload,
    ];

    /// The four approaches of the paper's main comparisons (core-spec
    /// appears only in Fig 9b).
    pub const PAPER: [Approach; 4] = [
        Approach::Baseline,
        Approach::Iprobe,
        Approach::CommSelf,
        Approach::Offload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Approach::Baseline => "baseline",
            Approach::Iprobe => "iprobe",
            Approach::CommSelf => "comm-self",
            Approach::CoreSpec => "core-spec",
            Approach::Offload => "offload",
        }
    }

    /// Thread level the MPI library must be initialized with.
    /// `app_is_multithreaded`: will application threads call MPI
    /// concurrently themselves (the Fig 6/Fig 12 scenarios)?
    pub fn thread_level(self, app_is_multithreaded: bool) -> ThreadLevel {
        match self {
            // comm-self *requires* MULTIPLE (its helper and the master are
            // both inside MPI).
            Approach::CommSelf => ThreadLevel::Multiple,
            // Offload funnels everything through the offload thread no
            // matter what the application does — that is the whole point.
            Approach::Offload => ThreadLevel::Funneled,
            // Cray's asynchronous-progress support (MPICH_ASYNC_PROGRESS,
            // the feature core specialization hosts) forces the library
            // into THREAD_MULTIPLE: the progress engine runs on the
            // reserved core, but every application call still pays the
            // reentrancy cost. This is why core-spec trails offload in the
            // paper's Fig 9(b) despite having dedicated progress.
            Approach::CoreSpec => ThreadLevel::Multiple,
            Approach::Baseline | Approach::Iprobe => {
                if app_is_multithreaded {
                    ThreadLevel::Multiple
                } else {
                    ThreadLevel::Funneled
                }
            }
        }
    }

    /// How many cores this approach takes away from the application team.
    pub fn dedicated_cores(self) -> usize {
        match self {
            Approach::Baseline | Approach::Iprobe => 0,
            Approach::CommSelf | Approach::CoreSpec | Approach::Offload => 1,
        }
    }
}

/// A request handle from any strategy.
#[derive(Clone)]
pub enum CommReq {
    Direct(mpisim::Request),
    Off(OffReq),
}

impl CommReq {
    pub fn is_done(&self) -> bool {
        match self {
            CommReq::Direct(r) => r.is_done(),
            CommReq::Off(r) => r.is_done(),
        }
    }

    pub fn status(&self) -> Option<Status> {
        match self {
            CommReq::Direct(r) => r.status(),
            CommReq::Off(r) => r.status(),
        }
    }

    pub fn take_data(&self) -> Option<Bytes> {
        match self {
            CommReq::Direct(r) => r.take_data(),
            CommReq::Off(r) => r.take_data(),
        }
    }

    fn direct(&self) -> &mpisim::Request {
        match self {
            CommReq::Direct(r) => r,
            CommReq::Off(_) => unreachable!("direct strategy handed an offload request"),
        }
    }

    fn off(&self) -> &OffReq {
        match self {
            CommReq::Off(r) => r,
            CommReq::Direct(_) => unreachable!("offload strategy handed a direct request"),
        }
    }
}

/// One rank's communication object: the uniform interface applications
/// are written against, under whichever strategy it was started with.
///
/// All operations address `COMM_WORLD`; experiments needing
/// sub-communicators (Fig 12's thread-groups) use [`Comm::mpi`] directly.
/// Clone freely across the rank's simulated application threads.
#[derive(Clone)]
pub struct Comm {
    approach: Approach,
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    /// The application calls the MPI library itself: the funneled
    /// master-only pattern, or raw THREAD_MULTIPLE if the universe was
    /// initialized so.
    Direct {
        mpi: Mpi,
        /// Iprobe: the `PROGRESS` points pay for an `MPI_Iprobe` (§2.1) —
        /// real master-thread time, the load-imbalance downside the paper
        /// describes.
        probe_on_hint: bool,
        /// Comm-self / core-spec: stops the progress helper.
        helper_shutdown: Option<Flag>,
    },
    /// The paper's contribution: every call becomes a command to the
    /// offload thread.
    Offload(SimOffload),
}

impl Comm {
    /// Start `approach` for one rank. Must be called once per rank inside
    /// the universe closure; pair with [`Comm::finalize`].
    pub fn start(approach: Approach, mpi: Mpi) -> Self {
        Self::start_traced(approach, mpi, &obs::Recorder::disabled())
    }

    /// As [`start`] with a flight recorder: the offload strategy's service
    /// thread emits virtual-clock events onto a per-rank track. Direct
    /// strategies have no service thread and record nothing.
    ///
    /// [`start`]: Comm::start
    pub fn start_traced(approach: Approach, mpi: Mpi, recorder: &obs::Recorder) -> Self {
        let inner = match approach {
            Approach::Offload => Inner::Offload(SimOffload::start_traced(mpi, recorder)),
            Approach::CommSelf | Approach::CoreSpec => {
                let locked = approach == Approach::CommSelf;
                if locked {
                    assert_eq!(
                        mpi.thread_level(),
                        ThreadLevel::Multiple,
                        "comm-self requires MPI_THREAD_MULTIPLE (paper §2.2)"
                    );
                }
                let shutdown = Flag::new();
                let env = mpi.env().clone();
                env.spawn(helper_loop(mpi.clone(), shutdown.clone(), locked));
                Inner::Direct {
                    mpi,
                    probe_on_hint: false,
                    helper_shutdown: Some(shutdown),
                }
            }
            Approach::Baseline | Approach::Iprobe => Inner::Direct {
                mpi,
                probe_on_hint: approach == Approach::Iprobe,
                helper_shutdown: None,
            },
        };
        Comm { approach, inner }
    }

    pub fn approach(&self) -> Approach {
        self.approach
    }

    /// Escape hatch to the underlying simulated MPI (communicator
    /// management, statistics).
    pub fn mpi(&self) -> &Mpi {
        match &self.inner {
            Inner::Direct { mpi, .. } => mpi,
            Inner::Offload(off) => off.mpi(),
        }
    }

    pub fn rank(&self) -> Rank {
        self.mpi().rank()
    }

    pub fn size(&self) -> usize {
        self.mpi().size()
    }

    pub fn env(&self) -> &Env {
        self.mpi().env()
    }

    /// This rank's MPI-engine metrics registry (progress polls, protocol
    /// splits, queue depths, lock wait). Same registry for every strategy —
    /// what differs between approaches is *who* drives it.
    pub fn obs_registry(&self) -> obs::Registry {
        self.mpi().obs_registry()
    }

    /// The offload service thread's metrics registry (drain histograms,
    /// sweep counters), when this strategy has one.
    pub fn offload_service_obs(&self) -> Option<&obs::Registry> {
        match &self.inner {
            Inner::Offload(off) => Some(off.obs()),
            Inner::Direct { .. } => None,
        }
    }

    pub async fn isend(&self, dst: Rank, tag: Tag, payload: Bytes) -> CommReq {
        match &self.inner {
            Inner::Direct { mpi, .. } => {
                CommReq::Direct(mpi.isend(COMM_WORLD, dst, tag, payload).await)
            }
            Inner::Offload(off) => CommReq::Off(off.isend(COMM_WORLD, dst, tag, payload).await),
        }
    }

    pub async fn irecv(&self, src: Option<Rank>, tag: Option<Tag>) -> CommReq {
        match &self.inner {
            Inner::Direct { mpi, .. } => CommReq::Direct(mpi.irecv(COMM_WORLD, src, tag).await),
            Inner::Offload(off) => CommReq::Off(off.irecv(COMM_WORLD, src, tag).await),
        }
    }

    /// Begin a nonblocking collective (the `MPI_Ibarrier`/`MPI_Iallreduce`
    /// family); [`wait`] completes it and [`CommReq::take_data`] yields
    /// its result.
    ///
    /// [`wait`]: Comm::wait
    pub async fn icollective(&self, kind: SimColl) -> CommReq {
        match &self.inner {
            Inner::Direct { mpi, .. } => CommReq::Direct(mpi.icollective(COMM_WORLD, kind).await),
            Inner::Offload(off) => CommReq::Off(off.icoll(COMM_WORLD, kind).await),
        }
    }

    pub async fn wait(&self, req: &CommReq) -> Option<Status> {
        match &self.inner {
            Inner::Direct { mpi, .. } => mpi.wait(req.direct()).await,
            Inner::Offload(off) => off.wait(req.off()).await,
        }
    }

    /// The direct strategies make one `MPI_Waitall`; an offloaded waitall
    /// is a done-flag check per request. The two model different costs.
    pub async fn waitall(&self, reqs: &[CommReq]) {
        match &self.inner {
            Inner::Direct { mpi, .. } => {
                let direct: Vec<mpisim::Request> =
                    reqs.iter().map(|r| r.direct().clone()).collect();
                mpi.waitall(&direct).await;
            }
            Inner::Offload(off) => {
                for r in reqs {
                    off.wait(r.off()).await;
                }
            }
        }
    }

    pub async fn test(&self, req: &CommReq) -> bool {
        match &self.inner {
            Inner::Direct { mpi, .. } => mpi.test(req.direct()).await,
            Inner::Offload(off) => off.test(req.off()).await,
        }
    }

    /// The `PROGRESS` insertion point of Listing 1: a no-op except for the
    /// iprobe approach, where the master thread pays for an `MPI_Iprobe`.
    pub async fn progress_hint(&self) {
        if let Inner::Direct {
            mpi,
            probe_on_hint: true,
            ..
        } = &self.inner
        {
            let _ = mpi.iprobe(COMM_WORLD, None, None).await;
        }
    }

    /// Blocking send.
    pub async fn send(&self, dst: Rank, tag: Tag, payload: Bytes) {
        let r = self.isend(dst, tag, payload).await;
        self.wait(&r).await;
    }

    /// Blocking receive.
    pub async fn recv(&self, src: Option<Rank>, tag: Option<Tag>) -> (Status, Bytes) {
        let r = self.irecv(src, tag).await;
        let st = self.wait(&r).await.expect("recv completes with status");
        (st, r.take_data().expect("recv completes with data"))
    }

    /// A blocking collective is its nonblocking form plus a wait — what
    /// both `mpisim` and the offload thread make of it.
    async fn collective(&self, kind: SimColl) -> Option<Bytes> {
        let r = self.icollective(kind).await;
        self.wait(&r).await;
        r.take_data()
    }

    pub async fn barrier(&self) {
        self.collective(SimColl::Barrier).await;
    }

    pub async fn allreduce(&self, data: Bytes, dtype: Dtype, op: ReduceOp) -> Bytes {
        let kind = SimColl::Allreduce { data, dtype, op };
        self.collective(kind).await.expect("allreduce result")
    }

    pub async fn alltoall(&self, input: Bytes, block: usize) -> Bytes {
        let kind = SimColl::Alltoall { input, block };
        self.collective(kind).await.expect("alltoall result")
    }

    pub async fn allgather(&self, mine: Bytes) -> Bytes {
        let kind = SimColl::Allgather { mine };
        self.collective(kind).await.expect("allgather result")
    }

    pub async fn bcast(&self, root: Rank, payload: Bytes) -> Bytes {
        let kind = SimColl::Bcast { root, payload };
        self.collective(kind).await.expect("bcast result")
    }

    /// Tear down helper threads; call exactly once per rank at the end.
    pub async fn finalize(&self) {
        match &self.inner {
            Inner::Direct {
                helper_shutdown, ..
            } => {
                if let Some(shutdown) = helper_shutdown {
                    shutdown.set();
                }
            }
            Inner::Offload(off) => off.shutdown().await,
        }
    }
}

/// The dedicated progress helper of comm-self and core-spec, on one core
/// of the rank.
///
/// With `locked = true` this is the *comm-self* approach (§2.2): the
/// universe runs `MPI_THREAD_MULTIPLE` and the helper repeatedly enters
/// MPI — taking the global lock and contending with application threads —
/// exactly like a thread blocked in `MPI_Recv` on a dup of
/// `MPI_COMM_SELF` spinning inside the progress engine.
///
/// With `locked = false` it models Cray *core specialization* (Fig 9b): the
/// progress engine runs on a dedicated core below the MPI locking layer, so
/// application calls do not contend with it.
async fn helper_loop(mpi: Mpi, shutdown: Flag, locked: bool) {
    let env = mpi.env().clone();
    let gap: Nanos = mpi.profile().self_thread_gap_ns;
    loop {
        if shutdown.is_set() {
            return;
        }
        if locked {
            // Enter MPI like any THREAD_MULTIPLE caller: lock + poll.
            mpi.progress_once().await;
        } else {
            // Core specialization: drive the progress engine below the
            // application-visible locking layer.
            mpi.progress_unlocked().await;
        }
        // Event-driven duty cycle: the helper conceptually spins, but the
        // model only materializes the polls that *do* something — it wakes
        // for the next wire arrival (or new deposit), rate-limited to one
        // poll per `gap`. Between arrivals a real spinning helper also
        // accomplishes nothing; contention with application calls still
        // emerges whenever traffic is flowing, which is when it matters.
        let wait = Box::pin(async {
            env.advance(gap).await;
            mpi.park_until_activity().await;
        });
        let _ = race(shutdown.wait(), wait).await;
    }
}

/// Run an experiment closure under `approach` on `n` ranks: constructs the
/// universe at the right thread level, builds the strategy per rank, and
/// finalizes it after the closure returns.
pub fn run_approach<T, F, Fut>(
    n: usize,
    profile: simnet::MachineProfile,
    approach: Approach,
    app_is_multithreaded: bool,
    f: F,
) -> (Vec<T>, Nanos)
where
    T: 'static,
    F: Fn(Comm) -> Fut + 'static,
    Fut: Future<Output = T> + 'static,
{
    run_approach_traced(
        n,
        profile,
        approach,
        app_is_multithreaded,
        obs::Recorder::disabled(),
        f,
    )
}

/// As [`run_approach`] with a flight recorder threaded through to each
/// rank's strategy: under [`Approach::Offload`] every offload service
/// thread gets its own virtual-clock track. Export the recorder with
/// [`obs::Recorder::write_chrome_json`] after the run returns.
pub fn run_approach_traced<T, F, Fut>(
    n: usize,
    profile: simnet::MachineProfile,
    approach: Approach,
    app_is_multithreaded: bool,
    recorder: obs::Recorder,
    f: F,
) -> (Vec<T>, Nanos)
where
    T: 'static,
    F: Fn(Comm) -> Fut + 'static,
    Fut: Future<Output = T> + 'static,
{
    let level = approach.thread_level(app_is_multithreaded);
    let f = std::rc::Rc::new(f);
    mpisim::Universe::new(n, profile, level).run(move |mpi| {
        let f = f.clone();
        let recorder = recorder.clone();
        async move {
            let comm = Comm::start_traced(approach, mpi, &recorder);
            let out = f(comm.clone()).await;
            comm.finalize().await;
            out
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{bytes_to_f64s, f64s_to_bytes};
    use simnet::MachineProfile;

    /// Application code written once against `Comm` — a small halo-style
    /// exchange with an allreduce — must produce identical results under
    /// every approach.
    async fn mini_app(comm: Comm) -> f64 {
        let (r, p) = (comm.rank(), comm.size());
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        let rx = comm.irecv(Some(left), Some(1)).await;
        let tx = comm
            .isend(right, 1, Bytes::real(f64s_to_bytes(&[r as f64])))
            .await;
        comm.progress_hint().await;
        comm.env().advance(10_000).await; // compute
        comm.waitall(&[rx.clone(), tx]).await;
        let from_left = bytes_to_f64s(&rx.take_data().expect("halo data").to_vec())[0];
        let total = comm
            .allreduce(
                Bytes::real(f64s_to_bytes(&[from_left])),
                Dtype::F64,
                ReduceOp::Sum,
            )
            .await;
        bytes_to_f64s(&total.to_vec())[0]
    }

    #[test]
    fn all_approaches_run_the_same_app_correctly() {
        let expect: f64 = (0..4).map(|r| r as f64).sum();
        for approach in Approach::ALL {
            let (outs, _) = run_approach(4, MachineProfile::xeon(), approach, false, mini_app);
            for (r, &o) in outs.iter().enumerate() {
                assert_eq!(o, expect, "approach {} rank {r}", approach.name());
            }
        }
    }

    #[test]
    fn thread_levels_match_requirements() {
        assert_eq!(
            Approach::CommSelf.thread_level(false),
            ThreadLevel::Multiple
        );
        assert_eq!(Approach::Offload.thread_level(true), ThreadLevel::Funneled);
        assert_eq!(
            Approach::Baseline.thread_level(false),
            ThreadLevel::Funneled
        );
        assert_eq!(Approach::Baseline.thread_level(true), ThreadLevel::Multiple);
    }

    #[test]
    fn dedicated_core_accounting() {
        assert_eq!(Approach::Baseline.dedicated_cores(), 0);
        assert_eq!(Approach::Iprobe.dedicated_cores(), 0);
        assert_eq!(Approach::CommSelf.dedicated_cores(), 1);
        assert_eq!(Approach::CoreSpec.dedicated_cores(), 1);
        assert_eq!(Approach::Offload.dedicated_cores(), 1);
    }

    /// The headline behaviour: for a large (rendezvous) message overlapped
    /// with compute, the wait time under offload/comm-self/core-spec is far
    /// below baseline's.
    #[test]
    fn async_progress_approaches_overlap_rendezvous() {
        let n = 1 << 20;
        let compute: Nanos = 10_000_000;
        let wait_time = |approach: Approach| {
            let (outs, _) = run_approach(
                2,
                MachineProfile::xeon(),
                approach,
                false,
                move |comm: Comm| async move {
                    let env = comm.env().clone();
                    let peer = 1 - comm.rank();
                    let rx = comm.irecv(Some(peer), Some(1)).await;
                    let tx = comm.isend(peer, 1, Bytes::synthetic(n)).await;
                    env.advance(compute).await;
                    let t = env.now();
                    comm.waitall(&[rx, tx]).await;
                    env.now() - t
                },
            );
            outs[0].max(outs[1])
        };
        let base = wait_time(Approach::Baseline);
        let offl = wait_time(Approach::Offload);
        let cself = wait_time(Approach::CommSelf);
        let cspec = wait_time(Approach::CoreSpec);
        assert!(
            offl * 5 < base,
            "offload wait {offl}ns must be far below baseline {base}ns"
        );
        assert!(cself * 2 < base, "comm-self wait {cself}ns vs {base}ns");
        assert!(cspec * 2 < base, "core-spec wait {cspec}ns vs {base}ns");
    }

    /// The wildcard regression of `live`'s tests, on the DES clock: an
    /// `ANY_SOURCE`/`ANY_TAG` receive posted before a barrier and an
    /// allreduce takes neither's rounds, under every approach at 2–4
    /// ranks, and completes with the application message sent after them.
    #[test]
    fn wildcard_recv_survives_collectives_under_every_approach() {
        for approach in Approach::ALL {
            for p in 2..=4 {
                let (outs, _) = run_approach(
                    p,
                    MachineProfile::xeon(),
                    approach,
                    false,
                    move |comm: Comm| async move {
                        let r = comm.rank();
                        let rx = comm.irecv(None, None).await;
                        comm.barrier().await;
                        let mine = Bytes::real(f64s_to_bytes(&[r as f64]));
                        let sum = comm.allreduce(mine, Dtype::F64, ReduceOp::Sum).await;
                        comm.send((r + 1) % p, 42, Bytes::real(vec![r as u8])).await;
                        let st = comm.wait(&rx).await.expect("receive status");
                        let data = rx.take_data().expect("receive data").to_vec();
                        (bytes_to_f64s(&sum.to_vec())[0], st.source, st.tag, data)
                    },
                );
                for (r, out) in outs.into_iter().enumerate() {
                    let left = (r + p - 1) % p;
                    let want = ((p * (p - 1) / 2) as f64, left, 42, vec![left as u8]);
                    assert_eq!(out, want, "{} p={p} rank {r}", approach.name());
                }
            }
        }
    }

    /// Posting cost ordering (Fig 4): offload posts are cheapest; comm-self
    /// pays the THREAD_MULTIPLE penalty over baseline.
    #[test]
    fn posting_cost_ordering_matches_fig4() {
        let post_time = |approach: Approach| {
            let (outs, _) = run_approach(
                2,
                MachineProfile::xeon(),
                approach,
                false,
                move |comm: Comm| async move {
                    let env = comm.env().clone();
                    if comm.rank() == 0 {
                        let t0 = env.now();
                        let tx = comm.isend(1, 1, Bytes::synthetic(64 * 1024)).await;
                        let dt = env.now() - t0;
                        comm.wait(&tx).await;
                        dt
                    } else {
                        let (_, _) = comm.recv(Some(0), Some(1)).await;
                        0
                    }
                },
            );
            outs[0]
        };
        let base = post_time(Approach::Baseline);
        let cself = post_time(Approach::CommSelf);
        let offl = post_time(Approach::Offload);
        assert!(offl < 300, "offload posting must be ~140ns, got {offl}ns");
        assert!(base > offl * 10, "baseline {base}ns ≫ offload {offl}ns");
        assert!(cself > base, "comm-self {cself}ns > baseline {base}ns");
    }

    /// The pool's generation check must fire through `Comm`, not just at
    /// the `SimOffload` layer: waiting twice on the
    /// same request is a stale-handle bug and must panic loudly rather than
    /// corrupt a recycled slot.
    #[test]
    #[should_panic(expected = "stale request handle")]
    fn double_wait_through_comm_panics() {
        let _ = run_approach(
            2,
            MachineProfile::xeon(),
            Approach::Offload,
            false,
            move |comm: Comm| async move {
                if comm.rank() == 0 {
                    let tx = comm.isend(1, 1, Bytes::synthetic(64)).await;
                    comm.wait(&tx).await;
                    comm.wait(&tx).await; // stale: the slot was freed above
                } else {
                    let (_, _) = comm.recv(Some(0), Some(1)).await;
                }
                0u32
            },
        );
    }

    /// Nonblocking collectives overlap under offload but not baseline
    /// (Fig 3).
    #[test]
    fn nbc_overlap_favours_offload() {
        let wait_time = |approach: Approach| {
            let (outs, _) = run_approach(
                8,
                MachineProfile::xeon(),
                approach,
                false,
                move |comm: Comm| async move {
                    let env = comm.env().clone();
                    let r = comm
                        .icollective(SimColl::Allreduce {
                            data: Bytes::synthetic(16 * 1024),
                            dtype: Dtype::F64,
                            op: ReduceOp::Sum,
                        })
                        .await;
                    env.advance(3_000_000).await;
                    let t = env.now();
                    comm.wait(&r).await;
                    env.now() - t
                },
            );
            *outs.iter().max().expect("ranks")
        };
        let base = wait_time(Approach::Baseline);
        let offl = wait_time(Approach::Offload);
        assert!(
            offl * 3 < base,
            "offload NBC wait {offl}ns must be well below baseline {base}ns"
        );
    }
}
