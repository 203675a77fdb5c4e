//! The six workloads: what world each one builds, which round shape it
//! runs, and why it exists. Names and sizes are fixed — changing either
//! makes every earlier measurement incomparable.

use std::time::{Duration, Instant};

use offload::{offload_rank, OffloadHandle, OffloadRank};
use rtmpi::{RtMpi, Transport};
use wire::{loopback_configured, WireComm, WireConfig};

use crate::endpoint::{Direct, Offloaded};
use crate::procfs;
use crate::shapes::{CollMix, Exchange, IssueWindow, Shape};

/// Which world a workload builds and which shape it runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A `ranks`-rank wire world; rank 0 trades `len` bytes each way with
    /// the first `active` peers.
    Exchange {
        ranks: usize,
        active: usize,
        len: usize,
        echo: bool,
        slices: usize,
        shm: bool,
    },
    /// `rtmpi::world(2)`, a 64-deep window of 8-byte messages each way.
    IssueWindow,
    /// A 4-rank UDS world running allreduce then all-to-all.
    CollMix,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// One line for `BENCHMARK.json`; the README has the paragraph.
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "eager_pingpong_uds",
        kind: Kind::Exchange {
            ranks: 4,
            active: 1,
            len: 1024,
            echo: true,
            slices: 0,
            shm: false,
        },
        why: "1 KiB echo in a 4-rank UDS world: per-op fixed cost (lane hand-off, service pass, syscalls, idle-peer reads)",
    },
    Spec {
        name: "bulk_rndv_uds",
        kind: Kind::Exchange {
            ranks: 2,
            active: 1,
            len: 256 * 1024,
            echo: false,
            slices: 0,
            shm: false,
        },
        why: "256 KiB rendezvous each way over UDS: the copy-dominated socket path; per-op fixed costs are noise here",
    },
    Spec {
        name: "bulk_rndv_shm",
        kind: Kind::Exchange {
            ranks: 2,
            active: 1,
            len: 256 * 1024,
            echo: false,
            slices: 0,
            shm: true,
        },
        why: "the same round through the shm ring (256 KiB through 16 KiB slots): same protocol, other fabric",
    },
    Spec {
        name: "issue_window_inproc",
        kind: Kind::IssueWindow,
        why: "64 irecv + 64 isend of 8 B over rtmpi: pool, lanes and a 64-deep sweep with no wire code at all",
    },
    Spec {
        name: "overlap_halo_uds",
        kind: Kind::Exchange {
            ranks: 3,
            active: 2,
            len: 64 * 1024,
            echo: false,
            slices: 32,
            shm: false,
        },
        why: "64 KiB halo with two peers under fixed compute: asynchrony and the park/wake path; the guard workload",
    },
    Spec {
        name: "coll_mix4_uds",
        kind: Kind::CollMix,
        why: "2 KiB allreduce then 16 KiB-block all-to-all on 4 ranks: the NBC executor, reserved tags, round copies",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Every knob the engine has, spelled out: nothing comes from the
/// environment (`loopback()`/`from_env()` are never called). The timeout
/// is short so a hang is a counted failure, not a stuck run.
pub fn wire_config(shm: bool) -> WireConfig {
    WireConfig {
        eager_max: 4096,
        timeout: Duration::from_secs(5),
        tcp: false,
        shm,
        shm_slots: 128,
        shm_slot_bytes: 16 * 1024,
        // The forced-fallback test hook stays off, and fields a later
        // change adds keep their defaults rather than break this build.
        ..WireConfig::default()
    }
}

/// The two CPUs of a run: the generator's and the offload thread's.
#[derive(Clone, Copy, Debug)]
pub struct Cpus {
    pub generator: usize,
    pub offload: usize,
}

impl Cpus {
    pub fn pin_generator(&self) -> bool {
        procfs::set_affinity(0, &[self.generator])
    }
}

/// Rank 0 behind its offload thread, plus the shape that drives it.
/// Field order is teardown order: the offload thread is shut down and
/// joined (returning and closing rank 0's transport) before the peers'
/// ends go away.
pub struct Rig<S, T: Transport> {
    rank: OffloadRank<T>,
    pub shape: S,
    pub handle: OffloadHandle,
    /// Kernel thread id of `offload-0` (0 if it could not be found).
    pub offload_tid: u32,
    pub pinned: bool,
}

impl<S, T: Transport> Rig<S, T> {
    /// `MPI_Finalize`: shut the offload thread down, join it, close every
    /// transport.
    pub fn teardown(self) {
        let Rig { rank, shape, .. } = self;
        rank.finalize();
        drop(shape);
    }
}

/// How long the parts of one cold set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    pub world_s: f64,
    pub payload_s: f64,
}

/// Spawn the offload thread in front of `t0`, on its own CPU. The thread
/// is found by name in `/proc/self/task/*/comm`, as any outside observer
/// would find it.
fn offloaded<T: Transport>(t0: T, cpus: Cpus) -> (OffloadRank<T>, OffloadHandle, u32, bool) {
    // A new thread inherits its creator's affinity, and the kernel puts it
    // on a run queue of its own choosing within that. Spawned from a
    // generator that may use both CPUs it lands, for minutes at a time, on
    // the generator's — and waits there for the spinning generator's time
    // slice to run out, 2.4 ms that were most of a set-up. So the
    // generator moves to the offload thread's CPU for the spawn: the
    // thread is born there, allowed nowhere else, and runs as soon as the
    // generator has gone home.
    let mut pinned = procfs::set_affinity(0, &[cpus.offload]);
    let rank = offload_rank(t0);
    let handle = rank.handle();
    pinned &= cpus.pin_generator();
    // The thread names itself as it starts; look until it has. Pinning it
    // by its id as well costs nothing and shows in `bench.pinned`.
    let t = Instant::now();
    let mut tid = 0;
    while tid == 0 && t.elapsed() < Duration::from_millis(100) {
        for (t, comm) in procfs::threads() {
            if comm.starts_with("offload-") {
                tid = t;
                pinned &= procfs::set_affinity(t, &[cpus.offload]);
            }
        }
    }
    (rank, handle, tid, pinned && tid != 0)
}

fn rig<S, T: Transport>(
    world: Vec<T>,
    cpus: Cpus,
    t_start: Instant,
    make: impl FnOnce(Offloaded, Vec<T>) -> S,
) -> (Rig<S, T>, BuildTimes) {
    let mut world = world.into_iter();
    let t0 = world.next().expect("rank 0");
    let (rank, handle, offload_tid, pinned) = offloaded(t0, cpus);
    let t_world = Instant::now();
    let shape = make(Offloaded(handle.clone()), world.collect());
    let t_payload = Instant::now();
    (
        Rig {
            rank,
            shape,
            handle,
            offload_tid,
            pinned,
        },
        BuildTimes {
            world_s: (t_world - t_start).as_secs_f64(),
            payload_s: (t_payload - t_world).as_secs_f64(),
        },
    )
}

type ExchangeRig = Rig<Exchange<Offloaded, WireComm>, WireComm>;

pub fn exchange_rig(kind: Kind, seed: u64, cpus: Cpus) -> (ExchangeRig, BuildTimes) {
    let Kind::Exchange {
        ranks,
        active,
        len,
        echo,
        slices,
        shm,
    } = kind
    else {
        unreachable!("exchange_rig called for {kind:?}");
    };
    let t = Instant::now();
    let world = loopback_configured(ranks, wire_config(shm));
    rig(world, cpus, t, |r0, peers| {
        Exchange::new(r0, peers, active, len, echo, slices, seed)
    })
}

pub fn issue_rig(seed: u64, cpus: Cpus) -> (Rig<IssueWindow<Offloaded, RtMpi>, RtMpi>, BuildTimes) {
    let t = Instant::now();
    rig(rtmpi::world(2), cpus, t, |r0, mut peers| {
        IssueWindow::new(r0, peers.pop().expect("rank 1"), seed)
    })
}

pub fn coll_rig(
    seed: u64,
    cpus: Cpus,
) -> (Rig<CollMix<Offloaded, WireComm>, WireComm>, BuildTimes) {
    let t = Instant::now();
    let world = loopback_configured(4, wire_config(false));
    rig(world, cpus, t, |r0, peers| CollMix::new(r0, peers, seed))
}

/// The same round with rank 0 as a bare transport the generator polls —
/// no offload thread anywhere. `quiet_compute` withholds rank 0's polls
/// during the compute phase (the paper's baseline).
pub fn direct_shape(kind: Kind, seed: u64, quiet_compute: bool) -> Box<dyn Shape> {
    fn split<T: Transport>(world: Vec<T>, quiet: bool) -> (Direct<T>, Vec<T>) {
        let mut world = world.into_iter();
        let mut r0 = Direct::new(world.next().expect("rank 0"));
        r0.quiet_compute = quiet;
        (r0, world.collect())
    }
    match kind {
        Kind::Exchange {
            ranks,
            active,
            len,
            echo,
            slices,
            shm,
        } => {
            let (r0, peers) = split(loopback_configured(ranks, wire_config(shm)), quiet_compute);
            Box::new(Exchange::new(r0, peers, active, len, echo, slices, seed))
        }
        Kind::IssueWindow => {
            let (r0, mut peers) = split(rtmpi::world(2), quiet_compute);
            Box::new(IssueWindow::new(r0, peers.pop().expect("rank 1"), seed))
        }
        Kind::CollMix => {
            let (r0, peers) = split(loopback_configured(4, wire_config(false)), quiet_compute);
            Box::new(CollMix::new(r0, peers, seed))
        }
    }
}
