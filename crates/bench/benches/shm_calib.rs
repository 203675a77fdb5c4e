//! Shared-memory transport calibration: the zero-copy ring against the
//! socket transports it sits beside (§ DESIGN.md 16).
//!
//! Both ranks of a loopback pair are pumped from ONE thread, so a round
//! trip costs exactly the data-path work — no cross-thread wakeup, no
//! scheduler in the numbers (CI runs on a single core, where a spinning
//! two-thread ping-pong measures timeslices, not transports). Three 1 KiB
//! eager ping-pongs isolate the fabric under an identical protocol:
//!
//! * `WIRE_SHM=1` — frames copied straight into ring slots, no socket
//!   syscall carries payload;
//! * UDS — the default `socketpair` mesh, one `write_vectored` per batch;
//! * TCP — the same mesh over 127.0.0.1, the remote-node stand-in.
//!
//! A 256 KiB rendezvous ping-pong then measures bulk bandwidth on the shm
//! and UDS paths. Every wall-clock series is `info`: this box decides how
//! fast a memcpy is, the quick shape's few hundred round trips include
//! the first touch of every ring slot, and from ONE pumping thread the
//! ring and the socket are too close at 1 KiB for a clock to referee (the
//! ring's advantage is that the sender's core never enters the kernel and
//! the two copies overlap — which needs the receiver on another core to
//! show; `opbench`'s `bulk_rndv_shm` vs `bulk_rndv_uds` is that
//! measurement, EXPERIMENTS.md "PR 16").
//!
//! What gates, and hard-fails the run, is what the ring guarantees and a
//! clock cannot blur — counted on rank 0 over the shm eager loop:
//! **no syscall carries payload** (`wire.sys.write − wire.shm_doorbell ==
//! 0`: every socket write on an shm link is a doorbell),
//! `wire.shm_frames > 0` (the frames took the ring), `wire.shm_fallback
//! == 0` (the segment actually mapped) and `wire.eager_alloc == 0`
//! (bodies ride `Arc` clones into the ring, never a staging copy) — and,
//! over the shm bulk loop, `rx_writes_per_byte.256KB ≤ 1.1`
//! (`wire.rx_copy_bytes` per body byte received: a ring pop copies a slot
//! straight into the body, which was never zero-filled; only a body's
//! first slot is staged while its header is parsed) and
//! `ring_slots_touched.256KB ≤ 20` (`wire.shm_ring_hwm`: the ring slots
//! rank 0's producer has written. The ring rewinds to its first slot when
//! it drains, so a 256 KiB rendezvous round — RTS, CTS and 17 DATA slots
//! — keeps about 19 of the 128 resident, not all of them).
//!
//! Two more `info` series are floors for `opbench`'s bulk workloads: a
//! bidirectional 256 KiB exchange between two threads pinned to two
//! CPUs, in a tight loop with no engine — once through a pair of
//! `shmring` rings of the default geometry
//! (`ring_exchange_floor_us.256KB`), once through a nonblocking UDS
//! socketpair as the mesh builds it (`uds_exchange_floor_us.256KB`).
//! What `bulk_rndv_shm` and `bulk_rndv_uds` spend above these is the
//! engine and the protocol, not the copies.

use bench::{benchjson, emit, us, Direction, PanelSnapshot};
use harness::Table;
use rtmpi::Transport;
use shmring::{heap_ring, Pop};
use std::io::{Read, Write};
use std::mem::MaybeUninit;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use wire::{loopback_configured, WireComm, WireConfig};

const TAG: u32 = 11;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The first two CPUs this process may run on, when it may run on two.
fn two_cpus() -> Option<[usize; 2]> {
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // the live, exclusively borrowed array.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return None;
    }
    let mut cpus = (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
    Some([cpus.next()?, cpus.next()?])
}

/// Pin the calling thread to `cpu`, best effort: should the kernel
/// refuse, the floor is read unpinned, only noisier.
fn pin(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes of the live
    // array; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Mean µs of one bidirectional exchange over `rounds` (after a warm-up
/// tenth): two threads, pinned to two CPUs when the process has them,
/// each running `side(me, rounds)` on its own end.
fn exchange_floor<E: Send + 'static>(ends: [E; 2], rounds: usize, side: fn(&mut E, usize)) -> f64 {
    let cpus = two_cpus();
    let start = Arc::new(Barrier::new(2));
    let [a, b] = ends;
    let spawn = |mut end: E, who: usize| {
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            if let Some(cpus) = cpus {
                pin(cpus[who]);
            }
            side(&mut end, rounds / 10);
            start.wait();
            let t0 = Instant::now();
            side(&mut end, rounds);
            t0.elapsed().as_secs_f64() * 1e6 / rounds as f64
        })
    };
    let (ta, tb) = (spawn(a, 0), spawn(b, 1));
    let (ua, ub) = (ta.join().expect("side a"), tb.join().expect("side b"));
    ua.max(ub)
}

/// One end of a ring pair: its outbound producer, its inbound consumer.
type RingEnd = (
    shmring::Producer<Arc<shmring::HeapMem>>,
    shmring::Consumer<Arc<shmring::HeapMem>>,
);

/// One side of the ring floor: per round, its 256 KiB out in 16 KiB
/// slots while the peer's 256 KiB comes in, each slot copied straight
/// into the receive buffer as the fabric's pop does.
fn ring_side((tx, rx): &mut RingEnd, rounds: usize) {
    const BULK: usize = 256 * 1024;
    let slot = tx.slot_size() as usize;
    let src = vec![0x3cu8; BULK];
    let mut dst: Vec<MaybeUninit<u8>> = vec![MaybeUninit::uninit(); BULK];
    let mut spill = Vec::new();
    for _ in 0..rounds {
        let (mut sent, mut got) = (0, 0);
        while sent < BULK || got < BULK {
            if sent < BULK && tx.try_push(&src[sent..(sent + slot).min(BULK)]) {
                sent = (sent + slot).min(BULK);
            }
            if got < BULK {
                if let Pop::Got(n) = rx.try_pop_into(&mut dst[got..], &mut spill) {
                    got += n;
                }
            }
        }
    }
    std::hint::black_box(&dst);
}

/// One side of the UDS floor: per round, 256 KiB written and 256 KiB
/// read on one nonblocking end, interleaved so neither side blocks the
/// other.
fn uds_side(sock: &mut UnixStream, rounds: usize) {
    const BULK: usize = 256 * 1024;
    let src = vec![0x3cu8; BULK];
    let mut dst = vec![0u8; BULK];
    for _ in 0..rounds {
        let (mut sent, mut got) = (0, 0);
        while sent < BULK || got < BULK {
            if sent < BULK {
                if let Ok(n) = sock.write(&src[sent..]) {
                    sent += n;
                }
            }
            if got < BULK {
                if let Ok(n) = sock.read(&mut dst[got..]) {
                    got += n;
                }
            }
        }
    }
    std::hint::black_box(&dst);
}

/// A nonblocking socketpair, as the mesh's links are.
fn uds_pair() -> [UnixStream; 2] {
    let (a, b) = UnixStream::pair().expect("socketpair");
    for s in [&a, &b] {
        s.set_nonblocking(true).expect("nonblocking");
    }
    [a, b]
}

fn ring_ends() -> [RingEnd; 2] {
    let (slots, slot) = (wire::shm::DEFAULT_SLOTS, wire::shm::DEFAULT_SLOT_BYTES);
    let (ab_tx, ab_rx, _) = heap_ring(slots, slot);
    let (ba_tx, ba_rx, _) = heap_ring(slots, slot);
    [(ab_tx, ba_rx), (ba_tx, ab_rx)]
}

/// Pump both ranks until `req` completes on `who`.
fn pump(world: &mut [WireComm], who: usize, req: &<WireComm as Transport>::Req) {
    loop {
        if let Some(r) = world[who].try_take(req) {
            r.expect("wire op failed");
            return;
        }
        for w in world.iter_mut() {
            w.progress();
        }
    }
}

/// Mean round-trip of `iters` single-thread-pumped ping-pongs over a
/// fresh 2-rank loopback world, plus rank 0's counter delta for the
/// timed loop.
fn ping_pong(cfg: WireConfig, size: usize, iters: usize) -> (f64, obs::Snapshot) {
    let mut world = loopback_configured(2, cfg);
    let ping: Arc<[u8]> = Arc::from(vec![0xa0u8; size]);
    let pong: Arc<[u8]> = Arc::from(vec![0xb1u8; size]);
    let round = |world: &mut [WireComm]| {
        let tx = world[0].isend(1, TAG, ping.clone());
        let rx = world[1].irecv(Some(0), Some(TAG));
        pump(world, 1, &rx);
        pump(world, 0, &tx);
        let tx = world[1].isend(0, TAG, pong.clone());
        let rx = world[0].irecv(Some(1), Some(TAG));
        pump(world, 0, &rx);
        pump(world, 1, &tx);
    };
    round(&mut world); // warmup: segment pages, pool priming
    let before = world[0].obs().snapshot();
    let t0 = Instant::now();
    for _ in 0..iters {
        round(&mut world);
    }
    let rtt_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let counters = world[0].obs().snapshot().diff(&before);
    (rtt_ns, counters)
}

fn main() {
    let iters = if bench::quick_mode() { 200 } else { 2000 };
    let repeats = bench::bench_repeats();
    let small = 1024usize;
    let bulk = 256 * 1024usize;
    let uds_cfg = WireConfig::default();
    let tcp_cfg = WireConfig {
        tcp: true,
        ..WireConfig::default()
    };
    let shm_cfg = WireConfig {
        shm: true,
        ..WireConfig::default()
    };

    let mut shm_rtt = Vec::new();
    let mut uds_rtt = Vec::new();
    let mut tcp_rtt = Vec::new();
    let mut shm_bw = Vec::new();
    let mut uds_bw = Vec::new();
    // Deterministic under the protocol, so the last repeat's counters
    // stand for all of them — exactly what the gated series verify.
    let mut shm_counters = obs::Snapshot::default();
    let mut shm_rx_writes = Vec::new();
    let mut uds_rx_writes = Vec::new();
    let mut slots_touched = Vec::new();
    let mut ring_floor = Vec::new();
    let mut uds_floor = Vec::new();
    let floor_rounds = if bench::quick_mode() { 500 } else { 5000 };
    // Rank 0 receives one bulk body per round trip.
    let bulk_iters = iters / 8;
    let writes_per_byte =
        |c: &obs::Snapshot| c.counter("wire.rx_copy_bytes") as f64 / (bulk_iters * bulk) as f64;
    for _ in 0..repeats {
        let (s, sc) = ping_pong(shm_cfg.clone(), small, iters);
        let (u, _) = ping_pong(uds_cfg.clone(), small, iters);
        let (t, _) = ping_pong(tcp_cfg.clone(), small, iters);
        let (sb, sbc) = ping_pong(shm_cfg.clone(), bulk, bulk_iters);
        let (ub, ubc) = ping_pong(uds_cfg.clone(), bulk, bulk_iters);
        shm_rtt.push(s / 1e3);
        uds_rtt.push(u / 1e3);
        tcp_rtt.push(t / 1e3);
        // Ping-pong moves the payload both ways per round trip.
        shm_bw.push(2.0 * bulk as f64 / sb * 1e3); // MB/s
        uds_bw.push(2.0 * bulk as f64 / ub * 1e3);
        shm_rx_writes.push(writes_per_byte(&sbc));
        uds_rx_writes.push(writes_per_byte(&ubc));
        slots_touched.push(sbc.gauge("wire.shm_ring_hwm").high_water as f64);
        ring_floor.push(exchange_floor(ring_ends(), floor_rounds, ring_side));
        uds_floor.push(exchange_floor(uds_pair(), floor_rounds, uds_side));
        shm_counters = sc;
    }
    let shm_rx_writes_max = shm_rx_writes.iter().copied().fold(0.0, f64::max);
    let slots_touched_max = slots_touched.iter().copied().fold(0.0, f64::max);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    let mut t = Table::new(vec!["transport", "eager rtt us (1KB)", "rndv MB/s (256KB)"]);
    t.row(vec![
        "shm ring".into(),
        us((mean(&shm_rtt) * 1e3) as u64),
        format!("{:.0}", mean(&shm_bw)),
    ]);
    t.row(vec![
        "uds".into(),
        us((mean(&uds_rtt) * 1e3) as u64),
        format!("{:.0}", mean(&uds_bw)),
    ]);
    t.row(vec![
        "tcp".into(),
        us((mean(&tcp_rtt) * 1e3) as u64),
        "-".into(),
    ]);
    emit(
        "shm_calib",
        "Shared-memory calibration — ring vs socket transports (loopback pair)",
        &t,
    );

    let mut snap = PanelSnapshot::new(
        "shm_calib",
        "shm ring vs UDS vs TCP: eager RTT, bulk bandwidth, allocation counters",
    );
    snap.push_series(
        "shm_eager_rtt_us.1KB",
        "us",
        Direction::Info,
        shm_rtt.clone(),
    );
    snap.push_series(
        "uds_eager_rtt_us.1KB",
        "us",
        Direction::Info,
        uds_rtt.clone(),
    );
    snap.push_series("tcp_eager_rtt_us.1KB", "us", Direction::Info, tcp_rtt);
    snap.push_series("shm_rndv_mbps.256KB", "MB/s", Direction::Info, shm_bw);
    snap.push_series("uds_rndv_mbps.256KB", "MB/s", Direction::Info, uds_bw);
    // Allocation/data-path counters: deterministic, so they gate hard.
    snap.push_series(
        "shm_frames_per_run.1KB",
        "count",
        Direction::Higher,
        vec![shm_counters.counter("wire.shm_frames") as f64; repeats],
    );
    snap.push_series(
        "eager_alloc_under_shm.1KB",
        "count",
        Direction::Lower,
        vec![shm_counters.counter("wire.eager_alloc") as f64; repeats],
    );
    snap.push_series(
        "shm_fallbacks.1KB",
        "count",
        Direction::Lower,
        vec![shm_counters.counter("wire.shm_fallback") as f64; repeats],
    );
    let payload_writes = shm_counters
        .counter("wire.sys.write")
        .saturating_sub(shm_counters.counter("wire.shm_doorbell"));
    snap.push_series(
        "payload_syscalls_under_shm.1KB",
        "count",
        Direction::Lower,
        vec![payload_writes as f64; repeats],
    );
    // Bytes user code writes on the receive path per body byte delivered:
    // 1 is a write-once body; only the first slot of a body (staged so its
    // header can be parsed) is written twice. Over UDS the kernel decides
    // how reads split, so that figure is for reading only.
    snap.push_series(
        "rx_writes_per_byte.256KB",
        "ratio",
        Direction::Lower,
        shm_rx_writes,
    );
    snap.push_series(
        "uds_rx_writes_per_byte.256KB",
        "ratio",
        Direction::Info,
        uds_rx_writes,
    );
    // Ring slots the bulk loop's producer has written: rewinds keep it
    // at what one round has in flight, not the ring's 128.
    #[cfg(feature = "obs-enabled")]
    snap.push_series(
        "ring_slots_touched.256KB",
        "count",
        Direction::Lower,
        slots_touched,
    );
    snap.push_series(
        "ring_exchange_floor_us.256KB",
        "us",
        Direction::Info,
        ring_floor,
    );
    snap.push_series(
        "uds_exchange_floor_us.256KB",
        "us",
        Direction::Info,
        uds_floor,
    );
    benchjson::emit_snapshot(&snap);

    // The acceptance bar: what the ring guarantees, counted. A clock
    // cannot blur these and no noise band may absorb losing one.
    assert_eq!(
        payload_writes, 0,
        "a socket write on an shm link carried something other than a doorbell"
    );
    assert!(
        shm_counters.counter("wire.shm_frames") > 0,
        "no frame took the ring"
    );
    assert_eq!(shm_counters.counter("wire.shm_fallback"), 0);
    assert_eq!(shm_counters.counter("wire.eager_alloc"), 0);
    assert!(
        shm_rx_writes_max <= 1.1,
        "a received ring byte was written {shm_rx_writes_max:.2} times, not once"
    );
    #[cfg(feature = "obs-enabled")]
    assert!(
        slots_touched_max <= 20.0,
        "a 256 KiB exchange kept {slots_touched_max} ring slots resident"
    );
}
