//! Wire-transport calibration panel: eager latency and the rendezvous
//! handshake premium, measured over a real in-process socket pair.
//!
//! Three ping-pong configurations isolate the protocol split:
//!
//! * a 1 KiB payload under the default crossover — the pure eager RTT;
//! * a 32 KiB payload with the crossover raised to 64 KiB — the same
//!   bytes still on the eager path;
//! * the same 32 KiB payload under the default 4 KiB crossover — now a
//!   full RTS→CTS→DATA rendezvous per message.
//!
//! The rendezvous premium is the RTT difference between the last two at
//! identical payload size. Wall-clock numbers are recorded as `info`
//! series (this box decides how fast a socket is, not the code); the
//! protocol *counters* are deterministic and gate: 32 KiB under the
//! default crossover must take the rendezvous path every time, and must
//! never leak onto it when the crossover is raised.
//!
//! So do the **syscall counts** at the `FrameFabric` seam (the sum of
//! `wire.sys.poll`, `.read` and `.write`), taken on worlds pumped from ONE
//! thread so that they repeat exactly: an idle `progress()` is one `poll(2)` whatever the
//! peer count (`syscalls_per_idle_progress.n2` = `.n4` = 1), and a 1 KiB
//! eager echo costs a fixed number of them on both ranks together
//! (`syscalls_per_eager_echo.1KB`). A per-link syscall creeping back into
//! the pass moves these, and they gate `lower`. So does
//! `rndv_data_writes.256KB`: the sender's socket writes per 256 KiB
//! rendezvous DATA frame on the same one-thread world. It reads 4.81
//! with the kernel's default UDS send buffer (≈ 208 KiB: a partial write,
//! an `EAGAIN`, the rest on later passes) and would read 1 with a buffer
//! that takes the whole frame; a 512 KiB `SO_SNDBUF` on every UDS link
//! did that, but moved `opbench`'s `bulk_rndv_uds` `post_ns.p50` up
//! 20–30 %, so the mesh keeps the default (EXPERIMENTS.md).

use bench::{benchjson, emit, us, Direction, PanelSnapshot};
use harness::Table;
use rtmpi::Transport;
use std::sync::Arc;
use std::time::Instant;
use wire::{loopback_configured, WireConfig};

const TAG: u32 = 7;

fn wait<T: Transport>(t: &mut T, req: &T::Req) {
    loop {
        if let Some(r) = t.try_take(req) {
            r.expect("wire op failed");
            return;
        }
        t.progress();
        std::thread::yield_now();
    }
}

/// One ping-pong run over a fresh loopback pair: rank 0 measures the mean
/// round-trip and returns its protocol-counter delta for the timed loop.
fn ping_pong(cfg: WireConfig, size: usize, iters: usize) -> (f64, obs::Snapshot) {
    let mut world = loopback_configured(2, cfg);
    let mut r1 = world.pop().expect("rank 1");
    let mut r0 = world.pop().expect("rank 0");

    let echo = std::thread::spawn(move || {
        let payload: Arc<[u8]> = Arc::from(vec![0xb1u8; size]);
        for _ in 0..iters + 1 {
            let rx = r1.irecv(Some(0), Some(TAG));
            wait(&mut r1, &rx);
            let tx = r1.isend(0, TAG, payload.clone());
            wait(&mut r1, &tx);
        }
    });

    let payload: Arc<[u8]> = Arc::from(vec![0xa0u8; size]);
    let round = |r0: &mut wire::WireComm| {
        let tx = r0.isend(1, TAG, payload.clone());
        wait(r0, &tx);
        let rx = r0.irecv(Some(1), Some(TAG));
        wait(r0, &rx);
    };
    round(&mut r0); // warmup: protocol caches, thread spin-up
    let before = r0.obs().snapshot();
    let t0 = Instant::now();
    for _ in 0..iters {
        round(&mut r0);
    }
    let rtt_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let counters = r0.obs().snapshot().diff(&before);
    echo.join().expect("echo rank");
    (rtt_ns, counters)
}

/// Syscalls the fabric made over `snap`'s interval.
fn syscalls(snap: &obs::Snapshot) -> u64 {
    ["wire.sys.poll", "wire.sys.read", "wire.sys.write"]
        .iter()
        .map(|name| snap.counter(name))
        .sum()
}

/// Syscalls per `progress()` of rank 0 in an idle `n`-rank world.
fn idle_progress_syscalls(n: usize) -> f64 {
    const PASSES: u64 = 100;
    let mut world = loopback_configured(n, WireConfig::default());
    let before = world[0].obs().snapshot();
    for _ in 0..PASSES {
        world[0].progress();
    }
    syscalls(&world[0].obs().snapshot().diff(&before)) as f64 / PASSES as f64
}

/// One eager message `from` → `to`, both ranks pumped from this thread.
fn leg(world: &mut [wire::WireComm], payload: &Arc<[u8]>, from: usize, to: usize) {
    let tx = world[from].isend(to, TAG, payload.clone());
    let rx = world[to].irecv(Some(from), Some(TAG));
    let (mut sent, mut got) = (false, false);
    while !(sent && got) {
        for w in world.iter_mut() {
            w.progress();
        }
        sent |= world[from].try_take(&tx).is_some();
        got |= world[to].try_take(&rx).is_some();
    }
}

/// Syscalls per eager echo (there and back), both ranks together, on a
/// 2-rank world pumped from one thread.
fn eager_echo_syscalls(size: usize, echoes: u64) -> f64 {
    let mut world = loopback_configured(2, WireConfig::default());
    let payload: Arc<[u8]> = Arc::from(vec![0xc2u8; size]);
    leg(&mut world, &payload, 0, 1); // warmup
    leg(&mut world, &payload, 1, 0);
    let before: Vec<_> = world.iter().map(|w| w.obs().snapshot()).collect();
    for _ in 0..echoes {
        leg(&mut world, &payload, 0, 1);
        leg(&mut world, &payload, 1, 0);
    }
    let total: u64 = world
        .iter()
        .zip(&before)
        .map(|(w, b)| syscalls(&w.obs().snapshot().diff(b)))
        .sum();
    total as f64 / echoes as f64
}

/// Socket writes rank 0 makes per `size`-byte rendezvous DATA frame it
/// sends, on a 2-rank world pumped from one thread: every
/// `wire.sys.write` but its RTS (one per message; nothing else rides
/// that write, as the CTS has not arrived yet).
fn rndv_data_writes(size: usize, sends: u64) -> f64 {
    let mut world = loopback_configured(2, WireConfig::default());
    let payload: Arc<[u8]> = Arc::from(vec![0xd3u8; size]);
    leg(&mut world, &payload, 0, 1); // warmup
    let before = world[0].obs().snapshot();
    for _ in 0..sends {
        leg(&mut world, &payload, 0, 1);
    }
    let d = world[0].obs().snapshot().diff(&before);
    assert_eq!(
        d.counter("wire.rndv_tx"),
        sends,
        "every send took the rendezvous path"
    );
    (d.counter("wire.sys.write") - d.counter("wire.rndv_tx")) as f64 / sends as f64
}

fn main() {
    let iters = if bench::quick_mode() { 16 } else { 64 };
    let repeats = bench::bench_repeats();
    let small = 1024usize;
    let split = 32 * 1024usize;
    let eager_cfg = WireConfig::default(); // crossover 4096
    let raised_cfg = WireConfig {
        eager_max: 64 * 1024,
        ..WireConfig::default()
    };

    let mut small_rtt = Vec::new();
    let mut eager_rtt = Vec::new();
    let mut rndv_rtt = Vec::new();
    let mut premium = Vec::new();
    // Counters from the last repeat (identical every repeat by protocol
    // determinism — exactly what the gated series verify).
    let mut eager_counters = obs::Snapshot::default();
    let mut rndv_counters = obs::Snapshot::default();
    for _ in 0..repeats {
        let (s, _) = ping_pong(eager_cfg.clone(), small, iters);
        let (e, ec) = ping_pong(raised_cfg.clone(), split, iters);
        let (r, rc) = ping_pong(eager_cfg.clone(), split, iters);
        small_rtt.push(s / 1e3);
        eager_rtt.push(e / 1e3);
        rndv_rtt.push(r / 1e3);
        premium.push((r - e) / 1e3);
        eager_counters = ec;
        rndv_counters = rc;
    }

    let mut t = Table::new(vec!["path", "bytes", "rtt us", "eager_tx", "rndv_tx"]);
    t.row(vec![
        "eager".into(),
        small.to_string(),
        us(small_rtt.iter().sum::<f64>() as u64 * 1000 / repeats as u64),
        iters.to_string(),
        "0".into(),
    ]);
    t.row(vec![
        "eager (raised crossover)".into(),
        split.to_string(),
        us(eager_rtt.iter().sum::<f64>() as u64 * 1000 / repeats as u64),
        eager_counters.counter("wire.eager_tx").to_string(),
        eager_counters.counter("wire.rndv_tx").to_string(),
    ]);
    t.row(vec![
        "rendezvous".into(),
        split.to_string(),
        us(rndv_rtt.iter().sum::<f64>() as u64 * 1000 / repeats as u64),
        rndv_counters.counter("wire.eager_tx").to_string(),
        rndv_counters.counter("wire.rndv_tx").to_string(),
    ]);
    emit(
        "wire_calib",
        "Wire calibration — eager RTT vs rendezvous handshake premium (loopback pair)",
        &t,
    );

    let mut snap = PanelSnapshot::new(
        "wire_calib",
        "wire loopback: eager latency + rendezvous handshake split",
    );
    snap.push_series("eager_rtt_us.1KB", "us", Direction::Info, small_rtt);
    snap.push_series("eager_rtt_us.32KB", "us", Direction::Info, eager_rtt);
    snap.push_series("rndv_rtt_us.32KB", "us", Direction::Info, rndv_rtt);
    snap.push_series("rndv_premium_us.32KB", "us", Direction::Info, premium);
    // Protocol counters: deterministic, so they gate. 32 KiB under the
    // default crossover is all rendezvous; with the crossover raised it
    // must never leak onto the rendezvous path (and vice versa).
    snap.push_series(
        "rndv_handshakes.32KB",
        "count",
        Direction::Higher,
        vec![rndv_counters.counter("wire.rndv_tx") as f64; repeats],
    );
    snap.push_series(
        "stray_eager_under_rndv.32KB",
        "count",
        Direction::Lower,
        vec![rndv_counters.counter("wire.eager_tx") as f64; repeats],
    );
    snap.push_series(
        "eager_frames_raised.32KB",
        "count",
        Direction::Higher,
        vec![eager_counters.counter("wire.eager_tx") as f64; repeats],
    );
    snap.push_series(
        "stray_rndv_raised.32KB",
        "count",
        Direction::Lower,
        vec![eager_counters.counter("wire.rndv_tx") as f64; repeats],
    );
    // Syscalls at the fabric seam, one pumping thread: exact counts.
    for (name, value) in [
        ("syscalls_per_idle_progress.n2", idle_progress_syscalls(2)),
        ("syscalls_per_idle_progress.n4", idle_progress_syscalls(4)),
        (
            "syscalls_per_eager_echo.1KB",
            eager_echo_syscalls(small, 64),
        ),
        ("rndv_data_writes.256KB", rndv_data_writes(256 * 1024, 16)),
    ] {
        snap.push_series(name, "count", Direction::Lower, vec![value; repeats]);
    }
    benchjson::emit_snapshot(&snap);
}
