//! Building the mesh: every pair of ranks shares one stream socket.
//!
//! Process worlds ([`from_env`]) read `WIRE_RANK` / `WIRE_SIZE` /
//! `WIRE_DIR` — the environment `offload-run` sets up — and connect a full
//! mesh under the bootstrap directory: rank `k` listens on
//! `rank-k.sock`, dials every lower rank (with retry, since siblings
//! start concurrently), and accepts from every higher rank, identifying
//! inbound connections by their `Hello` frame. With `WIRE_TCP=1` each
//! rank instead listens on an ephemeral 127.0.0.1 port and publishes it
//! as `rank-k.port` in the same directory (written atomically via
//! rename).
//!
//! Loopback worlds ([`loopback`]) build the same mesh inside one process
//! from `socketpair`s — no listeners, no bootstrap directory — so engine
//! tests and the matching matrix run the real framing and protocol code
//! without child processes.

use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::engine::{bad_env, env_whole, WireComm, WireConfig};
use crate::fabric::{SocketFabric, Stream};
use crate::proto::{FrameKind, Header, HEADER_LEN};
use crate::shm::ShmLink;

/// How long a rank keeps retrying to reach its siblings before giving up.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(20);
const RETRY_SLEEP: Duration = Duration::from_millis(5);

/// Bootstrap a rank from the `WIRE_*` environment (set by `offload-run`).
pub fn from_env() -> std::io::Result<WireComm> {
    let rank: usize = env_req(crate::ENV_RANK)?;
    let size: usize = env_req(crate::ENV_SIZE)?;
    let dir = std::env::var(crate::ENV_DIR)
        .map_err(|_| bad_input(format!("{} not set", crate::ENV_DIR)))?;
    let cfg = WireConfig::from_env()?;
    let plane = StatsPlaneEnv::from_env()?;
    let mut comm = connect_mesh(rank, size, Path::new(&dir), cfg)?;
    attach_observability(&mut comm, &plane, Path::new(&dir));
    Ok(comm)
}

/// Bootstrap every rank this process hosts: `WIRE_PACK` consecutive
/// ranks starting at `WIRE_RANK` (the launcher's `--packed` mode). The
/// poll-driven engine makes each rank an event loop, so one process can
/// multiplex many of them — how CI gets 64–256-rank worlds (and a relay
/// tree of real depth) out of a handful of processes.
///
/// Hosted ranks bootstrap on concurrent threads: the mesh handshake
/// between two hosted ranks needs both sides live (one dials while the
/// other accepts), so a sequential bootstrap would deadlock against
/// itself.
pub fn from_env_packed() -> std::io::Result<Vec<WireComm>> {
    let base: usize = env_req(crate::ENV_RANK)?;
    let size: usize = env_req(crate::ENV_SIZE)?;
    let pack =
        at_least_one(&|name| std::env::var(name).ok(), crate::ENV_PACK)?.unwrap_or(1) as usize;
    let count = pack.min(size.saturating_sub(base)).max(1);
    let dir = std::env::var(crate::ENV_DIR)
        .map_err(|_| bad_input(format!("{} not set", crate::ENV_DIR)))?;
    let cfg = WireConfig::from_env()?;
    let plane = StatsPlaneEnv::from_env()?;
    let handles: Vec<_> = (base..base + count)
        .map(|rank| {
            let dir = dir.clone();
            let cfg = cfg.clone();
            let plane = plane.clone();
            std::thread::spawn(move || -> std::io::Result<WireComm> {
                let mut comm = connect_mesh(rank, size, Path::new(&dir), cfg)?;
                attach_observability(&mut comm, &plane, Path::new(&dir));
                Ok(comm)
            })
        })
        .collect();
    let mut comms = Vec::with_capacity(count);
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(c)) => comms.push(c),
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                return Err(std::io::Error::other(format!(
                    "bootstrap thread for rank {} panicked",
                    base + i
                )))
            }
        }
    }
    Ok(comms)
}

/// The stats plane's share of the environment, read once and checked:
/// `WIRE_STATS_SOCK`, `WIRE_STATS_INTERVAL_MS`, `WIRE_STALL_MS`,
/// `WIRE_RELAY_ARITY`. Unset means what it always meant — no plane, the
/// 200 ms default, no watchdog, a flat world — but a value that does not
/// parse or is out of range is a bootstrap error naming the variable,
/// never a silent default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsPlaneEnv {
    /// The launcher's collector socket; `None` leaves the plane off.
    pub stats_sock: Option<PathBuf>,
    /// Emission period (≥ 1 ms).
    pub interval: Duration,
    /// Progress-stall watchdog window (≥ 1 ms); `None` leaves it disarmed.
    pub stall: Option<Duration>,
    /// Relay-tree arity (≥ 1); `None` is the flat world.
    pub relay_arity: Option<usize>,
}

impl StatsPlaneEnv {
    pub fn from_env() -> std::io::Result<Self> {
        Self::parse(|name| std::env::var(name).ok())
    }

    /// [`StatsPlaneEnv::from_env`] over any lookup (tests pass a map).
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> std::io::Result<Self> {
        Ok(StatsPlaneEnv {
            stats_sock: get(crate::ENV_STATS_SOCK).map(PathBuf::from),
            interval: Duration::from_millis(
                at_least_one(&get, crate::ENV_STATS_INTERVAL_MS)?.unwrap_or(200),
            ),
            stall: at_least_one(&get, crate::ENV_STALL_MS)?.map(Duration::from_millis),
            relay_arity: at_least_one(&get, crate::ENV_RELAY_ARITY)?.map(|k| k as usize),
        })
    }
}

/// An optional whole number ≥ 1 from the environment: `None` when unset,
/// an error naming the variable when it is anything else.
fn at_least_one(get: &impl Fn(&str) -> Option<String>, name: &str) -> std::io::Result<Option<u64>> {
    match env_whole(get, name)? {
        Some(0) => Err(bad_env(name, "0", "must be at least 1")),
        v => Ok(v),
    }
}

/// Wire the observability plane onto a freshly meshed rank, when the
/// launcher set one up. Best-effort from here on: a missing collector or
/// an unreachable parent must not take the rank down with it.
fn attach_observability(comm: &mut WireComm, plane: &StatsPlaneEnv, dir: &Path) {
    use rtmpi::Transport;
    let rank = comm.rank();
    if let Some(stats_sock) = &plane.stats_sock {
        // Bind this rank's child listener if the topology gives it
        // children, dial its parent — the collector itself in a flat
        // world or at a tree's root.
        let opts = crate::relay::RelayOpts {
            rank,
            size: comm.size(),
            arity: plane.relay_arity,
            dir: dir.to_path_buf(),
            stats_sock: stats_sock.clone(),
            interval: plane.interval,
        };
        match crate::relay::RelayNode::connect(&opts, comm.obs()) {
            Ok(node) => comm.set_relay(node),
            Err(e) => eprintln!("wire: rank {rank}: stats uplink failed: {e}"),
        }
        // Black-box postmortem persistence rides the same directory; the
        // launcher harvests `blackbox-<rank>.obb` after the run — that
        // file is all that speaks for a SIGKILLed rank.
        let bb_file = dir.join(format!("blackbox-{rank}.obb"));
        comm.set_blackbox_path(
            bb_file.clone(),
            plane.interval.max(Duration::from_millis(50)),
        );
        // A panicking rank dumps through this hook even if the transport
        // is never dropped (e.g. the panic is in another thread).
        let bb = comm.blackbox().clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let tmp = bb_file.with_extension("obb.tmp");
            let _ = std::fs::write(&tmp, bb.dump().to_bytes())
                .and_then(|()| std::fs::rename(&tmp, &bb_file));
            prev(info);
        }));
    }
    if let Some(window) = plane.stall {
        comm.set_stall_window(window);
    }
}

fn env_req<T: std::str::FromStr>(name: &str) -> std::io::Result<T> {
    std::env::var(name)
        .map_err(|_| bad_input(format!("{name} not set")))?
        .trim()
        .parse()
        .map_err(|_| bad_input(format!("{name} unparsable")))
}

fn bad_input(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

fn sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.sock"))
}

fn port_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.port"))
}

enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Uds(l) => Stream::from(l.accept()?.0),
            Listener::Tcp(l) => Stream::from(l.accept()?.0),
        })
    }
}

/// Full-mesh bootstrap for one rank (see module docs).
fn connect_mesh(
    rank: usize,
    size: usize,
    dir: &Path,
    cfg: WireConfig,
) -> std::io::Result<WireComm> {
    assert!(rank < size);
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    // 1. Publish our own endpoint.
    let listener = if cfg.tcp {
        let l = TcpListener::bind("127.0.0.1:0")?;
        let port = l.local_addr()?.port();
        // Atomic publish: peers must never read a half-written file.
        let tmp = dir.join(format!(".rank-{rank}.port.tmp"));
        std::fs::write(&tmp, port.to_string())?;
        std::fs::rename(&tmp, port_path(dir, rank))?;
        Listener::Tcp(l)
    } else {
        let path = sock_path(dir, rank);
        let _ = std::fs::remove_file(&path);
        Listener::Uds(UnixListener::bind(&path)?)
    };
    let mut streams: Vec<Option<Stream>> = (0..size).map(|_| None).collect();
    // 2. Dial every lower rank (they may not have bound yet — retry).
    for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
        let mut stream = loop {
            let attempt: std::io::Result<Stream> = if cfg.tcp {
                std::fs::read_to_string(port_path(dir, peer))
                    .and_then(|s| {
                        s.trim()
                            .parse::<u16>()
                            .map_err(|_| bad_input(format!("bad port file for rank {peer}")))
                    })
                    .and_then(|port| TcpStream::connect(("127.0.0.1", port)))
                    .map(Stream::from)
            } else {
                UnixStream::connect(sock_path(dir, peer)).map(Stream::from)
            };
            match attempt {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("rank {rank}: bootstrap to rank {peer} timed out: {e}"),
                    ));
                }
                Err(_) => std::thread::sleep(RETRY_SLEEP),
            }
        };
        // Identify ourselves so the acceptor knows which rank this is.
        let hello = Header {
            kind: FrameKind::Hello,
            src: rank as u32,
            tag: 0,
            xid: 0,
            len: 0,
        };
        stream.write_all_blocking(&hello.encode())?;
        *slot = Some(stream);
    }
    // 3. Accept from every higher rank; the Hello frame says who it is.
    for _ in rank + 1..size {
        let mut stream = listener.accept()?;
        let mut hdr = [0u8; HEADER_LEN];
        stream.read_exact_blocking(&mut hdr)?;
        let hello = Header::decode(&hdr).map_err(bad_input)?;
        if hello.kind != FrameKind::Hello {
            return Err(bad_input(format!(
                "rank {rank}: expected Hello, got {:?}",
                hello.kind
            )));
        }
        let peer = hello.src as usize;
        if peer <= rank || peer >= size || streams[peer].is_some() {
            return Err(bad_input(format!(
                "rank {rank}: bogus Hello from rank {peer}"
            )));
        }
        streams[peer] = Some(stream);
    }
    // 3.5. Negotiate shared-memory segments while the streams are still
    // blocking (the memfd rides the UDS handshake via SCM_RIGHTS). Pairs
    // are processed in rank order on both sides — lower rank creates and
    // offers, higher rank maps and acks — which gives every pair's
    // handshake only lexicographically-smaller prerequisites, so the
    // sequential blocking exchange cannot deadlock. `WIRE_SHM` comes from
    // the launcher's environment, identical across ranks, so both sides
    // always agree on whether this step runs.
    let mut shm_links: Vec<Option<ShmLink>> = (0..size).map(|_| None).collect();
    let mut shm_fallbacks: u64 = 0;
    if cfg.shm && cfg.tcp {
        shm_fallbacks = (size - 1) as u64;
        eprintln!(
            "wire: rank {rank}: WIRE_SHM=1 has no fd channel over TCP; using socket data path"
        );
    } else if cfg.shm {
        for peer in 0..size {
            let Some(stream) = streams[peer].as_mut() else {
                continue;
            };
            let negotiated = if rank < peer {
                crate::shm::offer_segment(
                    stream,
                    rank as u32,
                    cfg.shm_slots,
                    cfg.shm_slot_bytes,
                    cfg.shm_force_fallback,
                )
            } else {
                crate::shm::accept_segment(stream, rank as u32)
            }
            .map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("rank {rank}: shm handshake with rank {peer} failed: {e}"),
                )
            })?;
            match negotiated {
                Some(link) => shm_links[peer] = Some(link),
                None => {
                    shm_fallbacks += 1;
                    eprintln!(
                        "wire: rank {rank}: shm unavailable toward rank {peer}; using socket data path"
                    );
                }
            }
        }
    }
    // 4. Switch the mesh to nonblocking; the engine owns it from here.
    for s in streams.iter().flatten() {
        s.set_nonblocking(true)?;
    }
    let mut fabric = SocketFabric::new(streams);
    for (peer, link) in shm_links.into_iter().enumerate() {
        if let Some(link) = link {
            fabric.attach_shm(peer, link);
        }
    }
    for _ in 0..shm_fallbacks {
        fabric.note_shm_fallback();
    }
    Ok(WireComm::from_fabric(rank, size, fabric, cfg))
}

/// An `n`-rank world inside one process: a full `socketpair` mesh running
/// the identical framing/protocol code. Each [`WireComm`] is `Send` —
/// hand one to each thread. Knobs come from the environment, so
/// `WIRE_SHM=1` (and friends) reach in-process worlds like the matching
/// matrix exactly as they reach spawned ranks — and a wrong value panics
/// with the message [`from_env`] would return.
pub fn loopback(n: usize) -> Vec<WireComm> {
    let cfg = WireConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    loopback_configured(n, cfg)
}

/// As [`loopback`] with explicit knobs (crossover, timeout, shm, tcp —
/// `cfg.tcp` joins the pairs over real 127.0.0.1 TCP connections, so the
/// calibration panels can compare transports inside one process).
pub fn loopback_configured(n: usize, cfg: WireConfig) -> Vec<WireComm> {
    assert!(n > 0);
    let mut meshes: Vec<Vec<Option<Stream>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    // Cross-indexed assignment (meshes[a][b] and meshes[b][a]) rules out
    // a single iter_mut traversal.
    #[allow(clippy::needless_range_loop)]
    for a in 0..n {
        for b in a + 1..n {
            let (sa, sb) = if cfg.tcp {
                tcp_pair().expect("tcp pair")
            } else {
                let (sa, sb) = UnixStream::pair().expect("socketpair");
                (Stream::from(sa), Stream::from(sb))
            };
            sa.set_nonblocking(true).expect("nonblocking");
            sb.set_nonblocking(true).expect("nonblocking");
            meshes[a][b] = Some(sa);
            meshes[b][a] = Some(sb);
        }
    }
    let mut fabrics: Vec<SocketFabric> = meshes.into_iter().map(SocketFabric::new).collect();
    // In-process shm: both ring endpoints share one mapped segment (the
    // real memfd/mmap path, minus the fd passing). Failures degrade the
    // pair to the socket path exactly as in the process world — including
    // the TCP short-circuit, mirroring `connect_mesh`.
    if cfg.shm && cfg.tcp {
        eprintln!("wire: loopback: WIRE_SHM=1 has no fd channel over TCP; using socket data path");
        for f in fabrics.iter_mut() {
            for _ in 0..n - 1 {
                f.note_shm_fallback();
            }
        }
    } else if cfg.shm {
        for a in 0..n {
            for b in a + 1..n {
                let pair = if cfg.shm_force_fallback {
                    None
                } else {
                    crate::shm::loopback_pair(cfg.shm_slots, cfg.shm_slot_bytes).ok()
                };
                match pair {
                    Some((la, lb)) => {
                        fabrics[a].attach_shm(b, la);
                        fabrics[b].attach_shm(a, lb);
                    }
                    None => {
                        eprintln!(
                            "wire: loopback: shm unavailable for pair ({a}, {b}); using socket data path"
                        );
                        fabrics[a].note_shm_fallback();
                        fabrics[b].note_shm_fallback();
                    }
                }
            }
        }
    }
    fabrics
        .into_iter()
        .enumerate()
        .map(|(rank, fabric)| WireComm::from_fabric(rank, n, fabric, cfg.clone()))
        .collect()
}

/// One connected 127.0.0.1 TCP pair, built through a throwaway listener.
fn tcp_pair() -> std::io::Result<(Stream, Stream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let a = TcpStream::connect(addr)?;
    let (b, _) = listener.accept()?;
    Ok((Stream::from(a), Stream::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(vars: &[(&str, &str)]) -> std::io::Result<StatsPlaneEnv> {
        StatsPlaneEnv::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn stats_plane_env_defaults_when_unset() {
        let p = plane(&[]).expect("nothing set is fine");
        assert_eq!(p.stats_sock, None, "no socket: the plane stays off");
        assert_eq!(p.interval, Duration::from_millis(200));
        assert_eq!((p.stall, p.relay_arity), (None, None), "no watchdog, flat");
        let p = plane(&[
            (crate::ENV_STATS_SOCK, "/tmp/x/stats.sock"),
            (crate::ENV_STATS_INTERVAL_MS, " 50 "),
            (crate::ENV_STALL_MS, "500"),
            (crate::ENV_RELAY_ARITY, "8"),
        ])
        .expect("the launcher's own values parse");
        assert_eq!(p.stats_sock, Some(PathBuf::from("/tmp/x/stats.sock")));
        assert_eq!(p.interval, Duration::from_millis(50));
        assert_eq!(p.stall, Some(Duration::from_millis(500)));
        assert_eq!(p.relay_arity, Some(8));
    }

    fn wire_config(vars: &[(&str, &str)]) -> std::io::Result<WireConfig> {
        WireConfig::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    /// `WIRE_EAGER_MAX=4k` used to run at 4096 and `WIRE_SHM=true` over
    /// sockets, both without a word.
    #[test]
    fn wire_config_rejects_wrong_values_by_name() {
        let cfg = wire_config(&[]).expect("nothing set is fine");
        assert_eq!((cfg.eager_max, cfg.tcp, cfg.shm), (4096, false, false));
        let cfg = wire_config(&[
            (crate::ENV_EAGER_MAX, " 65536 "),
            (crate::ENV_TIMEOUT_MS, "10000"),
            (crate::ENV_SHM, "1"),
            (crate::ENV_TCP, "0"),
        ])
        .expect("what ci.sh and the launcher set parses");
        assert_eq!((cfg.eager_max, cfg.tcp, cfg.shm), (65536, false, true));
        assert_eq!(cfg.timeout, Duration::from_secs(10));
        for (name, value) in [
            (crate::ENV_EAGER_MAX, "4k"),
            (crate::ENV_EAGER_MAX, "-1"),
            (crate::ENV_TIMEOUT_MS, "30s"),
            (crate::ENV_SHM, "true"),
            (crate::ENV_TCP, ""),
            (crate::ENV_SHM_FORCE_FALLBACK, "yes"),
        ] {
            let err = wire_config(&[(name, value)]).expect_err(value);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(name), "{err} names {name}");
        }
    }

    /// `WIRE_RELAY_ARITY=eight` used to mean "flat" and a garbled interval
    /// 200 ms, both without a word.
    #[test]
    fn stats_plane_env_rejects_wrong_values_by_name() {
        for (name, value) in [
            (crate::ENV_RELAY_ARITY, "eight"),
            (crate::ENV_RELAY_ARITY, "0"),
            (crate::ENV_RELAY_ARITY, "-2"),
            (crate::ENV_STATS_INTERVAL_MS, "20ms"),
            (crate::ENV_STATS_INTERVAL_MS, "0"),
            (crate::ENV_STALL_MS, ""),
            (crate::ENV_STALL_MS, "1e3"),
        ] {
            let err = plane(&[(name, value)]).expect_err(value);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(name), "{err} names {name}");
        }
    }
}
