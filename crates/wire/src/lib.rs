//! `wire` — ranks as OS processes over real sockets.
//!
//! This is the substrate on which the paper's asynchronous-progress problem
//! actually exists. The in-process layer (`rtmpi`) delivers push-style: a
//! send completes the matching receive directly, so nothing is ever pending
//! and nobody has to poll. Here every rank is a separate process connected
//! over Unix-domain sockets (TCP via `WIRE_TCP=1`), messages travel as
//! length-prefixed frames, and large transfers use a real rendezvous
//! handshake (RTS → CTS → DATA) whose state machine advances **only** when
//! someone calls [`rtmpi::Transport::progress`] on the engine. The baseline
//! approach polls only inside `MPI_Wait` — so a rendezvous genuinely stalls
//! until the application waits — while the offload thread's service loop
//! polls continuously and demonstrably completes the handshake during
//! application compute (counted by `wire.rndv_handshake_async` vs
//! `wire.rndv_handshake_at_wait`).
//!
//! Module map:
//! * [`proto`] — the frame header and its encoding (24-byte LE prefix).
//! * [`fabric`] — [`FrameFabric`]: the frame-delivery seam under the
//!   engine. [`SocketFabric`] is the production one — one `poll(2)` per
//!   progress pass, one read per ready link, each body written once into
//!   the `Arc` it is delivered in; `check::proto` substitutes an
//!   in-memory fabric to model-check delivery order, duplication and
//!   peer death (DESIGN.md §15).
//! * [`engine`] — [`WireComm`]: the nonblocking per-rank progress engine
//!   (unexpected-message queue, MPI FIFO matching via [`rtmpi::MatchQueue`],
//!   eager/rendezvous protocol, peer-death detection), generic over the
//!   fabric.
//! * [`nbcrun`] — re-exports of `mpisim::nbc`'s collective runner (the
//!   one executor of NBC round schedules over any [`rtmpi::Transport`])
//!   under the path the victim binaries and the model checker import.
//! * [`shm`] — the shared-memory data plane (`WIRE_SHM=1`): per-pair
//!   memfd segments passed over the UDS handshake, SPSC rings running the
//!   model-checked `shmring` protocol, zero syscalls and zero per-message
//!   allocation on the eager path (DESIGN.md §16).
//! * [`regpool`] — a lease/recycle staging-buffer pool; off the data
//!   path (nothing stages a body any more), kept for the benchmark probe
//!   that links it.
//! * `sys` — the raw `poll(2)` behind the fabric's once-per-pass
//!   readiness sweep; with [`shm`], the crate's whole raw-FFI surface.
//! * [`relay`] — the stats uplink every rank has: to the launcher
//!   itself in a flat world, to its parent in the k-ary relay tree
//!   (parents merge in flight, the launcher sees O(k) connections
//!   instead of O(N)) — one node type, topology a parameter
//!   (DESIGN.md §13).
//! * [`stats`] — the launcher's side: the collector folding every frame
//!   into one map of sources, the cluster table, the JSON report and its
//!   validator.
//! * [`bootstrap`] — process worlds from `WIRE_RANK`/`WIRE_SIZE`/`WIRE_DIR`
//!   env (rank-0 mesh exchange), packed multi-rank worlds
//!   ([`from_env_packed`]), and in-process loopback worlds for tests.
//! * [`launcher`] — what the `offload-run` binary does: spawn `-n` ranks,
//!   wire the env, babysit (stderr prefixing, timeout kill, per-rank exit
//!   reporting), reap.
//!
//! Configuration (environment):
//! * `WIRE_EAGER_MAX` — eager/rendezvous crossover in bytes (default 4096).
//! * `WIRE_TIMEOUT_MS` — per-operation pending timeout (default 30000).
//! * `WIRE_TCP=1` — TCP over loopback instead of Unix-domain sockets.
//! * `WIRE_SHM=1` — shared-memory data plane between peers (UDS meshes
//!   only; degrades per-pair to the socket path when unavailable).
//! * `WIRE_STATS_SOCK` / `WIRE_STATS_INTERVAL_MS` / `WIRE_STALL_MS` /
//!   `WIRE_RELAY_ARITY` — the observability plane: the launcher's
//!   collector socket, how often to ship a snapshot, the progress-stall
//!   watchdog window, and the relay tree's arity (unset: every rank
//!   dials the collector itself). Read once, wrong values are bootstrap
//!   errors ([`bootstrap::StatsPlaneEnv`]).
//! * `WIRE_PACK` — how many ranks this process hosts as multiplexed
//!   event loops (`--packed`).

pub mod bootstrap;
pub mod engine;
pub mod fabric;
#[cfg(feature = "model-faults")]
pub mod faults;
pub mod launcher;
pub mod nbcrun;
pub mod proto;
pub mod regpool;
pub mod relay;
pub mod shm;
pub mod stats;
mod sys;

pub use bootstrap::{from_env, from_env_packed, loopback, loopback_configured};
pub use engine::{WireComm, WireConfig, WireReq};
pub use fabric::{Frame, FrameFabric, LinkPoll, SocketFabric};

/// Environment variable naming this process's rank (set by `offload-run`).
pub const ENV_RANK: &str = "WIRE_RANK";
/// Environment variable naming the world size.
pub const ENV_SIZE: &str = "WIRE_SIZE";
/// Environment variable naming the bootstrap directory (sockets live here).
pub const ENV_DIR: &str = "WIRE_DIR";
/// Eager/rendezvous crossover override, in bytes.
pub const ENV_EAGER_MAX: &str = "WIRE_EAGER_MAX";
/// Per-operation pending timeout override, in milliseconds.
pub const ENV_TIMEOUT_MS: &str = "WIRE_TIMEOUT_MS";
/// Set to `1` to use TCP over 127.0.0.1 instead of Unix-domain sockets.
pub const ENV_TCP: &str = "WIRE_TCP";
/// Set to `1` to negotiate the shared-memory data plane per peer pair
/// (UDS meshes only; every failure degrades gracefully to the socket).
pub const ENV_SHM: &str = "WIRE_SHM";
/// Set to `1` to force the shm handshake down its fallback path (tests).
pub const ENV_SHM_FORCE_FALLBACK: &str = "WIRE_SHM_FORCE_FALLBACK";
/// Path of the launcher's stats-collector Unix socket; when set, every
/// rank gets a stats uplink ([`relay::RelayNode`]) shipping periodic
/// `Relay` frames (serialized `obs::Snapshot`s) and stall events towards
/// it.
pub const ENV_STATS_SOCK: &str = "WIRE_STATS_SOCK";
/// Stats emission interval in milliseconds (default 200 when the socket
/// is configured).
pub const ENV_STATS_INTERVAL_MS: &str = "WIRE_STATS_INTERVAL_MS";
/// Progress-stall watchdog window in milliseconds; unset leaves the
/// watchdog disarmed.
pub const ENV_STALL_MS: &str = "WIRE_STALL_MS";
/// Relay-tree arity: when set (with the stats socket), a rank's uplink
/// leads to its parent in the k-ary relay tree ([`relay`]); unset, to the
/// launcher directly.
pub const ENV_RELAY_ARITY: &str = "WIRE_RELAY_ARITY";
/// Packed multiplexing: how many consecutive ranks (starting at
/// `WIRE_RANK`) this one process hosts as event loops
/// ([`from_env_packed`]); unset/1 means the classic one-rank process.
pub const ENV_PACK: &str = "WIRE_PACK";

/// Is this process running under `offload-run` (i.e. as a wire rank)?
pub fn is_wire_process() -> bool {
    std::env::var(ENV_RANK).is_ok()
}
