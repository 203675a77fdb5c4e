//! The per-rank progress engine: frame delivery (via [`FrameFabric`]),
//! MPI matching, and the eager/rendezvous protocol state machines.
//!
//! The engine is single-owner (`&mut self` everywhere, per the
//! [`rtmpi::Transport`] contract) and advances **only** inside
//! [`progress`]: nothing here touches the fabric on `isend`/`irecv`
//! beyond queueing a frame toward a peer. That is the point — the
//! paper's progress problem is *whose thread polls, and when*:
//!
//! * baseline: the application polls only inside `MPI_Wait`, so an
//!   incoming RTS sits unanswered in the kernel buffer until the wait;
//! * offload: the dedicated thread polls in its service loop, so the CTS
//!   goes out during application compute.
//!
//! Send state machine: `Eager` frames complete when their bytes are
//! flushed; rendezvous sends go `RTS queued → CTS received → DATA queued →
//! DATA flushed → complete`. Receive state machine: an arrival (eager
//! payload or RTS descriptor) meets a posted receive through the shared
//! [`rtmpi::MatchQueue`]; matching an RTS queues the CTS and parks the
//! request until the DATA frame delivers.
//!
//! The engine is generic over its [`FrameFabric`]: production runs the
//! nonblocking socket mesh ([`crate::fabric::SocketFabric`], the default
//! type parameter, so plain `WireComm` means the socket flavour); the
//! protocol model checker (`check::proto`) substitutes a deterministic
//! in-process fabric and explores delivery interleavings.
//!
//! Peer death (EOF / connection reset / corrupt stream) fails — with
//! [`TransportError::PeerLost`] — every operation that still depends on
//! the dead rank: posted receives naming it, rendezvous sends awaiting its
//! CTS, receives awaiting its DATA, and buffered RTS descriptors whose
//! DATA can no longer arrive. Wildcard receives stay posted: another peer
//! may still match them.
//!
//! Anything a peer can put on the wire is handled without panicking:
//! stray/duplicate/wrong-source CTS, DATA nobody awaits, DATA shorter or
//! longer than its RTS announced, stats-plane frames (`Relay`/`Stall`)
//! that belong on the stats sockets — each is counted in
//! `wire.protocol_errors` and absorbed.
//!
//! [`progress`]: rtmpi::Transport::progress

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtmpi::{MatchQueue, OpOutcome, Status, Tag, Transport, TransportError};

use crate::fabric::{Frame, FrameFabric, SocketFabric};
use crate::proto::{FrameKind, Header};

/// Globally unique flow id for one rendezvous exchange. `xid` alone is
/// only unique per sender, so the sender's rank disambiguates; both sides
/// know it (it is the RTS header's `src`).
fn flow_id(sender: usize, xid: u32) -> u64 {
    ((sender as u64) << 32) | xid as u64
}

/// Engine knobs, usually read from the environment ([`WireConfig::from_env`]).
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Largest payload sent eagerly; anything bigger takes the rendezvous
    /// path.
    pub eager_max: usize,
    /// How long an operation may stay pending before the polling owner
    /// converts it into [`TransportError::Timeout`].
    pub timeout: Duration,
    /// TCP over 127.0.0.1 instead of Unix-domain sockets (bootstrap only;
    /// the engine is agnostic).
    pub tcp: bool,
    /// Negotiate the shared-memory data plane per peer pair at bootstrap
    /// (UDS meshes only; every failure degrades to the socket path).
    pub shm: bool,
    /// Ring slot count for negotiated segments (power of two).
    pub shm_slots: u32,
    /// Ring slot payload size in bytes.
    pub shm_slot_bytes: u32,
    /// Force the shm handshake down its fallback path (tests; also set by
    /// `WIRE_SHM_FORCE_FALLBACK=1`).
    pub shm_force_fallback: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            eager_max: 4096,
            timeout: Duration::from_millis(30_000),
            tcp: false,
            shm: false,
            shm_slots: crate::shm::DEFAULT_SLOTS,
            shm_slot_bytes: crate::shm::DEFAULT_SLOT_BYTES,
            shm_force_fallback: false,
        }
    }
}

impl WireConfig {
    /// Defaults overridden by `WIRE_EAGER_MAX` / `WIRE_TIMEOUT_MS` (whole
    /// numbers) and `WIRE_TCP` / `WIRE_SHM` / `WIRE_SHM_FORCE_FALLBACK`
    /// (`1`, or `0` for off). Anything else is an error naming the
    /// variable, never a silent default.
    pub fn from_env() -> std::io::Result<Self> {
        Self::parse(|name| std::env::var(name).ok())
    }

    /// [`WireConfig::from_env`] over any lookup (tests pass a map).
    pub(crate) fn parse(get: impl Fn(&str) -> Option<String>) -> std::io::Result<Self> {
        let flag = |name: &str| match get(name).as_deref().map(str::trim) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(raw) => Err(bad_env(name, raw, "must be 0 or 1")),
        };
        let mut cfg = Self::default();
        if let Some(v) = env_whole(&get, crate::ENV_EAGER_MAX)? {
            cfg.eager_max = v as usize;
        }
        if let Some(v) = env_whole(&get, crate::ENV_TIMEOUT_MS)? {
            cfg.timeout = Duration::from_millis(v);
        }
        cfg.tcp = flag(crate::ENV_TCP)?;
        cfg.shm = flag(crate::ENV_SHM)?;
        cfg.shm_force_fallback = flag(crate::ENV_SHM_FORCE_FALLBACK)?;
        Ok(cfg)
    }
}

/// An optional whole number from the environment: `None` when unset, an
/// error naming the variable when it does not parse.
pub(crate) fn env_whole(
    get: &impl Fn(&str) -> Option<String>,
    name: &str,
) -> std::io::Result<Option<u64>> {
    let Some(raw) = get(name) else {
        return Ok(None);
    };
    match raw.trim().parse() {
        Ok(v) => Ok(Some(v)),
        Err(_) => Err(bad_env(name, &raw, "not a whole number")),
    }
}

pub(crate) fn bad_env(name: &str, raw: &str, why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{name}={raw:?}: {why}"),
    )
}

/// A buffered arrival awaiting a matching receive.
enum Arrival {
    /// Fully delivered eager payload.
    Eager(Arc<[u8]>),
    /// Rendezvous announcement: `len` bytes available under exchange `xid`.
    Rts { len: usize, xid: u32 },
}

/// Transport-side state of one request id.
enum Pending {
    /// Eager send queued; completes when its flush mark passes.
    EagerSend,
    /// Rendezvous send: RTS queued, payload retained until the CTS arrives.
    RndvAwaitCts { dst: usize, data: Arc<[u8]> },
    /// Rendezvous send: DATA queued; completes when its flush mark passes.
    RndvSendData,
    /// Posted receive sitting in the match queue.
    PostedRecv,
    /// Receive matched an RTS; CTS queued; waiting for the DATA frame.
    AwaitData,
    /// Outcome ready for `try_take`.
    Done(Result<OpOutcome, TransportError>),
}

/// Cheap cloneable request id ([`Transport::Req`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WireReq(u64);

/// Progress-stall watchdog state. "Advancement" is the engine's own
/// definition — some frame moved or some request completed — so a trip
/// means the data path is genuinely wedged, not merely idle: it only
/// fires while operations are pending.
struct Watchdog {
    window: Duration,
    last_advance: Instant,
    /// One report per stall episode; re-armed when progress resumes.
    tripped: bool,
}

/// The per-rank wire transport (see module docs). `F` is the frame
/// delivery substrate; the default is the real socket mesh.
pub struct WireComm<F: FrameFabric = SocketFabric> {
    rank: usize,
    size: usize,
    fabric: F,
    /// Per-peer FIFO of (cumulative flush mark, request id): the request
    /// completes once the fabric's flushed total passes the mark. Marks
    /// are monotonic per link.
    marks: Vec<VecDeque<(u64, u64)>>,
    /// Peers whose protocol state has already been reaped after death.
    reaped: Vec<bool>,
    /// Reused buffers for the fabric's sweep verdicts and received frames
    /// (no per-poll allocation on the quiet path).
    ready: Vec<bool>,
    frames_scratch: Vec<Frame>,
    mailbox: MatchQueue<u64, Arrival>,
    pending: HashMap<u64, Pending>,
    /// Receiver side: (src, xid) → (request awaiting that DATA frame,
    /// payload length the RTS announced — a mismatching DATA is counted).
    await_data: HashMap<(usize, u32), (u64, u64)>,
    /// Sender side: xid → rendezvous send awaiting its CTS.
    sent_rndv: HashMap<u32, u64>,
    next_req: u64,
    next_xid: u32,
    cfg: WireConfig,
    in_wait: bool,
    /// The stats uplink: an initial snapshot on the first `progress`
    /// call, one every interval, stall reports as they happen and a final
    /// one when the transport drops — toward the launcher's collector or
    /// this rank's parent in the relay tree, the node knows which.
    /// Boxed: the node holds a 4 KiB read scratch, and an engine without
    /// a plane (every test and benchmark world) should not carry a page
    /// of dead space between its protocol maps and its counters.
    relay: Option<Box<crate::relay::RelayNode>>,
    watchdog: Option<Watchdog>,
    flow: Option<obs::Track>,
    /// Always-on flight recorder of recent protocol events (a ZST no-op
    /// when obs is built without `enabled`).
    bb: obs::BlackBox,
    /// Postmortem persistence target for the recorder; `None` outside
    /// launcher worlds.
    bb_path: Option<std::path::PathBuf>,
    bb_flush_every: Duration,
    bb_last_flush: Option<Instant>,
    /// `recorded` watermark of the last persisted dump (skip clean
    /// flushes).
    bb_flushed: Option<u64>,
    registry: obs::Registry,
    c_bytes_tx: obs::Counter,
    c_bytes_rx: obs::Counter,
    c_frames_tx: obs::Counter,
    c_frames_rx: obs::Counter,
    c_polls: obs::Counter,
    c_eager_tx: obs::Counter,
    c_rndv_tx: obs::Counter,
    c_rndv_at_wait: obs::Counter,
    c_rndv_async: obs::Counter,
    c_peer_lost: obs::Counter,
    c_stalls: obs::Counter,
    /// Malformed-but-framed protocol events: stray/duplicate/wrong-source
    /// CTS, DATA nobody awaits or with a length its RTS never announced,
    /// stats-plane frames on the mesh, a peer vanishing mid-handshake.
    /// Each one is counted and absorbed — never a panic.
    c_protocol_errors: obs::Counter,
    /// Sends issued in the reserved collective tag space (NBC rounds).
    c_coll_tx: obs::Counter,
}

impl WireComm<SocketFabric> {
    /// Test-only convenience; production worlds go through
    /// [`crate::bootstrap`], which builds the fabric itself so it can
    /// attach negotiated shm links first.
    #[cfg(test)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        streams: Vec<Option<crate::fabric::Stream>>,
        cfg: WireConfig,
    ) -> Self {
        assert_eq!(streams.len(), size);
        Self::from_fabric(rank, size, SocketFabric::new(streams), cfg)
    }
}

impl<F: FrameFabric> WireComm<F> {
    /// Build an engine over an arbitrary fabric (the model checker's
    /// entry point; socket worlds come from [`crate::bootstrap`]).
    pub fn from_fabric(rank: usize, size: usize, mut fabric: F, cfg: WireConfig) -> Self {
        assert_eq!(fabric.size(), size);
        assert!(rank < size);
        let registry = obs::Registry::default();
        fabric.register_obs(&registry);
        let c = |n: &str| registry.counter(n);
        WireComm {
            rank,
            size,
            fabric,
            marks: (0..size).map(|_| VecDeque::new()).collect(),
            reaped: vec![false; size],
            ready: Vec::new(),
            frames_scratch: Vec::new(),
            mailbox: MatchQueue::new(),
            pending: HashMap::new(),
            await_data: HashMap::new(),
            sent_rndv: HashMap::new(),
            next_req: 0,
            next_xid: 0,
            cfg,
            in_wait: false,
            relay: None,
            watchdog: None,
            flow: None,
            bb: obs::BlackBox::default(),
            bb_path: None,
            bb_flush_every: Duration::from_millis(100),
            bb_last_flush: None,
            bb_flushed: None,
            c_bytes_tx: c("wire.bytes_tx"),
            c_bytes_rx: c("wire.bytes_rx"),
            c_frames_tx: c("wire.frames_tx"),
            c_frames_rx: c("wire.frames_rx"),
            c_polls: c("wire.progress_polls"),
            c_eager_tx: c("wire.eager_tx"),
            c_rndv_tx: c("wire.rndv_tx"),
            c_rndv_at_wait: c("wire.rndv_handshake_at_wait"),
            c_rndv_async: c("wire.rndv_handshake_async"),
            c_peer_lost: c("wire.peer_lost"),
            c_stalls: c("wire.stalls"),
            c_protocol_errors: c("wire.protocol_errors"),
            c_coll_tx: c("wire.coll_tx"),
            registry,
        }
    }

    /// Arm the progress-stall watchdog: if no advancement happens for
    /// `window` while operations are pending, emit one `Stall` frame up
    /// the stats uplink (and a stderr line) per episode and bump
    /// `wire.stalls`.
    pub fn set_stall_window(&mut self, window: Duration) {
        self.watchdog = Some(Watchdog {
            window,
            last_advance: Instant::now(),
            tripped: false,
        });
    }

    /// Attach this rank's stats uplink (see the `relay` field).
    pub fn set_relay(&mut self, node: crate::relay::RelayNode) {
        self.relay = Some(Box::new(node));
    }

    /// Persist the flight recorder to `path` (tmp + rename, so the
    /// launcher never reads a torn dump) every `flush_every` while
    /// running, plus on stall, peer loss and teardown — which is how a
    /// SIGKILLed rank still leaves its last events for the postmortem.
    pub fn set_blackbox_path(&mut self, path: std::path::PathBuf, flush_every: Duration) {
        self.bb_path = Some(path);
        self.bb_flush_every = flush_every;
    }

    /// This rank's flight recorder (shared handle — e.g. for a panic
    /// hook's final dump).
    pub fn blackbox(&self) -> &obs::BlackBox {
        &self.bb
    }

    /// Attach a trace track for cross-rank rendezvous flow events:
    /// RTS-send starts a flow, CTS-send steps it, DATA-recv finishes it.
    /// Give every rank's engine a track on the same recorder pid layout
    /// and `merge_traces` output draws each handshake as one arrow.
    pub fn set_flow_track(&mut self, track: obs::Track) {
        self.flow = Some(track);
    }

    /// Per-poll observability upkeep: the periodic stats emission, the
    /// stall watchdog, and black-box persistence. Only called when at
    /// least one of them is configured, so unconfigured engines never
    /// touch the clock — this is what keeps model-checked runs
    /// deterministic.
    fn observability_tick(&mut self, advanced: bool) {
        let now = Instant::now();
        if let Some(relay) = self.relay.as_mut() {
            // The node reads its children inside `emit`, nowhere else:
            // between emissions a pass costs the plane one clock read.
            if relay.due(now) {
                relay.emit(&self.registry.snapshot());
                self.bb
                    .record(crate::stats::bbcode::RELAY_TX, self.rank as u32, 0, 0, 0);
            }
        }
        let mut stall: Option<(u32, u32)> = None;
        if let Some(wd) = self.watchdog.as_mut() {
            let pending = self
                .pending
                .values()
                .filter(|p| !matches!(p, Pending::Done(_)))
                .count();
            if advanced || pending == 0 {
                wd.last_advance = now;
                wd.tripped = false;
            } else if !wd.tripped && now.duration_since(wd.last_advance) >= wd.window {
                wd.tripped = true;
                let ms = now
                    .duration_since(wd.last_advance)
                    .as_millis()
                    .min(u32::MAX as u128) as u32;
                stall = Some((ms, pending.min(u32::MAX as usize) as u32));
            }
        }
        if let Some((ms, pending)) = stall {
            self.c_stalls.inc();
            eprintln!(
                "wire: rank {} progress stalled for {}ms with {} pending operation(s)",
                self.rank, ms, pending
            );
            self.bb
                .record(crate::stats::bbcode::STALL, pending, 0, 0, ms as u64);
            if let Some(relay) = self.relay.as_mut() {
                relay.send_stall(ms, pending, &self.registry.snapshot().to_bytes());
            }
            // A stall is a dump trigger: the evidence must survive even
            // if the operator SIGKILLs the wedged job next.
            self.flush_blackbox();
        }
        if self.bb_path.is_some() {
            let flush_due = !matches!(self.bb_last_flush,
                Some(t) if now.duration_since(t) < self.bb_flush_every);
            if flush_due {
                self.bb_last_flush = Some(now);
                self.flush_blackbox();
            }
        }
    }

    /// Persist the flight recorder to its postmortem file. Atomic
    /// (write-then-rename) so a launcher reading after a SIGKILL sees
    /// either the previous complete dump or the new one, never a torn
    /// prefix. Skips when nothing was recorded since the last flush; a
    /// failed write disables persistence rather than spamming the run.
    fn flush_blackbox(&mut self) {
        let Some(path) = self.bb_path.clone() else {
            return;
        };
        let dump = self.bb.dump();
        if self.bb_flushed == Some(dump.recorded) {
            return;
        }
        self.bb_flushed = Some(dump.recorded);
        let tmp = path.with_extension("obb.tmp");
        let ok = std::fs::write(&tmp, dump.to_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok();
        if !ok {
            self.bb_path = None;
        }
    }

    /// The eager/rendezvous crossover currently in effect.
    pub fn eager_max(&self) -> usize {
        self.cfg.eager_max
    }

    fn alloc_req(&mut self, state: Pending) -> WireReq {
        let id = self.next_req;
        self.next_req += 1;
        self.pending.insert(id, state);
        WireReq(id)
    }

    /// Complete a request id, tolerating ids that were cancelled.
    fn finish(&mut self, id: u64, outcome: Result<OpOutcome, TransportError>) {
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.pending.entry(id) {
            *e.get_mut() = Pending::Done(outcome);
        }
    }

    /// Count a rendezvous handshake serviced now (the receiver answering
    /// an RTS with a CTS), attributed to whether the owner was inside an
    /// application-initiated MPI call (wait or post) at the time, versus
    /// an asynchronous progress actor — the paper's headline distinction.
    fn count_handshake(&self) {
        if self.in_wait {
            self.c_rndv_at_wait.inc();
        } else {
            self.c_rndv_async.inc();
        }
    }

    /// Match an RTS arrival to receive request `id`: queue the CTS and
    /// park the request until the DATA frame.
    fn accept_rts(&mut self, id: u64, src: usize, tag: Tag, xid: u32, len: usize) {
        if !self.fabric.alive(src) {
            self.finish(id, Err(TransportError::PeerLost { peer: src }));
            return;
        }
        let cts = Header {
            kind: FrameKind::Cts,
            src: self.rank as u32,
            tag,
            xid,
            len: len as u64,
        };
        self.fabric.queue(src, &cts, &[]);
        self.c_frames_tx.inc();
        self.bb.record(
            crate::stats::bbcode::TX_CTS,
            src as u32,
            tag,
            xid,
            len as u64,
        );
        self.pending.insert(id, Pending::AwaitData);
        self.await_data.insert((src, xid), (id, len as u64));
        self.count_handshake();
        if let Some(t) = &self.flow {
            t.flow_step("rndv", flow_id(src, xid));
        }
    }

    /// Deliver one parsed inbound frame from `src`. Everything in here is
    /// peer-controlled input: malformed protocol events are counted in
    /// `wire.protocol_errors` and absorbed, never panicked on.
    fn deliver(&mut self, src: usize, hdr: Header, body: Arc<[u8]>) {
        self.c_frames_rx.inc();
        self.bb.record(
            crate::stats::bbcode::rx_code(hdr.kind),
            src as u32,
            hdr.tag,
            hdr.xid,
            hdr.len,
        );
        match hdr.kind {
            FrameKind::Hello => {} // bootstrap leftover; ignore
            FrameKind::Eager => match self.mailbox.take_posted(src, hdr.tag) {
                Some(p) => {
                    let st = Status {
                        source: src,
                        tag: hdr.tag,
                        len: body.len(),
                    };
                    self.finish(p.token, Ok(OpOutcome::Received(st, body)));
                }
                None => self
                    .mailbox
                    .push_unexpected(src, hdr.tag, Arrival::Eager(body)),
            },
            FrameKind::Rts => {
                let len = hdr.len as usize;
                match self.mailbox.take_posted(src, hdr.tag) {
                    Some(p) => self.accept_rts(p.token, src, hdr.tag, hdr.xid, len),
                    None => self.mailbox.push_unexpected(
                        src,
                        hdr.tag,
                        Arrival::Rts { len, xid: hdr.xid },
                    ),
                }
            }
            FrameKind::Cts => {
                let Some(&id) = self.sent_rndv.get(&hdr.xid) else {
                    // Stray CTS: no rendezvous send owns this xid (never
                    // issued, already answered, or reaped at peer death).
                    // Seeded regression (check::proto rediscovers it): the
                    // pre-PR7 engine panicked here.
                    #[cfg(feature = "model-faults")]
                    crate::faults::maybe_stray_cts_panic(hdr.xid);
                    self.c_protocol_errors.inc();
                    return;
                };
                match self.pending.get(&id) {
                    Some(Pending::RndvAwaitCts { dst, data }) if *dst == src => {
                        let (dst, data) = (*dst, data.clone());
                        self.sent_rndv.remove(&hdr.xid);
                        let frame = Header {
                            kind: FrameKind::Data,
                            src: self.rank as u32,
                            tag: hdr.tag,
                            xid: hdr.xid,
                            len: data.len() as u64,
                        };
                        if self.fabric.alive(dst) {
                            let mark = self.fabric.queue_shared(dst, &frame, &data);
                            self.marks[dst].push_back((mark, id));
                            self.c_frames_tx.inc();
                            self.bb.record(
                                crate::stats::bbcode::TX_DATA,
                                dst as u32,
                                hdr.tag,
                                hdr.xid,
                                frame.len,
                            );
                            self.pending.insert(id, Pending::RndvSendData);
                        } else {
                            // The destination vanished between RTS and
                            // CTS: fail the owning op, don't panic.
                            self.c_protocol_errors.inc();
                            self.finish(id, Err(TransportError::PeerLost { peer: dst }));
                        }
                    }
                    // CTS arriving on the wrong peer's socket: keep the
                    // xid mapping so the genuine answer still completes.
                    Some(_) => self.c_protocol_errors.inc(),
                    // Owner was cancelled; the CTS itself is legitimate —
                    // retire the dangling mapping quietly.
                    None => {
                        self.sent_rndv.remove(&hdr.xid);
                    }
                }
            }
            FrameKind::Data => {
                match self.await_data.remove(&(src, hdr.xid)) {
                    Some((id, expected_len)) => {
                        // A DATA body shorter or longer than its RTS
                        // announced is a protocol violation (truncation,
                        // forgery): counted, then delivered with the
                        // actual length so the operation still resolves.
                        if body.len() as u64 != expected_len {
                            self.c_protocol_errors.inc();
                        }
                        if let Some(t) = &self.flow {
                            t.flow_finish("rndv", flow_id(src, hdr.xid));
                        }
                        let st = Status {
                            source: src,
                            tag: hdr.tag,
                            len: body.len(),
                        };
                        self.finish(id, Ok(OpOutcome::Received(st, body)));
                    }
                    // DATA nobody awaits: duplicate, forged, or the
                    // receive side already gave up on this exchange.
                    None => self.c_protocol_errors.inc(),
                }
            }
            // Stats-plane frames ride the stats and relay sockets, never
            // the mesh; a peer sending one here is misbehaving — counted
            // and dropped.
            FrameKind::Stall | FrameKind::Relay => self.c_protocol_errors.inc(),
            // A doorbell is a benign nudge: its arrival already did its
            // job (the socket read woke this poll).
            FrameKind::Doorbell => {}
            // Shm frames belong to the blocking bootstrap handshake; one
            // surfacing post-bootstrap is a misbehaving peer.
            FrameKind::Shm => self.c_protocol_errors.inc(),
        }
    }

    /// Flush peer `p`'s outbox as far as the fabric accepts; returns true
    /// if bytes moved. Completes flush-marked sends.
    fn flush_peer(&mut self, p: usize) -> bool {
        if !self.fabric.alive(p) {
            return false;
        }
        let res = self.fabric.flush(p);
        self.c_bytes_tx.add(res.bytes);
        let mut moved = res.moved;
        // Retire sends whose bytes are fully on the wire.
        let flushed = self.fabric.flushed(p);
        while let Some(&(mark, id)) = self.marks[p].front() {
            if mark <= flushed {
                self.marks[p].pop_front();
                self.finish(id, Ok(OpOutcome::Sent));
                moved = true;
            } else {
                break;
            }
        }
        if res.died {
            self.peer_dead(p);
        }
        moved
    }

    /// Read peer `p`'s link once and deliver the frames that completes;
    /// returns true if bytes moved.
    fn read_peer(&mut self, p: usize) -> bool {
        if !self.fabric.alive(p) {
            return false;
        }
        let mut frames = std::mem::take(&mut self.frames_scratch);
        // The one announced length the fabric may allocate up front: a
        // DATA frame this engine answered a CTS for, at the RTS's length.
        let await_data = &self.await_data;
        let granted = |h: &Header| {
            h.kind == FrameKind::Data
                && await_data
                    .get(&(p, h.xid))
                    .is_some_and(|&(_, len)| len == h.len)
        };
        let res = self.fabric.recv(p, &granted, &mut frames);
        self.c_bytes_rx.add(res.bytes);
        let mut moved = res.moved;
        for (hdr, body) in frames.drain(..) {
            self.deliver(p, hdr, body);
            moved = true;
        }
        self.frames_scratch = frames;
        if res.died {
            self.peer_dead(p);
        }
        moved
    }

    /// Fail every operation that still depends on rank `p`.
    fn peer_dead(&mut self, p: usize) {
        if self.reaped[p] {
            return;
        }
        self.reaped[p] = true;
        self.c_peer_lost.inc();
        self.bb
            .record(crate::stats::bbcode::PEER_LOST, p as u32, 0, 0, 0);
        let lost = || Err(TransportError::PeerLost { peer: p });
        // Sends whose bytes can no longer be flushed or acknowledged.
        let marks: Vec<u64> = self.marks[p].drain(..).map(|(_, id)| id).collect();
        for id in marks {
            self.finish(id, lost());
        }
        let stuck_rndv: Vec<u64> = self
            .sent_rndv
            .iter()
            .filter(|(_, id)| matches!(self.pending.get(id), Some(Pending::RndvAwaitCts { dst, .. }) if *dst == p))
            .map(|(_, id)| *id)
            .collect();
        self.sent_rndv.retain(|_, id| !stuck_rndv.contains(id));
        for id in stuck_rndv {
            self.finish(id, lost());
        }
        // Receives awaiting DATA from the dead peer.
        let stuck_data: Vec<u64> = self
            .await_data
            .iter()
            .filter(|((src, _), _)| *src == p)
            .map(|(_, (id, _))| *id)
            .collect();
        self.await_data.retain(|(src, _), _| *src != p);
        for id in stuck_data {
            self.finish(id, lost());
        }
        // Posted receives naming the dead peer exactly (wildcards stay).
        for posted in self.mailbox.take_posted_from(p) {
            self.finish(posted.token, lost());
        }
        // Buffered RTS descriptors whose DATA will never come; delivered
        // eager payloads stay consumable.
        self.mailbox
            .retain_unexpected(|u| u.src != p || matches!(u.msg, Arrival::Eager(_)));
        // Peer loss is a dump trigger: persist the timeline that led here.
        self.flush_blackbox();
    }

    /// This transport's protocol counters.
    pub fn obs(&self) -> &obs::Registry {
        &self.registry
    }
}

impl<F: FrameFabric> Drop for WireComm<F> {
    fn drop(&mut self) {
        // Final snapshot: progress() stops before the last work's counters
        // hit a periodic tick, so ship the complete totals on teardown.
        // (`emit` takes the children in first, so those that already
        // shipped their final totals are folded into this goodbye frame.)
        if let Some(relay) = self.relay.as_mut() {
            relay.emit(&self.registry.snapshot());
        }
        self.flush_blackbox();
    }
}

impl<F: FrameFabric> Transport for WireComm<F> {
    type Req = WireReq;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, dst: usize, tag: Tag, data: Arc<[u8]>) -> WireReq {
        assert!(dst < self.size, "destination rank out of range");
        if tag >= rtmpi::TAG_RESERVED_BASE {
            self.c_coll_tx.inc();
        }
        if dst == self.rank {
            // Self-send: deliver through the local mailbox.
            match self.mailbox.take_posted(dst, tag) {
                Some(p) => {
                    let st = Status {
                        source: dst,
                        tag,
                        len: data.len(),
                    };
                    self.finish(p.token, Ok(OpOutcome::Received(st, data)));
                }
                None => self.mailbox.push_unexpected(dst, tag, Arrival::Eager(data)),
            }
            return self.alloc_req(Pending::Done(Ok(OpOutcome::Sent)));
        }
        if !self.fabric.alive(dst) {
            return self.alloc_req(Pending::Done(Err(TransportError::PeerLost { peer: dst })));
        }
        let hdr_src = self.rank as u32;
        if data.len() <= self.cfg.eager_max {
            let frame = Header {
                kind: FrameKind::Eager,
                src: hdr_src,
                tag,
                xid: 0,
                len: data.len() as u64,
            };
            // `queue_shared`: the fabric retains the Arc — no staging
            // copy, which is what keeps `wire.eager_alloc` at zero.
            let mark = self.fabric.queue_shared(dst, &frame, &data);
            self.c_frames_tx.inc();
            self.c_eager_tx.inc();
            self.bb.record(
                crate::stats::bbcode::TX_EAGER,
                dst as u32,
                tag,
                0,
                data.len() as u64,
            );
            let req = self.alloc_req(Pending::EagerSend);
            self.marks[dst].push_back((mark, req.0));
            req
        } else {
            let xid = self.next_xid;
            self.next_xid = self.next_xid.wrapping_add(1);
            let frame = Header {
                kind: FrameKind::Rts,
                src: hdr_src,
                tag,
                xid,
                len: data.len() as u64,
            };
            self.fabric.queue(dst, &frame, &[]);
            self.c_frames_tx.inc();
            self.c_rndv_tx.inc();
            self.bb.record(
                crate::stats::bbcode::TX_RTS,
                dst as u32,
                tag,
                xid,
                data.len() as u64,
            );
            if let Some(t) = &self.flow {
                t.flow_start("rndv", flow_id(self.rank, xid));
            }
            let req = self.alloc_req(Pending::RndvAwaitCts { dst, data });
            self.sent_rndv.insert(xid, req.0);
            req
        }
    }

    fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> WireReq {
        if let Some(u) = self.mailbox.take_unexpected(src, tag) {
            return match u.msg {
                Arrival::Eager(data) => {
                    let st = Status {
                        source: u.src,
                        tag: u.tag,
                        len: data.len(),
                    };
                    self.alloc_req(Pending::Done(Ok(OpOutcome::Received(st, data))))
                }
                Arrival::Rts { len, xid } => {
                    let req = self.alloc_req(Pending::PostedRecv);
                    let WireReq(id) = req;
                    self.accept_rts(id, u.src, u.tag, xid, len);
                    req
                }
            };
        }
        // Exact-source receive from a peer already known dead: fail fast
        // instead of waiting out the timeout.
        if let Some(s) = src {
            if s != self.rank && !self.fabric.alive(s) {
                return self.alloc_req(Pending::Done(Err(TransportError::PeerLost { peer: s })));
            }
        }
        let req = self.alloc_req(Pending::PostedRecv);
        let WireReq(id) = req;
        self.mailbox.push_posted(src, tag, id);
        req
    }

    fn progress(&mut self) -> bool {
        self.c_polls.inc();
        let mut advanced = false;
        // One readiness question for the whole pass, whatever the peer
        // count; then only links with something to do are touched.
        let mut ready = std::mem::take(&mut self.ready);
        self.fabric.sweep(&mut ready);
        for (p, &readable) in ready.iter().enumerate() {
            if p == self.rank {
                continue;
            }
            // Flush a non-empty outbox (or retire marks a fabric flushed at
            // queue time), read and deliver if the sweep said so, then
            // flush again only if delivery queued protocol responses (CTS,
            // DATA) — they leave in the same pass.
            let queued = self.fabric.queued(p);
            if queued != self.fabric.flushed(p) || !self.marks[p].is_empty() {
                advanced |= self.flush_peer(p);
            }
            if readable {
                advanced |= self.read_peer(p);
                if self.fabric.queued(p) != queued {
                    advanced |= self.flush_peer(p);
                }
            }
        }
        self.ready = ready;
        if self.watchdog.is_some() || self.relay.is_some() || self.bb_path.is_some() {
            self.observability_tick(advanced);
        }
        advanced
    }

    fn is_done(&mut self, req: &WireReq) -> bool {
        matches!(self.pending.get(&req.0), Some(Pending::Done(_)))
    }

    fn try_take(&mut self, req: &WireReq) -> Option<Result<OpOutcome, TransportError>> {
        match self.pending.get(&req.0) {
            Some(Pending::Done(_)) => match self.pending.remove(&req.0) {
                Some(Pending::Done(out)) => Some(out),
                _ => unreachable!("checked Done above"),
            },
            _ => None,
        }
    }

    fn cancel(&mut self, req: &WireReq) {
        // Drop the request state; matching entries in the mailbox or the
        // rendezvous maps become dangling ids that `finish` ignores.
        self.pending.remove(&req.0);
    }

    fn needs_progress(&self) -> bool {
        true
    }

    fn op_timeout(&self) -> Option<Duration> {
        Some(self.cfg.timeout)
    }

    fn set_in_wait(&mut self, in_wait: bool) {
        self.in_wait = in_wait;
    }

    fn iprobe(&mut self, src: Option<usize>, tag: Option<Tag>) -> Option<Status> {
        self.mailbox.probe(src, tag).map(|(s, t, m)| Status {
            source: s,
            tag: t,
            len: match m {
                Arrival::Eager(d) => d.len(),
                Arrival::Rts { len, .. } => *len,
            },
        })
    }

    fn obs_registry(&self) -> Option<obs::Registry> {
        Some(self.registry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::loopback_configured;
    use crate::fabric::Stream;
    use crate::proto::HEADER_LEN;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    fn two(cfg: WireConfig) -> (WireComm, WireComm) {
        let mut v = loopback_configured(2, cfg).into_iter();
        let a = v.next().expect("rank 0");
        let b = v.next().expect("rank 1");
        (a, b)
    }

    /// Drive both ends until `f` yields, or panic after a bounded number
    /// of polls (single-threaded determinism, no clock).
    fn pump<T>(
        a: &mut WireComm,
        b: &mut WireComm,
        mut f: impl FnMut(&mut WireComm, &mut WireComm) -> Option<T>,
    ) -> T {
        for _ in 0..10_000 {
            a.progress();
            b.progress();
            if let Some(out) = f(a, b) {
                return out;
            }
        }
        panic!("wire state machine did not converge");
    }

    #[test]
    fn eager_roundtrip() {
        let (mut a, mut b) = two(WireConfig::default());
        let s = a.isend(1, 7, Arc::from(vec![1u8, 2, 3]));
        let r = b.irecv(Some(0), Some(7));
        let (st, data) = pump(&mut a, &mut b, |a, b| {
            let _ = a.try_take(&s);
            match b.try_take(&r) {
                Some(Ok(OpOutcome::Received(st, d))) => Some((st, d)),
                Some(other) => panic!("unexpected outcome {other:?}"),
                None => None,
            }
        });
        assert_eq!(st.source, 0);
        assert_eq!(st.tag, 7);
        assert_eq!(st.len, 3);
        assert_eq!(&data[..], &[1, 2, 3]);
    }

    #[test]
    fn rendezvous_roundtrip_above_crossover() {
        let cfg = WireConfig {
            eager_max: 64,
            ..WireConfig::default()
        };
        let (mut a, mut b) = two(cfg);
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let s = a.isend(1, 9, Arc::from(payload.clone()));
        let r = b.irecv(None, None);
        let sent = std::cell::Cell::new(false);
        let (st, data) = pump(&mut a, &mut b, |a, b| {
            if let Some(out) = a.try_take(&s) {
                assert!(matches!(out, Ok(OpOutcome::Sent)), "send outcome {out:?}");
                sent.set(true);
            }
            match b.try_take(&r) {
                Some(Ok(OpOutcome::Received(st, d))) => Some((st, d)),
                Some(other) => panic!("unexpected outcome {other:?}"),
                None => None,
            }
        });
        assert_eq!(st.len, payload.len());
        assert_eq!(&data[..], &payload[..]);
        assert!(sent.get(), "rendezvous send completed");
        // The protocol actually took the rendezvous path.
        #[cfg(feature = "obs-enabled")]
        {
            assert_eq!(a.obs().snapshot().counter("wire.rndv_tx"), 1);
            let b_snap = b.obs().snapshot();
            assert_eq!(
                b_snap.counter("wire.rndv_handshake_at_wait")
                    + b_snap.counter("wire.rndv_handshake_async"),
                1
            );
        }
    }

    #[test]
    fn rendezvous_stalls_until_receiver_polls() {
        // The defining behaviour: the sender's RTS gets no CTS while the
        // receiver never calls progress, so the send cannot complete even
        // though the sender polls furiously.
        let cfg = WireConfig {
            eager_max: 8,
            ..WireConfig::default()
        };
        let (mut a, mut b) = two(cfg);
        let s = a.isend(1, 1, Arc::from(vec![0u8; 4096]));
        let _r = b.irecv(Some(0), Some(1));
        for _ in 0..1000 {
            a.progress(); // sender alone cannot finish a rendezvous
        }
        assert!(a.try_take(&s).is_none(), "no CTS without receiver progress");
        // One receiver poll answers the RTS; the handshake then completes.
        let done = pump(&mut a, &mut b, |a, _| a.try_take(&s));
        assert!(matches!(done, Ok(OpOutcome::Sent)));
    }

    #[test]
    fn unexpected_eager_is_buffered_and_probed() {
        let (mut a, mut b) = two(WireConfig::default());
        let _s = a.isend(1, 3, Arc::from(vec![5u8; 10]));
        pump(&mut a, &mut b, |_, b| {
            b.iprobe(Some(0), Some(3)).map(|_| ())
        });
        let st = b.iprobe(None, None).expect("probe sees buffered arrival");
        assert_eq!((st.source, st.tag, st.len), (0, 3, 10));
        let r = b.irecv(Some(0), Some(3));
        let out = b.try_take(&r).expect("already buffered");
        assert!(matches!(out, Ok(OpOutcome::Received(st, _)) if st.len == 10));
    }

    #[test]
    fn fifo_order_per_source_tag_across_crossover() {
        // Eager and rendezvous messages on the same (src, tag) stream must
        // still match in send order (they share one socket, so the RTS
        // arrives in-stream even though its DATA comes later).
        let cfg = WireConfig {
            eager_max: 16,
            ..WireConfig::default()
        };
        let (mut a, mut b) = two(cfg);
        let sends = [
            a.isend(1, 4, Arc::from(vec![1u8; 4])),    // eager
            a.isend(1, 4, Arc::from(vec![2u8; 1024])), // rendezvous
            a.isend(1, 4, Arc::from(vec![3u8; 4])),    // eager
        ];
        let mut got = Vec::new();
        for _ in 0..3 {
            let r = b.irecv(Some(0), Some(4));
            let (st, d) = pump(&mut a, &mut b, |a, b| {
                for s in &sends {
                    let _ = a.try_take(s);
                }
                match b.try_take(&r) {
                    Some(Ok(OpOutcome::Received(st, d))) => Some((st, d)),
                    Some(other) => panic!("unexpected outcome {other:?}"),
                    None => None,
                }
            });
            got.push((d[0], st.len));
        }
        assert_eq!(got, vec![(1, 4), (2, 1024), (3, 4)]);
    }

    #[test]
    fn wildcard_matching_over_wire() {
        let mut world = loopback_configured(3, WireConfig::default());
        let (mut c, rest) = {
            let c = world.remove(2);
            (c, world)
        };
        let mut world = rest.into_iter();
        let mut a = world.next().expect("rank 0");
        let mut b = world.next().expect("rank 1");
        let _ = a.isend(2, 11, Arc::from(vec![0u8]));
        let _ = b.isend(2, 12, Arc::from(vec![1u8]));
        let r1 = c.irecv(None, None);
        let r2 = c.irecv(None, None);
        let mut srcs = Vec::new();
        for _ in 0..10_000 {
            a.progress();
            b.progress();
            c.progress();
            for r in [&r1, &r2] {
                if let Some(Ok(OpOutcome::Received(st, _))) = c.try_take(r) {
                    srcs.push(st.source);
                }
            }
            if srcs.len() == 2 {
                break;
            }
        }
        srcs.sort_unstable();
        assert_eq!(srcs, vec![0, 1]);
    }

    /// Read whole stats-plane frames off the test end of the stats pair.
    fn drain_stats(rx: &mut UnixStream) -> Vec<(Header, Vec<u8>)> {
        rx.set_nonblocking(true).expect("nonblocking");
        let mut bytes = Vec::new();
        let mut scratch = [0u8; 4096];
        loop {
            match rx.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => bytes.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("stats read failed: {e}"),
            }
        }
        let mut frames = Vec::new();
        let mut off = 0;
        while bytes.len() - off >= HEADER_LEN {
            let hdr = Header::decode_slice(&bytes[off..]).expect("stats frame decodes");
            let body_len = hdr.body_len();
            assert!(bytes.len() - off >= HEADER_LEN + body_len, "whole frame");
            frames.push((
                hdr,
                bytes[off + HEADER_LEN..off + HEADER_LEN + body_len].to_vec(),
            ));
            off += HEADER_LEN + body_len;
        }
        assert_eq!(off, bytes.len(), "no trailing partial frame");
        frames
    }

    /// Give `comm` a flat stats uplink — a leaf whose parent is the test's
    /// end of a socketpair, standing in for the collector.
    fn attach_uplink<F: FrameFabric>(comm: &mut WireComm<F>, interval: Duration) -> UnixStream {
        let (tx, rx) = UnixStream::pair().expect("stats pair");
        let node = crate::relay::RelayNode::over(comm.rank, 0, tx, interval, comm.obs())
            .expect("flat node over the pair");
        comm.set_relay(node);
        rx
    }

    /// The star link's contract, now the flat node's: the same three
    /// frames — initial, periodic, final — as `Relay` with coverage 1.
    #[test]
    fn flat_uplink_ships_initial_periodic_and_final_snapshots() {
        let (mut a, b) = two(WireConfig::default());
        let mut rx = attach_uplink(&mut a, Duration::from_millis(5));
        a.progress(); // initial frame, no interval wait
        let frames = drain_stats(&mut rx);
        assert_eq!(frames.len(), 1, "first poll emits immediately");
        let leaf = |h: &Header| (h.kind, h.src, h.tag, h.xid) == (FrameKind::Relay, 0, 1, 1);
        assert!(leaf(&frames[0].0), "a leaf's frame: {:?}", frames[0].0);
        let snap = obs::Snapshot::from_bytes(&frames[0].1).expect("snapshot parses");
        #[cfg(feature = "obs-enabled")]
        assert!(snap.counter("wire.progress_polls") >= 1);
        #[cfg(not(feature = "obs-enabled"))]
        assert!(snap.is_empty());
        // Periodic: another frame after the interval elapses.
        std::thread::sleep(Duration::from_millis(10));
        a.progress();
        assert_eq!(
            drain_stats(&mut rx).len(),
            1,
            "periodic frame after interval"
        );
        // Back-to-back polls inside the interval stay quiet.
        a.progress();
        a.progress();
        assert!(drain_stats(&mut rx).is_empty(), "quiet inside the interval");
        // Teardown ships the final totals.
        drop(a);
        drop(b);
        let last = drain_stats(&mut rx);
        assert_eq!(last.len(), 1, "drop emits a final snapshot");
        assert!(leaf(&last[0].0));
    }

    /// An interior relay node reads its children when an emission is due
    /// and at no other time: a child's frame sits in its socket through
    /// any number of progress passes — none of which makes a syscall for
    /// the plane — and is folded by the next emission (here the final
    /// one; the interval is an hour).
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn progress_between_emissions_touches_no_child_socket() {
        let dir = std::env::temp_dir().join(format!("wire-quiet-relay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let collector_path = dir.join("stats.sock");
        let collector = std::os::unix::net::UnixListener::bind(&collector_path).expect("bind");
        let (mut a, _b) = two(WireConfig::default());
        let opts = crate::relay::RelayOpts {
            rank: 0,
            size: 2,
            arity: Some(8),
            dir: dir.clone(),
            stats_sock: collector_path,
            interval: Duration::from_secs(3600),
        };
        a.set_relay(crate::relay::RelayNode::connect(&opts, a.obs()).expect("root connects"));
        let (mut up, _) = collector.accept().expect("root dialed the collector");
        a.progress(); // initial emission: nobody below yet
        let first = drain_stats(&mut up);
        assert_eq!((first.len(), first[0].0.tag), (1, 1), "covers itself only");
        // Rank 1 dials in and ships a leaf's frame.
        let mut child = UnixStream::connect(dir.join(crate::relay::sock_name(0))).expect("dial");
        let body = {
            let r = obs::Registry::default();
            r.counter("work.items").add(41);
            r.snapshot().to_bytes()
        };
        let hdr = Header {
            kind: FrameKind::Relay,
            src: 1,
            tag: 1,
            xid: 1,
            len: body.len() as u64,
        };
        child.write_all(&hdr.encode()).expect("header");
        child.write_all(&body).expect("body");
        let syscalls = |c: &WireComm| {
            let s = c.obs().snapshot();
            s.counter("wire.sys.read") + s.counter("wire.sys.write")
        };
        let before = syscalls(&a);
        for _ in 0..1000 {
            a.progress();
        }
        assert_eq!(
            syscalls(&a),
            before,
            "no read, accept or write in 1000 passes"
        );
        assert!(drain_stats(&mut up).is_empty());
        drop(a);
        let last = drain_stats(&mut up);
        assert_eq!(last.len(), 1, "the final emission");
        assert_eq!((last[0].0.tag, last[0].0.xid), (2, 2), "the child is in it");
        let merged = obs::Snapshot::from_bytes(&last[0].1).expect("parses");
        assert_eq!(merged.counter("work.items"), 41);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A parent that has stopped reading — a Baseline rank deep in a
    /// compute phase — must not stall its children's data path: with the
    /// uplink long full, every `progress()` still returns and the p2p
    /// traffic completes.
    #[test]
    fn an_undrained_uplink_never_blocks_the_data_path() {
        let (mut a, mut b) = two(WireConfig::default());
        // Emit on every pass; nobody ever reads `_parent`.
        let _parent = attach_uplink(&mut a, Duration::ZERO);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            // ~1 KiB a snapshot, 3 000 echoes: several times the socket
            // buffer's worth of emissions.
            for round in 0..3000u32 {
                let s = a.isend(1, round, Arc::from(vec![round as u8; 64]));
                let r = b.irecv(Some(0), Some(round));
                pump(&mut a, &mut b, |a, b| {
                    let _ = a.try_take(&s);
                    b.try_take(&r)
                })
                .expect("echo completes");
            }
            let dropped = a.obs().snapshot().counter("obs.relay_dropped");
            let _ = done_tx.send(dropped);
        });
        let dropped = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a progress() call blocked on the stats uplink");
        worker.join().expect("worker");
        #[cfg(feature = "obs-enabled")]
        assert!(
            dropped > 0,
            "the uplink did fill: skipped emissions counted"
        );
        let _ = dropped;
    }

    #[test]
    fn watchdog_trips_once_per_stall_episode_with_evidence() {
        let cfg = WireConfig {
            eager_max: 8,
            ..WireConfig::default()
        };
        let (mut a, mut b) = two(cfg);
        let mut rx = attach_uplink(&mut a, Duration::from_secs(3600)); // periodic: quiet
        a.set_stall_window(Duration::from_millis(20));
        let _ = drain_stats(&mut rx); // swallow the initial frame
        a.progress();
        let _ = drain_stats(&mut rx);
        // A receive that cannot advance: the peer never sends.
        let r = a.irecv(Some(1), Some(7));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let stall = loop {
            a.progress();
            let frames = drain_stats(&mut rx);
            if let Some(f) = frames.iter().find(|(h, _)| h.kind == FrameKind::Stall) {
                break f.clone();
            }
            assert!(std::time::Instant::now() < deadline, "watchdog fired");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(
            stall.0.xid >= 20,
            "stalled at least the window: {}",
            stall.0.xid
        );
        assert_eq!(stall.0.tag, 1, "one pending operation");
        obs::Snapshot::from_bytes(&stall.1).expect("stall carries the snapshot");
        // One report per episode: more stuck polls add no frames.
        for _ in 0..50 {
            a.progress();
        }
        assert!(
            drain_stats(&mut rx)
                .iter()
                .all(|(h, _)| h.kind != FrameKind::Stall),
            "no duplicate stall report"
        );
        // Advancement re-arms: deliver the message, then stall again.
        let s = b.isend(0, 7, Arc::from(vec![1u8; 3]));
        pump(&mut a, &mut b, |a, b| {
            let _ = b.try_take(&s);
            a.try_take(&r)
        })
        .expect("recv completes");
        let _ = drain_stats(&mut rx);
        let _r2 = a.irecv(Some(1), Some(8));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            a.progress();
            if drain_stats(&mut rx)
                .iter()
                .any(|(h, _)| h.kind == FrameKind::Stall)
            {
                break; // second episode reported after re-arm
            }
            assert!(std::time::Instant::now() < deadline, "watchdog re-armed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn peer_eof_fails_dependent_ops_with_peer_lost() {
        let cfg = WireConfig {
            eager_max: 8,
            ..WireConfig::default()
        };
        let (mut a, b) = two(cfg);
        // A rendezvous send is mid-handshake when the peer vanishes.
        let s = a.isend(1, 1, Arc::from(vec![0u8; 4096]));
        let r = a.irecv(Some(1), Some(2));
        drop(b); // closes both sockets → EOF on a's next read
        let mut outcomes = Vec::new();
        for _ in 0..10_000 {
            a.progress();
            for req in [&s, &r] {
                if let Some(out) = a.try_take(req) {
                    outcomes.push(out);
                }
            }
            if outcomes.len() == 2 {
                break;
            }
        }
        assert_eq!(outcomes.len(), 2, "both ops resolved");
        for out in outcomes {
            assert_eq!(out, Err(TransportError::PeerLost { peer: 1 }));
        }
        // New ops against the dead peer fail immediately.
        let r2 = a.irecv(Some(1), None);
        assert_eq!(
            a.try_take(&r2),
            Some(Err(TransportError::PeerLost { peer: 1 }))
        );
    }

    // ---- protocol-fault injection: forged frames must never panic ------

    /// Rank 0 engine whose peers are raw test-held sockets, so the test
    /// can forge arbitrary frames on each peer's wire.
    fn injectable(peers: usize) -> (WireComm, Vec<UnixStream>) {
        let mut streams: Vec<Option<Stream>> = vec![None];
        let mut held = Vec::new();
        for _ in 0..peers {
            let (mine, theirs) = UnixStream::pair().expect("socketpair");
            mine.set_nonblocking(true).expect("nonblocking");
            streams.push(Some(Stream::from(mine)));
            held.push(theirs);
        }
        (
            WireComm::new(0, peers + 1, streams, WireConfig::default()),
            held,
        )
    }

    fn inject(sock: &mut UnixStream, hdr: Header, body: &[u8]) {
        sock.write_all(&hdr.encode()).expect("inject header");
        sock.write_all(body).expect("inject body");
    }

    /// Drain whole frames the engine has flushed toward a test-held peer.
    fn drain_frames(sock: &mut UnixStream) -> Vec<(Header, Vec<u8>)> {
        sock.set_nonblocking(true).expect("nonblocking");
        let mut bytes = Vec::new();
        let mut scratch = [0u8; 64 * 1024];
        loop {
            match sock.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => bytes.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("drain failed: {e}"),
            }
        }
        let mut frames = Vec::new();
        let mut off = 0;
        while bytes.len() - off >= HEADER_LEN {
            let hdr = Header::decode_slice(&bytes[off..]).expect("frame decodes");
            let body_len = hdr.body_len();
            assert!(bytes.len() - off >= HEADER_LEN + body_len, "whole frame");
            frames.push((
                hdr,
                bytes[off + HEADER_LEN..off + HEADER_LEN + body_len].to_vec(),
            ));
            off += HEADER_LEN + body_len;
        }
        frames
    }

    #[cfg(feature = "obs-enabled")]
    fn protocol_errors(c: &WireComm) -> u64 {
        c.obs().snapshot().counter("wire.protocol_errors")
    }

    #[test]
    fn stray_cts_for_unknown_xid_is_counted_not_panicked() {
        let (mut a, mut peers) = injectable(1);
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Cts,
                src: 1,
                tag: 3,
                xid: 99, // never issued by rank 0
                len: 0,
            },
            &[],
        );
        for _ in 0..100 {
            a.progress();
        }
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 1);
        // The engine is still healthy: an eager send completes normally.
        let s = a.isend(1, 1, Arc::from(vec![7u8]));
        let out = (0..100)
            .find_map(|_| {
                a.progress();
                a.try_take(&s)
            })
            .expect("send flushes");
        assert!(matches!(out, Ok(OpOutcome::Sent)));
    }

    #[test]
    fn duplicate_cts_after_real_handshake_is_absorbed() {
        let (mut a, mut peers) = injectable(1);
        let payload = vec![9u8; WireConfig::default().eager_max + 1];
        let s = a.isend(1, 5, Arc::from(payload.clone()));
        // Act as rank 1: receive the RTS, answer with a CTS.
        let rts = loop {
            a.progress();
            let got = drain_frames(&mut peers[0]);
            if let Some(f) = got.into_iter().find(|(h, _)| h.kind == FrameKind::Rts) {
                break f.0;
            }
        };
        let cts = Header {
            kind: FrameKind::Cts,
            src: 1,
            tag: rts.tag,
            xid: rts.xid,
            len: rts.len,
        };
        inject(&mut peers[0], cts, &[]);
        // The handshake completes and DATA goes out.
        let data = loop {
            a.progress();
            if let Some(out) = a.try_take(&s) {
                assert!(matches!(out, Ok(OpOutcome::Sent)));
            }
            let got = drain_frames(&mut peers[0]);
            if let Some(f) = got.into_iter().find(|(h, _)| h.kind == FrameKind::Data) {
                break f;
            }
        };
        assert_eq!(data.1, payload);
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 0);
        // A duplicate CTS for the already-answered xid is counted, not
        // acted on: no second DATA frame, no panic.
        inject(&mut peers[0], cts, &[]);
        for _ in 0..100 {
            a.progress();
        }
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 1);
        assert!(
            drain_frames(&mut peers[0])
                .iter()
                .all(|(h, _)| h.kind != FrameKind::Data),
            "duplicate CTS must not resend DATA"
        );
    }

    #[test]
    fn wrong_source_cts_keeps_exchange_alive_for_real_peer() {
        let (mut a, mut peers) = injectable(2);
        let payload = vec![3u8; WireConfig::default().eager_max + 1];
        let s = a.isend(1, 8, Arc::from(payload.clone()));
        let rts = loop {
            a.progress();
            let got = drain_frames(&mut peers[0]);
            if let Some(f) = got.into_iter().find(|(h, _)| h.kind == FrameKind::Rts) {
                break f.0;
            }
        };
        // Rank 2 forges a CTS for rank 1's exchange: counted and dropped.
        inject(
            &mut peers[1],
            Header {
                kind: FrameKind::Cts,
                src: 2,
                tag: rts.tag,
                xid: rts.xid,
                len: rts.len,
            },
            &[],
        );
        for _ in 0..100 {
            a.progress();
        }
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 1);
        assert!(a.try_take(&s).is_none(), "send still awaiting real CTS");
        // The genuine CTS from rank 1 still completes the exchange.
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Cts,
                src: 1,
                tag: rts.tag,
                xid: rts.xid,
                len: rts.len,
            },
            &[],
        );
        let out = (0..100)
            .find_map(|_| {
                a.progress();
                a.try_take(&s)
            })
            .expect("send completes after real CTS");
        assert!(matches!(out, Ok(OpOutcome::Sent)));
        let data: Vec<_> = drain_frames(&mut peers[0])
            .into_iter()
            .filter(|(h, _)| h.kind == FrameKind::Data)
            .collect();
        assert_eq!(data.len(), 1, "exactly one DATA, to the real peer");
        assert_eq!(data[0].1, payload);
    }

    #[test]
    fn unknown_data_frame_is_counted_not_panicked() {
        let (mut a, mut peers) = injectable(1);
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Data,
                src: 1,
                tag: 4,
                xid: 77, // no receive awaits this exchange
                len: 5,
            },
            &[1, 2, 3, 4, 5],
        );
        for _ in 0..100 {
            a.progress();
        }
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 1);
        // A posted receive is untouched by the stray DATA.
        let r = a.irecv(Some(1), Some(4));
        assert!(a.try_take(&r).is_none(), "stray DATA never matches a recv");
    }

    #[test]
    fn stats_plane_frames_on_mesh_are_counted_not_panicked() {
        // Stats-plane frames belong on the stats and relay sockets; a
        // peer pushing them onto the mesh is abuse, with and without a
        // body, repeated or not — each one counted, none acted on.
        let (mut a, mut peers) = injectable(1);
        for (kind, body) in [
            (FrameKind::Relay, &b""[..]),
            (FrameKind::Relay, &b"bogus snapshot bytes"[..]),
            (FrameKind::Stall, &b""[..]),
            (FrameKind::Stall, &b"xx"[..]),
        ] {
            inject(
                &mut peers[0],
                Header {
                    kind,
                    src: 1,
                    tag: 9,
                    xid: 1234,
                    len: body.len() as u64,
                },
                body,
            );
        }
        for _ in 0..100 {
            a.progress();
        }
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 4);
        // The engine is still healthy afterwards.
        let s = a.isend(1, 1, Arc::from(vec![7u8]));
        let out = (0..100)
            .find_map(|_| {
                a.progress();
                a.try_take(&s)
            })
            .expect("send flushes");
        assert!(matches!(out, Ok(OpOutcome::Sent)));
    }

    #[test]
    fn truncated_data_is_counted_and_delivered_with_actual_length() {
        // The peer's RTS announces 100 bytes; the DATA frame that follows
        // carries only 60. That is a protocol violation (counted), but the
        // receive still resolves — with the real length, not the promise.
        let (mut a, mut peers) = injectable(1);
        let r = a.irecv(Some(1), Some(6));
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Rts,
                src: 1,
                tag: 6,
                xid: 42,
                len: 100,
            },
            &[],
        );
        // The engine answers with a CTS echoing the xid.
        let cts = loop {
            a.progress();
            let got = drain_frames(&mut peers[0]);
            if let Some(f) = got.into_iter().find(|(h, _)| h.kind == FrameKind::Cts) {
                break f.0;
            }
        };
        assert_eq!(cts.xid, 42);
        assert_eq!(cts.len, 100);
        let short = vec![0xcdu8; 60];
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Data,
                src: 1,
                tag: 6,
                xid: 42,
                len: short.len() as u64,
            },
            &short,
        );
        let out = (0..100)
            .find_map(|_| {
                a.progress();
                a.try_take(&r)
            })
            .expect("recv resolves despite truncation");
        match out {
            Ok(OpOutcome::Received(st, d)) => {
                assert_eq!(st.len, 60, "status reports the actual length");
                assert_eq!(&d[..], &short[..]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 1);
    }

    #[test]
    fn oversized_data_is_counted_and_delivered_with_actual_length() {
        // The mirror-image violation: DATA carries more than its RTS
        // announced. Same treatment — counted, delivered as-is.
        let (mut a, mut peers) = injectable(1);
        let r = a.irecv(Some(1), Some(6));
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Rts,
                src: 1,
                tag: 6,
                xid: 7,
                len: 10,
            },
            &[],
        );
        loop {
            a.progress();
            if drain_frames(&mut peers[0])
                .iter()
                .any(|(h, _)| h.kind == FrameKind::Cts)
            {
                break;
            }
        }
        let long = vec![0xabu8; 25];
        inject(
            &mut peers[0],
            Header {
                kind: FrameKind::Data,
                src: 1,
                tag: 6,
                xid: 7,
                len: long.len() as u64,
            },
            &long,
        );
        let out = (0..100)
            .find_map(|_| {
                a.progress();
                a.try_take(&r)
            })
            .expect("recv resolves");
        assert!(matches!(out, Ok(OpOutcome::Received(st, _)) if st.len == 25));
        #[cfg(feature = "obs-enabled")]
        assert_eq!(protocol_errors(&a), 1);
    }

    #[test]
    fn reserved_tag_sends_bump_coll_tx() {
        let (mut a, mut b) = two(WireConfig::default());
        let _ = a.isend(1, 2, Arc::from(vec![1u8]));
        let coll_tag = rtmpi::TAG_COLL_BASE + 4;
        let s = a.isend(1, coll_tag, Arc::from(vec![2u8]));
        let r = b.irecv(Some(0), Some(coll_tag));
        pump(&mut a, &mut b, |a, b| {
            let _ = a.try_take(&s);
            b.try_take(&r)
        })
        .expect("reserved-tag recv completes");
        #[cfg(feature = "obs-enabled")]
        {
            assert_eq!(a.obs().snapshot().counter("wire.coll_tx"), 1);
            assert_eq!(b.obs().snapshot().counter("wire.coll_tx"), 0);
        }
    }

    /// Tight shm geometry: a four-slot ring of 128-byte slots, so even
    /// modest payloads span slots and the ring fills mid-frame.
    fn shm_cfg() -> WireConfig {
        WireConfig {
            eager_max: 64,
            shm: true,
            shm_slots: 4,
            shm_slot_bytes: 128,
            ..WireConfig::default()
        }
    }

    #[test]
    fn shm_eager_roundtrip_allocates_no_message_buffers() {
        let (mut a, mut b) = two(shm_cfg());
        let s = a.isend(1, 7, Arc::from(vec![1u8, 2, 3]));
        let r = b.irecv(Some(0), Some(7));
        let (st, data) = pump(&mut a, &mut b, |a, b| {
            let _ = a.try_take(&s);
            match b.try_take(&r) {
                Some(Ok(OpOutcome::Received(st, d))) => Some((st, d)),
                Some(other) => panic!("unexpected outcome {other:?}"),
                None => None,
            }
        });
        assert_eq!((st.source, st.tag, st.len), (0, 7, 3));
        assert_eq!(&data[..], &[1, 2, 3]);
        #[cfg(feature = "obs-enabled")]
        {
            let a_snap = a.obs().snapshot();
            assert!(a_snap.counter("wire.shm_frames") > 0, "tx rode the ring");
            assert_eq!(a_snap.counter("wire.eager_alloc"), 0, "zero-copy send");
            assert_eq!(a_snap.counter("wire.shm_fallback"), 0);
            let b_snap = b.obs().snapshot();
            assert!(b_snap.counter("wire.shm_frames") > 0, "rx rode the ring");
        }
    }

    #[test]
    fn shm_rendezvous_chunks_a_payload_across_many_ring_laps() {
        // 100 KB through a 512-byte ring: the DATA frame spans ~200 ring
        // fills, exercising the resumable mid-frame flush cursor.
        let (mut a, mut b) = two(shm_cfg());
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7) as u8).collect();
        let s = a.isend(1, 9, Arc::from(payload.clone()));
        let r = b.irecv(None, None);
        let (st, data) = pump(&mut a, &mut b, |a, b| {
            let _ = a.try_take(&s);
            match b.try_take(&r) {
                Some(Ok(OpOutcome::Received(st, d))) => Some((st, d)),
                Some(other) => panic!("unexpected outcome {other:?}"),
                None => None,
            }
        });
        assert_eq!(st.len, payload.len());
        assert_eq!(&data[..], &payload[..]);
        #[cfg(feature = "obs-enabled")]
        {
            assert_eq!(a.obs().snapshot().counter("wire.rndv_tx"), 1);
            assert_eq!(
                a.obs().snapshot().counter("wire.eager_alloc"),
                0,
                "DATA body stays shared, never staged"
            );
        }
    }

    #[test]
    fn shm_forced_fallback_degrades_to_the_socket_and_counts_once() {
        let cfg = WireConfig {
            shm_force_fallback: true,
            ..shm_cfg()
        };
        let (mut a, mut b) = two(cfg);
        let s = a.isend(1, 4, Arc::from(vec![9u8; 32]));
        let r = b.irecv(Some(0), Some(4));
        let out = pump(&mut a, &mut b, |a, b| {
            let _ = a.try_take(&s);
            b.try_take(&r)
        });
        assert!(matches!(out, Ok(OpOutcome::Received(st, _)) if st.len == 32));
        #[cfg(feature = "obs-enabled")]
        {
            let snap = a.obs().snapshot();
            assert_eq!(snap.counter("wire.shm_fallback"), 1, "one note per peer");
            assert_eq!(snap.counter("wire.shm_frames"), 0, "ring never used");
        }
    }

    #[test]
    fn shm_world_survives_bidirectional_traffic_at_three_ranks() {
        let mut world = loopback_configured(3, shm_cfg());
        let mut reqs = Vec::new();
        for src in 0..3 {
            for dst in 0..3 {
                if src == dst {
                    continue;
                }
                let body: Arc<[u8]> = Arc::from(vec![(src * 3 + dst) as u8; 200]);
                let s = world[src].isend(dst, 1, body);
                let r = world[dst].irecv(Some(src), Some(1));
                reqs.push((src, s, dst, r));
            }
        }
        for _ in 0..10_000 {
            for w in world.iter_mut() {
                w.progress();
            }
            reqs.retain(|(src, s, dst, r)| {
                let _ = world[*src].try_take(s);
                match world[*dst].try_take(r) {
                    Some(Ok(OpOutcome::Received(st, d))) => {
                        assert_eq!(st.len, 200);
                        assert_eq!(d[0], (src * 3 + dst) as u8);
                        false
                    }
                    Some(other) => panic!("unexpected outcome {other:?}"),
                    None => true,
                }
            });
            if reqs.is_empty() {
                return;
            }
        }
        panic!("3-rank shm world did not drain");
    }
}
