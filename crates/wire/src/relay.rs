//! The stats uplink: every rank's one way of getting its metrics to the
//! launcher, flat or through a k-ary relay tree.
//!
//! Every rank owns one [`RelayNode`]. Its topology is one parameter,
//! [`RelayOpts::arity`]. Without an arity the world is **flat**: the node's
//! parent is the launcher's collector (`stats.sock`) and it has no
//! children — N ranks, N collector connections. With arity `k` ranks are
//! laid out as an implicit heap over rank ids — `parent(r) = (r-1)/k`,
//! children of `r` are `k·r+1 ..= k·r+k` (clipped to the world size) — so
//! the tree needs no negotiation: each node binds `relay-<rank>.sock` in
//! the bootstrap directory when it has children, dials its parent's relay
//! socket (rank 0 dials the collector), and the collector ends up with
//! O(k) connections instead of O(N). A flat node is simply a leaf whose
//! parent is the collector; nothing below distinguishes the two.
//!
//! Upward traffic is one frame format: a node periodically ships one
//! [`FrameKind::Relay`] frame whose body is its own [`obs::Snapshot`]
//! **merged** ([`obs::Snapshot::merge`]) with the latest snapshot from
//! every child subtree; the header's `tag` counts the ranks covered and
//! `xid` the subtree height (1 and 1 for a leaf), so coverage and depth
//! aggregate for free. `Stall` frames — the rank's own and its
//! descendants' — travel verbatim (evidence must not be averaged away).
//!
//! Nothing here may cost the data path more than it must, because all of
//! it runs inside `progress()`:
//!
//! * **Children are read only when an emission is due.** Nothing a child
//!   sent can leave this node before the next [`RelayNode::emit`], so
//!   `emit` does the intake itself and a progress pass between emissions
//!   touches no child socket.
//! * **The uplink never blocks.** The parent stream is nonblocking; a
//!   frame the socket cuts short leaves its unsent tail in a one-frame
//!   backlog (the stream is framed, so a frame once begun is finished
//!   before the next), and while that backlog has not drained the node
//!   skips its emissions, counting each in `obs.relay_dropped`. Snapshots
//!   are cumulative, so a skipped one is carried by the next.
//! * **A header buys at most [`STATS_BODY_MAX`] bytes.** A child
//!   announcing more is dropped and counted, never buffered; per-child
//!   memory is one frame in flight, one retained subtree snapshot (a
//!   snapshot replaced before it was ever merged upward bumps
//!   `obs.relay_dropped`) and a capped drop-oldest queue of forwarded
//!   event frames ([`CHILD_EVENT_CAP`], drops also counted).
//!
//! `obs.relay_merged` counts fresh child snapshots folded into an upward
//! emission; since counters merge by summing, the per-depth flavour
//! `obs.relay_merged.d<depth>` gives the collector a per-level breakdown of
//! relay activity without any extra wiring. The node's reads, accepts and
//! writes are counted in `wire.sys.read` / `wire.sys.write` beside the
//! fabric's, so "syscalls per progress pass" means the whole pass.
//!
//! The node is clock-free by construction: [`RelayNode::emit`] never looks
//! at time (the engine's observability tick owns the cadence via
//! [`RelayNode::due`]), which keeps the module drivable from deterministic
//! benches and tests.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::proto::{FrameKind, Header, HEADER_LEN, STATS_BODY_MAX};

/// Forwarded-event queue bound per child (drop-oldest beyond this).
pub const CHILD_EVENT_CAP: usize = 32;

/// How long a node retries dialing its parent before giving up (parents
/// and children start concurrently, exactly like the mesh bootstrap).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(20);
const RETRY_SLEEP: Duration = Duration::from_millis(5);

/// Child-socket reads per intake: enough for two frames of the largest
/// legal size, so one fire-hosing child cannot hold a progress pass.
const READS_PER_PUMP: usize = 2 * STATS_BODY_MAX / SCRATCH_LEN;
const SCRATCH_LEN: usize = 4096;

/// Parent of `rank`; `None` means the launcher's collector — the root of
/// a tree, and every rank of a flat world.
pub fn parent_of(rank: usize, arity: Option<usize>) -> Option<usize> {
    let k = arity?.max(1);
    (rank > 0).then(|| (rank - 1) / k)
}

/// Children of `rank` in a `size`-rank world (empty for a leaf, and for
/// every rank of a flat world).
pub fn children_of(rank: usize, size: usize, arity: Option<usize>) -> std::ops::Range<usize> {
    let Some(k) = arity.map(|k| k.max(1)) else {
        return 0..0;
    };
    let lo = (rank * k + 1).min(size);
    let hi = (rank * k + k + 1).min(size);
    lo..hi.max(lo)
}

/// Hops from `rank` to the node that dials the collector (0 for that
/// node itself, so 0 for every rank of a flat world).
pub fn depth_of(rank: usize, arity: Option<usize>) -> u32 {
    let mut d = 0;
    let mut r = rank;
    while let Some(p) = parent_of(r, arity) {
        r = p;
        d += 1;
    }
    d
}

/// Relay socket filename for `rank`, under the bootstrap directory.
pub fn sock_name(rank: usize) -> String {
    format!("relay-{rank}.sock")
}

/// Everything needed to place one rank in the plane.
#[derive(Clone, Debug)]
pub struct RelayOpts {
    pub rank: usize,
    pub size: usize,
    /// `Some(k)`: the k-ary tree. `None`: flat, every rank a leaf under
    /// the collector.
    pub arity: Option<usize>,
    /// Bootstrap directory holding the per-rank relay sockets.
    pub dir: PathBuf,
    /// The launcher's collector socket.
    pub stats_sock: PathBuf,
    /// Upward emission period (drives [`RelayNode::due`]).
    pub interval: Duration,
}

/// The newest snapshot a child subtree reported, plus its coverage
/// metadata from the frame header.
struct SubtreeSnap {
    snap: obs::Snapshot,
    coverage: u32,
    height: u32,
}

/// One accepted child connection: the bytes of the frame in flight, the
/// retained latest subtree snapshot, and the bounded forward queue.
struct ChildLink {
    stream: UnixStream,
    buf: Vec<u8>,
    latest: Option<SubtreeSnap>,
    /// The retained snapshot has not yet been folded into an upward
    /// emission. Replacing it while still fresh is a coalescing drop.
    fresh: bool,
    events: VecDeque<(Header, Vec<u8>)>,
    dead: bool,
}

/// The nonblocking link to the parent (see module docs).
struct Uplink {
    stream: Option<UnixStream>,
    /// Unsent tail of the one frame a full socket cut short.
    backlog: Vec<u8>,
    c_sys_write: obs::Counter,
}

impl Uplink {
    /// Push the backlog out. True when the link is alive and nothing
    /// stands in front of the next frame.
    fn drain(&mut self) -> bool {
        while !self.backlog.is_empty() {
            let Some(stream) = self.stream.as_mut() else {
                return false;
            };
            self.c_sys_write.inc();
            match stream.write(&self.backlog) {
                Ok(0) => self.stream = None,
                Ok(n) => {
                    self.backlog.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.stream = None,
            }
        }
        self.stream.is_some()
    }

    /// Offer one frame. True when the link took it — written, or begun
    /// with its tail in the backlog; false when it was refused whole
    /// (backed up, or gone) and not a byte of it is on the wire.
    fn send(&mut self, hdr: &Header, body: &[u8]) -> bool {
        if !self.drain() {
            return false;
        }
        let head = hdr.encode();
        loop {
            let Some(stream) = self.stream.as_mut() else {
                return false;
            };
            self.c_sys_write.inc();
            match stream.write_vectored(&[IoSlice::new(&head), IoSlice::new(body)]) {
                Ok(n) => {
                    // What the socket did not take waits in the backlog.
                    if n < HEADER_LEN + body.len() {
                        self.backlog
                            .extend(head.iter().chain(body).skip(n).copied());
                    }
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.stream = None,
            }
        }
    }
}

/// One rank's node in the stats plane (see module docs).
pub struct RelayNode {
    rank: u32,
    interval: Duration,
    last_emit: Option<Instant>,
    up: Uplink,
    listener: Option<UnixListener>,
    expected_children: usize,
    children: Vec<ChildLink>,
    scratch: [u8; SCRATCH_LEN],
    c_merged: obs::Counter,
    c_merged_depth: obs::Counter,
    c_dropped: obs::Counter,
    c_tx: obs::Counter,
    c_tx_bytes: obs::Counter,
    c_sys_read: obs::Counter,
}

impl RelayNode {
    /// Bind this rank's child listener (if it has children), dial the
    /// parent (with retry — siblings start concurrently), and register
    /// the relay counters in `reg`.
    pub fn connect(opts: &RelayOpts, reg: &obs::Registry) -> std::io::Result<RelayNode> {
        let expected_children = children_of(opts.rank, opts.size, opts.arity).len();
        let listener = if expected_children > 0 {
            let path = opts.dir.join(sock_name(opts.rank));
            let _ = std::fs::remove_file(&path);
            let l = UnixListener::bind(&path)?;
            l.set_nonblocking(true)?;
            Some(l)
        } else {
            None
        };
        // Bind before dialing: children spin on the parent's socket, so
        // as long as every rank binds first the retries always converge.
        let upstream: PathBuf = match parent_of(opts.rank, opts.arity) {
            None => opts.stats_sock.clone(),
            Some(p) => opts.dir.join(sock_name(p)),
        };
        let parent = connect_retry(&upstream, opts.rank)?;
        let depth = depth_of(opts.rank, opts.arity);
        let mut node = RelayNode::over(opts.rank, depth, parent, opts.interval, reg)?;
        node.listener = listener;
        node.expected_children = expected_children;
        Ok(node)
    }

    /// A childless node over an already-connected upstream: what
    /// [`RelayNode::connect`] builds once it has dialed, and how tests hand
    /// a node one end of a socketpair.
    pub fn over(
        rank: usize,
        depth: u32,
        upstream: UnixStream,
        interval: Duration,
        reg: &obs::Registry,
    ) -> std::io::Result<RelayNode> {
        upstream.set_nonblocking(true)?;
        // Gauges merge by max, so the collector's merged view reports the
        // deepest node that ever emitted — the realized tree depth.
        reg.gauge("obs.relay_depth").set(depth as u64);
        Ok(RelayNode {
            rank: rank as u32,
            interval,
            last_emit: None,
            up: Uplink {
                stream: Some(upstream),
                backlog: Vec::new(),
                c_sys_write: reg.counter("wire.sys.write"),
            },
            listener: None,
            expected_children: 0,
            children: Vec::new(),
            scratch: [0u8; SCRATCH_LEN],
            c_merged: reg.counter("obs.relay_merged"),
            c_merged_depth: reg.counter(&format!("obs.relay_merged.d{depth}")),
            c_dropped: reg.counter("obs.relay_dropped"),
            c_tx: reg.counter("obs.relay_tx"),
            c_tx_bytes: reg.counter("obs.relay_tx_bytes"),
            c_sys_read: reg.counter("wire.sys.read"),
        })
    }

    /// True while the upstream link is still usable.
    pub fn alive(&self) -> bool {
        self.up.stream.is_some()
    }

    /// Interval gate for the engine's observability tick: returns true
    /// (and re-arms) when an upward emission is due at `now`.
    pub fn due(&mut self, now: Instant) -> bool {
        match self.last_emit {
            Some(t) if now.duration_since(t) < self.interval => false,
            _ => {
                self.last_emit = Some(now);
                true
            }
        }
    }

    /// Nonblocking downstream intake: accept pending child connections
    /// and drain what their sockets hold. Once every expected child has
    /// dialed in the listener is closed, so later intakes skip the accept.
    fn pump(&mut self) {
        if self.children.len() >= self.expected_children {
            self.listener = None;
        }
        if let Some(l) = &self.listener {
            loop {
                self.c_sys_read.inc();
                let Ok((stream, _)) = l.accept() else { break };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                self.children.push(ChildLink {
                    stream,
                    buf: Vec::new(),
                    latest: None,
                    fresh: false,
                    events: VecDeque::new(),
                    dead: false,
                });
            }
        }
        for i in 0..self.children.len() {
            self.pump_child(i);
        }
    }

    fn pump_child(&mut self, i: usize) {
        for _ in 0..READS_PER_PUMP {
            let ch = &mut self.children[i];
            if ch.dead {
                return;
            }
            self.c_sys_read.inc();
            match ch.stream.read(&mut self.scratch) {
                // EOF: the child exited. Its retained snapshot stays
                // mergeable — the totals it reported remain true.
                Ok(0) => ch.dead = true,
                Ok(n) => {
                    ch.buf.extend_from_slice(&self.scratch[..n]);
                    // Parse as the bytes arrive: the buffer never holds
                    // more than the frame in flight plus one read.
                    self.drain_child_frames(i);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => ch.dead = true,
            }
        }
    }

    /// Parse complete frames out of child `i`'s buffer. Everything here
    /// is input from another process: malformed data marks the link dead
    /// (and counts a drop), never panics, and a header never reserves
    /// memory — the buffer grows only with bytes that arrived, up to the
    /// stats-plane cap.
    fn drain_child_frames(&mut self, i: usize) {
        loop {
            let ch = &mut self.children[i];
            if ch.buf.len() < HEADER_LEN {
                return;
            }
            let hdr = match Header::decode_slice(&ch.buf) {
                Ok(h) if h.body_len() <= STATS_BODY_MAX => h,
                _ => {
                    ch.dead = true;
                    ch.buf = Vec::new();
                    self.c_dropped.inc();
                    return;
                }
            };
            let total = HEADER_LEN + hdr.body_len();
            if ch.buf.len() < total {
                return;
            }
            let body: Vec<u8> = ch.buf[HEADER_LEN..total].to_vec();
            ch.buf.drain(..total);
            match hdr.kind {
                FrameKind::Relay => match obs::Snapshot::from_bytes(&body) {
                    Ok(snap) => {
                        // Cumulative snapshots coalesce losslessly to the
                        // newest; replacing one that never went upward is
                        // the backpressure drop we count.
                        if ch.fresh {
                            self.c_dropped.inc();
                        }
                        ch.latest = Some(SubtreeSnap {
                            snap,
                            coverage: hdr.tag.max(1),
                            height: hdr.xid.max(1),
                        });
                        ch.fresh = true;
                    }
                    Err(_) => self.c_dropped.inc(),
                },
                FrameKind::Stall => {
                    if ch.events.len() >= CHILD_EVENT_CAP {
                        ch.events.pop_front();
                        self.c_dropped.inc();
                    }
                    ch.events.push_back((hdr, body));
                }
                // Nothing else belongs on a relay socket; count and drop.
                _ => self.c_dropped.inc(),
            }
        }
    }

    /// One emission: take in what the children sent, pass their queued
    /// `Stall` evidence on (first, so a stall report is never stuck
    /// behind this tick's summary), then ship `own` (this rank's
    /// snapshot) folded with every child subtree's latest as one `Relay`
    /// frame. If the uplink is still working off an earlier frame the
    /// emission is skipped and counted; a failed write drops the uplink
    /// for the rest of the run — best-effort throughout.
    pub fn emit(&mut self, own: &obs::Snapshot) {
        if !self.alive() {
            return;
        }
        self.pump();
        'forward: for ch in &mut self.children {
            while let Some((hdr, body)) = ch.events.front() {
                if !self.up.send(hdr, body) {
                    break 'forward;
                }
                self.c_tx.inc();
                self.c_tx_bytes.add((HEADER_LEN + body.len()) as u64);
                ch.events.pop_front();
            }
        }
        if !self.up.drain() {
            if self.alive() {
                self.c_dropped.inc();
            }
            return;
        }
        let mut merged = own.clone();
        let mut coverage: u64 = 1;
        let mut height: u32 = 1;
        for sub in self.children.iter().filter_map(|ch| ch.latest.as_ref()) {
            merged.merge(&sub.snap);
            coverage += sub.coverage as u64;
            height = height.max(sub.height.saturating_add(1));
        }
        let body = merged.to_bytes();
        let hdr = Header {
            kind: FrameKind::Relay,
            src: self.rank,
            tag: coverage.min(u32::MAX as u64) as u32,
            xid: height,
            len: body.len() as u64,
        };
        if !self.send_counted(&hdr, &body) {
            return;
        }
        for ch in self.children.iter_mut().filter(|ch| ch.fresh) {
            ch.fresh = false;
            self.c_merged.inc();
            self.c_merged_depth.inc();
        }
    }

    /// Ship this rank's own `Stall` report upward, ahead of the next
    /// summary: the watchdog's evidence in the header (`xid` = stalled
    /// milliseconds, `tag` = pending operations), the rank's snapshot at
    /// that moment as the body.
    pub fn send_stall(&mut self, stalled_ms: u32, pending_ops: u32, body: &[u8]) {
        let hdr = Header {
            kind: FrameKind::Stall,
            src: self.rank,
            tag: pending_ops,
            xid: stalled_ms,
            len: body.len() as u64,
        };
        self.send_counted(&hdr, body);
    }

    /// Send one of this node's own frames, counting it as sent or — when
    /// it is over the cap or a live uplink refuses it — as dropped.
    fn send_counted(&mut self, hdr: &Header, body: &[u8]) -> bool {
        let sent = body.len() <= STATS_BODY_MAX && self.up.send(hdr, body);
        if sent {
            self.c_tx.inc();
            self.c_tx_bytes.add((HEADER_LEN + body.len()) as u64);
        } else if self.alive() {
            self.c_dropped.inc();
        }
        sent
    }
}

/// Dial `path`, retrying while the owner may still be binding.
fn connect_retry(path: &Path, rank: usize) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "rank {rank}: stats uplink {} unreachable: {e}",
                        path.display()
                    ),
                ));
            }
            Err(_) => std::thread::sleep(RETRY_SLEEP),
        }
    }
}

#[cfg(test)]
mod tests;
