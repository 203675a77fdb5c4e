//! `FrameFabric` — how encoded frames move between ranks.
//!
//! The progress engine ([`crate::engine::WireComm`]) owns the *protocol*:
//! matching, eager/rendezvous state machines, peer-death semantics. This
//! trait owns the *delivery*: bytes queued toward a peer, bytes flushed,
//! whole frames arriving back out. Separating the two is what makes the
//! protocol model-checkable — the engine is generic over its fabric, so
//! `protocheck` can substitute a deterministic in-process fabric whose
//! explorer permutes frame-delivery order, delay, duplication, and
//! peer-death points, while production runs the nonblocking socket mesh
//! ([`SocketFabric`]) below.
//!
//! Contract, in the order the engine relies on it:
//!
//! * [`queue`] returns a cumulative per-link **mark** (total bytes ever
//!   queued on that link, including this frame). Marks are monotonic; the
//!   frame is "on the wire" once [`flushed`] passes the mark. The engine
//!   uses marks for send-completion semantics — an eager send completes
//!   when its bytes left the process, not when they were queued.
//! * [`sweep`] says, once per progress pass, which links are worth a
//!   [`recv`]; [`flush`] pushes queued bytes as far as the link accepts
//!   right now (never blocking); [`recv`] pulls the complete frames one
//!   read of the link yields. Both report whether anything moved and
//!   whether the link died doing it (EOF, reset, or a corrupt inbound
//!   header).
//! * Once a link reports death it stays dead: [`alive`] is `false`, all
//!   further operations on it are no-ops. The engine reaps the protocol
//!   state exactly once.
//! * Frames on one link are FIFO — a fabric must never reorder deliveries
//!   from the same peer (the MPI matching order depends on it). Delivery
//!   order *across* links is unconstrained, which is precisely the
//!   nondeterminism the model fabric explores.
//!
//! # Data-plane economics
//!
//! **One readiness syscall per pass.** [`SocketFabric::sweep`] is a single
//! zero-timeout `poll(2)` over every live link descriptor
//! (`crate::sys::PollSet`), whatever the peer count; an idle pass costs
//! that and nothing else. `POLLIN`, `POLLHUP` and `POLLERR` all mean
//! "read it" — EOF and reset keep surfacing through `read`.
//!
//! **One read per ready link per pass.** `poll` is level-triggered: what
//! a read leaves in the kernel is reported again next pass, and a peer
//! that keeps its socket full gets one read's worth of a pass, not the
//! pass.
//!
//! **One copy per delivered byte, at most.** The fabric owns one receive
//! buffer (see `RX_BUF`); all links are read by the one thread that
//! owns the engine, one at a time. A link keeps only reassembly state: a
//! header that arrived split, and the one body in progress. A frame that
//! is complete in the receive buffer becomes its `Arc<[u8]>` straight
//! from there (one copy) — the `Arc` the application receives. A body not
//! yet complete is allocated at its final `Arc` — uninitialised, never
//! zero-filled (`crate::sys::RxBody`) — and the bytes still to come are
//! read directly into it by `readv(2)` (no user-space copy), what follows
//! it in the stream landing in the receive buffer through the same
//! vectored read. The body becomes the delivered `Arc<[u8]>` only when its
//! last byte is in; a link that dies first drops it. Bodyless frames
//! share one empty `Arc`. `wire.rx_copy_bytes` counts every byte user
//! code writes on this path.
//!
//! **An announced length is peer input.** A destination is allocated at
//! the announced size only when that fits the receive buffer or the
//! engine granted it (a DATA frame it answered a CTS for, at that
//! length); any other body grows with the bytes actually received — a
//! 24-byte header cannot buy a gigabyte.
//!
//! Outbound, a body queued through [`queue_shared`] stays the engine's
//! `Arc<[u8]>` until its bytes hit the socket (one `write_vectored` per
//! batch over a stack-built slice array, no staging copy) or the
//! shared-memory ring (one copy, straight into the slot).
//!
//! When a link has a shared-memory sibling ([`crate::shm::ShmLink`],
//! negotiated at bootstrap behind `WIRE_SHM=1`), *all* post-bootstrap
//! frames for that peer traverse the ring — never the socket — so
//! per-link FIFO holds trivially. The socket stays open for peer-death
//! detection (EOF) and the park/doorbell nudge; the sweep's verdict on it
//! decides whether a pass reads it at all. Ring chunks go through the
//! same reassembly as socket bytes, and a pop has the shape of that
//! `readv`: it copies the slot into the unfilled rest of the body in
//! progress, and only what follows that body into the chunk staging
//! (slot → `Arc`, one copy). A slot that completes small frames, or that
//! carries a body's header and first bytes, is staged first (slot →
//! staging → `Arc`). [`crate::regpool::RegPool`] is no longer on this
//! path: nothing stages a body, so nothing leases one.
//!
//! [`queue`]: FrameFabric::queue
//! [`queue_shared`]: FrameFabric::queue_shared
//! [`sweep`]: FrameFabric::sweep
//! [`flushed`]: FrameFabric::flushed
//! [`flush`]: FrameFabric::flush
//! [`recv`]: FrameFabric::recv
//! [`alive`]: FrameFabric::alive

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use shmring::{Consumer, Pop, Producer, RingMem};

use crate::proto::{FrameKind, Header, HEADER_LEN};
use crate::shm::ShmLink;
use crate::sys::{PollSet, RxBody};

/// What one [`FrameFabric::flush`] / [`FrameFabric::recv`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkPoll {
    /// Anything moved (bytes flushed, frames arrived).
    pub moved: bool,
    /// Bytes that crossed the link boundary in this call (for the
    /// engine's `wire.bytes_tx` / `wire.bytes_rx` accounting).
    pub bytes: u64,
    /// The link failed during this call (EOF, reset, corrupt stream).
    /// The fabric has already marked it dead; the caller reaps protocol
    /// state.
    pub died: bool,
}

/// One delivered frame: its header and its body in the `Arc` the engine
/// passes on to the application.
pub type Frame = (Header, Arc<[u8]>);

/// Frame transport under the wire engine (see module docs).
pub trait FrameFabric: Send + 'static {
    /// World size. Link indices are rank numbers; the self slot exists
    /// but is never polled.
    fn size(&self) -> usize;

    /// Is the link to `peer` connected and not yet failed?
    fn alive(&self, peer: usize) -> bool;

    /// Queue one frame toward `peer`; returns the cumulative mark at
    /// which the frame is fully flushed. Queueing to a dead link is
    /// allowed (the bytes go nowhere) — callers check [`Self::alive`]
    /// first for protocol decisions.
    fn queue(&mut self, peer: usize, hdr: &Header, body: &[u8]) -> u64;

    /// Like [`Self::queue`], for a body the caller already holds shared:
    /// a fabric that can, retains the `Arc` instead of copying. The
    /// default just copies through `queue` — correct for fabrics that do
    /// not care about allocation (the model fabric).
    fn queue_shared(&mut self, peer: usize, hdr: &Header, body: &Arc<[u8]>) -> u64 {
        self.queue(peer, hdr, body)
    }

    /// Cumulative bytes ever queued on the link to `peer` (the latest
    /// mark). Ahead of [`Self::flushed`] exactly when the outbox is
    /// non-empty.
    fn queued(&self, peer: usize) -> u64;

    /// Cumulative bytes ever flushed on the link to `peer`.
    fn flushed(&self, peer: usize) -> u64;

    /// Push queued bytes toward `peer` as far as the link accepts,
    /// without blocking.
    fn flush(&mut self, peer: usize) -> LinkPoll;

    /// Once per progress pass: set `ready[p]` for every link worth a
    /// [`Self::recv`] this pass. The default — for fabrics without
    /// descriptors to ask — reports every link.
    fn sweep(&mut self, ready: &mut Vec<bool>) {
        ready.clear();
        ready.resize(self.size(), true);
    }

    /// Pull the complete frames one read of the link to `peer` yields,
    /// appending to `out` in arrival order. `granted` is the engine's
    /// word on a header whose announced body length may be allocated up
    /// front (it asked for exactly that frame); every other length is
    /// untrusted peer input.
    fn recv(
        &mut self,
        peer: usize,
        granted: &dyn Fn(&Header) -> bool,
        out: &mut Vec<Frame>,
    ) -> LinkPoll;

    /// Register the fabric's own counters. Called once by the engine at
    /// construction; the default registers nothing.
    fn register_obs(&mut self, _registry: &obs::Registry) {}
}

/// Either socket flavour, nonblocking after bootstrap.
pub(crate) enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Uds(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    pub(crate) fn write_all_blocking(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.write_all(buf),
            Stream::Tcp(s) => s.write_all(buf),
        }
    }

    pub(crate) fn read_exact_blocking(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.read_exact(buf),
            Stream::Tcp(s) => s.read_exact(buf),
        }
    }
}

impl From<UnixStream> for Stream {
    fn from(s: UnixStream) -> Self {
        Stream::Uds(s)
    }
}

impl From<TcpStream> for Stream {
    fn from(s: TcpStream) -> Self {
        Stream::Tcp(s)
    }
}

/// A queued frame body: shared from the engine (no copy until the wire)
/// or owned (copied at queue time — the allocation the counters watch).
enum Body {
    Shared(Arc<[u8]>),
    Owned(Vec<u8>),
}

impl Body {
    fn as_slice(&self) -> &[u8] {
        match self {
            Body::Shared(b) => b,
            Body::Owned(b) => b,
        }
    }
}

/// One queued frame: encoded header + body, flushed from the front with
/// a byte cursor held by the link.
struct OutFrame {
    hdr: [u8; HEADER_LEN],
    body: Body,
}

impl OutFrame {
    fn wire_len(&self) -> usize {
        HEADER_LEN + self.body.as_slice().len()
    }
}

/// A link's outbound side: queued frames not yet fully flushed, and its
/// cumulative byte marks.
#[derive(Default)]
struct Outbox {
    frames: VecDeque<OutFrame>,
    /// How many bytes of the front frame already went out.
    off: usize,
    /// Cumulative bytes ever queued / ever flushed.
    queued: u64,
    flushed: u64,
}

impl Outbox {
    /// Queue one frame; returns the mark at which it is fully flushed.
    fn push(&mut self, hdr: &Header, body: Body) -> u64 {
        self.queued += (HEADER_LEN + body.as_slice().len()) as u64;
        self.frames.push_back(OutFrame {
            hdr: hdr.encode(),
            body,
        });
        self.queued
    }
}

/// How many frames one `write_vectored` batch may carry (two slices per
/// frame). Enough to amortise the syscall; small enough that the slice
/// array lives on the stack.
const MAX_WRITEV_FRAMES: usize = 16;

/// The fabric's receive buffer at full size: one socket read's worth, and
/// the largest body allocated on a header's say-so alone. It is reserved
/// whole but only its first [`RX_BUF_MIN`] bytes are initialised (and so
/// resident) at first; the initialised part doubles, in place, whenever a
/// read fills it — a rank that only ever sees small frames never faults
/// in more than a page of it.
pub(crate) const RX_BUF: usize = 64 * 1024;
const RX_BUF_MIN: usize = 4096;

/// The destination of a body still arriving.
enum BodyBuf {
    /// Allocated at the announced length and never zero-filled: the `Arc`
    /// it is delivered in. Socket bytes are read, and ring bytes copied,
    /// straight into its unfilled rest.
    Sized(RxBody),
    /// The announced length is the peer's word only: grows with the bytes
    /// received.
    Growing(Vec<u8>),
}

impl BodyBuf {
    /// Copy in as much of `bytes` as the body (`want` bytes in all) still
    /// lacks; returns how many were taken.
    fn put(&mut self, want: usize, bytes: &[u8]) -> usize {
        match self {
            BodyBuf::Sized(b) => b.put(bytes),
            BodyBuf::Growing(v) => {
                let n = bytes.len().min(want - v.len());
                v.extend_from_slice(&bytes[..n]);
                n
            }
        }
    }

    /// The delivered body once all `want` bytes are in; the body in
    /// progress otherwise.
    fn finish(self, want: usize, copies: &obs::Counter) -> Result<Arc<[u8]>, Self> {
        match self {
            BodyBuf::Sized(b) => b.finish().map_err(BodyBuf::Sized),
            BodyBuf::Growing(v) if v.len() == want => {
                copies.add(want as u64);
                Ok(Arc::from(v))
            }
            growing => Err(growing),
        }
    }
}

/// Per-stream reassembly state — all a link keeps between reads: a
/// header that arrived split, and the one body still in progress.
#[derive(Default)]
struct Reassembly {
    hdr: [u8; HEADER_LEN],
    hdr_len: usize,
    body: Option<(Header, BodyBuf)>,
}

impl Reassembly {
    /// Consume `bytes` (the next bytes of the stream), appending every
    /// frame they complete to `out`. The header is peer-controlled input:
    /// a decode failure is `Err` (dead link), never a panic.
    fn feed(&mut self, mut bytes: &[u8], cx: &RxCtx<'_>, out: &mut Vec<Frame>) -> Result<(), ()> {
        while !bytes.is_empty() {
            if let Some((hdr, body)) = self.body.as_mut() {
                let took = body.put(hdr.body_len(), bytes);
                if took == 0 {
                    // Unreachable: a body in progress has room, and its
                    // `Arc` one owner.
                    return Err(());
                }
                cx.obs.rx_copy_bytes.add(took as u64);
                bytes = &bytes[took..];
                self.finish_body(cx, out);
                continue;
            }
            let hdr = if self.hdr_len == 0 && bytes.len() >= HEADER_LEN {
                let (head, rest) = bytes.split_at(HEADER_LEN);
                bytes = rest;
                Header::decode_slice(head).map_err(drop)?
            } else {
                let take = (HEADER_LEN - self.hdr_len).min(bytes.len());
                self.hdr[self.hdr_len..self.hdr_len + take].copy_from_slice(&bytes[..take]);
                self.hdr_len += take;
                bytes = &bytes[take..];
                if self.hdr_len < HEADER_LEN {
                    break;
                }
                self.hdr_len = 0;
                Header::decode(&self.hdr).map_err(drop)?
            };
            let len = hdr.body_len();
            if len == 0 {
                out.push((hdr, Arc::clone(cx.empty)));
            } else if bytes.len() >= len {
                let (body, rest) = bytes.split_at(len);
                bytes = rest;
                cx.obs.rx_copy_bytes.add(len as u64);
                out.push((hdr, Arc::from(body)));
            } else if len <= RX_BUF || (cx.granted)(&hdr) {
                self.body = Some((hdr, BodyBuf::Sized(RxBody::new(len))));
            } else {
                self.body = Some((hdr, BodyBuf::Growing(Vec::new())));
            }
        }
        Ok(())
    }

    /// Where the next bytes of the stream may land directly: a body
    /// allocated at its final size, else nowhere.
    fn direct(&mut self) -> Option<&mut RxBody> {
        match &mut self.body {
            Some((_, BodyBuf::Sized(b))) => Some(b),
            _ => None,
        }
    }

    /// How many bytes [`Self::direct`] still lacks.
    fn room(&self) -> usize {
        match &self.body {
            Some((_, BodyBuf::Sized(b))) => b.len() - b.filled(),
            _ => 0,
        }
    }

    /// Deliver the body in progress if its last byte is in.
    fn finish_body(&mut self, cx: &RxCtx<'_>, out: &mut Vec<Frame>) {
        let Some((hdr, body)) = self.body.take() else {
            return;
        };
        match body.finish(hdr.body_len(), &cx.obs.rx_copy_bytes) {
            Ok(buf) => out.push((hdr, buf)),
            Err(body) => self.body = Some((hdr, body)),
        }
    }
}

/// One connected link: socket plus reassembly and flush bookkeeping.
struct SocketLink {
    stream: Stream,
    alive: bool,
    /// Inbound *data-plane* reassembly: socket bytes for a plain link,
    /// ring bytes for an shm link.
    rx: Reassembly,
    /// Inbound *socket* reassembly of an shm link (doorbells only). Kept
    /// apart from `rx` so a nudge can never interleave into the middle of
    /// a partially-assembled ring frame.
    oob: Reassembly,
    tx: Outbox,
    /// The shared-memory sibling, when bootstrap negotiated one. All
    /// data-plane frames go through it; the socket keeps EOF + doorbell.
    shm: Option<ShmLink>,
}

impl SocketLink {
    fn new(stream: Stream) -> Self {
        SocketLink {
            stream,
            alive: true,
            rx: Reassembly::default(),
            oob: Reassembly::default(),
            tx: Outbox::default(),
            shm: None,
        }
    }

    /// Mark the link failed. A body still in progress is dropped, never
    /// finished.
    fn die(&mut self) {
        self.alive = false;
        self.rx = Reassembly::default();
        self.oob = Reassembly::default();
    }
}

/// The fabric's counters: what the data plane did, and — the count that
/// gates — every syscall it made at this seam.
#[derive(Default)]
struct FabricObs {
    writev_frames: obs::Counter,
    eager_alloc: obs::Counter,
    shm_frames: obs::Counter,
    shm_fallback: obs::Counter,
    shm_doorbell: obs::Counter,
    /// Ring slots a link's producer has written, the highest index plus
    /// one; its high-water mark is the most of any link. With rewinds it
    /// follows the bytes in flight, not the configured slot count.
    /// Registered only by a fabric with an shm link, so a socket-only
    /// fabric allocates nothing for it.
    shm_ring_hwm: Option<obs::Gauge>,
    /// Bytes user code writes on the receive path: copies out of a ring
    /// slot (into a body or the staging), copies from a buffer into a
    /// body or a delivered `Arc`. What the kernel writes is not counted;
    /// nothing is zero-filled.
    rx_copy_bytes: obs::Counter,
    sys_poll: obs::Counter,
    sys_read: obs::Counter,
    sys_write: obs::Counter,
}

/// What parsing a link's bytes needs besides the link: the engine's word
/// on which announced lengths to trust, the shared empty body, counters.
struct RxCtx<'a> {
    granted: &'a dyn Fn(&Header) -> bool,
    empty: &'a Arc<[u8]>,
    obs: &'a FabricObs,
}

/// The real fabric: one nonblocking stream socket per peer, optionally
/// doubled by a shared-memory ring pair per link.
pub struct SocketFabric {
    links: Vec<Option<SocketLink>>,
    /// Link descriptors, rank-indexed, swept once per pass.
    poll: PollSet,
    /// The one receive buffer (see module docs): capacity [`RX_BUF`],
    /// length what reads have needed so far.
    rxbuf: Vec<u8>,
    /// Staging for one ring chunk at a time (shm links only).
    chunk: Vec<u8>,
    /// The body of every bodyless frame.
    empty: Arc<[u8]>,
    obs: FabricObs,
    /// Fallbacks noted during bootstrap, before the engine existed to
    /// register counters; flushed into `shm_fallback` at registration.
    staged_fallbacks: u64,
}

impl SocketFabric {
    pub(crate) fn new(streams: Vec<Option<Stream>>) -> Self {
        SocketFabric {
            poll: PollSet::new(streams.iter().map(|s| s.as_ref().map(Stream::raw_fd))),
            links: streams
                .into_iter()
                .map(|s| s.map(SocketLink::new))
                .collect(),
            rxbuf: {
                let mut buf = Vec::with_capacity(RX_BUF);
                buf.resize(RX_BUF_MIN, 0);
                buf
            },
            chunk: Vec::new(),
            empty: Arc::from(Vec::new()),
            obs: FabricObs::default(),
            staged_fallbacks: 0,
        }
    }

    /// Attach a negotiated shared-memory ring pair to the link toward
    /// `peer` (bootstrap only, before the engine starts polling).
    pub(crate) fn attach_shm(&mut self, peer: usize, shm: ShmLink) {
        if let Some(Some(link)) = self.links.get_mut(peer) {
            link.shm = Some(shm);
        }
    }

    /// Record that shm setup toward `peer` fell back to the socket data
    /// path (once per peer; the caller prints the stderr note with its
    /// reason). Staged until `register_obs` when it happens at bootstrap.
    pub(crate) fn note_shm_fallback(&mut self) {
        self.staged_fallbacks += 1;
        // If the registry is already attached this lands immediately;
        // the staged count is re-added at registration otherwise.
        self.obs.shm_fallback.inc();
    }

    /// Does the link toward `peer` run the shared-memory data path?
    pub fn shm_active(&self, peer: usize) -> bool {
        self.links[peer].as_ref().is_some_and(|l| l.shm.is_some())
    }
}

impl FrameFabric for SocketFabric {
    fn size(&self) -> usize {
        self.links.len()
    }

    fn alive(&self, peer: usize) -> bool {
        self.links[peer].as_ref().is_some_and(|l| l.alive)
    }

    fn queue(&mut self, peer: usize, hdr: &Header, body: &[u8]) -> u64 {
        debug_assert_eq!(hdr.body_len(), body.len());
        let Some(link) = self.links[peer].as_mut() else {
            return 0;
        };
        let owned = if body.is_empty() {
            Vec::new()
        } else {
            // The allocation `queue_shared` exists to avoid: a
            // per-message staging copy on the send path.
            if matches!(hdr.kind, FrameKind::Eager | FrameKind::Data) {
                self.obs.eager_alloc.inc();
            }
            body.to_vec()
        };
        link.tx.push(hdr, Body::Owned(owned))
    }

    fn queue_shared(&mut self, peer: usize, hdr: &Header, body: &Arc<[u8]>) -> u64 {
        debug_assert_eq!(hdr.body_len(), body.len());
        let Some(link) = self.links[peer].as_mut() else {
            return 0;
        };
        link.tx.push(hdr, Body::Shared(Arc::clone(body)))
    }

    fn queued(&self, peer: usize) -> u64 {
        self.links[peer].as_ref().map_or(0, |l| l.tx.queued)
    }

    fn flushed(&self, peer: usize) -> u64 {
        self.links[peer].as_ref().map_or(0, |l| l.tx.flushed)
    }

    fn flush(&mut self, peer: usize) -> LinkPoll {
        let mut res = LinkPoll::default();
        let Some(link) = self.links[peer].as_mut() else {
            return res;
        };
        if !link.alive {
            return res;
        }
        if link.shm.is_some() {
            flush_shm(link, &self.obs, &mut res);
        } else {
            flush_socket(link, &self.obs, &mut res);
        }
        if res.died {
            link.die();
            self.poll.remove(peer);
        }
        res
    }

    /// One zero-timeout `poll(2)` over every live link descriptor. An shm
    /// link is always worth a `recv` (its ring has no descriptor); the
    /// verdict on its socket tells that `recv` whether to read it.
    fn sweep(&mut self, ready: &mut Vec<bool>) {
        if self.poll.sweep() {
            self.obs.sys_poll.inc();
        }
        ready.clear();
        ready.extend(self.links.iter().enumerate().map(|(p, l)| {
            l.as_ref()
                .is_some_and(|l| l.alive && (l.shm.is_some() || self.poll.ready(p)))
        }));
    }

    fn recv(
        &mut self,
        peer: usize,
        granted: &dyn Fn(&Header) -> bool,
        out: &mut Vec<Frame>,
    ) -> LinkPoll {
        let mut res = LinkPoll::default();
        let Some(link) = self.links[peer].as_mut() else {
            return res;
        };
        if !link.alive {
            return res;
        }
        let cx = RxCtx {
            granted,
            empty: &self.empty,
            obs: &self.obs,
        };
        let socket_ready = self.poll.ready(peer);
        if link.shm.is_some() {
            recv_shm(
                link,
                socket_ready,
                &mut self.rxbuf,
                &mut self.chunk,
                &cx,
                out,
                &mut res,
            );
        } else {
            read_socket(
                &link.stream,
                &mut link.rx,
                &mut self.rxbuf,
                &cx,
                out,
                &mut res,
            );
        }
        if res.died {
            link.die();
            self.poll.remove(peer);
        }
        res
    }

    fn register_obs(&mut self, registry: &obs::Registry) {
        let c = |n: &str| registry.counter(n);
        self.obs = FabricObs {
            writev_frames: c("wire.writev_frames"),
            eager_alloc: c("wire.eager_alloc"),
            shm_frames: c("wire.shm_frames"),
            shm_fallback: c("wire.shm_fallback"),
            shm_doorbell: c("wire.shm_doorbell"),
            shm_ring_hwm: self
                .links
                .iter()
                .flatten()
                .any(|l| l.shm.is_some())
                .then(|| registry.gauge("wire.shm_ring_hwm")),
            rx_copy_bytes: c("wire.rx_copy_bytes"),
            sys_poll: c("wire.sys.poll"),
            sys_read: c("wire.sys.read"),
            sys_write: c("wire.sys.write"),
        };
        self.obs.shm_fallback.add(self.staged_fallbacks);
    }
}

/// One read of `stream`, reassembled through `rx`. A body already
/// allocated at its final size takes its bytes straight from the kernel;
/// whatever follows it in the stream — or everything, with no such body —
/// lands in the receive buffer and is parsed from there. EOF and errors
/// mark the link dead; frames completed by earlier reads were delivered
/// by those reads, so nothing complete is lost and nothing partial
/// delivered.
fn read_socket(
    stream: &Stream,
    rx: &mut Reassembly,
    rxbuf: &mut Vec<u8>,
    cx: &RxCtx<'_>,
    out: &mut Vec<Frame>,
    res: &mut LinkPoll,
) {
    let room = rx.room();
    let got = loop {
        cx.obs.sys_read.inc();
        match crate::sys::readv_into(stream.raw_fd(), rx.direct(), rxbuf) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break 0,
        }
    };
    if got == 0 {
        res.died = true;
        return;
    }
    res.bytes += got as u64;
    res.moved = true;
    rx.finish_body(cx, out);
    let buffered = got - got.min(room);
    if rx.feed(&rxbuf[..buffered], cx, out).is_err() {
        res.died = true;
    }
    if buffered == rxbuf.len() && buffered < RX_BUF {
        rxbuf.resize(2 * buffered, 0);
    }
}

/// Vectored socket flush: up to [`MAX_WRITEV_FRAMES`] frames per
/// syscall, header and body as separate slices built on the stack — no
/// staging copy, no allocation.
fn flush_socket(link: &mut SocketLink, obs: &FabricObs, res: &mut LinkPoll) {
    let SocketLink { stream, tx, .. } = link;
    while !tx.frames.is_empty() {
        let mut slices = [IoSlice::new(&[]); 2 * MAX_WRITEV_FRAMES];
        let mut n_slices = 0;
        let mut skip = tx.off;
        for f in tx.frames.iter().take(MAX_WRITEV_FRAMES) {
            let body = f.body.as_slice();
            // Only the front frame is partially flushed (`skip` > 0).
            if skip < HEADER_LEN {
                slices[n_slices] = IoSlice::new(&f.hdr[skip..]);
                slices[n_slices + 1] = IoSlice::new(body);
                n_slices += 2;
            } else {
                slices[n_slices] = IoSlice::new(&body[skip - HEADER_LEN..]);
                n_slices += 1;
            }
            skip = 0;
        }
        obs.sys_write.inc();
        match stream.write_vectored(&slices[..n_slices]) {
            Ok(0) => {
                res.died = true;
                return;
            }
            Ok(mut n) => {
                tx.flushed += n as u64;
                res.bytes += n as u64;
                res.moved = true;
                while n > 0 {
                    let Some(front) = tx.frames.front() else {
                        break;
                    };
                    let remaining = front.wire_len() - tx.off;
                    if n >= remaining {
                        n -= remaining;
                        tx.frames.pop_front();
                        tx.off = 0;
                        obs.writev_frames.inc();
                    } else {
                        tx.off += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                res.died = true;
                return;
            }
        }
    }
}

/// Shared-memory flush: the queued frames into the ring, then — after
/// any publish — the UDS doorbell if the consumer announced it may park.
fn flush_shm(link: &mut SocketLink, obs: &FabricObs, res: &mut LinkPoll) {
    let SocketLink {
        stream, tx, shm, ..
    } = link;
    let Some(shm) = shm.as_mut() else { return };
    let hwm = shm.tx.hwm();
    let pushed = push_ring(&mut shm.tx, tx, obs, res);
    if let Some(gauge) = obs.shm_ring_hwm.as_ref().filter(|_| shm.tx.hwm() > hwm) {
        gauge.set(shm.tx.hwm().into());
    }
    if pushed && shm.tx.doorbell_needed() {
        // Best-effort nudge on the socket: the consumer's poll loop (and
        // its timeout backstop) make a dropped doorbell a latency blip,
        // never a hang.
        let bell = Header {
            kind: FrameKind::Doorbell,
            src: 0,
            tag: 0,
            xid: 0,
            len: 0,
        };
        obs.sys_write.inc();
        let _ = stream.write(&bell.encode());
        obs.shm_doorbell.inc();
    }
}

/// Copy queued frames straight into ring slots, one chunk per slot,
/// resumable mid-frame when the ring fills. Returns whether anything was
/// published.
fn push_ring<M: RingMem>(
    ring: &mut Producer<M>,
    tx: &mut Outbox,
    obs: &FabricObs,
    res: &mut LinkPoll,
) -> bool {
    let mut pushed_any = false;
    'frames: while let Some(front) = tx.frames.front() {
        let body = front.body.as_slice();
        let total = HEADER_LEN + body.len();
        while tx.off < total {
            let start = tx.off;
            let Some(end) = ring.try_push_with(|w| {
                let mut off = start;
                if off < HEADER_LEN {
                    off += w.put(&front.hdr[off..]);
                }
                if off >= HEADER_LEN {
                    off += w.put(&body[off - HEADER_LEN..]);
                }
                off
            }) else {
                break 'frames; // ring full; resume at `off` next poll
            };
            let wrote = (end - start) as u64;
            tx.off = end;
            tx.flushed += wrote;
            res.bytes += wrote;
            res.moved = true;
            pushed_any = true;
        }
        tx.frames.pop_front();
        tx.off = 0;
        obs.shm_frames.inc();
    }
    pushed_any
}

/// Shared-memory receive: read the socket if the sweep said so
/// (doorbells; EOF is how a dead peer is noticed), then drain the ring.
fn recv_shm(
    link: &mut SocketLink,
    socket_ready: bool,
    rxbuf: &mut Vec<u8>,
    staging: &mut Vec<u8>,
    cx: &RxCtx<'_>,
    out: &mut Vec<Frame>,
    res: &mut LinkPoll,
) {
    let SocketLink {
        stream,
        rx,
        oob,
        shm,
        ..
    } = link;
    let Some(shm) = shm.as_mut() else { return };
    // The socket carries only bootstrap leftovers and doorbells now, but
    // EOF here is the peer-death signal the ring cannot provide. It must
    // be looked at BEFORE the ring — the sweep that opened this pass did,
    // and the read happens here, ahead of the drain: a peer's final
    // pushes happen-before its socket close, so ring chunks published
    // ahead of a clean shutdown are guaranteed visible to the drain below
    // once EOF has been seen. (The opposite order loses a frame
    // pushed-then-closed inside the window between the two.) Death is
    // noted, not returned: chunks already in the ring are delivered
    // first. Out-of-band frames parse first too: a doorbell precedes the
    // frame it announces.
    if socket_ready {
        read_socket(stream, oob, rxbuf, cx, out, res);
    }
    drain_ring(&mut shm.rx, rx, staging, cx, out, res);
}

/// Drain the ring a chunk at a time through the data reassembly, each
/// pop shaped like [`read_socket`]'s `readv`: the body in progress takes
/// its bytes straight from the slot, and only what follows it in the
/// chunk is staged and parsed. A corrupt slot kills the link.
fn drain_ring<M: RingMem>(
    ring: &mut Consumer<M>,
    rx: &mut Reassembly,
    staging: &mut Vec<u8>,
    cx: &RxCtx<'_>,
    out: &mut Vec<Frame>,
    res: &mut LinkPoll,
) {
    let before = out.len();
    loop {
        staging.clear();
        match crate::shm::pop_into(ring, rx.direct(), staging) {
            Pop::Got(n) => {
                res.bytes += n as u64;
                res.moved = true;
                // Each byte leaves its slot by one copy: into the body, or
                // into the staging.
                cx.obs.rx_copy_bytes.add(n as u64);
                rx.finish_body(cx, out);
                if rx.feed(staging, cx, out).is_err() {
                    res.died = true;
                    break;
                }
            }
            Pop::Empty => break,
            Pop::Corrupt => {
                res.died = true;
                break;
            }
        }
    }
    cx.obs.shm_frames.add((out.len() - before) as u64);
}
#[cfg(test)]
mod tests;
