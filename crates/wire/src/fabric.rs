//! `FrameFabric` — how encoded frames move between ranks.
//!
//! The progress engine ([`crate::engine::WireComm`]) owns the *protocol*:
//! matching, eager/rendezvous state machines, peer-death semantics. This
//! trait owns the *delivery*: bytes queued toward a peer, bytes flushed,
//! whole frames arriving back out. Separating the two is what makes the
//! protocol model-checkable — the engine is generic over its fabric, so
//! `check::proto` can substitute a deterministic in-process fabric whose
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
//! yet complete is allocated at its final `Arc` and the bytes still to
//! come are read directly into it (no user-space copy), what follows it
//! in the stream landing in the receive buffer through the same vectored
//! read. Bodyless frames share one empty `Arc`.
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
//! same reassembly as socket bytes (slot → chunk staging → `Arc`).
//! [`crate::regpool::RegPool`] is no longer on this path: nothing stages
//! a body, so nothing leases one.
//!
//! [`queue`]: FrameFabric::queue
//! [`queue_shared`]: FrameFabric::queue_shared
//! [`sweep`]: FrameFabric::sweep
//! [`flushed`]: FrameFabric::flushed
//! [`flush`]: FrameFabric::flush
//! [`recv`]: FrameFabric::recv
//! [`alive`]: FrameFabric::alive

use std::collections::VecDeque;
use std::io::{IoSlice, IoSliceMut, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use crate::proto::{FrameKind, Header, HEADER_LEN};
use crate::shm::ShmLink;
use crate::sys::PollSet;

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

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read_vectored(bufs),
            Stream::Tcp(s) => s.read_vectored(bufs),
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
    /// Allocated at the announced length — the `Arc` it is delivered in;
    /// `filled` bytes are in. Socket bytes are read straight into the
    /// rest.
    Sized { buf: Arc<[u8]>, filled: usize },
    /// The announced length is the peer's word only: grows with the bytes
    /// received.
    Growing(Vec<u8>),
}

impl BodyBuf {
    fn filled(&self) -> usize {
        match self {
            BodyBuf::Sized { filled, .. } => *filled,
            BodyBuf::Growing(v) => v.len(),
        }
    }

    /// Copy in as much of `bytes` as the body still lacks; returns how
    /// many were taken, or `None` if the destination is not writable
    /// (unreachable: an in-progress `Arc` has one owner).
    fn put(&mut self, want: usize, bytes: &[u8]) -> Option<usize> {
        let n = bytes.len().min(want - self.filled());
        match self {
            BodyBuf::Sized { buf, filled } => {
                Arc::get_mut(buf)?[*filled..*filled + n].copy_from_slice(&bytes[..n]);
                *filled += n;
            }
            BodyBuf::Growing(v) => v.extend_from_slice(&bytes[..n]),
        }
        Some(n)
    }

    fn finish(self) -> Arc<[u8]> {
        match self {
            BodyBuf::Sized { buf, .. } => buf,
            BodyBuf::Growing(v) => Arc::from(v),
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
    fn feed(
        &mut self,
        mut bytes: &[u8],
        granted: &dyn Fn(&Header) -> bool,
        empty: &Arc<[u8]>,
        out: &mut Vec<Frame>,
    ) -> Result<(), ()> {
        while !bytes.is_empty() {
            if let Some((hdr, body)) = self.body.as_mut() {
                let took = body.put(hdr.body_len(), bytes).ok_or(())?;
                bytes = &bytes[took..];
                self.finish_body(out);
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
                out.push((hdr, Arc::clone(empty)));
            } else if bytes.len() >= len {
                let (body, rest) = bytes.split_at(len);
                bytes = rest;
                out.push((hdr, Arc::from(body)));
            } else if len <= RX_BUF || granted(&hdr) {
                let buf = std::iter::repeat_n(0u8, len).collect();
                self.body = Some((hdr, BodyBuf::Sized { buf, filled: 0 }));
            } else {
                self.body = Some((hdr, BodyBuf::Growing(Vec::new())));
            }
        }
        Ok(())
    }

    /// Where the kernel may write the next bytes of the stream directly:
    /// the unfilled rest of a body allocated at its final size, else
    /// nothing.
    fn direct(&mut self) -> &mut [u8] {
        match &mut self.body {
            Some((_, BodyBuf::Sized { buf, filled })) => {
                Arc::get_mut(buf).map_or(&mut [], |b| &mut b[*filled..])
            }
            _ => &mut [],
        }
    }

    /// `n` bytes were written into [`Self::direct`].
    fn filled_direct(&mut self, n: usize, out: &mut Vec<Frame>) {
        if let Some((_, BodyBuf::Sized { filled, .. })) = &mut self.body {
            *filled += n;
        }
        self.finish_body(out);
    }

    /// Deliver the body in progress if its last byte is in.
    fn finish_body(&mut self, out: &mut Vec<Frame>) {
        if let Some((hdr, body)) = self.body.take_if(|(h, b)| b.filled() == h.body_len()) {
            out.push((hdr, body.finish()));
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
    /// Queued frames not yet fully flushed; `out_off` is how many bytes
    /// of the front frame already went out.
    out: VecDeque<OutFrame>,
    out_off: usize,
    /// Cumulative bytes ever queued / ever flushed on this link.
    queued_total: u64,
    flushed_total: u64,
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
            out: VecDeque::new(),
            out_off: 0,
            queued_total: 0,
            flushed_total: 0,
            shm: None,
        }
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
    sys_poll: obs::Counter,
    sys_read: obs::Counter,
    sys_write: obs::Counter,
}

/// What the receive functions share besides the link: the fabric's one
/// receive buffer, its ring-chunk staging, the empty body and counters.
struct RxCtx<'a> {
    rxbuf: &'a mut Vec<u8>,
    chunk: &'a mut Vec<u8>,
    empty: &'a Arc<[u8]>,
    obs: &'a FabricObs,
    granted: &'a dyn Fn(&Header) -> bool,
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
        link.out.push_back(OutFrame {
            hdr: hdr.encode(),
            body: Body::Owned(owned),
        });
        link.queued_total += (HEADER_LEN + body.len()) as u64;
        link.queued_total
    }

    fn queue_shared(&mut self, peer: usize, hdr: &Header, body: &Arc<[u8]>) -> u64 {
        debug_assert_eq!(hdr.body_len(), body.len());
        let Some(link) = self.links[peer].as_mut() else {
            return 0;
        };
        link.out.push_back(OutFrame {
            hdr: hdr.encode(),
            body: Body::Shared(Arc::clone(body)),
        });
        link.queued_total += (HEADER_LEN + body.len()) as u64;
        link.queued_total
    }

    fn queued(&self, peer: usize) -> u64 {
        self.links[peer].as_ref().map_or(0, |l| l.queued_total)
    }

    fn flushed(&self, peer: usize) -> u64 {
        self.links[peer].as_ref().map_or(0, |l| l.flushed_total)
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
            link.alive = false;
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
        let mut cx = RxCtx {
            rxbuf: &mut self.rxbuf,
            chunk: &mut self.chunk,
            empty: &self.empty,
            obs: &self.obs,
            granted,
        };
        if link.shm.is_some() {
            recv_shm(link, self.poll.ready(peer), &mut cx, out, &mut res);
        } else {
            let SocketLink { stream, rx, .. } = link;
            read_socket(stream, rx, &mut cx, out, &mut res);
        }
        if res.died {
            link.alive = false;
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
    stream: &mut Stream,
    rx: &mut Reassembly,
    cx: &mut RxCtx<'_>,
    out: &mut Vec<Frame>,
    res: &mut LinkPoll,
) {
    let got = loop {
        cx.obs.sys_read.inc();
        let mut bufs = [IoSliceMut::new(rx.direct()), IoSliceMut::new(cx.rxbuf)];
        match stream.read_vectored(&mut bufs) {
            Ok(0) => break 0,
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
    let direct = got.min(rx.direct().len());
    rx.filled_direct(direct, out);
    let buffered = got - direct;
    if rx
        .feed(&cx.rxbuf[..buffered], cx.granted, cx.empty, out)
        .is_err()
    {
        res.died = true;
    }
    if buffered == cx.rxbuf.len() && buffered < RX_BUF {
        cx.rxbuf.resize(2 * buffered, 0);
    }
}

/// Vectored socket flush: up to [`MAX_WRITEV_FRAMES`] frames per
/// syscall, header and body as separate slices built on the stack — no
/// staging copy, no allocation.
fn flush_socket(link: &mut SocketLink, obs: &FabricObs, res: &mut LinkPoll) {
    while !link.out.is_empty() {
        let mut slices = [IoSlice::new(&[]); 2 * MAX_WRITEV_FRAMES];
        let mut n_slices = 0;
        let mut skip = link.out_off;
        for f in link.out.iter().take(MAX_WRITEV_FRAMES) {
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
        match link.stream.write_vectored(&slices[..n_slices]) {
            Ok(0) => {
                res.died = true;
                return;
            }
            Ok(mut n) => {
                link.flushed_total += n as u64;
                res.bytes += n as u64;
                res.moved = true;
                while n > 0 {
                    let Some(front) = link.out.front() else { break };
                    let remaining = front.wire_len() - link.out_off;
                    if n >= remaining {
                        n -= remaining;
                        link.out.pop_front();
                        link.out_off = 0;
                        obs.writev_frames.inc();
                    } else {
                        link.out_off += n;
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

/// Shared-memory flush: copy queued frames straight into ring slots, one
/// chunk per slot, resumable mid-frame when the ring fills. After any
/// publish, ring the UDS doorbell if the consumer announced it may park.
fn flush_shm(link: &mut SocketLink, obs: &FabricObs, res: &mut LinkPoll) {
    let SocketLink {
        stream,
        out,
        out_off,
        flushed_total,
        shm,
        ..
    } = link;
    let Some(shm) = shm.as_mut() else { return };
    let mut pushed_any = false;
    'frames: while let Some(front) = out.front() {
        let body = front.body.as_slice();
        let total = HEADER_LEN + body.len();
        while *out_off < total {
            let start = *out_off;
            let Some(end) = shm.tx.try_push_with(|w| {
                let mut off = start;
                if off < HEADER_LEN {
                    off += w.put(&front.hdr[off..]);
                }
                if off >= HEADER_LEN {
                    off += w.put(&body[off - HEADER_LEN..]);
                }
                off
            }) else {
                break 'frames; // ring full; resume at out_off next poll
            };
            let wrote = (end - start) as u64;
            *out_off = end;
            *flushed_total += wrote;
            res.bytes += wrote;
            res.moved = true;
            pushed_any = true;
        }
        out.pop_front();
        *out_off = 0;
        obs.shm_frames.inc();
    }
    if pushed_any && shm.tx.doorbell_needed() {
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

/// Shared-memory receive: read the socket if the sweep said so
/// (doorbells; EOF is how a dead peer is noticed), then drain the ring a
/// chunk at a time through the data reassembly.
fn recv_shm(
    link: &mut SocketLink,
    socket_ready: bool,
    cx: &mut RxCtx<'_>,
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
        read_socket(stream, oob, cx, out, res);
    }
    let before = out.len();
    loop {
        cx.chunk.clear();
        match shm.rx.try_pop(cx.chunk) {
            shmring::Pop::Got(n) => {
                res.bytes += n as u64;
                res.moved = true;
                if rx.feed(cx.chunk, cx.granted, cx.empty, out).is_err() {
                    res.died = true;
                    break;
                }
            }
            shmring::Pop::Empty => break,
            shmring::Pop::Corrupt => {
                res.died = true;
                break;
            }
        }
    }
    cx.obs.shm_frames.add((out.len() - before) as u64);
}
#[cfg(test)]
mod tests;
