//! `wire::shm` — the shared-memory data plane.
//!
//! Third transport sibling next to UDS and TCP: for each intra-node peer
//! pair, bootstrap creates one memfd-backed segment, passes its FD over
//! the already-connected UDS handshake (`SCM_RIGHTS`), and both sides
//! map it. Inside the segment live two fixed-slot SPSC rings (one per
//! direction) running the [`shmring`] protocol; after bootstrap, *all*
//! frames for that peer flow through the rings — the socket is kept only
//! for peer-death detection (EOF) and the park/doorbell nudge. The data
//! path makes no syscall and allocates no per-message buffer.
//!
//! # Segment layout
//!
//! All offsets 64-byte aligned; geometry fixed at creation and echoed in
//! the bootstrap offer so the acceptor validates before trusting it:
//!
//! ```text
//! [ SegHdr: magic u64, version u32, slots u32, slot_size u32 ]
//! per ring r ∈ {0: lower→higher, 1: higher→lower}:
//!   [ slots × SlotCtl { seq: AtomicU64, len: AtomicU32, _pad u32 } ]
//!   [ parked: AtomicU32 (own cache line) ]
//!   [ slots × slot_size payload bytes ]
//! ```
//!
//! The layout is that of version 1; version 2 changed what the control
//! words may say (below), so a version-1 peer is refused at map time.
//!
//! # Rewind and the SKIP record
//!
//! A producer whose ring has drained rewinds to slot 0 of the next lap
//! once its slot index reaches `slots / 8` (see [`shmring`]): it
//! publishes one SKIP record — `len = u32::MAX`, no payload — in its
//! head slot, and the consumer that pops it jumps to the same lap start.
//! The segment's resident pages then follow the bytes in flight (about
//! 19 slots a direction on a 256 KiB rendezvous exchange) instead of the
//! whole ring. Slots a rewind passed over keep an older lap's free
//! value. What the consumer makes of its tail slot at position `t`
//! (`N` slots, `R = N / 8`, `idx = t mod N`):
//!
//! | `seq` | `len` | pop |
//! |---|---|---|
//! | `t + 1` | `≤ slot_size` | `Got(len)`: one chunk |
//! | `t + 1` | `u32::MAX`, `R ≥ 1` and `idx ≥ R` | SKIP: recycle, jump to the next lap's slot 0, look again |
//! | `t + 1` | `u32::MAX` otherwise | `Corrupt` |
//! | `t + 1` | any other `> slot_size` | `Corrupt` |
//! | `≡ t (mod N)`, at or behind `t` | any | `Empty` |
//! | anything else | any | `Corrupt` |
//!
//! The producer claims its head slot at position `h` only on a free
//! value (`≡ h (mod N)`, at or behind `h`); any other value reads as
//! full. SKIP never reaches the fabric: chunks are bytes, and it carries
//! none.
//!
//! # Trust model
//!
//! The far side of the segment is another process and therefore
//! *untrusted input*, exactly like socket bytes: every value read out of
//! shared memory (header fields at map time, `seq`/`len` at run time) is
//! validated or tolerated. A hostile peer can wedge or kill its own
//! links — never panic this process or make it read out of bounds. A
//! forged SKIP can do no more: the consumer takes at most one per pop
//! (the slot it leads to, a lap's first, may not hold another), and one
//! below `R` kills the link like any other corrupt slot.
//!
//! # Fallback matrix
//!
//! Any failure on this path — kernel without `memfd_create` (a tempfile
//! takes over), a sandbox denying FD passing, a TCP mesh (no FD channel
//! at all), a peer that failed to map — degrades that peer pair to the
//! plain socket data path, counted once per peer in `wire.shm_fallback`
//! with one stderr note. Never a panic, and the two sides always agree
//! (the offer/ack handshake is two-way).
//!
//! This module is the designated home of the subsystem's `unsafe`: raw
//! glibc calls (`mmap`/`sendmsg`/…, declared here — the workspace builds
//! offline with no libc crate) and the pointer-backed [`shmring::RingMem`]
//! impl. `offload-lint` enforces that confinement.

use std::io;
use std::mem::MaybeUninit;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use shmring::{Pop, RingMem};

use crate::fabric::Stream;
use crate::proto::{FrameKind, Header, HEADER_LEN};
use crate::sys::RxBody;

/// Default ring geometry: 128 slots × 16 KiB ≈ 2 MiB per direction of
/// capacity, not footprint: rewinds keep resident only the slots the
/// traffic in flight needs (`wire.shm_ring_hwm`). A slot comfortably
/// holds the largest eager frame (`WIRE_EAGER_MAX` defaults to 4 KiB +
/// header); rendezvous payloads chunk across slots.
pub const DEFAULT_SLOTS: u32 = 128;
pub const DEFAULT_SLOT_BYTES: u32 = 16 * 1024;

/// Peer-offered geometry bounds: a hostile offer cannot make us map a
/// monster segment or a degenerate ring.
const MAX_SLOTS: u32 = 1 << 15;
const MIN_SLOT_BYTES: u32 = 64;
const MAX_SLOT_BYTES: u32 = 1 << 24;

const SEG_MAGIC: u64 = 0x5752_5348_4d31_u64; // "WRSHM1"
/// 2: rings rewind (SKIP records, free values of older laps). A
/// version-1 peer would read a SKIP as a corrupt slot.
const SEG_VERSION: u32 = 2;

/// Offer/ack verdict carried in the `Shm` frame's `tag`.
const SHM_TAG_OK: u32 = 1;
const SHM_TAG_UNAVAILABLE: u32 = 0;

// ---------------------------------------------------------------------------
// Raw glibc surface (declared, not linked through a crate: std already
// links libc). Everything here is wrapped immediately below; nothing
// else in `crates/wire` may say `unsafe`.
// ---------------------------------------------------------------------------

#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut u8,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

/// One-fd control buffer: `cmsghdr` (16 bytes on LP64) + 4 fd bytes,
/// padded to the 8-byte cmsg alignment.
#[repr(C, align(8))]
struct CmsgBuf([u8; 24]);

const CMSG_LEN_ONE_FD: usize = 16 + 4;
const SOL_SOCKET: i32 = 1;
const SCM_RIGHTS: i32 = 1;
const MSG_CMSG_CLOEXEC: i32 = 0x4000_0000;

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const MFD_CLOEXEC: u32 = 1;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn ftruncate(fd: i32, len: i64) -> i32;
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn syscall(num: i64, ...) -> i64;
}

#[cfg(target_arch = "x86_64")]
const SYS_MEMFD_CREATE: i64 = 319;
#[cfg(target_arch = "aarch64")]
const SYS_MEMFD_CREATE: i64 = 279;

/// `memfd_create(2)` via raw syscall (glibc's wrapper is newer than some
/// sandboxes admit); `None` when the kernel or arch does not offer it.
fn memfd_create() -> Option<OwnedFd> {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        let name = b"wire-shm\0";
        // SAFETY: the name pointer is a valid NUL-terminated string for
        // the duration of the call; memfd_create touches no other memory
        // of ours. A negative return is an error, not a fd.
        let fd = unsafe { syscall(SYS_MEMFD_CREATE, name.as_ptr(), MFD_CLOEXEC as i64) };
        if fd < 0 {
            return None;
        }
        // SAFETY: the kernel just returned this fd to us; nothing else
        // owns it yet.
        Some(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// Anonymous-by-unlink tempfile fallback when memfd is unavailable:
/// prefer `/dev/shm` (actual shared memory) over the generic temp dir.
fn tmpfile_fd() -> io::Result<OwnedFd> {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let shm_dir = std::path::Path::new("/dev/shm");
    let dir = if shm_dir.is_dir() {
        shm_dir.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    // ORDERING: Relaxed — a process-local serial for name uniqueness.
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("wire-shm-{}-{serial}", std::process::id()));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    // Unlink immediately: the fd is the only handle, so the backing
    // object dies with the processes like a memfd would.
    let _ = std::fs::remove_file(&path);
    Ok(file.into())
}

/// Grow `fd` to `len` bytes.
fn grow_fd(fd: RawFd, len: u64) -> io::Result<()> {
    // SAFETY: plain syscall on a fd we own; no memory is touched.
    let rc = unsafe { ftruncate(fd, len as i64) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A mapped segment; unmapped on drop. Shared by both ring endpoints of
/// a loopback pair via `Arc`.
pub(crate) struct SegmentMap {
    base: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain shared memory; all concurrent access goes
// through the atomics and the ring protocol's discipline.
unsafe impl Send for SegmentMap {}
// SAFETY: as above — `&SegmentMap` only exposes the base pointer.
unsafe impl Sync for SegmentMap {}

impl Drop for SegmentMap {
    fn drop(&mut self) {
        // SAFETY: we mapped exactly (base, len) and nothing else aliases
        // the range once both ring endpoints (which hold the Arc) died.
        unsafe {
            munmap(self.base, self.len);
        }
    }
}

fn map_fd(fd: RawFd, len: usize) -> io::Result<SegmentMap> {
    // SAFETY: we request a fresh shared mapping of a fd sized to `len`
    // by its creator; MAP_FAILED (== -1) is checked before use.
    let base = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            fd,
            0,
        )
    };
    if base as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    Ok(SegmentMap { base, len })
}

// ---------------------------------------------------------------------------
// Segment layout
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SegLayout {
    slots: u32,
    slot_size: u32,
    /// Per-ring offsets: (ctl, parked, data).
    ring: [(usize, usize, usize); 2],
    total: usize,
}

const SLOT_CTL_BYTES: usize = 16;

fn align64(n: usize) -> usize {
    (n + 63) & !63
}

/// Validate geometry (peer-controlled on the accept side) and compute
/// the layout.
fn layout(slots: u32, slot_size: u32) -> io::Result<SegLayout> {
    if !slots.is_power_of_two() || !(2..=MAX_SLOTS).contains(&slots) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad shm slot count {slots}"),
        ));
    }
    if !(MIN_SLOT_BYTES..=MAX_SLOT_BYTES).contains(&slot_size) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad shm slot size {slot_size}"),
        ));
    }
    let mut off = align64(32); // SegHdr
    let mut ring = [(0, 0, 0); 2];
    for r in &mut ring {
        let ctl = off;
        off = align64(ctl + slots as usize * SLOT_CTL_BYTES);
        let parked = off;
        off = align64(parked + 4);
        let data = off;
        off = align64(data + slots as usize * slot_size as usize);
        *r = (ctl, parked, data);
    }
    Ok(SegLayout {
        slots,
        slot_size,
        ring,
        total: off,
    })
}

// ---------------------------------------------------------------------------
// RingMem over the mapping
// ---------------------------------------------------------------------------

/// One ring direction's memory inside a mapped segment. The raw-pointer
/// `RingMem` impl lives here so `shmring` itself stays safe code.
pub(crate) struct ShmMem {
    /// Keeps the mapping alive as long as any endpoint exists.
    _seg: Arc<SegmentMap>,
    ctl: *mut u8,
    parked: *mut u8,
    data: *mut u8,
    slots: u32,
    slot_size: u32,
}

// SAFETY: the pointers target a shared mapping owned (kept alive) by the
// Arc'd SegmentMap; the ring protocol disciplines all concurrent access.
unsafe impl Send for ShmMem {}

impl ShmMem {
    fn new(seg: &Arc<SegmentMap>, lay: &SegLayout, ring: usize) -> ShmMem {
        let (ctl, parked, data) = lay.ring[ring];
        // SAFETY: layout() bounded every offset inside `seg.len`; the
        // adds cannot leave the mapping.
        unsafe {
            ShmMem {
                _seg: Arc::clone(seg),
                ctl: seg.base.add(ctl),
                parked: seg.base.add(parked),
                data: seg.base.add(data),
                slots: lay.slots,
                slot_size: lay.slot_size,
            }
        }
    }

    fn slot_data(&self, slot: u32) -> *mut u8 {
        // SAFETY: slot < slots (the ring protocol masks positions), and
        // layout() sized the data area to slots × slot_size.
        unsafe { self.data.add(slot as usize * self.slot_size as usize) }
    }
}

// SAFETY: `read` copies `min(n, direct.len())` slot bytes into `direct`.
unsafe impl shmring::RingMem for ShmMem {
    fn slots(&self) -> u32 {
        self.slots
    }

    fn slot_size(&self) -> u32 {
        self.slot_size
    }

    fn seq(&self, slot: u32) -> &AtomicU64 {
        // SAFETY: the SlotCtl array is 64-aligned with 16-byte entries,
        // so entry `slot` holds a properly aligned AtomicU64 at offset 0;
        // atomics are valid over shared-mapping bytes.
        unsafe { &*(self.ctl.add(slot as usize * SLOT_CTL_BYTES) as *const AtomicU64) }
    }

    fn len(&self, slot: u32) -> &AtomicU32 {
        // SAFETY: as `seq`, at entry offset 8 (4-byte aligned).
        unsafe { &*(self.ctl.add(slot as usize * SLOT_CTL_BYTES + 8) as *const AtomicU32) }
    }

    fn parked(&self) -> &AtomicU32 {
        // SAFETY: `parked` points at a 64-aligned word inside the mapping.
        unsafe { &*(self.parked as *const AtomicU32) }
    }

    fn write(&self, slot: u32, off: u32, data: &[u8]) {
        let off = off as usize;
        let cap = self.slot_size as usize;
        // The ring protocol clips chunks to the slot; clip again here so
        // no caller mistake can write past the slot's payload area.
        let n = data.len().min(cap.saturating_sub(off));
        // SAFETY: dst stays within this slot's payload (bounds clamped
        // above); src is a live borrow. The peer process may read these
        // bytes concurrently only after the seq publish that follows.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.slot_data(slot).add(off), n);
        }
    }

    fn read(&self, slot: u32, n: u32, direct: &mut [MaybeUninit<u8>], out: &mut Vec<u8>) {
        let n = (n.min(self.slot_size)) as usize;
        let d = n.min(direct.len());
        let start = out.len();
        out.reserve(n - d);
        // SAFETY: src is within this slot's payload (n clamped to
        // slot_size); the destinations are `direct[..d]` and the `n - d`
        // bytes just reserved past `out.len()`, which the copy initialises
        // before `set_len` exposes them. The producer does not rewrite a
        // published slot until we recycle it — and if a hostile peer does
        // anyway, we copy torn bytes, which the frame parser then rejects;
        // never UB on our side.
        unsafe {
            let src = self.slot_data(slot);
            std::ptr::copy_nonoverlapping(src, direct.as_mut_ptr().cast::<u8>(), d);
            std::ptr::copy_nonoverlapping(src.add(d), out.as_mut_ptr().add(start), n - d);
            out.set_len(start + n - d);
        }
    }
}

/// One ring pop shaped like [`crate::sys::readv_into`]: the chunk fills
/// the unfilled rest of `body` first, and only what follows that body is
/// appended to `staging`. On `Got(n)` the body's share is already counted
/// filled.
pub(crate) fn pop_into<M: RingMem>(
    ring: &mut shmring::Consumer<M>,
    body: Option<&mut RxBody>,
    staging: &mut Vec<u8>,
) -> Pop {
    let Some(body) = body else {
        return ring.try_pop(staging);
    };
    let spare = body.spare();
    let room = spare.len();
    let pop = ring.try_pop_into(spare, staging);
    if let Pop::Got(n) = pop {
        // SAFETY: `try_pop_into` handed `spare` to `RingMem::read`, whose
        // contract (an `unsafe trait`) is to initialise its first
        // `min(n, room)` bytes.
        unsafe { body.advance(n.min(room)) };
    }
    pop
}

/// Both directions of one peer pair's data plane.
pub(crate) struct ShmLink {
    pub(crate) tx: shmring::Producer<ShmMem>,
    pub(crate) rx: shmring::Consumer<ShmMem>,
}

/// Build the two endpoints over a mapped segment. Ring 0 carries
/// lower-rank → higher-rank traffic.
fn link_from_map(seg: &Arc<SegmentMap>, lay: &SegLayout, i_am_lower: bool) -> ShmLink {
    let (tx_ring, rx_ring) = if i_am_lower { (0, 1) } else { (1, 0) };
    ShmLink {
        tx: shmring::Producer::new(ShmMem::new(seg, lay, tx_ring)),
        rx: shmring::Consumer::new(ShmMem::new(seg, lay, rx_ring)),
    }
}

/// Read one u64/u32 out of the segment header area.
fn seg_hdr_atomics(seg: &SegmentMap) -> (&AtomicU64, &AtomicU32, &AtomicU32, &AtomicU32) {
    // SAFETY: layout() reserves 64 bytes at offset 0; magic at 0 (8-
    // aligned), version/slots/slot_size at 8/12/16 (4-aligned). Atomics
    // because the acceptor reads what the creator wrote cross-process.
    unsafe {
        (
            &*(seg.base as *const AtomicU64),
            &*(seg.base.add(8) as *const AtomicU32),
            &*(seg.base.add(12) as *const AtomicU32),
            &*(seg.base.add(16) as *const AtomicU32),
        )
    }
}

/// Create, size and initialise a fresh segment (creator side).
fn create_segment(lay: &SegLayout) -> io::Result<(OwnedFd, Arc<SegmentMap>)> {
    let fd = match memfd_create() {
        Some(fd) => fd,
        None => tmpfile_fd()?,
    };
    grow_fd(fd.as_raw_fd(), lay.total as u64)?;
    let seg = Arc::new(map_fd(fd.as_raw_fd(), lay.total)?);
    let (magic, version, slots, slot_size) = seg_hdr_atomics(&seg);
    // ORDERING: Relaxed — the fd handoff over sendmsg/recvmsg orders
    // these inits before any peer access.
    magic.store(SEG_MAGIC, Ordering::Relaxed);
    version.store(SEG_VERSION, Ordering::Relaxed);
    slots.store(lay.slots, Ordering::Relaxed);
    slot_size.store(lay.slot_size, Ordering::Relaxed);
    for ring in 0..2 {
        let mem = ShmMem::new(&seg, lay, ring);
        for i in 0..lay.slots {
            // ORDERING: Relaxed — pre-publication init, ordered by the
            // fd handoff like the header above.
            mem.seq(i).store(i as u64, Ordering::Relaxed);
            mem.len(i).store(0, Ordering::Relaxed);
        }
        mem.parked().store(0, Ordering::Relaxed);
    }
    Ok((fd, seg))
}

/// In-process pair over one segment (loopback transport and tests):
/// exercises the real memfd/mmap path, minus the FD passing.
pub(crate) fn loopback_pair(slots: u32, slot_size: u32) -> io::Result<(ShmLink, ShmLink)> {
    let lay = layout(slots, slot_size)?;
    let (_fd, seg) = create_segment(&lay)?;
    Ok((
        link_from_map(&seg, &lay, true),
        link_from_map(&seg, &lay, false),
    ))
}

// ---------------------------------------------------------------------------
// FD passing over the bootstrap UDS stream
// ---------------------------------------------------------------------------

/// Send `bytes` (a Shm offer header) with `fd` attached via SCM_RIGHTS.
/// The fd rides with the first byte; any remainder is written plainly.
fn send_with_fd(sock: RawFd, bytes: &[u8], fd: RawFd) -> io::Result<()> {
    let mut iov = IoVec {
        base: bytes.as_ptr() as *mut u8,
        len: bytes.len(),
    };
    let mut cbuf = CmsgBuf([0; 24]);
    cbuf.0[..8].copy_from_slice(&CMSG_LEN_ONE_FD.to_ne_bytes());
    cbuf.0[8..12].copy_from_slice(&SOL_SOCKET.to_ne_bytes());
    cbuf.0[12..16].copy_from_slice(&SCM_RIGHTS.to_ne_bytes());
    cbuf.0[16..20].copy_from_slice(&fd.to_ne_bytes());
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: cbuf.0.as_mut_ptr(),
        controllen: 24,
        flags: 0,
    };
    let sent = loop {
        // SAFETY: msg points at live iov/control buffers for the call's
        // duration; the socket fd is owned by the caller's stream.
        let rc = unsafe { sendmsg(sock, &msg, 0) };
        if rc >= 0 {
            break rc as usize;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    };
    if sent == 0 {
        return Err(io::Error::new(io::ErrorKind::WriteZero, "shm offer EOF"));
    }
    // Ancillary data went with the first byte; finish the header plainly.
    let mut done = sent;
    while done < bytes.len() {
        let rc = loop {
            // SAFETY: plain sendmsg over the remaining byte range.
            let mut iov = IoVec {
                base: bytes[done..].as_ptr() as *mut u8,
                len: bytes.len() - done,
            };
            let msg = MsgHdr {
                name: std::ptr::null_mut(),
                namelen: 0,
                iov: &mut iov,
                iovlen: 1,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            };
            // SAFETY: as above — live iov, no control buffer.
            let rc = unsafe { sendmsg(sock, &msg, 0) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if rc == 0 {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "shm offer EOF"));
        }
        done += rc;
    }
    Ok(())
}

/// Receive exactly `buf.len()` bytes, capturing one SCM_RIGHTS fd if the
/// peer attached one (it rides the first chunk).
fn recv_with_fd(sock: RawFd, buf: &mut [u8]) -> io::Result<Option<OwnedFd>> {
    let mut got = 0usize;
    let mut fd_out: Option<OwnedFd> = None;
    while got < buf.len() {
        let mut iov = IoVec {
            base: buf[got..].as_mut_ptr(),
            len: buf.len() - got,
        };
        let mut cbuf = CmsgBuf([0; 24]);
        let mut msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: cbuf.0.as_mut_ptr(),
            controllen: 24,
            flags: 0,
        };
        // SAFETY: msg points at live iov/control buffers for the call's
        // duration; the socket fd outlives the call.
        let rc = unsafe { recvmsg(sock, &mut msg, MSG_CMSG_CLOEXEC) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if rc == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF in shm handshake",
            ));
        }
        got += rc as usize;
        if fd_out.is_none() && msg.controllen >= CMSG_LEN_ONE_FD {
            let clen = usize::from_ne_bytes(cbuf.0[..8].try_into().unwrap_or([0; 8]));
            let level = i32::from_ne_bytes(cbuf.0[8..12].try_into().unwrap_or([0; 4]));
            let typ = i32::from_ne_bytes(cbuf.0[12..16].try_into().unwrap_or([0; 4]));
            if clen >= CMSG_LEN_ONE_FD && level == SOL_SOCKET && typ == SCM_RIGHTS {
                let fd = RawFd::from_ne_bytes(cbuf.0[16..20].try_into().unwrap_or([0; 4]));
                if fd >= 0 {
                    // SAFETY: the kernel installed this fd into our table
                    // for us to own.
                    fd_out = Some(unsafe { OwnedFd::from_raw_fd(fd) });
                }
            }
        }
    }
    Ok(fd_out)
}

// ---------------------------------------------------------------------------
// Bootstrap handshake
// ---------------------------------------------------------------------------

fn shm_header(rank: u32, tag: u32, slots: u32, slot_size: u32) -> Header {
    Header {
        kind: FrameKind::Shm,
        src: rank,
        tag,
        xid: slots,
        len: slot_size as u64,
    }
}

fn uds_fd(stream: &Stream) -> Option<RawFd> {
    match stream {
        Stream::Uds(s) => Some(s.as_raw_fd()),
        Stream::Tcp(_) => None,
    }
}

/// Creator side (the lower rank, on its accepted stream, still
/// blocking): create the segment, offer it with the fd attached, await
/// the ack. `Ok(None)` is the graceful-fallback verdict — both sides
/// agreed to stay on the socket; `Err` only for handshake-breaking I/O
/// (the caller treats the peer as unreachable, as for a Hello failure).
pub(crate) fn offer_segment(
    stream: &mut Stream,
    rank: u32,
    slots: u32,
    slot_size: u32,
    force_fallback: bool,
) -> io::Result<Option<ShmLink>> {
    let Some(sock) = uds_fd(stream) else {
        // TCP mesh: no fd channel. Both sides skip this step without
        // writing a byte — the bootstrap only runs it on UDS meshes, and
        // this guard keeps even a mixed-up caller from leaving a stray
        // frame in the stream.
        return Ok(None);
    };
    let prepared = if force_fallback {
        None
    } else {
        layout(slots, slot_size)
            .and_then(|lay| create_segment(&lay).map(|(fd, seg)| (lay, fd, seg)))
            .ok()
    };
    let Some((lay, fd, seg)) = prepared else {
        // No segment to offer: say so in-band; no ack round is needed
        // because nothing was mapped on either side.
        stream.write_all_blocking(&shm_header(rank, SHM_TAG_UNAVAILABLE, 0, 0).encode())?;
        return Ok(None);
    };
    let offer = shm_header(rank, SHM_TAG_OK, lay.slots, lay.slot_size).encode();
    send_with_fd(sock, &offer, fd.as_raw_fd())?;
    drop(fd); // the peer holds its own reference now
    let mut ack = [0u8; HEADER_LEN];
    stream.read_exact_blocking(&mut ack)?;
    let ack = Header::decode(&ack)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("shm ack: {e}")))?;
    if ack.kind != FrameKind::Shm {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected shm ack, got {:?}", ack.kind),
        ));
    }
    if ack.tag != SHM_TAG_OK {
        return Ok(None); // peer could not map; segment unmaps with `seg`
    }
    Ok(Some(link_from_map(&seg, &lay, true)))
}

/// Acceptor side (the higher rank, right after its Hello): receive the
/// offer (+fd), map and validate, ack the verdict. `Ok(None)` = agreed
/// fallback, as above.
pub(crate) fn accept_segment(stream: &mut Stream, rank: u32) -> io::Result<Option<ShmLink>> {
    let Some(sock) = uds_fd(stream) else {
        // TCP mesh: no fd channel — but the creator also knows that only
        // UDS offers arrive here, so this path is never reached (shm is
        // negotiated on UDS meshes only). Kept for defense.
        return Ok(None);
    };
    let mut offer = [0u8; HEADER_LEN];
    let fd = recv_with_fd(sock, &mut offer)?;
    let offer = Header::decode(&offer)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("shm offer: {e}")))?;
    if offer.kind != FrameKind::Shm {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected shm offer, got {:?}", offer.kind),
        ));
    }
    if offer.tag != SHM_TAG_OK {
        return Ok(None); // creator fell back before mapping anything
    }
    // Peer-controlled geometry: validate before mapping, and check the
    // segment's own header against the offer after mapping.
    let mapped = fd.and_then(|fd| {
        let lay = layout(offer.xid, offer.len as u32).ok()?;
        let seg = Arc::new(map_fd(fd.as_raw_fd(), lay.total).ok()?);
        let (magic, version, slots, slot_size) = seg_hdr_atomics(&seg);
        // ORDERING: Relaxed — the fd handoff ordered the creator's init.
        let ok = magic.load(Ordering::Relaxed) == SEG_MAGIC
            && version.load(Ordering::Relaxed) == SEG_VERSION
            && slots.load(Ordering::Relaxed) == lay.slots
            && slot_size.load(Ordering::Relaxed) == lay.slot_size;
        ok.then_some((lay, seg))
    });
    let verdict = if mapped.is_some() {
        SHM_TAG_OK
    } else {
        SHM_TAG_UNAVAILABLE
    };
    stream.write_all_blocking(&shm_header(rank, verdict, 0, 0).encode())?;
    Ok(mapped.map(|(lay, seg)| link_from_map(&seg, &lay, false)))
}

/// Offer a fresh 8 × 256 B segment whose header says `version`, as a
/// build of that version would, and return whether the peer acked it:
/// the test hook behind the version-refusal test in `bootstrap`.
#[cfg(test)]
pub(crate) fn offer_with_version(stream: &mut Stream, version: u32) -> io::Result<bool> {
    let lay = layout(8, 256)?;
    let (fd, seg) = create_segment(&lay)?;
    seg_hdr_atomics(&seg).1.store(version, Ordering::Relaxed);
    let offer = shm_header(0, SHM_TAG_OK, lay.slots, lay.slot_size).encode();
    let sock = uds_fd(stream).ok_or(io::ErrorKind::Unsupported)?;
    send_with_fd(sock, &offer, fd.as_raw_fd())?;
    let mut ack = [0u8; HEADER_LEN];
    stream.read_exact_blocking(&mut ack)?;
    let ack = Header::decode(&ack)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("shm ack: {e}")))?;
    Ok(ack.kind == FrameKind::Shm && ack.tag == SHM_TAG_OK)
}

/// Creator-side counterpart of the `tag = UNAVAILABLE` short-offer: the
/// acceptor still consumes exactly one Shm header, so the two sides stay
/// in step on the byte stream. (The offer path above writes it.)
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_rejects_degenerate_and_hostile_geometry() {
        assert!(layout(0, 1024).is_err(), "zero slots");
        assert!(layout(3, 1024).is_err(), "non-power-of-two");
        assert!(layout(1 << 16, 1024).is_err(), "absurd slot count");
        assert!(layout(8, 1).is_err(), "sub-minimum slot");
        assert!(layout(8, 1 << 30).is_err(), "monster slot");
        let lay = layout(8, 1024).expect("sane geometry");
        assert_eq!(lay.total % 64, 0);
        assert!(lay.total >= 2 * (8 * 1024 + 8 * SLOT_CTL_BYTES));
    }

    #[test]
    fn segment_roundtrips_frames_both_directions() {
        let (mut low, mut high) = loopback_pair(8, 256).expect("segment");
        assert!(low.tx.try_push(b"down"));
        assert!(high.tx.try_push(b"up"));
        let mut buf = Vec::new();
        assert_eq!(high.rx.try_pop(&mut buf), Pop::Got(4));
        assert_eq!(&buf, b"down");
        buf.clear();
        assert_eq!(low.rx.try_pop(&mut buf), Pop::Got(2));
        assert_eq!(&buf, b"up");
    }

    #[test]
    fn segment_ring_wraps_and_reports_corruption() {
        let lay = layout(8, 64).expect("layout");
        let (_fd, seg) = create_segment(&lay).expect("segment");
        let (mut low, mut high) = (
            link_from_map(&seg, &lay, true),
            link_from_map(&seg, &lay, false),
        );
        let mut buf = Vec::new();
        for round in 0..5u8 {
            for i in 0..8 {
                assert!(low.tx.try_push(&[round; 3]), "round {round} push {i}");
            }
            assert!(!low.tx.try_push(b"full"));
            for _ in 0..8 {
                assert_eq!(high.rx.try_pop(&mut buf), Pop::Got(3));
            }
            assert_eq!(high.rx.try_pop(&mut buf), Pop::Empty);
            buf.clear();
        }
        // The ring drained at slot 0 five laps on; a push from slot 2
        // rewinds, a SKIP the consumer takes on the way.
        assert!(low.tx.try_push(b"ab"));
        assert!(low.tx.try_push(b"cd"));
        assert_eq!(high.rx.try_pop(&mut buf), Pop::Got(2));
        assert_eq!(high.rx.try_pop(&mut buf), Pop::Got(2));
        assert!(low.tx.try_push(b"ef"), "slot 2: rewinds to slot 0");
        assert_eq!(high.rx.try_pop(&mut buf), Pop::Got(2));
        assert_eq!(&buf, b"abcdef");
        // Hostile control words in the shared mapping are reported, not
        // trusted: a len past the slot (written over every slot of the
        // ring, the consumer's next among them), and, on a fresh
        // segment, a SKIP at slot 0, below the rewind floor.
        let ring0 = ShmMem::new(&seg, &lay, 0);
        assert!(low.tx.try_push(b"x"));
        for i in 0..lay.slots {
            ring0.len(i).store(65, Ordering::Relaxed);
        }
        assert_eq!(high.rx.try_pop(&mut buf), Pop::Corrupt);
        let (_fd, seg) = create_segment(&lay).expect("segment");
        let mut high = link_from_map(&seg, &lay, false);
        let ring0 = ShmMem::new(&seg, &lay, 0);
        ring0.len(0).store(shmring::SKIP, Ordering::Relaxed);
        ring0.seq(0).store(1, Ordering::Relaxed);
        assert_eq!(high.rx.try_pop(&mut buf), Pop::Corrupt);
        assert_eq!(&buf, b"abcdef", "nothing delivered from either");
    }

    #[test]
    fn cross_thread_segment_streams_in_order() {
        // 4 slots never rewind; 16 rewind from slot 2 whenever the
        // consumer has caught up.
        for slots in [4, 16] {
            cross_thread_stream(slots);
        }
    }

    fn cross_thread_stream(slots: u32) {
        let (mut low, mut high) = loopback_pair(slots, 128).expect("segment");
        let producer = std::thread::spawn(move || {
            for i in 0..5_000u32 {
                let msg = i.to_le_bytes();
                while !low.tx.try_push(&msg) {
                    std::thread::yield_now();
                }
            }
        });
        let mut buf = Vec::new();
        let mut next = 0u32;
        while next < 5_000 {
            buf.clear();
            match high.rx.try_pop(&mut buf) {
                Pop::Got(4) => {
                    let got = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
                    assert_eq!(got, next, "cross-thread FIFO violated");
                    next += 1;
                }
                Pop::Got(n) => panic!("unexpected chunk size {n}"),
                Pop::Empty => std::thread::yield_now(),
                Pop::Corrupt => panic!("corrupt slot in clean run"),
            }
        }
        producer.join().expect("producer");
    }

    #[test]
    fn fd_passing_handshake_maps_the_same_segment() {
        let (a, b) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let mut low: Stream = a.into();
        let mut high: Stream = b.into();
        let offerer = std::thread::spawn(move || {
            offer_segment(&mut low, 0, 8, 256, false).expect("offer side")
        });
        let accepted = accept_segment(&mut high, 1).expect("accept side");
        let offered = offerer.join().expect("offer thread");
        let mut low_link = offered.expect("creator got a link");
        let mut high_link = accepted.expect("acceptor got a link");
        // Prove both processes' mappings alias the same memory.
        assert!(low_link.tx.try_push(b"hello-shm"));
        let mut buf = Vec::new();
        assert_eq!(high_link.rx.try_pop(&mut buf), Pop::Got(9));
        assert_eq!(&buf, b"hello-shm");
        assert!(high_link.tx.try_push(b"ack"));
        buf.clear();
        assert_eq!(low_link.rx.try_pop(&mut buf), Pop::Got(3));
        assert_eq!(&buf, b"ack");
    }

    #[test]
    fn forced_fallback_degrades_both_sides_in_step() {
        let (a, b) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let mut low: Stream = a.into();
        let mut high: Stream = b.into();
        let offerer = std::thread::spawn(move || {
            offer_segment(&mut low, 0, 8, 256, true).expect("offer side")
        });
        let accepted = accept_segment(&mut high, 1).expect("accept side");
        let offered = offerer.join().expect("offer thread");
        assert!(offered.is_none(), "forced fallback offers nothing");
        assert!(accepted.is_none(), "acceptor agrees to fall back");
    }

    #[test]
    fn tmpfile_fallback_produces_a_mappable_fd() {
        let lay = layout(4, 256).expect("layout");
        let fd = tmpfile_fd().expect("tmpfile");
        grow_fd(fd.as_raw_fd(), lay.total as u64).expect("grow");
        let seg = map_fd(fd.as_raw_fd(), lay.total).expect("map");
        let mem = ShmMem::new(&Arc::new(seg), &lay, 0);
        mem.seq(0).store(7, Ordering::Relaxed);
        assert_eq!(mem.seq(0).load(Ordering::Relaxed), 7);
    }
}
