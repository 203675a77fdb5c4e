//! `wire::sys` — what the socket fabric needs and std does not offer:
//! `poll(2)` over a set of descriptors, and a receive destination that
//! is never zero-filled, filled by `readv(2)` or a copy and handed out
//! only once every byte is in.
//!
//! The syscalls are declared, not linked through a crate (std already
//! links libc; the workspace builds offline), exactly like the
//! `extern "C"` block in [`crate::shm`]. This file and `shm.rs` are the
//! only homes of `unsafe` in `crates/wire`; `offload-lint`'s
//! `unsafe-confinement` rule enforces it. Everything here is wrapped in
//! [`PollSet`] and [`RxBody`], whose fields are private: safe code can
//! neither hand the kernel a dangling pointer nor a length the buffer
//! does not have, nor mark a byte filled that nothing wrote.

use std::io;
use std::mem::MaybeUninit;
use std::os::fd::RawFd;
use std::sync::Arc;

/// `struct pollfd`. A negative `fd` is skipped by the kernel (`revents`
/// comes back 0), which is how self, absent and dead links keep their
/// rank-indexed slot without being polled.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn readv(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
}

/// A fixed, slot-indexed set of descriptors swept for readability with
/// one zero-timeout `poll(2)`.
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
    live: usize,
}

impl PollSet {
    /// One slot per item; `None` slots are never polled.
    pub(crate) fn new(fds: impl Iterator<Item = Option<RawFd>>) -> Self {
        let fds: Vec<PollFd> = fds
            .map(|fd| PollFd {
                fd: fd.unwrap_or(-1),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let live = fds.iter().filter(|p| p.fd >= 0).count();
        PollSet { fds, live }
    }

    /// Stop polling `slot` (its link died); its verdict reads "not ready"
    /// from here on.
    pub(crate) fn remove(&mut self, slot: usize) {
        if let Some(p) = self.fds.get_mut(slot) {
            if p.fd >= 0 {
                self.live -= 1;
            }
            p.fd = -1;
            p.revents = 0;
        }
    }

    /// Ask the kernel, without blocking, which live slots have something
    /// to read. Returns whether a syscall was made (none when no slot is
    /// live). `POLLIN`, `POLLHUP` and `POLLERR` all count as "read it":
    /// EOF and reset surface through the read that follows. Should `poll`
    /// itself fail, every live slot is reported ready — a spurious read
    /// costs an `EAGAIN`, a missed one would lose data.
    pub(crate) fn sweep(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        // SAFETY: `fds` is a live, exclusively borrowed Vec of `repr(C)`
        // pollfd records and the length passed is its own; a zero timeout
        // means the kernel only writes each record's `revents` before
        // returning.
        let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as _, 0) };
        if rc < 0 {
            for p in self.fds.iter_mut().filter(|p| p.fd >= 0) {
                p.revents = POLLIN;
            }
        }
        true
    }

    /// The last sweep's verdict on `slot`.
    pub(crate) fn ready(&self, slot: usize) -> bool {
        self.fds.get(slot).is_some_and(|p| p.revents != 0)
    }
}

/// A frame body allocated at its announced length and never zero-filled:
/// the very `Arc` it is delivered in, uninitialised past `filled`. It is
/// filled front to back by a copy from initialised bytes ([`Self::put`]),
/// by the kernel ([`readv_into`]) or by a ring copy that `shm.rs` reports
/// through [`Self::advance`], and becomes an `Arc<[u8]>` only once its
/// last byte is in ([`Self::finish`]). A body dropped part-way is freed
/// unread.
pub(crate) struct RxBody {
    /// Never cloned, so `Arc::get_mut` always succeeds.
    buf: Arc<[MaybeUninit<u8>]>,
    /// `buf[..filled]` is initialised; `filled ≤ buf.len()`.
    filled: usize,
}

impl RxBody {
    pub(crate) fn new(len: usize) -> Self {
        RxBody {
            buf: Arc::new_uninit_slice(len),
            filled: 0,
        }
    }

    pub(crate) fn filled(&self) -> usize {
        self.filled
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The unfilled rest: where the next bytes of the body land.
    pub(crate) fn spare(&mut self) -> &mut [MaybeUninit<u8>] {
        match Arc::get_mut(&mut self.buf) {
            Some(b) => &mut b[self.filled..],
            None => &mut [],
        }
    }

    /// Copy in as much of `bytes` as the body still lacks; returns how
    /// many were taken.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> usize {
        let spare = self.spare();
        let n = bytes.len().min(spare.len());
        spare[..n].write_copy_of_slice(&bytes[..n]);
        self.filled += n;
        n
    }

    /// Count the first `n` bytes of [`Self::spare`] filled.
    ///
    /// # Safety
    ///
    /// Those `n` bytes (`n ≤ spare().len()`) were initialised since
    /// `spare` was taken.
    // SAFETY: `unsafe` because `finish` trusts `filled`; the only caller
    // outside this file is `shm::pop_into`, right after the ring's copy.
    pub(crate) unsafe fn advance(&mut self, n: usize) {
        assert!(n <= self.len() - self.filled, "advance past the body");
        self.filled += n;
    }

    /// The delivered body once its last byte is in; the body in progress
    /// otherwise.
    pub(crate) fn finish(self) -> Result<Arc<[u8]>, Self> {
        if self.filled < self.buf.len() {
            return Err(self);
        }
        // SAFETY: `filled == len`, and every byte below `filled` was
        // written by `put`, the kernel (`readv_into`) or a copy `advance`'s
        // caller vouches for.
        Ok(unsafe { self.buf.assume_init() })
    }
}

/// One `readv(2)` of `fd` into `[body remainder, rest]`: the kernel's copy
/// into the body is that byte's only write. Returns the bytes read; the
/// body's share of them is already counted filled.
pub(crate) fn readv_into(
    fd: RawFd,
    mut body: Option<&mut RxBody>,
    rest: &mut [u8],
) -> io::Result<usize> {
    let (base, room) = match body.as_deref_mut() {
        Some(b) => {
            let spare = b.spare();
            (spare.as_mut_ptr().cast::<u8>(), spare.len())
        }
        None => (std::ptr::NonNull::dangling().as_ptr(), 0),
    };
    let iov = [
        IoVec { base, len: room },
        IoVec {
            base: rest.as_mut_ptr(),
            len: rest.len(),
        },
    ];
    // SAFETY: each iovec describes memory exclusively borrowed for this
    // call at its own length (the body's unfilled rest, `rest`); the
    // kernel writes within them and nowhere else.
    let rc = unsafe { readv(fd, iov.as_ptr(), 2) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let n = rc as usize;
    if let Some(b) = body {
        // SAFETY: `readv` fills its iovecs in order, so the first
        // `min(n, room)` bytes read are the start of the body's spare.
        unsafe { b.advance(n.min(room)) };
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    // `rx_body_*` open no descriptors: the Miri lane runs them.

    #[test]
    fn rx_body_is_delivered_only_after_its_last_byte() {
        let mut body = RxBody::new(10);
        assert_eq!(body.put(b"abcd"), 4);
        let mut body = body.finish().expect_err("4 of 10 bytes is not a body");
        // A ring copy lands in the spare, then is reported.
        body.spare()[..3].write_copy_of_slice(b"efg");
        // SAFETY: the three bytes were just written.
        unsafe { body.advance(3) };
        assert_eq!(body.filled(), 7);
        let mut body = body.finish().expect_err("7 of 10 bytes is not a body");
        assert_eq!(body.put(b"hijklmn"), 3, "only what the body lacks");
        let done = body.finish().ok().expect("the last byte is in");
        assert_eq!(&done[..], b"abcdefghij");
    }

    #[test]
    fn rx_body_dropped_part_way_is_freed_unread() {
        let mut body = RxBody::new(64 * 1024);
        assert_eq!(body.put(&[7; 100]), 100);
        assert_eq!((body.filled(), body.len()), (100, 64 * 1024));
        drop(body);
        let empty = RxBody::new(0).finish().ok().expect("nothing to wait for");
        assert!(empty.is_empty());
    }

    #[test]
    fn readv_fills_the_body_first_then_the_rest() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        b.write_all(b"0123456789").expect("write");
        let mut body = RxBody::new(4);
        body.put(b"x");
        let mut rest = [0u8; 16];
        let n = readv_into(a.as_raw_fd(), Some(&mut body), &mut rest).expect("readv");
        assert_eq!(n, 10);
        assert_eq!(&rest[..7], b"3456789");
        let done = body.finish().ok().expect("3 direct bytes completed it");
        assert_eq!(&done[..], b"x012");
        b.write_all(b"ab").expect("write");
        assert_eq!(
            readv_into(a.as_raw_fd(), None, &mut rest).expect("readv"),
            2
        );
        assert_eq!(&rest[..2], b"ab");
    }

    #[test]
    fn sweep_reports_bytes_and_hangup_and_skips_dead_slots() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        let (c, d) = UnixStream::pair().expect("socketpair");
        let mut set = PollSet::new([None, Some(a.as_raw_fd()), Some(c.as_raw_fd())].into_iter());
        assert!(set.sweep());
        assert!(!set.ready(0) && !set.ready(1) && !set.ready(2));
        b.write_all(b"x").expect("write");
        drop(d); // hang-up with nothing to read
        assert!(set.sweep());
        assert!(set.ready(1), "bytes waiting");
        assert!(set.ready(2), "POLLHUP means read it");
        set.remove(1);
        set.remove(2);
        assert!(!set.sweep(), "no live slot, no syscall");
        assert!(!set.ready(2));
    }
}
