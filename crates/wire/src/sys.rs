//! `wire::sys` — the one raw syscall the socket fabric needs and std
//! does not offer: `poll(2)` over a set of descriptors.
//!
//! Declared, not linked through a crate (std already links libc; the
//! workspace builds offline), exactly like the `extern "C"` block in
//! [`crate::shm`]. This file and `shm.rs` are the only homes of `unsafe`
//! in `crates/wire`; `offload-lint`'s `unsafe-confinement` rule enforces
//! it. Everything here is wrapped in [`PollSet`], whose fields are
//! private: safe code can neither hand `poll` a dangling pointer nor a
//! length the vector does not have.

use std::os::fd::RawFd;

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

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

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
