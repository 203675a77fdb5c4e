//! The wire frame format: a fixed 24-byte little-endian header, optionally
//! followed by a payload body.
//!
//! ```text
//! offset  size  field
//!      0     1  kind   (0 Hello, 1 Eager, 2 Rts, 3 Cts, 4 Data,
//!                       6 Stall, 7 Shm, 8 Doorbell, 9 Relay; 5 is retired)
//!      1     3  (pad, zero)
//!      4     4  src    (sender rank, u32 LE)
//!      8     4  tag    (message tag, u32 LE)
//!     12     4  xid    (rendezvous exchange id, sender-assigned)
//!     16     8  len    (payload length in bytes, u64 LE)
//! ```
//!
//! `len` is the *message* length in every frame that names one: for
//! `Eager` and `Data` it is also the body length that follows the header;
//! for `Rts` it announces the payload the sender wants to transfer (no
//! body); `Hello` and `Cts` carry no body and `len` is zero.
//!
//! `Relay` and `Stall` are the observability plane's frames, carried on
//! the stats and relay sockets (never the rank↔rank mesh): the body is a
//! compact serialized `obs::Snapshot` (`obs::Snapshot::to_bytes`) of at
//! most [`STATS_BODY_MAX`] bytes. A `Relay` body is a snapshot **merged**
//! over a subtree of ranks (`obs::Snapshot::merge`) — a subtree of one
//! for a leaf or a flat world — with the aggregation metadata in the
//! header: `tag` is how many ranks the body covers and `xid` the subtree
//! height (1 for a leaf), so the collector can report coverage and depth
//! without unpacking anything. A `Stall` frame carries one rank's own
//! snapshot and the watchdog's evidence: `xid` is how long progress has
//! made no advancement (milliseconds, saturating) and `tag` is how many
//! operations were pending at the time. Kind byte 5 was `Stats`, the
//! per-rank frame of the star plane that `Relay` with coverage 1
//! replaced; it is rejected like any unknown kind and not reused.
//!
//! `Shm` and `Doorbell` belong to the shared-memory data plane
//! (`crate::shm`). `Shm` rides only the blocking bootstrap handshake,
//! never the steady-state mesh: it offers/acknowledges a shared segment,
//! carrying its geometry in the header (`tag` = offer/ack verdict,
//! `xid` = slot count, `len` = slot payload bytes) with the memfd
//! attached out-of-band via `SCM_RIGHTS`. `Doorbell` is the only frame
//! the socket carries for an shm peer after bootstrap: a bodyless nudge
//! sent when the producer published into the ring while the consumer had
//! announced it may park.
//!
//! No frame may announce more than [`MAX_FRAME_LEN`] bytes: `decode`
//! rejects larger `len` values outright, so a hostile or corrupt header
//! can never drive a multi-gigabyte allocation in the body read path.

/// Fixed header size on the wire.
pub const HEADER_LEN: usize = 24;

/// Largest `len` any frame may carry (1 GiB). Generous for every message
/// this stack produces, small enough that a corrupt length cannot make the
/// receiver balloon its staging buffer before the read fails.
pub const MAX_FRAME_LEN: u64 = 1 << 30;

/// Largest body a stats-plane frame (`Relay`, `Stall`) may carry. A
/// serialized snapshot costs a name plus 8 bytes per counter, 16 per gauge
/// and at most 1 060 per histogram (65 log2 buckets); a rank's registry is
/// a few KiB and a merged one has the same names, so 256 KiB holds two
/// thousand counters and a hundred full histograms with room to spare.
/// Senders refuse to ship more and receivers drop the link that announces
/// more — before allocating anything for it.
pub const STATS_BODY_MAX: usize = 256 * 1024;

/// Frame discriminator (byte 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Bootstrap identification: `src` is the connecting rank.
    Hello = 0,
    /// Small message, payload inline.
    Eager = 1,
    /// Rendezvous request-to-send: announces `len` bytes under `tag`.
    Rts = 2,
    /// Rendezvous clear-to-send: receiver matched the RTS, echoes `xid`.
    Cts = 3,
    /// Rendezvous payload for `xid`, body inline.
    Data = 4,
    /// Progress-stall watchdog event (stats/relay sockets only); body is
    /// the rank's snapshot at the moment the watchdog fired.
    Stall = 6,
    /// Shared-memory segment offer/ack during bootstrap (no body; the
    /// geometry rides in `tag`/`xid`/`len`, the memfd via `SCM_RIGHTS`).
    Shm = 7,
    /// Wakeup nudge for a possibly-parked shm consumer (no body).
    Doorbell = 8,
    /// Periodic metrics snapshot merged over a subtree of ranks
    /// (stats/relay sockets only); body is an `obs::Snapshot`, `tag` =
    /// ranks covered, `xid` = subtree height — 1 and 1 from a leaf.
    Relay = 9,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::Eager,
            2 => FrameKind::Rts,
            3 => FrameKind::Cts,
            4 => FrameKind::Data,
            6 => FrameKind::Stall,
            7 => FrameKind::Shm,
            8 => FrameKind::Doorbell,
            9 => FrameKind::Relay,
            _ => return None,
        })
    }
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    pub kind: FrameKind,
    pub src: u32,
    pub tag: u32,
    pub xid: u32,
    pub len: u64,
}

impl Header {
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0] = self.kind as u8;
        out[4..8].copy_from_slice(&self.src.to_le_bytes());
        out[8..12].copy_from_slice(&self.tag.to_le_bytes());
        out[12..16].copy_from_slice(&self.xid.to_le_bytes());
        out[16..24].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    pub fn decode(buf: &[u8; HEADER_LEN]) -> Result<Header, String> {
        Self::decode_slice(buf)
    }

    /// Decode the header at the front of `buf` (which must hold at least
    /// [`HEADER_LEN`] bytes — more is fine, the tail is ignored). This is
    /// the peer-controlled input path: every failure mode is a returned
    /// error, never a panic.
    pub fn decode_slice(buf: &[u8]) -> Result<Header, String> {
        if buf.len() < HEADER_LEN {
            return Err(format!("short header: {} of {HEADER_LEN} bytes", buf.len()));
        }
        let kind = FrameKind::from_u8(buf[0])
            .ok_or_else(|| format!("bad frame kind byte {:#x}", buf[0]))?;
        let word = |o: usize| u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]);
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&buf[16..24]);
        let len = u64::from_le_bytes(len8);
        if len > MAX_FRAME_LEN {
            return Err(format!(
                "frame len {} exceeds maximum {} ({:?})",
                len, MAX_FRAME_LEN, kind
            ));
        }
        Ok(Header {
            kind,
            src: word(4),
            tag: word(8),
            xid: word(12),
            len,
        })
    }

    /// Bytes of body following this header on the wire.
    pub fn body_len(&self) -> usize {
        match self.kind {
            FrameKind::Eager | FrameKind::Data | FrameKind::Stall | FrameKind::Relay => {
                self.len as usize
            }
            FrameKind::Hello
            | FrameKind::Rts
            | FrameKind::Cts
            | FrameKind::Shm
            | FrameKind::Doorbell => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Eager,
            FrameKind::Rts,
            FrameKind::Cts,
            FrameKind::Data,
            FrameKind::Stall,
            FrameKind::Shm,
            FrameKind::Doorbell,
            FrameKind::Relay,
        ] {
            let h = Header {
                kind,
                src: 3,
                tag: 0x1234_5678,
                xid: 42,
                len: (1 << 27) + 7,
            };
            let enc = h.encode();
            assert_eq!(Header::decode(&enc).expect("decodes"), h);
        }
    }

    #[test]
    fn short_slice_is_rejected() {
        let h = Header {
            kind: FrameKind::Eager,
            src: 1,
            tag: 2,
            xid: 3,
            len: 4,
        };
        let enc = h.encode();
        for cut in 0..HEADER_LEN {
            let err = Header::decode_slice(&enc[..cut]).expect_err("short header");
            assert!(err.contains("short header"), "{err}");
        }
        // A longer slice decodes the prefix and ignores the tail.
        let mut long = enc.to_vec();
        long.extend_from_slice(&[0xaa; 16]);
        assert_eq!(Header::decode_slice(&long).expect("decodes"), h);
    }

    #[test]
    fn bad_kind_is_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 5;
        assert!(Header::decode(&buf).is_err(), "retired Stats kind");
        buf[0] = 10;
        assert!(Header::decode(&buf).is_err());
        buf[0] = 11;
        assert!(Header::decode(&buf).is_err());
        buf[0] = 0xff;
        assert!(Header::decode(&buf).is_err());
    }

    #[test]
    fn oversized_len_is_rejected() {
        // Exactly at the cap decodes; one past it is refused, for body-ful
        // and body-less kinds alike (an RTS announcing an absurd transfer
        // is just as bogus as an eager frame claiming one inline).
        for kind in [FrameKind::Eager, FrameKind::Rts, FrameKind::Relay] {
            let mut h = Header {
                kind,
                src: 0,
                tag: 0,
                xid: 0,
                len: MAX_FRAME_LEN,
            };
            assert!(Header::decode(&h.encode()).is_ok(), "{kind:?} at cap");
            h.len = MAX_FRAME_LEN + 1;
            let err = Header::decode(&h.encode()).expect_err("past cap");
            assert!(err.contains("exceeds maximum"), "{err}");
        }
        // Hostile all-ones length.
        let h = Header {
            kind: FrameKind::Data,
            src: 0,
            tag: 0,
            xid: 0,
            len: u64::MAX,
        };
        assert!(Header::decode(&h.encode()).is_err());
    }

    #[test]
    fn body_len_by_kind() {
        let mut h = Header {
            kind: FrameKind::Rts,
            src: 0,
            tag: 0,
            xid: 0,
            len: 1000,
        };
        assert_eq!(h.body_len(), 0, "RTS announces but carries no body");
        h.kind = FrameKind::Eager;
        assert_eq!(h.body_len(), 1000);
        h.kind = FrameKind::Data;
        assert_eq!(h.body_len(), 1000);
        h.kind = FrameKind::Cts;
        assert_eq!(h.body_len(), 0);
        h.kind = FrameKind::Stall;
        assert_eq!(h.body_len(), 1000, "stall carries the last snapshot");
        h.kind = FrameKind::Shm;
        assert_eq!(h.body_len(), 0, "shm offer carries geometry, no body");
        h.kind = FrameKind::Doorbell;
        assert_eq!(h.body_len(), 0, "doorbell is a bodyless nudge");
        h.kind = FrameKind::Relay;
        assert_eq!(h.body_len(), 1000, "relay carries the merged snapshot");
    }
}
