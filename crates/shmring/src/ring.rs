//! The SPSC ring protocol (see the crate docs).

use std::mem::MaybeUninit;

use check::cell::UnsafeCell;
use check::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The memory a ring runs over: control words (per-slot `seq` + `len`,
/// one `parked` word) and fixed-size payload slots. Implementations
/// provide storage and byte copies; the protocol above them decides when
/// each access is permitted.
///
/// # Safety
///
/// [`RingMem::read`] must initialise the first `min(n, direct.len())`
/// bytes of `direct`: a consumer marks them filled on the strength of a
/// [`Pop::Got`] alone (see [`Consumer::try_pop_into`]).
// SAFETY: `unsafe` so that consumers may rely on that promise; each impl
// states how it keeps it.
pub unsafe trait RingMem {
    /// Slot count; must be a power of two.
    fn slots(&self) -> u32;

    /// Payload capacity of each slot, in bytes.
    fn slot_size(&self) -> u32;

    /// The slot's sequence word (the publish/recycle handshake).
    fn seq(&self, slot: u32) -> &AtomicU64;

    /// The slot's payload length word.
    fn len(&self, slot: u32) -> &AtomicU32;

    /// The consumer-parked word for the park/doorbell handshake.
    fn parked(&self) -> &AtomicU32;

    /// Copy `data` into the slot's payload at byte offset `off`. Only the
    /// producer calls this, and only on a slot it has claimed.
    fn write(&self, slot: u32, off: u32, data: &[u8]);

    /// Copy the slot's first `n` payload bytes out, once: the first
    /// `min(n, direct.len())` into `direct`, the rest appended to `out`.
    /// Only the consumer calls this, on a published slot, with
    /// `n ≤ slot_size`.
    fn read(&self, slot: u32, n: u32, direct: &mut [MaybeUninit<u8>], out: &mut Vec<u8>);
}

// SAFETY: forwards `read` to `M`, whose own impl upholds the contract.
unsafe impl<M: RingMem> RingMem for std::sync::Arc<M> {
    fn slots(&self) -> u32 {
        (**self).slots()
    }
    fn slot_size(&self) -> u32 {
        (**self).slot_size()
    }
    fn seq(&self, slot: u32) -> &AtomicU64 {
        (**self).seq(slot)
    }
    fn len(&self, slot: u32) -> &AtomicU32 {
        (**self).len(slot)
    }
    fn parked(&self) -> &AtomicU32 {
        (**self).parked()
    }
    fn write(&self, slot: u32, off: u32, data: &[u8]) {
        (**self).write(slot, off, data)
    }
    fn read(&self, slot: u32, n: u32, direct: &mut [MaybeUninit<u8>], out: &mut Vec<u8>) {
        (**self).read(slot, n, direct, out)
    }
}

/// Process-local ring memory: unit tests, the model lane, and the
/// in-process loopback transport. Slot payloads live behind the cell
/// facade so the model build race-checks every data access against the
/// protocol's claimed exclusivity.
pub struct HeapMem {
    slots: u32,
    slot_size: u32,
    seq: Box<[AtomicU64]>,
    len: Box<[AtomicU32]>,
    parked: AtomicU32,
    data: Box<[UnsafeCell<Box<[u8]>>]>,
}

impl HeapMem {
    pub fn new(slots: u32, slot_size: u32) -> Self {
        Self::with_start(slots, slot_size, 0)
    }

    /// Ring whose positions start at `start` — the wraparound test hook,
    /// mirroring `MpmcQueue::with_start_pos`.
    pub fn with_start(slots: u32, slot_size: u32, start: u64) -> Self {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        // Slot `pos & mask` must read `seq == pos` for the first `slots`
        // positions from `start` — for an arbitrary start that is not
        // simply `seq[i] = start + i`.
        let mask = (slots - 1) as u64;
        let seq: Box<[AtomicU64]> = (0..slots).map(|_| AtomicU64::new(0)).collect();
        for i in 0..slots as u64 {
            let pos = start.wrapping_add(i);
            // ORDERING: Relaxed — single-threaded construction; the ring
            // is published to the other endpoint by whatever hands it
            // over (thread spawn, segment handshake), not by these stores.
            seq[(pos & mask) as usize].store(pos, Ordering::Relaxed);
        }
        let len = (0..slots).map(|_| AtomicU32::new(0)).collect();
        let data = (0..slots)
            .map(|_| UnsafeCell::new(vec![0u8; slot_size as usize].into_boxed_slice()))
            .collect();
        HeapMem {
            slots,
            slot_size,
            seq,
            len,
            parked: AtomicU32::new(0),
            data,
        }
    }
}

// SAFETY: `read` initialises `direct`'s prefix with `write_copy_of_slice`.
unsafe impl RingMem for HeapMem {
    fn slots(&self) -> u32 {
        self.slots
    }

    fn slot_size(&self) -> u32 {
        self.slot_size
    }

    fn seq(&self, slot: u32) -> &AtomicU64 {
        &self.seq[slot as usize]
    }

    fn len(&self, slot: u32) -> &AtomicU32 {
        &self.len[slot as usize]
    }

    fn parked(&self) -> &AtomicU32 {
        &self.parked
    }

    fn write(&self, slot: u32, off: u32, data: &[u8]) {
        self.data[slot as usize].with_mut(|p| {
            // SAFETY: the SPSC protocol grants the producer exclusive
            // access to a claimed slot until it publishes `seq`; the
            // model build verifies that claim on every schedule.
            let buf = unsafe { &mut *p };
            buf[off as usize..off as usize + data.len()].copy_from_slice(data);
        });
    }

    fn read(&self, slot: u32, n: u32, direct: &mut [MaybeUninit<u8>], out: &mut Vec<u8>) {
        self.data[slot as usize].with(|p| {
            // SAFETY: the consumer only reads a published slot, which the
            // producer will not touch again until it is recycled.
            let buf = unsafe { &*p };
            let (head, tail) = buf[..n as usize].split_at(direct.len().min(n as usize));
            direct[..head.len()].write_copy_of_slice(head);
            out.extend_from_slice(tail);
        });
    }
}

/// Incremental writer for one claimed slot: lets the caller assemble a
/// chunk from several pieces (frame header + payload tail) without a
/// staging buffer. Bytes past the slot's capacity are silently dropped by
/// `put` (the caller sizes chunks with [`SlotWriter::remaining`]).
pub struct SlotWriter<'a, M: RingMem> {
    mem: &'a M,
    slot: u32,
    off: u32,
    cap: u32,
}

impl<M: RingMem> SlotWriter<'_, M> {
    /// Copy as much of `bytes` as fits; returns how many were copied.
    pub fn put(&mut self, bytes: &[u8]) -> usize {
        let room = (self.cap - self.off) as usize;
        let n = bytes.len().min(room);
        if n > 0 {
            self.mem.write(self.slot, self.off, &bytes[..n]);
            self.off += n as u32;
        }
        n
    }

    /// Payload bytes still free in this slot.
    pub fn remaining(&self) -> usize {
        (self.cap - self.off) as usize
    }

    /// Payload bytes written so far.
    pub fn written(&self) -> usize {
        self.off as usize
    }
}

/// The `len` of a SKIP record: the producer has rewound to the first
/// slot of the next lap, and the rest of this lap carries nothing.
pub const SKIP: u32 = u32::MAX;

/// A producer rewinds only from a slot index at or past
/// `slots / REWIND_FRACTION`, so small-frame traffic pays at most one
/// SKIP publish per that many frames. Rings of fewer slots than this
/// never rewind.
const REWIND_FRACTION: u32 = 8;

/// The first slot index a rewind may start from; `u32::MAX` (no index)
/// when the ring is too small to rewind at all.
fn rewind_floor(slots: u32) -> u32 {
    match slots / REWIND_FRACTION {
        0 => u32::MAX,
        floor => floor,
    }
}

/// Does a slot whose `seq` reads `seq` count as free at position `pos`?
/// Exactly `pos` is the slot recycled for this lap; a value of the same
/// residue (mod slots) at or behind `pos` is a free value an older lap
/// left in a slot that rewinds have skipped since. A published value
/// (`≡ pos + 1`), one ahead of `pos`, or one of another residue is not.
fn free_at(seq: u64, pos: u64, mask: u64) -> bool {
    (seq ^ pos) & mask == 0 && pos.wrapping_sub(seq) < 1 << 63
}

/// The producing half of one ring direction.
pub struct Producer<M: RingMem> {
    mem: M,
    head: u64,
    mask: u64,
    /// See [`rewind_floor`].
    rewind_at: u32,
    /// The highest slot index a frame was written to, plus one: how much
    /// of the ring the traffic has made resident.
    hwm: u32,
}

impl<M: RingMem> Producer<M> {
    pub fn new(mem: M) -> Self {
        Self::with_start(mem, 0)
    }

    /// Producer whose position starts at `start` (must match the memory's
    /// `seq` initialisation).
    pub fn with_start(mem: M, start: u64) -> Self {
        let slots = mem.slots();
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        Producer {
            rewind_at: rewind_floor(slots),
            mem,
            head: start,
            mask: (slots - 1) as u64,
            hwm: 0,
        }
    }

    /// Payload capacity of each slot.
    pub fn slot_size(&self) -> u32 {
        self.mem.slot_size()
    }

    /// The highest slot index a chunk has been written to, plus one. With
    /// rewinds it follows the bytes in flight, not the slot count.
    pub fn hwm(&self) -> u32 {
        self.hwm
    }

    /// May the producer write slot `idx` at position `pos`?
    fn claim(&self, idx: u32, pos: u64) -> bool {
        // ORDERING: Acquire pairs with the consumer's recycle Release —
        // its reads of an earlier lap's payload complete before we
        // overwrite the slot. Anything but a free value (published,
        // garbage from a hostile peer) reads as "full".
        free_at(self.mem.seq(idx).load(Ordering::Acquire), pos, self.mask)
    }

    /// Publish slot `idx` at the head: `len`, then `seq`.
    fn publish(&mut self, idx: u32, len: u32) {
        // ORDERING: Relaxed — the seq publish below orders it.
        self.mem.len(idx).store(len, Ordering::Relaxed);
        // ORDERING: SeqCst publish. Release would suffice for the data
        // handoff (pairing with the consumer's Acquire), but the publish
        // is also the producer half of the Dekker park handshake: it must
        // be globally ordered against the consumer's `parked` store so
        // `prepare_park`'s re-check cannot miss it.
        self.mem
            .seq(idx)
            .store(self.head.wrapping_add(1), Ordering::SeqCst);
    }

    /// Rewind when the ring has drained and the head is far enough in:
    /// publish a SKIP in the head slot and move the head to the first
    /// slot of the next lap, so the resident set follows the bytes in
    /// flight. Returns the head's slot index afterwards.
    fn maybe_rewind(&mut self, idx: u32) -> u32 {
        if idx < self.rewind_at {
            return idx;
        }
        // ORDERING: Acquire pairs with the consumer's recycle of the
        // previous position. The consumer recycles in order, so this one
        // value orders all its reads of this lap before our writes — the
        // drain is what makes the next lap's slots ours.
        let drained = self.mem.seq(idx - 1).load(Ordering::Acquire)
            == self
                .head
                .wrapping_sub(1)
                .wrapping_add(self.mem.slots() as u64);
        if !drained || !self.claim(idx, self.head) {
            return idx;
        }
        self.publish(idx, SKIP);
        self.head = (self.head | self.mask).wrapping_add(1);
        0
    }

    /// Claim the next slot, run `fill` to write its payload, publish it.
    /// Returns `None` when the ring is full (or the peer has wedged the
    /// slot's `seq` — indistinguishable by design, and equally harmless).
    pub fn try_push_with<R>(
        &mut self,
        fill: impl FnOnce(&mut SlotWriter<'_, M>) -> R,
    ) -> Option<R> {
        let idx = self.maybe_rewind((self.head & self.mask) as u32);
        if !self.claim(idx, self.head) {
            return None;
        }
        let mut w = SlotWriter {
            mem: &self.mem,
            slot: idx,
            off: 0,
            cap: self.mem.slot_size(),
        };
        let r = fill(&mut w);
        let n = w.off;
        self.publish(idx, n);
        self.head = self.head.wrapping_add(1);
        self.hwm = self.hwm.max(idx + 1);
        Some(r)
    }

    /// Push one chunk (`bytes.len() ≤ slot_size`); false when full.
    pub fn try_push(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() > self.mem.slot_size() as usize {
            return false;
        }
        self.try_push_with(|w| {
            w.put(bytes);
        })
        .is_some()
    }

    /// After publishing: does the consumer need a doorbell? Clears the
    /// parked flag, so each park draws at most one doorbell.
    pub fn doorbell_needed(&self) -> bool {
        // ORDERING: SeqCst RMW — the producer half of the Dekker
        // handshake reads the latest `parked` value, globally ordered
        // against the publish above and the consumer's flag store.
        self.mem.parked().swap(0, Ordering::SeqCst) == 1
    }
}

/// What one [`Consumer::try_pop_into`] (or [`Consumer::try_pop`]) found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pop {
    /// No published slot at the tail.
    Empty,
    /// One chunk of this many bytes was taken: its first
    /// `min(n, direct.len())` bytes went to the direct destination, the
    /// rest were appended to `out` (all of them, for `try_pop`).
    Got(usize),
    /// The tail slot's control words are impossible — a `len` beyond the
    /// slot capacity, or a `seq` no producer following the protocol can
    /// leave there. The peer is hostile or corrupt; the caller should
    /// kill the link. Nothing was copied.
    Corrupt,
}

/// The consuming half of one ring direction.
pub struct Consumer<M: RingMem> {
    mem: M,
    tail: u64,
    mask: u64,
    /// See [`rewind_floor`]: a SKIP below it is no honest producer's.
    rewind_at: u32,
}

impl<M: RingMem> Consumer<M> {
    pub fn new(mem: M) -> Self {
        Self::with_start(mem, 0)
    }

    /// Consumer whose position starts at `start` (must match the
    /// memory's `seq` initialisation).
    pub fn with_start(mem: M, start: u64) -> Self {
        let slots = mem.slots();
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        Consumer {
            rewind_at: rewind_floor(slots),
            mem,
            tail: start,
            mask: (slots - 1) as u64,
        }
    }

    /// Take the next published chunk, appending its bytes to `out`: the
    /// empty-destination case of [`Self::try_pop_into`].
    pub fn try_pop(&mut self, out: &mut Vec<u8>) -> Pop {
        self.try_pop_into(&mut [], out)
    }

    /// Take the next published chunk, copying each byte once: as many as
    /// fit into `direct` (the unfilled rest of whatever the caller is
    /// assembling), what follows appended to `out` — the shape of a
    /// `readv(2)` into `[direct, out]`. On `Got(n)` the first
    /// `min(n, direct.len())` bytes of `direct` are initialised. A SKIP at
    /// the tail is taken on the way and never surfaces.
    pub fn try_pop_into(&mut self, direct: &mut [MaybeUninit<u8>], out: &mut Vec<u8>) -> Pop {
        loop {
            let idx = (self.tail & self.mask) as u32;
            // ORDERING: Acquire pairs with the producer's publish — the
            // slot bytes and `len` written before it are visible below.
            let seq = self.mem.seq(idx).load(Ordering::Acquire);
            if seq != self.tail.wrapping_add(1) {
                // Until the producer publishes it, the slot holds a free
                // value: `tail` (our own recycle, or the initial value),
                // or an older lap's in a slot rewinds have skipped. Any
                // other value is peer-written garbage.
                return if free_at(seq, self.tail, self.mask) {
                    Pop::Empty
                } else {
                    Pop::Corrupt
                };
            }
            // ORDERING: Relaxed — ordered by the Acquire seq load above.
            let n = self.mem.len(idx).load(Ordering::Relaxed);
            if n == SKIP {
                // An honest producer rewinds only from `rewind_at` on, so
                // a SKIP is taken at most once a pop: the slot it leads
                // to, a lap's first, cannot hold another.
                if idx < self.rewind_at {
                    return Pop::Corrupt;
                }
                self.recycle(idx);
                self.tail = (self.tail | self.mask).wrapping_add(1);
                continue;
            }
            // Peer-controlled input: an impossible length is reported,
            // never trusted (and never a panic).
            if n > self.mem.slot_size() {
                return Pop::Corrupt;
            }
            self.mem.read(idx, n, direct, out);
            self.recycle(idx);
            self.tail = self.tail.wrapping_add(1);
            return Pop::Got(n as usize);
        }
    }

    /// Hand the tail slot back to the producer for the next lap.
    fn recycle(&self, idx: u32) {
        // ORDERING: Release recycle pairs with the producer's claim (and
        // drained-check) Acquire — our payload reads complete before it
        // may overwrite.
        self.mem.seq(idx).store(
            self.tail.wrapping_add(self.mem.slots() as u64),
            Ordering::Release,
        );
    }

    /// Announce intent to park, then re-check the ring. Returns `true`
    /// when parking is safe (ring confirmed empty *after* the flag was
    /// visible); `false` means a chunk arrived — the flag has been
    /// cleared and the caller should pop instead of parking.
    pub fn prepare_park(&self) -> bool {
        // ORDERING: SeqCst — the consumer half of the Dekker handshake:
        // the flag store must be globally ordered before the re-check so
        // the producer's publish/flag-read cannot miss both.
        self.mem.parked().store(1, Ordering::SeqCst);
        let idx = (self.tail & self.mask) as u32;
        // ORDERING: SeqCst RMW re-check — an RMW reads the latest value
        // in the word's modification order, so a publish that "beat" our
        // flag store is observed here and we decline to park.
        let seq = self.mem.seq(idx).fetch_add(0, Ordering::SeqCst);
        if seq == self.tail.wrapping_add(1) {
            self.mem.parked().store(0, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Clear the parked flag after waking (the producer's doorbell swap
    /// usually already has; this covers timeout/spurious wakeups).
    pub fn unpark(&self) {
        // ORDERING: SeqCst, as the rest of the flag handshake.
        self.mem.parked().store(0, Ordering::SeqCst);
    }
}

/// A connected heap-backed ring: `(producer, consumer, shared memory)`.
/// The memory handle is returned too so tests can inspect or corrupt the
/// control words.
pub fn heap_ring(
    slots: u32,
    slot_size: u32,
) -> (
    Producer<std::sync::Arc<HeapMem>>,
    Consumer<std::sync::Arc<HeapMem>>,
    std::sync::Arc<HeapMem>,
) {
    heap_ring_with_start(slots, slot_size, 0)
}

/// [`heap_ring`] with a custom start position (wraparound coverage).
pub fn heap_ring_with_start(
    slots: u32,
    slot_size: u32,
    start: u64,
) -> (
    Producer<std::sync::Arc<HeapMem>>,
    Consumer<std::sync::Arc<HeapMem>>,
    std::sync::Arc<HeapMem>,
) {
    let mem = std::sync::Arc::new(HeapMem::with_start(slots, slot_size, start));
    (
        Producer::with_start(std::sync::Arc::clone(&mem), start),
        Consumer::with_start(std::sync::Arc::clone(&mem), start),
        mem,
    )
}
