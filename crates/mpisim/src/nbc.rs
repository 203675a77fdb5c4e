//! Round-based schedules for nonblocking collectives.
//!
//! Each collective is compiled into a vector of [`Round`]s at initiation
//! (mirroring libNBC-style schedule construction). The progress engine
//! advances one round at a time: post the round's internal point-to-point
//! operations, wait for them (across progress polls), apply the receive
//! actions (reduction combines, block placement), move on.
//!
//! The essential property this representation preserves is that a
//! nonblocking collective only advances **when the progress engine runs**
//! (paper §2, Figures 3 and 5): between polls, a schedule sits frozen at
//! its current round no matter how much virtual time passes.
//!
//! Algorithms: dissemination barrier, binomial broadcast/reduce,
//! recursive-doubling allreduce (power-of-two sizes; reduce+bcast
//! composition otherwise), ring allgather, pairwise-exchange all-to-all,
//! linear gather/scatter.
//!
//! **One planner.** `plan_of` is the only place a collective becomes its
//! accumulator, retained input and rounds. It is generic over the
//! [`Payload`] the buffers are made of, with two instantiations: [`Coll`]
//! (`Vec<u8>`) on every live path, through the non-generic [`plan`], and
//! `CollOf<Bytes>` in the simulator (`crate::Mpi::icollective`), where a
//! synthetic payload stays synthetic.
//!
//! **Two executors.** Over a real [`rtmpi::Transport`] there is exactly
//! one, [`NbcRun`]: the offload thread, the direct (baseline/iprobe)
//! modes, the wire fixtures, the protocol model checker and the
//! benchmark's peers all step it and differ only in who calls
//! [`NbcRun::poll`], and when. The discrete-event engine runs its own,
//! [`NbcInstance`] (`crate::engine`), the virtual-time reference. The two
//! differ in one modelled cost: `NbcInstance` posts a round only once the
//! previous round's *sends* completed too (a rendezvous send completes at
//! CTS), while `NbcRun` retires sends lazily across rounds. Running
//! `NbcRun` in the simulator would move virtual time, so the merge waits
//! for a change that re-captures the DES golden on purpose.

use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use rtmpi::{OpOutcome, Transport, TransportError};

use crate::engine::ReqInner;
use crate::types::{combine, Bytes, Dtype, Rank, ReduceOp, Tag};

/// Where the payload of an internal send comes from.
#[derive(Clone, Debug)]
pub enum DataSrc {
    /// The instance accumulator in its current state.
    Acc,
    /// A byte range of the accumulator.
    AccChunk(Range<usize>),
    /// A byte range of the immutable input buffer.
    InputChunk(Range<usize>),
    /// A fixed payload (e.g. the barrier token).
    Fixed(Bytes),
}

/// What to do with the payload of an internal receive once it lands.
#[derive(Clone, Debug)]
pub enum RecvAction {
    /// Drop it (barrier tokens).
    Discard,
    /// Replace the accumulator wholesale (broadcast).
    ReplaceAcc,
    /// Element-wise reduce into the accumulator.
    CombineAcc { dtype: Dtype, op: ReduceOp },
    /// Element-wise reduce into a byte range of the accumulator
    /// (reduce-scatter phases).
    CombineAt {
        offset: usize,
        dtype: Dtype,
        op: ReduceOp,
    },
    /// Copy into the accumulator at a byte offset (gather/all-to-all).
    StoreAt(usize),
}

/// Payloads at or above this size use the Rabenseifner (reduce-scatter +
/// allgather) allreduce schedule, moving `2·len` bytes per rank instead of
/// recursive doubling's `log2(P)·len` — matching what MPICH-family
/// libraries do for large reductions.
pub const ALLREDUCE_RSAG_THRESHOLD: usize = 16 * 1024;

/// One send within a round.
#[derive(Clone, Debug)]
pub struct SendSpec {
    /// Destination, as a communicator rank.
    pub peer: Rank,
    pub data: DataSrc,
}

/// One receive within a round.
#[derive(Clone, Debug)]
pub struct RecvSpec {
    /// Source, as a communicator rank.
    pub peer: Rank,
    pub action: RecvAction,
}

/// A schedule step: all its ops are posted together and must all complete
/// before the next round is posted.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub sends: Vec<SendSpec>,
    pub recvs: Vec<RecvSpec>,
}

impl Round {
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty()
    }
}

/// A live collective: schedule + progress state. Owned by the engine.
pub struct NbcInstance {
    pub comm: crate::engine::CommId,
    pub ctx_tag: Tag,
    pub rounds: Vec<Round>,
    pub cur: usize,
    pub inflight: Vec<Rc<ReqInner>>,
    pub recv_actions: Vec<(Rc<ReqInner>, RecvAction)>,
    pub acc: Bytes,
    pub input: Option<Bytes>,
    pub user_req: Rc<ReqInner>,
}

fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

/// Dissemination barrier: `ceil(log2 P)` rounds, in round `k` send a token
/// to `(r + 2^k) mod P` and receive one from `(r - 2^k) mod P`.
pub fn barrier_rounds(p: usize, r: Rank) -> Vec<Round> {
    debug_assert!(r < p);
    if p == 1 {
        return Vec::new();
    }
    (0..ceil_log2(p))
        .map(|k| {
            let d = 1usize << k;
            Round {
                sends: vec![SendSpec {
                    peer: (r + d) % p,
                    data: DataSrc::Fixed(Bytes::real(vec![0])),
                }],
                recvs: vec![RecvSpec {
                    peer: (r + p - d % p) % p,
                    action: RecvAction::Discard,
                }],
            }
        })
        .collect()
}

/// Binomial broadcast from `root`. The accumulator starts as the root's
/// buffer (root) or empty (others) and is replaced on receive.
pub fn bcast_rounds(p: usize, r: Rank, root: Rank) -> Vec<Round> {
    debug_assert!(r < p && root < p);
    if p == 1 {
        return Vec::new();
    }
    let vr = (r + p - root) % p; // virtual rank: root becomes 0
    let q = ceil_log2(p);
    let mut rounds = Vec::with_capacity(q as usize);
    for j in 0..q {
        let d = 1usize << j;
        let mut round = Round::default();
        if vr >= d && vr < 2 * d {
            // Receive my copy from vr - d.
            let peer_v = vr - d;
            round.recvs.push(RecvSpec {
                peer: (peer_v + root) % p,
                action: RecvAction::ReplaceAcc,
            });
        } else if vr < d && vr + d < p {
            round.sends.push(SendSpec {
                peer: (vr + d + root) % p,
                data: DataSrc::Acc,
            });
        }
        rounds.push(round);
    }
    rounds
}

/// Binomial reduce to `root` (accumulator holds the local contribution and
/// accumulates children; leaves send up).
pub fn reduce_rounds(p: usize, r: Rank, root: Rank, dtype: Dtype, op: ReduceOp) -> Vec<Round> {
    debug_assert!(r < p && root < p);
    if p == 1 {
        return Vec::new();
    }
    let vr = (r + p - root) % p;
    let q = ceil_log2(p);
    let mut rounds = Vec::with_capacity(q as usize);
    let mut sent = false;
    for j in 0..q {
        let d = 1usize << j;
        let mut round = Round::default();
        if !sent {
            if vr & d != 0 {
                round.sends.push(SendSpec {
                    peer: ((vr - d) + root) % p,
                    data: DataSrc::Acc,
                });
                sent = true;
            } else if vr + d < p {
                round.recvs.push(RecvSpec {
                    peer: ((vr + d) + root) % p,
                    action: RecvAction::CombineAcc { dtype, op },
                });
            }
        }
        rounds.push(round);
    }
    rounds
}

/// Allreduce of a `len`-byte payload. Large payloads on power-of-two rank
/// counts (with `len` divisible by `p` and the dtype) use Rabenseifner's
/// reduce-scatter + allgather; small ones use recursive doubling;
/// non-power-of-two sizes compose binomial reduce-to-0 with broadcast.
pub fn allreduce_rounds_sized(
    p: usize,
    r: Rank,
    dtype: Dtype,
    op: ReduceOp,
    len: usize,
) -> Vec<Round> {
    if p > 1
        && p.is_power_of_two()
        && len >= ALLREDUCE_RSAG_THRESHOLD
        && len.is_multiple_of(p * dtype.size())
    {
        return allreduce_rsag_rounds(p, r, dtype, op, len);
    }
    allreduce_rounds(p, r, dtype, op)
}

/// Rabenseifner allreduce: reduce-scatter by recursive halving, then
/// allgather by recursive doubling. `2·len·(p-1)/p` bytes on the wire per
/// rank, independent of `log2(p)`.
pub fn allreduce_rsag_rounds(
    p: usize,
    r: Rank,
    dtype: Dtype,
    op: ReduceOp,
    len: usize,
) -> Vec<Round> {
    debug_assert!(p.is_power_of_two() && r < p);
    debug_assert_eq!(len % (p * dtype.size()), 0);
    let q = ceil_log2(p);
    let mut rounds = Vec::with_capacity(2 * q as usize);
    // Reduce-scatter: halve the active range each round.
    let (mut lo, mut hi) = (0usize, len);
    for k in 0..q {
        let half = (hi - lo) / 2;
        let partner = r ^ (1usize << k);
        if r & (1 << k) == 0 {
            rounds.push(Round {
                sends: vec![SendSpec {
                    peer: partner,
                    data: DataSrc::AccChunk(lo + half..hi),
                }],
                recvs: vec![RecvSpec {
                    peer: partner,
                    action: RecvAction::CombineAt {
                        offset: lo,
                        dtype,
                        op,
                    },
                }],
            });
            hi = lo + half;
        } else {
            rounds.push(Round {
                sends: vec![SendSpec {
                    peer: partner,
                    data: DataSrc::AccChunk(lo..lo + half),
                }],
                recvs: vec![RecvSpec {
                    peer: partner,
                    action: RecvAction::CombineAt {
                        offset: lo + half,
                        dtype,
                        op,
                    },
                }],
            });
            lo += half;
        }
    }
    // Allgather: double the owned range back up, reversing the bits.
    for k in (0..q).rev() {
        let partner = r ^ (1usize << k);
        let size = hi - lo;
        let partner_lo = if r & (1 << k) == 0 { hi } else { lo - size };
        rounds.push(Round {
            sends: vec![SendSpec {
                peer: partner,
                data: DataSrc::AccChunk(lo..hi),
            }],
            recvs: vec![RecvSpec {
                peer: partner,
                action: RecvAction::StoreAt(partner_lo),
            }],
        });
        if r & (1 << k) == 0 {
            hi += size;
        } else {
            lo -= size;
        }
    }
    rounds
}

/// Allreduce. Power-of-two sizes use recursive doubling; otherwise the
/// schedule composes binomial reduce-to-0 with binomial broadcast.
pub fn allreduce_rounds(p: usize, r: Rank, dtype: Dtype, op: ReduceOp) -> Vec<Round> {
    debug_assert!(r < p);
    if p == 1 {
        return Vec::new();
    }
    if p.is_power_of_two() {
        (0..ceil_log2(p))
            .map(|k| {
                let peer = r ^ (1usize << k);
                Round {
                    sends: vec![SendSpec {
                        peer,
                        data: DataSrc::Acc,
                    }],
                    recvs: vec![RecvSpec {
                        peer,
                        action: RecvAction::CombineAcc { dtype, op },
                    }],
                }
            })
            .collect()
    } else {
        let mut rounds = reduce_rounds(p, r, 0, dtype, op);
        rounds.extend(bcast_rounds(p, r, 0));
        rounds
    }
}

/// Ring allgather of `block` bytes per rank. The accumulator is the output
/// buffer of `p * block` bytes with the local contribution pre-placed at
/// `r * block` by the caller.
pub fn allgather_rounds(p: usize, r: Rank, block: usize) -> Vec<Round> {
    debug_assert!(r < p);
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    (0..p.saturating_sub(1))
        .map(|k| {
            let send_block = (r + p - k) % p;
            let recv_block = (r + p - k - 1) % p;
            Round {
                sends: vec![SendSpec {
                    peer: right,
                    data: DataSrc::AccChunk(send_block * block..(send_block + 1) * block),
                }],
                recvs: vec![RecvSpec {
                    peer: left,
                    action: RecvAction::StoreAt(recv_block * block),
                }],
            }
        })
        .collect()
}

/// Pairwise-exchange all-to-all of `block` bytes per peer. The input buffer
/// holds `p * block` bytes; the accumulator is the output buffer with the
/// local block pre-placed by the caller.
pub fn alltoall_rounds(p: usize, r: Rank, block: usize) -> Vec<Round> {
    debug_assert!(r < p);
    (1..p)
        .map(|k| {
            let dst = (r + k) % p;
            let src = (r + p - k) % p;
            Round {
                sends: vec![SendSpec {
                    peer: dst,
                    data: DataSrc::InputChunk(dst * block..(dst + 1) * block),
                }],
                recvs: vec![RecvSpec {
                    peer: src,
                    action: RecvAction::StoreAt(src * block),
                }],
            }
        })
        .collect()
}

/// Linear gather of `block` bytes per rank to `root`: non-roots send once,
/// the root posts `P-1` receives in a single round. (A binomial tree would
/// lower root congestion; linear matches common small-`P` implementations
/// and keeps the root-bottleneck behaviour visible.)
pub fn gather_rounds(p: usize, r: Rank, root: Rank, block: usize) -> Vec<Round> {
    debug_assert!(r < p && root < p);
    if p == 1 {
        return Vec::new();
    }
    if r == root {
        vec![Round {
            sends: Vec::new(),
            recvs: (0..p)
                .filter(|&s| s != root)
                .map(|s| RecvSpec {
                    peer: s,
                    action: RecvAction::StoreAt(s * block),
                })
                .collect(),
        }]
    } else {
        vec![Round {
            sends: vec![SendSpec {
                peer: root,
                data: DataSrc::Acc,
            }],
            recvs: Vec::new(),
        }]
    }
}

/// Linear scatter of `block` bytes per rank from `root`.
pub fn scatter_rounds(p: usize, r: Rank, root: Rank, block: usize) -> Vec<Round> {
    debug_assert!(r < p && root < p);
    if p == 1 {
        return Vec::new();
    }
    if r == root {
        vec![Round {
            sends: (0..p)
                .filter(|&d| d != root)
                .map(|d| SendSpec {
                    peer: d,
                    data: DataSrc::InputChunk(d * block..(d + 1) * block),
                })
                .collect(),
            recvs: Vec::new(),
        }]
    } else {
        vec![Round {
            sends: Vec::new(),
            recvs: vec![RecvSpec {
                peer: root,
                action: RecvAction::ReplaceAcc,
            }],
        }]
    }
}

/// A collective operation with its arguments — the full collective
/// surface of both clocks. [`plan`] maps each onto the round generators
/// above. `P` is what the buffers are made of: real bytes on a live
/// transport ([`Coll`]), possibly synthetic ones in the simulator
/// (`CollOf<Bytes>`).
#[derive(Clone, Debug)]
pub enum CollOf<P> {
    Barrier,
    /// Element-wise allreduce of `data` (raw little-endian lanes of
    /// `dtype`). Rabenseifner reduce-scatter + allgather kicks in for large
    /// payloads on power-of-two worlds ([`allreduce_rounds_sized`]).
    Allreduce {
        dtype: Dtype,
        op: ReduceOp,
        data: P,
    },
    /// Element-wise reduce to `root`; the result buffer is meaningful on
    /// the root only (other ranks get their partial back).
    Reduce {
        root: usize,
        dtype: Dtype,
        op: ReduceOp,
        data: P,
    },
    /// Personalized all-to-all of `block`-byte blocks.
    Alltoall {
        input: P,
        block: usize,
    },
    /// Broadcast from `root` (payload on root only).
    Bcast {
        root: usize,
        payload: P,
    },
    /// Allgather of equal contributions.
    Allgather {
        mine: P,
    },
    /// Gather of equal `mine` blocks to `root` (root gets `size × block`
    /// bytes; other ranks get their own block back).
    Gather {
        root: usize,
        mine: P,
    },
    /// Scatter of `block`-byte blocks from `root`'s `input` (empty on
    /// non-roots); every rank gets its block.
    Scatter {
        root: usize,
        input: P,
        block: usize,
    },
}

/// The collective over real bytes: what every live transport runs.
pub type Coll = CollOf<Vec<u8>>;

/// What [`plan`] needs of a collective's buffers — no more, so a
/// synthetic simulator payload stays synthetic and allocates nothing.
pub trait Payload: Sized {
    /// The empty buffer (a non-root's accumulator before its block lands).
    fn empty() -> Self;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// A `p`-block buffer holding `self[own]` as block `r`, zeros elsewhere.
    fn placed(&self, own: Range<usize>, p: usize, r: usize) -> Self;
    /// A copy of `self[range]`.
    fn range(&self, range: Range<usize>) -> Self;
}

fn block_placed(block: &[u8], p: usize, r: usize) -> Vec<u8> {
    let n = block.len();
    let mut acc = vec![0u8; p * n];
    acc[r * n..(r + 1) * n].copy_from_slice(block);
    acc
}

impl Payload for Vec<u8> {
    fn empty() -> Self {
        Vec::new()
    }
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }
    fn placed(&self, own: Range<usize>, p: usize, r: usize) -> Self {
        block_placed(&self[own], p, r)
    }
    fn range(&self, range: Range<usize>) -> Self {
        self[range].to_vec()
    }
}

impl Payload for Bytes {
    fn empty() -> Self {
        Bytes::synthetic(0)
    }
    fn len(&self) -> usize {
        Bytes::len(self)
    }
    fn placed(&self, own: Range<usize>, p: usize, r: usize) -> Self {
        match self.as_real() {
            Some(v) => Bytes::real(block_placed(&v[own], p, r)),
            None => Bytes::synthetic(p * own.len()),
        }
    }
    fn range(&self, range: Range<usize>) -> Self {
        match self.as_real() {
            Some(v) => Bytes::real(v[range].to_vec()),
            None => Bytes::synthetic(range.len()),
        }
    }
}

/// `plan_of` over real bytes: the entry every live path calls. It is not
/// generic, so its one instance is compiled in this crate rather than
/// again inside each crate that drives a live collective, and what those
/// crates compile around their own hot code does not depend on the
/// planner's payload type.
pub fn plan(p: usize, r: usize, coll: Coll) -> (Vec<u8>, Option<Vec<u8>>, Vec<Round>) {
    plan_of(p, r, coll)
}

/// Compile a collective into its initial accumulator, retained input
/// buffer, and round schedule for world size `p`, rank `r`. This is the
/// one mapping from the collective surface onto the round generators, for
/// the simulator (`CollOf<Bytes>`) and every live path ([`plan`]) alike,
/// so no two of them can drift apart on algorithm selection (e.g. when
/// Rabenseifner kicks in).
pub(crate) fn plan_of<P: Payload>(
    p: usize,
    r: usize,
    coll: CollOf<P>,
) -> (P, Option<P>, Vec<Round>) {
    match coll {
        CollOf::Barrier => (P::empty(), None, barrier_rounds(p, r)),
        CollOf::Allreduce { dtype, op, data } => {
            let rounds = allreduce_rounds_sized(p, r, dtype, op, data.len());
            (data, None, rounds)
        }
        CollOf::Reduce {
            root,
            dtype,
            op,
            data,
        } => (data, None, reduce_rounds(p, r, root, dtype, op)),
        CollOf::Alltoall { input, block } => {
            assert_eq!(input.len(), p * block);
            let acc = input.placed(r * block..(r + 1) * block, p, r);
            (acc, Some(input), alltoall_rounds(p, r, block))
        }
        CollOf::Bcast { root, payload } => {
            let acc = if r == root { payload } else { P::empty() };
            (acc, None, bcast_rounds(p, r, root))
        }
        CollOf::Allgather { mine } => {
            let rounds = allgather_rounds(p, r, mine.len());
            (mine.placed(0..mine.len(), p, r), None, rounds)
        }
        CollOf::Gather { root, mine } => {
            let rounds = gather_rounds(p, r, root, mine.len());
            // Non-roots send their accumulator up and keep it.
            let acc = if r == root {
                mine.placed(0..mine.len(), p, r)
            } else {
                mine
            };
            (acc, None, rounds)
        }
        CollOf::Scatter { root, input, block } => {
            let rounds = scatter_rounds(p, r, root, block);
            if r == root {
                assert_eq!(input.len(), p * block);
                let acc = input.range(r * block..(r + 1) * block);
                (acc, Some(input), rounds)
            } else {
                // Replaced by the root's block on arrival.
                (P::empty(), None, rounds)
            }
        }
    }
}

/// Materialize a round send's payload from the schedule state.
fn resolve(acc: &[u8], input: Option<&[u8]>, src: &DataSrc) -> Arc<[u8]> {
    match src {
        DataSrc::Acc => Arc::from(acc),
        DataSrc::AccChunk(r) => Arc::from(&acc[r.clone()]),
        DataSrc::InputChunk(r) => {
            let input = input.expect("plan retains the input of every schedule that sends from it");
            Arc::from(&input[r.clone()])
        }
        DataSrc::Fixed(b) => Arc::from(b.to_vec()),
    }
}

/// Fold one landed round payload into the accumulator — the reduction /
/// placement step of the schedule. `data` comes from a peer (whose
/// collective arguments may differ from ours, or who may put anything on a
/// reserved tag), so its length is checked against the action first: a
/// misfit is an error that leaves the accumulator untouched.
fn apply(acc: &mut Vec<u8>, recv: &RecvSpec, data: &[u8]) -> Result<(), TransportError> {
    let room = acc.len();
    let fits_at = |off: usize| off.checked_add(data.len()).is_some_and(|end| end <= room);
    let fits = match &recv.action {
        RecvAction::Discard | RecvAction::ReplaceAcc => true,
        RecvAction::CombineAcc { .. } => data.len() == room,
        RecvAction::CombineAt { offset, dtype, .. } => {
            fits_at(*offset) && data.len().is_multiple_of(dtype.size())
        }
        RecvAction::StoreAt(off) => fits_at(*off),
    };
    if !fits {
        return Err(TransportError::RoundMismatch {
            peer: recv.peer,
            len: data.len(),
        });
    }
    match &recv.action {
        RecvAction::Discard => {}
        RecvAction::ReplaceAcc => *acc = data.to_vec(),
        RecvAction::CombineAcc { dtype, op } => combine(*dtype, *op, acc, data),
        RecvAction::CombineAt { offset, dtype, op } => {
            combine(*dtype, *op, &mut acc[*offset..offset + data.len()], data);
        }
        RecvAction::StoreAt(off) => acc[*off..off + data.len()].copy_from_slice(data),
    }
    Ok(())
}

/// One posted round receive: its request, and the payload once it landed.
type RoundRecv<T> = (<T as Transport>::Req, Option<Arc<[u8]>>);

/// One in-flight collective on one rank over a real transport: the libNBC
/// execution model reduced to its essence. Each round posts its sends and
/// receives together; the next round is posted only when every receive of
/// the current one has landed and been folded into the accumulator.
/// Nothing here blocks or drives the transport: [`poll`] inspects request
/// state and returns, the caller owns the progress loop — and thereby the
/// paper's central question of *who* polls.
///
/// [`poll`]: NbcRun::poll
pub struct NbcRun<T: Transport> {
    rounds: Vec<Round>,
    cur: usize,
    /// The current round's receives, in `rounds[cur].recvs` order; the
    /// round folds once all have landed.
    inflight: Vec<RoundRecv<T>>,
    /// Round sends not yet retired by the transport, across rounds. The
    /// run is done only when these drain — a still-pending reserved-tag
    /// send must not outlive the collective that issued it.
    sends: Vec<T::Req>,
    acc: Vec<u8>,
    input: Option<Vec<u8>>,
    tag: Tag,
}

impl<T: Transport> NbcRun<T> {
    /// Compile `coll` for this rank and post round 0. `tag` must be in
    /// the reserved collective space; every rank derives it from the same
    /// base plus its collective sequence number, so concurrent collectives
    /// cannot cross-match.
    pub fn start(mpi: &mut T, tag: Tag, coll: Coll) -> Self {
        debug_assert!(
            tag >= rtmpi::TAG_RESERVED_BASE,
            "collective tag must be reserved"
        );
        let (acc, input, rounds) = plan(mpi.size(), mpi.rank(), coll);
        let mut run = NbcRun {
            rounds,
            cur: 0,
            inflight: Vec::new(),
            sends: Vec::new(),
            acc,
            input,
            tag,
        };
        run.post_round(mpi);
        run
    }

    /// Post the sends and receives of round `cur` (no-op past the end).
    fn post_round(&mut self, mpi: &mut T) {
        let Some(round) = self.rounds.get(self.cur) else {
            return;
        };
        for send in &round.sends {
            let data = resolve(&self.acc, self.input.as_deref(), &send.data);
            let req = mpi.isend(send.peer, self.tag, data);
            if mpi.try_take(&req).is_none() {
                self.sends.push(req);
            }
        }
        for recv in &round.recvs {
            let req = mpi.irecv(Some(recv.peer), Some(self.tag));
            self.inflight.push((req, None));
        }
    }

    /// Advance as far as completed requests allow, cascading through any
    /// rounds that finish immediately. Never blocks, never calls
    /// `progress` — the caller owns the polling cadence. `Ok(true)` means
    /// every round has folded *and* every round send has been retired, so
    /// the transport carries no state of this collective any more. The
    /// first failed round op (e.g. `PeerLost`) or misfitting round payload
    /// surfaces as `Err`, after which only [`Self::abort`] is meaningful.
    pub fn poll(&mut self, mpi: &mut T) -> Result<bool, TransportError> {
        loop {
            let mut i = 0;
            while i < self.sends.len() {
                match mpi.try_take(&self.sends[i]) {
                    Some(Ok(_)) => {
                        self.sends.swap_remove(i);
                    }
                    Some(Err(e)) => return Err(e),
                    None => i += 1,
                }
            }
            let Some(round) = self.rounds.get(self.cur) else {
                return Ok(self.sends.is_empty());
            };
            let mut all = true;
            for (req, data) in self.inflight.iter_mut() {
                if data.is_some() {
                    continue;
                }
                match mpi.try_take(req) {
                    Some(Ok(OpOutcome::Received(_, d))) => *data = Some(d),
                    Some(Ok(OpOutcome::Sent)) => unreachable!("receive completed as a send"),
                    Some(Err(e)) => return Err(e),
                    None => all = false,
                }
            }
            if !all {
                return Ok(false);
            }
            for (recv, (_, data)) in round.recvs.iter().zip(self.inflight.drain(..)) {
                let data = data.expect("a round folds only once all its receives landed");
                apply(&mut self.acc, recv, &data)?;
            }
            self.cur += 1;
            self.post_round(mpi);
        }
    }

    /// Has every round folded? From then on [`Self::result`] is final even
    /// while [`Self::poll`] still reports round sends draining — the point
    /// at which the offload thread completes the waiter's slot.
    pub fn result_ready(&self) -> bool {
        self.cur >= self.rounds.len()
    }

    /// The accumulator: the collective's result once every round folded.
    pub fn result(&self) -> &[u8] {
        &self.acc
    }

    /// Move [`Self::result`] out, once [`Self::result_ready`]: no round
    /// reads the accumulator any more, so the run keeps draining its round
    /// sends without it. A second call yields an empty buffer.
    pub fn take_result(&mut self) -> Vec<u8> {
        debug_assert!(self.result_ready(), "result taken before the last fold");
        std::mem::take(&mut self.acc)
    }

    /// Cancel everything still outstanding (cleanup after an `Err`), so
    /// the transport does not carry orphaned requests into the next
    /// operation.
    pub fn abort(self, mpi: &mut T) {
        for (req, data) in &self.inflight {
            if data.is_none() {
                mpi.cancel(req);
            }
        }
        for req in &self.sends {
            mpi.cancel(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn barrier_round_counts() {
        assert!(barrier_rounds(1, 0).is_empty());
        assert_eq!(barrier_rounds(2, 0).len(), 1);
        assert_eq!(barrier_rounds(5, 3).len(), 3);
        assert_eq!(barrier_rounds(8, 7).len(), 3);
    }

    /// Global consistency: in every round, rank A sends to B iff B receives
    /// from A.
    fn check_matched(p: usize, schedules: &[Vec<Round>]) {
        let max_rounds = schedules.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..max_rounds {
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for (r, sched) in schedules.iter().enumerate() {
                if let Some(rd) = sched.get(round) {
                    for s in &rd.sends {
                        sends.push((r, s.peer));
                    }
                    for rc in &rd.recvs {
                        recvs.push((rc.peer, r));
                    }
                }
            }
            sends.sort_unstable();
            recvs.sort_unstable();
            assert_eq!(sends, recvs, "round {round} of {p} ranks mismatched");
        }
    }

    #[test]
    fn barrier_sends_match_recvs() {
        for p in [2, 3, 4, 5, 8, 13] {
            let schedules: Vec<_> = (0..p).map(|r| barrier_rounds(p, r)).collect();
            check_matched(p, &schedules);
        }
    }

    #[test]
    fn bcast_sends_match_recvs_and_cover_all() {
        for p in [2, 3, 4, 7, 8, 9] {
            for root in [0, p - 1, p / 2] {
                let schedules: Vec<_> = (0..p).map(|r| bcast_rounds(p, r, root)).collect();
                check_matched(p, &schedules);
                // Every non-root receives exactly once.
                for (r, sched) in schedules.iter().enumerate() {
                    let n: usize = sched.iter().map(|rd| rd.recvs.len()).sum();
                    assert_eq!(n, usize::from(r != root), "rank {r} root {root} p {p}");
                }
            }
        }
    }

    #[test]
    fn reduce_sends_match_recvs_and_each_nonroot_sends_once() {
        for p in [2, 3, 4, 6, 8, 11] {
            for root in [0, p - 1] {
                let schedules: Vec<_> = (0..p)
                    .map(|r| reduce_rounds(p, r, root, Dtype::F64, ReduceOp::Sum))
                    .collect();
                check_matched(p, &schedules);
                for (r, sched) in schedules.iter().enumerate() {
                    let n: usize = sched.iter().map(|rd| rd.sends.len()).sum();
                    assert_eq!(n, usize::from(r != root));
                }
            }
        }
    }

    #[test]
    fn allreduce_sends_match_recvs() {
        for p in [2, 3, 4, 5, 8, 12, 16] {
            let schedules: Vec<_> = (0..p)
                .map(|r| allreduce_rounds(p, r, Dtype::F64, ReduceOp::Sum))
                .collect();
            check_matched(p, &schedules);
        }
    }

    #[test]
    fn allgather_blocks_rotate_fully() {
        for p in [2, 3, 5, 8] {
            let schedules: Vec<_> = (0..p).map(|r| allgather_rounds(p, r, 16)).collect();
            check_matched(p, &schedules);
            // Every rank stores every foreign block exactly once.
            for (r, sched) in schedules.iter().enumerate() {
                let mut offsets: Vec<usize> = sched
                    .iter()
                    .flat_map(|rd| rd.recvs.iter())
                    .map(|rc| match rc.action {
                        RecvAction::StoreAt(o) => o / 16,
                        _ => panic!("allgather must store blocks"),
                    })
                    .collect();
                offsets.sort_unstable();
                let expect: Vec<usize> = (0..p).filter(|&b| b != r).collect();
                assert_eq!(offsets, expect);
            }
        }
    }

    #[test]
    fn alltoall_exchanges_every_pair() {
        for p in [2, 3, 4, 7] {
            let schedules: Vec<_> = (0..p).map(|r| alltoall_rounds(p, r, 8)).collect();
            check_matched(p, &schedules);
            for (r, sched) in schedules.iter().enumerate() {
                let mut dsts: Vec<usize> = sched
                    .iter()
                    .flat_map(|rd| rd.sends.iter())
                    .map(|s| s.peer)
                    .collect();
                dsts.sort_unstable();
                let expect: Vec<usize> = (0..p).filter(|&d| d != r).collect();
                assert_eq!(dsts, expect);
            }
        }
    }

    #[test]
    fn gather_scatter_match() {
        for p in [2, 4, 5] {
            let g: Vec<_> = (0..p).map(|r| gather_rounds(p, r, 0, 4)).collect();
            check_matched(p, &g);
            let s: Vec<_> = (0..p).map(|r| scatter_rounds(p, r, 0, 4)).collect();
            check_matched(p, &s);
        }
    }

    #[test]
    fn rsag_allreduce_sends_match_recvs_and_cover_every_block() {
        for p in [2usize, 4, 8, 16] {
            let len = p * 8 * 4; // divisible by p and the dtype
            let schedules: Vec<_> = (0..p)
                .map(|r| allreduce_rsag_rounds(p, r, Dtype::F64, ReduceOp::Sum, len))
                .collect();
            check_matched(p, &schedules);
            // 2·log2(p) rounds; total bytes ≈ 2·len·(p-1)/p per rank.
            for sched in &schedules {
                assert_eq!(sched.len(), 2 * (p.trailing_zeros() as usize));
            }
        }
    }

    #[test]
    fn sized_selector_picks_the_right_algorithm() {
        // Small payload → recursive doubling (log2 rounds).
        let small = allreduce_rounds_sized(8, 0, Dtype::F64, ReduceOp::Sum, 64);
        assert_eq!(small.len(), 3);
        // Large divisible payload → RSAG (2·log2 rounds).
        let large = allreduce_rounds_sized(8, 0, Dtype::F64, ReduceOp::Sum, 64 * 1024);
        assert_eq!(large.len(), 6);
        // Large but indivisible → falls back.
        let odd = allreduce_rounds_sized(8, 0, Dtype::F64, ReduceOp::Sum, 64 * 1024 + 8);
        assert_eq!(odd.len(), 3);
        // Non-power-of-two stays on the reduce+bcast composite.
        let np2 = allreduce_rounds_sized(6, 0, Dtype::F64, ReduceOp::Sum, 64 * 1024 + 16);
        assert!(np2.len() > 3);
    }

    #[test]
    fn single_rank_collectives_are_empty() {
        assert!(allreduce_rounds(1, 0, Dtype::F64, ReduceOp::Sum).is_empty());
        assert!(alltoall_rounds(1, 0, 8).is_empty());
        assert!(allgather_rounds(1, 0, 8).is_empty());
        assert!(gather_rounds(1, 0, 0, 8).is_empty());
        assert!(scatter_rounds(1, 0, 0, 8).is_empty());
    }

    /// Every kind at rank `r` of `p`, its buffers made by `mk` from the
    /// same real bytes; row 4 is the Rabenseifner-sized allreduce.
    fn every_kind<P: Payload>(p: usize, r: usize, mk: impl Fn(Vec<u8>) -> P) -> Vec<CollOf<P>> {
        const B: usize = 3;
        let (root, dtype, op) = (p - 1, Dtype::F64, ReduceOp::Sum);
        let bytes = |n: usize| mk((0..n).map(|i| (r * 31 + i) as u8).collect());
        let at_root = |n: usize| bytes(if r == root { n } else { 0 });
        vec![
            CollOf::Barrier,
            CollOf::Bcast {
                root,
                payload: at_root(5),
            },
            CollOf::Reduce {
                root,
                dtype,
                op,
                data: bytes(16),
            },
            CollOf::Allreduce {
                dtype,
                op,
                data: bytes(16),
            },
            CollOf::Allreduce {
                dtype,
                op,
                data: bytes(ALLREDUCE_RSAG_THRESHOLD),
            },
            CollOf::Allgather { mine: bytes(B) },
            CollOf::Alltoall {
                input: bytes(p * B),
                block: B,
            },
            CollOf::Gather {
                root,
                mine: bytes(B),
            },
            CollOf::Scatter {
                root,
                input: at_root(p * B),
                block: B,
            },
        ]
    }

    /// The one planner over both payload types, for every kind, world
    /// size 1..=5 and rank: `Bytes::real(v)` plans to the accumulator,
    /// input and rounds `v` plans to, and `Bytes::synthetic` to synthetic
    /// buffers of the same lengths and the same rounds.
    #[test]
    fn plan_agrees_over_vec_real_and_synthetic_bytes() {
        for p in 1..=5usize {
            for r in 0..p {
                let vecs = every_kind(p, r, |v| v);
                let reals = every_kind(p, r, Bytes::real);
                let synths = every_kind(p, r, |v| Bytes::synthetic(v.len()));
                let rows = vecs.into_iter().zip(reals).zip(synths);
                for (row, ((v, real), synth)) in rows.enumerate() {
                    let at = format!("row {row} p={p} r={r}");
                    let (acc, input, rounds) = plan(p, r, v);
                    let (racc, rinput, rrounds) = plan_of(p, r, real);
                    assert_eq!(racc.to_vec(), acc, "{at}");
                    assert_eq!(rinput.map(|b| b.to_vec()), input, "{at}");
                    assert_eq!(format!("{rrounds:?}"), format!("{rounds:?}"), "{at}");
                    let (sacc, sinput, srounds) = plan_of(p, r, synth);
                    let shape = |b: Bytes| (b.as_real().is_some(), b.len());
                    assert_eq!(shape(sacc), (false, acc.len()), "{at}");
                    let want = input.as_ref().map(|i| (false, i.len()));
                    assert_eq!(sinput.map(shape), want, "{at}");
                    assert_eq!(format!("{srounds:?}"), format!("{rounds:?}"), "{at}");
                    if row == 4 && p.is_power_of_two() && p > 1 {
                        let log2 = p.trailing_zeros() as usize;
                        assert_eq!(rounds.len(), 2 * log2, "{at}: Rabenseifner");
                    }
                }
            }
        }
    }

    /// Counts requests issued against outcomes taken, so a finished run
    /// can be shown to leave nothing behind on the transport.
    struct Counting {
        t: rtmpi::RtMpi,
        open: usize,
    }

    impl Transport for Counting {
        type Req = rtmpi::RtRequest;

        fn rank(&self) -> usize {
            self.t.rank()
        }
        fn size(&self) -> usize {
            self.t.size()
        }
        fn isend(&mut self, dst: usize, tag: Tag, data: Arc<[u8]>) -> Self::Req {
            self.open += 1;
            self.t.isend(dst, tag, data)
        }
        fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Self::Req {
            self.open += 1;
            self.t.irecv(src, tag)
        }
        fn progress(&mut self) -> bool {
            panic!("the runner never drives the transport")
        }
        fn is_done(&mut self, req: &Self::Req) -> bool {
            Transport::is_done(&mut self.t, req)
        }
        fn try_take(&mut self, req: &Self::Req) -> Option<Result<OpOutcome, TransportError>> {
            let out = Transport::try_take(&mut self.t, req);
            self.open -= usize::from(out.is_some());
            out
        }
        fn needs_progress(&self) -> bool {
            false
        }
        fn iprobe(&mut self, src: Option<usize>, tag: Option<Tag>) -> Option<rtmpi::Status> {
            self.t.iprobe(src, tag)
        }
    }

    /// The single runner over every kind: all ranks of an in-process world
    /// stepped round-robin on one thread, results against closed forms,
    /// and `poll == Ok(true)` leaving no request un-taken.
    #[test]
    fn runner_completes_every_kind_at_2_to_5_ranks() {
        use crate::types::f64s_to_bytes;
        const B: usize = 3;
        for p in [2usize, 3, 4, 5] {
            let root = p - 1;
            // The block rank `s` holds for rank `d`.
            let blk = |s: usize, d: usize| [(s * 16 + d) as u8; B];
            let lanes = |r: usize, n: usize| {
                f64s_to_bytes(&(0..n).map(|l| (r + l) as f64).collect::<Vec<_>>())
            };
            let sums = |n: usize| {
                let sum = |l: usize| (0..p).map(|r| (r + l) as f64).sum();
                f64s_to_bytes(&(0..n).map(sum).collect::<Vec<f64>>())
            };
            let gathered: Vec<u8> = (0..p).flat_map(|s| blk(s, 0)).collect();
            let allreduce = |n: usize| -> Box<dyn Fn(usize) -> Coll> {
                Box::new(move |r| Coll::Allreduce {
                    dtype: Dtype::F64,
                    op: ReduceOp::Sum,
                    data: lanes(r, n),
                })
            };
            let big = ALLREDUCE_RSAG_THRESHOLD / 8;
            type Row<'a> = (
                &'a str,
                Box<dyn Fn(usize) -> Coll + 'a>,
                Box<dyn Fn(usize) -> Option<Vec<u8>> + 'a>,
            );
            let table: Vec<Row> = vec![
                (
                    "barrier",
                    Box::new(|_| Coll::Barrier),
                    Box::new(|_| Some(Vec::new())),
                ),
                (
                    "bcast",
                    Box::new(|r| Coll::Bcast {
                        root,
                        payload: if r == root { vec![9, 8, 7] } else { Vec::new() },
                    }),
                    Box::new(|_| Some(vec![9, 8, 7])),
                ),
                (
                    "reduce",
                    Box::new(|r| Coll::Reduce {
                        root,
                        dtype: Dtype::F64,
                        op: ReduceOp::Sum,
                        data: lanes(r, 2),
                    }),
                    // Only the root's accumulator is specified.
                    Box::new(|r| (r == root).then(|| sums(2))),
                ),
                ("allreduce", allreduce(2), Box::new(|_| Some(sums(2)))),
                (
                    "allreduce-16KiB",
                    allreduce(big),
                    Box::new(|_| Some(sums(big))),
                ),
                (
                    "allgather",
                    Box::new(|r| Coll::Allgather {
                        mine: blk(r, 0).to_vec(),
                    }),
                    Box::new(|_| Some(gathered.clone())),
                ),
                (
                    "alltoall",
                    Box::new(|r| Coll::Alltoall {
                        input: (0..p).flat_map(|d| blk(r, d)).collect(),
                        block: B,
                    }),
                    Box::new(|r| Some((0..p).flat_map(|s| blk(s, r)).collect())),
                ),
                (
                    "gather",
                    Box::new(|r| Coll::Gather {
                        root,
                        mine: blk(r, 0).to_vec(),
                    }),
                    Box::new(|r| {
                        Some(if r == root {
                            gathered.clone()
                        } else {
                            blk(r, 0).to_vec()
                        })
                    }),
                ),
                (
                    "scatter",
                    Box::new(|r| Coll::Scatter {
                        root,
                        input: if r == root {
                            (0..p).flat_map(|d| blk(root, d)).collect()
                        } else {
                            Vec::new()
                        },
                        block: B,
                    }),
                    Box::new(|r| Some(blk(root, r).to_vec())),
                ),
            ];
            if p == 4 {
                // The large row really is the Rabenseifner branch.
                assert_eq!(plan(4, 0, table[4].1(0)).2.len(), 4);
            }
            let mut world: Vec<Counting> = rtmpi::world(p)
                .into_iter()
                .map(|t| Counting { t, open: 0 })
                .collect();
            for (row, (name, coll, expect)) in table.iter().enumerate() {
                let tag = rtmpi::TAG_COLL_BASE + row as Tag;
                let mut runs: Vec<_> = world
                    .iter_mut()
                    .enumerate()
                    .map(|(r, t)| Some(NbcRun::start(t, tag, coll(r))))
                    .collect();
                let mut sweeps = 0;
                while runs.iter().any(Option::is_some) {
                    for (r, slot) in runs.iter_mut().enumerate() {
                        let Some(run) = slot else { continue };
                        if !run.poll(&mut world[r]).expect("in-process ops never fail") {
                            continue;
                        }
                        assert!(run.result_ready());
                        assert_eq!(world[r].open, 0, "{name} p={p} rank {r} left requests");
                        if let Some(want) = expect(r) {
                            assert_eq!(run.result(), &want[..], "{name} p={p} rank {r}");
                        }
                        *slot = None;
                    }
                    sweeps += 1;
                    assert!(sweeps <= 64, "{name} p={p} wedged");
                }
            }
        }
    }

    /// A round payload that does not fit its action is refused with the
    /// accumulator untouched — it used to index out of bounds or trip
    /// `combine`'s length assert on the polling thread.
    #[test]
    fn apply_refuses_misfitting_payloads() {
        let (dtype, op) = (Dtype::F64, ReduceOp::Sum);
        let misfits = [
            (RecvAction::CombineAcc { dtype, op }, 8),
            (
                RecvAction::CombineAt {
                    offset: 8,
                    dtype,
                    op,
                },
                16,
            ),
            (
                RecvAction::CombineAt {
                    offset: 0,
                    dtype,
                    op,
                },
                4,
            ),
            (
                RecvAction::CombineAt {
                    offset: usize::MAX,
                    dtype,
                    op,
                },
                8,
            ),
            (RecvAction::StoreAt(9), 8),
            (RecvAction::StoreAt(usize::MAX), 1),
        ];
        let from_peer = |action| RecvSpec { peer: 3, action };
        for (action, len) in misfits {
            let mut acc = vec![1u8; 16];
            assert_eq!(
                apply(&mut acc, &from_peer(action.clone()), &vec![0; len]),
                Err(TransportError::RoundMismatch { peer: 3, len }),
                "{action:?}"
            );
            assert_eq!(acc, vec![1u8; 16]);
        }
        // Any length is fine where the schedule does not fix one.
        let mut acc = vec![1u8; 16];
        for (action, data, want) in [
            (RecvAction::Discard, vec![0; 99], vec![1; 16]),
            (
                RecvAction::StoreAt(8),
                vec![7; 8],
                [[1; 8], [7; 8]].concat(),
            ),
            (RecvAction::ReplaceAcc, vec![5; 2], vec![5; 2]),
        ] {
            assert_eq!(apply(&mut acc, &from_peer(action), &data), Ok(()));
            assert_eq!(acc, want);
        }
    }
}
