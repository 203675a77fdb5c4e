//! `protocheck` — protocol model checking for the wire state machines.
//!
//! `crates/check`'s main facility (the sync facade + CHESS-style
//! scheduler) proves the lock-free *core*; this crate proves the *wire
//! protocol* — eager, RTS→CTS→DATA rendezvous, and the NBC round
//! schedules — under every frame interleaving the transport contract
//! allows. It exists because `wire::engine` is generic over
//! [`wire::FrameFabric`]: production runs the socket mesh, this crate
//! substitutes [`ModelFabric`], a deterministic in-process fabric where
//! *frame delivery itself* is the explored nondeterminism.
//!
//! ## The model
//!
//! An N-rank world runs one real `WireComm<ModelFabric>` engine per rank,
//! each driving a scripted workload (point-to-point sends/receives and/or
//! one collective via `mpisim::nbc::NbcRun`). All rank-local computation is
//! deterministic, so the world is advanced to a fixpoint ("stabilize")
//! between nondeterministic choices. What is explored, per step:
//!
//! * **Deliver** the oldest in-flight frame on one directed link
//!   (per-link FIFO is preserved — the fabric contract — but *cross-link*
//!   order is free, which is exactly the reordering a real network does);
//! * **Duplicate** the oldest in-flight `Cts`/`Data` frame on a link
//!   (budgeted); `Eager`/`Rts` are never duplicated — a stream transport
//!   cannot duplicate them, and the engine's exactly-once matching is
//!   entitled to that;
//! * **Kill** a rank (budgeted): its links die abruptly, in-flight frames
//!   are dropped, already-delivered bytes remain readable — the TCP
//!   abrupt-death shape.
//!
//! Delay needs no action of its own: a frame is delayed by choosing
//! other actions first.
//!
//! ## Invariants (checked on every schedule)
//!
//! * **No panic** anywhere in the engine or schedule runner.
//! * **No lost or mis-matched message**: every scripted receive resolves
//!   with the expected source, length, and byte pattern; every collective
//!   accumulator equals the independently-computed expected result.
//! * **`wire.protocol_errors` accounting exact**: with no kills, the
//!   world-wide counter equals precisely the number of duplicate frames
//!   injected (each dup is one stray `Cts`/`Data`, nothing else counts);
//!   with kills the equality is waived — a kill drops in-flight dups and
//!   a peer vanishing mid-handshake adds engine-side counts of its own.
//! * **Completion**: every schedule either completes every rank's script
//!   or surfaces [`rtmpi::TransportError::PeerLost`] naming a killed
//!   rank. A world with no enabled actions and an unfinished, un-failed
//!   rank is a hang — reported with its schedule.
//!
//! ## Exploration, seeds, replay
//!
//! The conventions match the core model checker: seeded SplitMix64
//! random walks (`OFFLOAD_MODEL_SEED`, default [`check::DEFAULT_SEED`];
//! `OFFLOAD_MODEL_ITERS`), schedule strings as dot-separated choice
//! indices ("3.0.1.2"), and exact replay via `OFFLOAD_MODEL_SCHEDULE` or
//! [`Strategy::Replay`]. The bounded-DFS strategy adds DPOR-style
//! pruning: two deliveries to *different destination ranks* commute (they
//! touch disjoint engine state), so of the two adjacent orders only the
//! canonical one is explored when both were enabled in the pre-state.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rtmpi::{OpOutcome, Transport, TransportError};
use wire::nbcrun::{Coll, Dtype, NbcRun, ReduceOp};
use wire::proto::{FrameKind, Header};
use wire::{Frame, FrameFabric, LinkPoll, WireComm, WireConfig, WireReq};

// ---------------------------------------------------------------- fabric

/// One directed link `src → dst` of the model network.
#[derive(Default)]
struct Link {
    /// Frames queued by `src` and not yet delivered (the "network"); the
    /// flag marks explorer-injected duplicates (counted on delivery).
    inflight: VecDeque<(Header, Vec<u8>, bool)>,
    /// Frames delivered to `dst`'s buffer and not yet read by its engine.
    inbox: VecDeque<(Header, Vec<u8>)>,
    /// Cumulative bytes ever queued (flush marks; flushing is instant in
    /// the model — *delivery* is the explored latency).
    queued_total: u64,
    /// Graceful close (src exited): no new frames, but what is already in
    /// flight still delivers; turns `dead` once drained — EOF after data.
    closing: bool,
    dead: bool,
}

/// The shared network state: `n*n` directed links.
struct ModelNet {
    n: usize,
    links: Vec<Link>,
}

impl ModelNet {
    fn new(n: usize) -> Self {
        ModelNet {
            n,
            links: (0..n * n).map(|_| Link::default()).collect(),
        }
    }

    fn link(&mut self, src: usize, dst: usize) -> &mut Link {
        &mut self.links[src * self.n + dst]
    }

    /// Abrupt death of `rank`: every link touching it dies, in-flight
    /// frames are dropped, delivered-but-unread bytes stay readable.
    fn kill(&mut self, rank: usize) {
        for other in 0..self.n {
            for (a, b) in [(rank, other), (other, rank)] {
                let l = self.link(a, b);
                l.dead = true;
                l.inflight.clear();
            }
        }
    }

    /// Graceful exit of `rank` (its script completed or failed): outbound
    /// links close — already-queued frames still deliver, then EOF;
    /// inbound links die at once (nobody reads them any more).
    fn exit(&mut self, rank: usize) {
        for other in 0..self.n {
            if other == rank {
                continue;
            }
            let out = self.link(rank, other);
            out.closing = true;
            if out.inflight.is_empty() {
                out.dead = true;
            }
            let inbound = self.link(other, rank);
            inbound.dead = true;
            inbound.inflight.clear();
        }
    }
}

/// Panic-tolerant lock: exploration catches engine panics, which poisons
/// the mutex; the world is discarded right after, so the state is fine.
fn net_lock(net: &Arc<Mutex<ModelNet>>) -> MutexGuard<'_, ModelNet> {
    net.lock().unwrap_or_else(|e| e.into_inner())
}

/// The deterministic fabric one rank's engine runs on. All engines of a
/// world share one [`ModelNet`]; the explorer moves frames from
/// `inflight` to `inbox` between stabilization rounds.
pub struct ModelFabric {
    net: Arc<Mutex<ModelNet>>,
    rank: usize,
    /// Death is reported to the engine exactly once per peer, through a
    /// poll result (like an EOF read) — before that the link still looks
    /// alive, matching how a real socket fails only when polled.
    reported: Vec<bool>,
}

impl FrameFabric for ModelFabric {
    fn size(&self) -> usize {
        net_lock(&self.net).n
    }

    fn alive(&self, peer: usize) -> bool {
        !self.reported[peer]
    }

    fn queue(&mut self, peer: usize, hdr: &Header, body: &[u8]) -> u64 {
        let mut net = net_lock(&self.net);
        let link = net.link(self.rank, peer);
        link.queued_total += (wire::proto::HEADER_LEN + body.len()) as u64;
        if !link.dead && !link.closing {
            link.inflight.push_back((*hdr, body.to_vec(), false));
        }
        link.queued_total
    }

    fn queued(&self, peer: usize) -> u64 {
        net_lock(&self.net).link(self.rank, peer).queued_total
    }

    fn flushed(&self, peer: usize) -> u64 {
        // Flushing is instant: queued bytes are on the wire immediately.
        self.queued(peer)
    }

    fn flush(&mut self, _peer: usize) -> LinkPoll {
        LinkPoll::default()
    }

    // No descriptors: the default `sweep` reports every link, so the
    // engine reads each one every pass, as the explorer expects.
    fn recv(
        &mut self,
        peer: usize,
        _granted: &dyn Fn(&Header) -> bool,
        out: &mut Vec<Frame>,
    ) -> LinkPoll {
        let mut res = LinkPoll::default();
        let mut net = net_lock(&self.net);
        let link = net.link(peer, self.rank);
        while let Some((hdr, body)) = link.inbox.pop_front() {
            res.bytes += (wire::proto::HEADER_LEN + body.len()) as u64;
            res.moved = true;
            out.push((hdr, Arc::from(body)));
        }
        // Both directions dead = the peer is gone; report it once, after
        // the delivered bytes above (EOF comes after the data).
        let gone = link.dead && net.link(self.rank, peer).dead;
        if gone && !self.reported[peer] {
            self.reported[peer] = true;
            res.died = true;
        }
        res
    }
}

// ---------------------------------------------------------------- worlds

/// One scripted point-to-point send.
#[derive(Clone, Debug)]
pub struct SendOp {
    pub dst: usize,
    pub tag: u32,
    pub len: usize,
}

/// One scripted receive, with the outcome the invariant checker demands.
/// `expect_from` is the rank whose payload pattern must arrive (named
/// even when `src` is the wildcard); `None` skips the content check (used
/// when several sources race for one wildcard receive).
#[derive(Clone, Debug)]
pub struct RecvOp {
    pub src: Option<usize>,
    pub tag: Option<u32>,
    pub expect_from: Option<usize>,
    pub expect_len: usize,
}

/// The collective a world runs (every rank participates).
#[derive(Clone, Copy, Debug)]
pub enum CollOp {
    Barrier,
    /// Broadcast `len` pattern bytes from `root`.
    Bcast {
        root: usize,
        len: usize,
    },
    /// f64 sum-reduce `lanes` lanes to `root`.
    Reduce {
        root: usize,
        lanes: usize,
    },
    /// f64 sum-allreduce over `lanes` lanes.
    Allreduce {
        lanes: usize,
    },
    /// Allgather `block` pattern bytes per rank.
    Allgather {
        block: usize,
    },
    /// Alltoall with `block` bytes per (src, dst) pair.
    Alltoall {
        block: usize,
    },
    /// Gather `block` pattern bytes per rank to `root`.
    Gather {
        root: usize,
        block: usize,
    },
    /// Scatter `block` pattern bytes per rank from `root`.
    Scatter {
        root: usize,
        block: usize,
    },
}

/// One rank's scripted workload. Receives are posted first, then the
/// collective starts, then sends are posted — the order that arms the
/// wildcard/reserved-tag interactions the checker exists to probe.
#[derive(Clone, Debug, Default)]
pub struct RankScript {
    pub sends: Vec<SendOp>,
    pub recvs: Vec<RecvOp>,
    pub coll: Option<CollOp>,
}

/// A world to explore: `n` ranks, engine crossover, one script per rank.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    pub n: usize,
    pub eager_max: usize,
    pub scripts: Vec<RankScript>,
}

/// Deterministic payload pattern for (sender, tag, length).
fn pattern(src: usize, tag: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8) ^ (src as u8).wrapping_mul(31) ^ (tag as u8))
        .collect()
}

/// Deterministic f64 lanes for a rank's reduction contribution.
fn lanes_for(rank: usize, lanes: usize) -> Vec<u8> {
    (0..lanes)
        .flat_map(|i| ((rank + 1) as f64 * (i + 1) as f64).to_le_bytes())
        .collect()
}

impl WorldSpec {
    /// Every rank exchanges a message with its right neighbour on a ring;
    /// `len` vs `eager_max` picks eager or rendezvous.
    pub fn ring(n: usize, eager_max: usize, len: usize) -> Self {
        let scripts = (0..n)
            .map(|r| RankScript {
                sends: vec![SendOp {
                    dst: (r + 1) % n,
                    tag: 1,
                    len,
                }],
                recvs: vec![RecvOp {
                    src: Some((r + n - 1) % n),
                    tag: Some(1),
                    expect_from: Some((r + n - 1) % n),
                    expect_len: len,
                }],
                coll: None,
            })
            .collect();
        WorldSpec {
            n,
            eager_max,
            scripts,
        }
    }

    /// All ranks run one collective, rendezvous-sized where it has data.
    pub fn collective(n: usize, eager_max: usize, coll: CollOp) -> Self {
        WorldSpec {
            n,
            eager_max,
            scripts: (0..n)
                .map(|_| RankScript {
                    coll: Some(coll),
                    ..RankScript::default()
                })
                .collect(),
        }
    }

    fn expected_coll(&self, rank: usize, coll: CollOp) -> Option<Vec<u8>> {
        let n = self.n;
        match coll {
            CollOp::Barrier => Some(Vec::new()),
            CollOp::Bcast { root, len } => Some(pattern(root, 0, len)),
            CollOp::Reduce { root, lanes } => {
                // Only the root's accumulator is specified.
                (rank == root).then(|| sum_lanes(n, lanes))
            }
            CollOp::Allreduce { lanes } => Some(sum_lanes(n, lanes)),
            CollOp::Allgather { block } => {
                Some((0..n).flat_map(|s| pattern(s, 0, block)).collect())
            }
            CollOp::Alltoall { block } => Some(
                (0..n)
                    .flat_map(|s| {
                        // Rank `s`'s input block destined to `rank`.
                        pattern(s, rank as u32, block)
                    })
                    .collect(),
            ),
            CollOp::Gather { root, block } => Some(if rank == root {
                (0..n).flat_map(|s| pattern(s, 0, block)).collect()
            } else {
                // Non-roots get their own block back.
                pattern(rank, 0, block)
            }),
            CollOp::Scatter { root, block } => Some(pattern(root, rank as u32, block)),
        }
    }
}

fn sum_lanes(n: usize, lanes: usize) -> Vec<u8> {
    (0..lanes)
        .flat_map(|i| {
            let sum: f64 = (0..n).map(|r| (r + 1) as f64 * (i + 1) as f64).sum();
            sum.to_le_bytes()
        })
        .collect()
}

fn coll_for(spec: &WorldSpec, rank: usize, coll: CollOp) -> Coll {
    let n = spec.n;
    match coll {
        CollOp::Barrier => Coll::Barrier,
        CollOp::Bcast { root, len } => Coll::Bcast {
            root,
            payload: if rank == root {
                pattern(root, 0, len)
            } else {
                Vec::new()
            },
        },
        CollOp::Reduce { root, lanes } => Coll::Reduce {
            root,
            dtype: Dtype::F64,
            op: ReduceOp::Sum,
            data: lanes_for(rank, lanes),
        },
        CollOp::Allreduce { lanes } => Coll::Allreduce {
            dtype: Dtype::F64,
            op: ReduceOp::Sum,
            data: lanes_for(rank, lanes),
        },
        CollOp::Allgather { block } => Coll::Allgather {
            mine: pattern(rank, 0, block),
        },
        CollOp::Alltoall { block } => Coll::Alltoall {
            input: (0..n)
                .flat_map(|dst| pattern(rank, dst as u32, block))
                .collect(),
            block,
        },
        CollOp::Gather { root, block } => Coll::Gather {
            root,
            mine: pattern(rank, 0, block),
        },
        CollOp::Scatter { root, block } => Coll::Scatter {
            root,
            input: if rank == root {
                (0..n)
                    .flat_map(|dst| pattern(root, dst as u32, block))
                    .collect()
            } else {
                Vec::new()
            },
            block,
        },
    }
}

// ----------------------------------------------------------------- world

enum RankPhase {
    Running,
    Done,
    /// An operation surfaced a transport error (expected iff that peer
    /// was killed).
    Failed(TransportError),
}

/// An in-flight collective plus its result buffer once finished.
type CollRun = (NbcRun<WireComm<ModelFabric>>, Option<Vec<u8>>);

struct RankState {
    comm: WireComm<ModelFabric>,
    /// Posted point-to-point ops with their expectations (`None` = send).
    pending: Vec<(WireReq, Option<RecvOp>)>,
    coll: Option<CollRun>,
    phase: RankPhase,
    /// First invariant violation observed on this rank.
    violation: Option<String>,
}

struct World {
    net: Arc<Mutex<ModelNet>>,
    ranks: Vec<RankState>,
    killed: Vec<bool>,
    /// Ranks whose script reached a terminal phase: modelled as process
    /// exit (their links close), so peers waiting on them cascade into
    /// `PeerLost` instead of wedging — exactly what the launcher worlds do.
    exited: Vec<bool>,
    dups_delivered: u64,
    kills_done: u64,
}

fn build_world(spec: &WorldSpec) -> World {
    assert_eq!(spec.scripts.len(), spec.n);
    let net = Arc::new(Mutex::new(ModelNet::new(spec.n)));
    let cfg = WireConfig {
        eager_max: spec.eager_max,
        ..WireConfig::default()
    };
    let mut ranks = Vec::with_capacity(spec.n);
    for (r, script) in spec.scripts.iter().enumerate() {
        let fabric = ModelFabric {
            net: net.clone(),
            rank: r,
            reported: vec![false; spec.n],
        };
        let mut comm = WireComm::from_fabric(r, spec.n, fabric, cfg.clone());
        let mut pending = Vec::new();
        // Receives first, then the collective, then sends (see RankScript).
        for recv in &script.recvs {
            let req = comm.irecv(recv.src, recv.tag);
            pending.push((req, Some(recv.clone())));
        }
        let coll = script.coll.map(|c| {
            let run = NbcRun::start(&mut comm, rtmpi::TAG_COLL_BASE, coll_for(spec, r, c));
            (run, spec.expected_coll(r, c))
        });
        for send in &script.sends {
            let req = comm.isend(
                send.dst,
                send.tag,
                Arc::from(pattern(r, send.tag, send.len)),
            );
            pending.push((req, None));
        }
        ranks.push(RankState {
            comm,
            pending,
            coll,
            phase: RankPhase::Running,
            violation: None,
        });
    }
    World {
        net,
        ranks,
        killed: vec![false; spec.n],
        exited: vec![false; spec.n],
        dups_delivered: 0,
        kills_done: 0,
    }
}

impl World {
    /// Advance every rank's deterministic computation to a fixpoint:
    /// engine progress (drains inboxes, queues responses) plus script
    /// polling (reaps finished ops, posts next collective rounds).
    fn stabilize(&mut self) {
        for _ in 0..100_000 {
            let mut any = false;
            for r in 0..self.ranks.len() {
                any |= self.step_rank(r);
                if !self.exited[r]
                    && !self.killed[r]
                    && !matches!(self.ranks[r].phase, RankPhase::Running)
                {
                    // The script is over: the process exits and its links
                    // close (its engine still drains what was already
                    // delivered, like a last poll before `exit()`).
                    self.exited[r] = true;
                    net_lock(&self.net).exit(r);
                    any = true;
                }
            }
            if !any {
                return;
            }
        }
        panic!("model world failed to stabilize (livelock in deterministic code)");
    }

    fn step_rank(&mut self, r: usize) -> bool {
        if self.killed[r] {
            // The process died: its engine is frozen mid-whatever, like a
            // SIGKILLed rank. Only its peers' views keep evolving.
            return false;
        }
        let rank = &mut self.ranks[r];
        if !matches!(rank.phase, RankPhase::Running) {
            // Completed/failed ranks still poll their engine so queued
            // frames (e.g. final round sends) reach the network and late
            // deliveries are absorbed rather than wedging the world.
            return rank.comm.progress();
        }
        let mut any = rank.comm.progress();
        let mut i = 0;
        while i < rank.pending.len() {
            match rank.comm.try_take(&rank.pending[i].0) {
                Some(out) => {
                    any = true;
                    let (_, expect) = rank.pending.swap_remove(i);
                    match (out, expect) {
                        (Ok(OpOutcome::Sent), None) => {}
                        (Ok(OpOutcome::Received(st, data)), Some(exp)) => {
                            check_recv(rank, r, &st, &data, &exp);
                        }
                        (Ok(out), exp) => {
                            rank.violation.get_or_insert(format!(
                                "rank {r}: op resolved as wrong kind: {out:?} for {exp:?}"
                            ));
                        }
                        (Err(e), _) => {
                            rank.phase = RankPhase::Failed(e);
                            return true;
                        }
                    }
                }
                None => i += 1,
            }
        }
        if let Some((run, expect)) = rank.coll.as_mut() {
            match run.poll(&mut rank.comm) {
                Ok(true) => {
                    any = true;
                    if let Some(exp) = expect.as_ref() {
                        if run.result() != &exp[..] {
                            rank.violation.get_or_insert(format!(
                                "rank {r}: collective result mismatch \
                                 (got {} bytes, want {} bytes)",
                                run.result().len(),
                                exp.len()
                            ));
                        }
                    }
                    rank.coll = None;
                }
                Ok(false) => {}
                Err(e) => {
                    rank.phase = RankPhase::Failed(e);
                    return true;
                }
            }
        }
        if rank.pending.is_empty() && rank.coll.is_none() {
            rank.phase = RankPhase::Done;
            any = true;
        }
        any
    }

    fn enabled_actions(&self, budget: &Budget) -> Vec<Action> {
        let mut net = net_lock(&self.net);
        let n = net.n;
        let mut actions = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let link = net.link(src, dst);
                if link.dead || link.inflight.is_empty() {
                    continue;
                }
                actions.push(Action::Deliver { src, dst });
                if budget.dups_left > 0
                    && matches!(
                        link.inflight.front().map(|(h, _, _)| h.kind),
                        Some(FrameKind::Cts) | Some(FrameKind::Data)
                    )
                {
                    actions.push(Action::Dup { src, dst });
                }
            }
        }
        if budget.kills_left > 0 {
            for &k in &budget.kill_candidates {
                if !self.killed[k] {
                    actions.push(Action::Kill { rank: k });
                }
            }
        }
        actions
    }

    fn apply(&mut self, action: Action, budget: &mut Budget) {
        let mut net = net_lock(&self.net);
        match action {
            Action::Deliver { src, dst } => {
                let link = net.link(src, dst);
                if let Some((hdr, body, is_dup)) = link.inflight.pop_front() {
                    if is_dup {
                        // Counted at delivery, not injection: a duplicate
                        // dropped by a dying/closing link never reached an
                        // engine and must not be expected in the counters.
                        self.dups_delivered += 1;
                    }
                    link.inbox.push_back((hdr, body));
                }
                if link.closing && link.inflight.is_empty() {
                    link.dead = true;
                }
            }
            Action::Dup { src, dst } => {
                let link = net.link(src, dst);
                if let Some((hdr, body, _)) = link.inflight.front() {
                    // The copy rides right behind the original, like a
                    // retransmit; per-link FIFO still holds.
                    let copy = (*hdr, body.clone(), true);
                    link.inflight.insert(1, copy);
                    budget.dups_left -= 1;
                }
            }
            Action::Kill { rank } => {
                net.kill(rank);
                self.killed[rank] = true;
                budget.kills_left -= 1;
                self.kills_done += 1;
            }
        }
    }

    /// End-of-schedule invariant sweep; `Err` carries the reason.
    fn verdict(&self) -> Result<(), String> {
        let mut protocol_errors = 0u64;
        for (r, rank) in self.ranks.iter().enumerate() {
            protocol_errors += rank.comm.obs().snapshot().counter("wire.protocol_errors");
            if self.killed[r] {
                // Whatever state the dead rank's frozen engine is in is
                // not an invariant — the real process no longer exists.
                continue;
            }
            if let Some(v) = &rank.violation {
                return Err(v.clone());
            }
            match &rank.phase {
                RankPhase::Done => {}
                RankPhase::Running => {
                    return Err(format!(
                        "hang: rank {r} still has pending operations with no \
                         enabled actions left"
                    ));
                }
                RankPhase::Failed(TransportError::PeerLost { peer }) => {
                    // Only legitimate downstream of a kill: the named peer
                    // must really be gone — killed, or exited after its own
                    // failure (the cascade a real launcher world produces).
                    // In a kill-free world a PeerLost means the engine lost
                    // a message somewhere, however it dresses it up.
                    if self.kills_done == 0 {
                        return Err(format!(
                            "rank {r}: PeerLost {{peer: {peer}}} in a world where \
                             nothing was killed"
                        ));
                    }
                    if !self.killed[*peer] && !self.exited[*peer] {
                        return Err(format!("rank {r}: spurious PeerLost for live rank {peer}"));
                    }
                }
                RankPhase::Failed(e) => {
                    return Err(format!("rank {r}: unexpected transport error {e:?}"));
                }
            }
        }
        // Exact protocol_errors accounting (see module docs): every
        // duplicate the explorer injected is exactly one stray-frame count,
        // nothing else contributes — provided nobody was killed (a kill
        // drops in-flight dups and adds vanished-peer counts of its own).
        if self.kills_done == 0 && protocol_errors != self.dups_delivered {
            return Err(format!(
                "protocol_errors accounting off: counted {protocol_errors}, \
                 injected {} duplicates",
                self.dups_delivered
            ));
        }
        Ok(())
    }
}

fn check_recv(rank: &mut RankState, r: usize, st: &rtmpi::Status, data: &[u8], exp: &RecvOp) {
    if st.len != exp.expect_len || data.len() != exp.expect_len {
        rank.violation.get_or_insert(format!(
            "rank {r}: mis-matched message: got {} bytes (status {}) from rank {} \
             tag {}, expected {} bytes",
            data.len(),
            st.len,
            st.source,
            st.tag,
            exp.expect_len
        ));
        return;
    }
    if let Some(from) = exp.expect_from {
        if st.source != from || data != &pattern(from, st.tag, exp.expect_len)[..] {
            rank.violation.get_or_insert(format!(
                "rank {r}: mis-matched message: payload/source from rank {} tag {} \
                 does not match rank {from}'s pattern",
                st.source, st.tag
            ));
        }
    }
}

// ------------------------------------------------------------- explorer

/// One explored nondeterministic step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    Deliver { src: usize, dst: usize },
    Dup { src: usize, dst: usize },
    Kill { rank: usize },
}

impl Action {
    /// Destination rank whose engine state the action touches (for the
    /// commutation check).
    fn touched(&self) -> usize {
        match self {
            Action::Deliver { dst, .. } | Action::Dup { dst, .. } => *dst,
            Action::Kill { rank } => *rank,
        }
    }
}

/// Fault budgets for one schedule.
#[derive(Clone, Debug)]
struct Budget {
    dups_left: u64,
    kills_left: u64,
    kill_candidates: Vec<usize>,
}

/// How to explore the delivery-schedule space.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Seeded random walk: `iters` schedules from a SplitMix64 stream.
    Random { seed: u64, iters: u64 },
    /// Bounded exhaustive DFS with DPOR-style pruning of commuting
    /// adjacent deliveries. `max_schedules` caps the run.
    Dfs { max_schedules: u64 },
    /// Replay exactly one schedule string ("3.0.1.2").
    Replay(String),
}

/// Exploration configuration.
#[derive(Clone, Debug)]
pub struct Config {
    pub strategy: Strategy,
    /// Max duplicate-frame injections per schedule.
    pub max_dups: u64,
    /// Max rank kills per schedule, drawn from `kill_candidates`.
    pub max_kills: u64,
    pub kill_candidates: Vec<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            strategy: Strategy::Random {
                seed: check::DEFAULT_SEED,
                iters: 256,
            },
            max_dups: 0,
            max_kills: 0,
            kill_candidates: Vec::new(),
        }
    }
}

impl Config {
    /// Apply the `OFFLOAD_MODEL_*` environment conventions: a set
    /// `OFFLOAD_MODEL_SCHEDULE` switches to replay; `OFFLOAD_MODEL_SEED` /
    /// `OFFLOAD_MODEL_ITERS` reseed/resize a random walk.
    pub fn from_env(mut self) -> Self {
        if let Ok(s) = std::env::var("OFFLOAD_MODEL_SCHEDULE") {
            self.strategy = Strategy::Replay(s);
            return self;
        }
        if let Strategy::Random { seed, iters } = &mut self.strategy {
            if let Some(v) = env_u64("OFFLOAD_MODEL_SEED") {
                *seed = v;
            }
            if let Some(v) = env_u64("OFFLOAD_MODEL_ITERS") {
                *iters = v;
            }
        }
        self
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Exploration outcome: how much of the space was visited.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Schedules executed to completion.
    pub schedules: u64,
    /// Distinct schedule strings among them (random walks can collide).
    pub distinct: u64,
    /// Total explored transitions (delivery/dup/kill choices).
    pub transitions: u64,
    /// DFS only: branches skipped by the commuting-deliveries rule.
    pub pruned: u64,
    /// DFS only: the bounded space was fully enumerated.
    pub complete: bool,
}

/// A failing schedule, replayable via [`Strategy::Replay`] or
/// `OFFLOAD_MODEL_SCHEDULE`.
#[derive(Clone, Debug)]
pub struct Failure {
    pub schedule: String,
    pub reason: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "protocol model check failed: {}", self.reason)?;
        writeln!(f, "failing schedule: {}", self.schedule)?;
        write!(
            f,
            "replay: OFFLOAD_MODEL_SCHEDULE=\"{}\" with the same WorldSpec \
             (cargo test -p protocheck)",
            self.schedule
        )
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one schedule: `pick` chooses among the enabled actions at each
/// step. Returns the schedule string and the verdict.
fn run_schedule(
    spec: &WorldSpec,
    cfg: &Config,
    mut pick: impl FnMut(usize) -> usize,
) -> (String, Result<u64, String>) {
    let mut world = build_world(spec);
    let mut budget = Budget {
        dups_left: cfg.max_dups,
        kills_left: cfg.max_kills,
        kill_candidates: cfg.kill_candidates.clone(),
    };
    let mut schedule = String::new();
    let mut steps = 0u64;
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
        world.stabilize();
        let actions = world.enabled_actions(&budget);
        if actions.is_empty() {
            break;
        }
        let idx = pick(actions.len()).min(actions.len() - 1);
        if !schedule.is_empty() {
            schedule.push('.');
        }
        schedule.push_str(&idx.to_string());
        steps += 1;
        world.apply(actions[idx], &mut budget);
    }));
    let verdict = match run {
        Ok(()) => world.verdict().map(|()| steps),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("panic: {msg}"))
        }
    };
    (schedule, verdict)
}

/// Explore `spec` under `cfg`; the first invariant violation aborts the
/// exploration with its replayable schedule.
pub fn explore(spec: &WorldSpec, cfg: &Config) -> Result<Stats, Failure> {
    let mut stats = Stats::default();
    match &cfg.strategy {
        Strategy::Replay(s) => {
            let choices: Vec<usize> = s
                .split('.')
                .filter(|t| !t.is_empty())
                .map(|t| t.parse().unwrap_or(0))
                .collect();
            let mut i = 0;
            let (schedule, verdict) = run_schedule(spec, cfg, |n| {
                let c = choices.get(i).copied().unwrap_or(0).min(n - 1);
                i += 1;
                c
            });
            stats.schedules = 1;
            stats.distinct = 1;
            match verdict {
                Ok(steps) => {
                    stats.transitions = steps;
                    Ok(stats)
                }
                Err(reason) => Err(Failure { schedule, reason }),
            }
        }
        Strategy::Random { seed, iters } => {
            let mut seen = HashSet::new();
            for i in 0..*iters {
                // Decorrelated per-schedule stream, reproducible from
                // (seed, i) alone.
                let mut state = seed ^ (i.wrapping_mul(0xA076_1D64_78BD_642F));
                let (schedule, verdict) =
                    run_schedule(spec, cfg, |n| (splitmix64(&mut state) % n as u64) as usize);
                stats.schedules += 1;
                match verdict {
                    Ok(steps) => stats.transitions += steps,
                    Err(reason) => return Err(Failure { schedule, reason }),
                }
                seen.insert(schedule);
                stats.distinct = seen.len() as u64;
            }
            Ok(stats)
        }
        Strategy::Dfs { max_schedules } => {
            // Stateless-DFS over the choice prefix: rerun from the root
            // with a forced prefix (always-0 past its end), then advance
            // the deepest index with untried siblings.
            let mut prefix: Vec<usize> = Vec::new();
            loop {
                if stats.schedules >= *max_schedules {
                    return Ok(stats);
                }
                // One schedule: follow `prefix`, then always choose 0,
                // recording the action list width (and the actions) at
                // every step for pruning and backtracking.
                let mut widths: Vec<usize> = Vec::new();
                let mut taken: Vec<Action> = Vec::new();
                let mut enabled_before: Vec<Vec<Action>> = Vec::new();
                let mut world = build_world(spec);
                let mut budget = Budget {
                    dups_left: cfg.max_dups,
                    kills_left: cfg.max_kills,
                    kill_candidates: cfg.kill_candidates.clone(),
                };
                let mut schedule = String::new();
                let mut depth = 0;
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                    world.stabilize();
                    let actions = world.enabled_actions(&budget);
                    if actions.is_empty() {
                        break;
                    }
                    let idx = prefix.get(depth).copied().unwrap_or(0);
                    let idx = idx.min(actions.len() - 1);
                    widths.push(actions.len());
                    taken.push(actions[idx]);
                    enabled_before.push(actions.clone());
                    if !schedule.is_empty() {
                        schedule.push('.');
                    }
                    schedule.push_str(&idx.to_string());
                    world.apply(actions[idx], &mut budget);
                    depth += 1;
                }));
                stats.schedules += 1;
                stats.transitions += depth as u64;
                let verdict = match run {
                    Ok(()) => world.verdict(),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        Err(format!("panic: {msg}"))
                    }
                };
                if let Err(reason) = verdict {
                    return Err(Failure { schedule, reason });
                }
                stats.distinct = stats.schedules;
                // Backtrack: find the deepest step with an untried choice.
                let frontier_widths = widths;
                prefix.truncate(depth);
                while prefix.len() < depth {
                    prefix.push(0);
                }
                loop {
                    match prefix.pop() {
                        None => {
                            stats.complete = true;
                            return Ok(stats);
                        }
                        Some(last) => {
                            let d = prefix.len();
                            let width = frontier_widths.get(d).copied().unwrap_or(0);
                            let mut next = last + 1;
                            // DPOR-style pruning: if the next candidate at
                            // depth d is a delivery commuting with the one
                            // taken at depth d-1 (different destination
                            // ranks, both enabled before step d-1), only
                            // the canonical order (lower index first at
                            // d-1) needs exploring.
                            while next < width {
                                let prev = d.checked_sub(1).and_then(|p| taken.get(p).copied());
                                let cand = enabled_before.get(d).and_then(|a| a.get(next).copied());
                                let skip = match (prev, cand) {
                                    (
                                        Some(p @ Action::Deliver { .. }),
                                        Some(c @ Action::Deliver { .. }),
                                    ) => {
                                        // Commutes if disjoint engines and
                                        // `c` was already enabled before
                                        // `p` ran (same Action value in
                                        // the pre-state of step d-1).
                                        p.touched() != c.touched()
                                            && enabled_before
                                                .get(d - 1)
                                                .is_some_and(|pre| pre.contains(&c))
                                            && pre_index(&enabled_before[d - 1], &c)
                                                < pre_index(&enabled_before[d - 1], &p)
                                    }
                                    _ => false,
                                };
                                if skip {
                                    stats.pruned += 1;
                                    next += 1;
                                } else {
                                    break;
                                }
                            }
                            if next < width {
                                prefix.push(next);
                                break;
                            }
                            // Exhausted this depth; pop further.
                        }
                    }
                }
            }
        }
    }
}

fn pre_index(actions: &[Action], a: &Action) -> usize {
    actions.iter().position(|x| x == a).unwrap_or(usize::MAX)
}

// -------------------------------------------------------------- seeding

/// Count how many schedules a quiet panic-hook window has suppressed —
/// exploration *expects* panics when a seeded fault is armed, and the
/// default hook would spam stderr for each one.
static HOOK_DEPTH: AtomicU32 = AtomicU32::new(0);

/// Run `f` with panic output suppressed (the explorer catches and
/// reports panics itself). Restores the previous hook after.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    // ORDERING: SeqCst — test harness bookkeeping, not a hot path.
    if HOOK_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        HOOK_DEPTH.fetch_sub(1, Ordering::SeqCst);
        return out;
    }
    let out = f();
    // ORDERING: SeqCst — test-harness bookkeeping, matches the fetch_add.
    HOOK_DEPTH.fetch_sub(1, Ordering::SeqCst);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random(iters: u64) -> Config {
        Config {
            strategy: Strategy::Random {
                seed: check::DEFAULT_SEED,
                iters,
            },
            ..Config::default()
        }
    }

    #[test]
    fn eager_ring_random_walk_is_clean() {
        let spec = WorldSpec::ring(3, 4096, 32);
        let stats = explore(&spec, &random(150)).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 150);
        assert!(
            stats.distinct > 1,
            "a 3-rank ring must have >1 interleaving"
        );
    }

    #[test]
    fn rendezvous_ring_random_walk_is_clean() {
        // 300-byte payloads over a 64-byte eager limit: every exchange is a
        // full RTS → CTS → DATA handshake.
        let spec = WorldSpec::ring(2, 64, 300);
        explore(&spec, &random(150)).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn dfs_exhausts_two_rank_eager_exchange() {
        let spec = WorldSpec::ring(2, 4096, 16);
        let cfg = Config {
            strategy: Strategy::Dfs {
                max_schedules: 10_000,
            },
            ..Config::default()
        };
        let stats = explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            stats.complete,
            "two eager messages must be exhaustible ({} schedules explored)",
            stats.schedules
        );
    }

    #[test]
    fn dfs_prunes_commuting_deliveries_on_three_rank_ring() {
        // Three eager frames on three disjoint links: most orderings
        // commute, so DPOR must visibly cut the 3! space.
        let spec = WorldSpec::ring(3, 4096, 16);
        let cfg = Config {
            strategy: Strategy::Dfs {
                max_schedules: 50_000,
            },
            ..Config::default()
        };
        let stats = explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.complete, "3-rank eager ring not exhausted");
        assert!(
            stats.pruned > 0,
            "deliveries to different ranks commute — DPOR must prune something \
             ({} schedules, {} pruned)",
            stats.schedules,
            stats.pruned
        );
    }

    #[test]
    fn dfs_exhausts_two_rank_rendezvous() {
        let spec = WorldSpec::ring(2, 64, 300);
        let cfg = Config {
            strategy: Strategy::Dfs {
                max_schedules: 200_000,
            },
            ..Config::default()
        };
        let stats = explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            stats.complete,
            "bounded rendezvous space not exhausted in {} schedules",
            stats.schedules
        );
    }

    #[test]
    fn all_collectives_random_walks_are_clean() {
        for n in 2..=4 {
            let colls = [
                CollOp::Barrier,
                CollOp::Bcast { root: 0, len: 300 },
                CollOp::Bcast {
                    root: n - 1,
                    len: 300,
                },
                CollOp::Reduce { root: 0, lanes: 24 },
                CollOp::Allreduce { lanes: 24 },
                CollOp::Allgather { block: 300 },
                CollOp::Alltoall { block: 300 },
                CollOp::Gather {
                    root: n - 1,
                    block: 300,
                },
                CollOp::Scatter {
                    root: n - 1,
                    block: 300,
                },
            ];
            for coll in colls {
                let spec = WorldSpec::collective(n, 64, coll);
                explore(&spec, &random(40)).unwrap_or_else(|f| panic!("{n}-rank {coll:?}: {f}"));
            }
        }
    }

    #[test]
    fn duplicate_frames_are_counted_exactly() {
        // The per-schedule verdict enforces protocol_errors == dups
        // injected; a random walk with a dup budget exercises it widely.
        let spec = WorldSpec::ring(2, 64, 300);
        let cfg = Config {
            max_dups: 2,
            ..random(250)
        };
        explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn kills_surface_peer_lost_and_never_hang() {
        let spec = WorldSpec::ring(3, 64, 300);
        let cfg = Config {
            max_kills: 1,
            kill_candidates: vec![1],
            ..random(250)
        };
        explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn killed_collective_participant_surfaces_peer_lost() {
        let spec = WorldSpec::collective(3, 64, CollOp::Allreduce { lanes: 24 });
        let cfg = Config {
            max_kills: 1,
            kill_candidates: vec![2],
            ..random(250)
        };
        explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn replay_is_deterministic() {
        let spec = WorldSpec::collective(3, 64, CollOp::Allreduce { lanes: 24 });
        // The empty schedule replays the first-choice walk; two runs must
        // take exactly the same number of transitions.
        let cfg = Config {
            strategy: Strategy::Replay(String::new()),
            ..Config::default()
        };
        let a = explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
        let b = explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a.transitions, b.transitions);
        assert!(a.transitions > 0);
    }

    /// The acceptance sweep: a 3-rank rendezvous allreduce explored under
    /// the pinned default seed. The CI proto-model lane raises
    /// `OFFLOAD_MODEL_ITERS` / `OFFLOAD_PROTO_MIN_DISTINCT` to prove >=10k
    /// distinct frame interleavings; the default keeps `cargo test` quick.
    #[test]
    fn allreduce_three_rank_distinct_interleavings() {
        let iters = env_u64("OFFLOAD_MODEL_ITERS").unwrap_or(600);
        let min_distinct = env_u64("OFFLOAD_PROTO_MIN_DISTINCT").unwrap_or(iters / 2);
        let spec = WorldSpec::collective(3, 64, CollOp::Allreduce { lanes: 24 });
        let cfg = Config {
            strategy: Strategy::Random {
                seed: check::DEFAULT_SEED,
                iters,
            },
            // Duplication is part of the explored space (and of the
            // interleaving count): it multiplies the branching of the
            // otherwise fairly sequential binomial p=3 schedule.
            max_dups: 4,
            ..Config::default()
        }
        .from_env();
        let stats = explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            stats.distinct >= min_distinct,
            "only {} distinct interleavings in {} schedules (need >= {})",
            stats.distinct,
            stats.schedules,
            min_distinct
        );
    }

    // ------------------------------------------------- seeded-bug regressions
    //
    // Two historical bugs are reintroducible behind `model-faults` runtime
    // flags; the explorer must rediscover both within a bounded budget and
    // hand back a schedule string that replays the failure exactly.

    struct Disarm(fn(bool) -> bool, bool);
    impl Drop for Disarm {
        fn drop(&mut self) {
            (self.0)(self.1);
        }
    }

    #[test]
    fn explorer_finds_seeded_stray_cts_panic() {
        let prev = wire::faults::set_stray_cts_panic(true);
        let _disarm = Disarm(wire::faults::set_stray_cts_panic, prev);
        // A duplicated CTS is exactly a stray CTS at the sender; with the
        // historical panic reinstated the explorer must trip it.
        let spec = WorldSpec::ring(2, 64, 300);
        let cfg = Config {
            max_dups: 1,
            ..random(400)
        };
        let failure = with_quiet_panics(|| explore(&spec, &cfg))
            .expect_err("seeded stray-CTS panic not rediscovered within 400 schedules");
        assert!(
            failure.reason.contains("panic"),
            "wrong failure kind: {failure}"
        );
        assert!(!failure.schedule.is_empty());
        // The schedule string must replay to the same failure.
        let replay = Config {
            strategy: Strategy::Replay(failure.schedule.clone()),
            max_dups: 1,
            ..Config::default()
        };
        let again = with_quiet_panics(|| explore(&spec, &replay))
            .expect_err("failing schedule did not replay");
        assert!(again.reason.contains("panic"), "replay diverged: {again}");
    }

    #[test]
    fn seeded_stray_cts_fixed_tree_is_clean() {
        // Flag off (the fixed tree): the identical exploration passes.
        let spec = WorldSpec::ring(2, 64, 300);
        let cfg = Config {
            max_dups: 1,
            ..random(400)
        };
        explore(&spec, &cfg).unwrap_or_else(|f| panic!("{f}"));
    }

    /// A wildcard receive racing a barrier: historically the wildcard could
    /// steal the reserved-tag barrier token off the unexpected queue.
    fn wildcard_vs_barrier_world() -> WorldSpec {
        WorldSpec {
            n: 2,
            eager_max: 4096,
            scripts: vec![
                RankScript {
                    recvs: vec![RecvOp {
                        src: None,
                        tag: None,
                        expect_from: Some(1),
                        expect_len: 5,
                    }],
                    coll: Some(CollOp::Barrier),
                    ..RankScript::default()
                },
                RankScript {
                    sends: vec![SendOp {
                        dst: 0,
                        tag: 5,
                        len: 5,
                    }],
                    coll: Some(CollOp::Barrier),
                    ..RankScript::default()
                },
            ],
        }
    }

    #[test]
    fn explorer_finds_seeded_wildcard_reserved_tag_leak() {
        let prev = rtmpi::faults::set_wildcard_reserved_leak(true);
        let _disarm = Disarm(rtmpi::faults::set_wildcard_reserved_leak, prev);
        let spec = wildcard_vs_barrier_world();
        let failure = explore(&spec, &random(400))
            .expect_err("seeded wildcard leak not rediscovered within 400 schedules");
        assert!(
            failure.reason.contains("mis-matched") || failure.reason.contains("hang"),
            "wrong failure kind: {failure}"
        );
        let replay = Config {
            strategy: Strategy::Replay(failure.schedule.clone()),
            ..Config::default()
        };
        let again = explore(&spec, &replay).expect_err("failing schedule did not replay");
        assert_eq!(again.schedule, failure.schedule);
    }

    #[test]
    fn seeded_wildcard_leak_fixed_tree_is_clean() {
        let spec = wildcard_vs_barrier_world();
        explore(&spec, &random(400)).unwrap_or_else(|f| panic!("{f}"));
    }
}
