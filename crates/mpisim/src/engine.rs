//! The per-rank MPI engine: matching, protocols, and the progress loop.
//!
//! Everything in this module is synchronous state manipulation returning the
//! virtual-time *cost* of the work performed; the async API layer
//! (`crate::api`) charges those costs to the calling simulated thread with
//! `env.advance(..)`. Keeping the engine synchronous guarantees no `RefCell`
//! borrow is ever held across an await.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use destime::sync::Flag;
use destime::Nanos;
use rtmpi::MatchQueue;
use simnet::{Fabric, MachineProfile};

use crate::nbc::{DataSrc, NbcInstance, RecvAction, Round};
use crate::types::{combine, Bytes, Rank, Status, Tag};

/// Wire envelope size added to every message.
pub(crate) const ENVELOPE_BYTES: usize = 64;
/// Wire size of a rendezvous control message.
pub(crate) const CTRL_BYTES: usize = 64;

/// Communicator identifier. `0` is `MPI_COMM_WORLD`.
pub type CommId = u64;

/// What travels on the simulated wire.
///
/// Rendezvous control messages carry `Rc` handles to the peer request
/// objects — the simulation runs in one address space, so this stands in
/// for the match-entry pointers a real MPI embeds in its RTS/CTS packets.
pub(crate) enum WireMsg {
    Eager {
        src: Rank,
        comm: CommId,
        tag: Tag,
        payload: Bytes,
    },
    Rts {
        src: Rank,
        comm: CommId,
        tag: Tag,
        len: usize,
        sender_req: Rc<ReqInner>,
    },
    Cts {
        sender_req: Rc<ReqInner>,
        recv_req: Rc<ReqInner>,
    },
    RndvData {
        src: Rank,
        tag: Tag,
        recv_req: Rc<ReqInner>,
        payload: Bytes,
    },
    /// One-sided put: applied to the target window when the *target's*
    /// progress engine polls — without asynchronous progress, passive-
    /// target RMA stalls exactly as Casper [30] describes.
    RmaPut {
        win: WinId,
        offset: usize,
        payload: Bytes,
        origin: Rank,
        origin_req: Rc<ReqInner>,
    },
    /// Ack completing the origin's put request.
    RmaPutAck { origin_req: Rc<ReqInner> },
    /// One-sided get request; the target replies with window contents.
    RmaGetReq {
        win: WinId,
        offset: usize,
        len: usize,
        origin: Rank,
        origin_req: Rc<ReqInner>,
    },
    /// Get reply carrying the window data.
    RmaGetReply {
        origin_req: Rc<ReqInner>,
        payload: Bytes,
    },
}

/// One-sided communication window identifier.
pub type WinId = u64;

/// Internal request state. User-facing [`crate::Request`] wraps an `Rc` of
/// this.
pub struct ReqInner {
    pub(crate) done: Flag,
    pub(crate) status: Cell<Option<Status>>,
    pub(crate) data: RefCell<Option<Bytes>>,
    /// For rendezvous sends: the payload parked until CTS arrives.
    pub(crate) parked: RefCell<Option<(Rank, Tag, Bytes)>>,
}

impl ReqInner {
    pub(crate) fn new() -> Rc<Self> {
        Rc::new(Self {
            done: Flag::new(),
            status: Cell::new(None),
            data: RefCell::new(None),
            parked: RefCell::new(None),
        })
    }

    pub(crate) fn complete(&self, status: Option<Status>, data: Option<Bytes>) {
        if let Some(s) = status {
            self.status.set(Some(s));
        }
        if let Some(d) = data {
            *self.data.borrow_mut() = Some(d);
        }
        self.done.set();
    }

    pub fn is_done(&self) -> bool {
        self.done.is_set()
    }
}

/// A message that arrived before its receive was posted.
enum Arrival {
    Eager(Bytes),
    /// A rendezvous RTS: the payload waits at the sender until our CTS.
    Rts {
        len: usize,
        sender_req: Rc<ReqInner>,
    },
}

/// One communicator's matching: the live substrates' queue, keyed by
/// world rank, posted receives resolving to their request. Matching never
/// crosses communicators, so a queue per communicator keeps the order of
/// one queue over all of them.
type Matching = MatchQueue<Rc<ReqInner>, Arrival>;

/// Communicator bookkeeping.
#[derive(Clone)]
pub struct CommInfo {
    pub id: CommId,
    /// World ranks of the members, indexed by communicator rank.
    pub ranks: Rc<Vec<Rank>>,
    /// This process's rank within the communicator.
    pub my_rank: Rank,
}

impl CommInfo {
    pub fn size(&self) -> usize {
        self.ranks.len()
    }
    pub fn world_of(&self, comm_rank: Rank) -> Rank {
        self.ranks[comm_rank]
    }
}

/// Aggregate per-rank statistics (diagnostics & reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct RankStats {
    pub sends: u64,
    pub recvs: u64,
    pub progress_polls: u64,
    pub unexpected_hits: u64,
    pub nbc_started: u64,
}

/// Lock-free metric handles for one rank's engine, resolved once at
/// construction. Mirrors [`RankStats`] but adds protocol splits (eager vs
/// rendezvous), queue-depth gauges with high-water marks, and the
/// `THREAD_MULTIPLE` lock wait — all exported through [`obs::Registry`]
/// snapshots so harness reports can diff them per phase.
pub struct EngineObs {
    pub registry: obs::Registry,
    pub progress_polls: obs::Counter,
    pub eager_sends: obs::Counter,
    pub rndv_sends: obs::Counter,
    pub unexpected_hits: obs::Counter,
    pub nbc_started: obs::Counter,
    /// Simulated ns application threads spent waiting on the library lock
    /// (`THREAD_MULTIPLE` serialization, charged in `api::enter`).
    pub lock_wait_ns: obs::Counter,
    pub unexpected_depth: obs::Gauge,
    pub posted_depth: obs::Gauge,
    pub active_nbcs: obs::Gauge,
}

impl Default for EngineObs {
    fn default() -> Self {
        let registry = obs::Registry::default();
        Self {
            progress_polls: registry.counter("mpi.progress_polls"),
            eager_sends: registry.counter("mpi.eager_sends"),
            rndv_sends: registry.counter("mpi.rndv_sends"),
            unexpected_hits: registry.counter("mpi.unexpected_hits"),
            nbc_started: registry.counter("mpi.nbc_started"),
            lock_wait_ns: registry.counter("mpi.lock_wait_ns"),
            unexpected_depth: registry.gauge("mpi.unexpected_depth"),
            posted_depth: registry.gauge("mpi.posted_depth"),
            active_nbcs: registry.gauge("mpi.active_nbcs"),
            registry,
        }
    }
}

/// The synchronous per-rank engine.
pub struct RankInner {
    pub(crate) world_rank: Rank,
    pub(crate) profile: MachineProfile,
    matching: HashMap<CommId, Matching>,
    pub(crate) nbcs: Vec<NbcInstance>,
    pub(crate) comms: HashMap<CommId, CommInfo>,
    dup_seq: HashMap<CommId, u64>,
    split_seq: HashMap<CommId, u64>,
    pub(crate) coll_seq: HashMap<CommId, u32>,
    /// One-sided windows: id -> local exposure buffer.
    windows: HashMap<WinId, Vec<u8>>,
    win_seq: u64,
    /// Outstanding origin-side RMA requests per window (drained by fence).
    rma_origin: HashMap<WinId, Vec<Rc<ReqInner>>>,
    pub(crate) stats: RankStats,
    pub(crate) obs: EngineObs,
}

impl RankInner {
    pub fn new(world_rank: Rank, n_ranks: usize, profile: MachineProfile) -> Self {
        let mut comms = HashMap::new();
        comms.insert(
            0,
            CommInfo {
                id: 0,
                ranks: Rc::new((0..n_ranks).collect()),
                my_rank: world_rank,
            },
        );
        Self {
            world_rank,
            profile,
            matching: HashMap::new(),
            nbcs: Vec::new(),
            comms,
            dup_seq: HashMap::new(),
            split_seq: HashMap::new(),
            coll_seq: HashMap::new(),
            windows: HashMap::new(),
            win_seq: 0,
            rma_origin: HashMap::new(),
            stats: RankStats::default(),
            obs: EngineObs::default(),
        }
    }

    /// Keep the queue-depth gauges (and their high-water marks) in step
    /// with the matching structures. Cheap: a sum over the communicators'
    /// queues and three relaxed stores.
    fn sync_obs_depths(&self) {
        self.obs
            .unexpected_depth
            .set(self.unexpected_depth() as u64);
        self.obs.posted_depth.set(self.posted_depth() as u64);
        self.obs.active_nbcs.set(self.nbcs.len() as u64);
    }

    pub fn comm(&self, id: CommId) -> &CommInfo {
        self.comms.get(&id).expect("unknown communicator")
    }

    /// Deterministic child communicator id for `dup`: ranks must call dup
    /// collectively (in the same per-parent order), as in MPI.
    pub fn dup_comm(&mut self, parent: CommId) -> CommId {
        let seq = {
            let s = self.dup_seq.entry(parent).or_insert(0);
            *s += 1;
            *s
        };
        let info = self.comm(parent).clone();
        let id = parent.wrapping_mul(1_000).wrapping_add(seq).wrapping_add(1);
        self.comms.insert(
            id,
            CommInfo {
                id,
                ranks: info.ranks,
                my_rank: info.my_rank,
            },
        );
        id
    }

    /// Register a split result computed by the universe (see
    /// `api::Mpi::comm_split`); id derivation must match on every member.
    pub fn register_split(
        &mut self,
        parent: CommId,
        color: u64,
        members: Rc<Vec<Rank>>,
        my_rank: Rank,
    ) -> CommId {
        let seq = self.split_seq.entry(parent).or_insert(0);
        *seq += 1;
        let id = parent
            .wrapping_mul(1_000)
            .wrapping_add(500)
            .wrapping_add(*seq * 64)
            .wrapping_add(color);
        self.comms.insert(
            id,
            CommInfo {
                id,
                ranks: members,
                my_rank,
            },
        );
        id
    }

    // -- send path ----------------------------------------------------------

    /// Issue a nonblocking send. Returns `(request, caller cost in ns)`.
    pub(crate) fn isend(
        &mut self,
        fabric: &Fabric<WireMsg>,
        now: Nanos,
        comm: CommId,
        dst: Rank,
        tag: Tag,
        payload: Bytes,
    ) -> (Rc<ReqInner>, Nanos) {
        self.stats.sends += 1;
        let info = self.comm(comm).clone();
        let dst_world = info.world_of(dst);
        let len = payload.len();
        let req = ReqInner::new();
        let p = &self.profile;
        let cost;
        if p.is_eager(len) {
            // Eager: the sender copies into an internal buffer inside the
            // call (this is what makes posting cost grow with size, Fig 4)
            // and completes locally right away.
            self.obs.eager_sends.inc();
            cost = MachineProfile::transfer_ns(len, p.eager_copy_gbps);
            fabric.transmit(
                self.world_rank,
                dst_world,
                len + ENVELOPE_BYTES,
                now + cost,
                WireMsg::Eager {
                    src: self.world_rank,
                    comm,
                    tag,
                    payload,
                },
            );
            req.complete(None, None);
        } else {
            // Rendezvous: send RTS, park the payload until CTS.
            self.obs.rndv_sends.inc();
            cost = p.rndv_ctrl_ns;
            *req.parked.borrow_mut() = Some((dst_world, tag, payload));
            fabric.transmit(
                self.world_rank,
                dst_world,
                CTRL_BYTES,
                now + cost,
                WireMsg::Rts {
                    src: self.world_rank,
                    comm,
                    tag,
                    len,
                    sender_req: req.clone(),
                },
            );
        }
        (req, cost)
    }

    // -- receive path -------------------------------------------------------

    /// Post a nonblocking receive. Returns `(request, caller cost)`.
    pub(crate) fn irecv(
        &mut self,
        fabric: &Fabric<WireMsg>,
        now: Nanos,
        comm: CommId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> (Rc<ReqInner>, Nanos) {
        self.stats.recvs += 1;
        let info = self.comm(comm).clone();
        let src_world = src.map(|s| info.world_of(s));
        let req = ReqInner::new();
        let mut cost = self.profile.match_cost_ns;

        // Check the unexpected queue first (MPI matching order).
        let queue = self.matching.entry(comm).or_default();
        match queue.take_unexpected(src_world, tag) {
            Some(u) => {
                self.stats.unexpected_hits += 1;
                self.obs.unexpected_hits.inc();
                match u.msg {
                    Arrival::Eager(payload) => {
                        // Copy out of the internal eager buffer into user space.
                        cost +=
                            MachineProfile::transfer_ns(payload.len(), self.profile.mem_copy_gbps);
                        req.complete(
                            Some(Status {
                                source: u.src,
                                tag: u.tag,
                                len: payload.len(),
                            }),
                            Some(payload),
                        );
                    }
                    Arrival::Rts { sender_req, .. } => {
                        // Reply CTS; completion when the data lands.
                        cost += self.profile.rndv_ctrl_ns;
                        fabric.transmit(
                            self.world_rank,
                            u.src,
                            CTRL_BYTES,
                            now + cost,
                            WireMsg::Cts {
                                sender_req,
                                recv_req: req.clone(),
                            },
                        );
                    }
                }
            }
            None => queue.push_posted(src_world, tag, req.clone()),
        }
        self.sync_obs_depths();
        (req, cost)
    }

    /// Nonblocking probe: does a matching message sit in the unexpected
    /// queue? (The caller should run a progress poll first.)
    pub fn iprobe(&self, comm: CommId, src: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        let src_world = src.map(|s| self.comm(comm).world_of(s));
        let (source, tag, msg) = self.matching.get(&comm)?.probe(src_world, tag)?;
        let len = match msg {
            Arrival::Eager(payload) => payload.len(),
            Arrival::Rts { len, .. } => *len,
        };
        Some(Status { source, tag, len })
    }

    // -- one-sided (RMA) ------------------------------------------------------

    /// Collectively create a window exposing `local` bytes (every rank must
    /// call in matching order, like `MPI_Win_create`).
    pub fn win_create(&mut self, local: Vec<u8>) -> WinId {
        self.win_seq += 1;
        let id = 0xA000_0000u64 + self.win_seq;
        self.windows.insert(id, local);
        self.rma_origin.insert(id, Vec::new());
        id
    }

    /// Read this rank's window contents (exposure buffer).
    pub fn win_local(&self, win: WinId) -> &[u8] {
        self.windows.get(&win).expect("unknown window")
    }

    /// `MPI_Put`: deliver `payload` into `target`'s window at `offset`.
    /// Returns (request completing at the origin once acked, caller cost).
    pub(crate) fn rma_put(
        &mut self,
        fabric: &Fabric<WireMsg>,
        now: Nanos,
        win: WinId,
        target: Rank,
        offset: usize,
        payload: Bytes,
    ) -> (Rc<ReqInner>, Nanos) {
        let req = ReqInner::new();
        let cost = self.profile.rndv_ctrl_ns
            + MachineProfile::transfer_ns(payload.len(), self.profile.eager_copy_gbps);
        fabric.transmit(
            self.world_rank,
            target,
            payload.len() + ENVELOPE_BYTES,
            now + cost,
            WireMsg::RmaPut {
                win,
                offset,
                payload,
                origin: self.world_rank,
                origin_req: req.clone(),
            },
        );
        self.rma_origin.entry(win).or_default().push(req.clone());
        (req, cost)
    }

    /// `MPI_Get`: fetch `len` bytes from `target`'s window at `offset`.
    pub(crate) fn rma_get(
        &mut self,
        fabric: &Fabric<WireMsg>,
        now: Nanos,
        win: WinId,
        target: Rank,
        offset: usize,
        len: usize,
    ) -> (Rc<ReqInner>, Nanos) {
        let req = ReqInner::new();
        let cost = self.profile.rndv_ctrl_ns;
        fabric.transmit(
            self.world_rank,
            target,
            CTRL_BYTES,
            now + cost,
            WireMsg::RmaGetReq {
                win,
                offset,
                len,
                origin: self.world_rank,
                origin_req: req.clone(),
            },
        );
        self.rma_origin.entry(win).or_default().push(req.clone());
        (req, cost)
    }

    /// Outstanding origin-side requests for `win` (taken by fence).
    pub(crate) fn take_rma_origin(&mut self, win: WinId) -> Vec<Rc<ReqInner>> {
        self.rma_origin
            .get_mut(&win)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    // -- progress engine ----------------------------------------------------

    /// One progress poll at virtual time `now`: drain arrived packets,
    /// advance protocol state machines and nonblocking-collective
    /// schedules. Returns the cost to charge the polling thread.
    ///
    /// This is the *only* place incoming traffic is ever acted upon — if no
    /// simulated thread calls this (directly or via any MPI call), nothing
    /// progresses. That semantic is the heart of the paper's problem
    /// statement.
    pub(crate) fn progress(&mut self, fabric: &Fabric<WireMsg>, now: Nanos) -> Nanos {
        self.stats.progress_polls += 1;
        self.obs.progress_polls.inc();
        let mut cost = self.profile.progress_poll_ns;
        let packets = fabric.endpoint(self.world_rank).drain_ready(now);
        for msg in packets {
            cost += self.handle_wire(fabric, now + cost, msg);
        }
        cost += self.advance_nbcs(fabric, now + cost);
        self.sync_obs_depths();
        cost
    }

    fn handle_wire(&mut self, fabric: &Fabric<WireMsg>, now: Nanos, msg: WireMsg) -> Nanos {
        let p = self.profile.clone();
        match msg {
            WireMsg::Eager {
                src,
                comm,
                tag,
                payload,
            } => {
                let mut cost = p.match_cost_ns;
                let queue = self.matching.entry(comm).or_default();
                if let Some(pr) = queue.take_posted(src, tag) {
                    cost += MachineProfile::transfer_ns(payload.len(), p.mem_copy_gbps);
                    pr.token.complete(
                        Some(Status {
                            source: src,
                            tag,
                            len: payload.len(),
                        }),
                        Some(payload),
                    );
                } else {
                    queue.push_unexpected(src, tag, Arrival::Eager(payload));
                    self.obs
                        .unexpected_depth
                        .set(self.unexpected_depth() as u64);
                }
                cost
            }
            WireMsg::Rts {
                src,
                comm,
                tag,
                len,
                sender_req,
            } => {
                let mut cost = p.match_cost_ns + p.rndv_ctrl_ns;
                let queue = self.matching.entry(comm).or_default();
                if let Some(pr) = queue.take_posted(src, tag) {
                    fabric.transmit(
                        self.world_rank,
                        src,
                        CTRL_BYTES,
                        now + cost,
                        WireMsg::Cts {
                            sender_req,
                            recv_req: pr.token,
                        },
                    );
                } else {
                    cost = p.match_cost_ns; // no CTS yet
                    queue.push_unexpected(src, tag, Arrival::Rts { len, sender_req });
                    self.obs
                        .unexpected_depth
                        .set(self.unexpected_depth() as u64);
                }
                cost
            }
            WireMsg::Cts {
                sender_req,
                recv_req,
            } => {
                // We are the sender; ship the parked payload.
                let cost = p.rndv_ctrl_ns;
                let (dst_world, tag, payload) = sender_req
                    .parked
                    .borrow_mut()
                    .take()
                    .expect("CTS for a send with no parked payload");
                fabric.transmit(
                    self.world_rank,
                    dst_world,
                    payload.len() + ENVELOPE_BYTES,
                    now + cost,
                    WireMsg::RndvData {
                        src: self.world_rank,
                        tag,
                        recv_req,
                        payload,
                    },
                );
                sender_req.complete(None, None);
                cost
            }
            WireMsg::RndvData {
                src,
                tag,
                recv_req,
                payload,
            } => {
                // Rendezvous lands directly in the user buffer (zero copy).
                let cost = p.match_cost_ns;
                recv_req.complete(
                    Some(Status {
                        source: src,
                        tag,
                        len: payload.len(),
                    }),
                    Some(payload),
                );
                cost
            }
            WireMsg::RmaPut {
                win,
                offset,
                payload,
                origin,
                origin_req,
            } => {
                let n = payload.len();
                let cost = p.match_cost_ns + MachineProfile::transfer_ns(n, p.mem_copy_gbps);
                let buf = self.windows.get_mut(&win).expect("put to unknown window");
                if let Some(data) = payload.as_real() {
                    buf[offset..offset + n].copy_from_slice(data);
                }
                fabric.transmit(
                    self.world_rank,
                    origin,
                    CTRL_BYTES,
                    now + cost,
                    WireMsg::RmaPutAck { origin_req },
                );
                cost
            }
            WireMsg::RmaPutAck { origin_req } => {
                origin_req.complete(None, None);
                p.match_cost_ns
            }
            WireMsg::RmaGetReq {
                win,
                offset,
                len,
                origin,
                origin_req,
            } => {
                let cost = p.match_cost_ns + p.rndv_ctrl_ns;
                let buf = self.windows.get(&win).expect("get from unknown window");
                let payload = Bytes::real(buf[offset..offset + len].to_vec());
                fabric.transmit(
                    self.world_rank,
                    origin,
                    len + ENVELOPE_BYTES,
                    now + cost,
                    WireMsg::RmaGetReply {
                        origin_req,
                        payload,
                    },
                );
                cost
            }
            WireMsg::RmaGetReply {
                origin_req,
                payload,
            } => {
                let cost =
                    p.match_cost_ns + MachineProfile::transfer_ns(payload.len(), p.mem_copy_gbps);
                origin_req.complete(None, Some(payload));
                cost
            }
        }
    }

    // -- nonblocking collectives ---------------------------------------------

    /// Start a collective described by `rounds`; posts round 0 immediately.
    /// Returns `(user request, caller cost)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_nbc(
        &mut self,
        fabric: &Fabric<WireMsg>,
        now: Nanos,
        comm: CommId,
        ctx_tag: Tag,
        acc: Bytes,
        input: Option<Bytes>,
        rounds: Vec<Round>,
    ) -> (Rc<ReqInner>, Nanos) {
        self.stats.nbc_started += 1;
        self.obs.nbc_started.inc();
        let user_req = ReqInner::new();
        let mut inst = NbcInstance {
            comm,
            ctx_tag,
            rounds,
            cur: 0,
            inflight: Vec::new(),
            recv_actions: Vec::new(),
            acc,
            input,
            user_req: user_req.clone(),
        };
        let mut cost = 0;
        // Post rounds until one actually blocks; rounds with no pending ops
        // (or whose ops complete instantly off the unexpected queue)
        // fall through.
        loop {
            if inst.cur >= inst.rounds.len() {
                inst.finish();
                break;
            }
            match self.post_round(fabric, now + cost, &mut inst) {
                PostOutcome::Blocked(c) => {
                    cost += c;
                    self.nbcs.push(inst);
                    break;
                }
                PostOutcome::RoundComplete(c) => {
                    cost += c;
                    inst.cur += 1;
                }
            }
        }
        self.sync_obs_depths();
        (user_req, cost)
    }

    /// Advance all active collective schedules; part of `progress`.
    fn advance_nbcs(&mut self, fabric: &Fabric<WireMsg>, now: Nanos) -> Nanos {
        let mut cost = 0;
        let mut i = 0;
        while i < self.nbcs.len() {
            let mut finished = false;
            loop {
                // Is the posted round's traffic complete?
                if !self.nbcs[i].inflight.iter().all(|r| r.is_done()) {
                    break;
                }
                // Apply receive actions (reductions, placements) and move on.
                cost += self.nbcs[i].apply_recv_actions();
                self.nbcs[i].cur += 1;
                if self.nbcs[i].cur >= self.nbcs[i].rounds.len() {
                    self.nbcs[i].finish();
                    finished = true;
                    break;
                }
                match self.post_round_at(fabric, now + cost, i) {
                    PostOutcome::Blocked(c) => {
                        cost += c;
                        break;
                    }
                    PostOutcome::RoundComplete(c) => {
                        // Instant completion already applied its receive
                        // actions and cleared `inflight`; loop again (the
                        // empty in-flight set reads as complete and `cur`
                        // advances at the top).
                        cost += c;
                    }
                }
            }
            if finished {
                self.nbcs.swap_remove(i);
            } else {
                i += 1;
            }
        }
        cost
    }

    fn post_round_at(&mut self, fabric: &Fabric<WireMsg>, now: Nanos, idx: usize) -> PostOutcome {
        let mut inst = std::mem::replace(&mut self.nbcs[idx], NbcInstance::placeholder());
        let out = self.post_round(fabric, now, &mut inst);
        self.nbcs[idx] = inst;
        out
    }

    /// Post the sends/recvs of round `inst.cur`. Does not bump `cur`.
    fn post_round(
        &mut self,
        fabric: &Fabric<WireMsg>,
        now: Nanos,
        inst: &mut NbcInstance,
    ) -> PostOutcome {
        debug_assert!(inst.cur < inst.rounds.len());
        let round = inst.rounds[inst.cur].clone();
        let mut cost = 0;
        inst.inflight.clear();
        inst.recv_actions.clear();
        let tag = inst.ctx_tag;
        let comm = inst.comm;
        for send in &round.sends {
            let data = inst.resolve(&send.data);
            let (req, c) = self.isend(fabric, now + cost, comm, send.peer, tag, data);
            cost += c;
            inst.inflight.push(req);
        }
        for recv in &round.recvs {
            let (req, c) = self.irecv(fabric, now + cost, comm, Some(recv.peer), Some(tag));
            cost += c;
            inst.recv_actions.push((req.clone(), recv.action.clone()));
            inst.inflight.push(req);
        }
        if inst.inflight.is_empty() {
            PostOutcome::RoundComplete(cost)
        } else if inst.inflight.iter().all(|r| r.is_done()) {
            // Everything matched instantly (e.g. unexpected queue hits).
            cost += inst.apply_recv_actions();
            PostOutcome::RoundComplete(cost)
        } else {
            PostOutcome::Blocked(cost)
        }
    }

    /// Number of active nonblocking collectives (diagnostics).
    pub fn active_nbcs(&self) -> usize {
        self.nbcs.len()
    }

    /// Unexpected-queue depth over every communicator (diagnostics).
    pub fn unexpected_depth(&self) -> usize {
        self.matching.values().map(Matching::unexpected_len).sum()
    }

    /// Posted-receive queue depth over every communicator (diagnostics).
    pub fn posted_depth(&self) -> usize {
        self.matching.values().map(Matching::posted_len).sum()
    }
}

enum PostOutcome {
    /// Round posted, waiting on internal requests.
    Blocked(Nanos),
    /// Round had no pending ops (or completed instantly).
    RoundComplete(Nanos),
}

impl NbcInstance {
    /// Apply queued receive actions into the accumulator; returns cost.
    fn apply_recv_actions(&mut self) -> Nanos {
        let mut cost = 0;
        for (req, action) in std::mem::take(&mut self.recv_actions) {
            let payload = req
                .data
                .borrow_mut()
                .take()
                .expect("completed recv carries data");
            cost += self.apply_action(&action, payload);
        }
        self.inflight.clear();
        cost
    }

    fn apply_action(&mut self, action: &RecvAction, payload: Bytes) -> Nanos {
        match action {
            RecvAction::Discard => 0,
            RecvAction::ReplaceAcc => {
                self.acc = payload;
                0
            }
            RecvAction::CombineAcc { dtype, op } => {
                let n = payload.len();
                // Synthetic reductions keep the nominal size.
                if let (Bytes::Real(acc), Bytes::Real(other)) = (&mut self.acc, &payload) {
                    combine(*dtype, *op, Rc::make_mut(acc).as_mut_slice(), other);
                }
                // ~1 flop per element charged at copy bandwidth is a fair
                // stand-in for a memory-bound reduction loop.
                MachineProfile::transfer_ns(n, 8.0)
            }
            RecvAction::CombineAt { offset, dtype, op } => {
                let n = payload.len();
                if let (Bytes::Real(acc), Bytes::Real(other)) = (&mut self.acc, &payload) {
                    let acc = Rc::make_mut(acc);
                    combine(*dtype, *op, &mut acc[*offset..*offset + n], other);
                }
                MachineProfile::transfer_ns(n, 8.0)
            }
            RecvAction::StoreAt(offset) => {
                let off = *offset;
                let n = payload.len();
                if let (Bytes::Real(acc), Bytes::Real(other)) = (&mut self.acc, &payload) {
                    let acc = Rc::make_mut(acc);
                    acc[off..off + n].copy_from_slice(other);
                }
                MachineProfile::transfer_ns(n, 8.0)
            }
        }
    }

    /// Materialize a data source into a payload.
    fn resolve(&self, src: &DataSrc) -> Bytes {
        match src {
            DataSrc::Acc => self.acc.clone(),
            DataSrc::AccChunk(range) => slice_bytes(&self.acc, range.clone()),
            DataSrc::InputChunk(range) => slice_bytes(
                self.input
                    .as_ref()
                    .expect("collective without input buffer"),
                range.clone(),
            ),
            DataSrc::Fixed(b) => b.clone(),
        }
    }

    fn finish(&mut self) {
        let result = std::mem::replace(&mut self.acc, Bytes::synthetic(0));
        self.user_req.complete(None, Some(result));
    }

    fn placeholder() -> Self {
        NbcInstance {
            comm: 0,
            ctx_tag: 0,
            rounds: Vec::new(),
            cur: 0,
            inflight: Vec::new(),
            recv_actions: Vec::new(),
            acc: Bytes::synthetic(0),
            input: None,
            user_req: ReqInner::new(),
        }
    }
}

fn slice_bytes(b: &Bytes, range: std::ops::Range<usize>) -> Bytes {
    match b {
        Bytes::Real(v) => Bytes::real(v[range].to_vec()),
        Bytes::Synthetic(_) => Bytes::synthetic(range.len()),
    }
}
