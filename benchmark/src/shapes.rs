//! The three round shapes the six workloads are made of, each written
//! once against [`Endpoint`] so rank 0 can be the offloaded rank (the
//! workload) or a bare transport (the comparison probes).
//!
//! A shape never reads a clock: [`crate::round::run_round`] drives it and
//! does all the timing.

use std::sync::Arc;

use rtmpi::Transport;

use crate::endpoint::{CollSpec, Direct, Done, Endpoint, Phase};
use crate::payload::{self, SETS};

/// Operations attempted and failed, counted per operation (a send, a
/// receive or a collective on any rank). A wrong payload, length, source
/// or tag is a failed operation and also a `mismatch`, which makes the
/// run incorrect.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub first_error: Option<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    fn mismatch(&mut self, why: impl FnOnce() -> String) {
        self.mismatches += 1;
        self.fail(why);
    }

    /// A send must complete as a send.
    fn sent(&mut self, done: Done, who: &str) {
        match done {
            Done::Sent => self.ok(),
            Done::Received(..) => self.mismatch(|| format!("{who}: send completed as a receive")),
            Done::Failed(e) => self.fail(|| format!("{who}: send failed: {e}")),
        }
    }

    /// A receive must carry the expected source, tag, length and bytes.
    /// Returns the payload when the operation itself succeeded.
    fn received(
        &mut self,
        done: Done,
        src: usize,
        tag: u32,
        want: &[u8],
        round: u64,
        who: &str,
    ) -> Option<Arc<[u8]>> {
        match done {
            Done::Received(st, data) => {
                if st.source != src || st.tag != tag || st.len != want.len() {
                    self.mismatch(|| {
                        format!(
                            "{who}: round {round}: status {st:?}, expected source {src} tag {tag} len {}",
                            want.len()
                        )
                    });
                } else if !payload::matches(&data, want, round) {
                    self.mismatch(|| format!("{who}: round {round}: payload differs"));
                } else {
                    self.ok();
                }
                Some(data)
            }
            Done::Sent => {
                self.mismatch(|| format!("{who}: receive completed as a send"));
                None
            }
            Done::Failed(e) => {
                self.fail(|| format!("{who}: receive failed: {e}"));
                None
            }
        }
    }

    fn collective(&mut self, out: Result<bool, String>, round: u64, who: &str) {
        match out {
            Ok(true) => self.ok(),
            Ok(false) => {
                self.mismatch(|| format!("{who}: round {round}: collective result differs"))
            }
            Err(e) => self.fail(|| format!("{who}: collective failed: {e}")),
        }
    }
}

/// One closed-loop round, as the driver sees it. A round is one or more
/// stages run back to back; each stage is post → (compute) → wait.
pub trait Shape {
    fn stages(&self) -> usize {
        1
    }
    /// Load-generator work that is not the system's: staging the buffers
    /// a stage will hand over. Runs before the round's clock starts.
    fn prepare(&mut self, _round: u64) {}
    /// Rank 0 posts the stage's operations; returns how many.
    fn post(&mut self, round: u64, stage: usize) -> u64;
    /// May the peers start? `false` while rank 0's posts of the stage are
    /// still on their way to its transport, for a shape that must have
    /// them all in flight first. The driver spins on this, under the
    /// round's deadline.
    fn issued(&mut self) -> bool {
        true
    }
    /// The peers post their side of the stage.
    fn peers_start(&mut self, round: u64, stage: usize);
    /// Slices of the fixed compute kernel between post and wait.
    fn compute_slices(&self) -> usize {
        0
    }
    /// One turn for every rank the generator polls; returns the transport
    /// polls that took.
    fn pump(&mut self, phase: Phase) -> u64;
    /// Has every operation of the stage completed, on every rank?
    fn done(&mut self) -> bool;
    /// Take and verify every result of the stage.
    fn finish(&mut self, round: u64, stage: usize);
    /// Let ranks other than rank 0 finish what a round left them with;
    /// `false` if they cannot. Called before results are counted and the
    /// world is torn down.
    fn settle(&mut self) -> bool {
        true
    }
    /// One completion check on a handle rank 0 just posted (timed in
    /// batches by the traced run).
    fn test_posted(&mut self) -> bool;
    fn tally(&mut self) -> &mut Tally;
}

const TAG_FROM0: u32 = 11;
const TAG_TO0: u32 = 12;

// ---------------------------------------------------------------------------
// Exchange: rank 0 trades one message each way with each active peer.
// ---------------------------------------------------------------------------

struct PeerLeg<E: Endpoint, P: Endpoint> {
    rank: usize,
    ep: P,
    /// What this peer sends (unused when it echoes).
    bufs: Vec<Arc<[u8]>>,
    rx0: Option<E::Req>,
    tx0: Option<E::Req>,
    prx: Option<P::Req>,
    ptx: Option<P::Req>,
}

/// `eager_pingpong_uds` (one peer, echo), `bulk_rndv_*` (one peer, both
/// directions at once) and `overlap_halo_uds` (two peers, compute between
/// post and wait).
pub struct Exchange<E: Endpoint, T: Transport> {
    r0: E,
    legs: Vec<PeerLeg<E, Direct<T>>>,
    /// Ranks that exist but stay silent; held so their links stay open.
    _silent: Vec<T>,
    bufs0: Vec<Arc<[u8]>>,
    /// The peer sends back what it received, only after receiving it.
    echo: bool,
    slices: usize,
    round: u64,
    tally: Tally,
}

impl<E: Endpoint, T: Transport> Exchange<E, T> {
    /// `peers` are ranks 1.. of the world; the first `active` of them
    /// trade messages with rank 0.
    pub fn new(
        r0: E,
        peers: Vec<T>,
        active: usize,
        len: usize,
        echo: bool,
        slices: usize,
        seed: u64,
    ) -> Self {
        let mut peers = peers.into_iter();
        let legs = peers
            .by_ref()
            .take(active)
            .map(|t| {
                let rank = t.rank();
                PeerLeg {
                    rank,
                    ep: Direct::new(t),
                    bufs: payload::buffer_sets(seed, 1, rank, len),
                    rx0: None,
                    tx0: None,
                    prx: None,
                    ptx: None,
                }
            })
            .collect();
        Exchange {
            r0,
            legs,
            _silent: peers.collect(),
            bufs0: payload::buffer_sets(seed, 1, 0, len),
            echo,
            slices,
            round: 0,
            tally: Tally::default(),
        }
    }
}

impl<E: Endpoint, T: Transport> Shape for Exchange<E, T> {
    fn post(&mut self, round: u64, _stage: usize) -> u64 {
        self.round = round;
        let buf = &self.bufs0[round as usize % SETS];
        for leg in &mut self.legs {
            leg.rx0 = Some(self.r0.irecv(leg.rank, TAG_TO0));
        }
        for leg in &mut self.legs {
            leg.tx0 = Some(self.r0.isend(leg.rank, TAG_FROM0, buf.clone()));
        }
        2 * self.legs.len() as u64
    }

    fn peers_start(&mut self, round: u64, _stage: usize) {
        for leg in &mut self.legs {
            leg.prx = Some(leg.ep.irecv(0, TAG_FROM0));
            if !self.echo {
                let buf = leg.bufs[round as usize % SETS].clone();
                leg.ptx = Some(leg.ep.isend(0, TAG_TO0, buf));
            }
        }
    }

    fn compute_slices(&self) -> usize {
        self.slices
    }

    fn pump(&mut self, phase: Phase) -> u64 {
        let mut polls = self.r0.poll(phase);
        for leg in &mut self.legs {
            polls += leg.ep.poll(phase);
            // The echo leaves as soon as the ping has landed.
            if self.echo && leg.ptx.is_none() && leg.prx.as_ref().is_some_and(|r| leg.ep.test(r)) {
                let done = leg.ep.take(leg.prx.take().expect("tested above"));
                let want = &self.bufs0[self.round as usize % SETS];
                let got = self
                    .tally
                    .received(done, 0, TAG_FROM0, want, self.round, "peer");
                // A failed ping is echoed as an empty message so the round
                // still ends; rank 0's check then counts the mismatch.
                let back = got.unwrap_or_else(|| Arc::from(&[][..]));
                leg.ptx = Some(leg.ep.isend(0, TAG_TO0, back));
            }
        }
        polls
    }

    fn done(&mut self) -> bool {
        for leg in &mut self.legs {
            let r0_done = leg.rx0.as_ref().is_some_and(|r| self.r0.test(r))
                && leg.tx0.as_ref().is_some_and(|r| self.r0.test(r));
            let peer_done = leg.prx.as_ref().is_none_or(|r| leg.ep.test(r))
                && leg.ptx.as_ref().is_some_and(|r| leg.ep.test(r));
            if !(r0_done && peer_done) {
                return false;
            }
        }
        true
    }

    fn finish(&mut self, round: u64, _stage: usize) {
        let set = round as usize % SETS;
        for leg in &mut self.legs {
            let from_peer = if self.echo {
                &self.bufs0[set]
            } else {
                &leg.bufs[set]
            };
            let done = self.r0.take(leg.rx0.take().expect("posted"));
            self.tally
                .received(done, leg.rank, TAG_TO0, from_peer, round, "rank 0");
            let done = self.r0.take(leg.tx0.take().expect("posted"));
            self.tally.sent(done, "rank 0");
            if let Some(prx) = leg.prx.take() {
                let done = leg.ep.take(prx);
                self.tally
                    .received(done, 0, TAG_FROM0, &self.bufs0[set], round, "peer");
            }
            let done = leg.ep.take(leg.ptx.take().expect("posted"));
            self.tally.sent(done, "peer");
        }
    }

    fn test_posted(&mut self) -> bool {
        let leg = &self.legs[0];
        leg.rx0.as_ref().is_some_and(|r| self.r0.test(r))
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

// ---------------------------------------------------------------------------
// IssueWindow: a 64-deep window of tiny messages each way, no wire at all.
// ---------------------------------------------------------------------------

/// Messages per direction in one `issue_window_inproc` round.
pub const WINDOW: usize = 64;

/// `issue_window_inproc`: rank 0 posts [`WINDOW`] receives and
/// [`WINDOW`] sends of 8 bytes; once the command lanes have drained, the
/// generator performs rank 1's matching sends and receives on the bare
/// in-process transport; then rank 0 waits all its handles.
pub struct IssueWindow<E: Endpoint, T: Transport> {
    r0: E,
    peer: Direct<T>,
    /// `[set][k]`: message `k` of buffer set `set`, per direction.
    bufs0: Vec<Vec<Arc<[u8]>>>,
    bufs1: Vec<Vec<Arc<[u8]>>>,
    reqs0: Vec<E::Req>,
    prx: Vec<<Direct<T> as Endpoint>::Req>,
    tally: Tally,
}

impl<E: Endpoint, T: Transport> IssueWindow<E, T> {
    pub fn new(r0: E, peer: T, seed: u64) -> Self {
        let sets = |rank: usize| -> Vec<Vec<Arc<[u8]>>> {
            let per_k: Vec<_> = (0..WINDOW)
                .map(|k| payload::buffer_sets(seed, 2 + k as u64, rank, 8))
                .collect();
            (0..SETS)
                .map(|s| per_k.iter().map(|sets| sets[s].clone()).collect())
                .collect()
        };
        IssueWindow {
            r0,
            peer: Direct::new(peer),
            bufs0: sets(0),
            bufs1: sets(1),
            reqs0: Vec::with_capacity(2 * WINDOW),
            prx: Vec::with_capacity(WINDOW),
            tally: Tally::default(),
        }
    }
}

impl<E: Endpoint, T: Transport> Shape for IssueWindow<E, T> {
    fn post(&mut self, round: u64, _stage: usize) -> u64 {
        let set = &self.bufs0[round as usize % SETS];
        for _ in 0..WINDOW {
            self.reqs0.push(self.r0.irecv(1, TAG_TO0));
        }
        for buf in set {
            self.reqs0.push(self.r0.isend(1, TAG_FROM0, buf.clone()));
        }
        2 * WINDOW as u64
    }

    fn issued(&mut self) -> bool {
        // All of rank 0's receives must be in flight before the first
        // matching send: the round measures a sweep over WINDOW pending
        // receives, not WINDOW unexpected-queue hits.
        self.r0.issued()
    }

    fn peers_start(&mut self, round: u64, _stage: usize) {
        for _ in 0..WINDOW {
            self.prx.push(self.peer.irecv(0, TAG_FROM0));
        }
        for buf in &self.bufs1[round as usize % SETS] {
            let done = {
                let req = self.peer.isend(0, TAG_TO0, buf.clone());
                self.peer.take(req)
            };
            self.tally.sent(done, "peer");
        }
    }

    fn pump(&mut self, phase: Phase) -> u64 {
        self.r0.poll(phase) + self.peer.poll(phase)
    }

    fn done(&mut self) -> bool {
        // Newest first: the last-posted handle is the last to complete, so
        // an unfinished round is seen on the first check.
        self.reqs0.iter().rev().all(|r| self.r0.test(r))
            && self.prx.iter().rev().all(|r| self.peer.test(r))
    }

    fn finish(&mut self, round: u64, _stage: usize) {
        let set = round as usize % SETS;
        // Same tag, same source: MPI's non-overtaking rule delivers
        // message k to the k-th posted receive.
        for (k, req) in self.reqs0.drain(..).enumerate() {
            let done = self.r0.take(req);
            if k < WINDOW {
                self.tally
                    .received(done, 1, TAG_TO0, &self.bufs1[set][k], round, "rank 0");
            } else {
                self.tally.sent(done, "rank 0");
            }
        }
        for (k, req) in self.prx.drain(..).enumerate() {
            let done = self.peer.take(req);
            self.tally
                .received(done, 0, TAG_FROM0, &self.bufs0[set][k], round, "peer");
        }
    }

    fn test_posted(&mut self) -> bool {
        self.r0.test(&self.reqs0[0])
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

// ---------------------------------------------------------------------------
// CollMix: an eager allreduce, then a rendezvous all-to-all, on 4 ranks.
// ---------------------------------------------------------------------------

/// Allreduce payload: 256 f64 lanes, below the eager crossover.
pub const ALLREDUCE_BYTES: usize = 2048;
/// All-to-all block: above the eager crossover, so every round is a
/// rendezvous.
pub const ALLTOALL_BLOCK: usize = 16 * 1024;

const COLL_STAGES: usize = 2;

/// Generated inputs and the results they must produce.
struct CollData {
    /// `[set][rank]` inputs and `[set]` / `[set][rank]` expected results.
    reduce_in: Vec<Vec<Vec<u8>>>,
    reduce_want: Vec<Vec<u8>>,
    a2a_in: Vec<Vec<Vec<u8>>>,
    a2a_want: Vec<Vec<Vec<u8>>>,
}

impl CollData {
    fn input(&self, round: u64, stage: usize, rank: usize) -> &Vec<u8> {
        let set = round as usize % SETS;
        if stage == 0 {
            &self.reduce_in[set][rank]
        } else {
            &self.a2a_in[set][rank]
        }
    }

    fn want(&self, round: u64, stage: usize, rank: usize) -> &[u8] {
        let set = round as usize % SETS;
        if stage == 0 {
            &self.reduce_want[set]
        } else {
            &self.a2a_want[set][rank]
        }
    }
}

struct CollRank<P: Endpoint> {
    ep: P,
    /// The collective in flight.
    run: Option<P::Coll>,
    /// Collectives this rank has completed and verified since the world
    /// was built; the next one it starts has this index.
    completed: u64,
}

/// `coll_mix4_uds`: stage 0 is `Allreduce{F64,Sum}`, stage 1 `Alltoall`.
///
/// Rank 0 behaves as an application does: a collective is over when
/// *its* handle completes, and it starts the next one then — it does not
/// wait for the slowest peer. Each peer moves on when it finishes its own
/// (it can lag rank 0 by at most one collective: the next cannot complete
/// without it). Had rank 0 waited for every peer, its offload thread would
/// sit idle for about as long as its spin-then-yield budget lasts, and
/// whether it parked — and the next post paid a wake — would be a coin
/// flip that holds for seconds: the same code measured 330 µs or 480 µs a
/// round. For the same reason one call of `pump` plays one peer, so rank
/// 0's completion is looked at every few microseconds, and the next
/// round's input is cloned while this round is still in flight.
pub struct CollMix<E: Endpoint, T: Transport> {
    r0: E,
    run0: Option<E::Coll>,
    peers: Vec<CollRank<Direct<T>>>,
    /// The peer the next `pump` plays.
    turn: usize,
    /// Transport polls made while the peers caught up, owed to `pump`'s
    /// count.
    unreported_polls: u64,
    /// Collectives rank 0 has started since the world was built. Collective
    /// `k` is stage `k % 2` of round `k / 2` and uses tag sequence `k + 1`
    /// (rounds count from 0 without gaps on one world).
    posted: u64,
    data: CollData,
    /// Rank 0's inputs for round `staged_for`, one per stage.
    staged: [Vec<u8>; COLL_STAGES],
    staged_for: Option<u64>,
    tally: Tally,
}

impl<E: Endpoint, T: Transport> CollMix<E, T> {
    pub fn new(r0: E, peers: Vec<T>, seed: u64) -> Self {
        let size = peers.len() + 1;
        let mut reduce_in = Vec::new();
        let mut reduce_want = Vec::new();
        let mut a2a_in = Vec::new();
        let mut a2a_want = Vec::new();
        for set in 0..SETS {
            let stream = |kind: u64, rank: usize| {
                payload::Rng::new(seed, (kind << 16) | ((set as u64) << 8) | rank as u64)
            };
            let rin: Vec<Vec<u8>> = (0..size)
                .map(|r| payload::whole_f64s(&mut stream(100, r), ALLREDUCE_BYTES / 8))
                .collect();
            let ain: Vec<Vec<u8>> = (0..size)
                .map(|r| payload::bytes(&mut stream(101, r), size * ALLTOALL_BLOCK))
                .collect();
            let rrefs: Vec<&[u8]> = rin.iter().map(Vec::as_slice).collect();
            let arefs: Vec<&[u8]> = ain.iter().map(Vec::as_slice).collect();
            reduce_want.push(payload::sum_f64_lanes(&rrefs));
            a2a_want.push(
                (0..size)
                    .map(|r| payload::alltoall_expected(&arefs, r, ALLTOALL_BLOCK))
                    .collect(),
            );
            reduce_in.push(rin);
            a2a_in.push(ain);
        }
        CollMix {
            r0,
            run0: None,
            peers: peers
                .into_iter()
                .map(|t| CollRank {
                    ep: Direct::new(t),
                    run: None,
                    completed: 0,
                })
                .collect(),
            turn: 0,
            unreported_polls: 0,
            posted: 0,
            data: CollData {
                reduce_in,
                reduce_want,
                a2a_in,
                a2a_want,
            },
            staged: [Vec::new(), Vec::new()],
            staged_for: None,
            tally: Tally::default(),
        }
    }

    fn spec(stage: usize, input: Vec<u8>) -> CollSpec {
        if stage == 0 {
            CollSpec::AllreduceF64Sum(input)
        } else {
            CollSpec::Alltoall {
                input,
                block: ALLTOALL_BLOCK,
            }
        }
    }

    fn stage_rank0(&mut self, round: u64) {
        self.staged = [
            self.data.input(round, 0, 0).clone(),
            self.data.input(round, 1, 0).clone(),
        ];
        self.staged_for = Some(round);
    }

    /// Move peer `i` along: verify a collective that has finished, start
    /// the next one rank 0 has already started.
    fn advance_peer(&mut self, i: usize) {
        let rank = i + 1;
        let stages = COLL_STAGES as u64;
        if let Some(mut run) = self.peers[i].run.take() {
            if !self.peers[i].ep.coll_test(&mut run) {
                self.peers[i].run = Some(run);
                return;
            }
            let k = self.peers[i].completed;
            let (round, stage) = (k / stages, (k % stages) as usize);
            let want = self.data.want(round, stage, rank);
            let out = self.peers[i]
                .ep
                .coll_finish(run, |got| payload::matches(got, want, round));
            self.tally.collective(out, round, "peer");
            self.peers[i].completed = k + 1;
        }
        let k = self.peers[i].completed;
        if k < self.posted {
            let (round, stage) = (k / stages, (k % stages) as usize);
            let spec = Self::spec(stage, self.data.input(round, stage, rank).clone());
            let p = &mut self.peers[i];
            p.run = Some(p.ep.coll_start(k as u32 + 1, spec));
        }
    }
}

impl<E: Endpoint, T: Transport> Shape for CollMix<E, T> {
    fn stages(&self) -> usize {
        COLL_STAGES
    }

    fn prepare(&mut self, round: u64) {
        // The collective API takes its input by value; cloning rank 0's
        // generated buffers is the generator's work, not the system's, so
        // it is kept off the round's clock (and, but for the first round,
        // off the gap between rounds: see `peers_start`).
        debug_assert_eq!(self.posted, round * COLL_STAGES as u64);
        if self.staged_for != Some(round) {
            self.stage_rank0(round);
        }
    }

    fn post(&mut self, _round: u64, stage: usize) -> u64 {
        let spec = Self::spec(stage, std::mem::take(&mut self.staged[stage]));
        self.posted += 1;
        self.run0 = Some(self.r0.coll_start(self.posted as u32, spec));
        1
    }

    fn issued(&mut self) -> bool {
        // Every peer finishes (and has verified) the previous collective
        // before any of them starts the one rank 0 has just posted, so all
        // four ranks enter each collective from the same state. Rank 0's
        // offload thread has that collective in flight meanwhile and
        // stays out of the idle path.
        if self.peers.iter().all(|p| p.completed + 1 >= self.posted) {
            return true;
        }
        // One turn for each peer: they finish through each other.
        for i in 0..self.peers.len() {
            self.unreported_polls += self.peers[i].ep.poll(Phase::Wait);
            self.advance_peer(i);
        }
        false
    }

    fn peers_start(&mut self, round: u64, stage: usize) {
        for i in 0..self.peers.len() {
            self.advance_peer(i);
        }
        if stage + 1 == COLL_STAGES {
            // Rank 0 is busy with the last stage: the time to get its
            // next round's input ready.
            self.stage_rank0(round + 1);
        }
    }

    fn pump(&mut self, phase: Phase) -> u64 {
        let i = self.turn;
        self.turn = (i + 1) % self.peers.len();
        let polls = self.r0.poll(phase) + self.peers[i].ep.poll(phase);
        self.advance_peer(i);
        polls + std::mem::take(&mut self.unreported_polls)
    }

    fn done(&mut self) -> bool {
        // A bare rank 0 advances its schedule in this call.
        self.r0.coll_test(self.run0.as_mut().expect("started"))
    }

    fn finish(&mut self, round: u64, stage: usize) {
        let want = self.data.want(round, stage, 0);
        let out = self
            .r0
            .coll_finish(self.run0.take().expect("started"), |got| {
                payload::matches(got, want, round)
            });
        self.tally.collective(out, round, "rank 0");
    }

    fn settle(&mut self) -> bool {
        // The peers finish (and have verified) what rank 0 finished.
        let mut turns = 0u32;
        while self.peers.iter().any(|p| p.completed < self.posted) {
            self.pump(Phase::Wait);
            turns += 1;
            if turns > 10_000_000 {
                return false;
            }
        }
        true
    }

    fn test_posted(&mut self) -> bool {
        self.r0.coll_test(self.run0.as_mut().expect("started"))
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}
