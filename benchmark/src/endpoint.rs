//! One rank as the load generator drives it: either behind the offload
//! thread ([`Offloaded`], the system under test) or as a bare transport
//! the generator polls itself ([`Direct`]) — the peers of every workload,
//! and rank 0 in the no-offload comparison probes.
//!
//! The workloads are written once against [`Endpoint`], so the round a
//! probe times has the same shape as the round the workload times.

use std::sync::Arc;

use offload::{CollKind, Completion, Dtype, Handle, OffloadHandle, ReduceOp};
use rtmpi::{OpOutcome, Status, Transport, TransportError};
use wire::nbcrun::{Coll, NbcRun};

/// What a finished operation resolved to.
pub enum Done {
    Sent,
    Received(Status, Arc<[u8]>),
    Failed(String),
}

/// The two collectives the benchmark issues.
pub enum CollSpec {
    AllreduceF64Sum(Vec<u8>),
    Alltoall { input: Vec<u8>, block: usize },
}

/// Where in the round a poll happens: [`Direct::quiet_compute`] skips the
/// polls of the compute phase (the paper's baseline, whose handshakes wait
/// for `MPI_Wait`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Compute,
    Wait,
}

pub trait Endpoint {
    type Req;
    type Coll;

    fn isend(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> Self::Req;
    fn irecv(&mut self, src: usize, tag: u32) -> Self::Req;
    /// Completion check that never blocks and never takes the result.
    fn test(&mut self, req: &Self::Req) -> bool;
    /// Take the result of a request [`Endpoint::test`] reported complete.
    fn take(&mut self, req: Self::Req) -> Done;
    /// Give the rank its turn on the caller's CPU. Returns how many
    /// transport polls that cost (0 behind the offload thread, which
    /// polls on its own CPU).
    fn poll(&mut self, phase: Phase) -> u64;
    /// Has everything posted so far been issued to the transport? (The
    /// offloaded rank's command channel is empty; a bare rank issues at
    /// the call.)
    fn issued(&mut self) -> bool;

    /// `seq` counts this rank's collectives from 1; the bare runner
    /// derives the reserved tag from it exactly as the offload thread
    /// does internally, so the two sides match.
    fn coll_start(&mut self, seq: u32, spec: CollSpec) -> Self::Coll;
    fn coll_test(&mut self, coll: &mut Self::Coll) -> bool;
    /// Hand the result of a collective [`Endpoint::coll_test`] reported
    /// complete to `check` (in place — the peers' results are not copied
    /// out just to be looked at) and return its verdict.
    fn coll_finish(
        &mut self,
        coll: Self::Coll,
        check: impl FnOnce(&[u8]) -> bool,
    ) -> Result<bool, String>;
}

/// Rank 0 as the application sees it: an [`OffloadHandle`].
pub struct Offloaded(pub OffloadHandle);

impl Offloaded {
    fn coll_kind(spec: CollSpec) -> CollKind {
        match spec {
            CollSpec::AllreduceF64Sum(data) => CollKind::Allreduce {
                dtype: Dtype::F64,
                op: ReduceOp::Sum,
                data,
            },
            CollSpec::Alltoall { input, block } => CollKind::Alltoall { input, block },
        }
    }
}

impl Endpoint for Offloaded {
    type Req = Handle;
    type Coll = Handle;

    fn isend(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> Handle {
        self.0.isend(dst, tag, data)
    }

    fn irecv(&mut self, src: usize, tag: u32) -> Handle {
        self.0.irecv(Some(src), Some(tag))
    }

    fn test(&mut self, req: &Handle) -> bool {
        self.0.test(*req)
    }

    fn take(&mut self, req: Handle) -> Done {
        match self.0.wait(req) {
            Completion::Sent => Done::Sent,
            Completion::Received(st, data) => Done::Received(st, data),
            Completion::Collective(_) => Done::Failed("p2p completed as a collective".into()),
            Completion::Failed(e) => Done::Failed(e.to_string()),
        }
    }

    fn poll(&mut self, _phase: Phase) -> u64 {
        0
    }

    fn issued(&mut self) -> bool {
        self.0.queued_commands() == 0
    }

    fn coll_start(&mut self, _seq: u32, spec: CollSpec) -> Handle {
        self.0.start_collective(Self::coll_kind(spec))
    }

    fn coll_test(&mut self, coll: &mut Handle) -> bool {
        self.0.test(*coll)
    }

    fn coll_finish(
        &mut self,
        coll: Handle,
        check: impl FnOnce(&[u8]) -> bool,
    ) -> Result<bool, String> {
        match self.0.wait(coll) {
            Completion::Collective(out) => Ok(check(&out)),
            Completion::Failed(e) => Err(e.to_string()),
            _ => Err("collective completed as p2p".into()),
        }
    }
}

/// A bare transport polled by the generator.
pub struct Direct<T: Transport> {
    pub t: T,
    /// Skip this rank's polls during the compute phase.
    pub quiet_compute: bool,
}

impl<T: Transport> Direct<T> {
    pub fn new(t: T) -> Self {
        Direct {
            t,
            quiet_compute: false,
        }
    }
}

/// A collective in flight on a bare transport.
pub struct DirectColl<T: Transport> {
    run: NbcRun<T>,
    err: Option<TransportError>,
}

impl<T: Transport> Endpoint for Direct<T> {
    type Req = T::Req;
    type Coll = DirectColl<T>;

    fn isend(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> T::Req {
        self.t.isend(dst, tag, data)
    }

    fn irecv(&mut self, src: usize, tag: u32) -> T::Req {
        self.t.irecv(Some(src), Some(tag))
    }

    fn test(&mut self, req: &T::Req) -> bool {
        self.t.is_done(req)
    }

    fn take(&mut self, req: T::Req) -> Done {
        match self.t.try_take(&req) {
            Some(Ok(OpOutcome::Sent)) => Done::Sent,
            Some(Ok(OpOutcome::Received(st, data))) => Done::Received(st, data),
            Some(Err(e)) => Done::Failed(e.to_string()),
            None => Done::Failed("taken before completion".into()),
        }
    }

    fn poll(&mut self, phase: Phase) -> u64 {
        if !self.t.needs_progress() || (self.quiet_compute && phase == Phase::Compute) {
            return 0;
        }
        // The baseline's handshakes are attributed to the wait they
        // complete in, as `approaches::live` does.
        self.t
            .set_in_wait(self.quiet_compute && phase == Phase::Wait);
        self.t.progress();
        1
    }

    fn issued(&mut self) -> bool {
        true
    }

    fn coll_start(&mut self, seq: u32, spec: CollSpec) -> DirectColl<T> {
        let coll = match spec {
            CollSpec::AllreduceF64Sum(data) => Coll::Allreduce {
                dtype: Dtype::F64,
                op: ReduceOp::Sum,
                data,
            },
            CollSpec::Alltoall { input, block } => Coll::Alltoall { input, block },
        };
        let tag = rtmpi::TAG_COLL_BASE + seq % rtmpi::TAG_COLL_SPAN;
        DirectColl {
            run: NbcRun::start(&mut self.t, tag, coll),
            err: None,
        }
    }

    fn coll_test(&mut self, coll: &mut DirectColl<T>) -> bool {
        match coll.run.poll(&mut self.t) {
            Ok(done) => done,
            Err(e) => {
                coll.err = Some(e);
                true
            }
        }
    }

    fn coll_finish(
        &mut self,
        coll: DirectColl<T>,
        check: impl FnOnce(&[u8]) -> bool,
    ) -> Result<bool, String> {
        match coll.err {
            None => Ok(check(coll.run.result())),
            Some(e) => {
                let msg = e.to_string();
                coll.run.abort(&mut self.t);
                Err(msg)
            }
        }
    }
}
