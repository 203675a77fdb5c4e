//! The one live service loop (paper §3), as a steppable object.
//!
//! A [`Service`] owns a rank's [`rtmpi::Transport`] and is the only code in
//! this crate and in `approaches` that drives it: [`Service::submit`]
//! issues a serialized MPI call, [`Service::step`] is one pass of the
//! paper's loop. The strategies the paper compares differ only in *who
//! calls `step`, and when*: the dedicated offload thread ([`crate::live`]),
//! or the application thread inside its own waits and progress hints
//! (`approaches::live`).
//!
//! Blocking collectives are *converted to nonblocking schedules* here
//! (paper §3.3), so a barrier never keeps `step` from servicing other
//! commands. Schedule, planner and runner are [`mpisim::nbc`]'s.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpisim::nbc::NbcRun;
use rtmpi::{OpOutcome, Transport, TransportError};

use crate::pool::{Handle, RequestPool};

/// Offloadable collective operations and their one planner: plain
/// re-exports of [`mpisim::nbc`]'s under this crate's historical names.
pub use mpisim::nbc::{plan as nbc_plan, Coll as CollKind};

/// Result of a completed operation.
#[derive(Clone, Debug)]
pub enum Completion {
    /// A send was handed to the message layer.
    Sent,
    /// A receive completed.
    Received(rtmpi::Status, Arc<[u8]>),
    /// A collective completed; payload is its result buffer (empty for
    /// barrier), moved out of the schedule's accumulator.
    Collective(Vec<u8>),
    /// The transport could not complete the operation: the peer died or
    /// the configured per-op timeout expired. Surfaced instead of hanging.
    Failed(TransportError),
}

impl Completion {
    /// Map transport failures (peer death, op timeout) to `Err`.
    pub fn into_result(self) -> Result<Completion, TransportError> {
        match self {
            Completion::Failed(e) => Err(e),
            c => Ok(c),
        }
    }
}

fn completion_of(out: Result<OpOutcome, TransportError>) -> Completion {
    match out {
        Ok(OpOutcome::Sent) => Completion::Sent,
        Ok(OpOutcome::Received(st, d)) => Completion::Received(st, d),
        Err(e) => Completion::Failed(e),
    }
}

/// A serialized MPI call.
pub enum Op {
    Isend {
        dst: usize,
        tag: u32,
        data: Arc<[u8]>,
    },
    Irecv {
        src: Option<usize>,
        tag: Option<u32>,
    },
    Collective(CollKind),
}

/// An application-issued operation the transport has not completed yet.
struct InflightOp<R> {
    slot: Handle,
    req: R,
    pending_since: Option<Instant>,
}

/// A converted collective. The waiter's slot completes (and becomes
/// `None`) when the last round folds; the run stays in flight until its
/// round sends have drained, so the transport can retire them.
struct InflightColl<T: Transport> {
    run: NbcRun<T>,
    slot: Option<Handle>,
    pending_since: Option<Instant>,
}

/// The one deadline rule, for operations and collectives alike: what a
/// pass finds still pending `limit` after the first pass that found it
/// pending has timed out. Counting from the first *pass*, not from the
/// post, keeps time the owner spent not polling (a baseline rank
/// computing) from being billed to the peer. `clock` is `None` on
/// transports without a timeout, which never read the clock.
fn overdue(
    pending_since: &mut Option<Instant>,
    clock: Option<(Instant, Duration)>,
    op_timeouts: &obs::Counter,
) -> Option<TransportError> {
    let (now, limit) = clock?;
    if now.duration_since(*pending_since.get_or_insert(now)) < limit {
        return None;
    }
    op_timeouts.inc();
    Some(TransportError::Timeout {
        waited_ms: limit.as_millis() as u64,
    })
}

/// One rank's service loop over an owned transport (see module docs).
pub struct Service<T: Transport> {
    mpi: T,
    pool: Arc<RequestPool<Completion>>,
    ops: Vec<InflightOp<T::Req>>,
    colls: Vec<InflightColl<T>>,
    /// Every rank issues collectives in the same program order (the MPI
    /// ordering rule), so equal sequence numbers name the same collective
    /// on every rank and the derived round tag agrees without negotiation.
    coll_seq: u32,
    needs_progress: bool,
    op_timeout: Option<Duration>,
    sweeps: obs::Counter,
    converted: obs::Counter,
    progress_polls: obs::Counter,
    op_timeouts: obs::Counter,
}

impl<T: Transport> Service<T> {
    /// Take ownership of `mpi`, completing slots of `pool` and counting
    /// the loop's work (`offload.*`) in `reg`. Built on the thread that
    /// will step it: a collective's schedule is not `Send`.
    pub fn new(mpi: T, pool: Arc<RequestPool<Completion>>, reg: &obs::Registry) -> Self {
        Service {
            pool,
            ops: Vec::new(),
            colls: Vec::new(),
            coll_seq: 0,
            needs_progress: mpi.needs_progress(),
            op_timeout: mpi.op_timeout(),
            sweeps: reg.counter("offload.testany_sweeps"),
            converted: reg.counter("offload.coll_converted"),
            progress_polls: reg.counter("offload.progress_polls"),
            op_timeouts: reg.counter("offload.op_timeouts"),
            mpi,
        }
    }

    /// The pool a submitter allocates its command's reply slot from.
    pub fn pool(&self) -> &Arc<RequestPool<Completion>> {
        &self.pool
    }

    /// The owned transport, for its identity and metrics registry.
    pub fn transport(&self) -> &T {
        &self.mpi
    }

    /// [`Transport::set_in_wait`], for a caller that submits or steps from
    /// inside an application-initiated MPI call.
    pub fn set_in_wait(&mut self, in_wait: bool) {
        self.mpi.set_in_wait(in_wait);
    }

    /// Issue `op` to the transport, its completion going to `slot`; what
    /// does not complete at hand-off stays in flight for [`Service::step`].
    pub fn submit(&mut self, op: Op, slot: Handle) {
        let req = match op {
            Op::Isend { dst, tag, data } => self.mpi.isend(dst, tag, data),
            Op::Irecv { src, tag } => self.mpi.irecv(src, tag),
            Op::Collective(kind) => {
                self.converted.inc();
                self.coll_seq = self.coll_seq.wrapping_add(1);
                // The reserved range wildcard receives never match.
                let tag = rtmpi::TAG_COLL_BASE + (self.coll_seq % rtmpi::TAG_COLL_SPAN);
                self.colls.push(InflightColl {
                    run: NbcRun::start(&mut self.mpi, tag, kind),
                    slot: Some(slot),
                    pending_since: None,
                });
                return;
            }
        };
        // In-process sends complete at hand-off; wire sends stay pending
        // until flushed and (rendezvous) acknowledged.
        match self.mpi.try_take(&req) {
            Some(out) => self.pool.complete(slot, completion_of(out)),
            None => self.ops.push(InflightOp {
                slot,
                req,
                pending_since: None,
            }),
        }
    }

    /// One pass of the loop; `true` when anything advanced.
    pub fn step(&mut self) -> bool {
        let mut advanced = false;
        // 1. Drive the transport's pending protocol state. Called by the
        // offload thread this *is* the paper's asynchronous progress:
        // rendezvous handshakes complete here, not inside MPI_Wait.
        if self.needs_progress {
            self.progress_polls.inc();
            advanced |= self.mpi.progress();
        }
        // One clock read per pass with work in flight, for `overdue`.
        let clock = self
            .op_timeout
            .filter(|_| !self.is_idle())
            .map(|limit| (Instant::now(), limit));
        // 2. Sweep in-flight operations (the MPI_Testany analogue).
        if !self.ops.is_empty() {
            self.sweeps.inc();
        }
        let mut i = 0;
        while i < self.ops.len() {
            let op = &mut self.ops[i];
            let done = match self.mpi.try_take(&op.req) {
                Some(out) => Some(completion_of(out)),
                None => overdue(&mut op.pending_since, clock, &self.op_timeouts).map(|e| {
                    self.mpi.cancel(&op.req);
                    Completion::Failed(e)
                }),
            };
            match done {
                Some(done) => {
                    self.pool.complete(op.slot, done);
                    self.ops.swap_remove(i);
                    advanced = true;
                }
                None => i += 1,
            }
        }
        // 3. Advance collective schedules.
        let mut i = 0;
        while i < self.colls.len() {
            let coll = &mut self.colls[i];
            let polled = match coll.run.poll(&mut self.mpi) {
                Ok(false) => overdue(&mut coll.pending_since, clock, &self.op_timeouts)
                    .map_or(Ok(false), Err),
                polled => polled,
            };
            let settled = polled.is_err() || coll.run.result_ready();
            if let Some(slot) = coll.slot.take_if(|_| settled) {
                let done = match &polled {
                    Ok(_) => Completion::Collective(coll.run.take_result()),
                    Err(e) => Completion::Failed(e.clone()),
                };
                self.pool.complete(slot, done);
                advanced = true;
            }
            match polled {
                Ok(false) => i += 1,
                Ok(true) => {
                    self.colls.swap_remove(i);
                }
                Err(_) => self.colls.swap_remove(i).run.abort(&mut self.mpi),
            }
        }
        advanced
    }

    /// Nothing in flight, so nothing to poll for until the next submit —
    /// on the wire too: sends complete only once flushed, so no outbox
    /// bytes are stuck, and inbound traffic waits in kernel buffers.
    pub fn is_idle(&self) -> bool {
        self.ops.is_empty() && self.colls.is_empty()
    }

    /// Is a collective whose result was already delivered still retiring
    /// its round sends?
    pub fn is_draining(&self) -> bool {
        self.colls.iter().any(|c| c.slot.is_none())
    }

    /// Hand the transport back; idle, it carries no state of ours.
    pub fn into_transport(self) -> T {
        debug_assert!(self.is_idle(), "service torn down with work in flight");
        self.mpi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::types::{f64s_to_bytes, Dtype, ReduceOp};

    type Svc = Service<rtmpi::RtMpi>;

    fn post(svc: &mut Svc, op: Op) -> Handle {
        let slot = svc.pool().alloc().expect("free slot");
        svc.submit(op, slot);
        slot
    }

    /// Step every rank round-robin until `rank`'s request `h` completes.
    fn finish(world: &mut [Svc], rank: usize, h: Handle) -> Completion {
        let mut passes = 0;
        while !world[rank].pool().is_done(h) {
            for svc in world.iter_mut() {
                svc.step();
            }
            passes += 1;
            assert!(passes <= 64, "rank {rank} wedged");
        }
        let done = world[rank].pool().wait_take(h);
        done.expect("completion value present")
    }

    fn received(done: Completion) -> Vec<u8> {
        match done {
            Completion::Received(_, data) => data.to_vec(),
            other => panic!("receive completed as {other:?}"),
        }
    }

    /// The seam itself, with no thread anywhere (so Miri can run it): two
    /// services over one in-process world, stepped round-robin by the
    /// test, carry point-to-point traffic and every collective kind.
    #[test]
    fn two_services_stepped_on_one_thread() {
        let mut world: Vec<Svc> = rtmpi::world(2)
            .into_iter()
            .map(|t| {
                let pool = Arc::new(RequestPool::with_capacity(128));
                Service::new(t, pool, &obs::Registry::default())
            })
            .collect();
        let isend = |svc: &mut Svc, dst, tag, data: Vec<u8>| {
            let data = Arc::from(data);
            post(svc, Op::Isend { dst, tag, data })
        };
        let irecv = |svc: &mut Svc, src, tag| {
            let (src, tag) = (Some(src), Some(tag));
            post(svc, Op::Irecv { src, tag })
        };

        // Ping-pong: rank 1 echoes rank 0's payload reversed.
        let rx1 = irecv(&mut world[1], 0, 5);
        let tx0 = isend(&mut world[0], 1, 5, vec![1, 2, 3]);
        let mut echo = received(finish(&mut world, 1, rx1));
        echo.reverse();
        let rx0 = irecv(&mut world[0], 1, 6);
        let tx1 = isend(&mut world[1], 0, 6, echo);
        assert_eq!(received(finish(&mut world, 0, rx0)), vec![3, 2, 1]);
        for (rank, tx) in [(0, tx0), (1, tx1)] {
            assert!(matches!(finish(&mut world, rank, tx), Completion::Sent));
        }

        // A 64-deep window: every receive is posted (and parked in flight)
        // before its send exists.
        let rxs: Vec<_> = (0..64).map(|i| irecv(&mut world[1], 0, i)).collect();
        let txs: Vec<_> = (0..64)
            .map(|i| isend(&mut world[0], 1, i, vec![i as u8; 8]))
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(received(finish(&mut world, 1, rx)), vec![i as u8; 8]);
        }
        for tx in txs {
            assert!(matches!(finish(&mut world, 0, tx), Completion::Sent));
        }

        // All eight collective kinds, rooted at rank 1, against closed forms.
        type Row = (fn(usize) -> CollKind, fn(usize) -> Option<Vec<u8>>);
        let table: [Row; 8] = [
            (|_| CollKind::Barrier, |_| Some(Vec::new())),
            (
                |r| CollKind::Bcast {
                    root: 1,
                    payload: if r == 1 { vec![9, 8, 7] } else { Vec::new() },
                },
                |_| Some(vec![9, 8, 7]),
            ),
            (
                |r| CollKind::Reduce {
                    root: 1,
                    dtype: Dtype::F64,
                    op: ReduceOp::Sum,
                    data: f64s_to_bytes(&[r as f64, 1.0]),
                },
                // Only the root's accumulator is specified.
                |r| (r == 1).then(|| f64s_to_bytes(&[1.0, 2.0])),
            ),
            (
                |r| CollKind::Allreduce {
                    dtype: Dtype::F64,
                    op: ReduceOp::Sum,
                    data: f64s_to_bytes(&[r as f64, 1.0]),
                },
                |_| Some(f64s_to_bytes(&[1.0, 2.0])),
            ),
            (
                |r| CollKind::Allgather {
                    mine: vec![r as u8; 2],
                },
                |_| Some(vec![0, 0, 1, 1]),
            ),
            (
                |r| CollKind::Alltoall {
                    input: vec![(r * 2) as u8, (r * 2 + 1) as u8],
                    block: 1,
                },
                |r| Some(vec![r as u8, (2 + r) as u8]),
            ),
            (
                |r| CollKind::Gather {
                    root: 1,
                    mine: vec![r as u8; 2],
                },
                |r| (r == 1).then(|| vec![0, 0, 1, 1]),
            ),
            (
                |r| CollKind::Scatter {
                    root: 1,
                    input: if r == 1 { vec![10, 11] } else { Vec::new() },
                    block: 1,
                },
                |r| Some(vec![10 + r as u8]),
            ),
        ];
        for (row, (kind, expect)) in table.into_iter().enumerate() {
            let hs: Vec<_> = (0..2)
                .map(|r| post(&mut world[r], Op::Collective(kind(r))))
                .collect();
            for (r, h) in hs.into_iter().enumerate() {
                match finish(&mut world, r, h) {
                    Completion::Collective(out) => {
                        if let Some(want) = expect(r) {
                            assert_eq!(out, want, "row {row} rank {r}");
                        }
                    }
                    other => panic!("row {row} rank {r} completed as {other:?}"),
                }
            }
        }

        // Every slot came back, nothing is in flight, and the reclaimed
        // mesh holds no undelivered message.
        for mut svc in world {
            while !svc.is_idle() {
                svc.step();
            }
            assert_eq!(svc.pool().outstanding(), 0);
            assert!(svc.into_transport().iprobe(None, None).is_none());
        }
    }
}
