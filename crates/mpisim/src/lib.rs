//! `mpisim` — a simulated MPI library over the `simnet` fabric.
//!
//! This is the substrate under every experiment in this reproduction: an
//! MPI-like message-passing library whose *software mechanics* mirror the
//! MPICH-derived implementations the paper evaluates against (Intel MPI,
//! Cray MPI):
//!
//! * **Eager protocol** for messages up to the profile's threshold: the
//!   send call pays an internal buffer copy proportional to the message
//!   size, then completes locally (Fig 4's rising posting cost).
//! * **Rendezvous protocol** above the threshold: an RTS control message is
//!   sent; the payload moves only after the receiver's progress engine
//!   matches the RTS and answers CTS, and the *sender's* progress engine
//!   processes that CTS. With nobody polling, a nonblocking send makes no
//!   progress during compute — precisely the overlap failure of §2.
//! * **Tag/source matching** with wildcard support, posted-receive and
//!   unexpected-message queues, FIFO per (source, communicator, tag) —
//!   one [`rtmpi::MatchQueue`] per communicator, the queue both live
//!   substrates match with, so a wildcard never takes a collective round.
//! * **Nonblocking collectives** as round-based schedules advanced only by
//!   progress polls (libNBC-style), planned by the live paths' planner
//!   (`nbc::plan_of`, via [`Mpi::icollective`]).
//! * **Thread levels**: under `MPI_THREAD_MULTIPLE`, every call takes the
//!   library's global lock and pays the paper's measured extra
//!   critical-section cost; contention between threads then emerges from
//!   the simulated mutex queueing.
//!
//! The public entry point is [`Universe`], which runs one async closure per
//! rank under the deterministic `destime` executor and hands each a
//! [`Mpi`] handle.
//!
//! # Example
//!
//! ```
//! use mpisim::{run_funneled, COMM_WORLD};
//!
//! let (outs, _elapsed) = run_funneled(2, |mpi| async move {
//!     if mpi.rank() == 0 {
//!         mpi.send(COMM_WORLD, 1, 7, vec![1u8, 2, 3]).await;
//!         0
//!     } else {
//!         let (status, data) = mpi.recv(COMM_WORLD, Some(0), Some(7)).await;
//!         assert_eq!(data.to_vec(), vec![1, 2, 3]);
//!         status.len
//!     }
//! });
//! assert_eq!(outs, vec![0, 3]);
//! ```

pub mod api;
pub mod engine;
pub mod nbc;
pub mod types;
pub mod universe;

pub use api::{Mpi, Request, COMM_WORLD};
pub use engine::{CommId, RankStats, WinId};
pub use types::{
    bytes_to_f64s, combine, f64s_to_bytes, Bytes, Dtype, Rank, ReduceOp, Status, Tag, ThreadLevel,
    ANY_SOURCE, ANY_TAG, TAG_INTERNAL_BASE,
};
pub use universe::{run_funneled, Universe};
