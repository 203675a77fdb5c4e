//! `obs` — the observability subsystem of the offload stack.
//!
//! The paper's argument rests on internals that end-to-end timings cannot
//! see: progress-engine polls, rendezvous handshakes, command-queue and
//! request-pool occupancy, THREAD_MULTIPLE lock queueing. This crate turns
//! those into directly measurable, assertable signals. Two pillars:
//!
//! * **Metrics** ([`metrics`]): lock-free [`Counter`]s, [`Gauge`]s with
//!   high-water marks, and log2-bucketed [`Histogram`]s, grouped in a
//!   per-rank [`Registry`]. [`Registry::snapshot`] is cheap and
//!   [`Snapshot::diff`] gives per-phase deltas, so tests can assert e.g.
//!   "baseline performed zero progress polls during compute".
//!
//! * **Tracing** ([`trace`]): a per-thread/per-task ring-buffer flight
//!   recorder of span and instant events with a **dual clock** — wall-clock
//!   `Instant` in live mode (real OS threads), virtual `destime::Nanos` in
//!   DES mode — exported as Chrome trace-event JSON ([`chrome`]) loadable
//!   in Perfetto or `chrome://tracing`.
//!
//! Cost discipline: a recording site is a couple of `Relaxed` atomic RMWs
//! when the `enabled` feature (default) is on, and compiles out entirely
//! when it is off — every type here becomes a zero-sized no-op, which is
//! how `queue_micro` keeps its calibration numbers honest. Build the
//! no-op flavour with `--no-default-features` on the crates under test.
//!
//! No external dependencies: [`json`] is the workspace's one JSON writer
//! and parser (no serde), and the Chrome trace is emitted through it and
//! validated by [`chrome::validate_chrome_trace`].

pub mod blackbox;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod trace;

pub use blackbox::{BbEvent, BlackBox, BlackBoxDump};
pub use metrics::{Counter, Gauge, GaugeReading, Histogram, HistogramReading, Registry, Snapshot};
pub use trace::{Clock, Recorder, SpanGuard, Track};
