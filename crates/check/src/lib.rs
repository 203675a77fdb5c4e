//! `check` — the in-tree concurrency model checker for the offload stack.
//!
//! The lock-free core of this repository (MPMC command queue, SPSC lanes,
//! request pool, spin→yield→park waiting) is exactly the kind of code where
//! a bug is a one-in-a-million interleaving. This crate makes those
//! interleavings a test target:
//!
//! * **The facade** ([`sync`], [`cell`], [`thread`], [`hint`]) mirrors the
//!   std API. A normal build compiles it away — re-exports and transparent
//!   wrappers, zero cost. Under `RUSTFLAGS="--cfg offload_model"` every
//!   operation routes through an instrumented runtime.
//! * **The scheduler** runs the model threads cooperatively — exactly one
//!   at a time, switching only at facade operations — and *explores*
//!   interleavings: bounded-preemption DFS with a stale-path pruner
//!   ([`Strategy::Dfs`]), or a seeded random walk ([`Strategy::Random`]).
//!   Any failing schedule is replayable from a printed string
//!   ([`Strategy::Replay`]).
//! * **The detector** tracks FastTrack-style vector clocks ([`clock`])
//!   across the release/acquire edges implied by the facade's ordering
//!   arguments, and flags unsynchronized conflicting data accesses, lost
//!   wakeups (deadlock with no timeout armed), and livelocks.
//!
//! What the model does and does not prove is written up in DESIGN.md §11.
//! In one line: it checks *all modelled interleavings under sequentially
//! consistent semantics of the declared orderings* — weak-memory
//! reorderings beyond the release/acquire clock edges are out of scope
//! (Miri remains the weak-memory lane).
//!
//! # Usage
//!
//! ```ignore
//! check::model(|| {
//!     let q = Arc::new(MpmcQueue::new(2));
//!     let t = check::thread::spawn({ let q = q.clone(); move || q.pop() });
//!     q.push(1).unwrap();
//!     t.join().unwrap();
//! });
//! ```
//!
//! Run with `RUSTFLAGS="--cfg offload_model" cargo test -p check`. On a
//! plain build `model` runs the closure once on real primitives, so the
//! same test doubles as a smoke test.
//!
//! # Environment knobs (model build)
//!
//! * `OFFLOAD_MODEL_SEED` — base seed for [`model_random`] walks.
//! * `OFFLOAD_MODEL_ITERS` — iteration count for [`model_random`] walks.
//! * `OFFLOAD_MODEL_SCHEDULE` — replay exactly one schedule string (use
//!   together with a single-test filter).
//! * `OFFLOAD_MODEL_MAX_OPS` — per-execution schedule-point budget.
//! * `OFFLOAD_MODEL_STACKS=0` — disable stack capture in race reports.

pub mod cell;
pub mod clock;
#[cfg(feature = "proto")]
pub mod proto;
pub mod sync;
pub mod thread;

#[cfg(offload_model)]
mod rt;

pub mod hint {
    //! Facade over `std::hint` — in model builds a spin hint is a
    //! voluntary schedule point, which is what lets the scheduler move a
    //! spinner out of the way (or prove it livelocks).

    #[cfg(not(offload_model))]
    pub use std::hint::spin_loop;

    #[cfg(offload_model)]
    pub fn spin_loop() {
        if let Some((exec, tid)) = crate::rt::exec::ctx() {
            drop(exec.schedule_point(tid, || "hint::spin_loop".into(), true));
        } else {
            std::hint::spin_loop();
        }
    }

    /// `n` spin-loop pauses between two looks at a condition. Natively a
    /// delay of `n` pauses; in model builds one schedule point — the
    /// explorer schedules looks, and a longer gap is not another look.
    pub fn spin_pauses(n: u32) {
        #[cfg(not(offload_model))]
        for _ in 0..n {
            spin_loop();
        }
        #[cfg(offload_model)]
        {
            let _ = n;
            spin_loop();
        }
    }
}

/// Fixed default seed for random-walk exploration — chosen so CI runs are
/// reproducible by default; override with `OFFLOAD_MODEL_SEED`.
pub const DEFAULT_SEED: u64 = 0x5EED_2015;

/// What went wrong in a failing execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Unsynchronized conflicting accesses to a facade cell.
    DataRace,
    /// No thread can run and no timeout backstop is armed — includes lost
    /// wakeups once the backstop is disabled.
    Deadlock,
    /// A model thread panicked (assertion failure inside the test body).
    Panic,
    /// The execution exceeded its schedule-point budget (livelock that the
    /// cycle pruner could not collapse, or a genuinely huge test).
    OpBudget,
}

/// A failing execution, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    pub details: String,
    /// Dot-separated choice indices — feed back via
    /// `OFFLOAD_MODEL_SCHEDULE` or [`Strategy::Replay`].
    pub schedule: String,
    /// Set when a random walk found this failure: the exact run seed.
    pub seed: Option<u64>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model checker found a failure: {:?}", self.kind)?;
        writeln!(f, "{}", self.details.trim_end())?;
        writeln!(f, "failing schedule: {}", self.schedule)?;
        if let Some(seed) = self.seed {
            writeln!(f, "found by random walk, seed: {seed}")?;
            writeln!(
                f,
                "replay: OFFLOAD_MODEL_SEED={seed} OFFLOAD_MODEL_ITERS=1 (or \
                 OFFLOAD_MODEL_SCHEDULE=\"{}\") with RUSTFLAGS=\"--cfg offload_model\"",
                self.schedule
            )?;
        } else {
            writeln!(
                f,
                "replay: OFFLOAD_MODEL_SCHEDULE=\"{}\" with RUSTFLAGS=\"--cfg offload_model\" \
                 and a filter selecting this test",
                self.schedule
            )?;
        }
        Ok(())
    }
}

/// How to explore the schedule space.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Exhaustive bounded-preemption DFS with cross-run stale-path pruning.
    Dfs,
    /// Seeded random walk: `iters` executions, run `i` seeded with
    /// `seed.wrapping_add(i)` so a failure names its exact seed.
    Random { seed: u64, iters: u64 },
    /// Replay exactly one schedule (parsed from a printed failure).
    Replay(Vec<usize>),
}

/// Exploration configuration. `Default` is DFS with bounds sized so the
/// in-tree model suite completes in seconds.
#[derive(Debug, Clone)]
pub struct Config {
    pub strategy: Strategy,
    /// CHESS-style preemption bound: max non-voluntary context switches
    /// per execution. Most concurrency bugs need very few preemptions.
    pub preemption_bound: u32,
    /// Per-execution schedule-point budget (livelock backstop).
    pub max_ops: u64,
    /// DFS: stop after this many executions even if not exhausted.
    pub max_schedules: u64,
    pub max_threads: usize,
    /// In-run cycle pruner: abandon a branch after the same shared-memory
    /// state recurs this many times (an unfair schedule spinning in place).
    pub cycle_limit: u32,
    /// Capture backtraces for race reports (slow; on by default).
    pub capture_stacks: bool,
    /// Cross-run stale-path pruning for DFS (on by default).
    pub prune: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            strategy: Strategy::Dfs,
            preemption_bound: 2,
            max_ops: 20_000,
            max_schedules: 20_000,
            max_threads: 8,
            cycle_limit: 256,
            capture_stacks: true,
            prune: true,
        }
    }
}

impl Config {
    pub fn dfs() -> Self {
        Self::default()
    }

    pub fn random(seed: u64, iters: u64) -> Self {
        Self {
            strategy: Strategy::Random { seed, iters },
            ..Self::default()
        }
    }

    /// Parse a printed schedule string ("3.0.1.2") into a replay config.
    pub fn replay(schedule: &str) -> Self {
        let choices = schedule
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("schedule strings are dot-separated indices")
            })
            .collect();
        Self {
            strategy: Strategy::Replay(choices),
            ..Self::default()
        }
    }

    /// Apply the `OFFLOAD_MODEL_*` environment knobs (replay override,
    /// op budget, stack capture).
    pub fn apply_env(&mut self) {
        if let Ok(s) = std::env::var("OFFLOAD_MODEL_SCHEDULE") {
            if !s.is_empty() {
                self.strategy = Config::replay(&s).strategy;
            }
        }
        if let Some(v) = env_u64("OFFLOAD_MODEL_MAX_OPS") {
            self.max_ops = v;
        }
        if std::env::var("OFFLOAD_MODEL_STACKS").as_deref() == Ok("0") {
            self.capture_stacks = false;
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Exploration summary for a passing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Executions performed.
    pub schedules: u64,
    /// Executions abandoned by the pruners (cycle or stale-path).
    pub pruned: u64,
    /// DFS only: the bounded schedule space was fully enumerated.
    pub exhausted: bool,
}

/// Explore `f` under `cfg`. In a plain (non-model) build this runs `f`
/// once on the real primitives and reports one schedule.
pub fn explore(cfg: Config, f: impl Fn() + Send + Sync + 'static) -> Result<Stats, Failure> {
    #[cfg(offload_model)]
    {
        rt::explore::explore_impl(&cfg, std::sync::Arc::new(f))
    }
    #[cfg(not(offload_model))]
    {
        let _ = &cfg;
        f();
        Ok(Stats {
            schedules: 1,
            pruned: 0,
            exhausted: false,
        })
    }
}

/// Explore `f` with a custom config, panicking (with the replayable
/// schedule) on failure. Honors the environment knobs.
pub fn model_with(mut cfg: Config, f: impl Fn() + Send + Sync + 'static) -> Stats {
    cfg.apply_env();
    match explore(cfg, f) {
        Ok(stats) => stats,
        Err(failure) => panic!("{failure}"),
    }
}

/// Exhaustively model-check `f` (bounded-preemption DFS) with default
/// bounds. This is the entry point most model tests use.
pub fn model(f: impl Fn() + Send + Sync + 'static) -> Stats {
    model_with(Config::default(), f)
}

/// Random-walk model-check `f` for `iters` seeded executions (overridable
/// via `OFFLOAD_MODEL_ITERS` / `OFFLOAD_MODEL_SEED`). For state spaces too
/// big for DFS.
pub fn model_random(iters: u64, f: impl Fn() + Send + Sync + 'static) -> Stats {
    let seed = env_u64("OFFLOAD_MODEL_SEED").unwrap_or(DEFAULT_SEED);
    let iters = env_u64("OFFLOAD_MODEL_ITERS").unwrap_or(iters);
    model_with(Config::random(seed, iters), f)
}
