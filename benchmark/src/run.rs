//! One workload, one process: cold set-ups, the sliced measuring
//! window with a speed-probe reading between slices, the per-layer deltas
//! of the traced run, and the report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rtmpi::Transport;

use crate::alloc;
use crate::metrics::Values;
use crate::probes;
use crate::procfs::{self, SchedStat};
use crate::round::ns32;
use crate::round::{run_round, Meter, TEST_BATCH};
use crate::shapes::{Shape, Tally};
use crate::speed::{self, Reading, SpeedProbe};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, BuildTimes, Cpus, Kind, Rig, Spec};

/// Verified rounds that end every cold set-up: the world is not "up"
/// until traffic has flowed both ways on every active link.
const FIRST_ROUNDS: u64 = 32;

/// Cold set-ups per run, at least. A set-up takes 1–25 ms, so fifteen of
/// them are a small sample of a noisy quantity: the run keeps setting up
/// until [`SETUP_SECONDS`] have gone into it (or [`SETUPS_MAX`] worlds).
const SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 1.0;
const SETUPS_MAX: usize = 100;
/// Set-ups of a smoke run.
const SMOKE_SETUPS: usize = 2;

/// A slice in which the generator waited for its CPU this long, as a share
/// of the slice, was disturbed by another process of this machine.
const RUNQ_DISTURBED: f64 = 0.02;

/// A round this long was descheduled from outside: the longest wait the
/// program itself ever makes is the offload thread's 1 ms park backstop,
/// and the longest round of any workload is under a millisecond. (On an
/// overcommitted host a halted virtual CPU can take 12–15 ms to come back
/// for a wake-up, and no steal time is booked for it.)
const STALLED_ROUND: Duration = Duration::from_millis(5);

/// Rounds after each probe reading that are run but not counted: the
/// offload thread went idle, and perhaps to sleep, while the probe ran,
/// and the first round wakes it. (That wake is the probe's doing, not the
/// workload's; `overlap_halo_uds` pays its own every round regardless.)
const WAKE_ROUNDS: u64 = 1;

/// Fewest slices a selection must leave for its medians to mean anything;
/// below that the next weaker rule is used (and the run says so). Low on
/// purpose: a dozen slices at full speed are a noisy sample of the right
/// machine, every slice of a busy hour a steady one of a machine 10–40 %
/// slower.
const MIN_KEPT_SLICES: usize = 12;
/// Fewest set-ups at full speed; below that every set-up counts.
const MIN_KEPT_SETUPS: usize = 5;

/// Rounds per traced slice whose spans are kept for the trace file.
const SPAN_ROUNDS_PER_SLICE: usize = 2;
const SPAN_CAPACITY: usize = 400_000;

pub struct Opts {
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub out: Option<PathBuf>,
    /// A smoke run: two set-ups and short probes. Its numbers are not the
    /// benchmark's.
    pub smoke: bool,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable diagnosis lines (stderr).
    pub notes: Vec<String>,
}

/// Measure `spec` in this process. `Err` says why the run may not start:
/// two busy threads need two CPUs.
pub fn run(spec: &Spec, opts: &Opts) -> Result<Report, String> {
    let allowed = procfs::allowed_cpus();
    if allowed.len() < 2 {
        return Err(format!(
            "the workload keeps 2 threads busy (generator + offload-0) but this process may run \
             on {} CPU(s); time-slicing them is what this benchmark exists to avoid",
            allowed.len()
        ));
    }
    let cpus = Cpus {
        generator: allowed[0],
        offload: allowed[1],
    };
    let nproc = allowed.len();
    cpus.pin_generator();
    alloc::this_thread_is_generator();
    let seed = opts.seed;
    Ok(match spec.kind {
        Kind::Exchange { .. } => measure(spec, opts, cpus, nproc, || {
            workloads::exchange_rig(spec.kind, seed, cpus)
        }),
        Kind::IssueWindow => measure(spec, opts, cpus, nproc, || workloads::issue_rig(seed, cpus)),
        Kind::CollMix => measure(spec, opts, cpus, nproc, || workloads::coll_rig(seed, cpus)),
    })
}

/// What one slice measured. Thousands are kept per run, so the fields are
/// as narrow as their values allow.
#[derive(Default)]
struct Slice {
    /// Started after the warm-up.
    warm: bool,
    traced: bool,
    rounds: u32,
    wall_ns: u32,
    round_p50_ns: f32,
    round_max_ns: u32,
    post_p50_ns: f32,
    compute_p50_ns: f32,
    wait_p50_ns: f32,
    exposed_p50_ns: f32,
    test_p50_ns: f32,
    ops_per_round: f32,
    pump_ns: u32,
    polls: u32,
    offload_cpu_ns: u32,
    gen_runq_ns: u32,
}

impl Slice {
    /// Did another process of this machine visibly take the generator's
    /// CPU in this slice, or something hold a round up for longer than
    /// anything in the program waits? The first signal comes from the
    /// kernel's accounting, not from how fast the rounds went, and the
    /// second sits far above the program's own longest wait: a program
    /// that stalls on its own for up to [`STALLED_ROUND`] is not excused.
    /// (What the host takes shows in the speed readings; its steal-time
    /// counter moves in 10 ms ticks, five slices, and says nothing about
    /// any one of them.)
    fn disturbed(&self) -> bool {
        f64::from(self.gen_runq_ns) > RUNQ_DISTURBED * f64::from(self.wall_ns)
            || u128::from(self.round_max_ns) > STALLED_ROUND.as_nanos()
    }
}

/// Kernel-side readings of the offload thread the traced run diffs over
/// the kept window.
#[derive(Clone, Copy, Default)]
struct ThreadReadings {
    status: procfs::Status,
    sched: SchedStat,
    utime: u64,
    stime: u64,
}

fn thread_readings(tid: u32) -> ThreadReadings {
    let (utime, stime) = procfs::task_times(tid);
    ThreadReadings {
        status: procfs::task_status(tid),
        sched: procfs::schedstat(tid),
        utime,
        stime,
    }
}

/// Threads that can be busy while a round is in flight: every thread of
/// the process but the speed probe's helper, which is awake only between
/// rounds.
fn busy_threads() -> usize {
    procfs::threads()
        .iter()
        .filter(|(_, comm)| comm != speed::THREAD_NAME)
        .count()
}

fn measure<S: Shape, T: Transport>(
    spec: &Spec,
    opts: &Opts,
    cpus: Cpus,
    nproc: usize,
    build: impl Fn() -> (Rig<S, T>, BuildTimes),
) -> Report {
    let mut notes = Vec::new();
    let mut totals = Tally::default();
    let mut hung = false;
    let gen_tid = procfs::own_tid();
    let mut probe = SpeedProbe::spawn(cpus);

    // --- Cold set-ups -----------------------------------------------------
    // Each: build the world, spawn and pin the offload thread, generate the
    // payloads, run FIRST_ROUNDS verified rounds, tear everything down. The
    // last world is kept for the window; its teardown is timed at the end.
    // A probe reading is taken before each and after the last.
    let (mut world_s, mut payload_s, mut first_s, mut teardown_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut setup_readings: Vec<Reading> = Vec::new();
    let mut scratch = Meter::new(FIRST_ROUNDS as usize);
    let mut kept = None;
    let mut threads_peak = 0usize;
    let setting_up = Instant::now();
    loop {
        setup_readings.push(probe.read());
        let (mut rig, bt) = build();
        let t = Instant::now();
        for round in 0..FIRST_ROUNDS {
            if run_round(&mut rig.shape, round, &mut scratch).is_err() {
                hung = true;
                break;
            }
        }
        scratch.reset();
        first_s.push(t.elapsed().as_secs_f64());
        world_s.push(bt.world_s);
        payload_s.push(bt.payload_s);
        threads_peak = threads_peak.max(busy_threads());
        hung = hung || !rig.shape.settle();
        if hung {
            // Tearing down around a wedged operation could hang too.
            absorb(&mut totals, rig.shape.tally());
            std::mem::forget(rig);
            break;
        }
        let n = first_s.len();
        let enough = if opts.smoke {
            n >= SMOKE_SETUPS
        } else {
            n >= SETUPS_MAX || (n >= SETUPS && setting_up.elapsed().as_secs_f64() >= SETUP_SECONDS)
        };
        if enough {
            kept = Some(rig);
            break;
        }
        absorb(&mut totals, rig.shape.tally());
        let t = Instant::now();
        rig.teardown();
        teardown_s.push(t.elapsed().as_secs_f64());
    }

    // --- The window -------------------------------------------------------
    let mut slices: Vec<Slice> = Vec::new();
    // Per-round samples (round, posting phase, wait) of the traced slices,
    // by slice index: a slice is too short to have a tail of its own, so
    // the traced run's `.p99`s are taken over the kept slices pooled.
    let mut samples: Vec<(usize, [Vec<u32>; 3])> = Vec::new();
    // `readings[i]` was taken before slice `i`; one more follows the last.
    let mut readings: Vec<Reading> = vec![probe.read()];
    setup_readings.push(readings[0]);
    let mut values = Values::default();
    let mut obs_delta = None;
    let mut obs_end = (obs::Snapshot::default(), obs::Snapshot::default());
    let mut readings_delta = None;
    let mut allocs_delta = alloc::Counts::default();
    let mut tracer_out = None;
    let mut pinned = false;
    // Every round since the counters were first read, counted or not.
    let mut rounds_since_before = 0u64;
    let mut counted_wall = 0.0;
    if let Some(mut rig) = kept {
        pinned = rig.pinned && probe.pinned;
        let window = Duration::from_secs_f64(opts.seconds);
        let warmup = window.mul_f64(stats::WARMUP_SHARE);
        let expected = (opts.seconds / stats::SLICE.as_secs_f64()) as usize + 1;
        slices.reserve(expected);
        readings.reserve(expected);
        // Room for 100 000 rounds a second, 2.5 times the fastest
        // workload today; beyond that the buffers grow.
        let mut meter = Meter::new((stats::SLICE.as_secs_f64() * 100_000.0) as usize + 1024);
        if opts.trace {
            meter.tracer = Some(Tracer::new(SPAN_CAPACITY));
        }
        let mut round = FIRST_ROUNDS;
        // Readings at the start of the kept window (traced runs).
        let mut before = None;
        let mut before_at = Instant::now();
        let mut gen_runq = procfs::schedstat(gen_tid).runq_wait_ns;
        let t_window = Instant::now();
        'window: loop {
            let offset = t_window.elapsed();
            if offset >= window {
                break;
            }
            let warm = offset >= warmup;
            // Traced runs alternate traced and plain slices, so the
            // tracing overhead is a ratio taken inside one run.
            let traced = opts.trace && warm && slices.len() % 2 == 1;
            if opts.trace && warm && before.is_none() {
                before_at = Instant::now();
                before = Some((
                    snapshots(&rig),
                    thread_readings(rig.offload_tid),
                    alloc::counts(),
                ));
            }
            for _ in 0..WAKE_ROUNDS {
                if run_round(&mut rig.shape, round, &mut scratch).is_err() {
                    hung = true;
                    break 'window;
                }
                round += 1;
            }
            scratch.reset();
            meter.reset();
            meter.timed_pumps = traced;
            meter.span_rounds_left = if traced { SPAN_ROUNDS_PER_SLICE } else { 0 };
            let cpu0 = procfs::thread_cpu_ns(rig.offload_tid);
            alloc::arm(opts.trace);
            let start = Instant::now();
            let deadline = start + stats::SLICE;
            let mut rounds = 0u64;
            let end = loop {
                match run_round(&mut rig.shape, round, &mut meter) {
                    Ok(end) => {
                        round += 1;
                        rounds += 1;
                        if end >= deadline && rounds >= stats::SLICE_MIN_ROUNDS {
                            break end;
                        }
                    }
                    Err(_) => {
                        alloc::arm(false);
                        hung = true;
                        break 'window;
                    }
                }
            };
            alloc::arm(false);
            let cpu1 = procfs::thread_cpu_ns(rig.offload_tid);
            let gen_runq_now = procfs::schedstat(gen_tid).runq_wait_ns;
            if before.is_some() {
                rounds_since_before += WAKE_ROUNDS + rounds;
            }
            // Exposed communication: the part of the round compute does
            // not cover, per round (before sorting reorders the samples).
            let mut exposed: Vec<u32> = if opts.trace {
                meter
                    .round_ns
                    .iter()
                    .zip(&meter.compute_ns)
                    .map(|(r, c)| r.saturating_sub(*c))
                    .collect()
            } else {
                Vec::new()
            };
            if traced {
                samples.push((
                    slices.len(),
                    [
                        meter.round_ns.clone(),
                        meter.post_ns.clone(),
                        meter.wait_ns.clone(),
                    ],
                ));
            }
            let q = |samples: &mut Vec<u32>, q: f64| stats::quantile(samples, q) as f32;
            slices.push(Slice {
                warm,
                traced,
                rounds: rounds as u32,
                wall_ns: ns32(end - start),
                round_max_ns: meter.round_ns.iter().copied().max().unwrap_or(0),
                round_p50_ns: q(&mut meter.round_ns, 0.5),
                post_p50_ns: q(&mut meter.post_ns, 0.5),
                compute_p50_ns: q(&mut meter.compute_ns, 0.5),
                wait_p50_ns: q(&mut meter.wait_ns, 0.5),
                exposed_p50_ns: q(&mut exposed, 0.5),
                test_p50_ns: q(&mut meter.test_batch_ns, 0.5) / TEST_BATCH as f32,
                ops_per_round: meter.ops_posted as f32 / rounds as f32,
                pump_ns: u32::try_from(meter.pump_ns).unwrap_or(u32::MAX),
                polls: u32::try_from(meter.polls).unwrap_or(u32::MAX),
                offload_cpu_ns: u32::try_from(cpu1.saturating_sub(cpu0)).unwrap_or(u32::MAX),
                gen_runq_ns: u32::try_from(gen_runq_now.saturating_sub(gen_runq))
                    .unwrap_or(u32::MAX),
            });
            gen_runq = gen_runq_now;
            readings.push(probe.read());
        }
        threads_peak = threads_peak.max(busy_threads());
        hung = hung || !rig.shape.settle();
        // Absolute totals since the world was built, and what the kept
        // window added to them.
        let (o_end, w_end) = snapshots(&rig);
        if let Some(((o0, w0), readings0, allocs0)) = &before {
            obs_delta = Some((o_end.diff(o0), w_end.diff(w0)));
            readings_delta = Some((*readings0, thread_readings(rig.offload_tid)));
            counted_wall = before_at.elapsed().as_secs_f64();
            // The allocator is armed only inside slices, so this is what
            // the warm slices allocated and nothing in between.
            allocs_delta = alloc::counts().since(allocs0);
        }
        obs_end = (o_end, w_end);
        absorb(&mut totals, rig.shape.tally());
        tracer_out = meter.tracer.take();
        if hung {
            std::mem::forget(rig);
        } else {
            let t = Instant::now();
            rig.teardown();
            teardown_s.push(t.elapsed().as_secs_f64());
        }
    }
    drop(probe);
    if hung {
        totals.attempted += 1;
        totals.failed += 1;
        totals
            .first_error
            .get_or_insert_with(|| format!("a round exceeded {:?}", crate::round::ROUND_DEADLINE));
    }

    // --- Which slices and set-ups count (see `stats`) ----------------------
    let floor = stats::speed_floor(
        &readings
            .iter()
            .chain(&setup_readings)
            .flat_map(|r| [r.generator_ns, r.offload_ns])
            .collect::<Vec<u32>>(),
    );
    let full = |rs: &[Reading]| -> Vec<bool> {
        rs.iter()
            .map(|r| stats::at_full_speed(r.worst_ns(), floor))
            .collect()
    };
    let full_speed = full(&readings);
    let full_frac = full_speed.iter().filter(|&&f| f).count() as f64 / full_speed.len() as f64;
    // Strongest rule first; a host so busy that a rule leaves too few
    // slices gets the next one, down to every undisturbed slice, and a
    // window robbed almost everywhere has nothing better to offer than
    // all of itself.
    let warm: Vec<&Slice> = slices.iter().filter(|s| s.warm).collect();
    let select = |calm: &[bool]| -> Vec<usize> {
        (0..slices.len())
            .filter(|&i| slices[i].warm && calm[i] && !slices[i].disturbed())
            .collect()
    };
    let (gate, kept_at): (u8, Vec<usize>) = [
        (2, stats::calm_slices(&full_speed, stats::CALM_NEIGHBOURS)),
        (1, stats::calm_slices(&full_speed, 0)),
        (0, vec![true; slices.len()]),
    ]
    .into_iter()
    .map(|(gate, calm)| (gate, select(&calm)))
    .find(|(gate, kept)| match gate {
        0 => kept.len() * 10 >= warm.len(),
        _ => kept.len() >= MIN_KEPT_SLICES,
    })
    .unwrap_or_else(|| (0, (0..slices.len()).filter(|&i| slices[i].warm).collect()));
    let kept: Vec<&Slice> = kept_at.iter().map(|&i| &slices[i]).collect();
    let kept_frac = kept.len() as f64 / warm.len().max(1) as f64;
    let per_slice = |f: &dyn Fn(&Slice) -> f64, which: Option<bool>| -> Vec<f64> {
        kept.iter()
            .filter(|s| which.is_none_or(|t| s.traced == t))
            .map(|s| f(s))
            .collect()
    };
    // Timings: the median over the kept slices of the per-slice statistic.
    let med = |f: &dyn Fn(&Slice) -> f64, which: Option<bool>| stats::median(&per_slice(f, which));
    let ops = kept
        .first()
        .map_or(1.0, |s| f64::from(s.ops_per_round).max(1.0));
    let kept_wall: f64 = kept.iter().map(|s| f64::from(s.wall_ns) / 1e9).sum();
    let kept_rounds: u64 = kept.iter().map(|s| u64::from(s.rounds)).sum();

    // --- End-to-end metrics -------------------------------------------------
    // A set-up counts when the readings before and after it were taken at
    // full speed (too few of those: every set-up counts).
    let setup_total: Vec<f64> = (0..teardown_s.len().min(first_s.len()))
        .map(|i| world_s[i] + payload_s[i] + first_s[i] + teardown_s[i])
        .collect();
    let setup_calm = stats::calm_slices(&full(&setup_readings), 0);
    let mut setup_kept: Vec<f64> = setup_total
        .iter()
        .zip(&setup_calm)
        .filter(|(_, &calm)| calm)
        .map(|(t, _)| *t)
        .collect();
    if setup_kept.len() < MIN_KEPT_SETUPS.min(setup_total.len()) {
        setup_kept = setup_total.clone();
    }
    values.set("setup_s", stats::median(&setup_kept));
    values.set(
        "round_us.p50",
        med(&|s| f64::from(s.round_p50_ns) / 1e3, None),
    );
    // Rates are totals over the kept slices, not a statistic of slices: a
    // stall or a backstop park inside a kept slice costs its full length.
    values.set("rounds_per_s", kept_rounds as f64 / kept_wall.max(1e-9));
    values.set(
        "post_ns.p50",
        med(&|s| f64::from(s.post_p50_ns) / ops, None),
    );
    values.set(
        "offload_cpu_us_per_round",
        kept.iter()
            .map(|s| u64::from(s.offload_cpu_ns))
            .sum::<u64>() as f64
            / 1e3
            / kept_rounds.max(1) as f64,
    );

    let gen_runq = kept.iter().map(|s| u64::from(s.gen_runq_ns)).sum::<u64>() as f64
        / 1e9
        / kept_wall.max(1e-9);
    // How far the slices of this run disagree: interquartile range of
    // their median round over its median. Traced and plain slices differ
    // by the tracing overhead, so each is taken against its own kind.
    let mut norm: Vec<f64> = [false, true]
        .iter()
        .flat_map(|&k| {
            let m = med(&|s| f64::from(s.round_p50_ns), Some(k));
            per_slice(&|s| f64::from(s.round_p50_ns), Some(k))
                .into_iter()
                .map(move |v| if m > 0.0 { v / m } else { 1.0 })
        })
        .collect();
    norm.sort_by(f64::total_cmp);
    let spread = match norm.len() {
        0 => 0.0,
        n => norm[n * 3 / 4] - norm[n / 4],
    };
    let warm_plain_p50s: Vec<f64> = warm
        .iter()
        .filter(|s| !s.traced)
        .map(|s| f64::from(s.round_p50_ns) / 1e3)
        .collect();
    let undisturbed_frac =
        warm.iter().filter(|s| !s.disturbed()).count() as f64 / warm.len().max(1) as f64;
    notes.push(format!(
        "{}: {} set-ups, {} at full speed; {} slices after warm-up, {:.0} % undisturbed, {:.0} % of the \
         probe readings at full speed (floor {:.2} us), {} slices kept by rule {} ({} rounds); \
         round_us.p50 of the kept {:.2}, of all {:.2}, iqr/median of the kept {:.4}; run-queue wait gen \
         {:.4}; threads {} (nproc {}), pinned {}",
        spec.name,
        first_s.len(),
        setup_calm.iter().filter(|&&c| c).count(),
        warm.len(),
        undisturbed_frac * 100.0,
        full_frac * 100.0,
        floor / 1e3,
        kept.len(),
        gate,
        kept_rounds,
        med(&|s| f64::from(s.round_p50_ns) / 1e3, Some(false)),
        stats::median(&warm_plain_p50s),
        spread,
        gen_runq,
        threads_peak,
        nproc,
        pinned
    ));
    if gate < 2 {
        notes.push(format!(
            "busy host: too few slices ran with both CPUs at full speed on all sides{}",
            if gate == 0 {
                "; every undisturbed slice counts, and the numbers are those of a slower machine"
            } else {
                "; their own two readings decide"
            }
        ));
    }
    if undisturbed_frac < 0.5 {
        notes.push(format!(
            "disturbed: another process took the generator's CPU, or a round stalled, in {:.0} % of the slices",
            (1.0 - undisturbed_frac) * 100.0
        ));
    }
    let (o_end, w_end) = obs_end;
    if w_end.counter("wire.protocol_errors") > 0 {
        totals.mismatches += 1;
        notes.push("the engine counted protocol errors".into());
    }
    if let Kind::Exchange { shm: true, .. } = spec.kind {
        // The workload exists to measure the ring; a silent fall back to
        // the socket would measure `bulk_rndv_uds` twice.
        let (fallback, frames) = (
            w_end.counter("wire.shm_fallback"),
            w_end.counter("wire.shm_frames"),
        );
        if !hung && (fallback > 0 || frames == 0) {
            totals.mismatches += 1;
            notes.push(format!(
                "the shm workload did not use the ring: shm_fallback {fallback}, shm_frames {frames}"
            ));
        }
    }
    if let Some(e) = &totals.first_error {
        notes.push(format!("first failure: {e}"));
    }

    // --- Per-layer metrics (traced run only) -----------------------------
    let mut probes_ok = true;
    if opts.trace {
        let t = Some(true);
        // Counters are read at the two ends of the window after warm-up,
        // so they cover every round of it, in a kept slice or not.
        let per_round = |v: f64| v / rounds_since_before.max(1) as f64;
        // The allocator counts inside slices only.
        let slice_rounds: u64 = warm.iter().map(|s| u64::from(s.rounds)).sum();
        let per_slice_round = |v: f64| v / slice_rounds.max(1) as f64;
        let us = |ns: f32| f64::from(ns) / 1e3;
        values.set(
            "app.post_ns.p50",
            med(&|s| f64::from(s.post_p50_ns) / ops, t),
        );
        // Tails: over the rounds of the kept traced slices, pooled.
        let mut pooled: [Vec<u32>; 3] = Default::default();
        for (at, of_slice) in &samples {
            if kept_at.binary_search(at).is_ok() {
                for (all, these) in pooled.iter_mut().zip(of_slice) {
                    all.extend_from_slice(these);
                }
            }
        }
        let [round_tail, post_tail, wait_tail] = pooled.map(|mut v| {
            let q = stats::tail_q(v.len());
            stats::quantile(&mut v, q)
        });
        values.set("app.post_ns.p99", post_tail / ops);
        values.set("app.test_ns.p50", med(&|s| f64::from(s.test_p50_ns), t));
        values.set("app.wait_us.p50", med(&|s| us(s.wait_p50_ns), t));
        values.set("app.wait_us.p99", wait_tail / 1e3);
        values.set("app.compute_us.p50", med(&|s| us(s.compute_p50_ns), t));
        values.set("app.exposed_us.p50", med(&|s| us(s.exposed_p50_ns), t));
        values.set("app.round_us.p99", round_tail / 1e3);
        values.set(
            "app.rounds",
            per_slice(&|s| f64::from(s.rounds), t).iter().sum(),
        );
        values.set(
            "fail_ratio",
            totals.failed as f64 / totals.attempted.max(1) as f64,
        );
        values.set(
            "peer.pump_us_per_round",
            med(&|s| f64::from(s.pump_ns) / 1e3 / f64::from(s.rounds), t),
        );
        values.set(
            "peer.progress_calls_per_round",
            med(&|s| f64::from(s.polls) / f64::from(s.rounds), None),
        );

        let (o, w) = obs_delta.unwrap_or_default();
        let oc = |name: &str| per_round(o.counter(name) as f64);
        let wc = |name: &str| per_round(w.counter(name) as f64);
        values.set(
            "offload.service_iters_per_round",
            oc("offload.service_iters"),
        );
        values.set(
            "offload.progress_polls_per_round",
            oc("offload.progress_polls"),
        );
        values.set(
            "offload.testany_sweeps_per_round",
            oc("offload.testany_sweeps"),
        );
        values.set("offload.idle_yields_per_round", oc("offload.idle_yields"));
        values.set("offload.parks_per_round", oc("offload.parks"));
        values.set("offload.wakes_per_round", oc("offload.wakes"));
        values.set(
            "offload.drained_per_wakeup.p50",
            o.histogram("offload.drained_per_wakeup").p50() as f64,
        );
        values.set(
            "offload.no_advance_streak.hwm",
            o_end.gauge("offload.no_advance_streak").high_water as f64,
        );
        values.set("lanes.push_full_per_round", oc("lanes.push_full"));
        values.set("lanes.overflow_push_per_round", oc("lanes.overflow_push"));
        values.set(
            "pool.occupancy.hwm",
            o_end.gauge("pool.occupancy").high_water as f64,
        );
        values.set("wire.progress_polls_per_round", wc("wire.progress_polls"));
        values.set("wire.rndv_tx_per_round", wc("wire.rndv_tx"));
        values.set(
            "wire.rndv_handshake_async_per_round",
            wc("wire.rndv_handshake_async"),
        );
        values.set(
            "wire.rndv_handshake_at_wait_per_round",
            wc("wire.rndv_handshake_at_wait"),
        );
        values.set("wire.coll_tx_per_round", wc("wire.coll_tx"));
        values.set("wire.eager_alloc_per_round", wc("wire.eager_alloc"));
        values.set(
            "wire.protocol_errors",
            w_end.counter("wire.protocol_errors") as f64,
        );
        values.set("wire.writev_frames_per_round", wc("wire.writev_frames"));
        values.set("wire.regpool.leases_per_round", wc("wire.regpool.leases"));
        values.set(
            "wire.regpool.heap_alloc_per_round",
            wc("wire.regpool.heap_alloc"),
        );
        values.set("wire.shm_frames_per_round", wc("wire.shm_frames"));
        values.set("wire.shm_doorbell_per_round", wc("wire.shm_doorbell"));
        let (r0, r1) = readings_delta.unwrap_or_default();
        let vol = r1.status.vol_ctxsw.saturating_sub(r0.status.vol_ctxsw);
        let nonvol = r1
            .status
            .nonvol_ctxsw
            .saturating_sub(r0.status.nonvol_ctxsw);
        let (ut, st) = (
            r1.utime.saturating_sub(r0.utime),
            r1.stime.saturating_sub(r0.stime),
        );
        values.set("offload.vol_ctxsw_per_round", per_round(vol as f64));
        values.set(
            "offload.nonvol_ctxsw_per_kround",
            per_round(nonvol as f64) * 1e3,
        );
        values.set("offload.sys_frac", st as f64 / (ut + st).max(1) as f64);

        let a = allocs_delta;
        values.set(
            "alloc.count_per_round",
            per_slice_round((a.gen_count + a.other_count) as f64),
        );
        values.set(
            "alloc.bytes_per_round",
            per_slice_round((a.gen_bytes + a.other_bytes) as f64),
        );
        values.set(
            "alloc.offload_count_per_round",
            per_slice_round(a.other_count as f64),
        );
        values.set(
            "alloc.gen_count_per_round",
            per_slice_round(a.gen_count as f64),
        );

        let plain_round_us = med(&|s| us(s.round_p50_ns), Some(false));
        let traced_round_us = med(&|s| us(s.round_p50_ns), t);
        let offload_runq = r1.sched.runq_wait_ns.saturating_sub(r0.sched.runq_wait_ns) as f64
            / 1e9
            / counted_wall.max(1e-9);
        values.set("bench.threads", threads_peak as f64);
        values.set("bench.pinned", f64::from(u8::from(pinned)));
        values.set("bench.gen_runq_wait_frac", gen_runq);
        values.set("bench.offload_runq_wait_frac", offload_runq);
        values.set("bench.slice_spread", spread);
        values.set("bench.kept_slices_frac", kept_frac);
        values.set("bench.full_speed_frac", full_frac);
        values.set("bench.speed_rule", f64::from(gate));
        values.set("bench.speed_probe_us.floor", floor / 1e3);
        values.set(
            "bench.trace_overhead_ratio",
            if plain_round_us > 0.0 {
                traced_round_us / plain_round_us
            } else {
                0.0
            },
        );
        values.set(
            "bench.spans_dropped",
            tracer_out.as_ref().map_or(0.0, |t| t.dropped as f64),
        );
        values.set("setup.world_build_s", stats::median(&world_s));
        values.set("setup.payload_gen_s", stats::median(&payload_s));
        values.set("setup.first_rounds_s", stats::median(&first_s));
        values.set("setup.teardown_s", stats::median(&teardown_s));

        if !hung {
            probes_ok = probes::run_all(
                spec.kind,
                opts.seed,
                opts.smoke,
                plain_round_us,
                &mut values,
            );
            let baseline = values.get("direct.baseline_round_us").unwrap_or(0.0);
            values.set(
                "app.overlap_gain",
                if plain_round_us > 0.0 {
                    baseline / plain_round_us
                } else {
                    0.0
                },
            );
            if !probes_ok {
                notes.push("a no-offload comparison round failed".into());
            }
        }
        if let (Some(tracer), Some(path)) = (&tracer_out, &opts.out) {
            for (name, us) in trace::self_us_per_round(tracer.spans()) {
                notes.push(format!(
                    "self time per round: {:<12} {us:>10.3} us",
                    name.as_str()
                ));
            }
            match std::fs::write(path, trace::chrome_json(spec.name, tracer.spans())) {
                Ok(()) => notes.push(format!(
                    "trace: {} spans written to {}",
                    tracer.spans().len(),
                    path.display()
                )),
                Err(e) => notes.push(format!("trace: cannot write {}: {e}", path.display())),
            }
        }
    }
    values.set("peak_rss_mb", procfs::peak_rss_mb());
    // Every time and rate in the tables is at the reference clock.
    values.scale_to_reference_clock(speed::clock_factor(floor));

    Report {
        correct: totals.mismatches == 0 && !hung && probes_ok && !slices.is_empty(),
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        values,
        notes,
    }
}

fn absorb(into: &mut Tally, from: &mut Tally) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.mismatches += from.mismatches;
    if into.first_error.is_none() {
        into.first_error = from.first_error.take();
    }
}

/// The offload thread's registry and the transport's (empty for the
/// in-process substrate, which keeps none).
fn snapshots<S, T: Transport>(rig: &Rig<S, T>) -> (obs::Snapshot, obs::Snapshot) {
    (
        rig.handle.obs().snapshot(),
        rig.handle
            .transport_obs()
            .map(obs::Registry::snapshot)
            .unwrap_or_default(),
    )
}
