//! The one place that times a round. Drives any [`Shape`] through
//! post → (compute) → wait, takes the clock readings, and files them with
//! the [`Meter`].
//!
//! Posting is timed as one clock pair around the whole posting phase and
//! divided by the operations posted: a single 250 ns call timed with a
//! ~30 ns clock measures the clock.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::endpoint::Phase;
use crate::shapes::Shape;
use crate::trace::{Name, SpanId, Tracer, NO_PARENT};

/// A round still unfinished after this long is a hang: every operation
/// the offload thread owns has a 5 s timeout (`WireConfig.timeout`), so
/// nothing healthy is still pending here.
pub const ROUND_DEADLINE: Duration = Duration::from_secs(8);

/// Iterations of the arithmetic kernel in one compute slice. A constant
/// in source, never calibrated at run time: the compute phase is a fixed
/// amount of work (≈ 12.5 µs a slice, ≈ 400 µs for the overlap workload's
/// 32 slices on the 2.1 GHz box this was written on), not a fixed time.
pub const SLICE_ITERS: u32 = 5_600;

/// Completion checks timed as one batch by the traced run.
pub const TEST_BATCH: u32 = 64;

/// One slice of compute: a dependent multiply–add–xorshift chain the
/// compiler can neither vectorise nor shorten.
#[inline(never)]
pub fn kernel_slice(mut x: u64) -> u64 {
    for _ in 0..SLICE_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    black_box(x)
}

/// Per-round samples of one slice plus the switches of the traced run.
pub struct Meter {
    /// Time every pump and a batch of `test` calls (traced slices only:
    /// the extra clock reads are the tracing overhead).
    pub timed_pumps: bool,
    /// Where spans go, and for how many more rounds of this slice.
    pub tracer: Option<Tracer>,
    pub span_rounds_left: usize,
    pub round_ns: Vec<u32>,
    pub post_ns: Vec<u32>,
    pub compute_ns: Vec<u32>,
    pub wait_ns: Vec<u32>,
    /// Nanoseconds of one `TEST_BATCH` of completion checks.
    pub test_batch_ns: Vec<u32>,
    pub ops_posted: u64,
    pub pump_ns: u64,
    pub polls: u64,
    sink: u64,
}

impl Meter {
    /// Buffers for `capacity` rounds a slice; beyond that they grow.
    pub fn new(capacity: usize) -> Self {
        let v = || Vec::with_capacity(capacity);
        Meter {
            timed_pumps: false,
            tracer: None,
            span_rounds_left: 0,
            round_ns: v(),
            post_ns: v(),
            compute_ns: v(),
            wait_ns: v(),
            test_batch_ns: v(),
            ops_posted: 0,
            pump_ns: 0,
            polls: 0,
            sink: 0x243f_6a88_85a3_08d3,
        }
    }

    /// Forget the slice's samples; keep the buffers.
    pub fn reset(&mut self) {
        self.round_ns.clear();
        self.post_ns.clear();
        self.compute_ns.clear();
        self.wait_ns.clear();
        self.test_batch_ns.clear();
        self.ops_posted = 0;
        self.pump_ns = 0;
        self.polls = 0;
    }

    fn open(&mut self, on: bool, name: Name, round: u64, parent: SpanId, at: Instant) -> SpanId {
        match (&mut self.tracer, on) {
            (Some(t), true) => t.open(name, round, parent, at),
            _ => NO_PARENT,
        }
    }

    fn close(&mut self, id: SpanId, at: Instant) {
        if let (Some(t), true) = (&mut self.tracer, id != NO_PARENT) {
            t.close(id, at);
        }
    }

    fn pump<S: Shape + ?Sized>(
        &mut self,
        shape: &mut S,
        phase: Phase,
        spans: bool,
        round: u64,
        parent: SpanId,
    ) {
        if !self.timed_pumps {
            self.polls += shape.pump(phase);
            return;
        }
        let a = Instant::now();
        self.polls += shape.pump(phase);
        let b = Instant::now();
        self.pump_ns += (b - a).as_nanos() as u64;
        let id = self.open(spans, Name::PeerPump, round, parent, a);
        self.close(id, b);
    }
}

pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// The round exceeded [`ROUND_DEADLINE`].
#[derive(Debug)]
pub struct Hang;

/// Post the peers' side of the stage once the shape allows it. A command
/// channel that never drains (a wedged or dead offload thread) is a hang
/// like any other, not a stuck run.
fn start_peers<S: Shape + ?Sized>(
    shape: &mut S,
    round: u64,
    stage: usize,
    give_up: Instant,
) -> Result<(), Hang> {
    let mut turns = 0u32;
    while !shape.issued() {
        std::hint::spin_loop();
        turns += 1;
        if turns.is_multiple_of(1 << 12) && Instant::now() > give_up {
            return Err(Hang);
        }
    }
    shape.peers_start(round, stage);
    Ok(())
}

/// Run round `round` of `shape`, filing its timings with `meter`.
/// Returns the instant the round ended.
pub fn run_round<S: Shape + ?Sized>(
    shape: &mut S,
    round: u64,
    meter: &mut Meter,
) -> Result<Instant, Hang> {
    shape.prepare(round);
    let spans =
        meter.span_rounds_left > 0 && meter.tracer.as_ref().is_some_and(|t| t.has_room(4096));
    if spans {
        meter.span_rounds_left -= 1;
    }
    let slices = shape.compute_slices();
    let t0 = Instant::now();
    let root = meter.open(spans, Name::Round, round, NO_PARENT, t0);
    let (mut post, mut compute, mut wait) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut end = t0;
    for stage in 0..shape.stages() {
        let a = end;
        meter.ops_posted += shape.post(round, stage);
        let b = Instant::now();
        post += b - a;
        let id = meter.open(spans, Name::Post, round, root, a);
        meter.close(id, b);

        let mut c = b;
        if meter.timed_pumps {
            if stage == 0 {
                let mut any = false;
                for _ in 0..TEST_BATCH {
                    any |= black_box(shape.test_posted());
                }
                black_box(any);
                let t = Instant::now();
                meter.test_batch_ns.push(ns32(t - c));
                c = t;
            }
            start_peers(shape, round, stage, t0 + ROUND_DEADLINE)?;
            let t = Instant::now();
            meter.pump_ns += (t - c).as_nanos() as u64;
            let id = meter.open(spans, Name::PeerStart, round, root, c);
            meter.close(id, t);
            c = t;
        } else {
            start_peers(shape, round, stage, t0 + ROUND_DEADLINE)?;
        }

        let mut d = c;
        if slices > 0 {
            if !meter.timed_pumps {
                c = Instant::now();
            }
            let id = meter.open(spans, Name::Compute, round, root, c);
            for _ in 0..slices {
                meter.sink = kernel_slice(meter.sink);
                meter.pump(shape, Phase::Compute, spans, round, id);
            }
            d = Instant::now();
            meter.close(id, d);
            compute += d - c;
        }

        let id = meter.open(spans, Name::Wait, round, root, d);
        let mut turns = 0u32;
        while !shape.done() {
            meter.pump(shape, Phase::Wait, spans, round, id);
            turns += 1;
            if turns.is_multiple_of(4096) && t0.elapsed() > ROUND_DEADLINE {
                return Err(Hang);
            }
        }
        shape.finish(round, stage);
        end = Instant::now();
        meter.close(id, end);
        // Without a compute phase the peers' posting is not stamped apart
        // in an untimed round; it counts as waiting there.
        wait += end - d;
    }
    meter.close(root, end);
    meter.round_ns.push(ns32(end - t0));
    meter.post_ns.push(ns32(post));
    meter.compute_ns.push(ns32(compute));
    meter.wait_ns.push(ns32(wait));
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::Tally;

    /// A shape whose posts never reach the transport.
    struct Wedged(Tally, bool);

    impl Shape for Wedged {
        fn post(&mut self, _round: u64, _stage: usize) -> u64 {
            1
        }
        fn issued(&mut self) -> bool {
            false
        }
        fn peers_start(&mut self, _round: u64, _stage: usize) {
            self.1 = true;
        }
        fn pump(&mut self, _phase: Phase) -> u64 {
            0
        }
        fn done(&mut self) -> bool {
            true
        }
        fn finish(&mut self, _round: u64, _stage: usize) {}
        fn test_posted(&mut self) -> bool {
            false
        }
        fn tally(&mut self) -> &mut Tally {
            &mut self.0
        }
    }

    #[test]
    fn a_command_channel_that_never_drains_is_a_hang() {
        let mut shape = Wedged(Tally::default(), false);
        assert!(start_peers(&mut shape, 0, 0, Instant::now()).is_err());
        assert!(
            !shape.1,
            "the peers must not start before rank 0 has issued"
        );
    }

    #[test]
    fn kernel_is_deterministic_and_input_dependent() {
        assert_eq!(kernel_slice(1), kernel_slice(1));
        assert_ne!(kernel_slice(1), kernel_slice(2));
    }
}
