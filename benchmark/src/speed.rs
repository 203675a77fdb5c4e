//! How fast are the run's two CPUs *right now*? A fixed piece of
//! arithmetic, timed on both at the same moment.
//!
//! The two virtual CPUs of the box this was written on are hyperthreads of
//! a shared host. Whenever another tenant's thread runs on the sibling of
//! one of them, everything on that CPU gets 10–15 % slower (code that
//! keeps the arithmetic units full, like [`kernel`], 50–80 % slower); now
//! and then the host even puts the run's own two CPUs on one core. No
//! steal time is booked for any of it, it comes and goes within
//! milliseconds, and it was the whole of the "speed phases" that made ten
//! runs of the same code spread by 10–25 %. The rounds cannot tell a slow
//! machine from slow code. This probe can: it shares no code with the
//! system under test, so a reading above the run's floor says the CPU was
//! taken, whatever the rounds next to it did. `run` takes a reading before
//! and after every slice and every set-up, and `stats` keeps the ones
//! taken at full speed.
//!
//! The offload thread owns the second CPU, so a helper thread pinned there
//! runs the kernel on request and sleeps otherwise. It is awake only
//! inside [`SpeedProbe::read`], which the generator calls between rounds —
//! never while a round is in flight — so at most two threads are busy at
//! any time, as everywhere else in the benchmark.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::workloads::Cpus;

/// Name of the helper thread (`/proc/self/task/*/comm`).
pub const THREAD_NAME: &str = "speed-probe";

/// Iterations of [`kernel`] in one timing: about 16 µs at full speed on
/// the 2.1 GHz box this was written on. A constant, never calibrated.
const KERNEL_ITERS: u32 = 4_000;

/// What [`kernel`] takes at full speed on the box this was written on,
/// with the host's clock where it usually is: the *reference clock* every
/// reported time is brought to. The host's clock moves with its load —
/// the run's fastest reading was anywhere from 14.8 to 17.3 µs within one
/// hour, in steps of about 3 % — and every workload's timings move with
/// it: ten runs of the same code spread by 13 % as measured and by 4 %
/// once each is scaled by this ÷ its own fastest reading. A constant,
/// never calibrated: on another machine it makes the numbers those of a
/// machine on which the kernel takes this long.
pub const REFERENCE_NS: f64 = 16_200.0;

/// By how much a time measured in a run whose fastest reading was
/// `floor_ns` is to be multiplied to be a time at the reference clock
/// (1 when there was no reading).
pub fn clock_factor(floor_ns: f64) -> f64 {
    if floor_ns > 0.0 {
        REFERENCE_NS / floor_ns
    } else {
        1.0
    }
}

/// Timings per reading; the reading is the faster one, so a timer
/// interrupt inside one of them does not count as a slow CPU.
const REPS: usize = 2;

/// A helper that has not answered after this long is not coming (its CPU
/// is gone); the reading then says "not at full speed".
const ANSWER_DEADLINE: Duration = Duration::from_millis(20);

/// Twelve independent add–shift–rotate chains: enough parallel work to
/// keep every arithmetic unit of the core busy, so whatever a sibling
/// hyperthread takes shows at once. (A dependent chain like the compute
/// slice's would hardly notice a sibling.)
#[inline(never)]
pub fn kernel(iters: u32) -> u64 {
    let mut a: [u64; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
    for i in 0..iters {
        for x in &mut a {
            *x = (*x ^ u64::from(i)).wrapping_add(*x >> 7).rotate_left(5);
        }
    }
    black_box(a.iter().fold(0, |acc, x| acc ^ x))
}

/// Nanoseconds of the faster of [`REPS`] kernel runs on the calling CPU.
fn time_kernel() -> u32 {
    let mut best = u32::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        kernel(KERNEL_ITERS);
        best = best.min(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
    }
    best
}

/// One reading: nanoseconds the kernel took on each CPU, both timed at
/// the same moment. Lower is faster; `u32::MAX` is "no answer".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reading {
    pub generator_ns: u32,
    pub offload_ns: u32,
}

impl Reading {
    /// The slower of the two CPUs.
    pub fn worst_ns(self) -> u32 {
        self.generator_ns.max(self.offload_ns)
    }
}

struct Shared {
    /// Sequence number of the latest request.
    asked: AtomicU32,
    /// The helper has started on request number …
    started: AtomicU32,
    /// … and answered it: `request << 32 | nanoseconds`.
    answer: AtomicU64,
    quit: AtomicBool,
}

pub struct SpeedProbe {
    shared: Arc<Shared>,
    helper: Option<JoinHandle<()>>,
    seq: u32,
    /// Did the helper get pinned to the offload thread's CPU?
    pub pinned: bool,
}

impl SpeedProbe {
    /// Start the helper on the offload thread's CPU. Call from the pinned
    /// generator.
    pub fn spawn(cpus: Cpus) -> SpeedProbe {
        let shared = Arc::new(Shared {
            asked: AtomicU32::new(0),
            started: AtomicU32::new(0),
            answer: AtomicU64::new(0),
            quit: AtomicBool::new(false),
        });
        let theirs = Arc::clone(&shared);
        // A new thread inherits its creator's affinity, so the generator
        // moves to the offload thread's CPU for the spawn: the helper is
        // born there and allowed nowhere else.
        let mut pinned = procfs::set_affinity(0, &[cpus.offload]);
        let helper = std::thread::Builder::new()
            .name(THREAD_NAME.into())
            .spawn(move || {
                // ORDERING: Release/Acquire on `asked`/`started`/`answer`
                // hand the request and the reading across; `quit` is read
                // after an unpark.
                let mut served = 0;
                loop {
                    let want = theirs.asked.load(Ordering::Acquire);
                    if theirs.quit.load(Ordering::Acquire) {
                        return;
                    }
                    if want == served {
                        std::thread::park();
                        continue;
                    }
                    theirs.started.store(want, Ordering::Release);
                    let ns = time_kernel();
                    theirs
                        .answer
                        .store(u64::from(want) << 32 | u64::from(ns), Ordering::Release);
                    served = want;
                }
            })
            .ok();
        pinned &= cpus.pin_generator();
        SpeedProbe {
            pinned: pinned && helper.is_some(),
            shared,
            helper,
            seq: 0,
        }
    }

    /// Time the kernel on both CPUs at once. Call between rounds only.
    pub fn read(&mut self) -> Reading {
        let silent = Reading {
            generator_ns: u32::MAX,
            offload_ns: u32::MAX,
        };
        let Some(helper) = &self.helper else {
            return silent;
        };
        self.seq = self.seq.wrapping_add(1).max(1);
        let give_up = Instant::now() + ANSWER_DEADLINE;
        // ORDERING: see the helper's loop.
        self.shared.asked.store(self.seq, Ordering::Release);
        helper.thread().unpark();
        // Start together: the helper's CPU may have to wake first.
        while self.shared.started.load(Ordering::Acquire) != self.seq {
            std::hint::spin_loop();
            if Instant::now() > give_up {
                return silent;
            }
        }
        let generator_ns = time_kernel();
        loop {
            let answer = self.shared.answer.load(Ordering::Acquire);
            if (answer >> 32) as u32 == self.seq {
                return Reading {
                    generator_ns,
                    offload_ns: answer as u32,
                };
            }
            std::hint::spin_loop();
            if Instant::now() > give_up {
                return silent;
            }
        }
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        // ORDERING: see the helper's loop.
        self.shared.quit.store(true, Ordering::Release);
        if let Some(helper) = self.helper.take() {
            helper.thread().unpark();
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scales_with_its_iterations() {
        assert_eq!(kernel(100), kernel(100));
        assert_ne!(kernel(100), kernel(101));
    }

    #[test]
    fn clock_factor_brings_a_slow_clock_down_and_a_fast_one_up() {
        assert_eq!(clock_factor(REFERENCE_NS), 1.0);
        assert!(clock_factor(17_300.0) < 1.0, "a slow clock's times shrink");
        assert!(clock_factor(14_800.0) > 1.0, "a fast clock's times grow");
        assert_eq!(clock_factor(0.0), 1.0);
    }

    #[test]
    fn a_probe_reads_both_cpus_and_shuts_down() {
        let allowed = procfs::allowed_cpus();
        let cpus = Cpus {
            generator: allowed[0],
            offload: *allowed.last().expect("a CPU"),
        };
        let mut probe = SpeedProbe::spawn(cpus);
        let r = probe.read();
        assert!(r.generator_ns > 0 && r.generator_ns < u32::MAX, "{r:?}");
        assert!(r.offload_ns > 0 && r.offload_ns < u32::MAX, "{r:?}");
        assert_eq!(r.worst_ns(), r.generator_ns.max(r.offload_ns));
        assert!(procfs::threads()
            .iter()
            .any(|(_, comm)| comm == THREAD_NAME));
        drop(probe);
        assert!(!procfs::threads()
            .iter()
            .any(|(_, comm)| comm == THREAD_NAME));
        // The test thread goes back to every CPU it had.
        procfs::set_affinity(0, &allowed);
    }
}
