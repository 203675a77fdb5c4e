//! Percentiles, the tail rule and the slice-selection rule.
//!
//! Every timing the benchmark prints goes through these functions. The
//! measuring window is cut into short slices ([`SLICE`]); before and after
//! each one the speed probe (`speed`) times a fixed piece of arithmetic on
//! both CPUs of the run. A statistic (the median round, the median posting
//! phase, …) is computed per slice from the raw per-round samples. A slice
//! counts when it
//!
//! 1. starts after the warm-up, the first [`WARMUP_SHARE`] of the window;
//! 2. is *undisturbed*: the kernel's accounting shows that no other
//!    process of this machine took the generator's CPU in it (run-queue
//!    wait), and no round in it took longer than anything the program
//!    itself waits for;
//! 3. ran *at full speed*: the probe readings around it ([`calm_slices`])
//!    are all within [`FULL_SPEED_TOLERANCE`] of the run's fastest
//!    ([`speed_floor`]).
//!
//! The reported timing is the **median over the slices that count** of the
//! per-slice statistic; rates are totals over the same slices.
//!
//! None of the three rules looks at how fast the rounds went. Rule 3 is
//! what makes ten runs agree: the box's two virtual CPUs are hyperthreads
//! of a shared host, another tenant is on a sibling half the time, and a
//! median over all slices reports the mix of the hour (see `speed`).

use std::time::Duration;

/// Length of a slice: rounds are run until this much time has passed and
/// at least [`SLICE_MIN_ROUNDS`] are done. Short, because a neighbour on
/// the host comes and goes within milliseconds and a slice only counts if
/// the probes on both sides of it agree that nobody was there.
pub const SLICE: Duration = Duration::from_millis(2);

/// Fewest rounds in a slice (the longest round is about 0.7 ms, so its
/// slices are under 3 ms: the shorter a slice, the likelier that nobody
/// came by while it ran).
pub const SLICE_MIN_ROUNDS: u64 = 4;

/// Leading share of the window that is discarded: cold caches,
/// first-touch page faults, the offload thread's wake from the park it
/// fell into during set-up. A seventh, as the first of seven segments.
pub const WARMUP_SHARE: f64 = 1.0 / 7.0;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the sample of rank `ceil(q·n)`, 1-based. Reorders `samples`; 0 when
/// empty.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    f64::from(*v)
}

/// The highest quantile, capped at 0.99, that still has at least ten
/// samples beyond it — a "p99" over 300 samples would be decided by three
/// of them. With fewer than twenty samples the median is all there is.
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

/// Median of a small set of `f64` (per-segment statistics): the mean of
/// the two middle values for an even count; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// How far above the run's [`speed_floor`] a probe reading may lie and
/// still be "at full speed". The clock of the host steps in 3 % bins and a
/// busy sibling hyperthread costs the probe 50 % and more; nothing lies
/// in between.
pub const FULL_SPEED_TOLERANCE: f64 = 0.12;

/// Probe readings looked at on each side of a slice, beyond the two that
/// bracket it: a neighbour that was there a slice ago has seldom left.
pub const CALM_NEIGHBOURS: usize = 1;

/// The run's full speed: the nearest-rank 5th percentile of every
/// single-CPU probe reading (nanoseconds, so lower is faster). Not the
/// minimum — one reading in a few thousand catches the clock mid-step —
/// and far enough down that a host busy nine tenths of the time still
/// shows it. 0 when empty.
pub fn speed_floor(readings_ns: &[u32]) -> f64 {
    if readings_ns.is_empty() {
        return 0.0;
    }
    let mut v = readings_ns.to_vec();
    v.sort_unstable();
    let rank = (v.len() as f64 * 0.05).ceil() as usize;
    f64::from(v[rank.clamp(1, v.len()) - 1])
}

/// Was a reading (the slower CPU's) taken at full speed?
pub fn at_full_speed(worst_ns: u32, floor: f64) -> bool {
    f64::from(worst_ns) <= floor * (1.0 + FULL_SPEED_TOLERANCE)
}

/// Which slices ran at full speed. `full[i]` says whether the reading
/// taken before slice `i` was (so `full` has one entry more than there are
/// slices, the last one taken after the last slice). A slice is calm when
/// the two readings that bracket it and `neighbours` more on each side —
/// as far as the window reaches — all were.
pub fn calm_slices(full: &[bool], neighbours: usize) -> Vec<bool> {
    let slices = full.len().saturating_sub(1);
    (0..slices)
        .map(|i| {
            let from = i.saturating_sub(neighbours);
            let to = (i + 1 + neighbours).min(slices);
            full[from..=to].iter().all(|&f| f)
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when
/// `b` is better. `lower` says which direction is better.
pub fn worsening(a: f64, b: f64, lower: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        let mut one = vec![7];
        assert_eq!(quantile(&mut one, 0.99), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples are the fewest that carry a p99.
        assert_eq!(tail_q(1000), 0.99);
        assert_eq!(tail_q(100_000), 0.99);
        // 200 samples: ten beyond is the 95th percentile.
        assert!((tail_q(200) - 0.95).abs() < 1e-12);
        // 999 samples fall just short of p99.
        assert!(tail_q(999) < 0.99);
        // Too few for any tail: the median.
        assert_eq!(tail_q(19), 0.5);
        for n in [20usize, 57, 200, 999, 1000, 5000] {
            let beyond = n - (tail_q(n) * n as f64).ceil() as usize;
            assert!(beyond >= 10 || tail_q(n) == 0.99, "n={n} beyond={beyond}");
        }
    }

    #[test]
    fn full_speed_rule_keeps_the_slices_nobody_disturbed() {
        // 1000 readings: a floor of 16 200 ns in 3 % clock steps, a busy
        // sibling at 24 000–28 000 ns for 70 % of the time.
        let readings: Vec<u32> = (0..1000u32)
            .map(|i| match i {
                i if i % 10 < 7 => 24_000 + (i % 5) * 1_000,
                i => 16_200 + (i % 3) * 530,
            })
            .collect();
        let floor = speed_floor(&readings);
        assert_eq!(floor, 16_200.0);
        assert!(at_full_speed(16_200, floor));
        assert!(
            at_full_speed(17_260, floor),
            "two clock steps down is still full speed"
        );
        assert!(!at_full_speed(24_000, floor));
        assert!(
            !at_full_speed(u32::MAX, floor),
            "no answer is not full speed"
        );
        // One stray fast reading does not move the floor.
        let mut with_stray = readings.clone();
        with_stray.push(14_700);
        assert_eq!(speed_floor(&with_stray), 16_200.0);
        assert_eq!(speed_floor(&[]), 0.0);
        assert_eq!(speed_floor(&[5]), 5.0);

        // Readings 0..=6 around slices 0..=5; reading 3 was slow.
        let full = [true, true, true, false, true, true, true];
        assert_eq!(
            calm_slices(&full, 0),
            [true, true, false, false, true, true],
            "the two slices that touch the slow reading go"
        );
        assert_eq!(
            calm_slices(&full, 1),
            [true, false, false, false, false, true],
            "and with one neighbour, the ones next to them"
        );
        assert_eq!(
            calm_slices(&[true; 4], 5),
            [true; 3],
            "the window's ends are no neighbours"
        );
        assert!(calm_slices(&[true], 1).is_empty());
        assert!(calm_slices(&[], 1).is_empty());
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 104.0, true) - 0.04).abs() < 1e-12);
        assert!((worsening(100.0, 104.0, false) + 0.04).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }
}
