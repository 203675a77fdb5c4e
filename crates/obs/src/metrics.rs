//! Lock-free counters, gauges with high-water marks, and log2-bucketed
//! histograms, grouped per rank in a [`Registry`].
//!
//! Handles are `Arc`-shared with the registry: a hot path clones its
//! handles once at construction and afterwards touches only `Relaxed`
//! atomics; `snapshot()` walks the registry on the cold path. Handles also
//! work unregistered ([`Counter::default`] etc.) so data structures can
//! embed metrics without threading a registry through every constructor.

use std::collections::BTreeMap;

/// A gauge's current value and the highest value it ever reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeReading {
    pub value: u64,
    pub high_water: u64,
}

/// A histogram's totals plus its non-empty log2 buckets as
/// `(inclusive upper bound, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramReading {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramReading {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) from the log2 buckets.
    ///
    /// The sample of rank `ceil(q · count)` is located in its bucket and
    /// linearly interpolated inside it (bucket `i` spans
    /// `[2^(i-1), 2^i - 1]`; bucket 0 is exactly the value 0), so the
    /// estimate is always within the true sample's bucket — the error is
    /// bounded by the bucket width, never by the tail length. An empty
    /// histogram estimates 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0u64;
        for &(ub, n) in &self.buckets {
            if n > 0 && rank <= below + n {
                let lb = bucket_lower_bound(ub);
                if lb >= ub {
                    return ub; // single-value buckets (0 and 1) are exact
                }
                // Rank k of n samples sits at the (k − ½)/n point of the
                // bucket under the uniform-within-bucket assumption; a
                // single-sample bucket therefore estimates its midpoint.
                let frac = (((rank - below) as f64 - 0.5) / n as f64).clamp(0.0, 1.0);
                return lb + (frac * (ub - lb) as f64).round() as u64;
            }
            below += n;
        }
        self.buckets.last().map_or(0, |&(ub, _)| ub)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Inclusive lower bound of the log2 bucket whose inclusive upper bound is
/// `ub`: bucket 0 holds zeros, bucket 1 holds the value 1, bucket `i ≥ 2`
/// spans `[2^(i-1), 2^i - 1]` (for `ub = u64::MAX` that is `2^63`).
fn bucket_lower_bound(ub: u64) -> u64 {
    if ub <= 1 {
        ub
    } else {
        ub / 2 + 1
    }
}

/// A point-in-time reading of every metric in a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeReading>,
    pub histograms: BTreeMap<String, HistogramReading>,
}

impl Snapshot {
    /// Counter value, 0 when absent (e.g. the no-op build).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> GaugeReading {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    pub fn histogram(&self, name: &str) -> HistogramReading {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// What happened between `earlier` and `self`: counters and histogram
    /// totals subtract; gauges keep the later reading (their high-water
    /// mark is since creation, not since the base snapshot).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let base = earlier.histogram(k);
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(ub, n)| {
                        let b = base
                            .buckets
                            .iter()
                            .find(|&&(bu, _)| bu == ub)
                            .map_or(0, |&(_, bn)| bn);
                        (ub, n.saturating_sub(b))
                    })
                    .filter(|&(_, n)| n > 0)
                    .collect();
                (
                    k.clone(),
                    HistogramReading {
                        count: h.count.saturating_sub(base.count),
                        sum: h.sum.saturating_sub(base.sum),
                        buckets,
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Fold `other` into `self`, producing the metrics a single registry
    /// would have read had it recorded both ranks' events: counters and
    /// histogram totals add (saturating — a merged counter can only pin at
    /// `u64::MAX`, never wrap), gauges keep the maximum of both current
    /// values and both high-water marks, histogram buckets add bucket-wise
    /// over the union of upper bounds. The operation is commutative and
    /// associative with the empty snapshot as identity, so a relay tree
    /// may fold subtrees in any order and arrive at the same aggregate.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, g) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_default();
            slot.value = slot.value.max(g.value);
            slot.high_water = slot.high_water.max(g.high_water);
        }
        for (k, h) in &other.histograms {
            let slot = self.histograms.entry(k.clone()).or_default();
            slot.count = slot.count.saturating_add(h.count);
            slot.sum = slot.sum.saturating_add(h.sum);
            for &(ub, n) in &h.buckets {
                match slot.buckets.binary_search_by_key(&ub, |&(u, _)| u) {
                    Ok(i) => slot.buckets[i].1 = slot.buckets[i].1.saturating_add(n),
                    Err(i) => slot.buckets.insert(i, (ub, n)),
                }
            }
        }
    }

    /// Non-consuming [`Snapshot::merge`]: the fold of both inputs.
    pub fn merged(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// `(name, formatted value)` pairs for report rendering, skipping
    /// zero-valued counters and empty histograms. Globally sorted by
    /// metric name (not grouped by metric type) so rendered tables are
    /// byte-stable across runs and diffable.
    pub fn render_lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (k, v) in &self.counters {
            if *v > 0 {
                out.push((k.clone(), v.to_string()));
            }
        }
        for (k, g) in &self.gauges {
            out.push((k.clone(), format!("{} (hwm {})", g.value, g.high_water)));
        }
        for (k, h) in &self.histograms {
            if h.count > 0 {
                out.push((
                    k.clone(),
                    format!(
                        "n={} mean={:.1} p50={} p95={} p99={}",
                        h.count,
                        h.mean(),
                        h.p50(),
                        h.p95(),
                        h.p99()
                    ),
                ));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Compact binary serialization for shipping a snapshot over the wire
    /// (the cluster stats plane). Little-endian, length-prefixed strings,
    /// no external dependencies; round-trips exactly through
    /// [`Snapshot::from_bytes`], including histogram buckets.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            let b = s.as_bytes();
            out.extend_from_slice(&(b.len().min(u16::MAX as usize) as u16).to_le_bytes());
            out.extend_from_slice(&b[..b.len().min(u16::MAX as usize)]);
        }
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (k, v) in &self.counters {
            put_str(&mut out, k);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (k, g) in &self.gauges {
            put_str(&mut out, k);
            out.extend_from_slice(&g.value.to_le_bytes());
            out.extend_from_slice(&g.high_water.to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (k, h) in &self.histograms {
            put_str(&mut out, k);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for &(ub, n) in &h.buckets {
                out.extend_from_slice(&ub.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`Snapshot::to_bytes`]. Tolerant of nothing: any
    /// truncation, bad magic, or invalid UTF-8 is an error (stats frames
    /// cross a process boundary, so corrupt input must not panic).
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, String> {
        struct Rd<'a>(&'a [u8], usize);
        impl Rd<'_> {
            fn take(&mut self, n: usize) -> Result<&[u8], String> {
                let s = self
                    .0
                    .get(self.1..self.1 + n)
                    .ok_or_else(|| format!("snapshot truncated at byte {}", self.1))?;
                self.1 += n;
                Ok(s)
            }
            fn u16(&mut self) -> Result<u16, String> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
            }
            fn string(&mut self) -> Result<String, String> {
                let n = self.u16()? as usize;
                std::str::from_utf8(self.take(n)?)
                    .map(str::to_string)
                    .map_err(|_| "snapshot name not UTF-8".to_string())
            }
        }
        let mut rd = Rd(buf, 0);
        if rd.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
            return Err("bad snapshot magic".into());
        }
        let mut snap = Snapshot::default();
        for _ in 0..rd.u32()? {
            let k = rd.string()?;
            snap.counters.insert(k, rd.u64()?);
        }
        for _ in 0..rd.u32()? {
            let k = rd.string()?;
            let reading = GaugeReading {
                value: rd.u64()?,
                high_water: rd.u64()?,
            };
            snap.gauges.insert(k, reading);
        }
        for _ in 0..rd.u32()? {
            let k = rd.string()?;
            let count = rd.u64()?;
            let sum = rd.u64()?;
            let nb = rd.u32()? as usize;
            let mut buckets = Vec::with_capacity(nb.min(65));
            for _ in 0..nb {
                buckets.push((rd.u64()?, rd.u64()?));
            }
            snap.histograms.insert(
                k,
                HistogramReading {
                    count,
                    sum,
                    buckets,
                },
            );
        }
        if rd.1 != buf.len() {
            return Err(format!("snapshot has {} trailing bytes", buf.len() - rd.1));
        }
        Ok(snap)
    }
}

/// Magic prefix of the [`Snapshot::to_bytes`] format (version bumps the
/// digit).
const SNAP_MAGIC: &[u8; 4] = b"OBS1";

#[cfg(feature = "enabled")]
mod imp {
    use super::{GaugeReading, HistogramReading, Snapshot};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, Mutex};

    /// Monotone event counter: one `Relaxed` RMW per increment.
    #[derive(Clone, Debug)]
    pub struct Counter(Arc<AtomicU64>);

    impl Default for Counter {
        fn default() -> Self {
            Self(Arc::new(AtomicU64::new(0)))
        }
    }

    impl Counter {
        #[inline]
        pub fn inc(&self) {
            self.0.fetch_add(1, Relaxed);
        }

        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Relaxed);
        }

        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Relaxed)
        }
    }

    #[derive(Debug, Default)]
    struct GaugeCore {
        value: AtomicU64,
        high: AtomicU64,
    }

    /// Instantaneous level (queue depth, pool occupancy) that also tracks
    /// its high-water mark.
    #[derive(Clone, Debug, Default)]
    pub struct Gauge(Arc<GaugeCore>);

    impl Gauge {
        /// Raise the high-water mark to `v`. A level at or below the mark
        /// (every update but the rare record) costs a plain load, not a
        /// read-modify-write; a racing raise is settled by the `fetch_max`.
        #[inline]
        fn raise(&self, v: u64) {
            if v > self.0.high.load(Relaxed) {
                self.0.high.fetch_max(v, Relaxed);
            }
        }

        #[inline]
        pub fn set(&self, v: u64) {
            self.0.value.store(v, Relaxed);
            self.raise(v);
        }

        #[inline]
        pub fn add(&self, d: u64) {
            // Wrapping: a `sub` may land before the `add` it answers when
            // two threads share a gauge, leaving the level transiently
            // below zero.
            self.raise(self.0.value.fetch_add(d, Relaxed).wrapping_add(d));
        }

        #[inline]
        pub fn sub(&self, d: u64) {
            self.0.value.fetch_sub(d, Relaxed);
        }

        #[inline]
        pub fn get(&self) -> u64 {
            self.0.value.load(Relaxed)
        }

        #[inline]
        pub fn high_water(&self) -> u64 {
            self.0.high.load(Relaxed)
        }

        fn read(&self) -> GaugeReading {
            GaugeReading {
                value: self.get(),
                high_water: self.high_water(),
            }
        }
    }

    /// Bucket `i` counts samples in `[2^(i-1), 2^i)`; bucket 0 counts
    /// zeros. 64 buckets of `u64` cover the full range.
    #[derive(Debug)]
    struct HistCore {
        buckets: [AtomicU64; 65],
        count: AtomicU64,
        sum: AtomicU64,
    }

    /// Log2-bucketed distribution (latencies in ns, batch sizes).
    #[derive(Clone, Debug)]
    pub struct Histogram(Arc<HistCore>);

    impl Default for Histogram {
        fn default() -> Self {
            Self(Arc::new(HistCore {
                buckets: [const { AtomicU64::new(0) }; 65],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        }
    }

    impl Histogram {
        #[inline]
        pub fn record(&self, v: u64) {
            let idx = (64 - v.leading_zeros()) as usize;
            self.0.buckets[idx].fetch_add(1, Relaxed);
            self.0.count.fetch_add(1, Relaxed);
            self.0.sum.fetch_add(v, Relaxed);
        }

        #[inline]
        pub fn count(&self) -> u64 {
            self.0.count.load(Relaxed)
        }

        fn read(&self) -> HistogramReading {
            let buckets = self
                .0
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Relaxed);
                    (n > 0).then(|| {
                        // Subtract in u128: `(1 << 64) as u64 - 1` would
                        // truncate to 0 first and underflow for bucket 64.
                        let ub = if i == 0 { 0 } else { ((1u128 << i) - 1) as u64 };
                        (ub, n)
                    })
                })
                .collect();
            HistogramReading {
                count: self.count(),
                sum: self.0.sum.load(Relaxed),
                buckets,
            }
        }
    }

    #[derive(Default)]
    struct RegInner {
        counters: BTreeMap<String, Counter>,
        gauges: BTreeMap<String, Gauge>,
        histograms: BTreeMap<String, Histogram>,
    }

    /// A named family of metrics, typically one per rank. Registration
    /// locks; recording through the returned handles does not.
    #[derive(Clone, Default)]
    pub struct Registry(Arc<Mutex<RegInner>>);

    impl Registry {
        pub fn new() -> Self {
            Self::default()
        }

        /// True when metrics are actually recorded (the `enabled` build).
        pub const fn is_enabled(&self) -> bool {
            true
        }

        pub fn counter(&self, name: &str) -> Counter {
            let mut inner = self.0.lock().expect("obs registry");
            inner.counters.entry(name.to_string()).or_default().clone()
        }

        pub fn gauge(&self, name: &str) -> Gauge {
            let mut inner = self.0.lock().expect("obs registry");
            inner.gauges.entry(name.to_string()).or_default().clone()
        }

        pub fn histogram(&self, name: &str) -> Histogram {
            let mut inner = self.0.lock().expect("obs registry");
            inner
                .histograms
                .entry(name.to_string())
                .or_default()
                .clone()
        }

        pub fn snapshot(&self) -> Snapshot {
            let inner = self.0.lock().expect("obs registry");
            Snapshot {
                counters: inner
                    .counters
                    .iter()
                    .map(|(k, c)| (k.clone(), c.get()))
                    .collect(),
                gauges: inner
                    .gauges
                    .iter()
                    .map(|(k, g)| (k.clone(), g.read()))
                    .collect(),
                histograms: inner
                    .histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), h.read()))
                    .collect(),
            }
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    //! No-op flavour: every type is zero-sized, every method inlines to
    //! nothing, so recording sites vanish from optimized builds.

    use super::Snapshot;

    #[derive(Clone, Copy, Debug, Default)]
    pub struct Counter;

    impl Counter {
        #[inline(always)]
        pub fn inc(&self) {}
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    #[derive(Clone, Copy, Debug, Default)]
    pub struct Gauge;

    impl Gauge {
        #[inline(always)]
        pub fn set(&self, _v: u64) {}
        #[inline(always)]
        pub fn add(&self, _d: u64) {}
        #[inline(always)]
        pub fn sub(&self, _d: u64) {}
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn high_water(&self) -> u64 {
            0
        }
    }

    #[derive(Clone, Copy, Debug, Default)]
    pub struct Histogram;

    impl Histogram {
        #[inline(always)]
        pub fn record(&self, _v: u64) {}
        #[inline(always)]
        pub fn count(&self) -> u64 {
            0
        }
    }

    #[derive(Clone, Copy, Debug, Default)]
    pub struct Registry;

    impl Registry {
        pub fn new() -> Self {
            Self
        }
        pub const fn is_enabled(&self) -> bool {
            false
        }
        pub fn counter(&self, _name: &str) -> Counter {
            Counter
        }
        pub fn gauge(&self, _name: &str) -> Gauge {
            Gauge
        }
        pub fn histogram(&self, _name: &str) -> Histogram {
            Histogram
        }
        pub fn snapshot(&self) -> Snapshot {
            Snapshot::default()
        }
    }
}

pub use imp::{Counter, Gauge, Histogram, Registry};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshot_diff() {
        let reg = Registry::new();
        let c = reg.counter("polls");
        c.inc();
        c.add(4);
        let base = reg.snapshot();
        c.add(10);
        let diff = reg.snapshot().diff(&base);
        assert_eq!(base.counter("polls"), 5);
        assert_eq!(diff.counter("polls"), 10);
        assert_eq!(diff.counter("missing"), 0);
    }

    #[test]
    fn same_name_returns_same_underlying_metric() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.counter("x").inc();
        assert_eq!(reg.snapshot().counter("x"), 2);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(3);
        g.add(5);
        g.sub(6);
        let r = reg.snapshot().gauge("depth");
        assert_eq!(r.value, 2);
        assert_eq!(r.high_water, 8);
        // A `sub` that overtakes its `add` must not trip the overflow
        // check of a debug build; the level comes back to where it was.
        g.sub(3);
        g.add(3);
        let r = reg.snapshot().gauge("depth");
        assert_eq!((r.value, r.high_water), (2, 8));
    }

    /// The high-water mark is raised by a load and, only when exceeded, a
    /// `fetch_max`: two threads racing to raise it must still leave the
    /// true maximum behind, whichever of them loaded a stale mark.
    #[test]
    fn gauge_high_water_survives_concurrent_updates() {
        const N: u64 = 50_000;
        let set = Gauge::default();
        let added = Gauge::default();
        // Two interleaved ascending ramps with a dip after every step, so
        // most updates sit below the mark and the record keeps moving.
        let ramp = |parity: u64| {
            let (set, added) = (set.clone(), added.clone());
            std::thread::spawn(move || {
                for i in 0..N {
                    set.set(2 * i + parity);
                    set.set(0);
                    added.add(1);
                }
            })
        };
        let threads = [ramp(0), ramp(1)];
        for t in threads {
            t.join().expect("ramp thread");
        }
        assert_eq!(set.high_water(), 2 * (N - 1) + 1, "largest value ever set");
        assert_eq!(set.get(), 0);
        // Every `add` produced a distinct level; the last one is the peak.
        assert_eq!((added.get(), added.high_water()), (2 * N, 2 * N));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [0u64, 1, 1, 3, 1000] {
            h.record(v);
        }
        let r = reg.snapshot().histogram("lat");
        assert_eq!(r.count, 5);
        assert_eq!(r.sum, 1005);
        // zeros, [1,2), [2,4), [512,1024) buckets present
        assert_eq!(r.buckets.len(), 4);
        assert_eq!(r.buckets[0], (0, 1));
        assert_eq!(r.buckets[1], (1, 2));
        assert!(r.mean() > 200.0);
    }

    #[test]
    fn histogram_extremes_land_in_first_and_last_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record(0);
        h.record(u64::MAX);
        let r = reg.snapshot().histogram("lat");
        assert_eq!(r.count, 2);
        assert_eq!(r.sum, u64::MAX); // 0 + MAX
        assert_eq!(r.buckets.len(), 2);
        // Zeros occupy the dedicated first bucket (upper bound 0)…
        assert_eq!(r.buckets[0], (0, 1));
        // …and u64::MAX the 65th bucket, whose inclusive upper bound is
        // u64::MAX itself ((1u128 << 64) - 1 truncated to u64).
        assert_eq!(r.buckets[1], (u64::MAX, 1));
    }

    #[test]
    fn snapshot_bytes_roundtrip_exactly() {
        let reg = Registry::new();
        reg.counter("wire.bytes_tx").add(123_456_789);
        reg.counter("zero"); // zero-valued counters survive the roundtrip
        let g = reg.gauge("pool.occupancy");
        g.set(7);
        g.sub(3);
        let h = reg.histogram("lat");
        for v in [0u64, 1, 900, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("roundtrip");
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms);
        // The extremes are still in the first/last bucket after the trip.
        let hist = back.histogram("lat");
        assert_eq!(hist.buckets.first(), Some(&(0u64, 1u64)));
        assert_eq!(hist.buckets.last(), Some(&(u64::MAX, 1u64)));
    }

    #[test]
    fn snapshot_from_bytes_rejects_corrupt_input() {
        let snap = {
            let reg = Registry::new();
            reg.counter("c").inc();
            reg.snapshot()
        };
        let good = snap.to_bytes();
        assert!(Snapshot::from_bytes(&[]).is_err(), "empty");
        assert!(Snapshot::from_bytes(b"NOPE").is_err(), "bad magic");
        assert!(
            Snapshot::from_bytes(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Snapshot::from_bytes(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn render_lines_sorted_by_name_across_metric_types() {
        let reg = Registry::new();
        reg.counter("zebra").inc();
        reg.gauge("alpha").set(1);
        reg.histogram("m.middle").record(5);
        reg.counter("b.count").inc();
        let lines = reg.snapshot().render_lines();
        let names: Vec<&str> = lines.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "render_lines not sorted: {names:?}");
        assert_eq!(names, vec!["alpha", "b.count", "m.middle", "zebra"]);
    }

    #[test]
    fn quantiles_on_log2_edge_values() {
        // Empty histogram: every quantile estimates 0.
        assert_eq!(HistogramReading::default().p50(), 0);

        // Zeros live in the exact bucket 0.
        let reg = Registry::new();
        let h = reg.histogram("z");
        for _ in 0..10 {
            h.record(0);
        }
        let r = reg.snapshot().histogram("z");
        assert_eq!((r.p50(), r.p99()), (0, 0));

        // u64::MAX lands in the last bucket [2^63, u64::MAX]; the estimate
        // must stay inside that bucket (no overflow, no wraparound).
        let reg = Registry::new();
        let h = reg.histogram("m");
        h.record(u64::MAX);
        let r = reg.snapshot().histogram("m");
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = r.quantile(q);
            assert!(est >= 1 << 63, "q={q} est={est}");
        }

        // A single-sample bucket estimates its midpoint: one sample in
        // [512, 1023] reads as 512 + (1023-512)/2 rounded.
        let reg = Registry::new();
        let h = reg.histogram("s");
        h.record(777);
        let r = reg.snapshot().histogram("s");
        assert_eq!(r.p50(), 512 + ((1023u64 - 512) as f64 * 0.5).round() as u64);

        // Exact buckets 0 and 1 are exact at every quantile.
        let reg = Registry::new();
        let h = reg.histogram("e");
        h.record(0);
        h.record(1);
        let r = reg.snapshot().histogram("e");
        assert_eq!(r.quantile(0.25), 0);
        assert_eq!(r.quantile(1.0), 1);
    }

    #[test]
    fn quantiles_order_and_bucket_membership() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        // 90 fast samples in [64,127], 10 slow in [4096,8191]: p50 must sit
        // in the fast bucket, p95/p99 in the slow one, monotonically.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        let r = reg.snapshot().histogram("lat");
        assert!((64..=127).contains(&r.p50()), "p50={}", r.p50());
        assert!((4096..=8191).contains(&r.p95()), "p95={}", r.p95());
        assert!(r.p50() <= r.p95() && r.p95() <= r.p99());
    }

    #[test]
    fn render_lines_carry_percentiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record(5000);
        let lines = reg.snapshot().render_lines();
        let (_, v) = &lines[0];
        assert!(
            v.contains("p50=") && v.contains("p95=") && v.contains("p99="),
            "line was: {v}"
        );
    }

    /// Deterministic xorshift generator for the merge property tests: no
    /// external proptest dependency, but hundreds of distinct shapes.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// A registry-produced snapshot with a pseudo-random subset of shared
    /// metric names — overlap between operands is what merge has to get
    /// right.
    fn arbitrary_snapshot(rng: &mut Rng) -> Snapshot {
        let reg = Registry::new();
        const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
        for name in NAMES {
            if rng.next().is_multiple_of(3) {
                reg.counter(name).add(rng.next() % 1000);
            }
            if rng.next().is_multiple_of(3) {
                let g = reg.gauge(name);
                g.set(rng.next() % 100);
                g.set(rng.next() % 100); // value below the high-water mark
            }
            if rng.next().is_multiple_of(3) {
                let h = reg.histogram(name);
                for _ in 0..(rng.next() % 8) {
                    h.record(rng.next() % (1 << (rng.next() % 40)).max(1));
                }
            }
        }
        reg.snapshot()
    }

    #[test]
    fn merge_is_commutative_and_associative_with_empty_identity() {
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        for _ in 0..200 {
            let a = arbitrary_snapshot(&mut rng);
            let b = arbitrary_snapshot(&mut rng);
            let c = arbitrary_snapshot(&mut rng);
            assert_eq!(a.merged(&b), b.merged(&a), "commutativity");
            assert_eq!(
                a.merged(&b).merged(&c),
                a.merged(&b.merged(&c)),
                "associativity"
            );
            assert_eq!(a.merged(&Snapshot::default()), a, "right identity");
            assert_eq!(Snapshot::default().merged(&a), a, "left identity");
        }
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let ra = Registry::new();
        ra.counter("tx").add(7);
        ra.counter("only_a").inc();
        let g = ra.gauge("depth");
        g.set(10);
        g.set(2); // hwm 10, value 2
        let rb = Registry::new();
        rb.counter("tx").add(5);
        rb.gauge("depth").set(6); // hwm 6, value 6
        let m = ra.snapshot().merged(&rb.snapshot());
        assert_eq!(m.counter("tx"), 12);
        assert_eq!(m.counter("only_a"), 1);
        let d = m.gauge("depth");
        assert_eq!((d.value, d.high_water), (6, 10));
    }

    #[test]
    fn merge_saturates_at_u64_max() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), u64::MAX - 1);
        a.histograms.insert(
            "h".into(),
            HistogramReading {
                count: u64::MAX,
                sum: u64::MAX,
                buckets: vec![(u64::MAX, u64::MAX)],
            },
        );
        let mut b = Snapshot::default();
        b.counters.insert("c".into(), 5);
        b.histograms.insert(
            "h".into(),
            HistogramReading {
                count: 3,
                sum: 9,
                buckets: vec![(u64::MAX, 4)],
            },
        );
        let m = a.merged(&b);
        assert_eq!(m.counter("c"), u64::MAX, "counters pin, never wrap");
        let h = m.histogram("h");
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.buckets, vec![(u64::MAX, u64::MAX)]);
    }

    #[test]
    fn merged_histogram_equals_single_registry_of_all_samples() {
        // Ground truth: merging two registries' readings must be
        // indistinguishable — buckets and therefore every quantile — from
        // one registry that recorded the union of samples.
        let mut rng = Rng(0x0bad_5eed_0000_0042);
        for _ in 0..50 {
            let (ra, rb, rall) = (Registry::new(), Registry::new(), Registry::new());
            let (ha, hb, hall) = (
                ra.histogram("lat"),
                rb.histogram("lat"),
                rall.histogram("lat"),
            );
            for _ in 0..(rng.next() % 64) {
                let v = rng.next() % (1 << (rng.next() % 64)).max(1);
                ha.record(v);
                hall.record(v);
            }
            for _ in 0..(rng.next() % 64) {
                let v = rng.next() % (1 << (rng.next() % 64)).max(1);
                hb.record(v);
                hall.record(v);
            }
            let merged = ra.snapshot().merged(&rb.snapshot());
            let truth = rall.snapshot();
            assert_eq!(merged.histogram("lat"), truth.histogram("lat"));
            let (m, t) = (merged.histogram("lat"), truth.histogram("lat"));
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(m.quantile(q), t.quantile(q), "q={q}");
            }
        }
    }

    #[test]
    fn merge_keeps_buckets_sorted_for_quantiles() {
        // Disjoint bucket sets interleave: a has [64,127] and [4096,8191],
        // b has [512,1023]; the union must stay ordered or quantile() walks
        // buckets out of order.
        let (ra, rb) = (Registry::new(), Registry::new());
        ra.histogram("lat").record(100);
        ra.histogram("lat").record(5000);
        rb.histogram("lat").record(777);
        let m = ra.snapshot().merged(&rb.snapshot());
        let ubs: Vec<u64> = m.histogram("lat").buckets.iter().map(|b| b.0).collect();
        let mut sorted = ubs.clone();
        sorted.sort_unstable();
        assert_eq!(ubs, sorted);
        assert_eq!(m.histogram("lat").count, 3);
        assert!((64..=127).contains(&m.histogram("lat").quantile(0.01)));
        assert!((4096..=8191).contains(&m.histogram("lat").quantile(1.0)));
    }

    #[test]
    fn diff_subtracts_histograms() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record(7);
        let base = reg.snapshot();
        h.record(9);
        let d = reg.snapshot().diff(&base);
        assert_eq!(d.histogram("lat").count, 1);
        assert_eq!(d.histogram("lat").sum, 9);
    }
}
