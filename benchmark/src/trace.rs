//! Spans recorded from the benchmark's side of the public API, kept in a
//! preallocated buffer while the run measures and written as Chrome
//! trace-event JSON when it ends (`--out`; open in Perfetto or
//! `chrome://tracing`).
//!
//! Every span carries the round it belongs to and the span that caused
//! it; a span's self time is its duration minus what its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Layer boundaries the generator can see from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One closed-loop round: first post → last handle verified.
    Round,
    /// `app`: the calls that post the round's operations.
    Post,
    /// `peer`: the remote ranks posting their side.
    PeerStart,
    /// `app`: the fixed compute kernel (overlap workload).
    Compute,
    /// `app`: test/wait until every handle of the round completed.
    Wait,
    /// `peer`: one turn of the remote ranks on the generator's CPU.
    PeerPump,
}

pub const NAMES: [Name; 6] = [
    Name::Round,
    Name::Post,
    Name::PeerStart,
    Name::Compute,
    Name::Wait,
    Name::PeerPump,
];

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Round => "round",
            Name::Post => "app.post",
            Name::PeerStart => "peer.start",
            Name::Compute => "app.compute",
            Name::Wait => "app.wait",
            Name::PeerPump => "peer.pump",
        }
    }
}

/// Index of a span in its [`Tracer`]; [`NO_PARENT`] for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub round: u32,
    pub parent: SpanId,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    /// Spans that found the buffer full (the buffer never grows while the
    /// run measures: growing would allocate inside a timed round).
    pub dropped: u64,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Room for one more round's worth of spans?
    pub fn has_room(&self, spans: usize) -> bool {
        self.spans.len() + spans <= self.cap
    }

    /// Open a span at `start`; [`NO_PARENT`] (which [`Tracer::close`]
    /// ignores and children may name as their parent) when the buffer is
    /// full.
    pub fn open(&mut self, name: Name, round: u64, parent: SpanId, start: Instant) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            round: round as u32,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.dur_ns =
                (end.duration_since(self.epoch).as_nanos() as u64).saturating_sub(s.start_ns);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the sum of its direct
/// children's (children of one span never overlap here — one thread
/// records them all), floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = own.get_mut(s.parent as usize) {
            *p = p.saturating_sub(s.dur_ns);
        }
    }
    own
}

/// Mean self time per round, in microseconds, of each span name.
pub fn self_us_per_round(spans: &[Span]) -> Vec<(Name, f64)> {
    let own = self_times(spans);
    let rounds = spans
        .iter()
        .filter(|s| s.name == Name::Round)
        .count()
        .max(1);
    NAMES
        .iter()
        .map(|&n| {
            let total: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == n)
                .map(|(_, o)| *o)
                .sum();
            (n, total as f64 / 1e3 / rounds as f64)
        })
        .collect()
}

/// Chrome trace-event JSON: one complete (`"X"`) event per span on one
/// track, `args` carrying the shared round id, the causing span and the
/// self time.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(64 + spans.len() * 150);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"generator ({workload})\"}}}}"
    );
    for (i, (s, own_ns)) in spans.iter().zip(&own).enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"round\":{},\"parent\":{},\"self_ns\":{}}}}}",
            s.name.as_str(),
            s.name.as_str().split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            i,
            s.round,
            if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            own_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer_with_one_round() -> Tracer {
        let mut t = Tracer::new(16);
        let e = t.epoch;
        let at = |us: u64| e + Duration::from_micros(us);
        // round 0..100; post 0..10; wait 10..100 with pumps 20..30, 50..70.
        let r = t.open(Name::Round, 7, NO_PARENT, at(0));
        let p = t.open(Name::Post, 7, r, at(0));
        t.close(p, at(10));
        let w = t.open(Name::Wait, 7, r, at(10));
        for (a, b) in [(20, 30), (50, 70)] {
            let pump = t.open(Name::PeerPump, 7, w, at(a));
            t.close(pump, at(b));
        }
        t.close(w, at(100));
        t.close(r, at(100));
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer_with_one_round();
        let own = self_times(t.spans());
        // round: 100 − (10 + 90) = 0; wait: 90 − 30 = 60; leaves keep all.
        assert_eq!(own, vec![0, 10_000, 60_000, 10_000, 20_000]);
        let per = self_us_per_round(t.spans());
        let get = |n: Name| per.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(get(Name::Wait), 60.0);
        assert_eq!(get(Name::PeerPump), 30.0);
        assert_eq!(get(Name::Compute), 0.0);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut t = Tracer::new(1);
        let e = t.epoch;
        assert!(t.has_room(1));
        assert_eq!(t.open(Name::Round, 0, NO_PARENT, e), 0);
        assert!(!t.has_room(1));
        let lost = t.open(Name::Round, 1, NO_PARENT, e);
        assert_eq!(lost, NO_PARENT);
        t.close(lost, e);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn chrome_json_is_well_formed_and_carries_round_ids() {
        let t = tracer_with_one_round();
        let json = chrome_json("eager_pingpong_uds", t.spans());
        let events = obs::chrome::validate_chrome_trace(&json).expect("valid Chrome trace");
        assert_eq!(events.len(), 6);
        assert_eq!(json.matches("\"round\":7").count(), 5);
        assert!(json.contains("\"parent\":-1"));
        assert!(json.contains("\"self_ns\":60000"));
    }
}
