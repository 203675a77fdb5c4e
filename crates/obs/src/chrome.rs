//! Chrome trace-event JSON: emission from a [`Recorder`] (through the
//! workspace's one writer, [`crate::json`]) and a structural validator.
//!
//! The emitted document is the "JSON Object Format" of the Trace Event
//! spec: `{"traceEvents": [...], "displayTimeUnit": "ns"}`, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Timestamps
//! (`ts`) and durations (`dur`) are microseconds with fractional ns.

use crate::json::{Layout, Writer};
use crate::trace::Recorder;

pub use crate::json::{parse as parse_json, Json};

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// A nanosecond reading as the spec's microseconds: µs with ns
/// resolution, no float formatting surprises.
#[cfg(feature = "enabled")]
struct Micros(u64);

#[cfg(feature = "enabled")]
impl crate::json::Value for Micros {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{}.{:03}", self.0 / 1000, self.0 % 1000);
    }
}

/// Serialize every track of `rec` as Chrome trace events. Each track
/// contributes a `thread_name` metadata event plus its ring contents, in
/// recorded order (monotone per track under the virtual clock).
pub fn to_chrome_json(rec: &Recorder) -> String {
    let mut w = Writer::new();
    w.object(Layout::Compact, |w| {
        w.key("traceEvents")
            .array(Layout::Compact, |w| emit_tracks(rec, w));
        w.field("displayTimeUnit", "ns");
    });
    w.finish()
}

#[cfg(feature = "enabled")]
fn emit_tracks(rec: &Recorder, w: &mut Writer) {
    let metadata =
        |w: &mut Writer, what: &str, pid: u32, tid: u32, name: &str, dropped: Option<u64>| {
            w.object(Layout::Compact, |w| {
                w.field("ph", "M").field("name", what);
                w.field("pid", pid).field("tid", tid).field("ts", 0u32);
                w.key("args").object(Layout::Compact, |w| {
                    w.field("name", name);
                    if let Some(n) = dropped {
                        w.field("dropped", n);
                    }
                });
            });
        };
    // Multi-process identity: when set, the recorder's process pid (the
    // rank) overrides every track's registered pid, and the process row
    // itself gets named — per-rank traces then merge without colliding.
    let process = rec.process();
    if let Some((pid, name)) = &process {
        metadata(w, "process_name", *pid, 0, name, None);
    }
    rec.for_each_track(|t| {
        let pid = process.as_ref().map_or(t.pid, |(p, _)| *p);
        // Surface ring overwrites so a truncated trace is never mistaken
        // for a complete one.
        // ORDERING: Relaxed — monotone diagnostic counter; the events ring
        // itself is read under its mutex.
        let dropped = t.dropped.load(std::sync::atomic::Ordering::Relaxed);
        metadata(w, "thread_name", pid, t.tid, &t.label, Some(dropped));
        for ev in t.events.lock().expect("obs track ring").iter() {
            w.object(Layout::Compact, |w| {
                let flow = match ev.flow {
                    crate::trace::FlowPhase::None => None,
                    crate::trace::FlowPhase::Start => Some("s"),
                    crate::trace::FlowPhase::Step => Some("t"),
                    crate::trace::FlowPhase::Finish => Some("f"),
                };
                match flow {
                    None if ev.dur_ns == 0 => w.field("ph", "i").field("s", "t"),
                    None => w.field("ph", "X"),
                    // Causal flow events: `bp:"e"` binds the arrow end to
                    // the enclosing slice so Perfetto draws it even when
                    // the finish lands between slices.
                    Some(ph) => {
                        w.field("ph", ph);
                        if ph == "f" {
                            w.field("bp", "e");
                        }
                        w.field("cat", "flow").field("id", ev.flow_id)
                    }
                };
                w.field("pid", pid).field("tid", t.tid);
                w.field("ts", Micros(ev.ts_ns));
                if flow.is_none() && ev.dur_ns != 0 {
                    w.field("dur", Micros(ev.dur_ns));
                }
                w.field("name", ev.name);
            });
        }
    });
}

#[cfg(not(feature = "enabled"))]
fn emit_tracks(_rec: &Recorder, _w: &mut Writer) {}

/// One validated trace event (non-metadata rows carry timestamps).
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    pub name: String,
    pub ph: String,
    pub ts_us: f64,
    pub dur_us: Option<f64>,
    pub pid: u32,
    pub tid: u32,
    /// Flow binding id (`ph` is `s`/`t`/`f`), absent on ordinary events.
    pub id: Option<u64>,
}

/// Structural validation of a Chrome trace document: a top-level object
/// with a `traceEvents` array whose members each carry `ph` (string),
/// `ts` (number), `pid`/`tid` (numbers), and `name` (string). Returns the
/// events in array order so callers can additionally assert per-track
/// timestamp monotonicity.
pub fn validate_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = parse_json(text)?;
    let events = doc.get("traceEvents").ok_or("missing `traceEvents` key")?;
    let items = match events {
        Json::Arr(items) => items,
        _ => return Err("`traceEvents` is not an array".into()),
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, ev) in items.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: bad or missing `{field}`");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("ph"))?;
        if ph.is_empty() {
            return Err(ctx("ph"));
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("ts"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("tid"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
        if matches!(ph, "s" | "t" | "f") && ev.get("id").is_none() {
            return Err(format!("event {i}: flow event without an `id`"));
        }
        out.push(ChromeEvent {
            name: name.to_string(),
            ph: ph.to_string(),
            ts_us: ts,
            dur_us: ev.get("dur").and_then(Json::as_num),
            pid: pid as u32,
            tid: tid as u32,
            id: ev.get("id").and_then(Json::as_num).map(|n| n as u64),
        });
    }
    Ok(out)
}

/// Assert that non-metadata events on each `(pid, tid)` track have
/// non-decreasing timestamps — the DES virtual-clock invariant.
pub fn check_monotone_per_track(events: &[ChromeEvent]) -> Result<(), String> {
    let mut last: std::collections::BTreeMap<(u32, u32), f64> = Default::default();
    for (i, ev) in events.iter().enumerate() {
        if ev.ph == "M" {
            continue;
        }
        let key = (ev.pid, ev.tid);
        if let Some(&prev) = last.get(&key) {
            if ev.ts_us < prev {
                return Err(format!(
                    "event {i} ({}) on track {key:?}: ts {} < previous {}",
                    ev.name, ev.ts_us, prev
                ));
            }
        }
        last.insert(key, ev.ts_us);
    }
    Ok(())
}

/// Assert that every flow id with a `ph:"s"` start also has a `ph:"f"`
/// finish and vice versa — a dangling arrow means a protocol exchange was
/// recorded half-done. Returns the number of distinct matched flows.
pub fn check_flow_pairs(events: &[ChromeEvent]) -> Result<usize, String> {
    let mut starts: std::collections::BTreeSet<u64> = Default::default();
    let mut finishes: std::collections::BTreeSet<u64> = Default::default();
    for ev in events {
        let Some(id) = ev.id else { continue };
        match ev.ph.as_str() {
            "s" => {
                starts.insert(id);
            }
            "f" => {
                finishes.insert(id);
            }
            _ => {}
        }
    }
    if let Some(id) = starts.difference(&finishes).next() {
        return Err(format!("flow {id:#x} started but never finished"));
    }
    if let Some(id) = finishes.difference(&starts).next() {
        return Err(format!("flow {id:#x} finished but never started"));
    }
    Ok(starts.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_documents() {
        assert!(validate_chrome_trace(r#"{"traceEvents":{}}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
    }

    #[test]
    fn empty_recorder_exports_valid_trace() {
        let rec = Recorder::disabled();
        let events = validate_chrome_trace(&rec.to_chrome_json()).expect("valid");
        assert!(events.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn recorded_events_roundtrip_and_stay_monotone() {
        let rec = Recorder::virtual_clock();
        let track = rec.track(3, 1, "offload-3");
        track.instant_at("wakeup", 100);
        track.complete_at("drain", 100, 350);
        track.instant_at("sweep", 400);
        let json = rec.to_chrome_json();
        let events = validate_chrome_trace(&json).expect("valid trace");
        // thread_name metadata + 3 events
        assert_eq!(events.len(), 4);
        check_monotone_per_track(&events).expect("monotone");
        let drain = events.iter().find(|e| e.name == "drain").expect("drain");
        assert_eq!(drain.ph, "X");
        assert!((drain.ts_us - 0.1).abs() < 1e-9);
        assert_eq!(drain.dur_us, Some(0.25));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn process_identity_overrides_track_pids() {
        let rec = Recorder::virtual_clock();
        // Tracks registered with the in-process default pid 0…
        let a = rec.track(0, 1, "app");
        let b = rec.track(0, 2, "offload");
        a.instant_at("post", 10);
        b.complete_at("drain", 20, 30);
        // …then the process learns it is rank 3 of a multi-process job.
        rec.set_process(3, "rank 3 (pid 4711)");
        let json = rec.to_chrome_json();
        let events = validate_chrome_trace(&json).expect("valid trace");
        assert!(
            events.iter().all(|e| e.pid == 3),
            "all events re-stamped with the rank pid: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.ph == "M" && e.name == "process_name"),
            "process_name metadata present"
        );
        assert!(json.contains("rank 3 (pid 4711)"));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn flow_events_roundtrip_with_ids_and_pair_up() {
        let rec = Recorder::wall();
        let sender = rec.track(0, 1, "rank0");
        let receiver = rec.track(1, 2, "rank1");
        sender.flow_start("rndv", 0xdead_0001);
        receiver.flow_step("rndv", 0xdead_0001);
        receiver.flow_finish("rndv", 0xdead_0001);
        let events = validate_chrome_trace(&rec.to_chrome_json()).expect("valid");
        let flows: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "s" | "t" | "f"))
            .collect();
        assert_eq!(flows.len(), 3);
        assert!(flows.iter().all(|e| e.id == Some(0xdead_0001)));
        assert_eq!(check_flow_pairs(&events).expect("paired"), 1);
    }

    #[test]
    fn dangling_flow_is_rejected() {
        let one = |ph: &str| ChromeEvent {
            name: "rndv".into(),
            ph: ph.into(),
            ts_us: 1.0,
            dur_us: None,
            pid: 0,
            tid: 0,
            id: Some(9),
        };
        assert!(check_flow_pairs(&[one("s")]).is_err(), "unfinished");
        assert!(check_flow_pairs(&[one("f")]).is_err(), "unstarted");
        assert_eq!(check_flow_pairs(&[one("s"), one("f")]), Ok(1));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn ring_buffer_drops_oldest_and_keeps_tail() {
        let rec = Recorder::with_track_capacity(crate::trace::Clock::Virtual, 16);
        let track = rec.track(0, 0, "ring");
        for i in 0..100u64 {
            track.instant_at("tick", i);
        }
        let events = validate_chrome_trace(&rec.to_chrome_json()).expect("valid");
        let ticks: Vec<_> = events.iter().filter(|e| e.ph == "i").collect();
        assert_eq!(ticks.len(), 16);
        // flight-recorder semantics: the *latest* events survive
        assert!((ticks.last().expect("tail").ts_us - 0.099).abs() < 1e-9);
        check_monotone_per_track(&events).expect("monotone");
    }
}
