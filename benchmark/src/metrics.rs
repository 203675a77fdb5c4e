//! The metric tables: every name the benchmark prints, with its unit and
//! direction, and for the end-to-end metrics the bound. `BENCHMARK.json`
//! is written from these tables (`opbench --manifest`) and a self-test
//! holds the committed file to them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression — and by which two sets of runs of the
    /// same code may disagree before the benchmark itself is at fault.
    /// One number per metric, so sized from the worst workload's
    /// run-to-run spread on a bad hour of the shared 2-CPU box this was
    /// written on (README, "Repeatability"), not from what one would like
    /// to detect.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures for (some 8 000 slices of 2 ms).
pub const RUN_SECONDS: u32 = 18;

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_us.p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "post_ns.p50",
        unit: "ns",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "offload_cpu_us_per_round",
        unit: "us",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Grouped by layer (= module), in the order of the README's glossary.
pub const PER_LAYER: [PerLayer; 74] = [
    // app: the generator's view of `OffloadHandle`.
    lo("app.post_ns.p50", "ns"),
    lo("app.post_ns.p99", "ns"),
    lo("app.test_ns.p50", "ns"),
    lo("app.wait_us.p50", "us"),
    lo("app.wait_us.p99", "us"),
    lo("app.compute_us.p50", "us"),
    lo("app.exposed_us.p50", "us"),
    lo("app.round_us.p99", "us"),
    hi("app.rounds", "count"),
    lo("fail_ratio", "ratio"),
    // peer: playing the remote ranks on the generator's CPU.
    lo("peer.pump_us_per_round", "us"),
    lo("peer.progress_calls_per_round", "count"),
    // offload.live: the service loop.
    lo("offload.service_iters_per_round", "count"),
    lo("offload.progress_polls_per_round", "count"),
    lo("offload.testany_sweeps_per_round", "count"),
    lo("offload.idle_yields_per_round", "count"),
    lo("offload.parks_per_round", "count"),
    lo("offload.wakes_per_round", "count"),
    hi("offload.drained_per_wakeup.p50", "count"),
    lo("offload.no_advance_streak.hwm", "count"),
    // offload.lane / offload.queue / offload.pool.
    lo("lanes.push_full_per_round", "count"),
    lo("lanes.overflow_push_per_round", "count"),
    lo("pool.occupancy.hwm", "count"),
    lo("lane.push_drain_ns", "ns"),
    lo("queue.push_pop_ns", "ns"),
    lo("pool.alloc_complete_take_ns", "ns"),
    // offload.backoff.
    lo("offload.vol_ctxsw_per_round", "count"),
    lo("offload.nonvol_ctxsw_per_kround", "count"),
    // rtmpi.
    lo("rtmpi.match_ns", "ns"),
    // wire.engine.
    lo("wire.progress_polls_per_round", "count"),
    lo("wire.rndv_tx_per_round", "count"),
    hi("wire.rndv_handshake_async_per_round", "count"),
    lo("wire.rndv_handshake_at_wait_per_round", "count"),
    lo("wire.coll_tx_per_round", "count"),
    lo("wire.eager_alloc_per_round", "count"),
    lo("wire.protocol_errors", "count"),
    lo("engine.direct_round_us", "us"),
    lo("engine.progress_idle_ns.n2", "ns"),
    lo("engine.progress_idle_ns.n4", "ns"),
    // wire.fabric / wire.regpool / wire.proto.
    lo("wire.writev_frames_per_round", "count"),
    lo("wire.regpool.leases_per_round", "count"),
    lo("wire.regpool.heap_alloc_per_round", "count"),
    lo("offload.sys_frac", "ratio"),
    lo("regpool.lease_recycle_ns", "ns"),
    lo("proto.header_codec_ns", "ns"),
    hi("memcpy_MBps.256KiB", "MB/s"),
    lo("bulk.memcpy_equiv", "ratio"),
    // wire.shm / shmring.
    lo("wire.shm_frames_per_round", "count"),
    lo("wire.shm_doorbell_per_round", "count"),
    lo("shmring.push_pop_ns.1KiB", "ns"),
    hi("shmring.stream_MBps.256KiB", "MB/s"),
    // wire.nbcrun / mpisim.nbc.
    lo("nbc.plan_ns", "ns"),
    lo("nbc.direct_round_us", "us"),
    // alloc: the counting allocator.
    lo("alloc.count_per_round", "count"),
    lo("alloc.bytes_per_round", "count"),
    lo("alloc.offload_count_per_round", "count"),
    lo("alloc.gen_count_per_round", "count"),
    // direct: the paper's comparator.
    lo("direct.baseline_round_us", "us"),
    hi("app.overlap_gain", "ratio"),
    // bench: is the measurement itself healthy?
    lo("bench.threads", "count"),
    hi("bench.pinned", "count"),
    lo("bench.gen_runq_wait_frac", "ratio"),
    lo("bench.offload_runq_wait_frac", "ratio"),
    lo("bench.slice_spread", "ratio"),
    hi("bench.kept_slices_frac", "ratio"),
    hi("bench.full_speed_frac", "ratio"),
    hi("bench.speed_rule", "count"),
    lo("bench.speed_probe_us.floor", "us"),
    lo("bench.trace_overhead_ratio", "ratio"),
    lo("bench.spans_dropped", "count"),
    lo("setup.world_build_s", "s"),
    lo("setup.payload_gen_s", "s"),
    lo("setup.first_rounds_s", "s"),
    lo("setup.teardown_s", "s"),
];

/// Values of one run, by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Bring every time and rate of the tables to the reference clock:
    /// times (`ns`, `us`, `s`) are multiplied by `factor`, rates (`1/s`,
    /// `MB/s`) divided by it; counts and ratios stay, and so do the
    /// `bench.*` diagnostics, which describe the machine as it was.
    pub fn scale_to_reference_clock(&mut self, factor: f64) {
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            let by = match unit {
                _ if name.starts_with("bench.") => continue,
                "ns" | "us" | "s" => factor,
                "1/s" | "MB/s" => 1.0 / factor,
                _ => continue,
            };
            if let Some(v) = self.0.get_mut(name) {
                *v *= by;
            }
        }
    }
}

/// `(name, unit)` of the metrics a run prints: the per-layer table for a
/// traced run, the end-to-end table otherwise.
pub fn rows(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// One `"name": {"value": v, "unit": "u"}` object holding exactly the
/// tabled names, in table order. A name the run never set is a bug in
/// the benchmark, not a zero.
pub fn metrics_json(values: &Values, traced: bool) -> String {
    let rows = rows(traced);
    let mut out = String::from("{");
    for (i, (name, unit)) in rows.iter().enumerate() {
        let v = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"));
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(v)
        );
    }
    out.push('}');
    out
}

/// A JSON number with every digit the `f64` carries (`NaN`/`inf` have no
/// JSON spelling and become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"opbench\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_obey_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(legal_name(n), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in &END_TO_END {
            assert!(legal_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(legal_unit(m.unit), "{}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `opbench --manifest`"
        );
        obs::chrome::parse_json(&committed).expect("valid JSON");
    }

    #[test]
    fn reference_clock_scales_times_and_rates_only() {
        let mut v = Values::default();
        for (name, value) in [
            ("round_us.p50", 100.0),
            ("rounds_per_s", 1000.0),
            ("setup_s", 0.5),
            ("peak_rss_mb", 4.0),
            ("memcpy_MBps.256KiB", 8000.0),
            ("bulk.memcpy_equiv", 3.0),
            ("bench.speed_probe_us.floor", 18.0),
            ("wire.rndv_tx_per_round", 2.0),
        ] {
            v.set(name, value);
        }
        v.scale_to_reference_clock(0.9);
        let got = |n| v.get(n).unwrap();
        assert!((got("round_us.p50") - 90.0).abs() < 1e-9);
        assert!((got("rounds_per_s") - 1000.0 / 0.9).abs() < 1e-9);
        assert!((got("setup_s") - 0.45).abs() < 1e-12);
        assert!((got("memcpy_MBps.256KiB") - 8000.0 / 0.9).abs() < 1e-9);
        for same in [
            "peak_rss_mb",
            "bulk.memcpy_equiv",
            "bench.speed_probe_us.floor",
            "wire.rndv_tx_per_round",
        ] {
            assert_eq!(
                got(same),
                match same {
                    "peak_rss_mb" => 4.0,
                    "bulk.memcpy_equiv" => 3.0,
                    "bench.speed_probe_us.floor" => 18.0,
                    _ => 2.0,
                }
            );
        }
    }

    #[test]
    fn metrics_json_prints_exactly_the_table() {
        let mut v = Values::default();
        for m in &END_TO_END {
            v.set(m.name, 1.25);
        }
        let json = metrics_json(&v, false);
        let doc = obs::chrome::parse_json(&json).expect("valid JSON");
        let obs::chrome::Json::Obj(kvs) = doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = kvs.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(keys, want);
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
