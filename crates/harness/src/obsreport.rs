//! Metric snapshots in benchmark reports, and the `--trace <path>` hook.
//!
//! Experiments capture an [`obs::Snapshot`] per phase (via
//! `Comm::obs_registry` / `Comm::offload_service_obs`), diff consecutive
//! snapshots to attribute activity to the phase, and append the result to
//! the same table/CSV reports the timing numbers go to.

use crate::table::Table;

/// Render a snapshot (usually a [`obs::Snapshot::diff`]) as a two-column
/// metric/value table, ready for [`Table::print`] or [`Table::to_csv`].
pub fn metrics_table(snap: &obs::Snapshot) -> Table {
    let mut t = Table::new(vec!["metric", "value"]);
    for (name, value) in snap.render_lines() {
        t.row(vec![name, value]);
    }
    t
}

/// Append a snapshot to an existing report table as `[phase] metric` rows.
/// The table must have exactly two columns.
pub fn append_metrics(table: &mut Table, phase: &str, snap: &obs::Snapshot) {
    for (name, value) in snap.render_lines() {
        table.row(vec![format!("[{phase}] {name}"), value]);
    }
}

/// Parse a `--trace <path>` (or `--trace=<path>`) argument from the process
/// command line. Returns `None` when absent so callers can skip recording
/// entirely.
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    trace_path_from(std::env::args().skip(1))
}

fn trace_path_from(args: impl Iterator<Item = String>) -> Option<std::path::PathBuf> {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(Into::into);
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.into());
        }
    }
    None
}

/// Write `recorder` as Chrome trace JSON to `path` and echo where it went.
/// A disabled recorder still writes a valid (empty) trace. An unwritable
/// path is reported, not panicked on — the run's results still stand.
pub fn dump_trace(recorder: &obs::Recorder, path: &std::path::Path) {
    match recorder.write_chrome_json(path) {
        Ok(()) => println!(
            "[trace written to {} — open in https://ui.perfetto.dev]",
            path.display()
        ),
        Err(e) => eprintln!("[could not write trace to {}: {e}]", path.display()),
    }
}

/// Per-process trace dump for multi-process (wire) runs: writes
/// `{prefix}-rank{rank}.json` and stamps the recorder's process identity
/// first, so the per-rank files can be merged into one timeline (see
/// [`merge_traces`]) without rank 0's thread ids colliding with rank 1's.
pub fn dump_trace_prefixed(recorder: &obs::Recorder, prefix: &str, rank: usize) {
    recorder.set_process(
        rank as u32,
        &format!("rank {rank} (pid {})", std::process::id()),
    );
    dump_trace(
        recorder,
        std::path::Path::new(&format!("{prefix}-rank{rank}.json")),
    );
}

/// Merge Chrome trace documents (as emitted by this stack) into one by
/// concatenating their `traceEvents` arrays. Ranks recorded via
/// [`dump_trace_prefixed`] occupy distinct pids, so the merged view shows
/// one process row per rank.
pub fn merge_traces<'a>(docs: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for doc in docs {
        let Some(start) = doc.find("\"traceEvents\":[") else {
            continue;
        };
        let body = &doc[start + "\"traceEvents\":[".len()..];
        let Some(end) = body.rfind(']') else { continue };
        let body = &body[..end];
        if body.trim().is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(body);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_flag_both_spellings() {
        let sep = trace_path_from(
            ["--iters", "3", "--trace", "/tmp/t.json"]
                .map(String::from)
                .into_iter(),
        );
        assert_eq!(sep.unwrap().to_str(), Some("/tmp/t.json"));
        let eq = trace_path_from(["--trace=/tmp/u.json"].map(String::from).into_iter());
        assert_eq!(eq.unwrap().to_str(), Some("/tmp/u.json"));
        assert!(trace_path_from(["--quiet"].map(String::from).into_iter()).is_none());
    }

    #[cfg(feature = "obs-enabled")]
    #[test]
    fn merged_ranks_keep_distinct_pids() {
        let mut docs = Vec::new();
        for rank in 0..3u32 {
            let rec = obs::Recorder::wall();
            rec.set_process(rank, &format!("rank {rank}"));
            let t = rec.track(0, 7, "app");
            t.instant("tick");
            docs.push(rec.to_chrome_json());
        }
        let merged = merge_traces(docs.iter().map(String::as_str));
        let events = obs::chrome::validate_chrome_trace(&merged).expect("merged trace valid");
        let pids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.pid).collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        obs::chrome::check_monotone_per_track(&events).expect("per-track monotone");
    }

    #[test]
    fn merge_of_empty_traces_is_valid() {
        let rec = obs::Recorder::disabled();
        let doc = rec.to_chrome_json();
        let merged = merge_traces([doc.as_str(), doc.as_str()]);
        assert!(obs::chrome::validate_chrome_trace(&merged)
            .expect("valid")
            .is_empty());
    }

    #[cfg(feature = "obs-enabled")]
    #[test]
    fn metrics_rows_round_trip_to_csv() {
        let reg = obs::Registry::default();
        reg.counter("queue.push_ok").add(3);
        reg.gauge("queue.depth").set(2);
        let t = metrics_table(&reg.snapshot());
        let csv = t.to_csv();
        assert!(csv.contains("queue.push_ok,3"), "csv was: {csv}");
        let mut report = Table::new(vec!["metric", "value"]);
        append_metrics(&mut report, "compute", &reg.snapshot());
        assert!(report.render().contains("[compute] queue.push_ok"));
    }

    #[cfg(feature = "obs-enabled")]
    #[test]
    fn metric_tables_carry_tail_percentiles() {
        let reg = obs::Registry::default();
        let h = reg.histogram("svc.batch");
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        let csv = metrics_table(&reg.snapshot()).to_csv();
        assert!(
            csv.contains("p50=") && csv.contains("p95=") && csv.contains("p99="),
            "histogram row must expose tail percentiles, csv was: {csv}"
        );
    }
}
