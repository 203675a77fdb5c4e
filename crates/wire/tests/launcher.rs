//! End-to-end tests of `offload-run` driving real rank processes over
//! Unix-domain sockets, using the `wire-victim` fixture binary.
//!
//! These spawn child processes (cargo provides the binary paths via
//! `CARGO_BIN_EXE_*`), so they are integration tests, excluded from the
//! Miri and model-checker lanes by construction (those run lib tests of
//! other crates only).

use std::process::Command;

fn offload_run() -> &'static str {
    env!("CARGO_BIN_EXE_offload-run")
}

fn victim() -> &'static str {
    env!("CARGO_BIN_EXE_wire-victim")
}

#[test]
fn four_ranks_ring_exchange_over_uds() {
    let out = Command::new(offload_run())
        .args(["-n", "4", "--timeout", "60", victim()])
        .env("WIRE_VICTIM_MODE", "ok")
        .output()
        .expect("offload-run spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "launcher failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for r in 0..4 {
        assert!(
            stdout.contains(&format!("rank {r} ok")),
            "rank {r} missing from output:\n{stdout}\nstderr:\n{stderr}"
        );
    }
    assert!(
        stderr.contains("all 4 rank(s) ok"),
        "summary line:\n{stderr}"
    );
}

#[test]
fn two_ranks_over_tcp() {
    let out = Command::new(offload_run())
        .args(["-n", "2", "--timeout", "60", "--tcp", victim()])
        .env("WIRE_VICTIM_MODE", "ok")
        .output()
        .expect("offload-run spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "tcp launcher failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("rank 0 ok") && stdout.contains("rank 1 ok"));
}

/// The robustness satellite: a rank SIGKILLed mid-rendezvous must surface
/// as `PeerLost` on its peers within the configured timeout (not a hang),
/// and the launcher must name the failed rank.
#[test]
fn sigkilled_rank_mid_rendezvous_reports_peer_lost() {
    let out = Command::new(offload_run())
        .args(["-n", "2", "--timeout", "60", victim()])
        .env("WIRE_VICTIM_MODE", "kill")
        // Keep the backstop well under the launcher timeout so a detection
        // failure shows as the rank erroring out, not the job timing out.
        .env("WIRE_TIMEOUT_MS", "10000")
        .output()
        .expect("offload-run spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Rank 0 saw the death as a clean PeerLost error…
    assert!(
        stdout.contains("peer lost detected: rank 1"),
        "rank 0 did not observe PeerLost\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // …the launcher reports the victim (killed by SIGKILL = signal 9)…
    assert!(
        stderr.contains("rank 1 killed by signal 9"),
        "launcher did not attribute the death\nstderr:\n{stderr}"
    );
    // …and the job as a whole is reported as failed.
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
}

/// The same robustness property lifted to offloaded collectives: a rank
/// SIGKILLed while its peer is inside a wire-backed allreduce schedule
/// must surface as `PeerLost` on the collective's own handle — through
/// the offload thread and the request pool — not as a hang or a panic.
#[test]
fn sigkilled_rank_mid_allreduce_reports_peer_lost() {
    let out = Command::new(offload_run())
        .args(["-n", "2", "--timeout", "60", victim()])
        .env("WIRE_VICTIM_MODE", "kill-allreduce")
        // Backstop well under the launcher timeout: a detection failure
        // shows as the rank erroring out, not the job timing out.
        .env("WIRE_TIMEOUT_MS", "10000")
        .output()
        .expect("offload-run spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("peer lost detected in allreduce: rank 1"),
        "rank 0 did not observe PeerLost in the collective\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("rank 1 killed by signal 9"),
        "launcher did not attribute the death\nstderr:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
}

/// The stats-aggregation satellite: a rank SIGKILLed mid-run must appear
/// in the final JSON report as dead, with its last received snapshot, and
/// the launcher exit code must be nonzero.
#[test]
fn stats_report_marks_sigkilled_rank_dead_with_last_snapshot() {
    let report = std::env::temp_dir().join(format!("wire-stats-kill-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let out = Command::new(offload_run())
        .args([
            "-n",
            "2",
            "--timeout",
            "60",
            "--stats-interval",
            "25",
            "--stats-out",
            report.to_str().expect("utf8 path"),
            victim(),
        ])
        .env("WIRE_VICTIM_MODE", "kill")
        .env("WIRE_TIMEOUT_MS", "10000")
        .output()
        .expect("offload-run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "nonzero exit\nstderr:\n{stderr}"
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    // Structurally valid for 2 ranks (no positive-metric requirements:
    // which metrics moved before the kill is timing-dependent).
    wire::stats::validate_report(&text, 2, &[], &[]).expect("report validates");
    let doc = obs::chrome::parse_json(&text).expect("report parses");
    let rows = match doc.get("ranks") {
        Some(obs::chrome::Json::Arr(a)) => a,
        other => panic!("no ranks array: {other:?}"),
    };
    let dead_row = rows
        .iter()
        .find(|r| r.get("rank").and_then(|j| j.as_num()) == Some(1.0))
        .expect("rank 1 present");
    assert_eq!(
        dead_row.get("dead"),
        Some(&obs::chrome::Json::Bool(true)),
        "rank 1 marked dead:\n{text}"
    );
    assert!(
        dead_row
            .get("outcome")
            .and_then(|j| j.as_str())
            .is_some_and(|s| s.contains("signal 9")),
        "outcome names the signal:\n{text}"
    );
    // The victim polled progress before dying, so its initial snapshot
    // arrived: the report carries evidence from before the death.
    assert!(
        dead_row
            .get("snapshots")
            .and_then(|j| j.as_num())
            .is_some_and(|n| n >= 1.0),
        "last snapshot collected before the kill:\n{text}"
    );
    assert!(
        stderr.contains("rank 1 died"),
        "launcher flags the death in its epilogue:\nstderr:\n{stderr}"
    );
    let _ = std::fs::remove_file(&report);
}

/// The straggler acceptance case: a rank whose progress engine is wedged
/// (pending op, no advancement) is reported with stall evidence before
/// any timeout fires — the job itself still exits 0.
#[test]
fn stalled_rank_is_flagged_as_straggler_with_evidence() {
    let report = std::env::temp_dir().join(format!("wire-stats-stall-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let out = Command::new(offload_run())
        .args([
            "-n",
            "2",
            "--timeout",
            "60",
            "--stats-interval",
            "25",
            "--stall-ms",
            "100",
            "--stats-out",
            report.to_str().expect("utf8 path"),
            victim(),
        ])
        .env("WIRE_VICTIM_MODE", "stall")
        .output()
        .expect("offload-run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "stalling is not dying — job exits 0\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("rank 1 STRAGGLER"),
        "straggler flagged\nstderr:\n{stderr}"
    );
    // The rank's own watchdog line surfaced through stderr prefixing too.
    assert!(
        stderr.contains("[rank 1] wire: rank 1 progress stalled"),
        "rank-side watchdog line\nstderr:\n{stderr}"
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    wire::stats::validate_report(&text, 2, &[], &[]).expect("report validates");
    let doc = obs::chrome::parse_json(&text).expect("report parses");
    let rows = match doc.get("ranks") {
        Some(obs::chrome::Json::Arr(a)) => a,
        other => panic!("no ranks array: {other:?}"),
    };
    let straggler = rows
        .iter()
        .find(|r| r.get("rank").and_then(|j| j.as_num()) == Some(1.0))
        .expect("rank 1 present");
    let stall = straggler.get("stall").expect("stall field");
    assert!(
        stall
            .get("stalled_ms")
            .and_then(|j| j.as_num())
            .is_some_and(|ms| ms >= 100.0),
        "stall evidence carries the window:\n{text}"
    );
    assert!(
        stall.get("pending_ops").and_then(|j| j.as_num()) == Some(1.0),
        "one pending op recorded:\n{text}"
    );
    let _ = std::fs::remove_file(&report);
}

/// Run `wire-victim` under the launcher with the stats plane on and hand
/// back the parsed report.
fn launch_for_report(tag: &str, launch: &[&str], mode: &str) -> (String, obs::chrome::Json) {
    let report = std::env::temp_dir().join(format!("wire-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let out = Command::new(offload_run())
        .args(launch)
        .args(["--timeout", "60", "--stats-interval", "25", "--stats-out"])
        .arg(&report)
        .arg(victim())
        .env("WIRE_VICTIM_MODE", mode)
        .output()
        .expect("offload-run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "job exits 0\nstderr:\n{stderr}");
    let text = std::fs::read_to_string(&report).expect("report written");
    let _ = std::fs::remove_file(&report);
    let doc = obs::chrome::parse_json(&text).expect("report parses");
    (text, doc)
}

fn rank_rows(doc: &obs::chrome::Json) -> &[obs::chrome::Json] {
    match doc.get("ranks") {
        Some(obs::chrome::Json::Arr(a)) => a,
        other => panic!("no ranks array: {other:?}"),
    }
}

/// The flat world — no `--relay` — is the star the plane began as: every
/// rank its own collector connection, its own row, its own metrics, and
/// no `relay` section.
#[test]
fn flat_world_reports_every_rank_with_its_own_metrics() {
    let (text, doc) = launch_for_report("flat4", &["-n", "4"], "ok");
    wire::stats::validate_report(&text, 4, &[], &[]).expect("report validates");
    assert_eq!(
        doc.get("relay"),
        Some(&obs::chrome::Json::Null),
        "no subtree anywhere:\n{text}"
    );
    let rows = rank_rows(&doc);
    assert_eq!(rows.len(), 4);
    for row in rows {
        let num = |key: &str| row.get(key).and_then(|j| j.as_num());
        assert!(num("snapshots") >= Some(1.0), "own frames:\n{text}");
        #[cfg(feature = "obs-enabled")]
        {
            let metrics = row.get("metrics").expect("metrics");
            let sent = metrics.get("wire.frames_tx").and_then(|j| j.as_num());
            assert!(sent > Some(0.0), "own, non-empty metrics:\n{text}");
        }
    }
    #[cfg(feature = "obs-enabled")]
    wire::stats::validate_report(&text, 4, &["wire.rndv_tx".into()], &[])
        .expect("every rank's own row carries its rendezvous send");
}

/// Evidence is never averaged away: in a 12-rank `--relay 3` tree a
/// depth-2 rank's `Stall` frame is forwarded verbatim by two relays and
/// lands on that rank's own report row, beside — not inside — the merge
/// that covers it.
#[test]
fn depth_two_stall_evidence_reaches_its_own_row_through_the_tree() {
    let (text, doc) = launch_for_report(
        "tree12",
        &["-n", "12", "--relay", "3", "--stall-ms", "100"],
        "stall",
    );
    let checks = wire::stats::ReportChecks {
        ranks: 12,
        relay_depth_min: Some(2),
        ..Default::default()
    };
    wire::stats::validate_report_checks(&text, &checks).expect("depth 2, coverage 12");
    let rows = rank_rows(&doc);
    // Rank 11's parent is 3, whose parent is 0: two hops from the root.
    let deep = rows
        .iter()
        .find(|r| r.get("rank").and_then(|j| j.as_num()) == Some(11.0))
        .expect("rank 11 present");
    let stall = deep.get("stall").expect("stall field");
    assert!(
        stall
            .get("stalled_ms")
            .and_then(|j| j.as_num())
            .is_some_and(|ms| ms >= 100.0),
        "rank 11's own evidence:\n{text}"
    );
    assert_eq!(
        deep.get("snapshots").and_then(|j| j.as_num()),
        Some(0.0),
        "it never dialed the collector: only the root's frames are counted"
    );
    #[cfg(feature = "obs-enabled")]
    assert_eq!(
        deep.get("metrics")
            .and_then(|m| m.get("wire.stalls"))
            .and_then(|j| j.as_num()),
        Some(1.0),
        "its own snapshot at the stall, not the subtree's sum:\n{text}"
    );
}

/// A job that outlives `--timeout` is killed and reported, not left
/// wedged: one rank bootstraps and then sleeps forever.
#[test]
fn hung_job_is_killed_at_timeout() {
    let out = Command::new(offload_run())
        .args(["-n", "2", "--timeout", "3", victim()])
        .env("WIRE_VICTIM_MODE", "hang")
        .output()
        .expect("offload-run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("timed out"),
        "timeout not reported\nstderr:\n{stderr}"
    );
}
