//! What `offload-run` does: spawn `-n` rank processes, wire up their
//! `WIRE_*` environment, babysit them (prefix their stderr, kill the whole
//! job on timeout), reap them, and report per-rank outcomes.
//!
//! Usage: `offload-run -n 4 [--timeout 60] [--tcp] [--shm]
//! [--stats-interval <ms>] [--stats-out <path>] [--stall-ms <ms>]
//! [--relay <arity>] [--packed <ranks-per-process>]
//! [--kill-rank <r> --kill-after-ms <t>] <program> [args...]`
//!
//! With `--stats-interval` (or `--stats-out`) the launcher also runs the
//! cluster observability plane ([`crate::stats`]): it binds `stats.sock`
//! in the bootstrap directory, points ranks at it via `WIRE_STATS_SOCK`,
//! prints a live min/median/max cluster table while the job runs, flags
//! stalled ranks as stragglers, and writes the final JSON report to
//! `--stats-out` (fsync + atomic rename; the temp file is pid-suffixed so
//! concurrent launchers sharing an output directory never collide). The
//! stall watchdog window defaults to `max(250ms, 10 × interval)`;
//! `--stall-ms` overrides it.
//!
//! Every rank reaches the collector through its stats uplink
//! ([`crate::relay`]): directly by default, through the k-ary relay tree
//! with `--relay <k>` (`WIRE_RELAY_ARITY`). `--packed <P>` hosts
//! `P` consecutive ranks per spawned process as multiplexed event loops
//! ([`crate::from_env_packed`]) — how a 64–256-rank world fits in CI.
//! `--kill-rank`/`--kill-after-ms` SIGKILL the process hosting one rank
//! mid-run (fault-injection lanes); the victim's black-box flight
//! recorder dump (`blackbox-<rank>.obb`, persisted periodically by the
//! engine) is harvested into its report row postmortem.
//!
//! Bare program names resolve against the cargo example/binary output
//! directories (`target/{release,debug}/examples`, then
//! `target/{release,debug}`), then `$PATH`; names containing `/` are used
//! as-is.

use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A parsed `offload-run` invocation.
#[derive(Clone, Debug)]
pub struct LaunchSpec {
    pub n: usize,
    pub program: PathBuf,
    pub args: Vec<String>,
    pub timeout: Duration,
    pub tcp: bool,
    /// Negotiate shared-memory segments between ranks (`WIRE_SHM=1`).
    pub shm: bool,
    /// Stats emission period; `Some` turns the observability plane on.
    pub stats_interval: Option<Duration>,
    /// Where to write the final JSON cluster report.
    pub stats_out: Option<PathBuf>,
    /// Progress-stall watchdog window override (milliseconds).
    pub stall_ms: Option<u64>,
    /// Relay-tree arity; `Some` routes stats through the tree, `None`
    /// leaves every rank dialing the collector itself.
    pub relay_arity: Option<u32>,
    /// Ranks hosted per spawned process (`--packed`); None/1 = classic.
    pub packed: Option<usize>,
    /// Fault injection: SIGKILL the process hosting this rank...
    pub kill_rank: Option<usize>,
    /// ...this long after the job starts (default 500ms).
    pub kill_after: Option<Duration>,
}

impl LaunchSpec {
    /// The plane runs if any of its flags were given; `--stats-out` alone
    /// implies the default interval, `--relay` implies the plane.
    fn stats_enabled(&self) -> bool {
        self.stats_interval.is_some() || self.stats_out.is_some() || self.relay_arity.is_some()
    }

    /// Ranks per process: `--packed P` clamped to at least 1.
    fn pack(&self) -> usize {
        self.packed.unwrap_or(1).max(1)
    }

    /// `(base_rank, hosted_count)` per spawned process.
    fn proc_spans(&self) -> Vec<(usize, usize)> {
        let pack = self.pack();
        (0..self.n)
            .step_by(pack)
            .map(|base| (base, pack.min(self.n - base)))
            .collect()
    }

    fn stats_interval_ms(&self) -> u64 {
        self.stats_interval
            .map_or(200, |d| d.as_millis().max(1) as u64)
    }

    fn stall_window_ms(&self) -> u64 {
        self.stall_ms
            .unwrap_or_else(|| (10 * self.stats_interval_ms()).max(250))
    }
}

/// What one rank did, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankOutcome {
    Exited(i32),
    Signaled(i32),
    TimedOut,
}

impl std::fmt::Display for RankOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankOutcome::Exited(0) => write!(f, "ok"),
            RankOutcome::Exited(c) => write!(f, "exited with code {c}"),
            RankOutcome::Signaled(s) => write!(f, "killed by signal {s}"),
            RankOutcome::TimedOut => write!(f, "timed out (killed)"),
        }
    }
}

/// Parse CLI arguments (without the leading program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<LaunchSpec, String> {
    let mut it = args.into_iter();
    let mut n: Option<usize> = None;
    let mut timeout = Duration::from_secs(120);
    let mut tcp = false;
    let mut shm = false;
    let mut stats_interval = None;
    let mut stats_out = None;
    let mut stall_ms = None;
    let mut relay_arity = None;
    let mut packed = None;
    let mut kill_rank = None;
    let mut kill_after = None;
    let mut program: Option<String> = None;
    let mut rest = Vec::new();
    while let Some(a) = it.next() {
        if program.is_some() {
            rest.push(a);
            continue;
        }
        match a.as_str() {
            "-n" | "--ranks" => {
                let v = it.next().ok_or("-n needs a value")?;
                n = Some(v.parse().map_err(|_| format!("bad rank count {v:?}"))?);
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs seconds")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad timeout {v:?}"))?;
                timeout = Duration::from_secs(secs);
            }
            "--tcp" => tcp = true,
            "--shm" => shm = true,
            "--stats-interval" => {
                let v = it.next().ok_or("--stats-interval needs milliseconds")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad interval {v:?}"))?;
                stats_interval = Some(Duration::from_millis(ms.max(1)));
            }
            "--stats-out" => {
                let v = it.next().ok_or("--stats-out needs a path")?;
                stats_out = Some(PathBuf::from(v));
            }
            "--stall-ms" => {
                let v = it.next().ok_or("--stall-ms needs milliseconds")?;
                stall_ms = Some(v.parse().map_err(|_| format!("bad stall window {v:?}"))?);
            }
            "--relay" => {
                let v = it.next().ok_or("--relay needs an arity")?;
                let k: u32 = v.parse().map_err(|_| format!("bad relay arity {v:?}"))?;
                if k == 0 {
                    return Err("--relay arity must be at least 1".into());
                }
                relay_arity = Some(k);
            }
            "--packed" => {
                let v = it.next().ok_or("--packed needs ranks-per-process")?;
                let p: usize = v.parse().map_err(|_| format!("bad pack factor {v:?}"))?;
                if p == 0 {
                    return Err("--packed must be at least 1".into());
                }
                packed = Some(p);
            }
            "--kill-rank" => {
                let v = it.next().ok_or("--kill-rank needs a rank")?;
                kill_rank = Some(v.parse().map_err(|_| format!("bad kill rank {v:?}"))?);
            }
            "--kill-after-ms" => {
                let v = it.next().ok_or("--kill-after-ms needs milliseconds")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad kill delay {v:?}"))?;
                kill_after = Some(Duration::from_millis(ms));
            }
            "-h" | "--help" => return Err(usage()),
            _ if a.starts_with('-') => return Err(format!("unknown flag {a}\n{}", usage())),
            _ => program = Some(a),
        }
    }
    let n = n.ok_or_else(|| format!("missing -n <ranks>\n{}", usage()))?;
    if n == 0 {
        return Err("-n must be at least 1".into());
    }
    let program = program.ok_or_else(|| format!("missing program\n{}", usage()))?;
    if let Some(r) = kill_rank {
        if r >= n {
            return Err(format!("--kill-rank {r} outside world of {n} rank(s)"));
        }
    }
    Ok(LaunchSpec {
        n,
        program: resolve_program(&program),
        args: rest,
        timeout,
        tcp,
        shm,
        stats_interval,
        stats_out,
        stall_ms,
        relay_arity,
        packed,
        kill_rank,
        kill_after,
    })
}

fn usage() -> String {
    "usage: offload-run -n <ranks> [--timeout <secs>] [--tcp] [--shm] \
     [--stats-interval <ms>] [--stats-out <path>] [--stall-ms <ms>] \
     [--relay <arity>] [--packed <ranks-per-process>] \
     [--kill-rank <r>] [--kill-after-ms <t>] <program> [args...]"
        .into()
}

/// Bare names try the cargo output dirs before falling back to `$PATH`.
fn resolve_program(name: &str) -> PathBuf {
    if name.contains('/') {
        return PathBuf::from(name);
    }
    for dir in [
        "target/release/examples",
        "target/debug/examples",
        "target/release",
        "target/debug",
    ] {
        let candidate = PathBuf::from(dir).join(name);
        if candidate.is_file() {
            return candidate;
        }
    }
    PathBuf::from(name)
}

/// Spawn, babysit, reap. Returns the process exit code `offload-run`
/// should use: 0 iff every rank exited 0.
pub fn launch(spec: &LaunchSpec) -> i32 {
    let dir = std::env::temp_dir().join(format!("wire-run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "offload-run: cannot create bootstrap dir {}: {e}",
            dir.display()
        );
        return 2;
    }
    // The observability plane: bind the stats socket before any rank
    // starts so the first progress() snapshot always has a collector.
    let collector = if spec.stats_enabled() {
        let sock = dir.join("stats.sock");
        match crate::stats::Collector::start(&sock, spec.n) {
            Ok(c) => Some((c, sock)),
            Err(e) => {
                eprintln!(
                    "offload-run: cannot bind stats socket {}: {e}",
                    sock.display()
                );
                let _ = std::fs::remove_dir_all(&dir);
                return 2;
            }
        }
    } else {
        None
    };
    // One process per span: classic mode is spans of one rank; `--packed`
    // hosts consecutive blocks as multiplexed event loops in one process.
    let spans = spec.proc_spans();
    let mut children: Vec<Option<Child>> = Vec::with_capacity(spans.len());
    let mut log_threads = Vec::new();
    for &(base, count) in &spans {
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.args)
            .env(crate::ENV_RANK, base.to_string())
            .env(crate::ENV_SIZE, spec.n.to_string())
            .env(crate::ENV_DIR, &dir)
            .stderr(Stdio::piped());
        if count > 1 {
            cmd.env(crate::ENV_PACK, count.to_string());
        }
        if spec.tcp {
            cmd.env(crate::ENV_TCP, "1");
        }
        if spec.shm {
            cmd.env(crate::ENV_SHM, "1");
        }
        if let Some((_, sock)) = &collector {
            cmd.env(crate::ENV_STATS_SOCK, sock)
                .env(
                    crate::ENV_STATS_INTERVAL_MS,
                    spec.stats_interval_ms().to_string(),
                )
                .env(crate::ENV_STALL_MS, spec.stall_window_ms().to_string());
            if let Some(k) = spec.relay_arity {
                cmd.env(crate::ENV_RELAY_ARITY, k.to_string());
            }
        }
        match cmd.spawn() {
            Ok(mut child) => {
                // Prefix each process's stderr lines so interleaved
                // output stays attributable to its rank span.
                let label = if count == 1 {
                    format!("rank {base}")
                } else {
                    format!("ranks {base}-{}", base + count - 1)
                };
                if let Some(err) = child.stderr.take() {
                    log_threads.push(std::thread::spawn(move || {
                        for line in BufReader::new(err).lines() {
                            match line {
                                Ok(l) => eprintln!("[{label}] {l}"),
                                Err(_) => break,
                            }
                        }
                    }));
                }
                children.push(Some(child));
            }
            Err(e) => {
                eprintln!(
                    "offload-run: failed to spawn rank {base} ({}): {e}",
                    spec.program.display()
                );
                // Kill whatever already started; the job cannot form.
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                if let Some((c, _)) = collector {
                    let _ = c.finish();
                }
                let _ = std::fs::remove_dir_all(&dir);
                return 2;
            }
        }
    }
    // Babysit: poll until every process exits or the deadline passes.
    let started = Instant::now();
    let deadline = started + spec.timeout;
    let mut outcomes: Vec<Option<RankOutcome>> = vec![None; spans.len()];
    let mut next_table = Instant::now() + Duration::from_secs(2);
    let mut kill_pending = spec.kill_rank;
    loop {
        let mut running = 0;
        for (proc, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    outcomes[proc] = Some(status_outcome(&status));
                    *slot = None;
                }
                Ok(None) => running += 1,
                Err(e) => {
                    eprintln!("offload-run: wait on rank {} failed: {e}", spans[proc].0);
                    outcomes[proc] = Some(RankOutcome::Exited(2));
                    *slot = None;
                }
            }
        }
        if running == 0 {
            break;
        }
        // Fault injection: SIGKILL the process hosting the victim rank
        // once the delay elapses, so its only trace is the black-box
        // dump it persisted while alive.
        if let Some(victim) = kill_pending {
            let delay = spec.kill_after.unwrap_or(Duration::from_millis(500));
            if started.elapsed() >= delay {
                kill_pending = None;
                let proc = spans
                    .iter()
                    .position(|&(base, count)| (base..base + count).contains(&victim));
                if let Some(child) = proc.and_then(|p| children[p].as_mut()) {
                    eprintln!(
                        "offload-run: fault injection — SIGKILLing the process hosting rank {victim}"
                    );
                    let _ = child.kill();
                }
            }
        }
        // Long-running job with the plane on: refresh the live cluster
        // table so an operator can see straggling before the timeout.
        if let Some((c, _)) = &collector {
            if Instant::now() >= next_table {
                next_table = Instant::now() + Duration::from_secs(2);
                eprint!(
                    "offload-run: live cluster stats\n{}",
                    crate::stats::cluster_table(&c.peek().sources)
                );
            }
        }
        if Instant::now() >= deadline {
            eprintln!(
                "offload-run: timeout after {:?} — killing {running} remaining process(es)",
                spec.timeout
            );
            for child in children.iter_mut().flatten() {
                let _ = child.kill();
                let _ = child.wait();
            }
            for (proc, o) in outcomes.iter_mut().enumerate() {
                if o.is_none() {
                    *o = Some(RankOutcome::TimedOut);
                    children[proc] = None;
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for t in log_threads {
        let _ = t.join();
    }
    // Every rank's outcome is its hosting process's outcome.
    let rank_outcome = |rank: usize| -> &RankOutcome {
        let proc = spans
            .iter()
            .position(|&(base, count)| (base..base + count).contains(&rank))
            .expect("every rank has a hosting span");
        outcomes[proc].as_ref().expect("every process reaped")
    };
    // Observability epilogue: final cluster table, straggler flags,
    // postmortem black-box harvest, JSON report.
    if let Some((c, _)) = collector {
        let mut shared = c.finish();
        eprint!(
            "offload-run: final cluster stats\n{}",
            crate::stats::cluster_table(&shared.sources)
        );
        if let Some(tree) = crate::stats::relay_summary(shared.sources.values()) {
            eprintln!(
                "offload-run: relay tree covered {} rank(s) at depth {} ({} frame(s) at the collector)",
                tree.coverage, tree.depth, tree.frames
            );
        }
        if shared.dropped > 0 {
            eprintln!(
                "offload-run: stats collector refused {} malformed frame(s) or link(s)",
                shared.dropped
            );
        }
        let rows: Vec<crate::stats::RankRow> = (0..spec.n)
            .map(|rank| {
                let outcome = rank_outcome(rank);
                let dead = !matches!(outcome, RankOutcome::Exited(_));
                crate::stats::RankRow {
                    rank,
                    outcome: outcome.to_string(),
                    dead,
                    stats: shared.sources.remove(&(rank as u32)).unwrap_or_default(),
                    // Harvest the rank's persisted flight recorder before
                    // the bootstrap dir goes away. Only dead ranks get
                    // theirs into the report: a clean exit speaks for
                    // itself, and the report stays O(dead) not O(N).
                    blackbox: if dead {
                        harvest_blackbox(&dir, rank)
                    } else {
                        None
                    },
                }
            })
            .collect();
        for row in &rows {
            if let Some(st) = row.stats.stall {
                eprintln!(
                    "offload-run: rank {} STRAGGLER — progress stalled {}ms with {} pending op(s); last snapshot had {} metric(s)",
                    row.rank,
                    st.stalled_ms,
                    st.pending_ops,
                    row.stats
                        .last
                        .as_ref()
                        .map_or(0, |s| crate::stats::scalar_metrics(s).len())
                );
            }
            if row.dead {
                eprintln!(
                    "offload-run: rank {} died ({}); {} snapshot(s) collected before death; black box: {}",
                    row.rank,
                    row.outcome,
                    row.stats.frames,
                    row.blackbox.as_ref().map_or_else(
                        || "not recovered".into(),
                        |bb| format!("{} event(s) recovered", bb.events.len())
                    )
                );
            }
        }
        if let Some(path) = &spec.stats_out {
            let report = crate::stats::render_report_with(&rows);
            if let Err(e) = crate::stats::write_report_atomic(path, &report) {
                eprintln!(
                    "offload-run: cannot write stats report {}: {e}",
                    path.display()
                );
            } else {
                eprintln!("offload-run: stats report written to {}", path.display());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Report.
    let mut code = 0;
    for rank in 0..spec.n {
        let outcome = rank_outcome(rank);
        if *outcome != RankOutcome::Exited(0) {
            eprintln!("offload-run: rank {rank} {outcome}");
            code = 1;
        }
    }
    if code == 0 {
        eprintln!("offload-run: all {} rank(s) ok", spec.n);
    }
    code
}

/// Read and parse `blackbox-<rank>.obb` from the bootstrap directory —
/// the flight-recorder dump the engine persisted while the rank was
/// still alive, surviving even SIGKILL.
fn harvest_blackbox(dir: &std::path::Path, rank: usize) -> Option<obs::BlackBoxDump> {
    let bytes = std::fs::read(dir.join(format!("blackbox-{rank}.obb"))).ok()?;
    obs::BlackBoxDump::from_bytes(&bytes).ok()
}

fn status_outcome(status: &std::process::ExitStatus) -> RankOutcome {
    if let Some(code) = status.code() {
        RankOutcome::Exited(code)
    } else if let Some(sig) = status.signal() {
        RankOutcome::Signaled(sig)
    } else {
        RankOutcome::Exited(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_invocation() {
        let spec = parse_args(
            ["-n", "4", "--timeout", "60", "--tcp", "prog", "--flag", "x"].map(String::from),
        )
        .expect("parses");
        assert_eq!(spec.n, 4);
        assert_eq!(spec.timeout, Duration::from_secs(60));
        assert!(spec.tcp);
        assert!(!spec.shm);
        assert_eq!(spec.args, vec!["--flag", "x"]);
    }

    #[test]
    fn parses_shm_flag() {
        let spec = parse_args(["-n", "2", "--shm", "prog"].map(String::from)).expect("parses");
        assert!(spec.shm);
        // After the program name, --shm belongs to the program.
        let spec = parse_args(["-n", "2", "prog", "--shm"].map(String::from)).expect("parses");
        assert!(!spec.shm);
        assert_eq!(spec.args, vec!["--shm"]);
    }

    #[test]
    fn flags_after_program_go_to_the_program() {
        let spec = parse_args(["-n", "2", "prog", "-n", "9"].map(String::from)).expect("parses");
        assert_eq!(spec.n, 2);
        assert_eq!(spec.args, vec!["-n", "9"]);
    }

    #[test]
    fn parses_stats_flags() {
        let spec = parse_args(
            [
                "-n",
                "4",
                "--stats-interval",
                "50",
                "--stats-out",
                "/tmp/s.json",
                "prog",
            ]
            .map(String::from),
        )
        .expect("parses");
        assert_eq!(spec.stats_interval, Some(Duration::from_millis(50)));
        assert_eq!(spec.stats_out, Some(PathBuf::from("/tmp/s.json")));
        assert!(spec.stats_enabled());
        assert_eq!(spec.stall_window_ms(), 500, "default stall = 10× interval");
        let spec =
            parse_args(["-n", "2", "--stall-ms", "99", "prog"].map(String::from)).expect("parses");
        assert_eq!(spec.stall_ms, Some(99));
        assert!(
            !spec.stats_enabled(),
            "--stall-ms alone does not enable stats"
        );
        // Default interval when only --stats-out is given.
        let spec = parse_args(["-n", "2", "--stats-out", "r.json", "prog"].map(String::from))
            .expect("parses");
        assert!(spec.stats_enabled());
        assert_eq!(spec.stats_interval_ms(), 200);
    }

    #[test]
    fn rejects_missing_n_and_program() {
        assert!(parse_args(["prog"].map(String::from)).is_err());
        assert!(parse_args(["-n", "2"].map(String::from)).is_err());
        assert!(parse_args(["-n", "0", "prog"].map(String::from)).is_err());
    }

    #[test]
    fn parses_relay_packed_and_kill_flags() {
        let spec = parse_args(
            [
                "-n",
                "64",
                "--packed",
                "16",
                "--relay",
                "8",
                "--kill-rank",
                "1",
                "--kill-after-ms",
                "250",
                "prog",
            ]
            .map(String::from),
        )
        .expect("parses");
        assert_eq!(spec.packed, Some(16));
        assert_eq!(spec.relay_arity, Some(8));
        assert_eq!(spec.kill_rank, Some(1));
        assert_eq!(spec.kill_after, Some(Duration::from_millis(250)));
        assert!(spec.stats_enabled(), "--relay implies the stats plane");
        // Zero arity/pack and out-of-world kill ranks are rejected.
        assert!(parse_args(["-n", "2", "--relay", "0", "prog"].map(String::from)).is_err());
        assert!(parse_args(["-n", "2", "--packed", "0", "prog"].map(String::from)).is_err());
        assert!(parse_args(["-n", "2", "--kill-rank", "2", "prog"].map(String::from)).is_err());
    }

    #[test]
    fn proc_spans_cover_the_world_in_consecutive_blocks() {
        let mut spec =
            parse_args(["-n", "10", "--packed", "4", "prog"].map(String::from)).expect("parses");
        assert_eq!(spec.proc_spans(), vec![(0, 4), (4, 4), (8, 2)]);
        spec.packed = None;
        let spans = spec.proc_spans();
        assert_eq!(spans.len(), 10, "classic mode: one rank per process");
        assert!(spans.iter().all(|&(_, count)| count == 1));
    }
}
