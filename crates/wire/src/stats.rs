//! The launcher side of the cluster observability plane.
//!
//! Every rank's uplink ([`crate::relay::RelayNode`]) ships `Relay` frames
//! (a serialized [`obs::Snapshot`] covering the rank, or the subtree it
//! roots) and `Stall` watchdog events towards a Unix socket the launcher
//! binds in the bootstrap directory (`stats.sock`, advertised as
//! `WIRE_STATS_SOCK`). The [`Collector`] accepts whoever dials it — every
//! rank of a flat world, the root of a relay tree — and folds every frame
//! into one map of [`Source`]s keyed by the rank that heads the frames. A
//! source that covers one rank *is* that rank's row; a source that covers
//! more is a subtree's. The launcher renders the map as a live
//! min/median/max cluster table while the job runs and as a JSON report
//! (`--stats-out`) when it ends.
//!
//! The plane is strictly best-effort and one-directional: ranks never
//! block on the launcher, and a missing or dead collector never affects
//! the data path. Frames ride the same 24-byte header as the mesh
//! ([`crate::proto`]); a `Stall` frame carries its evidence in the header
//! (`xid` = stalled milliseconds, `tag` = pending operations) with the
//! rank's own snapshot as the body, and is forwarded verbatim by every
//! relay on its way, so a straggler is reported on its own row with the
//! state it stalled in rather than dying silently at the job timeout.
//! Whatever arrives is peer input: a header announcing more than
//! [`STATS_BODY_MAX`] bytes, or that does not decode, ends its connection
//! (counted in [`CollectorShared::dropped`]) before anything is allocated
//! for it, and a frame naming a rank outside the world is read and
//! discarded.
//!
//! The final report also carries each dead rank's black-box
//! flight-recorder dump ([`obs::BlackBoxDump`], harvested by the launcher
//! from `blackbox-<rank>.obb`), rendered with the [`bbcode`] event names
//! so a SIGKILLed rank leaves a replayable timeline instead of just
//! `"dead": true`.

use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use obs::json::{Json, Layout, Null, Writer};

use crate::proto::{FrameKind, Header, HEADER_LEN, STATS_BODY_MAX};

/// The black-box flight recorder's event-code table. The recorder itself
/// ([`obs::BlackBox`]) stores opaque `(code, a, b, c, d)` tuples; the
/// wire layer owns what the codes mean. Frame events use
/// `(peer, tag, xid, len)` as operands.
pub mod bbcode {
    use crate::proto::FrameKind;

    pub const TX_EAGER: u16 = 1;
    pub const TX_RTS: u16 = 2;
    pub const TX_CTS: u16 = 3;
    pub const TX_DATA: u16 = 4;
    pub const RX_EAGER: u16 = 5;
    pub const RX_RTS: u16 = 6;
    pub const RX_CTS: u16 = 7;
    pub const RX_DATA: u16 = 8;
    pub const PEER_LOST: u16 = 9;
    /// Watchdog trip: `a` = pending ops, `d` = stalled milliseconds.
    pub const STALL: u16 = 10;
    pub const PROTO_ERR: u16 = 11;
    /// Upward stats emission (13 was the star plane's, now unused).
    pub const RELAY_TX: u16 = 12;
    /// Any other delivered frame kind (Hello, Doorbell, …).
    pub const RX_OTHER: u16 = 14;

    /// Human-readable name for a code (report rendering).
    pub fn name(code: u16) -> &'static str {
        match code {
            TX_EAGER => "tx_eager",
            TX_RTS => "tx_rts",
            TX_CTS => "tx_cts",
            TX_DATA => "tx_data",
            RX_EAGER => "rx_eager",
            RX_RTS => "rx_rts",
            RX_CTS => "rx_cts",
            RX_DATA => "rx_data",
            PEER_LOST => "peer_lost",
            STALL => "stall",
            PROTO_ERR => "proto_err",
            RELAY_TX => "relay_tx",
            RX_OTHER => "rx_other",
            _ => "unknown",
        }
    }

    /// The receive-side code for a delivered frame kind.
    pub fn rx_code(kind: FrameKind) -> u16 {
        match kind {
            FrameKind::Eager => RX_EAGER,
            FrameKind::Rts => RX_RTS,
            FrameKind::Cts => RX_CTS,
            FrameKind::Data => RX_DATA,
            _ => RX_OTHER,
        }
    }
}

/// Watchdog evidence carried by a `Stall` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallInfo {
    pub stalled_ms: u32,
    pub pending_ops: u32,
}

/// How many recent snapshots [`SnapshotHistory`] retains besides the
/// first. Long runs at many ranks ship thousands of periodic frames; the
/// collector must stay O(ranks), not O(frames).
pub const HISTORY_CAP: usize = 8;

/// Bounded per-rank snapshot trajectory: the first snapshot ever received
/// (the rank's starting state) plus the `HISTORY_CAP` most recent ones.
/// Everything in between is dropped and counted, so collector memory is
/// constant per rank no matter how long the job runs or how fast the rank
/// ships frames.
#[derive(Clone, Debug, Default)]
pub struct SnapshotHistory {
    first: Option<obs::Snapshot>,
    recent: std::collections::VecDeque<obs::Snapshot>,
    dropped: u64,
}

impl SnapshotHistory {
    pub fn push(&mut self, snap: obs::Snapshot) {
        if self.first.is_none() {
            self.first = Some(snap.clone());
        }
        if self.recent.len() == HISTORY_CAP {
            self.recent.pop_front();
            self.dropped += 1;
        }
        self.recent.push_back(snap);
    }

    /// The rank's first-ever snapshot (kept even once the ring wraps).
    pub fn first(&self) -> Option<&obs::Snapshot> {
        self.first.as_ref()
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&obs::Snapshot> {
        self.recent.back()
    }

    /// Recent snapshots, oldest first (≤ [`HISTORY_CAP`]).
    pub fn recent(&self) -> impl Iterator<Item = &obs::Snapshot> {
        self.recent.iter()
    }

    /// Snapshots retained right now (first + recent, no double count).
    pub fn retained(&self) -> usize {
        let first_separate = self.dropped > 0 && self.first.is_some();
        self.recent.len() + usize::from(first_separate)
    }

    /// Snapshots evicted from the ring to stay within the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Everything the collector has heard from one source: the rank whose
/// id heads the frames. What its snapshots cover is in the frames
/// themselves — one rank for a leaf or a flat world, a subtree for a relay.
#[derive(Clone, Debug, Default)]
pub struct Source {
    /// Ranks the latest `Relay` frame covers (header `tag`); 0 until one
    /// arrives (a source known only by a forwarded `Stall`).
    pub coverage: u32,
    /// Subtree height, 1 for a lone rank (`Relay` header `xid`).
    pub height: u32,
    /// `Relay` frames received (the first leaves on the rank's first
    /// `progress` call, so a rank that bootstrapped at all has ≥ 1).
    pub frames: u64,
    /// Most recent snapshot, whichever frame kind carried it.
    pub last: Option<obs::Snapshot>,
    /// Bounded trajectory: first snapshot + the most recent few.
    pub history: SnapshotHistory,
    /// Latest stall event, if the rank's watchdog ever tripped.
    pub stall: Option<StallInfo>,
}

impl Source {
    /// Does this source speak for more ranks than the one that names it?
    pub fn is_subtree(&self) -> bool {
        self.coverage > 1
    }
}

/// Everything the collector accumulates. Memory is O(world size) whatever
/// the frame rate: one [`Source`] per rank id below the world size, each
/// holding a bounded history.
#[derive(Clone, Debug, Default)]
pub struct CollectorShared {
    pub sources: BTreeMap<u32, Source>,
    /// Connections accepted: N in a flat world, the tree's roots otherwise.
    pub conns: u64,
    /// Peer input refused: connections ended for an undecodable or
    /// oversized header, frames discarded for a kind or rank that does not
    /// belong here.
    pub dropped: u64,
}

/// What the relay tree delivered: the subtree sources summed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RelaySummary {
    /// Ranks covered across every subtree.
    pub coverage: u64,
    /// Realized tree depth below the collector: the tallest subtree's
    /// height minus one.
    pub depth: u32,
    /// `Relay` frames the subtree roots delivered.
    pub frames: u64,
    /// Their latest snapshots merged into the whole-world view.
    pub merged: obs::Snapshot,
}

/// Sum up the subtree sources among `sources`; `None` in a flat world.
pub fn relay_summary<'a>(sources: impl IntoIterator<Item = &'a Source>) -> Option<RelaySummary> {
    let mut out: Option<RelaySummary> = None;
    for sub in sources.into_iter().filter(|s| s.is_subtree()) {
        let sum = out.get_or_insert_with(RelaySummary::default);
        sum.coverage += sub.coverage as u64;
        sum.depth = sum.depth.max(sub.height.saturating_sub(1));
        sum.frames += sub.frames;
        if let Some(s) = &sub.last {
            sum.merged.merge(s);
        }
    }
    out
}

/// Accepts connections on the stats socket and folds their frames into
/// the source map. One acceptor thread, one reader thread per connection.
pub struct Collector {
    shared: Arc<Mutex<CollectorShared>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Collector {
    /// Bind `sock` and start collecting for an `n`-rank job.
    pub fn start(sock: &Path, n: usize) -> std::io::Result<Collector> {
        let listener = UnixListener::bind(sock)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Mutex::new(CollectorShared::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut readers = Vec::new();
                // ORDERING: Relaxed — quit flag; no data rides on it (the
                // reader threads are joined before state is consumed).
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            shared.lock().expect("collector mutex").conns += 1;
                            let shared = Arc::clone(&shared);
                            let stop = Arc::clone(&stop);
                            readers.push(std::thread::spawn(move || {
                                read_frames(stream, &shared, &stop, n)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
                for r in readers {
                    let _ = r.join();
                }
            })
        };
        Ok(Collector {
            shared,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// Clone the current state (live table rendering).
    pub fn peek(&self) -> CollectorShared {
        self.shared.lock().expect("collector mutex").clone()
    }

    /// Stop accepting, join the reader threads, return the final state.
    pub fn finish(mut self) -> CollectorShared {
        // ORDERING: Relaxed — quit flag; the join() below is the real
        // synchronization point for everything the threads wrote.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shared.lock().expect("collector mutex").clone()
    }
}

/// Read every frame one connection ships until EOF, shutdown, or input
/// that ends it (see module docs). `n` is the world size.
fn read_frames(
    mut stream: UnixStream,
    shared: &Mutex<CollectorShared>,
    stop: &AtomicBool,
    n: usize,
) {
    // A short read timeout keeps the thread responsive to `stop` even
    // when the rank is alive but quiet (e.g. SIGSTOPed).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let drop_one = || shared.lock().expect("collector mutex").dropped += 1;
    let mut body = Vec::new();
    loop {
        let mut hdr_buf = [0u8; HEADER_LEN];
        if !read_full(&mut stream, &mut hdr_buf, stop) {
            return;
        }
        let hdr = match Header::decode(&hdr_buf) {
            Ok(h) if h.body_len() <= STATS_BODY_MAX => h,
            // Corrupt or greedy stream: drop the link, allocate nothing.
            _ => return drop_one(),
        };
        body.resize(hdr.body_len(), 0);
        if !read_full(&mut stream, &mut body, stop) {
            return;
        }
        if hdr.src as usize >= n || !matches!(hdr.kind, FrameKind::Relay | FrameKind::Stall) {
            drop_one(); // bogus rank or kind: keep the stream, drop the frame
            continue;
        }
        let snap = obs::Snapshot::from_bytes(&body).ok();
        let mut shared = shared.lock().expect("collector mutex");
        let src = shared.sources.entry(hdr.src).or_default();
        if hdr.kind == FrameKind::Relay {
            src.frames += 1;
            src.coverage = hdr.tag.max(1);
            src.height = hdr.xid.max(1);
        } else {
            src.stall = Some(StallInfo {
                stalled_ms: hdr.xid,
                pending_ops: hdr.tag,
            });
        }
        // A `Stall` body is one rank's own snapshot: it updates a source
        // that speaks for that rank alone, never a subtree's merge.
        if let Some(s) = snap.filter(|_| hdr.kind == FrameKind::Relay || !src.is_subtree()) {
            src.history.push(s.clone());
            src.last = Some(s);
        }
    }
}

/// Fill `buf` completely; false on EOF, error, or shutdown.
fn read_full(stream: &mut UnixStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return false,
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // ORDERING: Relaxed — quit flag, as above.
                if stop.load(Ordering::Relaxed) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Aggregation and rendering
// ---------------------------------------------------------------------------

/// One snapshot flattened to `name → value` scalars: counters as-is,
/// gauges as `name` (value) and `name.hwm`, histograms as `name.count`,
/// `name.sum` and the `name.p50`/`.p95`/`.p99` tail estimates. This is
/// the shape min/median/max aggregates over.
pub fn scalar_metrics(snap: &obs::Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (k, v) in &snap.counters {
        out.insert(k.clone(), *v);
    }
    for (k, g) in &snap.gauges {
        out.insert(k.clone(), g.value);
        out.insert(format!("{k}.hwm"), g.high_water);
    }
    for (k, h) in &snap.histograms {
        out.insert(format!("{k}.count"), h.count);
        out.insert(format!("{k}.sum"), h.sum);
        if h.count > 0 {
            out.insert(format!("{k}.p50"), h.p50());
            out.insert(format!("{k}.p95"), h.p95());
            out.insert(format!("{k}.p99"), h.p99());
        }
    }
    out
}

/// Min/median/max of one metric across the sources that reported it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aggregate {
    pub min: u64,
    pub median: u64,
    pub max: u64,
}

/// Aggregate every metric over the sources that partition the world: the
/// ranks' own in a flat world, the subtrees' once any source covers more
/// than itself (a rank's `Stall` evidence beside them is a row, not a
/// second count of what its subtree already summed). Keyed by metric name
/// (BTreeMap: deterministic order for table and report stability).
pub fn aggregate(sources: &[&Source]) -> BTreeMap<String, Aggregate> {
    let tree = sources.iter().any(|s| s.is_subtree());
    let mut per: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for snap in sources
        .iter()
        .filter(|s| s.is_subtree() == tree)
        .filter_map(|s| s.last.as_ref())
    {
        for (k, v) in scalar_metrics(snap) {
            per.entry(k).or_default().push(v);
        }
    }
    per.into_iter()
        .map(|(k, mut vs)| {
            vs.sort_unstable();
            let agg = Aggregate {
                min: vs[0],
                median: vs[vs.len() / 2],
                max: vs[vs.len() - 1],
            };
            (k, agg)
        })
        .collect()
}

/// The live cluster table: one header line, then min/median/max per
/// metric (all-zero rows elided for signal), then a status line per
/// source heard from.
pub fn cluster_table(sources: &BTreeMap<u32, Source>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>12} {:>12} {:>12}\n",
        "metric", "min", "median", "max"
    ));
    for (k, a) in aggregate(&sources.values().collect::<Vec<_>>()) {
        if a.max == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<36} {:>12} {:>12} {:>12}\n",
            k, a.min, a.median, a.max
        ));
    }
    for (rank, src) in sources {
        out.push_str(&format!("rank {rank}: {} snapshot(s)", src.frames));
        if src.is_subtree() {
            out.push_str(&format!(
                " covering {} rank(s) at height {}",
                src.coverage, src.height
            ));
        }
        if let Some(st) = src.stall {
            out.push_str(&format!(
                "  STALLED {}ms with {} pending op(s)",
                st.stalled_ms, st.pending_ops
            ));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

/// One rank's row in the final report: what the collector heard from the
/// source of that name, joined with the launcher's verdict on the process.
#[derive(Clone, Debug)]
pub struct RankRow {
    pub rank: usize,
    /// The launcher's `RankOutcome`, displayed ("ok", "killed by signal 9", …).
    pub outcome: String,
    /// Did the process die without a clean exit (signal or timeout kill)?
    pub dead: bool,
    /// The source named `rank` (default when it never reported).
    pub stats: Source,
    /// The rank's last persisted flight-recorder dump, when the launcher
    /// found one (`blackbox-<rank>.obb` in the bootstrap directory).
    pub blackbox: Option<obs::BlackBoxDump>,
}

fn metrics_object(w: &mut Writer, snap: Option<&obs::Snapshot>) {
    w.object(Layout::Inline, |w| {
        for (k, v) in snap.map(scalar_metrics).unwrap_or_default() {
            w.field(&k, v);
        }
    });
}

/// The final JSON report: per-rank rows (outcome, liveness, stall
/// evidence, last snapshot flattened to scalars, black-box timeline), a
/// `"relay"` object — coverage, realized depth, frame count and the
/// whole-world merged metrics — when any row's source is a subtree
/// (`null` in a flat world), and the cluster aggregate.
pub fn render_report_with(rows: &[RankRow]) -> String {
    let sources: Vec<&Source> = rows.iter().map(|r| &r.stats).collect();
    let mut w = Writer::new();
    w.object(Layout::Block, |w| {
        w.key("ranks").array(Layout::Block, |w| {
            for row in rows {
                w.object(Layout::Inline, |w| render_row(w, row));
            }
        });
        w.key("relay");
        match relay_summary(sources.iter().copied()) {
            Some(r) => {
                w.object(Layout::Inline, |w| {
                    w.field("coverage", r.coverage).field("depth", r.depth);
                    w.field("frames", r.frames).key("merged");
                    metrics_object(w, Some(&r.merged));
                });
            }
            None => {
                w.value(Null);
            }
        }
        w.key("aggregate").object(Layout::Block, |w| {
            for (k, a) in aggregate(&sources) {
                w.key(&k).object(Layout::Inline, |w| {
                    w.field("min", a.min).field("median", a.median);
                    w.field("max", a.max);
                });
            }
        });
    });
    let mut out = w.finish();
    out.push('\n');
    out
}

fn render_row(w: &mut Writer, row: &RankRow) {
    w.field("rank", row.rank).field("outcome", &row.outcome);
    w.field("dead", row.dead)
        .field("snapshots", row.stats.frames);
    w.key("history").object(Layout::Inline, |w| {
        w.field("retained", row.stats.history.retained());
        w.field("dropped", row.stats.history.dropped());
    });
    w.key("stall");
    match row.stats.stall {
        Some(st) => w.object(Layout::Inline, |w| {
            w.field("stalled_ms", st.stalled_ms);
            w.field("pending_ops", st.pending_ops);
        }),
        None => w.value(Null),
    };
    w.key("blackbox");
    match &row.blackbox {
        Some(bb) => w.object(Layout::Inline, |w| {
            w.field("capacity", bb.capacity)
                .field("recorded", bb.recorded);
            w.key("events").array(Layout::Inline, |w| {
                for e in &bb.events {
                    w.object(Layout::Inline, |w| {
                        w.field("seq", e.seq).field("t_us", e.t_us);
                        w.field("code", bbcode::name(e.code));
                        w.field("a", e.a).field("b", e.b);
                        w.field("c", e.c).field("d", e.d);
                    });
                }
            });
        }),
        None => w.value(Null),
    };
    w.key("metrics");
    metrics_object(w, row.stats.last.as_ref());
}

/// Durably write the report: create a pid-suffixed temp sibling, fsync,
/// then rename over `path` — a reader (or a launcher killed mid-write)
/// sees either the previous complete report or the new one, never a
/// truncated file. The pid suffix also keeps two launchers sharing an
/// output directory from trampling each other's in-flight temp file.
pub fn write_report_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let file_name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "report.json".into());
    let tmp = path.with_file_name(format!("{file_name}.{}.tmp", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Everything the `stats-check` CI gate can assert about a report.
#[derive(Clone, Debug, Default)]
pub struct ReportChecks {
    /// Exact number of rank rows, covering ranks `0..ranks`.
    pub ranks: usize,
    /// Metrics that must be `> 0` for every clean rank, in the metrics of
    /// the source that covers it.
    pub positive: Vec<String>,
    /// Metrics that must be absent or `0` for every clean rank, likewise.
    pub zero: Vec<String>,
    /// Require a `relay` section whose realized tree depth is at least
    /// this, and (when every rank exited cleanly) whose coverage equals
    /// the rank count — proof the tree actually carried the world.
    pub relay_depth_min: Option<u64>,
    /// Require at least one dead rank whose black-box timeline carries at
    /// least this many events with monotone timestamps and strictly
    /// increasing sequence numbers — the postmortem-dump gate.
    pub blackbox_dead_min: Option<usize>,
}

/// Validate a rendered report: parses, has exactly `checks.ranks` rows
/// covering ranks `0..ranks`, every metric named in `positive` is `> 0`,
/// and every metric named in `zero` is absent or `0`, for every rank that
/// exited cleanly (dead ranks are exempt — their last snapshot
/// legitimately predates the work). `zero` is how the shm smoke lane
/// pins `wire.eager_alloc` to nothing: the counter existing with any
/// value would mean an eager send staged a heap copy. A clean rank's
/// metrics are those of the source that covers it: its own row when the
/// collector heard `Relay` frames in its name (`snapshots > 0` — every
/// rank of a flat world, the root of a tree), otherwise the `relay`
/// section's merge, which is where a tree carried its counters; a clean
/// rank that nothing covers fails. Returns the parsed rank count on
/// success.
pub fn validate_report_checks(text: &str, checks: &ReportChecks) -> Result<usize, String> {
    let ranks = checks.ranks;
    let doc = obs::json::parse(text)?;
    let rows = match doc.get("ranks") {
        Some(Json::Arr(a)) => a,
        _ => return Err("report has no \"ranks\" array".into()),
    };
    if rows.len() != ranks {
        return Err(format!("expected {ranks} rank rows, found {}", rows.len()));
    }
    let relay = doc.get("relay").filter(|r| !matches!(r, Json::Null));
    let relay_metrics = relay.and_then(|r| r.get("merged"));
    let mut seen = vec![false; ranks];
    let mut dead_rows = 0usize;
    let mut blackbox_ok = false;
    for row in rows {
        let rank = row
            .get("rank")
            .and_then(Json::as_num)
            .ok_or("rank row missing \"rank\"")? as usize;
        if rank >= ranks || seen[rank] {
            return Err(format!("bogus or duplicate rank {rank}"));
        }
        seen[rank] = true;
        let dead = matches!(row.get("dead"), Some(Json::Bool(true)));
        let metrics = row.get("metrics").ok_or("rank row missing \"metrics\"")?;
        if dead {
            dead_rows += 1;
            if let Some(min) = checks.blackbox_dead_min {
                if let Some(bb) = row.get("blackbox").filter(|b| !matches!(b, Json::Null)) {
                    blackbox_ok |= check_blackbox_timeline(bb, min)
                        .map_err(|e| format!("rank {rank}: {e}"))?;
                }
            }
            continue;
        }
        let own = row
            .get("snapshots")
            .and_then(Json::as_num)
            .is_some_and(|n| n > 0.0);
        let target = if own { Some(metrics) } else { relay_metrics };
        let target = target.ok_or_else(|| {
            format!("rank {rank}: exited cleanly but no source covers it (no frames of its own, no relay section)")
        })?;
        for name in &checks.positive {
            let v = target.get(name).and_then(Json::as_num).unwrap_or(0.0);
            if v <= 0.0 {
                return Err(format!("rank {rank}: metric {name:?} not positive ({v})"));
            }
        }
        for name in &checks.zero {
            let v = target.get(name).and_then(Json::as_num).unwrap_or(0.0);
            if v != 0.0 {
                return Err(format!("rank {rank}: metric {name:?} not zero ({v})"));
            }
        }
    }
    if let Some(min_depth) = checks.relay_depth_min {
        let r = relay.ok_or("report has no \"relay\" section but --relay-depth was asked")?;
        let depth = r.get("depth").and_then(Json::as_num).unwrap_or(-1.0);
        if depth < min_depth as f64 {
            return Err(format!("relay depth {depth} < required {min_depth}"));
        }
        let coverage = r.get("coverage").and_then(Json::as_num).unwrap_or(0.0);
        if dead_rows == 0 && coverage != ranks as f64 {
            return Err(format!(
                "relay coverage {coverage} != world size {ranks} with no dead ranks"
            ));
        }
    }
    if checks.blackbox_dead_min.is_some() {
        if dead_rows == 0 {
            return Err("--blackbox-dead requires at least one dead rank row".into());
        }
        if !blackbox_ok {
            return Err("no dead rank carried a valid black-box timeline".into());
        }
    }
    if doc.get("aggregate").is_none() {
        return Err("report has no \"aggregate\" object".into());
    }
    Ok(ranks)
}

/// One dead rank's black-box object: enough events, monotone time,
/// strictly increasing sequence numbers. `Ok(false)` means present but
/// too short (another dead rank may still satisfy the gate).
fn check_blackbox_timeline(bb: &Json, min: usize) -> Result<bool, String> {
    let events = match bb.get("events") {
        Some(Json::Arr(a)) => a,
        _ => return Err("blackbox object has no \"events\" array".into()),
    };
    if events.len() < min {
        return Ok(false);
    }
    let mut prev_seq = -1.0f64;
    let mut prev_t = -1.0f64;
    for e in events {
        let seq = e
            .get("seq")
            .and_then(Json::as_num)
            .ok_or("event missing seq")?;
        let t = e
            .get("t_us")
            .and_then(Json::as_num)
            .ok_or("event missing t_us")?;
        if seq <= prev_seq {
            return Err(format!("blackbox seq not strictly increasing at {seq}"));
        }
        if t < prev_t {
            return Err(format!("blackbox t_us went backwards at {t}"));
        }
        prev_seq = seq;
        prev_t = t;
    }
    Ok(true)
}

/// The classic four-argument gate, kept for the smoke lanes that only
/// pin rank count and counters. See [`validate_report_checks`].
pub fn validate_report(
    text: &str,
    ranks: usize,
    positive: &[String],
    zero: &[String],
) -> Result<usize, String> {
    validate_report_checks(
        text,
        &ReportChecks {
            ranks,
            positive: positive.to_vec(),
            zero: zero.to_vec(),
            ..ReportChecks::default()
        },
    )
}

#[cfg(test)]
pub(crate) mod tests;
