//! The perf-trajectory plane: versioned, machine-readable benchmark
//! snapshots (`BENCH_<panel>.json`) and the noise-aware comparison that
//! gates CI on them.
//!
//! Every harness panel (fig02 overlap, fig04 issue rate, fig06 service
//! metrics, the wire calibration, the §4.1 live overlap panel) can turn
//! its printed table into a [`PanelSnapshot`]: per-series repeat samples
//! with median/min/max and a noise band estimated from the repeats, plus
//! provenance (schema version, git sha, UTC timestamp, environment
//! fingerprint). Snapshots serialize as stable JSON through [`obs::json`] —
//! no external dependencies — and parse back through the same module.
//!
//! [`compare_panels`]/[`compare_dirs`] diff a fresh snapshot against a
//! committed baseline and classify each series as improved / unchanged /
//! regressed using the *recorded* noise bands (never a fixed threshold):
//! a series regresses only when it moves in its bad direction by more
//! than `max(noise_base, noise_fresh) + rel_slack·|median_base|`. Series
//! marked [`Direction::Info`] are tracked but never gate.

use std::fmt;
use std::path::{Path, PathBuf};

use obs::json::{parse as parse_json, Json, Layout, Writer};

/// Bump when the JSON layout changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Which way is better for a series, or whether it only informs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, counts of pathological events).
    Lower,
    /// Larger is better (overlap %, throughput).
    Higher,
    /// Recorded for the trajectory but never gates (wall-clock series too
    /// volatile to enforce on shared hardware, characterization numbers).
    Info,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
            Direction::Info => "info",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lower" => Ok(Direction::Lower),
            "higher" => Ok(Direction::Higher),
            "info" => Ok(Direction::Info),
            other => Err(format!("unknown direction {other:?}")),
        }
    }
}

/// One measured series: every repeat's value plus the derived summary.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub name: String,
    pub unit: String,
    pub direction: Direction,
    /// One value per repeat, in measurement order.
    pub samples: Vec<f64>,
    pub repeats: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Noise band estimated from the repeats: the full `max − min`
    /// spread. Deterministic (simulator) series record 0.
    pub noise: f64,
}

impl Series {
    /// Build a series from raw repeat samples, deriving the summary.
    pub fn from_samples(
        name: impl Into<String>,
        unit: impl Into<String>,
        direction: Direction,
        samples: Vec<f64>,
    ) -> Series {
        assert!(!samples.is_empty(), "a series needs at least one sample");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (min, max) = (sorted[0], sorted[n - 1]);
        Series {
            name: name.into(),
            unit: unit.into(),
            direction,
            repeats: n,
            median,
            min,
            max,
            noise: max - min,
            samples,
        }
    }
}

/// Where and how a snapshot was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvFingerprint {
    pub cpus: u64,
    pub os: String,
    pub arch: String,
    pub rustc: String,
    pub features: String,
    /// Measurement shape: `quick` (the pinned CI gate shape) or `full`.
    /// Snapshots of different modes are not comparable.
    pub mode: String,
}

impl EnvFingerprint {
    /// Fingerprint of the running process: host shape plus the pinned
    /// measurement mode (`BENCH_QUICK=1` ⇒ `quick`).
    pub fn current() -> EnvFingerprint {
        EnvFingerprint {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            rustc: option_env!("HARNESS_RUSTC_VERSION")
                .unwrap_or("unknown")
                .to_string(),
            features: if cfg!(feature = "obs-enabled") {
                "obs-enabled".to_string()
            } else {
                "no-obs".to_string()
            },
            mode: if quick_mode() { "quick" } else { "full" }.to_string(),
        }
    }
}

impl fmt::Display for EnvFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpus={} os={} arch={} rustc={:?} features={} mode={}",
            self.cpus, self.os, self.arch, self.rustc, self.features, self.mode
        )
    }
}

/// A versioned, attributable record of one panel run.
#[derive(Clone, Debug, PartialEq)]
pub struct PanelSnapshot {
    pub schema_version: u64,
    /// Short machine id; the file is named `BENCH_<panel>.json`.
    pub panel: String,
    /// Human title (the table banner).
    pub title: String,
    pub git_sha: String,
    pub created_utc: String,
    pub env: EnvFingerprint,
    pub series: Vec<Series>,
}

impl PanelSnapshot {
    /// Start a snapshot of `panel`, stamped with the current git sha, UTC
    /// time and environment fingerprint.
    pub fn new(panel: impl Into<String>, title: impl Into<String>) -> PanelSnapshot {
        PanelSnapshot {
            schema_version: SCHEMA_VERSION,
            panel: panel.into(),
            title: title.into(),
            git_sha: git_sha(),
            created_utc: utc_now_iso8601(),
            env: EnvFingerprint::current(),
            series: Vec::new(),
        }
    }

    /// Add a series from raw repeat samples.
    pub fn push_series(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        direction: Direction,
        samples: Vec<f64>,
    ) {
        self.series
            .push(Series::from_samples(name, unit, direction, samples));
    }

    /// `BENCH_<panel>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.panel)
    }

    /// Write the snapshot into `dir`, returning the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Serialize as stable, human-diffable JSON.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Layout::Block, |w| {
            w.field("schema_version", self.schema_version);
            w.field("panel", &self.panel).field("title", &self.title);
            w.field("git_sha", &self.git_sha);
            w.field("created_utc", &self.created_utc);
            w.key("env").object(Layout::Inline, |w| {
                let e = &self.env;
                w.field("cpus", e.cpus).field("os", &e.os);
                w.field("arch", &e.arch).field("rustc", &e.rustc);
                w.field("features", &e.features).field("mode", &e.mode);
            });
            w.key("series").array(Layout::Block, |w| {
                for s in &self.series {
                    w.object(Layout::Inline, |w| {
                        w.field("name", &s.name).field("unit", &s.unit);
                        w.field("direction", s.direction.as_str());
                        w.field("repeats", s.repeats);
                        w.key("samples").array(Layout::Inline, |w| {
                            for v in &s.samples {
                                w.value(*v);
                            }
                        });
                        w.field("median", s.median).field("min", s.min);
                        w.field("max", s.max).field("noise", s.noise);
                    });
                }
            });
        });
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Parse and validate a snapshot document.
    pub fn from_json(text: &str) -> Result<PanelSnapshot, String> {
        let doc = parse_json(text)?;
        let schema_version = req_u64(&doc, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let env_doc = doc.get("env").ok_or("snapshot missing \"env\"")?;
        let env = EnvFingerprint {
            cpus: req_u64(env_doc, "cpus")?,
            os: req_str(env_doc, "os")?,
            arch: req_str(env_doc, "arch")?,
            rustc: req_str(env_doc, "rustc")?,
            features: req_str(env_doc, "features")?,
            mode: req_str(env_doc, "mode")?,
        };
        let series_doc = match doc.get("series") {
            Some(Json::Arr(a)) => a,
            _ => return Err("snapshot missing \"series\" array".into()),
        };
        let mut series = Vec::with_capacity(series_doc.len());
        for sd in series_doc {
            let samples = match sd.get("samples") {
                Some(Json::Arr(a)) => a.iter().map(json_num).collect::<Result<Vec<_>, _>>()?,
                _ => return Err("series missing \"samples\" array".into()),
            };
            let s = Series {
                name: req_str(sd, "name")?,
                unit: req_str(sd, "unit")?,
                direction: Direction::parse(&req_str(sd, "direction")?)?,
                repeats: req_u64(sd, "repeats")? as usize,
                median: req_f64(sd, "median")?,
                min: req_f64(sd, "min")?,
                max: req_f64(sd, "max")?,
                noise: req_f64(sd, "noise")?,
                samples,
            };
            series.push(s);
        }
        let snap = PanelSnapshot {
            schema_version,
            panel: req_str(&doc, "panel")?,
            title: req_str(&doc, "title")?,
            git_sha: req_str(&doc, "git_sha")?,
            created_utc: req_str(&doc, "created_utc")?,
            env,
            series,
        };
        snap.validate()?;
        Ok(snap)
    }

    /// Structural checks beyond parsing: provenance present, every series
    /// self-consistent (repeat count matches the samples, the noise band
    /// non-negative, min ≤ median ≤ max where finite).
    pub fn validate(&self) -> Result<(), String> {
        if self.panel.is_empty() {
            return Err("empty panel id".into());
        }
        if self.git_sha.is_empty() || self.created_utc.is_empty() {
            return Err(format!("panel {}: missing provenance", self.panel));
        }
        for s in &self.series {
            let ctx = format!("panel {} series {}", self.panel, s.name);
            if s.repeats == 0 || s.repeats != s.samples.len() {
                return Err(format!(
                    "{ctx}: repeats {} != samples {}",
                    s.repeats,
                    s.samples.len()
                ));
            }
            if s.noise.is_finite() && s.noise < 0.0 {
                return Err(format!("{ctx}: negative noise band {}", s.noise));
            }
            if s.median.is_finite()
                && s.min.is_finite()
                && s.max.is_finite()
                && !(s.min <= s.median && s.median <= s.max)
            {
                return Err(format!(
                    "{ctx}: min/median/max out of order ({}/{}/{})",
                    s.min, s.median, s.max
                ));
            }
        }
        Ok(())
    }

    /// Load a snapshot file.
    pub fn read_from(path: &Path) -> Result<PanelSnapshot, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        PanelSnapshot::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// Write `snap` into `$BENCH_SNAPSHOT_DIR` when set (the opt-in: casual
/// panel runs must not silently overwrite committed baselines). Returns
/// the written path, echoing it to stdout.
///
/// A *relative* dir is anchored at the workspace root, not the process
/// cwd: cargo runs bench executables with the package directory as cwd,
/// so cwd-relative resolution would scatter snapshots across the tree
/// depending on which binary emitted them.
pub fn emit_snapshot(snap: &PanelSnapshot) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("BENCH_SNAPSHOT_DIR")?);
    let dir = if dir.is_absolute() {
        dir
    } else {
        workspace_root().join(dir)
    };
    match snap.write_to(Path::new(&dir)) {
        Ok(path) => {
            println!("[bench snapshot saved to {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("[could not write bench snapshot {}: {e}]", snap.file_name());
            None
        }
    }
}

/// Pinned repeat count for snapshot series (`BENCH_REPEATS`, default 3).
pub fn bench_repeats() -> usize {
    std::env::var("BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// `BENCH_QUICK=1`: the pinned CI gate shape (trimmed sweeps).
pub fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Comparison knobs.
#[derive(Clone, Copy, Debug)]
pub struct CompareOpts {
    /// Relative slack added to the noise band: a series must move by more
    /// than `max(noise_base, noise_fresh) + rel_slack·|median_base|` in
    /// its bad direction to regress. 0 gates on the recorded noise alone.
    pub rel_slack: f64,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts { rel_slack: 0.25 }
    }
}

/// Outcome for one series.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Direction `info`: delta reported, never gates.
    Info,
    /// Present only in the fresh snapshot (new series: fine).
    New,
    /// Present only in the baseline (a series vanished: gates).
    Missing,
    /// Not comparable (non-finite median on either side): gates.
    Broken(String),
}

impl Verdict {
    /// Does this verdict fail the regression gate?
    pub fn fails_gate(&self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Missing | Verdict::Broken(_)
        )
    }

    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
            Verdict::New => "new",
            Verdict::Missing => "MISSING",
            Verdict::Broken(_) => "BROKEN",
        }
    }
}

/// One row of the delta table.
#[derive(Clone, Debug)]
pub struct SeriesDelta {
    pub name: String,
    pub unit: String,
    pub base_median: Option<f64>,
    pub fresh_median: Option<f64>,
    /// `fresh − base` when both present.
    pub delta: Option<f64>,
    /// The noise-derived tolerance used to classify.
    pub band: f64,
    pub verdict: Verdict,
}

/// Every series of one panel, classified.
#[derive(Clone, Debug)]
pub struct PanelDelta {
    pub panel: String,
    pub rows: Vec<SeriesDelta>,
    /// Non-fatal observations (env drift, new series).
    pub notes: Vec<String>,
}

impl PanelDelta {
    pub fn failures(&self) -> impl Iterator<Item = &SeriesDelta> {
        self.rows.iter().filter(|r| r.verdict.fails_gate())
    }
}

/// Classify one matched series pair against the recorded noise bands.
fn classify(base: &Series, fresh: &Series, opts: CompareOpts) -> (f64, Verdict) {
    let band = base.noise.max(fresh.noise).max(0.0) + opts.rel_slack * base.median.abs();
    if base.direction == Direction::Info || fresh.direction == Direction::Info {
        return (band, Verdict::Info);
    }
    if !fresh.median.is_finite() {
        return (band, Verdict::Broken("fresh median not finite".into()));
    }
    if !base.median.is_finite() {
        return (band, Verdict::Broken("baseline median not finite".into()));
    }
    // Positive `worse` means the fresh median moved in the bad direction.
    let worse = match base.direction {
        Direction::Lower => fresh.median - base.median,
        Direction::Higher => base.median - fresh.median,
        Direction::Info => unreachable!("handled above"),
    };
    let verdict = if worse > band {
        Verdict::Regressed
    } else if worse < -band {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (band, verdict)
}

/// Diff `fresh` against `base`, classifying every series.
///
/// Snapshots measured under different modes (`quick` vs `full`) are not
/// comparable: every matched series is `Broken` and the mismatch is
/// noted, so a gate run against baselines of the wrong shape fails
/// loudly instead of judging apples against oranges.
pub fn compare_panels(
    base: &PanelSnapshot,
    fresh: &PanelSnapshot,
    opts: CompareOpts,
) -> PanelDelta {
    let mut notes = Vec::new();
    let mode_mismatch = base.env.mode != fresh.env.mode;
    if mode_mismatch {
        notes.push(format!(
            "mode mismatch: baseline {:?} vs fresh {:?} — not comparable, regenerate the baseline",
            base.env.mode, fresh.env.mode
        ));
    }
    if base.env.cpus != fresh.env.cpus {
        notes.push(format!(
            "cpu count drift: baseline {} vs fresh {} (wall-clock series may shift)",
            base.env.cpus, fresh.env.cpus
        ));
    }
    let mut rows = Vec::new();
    for b in &base.series {
        match fresh.series.iter().find(|f| f.name == b.name) {
            Some(f) => {
                let (band, verdict) = if mode_mismatch {
                    (0.0, Verdict::Broken("mode mismatch".into()))
                } else {
                    classify(b, f, opts)
                };
                rows.push(SeriesDelta {
                    name: b.name.clone(),
                    unit: b.unit.clone(),
                    base_median: Some(b.median),
                    fresh_median: Some(f.median),
                    delta: Some(f.median - b.median),
                    band,
                    verdict,
                });
            }
            None => rows.push(SeriesDelta {
                name: b.name.clone(),
                unit: b.unit.clone(),
                base_median: Some(b.median),
                fresh_median: None,
                delta: None,
                band: 0.0,
                verdict: Verdict::Missing,
            }),
        }
    }
    for f in &fresh.series {
        if !base.series.iter().any(|b| b.name == f.name) {
            notes.push(format!("new series {} (no baseline yet)", f.name));
            rows.push(SeriesDelta {
                name: f.name.clone(),
                unit: f.unit.clone(),
                base_median: None,
                fresh_median: Some(f.median),
                delta: None,
                band: 0.0,
                verdict: Verdict::New,
            });
        }
    }
    PanelDelta {
        panel: base.panel.clone(),
        rows,
        notes,
    }
}

/// The whole gate: every `BENCH_*.json` under both directories compared.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    pub panels: Vec<PanelDelta>,
    /// Panels present only in the fresh dir (no committed baseline).
    pub missing_baseline: Vec<String>,
    /// Panels present only in the baseline dir (fresh run lost them).
    pub missing_fresh: Vec<String>,
}

impl GateReport {
    /// All gate failures, as printable reasons.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.missing_baseline {
            out.push(format!(
                "{p}: no committed baseline (run the baseline lane and commit BENCH_{p}.json)"
            ));
        }
        for p in &self.missing_fresh {
            out.push(format!(
                "{p}: baseline exists but the fresh run produced no snapshot"
            ));
        }
        for pd in &self.panels {
            for r in pd.failures() {
                out.push(match &r.verdict {
                    Verdict::Broken(why) => format!("{}/{}: {}", pd.panel, r.name, why),
                    v => format!("{}/{}: {}", pd.panel, r.name, v.label()),
                });
            }
        }
        out
    }

    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }
}

/// List the `BENCH_*.json` panel ids in `dir` (empty when the directory
/// does not exist).
pub fn list_panels(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(panel) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
            {
                out.push(panel.to_string());
            }
        }
    }
    out.sort();
    out
}

/// Compare every panel found in either directory. Unreadable or invalid
/// snapshot files are hard errors — a gate must not silently skip them.
pub fn compare_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    opts: CompareOpts,
) -> Result<GateReport, String> {
    let base_panels = list_panels(baseline_dir);
    let fresh_panels = list_panels(fresh_dir);
    if base_panels.is_empty() && fresh_panels.is_empty() {
        return Err(format!(
            "no BENCH_*.json snapshots in {} or {}",
            baseline_dir.display(),
            fresh_dir.display()
        ));
    }
    let mut report = GateReport::default();
    for p in &fresh_panels {
        if !base_panels.contains(p) {
            report.missing_baseline.push(p.clone());
        }
    }
    for p in &base_panels {
        let file = format!("BENCH_{p}.json");
        if !fresh_panels.contains(p) {
            report.missing_fresh.push(p.clone());
            continue;
        }
        let base = PanelSnapshot::read_from(&baseline_dir.join(&file))?;
        let fresh = PanelSnapshot::read_from(&fresh_dir.join(&file))?;
        report.panels.push(compare_panels(&base, &fresh, opts));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Provenance helpers
// ---------------------------------------------------------------------------

/// The workspace root this crate was compiled in (`crates/harness/../..`).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Current commit, short. `BENCH_GIT_SHA` overrides (detached CI
/// checkouts); `unknown` when git is unavailable.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("BENCH_GIT_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Now, as `YYYY-MM-DDThh:mm:ssZ` (civil-from-days, no chrono).
pub fn utc_now_iso8601() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let (h, m, s) = {
        let t = secs % 86_400;
        (t / 3600, (t / 60) % 60, t % 60)
    };
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

// ---------------------------------------------------------------------------
// JSON plumbing
// ---------------------------------------------------------------------------

/// Non-finite values are written as `null` (JSON has no NaN) and parse
/// back as NaN.
fn json_num(j: &Json) -> Result<f64, String> {
    match j {
        Json::Num(n) => Ok(*n),
        Json::Null => Ok(f64::NAN),
        other => Err(format!("expected number, got {other:?}")),
    }
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    json_num(
        doc.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?,
    )
    .map_err(|e| format!("field {key:?}: {e}"))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let v = req_f64(doc, key)?;
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
        Ok(v as u64)
    } else {
        Err(format!("field {key:?} is not a non-negative integer ({v})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with(series: Vec<Series>) -> PanelSnapshot {
        PanelSnapshot {
            schema_version: SCHEMA_VERSION,
            panel: "test_panel".into(),
            title: "a test panel".into(),
            git_sha: "abc123".into(),
            created_utc: "2026-08-09T00:00:00Z".into(),
            env: EnvFingerprint {
                cpus: 4,
                os: "linux".into(),
                arch: "x86_64".into(),
                rustc: "rustc 1.95.0".into(),
                features: "obs-enabled".into(),
                mode: "quick".into(),
            },
            series,
        }
    }

    fn lower(name: &str, samples: Vec<f64>) -> Series {
        Series::from_samples(name, "us", Direction::Lower, samples)
    }

    #[test]
    fn series_summary_from_samples() {
        let s = Series::from_samples("lat", "us", Direction::Lower, vec![3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.noise), (2.0, 1.0, 3.0, 2.0));
        assert_eq!(s.repeats, 3);
        let even = Series::from_samples("lat", "us", Direction::Lower, vec![1.0, 3.0]);
        assert_eq!(even.median, 2.0);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut snap = snapshot_with(vec![
            Series::from_samples(
                "a \"quoted\"",
                "%",
                Direction::Higher,
                vec![97.25, 98.5, 96.0],
            ),
            lower("b", vec![0.0, 0.0, 0.0]),
        ]);
        snap.title = "title with, commas — and unicode µs".into();
        let back = PanelSnapshot::from_json(&snap.to_json()).expect("roundtrip");
        assert_eq!(back, snap);
    }

    /// The golden for the writer: every committed baseline, parsed and
    /// written again, is the file it was read from — so moving to
    /// `obs::json` re-recorded nothing.
    #[test]
    fn committed_baselines_reserialize_byte_identically() {
        let root = workspace_root();
        let panels = list_panels(&root);
        assert!(!panels.is_empty(), "no BENCH_*.json at the workspace root");
        for panel in panels {
            let path = root.join(format!("BENCH_{panel}.json"));
            let text = std::fs::read_to_string(&path).expect("baseline reads");
            let snap = PanelSnapshot::from_json(&text).expect("baseline parses");
            assert_eq!(snap.to_json(), text, "{}", path.display());
        }
    }

    #[test]
    fn nan_medians_roundtrip_as_null() {
        let mut s = lower("weird", vec![1.0]);
        s.median = f64::NAN;
        s.samples = vec![f64::NAN];
        let snap = snapshot_with(vec![s]);
        let text = snap.to_json();
        assert!(text.contains("null"), "NaN must serialize as null: {text}");
        let back = PanelSnapshot::from_json(&text).expect("parses");
        assert!(back.series[0].median.is_nan());
        assert!(back.series[0].samples[0].is_nan());
    }

    #[test]
    fn validation_rejects_inconsistent_series() {
        let mut s = lower("bad", vec![1.0, 2.0]);
        s.repeats = 5;
        assert!(snapshot_with(vec![s]).validate().is_err());
        let mut s = lower("bad2", vec![1.0, 2.0]);
        s.median = 9.0; // outside [min, max]
        assert!(snapshot_with(vec![s]).validate().is_err());
        let ok = snapshot_with(vec![lower("fine", vec![1.0, 2.0])]);
        ok.validate().expect("consistent snapshot validates");
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let text = snapshot_with(vec![])
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(PanelSnapshot::from_json(&text).is_err());
    }

    #[test]
    fn regression_just_inside_vs_just_outside_the_noise_band() {
        let opts = CompareOpts { rel_slack: 0.0 };
        // Baseline: median 100, repeats spread 90..110 → noise band 20.
        let base = snapshot_with(vec![lower("lat", vec![90.0, 100.0, 110.0])]);
        // Just inside: +19.9 on a zero-noise fresh run → unchanged.
        let inside = snapshot_with(vec![lower("lat", vec![119.9, 119.9, 119.9])]);
        let d = compare_panels(&base, &inside, opts);
        assert_eq!(d.rows[0].verdict, Verdict::Unchanged, "{:?}", d.rows[0]);
        // Just outside: +20.1 → regressed.
        let outside = snapshot_with(vec![lower("lat", vec![120.1, 120.1, 120.1])]);
        let d = compare_panels(&base, &outside, opts);
        assert_eq!(d.rows[0].verdict, Verdict::Regressed);
        assert!(!GateReport {
            panels: vec![d],
            ..Default::default()
        }
        .passed());
        // The fresh run's own noise widens the band too: same +20.1 median
        // shift but a 30-wide fresh spread → inside.
        let noisy = snapshot_with(vec![lower("lat", vec![105.1, 120.1, 135.1])]);
        let d = compare_panels(&base, &noisy, opts);
        assert_eq!(d.rows[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn direction_governs_which_way_regresses() {
        let opts = CompareOpts { rel_slack: 0.0 };
        let base = snapshot_with(vec![Series::from_samples(
            "overlap",
            "%",
            Direction::Higher,
            vec![99.0, 99.0, 99.0],
        )]);
        let worse = snapshot_with(vec![Series::from_samples(
            "overlap",
            "%",
            Direction::Higher,
            vec![50.0, 50.0, 50.0],
        )]);
        assert_eq!(
            compare_panels(&base, &worse, opts).rows[0].verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_panels(&worse, &base, opts).rows[0].verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn info_series_never_gate() {
        let opts = CompareOpts { rel_slack: 0.0 };
        let mk = |v: f64| {
            snapshot_with(vec![Series::from_samples(
                "wallclock",
                "us",
                Direction::Info,
                vec![v],
            )])
        };
        let d = compare_panels(&mk(10.0), &mk(10_000.0), opts);
        assert_eq!(d.rows[0].verdict, Verdict::Info);
        assert!(!d.rows[0].verdict.fails_gate());
    }

    #[test]
    fn zero_and_nan_medians() {
        let opts = CompareOpts { rel_slack: 0.0 };
        // 0 → 0 is unchanged, 0 → 5 regresses (lower is better, band 0).
        let zero = snapshot_with(vec![lower("count", vec![0.0])]);
        assert_eq!(
            compare_panels(&zero, &zero, opts).rows[0].verdict,
            Verdict::Unchanged
        );
        let five = snapshot_with(vec![lower("count", vec![5.0])]);
        assert_eq!(
            compare_panels(&zero, &five, opts).rows[0].verdict,
            Verdict::Regressed
        );
        // A NaN median on either side is Broken and fails the gate.
        let mut nan_series = lower("count", vec![1.0]);
        nan_series.median = f64::NAN;
        let nan = snapshot_with(vec![nan_series]);
        let d = compare_panels(&zero, &nan, opts);
        assert!(matches!(d.rows[0].verdict, Verdict::Broken(_)));
        assert!(d.rows[0].verdict.fails_gate());
        let d = compare_panels(&nan, &zero, opts);
        assert!(matches!(d.rows[0].verdict, Verdict::Broken(_)));
    }

    #[test]
    fn series_present_on_one_side_only() {
        let opts = CompareOpts::default();
        let base = snapshot_with(vec![lower("kept", vec![1.0]), lower("gone", vec![2.0])]);
        let fresh = snapshot_with(vec![lower("kept", vec![1.0]), lower("added", vec![3.0])]);
        let d = compare_panels(&base, &fresh, opts);
        let verdict = |n: &str| {
            d.rows
                .iter()
                .find(|r| r.name == n)
                .map(|r| r.verdict.clone())
                .expect("row")
        };
        assert_eq!(verdict("gone"), Verdict::Missing);
        assert_eq!(verdict("added"), Verdict::New);
        assert!(verdict("gone").fails_gate());
        assert!(!verdict("added").fails_gate());
    }

    #[test]
    fn mode_mismatch_is_not_comparable() {
        let base = snapshot_with(vec![lower("lat", vec![1.0])]);
        let mut fresh = snapshot_with(vec![lower("lat", vec![1.0])]);
        fresh.env.mode = "full".into();
        let d = compare_panels(&base, &fresh, CompareOpts::default());
        assert!(matches!(d.rows[0].verdict, Verdict::Broken(_)));
        assert!(d.notes.iter().any(|n| n.contains("mode mismatch")));
    }

    #[test]
    fn rel_slack_widens_the_band() {
        // 10% worse on a noiseless series: regresses at slack 0, passes at 0.25.
        let base = snapshot_with(vec![lower("lat", vec![100.0])]);
        let fresh = snapshot_with(vec![lower("lat", vec![110.0])]);
        let tight = compare_panels(&base, &fresh, CompareOpts { rel_slack: 0.0 });
        assert_eq!(tight.rows[0].verdict, Verdict::Regressed);
        let loose = compare_panels(&base, &fresh, CompareOpts { rel_slack: 0.25 });
        assert_eq!(loose.rows[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn compare_dirs_reports_missing_panels() {
        let tmp = std::env::temp_dir().join(format!("benchjson-test-{}", std::process::id()));
        let (basedir, freshdir) = (tmp.join("base"), tmp.join("fresh"));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&basedir).expect("mkdir");
        std::fs::create_dir_all(&freshdir).expect("mkdir");

        // Empty on both sides: an error, not a silent pass.
        assert!(compare_dirs(&basedir, &freshdir, CompareOpts::default()).is_err());

        // fresh-only panel → missing baseline; base-only → missing fresh.
        let mut both = snapshot_with(vec![lower("lat", vec![1.0])]);
        both.panel = "both".into();
        both.write_to(&basedir).expect("write");
        both.write_to(&freshdir).expect("write");
        let mut only_base = both.clone();
        only_base.panel = "only_base".into();
        only_base.write_to(&basedir).expect("write");
        let mut only_fresh = both.clone();
        only_fresh.panel = "only_fresh".into();
        only_fresh.write_to(&freshdir).expect("write");

        let report = compare_dirs(&basedir, &freshdir, CompareOpts::default()).expect("compares");
        assert_eq!(report.missing_baseline, vec!["only_fresh".to_string()]);
        assert_eq!(report.missing_fresh, vec!["only_base".to_string()]);
        assert_eq!(report.panels.len(), 1);
        assert!(!report.passed());
        let failures = report.failures();
        assert!(failures.iter().any(|f| f.contains("only_fresh")));
        assert!(failures.iter().any(|f| f.contains("only_base")));

        // A corrupt snapshot file is a hard error.
        std::fs::write(basedir.join("BENCH_both.json"), "{not json").expect("write");
        assert!(compare_dirs(&basedir, &freshdir, CompareOpts::default()).is_err());
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn current_fingerprint_is_populated() {
        let env = EnvFingerprint::current();
        assert!(env.cpus >= 1);
        assert!(!env.os.is_empty() && !env.arch.is_empty());
        let ts = utc_now_iso8601();
        assert_eq!(ts.len(), 20, "{ts}");
        assert!(ts.ends_with('Z') && ts.contains('T'));
        assert!(ts.starts_with("20"), "{ts}");
    }
}
