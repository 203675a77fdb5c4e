//! `offload-lint` — the workspace's source-discipline analysis pass.
//!
//! A std-only textual analyzer (no rustc plumbing; its one dependency is
//! the workspace's own std-only `obs`, for the JSON writer) that
//! enforces the conventions the heavier verification layers *assume*:
//! the model checker trusts that the lock-free core routes all
//! concurrency through the `check` facade, the Miri/model lanes trust
//! that every memory-ordering choice is justified in place, and the wire
//! protocol checker trusts that nothing on a peer-controlled input path
//! can panic. Each rule is cheap to check textually and expensive to
//! violate silently.
//!
//! ## Rule catalog
//!
//! * `safety-comment` — every `unsafe` outside test code carries a
//!   `// SAFETY:` comment on the same line or within the 8 lines above.
//! * `ordering-comment` — every atomic `Ordering::…` use outside test
//!   code (SeqCst *and* weaker) carries an `// ORDERING:` comment saying
//!   why that ordering — no stronger, no weaker — is the right one.
//! * `std-concurrency-facade` — the model-checked crates (`crates/core`,
//!   `crates/rtmpi` and `crates/shmring`) must not touch
//!   `std::sync::atomic` or `std::thread` directly; everything goes
//!   through the `check` facade so the model scheduler can interpose.
//!   Test modules are exempt (they run natively).
//! * `reserved-tag-literal` — no integer literal inside the reserved tag
//!   span `0x7000_0000..0x8000_0000` outside `crates/rtmpi`: consumers
//!   must name `TAG_RESERVED_BASE`/`TAG_COLL_BASE` so the span can move.
//! * `peer-input-hardening` — the wire frame-handling modules
//!   (`engine.rs`, `proto.rs`, `fabric.rs`, `shm.rs`, `regpool.rs`, and
//!   the stats plane's two decoders, `relay.rs` and `stats.rs`) must not
//!   use `.unwrap()`, `.expect(` or `Instant::now` outside test code:
//!   anything a peer can put on the wire (or in a shared segment) must be
//!   counted, never panicked on, and the model fabric requires the data
//!   path to be clock-free.
//! * `unsafe-confinement` — inside `crates/wire`, `unsafe` lives only in
//!   the files listed in [`WIRE_UNSAFE_HOMES`], each with its reason
//!   (`src/shm.rs`: the mapped segment and fd passing; `src/sys.rs`: the
//!   `poll(2)` and `readv(2)` calls std does not offer, and the write-once
//!   receive body they and the ring fill) and each answering to
//!   `safety-comment` per use; the mmap surface lives in `src/shm.rs`
//!   alone. The rest of the transport stays safe Rust, so reviewing the
//!   shared-memory trust boundary means reading exactly one file, and
//!   the raw-syscall surface one more.
//! * `service-loop-confinement` — non-test code in `crates/core/src` and
//!   `crates/approaches/src` calls `Transport::{progress, try_take,
//!   cancel}` only inside `crates/core/src/service.rs`. The paper's
//!   strategies differ in who *steps* the one service loop; a second place
//!   that polls a transport and retires its requests is a second loop,
//!   with its own copy of the timeout and bookkeeping rules to drift.
//! * `guarded-notify` — in non-test code of `crates/rtmpi/src` and
//!   `crates/core/src` (the in-process op path), a `Condvar`
//!   `notify_one`/`notify_all` sits within 6 lines below a waiter-count
//!   check (a line comparing a `waiters` count with zero). std's futex
//!   condvar has no waiter check of its own, so an unguarded notify is a
//!   `futex(WAKE)` syscall per operation that usually nobody is waiting
//!   for — what `rtmpi`'s request completion cost before it counted its
//!   waiters. Sites that always have waiters go on the allowlist.
//!
//! ## Allowlist
//!
//! False positives are suppressed through an allowlist file (`.lint-allow`
//! at the workspace root), one entry per line:
//!
//! ```text
//! # rule  path-suffix  substring-of-flagged-line
//! peer-input-hardening crates/wire/src/engine.rs last_advance: Instant::now()
//! ```
//!
//! An entry matches when the rule name equals, the finding's path ends
//! with the suffix, and the flagged source line contains the substring.
//! Unused entries are reported so the file cannot rot.
//!
//! The linter does not scan its own crate: these sources necessarily
//! spell out every forbidden token (as fixtures and needles), and the
//! rule engine itself is covered by unit tests and `--self-test` instead.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: usize,
    pub message: String,
    /// The flagged source line, trimmed (what allowlist needles match).
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Names of every rule, in report order.
pub const RULES: &[&str] = &[
    "safety-comment",
    "ordering-comment",
    "std-concurrency-facade",
    "reserved-tag-literal",
    "peer-input-hardening",
    "unsafe-confinement",
    "service-loop-confinement",
    "guarded-notify",
];

/// How many lines above a flagged use a justifying comment may sit.
const COMMENT_WINDOW: usize = 8;

/// How many lines above a condvar notify its waiter-count check may sit.
const NOTIFY_GUARD_WINDOW: usize = 6;

/// Is `line` a waiter-count check: a `waiters` count compared with zero?
fn is_waiter_check(line: &str) -> bool {
    line.contains("waiters") && ["> 0", "!= 0", "== 0"].iter().any(|cmp| line.contains(cmp))
}

/// Reserved tag span (mirrors `rtmpi::TAG_RESERVED_BASE` and its width —
/// the literal lives here and in `rtmpi` only, which is the rule's point).
const RESERVED_LO: u64 = 0x7000_0000;
const RESERVED_HI: u64 = 0x8000_0000;

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `line` contain `unsafe` as a standalone token (not part of an
/// identifier, not immediately after a `"`)?
fn has_unsafe_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let needle = b"unsafe";
    let mut from = 0;
    while let Some(pos) = line[from..].find("unsafe").map(|p| p + from) {
        let before_ok = pos == 0 || {
            let b = bytes[pos - 1];
            !is_ident(b) && b != b'"'
        };
        let after = pos + needle.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        from = pos + 1;
    }
    false
}

/// Scan `line` for integer literals inside the reserved tag span.
fn has_reserved_tag_literal(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if &bytes[i..i + 2] == b"0x" && (i == 0 || !is_ident(bytes[i - 1])) {
            let mut j = i + 2;
            let mut digits = String::new();
            while j < bytes.len() && (bytes[j].is_ascii_hexdigit() || bytes[j] == b'_') {
                if bytes[j] != b'_' {
                    digits.push(bytes[j] as char);
                }
                j += 1;
            }
            if let Ok(v) = u64::from_str_radix(&digits, 16) {
                if (RESERVED_LO..RESERVED_HI).contains(&v) {
                    return true;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

/// Which rule scopes a workspace-relative path falls into.
struct Scope {
    /// `crates/core` — the model-checked crate, facade-only concurrency.
    facade_only: bool,
    /// `crates/rtmpi` — owns the reserved tag span, may spell it.
    owns_reserved_span: bool,
    /// Wire frame-handling module (peer-controlled input path).
    peer_input: bool,
    /// `crates/wire` outside [`WIRE_UNSAFE_HOMES`] — must stay safe Rust.
    wire_safe_zone: bool,
    /// `crates/wire` outside `src/shm.rs` — must not name the mmap surface.
    wire_no_mmap: bool,
    /// The live offload layers outside `offload::service` — must step the
    /// service, never drive a transport themselves.
    steps_service_only: bool,
    /// The in-process op path — a condvar notify needs a waiter check.
    guards_notifies: bool,
}

/// The files of `crates/wire` that may say `unsafe`, and why each must.
pub const WIRE_UNSAFE_HOMES: &[(&str, &str)] = &[
    (
        "crates/wire/src/shm.rs",
        "mmap'd segments, SCM_RIGHTS fd passing and the pointer-backed RingMem",
    ),
    (
        "crates/wire/src/sys.rs",
        "the poll(2) FFI call behind PollSet; std has no readiness sweep",
    ),
];

fn scope_of(path: &str) -> Scope {
    let peer_input_files = [
        "crates/wire/src/engine.rs",
        "crates/wire/src/proto.rs",
        "crates/wire/src/fabric.rs",
        "crates/wire/src/shm.rs",
        "crates/wire/src/regpool.rs",
        "crates/wire/src/relay.rs",
        "crates/wire/src/stats.rs",
    ];
    Scope {
        facade_only: ["crates/core/src", "crates/rtmpi/src", "crates/shmring/src"]
            .iter()
            .any(|dir| path.starts_with(dir)),
        owns_reserved_span: path.starts_with("crates/rtmpi"),
        peer_input: peer_input_files.contains(&path),
        wire_safe_zone: path.starts_with("crates/wire/src")
            && !WIRE_UNSAFE_HOMES.iter().any(|(home, _)| *home == path),
        wire_no_mmap: path.starts_with("crates/wire/src") && path != "crates/wire/src/shm.rs",
        steps_service_only: (path.starts_with("crates/core/src")
            || path.starts_with("crates/approaches/src"))
            && path != "crates/core/src/service.rs",
        guards_notifies: path.starts_with("crates/rtmpi/src")
            || path.starts_with("crates/core/src"),
    }
}

/// Run every rule over one file's source. `path` is workspace-relative
/// with `/` separators; it selects which scoped rules apply.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let scope = scope_of(path);
    let mut findings = Vec::new();
    // Line numbers of the most recent justifying comments (0 = never).
    let mut last_safety = 0usize;
    let mut last_ordering = 0usize;
    let mut last_waiter_check = 0usize;
    // Everything from a column-0 `#[cfg(test)]` down is test code (the
    // workspace convention puts unit-test modules at the end of a file).
    // Integration tests, benches and a module's out-of-line `tests.rs`
    // are test code from line one.
    let mut in_test = path
        .split('/')
        .any(|seg| seg == "tests" || seg == "tests.rs" || seg == "benches");

    for (idx, raw) in src.lines().enumerate() {
        let nr = idx + 1;
        let line = raw.trim_start();
        if raw.starts_with("#[cfg(test)]") {
            in_test = true;
        }
        if line.starts_with("//") {
            if line.starts_with("// SAFETY:") {
                last_safety = nr;
            }
            if line.starts_with("// ORDERING:") {
                last_ordering = nr;
            }
            continue;
        }
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                rule,
                file: path.to_string(),
                line: nr,
                message,
                snippet: line.to_string(),
            });
        };

        if !in_test && has_unsafe_token(line) {
            let covered = (last_safety != 0 && nr - last_safety <= COMMENT_WINDOW)
                || raw.contains("// SAFETY:");
            if !covered {
                push(
                    "safety-comment",
                    "`unsafe` without a preceding // SAFETY: comment".into(),
                );
            }
        }
        // An import (`use …::Ordering::*`) is not an ordering *choice* —
        // only operation sites need justification.
        if !in_test && line.contains("Ordering::") && !line.starts_with("use ") {
            let covered = (last_ordering != 0 && nr - last_ordering <= COMMENT_WINDOW)
                || raw.contains("// ORDERING:");
            if !covered {
                push(
                    "ordering-comment",
                    "atomic ordering without a preceding // ORDERING: comment \
                     justifying the choice"
                        .into(),
                );
            }
        }
        if !in_test && scope.facade_only {
            for needle in ["std::sync::atomic", "std::thread"] {
                if line.contains(needle) {
                    push(
                        "std-concurrency-facade",
                        format!(
                            "model-checked crate uses `{needle}` directly; route it \
                             through the `check` facade so the model scheduler can \
                             interpose"
                        ),
                    );
                }
            }
        }
        if !in_test && !scope.owns_reserved_span && has_reserved_tag_literal(line) {
            push(
                "reserved-tag-literal",
                "integer literal inside the reserved tag span \
                 (0x7000_0000..0x8000_0000); name rtmpi::TAG_RESERVED_BASE / \
                 TAG_COLL_BASE instead"
                    .into(),
            );
        }
        if !in_test && scope.wire_safe_zone && has_unsafe_token(line) {
            push(
                "unsafe-confinement",
                "`unsafe` in crates/wire outside src/shm.rs and src/sys.rs; the \
                 shared-memory trust boundary and the raw-syscall surface are \
                 confined to those two files"
                    .into(),
            );
        }
        if !in_test && scope.wire_no_mmap {
            for needle in ["mmap", "munmap", "memfd_create"] {
                if line.contains(needle) {
                    push(
                        "unsafe-confinement",
                        format!(
                            "`{needle}` in crates/wire outside src/shm.rs; the mmap \
                             surface is confined to that one file"
                        ),
                    );
                }
            }
        }
        if !in_test && scope.steps_service_only {
            for needle in [".progress(", ".try_take(", ".cancel("] {
                if line.contains(needle) {
                    push(
                        "service-loop-confinement",
                        format!(
                            "`{needle}` outside crates/core/src/service.rs: submit to and \
                             step the one `offload::Service` instead of driving a \
                             transport from a second loop"
                        ),
                    );
                }
            }
        }
        if !in_test && scope.guards_notifies {
            if is_waiter_check(line) {
                last_waiter_check = nr;
            }
            let guarded = last_waiter_check != 0 && nr - last_waiter_check <= NOTIFY_GUARD_WINDOW;
            if !guarded
                && [".notify_one(", ".notify_all("]
                    .iter()
                    .any(|n| line.contains(n))
            {
                push(
                    "guarded-notify",
                    "condvar notify without a waiter-count check just above: an \
                     unconditional notify is a futex wake per operation; count the \
                     waiters and notify only when there are some"
                        .into(),
                );
            }
        }
        if !in_test && scope.peer_input {
            for needle in [".unwrap()", ".expect(", "Instant::now"] {
                if line.contains(needle) {
                    push(
                        "peer-input-hardening",
                        format!(
                            "`{needle}` on a peer-controlled input path: frame \
                             handling must count and absorb malformed input, never \
                             panic, and stay clock-free for the model fabric"
                        ),
                    );
                }
            }
        }
    }
    findings
}

// -------------------------------------------------------------- allowlist

/// One parsed allowlist entry (see module docs for the file format).
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path_suffix: String,
    pub needle: String,
    /// Line in the allowlist file (for the unused-entry report).
    pub line: usize,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        f.rule == self.rule
            && f.file.ends_with(&self.path_suffix)
            && f.snippet.contains(&self.needle)
    }
}

/// Parse an allowlist file's contents; malformed lines are errors (a
/// silently-ignored entry would un-suppress a finding without warning).
pub fn parse_allowlist(src: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path_suffix), Some(needle)) if !needle.trim().is_empty() => {
                if !RULES.contains(&rule) {
                    return Err(format!("allowlist line {}: unknown rule `{rule}`", idx + 1));
                }
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    path_suffix: path_suffix.to_string(),
                    needle: needle.trim().to_string(),
                    line: idx + 1,
                });
            }
            _ => {
                return Err(format!(
                    "allowlist line {}: expected `rule path-suffix needle`",
                    idx + 1
                ));
            }
        }
    }
    Ok(entries)
}

/// Split findings into (kept, suppressed) under `allow`; also returns the
/// allowlist entries that matched nothing (rot detection).
pub fn apply_allowlist(
    findings: Vec<Finding>,
    allow: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<usize>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; allow.len()];
    for f in findings {
        match allow.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed.push(f);
            }
            None => kept.push(f),
        }
    }
    let unused = used
        .iter()
        .enumerate()
        .filter(|&(_, &u)| !u)
        .map(|(i, _)| allow[i].line)
        .collect();
    (kept, suppressed, unused)
}

// ----------------------------------------------------------------- walker

/// Workspace directories the lint walks (relative to the root).
const WALK_ROOTS: &[&str] = &["crates", "shims", "src", "examples", "tests"];

/// Collect every `.rs` file under the workspace roots, skipping build
/// output and this linter's own crate (see module docs).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    files.retain(|p| !rel_of(root, p).starts_with("crates/lint"));
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated form of `path`.
pub fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

// ----------------------------------------------------------------- report

/// The machine-readable findings report (one JSON object, stable keys).
pub fn json_report(findings: &[Finding], suppressed: usize) -> String {
    use obs::json::{Layout, Writer};
    let mut w = Writer::new();
    w.object(Layout::Block, |w| {
        w.key("findings").array(Layout::Block, |w| {
            for f in findings {
                w.object(Layout::Inline, |w| {
                    w.field("rule", f.rule).field("file", &f.file);
                    w.field("line", f.line).field("message", &f.message);
                    w.field("snippet", &f.snippet);
                });
            }
        });
        w.field("count", findings.len());
        w.field("suppressed", suppressed);
    });
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<_> = scan_source(path, src).into_iter().map(|f| f.rule).collect();
        rules.dedup();
        rules
    }

    #[test]
    fn clean_source_has_no_findings() {
        let src = "\
// ORDERING: Relaxed — monotonic counter, no cross-thread edges.
let x = c.load(Ordering::Relaxed);
// SAFETY: index bounded by the loop above.
let y = unsafe { v.get_unchecked(0) };
";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "let y = unsafe { v.get_unchecked(0) };\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), ["safety-comment"]);
        // The token match is word-bounded: identifiers don't trip it.
        assert!(scan_source("crates/a/src/x.rs", "let not_unsafe_x = 1;\n").is_empty());
    }

    #[test]
    fn any_ordering_without_comment_is_flagged() {
        for ord in ["SeqCst", "Relaxed", "Acquire", "Release", "AcqRel"] {
            let src = format!("c.load(Ordering::{ord});\n");
            assert_eq!(
                rules_fired("crates/obs/src/x.rs", &src),
                ["ordering-comment"],
                "{ord}"
            );
        }
        // Inline justification counts.
        let inline = "c.load(Ordering::Relaxed); // ORDERING: stats only.\n";
        assert!(scan_source("crates/obs/src/x.rs", inline).is_empty());
        // Imports are not ordering choices.
        let import = "use std::sync::atomic::Ordering::*;\n";
        assert!(scan_source("crates/obs/src/x.rs", import).is_empty());
    }

    #[test]
    fn comment_window_is_eight_lines() {
        let near = format!(
            "// ORDERING: fine.\n{}c.load(Ordering::SeqCst);\n",
            "\n".repeat(7)
        );
        assert!(scan_source("crates/a/src/x.rs", &near).is_empty());
        let far = format!(
            "// ORDERING: too far.\n{}c.load(Ordering::SeqCst);\n",
            "\n".repeat(8)
        );
        assert_eq!(scan_source("crates/a/src/x.rs", &far).len(), 1);
    }

    #[test]
    fn test_modules_are_exempt_from_comment_rules() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    fn f() { C.load(Ordering::SeqCst); }
}
";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn integration_tests_and_benches_are_exempt() {
        let src = "c.load(Ordering::SeqCst);\nlet y = unsafe { x() };\n";
        assert!(scan_source("crates/core/tests/stress.rs", src).is_empty());
        assert!(scan_source("crates/core/benches/b.rs", src).is_empty());
        assert!(scan_source("crates/wire/src/fabric/tests.rs", src).is_empty());
        assert!(!scan_source("crates/core/src/q.rs", src).is_empty());
    }

    #[test]
    fn std_concurrency_in_core_is_flagged_and_facade_is_not() {
        let src = "use std::thread::JoinHandle;\nuse std::sync::atomic::AtomicU32;\n";
        for path in [
            "crates/core/src/live.rs",
            "crates/rtmpi/src/lib.rs",
            "crates/shmring/src/ring.rs",
        ] {
            assert_eq!(rules_fired(path, src), ["std-concurrency-facade"], "{path}");
        }
        // The facade itself and other crates may touch std directly.
        assert!(scan_source("crates/check/src/thread.rs", src).is_empty());
        assert!(scan_source("crates/wire/src/launcher.rs", src).is_empty());
    }

    #[test]
    fn reserved_tag_literal_outside_rtmpi_is_flagged() {
        let src = "let tag = 0x7000_0005u32;\n";
        assert_eq!(
            rules_fired("crates/wire/src/x.rs", src),
            ["reserved-tag-literal"]
        );
        assert!(scan_source("crates/rtmpi/src/lib.rs", src).is_empty());
        // Outside the span: fine.
        assert!(scan_source("crates/wire/src/x.rs", "let t = 0x6FFF_FFFFu32;\n").is_empty());
        assert!(scan_source("crates/wire/src/x.rs", "let t = 0x8000_0000u64;\n").is_empty());
    }

    #[test]
    fn peer_input_hardening_is_scoped_to_wire_frame_modules() {
        for needle in ["x.unwrap();", "x.expect(\"boom\");", "Instant::now();"] {
            let src = format!("let y = {needle}\n");
            assert_eq!(
                rules_fired("crates/wire/src/engine.rs", &src),
                ["peer-input-hardening"],
                "{needle}"
            );
            // Same code elsewhere in wire (launcher, bootstrap) is fine.
            assert!(scan_source("crates/wire/src/launcher.rs", &src).is_empty());
        }
        // unwrap_or_else is not unwrap.
        let soft = "let y = x.unwrap_or_else(|| 0);\n";
        assert!(scan_source("crates/wire/src/engine.rs", soft).is_empty());
    }

    #[test]
    fn unsafe_and_mmap_are_confined_to_wire_shm() {
        // `unsafe` anywhere else in crates/wire fires even WITH a SAFETY
        // comment — the rule is about location, not justification.
        let src = "// SAFETY: justified but misplaced.\nlet y = unsafe { x() };\n";
        assert_eq!(
            rules_fired("crates/wire/src/fabric.rs", src),
            ["unsafe-confinement"]
        );
        let mmap = "let p = mmap(core::ptr::null_mut(), len, 3, 1, fd, 0);\n";
        assert_eq!(
            rules_fired("crates/wire/src/engine.rs", mmap),
            ["unsafe-confinement"]
        );
        // The two homes answer to safety-comment, not confinement.
        for (home, reason) in WIRE_UNSAFE_HOMES {
            assert!(!reason.is_empty());
            assert_eq!(
                rules_fired(home, "let y = unsafe { x() };\n"),
                ["safety-comment"]
            );
            assert!(scan_source(home, src).is_empty());
        }
        // sys.rs may say `unsafe`, never `mmap`.
        assert_eq!(
            rules_fired("crates/wire/src/sys.rs", mmap),
            ["unsafe-confinement"]
        );
        // Other crates are out of scope, and wire test code is exempt.
        assert!(scan_source("crates/core/src/q.rs", "mmap(p, n);\n").is_empty());
        assert!(scan_source("crates/wire/tests/launcher.rs", mmap).is_empty());
    }

    #[test]
    fn transport_is_driven_only_from_the_service_module() {
        for call in ["t.progress();", "t.try_take(&r);", "t.cancel(&r);"] {
            let src = format!("let x = {call}\n");
            for path in ["crates/core/src/live.rs", "crates/approaches/src/live.rs"] {
                assert_eq!(
                    rules_fired(path, &src),
                    ["service-loop-confinement"],
                    "{call} in {path}"
                );
            }
            // The service module is the one place, and the transports'
            // own crates, tests and benches are out of scope.
            assert!(scan_source("crates/core/src/service.rs", &src).is_empty());
            assert!(scan_source("crates/mpisim/src/nbc.rs", &src).is_empty());
            assert!(scan_source("crates/core/tests/live_stress.rs", &src).is_empty());
        }
        // Stepping the service is not driving the transport.
        assert!(scan_source("crates/approaches/src/live.rs", "svc.step();\n").is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { t.progress(); }\n}\n";
        assert!(scan_source("crates/core/src/live.rs", in_tests).is_empty());
    }

    #[test]
    fn condvar_notify_on_the_op_path_needs_a_waiter_check() {
        let bare = "st.done = true;\ncv.notify_all();\n";
        for path in ["crates/rtmpi/src/lib.rs", "crates/core/src/backoff.rs"] {
            assert_eq!(rules_fired(path, bare), ["guarded-notify"], "{path}");
        }
        assert_eq!(
            rules_fired("crates/core/src/x.rs", "cv.notify_one();\n"),
            ["guarded-notify"]
        );
        // Guarded: the count is compared with zero a few lines above.
        let flag = "let wake = st.waiters > 0;\ndrop(st);\nif wake {\n    cv.notify_all();\n}\n";
        assert!(scan_source("crates/rtmpi/src/lib.rs", flag).is_empty());
        let inline = "if self.waiters.load(o) != 0 {\n    self.cv.notify_all();\n}\n";
        assert!(scan_source("crates/core/src/x.rs", inline).is_empty());
        // A check too far above no longer covers the notify...
        let far = format!(
            "let wake = st.waiters > 0;\n{}cv.notify_all();\n",
            "\n".repeat(6)
        );
        assert_eq!(
            rules_fired("crates/rtmpi/src/lib.rs", &far),
            ["guarded-notify"]
        );
        // ...a mention of the count that compares nothing is no check...
        let mention = "st.waiters += 1;\ncv.notify_all();\n";
        assert_eq!(
            rules_fired("crates/rtmpi/src/lib.rs", mention),
            ["guarded-notify"]
        );
        // ...and comments are not code.
        let comment = "// waiters > 0 here, surely\ncv.notify_all();\n";
        assert_eq!(
            rules_fired("crates/rtmpi/src/lib.rs", comment),
            ["guarded-notify"]
        );
        // Other crates, and test code, are out of scope.
        assert!(scan_source("crates/wire/src/engine.rs", bare).is_empty());
        assert!(scan_source("crates/rtmpi/tests/t.rs", bare).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { cv.notify_all(); }\n}\n";
        assert!(scan_source("crates/core/src/x.rs", in_tests).is_empty());
    }

    #[test]
    fn allowlist_suppresses_and_reports_unused() {
        let findings = scan_source("crates/wire/src/engine.rs", "let t = Instant::now();\n");
        assert_eq!(findings.len(), 1);
        let allow = parse_allowlist(
            "# comment\n\
             peer-input-hardening crates/wire/src/engine.rs Instant::now\n\
             peer-input-hardening crates/wire/src/engine.rs never_matches\n",
        )
        .unwrap();
        let (kept, suppressed, unused) = apply_allowlist(findings, &allow);
        assert!(kept.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert_eq!(unused, vec![3]);
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(parse_allowlist("bogus-rule a b\n").is_err());
        assert!(parse_allowlist("ordering-comment only-two\n").is_err());
    }

    #[test]
    fn json_report_is_wellformed_enough() {
        let findings = scan_source("crates/wire/src/engine.rs", "let t = Instant::now();\n");
        let json = json_report(&findings, 2);
        assert!(json.contains("\"rule\": \"peer-input-hardening\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"suppressed\": 2"));
    }
}
