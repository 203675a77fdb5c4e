//! CI gate for the cluster stats report.
//!
//! `stats-check <report.json> --ranks 4 [--positive <metric>]...
//! [--zero <metric>]... [--relay-depth <min>] [--blackbox-dead <min>]`
//!
//! Exits 0 iff the report parses, covers exactly `--ranks` ranks (0..n,
//! once each), every `--positive` metric is `> 0`, and every `--zero`
//! metric is absent or `0`, for every rank that exited cleanly — in the
//! metrics of the source that covers it: the rank's own row when it
//! reported in its own name, the report's merged `relay` section when a
//! tree carried it. (`--zero` is how the shm smoke lane pins
//! `wire.eager_alloc` to nothing.) `--relay-depth` additionally requires
//! the realized tree depth to reach the given minimum with full rank
//! coverage, and `--blackbox-dead` requires a dead rank whose recovered
//! flight-recorder timeline carries at least that many well-ordered
//! events. Validation itself lives in [`wire::stats`] so tests exercise
//! the same code path.

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut checks = wire::stats::ReportChecks::default();
    let mut have_ranks = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) => {
                        checks.ranks = n;
                        have_ranks = true;
                    }
                    Err(_) => die(&format!("bad rank count {v:?}")),
                }
            }
            "--positive" => match args.next() {
                Some(m) => checks.positive.push(m),
                None => die("--positive needs a metric name"),
            },
            "--zero" => match args.next() {
                Some(m) => checks.zero.push(m),
                None => die("--zero needs a metric name"),
            },
            "--relay-depth" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(d) => checks.relay_depth_min = Some(d),
                    Err(_) => die(&format!("bad relay depth {v:?}")),
                }
            }
            "--blackbox-dead" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) => checks.blackbox_dead_min = Some(n),
                    Err(_) => die(&format!("bad blackbox event count {v:?}")),
                }
            }
            _ if a.starts_with('-') => die(&format!("unknown flag {a}")),
            _ if path.is_none() => path = Some(a),
            _ => die("more than one report path given"),
        }
    }
    let Some(path) = path else {
        die("missing report path");
    };
    if !have_ranks {
        die("missing --ranks <n>");
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => die(&format!("cannot read {path}: {e}")),
    };
    match wire::stats::validate_report_checks(&text, &checks) {
        Ok(n) => println!(
            "stats-check: {path} ok ({n} ranks, {} positive / {} zero metric(s){}{})",
            checks.positive.len(),
            checks.zero.len(),
            checks
                .relay_depth_min
                .map_or(String::new(), |d| format!(", relay depth >= {d}")),
            checks
                .blackbox_dead_min
                .map_or(String::new(), |b| format!(", blackbox >= {b} event(s)")),
        ),
        Err(e) => die(&format!("{path}: {e}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("stats-check: {msg}");
    eprintln!(
        "usage: stats-check <report.json> --ranks <n> [--positive <metric>]... \
         [--zero <metric>]... [--relay-depth <min>] [--blackbox-dead <min>]"
    );
    std::process::exit(1);
}
