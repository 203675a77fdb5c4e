//! `opbench` — the op-path benchmark of the live offload stack.
//!
//! ```text
//! opbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out trace.json]
//! opbench [--seed <n>] [--seconds <s>]      every workload, plain then traced
//! opbench --repeat-check [--seconds <s>]    the A/A gate: the plain suite twice
//! opbench --smoke [--workload <name>]      six short traced runs (or one), checked
//! opbench --manifest                        print BENCHMARK.json
//! ```
//!
//! A `--workload` run measures in this process and prints one JSON object
//! as its last line of standard output. Every other mode runs each
//! workload in a process of its own (this executable again), so no
//! workload inherits another's heap, threads or page cache state.
//! See `README.md` for the metrics and what each workload is for.

mod alloc;
mod endpoint;
mod metrics;
mod payload;
mod probes;
mod procfs;
mod round;
mod run;
mod shapes;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::{Better, END_TO_END, RUN_SECONDS};
use obs::chrome::Json;
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Window of the traced half of a full-suite run.
const SUITE_TRACED_SECONDS: f64 = 4.0;
/// Window of a smoke run.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    Smoke,
    RepeatCheck,
    Manifest,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => a.mode = Mode::Smoke,
            "--repeat-check" => a.mode = Mode::RepeatCheck,
            "--manifest" => a.mode = Mode::Manifest,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Manifest => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Mode::RepeatCheck => repeat_check(&args),
        Mode::Run | Mode::Smoke => match &args.workload {
            Some(name) => one_workload(name, &args),
            None if args.mode == Mode::Smoke => smoke(),
            None => suite(&args),
        },
    }
}

/// Measure one workload in this process.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = workloads::find(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "opbench: no workload {name}; there are {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let smoke = args.mode == Mode::Smoke;
    let opts = run::Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            f64::from(RUN_SECONDS)
        }),
        trace: args.trace || smoke,
        out: args.out.clone(),
        smoke,
    };
    let report = match run::run(spec, &opts) {
        Ok(r) => r,
        Err(refused) => {
            eprintln!("opbench: refusing to run {name}: {refused}");
            return ExitCode::from(3);
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    for (metric, unit) in metrics::rows(opts.trace) {
        let v = report.values.get(metric).unwrap_or(f64::NAN);
        println!("{name:<22} {metric:<40} {v:>16.4} {unit}");
    }
    if !opts.trace {
        // Not a timing and never allowed to be anything but 0, so not in
        // the end-to-end table; the result line carries both counts.
        let ratio = report.failed as f64 / report.attempted as f64;
        println!("{name:<22} {:<40} {ratio:>16.4} ratio", "fail_ratio");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics::metrics_json(&report.values, opts.trace)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed on its last line.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl Child {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Correct results and not one failed operation: the workloads are
    /// chosen so that nothing fails, and a round that failed fast would be
    /// timed as if it had done its work.
    fn clean(&self) -> bool {
        self.correct && self.failed == 0.0
    }
}

/// Run `workload` in a process of its own and parse its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    extra: &[&str],
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = obs::chrome::parse_json(last).map_err(|e| {
        format!(
            "{workload}: exit {:?}, no result line ({e})",
            out.status.code()
        )
    })?;
    let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
    let count = |key: &str| match doc.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("{workload}: result line has no {key}")),
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let Some(Json::Obj(kvs)) = doc.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    let metrics = kvs
        .iter()
        .filter_map(|(k, v)| match v.get("value") {
            Some(Json::Num(n)) => Some((k.clone(), *n)),
            _ => None,
        })
        .collect();
    Ok(Child {
        correct: correct && out.status.success(),
        attempted,
        failed,
        metrics,
    })
}

/// Every workload, plain (the end-to-end metrics) then traced (the
/// per-layer metrics), each in its own process.
fn suite(args: &Args) -> ExitCode {
    let plain_s = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
    let traced_s = args.seconds.unwrap_or(SUITE_TRACED_SECONDS);
    let mut ok = true;
    for (trace, seconds) in [(false, plain_s), (true, traced_s)] {
        for w in &WORKLOADS {
            match child(w.name, args.seed, seconds, trace, &[]) {
                Ok(c) => {
                    ok &= c.clean();
                    for (metric, unit) in metrics::rows(trace) {
                        let v = c.get(metric).unwrap_or(f64::NAN);
                        println!("{:<22} {metric:<40} {v:>16.4} {unit}", w.name);
                    }
                    if !trace {
                        let ratio = c.failed / c.attempted.max(1.0);
                        println!("{:<22} {:<40} {ratio:>16.4} ratio", w.name, "fail_ratio");
                    }
                    if !c.correct {
                        println!("{:<22} INCORRECT", w.name);
                    }
                    if c.failed > 0.0 {
                        println!("{:<22} {} OPERATIONS FAILED", w.name, c.failed);
                    }
                }
                Err(e) => {
                    ok = false;
                    eprintln!("opbench: {e}");
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The A/A gate: the plain suite twice, the second pass in reverse order,
/// and every end-to-end metric of every workload must agree within its
/// bound. The same code measured twice is the least a bound must survive.
fn repeat_check(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
    let mut passes: Vec<Vec<Option<Child>>> = Vec::new();
    for pass in 0..2u64 {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if pass == 1 {
            order.reverse();
        }
        let mut results: Vec<Option<Child>> = WORKLOADS.iter().map(|_| None).collect();
        for i in order {
            match child(WORKLOADS[i].name, args.seed + pass, seconds, false, &[]) {
                Ok(c) => results[i] = Some(c),
                Err(e) => eprintln!("opbench: {e}"),
            }
        }
        passes.push(results);
    }
    let mut ok = true;
    println!(
        "{:<22} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (Some(a), Some(b)) = (&passes[0][i], &passes[1][i]) else {
            println!("{:<22} did not finish twice", w.name);
            ok = false;
            continue;
        };
        ok &= a.clean() && b.clean();
        if !(a.clean() && b.clean()) {
            println!(
                "{:<22} incorrect results or failed operations ({} and {} failed)",
                w.name, a.failed, b.failed
            );
        }
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.get(m.name), b.get(m.name)) else {
                ok = false;
                continue;
            };
            let lower = m.better == Better::Lower;
            // Whichever pass is the worse one, by how much.
            let by = stats::worsening(x, y, lower).max(stats::worsening(y, x, lower));
            let verdict = if by > m.bound { "FAIL" } else { "" };
            ok &= by <= m.bound;
            println!(
                "{:<22} {:<28} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                w.name,
                m.name,
                by * 100.0,
                m.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("opbench: the same code measured twice disagrees beyond a bound");
        ExitCode::FAILURE
    }
}

/// Six short traced runs: every workload must come back correct, with no
/// more threads than CPUs, no protocol errors and no failed operation.
fn smoke() -> ExitCode {
    let nproc = procfs::allowed_cpus().len() as f64;
    let mut ok = true;
    for w in &WORKLOADS {
        let verdict = child(w.name, 7, SMOKE_SECONDS, true, &["--smoke"]).and_then(|c| {
            let need = |metric: &str| c.get(metric).ok_or(format!("{}: no {metric}", w.name));
            if !c.correct {
                return Err(format!("{}: not correct", w.name));
            }
            if need("bench.threads")? > nproc {
                return Err(format!("{}: more threads than CPUs", w.name));
            }
            if c.failed != 0.0 || need("wire.protocol_errors")? != 0.0 {
                return Err(format!("{}: failed operations or protocol errors", w.name));
            }
            need("app.rounds")
        });
        match verdict {
            Ok(rounds) => println!("smoke {:<22} ok ({rounds} traced rounds)", w.name),
            Err(e) => {
                ok = false;
                println!("smoke {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
