//! The `cxkbench` command.
//!
//! ```text
//! cxkbench [--workload <name>] --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! cxkbench compare <parent-dir> <change-dir> [--bench BENCHMARK.json]
//! ```
//!
//! A run prints one `workload metric value unit` line per metric, then,
//! as its last line, the result object (`correct`, `attempted`, `failed`,
//! `metrics`). With `--out` it also writes `<dir>/results.json` and, for a
//! traced run, `<dir>/trace/<workload>.jsonl`. Without `--workload` every
//! workload runs in its own child process, writing under
//! `<dir>/<workload>/`. The exit code is 0 when every correctness check
//! passed, 1 when one failed and 2 on a usage or I/O error.

use cxkbench::suite::{self, children, compare, Settings};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cxkbench [--workload <name>] --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>]\n       cxkbench compare <parent-dir> <change-dir> [--bench BENCHMARK.json]";

/// Measured seconds per run when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut seed = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let needs = || value.ok_or_else(|| format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let name = needs()?;
                if suite::workload(name).is_none() {
                    let known: Vec<&str> = suite::workloads().iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}` (known: {})",
                        known.join(", ")
                    ));
                }
                parsed.workload = Some(name.to_string());
                i += 2;
            }
            "--seed" => {
                seed = Some(needs()?.parse().map_err(|e| format!("--seed: {e}"))?);
                i += 2;
            }
            "--seconds" => {
                parsed.seconds = needs()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&parsed.seconds) {
                    return Err("--seconds must lie in [1, 600]".into());
                }
                i += 2;
            }
            "--trace" => match value {
                Some("0") | Some("1") => {
                    parsed.trace = value == Some("1");
                    i += 2;
                }
                _ => {
                    parsed.trace = true;
                    i += 1;
                }
            },
            "--out" => {
                parsed.out = Some(PathBuf::from(needs()?));
                i += 2;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().map(String::as_str);
    let child = match sub {
        Some("serve-child") => Some(children::serve_child(&args[1..])),
        Some("train-child") => Some(children::train_child(&args[1..])),
        _ => None,
    };
    if let Some(result) = child {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cxkbench {}: {e}", args[0]);
                ExitCode::from(2)
            }
        };
    }
    if sub == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("cxkbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cxkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cxkbench: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    match &parsed.workload {
        Some(name) => run_one(&exe, name, &parsed),
        None => run_all(&exe, &parsed),
    }
}

/// Runs one workload in this process.
fn run_one(exe: &Path, name: &str, args: &Args) -> ExitCode {
    let workload = suite::workload(name).expect("validated while parsing");
    let settings = Settings {
        exe: exe.to_path_buf(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: suite::work_dir(name),
        trace_file: args
            .out
            .as_ref()
            .filter(|_| args.trace)
            .map(|dir| dir.join("trace").join(format!("{name}.jsonl"))),
    };
    let outcome = suite::run(&workload, &settings);
    // The shared parent of the per-run scratch directories, once empty.
    let _ = std::fs::remove_dir(Path::new(".cxkbench_work"));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cxkbench: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("cxkbench: {name}: correctness check failed: {problem}");
    }
    let result = outcome.json();
    if let Some(dir) = &args.out {
        let file = format!(
            r#"{{"seed":{},"seconds":{},"trace":{},"runs":[{{"workload":"{name}",{}]}}"#,
            args.seed,
            args.seconds,
            args.trace,
            &result[1..]
        );
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("results.json"), file + "\n"))
        {
            eprintln!("cxkbench: cannot write {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload, each in a fresh child process.
fn run_all(exe: &Path, args: &Args) -> ExitCode {
    let mut worst = 0u8;
    for workload in suite::workloads() {
        let mut command = Command::new(exe);
        command
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.out {
            command.arg("--out").arg(dir.join(workload.name));
        }
        let code = match command.status() {
            Ok(status) => status.code().map_or(2, |c| c.clamp(0, 2) as u8),
            Err(e) => {
                eprintln!("cxkbench: cannot run {}: {e}", workload.name);
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}
