//! `cxk-lint` — run the workspace static analyses from the command line.
//!
//! ```text
//! cargo run -p cxk-analysis --                  # human-readable report
//! cargo run -p cxk-analysis -- --deny-all       # warnings gate too (CI)
//! cargo run -p cxk-analysis -- --json > r.json  # machine-readable
//! cargo run -p cxk-analysis -- --validate r.json
//! ```
//!
//! Exit codes: 0 clean, 1 findings at gating severity, 2 usage/IO error.

use cxk_analysis::{json, lint_workspace, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "cxk-lint: workspace static analysis

USAGE:
    cxk-lint [--root PATH] [--json] [--deny-all] [--quiet]
    cxk-lint --validate REPORT.json

OPTIONS:
    --root PATH       workspace root to scan (default: .)
    --json            print the machine-readable report to stdout
    --deny-all        treat warnings as errors (CI gate)
    --quiet           suppress the inventory summary
    --validate FILE   parse FILE and check it against the report schema
    -h, --help        show this help
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out = false;
    let mut deny_all = false;
    let mut quiet = false;
    let mut validate: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root needs a path"),
            },
            "--json" => json_out = true,
            "--deny-all" => deny_all = true,
            "--quiet" => quiet = true,
            "--validate" => match args.next() {
                Some(p) => validate = Some(PathBuf::from(p)),
                None => return usage_error("--validate needs a file"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(path) = validate {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cxk-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        return match json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| json::validate_report(&v))
        {
            Ok(()) => {
                println!("{}: valid cxk-lint report", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: invalid report: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if !root.is_dir() {
        eprintln!(
            "cxk-lint: workspace root {} is not a directory",
            root.display()
        );
        return ExitCode::from(2);
    }
    let cfg = Config::default();
    let rep = match lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cxk-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json_out {
        print!("{}", rep.to_json());
    } else {
        for d in &rep.diagnostics {
            println!("{d}");
        }
        if !quiet {
            let errors = rep.error_count(false);
            let warnings = rep.diagnostics.len() - errors;
            println!(
                "cxk-lint: {} files, {} errors, {} warnings, {} suppressed",
                rep.files,
                errors,
                warnings,
                rep.suppressed.len()
            );
            for (name, u) in &rep.unsafe_inventory {
                println!(
                    "  unsafe[{name}]: {} sites ({} blocks, {} fns, {} impls, {} traits), {} documented",
                    u.total, u.blocks, u.fns, u.impls, u.traits, u.documented
                );
            }
            let mixed = rep
                .atomic_fields
                .iter()
                .filter(|a| a.class == "mixed")
                .count();
            println!(
                "  atomics: {} fields ({} mixed), lock graph: {} edges, {} cycles",
                rep.atomic_fields.len(),
                mixed,
                rep.lock_edges.len(),
                rep.lock_cycles
            );
        }
    }

    if rep.error_count(deny_all) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("cxk-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
