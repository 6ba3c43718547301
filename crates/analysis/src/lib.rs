//! `cxk-analysis` — dependency-free static analysis for the cxk-means
//! workspace (`cxk-lint` binary).
//!
//! Five checks over a real token stream (never fooled by strings or
//! comments):
//!
//! | id | what |
//! |----|------|
//! | `unsafe-safety`   | every `unsafe` site carries `// SAFETY:` |
//! | `panic-freedom`   | no `unwrap`/`expect`/`panic!` in hot-path crates |
//! | `atomic-ordering` | per-field ordering audit, mixed-pair detection |
//! | `lock-order`      | lock graph: cycles, self-deadlock, blocking-while-held |
//! | `event-loop`      | acceptor readiness loop never blocks |
//!
//! Findings can be suppressed inline:
//!
//! ```text
//! // cxk-lint: allow(panic-freedom) -- poisoning is unrecoverable here
//! ```
//!
//! A malformed suppression (unknown check, missing `-- reason`) is itself
//! an error — silently dead annotations are worse than none.

pub mod checks;
pub mod json;
pub mod lex;
pub mod report;
pub mod scan;

use report::Report;
use scan::ScannedFile;
use std::path::{Path, PathBuf};

/// Every check id, as accepted by `allow(...)`.
pub const CHECK_IDS: [&str; 6] = [
    "unsafe-safety",
    "panic-freedom",
    "atomic-ordering",
    "lock-order",
    "event-loop",
    "suppression",
];

/// Tunables for a lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates (directory names) where panics are denied outside tests.
    pub panic_deny_crates: Vec<String>,
    /// Path suffixes of files subject to the event-loop blocking check.
    pub event_loop_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            panic_deny_crates: ["serve", "p2p", "mio", "xml", "text", "transact", "util"]
                .map(String::from)
                .to_vec(),
            event_loop_files: vec!["serve/src/http/acceptor.rs".to_string()],
        }
    }
}

/// Lints a set of already-loaded sources. `sources` pairs a
/// workspace-relative path (used for crate attribution and scoping rules)
/// with file contents. This is the entry point the fixture tests use.
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> Report {
    let files: Vec<ScannedFile<'_>> = sources
        .iter()
        .map(|(path, src)| ScannedFile::scan(path, src))
        .collect();
    let mut rep = Report {
        files: files.len() as u32,
        ..Report::default()
    };
    checks::unsafe_safety::run(&files, &mut rep);
    checks::panic_freedom::run(&files, cfg, &mut rep);
    checks::atomic_ordering::run(&files, &mut rep);
    checks::lock_order::run(&files, &mut rep);
    checks::event_loop::run(&files, cfg, &mut rep);
    checks::check_suppressions(&files, &mut rep);
    rep.sort();
    rep
}

/// Walks the workspace under `root`, collecting `crates/*/src/**/*.rs`,
/// `crates/compat/*/src/**/*.rs`, and `examples/*.rs`.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut roots: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&crates_dir)? {
            let p = entry?.path();
            if !p.is_dir() {
                continue;
            }
            if p.file_name().map(|n| n == "compat").unwrap_or(false) {
                for sub in std::fs::read_dir(&p)? {
                    let sp = sub?.path();
                    if sp.is_dir() {
                        roots.push(sp);
                    }
                }
            } else {
                roots.push(p);
            }
        }
        for cr in roots {
            let src = cr.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut out)?;
            }
        }
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        collect_rs(&examples, root, &mut out)?;
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&p, root, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = std::fs::read_to_string(&p)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` with `cfg`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let sources = collect_workspace(root)?;
    let mut rep = lint_sources(&sources, cfg);
    rep.root = root.display().to_string();
    Ok(rep)
}
