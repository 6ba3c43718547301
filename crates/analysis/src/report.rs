//! Diagnostics, the aggregate report, and its JSON serialisation.

use std::collections::BTreeMap;
use std::fmt;

/// Diagnostic severity. Warnings become errors under `--deny-all`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, addressed by check id + file + line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Check id: `unsafe-safety`, `panic-freedom`, `atomic-ordering`,
    /// `lock-order`, `event-loop`, or `suppression`.
    pub check: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.severity.label(),
            self.check,
            self.message
        )
    }
}

/// A finding silenced by a `cxk-lint: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub check: &'static str,
    pub file: String,
    pub line: u32,
    pub reason: String,
}

/// Per-crate unsafe inventory row.
#[derive(Debug, Clone, Default)]
pub struct UnsafeCrate {
    pub blocks: u32,
    pub fns: u32,
    pub impls: u32,
    pub traits: u32,
    pub documented: u32,
    pub total: u32,
}

/// Per-field atomic ordering inventory row.
#[derive(Debug, Clone)]
pub struct AtomicField {
    pub crate_name: String,
    pub field: String,
    pub sites: u32,
    /// ordering name -> site count.
    pub orderings: BTreeMap<&'static str, u32>,
    /// `counter` (all relaxed), `sync` (no relaxed), or `mixed`.
    pub class: &'static str,
}

/// One edge of the interprocedural lock graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub via: String,
}

/// Everything a run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub root: String,
    pub files: u32,
    pub diagnostics: Vec<Diagnostic>,
    pub suppressed: Vec<Suppressed>,
    pub unsafe_inventory: BTreeMap<String, UnsafeCrate>,
    pub atomic_fields: Vec<AtomicField>,
    pub lock_edges: Vec<LockEdge>,
    pub lock_cycles: u32,
}

impl Report {
    /// Number of error-severity diagnostics, with `deny_all` promoting
    /// warnings.
    pub fn error_count(&self, deny_all: bool) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| deny_all || d.severity == Severity::Error)
            .count()
    }

    /// Sorts diagnostics by file, line, check for stable output.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));
        self.atomic_fields
            .sort_by(|a, b| (&a.crate_name, &a.field).cmp(&(&b.crate_name, &b.field)));
        self.lock_edges.sort_by(|a, b| {
            (&a.from, &a.to, &a.file, a.line).cmp(&(&b.from, &b.to, &b.file, b.line))
        });
    }

    /// Serialises the report to JSON (schema version 1).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"version\": 1,\n");
        s.push_str(&format!("  \"root\": {},\n", quoted(&self.root)));
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!(
            "  \"errors\": {},\n  \"warnings\": {},\n",
            self.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            self.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count()
        ));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"check\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                quoted(d.check),
                quoted(d.severity.label()),
                quoted(&d.file),
                d.line,
                quoted(&d.message)
            ));
        }
        s.push_str("\n  ],\n  \"suppressed\": [");
        for (i, d) in self.suppressed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"check\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                quoted(d.check),
                quoted(&d.file),
                d.line,
                quoted(&d.reason)
            ));
        }
        s.push_str("\n  ],\n  \"unsafe_inventory\": [");
        for (i, (name, u)) in self.unsafe_inventory.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"crate\": {}, \"blocks\": {}, \"fns\": {}, \"impls\": {}, \"traits\": {}, \"documented\": {}, \"total\": {}}}",
                quoted(name),
                u.blocks,
                u.fns,
                u.impls,
                u.traits,
                u.documented,
                u.total
            ));
        }
        s.push_str("\n  ],\n  \"atomic_fields\": [");
        for (i, a) in self.atomic_fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let ords = a
                .orderings
                .iter()
                .map(|(k, v)| format!("{}: {}", quoted(k), v))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "\n    {{\"crate\": {}, \"field\": {}, \"sites\": {}, \"class\": {}, \"orderings\": {{{}}}}}",
                quoted(&a.crate_name),
                quoted(&a.field),
                a.sites,
                quoted(a.class),
                ords
            ));
        }
        s.push_str("\n  ],\n  \"lock_graph\": {\n    \"edges\": [");
        for (i, e) in self.lock_edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"via\": {}}}",
                quoted(&e.from),
                quoted(&e.to),
                quoted(&e.file),
                e.line,
                quoted(&e.via)
            ));
        }
        s.push_str(&format!(
            "\n    ],\n    \"cycles\": {}\n  }}\n}}\n",
            self.lock_cycles
        ));
        s
    }
}

/// `s` as a JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    format!("\"{}\"", cxk_util::json::escape(s))
}
