//! The five analyses. Each check walks pre-scanned files and appends
//! [`Diagnostic`]s to the shared report; suppression filtering is applied
//! here so every check behaves the same.

pub mod atomic_ordering;
pub mod event_loop;
pub mod lock_order;
pub mod panic_freedom;
pub mod unsafe_safety;

use crate::lex::Tok;
use crate::report::{Diagnostic, Report, Severity, Suppressed};
use crate::scan::ScannedFile;

/// Emits `diag` unless an allow comment covers it, in which case it is
/// recorded as suppressed.
pub(crate) fn emit(
    rep: &mut Report,
    file: &ScannedFile<'_>,
    check: &'static str,
    severity: Severity,
    line: u32,
    message: String,
) {
    if file.allowed(check, line) {
        let reason = file
            .allows
            .iter()
            .find(|a| {
                a.malformed.is_none()
                    && a.checks.iter().any(|c| c == check)
                    && line >= a.covers.0
                    && line <= a.covers.1
            })
            .map(|a| a.reason.clone())
            .unwrap_or_default();
        rep.suppressed.push(Suppressed {
            check,
            file: file.path.clone(),
            line,
            reason,
        });
    } else {
        rep.diagnostics.push(Diagnostic {
            check,
            severity,
            file: file.path.clone(),
            line,
            message,
        });
    }
}

/// Reports malformed `cxk-lint:` comments — a suppression that silently
/// fails to parse must not silently keep the finding alive.
pub fn check_suppressions(files: &[ScannedFile<'_>], rep: &mut Report) {
    for f in files {
        for a in &f.allows {
            if let Some(why) = &a.malformed {
                rep.diagnostics.push(Diagnostic {
                    check: "suppression",
                    severity: Severity::Error,
                    file: f.path.clone(),
                    line: a.line,
                    message: format!("malformed cxk-lint comment: {why}"),
                });
            } else {
                for c in &a.checks {
                    if !crate::CHECK_IDS.contains(&c.as_str()) {
                        rep.diagnostics.push(Diagnostic {
                            check: "suppression",
                            severity: Severity::Error,
                            file: f.path.clone(),
                            line: a.line,
                            message: format!(
                                "unknown check `{c}` in allow (known: {})",
                                crate::CHECK_IDS.join(", ")
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// For a method call `… . name (`, with `name` at `idx`, returns the
/// identifier naming the receiver: `self.field.m()` → `field`,
/// `self.arr[i].m()` → `arr`, `var.m()` → `var`. Returns `None` when the
/// receiver is a call result or otherwise unnameable.
pub(crate) fn receiver_field(toks: &[Tok<'_>], idx: usize) -> Option<String> {
    if idx == 0 || !toks[idx - 1].is_punct(b'.') {
        return None;
    }
    let mut j = idx.checked_sub(2)?;
    loop {
        let t = toks[j];
        if t.is_punct(b']') {
            // Skip the index expression back to its `[`.
            let mut depth = 1i32;
            while depth > 0 {
                j = j.checked_sub(1)?;
                if toks[j].is_punct(b']') {
                    depth += 1;
                } else if toks[j].is_punct(b'[') {
                    depth -= 1;
                }
            }
            j = j.checked_sub(1)?;
        } else if t.kind == crate::lex::Kind::Ident {
            return Some(t.text.to_string());
        } else {
            return None;
        }
    }
}

/// True when the token after `idx` opens a call: `name (`.
pub(crate) fn followed_by_paren(toks: &[Tok<'_>], idx: usize) -> bool {
    toks.get(idx + 1).map(|t| t.is_punct(b'(')).unwrap_or(false)
}

/// True for `name ( )` — a call with no arguments.
pub(crate) fn followed_by_empty_parens(toks: &[Tok<'_>], idx: usize) -> bool {
    followed_by_paren(toks, idx) && toks.get(idx + 2).map(|t| t.is_punct(b')')).unwrap_or(false)
}
