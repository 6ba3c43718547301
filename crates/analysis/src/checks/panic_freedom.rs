//! Check 2: panic-freedom in the hot path. Worker threads that panic die
//! silently (the process keeps serving with one thread fewer), so
//! `unwrap()` / `expect(` / `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!` are denied in non-test code of the configured crates.

use super::{followed_by_empty_parens, followed_by_paren};
use crate::lex::{Kind, Tok};
use crate::report::{Report, Severity};
use crate::scan::ScannedFile;
use crate::Config;

pub const ID: &str = "panic-freedom";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn run(files: &[ScannedFile<'_>], cfg: &Config, rep: &mut Report) {
    for f in files {
        if !cfg.panic_deny_crates.contains(&f.crate_name) || f.is_test_file {
            continue;
        }
        for (i, t) in f.toks.iter().enumerate() {
            if t.kind != Kind::Ident || f.tok_in_test(i) {
                continue;
            }
            let prev_dot = i > 0 && f.toks[i - 1].is_punct(b'.');
            let found = if t.text == "unwrap" && prev_dot && followed_by_empty_parens(&f.toks, i) {
                Some("`.unwrap()`")
            } else if t.text == "expect" && prev_dot && takes_message(&f.toks, i) {
                Some("`.expect(...)`")
            } else if PANIC_MACROS.contains(&t.text)
                && f.toks.get(i + 1).map(|n| n.is_punct(b'!')).unwrap_or(false)
            {
                match t.text {
                    "panic" => Some("`panic!`"),
                    "unreachable" => Some("`unreachable!`"),
                    "todo" => Some("`todo!`"),
                    _ => Some("`unimplemented!`"),
                }
            } else {
                None
            };
            if let Some(what) = found {
                super::emit(
                    rep,
                    f,
                    ID,
                    Severity::Error,
                    t.line,
                    format!(
                        "{what} in hot-path crate `{}`: return a typed error \
                         (a panicking worker thread kills serving capacity silently)",
                        f.crate_name
                    ),
                );
            }
        }
    }
}

/// True for a call `expect (` that can be `Option::expect` or
/// `Result::expect`. Both take a `&str`, so a lone char or byte literal
/// argument (the XML readers' `self.expect(b'>')`; a lifetime `'a` does
/// not end in a quote) names some other method.
fn takes_message(toks: &[Tok<'_>], idx: usize) -> bool {
    let char_arg = |a: &Tok<'_>| a.kind == Kind::Lit && a.text.len() > 2 && a.text.ends_with('\'');
    followed_by_paren(toks, idx)
        && !(toks.get(idx + 2).is_some_and(char_arg)
            && toks.get(idx + 3).is_some_and(|t| t.is_punct(b')')))
}
