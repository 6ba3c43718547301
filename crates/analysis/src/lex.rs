//! A minimal Rust lexer: just enough to tell code from non-code.
//!
//! The analyses in this crate are token-pattern matchers, so the lexer's
//! only hard job is to *never* report an identifier that actually sits
//! inside a string literal, raw string, character literal, or comment —
//! the classic failure mode of grep-based linting. Everything else
//! (numeric literal sub-flavours, exact punctuation clustering) can stay
//! coarse: multi-character operators are emitted as single-byte `Punct`
//! tokens and matched as sequences (`::` is `':' ':'`).

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword; `text` holds the spelling.
    Ident,
    /// Single punctuation byte; `ch` holds it.
    Punct,
    /// String / raw string / byte string / char / number / lifetime.
    /// Checks read at most its spelling's delimiters, never its content.
    Lit,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    pub kind: Kind,
    /// Spelling for `Ident` and `Lit` tokens, empty for `Punct`.
    pub text: &'a str,
    /// The byte for `Punct` tokens, 0 otherwise.
    pub ch: u8,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

impl<'a> Tok<'a> {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }
    pub fn is_punct(&self, c: u8) -> bool {
        self.kind == Kind::Punct && self.ch == c
    }
}

/// One comment (line or block) with the source lines it covers.
#[derive(Debug, Clone)]
pub struct Comment<'a> {
    /// Full text including the `//` / `/*` markers.
    pub text: &'a str,
    /// 1-based first line.
    pub line: u32,
    /// 1-based last line (equal to `line` for `//` comments).
    pub end_line: u32,
}

/// Lexer output: the token stream plus every comment, both in source order.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    pub toks: Vec<Tok<'a>>,
    pub comments: Vec<Comment<'a>>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src`, preserving line numbers through multi-line constructs.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        let start = i;
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: &src[start..i],
                    line,
                    end_line: line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: &src[start..i],
                    line: start_line,
                    end_line: line,
                });
            }
            b'"' => {
                let tok_line = line;
                i = skip_string(b, i, &mut line);
                out.toks.push(lit(src, start..i, tok_line));
            }
            b'\'' => {
                let tok_line = line;
                // Disambiguate char literal vs lifetime: 'a' is a char,
                // 'a (no closing quote right after) is a lifetime.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    i = skip_char_literal(b, i, &mut line);
                    out.toks.push(lit(src, start..i, tok_line));
                } else if i + 2 < b.len() && is_ident_start(b[i + 1]) && b[i + 2] != b'\'' {
                    // Lifetime: consume the quote and the identifier.
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    out.toks.push(lit(src, start..i, tok_line));
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    // Simple one-byte char literal like 'x' or '''.
                    i += 3;
                    out.toks.push(lit(src, start..i, tok_line));
                } else {
                    i = skip_char_literal(b, i, &mut line);
                    out.toks.push(lit(src, start..i, tok_line));
                }
            }
            _ if c.is_ascii_digit() => {
                let tok_line = line;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        i += 1;
                    } else if d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                        // Accept `1.5` but stop before `1..5` (range).
                        i += 1;
                    } else if (d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && i + 1 < b.len()
                        && b[i + 1].is_ascii_digit()
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.toks.push(lit(src, start..i, tok_line));
            }
            _ if is_ident_start(c) => {
                let tok_line = line;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let text = &src[start..i];
                // Literal prefixes: r"..", r#".."#, b"..", br#".."#, b'x', c"..".
                let next = b.get(i).copied().unwrap_or(0);
                let raw_capable = matches!(text, "r" | "br" | "rb" | "cr" | "b" | "c");
                if raw_capable && (next == b'"' || next == b'#' || next == b'\'') {
                    if next == b'\'' && text == "b" {
                        i = skip_char_literal(b, i, &mut line);
                        out.toks.push(lit(src, start..i, tok_line));
                    } else if next == b'"' && !text.contains('r') {
                        i = skip_string(b, i, &mut line);
                        out.toks.push(lit(src, start..i, tok_line));
                    } else if next == b'#' || (next == b'"' && text.contains('r')) {
                        if let Some(end) = skip_raw_string(b, i, &mut line) {
                            i = end;
                            out.toks.push(lit(src, start..i, tok_line));
                        } else {
                            // `r#ident` raw identifier or stray `#`: keep the ident.
                            out.toks.push(Tok {
                                kind: Kind::Ident,
                                text,
                                ch: 0,
                                line: tok_line,
                            });
                        }
                    }
                } else {
                    out.toks.push(Tok {
                        kind: Kind::Ident,
                        text,
                        ch: 0,
                        line: tok_line,
                    });
                }
            }
            _ => {
                out.toks.push(Tok {
                    kind: Kind::Punct,
                    text: "",
                    ch: c,
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// A literal token spelled `src[span]`; an unterminated literal at the
/// end of a malformed file may overrun it, and is spelled empty.
fn lit(src: &str, span: std::ops::Range<usize>, line: u32) -> Tok<'_> {
    Tok {
        kind: Kind::Lit,
        text: src.get(span).unwrap_or(""),
        ch: 0,
        line,
    }
}

/// Skips a `"…"` string starting at the opening quote; returns the index
/// past the closing quote. Handles escapes and embedded newlines.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a `'…'` char literal starting at the quote; returns the index
/// past the closing quote.
fn skip_char_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string whose `#…"` part starts at `i` (the prefix letters
/// were already consumed). Returns `None` if this is not actually a raw
/// string opener (e.g. `r#ident`).
fn skip_raw_string(b: &[u8], start: usize, line: &mut u32) -> Option<usize> {
    let mut i = start;
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return None;
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_idents() {
        let src = r##"
            let a = "unwrap() inside a string";
            // unwrap in a line comment
            /* unwrap in /* a nested */ block comment */
            let b = r#"raw unwrap "quoted" here"#;
            call();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap"), "{ids:?}");
        assert!(ids.contains(&"call"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'y'; let n = '\\n';";
        let ids = idents(src);
        assert!(ids.contains(&"str"));
        // The lifetime name must not leak as an identifier.
        assert_eq!(ids.iter().filter(|s| **s == "a").count(), 0);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let s = \"two\nlines\";\nmarker();";
        let l = lex(src);
        let marker = l.toks.iter().find(|t| t.is_ident("marker")).unwrap();
        assert_eq!(marker.line, 3);
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let src = "for i in 0..10 { body(i); }";
        let l = lex(src);
        let dots = l.toks.iter().filter(|t| t.is_punct(b'.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn block_comment_line_span() {
        let src = "/* a\nb\nc */ x();";
        let l = lex(src);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[0].end_line, 3);
        assert_eq!(l.toks[0].line, 3);
    }
}
