//! JSON: the one escaping rule behind every JSON document the workspace
//! writes, and the one reader behind every document it reads (batch
//! `POST /classify` bodies, cxk-lint reports, benchmark results).
//!
//! The reader accepts RFC 8259 JSON. Strings decode every escape, join a
//! surrogate pair into one character and turn a lone surrogate into
//! U+FFFD; an unescaped control character is an error. Arrays and objects
//! nest at most [`MAX_DEPTH`] deep, so a hostile body cannot overflow the
//! stack. Every error names the byte offset where reading stopped.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// documents the workspace reads nest 4 deep at most.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; a repeated key keeps its last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value of `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The text, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset where reading stopped.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// Escapes `text` for embedding in a JSON string literal: quotes,
/// backslashes and control characters (`\n`, `\r` and `\t` by name, the
/// rest as `\u00XX`); everything else verbatim.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one complete JSON document; whitespace may surround it.
pub fn parse(src: &str) -> Result<Value, Error> {
    let mut parser = Parser { src, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != src.len() {
        return Err(parser.error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> Error {
        Error {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `literal` if the input continues with it.
    fn eat(&mut self, literal: &str) -> bool {
        let found = self.src.as_bytes()[self.pos..].starts_with(literal.as_bytes());
        if found {
            self.pos += literal.len();
        }
        found
    }

    /// A value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.separator(b']', "expected `,` or `]`")? {
                        return Ok(Value::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    let value = self.value(depth + 1)?;
                    members.insert(key, value);
                    if self.separator(b'}', "expected `,` or `}`")? {
                        return Ok(Value::Obj(members));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    /// After an element: `Ok(true)` at `close`, `Ok(false)` after a comma.
    fn separator(&mut self, close: u8, expected: &'static str) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(expected)),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        match self.src[start..self.pos].parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => Err(Error {
                offset: start,
                message: "bad number",
            }),
        }
    }

    /// A string literal; `pos` is at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            // Both ends sit at ASCII bytes (or the end), so on char
            // boundaries.
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.error("unescaped control character")),
            }
            let Some(letter) = self.peek() else {
                return Err(self.error("unterminated escape"));
            };
            self.pos += 1;
            out.push(match letter {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode()?,
                _ => {
                    self.pos -= 1;
                    return Err(self.error("unknown escape"));
                }
            });
        }
    }

    /// The character a `\u` escape names, `pos` past the `u`: a high
    /// surrogate joins the low one escaped right after it, and a surrogate
    /// left alone is U+FFFD.
    fn unicode(&mut self) -> Result<char, Error> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
            let high_end = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
                self.pos = high_end;
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|c| char::from(c).to_digit(16));
            code = (code << 4) | digit.ok_or_else(|| self.error("bad \\u escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\n")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_num(), Some(-3.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn json_escaping_handles_hostile_strings() {
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape("line\nbreak\ttab\\"), r"line\nbreak\ttab\\");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn strings_decode_every_escape_and_join_surrogates() {
        let text = |src: &str| parse(src).map(|v| v.as_str().map(str::to_string));
        assert_eq!(
            text(r#""a\"b\\c\/\b\f\n\r\té😀""#),
            Ok(Some("a\"b\\c/\u{8}\u{c}\n\r\t\u{e9}\u{1F600}".into()))
        );
        assert_eq!(text(r#""é 😀""#), Ok(Some("\u{e9} \u{1F600}".into())));
        // A lone surrogate, high or low, decodes to U+FFFD.
        for (src, expected) in [
            (r#""\ud83dx""#, "\u{FFFD}x"),
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ude00x""#, "\u{FFFD}x"),
            (r#""\ud83d😀""#, "\u{FFFD}\u{1F600}"),
            (r#""\ud83d\n""#, "\u{FFFD}\n"),
            (r#""\ud83d\ud83d\ude00""#, "\u{FFFD}\u{1F600}"),
            (r#""\ud83d\u0041""#, "\u{FFFD}A"),
        ] {
            assert_eq!(text(src), Ok(Some(expected.into())), "{src}");
        }
    }

    #[test]
    fn errors_name_their_offset() {
        let at = |src: &str| parse(src).map_err(|e| (e.offset, e.message));
        assert_eq!(at("[\"a\u{1}\"]"), Err((3, "unescaped control character")));
        assert_eq!(at(r#"["bad \q escape"]"#), Err((7, "unknown escape")));
        assert_eq!(at(r#"["\u12G4"]"#), Err((6, "bad \\u escape")));
        assert_eq!(at(r#"["\ud83d\u12"]"#), Err((12, "bad \\u escape")));
        assert_eq!(at(r#"["a"] x"#), Err((6, "trailing content")));
        assert_eq!(at(r#"{"a": 1,}"#), Err((8, "expected a string key")));
        assert_eq!(at("[1 2]"), Err((3, "expected `,` or `]`")));
        assert_eq!(at("\"open"), Err((5, "unterminated string")));
        let e = parse("[-]").unwrap_err();
        assert_eq!(e.to_string(), "bad number at byte 1");
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.offset, e.message), (MAX_DEPTH, "nesting too deep"));
        let e = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!((e.offset, e.message), (MAX_DEPTH, "nesting too deep"));
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
    }
}
