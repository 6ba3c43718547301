//! Pull-based streaming (SAX-style) parsing and tuple extraction.
//!
//! The DOM pipeline ([`crate::parser::parse_document`] →
//! [`crate::tuple::extract_tree_tuples`]) materializes a whole
//! [`XmlTree`](crate::tree::XmlTree)
//! per document from an in-memory string, which caps corpus size at RAM.
//! This module provides the streaming alternative used by million-document
//! ingestion:
//!
//! * [`SaxReader`] — a pull parser over any [`BufRead`] emitting
//!   [`SaxEvent`]s (`StartElement` / `Text` / `EndElement`) with absolute
//!   byte offsets and line numbers. It recognizes exactly the XML subset of
//!   the DOM parser and applies the same [`ParseOptions`] text policy
//!   (whitespace dropping, trimming, coalescing), so events appear exactly
//!   where the DOM parser would create nodes. Unlike the DOM parser it
//!   reads a *stream of documents*: after a root element closes, prolog
//!   misc is skipped and the next element starts the next document — the
//!   format written by `cxk synth` (one document per line).
//! * [`StreamingTupleExtractor`] — consumes events and emits one document
//!   per document boundary: its leaves in document order plus its tree
//!   tuples as leaf-index lists, bit-identical to the DOM route
//!   (`parse_document` + `extract_tree_tuples` + the leaf-index
//!   projection), honoring [`TupleLimits`] with the same truncation order.
//!   Only the open-element path and per-node label groups are resident:
//!   memory is bounded by document depth × branching × the tuple cap,
//!   independent of corpus size.
//! * [`extract_document`] — the extractor over exactly one in-memory
//!   document, accepting and rejecting what `parse_document` does: how
//!   every production path reads a document. The DOM route is the oracle.
//!
//! # Buffers
//!
//! The reader keeps each event's data in its own buffers — tag names,
//! attribute names and values, text runs, the open-element names back to
//! back — and the extractor reads them there, so extraction builds no
//! `String` per tag, attribute or text run. The extractor keeps one frame
//! per open depth, each frame's label groups in a `Vec` in first-seen
//! order and every group's tuple alternatives as leaf-index lists back to
//! back; frames and groups are reused from element to element. A document
//! is written into an [`ExtractedDocument`], whose leaves' label paths,
//! values and tuples also sit back to back. [`extract_document_into`]
//! borrows all of it from a caller's [`SaxScratch`] and
//! `ExtractedDocument`, so a caller that keeps both (a serving session)
//! extracts a document no larger than earlier ones without allocating.
//! [`SaxReader::next_event`], [`StreamingTupleExtractor::next_document`]
//! and [`extract_document`] still hand out owned [`SaxEvent`]s and
//! [`StreamedDocument`]s.
//!
//! The equivalence with the DOM route is pinned by the property tests in
//! `tests/sax_equivalence.rs`.

use crate::parser::{decode_entities_into, ParseOptions, XmlError};
use crate::tree::S_LABEL;
use crate::tuple::TupleLimits;
use cxk_util::{Interner, Symbol};
use std::collections::VecDeque;
use std::io::BufRead;

/// One parse event. Offsets are absolute byte positions in the input
/// stream (spanning document boundaries when several documents are
/// concatenated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent {
    /// An element start tag (or self-closing tag, which additionally emits
    /// a matching [`SaxEvent::EndElement`]).
    StartElement {
        /// The element name.
        name: String,
        /// Attributes in document order, entity-decoded.
        attributes: Vec<(String, String)>,
        /// Byte offset of the `<`.
        offset: usize,
    },
    /// A `#PCDATA` leaf, produced under the same policy as the DOM parser:
    /// text/CDATA runs are coalesced and flushed before a child element
    /// start and at the end tag, honoring [`ParseOptions`].
    Text {
        /// The decoded (and possibly trimmed) text.
        text: String,
        /// Byte offset of the first contributing run.
        offset: usize,
    },
    /// An element end tag (also emitted for self-closing tags).
    EndElement {
        /// The element name.
        name: String,
        /// Byte offset of the `</` (for self-closing tags, of the position
        /// just after the `/>`).
        offset: usize,
    },
}

/// Incremental byte source over a [`BufRead`]: a window of unconsumed
/// bytes plus absolute offset and line accounting. The consumed prefix is
/// reclaimed as the window drains, so resident memory is bounded by the
/// largest single construct (name, text run, comment), not the input.
struct ByteStream<R> {
    reader: R,
    buf: Vec<u8>,
    /// Index into `buf` of the next unconsumed byte.
    pos: usize,
    /// Absolute offset of `buf[0]`.
    base: usize,
    /// 1-based line number of the next unconsumed byte.
    line: usize,
    eof: bool,
}

/// Reclaim the consumed prefix eagerly once it exceeds this many bytes.
const COMPACT_THRESHOLD: usize = 32 << 10;

impl<R: BufRead> ByteStream<R> {
    /// A stream over `reader` whose window reuses `buf`.
    fn with_buffer(reader: R, mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            reader,
            buf,
            pos: 0,
            base: 0,
            line: 1,
            eof: false,
        }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.offset(),
            line: self.line,
            message: message.into(),
        }
    }

    /// Pulls one chunk from the reader, compacting the consumed prefix
    /// first when it has grown past the threshold.
    fn fill(&mut self) -> Result<(), XmlError> {
        if self.pos == self.buf.len() {
            self.base += self.pos;
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.base += self.pos;
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let chunk = match self.reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) => {
                return Err(XmlError {
                    offset: self.base + self.pos,
                    line: self.line,
                    message: format!("read error: {e}"),
                })
            }
        };
        if chunk.is_empty() {
            self.eof = true;
            return Ok(());
        }
        let n = chunk.len();
        self.buf.extend_from_slice(chunk);
        self.reader.consume(n);
        Ok(())
    }

    /// Buffers at least `n` unconsumed bytes (or everything up to EOF);
    /// returns how many are available.
    fn ensure(&mut self, n: usize) -> Result<usize, XmlError> {
        while self.buf.len() - self.pos < n && !self.eof {
            self.fill()?;
        }
        Ok(self.buf.len() - self.pos)
    }

    fn peek(&mut self) -> Result<Option<u8>, XmlError> {
        if self.ensure(1)? == 0 {
            return Ok(None);
        }
        Ok(Some(self.buf[self.pos]))
    }

    fn starts_with(&mut self, s: &[u8]) -> Result<bool, XmlError> {
        if self.ensure(s.len())? < s.len() {
            return Ok(false);
        }
        Ok(&self.buf[self.pos..self.pos + s.len()] == s)
    }

    /// Consumes `n` already-buffered bytes, counting newlines.
    fn bump(&mut self, n: usize) {
        let end = self.pos + n;
        debug_assert!(end <= self.buf.len(), "bump past buffered bytes");
        self.line += self.buf[self.pos..end]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        self.pos = end;
    }

    /// Consumes bytes into `out` while `keep` holds (the first other byte
    /// is left unconsumed) or up to EOF.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool, out: &mut Vec<u8>) -> Result<(), XmlError> {
        loop {
            if self.ensure(1)? == 0 {
                return Ok(());
            }
            let start = self.pos;
            match self.buf[start..].iter().position(|&b| !keep(b)) {
                Some(i) => {
                    out.extend_from_slice(&self.buf[start..start + i]);
                    self.bump(i);
                    return Ok(());
                }
                None => {
                    let n = self.buf.len() - start;
                    out.extend_from_slice(&self.buf[start..]);
                    self.bump(n);
                }
            }
        }
    }

    /// Scans forward for `term` (at most 3 bytes), consuming through it.
    /// Bytes before the terminator are appended to `keep` when given. EOF
    /// first is the error `message`, reported where the scan started — the
    /// construct's own position, as the DOM parser reports an unterminated
    /// construct.
    fn scan_past(
        &mut self,
        term: &[u8],
        mut keep: Option<&mut Vec<u8>>,
        message: &str,
    ) -> Result<(), XmlError> {
        debug_assert!(term.len() <= 3, "terminators are at most 3 bytes");
        let (offset, line) = (self.offset(), self.line);
        let mut matched = 0usize;
        loop {
            let Some(b) = self.peek()? else {
                let message = message.into();
                return Err(XmlError {
                    offset,
                    line,
                    message,
                });
            };
            self.bump(1);
            if b == term[matched] {
                matched += 1;
                if matched == term.len() {
                    return Ok(());
                }
            } else {
                // Fall back to the longest suffix of the bytes matched so
                // far (plus `b`) that is still a prefix of the terminator;
                // everything before that suffix is definitely content.
                let mut cand = [0u8; 3];
                cand[..matched].copy_from_slice(&term[..matched]);
                cand[matched] = b;
                let cand = &cand[..=matched];
                let mut new_matched = 0;
                for k in (1..=cand.len().min(term.len() - 1)).rev() {
                    if cand[cand.len() - k..] == term[..k] {
                        new_matched = k;
                        break;
                    }
                }
                if let Some(out) = keep.as_deref_mut() {
                    out.extend_from_slice(&cand[..cand.len() - new_matched]);
                }
                matched = new_matched;
            }
        }
    }

    /// Reads an XML name, appending it to `out`; `raw` is scratch.
    fn read_name(&mut self, raw: &mut Vec<u8>, out: &mut String) -> Result<(), XmlError> {
        let start_offset = self.offset();
        let start_line = self.line;
        raw.clear();
        self.take_while(
            |c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80,
            raw,
        )?;
        if raw.is_empty() {
            return Err(self.err("expected a name"));
        }
        let name = std::str::from_utf8(raw).map_err(|_| XmlError {
            offset: start_offset,
            line: start_line,
            message: "name is not valid UTF-8".into(),
        })?;
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(self.err(format!("invalid name start in `{name}`")));
        }
        out.push_str(name);
        Ok(())
    }
}

/// The kind of event [`SaxReader::advance`] moved to; its data stays in
/// the reader's buffers until the next call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Start,
    Text,
    End,
}

/// A pull-based streaming parser emitting [`SaxEvent`]s from a reader.
///
/// Parses the same XML subset as [`crate::parser::parse_document`] with the
/// same [`ParseOptions`] semantics, but over a stream of one or more
/// concatenated documents: [`SaxReader::next_event`] returns `Ok(None)`
/// only at end of input between documents; EOF inside a document is an
/// `unclosed element` error, as in the DOM parser.
pub struct SaxReader<R> {
    stream: ByteStream<R>,
    options: ParseOptions,
    bufs: ReaderBuffers,
    pending_offset: usize,
    bom_checked: bool,
}

/// A [`SaxReader`]'s buffers, which outlive one reader in a [`SaxScratch`].
#[derive(Debug, Default)]
struct ReaderBuffers {
    /// The byte window of the input.
    window: Vec<u8>,
    /// Names of the currently open elements, root first, back to back.
    open: String,
    /// Where each open element's name starts in `open`.
    open_starts: Vec<usize>,
    /// Coalesced text awaiting a flush point.
    pending: String,
    /// Events parsed but not yet handed out, with their offsets: text
    /// flushed before a tag, the tag, and a self-closing tag's end come
    /// from one parse step. Their data is in `name`, `attribute_text` and
    /// `text`, which the next parse step overwrites.
    queued: VecDeque<(Kind, usize)>,
    /// The name of the last start or end tag parsed.
    name: String,
    /// The last start tag's attribute names and values, back to back.
    attribute_text: String,
    /// Where each attribute's name and value end in `attribute_text`.
    attribute_ends: Vec<(usize, usize)>,
    /// The last text flushed.
    text: String,
    /// The raw bytes of the name, text run or attribute value being read.
    raw: Vec<u8>,
}

impl<R: BufRead> SaxReader<R> {
    /// Creates a reader over `input` with the given parse options.
    pub fn new(input: R, options: ParseOptions) -> Self {
        Self::with_buffers(input, options, ReaderBuffers::default())
    }

    /// A reader over `input` reusing `bufs`.
    fn with_buffers(input: R, options: ParseOptions, mut bufs: ReaderBuffers) -> Self {
        let window = std::mem::take(&mut bufs.window);
        bufs.open.clear();
        bufs.open_starts.clear();
        bufs.pending.clear();
        bufs.queued.clear();
        Self {
            stream: ByteStream::with_buffer(input, window),
            options,
            bufs,
            pending_offset: 0,
            bom_checked: false,
        }
    }

    /// The reader's buffers, for the next reader.
    fn into_buffers(self) -> ReaderBuffers {
        ReaderBuffers {
            window: self.stream.buf,
            ..self.bufs
        }
    }

    /// Current element nesting depth (0 between documents).
    pub fn depth(&self) -> usize {
        self.bufs.open_starts.len()
    }

    /// Absolute byte offset of the next unconsumed input byte.
    pub fn offset(&self) -> usize {
        self.stream.offset()
    }

    /// Pulls the next event, or `Ok(None)` at end of input. Only legal to
    /// keep calling after `Ok(None)` (which repeats) or an error (which is
    /// sticky in the sense that the stream position is unspecified).
    pub fn next_event(&mut self) -> Result<Option<SaxEvent>, XmlError> {
        let Some((kind, offset)) = self.advance()? else {
            return Ok(None);
        };
        Ok(Some(match kind {
            Kind::Start => SaxEvent::StartElement {
                name: self.bufs.name.clone(),
                attributes: self
                    .attributes()
                    .map(|(name, value)| (name.to_string(), value.to_string()))
                    .collect(),
                offset,
            },
            Kind::Text => SaxEvent::Text {
                text: std::mem::take(&mut self.bufs.text),
                offset,
            },
            // The last event of its parse step: nothing reads the name
            // again before the next tag overwrites it.
            Kind::End => SaxEvent::EndElement {
                name: std::mem::take(&mut self.bufs.name),
                offset,
            },
        }))
    }

    /// Moves to the next event and returns its kind and offset, or
    /// `Ok(None)` at end of input; [`Self::next_event`] without the owned
    /// copy. A start tag's data is read through `bufs.name` and
    /// [`Self::attributes`], a text's through `bufs.text`, an end tag's
    /// through `bufs.name`.
    fn advance(&mut self) -> Result<Option<(Kind, usize)>, XmlError> {
        loop {
            if let Some(event) = self.bufs.queued.pop_front() {
                return Ok(Some(event));
            }
            if self.bufs.open_starts.is_empty() {
                if !self.bom_checked {
                    self.bom_checked = true;
                    if self.stream.starts_with(&[0xEF, 0xBB, 0xBF])? {
                        self.stream.bump(3);
                    }
                }
                self.skip_misc()?;
                match self.stream.peek()? {
                    None => return Ok(None),
                    Some(b'<') => self.parse_start_tag()?,
                    Some(_) => return Err(self.stream.err("expected document element")),
                }
            } else {
                self.content_step()?;
            }
        }
    }

    /// The last start tag's attributes, `(name, value)` in document order.
    fn attributes(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let text = &self.bufs.attribute_text;
        let mut start = 0;
        self.bufs
            .attribute_ends
            .iter()
            .map(move |&(name_end, value_end)| {
                let pair = (&text[start..name_end], &text[name_end..value_end]);
                start = value_end;
                pair
            })
    }

    /// Where the innermost open element's name starts in `bufs.open`.
    fn open_start(&self) -> usize {
        self.bufs
            .open_starts
            .last()
            .copied()
            .unwrap_or(self.bufs.open.len())
    }

    /// One step of element content: mirrors a single iteration of the DOM
    /// parser's `parse_content` loop.
    fn content_step(&mut self) -> Result<(), XmlError> {
        match self.stream.peek()? {
            None => {
                let name = &self.bufs.open[self.open_start()..];
                Err(self.stream.err(format!("unclosed element `{name}`")))
            }
            Some(b'<') => {
                if self.stream.starts_with(b"</")? {
                    self.flush_text();
                    let offset = self.stream.offset();
                    self.stream.bump(2);
                    let bufs = &mut self.bufs;
                    bufs.name.clear();
                    self.stream.read_name(&mut bufs.raw, &mut bufs.name)?;
                    // Compared in place with the open element's name.
                    let open_start = self.open_start();
                    let expected = &self.bufs.open[open_start..];
                    if self.bufs.name != expected {
                        return Err(self.stream.err(format!(
                            "mismatched end tag: expected `</{expected}>`, found `</{}>`",
                            self.bufs.name
                        )));
                    }
                    self.skip_whitespace()?;
                    self.expect(b'>')?;
                    self.bufs.open.truncate(open_start);
                    self.bufs.open_starts.pop();
                    self.bufs.queued.push_back((Kind::End, offset));
                    Ok(())
                } else if self.stream.starts_with(b"<!--")? {
                    // The DOM parser's skip_until scans from the `<`
                    // itself, so the opener may participate in the
                    // terminator match; mirror that exactly.
                    self.stream
                        .scan_past(b"-->", None, "unterminated construct, expected `-->`")
                } else if self.stream.starts_with(b"<![CDATA[")? {
                    self.stream.bump(b"<![CDATA[".len());
                    let start_offset = self.stream.offset();
                    let start_line = self.stream.line;
                    let bufs = &mut self.bufs;
                    bufs.raw.clear();
                    self.stream.scan_past(
                        b"]]>",
                        Some(&mut bufs.raw),
                        "unterminated CDATA section",
                    )?;
                    let text = std::str::from_utf8(&bufs.raw).map_err(|_| XmlError {
                        offset: start_offset,
                        line: start_line,
                        message: "CDATA is not valid UTF-8".into(),
                    })?;
                    if bufs.pending.is_empty() {
                        self.pending_offset = start_offset;
                    }
                    bufs.pending.push_str(text);
                    if !self.options.coalesce_text {
                        self.flush_text();
                    }
                    Ok(())
                } else if self.stream.starts_with(b"<?")? {
                    self.stream
                        .scan_past(b"?>", None, "unterminated construct, expected `?>`")
                } else {
                    self.flush_text();
                    self.parse_start_tag()
                }
            }
            Some(_) => {
                let start_offset = self.stream.offset();
                let start_line = self.stream.line;
                let bufs = &mut self.bufs;
                bufs.raw.clear();
                self.stream.take_while(|b| b != b'<', &mut bufs.raw)?;
                let text = std::str::from_utf8(&bufs.raw).map_err(|_| XmlError {
                    offset: start_offset,
                    line: start_line,
                    message: "text is not valid UTF-8".into(),
                })?;
                let was_empty = bufs.pending.is_empty();
                // Text without `&` is appended as it is.
                decode_entities_into(text, &mut bufs.pending).map_err(|msg| XmlError {
                    offset: start_offset,
                    line: start_line,
                    message: msg,
                })?;
                if was_empty {
                    self.pending_offset = start_offset;
                }
                if !self.options.coalesce_text {
                    self.flush_text();
                }
                Ok(())
            }
        }
    }

    /// Parses `<name attrs…>` / `<name attrs…/>` starting at the `<`.
    fn parse_start_tag(&mut self) -> Result<(), XmlError> {
        let offset = self.stream.offset();
        self.stream.bump(1); // `<`
        let bufs = &mut self.bufs;
        bufs.name.clear();
        self.stream.read_name(&mut bufs.raw, &mut bufs.name)?;
        let self_closed = self.parse_attributes()?;
        let bufs = &mut self.bufs;
        bufs.queued.push_back((Kind::Start, offset));
        if self_closed {
            bufs.queued.push_back((Kind::End, self.stream.offset()));
        } else {
            bufs.open_starts.push(bufs.open.len());
            bufs.open.push_str(&bufs.name);
        }
        Ok(())
    }

    /// Parses attributes into `bufs.attribute_*` and the tag terminator;
    /// `true` for `/>`.
    fn parse_attributes(&mut self) -> Result<bool, XmlError> {
        self.bufs.attribute_text.clear();
        self.bufs.attribute_ends.clear();
        loop {
            self.skip_whitespace()?;
            match self.stream.peek()? {
                Some(b'>') => {
                    self.stream.bump(1);
                    return Ok(false);
                }
                Some(b'/') => {
                    self.stream.bump(1);
                    self.expect(b'>')?;
                    return Ok(true);
                }
                Some(_) => {
                    let bufs = &mut self.bufs;
                    self.stream
                        .read_name(&mut bufs.raw, &mut bufs.attribute_text)?;
                    let name_end = bufs.attribute_text.len();
                    self.skip_whitespace()?;
                    self.expect(b'=')?;
                    self.skip_whitespace()?;
                    let quote = match self.stream.peek()? {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.stream.err("expected quoted attribute value")),
                    };
                    self.stream.bump(1);
                    let start_offset = self.stream.offset();
                    let start_line = self.stream.line;
                    let bufs = &mut self.bufs;
                    bufs.raw.clear();
                    self.stream
                        .take_while(|c| c != quote && c != b'<', &mut bufs.raw)?;
                    match self.stream.peek()? {
                        Some(b'<') => {
                            return Err(self.stream.err("`<` not allowed in attribute value"))
                        }
                        None => return Err(self.stream.err("unterminated attribute value")),
                        Some(_) => {}
                    }
                    let raw = std::str::from_utf8(&bufs.raw).map_err(|_| XmlError {
                        offset: start_offset,
                        line: start_line,
                        message: "attribute value is not valid UTF-8".into(),
                    })?;
                    decode_entities_into(raw, &mut bufs.attribute_text).map_err(|msg| {
                        XmlError {
                            offset: start_offset,
                            line: start_line,
                            message: msg,
                        }
                    })?;
                    self.stream.bump(1); // closing quote
                    bufs.attribute_ends
                        .push((name_end, bufs.attribute_text.len()));
                }
                None => return Err(self.stream.err("unterminated start tag")),
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.stream.peek()? == Some(c) {
            self.stream.bump(1);
            Ok(())
        } else {
            Err(self.stream.err(format!("expected `{}`", c as char)))
        }
    }

    fn skip_whitespace(&mut self) -> Result<(), XmlError> {
        while let Some(c) = self.stream.peek()? {
            if matches!(c, b' ' | b'\t' | b'\r' | b'\n') {
                self.stream.bump(1);
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Skips whitespace, comments, PIs and a DOCTYPE between documents.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace()?;
            if self.stream.starts_with(b"<?")? {
                self.stream
                    .scan_past(b"?>", None, "unterminated construct, expected `?>`")?;
            } else if self.stream.starts_with(b"<!--")? {
                self.stream
                    .scan_past(b"-->", None, "unterminated construct, expected `-->`")?;
            } else if self.stream.starts_with(b"<!DOCTYPE")? {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips the misc after a document and requires the end of input:
    /// anything else is trailing content, as in
    /// [`crate::parser::parse_document`].
    fn expect_end(&mut self) -> Result<(), XmlError> {
        self.skip_misc()?;
        match self.stream.peek()? {
            None => Ok(()),
            Some(_) => Err(self.stream.err("trailing content after document element")),
        }
    }

    /// Skips a DOCTYPE declaration including a bracketed internal subset.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        let mut depth = 0usize;
        while let Some(c) = self.stream.peek()? {
            match c {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.stream.bump(1);
                    return Ok(());
                }
                _ => {}
            }
            self.stream.bump(1);
        }
        Err(self.stream.err("unterminated DOCTYPE"))
    }

    /// Moves pending text into `bufs.text` and queues it, under the exact
    /// DOM `flush_text` policy.
    fn flush_text(&mut self) {
        let bufs = &mut self.bufs;
        if bufs.pending.is_empty() {
            return;
        }
        let keep = self.options.keep_whitespace_text || !bufs.pending.trim().is_empty();
        if keep {
            let trimmed = bufs.pending.trim();
            if self.options.trim_text && trimmed.len() < bufs.pending.len() {
                bufs.text.clear();
                bufs.text.push_str(trimmed);
            } else {
                // Trimming would remove nothing: move the run over.
                std::mem::swap(&mut bufs.text, &mut bufs.pending);
            }
            if !bufs.text.is_empty() || self.options.keep_whitespace_text {
                bufs.queued.push_back((Kind::Text, self.pending_offset));
            }
        }
        bufs.pending.clear();
    }
}

/// One leaf of a streamed document, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedLeaf {
    /// The complete label path, root label first, leaf label (`S` for text,
    /// the attribute name for attributes) last.
    pub path: Vec<Symbol>,
    /// Whether the leaf is an attribute (`true`) or `#PCDATA` (`false`).
    pub is_attribute: bool,
    /// The leaf's string value `δ(n)`.
    pub value: String,
}

/// One document emitted by [`StreamingTupleExtractor`]: everything the
/// transactional pipeline needs, without the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedDocument {
    /// All leaves (attributes and text) in document order — the same order
    /// as `XmlTree::leaves()` on the DOM-parsed tree.
    pub leaves: Vec<StreamedLeaf>,
    /// Tree tuples as ascending index lists into `leaves`, in the canonical
    /// cross-product order of [`crate::tuple::extract_tree_tuples`].
    pub tuples: Vec<Vec<u32>>,
    /// Tree depth (`depth(XT)` of §3.1).
    pub depth: usize,
    /// Exact tuple count before capping (saturating at `u64::MAX`),
    /// matching [`crate::tuple::count_tree_tuples`].
    pub tuple_count: u64,
    /// Whether enumeration was truncated by [`TupleLimits`].
    pub capped: bool,
}

/// A [`StreamedDocument`] in flat buffers: the leaves' label paths, the
/// leaves' values and the tuples' leaf indices each back to back. The
/// extractor writes it; a caller that keeps one reuses its buffers from
/// document to document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtractedDocument {
    /// Every leaf's complete label path.
    path_labels: Vec<Symbol>,
    /// Every leaf's value.
    values: String,
    /// Per leaf: where its path and value end, and whether it is an
    /// attribute.
    leaves: Vec<LeafEnds>,
    /// Every tuple's leaf indices, ascending within a tuple.
    tuple_leaves: Vec<u32>,
    /// Where each tuple ends in `tuple_leaves`.
    tuple_ends: Vec<usize>,
    depth: usize,
    tuple_count: u64,
    capped: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafEnds {
    path: usize,
    value: usize,
    is_attribute: bool,
}

/// One leaf of an [`ExtractedDocument`], borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafRef<'a> {
    /// The complete label path, root label first.
    pub path: &'a [Symbol],
    /// Whether the leaf is an attribute.
    pub is_attribute: bool,
    /// The leaf's string value `δ(n)`.
    pub value: &'a str,
}

impl ExtractedDocument {
    /// The leaves, in document order.
    pub fn leaves(&self) -> impl ExactSizeIterator<Item = LeafRef<'_>> + Clone + '_ {
        let (mut path, mut value) = (0, 0);
        self.leaves.iter().map(move |ends| {
            let leaf = LeafRef {
                path: &self.path_labels[path..ends.path],
                is_attribute: ends.is_attribute,
                value: &self.values[value..ends.value],
            };
            (path, value) = (ends.path, ends.value);
            leaf
        })
    }

    /// Leaf `index`, if there is one.
    pub fn leaf(&self, index: usize) -> Option<LeafRef<'_>> {
        let ends = self.leaves.get(index)?;
        let (path, value) = index.checked_sub(1).map_or((0, 0), |prev| {
            (self.leaves[prev].path, self.leaves[prev].value)
        });
        Some(LeafRef {
            path: &self.path_labels[path..ends.path],
            is_attribute: ends.is_attribute,
            value: &self.values[value..ends.value],
        })
    }

    /// The tree tuples as ascending leaf-index lists, in the canonical
    /// cross-product order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        let mut start = 0;
        self.tuple_ends.iter().map(move |&end| {
            let tuple = &self.tuple_leaves[start..end];
            start = end;
            tuple
        })
    }

    /// Tree depth (`depth(XT)` of §3.1).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether enumeration was truncated by [`TupleLimits`].
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// The document as an owned [`StreamedDocument`].
    pub fn to_streamed(&self) -> StreamedDocument {
        StreamedDocument {
            leaves: self
                .leaves()
                .map(|leaf| StreamedLeaf {
                    path: leaf.path.to_vec(),
                    is_attribute: leaf.is_attribute,
                    value: leaf.value.to_string(),
                })
                .collect(),
            tuples: self.tuples().map(<[u32]>::to_vec).collect(),
            depth: self.depth,
            tuple_count: self.tuple_count,
            capped: self.capped,
        }
    }

    fn clear(&mut self) {
        self.path_labels.clear();
        self.values.clear();
        self.leaves.clear();
        self.tuple_leaves.clear();
        self.tuple_ends.clear();
        self.depth = 0;
        self.tuple_count = 0;
        self.capped = false;
    }

    /// Appends a leaf under the open elements `parent` and returns its
    /// index.
    fn push_leaf(
        &mut self,
        parent: &[Symbol],
        label: Symbol,
        is_attribute: bool,
        value: &str,
    ) -> u32 {
        let index = self.leaves.len() as u32;
        self.depth = self.depth.max(parent.len() + 1);
        self.path_labels.extend_from_slice(parent);
        self.path_labels.push(label);
        self.values.push_str(value);
        self.leaves.push(LeafEnds {
            path: self.path_labels.len(),
            value: self.values.len(),
            is_attribute,
        });
        index
    }
}

/// Running counters over everything an extractor has emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Documents emitted.
    pub documents: u64,
    /// Tuples emitted (post-cap).
    pub tuples: u64,
    /// Documents whose tuple enumeration was truncated by the cap.
    pub capped_documents: u64,
}

/// Tuple alternatives as leaf-index lists, back to back.
#[derive(Debug, Default)]
struct Alternatives {
    leaves: Vec<u32>,
    /// Where each alternative ends in `leaves`.
    ends: Vec<usize>,
}

impl Alternatives {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let alternative = &self.leaves[start..end];
            start = end;
            alternative
        })
    }

    fn clear(&mut self) {
        self.leaves.clear();
        self.ends.clear();
    }

    /// Appends the alternative `head ++ tail`.
    fn push(&mut self, head: &[u32], tail: &[u32]) {
        self.leaves.extend_from_slice(head);
        self.leaves.extend_from_slice(tail);
        self.ends.push(self.leaves.len());
    }

    fn truncate(&mut self, len: usize) {
        self.ends.truncate(len);
        self.leaves.truncate(self.ends.last().copied().unwrap_or(0));
    }
}

/// One label group of an open element: the alternative tuple sets of its
/// children with that label.
#[derive(Debug)]
struct Group {
    label: Symbol,
    /// Union of the group's children's tuple sets, truncated at the cap.
    alts: Alternatives,
    /// Exact (saturating) sum of the children's tuple counts.
    count: u64,
    /// Once the cap is hit, later children of the group are ignored —
    /// mirroring the DOM enumeration's truncate-and-break.
    saturated: bool,
}

impl Group {
    fn new(label: Symbol) -> Self {
        Self {
            label,
            alts: Alternatives::default(),
            count: 0,
            saturated: false,
        }
    }

    /// Truncates the alternatives at the cap, saturating the group.
    fn cap(&mut self, cap: usize) {
        if self.alts.len() > cap {
            self.alts.truncate(cap);
            self.saturated = true;
        }
    }
}

/// Per-open-element tuple accumulation: the label groups seen so far, in
/// first-seen order. Frames and their groups outlive the elements they
/// accumulate, so their buffers are reused.
#[derive(Debug)]
struct Frame {
    label: Symbol,
    children: usize,
    /// `groups[..live]` are the open element's groups; the rest are kept
    /// for their buffers.
    groups: Vec<Group>,
    live: usize,
}

impl Frame {
    fn new(label: Symbol) -> Self {
        Self {
            label,
            children: 0,
            groups: Vec::new(),
            live: 0,
        }
    }

    /// Starts accumulating the element labelled `label`.
    fn open(&mut self, label: Symbol) {
        self.label = label;
        self.children = 0;
        self.live = 0;
    }

    /// Counts one child labelled `label` contributing `count` tuple sets,
    /// and returns its label group.
    fn group(&mut self, label: Symbol, count: u64) -> &mut Group {
        self.children += 1;
        let live = &self.groups[..self.live];
        let at = match live.iter().position(|group| group.label == label) {
            Some(at) => at,
            None => {
                match self.groups.get_mut(self.live) {
                    Some(group) => {
                        group.label = label;
                        group.alts.clear();
                        group.count = 0;
                        group.saturated = false;
                    }
                    None => self.groups.push(Group::new(label)),
                }
                self.live += 1;
                self.live - 1
            }
        };
        let group = &mut self.groups[at];
        group.count = group.count.saturating_add(count);
        group
    }

    /// Adds one closed child's alternatives to its label group.
    fn add_child(&mut self, label: Symbol, alts: &Alternatives, count: u64, cap: usize) {
        let group = self.group(label, count);
        if !group.saturated {
            for alt in alts.iter() {
                group.alts.push(alt, &[]);
            }
            group.cap(cap);
        }
    }

    /// Adds a leaf: one alternative holding only the leaf.
    fn add_leaf(&mut self, label: Symbol, index: u32, cap: usize) {
        let group = self.group(label, 1);
        if !group.saturated {
            group.alts.push(&[index], &[]);
            group.cap(cap);
        }
    }

    /// Closes the element into `product`: the cross product over its label
    /// groups, in the exact order and with the exact cap semantics of
    /// `tuples_below`; `next` is scratch. Returns the exact count.
    fn close(&self, cap: usize, product: &mut Alternatives, next: &mut Alternatives) -> u64 {
        product.clear();
        // A childless element forms one tuple alternative containing only
        // itself — which projects to no leaves.
        product.push(&[], &[]);
        let mut count: u64 = 1;
        for group in &self.groups[..self.live] {
            count = count.saturating_mul(group.count);
            next.clear();
            'outer: for base in product.iter() {
                for alt in group.alts.iter() {
                    next.push(base, alt);
                    if next.len() >= cap {
                        break 'outer;
                    }
                }
            }
            std::mem::swap(product, next);
        }
        count
    }
}

/// Buffers that [`extract_document_into`] reuses from one document to the
/// next: the reader's byte window and event buffers, and the extractor's
/// frames. Keep one per worker; it holds no document between calls.
#[derive(Debug, Default)]
pub struct SaxScratch {
    reader: ReaderBuffers,
    frames: Vec<Frame>,
    open_path: Vec<Symbol>,
    product: Alternatives,
    next: Alternatives,
}

/// Streaming tree-tuple extraction: pulls events from a [`SaxReader`] and
/// emits one document per document, never materializing the tree. See the
/// module docs for the equivalence contract.
pub struct StreamingTupleExtractor<R> {
    reader: SaxReader<R>,
    limits: TupleLimits,
    stats: IngestStats,
    /// One frame per open element, root first; deeper ones are kept for
    /// their buffers.
    frames: Vec<Frame>,
    /// The open elements' labels, root first.
    open_path: Vec<Symbol>,
    /// The cross product a closing element builds, and its scratch.
    product: Alternatives,
    next: Alternatives,
}

impl<R: BufRead> StreamingTupleExtractor<R> {
    /// Creates an extractor over `input`.
    pub fn new(input: R, options: ParseOptions, limits: TupleLimits) -> Self {
        Self::with_scratch(input, options, limits, SaxScratch::default())
    }

    /// An extractor over `input` reusing `scratch`'s buffers.
    fn with_scratch(
        input: R,
        options: ParseOptions,
        limits: TupleLimits,
        scratch: SaxScratch,
    ) -> Self {
        Self {
            reader: SaxReader::with_buffers(input, options, scratch.reader),
            limits,
            stats: IngestStats::default(),
            frames: scratch.frames,
            open_path: scratch.open_path,
            product: scratch.product,
            next: scratch.next,
        }
    }

    /// The extractor's buffers, for the next extractor.
    fn into_scratch(self) -> SaxScratch {
        SaxScratch {
            reader: self.reader.into_buffers(),
            frames: self.frames,
            open_path: self.open_path,
            product: self.product,
            next: self.next,
        }
    }

    /// Running counters over everything emitted so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Parses the next document from the stream, interning labels into
    /// `labels`. Returns `Ok(None)` at end of input.
    pub fn next_document(
        &mut self,
        labels: &mut Interner,
    ) -> Result<Option<StreamedDocument>, XmlError> {
        let mut doc = ExtractedDocument::default();
        Ok(self
            .next_document_into(labels, &mut doc)?
            .then(|| doc.to_streamed()))
    }

    /// [`Self::next_document`] into `doc`, whose buffers are reused:
    /// `Ok(false)` at end of input.
    pub fn next_document_into(
        &mut self,
        labels: &mut Interner,
        doc: &mut ExtractedDocument,
    ) -> Result<bool, XmlError> {
        doc.clear();
        let Some((mut kind, _)) = self.reader.advance()? else {
            return Ok(false);
        };
        // Interned lazily at the first text node so the interner fills in
        // exactly the order the DOM parser produces — streamed and
        // DOM-built datasets stay bit-identical, symbol table included.
        let mut s_label: Option<Symbol> = None;
        let cap = self.limits.max_tuples_per_tree;
        self.open_path.clear();
        loop {
            match kind {
                Kind::Start => {
                    let label = labels.intern(&self.reader.bufs.name);
                    self.open_path.push(label);
                    doc.depth = doc.depth.max(self.open_path.len());
                    let depth = self.open_path.len();
                    if self.frames.len() < depth {
                        self.frames.push(Frame::new(label));
                    }
                    let frame = &mut self.frames[depth - 1];
                    frame.open(label);
                    for (name, value) in self.reader.attributes() {
                        let attr_label = labels.intern(name);
                        let index = doc.push_leaf(&self.open_path, attr_label, true, value);
                        frame.add_leaf(attr_label, index, cap);
                    }
                }
                Kind::Text => {
                    let s_label = *s_label.get_or_insert_with(|| labels.intern(S_LABEL));
                    let text = &self.reader.bufs.text;
                    let index = doc.push_leaf(&self.open_path, s_label, false, text);
                    // The reader emits text only inside an open element.
                    if let Some(frame) = self.frames.get_mut(self.open_path.len().wrapping_sub(1)) {
                        frame.add_leaf(s_label, index, cap);
                    }
                }
                Kind::End => {
                    // The reader emits an end only for an open element.
                    let Some(depth) = self.open_path.len().checked_sub(1) else {
                        return Err(self.reader.stream.err("unexpected end tag"));
                    };
                    let frame = &self.frames[depth];
                    let label = frame.label;
                    let count = frame.close(cap, &mut self.product, &mut self.next);
                    self.open_path.pop();
                    match depth.checked_sub(1) {
                        Some(parent) => {
                            self.frames[parent].add_child(label, &self.product, count, cap)
                        }
                        None => {
                            for alt in self.product.iter() {
                                let start = doc.tuple_leaves.len();
                                doc.tuple_leaves.extend_from_slice(alt);
                                doc.tuple_leaves[start..].sort_unstable();
                                doc.tuple_ends.push(doc.tuple_leaves.len());
                            }
                            doc.tuple_count = count;
                            doc.capped = count > cap as u64;
                            self.stats.documents += 1;
                            self.stats.tuples += doc.tuple_ends.len() as u64;
                            if doc.capped {
                                self.stats.capped_documents += 1;
                            }
                            return Ok(true);
                        }
                    }
                }
            }
            kind = match self.reader.advance()? {
                Some((kind, _)) => kind,
                // The reader errors on EOF inside a document, so the event
                // stream cannot end with elements still open.
                None => {
                    return Err(XmlError {
                        offset: self.reader.offset(),
                        line: 1,
                        message: "unexpected end of event stream".into(),
                    })
                }
            };
        }
    }
}

/// Extracts the one document of `input`. Accepts and rejects exactly what
/// [`crate::parser::parse_document`] does, with an equal [`XmlError`]
/// (empty input, and trailing content after the root element, included);
/// on success the result equals the DOM route's, labels interned in the
/// same order.
pub fn extract_document(
    input: &str,
    labels: &mut Interner,
    options: &ParseOptions,
    limits: &TupleLimits,
) -> Result<StreamedDocument, XmlError> {
    let mut doc = ExtractedDocument::default();
    extract_document_into(
        input,
        labels,
        options,
        limits,
        &mut SaxScratch::default(),
        &mut doc,
    )?;
    Ok(doc.to_streamed())
}

/// [`extract_document`] into `doc`, reusing `scratch`'s and `doc`'s
/// buffers: once both have read a document at least as large, extracting
/// allocates nothing (see the module docs). On error `doc` holds an
/// unspecified part of the document.
pub fn extract_document_into(
    input: &str,
    labels: &mut Interner,
    options: &ParseOptions,
    limits: &TupleLimits,
    scratch: &mut SaxScratch,
    doc: &mut ExtractedDocument,
) -> Result<(), XmlError> {
    let mut extractor = StreamingTupleExtractor::with_scratch(
        input.as_bytes(),
        options.clone(),
        *limits,
        std::mem::take(scratch),
    );
    let result = match extractor.next_document_into(labels, doc) {
        Ok(true) => extractor.reader.expect_end(),
        Ok(false) => Err(extractor.reader.stream.err("expected document element")),
        Err(e) => Err(e),
    };
    *scratch = extractor.into_scratch();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<SaxEvent> {
        let mut reader = SaxReader::new(input.as_bytes(), ParseOptions::default());
        let mut out = Vec::new();
        while let Some(event) = reader.next_event().expect("valid input") {
            out.push(event);
        }
        out
    }

    #[test]
    fn emits_start_text_end() {
        let evs = events("<a><b>hi</b></a>");
        assert_eq!(evs.len(), 5);
        assert!(matches!(&evs[0], SaxEvent::StartElement { name, offset: 0, .. } if name == "a"));
        assert!(matches!(&evs[2], SaxEvent::Text { text, .. } if text == "hi"));
        assert!(matches!(&evs[4], SaxEvent::EndElement { name, .. } if name == "a"));
    }

    #[test]
    fn self_closing_emits_both_events() {
        let evs = events(r#"<a x="1"/>"#);
        assert_eq!(evs.len(), 2);
        assert!(matches!(
            &evs[0],
            SaxEvent::StartElement { attributes, .. } if attributes == &[("x".to_string(), "1".to_string())]
        ));
        assert!(matches!(&evs[1], SaxEvent::EndElement { name, .. } if name == "a"));
    }

    #[test]
    fn multiple_documents_stream() {
        let evs = events("<?xml version=\"1.0\"?><a/>\n<b>x</b>\n");
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                SaxEvent::StartElement { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn text_policy_matches_dom_defaults() {
        // Whitespace-only runs drop; comments do not split coalesced text.
        let evs = events("<a>\n  <b>x<!--c-->y</b>\n</a>");
        let texts: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                SaxEvent::Text { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["xy"]);
    }

    #[test]
    fn errors_report_line_numbers() {
        let mut reader = SaxReader::new("<a>\n<b>\n</a>".as_bytes(), ParseOptions::default());
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(err.message.contains("mismatched end tag"), "{err}");
        assert_eq!(err.line, 3, "{err}");
    }

    #[test]
    fn unclosed_document_is_an_error() {
        let mut reader = SaxReader::new("<a><b></b>".as_bytes(), ParseOptions::default());
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(err.message.contains("unclosed element `a`"), "{err}");
    }

    #[test]
    fn extractor_matches_fig3_tuple_count() {
        let doc = r#"<dblp><inproceedings key="k1"><author>A</author><author>B</author><title>T</title></inproceedings><inproceedings key="k2"><author>C</author><title>U</title></inproceedings></dblp>"#;
        let mut labels = Interner::new();
        let mut extractor = StreamingTupleExtractor::new(
            doc.as_bytes(),
            ParseOptions::default(),
            TupleLimits::default(),
        );
        let doc = extractor
            .next_document(&mut labels)
            .expect("valid")
            .expect("one document");
        // Two papers, the first with two authors: 2 + 1 = 3 tuples.
        assert_eq!(doc.tuples.len(), 3);
        assert_eq!(doc.tuple_count, 3);
        assert!(!doc.capped);
        assert_eq!(doc.leaves.len(), 7);
        assert!(extractor.next_document(&mut labels).expect("eof").is_none());
        assert_eq!(extractor.stats().documents, 1);
        assert_eq!(extractor.stats().tuples, 3);
    }

    #[test]
    fn reused_buffers_extract_like_fresh_ones() {
        let inputs = [
            "<a><b x='1' y=\"&lt;2\">t</b><b>u &amp; v</b><c/></a>",
            "<a><b>unclosed",
            "<r>  padded  <c k='v'/>tail</r>",
            "<a></b>",
            "<dblp><paper key=\"k\"><author>A</author><author>B</author><title>T</title></paper></dblp>",
            "junk",
            "<a>x</a><b/>",
            "<a>x</a>",
        ];
        let (options, limits) = (ParseOptions::default(), TupleLimits::default());
        let (mut scratch, mut doc) = (SaxScratch::default(), ExtractedDocument::default());
        let (mut fresh_labels, mut reused_labels) = (Interner::new(), Interner::new());
        for input in inputs {
            let fresh = extract_document(input, &mut fresh_labels, &options, &limits);
            let reused = extract_document_into(
                input,
                &mut reused_labels,
                &options,
                &limits,
                &mut scratch,
                &mut doc,
            )
            .map(|()| doc.to_streamed());
            assert_eq!(reused, fresh, "{input}");
            if let Ok(fresh) = fresh {
                for (i, leaf) in fresh.leaves.iter().enumerate() {
                    let flat = doc.leaf(i).expect("leaf");
                    assert_eq!((flat.path, flat.value), (&leaf.path[..], &leaf.value[..]));
                }
                assert!(doc.leaf(fresh.leaves.len()).is_none());
            }
        }
    }

    #[test]
    fn cap_truncates_and_counts() {
        // Ten binary groups: 2^10 = 1024 tuples, capped to 100.
        let mut doc = String::from("<r>");
        for g in 0..10 {
            for v in 0..2 {
                doc.push_str(&format!("<g{g}>{g}-{v}</g{g}>"));
            }
        }
        doc.push_str("</r>");
        let mut labels = Interner::new();
        let mut extractor = StreamingTupleExtractor::new(
            doc.as_bytes(),
            ParseOptions::default(),
            TupleLimits {
                max_tuples_per_tree: 100,
            },
        );
        let streamed = extractor
            .next_document(&mut labels)
            .expect("valid")
            .expect("one document");
        assert_eq!(streamed.tuples.len(), 100);
        assert_eq!(streamed.tuple_count, 1024);
        assert!(streamed.capped);
        assert_eq!(extractor.stats().capped_documents, 1);
    }
}
