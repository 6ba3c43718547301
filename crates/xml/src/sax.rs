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
//! * [`StreamingTupleExtractor`] — consumes events and emits one
//!   [`StreamedDocument`] per document boundary: the document's leaves in
//!   document order plus its tree tuples as leaf-index lists, bit-identical
//!   to the DOM route (`parse_document` + `extract_tree_tuples` + the
//!   leaf-index projection), honoring [`TupleLimits`] with the same
//!   truncation order. Only the open-element path and per-node label groups
//!   are resident: memory is bounded by document depth × branching × the
//!   tuple cap, independent of corpus size.
//!
//! * [`extract_document`] — the extractor over exactly one in-memory
//!   document, accepting and rejecting what `parse_document` does: how
//!   every production path reads a document. The DOM route is the oracle.
//!
//! The equivalence with the DOM route is pinned by the property tests in
//! `tests/sax_equivalence.rs`.

use crate::parser::{decode_entities, ParseOptions, XmlError};
use crate::tree::S_LABEL;
use crate::tuple::TupleLimits;
use cxk_util::{FxHashMap, Interner, Symbol};
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
    fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::new(),
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

    /// Consumes bytes into `out` until `stop` (left unconsumed) or EOF.
    fn take_until(&mut self, stop: u8, out: &mut Vec<u8>) -> Result<(), XmlError> {
        loop {
            if self.ensure(1)? == 0 {
                return Ok(());
            }
            let start = self.pos;
            match self.buf[start..].iter().position(|&b| b == stop) {
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

    /// Scans forward for `term`, consuming through it. Bytes before the
    /// terminator are appended to `keep` when given. EOF first is the
    /// error `message`, reported where the scan started — the construct's
    /// own position, as the DOM parser reports an unterminated construct.
    fn scan_past(
        &mut self,
        term: &[u8],
        mut keep: Option<&mut Vec<u8>>,
        message: &str,
    ) -> Result<(), XmlError> {
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
                let mut cand: Vec<u8> = Vec::with_capacity(matched + 1);
                cand.extend_from_slice(&term[..matched]);
                cand.push(b);
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
    /// Names of the currently open elements, root first.
    open: Vec<String>,
    /// Coalesced text awaiting a flush point.
    pending: String,
    pending_offset: usize,
    /// Events parsed but not yet handed out (text flushed before a start
    /// tag produces two events from one parse step).
    queued: VecDeque<SaxEvent>,
    bom_checked: bool,
}

impl<R: BufRead> SaxReader<R> {
    /// Creates a reader over `input` with the given parse options.
    pub fn new(input: R, options: ParseOptions) -> Self {
        Self {
            stream: ByteStream::new(input),
            options,
            open: Vec::new(),
            pending: String::new(),
            pending_offset: 0,
            queued: VecDeque::new(),
            bom_checked: false,
        }
    }

    /// Current element nesting depth (0 between documents).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Absolute byte offset of the next unconsumed input byte.
    pub fn offset(&self) -> usize {
        self.stream.offset()
    }

    /// Pulls the next event, or `Ok(None)` at end of input. Only legal to
    /// keep calling after `Ok(None)` (which repeats) or an error (which is
    /// sticky in the sense that the stream position is unspecified).
    pub fn next_event(&mut self) -> Result<Option<SaxEvent>, XmlError> {
        loop {
            if let Some(event) = self.queued.pop_front() {
                return Ok(Some(event));
            }
            if self.open.is_empty() {
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

    /// One step of element content: mirrors a single iteration of the DOM
    /// parser's `parse_content` loop.
    fn content_step(&mut self) -> Result<(), XmlError> {
        match self.stream.peek()? {
            None => {
                let name = self.open.last().map_or("", String::as_str);
                Err(self.stream.err(format!("unclosed element `{name}`")))
            }
            Some(b'<') => {
                if self.stream.starts_with(b"</")? {
                    self.flush_text();
                    let offset = self.stream.offset();
                    self.stream.bump(2);
                    let name = self.parse_name()?;
                    let expected = self.open.last().cloned().unwrap_or_default();
                    if name != expected {
                        return Err(self.stream.err(format!(
                            "mismatched end tag: expected `</{expected}>`, found `</{name}>`"
                        )));
                    }
                    self.skip_whitespace()?;
                    self.expect(b'>')?;
                    self.open.pop();
                    self.queued.push_back(SaxEvent::EndElement { name, offset });
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
                    let mut raw = Vec::new();
                    self.stream
                        .scan_past(b"]]>", Some(&mut raw), "unterminated CDATA section")?;
                    let text = std::str::from_utf8(&raw).map_err(|_| XmlError {
                        offset: start_offset,
                        line: start_line,
                        message: "CDATA is not valid UTF-8".into(),
                    })?;
                    if self.pending.is_empty() {
                        self.pending_offset = start_offset;
                    }
                    self.pending.push_str(text);
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
                let mut raw = Vec::new();
                self.stream.take_until(b'<', &mut raw)?;
                let text = std::str::from_utf8(&raw).map_err(|_| XmlError {
                    offset: start_offset,
                    line: start_line,
                    message: "text is not valid UTF-8".into(),
                })?;
                let decoded = decode_entities(text).map_err(|msg| XmlError {
                    offset: start_offset,
                    line: start_line,
                    message: msg,
                })?;
                if self.pending.is_empty() {
                    self.pending_offset = start_offset;
                }
                self.pending.push_str(&decoded);
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
        let name = self.parse_name()?;
        let mut attributes = Vec::new();
        let self_closed = self.parse_attributes(&mut attributes)?;
        self.queued.push_back(SaxEvent::StartElement {
            name: name.clone(),
            attributes,
            offset,
        });
        if self_closed {
            let end_offset = self.stream.offset();
            self.queued.push_back(SaxEvent::EndElement {
                name,
                offset: end_offset,
            });
        } else {
            self.open.push(name);
        }
        Ok(())
    }

    /// Parses attributes and the tag terminator; `true` for `/>`.
    fn parse_attributes(&mut self, out: &mut Vec<(String, String)>) -> Result<bool, XmlError> {
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
                    let attr_name = self.parse_name()?;
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
                    let mut raw = Vec::new();
                    loop {
                        match self.stream.peek()? {
                            Some(c) if c == quote => break,
                            Some(b'<') => {
                                return Err(self.stream.err("`<` not allowed in attribute value"))
                            }
                            Some(c) => {
                                raw.push(c);
                                self.stream.bump(1);
                            }
                            None => return Err(self.stream.err("unterminated attribute value")),
                        }
                    }
                    let raw = std::str::from_utf8(&raw).map_err(|_| XmlError {
                        offset: start_offset,
                        line: start_line,
                        message: "attribute value is not valid UTF-8".into(),
                    })?;
                    let value = decode_entities(raw).map_err(|msg| XmlError {
                        offset: start_offset,
                        line: start_line,
                        message: msg,
                    })?;
                    self.stream.bump(1); // closing quote
                    out.push((attr_name, value));
                }
                None => return Err(self.stream.err("unterminated start tag")),
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start_offset = self.stream.offset();
        let start_line = self.stream.line;
        let mut raw = Vec::new();
        while let Some(c) = self.stream.peek()? {
            let ok =
                c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80;
            if !ok {
                break;
            }
            raw.push(c);
            self.stream.bump(1);
        }
        if raw.is_empty() {
            return Err(self.stream.err("expected a name"));
        }
        let name = std::str::from_utf8(&raw).map_err(|_| XmlError {
            offset: start_offset,
            line: start_line,
            message: "name is not valid UTF-8".into(),
        })?;
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(self.stream.err(format!("invalid name start in `{name}`")));
        }
        Ok(name.to_string())
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

    /// Emits pending text under the exact DOM `flush_text` policy.
    fn flush_text(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let keep = self.options.keep_whitespace_text || !self.pending.trim().is_empty();
        if keep {
            let text = if self.options.trim_text {
                self.pending.trim().to_string()
            } else {
                std::mem::take(&mut self.pending)
            };
            if !text.is_empty() || self.options.keep_whitespace_text {
                self.queued.push_back(SaxEvent::Text {
                    text,
                    offset: self.pending_offset,
                });
            }
        }
        self.pending.clear();
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

/// Per-open-element tuple accumulation: the label groups seen so far and
/// each group's alternative tuple sets (leaf-index lists).
struct Frame {
    label: Symbol,
    group_order: Vec<Symbol>,
    groups: FxHashMap<Symbol, GroupAcc>,
    children: usize,
}

struct GroupAcc {
    /// Union of the group's children's tuple sets, truncated at the cap.
    alts: Vec<Vec<u32>>,
    /// Exact (saturating) sum of the children's tuple counts.
    count: u64,
    /// Once the cap is hit, later children of the group are ignored —
    /// mirroring the DOM enumeration's truncate-and-break.
    saturated: bool,
}

impl Frame {
    fn new(label: Symbol) -> Self {
        Self {
            label,
            group_order: Vec::new(),
            groups: FxHashMap::default(),
            children: 0,
        }
    }

    /// Adds one closed child (or leaf) contribution to its label group.
    fn add_child(&mut self, label: Symbol, alts: Vec<Vec<u32>>, count: u64, cap: usize) {
        self.children += 1;
        let group = self.groups.entry(label).or_insert_with(|| {
            self.group_order.push(label);
            GroupAcc {
                alts: Vec::new(),
                count: 0,
                saturated: false,
            }
        });
        group.count = group.count.saturating_add(count);
        if !group.saturated {
            group.alts.extend(alts);
            if group.alts.len() > cap {
                group.alts.truncate(cap);
                group.saturated = true;
            }
        }
    }

    fn add_leaf(&mut self, label: Symbol, index: u32, cap: usize) {
        self.add_child(label, vec![vec![index]], 1, cap);
    }

    /// Closes the element: the cross product over its label groups, in the
    /// exact order and with the exact cap semantics of `tuples_below`.
    fn close(self, cap: usize) -> (Vec<Vec<u32>>, u64) {
        if self.children == 0 {
            // A childless element forms one tuple alternative containing
            // only itself — which projects to no leaves.
            return (vec![Vec::new()], 1);
        }
        let mut count: u64 = 1;
        let mut partial: Vec<Vec<u32>> = vec![Vec::new()];
        for label in &self.group_order {
            let group = &self.groups[label];
            count = count.saturating_mul(group.count);
            let mut next =
                Vec::with_capacity(partial.len().saturating_mul(group.alts.len()).min(cap));
            'outer: for base in &partial {
                for alt in &group.alts {
                    let mut combined = base.clone();
                    combined.extend_from_slice(alt);
                    next.push(combined);
                    if next.len() >= cap {
                        break 'outer;
                    }
                }
            }
            partial = next;
        }
        (partial, count)
    }
}

/// Streaming tree-tuple extraction: pulls events from a [`SaxReader`] and
/// emits one [`StreamedDocument`] per document, never materializing the
/// tree. See the module docs for the equivalence contract.
pub struct StreamingTupleExtractor<R> {
    reader: SaxReader<R>,
    limits: TupleLimits,
    stats: IngestStats,
}

impl<R: BufRead> StreamingTupleExtractor<R> {
    /// Creates an extractor over `input`.
    pub fn new(input: R, options: ParseOptions, limits: TupleLimits) -> Self {
        Self {
            reader: SaxReader::new(input, options),
            limits,
            stats: IngestStats::default(),
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
        let mut event = match self.reader.next_event()? {
            None => return Ok(None),
            Some(event) => event,
        };
        // Interned lazily at the first text node so the interner fills in
        // exactly the order the DOM parser produces — streamed and
        // DOM-built datasets stay bit-identical, symbol table included.
        let mut s_label: Option<Symbol> = None;
        let cap = self.limits.max_tuples_per_tree;
        let mut stack: Vec<Frame> = Vec::new();
        let mut open_path: Vec<Symbol> = Vec::new();
        let mut leaves: Vec<StreamedLeaf> = Vec::new();
        let mut depth = 0usize;
        loop {
            match event {
                SaxEvent::StartElement {
                    name, attributes, ..
                } => {
                    let label = labels.intern(&name);
                    open_path.push(label);
                    depth = depth.max(open_path.len());
                    let mut frame = Frame::new(label);
                    for (attr_name, value) in attributes {
                        let attr_label = labels.intern(&attr_name);
                        depth = depth.max(open_path.len() + 1);
                        let index = leaves.len() as u32;
                        let mut path = open_path.clone();
                        path.push(attr_label);
                        leaves.push(StreamedLeaf {
                            path,
                            is_attribute: true,
                            value,
                        });
                        frame.add_leaf(attr_label, index, cap);
                    }
                    stack.push(frame);
                }
                SaxEvent::Text { text, .. } => {
                    let s_label = *s_label.get_or_insert_with(|| labels.intern(S_LABEL));
                    depth = depth.max(open_path.len() + 1);
                    let index = leaves.len() as u32;
                    let mut path = open_path.clone();
                    path.push(s_label);
                    leaves.push(StreamedLeaf {
                        path,
                        is_attribute: false,
                        value: text,
                    });
                    // The reader emits text only inside an open element.
                    if let Some(frame) = stack.last_mut() {
                        frame.add_leaf(s_label, index, cap);
                    }
                }
                SaxEvent::EndElement { .. } => {
                    // The reader emits an end only for an open element.
                    let Some(frame) = stack.pop() else {
                        return Err(self.reader.stream.err("unexpected end tag"));
                    };
                    let label = frame.label;
                    let (alts, count) = frame.close(cap);
                    open_path.pop();
                    match stack.last_mut() {
                        Some(parent) => parent.add_child(label, alts, count, cap),
                        None => {
                            let mut tuples = alts;
                            for tuple in &mut tuples {
                                tuple.sort_unstable();
                            }
                            let capped = count > cap as u64;
                            self.stats.documents += 1;
                            self.stats.tuples += tuples.len() as u64;
                            if capped {
                                self.stats.capped_documents += 1;
                            }
                            return Ok(Some(StreamedDocument {
                                leaves,
                                tuples,
                                depth,
                                tuple_count: count,
                                capped,
                            }));
                        }
                    }
                }
            }
            event = match self.reader.next_event()? {
                Some(event) => event,
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
    let mut extractor = StreamingTupleExtractor::new(input.as_bytes(), options.clone(), *limits);
    match extractor.next_document(labels)? {
        Some(doc) => {
            extractor.reader.expect_end()?;
            Ok(doc)
        }
        None => Err(extractor.reader.stream.err("expected document element")),
    }
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
