//! Snapshot persistence: the one binary codec behind `.cxkds` datasets and
//! `.cxkmodel` models.
//!
//! Preprocessing (parsing, tuple extraction, `ttf.itf` weighting) dominates
//! pipeline cost on large corpora, so a finished [`Dataset`] is saved once
//! and reloaded ([`save`]/[`load`]); a trained model (`cxk_core::model`) is
//! saved on the same codec. Two layers are shared:
//!
//! * **The envelope** ([`Format`]): four magic bytes, a `u32` version, the
//!   payload, and a trailing FxHash [`checksum`] over every byte before it.
//!   A reader checks the magic, then the version, then the checksum, so a
//!   file of another format or version is named as such and a flipped or
//!   missing byte is refused before any of the payload is decoded; bytes
//!   the payload leaves unread are refused too.
//! * **The shared sections**, each written and read in one place: the
//!   label and vocabulary interners and the path table ([`put_tables`] /
//!   [`read_tables`]: each table sized by a pre-pass over its section, no
//!   entry listed twice, every path label in range), the term statistics
//!   ([`put_term_stats`] / [`read_term_stats`]: no longer than the
//!   vocabulary) and the sparse vectors ([`put_vector`] / [`read_vector`]:
//!   every term in range).
//!
//! Integers are little-endian and `f64`s travel as raw IEEE bits
//! ([`cxk_util::bytes`]), so weights, and the fingerprints derived from
//! them, survive bit-exactly. Every count is checked against the bytes left
//! before anything is sized from it, and every id against the table it
//! points into ([`read_id`]), so a corrupt file is a [`SnapshotError`]
//! naming a byte offset, never a panic or an oversized allocation.
//!
//! A dataset file (magic `CXKD`, version 3) holds the three tables, the
//! items (paths, fingerprint, raw text, terms, vector), the transactions
//! with their document index, the term statistics and the summary
//! statistics. The tag-path similarity table is derived state: [`load`]
//! rebuilds it.

use crate::dataset::{distinct_paths, Dataset, DatasetStats};
use crate::item::{Item, ItemId};
use crate::pathsim::TagPathSimTable;
use crate::transaction::Transaction;
use cxk_text::{SparseVec, TermStatsBuilder};
use cxk_util::bytes::{put_f64, put_u32, put_u64};
use cxk_util::{ByteError, ByteReader, FxHasher, Interner, Symbol};
use cxk_xml::path::{PathId, PathTable};
use std::hash::Hasher;

/// The `.cxkds` dataset format.
const DATASET: Format = Format {
    magic: *b"CXKD",
    version: 3,
    kind: "dataset",
    extension: ".cxkds",
};

/// Bytes of the magic and version that open every snapshot.
const HEADER: usize = 8;
/// Bytes of the checksum that closes every snapshot.
const CHECKSUM: usize = 8;

/// Why a snapshot was refused, and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// What the file was read as (`"dataset"`, `"model"`), as
    /// [`Format::decode`] names it; `"snapshot"` before that.
    pub kind: &'static str,
    /// Byte offset in the file where the problem was found.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl SnapshotError {
    /// An error at byte `offset`, named by the format that decodes it.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            kind: "snapshot",
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} load error at byte {}: {}",
            self.kind, self.offset, self.message
        )
    }
}

impl std::error::Error for SnapshotError {}

impl From<ByteError> for SnapshotError {
    fn from(e: ByteError) -> Self {
        Self::new(e.offset, e.kind.to_string())
    }
}

/// The FxHash a snapshot ends with, over every byte before it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// One snapshot format: what its envelope declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The four bytes a file of this format starts with.
    pub magic: [u8; 4],
    /// The version written, and the only one read.
    pub version: u32,
    /// What a file of this format holds, as its errors name it.
    pub kind: &'static str,
    /// The conventional file extension, as a bad magic names it.
    pub extension: &'static str,
}

impl Format {
    /// A snapshot of this format: the magic and version, what `payload`
    /// appends, then the checksum.
    pub fn encode(&self, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&self.magic);
        put_u32(&mut out, self.version);
        payload(&mut out);
        let digest = checksum(&out);
        put_u64(&mut out, digest);
        out
    }

    /// Decodes a snapshot of this format. The magic, then the version, then
    /// the checksum are checked; `payload` then reads from just after the
    /// version (offsets count from the start of the file), and any byte it
    /// leaves unread is refused. Every error names this format's kind.
    pub fn decode<'a, T>(
        &self,
        bytes: &'a [u8],
        payload: impl FnOnce(&mut ByteReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.open(bytes)
            .and_then(|mut r| {
                let value = payload(&mut r)?;
                if !r.is_exhausted() {
                    return Err(SnapshotError::new(r.offset(), "trailing bytes"));
                }
                Ok(value)
            })
            .map_err(|e| SnapshotError {
                kind: self.kind,
                ..e
            })
    }

    /// Checks the envelope; a reader over the payload, past the version.
    fn open<'a>(&self, bytes: &'a [u8]) -> Result<ByteReader<'a>, SnapshotError> {
        let mut header = ByteReader::new(bytes);
        if header.bytes(self.magic.len()).ok() != Some(&self.magic[..]) {
            return Err(SnapshotError::new(
                0,
                format!("bad magic (not a {} snapshot)", self.extension),
            ));
        }
        let at = header.offset();
        let version = header.u32()?;
        if version != self.version {
            return Err(SnapshotError::new(
                at,
                format!(
                    "unsupported format version {version} (expected {})",
                    self.version
                ),
            ));
        }
        let end = bytes.len().saturating_sub(CHECKSUM);
        if end < HEADER {
            return Err(SnapshotError::new(bytes.len(), "truncated snapshot"));
        }
        let (body, tail) = bytes.split_at(end);
        if ByteReader::new(tail).u64().ok() != Some(checksum(body)) {
            return Err(SnapshotError::new(
                end,
                "checksum mismatch (corrupt snapshot)",
            ));
        }
        let mut r = ByteReader::new(body);
        r.bytes(HEADER)?;
        Ok(r)
    }

    /// The checksum a snapshot of this format ends with, read without
    /// decoding it: `None` when `bytes` is too short or lacks the magic.
    /// Equal digests mean the same content, bit for bit.
    pub fn digest(&self, bytes: &[u8]) -> Option<u64> {
        let end = bytes.len().checked_sub(CHECKSUM)?;
        if end < HEADER || !bytes.starts_with(&self.magic) {
            return None;
        }
        ByteReader::new(&bytes[end..]).u64().ok()
    }
}

/// Reads a `u32` id into the `table` of `len` entries, refusing one past
/// its end at the id's offset.
pub fn read_id(
    r: &mut ByteReader<'_>,
    what: &str,
    table: &str,
    len: usize,
) -> Result<u32, SnapshotError> {
    let at = r.offset();
    let id = r.u32()?;
    if id as usize >= len {
        return Err(SnapshotError::new(
            at,
            format!("{what} id {id} is past the {table} table, which holds {len} entries"),
        ));
    }
    Ok(id)
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, text: &str) {
    put_u32(out, text.len() as u32);
    out.extend_from_slice(text.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
fn read_str<'a>(r: &mut ByteReader<'a>) -> Result<&'a str, SnapshotError> {
    let len = r.count(1)?;
    let at = r.offset();
    std::str::from_utf8(r.bytes(len)?).map_err(|_| SnapshotError::new(at, "string is not UTF-8"))
}

/// Appends the label interner, the vocabulary and the path table: each a
/// count, then its entries in id order (a string, or a count of labels).
pub fn put_tables(out: &mut Vec<u8>, labels: &Interner, vocabulary: &Interner, paths: &PathTable) {
    for interner in [labels, vocabulary] {
        put_u32(out, interner.len() as u32);
        for (_, text) in interner.iter() {
            put_str(out, text);
        }
    }
    put_u32(out, paths.len() as u32);
    for (_, path) in paths.iter() {
        put_u32(out, path.len() as u32);
        for label in path {
            put_u32(out, label.0);
        }
    }
}

/// Reads what [`put_tables`] wrote: the labels, the vocabulary and the
/// paths, each table sized from its section before it is filled. An entry
/// listed twice is refused, since interning it would collapse it onto the
/// first and shift every later id onto the next entry's key.
pub fn read_tables(
    r: &mut ByteReader<'_>,
) -> Result<(Interner, Interner, PathTable), SnapshotError> {
    let labels = read_interner(r, "labels")?;
    let vocabulary = read_interner(r, "vocabulary")?;
    let count = r.count(4)?;
    let (total, longest) = extent(r, count, 4)?;
    let mut paths = PathTable::with_capacity_and_labels(count, total);
    let mut symbols = Vec::with_capacity(longest);
    for _ in 0..count {
        let at = r.offset();
        let len = r.count(4)?;
        symbols.clear();
        for _ in 0..len {
            symbols.push(Symbol(read_id(r, "path label", "labels", labels.len())?));
        }
        paths
            .insert_new(&symbols)
            .map_err(|first| duplicate(at, "paths", first.0))?;
    }
    Ok((labels, vocabulary, paths))
}

fn read_interner(r: &mut ByteReader<'_>, section: &str) -> Result<Interner, SnapshotError> {
    let count = r.count(4)?;
    let (bytes, _) = extent(r, count, 1)?;
    let mut interner = Interner::with_capacity_and_bytes(count, bytes);
    for _ in 0..count {
        let at = r.offset();
        interner
            .insert_new(read_str(r)?)
            .map_err(|first| duplicate(at, section, first.0))?;
    }
    Ok(interner)
}

/// Measures the `count` entries that follow, each a length-prefixed run
/// of `unit`-byte elements, without consuming them: their total and their
/// longest length, in elements.
fn extent(r: &ByteReader<'_>, count: usize, unit: usize) -> Result<(usize, usize), ByteError> {
    let mut ahead = r.clone();
    let (mut total, mut longest) = (0, 0);
    for _ in 0..count {
        let len = ahead.count(unit)?;
        ahead.bytes(unit * len)?;
        total += len;
        longest = longest.max(len);
    }
    Ok((total, longest))
}

/// The error for the entry at byte `at` of `section`, which repeats entry
/// `first`.
fn duplicate(at: usize, section: &str, first: u32) -> SnapshotError {
    SnapshotError::new(
        at,
        format!("duplicated entry in the {section} section (entry {first} again)"),
    )
}

/// Appends term statistics: `N_T`, then a count and each term's `n_{j,T}`.
pub fn put_term_stats(out: &mut Vec<u8>, stats: &TermStatsBuilder) {
    put_u64(out, stats.total_tcus());
    put_u32(out, stats.counts().len() as u32);
    for &count in stats.counts() {
        put_u64(out, count);
    }
}

/// Reads what [`put_term_stats`] wrote, refusing more counts than the
/// `vocabulary` has terms.
pub fn read_term_stats(
    r: &mut ByteReader<'_>,
    vocabulary: usize,
) -> Result<TermStatsBuilder, SnapshotError> {
    let total_tcus = r.u64()?;
    let len = r.count(8)?;
    if len > vocabulary {
        return Err(SnapshotError::new(
            r.offset(),
            format!("{len} term statistics exceed the vocabulary of {vocabulary}"),
        ));
    }
    let mut counts = r.vec_for(len);
    for _ in 0..len {
        counts.push(r.u64()?);
    }
    Ok(TermStatsBuilder::from_parts(total_tcus, counts))
}

/// Appends a sparse vector: a count, then each `(term, weight)` entry.
pub fn put_vector(out: &mut Vec<u8>, vector: &SparseVec) {
    put_u32(out, vector.nnz() as u32);
    for (term, weight) in vector.iter() {
        put_u32(out, term.0);
        put_f64(out, weight);
    }
}

/// Reads what [`put_vector`] wrote, every term checked against a
/// `vocabulary` of that many terms.
pub fn read_vector(r: &mut ByteReader<'_>, vocabulary: usize) -> Result<SparseVec, SnapshotError> {
    let nnz = r.count(12)?;
    let mut pairs = r.vec_for(nnz);
    for _ in 0..nnz {
        let term = read_id(r, "vector term", "vocabulary", vocabulary)?;
        pairs.push((Symbol(term), r.f64()?));
    }
    Ok(SparseVec::from_pairs(pairs))
}

/// Serializes a dataset to the `.cxkds` format.
pub fn save(ds: &Dataset) -> Vec<u8> {
    DATASET.encode(|out| {
        put_tables(out, &ds.labels, &ds.vocabulary, &ds.paths);
        put_u32(out, ds.items.len() as u32);
        for item in &ds.items {
            put_u32(out, item.path.0);
            put_u32(out, item.tag_path.0);
            put_u64(out, item.fingerprint);
            put_str(out, &item.raw);
            put_u32(out, item.terms.len() as u32);
            for term in &item.terms {
                put_u32(out, term.0);
            }
            put_vector(out, &item.vector);
        }
        put_u32(out, ds.transactions.len() as u32);
        for (tr, &doc) in ds.transactions.iter().zip(&ds.doc_of) {
            put_u32(out, doc);
            put_u32(out, tr.items().len() as u32);
            for id in tr.items() {
                put_u32(out, id.0);
            }
        }
        put_term_stats(out, &ds.term_stats);
        let s = &ds.stats;
        for stat in [
            s.documents,
            s.transactions,
            s.items,
            s.vocabulary,
            s.complete_paths,
            s.tag_paths,
            s.max_transaction_len,
            s.max_tcu_nnz,
        ] {
            put_u64(out, stat as u64);
        }
        put_u64(out, s.total_tcus);
        put_u64(out, s.max_depth as u64);
    })
}

/// Deserializes a `.cxkds` dataset; the tag-path similarity table is
/// rebuilt. Every id is checked against the table it points into (a path's
/// labels, an item's paths and terms, a transaction's items), so a corrupt
/// file is an error naming its byte offset, never a panic.
pub fn load(bytes: &[u8]) -> Result<Dataset, SnapshotError> {
    DATASET.decode(bytes, |r| {
        let (labels, vocabulary, paths) = read_tables(r)?;
        // An item is at least its two paths, fingerprint and three counts.
        let count = r.count(28)?;
        let mut items = r.vec_for(count);
        for _ in 0..count {
            let path = PathId(read_id(r, "path", "paths", paths.len())?);
            let tag_path = PathId(read_id(r, "tag path", "paths", paths.len())?);
            let fingerprint = r.u64()?;
            let raw = read_str(r)?.into();
            let len = r.count(4)?;
            let mut terms = r.vec_for(len);
            for _ in 0..len {
                terms.push(Symbol(read_id(r, "term", "vocabulary", vocabulary.len())?));
            }
            let vector = read_vector(r, vocabulary.len())?;
            items.push(Item {
                path,
                tag_path,
                raw,
                terms,
                vector,
                fingerprint,
            });
        }

        let count = r.count(8)?;
        let mut transactions = r.vec_for(count);
        let mut doc_of = r.vec_for(count);
        for _ in 0..count {
            doc_of.push(r.u32()?);
            let len = r.count(4)?;
            let mut ids = r.vec_for(len);
            for _ in 0..len {
                ids.push(ItemId(read_id(r, "item", "items", items.len())?));
            }
            transactions.push(Transaction::new(ids));
        }

        let term_stats = read_term_stats(r, vocabulary.len())?;
        let mut stat = || r.u64().map(|v| v as usize);
        let stats = DatasetStats {
            documents: stat()?,
            transactions: stat()?,
            items: stat()?,
            vocabulary: stat()?,
            complete_paths: stat()?,
            tag_paths: stat()?,
            max_transaction_len: stat()?,
            max_tcu_nnz: stat()?,
            total_tcus: stat()? as u64,
            max_depth: stat()?,
        };

        let tag_sim = TagPathSimTable::build(&distinct_paths(&items, |i| i.tag_path), &paths);

        Ok(Dataset {
            labels,
            vocabulary,
            paths,
            items,
            transactions,
            doc_of,
            tag_sim,
            term_stats,
            stats,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{BuildOptions, DatasetBuilder};
    use crate::itemsim::SimParams;
    use crate::txsim::sim_gamma_j;

    fn sample_dataset() -> Dataset {
        let docs = [
            r#"<dblp><inproceedings key="a&amp;b"><author>M.J. Zaki</author><title>mining	tab "quoted" text</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><article key="c1"><author>R. Perlman</author><title>routing networks</title><journal>Net Letters</journal></article></dblp>"#,
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for d in docs {
            builder.add_xml(d).unwrap();
        }
        builder.finish()
    }

    /// Recomputes the trailing checksum after `bytes` was edited.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - CHECKSUM;
        let digest = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&digest.to_le_bytes());
    }

    /// `bytes` with the `u32` at `at` set to `value`, resealed.
    fn with_u32(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
        let mut patched = bytes.to_vec();
        patched[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut patched);
        patched
    }

    /// Where the counts and records of `save(ds)` start, computed from the
    /// layout in the module docs rather than by the decoder.
    struct Offsets {
        labels: usize,
        vocabulary: usize,
        paths: usize,
        items: usize,
        /// Each item's first byte (its path id).
        item: Vec<usize>,
        transactions: usize,
        /// Each transaction's first byte (its document index).
        transaction: Vec<usize>,
        /// The term statistics' count (after `N_T`).
        term_stats: usize,
    }

    fn str_len(text: &str) -> usize {
        4 + text.len()
    }

    fn offsets(ds: &Dataset) -> Offsets {
        let labels = HEADER;
        let vocabulary = labels + 4 + ds.labels.iter().map(|(_, t)| str_len(t)).sum::<usize>();
        let paths = vocabulary + 4 + ds.vocabulary.iter().map(|(_, t)| str_len(t)).sum::<usize>();
        let items = paths + 4 + ds.paths.iter().map(|(_, p)| 4 + 4 * p.len()).sum::<usize>();
        let mut at = items + 4;
        let item = ds
            .items
            .iter()
            .map(|i| {
                let start = at;
                at += 16 + str_len(&i.raw) + 4 + 4 * i.terms.len() + 4 + 12 * i.vector.nnz();
                start
            })
            .collect();
        let transactions = at;
        at += 4;
        let transaction = ds
            .transactions
            .iter()
            .map(|t| {
                let start = at;
                at += 8 + 4 * t.len();
                start
            })
            .collect();
        Offsets {
            labels,
            vocabulary,
            paths,
            items,
            item,
            transactions,
            transaction,
            term_stats: at + 8,
        }
    }

    /// The first item with a term, and the offsets of its terms' count and
    /// its vector's count.
    fn item_with_terms(ds: &Dataset, at: &Offsets) -> (usize, usize) {
        let (i, item) = ds
            .items
            .iter()
            .enumerate()
            .find(|(_, i)| !i.terms.is_empty() && i.vector.nnz() > 0)
            .expect("an item with terms");
        let terms = at.item[i] + 16 + str_len(&item.raw);
        (terms, terms + 4 + 4 * item.terms.len())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ds = sample_dataset();
        let bytes = save(&ds);
        let loaded = load(&bytes).expect("loads");
        assert_eq!(loaded.items.len(), ds.items.len());
        assert_eq!(loaded.transactions.len(), ds.transactions.len());
        assert_eq!(loaded.doc_of, ds.doc_of);
        assert_eq!(loaded.stats, ds.stats);
        assert_eq!(loaded.term_stats.total_tcus(), ds.term_stats.total_tcus());
        assert_eq!(loaded.term_stats.counts(), ds.term_stats.counts());
        for (a, b) in loaded.items.iter().zip(&ds.items) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.tag_path, b.tag_path);
            assert_eq!(a.raw, b.raw);
            assert_eq!(a.terms, b.terms);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.vector, b.vector, "vectors must round-trip bit-exactly");
        }
        for (a, b) in loaded.transactions.iter().zip(&ds.transactions) {
            assert_eq!(a.items(), b.items());
        }
        // Interners and paths resolve identically.
        for (sym, text) in ds.vocabulary.iter() {
            assert_eq!(loaded.vocabulary.resolve(sym), text);
        }
        for (sym, text) in ds.labels.iter() {
            assert_eq!(loaded.labels.resolve(sym), text);
        }
        for (id, labels) in ds.paths.iter() {
            assert_eq!(loaded.paths.resolve(id), labels);
        }
        // Saving is deterministic: the reloaded dataset saves to the same bytes.
        assert_eq!(save(&loaded), bytes);
    }

    #[test]
    fn similarities_are_identical_after_reload() {
        let ds = sample_dataset();
        let loaded = load(&save(&ds)).unwrap();
        let params = SimParams::new(0.5, 0.6);
        let ctx_a = ds.sim_ctx(params);
        let ctx_b = loaded.sim_ctx(params);
        for i in 0..ds.transactions.len() {
            for j in 0..ds.transactions.len() {
                let a = sim_gamma_j(
                    &ctx_a,
                    &ds.views(&ds.transactions[i]),
                    &ds.views(&ds.transactions[j]),
                );
                let b = sim_gamma_j(
                    &ctx_b,
                    &loaded.views(&loaded.transactions[i]),
                    &loaded.views(&loaded.transactions[j]),
                );
                assert_eq!(a, b, "simγJ({i},{j}) changed after reload");
            }
        }
    }

    #[test]
    fn hostile_raw_text_round_trips() {
        let hostile = [
            "a\tb",
            "line\nbreak",
            "back\\slash",
            "\\n literal",
            "",
            "non-BMP 𝔛 🦀",
            "\r\n\t\\\0",
        ];
        let mut ds = sample_dataset();
        assert!(ds.items.len() >= hostile.len());
        for (item, text) in ds.items.iter_mut().zip(hostile) {
            item.raw = text.into();
        }
        for text in hostile {
            ds.labels.intern(text);
            ds.vocabulary.intern(text);
        }
        let loaded = load(&save(&ds)).expect("loads");
        for (a, b) in loaded.items.iter().zip(&ds.items) {
            assert_eq!(a.raw, b.raw);
        }
        for text in hostile {
            assert_eq!(loaded.labels.get(text), ds.labels.get(text), "{text:?}");
            assert_eq!(loaded.vocabulary.get(text), ds.vocabulary.get(text));
        }
    }

    #[test]
    fn rejects_bad_header() {
        let e = load(b"not a dataset").unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(e.message.contains("bad magic"), "{e}");
        // A text file from earlier builds is refused by its magic, whatever
        // it declares.
        let text = b"cxkds 2\n[labels] 99999999999999\n";
        assert_eq!(text.len(), 32);
        let e = load(text).unwrap_err();
        assert_eq!(
            e.to_string(),
            "dataset load error at byte 0: bad magic (not a .cxkds snapshot)"
        );
        // Another version is named before the checksum is consulted.
        let mut bytes = save(&sample_dataset());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let e = load(&bytes).unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.message.contains("version 2"), "{e}");
    }

    #[test]
    fn rejects_truncation() {
        let bytes = save(&sample_dataset());
        for len in [0, 3, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(load(&bytes[..len]).is_err(), "{len} bytes");
        }
        let e = load(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(e.message.contains("checksum"), "{e}");
    }

    #[test]
    fn rejects_a_corrupted_item() {
        let ds = sample_dataset();
        let bytes = save(&ds);
        // The first item's raw text, made invalid UTF-8.
        let raw = offsets(&ds).item[0] + 16;
        assert!(!ds.items[0].raw.is_empty());
        let mut corrupt = bytes.clone();
        corrupt[raw + 4] = 0xFF;
        // Unsealed, the checksum refuses it; resealed, the decoder does.
        assert!(load(&corrupt).unwrap_err().message.contains("checksum"));
        reseal(&mut corrupt);
        let e = load(&corrupt).unwrap_err();
        assert_eq!(e.offset, raw + 4);
        assert!(e.message.contains("not UTF-8"), "{e}");
    }

    /// `ds`'s file with the one occurrence of `from` replaced by `to` (as
    /// long), resealed; also returns where.
    fn patched(ds: &Dataset, from: &[u8], to: &[u8]) -> (Vec<u8>, usize) {
        let mut bytes = save(ds);
        let found: Vec<usize> = (0..bytes.len() - from.len())
            .filter(|&at| bytes[at..].starts_with(from))
            .collect();
        assert_eq!(found.len(), 1, "the pattern occurs once");
        bytes[found[0]..found[0] + to.len()].copy_from_slice(to);
        reseal(&mut bytes);
        (bytes, found[0])
    }

    #[test]
    fn rejects_a_duplicated_entry_with_its_offset() {
        let entry = |text: &str| {
            let mut out = Vec::new();
            put_str(&mut out, text);
            out
        };
        for section in ["labels", "vocabulary"] {
            let mut ds = sample_dataset();
            let table = if section == "labels" {
                &mut ds.labels
            } else {
                &mut ds.vocabulary
            };
            for text in ["zzdupa", "zzdupb", "zzlast"] {
                table.intern(text);
            }
            let (bytes, at) = patched(&ds, &entry("zzdupb"), &entry("zzdupa"));
            let e = load(&bytes).unwrap_err();
            assert_eq!(e.offset, at, "{section}: {e}");
            assert!(e.message.contains(&format!("{section} section")), "{e}");
        }
        // Two new paths that differ in their last label only, then one more
        // whose id the duplicate would shift.
        let mut ds = sample_dataset();
        let label = ds.labels.intern("zzonly");
        let next = ds.labels.intern("zznext");
        let encode = |labels: &[Symbol]| {
            let mut out = Vec::new();
            put_u32(&mut out, labels.len() as u32);
            for sym in labels {
                put_u32(&mut out, sym.0);
            }
            out
        };
        let (dup, twin) = ([label, label, label], [label, label, next]);
        ds.paths.intern(&dup);
        ds.paths.intern(&twin);
        ds.paths.intern(&[next]);
        let (bytes, at) = patched(&ds, &encode(&twin), &encode(&dup));
        let e = load(&bytes).unwrap_err();
        assert_eq!(e.offset, at, "{e}");
        assert!(e.message.contains("paths section"), "{e}");
    }

    /// Loading the sample dataset with the `u32` at `at` set to `value`
    /// fails at that offset, the message starting with `what`.
    fn assert_rejected(at: impl Fn(&Offsets, &Dataset) -> usize, value: u32, what: &str) {
        let ds = sample_dataset();
        let at = at(&offsets(&ds), &ds);
        let e = load(&with_u32(&save(&ds), at, value)).expect_err(what);
        assert_eq!(e.offset, at, "{e}");
        assert!(e.message.starts_with(what), "{e}");
    }

    #[test]
    fn rejects_an_out_of_range_tag_path() {
        assert_rejected(|at, _| at.item[0] + 4, 999999, "tag path id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_path() {
        assert_rejected(|at, _| at.item[0], 999999, "path id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_path_label() {
        // The first path's first label (after the section's and its count).
        assert_rejected(|at, _| at.paths + 8, 999999, "path label id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_term() {
        let terms = |at: &Offsets, ds: &Dataset| item_with_terms(ds, at).0 + 4;
        assert_rejected(terms, 999999, "term id 999999");
        let vector = |at: &Offsets, ds: &Dataset| item_with_terms(ds, at).1 + 4;
        assert_rejected(vector, 999999, "vector term id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_item() {
        // The first transaction's first item (after its document and count).
        assert_rejected(|at, _| at.transaction[0] + 8, 999999, "item id 999999");
    }

    #[test]
    fn every_count_is_refused_before_anything_is_sized() {
        let ds = sample_dataset();
        let at = offsets(&ds);
        let (terms, vector) = item_with_terms(&ds, &at);
        let counts = [
            ("labels", at.labels),
            ("vocabulary", at.vocabulary),
            ("paths", at.paths),
            ("items", at.items),
            ("an item's terms", terms),
            ("an item's vector", vector),
            ("transactions", at.transactions),
            ("a transaction's items", at.transaction[0] + 4),
            ("term statistics", at.term_stats),
        ];
        let bytes = save(&ds);
        for (what, count_at) in counts {
            let e = load(&with_u32(&bytes, count_at, u32::MAX)).expect_err(what);
            assert_eq!(e.offset, count_at + 4, "{what}: {e}");
            assert_eq!(
                e.message,
                format!("count {} exceeds the bytes left", u32::MAX),
                "{what}"
            );
        }
        // The oracle agrees with the file: the stats close the payload.
        assert_eq!(
            at.term_stats + 4 + 8 * ds.term_stats.counts().len() + 80 + 8,
            bytes.len()
        );
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = DatasetBuilder::new(BuildOptions::default()).finish();
        let loaded = load(&save(&ds)).unwrap();
        assert_eq!(loaded.items.len(), 0);
        assert_eq!(loaded.transactions.len(), 0);
    }
}
