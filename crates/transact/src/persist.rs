//! Dataset persistence: a compact, versioned, dependency-free text format.
//!
//! Preprocessing (parsing, tuple extraction, `ttf.itf` weighting) dominates
//! pipeline cost on large corpora, so a finished [`Dataset`] can be saved
//! and reloaded. The format is line-oriented UTF-8 with `\t`/`\n`/`\\`
//! escaping for free-text fields; the tag-path similarity table is
//! recomputed on load (it is derived state).

use crate::dataset::{Dataset, DatasetStats};
use crate::item::{Item, ItemId};
use crate::pathsim::TagPathSimTable;
use crate::transaction::Transaction;
use cxk_text::{SparseVec, TermStatsBuilder};
use cxk_util::{Interner, Symbol};
use cxk_xml::path::{PathId, PathTable};
use std::fmt::Write as _;

/// Format magic + version.
const HEADER: &str = "cxkds 2";

/// Errors from [`load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Line number (1-based) where the problem was found.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dataset load error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PersistError {}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Serializes a dataset to the persistence format.
pub fn save(ds: &Dataset) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");

    let write_interner = |name: &str, interner: &Interner, out: &mut String| {
        let _ = writeln!(out, "[{name}] {}", interner.len());
        for (_, text) in interner.iter() {
            let _ = writeln!(out, "{}", escape(text));
        }
    };
    write_interner("labels", &ds.labels, &mut out);
    write_interner("vocabulary", &ds.vocabulary, &mut out);

    let _ = writeln!(out, "[paths] {}", ds.paths.len());
    for (_, labels) in ds.paths.iter() {
        let ids: Vec<String> = labels.iter().map(|s| s.0.to_string()).collect();
        let _ = writeln!(out, "{}", ids.join(" "));
    }

    let _ = writeln!(out, "[items] {}", ds.items.len());
    for item in &ds.items {
        let terms: Vec<String> = item.terms.iter().map(|t| t.0.to_string()).collect();
        let vector: Vec<String> = item
            .vector
            .iter()
            .map(|(t, w)| format!("{}:{}", t.0, hex_f64(w)))
            .collect();
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            item.path.0,
            item.tag_path.0,
            item.fingerprint,
            escape(&item.raw),
            terms.join(" "),
            vector.join(" "),
        );
    }

    let _ = writeln!(out, "[transactions] {}", ds.transactions.len());
    for (tr, &doc) in ds.transactions.iter().zip(&ds.doc_of) {
        let ids: Vec<String> = tr.items().iter().map(|i| i.0.to_string()).collect();
        let _ = writeln!(out, "{doc}\t{}", ids.join(" "));
    }

    let counts: Vec<String> = ds.term_stats.counts().iter().map(u64::to_string).collect();
    let _ = writeln!(
        out,
        "[termstats]\t{}\t{}",
        ds.term_stats.total_tcus(),
        counts.join(" ")
    );

    let s = &ds.stats;
    let _ = writeln!(
        out,
        "[stats]\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        s.documents,
        s.transactions,
        s.items,
        s.vocabulary,
        s.complete_paths,
        s.tag_paths,
        s.max_transaction_len,
        s.max_tcu_nnz,
        s.total_tcus,
        s.max_depth,
    );
    out
}

/// Bit-exact `f64` encoding (weights must round-trip exactly so that
/// synthetic fingerprints stay stable).
fn hex_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_hex_f64(s: &str, line: usize) -> Result<f64, PersistError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| err(line, format!("bad f64 bits `{s}`")))
}

fn err(line: usize, message: impl Into<String>) -> PersistError {
    PersistError {
        line,
        message: message.into(),
    }
}

/// An id that names no entry of the table it points into.
fn out_of_range(line: usize, what: &str, id: u32, table: &str, len: usize) -> PersistError {
    err(
        line,
        format!("{what} id {id} is past [{table}], which holds {len} entries"),
    )
}

/// Deserializes a dataset. The tag-path similarity table is rebuilt.
/// Every id is checked against the table it points into — a path's
/// labels, an item's paths and terms, a transaction's items — so a
/// corrupted file is an error naming its line, never a panic.
pub fn load(text: &str) -> Result<Dataset, PersistError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (line_no, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if header != HEADER {
        return Err(err(line_no, format!("bad header `{header}`")));
    }

    let read_section = |lines: &mut dyn Iterator<Item = (usize, &str)>,
                        name: &str|
     -> Result<Vec<(usize, String)>, PersistError> {
        let (line_no, head) = lines
            .next()
            .ok_or_else(|| err(usize::MAX, format!("missing section [{name}]")))?;
        let expected_prefix = format!("[{name}] ");
        let count: usize = head
            .strip_prefix(&expected_prefix)
            .ok_or_else(|| err(line_no, format!("expected `[{name}] N`, got `{head}`")))?
            .parse()
            .map_err(|_| err(line_no, "bad section count"))?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let (n, l) = lines
                .next()
                .ok_or_else(|| err(line_no, format!("truncated section [{name}]")))?;
            rows.push((n, l.to_string()));
        }
        Ok(rows)
    };

    // A repeated entry would collapse onto the first and shift every later
    // id onto the next entry's key, so each table takes new entries only.
    let duplicate = |n: usize, section: &str| err(n, format!("duplicated entry in [{section}]"));
    let rows = read_section(&mut lines, "labels")?;
    let mut labels = Interner::with_capacity(rows.len());
    for (n, l) in rows {
        labels
            .insert_new(&unescape(&l))
            .map_err(|_| duplicate(n, "labels"))?;
    }
    let rows = read_section(&mut lines, "vocabulary")?;
    let mut vocabulary = Interner::with_capacity(rows.len());
    for (n, l) in rows {
        vocabulary
            .insert_new(&unescape(&l))
            .map_err(|_| duplicate(n, "vocabulary"))?;
    }

    let rows = read_section(&mut lines, "paths")?;
    let mut paths = PathTable::with_capacity(rows.len());
    for (n, l) in rows {
        let symbols: Result<Vec<Symbol>, _> = l
            .split_whitespace()
            .map(|tok| tok.parse::<u32>().map(Symbol))
            .collect();
        let symbols = symbols.map_err(|_| err(n, "bad path symbol"))?;
        if let Some(label) = symbols.iter().find(|s| s.index() >= labels.len()) {
            return Err(out_of_range(
                n,
                "path label",
                label.0,
                "labels",
                labels.len(),
            ));
        }
        paths
            .insert_new(&symbols)
            .map_err(|_| duplicate(n, "paths"))?;
    }

    let mut items = Vec::new();
    for (n, l) in read_section(&mut lines, "items")? {
        let mut fields = l.split('\t');
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| err(n, format!("missing item field {what}")))
        };
        let path = PathId(next("path")?.parse().map_err(|_| err(n, "bad path id"))?);
        let tag_path = PathId(
            next("tag_path")?
                .parse()
                .map_err(|_| err(n, "bad tag path id"))?,
        );
        for (what, id) in [("path", path), ("tag path", tag_path)] {
            if id.index() >= paths.len() {
                return Err(out_of_range(n, what, id.0, "paths", paths.len()));
            }
        }
        let fingerprint: u64 = next("fingerprint")?
            .parse()
            .map_err(|_| err(n, "bad fingerprint"))?;
        let raw = unescape(next("raw")?);
        let term = |id: u32, what: &str| {
            if id as usize >= vocabulary.len() {
                return Err(out_of_range(n, what, id, "vocabulary", vocabulary.len()));
            }
            Ok(Symbol(id))
        };
        let terms: Result<Vec<Symbol>, PersistError> = next("terms")?
            .split_whitespace()
            .map(|tok| {
                let id = tok.parse::<u32>().map_err(|_| err(n, "bad term id"))?;
                term(id, "term")
            })
            .collect();
        let vector_field = next("vector")?;
        let mut pairs = Vec::new();
        for tok in vector_field.split_whitespace() {
            let (t, w) = tok
                .split_once(':')
                .ok_or_else(|| err(n, "bad vector entry"))?;
            let id: u32 = t.parse().map_err(|_| err(n, "bad vector term"))?;
            pairs.push((term(id, "vector term")?, parse_hex_f64(w, n)?));
        }
        items.push(Item {
            path,
            tag_path,
            raw: raw.into_boxed_str(),
            terms: terms?,
            vector: SparseVec::from_pairs(pairs),
            fingerprint,
        });
    }

    let mut transactions = Vec::new();
    let mut doc_of = Vec::new();
    for (n, l) in read_section(&mut lines, "transactions")? {
        let (doc, ids) = l
            .split_once('\t')
            .ok_or_else(|| err(n, "bad transaction line"))?;
        doc_of.push(doc.parse().map_err(|_| err(n, "bad doc index"))?);
        let ids: Result<Vec<ItemId>, PersistError> = ids
            .split_whitespace()
            .map(|tok| {
                let id = tok.parse::<u32>().map_err(|_| err(n, "bad item id"))?;
                if id as usize >= items.len() {
                    return Err(out_of_range(n, "item", id, "items", items.len()));
                }
                Ok(ItemId(id))
            })
            .collect();
        transactions.push(Transaction::new(ids?));
    }

    let (n, ts_line) = lines
        .next()
        .ok_or_else(|| err(usize::MAX, "missing [termstats]"))?;
    let ts_fields: Vec<&str> = ts_line.split('\t').collect();
    if ts_fields.len() != 3 || ts_fields[0] != "[termstats]" {
        return Err(err(n, "bad termstats line"));
    }
    let total_tcus: u64 = ts_fields[1]
        .parse()
        .map_err(|_| err(n, "bad termstats total"))?;
    let counts: Result<Vec<u64>, PersistError> = ts_fields[2]
        .split_whitespace()
        .map(|tok| tok.parse().map_err(|_| err(n, "bad termstats count")))
        .collect();
    let term_stats = TermStatsBuilder::from_parts(total_tcus, counts?);

    let (n, stats_line) = lines
        .next()
        .ok_or_else(|| err(usize::MAX, "missing [stats]"))?;
    let fields: Vec<&str> = stats_line.split('\t').collect();
    if fields.len() != 11 || fields[0] != "[stats]" {
        return Err(err(n, "bad stats line"));
    }
    let num = |i: usize| -> Result<usize, PersistError> {
        fields[i].parse().map_err(|_| err(n, "bad stats value"))
    };
    let stats = DatasetStats {
        documents: num(1)?,
        transactions: num(2)?,
        items: num(3)?,
        vocabulary: num(4)?,
        complete_paths: num(5)?,
        tag_paths: num(6)?,
        max_transaction_len: num(7)?,
        max_tcu_nnz: num(8)?,
        total_tcus: num(9)? as u64,
        max_depth: num(10)?,
    };

    // Rebuild the derived similarity table.
    let mut tag_paths: Vec<PathId> = items.iter().map(|i| i.tag_path).collect();
    tag_paths.sort_unstable();
    tag_paths.dedup();
    let tag_sim = TagPathSimTable::build(&tag_paths, &paths);

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

    #[test]
    fn round_trip_preserves_everything() {
        let ds = sample_dataset();
        let text = save(&ds);
        let loaded = load(&text).expect("loads");
        assert_eq!(loaded.items.len(), ds.items.len());
        assert_eq!(loaded.transactions.len(), ds.transactions.len());
        assert_eq!(loaded.doc_of, ds.doc_of);
        assert_eq!(loaded.stats.documents, ds.stats.documents);
        assert_eq!(loaded.stats.total_tcus, ds.stats.total_tcus);
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
        // Interners resolve identically.
        for (sym, text) in ds.vocabulary.iter() {
            assert_eq!(loaded.vocabulary.resolve(sym), text);
        }
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
    fn escaping_round_trips_hostile_text() {
        for text in ["a\tb", "line\nbreak", "back\\slash", "\\n literal", ""] {
            assert_eq!(unescape(&escape(text)), text);
        }
    }

    #[test]
    fn rejects_bad_header() {
        let e = load("not a dataset").unwrap_err();
        assert!(e.message.contains("bad header"));
    }

    #[test]
    fn rejects_truncation() {
        let ds = sample_dataset();
        let text = save(&ds);
        let truncated: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(load(&truncated).is_err());
    }

    #[test]
    fn rejects_corrupted_item_line() {
        let ds = sample_dataset();
        let text = save(&ds);
        let corrupted = text.replacen("[items]", "[items] ", 1); // breaks count parse
        assert!(load(&corrupted).is_err());
    }

    #[test]
    fn rejects_a_duplicated_entry_with_its_line() {
        let text = save(&sample_dataset());
        let lines: Vec<&str> = text.lines().collect();
        for section in ["labels", "vocabulary", "paths"] {
            // Overwrite the section's second entry with its first.
            let head = lines
                .iter()
                .position(|l| l.starts_with(&format!("[{section}] ")))
                .expect("section present");
            let mut patched = lines.clone();
            patched[head + 2] = lines[head + 1];
            let e = load(&patched.join("\n")).unwrap_err();
            assert_eq!(e.line, head + 3, "{section}: {e}");
            assert!(e.message.contains(&format!("[{section}]")), "{e}");
        }
    }

    /// `text` with field `field` (tab-separated) of the first line of
    /// `section` replaced by `value`, and that line's 1-based number.
    fn patch_field(text: &str, section: &str, field: usize, value: &str) -> (String, usize) {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let head = lines
            .iter()
            .position(|l| l.starts_with(&format!("[{section}] ")))
            .expect("section present");
        let mut fields: Vec<String> = lines[head + 1].split('\t').map(str::to_string).collect();
        fields[field] = value.to_string();
        lines[head + 1] = fields.join("\t");
        (lines.join("\n"), head + 2)
    }

    /// Loading the sample dataset with `value` in field `field` of the
    /// first line of `section` fails at that line, naming the id.
    fn assert_rejected(section: &str, field: usize, value: &str, what: &str) {
        let (patched, line) = patch_field(&save(&sample_dataset()), section, field, value);
        let e = load(&patched).expect_err(what);
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.starts_with(what), "{e}");
    }

    #[test]
    fn rejects_an_out_of_range_tag_path() {
        assert_rejected("items", 1, "999999", "tag path id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_path() {
        assert_rejected("items", 0, "999999", "path id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_path_label() {
        assert_rejected("paths", 0, "0 999999", "path label id 999999");
    }

    #[test]
    fn rejects_an_out_of_range_term() {
        assert_rejected("items", 4, "999999", "term id 999999");
        assert_rejected(
            "items",
            5,
            "999999:3ff0000000000000",
            "vector term id 999999",
        );
    }

    #[test]
    fn rejects_an_out_of_range_item() {
        assert_rejected("transactions", 1, "0 999999", "item id 999999");
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = DatasetBuilder::new(BuildOptions::default()).finish();
        let loaded = load(&save(&ds)).unwrap();
        assert_eq!(loaded.items.len(), 0);
        assert_eq!(loaded.transactions.len(), 0);
    }
}
