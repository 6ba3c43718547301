//! The document pipeline of Fig. 1(b), once: SAX events → tree tuples
//! (§3.2) → preprocessed leaves → `ttf.itf`-weighted items keyed by
//! `(complete path, answer)` (§3.3, §4.1.2).
//!
//! Training, the stream clusterer and every serving request read a
//! document in two steps: [`DocumentPipeline::parse`] (or
//! [`DocumentPipeline::parse_into`], which reuses a caller's buffers)
//! makes a [`ParsedDocument`], and [`ParsedDocument::weigh`] (or
//! [`ParsedDocument::weigh_each`]) weights its item occurrences into an
//! [`ItemWeights`]. The term statistics are all the callers set, in two
//! choices:
//!
//! * **Do the document's TCUs join the statistics first?** That is the
//!   pipeline's [`Terms`]. Training (live) and streaming (arrival-time)
//!   [`Terms::Join`] theirs, interning every term. Serving reads the
//!   model's statistics [`Terms::Frozen`]: a term the model's vocabulary
//!   does not hold has `n_{j,T} = 0` and would weigh 0, so it is dropped
//!   at preprocessing and the vocabulary is only read.
//! * **Over what scope is an item's weight averaged?** One `ItemWeights`
//!   for the whole collection when training; one per pushed document,
//!   from the first item it is first to show, when streaming; one per
//!   request when serving.
//!
//! An item receives the **average** of its per-occurrence `ttf.itf`
//! weights: the paper weights a term per occurrence (`w_j` in `u_i` *with
//! respect to τ*) but gives an item one vector. Each (item, term) sum runs
//! in occurrence order — document, tuple, leaf — and is divided once.
//!
//! # Buffers
//!
//! A parsed document is flat: the extracted leaves and tuples
//! ([`ExtractedDocument`]), each leaf's path ids, and every leaf's terms
//! back to back. Weighing keeps its per-leaf term frequencies, per-tuple
//! term counts and per-item sums in flat buffers inside [`ItemWeights`]:
//! an item's sums are one run of `(term, sum)` entries, laid out at its
//! first occurrence (every occurrence of an item has the item's answer,
//! hence its terms). A caller that keeps a [`ReadScratch`], a
//! `ParsedDocument` and an `ItemWeights` — a serving session — reads and
//! weighs a document like the ones before it without allocating.

use crate::dataset::BuildOptions;
use crate::item::{item_fingerprint, Item, ItemId};
use cxk_text::{ttf_itf, Preprocessor, SparseVec, TermStatsBuilder};
use cxk_util::{ArenaTable, Interner, Symbol};
use cxk_xml::parser::XmlError;
use cxk_xml::path::{PathId, PathTable};
use cxk_xml::sax::{extract_document_into, ExtractedDocument, SaxScratch};

/// One leaf occurrence inside a [`ParsedDocument`], preprocessed.
#[derive(Debug, Clone, Copy)]
pub struct ParsedLeaf<'a> {
    /// The complete path.
    pub path: PathId,
    /// The tag path: the complete path minus its attribute or `S` label.
    pub tag_path: PathId,
    /// The raw answer.
    pub raw: &'a str,
    /// The preprocessed TCU terms, duplicates preserved.
    pub terms: &'a [Symbol],
}

impl ParsedLeaf<'_> {
    /// A new domain item for this leaf; its vector is left empty for
    /// [`ItemWeights`] to fill.
    pub fn item(&self) -> Item {
        Item {
            path: self.path,
            tag_path: self.tag_path,
            raw: self.raw.into(),
            terms: self.terms.to_vec(),
            vector: SparseVec::new(),
            fingerprint: item_fingerprint(self.path, self.raw),
        }
    }
}

/// One document after parsing, tuple extraction and preprocessing: the
/// form every caller weights (see the module docs for its layout).
#[derive(Debug, Clone, Default)]
pub struct ParsedDocument {
    /// Leaves (answers in document order) and tuples.
    pub(crate) extracted: ExtractedDocument,
    /// Per leaf: its complete path, its tag path, and where its terms end
    /// in `terms`.
    leaves: Vec<(PathId, PathId, usize)>,
    /// Every leaf's preprocessed terms, back to back.
    terms: Vec<Symbol>,
    /// `n_{j,XT}`: the document's TCUs containing each term, ascending by
    /// term.
    term_doc_counts: Vec<(Symbol, u32)>,
}

/// The buffers reading a document reuses: the SAX extractor's, the
/// preprocessor's (with its token memo, when the vocabulary is frozen)
/// and a TCU's distinct terms. Keep one per vocabulary.
#[derive(Debug, Default)]
pub struct ReadScratch {
    sax: SaxScratch,
    text: Preprocessor,
    distinct: Vec<Symbol>,
}

impl ReadScratch {
    /// The preprocessor, whose memo a frozen read fills.
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.text
    }
}

/// The pipeline over one set of symbol tables: the options a document is
/// read with and the tables its symbols land in.
pub struct DocumentPipeline<'a> {
    /// Parse, preprocessing and tuple-cap options.
    pub options: &'a BuildOptions,
    /// Tags, attribute names and `S`.
    pub labels: &'a mut Interner,
    /// Complete and tag paths.
    pub paths: &'a mut PathTable,
    /// The vocabulary, and whether the document joins the statistics.
    pub terms: Terms<'a>,
}

/// How a [`DocumentPipeline`] treats terms. A vocabulary grows only
/// together with the statistics its terms are weighted against.
pub enum Terms<'a> {
    /// Intern every term into `vocabulary`, and add each of the document's
    /// TCUs to `stats` (training and streaming).
    Join {
        /// The vocabulary, grown by unseen terms.
        vocabulary: &'a mut Interner,
        /// The statistics the document joins.
        stats: &'a mut TermStatsBuilder,
    },
    /// Keep only the terms this vocabulary holds (serving against a model).
    Frozen(&'a Interner),
}

impl DocumentPipeline<'_> {
    /// Reads one XML document. Accepts and rejects exactly what
    /// `cxk_xml::parse_document` does; a rejected document leaves the
    /// vocabulary, the path table and the statistics untouched (only
    /// labels met before the error are interned).
    pub fn parse(&mut self, xml: &str) -> Result<ParsedDocument, XmlError> {
        let mut doc = ParsedDocument::default();
        self.parse_into(xml, &mut ReadScratch::default(), &mut doc)?;
        Ok(doc)
    }

    /// [`Self::parse`] into `doc`, reusing its buffers and `scratch`'s.
    /// `scratch` must only ever read against this pipeline's vocabulary
    /// (its memo remembers a frozen vocabulary's symbols). On error `doc`
    /// holds an unspecified part of the document.
    pub fn parse_into(
        &mut self,
        xml: &str,
        scratch: &mut ReadScratch,
        doc: &mut ParsedDocument,
    ) -> Result<(), XmlError> {
        let (parse, limits) = (&self.options.parse, &self.options.limits);
        extract_document_into(
            xml,
            self.labels,
            parse,
            limits,
            &mut scratch.sax,
            &mut doc.extracted,
        )?;
        self.read_leaves(scratch, doc);
        Ok(())
    }

    /// The rest of [`Self::parse_into`], for a document already extracted
    /// into `doc` with this pipeline's labels. Paths are interned leaf by
    /// leaf (complete, then tag path), terms in leaf order.
    pub(crate) fn read_leaves(&mut self, scratch: &mut ReadScratch, doc: &mut ParsedDocument) {
        doc.leaves.clear();
        doc.terms.clear();
        doc.term_doc_counts.clear();
        let options = &self.options.pipeline;
        for leaf in doc.extracted.leaves() {
            let path = self.paths.intern(leaf.path);
            let tag = leaf.path.split_last().map_or(&[][..], |(_, tag)| tag);
            let tag_path = self.paths.intern(tag);
            let start = doc.terms.len();
            match &mut self.terms {
                Terms::Join { vocabulary, .. } => {
                    scratch
                        .text
                        .intern(leaf.value, vocabulary, options, &mut doc.terms)
                }
                Terms::Frozen(vocabulary) => {
                    scratch
                        .text
                        .known(leaf.value, vocabulary, options, &mut doc.terms)
                }
            }
            let distinct = &mut scratch.distinct;
            distinct.clear();
            distinct.extend_from_slice(&doc.terms[start..]);
            distinct.sort_unstable();
            distinct.dedup();
            if let Terms::Join { stats, .. } = &mut self.terms {
                stats.add_tcu(distinct);
            }
            doc.term_doc_counts.extend(distinct.iter().map(|&t| (t, 1)));
            doc.leaves.push((path, tag_path, doc.terms.len()));
        }
        doc.term_doc_counts.sort_unstable_by_key(|&(term, _)| term);
        doc.term_doc_counts.dedup_by(|next, run| {
            let same = next.0 == run.0;
            if same {
                run.1 += next.1;
            }
            same
        });
    }
}

impl ParsedDocument {
    /// The leaves, in document order.
    pub fn leaves(&self) -> impl ExactSizeIterator<Item = ParsedLeaf<'_>> + Clone + '_ {
        let mut start = 0;
        self.leaves.iter().zip(self.extracted.leaves()).map(
            move |(&(path, tag_path, end), leaf)| {
                let terms = &self.terms[start..end];
                start = end;
                ParsedLeaf {
                    path,
                    tag_path,
                    raw: leaf.value,
                    terms,
                }
            },
        )
    }

    /// Leaf `index`, if there is one.
    fn leaf(&self, index: usize) -> Option<ParsedLeaf<'_>> {
        let &(path, tag_path, end) = self.leaves.get(index)?;
        let start = index.checked_sub(1).map_or(0, |prev| self.leaves[prev].2);
        Some(ParsedLeaf {
            path,
            tag_path,
            raw: self.extracted.leaf(index)?.value,
            terms: &self.terms[start..end],
        })
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.extracted.depth()
    }

    /// Whether tuple enumeration hit `TupleLimits::max_tuples_per_tree`.
    pub fn capped(&self) -> bool {
        self.extracted.capped()
    }

    /// Weighs every item occurrence — tuple by tuple, leaf by leaf — with
    /// `ttf.itf` against `stats`, adding it to `weights`. `item_of` names
    /// each occurrence's item, creating it on first sight; the leaves it
    /// gives one id must have equal terms, as leaves with one
    /// `(path, answer)` key ([`ItemKeys`]) do. Occurrences of items below
    /// `weights`' first id are not weighed. Returns each tuple's items, in
    /// leaf order.
    pub fn weigh(
        &self,
        stats: &TermStatsBuilder,
        weights: &mut ItemWeights,
        item_of: impl FnMut(&ParsedLeaf<'_>) -> ItemId,
    ) -> Vec<Vec<ItemId>> {
        let mut tuples = Vec::with_capacity(self.extracted.tuples().len());
        self.weigh_each(stats, weights, item_of, |ids| tuples.push(ids.to_vec()));
        tuples
    }

    /// [`Self::weigh`], handing each tuple's items to `each_tuple` in
    /// turn instead of collecting them.
    pub fn weigh_each(
        &self,
        stats: &TermStatsBuilder,
        weights: &mut ItemWeights,
        mut item_of: impl FnMut(&ParsedLeaf<'_>) -> ItemId,
        mut each_tuple: impl FnMut(&[ItemId]),
    ) {
        let n_xt = self.leaves.len() as u32;
        let n_t = stats.total_tcus();
        let ItemWeights { sums, scratch } = weights;
        scratch.frequencies(self.leaves().map(|leaf| leaf.terms));
        for tuple in self.extracted.tuples() {
            let n_tau = tuple.len() as u32;
            // n_{j,τ}: the tuple's TCUs containing each term.
            scratch.count_tuple_terms(tuple);
            scratch.ids.clear();
            for &index in tuple {
                let Some(leaf) = self.leaf(index as usize) else {
                    continue;
                };
                let id = item_of(&leaf);
                scratch.ids.push(id);
                let freqs = scratch.leaf_frequencies(index as usize);
                let Some(entries) = sums.occurrence(id, freqs) else {
                    continue;
                };
                // The item's entries hold its terms in `freqs`' order.
                for (&(term, tf), (entry, sum)) in freqs.iter().zip(entries) {
                    debug_assert_eq!(term, *entry, "one item, one set of terms");
                    let nj_tau = count_of(&scratch.tuple_counts, term);
                    let nj_xt = count_of(&self.term_doc_counts, term);
                    let nj_t = stats.tcus_containing(term);
                    *sum += ttf_itf(tf, nj_tau, n_tau, nj_xt, n_xt, nj_t, n_t);
                }
            }
            each_tuple(&scratch.ids);
        }
    }
}

/// The count `counts` (ascending by term) holds for `term`, or 0.
fn count_of(counts: &[(Symbol, u32)], term: Symbol) -> u32 {
    counts
        .binary_search_by_key(&term, |&(t, _)| t)
        .map_or(0, |i| counts[i].1)
}

/// Per-item sums of occurrence weights, and occurrence counts, over one
/// averaging scope, for the items numbered from a first id up; plus the
/// buffers weighing reuses (see the module docs).
#[derive(Debug, Default)]
pub struct ItemWeights {
    sums: ItemSums,
    scratch: WeighScratch,
}

/// The sums of [`ItemWeights`]: per item, one run of `(term, sum)`
/// entries ascending by term, and its occurrence count.
#[derive(Debug, Default)]
struct ItemSums {
    first: usize,
    /// Per item from `first`: where its entries start and end in
    /// `entries` (empty until its first occurrence), and its occurrences.
    items: Vec<(usize, usize, u32)>,
    entries: Vec<(Symbol, f64)>,
}

impl ItemSums {
    /// Counts one occurrence of `id`, whose leaf has the term frequencies
    /// `freqs`, and returns its entries, or `None` for an item below the
    /// first. An item's entries are laid out at its first occurrence.
    fn occurrence(&mut self, id: ItemId, freqs: &[(Symbol, u32)]) -> Option<&mut [(Symbol, f64)]> {
        let slot = id.index().checked_sub(self.first)?;
        if slot >= self.items.len() {
            self.items.resize(slot + 1, (0, 0, 0));
        }
        let (start, end, occurrences) = &mut self.items[slot];
        if *occurrences == 0 {
            *start = self.entries.len();
            self.entries
                .extend(freqs.iter().map(|&(term, _)| (term, 0.0)));
            *end = self.entries.len();
        }
        *occurrences += 1;
        self.entries.get_mut(*start..*end)
    }

    /// Item `slot`'s averaged entries: every (item, term) sum divided once
    /// by the item's occurrence count.
    fn averaged(&self, slot: usize) -> impl Iterator<Item = (Symbol, f64)> + '_ {
        let (start, end, occurrences) = self.items.get(slot).copied().unwrap_or_default();
        let n = f64::from(occurrences.max(1));
        self.entries[start..end]
            .iter()
            .map(move |&(t, w)| (t, w / n))
    }
}

/// The per-document buffers of [`ParsedDocument::weigh_each`].
#[derive(Debug, Default)]
struct WeighScratch {
    /// Every leaf's distinct terms, ascending, each with its frequency in
    /// the leaf.
    freqs: Vec<(Symbol, u32)>,
    /// Where each leaf's frequencies end in `freqs`.
    freq_ends: Vec<usize>,
    /// The current tuple's `n_{j,τ}`, ascending by term.
    tuple_counts: Vec<(Symbol, u32)>,
    /// The current tuple's items.
    ids: Vec<ItemId>,
}

impl WeighScratch {
    /// Fills `freqs` with each leaf's term frequencies.
    fn frequencies<'a>(&mut self, leaves: impl Iterator<Item = &'a [Symbol]>) {
        self.freqs.clear();
        self.freq_ends.clear();
        for terms in leaves {
            let start = self.freqs.len();
            self.freqs.extend(terms.iter().map(|&t| (t, 1)));
            self.freqs[start..].sort_unstable_by_key(|&(t, _)| t);
            let mut end = start;
            for read in start..self.freqs.len() {
                let (term, _) = self.freqs[read];
                match end.checked_sub(1).filter(|&last| last >= start) {
                    Some(last) if self.freqs[last].0 == term => self.freqs[last].1 += 1,
                    _ => {
                        self.freqs[end] = (term, 1);
                        end += 1;
                    }
                }
            }
            self.freqs.truncate(end);
            self.freq_ends.push(end);
        }
    }

    /// Leaf `index`'s term frequencies.
    fn leaf_frequencies(&self, index: usize) -> &[(Symbol, u32)] {
        let start = index.checked_sub(1).map_or(0, |prev| self.freq_ends[prev]);
        &self.freqs[start..self.freq_ends[index]]
    }

    /// Fills `tuple_counts` with the number of `tuple`'s leaves containing
    /// each term.
    fn count_tuple_terms(&mut self, tuple: &[u32]) {
        self.tuple_counts.clear();
        for &leaf in tuple {
            let start = (leaf as usize)
                .checked_sub(1)
                .map_or(0, |prev| self.freq_ends[prev]);
            let freqs = &self.freqs[start..self.freq_ends[leaf as usize]];
            self.tuple_counts.extend(freqs.iter().map(|&(t, _)| (t, 1)));
        }
        self.tuple_counts.sort_unstable_by_key(|&(t, _)| t);
        self.tuple_counts.dedup_by(|next, run| {
            let same = next.0 == run.0;
            if same {
                run.1 += next.1;
            }
            same
        });
    }
}

impl ItemWeights {
    /// Starts a new averaging scope for items `first` and up, keeping the
    /// buffers; lower-numbered items keep the vectors they have.
    /// [`ItemWeights::default`] starts at item 0.
    pub fn reset(&mut self, first: ItemId) {
        self.sums.first = first.index();
        self.sums.items.clear();
        self.sums.entries.clear();
    }

    /// Writes item `id`'s averaged vector into `vector`, reusing its
    /// buffers: every (item, term) sum divided once by the item's
    /// occurrence count. An item below the first, or never weighed, gets
    /// the empty vector.
    pub fn vector_into(&self, id: ItemId, vector: &mut SparseVec) {
        let slot = id.index().checked_sub(self.sums.first);
        vector.assign_sorted(slot.into_iter().flat_map(|slot| self.sums.averaged(slot)));
    }

    /// The averaged vectors of items `first..`, in id order.
    pub fn into_vectors(self) -> impl Iterator<Item = SparseVec> {
        (0..self.sums.items.len()).map(move |slot| {
            let mut vector = SparseVec::new();
            vector.assign_sorted(self.sums.averaged(slot));
            vector
        })
    }
}

/// Item ids keyed by `(complete path, answer)`, dense in first-seen
/// order. The keys sit back to back in one arena ([`ArenaTable`]), so a
/// table cleared and refilled with a document's items allocates nothing
/// once it has held as many.
#[derive(Debug, Default, Clone)]
pub struct ItemKeys {
    table: ArenaTable<Vec<u8>>,
    /// The key being looked up: the path id's bytes, then the answer's.
    key: Vec<u8>,
}

impl ItemKeys {
    /// The id of the item `(path, raw)`, numbering it next when it is new;
    /// `true` when it is.
    pub fn id(&mut self, path: PathId, raw: &str) -> (ItemId, bool) {
        self.key.clear();
        self.key.extend_from_slice(&path.0.to_le_bytes());
        self.key.extend_from_slice(raw.as_bytes());
        match self.table.insert_new(&self.key) {
            Ok(id) => (ItemId(id), true),
            Err(id) => (ItemId(id), false),
        }
    }

    /// Forgets every item, keeping the buffers.
    pub fn clear(&mut self) {
        self.table.clear();
    }
}
