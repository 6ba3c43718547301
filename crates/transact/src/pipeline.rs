//! The document pipeline of Fig. 1(b), once: SAX events → tree tuples
//! (§3.2) → preprocessed leaves → `ttf.itf`-weighted items keyed by
//! `(complete path, answer)` (§3.3, §4.1.2).
//!
//! Training, the stream clusterer and every serving request read a
//! document in two steps: [`DocumentPipeline::parse`] (or `parse_streamed`
//! for one document of a stream) makes a [`ParsedDocument`], and
//! [`ParsedDocument::weigh`] weights its item occurrences into an
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

use crate::dataset::BuildOptions;
use crate::item::{item_fingerprint, Item, ItemId};
use cxk_text::{preprocess, preprocess_known, ttf_itf, SparseVec, TermStatsBuilder};
use cxk_util::{FxHashMap, Interner, Symbol};
use cxk_xml::parser::XmlError;
use cxk_xml::path::{PathId, PathTable};
use cxk_xml::sax::{extract_document, StreamedDocument};

/// One leaf occurrence inside a document, preprocessed.
#[derive(Debug, Clone)]
pub struct ParsedLeaf {
    /// The complete path.
    pub path: PathId,
    /// The tag path: the complete path minus its attribute or `S` label.
    pub tag_path: PathId,
    /// The raw answer.
    pub raw: String,
    /// The preprocessed TCU terms, duplicates preserved.
    pub terms: Vec<Symbol>,
}

impl ParsedLeaf {
    /// The leaf's item key, `(complete path, answer)`.
    pub fn key(&self) -> (PathId, Box<str>) {
        (self.path, self.raw.as_str().into())
    }

    /// A new domain item for this leaf; its vector is left empty for
    /// [`ItemWeights`] to fill.
    pub fn item(&self) -> Item {
        Item {
            path: self.path,
            tag_path: self.tag_path,
            raw: self.raw.as_str().into(),
            terms: self.terms.clone(),
            vector: SparseVec::new(),
            fingerprint: item_fingerprint(self.path, &self.raw),
        }
    }
}

/// One document after parsing, tuple extraction and preprocessing: the
/// form every caller weights.
#[derive(Debug, Clone)]
pub struct ParsedDocument {
    leaves: Vec<ParsedLeaf>,
    /// Tree tuples as ascending indices into `leaves`.
    tuples: Vec<Vec<u32>>,
    /// `n_{j,XT}`: the document's TCUs containing each term.
    term_doc_counts: FxHashMap<Symbol, u32>,
    depth: usize,
    capped: bool,
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
        let doc = extract_document(xml, self.labels, &self.options.parse, &self.options.limits)?;
        Ok(self.parse_streamed(doc))
    }

    /// The rest of [`Self::parse`], for a document an extractor pulled off
    /// a stream into this pipeline's labels. Paths are interned leaf by
    /// leaf (complete, then tag path), terms in leaf order.
    pub(crate) fn parse_streamed(&mut self, doc: StreamedDocument) -> ParsedDocument {
        let mut term_doc_counts: FxHashMap<Symbol, u32> = FxHashMap::default();
        let mut leaves = Vec::with_capacity(doc.leaves.len());
        for leaf in doc.leaves {
            let path = self.paths.intern(&leaf.path);
            let tag = leaf.path.split_last().map_or(&[][..], |(_, tag)| tag);
            let tag_path = self.paths.intern(tag);
            let pipeline = &self.options.pipeline;
            let terms = match &mut self.terms {
                Terms::Join { vocabulary, .. } => preprocess(&leaf.value, vocabulary, pipeline),
                Terms::Frozen(vocabulary) => preprocess_known(&leaf.value, vocabulary, pipeline),
            };
            let mut distinct = terms.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if let Terms::Join { stats, .. } = &mut self.terms {
                stats.add_tcu(&distinct);
            }
            for &t in &distinct {
                *term_doc_counts.entry(t).or_insert(0) += 1;
            }
            leaves.push(ParsedLeaf {
                path,
                tag_path,
                raw: leaf.value,
                terms,
            });
        }
        ParsedDocument {
            leaves,
            tuples: doc.tuples,
            term_doc_counts,
            depth: doc.depth,
            capped: doc.capped,
        }
    }
}

impl ParsedDocument {
    /// The leaves, in document order.
    pub fn leaves(&self) -> &[ParsedLeaf] {
        &self.leaves
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether tuple enumeration hit `TupleLimits::max_tuples_per_tree`.
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// Weighs every item occurrence — tuple by tuple, leaf by leaf — with
    /// `ttf.itf` against `stats`, adding it to `weights`. `item_of` names
    /// each occurrence's item, creating it on first sight; occurrences of
    /// items below `weights`' first id are not weighed. Returns each
    /// tuple's items, in leaf order.
    pub fn weigh(
        &self,
        stats: &TermStatsBuilder,
        weights: &mut ItemWeights,
        mut item_of: impl FnMut(&ParsedLeaf) -> ItemId,
    ) -> Vec<Vec<ItemId>> {
        let n_xt = self.leaves.len() as u32;
        let n_t = stats.total_tcus();
        let term_freqs: Vec<Vec<(Symbol, u32)>> = self
            .leaves
            .iter()
            .map(|leaf| term_frequencies(&leaf.terms))
            .collect();
        self.tuples
            .iter()
            .map(|tuple| {
                let n_tau = tuple.len() as u32;
                // n_{j,τ}: the tuple's TCUs containing each term.
                let mut tuple_counts: FxHashMap<Symbol, u32> = FxHashMap::default();
                for &leaf in tuple {
                    for &(term, _) in &term_freqs[leaf as usize] {
                        *tuple_counts.entry(term).or_insert(0) += 1;
                    }
                }
                tuple
                    .iter()
                    .map(|&leaf| {
                        let id = item_of(&self.leaves[leaf as usize]);
                        if let Some(sums) = weights.occurrence(id) {
                            for &(term, tf) in &term_freqs[leaf as usize] {
                                let nj_tau = tuple_counts.get(&term).copied().unwrap_or(0);
                                let nj_xt = self.term_doc_counts.get(&term).copied().unwrap_or(0);
                                let nj_t = stats.tcus_containing(term);
                                let w = ttf_itf(tf, nj_tau, n_tau, nj_xt, n_xt, nj_t, n_t);
                                *sums.entry(term).or_insert(0.0) += w;
                            }
                        }
                        id
                    })
                    .collect()
            })
            .collect()
    }
}

/// A TCU's distinct terms, ascending, each with its frequency in the TCU.
fn term_frequencies(terms: &[Symbol]) -> Vec<(Symbol, u32)> {
    let mut sorted = terms.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(Symbol, u32)> = Vec::with_capacity(sorted.len());
    for term in sorted {
        match out.last_mut() {
            Some((last, tf)) if *last == term => *tf += 1,
            _ => out.push((term, 1)),
        }
    }
    out
}

/// Per-item sums of occurrence weights, and occurrence counts, over one
/// averaging scope, for the items numbered from a first id up.
#[derive(Debug, Default)]
pub struct ItemWeights {
    first: usize,
    sums: Vec<(FxHashMap<Symbol, f64>, u32)>,
}

impl ItemWeights {
    /// Weights for items `first` and up; lower-numbered items keep the
    /// vectors they have. [`ItemWeights::default`] starts at item 0.
    pub fn from_item(first: ItemId) -> Self {
        Self {
            first: first.index(),
            sums: Vec::new(),
        }
    }

    /// Counts one occurrence of `id` and returns its sums, or `None` for
    /// an item below the first.
    fn occurrence(&mut self, id: ItemId) -> Option<&mut FxHashMap<Symbol, f64>> {
        let slot = id.index().checked_sub(self.first)?;
        if slot >= self.sums.len() {
            self.sums.resize_with(slot + 1, Default::default);
        }
        let (sums, occurrences) = &mut self.sums[slot];
        *occurrences += 1;
        Some(sums)
    }

    /// The averaged vectors of items `first..`, in id order: every
    /// (item, term) sum divided once by the item's occurrence count.
    pub fn into_vectors(self) -> impl Iterator<Item = SparseVec> {
        self.sums.into_iter().map(|(sums, occurrences)| {
            let n = f64::from(occurrences.max(1));
            SparseVec::from_pairs(sums.into_iter().map(|(t, w)| (t, w / n)).collect())
        })
    }
}
