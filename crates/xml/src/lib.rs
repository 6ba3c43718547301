//! XML substrate for `cxkmeans`.
//!
//! The paper models an XML document as a pair `XT = ⟨T, δ⟩` where `T` is a
//! rooted labelled tree over the alphabet `Tag ∪ Att ∪ {S}` and `δ` maps leaf
//! nodes (attributes and `#PCDATA` placeholders, labelled `S`) to strings
//! (§3.1). This crate provides:
//!
//! * [`parser`] — a non-validating XML 1.0 subset parser producing
//!   [`tree::XmlTree`]s (elements, attributes, text, CDATA, comments,
//!   processing instructions, numeric/named entities).
//! * [`tree`] — the arena-based `⟨T, δ⟩` tree model.
//! * [`path`] — XML paths (tag paths and complete paths), path application
//!   and answers, the `P_XT` / `TP_XT` path sets and tree depth (§3.1).
//! * [`mod@tuple`] — tree-tuple extraction: the maximal subtrees in which every
//!   path has at most one answer (§3.2), matching the worked example of
//!   Figs. 2–3 of the paper.
//! * [`mod@write`] — serialization back to XML text (used for round-trip
//!   property tests and by the corpus generators).
//! * [`sax`] — pull-based streaming parsing and tuple extraction over any
//!   [`std::io::BufRead`], for corpora larger than RAM, and
//!   [`sax::extract_document`], the single-document route every production
//!   path reads documents through. The DOM route ([`parser`] → [`mod@tuple`])
//!   stays as the oracle the equivalence tests compare it with.

#![warn(missing_docs)]

pub mod parser;
pub mod path;
pub mod sax;
pub mod tree;
pub mod tuple;
pub mod write;

pub use parser::{parse_document, ParseOptions, XmlError};
pub use path::{LabelPath, PathAnswer, PathTable};
pub use sax::{
    extract_document, extract_document_into, ExtractedDocument, IngestStats, LeafRef, SaxEvent,
    SaxReader, SaxScratch, StreamedDocument, StreamedLeaf, StreamingTupleExtractor,
};
pub use tree::{NodeId, NodeKind, XmlTree};
pub use tuple::{count_tree_tuples, extract_tree_tuples, TreeTuple, TupleLimits};
