//! Text preprocessing substrate for `cxkmeans`.
//!
//! The paper's content similarity (§4.1.2) operates on *textual content
//! units* (TCUs): the preprocessed text of a tree tuple item — a `#PCDATA`
//! value or an attribute value. Preprocessing follows the standard IR recipe
//! the paper cites (\[7\]): lexical analysis, stopword removal and stemming.
//! This crate provides:
//!
//! * [`mod@tokenize`] — lexical analysis (lowercasing, alphanumeric token
//!   extraction).
//! * [`stopwords`] — a standard English stopword list.
//! * [`porter`] — a full implementation of the Porter (1980) stemmer.
//! * [`pipeline`] — the composed TCU preprocessing pipeline producing
//!   interned term sequences, or known-term sequences over a frozen
//!   vocabulary.
//! * [`sparse`] — sorted sparse vectors with dot product, norms and the
//!   cosine similarity used for `sim_C`.
//! * [`weighting`] — the `ttf.itf` term weighting function (§4.1.2).

#![warn(missing_docs)]

pub mod pipeline;
pub mod porter;
pub mod sparse;
pub mod stopwords;
pub mod tokenize;
pub mod weighting;

pub use pipeline::{preprocess, preprocess_known, PipelineOptions};
pub use porter::stem;
pub use sparse::SparseVec;
pub use stopwords::is_stopword;
pub use tokenize::tokenize;
pub use weighting::{ttf_itf, TermStatsBuilder};
