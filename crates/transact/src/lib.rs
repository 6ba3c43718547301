//! The XML transactional model and similarity measures of the paper.
//!
//! Tree tuples (extracted by `cxk_xml`) are flattened into *XML
//! transactions*: sets of *tree tuple items* `⟨complete-path, answer⟩`
//! (§3.3, Fig. 4). Items embed both structure (the tag path) and content
//! (the `ttf.itf`-weighted TCU vector of the answer text).
//!
//! Modules:
//!
//! * [`item`] — items, the deduplicated item domain, item views.
//! * [`transaction`] — transactions as sorted item-id sets.
//! * [`pipeline`] — the one document pipeline training, streaming and
//!   serving share: SAX events → tree tuples → preprocessed leaves →
//!   `ttf.itf`-weighted items, with the term statistics as the only thing
//!   the callers set.
//! * [`dataset`] — [`dataset::DatasetBuilder`]: XML documents → tree tuples →
//!   transactions, with collection-wide `ttf.itf` vectorization.
//! * [`pathsim`] — structural similarity `sim_S` between tag paths (Eq. 3)
//!   and the precomputed pairwise tag-path table the paper's complexity
//!   analysis calls for (§4.3.2).
//! * [`itemsim`] — the combined item similarity `sim` (Eq. 1) and
//!   γ-matching (Eq. 2).
//! * [`txsim`] — the enhanced intersection `matchγ` and the transaction
//!   similarity `simγJ` (Eq. 4), scored by a prepared kernel over
//!   [`PreparedSlab`]s.
//!
//! # Example
//!
//! ```
//! use cxk_transact::{sim_gamma_j, BuildOptions, DatasetBuilder, SimParams};
//!
//! let mut builder = DatasetBuilder::new(BuildOptions::default());
//! builder.add_xml(r#"<dblp><inproceedings key="x"><author>A</author>
//!     <title>tree mining</title><booktitle>KDD</booktitle></inproceedings></dblp>"#)?;
//! builder.add_xml(r#"<dblp><inproceedings key="y"><author>B</author>
//!     <title>tree mining patterns</title><booktitle>KDD</booktitle></inproceedings></dblp>"#)?;
//! let dataset = builder.finish();
//!
//! let ctx = dataset.sim_ctx(SimParams::new(0.5, 0.5));
//! let s = sim_gamma_j(
//!     &ctx,
//!     &dataset.views(&dataset.transactions[0]),
//!     &dataset.views(&dataset.transactions[1]),
//! );
//! assert!(s > 0.3, "same venue and overlapping titles: simγJ = {s}");
//! # Ok::<(), cxk_xml::parser::XmlError>(())
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod item;
pub mod itemsim;
pub mod pathsim;
pub mod persist;
pub mod pipeline;
pub mod transaction;
pub mod txsim;

pub use dataset::{BuildOptions, Dataset, DatasetBuilder, DatasetStats, IngestStats};
pub use item::{Item, ItemId, ItemView};
pub use itemsim::{SimCtx, SimParams};
pub use pathsim::{
    tag_path_similarity, tag_path_similarity_with, ExactMatch, TagMatcher, TagPathSimTable,
};
pub use persist::{load as load_dataset, save as save_dataset, PersistError};
pub use pipeline::{DocumentPipeline, ItemWeights, ParsedDocument, ParsedLeaf, Terms};
pub use transaction::Transaction;
pub use txsim::{
    argmax_prepared, gamma_shared, gather_best, sim_gamma_j, sim_gamma_j_prepared,
    sim_gamma_j_reference, union_size, PreparedSlab, PreparedTx, ScoreScratch,
};
