//! Incremental clustering of arriving XML documents.
//!
//! The paper's introduction motivates distributed clustering with "Web
//! news services that need to apply clustering algorithms to articles in
//! XML format … with a frequency of few minutes". Re-running the full
//! pipeline on every tick wastes almost all of its work: the vocabulary,
//! the item domain and the cluster structure barely move between ticks.
//! This crate provides the streaming layer a news service would actually
//! deploy on top of CXK-means:
//!
//! * [`StreamClusterer::new`] bootstraps from an initial batch: full
//!   preprocessing, a full CXK-means run, and one representative per
//!   cluster (Fig. 6's `ComputeLocalRepresentative`).
//! * [`StreamClusterer::push`] folds one arriving document in: parse,
//!   tree-tuple extraction, vectorization against the *current* term
//!   statistics, and assignment of its transactions to the nearest
//!   representative (or the trash cluster when nothing γ-matches) —
//!   without touching the existing clustering. A new tag path appends one
//!   row to the `sim_S` table and re-ranks nothing. Cost is proportional
//!   to the document, not the corpus.
//! * [`StreamClusterer::refresh`] re-runs the exact batch pipeline over
//!   everything seen so far, replacing the approximation debt; the
//!   [`RefreshPolicy`] triggers it automatically when enough arrivals
//!   accumulate or too many of them land in the trash (drift detection).
//! * [`StreamClusterer::snapshot_model`] turns the live state into a
//!   servable `cxk_core::TrainedModel`, closing the retrain loop: a
//!   periodic `refresh → snapshot_model → cxk_serve::Server::reload`
//!   hot-swaps the running classification service onto the re-clustered
//!   corpus without dropping requests.
//!
//! ## The approximation, stated precisely
//!
//! Between refreshes, arriving TCUs are weighted with `ttf.itf` whose
//! collection-level factors (`N_T`, `n_{j,T}`) are *current* (they include
//! all arrivals) while previously materialized items keep the weights of
//! the last refresh; an item first seen at arrival time keeps its
//! arrival-time weights. Representatives are frozen between refreshes, so
//! an arrival can only join an existing cluster or the trash. `refresh`
//! erases both approximations — after it, the state is bit-identical to a
//! batch build over the same documents in the same order (asserted by the
//! `stream_integration` tests).
//!
//! # Example
//!
//! ```
//! use cxk_stream::{RefreshPolicy, StreamClusterer, StreamOptions};
//!
//! let base = [
//!     r#"<feed><article id="a"><desk>sports</desk><body>league final overtime goal</body></article></feed>"#,
//!     r#"<feed><article id="b"><desk>politics</desk><body>parliament budget bill vote</body></article></feed>"#,
//! ];
//! let mut opts = StreamOptions::new(2);
//! opts.policy = RefreshPolicy::every(64);
//! let mut service = StreamClusterer::new(&base, opts)?;
//!
//! let report = service.push(
//!     r#"<feed><article id="c"><desk>sports</desk><body>striker injury match</body></article></feed>"#,
//! )?;
//! assert_eq!(report.assignments.len(), 1);
//! assert_eq!(service.document_count(), 3);
//! # Ok::<(), cxk_xml::parser::XmlError>(())
//! ```

#![warn(missing_docs)]

pub mod clusterer;
pub mod policy;

pub use clusterer::{ArrivalReport, RefreshReport, StreamClusterer, StreamOptions, StreamStats};
pub use policy::RefreshPolicy;
