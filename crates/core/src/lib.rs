//! **CXK-means** — collaborative distributed clustering of XML transactions.
//!
//! This crate is the paper's primary contribution: a centroid-based
//! partitional clustering of XML transactions (§4.2, Figs. 5–6) executed
//! collaboratively over a P2P network. Every peer clusters its local
//! transactions against the `k` *global representatives*, summarizes each
//! local cluster into a *local representative*, ships it to the peer that
//! owns that cluster id, and receives freshly combined global
//! representatives back, iterating until every peer reports a stable
//! solution. A `(k+1)`-th *trash cluster* collects transactions that
//! γ-match no representative.
//!
//! Training has **one front door**: the [`engine`] module. An
//! [`EngineBuilder`] validates the configuration (`build()` returns a
//! typed [`CxkError`] instead of panicking), a [`Backend`] picks where the
//! protocol runs (centralized, simulated clock, real peer threads, or
//! under churn), an [`Algorithm`] picks what runs (CXK-means or the
//! PK-means/VSM baselines), and [`Engine::fit`] returns a [`FitOutcome`]
//! that flows straight into a servable [`TrainedModel`]. The historical
//! free functions (`run_centralized`, `run_collaborative`, …) were
//! deprecated shims over the engine for one release and are now gone —
//! new execution modes extend [`Backend`] instead of adding entry points.
//!
//! Modules:
//!
//! * [`engine`] — the typed training API: `EngineBuilder` → `Engine::fit`.
//! * [`error`] — the workspace-wide [`CxkError`].
//! * [`rep`] — cluster representatives in tree-tuple form, including the
//!   `conflateItems` procedure.
//! * [`localrep`] — `ComputeLocalRepresentative` and `GenerateTreeTuple`.
//! * [`globalrep`] — `ComputeGlobalRepresentative` (weighted
//!   meta-representatives).
//! * [`cxk`] — the one simulated-clock CXK-means driver with full
//!   work/traffic accounting: centralized (`m = 1`), collaborative, and
//!   collaborative under a churn schedule ([`Backend::Centralized`] /
//!   [`Backend::SimulatedP2p`] / [`Backend::Churn`]), plus the round
//!   scaffolding PK-means shares.
//! * [`threaded`] — the same protocol over real peer threads and the
//!   `cxk_p2p` message network ([`Backend::ThreadedP2p`]).
//! * [`pkmeans`] — the non-collaborative parallel K-means baseline of
//!   §5.5.3 ([`Algorithm::PkMeans`]): its own exchange, merge and stopping
//!   rule on the simulated driver's scaffolding, reading [`CxkConfig`].
//! * [`vsm`] — the flat vector-space K-means baseline of the related-work
//!   family (\[13\]/\[34\]) ([`Algorithm::VsmKmeans`]).
//! * [`churn`] — peer departure and rejoin schedules and their outcome
//!   ([`Backend::Churn`]), run by the simulated driver.
//! * [`outcome`] — shared result types.
//! * [`model`] — servable model snapshots: the converged representatives
//!   plus the frozen preprocessing context, with a versioned binary
//!   save/load format (`*.cxkmodel`) consumed by `cxk_serve`.
//!
//! # Example
//!
//! ```
//! use cxk_core::EngineBuilder;
//! use cxk_transact::{BuildOptions, DatasetBuilder};
//!
//! let mut builder = DatasetBuilder::new(BuildOptions::default());
//! builder.add_xml(r#"<dblp><inproceedings key="a"><author>M. Zaki</author>
//!     <title>mining frequent trees</title></inproceedings></dblp>"#)?;
//! builder.add_xml(r#"<dblp><article key="b"><author>V. Jacobson</author>
//!     <title>congestion avoidance and control</title></article></dblp>"#)?;
//! let dataset = builder.finish();
//!
//! let engine = EngineBuilder::new(2)
//!     .similarity(0.5, 0.4) // f = 0.5, γ = 0.4
//!     .build()
//!     .expect("a valid configuration");
//! let fit = engine.fit(&dataset).expect("training runs");
//! assert_eq!(fit.assignments.len(), dataset.transactions.len());
//! assert!(fit.converged);
//! # Ok::<(), cxk_xml::parser::XmlError>(())
//! ```

#![warn(missing_docs)]

pub mod churn;
pub mod cxk;
pub mod engine;
pub mod error;
pub mod globalrep;
pub mod localrep;
pub mod model;
pub mod outcome;
pub mod pkmeans;
pub mod rep;
pub mod threaded;
pub mod vsm;

pub use churn::{ChurnEvent, ChurnOutcome, ChurnSchedule};
pub use cxk::CxkConfig;
pub use engine::{Algorithm, Backend, Engine, EngineBuilder, FitOutcome};
pub use error::CxkError;
pub use globalrep::{compute_global_representative, merge_representatives};
pub use localrep::{cluster_representatives, compute_local_representative, generate_tree_tuple};
pub use model::{
    load_model, load_model_file, save_model, save_model_file, snapshot_digest, ModelError,
    TrainedModel, MODEL_FORMAT_VERSION,
};
pub use outcome::{ClusteringOutcome, RoundTrace};
pub use rep::{conflate_items, RepItem, Representative};
pub use vsm::{transaction_vectors, VsmConfig};
