//! **cxk_serve** — turn a finished CXK-means run into a running service.
//!
//! The paper's protocol ends when the global representatives converge; this
//! crate is the layer that makes that result *servable*, the repo's path
//! from reproduction to production:
//!
//! * [`classify`] — one online [`Classifier`] session type, over whichever
//!   engine the layout publishes: it parses an incoming XML document
//!   against the trained model's tables (reading its vocabulary in place;
//!   words the model never saw weigh 0 and are dropped), weights its TCUs
//!   against the frozen corpus statistics, and assigns each tree tuple by
//!   the relocation rule (argmax `simγJ`, trash when nothing γ-matches).
//!   The standalone classifier is a session over a private one-shard
//!   engine.
//! * [`index`] — the inverted tag-path/term index
//!   ([`TagPathIndex`]) that prunes the
//!   representatives a query must be scored against. Pruning is provably
//!   sound under the paper's exact tag matcher: indexed and brute-force
//!   assignments agree bit-for-bit.
//! * [`shard`] — sharded scatter/gather classification: the
//!   representatives partitioned into contiguous shards, each owning its
//!   postings slice ([`ShardedEngine`]); a query scatters to every shard
//!   and a gather takes the global argmax, bit-identical to brute force.
//!   One immutable engine per model epoch is shared by the whole worker
//!   pool, so resident index memory is constant in the thread count.
//! * [`tree`] — the sublinear strategy: a hierarchical representative
//!   tree ([`TreeEngine`]) whose internal nodes are merged
//!   representatives, descended greedily by `simγJ` under a beam-width
//!   accuracy knob before an exact re-rank of the reached leaves —
//!   bit-identical to brute force at full beam, a measured
//!   accuracy/latency trade-off below it.
//! * [`remote`] — the same scatter/gather pushed across process
//!   boundaries over the `cxk_p2p` framed TCP fabric: [`ShardDaemon`]s
//!   each serve one representative range of the model, and a
//!   [`RemoteClassifier`] sends every document to all of them with
//!   per-shard deadlines and replica failover; each daemon reads it with
//!   the in-process sharded session — still bit-identical to brute force
//!   (see the module docs for the wire argument).
//! * [`http`] — a dependency-free multi-threaded HTTP/1.1 server
//!   ([`Server`]) exposing `POST /classify`, `POST /reload`, `GET /model`
//!   and `GET /stats`, with one [`ClassifyEngine`] session per worker
//!   thread over the engine the live epoch publishes for
//!   [`ServeOptions::layout`] (indexed, tree or remote; see [`Layout`]).
//! * [`slot`] — the hot-reload seam: a [`ModelSlot`] holding an
//!   epoch-versioned `Arc<TrainedModel>` plus the one engine the whole
//!   pool shares for it, which [`Server::reload`], the `POST /reload`
//!   endpoint and the opt-in file watcher ([`ServeOptions::watch`]) swap
//!   atomically while workers keep serving. Each worker lazily rebuilds
//!   its session when it observes a newer epoch, so in-flight requests
//!   finish on the model they started with and nothing is dropped across
//!   a swap.
//!
//! Model snapshots themselves (`*.cxkmodel`) live in `cxk_core::model`;
//! this crate consumes a [`cxk_core::TrainedModel`] however it was
//! obtained — trained in-process, loaded from disk at startup, or hot
//! swapped in later (the periodic-retrain loop `cxk_stream` drives).
//!
//! # Example
//!
//! ```
//! use cxk_core::EngineBuilder;
//! use cxk_serve::Classifier;
//! use cxk_transact::{BuildOptions, DatasetBuilder};
//! use std::sync::Arc;
//!
//! let mut builder = DatasetBuilder::new(BuildOptions::default());
//! builder.add_xml(r#"<dblp><inproceedings key="a"><author>M. Zaki</author>
//!     <title>mining frequent trees</title></inproceedings></dblp>"#)?;
//! builder.add_xml(r#"<dblp><article key="b"><author>V. Jacobson</author>
//!     <title>congestion avoidance and control</title></article></dblp>"#)?;
//! let dataset = builder.finish();
//!
//! let engine = EngineBuilder::new(2)
//!     .similarity(0.5, 0.4)
//!     .build()
//!     .expect("valid configuration");
//! let fit = engine.fit(&dataset).expect("training runs");
//! let model = fit.into_model(&dataset, BuildOptions::default());
//!
//! let mut classifier = Classifier::shared(Arc::new(model));
//! let report = classifier.classify(
//!     r#"<dblp><inproceedings key="c"><author>A. Nother</author>
//!     <title>mining frequent patterns</title></inproceedings></dblp>"#,
//! )?;
//! assert!(report.cluster <= classifier.trash_id());
//! # Ok::<(), cxk_xml::parser::XmlError>(())
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod http;
pub mod index;
pub mod remote;
mod session;
pub mod shard;
pub mod slot;
pub mod tree;

pub use classify::{
    Classifier, ClassifyEngine, ClassifyError, DocumentAssignment, SessionEngine, TupleAssignment,
};
pub use http::{assignment_json, ServeOptions, Server, ServerStats, StatsSnapshot};
pub use index::{CandidateIds, Candidates, TagPathIndex};
pub use remote::{RemoteClassifier, RemoteEngine, RemoteShardStats, ShardDaemon};
pub use shard::{Shard, ShardStats, ShardedClassifier, ShardedEngine};
pub use slot::{EpochEngine, EpochModel, Layout, ModelSlot};
pub use tree::{TreeClassifier, TreeConfig, TreeEngine, TreeStats};
