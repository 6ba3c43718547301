//! One typed front door to every training driver.
//!
//! The paper describes a single algorithm, but the workspace grew six
//! disconnected entry points for it (centralized, simulated-P2P, threaded,
//! churned, PK-means, VSM), each with its own config plumbing and
//! panic-based validation. This module gives training one seam:
//!
//! * [`EngineBuilder`] — validated construction. `build()` returns a typed
//!   [`CxkError::Config`] for every invalid axis (`k = 0`, `peers = 0`,
//!   `f`/`γ` outside `[0, 1]`, `max_rounds = 0`, a schedule naming a
//!   missing peer, an algorithm/backend pair that makes no sense) instead
//!   of the `assert!`s the free functions used to carry.
//! * [`Backend`] — *where* the protocol runs: [`Backend::Centralized`],
//!   [`Backend::SimulatedP2p`] (the Fig. 7/8 simulated clock),
//!   [`Backend::ThreadedP2p`] (real peer threads and messages), or
//!   [`Backend::Churn`] (the simulated protocol under membership changes).
//! * [`Algorithm`] — *what* runs: [`Algorithm::CxkMeans`] (the paper's
//!   §4.2 protocol), [`Algorithm::PkMeans`] (the §5.5.3 baseline) or
//!   [`Algorithm::VsmKmeans`] (the flat vector-space baseline).
//! * [`Engine::fit`] — one dispatch point returning a [`FitOutcome`],
//!   which wraps the familiar [`ClusteringOutcome`] (it derefs to it) and
//!   flows straight into a servable snapshot via [`FitOutcome::into_model`].
//!
//! Engine runs are deterministic: repeated fits of one configuration are
//! bit-identical for every backend and algorithm (asserted by
//! `crates/core/tests/engine_properties.rs`). The free functions the
//! engine replaced are gone (see the crate docs).
//!
//! # Example
//!
//! ```
//! use cxk_core::{Backend, EngineBuilder};
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
//!     .similarity(0.5, 0.4) // f, γ
//!     .backend(Backend::SimulatedP2p { peers: 2 })
//!     .build()
//!     .expect("valid configuration");
//! let fit = engine.fit(&dataset).expect("training runs");
//! assert_eq!(fit.assignments.len(), dataset.transactions.len());
//! let model = fit.into_model(&dataset, BuildOptions::default());
//! assert_eq!(model.k(), 2);
//! # Ok::<(), cxk_xml::parser::XmlError>(())
//! ```

use crate::churn::{drive_churn, ChurnEvent, ChurnSchedule};
use crate::cxk::{drive_collaborative, CxkConfig};
use crate::error::CxkError;
use crate::model::TrainedModel;
use crate::outcome::ClusteringOutcome;
use crate::pkmeans::{drive_pk_means, PkConfig};
use crate::threaded::drive_threaded;
use crate::vsm::{drive_vsm, VsmConfig};
use cxk_p2p::CostModel;
use cxk_transact::{BuildOptions, Dataset, SimParams};

/// Which clustering algorithm a fitted [`Engine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's collaborative CXK-means (§4.2) — the default.
    CxkMeans,
    /// The parallel K-means baseline of §5.5.3 (all-to-all summary
    /// exchange, unweighted pooling). Centralized or simulated-P2P only.
    PkMeans,
    /// The flat vector-space spherical K-means baseline (related work
    /// \[13\]/\[34\]). Centralized only; `γ` and the trash cluster are
    /// unused.
    VsmKmeans,
}

impl Algorithm {
    /// Short stable name (`cxk`, `pk`, `vsm`), as used by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::CxkMeans => "cxk",
            Algorithm::PkMeans => "pk",
            Algorithm::VsmKmeans => "vsm",
        }
    }
}

/// Where a fitted [`Engine`] executes the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// One peer holding the whole dataset (`m = 1`) — the accuracy
    /// reference, with no traffic.
    Centralized,
    /// `peers` peers under the simulated clock (§4.3.4 cost model); the
    /// backend behind every figure harness.
    SimulatedP2p {
        /// Network size `m`.
        peers: usize,
    },
    /// `peers` real OS threads exchanging typed messages over the metered
    /// `cxk_p2p` network; `simulated_seconds` reports wall-clock time.
    ThreadedP2p {
        /// Network size `m`.
        peers: usize,
    },
    /// The simulated protocol under peer departures and rejoins; the
    /// outcome carries per-transaction coverage (see
    /// [`FitOutcome::covered`]).
    Churn {
        /// Initial network size `m`.
        peers: usize,
        /// Membership changes, applied at round boundaries.
        schedule: ChurnSchedule,
    },
}

impl Backend {
    /// The network size `m` this backend runs with.
    pub fn peers(&self) -> usize {
        match self {
            Backend::Centralized => 1,
            Backend::SimulatedP2p { peers }
            | Backend::ThreadedP2p { peers }
            | Backend::Churn { peers, .. } => *peers,
        }
    }

    /// Short stable name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Centralized => "centralized",
            Backend::SimulatedP2p { .. } => "simulated-p2p",
            Backend::ThreadedP2p { .. } => "threaded-p2p",
            Backend::Churn { .. } => "churn",
        }
    }
}

/// Builder for a validated [`Engine`].
///
/// Defaults mirror [`CxkConfig::new`]: CXK-means, centralized, the paper's
/// default `f`/`γ`, 30 rounds, 2 inner passes, seed `0xC1C`, weighted
/// merge. Every setter stores raw values; **all** validation happens in
/// [`EngineBuilder::build`], which returns [`CxkError::Config`] naming the
/// offending field.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    algorithm: Algorithm,
    backend: Backend,
    k: usize,
    f: f64,
    gamma: f64,
    max_rounds: usize,
    max_inner: usize,
    seed: u64,
    cost: CostModel,
    weighted_merge: bool,
    partition: Option<Vec<Vec<usize>>>,
}

impl EngineBuilder {
    /// A builder for `k` clusters with the paper's defaults.
    pub fn new(k: usize) -> Self {
        let defaults = CxkConfig::new(k.max(1));
        Self {
            algorithm: Algorithm::CxkMeans,
            backend: Backend::Centralized,
            k,
            f: defaults.params.f,
            gamma: defaults.params.gamma,
            max_rounds: defaults.max_rounds,
            max_inner: defaults.max_inner,
            seed: defaults.seed,
            cost: defaults.cost,
            weighted_merge: defaults.weighted_merge,
            partition: None,
        }
    }

    /// A builder primed from an existing [`CxkConfig`] (CXK-means,
    /// centralized backend until told otherwise).
    pub fn from_cxk_config(config: &CxkConfig) -> Self {
        Self {
            algorithm: Algorithm::CxkMeans,
            backend: Backend::Centralized,
            k: config.k,
            f: config.params.f,
            gamma: config.params.gamma,
            max_rounds: config.max_rounds,
            max_inner: config.max_inner,
            seed: config.seed,
            cost: config.cost,
            weighted_merge: config.weighted_merge,
            partition: None,
        }
    }

    /// A builder primed from a [`PkConfig`] ([`Algorithm::PkMeans`]).
    pub fn from_pk_config(config: &PkConfig) -> Self {
        let mut builder = Self::new(config.k);
        builder.algorithm = Algorithm::PkMeans;
        builder.f = config.params.f;
        builder.gamma = config.params.gamma;
        builder.max_rounds = config.max_rounds;
        builder.max_inner = config.max_inner;
        builder.seed = config.seed;
        builder.cost = config.cost;
        builder
    }

    /// A builder primed from a [`VsmConfig`] ([`Algorithm::VsmKmeans`],
    /// centralized).
    pub fn from_vsm_config(config: &VsmConfig) -> Self {
        let mut builder = Self::new(config.k);
        builder.algorithm = Algorithm::VsmKmeans;
        builder.f = config.f;
        builder.max_rounds = config.max_rounds;
        builder.seed = config.seed;
        builder
    }

    /// Selects the algorithm (default [`Algorithm::CxkMeans`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the backend (default [`Backend::Centralized`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the similarity mix `f` and matching threshold `γ` (Eq. 1/2).
    /// Out-of-range values are rejected by [`EngineBuilder::build`], not
    /// here.
    pub fn similarity(mut self, f: f64, gamma: f64) -> Self {
        self.f = f;
        self.gamma = gamma;
        self
    }

    /// Sets both similarity parameters from a validated [`SimParams`].
    pub fn params(self, params: SimParams) -> Self {
        self.similarity(params.f, params.gamma)
    }

    /// Caps the collaborative rounds (must stay ≥ 1).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Caps the inner local-clustering passes per round (must stay ≥ 1).
    pub fn max_inner(mut self, max_inner: usize) -> Self {
        self.max_inner = max_inner;
        self
    }

    /// Seeds the initial representative selection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated clock's cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Toggles cluster-size weighting when combining global
    /// representatives (the §5.5.3 ablation flag).
    pub fn weighted_merge(mut self, weighted: bool) -> Self {
        self.weighted_merge = weighted;
        self
    }

    /// Pins an explicit peer partition (lists of transaction indices).
    /// Its length must equal the backend's peer count; without it,
    /// [`Engine::fit`] deals transactions round-robin.
    pub fn partition(mut self, partition: Vec<Vec<usize>>) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Validates every axis and produces a runnable [`Engine`].
    ///
    /// # Errors
    /// Returns [`CxkError::Config`] naming the first invalid field.
    pub fn build(self) -> Result<Engine, CxkError> {
        if self.k == 0 {
            return Err(CxkError::config(
                "k",
                "need at least one cluster, got k = 0",
            ));
        }
        if self.backend.peers() == 0 {
            return Err(CxkError::config("peers", "need at least one peer, got 0"));
        }
        if !(0.0..=1.0).contains(&self.f) {
            return Err(CxkError::config(
                "f",
                format!("must lie in [0, 1], got {}", self.f),
            ));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(CxkError::config(
                "gamma",
                format!("must lie in [0, 1], got {}", self.gamma),
            ));
        }
        if self.max_rounds == 0 {
            return Err(CxkError::config(
                "max_rounds",
                "need at least one round, got 0",
            ));
        }
        if self.max_inner == 0 {
            return Err(CxkError::config(
                "max_inner",
                "need at least one inner pass, got 0",
            ));
        }
        match (self.algorithm, &self.backend) {
            (Algorithm::VsmKmeans, Backend::Centralized) => {}
            (Algorithm::VsmKmeans, other) => {
                return Err(CxkError::config(
                    "backend",
                    format!(
                        "the VSM baseline is centralized-only (got {})",
                        other.name()
                    ),
                ));
            }
            (Algorithm::PkMeans, Backend::ThreadedP2p { .. } | Backend::Churn { .. }) => {
                return Err(CxkError::config(
                    "backend",
                    format!(
                        "PK-means supports the centralized and simulated-p2p backends (got {})",
                        self.backend.name()
                    ),
                ));
            }
            _ => {}
        }
        if let Backend::Churn { peers, schedule } = &self.backend {
            validate_schedule(schedule, *peers)?;
        }
        if let Some(partition) = &self.partition {
            if matches!(self.algorithm, Algorithm::VsmKmeans) {
                return Err(CxkError::config(
                    "partition",
                    "the VSM baseline clusters the whole dataset and takes no partition",
                ));
            }
            if partition.len() != self.backend.peers() {
                return Err(CxkError::config(
                    "partition",
                    format!(
                        "partition has {} parts but the backend runs {} peers",
                        partition.len(),
                        self.backend.peers()
                    ),
                ));
            }
        }
        Ok(Engine {
            algorithm: self.algorithm,
            backend: self.backend,
            config: CxkConfig {
                k: self.k,
                params: SimParams::new(self.f, self.gamma),
                max_rounds: self.max_rounds,
                max_inner: self.max_inner,
                seed: self.seed,
                cost: self.cost,
                weighted_merge: self.weighted_merge,
            },
            partition: self.partition,
        })
    }
}

/// Statically checks a churn schedule against the peer count: every event
/// must name an existing peer, no peer may leave while absent or rejoin
/// while alive.
fn validate_schedule(schedule: &ChurnSchedule, peers: usize) -> Result<(), CxkError> {
    // Rounds are 1-based; the churn driver's round loop starts at 1, so a
    // round-0 event would never be applied. Rejecting it here keeps the
    // static simulation below in lockstep with what the driver executes.
    if let Some(event) = schedule.events.iter().find(|e| e.round() == 0) {
        return Err(CxkError::config(
            "schedule",
            format!("event {event:?} uses round 0; rounds are 1-based"),
        ));
    }
    let mut rounds: Vec<usize> = schedule.events.iter().map(ChurnEvent::round).collect();
    rounds.sort_unstable();
    rounds.dedup();
    let mut alive = vec![true; peers];
    for round in rounds {
        for event in schedule.events.iter().filter(|e| e.round() == round) {
            match *event {
                ChurnEvent::Leave { peer, .. } => {
                    if peer >= peers {
                        return Err(CxkError::config(
                            "schedule",
                            format!("schedule names peer {peer} of {peers}"),
                        ));
                    }
                    if !alive[peer] {
                        return Err(CxkError::config(
                            "schedule",
                            format!("peer {peer} leaves at round {round} while already departed"),
                        ));
                    }
                    alive[peer] = false;
                }
                ChurnEvent::Rejoin { peer, .. } => {
                    if peer >= peers {
                        return Err(CxkError::config(
                            "schedule",
                            format!("schedule names peer {peer} of {peers}"),
                        ));
                    }
                    if alive[peer] {
                        return Err(CxkError::config(
                            "schedule",
                            format!("peer {peer} rejoins at round {round} while alive"),
                        ));
                    }
                    alive[peer] = true;
                }
            }
        }
    }
    Ok(())
}

/// The deterministic default partition: transaction `t` goes to peer
/// `t mod m` (the same dealing the CLI has always used).
fn round_robin_partition(n: usize, m: usize) -> Vec<Vec<usize>> {
    // Not `vec![Vec::with_capacity(..); m]`: Vec::clone drops capacity, so
    // that form pre-sizes only the template vector.
    let mut partition: Vec<Vec<usize>> = (0..m).map(|_| Vec::with_capacity(n / m + 1)).collect();
    for t in 0..n {
        partition[t % m].push(t);
    }
    partition
}

/// A validated, runnable training configuration. Construct via
/// [`EngineBuilder`]; run via [`Engine::fit`].
#[derive(Debug, Clone)]
pub struct Engine {
    algorithm: Algorithm,
    backend: Backend,
    config: CxkConfig,
    partition: Option<Vec<Vec<usize>>>,
}

impl Engine {
    /// Shorthand for [`EngineBuilder::new`].
    pub fn builder(k: usize) -> EngineBuilder {
        EngineBuilder::new(k)
    }

    /// The algorithm this engine runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The backend this engine runs on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The validated driver configuration.
    pub fn config(&self) -> &CxkConfig {
        &self.config
    }

    /// Trains on `ds`, dispatching to the selected algorithm and backend.
    ///
    /// # Errors
    /// Returns [`CxkError::Config`] when an explicit partition references a
    /// transaction outside `ds`, and [`CxkError::Protocol`] when the
    /// threaded protocol fails mid-run.
    pub fn fit(&self, ds: &Dataset) -> Result<FitOutcome, CxkError> {
        let n = ds.transactions.len();
        // Borrow a pinned partition instead of cloning it: `fit` is called
        // per-iteration in benches and refresh loops, and the drivers only
        // need a slice.
        let partition: std::borrow::Cow<'_, [Vec<usize>]> = match &self.partition {
            Some(parts) => {
                for part in parts {
                    if let Some(&bad) = part.iter().find(|&&t| t >= n) {
                        return Err(CxkError::config(
                            "partition",
                            format!("partition references transaction {bad} of {n}"),
                        ));
                    }
                }
                std::borrow::Cow::Borrowed(parts.as_slice())
            }
            None => std::borrow::Cow::Owned(round_robin_partition(n, self.backend.peers())),
        };
        let params = self.config.params;
        let wrap = |outcome: ClusteringOutcome| FitOutcome {
            outcome,
            covered: None,
            final_alive: None,
            params,
        };
        match self.algorithm {
            Algorithm::CxkMeans => match &self.backend {
                Backend::Centralized | Backend::SimulatedP2p { .. } => {
                    drive_collaborative(ds, &partition, &self.config).map(wrap)
                }
                Backend::ThreadedP2p { .. } => {
                    drive_threaded(ds, &partition, &self.config).map(wrap)
                }
                Backend::Churn { schedule, .. } => {
                    let churned = drive_churn(ds, &partition, &self.config, schedule)?;
                    Ok(FitOutcome {
                        outcome: churned.outcome,
                        covered: Some(churned.covered),
                        final_alive: Some(churned.final_alive),
                        params,
                    })
                }
            },
            Algorithm::PkMeans => {
                let config = PkConfig {
                    k: self.config.k,
                    params,
                    max_rounds: self.config.max_rounds,
                    max_inner: self.config.max_inner,
                    seed: self.config.seed,
                    cost: self.config.cost,
                };
                drive_pk_means(ds, &partition, &config).map(wrap)
            }
            Algorithm::VsmKmeans => {
                let config = VsmConfig {
                    k: self.config.k,
                    f: params.f,
                    max_rounds: self.config.max_rounds,
                    seed: self.config.seed,
                };
                drive_vsm(ds, &config).map(wrap)
            }
        }
    }
}

/// What [`Engine::fit`] produced: the [`ClusteringOutcome`] (available via
/// `Deref`), churn coverage when the backend was [`Backend::Churn`], and a
/// straight path into a servable [`TrainedModel`].
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// The clustering result.
    pub outcome: ClusteringOutcome,
    /// Per-transaction: whether its holding peer was alive at the end
    /// (churn backend only).
    pub covered: Option<Vec<bool>>,
    /// Alive peers at termination (churn backend only).
    pub final_alive: Option<usize>,
    params: SimParams,
}

impl FitOutcome {
    /// The clustering result (also reachable through `Deref`).
    pub fn outcome(&self) -> &ClusteringOutcome {
        &self.outcome
    }

    /// Unwraps the clustering result.
    pub fn into_outcome(self) -> ClusteringOutcome {
        self.outcome
    }

    /// Fraction of transactions held by alive peers at the end (1.0 for
    /// backends without churn).
    pub fn coverage(&self) -> f64 {
        match &self.covered {
            None => 1.0,
            Some(covered) if covered.is_empty() => 1.0,
            Some(covered) => covered.iter().filter(|&&c| c).count() as f64 / covered.len() as f64,
        }
    }

    /// Condenses the run into a servable snapshot — the representatives of
    /// the final assignment plus the frozen preprocessing context — ready
    /// for [`crate::model::save_model`].
    pub fn into_model(self, ds: &Dataset, build: BuildOptions) -> TrainedModel {
        TrainedModel::from_clustering(ds, &self.outcome, self.params, build)
    }

    /// Unwraps into the churn module's historical result shape. For
    /// backends without churn the coverage is empty and `final_alive`
    /// is 0.
    pub fn into_churn_outcome(mut self) -> crate::churn::ChurnOutcome {
        crate::churn::ChurnOutcome {
            covered: self.covered.take().unwrap_or_default(),
            final_alive: self.final_alive.unwrap_or(0),
            outcome: self.outcome,
        }
    }
}

impl std::ops::Deref for FitOutcome {
    type Target = ClusteringOutcome;

    fn deref(&self) -> &ClusteringOutcome {
        &self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_transact::{BuildOptions, DatasetBuilder};

    fn dataset() -> Dataset {
        let docs = [
            r#"<dblp><inproceedings key="m1"><author>A. Miner</author><title>mining clustering patterns trees</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="m2"><author>A. Miner</author><title>frequent mining clustering streams</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><article key="n1"><author>B. Netter</author><title>routing congestion networks protocols</title><journal>Networking</journal></article></dblp>"#,
            r#"<dblp><article key="n2"><author>B. Netter</author><title>packet routing networks latency</title><journal>Networking</journal></article></dblp>"#,
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in docs {
            builder.add_xml(doc).unwrap();
        }
        builder.finish()
    }

    #[test]
    fn every_backend_fits_and_assigns_totally() {
        let ds = dataset();
        let backends = [
            Backend::Centralized,
            Backend::SimulatedP2p { peers: 2 },
            Backend::ThreadedP2p { peers: 2 },
            Backend::Churn {
                peers: 2,
                schedule: ChurnSchedule::none(),
            },
        ];
        for backend in backends {
            let name = backend.name();
            let fit = EngineBuilder::new(2)
                .similarity(0.5, 0.5)
                .seed(1)
                .backend(backend)
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .fit(&ds)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(fit.assignments.len(), ds.transactions.len(), "{name}");
            assert_eq!(
                fit.cluster_sizes().iter().sum::<usize>(),
                ds.transactions.len(),
                "{name}"
            );
        }
    }

    #[test]
    fn algorithms_dispatch() {
        let ds = dataset();
        for algorithm in [
            Algorithm::CxkMeans,
            Algorithm::PkMeans,
            Algorithm::VsmKmeans,
        ] {
            let fit = EngineBuilder::new(2)
                .similarity(0.5, 0.5)
                .algorithm(algorithm)
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits");
            assert_eq!(
                fit.assignments.len(),
                ds.transactions.len(),
                "{}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn fit_flows_into_a_model() {
        let ds = dataset();
        let fit = EngineBuilder::new(2)
            .similarity(0.5, 0.5)
            .seed(1)
            .build()
            .expect("valid")
            .fit(&ds)
            .expect("fits");
        assert!((fit.coverage() - 1.0).abs() < 1e-12);
        let model = fit.into_model(&ds, BuildOptions::default());
        assert_eq!(model.k(), 2);
        assert_eq!(model.trained_documents, 4);
    }

    #[test]
    fn out_of_range_partition_is_a_typed_error() {
        let ds = dataset();
        let engine = EngineBuilder::new(2)
            .backend(Backend::SimulatedP2p { peers: 2 })
            .partition(vec![vec![0, 999], vec![1]])
            .build()
            .expect("builds: bounds are data-dependent");
        let err = engine.fit(&ds).expect_err("bad partition");
        assert_eq!(err.config_field(), Some("partition"));
    }

    #[test]
    fn churn_backend_reports_coverage() {
        let ds = dataset();
        let fit = EngineBuilder::new(2)
            .similarity(0.5, 0.5)
            .backend(Backend::Churn {
                peers: 2,
                schedule: ChurnSchedule::mass_departure(2, &[1]),
            })
            .build()
            .expect("valid")
            .fit(&ds)
            .expect("fits");
        assert_eq!(fit.final_alive, Some(1));
        assert!(fit.coverage() < 1.0);
        assert_eq!(
            fit.covered.as_ref().map(Vec::len),
            Some(ds.transactions.len())
        );
    }
}
