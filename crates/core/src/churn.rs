//! Peer churn: the collaborative protocol under membership changes.
//!
//! The paper's P2P framing credits collaborativeness with *reliability*
//! ("no centralized index server needs to be maintained", §1.1) but
//! evaluates only static networks. A [`ChurnSchedule`] quantifies that
//! claim: the one simulated-clock driver in [`crate::cxk`]
//! ([`crate::engine::Backend::Churn`]) runs the same per-round mathematics
//! as for a static network while peers leave and rejoin at round
//! boundaries.
//!
//! Semantics of a departure: the peer's local data becomes unavailable —
//! its transactions keep their last-known assignment but stop contributing
//! local representatives, and cluster ownership is recomputed over the
//! surviving peers (`owner(j)` = the `j mod |alive|`-th alive peer). Every
//! peer already holds the latest global representatives, so no state is
//! lost with the owner — exactly the reliability argument made by the
//! paper. A rejoin brings the peer's data back; its stale assignments are
//! corrected by its next local clustering pass. The protocol is a
//! continuous service: no round declares convergence before the last
//! scheduled event, so every event must fall within `max_rounds`
//! (`EngineBuilder::build` rejects one that does not).
//!
//! With an empty schedule the run is bit-identical to
//! [`crate::engine::Backend::SimulatedP2p`] (asserted by tests), so
//! measured churn effects are attributable to membership changes alone.

use crate::outcome::ClusteringOutcome;

/// One membership change, applied at the start of `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The peer leaves the network (its data becomes unavailable).
    Leave {
        /// Round at whose start the peer departs (1-based).
        round: usize,
        /// Peer index in the initial partition.
        peer: usize,
    },
    /// A previously departed peer rejoins with its data.
    Rejoin {
        /// Round at whose start the peer returns (1-based).
        round: usize,
        /// Peer index in the initial partition.
        peer: usize,
    },
}

impl ChurnEvent {
    pub(crate) fn round(&self) -> usize {
        match *self {
            ChurnEvent::Leave { round, .. } | ChurnEvent::Rejoin { round, .. } => round,
        }
    }

    pub(crate) fn peer(&self) -> usize {
        match *self {
            ChurnEvent::Leave { peer, .. } | ChurnEvent::Rejoin { peer, .. } => peer,
        }
    }
}

/// A membership-change schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// The events, in any order (applied by round).
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// No churn.
    pub fn none() -> Self {
        Self::default()
    }

    /// Peers `peers` all leave at the start of `round`.
    pub fn mass_departure(round: usize, peers: &[usize]) -> Self {
        Self {
            events: peers
                .iter()
                .map(|&peer| ChurnEvent::Leave { round, peer })
                .collect(),
        }
    }
}

/// Result of a churned run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// The clustering outcome. Transactions of departed peers keep their
    /// last-known assignment (possibly the trash id when the peer left
    /// before its first relocation).
    pub outcome: ClusteringOutcome,
    /// Per transaction: whether its holding peer was alive at the end.
    pub covered: Vec<bool>,
    /// Alive peers at termination.
    pub final_alive: usize,
}

impl ChurnOutcome {
    /// Fraction of transactions held by alive peers at the end.
    pub fn coverage(&self) -> f64 {
        if self.covered.is_empty() {
            return 1.0;
        }
        self.covered.iter().filter(|&&c| c).count() as f64 / self.covered.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxk::CxkConfig;
    use crate::engine::{Backend, EngineBuilder};
    use crate::outcome::RoundTrace;
    use cxk_transact::{BuildOptions, Dataset, DatasetBuilder, SimParams};

    /// Engine-backed churned run over an explicit partition.
    fn fit_churn(
        ds: &Dataset,
        partition: &[Vec<usize>],
        config: &CxkConfig,
        schedule: &ChurnSchedule,
    ) -> ChurnOutcome {
        EngineBuilder::from_cxk_config(config)
            .backend(Backend::Churn {
                peers: partition.len(),
                schedule: schedule.clone(),
            })
            .partition(partition.to_vec())
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("churned fit succeeds")
            .into_churn_outcome()
    }

    /// Engine-backed plain collaborative run (the churn-free comparison).
    fn fit_plain(ds: &Dataset, partition: &[Vec<usize>], config: &CxkConfig) -> ClusteringOutcome {
        EngineBuilder::from_cxk_config(config)
            .backend(Backend::SimulatedP2p {
                peers: partition.len(),
            })
            .partition(partition.to_vec())
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("fit succeeds")
            .into_outcome()
    }

    fn dataset() -> (Dataset, Vec<u32>) {
        let mining = [
            "mining frequent patterns clustering trees",
            "clustering transactional data mining streams",
            "frequent subtree mining patterns forest",
            "partitional clustering centroids mining",
            "itemset mining patterns association clustering",
            "tree mining clustering xml patterns",
        ];
        let networking = [
            "routing congestion protocols networks",
            "packet routing networks latency congestion",
            "congestion control protocols bandwidth networks",
            "network routing topology protocols packets",
            "wireless networks routing interference protocols",
            "switching networks congestion routing fabrics",
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let mut labels = Vec::new();
        for (i, title) in mining.iter().enumerate() {
            builder.add_xml(&format!(
                r#"<dblp><inproceedings key="m{i}"><author>A. Miner</author><title>{title}</title><booktitle>KDD</booktitle></inproceedings></dblp>"#
            )).unwrap();
            labels.push(0);
        }
        for (i, title) in networking.iter().enumerate() {
            builder.add_xml(&format!(
                r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{title}</title><journal>Networking</journal></article></dblp>"#
            )).unwrap();
            labels.push(1);
        }
        (builder.finish(), labels)
    }

    fn config(k: usize) -> CxkConfig {
        let mut c = CxkConfig::new(k);
        c.params = SimParams::new(0.5, 0.6);
        c.seed = 7;
        c.max_rounds = 20;
        c
    }

    #[test]
    fn no_churn_is_identical_to_the_plain_driver() {
        let (ds, _) = dataset();
        for m in [1, 3, 4] {
            let partition = cxk_corpus::partition_equal(ds.transactions.len(), m, 3);
            let plain = fit_plain(&ds, &partition, &config(2));
            let churned = fit_churn(&ds, &partition, &config(2), &ChurnSchedule::none());
            assert_eq!(plain.assignments, churned.outcome.assignments, "m = {m}");
            assert_eq!(plain.rounds, churned.outcome.rounds);
            assert_eq!(plain.total_bytes, churned.outcome.total_bytes);
            assert_eq!(plain.simulated_seconds, churned.outcome.simulated_seconds);
            assert!(churned.covered.iter().all(|&c| c));
            assert!((churned.coverage() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn departure_keeps_protocol_converging() {
        let (ds, labels) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 4, 3);
        let schedule = ChurnSchedule::mass_departure(2, &[1, 3]);
        let churned = fit_churn(&ds, &partition, &config(2), &schedule);
        assert!(churned.outcome.converged);
        assert_eq!(churned.final_alive, 2);
        assert!(churned.coverage() < 1.0 && churned.coverage() > 0.0);
        // Quality on the covered subset stays meaningful.
        let covered_labels: Vec<u32> = labels
            .iter()
            .zip(&churned.covered)
            .filter(|(_, &c)| c)
            .map(|(&l, _)| l)
            .collect();
        let covered_assign: Vec<u32> = churned
            .outcome
            .assignments
            .iter()
            .zip(&churned.covered)
            .filter(|(_, &c)| c)
            .map(|(&a, _)| a)
            .collect();
        let f = cxk_eval::f_measure(&covered_labels, &covered_assign);
        assert!(f > 0.6, "covered-subset F = {f}");
    }

    #[test]
    fn owner_departure_reassigns_ownership() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 3, 1);
        // Peer 0 owns cluster 0 (0 mod 3); it leaves after round 1.
        let schedule = ChurnSchedule::mass_departure(2, &[0]);
        let churned = fit_churn(&ds, &partition, &config(2), &schedule);
        assert!(churned.outcome.converged);
        // The surviving peers' transactions are all assigned (not trash).
        let trash = churned
            .outcome
            .assignments
            .iter()
            .zip(&churned.covered)
            .filter(|(&a, &c)| c && a == 2)
            .count();
        assert_eq!(trash, 0, "covered transactions must stay clustered");
    }

    #[test]
    fn last_survivor_finishes_alone() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 4, 5);
        let schedule = ChurnSchedule::mass_departure(2, &[0, 1, 2]);
        let churned = fit_churn(&ds, &partition, &config(2), &schedule);
        assert!(churned.outcome.converged);
        assert_eq!(churned.final_alive, 1);
    }

    #[test]
    fn rejoin_restores_coverage() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 3, 2);
        let schedule = ChurnSchedule {
            events: vec![
                ChurnEvent::Leave { round: 2, peer: 1 },
                ChurnEvent::Rejoin { round: 4, peer: 1 },
            ],
        };
        let mut cfg = config(2);
        cfg.max_rounds = 30;
        let churned = fit_churn(&ds, &partition, &cfg, &schedule);
        assert!(
            (churned.coverage() - 1.0).abs() < 1e-12,
            "rejoined data is covered"
        );
        assert_eq!(churned.final_alive, 3);
    }

    #[test]
    fn total_collapse_reports_non_convergence() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 2, 2);
        let schedule = ChurnSchedule::mass_departure(2, &[0, 1]);
        let churned = fit_churn(&ds, &partition, &config(2), &schedule);
        assert!(!churned.outcome.converged);
        assert_eq!(churned.final_alive, 0);
        assert!((churned.coverage() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn emptied_network_idles_until_a_scheduled_rejoin() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 2, 2);
        let schedule = ChurnSchedule {
            events: vec![
                ChurnEvent::Leave { round: 2, peer: 0 },
                ChurnEvent::Leave { round: 2, peer: 1 },
                ChurnEvent::Rejoin { round: 4, peer: 0 },
            ],
        };
        let churned = fit_churn(&ds, &partition, &config(2), &schedule);
        assert!(churned.outcome.converged);
        assert!(
            churned.outcome.rounds >= 4,
            "no convergence before the rejoin"
        );
        assert_eq!(churned.final_alive, 1);
        // Nobody is alive in rounds 2 and 3: they are traced but cost nothing.
        for round in [2, 3] {
            assert_eq!(
                churned.outcome.per_round[round - 1],
                RoundTrace {
                    round,
                    ..RoundTrace::default()
                }
            );
        }
        for (peer, part) in partition.iter().enumerate() {
            for &t in part {
                assert_eq!(churned.covered[t], peer == 0, "transaction {t}");
            }
        }
    }

    #[test]
    fn schedule_bounds_are_a_typed_error() {
        let schedule = ChurnSchedule::mass_departure(1, &[7]);
        let err = EngineBuilder::new(2)
            .backend(Backend::Churn { peers: 2, schedule })
            .build()
            .expect_err("out-of-range peer must be rejected");
        assert_eq!(err.config_field(), Some("schedule"));
        assert!(err.to_string().contains("schedule names peer"), "{err}");
    }

    #[test]
    fn deterministic_under_churn() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 4, 9);
        let schedule = ChurnSchedule::mass_departure(3, &[2]);
        let a = fit_churn(&ds, &partition, &config(3), &schedule);
        let b = fit_churn(&ds, &partition, &config(3), &schedule);
        assert_eq!(a.outcome.assignments, b.outcome.assignments);
        assert_eq!(a.outcome.rounds, b.outcome.rounds);
    }
}
