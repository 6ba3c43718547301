//! Peer churn: the collaborative protocol under membership changes.
//!
//! The paper's P2P framing credits collaborativeness with *reliability*
//! ("no centralized index server needs to be maintained", §1.1) but
//! evaluates only static networks. This driver quantifies that claim: it
//! runs the same per-round mathematics as the simulated-clock driver in
//! [`crate::cxk`] ([`crate::engine::Backend::SimulatedP2p`]) while peers
//! leave and rejoin at round boundaries according to a [`ChurnSchedule`].
//!
//! Semantics of a departure: the peer's local data becomes unavailable —
//! its transactions keep their last-known assignment but stop contributing
//! local representatives, and cluster ownership is recomputed over the
//! surviving peers (`owner(j)` = the `j mod |alive|`-th alive peer). Every
//! peer already holds the latest global representatives, so no state is
//! lost with the owner — exactly the reliability argument made by the
//! paper. A rejoin brings the peer's data back; its stale assignments are
//! corrected by its next local clustering pass.
//!
//! With an empty schedule this driver is bit-identical to the churn-free
//! simulated-clock driver (asserted by tests), so measured churn effects
//! are attributable to membership changes alone.

use crate::cxk::{local_clustering_phase, select_initial_reps, CxkConfig};
use crate::error::CxkError;
use crate::globalrep::compute_global_representative;
use crate::outcome::{ClusteringOutcome, RoundTrace};
use crate::rep::{prepare_representatives, Representative};
use cxk_p2p::{RoundSample, SimClock};
use cxk_transact::Dataset;
use rayon::prelude::*;

/// Wire size of a bare status flag message (kept equal to `cxk.rs`).
const STATUS_BYTES: u64 = 16;

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

    fn applicable(&self, round: usize) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter().filter(move |e| e.round() == round)
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

struct PeerState {
    local: Vec<usize>,
    assignments: Vec<u32>,
    local_reps: Vec<Representative>,
    weights: Vec<u64>,
    done: bool,
    work: u64,
    relocations: u64,
    objective: f64,
    alive: bool,
}

/// Runs collaborative CXK-means under a churn schedule. This is the driver
/// behind [`crate::engine::Backend::Churn`]; schedule consistency (peer
/// bounds, leave/rejoin ordering) is validated by `EngineBuilder::build`,
/// and the driver re-checks the invariants it depends on.
pub(crate) fn drive_churn(
    ds: &Dataset,
    partition: &[Vec<usize>],
    config: &CxkConfig,
    schedule: &ChurnSchedule,
) -> Result<ChurnOutcome, CxkError> {
    let m = partition.len();
    let k = config.k;
    if m == 0 {
        return Err(CxkError::config("peers", "need at least one peer, got 0"));
    }
    if k == 0 {
        return Err(CxkError::config(
            "k",
            "need at least one cluster, got k = 0",
        ));
    }
    for event in &schedule.events {
        let peer = match *event {
            ChurnEvent::Leave { peer, .. } | ChurnEvent::Rejoin { peer, .. } => peer,
        };
        if peer >= m {
            return Err(CxkError::config(
                "schedule",
                format!("schedule names peer {peer} of {m}"),
            ));
        }
    }
    let ctx = ds.sim_ctx(config.params);

    let mut global_reps = select_initial_reps(ds, partition, k, config.seed);
    let mut peers: Vec<PeerState> = partition
        .iter()
        .map(|local| PeerState {
            assignments: vec![k as u32; local.len()],
            local: local.clone(),
            local_reps: vec![Representative::empty(); k],
            weights: vec![0; k],
            done: false,
            work: 0,
            relocations: 0,
            objective: 0.0,
            alive: true,
        })
        .collect();

    let mut clock = SimClock::new(config.cost);
    clock.advance_serial(k as u64 + m as u64);

    // Initial broadcast of the selected global representatives (same
    // accounting as the plain driver: everyone is alive at round 0).
    if m > 1 {
        let mut init_samples = vec![RoundSample::default(); m];
        for (j, rep) in global_reps.iter().enumerate() {
            let o = j % m;
            let sz = rep.wire_size() as u64;
            init_samples[o].comm_bytes += sz * (m as u64 - 1);
            init_samples[o].messages += m as u64 - 1;
            for (i, sample) in init_samples.iter_mut().enumerate() {
                if i != o {
                    sample.comm_bytes += sz;
                }
            }
        }
        clock.advance_round(&init_samples);
    }

    // The protocol is a continuous service: a round may only declare
    // convergence once no further membership changes are scheduled.
    let last_event_round = schedule
        .events
        .iter()
        .map(ChurnEvent::round)
        .max()
        .unwrap_or(0);

    let mut traces: Vec<RoundTrace> = Vec::new();
    let mut converged = false;
    let mut rounds = 0;
    let mut best_objective = f64::NEG_INFINITY;
    let mut stale_rounds = 0usize;

    for round in 1..=config.max_rounds {
        rounds = round;

        // Apply this round's membership changes before any phase.
        let mut membership_changed = false;
        for event in schedule.applicable(round) {
            match *event {
                ChurnEvent::Leave { peer, .. } => {
                    assert!(peers[peer].alive, "peer {peer} left twice");
                    peers[peer].alive = false;
                    membership_changed = true;
                }
                ChurnEvent::Rejoin { peer, .. } => {
                    assert!(!peers[peer].alive, "peer {peer} rejoined while alive");
                    peers[peer].alive = true;
                    peers[peer].done = false;
                    membership_changed = true;
                }
            }
        }
        if membership_changed {
            // Objectives are not comparable across memberships; restart the
            // stale-objective guard.
            best_objective = f64::NEG_INFINITY;
            stale_rounds = 0;
        }

        let alive_ids: Vec<usize> = (0..m).filter(|&i| peers[i].alive).collect();
        let m_alive = alive_ids.len();
        if m_alive == 0 {
            if round < last_event_round {
                // The network is momentarily empty but peers are scheduled
                // to return; idle through the round.
                traces.push(RoundTrace {
                    round,
                    ..RoundTrace::default()
                });
                continue;
            }
            // Nobody left to carry the computation.
            converged = false;
            break;
        }
        let owner = |j: usize| alive_ids[j % m_alive];

        // Phase 1+2 on alive peers only.
        let global = prepare_representatives(ctx.tag_sim, &global_reps);
        peers.par_iter_mut().filter(|p| p.alive).for_each(|peer| {
            peer.work = 0;
            let phase = local_clustering_phase(
                ds,
                &ctx,
                &peer.local,
                &mut peer.assignments,
                &global,
                k,
                config.max_inner,
                &mut peer.work,
            );
            peer.relocations = phase.relocations;
            peer.objective = phase.objective;
            let changed = phase
                .local_reps
                .iter()
                .zip(&peer.local_reps)
                .any(|(new, old)| !new.same_items(old));
            peer.weights = phase.weights;
            peer.local_reps = phase.local_reps;
            peer.done = !changed;
        });

        let mut samples: Vec<RoundSample> = peers
            .iter()
            .map(|p| RoundSample {
                work_units: if p.alive { p.work } else { 0 },
                comm_bytes: 0,
                messages: 0,
            })
            .collect();
        let mut round_bytes = 0u64;

        // Phase 3: status broadcast among alive peers.
        if m_alive > 1 {
            for &i in &alive_ids {
                samples[i].comm_bytes += 2 * STATUS_BYTES * (m_alive as u64 - 1);
                samples[i].messages += m_alive as u64 - 1;
            }
            round_bytes += STATUS_BYTES * (m_alive as u64) * (m_alive as u64 - 1);
        }

        let all_done = alive_ids.iter().all(|&i| peers[i].done);
        let done_count = alive_ids.iter().filter(|&&i| peers[i].done).count();

        let global_objective: f64 = alive_ids.iter().map(|&i| peers[i].objective).sum();
        if global_objective > best_objective * (1.0 + 1e-3) + 1e-9 {
            best_objective = global_objective;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }

        if (all_done || stale_rounds >= 2) && round >= last_event_round {
            clock.advance_round(&samples);
            traces.push(RoundTrace {
                round,
                relocations: alive_ids.iter().map(|&i| peers[i].relocations).sum(),
                max_work: samples.iter().map(|s| s.work_units).max().unwrap_or(0),
                bytes: round_bytes,
                done_peers: done_count,
            });
            converged = true;
            break;
        }

        // Phase 4: alive peers ship local representatives to owners.
        if m_alive > 1 {
            for &i in &alive_ids {
                let mut destinations = vec![false; m];
                for (j, rep) in peers[i].local_reps.iter().enumerate() {
                    let o = owner(j);
                    if o == i {
                        continue;
                    }
                    let sz = rep.wire_size() as u64;
                    samples[i].comm_bytes += sz;
                    samples[o].comm_bytes += sz;
                    round_bytes += sz;
                    destinations[o] = true;
                }
                samples[i].messages += destinations.iter().filter(|&&d| d).count() as u64;
            }
        }

        // Phase 5: owners combine alive peers' local representatives.
        let new_globals: Vec<(Representative, u64)> = (0..k)
            .into_par_iter()
            .map(|j| {
                let locals: Vec<(Representative, u64)> = alive_ids
                    .iter()
                    .map(|&i| {
                        let p = &peers[i];
                        let weight = if config.weighted_merge {
                            p.weights[j]
                        } else {
                            u64::from(p.weights[j] > 0)
                        };
                        (p.local_reps[j].clone(), weight)
                    })
                    .collect();
                let mut work = 0u64;
                let g = compute_global_representative(&ctx, &locals, &mut work);
                (g, work)
            })
            .collect();
        for (j, (_, work)) in new_globals.iter().enumerate() {
            samples[owner(j)].work_units += work;
        }

        // Phase 5b: owner broadcast.
        if m_alive > 1 {
            for (j, (rep, _)) in new_globals.iter().enumerate() {
                let o = owner(j);
                let sz = rep.wire_size() as u64;
                samples[o].comm_bytes += sz * (m_alive as u64 - 1);
                round_bytes += sz * (m_alive as u64 - 1);
                for &i in &alive_ids {
                    if i != o {
                        samples[i].comm_bytes += sz;
                    }
                }
            }
            for &i in &alive_ids {
                samples[i].messages += m_alive as u64 - 1;
            }
        }

        global_reps = new_globals.into_iter().map(|(g, _)| g).collect();
        clock.advance_round(&samples);
        traces.push(RoundTrace {
            round,
            relocations: alive_ids.iter().map(|&i| peers[i].relocations).sum(),
            max_work: samples.iter().map(|s| s.work_units).max().unwrap_or(0),
            bytes: round_bytes,
            done_peers: done_count,
        });
    }

    let mut assignments = vec![k as u32; ds.transactions.len()];
    let mut covered = vec![false; ds.transactions.len()];
    for peer in &peers {
        for (li, &t) in peer.local.iter().enumerate() {
            assignments[t] = peer.assignments[li];
            covered[t] = peer.alive;
        }
    }
    let final_alive = peers.iter().filter(|p| p.alive).count();

    Ok(ChurnOutcome {
        outcome: ClusteringOutcome {
            assignments,
            k,
            m,
            rounds,
            converged,
            simulated_seconds: clock.elapsed_seconds(),
            total_work: clock.total_work(),
            total_bytes: clock.total_bytes() / 2,
            total_messages: clock.total_messages(),
            per_round: traces,
        },
        covered,
        final_alive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, EngineBuilder};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

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
