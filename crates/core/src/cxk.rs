//! The CXK-means driver (Fig. 5) under the simulated clock — centralized,
//! collaborative, and collaborative under churn — plus the round
//! scaffolding the PK-means baseline shares with it.
//!
//! One collaborative **round** comprises, per peer: (1) relocation of the
//! local transactions against the current global representatives, with
//! transactions γ-matching none falling into the trash cluster; (2)
//! computation of the `k` local representatives; (3) the `done`/`continue`
//! status broadcast; (4) shipping each local representative to the peer
//! owning that cluster id (`Z_i = {j : j mod m = i}`); (5) owners combining
//! local representatives into global ones and broadcasting them. The run
//! terminates when every peer reports `done` in the same round (no local
//! representative changed), or at the round cap.
//!
//! `drive_collaborative` is the one simulated-clock CXK-means loop. A
//! [`ChurnSchedule`] adds an alive mask: peers leave and rejoin at round
//! boundaries, ownership is recomputed over the alive peers, and an empty
//! schedule is the static network (see [`crate::churn`] for the
//! semantics). `SimRun` holds what every simulated-clock driver shares,
//! PK-means included: the startup (initial representatives, the N0 charge
//! and the initial broadcast), phases 1+2 over the peers, the status
//! charge, closing a round on the clock, and the gather.
//!
//! Every phase's main-memory work and traffic is metered into the
//! `cxk_p2p` [`SimClock`], whose per-round time is the maximum over peers —
//! the quantity the paper's Fig. 7/8 report.

use crate::churn::{ChurnEvent, ChurnOutcome, ChurnSchedule};
use crate::error::CxkError;
use crate::globalrep::compute_global_representative;
use crate::localrep::compute_local_representative;
use crate::outcome::{ClusteringOutcome, RoundTrace};
use crate::rep::{prepare_representatives, Representative};
use cxk_p2p::{CostModel, RoundSample, SimClock};
use cxk_transact::txsim::{argmax_prepared, PreparedSlab, ScoreScratch};
use cxk_transact::{Dataset, SimCtx, SimParams};
use cxk_util::DetRng;

/// Wire size of a bare status flag message.
const STATUS_BYTES: u64 = 16;

/// CXK-means configuration. The PK-means baseline reads the same
/// configuration and ignores `weighted_merge`.
#[derive(Debug, Clone)]
pub struct CxkConfig {
    /// Desired number of clusters `k` (a `(k+1)`-th trash cluster is added).
    pub k: usize,
    /// Similarity parameters `f` and `γ`.
    pub params: SimParams,
    /// Safety cap on collaborative rounds (the paper observes < 10).
    pub max_rounds: usize,
    /// Cap on the inner local-clustering passes per round (Fig. 5's
    /// "repeat ... until no transaction is relocated").
    pub max_inner: usize,
    /// Seed for initial representative selection.
    pub seed: u64,
    /// Cost model for the simulated clock.
    pub cost: CostModel,
    /// Weight local representatives by their cluster sizes when combining
    /// global representatives (the paper's meta-representative scheme,
    /// §4.2). Disabling this is the ablation isolating the
    /// collaborativeness benefit of §5.5.3.
    pub weighted_merge: bool,
}

impl CxkConfig {
    /// Creates a configuration with the paper's defaults.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            params: SimParams::default(),
            max_rounds: 30,
            max_inner: 2,
            seed: 0xC1C,
            cost: CostModel::default(),
            weighted_merge: true,
        }
    }
}

/// The shape every driver depends on: at least one peer and one cluster.
/// `EngineBuilder::build` validates it first; drivers re-check it and
/// report a violation as a typed error.
pub(crate) fn check_shape(m: usize, k: usize) -> Result<(), CxkError> {
    if m == 0 {
        return Err(CxkError::config("peers", "need at least one peer, got 0"));
    }
    if k == 0 {
        return Err(CxkError::config(
            "k",
            "need at least one cluster, got k = 0",
        ));
    }
    Ok(())
}

/// One peer under the simulated clock.
pub(crate) struct SimPeer {
    /// Its transactions (indices into the dataset).
    pub local: Vec<usize>,
    /// Cluster per local transaction; `k` = trash.
    pub assignments: Vec<u32>,
    /// The `k` local representatives of its last local phase.
    pub local_reps: Vec<Representative>,
    /// `|C_j^i|` weights.
    pub weights: Vec<u64>,
    /// No local representative changed in its last local phase.
    pub done: bool,
    /// Work units of its last local phase.
    pub work: u64,
    /// Relocations of the first pass of its last local phase.
    pub relocations: u64,
    /// Local clustering objective of that pass.
    pub objective: f64,
    /// Whether it is in the network (only a churn schedule clears it).
    pub alive: bool,
}

/// The state and round accounting every simulated-clock driver shares.
/// The drivers own only what distinguishes them: the exchange, the merge
/// and the stopping rule.
pub(crate) struct SimRun<'a> {
    ds: &'a Dataset,
    pub ctx: SimCtx<'a>,
    k: usize,
    max_inner: usize,
    pub peers: Vec<SimPeer>,
    pub global_reps: Vec<Representative>,
    clock: SimClock,
    traces: Vec<RoundTrace>,
}

impl<'a> SimRun<'a> {
    /// The N0 startup: checks the shape, selects the initial global
    /// representatives, charges the ownership bookkeeping as serial work,
    /// and meters each representative's broadcast from its owner
    /// (`j mod m`) to every other peer.
    pub fn start(
        ds: &'a Dataset,
        partition: &[Vec<usize>],
        config: &CxkConfig,
    ) -> Result<Self, CxkError> {
        let (m, k) = (partition.len(), config.k);
        check_shape(m, k)?;
        let global_reps = select_initial_reps(ds, partition, k, config.seed);
        let peers = partition
            .iter()
            .map(|local| SimPeer {
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

        Ok(Self {
            ds,
            ctx: ds.sim_ctx(config.params),
            k,
            max_inner: config.max_inner,
            peers,
            global_reps,
            clock,
            traces: Vec::new(),
        })
    }

    /// Indices of the peers in the network, ascending.
    pub fn alive_ids(&self) -> Vec<usize> {
        (0..self.peers.len())
            .filter(|&i| self.peers[i].alive)
            .collect()
    }

    /// Phases 1+2: every alive peer's local clustering against the current
    /// global representatives, one peer after another (peers touch only
    /// their own state, so the order cannot matter). A peer is `done`
    /// when none of its local representatives changed. Returns the round's
    /// samples, one per peer, carrying each alive peer's work.
    pub fn local_phase(&mut self) -> Vec<RoundSample> {
        let (ds, ctx, k, max_inner) = (self.ds, &self.ctx, self.k, self.max_inner);
        let global = prepare_representatives(ctx.tag_sim, &self.global_reps);
        self.peers.iter_mut().filter(|p| p.alive).for_each(|peer| {
            peer.work = 0;
            let phase = local_clustering_phase(
                ds,
                ctx,
                &peer.local,
                &mut peer.assignments,
                &global,
                k,
                max_inner,
                &mut peer.work,
            );
            peer.relocations = phase.relocations;
            peer.objective = phase.objective;
            peer.done = phase
                .local_reps
                .iter()
                .zip(&peer.local_reps)
                .all(|(new, old)| new.same_items(old));
            peer.weights = phase.weights;
            peer.local_reps = phase.local_reps;
        });
        self.peers
            .iter()
            .map(|p| RoundSample {
                work_units: if p.alive { p.work } else { 0 },
                comm_bytes: 0,
                messages: 0,
            })
            .collect()
    }

    /// Phase 3: every alive peer tells every other alive peer its status.
    /// Charges `samples` (send + receive) and returns the bytes on the
    /// wire.
    pub fn charge_status(&self, samples: &mut [RoundSample]) -> u64 {
        let alive = self.alive_ids();
        let others = alive.len().saturating_sub(1) as u64;
        if others == 0 {
            return 0;
        }
        for &i in &alive {
            samples[i].comm_bytes += 2 * STATUS_BYTES * others;
            samples[i].messages += others;
        }
        STATUS_BYTES * alive.len() as u64 * others
    }

    /// Ends round `round`: advances the clock by the slowest peer's sample
    /// and records the round's trace.
    pub fn close_round(
        &mut self,
        round: usize,
        samples: &[RoundSample],
        bytes: u64,
        relocations: u64,
        done_peers: usize,
    ) {
        self.clock.advance_round(samples);
        self.traces.push(RoundTrace {
            round,
            relocations,
            max_work: samples.iter().map(|s| s.work_units).max().unwrap_or(0),
            bytes,
            done_peers,
        });
    }

    /// Gathers the distributed partition into a dataset-wide assignment,
    /// with per-transaction coverage by alive peers.
    pub fn gather(self, rounds: usize, converged: bool) -> ChurnOutcome {
        let n = self.ds.transactions.len();
        let mut assignments = vec![self.k as u32; n];
        let mut covered = vec![false; n];
        for peer in &self.peers {
            for (li, &t) in peer.local.iter().enumerate() {
                assignments[t] = peer.assignments[li];
                covered[t] = peer.alive;
            }
        }
        ChurnOutcome {
            outcome: ClusteringOutcome {
                assignments,
                k: self.k,
                m: self.peers.len(),
                rounds,
                converged,
                simulated_seconds: self.clock.elapsed_seconds(),
                total_work: self.clock.total_work(),
                total_bytes: self.clock.total_bytes() / 2, // samples count send + receive
                total_messages: self.clock.total_messages(),
                per_round: self.traces,
            },
            covered,
            final_alive: self.peers.iter().filter(|p| p.alive).count(),
        }
    }
}

/// Runs collaborative CXK-means over an explicit peer partition (lists of
/// transaction indices) under a churn schedule. `partition.len()` is the
/// network size `m`; `m = 1` is the centralized baseline, and
/// [`ChurnSchedule::none`] the static network. This is the driver behind
/// [`crate::engine::Backend::Centralized`],
/// [`crate::engine::Backend::SimulatedP2p`] and
/// [`crate::engine::Backend::Churn`]; input validation happens in
/// `EngineBuilder::build`, but the driver re-checks the invariants it
/// depends on and reports them as typed errors.
pub(crate) fn drive_collaborative(
    ds: &Dataset,
    partition: &[Vec<usize>],
    config: &CxkConfig,
    schedule: &ChurnSchedule,
) -> Result<ChurnOutcome, CxkError> {
    let mut run = SimRun::start(ds, partition, config)?;
    let (m, k) = (partition.len(), config.k);
    for event in &schedule.events {
        let peer = event.peer();
        if peer >= m {
            return Err(CxkError::config(
                "schedule",
                format!("schedule names peer {peer} of {m}"),
            ));
        }
    }
    // The protocol is a continuous service: a round may only declare
    // convergence once no further membership changes are scheduled.
    let last_event_round = schedule
        .events
        .iter()
        .map(ChurnEvent::round)
        .max()
        .unwrap_or(0);

    let mut converged = false;
    let mut rounds = 0;
    let mut best_objective = f64::NEG_INFINITY;
    let mut stale_rounds = 0usize;

    for round in 1..=config.max_rounds {
        rounds = round;

        // Apply this round's membership changes before any phase.
        let mut membership_changed = false;
        for event in schedule.events.iter().filter(|e| e.round() == round) {
            let peer = &mut run.peers[event.peer()];
            match *event {
                ChurnEvent::Leave { .. } => {
                    assert!(peer.alive, "peer {} left twice", event.peer());
                    peer.alive = false;
                }
                ChurnEvent::Rejoin { .. } => {
                    assert!(!peer.alive, "peer {} rejoined while alive", event.peer());
                    peer.alive = true;
                }
            }
            membership_changed = true;
        }
        if membership_changed {
            // Objectives are not comparable across memberships; restart the
            // stale-objective guard.
            best_objective = f64::NEG_INFINITY;
            stale_rounds = 0;
        }

        let alive = run.alive_ids();
        let m_alive = alive.len();
        if m_alive == 0 {
            if round < last_event_round {
                // The network is momentarily empty but peers are scheduled
                // to return; idle through the round.
                run.traces.push(RoundTrace {
                    round,
                    ..RoundTrace::default()
                });
                continue;
            }
            // Nobody left to carry the computation.
            break;
        }
        // Cluster ownership over the alive peers.
        let owner = |j: usize| alive[j % m_alive];

        let mut samples = run.local_phase();
        let mut round_bytes = run.charge_status(&mut samples);
        let peers = &run.peers;
        let done_count = alive.iter().filter(|&&i| peers[i].done).count();
        let relocations = alive.iter().map(|&i| peers[i].relocations).sum();

        // Secondary stopping rule mirroring the PK-means objective guard:
        // the greedy tree-tuple representatives do not maximize simGammaJ
        // exactly, so representative sets can limit-cycle without the
        // per-peer `done` flags ever aligning. The globally summed
        // relocation objective travels with the status broadcast; when it
        // has not improved for two rounds every peer stops with its
        // current (stable-quality) solution.
        let global_objective: f64 = alive.iter().map(|&i| peers[i].objective).sum();
        if global_objective > best_objective * (1.0 + 1e-3) + 1e-9 {
            best_objective = global_objective;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }

        if (done_count == m_alive || stale_rounds >= 2) && round >= last_event_round {
            run.close_round(round, &samples, round_bytes, relocations, done_count);
            converged = true;
            break;
        }

        // Phase 4: ship local representatives to cluster owners.
        if m_alive > 1 {
            for &i in &alive {
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

        // Phase 5: owners combine the alive peers' local representatives
        // into the new global representatives.
        let new_globals: Vec<(Representative, u64)> = (0..k)
            .map(|j| {
                let locals: Vec<(Representative, u64)> = alive
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
                let g = compute_global_representative(&run.ctx, &locals, &mut work);
                (g, work)
            })
            .collect();
        for (j, (_, work)) in new_globals.iter().enumerate() {
            samples[owner(j)].work_units += work;
        }

        // Phase 5b: owners broadcast the fresh global representatives.
        if m_alive > 1 {
            for (j, (rep, _)) in new_globals.iter().enumerate() {
                let o = owner(j);
                let sz = rep.wire_size() as u64;
                samples[o].comm_bytes += sz * (m_alive as u64 - 1);
                round_bytes += sz * (m_alive as u64 - 1);
                for &i in &alive {
                    if i != o {
                        samples[i].comm_bytes += sz;
                    }
                }
            }
            for &i in &alive {
                samples[i].messages += m_alive as u64 - 1;
            }
        }

        run.global_reps = new_globals.into_iter().map(|(g, _)| g).collect();
        run.close_round(round, &samples, round_bytes, relocations, done_count);
    }

    Ok(run.gather(rounds, converged))
}

/// Initial global representatives: the owner of cluster `j` (`j mod m`)
/// selects a transaction from its local data, preferring distinct source
/// documents (Fig. 5: "select {tr_1 … tr_qi} from S_i coming from distinct
/// original trees"). Shared with the PK-means baseline so both algorithms
/// start from identical configurations, as the comparison in §5.5.3
/// requires.
pub(crate) fn select_initial_reps(
    ds: &Dataset,
    partition: &[Vec<usize>],
    k: usize,
    seed: u64,
) -> Vec<Representative> {
    let m = partition.len();
    let root_rng = DetRng::seed_from_u64(seed);
    let mut global_reps: Vec<Representative> = vec![Representative::empty(); k];
    for (i, part) in partition.iter().enumerate() {
        let owned: Vec<usize> = (0..k).filter(|&j| j % m == i).collect();
        if owned.is_empty() || part.is_empty() {
            continue;
        }
        let mut rng = root_rng.derive(i as u64 + 1);
        let mut order = part.clone();
        rng.shuffle(&mut order);
        let mut used_docs: Vec<u32> = Vec::new();
        let mut picks: Vec<usize> = Vec::new();
        for &t in &order {
            if picks.len() == owned.len() {
                break;
            }
            let doc = ds.doc_of[t];
            if !used_docs.contains(&doc) {
                used_docs.push(doc);
                picks.push(t);
            }
        }
        // Fallback: top up from any unused transactions.
        for &t in &order {
            if picks.len() == owned.len() {
                break;
            }
            if !picks.contains(&t) {
                picks.push(t);
            }
        }
        for (&j, &t) in owned.iter().zip(&picks) {
            global_reps[j] = Representative::from_transaction(ds, &ds.transactions[t]);
        }
    }
    global_reps
}

/// Result of one relocation pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Relocation {
    /// Transactions that changed cluster.
    pub relocations: u64,
    /// The local clustering objective: `Σ_tr simγJ(tr, rep_assigned(tr))` —
    /// the similarity analogue of the SSE that \[11\] reduces globally.
    pub objective: f64,
}

/// Result of one peer's full local clustering phase (the inner loop of
/// Fig. 5).
pub(crate) struct LocalPhase {
    /// The k local representatives consistent with the final assignment.
    pub local_reps: Vec<Representative>,
    /// `|C_j^i|` cluster sizes.
    pub weights: Vec<u64>,
    /// Relocations in the first pass (against the global representatives).
    pub relocations: u64,
    /// Objective of the first pass (against the global representatives) —
    /// the globally comparable quantity for the stale-objective guard.
    pub objective: f64,
}

/// One peer's local clustering for one collaborative round: the first
/// relocation pass runs against the received global representatives, then
/// the peer iterates a classical K-means on its own data — reassigning
/// against its freshly computed local representatives — until no
/// transaction relocates or `max_inner` passes elapse (Fig. 5's inner
/// `repeat`). Work for every pass is metered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn local_clustering_phase(
    ds: &Dataset,
    ctx: &SimCtx<'_>,
    local: &[usize],
    assignments: &mut [u32],
    global: &PreparedSlab,
    k: usize,
    max_inner: usize,
    work: &mut u64,
) -> LocalPhase {
    let first = relocate_slice(ds, ctx, local, assignments, global, k, work);
    let mut clusters = clusters_of(local, assignments, k);
    let mut local_reps: Vec<Representative> = clusters
        .iter()
        .map(|c| compute_local_representative(ds, ctx, c, work))
        .collect();

    for _ in 1..max_inner {
        let prepared = prepare_representatives(ctx.tag_sim, &local_reps);
        let pass = relocate_slice(ds, ctx, local, assignments, &prepared, k, work);
        if pass.relocations == 0 {
            break;
        }
        clusters = clusters_of(local, assignments, k);
        local_reps = clusters
            .iter()
            .map(|c| compute_local_representative(ds, ctx, c, work))
            .collect();
    }

    LocalPhase {
        local_reps,
        weights: clusters.iter().map(|c| c.len() as u64).collect(),
        relocations: first.relocations,
        objective: first.objective,
    }
}

/// The local transactions of each proper cluster, in local order (the
/// trash cluster `k` is left out).
fn clusters_of(local: &[usize], assignments: &[u32], k: usize) -> Vec<Vec<usize>> {
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (&t, &a) in local.iter().zip(assignments) {
        if let Some(cluster) = clusters.get_mut(a as usize) {
            cluster.push(t);
        }
    }
    clusters
}

/// Assigns each transaction in `local` to the best representative: trash
/// when `simγJ` is zero for every representative, otherwise the argmax
/// (ties to the lowest cluster id) — the relocation rule of
/// [`argmax_prepared`]. `reps` are the representatives
/// prepared against `ctx`'s table (see
/// [`prepare_representatives`](crate::rep::prepare_representatives)).
/// Adds comparison work to `work`. Shared with the PK-means baseline.
pub(crate) fn relocate_slice(
    ds: &Dataset,
    ctx: &SimCtx<'_>,
    local: &[usize],
    assignments: &mut [u32],
    reps: &PreparedSlab,
    k: usize,
    work: &mut u64,
) -> Relocation {
    // Work is charged analytically (one unit per item-pair comparison), not
    // counted inside the comparison loop.
    let rep_len_sum: u64 = reps.iter().map(|rep| rep.len() as u64).sum();
    let choices: Vec<(u32, f64)> = local
        .iter()
        .map(|&t| {
            // One prepared transaction and one scratch per transaction,
            // shared across its k scores.
            let tx = ds.transactions[t]
                .items()
                .iter()
                .map(|id| ds.items[id.index()].view());
            let query = PreparedSlab::build(ctx.tag_sim, [tx]);
            let mut scratch = ScoreScratch::default();
            match query.get(0) {
                Some(query) => {
                    let ids = 0..reps.len() as u32;
                    argmax_prepared(ctx, query, reps, ids, k as u32, &mut scratch)
                }
                None => (k as u32, 0.0),
            }
        })
        .collect();
    let mut result = Relocation::default();
    for (li, &t) in local.iter().enumerate() {
        *work += ds.transactions[t].len() as u64 * rep_len_sum;
        let (new, best_s) = choices[li];
        result.objective += best_s;
        if new != assignments[li] {
            result.relocations += 1;
            assignments[li] = new;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, EngineBuilder};
    use cxk_transact::{BuildOptions, DatasetBuilder};

    /// Engine-backed equivalents of the old free functions.
    fn fit_centralized(ds: &Dataset, config: &CxkConfig) -> ClusteringOutcome {
        EngineBuilder::from_cxk_config(config)
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("fit succeeds")
            .into_outcome()
    }

    fn fit_collaborative(
        ds: &Dataset,
        partition: &[Vec<usize>],
        config: &CxkConfig,
    ) -> ClusteringOutcome {
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

    /// Two well-separated groups: KDD data-mining papers and networking
    /// articles (different record tags AND disjoint topical vocabulary).
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
            "wireless networks routing protocols handoff",
            "multicast routing networks congestion packets",
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let mut labels = Vec::new();
        for (i, title) in mining.iter().enumerate() {
            builder
                .add_xml(&format!(
                    r#"<dblp><inproceedings key="m{i}"><author>A. Miner</author><title>{title}</title><booktitle>KDD</booktitle></inproceedings></dblp>"#
                ))
                .unwrap();
            labels.push(0);
        }
        for (i, title) in networking.iter().enumerate() {
            builder
                .add_xml(&format!(
                    r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{title}</title><journal>Networking</journal></article></dblp>"#
                ))
                .unwrap();
            labels.push(1);
        }
        (builder.finish(), labels)
    }

    fn config(k: usize) -> CxkConfig {
        CxkConfig {
            k,
            params: SimParams::new(0.5, 0.6),
            max_rounds: 20,
            max_inner: 10,
            seed: 7,
            cost: CostModel::default(),
            weighted_merge: true,
        }
    }

    #[test]
    fn centralized_recovers_two_clusters() {
        let (ds, labels) = dataset();
        let outcome = fit_centralized(&ds, &config(2));
        assert!(outcome.converged, "should converge");
        assert_eq!(outcome.assignments.len(), ds.transactions.len());
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.9, "F-measure = {f}");
        assert_eq!(outcome.total_bytes, 0, "centralized has no traffic");
        assert_eq!(outcome.m, 1);
    }

    #[test]
    fn collaborative_three_peers_stays_accurate() {
        let (ds, labels) = dataset();
        let n = ds.transactions.len();
        let partition = cxk_corpus::partition_equal(n, 3, 1);
        let outcome = fit_collaborative(&ds, &partition, &config(2));
        assert!(outcome.rounds <= 20);
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.7, "F-measure = {f}");
        assert!(outcome.total_bytes > 0, "peers must exchange data");
        assert!(outcome.total_messages > 0);
    }

    #[test]
    fn every_transaction_is_assigned_exactly_once() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let partition = cxk_corpus::partition_equal(n, 4, 2);
        let outcome = fit_collaborative(&ds, &partition, &config(3));
        assert_eq!(outcome.assignments.len(), n);
        for &a in &outcome.assignments {
            assert!(a <= outcome.trash_id());
        }
        let sizes = outcome.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn deterministic_given_seed() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let partition = cxk_corpus::partition_equal(n, 3, 5);
        let a = fit_collaborative(&ds, &partition, &config(2));
        let b = fit_collaborative(&ds, &partition, &config(2));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.simulated_seconds, b.simulated_seconds);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn more_peers_less_critical_path_work() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let solo = fit_centralized(&ds, &config(2));
        let spread = fit_collaborative(&ds, &cxk_corpus::partition_equal(n, 4, 3), &config(2));
        // Per-round critical-path work must shrink when data is spread.
        let solo_max = solo.per_round.iter().map(|r| r.max_work).max().unwrap();
        let spread_max = spread.per_round.iter().map(|r| r.max_work).max().unwrap();
        assert!(
            spread_max < solo_max,
            "spread {spread_max} !< solo {solo_max}"
        );
    }

    #[test]
    fn simulated_time_positive_and_rounds_traced() {
        let (ds, _) = dataset();
        let outcome = fit_centralized(&ds, &config(2));
        assert!(outcome.simulated_seconds > 0.0);
        assert_eq!(outcome.per_round.len(), outcome.rounds);
        assert_eq!(
            outcome.per_round.last().unwrap().done_peers,
            1,
            "final round reports done"
        );
    }

    #[test]
    fn gamma_one_sends_everything_to_trash() {
        let (ds, _) = dataset();
        let mut cfg = config(2);
        // γ = 1 with mixed content: nothing matches representatives except
        // identical items; most transactions share nothing identical enough.
        cfg.params = SimParams::new(0.5, 1.0);
        let outcome = fit_centralized(&ds, &cfg);
        // The initial representatives themselves still match (they are
        // transactions), but a large share lands in the trash cluster.
        assert!(
            outcome.trash_count() >= ds.transactions.len() / 2,
            "trash = {}",
            outcome.trash_count()
        );
    }

    #[test]
    fn k_larger_than_data_is_handled() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let cfg = config(n + 3);
        let outcome = fit_centralized(&ds, &cfg);
        assert_eq!(outcome.assignments.len(), n);
        let sizes = outcome.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn single_transaction_dataset() {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        builder
            .add_xml("<a><b>lonely content here</b></a>")
            .unwrap();
        let ds = builder.finish();
        let outcome = fit_centralized(&ds, &config(1));
        assert_eq!(outcome.assignments, vec![0]);
        assert!(outcome.converged);
    }
}
