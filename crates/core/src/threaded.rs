//! CXK-means over real peer threads and the `cxk_p2p` message network.
//!
//! Each peer is an OS thread owning its local transactions; representatives
//! and status flags travel as typed messages over `std::sync::mpsc`
//! channels, with wire sizes metered by the network's traffic ledger. This
//! runner exercises the *actual* distributed protocol — concurrent peers,
//! routed local representatives, owner-computed global representatives,
//! cached summaries for `done` peers (which, per Fig. 5, broadcast only
//! their flag) — and reports real wall-clock time.
//!
//! The figure harnesses use the simulated-clock runner in [`crate::cxk`]
//! instead (its clock scales to 19 peers regardless of host core count);
//! this runner backs the protocol integration tests and the `p2p_cluster`
//! example. Both runners compute the same per-round mathematics, so for
//! identical seeds they produce identical partitions — asserted by the
//! protocol integration tests.

use crate::cxk::{check_shape, local_clustering_phase, select_initial_reps, CxkConfig};
use crate::error::CxkError;
use crate::globalrep::compute_global_representative;
use crate::outcome::{ClusteringOutcome, RoundTrace};
use crate::rep::{prepare_representatives, Representative};
use cxk_p2p::{Network, NetworkError, Peer, PeerId, Wire};
use cxk_transact::Dataset;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Protocol messages.
#[derive(Debug, Clone)]
enum CxkMsg {
    /// Per-round status flag (Fig. 5's `V_i`) plus the peer's local
    /// relocation objective (for the shared stale-objective guard).
    Status {
        round: usize,
        done: bool,
        objective: f64,
    },
    /// Local representatives routed to the owner of their clusters, with
    /// cluster sizes as weights.
    LocalReps {
        round: usize,
        reps: Vec<(usize, Representative, u64)>,
    },
    /// Owner broadcast of freshly combined global representatives.
    GlobalReps {
        round: usize,
        reps: Vec<(usize, Representative)>,
    },
}

impl Wire for CxkMsg {
    fn wire_size(&self) -> usize {
        match self {
            CxkMsg::Status { .. } => 16,
            CxkMsg::LocalReps { reps, .. } => {
                16 + reps
                    .iter()
                    .map(|(_, r, _)| 16 + r.wire_size())
                    .sum::<usize>()
            }
            CxkMsg::GlobalReps { reps, .. } => {
                16 + reps.iter().map(|(_, r)| 8 + r.wire_size()).sum::<usize>()
            }
        }
    }
}

/// Per-peer thread result.
struct PeerResult {
    local: Vec<usize>,
    assignments: Vec<u32>,
    work: u64,
    rounds: usize,
    converged: bool,
    relocations_per_round: Vec<u64>,
}

/// Runs the collaborative protocol with one real thread per peer. Returns
/// the same outcome type as the simulated runner; `simulated_seconds`
/// carries measured wall-clock seconds. This is the driver behind
/// [`crate::engine::Backend::ThreadedP2p`]; a peer thread dying mid-run
/// surfaces as [`CxkError::Protocol`].
pub(crate) fn drive_threaded(
    ds: &Dataset,
    partition: &[Vec<usize>],
    config: &CxkConfig,
) -> Result<ClusteringOutcome, CxkError> {
    let m = partition.len();
    let k = config.k;
    check_shape(m, k)?;

    let initial = select_initial_reps(ds, partition, k, config.seed);
    let (net, peer_handles) = Network::create::<CxkMsg>(m);

    let start = Instant::now();
    let results: Vec<PeerResult> = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(m);
        for (i, handle) in peer_handles.into_iter().enumerate() {
            let local = partition[i].clone();
            let initial = initial.clone();
            let config = &*config;
            joins.push(scope.spawn(move || peer_main(ds, handle, local, initial, config, m, k)));
        }
        // Join every thread before converting to a result: a short-circuit
        // would leave scoped threads to the scope's implicit join, which
        // re-panics on a second panicked peer instead of reporting it.
        let joined: Vec<_> = joins.into_iter().map(|j| j.join()).collect();
        joined
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map_err(|_| CxkError::protocol(format!("peer thread {i} panicked mid-run")))
            })
            .collect::<Result<Vec<_>, CxkError>>()
    })?;
    let elapsed = start.elapsed().as_secs_f64();

    let mut assignments = vec![k as u32; ds.transactions.len()];
    let mut total_work = 0u64;
    let mut rounds = 0;
    let mut converged = true;
    for r in &results {
        for (li, &t) in r.local.iter().enumerate() {
            assignments[t] = r.assignments[li];
        }
        total_work += r.work;
        rounds = rounds.max(r.rounds);
        converged &= r.converged;
    }

    let per_round: Vec<RoundTrace> = (0..rounds)
        .map(|ri| RoundTrace {
            round: ri + 1,
            relocations: results
                .iter()
                .map(|r| r.relocations_per_round.get(ri).copied().unwrap_or(0))
                .sum(),
            max_work: 0,
            bytes: 0,
            done_peers: 0,
        })
        .collect();

    Ok(ClusteringOutcome {
        assignments,
        k,
        m,
        rounds,
        converged,
        simulated_seconds: elapsed,
        total_work,
        total_bytes: net.ledger().bytes(),
        total_messages: net.ledger().messages(),
        per_round,
    })
}

/// The peer state machine: one iteration of the outer loop of Fig. 5 per
/// round, in lockstep with all other peers. Messages belonging to a future
/// phase or round are buffered.
fn peer_main(
    ds: &Dataset,
    net: Peer<CxkMsg>,
    local: Vec<usize>,
    mut global_reps: Vec<Representative>,
    config: &CxkConfig,
    m: usize,
    k: usize,
) -> PeerResult {
    let ctx = ds.sim_ctx(config.params);
    let me = net.id.index();
    let owner = |j: usize| j % m;
    let owned: Vec<usize> = (0..k).filter(|&j| owner(j) == me).collect();
    let owners_present: Vec<usize> = (0..m).filter(|&i| (0..k).any(|j| owner(j) == i)).collect();

    let mut assignments = vec![k as u32; local.len()];
    let mut local_reps: Vec<Representative> = vec![Representative::empty(); k];
    // Owner cache: last (rep, weight) per sending peer, per owned cluster
    // slot. Done peers skip sending; their cached entry stays valid.
    let mut cache: Vec<Vec<(Representative, u64)>> = owned
        .iter()
        .map(|_| vec![(Representative::empty(), 0u64); m])
        .collect();
    let mut inbox: VecDeque<(usize, CxkMsg)> = VecDeque::new();
    let mut work = 0u64;
    let mut relocations_per_round = Vec::new();
    let mut converged = false;
    let mut rounds = 0;
    let mut best_objective = f64::NEG_INFINITY;
    let mut stale_rounds = 0usize;

    for round in 1..=config.max_rounds {
        rounds = round;

        // Phase A: local clustering — first pass against the received
        // global representatives, then local K-means to stability.
        let global = prepare_representatives(ctx.tag_sim, &global_reps);
        let phase = local_clustering_phase(
            ds,
            &ctx,
            &local,
            &mut assignments,
            &global,
            k,
            config.max_inner,
            &mut work,
        );
        relocations_per_round.push(phase.relocations);
        let weights = phase.weights;
        let done = phase
            .local_reps
            .iter()
            .zip(&local_reps)
            .all(|(new, old)| new.same_items(old));
        local_reps = phase.local_reps;

        // Phase B: status broadcast (flag + local objective).
        if m > 1 {
            net.broadcast(&CxkMsg::Status {
                round,
                done,
                objective: phase.objective,
            })
            .expect("status broadcast");
        }

        // Phase C: ship local representatives to their owners (done peers
        // send only the flag; owners reuse the cache).
        if !done && m > 1 {
            for o in 0..m {
                if o == me {
                    continue;
                }
                let reps: Vec<(usize, Representative, u64)> = (0..k)
                    .filter(|&j| owner(j) == o)
                    .map(|j| {
                        let weight = if config.weighted_merge {
                            weights[j]
                        } else {
                            u64::from(weights[j] > 0)
                        };
                        (j, local_reps[j].clone(), weight)
                    })
                    .collect();
                if !reps.is_empty() {
                    net.send(PeerId(o as u32), CxkMsg::LocalReps { round, reps })
                        .expect("local rep send");
                }
            }
        }
        for (slot, &j) in owned.iter().enumerate() {
            let weight = if config.weighted_merge {
                weights[j]
            } else {
                u64::from(weights[j] > 0)
            };
            cache[slot][me] = (local_reps[j].clone(), weight);
        }

        // Phase D: collect every peer's status, plus local representatives
        // from every continuing peer (owners only).
        let mut statuses: Vec<Option<bool>> = vec![None; m];
        statuses[me] = Some(done);
        let mut objectives: Vec<f64> = vec![0.0; m];
        objectives[me] = phase.objective;
        let mut got_reps = vec![false; m];
        got_reps[me] = true;
        loop {
            let all_status = statuses.iter().all(Option::is_some);
            if all_status {
                let need_more = !owned.is_empty()
                    && (0..m).any(|i| i != me && statuses[i] == Some(false) && !got_reps[i]);
                if !need_more {
                    break;
                }
            }
            let (from, msg) = recv_matching(&net, &mut inbox, |m| {
                matches!(
                    m,
                    CxkMsg::Status { round: r, .. } | CxkMsg::LocalReps { round: r, .. }
                    if *r == round
                )
            });
            match msg {
                CxkMsg::Status {
                    done: d, objective, ..
                } => {
                    statuses[from] = Some(d);
                    objectives[from] = objective;
                }
                CxkMsg::LocalReps { reps, .. } => {
                    for (j, rep, weight) in reps {
                        let slot = owned
                            .iter()
                            .position(|&oj| oj == j)
                            .expect("routed to the right owner");
                        cache[slot][from] = (rep, weight);
                    }
                    got_reps[from] = true;
                }
                CxkMsg::GlobalReps { .. } => unreachable!("predicate admits only phase-D messages"),
            }
        }

        // Every peer evaluates the same stale-objective guard on the same
        // numbers, so all peers break in the same round deterministically.
        let global_objective: f64 = objectives.iter().sum();
        if global_objective > best_objective * (1.0 + 1e-3) + 1e-9 {
            best_objective = global_objective;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }

        if statuses.iter().all(|s| *s == Some(true)) || stale_rounds >= 2 {
            converged = true;
            break;
        }

        // Phase E: owners combine cached local representatives into global
        // ones and broadcast them.
        let fresh: Vec<(usize, Representative)> = owned
            .iter()
            .enumerate()
            .map(|(slot, &j)| {
                let g = compute_global_representative(&ctx, &cache[slot], &mut work);
                (j, g)
            })
            .collect();
        if m > 1 && !fresh.is_empty() {
            net.broadcast(&CxkMsg::GlobalReps {
                round,
                reps: fresh.clone(),
            })
            .expect("global rep broadcast");
        }
        for (j, g) in fresh {
            global_reps[j] = g;
        }

        // Phase F: receive global representatives from every other owner.
        let mut got_global = vec![false; m];
        got_global[me] = true;
        while owners_present.iter().any(|&o| o != me && !got_global[o]) {
            let (from, msg) = recv_matching(
                &net,
                &mut inbox,
                |m| matches!(m, CxkMsg::GlobalReps { round: r, .. } if *r == round),
            );
            match msg {
                CxkMsg::GlobalReps { reps, .. } => {
                    for (j, g) in reps {
                        global_reps[j] = g;
                    }
                    got_global[from] = true;
                }
                _ => unreachable!("predicate admits only global representatives"),
            }
        }
    }

    PeerResult {
        local,
        assignments,
        work,
        rounds,
        converged,
        relocations_per_round,
    }
}

/// How long a peer waits on the fabric before concluding the protocol is
/// wedged. In-process channels deliver in microseconds; a minute of
/// silence means a sibling thread died or deadlocked, and a liveness
/// panic with the typed [`NetworkError::Timeout`] beats hanging the whole
/// `fit` forever on a blocking receive.
const PEER_RECV_DEADLINE: Duration = Duration::from_secs(60);

/// Returns the first message satisfying `pred`, searching the buffered
/// inbox before waiting on the network. Non-matching network messages are
/// buffered for later phases; buffered messages are never re-examined in
/// the same call, so a wait can neither spin nor starve the channel. The
/// wait is bounded by [`PEER_RECV_DEADLINE`]: a typed
/// [`NetworkError::Timeout`] is a liveness failure and panics with a
/// diagnostic instead of blocking forever.
fn recv_matching(
    net: &Peer<CxkMsg>,
    inbox: &mut VecDeque<(usize, CxkMsg)>,
    pred: impl Fn(&CxkMsg) -> bool,
) -> (usize, CxkMsg) {
    if let Some(pos) = inbox.iter().position(|(_, m)| pred(m)) {
        return inbox.remove(pos).expect("position is in bounds");
    }
    loop {
        let envelope = match net.recv_timeout(PEER_RECV_DEADLINE) {
            Ok(envelope) => envelope,
            Err(NetworkError::Timeout) => panic!(
                "peer {} heard nothing for {PEER_RECV_DEADLINE:?}: a sibling peer died or the protocol deadlocked",
                net.id.index()
            ),
            Err(e) => panic!("peer {} receive failed: {e}", net.id.index()),
        };
        let entry = (envelope.from.index(), envelope.payload);
        if pred(&entry.1) {
            return entry;
        }
        inbox.push_back(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, EngineBuilder};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    /// Engine-backed threaded run over an explicit partition.
    fn fit_threaded(
        ds: &Dataset,
        partition: &[Vec<usize>],
        config: &CxkConfig,
    ) -> ClusteringOutcome {
        EngineBuilder::from_cxk_config(config)
            .backend(Backend::ThreadedP2p {
                peers: partition.len(),
            })
            .partition(partition.to_vec())
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("threaded fit succeeds")
            .into_outcome()
    }

    fn dataset() -> (Dataset, Vec<u32>) {
        let mining = [
            "mining frequent patterns clustering trees",
            "clustering transactional data mining streams",
            "frequent subtree mining patterns forest",
            "partitional clustering centroids mining",
        ];
        let networking = [
            "routing congestion protocols networks",
            "packet routing networks latency congestion",
            "congestion control protocols bandwidth networks",
            "network routing topology protocols packets",
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
    fn threaded_matches_simulated_partition() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 3, 1);
        let threaded = fit_threaded(&ds, &partition, &config(2));
        let simulated = EngineBuilder::from_cxk_config(&config(2))
            .backend(Backend::SimulatedP2p { peers: 3 })
            .partition(partition.clone())
            .build()
            .expect("valid")
            .fit(&ds)
            .expect("fits")
            .into_outcome();
        assert_eq!(threaded.assignments, simulated.assignments);
        assert_eq!(threaded.rounds, simulated.rounds);
    }

    #[test]
    fn threaded_single_peer_works_without_messages() {
        let (ds, labels) = dataset();
        let all: Vec<usize> = (0..ds.transactions.len()).collect();
        let outcome = fit_threaded(&ds, &[all], &config(2));
        assert!(outcome.converged);
        assert_eq!(outcome.total_messages, 0);
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.7, "F = {f}");
    }

    #[test]
    fn threaded_traffic_is_metered() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 4, 2);
        let outcome = fit_threaded(&ds, &partition, &config(2));
        assert!(outcome.total_bytes > 0);
        assert!(outcome.total_messages > 0);
        assert!(outcome.simulated_seconds > 0.0);
    }

    #[test]
    fn threaded_more_peers_than_clusters() {
        // m > k: some peers own no cluster and must not deadlock phase F.
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 5, 3);
        let outcome = fit_threaded(&ds, &partition, &config(2));
        assert_eq!(outcome.assignments.len(), ds.transactions.len());
        assert!(outcome.rounds >= 1);
    }
}
