//! Shared result types for the clustering drivers.
//!
//! A run's durable artifact — the converged representatives plus the frozen
//! preprocessing context — lives in [`crate::model`]; its snapshot APIs are
//! re-exported here so `outcome` is the one-stop module for everything a
//! finished run produces.

pub use crate::model::{load_model, save_model, ModelError, TrainedModel};

/// Per-round diagnostics. The simulated-clock drivers fill every field;
/// the threaded backend fills only `round` and `relocations` (its other
/// fields are 0).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Round number (1-based).
    pub round: usize,
    /// Transactions that changed cluster this round, over all peers.
    pub relocations: u64,
    /// Maximum per-peer work units this round (the round's critical path).
    pub max_work: u64,
    /// Total bytes transferred this round.
    pub bytes: u64,
    /// Peers that reported `done` this round.
    pub done_peers: usize,
}

/// The result of a clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringOutcome {
    /// Cluster id per dataset transaction: `0..k` proper clusters, `k` is
    /// the trash cluster (§4.2's `(k+1)`-th cluster).
    pub assignments: Vec<u32>,
    /// Number of proper clusters `k`.
    pub k: usize,
    /// Number of peers `m`.
    pub m: usize,
    /// Collaborative rounds executed.
    pub rounds: usize,
    /// Whether every peer reported `done` (vs. hitting the round cap).
    pub converged: bool,
    /// Simulated elapsed seconds under the cost model (§4.3.4).
    pub simulated_seconds: f64,
    /// Total main-memory work units over all peers.
    pub total_work: u64,
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// Total messages exchanged.
    pub total_messages: u64,
    /// Per-round diagnostics.
    pub per_round: Vec<RoundTrace>,
}

impl ClusteringOutcome {
    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.k as u32
    }

    /// Sizes of the `k` proper clusters plus the trash cluster (last).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k + 1];
        for &a in &self.assignments {
            sizes[a as usize] += 1;
        }
        sizes
    }

    /// Number of transactions in the trash cluster.
    pub fn trash_count(&self) -> usize {
        let trash = self.trash_id();
        self.assignments.iter().filter(|&&a| a == trash).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(assignments: Vec<u32>, k: usize) -> ClusteringOutcome {
        ClusteringOutcome {
            assignments,
            k,
            m: 1,
            rounds: 1,
            converged: true,
            simulated_seconds: 0.0,
            total_work: 0,
            total_bytes: 0,
            total_messages: 0,
            per_round: Vec::new(),
        }
    }

    #[test]
    fn cluster_sizes_count_trash_separately() {
        let o = outcome(vec![0, 0, 1, 2, 2, 2], 2);
        // k = 2: clusters 0, 1 proper, 2 = trash.
        assert_eq!(o.cluster_sizes(), vec![2, 1, 3]);
        assert_eq!(o.trash_count(), 3);
        assert_eq!(o.trash_id(), 2);
    }

    #[test]
    fn no_trash_when_everything_assigned() {
        let o = outcome(vec![0, 1, 1, 0], 3);
        assert_eq!(o.trash_count(), 0);
        assert_eq!(o.cluster_sizes(), vec![2, 2, 0, 0]);
    }
}
