//! Vector-space model baseline — the related-work family the paper argues
//! against (§2: \[13\] bag-of-words/bag-of-tags K-means, \[34\] combined
//! term/path vectors).
//!
//! Each XML transaction is flattened into a single sparse vector over two
//! disjoint blocks: the *term block* (sum of its items' `ttf.itf` TCU
//! vectors) and the *structure block* (one dimension per distinct tag
//! path). Both blocks are L2-normalized and mixed with the same `f` knob
//! as Eq. (1), so `f = 0` is a pure bag-of-words and `f = 1` a pure
//! bag-of-tag-paths representation. Clustering is spherical K-means
//! (cosine assignment, mean centroids re-normalized) — the standard
//! document-clustering setup of \[13\]/\[31\].
//!
//! What the flattening loses, by construction, is the paper's central
//! claim: the *pairing* of a path with its answer. Two transactions using
//! the same paths for different content (or vice versa) look alike to the
//! VSM once the blocks are mixed, whereas the tree-tuple item similarity
//! keeps the combination intact. The `vsm` benchmark quantifies this on
//! every corpus.

use crate::error::CxkError;
use crate::outcome::ClusteringOutcome;
use cxk_text::SparseVec;
use cxk_transact::Dataset;
use cxk_util::{DetRng, Symbol};
use std::time::Instant;

/// Configuration of the VSM K-means baseline.
#[derive(Debug, Clone)]
pub struct VsmConfig {
    /// Number of clusters.
    pub k: usize,
    /// Structure weight: the mix between the tag-path block and the term
    /// block, with the same reading as Eq. (1)'s `f`.
    pub f: f64,
    /// Round cap.
    pub max_rounds: usize,
    /// Seeding for the initial centroids (picked from distinct documents,
    /// like the CXK-means initialization).
    pub seed: u64,
}

impl VsmConfig {
    /// A config with the hybrid mix and the default round cap.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            f: 0.5,
            max_rounds: 50,
            seed: 0,
        }
    }
}

/// Flattens every transaction into its mixed two-block vector.
pub fn transaction_vectors(ds: &Dataset, f: f64) -> Vec<SparseVec> {
    assert!((0.0..=1.0).contains(&f), "f must be in [0,1], got {f}");
    // Terms occupy `0..|V|`; tag-path dimensions are offset past them so
    // the blocks never collide.
    let base = ds.vocabulary.len() as u32;
    ds.transactions
        .iter()
        .map(|tr| {
            let mut content = SparseVec::new();
            let mut structure_pairs = Vec::with_capacity(tr.len());
            for id in tr.items() {
                let item = &ds.items[id.index()];
                content.add_scaled(&item.vector, 1.0);
                structure_pairs.push((Symbol(base + item.tag_path.0), 1.0));
            }
            content.normalize();
            let mut structure = SparseVec::from_pairs(structure_pairs);
            structure.normalize();
            let mut v = structure;
            v.scale(f);
            v.add_scaled(&content, 1.0 - f);
            v.normalize();
            v
        })
        .collect()
}

/// Runs spherical K-means over the flattened transaction vectors. This is
/// the driver behind [`crate::engine::Algorithm::VsmKmeans`].
///
/// The outcome's `assignments` never use the trash id: the VSM baseline
/// has no γ-matching, so every transaction lands in its nearest cluster
/// (ties break toward the lowest cluster id; all-zero vectors join
/// cluster 0).
pub(crate) fn drive_vsm(ds: &Dataset, config: &VsmConfig) -> Result<ClusteringOutcome, CxkError> {
    let k = config.k;
    if k == 0 {
        return Err(CxkError::config(
            "k",
            "need at least one cluster, got k = 0",
        ));
    }
    if !(0.0..=1.0).contains(&config.f) {
        return Err(CxkError::config(
            "f",
            format!("must lie in [0, 1], got {}", config.f),
        ));
    }
    let start = Instant::now();
    let vectors = transaction_vectors(ds, config.f);
    let n = vectors.len();

    let mut centroids = initial_centroids(ds, &vectors, k, config.seed);
    let mut assignments = vec![0u32; n];
    let mut rounds = 0;
    let mut converged = false;

    for round in 1..=config.max_rounds {
        rounds = round;
        let fresh: Vec<u32> = vectors
            .iter()
            .map(|v| nearest_centroid(v, &centroids) as u32)
            .collect();
        let changed = fresh
            .iter()
            .zip(&assignments)
            .filter(|(a, b)| a != b)
            .count();
        assignments = fresh;
        if changed == 0 && round > 1 {
            converged = true;
            break;
        }

        // Mean centroid per cluster, re-normalized (spherical K-means).
        // Empty clusters keep their previous centroid.
        let mut sums: Vec<SparseVec> = vec![SparseVec::new(); k];
        let mut counts = vec![0usize; k];
        for (idx, &a) in assignments.iter().enumerate() {
            sums[a as usize].add_scaled(&vectors[idx], 1.0);
            counts[a as usize] += 1;
        }
        for (j, sum) in sums.into_iter().enumerate() {
            if counts[j] > 0 {
                let mut c = sum;
                c.normalize();
                centroids[j] = c;
            }
        }
    }

    Ok(ClusteringOutcome {
        assignments,
        k,
        m: 1,
        rounds,
        converged,
        simulated_seconds: start.elapsed().as_secs_f64(),
        total_work: (rounds * n * k) as u64,
        total_bytes: 0,
        total_messages: 0,
        per_round: Vec::new(),
    })
}

/// Picks `k` seed vectors from transactions of distinct documents,
/// mirroring the CXK-means initialization ("coming from distinct original
/// trees", Fig. 5).
fn initial_centroids(ds: &Dataset, vectors: &[SparseVec], k: usize, seed: u64) -> Vec<SparseVec> {
    let n = vectors.len();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut picks: Vec<usize> = Vec::with_capacity(k);
    let mut used_docs: Vec<u32> = Vec::new();
    for &t in &order {
        if picks.len() == k {
            break;
        }
        let doc = ds.doc_of[t];
        if !used_docs.contains(&doc) {
            used_docs.push(doc);
            picks.push(t);
        }
    }
    for &t in &order {
        if picks.len() == k {
            break;
        }
        if !picks.contains(&t) {
            picks.push(t);
        }
    }
    (0..k)
        .map(|j| {
            picks
                .get(j)
                .map(|&t| vectors[t].clone())
                .unwrap_or_default()
        })
        .collect()
}

/// Index of the most-cosine-similar centroid, lowest id on ties.
fn nearest_centroid(v: &SparseVec, centroids: &[SparseVec]) -> usize {
    let mut best = 0usize;
    let mut best_sim = f64::NEG_INFINITY;
    for (j, c) in centroids.iter().enumerate() {
        let sim = v.cosine(c);
        if sim > best_sim {
            best_sim = sim;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use cxk_transact::{BuildOptions, DatasetBuilder};

    /// Engine-backed VSM run.
    fn fit_vsm(ds: &Dataset, config: &VsmConfig) -> ClusteringOutcome {
        EngineBuilder::from_vsm_config(config)
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("vsm fit succeeds")
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

    #[test]
    fn content_mix_recovers_topics() {
        let (ds, labels) = dataset();
        let mut config = VsmConfig::new(2);
        config.f = 0.0;
        config.seed = 7;
        let outcome = fit_vsm(&ds, &config);
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.8, "bag-of-words should split topics: F = {f}");
        assert!(outcome.converged);
    }

    #[test]
    fn structure_mix_recovers_templates() {
        let (ds, labels) = dataset();
        let mut config = VsmConfig::new(2);
        config.f = 1.0;
        config.seed = 7;
        let outcome = fit_vsm(&ds, &config);
        // Structure and topic coincide in this fixture.
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.8, "bag-of-paths should split templates: F = {f}");
    }

    #[test]
    fn deterministic_across_runs() {
        let (ds, _) = dataset();
        let config = VsmConfig::new(3);
        let a = fit_vsm(&ds, &config);
        let b = fit_vsm(&ds, &config);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn never_uses_the_trash_cluster() {
        let (ds, _) = dataset();
        let outcome = fit_vsm(&ds, &VsmConfig::new(3));
        assert!(outcome.assignments.iter().all(|&a| a < 3));
        assert_eq!(outcome.trash_count(), 0);
    }

    #[test]
    fn more_clusters_than_transactions_is_safe() {
        let (ds, _) = dataset();
        let outcome = fit_vsm(&ds, &VsmConfig::new(64));
        assert_eq!(outcome.assignments.len(), ds.transactions.len());
    }

    #[test]
    fn vectors_are_unit_norm_and_blocks_disjoint() {
        let (ds, _) = dataset();
        let vectors = transaction_vectors(&ds, 0.5);
        let base = ds.vocabulary.len() as u32;
        for v in &vectors {
            assert!((v.norm() - 1.0).abs() < 1e-9, "norm = {}", v.norm());
            let has_structure = v.iter().any(|(s, _)| s.0 >= base);
            let has_content = v.iter().any(|(s, _)| s.0 < base);
            assert!(has_structure && has_content);
        }
    }

    #[test]
    fn pure_mixes_occupy_single_blocks() {
        let (ds, _) = dataset();
        let base = ds.vocabulary.len() as u32;
        for v in transaction_vectors(&ds, 0.0) {
            assert!(v.iter().all(|(s, _)| s.0 < base), "f=0 is content-only");
        }
        for v in transaction_vectors(&ds, 1.0) {
            assert!(v.iter().all(|(s, _)| s.0 >= base), "f=1 is structure-only");
        }
    }

    #[test]
    #[should_panic(expected = "f must be in [0,1]")]
    fn rejects_out_of_range_f() {
        let (ds, _) = dataset();
        let _ = transaction_vectors(&ds, 1.5);
    }
}
