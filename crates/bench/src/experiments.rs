//! The experiment implementations behind every table and figure.

use crate::data::{CorpusKind, Prepared};
use cxk_core::{
    Algorithm, Backend, ChurnOutcome, ChurnSchedule, ClusteringOutcome, CxkConfig, EngineBuilder,
};
use cxk_corpus::{partition_equal, partition_unequal, ClusteringSetting};
use cxk_eval::{f_measure, RunStats};
use cxk_p2p::simclock::{analytic_optimum_m, CostModel};
use cxk_transact::{Dataset, SimParams};

/// Engine-backed collaborative CXK-means over an explicit partition — the
/// shape every experiment uses.
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
        .expect("experiment configuration is valid")
        .fit(ds)
        .expect("experiment fit succeeds")
        .into_outcome()
}

/// Engine-backed centralized CXK-means.
fn fit_centralized(ds: &Dataset, config: &CxkConfig) -> ClusteringOutcome {
    EngineBuilder::from_cxk_config(config)
        .build()
        .expect("experiment configuration is valid")
        .fit(ds)
        .expect("experiment fit succeeds")
        .into_outcome()
}

/// Engine-backed PK-means over an explicit partition, on the same
/// configuration CXK-means reads.
fn fit_pk(ds: &Dataset, partition: &[Vec<usize>], config: &CxkConfig) -> ClusteringOutcome {
    EngineBuilder::from_cxk_config(config)
        .algorithm(Algorithm::PkMeans)
        .backend(Backend::SimulatedP2p {
            peers: partition.len(),
        })
        .partition(partition.to_vec())
        .build()
        .expect("experiment configuration is valid")
        .fit(ds)
        .expect("experiment fit succeeds")
        .into_outcome()
}

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
        .expect("experiment configuration is valid")
        .fit(ds)
        .expect("experiment fit succeeds")
        .into_churn_outcome()
}

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Matching threshold γ.
    pub gamma: f64,
    /// Stochastic repetitions to average (the paper uses 10).
    pub runs: usize,
    /// Average over the setting's full `f` grid (paper style) instead of
    /// its midpoint only (quick mode).
    pub full_f_grid: bool,
    /// Base seed; run `r` derives seed `seed + r`.
    pub seed: u64,
    /// Round cap per clustering run.
    pub max_rounds: usize,
    /// Cost model for simulated time.
    pub cost: CostModel,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            gamma: 0.7,
            runs: 3,
            full_f_grid: false,
            seed: 0xEC0,
            max_rounds: 30,
            cost: CostModel::default(),
        }
    }
}

/// γ values that recover the reference classes best on the synthetic
/// corpora, per clustering setting — the analogue of the paper's
/// observation that the best γ sits near 0.85 on the real collections.
/// Chosen by the `calibrate` binary's centralized sweep; recorded in
/// `EXPERIMENTS.md`.
pub fn default_gamma_for(kind: CorpusKind, setting: ClusteringSetting) -> f64 {
    match (kind, setting) {
        (CorpusKind::Dblp, ClusteringSetting::Content) => 0.35,
        (CorpusKind::Dblp, ClusteringSetting::Hybrid) => 0.60,
        (CorpusKind::Dblp, ClusteringSetting::Structure) => 0.60,
        (CorpusKind::Ieee, ClusteringSetting::Content) => 0.35,
        (CorpusKind::Ieee, ClusteringSetting::Hybrid) => 0.60,
        (CorpusKind::Ieee, ClusteringSetting::Structure) => 0.70,
        (CorpusKind::Shakespeare, ClusteringSetting::Content) => 0.45,
        (CorpusKind::Shakespeare, ClusteringSetting::Hybrid) => 0.60,
        (CorpusKind::Shakespeare, ClusteringSetting::Structure) => 0.55,
        // Wikipedia is content-driven only; other settings inherit it.
        (CorpusKind::Wikipedia, _) => 0.55,
    }
}

/// The hybrid-setting γ, used by the efficiency experiments (Fig. 7/8 run
/// the structure/content-driven setting).
pub fn default_gamma(kind: CorpusKind) -> f64 {
    default_gamma_for(kind, ClusteringSetting::Hybrid)
}

fn f_values(setting: ClusteringSetting, full: bool) -> Vec<f64> {
    if full {
        setting.f_grid().to_vec()
    } else {
        vec![setting.f_mid()]
    }
}

fn make_config(k: usize, f: f64, run_seed: u64, opts: &ExperimentOptions) -> CxkConfig {
    CxkConfig {
        k,
        params: SimParams::new(f, opts.gamma),
        max_rounds: opts.max_rounds,
        max_inner: 10,
        seed: run_seed,
        cost: opts.cost,
        weighted_merge: true,
    }
}

// ---------------------------------------------------------------------------
// Fig. 7: clustering time vs. number of peers, full and halved corpora.
// ---------------------------------------------------------------------------

/// One point of a Fig. 7 curve.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Corpus name.
    pub corpus: &'static str,
    /// `"full"` or `"half"`.
    pub series: &'static str,
    /// Network size.
    pub m: usize,
    /// Mean simulated seconds.
    pub seconds: f64,
    /// Mean rounds to convergence.
    pub rounds: f64,
    /// Mean kilobytes transferred.
    pub kbytes: f64,
}

/// Runs the Fig. 7 experiment on one prepared corpus: structure/content-
/// driven clustering (`f ∈ [0.4, 0.6]`), equal partitioning, sweeping `m`.
pub fn fig7(
    prepared: &Prepared,
    series: &'static str,
    ms: &[usize],
    opts: &ExperimentOptions,
) -> Vec<Fig7Row> {
    let (_, k) = prepared.setting(ClusteringSetting::Hybrid);
    let n = prepared.dataset.stats.transactions;
    let fs = f_values(ClusteringSetting::Hybrid, opts.full_f_grid);
    let mut rows = Vec::new();
    for &m in ms {
        let mut secs = RunStats::new();
        let mut rounds = RunStats::new();
        let mut bytes = RunStats::new();
        for run in 0..opts.runs {
            for (fi, &f) in fs.iter().enumerate() {
                let run_seed = opts.seed + (run * fs.len() + fi) as u64;
                let partition = partition_equal(n, m, run_seed);
                let config = make_config(k, f, run_seed, opts);
                let outcome = fit_collaborative(&prepared.dataset, &partition, &config);
                secs.push(outcome.simulated_seconds);
                rounds.push(outcome.rounds as f64);
                bytes.push(outcome.total_bytes as f64);
            }
        }
        rows.push(Fig7Row {
            corpus: prepared.kind.name(),
            series,
            m,
            seconds: secs.mean(),
            rounds: rounds.mean(),
            kbytes: bytes.mean() / 1024.0,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Tables 1 and 2: F-measure vs. number of peers.
// ---------------------------------------------------------------------------

/// One row of Table 1 / Table 2.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Corpus name.
    pub corpus: &'static str,
    /// Clustering setting name.
    pub setting: &'static str,
    /// Number of clusters (the paper's "# of clusters" column).
    pub k: usize,
    /// Network size (the paper's "# of nodes").
    pub m: usize,
    /// Mean F-measure over runs × f-grid.
    pub f_mean: f64,
    /// Standard deviation.
    pub f_std: f64,
}

/// Runs one (corpus, setting) block of Table 1 (`equal = true`) or
/// Table 2 (`equal = false`).
pub fn accuracy_table(
    prepared: &Prepared,
    setting: ClusteringSetting,
    ms: &[usize],
    equal: bool,
    opts: &ExperimentOptions,
) -> Vec<TableRow> {
    let (labels, k) = prepared.setting(setting);
    let n = prepared.dataset.stats.transactions;
    let fs = f_values(setting, opts.full_f_grid);
    let mut rows = Vec::new();
    for &m in ms {
        let mut stats = RunStats::new();
        for run in 0..opts.runs {
            for (fi, &f) in fs.iter().enumerate() {
                let run_seed = opts.seed + (run * fs.len() + fi) as u64;
                let partition = if equal {
                    partition_equal(n, m, run_seed)
                } else {
                    partition_unequal(n, m, run_seed)
                };
                let config = make_config(k, f, run_seed, opts);
                let outcome = fit_collaborative(&prepared.dataset, &partition, &config);
                stats.push(f_measure(labels, &outcome.assignments));
            }
        }
        rows.push(TableRow {
            corpus: prepared.kind.name(),
            setting: setting.name(),
            k,
            m,
            f_mean: stats.mean(),
            f_std: stats.std_dev(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 8 (+ §5.5.3): CXK-means vs. PK-means.
// ---------------------------------------------------------------------------

/// One point of a Fig. 8 curve, plus the accuracy comparison of §5.5.3.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Corpus name.
    pub corpus: &'static str,
    /// Network size.
    pub m: usize,
    /// Mean CXK-means simulated seconds.
    pub cxk_seconds: f64,
    /// Mean PK-means simulated seconds.
    pub pk_seconds: f64,
    /// Mean CXK-means kilobytes.
    pub cxk_kbytes: f64,
    /// Mean PK-means kilobytes.
    pub pk_kbytes: f64,
    /// Mean CXK-means F-measure.
    pub cxk_f: f64,
    /// Mean PK-means F-measure.
    pub pk_f: f64,
}

/// Runs the Fig. 8 comparison (structure/content-driven, equal partition):
/// both algorithms read one configuration — the same inner-pass cap,
/// round cap and seed — and so start from the same initial
/// representatives, per §5.5.3.
pub fn fig8(prepared: &Prepared, ms: &[usize], opts: &ExperimentOptions) -> Vec<Fig8Row> {
    let (labels, k) = prepared.setting(ClusteringSetting::Hybrid);
    let n = prepared.dataset.stats.transactions;
    let fs = f_values(ClusteringSetting::Hybrid, opts.full_f_grid);
    let mut rows = Vec::new();
    for &m in ms {
        let mut cxk_secs = RunStats::new();
        let mut pk_secs = RunStats::new();
        let mut cxk_bytes = RunStats::new();
        let mut pk_bytes = RunStats::new();
        let mut cxk_fm = RunStats::new();
        let mut pk_fm = RunStats::new();
        for run in 0..opts.runs {
            for (fi, &f) in fs.iter().enumerate() {
                let run_seed = opts.seed + (run * fs.len() + fi) as u64;
                let partition = partition_equal(n, m, run_seed);
                let config = make_config(k, f, run_seed, opts);
                let cxk = fit_collaborative(&prepared.dataset, &partition, &config);
                let pk = fit_pk(&prepared.dataset, &partition, &config);
                cxk_secs.push(cxk.simulated_seconds);
                pk_secs.push(pk.simulated_seconds);
                cxk_bytes.push(cxk.total_bytes as f64);
                pk_bytes.push(pk.total_bytes as f64);
                cxk_fm.push(f_measure(labels, &cxk.assignments));
                pk_fm.push(f_measure(labels, &pk.assignments));
            }
        }
        rows.push(Fig8Row {
            corpus: prepared.kind.name(),
            m,
            cxk_seconds: cxk_secs.mean(),
            pk_seconds: pk_secs.mean(),
            cxk_kbytes: cxk_bytes.mean() / 1024.0,
            pk_kbytes: pk_bytes.mean() / 1024.0,
            cxk_f: cxk_fm.mean(),
            pk_f: pk_fm.mean(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablation: weighted vs unweighted global-representative combination.
// ---------------------------------------------------------------------------

/// One row of the meta-representative weighting ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Corpus name.
    pub corpus: &'static str,
    /// Network size.
    pub m: usize,
    /// Mean F with cluster-size-weighted combination (the paper's scheme).
    pub weighted_f: f64,
    /// Mean F with unweighted combination.
    pub unweighted_f: f64,
}

/// Isolates the benefit of weighting local representatives by `|C_j^i|`
/// when combining global representatives (§4.2's meta-representative
/// rationale, which §5.5.3 credits for CXK-means' accuracy edge over
/// PK-means).
pub fn weighting_ablation(
    prepared: &Prepared,
    ms: &[usize],
    opts: &ExperimentOptions,
) -> Vec<AblationRow> {
    let (labels, k) = prepared.setting(ClusteringSetting::Hybrid);
    let n = prepared.dataset.stats.transactions;
    let fs = f_values(ClusteringSetting::Hybrid, opts.full_f_grid);
    let mut rows = Vec::new();
    for &m in ms {
        let mut weighted = RunStats::new();
        let mut unweighted = RunStats::new();
        for run in 0..opts.runs {
            for (fi, &f) in fs.iter().enumerate() {
                let run_seed = opts.seed + (run * fs.len() + fi) as u64;
                let partition = partition_equal(n, m, run_seed);
                let mut config = make_config(k, f, run_seed, opts);
                let outcome = fit_collaborative(&prepared.dataset, &partition, &config);
                weighted.push(f_measure(labels, &outcome.assignments));
                config.weighted_merge = false;
                let outcome = fit_collaborative(&prepared.dataset, &partition, &config);
                unweighted.push(f_measure(labels, &outcome.assignments));
            }
        }
        rows.push(AblationRow {
            corpus: prepared.kind.name(),
            m,
            weighted_f: weighted.mean(),
            unweighted_f: unweighted.mean(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Baseline: flat vector-space K-means ([13]/[34] of §2).
// ---------------------------------------------------------------------------

/// One row of the VSM baseline comparison.
#[derive(Debug, Clone)]
pub struct VsmRow {
    /// Corpus name.
    pub corpus: &'static str,
    /// Clustering setting name.
    pub setting: &'static str,
    /// Number of clusters.
    pub k: usize,
    /// Mean centralized CXK-means F-measure.
    pub cxk_f: f64,
    /// Mean flat-VSM spherical K-means F-measure.
    pub vsm_f: f64,
}

/// Compares centralized CXK-means against the flat vector-space K-means
/// baseline on one (corpus, setting) block. Both use the same `k`, the
/// same `f` values and paired seeds; the VSM has no γ (it assigns every
/// transaction to its nearest centroid).
pub fn vsm_comparison(
    prepared: &Prepared,
    setting: ClusteringSetting,
    opts: &ExperimentOptions,
) -> VsmRow {
    let (labels, k) = prepared.setting(setting);
    let fs = f_values(setting, opts.full_f_grid);
    let mut cxk_stats = RunStats::new();
    let mut vsm_stats = RunStats::new();
    for run in 0..opts.runs {
        for (fi, &f) in fs.iter().enumerate() {
            let run_seed = opts.seed + (run * fs.len() + fi) as u64;
            let config = make_config(k, f, run_seed, opts);
            let cxk = fit_centralized(&prepared.dataset, &config);
            cxk_stats.push(f_measure(labels, &cxk.assignments));

            let vsm_config = cxk_core::VsmConfig {
                k,
                f,
                max_rounds: opts.max_rounds,
                seed: run_seed,
            };
            let vsm = EngineBuilder::from_vsm_config(&vsm_config)
                .build()
                .expect("experiment configuration is valid")
                .fit(&prepared.dataset)
                .expect("experiment fit succeeds")
                .into_outcome();
            vsm_stats.push(f_measure(labels, &vsm.assignments));
        }
    }
    VsmRow {
        corpus: prepared.kind.name(),
        setting: setting.name(),
        k,
        cxk_f: cxk_stats.mean(),
        vsm_f: vsm_stats.mean(),
    }
}

// ---------------------------------------------------------------------------
// Ablation: semantic tag matching on heterogeneous markup (§6 future work).
// ---------------------------------------------------------------------------

/// One row of the semantic-matching ablation.
#[derive(Debug, Clone)]
pub struct SemanticRow {
    /// Number of markup dialects in the corpus.
    pub dialects: usize,
    /// Network size.
    pub m: usize,
    /// Mean F with the paper's exact (Dirichlet) tag match.
    pub exact_f: f64,
    /// Mean F with the synonym-thesaurus tag match.
    pub thesaurus_f: f64,
}

/// The thesaurus matching the corpus generator's dialect table.
pub fn dialect_thesaurus() -> cxk_semantic::Thesaurus {
    let mut thesaurus = cxk_semantic::Thesaurus::new();
    for ring in cxk_corpus::dialect::synonym_rings() {
        thesaurus.add_ring(ring);
    }
    thesaurus
}

/// Measures what semantic tag matching buys on heterogeneous markup:
/// structure-driven clustering of a DBLP corpus whose documents are
/// authored in `dialects` synonym vocabularies, with the paper's exact
/// `Δ` versus a synonym-ring `Δ` (`cxk_semantic`). With one dialect the
/// two must coincide; with several, exact matching splits each structural
/// class into per-dialect fragments while the thesaurus re-unifies them.
pub fn semantic_ablation(
    prepared: &mut Prepared,
    dialects: usize,
    ms: &[usize],
    opts: &ExperimentOptions,
) -> Vec<SemanticRow> {
    let (labels, k) = prepared.setting(ClusteringSetting::Structure);
    let labels = labels.to_vec();
    let n = prepared.dataset.stats.transactions;
    let fs = f_values(ClusteringSetting::Structure, opts.full_f_grid);
    let matcher = dialect_thesaurus().matcher(&prepared.dataset.labels);

    let mut rows = Vec::new();
    for &m in ms {
        let mut exact = RunStats::new();
        let mut thesaurus = RunStats::new();
        for run in 0..opts.runs {
            for (fi, &f) in fs.iter().enumerate() {
                let run_seed = opts.seed + (run * fs.len() + fi) as u64;
                let partition = partition_equal(n, m, run_seed);
                let config = make_config(k, f, run_seed, opts);

                prepared.dataset.rebuild_tag_sim(&cxk_transact::ExactMatch);
                let outcome = fit_collaborative(&prepared.dataset, &partition, &config);
                exact.push(f_measure(&labels, &outcome.assignments));

                prepared.dataset.rebuild_tag_sim(&matcher);
                let outcome = fit_collaborative(&prepared.dataset, &partition, &config);
                thesaurus.push(f_measure(&labels, &outcome.assignments));
            }
        }
        rows.push(SemanticRow {
            dialects,
            m,
            exact_f: exact.mean(),
            thesaurus_f: thesaurus.mean(),
        });
    }
    // Leave the dataset in its canonical exact-match state.
    prepared.dataset.rebuild_tag_sim(&cxk_transact::ExactMatch);
    rows
}

// ---------------------------------------------------------------------------
// Extension: protocol resilience under peer churn.
// ---------------------------------------------------------------------------

/// One row of the churn-resilience experiment.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Corpus name.
    pub corpus: &'static str,
    /// Initial network size.
    pub m: usize,
    /// Peers departing at the start of round 2.
    pub departures: usize,
    /// Fraction of transactions still held by alive peers at the end.
    pub coverage: f64,
    /// Mean F-measure over the covered transactions.
    pub covered_f: f64,
    /// Mean F-measure of a static network consisting only of the
    /// survivors' partitions (the "never had those peers" comparison).
    pub static_f: f64,
    /// Mean rounds to convergence under churn.
    pub rounds: f64,
}

/// Quantifies the reliability claim of §1.1: peers leave at the start of
/// round 2 and the protocol reconverges on the survivors. Compared against
/// a static network that never contained the departed peers' data, so the
/// delta isolates the cost of *mid-run* departure from the cost of simply
/// having less data.
pub fn churn_resilience(
    prepared: &Prepared,
    m: usize,
    departure_counts: &[usize],
    opts: &ExperimentOptions,
) -> Vec<ChurnRow> {
    let (labels, k) = prepared.setting(ClusteringSetting::Hybrid);
    let n = prepared.dataset.stats.transactions;
    let fs = f_values(ClusteringSetting::Hybrid, opts.full_f_grid);
    let mut rows = Vec::new();
    for &departures in departure_counts {
        assert!(departures < m, "at least one peer must survive");
        let mut coverage = RunStats::new();
        let mut covered_f = RunStats::new();
        let mut static_f = RunStats::new();
        let mut rounds = RunStats::new();
        for run in 0..opts.runs {
            for (fi, &f) in fs.iter().enumerate() {
                let run_seed = opts.seed + (run * fs.len() + fi) as u64;
                let partition = partition_equal(n, m, run_seed);
                let config = make_config(k, f, run_seed, opts);
                // The last `departures` peers leave at the start of round 2.
                let leavers: Vec<usize> = (m - departures..m).collect();
                let schedule = ChurnSchedule::mass_departure(2, &leavers);
                let churned = fit_churn(&prepared.dataset, &partition, &config, &schedule);
                coverage.push(churned.coverage());
                let (cl, ca): (Vec<u32>, Vec<u32>) = labels
                    .iter()
                    .zip(&churned.outcome.assignments)
                    .zip(&churned.covered)
                    .filter(|(_, &c)| c)
                    .map(|((&l, &a), _)| (l, a))
                    .unzip();
                if !cl.is_empty() {
                    covered_f.push(f_measure(&cl, &ca));
                }
                rounds.push(churned.outcome.rounds as f64);

                // Static comparison: same surviving partitions, no churn.
                let survivors: Vec<Vec<usize>> = partition[..m - departures].to_vec();
                let static_run = fit_collaborative(&prepared.dataset, &survivors, &config);
                let (sl, sa): (Vec<u32>, Vec<u32>) = labels
                    .iter()
                    .zip(&static_run.assignments)
                    .zip(&churned.covered)
                    .filter(|(_, &c)| c)
                    .map(|((&l, &a), _)| (l, a))
                    .unzip();
                if !sl.is_empty() {
                    static_f.push(f_measure(&sl, &sa));
                }
            }
        }
        rows.push(ChurnRow {
            corpus: prepared.kind.name(),
            m,
            departures,
            coverage: coverage.mean(),
            covered_f: covered_f.mean(),
            static_f: static_f.mean(),
            rounds: rounds.mean(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// §4.3.4 saturation ablation.
// ---------------------------------------------------------------------------

/// Saturation analysis of one corpus: the measured knee of the runtime
/// curve against the analytic optimum `m*` of `f(m)`.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Corpus name.
    pub corpus: &'static str,
    /// `(m, seconds)` samples.
    pub curve: Vec<(usize, f64)>,
    /// Smallest `m` whose time is within 5% of the curve minimum — the
    /// "stabilization point" of §5.5.1.
    pub measured_knee: usize,
    /// The analytic optimum `m*` (§4.3.4) with `h` estimated from the
    /// centralized cluster-size distribution.
    pub analytic_m_star: f64,
    /// Estimated cluster balance factor `h = |S|² / Σ|C_j|²` from the
    /// centralized run.
    pub h_estimate: f64,
}

/// Measures the runtime curve and compares its knee with the analytic
/// optimum.
pub fn saturation(prepared: &Prepared, ms: &[usize], opts: &ExperimentOptions) -> SaturationReport {
    let (_, k) = prepared.setting(ClusteringSetting::Hybrid);
    let rows = fig7(prepared, "full", ms, opts);
    let curve: Vec<(usize, f64)> = rows.iter().map(|r| (r.m, r.seconds)).collect();
    let min_time = curve.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let measured_knee = curve
        .iter()
        .find(|&&(_, s)| s <= 1.05 * min_time)
        .map(|&(m, _)| m)
        .unwrap_or(1);

    // Estimate h from the centralized clustering's cluster sizes.
    let config = make_config(k, ClusteringSetting::Hybrid.f_mid(), opts.seed, opts);
    let central = fit_centralized(&prepared.dataset, &config);
    let sizes = central.cluster_sizes();
    let sum_sq: f64 = sizes[..k].iter().map(|&s| (s * s) as f64).sum();
    let n = prepared.dataset.stats.transactions as f64;
    let h_estimate = if sum_sq > 0.0 {
        (n * n / sum_sq).min(k as f64)
    } else {
        1.0
    };

    let analytic_m_star = analytic_optimum_m(
        prepared.dataset.stats.transactions,
        prepared.dataset.stats.max_transaction_len,
        k,
        h_estimate,
        &opts.cost,
    );

    SaturationReport {
        corpus: prepared.kind.name(),
        curve,
        measured_knee,
        analytic_m_star,
        h_estimate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::prepare;

    fn quick_opts() -> ExperimentOptions {
        ExperimentOptions {
            gamma: 0.6,
            runs: 1,
            full_f_grid: false,
            seed: 1,
            max_rounds: 12,
            cost: CostModel::default(),
        }
    }

    #[test]
    fn fig7_rows_cover_requested_ms() {
        let p = prepare(CorpusKind::Dblp, 0.08, 5);
        let rows = fig7(&p, "full", &[1, 3], &quick_opts());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].m, 1);
        assert!(rows[0].seconds > 0.0);
        assert_eq!(rows[0].kbytes, 0.0, "centralized is traffic-free");
        assert!(rows[1].kbytes > 0.0);
    }

    #[test]
    fn accuracy_table_produces_unit_interval_scores() {
        let p = prepare(CorpusKind::Dblp, 0.08, 6);
        let rows = accuracy_table(
            &p,
            ClusteringSetting::Structure,
            &[1, 3],
            true,
            &quick_opts(),
        );
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.f_mean), "F = {}", row.f_mean);
        }
    }

    #[test]
    fn fig8_reports_both_algorithms() {
        // PK's all-to-all traffic exceeds CXK's owner-routed exchange by a
        // factor ~m/2 per round; use a network large enough that the factor
        // dominates round-count differences.
        let p = prepare(CorpusKind::Dblp, 0.08, 7);
        let rows = fig8(&p, &[8], &quick_opts());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].cxk_seconds > 0.0);
        assert!(rows[0].pk_seconds > 0.0);
        assert!(rows[0].pk_kbytes > rows[0].cxk_kbytes);
    }

    #[test]
    fn saturation_report_is_consistent() {
        let p = prepare(CorpusKind::Dblp, 0.08, 8);
        let report = saturation(&p, &[1, 2, 4], &quick_opts());
        assert_eq!(report.curve.len(), 3);
        assert!(report.measured_knee >= 1);
        assert!(report.h_estimate >= 1.0);
        assert!(report.analytic_m_star.is_finite());
    }
}
