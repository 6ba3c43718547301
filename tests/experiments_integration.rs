//! Experiment-harness integration: miniature versions of every table and
//! figure, asserting the qualitative shapes the paper reports.

use cxk_bench::experiments::{
    accuracy_table, churn_resilience, default_gamma, fig7, fig8, saturation, vsm_comparison,
    ExperimentOptions,
};
use cxk_bench::{prepare, CorpusKind};
use cxk_corpus::ClusteringSetting;
use cxk_p2p::CostModel;

fn opts(kind: CorpusKind) -> ExperimentOptions {
    ExperimentOptions {
        gamma: default_gamma(kind),
        runs: 2,
        full_f_grid: false,
        seed: 31,
        max_rounds: 15,
        cost: CostModel::default(),
    }
}

#[test]
fn fig7_time_drops_with_first_peers() {
    // The headline Fig. 7 effect needs a full-size corpus: on tiny inputs
    // per-round cost is too small for the 1/m parallelism to dominate the
    // extra collaborative rounds.
    let p = prepare(CorpusKind::Dblp, 1.0, 41);
    let rows = fig7(&p, "full", &[1, 5], &opts(CorpusKind::Dblp));
    assert_eq!(rows.len(), 2);
    assert!(
        rows[1].seconds < rows[0].seconds,
        "m=5 ({:.4}s) must beat m=1 ({:.4}s)",
        rows[1].seconds,
        rows[0].seconds
    );
}

#[test]
fn fig7_half_corpus_is_faster_than_full() {
    let kind = CorpusKind::Dblp;
    let full = prepare(kind, 1.0, 42);
    let half = prepare(kind, 0.5, 42);
    let o = opts(kind);
    let full_rows = fig7(&full, "full", &[1, 3], &o);
    let half_rows = fig7(&half, "half", &[1, 3], &o);
    for (f, h) in full_rows.iter().zip(&half_rows) {
        assert!(
            h.seconds < f.seconds,
            "half ({:.4}) !< full ({:.4}) at m = {}",
            h.seconds,
            f.seconds,
            f.m
        );
    }
}

#[test]
fn table_scores_stay_in_unit_interval_and_m1_is_strong() {
    let kind = CorpusKind::Dblp;
    let p = prepare(kind, 0.3, 43);
    let rows = accuracy_table(&p, ClusteringSetting::Structure, &[1, 5], true, &opts(kind));
    for row in &rows {
        assert!((0.0..=1.0).contains(&row.f_mean));
    }
    // Centralized structure-driven clustering on DBLP is near-perfect in
    // the paper (0.991); the reproduction should be strong too.
    assert!(
        rows[0].f_mean > 0.75,
        "m=1 structure F = {}",
        rows[0].f_mean
    );
}

#[test]
fn unequal_partition_scores_at_most_slightly_above_equal() {
    // Table 2 vs Table 1: unequal distribution degrades accuracy a little.
    let kind = CorpusKind::Dblp;
    let p = prepare(kind, 0.3, 44);
    let o = opts(kind);
    let equal = accuracy_table(&p, ClusteringSetting::Structure, &[5], true, &o);
    let unequal = accuracy_table(&p, ClusteringSetting::Structure, &[5], false, &o);
    // Allow noise, but unequal must not beat equal by a wide margin.
    assert!(
        unequal[0].f_mean <= equal[0].f_mean + 0.1,
        "unequal {} vs equal {}",
        unequal[0].f_mean,
        equal[0].f_mean
    );
}

#[test]
fn fig8_pk_traffic_dominates_cxk() {
    let kind = CorpusKind::Dblp;
    let p = prepare(kind, 0.3, 45);
    let rows = fig8(&p, &[5, 9], &opts(kind));
    for row in &rows {
        assert!(
            row.pk_kbytes > row.cxk_kbytes,
            "PK traffic must exceed CXK at m = {}: {} vs {}",
            row.m,
            row.pk_kbytes,
            row.cxk_kbytes
        );
        // The clock is simulated, so this is deterministic: at matched
        // inner passes the all-to-all exchange makes PK-means slower.
        assert!(
            row.pk_seconds > row.cxk_seconds,
            "PK must be slower than CXK at m = {}: {} vs {} s",
            row.m,
            row.pk_seconds,
            row.cxk_seconds
        );
    }
}

#[test]
fn saturation_knee_is_interior_for_dblp() {
    let kind = CorpusKind::Dblp;
    let p = prepare(kind, 0.5, 46);
    let report = saturation(&p, &[1, 2, 3, 4, 6, 8], &opts(kind));
    assert!(report.measured_knee > 1, "knee at m = 1 means no speedup");
    assert!(report.h_estimate >= 1.0);
}

#[test]
fn vsm_comparison_produces_unit_interval_scores_for_both() {
    let kind = CorpusKind::Dblp;
    let p = prepare(kind, 0.2, 47);
    let row = vsm_comparison(&p, ClusteringSetting::Structure, &opts(kind));
    assert!((0.0..=1.0).contains(&row.cxk_f), "cxk F = {}", row.cxk_f);
    assert!((0.0..=1.0).contains(&row.vsm_f), "vsm F = {}", row.vsm_f);
    assert_eq!(row.k, p.k_structure);
    // Structure-driven DBLP is where the transactional model pays
    // (EXPERIMENTS.md E10): CXK must at least match the flat baseline.
    assert!(
        row.cxk_f >= row.vsm_f - 0.05,
        "cxk {} must not lose to vsm {} on structure",
        row.cxk_f,
        row.vsm_f
    );
}

#[test]
fn churn_resilience_coverage_shrinks_with_departures() {
    let kind = CorpusKind::Dblp;
    let p = prepare(kind, 0.2, 48);
    let rows = churn_resilience(&p, 6, &[0, 3], &opts(kind));
    assert_eq!(rows.len(), 2);
    assert!((rows[0].coverage - 1.0).abs() < 1e-12);
    assert!((rows[1].coverage - 0.5).abs() < 0.1, "3 of 6 peers leave");
    // Mid-run departure must not collapse covered-subset quality relative
    // to the static survivors (the E12 reliability claim).
    assert!(
        rows[1].covered_f > rows[1].static_f - 0.15,
        "churned {} vs static {}",
        rows[1].covered_f,
        rows[1].static_f
    );
}
