//! Exact percentiles, Python-compatible quartiles, the per-document best
//! latency and the capacity search.

use cxkbench::suite::stats::{median, median_best, percentile, quartiles, search_max_rate};

#[test]
fn percentile_is_the_nearest_rank_sample() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 0.5), 50);
    assert_eq!(percentile(&sorted, 0.95), 95);
    assert_eq!(percentile(&sorted, 0.99), 99);
    assert_eq!(percentile(&sorted, 0.999), 100);
    assert_eq!(percentile(&sorted, 1.0), 100);
    assert_eq!(percentile(&sorted, 0.001), 1);
    // Every percentile is a sample, never an interpolation or a bucket edge.
    let odd = [3, 250, 256, 288, 1000];
    assert_eq!(percentile(&odd, 0.5), 256);
    assert_eq!(percentile(&odd, 0.6), 256);
    assert_eq!(percentile(&odd, 0.61), 288);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
}

#[test]
fn median_best_takes_each_documents_best_then_the_median() {
    // Document 0 is best at 100, document 1 at 300, document 2 at 200,
    // whatever the interference around those samples.
    let units = [
        (0, 900),
        (1, 300),
        (2, 250),
        (0, 100),
        (1, 5000),
        (2, 200),
        (0, 400),
    ];
    assert_eq!(median_best(&units), 200.0);
    // A slow stretch that lands on every document once moves nothing.
    let mut slowed = units.to_vec();
    slowed.extend([(0, 10_000), (1, 10_000), (2, 10_000)]);
    assert_eq!(median_best(&slowed), 200.0);
    // An even number of documents averages the middle two.
    assert_eq!(median_best(&[(4, 10), (9, 30), (4, 50)]), 20.0);
    assert_eq!(median_best(&[(3, 7)]), 7.0);
    assert!(median_best(&[]).is_nan());
}

/// The ratio between neighbouring rates after `probes` geometric halvings
/// of `[lo, hi]`.
fn step(lo: f64, hi: f64, probes: usize) -> f64 {
    (hi / lo).powf(1.0 / (1u64 << probes) as f64)
}

#[test]
fn search_lands_within_one_step_of_a_hard_threshold() {
    let (lo, hi, probes) = (250.0, 16000.0, 6);
    for threshold in [300.0, 1234.0, 2000.0, 5000.0, 9999.0, 15000.0] {
        // Pass/fail only: the scores carry no distance information.
        let mut probed = 0;
        let found = search_max_rate(lo, hi, probes, |rate| {
            probed += 1;
            if rate <= threshold {
                0.5
            } else {
                2.0
            }
        });
        assert_eq!(probed, probes);
        let step = step(lo, hi, probes);
        assert!(
            found <= threshold * step && found * step >= threshold,
            "{found} more than one step from {threshold}"
        );
    }
}

#[test]
fn search_interpolates_a_smooth_score_onto_the_threshold() {
    for threshold in [700.0, 3000.0, 12000.0] {
        // A score proportional to the rate crosses 1 exactly at the
        // threshold; log-linear interpolation recovers it.
        let found = search_max_rate(250.0, 16000.0, 6, |rate| rate / threshold);
        assert!(
            (found / threshold - 1.0).abs() < 1e-9,
            "{found} vs {threshold}"
        );
    }
}

#[test]
fn search_reports_the_bracket_edges_when_nothing_or_everything_passes() {
    assert_eq!(search_max_rate(250.0, 16000.0, 6, |_| 5.0), 250.0);
    let mut highest: f64 = 0.0;
    let found = search_max_rate(250.0, 16000.0, 6, |rate| {
        highest = highest.max(rate);
        0.5
    });
    assert_eq!(found, highest);
    assert!(highest * step(250.0, 16000.0, 6) >= 16000.0 - 1e-6);
}
