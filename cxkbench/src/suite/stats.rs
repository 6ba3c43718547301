//! Order statistics, the per-document best latency and the capacity
//! search.
//!
//! Percentiles are exact: they are read off the sorted raw samples, never
//! off histogram buckets. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so `cxkbench compare` and a reader checking the numbers by hand agree.

use std::collections::BTreeMap;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample such that at least a fraction `q` of all samples are ≤ it.
///
/// # Panics
/// Panics if `sorted` is empty or `q` lies outside `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// NaN, which a result reports as -1, when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` computes them. A single
/// value is its own quartiles.
///
/// # Panics
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    if values.len() == 1 {
        return (values[0], values[0], values[0]);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median over documents of each document's best latency, from
/// `(document, latency)` pairs in which every document appears one or
/// more times; NaN when there are none.
///
/// A document sent many times in one run costs the program the same work
/// each time, so its lowest latency is what that work takes when nothing
/// else on the machine gets in the way. Interference only ever adds time,
/// and it comes and goes within a run, so each document's best is far
/// steadier from run to run than any percentile over all requests, which
/// moves with how much of the run the neighbours took.
pub fn median_best(units: &[(usize, u64)]) -> f64 {
    let mut best: BTreeMap<usize, u64> = BTreeMap::new();
    for &(doc, latency) in units {
        best.entry(doc)
            .and_modify(|b| *b = (*b).min(latency))
            .or_insert(latency);
    }
    let values: Vec<f64> = best.values().map(|&ns| ns as f64).collect();
    median(&values)
}

/// Geometric bisection for the highest rate in `[lo, hi]` whose probe
/// scores ≤ 1 (a score is the worst ratio of measured to allowed value
/// over the probe's limits), using exactly `probes` probes.
///
/// Each probe halves the bracket in log space, so the last passing probe
/// is the highest that passed and the last failing one the lowest that
/// failed above it. The answer is interpolated between those two, on the
/// line through their log-scores against log-rate, so that it varies
/// continuously with the measurements instead of snapping to the
/// bisection grid. With no failing probe the answer is the highest passing
/// rate; with no passing probe it is `lo`.
pub fn search_max_rate(lo: f64, hi: f64, probes: usize, mut probe: impl FnMut(f64) -> f64) -> f64 {
    let (mut low, mut high) = (lo, hi);
    let (mut pass, mut fail) = (None, None);
    for _ in 0..probes {
        let rate = (low * high).sqrt();
        let score = probe(rate);
        if score <= 1.0 {
            low = rate;
            pass = Some((rate, score));
        } else {
            high = rate;
            fail = Some((rate, score));
        }
    }
    match (pass, fail) {
        (None, _) => lo,
        (Some((rate, score)), Some((above, worse))) if worse.is_finite() && score > 0.0 => {
            let t = -score.ln() / (worse.ln() - score.ln());
            rate * (above / rate).powf(t.clamp(0.0, 1.0))
        }
        (Some((rate, _)), _) => rate,
    }
}
