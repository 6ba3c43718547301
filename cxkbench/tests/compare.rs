//! `cxkbench compare` verdicts on synthetic run sets.

use cxkbench::suite::compare::{compare, read_rules, verdict, Rule, Run, Verdict};
use std::collections::BTreeMap;
use std::path::Path;

const LOWER_10: Rule = Rule {
    higher_is_better: false,
    bound: Some(0.10),
};

fn paired(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
    parent.iter().copied().zip(change.iter().copied()).collect()
}

fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    verdict(parent, change, &paired(parent, change), rule).expect("both sides have runs")
}

const PARENT: [f64; 10] = [
    100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
];

#[test]
fn a_change_that_wins_nine_of_ten_pairs_beyond_the_spread_improved() {
    let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
    // One lost pair still leaves nine of ten.
    change[3] = 101.0;
    assert_eq!(judge(&PARENT, &change, LOWER_10), Verdict::Improved);
    // Two lost pairs do not.
    change[4] = 101.0;
    assert_ne!(judge(&PARENT, &change, LOWER_10), Verdict::Improved);
}

#[test]
fn a_win_inside_the_parents_own_spread_is_not_an_improvement() {
    // Every pair won, but by less than the parent's quartile distance.
    let change: Vec<f64> = PARENT.iter().map(|v| v - 0.1).collect();
    assert_eq!(judge(&PARENT, &change, LOWER_10), Verdict::Unchanged);
}

#[test]
fn direction_follows_the_rule() {
    let change: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
    assert_eq!(judge(&PARENT, &change, LOWER_10), Verdict::Worse);
    let higher = Rule {
        higher_is_better: true,
        bound: Some(0.10),
    };
    assert_eq!(judge(&PARENT, &change, higher), Verdict::Improved);
}

#[test]
fn worse_means_the_median_moved_past_the_bound() {
    let change: Vec<f64> = PARENT.iter().map(|v| v * 1.08).collect();
    assert_eq!(judge(&PARENT, &change, LOWER_10), Verdict::Unchanged);
    let change: Vec<f64> = PARENT.iter().map(|v| v * 1.12).collect();
    assert_eq!(judge(&PARENT, &change, LOWER_10), Verdict::Worse);
}

#[test]
fn a_parent_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [
        60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
    ];
    let same = noisy;
    assert_eq!(judge(&noisy, &same, LOWER_10), Verdict::Unresolved);
    // Unless every change run reads better than every parent run.
    let clearly_better: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
    assert_eq!(judge(&noisy, &clearly_better, LOWER_10), Verdict::Improved);
}

#[test]
fn per_layer_metrics_get_only_the_pair_rule() {
    let rule = Rule {
        higher_is_better: false,
        bound: None,
    };
    let change: Vec<f64> = PARENT.iter().map(|v| v * 1.5).collect();
    assert_eq!(judge(&PARENT, &change, rule), Verdict::Worse);
    let change: Vec<f64> = PARENT.iter().map(|v| v * 1.001).collect();
    assert_eq!(judge(&PARENT, &change, rule), Verdict::Unchanged);
}

#[test]
fn compare_pairs_runs_by_workload_and_seed() {
    let run = |workload: &str, seed: u64, p50: f64| Run {
        workload: workload.to_string(),
        seed,
        metrics: BTreeMap::from([("p50_us".to_string(), p50)]),
    };
    let parent: Vec<Run> = (0..10)
        .map(|s| run("serve-k16", s, 200.0 + s as f64))
        .collect();
    // The change's runs arrive in another order; pairing goes by seed.
    let change: Vec<Run> = (0..10)
        .rev()
        .map(|s| run("serve-k16", s, 150.0 + s as f64))
        .collect();
    let rules = BTreeMap::from([("p50_us".to_string(), LOWER_10)]);
    let rows = compare(&parent, &change, &rules);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].won, (10, 10));
    assert_eq!(rows[0].verdict, Verdict::Improved);
    assert_eq!(rows[0].parent.1, 204.5);
}

#[test]
fn the_committed_benchmark_json_gives_every_metric_a_rule() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let rules = read_rules(&bench).expect("BENCHMARK.json parses");
    let setup = rules["setup_s"];
    assert!(!setup.higher_is_better);
    let largest = rules.values().filter_map(|r| r.bound).fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!(rules
        .values()
        .filter_map(|r| r.bound)
        .all(|b| b > 0.0 && b <= 0.25));
}
