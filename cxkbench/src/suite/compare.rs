//! `cxkbench compare`: two labeled sets of runs, one verdict per
//! workload × metric.
//!
//! Runs are paired by workload and seed. A change *improved* a metric
//! when it wins at least nine tenths of the pairs (ties count for
//! neither) and the medians differ by more than the parent's own spread
//! (the distance between its quartiles). It is *worse* when its median is
//! worse than the parent's by more than the metric's bound. Otherwise it
//! is *unchanged*, unless the parent's spread is wider than the bound and
//! not every change run reads better than every parent run: then it is
//! *unresolved*.

use crate::suite::stats::quartiles;
use cxk_analysis::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pair rule.
    Improved,
    /// Not worse by more than the bound, with a spread inside the bound.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Direction and regression bound of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Higher values are better.
    pub higher_is_better: bool,
    /// Largest relative worsening of the median that is not a
    /// regression; `None` for per-layer metrics, which only get the pair
    /// rule.
    pub bound: Option<f64>,
}

/// The verdict on `change` against `parent`, runs paired index by index
/// over `pairs` (parent value, change value).
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    rule: Rule,
) -> Option<Verdict> {
    if parent.is_empty() || change.is_empty() {
        return None;
    }
    let sign = if rule.higher_is_better { 1.0 } else { -1.0 };
    let (q1, med_p, q3) = quartiles(parent);
    let (_, med_c, _) = quartiles(change);
    let gain = sign * (med_c - med_p);
    let spread = q3 - q1;
    let won = pairs.iter().filter(|(p, c)| sign * (c - p) > 0.0).count();
    let lost = pairs.iter().filter(|(p, c)| sign * (c - p) < 0.0).count();
    let decisive = |count: usize| !pairs.is_empty() && count * 10 >= pairs.len() * 9;
    if decisive(won) && gain > spread {
        return Some(Verdict::Improved);
    }
    let Some(bound) = rule.bound else {
        return Some(if decisive(lost) && -gain > spread {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        });
    };
    let scale = med_p.abs().max(f64::MIN_POSITIVE);
    if -gain / scale > bound {
        return Some(Verdict::Worse);
    }
    let worst_change = change
        .iter()
        .map(|v| sign * v)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|v| sign * v)
        .fold(f64::NEG_INFINITY, f64::max);
    if spread / scale > bound && worst_change <= best_parent {
        return Some(Verdict::Unresolved);
    }
    Some(Verdict::Unchanged)
}

/// One run read back from a `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads every run from the `results.json` files under `dir`.
pub fn read_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    collect(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let seed = v.get("seed").and_then(Value::as_num).unwrap_or(-1.0) as u64;
        for run in v.get("runs").and_then(Value::as_arr).unwrap_or_default() {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let mut metrics = BTreeMap::new();
            if let Some(Value::Obj(m)) = run.get("metrics") {
                for (name, metric) in m {
                    if let Some(value) = metric.get("value").and_then(Value::as_num) {
                        metrics.insert(name.clone(), value);
                    }
                }
            }
            runs.push(Run {
                workload,
                seed,
                metrics,
            });
        }
    }
    Ok(runs)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.file_name().is_some_and(|n| n == "results.json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Metric rules from a BENCHMARK.json: bounded end-to-end metrics and
/// unbounded per-layer ones.
pub fn read_rules(bench: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let mut rules = BTreeMap::new();
    for (list, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in v.get(list).and_then(Value::as_arr).unwrap_or_default() {
            let Some(name) = m.get("name").and_then(Value::as_str) else {
                continue;
            };
            rules.insert(
                name.to_string(),
                Rule {
                    higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                    bound: if bounded {
                        m.get("bound").and_then(Value::as_num)
                    } else {
                        None
                    },
                },
            );
        }
    }
    Ok(rules)
}

/// One printed comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent quartiles.
    pub parent: (f64, f64, f64),
    /// Change quartiles.
    pub change: (f64, f64, f64),
    /// Pairs the change won, and pairs run.
    pub won: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
    /// Whether the metric is end-to-end (bounded).
    pub bounded: bool,
}

/// Compares two run sets under `rules`.
pub fn compare(parent: &[Run], change: &[Run], rules: &BTreeMap<String, Rule>) -> Vec<Row> {
    let mut keys: Vec<(String, String)> = parent
        .iter()
        .flat_map(|r| {
            r.metrics
                .keys()
                .map(move |m| (r.workload.clone(), m.clone()))
        })
        .collect();
    keys.sort();
    keys.dedup();
    let mut rows = Vec::new();
    for (workload, metric) in keys {
        let Some(&rule) = rules.get(&metric) else {
            continue;
        };
        let values = |runs: &[Run]| -> Vec<(u64, f64)> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(&metric).map(|&v| (r.seed, v)))
                .collect()
        };
        let (p, c) = (values(parent), values(change));
        let pairs: Vec<(f64, f64)> = p
            .iter()
            .filter_map(|&(seed, pv)| c.iter().find(|(s, _)| *s == seed).map(|&(_, cv)| (pv, cv)))
            .collect();
        let pv: Vec<f64> = p.iter().map(|x| x.1).collect();
        let cv: Vec<f64> = c.iter().map(|x| x.1).collect();
        let Some(v) = verdict(&pv, &cv, &pairs, rule) else {
            continue;
        };
        let sign = if rule.higher_is_better { 1.0 } else { -1.0 };
        rows.push(Row {
            workload: workload.clone(),
            metric,
            parent: quartiles(&pv),
            change: quartiles(&cv),
            won: (
                pairs.iter().filter(|(a, b)| sign * (b - a) > 0.0).count(),
                pairs.len(),
            ),
            verdict: v,
            bounded: rule.bound.is_some(),
        });
    }
    rows.sort_by_key(|r| !r.bounded);
    rows
}

/// The `compare` subcommand: `compare <parent-dir> <change-dir>
/// [--bench BENCHMARK.json]`. Exits non-zero when an end-to-end metric is
/// worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench = PathBuf::from(it.next().ok_or("--bench needs a path")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        return Err(
            "usage: cxkbench compare <parent-dir> <change-dir> [--bench BENCHMARK.json]".into(),
        );
    };
    let rules = read_rules(&bench)?;
    let parent = read_runs(parent_dir)?;
    let change = read_runs(change_dir)?;
    let rows = compare(&parent, &change, &rules);
    println!(
        "{:<14} {:<30} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let fmt = |(q1, m, q3): (f64, f64, f64)| format!("{} [{}, {}]", short(m), short(q1), short(q3));
    for r in &rows {
        println!(
            "{:<14} {:<30} {:>34} {:>34} {:>7}  {}{}",
            r.workload,
            r.metric,
            fmt(r.parent),
            fmt(r.change),
            format!("{}/{}", r.won.0, r.won.1),
            r.verdict,
            if r.bounded { "" } else { " (per-layer)" }
        );
    }
    Ok(!rows
        .iter()
        .any(|r| r.bounded && r.verdict == Verdict::Worse))
}

/// `v` to five significant digits.
fn short(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    let decimals = (4 - magnitude).max(0) as usize;
    format!("{v:.decimals$}")
}
