//! Every workload through the library API, shrunk to half a second of
//! load and a small training corpus, untraced and traced: each run must
//! pass its correctness checks and report exactly the metrics
//! BENCHMARK.json lists for its mode, under well-formed names.

use cxk_analysis::json::{self, Value};
use cxkbench::suite::{self, Settings, Workload};
use std::path::{Path, PathBuf};

/// Metric names of one BENCHMARK.json list.
fn names(bench: &Value, list: &str) -> Vec<String> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json has the list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The workload with its corpora and k cut down so the whole test stays
/// within seconds; everything else is as committed.
fn shrunk(mut w: Workload) -> Workload {
    w.train_docs = w.train_docs.min(200);
    w.stream_docs = 200;
    w.k = w.k.min(32);
    w
}

fn settings(scratch: &Path, seed: u64, trace: bool, name: &str) -> Settings {
    Settings {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_cxkbench")),
        seed,
        seconds: 0.5,
        trace,
        work_dir: scratch.join(format!("work-{name}-{trace}")),
        trace_file: trace.then(|| scratch.join("trace").join(format!("{name}.jsonl"))),
    }
}

#[test]
fn every_workload_reports_every_listed_metric() {
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(bench_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    let listed: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    let defined: Vec<String> = suite::workloads()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(
        listed, defined,
        "BENCHMARK.json lists the suite's workloads"
    );
    for name in end_to_end.iter().chain(&per_layer).chain(&listed) {
        assert!(well_formed(name), "malformed name {name:?}");
    }

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cxkbench-smoke");
    let _ = std::fs::remove_dir_all(&scratch);
    for (i, workload) in suite::workloads().into_iter().enumerate() {
        let w = shrunk(workload);
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = suite::run(&w, &settings(&scratch, 7 + i as u64, trace, w.name))
                .unwrap_or_else(|e| panic!("{} (trace {trace}) failed to run: {e}", w.name));
            assert!(outcome.correct(), "{}: {:?}", w.name, outcome.problems);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let reported: Vec<String> =
                outcome.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(
                &reported, expected,
                "{} (trace {trace}) metric names",
                w.name
            );
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
            }
            let result = json::parse(&outcome.json()).expect("the result line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        }
        let spans =
            std::fs::read_to_string(scratch.join("trace").join(format!("{}.jsonl", w.name)))
                .expect("the traced run wrote its spans");
        let first = json::parse(spans.lines().next().expect("at least one span")).expect("JSONL");
        for key in ["id", "parent", "req", "name", "start_ns", "end_ns"] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
        assert!(
            !scratch.join(format!("work-{}-false", w.name)).exists(),
            "scratch removed"
        );
    }
}
