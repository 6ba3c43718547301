//! The benchmark suite: four workloads over the train → snapshot → serve
//! pipeline, measured end to end, plus a traced variant that splits the
//! time by layer.
//!
//! Every workload runs the same pipeline, so every workload reports every
//! end-to-end metric:
//!
//! 1. generate the workload's fixed training corpus and, from the seed, a
//!    serving stream of fresh documents from the same DBLP generator (3
//!    markup dialects), cycled;
//! 2. train each model in a child process the way `cxk train --m 4` does
//!    (f = 0.5, γ = 0.4) and save its snapshot;
//! 3. classify the whole stream in-process with `classify_brute` against
//!    every model: the answer key;
//! 4. start the server child several times and keep the last one:
//!    `setup_s`;
//! 5. warm up, then send requests from one caller on one keep-alive
//!    connection, each as soon as the previous answer is read, with the
//!    workload's model swaps if it has any: `best_latency_us`, the median
//!    over documents of each document's best latency (see
//!    [`stats::median_best`]), and `f_measure` of the answers;
//! 6. read the server's peak memory: `rss_mb`.
//!
//! Every classify answer is checked against the answer key of the model
//! its `X-Model-Epoch` names. The traced variant goes on to offer the
//! workload's open-loop Poisson rate over two connections, swap models
//! every 100 ms, saturate the two connections, search for the highest
//! rate that meets the p95 limit, and replay the model and stream
//! directly (see [`replay`]); those are its per-layer metrics.
//!
//! Percentiles over all requests are per-layer metrics, not end-to-end
//! ones: on a shared virtual machine the neighbours take a share of the
//! run that changes from minute to minute, and a percentile moves with
//! that share. Under open-loop load a stolen millisecond also queues every
//! arrival behind it.

pub mod children;
pub mod compare;
pub mod loadgen;
pub mod replay;
pub mod stats;
pub mod trace;

use children::{ServerProcess, TrainReport, TrainSpec};
use cxk_analysis::json;
use cxk_corpus::dblp::{self, DblpConfig};
use cxk_corpus::Corpus;
use cxk_serve::Classifier;
use loadgen::{Arrival, Op, Phase, Requests};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Trace;

/// Seed of every workload's training corpus. Training data and engine
/// seeds are fixed parts of a workload, so each workload serves the same
/// models in every run and `--seed` varies only what the server is sent.
const TRAIN_CORPUS_SEED: u64 = 0xC0_12B5;
/// Engine seeds (initial representatives) of model A and model B.
const TRAIN_ENGINE_SEEDS: [u64; 2] = [0xA, 0xB];
/// Documents in every workload's serving stream.
const STREAM_DOCS: usize = 1000;
/// Simulated peers of every training run (`cxk train --m 4`).
const PEERS: usize = 4;
/// Markup dialects of the generated corpora.
const DIALECTS: usize = 3;
/// Server starts per run; `setup_s` is their median. A start takes a few
/// milliseconds, most of it process spawn, so one start is too noisy to
/// gate on and twenty-five cost a fraction of a second.
const SETUP_STARTS: usize = 25;
/// The generator's own lateness p95 (see `loadgen`) above which the
/// fixed-rate phase measured the generator rather than the server.
const LATENESS_LIMIT: Duration = Duration::from_millis(1);
/// Model swap period of the traced reload phase.
const RELOAD_PHASE_EVERY: Duration = Duration::from_millis(100);
/// Window over which the traced saturation phase counts completions.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// The latency limit of the open-loop capacity search, on p95.
const P95_LIMIT: Duration = Duration::from_millis(2);
/// Share of the offered rate a search probe must achieve.
const ACHIEVED_SHARE: f64 = 0.97;
/// Capacity search bracket, requests per second.
const SEARCH_RANGE: (f64, f64) = (250.0, 16000.0);
/// Probes of the capacity search.
const SEARCH_PROBES: usize = 6;
/// A search probe stops once the generator runs this far behind.
const PROBE_ABORT: Duration = Duration::from_millis(100);
/// Idle time between search probes, so one probe's last requests drain.
const PROBE_GAP: Duration = Duration::from_millis(20);
/// The traced replay makes one timed pass per this many seconds of
/// `--seconds`, from one to three.
const SECONDS_PER_REPLAY_PASS: f64 = 6.0;

/// Shares of `--seconds` given to each phase; the last four run in traced
/// runs only.
const WARMUP_SHARE: f64 = 0.04;
const CLOSED_SHARE: f64 = 0.96;
const FIXED_SHARE: f64 = 0.3;
const RELOAD_SHARE: f64 = 0.15;
const SATURATION_SHARE: f64 = 0.15;
const SEARCH_SHARE: f64 = 0.375;

/// One workload: its fixed parameters (BENCHMARK.json records why it
/// exists).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Clusters of every model.
    pub k: usize,
    /// Training documents.
    pub train_docs: usize,
    /// Held-out documents in the serving stream, cycled.
    pub stream_docs: usize,
    /// Models, one per engine seed of `TRAIN_ENGINE_SEEDS` (2 = the A/B
    /// swap).
    pub models: usize,
    /// Fixed open-loop classify rate of the traced run, requests per
    /// second.
    pub rate: f64,
    /// Classify requests between two model swaps in the closed loop.
    pub reload_every: Option<usize>,
}

/// The four workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        // The default deployment: scoring 16 representatives is cheap, so
        // the fixed cost of a request dominates (HTTP, queue, XML parse,
        // preprocessing and ttf.itf, tag-path table upkeep). Pruning is
        // bypassed: every tuple is scored against all of k.
        Workload {
            name: "serve-k16",
            k: 16,
            train_docs: 1000,
            stream_docs: STREAM_DOCS,
            models: 1,
            rate: 2000.0,
            reload_every: None,
        },
        // Large k: candidate generation and simγJ scoring dominate. The
        // transport is serve-k16's, so a transport-only change moves both
        // by the same absolute amount.
        Workload {
            name: "serve-k256",
            k: 256,
            train_docs: 1500,
            stream_docs: STREAM_DOCS,
            models: 1,
            rate: 1500.0,
            reload_every: None,
        },
        // Writes beside reads: every swap makes each worker rebuild its
        // engine, so work moved into the per-epoch build shows here even
        // when it wins on serve-k256. A swap before every classify request
        // makes every latency sample the same unit: swap, then the first
        // answer under the new model, which pays its worker's rebuild.
        Workload {
            name: "serve-reload",
            k: 64,
            train_docs: 1000,
            stream_docs: STREAM_DOCS,
            models: 2,
            rate: 1500.0,
            reload_every: Some(1),
        },
        // The paper's collaborative protocol at the largest corpus:
        // training dominates the run (its traced run carries the training
        // layers), and the served model was trained on four times as many
        // documents as serve-k16's.
        Workload {
            name: "train-m4",
            k: 16,
            train_docs: 4000,
            stream_docs: STREAM_DOCS,
            models: 1,
            rate: 2000.0,
            reload_every: None,
        },
    ]
}

/// The workload named `name`.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// The generated corpus: `documents` DBLP records in `DIALECTS`
/// dialects.
pub(crate) fn corpus(seed: u64, documents: usize) -> Corpus {
    dblp::generate(&DblpConfig {
        documents,
        seed,
        dialects: DIALECTS,
    })
}

/// An independent seed for purpose `stream` of run `seed` (SplitMix64).
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// This benchmark's executable, re-run for the child processes.
    pub exe: PathBuf,
    /// Seed of the serving stream and of every arrival schedule.
    pub seed: u64,
    /// The measured time a run is sized to, seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// Scratch directory for snapshots; created and removed by the run.
    pub work_dir: PathBuf,
    /// Where to write the trace as JSON lines, if anywhere.
    pub trace_file: Option<PathBuf>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Failed correctness checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// Requests sent over all phases.
    pub attempted: usize,
    /// Requests not answered `200`, answered wrongly, or never sent.
    pub failed: usize,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number; a value that could not be measured (NaN) becomes -1.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// Where a run keeps its snapshots: a directory under the current
/// directory, unique to this process and workload.
pub fn work_dir(workload: &str) -> PathBuf {
    Path::new(".cxkbench_work").join(format!("{}-{workload}", std::process::id()))
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Trains the workload's models, each once in a child process, and
/// returns their snapshot paths and what each training measured.
fn train_models(
    exe: &Path,
    w: &Workload,
    work_dir: &Path,
) -> std::io::Result<(Vec<PathBuf>, Vec<TrainReport>)> {
    let mut paths = Vec::new();
    let mut reports = Vec::new();
    for (m, &seed) in TRAIN_ENGINE_SEEDS.iter().take(w.models).enumerate() {
        let path = work_dir.join(format!("model-{m}.cxkmodel"));
        let spec = TrainSpec {
            corpus_seed: TRAIN_CORPUS_SEED,
            docs: w.train_docs,
            k: w.k,
            peers: PEERS,
            seed,
        };
        reports.push(children::train(exe, spec, &path)?);
        paths.push(path);
    }
    Ok((paths, reports))
}

/// Answer keys: per model, the brute-force cluster of every stream doc.
struct AnswerKey {
    clusters: Vec<Vec<u32>>,
    /// Epoch → model index; epoch 1 is the boot model.
    epochs: BTreeMap<u64, usize>,
}

impl AnswerKey {
    /// Learns the epochs the phase's successful reloads installed.
    fn learn(&mut self, phase: &Phase) {
        for s in phase.samples.iter().filter(|s| s.status == 200) {
            if let Op::Reload { model } = phase.schedule[s.arrival].op {
                self.epochs.insert(s.epoch, model);
            }
        }
    }

    /// Classify answers of `phase` that disagree with the key.
    fn wrong(&self, phase: &Phase) -> usize {
        phase
            .classify_samples()
            .filter(|s| s.status == 200)
            .filter(|s| {
                let Op::Classify { doc } = phase.schedule[s.arrival].op else {
                    return false;
                };
                let expected = self.epochs.get(&s.epoch).map(|&m| self.clusters[m][doc]);
                expected != s.cluster
            })
            .count()
    }
}

/// How a phase drove the server, which decides what counts as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Open loop at the workload's rate: every arrival must be sent and
    /// answered `200`.
    Fixed,
    /// Closed loop until a deadline: every request sent must be answered
    /// `200`.
    Closed,
    /// A capacity-search probe: failing is its job.
    Probe,
}

/// One phase that ran.
struct Ran {
    name: &'static str,
    kind: Kind,
    phase: Phase,
}

/// Drives the server: a fresh seed and stream offset per phase, and reload
/// targets that alternate through the models starting with the second
/// (A → B → A … for two models).
struct Traffic<'a> {
    addr: SocketAddr,
    requests: &'a Requests,
    seed: u64,
    rate: f64,
    reload_every: Option<usize>,
    models: usize,
    phases: u64,
    swaps: usize,
    ran: Vec<Ran>,
}

/// Reload targets: the models in turn, starting with the second.
fn next_model(swaps: &mut usize, models: usize) -> impl FnMut() -> usize + '_ {
    move || {
        *swaps += 1;
        *swaps % models
    }
}

impl Traffic<'_> {
    /// The next phase's seed and first stream document.
    fn next(&mut self) -> (u64, usize) {
        self.phases += 1;
        let first_doc = (self.phases as usize * 7919) % self.requests.classify.len();
        (derive_seed(self.seed, 100 + self.phases), first_doc)
    }

    fn schedule(&mut self, rate: f64, length: Duration, reloads: Option<Duration>) -> Vec<Arrival> {
        let (seed, first_doc) = self.next();
        let docs = self.requests.classify.len();
        let next_model = next_model(&mut self.swaps, self.models);
        loadgen::schedule(seed, rate, length, docs, first_doc, reloads, next_model)
    }

    /// An open-loop phase at the workload's rate.
    fn fixed(
        &mut self,
        name: &'static str,
        length: Duration,
        reloads: Option<Duration>,
    ) -> std::io::Result<&Phase> {
        let schedule = self.schedule(self.rate, length, reloads);
        let phase = loadgen::run(self.addr, schedule, self.requests, None)?;
        Ok(self.push(name, Kind::Fixed, phase))
    }

    /// One caller on one connection, with the workload's model swaps.
    fn closed(&mut self, name: &'static str, length: Duration) -> std::io::Result<&Phase> {
        let (_, first_doc) = self.next();
        let phase = loadgen::closed_loop(
            self.addr,
            self.requests,
            first_doc,
            length,
            self.reload_every,
            next_model(&mut self.swaps, self.models),
        )?;
        Ok(self.push(name, Kind::Closed, phase))
    }

    /// One request in flight per connection.
    fn saturate(&mut self, length: Duration) -> std::io::Result<&Phase> {
        let (_, first_doc) = self.next();
        let phase = loadgen::saturate(self.addr, self.requests, first_doc, length)?;
        Ok(self.push("phase.saturation", Kind::Closed, phase))
    }

    /// The open-loop capacity search over `length`: the highest rate whose
    /// probe meets the p95 limit and achieves the offered rate.
    fn search(&mut self, length: Duration) -> std::io::Result<f64> {
        let probe_length = (length / SEARCH_PROBES as u32)
            .saturating_sub(PROBE_GAP)
            .max(Duration::from_millis(50));
        let mut failure = None;
        let rate = stats::search_max_rate(SEARCH_RANGE.0, SEARCH_RANGE.1, SEARCH_PROBES, |rate| {
            std::thread::sleep(PROBE_GAP);
            let schedule = self.schedule(rate, probe_length, None);
            match loadgen::run(self.addr, schedule, self.requests, Some(PROBE_ABORT)) {
                Ok(phase) => probe_score(self.push("phase.probe", Kind::Probe, phase)),
                Err(e) => {
                    failure = Some(e);
                    f64::INFINITY
                }
            }
        });
        failure.map_or(Ok(rate), Err)
    }

    fn push(&mut self, name: &'static str, kind: Kind, phase: Phase) -> &Phase {
        self.ran.push(Ran { name, kind, phase });
        &self.ran.last().expect("just pushed").phase
    }
}

/// Runs one workload.
pub fn run(w: &Workload, s: &Settings) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&s.work_dir)?;
    let _cleanup = WorkDir(s.work_dir.clone());
    let mut trace = Trace::new(Instant::now());

    // Inputs: the training corpus is part of the workload; the serving
    // stream (fresh documents from the same generator) and every arrival
    // schedule come from the seed.
    let training_corpus = corpus(TRAIN_CORPUS_SEED, w.train_docs);
    let held_out = corpus(derive_seed(s.seed, 1), w.stream_docs);
    let stream = &held_out.documents;

    let (model_paths, reports) = train_models(&s.exe, w, &s.work_dir)?;

    // The answer key, from the snapshots the server will load.
    let mut models = Vec::new();
    let mut key = AnswerKey {
        clusters: Vec::new(),
        epochs: BTreeMap::from([(1, 0)]),
    };
    for path in &model_paths {
        let model = Arc::new(children::load(path)?);
        let mut classifier = Classifier::shared(Arc::clone(&model));
        let clusters = stream
            .iter()
            .map(|doc| classifier.classify_brute(doc).map(|r| r.cluster))
            .collect::<Result<Vec<u32>, _>>()
            .map_err(children::other)?;
        key.clusters.push(clusters);
        models.push(model);
    }

    let requests = Requests {
        classify: stream
            .iter()
            .map(|doc| loadgen::post("/classify", doc.as_bytes()))
            .collect(),
        reload: model_paths
            .iter()
            .map(|p| loadgen::post("/reload", p.to_string_lossy().as_bytes()))
            .collect(),
    };

    // Set-up: the median of several server starts; the last one serves.
    let probe = loadgen::post_once("/classify", stream[0].as_bytes());
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        if let Some(previous) = server.take() {
            ServerProcess::stop(previous)?;
        }
        let started = ServerProcess::start(&s.exe, &model_paths[0], &probe)?;
        setups.push(started.setup.as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("SETUP_STARTS > 0");

    let mut traffic = Traffic {
        addr: server.addr,
        requests: &requests,
        seed: s.seed,
        rate: w.rate,
        reload_every: w.reload_every,
        models: w.models,
        phases: 0,
        swaps: 0,
        ran: Vec::new(),
    };
    let secs = |share: f64| Duration::from_secs_f64(s.seconds * share);
    traffic.closed("phase.warmup", secs(WARMUP_SHARE))?;
    let cpu_before = children::cpu_ns(server.pid())?;
    traffic.closed("phase.closed", secs(CLOSED_SHARE))?;
    let cpu_ns = children::cpu_ns(server.pid())? - cpu_before;
    let closed_stats = json::parse(&loadgen::request_once(server.addr, loadgen::STATS)?.1)
        .map_err(children::other)?;

    let mut traced_only = None;
    if s.trace {
        traffic.fixed("phase.fixed", secs(FIXED_SHARE), None)?;
        // Long enough for a few swaps and a few rate windows however short
        // the run.
        let reload = secs(RELOAD_SHARE).max(3 * RELOAD_PHASE_EVERY);
        traffic.fixed("phase.reload", reload, Some(RELOAD_PHASE_EVERY))?;
        let saturation = secs(SATURATION_SHARE).max(4 * RATE_WINDOW);
        let saturation_rps =
            stats::median(&traffic.saturate(saturation)?.window_rates(RATE_WINDOW));
        traced_only = Some((saturation_rps, traffic.search(secs(SEARCH_SHARE))?));
    }
    let final_stats = json::parse(&loadgen::request_once(server.addr, loadgen::STATS)?.1)
        .map_err(children::other)?;
    let rss_mb = children::peak_rss_mb(server.pid())?;
    server.stop()?;
    let ran = traffic.ran;

    // Correctness.
    let mut problems = Vec::new();
    for r in &ran {
        key.learn(&r.phase);
    }
    let (mut attempted, mut failed) = (0, 0);
    for r in &ran {
        let wrong = key.wrong(&r.phase);
        let failures = if r.kind == Kind::Probe {
            0
        } else {
            r.phase.failures()
        };
        let unsent = if r.kind == Kind::Fixed {
            r.phase.unsent()
        } else {
            0
        };
        attempted += r.phase.samples.len();
        failed += wrong + failures + unsent;
        if wrong > 0 {
            problems.push(format!(
                "{}: {wrong} answers differ from brute force",
                r.name
            ));
        }
        if failures + unsent > 0 {
            problems.push(format!("{}: {} requests failed", r.name, failures + unsent));
        }
    }
    let phase = |name: &str| ran.iter().find(|r| r.name == name).map(|r| &r.phase);
    let closed = phase("phase.closed").expect("the closed-loop phase ran");
    let units = closed.units_ns();
    if units.is_empty() {
        return Err(children::other("the closed loop completed no request"));
    }
    let best_latency_us = stats::median_best(&units) / 1e3;
    let mut unit_latencies: Vec<u64> = units.iter().map(|&(_, latency)| latency).collect();
    unit_latencies.sort_unstable();
    let f_measure = served_f_measure(closed, &held_out.hybrid_class);
    let stale = stale_after_swap(closed);
    if stale > 0 {
        problems.push(format!(
            "phase.closed: {stale} answers right after a model swap carry an older epoch"
        ));
    }
    let fixed = phase("phase.fixed");
    let (latencies, lateness) = fixed.map_or((Vec::new(), Vec::new()), |p| {
        (p.latencies_ns(), p.lateness_ns())
    });
    if !lateness.is_empty() {
        let lateness_p95 = stats::percentile(&lateness, 0.95);
        if lateness_p95 > LATENESS_LIMIT.as_nanos() as u64 {
            problems.push(format!(
                "generator lateness p95 {} µs exceeds {} µs",
                lateness_p95 / 1000,
                LATENESS_LIMIT.as_micros()
            ));
        }
    }
    let server_errors = final_stats.get("errors").and_then(json::Value::as_num);
    if server_errors != Some(0.0) {
        problems.push(format!("the server counted {server_errors:?} errors"));
    }
    // Swap visibility under open-loop load, where answers overtake one
    // another on the two connections.
    let open_loop = || ran.iter().filter(|r| r.kind == Kind::Fixed);
    let visible: Vec<f64> = open_loop()
        .flat_map(|r| reload_visible_ns(&r.phase))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let swaps: usize = open_loop().map(|r| reloads(&r.phase).count()).sum();
    if swaps > 0 && visible.is_empty() {
        problems.push(format!("none of {swaps} model swaps became visible"));
    }

    let metrics = match traced_only {
        None => vec![
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("best_latency_us", best_latency_us, "us"),
            Metric::new("f_measure", f_measure, "ratio"),
            Metric::new("rss_mb", rss_mb, "MiB"),
        ],
        Some((saturation_rps, search_rps)) => {
            let mut metrics = layer_metrics(&LayerInput {
                ran: &ran,
                closed_latencies: &unit_latencies,
                latencies: &latencies,
                lateness: &lateness,
                visible: &visible,
                closed_stats: &closed_stats,
                cpu_us_per_req: cpu_ns as f64 / 1e3 / closed.samples.len().max(1) as f64,
                saturation_rps,
                search_rps,
                reports: &reports,
            });
            let replay = replay::ReplayInput {
                model: &models[0],
                model_path: &model_paths[0],
                train_docs: &training_corpus.documents,
                stream,
                brute: &key.clusters[0],
                passes: ((s.seconds / SECONDS_PER_REPLAY_PASS).round() as usize).clamp(1, 3),
            };
            metrics.extend(replay::run(&replay, &mut trace)?);
            record_requests(&mut trace, &ran);
            if let Some(path) = &s.trace_file {
                trace.write_jsonl(path)?;
            }
            metrics
        }
    };

    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics,
    })
}

/// A search probe's score: the worst ratio of measured to allowed over
/// its limits (p95 latency, achieved share of the offered rate); infinite
/// when a request failed. A probe cut short because the generator fell
/// behind scores at least that lateness over the p95 limit.
fn probe_score(phase: &Phase) -> f64 {
    let latencies = phase.latencies_ns();
    if latencies.is_empty() || phase.failures() > 0 {
        return f64::INFINITY;
    }
    let limit = P95_LIMIT.as_nanos() as f64;
    let p95 = stats::percentile(&latencies, 0.95) as f64 / limit;
    let achieved = ACHIEVED_SHARE * phase.offered_rps() / phase.achieved_rps();
    let behind = if phase.aborted {
        PROBE_ABORT.as_nanos() as f64 / limit
    } else {
        0.0
    };
    p95.max(achieved).max(behind)
}

/// F-measure of the classify answers of `phase` against the stream's
/// hybrid classes.
fn served_f_measure(phase: &Phase, stream_truth: &[u32]) -> f64 {
    let (mut truth, mut predicted) = (Vec::new(), Vec::new());
    for sample in phase.classify_samples() {
        if let (Op::Classify { doc }, Some(cluster)) =
            (phase.schedule[sample.arrival].op, sample.cluster)
        {
            truth.push(stream_truth[doc]);
            predicted.push(cluster);
        }
    }
    cxk_eval::f_measure(&truth, &predicted)
}

/// Classify answers of a single-connection closed loop that follow a
/// successful model swap directly but carry an epoch older than the one
/// the swap installed.
fn stale_after_swap(phase: &Phase) -> usize {
    phase
        .samples
        .windows(2)
        .filter(|pair| {
            let (swap, answer) = (&pair[0], &pair[1]);
            swap.status == 200
                && answer.status == 200
                && swap.arrival + 1 == answer.arrival
                && matches!(phase.schedule[swap.arrival].op, Op::Reload { .. })
                && answer.epoch < swap.epoch
        })
        .count()
}

/// Successful reloads in `phase`.
fn reloads(phase: &Phase) -> impl Iterator<Item = &loadgen::Sample> + '_ {
    phase
        .samples
        .iter()
        .filter(|r| r.status == 200 && matches!(phase.schedule[r.arrival].op, Op::Reload { .. }))
}

/// Per successful reload in `phase`: from sending it to the first classify
/// answer carrying its epoch or a later one.
fn reload_visible_ns(phase: &Phase) -> Vec<u64> {
    reloads(phase)
        .filter_map(|r| {
            phase
                .classify_samples()
                .filter(|c| c.status == 200 && c.epoch >= r.epoch && c.done_ns >= r.sent_ns)
                .map(|c| c.done_ns - r.sent_ns)
                .min()
        })
        .collect()
}

struct LayerInput<'a> {
    ran: &'a [Ran],
    /// The closed loop's latencies (see [`Phase::units_ns`]), ascending.
    closed_latencies: &'a [u64],
    /// Fixed-rate latencies and generator lateness, ascending.
    latencies: &'a [u64],
    lateness: &'a [u64],
    /// Per model swap, milliseconds until an answer carried the new epoch.
    visible: &'a [f64],
    /// `GET /stats` after the closed-loop phase.
    closed_stats: &'a json::Value,
    /// Server CPU time over the closed-loop phase per request.
    cpu_us_per_req: f64,
    saturation_rps: f64,
    search_rps: f64,
    /// One training per model, model A first.
    reports: &'a [TrainReport],
}

/// Per-layer metrics measured over HTTP and reported by the trainer.
fn layer_metrics(input: &LayerInput<'_>) -> Vec<Metric> {
    let us = |ns: u64| ns as f64 / 1e3;
    let stat = |key: &str| {
        input
            .closed_stats
            .get(key)
            .and_then(json::Value::as_num)
            .unwrap_or(f64::NAN)
    };
    let service_p50 = stat("service_p50_micros");
    let closed_p50 = us(stats::percentile(input.closed_latencies, 0.50));

    let reload_http: Vec<f64> = input
        .ran
        .iter()
        .flat_map(|r| reloads(&r.phase).map(|s| (s.done_ns - s.sent_ns) as f64 / 1e6))
        .collect();
    let report = &input.reports[0];
    let train_s =
        input.reports.iter().map(TrainReport::train_s).sum::<f64>() / input.reports.len() as f64;

    vec![
        Metric::new(
            "loadgen.lateness_p95_us",
            us(stats::percentile(input.lateness, 0.95)),
            "us",
        ),
        Metric::new("loadgen.closed_p50_us", closed_p50, "us"),
        Metric::new(
            "loadgen.closed_p95_us",
            us(stats::percentile(input.closed_latencies, 0.95)),
            "us",
        ),
        Metric::new(
            "loadgen.open_p50_us",
            us(stats::percentile(input.latencies, 0.50)),
            "us",
        ),
        Metric::new(
            "loadgen.open_p95_us",
            us(stats::percentile(input.latencies, 0.95)),
            "us",
        ),
        Metric::new(
            "loadgen.open_p99_us",
            us(stats::percentile(input.latencies, 0.99)),
            "us",
        ),
        Metric::new(
            "loadgen.open_p999_us",
            us(stats::percentile(input.latencies, 0.999)),
            "us",
        ),
        Metric::new("loadgen.saturation_rps", input.saturation_rps, "req/s"),
        Metric::new("loadgen.search_rps", input.search_rps, "req/s"),
        Metric::new("http.service_p50_us", service_p50, "us"),
        Metric::new("http.service_p99_us", stat("service_p99_micros"), "us"),
        Metric::new("http.wait_p50_us", closed_p50 - service_p50, "us"),
        Metric::new("http.cpu_us_per_req", input.cpu_us_per_req, "us"),
        Metric::new("slot.reload_visible_ms", stats::median(input.visible), "ms"),
        Metric::new("slot.reload_http_ms", stats::median(&reload_http), "ms"),
        Metric::new("transact.ingest_s", report.ingest_s, "s"),
        Metric::new("core.train_s", train_s, "s"),
        Metric::new("core.fit_s", report.fit_s, "s"),
        Metric::new("core.into_model_s", report.into_model_s, "s"),
        Metric::new("core.save_model_ms", report.save_model_ms, "ms"),
        Metric::new("core.rounds", report.rounds, "count"),
        Metric::new("core.relocations", report.relocations, "count"),
        Metric::new("core.max_work", report.max_work, "count"),
        Metric::new("core.messages", report.messages, "count"),
        Metric::new("core.bytes", report.bytes, "bytes"),
        Metric::new("core.f_measure", report.f_measure, "ratio"),
        Metric::new("core.train_rss_mb", report.rss_mb, "MiB"),
    ]
}

/// Spans for every request sent, under one span per phase. In an open
/// loop: `request` (scheduled → done), with `connection` (scheduled → a
/// generator thread was free), `generator` (→ sent) and `server` (sent →
/// done) below it. In a closed loop, where nothing is scheduled: `request`
/// (sent → done) alone.
fn record_requests(trace: &mut Trace, ran: &[Ran]) {
    let mut req = 0u64;
    for r in ran {
        let p = &r.phase;
        let base = trace.offset(p.start);
        let end = p.samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let phase_span = trace.record(r.name, 0, 0, base, base + end);
        for sample in &p.samples {
            req += 1;
            let (sent, done) = (base + sample.sent_ns, base + sample.done_ns);
            if r.kind == Kind::Closed {
                trace.record("request", phase_span, req, sent, done);
                continue;
            }
            let at = base + p.schedule[sample.arrival].at_ns;
            let ready = base + sample.ready_ns;
            let id = trace.record("request", phase_span, req, at, done);
            trace.record("connection", id, req, at, ready);
            trace.record("generator", id, req, ready, sent);
            trace.record("server", id, req, sent, done);
        }
    }
}
