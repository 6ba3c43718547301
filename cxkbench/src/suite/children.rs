//! The benchmark's child processes: the trainer and the server.
//!
//! Both are this executable re-run with a hidden subcommand, so the
//! server's set-up time, memory and CPU time belong to the server alone,
//! and training's peak memory to training alone. The server child takes
//! the path `cxk serve` takes: `load_model_file`, then `Server::start`.

use crate::suite::{corpus, loadgen};
use cxk_analysis::json;
use cxk_core::{load_model_file, save_model, Backend, EngineBuilder, TrainedModel};
use cxk_corpus::transaction_labels;
use cxk_serve::{ServeOptions, Server};
use cxk_transact::{BuildOptions, DatasetBuilder};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of the served model (`nproc` on the reference box).
const SERVER_THREADS: usize = 2;

/// How to train one model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrainSpec {
    /// Seed of the generated corpus.
    pub corpus_seed: u64,
    /// Training documents: the corpus's first `docs`.
    pub docs: usize,
    /// Clusters.
    pub k: usize,
    /// Simulated peers.
    pub peers: usize,
    /// Engine seed (initial representatives).
    pub seed: u64,
}

/// What one training child measured.
#[derive(Debug, Clone)]
pub(crate) struct TrainReport {
    /// XML → `Dataset`, seconds.
    pub ingest_s: f64,
    /// `Engine::fit`, seconds.
    pub fit_s: f64,
    /// `FitOutcome::into_model`, seconds.
    pub into_model_s: f64,
    /// `save_model`, milliseconds.
    pub save_model_ms: f64,
    /// Collaborative rounds.
    pub rounds: f64,
    /// Relocations summed over rounds.
    pub relocations: f64,
    /// Per-round critical-path work, summed over rounds.
    pub max_work: f64,
    /// Messages exchanged.
    pub messages: f64,
    /// Bytes exchanged (the paper's traffic cost).
    pub bytes: f64,
    /// F-measure of the fit against the hybrid ground truth.
    pub f_measure: f64,
    /// Peak resident memory of the training process, MiB.
    pub rss_mb: f64,
}

impl TrainReport {
    /// fit + into_model + save_model, seconds.
    pub fn train_s(&self) -> f64 {
        self.fit_s + self.into_model_s + self.save_model_ms / 1e3
    }
}

/// Trains in a child process, which writes the snapshot to `model`.
pub(crate) fn train(exe: &Path, spec: TrainSpec, model: &Path) -> std::io::Result<TrainReport> {
    let output = Command::new(exe)
        .arg("train-child")
        .args(["--corpus-seed", &spec.corpus_seed.to_string()])
        .args(["--docs", &spec.docs.to_string()])
        .args(["--k", &spec.k.to_string()])
        .args(["--peers", &spec.peers.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--model", path_arg(model)?])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(other(format!("training child failed: {}", output.status)));
    }
    let line = String::from_utf8_lossy(&output.stdout);
    let v = json::parse(line.trim()).map_err(other)?;
    let num = |key: &str| {
        v.get(key)
            .and_then(json::Value::as_num)
            .ok_or_else(|| other(format!("training child did not report {key}")))
    };
    Ok(TrainReport {
        ingest_s: num("ingest_s")?,
        fit_s: num("fit_s")?,
        into_model_s: num("into_model_s")?,
        save_model_ms: num("save_model_ms")?,
        rounds: num("rounds")?,
        relocations: num("relocations")?,
        max_work: num("max_work")?,
        messages: num("messages")?,
        bytes: num("bytes")?,
        f_measure: num("f_measure")?,
        rss_mb: num("rss_mb")?,
    })
}

fn path_arg(path: &Path) -> std::io::Result<&str> {
    path.to_str()
        .ok_or_else(|| other(format!("{} is not UTF-8", path.display())))
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    flag(args, name)?
        .parse()
        .map_err(|e| format!("{name}: {e}"))
}

/// The `train-child` subcommand: ingest → fit → into_model → save_model,
/// each step timed, reported as one JSON line on stdout.
pub fn train_child(args: &[String]) -> Result<(), String> {
    let docs = number(args, "--docs")? as usize;
    let corpus = corpus(number(args, "--corpus-seed")?, docs);
    let (k, peers) = (
        number(args, "--k")? as usize,
        number(args, "--peers")? as usize,
    );

    let started = Instant::now();
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).map_err(|e| e.to_string())?;
    }
    let ds = builder.finish();
    let ingest_s = started.elapsed().as_secs_f64();

    let engine = EngineBuilder::new(k)
        .backend(Backend::SimulatedP2p { peers })
        .similarity(0.5, 0.4)
        .seed(number(args, "--seed")?)
        .build()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let fit = engine.fit(&ds).map_err(|e| e.to_string())?;
    let fit_s = started.elapsed().as_secs_f64();
    let outcome = fit.outcome().clone();

    let started = Instant::now();
    let model = fit.into_model(&ds, BuildOptions::default());
    let into_model_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let bytes = save_model(&model);
    let save_model_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::write(flag(args, "--model")?, &bytes).map_err(|e| e.to_string())?;

    let truth = transaction_labels(&corpus.hybrid_class, &ds.doc_of);
    println!(
        r#"{{"ingest_s":{ingest_s},"fit_s":{fit_s},"into_model_s":{into_model_s},"save_model_ms":{save_model_ms},"rounds":{},"relocations":{},"max_work":{},"messages":{},"bytes":{},"f_measure":{},"rss_mb":{}}}"#,
        outcome.rounds,
        outcome.per_round.iter().map(|r| r.relocations).sum::<u64>(),
        outcome.per_round.iter().map(|r| r.max_work).sum::<u64>(),
        outcome.total_messages,
        outcome.total_bytes,
        cxk_eval::f_measure(&truth, &outcome.assignments),
        peak_rss_mb(std::process::id()).map_err(|e| e.to_string())?,
    );
    Ok(())
}

/// The `serve-child` subcommand: load the snapshot and serve it the way
/// `cxk serve` does, print the bound port, and shut down when stdin closes.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--model")?;
    let model = load_model_file(path).map_err(|e| e.to_string())?;
    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: SERVER_THREADS,
            model_path: Some(PathBuf::from(path)),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    println!("{}", server.addr().port());
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

/// A running server child. Dropping it kills the child and waits for it.
pub(crate) struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// From spawning the child to its first `200` on `/classify`.
    pub setup: Duration,
}

impl ServerProcess {
    /// Spawns a server child on `model` and waits until `probe` (a
    /// classify request) is answered `200`.
    pub fn start(exe: &Path, model: &Path, probe: &[u8]) -> std::io::Result<Self> {
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve-child")
            .args(["--model", path_arg(model)?])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Self {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        let port: u16 = line
            .trim()
            .parse()
            .map_err(|_| other(format!("server child printed {line:?}, not a port")))?;
        server.addr.set_port(port);
        loop {
            let (status, body) = loadgen::request_once(server.addr, probe)?;
            if status == 200 {
                break;
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err(other(format!("server never answered 200: {status} {body}")));
            }
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the child's stdin (its shutdown signal) and waits for it.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(other(format!("server child exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(other("server child did not shut down"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub(crate) fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| other("no VmHWM in /proc status"))?;
    Ok(kib / 1024.0)
}

/// CPU time the live threads of process `pid` have run, nanoseconds, from
/// each thread's `schedstat` (exact, where `/proc/<pid>/stat` counts
/// ticks of 10 ms).
pub(crate) fn cpu_ns(pid: u32) -> std::io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread that exited after the directory was listed ran nothing
        // more.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        total += text
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or_else(|| other("malformed schedstat"))?;
    }
    Ok(total)
}

/// Loads a snapshot in this process: the correctness reference and the
/// per-layer replay read the same bytes the server loads.
pub(crate) fn load(model: &Path) -> std::io::Result<TrainedModel> {
    load_model_file(model).map_err(|e| other(e.to_string()))
}

pub(crate) fn other(e: impl ToString) -> std::io::Error {
    std::io::Error::other(e.to_string())
}
