//! Measures online classification throughput (docs/sec) against a trained
//! model across index layouts: the direct standalone classifier (indexed
//! and brute-force), direct sharded scatter/gather at `S ∈ {1, 2, 4, 8}`,
//! and over the live HTTP server (the default one-shard index, `S`
//! shards, and remote — the latter scattering to real shard daemons over
//! loopback TCP) with concurrent clients — each HTTP layout measured
//! twice, once with one connection per request and once with keep-alive
//! connections reused for the whole stream (the `http-keepalive-*` rows;
//! reuse must win, and the binary asserts it). For every configuration it
//! also reports the **resident postings bytes** the row holds: one index
//! for a direct classifier, and one engine per model epoch for a server,
//! shared by its whole worker pool (zero on a remote frontend).
//!
//! After the closed-loop sweeps, the binary runs **open-loop** latency
//! measurements ([`cxk_bench::loadgen`]): a Poisson arrival schedule at
//! 25% and 50% of the measured keep-alive capacity, with each request's
//! latency charged from its *scheduled* arrival — the
//! coordinated-omission-free p50/p99/p999 that closed-loop clients cannot
//! produce. These land in the JSON as `openloop-*` rows carrying
//! `offered_rps`/`achieved_rps`/`p50_micros`/`p99_micros`/`p999_micros`
//! (closed-loop rows report `-1` sentinels there).
//!
//! Finally, a **large-k** regime (`--large-k`, default 64) re-runs the
//! direct sweep where pruning actually matters: at the default k=4 every
//! query candidates against all representatives and the pruned paths are
//! vacuous, so a second corpus is synthesized, trained at `k ≥ 64`, and
//! measured as `brute-large` / `indexed-large` rows (the binary asserts
//! `candidates_per_doc < k` on the indexed path) plus `tree-*` rows for
//! the hierarchical representative tree at several beam widths. Tree rows
//! carry the accuracy side of the trade-off: `agreement` (fraction of
//! documents assigned to the brute-force cluster), `f_measure`
//! (`cxk_eval::f_measure` against the generator's hybrid ground truth),
//! and the per-tuple `reps_scored`/`nodes_visited` work counters. The
//! full-beam row is asserted bit-identical to brute force; the default
//! beam is asserted ≥ 0.95 agreement.
//!
//! **Sentinel convention** (validated by CI's JSON checker): every row
//! carries every field; a numeric field reads `-1` (or `-1.0`) when the
//! row's configuration *does not measure it* — candidate counts over
//! HTTP, postings bytes on open-loop rows, latency percentiles on
//! closed-loop rows, tree fields on non-tree rows. A `0` always means
//! "measured and genuinely zero" (e.g. the tree rows' postings bytes:
//! the tree holds merged representatives, no postings).
//!
//! ```text
//! cargo run -p cxk_bench --release --bin serve_throughput -- \
//!     [--train-docs 200] [--classify-docs 400] [--k 4] [--f 0.5] [--gamma 0.4]
//!     [--dialects 3] [--threads 4] [--clients 8] [--seed 3]
//!     [--shards 1,2,4,8] [--json BENCH_serve.json] [--quick true]
//!     [--open-requests 2000]
//! ```
//!
//! Alongside the human-readable table, the run emits a machine-readable
//! summary (`BENCH_serve.json` by default, `--json <path>` to move it)
//! with one record per configuration — CI's smoke job parses it.
//! `--quick true` shrinks the corpus and the shard sweep so the whole
//! binary finishes in seconds.
//!
//! The corpus is the synthetic DBLP generator (4 record types × 4 topics),
//! split into a training half and a classification stream. Expect the
//! indexed paths to dominate brute force as `k` grows and representatives
//! diversify — pruning skips every representative sharing no tag label
//! and no term with the query, so its advantage shows on *heterogeneous*
//! markup (`--dialects 2..3`); on single-dialect corpora every document
//! shares the `dblp` label with every representative and the indexes
//! degenerate to brute force (the `candidates_per_doc` column makes the
//! pruning rate visible either way). Sharded assignment is asserted
//! bit-identical to the standalone index on every document scored.

use cxk_bench::args::{parse_usize_list, Flags};
use cxk_bench::loadgen::{self, LoadgenConfig};
use cxk_core::{EngineBuilder, TrainedModel};
use cxk_corpus::dblp::{self, DblpConfig};
use cxk_corpus::ClusteringSetting;
use cxk_eval::f_measure;
use cxk_serve::{
    Classifier, Layout, ServeOptions, Server, ShardDaemon, ShardedClassifier, ShardedEngine,
    TreeClassifier, TreeConfig, TreeEngine,
};
use cxk_transact::{BuildOptions, DatasetBuilder};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "serve_throughput --train-docs <n> --classify-docs <n> \
--k <n> --f <f64> --gamma <f64> --dialects <1-3> --threads <n> --clients <n> --seed <u64> \
--shards <list> --json <path> --quick <bool> --open-requests <n> --large-k <n>";

/// One measured configuration, reported in the table and the JSON file.
///
/// Every row serializes every field under **one sentinel convention**:
/// `-1`/`-1.0` means "this configuration does not measure the field",
/// `0` means "measured and genuinely zero". CI's JSON checker greps for
/// both sides of the rule.
struct Record {
    mode: String,
    shards: usize,
    docs: usize,
    seconds: f64,
    trash: usize,
    /// Mean candidates scored per document tuple (`-1` over HTTP and on
    /// open-loop rows, where per-tuple detail stays on the server).
    candidates_per_doc: f64,
    /// Postings bytes of one index/engine instance; `-1` when the row
    /// measures no index (open-loop rows), `0` when the engine really
    /// holds no postings (tree rows).
    postings_bytes: i64,
    /// Postings bytes the row holds resident: a direct classifier's one
    /// index, or the one engine a server's worker pool shares per epoch.
    /// Same sentinel rule as `postings_bytes`.
    resident_postings_bytes: i64,
    /// Open-loop latency measurements; `None` on closed-loop rows, where
    /// the JSON reports `-1` sentinels for every latency field.
    open_loop: Option<OpenLoopStats>,
    /// Tree-specific shape/accuracy/work measurements; `None` on
    /// non-tree rows, where the JSON reports `-1` sentinels.
    tree: Option<TreeRow>,
}

/// Latency percentiles from one open-loop (Poisson-scheduled) run.
struct OpenLoopStats {
    offered_rps: f64,
    achieved_rps: f64,
    p50_micros: i64,
    p99_micros: i64,
    p999_micros: i64,
}

/// Accuracy/work measurements for one `tree-*` configuration.
struct TreeRow {
    branch: usize,
    beam: usize,
    depth: usize,
    /// Fraction of stream documents assigned the brute-force cluster.
    agreement: f64,
    /// `cxk_eval::f_measure` against the generator's hybrid ground truth.
    f_measure: f64,
    /// Leaf representatives exactly re-ranked, per tuple (the unit the
    /// `< k` bound holds for: a document has several tuples).
    reps_scored_per_tuple: f64,
    /// Internal (merged) representatives scored, per tuple.
    nodes_visited_per_tuple: f64,
}

impl Record {
    fn docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.seconds
    }

    fn json(&self) -> String {
        let (offered, achieved, p50, p99, p999) = match &self.open_loop {
            Some(s) => (
                s.offered_rps,
                s.achieved_rps,
                s.p50_micros,
                s.p99_micros,
                s.p999_micros,
            ),
            None => (-1.0, -1.0, -1, -1, -1),
        };
        let (branch, beam, depth, agreement, fm, reps, nodes) = match &self.tree {
            Some(t) => (
                t.branch as i64,
                t.beam as i64,
                t.depth as i64,
                t.agreement,
                t.f_measure,
                t.reps_scored_per_tuple,
                t.nodes_visited_per_tuple,
            ),
            None => (-1, -1, -1, -1.0, -1.0, -1.0, -1.0),
        };
        format!(
            r#"{{"mode":"{}","shards":{},"docs":{},"seconds":{:.6},"docs_per_sec":{:.1},"trash":{},"candidates_per_doc":{:.3},"postings_bytes":{},"resident_postings_bytes":{},"offered_rps":{offered:.1},"achieved_rps":{achieved:.1},"p50_micros":{p50},"p99_micros":{p99},"p999_micros":{p999},"branch":{branch},"beam":{beam},"tree_depth":{depth},"agreement":{agreement:.4},"f_measure":{fm:.4},"reps_scored_per_tuple":{reps:.2},"nodes_visited_per_tuple":{nodes:.2}}}"#,
            self.mode,
            self.shards,
            self.docs,
            self.seconds,
            self.docs_per_sec(),
            self.trash,
            self.candidates_per_doc,
            self.postings_bytes,
            self.resident_postings_bytes,
        )
    }
}

/// Drives `classify` over the stream, tallying trash and candidate rates.
fn run_direct(
    stream: &[String],
    mut classify: impl FnMut(&str) -> cxk_serve::DocumentAssignment,
    trash_id: u32,
) -> (f64, usize, f64) {
    let start = Instant::now();
    let mut trash = 0usize;
    let mut candidates = 0usize;
    let mut tuples = 0usize;
    for doc in stream {
        let report = classify(doc);
        trash += usize::from(report.cluster == trash_id);
        candidates += report.tuples.iter().map(|t| t.candidates).sum::<usize>();
        tuples += report.tuples.len();
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds, trash, candidates as f64 / tuples.max(1) as f64)
}

/// Reads one `Content-Length`-framed response off a keep-alive
/// connection, buffering across reads so a response split over several
/// packets reassembles without a syscall per byte.
fn read_framed(conn: &mut TcpStream, buf: &mut Vec<u8>) -> String {
    let mut scratch = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).expect("UTF-8 head");
            let length: usize = head
                .lines()
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    name.eq_ignore_ascii_case("Content-Length")
                        .then(|| value.trim().parse().expect("numeric Content-Length"))
                })
                .expect("framed response");
            let total = head_end + 4 + length;
            if buf.len() >= total {
                return String::from_utf8(buf.drain(..total).collect()).expect("UTF-8 response");
            }
        }
        let n = conn.read(&mut scratch).expect("read");
        assert!(n > 0, "server closed a keep-alive connection mid-stream");
        buf.extend_from_slice(&scratch[..n]);
    }
}

/// Fires the stream at a live server from `clients` threads, each reusing
/// ONE keep-alive connection for its whole share of the stream — the
/// configuration the connection-per-request mode below pays connect
/// latency to avoid measuring.
fn run_http_keepalive(stream: &[String], addr: std::net::SocketAddr, clients: usize) -> f64 {
    let start = Instant::now();
    let chunk = stream.len().div_ceil(clients.max(1));
    let handles: Vec<_> = stream
        .chunks(chunk)
        .map(|docs| {
            let docs: Vec<String> = docs.to_vec();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                let mut buf = Vec::new();
                for doc in &docs {
                    let request = format!(
                        "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{doc}",
                        doc.len()
                    );
                    conn.write_all(request.as_bytes()).expect("send");
                    let response = read_framed(&mut conn, &mut buf);
                    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client");
    }
    start.elapsed().as_secs_f64()
}

/// Fires the stream at a live server from `clients` concurrent threads,
/// opening a fresh connection per request (`Connection: close`).
fn run_http(stream: &[String], addr: std::net::SocketAddr, clients: usize) -> f64 {
    let start = Instant::now();
    let chunk = stream.len().div_ceil(clients.max(1));
    let handles: Vec<_> = stream
        .chunks(chunk)
        .map(|docs| {
            let docs: Vec<String> = docs.to_vec();
            std::thread::spawn(move || {
                for doc in &docs {
                    let request = format!(
                        "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{doc}",
                        doc.len()
                    );
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.write_all(request.as_bytes()).expect("send");
                    let mut response = String::new();
                    conn.read_to_string(&mut response).expect("receive");
                    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client");
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let flags = Flags::from_env(USAGE);
    let quick: bool = flags.get("quick", false);
    let train_docs: usize = flags.get("train-docs", if quick { 60 } else { 200 });
    let classify_docs: usize = flags.get("classify-docs", if quick { 80 } else { 400 });
    let k: usize = flags.get("k", 4);
    let f: f64 = flags.get("f", 0.5);
    let gamma: f64 = flags.get("gamma", 0.4);
    let dialects: usize = flags.get("dialects", 3);
    let threads: usize = flags.get("threads", 4);
    let clients: usize = flags.get("clients", if quick { 4 } else { 8 });
    let seed: u64 = flags.get("seed", 3);
    let shard_sweep =
        parse_usize_list(&flags.get_str("shards", if quick { "1,2" } else { "1,2,4,8" }));
    let json_path = flags.get_str("json", "BENCH_serve.json");

    let corpus = dblp::generate(&DblpConfig {
        documents: train_docs + classify_docs,
        seed: 0xD0C5 ^ seed,
        dialects,
    });
    let (train, stream) = corpus.documents.split_at(train_docs);
    let stream: Vec<String> = stream.to_vec();

    eprintln!("[serve_throughput] building dataset over {train_docs} documents");
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in train {
        builder.add_xml(doc).expect("generated XML is well-formed");
    }
    let ds = builder.finish();

    eprintln!(
        "[serve_throughput] clustering {} transactions into k={k}",
        ds.stats.transactions
    );
    let fit = EngineBuilder::new(k)
        .similarity(f, gamma)
        .seed(seed)
        .build()
        .unwrap_or_else(|e| panic!("serve_throughput flags: {e}"))
        .fit(&ds)
        .expect("training runs");
    eprintln!(
        "[serve_throughput] trained: rounds={} converged={} trash={}",
        fit.rounds,
        fit.converged,
        fit.trash_count()
    );
    let model: Arc<TrainedModel> = Arc::new(fit.into_model(&ds, BuildOptions::default()));

    println!(
        "# serve_throughput: {} docs, k={k}, f={f}, gamma={gamma}, threads={threads}",
        stream.len()
    );
    println!("mode\tshards\tdocs\tseconds\tdocs_per_sec\ttrash\tcandidates_per_doc\tresident_postings_bytes");
    let mut records: Vec<Record> = Vec::new();
    fn emit(records: &mut Vec<Record>, r: Record) {
        println!(
            "{}\t{}\t{}\t{:.4}\t{:.1}\t{}\t{}\t{}",
            r.mode,
            r.shards,
            r.docs,
            r.seconds,
            r.docs_per_sec(),
            r.trash,
            if r.candidates_per_doc < 0.0 {
                "-".to_string()
            } else {
                format!("{:.2}", r.candidates_per_doc)
            },
            r.resident_postings_bytes,
        );
        if let Some(s) = &r.open_loop {
            println!(
                "  ↳ offered={:.1} rps achieved={:.1} rps p50={}µs p99={}µs p999={}µs",
                s.offered_rps, s.achieved_rps, s.p50_micros, s.p99_micros, s.p999_micros
            );
        }
        records.push(r);
    }

    // Direct classification: the standalone classifier, indexed vs brute
    // force, each holding one index.
    let mut indexed_clusters: Vec<u32> = Vec::with_capacity(stream.len());
    for (mode, brute) in [("indexed", false), ("brute", true)] {
        let mut classifier = Classifier::shared(Arc::clone(&model));
        let bytes = classifier.index().postings_bytes();
        let collect = mode == "indexed";
        let trash_id = classifier.trash_id();
        let (seconds, trash, cpd) = run_direct(
            &stream,
            |doc| {
                let report = if brute {
                    classifier.classify_brute(doc)
                } else {
                    classifier.classify(doc)
                }
                .expect("classify");
                if collect {
                    indexed_clusters.push(report.cluster);
                }
                report
            },
            trash_id,
        );
        emit(
            &mut records,
            Record {
                mode: mode.to_string(),
                shards: 0,
                docs: stream.len(),
                seconds,
                trash,
                candidates_per_doc: cpd,
                postings_bytes: bytes as i64,
                resident_postings_bytes: bytes as i64,
                open_loop: None,
                tree: None,
            },
        );
    }

    // Direct sharded scatter/gather across the sweep; every assignment is
    // asserted identical to the standalone index above. One engine is
    // shared however many workers scatter into it.
    for &s in &shard_sweep {
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), s));
        let bytes = engine.postings_bytes();
        let mut classifier = ShardedClassifier::new(Arc::clone(&engine));
        let trash_id = classifier.trash_id();
        let mut at = 0usize;
        let (seconds, trash, cpd) = run_direct(
            &stream,
            |doc| {
                let report = classifier.classify(doc).expect("classify");
                assert_eq!(
                    report.cluster, indexed_clusters[at],
                    "sharded (S={s}) must agree with the standalone index on doc {at}"
                );
                at += 1;
                report
            },
            trash_id,
        );
        emit(
            &mut records,
            Record {
                mode: "sharded".to_string(),
                shards: s,
                docs: stream.len(),
                seconds,
                trash,
                candidates_per_doc: cpd,
                postings_bytes: bytes as i64,
                resident_postings_bytes: bytes as i64,
                open_loop: None,
                tree: None,
            },
        );
    }

    // Over HTTP with concurrent clients: the default one-shard index,
    // `http_shards` shards, then remote — the latter scattering every
    // classification to real shard daemons over loopback TCP (one daemon
    // per contiguous representative range).
    let http_shards = shard_sweep.last().copied().unwrap_or(4);
    let daemons: Vec<ShardDaemon> = (0..http_shards)
        .map(|i| {
            let start = (i * k / http_shards) as u32;
            let end = ((i + 1) * k / http_shards) as u32;
            ShardDaemon::start(Arc::clone(&model), start..end, "127.0.0.1:0")
                .expect("shard daemon on an ephemeral loopback port")
        })
        .collect();
    let daemon_addrs: Vec<Vec<String>> =
        daemons.iter().map(|d| vec![d.addr().to_string()]).collect();
    for (mode, shards, remote) in [
        ("http-indexed", 1, false),
        ("http-sharded", http_shards, false),
        ("http-remote", http_shards, true),
    ] {
        let layout = if remote {
            Layout::Remote {
                replicas: daemon_addrs.clone(),
                deadline: cxk_serve::remote::DEFAULT_DEADLINE,
            }
        } else {
            Layout::Indexed { shards }
        };
        // One engine per epoch, shared by the whole pool whatever its
        // worker count. A remote frontend holds no postings at all: each
        // daemon owns its slice of this engine's postings in its own
        // process, so the row reports the aggregate daemon postings and
        // zero frontend-resident bytes.
        let bytes = ShardedEngine::build(Arc::clone(&model), shards).postings_bytes() as i64;
        let resident = if remote { 0 } else { bytes };
        let server = Server::start(
            (*model).clone(),
            ("127.0.0.1", 0),
            ServeOptions {
                threads,
                layout,
                ..ServeOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let seconds = run_http(&stream, server.addr(), clients);
        let stats = server.stats();
        assert_eq!(stats.errors, 0, "no server-side errors expected");
        assert_eq!(stats.classified as usize, stream.len());

        // Same server, same stream, but each client reuses one keep-alive
        // connection instead of paying a connect per request.
        let ka_seconds = run_http_keepalive(&stream, server.addr(), clients);
        let ka_stats = server.stats();
        assert_eq!(ka_stats.errors, 0, "no server-side errors expected");
        assert_eq!(ka_stats.classified as usize, 2 * stream.len());
        assert_eq!(
            ka_stats.reused - stats.reused,
            clients.min(stream.len()) as u64,
            "every keep-alive client must actually reuse its connection"
        );
        assert!(
            ka_seconds < seconds,
            "{mode}: keep-alive ({:.1} docs/s) must beat connection-per-request ({:.1} docs/s)",
            stream.len() as f64 / ka_seconds,
            stream.len() as f64 / seconds,
        );
        emit(
            &mut records,
            Record {
                mode: format!("{mode}(clients={clients})"),
                shards,
                docs: stats.classified as usize,
                seconds,
                trash: stats.trash as usize,
                candidates_per_doc: -1.0,
                postings_bytes: bytes,
                resident_postings_bytes: resident,
                open_loop: None,
                tree: None,
            },
        );
        emit(
            &mut records,
            Record {
                mode: format!(
                    "http-keepalive-{}(clients={clients})",
                    mode.trim_start_matches("http-")
                ),
                shards,
                docs: stream.len(),
                seconds: ka_seconds,
                trash: (ka_stats.trash - stats.trash) as usize,
                candidates_per_doc: -1.0,
                postings_bytes: bytes,
                resident_postings_bytes: resident,
                open_loop: None,
                tree: None,
            },
        );
        server.shutdown();
    }

    // Open-loop latency: everything above is closed-loop — clients wait
    // for each response before sending the next request, so queueing never
    // accumulates and "latency" degenerates to service time. Here a
    // Poisson arrival schedule fixes the request times in advance and each
    // request is charged from its *scheduled* arrival to its completion
    // (the coordinated-omission-free measurement), at offered rates set to
    // fractions of the keep-alive capacity measured above so the sweep
    // shows both an uncongested and a queueing regime on any machine.
    let capacity = records
        .iter()
        .find(|r| r.mode.starts_with("http-keepalive-indexed"))
        .expect("closed-loop keep-alive sweep ran first")
        .docs_per_sec();
    let open_requests: usize = flags.get("open-requests", if quick { 300 } else { 2000 });
    let server = Server::start(
        (*model).clone(),
        ("127.0.0.1", 0),
        ServeOptions {
            threads,
            ..ServeOptions::default()
        },
    )
    .expect("bind ephemeral port");
    for fraction in [0.25, 0.5] {
        let config = LoadgenConfig {
            offered_rps: (capacity * fraction).max(20.0),
            requests: open_requests,
            clients,
            seed: seed ^ 0x10AD,
        };
        let report = loadgen::run_open_loop(server.addr(), &stream, &config);
        assert_eq!(report.completed, open_requests, "open loop never drops");
        let seconds = report.completed as f64 / report.achieved_rps;
        eprintln!(
            "[serve_throughput] open-loop {:.0} rps offered: achieved {:.0} rps, p50 {}µs p99 {}µs p999 {}µs",
            report.offered_rps,
            report.achieved_rps,
            report.p50_micros,
            report.p99_micros,
            report.p999_micros
        );
        emit(
            &mut records,
            Record {
                mode: format!("openloop-indexed(load={fraction})"),
                shards: 1,
                docs: report.completed,
                seconds,
                trash: 0,
                candidates_per_doc: -1.0,
                // The open loop measures latency, not index shape: the
                // bytes fields are unmeasured sentinels, not zeros.
                postings_bytes: -1,
                resident_postings_bytes: -1,
                open_loop: Some(OpenLoopStats {
                    offered_rps: report.offered_rps,
                    achieved_rps: report.achieved_rps,
                    p50_micros: i64::try_from(report.p50_micros).unwrap_or(i64::MAX),
                    p99_micros: i64::try_from(report.p99_micros).unwrap_or(i64::MAX),
                    p999_micros: i64::try_from(report.p999_micros).unwrap_or(i64::MAX),
                }),
                tree: None,
            },
        );
    }
    server.shutdown();

    // ─── Large-k regime: where pruning and the tree actually matter ───
    //
    // Everything above ran at the default k=4, where every query
    // candidates against all representatives and `candidates_per_doc == k`
    // — the pruned paths are vacuous. Train a second model at k ≥ 64 on a
    // fresh heterogeneous corpus and measure the exact paths plus the
    // hierarchical representative tree across beam widths.
    let large_k: usize = flags.get("large-k", 64);
    let large_train: usize = (3 * large_k).max(if quick { 160 } else { 320 });
    let large_classify: usize = if quick { 96 } else { 240 };
    eprintln!(
        "[serve_throughput] large-k regime: k={large_k}, {large_train} train / {large_classify} classify docs"
    );
    let large = dblp::generate(&DblpConfig {
        documents: large_train + large_classify,
        seed: 0xB16C ^ seed,
        dialects: 3,
    });
    let (large_truth_all, _) = large.labels_for(ClusteringSetting::Hybrid);
    let large_truth: Vec<u32> = large_truth_all[large_train..].to_vec();
    let (large_train_docs, large_stream) = large.documents.split_at(large_train);
    let large_stream: Vec<String> = large_stream.to_vec();
    let mut large_builder = DatasetBuilder::new(BuildOptions::default());
    for doc in large_train_docs {
        large_builder
            .add_xml(doc)
            .expect("generated XML is well-formed");
    }
    let large_ds = large_builder.finish();
    let large_fit = EngineBuilder::new(large_k)
        .similarity(f, gamma)
        .seed(seed)
        .build()
        .expect("large-k config is valid")
        .fit(&large_ds)
        .expect("large-k training runs");
    eprintln!(
        "[serve_throughput] large-k trained: rounds={} converged={} trash={}",
        large_fit.rounds,
        large_fit.converged,
        large_fit.trash_count()
    );
    let large_model: Arc<TrainedModel> =
        Arc::new(large_fit.into_model(&large_ds, BuildOptions::default()));

    // Brute force is the agreement reference for everything below.
    let mut brute_clusters: Vec<u32> = Vec::with_capacity(large_stream.len());
    for (mode, brute) in [("brute-large", true), ("indexed-large", false)] {
        let mut classifier = Classifier::shared(Arc::clone(&large_model));
        let bytes = classifier.index().postings_bytes();
        let trash_id = classifier.trash_id();
        let collect = brute;
        let (seconds, trash, cpd) = run_direct(
            &large_stream,
            |doc| {
                let report = if brute {
                    classifier.classify_brute(doc)
                } else {
                    classifier.classify(doc)
                }
                .expect("classify");
                if collect {
                    brute_clusters.push(report.cluster);
                }
                report
            },
            trash_id,
        );
        if !brute {
            assert!(
                cpd < large_k as f64,
                "large-k indexed path must actually prune: {cpd:.1} candidates/tuple at k={large_k}"
            );
        }
        emit(
            &mut records,
            Record {
                mode: mode.to_string(),
                shards: 0,
                docs: large_stream.len(),
                seconds,
                trash,
                candidates_per_doc: cpd,
                postings_bytes: bytes as i64,
                resident_postings_bytes: bytes as i64,
                open_loop: None,
                tree: None,
            },
        );
    }

    // The tree sweep: default branch at beam 1, the default beam, and a
    // full beam wide enough to cover the widest level (= exact).
    let tree_branch = TreeConfig::default().branch;
    let default_beam = TreeConfig::default().beam;
    for (label, beam) in [
        ("tree-w1", 1),
        ("tree-w2", 2),
        ("tree-default", default_beam),
        ("tree-full", large_k),
    ] {
        let engine = Arc::new(TreeEngine::build(
            Arc::clone(&large_model),
            TreeConfig {
                branch: tree_branch,
                beam,
            },
        ));
        let mut classifier = TreeClassifier::new(Arc::clone(&engine));
        let trash_id = classifier.trash_id();
        let mut agree = 0usize;
        let mut preds: Vec<u32> = Vec::with_capacity(large_stream.len());
        let mut at = 0usize;
        let (seconds, trash, cpd) = run_direct(
            &large_stream,
            |doc| {
                let report = classifier.classify(doc).expect("classify");
                agree += usize::from(report.cluster == brute_clusters[at]);
                at += 1;
                preds.push(report.cluster);
                report
            },
            trash_id,
        );
        let stats = engine.stats();
        let docs = large_stream.len() as f64;
        let agreement = agree as f64 / docs;
        let row = TreeRow {
            branch: tree_branch,
            beam: stats.beam,
            depth: stats.depth,
            agreement,
            f_measure: f_measure(&large_truth, &preds),
            reps_scored_per_tuple: stats.reps_scored as f64 / stats.tuples.max(1) as f64,
            nodes_visited_per_tuple: stats.nodes_visited as f64 / stats.tuples.max(1) as f64,
        };
        if beam >= large_k {
            assert!(
                engine.is_exact() && agreement == 1.0,
                "full-beam tree must be bit-identical to brute force (agreement {agreement:.4})"
            );
        } else {
            assert!(
                row.reps_scored_per_tuple < large_k as f64,
                "partial beams must score strictly fewer than k reps/tuple ({:.1} at k={large_k})",
                row.reps_scored_per_tuple
            );
            assert!(
                cpd < large_k as f64,
                "partial-beam candidates/tuple must stay below k ({cpd:.1})"
            );
        }
        if beam == default_beam {
            assert!(
                agreement >= 0.95,
                "default beam {default_beam} must keep ≥ 0.95 agreement vs brute, got {agreement:.4}"
            );
        }
        emit(
            &mut records,
            Record {
                mode: format!("{label}(b={tree_branch},w={beam})"),
                shards: 0,
                docs: large_stream.len(),
                seconds,
                trash,
                candidates_per_doc: cpd,
                // Measured zero, not a sentinel: the tree engine holds
                // merged representatives, no postings.
                postings_bytes: 0,
                resident_postings_bytes: 0,
                open_loop: None,
                tree: Some(row),
            },
        );
    }

    let json = format!(
        r#"{{"bench":"serve_throughput","quick":{quick},"train_docs":{train_docs},"classify_docs":{},"k":{k},"f":{f},"gamma":{gamma},"dialects":{dialects},"threads":{threads},"clients":{clients},"seed":{seed},"large_k":{large_k},"configs":[{}]}}"#,
        stream.len(),
        records
            .iter()
            .map(Record::json)
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::write(&json_path, format!("{json}\n")).expect("write bench JSON");
    eprintln!("[serve_throughput] wrote {json_path}");
}
