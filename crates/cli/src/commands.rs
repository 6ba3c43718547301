//! The `build` / `info` / `cluster` / `assign` / `train` / `classify` /
//! `serve` / `synth` command implementations.
//!
//! Commands return their stdout as a `String` (and errors as `String`) so
//! unit tests drive them directly without spawning processes. The one
//! exception is [`serve`], which runs a foreground server and only returns
//! on failure.

use crate::flags::Parsed;
use cxk_core::{
    load_model_file, save_model_file, Algorithm, Backend, CxkError, EngineBuilder, TrainedModel,
};
use cxk_corpus::{synthesize_to, CorpusStream, SynthSpec};
use cxk_serve::{
    assignment_json, Classifier, Layout, ServeOptions, Server, ShardDaemon, TreeConfig,
};
use cxk_transact::{
    load_dataset, save_dataset, BuildOptions, Dataset, DatasetBuilder, IngestStats, SimParams,
};
use cxk_util::json;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Renders a [`CxkError`] as a CLI message, mapping engine configuration
/// fields back onto the flags that set them so the user sees `--k`, `--m`,
/// `--gamma`, … instead of internal field names. Commands print these to
/// stderr and exit with code 1 — typed errors, never panics.
fn cli_error(e: CxkError) -> String {
    match e {
        CxkError::Config { field, message } => {
            let flag = match field {
                "peers" => "m",
                "backend" => "algorithm",
                other => other,
            };
            format!("--{flag}: {message}")
        }
        other => other.to_string(),
    }
}

/// Builds the engine every training-flavored command shares: `--k`, `--f`,
/// `--gamma`, `--m`, `--seed`, `--algorithm` are validated together and
/// reported as flag errors.
fn engine_from_flags(parsed: &Parsed) -> Result<cxk_core::Engine, String> {
    let k: usize = parsed.get("k", 2)?;
    let f: f64 = parsed.get("f", 0.5)?;
    let gamma: f64 = parsed.get("gamma", 0.7)?;
    let m: usize = parsed.get("m", 1)?;
    let seed: u64 = parsed.get("seed", 0)?;
    let algorithm = match parsed.get_str("algorithm").unwrap_or("cxk") {
        "cxk" => Algorithm::CxkMeans,
        "pk" => Algorithm::PkMeans,
        "vsm" => Algorithm::VsmKmeans,
        other => return Err(format!("unknown algorithm `{other}` (cxk|pk|vsm)")),
    };
    let backend = if m == 1 {
        Backend::Centralized
    } else {
        Backend::SimulatedP2p { peers: m }
    };
    let mut builder = EngineBuilder::new(k)
        .algorithm(algorithm)
        .backend(backend)
        .similarity(f, gamma)
        .seed(seed);
    if algorithm == Algorithm::VsmKmeans {
        // The VSM baseline has always run with its own (higher) round cap.
        builder = builder.max_rounds(50);
    }
    builder.build().map_err(cli_error)
}

/// `cxk build <inputs>... -o <out.cxkds>`.
pub fn build(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let out_path = parsed.output().ok_or("build needs -o <out.cxkds>")?;
    let ds = dataset_from_xml_inputs(parsed.positional())?;
    std::fs::write(out_path, save_dataset(&ds))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(format!(
        "wrote {out_path}: {} documents, {} transactions, {} items\n",
        ds.stats.documents, ds.stats.transactions, ds.stats.items
    ))
}

/// `cxk info <dataset.cxkds | xml inputs>...`.
pub fn info(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let ds = dataset_from_any_inputs(parsed.positional())?;
    let s = &ds.stats;
    let mut out = String::new();
    let _ = writeln!(out, "documents            {}", s.documents);
    let _ = writeln!(out, "transactions         {}", s.transactions);
    let _ = writeln!(out, "distinct items       {}", s.items);
    let _ = writeln!(out, "vocabulary |V|       {}", s.vocabulary);
    let _ = writeln!(out, "complete paths       {}", s.complete_paths);
    let _ = writeln!(out, "tag paths            {}", s.tag_paths);
    let _ = writeln!(out, "max transaction len  {}", s.max_transaction_len);
    let _ = writeln!(out, "max TCU nnz          {}", s.max_tcu_nnz);
    let _ = writeln!(out, "total TCUs (N_T)     {}", s.total_tcus);
    let _ = writeln!(out, "max tree depth       {}", s.max_depth);
    Ok(out)
}

/// `cxk cluster <inputs>... [--k N] [--f F] [--gamma G] [--m M] [--seed S]
/// [--algorithm cxk|pk|vsm] [--quiet]`.
pub fn cluster(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let ds = dataset_from_any_inputs(parsed.positional())?;
    if ds.transactions.is_empty() {
        return Err("nothing to cluster: the input has no transactions".into());
    }
    let engine = engine_from_flags(&parsed)?;
    let outcome = engine.fit(&ds).map_err(cli_error)?;
    let config = engine.config();
    let (k, m) = (config.k, engine.backend().peers());
    let (f, gamma) = (config.params.f, config.params.gamma);

    let mut out = String::new();
    if !parsed.has("quiet") {
        for (t, &a) in outcome.assignments.iter().enumerate() {
            let cluster = if a as usize == k {
                "trash".to_string()
            } else {
                a.to_string()
            };
            let _ = writeln!(out, "{t}\t{}\t{cluster}", ds.doc_of[t]);
        }
    }
    let sizes = outcome.cluster_sizes();
    let _ = writeln!(
        out,
        "# algorithm={} k={k} m={m} f={f} gamma={gamma} rounds={} converged={}",
        engine.algorithm().name(),
        outcome.rounds,
        outcome.converged
    );
    let _ = writeln!(
        out,
        "# sizes={:?} trash={} simulated_seconds={:.6}",
        &sizes[..k],
        sizes[k],
        outcome.simulated_seconds
    );
    Ok(out)
}

/// `cxk assign --base <inputs> --new <inputs> [--k N] [--f F] [--gamma G]
/// [--seed S]` — bootstrap a streaming clusterer on the base corpus and
/// fold the new documents in, printing each arrival's clusters.
pub fn assign(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let base_input = parsed
        .get_str("base")
        .ok_or("assign needs --base <inputs>")?;
    let new_input = parsed.get_str("new").ok_or("assign needs --new <inputs>")?;
    let k: usize = parsed.get("k", 2)?;
    let f: f64 = parsed.get("f", 0.5)?;
    let gamma: f64 = parsed.get("gamma", 0.7)?;
    let seed: u64 = parsed.get("seed", 0)?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&f) || !(0.0..=1.0).contains(&gamma) {
        return Err("--f and --gamma must lie in [0, 1]".into());
    }

    let read_all = |input: &str| -> Result<Vec<(PathBuf, String)>, String> {
        let files = expand_inputs(&[input.to_string()])?;
        files
            .into_iter()
            .map(|file| {
                std::fs::read_to_string(&file)
                    .map(|text| (file.clone(), text))
                    .map_err(|e| format!("cannot read {}: {e}", file.display()))
            })
            .collect()
    };
    let base = read_all(base_input)?;
    let arrivals = read_all(new_input)?;
    if base.is_empty() {
        return Err("no base XML files".into());
    }

    let mut opts = cxk_stream::StreamOptions::new(k);
    opts.config.params = SimParams::new(f, gamma);
    opts.config.seed = seed;
    opts.policy = cxk_stream::RefreshPolicy::manual();
    let base_refs: Vec<&str> = base.iter().map(|(_, text)| text.as_str()).collect();
    let mut clusterer = cxk_stream::StreamClusterer::new(&base_refs, opts)
        .map_err(|e| format!("base corpus: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# base: {} documents, {} transactions, k = {k}",
        clusterer.document_count(),
        clusterer.dataset().stats.transactions
    );
    for (file, text) in &arrivals {
        let report = clusterer
            .push(text)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let clusters: Vec<String> = report
            .assignments
            .iter()
            .map(|&a| {
                if a as usize == k {
                    "trash".to_string()
                } else {
                    a.to_string()
                }
            })
            .collect();
        let _ = writeln!(out, "{}\t{}", file.display(), clusters.join(","));
    }
    Ok(out)
}

/// `cxk synth --corpus dblp|ieee|wikipedia --docs N -o <corpus.xml>
/// [--seed S] [--dialects D] [--labels <out.tsv>]` — stream a synthetic
/// newline-delimited XML corpus to disk: one single-line document per
/// line, with only one document resident at a time, so
/// `--docs 1000000` runs in constant memory. `--labels` mirrors the
/// ground-truth classes to a TSV side file
/// (`doc_index<TAB>structure<TAB>content<TAB>hybrid`).
pub fn synth(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    if let Some(stray) = parsed.positional().first() {
        return Err(format!(
            "synth takes no positional arguments (got `{stray}`); use --corpus/--docs/-o"
        ));
    }
    let out_path = parsed.output().ok_or("synth needs -o <corpus.xml>")?;
    let docs: usize = parsed.get("docs", 0)?;
    if docs == 0 {
        return Err("synth needs --docs N (at least 1)".into());
    }
    let spec = SynthSpec {
        corpus: parsed.get_str("corpus").unwrap_or("dblp").to_string(),
        docs,
        seed: match parsed.get_str("seed") {
            None => None,
            Some(_) => Some(parsed.get("seed", 0u64)?),
        },
        dialects: match parsed.get_str("dialects") {
            None => None,
            Some(_) => Some(parsed.get("dialects", 0usize)?),
        },
    };
    let mut stream = CorpusStream::from_spec(&spec)?;
    let xml_out = std::io::BufWriter::new(
        std::fs::File::create(out_path).map_err(|e| format!("cannot write {out_path}: {e}"))?,
    );
    let mut labels_out = match parsed.get_str("labels") {
        None => None,
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?,
        )),
    };
    let summary = synthesize_to(
        xml_out,
        labels_out.as_mut().map(|w| w as &mut dyn std::io::Write),
        &mut stream,
    )
    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let labels_note = parsed
        .get_str("labels")
        .map(|path| format!(", labels to {path}"))
        .unwrap_or_default();
    Ok(format!(
        "wrote {out_path}: {} {} documents, {} bytes{labels_note}\n",
        summary.documents, spec.corpus, summary.xml_bytes
    ))
}

/// `cxk train <inputs>... --k N [--f F] [--gamma G] [--m M] [--seed S]
/// [--stream] -o <model.cxkmodel>` — cluster the corpus and snapshot the
/// servable model (representatives + frozen preprocessing context). With
/// `--stream`, the inputs are newline-delimited corpus files ingested
/// through the SAX tuple extractor: no document ever materializes as a
/// DOM tree, so peak memory is bounded by document size, not corpus size.
pub fn train(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let out_path = parsed.output().ok_or("train needs -o <model.cxkmodel>")?;
    let (ds, ingest) = if parsed.has("stream") {
        let (ds, stats) = dataset_from_corpus_streams(parsed.positional())?;
        (ds, Some(stats))
    } else {
        (dataset_from_any_inputs(parsed.positional())?, None)
    };
    if ds.transactions.is_empty() {
        return Err("nothing to train on: the input has no transactions".into());
    }
    let engine = engine_from_flags(&parsed)?;
    let fit = engine.fit(&ds).map_err(cli_error)?;
    let config = engine.config();
    let (k, m) = (config.k, engine.backend().peers());
    let (f, gamma) = (config.params.f, config.params.gamma);
    let (rounds, converged) = (fit.rounds, fit.converged);
    let sizes = fit.cluster_sizes();
    let model = fit.into_model(&ds, BuildOptions::default());
    let bytes = save_model_file(&model, out_path).map_err(cli_error)?;

    let mut out = String::new();
    if let Some(stats) = ingest {
        let _ = writeln!(
            out,
            "streamed {} documents ({} tree tuples, {} capped) in one bounded-memory pass",
            stats.documents, stats.tuples, stats.capped_documents
        );
    }
    let _ = writeln!(
        out,
        "trained k={k} m={m} f={f} gamma={gamma} rounds={rounds} converged={converged}"
    );
    let _ = writeln!(out, "sizes={:?} trash={}", &sizes[..k], sizes[k]);
    let _ = writeln!(
        out,
        "wrote {out_path}: {bytes} bytes, {} representatives over {} documents",
        model.k(),
        model.trained_documents
    );
    Ok(out)
}

/// `cxk classify <model.cxkmodel> <inputs>... [--brute] [--jsonl]
/// [--stream]` — assign each XML document to a trained model's cluster.
/// Prints one `file ⟨TAB⟩ cluster ⟨TAB⟩ score` row per document, or —
/// with `--jsonl` — one JSON object per line (`file`, `cluster`, `trash`,
/// `capped`, `score`, `tuples`), the bulk-scoring format that pairs with
/// the server's batch `POST /classify`. With `--stream`, each input is a
/// newline-delimited corpus file classified line by line (rows are
/// labeled `file:line`), so a million-document corpus scores in bounded
/// memory; a trailing `#` summary reports how many documents hit the
/// tree-tuple cap.
pub fn classify(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let (model_path, inputs) = parsed
        .positional()
        .split_first()
        .ok_or("classify needs <model.cxkmodel> and XML inputs")?;
    let model = read_model(model_path)?;
    let trash = model.trash_id();
    let mut classifier = Classifier::shared(Arc::new(model));
    let files = expand_inputs(inputs)?;
    if files.is_empty() {
        return Err("no input XML files".into());
    }
    let brute = parsed.has("brute");
    let jsonl = parsed.has("jsonl");

    if parsed.has("stream") {
        return classify_stream(&mut classifier, &files, trash, brute, jsonl);
    }

    let mut out = String::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let report = if brute {
            classifier.classify_brute(&text)
        } else {
            classifier.classify(&text)
        }
        .map_err(|e| format!("{}: {e}", file.display()))?;
        if jsonl {
            // One object per line: a `file` field spliced onto the exact
            // assignment JSON the server's /classify endpoint answers
            // with, so bulk pipelines can consume either surface.
            let assignment = assignment_json(&report, trash);
            let _ = writeln!(
                out,
                r#"{{"file":"{}",{}"#,
                json::escape(&file.display().to_string()),
                &assignment[1..]
            );
        } else {
            let cluster = if report.cluster == trash {
                "trash".to_string()
            } else {
                report.cluster.to_string()
            };
            let _ = writeln!(out, "{}\t{cluster}\t{:.6}", file.display(), report.score);
        }
    }
    Ok(out)
}

/// The `--stream` arm of [`classify`]: one document per corpus line,
/// classified as it is read — only the current line is ever resident.
fn classify_stream(
    classifier: &mut Classifier,
    files: &[PathBuf],
    trash: u32,
    brute: bool,
    jsonl: bool,
) -> Result<String, String> {
    let mut out = String::new();
    let mut documents = 0u64;
    let mut capped = 0u64;
    for file in files {
        let reader = std::io::BufReader::new(
            std::fs::File::open(file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?,
        );
        for (idx, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("{}: {e}", file.display()))?;
            if line.trim().is_empty() {
                continue;
            }
            let label = format!("{}:{}", file.display(), idx + 1);
            let report = if brute {
                classifier.classify_brute(&line)
            } else {
                classifier.classify(&line)
            }
            .map_err(|e| format!("{label}: {e}"))?;
            documents += 1;
            if report.capped {
                capped += 1;
            }
            if jsonl {
                let assignment = assignment_json(&report, trash);
                let _ = writeln!(
                    out,
                    r#"{{"file":"{}",{}"#,
                    json::escape(&label),
                    &assignment[1..]
                );
            } else {
                let cluster = if report.cluster == trash {
                    "trash".to_string()
                } else {
                    report.cluster.to_string()
                };
                let _ = writeln!(out, "{label}\t{cluster}\t{:.6}", report.score);
            }
        }
    }
    if !jsonl {
        let _ = writeln!(out, "# documents={documents} capped={capped}");
    }
    Ok(out)
}

/// `cxk serve <model.cxkmodel> [--port P] [--threads T]
/// [--shards S | --tree [--branch B] [--beam W] | --remote-shards …
/// [--replicas …] [--remote-deadline-ms N]] [--watch SECS]
/// [--queue-depth N] [--keep-alive SECS]` — run the classification
/// server in the foreground. The layout flags are mutually exclusive (see
/// [`layout_from_flags`]). By default the whole worker pool shares one
/// index per model epoch; `--shards` partitions it across `S` shards
/// (assignments are bit-identical either way, and memory does not scale
/// with `--threads`). With `--tree`, each epoch publishes one shared
/// hierarchical representative tree (branching factor `--branch`,
/// default 8) and assignment descends it greedily keeping the top
/// `--beam` subtrees per level (default 3) before exactly re-ranking
/// the reached leaves — sublinear in k but approximate below full beam.
/// With `--remote-shards`, every classification scatters to `cxk
/// shard-serve` daemons. With `--watch`, the snapshot file is polled
/// every `SECS` seconds and hot-swapped into the running worker pool
/// when it changes; `POST /reload` forces a swap at any time.
/// `--queue-depth` bounds the acceptor→worker request queue (overflow is
/// shed with a `503` carrying `Retry-After`); `--keep-alive` sets the
/// idle horizon for connection reuse, and `--keep-alive 0` disables reuse
/// entirely (one response per connection). Only returns on error.
pub fn serve(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    let [model_path] = parsed.positional() else {
        return Err("serve needs exactly one <model.cxkmodel>".into());
    };
    let port: u16 = parsed.get("port", 7070)?;
    let threads: usize = parsed.get("threads", 4)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let layout = layout_from_flags(&parsed)?;
    let watch = match parsed.get_str("watch") {
        None => None,
        Some(_) => {
            let secs: u64 = parsed.get("watch", 0)?;
            if secs == 0 {
                return Err("--watch must be at least 1 second".into());
            }
            Some(std::time::Duration::from_secs(secs))
        }
    };
    let queue_depth: usize = parsed.get("queue-depth", ServeOptions::default().queue_depth)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    // `--keep-alive 0` is the documented way to disable connection reuse,
    // so 0 maps to `None` rather than being rejected.
    let keep_alive = match parsed.get_str("keep-alive") {
        None => ServeOptions::default().keep_alive,
        Some(_) => {
            let secs: u64 = parsed.get("keep-alive", 0)?;
            (secs > 0).then(|| std::time::Duration::from_secs(secs))
        }
    };
    let model = read_model(model_path)?;
    let k = model.k();
    let described = match &layout {
        Layout::Indexed { shards } => format!("one shared index per epoch over {shards} shard(s)"),
        Layout::Tree(cfg) => format!(
            "representative tree (branch {}, beam {})",
            cfg.branch, cfg.beam
        ),
        Layout::Remote { replicas, .. } => format!(
            "{} remote shards (scatter/gather over the cxk_p2p fabric)",
            replicas.len()
        ),
    };
    let opts = ServeOptions {
        threads,
        layout,
        model_path: Some(PathBuf::from(model_path)),
        watch,
        queue_depth,
        keep_alive,
        ..ServeOptions::default()
    };
    let watching = match watch {
        Some(interval) => format!(", watching {model_path} every {}s", interval.as_secs()),
        None => String::new(),
    };
    let server = Server::start(model, ("127.0.0.1", port), opts)
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    eprintln!(
        "cxk: serving k={k} model on http://{} with {threads} threads (POST /classify, POST /reload, GET /model, GET /stats), {described}{watching}",
        server.addr()
    );
    server.join();
    Ok(String::new())
}

/// `cxk shard-serve --model <model.cxkmodel> --range A..B --listen ADDR` —
/// run one shard daemon in the foreground: it loads the snapshot, builds
/// the postings slice for representatives `A..B` (half-open, must be a
/// sub-range of `0..k`), and answers scatter requests over the `cxk_p2p`
/// framed-TCP fabric. A frontend started with `cxk serve --remote-shards`
/// fans every classification out to a set of these daemons. Only returns
/// on error.
pub fn shard_serve(args: &[String]) -> Result<String, String> {
    let parsed = Parsed::parse(args)?;
    if let Some(stray) = parsed.positional().first() {
        return Err(format!(
            "shard-serve takes no positional arguments (got `{stray}`); use --model/--range/--listen"
        ));
    }
    let model_path = parsed
        .get_str("model")
        .ok_or("shard-serve needs --model <model.cxkmodel>")?;
    let range_raw = parsed
        .get_str("range")
        .ok_or("shard-serve needs --range A..B")?;
    let listen = parsed
        .get_str("listen")
        .ok_or("shard-serve needs --listen ADDR (e.g. 127.0.0.1:7271)")?;
    // The range's *shape* is validated before the model is even read; its
    // bounds are checked against the model's k right after.
    let range = parse_rep_range(range_raw)?;
    let model = read_model(model_path)?;
    let k = model.k();
    if range.start > range.end || range.end as usize > k {
        return Err(format!(
            "--range: {}..{} is not a sub-range of the model's representatives 0..{k}",
            range.start, range.end
        ));
    }
    let daemon = ShardDaemon::start(Arc::new(model), range.clone(), listen)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    eprintln!(
        "cxk: shard daemon serving representatives {}..{} of k={k} on {} (cxk_p2p frames, not HTTP)",
        range.start,
        range.end,
        daemon.addr()
    );
    daemon.join();
    Ok(String::new())
}

/// Parses `A..B` into a half-open representative range.
fn parse_rep_range(raw: &str) -> Result<std::ops::Range<u32>, String> {
    let malformed = || format!("--range: cannot parse `{raw}` (expected A..B, e.g. 0..4)");
    let (a, b) = raw.split_once("..").ok_or_else(malformed)?;
    let start: u32 = a.parse().map_err(|_| malformed())?;
    let end: u32 = b.parse().map_err(|_| malformed())?;
    Ok(start..end)
}

/// Maps the layout flags onto one [`Layout`]: at most one of `--shards S`,
/// `--tree [--branch B] [--beam W]` and `--remote-shards … [--replicas …]
/// [--remote-deadline-ms N]`, the default being one shared index. A flag
/// whose layout was not chosen, and `--brute` (a `classify` diagnostic),
/// are rejected rather than silently ignored.
fn layout_from_flags(parsed: &Parsed) -> Result<Layout, String> {
    if parsed.has("brute") {
        return Err(
            "--brute: not a serve option; use `cxk classify --brute` to score every representative"
                .into(),
        );
    }
    let shards = match parsed.get_str("shards") {
        None => None,
        Some(_) => {
            let s: usize = parsed.get("shards", 0)?;
            if s == 0 {
                return Err("--shards must be at least 1".into());
            }
            Some(s)
        }
    };
    let tree = tree_from_flags(parsed)?;
    let remote = remote_from_flags(parsed)?;
    match (shards, tree, remote) {
        (shards, None, None) => Ok(Layout::Indexed {
            shards: shards.unwrap_or(1),
        }),
        (None, Some(config), None) => Ok(Layout::Tree(config)),
        (None, None, Some(remote)) => Ok(remote),
        (Some(_), None, Some(_)) => {
            Err("--remote-shards: cannot be combined with --shards (pick one shard layout)".into())
        }
        (Some(_), Some(_), _) => {
            Err("--tree: cannot be combined with --shards (pick one engine layout)".into())
        }
        (None, Some(_), Some(_)) => {
            Err("--tree: cannot be combined with --remote-shards (pick one engine layout)".into())
        }
    }
}

/// Parses `--tree [--branch B] [--beam W]` into a [`TreeConfig`]. The
/// shape knobs require `--tree` so a typo cannot pass unnoticed.
fn tree_from_flags(parsed: &Parsed) -> Result<Option<TreeConfig>, String> {
    if !parsed.has("tree") {
        if parsed.get_str("branch").is_some() {
            return Err("--branch: requires --tree".into());
        }
        if parsed.get_str("beam").is_some() {
            return Err("--beam: requires --tree".into());
        }
        return Ok(None);
    }
    let defaults = TreeConfig::default();
    let branch: usize = parsed.get("branch", defaults.branch)?;
    if branch < 2 {
        return Err("--branch must be at least 2".into());
    }
    let beam: usize = parsed.get("beam", defaults.beam)?;
    if beam == 0 {
        return Err("--beam must be at least 1".into());
    }
    Ok(Some(TreeConfig { branch, beam }))
}

/// Parses `--remote-shards addr1,addr2,…` plus the optional parallel
/// `--replicas` list and `--remote-deadline-ms` into a [`Layout::Remote`]
/// with one replica set per shard slot. `--replicas` must have exactly
/// one comma-separated entry per remote shard: `-` for no replica, or
/// `addr` (with `|` separating several alternates).
fn remote_from_flags(parsed: &Parsed) -> Result<Option<Layout>, String> {
    let Some(raw) = parsed.get_str("remote-shards") else {
        for flag in ["replicas", "remote-deadline-ms"] {
            if parsed.get_str(flag).is_some() {
                return Err(format!("--{flag}: requires --remote-shards"));
            }
        }
        return Ok(None);
    };
    let mut sets: Vec<Vec<String>> = Vec::new();
    for addr in raw.split(',') {
        let addr = addr.trim();
        if addr.is_empty() {
            return Err(format!("--remote-shards: empty address in `{raw}`"));
        }
        sets.push(vec![addr.to_string()]);
    }
    if let Some(reps) = parsed.get_str("replicas") {
        let columns: Vec<&str> = reps.split(',').collect();
        if columns.len() != sets.len() {
            return Err(format!(
                "--replicas: {} entries for {} remote shards (one per shard, `-` for none)",
                columns.len(),
                sets.len()
            ));
        }
        for (set, column) in sets.iter_mut().zip(columns) {
            let column = column.trim();
            if column == "-" {
                continue;
            }
            for alternate in column.split('|') {
                let alternate = alternate.trim();
                if alternate.is_empty() {
                    return Err(format!("--replicas: empty replica address in `{reps}`"));
                }
                set.push(alternate.to_string());
            }
        }
    }
    let deadline = match parsed.get_str("remote-deadline-ms") {
        None => cxk_serve::remote::DEFAULT_DEADLINE,
        Some(_) => {
            let ms: u64 = parsed.get("remote-deadline-ms", 0)?;
            if ms == 0 {
                return Err("--remote-deadline-ms must be at least 1".into());
            }
            std::time::Duration::from_millis(ms)
        }
    };
    Ok(Some(Layout::Remote {
        replicas: sets,
        deadline,
    }))
}

/// Loads and validates a `.cxkmodel` snapshot, surfacing I/O and decode
/// failures as typed [`CxkError`]s rendered for the CLI.
fn read_model(path: &str) -> Result<TrainedModel, String> {
    load_model_file(path).map_err(cli_error)
}

/// Builds a dataset from XML files and directories.
fn dataset_from_xml_inputs(inputs: &[String]) -> Result<Dataset, String> {
    let files = expand_inputs(inputs)?;
    if files.is_empty() {
        return Err("no input XML files".into());
    }
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        builder
            .add_xml(&text)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(builder.finish())
}

/// Builds a dataset by streaming newline-delimited corpus files through
/// the SAX tuple extractor (`DatasetBuilder::ingest_stream`): documents
/// never materialize as DOM trees, so peak memory is bounded by document
/// size and tree depth — never by corpus size.
fn dataset_from_corpus_streams(inputs: &[String]) -> Result<(Dataset, IngestStats), String> {
    let files = expand_inputs(inputs)?;
    if files.is_empty() {
        return Err("no input corpus files".into());
    }
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    let mut total = IngestStats::default();
    for file in &files {
        let reader = std::io::BufReader::new(
            std::fs::File::open(file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?,
        );
        let stats = builder
            .ingest_stream(reader)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        total.documents += stats.documents;
        total.tuples += stats.tuples;
        total.capped_documents += stats.capped_documents;
    }
    Ok((builder.finish(), total))
}

/// Loads a `.cxkds` dataset, or builds one from XML inputs.
fn dataset_from_any_inputs(inputs: &[String]) -> Result<Dataset, String> {
    if inputs.len() == 1 && inputs[0].ends_with(".cxkds") {
        let bytes =
            std::fs::read(&inputs[0]).map_err(|e| format!("cannot read {}: {e}", inputs[0]))?;
        return load_dataset(&bytes).map_err(|e| e.to_string());
    }
    dataset_from_xml_inputs(inputs)
}

/// Expands directories into their `*.xml` files (sorted) and keeps file
/// paths as-is.
fn expand_inputs(inputs: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for input in inputs {
        let path = Path::new(input);
        if path.is_dir() {
            let mut in_dir: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot list {input}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
                .collect();
            in_dir.sort();
            files.extend(in_dir);
        } else {
            files.push(path.to_path_buf());
        }
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory unique to this test process.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cxk-cli-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn write_corpus(dir: &Path) {
        let docs = [
            r#"<dblp><inproceedings key="m1"><author>A. Miner</author><title>mining clustering patterns trees</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="m2"><author>A. Miner</author><title>frequent mining clustering streams</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><article key="n1"><author>B. Netter</author><title>routing congestion networks protocols</title><journal>Networking</journal></article></dblp>"#,
            r#"<dblp><article key="n2"><author>B. Netter</author><title>packet routing networks latency</title><journal>Networking</journal></article></dblp>"#,
        ];
        for (i, doc) in docs.iter().enumerate() {
            std::fs::write(dir.join(format!("doc{i}.xml")), doc).expect("write doc");
        }
        // A non-XML file that must be ignored by directory expansion.
        std::fs::write(dir.join("notes.txt"), "not xml").unwrap();
    }

    fn args(list: &[String]) -> Vec<String> {
        list.to_vec()
    }

    #[test]
    fn build_info_cluster_round_trip() {
        let dir = scratch("roundtrip");
        write_corpus(&dir);
        let ds_path = dir.join("corpus.cxkds");

        let out = build(&args(&[
            dir.to_str().unwrap().to_string(),
            "-o".into(),
            ds_path.to_str().unwrap().to_string(),
        ]))
        .expect("build");
        assert!(out.contains("4 documents"), "{out}");

        let out = info(&args(&[ds_path.to_str().unwrap().to_string()])).expect("info");
        assert!(out.contains("documents            4"), "{out}");
        assert!(out.contains("transactions         4"), "{out}");

        let out = cluster(&args(&[
            ds_path.to_str().unwrap().to_string(),
            "--k".into(),
            "2".into(),
            "--gamma".into(),
            "0.5".into(),
            "--seed".into(),
            "1".into(),
        ]))
        .expect("cluster");
        // 4 assignment rows + 2 summary lines.
        assert_eq!(out.lines().count(), 6, "{out}");
        assert!(out.contains("# algorithm=cxk k=2"), "{out}");
        // The two mining docs share a cluster, as do the two networking docs.
        let rows: Vec<&str> = out.lines().take(4).collect();
        let cluster_of = |row: &str| row.split('\t').nth(2).unwrap().to_string();
        assert_eq!(cluster_of(rows[0]), cluster_of(rows[1]), "{out}");
        assert_eq!(cluster_of(rows[2]), cluster_of(rows[3]), "{out}");
        assert_ne!(cluster_of(rows[0]), cluster_of(rows[2]), "{out}");
    }

    #[test]
    fn cluster_directly_from_xml_directory() {
        let dir = scratch("fromxml");
        write_corpus(&dir);
        let out = cluster(&args(&[
            dir.to_str().unwrap().to_string(),
            "--k".into(),
            "2".into(),
            "--quiet".into(),
        ]))
        .expect("cluster");
        assert!(
            out.starts_with("# algorithm"),
            "quiet prints only the summary: {out}"
        );
    }

    #[test]
    fn all_algorithms_run() {
        let dir = scratch("algos");
        write_corpus(&dir);
        for (algorithm, m) in [("cxk", "2"), ("pk", "2"), ("vsm", "1")] {
            let out = cluster(&args(&[
                dir.to_str().unwrap().to_string(),
                "--k".into(),
                "2".into(),
                "--m".into(),
                m.into(),
                "--algorithm".into(),
                algorithm.into(),
                "--quiet".into(),
            ]))
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert!(out.contains(&format!("algorithm={algorithm}")));
        }
    }

    #[test]
    fn invalid_flag_combinations_error_instead_of_panicking() {
        let dir = scratch("combos");
        write_corpus(&dir);
        let dir_arg = dir.to_str().unwrap().to_string();
        // The VSM baseline is centralized-only: --m 2 is a typed error now,
        // not a silently ignored flag.
        let e = cluster(&args(&[
            dir_arg.clone(),
            "--algorithm".into(),
            "vsm".into(),
            "--m".into(),
            "2".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("centralized-only"), "{e}");
        // Engine validation surfaces --m 0 as a flag error.
        let e = cluster(&args(&[dir_arg, "--m".into(), "0".into()])).unwrap_err();
        assert!(e.contains("--m"), "{e}");
    }

    #[test]
    fn helpful_errors() {
        let dir = scratch("errors");
        write_corpus(&dir);
        let dir_arg = dir.to_str().unwrap().to_string();
        assert!(build(std::slice::from_ref(&dir_arg))
            .unwrap_err()
            .contains("-o"));
        assert!(cluster(&args(&["/nonexistent/x.xml".into()]))
            .unwrap_err()
            .contains("cannot read"));
        assert!(cluster(&args(&[dir_arg.clone(), "--k".into(), "0".into()]))
            .unwrap_err()
            .contains("--k"));
        assert!(
            cluster(&args(&[dir_arg.clone(), "--gamma".into(), "2".into()]))
                .unwrap_err()
                .contains("gamma")
        );
        assert!(
            cluster(&args(&[dir_arg, "--algorithm".into(), "magic".into()]))
                .unwrap_err()
                .contains("unknown algorithm")
        );
        assert!(info(&args(&[])).is_err());
    }

    #[test]
    fn assign_routes_arrivals_to_base_clusters() {
        let base = scratch("assign-base");
        write_corpus(&base);
        let fresh = scratch("assign-new");
        std::fs::write(
            fresh.join("new0.xml"),
            r#"<dblp><inproceedings key="m9"><author>A. Miner</author><title>clustering mining new patterns</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
        )
        .unwrap();
        std::fs::write(
            fresh.join("new1.xml"),
            r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised stew</dish></recipe></recipes>"#,
        )
        .unwrap();
        let out = assign(&args(&[
            "--base".into(),
            base.to_str().unwrap().to_string(),
            "--new".into(),
            fresh.to_str().unwrap().to_string(),
            "--k".into(),
            "2".into(),
            "--gamma".into(),
            "0.5".into(),
            "--seed".into(),
            "1".into(),
        ]))
        .expect("assign");
        assert!(out.starts_with("# base: 4 documents"), "{out}");
        // The mining arrival joins a proper cluster; the recipe is trash.
        let lines: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(!lines[0].ends_with("trash"), "{out}");
        assert!(lines[1].ends_with("trash"), "{out}");
    }

    #[test]
    fn train_then_classify_round_trip() {
        let dir = scratch("train");
        write_corpus(&dir);
        let model_path = dir.join("model.cxkmodel");

        // --out alias must work wherever -o does.
        let out = train(&args(&[
            dir.to_str().unwrap().to_string(),
            "--out".into(),
            model_path.to_str().unwrap().to_string(),
            "--k".into(),
            "2".into(),
            "--gamma".into(),
            "0.5".into(),
            "--seed".into(),
            "1".into(),
        ]))
        .expect("train");
        assert!(out.contains("trained k=2"), "{out}");
        assert!(out.contains("2 representatives"), "{out}");
        assert!(model_path.exists());

        // Classify a fresh mining-flavored document and a clear alien.
        let fresh = scratch("train-new");
        std::fs::write(
            fresh.join("new0.xml"),
            r#"<dblp><inproceedings key="m9"><author>A. Miner</author><title>clustering mining new patterns</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
        )
        .unwrap();
        std::fs::write(
            fresh.join("new1.xml"),
            r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised stew</dish></recipe></recipes>"#,
        )
        .unwrap();
        for brute in [false, true] {
            let mut cmd = vec![
                model_path.to_str().unwrap().to_string(),
                fresh.to_str().unwrap().to_string(),
            ];
            if brute {
                cmd.push("--brute".into());
            }
            let out = classify(&args(&cmd)).expect("classify");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 2, "{out}");
            let cluster_of = |row: &str| row.split('\t').nth(1).unwrap().to_string();
            assert_ne!(cluster_of(lines[0]), "trash", "{out}");
            assert_eq!(cluster_of(lines[1]), "trash", "{out}");
        }
    }

    #[test]
    fn classify_jsonl_emits_one_object_per_file() {
        let dir = scratch("jsonl");
        write_corpus(&dir);
        let model_path = dir.join("model.cxkmodel");
        train(&args(&[
            dir.to_str().unwrap().to_string(),
            "-o".into(),
            model_path.to_str().unwrap().to_string(),
            "--k".into(),
            "2".into(),
            "--gamma".into(),
            "0.5".into(),
            "--seed".into(),
            "1".into(),
        ]))
        .expect("train");

        let out = classify(&args(&[
            model_path.to_str().unwrap().to_string(),
            dir.join("doc0.xml").to_str().unwrap().to_string(),
            "--jsonl".into(),
        ]))
        .expect("classify --jsonl");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].starts_with(r#"{"file":"#), "{out}");
        assert!(lines[0].contains(r#""cluster":"#), "{out}");
        assert!(lines[0].contains(r#""trash":false"#), "{out}");
        assert!(lines[0].contains(r#""score":"#), "{out}");
        // Same assignment shape as the server's /classify endpoint: the
        // tuples field is an array of per-tuple objects, not a count.
        assert!(lines[0].contains(r#""tuples":[{"cluster":"#), "{out}");
        assert!(lines[0].ends_with('}'), "{out}");
    }

    #[test]
    fn synth_train_stream_classify_stream_round_trip() {
        let dir = scratch("synth");
        let corpus_path = dir.join("corpus.xml");
        let labels_path = dir.join("labels.tsv");

        let out = synth(&args(&[
            "--corpus".into(),
            "dblp".into(),
            "--docs".into(),
            "30".into(),
            "--seed".into(),
            "42".into(),
            "-o".into(),
            corpus_path.to_str().unwrap().to_string(),
            "--labels".into(),
            labels_path.to_str().unwrap().to_string(),
        ]))
        .expect("synth");
        assert!(out.contains("30 dblp documents"), "{out}");
        let corpus = std::fs::read_to_string(&corpus_path).unwrap();
        assert_eq!(corpus.lines().count(), 30, "one document per line");
        let labels = std::fs::read_to_string(&labels_path).unwrap();
        assert_eq!(labels.lines().count(), 30, "one label row per document");

        // Stream-train straight off the corpus file…
        let model_path = dir.join("model.cxkmodel");
        let out = train(&args(&[
            corpus_path.to_str().unwrap().to_string(),
            "--stream".into(),
            "--k".into(),
            "4".into(),
            "--seed".into(),
            "1".into(),
            "-o".into(),
            model_path.to_str().unwrap().to_string(),
        ]))
        .expect("train --stream");
        assert!(
            out.contains("streamed 30 documents"),
            "ingest summary: {out}"
        );
        assert!(out.contains("0 capped"), "{out}");
        assert!(out.contains("trained k=4"), "{out}");

        // …and stream-classify the same corpus against it.
        let out = classify(&args(&[
            model_path.to_str().unwrap().to_string(),
            corpus_path.to_str().unwrap().to_string(),
            "--stream".into(),
        ]))
        .expect("classify --stream");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 31, "30 rows + summary: {out}");
        assert!(lines[0].contains(":1\t"), "rows are labeled file:line");
        assert_eq!(*lines.last().unwrap(), "# documents=30 capped=0");

        // The jsonl form carries the capped flag per document instead.
        let out = classify(&args(&[
            model_path.to_str().unwrap().to_string(),
            corpus_path.to_str().unwrap().to_string(),
            "--stream".into(),
            "--jsonl".into(),
        ]))
        .expect("classify --stream --jsonl");
        assert_eq!(out.lines().count(), 30, "{out}");
        assert!(out.lines().all(|l| l.contains(r#""capped":false"#)));
    }

    #[test]
    fn streamed_training_matches_dom_training() {
        let dir = scratch("stream-eq");
        write_corpus(&dir);
        // The same four documents as one newline-delimited corpus file
        // (written next to the scratch dir so directory expansion does
        // not pick it up as a fifth input).
        let corpus_dir = scratch("stream-eq-corpus");
        let corpus_path = corpus_dir.join("corpus.xml");
        let mut joined = String::new();
        for i in 0..4 {
            joined.push_str(&std::fs::read_to_string(dir.join(format!("doc{i}.xml"))).unwrap());
            joined.push('\n');
        }
        std::fs::write(&corpus_path, joined).unwrap();

        let train_with = |inputs: Vec<String>, model: &Path| {
            let mut cmd = inputs;
            cmd.extend([
                "--k".into(),
                "2".into(),
                "--gamma".into(),
                "0.5".into(),
                "--seed".into(),
                "1".into(),
                "-o".into(),
                model.to_str().unwrap().to_string(),
            ]);
            train(&args(&cmd)).expect("train")
        };
        let dom_model = dir.join("dom.cxkmodel");
        let dom_out = train_with(vec![dir.to_str().unwrap().to_string()], &dom_model);
        let stream_model = dir.join("stream.cxkmodel");
        let stream_out = train_with(
            vec![corpus_path.to_str().unwrap().to_string(), "--stream".into()],
            &stream_model,
        );
        // Same clustering outcome line for line (modulo the ingest
        // summary and the output path)…
        assert_eq!(
            dom_out.lines().next().unwrap(),
            stream_out.lines().nth(1).unwrap(),
            "dom: {dom_out}\nstream: {stream_out}"
        );
        assert_eq!(
            dom_out.lines().nth(1).unwrap(),
            stream_out.lines().nth(2).unwrap()
        );
        // …and bit-identical model snapshots.
        assert_eq!(
            std::fs::read(&dom_model).unwrap(),
            std::fs::read(&stream_model).unwrap(),
            "streamed ingest must reproduce the DOM-built model exactly"
        );
    }

    #[test]
    fn synth_errors() {
        let dir = scratch("synth-errors");
        let out_arg = dir.join("c.xml").to_str().unwrap().to_string();
        assert!(synth(&args(&["--docs".into(), "5".into()]))
            .unwrap_err()
            .contains("-o"));
        assert!(
            synth(&args(&["-o".into(), out_arg.clone()]))
                .unwrap_err()
                .contains("--docs"),
            "docs is required"
        );
        let e = synth(&args(&[
            "--corpus".into(),
            "shakespeare".into(),
            "--docs".into(),
            "5".into(),
            "-o".into(),
            out_arg.clone(),
        ]))
        .unwrap_err();
        assert!(e.contains("unknown corpus"), "{e}");
        let e = synth(&args(&[
            "--corpus".into(),
            "ieee".into(),
            "--dialects".into(),
            "3".into(),
            "--docs".into(),
            "5".into(),
            "-o".into(),
            out_arg.clone(),
        ]))
        .unwrap_err();
        assert!(e.contains("--dialects"), "{e}");
        assert!(synth(&args(&["stray.xml".into()]))
            .unwrap_err()
            .contains("positional"));
    }

    #[test]
    fn train_and_classify_errors() {
        let dir = scratch("train-errors");
        write_corpus(&dir);
        let dir_arg = dir.to_str().unwrap().to_string();
        assert!(train(std::slice::from_ref(&dir_arg))
            .unwrap_err()
            .contains("-o"));
        assert!(train(&args(&[
            dir_arg.clone(),
            "-o".into(),
            dir.join("m.cxkmodel").to_str().unwrap().to_string(),
            "--k".into(),
            "0".into()
        ]))
        .unwrap_err()
        .contains("--k"));
        assert!(classify(&args(&[])).is_err());
        // A dataset file is not a model snapshot.
        let ds_path = dir.join("corpus.cxkds");
        build(&args(&[
            dir_arg.clone(),
            "-o".into(),
            ds_path.to_str().unwrap().to_string(),
        ]))
        .unwrap();
        let e = classify(&args(&[
            ds_path.to_str().unwrap().to_string(),
            dir_arg.clone(),
        ]))
        .unwrap_err();
        assert!(e.contains("model load error"), "{e}");
        assert!(serve(&args(&["/nonexistent.cxkmodel".into()]))
            .unwrap_err()
            .contains("cannot read"));
        assert!(serve(&args(&[])).unwrap_err().contains("exactly one"));
        // --watch and --shards are validated before the model is even read.
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--watch".into(),
            "0".into()
        ]))
        .unwrap_err()
        .contains("--watch"));
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--shards".into(),
            "0".into()
        ]))
        .unwrap_err()
        .contains("--shards"));
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--shards".into(),
            "few".into()
        ]))
        .unwrap_err()
        .contains("--shards"));
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--watch".into(),
            "soon".into()
        ]))
        .unwrap_err()
        .contains("--watch"));
        // The transport knobs are validated the same way: a zero-depth
        // queue is rejected, a non-numeric keep-alive is rejected, but
        // `--keep-alive 0` is the documented off switch and gets past
        // flag parsing (failing later on the missing model instead).
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--queue-depth".into(),
            "0".into()
        ]))
        .unwrap_err()
        .contains("--queue-depth"));
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--queue-depth".into(),
            "deep".into()
        ]))
        .unwrap_err()
        .contains("queue-depth"));
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--keep-alive".into(),
            "forever".into()
        ]))
        .unwrap_err()
        .contains("keep-alive"));
        assert!(serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--keep-alive".into(),
            "0".into()
        ]))
        .unwrap_err()
        .contains("cannot read"));
        // The brute-force diagnostic is offline only: `serve` rejects the
        // flag instead of ignoring it, pointing at `classify`.
        let e = serve(&args(&["/nonexistent.cxkmodel".into(), "--brute".into()])).unwrap_err();
        assert!(e.contains("--brute"), "{e}");
        assert!(e.contains("cxk classify --brute"), "{e}");
    }

    #[test]
    fn serve_remote_flags_are_validated_before_the_model_is_read() {
        // The two shard layouts are mutually exclusive.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--shards".into(),
            "2".into(),
            "--remote-shards".into(),
            "127.0.0.1:7271".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--remote-shards"), "{e}");
        assert!(e.contains("--shards"), "{e}");
        // --replicas is a parallel list: one entry per remote shard.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--remote-shards".into(),
            "127.0.0.1:7271,127.0.0.1:7272".into(),
            "--replicas".into(),
            "127.0.0.1:7273".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--replicas"), "{e}");
        assert!(e.contains("2 remote shards"), "{e}");
        // …and meaningless without --remote-shards.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--replicas".into(),
            "127.0.0.1:7273".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("requires --remote-shards"), "{e}");
        // So is a deadline: without a remote layout it would bound nothing.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--remote-deadline-ms".into(),
            "500".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--remote-deadline-ms"), "{e}");
        assert!(e.contains("requires --remote-shards"), "{e}");
        // Empty addresses are rejected, not silently skipped.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--remote-shards".into(),
            "127.0.0.1:7271,,127.0.0.1:7272".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("empty address"), "{e}");
        // A zero deadline is rejected.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--remote-shards".into(),
            "127.0.0.1:7271".into(),
            "--remote-deadline-ms".into(),
            "0".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--remote-deadline-ms"), "{e}");
        // A well-formed remote topology gets past flag validation and
        // fails on the missing model instead.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--remote-shards".into(),
            "127.0.0.1:7271,127.0.0.1:7272".into(),
            "--replicas".into(),
            "127.0.0.1:7273|127.0.0.1:7274,-".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
    }

    #[test]
    fn serve_tree_flags_are_validated_before_the_model_is_read() {
        // The tree is mutually exclusive with both exact shard layouts.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--tree".into(),
            "--shards".into(),
            "2".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--tree"), "{e}");
        assert!(e.contains("--shards"), "{e}");
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--tree".into(),
            "--remote-shards".into(),
            "127.0.0.1:7271".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--tree"), "{e}");
        assert!(e.contains("--remote-shards"), "{e}");
        // The shape knobs require --tree…
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--branch".into(),
            "4".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("requires --tree"), "{e}");
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--beam".into(),
            "2".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("requires --tree"), "{e}");
        // …and are bounds-checked before the model is read.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--tree".into(),
            "--branch".into(),
            "1".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--branch"), "{e}");
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--tree".into(),
            "--beam".into(),
            "0".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--beam"), "{e}");
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--tree".into(),
            "--branch".into(),
            "wide".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("branch"), "{e}");
        // A well-formed tree config gets past flag validation and fails
        // on the missing model instead.
        let e = serve(&args(&[
            "/nonexistent.cxkmodel".into(),
            "--tree".into(),
            "--branch".into(),
            "4".into(),
            "--beam".into(),
            "2".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
    }

    #[test]
    fn shard_serve_validates_flags_and_range_bounds() {
        assert!(shard_serve(&args(&[])).unwrap_err().contains("--model"));
        assert!(shard_serve(&args(&["stray.xml".into()]))
            .unwrap_err()
            .contains("no positional arguments"));
        let e =
            shard_serve(&args(&["--model".into(), "/nonexistent.cxkmodel".into()])).unwrap_err();
        assert!(e.contains("--range"), "{e}");
        let e = shard_serve(&args(&[
            "--model".into(),
            "/nonexistent.cxkmodel".into(),
            "--range".into(),
            "0..2".into(),
        ]))
        .unwrap_err();
        assert!(e.contains("--listen"), "{e}");
        // The range's shape is checked before the model is read.
        for bad in ["whole", "0..", "..2", "0-2", "a..b"] {
            let e = shard_serve(&args(&[
                "--model".into(),
                "/nonexistent.cxkmodel".into(),
                "--range".into(),
                bad.into(),
                "--listen".into(),
                "127.0.0.1:0".into(),
            ]))
            .unwrap_err();
            assert!(e.contains("--range"), "{bad}: {e}");
            assert!(e.contains("expected A..B"), "{bad}: {e}");
        }

        // Bounds are checked against the trained model's k.
        let dir = scratch("shard-serve");
        write_corpus(&dir);
        let model_path = dir.join("model.cxkmodel");
        train(&args(&[
            dir.to_str().unwrap().to_string(),
            "-o".into(),
            model_path.to_str().unwrap().to_string(),
            "--k".into(),
            "2".into(),
            "--gamma".into(),
            "0.5".into(),
            "--seed".into(),
            "1".into(),
        ]))
        .expect("train");
        for bad in ["1..5", "3..3", "2..1"] {
            let e = shard_serve(&args(&[
                "--model".into(),
                model_path.to_str().unwrap().to_string(),
                "--range".into(),
                bad.into(),
                "--listen".into(),
                "127.0.0.1:0".into(),
            ]))
            .unwrap_err();
            assert!(e.contains("--range"), "{bad}: {e}");
            assert!(e.contains("sub-range"), "{bad}: {e}");
        }
    }

    #[test]
    fn assign_requires_base_and_new() {
        assert!(assign(&args(&["--base".into(), "x".into()]))
            .unwrap_err()
            .contains("--new"));
        assert!(assign(&args(&["--new".into(), "x".into()]))
            .unwrap_err()
            .contains("--base"));
    }

    #[test]
    fn malformed_xml_is_reported_with_its_file() {
        let dir = scratch("malformed");
        std::fs::write(dir.join("bad.xml"), "<a><b></a>").unwrap();
        let e = info(&args(&[dir.to_str().unwrap().to_string()])).unwrap_err();
        assert!(e.contains("bad.xml"), "{e}");
    }
}
