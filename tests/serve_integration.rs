//! End-to-end test of the serving pipeline (ISSUE 2's acceptance
//! criterion): train on `samples/`, snapshot to disk, reload, classify
//! held-out documents — indexed assignments must match brute-force
//! `sim_gamma_j` assignments exactly — and a live HTTP server round-trip
//! over localhost must return the same cluster ids.

use cxk_core::{load_model, save_model, save_model_file, CxkConfig, EngineBuilder, TrainedModel};
use cxk_serve::{Classifier, Layout, ServeOptions, Server, ShardDaemon, TreeConfig, TreeEngine};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn samples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples")
}

fn read_sample(name: &str) -> String {
    std::fs::read_to_string(samples_dir().join(name)).expect("sample exists")
}

/// Trains on ten of the twelve samples, holding out one per topic.
fn train_held_out() -> (TrainedModel, Vec<(String, String)>) {
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for i in 1..=5 {
        builder
            .add_xml(&read_sample(&format!("mining{i}.xml")))
            .unwrap();
        builder
            .add_xml(&read_sample(&format!("network{i}.xml")))
            .unwrap();
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(2);
    config.params = SimParams::new(0.5, 0.5);
    // Seed 3 starts the two representatives in distinct topics on this
    // corpus, giving the clean two-cluster model the assertions expect.
    config.seed = 3;
    let fit = EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid training config")
        .fit(&ds)
        .expect("training runs");
    assert!(fit.converged, "training must converge");
    let model = fit.into_model(&ds, BuildOptions::default());
    let held_out = vec![
        ("mining6.xml".to_string(), read_sample("mining6.xml")),
        ("network6.xml".to_string(), read_sample("network6.xml")),
    ];
    (model, held_out)
}

/// One blocking HTTP request against the test server.
fn http_request(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (String, String) {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    http_request(addr, &request)
}

fn post_classify(addr: std::net::SocketAddr, xml: &str) -> (String, String) {
    post(addr, "/classify", xml)
}

/// Pulls a header value out of a response head.
fn header_field(head: &str, name: &str) -> String {
    head.lines()
        .find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| panic!("{name} in {head}"))
}

/// The model epoch a response claims to have been answered at.
fn response_epoch(head: &str) -> u64 {
    header_field(head, "X-Model-Epoch")
        .parse()
        .expect("numeric epoch")
}

/// Reads one `Content-Length`-framed response off a keep-alive
/// connection: the head byte by byte to the blank line, then the body.
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    let length: usize = header_field(&head, "Content-Length")
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    (head, String::from_utf8(body).expect("UTF-8 body"))
}

/// `GET /stats`'s body.
fn get_stats(addr: std::net::SocketAddr) -> String {
    let (head, body) = http_request(
        addr,
        "GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body
}

/// Every numeric value of `"field":` in `body`, in order (the per-shard
/// arrays repeat their fields).
fn field_values(body: &str, field: &str) -> Vec<u64> {
    body.split(&format!("\"{field}\":"))
        .skip(1)
        .map(|rest| {
            let end = rest.find([',', '}']).expect("delimiter");
            rest[..end].parse().expect("numeric field")
        })
        .collect()
}

/// Pulls `"field":value` out of the flat JSON the server emits.
fn json_field(body: &str, field: &str) -> String {
    let key = format!("\"{field}\":");
    let start = body
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {body}"))
        + key.len();
    let rest = &body[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("delimiter after {field} in {body}"));
    rest[..end].to_string()
}

#[test]
fn snapshot_reload_classify_and_serve_round_trip() {
    let (model, held_out) = train_held_out();

    // Snapshot to disk and reload: the model must survive bit-exactly.
    let path = std::env::temp_dir().join(format!("cxk-serve-it-{}.cxkmodel", std::process::id()));
    std::fs::write(&path, save_model(&model)).expect("write snapshot");
    let reloaded = load_model(&std::fs::read(&path).expect("read snapshot")).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reloaded.reps.len(), model.reps.len());
    for (a, b) in reloaded.reps.iter().zip(&model.reps) {
        assert_eq!(a.items, b.items, "representatives must round-trip");
    }

    // Classify the held-out documents from the *reloaded* model: indexed
    // and brute-force assignments agree exactly, and the two topics land
    // in two distinct proper clusters.
    let mut classifier = Classifier::shared(Arc::new(reloaded));
    let mut clusters = Vec::new();
    for (name, xml) in &held_out {
        let indexed = classifier.classify(xml).expect("classify");
        let brute = classifier.classify_brute(xml).expect("brute");
        assert_eq!(indexed.cluster, brute.cluster, "{name}");
        assert_eq!(indexed.score, brute.score, "bit-for-bit score: {name}");
        for (a, b) in indexed.tuples.iter().zip(&brute.tuples) {
            assert_eq!(a.cluster, b.cluster, "{name}");
            assert_eq!(a.similarity, b.similarity, "{name}");
            assert!(a.candidates <= b.candidates, "{name}: index may only prune");
        }
        assert_ne!(
            indexed.cluster,
            classifier.trash_id(),
            "{name} must join a proper cluster"
        );
        clusters.push(indexed.cluster);
    }
    assert_ne!(
        clusters[0], clusters[1],
        "mining and networking hold-outs separate"
    );

    // Live server round-trip over localhost: same cluster ids.
    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    for ((name, xml), &expected) in held_out.iter().zip(&clusters) {
        let (head, body) = post_classify(addr, xml);
        assert!(head.starts_with("HTTP/1.1 200"), "{name}: {head}");
        assert_eq!(
            json_field(&body, "cluster"),
            expected.to_string(),
            "{name}: server and local classification agree ({body})"
        );
        assert_eq!(json_field(&body, "trash"), "false", "{name}");
    }

    // Malformed XML → 400 with an error payload.
    let (head, body) = post_classify(addr, "<broken><xml>");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("error"), "{body}");

    // GET /model reports the trained shape.
    let (head, body) = http_request(
        addr,
        "GET /model HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "k"), "2");
    assert_eq!(json_field(&body, "trained_documents"), "10");

    // GET /stats counts what we did: 3 classify calls, 1 of them an error.
    let (head, body) = http_request(
        addr,
        "GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "classified"), "2");
    assert_eq!(json_field(&body, "errors"), "1");

    // Batch classify: a JSON array of XML strings answers with one
    // assignment object per document, in order, with the same cluster ids
    // as the single-document requests.
    {
        let escape = cxk_util::json::escape;
        let batch = format!(
            r#"["{}","{}","<broken><xml>"]"#,
            escape(&held_out[0].1),
            escape(&held_out[1].1)
        );
        let (head, body) = post_classify(addr, &batch);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        // First entry: the mining hold-out, same cluster as the
        // single-document request; second entry follows after the first
        // object's tuple array closes.
        assert!(
            body.starts_with(&format!(r#"[{{"cluster":{},"#, clusters[0])),
            "{body}"
        );
        assert!(
            body.contains(&format!(r#"]}},{{"cluster":{},"#, clusters[1])),
            "{body}"
        );
        // The malformed third document errors inline, last.
        assert!(body.contains(r#"]},{"error":"#), "{body}");
    }

    // Unknown endpoint → 404.
    let (head, _) = http_request(
        addr,
        "GET /nope HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    // An oversized request head (here one 64 KiB header) must be rejected,
    // not buffered without bound. The server may close mid-send, so write
    // errors are ignored and only the response matters.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let huge = format!(
            "GET /model HTTP/1.1\r\nX-Flood: {}\r\n\r\n",
            "a".repeat(64 << 10)
        );
        let _ = stream.write_all(huge.as_bytes());
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.starts_with("HTTP/1.1 431"),
            "oversized head must 431: {response}"
        );
        assert!(response.contains("exceeds"), "{response}");
    }

    // An idle connection (no bytes sent) must not block anyone: with the
    // event-driven transport it pins a buffer, not a thread, and the next
    // request still gets through immediately.
    {
        let idle = TcpStream::connect(addr).expect("connect idle");
        std::thread::sleep(std::time::Duration::from_millis(400));
        let (head, _) = http_request(
            addr,
            "GET /model HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        drop(idle);
    }

    server.shutdown();
}

#[test]
fn server_handles_concurrent_clients() {
    let (model, held_out) = train_held_out();
    let mut classifier = Classifier::shared(Arc::new(model.clone()));
    let expected: Vec<u32> = held_out
        .iter()
        .map(|(_, xml)| classifier.classify(xml).unwrap().cluster)
        .collect();

    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 4,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let (_, xml) = held_out[i % held_out.len()].clone();
            let want = expected[i % expected.len()];
            std::thread::spawn(move || {
                let (head, body) = post_classify(addr, &xml);
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                assert_eq!(json_field(&body, "cluster"), want.to_string(), "{body}");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let stats = server.stats();
    assert_eq!(stats.connections, 8);
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.classified, 8);
    assert_eq!(stats.trash, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.reloads, 0);
    assert_eq!(stats.epoch, 1, "no reload: still the boot model");
    server.shutdown();
}

/// A second, deliberately different model over the same corpus (k = 3,
/// another seed), so a swap is observable: `GET /model` reports a new
/// shape and classifications answer with the other model's clusters.
fn train_variant() -> TrainedModel {
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for i in 1..=5 {
        builder
            .add_xml(&read_sample(&format!("mining{i}.xml")))
            .unwrap();
        builder
            .add_xml(&read_sample(&format!("network{i}.xml")))
            .unwrap();
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(3);
    config.params = SimParams::new(0.5, 0.5);
    config.seed = 11;
    EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid variant config")
        .fit(&ds)
        .expect("training runs")
        .into_model(&ds, BuildOptions::default())
}

/// A model over all twelve samples at k = 4: a different k and a larger
/// index than [`train_held_out`]'s.
fn train_all_samples() -> TrainedModel {
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for topic in ["mining", "network"] {
        for i in 1..=6 {
            builder
                .add_xml(&read_sample(&format!("{topic}{i}.xml")))
                .unwrap();
        }
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(4);
    config.params = SimParams::new(0.5, 0.5);
    config.seed = 3;
    EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid config")
        .fit(&ds)
        .expect("training runs")
        .into_model(&ds, BuildOptions::default())
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cxk-serve-it-{}-{name}", std::process::id()))
}

#[test]
fn post_reload_swaps_and_rejects_incompatible_snapshots() {
    let (model_a, held_out) = train_held_out();
    let model_b = train_variant();
    let (_, xml) = &held_out[0];
    let expected_a = Classifier::shared(Arc::new(model_a.clone()))
        .classify(xml)
        .unwrap()
        .cluster;
    let expected_b = Classifier::shared(Arc::new(model_b.clone()))
        .classify(xml)
        .unwrap()
        .cluster;

    let a_path = scratch_file("reload-a.cxkmodel");
    let b_path = scratch_file("reload-b.cxkmodel");
    save_model_file(&model_a, &a_path).expect("write A");
    save_model_file(&model_b, &b_path).expect("write B");

    let server = Server::start(
        model_a.clone(),
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 2,
            model_path: Some(a_path.clone()),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Epoch 1: the boot model answers.
    let (head, body) = post_classify(addr, xml);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(response_epoch(&head), 1);
    assert_eq!(json_field(&body, "cluster"), expected_a.to_string());

    // Swap to B by POSTing its path: 200 with the new epoch.
    let (head, body) = post(addr, "/reload", b_path.to_str().unwrap());
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
    assert_eq!(response_epoch(&head), 2);
    assert_eq!(json_field(&body, "reloaded"), "true");
    assert_eq!(json_field(&body, "epoch"), "2");

    // The swap is visible everywhere: /model reports B's shape and the
    // new epoch, classifications answer with B's clusters.
    let (head, body) = http_request(
        addr,
        "GET /model HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "epoch"), "2");
    assert_eq!(json_field(&body, "k"), "3");
    let (head, body) = post_classify(addr, xml);
    assert_eq!(response_epoch(&head), 2);
    assert_eq!(json_field(&body, "cluster"), expected_b.to_string());

    // An empty body re-reads the path the server was started from (A).
    let (head, body) = post(addr, "/reload", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
    assert_eq!(json_field(&body, "epoch"), "3");
    let (head, body) = post_classify(addr, xml);
    assert_eq!(response_epoch(&head), 3);
    assert_eq!(json_field(&body, "cluster"), expected_a.to_string());

    // A missing file conflicts; the live model is untouched.
    let (head, body) = post(addr, "/reload", "/nonexistent/model.cxkmodel");
    assert!(head.starts_with("HTTP/1.1 409"), "{head}: {body}");
    assert_eq!(server.epoch(), 3);

    // Garbage bytes conflict too.
    let garbage = scratch_file("reload-garbage.cxkmodel");
    std::fs::write(&garbage, b"definitely not a snapshot").unwrap();
    let (head, body) = post(addr, "/reload", garbage.to_str().unwrap());
    assert!(head.starts_with("HTTP/1.1 409"), "{head}: {body}");
    assert!(body.contains("not a .cxkmodel"), "{body}");

    // A future format version is rejected by the peek — before the
    // checksum is even consulted — and names the version mismatch.
    let mut future = save_model(&model_b);
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    let future_path = scratch_file("reload-future.cxkmodel");
    std::fs::write(&future_path, &future).unwrap();
    let (head, body) = post(addr, "/reload", future_path.to_str().unwrap());
    assert!(head.starts_with("HTTP/1.1 409"), "{head}: {body}");
    assert!(body.contains("version 99"), "{body}");
    assert_eq!(server.epoch(), 3, "rejected swaps never disturb the model");

    // A corrupt payload (checksum mismatch) conflicts as well.
    let mut corrupt = save_model(&model_b);
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let corrupt_path = scratch_file("reload-corrupt.cxkmodel");
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    let (head, body) = post(addr, "/reload", corrupt_path.to_str().unwrap());
    assert!(head.starts_with("HTTP/1.1 409"), "{head}: {body}");
    assert!(body.contains("checksum"), "{body}");

    // The library surface: swap an in-memory model directly.
    assert_eq!(server.reload(model_b.clone()), 4);
    let (head, _) = post_classify(addr, xml);
    assert_eq!(response_epoch(&head), 4);

    let stats = server.stats();
    assert_eq!(stats.epoch, 4);
    assert_eq!(stats.reloads, 3, "two POSTed swaps + one library swap");
    assert_eq!(stats.reload_errors, 4, "four rejected snapshots");

    for path in [&a_path, &b_path, &garbage, &future_path, &corrupt_path] {
        let _ = std::fs::remove_file(path);
    }
    server.shutdown();
}

#[test]
fn watch_poller_hot_swaps_on_file_change() {
    let (model_a, _) = train_held_out();
    let model_b = train_variant();
    let path = scratch_file("watch.cxkmodel");
    save_model_file(&model_a, &path).expect("write A");

    let server = Server::start(
        model_a,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 2,
            model_path: Some(path.clone()),
            watch: Some(Duration::from_millis(100)),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    assert_eq!(server.epoch(), 1);

    // Give the poller a beat to capture the initial mtime/digest, then
    // retrain "on disk": the watcher must pick the new snapshot up.
    std::thread::sleep(Duration::from_millis(200));
    save_model_file(&model_b, &path).expect("write B");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.epoch() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.epoch(), 2, "watcher swaps the changed snapshot in");
    let (head, body) = http_request(
        server.addr(),
        "GET /model HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "epoch"), "2");
    assert_eq!(json_field(&body, "k"), "3", "B is live");

    // Rewriting *identical* contents moves the mtime but not the digest:
    // no swap, no worker rebuilds.
    save_model_file(&model_b, &path).expect("rewrite B");
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(server.epoch(), 2, "unchanged contents are not a new model");

    // A corrupt overwrite is rejected and the live model keeps serving.
    std::fs::write(&path, b"half-written garbage").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().reload_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(server.stats().reload_errors >= 1, "rejection is counted");
    assert_eq!(server.epoch(), 2, "the live model is untouched");

    let _ = std::fs::remove_file(&path);
    server.shutdown();
}

/// The tentpole's torture test: several client threads hammer
/// `POST /classify` while the model is swapped repeatedly through *both*
/// reload surfaces. Every response must arrive complete and be
/// self-consistent with exactly one epoch — the cluster it reports is the
/// one the model of its claimed epoch assigns, never a mix.
#[test]
fn hot_reload_under_concurrent_load_drops_nothing() {
    let (model_a, held_out) = train_held_out();
    let model_b = train_variant();

    // Per-document expectations under each model, computed locally.
    let docs: Vec<String> = held_out.iter().map(|(_, xml)| xml.clone()).collect();
    let mut classifier_a = Classifier::shared(Arc::new(model_a.clone()));
    let mut classifier_b = Classifier::shared(Arc::new(model_b.clone()));
    let expected: Vec<(u32, u32)> = docs
        .iter()
        .map(|xml| {
            (
                classifier_a.classify(xml).unwrap().cluster,
                classifier_b.classify(xml).unwrap().cluster,
            )
        })
        .collect();

    let b_path = scratch_file("torture-b.cxkmodel");
    save_model_file(&model_b, &b_path).expect("write B");

    let server = Server::start(
        model_a.clone(),
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 4,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Epoch parity is the oracle: the boot model A is epoch 1 and swaps
    // strictly alternate B, A, B, … so odd epochs serve A, even serve B.
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 40;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let docs = docs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = (c + r) % docs.len();
                    let (head, body) = post_classify(addr, &docs[i]);
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    let epoch = response_epoch(&head);
                    let want = if epoch % 2 == 1 {
                        expected[i].0
                    } else {
                        expected[i].1
                    };
                    assert_eq!(
                        json_field(&body, "cluster"),
                        want.to_string(),
                        "epoch {epoch} must answer with its own model's cluster: {body}"
                    );
                }
            })
        })
        .collect();

    // Swap away while the clients hammer: even swaps POST B's snapshot
    // path, odd swaps push A back through the library API.
    const SWAPS: usize = 20;
    for i in 0..SWAPS {
        if i % 2 == 0 {
            let (head, body) = post(addr, "/reload", b_path.to_str().unwrap());
            assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
        } else {
            server.reload(model_a.clone());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    for client in clients {
        client
            .join()
            .expect("no client may observe a dropped or malformed response");
    }

    let stats = server.stats();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.classified, total, "zero dropped classifications");
    assert_eq!(stats.errors, 0, "zero malformed responses");
    assert_eq!(stats.reloads, SWAPS as u64);
    assert_eq!(stats.epoch, 1 + SWAPS as u64);
    assert_eq!(
        stats.requests,
        total + SWAPS as u64 / 2,
        "every classify and every POSTed reload parsed"
    );
    assert_eq!(
        stats.connections, stats.requests,
        "all connections well-formed"
    );

    let _ = std::fs::remove_file(&b_path);
    server.shutdown();
}

/// The end-to-end retrain loop the ROADMAP asked for:
/// `StreamClusterer` refresh → `snapshot_model` → `Server::reload`, with
/// the service answering throughout.
#[test]
fn stream_retrain_feeds_the_running_server() {
    let base: Vec<String> = (1..=3)
        .flat_map(|i| {
            [
                read_sample(&format!("mining{i}.xml")),
                read_sample(&format!("network{i}.xml")),
            ]
        })
        .collect();
    let base_refs: Vec<&str> = base.iter().map(String::as_str).collect();
    let mut opts = cxk_stream::StreamOptions::new(2);
    opts.config.params = SimParams::new(0.5, 0.5);
    opts.config.seed = 3;
    opts.policy = cxk_stream::RefreshPolicy::manual();
    let mut clusterer = cxk_stream::StreamClusterer::new(&base_refs, opts).expect("bootstrap");

    let server = Server::start(
        clusterer.snapshot_model(),
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let (head, body) = http_request(
        addr,
        "GET /model HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "epoch"), "1");
    assert_eq!(json_field(&body, "trained_documents"), "6");

    // The corpus evolves; the periodic retrain re-clusters and swaps.
    for i in 4..=5 {
        clusterer
            .push(&read_sample(&format!("mining{i}.xml")))
            .expect("push");
        clusterer
            .push(&read_sample(&format!("network{i}.xml")))
            .expect("push");
    }
    clusterer.refresh();
    let epoch = server.reload(clusterer.snapshot_model());
    assert_eq!(epoch, 2);

    let (head, body) = http_request(
        addr,
        "GET /model HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "epoch"), "2");
    assert_eq!(json_field(&body, "trained_documents"), "10");

    // The swapped-in model classifies held-out documents normally.
    let (head, body) = post_classify(addr, &read_sample("mining6.xml"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
    assert_eq!(response_epoch(&head), 2);
    server.shutdown();
}

/// One server per layout arm — the default one-shard index, three shards,
/// the tree at full beam, and remote over loopback daemons: every
/// held-out answer equals brute force, one request at a time and from
/// concurrent keep-alive clients, with no error, nothing dropped and
/// every client's connection reused. `GET /stats` names the arm, and
/// right after `Server::reload` to a model with a different k it
/// describes the new epoch's engine.
#[test]
fn every_layout_matches_brute_and_reports_its_engine() {
    let (model, held_out) = train_held_out();
    let reloaded = train_all_samples();
    assert_ne!(model.k(), reloaded.k());
    let mut reference = Classifier::shared(Arc::new(model.clone()));
    let expected: Vec<_> = held_out
        .iter()
        .map(|(_, xml)| reference.classify_brute(xml).unwrap())
        .collect();

    // The remote arm's daemons: one per representative of the boot model.
    let shared = Arc::new(model.clone());
    let daemons: Vec<ShardDaemon> = (0..model.k() as u32)
        .map(|i| ShardDaemon::start(Arc::clone(&shared), i..i + 1, "127.0.0.1:0").expect("daemon"))
        .collect();
    let replicas = daemons.iter().map(|d| vec![d.addr().to_string()]).collect();
    // A beam at least as wide as any level keeps the tree exact.
    let full_beam = TreeConfig { branch: 2, beam: 8 };

    for (engine, layout) in [
        ("indexed", Layout::default()),
        ("indexed", Layout::Indexed { shards: 3 }),
        ("tree", Layout::Tree(full_beam)),
        (
            "remote",
            Layout::Remote {
                replicas,
                deadline: Duration::from_secs(10),
            },
        ),
    ] {
        let server = Server::start(
            model.clone(),
            ("127.0.0.1", 0),
            ServeOptions {
                threads: 3,
                layout: layout.clone(),
                ..ServeOptions::default()
            },
        )
        .expect("bind");
        let addr = server.addr();
        for ((name, xml), want) in held_out.iter().zip(&expected) {
            let (head, body) = post_classify(addr, xml);
            assert!(
                head.starts_with("HTTP/1.1 200"),
                "{layout:?} {name}: {head}"
            );
            assert_eq!(json_field(&body, "cluster"), want.cluster.to_string());
            assert_eq!(
                json_field(&body, "score"),
                want.score.to_string(),
                "{layout:?} {name}: bit-identical score"
            );
        }

        const CLIENTS: usize = 4;
        const REQUESTS_PER_CLIENT: usize = 6;
        let (docs, want, arm) = (&held_out, &expected, &layout);
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.set_read_timeout(Some(Duration::from_secs(20)))
                        .expect("read timeout");
                    for r in 0..REQUESTS_PER_CLIENT {
                        let i = (c + r) % docs.len();
                        let xml = &docs[i].1;
                        let request = format!(
                            "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{xml}",
                            xml.len()
                        );
                        conn.write_all(request.as_bytes()).expect("send");
                        let (head, body) = read_response(&mut conn);
                        assert!(head.starts_with("HTTP/1.1 200"), "{arm:?}: {head}");
                        assert_eq!(json_field(&body, "cluster"), want[i].cluster.to_string());
                        assert_eq!(json_field(&body, "score"), want[i].score.to_string());
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.errors, 0, "{layout:?}");
        assert_eq!(
            stats.classified as usize,
            held_out.len() + CLIENTS * REQUESTS_PER_CLIENT,
            "{layout:?}: every request sent is classified"
        );
        assert_eq!(
            stats.reused, CLIENTS as u64,
            "{layout:?}: every keep-alive client reuses its connection"
        );

        let named = format!(r#""engine":"{engine}""#);
        let body = get_stats(addr);
        assert!(body.contains(&named), "{body}");
        assert_eq!(json_field(&body, "epoch"), "1", "{body}");
        assert_stats_describe(&layout, &model, &body, false);

        server.reload(reloaded.clone());
        let body = get_stats(addr);
        assert!(body.contains(&named), "{body}");
        assert_eq!(json_field(&body, "epoch"), "2", "{body}");
        assert_stats_describe(&layout, &reloaded, &body, true);
        server.shutdown();
    }
    for daemon in daemons {
        daemon.shutdown();
    }
}

/// Asserts `GET /stats` describes `layout`'s engine over `model`; a
/// `fresh` engine (just reloaded) has served nothing yet.
fn assert_stats_describe(layout: &Layout, model: &TrainedModel, body: &str, fresh: bool) {
    let postings = Classifier::shared(Arc::new(model.clone()))
        .engine()
        .posting_entries();
    match layout {
        Layout::Indexed { shards } => {
            assert_eq!(json_field(body, "shards"), shards.to_string(), "{body}");
            assert_eq!(json_field(body, "index_postings"), postings.to_string());
            assert!(json_field(body, "postings_bytes").parse::<u64>().unwrap() > 0);
            let reps = field_values(body, "reps");
            assert_eq!(reps.len(), *shards, "one object per shard: {body}");
            assert_eq!(reps.iter().sum::<u64>(), model.k() as u64, "{body}");
            let queries: u64 = field_values(body, "queries").iter().sum();
            assert_eq!(queries == 0, fresh, "{body}");
        }
        Layout::Tree(config) => {
            let tree = TreeEngine::build(Arc::new(model.clone()), *config);
            assert_eq!(
                json_field(body, "tree_nodes"),
                tree.node_count().to_string()
            );
            assert_eq!(json_field(body, "tree_depth"), tree.depth().to_string());
            assert_eq!(json_field(body, "index_postings"), "0", "{body}");
            assert_eq!(json_field(body, "tuples") == "0", fresh, "{body}");
        }
        Layout::Remote { replicas, .. } => {
            assert_eq!(
                json_field(body, "remote_shards"),
                replicas.len().to_string()
            );
            assert_eq!(json_field(body, "index_postings"), "0", "{body}");
            // The topology and its counters outlive epochs.
            let requests: u64 = field_values(body, "requests").iter().sum();
            assert!(requests > 0, "{body}");
        }
    }
}

/// `GET /stats` reports the live epoch's index the moment a reload lands,
/// before any worker has served a request on the new model.
#[test]
fn stats_report_the_live_index_right_after_a_reload() {
    let (model, _) = train_held_out();
    let reloaded = train_all_samples();
    let postings = |m: &TrainedModel| {
        Classifier::shared(Arc::new(m.clone()))
            .engine()
            .posting_entries()
            .to_string()
    };
    assert_ne!(
        postings(&model),
        postings(&reloaded),
        "the index size moves"
    );
    let server = Server::start(
        model.clone(),
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let body = get_stats(server.addr());
    assert_eq!(
        json_field(&body, "index_postings"),
        postings(&model),
        "{body}"
    );
    server.reload(reloaded.clone());
    let body = get_stats(server.addr());
    assert_eq!(json_field(&body, "epoch"), "2", "{body}");
    assert_eq!(
        json_field(&body, "index_postings"),
        postings(&reloaded),
        "{body}"
    );
    server.shutdown();
}

/// Reload under load while scattering: client threads hammer a
/// four-shard server while the model is swapped repeatedly, so the shared
/// shard engine is rebuilt per epoch mid-traffic. Every response must be
/// self-consistent with exactly one epoch, exactly like the default
/// layout's torture test.
#[test]
fn sharded_reload_under_concurrent_load_stays_epoch_consistent() {
    let (model_a, held_out) = train_held_out();
    let model_b = train_variant();

    let docs: Vec<String> = held_out.iter().map(|(_, xml)| xml.clone()).collect();
    let mut classifier_a = Classifier::shared(Arc::new(model_a.clone()));
    let mut classifier_b = Classifier::shared(Arc::new(model_b.clone()));
    let expected: Vec<(u32, u32)> = docs
        .iter()
        .map(|xml| {
            (
                classifier_a.classify(xml).unwrap().cluster,
                classifier_b.classify(xml).unwrap().cluster,
            )
        })
        .collect();

    let server = Server::start(
        model_a.clone(),
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 4,
            layout: Layout::Indexed { shards: 4 },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Epoch parity is the oracle: boot model A is epoch 1 and swaps
    // strictly alternate B, A, B, … so odd epochs serve A, even serve B.
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 30;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let docs = docs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = (c + r) % docs.len();
                    let (head, body) = post_classify(addr, &docs[i]);
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    let epoch = response_epoch(&head);
                    let want = if epoch % 2 == 1 {
                        expected[i].0
                    } else {
                        expected[i].1
                    };
                    assert_eq!(
                        json_field(&body, "cluster"),
                        want.to_string(),
                        "epoch {epoch} must answer with its own model's cluster: {body}"
                    );
                }
            })
        })
        .collect();

    const SWAPS: usize = 16;
    for i in 0..SWAPS {
        if i % 2 == 0 {
            server.reload(model_b.clone());
        } else {
            server.reload(model_a.clone());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    for client in clients {
        client
            .join()
            .expect("no client may observe a dropped or malformed response");
    }

    let stats = server.stats();
    assert_eq!(
        stats.classified,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "zero dropped classifications across sharded swaps"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.reloads, SWAPS as u64);
    assert_eq!(stats.epoch, 1 + SWAPS as u64);
    server.shutdown();
}

#[test]
fn counters_split_connections_from_requests() {
    let (model, _) = train_held_out();
    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // 1: a well-formed request — both counters move.
    let (head, body) = http_request(
        addr,
        "GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "connections"), "1");
    assert_eq!(json_field(&body, "requests"), "1");

    // 2: a malformed request line — a connection, never a request.
    let (head, _) = http_request(addr, "GARBAGE\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    // 3: duplicate Content-Length — refused as smuggling hygiene.
    let (head, body) = http_request(
        addr,
        "POST /classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
    );
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("duplicate Content-Length"), "{body}");

    // 4: a `+`-prefixed Content-Length — `u64::from_str` would take it,
    // the header grammar does not.
    let (head, body) = http_request(
        addr,
        "POST /classify HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
    );
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("bad Content-Length"), "{body}");

    let stats = server.stats();
    assert_eq!(stats.connections, 4, "every connection counted");
    assert_eq!(stats.requests, 1, "only the parsed request counted");
    assert_eq!(stats.errors, 3, "the three refusals counted as errors");
    server.shutdown();
}
