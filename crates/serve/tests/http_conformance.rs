//! Protocol-conformance and torture suite for the event-driven HTTP
//! transport (ISSUE 6). Everything here speaks to a live server over raw
//! sockets — no client library — because the subject under test *is* the
//! wire behavior:
//!
//! * table-driven refusals: every malformed or oversized request is
//!   answered with the right 4xx/5xx and a closed connection, never a
//!   hang or an unbounded buffer;
//! * keep-alive and pipelining: several requests per connection, answers
//!   strictly in request order, byte-at-a-time delivery handled;
//! * the keep-alive × hot-reload torture: client threads pipeline
//!   classifications across 20 model swaps (both reload surfaces) and
//!   every response must be whole, carry exactly one `X-Model-Epoch`,
//!   and agree with the model of the epoch it claims;
//! * bounded-queue backpressure: a jammed queue sheds with
//!   `503` + parseable `Retry-After`, counts the sheds, keeps `GET
//!   /stats` answering inline, and drains back to `200`s.

use cxk_core::{save_model_file, CxkConfig, EngineBuilder, TrainedModel};
use cxk_serve::{Classifier, ServeOptions, Server};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn samples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples")
}

fn read_sample(name: &str) -> String {
    std::fs::read_to_string(samples_dir().join(name)).expect("sample exists")
}

/// Trains on ten of the twelve samples, holding out one per topic (the
/// same seeded recipe the serving integration suite pins).
fn train_held_out() -> (TrainedModel, Vec<String>) {
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
    config.seed = 3;
    let fit = EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid training config")
        .fit(&ds)
        .expect("training runs");
    let model = fit.into_model(&ds, BuildOptions::default());
    let held_out = vec![read_sample("mining6.xml"), read_sample("network6.xml")];
    (model, held_out)
}

/// A deliberately different model over the same corpus (k = 3, another
/// seed), so a swap is observable.
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

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cxk-http-conf-{}-{name}", std::process::id()))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    // A wedged server must fail the test, not hang it.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
}

/// Reads exactly one `Content-Length`-framed response off a (possibly
/// keep-alive) connection: head byte-by-byte to the blank line, then the
/// declared body. Errors on EOF mid-response — a dropped connection.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(String, String)> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if stream.read(&mut byte)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    let length: usize = header_field(&head, "Content-Length")
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok((
        head.trim_end().to_string(),
        String::from_utf8(body).expect("UTF-8 body"),
    ))
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

fn classify_request(xml: &str) -> String {
    format!(
        "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{xml}",
        xml.len()
    )
}

/// One request per connection, `Connection: close`, read to EOF.
fn one_shot(addr: SocketAddr, raw: &str) -> String {
    let mut stream = connect(addr);
    let _ = stream.write_all(raw.as_bytes());
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Table-driven protocol refusals: each hostile request must be answered
/// with its specific status — promptly, with the diagnostic in the body,
/// and with the connection closed (the `read_to_string` returning at all
/// proves no hang; EOF proves the close).
#[test]
fn refusal_table_answers_each_hostile_request_with_its_status() {
    struct Refusal {
        name: &'static str,
        raw: String,
        status: &'static str,
        body_contains: &'static str,
    }
    let cases = [
        Refusal {
            name: "malformed request line",
            raw: "GARBAGE\r\n\r\n".into(),
            status: "HTTP/1.1 400",
            body_contains: "malformed request line",
        },
        Refusal {
            name: "duplicate Content-Length, descending",
            raw: "POST /classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello"
                .into(),
            status: "HTTP/1.1 400",
            body_contains: "duplicate Content-Length",
        },
        Refusal {
            name: "duplicate Content-Length, agreeing",
            raw: "POST /classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
                .into(),
            status: "HTTP/1.1 400",
            body_contains: "duplicate Content-Length",
        },
        Refusal {
            name: "plus-prefixed Content-Length",
            raw: "POST /classify HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".into(),
            status: "HTTP/1.1 400",
            body_contains: "bad Content-Length",
        },
        Refusal {
            name: "Transfer-Encoding smuggling vector",
            raw: "POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
            status: "HTTP/1.1 501",
            body_contains: "Transfer-Encoding",
        },
        Refusal {
            name: "giant declared body",
            raw: "POST /classify HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".into(),
            status: "HTTP/1.1 413",
            body_contains: "exceeds",
        },
        Refusal {
            name: "unbounded header flood",
            raw: format!(
                "GET /model HTTP/1.1\r\nX-Flood: {}\r\n\r\n",
                "a".repeat(64 << 10)
            ),
            status: "HTTP/1.1 431",
            body_contains: "exceeds",
        },
    ];

    let (model, _) = train_held_out();
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");
    let addr = server.addr();

    for case in &cases {
        let response = one_shot(addr, &case.raw);
        assert!(
            response.starts_with(case.status),
            "{}: expected {}, got: {response}",
            case.name,
            case.status
        );
        assert!(
            response.contains(case.body_contains),
            "{}: body must name the refusal: {response}",
            case.name
        );
    }

    let stats = server.stats();
    assert_eq!(stats.requests, 0, "no refusal ever counts as a request");
    assert_eq!(stats.errors, cases.len() as u64);
    server.shutdown();
}

/// A batch body of 100,000 `[` is refused with 400 naming the nesting
/// cap, without overflowing a worker's stack, and the server keeps
/// answering on the same connection.
#[test]
fn a_deeply_nested_batch_body_is_refused_and_serving_continues() {
    let (model, held_out) = train_held_out();
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");
    let mut stream = connect(server.addr());
    stream
        .write_all(classify_request(&"[".repeat(100_000)).as_bytes())
        .expect("send");
    let (head, body) = read_response(&mut stream).expect("an answer");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("nesting too deep at byte 128"), "{body}");
    stream
        .write_all(classify_request(&held_out[0]).as_bytes())
        .expect("send");
    let (head, body) = read_response(&mut stream).expect("an answer");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.starts_with("{\"cluster\":"), "{body}");
    let stats = server.stats();
    assert_eq!((stats.errors, stats.worker_panics), (1, 0));
    server.shutdown();
}

/// Pipelined requests on one keep-alive connection are answered strictly
/// in request order, each framed and carrying exactly one epoch header.
#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let (model, held_out) = train_held_out();
    let expected = Classifier::shared(Arc::new(model.clone()))
        .classify(&held_out[0])
        .unwrap()
        .cluster;
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");
    let addr = server.addr();

    let mut stream = connect(addr);
    let batch = format!(
        "GET /model HTTP/1.1\r\nHost: t\r\n\r\n{}GET /stats HTTP/1.1\r\nHost: t\r\n\r\n",
        classify_request(&held_out[0])
    );
    stream.write_all(batch.as_bytes()).expect("send pipeline");

    // Response 1: /model (identified by its model-shape fields).
    let (head, body) = read_response(&mut stream).expect("first response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        json_field(&body, "k"),
        "2",
        "first answer is /model: {body}"
    );
    assert_eq!(head.matches("X-Model-Epoch:").count(), 1, "{head}");
    // Response 2: the classification.
    let (head, body) = read_response(&mut stream).expect("second response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        json_field(&body, "cluster"),
        expected.to_string(),
        "second answer is the classification: {body}"
    );
    // Response 3: /stats, which by now has seen all three requests.
    let (head, body) = read_response(&mut stream).expect("third response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "requests"), "3", "{body}");
    assert_eq!(json_field(&body, "connections"), "1", "{body}");
    assert_eq!(
        json_field(&body, "reused"),
        "1",
        "one connection served a second request: {body}"
    );

    server.shutdown();
}

/// A request delivered one byte at a time (worst-case packetization) is
/// buffered across readiness events and answered normally.
#[test]
fn byte_at_a_time_delivery_is_reassembled() {
    let (model, held_out) = train_held_out();
    let expected = Classifier::shared(Arc::new(model.clone()))
        .classify(&held_out[1])
        .unwrap()
        .cluster;
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");

    let mut stream = connect(server.addr());
    let raw = classify_request(&held_out[1]);
    for (i, chunk) in raw.as_bytes().chunks(1).enumerate() {
        stream.write_all(chunk).expect("trickle");
        // A few genuine pauses force the head and body across separate
        // readiness events without making the test crawl.
        if i % 97 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (head, body) = read_response(&mut stream).expect("response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_field(&body, "cluster"), expected.to_string(), "{body}");
    server.shutdown();
}

/// Smuggling hygiene holds on a *reused* connection: a clean request
/// first, then a duplicate-Content-Length request on the same socket is
/// refused and the connection closed.
#[test]
fn duplicate_content_length_is_refused_on_a_reused_connection() {
    let (model, _) = train_held_out();
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");

    let mut stream = connect(server.addr());
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send clean");
    let (head, _) = read_response(&mut stream).expect("clean response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(header_field(&head, "Connection").eq_ignore_ascii_case("keep-alive"));

    stream
        .write_all(
            b"POST /classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
        )
        .expect("send smuggle");
    let (head, body) = read_response(&mut stream).expect("refusal response");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("duplicate Content-Length"), "{body}");
    assert!(header_field(&head, "Connection").eq_ignore_ascii_case("close"));
    // And the close is real: the socket reaches EOF.
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("EOF after refusal");
    assert!(rest.is_empty(), "nothing after the refusal: {rest:?}");
    server.shutdown();
}

/// `Connection: close` mid-pipeline is honored: the close request is the
/// last one answered; anything pipelined behind it is never processed.
#[test]
fn connection_close_is_honored_mid_pipeline() {
    let (model, _) = train_held_out();
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");

    let mut stream = connect(server.addr());
    stream
        .write_all(
            b"GET /model HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\nGET /stats HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("send");
    let (head, _) = read_response(&mut stream).expect("the close-flagged response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(header_field(&head, "Connection").eq_ignore_ascii_case("close"));
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "the pipelined /stats was never answered");

    let stats = server.stats();
    assert_eq!(stats.requests, 1, "the request behind the close is dropped");
    server.shutdown();
}

/// Disabling keep-alive server-side (`keep_alive: None`) closes every
/// connection after one response even without `Connection: close`.
#[test]
fn keep_alive_none_closes_after_every_response() {
    let (model, _) = train_held_out();
    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            keep_alive: None,
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    let mut stream = connect(server.addr());
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let (head, _) = read_response(&mut stream).expect("response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(header_field(&head, "Connection").eq_ignore_ascii_case("close"));
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("EOF");
    assert!(rest.is_empty());
    server.shutdown();
}

/// The tentpole torture: client threads pipeline classifications over
/// keep-alive connections while the model is swapped 20 times through
/// *both* reload surfaces. Every response must arrive whole and in
/// order, carry exactly one `X-Model-Epoch`, and report the cluster the
/// model of that epoch assigns — and no connection may drop
/// mid-pipeline.
#[test]
fn keep_alive_pipelines_survive_twenty_hot_reloads() {
    let (model_a, docs) = train_held_out();
    let model_b = train_variant();

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

    // Epoch parity is the oracle: boot model A is epoch 1 and swaps
    // strictly alternate B, A, B, … so odd epochs serve A, even serve B.
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 5;
    const PIPELINE: usize = 4;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let docs = docs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                for round in 0..ROUNDS {
                    let mut batch = String::new();
                    for p in 0..PIPELINE {
                        batch.push_str(&classify_request(&docs[(c + round + p) % docs.len()]));
                    }
                    stream.write_all(batch.as_bytes()).expect("send pipeline");
                    for p in 0..PIPELINE {
                        let (head, body) = read_response(&mut stream)
                            .expect("no connection may drop mid-pipeline");
                        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                        assert_eq!(
                            head.matches("X-Model-Epoch:").count(),
                            1,
                            "exactly one epoch header: {head}"
                        );
                        let epoch: u64 =
                            header_field(&head, "X-Model-Epoch").parse().expect("epoch");
                        let i = (c + round + p) % docs.len();
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
                }
            })
        })
        .collect();

    // Swap away while the clients hammer: even swaps POST B's snapshot
    // path, odd swaps push A back through the library API.
    const SWAPS: usize = 20;
    for i in 0..SWAPS {
        if i % 2 == 0 {
            let raw = format!(
                "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                b_path.to_str().unwrap().len(),
                b_path.to_str().unwrap()
            );
            let response = one_shot(addr, &raw);
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
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
    let total = (CLIENTS * ROUNDS * PIPELINE) as u64;
    assert_eq!(stats.classified, total, "zero dropped classifications");
    assert_eq!(stats.errors, 0, "zero malformed responses");
    assert_eq!(stats.reloads, SWAPS as u64);
    assert_eq!(stats.epoch, 1 + SWAPS as u64);
    assert_eq!(
        stats.requests,
        total + SWAPS as u64 / 2,
        "every pipelined classify and every POSTed reload parsed"
    );
    assert_eq!(
        stats.connections,
        (CLIENTS + SWAPS / 2) as u64,
        "keep-alive: one connection per client, one per POSTed reload"
    );
    assert_eq!(
        stats.reused, CLIENTS as u64,
        "exactly the keep-alive clients reused their connections"
    );

    let _ = std::fs::remove_file(&b_path);
    server.shutdown();
}

/// Backpressure: with one deliberately slow worker and a two-slot queue,
/// a burst of classifications must be shed with `503` + parseable
/// `Retry-After`, the sheds must be counted in `/stats` (which itself
/// keeps answering inline while the queue is jammed), and once the storm
/// passes the queue drains back to `200`s.
#[test]
fn full_queue_sheds_with_retry_after_and_drains() {
    let (model, docs) = train_held_out();
    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 1,
            queue_depth: 2,
            worker_delay: Some(Duration::from_millis(200)),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    const STORM: usize = 10;
    let clients: Vec<_> = (0..STORM)
        .map(|i| {
            let xml = docs[i % docs.len()].clone();
            std::thread::spawn(move || {
                let raw = format!(
                    "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{xml}",
                    xml.len()
                );
                one_shot(addr, &raw)
            })
        })
        .collect();

    // While the worker is stalled and the queue jammed, the inline
    // /stats endpoint must still answer immediately.
    std::thread::sleep(Duration::from_millis(50));
    let jammed = one_shot(
        addr,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(
        jammed.starts_with("HTTP/1.1 200"),
        "/stats must answer while the queue is jammed: {jammed}"
    );
    let jammed_body = jammed.split("\r\n\r\n").nth(1).unwrap_or_default();
    assert_eq!(json_field(jammed_body, "queue_depth"), "2", "{jammed_body}");

    let mut oks = 0u64;
    let mut sheds = 0u64;
    for client in clients {
        let response = client.join().expect("storm client");
        if response.starts_with("HTTP/1.1 200") {
            oks += 1;
        } else if response.starts_with("HTTP/1.1 503") {
            let (head, body) = response.split_once("\r\n\r\n").expect("framed 503");
            let retry: u32 = header_field(head, "Retry-After")
                .parse()
                .expect("parseable Retry-After");
            assert!(retry >= 1, "a real backoff hint");
            assert!(body.contains("capacity"), "{body}");
            sheds += 1;
        } else {
            panic!("a storm request got neither 200 nor 503: {response}");
        }
    }
    assert_eq!(oks + sheds, STORM as u64);
    assert!(sheds >= 1, "a ten-request burst into depth 2 must shed");
    // At minimum the two queue slots fill before anything sheds; pops
    // racing the burst can only admit more.
    assert!(oks >= 2, "both queue slots must serve");

    // The sheds are visible in the counters…
    let stats = server.stats();
    assert_eq!(stats.rejected, sheds, "every 503 counted as rejected");
    assert_eq!(stats.classified, oks, "every 200 classified");

    // …and the queue has drained: the next classification is a 200.
    let after = one_shot(
        addr,
        &format!(
        "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        docs[0].len(),
        docs[0]
    ),
    );
    assert!(after.starts_with("HTTP/1.1 200"), "drained: {after}");
    let stats_body = one_shot(
        addr,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let body = stats_body.split("\r\n\r\n").nth(1).unwrap_or_default();
    assert_eq!(json_field(body, "rejected"), sheds.to_string(), "{body}");
    assert_eq!(json_field(body, "queue_len"), "0", "drained queue: {body}");
    server.shutdown();
}

/// Service-time percentiles and the capped-document counter surface in
/// `GET /stats`, and a tuple-capped document is flagged in its own
/// response body.
#[test]
fn stats_report_service_percentiles_and_capped_documents() {
    let (model, held_out) = train_held_out();
    let server = Server::start(model, ("127.0.0.1", 0), ServeOptions::default()).expect("bind");
    let addr = server.addr();

    // A normal classification is answered uncapped…
    let clean = one_shot(
        addr,
        &format!(
            "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            held_out[0].len(),
            held_out[0]
        ),
    );
    assert!(clean.starts_with("HTTP/1.1 200"), "{clean}");
    assert!(clean.contains(r#""capped":false"#), "{clean}");

    // …then a document whose tuple enumeration overflows the default cap:
    // 17 label groups with 2 alternatives each is 2^17 = 131 072 tree
    // tuples against the 65 536 limit.
    let mut hostile = String::from("<r>");
    for g in 0..17 {
        hostile.push_str(&format!("<g{g}><x>a</x></g{g}><g{g}><x>b</x></g{g}>"));
    }
    hostile.push_str("</r>");
    let capped = one_shot(
        addr,
        &format!(
            "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{hostile}",
            hostile.len()
        ),
    );
    assert!(capped.starts_with("HTTP/1.1 200"), "{capped}");
    assert!(capped.contains(r#""capped":true"#), "{capped}");

    let stats = server.stats();
    assert_eq!(stats.classified, 2);
    assert_eq!(stats.capped, 1, "one of the two documents was truncated");
    assert!(
        stats.service_p999_micros >= stats.service_p50_micros,
        "percentiles must be monotone: {stats:?}"
    );

    let response = one_shot(
        addr,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let body = response.split("\r\n\r\n").nth(1).unwrap_or_default();
    assert_eq!(json_field(body, "capped"), "1", "{body}");
    let p50: u64 = json_field(body, "service_p50_micros")
        .parse()
        .expect("numeric p50");
    let p99: u64 = json_field(body, "service_p99_micros")
        .parse()
        .expect("numeric p99");
    let p999: u64 = json_field(body, "service_p999_micros")
        .parse()
        .expect("numeric p999");
    assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
    server.shutdown();
}
