//! Distributed scatter/gather equivalence (ISSUE 7's acceptance
//! criterion): over the repository's `samples/` corpus, classification
//! through real shard daemons on loopback TCP is **bit-identical** to the
//! in-process sharded engine and to brute force — including `γ = 0`
//! (pruning disabled), empty/alien queries, and `k < S` (daemons serving
//! empty ranges) — and killing a daemon mid-stream fails over to its
//! replica with an identical answer.

use cxk_core::{save_model, snapshot_digest, CxkConfig, EngineBuilder, TrainedModel};
use cxk_p2p::{FramedConn, PeerId};
use cxk_serve::remote::{ShardAnswer, ShardMsg};
use cxk_serve::{
    Classifier, Layout, RemoteClassifier, RemoteEngine, ServeOptions, Server, ShardDaemon,
    ShardedClassifier, ShardedEngine,
};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Generous per-shard deadline: loopback daemons answer in microseconds,
/// and a slow CI box must not flake the bit-identity assertions.
const DEADLINE: Duration = Duration::from_secs(10);

/// The repository's `samples/` corpus.
fn sample_docs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable sample");
            (name, text)
        })
        .collect()
}

fn train_on_samples(k: usize, f: f64, gamma: f64) -> TrainedModel {
    let docs = sample_docs();
    assert_eq!(docs.len(), 12, "samples corpus");
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for (_, text) in &docs {
        builder.add_xml(text).expect("valid sample");
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(k);
    config.params = SimParams::new(f, gamma);
    config.seed = 1;
    EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid sample config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default())
}

/// The corpus plus the degenerate query shapes: an alien vocabulary, a
/// zero-tuple document (never touches the network), and all-empty TCUs.
fn probe_docs() -> Vec<(String, String)> {
    let mut docs = sample_docs();
    docs.push((
        "alien".into(),
        r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised seitan stew</dish></recipe></recipes>"#.into(),
    ));
    docs.push(("empty-root".into(), "<dblp/>".into()));
    docs.push((
        "empty-leaves".into(),
        "<dblp><article><title></title><author></author></article></dblp>".into(),
    ));
    docs
}

/// Starts one daemon per shard, partitioning `0..k` exactly like
/// `ShardedEngine::build` (`start = i·k/S`), on ephemeral loopback ports.
fn spawn_daemons(model: &Arc<TrainedModel>, s: usize) -> (Vec<ShardDaemon>, Vec<Vec<String>>) {
    let k = model.k();
    let mut daemons = Vec::with_capacity(s);
    let mut shards = Vec::with_capacity(s);
    for i in 0..s {
        let start = (i * k / s) as u32;
        let end = ((i + 1) * k / s) as u32;
        let daemon =
            ShardDaemon::start(Arc::clone(model), start..end, "127.0.0.1:0").expect("daemon");
        shards.push(vec![daemon.addr().to_string()]);
        daemons.push(daemon);
    }
    (daemons, shards)
}

/// The tentpole invariant: across `(k, S, γ)` configurations — with
/// `γ = 0` disabling pruning and `S > k` leaving daemons with empty
/// ranges — remote classification over real sockets equals the
/// in-process sharded engine and brute force bit-for-bit: cluster ids,
/// per-tuple similarities, document scores, and candidate counts.
#[test]
fn remote_equals_sharded_and_brute_on_samples() {
    for (k, s, gamma) in [
        (3usize, 2usize, 0.6),
        (2, 3, 0.0),
        (2, 5, 0.5),
        (4, 4, 0.8),
        (1, 2, 0.4),
    ] {
        let model = Arc::new(train_on_samples(k, 0.5, gamma));
        let (daemons, shards) = spawn_daemons(&model, s);
        let topology = Arc::new(RemoteEngine::new(shards, DEADLINE).expect("valid topology"));
        let mut remote = RemoteClassifier::new(Arc::clone(&topology), Arc::clone(&model));
        let mut sharded =
            ShardedClassifier::new(Arc::new(ShardedEngine::build(Arc::clone(&model), s)));
        let mut brute = Classifier::shared(Arc::clone(&model));

        for (name, text) in &probe_docs() {
            let r = remote.classify(text).expect("remote classify");
            let a = sharded.classify(text).expect("sharded classify");
            let b = brute.classify_brute(text).expect("brute classify");
            assert_eq!(
                r, a,
                "remote vs in-process sharded for {name} (k={k} S={s} γ={gamma})"
            );
            assert_eq!(r.cluster, b.cluster, "{name}: cluster vs brute");
            assert_eq!(r.score, b.score, "{name}: score must be bit-identical");
            assert_eq!(r.tuples.len(), b.tuples.len(), "{name}");
            for (tr, tb) in r.tuples.iter().zip(&b.tuples) {
                assert_eq!(tr.cluster, tb.cluster, "{name}");
                assert_eq!(
                    tr.similarity, tb.similarity,
                    "{name}: simγJ must survive the wire bit-for-bit"
                );
            }
            // The remote brute path must agree with local brute force too.
            let rb = remote.classify_brute(text).expect("remote brute");
            assert_eq!(rb.cluster, b.cluster, "{name}: brute cluster");
            assert_eq!(rb.score, b.score, "{name}: brute score");
        }

        let stats = topology.shard_stats();
        assert_eq!(stats.len(), s);
        assert!(
            stats.iter().all(|st| st.requests > 0),
            "every shard slot answered scatters (k={k} S={s})"
        );
        assert!(
            stats.iter().all(|st| st.failovers == 0 && st.retries == 0),
            "healthy daemons never fail over"
        );
        assert!(stats.iter().all(|st| st.bytes > 0));
        // The fabric ledger metered both directions of real frames.
        assert!(topology.ledger().messages() > 0);
        assert!(topology.ledger().bytes() > 0);
        drop(daemons);
    }
}

/// Killing the primary daemon mid-stream: the next classify re-asks the
/// replica serving the same range, the answer is identical, and the
/// failover counter bumps.
#[test]
fn killed_daemon_fails_over_to_replica_with_identical_answer() {
    let model = Arc::new(train_on_samples(2, 0.5, 0.6));
    let primary = ShardDaemon::start(Arc::clone(&model), 0..1, "127.0.0.1:0").expect("primary");
    let replica = ShardDaemon::start(Arc::clone(&model), 0..1, "127.0.0.1:0").expect("replica");
    let other = ShardDaemon::start(Arc::clone(&model), 1..2, "127.0.0.1:0").expect("other");
    let topology = Arc::new(
        RemoteEngine::new(
            vec![
                vec![primary.addr().to_string(), replica.addr().to_string()],
                vec![other.addr().to_string()],
            ],
            DEADLINE,
        )
        .expect("valid topology"),
    );
    let mut remote = RemoteClassifier::new(Arc::clone(&topology), Arc::clone(&model));
    let mut brute = Classifier::shared(Arc::clone(&model));

    let docs = sample_docs();
    let before: Vec<_> = docs
        .iter()
        .map(|(_, text)| remote.classify(text).expect("classify via primary"))
        .collect();
    assert_eq!(topology.shard_stats()[0].failovers, 0);

    // Kill the primary: its accept loop and connection handlers exit and
    // the frontend's established connection goes dead.
    primary.shutdown();

    for (i, (name, text)) in docs.iter().enumerate() {
        let after = remote.classify(text).expect("classify via replica");
        let reference = brute.classify_brute(text).expect("brute");
        assert_eq!(
            after, before[i],
            "{name}: the replica's answer must be identical"
        );
        assert_eq!(after.cluster, reference.cluster, "{name}");
        assert_eq!(after.score, reference.score, "{name}");
    }

    let stats = topology.shard_stats();
    assert!(
        stats[0].failovers >= 1,
        "the failover counter must record the replica switch"
    );
    assert!(stats[0].retries >= 1, "the re-ask was counted");
    assert_eq!(stats[1].failovers, 0, "the healthy shard never failed over");
}

/// A dead first replica (nothing listening) is skipped on the very first
/// classify: the slot fails over to its live replica and still answers
/// bit-identically.
#[test]
fn dead_first_replica_is_skipped_on_first_contact() {
    let model = Arc::new(train_on_samples(2, 0.5, 0.5));
    // Bind-then-drop to get a loopback port with nothing listening.
    let dead = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        sock.local_addr().expect("addr").to_string()
    };
    let live0 = ShardDaemon::start(Arc::clone(&model), 0..1, "127.0.0.1:0").expect("live0");
    let live1 = ShardDaemon::start(Arc::clone(&model), 1..2, "127.0.0.1:0").expect("live1");
    let topology = Arc::new(
        RemoteEngine::new(
            vec![
                vec![dead, live0.addr().to_string()],
                vec![live1.addr().to_string()],
            ],
            DEADLINE,
        )
        .expect("valid topology"),
    );
    let mut remote = RemoteClassifier::new(Arc::clone(&topology), Arc::clone(&model));
    let mut brute = Classifier::shared(Arc::clone(&model));
    for (name, text) in &sample_docs() {
        let r = remote.classify(text).expect("remote");
        let b = brute.classify_brute(text).expect("brute");
        assert_eq!(r.cluster, b.cluster, "{name}");
        assert_eq!(r.score, b.score, "{name}");
    }
    let stats = topology.shard_stats();
    assert!(stats[0].failovers >= 1, "answered by the second replica");
    assert!(stats[0].requests > 0);
}

/// An impostor daemon: handshakes like a genuine shard (correct digest,
/// `k`, and range) but answers every scatter with a **wrong sequence
/// number** and poisoned similarities. If the frontend ever accepted its
/// ack, the winning cluster would be 0 with an absurd score — so passing
/// the bit-identity assertions below proves stale/mismatched replies are
/// rejected and failed over, never consumed.
fn spawn_wrong_seq_impostor(
    model: &Arc<TrainedModel>,
    start: u32,
    end: u32,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind impostor");
    let addr = listener.local_addr().expect("addr").to_string();
    let digest = snapshot_digest(&save_model(model)).expect("digest");
    let k = model.k() as u32;
    let handle = std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let Ok(mut conn) = FramedConn::<ShardMsg>::new(stream, PeerId(u32::MAX), None) else {
            return;
        };
        loop {
            let Ok((envelope, _)) = conn.recv_timeout(Duration::from_secs(10)) else {
                return;
            };
            conn.set_id(envelope.to);
            let reply = match envelope.payload {
                ShardMsg::Hello => ShardMsg::HelloAck {
                    digest,
                    k,
                    start,
                    end,
                },
                ShardMsg::Scatter { seq, tuples, .. } => ShardMsg::ScatterAck {
                    seq: seq.wrapping_add(99),
                    answers: tuples
                        .iter()
                        .map(|_| ShardAnswer {
                            sim_bits: f64::MAX.to_bits(),
                            id: 0,
                            scored: 1,
                        })
                        .collect(),
                },
                _ => return,
            };
            if conn.send(envelope.from, &reply).is_err() {
                return;
            }
        }
    });
    (addr, handle)
}

/// A reply whose `seq` does not match the outstanding request is treated
/// as a failure: the frontend drops the connection, fails over to the
/// honest replica of the same range, and the answer stays bit-identical
/// to brute force.
#[test]
fn wrong_seq_answer_is_rejected_and_fails_over() {
    let model = Arc::new(train_on_samples(2, 0.5, 0.6));
    let (impostor_addr, impostor) = spawn_wrong_seq_impostor(&model, 0, 1);
    let honest = ShardDaemon::start(Arc::clone(&model), 0..1, "127.0.0.1:0").expect("honest");
    let other = ShardDaemon::start(Arc::clone(&model), 1..2, "127.0.0.1:0").expect("other");
    let topology = Arc::new(
        RemoteEngine::new(
            vec![
                vec![impostor_addr, honest.addr().to_string()],
                vec![other.addr().to_string()],
            ],
            DEADLINE,
        )
        .expect("valid topology"),
    );
    let mut remote = RemoteClassifier::new(Arc::clone(&topology), Arc::clone(&model));
    let mut brute = Classifier::shared(Arc::clone(&model));
    for (name, text) in &sample_docs() {
        let r = remote.classify(text).expect("remote");
        let b = brute.classify_brute(text).expect("brute");
        assert_eq!(r.cluster, b.cluster, "{name}: poisoned ack must not win");
        assert_eq!(r.score, b.score, "{name}: score must stay bit-identical");
    }
    let stats = topology.shard_stats();
    assert!(
        stats[0].failovers >= 1,
        "the wrong-seq reply must force a failover to the honest replica"
    );
    assert!(stats[0].retries >= 1, "the re-ask was counted");
    drop(remote);
    impostor.join().expect("impostor thread");
}

/// A daemon must refuse to serve a range that is not a sub-range of the
/// model's `0..k`.
#[test]
fn daemon_rejects_out_of_bounds_range() {
    let model = Arc::new(train_on_samples(2, 0.5, 0.5));
    let err = ShardDaemon::start(Arc::clone(&model), 1..5, "127.0.0.1:0")
        .err()
        .expect("out-of-bounds range must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // An inverted range (start > end) is rejected the same way; built
    // from variables so the literal-range lint does not (rightly) object.
    let (hi, lo) = (2u32, 1u32);
    let err = ShardDaemon::start(Arc::clone(&model), hi..lo, "127.0.0.1:0")
        .err()
        .expect("inverted range must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// A remote layout the topology cannot run — no shard, a shard without a
/// replica address, or a zero deadline — is an input error from
/// `Server::start`, never a panic.
#[test]
fn server_rejects_unservable_remote_layouts() {
    let model = train_on_samples(2, 0.5, 0.5);
    let daemon = || vec!["127.0.0.1:7271".to_string()];
    for (replicas, deadline) in [
        (vec![], DEADLINE),
        (vec![vec![]], DEADLINE),
        (vec![daemon(), vec![]], DEADLINE),
        (vec![daemon()], Duration::ZERO),
    ] {
        let layout = Layout::Remote { replicas, deadline };
        let opts = ServeOptions {
            layout: layout.clone(),
            ..ServeOptions::default()
        };
        let err = Server::start(model.clone(), ("127.0.0.1", 0), opts)
            .err()
            .unwrap_or_else(|| panic!("{layout:?} must be rejected"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{layout:?}");
    }
}
