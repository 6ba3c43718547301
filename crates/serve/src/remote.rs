//! Distributed scatter/gather serving: shard daemons and the remote
//! classify engine, over the `cxk_p2p` framed TCP fabric.
//!
//! This module pushes the in-process transport seam of [`crate::shard`]
//! across process boundaries. The decomposition is unchanged — shards own
//! contiguous, disjoint, ascending representative ranges and answer
//! `(simγJ, id, scored)` triples — but the shards now live in **other
//! processes**, each serving its range of a `.cxkmodel` behind a TCP
//! listener ([`ShardDaemon`]), while the frontend sends every document to
//! all daemons and gathers their local argmaxes ([`RemoteClassifier`], held
//! by the [`crate::ClassifyEngine::Remote`] arm). As in the paper, where
//! each peer reads its own documents and only summaries cross the network,
//! a document crosses as its bytes and every daemon reads it; only the
//! per-tuple triples come back.
//!
//! # Why bit-identity survives the wire
//!
//! The in-process sharded path is bit-identical to brute force because
//! shards score the *same* query against the same representatives, and the
//! gather re-applies the exact argmax/tie-break/trash rules (see the
//! `shard` module docs). Nothing about the query is rebuilt on the far
//! side:
//!
//! * **Same model on both ends.** Frontend and daemon each load the full
//!   `.cxkmodel`; the handshake compares snapshot digests.
//! * **Same bytes, same code.** A [`ShardMsg::Scatter`] carries the
//!   document's UTF-8 bytes verbatim, and each daemon reads them with the
//!   [`ShardedClassifier`] the in-process layouts run — one session per
//!   connection over a one-shard [`ShardedEngine`] for its range — so it
//!   derives the tuples, items and weights the in-process engine derives,
//!   and scores its range under the relocation rule (`argmax_prepared`:
//!   strict `>`, lowest id wins ties). Similarities come back as `f64`
//!   bit patterns.
//! * **Unchanged gather.** The frontend gathers the answers in ascending
//!   range order with the same rule (`gather_best`), which declares trash
//!   exactly when the global best is `0.0`, and aggregates the document as
//!   every session does.
//! * **Checked agreement.** Every daemon reads the whole document, so all
//!   of them must agree on whether it parses, how many tuples it has and
//!   whether the tuple cap truncated it; shards that disagree make the
//!   request a [`ClassifyError::Remote`], never a mixed answer. A document
//!   every daemon rejects ([`ShardMsg::Rejected`]) is the client's fault:
//!   the frontend returns the daemons' error as [`ClassifyError::Xml`],
//!   field for field what a local session returns.
//!
//! # Failover contract
//!
//! Every shard slot is a replica set. Each request gets a per-shard
//! deadline; on timeout, disconnect, or a protocol error the frontend
//! drops that connection (after a timeout the abandoned answer may still
//! arrive and would be stale) and re-asks the *next* replica of the same
//! range, wrapping around at most once over the set. Only when every
//! replica has failed does the request surface the last error — a
//! [`NetworkError::Timeout`] stays typed all the way out — and on any
//! error exit every connection with an unread reply in flight is dropped
//! too. A rejection is an answer, not a failure: it is not retried and
//! its connection is kept. Stale answers are structurally impossible
//! either way: every `Scatter` carries a sequence number its reply must
//! echo. Counters:
//! `retries` counts every re-ask, `failovers` counts answers obtained from
//! a different replica than first tried, `requests` counts answers
//! (rejections included), `bytes` counts frame bytes both directions, and
//! `rtt_micros` accumulates scatter round-trip time.
//!
//! Because the frontend reads no document itself, a document whose every
//! replica of some shard is unreachable answers with the network error
//! (`502`/`504` over HTTP) even when it is malformed or has no tuples.

use crate::classify::{
    aggregate_document, ClassifyError, DocumentAssignment, SessionEngine, TupleAssignment,
};
use crate::shard::{ShardedClassifier, ShardedEngine};
use cxk_core::{save_model, snapshot_digest, TrainedModel};
use cxk_p2p::{FramedConn, NetworkError, WireCodec};
use cxk_transact::gather_best;
use cxk_util::bytes::{put_u32, put_u64};
use cxk_util::{ByteError, ByteReader};
use cxk_xml::parser::XmlError;
use std::io::{Error, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default per-shard scatter deadline (`cxk serve --remote-deadline-ms`).
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);

/// How often daemon connection handlers wake to check the shutdown flag.
const DAEMON_POLL: Duration = Duration::from_millis(200);

/// One shard's verdict for one tuple: its local argmax triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAnswer {
    /// Bit pattern of the winning `simγJ` (`0.0` when nothing matched).
    pub sim_bits: u64,
    /// Winning representative id (global numbering; the trash id when
    /// nothing in this shard's range scored above zero).
    pub id: u32,
    /// Representatives this shard actually scored (post index pruning).
    pub scored: u32,
}

/// The shard-serving protocol: a tiny request/response vocabulary spoken
/// over [`FramedConn`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMsg {
    /// Frontend → daemon: open a session, ask who you are.
    Hello,
    /// Daemon → frontend: model snapshot digest, cluster count, and the
    /// served representative range — everything the frontend validates.
    HelloAck {
        /// Digest of the daemon's loaded model snapshot.
        digest: u64,
        /// The daemon's `k` (proper cluster count).
        k: u32,
        /// Start of the served representative range (inclusive).
        start: u32,
        /// End of the served representative range (exclusive).
        end: u32,
    },
    /// Frontend → daemon: read this document and score its tuples against
    /// your range.
    Scatter {
        /// Request sequence number, echoed in the reply. Lets the frontend
        /// reject an answer to an *earlier* request that was still in
        /// flight on a reused connection (e.g. after a sibling shard's
        /// failure aborted a scatter mid-gather).
        seq: u64,
        /// Skip index pruning and score the whole range (brute force).
        brute: bool,
        /// The document, verbatim.
        xml: String,
    },
    /// Daemon → frontend: one answer per tuple of the document, in order.
    ScatterAck {
        /// The sequence number of the [`ShardMsg::Scatter`] being answered.
        seq: u64,
        /// Whether the tuple cap truncated the document.
        capped: bool,
        /// The per-tuple local argmax triples.
        answers: Vec<ShardAnswer>,
    },
    /// Daemon → frontend: the document does not parse; the fields of its
    /// `XmlError`.
    Rejected {
        /// The sequence number of the [`ShardMsg::Scatter`] being answered.
        seq: u64,
        /// Byte offset of the error.
        offset: u64,
        /// 1-based line of the offset.
        line: u64,
        /// The parser's description.
        message: String,
    },
    /// Daemon → frontend: the request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
// Tags 2 and 3 carried pre-extracted tuples and their answers in an
// earlier protocol; they stay unassigned, so such a peer's frames are
// refused rather than misread.
const TAG_ERROR: u8 = 4;
const TAG_SCATTER: u8 = 5;
const TAG_SCATTER_ACK: u8 = 6;
const TAG_REJECTED: u8 = 7;

/// Appends a `u32` byte length and `text`'s bytes.
fn put_str(buf: &mut Vec<u8>, text: &str) {
    put_u32(buf, text.len() as u32);
    buf.extend_from_slice(text.as_bytes());
}

/// Reads what [`put_str`] wrote: `Ok(None)` when the bytes are not UTF-8.
fn read_str(r: &mut ByteReader<'_>) -> Result<Option<String>, ByteError> {
    let len = r.count(1)?;
    Ok(std::str::from_utf8(r.bytes(len)?).ok().map(str::to_owned))
}

impl WireCodec for ShardMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ShardMsg::Hello => buf.push(TAG_HELLO),
            ShardMsg::HelloAck {
                digest,
                k,
                start,
                end,
            } => {
                buf.push(TAG_HELLO_ACK);
                put_u64(buf, *digest);
                put_u32(buf, *k);
                put_u32(buf, *start);
                put_u32(buf, *end);
            }
            ShardMsg::Scatter { seq, brute, xml } => {
                buf.push(TAG_SCATTER);
                put_u64(buf, *seq);
                buf.push(u8::from(*brute));
                put_str(buf, xml);
            }
            ShardMsg::ScatterAck {
                seq,
                capped,
                answers,
            } => {
                buf.push(TAG_SCATTER_ACK);
                put_u64(buf, *seq);
                buf.push(u8::from(*capped));
                put_u32(buf, answers.len() as u32);
                for answer in answers {
                    put_u64(buf, answer.sim_bits);
                    put_u32(buf, answer.id);
                    put_u32(buf, answer.scored);
                }
            }
            ShardMsg::Rejected {
                seq,
                offset,
                line,
                message,
            } => {
                buf.push(TAG_REJECTED);
                put_u64(buf, *seq);
                put_u64(buf, *offset);
                put_u64(buf, *line);
                put_str(buf, message);
            }
            ShardMsg::Error { message } => {
                buf.push(TAG_ERROR);
                put_str(buf, message);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let msg = Self::read(&mut r).ok().flatten();
        msg.filter(|_| r.is_exhausted())
    }
}

impl ShardMsg {
    /// Reads one message: `Ok(None)` for an unknown tag, or for a text
    /// field that is not UTF-8.
    fn read(r: &mut ByteReader<'_>) -> Result<Option<Self>, ByteError> {
        Ok(Some(match r.u8()? {
            TAG_HELLO => ShardMsg::Hello,
            TAG_HELLO_ACK => ShardMsg::HelloAck {
                digest: r.u64()?,
                k: r.u32()?,
                start: r.u32()?,
                end: r.u32()?,
            },
            TAG_SCATTER => {
                let seq = r.u64()?;
                let brute = r.bool()?;
                let Some(xml) = read_str(r)? else {
                    return Ok(None);
                };
                ShardMsg::Scatter { seq, brute, xml }
            }
            TAG_SCATTER_ACK => {
                let seq = r.u64()?;
                let capped = r.bool()?;
                let len = r.count(16)?;
                let mut answers = r.vec_for(len);
                for _ in 0..len {
                    answers.push(ShardAnswer {
                        sim_bits: r.u64()?,
                        id: r.u32()?,
                        scored: r.u32()?,
                    });
                }
                ShardMsg::ScatterAck {
                    seq,
                    capped,
                    answers,
                }
            }
            TAG_REJECTED => {
                let (seq, offset, line) = (r.u64()?, r.u64()?, r.u64()?);
                let Some(message) = read_str(r)? else {
                    return Ok(None);
                };
                ShardMsg::Rejected {
                    seq,
                    offset,
                    line,
                    message,
                }
            }
            TAG_ERROR => match read_str(r)? {
                Some(message) => ShardMsg::Error { message },
                None => return Ok(None),
            },
            _ => return Ok(None),
        }))
    }
}

/// State shared between the daemon's accept loop and its handlers.
struct DaemonShared {
    /// One shard over the served range.
    engine: Arc<ShardedEngine>,
    range: Range<u32>,
    digest: u64,
    shutdown: AtomicBool,
}

/// A running shard daemon: serves one contiguous representative range of a
/// trained model over framed TCP, answering each [`ShardMsg::Scatter`] with
/// the local argmax triples of the document's tuples, or its parse error.
///
/// Dropping the daemon shuts it down (flag + join); [`ShardDaemon::join`]
/// blocks the caller instead (the CLI's foreground mode).
pub struct ShardDaemon {
    addr: SocketAddr,
    shared: Arc<DaemonShared>,
    accept: Option<JoinHandle<()>>,
}

impl ShardDaemon {
    /// Binds `listen` and starts serving `range` of `model`.
    ///
    /// # Errors
    /// I/O errors from binding, plus `InvalidInput` when `range` is not a
    /// sub-range of `0..k`.
    pub fn start(
        model: Arc<TrainedModel>,
        range: Range<u32>,
        listen: &str,
    ) -> std::io::Result<Self> {
        let k = model.k() as u32;
        if range.start > range.end || range.end > k {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "range {}..{} is not a sub-range of 0..{k}",
                    range.start, range.end
                ),
            ));
        }
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let digest = snapshot_digest(&save_model(&model)).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "model snapshot digest unavailable",
            )
        })?;
        let shared = Arc::new(DaemonShared {
            engine: Arc::new(ShardedEngine::for_range(model, range.clone())),
            range: range.clone(),
            digest,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name(format!("cxk-shard-{}-{}", range.start, range.end))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The representative range this daemon serves.
    pub fn range(&self) -> Range<u32> {
        self.shared.range.clone()
    }

    /// Signals shutdown and waits for the accept loop and all connection
    /// handlers to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the daemon exits (it only does on [`shutdown`] from
    /// another handle or process death) — the CLI's foreground mode.
    ///
    /// [`shutdown`]: ShardDaemon::shutdown
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ShardDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<DaemonShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        // Reap finished handlers so a long-lived daemon facing redials
        // (failover drops connections by design) does not accumulate
        // handles and dead threads without bound.
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                let _ = handlers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                if let Ok(handle) = thread::Builder::new()
                    .name("cxk-shard-conn".into())
                    .spawn(move || handle_conn(stream, &conn_shared))
                {
                    handlers.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// One connection's serve loop: answer handshakes and scatters until
/// hangup or shutdown.
fn handle_conn(stream: TcpStream, shared: &DaemonShared) {
    // A failed fcntl means the socket is already dead; dropping the
    // connection (instead of panicking this handler thread) lets the
    // frontend's failover path take over.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let Ok(mut conn) = FramedConn::<ShardMsg>::new(stream) else {
        return;
    };
    // One session per connection, as one per worker in process.
    let mut classifier = ShardedClassifier::new(Arc::clone(&shared.engine));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // `recv_timeout` is resumable: a poll-interval timeout keeps any
        // partially received frame buffered on the connection, so looping
        // here is safe even while a large Scatter is dripping in.
        let request = match conn.recv_timeout(DAEMON_POLL) {
            Ok((request, _)) => request,
            Err(NetworkError::Timeout) => continue,
            Err(_) => return,
        };
        let reply = match request {
            ShardMsg::Hello => ShardMsg::HelloAck {
                digest: shared.digest,
                k: shared.engine.model().k() as u32,
                start: shared.range.start,
                end: shared.range.end,
            },
            ShardMsg::Scatter { seq, brute, xml } => {
                let read = if brute {
                    classifier.classify_brute(&xml)
                } else {
                    classifier.classify(&xml)
                };
                match read {
                    Ok(doc) => ShardMsg::ScatterAck {
                        seq,
                        capped: doc.capped,
                        answers: doc
                            .tuples
                            .iter()
                            .map(|tuple| ShardAnswer {
                                sim_bits: tuple.similarity.to_bits(),
                                id: tuple.cluster,
                                scored: tuple.candidates as u32,
                            })
                            .collect(),
                    },
                    Err(e) => ShardMsg::Rejected {
                        seq,
                        offset: e.offset as u64,
                        line: e.line as u64,
                        message: e.message,
                    },
                }
            }
            other => ShardMsg::Error {
                message: format!("unexpected request: {other:?}"),
            },
        };
        if conn.send(&reply).is_err() {
            return;
        }
    }
}

/// Per-shard network counters, cache-line separated like the in-process
/// shard counters.
#[repr(align(64))]
#[derive(Debug, Default)]
struct ShardNetCounters {
    requests: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    bytes: AtomicU64,
    rtt_micros: AtomicU64,
}

/// A point-in-time snapshot of one remote shard's counters, surfaced by
/// `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteShardStats {
    /// Replica addresses configured for this shard slot.
    pub replicas: usize,
    /// Successful scatter answers.
    pub requests: u64,
    /// Re-asks after a failure (every retry attempt, successful or not).
    pub retries: u64,
    /// Answers obtained from a different replica than first tried.
    pub failovers: u64,
    /// Frame bytes exchanged with this shard, both directions.
    pub bytes: u64,
    /// Accumulated scatter round-trip time, in microseconds.
    pub rtt_micros: u64,
}

/// The shared, immutable half of remote serving: the shard topology
/// (replica sets in ascending range order), the per-request deadline and
/// the per-shard counters. Lives outside the model epoch — counters and
/// topology survive hot reloads.
#[derive(Debug)]
pub struct RemoteEngine {
    shards: Vec<Vec<String>>,
    deadline: Duration,
    counters: Vec<ShardNetCounters>,
}

impl RemoteEngine {
    /// Builds the topology. `shards[i]` is shard slot `i`'s replica set —
    /// daemons that all serve the *same* representative range (validated
    /// at handshake time); slots must be configured in ascending range
    /// order (validated on first use).
    ///
    /// # Errors
    /// `InvalidInput` when `shards` is empty, a replica set is empty, or
    /// `deadline` is zero.
    pub fn new(shards: Vec<Vec<String>>, deadline: Duration) -> std::io::Result<Self> {
        if shards.is_empty() || shards.iter().any(Vec::is_empty) || deadline.is_zero() {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "remote layout needs at least one shard, a replica address for every shard and a non-zero deadline",
            ));
        }
        let counters = shards.iter().map(|_| ShardNetCounters::default()).collect();
        Ok(Self {
            shards,
            deadline,
            counters,
        })
    }

    /// Number of shard slots.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard request deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Snapshots every shard's counters.
    pub fn shard_stats(&self) -> Vec<RemoteShardStats> {
        self.shards
            .iter()
            .zip(&self.counters)
            .map(|(replicas, c)| RemoteShardStats {
                replicas: replicas.len(),
                requests: c.requests.load(Ordering::Relaxed),
                retries: c.retries.load(Ordering::Relaxed),
                failovers: c.failovers.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                rtt_micros: c.rtt_micros.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// One shard's reply to a scatter: whether the tuple cap truncated the
/// document and its per-tuple triples, or the document's parse error.
type ShardReply = Result<(bool, Vec<ShardAnswer>), XmlError>;

/// What every shard must agree on: the parse error, or whether the tuple
/// cap truncated the document and how many tuples it has.
fn shape(reply: &ShardReply) -> Result<(bool, usize), &XmlError> {
    reply
        .as_ref()
        .map(|(capped, answers)| (*capped, answers.len()))
}

/// The per-worker remote classify strategy: sends each document to every
/// shard daemon and gathers the per-range argmaxes under the unchanged
/// brute-force tie-break/trash rules.
///
/// Connections are dialed lazily and kept per shard slot; on failure the
/// classifier walks the slot's replica set (see the module docs for the
/// failover contract).
pub struct RemoteClassifier {
    engine: Arc<RemoteEngine>,
    model: Arc<TrainedModel>,
    /// Digest of the frontend's model snapshot; `None` when serialization
    /// failed, in which case the handshake refuses every replica rather
    /// than silently matching (a digest can't be fabricated as 0 on both
    /// sides).
    digest: Option<u64>,
    conns: Vec<Option<FramedConn<ShardMsg>>>,
    /// Replica index currently backing each slot's connection.
    cursor: Vec<usize>,
    /// Ranges learned from handshakes, validated for contiguity.
    ranges: Vec<Option<Range<u32>>>,
    coverage_ok: bool,
    /// Next scatter sequence number; echoed by daemons so a reply to an
    /// earlier, abandoned request can never be taken for the current one.
    next_seq: u64,
}

impl RemoteClassifier {
    /// Builds a classifier over the shared topology and model. Cheap: no
    /// connections are dialed until the first classify.
    pub fn new(engine: Arc<RemoteEngine>, model: Arc<TrainedModel>) -> Self {
        let digest = snapshot_digest(&save_model(&model));
        let shards = engine.shard_count();
        Self {
            engine,
            model,
            digest,
            conns: (0..shards).map(|_| None).collect(),
            cursor: vec![0; shards],
            ranges: vec![None; shards],
            coverage_ok: false,
            next_seq: 0,
        }
    }

    /// The shared topology.
    pub fn engine(&self) -> &Arc<RemoteEngine> {
        &self.engine
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Classifies one XML document, letting each daemon prune with its
    /// range index.
    ///
    /// # Errors
    /// [`ClassifyError::Xml`] when the daemons reject the document;
    /// [`ClassifyError::Network`] / [`ClassifyError::Remote`] when a shard's
    /// whole replica set failed or the shards read the document
    /// differently. The classifier stays usable either way.
    pub fn classify(&mut self, xml: &str) -> Result<DocumentAssignment, ClassifyError> {
        self.classify_impl(xml, true)
    }

    /// Classifies one XML document with every daemon scoring its whole
    /// range (the reference the indexed path must agree with).
    ///
    /// # Errors
    /// As [`RemoteClassifier::classify`].
    pub fn classify_brute(&mut self, xml: &str) -> Result<DocumentAssignment, ClassifyError> {
        self.classify_impl(xml, false)
    }

    fn classify_impl(
        &mut self,
        xml: &str,
        indexed: bool,
    ) -> Result<DocumentAssignment, ClassifyError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = ShardMsg::Scatter {
            seq,
            brute: !indexed,
            xml: xml.to_owned(),
        };
        let replies = self.scatter(&request, seq)?;
        if let Some(first) = replies.first().map(shape) {
            let mut shapes = replies.iter().map(shape).enumerate();
            if let Some((shard, other)) = shapes.find(|(_, s)| *s != first) {
                return Err(ClassifyError::Remote(format!(
                    "shards 0 and {shard} read the document differently: {first:?} vs {other:?}"
                )));
            }
        }
        // The shards agree, so the first rejection is every shard's.
        let mut capped = false;
        let mut per_shard = Vec::with_capacity(replies.len());
        for reply in replies {
            let (truncated, answers) = reply.map_err(ClassifyError::Xml)?;
            capped = truncated;
            per_shard.push(answers);
        }

        let k = self.model.k();
        let trash = k as u32;
        let n_tuples = per_shard.first().map_or(0, Vec::len);
        let assignments = (0..n_tuples)
            .map(|t| {
                let mut scored = 0usize;
                // Slots ascend by range (coverage-checked), so the
                // relocation rule keeps the lowest winning id — the
                // brute-force tie-break.
                let answers = per_shard.iter().filter_map(|answers| {
                    let answer = answers.get(t)?;
                    scored += answer.scored as usize;
                    Some((answer.id, f64::from_bits(answer.sim_bits)))
                });
                let (cluster, similarity) = gather_best(answers, trash);
                TupleAssignment {
                    cluster,
                    similarity,
                    candidates: scored,
                }
            })
            .collect();
        Ok(aggregate_document(k, assignments, capped))
    }

    /// Scatters `request` to every shard and collects one reply per slot,
    /// failing over within each slot's replica set.
    ///
    /// On an error return no connection is left with a reply in flight:
    /// any shard whose answer was never read has its connection dropped,
    /// so the next classify can never pair a stale reply with a new
    /// request (the `seq` echo guards the same hazard independently).
    fn scatter(&mut self, request: &ShardMsg, seq: u64) -> Result<Vec<ShardReply>, ClassifyError> {
        let shards = self.engine.shard_count();
        // Send to every shard before receiving from any, so daemons score
        // their ranges in parallel.
        let mut first_replica = Vec::with_capacity(shards);
        let mut pending: Vec<Option<Instant>> = Vec::with_capacity(shards);
        for shard in 0..shards {
            first_replica.push(self.cursor[shard]);
            let sent = self
                .dial_current(shard)
                .and_then(|()| self.send_request(shard, request));
            match sent {
                Ok(t0) => pending.push(Some(t0)),
                Err(_) => {
                    self.fail_shard(shard);
                    pending.push(None);
                }
            }
        }
        let result = self.gather(request, seq, &mut pending, &first_replica);
        if result.is_err() {
            for (shard, in_flight) in pending.iter().enumerate() {
                if in_flight.is_some() {
                    // Unread reply on the wire: the connection is not
                    // reusable for a fresh request.
                    self.conns[shard] = None;
                }
            }
        }
        result
    }

    /// The gather half of [`scatter`](RemoteClassifier::scatter): consumes
    /// `pending` entries (clearing each as its shard resolves) and fails
    /// over within each slot's replica set.
    fn gather(
        &mut self,
        request: &ShardMsg,
        seq: u64,
        pending: &mut [Option<Instant>],
        first_replica: &[usize],
    ) -> Result<Vec<ShardReply>, ClassifyError> {
        let shards = self.engine.shard_count();
        let mut results = Vec::with_capacity(shards);
        for shard in 0..shards {
            let reply = match pending[shard].take() {
                Some(t0) => match self.finish_recv(shard, t0, seq) {
                    Ok(reply) => reply,
                    Err(_) => {
                        self.fail_shard(shard);
                        self.retry_shard(shard, request, seq, first_replica[shard])?
                    }
                },
                None => self.retry_shard(shard, request, seq, first_replica[shard])?,
            };
            results.push(reply);
        }
        self.check_coverage()?;
        Ok(results)
    }

    /// Walks the slot's replica set once, re-asking until one answers.
    fn retry_shard(
        &mut self,
        shard: usize,
        request: &ShardMsg,
        seq: u64,
        first_replica: usize,
    ) -> Result<ShardReply, ClassifyError> {
        let replicas = self.engine.shards[shard].len();
        let mut last = ClassifyError::Network(NetworkError::Disconnected);
        for _ in 0..replicas {
            self.engine.counters[shard]
                .retries
                .fetch_add(1, Ordering::Relaxed);
            let attempt = self
                .dial_current(shard)
                .and_then(|()| self.send_request(shard, request))
                .and_then(|t0| self.finish_recv(shard, t0, seq));
            match attempt {
                Ok(reply) => {
                    if self.cursor[shard] != first_replica {
                        self.engine.counters[shard]
                            .failovers
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(reply);
                }
                Err(e) => {
                    last = e;
                    self.fail_shard(shard);
                }
            }
        }
        Err(last)
    }

    /// Drops the slot's connection and advances to the next replica.
    fn fail_shard(&mut self, shard: usize) {
        self.conns[shard] = None;
        let replicas = self.engine.shards[shard].len();
        self.cursor[shard] = (self.cursor[shard] + 1) % replicas;
    }

    /// Ensures a live, handshake-validated connection to the slot's
    /// current replica.
    fn dial_current(&mut self, shard: usize) -> Result<(), ClassifyError> {
        if self.conns[shard].is_some() {
            return Ok(());
        }
        let addr = self.engine.shards[shard][self.cursor[shard]].clone();
        let deadline = self.engine.deadline;
        let sock_addr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| {
                ClassifyError::Remote(format!("shard {shard}: unresolvable address {addr}"))
            })?;
        let stream = TcpStream::connect_timeout(&sock_addr, deadline).map_err(|e| {
            ClassifyError::Network(match e.kind() {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    NetworkError::Timeout
                }
                _ => NetworkError::Disconnected,
            })
        })?;
        let mut conn = FramedConn::new(stream)
            .map_err(|_| ClassifyError::Network(NetworkError::Disconnected))?;
        let sent = conn
            .send(&ShardMsg::Hello)
            .map_err(ClassifyError::Network)?;
        self.engine.counters[shard]
            .bytes
            .fetch_add(sent as u64, Ordering::Relaxed);
        let (reply, got) = conn
            .recv_timeout(deadline)
            .map_err(ClassifyError::Network)?;
        self.engine.counters[shard]
            .bytes
            .fetch_add(got as u64, Ordering::Relaxed);
        match reply {
            ShardMsg::HelloAck {
                digest,
                k,
                start,
                end,
            } => {
                let expected = self.digest.ok_or_else(|| {
                    ClassifyError::Remote(format!(
                        "shard {shard}: frontend model snapshot digest unavailable, \
                         cannot validate replica {addr}"
                    ))
                })?;
                if digest != expected {
                    return Err(ClassifyError::Remote(format!(
                        "shard {shard}: replica {addr} serves a different model snapshot \
                         (digest {digest:#018x}, frontend has {expected:#018x})"
                    )));
                }
                if k as usize != self.model.k() {
                    return Err(ClassifyError::Remote(format!(
                        "shard {shard}: replica {addr} has k = {k}, frontend has k = {}",
                        self.model.k()
                    )));
                }
                let range = start..end;
                if let Some(known) = &self.ranges[shard] {
                    if *known != range {
                        return Err(ClassifyError::Remote(format!(
                            "shard {shard}: replica {addr} serves {start}..{end} but its \
                             peers serve {}..{}",
                            known.start, known.end
                        )));
                    }
                } else {
                    self.ranges[shard] = Some(range);
                }
                self.conns[shard] = Some(conn);
                Ok(())
            }
            ShardMsg::Error { message } => {
                Err(ClassifyError::Remote(format!("shard {shard}: {message}")))
            }
            _ => Err(ClassifyError::Remote(format!(
                "shard {shard}: unexpected handshake reply"
            ))),
        }
    }

    /// Sends `request` on the slot's live connection, returning the send
    /// completion instant (the RTT clock's zero).
    fn send_request(&mut self, shard: usize, request: &ShardMsg) -> Result<Instant, ClassifyError> {
        // The caller dials before sending, so a missing connection means
        // it was torn down by a failed earlier exchange: surface it as a
        // disconnect so the failover path re-dials a replica.
        let Some(conn) = self.conns[shard].as_mut() else {
            return Err(ClassifyError::Network(NetworkError::Disconnected));
        };
        let sent = conn.send(request).map_err(ClassifyError::Network)?;
        self.engine.counters[shard]
            .bytes
            .fetch_add(sent as u64, Ordering::Relaxed);
        Ok(Instant::now())
    }

    /// Receives and validates one scatter reply within the deadline. A
    /// reply whose `seq` is not the current request's is a stale reply to
    /// an abandoned scatter — rejected, which drops the connection via the
    /// caller's failover path. A `Rejected` reply is an answer.
    fn finish_recv(
        &mut self,
        shard: usize,
        t0: Instant,
        seq: u64,
    ) -> Result<ShardReply, ClassifyError> {
        let deadline = self.engine.deadline;
        // Same contract as `send_request`: no live connection reads as a
        // disconnect, not a panic, so the worker thread survives.
        let Some(conn) = self.conns[shard].as_mut() else {
            return Err(ClassifyError::Network(NetworkError::Disconnected));
        };
        let (reply, got) = conn
            .recv_timeout(deadline)
            .map_err(ClassifyError::Network)?;
        let counters = &self.engine.counters[shard];
        counters.bytes.fetch_add(got as u64, Ordering::Relaxed);
        let answer = match reply {
            ShardMsg::ScatterAck {
                seq: got_seq,
                capped,
                answers,
            } if got_seq == seq => Ok((capped, answers)),
            ShardMsg::Rejected {
                seq: got_seq,
                offset,
                line,
                message,
            } if got_seq == seq => Err(XmlError {
                offset: offset as usize,
                line: line as usize,
                message,
            }),
            ShardMsg::ScatterAck { seq: got_seq, .. } | ShardMsg::Rejected { seq: got_seq, .. } => {
                return Err(ClassifyError::Remote(format!(
                    "shard {shard}: stale answer (seq {got_seq}, expected {seq})"
                )))
            }
            ShardMsg::Error { message } => {
                return Err(ClassifyError::Remote(format!("shard {shard}: {message}")))
            }
            _ => {
                return Err(ClassifyError::Remote(format!(
                    "shard {shard}: unexpected reply to scatter"
                )))
            }
        };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        counters
            .rtt_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(answer)
    }

    /// Validates, once, that the learned ranges are contiguous, ascending
    /// by slot, and cover exactly `0..k` — the preconditions the gather's
    /// tie-break correctness rests on.
    fn check_coverage(&mut self) -> Result<(), ClassifyError> {
        if self.coverage_ok {
            return Ok(());
        }
        let k = self.model.k() as u32;
        let mut next = 0u32;
        for (shard, range) in self.ranges.iter().enumerate() {
            let range = range.as_ref().ok_or_else(|| {
                ClassifyError::Remote(format!("shard {shard}: range never learned"))
            })?;
            if range.start != next {
                return Err(ClassifyError::Remote(format!(
                    "shard ranges are not contiguous: shard {shard} serves {}..{} but \
                     {next}.. was expected",
                    range.start, range.end
                )));
            }
            next = range.end;
        }
        if next != k {
            return Err(ClassifyError::Remote(format!(
                "shard ranges cover 0..{next} but the model has k = {k}"
            )));
        }
        self.coverage_ok = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(msg: &ShardMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn shard_messages_round_trip_and_malformed_frames_are_refused() {
        let messages = [
            ShardMsg::Hello,
            ShardMsg::HelloAck {
                digest: 42,
                k: 16,
                start: 4,
                end: 8,
            },
            ShardMsg::Scatter {
                seq: 7,
                brute: true,
                xml: "<dblp><title>épuisé</title></dblp>".to_string(),
            },
            ShardMsg::Scatter {
                seq: 8,
                brute: false,
                xml: String::new(),
            },
            ShardMsg::ScatterAck {
                seq: 7,
                capped: true,
                answers: vec![
                    ShardAnswer {
                        sim_bits: 0.25f64.to_bits(),
                        id: 3,
                        scored: 2,
                    },
                    ShardAnswer {
                        sim_bits: f64::MIN_POSITIVE.to_bits(),
                        id: 16,
                        scored: 0,
                    },
                ],
            },
            ShardMsg::ScatterAck {
                seq: 9,
                capped: false,
                answers: vec![],
            },
            ShardMsg::Rejected {
                seq: 7,
                offset: 13,
                line: 2,
                message: "unexpected end of input: <xml> is not closed".to_string(),
            },
            ShardMsg::Error {
                message: "épuisé".to_string(),
            },
        ];
        for msg in &messages {
            let bytes = encoded(msg);
            assert_eq!(ShardMsg::decode(&bytes).as_ref(), Some(msg));
            assert_eq!(ShardMsg::decode(&bytes[..bytes.len() - 1]), None, "{msg:?}");
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert_eq!(ShardMsg::decode(&trailing), None, "{msg:?}");
        }
        assert_eq!(ShardMsg::decode(&[9]), None, "unknown tag");
        let mut bad_bool = encoded(&messages[2]);
        bad_bool[9] = 2;
        assert_eq!(ShardMsg::decode(&bad_bool), None, "brute must be 0 or 1");
        let mut bad_capped = encoded(&messages[4]);
        bad_capped[9] = 2;
        assert_eq!(ShardMsg::decode(&bad_capped), None, "capped must be 0 or 1");
        let mut not_utf8 = encoded(&messages[2]);
        let last = not_utf8.len() - 1;
        not_utf8[last] = 0xFF;
        assert_eq!(ShardMsg::decode(&not_utf8), None, "the document is UTF-8");
        // The tuple-carrying scatter and its ack of the earlier protocol
        // (tags 2 and 3), here with zero tuples and zero answers.
        let mut old_scatter = vec![2];
        put_u64(&mut old_scatter, 7);
        old_scatter.push(0);
        put_u32(&mut old_scatter, 0);
        assert_eq!(ShardMsg::decode(&old_scatter), None, "old scatter");
        let mut old_ack = vec![3];
        put_u64(&mut old_ack, 7);
        put_u32(&mut old_ack, 0);
        assert_eq!(ShardMsg::decode(&old_ack), None, "old scatter ack");
    }

    #[test]
    fn a_scatter_declaring_u32_max_document_bytes_is_refused_at_its_count() {
        let mut frame = vec![TAG_SCATTER];
        put_u64(&mut frame, 7);
        frame.push(0);
        put_u32(&mut frame, u32::MAX);
        frame.extend_from_slice(&[0; 64]);
        assert_eq!(ShardMsg::decode(&frame), None);
        let e = ShardMsg::read(&mut ByteReader::new(&frame)).unwrap_err();
        assert_eq!(
            (e.offset, e.kind),
            (
                14,
                cxk_util::ByteErrorKind::CountExceedsInput(u32::MAX as usize)
            )
        );
    }

    #[test]
    fn new_rejects_unservable_topologies() {
        let one = || vec!["127.0.0.1:1".to_string()];
        for (shards, deadline, what) in [
            (vec![], DEFAULT_DEADLINE, "no shard"),
            (
                vec![one(), vec![]],
                DEFAULT_DEADLINE,
                "a shard with no replica",
            ),
            (vec![one()], Duration::ZERO, "a zero deadline"),
        ] {
            let err = RemoteEngine::new(shards, deadline).expect_err(what);
            assert_eq!(err.kind(), ErrorKind::InvalidInput, "{what}");
        }
        let engine = RemoteEngine::new(vec![one(), one()], DEFAULT_DEADLINE).expect("servable");
        assert_eq!(engine.shard_count(), 2);
    }
}
