//! An event-driven HTTP/1.1 classification server with keep-alive,
//! pipelining, bounded backpressure and hot model reload.
//!
//! No external dependencies: a single **acceptor thread** runs a
//! readiness loop over an epoll-backed poller (the workspace's `mio`
//! stand-in), owning the non-blocking listener and every live
//! connection. Connections are plain state machines (`conn` module):
//! reads and writes are buffered and never block, partial requests
//! accumulate across readiness events, and several pipelined requests
//! may arrive in one segment — responses always return in request order.
//! Connections are **keep-alive by default** (HTTP/1.1 semantics;
//! `Connection: close` and HTTP/1.0 are honored per request).
//!
//! Engine-bound work (`POST /classify`, `POST /reload`) flows through a
//! **bounded queue** (`queue` module) to a fixed pool of worker threads;
//! when the queue is full the acceptor sheds the request *immediately*
//! with `503 Service Unavailable` + `Retry-After` instead of accepting
//! unbounded work. Read-only endpoints (`GET /model`, `GET /stats`)
//! answer inline from shared state, so diagnostics stay responsive even
//! while the queue is jammed. Each worker owns its **own**
//! [`ClassifyEngine`] — a session over the one immutable engine the live
//! epoch publishes for [`ServeOptions::layout`] (see the `slot` module) —
//! so request handling is lock-free and resident index memory is per
//! epoch, not per worker (the session needs `&mut self` because its
//! interners grow with unseen markup — per the `classify` module docs that
//! growth never changes scores). Workers hand rendered responses back to
//! the acceptor over a channel paired with a poller [`Waker`].
//!
//! The model is *not* fixed for the server's lifetime: all workers share
//! a [`ModelSlot`] (see the `slot` module); a worker drops its session
//! when it observes a newer epoch and builds the next one on its next
//! classify job (a reload job builds none), so a freshly trained
//! `.cxkmodel` swaps in without dropping a single request — including
//! requests pipelined on connections that stay open across the swap.
//! Three surfaces drive it: `POST /reload`, an opt-in mtime poller
//! ([`ServeOptions::watch`]), and the [`Server::reload`] library API
//! that `cxk_stream`'s periodic retrain feeds directly.
//!
//! Endpoints (responses are JSON and every response carries the
//! answering worker's model epoch in an `X-Model-Epoch` header plus an
//! explicit `Connection:` disposition and `Content-Length` framing):
//!
//! * `POST /classify` — body: one XML document, **or** a JSON array of
//!   XML document strings (batch classification, amortizing parse
//!   overhead for bulk scoring). A single document answers `200` with
//!   its cluster, score and per-tuple assignments (`400` on malformed
//!   XML); a batch answers `200` with a JSON array holding one
//!   assignment object — or a per-document `{"error": …}` object — per
//!   input, in order. A whole request is answered against one epoch,
//!   never a mix.
//! * `POST /reload` — body: the path to a `.cxkmodel` snapshot, or empty
//!   to re-read the path the server was started from. The snapshot's
//!   magic, format version and checksum are validated *before* the swap;
//!   an incompatible or corrupt snapshot answers `409 Conflict` and the
//!   live model is untouched. Success answers `200` with the new epoch.
//! * `GET /model` — model metadata (epoch, k, parameters, sizes).
//! * `GET /stats` — server counters (connections, requests,
//!   classifications, errors, worker panics, reloads, shed requests,
//!   reused connections, queue depth/length, trash rate) and the live epoch's
//!   engine: its layout, resident posting entries, and per-shard or tree
//!   statistics.
//!
//! The protocol subset is deliberately tiny: request line + headers,
//! `Content-Length` bodies only. Framing hygiene is strict — duplicate
//! or non-digit `Content-Length` headers are rejected outright and
//! `Transfer-Encoding` answers `501` rather than being guessed at
//! (request-smuggling hygiene); a declared body over
//! [`ServeOptions::max_body_bytes`] answers `413` without allocating,
//! and a head that never terminates within
//! [`ServeOptions::max_head_bytes`] answers `431` instead of buffering
//! forever. See `ARCHITECTURE.md` § "Async serving core" for the
//! connection state machine and the backpressure contract.
//!
//! **Trust boundary:** the server has no authentication, and
//! `POST /reload` in particular reads a server-side filesystem path named
//! by the client (the error text reveals whether that path was readable).
//! Expose it only to trusted clients — the CLI binds `127.0.0.1`
//! exclusively; a [`Server::start`] on a wider address must sit behind a
//! trusted network or proxy.

mod acceptor;
mod conn;
mod queue;

use crate::classify::{ClassifyEngine, ClassifyError, DocumentAssignment};
use crate::slot::{Layout, ModelSlot};
use conn::{Limits, Request};
use cxk_core::{
    load_model, peek_format_version, snapshot_digest, TrainedModel, MODEL_FORMAT_VERSION,
};
use cxk_p2p::NetworkError;
use cxk_util::json::{self, Value};
use cxk_util::LogHistogram;
use mio::{Interest, Poll, Waker};
use queue::BoundedQueue;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the file watcher wakes to check the shutdown flag; the
/// configured watch interval is quantized to multiples of this.
const WATCH_TICK: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads (each with its own classify session). Clamped to
    /// ≥ 1.
    pub threads: usize,
    /// Stall budget per connection: a request head or body that stops
    /// arriving for this long answers `408` and closes; a peer that
    /// stops reading its responses for this long is dropped. (With the
    /// event-driven transport a slow client pins a buffer, never a
    /// thread — this bounds the buffer's lifetime.)
    pub io_timeout: Duration,
    /// How classification is executed: the engine every epoch publishes
    /// for the whole worker pool. Defaults to one shared index
    /// ([`Layout::Indexed`] with one shard).
    pub layout: Layout,
    /// The snapshot path behind the model, if it came from disk: the
    /// default `POST /reload` target and the file the watcher polls.
    pub model_path: Option<PathBuf>,
    /// Poll `model_path` at this interval and hot-swap the snapshot when
    /// its mtime (and content digest) change. Requires `model_path`.
    pub watch: Option<Duration>,
    /// Depth of the bounded request queue between the acceptor and the
    /// worker pool (`cxk serve --queue-depth <n>`). When the queue is
    /// full, further classify/reload requests are shed with
    /// `503` + `Retry-After: 1` instead of queuing without bound.
    /// Clamped to ≥ 1.
    pub queue_depth: usize,
    /// How long an idle keep-alive connection may sit between requests
    /// before the server closes it (`cxk serve --keep-alive <secs>`).
    /// `None` disables keep-alive entirely: every response closes its
    /// connection, and idle sockets are reaped after `io_timeout`.
    pub keep_alive: Option<Duration>,
    /// Upper bound on a request's declared `Content-Length`; a larger
    /// declaration answers `413` without allocating anything.
    pub max_body_bytes: u64,
    /// Upper bound on the request line plus all headers; a head that
    /// has not terminated within this budget answers `431`.
    pub max_head_bytes: usize,
    /// Test-only knob: stall every worker this long per request, making
    /// the bounded queue observably fill under a driven load. Not a
    /// serving feature.
    #[doc(hidden)]
    pub worker_delay: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            threads: 4,
            io_timeout: Duration::from_secs(10),
            layout: Layout::default(),
            model_path: None,
            watch: None,
            queue_depth: 256,
            keep_alive: Some(Duration::from_secs(30)),
            max_body_bytes: 64 << 20,
            max_head_bytes: 16 << 10,
            worker_delay: None,
        }
    }
}

/// Monotonic server counters, shared by the acceptor and all workers.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (a keep-alive connection counts once no
    /// matter how many requests it carries).
    pub connections: AtomicU64,
    /// HTTP requests successfully parsed (head + body). Malformed or
    /// timed-out connections count in `connections` and `errors` only.
    pub requests: AtomicU64,
    /// Successful classifications.
    pub classified: AtomicU64,
    /// Classifications that landed in the trash cluster.
    pub trash: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Requests whose handling panicked: answered `500` (also counted in
    /// `errors`), after which the worker dropped its session and lived on.
    pub worker_panics: AtomicU64,
    /// Successful model swaps (any surface: endpoint, watcher, library).
    pub reloads: AtomicU64,
    /// Rejected swap attempts (unreadable, corrupt or incompatible
    /// snapshots); the live model was untouched.
    pub reload_errors: AtomicU64,
    /// Requests shed with `503` because the bounded queue was full
    /// (also counted in `errors`).
    pub rejected: AtomicU64,
    /// Connections that served a second request — keep-alive reuse
    /// actually happening, not just being offered.
    pub reused: AtomicU64,
    /// Successful classifications whose tree-tuple enumeration hit
    /// `TupleLimits::max_tuples_per_tree` — the answer was computed on a
    /// truncated tuple set (also flagged per response as `"capped"`).
    pub capped: AtomicU64,
    /// Service time of every engine-bound request (classify and reload),
    /// in microseconds from dequeue to rendered response — queue wait
    /// excluded, so open-loop client latency minus this is scheduling
    /// plus transport. Drives the `service_p*_micros` fields of
    /// `GET /stats`.
    pub service_hist: LogHistogram,
    /// Classify sessions the workers built.
    #[cfg(test)]
    sessions_built: AtomicU64,
}

/// A point-in-time copy of the counters plus the live model epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// HTTP requests successfully parsed.
    pub requests: u64,
    /// Successful classifications.
    pub classified: u64,
    /// Classifications that landed in the trash cluster.
    pub trash: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Requests whose handling panicked (answered `500`).
    pub worker_panics: u64,
    /// Successful model swaps.
    pub reloads: u64,
    /// Rejected swap attempts.
    pub reload_errors: u64,
    /// Requests shed with `503` by the bounded queue.
    pub rejected: u64,
    /// Connections that served a second request (keep-alive reuse).
    pub reused: u64,
    /// Classifications answered from a truncated (capped) tuple set.
    pub capped: u64,
    /// Median service time of engine-bound requests, in microseconds.
    pub service_p50_micros: u64,
    /// 99th-percentile service time, in microseconds.
    pub service_p99_micros: u64,
    /// 99.9th-percentile service time, in microseconds.
    pub service_p999_micros: u64,
    /// The live model epoch (1 = the boot model).
    pub epoch: u64,
}

/// One engine-bound request traveling the bounded queue.
pub(crate) struct Job {
    /// The connection's slab index in the acceptor.
    pub token: usize,
    /// Slot-reuse guard: must match the connection's generation for the
    /// completion to be delivered.
    pub generation: u64,
    pub request: Request,
}

/// A rendered response traveling back from a worker.
pub(crate) struct Completion {
    pub token: usize,
    pub generation: u64,
    pub bytes: Vec<u8>,
    /// Close the connection after flushing (the request asked to).
    pub close: bool,
}

/// A running classification server.
pub struct Server {
    addr: SocketAddr,
    slot: Arc<ModelSlot>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    waker: Arc<Waker>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

/// Everything a worker needs besides its own classify session.
struct WorkerCtx {
    slot: Arc<ModelSlot>,
    stats: Arc<ServerStats>,
    model_path: Option<PathBuf>,
}

impl Server {
    /// Binds `addr` (e.g. `("127.0.0.1", 0)` for an ephemeral port) and
    /// starts the acceptor's readiness loop plus `opts.threads` workers;
    /// `model` becomes epoch 1, served through `opts.layout`. With
    /// `opts.watch` (and a `model_path`) a poller thread hot-swaps the
    /// snapshot whenever the file changes on disk.
    ///
    /// # Errors
    /// `InvalidInput` for a layout [`ModelSlot::new`] rejects; otherwise
    /// the bind error, or the poller setup error.
    pub fn start(
        model: TrainedModel,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let slot = Arc::new(ModelSlot::new(model, opts.layout)?);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let threads = opts.threads.max(1);

        let poll = Poll::new()?;
        poll.registry()
            .register(&listener, acceptor::LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(poll.registry(), acceptor::WAKER)?);

        let queue = Arc::new(BoundedQueue::<Job>::new(opts.queue_depth));
        let (completion_tx, completion_rx) = std::sync::mpsc::channel::<Completion>();

        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let ctx = WorkerCtx {
                slot: Arc::clone(&slot),
                stats: Arc::clone(&stats),
                model_path: opts.model_path.clone(),
            };
            let queue = Arc::clone(&queue);
            let tx = completion_tx.clone();
            let waker = Arc::clone(&waker);
            let delay = opts.worker_delay;
            workers.push(std::thread::spawn(move || {
                worker_loop(ctx, &queue, &tx, &waker, delay)
            }));
        }
        drop(completion_tx);

        let acceptor = {
            let ctx = acceptor::Acceptor {
                listener,
                poll,
                completions: completion_rx,
                queue: Arc::clone(&queue),
                slot: Arc::clone(&slot),
                stats: Arc::clone(&stats),
                shutdown: Arc::clone(&shutdown),
                limits: Limits {
                    max_head: opts.max_head_bytes,
                    max_body: opts.max_body_bytes,
                },
                force_close: opts.keep_alive.is_none(),
                idle_horizon: opts.keep_alive.unwrap_or(opts.io_timeout),
                io_timeout: opts.io_timeout.max(Duration::from_millis(1)),
            };
            std::thread::spawn(move || acceptor::run(ctx))
        };

        let watcher = match (opts.watch, &opts.model_path) {
            (Some(interval), Some(path)) => Some(spawn_watcher(
                Arc::clone(&slot),
                Arc::clone(&stats),
                Arc::clone(&shutdown),
                path.clone(),
                interval,
            )),
            _ => None,
        };

        Ok(Server {
            addr,
            slot,
            shutdown,
            stats,
            waker,
            acceptor: Some(acceptor),
            workers,
            watcher,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live model epoch (1 = the model the server started with).
    pub fn epoch(&self) -> u64 {
        self.slot.epoch()
    }

    /// Atomically swaps `model` into the running worker pool and returns
    /// the new epoch — the library surface of hot reload, built for
    /// `cxk_stream`-style periodic retrains
    /// (`Engine::fit → FitOutcome::into_model → Server::reload`). In-flight
    /// requests finish on the previous model; each worker picks the new
    /// one up before its next request.
    pub fn reload(&self, model: TrainedModel) -> u64 {
        let epoch = self.slot.swap(model);
        self.stats.reloads.fetch_add(1, Ordering::Relaxed);
        epoch
    }

    /// A snapshot of the counters and the live epoch.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.stats.connections.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            classified: self.stats.classified.load(Ordering::Relaxed),
            trash: self.stats.trash.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            worker_panics: self.stats.worker_panics.load(Ordering::Relaxed),
            reloads: self.stats.reloads.load(Ordering::Relaxed),
            reload_errors: self.stats.reload_errors.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            reused: self.stats.reused.load(Ordering::Relaxed),
            capped: self.stats.capped.load(Ordering::Relaxed),
            service_p50_micros: self.stats.service_hist.percentile(0.5),
            service_p99_micros: self.stats.service_hist.percentile(0.99),
            service_p999_micros: self.stats.service_hist.percentile(0.999),
            epoch: self.slot.epoch(),
        }
    }

    /// Blocks until the server shuts down (for a foreground `cxk serve`).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Stops accepting, drains in-flight work and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // The acceptor closes the queue on exit; workers drain whatever
        // is already queued and stop. The watcher polls the flag.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: a dropped (not shut down) server stops accepting.
        // (The watcher polls the same flag and exits within a tick.)
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
    }
}

/// A worker's classify session: the epoch it serves and its engine over
/// that epoch.
type Session = (u64, ClassifyEngine);

/// A worker: pull jobs from the bounded queue, keep its session on the
/// live epoch, render complete responses and hand them back to the
/// acceptor (channel + waker). The session is built by the first classify
/// job of an epoch and dropped as soon as the live epoch moves on, so a
/// reload job builds nothing and a worker never pins a replaced model. A
/// job that panics is answered `500` and counted, and the worker goes on
/// without a session. Exits when the queue closes.
fn worker_loop(
    ctx: WorkerCtx,
    queue: &BoundedQueue<Job>,
    completions: &std::sync::mpsc::Sender<Completion>,
    waker: &Waker,
    delay: Option<Duration>,
) {
    let mut session: Option<Session> = None;
    while let Some(job) = queue.pop() {
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        let started = Instant::now();
        // Unwind safe: a panic discards the session, the only state a job
        // mutates besides atomics and the slot's poison-tolerant mutex.
        let answered = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Hot reload: observe a newer epoch *between* requests, so
            // in-flight work always finishes on the model it started with
            // and no lock is held while classifying. Dropping the stale
            // session releases the old epoch; the next classify job builds
            // a cheap session over the new epoch's engine, which was built
            // once, at swap time.
            if session
                .as_ref()
                .is_some_and(|(epoch, _)| *epoch != ctx.slot.epoch())
            {
                session = None;
            }
            handle_request(&job.request, &mut session, &ctx)
        }));
        let (status, epoch, body) = answered.unwrap_or_else(|_| {
            ctx.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
            session = None;
            let body = r#"{"error":"the request's handler panicked"}"#;
            (500, ctx.slot.epoch(), body.to_string())
        });
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        ctx.stats.service_hist.record(micros);
        let bytes = conn::render_response(status, epoch, &body, job.request.close, None);
        let delivered = completions
            .send(Completion {
                token: job.token,
                generation: job.generation,
                bytes,
                close: job.request.close,
            })
            .is_ok();
        if !delivered {
            // The acceptor is gone; the queue is closing underneath us.
            break;
        }
        let _ = waker.wake();
    }
}

/// HTTP status for a classify failure: the client's document is at fault
/// (`400`), or the serving fabric is — a remote shard's whole replica set
/// timed out (`504`) or failed some other way (`502`).
fn classify_error_status(e: &ClassifyError) -> u16 {
    match e {
        ClassifyError::Xml(_) => 400,
        ClassifyError::Network(NetworkError::Timeout) => 504,
        ClassifyError::Network(_) | ClassifyError::Remote(_) => 502,
    }
}

/// Answers one engine-bound request. Returns `(status, epoch-for-header,
/// body)`: a classification reports the epoch of the session it ran on
/// (built here when the worker has none), a reload success the *new*
/// epoch it just installed, and anything else the live epoch.
fn handle_request(
    request: &Request,
    session: &mut Option<Session>,
    ctx: &WorkerCtx,
) -> (u16, u64, String) {
    #[cfg(test)]
    tests::inject_fault(request);
    let stats = &*ctx.stats;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/classify") => {
            let (epoch, engine) = session.get_or_insert_with(|| {
                #[cfg(test)]
                stats.sessions_built.fetch_add(1, Ordering::Relaxed);
                let current = ctx.slot.current();
                (current.epoch, ClassifyEngine::for_epoch(&current))
            });
            let epoch = *epoch;
            let Ok(body) = std::str::from_utf8(&request.body) else {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return (400, epoch, r#"{"error":"body is not UTF-8"}"#.to_string());
            };
            // A leading `[` cannot start well-formed XML, so it reliably
            // selects the batch form: a JSON array of XML document strings.
            if body.trim_start().starts_with('[') {
                let docs = match batch_documents(body) {
                    Ok(docs) => docs,
                    Err(message) => {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        let body = format!(r#"{{"error":"{}"}}"#, json::escape(&message));
                        return (400, epoch, body);
                    }
                };
                let entries: Vec<String> = docs
                    .iter()
                    .map(|xml| match engine.classify(xml) {
                        Ok(report) => {
                            stats.classified.fetch_add(1, Ordering::Relaxed);
                            if report.cluster == engine.trash_id() {
                                stats.trash.fetch_add(1, Ordering::Relaxed);
                            }
                            if report.capped {
                                stats.capped.fetch_add(1, Ordering::Relaxed);
                            }
                            assignment_json(&report, engine.trash_id())
                        }
                        Err(e) => {
                            stats.errors.fetch_add(1, Ordering::Relaxed);
                            format!(r#"{{"error":"{}"}}"#, json::escape(&e.to_string()))
                        }
                    })
                    .collect();
                return (200, epoch, format!("[{}]", entries.join(",")));
            }
            match engine.classify(body) {
                Ok(report) => {
                    stats.classified.fetch_add(1, Ordering::Relaxed);
                    if report.cluster == engine.trash_id() {
                        stats.trash.fetch_add(1, Ordering::Relaxed);
                    }
                    if report.capped {
                        stats.capped.fetch_add(1, Ordering::Relaxed);
                    }
                    (200, epoch, assignment_json(&report, engine.trash_id()))
                }
                Err(e) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let body = format!(r#"{{"error":"{}"}}"#, json::escape(&e.to_string()));
                    (classify_error_status(&e), epoch, body)
                }
            }
        }
        ("POST", "/reload") => {
            let epoch = ctx.slot.epoch();
            let Ok(target) = std::str::from_utf8(&request.body) else {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return (
                    400,
                    epoch,
                    r#"{"error":"body is not UTF-8 (expected a snapshot path, or empty)"}"#
                        .to_string(),
                );
            };
            let target = target.trim();
            let path = if target.is_empty() {
                ctx.model_path.clone()
            } else {
                Some(PathBuf::from(target))
            };
            let Some(path) = path else {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return (
                    400,
                    epoch,
                    r#"{"error":"no snapshot path: the server was started from an in-memory model; POST the path to a .cxkmodel in the body"}"#.to_string(),
                );
            };
            match load_snapshot(&path) {
                Ok(model) => {
                    let new_epoch = ctx.slot.swap(model);
                    // The swap made this worker's session stale: release
                    // the old epoch now rather than at the next job.
                    *session = None;
                    stats.reloads.fetch_add(1, Ordering::Relaxed);
                    let body = format!(
                        r#"{{"reloaded":true,"epoch":{new_epoch},"path":"{}"}}"#,
                        json::escape(&path.display().to_string())
                    );
                    (200, new_epoch, body)
                }
                Err(message) => {
                    // The snapshot failed validation (or could not be
                    // read): conflict with the live model, which stays.
                    stats.reload_errors.fetch_add(1, Ordering::Relaxed);
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let body = format!(r#"{{"error":"{}"}}"#, json::escape(&message));
                    (409, epoch, body)
                }
            }
        }
        // The acceptor answers GETs and unknown routes inline; reaching
        // here would be a routing bug, but answer validly regardless.
        _ => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            (
                404,
                ctx.slot.epoch(),
                r#"{"error":"no such endpoint (POST /classify, POST /reload, GET /model, GET /stats)"}"#.to_string(),
            )
        }
    }
}

/// Validates `bytes` as a snapshot and decodes it. The magic, format
/// version and checksum are all verified (plus the internal id
/// consistency `load_model` enforces) *before* any swap, so a bad
/// snapshot can never disturb the live model. `path` only labels errors.
fn load_snapshot_bytes(bytes: &[u8], path: &Path) -> Result<TrainedModel, String> {
    match peek_format_version(bytes) {
        Some(MODEL_FORMAT_VERSION) => {}
        Some(version) => {
            return Err(format!(
                "{}: incompatible snapshot format version {version} (this server speaks {MODEL_FORMAT_VERSION})",
                path.display()
            ))
        }
        None => return Err(format!("{}: not a .cxkmodel snapshot", path.display())),
    }
    load_model(bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads, validates and decodes the snapshot at `path`.
fn load_snapshot(path: &Path) -> Result<TrainedModel, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    load_snapshot_bytes(&bytes, path)
}

/// The opt-in mtime poller: every `interval`, stat `path`; when the mtime
/// moves *and* the trailing content digest actually differs, validate and
/// swap the snapshot in. Rejected snapshots are counted and logged to
/// stderr; the live model is untouched, and — because `last_mtime` is
/// only committed on a skip or a successful swap — the file is re-tried
/// every interval until a valid snapshot appears. That is what makes a
/// *torn read* of a non-atomic overwrite safe even on filesystems with
/// coarse mtime granularity: the half-written bytes fail the checksum,
/// nothing is committed, and the completed write is picked up on a later
/// poll whether or not it lands in the same timestamp unit.
fn spawn_watcher(
    slot: Arc<ModelSlot>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    path: PathBuf,
    interval: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let modified = |path: &Path| std::fs::metadata(path).and_then(|m| m.modified()).ok();
        let mut last_mtime = modified(&path);
        // The boot model came from this path moments ago; its digest is
        // read once so an immediate identical rewrite is not re-loaded.
        let mut last_digest = std::fs::read(&path)
            .ok()
            .as_deref()
            .and_then(snapshot_digest);
        let mut waited = Duration::ZERO;
        while !shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(WATCH_TICK);
            waited += WATCH_TICK;
            if waited < interval {
                continue;
            }
            waited = Duration::ZERO;
            let mtime = modified(&path);
            if mtime == last_mtime {
                continue;
            }
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    // Transient (mid-rename, NFS hiccup): retry next poll.
                    stats.reload_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("cxk: watch: cannot read {}: {e}", path.display());
                    continue;
                }
            };
            // A touch that did not change the contents (same trailing
            // digest) is not a new model; skip the swap and the rebuilds
            // it would trigger in every worker.
            let digest = snapshot_digest(&bytes);
            if digest.is_some() && digest == last_digest {
                last_mtime = mtime;
                continue;
            }
            // Validate the very bytes that were read — one read per poll,
            // and the digest recorded below always describes the model
            // that actually went live.
            match load_snapshot_bytes(&bytes, &path) {
                Ok(model) => {
                    let epoch = slot.swap(model);
                    stats.reloads.fetch_add(1, Ordering::Relaxed);
                    last_mtime = mtime;
                    last_digest = digest;
                    eprintln!("cxk: watch: reloaded {} as epoch {epoch}", path.display());
                }
                Err(message) => {
                    stats.reload_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("cxk: watch: keeping the live model: {message}");
                }
            }
        }
    })
}

/// The batch `POST /classify` body: a JSON array of XML document
/// strings. Anything else is an error naming the byte offset or entry.
fn batch_documents(body: &str) -> Result<Vec<String>, String> {
    let Value::Arr(entries) = json::parse(body).map_err(|e| e.to_string())? else {
        return Err("batch body must be a JSON array".to_string());
    };
    entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| match entry {
            Value::Str(xml) => Ok(xml),
            _ => Err(format!("batch entry {i} is not a string")),
        })
        .collect()
}

/// Renders a [`DocumentAssignment`] as the canonical JSON object the
/// server answers with (`cluster`, `trash`, `score`, `tuples: [...]`).
/// Shared with the CLI's `--jsonl` output so both surfaces speak one
/// format.
pub fn assignment_json(report: &DocumentAssignment, trash_id: u32) -> String {
    let tuples: Vec<String> = report
        .tuples
        .iter()
        .map(|t| {
            format!(
                r#"{{"cluster":{},"trash":{},"similarity":{},"candidates":{}}}"#,
                t.cluster,
                t.cluster == trash_id,
                t.similarity,
                t.candidates
            )
        })
        .collect();
    format!(
        r#"{{"cluster":{},"trash":{},"capped":{},"score":{},"tuples":[{}]}}"#,
        report.cluster,
        report.cluster == trash_id,
        report.capped,
        report.score,
        tuples.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::TupleAssignment;
    use cxk_core::{save_model_file, CxkConfig, EngineBuilder};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
    use std::io::{Read, Write};

    /// The request body that makes [`inject_fault`] panic.
    const FAULT: &[u8] = b"inject a worker panic";

    /// The fault path of this unit-test build: a request whose body is
    /// [`FAULT`] panics inside `handle_request`.
    pub(super) fn inject_fault(request: &Request) {
        if request.body == FAULT {
            panic!("injected worker fault");
        }
    }

    /// One request on a fresh connection; returns the whole response.
    fn request(addr: SocketAddr, method_path: &str, body: &[u8]) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        // A dead worker must fail the test, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let head = format!(
            "{method_path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    /// The document the one-worker servers below classify.
    const DOC: &str = r#"<dblp><article key="m1"><author>A. Miner</author><title>mining clustering patterns</title></article></dblp>"#;

    /// A one-worker server over a k = 1 model of [`DOC`].
    fn one_worker_server() -> (Server, TrainedModel) {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        builder.add_xml(DOC).unwrap();
        let ds = builder.finish();
        let mut config = CxkConfig::new(1);
        config.params = SimParams::new(0.5, 0.5);
        let model = EngineBuilder::from_cxk_config(&config)
            .build()
            .unwrap()
            .fit(&ds)
            .unwrap()
            .into_model(&ds, BuildOptions::default());
        let options = ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        };
        let server = Server::start(model.clone(), ("127.0.0.1", 0), options).unwrap();
        (server, model)
    }

    #[test]
    fn a_panicking_request_is_answered_and_its_worker_survives() {
        let doc = DOC;
        let (server, _) = one_worker_server();

        let response = request(server.addr(), "POST /classify", FAULT);
        assert!(response.starts_with("HTTP/1.1 500"), "{response}");
        assert!(response.contains(r#""error":"#), "{response}");
        // The only worker answers the next request.
        let response = request(server.addr(), "POST /classify", doc.as_bytes());
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let response = request(server.addr(), "GET /stats", b"");
        assert!(response.contains(r#""worker_panics":1,"#), "{response}");

        let stats = server.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.classified, 1);
        server.shutdown();
    }

    #[test]
    fn a_reload_job_builds_no_session() {
        let (server, model) = one_worker_server();
        let path = std::env::temp_dir().join(format!(
            "cxk-http-reload-session-{}.cxkmodel",
            std::process::id()
        ));
        save_model_file(&model, &path).unwrap();
        let target = path.to_str().unwrap().as_bytes();
        for epoch in [2, 3] {
            let response = request(server.addr(), "POST /reload", target);
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            assert!(response.contains(&format!("X-Model-Epoch: {epoch}\r\n")));
        }
        let response = request(server.addr(), "POST /classify", DOC.as_bytes());
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("X-Model-Epoch: 3\r\n"), "{response}");
        // The two reloads built nothing; the classify built one session,
        // over the newest epoch.
        assert_eq!(server.stats.sessions_built.load(Ordering::Relaxed), 1);

        // A failed reload names the live epoch.
        let _ = std::fs::remove_file(&path);
        let response = request(server.addr(), "POST /reload", target);
        assert!(response.starts_with("HTTP/1.1 409"), "{response}");
        assert!(response.contains("X-Model-Epoch: 3\r\n"), "{response}");
        assert_eq!(server.stats.sessions_built.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn json_string_array_parses_the_batch_body() {
        assert_eq!(
            batch_documents(r#"["<a/>", "<b/>"]"#).unwrap(),
            vec!["<a/>".to_string(), "<b/>".to_string()]
        );
        assert_eq!(batch_documents("[]").unwrap(), Vec::<String>::new());
        assert_eq!(
            batch_documents(r#"  [ "x" ]  "#).unwrap(),
            vec!["x".to_string()]
        );
        // Escapes, including \uXXXX and a surrogate pair.
        assert_eq!(
            batch_documents(r#"["a\"b\\c\n\té😀"]"#).unwrap(),
            vec!["a\"b\\c\n\t\u{e9}\u{1F600}".to_string()]
        );
        assert_eq!(
            batch_documents(r#"["\u00e9 \ud83d\ude00"]"#).unwrap(),
            vec!["\u{e9} \u{1F600}".to_string()]
        );
    }

    #[test]
    fn json_string_array_rejects_malformed_bodies() {
        for bad in [
            "",
            "[",
            "[1, 2]",
            r#"["a""#,
            r#"["a",]"#,
            r#"["a"] trailing"#,
            r#"["bad \q escape"]"#,
            "\"not an array\"",
        ] {
            assert!(batch_documents(bad).is_err(), "must reject: {bad:?}");
        }
        // A lone surrogate decodes to the replacement character rather
        // than corrupting the string.
        let lone = batch_documents(r#"["\ud83dx"]"#).unwrap();
        assert_eq!(lone, vec!["\u{FFFD}x".to_string()]);
    }

    #[test]
    fn assignment_json_shape() {
        let report = DocumentAssignment {
            cluster: 1,
            score: 0.5,
            tuples: vec![TupleAssignment {
                cluster: 1,
                similarity: 0.5,
                candidates: 2,
            }],
            capped: false,
        };
        let json = assignment_json(&report, 4);
        assert_eq!(
            json,
            r#"{"cluster":1,"trash":false,"capped":false,"score":0.5,"tuples":[{"cluster":1,"trash":false,"similarity":0.5,"candidates":2}]}"#
        );
        let trash = DocumentAssignment {
            cluster: 4,
            score: 0.0,
            tuples: Vec::new(),
            capped: true,
        };
        let trash_json = assignment_json(&trash, 4);
        assert!(trash_json.contains(r#""trash":true"#));
        assert!(trash_json.contains(r#""capped":true"#));
    }
}
