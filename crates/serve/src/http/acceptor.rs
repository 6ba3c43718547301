//! The readiness loop: one thread owning the non-blocking listener and
//! every live [`Conn`], driven by the `mio` poller.
//!
//! Responsibilities, in the order each loop iteration performs them:
//!
//! 1. **Poll** for readiness (or the tick timeout, for sweeps).
//! 2. **Drain completions** — rendered responses the workers posted via
//!    the channel + [`Waker`] pair — into their connections' write
//!    buffers, guarded by the slot generation so a response for a
//!    previous occupant of a reused slab slot is discarded.
//! 3. **Handle events**: accept until `WouldBlock`, fill/parse/flush
//!    ready connections, and dispatch parsed requests — `GET` endpoints
//!    inline (they read shared state only, so `/stats` answers even
//!    while the worker queue is jammed), classify/reload through the
//!    bounded queue, shedding with `503 Retry-After` when it is full.
//! 4. **Sweep timeouts**: stalled mid-request reads answer `408`,
//!    stalled writes are dropped, idle keep-alive connections past the
//!    configured horizon are closed.
//!
//! Interest is recomputed after every step ([`Conn::desired_interest`]):
//! a connection waiting only on a worker is deregistered entirely and
//! re-registered when its completion lands, so the level-triggered
//! poller never spins on a socket the loop cannot make progress on.

use super::conn::{render_response, Conn, Limits};
use super::queue::{BoundedQueue, PushError};
use super::{Completion, Job, ServerStats};
use crate::slot::{EpochEngine, EpochModel, ModelSlot};
use cxk_core::MODEL_FORMAT_VERSION;
use mio::{Events, Interest, Poll, Registry, Token};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's token.
pub(crate) const LISTENER: Token = Token(0);
/// The waker's token (worker completions pending).
pub(crate) const WAKER: Token = Token(1);
/// Connection tokens start here; token − base = slab index.
const CONN_BASE: usize = 2;

/// Poll timeout; also the timeout-sweep cadence.
const TICK: Duration = Duration::from_millis(100);

/// Everything the readiness loop owns or shares.
pub(crate) struct Acceptor {
    pub listener: TcpListener,
    pub poll: Poll,
    pub completions: std::sync::mpsc::Receiver<Completion>,
    pub queue: Arc<BoundedQueue<Job>>,
    pub slot: Arc<ModelSlot>,
    pub stats: Arc<ServerStats>,
    pub shutdown: Arc<AtomicBool>,
    pub limits: Limits,
    /// Keep-alive disabled server-side: force every request to close.
    pub force_close: bool,
    /// Reap a connection with no traffic in either direction after this
    /// long (the keep-alive horizon; `io_timeout` when keep-alive is
    /// off, so a connect-and-say-nothing socket still goes away).
    pub idle_horizon: Duration,
    pub io_timeout: Duration,
}

/// Runs the loop until shutdown. Closing the queue on the way out is the
/// workers' exit signal.
pub(crate) fn run(acceptor: Acceptor) {
    let Acceptor {
        listener,
        mut poll,
        completions,
        queue,
        slot,
        stats,
        shutdown,
        limits,
        force_close,
        idle_horizon,
        io_timeout,
    } = acceptor;
    let registry = poll.registry().clone();
    let mut events = Events::with_capacity(256);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_generation: u64 = 0;
    // A legitimate pipeline never needs more buffered input than one
    // maximal request plus head-sized slack for its successors.
    let fill_cap = limits.max_head + limits.max_body as usize + (4 << 10);
    let mut last_sweep = Instant::now();

    loop {
        if poll.poll(&mut events, Some(TICK)).is_err() {
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();

        // Step 2: worker completions → write buffers.
        while let Ok(done) = completions.try_recv() {
            let Some(Some(conn)) = conns.get_mut(done.token) else {
                continue;
            };
            if conn.generation != done.generation {
                continue;
            }
            conn.in_flight = false;
            conn.queue_bytes(&done.bytes);
            if done.close {
                conn.close_after_flush = true;
            }
            let keep = pump(
                conn,
                done.token,
                &queue,
                &slot,
                &stats,
                &limits,
                force_close,
                now,
            );
            settle(&mut conns, &mut free, done.token, &registry, keep);
        }

        // Step 3: socket readiness.
        for event in events.iter() {
            match event.token() {
                LISTENER => accept_all(
                    &listener,
                    &registry,
                    &mut conns,
                    &mut free,
                    &mut next_generation,
                    &stats,
                    now,
                ),
                WAKER => {} // completions already drained above
                Token(t) => {
                    let idx = t - CONN_BASE;
                    let Some(Some(conn)) = conns.get_mut(idx) else {
                        continue;
                    };
                    let mut keep = true;
                    if event.is_readable() || event.is_read_closed() {
                        keep = conn.fill(fill_cap, now).is_ok();
                    }
                    if keep && event.is_writable() {
                        keep = conn.flush(now).is_ok();
                    }
                    if keep {
                        keep = pump(conn, idx, &queue, &slot, &stats, &limits, force_close, now);
                    }
                    settle(&mut conns, &mut free, idx, &registry, keep);
                }
            }
        }

        // Step 4: timeout sweep, once per tick.
        if now.duration_since(last_sweep) >= TICK {
            last_sweep = now;
            sweep(
                &mut conns,
                &mut free,
                &registry,
                &slot,
                &stats,
                io_timeout,
                idle_horizon,
                now,
            );
        }
    }

    // Shutdown: stop feeding workers; they drain what is queued and exit.
    queue.close();
}

/// Accepts until `WouldBlock`, registering each connection for reads.
#[allow(clippy::too_many_arguments)]
fn accept_all(
    listener: &TcpListener,
    registry: &Registry,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_generation: &mut u64,
    stats: &ServerStats,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                stats.connections.fetch_add(1, Ordering::Relaxed);
                *next_generation += 1;
                let mut conn = Conn::new(stream, *next_generation, now);
                let idx = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                if !update_interest(registry, Token(idx + CONN_BASE), &mut conn) {
                    free.push(idx);
                    continue;
                }
                conns[idx] = Some(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient accept failure (EMFILE, aborted handshake):
            // leave the rest for the next readiness event.
            Err(_) => break,
        }
    }
}

/// Parse → dispatch → flush for one connection; `false` means drop it.
#[allow(clippy::too_many_arguments)]
fn pump(
    conn: &mut Conn,
    idx: usize,
    queue: &BoundedQueue<Job>,
    slot: &ModelSlot,
    stats: &ServerStats,
    limits: &Limits,
    force_close: bool,
    now: Instant,
) -> bool {
    let before = conn.requests_parsed;
    let parsed = conn.parse_step(limits, force_close);
    if parsed > 0 {
        stats.requests.fetch_add(parsed as u64, Ordering::Relaxed);
        if before < 2 && conn.requests_parsed >= 2 {
            stats.reused.fetch_add(1, Ordering::Relaxed);
        }
    }
    dispatch(conn, idx, queue, slot, stats);
    conn.flush(now).is_ok()
}

/// Answers or forwards every dispatchable pending request, in order.
fn dispatch(
    conn: &mut Conn,
    idx: usize,
    queue: &BoundedQueue<Job>,
    slot: &ModelSlot,
    stats: &ServerStats,
) {
    while !conn.in_flight && !conn.close_after_flush {
        let Some(request) = conn.pending.pop_front() else {
            break;
        };
        let close = request.close;
        match (request.method.as_str(), request.path.as_str()) {
            // Engine-bound work goes through the bounded queue.
            ("POST", "/classify") | ("POST", "/reload") => {
                let job = Job {
                    token: idx,
                    generation: conn.generation,
                    request,
                };
                match queue.try_push(job) {
                    Ok(()) => {
                        conn.in_flight = true;
                        if close {
                            conn.close_after_flush = true;
                        }
                        break;
                    }
                    Err(PushError::Full(_)) => {
                        // Shed immediately: the whole point of the bound.
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        let body = r#"{"error":"server is at capacity; retry shortly"}"#;
                        conn.queue_bytes(&render_response(503, slot.epoch(), body, close, Some(1)));
                        if close {
                            conn.close_after_flush = true;
                        }
                    }
                    Err(PushError::Closed(_)) => {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        let body = r#"{"error":"server is shutting down"}"#;
                        conn.queue_bytes(&render_response(503, slot.epoch(), body, true, None));
                        conn.close_after_flush = true;
                    }
                }
            }
            // Read-only endpoints answer inline from shared state — no
            // engine, no queue slot, no worker: they stay responsive
            // even when the queue is full and every worker is busy.
            ("GET", "/model") => {
                let current = slot.current();
                let body = model_json(&current);
                conn.queue_bytes(&render_response(200, current.epoch, &body, close, None));
                if close {
                    conn.close_after_flush = true;
                }
            }
            ("GET", "/stats") => {
                let current = slot.current();
                let body = stats_json(&current, stats, queue);
                conn.queue_bytes(&render_response(200, current.epoch, &body, close, None));
                if close {
                    conn.close_after_flush = true;
                }
            }
            _ => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let body = r#"{"error":"no such endpoint (POST /classify, POST /reload, GET /model, GET /stats)"}"#;
                conn.queue_bytes(&render_response(404, slot.epoch(), body, close, None));
                if close {
                    conn.close_after_flush = true;
                }
            }
        }
    }

    // A deferred parse error is answered only once every response owed
    // for earlier pipelined requests has been queued — order first.
    if !conn.in_flight && conn.pending.is_empty() && !conn.close_after_flush {
        if let Some(e) = conn.parse_error.take() {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            let body = format!(r#"{{"error":"{}"}}"#, cxk_util::json::escape(&e.message));
            conn.queue_bytes(&render_response(e.status, slot.epoch(), &body, true, None));
            conn.close_after_flush = true;
        }
    }
}

/// Whether the connection has said everything it ever will.
fn finished(conn: &Conn) -> bool {
    let flushed = !conn.has_unsent();
    if conn.close_after_flush && !conn.in_flight && conn.pending.is_empty() && flushed {
        return true;
    }
    // Peer gone and nothing owed in either direction.
    conn.peer_closed
        && !conn.in_flight
        && conn.pending.is_empty()
        && flushed
        && conn.parse_error.is_none()
}

/// Applies the post-activity disposition for slot `idx`: drop on error
/// or completion, otherwise refresh poller interest.
fn settle(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    idx: usize,
    registry: &Registry,
    keep: bool,
) {
    let Some(conn) = conns[idx].as_mut() else {
        return;
    };
    if !keep || finished(conn) || !update_interest(registry, Token(idx + CONN_BASE), conn) {
        drop_conn(conns, free, idx, registry);
    }
}

/// Deregisters (if registered) and frees slot `idx`.
fn drop_conn(conns: &mut [Option<Conn>], free: &mut Vec<usize>, idx: usize, registry: &Registry) {
    if let Some(conn) = conns[idx].take() {
        if conn.registered.is_some() {
            let _ = registry.deregister(&conn.stream);
        }
        free.push(idx);
    }
}

/// Syncs poller registration with [`Conn::desired_interest`]; `false`
/// means the registration itself failed and the connection is unusable.
fn update_interest(registry: &Registry, token: Token, conn: &mut Conn) -> bool {
    let want = conn.desired_interest();
    let interest = |(read, write): (bool, bool)| {
        let mut i = if read {
            Interest::READABLE
        } else {
            Interest::WRITABLE
        };
        if read && write {
            i = i | Interest::WRITABLE;
        }
        i
    };
    match (conn.registered, want) {
        (Some(current), wanted) if current == wanted => true,
        (Some(_), (false, false)) => {
            let ok = registry.deregister(&conn.stream).is_ok();
            conn.registered = None;
            ok
        }
        (Some(_), wanted) => {
            let ok = registry
                .reregister(&conn.stream, token, interest(wanted))
                .is_ok();
            if ok {
                conn.registered = Some(wanted);
            }
            ok
        }
        (None, (false, false)) => true,
        (None, wanted) => {
            let ok = registry
                .register(&conn.stream, token, interest(wanted))
                .is_ok();
            if ok {
                conn.registered = Some(wanted);
            }
            ok
        }
    }
}

/// Once-per-tick scan for stalled and idle connections.
#[allow(clippy::too_many_arguments)]
fn sweep(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    registry: &Registry,
    slot: &ModelSlot,
    stats: &ServerStats,
    io_timeout: Duration,
    idle_horizon: Duration,
    now: Instant,
) {
    for idx in 0..conns.len() {
        let Some(conn) = conns[idx].as_mut() else {
            continue;
        };
        let stalled_for = now.duration_since(conn.last_activity);
        let mid_request = conn.has_buffered_input()
            && conn.pending.is_empty()
            && !conn.in_flight
            && conn.parse_error.is_none()
            && !conn.close_after_flush;
        if mid_request && stalled_for > io_timeout {
            // A trickling or stalled request head/body: answer 408 and
            // close rather than holding the buffer forever.
            stats.errors.fetch_add(1, Ordering::Relaxed);
            let body = r#"{"error":"request timed out"}"#;
            conn.queue_bytes(&render_response(408, slot.epoch(), body, true, None));
            conn.close_after_flush = true;
            let keep = conn.flush(now).is_ok();
            settle(conns, free, idx, registry, keep);
        } else if conn.has_unsent() && stalled_for > io_timeout {
            // The peer stopped reading its responses: cut it loose.
            drop_conn(conns, free, idx, registry);
        } else {
            let idle = !conn.has_buffered_input()
                && conn.pending.is_empty()
                && !conn.in_flight
                && !conn.has_unsent();
            if idle && stalled_for > idle_horizon {
                drop_conn(conns, free, idx, registry);
            }
        }
    }
}

/// `GET /model`: metadata for the live epoch.
fn model_json(current: &EpochModel) -> String {
    let model = &current.model;
    let rep_items: Vec<String> = model.reps.iter().map(|r| r.len().to_string()).collect();
    format!(
        r#"{{"epoch":{},"format_version":{},"k":{},"f":{},"gamma":{},"labels":{},"vocabulary":{},"paths":{},"rep_items":[{}],"trained_documents":{},"trained_transactions":{}}}"#,
        current.epoch,
        MODEL_FORMAT_VERSION,
        model.k(),
        model.params.f,
        model.params.gamma,
        model.labels.len(),
        model.vocabulary.len(),
        model.paths.len(),
        rep_items.join(","),
        model.trained_documents,
        model.trained_transactions,
    )
}

/// `GET /stats`: counters, queue state and the live epoch's engine.
/// Scalar fields stay ahead of the engine detail so flat `"field":value`
/// scrapers keep working on everything before the arrays.
fn stats_json(current: &EpochModel, stats: &ServerStats, queue: &BoundedQueue<Job>) -> String {
    // Per-shard detail: one object per shard, in range order. Sharded and
    // tree counters count since this epoch's engine was built; remote
    // counters since the server started (the topology survives reloads).
    let engine_detail = match &current.engine {
        EpochEngine::Indexed(engine) => {
            let shards: Vec<String> = engine
                .shard_stats()
                .iter()
                .map(|s| {
                    format!(
                        r#"{{"reps":{},"postings":{},"queries":{},"scored":{}}}"#,
                        s.reps, s.postings, s.queries, s.scored
                    )
                })
                .collect();
            format!(
                r#""engine":"indexed","shards":{},"postings_bytes":{},"shard_stats":[{}]"#,
                engine.shard_count(),
                engine.postings_bytes(),
                shards.join(",")
            )
        }
        EpochEngine::Tree(tree) => {
            let s = tree.stats();
            format!(
                r#""engine":"tree","branch":{},"beam":{},"tree_depth":{},"tree_nodes":{},"tuples":{},"nodes_visited":{},"reps_scored":{},"fallbacks":{}"#,
                s.branch,
                s.beam,
                s.depth,
                s.nodes,
                s.tuples,
                s.nodes_visited,
                s.reps_scored,
                s.fallbacks
            )
        }
        EpochEngine::Remote(topology) => {
            let shards: Vec<String> = topology
                .shard_stats()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    format!(
                        r#"{{"shard":{i},"replicas":{},"requests":{},"retries":{},"failovers":{},"bytes":{},"rtt_micros":{}}}"#,
                        s.replicas, s.requests, s.retries, s.failovers, s.bytes, s.rtt_micros
                    )
                })
                .collect();
            format!(
                r#""engine":"remote","remote_shards":{},"remote_shard_stats":[{}]"#,
                topology.shard_count(),
                shards.join(",")
            )
        }
    };
    format!(
        r#"{{"epoch":{},"connections":{},"requests":{},"classified":{},"trash":{},"capped":{},"errors":{},"worker_panics":{},"reloads":{},"reload_errors":{},"rejected":{},"reused":{},"queue_depth":{},"queue_len":{},"index_postings":{},"service_p50_micros":{},"service_p99_micros":{},"service_p999_micros":{},{engine_detail}}}"#,
        current.epoch,
        stats.connections.load(Ordering::Relaxed),
        stats.requests.load(Ordering::Relaxed),
        stats.classified.load(Ordering::Relaxed),
        stats.trash.load(Ordering::Relaxed),
        stats.capped.load(Ordering::Relaxed),
        stats.errors.load(Ordering::Relaxed),
        stats.worker_panics.load(Ordering::Relaxed),
        stats.reloads.load(Ordering::Relaxed),
        stats.reload_errors.load(Ordering::Relaxed),
        stats.rejected.load(Ordering::Relaxed),
        stats.reused.load(Ordering::Relaxed),
        queue.capacity(),
        queue.len(),
        current.engine.posting_entries(),
        stats.service_hist.percentile(0.5),
        stats.service_hist.percentile(0.99),
        stats.service_hist.percentile(0.999),
    )
}
