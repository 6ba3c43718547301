//! Load over one or two keep-alive connections.
//!
//! An open-loop phase fixes its arrival schedule before it starts: Poisson
//! classify arrivals at an absolute rate, plus `POST /reload` arrivals at
//! fixed instants when the workload swaps models. Two generator threads,
//! each owning one keep-alive connection, take the next unsent arrival off
//! a shared atomic cursor, wait for its scheduled instant, send it and
//! read the answer. A request's latency runs from its *scheduled* instant,
//! so a stall is charged to every request it delays. A request can start
//! late for two reasons, and each sample keeps both apart: both
//! connections were still waiting for earlier answers (the server's
//! doing), or the generator thread woke or ran late (the generator's own
//! lateness, which a run checks so that it never reports the generator's
//! tail as the server's).
//!
//! A closed-loop phase is the limit of the same machinery where every
//! arrival is due at once, so each connection always has one request in
//! flight until a deadline: on one connection it is a single caller
//! waiting for each answer ([`closed_loop`]), on both it saturates the
//! server ([`saturate`]).
//!
//! Each thread keeps raw samples in its own `Vec`; the vectors are merged
//! after the threads join, so nothing is shared on the send path but the
//! cursor.

use cxk_util::DetRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads of the open-loop and saturation phases, one
/// keep-alive connection each.
const CONNECTIONS: usize = 2;

/// Requests a closed-loop phase schedules per second of its length: above
/// what two connections with one request in flight each can complete, so
/// the deadline, not the schedule, ends the phase.
const CLOSED_SCHEDULE_RPS: f64 = 25_000.0;

/// What one scheduled arrival asks of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /classify` with stream document `doc`.
    Classify {
        /// Index into the workload's stream.
        doc: usize,
    },
    /// `POST /reload` of model `model`.
    Reload {
        /// Index into the workload's model files.
        model: usize,
    },
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the phase start, nanoseconds.
    pub at_ns: u64,
    /// The request.
    pub op: Op,
}

/// The rendered request of every [`Op`], built before any phase starts so
/// the send path only writes.
#[derive(Debug, Clone)]
pub struct Requests {
    /// `POST /classify` per stream document.
    pub classify: Vec<Vec<u8>>,
    /// `POST /reload` per model snapshot.
    pub reload: Vec<Vec<u8>>,
}

impl Requests {
    /// The bytes of `op`.
    pub fn bytes(&self, op: Op) -> &[u8] {
        match op {
            Op::Classify { doc } => &self.classify[doc],
            Op::Reload { model } => &self.reload[model],
        }
    }
}

/// Builds a phase's schedule: Poisson classify arrivals at `rate` per
/// second for `duration`, cycling through `docs` stream documents from
/// `first_doc`, plus a reload every `reload_every` (the first one
/// `reload_every` after the start) naming the model numbers handed out by
/// `next_model`. Deterministic for a given seed.
pub fn schedule(
    seed: u64,
    rate: f64,
    duration: Duration,
    docs: usize,
    first_doc: usize,
    reload_every: Option<Duration>,
    mut next_model: impl FnMut() -> usize,
) -> Vec<Arrival> {
    assert!(
        rate > 0.0 && docs > 0,
        "a schedule needs a rate and documents"
    );
    let horizon = duration.as_nanos() as f64;
    let mut rng = DetRng::seed_from_u64(seed);
    let mut arrivals = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize + 8);
    let mut at = 0.0f64;
    let mut doc = first_doc;
    loop {
        // Inverse CDF of Exp(rate); `1 - unit()` keeps ln finite.
        at += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if at >= horizon {
            break;
        }
        arrivals.push(Arrival {
            at_ns: at as u64,
            op: Op::Classify { doc: doc % docs },
        });
        doc += 1;
    }
    if let Some(every) = reload_every {
        let step = every.as_nanos() as u64;
        let mut at = step;
        while (at as f64) < horizon {
            arrivals.push(Arrival {
                at_ns: at,
                op: Op::Reload {
                    model: next_model(),
                },
            });
            at += step;
        }
        arrivals.sort_by_key(|a| a.at_ns);
    }
    arrivals
}

/// What came back for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index into the phase's schedule.
    pub arrival: usize,
    /// When it could first be sent, nanoseconds from the phase start: the
    /// later of its scheduled instant and the moment a generator thread
    /// was free to take it.
    pub ready_ns: u64,
    /// When the request was written.
    pub sent_ns: u64,
    /// When the whole response had been read.
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// The `X-Model-Epoch` the answer carried (0 when absent).
    pub epoch: u64,
    /// The document's cluster, for a classify answer.
    pub cluster: Option<u32>,
}

/// Everything one phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The schedule that was offered.
    pub schedule: Vec<Arrival>,
    /// One sample per arrival that was sent, in schedule order.
    pub samples: Vec<Sample>,
    /// The phase stopped early because the generator fell too far behind.
    pub aborted: bool,
    /// The phase start, the time base of every offset above.
    pub start: Instant,
}

impl Phase {
    /// Samples of classify arrivals.
    pub fn classify_samples(&self) -> impl Iterator<Item = &Sample> + '_ {
        self.samples
            .iter()
            .filter(|s| matches!(self.schedule[s.arrival].op, Op::Classify { .. }))
    }

    /// Latencies (scheduled → done) of the classify arrivals, nanoseconds,
    /// ascending.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .classify_samples()
            .map(|s| s.done_ns.saturating_sub(self.schedule[s.arrival].at_ns))
            .collect();
        out.sort_unstable();
        out
    }

    /// The generator's own lateness (ready → sent) of every sent arrival,
    /// nanoseconds, ascending.
    pub fn lateness_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .samples
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.ready_ns))
            .collect();
        out.sort_unstable();
        out
    }

    /// Sent requests not answered `200` (transport errors included).
    pub fn failures(&self) -> usize {
        self.samples.iter().filter(|s| s.status != 200).count()
    }

    /// Scheduled arrivals never sent.
    pub fn unsent(&self) -> usize {
        self.schedule.len() - self.samples.len()
    }

    /// Offered classify rate realized by the schedule, per second.
    pub fn offered_rps(&self) -> f64 {
        let count = self
            .schedule
            .iter()
            .filter(|a| matches!(a.op, Op::Classify { .. }))
            .count();
        let span = self.schedule.last().map_or(0, |a| a.at_ns);
        count as f64 / (span.max(1) as f64 / 1e9)
    }

    /// Completed classify answers per second, from the first scheduled
    /// arrival to the last completion.
    pub fn achieved_rps(&self) -> f64 {
        let first = self.schedule.first().map_or(0, |a| a.at_ns);
        let last = self.samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let ok = self.classify_samples().filter(|s| s.status == 200).count();
        ok as f64 / (last.saturating_sub(first).max(1) as f64 / 1e9)
    }

    /// The classify requests of a single-connection closed loop as
    /// `(document, latency)` pairs, nanoseconds, in the order sent: from
    /// sending the request — or the model swap sent just before it — to
    /// reading its answer. A swap and the classify request after it are one
    /// unit because that request is the first to pay for the swap.
    pub fn units_ns(&self) -> Vec<(usize, u64)> {
        let mut out = Vec::with_capacity(self.samples.len());
        let mut previous: Option<&Sample> = None;
        for s in &self.samples {
            if let Op::Classify { doc } = self.schedule[s.arrival].op {
                let start = match previous {
                    Some(p)
                        if p.arrival + 1 == s.arrival
                            && matches!(self.schedule[p.arrival].op, Op::Reload { .. }) =>
                    {
                        p.sent_ns
                    }
                    _ => s.sent_ns,
                };
                out.push((doc, s.done_ns.saturating_sub(start)));
            }
            previous = Some(s);
        }
        out
    }

    /// Classify answers completed per second in each whole `window` of the
    /// phase, the first window (ramp-up) left out.
    pub fn window_rates(&self, window: Duration) -> Vec<f64> {
        let width = window.as_nanos() as u64;
        let end = self.samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let mut counts = vec![0u64; (end / width) as usize];
        for s in self.classify_samples().filter(|s| s.status == 200) {
            if let Some(c) = counts.get_mut((s.done_ns / width) as usize) {
                *c += 1;
            }
        }
        counts
            .iter()
            .skip(1)
            .map(|&c| c as f64 / window.as_secs_f64())
            .collect()
    }
}

/// Runs one open-loop phase against `addr`. With `abort_after`, both
/// threads stop once one of them sends a request that much behind
/// schedule.
pub fn run(
    addr: SocketAddr,
    schedule: Vec<Arrival>,
    requests: &Requests,
    abort_after: Option<Duration>,
) -> std::io::Result<Phase> {
    let abort_ns = abort_after.map_or(u64::MAX, |d| d.as_nanos() as u64);
    drive_phase(addr, schedule, requests, abort_ns, u64::MAX, CONNECTIONS)
}

/// Runs one saturation phase: classify requests for stream documents
/// `first_doc..` (cycling through `docs`), one always in flight on each
/// connection, until `duration` has passed.
pub fn saturate(
    addr: SocketAddr,
    requests: &Requests,
    first_doc: usize,
    duration: Duration,
) -> std::io::Result<Phase> {
    let schedule = closed_schedule(requests, first_doc, duration, None, || 0);
    let deadline_ns = duration.as_nanos() as u64;
    drive_phase(addr, schedule, requests, u64::MAX, deadline_ns, CONNECTIONS)
}

/// Runs one closed-loop phase on a single connection: one caller sends
/// classify requests for stream documents `first_doc..` (cycling through
/// `docs`), each as soon as the previous answer is read, until `duration`
/// has passed. With `reload_every`, a `POST /reload` naming the model
/// numbers handed out by `next_model` follows every `reload_every`
/// classify requests.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &Requests,
    first_doc: usize,
    duration: Duration,
    reload_every: Option<usize>,
    next_model: impl FnMut() -> usize,
) -> std::io::Result<Phase> {
    let schedule = closed_schedule(requests, first_doc, duration, reload_every, next_model);
    let deadline_ns = duration.as_nanos() as u64;
    drive_phase(addr, schedule, requests, u64::MAX, deadline_ns, 1)
}

/// Enough arrivals, all due at once, to outlast a closed-loop phase of
/// `duration`.
fn closed_schedule(
    requests: &Requests,
    first_doc: usize,
    duration: Duration,
    reload_every: Option<usize>,
    mut next_model: impl FnMut() -> usize,
) -> Vec<Arrival> {
    let docs = requests.classify.len();
    let count = (CLOSED_SCHEDULE_RPS * duration.as_secs_f64()) as usize;
    let mut schedule = Vec::with_capacity(count);
    for i in 0..count {
        schedule.push(Arrival {
            at_ns: 0,
            op: Op::Classify {
                doc: (first_doc + i) % docs,
            },
        });
        if reload_every.is_some_and(|every| (i + 1) % every == 0) {
            schedule.push(Arrival {
                at_ns: 0,
                op: Op::Reload {
                    model: next_model(),
                },
            });
        }
    }
    schedule
}

fn drive_phase(
    addr: SocketAddr,
    schedule: Vec<Arrival>,
    requests: &Requests,
    abort_ns: u64,
    deadline_ns: u64,
    threads: usize,
) -> std::io::Result<Phase> {
    let mut connections = Vec::with_capacity(threads);
    for _ in 0..threads {
        connections.push(connect(addr)?);
    }
    let cursor = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let start = Instant::now();
    let generator = Generator {
        addr,
        schedule: &schedule,
        requests,
        cursor: &cursor,
        aborted: &aborted,
        abort_ns,
        deadline_ns,
        start,
    };
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = with_fine_timer_slack(|| {
            connections
                .into_iter()
                .map(|conn| scope.spawn(move || generator.drive(conn)))
                .collect()
        });
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    samples.sort_unstable_by_key(|s| s.arrival);
    Ok(Phase {
        schedule,
        samples,
        aborted: aborted.load(Ordering::SeqCst),
        start,
    })
}

/// Runs `spawn` with the calling thread's timer slack at 1 ns, so the
/// threads it creates inherit a slack that lets `sleep` wake on time
/// (Linux's default slack of 50 µs would otherwise show up as generator
/// lateness in every latency). The process's main thread is the one
/// `/proc/self/timerslack_ns` adjusts; elsewhere, or off Linux, this is a
/// no-op and the default slack applies. The previous slack is restored
/// before returning, so later children (the server) keep the default.
fn with_fine_timer_slack<T>(spawn: impl FnOnce() -> T) -> T {
    const SLACK: &str = "/proc/self/timerslack_ns";
    let previous = std::fs::read_to_string(SLACK).ok();
    let lowered = previous.is_some() && std::fs::write(SLACK, "1").is_ok();
    let out = spawn();
    if let (true, Some(previous)) = (lowered, previous) {
        let _ = std::fs::write(SLACK, previous.trim());
    }
    out
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(conn)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// State the generator threads share.
#[derive(Clone, Copy)]
struct Generator<'a> {
    addr: SocketAddr,
    schedule: &'a [Arrival],
    requests: &'a Requests,
    cursor: &'a AtomicUsize,
    aborted: &'a AtomicBool,
    abort_ns: u64,
    deadline_ns: u64,
    start: Instant,
}

impl Generator<'_> {
    /// One generator thread: claim, wait, send, read, record.
    fn drive(&self, conn: TcpStream) -> Vec<Sample> {
        let mut conn = Some(conn);
        let mut buf: Vec<u8> = Vec::with_capacity(8192);
        let mut samples = Vec::with_capacity((self.schedule.len() / CONNECTIONS + 16).min(1 << 16));
        while !self.aborted.load(Ordering::Relaxed) {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(arrival) = self.schedule.get(i) else {
                break;
            };
            let mut now = elapsed_ns(self.start);
            let ready_ns = now.max(arrival.at_ns);
            if arrival.at_ns > now {
                std::thread::sleep(Duration::from_nanos(arrival.at_ns - now));
                now = elapsed_ns(self.start);
            }
            if now >= self.deadline_ns {
                break;
            }
            if now.saturating_sub(arrival.at_ns) > self.abort_ns {
                self.aborted.store(true, Ordering::Relaxed);
                break;
            }
            let request = self.requests.bytes(arrival.op);
            let answer = match conn.as_mut() {
                Some(stream) => exchange(stream, request, &mut buf),
                None => connect(self.addr).and_then(|mut stream| {
                    buf.clear();
                    let answer = exchange(&mut stream, request, &mut buf);
                    conn = Some(stream);
                    answer
                }),
            };
            let done_ns = elapsed_ns(self.start);
            let (status, epoch, cluster) = answer.unwrap_or_else(|_| {
                // Reconnect before the next request; this one failed.
                conn = None;
                (0, 0, None)
            });
            samples.push(Sample {
                arrival: i,
                ready_ns,
                sent_ns: now,
                done_ns,
                status,
                epoch,
                cluster,
            });
        }
        samples
    }
}

/// Writes one request and reads its `Content-Length`-framed response off a
/// keep-alive connection, carrying bytes of a later response in `buf`.
fn exchange(
    conn: &mut TcpStream,
    request: &[u8],
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, u64, Option<u32>)> {
    conn.write_all(request)?;
    let mut scratch = [0u8; 8192];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).map_err(invalid)?;
            let length: usize = header(head, "Content-Length")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| invalid("response without Content-Length"))?;
            let total = head_end + 4 + length;
            if buf.len() >= total {
                let status = head
                    .get(9..12)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid("malformed status line"))?;
                let epoch = header(head, "X-Model-Epoch")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let cluster = buf[head_end + 4..total]
                    .strip_prefix(b"{\"cluster\":")
                    .and_then(|rest| {
                        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
                        std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
                    });
                buf.drain(..total);
                return Ok((status, epoch, cluster));
            }
        }
        let n = conn.read(&mut scratch)?;
        if n == 0 {
            return Err(invalid("server closed the connection"));
        }
        buf.extend_from_slice(&scratch[..n]);
    }
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn invalid(e: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Renders a keep-alive `POST` with `body`.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// One request on a fresh connection that the server closes after
/// answering (set-up probes and `GET /stats`); returns the status and the
/// body. `request` must end its head with `Connection: close`.
pub fn request_once(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.write_all(request)?;
    let mut response = Vec::new();
    conn.read_to_end(&mut response)?;
    let text = String::from_utf8_lossy(&response);
    let status = text
        .get(9..12)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// `GET /stats`, closing.
pub const STATS: &[u8] = b"GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";

/// A closing `POST /classify` with `body` (the set-up probe).
pub fn post_once(path: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}
