//! Length-prefixed TCP framing for the `cxk_p2p` fabric.
//!
//! The in-process network ([`crate::net`]) routes [`Envelope`]s over
//! `std::sync::mpsc` channels and meters their [`Wire::wire_size`] in a
//! shared [`TrafficLedger`]. This module carries the **same envelope
//! semantics across process boundaries**: a [`FramedConn`] wraps one
//! `TcpStream` and exchanges envelopes as length-prefixed frames, metering
//! *actual* frame bytes into a caller-supplied ledger. The fabric stays
//! clustering-agnostic — payloads are anything implementing [`WireCodec`],
//! and this crate knows nothing about what they mean.
//!
//! # Frame format
//!
//! Every frame is `12 + len` bytes, all integers little-endian:
//!
//! ```text
//! ┌────────────┬────────────┬────────────┬──────────────────┐
//! │ from: u32  │  to: u32   │  len: u32  │  payload (len B) │
//! └────────────┴────────────┴────────────┴──────────────────┘
//! ```
//!
//! `from`/`to` are [`PeerId`]s under whatever numbering the application
//! chose (the distributed serving layer numbers the frontend 0 and shard
//! `i`'s daemon `i + 1`). The payload is the [`WireCodec`] encoding of the
//! message.
//!
//! # Error mapping and the timeout contract
//!
//! * [`FramedConn::recv_timeout`] bounds the **whole wait** by an absolute
//!   deadline — the socket timeout is re-armed with the remaining time
//!   before every `read(2)`, so a slow-dripping peer cannot extend the
//!   wait by keeping bytes trickling in. Deadline expiry (and `WouldBlock`)
//!   surfaces as [`NetworkError::Timeout`] — the typed variant failover
//!   logic keys on.
//! * A `Timeout` is **resumable**: partially received frame bytes are
//!   retained in the connection, and the next `recv_timeout` continues the
//!   same frame where it left off. The stream never desyncs on a timeout,
//!   so an idle-polling receiver (the shard daemon) may keep the
//!   connection. A *request/response* caller should still drop the
//!   connection on timeout — the answer it stopped waiting for may arrive
//!   later and would be stale (the serving layer's shard failover does
//!   exactly that, and additionally tags requests with sequence numbers).
//! * EOF, resets and every other I/O failure surface as
//!   [`NetworkError::Disconnected`]; the connection is then dead.
//!
//! Metering records each frame once, at send time, matching the
//! in-process ledger contract.

use crate::net::{Envelope, NetworkError, PeerId, TrafficLedger, Wire};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames larger than this are treated as protocol corruption rather than
/// allocated: a desynced stream must not look like a 4 GiB message.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Bytes of frame header preceding every payload (`from`, `to`, `len`).
pub const FRAME_HEADER_BYTES: usize = 12;

/// A message that can cross a byte-oriented transport: [`Wire`] (so
/// in-process metering still works) plus an explicit encoding.
///
/// Encodings must be self-delimiting within the frame: `decode` receives
/// exactly the bytes `encode` produced for one message.
pub trait WireCodec: Wire + Sized {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one message from `bytes`; `None` on malformed input (the
    /// connection is then treated as [`NetworkError::Disconnected`]).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// A cursor over a received payload, with the little-endian readers codec
/// implementations need. Every reader returns `None` past the end instead
/// of panicking, so malformed frames fail cleanly.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed (decoders should end here).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let raw: [u8; 4] = self.bytes.get(self.pos..self.pos + 4)?.try_into().ok()?;
        self.pos += 4;
        Some(u32::from_le_bytes(raw))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let raw: [u8; 8] = self.bytes.get(self.pos..self.pos + 8)?.try_into().ok()?;
        self.pos += 8;
        Some(u64::from_le_bytes(raw))
    }

    /// Reads `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(slice)
    }
}

/// One framed, metered TCP connection speaking [`Envelope`]s of `M`.
///
/// The connection is symmetric — either end may send or receive — and
/// single-threaded by design (`&mut self`): the serving layer gives each
/// worker its own connection per shard, mirroring how each in-process peer
/// owns its channel handle.
pub struct FramedConn<M: WireCodec> {
    stream: TcpStream,
    /// This endpoint's id, stamped into outgoing frames.
    id: PeerId,
    /// Shared traffic meter; `None` disables metering.
    ledger: Option<Arc<TrafficLedger>>,
    /// Reusable encode buffer.
    buf: Vec<u8>,
    /// The in-progress inbound frame, retained across timeouts.
    rx: RxFrame,
    _marker: PhantomData<M>,
}

/// Receive-side state for one frame, kept on the connection so a timeout
/// mid-frame resumes instead of desyncing the stream.
#[derive(Default)]
struct RxFrame {
    header: [u8; FRAME_HEADER_BYTES],
    header_filled: usize,
    /// Expected payload length, set once the header is complete and
    /// validated; `None` while the header is still being read.
    payload_len: Option<usize>,
    /// Payload bytes; the allocation is reused across frames.
    payload: Vec<u8>,
    payload_filled: usize,
}

/// Little-endian u32 at `offset` of a frame header. Infallible by
/// construction: callers index within `FRAME_HEADER_BYTES - 4`.
fn header_u32(header: &[u8; FRAME_HEADER_BYTES], offset: usize) -> u32 {
    u32::from_le_bytes([
        header[offset],
        header[offset + 1],
        header[offset + 2],
        header[offset + 3],
    ])
}

impl<M: WireCodec> FramedConn<M> {
    /// Wraps an established stream. `TCP_NODELAY` is set — frames are
    /// request/response sized and latency-bound, not throughput-bound.
    pub fn new(
        stream: TcpStream,
        id: PeerId,
        ledger: Option<Arc<TrafficLedger>>,
    ) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            id,
            ledger,
            buf: Vec::new(),
            rx: RxFrame::default(),
            _marker: PhantomData,
        })
    }

    /// Dials `addr` and wraps the resulting stream.
    pub fn connect(
        addr: &str,
        id: PeerId,
        ledger: Option<Arc<TrafficLedger>>,
    ) -> std::io::Result<Self> {
        Self::new(TcpStream::connect(addr)?, id, ledger)
    }

    /// This endpoint's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Re-numbers this endpoint. An accepting side that does not know the
    /// dialer's peer numbering adopts the `to` id of the first envelope it
    /// receives, so its replies carry a meaningful `from`.
    pub fn set_id(&mut self, id: PeerId) {
        self.id = id;
    }

    /// The remote endpoint's socket address.
    pub fn peer_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one envelope `self.id → to`, returning the frame bytes
    /// written (header + payload), which are also metered into the ledger.
    pub fn send(&mut self, to: PeerId, payload: &M) -> Result<usize, NetworkError> {
        self.buf.clear();
        self.buf.extend_from_slice(&self.id.0.to_le_bytes());
        self.buf.extend_from_slice(&to.0.to_le_bytes());
        self.buf.extend_from_slice(&[0u8; 4]); // len backpatched below
        payload.encode(&mut self.buf);
        let len = self.buf.len() - FRAME_HEADER_BYTES;
        if len > MAX_FRAME_BYTES {
            return Err(NetworkError::Disconnected);
        }
        self.buf[8..12].copy_from_slice(&(len as u32).to_le_bytes());
        self.stream
            .write_all(&self.buf)
            .map_err(|_| NetworkError::Disconnected)?;
        if let Some(ledger) = &self.ledger {
            ledger.record(self.id, to, self.buf.len());
        }
        Ok(self.buf.len())
    }

    /// Receives one envelope, waiting at most `timeout` **in total**,
    /// returning it with the frame bytes read. The deadline is absolute:
    /// the socket timeout is re-armed with the remaining time before each
    /// read, so slowly arriving bytes cannot stretch the wait.
    ///
    /// # Errors
    /// [`NetworkError::Timeout`] when the deadline passes. Partially
    /// received frame bytes stay buffered on the connection and the next
    /// call resumes the same frame — a timeout never desyncs the stream
    /// (but see the module docs for why request/response callers should
    /// drop the connection anyway). [`NetworkError::Disconnected`] on EOF,
    /// I/O failure, an oversized frame, or a payload `M::decode` rejects;
    /// the connection is then dead.
    pub fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<(Envelope<M>, usize), NetworkError> {
        let deadline = Instant::now() + timeout;
        let rx = &mut self.rx;
        while rx.header_filled < FRAME_HEADER_BYTES {
            let n = read_some(
                &mut self.stream,
                &mut rx.header[rx.header_filled..],
                deadline,
            )?;
            rx.header_filled += n;
        }
        let len = match rx.payload_len {
            Some(len) => len,
            None => {
                let len = header_u32(&rx.header, 8) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(NetworkError::Disconnected);
                }
                rx.payload.clear();
                rx.payload.resize(len, 0);
                rx.payload_len = Some(len);
                rx.payload_filled = 0;
                len
            }
        };
        while rx.payload_filled < len {
            let n = read_some(
                &mut self.stream,
                &mut rx.payload[rx.payload_filled..len],
                deadline,
            )?;
            rx.payload_filled += n;
        }
        let from = PeerId(header_u32(&rx.header, 0));
        let to = PeerId(header_u32(&rx.header, 4));
        rx.header_filled = 0;
        rx.payload_len = None;
        rx.payload_filled = 0;
        let payload = M::decode(&rx.payload[..len]).ok_or(NetworkError::Disconnected)?;
        Ok((Envelope { from, to, payload }, FRAME_HEADER_BYTES + len))
    }
}

/// One `read(2)` bounded by the absolute `deadline`, with the module's
/// error mapping: deadline expiry and socket timeouts stay typed, EOF and
/// all other failures collapse to `Disconnected`. Returns `Ok(0)` only on
/// `Interrupted` (the caller's fill loop simply retries).
fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, NetworkError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(NetworkError::Timeout);
    }
    stream
        .set_read_timeout(Some(remaining))
        .map_err(|_| NetworkError::Disconnected)?;
    match stream.read(buf) {
        Ok(0) => Err(NetworkError::Disconnected),
        Ok(n) => Ok(n),
        Err(e) => match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                Err(NetworkError::Timeout)
            }
            std::io::ErrorKind::Interrupted => Ok(0),
            _ => Err(NetworkError::Disconnected),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(Vec<u8>);

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            4 + self.0.len()
        }
    }

    impl WireCodec for Msg {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
            buf.extend_from_slice(&self.0);
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            let mut r = WireReader::new(bytes);
            let len = r.u32()? as usize;
            let body = r.bytes(len)?.to_vec();
            r.is_exhausted().then_some(Msg(body))
        }
    }

    /// A connected loopback pair.
    fn pair(ledger: Option<Arc<TrafficLedger>>) -> (FramedConn<Msg>, FramedConn<Msg>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dialer = thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (accepted, _) = listener.accept().expect("accept");
        let client = dialer.join().expect("dial");
        (
            FramedConn::new(client, PeerId(0), ledger.clone()).expect("client conn"),
            FramedConn::new(accepted, PeerId(1), ledger).expect("server conn"),
        )
    }

    #[test]
    fn round_trip_preserves_envelope_and_meters_frames() {
        let ledger = Arc::new(TrafficLedger::new(2));
        let (mut a, mut b) = pair(Some(Arc::clone(&ledger)));
        let sent = a.send(PeerId(1), &Msg(vec![7, 8, 9])).expect("send");
        assert_eq!(sent, FRAME_HEADER_BYTES + 4 + 3);
        let (envelope, read) = b.recv_timeout(Duration::from_secs(5)).expect("recv");
        assert_eq!(envelope.from, PeerId(0));
        assert_eq!(envelope.to, PeerId(1));
        assert_eq!(envelope.payload, Msg(vec![7, 8, 9]));
        assert_eq!(read, sent);
        // Metered once, at send time, with actual frame bytes.
        assert_eq!(ledger.messages(), 1);
        assert_eq!(ledger.bytes(), sent as u64);
        assert_eq!(ledger.edge_bytes(PeerId(0), PeerId(1)), sent as u64);
        assert_eq!(ledger.edge_bytes(PeerId(1), PeerId(0)), 0);
    }

    #[test]
    fn both_directions_and_empty_payloads() {
        let (mut a, mut b) = pair(None);
        b.send(PeerId(0), &Msg(vec![])).expect("send");
        a.send(PeerId(1), &Msg(vec![1])).expect("send");
        let (from_b, _) = a.recv_timeout(Duration::from_secs(5)).expect("recv");
        let (from_a, _) = b.recv_timeout(Duration::from_secs(5)).expect("recv");
        assert_eq!(from_b.payload, Msg(vec![]));
        assert_eq!(from_a.payload, Msg(vec![1]));
    }

    #[test]
    fn recv_timeout_is_typed() {
        let (mut a, _b) = pair(None);
        let err = a.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
    }

    #[test]
    fn timeout_mid_frame_resumes_on_next_recv() {
        let (mut a, b) = pair(None);
        // Hand-feed half a frame, let the receiver time out mid-frame,
        // then complete it: the next recv must return the intact message.
        let mut frame = Vec::new();
        frame.extend_from_slice(&1u32.to_le_bytes()); // from
        frame.extend_from_slice(&0u32.to_le_bytes()); // to
        frame.extend_from_slice(&7u32.to_le_bytes()); // len
        frame.extend_from_slice(&3u32.to_le_bytes()); // Msg inner len
        frame.extend_from_slice(&[4, 5, 6]);
        let mut raw = b.stream.try_clone().expect("clone");
        raw.write_all(&frame[..9]).expect("write first half");
        let err = a.recv_timeout(Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
        raw.write_all(&frame[9..]).expect("write second half");
        let (envelope, read) = a
            .recv_timeout(Duration::from_secs(5))
            .expect("resumed recv");
        assert_eq!(envelope.from, PeerId(1));
        assert_eq!(envelope.payload, Msg(vec![4, 5, 6]));
        assert_eq!(read, frame.len());
        drop(b);
    }

    #[test]
    fn slow_drip_cannot_extend_the_deadline() {
        let (mut a, b) = pair(None);
        // A peer dripping one byte per 20 ms keeps every per-read timer
        // happy forever; the absolute deadline must still fire.
        let mut raw = b.stream.try_clone().expect("clone");
        let dripper = thread::spawn(move || {
            for _ in 0..50 {
                if raw.write_all(&[0]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(20));
            }
        });
        let t0 = std::time::Instant::now();
        let err = a.recv_timeout(Duration::from_millis(120)).unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
        assert!(
            t0.elapsed() < Duration::from_millis(900),
            "deadline stretched to {:?} by the drip-feed",
            t0.elapsed()
        );
        drop(a);
        dripper.join().expect("dripper");
    }

    #[test]
    fn peer_hangup_is_disconnected() {
        let (mut a, b) = pair(None);
        drop(b);
        let err = a.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetworkError::Disconnected);
    }

    #[test]
    fn garbage_payload_is_disconnected_not_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            // Valid header claiming a 2-byte payload that Msg::decode
            // rejects (its inner length prefix points past the end).
            let mut frame = Vec::new();
            frame.extend_from_slice(&0u32.to_le_bytes());
            frame.extend_from_slice(&1u32.to_le_bytes());
            frame.extend_from_slice(&2u32.to_le_bytes());
            frame.extend_from_slice(&[0xFF, 0xFF]);
            s.write_all(&frame).expect("write");
        });
        let (accepted, _) = listener.accept().expect("accept");
        let mut conn = FramedConn::<Msg>::new(accepted, PeerId(1), None).expect("conn");
        let err = conn.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetworkError::Disconnected);
        writer.join().expect("writer");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut frame = Vec::new();
            frame.extend_from_slice(&0u32.to_le_bytes());
            frame.extend_from_slice(&1u32.to_le_bytes());
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
            s.write_all(&frame).expect("write");
        });
        let (accepted, _) = listener.accept().expect("accept");
        let mut conn = FramedConn::<Msg>::new(accepted, PeerId(1), None).expect("conn");
        let err = conn.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetworkError::Disconnected);
        writer.join().expect("writer");
    }

    #[test]
    fn wire_reader_bounds() {
        let mut r = WireReader::new(&[1, 0, 0, 0, 9]);
        assert_eq!(r.u32(), Some(1));
        assert!(!r.is_exhausted());
        assert_eq!(r.u8(), Some(9));
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), None);
        assert_eq!(r.u64(), None);
        assert_eq!(r.bytes(1), None);
    }
}
