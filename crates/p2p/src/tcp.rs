//! Length-prefixed TCP framing for the `cxk_p2p` fabric.
//!
//! The in-process network ([`crate::net`]) routes envelopes over
//! `std::sync::mpsc` channels. This module carries messages **across
//! process boundaries**: a [`FramedConn`] wraps one `TcpStream` and
//! exchanges messages as length-prefixed frames. The fabric stays
//! clustering-agnostic — payloads are anything implementing [`WireCodec`],
//! and this crate knows nothing about what they mean. A connection has two
//! ends and nothing else, so a frame names no peer, and the bytes each call
//! moves are returned to the caller, who counts them where it needs them.
//!
//! # Frame format
//!
//! Every frame is `4 + len` bytes:
//!
//! ```text
//! ┌────────────┬──────────────────┐
//! │  len: u32  │  payload (len B) │
//! └────────────┴──────────────────┘
//! ```
//!
//! `len` is little-endian and at most [`MAX_FRAME_BYTES`]; the payload is
//! the [`WireCodec`] encoding of the message.
//!
//! # Untrusted input
//!
//! The receive side never sizes a buffer from the length a peer declares:
//! the payload buffer reaches at most one 64 KiB chunk past the bytes
//! received, so its capacity stays within twice what the peer actually
//! sent plus one chunk, and a header that claims 256 MiB and then stalls
//! costs one chunk, not a 256 MiB zero-fill.
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

use crate::net::NetworkError;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Frames larger than this are treated as protocol corruption rather than
/// received: a desynced stream must not look like a 4 GiB message.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Bytes of frame header preceding every payload (`len`).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Most bytes the payload buffer grows by before the peer has sent them.
const RX_CHUNK_BYTES: usize = 64 * 1024;

/// A message that can cross a byte-oriented transport.
///
/// Encodings must be self-delimiting within the frame: `decode` receives
/// exactly the bytes `encode` produced for one message.
pub trait WireCodec: Sized {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one message from `bytes`; `None` on malformed input (the
    /// connection is then treated as [`NetworkError::Disconnected`]).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// One framed TCP connection exchanging messages of type `M`.
///
/// The connection is symmetric — either end may send or receive — and
/// single-threaded by design (`&mut self`): the serving layer gives each
/// worker its own connection per shard.
pub struct FramedConn<M: WireCodec> {
    stream: TcpStream,
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
    /// Payload bytes received so far; the allocation is reused across
    /// frames.
    payload: Vec<u8>,
}

impl<M: WireCodec> FramedConn<M> {
    /// Wraps an established stream. `TCP_NODELAY` is set — frames are
    /// request/response sized and latency-bound, not throughput-bound.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            rx: RxFrame::default(),
            _marker: PhantomData,
        })
    }

    /// Sends one message, returning the frame bytes written (header +
    /// payload).
    pub fn send(&mut self, msg: &M) -> Result<usize, NetworkError> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]); // len backpatched below
        msg.encode(&mut self.buf);
        let len = self.buf.len() - FRAME_HEADER_BYTES;
        if len > MAX_FRAME_BYTES {
            return Err(NetworkError::Disconnected);
        }
        self.buf[..FRAME_HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
        self.stream
            .write_all(&self.buf)
            .map_err(|_| NetworkError::Disconnected)?;
        Ok(self.buf.len())
    }

    /// Receives one message, waiting at most `timeout` **in total**,
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
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<(M, usize), NetworkError> {
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
        let len = u32::from_le_bytes(rx.header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(NetworkError::Disconnected);
        }
        while rx.payload.len() < len {
            // Extend by one bounded chunk, read into it, and keep only
            // what arrived.
            let filled = rx.payload.len();
            rx.payload
                .resize(filled + (len - filled).min(RX_CHUNK_BYTES), 0);
            match read_some(&mut self.stream, &mut rx.payload[filled..], deadline) {
                Ok(n) => rx.payload.truncate(filled + n),
                Err(e) => {
                    rx.payload.truncate(filled);
                    return Err(e);
                }
            }
        }
        rx.header_filled = 0;
        let msg = M::decode(&rx.payload);
        rx.payload.clear();
        Ok((
            msg.ok_or(NetworkError::Disconnected)?,
            FRAME_HEADER_BYTES + len,
        ))
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

    impl WireCodec for Msg {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
            buf.extend_from_slice(&self.0);
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
            let body = &bytes[4..];
            (len as usize == body.len()).then(|| Msg(body.to_vec()))
        }
    }

    /// A connected loopback pair.
    fn pair() -> (FramedConn<Msg>, FramedConn<Msg>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dialer = thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (accepted, _) = listener.accept().expect("accept");
        let client = dialer.join().expect("dial");
        (
            FramedConn::new(client).expect("client conn"),
            FramedConn::new(accepted).expect("server conn"),
        )
    }

    /// A connection whose peer is a raw stream the test writes bytes to.
    fn raw_pair() -> (FramedConn<Msg>, TcpStream) {
        let (conn, peer) = pair();
        let raw = peer.stream.try_clone().expect("clone");
        (conn, raw)
    }

    /// The frame of `Msg(body)`.
    fn frame_of(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(4 + body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn round_trip_preserves_the_message_and_counts_frame_bytes() {
        let (mut a, mut b) = pair();
        let sent = a.send(&Msg(vec![7, 8, 9])).expect("send");
        assert_eq!(sent, FRAME_HEADER_BYTES + 4 + 3);
        let (msg, read) = b.recv_timeout(Duration::from_secs(5)).expect("recv");
        assert_eq!(msg, Msg(vec![7, 8, 9]));
        assert_eq!(read, sent);
    }

    #[test]
    fn both_directions_and_empty_payloads() {
        let (mut a, mut b) = pair();
        b.send(&Msg(vec![])).expect("send");
        a.send(&Msg(vec![1])).expect("send");
        let (from_b, _) = a.recv_timeout(Duration::from_secs(5)).expect("recv");
        let (from_a, _) = b.recv_timeout(Duration::from_secs(5)).expect("recv");
        assert_eq!(from_b, Msg(vec![]));
        assert_eq!(from_a, Msg(vec![1]));
    }

    #[test]
    fn recv_timeout_is_typed() {
        let (mut a, _b) = pair();
        let err = a.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
    }

    #[test]
    fn timeout_mid_frame_resumes_on_next_recv() {
        let (mut a, mut raw) = raw_pair();
        // Hand-feed half a frame, let the receiver time out mid-frame,
        // then complete it: the next recv must return the intact message.
        let frame = frame_of(&[4, 5, 6]);
        raw.write_all(&frame[..6]).expect("write first half");
        let err = a.recv_timeout(Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
        raw.write_all(&frame[6..]).expect("write second half");
        let (msg, read) = a
            .recv_timeout(Duration::from_secs(5))
            .expect("resumed recv");
        assert_eq!(msg, Msg(vec![4, 5, 6]));
        assert_eq!(read, frame.len());
    }

    #[test]
    fn slow_drip_cannot_extend_the_deadline() {
        let (mut a, mut raw) = raw_pair();
        // A peer dripping one byte of a frame per 20 ms keeps every
        // per-read timer happy forever; the absolute deadline must still
        // fire.
        let frame = frame_of(&[0; 64]);
        let dripper = thread::spawn(move || {
            for byte in frame.chunks(1).take(50) {
                if raw.write_all(byte).is_err() {
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
    fn a_stalled_frame_claiming_the_maximum_grows_no_buffer_past_its_bytes() {
        let (mut a, mut raw) = raw_pair();
        raw.write_all(&(MAX_FRAME_BYTES as u32).to_le_bytes())
            .expect("header");
        raw.write_all(&[1; 16]).expect("16 payload bytes");
        let err = a.recv_timeout(Duration::from_millis(100)).unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
        assert_eq!(a.rx.payload.len(), 16, "the bytes that arrived are kept");
        assert!(
            a.rx.payload.capacity() < 1024 * 1024,
            "a stalled 256 MiB claim reserved {} bytes",
            a.rx.payload.capacity()
        );
    }

    #[test]
    fn a_frame_of_a_few_mib_dripped_in_chunks_decodes() {
        let (mut a, mut raw) = raw_pair();
        let body: Vec<u8> = (0..3 * 1024 * 1024 + 17).map(|i| (i % 251) as u8).collect();
        let frame = frame_of(&body);
        let writer = thread::spawn(move || {
            for chunk in frame.chunks(100_000) {
                raw.write_all(chunk).expect("write chunk");
                thread::sleep(Duration::from_millis(2));
            }
        });
        let (msg, read) = loop {
            match a.recv_timeout(Duration::from_millis(5)) {
                Ok(got) => break got,
                Err(NetworkError::Timeout) => continue,
                Err(e) => panic!("{e}"),
            }
        };
        writer.join().expect("writer");
        assert_eq!(read, FRAME_HEADER_BYTES + 4 + body.len());
        assert_eq!(msg, Msg(body));
    }

    #[test]
    fn peer_hangup_is_disconnected() {
        let (mut a, b) = pair();
        drop(b);
        let err = a.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetworkError::Disconnected);
    }

    #[test]
    fn garbage_payload_is_disconnected_not_panic() {
        let (mut conn, mut raw) = raw_pair();
        // Valid header claiming a 2-byte payload that Msg::decode rejects
        // (its inner length prefix points past the end).
        raw.write_all(&2u32.to_le_bytes()).expect("header");
        raw.write_all(&[0xFF, 0xFF]).expect("payload");
        let err = conn.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetworkError::Disconnected);
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let (mut conn, mut raw) = raw_pair();
        raw.write_all(&u32::MAX.to_le_bytes()).expect("header");
        let err = conn.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetworkError::Disconnected);
        assert_eq!(conn.rx.payload.capacity(), 0);
    }
}
