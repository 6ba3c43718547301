//! Typed peer-to-peer message network over `std::sync::mpsc` channels.
//!
//! A [`Network`] of `m` peers provides every peer a handle with unbounded
//! channels to every other peer. All traffic is metered in a shared
//! [`TrafficLedger`] (message counts and wire bytes per directed edge),
//! which the benchmark harness reads to report network load. Peers can be
//! *disconnected* to inject failures in tests: sends to a disconnected peer
//! fail with [`NetworkError::PeerDown`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a peer in a network, dense in `0..m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Peer index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Messages must report their serialized size so that traffic can be
/// metered without actually serializing anything in-process.
pub trait Wire: Send + 'static {
    /// Estimated wire size in bytes.
    fn wire_size(&self) -> usize;
}

/// A routed message.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sender.
    pub from: PeerId,
    /// Recipient.
    pub to: PeerId,
    /// Payload.
    pub payload: M,
}

/// Network errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// The destination peer was disconnected.
    PeerDown(PeerId),
    /// The receive side timed out.
    Timeout,
    /// All senders to this peer hung up.
    Disconnected,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::PeerDown(p) => write!(f, "peer {} is down", p.0),
            NetworkError::Timeout => write!(f, "receive timed out"),
            NetworkError::Disconnected => write!(f, "channel disconnected"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Shared traffic meter.
#[derive(Debug)]
pub struct TrafficLedger {
    m: usize,
    total_messages: AtomicU64,
    total_bytes: AtomicU64,
    /// Row-major `m × m` directed edge byte counts.
    edges: Vec<AtomicU64>,
}

impl TrafficLedger {
    /// Creates a ledger for `m` peers with all counters at zero.
    ///
    /// [`Network::create`] builds one internally; external transports (the
    /// framed TCP transport in [`crate::tcp`]) construct their own and
    /// share it across connections so cross-process traffic is metered
    /// under the same contract as in-process traffic.
    pub fn new(m: usize) -> Self {
        Self {
            m,
            total_messages: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            edges: (0..m * m).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Meters one message of `bytes` wire bytes on the directed edge
    /// `from → to`. Every transport records each message exactly once, at
    /// send time.
    pub fn record(&self, from: PeerId, to: PeerId, bytes: usize) {
        self.total_messages.fetch_add(1, Ordering::Relaxed);
        self.total_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(edge) = self.edges.get(from.index() * self.m + to.index()) {
            edge.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Total messages sent on the network.
    pub fn messages(&self) -> u64 {
        self.total_messages.load(Ordering::Relaxed)
    }

    /// Total bytes sent on the network.
    pub fn bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Bytes sent on the directed edge `from → to`.
    pub fn edge_bytes(&self, from: PeerId, to: PeerId) -> u64 {
        self.edge(from.index() * self.m + to.index())
    }

    /// Bytes sent out by one peer.
    pub fn sent_by(&self, peer: PeerId) -> u64 {
        (0..self.m)
            .map(|j| self.edge(peer.index() * self.m + j))
            .sum()
    }

    /// Bytes received by one peer.
    pub fn received_by(&self, peer: PeerId) -> u64 {
        (0..self.m)
            .map(|i| self.edge(i * self.m + peer.index()))
            .sum()
    }

    /// The byte count at row-major edge index `i` (0 outside the matrix).
    fn edge(&self, i: usize) -> u64 {
        self.edges
            .get(i)
            .map_or(0, |edge| edge.load(Ordering::Relaxed))
    }

    /// Resets all counters (between experiment repetitions).
    pub fn reset(&self) {
        self.total_messages.store(0, Ordering::Relaxed);
        self.total_bytes.store(0, Ordering::Relaxed);
        for edge in &self.edges {
            edge.store(0, Ordering::Relaxed);
        }
    }
}

struct Shared {
    ledger: TrafficLedger,
    down: Vec<AtomicBool>,
}

/// A peer's handle: its inbox plus senders to every peer.
pub struct Peer<M> {
    /// This peer's id.
    pub id: PeerId,
    senders: Vec<Sender<Envelope<M>>>,
    receiver: Receiver<Envelope<M>>,
    shared: Arc<Shared>,
}

impl<M: Wire> Peer<M> {
    /// Number of peers in the network.
    pub fn network_size(&self) -> usize {
        self.senders.len()
    }

    /// Sends `payload` to `to`, metering its wire size.
    pub fn send(&self, to: PeerId, payload: M) -> Result<(), NetworkError> {
        if self.shared.down[to.index()].load(Ordering::Acquire) {
            return Err(NetworkError::PeerDown(to));
        }
        let bytes = payload.wire_size();
        let envelope = Envelope {
            from: self.id,
            to,
            payload,
        };
        self.senders[to.index()]
            .send(envelope)
            .map_err(|_| NetworkError::Disconnected)?;
        self.shared.ledger.record(self.id, to, bytes);
        Ok(())
    }

    /// Sends a clone of `payload` to every *other* peer.
    pub fn broadcast(&self, payload: &M) -> Result<(), NetworkError>
    where
        M: Clone,
    {
        for i in 0..self.senders.len() {
            let to = PeerId(i as u32);
            if to == self.id {
                continue;
            }
            self.send(to, payload.clone())?;
        }
        Ok(())
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Envelope<M>, NetworkError> {
        self.receiver.recv().map_err(|_| NetworkError::Disconnected)
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, NetworkError> {
        self.receiver.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetworkError::Timeout,
            RecvTimeoutError::Disconnected => NetworkError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.receiver.try_recv().ok()
    }
}

/// Control handle for a network: ledger access and failure injection.
pub struct Network {
    shared: Arc<Shared>,
    m: usize,
}

impl Network {
    /// Creates a network of `m` peers, returning the control handle and the
    /// per-peer handles (to be moved into peer threads).
    pub fn create<M: Wire>(m: usize) -> (Network, Vec<Peer<M>>) {
        assert!(m > 0, "network needs at least one peer");
        let shared = Arc::new(Shared {
            ledger: TrafficLedger::new(m),
            down: (0..m).map(|_| AtomicBool::new(false)).collect(),
        });
        let mut senders = Vec::with_capacity(m);
        let mut receivers = Vec::with_capacity(m);
        for _ in 0..m {
            let (tx, rx) = channel::<Envelope<M>>();
            senders.push(tx);
            receivers.push(rx);
        }
        let peers = receivers
            .into_iter()
            .enumerate()
            .map(|(i, receiver)| Peer {
                id: PeerId(i as u32),
                senders: senders.clone(),
                receiver,
                shared: Arc::clone(&shared),
            })
            .collect();
        (Network { shared, m }, peers)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the network has no peers (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.shared.ledger
    }

    /// Marks a peer as failed: subsequent sends to it error.
    pub fn disconnect(&self, peer: PeerId) {
        self.shared.down[peer.index()].store(true, Ordering::Release);
    }

    /// Restores a previously disconnected peer.
    pub fn reconnect(&self, peer: PeerId) {
        self.shared.down[peer.index()].store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(Vec<u8>);

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn point_to_point_delivery() {
        let (net, mut peers) = Network::create::<Msg>(2);
        let p1 = peers.pop().unwrap();
        let p0 = peers.pop().unwrap();
        p0.send(PeerId(1), Msg(vec![1, 2, 3])).unwrap();
        let envelope = p1.recv().unwrap();
        assert_eq!(envelope.from, PeerId(0));
        assert_eq!(envelope.payload, Msg(vec![1, 2, 3]));
        assert_eq!(net.ledger().bytes(), 3);
        assert_eq!(net.ledger().messages(), 1);
        assert_eq!(net.ledger().edge_bytes(PeerId(0), PeerId(1)), 3);
        assert_eq!(net.ledger().edge_bytes(PeerId(1), PeerId(0)), 0);
    }

    #[test]
    fn broadcast_reaches_all_other_peers() {
        let (net, peers) = Network::create::<Msg>(4);
        peers[0].broadcast(&Msg(vec![9; 10])).unwrap();
        for peer in &peers[1..] {
            let envelope = peer.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(envelope.from, PeerId(0));
        }
        assert!(peers[0].try_recv().is_none(), "no self-delivery");
        assert_eq!(net.ledger().messages(), 3);
        assert_eq!(net.ledger().bytes(), 30);
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (_net, mut peers) = Network::create::<Msg>(2);
        let p1 = peers.pop().unwrap();
        let p0 = peers.pop().unwrap();
        let echo = thread::spawn(move || {
            let envelope = p1.recv().unwrap();
            p1.send(envelope.from, envelope.payload).unwrap();
        });
        p0.send(PeerId(1), Msg(vec![42])).unwrap();
        let back = p0.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(back.payload, Msg(vec![42]));
        echo.join().unwrap();
    }

    #[test]
    fn disconnect_fails_sends_and_reconnect_restores() {
        let (net, peers) = Network::create::<Msg>(3);
        net.disconnect(PeerId(2));
        let err = peers[0].send(PeerId(2), Msg(vec![1])).unwrap_err();
        assert_eq!(err, NetworkError::PeerDown(PeerId(2)));
        // No traffic is metered for failed sends.
        assert_eq!(net.ledger().bytes(), 0);
        net.reconnect(PeerId(2));
        peers[0].send(PeerId(2), Msg(vec![1])).unwrap();
        assert_eq!(net.ledger().bytes(), 1);
    }

    #[test]
    fn per_peer_accounting() {
        let (net, peers) = Network::create::<Msg>(3);
        peers[0].send(PeerId(1), Msg(vec![0; 5])).unwrap();
        peers[0].send(PeerId(2), Msg(vec![0; 7])).unwrap();
        peers[1].send(PeerId(0), Msg(vec![0; 11])).unwrap();
        assert_eq!(net.ledger().sent_by(PeerId(0)), 12);
        assert_eq!(net.ledger().received_by(PeerId(0)), 11);
        assert_eq!(net.ledger().received_by(PeerId(2)), 7);
        net.ledger().reset();
        assert_eq!(net.ledger().bytes(), 0);
        assert_eq!(net.ledger().sent_by(PeerId(0)), 0);
    }

    #[test]
    fn recv_timeout_expires() {
        let (_net, peers) = Network::create::<Msg>(2);
        let err = peers[0]
            .recv_timeout(Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, NetworkError::Timeout);
    }

    #[test]
    fn many_peers_many_messages() {
        let m = 8;
        let (net, peers) = Network::create::<Msg>(m);
        let handles: Vec<_> = peers
            .into_iter()
            .map(|peer| {
                thread::spawn(move || {
                    peer.broadcast(&Msg(vec![peer.id.0 as u8])).unwrap();
                    let mut seen = 0;
                    while seen < peer.network_size() - 1 {
                        peer.recv_timeout(Duration::from_secs(5)).unwrap();
                        seen += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.ledger().messages() as usize, m * (m - 1));
    }
}
