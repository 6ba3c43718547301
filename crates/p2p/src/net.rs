//! Typed peer-to-peer message network over `std::sync::mpsc` channels.
//!
//! A [`Network`] of `m` peers provides every peer a handle with unbounded
//! channels to every other peer. Every send is metered in a shared
//! [`TrafficLedger`] (message count and wire bytes), which the threaded
//! CXK-means runner reports as the run's network load.

use std::sync::atomic::{AtomicU64, Ordering};
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
    /// The receive side timed out.
    Timeout,
    /// All senders to this peer hung up.
    Disconnected,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Timeout => write!(f, "receive timed out"),
            NetworkError::Disconnected => write!(f, "channel disconnected"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Shared traffic meter: messages sent and their wire bytes.
#[derive(Debug, Default)]
pub struct TrafficLedger {
    total_messages: AtomicU64,
    total_bytes: AtomicU64,
}

impl TrafficLedger {
    /// Meters one message of `bytes` wire bytes, at send time.
    fn record(&self, bytes: usize) {
        self.total_messages.fetch_add(1, Ordering::Relaxed);
        self.total_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Total messages sent on the network.
    pub fn messages(&self) -> u64 {
        self.total_messages.load(Ordering::Relaxed)
    }

    /// Total bytes sent on the network.
    pub fn bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }
}

/// A peer's handle: its inbox plus senders to every peer.
pub struct Peer<M> {
    /// This peer's id.
    pub id: PeerId,
    senders: Vec<Sender<Envelope<M>>>,
    receiver: Receiver<Envelope<M>>,
    ledger: Arc<TrafficLedger>,
}

impl<M: Wire> Peer<M> {
    /// Sends `payload` to `to`, metering its wire size.
    pub fn send(&self, to: PeerId, payload: M) -> Result<(), NetworkError> {
        let bytes = payload.wire_size();
        let envelope = Envelope {
            from: self.id,
            to,
            payload,
        };
        self.senders[to.index()]
            .send(envelope)
            .map_err(|_| NetworkError::Disconnected)?;
        self.ledger.record(bytes);
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

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, NetworkError> {
        self.receiver.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetworkError::Timeout,
            RecvTimeoutError::Disconnected => NetworkError::Disconnected,
        })
    }
}

/// Control handle for a network: read its traffic ledger.
pub struct Network {
    ledger: Arc<TrafficLedger>,
}

impl Network {
    /// Creates a network of `m` peers, returning the control handle and the
    /// per-peer handles (to be moved into peer threads).
    pub fn create<M: Wire>(m: usize) -> (Network, Vec<Peer<M>>) {
        assert!(m > 0, "network needs at least one peer");
        let ledger = Arc::new(TrafficLedger::default());
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
                ledger: Arc::clone(&ledger),
            })
            .collect();
        (Network { ledger }, peers)
    }

    /// The traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
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

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn point_to_point_delivery() {
        let (net, mut peers) = Network::create::<Msg>(2);
        let p1 = peers.pop().unwrap();
        let p0 = peers.pop().unwrap();
        p0.send(PeerId(1), Msg(vec![1, 2, 3])).unwrap();
        let envelope = p1.recv_timeout(WAIT).unwrap();
        assert_eq!(envelope.from, PeerId(0));
        assert_eq!(envelope.payload, Msg(vec![1, 2, 3]));
        assert_eq!(net.ledger().bytes(), 3);
        assert_eq!(net.ledger().messages(), 1);
    }

    #[test]
    fn broadcast_reaches_all_other_peers() {
        let (net, peers) = Network::create::<Msg>(4);
        peers[0].broadcast(&Msg(vec![9; 10])).unwrap();
        for peer in &peers[1..] {
            let envelope = peer.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(envelope.from, PeerId(0));
        }
        assert_eq!(
            peers[0]
                .recv_timeout(Duration::from_millis(10))
                .unwrap_err(),
            NetworkError::Timeout,
            "no self-delivery"
        );
        assert_eq!(net.ledger().messages(), 3);
        assert_eq!(net.ledger().bytes(), 30);
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (_net, mut peers) = Network::create::<Msg>(2);
        let p1 = peers.pop().unwrap();
        let p0 = peers.pop().unwrap();
        let echo = thread::spawn(move || {
            let envelope = p1.recv_timeout(WAIT).unwrap();
            p1.send(envelope.from, envelope.payload).unwrap();
        });
        p0.send(PeerId(1), Msg(vec![42])).unwrap();
        let back = p0.recv_timeout(WAIT).unwrap();
        assert_eq!(back.payload, Msg(vec![42]));
        echo.join().unwrap();
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
                    for _ in 1..m {
                        peer.recv_timeout(WAIT).unwrap();
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
