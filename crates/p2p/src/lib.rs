//! In-process P2P fabric for `cxkmeans`.
//!
//! The paper evaluates CXK-means on a 19-node GigaBit cluster. This crate
//! substitutes that testbed with three complementary
//! facilities:
//!
//! * [`net`] — a typed message-passing network whose peers are real OS
//!   threads connected by `std::sync::mpsc` channels, with its traffic
//!   (messages and wire bytes) metered in a [`TrafficLedger`]. Used by the
//!   threaded CXK-means runner to exercise genuine concurrency and by the
//!   protocol tests.
//! * [`tcp`] — length-prefixed TCP frames between the two ends of one
//!   connection, for fabrics that span process boundaries (the distributed
//!   serving layer). Each send and receive returns the frame bytes it
//!   moved.
//! * [`simclock`] — a deterministic simulated clock implementing the
//!   paper's own cost model (§4.3.4): main-memory work is charged at
//!   `t_mem` per operation unit and transfers at `t_comm` per byte, with
//!   per-round time being the maximum over peers (peers run in parallel).
//!   The efficiency figures (Fig. 7, Fig. 8) are generated against this
//!   clock so their shape does not depend on how many physical cores the
//!   reproduction host happens to have.

#![warn(missing_docs)]

pub mod net;
pub mod simclock;
pub mod tcp;

pub use net::{Envelope, Network, NetworkError, Peer, PeerId, TrafficLedger, Wire};
pub use simclock::{CostModel, RoundSample, SimClock};
pub use tcp::{FramedConn, WireCodec};
