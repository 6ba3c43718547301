//! Shared utilities for the `cxkmeans` workspace.
//!
//! This crate hosts the small building blocks used by every other crate in
//! the workspace; it has no runtime dependency of its own:
//!
//! * [`hash`] — an FxHash-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases, used throughout hot clustering loops where SipHash overhead is
//!   measurable.
//! * [`rng`] — deterministic, seedable random number generation (ChaCha8,
//!   implemented here) so that every experiment in the benchmark harness is
//!   exactly reproducible.
//! * [`arena`] — [`ArenaTable`], the one hash table behind every symbol
//!   table: keys back to back in one buffer, dense `u32` ids in insertion
//!   order, so a table is three allocations however many keys it holds.
//! * [`intern`] — a compact string interner mapping strings to dense `u32`
//!   symbols (an [`ArenaTable`] over a `String`); tag names, attribute
//!   names and index terms are all interned.
//! * [`hist`] — a lock-free log-bucketed latency histogram shared by the
//!   HTTP server's service-time stats and the open-loop load generator.
//! * [`json`] — the one JSON escaping rule and the one JSON reader, with a
//!   nesting cap, behind batch bodies, error bodies and reports.
//! * [`bytes`] — the one little-endian writer and bounds-checked reader
//!   behind the snapshot codec (`.cxkmodel`, `.cxkds`) and the shard wire
//!   protocol.

#![warn(missing_docs)]

pub mod arena;
pub mod bytes;
pub mod hash;
pub mod hist;
pub mod intern;
pub mod json;
pub mod rng;

pub use arena::{ArenaTable, KeyArena};
pub use bytes::{ByteError, ByteErrorKind, ByteReader};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use hist::LogHistogram;
pub use intern::{Interner, Symbol};
pub use rng::DetRng;
